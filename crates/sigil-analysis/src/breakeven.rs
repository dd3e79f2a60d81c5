//! The breakeven-speedup metric (paper Eq. 1).

use serde::{Deserialize, Serialize};

/// Fixed SoC-bus model converting offloaded bytes into transfer cycles.
///
/// The paper computes "the hardware offload time … as the time to
/// communicate data to and from the accelerator assuming a fixed SoC bus
/// bandwidth".
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BusModel {
    /// Bus bandwidth in bytes per estimated CPU cycle.
    pub bytes_per_cycle: f64,
    /// Fixed per-offload latency in cycles (request setup, DMA kickoff).
    pub fixed_latency_cycles: f64,
}

impl BusModel {
    /// A plausible SoC bus: 8 bytes/cycle, 100-cycle setup.
    pub const fn soc_default() -> Self {
        BusModel {
            bytes_per_cycle: 8.0,
            fixed_latency_cycles: 100.0,
        }
    }

    /// Cycles needed to move `bytes` across the bus.
    pub fn transfer_cycles(&self, bytes: u64) -> f64 {
        if bytes == 0 {
            return 0.0;
        }
        self.fixed_latency_cycles + bytes as f64 / self.bytes_per_cycle
    }

    /// Breakeven speedup (Eq. 1) of offloading a merged sub-tree that
    /// takes `t_sw` cycles in software and moves `in_bytes` into and
    /// `out_bytes` out of its box over this bus.
    pub fn breakeven(&self, t_sw: u64, in_bytes: u64, out_bytes: u64) -> f64 {
        breakeven_speedup(
            t_sw as f64,
            self.transfer_cycles(in_bytes),
            self.transfer_cycles(out_bytes),
        )
    }
}

impl Default for BusModel {
    fn default() -> Self {
        BusModel::soc_default()
    }
}

/// Computes the breakeven speedup (Eq. 1):
///
/// ```text
/// S_breakeven = t_sw / (t_sw − (t_comm:ip:accel + t_comm:op:accel))
/// ```
///
/// `t_sw` is the software execution time of the candidate (estimated
/// cycles of the merged sub-tree); `t_comm` the input/output data-offload
/// cost. "Any computational speedup obtained in excess of the
/// breakeven-speedup will result in an overall improvement."
///
/// Returns `f64::INFINITY` — the documented "can never pay off" sentinel
/// — whenever the denominator would be zero or negative, i.e. when
/// communication costs meet or exceed the software time, when `t_sw` is
/// not a positive finite number, or when either communication cost is
/// non-finite. Negative communication costs are clamped to zero (costs
/// are magnitudes; a negative estimate is a modelling artifact, not a
/// credit). The result is therefore always in `[1.0, INFINITY]` and
/// `NAN` never.
///
/// # Example
///
/// ```
/// use sigil_analysis::breakeven_speedup;
///
/// // 1000 cycles of software time, 50 cycles of offload traffic each way:
/// let s = breakeven_speedup(1000.0, 50.0, 50.0);
/// assert!((s - 1000.0 / 900.0).abs() < 1e-12);
///
/// // Communication-dominated candidates can never pay off:
/// assert_eq!(breakeven_speedup(100.0, 80.0, 30.0), f64::INFINITY);
///
/// // Degenerate inputs hit the sentinel instead of propagating NaN:
/// assert_eq!(breakeven_speedup(f64::NAN, 0.0, 0.0), f64::INFINITY);
/// assert_eq!(breakeven_speedup(f64::INFINITY, 10.0, 0.0), f64::INFINITY);
/// ```
pub fn breakeven_speedup(t_sw: f64, t_comm_in: f64, t_comm_out: f64) -> f64 {
    if !t_sw.is_finite() || t_sw <= 0.0 {
        return f64::INFINITY;
    }
    if !t_comm_in.is_finite() || !t_comm_out.is_finite() {
        return f64::INFINITY;
    }
    let comm = t_comm_in.max(0.0) + t_comm_out.max(0.0);
    if comm >= t_sw {
        f64::INFINITY
    } else {
        t_sw / (t_sw - comm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_communication_gives_breakeven_one() {
        assert_eq!(breakeven_speedup(1000.0, 0.0, 0.0), 1.0);
    }

    #[test]
    fn small_communication_gives_slightly_above_one() {
        let s = breakeven_speedup(1000.0, 5.0, 5.0);
        assert!((s - 1000.0 / 990.0).abs() < 1e-12);
        assert!(s > 1.0 && s < 1.02);
    }

    #[test]
    fn communication_dominates_gives_infinity() {
        assert_eq!(breakeven_speedup(100.0, 60.0, 50.0), f64::INFINITY);
        assert_eq!(breakeven_speedup(100.0, 100.0, 0.0), f64::INFINITY);
        assert_eq!(breakeven_speedup(0.0, 0.0, 0.0), f64::INFINITY);
    }

    #[test]
    fn boundary_both_sides() {
        // Exactly at the boundary (comm == t_sw): denominator would be
        // zero — sentinel, not a division by zero.
        assert_eq!(breakeven_speedup(100.0, 50.0, 50.0), f64::INFINITY);
        // One ULP-ish below the boundary: huge but finite, never NaN.
        let s = breakeven_speedup(100.0, 50.0, 49.999_999);
        assert!(s.is_finite() && s > 1.0e6, "got {s}");
        // One step above the boundary: sentinel again.
        assert_eq!(breakeven_speedup(100.0, 50.0, 50.000_001), f64::INFINITY);
    }

    #[test]
    fn degenerate_inputs_hit_sentinel_never_nan() {
        for s in [
            breakeven_speedup(f64::NAN, 10.0, 10.0),
            breakeven_speedup(f64::INFINITY, 10.0, 10.0),
            breakeven_speedup(-100.0, 10.0, 10.0),
            breakeven_speedup(100.0, f64::NAN, 0.0),
            breakeven_speedup(100.0, 0.0, f64::NAN),
            breakeven_speedup(100.0, f64::INFINITY, 0.0),
            breakeven_speedup(100.0, f64::NEG_INFINITY, 0.0),
        ] {
            assert_eq!(s, f64::INFINITY);
        }
    }

    #[test]
    fn negative_communication_clamps_to_zero() {
        // A negative cost estimate is treated as zero, not as a credit
        // that could push the result below 1.0.
        assert_eq!(breakeven_speedup(1000.0, -50.0, 0.0), 1.0);
        let s = breakeven_speedup(1000.0, -50.0, 100.0);
        assert!((s - 1000.0 / 900.0).abs() < 1e-12);
        assert!(breakeven_speedup(1000.0, -1.0, 5.0) >= 1.0);
    }

    #[test]
    fn breakeven_is_monotonic_in_communication() {
        let mut last = breakeven_speedup(1000.0, 0.0, 0.0);
        for comm in [10.0, 100.0, 500.0, 900.0] {
            let s = breakeven_speedup(1000.0, comm, 0.0);
            assert!(s >= last);
            last = s;
        }
    }

    #[test]
    fn bus_model_charges_latency_plus_bytes() {
        let bus = BusModel::soc_default();
        assert_eq!(bus.transfer_cycles(0), 0.0);
        assert_eq!(bus.transfer_cycles(800), 100.0 + 100.0);
    }

    #[test]
    fn bus_breakeven_combines_transfers_and_cycles() {
        let bus = BusModel {
            bytes_per_cycle: 8.0,
            fixed_latency_cycles: 0.0,
        };
        // t_comm = 10 cycles, t_sw = 100 → 100/90.
        let s = bus.breakeven(100, 80, 0);
        assert!((s - 100.0 / 90.0).abs() < 1e-12);
    }
}
