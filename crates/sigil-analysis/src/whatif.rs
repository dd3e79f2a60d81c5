//! Whole-program offload estimation.
//!
//! The paper notes that "Sigil's profile has been used along with an
//! assumed execution model to measure overall gains with offloaded
//! functions" (§V, citing the authors' *Metrics for early-stage modeling
//! of many-accelerator architectures*). This module implements that
//! execution model: pick accelerator candidates, assume a computational
//! speedup for each, charge their boundary communication to the SoC bus,
//! and estimate the whole-program speedup (Amdahl with explicit
//! communication).

use serde::{Deserialize, Serialize};
use sigil_callgrind::ContextId;
use sigil_core::Profile;

use crate::breakeven::BusModel;
use crate::cdfg::Cdfg;
use crate::inclusive::inclusive_table;

/// One candidate offload: a calltree context (merged with its sub-tree)
/// and the computational speedup its accelerator is assumed to deliver.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OffloadScenario {
    /// The context to offload (with its whole sub-tree).
    pub ctx: ContextId,
    /// Assumed accelerator speedup over software (> 0).
    pub accel_speedup: f64,
}

/// The estimate for one scenario plus the program-level roll-up.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OffloadEstimate {
    /// Estimated cycles of the unmodified program.
    pub baseline_cycles: u64,
    /// Estimated cycles with every scenario offloaded.
    pub offloaded_cycles: f64,
    /// Per-scenario `(software cycles, accelerated cycles incl. bus)`.
    pub per_scenario: Vec<(f64, f64)>,
}

impl OffloadEstimate {
    /// Whole-program speedup (baseline / offloaded).
    pub fn speedup(&self) -> f64 {
        self.baseline_cycles as f64 / self.offloaded_cycles.max(1e-9)
    }
}

/// Errors from [`estimate_offload`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum WhatIfError {
    /// Two scenarios overlap (one context inside another's sub-tree).
    OverlappingScenarios {
        /// The contained context.
        inner: ContextId,
        /// The containing context.
        outer: ContextId,
    },
    /// A scenario's speedup was zero or negative.
    InvalidSpeedup {
        /// The offending context.
        ctx: ContextId,
    },
}

impl std::fmt::Display for WhatIfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WhatIfError::OverlappingScenarios { inner, outer } => {
                write!(f, "scenario {inner} lies inside scenario {outer}")
            }
            WhatIfError::InvalidSpeedup { ctx } => {
                write!(f, "scenario {ctx} has a non-positive speedup")
            }
        }
    }
}

impl std::error::Error for WhatIfError {}

/// Estimates the whole-program effect of offloading `scenarios` under
/// `bus`.
///
/// Each offloaded sub-tree's software time is replaced by
/// `t_sw / accel_speedup + t_comm_in + t_comm_out` — the model behind
/// the paper's breakeven metric: a speedup exactly equal to the
/// candidate's breakeven yields overall speedup 1.0.
///
/// # Example
///
/// ```
/// use sigil_analysis::breakeven::BusModel;
/// use sigil_analysis::whatif::{estimate_offload, OffloadScenario};
/// use sigil_analysis::Cdfg;
/// use sigil_core::{SigilConfig, SigilProfiler};
/// use sigil_trace::{Engine, OpClass};
///
/// let mut engine = Engine::new(SigilProfiler::new(SigilConfig::default()));
/// engine.scoped_named("main", |e| {
///     e.scoped_named("kernel", |e| e.op(OpClass::FloatArith, 100_000));
///     e.op(OpClass::IntArith, 1_000);
/// });
/// let (p, s) = engine.finish_with_symbols();
/// let profile = p.into_profile(s);
///
/// let kernel = Cdfg::from_profile(&profile)
///     .nodes().iter().find(|n| n.name == "kernel").unwrap().ctx;
/// let est = estimate_offload(
///     &profile,
///     &[OffloadScenario { ctx: kernel, accel_speedup: 100.0 }],
///     &BusModel::soc_default(),
/// ).unwrap();
/// assert!(est.speedup() > 10.0, "kernel dominates, so the program flies");
/// ```
///
/// # Errors
///
/// Fails if scenarios overlap or a speedup is non-positive.
pub fn estimate_offload(
    profile: &Profile,
    scenarios: &[OffloadScenario],
    bus: &BusModel,
) -> Result<OffloadEstimate, WhatIfError> {
    let cdfg = Cdfg::from_profile(profile);
    for (i, a) in scenarios.iter().enumerate() {
        if a.accel_speedup <= 0.0 {
            return Err(WhatIfError::InvalidSpeedup { ctx: a.ctx });
        }
        for b in scenarios.iter().skip(i + 1) {
            if cdfg.is_in_subtree(a.ctx, b.ctx) {
                return Err(WhatIfError::OverlappingScenarios {
                    inner: a.ctx,
                    outer: b.ctx,
                });
            }
            if cdfg.is_in_subtree(b.ctx, a.ctx) {
                return Err(WhatIfError::OverlappingScenarios {
                    inner: b.ctx,
                    outer: a.ctx,
                });
            }
        }
    }

    let inclusive = inclusive_table(&cdfg);
    let model = profile.callgrind.cycle_model;
    let baseline = profile.callgrind.total_cycles();
    let mut offloaded = baseline as f64;
    let mut per_scenario = Vec::with_capacity(scenarios.len());
    for s in scenarios {
        let inc = &inclusive[s.ctx.index()];
        let t_sw = model.estimate(&inc.costs) as f64;
        let t_accel = t_sw / s.accel_speedup
            + bus.transfer_cycles(inc.comm_in_unique)
            + bus.transfer_cycles(inc.comm_out_unique);
        offloaded = offloaded - t_sw + t_accel;
        per_scenario.push((t_sw, t_accel));
    }
    Ok(OffloadEstimate {
        baseline_cycles: baseline,
        offloaded_cycles: offloaded,
        per_scenario,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sigil_core::{SigilConfig, SigilProfiler};
    use sigil_trace::{Engine, OpClass};

    fn profile() -> Profile {
        let mut engine = Engine::new(SigilProfiler::new(SigilConfig::default()));
        engine.scoped_named("main", |e| {
            e.write(0x0, 64);
            e.scoped_named("kernel", |e| {
                e.read(0x0, 64);
                e.op(OpClass::FloatArith, 90_000);
                e.write(0x100, 64);
            });
            e.read(0x100, 64);
            e.op(OpClass::IntArith, 10_000);
        });
        let (p, s) = engine.finish_with_symbols();
        p.into_profile(s)
    }

    fn kernel_ctx(profile: &Profile) -> ContextId {
        let cdfg = Cdfg::from_profile(profile);
        cdfg.nodes()
            .iter()
            .find(|n| n.name == "kernel")
            .expect("kernel")
            .ctx
    }

    #[test]
    fn amdahl_shape() {
        let profile = profile();
        let ctx = kernel_ctx(&profile);
        let bus = BusModel::soc_default();
        let est = estimate_offload(
            &profile,
            &[OffloadScenario {
                ctx,
                accel_speedup: 10.0,
            }],
            &bus,
        )
        .expect("valid scenario");
        // Kernel is ~90% of cycles: 10x on it gives roughly 1/(0.1+0.09)
        // ≈ 5x, definitely between 3x and 10x.
        assert!(
            est.speedup() > 3.0 && est.speedup() < 10.0,
            "{}",
            est.speedup()
        );
    }

    #[test]
    fn speedup_one_at_breakeven() {
        let profile = profile();
        let ctx = kernel_ctx(&profile);
        let bus = BusModel::soc_default();
        let cdfg = Cdfg::from_profile(&profile);
        let inclusive = inclusive_table(&cdfg);
        let inc = &inclusive[ctx.index()];
        let cycles = profile.callgrind.cycle_model.estimate(&inc.costs);
        let breakeven = bus.breakeven(cycles, inc.comm_in_unique, inc.comm_out_unique);
        let est = estimate_offload(
            &profile,
            &[OffloadScenario {
                ctx,
                accel_speedup: breakeven,
            }],
            &bus,
        )
        .expect("valid scenario");
        assert!(
            (est.speedup() - 1.0).abs() < 1e-6,
            "breakeven must be the break-even point, got {}",
            est.speedup()
        );
    }

    #[test]
    fn infinite_accelerator_leaves_communication() {
        let profile = profile();
        let ctx = kernel_ctx(&profile);
        let bus = BusModel::soc_default();
        let est = estimate_offload(
            &profile,
            &[OffloadScenario {
                ctx,
                accel_speedup: 1e12,
            }],
            &bus,
        )
        .expect("valid scenario");
        let (_, t_accel) = est.per_scenario[0];
        let expected_comm = bus.transfer_cycles(64) + bus.transfer_cycles(64);
        assert!((t_accel - expected_comm).abs() < 1.0);
    }

    #[test]
    fn overlapping_scenarios_rejected() {
        let profile = profile();
        let cdfg = Cdfg::from_profile(&profile);
        let main = cdfg
            .nodes()
            .iter()
            .find(|n| n.name == "main")
            .expect("main")
            .ctx;
        let kernel = kernel_ctx(&profile);
        let err = estimate_offload(
            &profile,
            &[
                OffloadScenario {
                    ctx: main,
                    accel_speedup: 2.0,
                },
                OffloadScenario {
                    ctx: kernel,
                    accel_speedup: 2.0,
                },
            ],
            &BusModel::soc_default(),
        )
        .unwrap_err();
        assert!(matches!(err, WhatIfError::OverlappingScenarios { .. }));
    }

    #[test]
    fn non_positive_speedup_rejected() {
        let profile = profile();
        let err = estimate_offload(
            &profile,
            &[OffloadScenario {
                ctx: kernel_ctx(&profile),
                accel_speedup: 0.0,
            }],
            &BusModel::soc_default(),
        )
        .unwrap_err();
        assert!(matches!(err, WhatIfError::InvalidSpeedup { .. }));
    }

    #[test]
    fn empty_scenario_list_is_identity() {
        let profile = profile();
        let est = estimate_offload(&profile, &[], &BusModel::soc_default()).expect("empty ok");
        assert!((est.speedup() - 1.0).abs() < 1e-12);
    }
}
