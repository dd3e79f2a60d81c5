//! Small helpers shared by the workloads and the traced ladder: the seeded
//! permutation, result digests, order statistics, and process memory.

use std::time::Instant;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The benchmark's only source of randomness: it permutes program order
/// and deals session kinds and chunk sizes, so the same `--seed` always
/// yields the same inputs.
pub fn rng(seed: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed)
}

/// Fisher–Yates shuffle.
pub fn shuffle<T>(rng: &mut SmallRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..i + 1));
    }
}

/// FNV-1a over `bytes` (the SGEB chunk checksum): the digest every
/// checked result is compared by.
pub use sigil_core::events_bin::payload_checksum as digest;

/// Digest of a value's JSON serialization (the repo's serializer is
/// deterministic: maps are ordered and floats print shortest-roundtrip).
pub fn json_digest<T: serde::Serialize>(value: &T) -> u64 {
    digest(
        serde_json::to_string(value)
            .expect("results serialize")
            .as_bytes(),
    )
}

/// Milliseconds elapsed since `start`.
pub fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Linear-interpolated quantile (`q` in 0..=1) of unsorted samples;
/// 0 for an empty slice.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Mean of the samples left after dropping the lowest and highest
/// quarter; 0 for an empty slice.
pub fn interquartile_mean(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let middle = &v[v.len() / 4..v.len() - v.len() / 4];
    middle.iter().sum::<f64>() / middle.len().max(1) as f64
}

/// Peak resident set (`VmHWM`) of process `pid` (`"self"` for this
/// one), in MiB.
pub fn vm_hwm_mib(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(median(&v), 6.0);
        assert_eq!(quantile(&v, 0.9), 10.0);
        assert_eq!(quantile(&[2.0, 4.0], 0.5), 3.0);
        assert_eq!(interquartile_mean(&[9.0, 1.0, 2.0, 4.0, 100.0]), 5.0);
    }

    #[test]
    fn same_seed_same_permutation() {
        let mut a: Vec<u32> = (0..16).collect();
        let mut b = a.clone();
        shuffle(&mut rng(7), &mut a);
        shuffle(&mut rng(7), &mut b);
        assert_eq!(a, b);
        let mut c: Vec<u32> = (0..16).collect();
        shuffle(&mut rng(8), &mut c);
        assert_ne!(a, c);
    }
}
