//! Deterministic fault scheduling for the chaos harness.
//!
//! A [`ChaosConfig`] decides, as a pure function of `(seed, request id,
//! attempt)`, whether a worker panics before computing or silently
//! corrupts its result with a NaN. Determinism is the point: a chaos
//! run that fails can be replayed exactly, and proptest can shrink over
//! schedules. Forced entries let tests pin specific `(id, attempt)`
//! faults on top of the rate-driven stream.

use std::collections::BTreeSet;

/// A deterministic fault plan for the engine's supervised workers.
#[derive(Debug, Clone, Default)]
pub struct ChaosConfig {
    /// Seed of the rate-driven fault stream.
    pub seed: u64,
    /// Probability that a given `(id, attempt)` panics, in `[0, 1]`.
    pub panic_rate: f64,
    /// Probability that a given `(id, attempt)` produces a NaN-poisoned
    /// result, in `[0, 1]`.
    pub nan_rate: f64,
    /// `(request id, attempt)` pairs that always panic.
    pub forced_panics: BTreeSet<(u64, usize)>,
    /// `(request id, attempt)` pairs that always corrupt.
    pub forced_nans: BTreeSet<(u64, usize)>,
    /// Graph epochs at which the incremental sketch/answer repair path
    /// fails mid-flight; the engine must fall back to a full rebuild
    /// (the epoch is the one *after* the delta bump).
    pub forced_repair_faults: BTreeSet<u64>,
    /// Probability that the repair path fails at a given epoch, in
    /// `[0, 1]`.
    pub repair_fault_rate: f64,
}

impl ChaosConfig {
    /// Rate-driven schedule: every `(id, attempt)` panics with
    /// probability `panic_rate` and corrupts with `nan_rate`,
    /// deterministically from `seed`.
    pub fn with_rates(seed: u64, panic_rate: f64, nan_rate: f64) -> Self {
        Self {
            seed,
            panic_rate,
            nan_rate,
            ..Self::default()
        }
    }

    /// Does the worker for `(id, attempt)` panic before computing?
    pub fn panics(&self, id: u64, attempt: usize) -> bool {
        self.forced_panics.contains(&(id, attempt))
            || unit(self.seed, id, attempt as u64, 0x70616e6963) < self.panic_rate
    }

    /// Does the worker for `(id, attempt)` return a NaN-poisoned
    /// result?
    pub fn corrupts(&self, id: u64, attempt: usize) -> bool {
        self.forced_nans.contains(&(id, attempt))
            || unit(self.seed, id, attempt as u64, 0x6e616e73) < self.nan_rate
    }

    /// Does the incremental repair path fail at this (post-delta)
    /// epoch? A `true` forces the engine onto the full-rebuild path —
    /// the repair analogue of a worker panic.
    pub fn fails_repair(&self, epoch: u64) -> bool {
        self.forced_repair_faults.contains(&epoch)
            || unit(self.seed, epoch, 0, 0x72657061) < self.repair_fault_rate
    }
}

/// SplitMix64-style hash of `(seed, id, attempt, salt)` mapped to
/// `[0, 1)`. Pure, so every fault decision is replayable.
fn unit(seed: u64, id: u64, attempt: u64, salt: u64) -> f64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(id.wrapping_mul(0xbf58_476d_1ce4_e5b9))
        .wrapping_add(attempt.wrapping_mul(0x94d0_49bb_1331_11eb));
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    ((z ^ (z >> 31)) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic_and_rate_bounded() {
        let c = ChaosConfig::with_rates(42, 0.25, 0.1);
        let d = ChaosConfig::with_rates(42, 0.25, 0.1);
        let mut panics = 0usize;
        for id in 0..2000u64 {
            assert_eq!(c.panics(id, 0), d.panics(id, 0));
            assert_eq!(c.corrupts(id, 1), d.corrupts(id, 1));
            panics += usize::from(c.panics(id, 0));
        }
        // Empirical rate near the configured one.
        let rate = panics as f64 / 2000.0;
        assert!((0.15..0.35).contains(&rate), "panic rate {rate}");
        // Zero rates never fire.
        let never = ChaosConfig::with_rates(7, 0.0, 0.0);
        assert!((0..500).all(|id| !never.panics(id, 0) && !never.corrupts(id, 0)));
    }

    #[test]
    fn forced_faults_override_rates() {
        let mut c = ChaosConfig::with_rates(1, 0.0, 0.0);
        c.forced_panics.insert((3, 0));
        c.forced_nans.insert((3, 1));
        assert!(c.panics(3, 0) && !c.panics(3, 1));
        assert!(c.corrupts(3, 1) && !c.corrupts(3, 0));
    }

    #[test]
    fn repair_faults_are_forced_or_rate_driven() {
        let mut c = ChaosConfig::with_rates(1, 0.0, 0.0);
        assert!((0..200).all(|e| !c.fails_repair(e)));
        c.forced_repair_faults.insert(17);
        assert!(c.fails_repair(17) && !c.fails_repair(16));
        let rated = ChaosConfig {
            repair_fault_rate: 1.0,
            ..ChaosConfig::default()
        };
        assert!((0..50).all(|e| rated.fails_repair(e)));
    }
}
