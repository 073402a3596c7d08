//! Iteration / work / wall-clock budgets and their cheap in-loop meter.

use std::time::{Duration, Instant};

/// A resource ceiling for one solver run.
///
/// Three independent axes, each optional:
///
/// * **iterations** — outer-loop count (the paper's early-stopping
///   regularization knob);
/// * **work units** — solver-defined atomic operations (matvecs for
///   Krylov methods, pushes for local diffusions, arc scans for flow),
///   so heterogeneous solvers can share one budget meaningfully;
/// * **deadline** — wall-clock bound for latency-sensitive callers.
///
/// `Budget` is `Copy`-cheap to pass around; call [`Budget::start`] to
/// begin metering a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Budget {
    /// Maximum outer iterations (restarts count extra attempts
    /// separately; see [`crate::RetryPolicy`]).
    pub max_iters: usize,
    /// Maximum solver-defined work units.
    pub max_work: u64,
    /// Optional wall-clock deadline for the whole run.
    pub deadline: Option<Duration>,
}

impl Budget {
    /// No ceilings at all: solvers run to their own convergence logic.
    pub fn unlimited() -> Self {
        Self {
            max_iters: usize::MAX,
            max_work: u64::MAX,
            deadline: None,
        }
    }

    /// Ceiling on outer iterations only.
    pub fn iterations(max_iters: usize) -> Self {
        Self {
            max_iters,
            ..Self::unlimited()
        }
    }

    /// Ceiling on work units only.
    pub fn work(max_work: u64) -> Self {
        Self {
            max_work,
            ..Self::unlimited()
        }
    }

    /// Wall-clock deadline only.
    pub fn deadline(deadline: Duration) -> Self {
        Self {
            deadline: Some(deadline),
            ..Self::unlimited()
        }
    }

    /// Builder: replace the iteration ceiling.
    pub fn with_max_iters(mut self, max_iters: usize) -> Self {
        self.max_iters = max_iters;
        self
    }

    /// Builder: replace the work ceiling.
    pub fn with_max_work(mut self, max_work: u64) -> Self {
        self.max_work = max_work;
        self
    }

    /// Builder: replace the deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// The empty budget: zero iterations, zero work, no deadline. A
    /// meter started on it reports [`Exhaustion::Iterations`] on its
    /// very first check — the well-defined "nothing left" value that
    /// over-splitting and re-splitting an exhausted run produce.
    pub fn zero() -> Self {
        Self {
            max_iters: 0,
            max_work: 0,
            deadline: None,
        }
    }

    /// Is this a budget no solver can make progress under (either
    /// finite axis already at zero)?
    pub fn is_zero(&self) -> bool {
        self.max_iters == 0 || self.max_work == 0
    }

    /// Split this budget into `k` fair shares for parallel workers.
    ///
    /// Iteration and work ceilings are divided so the shares sum to at
    /// most the original ceiling (`floor(total/k)` each, with the
    /// remainder spread one unit at a time over the *first* shares —
    /// a pure function of `(total, k)`, so the split is deterministic).
    /// Unlimited axes stay unlimited, and the wall-clock deadline is
    /// copied verbatim: workers run concurrently, so they share the
    /// calendar, not a quota.
    ///
    /// Every edge case is well-defined (the serving layer splits live
    /// capacity and cannot afford surprises):
    ///
    /// * `k == 0` returns an empty vector — no workers, no shares;
    /// * `k` larger than a finite axis hands the first `total` shares
    ///   one unit each and the rest [`Budget::zero`]-like zero shares,
    ///   which exhaust immediately instead of panicking mid-compute;
    /// * splitting an already-[`Budget::zero`] budget yields `k` zero
    ///   shares.
    pub fn split_across(&self, k: usize) -> Vec<Budget> {
        (0..k as u64).map(|i| self.share(k as u64, i)).collect()
    }

    /// The first — largest — share of [`Self::split_across`]`(k)`
    /// without materializing the other `k − 1`: what an admission
    /// controller granting one request at a time needs. `None` for
    /// `k == 0`, like `split_across(0).first()`.
    pub fn first_share(&self, k: usize) -> Option<Budget> {
        (k > 0).then(|| self.share(k as u64, 0))
    }

    /// Share `i` of a `k`-way split (`k ≥ 1`).
    fn share(&self, k: u64, i: u64) -> Budget {
        let axis = |total: u64| -> u64 {
            if total == u64::MAX {
                u64::MAX
            } else {
                total / k + u64::from(i < total % k)
            }
        };
        Budget {
            max_iters: if self.max_iters == usize::MAX {
                usize::MAX
            } else {
                axis(self.max_iters as u64) as usize
            },
            max_work: axis(self.max_work),
            deadline: self.deadline,
        }
    }

    /// Begin metering a run against this budget.
    pub fn start(&self) -> BudgetMeter {
        BudgetMeter {
            budget: *self,
            iters: 0,
            work: 0,
            started: Instant::now(),
            exhausted: None,
        }
    }
}

impl Default for Budget {
    fn default() -> Self {
        Self::unlimited()
    }
}

/// Which budget axis ran out first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exhaustion {
    /// The iteration ceiling was reached.
    Iterations,
    /// The work-unit ceiling was reached.
    Work,
    /// The wall-clock deadline passed.
    Deadline,
}

impl Exhaustion {
    /// Stable snake_case axis name, used as the `axis` field of
    /// [`acir_obs::EventKind::BudgetExhausted`] trace events.
    pub fn axis_name(&self) -> &'static str {
        match self {
            Exhaustion::Iterations => "iterations",
            Exhaustion::Work => "work",
            Exhaustion::Deadline => "deadline",
        }
    }
}

impl std::fmt::Display for Exhaustion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Exhaustion::Iterations => write!(f, "iteration budget exhausted"),
            Exhaustion::Work => write!(f, "work budget exhausted"),
            Exhaustion::Deadline => write!(f, "wall-clock deadline exceeded"),
        }
    }
}

/// Live accounting for one run against a [`Budget`].
///
/// Designed for tight loops: integer compares on every call, and the
/// deadline clock is consulted only when a deadline is actually set.
/// Once an axis is exhausted the meter latches: further checks keep
/// reporting the same [`Exhaustion`], so solvers can exit cleanly from
/// any depth.
#[derive(Debug, Clone)]
pub struct BudgetMeter {
    budget: Budget,
    iters: usize,
    work: u64,
    started: Instant,
    exhausted: Option<Exhaustion>,
}

impl BudgetMeter {
    /// Account for one outer iteration; returns the exhaustion if any
    /// axis is now out of budget.
    #[inline]
    pub fn tick_iter(&mut self) -> Option<Exhaustion> {
        self.iters += 1;
        self.check()
    }

    /// Account for `units` work units; returns the exhaustion if any
    /// axis is now out of budget.
    #[inline]
    pub fn add_work(&mut self, units: u64) -> Option<Exhaustion> {
        self.work = self.work.saturating_add(units);
        self.check()
    }

    /// Re-check all axes without consuming anything.
    #[inline]
    pub fn check(&mut self) -> Option<Exhaustion> {
        if self.exhausted.is_some() {
            return self.exhausted;
        }
        if self.iters >= self.budget.max_iters {
            self.exhausted = Some(Exhaustion::Iterations);
        } else if self.work >= self.budget.max_work {
            self.exhausted = Some(Exhaustion::Work);
        } else if let Some(deadline) = self.budget.deadline {
            if self.started.elapsed() >= deadline {
                self.exhausted = Some(Exhaustion::Deadline);
            }
        }
        self.exhausted
    }

    /// Iterations consumed so far.
    pub fn iterations(&self) -> usize {
        self.iters
    }

    /// Work units consumed so far.
    pub fn work(&self) -> u64 {
        self.work
    }

    /// Wall time since [`Budget::start`].
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// The budget this meter enforces.
    pub fn budget(&self) -> &Budget {
        &self.budget
    }

    /// Whether any axis has latched exhausted.
    pub fn is_exhausted(&self) -> bool {
        self.exhausted.is_some()
    }

    /// Wall-clock time left before the deadline; `None` when no
    /// deadline is set, `Some(ZERO)` once it has passed. The serving
    /// layer's degradation ladder keys off this.
    pub fn remaining_duration(&self) -> Option<Duration> {
        self.budget
            .deadline
            .map(|d| d.saturating_sub(self.started.elapsed()))
    }

    /// The unconsumed portion of the budget, as a budget of its own:
    /// finite axes subtract saturating (an exhausted axis leaves zero),
    /// unlimited axes stay unlimited, and the deadline shrinks to the
    /// time actually left (`ZERO` once passed, so a re-split of an
    /// expired run hands out only immediately-exhausted shares).
    ///
    /// `remaining.split_across(k)` is therefore always well-defined:
    /// re-splitting a dry run yields `k` empty budgets, never a panic
    /// and never freshly minted capacity.
    pub fn remaining_budget(&self) -> Budget {
        Budget {
            max_iters: if self.budget.max_iters == usize::MAX {
                usize::MAX
            } else {
                self.budget.max_iters.saturating_sub(self.iters)
            },
            max_work: if self.budget.max_work == u64::MAX {
                u64::MAX
            } else {
                self.budget.max_work.saturating_sub(self.work)
            },
            deadline: self.remaining_duration(),
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;

    #[test]
    fn unlimited_never_exhausts() {
        let mut m = Budget::unlimited().start();
        for _ in 0..10_000 {
            assert_eq!(m.tick_iter(), None);
            assert_eq!(m.add_work(1_000), None);
        }
    }

    #[test]
    fn iteration_ceiling_latches() {
        let mut m = Budget::iterations(3).start();
        assert_eq!(m.tick_iter(), None);
        assert_eq!(m.tick_iter(), None);
        assert_eq!(m.tick_iter(), Some(Exhaustion::Iterations));
        // Latched: later work checks report the same cause.
        assert_eq!(m.add_work(1), Some(Exhaustion::Iterations));
        assert!(m.is_exhausted());
    }

    #[test]
    fn work_ceiling_counts_units() {
        let mut m = Budget::work(100).start();
        assert_eq!(m.add_work(60), None);
        assert_eq!(m.add_work(60), Some(Exhaustion::Work));
        assert_eq!(m.work(), 120);
    }

    #[test]
    fn deadline_fires_within_tolerance() {
        let mut m = Budget::deadline(Duration::from_millis(20)).start();
        assert_eq!(m.check(), None);
        let t0 = Instant::now();
        let cause = loop {
            if let Some(c) = m.tick_iter() {
                break c;
            }
            std::thread::sleep(Duration::from_millis(1));
        };
        assert_eq!(cause, Exhaustion::Deadline);
        let waited = t0.elapsed();
        assert!(
            waited >= Duration::from_millis(15),
            "fired early: {waited:?}"
        );
        assert!(
            waited < Duration::from_millis(500),
            "fired late: {waited:?}"
        );
    }

    #[test]
    fn split_across_is_fair_and_preserves_unlimited() {
        let shares = Budget::work(10).split_across(3);
        assert_eq!(shares.len(), 3);
        assert_eq!(
            shares.iter().map(|b| b.max_work).collect::<Vec<_>>(),
            vec![4, 3, 3]
        );
        assert!(shares.iter().all(|b| b.max_iters == usize::MAX));

        let it = Budget::iterations(7).split_across(2);
        assert_eq!(it[0].max_iters, 4);
        assert_eq!(it[1].max_iters, 3);

        let unl = Budget::unlimited().split_across(5);
        assert!(unl
            .iter()
            .all(|b| b.max_iters == usize::MAX && b.max_work == u64::MAX));

        let d = Budget::deadline(Duration::from_secs(9)).split_across(4);
        assert!(d.iter().all(|b| b.deadline == Some(Duration::from_secs(9))));
    }

    #[test]
    fn split_across_zero_shares_is_empty() {
        assert!(Budget::unlimited().split_across(0).is_empty());
        assert!(Budget::work(100).split_across(0).is_empty());
        assert!(Budget::zero().split_across(0).is_empty());
        assert!(Budget::work(100).first_share(0).is_none());
    }

    #[test]
    fn first_share_is_the_head_of_the_split() {
        let budgets = [
            Budget::work(10),
            Budget::work(3),
            Budget::iterations(7),
            Budget::unlimited(),
            Budget::zero(),
            Budget::work(1_000_003).with_deadline(Duration::from_secs(2)),
        ];
        for b in budgets {
            for k in 1..=9 {
                let (first, split) = (b.first_share(k).unwrap(), b.split_across(k));
                assert_eq!(first.max_work, split[0].max_work, "{b:?} / {k}");
                assert_eq!(first.max_iters, split[0].max_iters, "{b:?} / {k}");
                assert_eq!(first.deadline, split[0].deadline, "{b:?} / {k}");
            }
        }
    }

    #[test]
    fn split_across_more_shares_than_budget_yields_zero_tails() {
        // 3 work units over 5 workers: first three get one unit, the
        // last two get well-defined zero budgets (not a panic, not a
        // debug-only wrap). A zero share exhausts on its first check.
        let shares = Budget::work(3).split_across(5);
        assert_eq!(
            shares.iter().map(|b| b.max_work).collect::<Vec<_>>(),
            vec![1, 1, 1, 0, 0]
        );
        assert!(shares[4].is_zero());
        let mut m = shares[4].start();
        assert_eq!(m.check(), Some(Exhaustion::Work));

        let it = Budget::iterations(2).split_across(4);
        assert_eq!(
            it.iter().map(|b| b.max_iters).collect::<Vec<_>>(),
            vec![1, 1, 0, 0]
        );
        let mut m = it[3].start();
        assert_eq!(m.check(), Some(Exhaustion::Iterations));
    }

    #[test]
    fn splitting_a_zero_budget_yields_zero_shares() {
        let shares = Budget::zero().split_across(3);
        assert_eq!(shares.len(), 3);
        for b in shares {
            assert!(b.is_zero());
            assert_eq!(b.start().check(), Some(Exhaustion::Iterations));
        }
    }

    #[test]
    fn remaining_budget_subtracts_and_preserves_unlimited() {
        let mut m = Budget::work(10).with_max_iters(4).start();
        m.tick_iter();
        m.add_work(6);
        let rem = m.remaining_budget();
        assert_eq!(rem.max_iters, 3);
        assert_eq!(rem.max_work, 4);
        assert_eq!(rem.deadline, None);

        // Unlimited axes stay unlimited after consumption.
        let mut m = Budget::unlimited().start();
        m.tick_iter();
        m.add_work(1 << 20);
        let rem = m.remaining_budget();
        assert_eq!(rem.max_iters, usize::MAX);
        assert_eq!(rem.max_work, u64::MAX);
    }

    #[test]
    fn resplitting_an_exhausted_run_hands_out_empty_budgets() {
        let mut m = Budget::work(5).start();
        assert_eq!(m.add_work(9), Some(Exhaustion::Work));
        let rem = m.remaining_budget();
        assert!(rem.is_zero());
        for b in rem.split_across(4) {
            assert!(b.is_zero());
            assert!(b.start().check().is_some());
        }
    }

    #[test]
    fn remaining_duration_clamps_at_zero() {
        let m = Budget::deadline(Duration::from_secs(3600)).start();
        let left = m.remaining_duration().unwrap();
        assert!(left > Duration::from_secs(3500));
        let mut m = Budget::deadline(Duration::ZERO).start();
        assert_eq!(m.remaining_duration(), Some(Duration::ZERO));
        assert_eq!(m.check(), Some(Exhaustion::Deadline));
        // The remaining budget of an expired run is itself expired.
        let rem = m.remaining_budget();
        assert_eq!(rem.deadline, Some(Duration::ZERO));
        assert_eq!(rem.start().check(), Some(Exhaustion::Deadline));
    }

    #[test]
    fn builder_combines_axes() {
        let b = Budget::unlimited()
            .with_max_iters(5)
            .with_max_work(7)
            .with_deadline(Duration::from_secs(3600));
        assert_eq!(b.max_iters, 5);
        assert_eq!(b.max_work, 7);
        let mut m = b.start();
        assert_eq!(m.add_work(7), Some(Exhaustion::Work));
    }
}
