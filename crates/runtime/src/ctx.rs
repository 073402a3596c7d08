//! The single seam through which every cross-cutting concern reaches a
//! kernel: [`KernelCtx`].
//!
//! Each iterative kernel keeps **exactly one core iteration loop**
//! (marked `// CORE LOOP` in its module) parameterized by
//! `&mut KernelCtx`, and ships two spellings: the bare name runs that
//! loop under an inert context, and `*_ctx` runs it under the caller's
//! — budget, guard, trace, pools and faults all ride in the context
//! instead of in named variants.
//!
//! The five concerns and how they ride in the context:
//!
//! * **budget** — an optional [`BudgetMeter`]; `tick_iter` / `add_work`
//!   / `check_budget` are integer no-ops returning `None` when absent;
//! * **guard** — an optional [`ConvergenceGuard`]; `observe` /
//!   `check_iterate` return [`GuardVerdict::Proceed`] when absent;
//! * **observability** — an optional [`Diagnostics`]; `push_residual` /
//!   `note_with` vanish when absent (`note_with` takes a closure so the
//!   message is never even formatted on the plain path);
//! * **workspace** — an optional override for the checkout pool a
//!   pool-backed wrapper should draw generic dense scratch from
//!   ([`KernelCtx::scratch_pool_or`]); kernel-*typed* workspaces
//!   (push / heat-kernel / sweep scratch) stay explicit `&mut W`
//!   parameters of the core functions, because their types differ per
//!   kernel — the context carries the *source*, not the buffers;
//! * **parallelism / faults** — an optional [`ExecPool`] override for
//!   fan-out kernels and an optional [`FaultStream`] hook for chaos
//!   tests.
//!
//! `KernelCtx::default()` is deliberately cheap: every field is `None`,
//! construction allocates nothing, and each hook compiles down to a
//! branch on a discriminant — so the steady-state allocation-free
//! guarantee of `ppr_push_ws` (enforced by the `alloc_gate` test) holds,
//! and the plain entry points pay no observable overhead for concerns
//! they never asked for.

use crate::budget::{Budget, BudgetMeter, Exhaustion};
use crate::diagnostics::Diagnostics;
use crate::fault::FaultStream;
use crate::guard::{ConvergenceGuard, GuardConfig, GuardVerdict};
use crate::workspace::{Workspace, WorkspacePool};
use acir_exec::{ExecPool, SpmvLayout, SpmvLayoutScope};

/// Per-invocation bundle of every cross-cutting concern a kernel core
/// loop may consult. See the [module docs](self) for the design.
///
/// Construction idioms:
///
/// ```
/// use acir_runtime::{Budget, GuardConfig, KernelCtx};
///
/// // Plain call: every concern a no-op, nothing allocated.
/// let plain = KernelCtx::default();
/// assert!(!plain.is_metered() && !plain.is_traced());
///
/// // Budgeted call: meter + open kernel span + divergence guard.
/// let budgeted = KernelCtx::budgeted("linalg.power", &Budget::iterations(50))
///     .with_guard(GuardConfig::contamination_only());
/// assert!(budgeted.is_metered() && budgeted.is_traced() && budgeted.is_guarded());
/// ```
#[derive(Default)]
pub struct KernelCtx {
    meter: Option<BudgetMeter>,
    guard: Option<ConvergenceGuard>,
    diags: Option<Diagnostics>,
    scratch: Option<&'static WorkspacePool<Workspace>>,
    pool: Option<ExecPool>,
    faults: Option<FaultStream>,
    spmv: Option<SpmvLayout>,
}

impl KernelCtx {
    /// Every concern disabled — the context for plain entry points.
    /// Allocation-free; all hooks are no-ops.
    pub fn new() -> Self {
        Self::default()
    }

    /// Observability only: opens the kernel's root span (allocates) but
    /// enforces no budget and runs no guard. For traced-but-unlimited
    /// drivers (e.g. figure pipelines that want spans without ceilings).
    pub fn traced(kernel: &'static str) -> Self {
        Self {
            diags: Some(Diagnostics::for_kernel(kernel)),
            ..Self::default()
        }
    }

    /// The standard resilient configuration: a [`BudgetMeter`] started
    /// against `budget` plus [`Diagnostics`] with the kernel's root
    /// span open. Add a guard with [`Self::with_guard`] if the kernel
    /// monitors residuals.
    pub fn budgeted(kernel: &'static str, budget: &Budget) -> Self {
        Self {
            meter: Some(budget.start()),
            diags: Some(Diagnostics::for_kernel(kernel)),
            ..Self::default()
        }
    }

    /// Builder: attach a [`ConvergenceGuard`] with the given config.
    pub fn with_guard(mut self, cfg: GuardConfig) -> Self {
        self.guard = Some(ConvergenceGuard::new(cfg));
        self
    }

    /// Builder: override the checkout pool for generic dense scratch.
    /// Wrappers that currently use a module-static pool consult
    /// [`Self::scratch_pool_or`] so callers can redirect scratch to a
    /// pool they own (e.g. per-NUMA-node pools later).
    pub fn with_scratch_pool(mut self, pool: &'static WorkspacePool<Workspace>) -> Self {
        self.scratch = Some(pool);
        self
    }

    /// Builder: pin the execution pool a fan-out kernel should use
    /// instead of reading `ACIR_THREADS` from the environment.
    pub fn with_exec_pool(mut self, pool: ExecPool) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Builder: attach a deterministic fault stream for chaos tests.
    /// Kernels that support injection drain it via [`Self::faults_mut`].
    pub fn with_faults(mut self, faults: FaultStream) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Builder: request a sparse-storage layout ([`SpmvLayout`]) for
    /// every CSR product the kernel performs. Kernel entry points
    /// install it with [`Self::spmv_scope`]; all layouts are
    /// bit-identical, so this is a pure speed knob — like
    /// [`Self::with_exec_pool`], it never changes results.
    pub fn with_spmv_layout(mut self, layout: SpmvLayout) -> Self {
        self.spmv = Some(layout);
        self
    }

    // ---- queries -------------------------------------------------------

    /// Is a budget being enforced?
    #[inline]
    pub fn is_metered(&self) -> bool {
        self.meter.is_some()
    }

    /// Is a divergence guard active?
    #[inline]
    pub fn is_guarded(&self) -> bool {
        self.guard.is_some()
    }

    /// Are diagnostics being recorded?
    #[inline]
    pub fn is_traced(&self) -> bool {
        self.diags.is_some()
    }

    // ---- budget hooks --------------------------------------------------

    /// Account one outer iteration (no-op without a meter).
    #[inline]
    pub fn tick_iter(&mut self) -> Option<Exhaustion> {
        self.meter.as_mut().and_then(BudgetMeter::tick_iter)
    }

    /// Account `units` work units (no-op without a meter).
    #[inline]
    pub fn add_work(&mut self, units: u64) -> Option<Exhaustion> {
        self.meter.as_mut().and_then(|m| m.add_work(units))
    }

    /// Re-check every budget axis without consuming anything.
    #[inline]
    pub fn check_budget(&mut self) -> Option<Exhaustion> {
        self.meter.as_mut().and_then(BudgetMeter::check)
    }

    /// Read-only view of the meter, for kernels that report progress
    /// ratios ("explored {done} of {planned}") in their notes.
    #[inline]
    pub fn meter(&self) -> Option<&BudgetMeter> {
        self.meter.as_ref()
    }

    /// Wall-clock left before the deadline: `None` when no meter or no
    /// deadline is attached (run forever), `Some(ZERO)` once expired.
    /// Degradation ladders key off this to pick a rung that can still
    /// finish in time.
    #[inline]
    pub fn remaining_time(&self) -> Option<std::time::Duration> {
        self.meter
            .as_ref()
            .and_then(BudgetMeter::remaining_duration)
    }

    /// What is left of the budget right now, as a [`Budget`] that can
    /// be handed to a cheaper fallback kernel. Unmetered contexts
    /// report an unlimited budget.
    #[inline]
    pub fn remaining_budget(&self) -> Budget {
        self.meter
            .as_ref()
            .map_or_else(Budget::unlimited, BudgetMeter::remaining_budget)
    }

    // ---- guard hooks ---------------------------------------------------

    /// Feed one residual to the guard; [`GuardVerdict::Proceed`] when
    /// no guard is attached.
    #[inline]
    pub fn observe(&mut self, residual: f64) -> GuardVerdict {
        match self.guard.as_mut() {
            Some(g) => g.observe(residual),
            None => GuardVerdict::Proceed,
        }
    }

    /// NaN/Inf scan of the current iterate — only when a guard is
    /// attached (plain calls skip the scan entirely, preserving their
    /// zero-overhead contract).
    #[inline]
    pub fn check_iterate(&self, values: &[f64], at_iter: usize) -> GuardVerdict {
        if self.guard.is_some() {
            ConvergenceGuard::check_finite(values, at_iter)
        } else {
            GuardVerdict::Proceed
        }
    }

    // ---- observability hooks -------------------------------------------

    /// Record one residual sample (no-op without diagnostics).
    #[inline]
    pub fn push_residual(&mut self, r: f64) {
        if let Some(d) = self.diags.as_mut() {
            d.push_residual(r);
        }
    }

    /// Record a notable event. Takes a closure so the message is never
    /// formatted — no allocation — on the plain path.
    #[inline]
    pub fn note_with(&mut self, msg: impl FnOnce() -> String) {
        if let Some(d) = self.diags.as_mut() {
            d.note(msg());
        }
    }

    /// Direct access to the diagnostics for hooks with no dedicated
    /// helper (sweep-cut events, span wrapping, shard merges).
    #[inline]
    pub fn diags_mut(&mut self) -> Option<&mut Diagnostics> {
        self.diags.as_mut()
    }

    // ---- workspace / parallelism / fault hooks -------------------------

    /// The pool a pool-backed wrapper should check generic dense
    /// scratch out of: the override if one was set, else the kernel's
    /// own static `fallback`.
    #[inline]
    pub fn scratch_pool_or(
        &self,
        fallback: &'static WorkspacePool<Workspace>,
    ) -> &'static WorkspacePool<Workspace> {
        self.scratch.unwrap_or(fallback)
    }

    /// The execution pool a fan-out kernel should use: the pinned pool
    /// if one was set, else `ACIR_THREADS` with `default` as fallback
    /// (mirroring [`ExecPool::from_env_or`]).
    #[inline]
    pub fn exec_pool_or(&self, default: usize) -> ExecPool {
        match &self.pool {
            Some(p) => *p,
            None => ExecPool::from_env_or(default),
        }
    }

    /// Mutable access to the fault stream, if one was attached.
    #[inline]
    pub fn faults_mut(&mut self) -> Option<&mut FaultStream> {
        self.faults.as_mut()
    }

    /// The layout preference attached with [`Self::with_spmv_layout`],
    /// if any.
    #[inline]
    pub fn spmv_layout(&self) -> Option<SpmvLayout> {
        self.spmv
    }

    /// Install the context's layout preference as the calling thread's
    /// SpMV layout for the duration of the returned scope; `None` (and
    /// no scope, no note, no allocation) when the context carries no
    /// preference. Kernel `*_ctx` entry points call this once before
    /// their core loop — the products themselves stay signature-free.
    /// A traced context records the routing as a `note` event so golden
    /// traces pin which layout served the run.
    #[inline]
    pub fn spmv_scope(&mut self) -> Option<SpmvLayoutScope> {
        let layout = self.spmv?;
        self.note_with(|| format!("spmv layout {layout}"));
        Some(acir_exec::spmv_layout_scope(layout))
    }

    // ---- teardown ------------------------------------------------------

    /// Tear the context down into the [`Diagnostics`] that a
    /// [`crate::SolverOutcome`] carries: meter counters are absorbed
    /// (iterations / work / elapsed and their metrics), and the
    /// diagnostics — or an empty record if the context was plain — are
    /// moved out by value. Takes `&mut self` so core loops can finish
    /// from behind the `&mut KernelCtx` they were handed; calling it
    /// twice yields an empty record the second time. The outcome
    /// constructors close any spans still open.
    pub fn finish(&mut self) -> Diagnostics {
        let mut diags = self.diags.take().unwrap_or_default();
        if let Some(meter) = &self.meter {
            diags.absorb_meter(meter);
        }
        diags
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_ctx_is_fully_inert() {
        let mut ctx = KernelCtx::default();
        assert!(!ctx.is_metered() && !ctx.is_guarded() && !ctx.is_traced());
        assert_eq!(ctx.tick_iter(), None);
        assert_eq!(ctx.add_work(1 << 40), None);
        assert_eq!(ctx.check_budget(), None);
        assert!(matches!(ctx.observe(f64::NAN), GuardVerdict::Proceed));
        assert!(matches!(
            ctx.check_iterate(&[f64::INFINITY], 3),
            GuardVerdict::Proceed
        ));
        ctx.push_residual(0.5);
        let mut formatted = false;
        ctx.note_with(|| {
            formatted = true;
            String::new()
        });
        assert!(!formatted, "plain ctx must not format note messages");
        let d = ctx.finish();
        assert!(d.residuals.is_empty() && d.events.is_empty());
        assert_eq!(d.iterations, 0);
    }

    #[test]
    fn budgeted_ctx_meters_and_traces() {
        let mut ctx = KernelCtx::budgeted("test.kernel", &Budget::iterations(2));
        assert!(ctx.is_metered() && ctx.is_traced() && !ctx.is_guarded());
        assert_eq!(ctx.tick_iter(), None);
        ctx.push_residual(0.25);
        assert_eq!(ctx.tick_iter(), Some(Exhaustion::Iterations));
        let d = ctx.finish();
        assert_eq!(d.iterations, 2);
        assert_eq!(d.residuals, vec![0.25]);
        assert_eq!(d.trace.open_spans(), ["test.kernel"]);
    }

    #[test]
    fn guard_halts_on_contamination_when_attached() {
        let mut ctx = KernelCtx::budgeted("test.kernel", &Budget::unlimited())
            .with_guard(GuardConfig::contamination_only());
        assert!(matches!(ctx.observe(1.0), GuardVerdict::Proceed));
        assert!(matches!(ctx.observe(f64::NAN), GuardVerdict::Halt(_)));
        assert!(matches!(
            ctx.check_iterate(&[1.0, f64::NAN], 1),
            GuardVerdict::Halt(_)
        ));
    }

    #[test]
    fn finish_absorbs_meter_counters() {
        let mut ctx = KernelCtx::budgeted("test.kernel", &Budget::unlimited());
        ctx.tick_iter();
        ctx.tick_iter();
        ctx.add_work(7);
        let d = ctx.finish();
        assert_eq!(d.iterations, 2);
        assert_eq!(d.work, 7);
        assert_eq!(d.metrics.counter("iterations"), 2);
    }

    #[test]
    fn exec_pool_override_wins() {
        let ctx = KernelCtx::default().with_exec_pool(ExecPool::with_threads(3));
        assert_eq!(ctx.exec_pool_or(1).threads(), 3);
    }
}
