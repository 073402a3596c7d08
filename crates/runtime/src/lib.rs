//! # acir-runtime
//!
//! Solver resilience runtime for the ACIR reproduction of Mahoney,
//! *"Approximate Computation and Implicit Regularization for Very
//! Large-scale Data Analysis"* (PODS 2012).
//!
//! The paper's thesis is that approximate answers produced by *truncated*
//! iterative dynamics are first-class results: an early-stopped power
//! iteration, a partially-pushed PageRank, or a truncated CG solve each
//! carries a precise statistical meaning (implicit regularization), so
//! hitting a budget is not a failure mode — it is an answer with a
//! smaller certificate. What *is* a failure mode is silent poisoning:
//! NaNs propagating through a diffusion, a stalled solver spinning
//! forever, or a panic on adversarial input. This crate gives every
//! iterative kernel in the workspace a shared vocabulary for the
//! difference:
//!
//! * [`Budget`] — iteration, work-unit, and wall-clock ceilings checked
//!   cheaply inside solver loops through a [`BudgetMeter`];
//! * [`ConvergenceGuard`] — NaN/Inf contamination, residual stagnation,
//!   and divergence detection with a recorded residual trail;
//! * [`SolverOutcome`] — `Converged` / `BudgetExhausted` / `Diverged`,
//!   where exhausted budgets still return the best iterate found plus a
//!   [`Certificate`] bounding its quality (the truncated iterate *is*
//!   the regularized answer — the certificate says how regularized);
//! * [`Diagnostics`] — per-run residual history, work counters, wall
//!   time, and a structured event trail, mirrored into a typed
//!   `acir-obs` trace (spans, residual/certificate/restart events,
//!   metrics) that golden-trace tests snapshot;
//! * [`RetryPolicy`] — bounded retry-with-escalation loops (restart
//!   Lanczos with a fresh seed, fall back from Chebyshev to the power
//!   method, jitter a stalled CG) expressed once instead of ad-hoc in
//!   each solver;
//! * [`fault`] — a deterministic fault-injection stream (NaNs, sign
//!   flips, adversarial rounding, artificial latency) and graph-level
//!   corruption helpers, used by tests across the workspace to prove
//!   the guardrails actually fire;
//! * [`KernelCtx`] — the single seam bundling all of the above (plus
//!   an execution-pool handle and fault hooks) behind one `&mut`
//!   parameter, so each kernel keeps exactly one core iteration loop:
//!   its bare name runs it inert, its `*_ctx` name under a context;
//! * [`workspace`] — reusable kernel scratch: epoch-stamped dense
//!   arrays with `O(|touched|)` reset ([`StampedVec`]/[`StampedSet`]),
//!   buffer freelists ([`Workspace`]), and a checkout pool
//!   ([`WorkspacePool`]) so hot kernels stop allocating after warm-up
//!   without changing a single bit of their output.
//!
//! The crate depends only on `acir-obs` (itself dependency-free apart
//! from the offline serde_json shim); the `LinOp` adapter for fault injection
//! lives in `acir-linalg::fault` and the budgeted solver entry points
//! live next to each solver.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod budget;
pub mod ctx;
pub mod diagnostics;
pub mod fault;
pub mod guard;
pub mod outcome;
pub mod policy;
pub mod workspace;

pub use acir_exec::SpmvLayout;
pub use acir_obs as obs;
pub use budget::{Budget, BudgetMeter, Exhaustion};
pub use ctx::KernelCtx;
pub use diagnostics::Diagnostics;
pub use fault::{FaultConfig, FaultStream};
pub use guard::{ConvergenceGuard, GuardConfig, GuardVerdict};
pub use outcome::{Certificate, DivergenceCause, SolverOutcome};
pub use policy::{Backoff, RetryPolicy};
pub use workspace::{StampedSet, StampedVec, Workspace, WorkspacePool};
