//! # acir-serve
//!
//! A fault-tolerant seed→cluster PPR query engine built on the thesis
//! of Mahoney (PODS 2012) §3.3: *truncating an approximate computation
//! early is not a failure mode — it is the regularizer*. A server built
//! on that principle never returns a timeout error. Under overload,
//! injected faults, or deadline pressure it degrades to a cheaper,
//! more-regularized answer, and every response carries a
//! [`Certificate`](acir_runtime::Certificate) saying exactly how
//! approximate the answer is.
//!
//! The engine enforces one invariant end to end, and the chaos suite
//! (`tests/chaos_serve.rs`) asserts it under worker panics, NaN
//! injection, budget starvation, and deadline storms:
//!
//! > **Every admitted request receives exactly one certified response,
//! > and the process never panics.**
//!
//! Mechanisms, in the order a request meets them:
//!
//! * **Admission control** ([`Engine::submit`]) — a bounded queue plus
//!   a global work-token bucket. Each accepted request is granted a
//!   [`Budget`](acir_runtime::Budget) carved from the currently
//!   available tokens via `Budget::split_across`; requests that would
//!   breach capacity are rejected *at admission* with a structured
//!   [`Overloaded`] response. Load is shed early, never mid-compute.
//! * **Degradation ladder** — per request, by remaining budget and
//!   deadline: full push at the requested ε → coarser ε (×10 per
//!   rung) → cached/stale answer → seed-only fallback. A deadline
//!   expiring *mid-push* still lands as a certified partial (the
//!   meter's deadline axis), because the truncated diffusion *is* a
//!   more aggressively regularized PPR.
//! * **Retry supervision** — worker panics are caught by
//!   [`acir_exec::panic_fence`] and NaN contamination by the
//!   convergence guard; both become `Diverged` outcomes that a
//!   [`RetryPolicy`](acir_runtime::RetryPolicy) with deterministic
//!   exponential [`Backoff`](acir_runtime::Backoff) retries, capped per
//!   request, with the retry trail in the response's
//!   [`Diagnostics`](acir_runtime::Diagnostics).
//! * **Batched execution** — queued requests with the same (α, ε rung,
//!   graph epoch) share one pinned snapshot and fan their first
//!   supervised attempts out over the exec pool; per-item results are
//!   bit-identical to the solo `ppr_push_ctx` call at any thread count
//!   (test-asserted).
//! * **Hub sketches** ([`SketchStore`]) — when configured, the engine
//!   precomputes truncated push vectors from the top-degree hubs and
//!   routes first attempts through the splice kernel
//!   (`acir_local::sketch`): push from the seed until the remaining
//!   residual frontier is covered by sketched hubs, then combine the
//!   stored hub vectors by PPR linearity. The spliced answer carries
//!   the same ε·deg certificate as a direct push while touching far
//!   fewer nodes. Sketches are stamped with the graph epoch and
//!   rebuilt on every [`Engine::update_graph`], so a stale sketch is
//!   never consulted.
//! * **Answer caching** — exact repeats keyed by `(seeds, α, ε)` are
//!   served from an epoch-tagged answer cache as
//!   [`ResponseKind::Cached`] — a non-degraded rung above `Stale`,
//!   since the cached certificate holds on the current graph. The key
//!   is epoch-less: each entry records the epoch it is certified at,
//!   a request hits only when the epoch it pinned is the head's, and
//!   an entry behind the head is caught up to it at that probe (or
//!   dropped and recomputed). Full graph swaps invalidate the whole
//!   cache; the older `(seeds, α)` stale cache survives swaps but
//!   labels its answers with the epoch they were certified against
//!   (`Certificate::StaleResidualMass`) and holds a fixed 4,096 keys,
//!   oldest evicted first. A per-entry request-count TTL
//!   ([`engine::EngineConfig::answer_ttl`]) expires entries in the
//!   same FIFO order capacity eviction uses.
//! * **Incremental deltas** ([`Engine::update_graph_delta`]) — edge
//!   mutations that arrive as an [`acir_graph::EdgeOp`] stream are
//!   applied through a [`acir_graph::DeltaGraph`] overlay and
//!   compacted into a fresh CSR, and the derived state is *repaired*,
//!   not discarded, and a write costs what it changed: compaction
//!   splices the touched rows into a block copy of the CSR, each hub
//!   sketch is first asked whether the delta can change it
//!   (`acir_local::repair::delta_leaves_undisturbed`), and the write
//!   appends its net delta to the answer cache's log without visiting
//!   an entry. A cached answer is asked the same question at its next
//!   probe, against the composed delta of the writes it missed. The
//!   undisturbed majority is kept in place; the rest is reflowed by
//!   `acir_local::repair` with re-measured certificates, and anything
//!   unrepairable is dropped.
//!   For single-edge deltas this costs a small constant factor of the
//!   perturbation instead of a full recompute (gated ≥10× fewer
//!   pushes in `tests/dynamic_equivalence.rs`).
//! * **Snapshot-pinned reads** — the engine owns its graph through an
//!   [`acir_graph::snapshot::SnapshotStore`]: every mutation builds a
//!   new immutable [`acir_graph::snapshot::GraphSnapshot`] aside and
//!   publishes it atomically, while each admitted request pins the
//!   snapshot it was admitted against and runs against it end to end.
//!   A writer publishing a delta — or a relabeling [`Engine::compact`]
//!   — mid-flight never changes what an in-flight request computes:
//!   its answer is bit-identical to a serial run against its pinned
//!   snapshot (asserted by `tests/snapshot_consistency.rs` under
//!   deterministic writer interleavings staged via
//!   [`Engine::stage_write`]). After a relabeling compaction, hub
//!   sketches and cached answers are carried *through* the
//!   [`acir_graph::Permutation`] — zero fresh pushes for sketches,
//!   fresh measured certificates for answers — rather than rebuilt.
//!
//! [`chaos`] holds the deterministic fault scheduler the chaos suite
//! drives.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod engine;
pub mod store;

pub use chaos::ChaosConfig;
pub use engine::{
    Admission, CompactionSummary, DeltaSummary, Engine, EngineConfig, EngineStats, Overloaded,
    PublishPoint, Query, QueryOptions, RejectReason, Response, ResponseKind, SweepCut, WriteOp,
};
pub use store::{SketchStore, StoreRepairStats};
