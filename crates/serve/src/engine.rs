//! The query engine: admission control, deadline-aware degradation,
//! retry supervision, and batched execution.
//!
//! Lifecycle of a request (each stage mirrored as a `request` event in
//! the engine trace):
//!
//! ```text
//! submit ──► admission (queue bound + token-bucket grant) ──► queued
//! run_pending ──► answer cache (exact (seeds, α, ε, epoch) hit → Cached)
//!             ──► ladder (requested ε → coarser ε → fallback)
//!             ──► sketch splice (attempt 0, when hub sketches cover
//!                 the epoch and α) or raw push, fanned out per batch
//!             ──► RetryPolicy supervision (panic fence + NaN guard,
//!                 exponential backoff, capped attempts; retries take
//!                 the raw push path, so a faulty splice degrades to
//!                 raw push before descending the ladder)
//!             ──► response: Full | Cached | Coarsened | Partial |
//!                 Stale | SeedOnly — always exactly one, certified
//! ```
//!
//! The engine no longer owns a mutable graph: it owns a
//! [`SnapshotStore`] publishing immutable `Arc`-backed
//! [`GraphSnapshot`]s. Every admitted request **pins** the head
//! snapshot at admission and runs against it end-to-end — ladder, batch,
//! splice, retries — even if a writer publishes deltas or compacts
//! mid-flight, so a request's answer is always bit-identical to a
//! serial replay against its admission snapshot. Queries and responses
//! live in the *root* (external) id space; a relabeling compaction
//! records its [`Permutation`] in the snapshot lineage and the engine
//! routes seeds in and clusters out through it, so clients never see
//! internal renumbering.
//!
//! Graph mutation comes in three grades. A full swap
//! ([`Engine::update_graph`]) publishes a fresh root snapshot, drops
//! every answer-cache entry, and rebuilds the hub sketches (reusing
//! the previous hub *selection* when the unweighted degree sequence is
//! unchanged), so a pre-mutation answer can only ever surface as
//! `Stale` — labeled with its epoch in the certificate — never as
//! `Full` or `Cached`. An *edge delta*
//! ([`Engine::update_graph_delta`]) publishes a delta snapshot, and
//! instead of discarding derived state it carries it across, paying
//! only for what the delta disturbed: each hub sketch is first asked
//! whether the delta can change it at all (`delta_leaves_undisturbed`
//! — no estimate mass on an endpoint, and every endpoint's parked
//! residual still under `ε·d′`); the undisturbed majority is kept as
//! it is, the rest is reflowed by the push-style residual-repair
//! kernel (`ppr_repair`). The answer cache is not visited at all: each
//! entry is tagged with the epoch it is certified at, the write
//! appends its net delta to a log, and the next probe that hits a
//! behind entry **catches it up** — the same predicate, then the same
//! kernel, against the composed delta of the writes it missed —
//! re-certified measured, or dropped (never served) if unrepairable.
//! A *relabeling compaction* ([`Engine::compact`]) catches every
//! behind entry up, publishes a renumbered snapshot, and routes
//! sketches and cached answers through the recorded `Permutation`
//! (`ppr_repair_relabeled`, `relabel_sketch_set`) — repaired, not
//! rebuilt or purged, with fresh measured certificates. The epoch
//! stamp remains the consistency protocol: requests pinned to
//! different snapshots are never batched, spliced, or cache-served
//! together.
//!
//! For deterministic concurrency testing, a writer can be *staged*
//! ([`Engine::stage_write`]) to fire at an exact [`PublishPoint`]
//! between two stages of a specific request — the chaos suite uses
//! this to force a publication at every seam of the pipeline and
//! assert pinned-snapshot isolation.

use crate::chaos::ChaosConfig;
use crate::store::SketchStore;
use acir_graph::snapshot::{compact_ordered, CompactionOrder, GraphSnapshot, SnapshotStore};
use acir_graph::{compose_net_deltas, DeltaGraph, EdgeDelta, EdgeOp, Graph, NodeId, Permutation};
use acir_local::push::{ppr_push_ctx, PushResult};
use acir_local::repair::{
    delta_endpoints, delta_leaves_undisturbed, ppr_repair, ppr_repair_relabeled, RepairRequest,
    RepairResult, DEFAULT_REPAIR_MASS_THRESHOLD,
};
use acir_local::sketch::{ppr_push_spliced_ctx, SketchSet};
use acir_local::sweep::sweep_cut_sparse;
use acir_runtime::{
    Backoff, Budget, Certificate, Diagnostics, DivergenceCause, GuardConfig, KernelCtx,
    RetryPolicy, SolverOutcome,
};
use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::hash::Hash;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A seed→cluster PPR query. Seeds are in the root (external) id
/// space; the engine routes them through the pinned snapshot's lineage
/// when the graph has been relabeled by a compaction.
#[derive(Debug, Clone)]
pub struct Query {
    /// Seed nodes (uniform teleport mass over them).
    pub seeds: Vec<NodeId>,
    /// Teleportation probability, in `(0, 1)`.
    pub alpha: f64,
    /// Requested truncation threshold (the client's accuracy ask; the
    /// ladder may coarsen it under pressure).
    pub epsilon: f64,
    /// Per-request deadline; `None` falls back to
    /// [`EngineConfig::default_deadline`].
    pub deadline: Option<Duration>,
    /// Optional extras; `QueryOptions::default()` is the plain query.
    pub options: QueryOptions,
}

/// Per-query opt-ins beyond the core `(seeds, α, ε)` ask.
#[derive(Debug, Clone, Default)]
pub struct QueryOptions {
    /// Run a sweep cut over the answer's support and attach the
    /// best-conductance prefix cut to the response
    /// ([`Response::sweep`]). Applies to computed and cached answers
    /// (`Full`/`Coarsened`/`Partial`/`Cached`); the bottom fallback
    /// rungs (`Stale`/`SeedOnly`) carry no snapshot-consistent
    /// diffusion to sweep.
    pub sweep: bool,
}

/// The best-conductance sweep cut over a response's PPR support,
/// reported in external ids (mapped back through the request's
/// snapshot lineage).
#[derive(Debug, Clone)]
pub struct SweepCut {
    /// Cut member nodes, sorted ascending, external ids.
    pub set: Vec<NodeId>,
    /// Conductance of the cut on the request's snapshot graph
    /// (invariant under relabeling).
    pub conductance: f64,
}

/// Engine tuning knobs.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Bounded queue length; submissions beyond it are rejected.
    pub queue_cap: usize,
    /// Token-bucket capacity in work units (edge traversals).
    pub capacity: u64,
    /// Tokens added back per [`Engine::run_pending`] cycle.
    pub refill_per_cycle: u64,
    /// Smallest admissible grant; a thinner share is rejected as
    /// budget starvation instead of admitting a request that could
    /// only ever produce a near-empty partial.
    pub min_grant: u64,
    /// Deadline applied to queries that do not carry their own.
    pub default_deadline: Option<Duration>,
    /// Total attempts per request (first try + retries).
    pub max_attempts: usize,
    /// Delay schedule between attempts.
    pub backoff: Backoff,
    /// Number of ×10 ε-coarsening rungs below the requested accuracy.
    pub ladder_rungs: u32,
    /// Fault-injection plan for chaos testing; `None` in production.
    pub chaos: Option<ChaosConfig>,
    /// Number of top-degree hubs to precompute PPR sketches from;
    /// `0` disables the sketch-splice path entirely. Sketches are
    /// rebuilt on every graph swap.
    pub sketch_hubs: usize,
    /// α the hub sketches are built for (sketches are α-specific);
    /// queries at any other α take the ordinary push path.
    pub sketch_alpha: f64,
    /// ε the hub sketches are pushed to. A query at ε can splice only
    /// when `sketch_epsilon < ε`; the online loop then runs at
    /// `ε − sketch_epsilon` and the combined answer still satisfies
    /// the `ε·deg` invariant.
    pub sketch_epsilon: f64,
    /// Answer-cache capacity: exact `(seeds, α, ε)` repeats by a
    /// request pinned to the head snapshot are served from cache as
    /// [`ResponseKind::Cached`] (full quality, zero compute). `0`
    /// disables the cache. Eviction is FIFO.
    pub answer_cache_cap: usize,
    /// Per-entry answer-cache time-to-live, measured in *request
    /// count* (submissions seen since the entry was cached), not wall
    /// time — deterministic and replayable. An entry older than this
    /// many requests is expired before it can be served; expiry walks
    /// the same FIFO order as capacity eviction, oldest first. `0`
    /// disables TTL expiry.
    pub answer_ttl: u64,
    /// Amortized full-rebuild cadence for the delta path: after this
    /// many [`Engine::update_graph_delta`] calls since the last full
    /// sketch build, the next delta rebuilds the sketches from scratch
    /// instead of repairing them, resetting accumulated repair error
    /// and truncation debris. `0` means repair forever.
    pub resketch_after: u64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            queue_cap: 64,
            capacity: 1_000_000,
            refill_per_cycle: 1_000_000,
            min_grant: 64,
            default_deadline: None,
            max_attempts: 3,
            backoff: Backoff::none(),
            ladder_rungs: 2,
            chaos: None,
            sketch_hubs: 0,
            sketch_alpha: 0.1,
            sketch_epsilon: 1e-5,
            answer_cache_cap: 256,
            answer_ttl: 0,
            resketch_after: 0,
        }
    }
}

/// Why a submission was refused at admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The bounded queue is at capacity.
    QueueFull,
    /// The token bucket cannot fund a useful grant right now.
    BudgetStarved,
    /// The query itself is malformed (bad α/ε, missing or unusable
    /// seeds); resubmitting without change will never succeed.
    InvalidQuery,
}

/// Structured overload/rejection response: the only way the engine
/// says no, and it says it *at admission*, never mid-compute.
#[derive(Debug, Clone, PartialEq)]
pub struct Overloaded {
    /// Which admission gate refused the request.
    pub reason: RejectReason,
    /// Human-readable specifics (queue depth, available tokens, …).
    pub detail: String,
}

/// Outcome of [`Engine::submit`].
#[derive(Debug, Clone, PartialEq)]
pub enum Admission {
    /// Admitted: the request will receive exactly one response.
    Accepted {
        /// Engine-assigned request id.
        id: u64,
        /// Work tokens carved from the global bucket for this request.
        granted_work: u64,
    },
    /// Refused at the door with a structured reason.
    Rejected(Overloaded),
}

impl Admission {
    /// The admitted request id, if any.
    pub fn id(&self) -> Option<u64> {
        match self {
            Admission::Accepted { id, .. } => Some(*id),
            Admission::Rejected(_) => None,
        }
    }

    /// Was the request admitted?
    pub fn is_accepted(&self) -> bool {
        matches!(self, Admission::Accepted { .. })
    }
}

/// Which rung of the degradation ladder produced a response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResponseKind {
    /// Converged at the requested ε.
    Full,
    /// An exact answer-cache hit: the same `(seeds, α, ε)` was answered
    /// `Full` earlier *in the current graph epoch*, so the cached
    /// vector and certificate are returned without any compute. Not a
    /// degraded rung — the answer satisfies the requested ε.
    Cached,
    /// Converged, but at a coarser ε chosen to fit the grant.
    Coarsened,
    /// Budget or deadline truncated the push; the partial diffusion is
    /// returned with its exhaustion certificate.
    Partial,
    /// A cached (possibly stale-epoch) earlier answer for the same
    /// seeds and α.
    Stale,
    /// Last resort: the seed distribution itself — the most
    /// regularized answer on the ladder (zero pushes).
    SeedOnly,
}

impl ResponseKind {
    /// Stable snake_case label, used in stages, stats, and BENCH output.
    pub fn name(&self) -> &'static str {
        match self {
            ResponseKind::Full => "full",
            ResponseKind::Cached => "cached",
            ResponseKind::Coarsened => "coarsened",
            ResponseKind::Partial => "partial",
            ResponseKind::Stale => "stale",
            ResponseKind::SeedOnly => "seed_only",
        }
    }

    /// Anything below the top rung counts as degraded service
    /// (`Cached` answers satisfy the requested ε, so they sit on the
    /// top rung alongside `Full`).
    pub fn is_degraded(&self) -> bool {
        !matches!(self, ResponseKind::Full | ResponseKind::Cached)
    }
}

/// The single certified answer an admitted request receives.
#[derive(Debug, Clone)]
pub struct Response {
    /// Request id from [`Admission::Accepted`].
    pub id: u64,
    /// Ladder rung that produced the answer.
    pub kind: ResponseKind,
    /// ε the client asked for.
    pub epsilon_requested: f64,
    /// ε the answer actually satisfies (== requested for `Full`).
    pub epsilon_used: f64,
    /// The cluster embedding, sparse `(node, value)` pairs.
    pub cluster: Vec<(NodeId, f64)>,
    /// Quality bound: exactly how approximate this answer is.
    pub certificate: Certificate,
    /// Retry attempts consumed by the supervisor.
    pub retries: usize,
    /// Admission-to-response wall time.
    pub latency: Duration,
    /// Best-conductance sweep cut over the cluster support, when the
    /// query opted in ([`QueryOptions::sweep`]) and the response rung
    /// carries a snapshot-consistent diffusion.
    pub sweep: Option<SweepCut>,
    /// Full per-request trail: kernel spans, restarts, faults, stages.
    pub diagnostics: Diagnostics,
}

/// Aggregate service counters.
#[derive(Debug, Clone, Default)]
pub struct EngineStats {
    /// Total submissions, admitted or not.
    pub submitted: u64,
    /// Requests admitted (each owed exactly one response).
    pub admitted: u64,
    /// Rejections: bounded queue at capacity.
    pub rejected_queue_full: u64,
    /// Rejections: token bucket starved.
    pub rejected_starved: u64,
    /// Rejections: malformed query.
    pub rejected_invalid: u64,
    /// Responses delivered.
    pub responded: u64,
    /// Ladder counts, one per [`ResponseKind`].
    pub full: u64,
    /// See [`ResponseKind::Cached`].
    pub cached: u64,
    /// See [`ResponseKind::Coarsened`].
    pub coarsened: u64,
    /// See [`ResponseKind::Partial`].
    pub partial: u64,
    /// See [`ResponseKind::Stale`].
    pub stale: u64,
    /// See [`ResponseKind::SeedOnly`].
    pub seed_only: u64,
    /// Retry attempts performed by the supervisor.
    pub retries: u64,
    /// Worker panics converted into diverged outcomes.
    pub panics_caught: u64,
    /// NaN corruptions detected by response validation.
    pub faults_detected: u64,
    /// Requests answered through the sketch-splice path (attempt 0
    /// spliced hub sketches instead of a cold push).
    pub spliced: u64,
    /// Oldest events dropped from the engine trail ([`Engine::trace`])
    /// to keep it bounded; `0` until the trail first outgrows its cap.
    pub trace_events_dropped: u64,
    /// Cached answers a catch-up (at a probe, or ahead of a
    /// compaction) found still certified after the writes they missed:
    /// undisturbed — kept as they were, vector, residual and allocation
    /// untouched, without calling the repair kernel, the bound raised
    /// where an endpoint's degree dropped under a parked residual — or
    /// zero-push (the kernel absorbed a correction without reflowing).
    pub answers_revalidated: u64,
    /// Cached answers a catch-up reflowed through the repair kernel.
    pub answers_repaired: u64,
    /// Cached answers a catch-up dropped as unrepairable (splice-born
    /// entries, degenerate deltas, or repair errors).
    pub answers_dropped: u64,
}

impl EngineStats {
    /// Responses served below the top ladder rung.
    pub fn degraded(&self) -> u64 {
        self.coarsened + self.partial + self.stale + self.seed_only
    }

    fn tally(&mut self, outcome: CatchUp) {
        match outcome {
            CatchUp::Revalidated => self.answers_revalidated += 1,
            CatchUp::Repaired => self.answers_repaired += 1,
            CatchUp::Dropped => self.answers_dropped += 1,
        }
    }
}

/// An admitted request waiting in the bounded queue, pinned to the
/// snapshot that was head at admission: every stage of its execution
/// reads `snapshot`, never the store's (possibly newer) head.
#[derive(Debug, Clone)]
struct Pending {
    id: u64,
    query: Query,
    grant: u64,
    deadline: Option<Duration>,
    admitted_at: Instant,
    snapshot: Arc<GraphSnapshot>,
    /// The sketch store as of admission, pinned with the snapshot so a
    /// mid-flight rebuild/relabel cannot change this request's splice
    /// eligibility.
    sketches: Option<Arc<SketchStore>>,
}

impl Pending {
    fn epoch(&self) -> u64 {
        self.snapshot.epoch()
    }

    /// The query's seeds in the pinned snapshot's internal id space.
    fn internal_seeds(&self) -> Vec<NodeId> {
        if self.snapshot.is_relabeled() {
            let lineage = self.snapshot.lineage();
            self.query
                .seeds
                .iter()
                .map(|&u| lineage.to_new(u))
                .collect()
        } else {
            self.query.seeds.clone()
        }
    }
}

/// A writer action staged by [`Engine::stage_write`] to fire at a
/// deterministic point inside [`Engine::run_pending`].
#[derive(Debug, Clone)]
pub enum WriteOp {
    /// Apply an edge-op stream, publishing a delta snapshot (exactly
    /// [`Engine::update_graph_delta`]).
    Delta(Vec<EdgeOp>),
    /// Publish a compacted (possibly relabeled) snapshot (exactly
    /// [`Engine::compact`]).
    Compact(CompactionOrder),
}

/// Deterministic seams in the request pipeline where a staged writer
/// can publish. All four fire in the sequential driver loop of
/// [`Engine::run_pending`] — never inside a parallel region — so an
/// interleaving is reproducible at any `ACIR_THREADS`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum PublishPoint {
    /// Before the request's answer-cache check.
    BeforeCacheCheck,
    /// After ladder selection, before the request's batch attempt runs.
    BeforeBatch,
    /// After the batched attempt 0, before retry supervision.
    BeforeSupervise,
    /// After the request's response has been assembled.
    AfterRespond,
}

/// One staged write: fires when `request` reaches `point`.
#[derive(Debug, Clone)]
struct StagedWrite {
    point: PublishPoint,
    request: u64,
    op: WriteOp,
}

/// A keyed store with first-in-first-out eviction at a fixed capacity:
/// `order` holds every key of `map` exactly once, oldest insertion
/// first. The answer cache and the stale cache are each one of these,
/// so "which entry goes next" has a single definition.
#[derive(Debug)]
struct FifoMap<K, V> {
    map: HashMap<K, V>,
    order: VecDeque<K>,
    cap: usize,
}

impl<K: Clone + Eq + Hash, V> FifoMap<K, V> {
    fn new(cap: usize) -> Self {
        Self {
            map: HashMap::new(),
            order: VecDeque::new(),
            cap,
        }
    }

    fn len(&self) -> usize {
        self.map.len()
    }

    fn get(&self, key: &K) -> Option<&V> {
        self.map.get(key)
    }

    fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        self.map.get_mut(key)
    }

    fn clear(&mut self) {
        self.map.clear();
        self.order.clear();
    }

    /// Insert or overwrite — an overwritten key keeps its place in
    /// line — then evict oldest-first down to the capacity, handing
    /// every value that leaves (overwritten or evicted) to `displaced`.
    fn insert(&mut self, key: K, value: V, mut displaced: impl FnMut(V)) {
        match self.map.get_mut(&key) {
            Some(slot) => displaced(std::mem::replace(slot, value)),
            None => {
                self.order.push_back(key.clone());
                self.map.insert(key, value);
            }
        }
        while self.map.len() > self.cap {
            match self.pop_oldest() {
                Some((_, gone)) => displaced(gone),
                None => break,
            }
        }
    }

    /// Remove one entry, wherever it stands in line (`O(len)` for the
    /// line; removals are rare next to probes).
    fn remove(&mut self, key: &K) -> Option<V> {
        let value = self.map.remove(key)?;
        if let Some(at) = self.order.iter().position(|k| k == key) {
            self.order.remove(at);
        }
        Some(value)
    }

    /// Visit every entry oldest-first with mutable access, removing
    /// the ones `keep` rejects. Survivors keep their place in line, so
    /// a pass over the whole store moves no entry and holds no second
    /// copy of it.
    fn retain_mut(&mut self, mut keep: impl FnMut(&K, &mut V) -> bool) {
        let map = &mut self.map;
        self.order.retain(|key| {
            let kept = map.get_mut(key).is_some_and(|value| keep(key, value));
            if !kept {
                map.remove(key);
            }
            kept
        });
    }

    fn oldest(&self) -> Option<&V> {
        self.order.front().and_then(|k| self.map.get(k))
    }

    fn pop_oldest(&mut self) -> Option<(K, V)> {
        let key = self.order.pop_front()?;
        let value = self.map.remove(&key)?;
        Some((key, value))
    }
}

/// Capacity of the stale cache (the `Stale` fallback rung's store).
/// Fixed: an engine must not grow with the number of requests it has
/// served, and the fallback only needs a recent window.
const STALE_CACHE_CAP: usize = 4096;

/// Events of the engine trail ([`Engine::trace`]) that are always
/// retained. The trail is trimmed back to this many once it holds
/// twice as many — one `O(cap)` drain per `cap` events recorded, so
/// amortized `O(1)` — and the drops are counted in
/// [`EngineStats::trace_events_dropped`].
const TRACE_CAP: usize = 65_536;

#[derive(Debug, Clone)]
struct CacheEntry {
    epoch: u64,
    epsilon: f64,
    vector: Vec<(NodeId, f64)>,
    certificate: Certificate,
}

type CacheKey = (Vec<NodeId>, u64);

fn cache_key(seeds: &[NodeId], alpha: f64) -> CacheKey {
    let mut s = seeds.to_vec();
    s.sort_unstable();
    s.dedup();
    (s, alpha.to_bits())
}

/// Exact answer-cache key: sorted deduped seeds, α bits, ε bits. The
/// epoch is not part of it: an entry *records* the epoch it is
/// certified at ([`AnswerEntry::epoch`]) and is caught up to the head
/// when a probe hits it, so a key has one entry however many writes
/// have passed, and no write ever re-keys one. The pinned-epoch check
/// sits at the probe — a request hits only when its pinned epoch is
/// the head's — and only answers computed against the head enter.
type AnswerKey = (Vec<NodeId>, u64, u64);

fn answer_key(seeds: &[NodeId], alpha: f64, epsilon: f64) -> AnswerKey {
    let mut s = seeds.to_vec();
    s.sort_unstable();
    s.dedup();
    (s, alpha.to_bits(), epsilon.to_bits())
}

#[derive(Debug, Clone)]
struct AnswerEntry {
    /// The epoch this entry's payload and certificate are true at: the
    /// head's when it was cached or last caught up. Payloads live in
    /// that snapshot's internal id space; a compaction always catches
    /// entries up first, so every live epoch shares the head's labeling.
    /// (The ε the answer satisfies is the key's.)
    epoch: u64,
    vector: Vec<(NodeId, f64)>,
    certificate: Certificate,
    /// Sorted, deduped seeds (the key's seed component) — what the
    /// repair kernel's from-scratch fallback diffuses from.
    seeds: Vec<NodeId>,
    /// The answer's residual vector, kept so an edge delta can repair
    /// the entry in place instead of purging it. Splice-sourced answers
    /// carry an empty residual with nonzero certified mass — those are
    /// unrepairable and dropped by their first catch-up.
    residuals: Vec<(NodeId, f64)>,
    /// Request-clock stamp at caching time, for TTL expiry.
    born: u64,
}

impl AnswerEntry {
    /// No stored residual vector but a certificate with nonzero
    /// remaining mass: the answer came through a sketch splice, and
    /// the ACL invariant cannot be re-established from what was kept.
    fn is_splice_born(&self) -> bool {
        let certified_remaining = match self.certificate {
            Certificate::ResidualMass { remaining, .. } => remaining,
            _ => 1.0,
        };
        self.residuals.is_empty() && certified_remaining != 0.0
    }

    /// Take over a repaired state and re-issue the certificate with
    /// the **measured** post-repair worst `|r|/d` — tighter than the ε
    /// the answer was asked for (an all-zero residual measures 0.0;
    /// report the satisfied `epsilon` instead so the bound stays
    /// meaningful and positive).
    fn adopt(&mut self, rr: RepairResult, epsilon: f64, trace: &mut Diagnostics) {
        let measured = if rr.per_degree_bound > 0.0 {
            rr.per_degree_bound
        } else {
            epsilon
        };
        self.certificate = Certificate::ResidualMass {
            remaining: rr.residual_mass,
            per_degree_bound: measured,
        };
        trace.certificate_issued(&self.certificate);
        self.vector = rr.vector;
        self.residuals = rr.residuals;
    }

    /// Carry this entry across `delta`, the net change from the graph
    /// it is certified at to the head graph `g`, in place. A write
    /// costs what it disturbed: the entry is first asked whether the
    /// delta can change it at all ([`delta_leaves_undisturbed`] — a
    /// few binary searches per endpoint). An undisturbed entry keeps
    /// its vector, residuals and allocation, and its certificate with
    /// the bound raised to cover an endpoint whose degree dropped under
    /// a parked residual (still `< ε`, still true on `g`); no
    /// certificate event is issued for it. Only a disturbed entry
    /// reaches `ppr_repair` and gets a freshly measured certificate. A
    /// splice-born entry, or one the kernel rejects, is `Dropped` — the
    /// caller removes it. The caller restamps the epoch.
    fn catch_up(
        &mut self,
        key: &AnswerKey,
        delta: &[EdgeDelta],
        g: &Graph,
        trace: &mut Diagnostics,
    ) -> CatchUp {
        // A splice-born answer stores no residual vector but certifies
        // nonzero remaining mass: the invariant cannot be
        // re-established from what was kept.
        if self.is_splice_born() {
            return CatchUp::Dropped;
        }
        let (alpha, epsilon) = (f64::from_bits(key.1), f64::from_bits(key.2));
        let endpoints = delta_endpoints(delta);
        if let Some(endpoint_bound) =
            delta_leaves_undisturbed(g, &self.vector, &self.residuals, &endpoints, epsilon)
        {
            if let Certificate::ResidualMass {
                per_degree_bound, ..
            } = &mut self.certificate
            {
                *per_degree_bound = per_degree_bound.max(endpoint_bound);
            }
            return CatchUp::Revalidated;
        }
        let req = RepairRequest {
            seeds: &self.seeds,
            estimate: &self.vector,
            residual: &self.residuals,
            delta,
            alpha,
            epsilon,
            mass_threshold: DEFAULT_REPAIR_MASS_THRESHOLD,
        };
        match ppr_repair(g, &req) {
            Ok(rr) => {
                let outcome = if rr.pushes == 0 && rr.repaired {
                    CatchUp::Revalidated
                } else {
                    CatchUp::Repaired
                };
                self.adopt(rr, epsilon, trace);
                outcome
            }
            Err(e) => {
                trace.note(format!("cached answer unrepairable ({e}); dropped"));
                CatchUp::Dropped
            }
        }
    }
}

/// What a catch-up did to one behind answer-cache entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CatchUp {
    /// Still certified as it was (see [`EngineStats::answers_revalidated`]).
    Revalidated,
    /// Reflowed by the repair kernel.
    Repaired,
    /// Unrepairable: removed, so the request computes afresh.
    Dropped,
}

impl CatchUp {
    /// The request stage a caught-up probe records.
    fn stage(self) -> &'static str {
        match self {
            CatchUp::Revalidated => "cache_catch_up:revalidated",
            CatchUp::Repaired => "cache_catch_up:repaired",
            CatchUp::Dropped => "cache_catch_up:dropped",
        }
    }
}

/// The net delta of every write since the last compaction or root swap
/// that a live answer-cache entry has not caught up with, and the live
/// entries per certified epoch that decide which writes those are.
#[derive(Debug)]
struct WriteLog {
    /// `(epoch the write published, its net delta)`, oldest first,
    /// trimmed to the writes after the oldest live entry's epoch.
    records: VecDeque<(u64, Vec<EdgeDelta>)>,
    /// Live entries per certified epoch, `base` first: the front is
    /// never zero, so it is the oldest live epoch and trimming never
    /// visits an entry. Reserved up front, so a cache that sees no
    /// write never allocates here.
    live: VecDeque<usize>,
    /// The epoch `live[0]` counts.
    base: u64,
}

impl WriteLog {
    fn new() -> Self {
        Self {
            records: VecDeque::new(),
            live: VecDeque::with_capacity(4),
            base: 0,
        }
    }

    /// An entry certified at `epoch` arrived. Entries arrive at the
    /// head, never before the oldest live epoch.
    fn enter(&mut self, epoch: u64) {
        if self.live.is_empty() {
            self.base = epoch;
        }
        let at = (epoch - self.base) as usize;
        if at >= self.live.len() {
            self.live.resize(at + 1, 0);
        }
        self.live[at] += 1;
    }

    /// An entry certified at `epoch` left (or moved on); drop the
    /// records no live entry needs any more.
    fn leave(&mut self, epoch: u64) {
        self.live[(epoch - self.base) as usize] -= 1;
        while self.live.front() == Some(&0) {
            self.live.pop_front();
            self.base += 1;
        }
        if self.live.is_empty() {
            self.records.clear();
        }
        while self.records.front().is_some_and(|r| r.0 <= self.base) {
            self.records.pop_front();
        }
    }

    /// Log a write that published `epoch`, unless no live entry will
    /// ever need it (entries cached later start at or past it).
    fn record(&mut self, epoch: u64, delta: Vec<EdgeDelta>) {
        if !self.live.is_empty() {
            self.records.push_back((epoch, delta));
        }
    }

    /// The net delta from the graph at `epoch` to the head: one record
    /// as it is, several composed.
    fn since(&self, epoch: u64) -> Cow<'_, [EdgeDelta]> {
        let first = self.records.partition_point(|r| r.0 <= epoch);
        if first + 1 == self.records.len() {
            Cow::Borrowed(&self.records[first].1)
        } else {
            Cow::Owned(compose_net_deltas(
                self.records.range(first..).map(|r| r.1.as_slice()),
            ))
        }
    }

    /// Start over at `epoch` with `entries` live entries, all certified
    /// there (after a catch-up or a compaction), keeping the capacity.
    fn restart(&mut self, epoch: u64, entries: usize) {
        self.records.clear();
        self.live.clear();
        self.base = epoch;
        if entries > 0 {
            self.live.push_back(entries);
        }
    }
}

/// The answer cache: exact `(seeds, α, ε)` repeats with FIFO eviction,
/// each entry tagged with the epoch it is certified at, beside the
/// [`WriteLog`] that carries a behind entry to the head. A write never
/// visits an entry; it appends one record ([`AnswerCache::record`]).
#[derive(Debug)]
struct AnswerCache {
    entries: FifoMap<AnswerKey, AnswerEntry>,
    log: WriteLog,
}

impl AnswerCache {
    fn new(cap: usize) -> Self {
        Self {
            entries: FifoMap::new(cap),
            log: WriteLog::new(),
        }
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    fn get(&self, key: &AnswerKey) -> Option<&AnswerEntry> {
        self.entries.get(key)
    }

    fn clear(&mut self) {
        self.entries.clear();
        self.log.restart(0, 0);
    }

    fn insert(&mut self, key: AnswerKey, entry: AnswerEntry) {
        self.log.enter(entry.epoch);
        let log = &mut self.log;
        self.entries
            .insert(key, entry, |gone| log.leave(gone.epoch));
    }

    fn oldest(&self) -> Option<&AnswerEntry> {
        self.entries.oldest()
    }

    fn pop_oldest(&mut self) {
        if let Some((_, gone)) = self.entries.pop_oldest() {
            self.log.leave(gone.epoch);
        }
    }

    fn record(&mut self, epoch: u64, delta: Vec<EdgeDelta>) {
        self.log.record(epoch, delta);
    }

    /// Catch the entry under `key` up to the head (`g` at epoch
    /// `head`), in place, if it is behind; `None` if it is absent or
    /// already current. A dropped entry is removed.
    fn catch_up(
        &mut self,
        key: &AnswerKey,
        g: &Graph,
        head: u64,
        trace: &mut Diagnostics,
    ) -> Option<CatchUp> {
        let entry = self.entries.get_mut(key).filter(|e| e.epoch < head)?;
        let outcome = entry.catch_up(key, &self.log.since(entry.epoch), g, trace);
        let from = std::mem::replace(&mut entry.epoch, head);
        if outcome == CatchUp::Dropped {
            self.entries.remove(key);
        } else {
            self.log.enter(head);
        }
        self.log.leave(from);
        Some(outcome)
    }

    /// Catch every behind entry up to the head, oldest-first, in place
    /// (deterministic; eviction order is preserved).
    fn catch_up_all(
        &mut self,
        g: &Graph,
        head: u64,
        trace: &mut Diagnostics,
        stats: &mut EngineStats,
    ) {
        let Self { entries, log } = self;
        entries.retain_mut(|key, entry| {
            if entry.epoch == head {
                return true;
            }
            let delta = log.since(entry.epoch);
            let outcome = entry.catch_up(key, &delta, g, trace);
            stats.tally(outcome);
            entry.epoch = head;
            outcome != CatchUp::Dropped
        });
        log.restart(head, entries.len());
    }
}

/// What one [`Engine::update_graph_delta`] call did to the engine's
/// derived state. All counters are exact and deterministic.
///
/// A write no longer visits the answer cache — entries catch up when a
/// probe next hits them — so the three `answers_*` fields always read
/// `0` and `repair_pushes`/`repair_work` count sketch repair only. The
/// fields stay so existing readers keep compiling; the answer counts
/// live in [`EngineStats::answers_revalidated`],
/// [`EngineStats::answers_repaired`] and
/// [`EngineStats::answers_dropped`], fed by the catch-ups.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaSummary {
    /// The epoch after the delta (unchanged if the delta was a no-op).
    pub epoch: u64,
    /// Net edges changed (inserts + deletes + reweights, after
    /// cancellation). `0` means nothing else in this summary happened.
    pub edges: usize,
    /// Hub sketches incrementally repaired.
    pub sketches_repaired: usize,
    /// Hub sketches untouched by the delta, carried over verbatim.
    pub sketches_untouched: usize,
    /// Hub sketches recomputed from scratch by the repair kernel.
    pub sketch_fallbacks: usize,
    /// `true` when the sketch set was fully rebuilt instead of
    /// repaired (amortized cadence, injected repair fault, or a repair
    /// error).
    pub sketches_rebuilt: bool,
    /// Always `0`: a write visits no cached answer (see
    /// [`EngineStats::answers_revalidated`]).
    pub answers_revalidated: usize,
    /// Always `0` (see [`EngineStats::answers_repaired`]).
    pub answers_repaired: usize,
    /// Always `0` (see [`EngineStats::answers_dropped`]).
    pub answers_dropped: usize,
    /// Fresh pushes spent repairing sketches — the repair-vs-rebuild
    /// gate numerator.
    pub repair_pushes: usize,
    /// Fresh edge traversals spent repairing sketches.
    pub repair_work: usize,
}

/// What one [`Engine::compact`] call did to the engine's derived
/// state. All counters are exact and deterministic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactionSummary {
    /// The epoch after the compaction.
    pub epoch: u64,
    /// `true` when the chosen order renumbered vertices (a
    /// [`CompactionOrder::Preserve`] compaction publishes an identity
    /// step).
    pub relabeled: bool,
    /// Hub sketches routed through the permutation (all of them; a
    /// relabeling never rebuilds a sketch).
    pub sketches_relabeled: usize,
    /// Cached answers routed through the permutation with a freshly
    /// measured certificate.
    pub answers_relabeled: usize,
    /// Cached answers dropped because the relabel-repair errored
    /// (should not happen; kept for honesty in accounting).
    pub answers_dropped: usize,
}

/// Worst-case push count of an ε-truncated diffusion, the same
/// `O(1/(εα))` bound the kernel's safety cap uses — the ladder's
/// admission-time cost model.
fn est_cost(epsilon: f64, alpha: f64) -> u64 {
    (4.0 / (epsilon * alpha)).ceil() as u64
}

/// The long-running PPR query engine. See the crate docs for the
/// degradation contract.
#[derive(Debug)]
pub struct Engine {
    /// The snapshot publication point. Writers (`update_graph*`,
    /// `compact`) build the next snapshot off to the side and publish
    /// it here; every admitted request pins the head at admission.
    snapshots: SnapshotStore,
    /// Cached pin of the store's head (always equal to the store's
    /// current snapshot; avoids a lock round-trip on every read).
    head: Arc<GraphSnapshot>,
    cfg: EngineConfig,
    next_id: u64,
    available: u64,
    queue: VecDeque<Pending>,
    /// The stale cache: latest `Full`/`Coarsened` answer per
    /// `(seeds, α)` in external ids, served across epochs as `Stale`.
    cache: FifoMap<CacheKey, CacheEntry>,
    /// Answer-cache payloads live in the *head snapshot's internal* id
    /// space (a compaction relabels them) and each is certified at the
    /// epoch it records, caught up to the head across deltas when a
    /// probe hits it; keys carry external seeds.
    answers: AnswerCache,
    /// The hub-sketch store, `Arc`-shared so each admission pins the
    /// store alongside its snapshot: a rebuild, repair, or relabel
    /// publishes a *new* store and in-flight requests keep splicing
    /// (or not) exactly as they would have at admission time.
    sketches: Option<Arc<SketchStore>>,
    stats: EngineStats,
    trace: Diagnostics,
    /// Monotone submission counter; the TTL clock.
    request_clock: u64,
    /// Deltas applied since the last full sketch build.
    deltas_since_resketch: u64,
    /// Writer actions staged to fire at deterministic pipeline seams.
    staged: Vec<StagedWrite>,
}

impl Engine {
    /// An engine serving queries against `g`.
    ///
    /// When `cfg.sketch_hubs > 0` the hub sketches are built here (and
    /// again on every [`Engine::update_graph`]); invalid sketch
    /// parameters are a configuration bug and panic.
    pub fn new(g: Graph, cfg: EngineConfig) -> Self {
        let available = cfg.capacity;
        let snapshots = SnapshotStore::new(g);
        let head = snapshots.pin();
        let answers = AnswerCache::new(cfg.answer_cache_cap);
        let mut engine = Self {
            snapshots,
            head,
            cfg,
            next_id: 0,
            available,
            cache: FifoMap::new(STALE_CACHE_CAP),
            answers,
            sketches: None,
            queue: VecDeque::new(),
            stats: EngineStats::default(),
            trace: Diagnostics::for_kernel("serve.engine"),
            request_clock: 0,
            deltas_since_resketch: 0,
            staged: Vec::new(),
        };
        if engine.cfg.sketch_hubs > 0 {
            engine.rebuild_sketches(None);
        }
        engine
    }

    /// (Re)build the hub-sketch store for the head snapshot and epoch.
    /// `reuse_hubs` carries the previous store's hub list when the
    /// caller has proven the top-K selection cannot have changed (the
    /// unweighted degree sequence is identical), skipping reselection
    /// while still rebuilding every sketch against the new weights.
    fn rebuild_sketches(&mut self, reuse_hubs: Option<Vec<NodeId>>) {
        self.sketches = None;
        self.deltas_since_resketch = 0;
        if self.cfg.sketch_hubs == 0 {
            return;
        }
        let epoch = self.head.epoch();
        let store = match reuse_hubs {
            Some(hubs) => {
                self.trace.note(format!(
                    "hub selection reused: degree sequence unchanged ({} hubs; epoch {epoch})",
                    hubs.len()
                ));
                SketchStore::build_for_hubs(
                    self.head.graph(),
                    &hubs,
                    self.cfg.sketch_alpha,
                    self.cfg.sketch_epsilon,
                    epoch,
                )
            }
            None => SketchStore::build(
                self.head.graph(),
                self.cfg.sketch_hubs,
                self.cfg.sketch_alpha,
                self.cfg.sketch_epsilon,
                epoch,
            ),
        }
        .unwrap_or_else(|e| panic!("invalid sketch configuration: {e}"));
        self.trace.note(format!(
            "hub sketches built: {} hubs at eps {:e} (epoch {})",
            store.len(),
            self.cfg.sketch_epsilon,
            epoch
        ));
        self.sketches = Some(Arc::new(store));
    }

    /// Swap in a new graph as a fresh root snapshot and bump the
    /// epoch. Requests already queued keep their pinned snapshot, so
    /// they are never batched (or spliced) with new-epoch requests and
    /// still answer against the graph they were admitted under; the
    /// answer cache is purged (nothing relates the old graph to the
    /// new one, so no entry can be carried across) and
    /// the hub sketches are rebuilt against the new snapshot — reusing
    /// the previous hub *selection* when the unweighted degree
    /// sequence is unchanged (a pure-reweight swap cannot move the
    /// top-K cut line, so reselection is skipped; the restamp and the
    /// per-sketch rebuild still happen). Stale-cache answers from
    /// earlier epochs remain servable as `Stale`, labeled with their
    /// epoch in the certificate.
    pub fn update_graph(&mut self, g: Graph) {
        let reuse_hubs = self.reusable_hub_selection(&g);
        self.head = self.snapshots.publish_root(g);
        self.answers.clear();
        self.trace
            .note(format!("graph swapped; epoch {}", self.head.epoch()));
        // With the sketch path disabled there is nothing to rebuild —
        // skip the call rather than churn through a no-op.
        if self.cfg.sketch_hubs > 0 {
            self.rebuild_sketches(reuse_hubs);
        } else {
            self.deltas_since_resketch = 0;
        }
        self.trim_trace();
    }

    /// The current store's hub list, when `g` provably yields the same
    /// top-K selection: same vertex count and an identical unweighted
    /// degree sequence (ties in [`Permutation::degree_descending`]
    /// break by id, so equal degrees force equal selection).
    fn reusable_hub_selection(&self, g: &Graph) -> Option<Vec<NodeId>> {
        let store = self.sketches.as_ref()?;
        let old = self.head.graph();
        if g.n() != old.n()
            || (0..g.n() as NodeId).any(|u| g.degree_unweighted(u) != old.degree_unweighted(u))
        {
            return None;
        }
        Some(store.hubs())
    }

    /// Apply an edge delta to the serving graph *in place*: compact the
    /// overlay into a fresh CSR, bump the epoch, and **repair** the
    /// derived state instead of discarding it. The write costs
    /// `O(delta)` plus the CSR copy and the sketch repair — never a
    /// pass over the answer cache.
    ///
    /// * Hub sketches the delta disturbs (estimate mass on an endpoint,
    ///   or an endpoint whose new degree no longer covers its parked
    ///   residual) are reflowed by the residual-repair kernel; the rest
    ///   carry over verbatim. Every `cfg.resketch_after` deltas (and on
    ///   an injected repair fault, or any repair error) the set is
    ///   rebuilt from scratch instead.
    /// * Cached answers are not visited: the net delta is appended to
    ///   the answer cache's write log, and each entry stays certified
    ///   at the epoch it records. The next probe that hits an entry
    ///   behind the head catches it up in place against the composed
    ///   delta of the writes it missed — the same predicate and the
    ///   same kernel, so an entry one write behind gets exactly what an
    ///   eager repair would have given it: kept (bound raised where an
    ///   endpoint's degree dropped under a parked residual), repaired
    ///   with a *measured* certificate, or — splice-born, degenerate —
    ///   dropped and recomputed, never served. The counts land in
    ///   [`EngineStats`], not in the returned [`DeltaSummary`].
    ///
    /// The delta is atomic: `ops` are validated against an overlay
    /// before any engine state changes, so a rejected op leaves the
    /// engine bit-for-bit untouched and in-flight requests can never
    /// observe a half-applied delta. An empty net delta (ops that
    /// cancel out) is a no-op that does not bump the epoch.
    pub fn update_graph_delta(&mut self, ops: &[EdgeOp]) -> Result<DeltaSummary, String> {
        let (new_graph, delta) = {
            // Build the successor entirely off to the side, against the
            // pinned head — readers keep serving the old snapshot until
            // the single atomic publish below.
            let base = Arc::clone(&self.head);
            let mut dg = DeltaGraph::new(base.graph());
            for op in ops {
                // Ops name endpoints in external (root) ids, like
                // queries; translate into the head's labeling first.
                // Out-of-range endpoints pass through untranslated so
                // the overlay rejects them with its canonical error.
                let op = internalize_op(&base, op);
                dg.apply(&op).map_err(|e| format!("delta rejected: {e}"))?;
            }
            let delta = dg.net_delta();
            if delta.is_empty() {
                return Ok(DeltaSummary {
                    epoch: self.head.epoch(),
                    ..DeltaSummary::default()
                });
            }
            let (g, _relabel) = dg
                .compact()
                .map_err(|e| format!("delta compaction failed: {e}"))?;
            (g, delta)
        };
        self.head = self.snapshots.publish_delta(new_graph, delta.clone());
        let epoch = self.head.epoch();
        let mut summary = DeltaSummary {
            epoch,
            edges: delta.len(),
            ..DeltaSummary::default()
        };
        self.trace.note(format!(
            "delta applied: {} edges; epoch {}",
            delta.len(),
            epoch
        ));

        if self.cfg.sketch_hubs > 0 {
            self.deltas_since_resketch += 1;
            let faulted = self
                .cfg
                .chaos
                .as_ref()
                .is_some_and(|c| c.fails_repair(epoch));
            let amortized = self.cfg.resketch_after > 0
                && self.deltas_since_resketch >= self.cfg.resketch_after;
            let repaired = if faulted {
                self.trace.note(format!(
                    "chaos: sketch repair fault at epoch {epoch}; rebuilding"
                ));
                None
            } else if amortized {
                self.trace.note(format!(
                    "amortized sketch rebuild after {} deltas",
                    self.deltas_since_resketch
                ));
                None
            } else {
                match self
                    .sketches
                    .as_ref()
                    .map(|s| s.repair(self.head.graph(), &delta, epoch))
                {
                    Some(Ok(ok)) => Some(ok),
                    Some(Err(e)) => {
                        self.trace
                            .note(format!("sketch repair failed ({e}); rebuilding"));
                        None
                    }
                    None => None,
                }
            };
            match repaired {
                Some((store, stats)) => {
                    self.trace.note(format!(
                        "hub sketches repaired: {} repaired, {} untouched, {} fallbacks \
                         ({} pushes; epoch {epoch})",
                        stats.repaired, stats.untouched, stats.fallbacks, stats.pushes
                    ));
                    summary.sketches_repaired = stats.repaired;
                    summary.sketches_untouched = stats.untouched;
                    summary.sketch_fallbacks = stats.fallbacks;
                    summary.repair_pushes += stats.pushes;
                    summary.repair_work += stats.work;
                    self.sketches = Some(Arc::new(store));
                }
                None => {
                    self.rebuild_sketches(None);
                    summary.sketches_rebuilt = true;
                }
            }
        }

        self.answers.record(epoch, delta);
        self.trim_trace();
        Ok(summary)
    }

    /// Publish a compacted snapshot of the current head under `order`,
    /// bumping the epoch, and route the derived state *through the
    /// relabeling* instead of rebuilding or purging it:
    ///
    /// * hub sketches are relabeled in place (`relabel_sketch_set`) and
    ///   restamped — a permutation permutes a diffusion, it does not
    ///   change it, so not a single push is spent;
    /// * cached answers behind the head are first caught up to it
    ///   (exactly as a probe would, counted in [`EngineStats`]), then
    ///   every entry is routed through the permutation by the
    ///   relabel-aware repair kernel (`ppr_repair_relabeled` with an
    ///   empty delta), in place, and re-issued a
    ///   **freshly measured** `ResidualMass` certificate against the
    ///   relabeled graph; the write log starts over.
    ///
    /// In-flight requests pinned to the pre-compaction snapshot are
    /// unaffected: their snapshot (and its id space) stays alive until
    /// they respond. A [`CompactionOrder::Preserve`] compaction
    /// publishes an identity step — everything above degenerates to
    /// re-measuring each certificate on an unchanged labeling.
    pub fn compact(&mut self, order: CompactionOrder) -> Result<CompactionSummary, String> {
        self.catch_up_answers();
        let (new_graph, step) = {
            let base = Arc::clone(&self.head);
            let dg = DeltaGraph::new(base.graph());
            compact_ordered(&dg, order).map_err(|e| format!("compaction failed: {e}"))?
        };
        self.head = self.snapshots.publish_compacted(new_graph, step.clone());
        let epoch = self.head.epoch();
        let mut summary = CompactionSummary {
            epoch,
            relabeled: !step.is_identity(),
            ..CompactionSummary::default()
        };
        self.trace.note(format!(
            "compacted ({}); epoch {epoch}",
            match order {
                CompactionOrder::Preserve => "preserve",
                CompactionOrder::Rcm => "rcm",
                CompactionOrder::DegreeDescending => "degree-descending",
            }
        ));

        if let Some(store) = self.sketches.take() {
            let relabeled = store.relabel(&step, epoch).map_err(|e| {
                // The answers would stay in the old labeling: drop them.
                self.answers.clear();
                format!("sketch relabel failed: {e}")
            })?;
            summary.sketches_relabeled = relabeled.len();
            self.trace.note(format!(
                "hub sketches relabeled: {} carried through the permutation (epoch {epoch})",
                relabeled.len()
            ));
            self.sketches = Some(Arc::new(relabeled));
        }

        self.relabel_answers(&step, &mut summary);
        self.trim_trace();
        Ok(summary)
    }

    /// Catch every answer-cache entry behind the head up to it (see
    /// [`AnswerEntry::catch_up`]), noting the tally in the trail.
    fn catch_up_answers(&mut self) {
        let before = self.stats.clone();
        let head = self.head.epoch();
        self.answers
            .catch_up_all(self.head.graph(), head, &mut self.trace, &mut self.stats);
        let (revalidated, repaired, dropped) = (
            self.stats.answers_revalidated - before.answers_revalidated,
            self.stats.answers_repaired - before.answers_repaired,
            self.stats.answers_dropped - before.answers_dropped,
        );
        if revalidated + repaired + dropped > 0 {
            self.trace.note(format!(
                "answer cache caught up: {revalidated} revalidated, {repaired} repaired, \
                 {dropped} dropped (epoch {head})"
            ));
        }
    }

    /// Route every answer-cache entry through a compaction `step`, in
    /// place and oldest-first: payloads are mapped into the new id
    /// space (keys hold external seeds, which are lineage-stable, and
    /// stay put), and repairable entries get a freshly measured
    /// certificate from the relabel-aware repair kernel. Splice-born
    /// entries (no stored residual) are mapped verbatim with their
    /// original certificate — a relabeling preserves degrees, so the
    /// old bound still holds word for word.
    fn relabel_answers(&mut self, step: &Permutation, summary: &mut CompactionSummary) {
        let Self {
            answers,
            head,
            trace,
            ..
        } = self;
        let g = head.graph();
        answers.entries.retain_mut(|key, entry| {
            entry.epoch = head.epoch();
            if entry.is_splice_born() {
                entry.vector = step.map_sparse(&entry.vector);
            } else {
                let req = RepairRequest {
                    seeds: &entry.seeds,
                    estimate: &entry.vector,
                    residual: &entry.residuals,
                    delta: &[],
                    alpha: f64::from_bits(key.1),
                    epsilon: f64::from_bits(key.2),
                    mass_threshold: DEFAULT_REPAIR_MASS_THRESHOLD,
                };
                match ppr_repair_relabeled(g, &req, step) {
                    Ok(rr) => entry.adopt(rr, f64::from_bits(key.2), trace),
                    Err(e) => {
                        trace.note(format!("cached answer unrelabelable ({e}); dropped"));
                        summary.answers_dropped += 1;
                        return false;
                    }
                }
            }
            entry.seeds = step.map_nodes(&entry.seeds);
            summary.answers_relabeled += 1;
            true
        });
        answers.log.restart(head.epoch(), answers.len());
        if summary.answers_relabeled + summary.answers_dropped > 0 {
            self.trace.note(format!(
                "answer cache: {} relabeled, {} dropped (epoch {})",
                summary.answers_relabeled,
                summary.answers_dropped,
                self.head.epoch()
            ));
        }
    }

    /// Current (head) graph epoch.
    pub fn epoch(&self) -> u64 {
        self.head.epoch()
    }

    /// The head snapshot's graph. In-flight requests may still be
    /// reading older pinned snapshots; this is what *new* admissions
    /// will pin.
    pub fn graph(&self) -> &Graph {
        self.head.graph()
    }

    /// Pin the head snapshot, exactly as an admission would: the
    /// returned `Arc` stays valid across any number of later
    /// publications. Serial-replay harnesses use this to capture the
    /// graph a request will be (or was) answered against.
    pub fn snapshot(&self) -> Arc<GraphSnapshot> {
        Arc::clone(&self.head)
    }

    /// The snapshot publication point itself, for readers that want to
    /// pin independently of the engine's bookkeeping.
    pub fn snapshot_store(&self) -> &SnapshotStore {
        &self.snapshots
    }

    /// Stage a writer action to fire when request `request` reaches
    /// `point` inside [`Engine::run_pending`] — the deterministic
    /// interleaving hook the chaos suite uses to force a publication
    /// between any two stages of a specific request. Staged writes
    /// fire in the sequential driver loop (never inside a parallel
    /// region), in the order they were staged; a write whose request
    /// never reaches its point stays staged. Failures are recorded in
    /// the engine trace, not raised — the harness asserts on the trace.
    pub fn stage_write(&mut self, point: PublishPoint, request: u64, op: WriteOp) {
        self.staged.push(StagedWrite { point, request, op });
    }

    /// Writer actions staged and not yet fired.
    pub fn staged_writes(&self) -> usize {
        self.staged.len()
    }

    /// Fire every staged write registered for (`point`, `request`), in
    /// staging order.
    fn fire_staged(&mut self, point: PublishPoint, request: u64) {
        if self.staged.is_empty() {
            return;
        }
        let mut i = 0;
        while i < self.staged.len() {
            if self.staged[i].point == point && self.staged[i].request == request {
                let w = self.staged.remove(i);
                self.trace.request_stage(
                    request,
                    format!("staged_write:{:?}", w.point).to_lowercase(),
                );
                let outcome = match w.op {
                    WriteOp::Delta(ops) => self
                        .update_graph_delta(&ops)
                        .map(|s| format!("delta published; epoch {}", s.epoch))
                        .unwrap_or_else(|e| format!("staged delta failed: {e}")),
                    WriteOp::Compact(order) => self
                        .compact(order)
                        .map(|s| format!("compaction published; epoch {}", s.epoch))
                        .unwrap_or_else(|e| format!("staged compaction failed: {e}")),
                };
                self.trace.note(outcome);
            } else {
                i += 1;
            }
        }
    }

    /// Queued (admitted, unanswered) request count.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Work tokens currently available for new grants.
    pub fn available_tokens(&self) -> u64 {
        self.available
    }

    /// Service counters so far.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// Engine-level trail of request lifecycle events.
    pub fn trace(&self) -> &Diagnostics {
        &self.trace
    }

    /// The hub-sketch store, when the sketch path is enabled.
    pub fn sketch_store(&self) -> Option<&SketchStore> {
        self.sketches.as_deref()
    }

    /// Answer-cache entries currently held.
    pub fn answer_cache_len(&self) -> usize {
        self.answers.len()
    }

    /// The sketch set to splice for a request pinned at `epoch` with
    /// `(alpha, eps)`, if `store` — the store the request pinned at
    /// admission — covers that combination. Stores are epoch-stamped
    /// and published alongside snapshots, so a request whose pinned
    /// store disagrees with its pinned epoch takes the raw push path
    /// against its own snapshot.
    fn splice_set(
        store: Option<&SketchStore>,
        alpha: f64,
        eps: f64,
        epoch: u64,
    ) -> Option<&SketchSet> {
        let store = store?;
        let set = store.set();
        (store.epoch() == epoch
            && !set.is_empty()
            && set.alpha().to_bits() == alpha.to_bits()
            && set.epsilon() < eps)
            .then_some(set)
    }

    /// Record a `Full`-quality answer for exact-repeat service, with
    /// FIFO eviction at the configured capacity.
    fn cache_answer(&mut self, key: AnswerKey, entry: AnswerEntry) {
        if self.cfg.answer_cache_cap == 0 {
            return;
        }
        self.expire_answers();
        self.answers.insert(key, entry);
    }

    /// Expire answer-cache entries older than `cfg.answer_ttl`
    /// requests, oldest (FIFO front) first — the same order capacity
    /// eviction uses, so the two mechanisms never disagree about which
    /// entry goes next.
    fn expire_answers(&mut self) {
        let ttl = self.cfg.answer_ttl;
        if ttl == 0 {
            return;
        }
        let clock = self.request_clock;
        while self
            .answers
            .oldest()
            .is_some_and(|e| clock.saturating_sub(e.born) > ttl)
        {
            self.answers.pop_oldest();
        }
    }

    /// Keep the engine trail bounded (see [`TRACE_CAP`]).
    fn trim_trace(&mut self) {
        if self.trace.trace.len() >= 2 * TRACE_CAP {
            self.stats.trace_events_dropped += self.trace.keep_newest(TRACE_CAP) as u64;
        }
    }

    fn validate(&self, q: &Query) -> Result<(), String> {
        if !(q.alpha > 0.0 && q.alpha < 1.0) {
            return Err(format!("alpha must be in (0, 1), got {}", q.alpha));
        }
        if !(q.epsilon > 0.0 && q.epsilon.is_finite()) {
            return Err(format!("epsilon must be positive, got {}", q.epsilon));
        }
        if q.seeds.is_empty() {
            return Err("query needs at least one seed".into());
        }
        let head = self.head.graph();
        for &u in &q.seeds {
            if u as usize >= head.n() {
                return Err(format!("seed {u} out of range for |V| = {}", head.n()));
            }
            // Seeds arrive in external ids; degree is checked where the
            // diffusion will actually start.
            let internal = self.head.lineage().to_new(u);
            if head.degree(internal) <= 0.0 {
                return Err(format!("seed {u} has zero degree"));
            }
        }
        Ok(())
    }

    /// Admission control: bounded queue plus a token-bucket grant.
    ///
    /// The grant is the first (largest) share of
    /// `Budget::work(available).split_across(free_slots)` — splitting
    /// over the *free* queue slots keeps enough in reserve that a
    /// burst right behind this request is not automatically starved.
    /// Rejections are structural ([`Overloaded`]) and happen before
    /// any diffusion work is spent.
    pub fn submit(&mut self, query: Query) -> Admission {
        self.stats.submitted += 1;
        self.request_clock += 1;
        if let Err(detail) = self.validate(&query) {
            self.stats.rejected_invalid += 1;
            return Admission::Rejected(Overloaded {
                reason: RejectReason::InvalidQuery,
                detail,
            });
        }
        if self.queue.len() >= self.cfg.queue_cap {
            self.stats.rejected_queue_full += 1;
            return Admission::Rejected(Overloaded {
                reason: RejectReason::QueueFull,
                detail: format!("queue at capacity {}", self.cfg.queue_cap),
            });
        }
        let free = self.cfg.queue_cap - self.queue.len();
        let grant = Budget::work(self.available)
            .first_share(free)
            .map_or(0, |b| b.max_work);
        if grant < self.cfg.min_grant {
            self.stats.rejected_starved += 1;
            return Admission::Rejected(Overloaded {
                reason: RejectReason::BudgetStarved,
                detail: format!(
                    "{} work tokens available across {free} free slots",
                    self.available
                ),
            });
        }
        self.available -= grant;
        let id = self.next_id;
        self.next_id += 1;
        let deadline = query.deadline.or(self.cfg.default_deadline);
        self.trace.request_stage(id, "admitted");
        self.queue.push_back(Pending {
            id,
            query,
            grant,
            deadline,
            admitted_at: Instant::now(),
            // Pin the head: this request now runs against this exact
            // snapshot (and sketch store) end-to-end, whatever writers
            // publish later.
            snapshot: Arc::clone(&self.head),
            sketches: self.sketches.clone(),
        });
        self.stats.admitted += 1;
        Admission::Accepted {
            id,
            granted_work: grant,
        }
    }

    /// Pick the ladder rung for a queued request: the finest ε whose
    /// estimated cost fits the grant, coarsening ×10 per rung. Returns
    /// `None` when the deadline has already expired — such a request
    /// skips compute entirely and goes straight to the cached/seed-only
    /// fallback. If even the coarsest rung cannot fit, the coarsest is
    /// attempted anyway and the meter truncates it into a certified
    /// partial.
    fn choose_rung(&self, p: &Pending) -> Option<(f64, Budget)> {
        let remaining = match p.deadline {
            Some(d) => {
                let left = d.saturating_sub(p.admitted_at.elapsed());
                if left.is_zero() {
                    return None;
                }
                Some(left)
            }
            None => None,
        };
        let mut eps_used = p.query.epsilon;
        for k in 0..=self.cfg.ladder_rungs {
            eps_used = p.query.epsilon * 10f64.powi(k as i32);
            if est_cost(eps_used, p.query.alpha) <= p.grant {
                break;
            }
        }
        let mut budget = Budget::work(p.grant);
        if let Some(left) = remaining {
            budget = budget.with_deadline(left);
        }
        Some((eps_used, budget))
    }

    /// Execute everything queued: ladder selection, batching of
    /// compatible requests, retry supervision, fallback service.
    /// Returns exactly one certified [`Response`] per queued request,
    /// in admission order, and refills the token bucket for the next
    /// cycle.
    pub fn run_pending(&mut self) -> Vec<Response> {
        self.expire_answers();
        if self.queue.is_empty() {
            self.refill();
            return Vec::new();
        }
        // The queue's buffer is lent to this cycle and handed back
        // empty, so draining costs no allocation; nothing is admitted
        // while `run_pending` holds the engine.
        let mut pending = std::mem::take(&mut self.queue);
        let mut responses: Vec<Response> = Vec::with_capacity(pending.len());

        let mut computes: Vec<(Pending, f64, Budget)> = Vec::new();
        for p in pending.drain(..) {
            self.fire_staged(PublishPoint::BeforeCacheCheck, p.id);
            // Exact answer-cache hit: same seeds, α and ε as an earlier
            // Full answer, asked by a request pinned to the head —
            // served without compute (and without consulting the
            // deadline; a cache hit is free). Sits above the Stale
            // rung. Only a request pinned to the head probes, and an
            // entry behind the head is caught up to it first (or
            // dropped, and the request computes), so the pinned-epoch
            // check *is* the consistency protocol — a request pinned
            // before a write never probes, and a pre-mutation answer
            // can never surface here.
            let key = (p.epoch() == self.head.epoch())
                .then(|| answer_key(&p.query.seeds, p.query.alpha, p.query.epsilon));
            if let Some(key) = &key {
                let head = self.head.epoch();
                let caught_up =
                    self.answers
                        .catch_up(key, self.head.graph(), head, &mut self.trace);
                if let Some(outcome) = caught_up {
                    self.stats.tally(outcome);
                    self.trace.request_stage(p.id, outcome.stage());
                }
            }
            let hit = key.and_then(|key| self.answers.get(&key));
            if let Some(entry) = hit {
                // Copy what is served — not the residuals and seeds the
                // entry keeps for repair. The key matched the query's ε.
                let (vector, epsilon, certificate) =
                    (entry.vector.clone(), p.query.epsilon, entry.certificate);
                self.trace.request_stage(p.id, "cache_hit");
                let sweep = self.sweep_stage(&p, &vector);
                let cluster = externalize(&p.snapshot, vector);
                let r = self.respond(
                    p,
                    ResponseKind::Cached,
                    epsilon,
                    cluster,
                    certificate,
                    0,
                    sweep,
                    Diagnostics::new(),
                );
                responses.push(r);
                continue;
            }
            match self.choose_rung(&p) {
                Some((eps_used, budget)) => {
                    if eps_used > p.query.epsilon {
                        self.trace
                            .request_stage(p.id, format!("degraded:eps={eps_used:e}"));
                    }
                    computes.push((p, eps_used, budget));
                }
                None => {
                    self.trace.request_stage(p.id, "deadline_expired");
                    let r = self.fallback_response(p, Diagnostics::new());
                    responses.push(r);
                }
            }
        }
        self.queue = pending;

        // Coalesce compatible requests (same α, same ε rung, same
        // pinned epoch) into one parallel fan-out of attempt 0.
        // BTreeMap keys keep group order deterministic. Same epoch ⇒
        // same published snapshot, so the whole group shares one
        // pinned graph — including groups whose snapshot has since
        // been superseded: they batch and execute against their own
        // snapshot, exactly as if the writer had never published.
        let mut groups: BTreeMap<(u64, u64, u64), Vec<usize>> = BTreeMap::new();
        for (i, (p, eps, _)) in computes.iter().enumerate() {
            groups
                .entry((p.query.alpha.to_bits(), eps.to_bits(), p.epoch()))
                .or_default()
                .push(i);
        }
        let mut firsts: Vec<Option<SolverOutcome<PushResult>>> =
            (0..computes.len()).map(|_| None).collect();
        for idxs in groups.values() {
            for &i in idxs {
                self.fire_staged(PublishPoint::BeforeBatch, computes[i].0.id);
            }
            let snap = Arc::clone(&computes[idxs[0]].0.snapshot);
            let pinned_store = computes[idxs[0]].0.sketches.clone();
            let alpha = computes[idxs[0]].0.query.alpha;
            let eps = computes[idxs[0]].1;
            let set = Engine::splice_set(pinned_store.as_deref(), alpha, eps, snap.epoch());
            if set.is_some() {
                for &i in idxs {
                    self.trace.request_stage(computes[i].0.id, "splice");
                }
                self.stats.spliced += idxs.len() as u64;
            }
            // One supervised attempt per item (budgeted/guarded
            // context, fault hooks, the sketch splice and response
            // validation), each behind its own fence.
            let g = snap.graph();
            let chaos = self.cfg.chaos.as_ref();
            let outs = acir_exec::ExecPool::from_env().par_map(idxs, 1, |&i| {
                let (p, e, b) = &computes[i];
                let seeds = p.internal_seeds();
                supervised_attempt(g, chaos, set, p.id, &seeds, p.query.alpha, *e, b, 0)
            });
            for (&slot, out) in idxs.iter().zip(outs) {
                firsts[slot] = Some(out);
            }
        }

        for ((p, eps_used, budget), first) in computes.into_iter().zip(firsts) {
            self.fire_staged(PublishPoint::BeforeSupervise, p.id);
            let id = p.id;
            let r = self.supervise(p, eps_used, budget, first);
            responses.push(r);
            self.fire_staged(PublishPoint::AfterRespond, id);
        }

        self.refill();
        self.trim_trace();
        responses.sort_by_key(|r| r.id);
        responses
    }

    /// Drain the queue and return every outstanding response. The
    /// admitted-means-answered invariant holds through shutdown.
    pub fn shutdown(mut self) -> Vec<Response> {
        let responses = self.run_pending();
        debug_assert!(self.queue.is_empty());
        responses
    }

    fn refill(&mut self) {
        self.available = self
            .available
            .saturating_add(self.cfg.refill_per_cycle)
            .min(self.cfg.capacity);
    }

    /// Retry supervision for one request: the batched attempt 0 feeds a
    /// [`RetryPolicy`] loop (panics and NaNs arrive as `Diverged`),
    /// with exponential backoff between attempts and the whole trail
    /// carried into the surviving outcome. A request that exhausts its
    /// attempts falls through to the cached/seed-only rungs — it still
    /// gets a certified response.
    fn supervise(
        &mut self,
        p: Pending,
        eps_used: f64,
        budget: Budget,
        first: Option<SolverOutcome<PushResult>>,
    ) -> Response {
        let policy = RetryPolicy::attempts(self.cfg.max_attempts).with_backoff(self.cfg.backoff);
        let seeds_internal = p.internal_seeds();
        let out = {
            let g = p.snapshot.graph();
            let chaos = self.cfg.chaos.as_ref();
            let mut first = first;
            let run: Result<_, std::convert::Infallible> = policy.run(|k| {
                Ok(match first.take() {
                    Some(o) if k == 0 => o,
                    // Retries always take the raw push path against
                    // the pinned snapshot: a fault during a splice
                    // degrades to raw push before descending the
                    // ladder, and a writer publishing mid-retry never
                    // changes what this request sees.
                    _ => supervised_attempt(
                        g,
                        chaos,
                        None,
                        p.id,
                        &seeds_internal,
                        p.query.alpha,
                        eps_used,
                        &budget,
                        k,
                    ),
                })
            });
            match run {
                Ok(out) => out,
                Err(never) => match never {},
            }
        };

        let retries = out.diagnostics().restarts;
        self.stats.retries += retries as u64;
        let panics = out
            .diagnostics()
            .events
            .iter()
            .filter(|e| e.contains("worker panic:"))
            .count() as u64;
        self.stats.panics_caught += panics;
        self.stats.faults_detected += out.diagnostics().metrics.counter("faults_injected");

        match out {
            SolverOutcome::Converged { value, diagnostics } => {
                let certificate = Certificate::ResidualMass {
                    remaining: value.residual_mass,
                    per_degree_bound: eps_used,
                };
                let sweep = self.sweep_stage(&p, &value.vector);
                // Exact-repeat cache, keyed by the ε the answer
                // satisfies (== requested for Full responses), tagged
                // with the head epoch. The residual vector rides along
                // so a later catch-up can repair the entry instead of
                // purging it. Payloads are stored in head-internal
                // coordinates, so only answers computed against the
                // current head may enter — a response from a
                // superseded snapshot is still served in full, it just
                // isn't cached.
                if p.epoch() == self.head.epoch() {
                    let key = answer_key(&p.query.seeds, p.query.alpha, eps_used);
                    let seeds = if p.snapshot.is_relabeled() {
                        p.snapshot.lineage().map_nodes(&key.0)
                    } else {
                        key.0.clone()
                    };
                    self.cache_answer(
                        key,
                        AnswerEntry {
                            epoch: p.epoch(),
                            vector: value.vector.clone(),
                            certificate,
                            seeds,
                            residuals: value.residuals.clone(),
                            born: self.request_clock,
                        },
                    );
                }
                let external = externalize(&p.snapshot, value.vector);
                self.cache.insert(
                    cache_key(&p.query.seeds, p.query.alpha),
                    CacheEntry {
                        epoch: p.epoch(),
                        epsilon: eps_used,
                        vector: external.clone(),
                        certificate,
                    },
                    drop,
                );
                let kind = if eps_used > p.query.epsilon {
                    ResponseKind::Coarsened
                } else {
                    ResponseKind::Full
                };
                self.respond(
                    p,
                    kind,
                    eps_used,
                    external,
                    certificate,
                    retries,
                    sweep,
                    diagnostics,
                )
            }
            SolverOutcome::BudgetExhausted {
                best_so_far,
                certificate,
                diagnostics,
                ..
            } => {
                let sweep = self.sweep_stage(&p, &best_so_far.vector);
                let external = externalize(&p.snapshot, best_so_far.vector);
                self.respond(
                    p,
                    ResponseKind::Partial,
                    eps_used,
                    external,
                    certificate,
                    retries,
                    sweep,
                    diagnostics,
                )
            }
            SolverOutcome::Diverged { diagnostics, .. } => self.fallback_response(p, diagnostics),
        }
    }

    /// The bottom of the ladder: a cached earlier answer for the same
    /// seeds and α if one exists (served as `Stale`), otherwise the
    /// seed distribution itself with a trivial certificate — zero
    /// pushes, residual mass 1: the most regularized answer the engine
    /// can give, but still an answer, never an error.
    fn fallback_response(&mut self, p: Pending, mut diags: Diagnostics) -> Response {
        let retries = diags.restarts;
        if let Some(entry) = self.cache.get(&cache_key(&p.query.seeds, p.query.alpha)) {
            diags.note(format!(
                "serving cached answer (epoch {}, ε = {:e})",
                entry.epoch, entry.epsilon
            ));
            // The Stale rung always labels the answer with the epoch it
            // was certified against — a stale answer never masquerades
            // as a fresh bound.
            let (vector, certificate, epsilon) = (
                entry.vector.clone(),
                entry.certificate.staled(entry.epoch),
                entry.epsilon,
            );
            return self.respond(
                p,
                ResponseKind::Stale,
                epsilon,
                vector,
                certificate,
                retries,
                None,
                diags,
            );
        }
        diags.note("seed-only fallback: serving the seed distribution");
        let mut mass: BTreeMap<NodeId, f64> = BTreeMap::new();
        let share = 1.0 / p.query.seeds.len() as f64;
        for &u in &p.query.seeds {
            *mass.entry(u).or_insert(0.0) += share;
        }
        let vector: Vec<(NodeId, f64)> = mass.into_iter().collect();
        let certificate = Certificate::ResidualMass {
            remaining: 1.0,
            per_degree_bound: 1.0,
        };
        let epsilon = p.query.epsilon;
        self.respond(
            p,
            ResponseKind::SeedOnly,
            epsilon,
            vector,
            certificate,
            retries,
            None,
            diags,
        )
    }

    /// Optional sweep-cut stage: when the query opted in, run
    /// [`sweep_cut_sparse`] over the support of the diffusion vector
    /// (in the pinned snapshot's internal id space) and map the
    /// best-conductance set back to external ids through the
    /// snapshot's lineage.
    fn sweep_stage(&mut self, p: &Pending, vector: &[(NodeId, f64)]) -> Option<SweepCut> {
        if !p.query.options.sweep || vector.is_empty() {
            return None;
        }
        let sr = sweep_cut_sparse(p.snapshot.graph(), vector);
        if sr.set.is_empty() {
            return None;
        }
        let set = if p.snapshot.is_relabeled() {
            p.snapshot.lineage().unmap_nodes(&sr.set)
        } else {
            sr.set
        };
        self.trace.request_stage(p.id, "sweep");
        Some(SweepCut {
            set,
            conductance: sr.conductance,
        })
    }

    #[allow(clippy::too_many_arguments)]
    fn respond(
        &mut self,
        p: Pending,
        kind: ResponseKind,
        epsilon_used: f64,
        cluster: Vec<(NodeId, f64)>,
        certificate: Certificate,
        retries: usize,
        sweep: Option<SweepCut>,
        mut diagnostics: Diagnostics,
    ) -> Response {
        // Best-effort refund of unspent work tokens (counters reflect
        // the surviving attempt).
        let used = diagnostics.work;
        self.available = self
            .available
            .saturating_add(p.grant.saturating_sub(used))
            .min(self.cfg.capacity);
        diagnostics.certificate_issued(&certificate);
        diagnostics.request_stage(p.id, format!("responded:{}", kind.name()));
        self.trace.certificate_issued(&certificate);
        self.trace
            .request_stage(p.id, format!("responded:{}", kind.name()));
        match kind {
            ResponseKind::Full => self.stats.full += 1,
            ResponseKind::Cached => self.stats.cached += 1,
            ResponseKind::Coarsened => self.stats.coarsened += 1,
            ResponseKind::Partial => self.stats.partial += 1,
            ResponseKind::Stale => self.stats.stale += 1,
            ResponseKind::SeedOnly => self.stats.seed_only += 1,
        }
        self.stats.responded += 1;
        Response {
            id: p.id,
            kind,
            epsilon_requested: p.query.epsilon,
            epsilon_used,
            cluster,
            certificate,
            retries,
            latency: p.admitted_at.elapsed(),
            sweep,
            diagnostics,
        }
    }
}

/// Translate an edge op's endpoints from external (root) ids into the
/// snapshot's internal labeling. Endpoints outside the vertex range
/// are passed through unchanged so the delta overlay rejects them
/// with its own error message.
fn internalize_op(snap: &GraphSnapshot, op: &EdgeOp) -> EdgeOp {
    if !snap.is_relabeled() {
        return *op;
    }
    let n = snap.graph().n();
    let m = |x: NodeId| {
        if (x as usize) < n {
            snap.lineage().to_new(x)
        } else {
            x
        }
    };
    match *op {
        EdgeOp::Insert { u, v, weight } => EdgeOp::Insert {
            u: m(u),
            v: m(v),
            weight,
        },
        EdgeOp::Delete { u, v } => EdgeOp::Delete { u: m(u), v: m(v) },
    }
}

/// Map a sparse vector from a snapshot's internal id space back to
/// external (root) ids. Identity lineage is a free pass-through, so
/// never-compacted graphs keep responses bit-identical to the
/// pre-snapshot engine.
fn externalize(snap: &GraphSnapshot, v: Vec<(NodeId, f64)>) -> Vec<(NodeId, f64)> {
    if snap.is_relabeled() {
        snap.lineage().unmap_sparse(&v)
    } else {
        v
    }
}

/// One supervised attempt: chaos hooks, the budgeted/guarded push, NaN
/// injection, and response validation — all behind a panic fence, so
/// the only ways out are a [`SolverOutcome`] or a caught panic turned
/// into `Diverged` with the cause in the event trail.
#[allow(clippy::too_many_arguments)]
fn supervised_attempt(
    g: &Graph,
    chaos: Option<&ChaosConfig>,
    sketches: Option<&SketchSet>,
    id: u64,
    seeds: &[NodeId],
    alpha: f64,
    epsilon: f64,
    budget: &Budget,
    attempt: usize,
) -> SolverOutcome<PushResult> {
    let fenced = acir_exec::panic_fence(|| {
        if let Some(c) = chaos {
            if c.panics(id, attempt) {
                panic!("chaos: injected worker panic (request {id}, attempt {attempt})");
            }
        }
        let mut ctx = KernelCtx::budgeted("serve.query", budget)
            .with_guard(GuardConfig::contamination_only());
        match sketches {
            Some(set) => ppr_push_spliced_ctx(g, seeds, alpha, epsilon, set, &mut ctx)
                .map(|o| o.map(PushResult::from)),
            None => ppr_push_ctx(g, seeds, alpha, epsilon, &mut ctx),
        }
    });
    let mut out = match fenced {
        Ok(Ok(out)) => out,
        Ok(Err(err)) => {
            let mut diags = Diagnostics::new();
            diags.note(format!("query error: {err}"));
            return SolverOutcome::diverged(
                DivergenceCause::Breakdown {
                    at_iter: 0,
                    what: "query returned an error",
                },
                diags,
            );
        }
        Err(panic_msg) => {
            let mut diags = Diagnostics::new();
            diags.note(format!("worker panic: {panic_msg}"));
            return SolverOutcome::diverged(
                DivergenceCause::Breakdown {
                    at_iter: 0,
                    what: "worker panicked",
                },
                diags,
            );
        }
    };
    // Injected result corruption: physically poison one entry, then
    // let the shared validation below catch it — the same path that
    // catches a real NaN slipping past the kernel guard.
    if chaos.is_some_and(|c| c.corrupts(id, attempt)) {
        out = match out {
            SolverOutcome::Converged {
                mut value,
                diagnostics,
            } => {
                poison(&mut value);
                SolverOutcome::Converged { value, diagnostics }
            }
            SolverOutcome::BudgetExhausted {
                mut best_so_far,
                exhausted,
                certificate,
                diagnostics,
            } => {
                poison(&mut best_so_far);
                SolverOutcome::BudgetExhausted {
                    best_so_far,
                    exhausted,
                    certificate,
                    diagnostics,
                }
            }
            d => d,
        };
        out.diagnostics_mut().fault_injected("nan", 1);
    }
    // Response validation: a non-finite value must never reach a
    // client; it becomes a structured divergence the supervisor
    // retries.
    if let Some(v) = out.value() {
        if v.vector.iter().any(|&(_, x)| !x.is_finite()) {
            let mut diags = out.diagnostics().clone();
            diags.note("non-finite value detected while validating the computed cluster");
            return SolverOutcome::diverged(
                DivergenceCause::NonFiniteIterate { at_iter: 0 },
                diags,
            );
        }
    }
    out
}

fn poison(r: &mut PushResult) {
    if let Some(slot) = r.vector.first_mut() {
        slot.1 = f64::NAN;
    } else {
        r.vector.push((0, f64::NAN));
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use acir_graph::gen::deterministic::{barbell, cycle};

    fn quiet<T>(f: impl FnOnce() -> T) -> T {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let r = f();
        std::panic::set_hook(prev);
        r
    }

    // ε chosen so the worst-case cost (~4e3) fits the default per-slot
    // grant (1M / 64 slots) and converges at the top rung.
    fn query(seeds: &[NodeId]) -> Query {
        Query {
            seeds: seeds.to_vec(),
            alpha: 0.1,
            epsilon: 1e-2,
            deadline: None,
            options: QueryOptions::default(),
        }
    }

    #[test]
    fn admission_sheds_load_at_every_gate() {
        let g = barbell(6, 2).unwrap();
        let cfg = EngineConfig {
            queue_cap: 2,
            capacity: 100_000,
            min_grant: 64,
            ..EngineConfig::default()
        };
        let mut e = Engine::new(g, cfg);
        // Malformed queries are a structural rejection.
        let bad = e.submit(Query {
            alpha: 1.5,
            ..query(&[0])
        });
        assert!(matches!(
            bad,
            Admission::Rejected(Overloaded {
                reason: RejectReason::InvalidQuery,
                ..
            })
        ));
        assert!(!e.submit(query(&[999])).is_accepted());
        // Fill the bounded queue.
        assert!(e.submit(query(&[0])).is_accepted());
        assert!(e.submit(query(&[1])).is_accepted());
        let full = e.submit(query(&[2]));
        assert!(matches!(
            full,
            Admission::Rejected(Overloaded {
                reason: RejectReason::QueueFull,
                ..
            })
        ));
        assert_eq!(e.stats().admitted, 2);
        assert_eq!(e.stats().rejected_queue_full, 1);
        assert_eq!(e.stats().rejected_invalid, 2);

        // Budget starvation: 100 tokens across 4 free slots is a
        // 25-token share, below min_grant — rejected before any work.
        let g2 = barbell(6, 2).unwrap();
        let mut starved = Engine::new(
            g2,
            EngineConfig {
                queue_cap: 4,
                capacity: 100,
                refill_per_cycle: 0,
                min_grant: 64,
                ..EngineConfig::default()
            },
        );
        let a = starved.submit(query(&[1]));
        assert!(matches!(
            a,
            Admission::Rejected(Overloaded {
                reason: RejectReason::BudgetStarved,
                ..
            })
        ));
    }

    #[test]
    fn batched_responses_bit_identical_to_solo_path() {
        let g = barbell(8, 3).unwrap();
        let cfg = EngineConfig {
            queue_cap: 8,
            capacity: 1_000_000,
            ..EngineConfig::default()
        };
        let before = std::env::var_os(acir_exec::THREADS_ENV);
        for threads in ["1", "4"] {
            std::env::set_var(acir_exec::THREADS_ENV, threads);
            let mut e = Engine::new(g.clone(), cfg.clone());
            let seeds: Vec<Vec<NodeId>> = vec![vec![0], vec![7, 9], vec![3]];
            let grants: Vec<u64> = seeds
                .iter()
                .map(|s| match e.submit(query(s)) {
                    Admission::Accepted { granted_work, .. } => granted_work,
                    r => panic!("not admitted: {r:?}"),
                })
                .collect();
            let responses = e.run_pending();
            assert_eq!(responses.len(), 3);
            for ((r, s), grant) in responses.iter().zip(&seeds).zip(&grants) {
                assert_eq!(r.kind, ResponseKind::Full, "at {threads} threads");
                let mut ctx = KernelCtx::budgeted("serve.query", &Budget::work(*grant))
                    .with_guard(GuardConfig::contamination_only());
                let solo = ppr_push_ctx(&g, s, 0.1, 1e-2, &mut ctx).unwrap();
                let want = &solo.value().unwrap().vector;
                assert_eq!(&r.cluster, want, "at {threads} threads");
                match r.certificate {
                    Certificate::ResidualMass { remaining, .. } => assert_eq!(
                        remaining.to_bits(),
                        solo.value().unwrap().residual_mass.to_bits()
                    ),
                    c => panic!("wrong certificate {c:?}"),
                }
            }
        }
        match before {
            Some(v) => std::env::set_var(acir_exec::THREADS_ENV, v),
            None => std::env::remove_var(acir_exec::THREADS_ENV),
        }
    }

    #[test]
    fn ladder_degrades_instead_of_erroring_under_tiny_grants() {
        let g = barbell(10, 4).unwrap();
        let cfg = EngineConfig {
            queue_cap: 1,
            capacity: 600,
            min_grant: 1,
            ladder_rungs: 2,
            ..EngineConfig::default()
        };
        let mut e = Engine::new(g, cfg);
        // Requested ε = 1e-5 needs ~4e6 work; even the coarsest rung
        // (1e-3 → ~4e4) exceeds the 600-token grant.
        let q = Query {
            epsilon: 1e-5,
            ..query(&[0])
        };
        assert!(e.submit(q).is_accepted());
        let rs = e.run_pending();
        assert_eq!(rs.len(), 1);
        let r = &rs[0];
        assert!(r.kind.is_degraded(), "kind {:?}", r.kind);
        assert!(r.epsilon_used >= r.epsilon_requested);
        assert!(matches!(r.certificate, Certificate::ResidualMass { .. }));
        assert_eq!(e.stats().responded, 1);
        assert_eq!(e.stats().degraded(), 1);
    }

    #[test]
    fn expired_deadline_serves_fallback_then_stale_cache() {
        let g = barbell(6, 2).unwrap();
        let mut e = Engine::new(
            g,
            EngineConfig {
                queue_cap: 4,
                ..EngineConfig::default()
            },
        );
        // Cold cache + already-expired deadline → seed-only.
        let dead = Query {
            deadline: Some(Duration::ZERO),
            ..query(&[0, 0, 3])
        };
        assert!(e.submit(dead.clone()).is_accepted());
        let rs = e.run_pending();
        assert_eq!(rs[0].kind, ResponseKind::SeedOnly);
        // Duplicate seeds aggregate; the distribution sums to 1.
        let total: f64 = rs[0].cluster.iter().map(|&(_, x)| x).sum();
        assert!((total - 1.0).abs() < 1e-12);
        match rs[0].certificate {
            Certificate::ResidualMass { remaining, .. } => assert_eq!(remaining, 1.0),
            c => panic!("wrong certificate {c:?}"),
        }
        // Warm the cache with the same seeds. An exact repeat — even a
        // dead one — is now an answer-cache hit: Cached, not degraded.
        assert!(e.submit(query(&[0, 0, 3])).is_accepted());
        assert_eq!(e.run_pending()[0].kind, ResponseKind::Full);
        assert!(e.submit(dead.clone()).is_accepted());
        let rs = e.run_pending();
        assert_eq!(rs[0].kind, ResponseKind::Cached);
        assert!(!rs[0].kind.is_degraded());
        // A graph swap invalidates the answer cache; the (seeds, α)
        // stale cache survives the swap but labels its answer with the
        // epoch it was certified against.
        e.update_graph(barbell(6, 2).unwrap());
        assert!(e.submit(dead).is_accepted());
        let rs = e.run_pending();
        assert_eq!(rs[0].kind, ResponseKind::Stale);
        match rs[0].certificate {
            Certificate::StaleResidualMass { epoch, .. } => assert_eq!(epoch, 0),
            c => panic!("wrong certificate {c:?}"),
        }
        assert_eq!(e.stats().seed_only, 1);
        assert_eq!(e.stats().cached, 1);
        assert_eq!(e.stats().stale, 1);
    }

    #[test]
    fn stale_cache_is_bounded_and_evicts_oldest_first() {
        // A request whose deadline has already passed skips compute and
        // lands on the fallback rungs: `Stale` if the key is cached.
        fn probe(e: &mut Engine, u: NodeId) -> Response {
            let dead = Query {
                deadline: Some(Duration::ZERO),
                ..query(&[u])
            };
            assert!(e.submit(dead).is_accepted());
            e.run_pending().remove(0)
        }
        let n = STALE_CACHE_CAP + 8;
        let mut e = Engine::new(
            cycle(n).unwrap(),
            EngineConfig {
                answer_cache_cap: 0,
                ..EngineConfig::default()
            },
        );
        for u in 0..n as NodeId {
            assert!(e.submit(query(&[u])).is_accepted());
            if e.pending() == 64 || u as usize == n - 1 {
                assert!(e.run_pending().iter().all(|r| r.kind == ResponseKind::Full));
                assert!(e.cache.len() <= STALE_CACHE_CAP);
            }
        }
        assert_eq!(e.cache.len(), STALE_CACHE_CAP);
        // Overwriting a key neither grows the cache nor renews its turn.
        assert!(e.submit(query(&[8])).is_accepted());
        assert_eq!(e.run_pending()[0].kind, ResponseKind::Full);
        assert_eq!(e.cache.len(), STALE_CACHE_CAP);

        // The eight oldest keys are gone; the window starts at seed 8,
        // and what it serves is labeled with the epoch it was certified in.
        e.update_graph(cycle(n).unwrap());
        for u in [0, 7] {
            assert_eq!(probe(&mut e, u).kind, ResponseKind::SeedOnly);
        }
        for u in [8, 9, n as NodeId - 1] {
            let r = probe(&mut e, u);
            assert_eq!(r.kind, ResponseKind::Stale);
            match r.certificate {
                Certificate::StaleResidualMass { epoch, .. } => assert_eq!(epoch, 0),
                c => panic!("wrong certificate {c:?}"),
            }
        }
        // One more distinct key evicts seed 8, overwritten or not.
        assert!(e.submit(query(&[0])).is_accepted());
        assert_eq!(e.run_pending()[0].kind, ResponseKind::Full);
        assert_eq!(e.cache.len(), STALE_CACHE_CAP);
        assert_eq!(probe(&mut e, 8).kind, ResponseKind::SeedOnly);
        assert_eq!(probe(&mut e, 9).kind, ResponseKind::Stale);
    }

    #[test]
    fn engine_trail_is_bounded_and_counts_what_it_drops() {
        let mut e = Engine::new(barbell(6, 2).unwrap(), EngineConfig::default());
        assert!(e.submit(query(&[0])).is_accepted());
        assert_eq!(e.run_pending()[0].kind, ResponseKind::Full);
        // span_enter + (admitted, certificate, responded) so far; every
        // exact repeat adds (admitted, cache_hit, certificate, responded).
        let mut recorded = 4u64;
        assert_eq!(e.trace().trace.len() as u64, recorded);
        let mut last_id = 0;
        while e.stats().trace_events_dropped == 0 {
            for _ in 0..64 {
                last_id = e.submit(query(&[0])).id().unwrap();
            }
            assert!(e
                .run_pending()
                .iter()
                .all(|r| r.kind == ResponseKind::Cached));
            recorded += 4 * 64;
            assert!(e.trace().trace.len() < 2 * TRACE_CAP);
            assert!(recorded < 4 * TRACE_CAP as u64, "the trail never trimmed");
        }
        // Trimmed to exactly the newest TRACE_CAP, nothing lost uncounted.
        assert_eq!(e.trace().trace.len(), TRACE_CAP);
        assert_eq!(e.trace().events.len(), TRACE_CAP);
        assert_eq!(e.stats().trace_events_dropped, recorded - TRACE_CAP as u64);
        assert_eq!(
            e.trace().events.last().unwrap(),
            &format!("request {last_id}: responded:cached")
        );
        // Its root span is still open: trimming drops events, not spans.
        assert_eq!(e.trace().trace.open_spans(), ["serve.engine"]);
    }

    #[test]
    fn answer_cache_serves_exact_repeats_bit_identically() {
        let g = barbell(6, 2).unwrap();
        let mut e = Engine::new(g, EngineConfig::default());
        assert!(e.submit(query(&[0, 3])).is_accepted());
        let first = e.run_pending().remove(0);
        assert_eq!(first.kind, ResponseKind::Full);
        assert_eq!(e.answer_cache_len(), 1);
        // Exact repeat (seed order and duplicates don't matter): served
        // from the answer cache, bit-identical, zero work spent.
        assert!(e.submit(query(&[3, 0, 0])).is_accepted());
        let again = e.run_pending().remove(0);
        assert_eq!(again.kind, ResponseKind::Cached);
        assert!(!again.kind.is_degraded());
        assert_eq!(again.cluster, first.cluster);
        assert_eq!(again.certificate, first.certificate);
        assert_eq!(e.stats().cached, 1);
        // A different ε is a different answer — cache miss.
        assert!(e
            .submit(Query {
                epsilon: 5e-3,
                ..query(&[0, 3])
            })
            .is_accepted());
        assert_eq!(e.run_pending()[0].kind, ResponseKind::Full);
        assert_eq!(e.stats().cached, 1);
        assert_eq!(e.answer_cache_len(), 2);
    }

    #[test]
    fn epoch_bump_invalidates_answers_and_rebuilds_sketches() {
        let g = barbell(6, 2).unwrap();
        let mut e = Engine::new(
            g,
            EngineConfig {
                sketch_hubs: 4,
                ..EngineConfig::default()
            },
        );
        let store = e.sketch_store().expect("sketches configured");
        assert_eq!(store.epoch(), 0);
        assert_eq!(store.len(), 4);
        assert!(e.submit(query(&[0])).is_accepted());
        assert_eq!(e.run_pending()[0].kind, ResponseKind::Full);
        assert_eq!(e.answer_cache_len(), 1);
        // The swap purges every pre-mutation answer and restamps the
        // sketches; the repeat recomputes (Full, current-epoch
        // certificate), never serving the old answer as fresh.
        e.update_graph(barbell(6, 2).unwrap());
        assert_eq!(e.answer_cache_len(), 0);
        assert_eq!(e.sketch_store().unwrap().epoch(), 1);
        assert!(e.submit(query(&[0])).is_accepted());
        let r = e.run_pending().remove(0);
        assert_eq!(r.kind, ResponseKind::Full);
        assert!(matches!(r.certificate, Certificate::ResidualMass { .. }));
        assert_eq!(e.stats().cached, 0);
    }

    #[test]
    fn spliced_first_attempt_matches_direct_push_within_bound() {
        let g = barbell(6, 2).unwrap();
        let direct = acir_local::ppr_push(&g, &[0], 0.1, 1e-2).unwrap();
        let mut e = Engine::new(
            g.clone(),
            EngineConfig {
                sketch_hubs: 3,
                ..EngineConfig::default()
            },
        );
        assert!(e.submit(query(&[0])).is_accepted());
        let r = e.run_pending().remove(0);
        assert_eq!(r.kind, ResponseKind::Full);
        assert_eq!(e.stats().spliced, 1);
        match r.certificate {
            Certificate::ResidualMass {
                per_degree_bound, ..
            } => assert!(per_degree_bound <= 1e-2),
            c => panic!("wrong certificate {c:?}"),
        }
        // Both answers are within ε·deg of the exact PPR vector, so
        // they are within 2ε·deg of each other.
        let spliced: std::collections::HashMap<NodeId, f64> = r.cluster.into_iter().collect();
        let exact: std::collections::HashMap<NodeId, f64> = direct.vector.iter().copied().collect();
        for u in 0..g.n() as NodeId {
            let d = g.degree(u) as f64;
            let a = spliced.get(&u).copied().unwrap_or(0.0);
            let b = exact.get(&u).copied().unwrap_or(0.0);
            assert!(
                (a - b).abs() <= 2.0 * 1e-2 * d + 1e-12,
                "node {u}: spliced {a} vs direct {b}"
            );
        }
    }

    #[test]
    fn injected_panic_is_retried_to_success() {
        quiet(|| {
            let g = barbell(6, 2).unwrap();
            let mut chaos = ChaosConfig::default();
            chaos.forced_panics.insert((0, 0));
            let mut e = Engine::new(
                g,
                EngineConfig {
                    chaos: Some(chaos),
                    max_attempts: 3,
                    ..EngineConfig::default()
                },
            );
            assert!(e.submit(query(&[0])).is_accepted());
            let rs = e.run_pending();
            assert_eq!(rs[0].kind, ResponseKind::Full);
            assert_eq!(rs[0].retries, 1);
            assert!(rs[0]
                .diagnostics
                .events
                .iter()
                .any(|ev| ev.contains("worker panic:")));
            assert_eq!(e.stats().panics_caught, 1);
            assert_eq!(e.stats().retries, 1);
        });
    }

    #[test]
    fn persistent_panics_exhaust_retries_into_certified_fallback() {
        quiet(|| {
            let g = barbell(6, 2).unwrap();
            let mut chaos = ChaosConfig::default();
            for attempt in 0..3 {
                chaos.forced_panics.insert((0, attempt));
            }
            let mut e = Engine::new(
                g,
                EngineConfig {
                    chaos: Some(chaos),
                    max_attempts: 3,
                    ..EngineConfig::default()
                },
            );
            assert!(e.submit(query(&[0])).is_accepted());
            let rs = e.run_pending();
            assert_eq!(rs.len(), 1);
            assert_eq!(rs[0].kind, ResponseKind::SeedOnly);
            assert!(matches!(
                rs[0].certificate,
                Certificate::ResidualMass { remaining, .. } if remaining == 1.0
            ));
            assert_eq!(rs[0].retries, 2);
            assert_eq!(e.stats().panics_caught, 3);
        });
    }

    #[test]
    fn nan_injection_is_detected_and_retried() {
        let g = barbell(6, 2).unwrap();
        let mut chaos = ChaosConfig::default();
        chaos.forced_nans.insert((0, 0));
        let mut e = Engine::new(
            g.clone(),
            EngineConfig {
                chaos: Some(chaos),
                ..EngineConfig::default()
            },
        );
        assert!(e.submit(query(&[0])).is_accepted());
        let rs = e.run_pending();
        assert_eq!(rs[0].kind, ResponseKind::Full);
        assert_eq!(rs[0].retries, 1);
        assert!(e.stats().faults_detected >= 1);
        // The served cluster is clean — and identical to an unfaulted
        // engine's answer.
        assert!(rs[0].cluster.iter().all(|&(_, x)| x.is_finite()));
        let mut clean = Engine::new(g, EngineConfig::default());
        assert!(clean.submit(query(&[0])).is_accepted());
        assert_eq!(clean.run_pending()[0].cluster, rs[0].cluster);
    }

    #[test]
    fn every_admitted_request_gets_exactly_one_response() {
        quiet(|| {
            let g = cycle(40).unwrap();
            let mut e = Engine::new(
                g,
                EngineConfig {
                    queue_cap: 8,
                    capacity: 20_000,
                    refill_per_cycle: 20_000,
                    min_grant: 16,
                    chaos: Some(ChaosConfig::with_rates(13, 0.3, 0.3)),
                    ..EngineConfig::default()
                },
            );
            let mut admitted = Vec::new();
            let mut answered = Vec::new();
            for wave in 0..4u32 {
                for i in 0..12u32 {
                    let q = query(&[((wave * 12 + i) % 40)]);
                    if let Admission::Accepted { id, .. } = e.submit(q) {
                        admitted.push(id);
                    }
                }
                for r in e.run_pending() {
                    answered.push(r.id);
                    assert!(matches!(r.certificate, Certificate::ResidualMass { .. }));
                }
            }
            answered.extend(e.shutdown().into_iter().map(|r| r.id));
            answered.sort_unstable();
            admitted.sort_unstable();
            assert_eq!(answered, admitted);
        });
    }

    #[test]
    fn unused_tokens_are_refunded() {
        let g = barbell(6, 2).unwrap();
        let cap = 100_000;
        let mut e = Engine::new(
            g,
            EngineConfig {
                queue_cap: 4,
                capacity: cap,
                refill_per_cycle: 0,
                ..EngineConfig::default()
            },
        );
        let grant = match e.submit(query(&[0])) {
            Admission::Accepted { granted_work, .. } => granted_work,
            r => panic!("not admitted: {r:?}"),
        };
        assert_eq!(e.available_tokens(), cap - grant);
        let rs = e.run_pending();
        let used = rs[0].diagnostics.work;
        assert!(used > 0 && used < grant);
        assert_eq!(e.available_tokens(), cap - used);
    }

    #[test]
    fn answer_ttl_expires_entries_in_fifo_order() {
        let g = barbell(8, 2).unwrap();
        let mut e = Engine::new(
            g,
            EngineConfig {
                answer_ttl: 3,
                ..EngineConfig::default()
            },
        );
        // Three answers cached at clocks 1, 2, 3 (one submit each).
        for s in [0u32, 1, 2] {
            assert!(e.submit(query(&[s])).is_accepted());
            assert_eq!(e.run_pending()[0].kind, ResponseKind::Full);
        }
        assert_eq!(e.answer_cache_len(), 3);
        // Clock 4: entry born at 1 is exactly ttl old — still alive.
        assert!(e.submit(query(&[0])).is_accepted());
        assert_eq!(e.run_pending()[0].kind, ResponseKind::Cached);
        // Clock 5: the oldest entry (seed 0, born 1) crosses the TTL
        // and expires; the younger two survive. FIFO order is pinned:
        // seed 0 goes first, never seed 1 or 2.
        assert!(e.submit(query(&[3])).is_accepted());
        assert_eq!(e.run_pending()[0].kind, ResponseKind::Full);
        assert_eq!(e.answer_cache_len(), 3); // 1, 2, and the new 3
        assert!(e.submit(query(&[0])).is_accepted());
        // Recomputed, not cached: its entry expired.
        assert_eq!(e.run_pending()[0].kind, ResponseKind::Full);
        // Seed 2 (born 3, clock now 7) is also gone; seed 3 (born 5)
        // survives.
        assert!(e.submit(query(&[3])).is_accepted());
        assert_eq!(e.run_pending()[0].kind, ResponseKind::Cached);
    }

    #[test]
    fn delta_repairs_answers_and_sketches_instead_of_purging() {
        let g = barbell(8, 3).unwrap();
        let mut e = Engine::new(
            g,
            EngineConfig {
                sketch_hubs: 0, // raw-push answers carry residuals
                ..EngineConfig::default()
            },
        );
        assert!(e.submit(query(&[0])).is_accepted());
        let before = e.run_pending().remove(0);
        assert_eq!(before.kind, ResponseKind::Full);
        assert_eq!(e.answer_cache_len(), 1);

        // Reweight an edge inside clique B — far from seed 0.
        let ops = [EdgeOp::Insert {
            u: 12,
            v: 13,
            weight: 2.0,
        }];
        let s = e.update_graph_delta(&ops).unwrap();
        assert_eq!(s.epoch, 1);
        assert_eq!(e.epoch(), 1);
        assert_eq!(s.edges, 1);
        // The write itself visits no cached answer.
        assert_eq!(
            (s.answers_revalidated, s.answers_repaired, s.answers_dropped),
            (0, 0, 0)
        );
        // The entry survived the delta and is caught up to the head by
        // the probe: an exact repeat is a cache hit, not a recompute.
        assert_eq!(e.answer_cache_len(), 1);
        let before_probe = e.stats().clone();
        assert!(e.submit(query(&[0])).is_accepted());
        let after = e.run_pending().remove(0);
        assert_eq!(after.kind, ResponseKind::Cached);
        let st = e.stats();
        assert_eq!(
            st.answers_revalidated + st.answers_repaired
                - before_probe.answers_revalidated
                - before_probe.answers_repaired,
            1
        );
        assert_eq!(st.answers_dropped, before_probe.answers_dropped);
        // The repaired answer satisfies the requested ε on the *new*
        // graph: compare to a fresh push.
        let fresh = acir_local::ppr_push(e.graph(), &[0], 0.1, 1e-2).unwrap();
        let got: std::collections::HashMap<NodeId, f64> = after.cluster.into_iter().collect();
        let want: std::collections::HashMap<NodeId, f64> = fresh.vector.into_iter().collect();
        for u in 0..e.graph().n() as NodeId {
            let d = e.graph().degree(u);
            let a = got.get(&u).copied().unwrap_or(0.0);
            let b = want.get(&u).copied().unwrap_or(0.0);
            assert!(
                (a - b).abs() <= 2.0 * 1e-2 * d + 1e-12,
                "node {u}: repaired {a} vs fresh {b}"
            );
        }
    }

    /// A catch-up one write behind is the eager repair the write used
    /// to run, bit for bit: the predicate on the head graph, then — for
    /// a disturbed entry only — `ppr_repair` against the write's net
    /// delta, its state and measured certificate adopted.
    #[test]
    fn a_catch_up_one_write_behind_is_the_eager_repair_bit_for_bit() {
        let g = barbell(8, 3).unwrap();
        let mut e = Engine::new(g.clone(), EngineConfig::default());
        let seeds: [NodeId; 3] = [0, 9, 18];
        for s in seeds {
            assert!(e.submit(query(&[s])).is_accepted());
            assert_eq!(e.run_pending()[0].kind, ResponseKind::Full);
        }
        let key = |s: NodeId| answer_key(&[s], 0.1, 1e-2);
        let priors: Vec<AnswerEntry> = seeds
            .iter()
            .map(|&s| e.answers.get(&key(s)).unwrap().clone())
            .collect();
        let ops = [EdgeOp::Insert {
            u: 0,
            v: 1,
            weight: 2.0,
        }];
        let delta = {
            let mut dg = DeltaGraph::new(&g);
            dg.apply(&ops[0]).unwrap();
            dg.net_delta()
        };
        e.update_graph_delta(&ops).unwrap();
        // The write left every entry as it was, at the old epoch.
        for (s, prior) in seeds.iter().zip(&priors) {
            let entry = e.answers.get(&key(*s)).unwrap();
            assert_eq!((entry.epoch, &entry.vector), (0, &prior.vector));
        }

        let bits = |v: &[(NodeId, f64)]| -> Vec<(NodeId, u64)> {
            v.iter().map(|&(u, x)| (u, x.to_bits())).collect()
        };
        let bound = |c: &Certificate| match *c {
            Certificate::ResidualMass {
                remaining,
                per_degree_bound,
            } => (remaining.to_bits(), per_degree_bound.to_bits()),
            _ => panic!("not a residual-mass certificate"),
        };
        let endpoints = delta_endpoints(&delta);
        let mut verdicts = (0, 0);
        for (s, prior) in seeds.iter().zip(&priors) {
            let mut want = prior.clone();
            match delta_leaves_undisturbed(
                e.graph(),
                &prior.vector,
                &prior.residuals,
                &endpoints,
                1e-2,
            ) {
                Some(endpoint_bound) => {
                    verdicts.0 += 1;
                    if let Certificate::ResidualMass {
                        per_degree_bound, ..
                    } = &mut want.certificate
                    {
                        *per_degree_bound = per_degree_bound.max(endpoint_bound);
                    }
                }
                None => {
                    verdicts.1 += 1;
                    let rr = ppr_repair(
                        e.graph(),
                        &RepairRequest {
                            seeds: &prior.seeds,
                            estimate: &prior.vector,
                            residual: &prior.residuals,
                            delta: &delta,
                            alpha: 0.1,
                            epsilon: 1e-2,
                            mass_threshold: DEFAULT_REPAIR_MASS_THRESHOLD,
                        },
                    )
                    .unwrap();
                    want.adopt(rr, 1e-2, &mut Diagnostics::new());
                }
            }
            assert!(e.submit(query(&[*s])).is_accepted());
            assert_eq!(e.run_pending()[0].kind, ResponseKind::Cached);
            let got = e.answers.get(&key(*s)).unwrap();
            assert_eq!(got.epoch, 1);
            assert_eq!(bits(&got.vector), bits(&want.vector), "seed {s}");
            assert_eq!(bits(&got.residuals), bits(&want.residuals), "seed {s}");
            assert_eq!(
                bound(&got.certificate),
                bound(&want.certificate),
                "seed {s}"
            );
        }
        assert!(verdicts.0 > 0 && verdicts.1 > 0, "verdicts {verdicts:?}");
    }

    /// The write log holds exactly the writes some live entry has not
    /// caught up with, and its per-epoch counts track every way an
    /// entry comes and goes: insert, overwrite, FIFO eviction, catch-up,
    /// compaction and root swap.
    #[test]
    fn the_write_log_keeps_only_what_a_live_entry_still_needs() {
        let g = barbell(8, 3).unwrap();
        let mut e = Engine::new(
            g,
            EngineConfig {
                answer_cache_cap: 3,
                ..EngineConfig::default()
            },
        );
        let logged = |e: &Engine| -> Vec<u64> {
            let log = &e.answers.log;
            assert_eq!(log.live.iter().sum::<usize>(), e.answer_cache_len());
            log.records.iter().map(|r| r.0).collect()
        };
        let ask = |e: &mut Engine, s: NodeId| {
            assert!(e.submit(query(&[s])).is_accepted());
            e.run_pending().remove(0).kind
        };
        let write = |e: &mut Engine, u: NodeId, v: NodeId| {
            e.update_graph_delta(&[EdgeOp::Insert { u, v, weight: 1.5 }])
                .unwrap();
        };
        // No entry: a write is not logged.
        write(&mut e, 12, 14);
        assert!(logged(&e).is_empty());
        assert_eq!(ask(&mut e, 0), ResponseKind::Full);
        assert_eq!(ask(&mut e, 18), ResponseKind::Full);
        write(&mut e, 13, 15);
        write(&mut e, 0, 2);
        assert_eq!(logged(&e), vec![2, 3]);
        // Seed 0 catches up over both writes; seed 18 still needs them.
        assert_eq!(ask(&mut e, 0), ResponseKind::Cached);
        assert_eq!(logged(&e), vec![2, 3]);
        assert_eq!(ask(&mut e, 18), ResponseKind::Cached);
        assert!(logged(&e).is_empty());
        // A third and fourth entry: the cap evicts seed 0, the oldest.
        write(&mut e, 12, 16);
        assert_eq!(ask(&mut e, 9), ResponseKind::Full);
        assert_eq!(logged(&e), vec![4]);
        assert_eq!(ask(&mut e, 10), ResponseKind::Full);
        assert_eq!(e.answer_cache_len(), 3);
        assert!(e.answers.get(&answer_key(&[0], 0.1, 1e-2)).is_none());
        assert_eq!(logged(&e), vec![4], "seed 18 still needs epoch 4");
        // A compaction catches seed 18 up, relabels all, and restarts.
        write(&mut e, 13, 17);
        let before = e.stats().answers_revalidated + e.stats().answers_repaired;
        e.compact(CompactionOrder::Rcm).unwrap();
        let after = e.stats().answers_revalidated + e.stats().answers_repaired;
        assert_eq!(after - before, 3, "18 over two writes, 9 and 10 over one");
        assert!(logged(&e).is_empty());
        assert_eq!((e.answers.log.base, e.answers.log.live.len()), (6, 1));
        // A root swap clears entries and log alike.
        write(&mut e, 1, 3);
        assert_eq!(logged(&e), vec![7]);
        e.update_graph(barbell(8, 3).unwrap());
        assert_eq!(e.answer_cache_len(), 0);
        assert!(logged(&e).is_empty() && e.answers.log.live.is_empty());
    }

    #[test]
    fn empty_net_delta_is_a_no_op_and_bad_ops_are_atomic() {
        let g = barbell(6, 2).unwrap();
        let mut e = Engine::new(g, EngineConfig::default());
        assert!(e.submit(query(&[0])).is_accepted());
        assert_eq!(e.run_pending()[0].kind, ResponseKind::Full);
        // Insert + delete cancel: no epoch bump, cache intact.
        let ops = [
            EdgeOp::Insert {
                u: 0,
                v: 9,
                weight: 1.0,
            },
            EdgeOp::Delete { u: 0, v: 9 },
        ];
        let s = e.update_graph_delta(&ops).unwrap();
        assert_eq!(s, DeltaSummary::default());
        assert_eq!(e.epoch(), 0);
        assert_eq!(e.answer_cache_len(), 1);
        // A malformed op rejects the whole delta before any state
        // changes — even ops earlier in the stream are not applied.
        let bad = [
            EdgeOp::Insert {
                u: 0,
                v: 5,
                weight: 2.0,
            },
            EdgeOp::Insert {
                u: 0,
                v: 999,
                weight: 1.0,
            },
        ];
        assert!(e.update_graph_delta(&bad).is_err());
        assert_eq!(e.epoch(), 0);
        assert_eq!(e.graph().edge_weight(0, 5), 1.0);
        assert_eq!(e.answer_cache_len(), 1);
    }

    #[test]
    fn delta_repairs_hub_sketches_in_place() {
        let g = barbell(10, 3).unwrap();
        let mut e = Engine::new(
            g,
            EngineConfig {
                sketch_hubs: 4,
                sketch_epsilon: 1e-4,
                ..EngineConfig::default()
            },
        );
        assert_eq!(e.sketch_store().unwrap().epoch(), 0);
        let ops = [EdgeOp::Insert {
            u: 14,
            v: 20,
            weight: 3.0,
        }];
        let s = e.update_graph_delta(&ops).unwrap();
        assert!(!s.sketches_rebuilt);
        assert_eq!(
            s.sketches_repaired + s.sketches_untouched + s.sketch_fallbacks,
            4
        );
        let store = e.sketch_store().unwrap();
        assert_eq!(store.epoch(), 1);
        assert_eq!(store.len(), 4);
        // Splice-born cache entries store no residuals; the engine must
        // still answer correctly after the delta (sketches repaired,
        // splice still live).
        assert!(e.submit(query(&[0])).is_accepted());
        assert_eq!(e.run_pending()[0].kind, ResponseKind::Full);
    }

    #[test]
    fn forced_repair_fault_falls_back_to_full_rebuild() {
        let g = barbell(8, 2).unwrap();
        let mut chaos = ChaosConfig::default();
        chaos.forced_repair_faults.insert(1); // the post-delta epoch
        let mut e = Engine::new(
            g,
            EngineConfig {
                sketch_hubs: 3,
                chaos: Some(chaos),
                ..EngineConfig::default()
            },
        );
        let ops = [EdgeOp::Insert {
            u: 0,
            v: 11,
            weight: 1.0,
        }];
        let s = e.update_graph_delta(&ops).unwrap();
        assert!(s.sketches_rebuilt);
        assert_eq!(s.sketches_repaired, 0);
        let store = e.sketch_store().unwrap();
        assert_eq!(store.epoch(), 1);
        assert_eq!(store.len(), 3);
        // The rebuilt store is exactly what a cold build produces.
        assert!(e
            .trace()
            .events
            .iter()
            .any(|ev| ev.contains("sketch repair fault")));
        // The next delta (epoch 2, unfaulted) repairs normally.
        let ops2 = [EdgeOp::Insert {
            u: 1,
            v: 10,
            weight: 1.0,
        }];
        let s2 = e.update_graph_delta(&ops2).unwrap();
        assert!(!s2.sketches_rebuilt);
    }

    #[test]
    fn amortized_resketch_cadence_rebuilds_on_schedule() {
        let g = barbell(8, 2).unwrap();
        let mut e = Engine::new(
            g,
            EngineConfig {
                sketch_hubs: 3,
                resketch_after: 2,
                ..EngineConfig::default()
            },
        );
        let op = |u, v| [EdgeOp::Insert { u, v, weight: 1.5 }];
        let s1 = e.update_graph_delta(&op(0, 1)).unwrap();
        assert!(!s1.sketches_rebuilt);
        // Second delta since the last full build hits the cadence.
        let s2 = e.update_graph_delta(&op(2, 3)).unwrap();
        assert!(s2.sketches_rebuilt);
        // Counter reset: the next delta repairs again.
        let s3 = e.update_graph_delta(&op(4, 5)).unwrap();
        assert!(!s3.sketches_rebuilt);
    }

    #[test]
    fn epoch_bump_prevents_cross_epoch_batching_but_still_answers() {
        let g = barbell(6, 2).unwrap();
        let mut e = Engine::new(g, EngineConfig::default());
        assert!(e.submit(query(&[0])).is_accepted());
        e.update_graph(barbell(8, 1).unwrap());
        assert!(e.submit(query(&[1])).is_accepted());
        let rs = e.run_pending();
        assert_eq!(rs.len(), 2);
        // Old-epoch request still gets a (solo-path) certified answer.
        assert!(rs.iter().all(|r| r.kind == ResponseKind::Full));
        assert_eq!(e.epoch(), 1);
    }
}
