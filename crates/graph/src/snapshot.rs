//! Epoch-versioned immutable graph snapshots: the publish/pin protocol
//! that lets readers keep computing against a stable graph while a
//! writer applies deltas or compacts off to the side.
//!
//! The serving stack (PRs 6–9) owned exactly one mutable [`Graph`], so
//! every delta application was a stop-the-world swap and a relabeling
//! compaction had nowhere to record its [`Permutation`]. This module
//! converts that into a snapshot lifecycle:
//!
//! ```text
//!            writer builds aside            atomic publish
//!   ┌────────────────────────────┐   ┌──────────────────────────┐
//!   │ pin() ─► DeltaGraph overlay │   │ SnapshotStore::publish_* │
//!   │          compact()/permute  ├──►│   swap Arc under RwLock  │
//!   └────────────────────────────┘   └───────────┬──────────────┘
//!                                                 │
//!         readers drain on old Arcs ◄─────────────┘
//!   (every pinned `Arc<GraphSnapshot>` stays valid until dropped)
//! ```
//!
//! Each published [`GraphSnapshot`] carries:
//!
//! * the immutable CSR [`Graph`] for that version;
//! * a monotonically increasing **epoch** (the cache/sketch key);
//! * the net [`EdgeDelta`] record that produced it from its
//!   predecessor (empty for the root, a full swap, or a pure-relabel
//!   compaction) — the input the repair kernels consume;
//! * the **step** [`Permutation`] (previous snapshot's ids → this
//!   snapshot's ids) and the composed **lineage** (root ids → this
//!   snapshot's ids), so estimates, residuals, sketches and cached
//!   answers survive a relabeling compaction by being routed through
//!   the permutation instead of being rebuilt.
//!
//! Publication is single-writer (the owning engine mutates through
//! `&mut self`) and wait-free for readers apart from the brief
//! read-lock clone in [`SnapshotStore::pin`]; the write-lock section is
//! exactly one `Arc` swap, so a reader never observes a half-applied
//! delta — it sees the old snapshot or the new one, nothing between.

use std::sync::{Arc, RwLock};

use crate::csr::Graph;
use crate::delta::{DeltaGraph, EdgeDelta};
use crate::permute::Permutation;
use crate::{GraphError, NodeId, Result};

/// Vertex-order policy for a relabeling compaction.
///
/// [`DeltaGraph::compact`] always preserves vertex ids; a snapshot
/// compaction may additionally renumber vertices to restore locality
/// that a long delta stream has destroyed. The chosen permutation is
/// recorded as the snapshot's `step`, so downstream state repairs
/// across the relabeling instead of rebuilding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CompactionOrder {
    /// Keep vertex ids as they are (identity step — today's behavior).
    #[default]
    Preserve,
    /// Reverse Cuthill–McKee: bandwidth-minimizing BFS order.
    Rcm,
    /// Hubs first: sort vertices by unweighted degree, descending.
    DegreeDescending,
}

/// Compact a [`DeltaGraph`] into a fresh CSR under `order`, returning
/// the rebuilt graph and the relabeling that was applied (identity for
/// [`CompactionOrder::Preserve`]). The returned permutation maps the
/// overlay's vertex ids to the rebuilt graph's ids — exactly the
/// `step` a snapshot publication wants.
pub fn compact_ordered(
    dg: &DeltaGraph<'_>,
    order: CompactionOrder,
) -> Result<(Graph, Permutation)> {
    let (g, base) = dg.compact()?;
    match order {
        CompactionOrder::Preserve => Ok((g, base)),
        CompactionOrder::Rcm => {
            let p = Permutation::rcm(&g);
            Ok((g.permute(&p)?, p))
        }
        CompactionOrder::DegreeDescending => {
            let p = Permutation::degree_descending(&g);
            Ok((g.permute(&p)?, p))
        }
    }
}

/// One immutable, epoch-stamped graph version.
///
/// Snapshots are only handed out as `Arc<GraphSnapshot>`; holding the
/// `Arc` pins the version — the store publishing a successor never
/// invalidates it.
#[derive(Debug)]
pub struct GraphSnapshot {
    graph: Graph,
    epoch: u64,
    delta: Vec<EdgeDelta>,
    step: Permutation,
    lineage: Permutation,
    /// `!lineage.is_identity()`, decided once at publication so the
    /// read path never scans the n-entry lineage.
    relabeled: bool,
}

impl GraphSnapshot {
    /// The snapshot's immutable CSR.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The monotonically increasing version stamp.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Net edge changes from the predecessor snapshot, in the
    /// predecessor's vertex ids (empty for the root, a full swap, or a
    /// pure-relabel compaction).
    pub fn delta(&self) -> &[EdgeDelta] {
        &self.delta
    }

    /// Relabeling from the predecessor snapshot's ids to this
    /// snapshot's ids (identity unless this snapshot was published by
    /// a relabeling compaction).
    pub fn step(&self) -> &Permutation {
        &self.step
    }

    /// Composed relabeling from root (external/query) ids to this
    /// snapshot's internal ids.
    pub fn lineage(&self) -> &Permutation {
        &self.lineage
    }

    /// Has any compaction in this snapshot's history renumbered
    /// vertices relative to external ids? A field read: the answer is
    /// recorded when the snapshot is published.
    pub fn is_relabeled(&self) -> bool {
        self.relabeled
    }

    /// Map an external (root-lineage) vertex id to this snapshot's
    /// internal id. Errors on out-of-range ids so the serving layer
    /// can reject bad queries instead of panicking.
    pub fn to_internal(&self, external: NodeId) -> Result<NodeId> {
        if (external as usize) >= self.graph.n() {
            return Err(GraphError::NodeOutOfRange {
                node: external,
                n: self.graph.n(),
            });
        }
        Ok(self.lineage.to_new(external))
    }

    /// Map one of this snapshot's internal vertex ids back to the
    /// external (root-lineage) id space.
    pub fn to_external(&self, internal: NodeId) -> NodeId {
        self.lineage.to_old(internal)
    }
}

/// Single-writer, multi-reader publication point for
/// [`GraphSnapshot`]s.
///
/// Readers call [`pin`](Self::pin) and keep the returned `Arc` for the
/// whole lifetime of their computation; the writer builds the next
/// version entirely off to the side and swaps it in atomically with
/// one of the `publish_*` methods. The lock is held only for the
/// pointer swap (or clone), never during graph construction.
#[derive(Debug)]
pub struct SnapshotStore {
    current: RwLock<Arc<GraphSnapshot>>,
}

impl SnapshotStore {
    /// Wrap `graph` as the root snapshot (epoch 0, identity lineage).
    pub fn new(graph: Graph) -> Self {
        Self::with_epoch(graph, 0)
    }

    /// Wrap `graph` as a root snapshot at an explicit starting epoch
    /// (used when a store replaces an older lifecycle mid-stream and
    /// the epoch counter must stay monotonic).
    pub fn with_epoch(graph: Graph, epoch: u64) -> Self {
        let n = graph.n();
        Self {
            current: RwLock::new(Arc::new(GraphSnapshot {
                graph,
                epoch,
                delta: Vec::new(),
                step: Permutation::identity(n),
                lineage: Permutation::identity(n),
                relabeled: false,
            })),
        }
    }

    /// Pin the currently published snapshot. The returned `Arc` stays
    /// valid — same graph, same epoch, same lineage — no matter how
    /// many successors are published while the caller holds it.
    pub fn pin(&self) -> Arc<GraphSnapshot> {
        Arc::clone(&self.current.read().expect("snapshot lock poisoned"))
    }

    /// Epoch of the currently published snapshot.
    pub fn head_epoch(&self) -> u64 {
        self.current.read().expect("snapshot lock poisoned").epoch
    }

    /// Publish `graph` as the delta successor of the current head:
    /// identity step, lineage carried over, `delta` recorded as the
    /// net change from the predecessor. Returns the new head.
    pub fn publish_delta(&self, graph: Graph, delta: Vec<EdgeDelta>) -> Arc<GraphSnapshot> {
        let mut slot = self.current.write().expect("snapshot lock poisoned");
        let prev = slot.as_ref();
        let n = graph.n();
        debug_assert_eq!(n, prev.graph.n(), "delta publication cannot resize");
        let next = Arc::new(GraphSnapshot {
            graph,
            epoch: prev.epoch + 1,
            delta,
            step: Permutation::identity(n),
            lineage: prev.lineage.clone(),
            relabeled: prev.relabeled,
        });
        *slot = Arc::clone(&next);
        next
    }

    /// Publish `graph` as a compacted successor relabeled by `step`
    /// (previous ids → new ids). The lineage is composed so external
    /// ids keep resolving; the recorded delta is empty — a compaction
    /// changes the numbering, not the edge set.
    pub fn publish_compacted(&self, graph: Graph, step: Permutation) -> Arc<GraphSnapshot> {
        let mut slot = self.current.write().expect("snapshot lock poisoned");
        let prev = slot.as_ref();
        // Computed from the composed lineage, not inherited: a step
        // can undo an earlier relabeling (Rcm followed by its inverse).
        let lineage = prev.lineage.then(&step);
        let relabeled = !lineage.is_identity();
        let next = Arc::new(GraphSnapshot {
            graph,
            epoch: prev.epoch + 1,
            delta: Vec::new(),
            step,
            lineage,
            relabeled,
        });
        *slot = Arc::clone(&next);
        next
    }

    /// Publish `graph` as a fresh root (a full graph swap): the epoch
    /// keeps counting up, but the delta record, step, and lineage all
    /// reset — the new graph's ids *are* the external ids.
    pub fn publish_root(&self, graph: Graph) -> Arc<GraphSnapshot> {
        let mut slot = self.current.write().expect("snapshot lock poisoned");
        let prev = slot.as_ref();
        let n = graph.n();
        let next = Arc::new(GraphSnapshot {
            graph,
            epoch: prev.epoch + 1,
            delta: Vec::new(),
            step: Permutation::identity(n),
            lineage: Permutation::identity(n),
            relabeled: false,
        });
        *slot = Arc::clone(&next);
        next
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use crate::gen::deterministic::{barbell, path};

    #[test]
    fn pinned_snapshot_survives_publications() {
        let g = path(6).unwrap();
        let store = SnapshotStore::new(g);
        let pinned = store.pin();
        assert_eq!(pinned.epoch(), 0);
        assert!(!pinned.is_relabeled());
        assert!(pinned.delta().is_empty());

        let mut dg = DeltaGraph::new(pinned.graph());
        dg.insert_edge(0, 5, 2.0).unwrap();
        let delta = dg.net_delta();
        let (g2, _) = dg.compact().unwrap();
        let head = store.publish_delta(g2, delta);

        assert_eq!(head.epoch(), 1);
        assert_eq!(store.head_epoch(), 1);
        assert_eq!(head.delta().len(), 1);
        // The pinned snapshot still reads the pre-delta graph.
        assert_eq!(pinned.epoch(), 0);
        assert_eq!(pinned.graph().edge_weight(0, 5), 0.0);
        assert!(head.graph().edge_weight(0, 5) > 0.0);
    }

    #[test]
    fn compaction_composes_lineage() {
        let g = barbell(5, 3).unwrap();
        let store = SnapshotStore::new(g);
        let root = store.pin();

        let dg = DeltaGraph::new(root.graph());
        let (g2, step) = compact_ordered(&dg, CompactionOrder::DegreeDescending).unwrap();
        assert!(!step.is_identity());
        let head = store.publish_compacted(g2, step.clone());

        assert_eq!(head.epoch(), 1);
        assert!(head.is_relabeled());
        // External ids route through the lineage to the same vertex.
        for u in 0..root.graph().n() as NodeId {
            let internal = head.to_internal(u).unwrap();
            assert_eq!(head.to_external(internal), u);
            assert_eq!(
                root.graph().degree(u),
                head.graph().degree(internal),
                "degree must be preserved under relabeling"
            );
        }

        // A second relabeling composes: lineage == step1 ∘ step2.
        let dg2 = DeltaGraph::new(head.graph());
        let (g3, step2) = compact_ordered(&dg2, CompactionOrder::Rcm).unwrap();
        let head2 = store.publish_compacted(g3, step2.clone());
        for u in 0..root.graph().n() as NodeId {
            assert_eq!(
                head2.to_internal(u).unwrap(),
                step2.to_new(step.to_new(u)),
                "lineage must equal the composition of the steps"
            );
        }
    }

    #[test]
    fn relabeled_flag_tracks_the_lineage_through_every_publication() {
        fn check(s: &GraphSnapshot, expect: bool) {
            assert_eq!(s.is_relabeled(), !s.lineage().is_identity());
            assert_eq!(s.is_relabeled(), expect, "epoch {}", s.epoch());
        }
        let store = SnapshotStore::with_epoch(barbell(5, 3).unwrap(), 7);
        check(&store.pin(), false);

        let delta_successor = |store: &SnapshotStore| {
            let head = store.pin();
            let mut dg = DeltaGraph::new(head.graph());
            let w = head.graph().edge_weight(0, 1);
            dg.insert_edge(0, 1, w + 1.0).unwrap();
            let delta = dg.net_delta();
            let (g, _) = dg.compact().unwrap();
            store.publish_delta(g, delta)
        };
        let compacted = |store: &SnapshotStore, order| {
            let head = store.pin();
            let (g, step) = compact_ordered(&DeltaGraph::new(head.graph()), order).unwrap();
            (store.publish_compacted(g, step.clone()), step)
        };

        check(&delta_successor(&store), false);
        check(&compacted(&store, CompactionOrder::Preserve).0, false);
        let (rcm, step) = compacted(&store, CompactionOrder::Rcm);
        assert!(!step.is_identity());
        check(&rcm, true);
        // A delta inherits the flag; Preserve composes an identity step.
        check(&delta_successor(&store), true);
        check(&compacted(&store, CompactionOrder::Preserve).0, true);
        // The inverse of the composed lineage undoes the relabeling:
        // computed, not inherited.
        let head = store.pin();
        let back = head.lineage().inverse();
        let restored = store.publish_compacted(head.graph().permute(&back).unwrap(), back);
        check(&restored, false);
        check(
            &compacted(&store, CompactionOrder::DegreeDescending).0,
            true,
        );
        check(&store.publish_root(path(4).unwrap()), false);
    }

    #[test]
    fn preserve_order_compaction_is_bit_identical_to_plain_compact() {
        let g = barbell(4, 2).unwrap();
        let mut dg = DeltaGraph::new(&g);
        dg.insert_edge(1, 9, 3.0).unwrap();
        let (plain, _) = dg.compact().unwrap();
        let (ordered, step) = compact_ordered(&dg, CompactionOrder::Preserve).unwrap();
        assert!(step.is_identity());
        for u in 0..plain.n() as NodeId {
            let a: Vec<(NodeId, u64)> = plain.neighbors(u).map(|(v, w)| (v, w.to_bits())).collect();
            let b: Vec<(NodeId, u64)> = ordered
                .neighbors(u)
                .map(|(v, w)| (v, w.to_bits()))
                .collect();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn full_swap_resets_lineage_but_not_epoch() {
        let root_graph = path(4).unwrap();
        let store = SnapshotStore::new(root_graph.clone());
        let dg = DeltaGraph::new(&root_graph);
        let (gp, step) = compact_ordered(&dg, CompactionOrder::Rcm).unwrap();
        store.publish_compacted(gp, step);
        let head = store.publish_root(barbell(3, 1).unwrap());
        assert_eq!(head.epoch(), 2);
        assert!(!head.is_relabeled());
        assert!(head.to_internal(99).is_err());
    }
}
