//! The engine-side hub-sketch store: an immutable
//! [`SketchSet`] stamped with the graph epoch it was built against.
//!
//! The engine rebuilds the store on every full graph swap
//! ([`crate::engine::Engine::update_graph`]) and *repairs* it across
//! edge deltas ([`crate::engine::Engine::update_graph_delta`]), so a
//! store whose epoch disagrees with the engine's current epoch is
//! *never* consulted — sketches can go stale only by construction, not
//! by use. That makes invalidation trivial to reason about: the epoch
//! stamp is the whole protocol.

use acir_graph::{EdgeDelta, Graph, NodeId, Permutation};
use acir_local::{
    build_hub_sketches, build_sketches_for_hubs, relabel_sketch_set, repair_hub_sketches, SketchSet,
};

/// An epoch-stamped [`SketchSet`] owned by the serve engine.
#[derive(Debug, Clone)]
pub struct SketchStore {
    set: SketchSet,
    epoch: u64,
}

impl SketchStore {
    /// Build sketches from the top-`hubs` hubs of `g` at `(α, ε)`,
    /// stamped with `epoch`. Fails only on invalid α/ε — a programmer
    /// error in the engine configuration, reported as a string so the
    /// caller can decide whether to panic or disable the path.
    pub fn build(
        g: &Graph,
        hubs: usize,
        alpha: f64,
        epsilon: f64,
        epoch: u64,
    ) -> Result<Self, String> {
        let set = build_hub_sketches(g, hubs, alpha, epsilon)
            .map_err(|e| format!("hub sketch build failed: {e}"))?;
        Ok(Self { set, epoch })
    }

    /// Build sketches for an explicit, pre-selected hub list — the
    /// pure-reweight fast path where the unweighted degree sequence
    /// (and therefore the top-K selection) is unchanged and re-running
    /// the selection would be wasted work.
    pub fn build_for_hubs(
        g: &Graph,
        hubs: &[NodeId],
        alpha: f64,
        epsilon: f64,
        epoch: u64,
    ) -> Result<Self, String> {
        let set = build_sketches_for_hubs(g, hubs, alpha, epsilon)
            .map_err(|e| format!("hub sketch build failed: {e}"))?;
        Ok(Self { set, epoch })
    }

    /// Carry this store through a relabeling compaction: every sketch
    /// is mapped through `step` (zero pushes, certificates carried
    /// bitwise) and the store is restamped with the new `epoch`.
    pub fn relabel(&self, step: &Permutation, epoch: u64) -> Result<Self, String> {
        let set = relabel_sketch_set(&self.set, step)
            .map_err(|e| format!("hub sketch relabel failed: {e}"))?;
        Ok(Self { set, epoch })
    }

    /// The sketched hub ids, in slot order.
    pub fn hubs(&self) -> Vec<NodeId> {
        self.set.sketches().iter().map(|s| s.hub).collect()
    }

    /// Repair this store across `delta` (the net edge changes from the
    /// store's graph to `g`), restamped with the new `epoch`. Only
    /// sketches the delta disturbs (`delta_leaves_undisturbed` says
    /// otherwise for the rest) are reflowed; the rest carry over
    /// verbatim. Returns the repaired
    /// store and the repair accounting (pushes spent is the
    /// repair-vs-rebuild gate numerator).
    pub fn repair(
        &self,
        g: &Graph,
        delta: &[EdgeDelta],
        epoch: u64,
    ) -> Result<(Self, StoreRepairStats), String> {
        let rep = repair_hub_sketches(g, &self.set, delta)
            .map_err(|e| format!("hub sketch repair failed: {e}"))?;
        let stats = StoreRepairStats {
            repaired: rep.repaired,
            untouched: rep.untouched,
            fallbacks: rep.fallbacks,
            pushes: rep.pushes,
            work: rep.work,
        };
        Ok((
            Self {
                set: rep.set,
                epoch,
            },
            stats,
        ))
    }

    /// The graph epoch the sketches were built against.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The sketches themselves.
    pub fn set(&self) -> &SketchSet {
        &self.set
    }

    /// Number of sketched hubs.
    pub fn len(&self) -> usize {
        self.set.len()
    }

    /// Does the store hold no sketches?
    pub fn is_empty(&self) -> bool {
        self.set.is_empty()
    }
}

/// Accounting for one [`SketchStore::repair`] pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct StoreRepairStats {
    /// Sketches incrementally repaired.
    pub repaired: usize,
    /// Sketches untouched by the delta, carried over verbatim.
    pub untouched: usize,
    /// Sketches recomputed from scratch (oversized perturbation,
    /// degenerate column swap, or an isolated hub).
    pub fallbacks: usize,
    /// Fresh pushes the repair spent across all sketches.
    pub pushes: usize,
    /// Fresh edge traversals the repair spent.
    pub work: usize,
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use acir_graph::gen::deterministic::barbell;
    use acir_graph::DeltaGraph;

    #[test]
    fn build_stamps_the_epoch() {
        let g = barbell(8, 2).unwrap();
        let s = SketchStore::build(&g, 4, 0.1, 1e-4, 7).unwrap();
        assert_eq!(s.epoch(), 7);
        assert_eq!(s.len(), 4);
        assert!(!s.is_empty());
        assert_eq!(s.set().alpha(), 0.1);
        assert!(SketchStore::build(&g, 4, 2.0, 1e-4, 0).is_err());
    }

    #[test]
    fn repair_restamps_and_spends_less_than_a_rebuild() {
        let g = barbell(8, 2).unwrap();
        let store = SketchStore::build(&g, 4, 0.1, 1e-4, 0).unwrap();
        let mut dg = DeltaGraph::new(&g);
        dg.insert_edge(0, 17, 2.0).unwrap();
        let delta = dg.net_delta();
        let (g2, _) = dg.compact().unwrap();
        let (repaired, stats) = store.repair(&g2, &delta, 1).unwrap();
        assert_eq!(repaired.epoch(), 1);
        assert_eq!(repaired.len(), 4);
        assert_eq!(
            stats.repaired + stats.untouched + stats.fallbacks,
            store.len()
        );
        let rebuilt = SketchStore::build(&g2, 4, 0.1, 1e-4, 1).unwrap();
        assert!(
            stats.pushes < rebuilt.set().build_pushes(),
            "repair spent {} pushes, rebuild {}",
            stats.pushes,
            rebuilt.set().build_pushes()
        );
    }
}
