//! The immutable CSR graph.
//!
//! An undirected, weighted graph `G = (V, E)` stored as a symmetric
//! adjacency structure in compressed-sparse-row form: each undirected
//! edge `{u, v}` appears as two directed arcs. Self-loops are permitted;
//! a self-loop's weight is stored once and counted once in the node's
//! weighted degree, which keeps `L = D − A` positive semidefinite.

use crate::permute::Permutation;
use crate::{GraphError, Result};

/// Node identifier. `u32` keeps adjacency arrays compact (paper §2.1:
/// MMDS graphs are large and sparse; memory layout matters).
pub type NodeId = u32;

/// The iterator [`Graph::neighbors`] returns: one CSR row as its two
/// slices walked in step. Named so a caller can hold it in a struct
/// ([`crate::delta::MergedNeighbors`]) without boxing it.
pub type RowIter<'a> = std::iter::Zip<
    std::iter::Copied<std::slice::Iter<'a, NodeId>>,
    std::iter::Copied<std::slice::Iter<'a, f64>>,
>;

/// An immutable undirected weighted graph in CSR form.
///
/// Invariants (established by [`Graph::from_edges`], checked by
/// [`Graph::validate`]):
/// * `offsets.len() == n + 1`, non-decreasing, `offsets[0] == 0`;
/// * arcs within a row are sorted by target with no duplicate targets;
/// * the arc structure is symmetric: `(u→v, w)` exists iff `(v→u, w)`;
/// * all weights are positive and finite;
/// * `degrees[u] = Σ_v w(u, v)` and `total_volume = Σ_u degrees[u]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Graph {
    offsets: Vec<usize>,
    targets: Vec<NodeId>,
    weights: Vec<f64>,
    degrees: Vec<f64>,
    total_volume: f64,
}

impl Graph {
    /// Build from undirected edges `(u, v, w)`. Duplicate edges (in either
    /// orientation) are merged by summing weights; `u == v` is a self-loop.
    ///
    /// Errors if a node id is `>= n` or a weight is not positive/finite.
    pub fn from_edges(
        n: usize,
        edges: impl IntoIterator<Item = (NodeId, NodeId, f64)>,
    ) -> Result<Self> {
        let mut arcs: Vec<(NodeId, NodeId, f64)> = Vec::new();
        for (u, v, w) in edges {
            if u as usize >= n {
                return Err(GraphError::NodeOutOfRange { node: u, n });
            }
            if v as usize >= n {
                return Err(GraphError::NodeOutOfRange { node: v, n });
            }
            if !(w.is_finite() && w > 0.0) {
                return Err(GraphError::BadWeight(w));
            }
            arcs.push((u, v, w));
            if u != v {
                arcs.push((v, u, w));
            }
        }
        arcs.sort_unstable_by_key(|a| (a.0, a.1));

        // Merge consecutive duplicates.
        let mut merged: Vec<(NodeId, NodeId, f64)> = Vec::with_capacity(arcs.len());
        for (u, v, w) in arcs {
            match merged.last_mut() {
                Some((lu, lv, lw)) if *lu == u && *lv == v => *lw += w,
                _ => merged.push((u, v, w)),
            }
        }

        let mut offsets = vec![0usize; n + 1];
        let mut targets = Vec::with_capacity(merged.len());
        let mut weights = Vec::with_capacity(merged.len());
        for (u, v, w) in merged {
            offsets[u as usize + 1] += 1;
            targets.push(v);
            weights.push(w);
        }
        for i in 1..=n {
            offsets[i] += offsets[i - 1];
        }

        let degrees: Vec<f64> = (0..n)
            .map(|u| weights[offsets[u]..offsets[u + 1]].iter().sum())
            .collect();
        let total_volume = degrees.iter().sum();

        let g = Self {
            offsets,
            targets,
            weights,
            degrees,
            total_volume,
        };
        debug_assert!(g.validate().is_ok(), "{:?}", g.validate());
        Ok(g)
    }

    /// A copy of `self` with the rows named in `rows` replaced — the
    /// constructor behind [`crate::DeltaGraph::compact`]. `rows` yields
    /// `(node, merged row)` in strictly ascending node order, each row
    /// sorted by target; `extra_arcs` bounds how many arcs the
    /// replacements add over the rows they replace (a capacity hint, so
    /// the arrays are allocated once).
    ///
    /// Untouched row ranges are block-copied (`targets`, `weights`,
    /// rebased `offsets`) and keep their cached degree; a replaced
    /// row's degree is its weights summed in ascending-target order and
    /// the volume is the degrees summed in node order — the two
    /// expressions [`Graph::from_edges`] uses, so wherever the base's
    /// cached degrees are themselves row sums the result is
    /// bit-identical to rebuilding from the merged edge list, at
    /// `O(arcs)` memcpy instead of an `O(arcs·log arcs)` sort. The
    /// caller guarantees what `from_edges` would have checked: targets
    /// in range, weights positive and finite, arcs symmetric.
    pub(crate) fn splice_rows<I>(
        &self,
        rows: impl IntoIterator<Item = (NodeId, I)>,
        extra_arcs: usize,
    ) -> Self
    where
        I: Iterator<Item = (NodeId, f64)>,
    {
        let n = self.n();
        let arcs = self.targets.len() + extra_arcs;
        let mut offsets: Vec<usize> = Vec::with_capacity(n + 1);
        let mut targets: Vec<NodeId> = Vec::with_capacity(arcs);
        let mut weights: Vec<f64> = Vec::with_capacity(arcs);
        let mut degrees = self.degrees.clone();
        // Copy base rows `from..to` verbatim, rebasing their offsets.
        let copy_rows = |from: usize,
                         to: usize,
                         offsets: &mut Vec<usize>,
                         targets: &mut Vec<NodeId>,
                         weights: &mut Vec<f64>| {
            let (lo, hi) = (self.offsets[from], self.offsets[to]);
            let start = targets.len();
            offsets.extend(self.offsets[from..to].iter().map(|&o| o - lo + start));
            targets.extend_from_slice(&self.targets[lo..hi]);
            weights.extend_from_slice(&self.weights[lo..hi]);
        };
        let mut next = 0usize;
        for (u, row) in rows {
            let u = u as usize;
            debug_assert!(next <= u && u < n, "rows must ascend within 0..n");
            copy_rows(next, u, &mut offsets, &mut targets, &mut weights);
            let start = targets.len();
            offsets.push(start);
            for (v, w) in row {
                targets.push(v);
                weights.push(w);
            }
            degrees[u] = weights[start..].iter().sum();
            next = u + 1;
        }
        copy_rows(next, n, &mut offsets, &mut targets, &mut weights);
        offsets.push(targets.len());
        let total_volume = degrees.iter().sum();
        let g = Self {
            offsets,
            targets,
            weights,
            degrees,
            total_volume,
        };
        debug_assert!(g.validate().is_ok(), "{:?}", g.validate());
        g
    }

    /// Build an unweighted graph (all weights 1.0) from node pairs.
    pub fn from_pairs(n: usize, pairs: impl IntoIterator<Item = (NodeId, NodeId)>) -> Result<Self> {
        Self::from_edges(n, pairs.into_iter().map(|(u, v)| (u, v, 1.0)))
    }

    /// Check all structural invariants (used by tests and after IO).
    pub fn validate(&self) -> Result<()> {
        let n = self.n();
        let bad = |m: &str| Err(GraphError::InvalidArgument(m.to_string()));
        if self.offsets.len() != n + 1 || self.offsets[0] != 0 {
            return bad("offsets malformed");
        }
        if self.offsets.last().copied() != Some(self.targets.len())
            || self.targets.len() != self.weights.len()
        {
            return bad("offsets end mismatch");
        }
        for w in self.offsets.windows(2) {
            if w[1] < w[0] {
                return bad("offsets must be non-decreasing");
            }
        }
        for u in 0..n {
            let row = &self.targets[self.offsets[u]..self.offsets[u + 1]];
            for w in row.windows(2) {
                if w[1] <= w[0] {
                    return bad("row targets must be strictly increasing");
                }
            }
            if row.iter().any(|&v| v as usize >= n) {
                return bad("target out of range");
            }
        }
        for &w in &self.weights {
            if !(w.is_finite() && w > 0.0) {
                return Err(GraphError::BadWeight(w));
            }
        }
        // Symmetry.
        for u in 0..n as NodeId {
            for (v, w) in self.neighbors(u) {
                if (self.edge_weight(v, u) - w).abs() > 1e-12 * w.abs().max(1.0) {
                    return bad("arc structure not symmetric");
                }
            }
        }
        // Degree cache.
        for u in 0..n {
            let s: f64 = self.weights[self.offsets[u]..self.offsets[u + 1]]
                .iter()
                .sum();
            if (s - self.degrees[u]).abs() > 1e-9 * s.abs().max(1.0) {
                return bad("degree cache stale");
            }
        }
        Ok(())
    }

    /// Number of nodes.
    #[inline]
    pub fn n(&self) -> usize {
        self.degrees.len()
    }

    /// Number of undirected edges (self-loops count once).
    pub fn m(&self) -> usize {
        let self_loops = (0..self.n() as NodeId)
            .filter(|&u| self.edge_weight(u, u) > 0.0)
            .count();
        (self.targets.len() - self_loops) / 2 + self_loops
    }

    /// Number of stored arcs (2 per non-loop edge, 1 per self-loop).
    #[inline]
    pub fn arc_count(&self) -> usize {
        self.targets.len()
    }

    /// Weighted degree `d_u = Σ_v w(u, v)`.
    #[inline]
    pub fn degree(&self, u: NodeId) -> f64 {
        self.degrees[u as usize]
    }

    /// Unweighted degree (neighbor count, self-loop counts once).
    #[inline]
    pub fn degree_unweighted(&self, u: NodeId) -> usize {
        self.offsets[u as usize + 1] - self.offsets[u as usize]
    }

    /// All weighted degrees.
    #[inline]
    pub fn degrees(&self) -> &[f64] {
        &self.degrees
    }

    /// Total volume `vol(V) = Σ_u d_u` (= 2·total edge weight for
    /// loop-free graphs).
    #[inline]
    pub fn total_volume(&self) -> f64 {
        self.total_volume
    }

    /// Iterate over `(neighbor, weight)` pairs of `u`, sorted by neighbor.
    #[inline]
    pub fn neighbors(&self, u: NodeId) -> RowIter<'_> {
        let r = self.offsets[u as usize]..self.offsets[u as usize + 1];
        self.targets[r.clone()]
            .iter()
            .copied()
            .zip(self.weights[r].iter().copied())
    }

    /// Neighbor ids of `u` (no weights), sorted.
    #[inline]
    pub fn neighbor_ids(&self, u: NodeId) -> &[NodeId] {
        &self.targets[self.offsets[u as usize]..self.offsets[u as usize + 1]]
    }

    /// Weight of edge `{u, v}`, or 0.0 if absent. `O(log deg(u))`.
    pub fn edge_weight(&self, u: NodeId, v: NodeId) -> f64 {
        let r = self.offsets[u as usize]..self.offsets[u as usize + 1];
        debug_assert!(
            self.targets[r.clone()].windows(2).all(|w| w[0] < w[1]),
            "adjacency row of {u} must be strictly sorted for binary search"
        );
        match self.targets[r.clone()].binary_search(&v) {
            Ok(k) => self.weights[r.start + k],
            Err(_) => 0.0,
        }
    }

    /// Whether `{u, v}` is an edge.
    #[inline]
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.edge_weight(u, v) > 0.0
    }

    /// Iterate over each undirected edge once as `(u, v, w)` with `u <= v`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId, f64)> + '_ {
        (0..self.n() as NodeId)
            .flat_map(move |u| self.neighbors(u).map(move |(v, w)| (u, v, w)))
            .filter(|&(u, v, _)| u <= v)
    }

    /// Volume of a node set: `vol(S) = Σ_{u∈S} d_u`.
    pub fn volume(&self, nodes: &[NodeId]) -> f64 {
        nodes.iter().map(|&u| self.degree(u)).sum()
    }

    /// Relabel the vertex set by a [`Permutation`]: vertex `old` of
    /// `self` becomes vertex `perm.to_new(old)` of the result.
    ///
    /// The relabelled graph is the *same* graph — every structural and
    /// spectral quantity is preserved — laid out in a different memory
    /// order (see [`crate::permute`] for why that matters). Weighted
    /// degrees and the total volume are **copied bitwise** from the
    /// cached values rather than re-accumulated, so per-vertex float
    /// metadata survives the round trip `permute(p)` →
    /// `permute(p.inverse())` exactly.
    ///
    /// Errors if `perm.len() != self.n()`.
    pub fn permute(&self, perm: &Permutation) -> Result<Graph> {
        let n = self.n();
        if perm.len() != n {
            return Err(GraphError::InvalidArgument(format!(
                "permutation over {} vertices applied to graph with {n} vertices",
                perm.len()
            )));
        }
        let mut offsets = vec![0usize; n + 1];
        for new in 0..n {
            let old = perm.to_old(new as NodeId);
            offsets[new + 1] = offsets[new] + self.degree_unweighted(old);
        }
        let arcs = self.targets.len();
        let mut targets: Vec<NodeId> = Vec::with_capacity(arcs);
        let mut weights: Vec<f64> = Vec::with_capacity(arcs);
        let mut degrees: Vec<f64> = Vec::with_capacity(n);
        let mut row: Vec<(NodeId, f64)> = Vec::new();
        for new in 0..n {
            let old = perm.to_old(new as NodeId);
            row.clear();
            row.extend(self.neighbors(old).map(|(v, w)| (perm.to_new(v), w)));
            // Relabelling scrambles the within-row target order; CSR
            // rows must be sorted for binary search and merge walks.
            row.sort_unstable_by_key(|&(t, _)| t);
            targets.extend(row.iter().map(|&(t, _)| t));
            weights.extend(row.iter().map(|&(_, w)| w));
            degrees.push(self.degrees[old as usize]);
        }
        let g = Graph {
            offsets,
            targets,
            weights,
            degrees,
            total_volume: self.total_volume,
        };
        debug_assert!(g.validate().is_ok(), "{:?}", g.validate());
        Ok(g)
    }

    /// Extract the subgraph induced by `nodes` (order defines new ids).
    ///
    /// Returns the subgraph and the mapping `new id → old id`. Duplicate
    /// input nodes are an error.
    pub fn induced_subgraph(&self, nodes: &[NodeId]) -> Result<(Graph, Vec<NodeId>)> {
        let n = self.n();
        let mut new_id = vec![u32::MAX; n];
        for (new, &old) in nodes.iter().enumerate() {
            if old as usize >= n {
                return Err(GraphError::NodeOutOfRange { node: old, n });
            }
            if new_id[old as usize] != u32::MAX {
                return Err(GraphError::InvalidArgument(format!(
                    "duplicate node {old} in induced_subgraph"
                )));
            }
            new_id[old as usize] = new as u32;
        }
        let mut edges = Vec::new();
        for (new_u, &old_u) in nodes.iter().enumerate() {
            for (old_v, w) in self.neighbors(old_u) {
                let nv = new_id[old_v as usize];
                if nv != u32::MAX && (nv as usize > new_u || old_v == old_u) {
                    edges.push((new_u as NodeId, nv, w));
                }
            }
        }
        let sub = Graph::from_edges(nodes.len(), edges)?;
        Ok((sub, nodes.to_vec()))
    }

    /// Complement indicator: all nodes not in `s` (given as sorted-or-not
    /// slice), in ascending order.
    pub fn complement(&self, s: &[NodeId]) -> Vec<NodeId> {
        let mut in_s = vec![false; self.n()];
        for &u in s {
            in_s[u as usize] = true;
        }
        (0..self.n() as NodeId)
            .filter(|&u| !in_s[u as usize])
            .collect()
    }

    /// Minimum and maximum weighted degree.
    pub fn degree_range(&self) -> (f64, f64) {
        let mut lo = f64::INFINITY;
        let mut hi = 0.0f64;
        for &d in &self.degrees {
            lo = lo.min(d);
            hi = hi.max(d);
        }
        if self.degrees.is_empty() {
            (0.0, 0.0)
        } else {
            (lo, hi)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Triangle with a pendant node: 0-1, 1-2, 2-0, 2-3.
    pub(crate) fn triangle_pendant() -> Graph {
        Graph::from_pairs(4, [(0, 1), (1, 2), (2, 0), (2, 3)]).unwrap()
    }

    #[test]
    fn basic_construction() {
        let g = triangle_pendant();
        assert_eq!(g.n(), 4);
        assert_eq!(g.m(), 4);
        assert_eq!(g.arc_count(), 8);
        assert_eq!(g.degree(0), 2.0);
        assert_eq!(g.degree(2), 3.0);
        assert_eq!(g.degree(3), 1.0);
        assert_eq!(g.total_volume(), 8.0);
        g.validate().unwrap();
    }

    #[test]
    fn neighbors_sorted_and_symmetric() {
        let g = triangle_pendant();
        let n2: Vec<_> = g.neighbors(2).collect();
        assert_eq!(n2, vec![(0, 1.0), (1, 1.0), (3, 1.0)]);
        assert!(g.has_edge(3, 2));
        assert!(!g.has_edge(3, 0));
        assert_eq!(g.edge_weight(0, 1), 1.0);
        assert_eq!(g.edge_weight(1, 0), 1.0);
    }

    #[test]
    fn duplicate_edges_merge() {
        let g = Graph::from_edges(2, [(0, 1, 1.0), (1, 0, 2.0), (0, 1, 0.5)]).unwrap();
        assert_eq!(g.edge_weight(0, 1), 3.5);
        assert_eq!(g.m(), 1);
        g.validate().unwrap();
    }

    #[test]
    fn self_loop_handling() {
        let g = Graph::from_edges(2, [(0, 0, 2.0), (0, 1, 1.0)]).unwrap();
        assert_eq!(g.degree(0), 3.0);
        assert_eq!(g.m(), 2);
        assert_eq!(g.edge_weight(0, 0), 2.0);
        g.validate().unwrap();
    }

    #[test]
    fn rejects_bad_input() {
        assert!(matches!(
            Graph::from_pairs(2, [(0, 5)]),
            Err(GraphError::NodeOutOfRange { node: 5, .. })
        ));
        assert!(matches!(
            Graph::from_edges(2, [(0, 1, -1.0)]),
            Err(GraphError::BadWeight(_))
        ));
        assert!(matches!(
            Graph::from_edges(2, [(0, 1, f64::NAN)]),
            Err(GraphError::BadWeight(_))
        ));
        assert!(matches!(
            Graph::from_edges(2, [(0, 1, 0.0)]),
            Err(GraphError::BadWeight(_))
        ));
    }

    #[test]
    fn empty_and_isolated() {
        let g = Graph::from_pairs(3, []).unwrap();
        assert_eq!(g.n(), 3);
        assert_eq!(g.m(), 0);
        assert_eq!(g.degree(1), 0.0);
        assert_eq!(g.neighbors(1).count(), 0);
        g.validate().unwrap();
    }

    #[test]
    fn edges_iterates_each_once() {
        let g = triangle_pendant();
        let e: Vec<_> = g.edges().collect();
        assert_eq!(e.len(), 4);
        assert!(e.contains(&(0, 1, 1.0)));
        assert!(e.contains(&(2, 3, 1.0)));
        // Each with u <= v.
        assert!(e.iter().all(|&(u, v, _)| u <= v));
    }

    #[test]
    fn volume_and_complement() {
        let g = triangle_pendant();
        assert_eq!(g.volume(&[0, 1]), 4.0);
        assert_eq!(g.complement(&[0, 2]), vec![1, 3]);
        assert_eq!(g.complement(&[]), vec![0, 1, 2, 3]);
    }

    #[test]
    fn induced_subgraph_triangle() {
        let g = triangle_pendant();
        let (sub, map) = g.induced_subgraph(&[0, 1, 2]).unwrap();
        assert_eq!(sub.n(), 3);
        assert_eq!(sub.m(), 3);
        assert_eq!(map, vec![0, 1, 2]);
        // Pendant excluded entirely.
        let (sub2, _) = g.induced_subgraph(&[2, 3]).unwrap();
        assert_eq!(sub2.m(), 1);
        assert!(sub2.has_edge(0, 1));
    }

    #[test]
    fn induced_subgraph_rejects_duplicates_and_range() {
        let g = triangle_pendant();
        assert!(g.induced_subgraph(&[0, 0]).is_err());
        assert!(g.induced_subgraph(&[0, 9]).is_err());
    }

    #[test]
    fn degree_range() {
        let g = triangle_pendant();
        assert_eq!(g.degree_range(), (1.0, 3.0));
        let empty = Graph::from_pairs(0, []).unwrap();
        assert_eq!(empty.degree_range(), (0.0, 0.0));
    }

    #[test]
    fn weighted_edges() {
        let g = Graph::from_edges(3, [(0, 1, 2.5), (1, 2, 0.5)]).unwrap();
        assert_eq!(g.degree(1), 3.0);
        assert_eq!(g.total_volume(), 6.0);
        assert_eq!(g.m(), 2);
    }
}
