//! A mutable edge-delta overlay over the immutable CSR [`Graph`].
//!
//! Production graphs mutate; the CSR does not. [`DeltaGraph`] bridges
//! the two: it borrows a base snapshot and accumulates edge inserts,
//! re-weights, and deletes in sorted per-node side-lists, giving
//! `O(log d)` edge lookup and merged neighbor iteration that is
//! **bit-compatible** with the CSR a fresh [`Graph::from_edges`] build
//! of the edited edge list would produce (same targets, same weights,
//! same degree sums in the same order). [`DeltaGraph::compact`]
//! produces exactly that CSR — by splicing the touched rows into a
//! block copy of the base, not by re-sorting the edge list — and emits
//! a [`Permutation`] relabeling hook — the identity today, the seam
//! through which a future compaction that drops or renumbers vertices
//! plugs into the existing `map_back` plumbing.
//!
//! Snapshot semantics: the overlay is a *writer-side* structure. The
//! borrowed base and every compacted CSR are immutable snapshots, so a
//! reader holding one (stamped with an epoch, as the serve engine does)
//! never observes a half-applied delta — writers append to the overlay
//! and publish a new snapshot atomically via `compact`. The
//! [`DeltaGraph::version`] counter advances once per applied mutation;
//! [`DeltaGraph::net_delta`] summarizes the accumulated edits as one
//! [`EdgeDelta`] record per changed edge, the input contract of the
//! push-style residual repair kernel in `acir-local`.

use crate::permute::Permutation;
use crate::{Graph, GraphError, NodeId, Result, RowIter};
use std::collections::BTreeMap;

/// One edge mutation to apply to a [`DeltaGraph`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EdgeOp {
    /// Insert the edge `{u, v}` with `weight`, or overwrite its weight
    /// if it already exists.
    Insert {
        /// One endpoint.
        u: NodeId,
        /// The other endpoint (`u == v` is a self-loop).
        v: NodeId,
        /// New edge weight; must be finite and positive.
        weight: f64,
    },
    /// Remove the edge `{u, v}` (a no-op if absent).
    Delete {
        /// One endpoint.
        u: NodeId,
        /// The other endpoint.
        v: NodeId,
    },
}

/// The net effect of the accumulated mutations on one edge, in the
/// canonical `u <= v` orientation: the weight the base graph held
/// (`None` if the edge did not exist) and the weight the merged view
/// holds now (`None` if deleted). This is the record the residual
/// repair kernel consumes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeDelta {
    /// Smaller endpoint.
    pub u: NodeId,
    /// Larger endpoint (`u == v` for self-loops).
    pub v: NodeId,
    /// Weight in the base snapshot (`None` = edge absent).
    pub old: Option<f64>,
    /// Weight in the merged view (`None` = edge deleted).
    pub new: Option<f64>,
}

impl EdgeDelta {
    /// Net weighted-degree change this edit contributes at endpoint
    /// `c` (zero if `c` is not an endpoint). Self-loops contribute
    /// their weight once, matching the CSR degree convention.
    pub fn degree_change_at(&self, c: NodeId) -> f64 {
        if c != self.u && c != self.v {
            return 0.0;
        }
        self.new.unwrap_or(0.0) - self.old.unwrap_or(0.0)
    }
}

/// Does an edge that held `old` and now holds `new` count as changed?
/// Weights compare by bits; absent at both ends is unchanged.
fn weight_changed(old: Option<f64>, new: Option<f64>) -> bool {
    old.map(f64::to_bits) != new.map(f64::to_bits)
}

/// Fold successive net deltas, oldest first — each the
/// [`DeltaGraph::net_delta`] of one write against the graph the
/// previous write produced — into the one net delta from the first
/// write's base to the last write's result: per edge, the first
/// record's `old` and the last record's `new`; edges that end where
/// they began (bit-equal weights, or absent at both ends) are dropped;
/// the output is sorted by `(u, v)`, like `net_delta`. It is the input
/// the residual repair kernel takes for a prior that missed several
/// writes.
pub fn compose_net_deltas<'a>(
    records: impl IntoIterator<Item = &'a [EdgeDelta]>,
) -> Vec<EdgeDelta> {
    let mut net: BTreeMap<(NodeId, NodeId), (Option<f64>, Option<f64>)> = BTreeMap::new();
    for record in records {
        for d in record {
            net.entry((d.u, d.v))
                .and_modify(|ends| ends.1 = d.new)
                .or_insert((d.old, d.new));
        }
    }
    net.into_iter()
        .filter(|&(_, (old, new))| weight_changed(old, new))
        .map(|((u, v), (old, new))| EdgeDelta { u, v, old, new })
        .collect()
}

/// A sorted per-node overlay row: `(target, Some(weight))` overrides
/// the base arc's weight (or inserts a new arc); `(target, None)`
/// tombstones it.
type OverlayRow = Vec<(NodeId, Option<f64>)>;

/// An edge-insert/delete overlay over a borrowed CSR snapshot. See the
/// [module docs](self).
#[derive(Debug, Clone)]
pub struct DeltaGraph<'g> {
    base: &'g Graph,
    overlay: BTreeMap<NodeId, OverlayRow>,
    /// Merged weighted degree of every touched node, recomputed after
    /// each mutation by summing the merged row in ascending-target
    /// order — the same order `Graph::from_edges` sums rows in, so the
    /// cached value is bit-identical to the compacted CSR's.
    degrees: BTreeMap<NodeId, f64>,
    version: u64,
}

impl<'g> DeltaGraph<'g> {
    /// An empty overlay over `base`.
    pub fn new(base: &'g Graph) -> Self {
        Self {
            base,
            overlay: BTreeMap::new(),
            degrees: BTreeMap::new(),
            version: 0,
        }
    }

    /// The borrowed base snapshot.
    pub fn base(&self) -> &Graph {
        self.base
    }

    /// Number of nodes (the overlay never adds or removes vertices;
    /// relabeling across such compactions is what the [`Permutation`]
    /// hook of [`Self::compact`] exists for).
    pub fn n(&self) -> usize {
        self.base.n()
    }

    /// Write cursor: advances once per applied mutation. Readers pair
    /// it with an immutable snapshot to detect concurrent edits.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Has any mutation been applied?
    pub fn is_dirty(&self) -> bool {
        !self.overlay.is_empty()
    }

    /// Nodes with at least one overlaid arc, ascending.
    pub fn touched_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.overlay.keys().copied()
    }

    /// Apply one [`EdgeOp`]; returns the edge's previous merged weight
    /// (`None` if it did not exist).
    pub fn apply(&mut self, op: &EdgeOp) -> Result<Option<f64>> {
        match *op {
            EdgeOp::Insert { u, v, weight } => self.insert_edge(u, v, weight),
            EdgeOp::Delete { u, v } => self.delete_edge(u, v),
        }
    }

    /// Insert `{u, v}` with `weight`, overwriting an existing weight.
    /// Returns the previous merged weight, if any.
    pub fn insert_edge(&mut self, u: NodeId, v: NodeId, weight: f64) -> Result<Option<f64>> {
        self.check_node(u)?;
        self.check_node(v)?;
        if !(weight.is_finite() && weight > 0.0) {
            return Err(GraphError::BadWeight(weight));
        }
        let old = self.lookup(u, v);
        self.set_overlay(u, v, Some(weight));
        if u != v {
            self.set_overlay(v, u, Some(weight));
        }
        self.refresh_degree(u);
        if u != v {
            self.refresh_degree(v);
        }
        self.version += 1;
        Ok(old)
    }

    /// Delete `{u, v}`. Returns the weight it had, or `None` (and
    /// leaves the overlay untouched) if the edge does not exist.
    pub fn delete_edge(&mut self, u: NodeId, v: NodeId) -> Result<Option<f64>> {
        self.check_node(u)?;
        self.check_node(v)?;
        let old = self.lookup(u, v);
        if old.is_none() {
            return Ok(None);
        }
        self.set_overlay(u, v, None);
        if u != v {
            self.set_overlay(v, u, None);
        }
        self.refresh_degree(u);
        if u != v {
            self.refresh_degree(v);
        }
        self.version += 1;
        Ok(old)
    }

    /// Merged weight of `{u, v}`, or 0.0 if absent. `O(log d)`:
    /// a binary search of the overlay row, then of the CSR row.
    pub fn edge_weight(&self, u: NodeId, v: NodeId) -> f64 {
        self.lookup(u, v).unwrap_or(0.0)
    }

    /// Whether `{u, v}` is an edge in the merged view.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.edge_weight(u, v) > 0.0
    }

    /// Merged weighted degree of `u` — bit-identical to what the
    /// compacted CSR reports.
    pub fn degree(&self, u: NodeId) -> f64 {
        match self.degrees.get(&u) {
            Some(&d) => d,
            None => self.base.degree(u),
        }
    }

    /// Merged total volume `Σ_u d_u`, summed in node order — the same
    /// order `Graph::from_edges` uses, so bit-identical to the
    /// compacted CSR's.
    pub fn total_volume(&self) -> f64 {
        if self.overlay.is_empty() {
            return self.base.total_volume();
        }
        (0..self.n() as NodeId).map(|u| self.degree(u)).sum()
    }

    /// Iterate over the merged `(neighbor, weight)` row of `u`, sorted
    /// by neighbor — element-for-element and bit-for-bit what the
    /// compacted CSR's `neighbors(u)` yields.
    pub fn neighbors(&self, u: NodeId) -> MergedNeighbors<'_> {
        MergedNeighbors {
            base: self.base.neighbors(u),
            base_peek: None,
            over: self
                .overlay
                .get(&u)
                .map_or(&[][..], |row| row.as_slice())
                .iter(),
            over_peek: None,
            primed: false,
        }
    }

    /// The accumulated edits as one canonical record per changed edge
    /// (ascending `(u, v)`, `u <= v`), dropping edits that net out to
    /// no change. This is the delta the residual repair kernel and the
    /// serve engine's sketch/answer maintenance consume.
    pub fn net_delta(&self) -> Vec<EdgeDelta> {
        let mut out = Vec::new();
        for (&u, row) in &self.overlay {
            for &(v, new) in row {
                if v < u {
                    continue; // recorded once, from the smaller endpoint
                }
                let old = match self.base.edge_weight(u, v) {
                    w if w > 0.0 => Some(w),
                    _ => None,
                };
                if weight_changed(old, new) {
                    out.push(EdgeDelta { u, v, old, new });
                }
            }
        }
        out
    }

    /// Fold the overlay into a fresh CSR and emit the relabeling hook.
    /// Rows the overlay never touched are block-copied from the base;
    /// only the touched rows are re-merged (`Graph::splice_rows`), so
    /// an 8-op delta on a 2.4M-arc graph costs a memcpy plus ≤ 16 short
    /// merges instead of re-sorting every arc, and an empty overlay is
    /// a plain copy. The result is the merged view exactly — same rows,
    /// degrees and volume, bit for bit — and is bit-identical to
    /// `Graph::from_edges` of the edited edge list whenever the base's
    /// cached degrees are ascending-target row sums (any `from_edges`
    /// or compacted graph; a `Graph::permute`d base keeps its copied
    /// degrees, where a rebuild would re-sum them in the new order).
    /// Nothing `from_edges` validates is skipped: nodes and weights are
    /// checked when an op is applied, and both arcs of an edge are
    /// always overlaid together. The permutation is the identity (the
    /// overlay neither adds nor drops vertices); callers should still
    /// route results through it, so a future compaction that renumbers
    /// vertices is a local change.
    pub fn compact(&self) -> Result<(Graph, Permutation)> {
        let identity = Permutation::identity(self.n());
        if self.overlay.is_empty() {
            return Ok((self.base.clone(), identity));
        }
        // Each overlay entry adds at most one arc to its row.
        let extra_arcs = self.overlay.values().map(Vec::len).sum();
        let g = self.base.splice_rows(
            self.overlay.keys().map(|&u| (u, self.neighbors(u))),
            extra_arcs,
        );
        Ok((g, identity))
    }

    fn check_node(&self, u: NodeId) -> Result<()> {
        if u as usize >= self.n() {
            return Err(GraphError::NodeOutOfRange {
                node: u,
                n: self.n(),
            });
        }
        Ok(())
    }

    /// Merged weight lookup as an `Option`.
    fn lookup(&self, u: NodeId, v: NodeId) -> Option<f64> {
        if let Some(row) = self.overlay.get(&u) {
            if let Ok(k) = row.binary_search_by_key(&v, |e| e.0) {
                return row[k].1;
            }
        }
        match self.base.edge_weight(u, v) {
            w if w > 0.0 => Some(w),
            _ => None,
        }
    }

    fn set_overlay(&mut self, u: NodeId, target: NodeId, val: Option<f64>) {
        let row = self.overlay.entry(u).or_default();
        match row.binary_search_by_key(&target, |e| e.0) {
            Ok(k) => row[k].1 = val,
            Err(k) => row.insert(k, (target, val)),
        }
    }

    fn refresh_degree(&mut self, u: NodeId) {
        let d: f64 = self.neighbors(u).map(|(_, w)| w).sum();
        self.degrees.insert(u, d);
    }
}

/// Iterator over a [`DeltaGraph`] node's merged `(neighbor, weight)`
/// row: a two-pointer merge of the CSR row and the overlay side-list,
/// both sorted by target. Overlay entries override (or tombstone) base
/// arcs with the same target.
pub struct MergedNeighbors<'a> {
    base: RowIter<'a>,
    base_peek: Option<(NodeId, f64)>,
    over: std::slice::Iter<'a, (NodeId, Option<f64>)>,
    over_peek: Option<(NodeId, Option<f64>)>,
    primed: bool,
}

impl Iterator for MergedNeighbors<'_> {
    type Item = (NodeId, f64);

    fn next(&mut self) -> Option<Self::Item> {
        if !self.primed {
            self.base_peek = self.base.next();
            self.over_peek = self.over.next().copied();
            self.primed = true;
        }
        loop {
            match (self.base_peek, self.over_peek) {
                (Some((bv, bw)), Some((ov, val))) => {
                    if bv < ov {
                        self.base_peek = self.base.next();
                        return Some((bv, bw));
                    }
                    if bv == ov {
                        self.base_peek = self.base.next();
                    }
                    self.over_peek = self.over.next().copied();
                    match val {
                        Some(w) => return Some((ov, w)),
                        None => continue, // tombstoned arc
                    }
                }
                (Some((bv, bw)), None) => {
                    self.base_peek = self.base.next();
                    return Some((bv, bw));
                }
                (None, Some((ov, val))) => {
                    self.over_peek = self.over.next().copied();
                    match val {
                        Some(w) => return Some((ov, w)),
                        None => continue,
                    }
                }
                (None, None) => return None,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use crate::gen::deterministic::{barbell, cycle};
    use proptest::prelude::*;

    fn bits(it: impl Iterator<Item = (NodeId, f64)>) -> Vec<(NodeId, u64)> {
        it.map(|(v, w)| (v, w.to_bits())).collect()
    }

    fn assert_bitwise_same(a: &Graph, b: &Graph) {
        assert_eq!(a.n(), b.n());
        assert_eq!(a.arc_count(), b.arc_count());
        for u in 0..a.n() as NodeId {
            assert_eq!(bits(a.neighbors(u)), bits(b.neighbors(u)), "row {u}");
            assert_eq!(a.degree(u).to_bits(), b.degree(u).to_bits(), "degree {u}");
        }
        assert_eq!(a.total_volume().to_bits(), b.total_volume().to_bits());
    }

    #[test]
    fn empty_overlay_reads_like_the_base() {
        let g = barbell(5, 2).unwrap();
        let d = DeltaGraph::new(&g);
        assert!(!d.is_dirty());
        assert_eq!(d.version(), 0);
        for u in 0..g.n() as NodeId {
            assert_eq!(bits(d.neighbors(u)), bits(g.neighbors(u)));
            assert_eq!(d.degree(u).to_bits(), g.degree(u).to_bits());
        }
        assert_eq!(d.total_volume().to_bits(), g.total_volume().to_bits());
        assert!(d.net_delta().is_empty());
        let (c, p) = d.compact().unwrap();
        assert!(p.is_identity());
        assert_bitwise_same(&c, &g);
    }

    #[test]
    fn insert_delete_reweight_round_trip() {
        let g = cycle(6).unwrap();
        let mut d = DeltaGraph::new(&g);
        // Insert a chord.
        assert_eq!(d.insert_edge(0, 3, 2.0).unwrap(), None);
        assert_eq!(d.edge_weight(0, 3), 2.0);
        assert_eq!(d.edge_weight(3, 0), 2.0);
        assert_eq!(d.degree(0), g.degree(0) + 2.0);
        // Reweight an existing base edge.
        assert_eq!(d.insert_edge(1, 2, 5.0).unwrap(), Some(1.0));
        assert_eq!(d.edge_weight(2, 1), 5.0);
        // Delete a base edge.
        assert_eq!(d.delete_edge(4, 5).unwrap(), Some(1.0));
        assert!(!d.has_edge(4, 5));
        assert_eq!(d.degree(4), 1.0);
        // Deleting a non-edge is a no-op.
        let v = d.version();
        assert_eq!(d.delete_edge(0, 2).unwrap(), None);
        assert_eq!(d.version(), v);

        let delta = d.net_delta();
        assert_eq!(
            delta,
            vec![
                EdgeDelta {
                    u: 0,
                    v: 3,
                    old: None,
                    new: Some(2.0)
                },
                EdgeDelta {
                    u: 1,
                    v: 2,
                    old: Some(1.0),
                    new: Some(5.0)
                },
                EdgeDelta {
                    u: 4,
                    v: 5,
                    old: Some(1.0),
                    new: None
                },
            ]
        );
        assert_eq!(delta[0].degree_change_at(0), 2.0);
        assert_eq!(delta[2].degree_change_at(5), -1.0);
        assert_eq!(delta[2].degree_change_at(0), 0.0);
    }

    #[test]
    fn merged_view_bit_identical_to_fresh_build() {
        let g = barbell(6, 3).unwrap();
        let mut d = DeltaGraph::new(&g);
        d.insert_edge(0, 14, 0.5).unwrap();
        d.delete_edge(0, 1).unwrap();
        d.insert_edge(3, 3, 1.25).unwrap(); // self-loop
        d.insert_edge(2, 4, 7.0).unwrap(); // reweight inside the clique
        d.delete_edge(6, 7).unwrap(); // bridge segment edge
                                      // Reference: fresh CSR from the edited edge list.
        let mut edges: Vec<(NodeId, NodeId, f64)> = g
            .edges()
            .filter(|&(u, v, _)| !((u, v) == (0, 1) || (u, v) == (6, 7)))
            .map(|(u, v, w)| {
                if (u, v) == (2, 4) {
                    (u, v, 7.0)
                } else {
                    (u, v, w)
                }
            })
            .collect();
        edges.push((0, 14, 0.5));
        edges.push((3, 3, 1.25));
        let fresh = Graph::from_edges(g.n(), edges).unwrap();
        for u in 0..g.n() as NodeId {
            assert_eq!(bits(d.neighbors(u)), bits(fresh.neighbors(u)), "row {u}");
            assert_eq!(d.degree(u).to_bits(), fresh.degree(u).to_bits());
        }
        assert_eq!(d.total_volume().to_bits(), fresh.total_volume().to_bits());
        let (compacted, perm) = d.compact().unwrap();
        assert!(perm.is_identity());
        assert_bitwise_same(&compacted, &fresh);
    }

    /// The independent reference `compact` is held to: a fresh
    /// `from_edges` sort-and-merge of the overlay's merged edge list.
    fn rebuilt(d: &DeltaGraph<'_>) -> Graph {
        let edges: Vec<(NodeId, NodeId, f64)> = (0..d.n() as NodeId)
            .flat_map(|u| {
                d.neighbors(u)
                    .filter(move |&(v, _)| v >= u)
                    .map(move |(v, w)| (u, v, w))
            })
            .collect();
        Graph::from_edges(d.n(), edges).unwrap()
    }

    #[test]
    fn splice_matches_a_rebuild_at_every_row_boundary() {
        let g = barbell(4, 2).unwrap(); // 10 nodes, weights 1.0
        let last = g.n() as NodeId - 1;
        type Edit = fn(&mut DeltaGraph<'_>, NodeId);
        let cases: [(&str, Edit); 6] = [
            ("empty overlay", |_, _| {}),
            ("first and last row", |d, last| {
                d.insert_edge(0, last, 0.75).unwrap();
            }),
            ("row emptied by deletes", |d, last| {
                let nbrs: Vec<NodeId> = d.neighbors(last).map(|(v, _)| v).collect();
                for v in nbrs {
                    d.delete_edge(last, v).unwrap();
                }
            }),
            ("self-loop", |d, _| {
                d.insert_edge(4, 4, 1.5).unwrap();
            }),
            ("insert that grows the last row", |d, last| {
                d.insert_edge(last, 2, 0.3).unwrap();
                d.insert_edge(last, last, 0.1).unwrap();
            }),
            ("adjacent touched rows, one netting out", |d, _| {
                d.insert_edge(4, 5, 2.0).unwrap();
                d.insert_edge(4, 5, 1.0).unwrap(); // back to the base weight
                d.delete_edge(5, 6).unwrap();
            }),
        ];
        for (name, edit) in cases {
            let mut d = DeltaGraph::new(&g);
            edit(&mut d, last);
            let (c, p) = d.compact().unwrap();
            assert!(p.is_identity(), "{name}");
            c.validate().unwrap();
            assert_bitwise_same(&c, &rebuilt(&d));
            for u in 0..g.n() as NodeId {
                assert_eq!(
                    bits(c.neighbors(u)),
                    bits(d.neighbors(u)),
                    "{name}: row {u}"
                );
                assert_eq!(c.degree(u).to_bits(), d.degree(u).to_bits(), "{name}");
            }
            assert_eq!(c.total_volume().to_bits(), d.total_volume().to_bits());
        }
    }

    #[test]
    fn splice_stays_bitwise_over_a_chain_of_weighted_compactions() {
        // Each compaction is the next one's base, so a row that was
        // spliced (not rebuilt) must carry a degree a rebuild agrees
        // with, however uneven the weights.
        let mut g = barbell(5, 1).unwrap();
        let n = g.n() as NodeId;
        for step in 0..6u32 {
            let mut d = DeltaGraph::new(&g);
            let (u, v) = ((step * 3) % n, (step * 5 + 1) % n);
            d.insert_edge(u, v, 0.1 + 0.7 * f64::from(step)).unwrap();
            if step % 2 == 1 {
                d.delete_edge(u, (u + 1) % n).unwrap();
            }
            let (c, _) = d.compact().unwrap();
            assert_bitwise_same(&c, &rebuilt(&d));
            g = c;
        }
    }

    #[test]
    fn lookup_is_consistent_after_overwrites() {
        let g = cycle(4).unwrap();
        let mut d = DeltaGraph::new(&g);
        d.insert_edge(0, 2, 1.0).unwrap();
        d.delete_edge(0, 2).unwrap();
        assert!(!d.has_edge(0, 2));
        assert!(d.net_delta().is_empty(), "insert+delete nets out");
        d.insert_edge(0, 2, 3.0).unwrap();
        assert_eq!(d.edge_weight(0, 2), 3.0);
        assert_eq!(d.net_delta().len(), 1);
        // Re-inserting the base weight of an existing edge nets out too.
        d.insert_edge(0, 1, 2.0).unwrap();
        d.insert_edge(0, 1, 1.0).unwrap();
        assert_eq!(d.net_delta().len(), 1);
    }

    #[test]
    fn composition_cancels_round_trips_and_keeps_the_first_old() {
        let g = cycle(6).unwrap();
        let step = |base: &Graph, edit: fn(&mut DeltaGraph<'_>)| {
            let mut d = DeltaGraph::new(base);
            edit(&mut d);
            let net = d.net_delta();
            (d.compact().unwrap().0, net)
        };
        let (g1, a) = step(&g, |d| {
            d.insert_edge(0, 3, 2.0).unwrap(); // insert …
            d.insert_edge(1, 2, 4.0).unwrap(); // reweight …
            d.delete_edge(4, 5).unwrap(); // delete …
        });
        let (_, b) = step(&g1, |d| {
            d.delete_edge(0, 3).unwrap(); // … then delete: cancels
            d.insert_edge(1, 2, 1.0).unwrap(); // … back to the base: cancels
            d.insert_edge(4, 5, 0.5).unwrap(); // … then re-insert: a reweight
            d.insert_edge(2, 5, 1.5).unwrap(); // a fresh insert
        });
        let composed = compose_net_deltas([a.as_slice(), b.as_slice()]);
        assert_eq!(
            composed,
            vec![
                EdgeDelta {
                    u: 2,
                    v: 5,
                    old: None,
                    new: Some(1.5)
                },
                EdgeDelta {
                    u: 4,
                    v: 5,
                    old: Some(1.0),
                    new: Some(0.5)
                },
            ]
        );
        // One record composes to itself; none to nothing.
        assert_eq!(compose_net_deltas([a.as_slice()]), a);
        assert!(compose_net_deltas(std::iter::empty::<&[EdgeDelta]>()).is_empty());
    }

    #[test]
    fn validates_nodes_and_weights() {
        let g = cycle(4).unwrap();
        let mut d = DeltaGraph::new(&g);
        assert!(d.insert_edge(0, 9, 1.0).is_err());
        assert!(d.insert_edge(9, 0, 1.0).is_err());
        assert!(d.insert_edge(0, 1, 0.0).is_err());
        assert!(d.insert_edge(0, 1, f64::NAN).is_err());
        assert!(d.insert_edge(0, 1, -1.0).is_err());
        assert!(d.delete_edge(9, 0).is_err());
        assert_eq!(d.version(), 0);
        assert!(!d.is_dirty());
    }

    #[test]
    fn touched_nodes_and_apply() {
        let g = cycle(5).unwrap();
        let mut d = DeltaGraph::new(&g);
        d.apply(&EdgeOp::Insert {
            u: 4,
            v: 1,
            weight: 1.0,
        })
        .unwrap();
        d.apply(&EdgeOp::Delete { u: 2, v: 3 }).unwrap();
        let touched: Vec<NodeId> = d.touched_nodes().collect();
        assert_eq!(touched, vec![1, 2, 3, 4]);
        assert_eq!(d.version(), 2);
    }

    /// An op stream over a cycle: `(kind, u, v, weight selector)`, kind
    /// 0 a delete,
    /// weights drawn from a set that includes the base weight 1.0 so
    /// reweights back to the original and insert-then-delete pairs
    /// happen often.
    fn apply_stream(d: &mut DeltaGraph<'_>, ops: &[(u8, u32, u32, u8)]) {
        let n = d.n() as NodeId;
        for &(kind, a, b, w) in ops {
            let (u, v) = (a % n, b % n);
            if kind == 0 {
                d.delete_edge(u, v).unwrap();
            } else {
                d.insert_edge(u, v, [1.0, 2.0, 0.5][w as usize]).unwrap();
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Two successive writes composed equal one overlay fed both op
        /// streams — bit for bit, cancellations included.
        #[test]
        fn composing_two_writes_equals_one_overlay_fed_both(
            n in 3usize..9,
            first in collection::vec((0u8..3, 0u32..9, 0u32..9, 0u8..3), 0..8),
            second in collection::vec((0u8..3, 0u32..9, 0u32..9, 0u8..3), 0..8),
        ) {
            let g = cycle(n).unwrap();
            let mut d1 = DeltaGraph::new(&g);
            apply_stream(&mut d1, &first);
            let a = d1.net_delta();
            let (g1, _) = d1.compact().unwrap();
            let mut d2 = DeltaGraph::new(&g1);
            apply_stream(&mut d2, &second);
            let b = d2.net_delta();

            let mut both = DeltaGraph::new(&g);
            apply_stream(&mut both, &first);
            apply_stream(&mut both, &second);
            let key = |ds: &[EdgeDelta]| -> Vec<(NodeId, NodeId, Option<u64>, Option<u64>)> {
                ds.iter()
                    .map(|d| (d.u, d.v, d.old.map(f64::to_bits), d.new.map(f64::to_bits)))
                    .collect()
            };
            prop_assert_eq!(
                key(&compose_net_deltas([a.as_slice(), b.as_slice()])),
                key(&both.net_delta())
            );
        }
    }
}
