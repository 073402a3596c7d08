//! Vertex permutations and locality-improving graph reorderings.
//!
//! CSR traversal speed is dominated by the memory distance between a
//! row and the rows of its neighbors: a diffusion whose support is a
//! tight community still takes cache misses on every hop if the input
//! file happened to number that community's vertices far apart. A
//! [`Permutation`] relabels vertices; [`Permutation::rcm`] (reverse
//! Cuthill–McKee) and [`Permutation::degree_descending`] produce
//! orderings that shrink the CSR *bandwidth* (mean |u − v| over arcs,
//! see [`bandwidth_stats`]) so breadth-first-shaped workloads — BFS,
//! push diffusions, SpMV — touch near-contiguous memory.
//!
//! Reordering is **opt-in and reversible**: `Graph::permute` returns a
//! relabelled graph, and the permutation object maps seeds forward and
//! results (node sets, dense per-vertex vectors) back, so a caller can
//! run `permute → compute → inverse-map` and compare against the
//! direct computation. Which computations are *bit*-identical under
//! that round trip is a per-kernel property (documented in DESIGN.md
//! §9): set-valued outputs (sweep cuts, communities) and unweighted
//! integer-weight conductances are exact; accumulation-order-sensitive
//! floating-point results (Lanczos, long dot products) agree to
//! rounding.

use crate::{Graph, GraphError, NodeId, Result};

/// A bijective relabelling of the vertex set `0..n`.
///
/// Stored in both directions so mapping is `O(1)` either way:
/// `to_new(old)` and `to_old(new)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Permutation {
    /// `new_of_old[old] = new`.
    new_of_old: Vec<NodeId>,
    /// `old_of_new[new] = old`.
    old_of_new: Vec<NodeId>,
}

impl Permutation {
    /// The identity permutation on `n` vertices.
    pub fn identity(n: usize) -> Self {
        let ids: Vec<NodeId> = (0..n as NodeId).collect();
        Self {
            new_of_old: ids.clone(),
            old_of_new: ids,
        }
    }

    /// Build from the forward map `new_of_old[old] = new`.
    ///
    /// Errors unless the map is a bijection on `0..len`.
    pub fn from_new_of_old(new_of_old: Vec<NodeId>) -> Result<Self> {
        let n = new_of_old.len();
        let mut old_of_new = vec![NodeId::MAX; n];
        for (old, &new) in new_of_old.iter().enumerate() {
            if new as usize >= n {
                return Err(GraphError::NodeOutOfRange { node: new, n });
            }
            if old_of_new[new as usize] != NodeId::MAX {
                return Err(GraphError::InvalidArgument(format!(
                    "permutation maps two vertices to {new}"
                )));
            }
            old_of_new[new as usize] = old as NodeId;
        }
        Ok(Self {
            new_of_old,
            old_of_new,
        })
    }

    /// Build from the backward map `old_of_new[new] = old` (i.e. the
    /// order in which old vertices should be laid out).
    pub fn from_old_of_new(old_of_new: Vec<NodeId>) -> Result<Self> {
        Ok(Self::from_new_of_old(old_of_new)?.inverse())
    }

    /// Number of vertices.
    #[inline]
    pub fn len(&self) -> usize {
        self.new_of_old.len()
    }

    /// Whether the permutation is over an empty vertex set.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.new_of_old.is_empty()
    }

    /// Map an old vertex id to its new id.
    #[inline]
    pub fn to_new(&self, old: NodeId) -> NodeId {
        self.new_of_old[old as usize]
    }

    /// Map a new vertex id back to its old id.
    #[inline]
    pub fn to_old(&self, new: NodeId) -> NodeId {
        self.old_of_new[new as usize]
    }

    /// The inverse permutation (swaps the two directions; `O(1)` data
    /// movement beyond the clones).
    pub fn inverse(&self) -> Permutation {
        Permutation {
            new_of_old: self.old_of_new.clone(),
            old_of_new: self.new_of_old.clone(),
        }
    }

    /// Compose with a second relabeling applied *after* this one:
    /// `self.then(next).to_new(u) == next.to_new(self.to_new(u))`.
    ///
    /// This is the lineage accumulator for snapshot chains
    /// ([`crate::snapshot::SnapshotStore`]): each relabeling compaction
    /// contributes one `step` permutation, and the composed product
    /// maps root-snapshot ids directly into the newest snapshot's ids.
    /// Panics if the two permutations disagree on length (distinct
    /// vertex universes cannot be chained).
    pub fn then(&self, next: &Permutation) -> Permutation {
        assert_eq!(
            self.len(),
            next.len(),
            "cannot compose permutations over different vertex counts"
        );
        let new_of_old: Vec<NodeId> = self.new_of_old.iter().map(|&m| next.to_new(m)).collect();
        let old_of_new: Vec<NodeId> = next.old_of_new.iter().map(|&m| self.to_old(m)).collect();
        Permutation {
            new_of_old,
            old_of_new,
        }
    }

    /// Whether this is the identity.
    pub fn is_identity(&self) -> bool {
        self.new_of_old
            .iter()
            .enumerate()
            .all(|(i, &v)| v as usize == i)
    }

    /// Map a set of old vertex ids into new ids, **sorted ascending**
    /// (the canonical form for node sets throughout the workspace).
    pub fn map_nodes(&self, nodes: &[NodeId]) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = nodes.iter().map(|&u| self.to_new(u)).collect();
        out.sort_unstable();
        out
    }

    /// Map a set of new vertex ids back to old ids, sorted ascending.
    pub fn unmap_nodes(&self, nodes: &[NodeId]) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = nodes.iter().map(|&u| self.to_old(u)).collect();
        out.sort_unstable();
        out
    }

    /// Re-lay-out a dense per-vertex array from old indexing to new
    /// indexing: `out[new] = values[old]`.
    pub fn map_values<T: Copy>(&self, values: &[T]) -> Vec<T> {
        debug_assert_eq!(values.len(), self.len());
        self.old_of_new
            .iter()
            .map(|&old| values[old as usize])
            .collect()
    }

    /// Re-lay-out a dense per-vertex array from new indexing back to
    /// old indexing: `out[old] = values[new]`.
    pub fn unmap_values<T: Copy>(&self, values: &[T]) -> Vec<T> {
        debug_assert_eq!(values.len(), self.len());
        self.new_of_old
            .iter()
            .map(|&new| values[new as usize])
            .collect()
    }

    /// Map a sparse `(node, value)` vector (old ids) into new ids,
    /// re-sorted by node id.
    pub fn map_sparse(&self, pairs: &[(NodeId, f64)]) -> Vec<(NodeId, f64)> {
        let mut out: Vec<(NodeId, f64)> = pairs.iter().map(|&(u, x)| (self.to_new(u), x)).collect();
        out.sort_unstable_by_key(|&(u, _)| u);
        out
    }

    /// Map a sparse `(node, value)` vector (new ids) back to old ids,
    /// re-sorted by node id.
    pub fn unmap_sparse(&self, pairs: &[(NodeId, f64)]) -> Vec<(NodeId, f64)> {
        let mut out: Vec<(NodeId, f64)> = pairs.iter().map(|&(u, x)| (self.to_old(u), x)).collect();
        out.sort_unstable_by_key(|&(u, _)| u);
        out
    }

    /// Reverse Cuthill–McKee ordering.
    ///
    /// Per connected component (components taken in order of their
    /// minimum-`(degree, id)` vertex): breadth-first search from that
    /// pseudo-peripheral start, visiting neighbors in ascending
    /// `(unweighted degree, id)` order, then reverse the concatenated
    /// visit order. Deterministic — a pure function of the adjacency
    /// structure. Isolated vertices keep their relative order at the
    /// front of the reversed layout's component sequence.
    pub fn rcm(g: &Graph) -> Permutation {
        let n = g.n();
        let mut visited = vec![false; n];
        let mut order: Vec<NodeId> = Vec::with_capacity(n);
        let mut queue: std::collections::VecDeque<NodeId> = std::collections::VecDeque::new();
        let mut neigh: Vec<NodeId> = Vec::new();

        // Component starts: ascending (degree, id) over all vertices.
        let mut starts: Vec<NodeId> = (0..n as NodeId).collect();
        starts.sort_unstable_by_key(|&u| (g.degree_unweighted(u), u));

        for &s in &starts {
            if visited[s as usize] {
                continue;
            }
            visited[s as usize] = true;
            queue.push_back(s);
            while let Some(u) = queue.pop_front() {
                order.push(u);
                neigh.clear();
                neigh.extend(
                    g.neighbor_ids(u)
                        .iter()
                        .copied()
                        .filter(|&v| !visited[v as usize]),
                );
                neigh.sort_unstable_by_key(|&v| (g.degree_unweighted(v), v));
                for &v in &neigh {
                    visited[v as usize] = true;
                    queue.push_back(v);
                }
            }
        }
        order.reverse();
        Self::from_old_of_new(order).expect("BFS visit order is a bijection")
    }

    /// Hub-first ordering: vertices sorted by descending unweighted
    /// degree, ties broken by ascending id.
    ///
    /// Packs the high-degree core — which most diffusions repeatedly
    /// traverse — into one contiguous, cache-resident prefix.
    pub fn degree_descending(g: &Graph) -> Permutation {
        let mut order: Vec<NodeId> = (0..g.n() as NodeId).collect();
        order.sort_unstable_by_key(|&u| (std::cmp::Reverse(g.degree_unweighted(u)), u));
        Self::from_old_of_new(order).expect("a sort of 0..n is a bijection")
    }
}

/// CSR bandwidth statistics: the distribution of `|u − v|` over stored
/// arcs. Locality-improving orderings shrink these (pinned for RCM
/// by this module's tests).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BandwidthStats {
    /// Largest |u − v| over arcs (0 for edgeless graphs).
    pub max: usize,
    /// Mean |u − v| over arcs (0.0 for edgeless graphs).
    pub mean: f64,
}

/// Compute [`BandwidthStats`] for a graph in its current vertex order.
pub fn bandwidth_stats(g: &Graph) -> BandwidthStats {
    let mut max = 0usize;
    let mut sum = 0u64;
    let mut arcs = 0u64;
    for u in 0..g.n() as NodeId {
        for v in g.neighbor_ids(u) {
            let d = u.abs_diff(*v) as usize;
            max = max.max(d);
            sum += d as u64;
            arcs += 1;
        }
    }
    BandwidthStats {
        max,
        mean: if arcs == 0 {
            0.0
        } else {
            sum as f64 / arcs as f64
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::deterministic::{barbell, cycle, path};

    #[test]
    fn identity_and_inverse() {
        let p = Permutation::identity(5);
        assert!(p.is_identity());
        assert_eq!(p.len(), 5);
        assert_eq!(p.to_new(3), 3);
        assert_eq!(p.inverse(), p);
    }

    #[test]
    fn from_new_of_old_validates() {
        assert!(Permutation::from_new_of_old(vec![0, 0]).is_err());
        assert!(Permutation::from_new_of_old(vec![0, 7]).is_err());
        let p = Permutation::from_new_of_old(vec![2, 0, 1]).unwrap();
        assert_eq!(p.to_new(0), 2);
        assert_eq!(p.to_old(2), 0);
        assert!(!p.is_identity());
        let q = p.inverse();
        assert_eq!(q.to_new(2), 0);
        assert_eq!(q.inverse(), p);
    }

    #[test]
    fn map_and_unmap_round_trip() {
        let p = Permutation::from_new_of_old(vec![3, 1, 0, 2]).unwrap();
        let set = vec![0u32, 2];
        let mapped = p.map_nodes(&set);
        assert_eq!(mapped, vec![0, 3]); // {to_new(0)=3, to_new(2)=0} sorted
        assert_eq!(p.unmap_nodes(&mapped), set);

        let dense = vec![10.0, 11.0, 12.0, 13.0];
        let re = p.map_values(&dense);
        assert_eq!(p.unmap_values(&re), dense);
        for old in 0..4u32 {
            assert_eq!(re[p.to_new(old) as usize], dense[old as usize]);
        }

        let sparse = vec![(1u32, 0.5), (3u32, 0.25)];
        let ms = p.map_sparse(&sparse);
        assert!(ms.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(p.unmap_sparse(&ms), sparse);
    }

    #[test]
    fn rcm_shrinks_bandwidth_on_shuffled_path() {
        // A path relabelled by a decimation permutation has terrible
        // bandwidth; RCM recovers (a reflection of) the natural order.
        let n = 64usize;
        let scramble: Vec<NodeId> = (0..n as NodeId).map(|i| (i * 37) % n as NodeId).collect();
        let p = Permutation::from_new_of_old(scramble).unwrap();
        let g = path(n).unwrap().permute(&p).unwrap();
        let before = bandwidth_stats(&g);
        let rcm = Permutation::rcm(&g);
        let after = bandwidth_stats(&g.permute(&rcm).unwrap());
        assert_eq!(after.max, 1, "RCM must restore the path layout");
        assert!(before.mean > after.mean);
    }

    #[test]
    fn rcm_is_a_bijection_with_components() {
        // Two components + an isolated vertex.
        let mut edges: Vec<(NodeId, NodeId)> = (0..5).map(|i| (i, i + 1)).collect();
        edges.extend([(7, 8), (8, 9)]);
        let g = Graph::from_pairs(11, edges).unwrap();
        let p = Permutation::rcm(&g);
        assert_eq!(p.len(), 11);
        let mut seen = [false; 11];
        for u in 0..11u32 {
            let v = p.to_new(u) as usize;
            assert!(!seen[v]);
            seen[v] = true;
            assert_eq!(p.to_old(p.to_new(u)), u);
        }
    }

    #[test]
    fn degree_descending_puts_hubs_first() {
        let g = barbell(5, 3).unwrap(); // cliques of degree 4+, path of degree 2
        let p = Permutation::degree_descending(&g);
        let first = p.to_old(0);
        let last = p.to_old(g.n() as NodeId - 1);
        assert!(g.degree_unweighted(first) >= g.degree_unweighted(last));
        // Ties break by ascending old id, so the layout is deterministic.
        let q = Permutation::degree_descending(&g);
        assert_eq!(p, q);
    }

    #[test]
    fn bandwidth_stats_known_values() {
        let g = cycle(6).unwrap();
        let b = bandwidth_stats(&g);
        // Cycle arcs: |u−v| = 1 except the wrap arc (5−0) twice.
        assert_eq!(b.max, 5);
        assert!((b.mean - (10.0 + 2.0 * 5.0) / 12.0).abs() < 1e-12);
        let empty = Graph::from_pairs(3, []).unwrap();
        assert_eq!(bandwidth_stats(&empty).max, 0);
        assert_eq!(bandwidth_stats(&empty).mean, 0.0);
    }
}
