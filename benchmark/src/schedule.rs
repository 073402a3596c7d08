//! Everything the seed generates besides the graph: the query stream,
//! open-loop arrival times, and the writer's edge operations. The
//! library under test only ever sees these generated inputs.

use acir_graph::{EdgeOp, Graph, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// Sub-stream tags, so the graph, queries, arrivals and writes of one
/// `--seed` are independent draws.
pub mod tag {
    /// Graph generation.
    pub const GRAPH: u64 = 0x0067_7261_7068;
    /// The small graph of `serve_read`'s size comparison.
    pub const GRAPH_SMALL: u64 = 0x0073_6d61_6c6c;
    /// Query stream.
    pub const QUERIES: u64 = 0x0071_7565_7279;
    /// Open-loop arrival gaps.
    pub const ARRIVALS: u64 = 0x6172_7269_7665;
    /// Writer edge operations.
    pub const WRITES: u64 = 0x0077_7269_7465;
    /// The pool of popular seed nodes.
    pub const POOL: u64 = 0x706f_6f6c;
}

/// A generator for one sub-stream of `seed`.
pub fn rng_for(seed: u64, tag: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// The shape of a workload's read traffic.
#[derive(Debug, Clone)]
pub struct QueryMix {
    /// Teleportation α of every query.
    pub alpha: f64,
    /// The finest ε in the mix, asked by `fine_share` of the queries.
    pub eps_fine: f64,
    /// The ε of the remaining queries.
    pub eps_coarse: f64,
    /// Share of queries at `eps_fine`.
    pub fine_share: f64,
    /// Every `sweep_every`-th query asks for a sweep cut (0 = never).
    pub sweep_every: usize,
    /// Size of the fixed pool of popular seed nodes.
    pub pool: usize,
    /// Share of queries seeded from the pool; the rest are uniform
    /// over all nodes.
    pub pool_share: f64,
    /// Zipf exponent over pool ranks (0 = uniform over the pool).
    pub zipf: f64,
}

/// One generated query, before it is turned into an engine `Query`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuerySpec {
    /// Seed node (external id).
    pub node: NodeId,
    /// Requested ε.
    pub epsilon: f64,
    /// Whether the query asks for a sweep cut.
    pub sweep: bool,
}

/// An endless, deterministic stream of [`QuerySpec`]s over `n` nodes.
#[derive(Debug, Clone)]
pub struct QueryStream {
    rng: StdRng,
    mix: QueryMix,
    n: usize,
    pool: Vec<NodeId>,
    /// Cumulative Zipf weights over pool ranks, normalized to 1.
    cdf: Vec<f64>,
    issued: usize,
}

impl QueryStream {
    /// The stream `seed` generates for `mix` over node ids `0..n`.
    /// Which nodes are popular belongs to the dataset, so the pool is
    /// drawn from `instance`; `seed` draws who asks for what, when.
    pub fn new(seed: u64, instance: u64, n: usize, mix: &QueryMix) -> Self {
        let mut pool_rng = rng_for(instance, tag::POOL);
        let pool: Vec<NodeId> = (0..mix.pool.min(n))
            .map(|_| pool_rng.gen_range(0..n as NodeId))
            .collect();
        let rng = rng_for(seed, tag::QUERIES);
        let mut cdf: Vec<f64> = Vec::with_capacity(pool.len());
        let mut total = 0.0;
        for rank in 0..pool.len() {
            total += 1.0 / ((rank + 1) as f64).powf(mix.zipf);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Self {
            rng,
            mix: mix.clone(),
            n,
            pool,
            cdf,
            issued: 0,
        }
    }
}

impl Iterator for QueryStream {
    type Item = QuerySpec;

    fn next(&mut self) -> Option<QuerySpec> {
        let from_pool = !self.pool.is_empty() && self.rng.gen_bool(self.mix.pool_share);
        let node = if from_pool {
            let x: f64 = self.rng.gen();
            let rank = self.cdf.partition_point(|&c| c < x);
            self.pool[rank.min(self.pool.len() - 1)]
        } else {
            self.rng.gen_range(0..self.n as NodeId)
        };
        let epsilon = if self.rng.gen_bool(self.mix.fine_share) {
            self.mix.eps_fine
        } else {
            self.mix.eps_coarse
        };
        let sweep = self.mix.sweep_every > 0 && self.issued.is_multiple_of(self.mix.sweep_every);
        self.issued += 1;
        Some(QuerySpec {
            node,
            epsilon,
            sweep,
        })
    }
}

/// Due times, in µs from the phase start, of `count` Poisson arrivals
/// at `rate_per_s`.
pub fn poisson_due_us(seed: u64, rate_per_s: f64, count: usize) -> Vec<u64> {
    let mut rng = rng_for(seed, tag::ARRIVALS);
    let mut t = 0.0f64;
    (0..count)
        .map(|_| {
            let u: f64 = rng.gen();
            t += -(1.0 - u).ln() / rate_per_s * 1e6;
            t as u64
        })
        .collect()
}

/// What the writer does at one due time.
#[derive(Debug, Clone, PartialEq)]
pub enum WriteKind {
    /// One `update_graph_delta` batch.
    Delta(Vec<EdgeOp>),
    /// One `compact(Rcm)`.
    Compact,
}

/// One scheduled write.
#[derive(Debug, Clone, PartialEq)]
pub struct WriteEvent {
    /// Due time in µs from the phase start.
    pub due_us: u64,
    /// The write.
    pub kind: WriteKind,
}

/// One 8-op delta batch: 5 inserts, 2 reweights and 1 delete, endpoints
/// in external ids of `g`. `removed` counts the edges deleted so far
/// at each node: a delete never takes a node below two of its original
/// edges, so no later query can meet a zero-degree seed.
pub fn delta_batch(
    rng: &mut StdRng,
    g: &Graph,
    removed: &mut BTreeMap<NodeId, usize>,
) -> Vec<EdgeOp> {
    let n = g.n() as NodeId;
    let mut ops = Vec::with_capacity(8);
    for k in 0..5 {
        let u = rng.gen_range(0..n);
        let mut v = rng.gen_range(0..n);
        if v == u {
            v = (v + 1) % n;
        }
        ops.push(EdgeOp::Insert {
            u,
            v,
            weight: 1.0 + 0.5 * (k % 3) as f64,
        });
    }
    for k in 0..2 {
        let u = rng.gen_range(0..n);
        let nbrs = g.neighbor_ids(u);
        let v = nbrs[rng.gen_range(0..nbrs.len())];
        ops.push(EdgeOp::Insert {
            u,
            v,
            weight: if k == 0 { 2.0 } else { 0.5 },
        });
    }
    let spare = |x: NodeId, removed: &BTreeMap<NodeId, usize>| {
        g.degree_unweighted(x) - removed.get(&x).copied().unwrap_or(0) >= 3
    };
    // Heavy-tailed graphs have plenty of degree-3 pairs; the bounded
    // search only guards a degenerate input.
    for _ in 0..10_000 {
        let u = rng.gen_range(0..n);
        if !spare(u, removed) {
            continue;
        }
        let nbrs = g.neighbor_ids(u);
        let v = nbrs[rng.gen_range(0..nbrs.len())];
        if v != u && spare(v, removed) {
            *removed.entry(u).or_insert(0) += 1;
            *removed.entry(v).or_insert(0) += 1;
            ops.push(EdgeOp::Delete { u, v });
            break;
        }
    }
    ops
}

#[cfg(test)]
mod tests {
    use super::*;
    use acir_graph::gen::random::barabasi_albert;

    fn mix() -> QueryMix {
        QueryMix {
            alpha: 0.1,
            eps_fine: 1e-5,
            eps_coarse: 1e-4,
            fine_share: 0.25,
            sweep_every: 3,
            pool: 64,
            pool_share: 0.3,
            zipf: 1.0,
        }
    }

    /// The whole schedule of a run, rendered to bytes.
    fn schedule_bytes(seed: u64) -> Vec<u8> {
        let g = barabasi_albert(&mut rng_for(1, tag::GRAPH), 500, 3).unwrap();
        let queries: Vec<QuerySpec> = QueryStream::new(seed, 1, g.n(), &mix()).take(300).collect();
        let due = poisson_due_us(seed, 200.0, 300);
        let mut rng = rng_for(seed, tag::WRITES);
        let mut removed = BTreeMap::new();
        let writes: Vec<Vec<EdgeOp>> = (0..6)
            .map(|_| delta_batch(&mut rng, &g, &mut removed))
            .collect();
        format!("{queries:?}|{due:?}|{writes:?}").into_bytes()
    }

    #[test]
    fn same_seed_gives_a_byte_identical_schedule() {
        assert_eq!(schedule_bytes(0xAC1D), schedule_bytes(0xAC1D));
        assert_ne!(schedule_bytes(0xAC1D), schedule_bytes(0xAC1E));
    }

    #[test]
    fn query_mix_has_the_stated_shares() {
        let qs: Vec<QuerySpec> = QueryStream::new(7, 1, 10_000, &mix()).take(9_000).collect();
        let fine = qs.iter().filter(|q| q.epsilon == 1e-5).count() as f64 / 9_000.0;
        assert!((fine - 0.25).abs() < 0.02, "fine share {fine}");
        assert_eq!(qs.iter().filter(|q| q.sweep).count(), 3_000);
        assert!(qs.iter().all(|q| (q.node as usize) < 10_000));
    }

    #[test]
    fn arrivals_are_monotone_at_the_stated_rate() {
        let due = poisson_due_us(3, 200.0, 20_000);
        assert!(due.windows(2).all(|w| w[0] <= w[1]));
        let rate = 20_000.0 / (*due.last().unwrap() as f64 / 1e6);
        assert!((rate - 200.0).abs() < 6.0, "rate {rate}");
    }

    #[test]
    fn delta_batches_have_the_stated_shape() {
        let mut rng = rng_for(1, tag::GRAPH);
        let g = barabasi_albert(&mut rng, 500, 3).unwrap();
        let mut removed = BTreeMap::new();
        let mut rng = rng_for(1, tag::WRITES);
        for _ in 0..20 {
            let ops = delta_batch(&mut rng, &g, &mut removed);
            assert_eq!(ops.len(), 8);
            assert!(matches!(ops[7], EdgeOp::Delete { .. }));
            assert_eq!(
                ops.iter()
                    .filter(|o| matches!(o, EdgeOp::Insert { .. }))
                    .count(),
                7
            );
        }
        for (&u, &k) in &removed {
            assert!(g.degree_unweighted(u) - k >= 2);
        }
    }
}
