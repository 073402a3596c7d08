//! The graphs the workloads run on.

use crate::schedule::rng_for;
use acir_graph::gen::community::{social_network, SocialNetworkParams};
use acir_graph::gen::random::{forest_fire, rmat};
use acir_graph::traversal::largest_component;
use acir_graph::Graph;

/// Generator seed of every graph. The graphs are *datasets*: they do
/// not change with `--seed`, which draws the traffic on them (query
/// stream, arrival gaps, write endpoints, diffusion seeds, NCP sample).
///
/// Two measurements forced this. Across ten graph seeds the forest-fire
/// hub structure moved `serve_sketch` throughput between 111 and
/// 270 req/s and its peak memory between 205 and 389 MiB, and
/// `serve_read` throughput between 490 and 662 req/s — instance
/// variation several times any bound a later change would be held to.
/// And `fiedler_vector` doubles its Krylov dimension until the residual
/// certifies, so on the surrogate one more doubling costs 4× (5.6 s
/// against 24.7 s between two seeds of the same size). Of the first
/// eight surrogate seeds this one certifies with the widest margin
/// (residual 9.9e-10 against the 1e-8 tolerance), so it sits furthest
/// from that cliff.
pub const INSTANCE: u64 = 1;

/// Forward-burning probability of every forest-fire graph here: the
/// whisker-rich regime of the paper's Figure 1 (≈1.94 edges per node,
/// max degree ≈110 at n = 500 000).
pub const FOREST_FIRE_P: f64 = 0.37;

/// Forest-fire graph on `n` nodes. Connected by construction: every
/// new node links to its ambassador.
pub fn forest_fire_graph(tag: u64, n: usize) -> Graph {
    forest_fire(&mut rng_for(INSTANCE, tag), n, FOREST_FIRE_P)
        .expect("forest_fire parameters are valid")
}

/// Largest component of an R-MAT graph with the Graph500 quadrant
/// probabilities: a heavy hub (max degree ≈ n/7) over a skewed tail.
pub fn rmat_lcc(tag: u64, scale: u32, edge_factor: usize) -> Graph {
    let g = rmat(
        &mut rng_for(INSTANCE, tag),
        scale,
        edge_factor,
        (0.57, 0.19, 0.19, 0.05),
    )
    .expect("rmat parameters are valid");
    largest_component(&g).0
}

/// Largest component of the `servebench` social-network surrogate with
/// every size parameter multiplied by `scale`.
pub fn social_lcc(tag: u64, scale: f64) -> Graph {
    let sc = |x: usize| ((x as f64 * scale).round() as usize).max(1);
    let params = SocialNetworkParams {
        core_nodes: sc(2000),
        core_attach: 4,
        communities: sc(30),
        community_size_range: (8, sc(300).max(9)),
        whiskers: sc(80),
        whisker_max_len: 10,
        ..Default::default()
    };
    let pc = social_network(&mut rng_for(INSTANCE, tag), &params)
        .expect("surrogate parameters are valid");
    largest_component(&pc.graph).0
}

/// Bytes of CSR per undirected edge, computed from the array lengths:
/// `n + 1` offsets (8 B), one id (4 B) and one weight (8 B) per arc,
/// and `n` cached degrees (8 B).
pub fn csr_bytes_per_edge(g: &Graph) -> f64 {
    let bytes = (g.n() + 1) * 8 + g.arc_count() * 12 + g.n() * 8;
    bytes as f64 / g.m().max(1) as f64
}
