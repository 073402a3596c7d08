//! Spectral embeddings and k-way spectral clustering.
//!
//! §3.1: the leading eigenvectors "can be used for classification and
//! other common machine learning tasks"; §3.2 notes the spectral
//! relaxation "effectively embeds the data on the one-dimensional span
//! of v₂". This module generalizes both beyond the bisection case:
//! embed each node as the row of the first `k` nontrivial eigenvectors
//! (degree-rescaled, i.e. the diffusion-map convention), then cluster
//! the rows with Lloyd's k-means (k-means++ seeding) — the standard
//! k-way spectral clustering pipeline.

use crate::fiedler::DENSE_CUTOFF;
use crate::laplacian::{normalized_laplacian, trivial_eigenvector};
use crate::{Result, SpectralError};
use acir_graph::{Graph, NodeId};
use acir_linalg::lanczos::smallest_eigenpairs_restarted;
use acir_linalg::{vector, SymEig};
use rand::Rng;

/// A spectral embedding: `coords[u]` is node `u`'s `k`-dimensional
/// coordinate row.
#[derive(Debug, Clone)]
pub struct SpectralEmbedding {
    /// Node coordinates (n rows × k columns).
    pub coords: Vec<Vec<f64>>,
    /// The eigenvalues `λ₂ ≤ … ≤ λ_{k+1}` behind the columns.
    pub eigenvalues: Vec<f64>,
}

/// Embed the nodes of a connected graph with the first `k` nontrivial
/// eigenvectors of the normalized Laplacian, each column rescaled as
/// `D^{−1/2} v` (so coordinates live in the random-walk geometry).
///
/// Up to [`DENSE_CUTOFF`] nodes the pairs come from the dense Jacobi
/// solver; above it from thick-restart Lanczos, each pair with residual
/// `‖𝓛v − λv‖₂ ≤ 1e-8` (else the call fails with
/// `LinalgError::NotConverged`).
pub fn spectral_embedding(g: &Graph, k: usize) -> Result<SpectralEmbedding> {
    let n = g.n();
    if k == 0 || k + 1 > n {
        return Err(SpectralError::InvalidArgument(format!(
            "need 1 <= k <= n-1, got k = {k} with n = {n}"
        )));
    }
    if !acir_graph::traversal::is_connected(g) {
        return Err(SpectralError::InvalidArgument(
            "spectral_embedding requires a connected graph".into(),
        ));
    }
    let nl = normalized_laplacian(g);
    let v1 = trivial_eigenvector(g);
    let (vals, vecs) = if n <= DENSE_CUTOFF {
        let eig = SymEig::new(&nl.to_dense())?;
        let vals = eig.eigenvalues[1..=k].to_vec();
        let vecs: Vec<Vec<f64>> = (1..=k).map(|i| eig.eigenvector(i)).collect();
        (vals, vecs)
    } else {
        smallest_eigenpairs_restarted(&nl, k, std::slice::from_ref(&v1), 1e-8)?
    };
    let mut coords = vec![vec![0.0; k]; n];
    for (j, v) in vecs.iter().enumerate() {
        for (u, row) in coords.iter_mut().enumerate() {
            let d = g.degree(u as NodeId);
            row[j] = if d > 0.0 { v[u] / d.sqrt() } else { 0.0 };
        }
    }
    Ok(SpectralEmbedding {
        coords,
        eigenvalues: vals,
    })
}

/// Lloyd's k-means with k-means++ seeding on a point set.
///
/// Returns `(assignment, centroids, inertia)`. Deterministic given the
/// RNG. Errors on empty input or `k` larger than the point count.
pub fn kmeans(
    points: &[Vec<f64>],
    k: usize,
    max_iters: usize,
    rng: &mut impl Rng,
) -> Result<(Vec<u32>, Vec<Vec<f64>>, f64)> {
    let n = points.len();
    if n == 0 || k == 0 || k > n {
        return Err(SpectralError::InvalidArgument(format!(
            "kmeans needs 0 < k <= n, got k = {k}, n = {n}"
        )));
    }
    let dim = points[0].len();
    if points.iter().any(|p| p.len() != dim) {
        return Err(SpectralError::InvalidArgument("ragged point set".into()));
    }

    // k-means++ seeding.
    let mut centroids: Vec<Vec<f64>> = Vec::with_capacity(k);
    centroids.push(points[rng.gen_range(0..n)].clone());
    let mut d2 = vec![f64::INFINITY; n];
    while centroids.len() < k {
        let last = centroids.last().unwrap();
        let mut total = 0.0;
        for (p, slot) in points.iter().zip(d2.iter_mut()) {
            let d = vector::dist2(p, last);
            *slot = slot.min(d * d);
            total += *slot;
        }
        let next = if total <= 0.0 {
            // All remaining points coincide with a centroid.
            rng.gen_range(0..n)
        } else {
            let mut target = rng.gen_range(0.0..total);
            let mut chosen = n - 1;
            for (i, &w) in d2.iter().enumerate() {
                if target < w {
                    chosen = i;
                    break;
                }
                target -= w;
            }
            chosen
        };
        centroids.push(points[next].clone());
    }

    // Lloyd iterations.
    let mut assignment = vec![0u32; n];
    let mut inertia = f64::INFINITY;
    for _ in 0..max_iters.max(1) {
        // Assign.
        let mut new_inertia = 0.0;
        for (i, p) in points.iter().enumerate() {
            let (best, best_d) = centroids
                .iter()
                .enumerate()
                .map(|(c, cen)| (c, vector::dist2(p, cen)))
                .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
                .unwrap();
            assignment[i] = best as u32;
            new_inertia += best_d * best_d;
        }
        // Update.
        let mut sums = vec![vec![0.0; dim]; k];
        let mut counts = vec![0usize; k];
        for (p, &a) in points.iter().zip(&assignment) {
            vector::axpy(1.0, p, &mut sums[a as usize]);
            counts[a as usize] += 1;
        }
        for (c, (sum, &count)) in sums.iter().zip(&counts).enumerate() {
            if count > 0 {
                for (slot, &s) in centroids[c].iter_mut().zip(sum) {
                    *slot = s / count as f64;
                }
            }
        }
        if (inertia - new_inertia).abs() < 1e-12 {
            inertia = new_inertia;
            break;
        }
        inertia = new_inertia;
    }
    Ok((assignment, centroids, inertia))
}

/// k-way spectral clustering: embed with `k − 1` nontrivial
/// eigenvectors (the standard choice for `k` clusters) and run
/// k-means, keeping the best of `restarts` seedings by inertia.
pub fn spectral_clustering(
    g: &Graph,
    k: usize,
    restarts: usize,
    rng: &mut impl Rng,
) -> Result<Vec<u32>> {
    if k < 2 {
        return Err(SpectralError::InvalidArgument(
            "need k >= 2 clusters".into(),
        ));
    }
    let emb = spectral_embedding(g, k - 1)?;
    let mut best: Option<(Vec<u32>, f64)> = None;
    for _ in 0..restarts.max(1) {
        let (assign, _, inertia) = kmeans(&emb.coords, k, 100, rng)?;
        match &best {
            Some((_, bi)) if *bi <= inertia => {}
            _ => best = Some((assign, inertia)),
        }
    }
    Ok(best.expect("restarts >= 1").0)
}

/// Adjusted Rand index between two clusterings, in `[-0.5, 1]`
/// (1 = identical up to relabeling; ≈ 0 = chance).
pub fn adjusted_rand_index(a: &[u32], b: &[u32]) -> f64 {
    assert_eq!(a.len(), b.len());
    let n = a.len();
    if n < 2 {
        return 1.0;
    }
    let ka = a.iter().copied().max().map_or(0, |m| m as usize + 1);
    let kb = b.iter().copied().max().map_or(0, |m| m as usize + 1);
    let mut table = vec![vec![0u64; kb]; ka];
    for (&x, &y) in a.iter().zip(b) {
        table[x as usize][y as usize] += 1;
    }
    let choose2 = |x: u64| -> f64 { (x * x.saturating_sub(1)) as f64 / 2.0 };
    let sum_ij: f64 = table.iter().flatten().map(|&x| choose2(x)).sum();
    let sum_a: f64 = table
        .iter()
        .map(|row| choose2(row.iter().sum::<u64>()))
        .sum();
    let sum_b: f64 = (0..kb)
        .map(|j| choose2(table.iter().map(|row| row[j]).sum::<u64>()))
        .sum();
    let total = choose2(n as u64);
    let expected = sum_a * sum_b / total;
    let max_index = 0.5 * (sum_a + sum_b);
    if (max_index - expected).abs() < 1e-12 {
        return 1.0;
    }
    (sum_ij - expected) / (max_index - expected)
}

#[cfg(test)]
mod tests {
    use super::*;
    use acir_graph::gen::community::planted_partition;
    use acir_graph::gen::deterministic::{cycle, ring_of_cliques};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn embedding_shape_and_orthogonality() {
        let g = cycle(12).unwrap();
        let emb = spectral_embedding(&g, 3).unwrap();
        assert_eq!(emb.coords.len(), 12);
        assert_eq!(emb.coords[0].len(), 3);
        assert_eq!(emb.eigenvalues.len(), 3);
        // Eigenvalues ascend and are nontrivial.
        assert!(emb.eigenvalues[0] > 1e-9);
        assert!(emb.eigenvalues.windows(2).all(|w| w[0] <= w[1] + 1e-12));
    }

    #[test]
    fn sparse_route_pairs_match_dense_and_are_thread_stable() {
        let mut rng = StdRng::seed_from_u64(5);
        let er = acir_graph::gen::random::erdos_renyi_gnp(&mut rng, 420, 0.03).unwrap();
        let g = acir_graph::traversal::largest_component(&er).0;
        assert!(g.n() > DENSE_CUTOFF);
        let k = 3;
        let before = std::env::var_os("ACIR_THREADS");
        let runs: Vec<SpectralEmbedding> = ["1", "4"]
            .iter()
            .map(|threads| {
                std::env::set_var("ACIR_THREADS", threads);
                spectral_embedding(&g, k).unwrap()
            })
            .collect();
        match before {
            Some(v) => std::env::set_var("ACIR_THREADS", v),
            None => std::env::remove_var("ACIR_THREADS"),
        }
        let bits = |e: &SpectralEmbedding| -> Vec<u64> {
            let coords = e.coords.iter().flatten();
            e.eigenvalues
                .iter()
                .chain(coords)
                .map(|x| x.to_bits())
                .collect()
        };
        assert_eq!(bits(&runs[0]), bits(&runs[1]), "ACIR_THREADS 1 vs 4");

        let nl = normalized_laplacian(&g);
        let dense = SymEig::new(&nl.to_dense()).unwrap();
        let emb = &runs[0];
        for (j, &lam) in emb.eigenvalues.iter().enumerate() {
            let want = dense.eigenvalues[j + 1];
            assert!((lam - want).abs() <= 1e-8, "λ{}: {lam} vs {want}", j + 2);
            // Undo the D^{−1/2} rescaling to recover the Laplacian pair.
            let v: Vec<f64> = (0..g.n())
                .map(|u| emb.coords[u][j] * g.degree(u as NodeId).sqrt())
                .collect();
            let mut r = vec![0.0; g.n()];
            nl.matvec(&v, &mut r);
            vector::axpy(-lam, &v, &mut r);
            let res = vector::norm2(&r);
            assert!(res <= 1e-8, "pair {j}: residual {res:.3e}");
        }
    }

    #[test]
    fn embedding_validates() {
        let g = cycle(6).unwrap();
        assert!(spectral_embedding(&g, 0).is_err());
        assert!(spectral_embedding(&g, 6).is_err());
        let disc = acir_graph::Graph::from_pairs(4, [(0, 1), (2, 3)]).unwrap();
        assert!(spectral_embedding(&disc, 1).is_err());
    }

    #[test]
    fn kmeans_separates_obvious_blobs() {
        let mut pts = Vec::new();
        for i in 0..10 {
            pts.push(vec![0.0 + 0.01 * i as f64, 0.0]);
            pts.push(vec![5.0 + 0.01 * i as f64, 5.0]);
        }
        let mut rng = StdRng::seed_from_u64(1);
        let (assign, centroids, inertia) = kmeans(&pts, 2, 50, &mut rng).unwrap();
        assert_eq!(centroids.len(), 2);
        assert!(inertia < 1.0);
        // Even indices together, odd indices together.
        let c0 = assign[0];
        assert!(assign.iter().step_by(2).all(|&c| c == c0));
        assert!(assign.iter().skip(1).step_by(2).all(|&c| c != c0));
    }

    #[test]
    fn kmeans_validates() {
        let mut rng = StdRng::seed_from_u64(2);
        assert!(kmeans(&[], 1, 10, &mut rng).is_err());
        let pts = vec![vec![0.0], vec![1.0]];
        assert!(kmeans(&pts, 3, 10, &mut rng).is_err());
        assert!(kmeans(&pts, 0, 10, &mut rng).is_err());
        let ragged = vec![vec![0.0], vec![1.0, 2.0]];
        assert!(kmeans(&ragged, 1, 10, &mut rng).is_err());
    }

    #[test]
    fn spectral_clustering_recovers_ring_of_cliques() {
        let g = ring_of_cliques(4, 8).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let assign = spectral_clustering(&g, 4, 8, &mut rng).unwrap();
        // Ground truth: clique c = nodes 8c..8c+8.
        let truth: Vec<u32> = (0..32).map(|u| (u / 8) as u32).collect();
        let ari = adjusted_rand_index(&assign, &truth);
        assert!(ari > 0.95, "ARI = {ari}");
    }

    #[test]
    fn spectral_clustering_recovers_sbm() {
        let mut rng = StdRng::seed_from_u64(4);
        let pc = planted_partition(&mut rng, 3, 30, 0.5, 0.02).unwrap();
        let (g, map) = acir_graph::traversal::largest_component(&pc.graph);
        let assign = spectral_clustering(&g, 3, 8, &mut rng).unwrap();
        let truth: Vec<u32> = map.iter().map(|&old| pc.community[old as usize]).collect();
        let ari = adjusted_rand_index(&assign, &truth);
        assert!(ari > 0.9, "ARI = {ari}");
    }

    #[test]
    fn ari_properties() {
        let a = [0u32, 0, 1, 1];
        assert_eq!(adjusted_rand_index(&a, &a), 1.0);
        // Relabeling invariance.
        let b = [1u32, 1, 0, 0];
        assert_eq!(adjusted_rand_index(&a, &b), 1.0);
        // Orthogonal clustering scores low.
        let c = [0u32, 1, 0, 1];
        assert!(adjusted_rand_index(&a, &c) < 0.1);
        assert_eq!(adjusted_rand_index(&[0], &[0]), 1.0);
    }
}
