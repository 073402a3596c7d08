//! The graph matrices of §3.1.
//!
//! For a connected, weighted, undirected graph with adjacency `A` and
//! diagonal degree matrix `D`:
//!
//! * combinatorial Laplacian `L = D − A`;
//! * normalized Laplacian `𝓛 = D^{−1/2} L D^{−1/2} = I − 𝒜` where
//!   `𝒜 = D^{−1/2} A D^{−1/2}` is the normalized adjacency;
//! * random-walk transition matrix `M = A D^{−1}` (column-stochastic:
//!   each column sums to 1, matching the paper's "charge evolves as
//!   `M` times an input seed vector" convention in Eq. (2));
//! * lazy walk `W_α = αI + (1−α)M`.
//!
//! Everything stays in CSR with exactly the graph's sparsity (plus the
//! diagonal), honoring the paper's point that the Power Method wins at
//! scale because it does "not damage the sparsity of the matrix".
//!
//! Isolated (degree-0) nodes are permitted: they contribute a zero row
//! and column to `L`/`𝓛`, and `M` leaves their charge in place (the
//! convention that makes `M` substochastic rather than undefined).

use crate::Result;
use acir_exec::ExecPool;
use acir_graph::{Graph, NodeId};
use acir_linalg::CsrMatrix;

/// Rows per parallel work unit when assembling graph matrices: row
/// generation is cheap per row, so chunks must be coarse enough to
/// amortize worker wake-up on large graphs (and small graphs collapse to
/// a single chunk, i.e. the sequential path).
const ROWS_MIN_CHUNK: usize = 2_048;

/// Assemble an `n × n` CSR matrix whose row `u` is produced by
/// `row_fn(u)` as column-sorted `(col, value)` pairs.
///
/// Rows are generated on the ambient [`ExecPool`]: each row is a pure
/// function of its index (the chunking is a function of `n` alone), and
/// the per-row results are concatenated in ascending row order, so the
/// assembled matrix is bit-identical at every thread count.
fn build_rows(n: usize, row_fn: impl Fn(usize) -> Vec<(u32, f64)> + Sync) -> CsrMatrix {
    let idx: Vec<usize> = (0..n).collect();
    let rows = ExecPool::from_env().par_map(&idx, ROWS_MIN_CHUNK, |&u| row_fn(u));
    let nnz: usize = rows.iter().map(Vec::len).sum();
    let mut row_ptr = Vec::with_capacity(n + 1);
    row_ptr.push(0usize);
    let mut col_idx = Vec::with_capacity(nnz);
    let mut values = Vec::with_capacity(nnz);
    for row in &rows {
        for &(c, v) in row {
            col_idx.push(c);
            values.push(v);
        }
        row_ptr.push(col_idx.len());
    }
    CsrMatrix::from_csr(n, n, row_ptr, col_idx, values)
        .expect("graph rows are column-sorted and in range")
}

/// Sparse adjacency matrix `A` of the graph.
pub fn adjacency_matrix(g: &Graph) -> CsrMatrix {
    build_rows(g.n(), |u| g.neighbors(u as NodeId).collect())
}

/// Combinatorial Laplacian `L = D − A`.
///
/// Self-loops cancel out of `L` (they appear in both `D` and `A`), so
/// the result is always positive semidefinite with `L·1 = 0`. Zero
/// diagonal entries (isolated or pure-self-loop nodes) are dropped,
/// keeping exactly the graph's sparsity plus the live diagonal.
pub fn combinatorial_laplacian(g: &Graph) -> CsrMatrix {
    build_rows(g.n(), |u| {
        let mut diag = g.degree(u as NodeId);
        let mut row: Vec<(u32, f64)> = Vec::with_capacity(g.degree_unweighted(u as NodeId) + 1);
        let mut diag_placed = false;
        for (v, w) in g.neighbors(u as NodeId) {
            if v as usize == u {
                // Self-loop: contributes w to the degree and w to A_uu,
                // net zero in L. Reserve the diagonal slot in place.
                diag -= w;
                row.push((v, 0.0));
                diag_placed = true;
            } else {
                if !diag_placed && (v as usize) > u {
                    row.push((u as u32, 0.0));
                    diag_placed = true;
                }
                row.push((v, -w));
            }
        }
        if !diag_placed {
            row.push((u as u32, 0.0));
        }
        for e in row.iter_mut() {
            if e.0 as usize == u {
                e.1 += diag;
            }
        }
        row.retain(|&(_, v)| v.abs() > 0.0);
        row
    })
}

/// Normalized adjacency `𝒜 = D^{−1/2} A D^{−1/2}` (degree-0 rows/cols
/// are zero).
pub fn normalized_adjacency(g: &Graph) -> CsrMatrix {
    let inv_sqrt: Vec<f64> = g
        .degrees()
        .iter()
        .map(|&d| if d > 0.0 { 1.0 / d.sqrt() } else { 0.0 })
        .collect();
    build_rows(g.n(), |u| {
        g.neighbors(u as NodeId)
            .map(|(v, w)| (v, w * inv_sqrt[u] * inv_sqrt[v as usize]))
            .collect()
    })
}

/// Normalized Laplacian `𝓛 = I − 𝒜` (for degree-0 nodes the diagonal
/// entry is 0, keeping `𝓛` PSD). Zero entries are dropped, as in
/// [`combinatorial_laplacian`].
pub fn normalized_laplacian(g: &Graph) -> CsrMatrix {
    let inv_sqrt: Vec<f64> = g
        .degrees()
        .iter()
        .map(|&d| if d > 0.0 { 1.0 / d.sqrt() } else { 0.0 })
        .collect();
    build_rows(g.n(), |u| {
        let isolated = inv_sqrt[u] == 0.0;
        let mut row: Vec<(u32, f64)> = Vec::with_capacity(g.degree_unweighted(u as NodeId) + 1);
        let mut diag_placed = false;
        for (v, w) in g.neighbors(u as NodeId) {
            let a_uv = w * inv_sqrt[u] * inv_sqrt[v as usize];
            if v as usize == u {
                row.push((v, -a_uv + 1.0));
                diag_placed = true;
            } else {
                if !diag_placed && (v as usize) > u && !isolated {
                    row.push((u as u32, 1.0));
                    diag_placed = true;
                }
                row.push((v, -a_uv));
            }
        }
        if !diag_placed && !isolated {
            row.push((u as u32, 1.0));
        }
        row.retain(|&(_, v)| v.abs() > 0.0);
        row
    })
}

/// Random-walk transition matrix `M = A D^{−1}` (column-stochastic).
///
/// Column `v` holds `w(u,v)/d_v`: multiplying a probability
/// distribution by `M` moves its mass along edges. Degree-0 columns are
/// zero (their mass is frozen by convention in [`crate::diffusion`]).
pub fn random_walk_matrix(g: &Graph) -> CsrMatrix {
    let inv_deg: Vec<f64> = g
        .degrees()
        .iter()
        .map(|&d| if d > 0.0 { 1.0 / d } else { 0.0 })
        .collect();
    build_rows(g.n(), |u| {
        g.neighbors(u as NodeId)
            .map(|(v, w)| (v, w * inv_deg[v as usize]))
            .collect()
    })
}

/// Lazy random-walk matrix `W_α = αI + (1−α)M` for holding probability
/// `α ∈ (0, 1)` (§3.1 "Lazy Random Walk").
pub fn lazy_walk_matrix(g: &Graph, alpha: f64) -> Result<CsrMatrix> {
    if !(0.0..1.0).contains(&alpha) || alpha == 0.0 {
        return Err(crate::SpectralError::InvalidArgument(format!(
            "lazy walk needs alpha in (0, 1), got {alpha}"
        )));
    }
    let inv_deg: Vec<f64> = g
        .degrees()
        .iter()
        .map(|&d| if d > 0.0 { 1.0 / d } else { 0.0 })
        .collect();
    Ok(build_rows(g.n(), |u| {
        let mut row: Vec<(u32, f64)> = Vec::with_capacity(g.degree_unweighted(u as NodeId) + 1);
        let mut diag_placed = false;
        for (v, w) in g.neighbors(u as NodeId) {
            let m_uv = w * inv_deg[v as usize];
            if v as usize == u {
                row.push((v, (1.0 - alpha) * m_uv + alpha));
                diag_placed = true;
            } else {
                if !diag_placed && (v as usize) > u {
                    row.push((u as u32, alpha));
                    diag_placed = true;
                }
                row.push((v, (1.0 - alpha) * m_uv));
            }
        }
        if !diag_placed {
            row.push((u as u32, alpha));
        }
        row
    }))
}

/// The trivial eigenvector of the normalized Laplacian: the unit vector
/// proportional to `D^{1/2}·1` (paper §3.1). `𝓛 v₁ = 0`.
pub fn trivial_eigenvector(g: &Graph) -> Vec<f64> {
    let mut v: Vec<f64> = g.degrees().iter().map(|&d| d.sqrt()).collect();
    acir_linalg::vector::normalize2(&mut v);
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use acir_graph::gen::deterministic::{complete, cycle, path, star};
    use acir_linalg::vector;

    #[test]
    fn laplacian_rows_sum_to_zero() {
        let g = path(6).unwrap();
        let l = combinatorial_laplacian(&g);
        let mut y = vec![0.0; 6];
        l.matvec(&[1.0; 6], &mut y);
        assert!(vector::norm_inf(&y) < 1e-14);
        assert!(l.is_symmetric(1e-14));
    }

    #[test]
    fn laplacian_quadratic_form_is_cut_energy() {
        // xᵀLx = Σ_{(u,v)∈E} w(u,v)(x_u − x_v)².
        let g = Graph::from_edges(3, [(0, 1, 2.0), (1, 2, 1.0)]).unwrap();
        let l = combinatorial_laplacian(&g);
        let x = [1.0, 0.0, -1.0];
        // 2*(1-0)² + 1*(0+1)² = 3.
        assert!((l.quad_form(&x) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn self_loops_cancel_in_laplacian() {
        let g = Graph::from_edges(2, [(0, 0, 5.0), (0, 1, 1.0)]).unwrap();
        let l = combinatorial_laplacian(&g);
        assert_eq!(l.get(0, 0), 1.0); // only the real edge remains
        assert_eq!(l.get(0, 1), -1.0);
    }

    #[test]
    fn normalized_laplacian_trivial_eigenvector() {
        let g = star(5).unwrap();
        let nl = normalized_laplacian(&g);
        let v1 = trivial_eigenvector(&g);
        let mut y = vec![0.0; 5];
        nl.matvec(&v1, &mut y);
        assert!(vector::norm_inf(&y) < 1e-12, "𝓛 D^{{1/2}}1 = 0");
        assert!((vector::norm2(&v1) - 1.0).abs() < 1e-12);
        assert!(nl.is_symmetric(1e-12));
    }

    #[test]
    fn normalized_laplacian_spectrum_of_complete_graph() {
        // K_n: eigenvalues 0 and n/(n−1) (multiplicity n−1).
        let n = 5;
        let g = complete(n).unwrap();
        let nl = normalized_laplacian(&g).to_dense();
        let eig = acir_linalg::SymEig::new(&nl).unwrap();
        assert!(eig.eigenvalues[0].abs() < 1e-12);
        for k in 1..n {
            assert!((eig.eigenvalues[k] - n as f64 / (n as f64 - 1.0)).abs() < 1e-10);
        }
    }

    #[test]
    fn normalized_laplacian_spectrum_in_0_2() {
        let g = cycle(7).unwrap();
        let nl = normalized_laplacian(&g).to_dense();
        let eig = acir_linalg::SymEig::new(&nl).unwrap();
        assert!(eig.eigenvalues[0] > -1e-12);
        assert!(*eig.eigenvalues.last().unwrap() <= 2.0 + 1e-12);
    }

    #[test]
    fn walk_matrix_columns_stochastic() {
        let g = star(4).unwrap();
        let m = random_walk_matrix(&g);
        // Column sums: Σ_u M_uv = Σ_u w(u,v)/d_v = 1.
        let mut col_sums = vec![0.0; 4];
        m.matvec_transpose(&[1.0; 4], &mut col_sums);
        for &s in &col_sums {
            assert!((s - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn walk_preserves_probability_mass() {
        let g = cycle(5).unwrap();
        let m = random_walk_matrix(&g);
        let mut p = vec![0.0; 5];
        p[2] = 1.0;
        let mut q = vec![0.0; 5];
        m.matvec(&p, &mut q);
        assert!((vector::sum(&q) - 1.0).abs() < 1e-12);
        // One step from node 2 on a cycle: half mass to each neighbor.
        assert!((q[1] - 0.5).abs() < 1e-12);
        assert!((q[3] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lazy_walk_mixes_slower() {
        let g = cycle(6).unwrap();
        let w = lazy_walk_matrix(&g, 0.5).unwrap();
        let mut p = vec![0.0; 6];
        p[0] = 1.0;
        let mut q = vec![0.0; 6];
        w.matvec(&p, &mut q);
        assert!((q[0] - 0.5).abs() < 1e-12); // holds half the mass
        assert!((vector::sum(&q) - 1.0).abs() < 1e-12);
        assert!(lazy_walk_matrix(&g, 0.0).is_err());
        assert!(lazy_walk_matrix(&g, 1.0).is_err());
    }

    #[test]
    fn isolated_nodes_are_harmless() {
        let g = Graph::from_pairs(3, [(0, 1)]).unwrap(); // node 2 isolated
        let l = combinatorial_laplacian(&g);
        assert_eq!(l.get(2, 2), 0.0);
        let nl = normalized_laplacian(&g);
        assert_eq!(nl.get(2, 2), 0.0);
        let m = random_walk_matrix(&g);
        let mut y = vec![0.0; 3];
        m.matvec(&[0.0, 0.0, 1.0], &mut y);
        // Mass on an isolated node goes nowhere under M itself.
        assert_eq!(vector::sum(&y), 0.0);
    }

    #[test]
    fn parallel_assembly_matches_triplet_reference_at_any_thread_count() {
        // A graph big enough to split into several row chunks, built from
        // a deterministic edge list.
        let n = 6000usize;
        let mut edges = Vec::new();
        let mut s = 0x9e3779b97f4a7c15u64;
        for u in 0..n as u32 {
            edges.push((u, (u + 1) % n as u32, 1.0 + (u % 7) as f64));
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            let v = (s % n as u64) as u32;
            if v != u {
                edges.push((u, v, 1.0 + (s % 5) as f64));
            }
        }
        edges.push((17, 17, 2.5)); // a self-loop, to hit diagonal merging
        let g = Graph::from_edges(n, edges).unwrap();

        // Triplet-path reference for L = D − A (the pre-parallel builder).
        let mut trip = Vec::new();
        for u in 0..n as NodeId {
            let mut diag = g.degree(u);
            for (v, w) in g.neighbors(u) {
                if v == u {
                    diag -= w;
                } else {
                    trip.push((u as usize, v as usize, -w));
                }
            }
            trip.push((u as usize, u as usize, diag));
        }
        let mut want = CsrMatrix::from_triplets(n, n, trip);
        want.prune(0.0);

        let before = std::env::var_os("ACIR_THREADS");
        for threads in ["1", "4"] {
            std::env::set_var("ACIR_THREADS", threads);
            let l = combinatorial_laplacian(&g);
            assert_eq!(l.nnz(), want.nnz(), "nnz at {threads} threads");
            for r in [0usize, 17, 1234, n - 1] {
                let got: Vec<(u32, f64)> = l.row(r).collect();
                let exp: Vec<(u32, f64)> = want.row(r).collect();
                assert_eq!(got, exp, "row {r} at {threads} threads");
            }
            let nl = normalized_laplacian(&g);
            assert!(nl.is_symmetric(1e-12));
            let v1 = trivial_eigenvector(&g);
            let mut y = vec![0.0; n];
            nl.matvec(&v1, &mut y);
            assert!(vector::norm_inf(&y) < 1e-12, "𝓛·D^{{1/2}}1 = 0");
            let m = random_walk_matrix(&g);
            let mut cols = vec![0.0; n];
            m.matvec_transpose(&vec![1.0; n], &mut cols);
            assert!(cols.iter().all(|&c| (c - 1.0).abs() < 1e-12));
        }
        match before {
            Some(v) => std::env::set_var("ACIR_THREADS", v),
            None => std::env::remove_var("ACIR_THREADS"),
        }
    }

    use acir_graph::Graph;
}
