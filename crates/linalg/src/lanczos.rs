//! Lanczos with full reorthogonalization: the Krylov eigensolvers.
//!
//! The paper (footnote 15) notes that "Lanczos algorithms look at a
//! subspace of vectors generated during the iteration" and are best viewed
//! as refinements of the Power Method. Here Lanczos computes a few extreme
//! eigenpairs of large sparse graph operators — the exact-but-scalable
//! path for the Fiedler vector of §3.1 and for spectral embeddings.
//!
//! Every step is fully reorthogonalized (two classical Gram–Schmidt
//! passes against the whole basis), so a `k`-step run costs `O(n k²)`
//! beyond its `k` matvecs. At the Krylov dimensions a certified Fiedler
//! pair needs on a graph of a few thousand nodes (several hundred), that
//! bookkeeping — not the operator — is nearly all of the time. Hence:
//!
//! * [`smallest_eigenpairs_restarted`]: thick-restart Lanczos (Wu–Simon
//!   TRLan, the symmetric Krylov–Schur method), the eigensolver every
//!   library caller uses. Its basis never exceeds 40 vectors, so a step
//!   costs `O(40 n)` however many steps convergence takes, and it
//!   returns only pairs whose true residual it has recomputed;
//! * [`smallest_eigenpairs`]: the Ritz pairs of one fixed-dimension run,
//!   unchecked. It is kept as a measured baseline for the restart
//!   solver.
//!
//! Both iterate the same single Lanczos step.

use crate::dense::DenseMatrix;
use crate::jacobi::SymEig;
use crate::tridiag::tridiag_eig;
use crate::vector;
use crate::{LinOp, LinalgError, Result};
use acir_exec::ExecPool;

/// Below this many multiplied-out elements (`directions × vector length`)
/// a reorthogonalization sweep runs on one thread: the sweep is too small
/// to amortize worker spawn cost.
const PAR_MIN_REORTH: usize = 1 << 15;

/// An off-diagonal below this means the Krylov space has become
/// invariant (a lucky breakdown).
const BREAKDOWN: f64 = 1e-12;

/// Seed state of [`smallest_eigenpairs`] and of the thick-restart solver.
const SEED: u64 = 0x9e3779b97f4a7c15;

/// Basis size of the thick-restart solver (raised to `3m` for `m` pairs).
/// Measured on five 6.8k-node social-network surrogates (2 threads):
/// 40 vectors keeping 12 took 0.41–0.55 s; 48/16 took 0.57–0.68 s
/// (fewer matvecs, but each step reorthogonalizes against more
/// vectors); 32/10 needed up to 891 matvecs against 769.
const RESTART_BASIS: usize = 40;

/// Ritz vectors the thick-restart solver keeps at each restart (raised
/// to `2m`, capped at half the basis).
const RESTART_KEEP: usize = 12;

/// Matvec cap of the thick-restart solver, per operator dimension.
const RESTART_MATVECS_PER_DIM: usize = 20;

/// `n` draws, uniform on `[-0.5, 0.5)`, of the fixed 64-bit LCG started
/// at `state`: the deterministic pseudo-random seed of every Lanczos run
/// here. A fixed LCG keeps the library dependency-free and the result
/// reproducible.
fn lcg_seed(mut state: u64, n: usize) -> Vec<f64> {
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        })
        .collect()
}

/// The first Krylov vector: the seed with `deflate` projected out,
/// unit-normalized. Errors if nothing survives the deflation.
fn start_vector(mut q: Vec<f64>, deflate: &[Vec<f64>]) -> Result<Vec<f64>> {
    for u in deflate {
        vector::deflate(&mut q, u);
    }
    if vector::normalize2(&mut q) < 1e-300 {
        return Err(LinalgError::InvalidArgument(
            "seed vector is zero after deflation",
        ));
    }
    Ok(q)
}

/// Full reorthogonalization sweep ("twice is enough"): two classical
/// Gram–Schmidt passes projecting `w` against the deflation directions
/// and the entire Lanczos basis. The deflated directions are re-projected
/// on every pass as well: without this, rounding lets a deflated
/// eigenvector (e.g. the trivial `D^{1/2}·1` of a normalized Laplacian)
/// drift back in and reappear as a ghost Ritz value near its eigenvalue.
///
/// Within a pass every projection coefficient is computed against the
/// *same* iterate (classical, not modified, Gram–Schmidt), so the dot
/// products are independent and evaluated on the [`ExecPool`]. Each dot
/// is internally sequential and the subtractions are applied in fixed
/// direction order, so the result is bit-identical at any thread count;
/// the second pass mops up the rounding the first leaves behind.
fn reorthogonalize(w: &mut [f64], deflate: &[Vec<f64>], basis: &[Vec<f64>]) {
    let dirs: Vec<&[f64]> = deflate
        .iter()
        .map(Vec::as_slice)
        .chain(basis.iter().map(Vec::as_slice))
        .collect();
    // Path choice depends on problem size alone, never on thread count.
    let pool = if dirs.len() * w.len() < PAR_MIN_REORTH {
        ExecPool::with_threads(1)
    } else {
        ExecPool::from_env()
    };
    let groups: Vec<&[&[f64]]> = dirs.chunks(4).collect();
    for _ in 0..2 {
        let coeffs: Vec<f64> = pool
            .par_map(&groups, 1, |g| match *g {
                [a, b, c, d] => dot4(w, [a, b, c, d]).to_vec(),
                _ => g.iter().map(|u| vector::dot(w, u)).collect(),
            })
            .concat();
        subtract(&pool, w, &dirs, &coeffs);
    }
}

/// `w ← w − Σ_d c_d u_d`. Every element receives exactly the additions
/// of one `vector::axpy(-c_d, u_d, w)` per direction in order, so the
/// result is bit-identical to that loop; but the directions sweep one
/// L1-sized block of `w` at a time, and element chunks run on `pool`.
fn subtract(pool: &ExecPool, w: &mut [f64], dirs: &[&[f64]], coeffs: &[f64]) {
    const BLOCK: usize = 512;
    pool.par_chunks_mut(w, 2 * BLOCK, |start, chunk| {
        for (b, wb) in chunk.chunks_mut(BLOCK).enumerate() {
            let lo = start + b * BLOCK;
            let len = wb.len();
            for (u, &c) in dirs.iter().zip(coeffs) {
                let a = -c;
                for (wi, ui) in wb.iter_mut().zip(&u[lo..lo + len]) {
                    *wi += a * ui;
                }
            }
        }
    });
}

/// One Lanczos step on the newest basis vector `q_j = basis[j]`
/// (`j = basis.len() − 1`): `w ← A q_j`, a finiteness scan, deflation,
/// `α_j = q_jᵀw`, `w ← w − α_j q_j − β q_{j−1}` (the last term only
/// when `prev` carries `β`), then [`reorthogonalize`] against the
/// deflation directions and the whole basis. Returns `α_j` and leaves
/// the unnormalized next direction in `w`; `None` if the operator
/// returned a non-finite value.
fn lanczos_step(
    op: &dyn LinOp,
    basis: &[Vec<f64>],
    prev: Option<f64>,
    deflate: &[Vec<f64>],
    w: &mut [f64],
) -> Option<f64> {
    // CORE LOOP: the one Lanczos step. `lanczos` iterates it to a fixed
    // dimension; `smallest_eigenpairs_restarted` iterates it inside a
    // fixed-size basis.
    let j = basis.len() - 1;
    op.apply(&basis[j], w);
    if !all_finite(w) {
        return None;
    }
    for u in deflate {
        vector::deflate(w, u);
    }
    let a_j = vector::dot(&basis[j], w);
    vector::axpy(-a_j, &basis[j], w);
    if let Some(b) = prev {
        vector::axpy(-b, &basis[j - 1], w);
    }
    reorthogonalize(w, deflate, basis);
    Some(a_j)
}

fn all_finite(x: &[f64]) -> bool {
    x.iter().all(|v| v.is_finite())
}

/// The Ritz vectors `V y_c` for the first `cols` columns `y_c` of `y`.
/// Each column is one fixed-order axpy sweep over the basis `V`, so it
/// is bit-identical however the columns are spread over threads.
fn lift(basis: &[Vec<f64>], y: &DenseMatrix, cols: usize) -> Vec<Vec<f64>> {
    let n = basis.first().map_or(0, Vec::len);
    let pool = if cols * basis.len() * n < PAR_MIN_REORTH {
        ExecPool::with_threads(1)
    } else {
        ExecPool::from_env()
    };
    let idx: Vec<usize> = (0..cols).collect();
    pool.par_map(&idx, 1, |&col| {
        let mut v = vec![0.0; n];
        for (j, basis_j) in basis.iter().enumerate() {
            vector::axpy(y[(j, col)], basis_j, &mut v);
        }
        v
    })
}

/// `[wᵀu₀, wᵀu₁, wᵀu₂, wᵀu₃]` in one pass over `w`. Each accumulator
/// adds in exactly the order of [`vector::dot`], so every coefficient is
/// bit-identical to its own `dot`; the four dependency chains overlap
/// instead of running one after another.
fn dot4(w: &[f64], u: [&[f64]; 4]) -> [f64; 4] {
    let n4 = w.len() - w.len() % 4;
    let mut acc = [0.0f64; 4];
    for (k, x) in w[..n4].chunks_exact(4).enumerate() {
        let i = 4 * k;
        for (a, y) in acc.iter_mut().zip(&u) {
            let y = &y[i..i + 4];
            *a = *a + x[0] * y[0] + x[1] * y[1] + x[2] * y[2] + x[3] * y[3];
        }
    }
    for i in n4..w.len() {
        for (a, y) in acc.iter_mut().zip(&u) {
            *a += w[i] * y[i];
        }
    }
    acc
}

/// A fixed-dimension Lanczos run: the tridiagonal `T_k` and its basis.
struct LanczosResult {
    /// Diagonal of `T_k` (length `k`).
    alpha: Vec<f64>,
    /// Off-diagonal of `T_k` (length `k − 1`).
    beta: Vec<f64>,
    /// Orthonormal Krylov basis (`basis[j]` is the j-th vector).
    basis: Vec<Vec<f64>>,
}

impl LanczosResult {
    /// The `m` smallest Ritz pairs (fewer if `k < m`): eigenvalues of
    /// `T_k` ascending, and only those `m` Ritz vectors `V_k y` lifted
    /// back to `R^n`.
    fn smallest_ritz_pairs(&self, m: usize) -> Result<(Vec<f64>, Vec<Vec<f64>>)> {
        let mut t = tridiag_eig(&self.alpha, &self.beta)?;
        let m = m.min(t.eigenvalues.len());
        t.eigenvalues.truncate(m);
        Ok((t.eigenvalues, lift(&self.basis, &t.eigenvectors, m)))
    }
}

/// `k ≥ 1` steps of Lanczos on `op` from seed `v0` (length `n`),
/// deflating the unit-norm directions in `deflate` from every iterate.
/// Stops early on a lucky breakdown (the Krylov space became invariant).
///
/// Errors if the seed is zero after deflation, and with
/// [`LinalgError::NotConverged`] if the operator returns a non-finite
/// value.
fn lanczos(op: &dyn LinOp, v0: &[f64], k: usize, deflate: &[Vec<f64>]) -> Result<LanczosResult> {
    let n = op.dim();
    debug_assert!(v0.len() == n && k > 0);
    let k = k.min(n);
    let mut alpha = Vec::with_capacity(k);
    let mut beta: Vec<f64> = Vec::with_capacity(k.saturating_sub(1));
    let mut basis = vec![start_vector(v0.to_vec(), deflate)?];
    let mut w = vec![0.0; n];
    for j in 0..k {
        let a_j = lanczos_step(op, &basis, beta.last().copied(), deflate, &mut w)
            .ok_or_else(|| poisoned(j))?;
        alpha.push(a_j);
        if j + 1 == k {
            break;
        }
        let b_j = vector::norm2(&w);
        if b_j < BREAKDOWN {
            break;
        }
        beta.push(b_j);
        let mut next = w.clone();
        vector::scale(1.0 / b_j, &mut next);
        basis.push(next);
    }
    Ok(LanczosResult { alpha, beta, basis })
}

/// The `m` smallest Ritz pairs of one fixed-dimension Lanczos run, with
/// a deterministic pseudo-random seed and `deflate` projected out.
///
/// `krylov` is the Krylov dimension (clamped to `[3m, n]`); accuracy
/// improves with larger values, but no pair is checked: use
/// [`smallest_eigenpairs_restarted`] for pairs with a residual bound.
/// Returns `(eigenvalues, eigenvectors)` with eigenvalues ascending.
pub fn smallest_eigenpairs(
    op: &dyn LinOp,
    m: usize,
    krylov: usize,
    deflate: &[Vec<f64>],
) -> Result<(Vec<f64>, Vec<Vec<f64>>)> {
    let n = op.dim();
    if m == 0 || m > n {
        return Err(LinalgError::InvalidArgument("need 0 < m <= n"));
    }
    let k = krylov.max(3 * m).min(n);
    lanczos(op, &lcg_seed(SEED, n), k, deflate)?.smallest_ritz_pairs(m)
}

/// Thick-restart Lanczos (Wu–Simon TRLan, the symmetric Krylov–Schur
/// method): the `m` smallest eigenpairs of `op` with the unit-norm
/// directions in `deflate` projected out, each certified by its true
/// residual `‖P(Av) − θv‖₂ ≤ tol` (`P` the deflation projector; this
/// is `‖Av − θv‖₂` itself when the deflated directions are
/// eigenvectors of `op`, like the trivial eigenvector of a Laplacian).
///
/// The basis has a fixed size (40 vectors, or `3m` if larger). When it
/// is full, the smallest Ritz vectors and the residual direction are
/// kept, the projected matrix becomes diagonal-plus-arrow, and the
/// recurrence continues from the residual direction. The residual
/// estimate `β·|y_last|` decides when to stop; each returned pair's
/// residual is then recomputed with one matvec, and the run continues
/// if any exceeds `tol`. Returned vectors are unit-norm with `deflate`
/// projected out; eigenvalues ascend. Deterministic at any thread
/// count.
///
/// As with any single-vector Krylov method, eigenvectors the seed has
/// no component along — in particular extra copies of a repeated
/// eigenvalue — may be missed: each returned pair is an eigenpair to
/// `tol`, but a copy of a smaller eigenvalue can be skipped.
///
/// Errors with [`LinalgError::NotConverged`] (`iterations` counting
/// matvecs) when the matvec cap of `20·n` is reached or the operator
/// returns a non-finite value, and with
/// [`LinalgError::InvalidArgument`] unless `0 < m ≤ n`, `tol > 0`, and
/// at least `m` directions survive deflation.
pub fn smallest_eigenpairs_restarted(
    op: &dyn LinOp,
    m: usize,
    deflate: &[Vec<f64>],
    tol: f64,
) -> Result<(Vec<f64>, Vec<Vec<f64>>)> {
    let n = op.dim();
    if m == 0 || m > n {
        return Err(LinalgError::InvalidArgument("need 0 < m <= n"));
    }
    if tol.is_nan() || tol <= 0.0 {
        return Err(LinalgError::InvalidArgument("tol must be positive"));
    }
    let size = RESTART_BASIS.max(3 * m).min(n);
    // `keep < m` only when `size = n < 3m`: the first fill then spans
    // the whole space, and a restart regrows the basis to `size ≥ m`
    // before any pair is returned.
    let keep = RESTART_KEEP.max(2 * m).min(size / 2);
    let cap = RESTART_MATVECS_PER_DIM * n;

    let q = start_vector(lcg_seed(SEED, n), deflate)?;
    let mut basis = vec![q];
    // The projected matrix `VᵀAV`: tridiagonal on a fresh run, a
    // diagonal with one bordering row and column after each restart.
    let mut t = DenseMatrix::zeros(size, size);
    let mut prev = None;
    let mut w = vec![0.0; n];
    let mut r = vec![0.0; n];
    let mut matvecs = 0;
    loop {
        let beta = loop {
            let j = basis.len() - 1;
            let a_j =
                lanczos_step(op, &basis, prev, deflate, &mut w).ok_or_else(|| poisoned(matvecs))?;
            matvecs += 1;
            t[(j, j)] = a_j;
            let b_j = vector::norm2(&w);
            if j + 1 == size || b_j < BREAKDOWN {
                break b_j;
            }
            t[(j, j + 1)] = b_j;
            t[(j + 1, j)] = b_j;
            let mut next = w.clone();
            vector::scale(1.0 / b_j, &mut next);
            basis.push(next);
            prev = Some(b_j);
        };
        let k = basis.len();
        if k < m {
            return Err(LinalgError::InvalidArgument(
                "fewer than m directions survive deflation",
            ));
        }
        let eig = SymEig::new(&DenseMatrix::from_fn(k, k, |i, j| t[(i, j)]))?;
        // Ritz pair i has residual β·|y_{k−1,i}|; an invariant basis
        // (β below breakdown) holds exact pairs and cannot grow.
        let invariant = beta < BREAKDOWN;
        let estimate = |i: usize| beta * eig.eigenvectors[(k - 1, i)].abs();
        let mut worst = (0..m).map(estimate).fold(0.0, f64::max);
        if invariant || worst <= tol {
            let mut vecs = lift(&basis, &eig.eigenvectors, m);
            let vals = eig.eigenvalues[..m].to_vec();
            worst = 0.0;
            for (v, &theta) in vecs.iter_mut().zip(&vals) {
                for u in deflate {
                    vector::deflate(v, u);
                }
                vector::normalize2(v);
                op.apply(v, &mut r);
                if !all_finite(&r) {
                    return Err(poisoned(matvecs));
                }
                matvecs += 1;
                for u in deflate {
                    vector::deflate(&mut r, u);
                }
                vector::axpy(-theta, v, &mut r);
                worst = worst.max(vector::norm2(&r));
            }
            if worst <= tol {
                return Ok((vals, vecs));
            }
            if invariant {
                return Err(LinalgError::NotConverged {
                    iterations: matvecs,
                    residual: worst,
                });
            }
        }
        if matvecs >= cap {
            return Err(LinalgError::NotConverged {
                iterations: matvecs,
                residual: worst,
            });
        }
        // Thick restart: keep the `keep` smallest Ritz vectors and
        // continue the recurrence from the residual direction.
        let mut kept = lift(&basis, &eig.eigenvectors, keep);
        t = DenseMatrix::zeros(size, size);
        for (i, &theta) in eig.eigenvalues[..keep].iter().enumerate() {
            let s = beta * eig.eigenvectors[(k - 1, i)];
            t[(i, i)] = theta;
            t[(i, keep)] = s;
            t[(keep, i)] = s;
        }
        vector::scale(1.0 / beta, &mut w);
        kept.push(w.clone());
        basis = kept;
        prev = None;
    }
}

/// The error for a non-finite operator output after `matvecs` clean
/// ones.
fn poisoned(matvecs: usize) -> LinalgError {
    LinalgError::NotConverged {
        iterations: matvecs,
        residual: f64::NAN,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::DenseMatrix;
    use crate::sparse::CsrMatrix;

    /// Path-graph combinatorial Laplacian as CSR.
    fn path_laplacian(n: usize) -> CsrMatrix {
        let mut t = Vec::new();
        for i in 0..n - 1 {
            t.push((i, i, 1.0));
            t.push((i + 1, i + 1, 1.0));
            t.push((i, i + 1, -1.0));
            t.push((i + 1, i, -1.0));
        }
        CsrMatrix::from_triplets(n, n, t)
    }

    /// Combinatorial Laplacian of an unweighted edge list.
    fn laplacian(n: usize, edges: &[(usize, usize)]) -> CsrMatrix {
        let mut t = Vec::new();
        for &(i, j) in edges {
            t.extend([(i, i, 1.0), (j, j, 1.0), (i, j, -1.0), (j, i, -1.0)]);
        }
        CsrMatrix::from_triplets(n, n, t)
    }

    fn cycle_laplacian(n: usize) -> CsrMatrix {
        let edges: Vec<_> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        laplacian(n, &edges)
    }

    /// Two `k`-cliques joined through a path of `bridge` extra nodes.
    fn barbell_laplacian(k: usize, bridge: usize) -> CsrMatrix {
        let mut edges = Vec::new();
        for c in [0, k + bridge] {
            for i in c..c + k {
                edges.extend((i + 1..c + k).map(|j| (i, j)));
            }
        }
        edges.extend((k - 1..k + bridge).map(|i| (i, i + 1)));
        laplacian(2 * k + bridge, &edges)
    }

    fn unit_ones(n: usize) -> Vec<f64> {
        vec![1.0 / (n as f64).sqrt(); n]
    }

    /// `‖Av − θv‖₂`.
    fn residual(a: &CsrMatrix, theta: f64, v: &[f64]) -> f64 {
        let mut r = vec![0.0; v.len()];
        a.matvec(v, &mut r);
        vector::axpy(-theta, v, &mut r);
        vector::norm2(&r)
    }

    /// Runs the restart solver with the constant vector deflated and
    /// checks every returned pair against the dense spectrum (index 0
    /// of which is the deflated null vector): eigenvalue, unit norm,
    /// orthogonality to the deflated direction, and residual ≤ tol.
    /// Returns the pairs and the dense decomposition.
    fn restarted_vs_dense(
        a: &CsrMatrix,
        m: usize,
        tol: f64,
    ) -> (Vec<f64>, Vec<Vec<f64>>, crate::jacobi::SymEig) {
        let n = a.nrows();
        let ones = unit_ones(n);
        let (vals, vecs) =
            smallest_eigenpairs_restarted(a, m, std::slice::from_ref(&ones), tol).unwrap();
        let eig = crate::jacobi::SymEig::new(&a.to_dense()).unwrap();
        assert_eq!(vals.len(), m);
        for (i, (theta, v)) in vals.iter().zip(&vecs).enumerate() {
            let lam = eig.eigenvalues[i + 1];
            assert!((theta - lam).abs() < 1e-9, "pair {i}: {theta} vs {lam}");
            assert!((vector::norm2(v) - 1.0).abs() < 1e-12);
            assert!(vector::dot(v, &ones).abs() < 1e-12, "pair {i} not deflated");
            let r = residual(a, *theta, v);
            assert!(r <= tol, "pair {i}: residual {r:.3e} > {tol:.0e}");
        }
        (vals, vecs, eig)
    }

    #[test]
    fn restarted_path_simple_lambda2() {
        // 150 nodes: the 40-vector basis restarts many times.
        let a = path_laplacian(150);
        let (_, vecs, eig) = restarted_vs_dense(&a, 1, 1e-8);
        assert!(vector::alignment(&vecs[0], &eig.eigenvector(1)) > 1.0 - 1e-9);
    }

    #[test]
    fn restarted_path_three_pairs() {
        let a = path_laplacian(120);
        let (_, vecs, eig) = restarted_vs_dense(&a, 3, 1e-8);
        for (i, v) in vecs.iter().enumerate() {
            assert!(vector::alignment(v, &eig.eigenvector(i + 1)) > 1.0 - 1e-9);
        }
    }

    #[test]
    fn restarted_cycle_double_lambda2() {
        // λ₂ of a cycle has multiplicity 2: any unit vector of its
        // eigenspace is a right answer, so check the eigenspace.
        let a = cycle_laplacian(101);
        let (_, vecs, eig) = restarted_vs_dense(&a, 1, 1e-8);
        assert!((eig.eigenvalues[1] - eig.eigenvalues[2]).abs() < 1e-12);
        let inside = vector::dot(&vecs[0], &eig.eigenvector(1)).powi(2)
            + vector::dot(&vecs[0], &eig.eigenvector(2)).powi(2);
        assert!((inside - 1.0).abs() < 1e-9, "eigenspace share {inside}");
    }

    #[test]
    fn restarted_barbell() {
        let a = barbell_laplacian(25, 6);
        assert!(a.nrows() > RESTART_BASIS);
        let (vals, vecs, eig) = restarted_vs_dense(&a, 2, 1e-9);
        assert!(vals[0] < 0.05, "deep cut expected: λ₂ = {}", vals[0]);
        assert!(vector::alignment(&vecs[0], &eig.eigenvector(1)) > 1.0 - 1e-9);
    }

    #[test]
    fn restarted_operator_smaller_than_basis() {
        // Nine directions survive deflation: the basis spans them all
        // and the Ritz pairs are exact.
        let a = path_laplacian(10);
        restarted_vs_dense(&a, 4, 1e-10);
        // Without deflation m = n is reachable too.
        let (vals, _) = smallest_eigenpairs_restarted(&a, 10, &[], 1e-10).unwrap();
        assert!(vals[0].abs() < 1e-10);
    }

    #[test]
    fn restarted_honours_deflation() {
        // Without deflation the null vector is the smallest pair; with
        // it, λ₂ is, and no returned vector carries the null direction.
        let a = path_laplacian(90);
        let (plain, _) = smallest_eigenpairs_restarted(&a, 1, &[], 1e-8).unwrap();
        assert!(plain[0].abs() < 1e-8);
        let (vals, vecs, _) = restarted_vs_dense(&a, 2, 1e-8);
        assert!(vals[0] > 1e-4);
        for v in &vecs {
            assert!(vector::dot(v, &unit_ones(90)).abs() < 1e-12);
        }
    }

    #[test]
    fn restarted_reports_the_matvec_cap() {
        // An unreachable tolerance exhausts the cap: a structured
        // error, never an uncertified pair.
        let a = path_laplacian(60);
        match smallest_eigenpairs_restarted(&a, 1, &[], 1e-300) {
            Err(LinalgError::NotConverged {
                iterations,
                residual,
            }) => {
                assert!(iterations >= RESTART_MATVECS_PER_DIM * 60);
                assert!(residual > 1e-300);
            }
            other => panic!("expected NotConverged, got {other:?}"),
        }
        // A poisoned operator is reported, not certified.
        let faulty = crate::fault::FaultyOp::new(
            &a,
            acir_runtime::FaultConfig::nans(1.0).after_clean_applies(50),
        );
        assert!(matches!(
            smallest_eigenpairs_restarted(&faulty, 1, &[], 1e-8),
            Err(LinalgError::NotConverged { residual, .. }) if residual.is_nan()
        ));
        assert!(smallest_eigenpairs_restarted(&a, 0, &[], 1e-8).is_err());
        assert!(smallest_eigenpairs_restarted(&a, 61, &[], 1e-8).is_err());
        assert!(smallest_eigenpairs_restarted(&a, 1, &[], 0.0).is_err());
        assert!(smallest_eigenpairs_restarted(&a, 1, &[], f64::NAN).is_err());
    }

    #[test]
    fn dot4_matches_dot_bitwise() {
        let n = 1003; // not a multiple of 4: the tail runs too
        let u: Vec<Vec<f64>> = (0..4)
            .map(|j| (0..n).map(|i| ((i * 7 + j * 5) as f64).sin()).collect())
            .collect();
        let w: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).cos()).collect();
        let got = dot4(&w, [&u[0], &u[1], &u[2], &u[3]]);
        for (g, uj) in got.iter().zip(&u) {
            assert_eq!(g.to_bits(), vector::dot(&w, uj).to_bits());
        }
    }

    #[test]
    fn subtract_matches_axpy_loop_bitwise() {
        let n = 2500; // several blocks and element chunks, ragged end
        let u: Vec<Vec<f64>> = (0..7)
            .map(|j| (0..n).map(|i| ((i * 3 + j * 11) as f64).sin()).collect())
            .collect();
        let dirs: Vec<&[f64]> = u.iter().map(Vec::as_slice).collect();
        let coeffs: Vec<f64> = (0..7).map(|j| 0.1 * j as f64 - 0.33).collect();
        let w0: Vec<f64> = (0..n).map(|i| (i as f64 * 0.11).cos()).collect();
        let mut want = w0.clone();
        for (d, c) in dirs.iter().zip(&coeffs) {
            vector::axpy(-c, d, &mut want);
        }
        for threads in [1, 3] {
            let mut got = w0.clone();
            subtract(&ExecPool::with_threads(threads), &mut got, &dirs, &coeffs);
            assert!(got
                .iter()
                .zip(&want)
                .all(|(a, b)| a.to_bits() == b.to_bits()));
        }
    }

    #[test]
    fn full_krylov_recovers_exact_spectrum() {
        let n = 12;
        let l = path_laplacian(n);
        let res = lanczos(
            &l,
            &vec![1.0; n]
                .iter()
                .enumerate()
                .map(|(i, _)| (i as f64 + 1.0).sin())
                .collect::<Vec<_>>(),
            n,
            &[],
        )
        .unwrap();
        let (vals, vecs) = res.smallest_ritz_pairs(n).unwrap();
        for (k, &lam) in vals.iter().enumerate() {
            let expected = 2.0 - 2.0 * (std::f64::consts::PI * k as f64 / n as f64).cos();
            assert!((lam - expected).abs() < 1e-8, "k={k}: {lam} vs {expected}");
        }
        // Ritz vectors are true eigenvectors at full dimension.
        for (lam, v) in vals.iter().zip(&vecs) {
            let mut lv = vec![0.0; n];
            l.matvec(v, &mut lv);
            let mut r = lv;
            vector::axpy(-lam, v, &mut r);
            assert!(vector::norm2(&r) < 1e-7);
        }
    }

    #[test]
    fn basis_is_orthonormal() {
        let n = 20;
        let l = path_laplacian(n);
        let seed: Vec<f64> = (0..n).map(|i| ((i * 7 + 3) % 11) as f64 - 5.0).collect();
        let res = lanczos(&l, &seed, 10, &[]).unwrap();
        for i in 0..res.basis.len() {
            for j in 0..res.basis.len() {
                let d = vector::dot(&res.basis[i], &res.basis[j]);
                let expected = if i == j { 1.0 } else { 0.0 };
                assert!((d - expected).abs() < 1e-10, "({i},{j}): {d}");
            }
        }
    }

    #[test]
    fn deflation_excludes_nullspace() {
        let n = 10;
        let l = path_laplacian(n);
        // Constant vector spans the null space of the path Laplacian.
        let ones_unit = vec![1.0 / (n as f64).sqrt(); n];
        let (vals, _) = smallest_eigenpairs(&l, 1, n, &[ones_unit]).unwrap();
        // Smallest *nontrivial* eigenvalue: 2 − 2cos(π/n).
        let expected = 2.0 - 2.0 * (std::f64::consts::PI / n as f64).cos();
        assert!(
            (vals[0] - expected).abs() < 1e-8,
            "{} vs {expected}",
            vals[0]
        );
    }

    #[test]
    fn lucky_breakdown_on_invariant_subspace() {
        // Seed is an exact eigenvector of a diagonal matrix: the Krylov
        // space is 1-dimensional.
        let a = DenseMatrix::from_diag(&[1.0, 2.0, 3.0]);
        let res = lanczos(&a, &[0.0, 1.0, 0.0], 3, &[]).unwrap();
        assert_eq!(res.alpha.len(), 1);
        assert!((res.alpha[0] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn argument_validation() {
        let a = DenseMatrix::identity(3);
        assert!(lanczos(&a, &[0.0, 0.0, 0.0], 2, &[]).is_err());
        assert!(smallest_eigenpairs(&a, 0, 3, &[]).is_err());
        assert!(smallest_eigenpairs(&a, 4, 3, &[]).is_err());
    }

    #[test]
    fn fixed_run_reports_a_poisoned_operator() {
        let l = path_laplacian(10);
        let faulty = crate::fault::FaultyOp::new(
            &l,
            acir_runtime::FaultConfig::nans(1.0).after_clean_applies(3),
        );
        assert!(matches!(
            smallest_eigenpairs(&faulty, 1, 10, &[]),
            Err(LinalgError::NotConverged { iterations: 3, residual }) if residual.is_nan()
        ));
    }

    #[test]
    fn smallest_eigenpairs_matches_jacobi() {
        let n = 16;
        let l = path_laplacian(n);
        let (vals, vecs) = smallest_eigenpairs(&l, 3, n, &[]).unwrap();
        let dense = l.to_dense();
        let eig = crate::jacobi::SymEig::new(&dense).unwrap();
        for i in 0..3 {
            assert!((vals[i] - eig.eigenvalues[i]).abs() < 1e-7, "i={i}");
            assert!(vector::alignment(&vecs[i], &eig.eigenvector(i)) > 1.0 - 1e-6);
        }
    }
}
