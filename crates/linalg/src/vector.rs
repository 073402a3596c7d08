//! BLAS-1 style vector kernels.
//!
//! Free functions over `&[f64]` / `&mut [f64]` so they compose with both
//! owned buffers and matrix rows without copies. All functions panic on
//! length mismatch in debug builds (via `zip` + `debug_assert`), matching
//! the crate convention that dimension errors are programmer errors at
//! this lowest level.
//!
//! ## Determinism and parallelism
//!
//! The reductions ([`dot`], [`norm2`], [`norm1`], [`sum`]) accumulate
//! **strictly sequentially, left to right** — the 4-way unrolled bodies
//! change loop overhead, never the order of floating-point additions, so
//! every result is bit-identical to the naive loop (pinned by tests).
//! They are deliberately *not* thread-parallel: a chunked reduction
//! re-associates additions, and these primitives sit under every
//! convergence test in the workspace.
//!
//! The elementwise updates ([`axpy`], [`scale`], [`hadamard`]) have no
//! cross-element data flow, so they fan out on the ambient
//! [`ExecPool`] once a vector is long enough to pay
//! for it — with per-element arithmetic unchanged, hence bit-identical
//! at every thread count.

use acir_exec::ExecPool;

/// Below this length the elementwise updates stay sequential: the memory
/// scan is far cheaper than waking workers. A size (not thread-count)
/// threshold — results are identical on both paths anyway.
const PAR_MIN_LEN: usize = 1 << 15;

/// Dot product `xᵀy`.
///
/// Accumulated left-to-right (4-way unrolled, order preserved): the
/// result is bit-identical to the naive sequential loop.
#[inline]
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), y.len());
    let n4 = x.len() - x.len() % 4;
    let mut acc = 0.0f64;
    let mut i = 0;
    // Left-associated adds: ((((acc + x0·y0) + x1·y1) + x2·y2) + x3·y3)
    // is the exact addition sequence of the one-at-a-time loop.
    while i < n4 {
        acc = acc + x[i] * y[i] + x[i + 1] * y[i + 1] + x[i + 2] * y[i + 2] + x[i + 3] * y[i + 3];
        i += 4;
    }
    while i < x.len() {
        acc += x[i] * y[i];
        i += 1;
    }
    acc
}

/// Euclidean norm `‖x‖₂`.
#[inline]
pub fn norm2(x: &[f64]) -> f64 {
    dot(x, x).sqrt()
}

/// One-norm `‖x‖₁ = Σ|xᵢ|` (sequential accumulation order).
#[inline]
pub fn norm1(x: &[f64]) -> f64 {
    let n4 = x.len() - x.len() % 4;
    let mut acc = 0.0f64;
    let mut i = 0;
    while i < n4 {
        acc = acc + x[i].abs() + x[i + 1].abs() + x[i + 2].abs() + x[i + 3].abs();
        i += 4;
    }
    while i < x.len() {
        acc += x[i].abs();
        i += 1;
    }
    acc
}

/// Infinity norm `max |xᵢ|` (0 for the empty vector).
#[inline]
pub fn norm_inf(x: &[f64]) -> f64 {
    x.iter().fold(0.0_f64, |m, a| m.max(a.abs()))
}

/// `y ← a·x + y`.
///
/// Elementwise (no cross-element data flow): 4-way unrolled, and
/// thread-parallel for long vectors with per-element arithmetic
/// unchanged — bit-identical at every thread count.
#[inline]
pub fn axpy(a: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    if y.len() >= PAR_MIN_LEN {
        ExecPool::from_env().par_zip_mut(y, x, PAR_MIN_LEN / 4, |yc, xc| axpy_seq(a, xc, yc));
    } else {
        axpy_seq(a, x, y);
    }
}

#[inline]
fn axpy_seq(a: f64, x: &[f64], y: &mut [f64]) {
    let (y4, ytail) = y.split_at_mut(y.len() - y.len() % 4);
    let (x4, xtail) = x.split_at(y4.len());
    for (yc, xc) in y4.chunks_exact_mut(4).zip(x4.chunks_exact(4)) {
        yc[0] += a * xc[0];
        yc[1] += a * xc[1];
        yc[2] += a * xc[2];
        yc[3] += a * xc[3];
    }
    for (yi, xi) in ytail.iter_mut().zip(xtail) {
        *yi += a * xi;
    }
}

/// `y ← a·x + b·y` elementwise — the CG direction update `p ← r + β·p`
/// and the Chebyshev three-term recurrence `t ← 2·t − t_prev` are both
/// instances. Thread-parallel for long vectors with per-element
/// arithmetic unchanged, hence bit-identical at every thread count.
#[inline]
pub fn axpby(a: f64, x: &[f64], b: f64, y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    if y.len() >= PAR_MIN_LEN {
        ExecPool::from_env().par_zip_mut(y, x, PAR_MIN_LEN / 4, |yc, xc| axpby_seq(a, xc, b, yc));
    } else {
        axpby_seq(a, x, b, y);
    }
}

#[inline]
fn axpby_seq(a: f64, x: &[f64], b: f64, y: &mut [f64]) {
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi = a * xi + b * *yi;
    }
}

/// `y[i] ← x[i] / c` — the normalized copy of power iteration. Kept as a
/// true division (not a multiply by `1/c`) so results match the scalar
/// loop bit-for-bit; thread-parallel for long vectors.
#[inline]
pub fn copy_div(c: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    if y.len() >= PAR_MIN_LEN {
        ExecPool::from_env().par_zip_mut(y, x, PAR_MIN_LEN / 4, |yc, xc| {
            for (yi, xi) in yc.iter_mut().zip(xc) {
                *yi = xi / c;
            }
        });
    } else {
        for (yi, xi) in y.iter_mut().zip(x) {
            *yi = xi / c;
        }
    }
}

/// `x ← a·x` (elementwise; thread-parallel for long vectors).
#[inline]
pub fn scale(a: f64, x: &mut [f64]) {
    if x.len() >= PAR_MIN_LEN {
        ExecPool::from_env().par_chunks_mut(x, PAR_MIN_LEN / 4, |_, chunk| {
            for xi in chunk.iter_mut() {
                *xi *= a;
            }
        });
    } else {
        for xi in x.iter_mut() {
            *xi *= a;
        }
    }
}

/// Copy `src` into `dst`.
#[inline]
pub fn copy(src: &[f64], dst: &mut [f64]) {
    dst.copy_from_slice(src);
}

/// Normalize `x` to unit 2-norm in place; returns the original norm.
///
/// If `‖x‖₂ == 0` the vector is left untouched and 0.0 is returned.
pub fn normalize2(x: &mut [f64]) -> f64 {
    let n = norm2(x);
    if n > 0.0 {
        scale(1.0 / n, x);
    }
    n
}

/// Normalize `x` to unit 1-norm in place (probability normalization);
/// returns the original 1-norm. A zero vector is left untouched.
pub fn normalize1(x: &mut [f64]) -> f64 {
    let n = norm1(x);
    if n > 0.0 {
        scale(1.0 / n, x);
    }
    n
}

/// `‖x − y‖₂`.
pub fn dist2(x: &[f64], y: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), y.len());
    x.iter()
        .zip(y)
        .map(|(a, b)| (a - b) * (a - b))
        .sum::<f64>()
        .sqrt()
}

/// Project `x` onto the orthogonal complement of unit vector `u`:
/// `x ← x − (uᵀx)·u`.
///
/// Used by eigenvector iterations to deflate known eigenvectors (e.g. the
/// trivial degree-weighted eigenvector `D^{1/2}·1` of a normalized
/// Laplacian, paper §3.1).
pub fn deflate(x: &mut [f64], u: &[f64]) {
    let c = dot(x, u);
    axpy(-c, u, x);
}

/// Alignment `|xᵀy| / (‖x‖·‖y‖)` in `[0, 1]`; 1 means parallel up to sign.
///
/// The natural eigenvector comparison: the paper stresses that `v₂` is only
/// defined up to sign (and possibly not uniquely at all), so comparisons
/// must be sign-invariant.
pub fn alignment(x: &[f64], y: &[f64]) -> f64 {
    let nx = norm2(x);
    let ny = norm2(y);
    if nx == 0.0 || ny == 0.0 {
        return 0.0;
    }
    (dot(x, y) / (nx * ny)).abs().min(1.0)
}

/// Sum of entries.
#[inline]
pub fn sum(x: &[f64]) -> f64 {
    x.iter().sum()
}

/// Elementwise product `z = x ⊙ y` written into `z` (thread-parallel
/// for long vectors; per-element arithmetic unchanged).
pub fn hadamard(x: &[f64], y: &[f64], z: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    debug_assert_eq!(x.len(), z.len());
    if z.len() >= PAR_MIN_LEN {
        ExecPool::from_env().par_chunks_mut(z, PAR_MIN_LEN / 4, |start, chunk| {
            let (xc, yc) = (
                &x[start..start + chunk.len()],
                &y[start..start + chunk.len()],
            );
            for ((zi, xi), yi) in chunk.iter_mut().zip(xc).zip(yc) {
                *zi = xi * yi;
            }
        });
    } else {
        for ((zi, xi), yi) in z.iter_mut().zip(x).zip(y) {
            *zi = xi * yi;
        }
    }
}

/// Index and value of the maximum entry; `None` for the empty slice.
pub fn argmax(x: &[f64]) -> Option<(usize, f64)> {
    x.iter()
        .copied()
        .enumerate()
        .fold(None, |best, (i, v)| match best {
            Some((_, bv)) if bv >= v => best,
            _ => Some((i, v)),
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn dot_and_norms() {
        let x = [3.0, 4.0];
        assert_eq!(dot(&x, &x), 25.0);
        assert_eq!(norm2(&x), 5.0);
        assert_eq!(norm1(&x), 7.0);
        assert_eq!(norm_inf(&x), 4.0);
        assert_eq!(norm_inf(&[]), 0.0);
    }

    #[test]
    fn axpy_scale_copy() {
        let x = [1.0, 2.0];
        let mut y = [10.0, 20.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, [12.0, 24.0]);
        scale(0.5, &mut y);
        assert_eq!(y, [6.0, 12.0]);
        let mut z = [0.0, 0.0];
        copy(&y, &mut z);
        assert_eq!(z, y);
    }

    #[test]
    fn normalize_unit_norm() {
        let mut x = vec![3.0, 4.0];
        let n = normalize2(&mut x);
        assert_eq!(n, 5.0);
        assert!((norm2(&x) - 1.0).abs() < 1e-15);

        let mut p = vec![1.0, 3.0];
        normalize1(&mut p);
        assert!((sum(&p) - 1.0).abs() < 1e-15);
    }

    #[test]
    fn normalize_zero_vector_is_noop() {
        let mut x = vec![0.0, 0.0];
        assert_eq!(normalize2(&mut x), 0.0);
        assert_eq!(x, vec![0.0, 0.0]);
        assert_eq!(normalize1(&mut x), 0.0);
    }

    #[test]
    fn deflate_removes_component() {
        let u = [1.0, 0.0];
        let mut x = [3.0, 7.0];
        deflate(&mut x, &u);
        assert_eq!(x, [0.0, 7.0]);
        assert!(dot(&x, &u).abs() < 1e-15);
    }

    #[test]
    fn alignment_is_sign_invariant() {
        let x = [1.0, 2.0, 3.0];
        let y = [-1.0, -2.0, -3.0];
        assert!((alignment(&x, &y) - 1.0).abs() < 1e-12);
        let z = [0.0, 0.0, 0.0];
        assert_eq!(alignment(&x, &z), 0.0);
    }

    #[test]
    fn alignment_orthogonal_is_zero() {
        assert!(alignment(&[1.0, 0.0], &[0.0, 1.0]).abs() < 1e-15);
    }

    #[test]
    fn hadamard_elementwise() {
        let mut z = [0.0; 3];
        hadamard(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0], &mut z);
        assert_eq!(z, [4.0, 10.0, 18.0]);
    }

    #[test]
    fn argmax_basic() {
        assert_eq!(argmax(&[1.0, 5.0, 3.0]), Some((1, 5.0)));
        assert_eq!(argmax(&[]), None);
        // First max wins on ties.
        assert_eq!(argmax(&[2.0, 2.0]), Some((0, 2.0)));
    }

    #[test]
    fn dist2_matches_norm_of_difference() {
        let x = [1.0, 2.0];
        let y = [4.0, 6.0];
        assert_eq!(dist2(&x, &y), 5.0);
    }

    /// The naive reference implementations the unrolled kernels are
    /// pinned against: one element at a time, strictly left to right.
    fn naive_dot(x: &[f64], y: &[f64]) -> f64 {
        let mut acc = 0.0;
        for (a, b) in x.iter().zip(y) {
            acc += a * b;
        }
        acc
    }

    fn naive_norm1(x: &[f64]) -> f64 {
        let mut acc = 0.0;
        for a in x {
            acc += a.abs();
        }
        acc
    }

    fn naive_axpy(a: f64, x: &[f64], y: &mut [f64]) {
        for (yi, xi) in y.iter_mut().zip(x) {
            *yi += a * xi;
        }
    }

    /// Awkward values whose sums are rounding-order sensitive, at
    /// lengths straddling every unroll remainder (0..=3).
    fn awkward(len: usize) -> Vec<f64> {
        (0..len)
            .map(|i| {
                let s = if i % 3 == 0 { -1.0 } else { 1.0 };
                s * (1.0 + (i as f64) * 1e-3) * 10f64.powi((i % 13) as i32 - 6)
            })
            .collect()
    }

    #[test]
    fn unrolled_kernels_bit_identical_to_naive_ordering() {
        for len in [0usize, 1, 2, 3, 4, 5, 7, 8, 97, 1024, 1031] {
            let x = awkward(len);
            let y: Vec<f64> = awkward(len).iter().map(|v| v * 0.7 - 0.1).collect();
            assert_eq!(
                dot(&x, &y).to_bits(),
                naive_dot(&x, &y).to_bits(),
                "dot at len {len}"
            );
            assert_eq!(
                norm2(&x).to_bits(),
                naive_dot(&x, &x).sqrt().to_bits(),
                "norm2 at len {len}"
            );
            assert_eq!(
                norm1(&x).to_bits(),
                naive_norm1(&x).to_bits(),
                "norm1 at len {len}"
            );
            let mut got = y.clone();
            axpy(0.3, &x, &mut got);
            let mut want = y.clone();
            naive_axpy(0.3, &x, &mut want);
            assert_eq!(got, want, "axpy at len {len}");
        }
    }

    #[test]
    fn axpby_and_copy_div_match_scalar_loops_at_any_thread_count() {
        // Crosses PAR_MIN_LEN so the pool path actually runs; the scalar
        // references mirror the loops these helpers replaced in CG,
        // Chebyshev, and power iteration.
        let n = (1 << 15) + 5;
        let x = awkward(n);
        let base: Vec<f64> = awkward(n).iter().map(|v| v * 1.3 + 0.125).collect();
        let want_axpby: Vec<f64> = base
            .iter()
            .zip(&x)
            .map(|(yi, xi)| 0.7 * xi + (-1.9) * yi)
            .collect();
        let want_div: Vec<f64> = x.iter().map(|xi| xi / 3.7).collect();
        let before = std::env::var_os("ACIR_THREADS");
        for threads in ["1", "4"] {
            std::env::set_var("ACIR_THREADS", threads);
            let mut y = base.clone();
            axpby(0.7, &x, -1.9, &mut y);
            assert_eq!(y, want_axpby, "axpby at {threads} threads");
            let mut d = vec![0.0; n];
            copy_div(3.7, &x, &mut d);
            assert_eq!(d, want_div, "copy_div at {threads} threads");
        }
        match before {
            Some(v) => std::env::set_var("ACIR_THREADS", v),
            None => std::env::remove_var("ACIR_THREADS"),
        }
    }

    #[test]
    fn long_elementwise_ops_match_sequential_at_any_thread_count() {
        // Crosses PAR_MIN_LEN so the pool path actually runs.
        let n = (1 << 15) + 3;
        let x = awkward(n);
        let base: Vec<f64> = awkward(n).iter().map(|v| v + 0.25).collect();
        let mut want = base.clone();
        naive_axpy(-1.7, &x, &mut want);
        let before = std::env::var_os("ACIR_THREADS");
        for threads in ["1", "4"] {
            std::env::set_var("ACIR_THREADS", threads);
            let mut got = base.clone();
            axpy(-1.7, &x, &mut got);
            assert_eq!(got, want, "axpy differs at {threads} threads");
            let mut s = x.clone();
            scale(0.5, &mut s);
            assert!(s.iter().zip(&x).all(|(a, b)| *a == b * 0.5));
            let mut h = vec![0.0; n];
            hadamard(&x, &base, &mut h);
            assert!(h
                .iter()
                .zip(x.iter().zip(&base))
                .all(|(z, (a, b))| *z == a * b));
        }
        match before {
            Some(v) => std::env::set_var("ACIR_THREADS", v),
            None => std::env::remove_var("ACIR_THREADS"),
        }
    }

    proptest! {
        #[test]
        fn prop_cauchy_schwarz(x in proptest::collection::vec(-100.0..100.0f64, 1..32),
                               y in proptest::collection::vec(-100.0..100.0f64, 1..32)) {
            let n = x.len().min(y.len());
            let (x, y) = (&x[..n], &y[..n]);
            prop_assert!(dot(x, y).abs() <= norm2(x) * norm2(y) + 1e-9);
        }

        #[test]
        fn prop_triangle_inequality(x in proptest::collection::vec(-10.0..10.0f64, 1..32),
                                    y in proptest::collection::vec(-10.0..10.0f64, 1..32)) {
            let n = x.len().min(y.len());
            let (x, y) = (&x[..n], &y[..n]);
            let mut s = x.to_vec();
            axpy(1.0, y, &mut s);
            prop_assert!(norm2(&s) <= norm2(x) + norm2(y) + 1e-9);
        }

        #[test]
        fn prop_normalize2_yields_unit(x in proptest::collection::vec(-100.0..100.0f64, 1..32)) {
            let mut v = x.clone();
            let n = normalize2(&mut v);
            if n > 1e-9 {
                prop_assert!((norm2(&v) - 1.0).abs() < 1e-9);
            }
        }

        #[test]
        fn prop_deflate_orthogonalizes(x in proptest::collection::vec(-10.0..10.0f64, 2..16)) {
            let mut u = vec![0.0; x.len()];
            u[0] = 0.6; u[1] = 0.8; // unit vector
            let mut v = x.clone();
            deflate(&mut v, &u);
            prop_assert!(dot(&v, &u).abs() < 1e-9);
        }

        #[test]
        fn prop_norm_ordering(x in proptest::collection::vec(-10.0..10.0f64, 1..32)) {
            // ‖x‖∞ ≤ ‖x‖₂ ≤ ‖x‖₁
            prop_assert!(norm_inf(&x) <= norm2(&x) + 1e-12);
            prop_assert!(norm2(&x) <= norm1(&x) + 1e-12);
        }
    }
}
