//! Unrolled-CSR row kernels: the canonical arrays, 8-wide loop bodies.
//!
//! Same storage, same addition sequence, less loop overhead: every
//! body below is **left-associated** exactly like the one-at-a-time
//! scan (the [`crate::vector::dot`] idiom from the PR 2 `axpby`
//! family), so results are bit-identical to the scalar kernels. These
//! functions are also the row primitives the [`super::merge`] layout
//! and the non-scalar transpose route build on.

use crate::sparse::CsrMatrix;
use acir_exec::SpmvLayout;

/// Marker implementation of [`super::SparseLayout`] for the unrolled
/// route — stateless, since it reads the canonical CSR arrays.
#[derive(Debug, Clone, Copy, Default)]
pub struct UnrolledCsr;

/// The shared stateless instance behind the dispatch in
/// [`CsrMatrix::matvec`].
pub(crate) static UNROLLED: UnrolledCsr = UnrolledCsr;

impl super::SparseLayout for UnrolledCsr {
    fn layout(&self) -> SpmvLayout {
        SpmvLayout::Unrolled
    }

    fn matvec(&self, a: &CsrMatrix, x: &[f64], y: &mut [f64]) {
        a.matvec_on_row_chunks(x, y, rows);
    }
}

/// `Σ_j A[r,j]·x[j]` for one row, 8-wide unrolled.
///
/// The unrolled body is one left-associated expression
/// `acc + v₀x₀ + v₁x₁ + … + v₇x₇`, which is the exact addition
/// sequence of the scalar loop — bit-identical by construction.
#[inline]
pub(crate) fn row_sum(a: &CsrMatrix, x: &[f64], r: usize) -> f64 {
    let (row_ptr, col_idx, values) = a.raw_parts();
    let lo = row_ptr[r];
    let hi = row_ptr[r + 1];
    let cols = &col_idx[lo..hi];
    let vals = &values[lo..hi];
    let len = cols.len();
    let n8 = len - len % 8;
    let mut acc = 0.0f64;
    let mut k = 0;
    // CORE LOOP
    while k < n8 {
        let (c, v) = (&cols[k..k + 8], &vals[k..k + 8]);
        acc = acc
            + v[0] * x[c[0] as usize]
            + v[1] * x[c[1] as usize]
            + v[2] * x[c[2] as usize]
            + v[3] * x[c[3] as usize]
            + v[4] * x[c[4] as usize]
            + v[5] * x[c[5] as usize]
            + v[6] * x[c[6] as usize]
            + v[7] * x[c[7] as usize];
        k += 8;
    }
    while k < len {
        acc += vals[k] * x[cols[k] as usize];
        k += 1;
    }
    acc
}

/// Sequential kernel: `y_chunk[k] = (A x)[first_row + k]`, unrolled.
/// Signature-compatible with `CsrMatrix::matvec_rows` so the two
/// routes share the chunked driver.
pub(crate) fn rows(a: &CsrMatrix, x: &[f64], first_row: usize, y_chunk: &mut [f64]) {
    for (k, yi) in y_chunk.iter_mut().enumerate() {
        *yi = row_sum(a, x, first_row + k);
    }
}

/// Scatter kernel for the transposed product, 4-wide:
/// `y[c] += A[i,c]·x[i]` over `rows`. Column indices within a row are
/// strictly increasing (distinct targets), so unrolling the entry loop
/// preserves each `y[c]`'s update order — bit-identical to the scalar
/// scatter.
pub(crate) fn scatter_rows(a: &CsrMatrix, x: &[f64], rows: std::ops::Range<usize>, y: &mut [f64]) {
    let (row_ptr, col_idx, values) = a.raw_parts();
    for i in rows {
        let xi = x[i];
        if xi == 0.0 {
            continue;
        }
        let lo = row_ptr[i];
        let hi = row_ptr[i + 1];
        let cols = &col_idx[lo..hi];
        let vals = &values[lo..hi];
        let len = cols.len();
        let n4 = len - len % 4;
        let mut k = 0;
        while k < n4 {
            y[cols[k] as usize] += vals[k] * xi;
            y[cols[k + 1] as usize] += vals[k + 1] * xi;
            y[cols[k + 2] as usize] += vals[k + 2] * xi;
            y[cols[k + 3] as usize] += vals[k + 3] * xi;
            k += 4;
        }
        while k < len {
            y[cols[k] as usize] += vals[k] * xi;
            k += 1;
        }
    }
}
