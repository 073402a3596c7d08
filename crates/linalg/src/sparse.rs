//! Compressed sparse row (CSR) matrices.
//!
//! The reproduction's graphs have up to millions of edges; everything that
//! touches them must "not damage the sparsity of the matrix" (paper §3.1).
//! CSR with `u32` column indices keeps the memory footprint at 12 bytes
//! per stored entry and makes the matvec a linear scan.
//!
//! ## Parallelism and determinism
//!
//! The hot products ([`CsrMatrix::matvec`], [`CsrMatrix::matvec_transpose`])
//! run on the ambient [`ExecPool`] once the matrix is large enough to pay
//! for fan-out. Work is split into
//! **nnz-balanced row chunks** whose boundaries depend only on the matrix
//! (see [`CsrMatrix::nnz_balanced_row_chunks`]), and chunk partials are
//! combined in fixed chunk order, so every product is bit-identical from
//! 1 to N threads. Path selection (sequential vs. chunked) keys on `nnz`
//! alone — never on the thread count — which keeps the rounding of the
//! transpose product (the one kernel whose chunked merge re-associates
//! additions) reproducible as well.

use crate::dense::DenseMatrix;
use crate::layout::{self, AltCache, ChunkPlan, SparseLayout};
use crate::vector;
use acir_exec::{ExecPool, SpmvLayout};

/// Below this many stored entries the products stay on their sequential
/// paths: fan-out costs more than the scan. A size (not thread-count)
/// threshold, so the chosen path — and its rounding — is reproducible.
pub(crate) const PAR_MIN_NNZ: usize = 16_384;

/// Target stored entries per row chunk for [`CsrMatrix::matvec`].
pub(crate) const CHUNK_TARGET_NNZ: usize = 8_192;

/// Chunk-count cap for [`CsrMatrix::matvec_transpose`], which needs one
/// dense accumulator of `ncols` floats per chunk.
const TRANSPOSE_MAX_CHUNKS: usize = 8;

/// A sparse matrix in compressed-sparse-row format.
///
/// Invariants (checked by [`CsrMatrix::validate`] and maintained by all
/// constructors):
/// * `row_ptr.len() == nrows + 1`, `row_ptr[0] == 0`,
///   `row_ptr[nrows] == col_idx.len() == values.len()`;
/// * `row_ptr` is non-decreasing;
/// * within each row, column indices are strictly increasing (sorted,
///   no duplicates) and `< ncols`.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    nrows: usize,
    ncols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<f64>,
    /// Lazily-built alternate layouts and chunk plans (see
    /// [`crate::layout`]). Not part of the matrix's value: cloned
    /// empty, ignored by `PartialEq`, invalidated by every mutator.
    alt: AltCache,
}

impl CsrMatrix {
    /// Build from COO triplets `(row, col, value)`. Duplicate coordinates
    /// are summed; explicit zeros are kept (callers may [`Self::prune`]).
    ///
    /// Panics if any coordinate is out of range.
    pub fn from_triplets(
        nrows: usize,
        ncols: usize,
        triplets: impl IntoIterator<Item = (usize, usize, f64)>,
    ) -> Self {
        let mut entries: Vec<(usize, usize, f64)> = triplets.into_iter().collect();
        for &(r, c, _) in &entries {
            assert!(r < nrows && c < ncols, "triplet ({r},{c}) out of range");
        }
        entries.sort_unstable_by_key(|a| (a.0, a.1));

        // Merge consecutive duplicates (same row and column) by summing.
        let mut merged: Vec<(usize, usize, f64)> = Vec::with_capacity(entries.len());
        for (r, c, v) in entries {
            match merged.last_mut() {
                Some((lr, lc, lv)) if *lr == r && *lc == c => *lv += v,
                _ => merged.push((r, c, v)),
            }
        }

        let mut row_ptr = vec![0usize; nrows + 1];
        let mut col_idx = Vec::with_capacity(merged.len());
        let mut values = Vec::with_capacity(merged.len());
        for (r, c, v) in merged {
            row_ptr[r + 1] += 1;
            col_idx.push(c as u32);
            values.push(v);
        }
        for i in 1..=nrows {
            row_ptr[i] += row_ptr[i - 1];
        }
        let m = Self {
            nrows,
            ncols,
            row_ptr,
            col_idx,
            values,
            alt: AltCache::default(),
        };
        debug_assert!(m.validate().is_ok(), "{:?}", m.validate());
        m
    }

    /// Build directly from CSR arrays, validating the invariants.
    pub fn from_csr(
        nrows: usize,
        ncols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<u32>,
        values: Vec<f64>,
    ) -> crate::Result<Self> {
        let m = Self {
            nrows,
            ncols,
            row_ptr,
            col_idx,
            values,
            alt: AltCache::default(),
        };
        m.validate()?;
        Ok(m)
    }

    /// Identity matrix in CSR form.
    pub fn identity(n: usize) -> Self {
        Self {
            nrows: n,
            ncols: n,
            row_ptr: (0..=n).collect(),
            col_idx: (0..n as u32).collect(),
            values: vec![1.0; n],
            alt: AltCache::default(),
        }
    }

    /// Diagonal matrix from a slice.
    pub fn from_diag(d: &[f64]) -> Self {
        let n = d.len();
        Self {
            nrows: n,
            ncols: n,
            row_ptr: (0..=n).collect(),
            col_idx: (0..n as u32).collect(),
            values: d.to_vec(),
            alt: AltCache::default(),
        }
    }

    /// Check the CSR structural invariants.
    pub fn validate(&self) -> crate::Result<()> {
        use crate::LinalgError::InvalidArgument;
        if self.row_ptr.len() != self.nrows + 1 {
            return Err(InvalidArgument("row_ptr length must be nrows + 1"));
        }
        if self.row_ptr[0] != 0 {
            return Err(InvalidArgument("row_ptr[0] must be 0"));
        }
        if *self.row_ptr.last().unwrap() != self.col_idx.len()
            || self.col_idx.len() != self.values.len()
        {
            return Err(InvalidArgument("row_ptr end must equal nnz"));
        }
        for w in self.row_ptr.windows(2) {
            if w[1] < w[0] {
                return Err(InvalidArgument("row_ptr must be non-decreasing"));
            }
        }
        for r in 0..self.nrows {
            let cols = &self.col_idx[self.row_ptr[r]..self.row_ptr[r + 1]];
            for w in cols.windows(2) {
                if w[1] <= w[0] {
                    return Err(InvalidArgument("row columns must be strictly increasing"));
                }
            }
            if let Some(&c) = cols.last() {
                if c as usize >= self.ncols {
                    return Err(InvalidArgument("column index out of range"));
                }
            }
        }
        Ok(())
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Iterator over `(col, value)` pairs of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> impl Iterator<Item = (u32, f64)> + '_ {
        let range = self.row_ptr[i]..self.row_ptr[i + 1];
        self.col_idx[range.clone()]
            .iter()
            .copied()
            .zip(self.values[range].iter().copied())
    }

    /// Entry lookup by binary search within the row. `O(log row_nnz)`.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let range = self.row_ptr[i]..self.row_ptr[i + 1];
        let cols = &self.col_idx[range.clone()];
        match cols.binary_search(&(j as u32)) {
            Ok(k) => self.values[range.start + k],
            Err(_) => 0.0,
        }
    }

    /// Split `0..nrows` into row ranges of roughly `target_nnz` stored
    /// entries each, at most `max_chunks` ranges.
    ///
    /// The boundaries are a pure function of the matrix (its `row_ptr`)
    /// and the arguments — thread counts never enter — which is what
    /// makes the chunked products deterministic. Rows are never split,
    /// so chunk outputs are disjoint row ranges.
    pub fn nnz_balanced_row_chunks(
        &self,
        target_nnz: usize,
        max_chunks: usize,
    ) -> Vec<std::ops::Range<usize>> {
        let total = self.nnz();
        let max_chunks = max_chunks.max(1);
        let target = target_nnz.max(1).max(total.div_ceil(max_chunks));
        let mut out = Vec::new();
        let mut start = 0usize;
        while start < self.nrows {
            let goal = self.row_ptr[start] + target;
            // First row boundary at or past the nnz goal.
            let mut end =
                match self.row_ptr[start + 1..=self.nrows].binary_search_by(|p| p.cmp(&goal)) {
                    Ok(k) => start + 1 + k,
                    Err(k) => (start + 1 + k).min(self.nrows),
                };
            end = end.max(start + 1);
            out.push(start..end);
            start = end;
        }
        out
    }

    /// Raw CSR arrays `(row_ptr, col_idx, values)` for the layout
    /// kernels in [`crate::layout`].
    #[inline]
    pub(crate) fn raw_parts(&self) -> (&[usize], &[u32], &[f64]) {
        (&self.row_ptr, &self.col_idx, &self.values)
    }

    /// The cached nnz-balanced chunk plan of [`Self::matvec`]'s row
    /// routes (built on first use; a pure function
    /// of the matrix, so caching cannot change results — it only drops
    /// the per-call plan allocation and binary searches).
    pub(crate) fn chunk_plan(&self) -> &ChunkPlan {
        self.alt.chunks(|| {
            let chunks = self.nnz_balanced_row_chunks(CHUNK_TARGET_NNZ, acir_exec::MAX_CHUNKS);
            let lens = chunks.iter().map(std::ops::Range::len).collect();
            (chunks, lens)
        })
    }

    /// The layout the current call should execute on: the ambient
    /// policy ([`acir_exec::current_spmv_layout`]), with `Auto`
    /// resolved — once per matrix, from its shape — to `Unrolled`
    /// (small), `Merge` (heavily skewed rows) or `Sell`.
    fn active_layout(&self) -> SpmvLayout {
        match acir_exec::current_spmv_layout() {
            SpmvLayout::Auto => self.alt.auto(|| {
                if self.nnz() < PAR_MIN_NNZ {
                    return SpmvLayout::Unrolled;
                }
                let mean = (self.nnz() / self.nrows.max(1)).max(1);
                let max = self
                    .row_ptr
                    .windows(2)
                    .map(|w| w[1] - w[0])
                    .max()
                    .unwrap_or(0);
                if max > 8 * mean {
                    SpmvLayout::Merge
                } else {
                    SpmvLayout::Sell
                }
            }),
            k => k,
        }
    }

    /// Chunked driver shared by the row-ordered matvec routes: run
    /// `kernel(self, x, first_row, y_chunk)` over the cached chunk
    /// plan (sequentially below [`PAR_MIN_NNZ`]).
    pub(crate) fn matvec_on_row_chunks(
        &self,
        x: &[f64],
        y: &mut [f64],
        kernel: fn(&CsrMatrix, &[f64], usize, &mut [f64]),
    ) {
        if self.nnz() < PAR_MIN_NNZ {
            kernel(self, x, 0, y);
            return;
        }
        let (chunks, lens) = self.chunk_plan();
        ExecPool::from_env().par_parts_mut(y, lens, |c, y_chunk| {
            kernel(self, x, chunks[c].start, y_chunk);
        });
    }

    /// Sparse matrix–vector product `y = A x` (overwrites `y`).
    ///
    /// Parallelized over nnz-balanced row chunks on the ambient
    /// [`ExecPool`]; each `y[i]` is accumulated sequentially over its
    /// row either way, so the result is bit-identical to the
    /// sequential scan at every thread count.
    ///
    /// The *execution layout* is chosen per call from the ambient
    /// [`SpmvLayout`] policy (a `KernelCtx` scope or
    /// `ACIR_SPMV_LAYOUT`; scalar CSR by default) — see
    /// [`crate::layout`]. Every layout is bit-identical to the scalar
    /// scan; derived layouts are built lazily and cached inside the
    /// matrix.
    pub fn matvec(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.ncols, "matvec: x length");
        assert_eq!(y.len(), self.nrows, "matvec: y length");
        match self.active_layout() {
            SpmvLayout::Csr => self.matvec_on_row_chunks(x, y, Self::matvec_rows),
            SpmvLayout::Unrolled => layout::unrolled::UNROLLED.matvec(self, x, y),
            SpmvLayout::Sell => self.alt.sell(self).matvec(self, x, y),
            SpmvLayout::Merge => self.alt.merge(self).matvec(self, x, y),
            SpmvLayout::Auto => unreachable!("active_layout resolves Auto"),
        }
    }

    /// Sequential scalar kernel: `y_chunk[k] = (A x)[first_row + k]`.
    /// The reference accumulation order every layout must reproduce.
    fn matvec_rows(&self, x: &[f64], first_row: usize, y_chunk: &mut [f64]) {
        // CORE LOOP
        for (k, yi) in y_chunk.iter_mut().enumerate() {
            let mut acc = 0.0;
            for (c, v) in self.row(first_row + k) {
                acc += v * x[c as usize];
            }
            *yi = acc;
        }
    }

    /// Transposed product `y = Aᵀ x` (overwrites `y`).
    ///
    /// Large matrices scatter into one dense accumulator per row chunk
    /// (chunk boundaries fixed by the matrix, never the thread count)
    /// and the accumulators are summed into `y` in ascending chunk
    /// order — deterministic at every thread count, at the cost of
    /// `TRANSPOSE_MAX_CHUNKS · ncols` transient floats.
    pub fn matvec_transpose(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.nrows, "matvec_transpose: x length");
        assert_eq!(y.len(), self.ncols, "matvec_transpose: y length");
        // Layout routing for the scatter product swaps only the
        // per-row inner kernel (unrolled vs. scalar — same update
        // order per output element, hence bit-identical); the chunk
        // structure and merge order are shared, because *they* are
        // what fixes this product's rounding.
        let scatter: fn(&CsrMatrix, &[f64], std::ops::Range<usize>, &mut [f64]) =
            match self.active_layout() {
                SpmvLayout::Csr => Self::scatter_rows,
                _ => layout::unrolled::scatter_rows,
            };
        if self.nnz() < PAR_MIN_NNZ {
            y.fill(0.0);
            scatter(self, x, 0..self.nrows, y);
            return;
        }
        let chunks = self.nnz_balanced_row_chunks(CHUNK_TARGET_NNZ, TRANSPOSE_MAX_CHUNKS);
        let pool = ExecPool::from_env();
        let partials: Vec<Vec<f64>> = pool.par_map(&chunks, 1, |r| {
            let mut buf = vec![0.0f64; self.ncols];
            scatter(self, x, r.clone(), &mut buf);
            buf
        });
        y.fill(0.0);
        for buf in &partials {
            // Fixed chunk order; the inner add is elementwise.
            for (yi, bi) in y.iter_mut().zip(buf) {
                *yi += bi;
            }
        }
    }

    /// Sequential kernel: `y[c] += Σ_{i ∈ rows} A[i,c]·x[i]`.
    fn scatter_rows(&self, x: &[f64], rows: std::ops::Range<usize>, y: &mut [f64]) {
        for i in rows {
            let xi = x[i];
            if xi == 0.0 {
                continue;
            }
            for (c, v) in self.row(i) {
                y[c as usize] += v * xi;
            }
        }
    }

    /// Transpose into a new CSR matrix.
    pub fn transpose(&self) -> Self {
        let mut counts = vec![0usize; self.ncols + 1];
        for &c in &self.col_idx {
            counts[c as usize + 1] += 1;
        }
        for i in 1..=self.ncols {
            counts[i] += counts[i - 1];
        }
        let row_ptr = counts.clone();
        let mut col_idx = vec![0u32; self.nnz()];
        let mut values = vec![0.0; self.nnz()];
        let mut cursor = counts;
        for r in 0..self.nrows {
            for (c, v) in self.row(r) {
                let k = cursor[c as usize];
                col_idx[k] = r as u32;
                values[k] = v;
                cursor[c as usize] += 1;
            }
        }
        Self {
            nrows: self.ncols,
            ncols: self.nrows,
            row_ptr,
            col_idx,
            values,
            alt: AltCache::default(),
        }
    }

    /// The main diagonal as a vector (length `min(nrows, ncols)`).
    pub fn diag(&self) -> Vec<f64> {
        (0..self.nrows.min(self.ncols))
            .map(|i| self.get(i, i))
            .collect()
    }

    /// Row sums (for adjacency matrices these are weighted degrees).
    pub fn row_sums(&self) -> Vec<f64> {
        (0..self.nrows)
            .map(|i| self.row(i).map(|(_, v)| v).sum())
            .collect()
    }

    /// Scale row `i` by `s[i]` in place: `A ← diag(s)·A`.
    pub fn scale_rows(&mut self, s: &[f64]) {
        self.alt.invalidate();
        assert_eq!(s.len(), self.nrows);
        for (r, &factor) in s.iter().enumerate() {
            let range = self.row_ptr[r]..self.row_ptr[r + 1];
            vector::scale(factor, &mut self.values[range]);
        }
    }

    /// Scale column `j` by `s[j]` in place: `A ← A·diag(s)`.
    pub fn scale_cols(&mut self, s: &[f64]) {
        self.alt.invalidate();
        assert_eq!(s.len(), self.ncols);
        for (c, v) in self.col_idx.iter().zip(self.values.iter_mut()) {
            *v *= s[*c as usize];
        }
    }

    /// Scale every stored value by `a`.
    pub fn scale(&mut self, a: f64) {
        self.alt.invalidate();
        vector::scale(a, &mut self.values);
    }

    /// Drop stored entries with `|value| <= tol`.
    pub fn prune(&mut self, tol: f64) {
        self.alt.invalidate();
        let mut new_row_ptr = vec![0usize; self.nrows + 1];
        let mut w = 0usize;
        for r in 0..self.nrows {
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                if self.values[k].abs() > tol {
                    self.col_idx[w] = self.col_idx[k];
                    self.values[w] = self.values[k];
                    w += 1;
                }
            }
            new_row_ptr[r + 1] = w;
        }
        self.col_idx.truncate(w);
        self.values.truncate(w);
        self.row_ptr = new_row_ptr;
    }

    /// Densify. Only sensible for small reference computations.
    pub fn to_dense(&self) -> DenseMatrix {
        let mut m = DenseMatrix::zeros(self.nrows, self.ncols);
        for r in 0..self.nrows {
            for (c, v) in self.row(r) {
                m[(r, c as usize)] = v;
            }
        }
        m
    }

    /// Whether the sparsity pattern and values are symmetric within `tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if self.nrows != self.ncols {
            return false;
        }
        for r in 0..self.nrows {
            for (c, v) in self.row(r) {
                if (self.get(c as usize, r) - v).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Quadratic form `xᵀ A x`.
    pub fn quad_form(&self, x: &[f64]) -> f64 {
        assert_eq!(self.nrows, self.ncols);
        let mut y = vec![0.0; self.nrows];
        self.matvec(x, &mut y);
        vector::dot(x, &y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// 2x2 matrix [\[1, 2\], \[0, 3\]].
    fn upper() -> CsrMatrix {
        CsrMatrix::from_triplets(2, 2, [(0, 0, 1.0), (0, 1, 2.0), (1, 1, 3.0)])
    }

    #[test]
    fn from_triplets_sums_duplicates() {
        let m = CsrMatrix::from_triplets(2, 2, [(0, 0, 1.0), (0, 0, 2.0), (1, 1, 5.0)]);
        assert_eq!(m.get(0, 0), 3.0);
        assert_eq!(m.nnz(), 2);
        m.validate().unwrap();
    }

    #[test]
    fn from_triplets_handles_empty_rows() {
        let m = CsrMatrix::from_triplets(4, 4, [(0, 1, 1.0), (3, 2, 2.0)]);
        assert_eq!(m.row(1).count(), 0);
        assert_eq!(m.row(2).count(), 0);
        assert_eq!(m.get(3, 2), 2.0);
        m.validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_triplets_rejects_out_of_range() {
        let _ = CsrMatrix::from_triplets(2, 2, [(2, 0, 1.0)]);
    }

    #[test]
    fn from_csr_validates() {
        // row_ptr not ending at nnz.
        assert!(CsrMatrix::from_csr(1, 1, vec![0, 2], vec![0], vec![1.0]).is_err());
        // unsorted columns.
        assert!(CsrMatrix::from_csr(1, 3, vec![0, 2], vec![2, 0], vec![1.0, 1.0]).is_err());
        // duplicate columns.
        assert!(CsrMatrix::from_csr(1, 3, vec![0, 2], vec![1, 1], vec![1.0, 1.0]).is_err());
        // good.
        assert!(CsrMatrix::from_csr(1, 3, vec![0, 2], vec![0, 2], vec![1.0, 1.0]).is_ok());
    }

    #[test]
    fn get_and_row_iter() {
        let m = upper();
        assert_eq!(m.get(0, 1), 2.0);
        assert_eq!(m.get(1, 0), 0.0);
        let row0: Vec<_> = m.row(0).collect();
        assert_eq!(row0, vec![(0, 1.0), (1, 2.0)]);
    }

    #[test]
    fn matvec_matches_dense() {
        let m = upper();
        let mut y = vec![0.0; 2];
        m.matvec(&[1.0, 1.0], &mut y);
        assert_eq!(y, vec![3.0, 3.0]);

        let mut yt = vec![0.0; 2];
        m.matvec_transpose(&[1.0, 1.0], &mut yt);
        assert_eq!(yt, vec![1.0, 5.0]);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = upper();
        let t = m.transpose();
        t.validate().unwrap();
        assert_eq!(t.get(1, 0), 2.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn identity_and_diag() {
        let i = CsrMatrix::identity(3);
        let mut y = vec![0.0; 3];
        i.matvec(&[1.0, 2.0, 3.0], &mut y);
        assert_eq!(y, vec![1.0, 2.0, 3.0]);
        assert_eq!(i.diag(), vec![1.0; 3]);

        let d = CsrMatrix::from_diag(&[2.0, 5.0]);
        assert_eq!(d.get(1, 1), 5.0);
        assert_eq!(d.row_sums(), vec![2.0, 5.0]);
    }

    #[test]
    fn scaling_rows_cols_values() {
        let mut m = upper();
        m.scale_rows(&[2.0, 1.0]);
        assert_eq!(m.get(0, 1), 4.0);
        m.scale_cols(&[1.0, 0.5]);
        assert_eq!(m.get(0, 1), 2.0);
        assert_eq!(m.get(1, 1), 1.5);
        m.scale(2.0);
        assert_eq!(m.get(0, 0), 4.0);
    }

    #[test]
    fn prune_drops_small_entries() {
        let mut m = CsrMatrix::from_triplets(2, 2, [(0, 0, 1e-12), (0, 1, 1.0), (1, 0, -2.0)]);
        m.prune(1e-9);
        assert_eq!(m.nnz(), 2);
        assert_eq!(m.get(0, 0), 0.0);
        assert_eq!(m.get(1, 0), -2.0);
        m.validate().unwrap();
    }

    #[test]
    fn symmetry_check() {
        let sym = CsrMatrix::from_triplets(2, 2, [(0, 1, 1.0), (1, 0, 1.0)]);
        assert!(sym.is_symmetric(1e-12));
        assert!(!upper().is_symmetric(1e-12));
        let rect = CsrMatrix::from_triplets(1, 2, [(0, 1, 1.0)]);
        assert!(!rect.is_symmetric(1e-12));
    }

    #[test]
    fn quad_form_path_laplacian() {
        // L of the 2-path = [[1,-1],[-1,1]].
        let l =
            CsrMatrix::from_triplets(2, 2, [(0, 0, 1.0), (0, 1, -1.0), (1, 0, -1.0), (1, 1, 1.0)]);
        assert_eq!(l.quad_form(&[1.0, -1.0]), 4.0);
        assert_eq!(l.quad_form(&[1.0, 1.0]), 0.0);
    }

    #[test]
    fn to_dense_matches() {
        let m = upper();
        let d = m.to_dense();
        for i in 0..2 {
            for j in 0..2 {
                assert_eq!(d[(i, j)], m.get(i, j));
            }
        }
    }

    /// Deterministic pseudo-random matrix big enough to cross the
    /// parallel thresholds.
    fn big_matrix(nrows: usize, row_nnz: usize) -> CsrMatrix {
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let ncols = nrows;
        let mut trip = Vec::with_capacity(nrows * row_nnz);
        for r in 0..nrows {
            for _ in 0..row_nnz {
                let c = (next() % ncols as u64) as usize;
                let v = (next() % 1000) as f64 / 500.0 - 1.0;
                trip.push((r, c, v));
            }
        }
        CsrMatrix::from_triplets(nrows, ncols, trip)
    }

    #[test]
    fn nnz_row_chunks_tile_rows_and_balance_nnz() {
        let m = big_matrix(500, 40); // ~20k nnz, over the threshold
        let chunks = m.nnz_balanced_row_chunks(2048, 64);
        let mut expect = 0usize;
        for r in &chunks {
            assert_eq!(r.start, expect);
            assert!(!r.is_empty());
            expect = r.end;
        }
        assert_eq!(expect, m.nrows());
        assert!(chunks.len() > 1);
        // Chunks are a function of the matrix only: identical on recompute.
        assert_eq!(chunks, m.nnz_balanced_row_chunks(2048, 64));
        // Each chunk except the last carries at least the target nnz.
        for r in &chunks[..chunks.len() - 1] {
            let nnz: usize = r.clone().map(|i| m.row(i).count()).sum();
            assert!(nnz >= 2048, "chunk {r:?} has {nnz} nnz");
        }
        // Degenerate shapes.
        assert!(CsrMatrix::identity(0)
            .nnz_balanced_row_chunks(8, 4)
            .is_empty());
        assert_eq!(
            CsrMatrix::from_triplets(3, 3, []).nnz_balanced_row_chunks(8, 4),
            vec![0..3]
        );
    }

    #[test]
    fn parallel_products_bit_identical_across_thread_counts() {
        let m = big_matrix(600, 40);
        let x: Vec<f64> = (0..m.ncols())
            .map(|i| ((i % 17) as f64 - 8.0) / 3.0)
            .collect();
        let run = |threads: &str| {
            let before = std::env::var_os("ACIR_THREADS");
            std::env::set_var("ACIR_THREADS", threads);
            let mut y = vec![0.0; m.nrows()];
            m.matvec(&x, &mut y);
            let mut yt = vec![0.0; m.ncols()];
            m.matvec_transpose(&x, &mut yt);
            match before {
                Some(v) => std::env::set_var("ACIR_THREADS", v),
                None => std::env::remove_var("ACIR_THREADS"),
            }
            (y, yt)
        };
        let (y1, yt1) = run("1");
        for threads in ["2", "4", "7"] {
            let (yt, ytt) = run(threads);
            assert_eq!(y1, yt, "matvec differs at {threads} threads");
            assert_eq!(yt1, ytt, "matvec_transpose differs at {threads} threads");
        }
    }

    /// Strategy: random small COO matrix.
    fn coo_strategy() -> impl Strategy<Value = (usize, usize, Vec<(usize, usize, f64)>)> {
        (1usize..8, 1usize..8).prop_flat_map(|(r, c)| {
            let trip = proptest::collection::vec(
                (0..r, 0..c, -10.0..10.0f64).prop_map(|(i, j, v)| (i, j, v)),
                0..24,
            );
            (Just(r), Just(c), trip)
        })
    }

    proptest! {
        #[test]
        fn prop_csr_invariants_hold((r, c, trip) in coo_strategy()) {
            let m = CsrMatrix::from_triplets(r, c, trip);
            prop_assert!(m.validate().is_ok());
        }

        #[test]
        fn prop_matvec_matches_dense((r, c, trip) in coo_strategy(),
                                     x in proptest::collection::vec(-5.0..5.0f64, 8)) {
            let m = CsrMatrix::from_triplets(r, c, trip);
            let x = &x[..c];
            let mut y_sparse = vec![0.0; r];
            m.matvec(x, &mut y_sparse);
            let mut y_dense = vec![0.0; r];
            m.to_dense().gemv(1.0, x, 0.0, &mut y_dense);
            for (a, b) in y_sparse.iter().zip(&y_dense) {
                prop_assert!((a - b).abs() < 1e-9);
            }
        }

        #[test]
        fn prop_transpose_matvec_consistent((r, c, trip) in coo_strategy(),
                                            x in proptest::collection::vec(-5.0..5.0f64, 8)) {
            let m = CsrMatrix::from_triplets(r, c, trip);
            let x = &x[..r];
            let mut via_transpose_mat = vec![0.0; c];
            m.transpose().matvec(x, &mut via_transpose_mat);
            let mut via_matvec_t = vec![0.0; c];
            m.matvec_transpose(x, &mut via_matvec_t);
            for (a, b) in via_transpose_mat.iter().zip(&via_matvec_t) {
                prop_assert!((a - b).abs() < 1e-9);
            }
        }
    }
}
