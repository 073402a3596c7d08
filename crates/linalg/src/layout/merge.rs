//! Merge-based (nnz-balanced) SpMV for skewed degree distributions.
//!
//! The row-chunked products never split a row, so on a power-law graph
//! one hub row can dominate its chunk and serialize the tail of the
//! parallel region. The merge plan splits the **entry** space into
//! equal parts instead (the classic merge-path decomposition of
//! (row, entry) space): every parallel work unit processes ~the same
//! number of stored entries regardless of how rows are shaped.
//!
//! Bit-identity constraint: a row whose entries straddle a part
//! boundary cannot be summed as two partials — that would re-associate
//! its additions. Such *boundary rows* (at most one per internal
//! boundary, ≤ `MAX_CHUNKS − 1` total) are carved out of the parallel
//! phase and recomputed whole, sequentially and in ascending order,
//! after the parallel parts finish. Every output element is therefore
//! a strict left-to-right sum over its row — the scalar order.

use super::unrolled;
use crate::sparse::{CsrMatrix, CHUNK_TARGET_NNZ, PAR_MIN_NNZ};
use acir_exec::{ExecPool, SpmvLayout};
use std::ops::Range;

/// One run of rows in the plan: either wholly owned by a parallel work
/// unit, or a boundary row deferred to the sequential fixup.
#[derive(Debug, Clone)]
struct Part {
    rows: Range<usize>,
    boundary: bool,
}

/// An nnz-balanced execution plan over a CSR matrix (see the
/// [module docs](self)). Built lazily by [`CsrMatrix`] on first use
/// and cached; the plan stores only row ranges — products read the
/// canonical CSR arrays.
#[derive(Debug, Clone)]
pub struct MergePlan {
    parts: Vec<Part>,
    /// Row counts per part — the `par_parts_mut` lens over `y`.
    lens: Vec<usize>,
    /// The deferred rows, ascending.
    boundary_rows: Vec<u32>,
}

impl MergePlan {
    /// Plan `a`'s entry space into ~`CHUNK_TARGET_NNZ`-entry parts
    /// (at most [`acir_exec::MAX_CHUNKS`]), splitting between rows
    /// where possible and deferring boundary rows otherwise. Reached
    /// through [`CsrMatrix::matvec`], which builds and caches lazily.
    pub(crate) fn build(a: &CsrMatrix) -> Self {
        let (row_ptr, _, _) = a.raw_parts();
        let nrows = a.nrows();
        assert!(nrows < u32::MAX as usize, "merge plan: too many rows");
        let nnz = a.nnz();
        let nchunks = nnz
            .div_ceil(CHUNK_TARGET_NNZ.max(1))
            .clamp(1, acir_exec::MAX_CHUNKS);

        let mut parts = Vec::new();
        let mut boundary_rows = Vec::new();
        let mut cur = 0usize;
        for i in 1..nchunks {
            let e = i * nnz / nchunks;
            // Row containing entry `e`: last r with row_ptr[r] <= e.
            let r = row_ptr.partition_point(|p| *p <= e) - 1;
            if r < cur {
                // Boundary lands inside an already-deferred hub row
                // that spans several chunks.
                continue;
            }
            if e == row_ptr[r] {
                // Aligned with a row start: clean cut, no deferral.
                if r > cur {
                    parts.push(Part {
                        rows: cur..r,
                        boundary: false,
                    });
                    cur = r;
                }
            } else {
                if r > cur {
                    parts.push(Part {
                        rows: cur..r,
                        boundary: false,
                    });
                }
                parts.push(Part {
                    rows: r..r + 1,
                    boundary: true,
                });
                boundary_rows.push(r as u32);
                cur = r + 1;
            }
        }
        if cur < nrows {
            parts.push(Part {
                rows: cur..nrows,
                boundary: false,
            });
        }
        let lens = parts.iter().map(|p| p.rows.len()).collect();
        Self {
            parts,
            lens,
            boundary_rows,
        }
    }
}

impl super::SparseLayout for MergePlan {
    fn layout(&self) -> SpmvLayout {
        SpmvLayout::Merge
    }

    fn matvec(&self, a: &CsrMatrix, x: &[f64], y: &mut [f64]) {
        if a.nnz() < PAR_MIN_NNZ || self.parts.len() == 1 {
            unrolled::rows(a, x, 0, y);
            return;
        }
        // CORE LOOP — entry-balanced parallel sweep; boundary parts
        // are left untouched here and written by the fixup below.
        ExecPool::from_env().par_parts_mut(y, &self.lens, |i, y_chunk| {
            let p = &self.parts[i];
            if !p.boundary {
                unrolled::rows(a, x, p.rows.start, y_chunk);
            }
        });
        // Sequential fixup: each deferred row summed whole, in its
        // scalar left-to-right order — no partials, no re-association.
        for &r in &self.boundary_rows {
            y[r as usize] = unrolled::row_sum(a, x, r as usize);
        }
    }
}
