//! SELL-C-σ: sliced ELL storage with a σ-row sorting window.
//!
//! Rows are reordered so that each slice of `C` consecutive rows has
//! near-equal lengths, then each slice is stored **column-major**: the
//! `C` values at column position `j` belong to `C` different rows.
//! Walking a slice therefore advances `C` independent accumulation
//! chains — the scalar scan's one serial FP-add chain per row becomes
//! `C` chains the CPU can overlap, which is where the single-core
//! speedup comes from.
//!
//! Invariants that pin bit-identity and NaN-safety:
//!
//! * **Per-row order unchanged.** Lane `l` of a slice consumes row
//!   `slot_row[s·C+l]`'s entries in their original CSR order with a
//!   single accumulator — the exact scalar addition sequence.
//! * **Padding is never touched arithmetically.** Rows are sorted by
//!   descending length within each σ-window, and σ is a multiple of
//!   C, so inside a slice the active lanes at any column position are
//!   a *prefix*; the kernel shortens the lane loop instead of
//!   multiplying stored zeros (which would turn an `∞` or `NaN` in
//!   `x` into a contaminated output, and could flip `-0.0` signs).
//! * **Sorting is total.** Ties break on the original row index, so
//!   the permutation — hence the layout — is a pure function of the
//!   matrix.
//!
//! The row permutation is internal: the parallel path computes into a
//! permuted staging vector and maps results back to the caller's row
//! naming on write-out (the same permute → compute → `map_back`
//! discipline as `acir-graph`'s `Permutation`), so callers never see
//! relabeled rows.

use crate::sparse::{CsrMatrix, PAR_MIN_NNZ};
use acir_exec::{ExecPool, SpmvLayout};
use std::ops::Range;

/// Slice height: lanes (= independent accumulation chains) per slice.
pub(crate) const SELL_C: usize = 8;

/// Sorting-window height in rows. A multiple of [`SELL_C`] so no slice
/// straddles a window boundary (which keeps slice lengths descending),
/// and small enough that the row permutation stays local — after an
/// RCM reordering, gathers from `x` remain cache-friendly.
pub(crate) const SELL_SIGMA: usize = 256;

/// Target padded entries per parallel work unit (slice group).
const GROUP_TARGET_NNZ: usize = 8_192;

/// A CSR matrix repacked as SELL-C-σ (see the [module docs](self)).
/// Built lazily by [`CsrMatrix`] on first use and cached; immutable
/// afterwards.
#[derive(Debug, Clone)]
pub struct SellCSigma {
    nrows: usize,
    /// Original row held by each slot (permuted position), `u32::MAX`
    /// for the padding slots of the final slice. Length `n_slices·C`.
    slot_row: Vec<u32>,
    /// Slot index of each original row (the inverse map). Length `nrows`.
    row_slot: Vec<u32>,
    /// Stored-entry count of each slot's row (0 for padding slots).
    slot_len: Vec<u32>,
    /// Per-slice start offsets into `cols`/`vals`; slice `s` occupies
    /// `slice_ptr[s]..slice_ptr[s+1]` = `width_s · C` positions.
    slice_ptr: Vec<usize>,
    /// Column indices, column-major per slice (position `j·C + l` is
    /// entry `j` of lane `l`). Padding positions hold 0 (never read).
    cols: Vec<u32>,
    /// Values, same addressing as `cols`.
    vals: Vec<f64>,
    /// Parallel work units: ranges of slices with ~equal padded nnz.
    groups: Vec<Range<usize>>,
    /// Slots per group (`group len · C`) — the `par_parts_mut` lens.
    group_lens: Vec<usize>,
}

impl SellCSigma {
    /// Repack `a`. Cost is one counting sort per σ-window plus one
    /// sweep over the entries — amortized by the cache in
    /// [`CsrMatrix`] over every subsequent product. Reached through
    /// [`CsrMatrix::matvec`], which builds and caches lazily.
    pub(crate) fn build(a: &CsrMatrix) -> Self {
        let (row_ptr, col_idx, values) = a.raw_parts();
        let nrows = a.nrows();
        assert!(nrows < u32::MAX as usize, "SELL-C-σ: too many rows");
        let row_len = |r: usize| row_ptr[r + 1] - row_ptr[r];

        // Sort each σ-window by (length desc, index asc) — total order,
        // so the permutation is a pure function of the matrix.
        let mut order: Vec<u32> = (0..nrows as u32).collect();
        for window in order.chunks_mut(SELL_SIGMA) {
            window.sort_by_key(|&r| (std::cmp::Reverse(row_len(r as usize)), r));
        }

        let n_slices = nrows.div_ceil(SELL_C);
        let n_slots = n_slices * SELL_C;
        let mut slot_row = vec![u32::MAX; n_slots];
        slot_row[..nrows].copy_from_slice(&order);
        let mut row_slot = vec![0u32; nrows];
        for (slot, &r) in slot_row.iter().enumerate().take(nrows) {
            row_slot[r as usize] = slot as u32;
        }
        let slot_len: Vec<u32> = slot_row
            .iter()
            .map(|&r| {
                if r == u32::MAX {
                    0
                } else {
                    row_len(r as usize) as u32
                }
            })
            .collect();

        // Slice widths = first-lane length (max within the slice,
        // because lengths are descending inside every window and σ is
        // a multiple of C).
        let mut slice_ptr = Vec::with_capacity(n_slices + 1);
        slice_ptr.push(0usize);
        for s in 0..n_slices {
            let width = slot_len[s * SELL_C] as usize;
            slice_ptr.push(slice_ptr[s] + width * SELL_C);
        }
        let padded = *slice_ptr.last().unwrap_or(&0);
        let mut cols = vec![0u32; padded];
        let mut vals = vec![0.0f64; padded];
        for (s, &base) in slice_ptr.iter().enumerate().take(n_slices) {
            for l in 0..SELL_C {
                let slot = s * SELL_C + l;
                let r = slot_row[slot];
                if r == u32::MAX {
                    continue;
                }
                let lo = row_ptr[r as usize];
                for j in 0..slot_len[slot] as usize {
                    cols[base + j * SELL_C + l] = col_idx[lo + j];
                    vals[base + j * SELL_C + l] = values[lo + j];
                }
            }
        }

        // Group slices into nnz-balanced parallel work units.
        let mut groups = Vec::new();
        let mut group_lens = Vec::new();
        let target = GROUP_TARGET_NNZ.max(padded.div_ceil(acir_exec::MAX_CHUNKS.max(1)));
        let mut start = 0usize;
        while start < n_slices {
            let goal = slice_ptr[start] + target;
            let mut end = start + 1;
            while end < n_slices && slice_ptr[end] < goal {
                end += 1;
            }
            groups.push(start..end);
            group_lens.push((end - start) * SELL_C);
            start = end;
        }

        Self {
            nrows,
            slot_row,
            row_slot,
            slot_len,
            slice_ptr,
            cols,
            vals,
            groups,
            group_lens,
        }
    }

    /// Number of C-row slices.
    fn n_slices(&self) -> usize {
        self.slice_ptr.len().saturating_sub(1)
    }

    /// Compute the accumulators of slices `slices`, writing them into
    /// `out` (one `f64` per slot, slice-major — i.e. the *permuted*
    /// row order). Per-lane accumulation is strictly left-to-right
    /// over that row's entries.
    fn slices_into(&self, x: &[f64], slices: Range<usize>, out: &mut [f64]) {
        for (si, acc_out) in slices.clone().zip(out.chunks_exact_mut(SELL_C)) {
            let base = self.slice_ptr[si];
            let row0 = si * SELL_C;
            let width = (self.slice_ptr[si + 1] - base) / SELL_C;
            let min_len = self.slot_len[row0 + SELL_C - 1] as usize;
            let mut acc = [0.0f64; SELL_C];
            let mut j = 0;
            // CORE LOOP — full columns first: all C lanes active, C
            // independent add chains per step.
            while j < min_len {
                let b = base + j * SELL_C;
                let (c, v) = (&self.cols[b..b + SELL_C], &self.vals[b..b + SELL_C]);
                for l in 0..SELL_C {
                    acc[l] += v[l] * x[c[l] as usize];
                }
                j += 1;
            }
            // Ragged tail: active lanes are a prefix (lengths are
            // descending within the slice), so stop at the first
            // exhausted lane — padding is never multiplied.
            while j < width {
                let b = base + j * SELL_C;
                for l in 0..SELL_C {
                    if (j as u32) < self.slot_len[row0 + l] {
                        acc[l] += self.vals[b + l] * x[self.cols[b + l] as usize];
                    } else {
                        break;
                    }
                }
                j += 1;
            }
            acc_out.copy_from_slice(&acc);
        }
    }
}

impl super::SparseLayout for SellCSigma {
    fn layout(&self) -> SpmvLayout {
        SpmvLayout::Sell
    }

    fn matvec(&self, a: &CsrMatrix, x: &[f64], y: &mut [f64]) {
        debug_assert_eq!(a.nrows(), self.nrows);
        debug_assert_eq!(y.len(), self.nrows);
        let pool = ExecPool::from_env();
        // Sequential: scatter each slice's accumulators straight to
        // the caller's row naming. Parallel: compute into a pooled
        // permuted staging vector (groups own disjoint slot ranges),
        // then map back. Same per-row arithmetic on both paths — the
        // split may key on the thread count because only the *write
        // path* differs, never a floating-point operation.
        if a.nnz() < PAR_MIN_NNZ || pool.threads() == 1 || self.groups.len() == 1 {
            let mut acc = [0.0f64; SELL_C];
            for s in 0..self.n_slices() {
                self.slices_into(x, s..s + 1, &mut acc);
                for (l, &v) in acc.iter().enumerate() {
                    let r = self.slot_row[s * SELL_C + l];
                    if r != u32::MAX {
                        y[r as usize] = v;
                    }
                }
            }
            return;
        }
        crate::SCRATCH.with(|ws| {
            let mut yp = ws.take_f64(self.slot_row.len());
            pool.par_parts_mut(&mut yp, &self.group_lens, |g, chunk| {
                self.slices_into(x, self.groups[g].clone(), chunk);
            });
            for (yi, &slot) in y.iter_mut().zip(&self.row_slot) {
                *yi = yp[slot as usize];
            }
            ws.put_f64(yp);
        });
    }
}
