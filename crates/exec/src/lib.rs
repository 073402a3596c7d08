//! # acir-exec
//!
//! The deterministic parallel execution layer of the ACIR workspace.
//!
//! The paper's thesis is that approximation makes very large-scale
//! analysis feasible "in a reasonable length of time ... on a
//! realistic machine" (§2) — and on a realistic machine that means
//! using every core. But the workspace also promises exact
//! reproducibility (`tests/determinism.rs`): every result must be a
//! pure function of its inputs and seeds, never of the thread count or
//! the scheduler. This crate reconciles the two with one rule:
//!
//! > **Work decomposition is a function of the input alone.**
//!
//! Every primitive here splits its input into chunks whose boundaries
//! depend only on the input size (see [`chunk_ranges`]) — never on
//! [`ExecPool::threads`]. Chunks are computed independently (each one
//! sequentially, in index order) and combined in ascending chunk
//! order. Threads only decide *who* computes a chunk, not *what* a
//! chunk is or *when* its result is folded in, so every result is
//! bit-identical from 1 to N threads.
//!
//! ## Pool model
//!
//! [`ExecPool`] is a reusable execution policy: it records the worker
//! count (from `ACIR_THREADS` or the machine) and spins up scoped
//! worker threads per parallel region via [`std::thread::scope`].
//! Scoped spawning is what lets workers borrow the caller's data with
//! no `unsafe`, no `'static` bounds, and no channels; the spawn cost
//! (tens of microseconds) is amortized by only going parallel when a
//! region has more than one chunk of work, and callers size chunks so
//! each is worth far more than a spawn (see the `min_chunk` arguments).
//! Workers pull chunk indices from a shared atomic counter, so uneven
//! chunks still balance across threads.
//!
//! ## Primitives
//!
//! * [`ExecPool::par_for`] — index-parallel loop;
//! * [`ExecPool::par_map`] — map a slice to a `Vec`, input order;
//! * [`ExecPool::par_reduce`] — the deterministic reduction: chunk
//!   partials folded in ascending chunk order;
//! * [`ExecPool::par_chunks_mut`] / [`ExecPool::par_zip_mut`] —
//!   mutate disjoint chunks of a slice (optionally zipped with an
//!   equally-chunked read-only slice).
//! * [`ExecPool::try_par_map`] — [`par_map`](ExecPool::par_map) with a
//!   per-item [`panic_fence`]: a panicking item yields `Err(message)`
//!   in its slot instead of tearing down the region. This is the
//!   panic-isolation seam supervised servers build on: a worker that
//!   dies becomes a certified `diverged` outcome, never a crash.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

pub mod spmv;

pub use spmv::{
    current_spmv_layout, spmv_layout_scope, SpmvLayout, SpmvLayoutScope, SPMV_LAYOUT_ENV,
};

/// Run `f`, converting a panic into `Err(message)`.
///
/// Safe-code wrapper over [`std::panic::catch_unwind`]: the supervised
/// execution seam for code that must never crash the process (serve
/// workers, chaos tests, batch items). The payload is flattened to a
/// `String` via [`panic_message`] so callers can thread the cause into
/// a `Diagnostics` event trail.
///
/// The standard panic hook still runs (so aborting panics keep their
/// backtrace); tests that inject panics on purpose may want
/// [`std::panic::set_hook`] to silence it.
pub fn panic_fence<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|p| panic_message(p.as_ref()))
}

/// Best-effort human-readable form of a panic payload (`&str` and
/// `String` payloads verbatim, anything else a placeholder).
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Environment variable controlling the default worker count.
pub const THREADS_ENV: &str = "ACIR_THREADS";

/// Hard cap on the number of chunks a single region is split into.
///
/// Bounds per-chunk bookkeeping (and, for reductions, the number of
/// partials) while leaving enough slack to balance load on any
/// realistic core count. Part of the determinism contract: the cap is
/// a constant, so chunk boundaries stay a pure function of input size.
pub const MAX_CHUNKS: usize = 64;

/// A reusable parallel execution policy.
///
/// Cheap to construct and copy; holds no OS resources. Worker threads
/// are scoped to each parallel region (see the crate docs for why).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecPool {
    threads: usize,
}

impl ExecPool {
    /// A pool with exactly `threads` workers (`0` is clamped to 1).
    pub fn with_threads(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
        }
    }

    /// The ambient pool: `ACIR_THREADS` if set to a positive integer,
    /// otherwise [`std::thread::available_parallelism`].
    ///
    /// The environment is re-read on every call (it is a handful of
    /// nanoseconds next to any parallel region worth running), so
    /// tests and binaries can switch thread counts at runtime without
    /// process-global state.
    pub fn from_env() -> Self {
        let threads = std::env::var(THREADS_ENV)
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            });
        Self { threads }
    }

    /// Like [`ExecPool::from_env`], but fall back to `default` (instead
    /// of the machine parallelism) when `ACIR_THREADS` is unset or
    /// invalid. For callers whose options struct carries its own thread
    /// count: the environment wins when present, so one variable can
    /// steer a whole pipeline.
    pub fn from_env_or(default: usize) -> Self {
        let threads = std::env::var(THREADS_ENV)
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or(default);
        Self::with_threads(threads)
    }

    /// Number of worker threads this pool will use (≥ 1).
    #[inline]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Run `jobs` closures indexed `0..n_jobs`; workers claim indices
    /// from a shared counter. Blocks until all jobs finish.
    ///
    /// This is the engine under every primitive; `f` must be safe to
    /// call concurrently for distinct indices.
    fn run_indexed<F>(&self, n_jobs: usize, f: F)
    where
        F: Fn(usize) + Sync,
    {
        let workers = self.threads.min(n_jobs);
        if workers <= 1 {
            for i in 0..n_jobs {
                f(i);
            }
            return;
        }
        let next = AtomicUsize::new(0);
        let work = |_w: usize| loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n_jobs {
                break;
            }
            f(i);
        };
        std::thread::scope(|s| {
            for w in 1..workers {
                let work = &work;
                s.spawn(move || work(w));
            }
            work(0); // the calling thread participates
        });
    }

    /// Index-parallel loop: call `f(i)` for every `i in 0..len`.
    ///
    /// `min_chunk` is the smallest number of indices worth handing to a
    /// worker; indices within a chunk run sequentially in order. `f`
    /// must be independent across indices (same contract as the other
    /// primitives: chunking is invisible in the result).
    pub fn par_for<F>(&self, len: usize, min_chunk: usize, f: F)
    where
        F: Fn(usize) + Sync,
    {
        let ranges = chunk_ranges(len, min_chunk);
        self.run_indexed(ranges.len(), |c| {
            for i in ranges[c].clone() {
                f(i);
            }
        });
    }

    /// Map `items` through `f`, returning results in input order.
    pub fn par_map<T, U, F>(&self, items: &[T], min_chunk: usize, f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(&T) -> U + Sync,
    {
        let ranges = chunk_ranges(items.len(), min_chunk);
        let slots: Vec<Mutex<Option<Vec<U>>>> =
            (0..ranges.len()).map(|_| Mutex::new(None)).collect();
        self.run_indexed(ranges.len(), |c| {
            let part: Vec<U> = items[ranges[c].clone()].iter().map(&f).collect();
            *slots[c].lock().expect("exec: poisoned result slot") = Some(part);
        });
        let mut out = Vec::with_capacity(items.len());
        for slot in slots {
            out.extend(
                slot.into_inner()
                    .expect("exec: poisoned result slot")
                    .expect("exec: missing chunk result"),
            );
        }
        out
    }

    /// Like [`ExecPool::par_map`], but each item runs behind a
    /// [`panic_fence`]: an item whose closure panics lands as
    /// `Err(panic message)` in its own slot, and every other item —
    /// including the rest of the panicking item's chunk — still
    /// completes. Result order matches input order, and the
    /// `Ok` results are bit-identical to [`par_map`](ExecPool::par_map)
    /// of the same closure (the fence adds no reordering).
    pub fn try_par_map<T, U, F>(
        &self,
        items: &[T],
        min_chunk: usize,
        f: F,
    ) -> Vec<Result<U, String>>
    where
        T: Sync,
        U: Send,
        F: Fn(&T) -> U + Sync,
    {
        self.par_map(items, min_chunk, |item| panic_fence(|| f(item)))
    }

    /// Deterministic reduction: `map` each chunk range to a partial,
    /// then `fold` the partials **in ascending chunk order**.
    ///
    /// Because the chunk boundaries are fixed by `(len, min_chunk)` and
    /// the fold order is fixed by chunk index, the result — including
    /// its floating-point rounding — is independent of the thread
    /// count. Returns `None` for an empty range.
    pub fn par_reduce<A, M, F>(
        &self,
        len: usize,
        min_chunk: usize,
        map: M,
        mut fold: F,
    ) -> Option<A>
    where
        A: Send,
        M: Fn(Range<usize>) -> A + Sync,
        F: FnMut(A, A) -> A,
    {
        let ranges = chunk_ranges(len, min_chunk);
        if ranges.is_empty() {
            return None;
        }
        let slots: Vec<Mutex<Option<A>>> = (0..ranges.len()).map(|_| Mutex::new(None)).collect();
        self.run_indexed(ranges.len(), |c| {
            *slots[c].lock().expect("exec: poisoned result slot") = Some(map(ranges[c].clone()));
        });
        let mut acc: Option<A> = None;
        for slot in slots {
            let part = slot
                .into_inner()
                .expect("exec: poisoned result slot")
                .expect("exec: missing chunk result");
            acc = Some(match acc {
                Some(a) => fold(a, part),
                None => part,
            });
        }
        acc
    }

    /// Mutate `data` in parallel, one disjoint chunk per job. `f`
    /// receives the chunk's starting index and the chunk itself.
    pub fn par_chunks_mut<T, F>(&self, data: &mut [T], min_chunk: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        let ranges = chunk_ranges(data.len(), min_chunk);
        let lens: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
        self.par_parts_mut(data, &lens, |c, chunk| f(ranges[c].start, chunk));
    }

    /// Mutate `data` in parallel split into caller-defined consecutive
    /// parts of lengths `lens` (which must sum to `data.len()`); `f`
    /// receives each part's index and slice.
    ///
    /// This is the escape hatch for decompositions that [`chunk_ranges`]
    /// cannot express — e.g. the nnz-balanced row chunks of a CSR
    /// matrix, where part lengths come from the matrix structure. The
    /// caller owns the determinism obligation: `lens` must be a pure
    /// function of the input, never of [`ExecPool::threads`].
    pub fn par_parts_mut<T, F>(&self, data: &mut [T], lens: &[usize], f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        assert_eq!(
            lens.iter().sum::<usize>(),
            data.len(),
            "par_parts_mut: part lengths must tile the slice"
        );
        let mut parts: Vec<Mutex<Option<&mut [T]>>> = Vec::with_capacity(lens.len());
        let mut rest = data;
        for &len in lens {
            let (head, tail) = rest.split_at_mut(len);
            parts.push(Mutex::new(Some(head)));
            rest = tail;
        }
        self.run_indexed(parts.len(), |c| {
            let chunk = parts[c]
                .lock()
                .expect("exec: poisoned part slot")
                .take()
                .expect("exec: part claimed twice");
            f(c, chunk);
        });
    }

    /// Mutate `dst` in parallel alongside the equally-long `src`,
    /// chunked with identical boundaries: `f(dst_chunk, src_chunk)`.
    ///
    /// Panics if the lengths differ.
    pub fn par_zip_mut<T, U, F>(&self, dst: &mut [T], src: &[U], min_chunk: usize, f: F)
    where
        T: Send,
        U: Sync,
        F: Fn(&mut [T], &[U]) + Sync,
    {
        assert_eq!(dst.len(), src.len(), "par_zip_mut: length mismatch");
        self.par_chunks_mut(dst, min_chunk, |start, chunk| {
            f(chunk, &src[start..start + chunk.len()]);
        });
    }
}

impl Default for ExecPool {
    fn default() -> Self {
        Self::from_env()
    }
}

/// Split `0..len` into chunks of at least `min_chunk` indices (except
/// possibly a short final input), at most [`MAX_CHUNKS`] chunks total,
/// as evenly as possible.
///
/// **Determinism contract:** the boundaries are a pure function of
/// `(len, min_chunk)` — thread counts never enter. Every parallel
/// primitive in this crate derives its work decomposition from this
/// function (or an equivalent input-only rule, e.g. the nnz-balanced
/// row chunks of `acir-linalg`'s CSR kernels).
pub fn chunk_ranges(len: usize, min_chunk: usize) -> Vec<Range<usize>> {
    if len == 0 {
        return Vec::new();
    }
    let min_chunk = min_chunk.max(1);
    let n_chunks = (len / min_chunk).clamp(1, MAX_CHUNKS);
    let base = len / n_chunks;
    let rem = len % n_chunks;
    let mut out = Vec::with_capacity(n_chunks);
    let mut start = 0usize;
    for c in 0..n_chunks {
        let size = base + usize::from(c < rem);
        out.push(start..start + size);
        start += size;
    }
    debug_assert_eq!(start, len);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_ranges_tile_exactly() {
        for len in [0usize, 1, 2, 7, 64, 65, 1000, 12345] {
            for min_chunk in [1usize, 3, 16, 1024] {
                let ranges = chunk_ranges(len, min_chunk);
                let mut expect = 0usize;
                for r in &ranges {
                    assert_eq!(r.start, expect, "gap at len={len} min={min_chunk}");
                    assert!(!r.is_empty());
                    expect = r.end;
                }
                assert_eq!(expect, len);
                assert!(ranges.len() <= MAX_CHUNKS);
                if len > 0 {
                    // Balanced: sizes differ by at most one.
                    let sizes: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
                    let (lo, hi) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                    assert!(hi - lo <= 1);
                }
            }
        }
    }

    #[test]
    fn chunk_ranges_ignore_thread_count_by_construction() {
        // Same input → same chunks, regardless of any pool.
        assert_eq!(chunk_ranges(1000, 8), chunk_ranges(1000, 8));
        assert_eq!(chunk_ranges(100, 200).len(), 1);
    }

    #[test]
    fn from_env_reads_and_clamps() {
        let before = std::env::var_os(THREADS_ENV);
        std::env::set_var(THREADS_ENV, "3");
        assert_eq!(ExecPool::from_env().threads(), 3);
        std::env::set_var(THREADS_ENV, "0");
        assert!(ExecPool::from_env().threads() >= 1);
        std::env::set_var(THREADS_ENV, "not a number");
        assert!(ExecPool::from_env().threads() >= 1);
        std::env::remove_var(THREADS_ENV);
        assert!(ExecPool::from_env().threads() >= 1);
        assert_eq!(ExecPool::with_threads(0).threads(), 1);
        // from_env_or: default fills in when the variable is absent,
        // the environment wins when present.
        assert_eq!(ExecPool::from_env_or(6).threads(), 6);
        assert_eq!(ExecPool::from_env_or(0).threads(), 1);
        std::env::set_var(THREADS_ENV, "2");
        assert_eq!(ExecPool::from_env_or(6).threads(), 2);
        match before {
            Some(v) => std::env::set_var(THREADS_ENV, v),
            None => std::env::remove_var(THREADS_ENV),
        }
    }

    #[test]
    fn par_for_covers_every_index_once() {
        for threads in [1usize, 2, 4, 9] {
            let pool = ExecPool::with_threads(threads);
            let hits: Vec<AtomicUsize> = (0..500).map(|_| AtomicUsize::new(0)).collect();
            pool.par_for(hits.len(), 7, |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        }
    }

    #[test]
    fn par_map_preserves_input_order() {
        let items: Vec<u64> = (0..997).collect();
        for threads in [1usize, 2, 8] {
            let pool = ExecPool::with_threads(threads);
            let out = pool.par_map(&items, 5, |&x| x * x);
            let expect: Vec<u64> = items.iter().map(|&x| x * x).collect();
            assert_eq!(out, expect);
        }
        // Empty input.
        let out: Vec<u64> = ExecPool::with_threads(4).par_map(&[] as &[u64], 1, |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn par_reduce_is_bit_identical_across_thread_counts() {
        // Floating-point summation order is fixed by chunk order, so
        // the rounding is too.
        let xs: Vec<f64> = (0..10_000)
            .map(|i| ((i * 37) % 101) as f64 * 0.1 - 3.7)
            .collect();
        let sum_with = |threads: usize| {
            ExecPool::with_threads(threads)
                .par_reduce(xs.len(), 64, |r| xs[r].iter().sum::<f64>(), |a, b| a + b)
                .unwrap()
        };
        let s1 = sum_with(1);
        for threads in [2usize, 3, 4, 16] {
            let st = sum_with(threads);
            assert_eq!(s1.to_bits(), st.to_bits(), "threads={threads}");
        }
        // Empty reduction.
        assert!(ExecPool::with_threads(4)
            .par_reduce(0, 1, |_| 0.0f64, |a, b| a + b)
            .is_none());
    }

    #[test]
    fn par_chunks_mut_touches_each_element_once() {
        for threads in [1usize, 2, 6] {
            let pool = ExecPool::with_threads(threads);
            let mut data = vec![0u32; 1003];
            pool.par_chunks_mut(&mut data, 10, |start, chunk| {
                for (k, x) in chunk.iter_mut().enumerate() {
                    *x += (start + k) as u32 + 1;
                }
            });
            assert!(data.iter().enumerate().all(|(i, &x)| x == i as u32 + 1));
        }
    }

    #[test]
    fn par_zip_mut_pairs_equal_chunks() {
        let src: Vec<f64> = (0..4096).map(|i| i as f64).collect();
        let mut dst = vec![1.0f64; 4096];
        ExecPool::with_threads(4).par_zip_mut(&mut dst, &src, 32, |d, s| {
            for (di, si) in d.iter_mut().zip(s) {
                *di += 2.0 * si;
            }
        });
        assert!(dst
            .iter()
            .enumerate()
            .all(|(i, &x)| x == 1.0 + 2.0 * i as f64));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn par_zip_mut_rejects_length_mismatch() {
        let mut dst = vec![0.0; 3];
        ExecPool::with_threads(2).par_zip_mut(&mut dst, &[1.0, 2.0], 1, |_, _| {});
    }

    #[test]
    fn panic_fence_catches_and_reports() {
        assert_eq!(panic_fence(|| 5), Ok(5));
        let quiet = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let e = panic_fence(|| -> u32 { panic!("boom {}", 7) });
        let s = panic_fence(|| -> u32 { panic!("literal") });
        std::panic::set_hook(quiet);
        assert_eq!(e, Err("boom 7".to_string()));
        assert_eq!(s, Err("literal".to_string()));
    }

    #[test]
    fn try_par_map_isolates_panicking_items() {
        let quiet = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let items: Vec<u64> = (0..200).collect();
        for threads in [1usize, 2, 4] {
            let pool = ExecPool::with_threads(threads);
            let out = pool.try_par_map(&items, 7, |&x| {
                assert!(x % 31 != 3, "injected fault at {x}");
                x * 2
            });
            for (i, r) in out.iter().enumerate() {
                if items[i] % 31 == 3 {
                    let msg = r.as_ref().unwrap_err();
                    assert!(msg.contains("injected fault"), "got {msg:?}");
                } else {
                    // Ok items bit-identical to the plain path.
                    assert_eq!(*r, Ok(items[i] * 2), "threads={threads} i={i}");
                }
            }
        }
        std::panic::set_hook(quiet);
    }

    #[test]
    fn pool_oversubscription_is_harmless() {
        // More threads than work: result identical, no deadlock.
        let pool = ExecPool::with_threads(32);
        let out = pool.par_map(&[1u8, 2, 3], 1, |&x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }
}
