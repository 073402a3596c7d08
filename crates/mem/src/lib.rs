//! # acir-mem
//!
//! Deterministic heap-allocation instrumentation for the ACIR
//! workspace.
//!
//! The memory-locality work (DESIGN.md §9) claims that steady-state
//! calls of the hot diffusion kernels perform **zero** heap
//! allocations once their [`acir_runtime::workspace`] scratch is warm.
//! Wall-clock numbers cannot gate that on a shared CI runner —
//! allocation *counts* can: for a fixed workload on one thread they
//! are a pure function of the code, so a count regression is a real
//! regression, never noise.
//!
//! [`CountingAlloc`] is a zero-cost-when-uninstalled wrapper around
//! the system allocator that counts calls and bytes in relaxed
//! atomics. A binary or integration test opts in with:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: acir_mem::CountingAlloc = acir_mem::CountingAlloc;
//! ```
//!
//! and then brackets a region with [`snapshot`]:
//!
//! ```ignore
//! let before = acir_mem::snapshot();
//! hot_call();
//! let delta = acir_mem::snapshot().since(&before);
//! assert_eq!(delta.allocs, 0, "steady state must not allocate");
//! ```
//!
//! Counters are process-global: measure on a single thread (or with
//! `--test-threads=1`) when asserting exact counts.
//!
//! [`acir_runtime::workspace`]: ../acir_runtime/workspace/index.html

#![warn(missing_docs)]
// This is the one crate in the workspace allowed to contain `unsafe`:
// a `GlobalAlloc` impl cannot be written without it. The unsafe code
// is pure forwarding to `std::alloc::System` plus relaxed counter
// bumps — no pointer arithmetic of its own.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static DEALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static REALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static INSTALLED: AtomicU64 = AtomicU64::new(0);

/// A counting wrapper around the system allocator.
///
/// Install as `#[global_allocator]` in a binary or test to make
/// [`snapshot`] meaningful there; the counters stay at zero (and
/// [`is_installed`] reports `false`) otherwise.
pub struct CountingAlloc;

// SAFETY: every method forwards verbatim to `System`, which upholds
// the `GlobalAlloc` contract; the counter bumps have no effect on the
// returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        INSTALLED.store(1, Relaxed);
        ALLOC_CALLS.fetch_add(1, Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        INSTALLED.store(1, Relaxed);
        ALLOC_CALLS.fetch_add(1, Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        DEALLOC_CALLS.fetch_add(1, Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        REALLOC_CALLS.fetch_add(1, Relaxed);
        ALLOC_BYTES.fetch_add(new_size.saturating_sub(layout.size()) as u64, Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

/// Point-in-time reading of the allocation counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AllocSnapshot {
    /// `alloc`/`alloc_zeroed` calls so far.
    pub allocs: u64,
    /// Bytes requested by those calls (plus realloc growth).
    pub bytes: u64,
    /// `dealloc` calls so far.
    pub deallocs: u64,
    /// `realloc` calls so far.
    pub reallocs: u64,
}

impl AllocSnapshot {
    /// Counter deltas since an `earlier` snapshot (saturating, so a
    /// stale pair never underflows).
    pub fn since(&self, earlier: &AllocSnapshot) -> AllocSnapshot {
        AllocSnapshot {
            allocs: self.allocs.saturating_sub(earlier.allocs),
            bytes: self.bytes.saturating_sub(earlier.bytes),
            deallocs: self.deallocs.saturating_sub(earlier.deallocs),
            reallocs: self.reallocs.saturating_sub(earlier.reallocs),
        }
    }

    /// Total allocator traffic (alloc + realloc calls) — the number
    /// gated by the CI regression test.
    pub fn heap_events(&self) -> u64 {
        self.allocs + self.reallocs
    }
}

/// Read the global counters.
pub fn snapshot() -> AllocSnapshot {
    AllocSnapshot {
        allocs: ALLOC_CALLS.load(Relaxed),
        bytes: ALLOC_BYTES.load(Relaxed),
        deallocs: DEALLOC_CALLS.load(Relaxed),
        reallocs: REALLOC_CALLS.load(Relaxed),
    }
}

/// Whether [`CountingAlloc`] is the process's global allocator (true
/// once it has served at least one allocation).
pub fn is_installed() -> bool {
    INSTALLED.load(Relaxed) != 0
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;

    // NOTE: the allocator is NOT installed in this crate's own test
    // binary, so counters stay at zero and the arithmetic is what gets
    // tested here; end-to-end counting is exercised by the workspace's
    // `alloc_gate` integration test, which does install it.

    #[test]
    fn deltas_saturate() {
        let a = AllocSnapshot {
            allocs: 5,
            bytes: 100,
            deallocs: 2,
            reallocs: 1,
        };
        let b = AllocSnapshot {
            allocs: 9,
            bytes: 150,
            deallocs: 4,
            reallocs: 1,
        };
        let d = b.since(&a);
        assert_eq!(d.allocs, 4);
        assert_eq!(d.bytes, 50);
        assert_eq!(d.deallocs, 2);
        assert_eq!(d.reallocs, 0);
        assert_eq!(d.heap_events(), 4);
        // Reversed order saturates instead of underflowing.
        assert_eq!(a.since(&b).allocs, 0);
    }

    #[test]
    fn snapshot_without_install_is_zero() {
        assert!(!is_installed());
        let s = snapshot();
        assert_eq!(s.allocs, 0);
        assert_eq!(s.heap_events(), 0);
    }
}
