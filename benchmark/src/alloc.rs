//! Counting global allocator: exact host-cost counts for the timed phase.
//!
//! The process is single-threaded while it measures, but the allocator API
//! is `Sync`, so the counters are relaxed atomics (they publish no data).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

pub struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn grow(size: u64) {
    ALLOCS.fetch_add(1, Relaxed);
    BYTES.fetch_add(size, Relaxed);
    let live = LIVE.fetch_add(size, Relaxed) + size;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters never influence the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size() as u64);
        // SAFETY: same layout the caller handed to us.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size() as u64);
        // SAFETY: same layout the caller handed to us.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
        // SAFETY: `ptr` came from this allocator with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A realloc counts as one allocation of the new size, like the
        // alloc + copy + dealloc it stands for.
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
        grow(new_size as u64);
        // SAFETY: `ptr` came from this allocator with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Counter values at one instant.
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    allocs: u64,
    bytes: u64,
}

/// Starts a measured phase: remembers the running totals and restarts the
/// peak from the bytes live right now.
pub fn mark() -> Mark {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
    Mark {
        allocs: ALLOCS.load(Relaxed),
        bytes: BYTES.load(Relaxed),
    }
}

/// Bytes live right now.
pub fn live() -> u64 {
    LIVE.load(Relaxed)
}

/// What a phase cost since its [`mark`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cost {
    pub allocs: u64,
    pub bytes: u64,
    /// Highest number of bytes live at any instant of the phase, whole
    /// process. Subtract a [`live`] reading taken before the repetition built
    /// anything to get a figure that repeats exactly.
    pub peak_live: u64,
}

pub fn since(m: Mark) -> Cost {
    Cost {
        allocs: ALLOCS.load(Relaxed) - m.allocs,
        bytes: BYTES.load(Relaxed) - m.bytes,
        peak_live: PEAK.load(Relaxed),
    }
}
