//! Heap accounting via a counting global allocator.
//!
//! [`CountingAlloc`] wraps [`std::alloc::System`] and counts bytes where
//! the allocating thread alone writes them. A thread claims one of
//! [`SLOTS`] cache-line-padded counter slots on its first allocation;
//! past that many threads, slots are shared round-robin, which costs
//! contention on the shared line, never a lost count. Beside its slot,
//! each thread keeps its own allocation, net live bytes and high-water
//! mark in thread-local cells. The `alloc-track` feature (on by default)
//! registers the wrapper as the `#[global_allocator]` from this crate's
//! root, so every crate in the workspace is measured. With the feature
//! off the readers below all return 0 and the wrapper is never installed.
//!
//! Two views, read only when a reader asks:
//!
//! - process-wide: [`allocated_bytes`], [`freed_bytes`] and
//!   [`current_bytes`] sum the slots, and are exact;
//! - the calling thread's: [`thread_allocated_bytes`], [`reset_peak`]
//!   and [`peak_bytes`]. A stage or span reads its own thread's work, so
//!   under concurrent jobs (`--jobs N`, the service's workers) it does
//!   not count what sibling jobs allocated meanwhile.
//!
//! Cost per alloc/free: one relaxed fetch-add on a line the thread owns,
//! plus a few thread-local additions and one compare for the high-water.
//! There is no enable check — a branch on an atomic would cost as much —
//! but the counters never allocate, never lock and never touch the
//! registry, so the wrapper is safe to keep installed for the life of the
//! process.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Number of counter slots. Threads past this many share slots.
pub const SLOTS: usize = 32;

/// One thread's process-wide counters, alone on its cache line(s).
#[repr(align(128))]
struct Slot {
    allocated: AtomicU64,
    freed: AtomicU64,
}

static SLOT_TABLE: [Slot; SLOTS] =
    [const { Slot { allocated: AtomicU64::new(0), freed: AtomicU64::new(0) } }; SLOTS];
static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);

/// The calling thread's counters. Every field is a `Cell` of a plain
/// number, so the thread-local has no destructor and is readable from
/// the allocator at any point of the thread's life, teardown included.
struct ThreadCounts {
    slot: Cell<Option<&'static Slot>>,
    /// Bytes this thread allocated (monotone).
    allocated: Cell<u64>,
    /// Bytes this thread allocated minus bytes it freed (negative when it
    /// frees what other threads allocated).
    net: Cell<i64>,
    /// High-water of `net` since the last [`reset_peak`].
    high: Cell<i64>,
    /// Process live bytes at the last [`reset_peak`].
    base_live: Cell<u64>,
    /// `net` at the last [`reset_peak`].
    base_net: Cell<i64>,
}

thread_local! {
    static THREAD: ThreadCounts = const {
        ThreadCounts {
            slot: Cell::new(None),
            allocated: Cell::new(0),
            net: Cell::new(0),
            high: Cell::new(0),
            base_live: Cell::new(0),
            base_net: Cell::new(0),
        }
    };
}

impl ThreadCounts {
    fn slot(&self) -> &'static Slot {
        match self.slot.get() {
            Some(s) => s,
            None => {
                let s = &SLOT_TABLE[NEXT_SLOT.fetch_add(1, Ordering::Relaxed) % SLOTS];
                self.slot.set(Some(s));
                s
            }
        }
    }
}

/// A [`GlobalAlloc`] that counts bytes through to [`System`].
#[derive(Debug, Default, Clone, Copy)]
pub struct CountingAlloc;

/// Counts `alloc` bytes allocated, then `free` bytes freed, on the
/// calling thread (a `realloc` is both).
#[inline]
fn count(alloc: usize, free: usize) {
    let (alloc, free) = (alloc as u64, free as u64);
    let counted = THREAD.try_with(|t| {
        let slot = t.slot();
        if alloc > 0 {
            slot.allocated.fetch_add(alloc, Ordering::Relaxed);
            t.allocated.set(t.allocated.get() + alloc);
            let net = t.net.get() + alloc as i64;
            t.net.set(net);
            if net > t.high.get() {
                t.high.set(net);
            }
        }
        if free > 0 {
            slot.freed.fetch_add(free, Ordering::Relaxed);
            t.net.set(t.net.get() - free as i64);
        }
    });
    // unreachable for a destructor-free thread-local; kept so a count is
    // never lost
    if counted.is_err() {
        SLOT_TABLE[0].allocated.fetch_add(alloc, Ordering::Relaxed);
        SLOT_TABLE[0].freed.fetch_add(free, Ordering::Relaxed);
    }
}

// SAFETY: delegates every allocation verbatim to `System`; the counters
// are atomics and destructor-free thread-local cells, which never
// allocate or unwind.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            count(layout.size(), 0);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            count(layout.size(), 0);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        count(0, layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            count(new_size, layout.size());
        }
        p
    }
}

/// Sums one counter over every slot.
fn sum(field: fn(&Slot) -> &AtomicU64) -> u64 {
    SLOT_TABLE.iter().map(|s| field(s).load(Ordering::Relaxed)).sum()
}

/// Total bytes allocated since process start (monotone), over all
/// threads.
pub fn allocated_bytes() -> u64 {
    if cfg!(feature = "alloc-track") {
        sum(|s| &s.allocated)
    } else {
        0
    }
}

/// Total bytes freed since process start (monotone), over all threads.
pub fn freed_bytes() -> u64 {
    if cfg!(feature = "alloc-track") {
        sum(|s| &s.freed)
    } else {
        0
    }
}

/// Bytes currently live on the heap, over all threads.
pub fn current_bytes() -> u64 {
    if cfg!(feature = "alloc-track") {
        // frees first: a free counted here was allocated before it, so
        // the allocations summed after it include that allocation
        let freed = sum(|s| &s.freed);
        sum(|s| &s.allocated).saturating_sub(freed)
    } else {
        0
    }
}

/// Bytes the calling thread has allocated since it started (monotone).
pub fn thread_allocated_bytes() -> u64 {
    if cfg!(feature = "alloc-track") {
        THREAD.with(|t| t.allocated.get())
    } else {
        0
    }
}

/// The calling thread's high-water mark of live bytes since its last
/// [`reset_peak`] (or since it started): the process's live bytes at the
/// reset plus the highest net amount this thread has allocated since.
/// Sibling threads' allocations after the reset do not count, so in a
/// single-threaded process this is the process's own high-water mark.
pub fn peak_bytes() -> u64 {
    if cfg!(feature = "alloc-track") {
        THREAD.with(|t| {
            let own = (t.high.get() - t.base_net.get()).max(0) as u64;
            t.base_live.get() + own
        })
    } else {
        0
    }
}

/// Rebases the calling thread's high-water mark to the live size of the
/// process now, so the next read of [`peak_bytes`] on this thread reports
/// the peak of the window that starts here.
pub fn reset_peak() {
    let live = current_bytes();
    THREAD.with(|t| {
        t.base_live.set(live);
        t.base_net.set(t.net.get());
        t.high.set(t.net.get());
    });
}

#[cfg(test)]
#[cfg(feature = "alloc-track")]
mod tests {
    use super::*;

    #[test]
    fn counters_grow_with_allocation() {
        let before = allocated_bytes();
        let v: Vec<u8> = Vec::with_capacity(1 << 16);
        let after = allocated_bytes();
        assert!(after >= before + (1 << 16), "allocation not counted: {before} -> {after}");
        drop(v);
        assert!(freed_bytes() > 0);
        assert!(allocated_bytes() >= freed_bytes());
    }

    #[test]
    fn peak_tracks_high_water_and_rebases() {
        // The counters are process-wide and sibling tests allocate and
        // free on other threads while this one runs: a free between the
        // rebase and the allocation below lowers the live size the new
        // peak is measured from. So the block is large against any such
        // traffic and the assertions allow half of it as slack.
        const BLOCK: u64 = 64 << 20;
        const SLACK: u64 = BLOCK / 2;
        reset_peak();
        let base = peak_bytes();
        let v: Vec<u8> = vec![0; BLOCK as usize];
        std::hint::black_box(&v);
        let high = peak_bytes();
        assert!(high + SLACK >= base + BLOCK, "peak missed the block: {base} -> {high}");
        drop(v);
        reset_peak();
        // after rebasing, the peak restarts from the live size, which no
        // longer holds the block
        let rebased = peak_bytes();
        assert!(rebased + BLOCK <= high + SLACK, "peak not rebased: {high} -> {rebased}");
    }
}
