//! Per-process heap accounting via a counting global allocator.
//!
//! [`CountingAlloc`] wraps [`std::alloc::System`] and keeps four relaxed
//! atomics: bytes allocated, bytes freed, bytes currently live, and the
//! high-water mark of live bytes. The `alloc-track` feature (on by
//! default) registers it as the `#[global_allocator]` from this crate's
//! root, so every crate in the workspace is measured. With the feature
//! off the readers below all return 0 and the wrapper is never installed.
//!
//! The counters are process-global: under concurrent flows (`--jobs N`)
//! a stage's delta includes allocations made by sibling jobs that ran in
//! the same window, so per-stage attribution is exact only for serial
//! runs. That is the same caveat the metrics registry already documents,
//! and it is why the perf gate measures serially.
//!
//! Cost when idle: three relaxed fetch-adds per alloc/free (plus a CAS
//! loop on a new peak). There is no enable check — an atomic branch would
//! cost as much as the add — but the counters never allocate, never lock,
//! and never touch the registry, so the wrapper is safe to keep installed
//! for the life of the process.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATED: AtomicU64 = AtomicU64::new(0);
static FREED: AtomicU64 = AtomicU64::new(0);
static CURRENT: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

/// A [`GlobalAlloc`] that counts bytes through to [`System`].
#[derive(Debug, Default, Clone, Copy)]
pub struct CountingAlloc;

fn on_alloc(bytes: usize) {
    let bytes = bytes as u64;
    ALLOCATED.fetch_add(bytes, Ordering::Relaxed);
    let live = CURRENT.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn on_free(bytes: usize) {
    let bytes = bytes as u64;
    FREED.fetch_add(bytes, Ordering::Relaxed);
    CURRENT.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: delegates every allocation verbatim to `System`; the counters
// are plain atomics and never allocate or unwind.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        on_free(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            on_alloc(new_size);
            on_free(layout.size());
        }
        p
    }
}

/// Total bytes allocated since process start (monotone).
pub fn allocated_bytes() -> u64 {
    if cfg!(feature = "alloc-track") {
        ALLOCATED.load(Ordering::Relaxed)
    } else {
        0
    }
}

/// Total bytes freed since process start (monotone).
pub fn freed_bytes() -> u64 {
    if cfg!(feature = "alloc-track") {
        FREED.load(Ordering::Relaxed)
    } else {
        0
    }
}

/// Bytes currently live on the heap.
pub fn current_bytes() -> u64 {
    if cfg!(feature = "alloc-track") {
        CURRENT.load(Ordering::Relaxed)
    } else {
        0
    }
}

/// High-water mark of live bytes since process start or the last
/// [`reset_peak`].
pub fn peak_bytes() -> u64 {
    if cfg!(feature = "alloc-track") {
        PEAK.load(Ordering::Relaxed)
    } else {
        0
    }
}

/// Rebases the high-water mark to the current live size, so the next
/// read of [`peak_bytes`] reports the peak of the window that starts
/// now. Racy under concurrent allocation (a peak hit between the load
/// and the store is lost); callers treat windowed peaks as telemetry,
/// not ground truth.
pub fn reset_peak() {
    PEAK.store(CURRENT.load(Ordering::Relaxed), Ordering::Relaxed);
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
