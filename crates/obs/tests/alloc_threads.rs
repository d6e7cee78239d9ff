//! The counting allocator under concurrent threads. The process-wide
//! readers must stay exact, so this binary holds one test: nothing else
//! allocates while it measures (the test harness's main thread is parked
//! waiting for it).
#![cfg(feature = "alloc-track")]

use casyn_obs::alloc::{
    allocated_bytes, current_bytes, freed_bytes, peak_bytes, reset_peak, thread_allocated_bytes,
    SLOTS,
};
use std::hint::black_box;
use std::sync::{Barrier, Mutex};
use std::thread;

#[test]
fn per_thread_counters_sum_exactly_and_peaks_stay_per_thread() {
    // more threads than slots, so some slots are shared
    let threads = SLOTS + 8;
    // thread `i` keeps a block of KEEP * (i + 1) bytes and frees a
    // block of SCRATCH bytes it allocated
    const KEEP: usize = 1 << 10;
    const SCRATCH: usize = 3 << 10;
    let kept: usize = (1..=threads).map(|i| KEEP * i).sum();
    let ready = Barrier::new(threads + 1);
    let start = Barrier::new(threads + 1);
    let done = Barrier::new(threads + 1);
    let release = Barrier::new(threads + 1);
    let totals = Mutex::new(Vec::new());
    thread::scope(|s| {
        for i in 0..threads {
            let (ready, start, done, release) = (&ready, &start, &done, &release);
            s.spawn(move || {
                ready.wait();
                start.wait();
                let mine = thread_allocated_bytes();
                let keep: Vec<u8> = Vec::with_capacity(KEEP * (i + 1));
                drop(black_box(Vec::<u8>::with_capacity(SCRATCH)));
                assert_eq!(thread_allocated_bytes() - mine, (KEEP * (i + 1) + SCRATCH) as u64);
                done.wait();
                release.wait();
                drop(black_box(keep));
            });
        }
        // every worker has started (its start-up allocations are behind
        // it) and none allocates until the readers below have run
        let read = || (allocated_bytes(), freed_bytes(), current_bytes());
        ready.wait();
        let before = read();
        start.wait();
        done.wait();
        let after = read();
        totals.lock().unwrap().extend([before, after]);
        release.wait();
    });
    let t = totals.into_inner().unwrap();
    let ((a0, f0, c0), (a1, f1, c1)) = (t[0], t[1]);
    assert_eq!(a1 - a0, (kept + threads * SCRATCH) as u64, "allocated");
    assert_eq!(f1 - f0, (threads * SCRATCH) as u64, "freed");
    assert_eq!(c1 - c0, kept as u64, "current");

    // peaks: each of two threads rebases, then both hold a 64 MiB block
    // at once; each thread's peak counts its own block only
    const BLOCK: u64 = 64 << 20;
    let both_hold = Barrier::new(2);
    let peaks: Vec<(u64, u64)> = thread::scope(|s| {
        let hs: Vec<_> = (0..2)
            .map(|_| {
                let both_hold = &both_hold;
                s.spawn(move || {
                    reset_peak();
                    let base = peak_bytes();
                    let block: Vec<u8> = Vec::with_capacity(BLOCK as usize);
                    both_hold.wait();
                    let high = peak_bytes();
                    both_hold.wait();
                    drop(black_box(block));
                    (base, high)
                })
            })
            .collect();
        hs.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (base, high) in peaks {
        assert_eq!(high - base, BLOCK, "a thread's peak must hold its own block only");
    }
}
