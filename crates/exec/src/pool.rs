//! The scoped claim-counter thread pool.
//!
//! Scheduling: jobs are indexed `0..n` in input order. Worker `w` runs
//! job `w` first, then claims the next unclaimed index from one shared
//! atomic counter until the indices pass `n`. Each worker keeps its
//! `(index, result)` pairs, and once every worker has joined the pairs
//! are put back into input order, so the output order — and, for pure
//! job functions, the output *values* — are identical to the serial path
//! no matter how the jobs interleave.

use crate::job::JobError;
use casyn_obs as obs;
use casyn_obs::{Histogram, Write};
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;
use std::time::Instant;

thread_local! {
    /// Whether the calling thread already is a worker: one a pool
    /// spawned, the caller while it runs a one-worker pool's jobs inline,
    /// or a thread marked by [`Pool::mark_worker`].
    static WORKER: Cell<bool> = const { Cell::new(false) };
}

/// A claim-counter thread pool handle. Creating a pool is free — worker
/// threads are scoped to each `par_map` call (jobs may borrow stack
/// data), so an idle pool holds no OS resources.
#[derive(Debug, Clone)]
pub struct Pool {
    workers: usize,
}

impl Pool {
    /// A pool that runs up to `workers` jobs concurrently (clamped to at
    /// least 1).
    pub fn new(workers: usize) -> Self {
        Pool { workers: workers.max(1) }
    }

    /// A single-worker pool: every `par_map` runs inline on the calling
    /// thread, byte-for-byte the serial path.
    pub fn serial() -> Self {
        Pool::new(1)
    }

    /// Worker count from the environment: the `CASYN_JOBS` variable when
    /// set to a positive integer, else `available_parallelism`, else 1.
    pub fn from_env() -> Self {
        let fallback = thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        Pool::new(resolve_jobs(std::env::var("CASYN_JOBS").ok().as_deref(), fallback))
    }

    /// The budget of a computation that fans out from the calling thread:
    /// [`Pool::serial`] on a thread that already is a worker, so nested
    /// parallelism never multiplies threads, else [`Pool::from_env`].
    pub fn ambient() -> Self {
        if WORKER.get() {
            Pool::serial()
        } else {
            Pool::from_env()
        }
    }

    /// Marks the calling thread as a worker for the rest of its life: a
    /// long-lived thread that runs one job after another (a service
    /// worker) gets [`Pool::serial`] from [`Pool::ambient`], as a pool's
    /// own workers do.
    pub fn mark_worker() {
        WORKER.set(true);
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Maps `f` over `items` on the pool. Results are returned in input
    /// order; a panicking job propagates the panic (after every other job
    /// has finished) — use [`Pool::try_par_map`] to keep panics as typed
    /// errors instead.
    pub fn par_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        self.try_par_map(items, f)
            .into_iter()
            .map(|r| match r {
                Ok(v) => v,
                Err(JobError::Panicked(msg)) => panic!("par_map job panicked: {msg}"),
            })
            .collect()
    }

    /// [`Pool::par_map`] with panic isolation: each result slot is either
    /// the job's return value or the [`JobError`] of its panic.
    /// Cancellation and deadlines are the batch runner's, which checks
    /// them as it claims a job (`casyn_flow::batch::run_one`).
    pub fn try_par_map<T, R, F>(&self, items: &[T], f: F) -> Vec<Result<R, JobError>>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        let n = items.len();
        let w = self.workers.min(n);
        let next = AtomicUsize::new(w);

        // The one worker loop: job `wid` first, then claimed indices, each
        // run panic-isolated with per-worker accounting.
        let work = |wid: usize, mut done: Vec<(usize, Result<R, JobError>)>| {
            let mut st =
                WorkerStats { job_ms: obs::enabled().then(Histogram::new), ..Default::default() };
            let mut idx = wid;
            while idx < n {
                let t0 = Instant::now();
                let mut job_span = obs::trace::span("exec.job");
                job_span.attr_num("idx", idx as f64);
                let out = catch_unwind(AssertUnwindSafe(|| f(&items[idx])));
                drop(job_span);
                let ms = t0.elapsed().as_secs_f64() * 1e3;
                st.busy_ms += ms;
                if let Some(h) = &mut st.job_ms {
                    h.record(ms);
                }
                let res = out.map_err(|p| {
                    st.panicked += 1;
                    JobError::Panicked(panic_message(p.as_ref()))
                });
                done.push((idx, res));
                idx = next.fetch_add(1, Ordering::Relaxed);
            }
            st.completed = (done.len() as u64) - st.panicked;
            (done, st)
        };

        // The caller sizes each worker's result buffer for an even share of
        // the jobs: after a large flow, allocating it on the worker thread
        // measured up to 4x the per-job dispatch cost.
        let buffer = || Vec::with_capacity(n / w.max(1) + 1);
        let per_worker: Vec<_> = if w <= 1 {
            // the caller is the pool's one worker while it runs the jobs
            let was = WORKER.replace(true);
            let done = work(0, buffer());
            WORKER.set(was);
            vec![done]
        } else {
            thread::scope(|s| {
                let handles: Vec<_> = (0..w)
                    .map(|wid| {
                        let (work, done) = (&work, buffer());
                        s.spawn(move || {
                            // name the track before the first span so every
                            // job this worker runs lands on the `w{wid}` timeline
                            obs::trace::set_thread_label(&format!("w{wid}"));
                            Pool::mark_worker();
                            work(wid, done)
                        })
                    })
                    .collect();
                // a job's panic is caught above, so a worker panic is a bug
                // in the loop itself: re-raise it on the caller
                handles.into_iter().map(|h| h.join().unwrap_or_else(|p| resume_unwind(p))).collect()
            })
        };

        let (done, stats): (Vec<_>, Vec<_>) = per_worker.into_iter().unzip();
        if n > 0 {
            flush_stats(w, stats);
        }
        let mut results: Vec<_> = done.into_iter().flatten().collect();
        results.sort_unstable_by_key(|&(idx, _)| idx);
        results.into_iter().map(|(_, res)| res).collect()
    }
}

impl Default for Pool {
    /// [`Pool::from_env`].
    fn default() -> Self {
        Pool::from_env()
    }
}

/// Per-worker accounting, flushed into `casyn-obs` once per `par_map`.
#[derive(Debug, Default)]
struct WorkerStats {
    completed: u64,
    panicked: u64,
    busy_ms: f64,
    /// Job wall times (only while collection is on): merged into
    /// `exec.job_ms` with one registry write per `par_map`, not one per job.
    job_ms: Option<Histogram>,
}

fn flush_stats(workers: usize, stats: Vec<WorkerStats>) {
    if !obs::enabled() {
        return;
    }
    let busy_keys: Vec<String> =
        (0..stats.len()).map(|wid| format!("exec.worker.{wid}.busy_ms")).collect();
    let (mut completed, mut panicked) = (0, 0);
    let mut job_ms: Option<Histogram> = None;
    let mut writes = vec![Write::Gauge("exec.pool_workers", workers as f64)];
    for (st, key) in stats.iter().zip(&busy_keys) {
        writes.push(Write::Gauge(key, st.busy_ms));
        writes.push(Write::Record("exec.worker_busy_ms", st.busy_ms));
        completed += st.completed;
        panicked += st.panicked;
    }
    for h in stats.into_iter().filter_map(|st| st.job_ms) {
        match &mut job_ms {
            Some(all) => all.merge(&h),
            None => job_ms = Some(h),
        }
    }
    if panicked > 0 {
        writes.push(Write::Counter("exec.jobs_panicked", panicked));
    }
    writes.push(Write::Counter("exec.jobs_completed", completed));
    if let Some(h) = job_ms.as_ref().filter(|h| h.count > 0) {
        writes.push(Write::Merge("exec.job_ms", h));
    }
    // one registry write for the whole map
    obs::write_batch(&writes);
}

/// Extracts a human-readable message from a panic payload (the `&str` or
/// `String` passed to `panic!`), for surfacing caught panics as typed
/// errors outside the pool as well.
pub fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Worker-count resolution behind [`Pool::from_env`], split out pure for
/// testing: a positive integer in `env` wins, anything else falls back.
fn resolve_jobs(env: Option<&str>, fallback: usize) -> usize {
    match env.and_then(|s| s.trim().parse::<usize>().ok()) {
        Some(n) if n >= 1 => n,
        _ => fallback.max(1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;
    use std::time::Duration;

    #[test]
    fn par_map_results_are_input_ordered_and_complete() {
        let _guard = pool_test_lock();
        for workers in [1, 2, 4, 8] {
            let pool = Pool::new(workers);
            let items: Vec<u64> = (0..100).collect();
            let out = pool.par_map(&items, |&x| x * x);
            let expect: Vec<u64> = items.iter().map(|&x| x * x).collect();
            assert_eq!(out, expect, "workers = {workers}");
        }
    }

    #[test]
    fn par_map_is_ordered_under_skewed_job_durations() {
        let _guard = pool_test_lock();
        // early jobs are the slowest, so late jobs finish first — the
        // output must still be input-ordered
        let pool = Pool::new(4);
        let items: Vec<u64> = (0..24).collect();
        let out = pool.par_map(&items, |&x| {
            thread::sleep(Duration::from_millis((24 - x) % 6));
            x + 1
        });
        assert_eq!(out, (1..=24).collect::<Vec<u64>>());
    }

    #[test]
    fn all_workers_participate() {
        let _guard = pool_test_lock();
        let pool = Pool::new(3);
        let seen = Mutex::new(std::collections::HashSet::new());
        let items: Vec<u64> = (0..48).collect();
        pool.par_map(&items, |_| {
            thread::sleep(Duration::from_millis(1));
            seen.lock().unwrap().insert(thread::current().id());
        });
        assert!(seen.lock().unwrap().len() > 1, "expected >1 worker thread to run jobs");
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let _guard = pool_test_lock();
        let pool = Pool::new(4);
        assert_eq!(pool.par_map(&[] as &[u32], |&x| x), Vec::<u32>::new());
        assert_eq!(pool.par_map(&[7u32], |&x| x * 2), vec![14]);
    }

    #[test]
    fn par_map_matches_serial_and_every_worker_runs_a_job() {
        let _guard = pool_test_lock();
        let caller = thread::current().id();
        for workers in [1usize, 2, 3, 8] {
            let pool = Pool::new(workers);
            for n in [0, 1, workers - 1, workers, workers + 1, 64] {
                // seeded per-job sleeps of 0–300 µs shuffle the claim order
                let mut seed = 0x9e37_79b9_7f4a_7c15 ^ (workers * 1000 + n) as u64;
                let items: Vec<(u64, u64)> = (0..n as u64)
                    .map(|i| {
                        seed = seed.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                        (i, (seed >> 33) % 300)
                    })
                    .collect();
                let threads = Mutex::new(std::collections::HashSet::new());
                let job = |&(i, us): &(u64, u64)| {
                    thread::sleep(Duration::from_micros(us));
                    threads.lock().unwrap().insert(thread::current().id());
                    i * 7 + us
                };
                let serial: Vec<u64> = items.iter().map(job).collect();
                threads.lock().unwrap().clear();
                assert_eq!(pool.par_map(&items, job), serial, "workers = {workers}, n = {n}");
                let threads = threads.into_inner().unwrap();
                if n >= workers {
                    assert_eq!(threads.len(), workers, "workers = {workers}, n = {n}");
                }
                if workers.min(n) >= 2 {
                    assert!(!threads.contains(&caller), "jobs must run on the worker threads");
                }
            }
        }
    }

    #[test]
    fn panicking_job_yields_typed_error_and_siblings_complete() {
        let _guard = pool_test_lock();
        // (workers, jobs, panicking job, µs the seeded jobs sleep, µs the
        // rest sleep): in the second case job 1 panics at once while jobs 0
        // and 2, seeded on the other two workers, are still sleeping
        for (workers, n, bad, seeded_us, rest_us) in [(4, 16, 5, 0, 0), (3, 64, 1, 5_000, 200)] {
            let pool = Pool::new(workers);
            let items: Vec<usize> = (0..n).collect();
            let out = pool.try_par_map(&items, |&i| {
                if i == bad {
                    panic!("injected failure in job {i}");
                }
                let us = if i < workers { seeded_us } else { rest_us };
                thread::sleep(Duration::from_micros(us));
                i * 10
            });
            for (i, r) in out.iter().enumerate() {
                if i == bad {
                    let msg = format!("injected failure in job {bad}");
                    assert_eq!(*r, Err(JobError::Panicked(msg)), "workers = {workers}");
                } else {
                    assert_eq!(*r, Ok(i * 10), "sibling job {i} must complete");
                }
            }
        }
    }

    #[test]
    fn par_map_propagates_panics() {
        let _guard = pool_test_lock();
        let pool = Pool::new(2);
        let items = [0u8, 1];
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.par_map(&items, |&x| {
                if x == 1 {
                    panic!("boom");
                }
                x
            })
        }));
        assert!(caught.is_err());
    }

    #[test]
    fn pool_reports_exec_metrics_when_enabled() {
        let _guard = pool_test_lock();
        obs::set_enabled(true);
        obs::reset();
        let pool = Pool::new(3);
        let items: Vec<u64> = (0..32).collect();
        let out = pool.try_par_map(&items, |&x| {
            thread::sleep(Duration::from_micros(200));
            if x == 9 {
                panic!("metric probe");
            }
            x
        });
        let snap = obs::snapshot();
        obs::set_enabled(false);
        assert_eq!(snap.counter("exec.jobs_completed"), Some(31));
        assert_eq!(snap.counter("exec.jobs_panicked"), Some(1));
        assert_eq!(snap.gauge("exec.pool_workers"), Some(3.0));
        assert!(snap.histogram("exec.job_ms").is_some_and(|h| h.count == 32));
        assert!(snap.histogram("exec.worker_busy_ms").is_some_and(|h| h.count == 3));
        assert!(snap.gauge("exec.worker.0.busy_ms").is_some());
        assert_eq!(out.iter().filter(|r| r.is_ok()).count(), 31);
    }

    #[test]
    fn resolve_jobs_prefers_valid_env() {
        assert_eq!(resolve_jobs(Some("6"), 2), 6);
        assert_eq!(resolve_jobs(Some(" 3 "), 2), 3);
        assert_eq!(resolve_jobs(Some("0"), 2), 2);
        assert_eq!(resolve_jobs(Some("-4"), 2), 2);
        assert_eq!(resolve_jobs(Some("lots"), 2), 2);
        assert_eq!(resolve_jobs(None, 5), 5);
        assert_eq!(resolve_jobs(None, 0), 1);
    }

    #[test]
    fn ambient_budget_is_one_worker_inside_a_worker() {
        let _guard = pool_test_lock();
        assert_eq!(Pool::ambient().workers(), Pool::from_env().workers());
        for workers in [1, 3] {
            let inside = Pool::new(workers).par_map(&[0u8; 6], |_| Pool::ambient().workers());
            assert_eq!(inside, [1; 6], "workers = {workers}");
        }
        // the caller of a one-worker pool is a worker only while it runs the jobs
        assert_eq!(Pool::ambient().workers(), Pool::from_env().workers());
        let marked = thread::spawn(|| {
            Pool::mark_worker();
            Pool::ambient().workers()
        });
        assert_eq!(marked.join().unwrap(), 1);
    }

    #[test]
    fn new_clamps_to_one_worker() {
        assert_eq!(Pool::new(0).workers(), 1);
        assert_eq!(Pool::serial().workers(), 1);
    }

    /// Serializes every pool-running test: the metrics test enables the
    /// global obs registry, and any pool flushing concurrently during
    /// that window would pollute its exact counter assertions.
    fn pool_test_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        match LOCK.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}
