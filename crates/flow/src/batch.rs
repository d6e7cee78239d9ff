//! Concurrent batch runner: many `{design, K-list, options}` jobs fanned
//! out over one [`Pool`], with per-job isolation and recovery.
//!
//! Each batch job prepares its design once (the front end of the paper's
//! methodology) and then sweeps its K list; parallelism is across jobs.
//! Jobs are independent, so the report rows are bit-identical regardless
//! of worker count. A job that fails — a typed [`FlowError`], a panic, a
//! missed deadline — fails *alone*: its slot in the [`BatchReport`]
//! carries the error while every sibling runs to completion. On top of
//! that isolation sit two recovery mechanisms:
//!
//! * **retry** — a failed job is re-run up to [`BatchOptions::retries`]
//!   more times in place (transient faults, e.g. an injected
//!   `nth`-occurrence fault, clear on a later attempt because the fault
//!   plan's occurrence counters are shared across attempts);
//! * **K escalation** — under the default runner, [`run_batch_job`], a
//!   job whose entire sweep ends unroutable gets one extra rung at
//!   `2 × max(ks)` appended and is reported with `degraded: true`
//!   instead of being declared a failure.

use crate::error::{FlowError, FlowErrorKind, Stage};
use crate::flows::{congestion_flow_prepared, prepare, FlowOptions};
use crate::sweep::{k_sweep_prepared, KSweepEntry};
use casyn_exec::{panic_message, CancelToken, Pool};
use casyn_netlist::network::Network;
use casyn_obs as obs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// One unit of batch work: a design, the K values to sweep, and the flow
/// options to sweep them under.
#[derive(Debug, Clone)]
pub struct BatchJob {
    /// Display name (the CLI uses the design file stem).
    pub name: String,
    /// The design to synthesize.
    pub network: Network,
    /// K values to sweep (in order).
    pub ks: Vec<f64>,
    /// Flow options for every K of this job.
    pub opts: FlowOptions,
    /// Optional per-job deadline, measured from the instant the caller
    /// hands [`run_one`] (the batch start under [`run_batch`], the `POST`
    /// under `casyn serve`); a job that has not *started* in time fails
    /// with a deadline error.
    pub deadline: Option<Duration>,
}

/// Recovery policy for a batch run.
#[derive(Debug, Clone, Default)]
pub struct BatchOptions {
    /// How many times to re-run a failed job before recording the
    /// failure (0 = fail on first error).
    pub retries: u32,
    /// Cancels the whole batch: jobs that have not started when the
    /// token fires are skipped with a cancellation error (running jobs
    /// always finish). `casyn serve` uses this for fast drain on
    /// shutdown.
    pub cancel: Option<CancelToken>,
}

/// A completed job's payload.
#[derive(Debug, Clone)]
pub struct JobSuccess {
    /// Sweep rows, in K order (plus the escalated rung, when degraded).
    pub rows: Vec<KSweepEntry>,
    /// True when the job only completed through K escalation.
    pub degraded: bool,
}

/// The outcome of one batch job.
#[derive(Debug, Clone)]
pub struct BatchJobReport {
    /// The job's name.
    pub name: String,
    /// Sweep rows on success, or the typed failure of the last attempt.
    pub outcome: Result<JobSuccess, FlowError>,
    /// Wall-clock the job spent running (all attempts), in milliseconds
    /// (0 when the job never ran).
    pub wall_ms: f64,
    /// Attempts made (1 = no retry needed; 0 = never started).
    pub attempts: u32,
}

/// The outcome of a whole batch run.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// Per-job reports, in manifest order.
    pub jobs: Vec<BatchJobReport>,
    /// Wall-clock of the whole batch, in milliseconds.
    pub wall_ms: f64,
    /// Worker count of the pool that ran the batch.
    pub workers: usize,
}

impl BatchReport {
    /// Number of jobs that completed (degraded ones included).
    pub fn num_ok(&self) -> usize {
        self.jobs.iter().filter(|j| j.outcome.is_ok()).count()
    }

    /// Number of jobs that failed every attempt.
    pub fn num_failed(&self) -> usize {
        self.jobs.len() - self.num_ok()
    }

    /// Number of jobs that completed only through K escalation.
    pub fn num_degraded(&self) -> usize {
        self.jobs.iter().filter(|j| matches!(&j.outcome, Ok(s) if s.degraded)).count()
    }
}

/// The default per-job runner: prepare the design once, sweep its K list
/// serially within the job (the batch parallelizes across jobs), and
/// when the whole sweep is unroutable append one escalated rung at
/// `2 × max(ks)` (or 1.0 if all ks are 0) and mark the job `degraded`.
/// Retries and cancellation belong to [`run_one`], which calls the
/// runner.
pub fn run_batch_job(job: &BatchJob) -> Result<JobSuccess, FlowError> {
    let prep = prepare(&job.network, &job.opts)?;
    let mut rows = k_sweep_prepared(&prep, &job.ks, &job.opts)?;
    let mut degraded = false;
    let all_unroutable = !rows.is_empty() && rows.iter().all(|r| r.result.route.violations > 0);
    if all_unroutable {
        let k_max = job.ks.iter().cloned().fold(0.0_f64, f64::max);
        let k_esc = if k_max > 0.0 { 2.0 * k_max } else { 1.0 };
        obs::counter_add("retry.k_escalations", 1);
        obs::log::warn(&format!(
            "job {}: sweep fully unroutable, escalating to K = {k_esc}",
            job.name
        ));
        let result = congestion_flow_prepared(&prep, k_esc, &job.opts)?;
        rows.push(KSweepEntry { k: k_esc, result });
        degraded = true;
    }
    Ok(JobSuccess { rows, degraded })
}

/// The loop every batch job goes through, under `casyn batch` and
/// `casyn serve` alike. At claim time a job is skipped with a typed
/// error when `bopts.cancel` has fired (`Cancelled`) or when more than
/// its deadline has passed since `since` (`Deadline`); a skipped job
/// reports 0 attempts and 0 ms. Otherwise `runner` computes it under
/// panic isolation, and a panic or error triggers up to `bopts.retries`
/// re-runs.
pub fn run_one<F>(job: &BatchJob, since: Instant, bopts: &BatchOptions, runner: F) -> BatchJobReport
where
    F: Fn(&BatchJob) -> Result<JobSuccess, FlowError>,
{
    let skipped = if bopts.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
        Some((FlowErrorKind::Cancelled, "job cancelled before it started"))
    } else if job.deadline.is_some_and(|d| since.elapsed() > d) {
        Some((FlowErrorKind::Deadline, "job deadline elapsed before it started"))
    } else {
        None
    };
    if let Some((kind, detail)) = skipped {
        let outcome = Err(FlowError::new(Stage::Batch, kind, detail));
        return BatchJobReport { name: job.name.clone(), outcome, wall_ms: 0.0, attempts: 0 };
    }
    let t = Instant::now();
    let mut job_span = obs::trace::span("batch.job");
    job_span.attr_str("job", &job.name);
    let mut attempts = 0u32;
    let outcome = loop {
        attempts += 1;
        if attempts > 1 {
            obs::counter_add("retry.attempts", 1);
            obs::trace::instant(
                "batch.retry",
                &[
                    ("job", obs::trace::AttrValue::Str(job.name.clone())),
                    ("attempt", obs::trace::AttrValue::Num(attempts as f64)),
                ],
            );
            obs::log::warn(&format!("job {}: retry attempt {attempts}", job.name));
        }
        let result = catch_unwind(AssertUnwindSafe(|| runner(job)));
        let err = match result {
            Ok(Ok(success)) => break Ok(success),
            Ok(Err(e)) => e,
            Err(payload) => FlowError::new(
                Stage::Batch,
                FlowErrorKind::Panicked,
                panic_message(payload.as_ref()),
            ),
        };
        if attempts > bopts.retries {
            break Err(err);
        }
    };
    job_span.attr_num("attempts", attempts as f64);
    drop(job_span);
    BatchJobReport {
        name: job.name.clone(),
        outcome,
        wall_ms: t.elapsed().as_secs_f64() * 1e3,
        attempts,
    }
}

/// Runs every job on the pool through [`run_one`], with deadlines
/// measured from the batch start: `runner` computes one job (the default
/// is [`run_batch_job`]; fault-injection tests pass their
/// own). `on_done(index, report)` runs on the worker thread as soon as
/// job `index`'s outcome is known, for skipped jobs too, so it fires
/// exactly once per job and a checkpoint written from it is complete
/// even when the batch is cancelled mid-run and the remaining jobs are
/// drained unstarted.
pub fn run_batch<F, G>(
    jobs: &[BatchJob],
    pool: &Pool,
    bopts: &BatchOptions,
    runner: F,
    on_done: G,
) -> BatchReport
where
    F: Fn(&BatchJob) -> Result<JobSuccess, FlowError> + Sync,
    G: Fn(usize, &BatchJobReport) + Sync,
{
    let t0 = Instant::now();
    let indices: Vec<usize> = (0..jobs.len()).collect();
    let jobs = pool.par_map(&indices, |&i| {
        let report = run_one(&jobs[i], t0, bopts, &runner);
        on_done(i, &report);
        report
    });
    BatchReport { jobs, wall_ms: t0.elapsed().as_secs_f64() * 1e3, workers: pool.workers() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use casyn_exec::FaultPlan;
    use casyn_netlist::bench::{random_pla, PlaGenConfig};

    fn job(seed: u64, name: &str) -> BatchJob {
        let network = random_pla(&PlaGenConfig {
            inputs: 9,
            outputs: 5,
            terms: 28,
            min_literals: 3,
            max_literals: 5,
            mean_outputs_per_term: 1.3,
            seed,
        })
        .to_network();
        BatchJob {
            name: name.into(),
            network,
            ks: vec![0.0, 0.1],
            opts: FlowOptions::default(),
            deadline: None,
        }
    }

    /// The default runner, nothing observed.
    fn run(jobs: &[BatchJob], pool: &Pool, bopts: &BatchOptions) -> BatchReport {
        run_batch(jobs, pool, bopts, run_batch_job, |_, _| {})
    }

    #[test]
    fn batch_rows_match_direct_sweeps() {
        let jobs = [job(3, "a"), job(4, "b")];
        let report = run(&jobs, &Pool::new(2), &BatchOptions::default());
        assert_eq!(report.num_ok(), 2);
        assert_eq!(report.workers, 2);
        for (j, r) in jobs.iter().zip(&report.jobs) {
            let direct = run_batch_job(j).unwrap();
            let got = r.outcome.as_ref().unwrap();
            assert!(!got.degraded);
            assert_eq!(got.rows.len(), direct.rows.len());
            for (a, b) in got.rows.iter().zip(&direct.rows) {
                assert_eq!(a.k, b.k);
                assert_eq!(a.result.cell_area, b.result.cell_area);
                assert_eq!(a.result.route.violations, b.result.route.violations);
            }
            assert!(r.wall_ms > 0.0);
            assert_eq!(r.attempts, 1);
        }
    }

    #[test]
    fn panicking_job_fails_alone() {
        let jobs = [job(3, "ok-1"), job(4, "poisoned"), job(5, "ok-2")];
        let bopts = BatchOptions::default();
        let report = run_batch(
            &jobs,
            &Pool::new(2),
            &bopts,
            |j| {
                if j.name == "poisoned" {
                    panic!("injected batch fault");
                }
                run_batch_job(j)
            },
            |_, _| {},
        );
        assert_eq!(report.num_ok(), 2);
        assert_eq!(report.num_failed(), 1);
        let e = report.jobs[1].outcome.as_ref().unwrap_err();
        assert_eq!(e.kind, FlowErrorKind::Panicked);
        assert_eq!(e.detail, "injected batch fault");
        assert!(report.jobs[0].outcome.is_ok() && report.jobs[2].outcome.is_ok());
    }

    #[test]
    fn deadline_zero_fails_only_that_job() {
        let mut jobs = vec![job(3, "fast"), job(4, "doomed")];
        jobs[1].deadline = Some(Duration::ZERO);
        let report = run(&jobs, &Pool::serial(), &BatchOptions::default());
        assert!(report.jobs[0].outcome.is_ok());
        let e = report.jobs[1].outcome.as_ref().unwrap_err();
        assert_eq!(e.kind, FlowErrorKind::Deadline);
        assert_eq!(report.jobs[1].attempts, 0);
    }

    #[test]
    fn a_deadline_counts_from_the_instant_given() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let mut j = job(3, "late");
        j.deadline = Some(Duration::from_millis(20));
        let bopts = BatchOptions::default();
        let ran = AtomicUsize::new(0);
        let runner = |j: &BatchJob| {
            ran.fetch_add(1, Ordering::SeqCst);
            run_batch_job(j)
        };
        let Some(admitted) = Instant::now().checked_sub(Duration::from_millis(50)) else {
            return; // a clock that started less than 50 ms ago
        };
        let late = run_one(&j, admitted, &bopts, runner);
        assert_eq!(late.outcome.unwrap_err().kind, FlowErrorKind::Deadline);
        assert_eq!((late.attempts, late.wall_ms, ran.load(Ordering::SeqCst)), (0, 0.0, 0));
        let on_time = run_one(&j, Instant::now(), &bopts, runner);
        assert!(on_time.outcome.is_ok());
        assert_eq!(ran.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn batch_is_deterministic_across_worker_counts() {
        let jobs = [job(7, "x"), job(8, "y"), job(9, "z")];
        let serial = run(&jobs, &Pool::serial(), &BatchOptions::default());
        let parallel = run(&jobs, &Pool::new(4), &BatchOptions::default());
        for (a, b) in serial.jobs.iter().zip(&parallel.jobs) {
            let (ra, rb) = (a.outcome.as_ref().unwrap(), b.outcome.as_ref().unwrap());
            for (x, y) in ra.rows.iter().zip(&rb.rows) {
                assert_eq!(x.k, y.k);
                assert_eq!(x.result.cell_area, y.result.cell_area);
                assert_eq!(x.result.num_cells, y.result.num_cells);
                assert_eq!(x.result.route.total_wirelength, y.result.route.total_wirelength);
            }
        }
    }

    #[test]
    fn retry_recovers_from_transient_fault() {
        // nth=1 panic at map: attempt 1 trips it, attempt 2 runs clean
        // because the fault plan's occurrence counter is shared across
        // attempts
        let mut j = job(3, "flaky");
        j.opts.fault = Some(FaultPlan::parse("map:panic:1").unwrap());
        let bopts = BatchOptions { retries: 1, ..Default::default() };
        let report = run(&[j], &Pool::serial(), &bopts);
        assert_eq!(report.num_ok(), 1);
        assert_eq!(report.jobs[0].attempts, 2);
    }

    #[test]
    fn exhausted_retries_keep_the_last_error() {
        let mut j = job(3, "doomed");
        // trip on every early occurrence so both attempts fail
        j.opts.fault = Some(FaultPlan::parse("map:panic:1,map:panic:2").unwrap());
        let bopts = BatchOptions { retries: 1, ..Default::default() };
        let report = run(&[j], &Pool::serial(), &bopts);
        assert_eq!(report.num_failed(), 1);
        assert_eq!(report.jobs[0].attempts, 2);
        let e = report.jobs[0].outcome.as_ref().unwrap_err();
        assert_eq!(e.kind, FlowErrorKind::Panicked);
        assert!(e.detail.contains("injected fault"));
    }

    #[test]
    fn fully_unroutable_sweep_escalates_and_degrades() {
        let mut j = job(3, "tight");
        // starve the router so every K in the sweep overflows
        j.opts.route.capacity_scale = 0.02;
        let direct = run_batch_job(&j).unwrap();
        assert!(direct.degraded, "whole sweep unroutable: must escalate");
        assert_eq!(direct.rows.len(), j.ks.len() + 1);
        assert_eq!(*direct.rows.last().map(|r| &r.k).unwrap(), 0.2);
        let report = run(&[j], &Pool::serial(), &BatchOptions::default());
        assert_eq!(report.num_degraded(), 1);
    }

    #[test]
    fn cancelled_batch_flushes_every_slot_and_resumes_cleanly() {
        use std::sync::Mutex;
        // the first job cancels the batch while it is running: with one
        // worker, jobs b..d are then drained unstarted. The checkpoint
        // callback must still see all four slots (the graceful-drain
        // contract), and re-running just the cancelled slots must merge
        // into the same rows a clean run produces.
        let jobs = [job(3, "a"), job(4, "b"), job(5, "c"), job(6, "d")];
        let token = CancelToken::new();
        let bopts = BatchOptions { cancel: Some(token.clone()), ..Default::default() };
        let checkpoint: Mutex<Vec<Option<bool>>> = Mutex::new(vec![None; jobs.len()]);
        let report = run_batch(
            &jobs,
            &Pool::serial(),
            &bopts,
            |j| {
                if j.name == "a" {
                    token.cancel();
                }
                run_batch_job(j)
            },
            |i, r| checkpoint.lock().unwrap()[i] = Some(r.outcome.is_ok()),
        );
        assert!(report.jobs[0].outcome.is_ok(), "the running job finishes");
        for r in &report.jobs[1..] {
            let e = r.outcome.as_ref().unwrap_err();
            assert_eq!(e.kind, FlowErrorKind::Cancelled, "{e}");
            assert_eq!(r.attempts, 0);
        }
        let flushed = checkpoint.into_inner().unwrap();
        assert_eq!(flushed, vec![Some(true), Some(false), Some(false), Some(false)]);

        // resume: run only the slots the checkpoint recorded as failed
        let todo: Vec<BatchJob> = report
            .jobs
            .iter()
            .zip(&jobs)
            .filter(|(r, _)| r.outcome.is_err())
            .map(|(_, j)| j.clone())
            .collect();
        let resumed = run(&todo, &Pool::serial(), &BatchOptions::default());
        assert_eq!(resumed.num_ok(), 3);
        let clean = run(&jobs, &Pool::serial(), &BatchOptions::default());
        for (r, c) in resumed.jobs.iter().zip(&clean.jobs[1..]) {
            let (rr, cc) = (r.outcome.as_ref().unwrap(), c.outcome.as_ref().unwrap());
            for (x, y) in rr.rows.iter().zip(&cc.rows) {
                assert_eq!(x.k, y.k);
                assert_eq!(x.result.cell_area, y.result.cell_area);
                assert_eq!(x.result.route.total_wirelength, y.result.route.total_wirelength);
            }
        }
    }

    #[test]
    fn on_done_fires_once_per_started_job() {
        use std::sync::Mutex;
        let jobs = [job(3, "a"), job(4, "b")];
        let bopts = BatchOptions::default();
        let seen: Mutex<Vec<usize>> = Mutex::new(Vec::new());
        let report = run_batch(&jobs, &Pool::new(2), &bopts, run_batch_job, |i, r| {
            assert!(r.outcome.is_ok());
            seen.lock().unwrap().push(i);
        });
        assert_eq!(report.num_ok(), 2);
        let mut order = seen.into_inner().unwrap();
        order.sort_unstable();
        assert_eq!(order, vec![0, 1]);
    }
}
