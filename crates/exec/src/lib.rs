//! casyn-exec — the deterministic parallel execution engine of the casyn
//! stack.
//!
//! The paper's methodology re-runs the full map→route flow at 14 K values
//! over one shared placement; every run is independent, so the sweep is
//! embarrassingly parallel. This crate provides the machinery to exploit
//! that without giving up reproducibility:
//!
//! * [`Pool`] — a scoped claim-counter thread pool (std-only:
//!   `std::thread::scope` workers that each run one seeded job, then
//!   claim the next job index from one shared atomic counter). Jobs may
//!   borrow stack data; no `'static` bounds.
//! * [`Pool::par_map`] — parallel map with **deterministic, input-ordered
//!   results**: each result carries its job's index back into input
//!   order, so the output is bit-identical to the serial
//!   `items.iter().map(f)` regardless of worker count or scheduling.
//! * Job-level robustness — a panicking job is isolated with
//!   `catch_unwind` and surfaced as [`JobError::Panicked`] instead of
//!   tearing down the process ([`Pool::try_par_map`]), and a
//!   [`CancelToken`] lets the batch runner stop not-yet-started jobs.
//!
//! The pool reports into [`casyn_obs`] when metric collection is enabled:
//! `exec.pool_workers`, `exec.jobs_completed` / `exec.jobs_panicked`, a
//! per-job `exec.job_ms` histogram, the cross-worker
//! `exec.worker_busy_ms` histogram, and per-worker
//! `exec.worker.<i>.busy_ms` gauges.
//!
//! Worker count resolution: [`Pool::from_env`] honours the `CASYN_JOBS`
//! environment variable and falls back to
//! `std::thread::available_parallelism`. [`Pool::ambient`] is that budget
//! on a free thread and one worker on a thread that already is a worker
//! (of a pool, or of the service), for code that fans out without being
//! handed a pool.

pub mod fault;
mod job;
mod pool;

pub use fault::{FaultKind, FaultPlan, FaultSpec};
pub use job::{CancelToken, JobError};
pub use pool::{panic_message, Pool};
