//! `casyn-serve` — synthesis as a long-running service.
//!
//! A thread-per-connection HTTP/1.1 server (std only, no async runtime)
//! that accepts batch-manifest job submissions, runs them on long-lived
//! workers through the `casyn-flow` batch runner's per-job loop, and answers
//! identical resubmissions from a content-addressed artifact cache.
//!
//! * [`http`] — minimal HTTP/1.1 request parsing and response writing,
//!   with explicit body limits (oversized → 413, chunked → 411).
//! * [`cache`] — the LRU caches behind the service: full results keyed
//!   by content address, and prepare-once artifacts shared between jobs
//!   that differ only in their K schedule — plus the checksummed
//!   [`cache::DiskCache`] spill behind `--state-dir`.
//! * [`client`] — a tiny blocking HTTP client for the CLI's `submit`,
//!   `shutdown` and `top` commands (and CI smoke tests), with typed
//!   errors and deterministic exponential backoff for idempotent GETs.
//! * [`server`] — the service itself: job table, bounded admission
//!   queue with backpressure, compute workers, per-job event streams,
//!   metrics endpoints, graceful drain, and (with a state directory) a
//!   write-ahead job journal replayed on startup for crash recovery.
//!
//! ## Endpoints
//!
//! | method | path | purpose |
//! |--------|------|---------|
//! | POST | `/jobs` | submit a batch manifest; 202 with per-job ids |
//! | GET  | `/jobs/<id>` | job status document |
//! | GET  | `/jobs/<id>/result` | rows; `?wait=1` blocks until terminal |
//! | GET  | `/jobs/<id>/events` | NDJSON stage-progress stream |
//! | GET  | `/metrics` | casyn-obs registry snapshot (JSON) |
//! | GET  | `/metrics?format=prom` | Prometheus text exposition |
//! | GET  | `/stats` | windowed 10s/1m/5m rates, percentiles, sparklines |
//! | GET  | `/healthz` | liveness: uptime, version, queue depth, degraded |
//! | POST | `/shutdown` | graceful drain (`{"mode": "cancel"}` for fast) |
//!
//! ## Live telemetry
//!
//! A background sampler snapshots the metrics registry (plus queue
//! depth, live heap bytes and WAL lag) into an `obs::SeriesStore` once
//! per second; `/stats` and `/metrics?format=prom` additionally sample
//! on demand so scrapes never see stale windows. Every HTTP request
//! carries a `request_id` (client-supplied `X-Request-Id` or generated)
//! that flows through admission, the job journal, trace spans, the
//! NDJSON event stream and the rate-limited access log, so one id
//! correlates all surfaces. `casyn top <addr>` renders `/stats` as a
//! live terminal dashboard.
//!
//! ## Content addressing
//!
//! A job's cache key is built with [`casyn_flow::KeyBuilder`] from the
//! design text hash, the library fingerprint and the flow parameters —
//! never from timings, so a resubmit of the same logical job is a hit
//! regardless of how long the first run took. The key hashes the raw
//! text, so it is computed without parsing the design, and a hit parses
//! nothing. Jobs carrying a fault plan bypass the cache entirely: an
//! injected failure must never be replayed as a cached artifact.

pub mod cache;
pub mod client;
pub mod http;
pub mod server;
mod state;

pub use cache::{DiskCache, Lru};
pub use client::{
    request, request_json, request_with, wait_ready, ClientError, ClientErrorKind, Response,
    RetryPolicy,
};
pub use http::{HttpError, Request};
pub use server::{version, ServeConfig, Server};
