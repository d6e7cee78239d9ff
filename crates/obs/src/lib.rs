//! casyn-obs — the observability layer of the casyn synthesis pipeline.
//!
//! Dependency-free metrics, tracing, and export plumbing shared by every
//! stage (optimize → decompose → place → partition → map → route → STA):
//!
//! - a thread-safe global [`Registry`] of counters, gauges, and log-scale
//!   histograms keyed `stage.metric` (e.g. `route.iterations`,
//!   `map.matches_tried`, `place.kway.rounds`);
//! - [`StageTimer`] / [`trace::span`] for wall-clock scoping;
//! - [`trace`]: a hierarchical, thread-aware span tree with a Chrome
//!   trace-event sink;
//! - [`alloc`]: heap accounting via a counting global allocator (the
//!   default-on `alloc-track` feature): exact process totals, and the
//!   calling thread's own allocation and high-water mark;
//! - leveled stderr logging controlled by the `CASYN_LOG` env var;
//! - a tiny [`json`] writer used by the telemetry exporters.
//!
//! Collection is off by default: every record call checks one relaxed
//! atomic and returns immediately when disabled, so instrumented hot
//! paths (match enumeration, maze expansion) pay only a branch. Stages
//! additionally batch counts locally and flush once per unit of work,
//! several metrics under one lock with [`write_batch`].

pub mod alloc;
pub mod json;
pub mod log;
pub mod prom;
mod registry;
pub mod timeseries;
pub mod trace;

pub use registry::{
    begin_stage_record, counter_add, enabled, end_stage_record, gauge_set, global, hist_record,
    reset, set_enabled, snapshot, write_batch, Histogram, MetricValue, Registry, Snapshot, Write,
    HIST_BUCKETS,
};
pub use timeseries::SeriesStore;

/// The counting allocator measuring every workspace crate (the
/// `alloc-track` feature, on by default). See [`alloc`].
#[cfg(feature = "alloc-track")]
#[global_allocator]
static COUNTING_ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

use std::time::Instant;

/// Wall-clock timer for one pipeline stage.
///
/// Always runs (timers are too cheap to gate); the caller decides what to
/// do with the elapsed time — typically storing it in a
/// `FlowTelemetry` stage record and, when metrics are enabled, a gauge.
#[derive(Debug)]
pub struct StageTimer {
    stage: &'static str,
    start: Instant,
}

impl StageTimer {
    /// Starts timing `stage`.
    pub fn start(stage: &'static str) -> Self {
        log::trace(&format!("stage {stage}: start"));
        StageTimer { stage, start: Instant::now() }
    }

    /// The stage name this timer was started with.
    pub fn stage(&self) -> &'static str {
        self.stage
    }

    /// Elapsed milliseconds so far, without consuming the timer.
    pub fn elapsed_ms(&self) -> f64 {
        self.start.elapsed().as_secs_f64() * 1e3
    }

    /// Stops the timer, records `<stage>.wall_ms` (last-run gauge) and
    /// `<stage>.wall_ms_hist` (lifetime histogram, the source of the
    /// windowed per-stage percentiles in [`timeseries`]) when metrics
    /// are enabled, and returns the elapsed milliseconds.
    pub fn finish(self) -> f64 {
        let ms = self.elapsed_ms();
        log::debug(&format!("stage {}: {:.3} ms", self.stage, ms));
        if enabled() {
            let (gauge, hist) =
                (format!("{}.wall_ms", self.stage), format!("{}.wall_ms_hist", self.stage));
            write_batch(&[Write::Gauge(&gauge, ms), Write::Record(&hist, ms)]);
        }
        ms
    }
}

/// A scoped counter batch: accumulates locally, flushes to the global
/// registry on drop. The pattern hot call-sites use to avoid per-event
/// locking.
#[derive(Debug, Default)]
pub struct Span {
    entries: Vec<(String, u64)>,
}

impl Span {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` to the batched counter `key`.
    pub fn add(&mut self, key: &str, n: u64) {
        if n == 0 {
            return;
        }
        if let Some(e) = self.entries.iter_mut().find(|e| e.0 == key) {
            e.1 += n;
        } else {
            self.entries.push((key.to_string(), n));
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !enabled() {
            return;
        }
        for (key, n) in self.entries.drain(..) {
            counter_add(&key, n);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_timer_reports_positive_elapsed() {
        let t = StageTimer::start("test_stage");
        assert_eq!(t.stage(), "test_stage");
        let ms = t.finish();
        assert!(ms >= 0.0);
    }

    #[test]
    fn span_flushes_only_when_enabled() {
        let _guard = crate::registry::test_lock();
        let key = "span_test.flush_gated";
        set_enabled(false);
        {
            let mut s = Span::new();
            s.add(key, 5);
        }
        assert!(!snapshot().metrics.contains_key(key));
        set_enabled(true);
        {
            let mut s = Span::new();
            s.add(key, 2);
            s.add(key, 3);
        }
        let snap = snapshot();
        assert_eq!(snap.counter(key), Some(5));
        set_enabled(false);
    }
}
