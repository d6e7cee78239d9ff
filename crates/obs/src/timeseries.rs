//! Windowed time-series metrics: ring buffers of per-second buckets
//! with rolling 10s/1m/5m summaries computed at read time.
//!
//! The cumulative [`Registry`](crate::Registry) answers "how much since
//! boot"; this module answers "how much *right now*". A
//! [`SeriesStore`] ingests registry snapshots once per second (the
//! caller supplies the second — a background sampler passes wall-clock
//! seconds, tests pass a deterministic counter) and keeps, per metric,
//! a ring of per-second buckets:
//!
//! - **counters** store the per-second *delta* (a reset mid-window is
//!   detected the same way [`Snapshot::delta_since`] does: the
//!   post-reset value becomes the delta instead of a huge underflow);
//! - **gauges** store the last value written that second;
//! - **histograms** store the per-second delta of the log₂ bucket
//!   array, so windowed percentiles can be computed at read time by
//!   merging the window's buckets into one [`Histogram`] — no raw
//!   samples are retained, which bounds memory at
//!   `O(keys × RING_SECS)` regardless of traffic.
//!
//! Everything is deterministic given the injected seconds: the same
//! sequence of `observe` calls produces bit-identical
//! [`SeriesStore::stats_json`] output, which is what the serve-layer
//! determinism tests pin.
//!
//! ## Window and bucket math
//!
//! A window of `w` seconds read at second `now` covers the inclusive
//! second range `[now - w + 1, now]` — the current (possibly still
//! filling) second is included so a scrape immediately after an event
//! sees it. Rates divide by the *nominal* window width `w`, not by the
//! number of populated buckets: a half-empty window reports a lower
//! rate, which is the honest reading during warm-up. Slots are stamped
//! with their absolute second; a ring slot whose stamp does not match
//! the second being read is stale (wrapped) and reads as empty.
//!
//! Windowed percentiles inherit the registry histogram's resolution:
//! exact to within one log₂ bucket, clamped to the merged min/max. The
//! per-second min/max of a histogram delta is approximated by the
//! source histogram's lifetime min/max at observe time (the registry
//! does not keep per-interval extremes); the clamp can therefore be up
//! to one bucket loose, never wrong by more.

use crate::json::JsonValue;
use crate::registry::{Histogram, MetricValue, Snapshot};
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Ring capacity in seconds: the longest window plus the current second.
pub const RING_SECS: usize = 301;

/// The rolling windows every summary reports: (seconds, label).
pub const WINDOWS: [(u64, &str); 3] = [(10, "10s"), (60, "1m"), (300, "5m")];

/// Per-metric ring of per-second buckets. Slots are `(second, value)`
/// stamped with the absolute second so wrapped slots read as empty; a
/// histogram slot holds one second's activity (a delta of the cumulative
/// log₂ histogram).
#[derive(Debug)]
enum Series {
    Counter(Vec<Option<(u64, u64)>>),
    Gauge(Vec<Option<(u64, f64)>>),
    Hist(Vec<Option<(u64, Histogram)>>),
}

impl Series {
    fn empty_like(v: &MetricValue) -> Series {
        match v {
            MetricValue::Counter(_) => Series::Counter(vec![None; RING_SECS]),
            MetricValue::Gauge(_) => Series::Gauge(vec![None; RING_SECS]),
            MetricValue::Histogram(_) => Series::Hist(vec![None; RING_SECS]),
        }
    }
}

#[derive(Debug, Default)]
struct Inner {
    /// The previous snapshot and its second, for delta computation.
    last: Option<(u64, Snapshot)>,
    series: BTreeMap<String, Series>,
}

/// A store of windowed per-second series, fed from registry snapshots.
///
/// Thread-safe; `observe` and the read methods may race freely (two
/// observes landing in the same second merge: counter deltas add,
/// gauges last-write-wins, histogram deltas merge).
#[derive(Debug, Default)]
pub struct SeriesStore {
    inner: Mutex<Inner>,
}

fn slot_idx(sec: u64) -> usize {
    (sec % RING_SECS as u64) as usize
}

impl SeriesStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ingests one registry snapshot taken at second `now_s`.
    ///
    /// The first call establishes the delta baseline: counters and
    /// histograms record nothing (their lifetime total is not "activity
    /// this second"), gauges record their current value. A `now_s`
    /// earlier than the previous call (clock went backwards) is clamped
    /// to the previous second, so activity folds into the latest bucket
    /// instead of corrupting older ones.
    pub fn observe(&self, now_s: u64, snap: &Snapshot) {
        let mut g = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        let now_s = match &g.last {
            Some((last_s, _)) if now_s < *last_s => *last_s,
            _ => now_s,
        };
        let first = g.last.is_none();
        let prev = g.last.take().map(|(_, s)| s);
        for (k, v) in &snap.metrics {
            let prev_v = prev.as_ref().and_then(|p| p.metrics.get(k));
            let series = g.series.entry(k.clone()).or_insert_with(|| Series::empty_like(v));
            match (v, series) {
                (MetricValue::Gauge(val), Series::Gauge(slots)) => {
                    slots[slot_idx(now_s)] = Some((now_s, *val));
                }
                (MetricValue::Counter(now), Series::Counter(slots)) => {
                    let delta = match prev_v {
                        Some(MetricValue::Counter(then)) => {
                            if now >= then {
                                now - then
                            } else {
                                *now // reset: report the post-reset value
                            }
                        }
                        // key born after the baseline: everything is new
                        _ if !first => *now,
                        _ => 0,
                    };
                    if delta > 0 {
                        let slot = &mut slots[slot_idx(now_s)];
                        match slot {
                            Some((sec, d)) if *sec == now_s => *d += delta,
                            _ => *slot = Some((now_s, delta)),
                        }
                    }
                }
                (MetricValue::Histogram(h), Series::Hist(slots)) => {
                    let d = match prev_v {
                        Some(MetricValue::Histogram(then)) => hist_delta(h, then),
                        _ if !first => hist_delta_all(h),
                        _ => None,
                    };
                    if let Some(d) = d {
                        let slot = &mut slots[slot_idx(now_s)];
                        match slot {
                            Some((sec, old)) if *sec == now_s => old.merge(&d),
                            _ => *slot = Some((now_s, d)),
                        }
                    }
                }
                // a key that changed type mid-run: rebuild its ring
                (v, series) => *series = Series::empty_like(v),
            }
        }
        g.last = Some((now_s, snap.clone()));
    }

    /// Sum of counter deltas for `key` over the `secs`-second window
    /// ending at `now_s` (0 when the key is absent or the window empty).
    pub fn counter_delta(&self, now_s: u64, secs: u64, key: &str) -> u64 {
        let g = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        let Some(Series::Counter(slots)) = g.series.get(key) else {
            return 0;
        };
        window_range(now_s, secs)
            .filter_map(|s| match slots[slot_idx(s)] {
                Some((sec, d)) if sec == s => Some(d),
                _ => None,
            })
            .sum()
    }

    /// The most recent gauge value for `key` within the window, if any.
    pub fn gauge_last(&self, now_s: u64, secs: u64, key: &str) -> Option<f64> {
        let g = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        let Some(Series::Gauge(slots)) = g.series.get(key) else {
            return None;
        };
        window_range(now_s, secs).rev().find_map(|s| match slots[slot_idx(s)] {
            Some((sec, v)) if sec == s => Some(v),
            _ => None,
        })
    }

    /// The window's histogram activity for `key`, merged into one
    /// [`Histogram`] (percentiles are then computed by the caller at
    /// read time). `None` when the key is absent or nothing was
    /// recorded in the window.
    pub fn hist_window(&self, now_s: u64, secs: u64, key: &str) -> Option<Histogram> {
        let g = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        let Some(Series::Hist(slots)) = g.series.get(key) else {
            return None;
        };
        let mut merged = Histogram::new();
        for s in window_range(now_s, secs) {
            if let Some((sec, d)) = &slots[slot_idx(s)] {
                if *sec == s {
                    merged.merge(d);
                }
            }
        }
        (merged.count > 0).then_some(merged)
    }

    /// The last `n` per-second values for `key`, oldest first: counter
    /// and histogram series report per-second deltas/counts, gauges the
    /// value written that second. Seconds with no data — including the
    /// ones before the clock started, so the result is always exactly
    /// `n` long — read as 0: the shape a sparkline renderer wants.
    pub fn recent(&self, now_s: u64, n: usize, key: &str) -> Vec<f64> {
        let g = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        let Some(series) = g.series.get(key) else {
            return vec![0.0; n];
        };
        let mut vals = vec![0.0; n.saturating_sub(now_s as usize + 1)];
        vals.extend(window_range(now_s, n as u64).map(|s| match series {
            Series::Counter(slots) => match slots[slot_idx(s)] {
                Some((sec, d)) if sec == s => d as f64,
                _ => 0.0,
            },
            Series::Gauge(slots) => match slots[slot_idx(s)] {
                Some((sec, v)) if sec == s => v,
                _ => 0.0,
            },
            Series::Hist(slots) => match &slots[slot_idx(s)] {
                Some((sec, d)) if *sec == s => d.count as f64,
                _ => 0.0,
            },
        }));
        vals
    }

    /// The tracked metric names, sorted.
    pub fn keys(&self) -> Vec<String> {
        let g = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        g.series.keys().cloned().collect()
    }

    /// Summaries for every key over the standard [`WINDOWS`], as one
    /// JSON object per window label:
    ///
    /// - counters → `{"delta": n, "rate_per_s": n / window}`
    /// - gauges → `{"last": v, "min": lo, "max": hi}`
    /// - histograms → `{"count", "rate_per_s", "mean", "p50", "p95",
    ///   "p99"}` from the merged window buckets
    pub fn windows_json(&self, now_s: u64) -> JsonValue {
        let g = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        let mut windows = Vec::with_capacity(WINDOWS.len());
        for (secs, label) in WINDOWS {
            let mut entries: Vec<(String, JsonValue)> = Vec::new();
            for (key, series) in &g.series {
                let doc = match series {
                    Series::Counter(slots) => {
                        let delta: u64 = window_range(now_s, secs)
                            .filter_map(|s| match slots[slot_idx(s)] {
                                Some((sec, d)) if sec == s => Some(d),
                                _ => None,
                            })
                            .sum();
                        if delta == 0 {
                            continue;
                        }
                        JsonValue::object(vec![
                            ("delta".into(), JsonValue::Number(delta as f64)),
                            ("rate_per_s".into(), JsonValue::Number(delta as f64 / secs as f64)),
                        ])
                    }
                    Series::Gauge(slots) => {
                        let vals: Vec<f64> = window_range(now_s, secs)
                            .filter_map(|s| match slots[slot_idx(s)] {
                                Some((sec, v)) if sec == s => Some(v),
                                _ => None,
                            })
                            .collect();
                        let Some(&last) = vals.last() else { continue };
                        let min = vals.iter().cloned().fold(f64::INFINITY, f64::min);
                        let max = vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                        JsonValue::object(vec![
                            ("last".into(), JsonValue::Number(last)),
                            ("min".into(), JsonValue::Number(min)),
                            ("max".into(), JsonValue::Number(max)),
                        ])
                    }
                    Series::Hist(slots) => {
                        let mut merged = Histogram::new();
                        for s in window_range(now_s, secs) {
                            if let Some((sec, d)) = &slots[slot_idx(s)] {
                                if *sec == s {
                                    merged.merge(d);
                                }
                            }
                        }
                        if merged.count == 0 {
                            continue;
                        }
                        JsonValue::object(vec![
                            ("count".into(), JsonValue::Number(merged.count as f64)),
                            (
                                "rate_per_s".into(),
                                JsonValue::Number(merged.count as f64 / secs as f64),
                            ),
                            ("mean".into(), JsonValue::Number(merged.mean())),
                            ("p50".into(), JsonValue::Number(merged.p50())),
                            ("p95".into(), JsonValue::Number(merged.p95())),
                            ("p99".into(), JsonValue::Number(merged.p99())),
                        ])
                    }
                };
                entries.push((key.clone(), doc));
            }
            windows.push((label.to_string(), JsonValue::object(entries)));
        }
        JsonValue::object(windows)
    }

    /// The whole store as one `casyn.stats.v1` document: per-window
    /// summaries plus the last `spark_len` per-second values of each
    /// `spark_keys` entry (for terminal sparklines). Deterministic
    /// given the injected seconds: identical `observe` sequences
    /// produce bit-identical output.
    pub fn stats_json(&self, now_s: u64, spark_keys: &[&str], spark_len: usize) -> JsonValue {
        let series = spark_keys
            .iter()
            .map(|k| {
                (
                    k.to_string(),
                    JsonValue::Array(
                        self.recent(now_s, spark_len, k)
                            .into_iter()
                            .map(JsonValue::Number)
                            .collect(),
                    ),
                )
            })
            .collect();
        JsonValue::object(vec![
            ("schema".into(), JsonValue::Str("casyn.stats.v1".into())),
            ("now_s".into(), JsonValue::Number(now_s as f64)),
            ("windows".into(), self.windows_json(now_s)),
            ("series".into(), JsonValue::object(series)),
        ])
    }
}

/// The inclusive second range a window covers: `[now - w + 1, now]`,
/// clamped at second 0.
fn window_range(now_s: u64, secs: u64) -> std::ops::RangeInclusive<u64> {
    now_s.saturating_sub(secs.saturating_sub(1))..=now_s
}

/// The histogram activity between two cumulative snapshots. A bucket or
/// count that went backwards means the registry was reset; the current
/// histogram then *is* the delta (mirroring counter-reset semantics).
/// `None` when nothing was recorded in the interval.
fn hist_delta(now: &Histogram, then: &Histogram) -> Option<Histogram> {
    if now.count < then.count || now.buckets.iter().zip(&then.buckets).any(|(n, t)| n < t) {
        return hist_delta_all(now);
    }
    if now.count == then.count {
        return None;
    }
    Some(Histogram {
        count: now.count - then.count,
        sum: now.sum - then.sum,
        // lifetime extremes stand in for the interval's (see module docs)
        min: now.min,
        max: now.max,
        buckets: now.buckets.iter().zip(&then.buckets).map(|(n, t)| n - t).collect(),
    })
}

fn hist_delta_all(now: &Histogram) -> Option<Histogram> {
    (now.count > 0).then(|| now.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    fn snap_counter(key: &str, v: u64) -> Snapshot {
        let r = Registry::new();
        r.counter_add(key, v);
        r.snapshot()
    }

    #[test]
    fn baseline_observe_records_no_counter_activity() {
        let ts = SeriesStore::new();
        ts.observe(100, &snap_counter("t.jobs", 1000));
        assert_eq!(ts.counter_delta(100, 10, "t.jobs"), 0, "lifetime total is not activity");
        ts.observe(101, &snap_counter("t.jobs", 1004));
        assert_eq!(ts.counter_delta(101, 10, "t.jobs"), 4);
        assert_eq!(ts.counter_delta(101, 1, "t.jobs"), 4, "delta landed in the latest second");
    }

    #[test]
    fn empty_window_reads_as_zero_everywhere() {
        let ts = SeriesStore::new();
        ts.observe(0, &snap_counter("t.jobs", 5));
        ts.observe(1, &snap_counter("t.jobs", 9));
        // a window far past the last activity sees nothing
        assert_eq!(ts.counter_delta(500, 10, "t.jobs"), 0);
        assert!(ts.hist_window(500, 10, "t.lat").is_none());
        assert_eq!(ts.gauge_last(500, 10, "t.depth"), None);
        assert_eq!(ts.recent(500, 5, "t.jobs"), vec![0.0; 5]);
        // and an unknown key is indistinguishable from an idle one
        assert_eq!(ts.counter_delta(1, 10, "no.such"), 0);
    }

    #[test]
    fn ring_wrap_around_invalidates_stale_slots() {
        let ts = SeriesStore::new();
        ts.observe(5, &snap_counter("t.jobs", 0));
        ts.observe(6, &snap_counter("t.jobs", 7));
        assert_eq!(ts.counter_delta(6, 10, "t.jobs"), 7);
        // second 6 + RING_SECS maps to the same slot; the stale stamp
        // must not leak into the new window
        let later = 6 + RING_SECS as u64;
        assert_eq!(ts.counter_delta(later, 10, "t.jobs"), 0);
        // writing at the wrapped second replaces the stale slot
        ts.observe(later, &snap_counter("t.jobs", 10));
        assert_eq!(ts.counter_delta(later, 10, "t.jobs"), 3);
    }

    #[test]
    fn clock_going_backwards_folds_into_latest_bucket() {
        let ts = SeriesStore::new();
        ts.observe(50, &snap_counter("t.jobs", 0));
        ts.observe(51, &snap_counter("t.jobs", 2));
        // the clock jumps back 20 s; the 3 new events must land in
        // second 51, not overwrite second 31
        ts.observe(31, &snap_counter("t.jobs", 5));
        assert_eq!(ts.counter_delta(51, 1, "t.jobs"), 5, "2 + 3 merged into second 51");
        assert_eq!(ts.counter_delta(31, 1, "t.jobs"), 0, "nothing was written into the past");
    }

    #[test]
    fn counter_reset_mid_window_reports_post_reset_value() {
        let ts = SeriesStore::new();
        ts.observe(10, &snap_counter("t.jobs", 100));
        ts.observe(11, &snap_counter("t.jobs", 110));
        // registry reset: the counter restarts from 0 and climbs to 4
        ts.observe(12, &snap_counter("t.jobs", 4));
        assert_eq!(ts.counter_delta(12, 10, "t.jobs"), 14, "10 before the reset + 4 after");
    }

    #[test]
    fn windowed_percentile_on_single_sample_is_exact() {
        let ts = SeriesStore::new();
        let r = Registry::new();
        ts.observe(0, &r.snapshot());
        r.hist_record("t.lat", 7.3); // mid-bucket: interpolation alone would miss it
        ts.observe(1, &r.snapshot());
        let h = ts.hist_window(1, 10, "t.lat").unwrap();
        assert_eq!(h.count, 1);
        for p in [0.0, 0.5, 0.95, 1.0] {
            assert_eq!(h.percentile(p), 7.3, "single-sample window at p={p}");
        }
    }

    #[test]
    fn windowed_histogram_merges_only_window_buckets() {
        let ts = SeriesStore::new();
        let r = Registry::new();
        ts.observe(0, &r.snapshot());
        // second 1: slow requests; second 100: fast ones
        for v in [900.0, 950.0, 1000.0] {
            r.hist_record("t.lat", v);
        }
        ts.observe(1, &r.snapshot());
        for v in [2.0, 3.0] {
            r.hist_record("t.lat", v);
        }
        ts.observe(100, &r.snapshot());
        // a 10 s window at second 100 must only see the fast samples
        let recent = ts.hist_window(100, 10, "t.lat").unwrap();
        assert_eq!(recent.count, 2);
        assert!(recent.p95() <= 4.0, "p95 {} leaked the old slow samples", recent.p95());
        // the 5m window still sees everything
        let all = ts.hist_window(100, 300, "t.lat").unwrap();
        assert_eq!(all.count, 5);
        assert!(all.p95() >= 512.0, "p95 {} lost the slow tail", all.p95());
    }

    #[test]
    fn gauge_window_reports_last_and_extremes() {
        let ts = SeriesStore::new();
        let gauge = |v: f64| {
            let r = Registry::new();
            r.gauge_set("t.depth", v);
            r.snapshot()
        };
        ts.observe(0, &gauge(5.0));
        ts.observe(1, &gauge(9.0));
        ts.observe(2, &gauge(7.0));
        assert_eq!(ts.gauge_last(2, 10, "t.depth"), Some(7.0));
        let doc = ts.windows_json(2).to_string_compact();
        assert!(doc.contains("\"t.depth\":{\"last\":7,\"min\":5,\"max\":9}"), "got {doc}");
    }

    #[test]
    fn stats_json_is_deterministic_for_identical_observe_sequences() {
        let run = || {
            let ts = SeriesStore::new();
            let r = Registry::new();
            r.counter_add("t.jobs", 1);
            r.gauge_set("t.depth", 4.0);
            ts.observe(0, &r.snapshot());
            r.counter_add("t.jobs", 3);
            r.hist_record("t.lat", 12.0);
            r.hist_record("t.lat", 48.0);
            ts.observe(1, &r.snapshot());
            r.counter_add("t.jobs", 2);
            ts.observe(2, &r.snapshot());
            ts.stats_json(2, &["t.jobs"], 30).to_string_compact()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "two identical runs with the injected clock must be bit-identical");
        assert!(a.contains("\"schema\":\"casyn.stats.v1\""));
        assert!(a.contains("\"10s\""));
        assert!(a.contains("\"5m\""));
        assert!(a.contains("\"t.lat\""));
    }

    #[test]
    fn recent_series_has_fixed_length_and_order() {
        let ts = SeriesStore::new();
        ts.observe(0, &snap_counter("t.jobs", 0));
        ts.observe(1, &snap_counter("t.jobs", 2));
        ts.observe(3, &snap_counter("t.jobs", 7));
        let s = ts.recent(3, 4, "t.jobs");
        assert_eq!(s, vec![0.0, 2.0, 0.0, 5.0], "oldest first, gaps read 0");
    }

    #[test]
    fn same_second_observes_merge() {
        let ts = SeriesStore::new();
        ts.observe(9, &snap_counter("t.jobs", 0));
        ts.observe(9, &snap_counter("t.jobs", 2));
        ts.observe(9, &snap_counter("t.jobs", 5));
        assert_eq!(ts.counter_delta(9, 1, "t.jobs"), 5);
    }
}
