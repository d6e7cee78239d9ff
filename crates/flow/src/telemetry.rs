//! Per-stage flow telemetry: wall-clock timings and metric deltas
//! attributed to each pipeline stage, exportable as JSON.
//!
//! [`FlowTelemetry`] is collected by [`crate::flows::prepare`],
//! [`crate::flows::map_at`] and [`crate::flows::route_at`] using
//! `StageScope`: the metric writes the stage's own thread makes between
//! its start and end (a [`casyn_obs::begin_stage_record`] record) become
//! that stage's metric attribution. Wall clock is always measured; metric
//! deltas appear only when collection is enabled
//! ([`casyn_obs::set_enabled`] or the CLI's `--metrics-out`).

use casyn_obs as obs;
use casyn_obs::json::JsonValue;
use casyn_obs::MetricValue;
use std::collections::BTreeMap;

/// Telemetry for one pipeline stage.
#[derive(Debug, Clone, PartialEq)]
pub struct StageTelemetry {
    /// Stage name (`optimize`, `decompose`, `place`, `map`, `legalize`,
    /// `route`, `sta`, ...).
    pub stage: String,
    /// Wall-clock time spent in the stage, in milliseconds.
    pub wall_ms: f64,
    /// Metrics the stage moved, as representative numbers (counter
    /// deltas, final gauge values, histogram means — histograms also
    /// expand to `<key>.p50/.p95/.p99` estimates). Empty when metric
    /// collection was disabled during the run. Per thread: only the
    /// writes the stage's own thread made count, so under `casyn sweep
    /// --jobs N` each rung reports its own work and a histogram holds
    /// the stage's own samples.
    pub metrics: BTreeMap<String, f64>,
    /// Heap bytes the stage's thread allocated while the stage ran (0
    /// when metric collection was disabled or `alloc-track` is off).
    pub alloc_bytes: u64,
    /// High-water mark of live heap bytes during the stage: the live
    /// bytes of the process at its start plus the stage thread's own
    /// net high-water since (see [`casyn_obs::alloc::peak_bytes`]).
    pub peak_bytes: u64,
}

/// Telemetry for one whole flow run (front end + per-K back end).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FlowTelemetry {
    /// Per-stage records, in execution order.
    pub stages: Vec<StageTelemetry>,
    /// Total wall-clock over all recorded stages, in milliseconds.
    pub total_ms: f64,
    /// Peak number of live design nodes observed across stages (subject
    /// vertices before mapping, mapped cells after) — a memory-pressure
    /// proxy.
    pub peak_live_nodes: usize,
    /// Largest per-stage live-heap high-water mark, in bytes (0 when
    /// metric collection was disabled or `alloc-track` is off).
    pub peak_alloc_bytes: u64,
}

impl FlowTelemetry {
    /// The record for `stage`, if that stage ran.
    pub fn stage(&self, stage: &str) -> Option<&StageTelemetry> {
        self.stages.iter().find(|s| s.stage == stage)
    }

    /// The stage names in execution order.
    pub fn stage_names(&self) -> Vec<&str> {
        self.stages.iter().map(|s| s.stage.as_str()).collect()
    }

    /// Raises the live-node high-water mark.
    pub fn observe_live_nodes(&mut self, n: usize) {
        self.peak_live_nodes = self.peak_live_nodes.max(n);
    }

    /// Serializes to a JSON document:
    ///
    /// ```json
    /// {
    ///   "schema": "casyn.telemetry.v1",
    ///   "total_ms": 12.5,
    ///   "peak_live_nodes": 240,
    ///   "stages": [
    ///     {"stage": "map", "wall_ms": 3.1, "metrics": {"map.matches_tried": 991}}
    ///   ]
    /// }
    /// ```
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object(vec![
            ("schema".into(), JsonValue::Str("casyn.telemetry.v1".into())),
            ("total_ms".into(), JsonValue::Number(self.total_ms)),
            ("peak_live_nodes".into(), JsonValue::Number(self.peak_live_nodes as f64)),
            ("peak_alloc_bytes".into(), JsonValue::Number(self.peak_alloc_bytes as f64)),
            (
                "stages".into(),
                JsonValue::Array(
                    self.stages
                        .iter()
                        .map(|s| {
                            JsonValue::object(vec![
                                ("stage".into(), JsonValue::Str(s.stage.clone())),
                                ("wall_ms".into(), JsonValue::Number(s.wall_ms)),
                                ("alloc_bytes".into(), JsonValue::Number(s.alloc_bytes as f64)),
                                ("peak_bytes".into(), JsonValue::Number(s.peak_bytes as f64)),
                                ("metrics".into(), JsonValue::from_map(&s.metrics)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// One metric as JSON: counters and gauges become numbers, histograms an
/// object with their summary statistics.
pub fn metric_json(v: &MetricValue) -> JsonValue {
    match v {
        MetricValue::Counter(n) => JsonValue::Number(*n as f64),
        MetricValue::Gauge(g) => JsonValue::Number(*g),
        MetricValue::Histogram(h) => JsonValue::object(vec![
            ("count".into(), JsonValue::Number(h.count as f64)),
            ("mean".into(), JsonValue::Number(h.mean())),
            ("min".into(), JsonValue::Number(h.min)),
            ("max".into(), JsonValue::Number(h.max)),
            ("p50".into(), JsonValue::Number(h.p50())),
            ("p95".into(), JsonValue::Number(h.p95())),
            ("p99".into(), JsonValue::Number(h.p99())),
        ]),
    }
}

/// A registry snapshot as one JSON object keyed `stage.metric`.
pub fn snapshot_json(snap: &obs::Snapshot) -> JsonValue {
    JsonValue::Object(snap.metrics.iter().map(|(k, v)| (k.clone(), metric_json(v))).collect())
}

/// Scoped per-stage collector: opens the thread's stage record at entry
/// and, on [`StageScope::end`], appends a [`StageTelemetry`] with the
/// wall clock, the metrics the thread wrote, and the thread's heap
/// allocation window. Also opens a trace span named after the stage, so
/// every stage shows up on its thread's track when tracing is on.
#[derive(Debug)]
pub(crate) struct StageScope {
    timer: obs::StageTimer,
    /// Whether collection was on at entry (the record is open).
    recording: bool,
    alloc_before: u64,
    span: obs::trace::SpanGuard,
}

impl StageScope {
    pub(crate) fn begin(stage: &'static str) -> Self {
        let recording = obs::enabled();
        let alloc_before = if recording {
            obs::begin_stage_record();
            obs::alloc::reset_peak();
            obs::alloc::thread_allocated_bytes()
        } else {
            0
        };
        StageScope {
            timer: obs::StageTimer::start(stage),
            recording,
            alloc_before,
            span: obs::trace::span(stage),
        }
    }

    pub(crate) fn end(mut self, telemetry: &mut FlowTelemetry) {
        let stage = self.timer.stage().to_string();
        let (alloc_bytes, peak_bytes) = if self.recording {
            (
                obs::alloc::thread_allocated_bytes().saturating_sub(self.alloc_before),
                obs::alloc::peak_bytes(),
            )
        } else {
            (0, 0)
        };
        // the timer's own `<stage>.wall_ms` writes land in the record too
        let wall_ms = self.timer.finish();
        let mut metrics: BTreeMap<String, f64> = BTreeMap::new();
        if self.recording {
            obs::end_stage_record(|k, v| {
                if let obs::MetricValue::Histogram(h) = v {
                    metrics.insert(format!("{k}.p50"), h.p50());
                    metrics.insert(format!("{k}.p95"), h.p95());
                    metrics.insert(format!("{k}.p99"), h.p99());
                }
                metrics.insert(k.to_string(), v.as_f64());
            });
        }
        if peak_bytes > 0 {
            self.span.attr_num("peak_bytes", peak_bytes as f64);
        }
        telemetry.total_ms += wall_ms;
        telemetry.peak_alloc_bytes = telemetry.peak_alloc_bytes.max(peak_bytes);
        telemetry.stages.push(StageTelemetry { stage, wall_ms, metrics, alloc_bytes, peak_bytes });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FlowTelemetry {
        FlowTelemetry {
            stages: vec![
                StageTelemetry {
                    stage: "map".into(),
                    wall_ms: 3.25,
                    metrics: [("map.matches_tried".to_string(), 42.0)].into_iter().collect(),
                    alloc_bytes: 2048,
                    peak_bytes: 4096,
                },
                StageTelemetry {
                    stage: "route".into(),
                    wall_ms: 1.5,
                    metrics: BTreeMap::new(),
                    alloc_bytes: 0,
                    peak_bytes: 0,
                },
            ],
            total_ms: 4.75,
            peak_live_nodes: 99,
            peak_alloc_bytes: 4096,
        }
    }

    #[test]
    fn stage_lookup_and_names() {
        let t = sample();
        assert_eq!(t.stage_names(), ["map", "route"]);
        assert_eq!(t.stage("map").unwrap().wall_ms, 3.25);
        assert!(t.stage("sta").is_none());
    }

    #[test]
    fn json_contains_schema_and_stages() {
        let s = sample().to_json().to_string_pretty();
        assert!(s.contains("\"schema\": \"casyn.telemetry.v1\""));
        assert!(s.contains("\"stage\": \"map\""));
        assert!(s.contains("\"map.matches_tried\": 42"));
        assert!(s.contains("\"peak_live_nodes\": 99"));
        assert!(s.contains("\"peak_alloc_bytes\": 4096"));
        assert!(s.contains("\"alloc_bytes\": 2048"));
    }

    #[test]
    fn metric_json_expands_histograms() {
        let reg = obs::Registry::new();
        reg.hist_record("t.sizes", 2.0);
        reg.hist_record("t.sizes", 6.0);
        reg.counter_add("t.hits", 3);
        let snap = reg.snapshot();
        let s = snapshot_json(&snap).to_string_pretty();
        assert!(s.contains("\"t.hits\": 3"));
        assert!(s.contains("\"count\": 2"));
        assert!(s.contains("\"mean\": 4"));
        assert!(s.contains("\"p50\""));
        assert!(s.contains("\"p99\""));
    }

    #[test]
    fn observe_live_nodes_keeps_max() {
        let mut t = FlowTelemetry::default();
        t.observe_live_nodes(10);
        t.observe_live_nodes(4);
        assert_eq!(t.peak_live_nodes, 10);
    }
}
