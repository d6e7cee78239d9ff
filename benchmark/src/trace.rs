//! In-memory spans recorded *around* calls into the program's layers.
//! The program itself is not instrumented: a span is opened by the
//! benchmark before it calls a layer's public function and closed when
//! the call returns. Spans are kept in memory and written out once, when
//! the traced run ends.

use crate::stats::median;
use casyn_obs::json::JsonValue;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Index of this span in the recorder.
    pub id: usize,
    /// The span that caused this one (`None` for a root).
    pub parent: Option<usize>,
    /// `layer.operation`, e.g. `route.route_mapped`.
    pub name: String,
    /// Shared by every span of one flow or one HTTP job.
    pub flow: String,
    /// Microseconds since the recorder was created.
    pub start_us: f64,
    pub end_us: f64,
    /// Counts taken at the same boundary (work done, sizes).
    pub counts: Vec<(String, f64)>,
}

impl Span {
    pub fn dur_ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }
}

/// A thread-safe span store. Recording one span costs one clock read at
/// each end and a short lock at the end.
pub struct Recorder {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder { origin: Instant::now(), spans: Mutex::new(Vec::new()) }
    }
}

impl Recorder {
    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans.lock().expect("a recording thread panicked")
    }

    /// Opens a span; it gets its id (and becomes visible) at once so
    /// children can name it as their parent, and its end when closed.
    pub fn open(&self, parent: Option<usize>, name: &str, flow: &str) -> usize {
        let start_us = self.now_us();
        let mut spans = self.lock();
        let id = spans.len();
        spans.push(Span {
            id,
            parent,
            name: name.to_string(),
            flow: flow.to_string(),
            start_us,
            end_us: start_us,
            counts: Vec::new(),
        });
        id
    }

    /// Closes span `id` with the counts taken at its boundary.
    pub fn close(&self, id: usize, counts: &[(&str, f64)]) {
        let end_us = self.now_us();
        let mut spans = self.lock();
        spans[id].end_us = end_us;
        spans[id].counts = counts.iter().map(|(k, v)| (k.to_string(), *v)).collect();
    }

    /// Adds a count to a closed span: one that takes work to compute,
    /// which must not pass for time of the call the span measures.
    pub fn annotate(&self, id: usize, key: &str, value: f64) {
        self.lock()[id].counts.push((key.to_string(), value));
    }

    pub fn spans(&self) -> Vec<Span> {
        self.lock().clone()
    }

    /// Durations (ms) of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.lock().iter().filter(|s| s.name == name).map(Span::dur_ms).collect()
    }

    /// Median duration (ms) of the spans called `name`; 0 when there is
    /// none (the layer is not on this workload's path).
    pub fn median_ms(&self, name: &str) -> f64 {
        let d = self.durations_ms(name);
        if d.is_empty() {
            0.0
        } else {
            median(&d)
        }
    }

    /// Count `key` of every span called `name`, in recording order.
    pub fn counts(&self, name: &str, key: &str) -> Vec<f64> {
        let spans = self.lock();
        let of = |s: &Span| s.counts.iter().find(|(k, _)| k == key).map(|(_, v)| *v);
        spans.iter().filter(|s| s.name == name).filter_map(of).collect()
    }

    /// Writes the spans to `<dir>/trace.<workload>.json`.
    pub fn write(&self, dir: &Path, workload: &str, seed: u64) {
        let doc = to_json(workload, seed, &self.spans());
        std::fs::create_dir_all(dir).expect("the output directory can be created");
        std::fs::write(dir.join(format!("trace.{workload}.json")), doc.to_string_compact())
            .expect("the trace file can be written");
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children — concurrent
/// clients under one root — are merged first, so no instant counts
/// twice). Indexed like `spans`.
pub fn self_times_ms(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_us, s.end_us));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = s.start_us;
            for (a, b) in kids {
                let a = a.max(reach);
                let b = b.min(s.end_us);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_us - s.start_us - covered) / 1e3
        })
        .collect()
}

/// The trace document written at the end of a traced run.
pub fn to_json(workload: &str, seed: u64, spans: &[Span]) -> JsonValue {
    let self_ms = self_times_ms(spans);
    let rows = spans
        .iter()
        .zip(&self_ms)
        .map(|(s, &own)| {
            JsonValue::object(vec![
                ("id".into(), JsonValue::Number(s.id as f64)),
                (
                    "parent".into(),
                    s.parent.map_or(JsonValue::Null, |p| JsonValue::Number(p as f64)),
                ),
                ("name".into(), JsonValue::Str(s.name.clone())),
                ("flow".into(), JsonValue::Str(s.flow.clone())),
                ("start_us".into(), JsonValue::Number(s.start_us)),
                ("end_us".into(), JsonValue::Number(s.end_us)),
                ("self_ms".into(), JsonValue::Number(own)),
                (
                    "counts".into(),
                    JsonValue::object(
                        s.counts.iter().map(|(k, v)| (k.clone(), JsonValue::Number(*v))).collect(),
                    ),
                ),
            ])
        })
        .collect();
    JsonValue::object(vec![
        ("schema".into(), JsonValue::Str("casyn.benchmark.trace.v1".into())),
        ("workload".into(), JsonValue::Str(workload.into())),
        ("seed".into(), JsonValue::Number(seed as f64)),
        ("spans".into(), JsonValue::Array(rows)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start_us: f64, end_us: f64) -> Span {
        Span {
            id,
            parent,
            name: format!("s{id}"),
            flow: "f".into(),
            start_us,
            end_us,
            counts: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_merged_children() {
        let spans = vec![
            span(0, None, 0.0, 10_000.0),
            span(1, Some(0), 1_000.0, 4_000.0),
            // overlaps span 1: the union covers 1..6 ms, not 3 + 4 ms
            span(2, Some(0), 2_000.0, 6_000.0),
            span(3, Some(2), 2_500.0, 3_000.0),
        ];
        assert_eq!(self_times_ms(&spans), vec![5.0, 3.0, 3.5, 0.5]);
    }

    #[test]
    fn recorder_nests_and_serialises() {
        let rec = Recorder::default();
        let root = rec.open(None, "flow", "k=1");
        let child = rec.open(Some(root), "route.route_mapped", "k=1");
        rec.close(child, &[]);
        rec.close(root, &[("cells", 3.0)]);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(root));
        assert!(spans[0].end_us >= spans[1].end_us);
        assert_eq!(rec.durations_ms("route.route_mapped").len(), 1);
        let doc = to_json("w", 7, &spans);
        let back = JsonValue::parse(&doc.to_string_compact()).expect("trace json parses");
        let rows = back.get("spans").and_then(|v| v.as_array()).expect("spans array");
        assert_eq!(rows.len(), 2);
        assert_eq!(
            rows[0].get("counts").and_then(|c| c.get("cells")).and_then(|v| v.as_f64()),
            Some(3.0)
        );
        assert_eq!(rows[0].get("parent"), Some(&JsonValue::Null));
    }
}
