//! What every workload shares: the run configuration, the measurements
//! of an untraced run and how they become the end-to-end metrics, the
//! output checks, and the result line the driver reads.

use crate::metrics::{Metric, END_TO_END};
use crate::stats::{median, percentile};
use casyn_obs::json::JsonValue;
use std::path::PathBuf;

/// The five workloads. `why` is the one-line reason in `BENCHMARK.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SplaEdge,
    PaperCold,
    KLadder,
    ServeCold,
    ServeWarm,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::SplaEdge,
        Workload::PaperCold,
        Workload::KLadder,
        Workload::ServeCold,
        Workload::ServeWarm,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SplaEdge => "spla_edge",
            Workload::PaperCold => "paper_cold",
            Workload::KLadder => "k_ladder",
            Workload::ServeCold => "serve_cold",
            Workload::ServeWarm => "serve_warm",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Input sizes: the paper's, or a few percent of them for the smoke test
/// that pushes every workload through the same code in seconds. Only the
/// test builds a [`Config`] with `Tiny`; no command-line option does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Paper,
    #[cfg_attr(not(test), allow(dead_code))]
    Tiny,
}

/// Where a run's trace file and server state and the suite's result
/// file go, relative to the repo root the benchmark runs from.
pub const OUT_DIR: &str = "benchmark/out";

/// One run of one workload.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    /// How long the timed work repeats, in seconds.
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    /// [`OUT_DIR`], or the smoke test's temporary directory.
    pub out_dir: PathBuf,
}

/// How many times an untraced run sets up, so `setup_s` is a median.
pub const SETUP_REPS: usize = 3;

/// The quality columns of one result row (one flow, or one K of a job).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Row {
    pub k: f64,
    pub cells: usize,
    pub cell_area: f64,
    pub violations: usize,
    pub wirelength: f64,
    pub critical: f64,
}

impl Row {
    /// The row of one flow result at `k`.
    pub fn of(k: f64, r: &casyn_flow::FlowResult) -> Row {
        Row {
            k,
            cells: r.num_cells,
            cell_area: r.cell_area,
            violations: r.route.violations,
            wirelength: r.route.total_wirelength,
            critical: r.sta.critical_arrival(),
        }
    }
}

/// Output checks: every failed one is kept, any makes the run incorrect.
#[derive(Debug, Default)]
pub struct Checks {
    pub failures: Vec<String>,
}

impl Checks {
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }
}

/// Whether the timed work goes on after `walls` (one wall per repetition
/// so far): until the next repetition would end further from `seconds`
/// than this one did, so the measured time is `seconds` to within half a
/// repetition rather than up to a whole one over.
pub fn goes_on(seconds: f64, walls: &[f64]) -> bool {
    match walls.last() {
        None => true,
        Some(last) => walls.iter().sum::<f64>() + last / 2.0 < seconds,
    }
}

/// One repetition of the timed work: a closed-loop round of jobs on the
/// serve workloads, a single job (one call of the flow) on the others.
pub struct Round {
    pub wall_s: f64,
    /// Latency of every job of the round that completed, in milliseconds.
    pub job_ms: Vec<f64>,
}

/// What an untraced run measured.
pub struct Timed {
    /// Wall of each complete set-up, in seconds.
    pub setup_s: Vec<f64>,
    pub rounds: Vec<Round>,
    /// Jobs attempted and jobs failed or refused.
    pub attempted: u64,
    pub failed: u64,
    /// The result rows of the first round, in the order of its designs.
    pub rows: Vec<Row>,
    pub peak_rss_mb: f64,
}

impl Timed {
    /// The end-to-end metrics, in the order of [`END_TO_END`].
    pub fn metrics(&self) -> Vec<Metric> {
        let walls: Vec<f64> = self.rounds.iter().map(|r| r.wall_s).collect();
        let job_ms: Vec<f64> = self.rounds.iter().flat_map(|r| r.job_ms.iter().copied()).collect();
        let per_row =
            |f: fn(&Row) -> f64| self.rows.iter().map(f).sum::<f64>() / self.rows.len() as f64;
        END_TO_END
            .iter()
            .map(|m| {
                let value = match m.name {
                    "setup_s" => median(&self.setup_s),
                    "wall_s" => median(&walls),
                    "jobs_per_s" => job_ms.len() as f64 / walls.iter().sum::<f64>(),
                    "job_p50_ms" => percentile(&job_ms, 50.0),
                    "job_p95_ms" => percentile(&job_ms, 95.0),
                    "peak_rss_mb" => self.peak_rss_mb,
                    "cell_area_um2" => per_row(|r| r.cell_area),
                    "routed_wl_um" => per_row(|r| r.wirelength),
                    "critical_ns" => per_row(|r| r.critical),
                    other => unreachable!("end-to-end metric {other} has no definition"),
                };
                Metric { name: m.name, unit: m.unit, value }
            })
            .collect()
    }
}

/// `VmHWM` of this process in MB (0 where `/proc` is not available).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The result of one run: what the last line of standard output says.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// The output checks that failed.
    pub failures: Vec<String>,
}

/// The driver's result object: exactly `correct`, `attempted`, `failed`
/// and `metrics`, each metric a `{value, unit}` under its name.
pub fn result_json<'a>(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: impl Iterator<Item = (&'a str, f64, &'a str)>,
) -> JsonValue {
    let metrics = metrics.map(|(name, value, unit)| {
        let m = JsonValue::object(vec![
            ("value".into(), JsonValue::Number(value)),
            ("unit".into(), JsonValue::Str(unit.into())),
        ]);
        (name.to_string(), m)
    });
    JsonValue::object(vec![
        ("correct".into(), JsonValue::Bool(correct)),
        ("attempted".into(), JsonValue::Number(attempted as f64)),
        ("failed".into(), JsonValue::Number(failed as f64)),
        ("metrics".into(), JsonValue::object(metrics.collect())),
    ])
}

impl Outcome {
    /// The last line of a run's standard output.
    pub fn result_line(&self) -> String {
        let metrics = self.metrics.iter().map(|m| (m.name, m.value, m.unit));
        result_json(self.correct, self.attempted, self.failed, metrics).to_string_compact()
    }
}
