//! The whole-suite command and the comparison of two of its result
//! files.
//!
//! `suite` runs every workload in a child process of its own — untraced
//! with the program's metrics and tracing left off, then once traced —
//! prints every metric by name with its unit, and writes one result
//! file. `agree` compares two result files metric by metric under the
//! bounds of [`END_TO_END`].

use crate::metrics::{END_TO_END, PER_LAYER};
use crate::run::{result_json, Workload, OUT_DIR};
use crate::stats::{compare, median, spread, worsening, Verdict};
use casyn_obs::json::JsonValue;
use std::path::Path;
use std::process::Command;

pub const RESULT_SCHEMA: &str = "casyn.benchmark.result.v1";

/// What `suite` runs.
pub struct SuiteArgs {
    pub seed: u64,
    /// Untraced runs per workload, on seeds `seed`, `seed + 1`, ...
    pub runs: usize,
    pub seconds: u64,
}

/// One child's result line, parsed.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    pub seed: u64,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in the order printed.
    pub metrics: Vec<(String, f64, String)>,
}

impl RunResult {
    /// Parses the driver's result object (the last line a run prints).
    pub fn parse(seed: u64, line: &str) -> Result<RunResult, String> {
        let doc = JsonValue::parse(line).map_err(|e| format!("result line is not JSON: {e}"))?;
        RunResult::from_json(seed, &doc)
    }

    fn from_json(seed: u64, doc: &JsonValue) -> Result<RunResult, String> {
        let num = |key: &str| doc.get(key).and_then(|v| v.as_f64()).ok_or(format!("no `{key}`"));
        let JsonValue::Object(entries) = doc.get("metrics").ok_or("no `metrics`")? else {
            return Err("`metrics` is not an object".into());
        };
        let metrics = entries
            .iter()
            .map(|(name, m)| {
                let value = m.get("value").and_then(|v| v.as_f64());
                let unit = m.get("unit").and_then(|v| v.as_str());
                match (value, unit) {
                    (Some(v), Some(u)) => Ok((name.clone(), v, u.to_string())),
                    _ => Err(format!("metric `{name}` lacks a value or a unit")),
                }
            })
            .collect::<Result<_, String>>()?;
        Ok(RunResult {
            seed,
            correct: doc.get("correct").and_then(|v| v.as_bool()).ok_or("no `correct`")?,
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
            metrics,
        })
    }

    /// The result object with the run's seed in front.
    fn to_json(&self) -> JsonValue {
        let metrics = self.metrics.iter().map(|(n, v, u)| (n.as_str(), *v, u.as_str()));
        let JsonValue::Object(mut doc) =
            result_json(self.correct, self.attempted, self.failed, metrics)
        else {
            unreachable!("the result object is an object")
        };
        doc.insert(0, ("seed".into(), JsonValue::Number(self.seed as f64)));
        JsonValue::Object(doc)
    }

    fn value(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _, _)| n == name).map(|(_, v, _)| *v)
    }
}

/// Every run of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadResult {
    pub name: String,
    pub runs: Vec<RunResult>,
    pub traced: Option<RunResult>,
}

impl WorkloadResult {
    /// The values of end-to-end metric `name` over the untraced runs.
    fn samples(&self, name: &str) -> Vec<f64> {
        self.runs.iter().filter_map(|r| r.value(name)).collect()
    }
}

/// A suite result file: where and how it was measured, then the runs.
#[derive(Debug, Clone, PartialEq)]
pub struct SuiteResult {
    /// `git_commit`, `rustc`, `nproc`, `seed`, `runs`, `seconds`.
    pub header: Vec<(String, String)>,
    pub workloads: Vec<WorkloadResult>,
}

impl SuiteResult {
    pub fn to_json(&self) -> JsonValue {
        let header = self.header.iter().map(|(k, v)| (k.clone(), JsonValue::Str(v.clone())));
        let workloads = self.workloads.iter().map(|w| {
            // timing samples behind each workload's medians: jobs completed
            let samples: Vec<JsonValue> =
                w.runs.iter().map(|r| JsonValue::Number((r.attempted - r.failed) as f64)).collect();
            JsonValue::object(vec![
                ("name".into(), JsonValue::Str(w.name.clone())),
                ("samples".into(), JsonValue::Array(samples)),
                ("runs".into(), JsonValue::Array(w.runs.iter().map(RunResult::to_json).collect())),
                ("traced".into(), w.traced.as_ref().map_or(JsonValue::Null, RunResult::to_json)),
            ])
        });
        JsonValue::object(vec![
            ("schema".into(), JsonValue::Str(RESULT_SCHEMA.into())),
            ("header".into(), JsonValue::object(header.collect())),
            ("workloads".into(), JsonValue::Array(workloads.collect())),
        ])
    }

    pub fn parse(text: &str) -> Result<SuiteResult, String> {
        let doc = JsonValue::parse(text).map_err(|e| e.to_string())?;
        if doc.get("schema").and_then(|s| s.as_str()) != Some(RESULT_SCHEMA) {
            return Err(format!("not a {RESULT_SCHEMA} document"));
        }
        let JsonValue::Object(header) = doc.get("header").ok_or("no `header`")? else {
            return Err("`header` is not an object".into());
        };
        let header =
            header.iter().map(|(k, v)| (k.clone(), v.as_str().unwrap_or_default().to_string()));
        let run = |doc: &JsonValue| {
            let seed = doc.get("seed").and_then(|v| v.as_f64()).ok_or("run without `seed`")?;
            RunResult::from_json(seed as u64, doc)
        };
        let workloads = doc
            .get("workloads")
            .and_then(|w| w.as_array())
            .ok_or("no `workloads`")?
            .iter()
            .map(|w| {
                let name = w.get("name").and_then(|n| n.as_str()).ok_or("workload without name")?;
                let runs =
                    w.get("runs").and_then(|r| r.as_array()).ok_or("workload without runs")?;
                Ok(WorkloadResult {
                    name: name.to_string(),
                    runs: runs.iter().map(run).collect::<Result<_, String>>()?,
                    traced: match w.get("traced") {
                        None | Some(JsonValue::Null) => None,
                        Some(t) => Some(run(t)?),
                    },
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(SuiteResult { header: header.collect(), workloads })
    }
}

/// First line of a command's standard output, or `unknown`.
fn probe(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// Runs one workload once in a child process and parses its last line.
fn child(
    args: &SuiteArgs,
    workload: Workload,
    seed: u64,
    trace: bool,
) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload.name(), "--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string(), "--trace", if trace { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {} run: {e}", workload.name()))?;
    if !out.status.success() {
        return Err(format!("the {} run exited with {}", workload.name(), out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    RunResult::parse(seed, stdout.lines().last().ok_or("the run printed nothing")?)
}

/// Runs the suite, prints every metric, writes `result.json` under the
/// output directory. `Err` when a run failed or an output check did.
pub fn suite(args: &SuiteArgs) -> Result<(), String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut result = SuiteResult {
        header: vec![
            ("git_commit".into(), probe("git", &["rev-parse", "HEAD"])),
            ("rustc".into(), probe("rustc", &["-V"])),
            ("nproc".into(), nproc.to_string()),
            ("seed".into(), args.seed.to_string()),
            ("runs".into(), args.runs.to_string()),
            ("seconds".into(), args.seconds.to_string()),
        ],
        workloads: Vec::new(),
    };
    for workload in Workload::ALL {
        let mut runs = Vec::new();
        for r in 0..args.runs as u64 {
            eprintln!("[suite] {} seed {} untraced", workload.name(), args.seed + r);
            runs.push(child(args, workload, args.seed + r, false)?);
        }
        eprintln!("[suite] {} seed {} traced", workload.name(), args.seed);
        let traced = Some(child(args, workload, args.seed, true)?);
        result.workloads.push(WorkloadResult { name: workload.name().into(), runs, traced });
    }
    print_suite(&result);
    std::fs::create_dir_all(OUT_DIR)
        .map_err(|e| format!("cannot create the output directory: {e}"))?;
    let path = Path::new(OUT_DIR).join("result.json");
    std::fs::write(&path, result.to_json().to_string_pretty())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("\nwrote {}", path.display());
    let all = result.workloads.iter().flat_map(|w| w.runs.iter().chain(&w.traced));
    if all.clone().all(|r| r.correct && r.failed == 0) {
        Ok(())
    } else {
        Err("an output check failed or an operation failed (see the runs above)".into())
    }
}

fn print_suite(result: &SuiteResult) {
    for (k, v) in &result.header {
        println!("{k:<12} {v}");
    }
    for w in &result.workloads {
        let jobs: Vec<String> =
            w.runs.iter().map(|r| (r.attempted - r.failed).to_string()).collect();
        let ok = w.runs.iter().chain(&w.traced).all(|r| r.correct);
        println!(
            "\n== {} == checks {} | failed {} of {} | jobs per run: {}",
            w.name,
            if ok { "pass" } else { "FAIL" },
            w.runs.iter().map(|r| r.failed).sum::<u64>(),
            w.runs.iter().map(|r| r.attempted).sum::<u64>(),
            jobs.join(" ")
        );
        for m in END_TO_END {
            let v = w.samples(m.name);
            if v.is_empty() {
                continue;
            }
            // over the seeds, against the bound it has to stay inside
            let spread = spread(&v).map_or(String::new(), |s| {
                format!("  spread {:.1}% of {:.0}%", 100.0 * s, 100.0 * m.bound)
            });
            println!("  {:<26} {:>14.4} {:<6} n={}{spread}", m.name, median(&v), m.unit, v.len());
        }
        if let Some(t) = &w.traced {
            for (name, value, unit) in &t.metrics {
                println!("  {name:<26} {value:>14.4} {unit}");
            }
        }
    }
}

fn read_result(path: &Path) -> Result<SuiteResult, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    SuiteResult::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Compares result file `b` against base `a`, run by run of the same
/// seed: one row per workload and end-to-end metric with the medians over
/// the shared seeds, their count, the median share by which `b`'s run is
/// worse than `a`'s of the same seed, the spread of those shares, and the
/// verdict under the metric's bound for one seed; then the per-layer
/// metrics side by side, which explain and do not gate. Returns the number
/// of regressed and of unresolved rows.
pub fn agree(a: &Path, b: &Path) -> Result<(usize, usize), String> {
    let (base, new) = (read_result(a)?, read_result(b)?);
    let (mut regressed, mut unresolved) = (0, 0);
    println!(
        "{:<11} {:<14} {:>13} {:>13} {:>5} {:>8} {:>7} {:>6}  verdict",
        "workload", "metric", "base median", "new median", "seeds", "worse", "spread", "bound"
    );
    let pct = |x: Option<f64>| x.map_or("-".to_string(), |s| format!("{:.1}%", 100.0 * s));
    for wa in &base.workloads {
        let wb = new.workloads.iter().find(|w| w.name == wa.name);
        let wb = wb.ok_or(format!("{} is missing from {}", wa.name, b.display()))?;
        // the runs both files made of one seed, and so of one set of inputs
        let pairs: Vec<(&RunResult, &RunResult)> = wa
            .runs
            .iter()
            .filter_map(|ra| Some((ra, wb.runs.iter().find(|rb| rb.seed == ra.seed)?)))
            .collect();
        if pairs.is_empty() {
            return Err(format!("{}: the two files share no seed", wa.name));
        }
        for m in END_TO_END {
            let values: Option<Vec<(f64, f64)>> =
                pairs.iter().map(|(ra, rb)| Some((ra.value(m.name)?, rb.value(m.name)?))).collect();
            let values =
                values.ok_or(format!("{} has no {} in one of the files", wa.name, m.name))?;
            let (va, vb): (Vec<f64>, Vec<f64>) = values.into_iter().unzip();
            let c = compare(&va, &vb, m.better, m.same_seed_bound);
            match c.verdict {
                Verdict::Regressed => regressed += 1,
                Verdict::Unresolved => unresolved += 1,
                Verdict::Agree => {}
            }
            println!(
                "{:<11} {:<14} {:>13.4} {:>13.4} {:>5} {:>8} {:>7} {:>6}  {}",
                wa.name,
                m.name,
                median(&va),
                median(&vb),
                pairs.len(),
                pct(Some(c.worse)),
                pct(c.spread),
                pct(Some(m.same_seed_bound)),
                c.verdict.as_str()
            );
        }
        let bad =
            |w: &WorkloadResult| w.runs.iter().chain(&w.traced).any(|r| !r.correct || r.failed > 0);
        if bad(wb) && !bad(wa) {
            println!(
                "{:<11} output checks or operations fail in the new file only  REGRESSED",
                wa.name
            );
            regressed += 1;
        }
    }
    println!("\nper-layer (traced run; explains, does not gate)");
    for wa in &base.workloads {
        let wb = new.workloads.iter().find(|w| w.name == wa.name);
        let (Some(ta), Some(tb)) = (&wa.traced, wb.and_then(|w| w.traced.as_ref())) else {
            continue;
        };
        for m in PER_LAYER {
            let (Some(x), Some(y)) = (ta.value(m.name), tb.value(m.name)) else { continue };
            if x == 0.0 && y == 0.0 {
                continue;
            }
            let note =
                if x == y { "same".to_string() } else { pct(Some(worsening(x, y, m.better))) };
            println!("{:<11} {:<26} {:>14.4} {:>14.4} {:<6} {note}", wa.name, m.name, x, y, m.unit);
        }
    }
    println!("\n{regressed} regressed, {unresolved} unresolved");
    Ok((regressed, unresolved))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_file_round_trips() {
        let run = |seed, wall| RunResult {
            seed,
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![
                ("wall_s".into(), wall, "s".into()),
                ("setup_s".into(), 0.25, "s".into()),
            ],
        };
        let result = SuiteResult {
            header: vec![("rustc".into(), "rustc 1.0".into()), ("seed".into(), "11".into())],
            workloads: vec![WorkloadResult {
                name: "k_ladder".into(),
                runs: vec![run(11, 5.8125), run(12, 6.0)],
                traced: Some(run(11, 0.5)),
            }],
        };
        let text = result.to_json().to_string_pretty();
        assert_eq!(SuiteResult::parse(&text).expect("parses"), result);
        assert_eq!(result.workloads[0].samples("wall_s"), vec![5.8125, 6.0]);
        assert!(SuiteResult::parse("{\"schema\":\"other\"}").is_err());
    }

    #[test]
    fn result_line_round_trips() {
        let line = r#"{"correct":true,"attempted":1000,"failed":2,"metrics":{"latency_ms":{"value":1.2034,"unit":"ms"}}}"#;
        let r = RunResult::parse(7, line).expect("parses");
        assert_eq!((r.seed, r.correct, r.attempted, r.failed), (7, true, 1000, 2));
        assert_eq!(r.metrics, vec![("latency_ms".to_string(), 1.2034, "ms".to_string())]);
        assert!(RunResult::parse(7, "{}").is_err());
    }
}
