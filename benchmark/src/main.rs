//! The casyn benchmark: five workloads, nine end-to-end metrics, and the
//! per-layer metrics that explain them. See `README.md`.
//!
//! ```text
//! casyn-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one run; the last line of standard output is the result object
//! casyn-benchmark [suite] [--seed <n>] [--runs <r>] [--seconds <s>]
//!     every workload in its own child process, untraced then traced
//! casyn-benchmark agree <a.json> <b.json>
//!     compares two suite result files under the metrics' bounds
//! ```

mod designs;
mod gen;
mod metrics;
mod report;
mod run;
mod service;
mod stats;
mod trace;

use run::{Config, Outcome, Scale, Workload, OUT_DIR};
use std::path::PathBuf;
use std::process::ExitCode;

/// Seed of a suite run when none is given.
const DEFAULT_SEED: u64 = 11;
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: u64 = 10;

/// One run of one workload, traced or not.
fn run_workload(cfg: &Config) -> Outcome {
    match (cfg.workload, cfg.trace) {
        (Workload::ServeCold | Workload::ServeWarm, false) => service::run_untraced(cfg),
        (Workload::ServeCold | Workload::ServeWarm, true) => service::run_traced(cfg),
        (_, false) => designs::run_untraced(cfg),
        (_, true) => designs::run_traced(cfg),
    }
}

/// `--key value` pairs after the positional arguments.
struct Args {
    positional: Vec<String>,
    flags: Vec<(String, String)>,
}

impl Args {
    fn parse(argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args { positional: Vec::new(), flags: Vec::new() };
        let mut argv = argv.peekable();
        while let Some(a) = argv.next() {
            match a.strip_prefix("--") {
                Some(key) => {
                    let value = argv.next().ok_or(format!("--{key} needs a value"))?;
                    args.flags.push((key.to_string(), value));
                }
                None => args.positional.push(a),
            }
        }
        Ok(args)
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.flags.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    fn number(&self, key: &str, default: u64) -> Result<u64, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key} takes a whole number, got `{v}`")),
        }
    }

    fn check_known(&self, known: &[&str]) -> Result<(), String> {
        match self.flags.iter().find(|(k, _)| !known.contains(&k.as_str())) {
            Some((k, _)) => Err(format!("unknown option --{k}")),
            None => Ok(()),
        }
    }
}

fn main_inner() -> Result<ExitCode, String> {
    // the placer backend is the program's default, whatever the caller's
    // environment says
    std::env::remove_var("CASYN_PLACER");
    let args = Args::parse(std::env::args().skip(1))?;
    if let Some(name) = args.get("workload") {
        args.check_known(&["workload", "seed", "seconds", "trace"])?;
        let cfg = Config {
            workload: Workload::parse(name).ok_or(format!("unknown workload `{name}`"))?,
            seed: args.number("seed", DEFAULT_SEED)?,
            seconds: args.number("seconds", DEFAULT_SECONDS)? as f64,
            trace: args.number("trace", 0)? != 0,
            scale: Scale::Paper,
            out_dir: PathBuf::from(OUT_DIR),
        };
        let outcome = run_workload(&cfg);
        for f in &outcome.failures {
            eprintln!("check failed: {f}");
        }
        for m in &outcome.metrics {
            println!("{:<26} {:>16.4} {}", m.name, m.value, m.unit);
        }
        println!("{}", outcome.result_line());
        return Ok(ExitCode::SUCCESS);
    }
    match args.positional.first().map(String::as_str) {
        None | Some("suite") => {
            args.check_known(&["seed", "runs", "seconds"])?;
            report::suite(&report::SuiteArgs {
                seed: args.number("seed", DEFAULT_SEED)?,
                runs: args.number("runs", 1)?.max(1) as usize,
                seconds: args.number("seconds", DEFAULT_SECONDS)?,
            })?;
            Ok(ExitCode::SUCCESS)
        }
        Some("agree") => {
            args.check_known(&[])?;
            let [_, a, b] = args.positional.as_slice() else {
                return Err("usage: casyn-benchmark agree <a.json> <b.json>".into());
            };
            let (regressed, unresolved) = report::agree(a.as_ref(), b.as_ref())?;
            Ok(match (regressed, unresolved) {
                (0, 0) => ExitCode::SUCCESS,
                (0, _) => ExitCode::from(2),
                _ => ExitCode::FAILURE,
            })
        }
        Some(other) => {
            Err(format!("unknown command `{other}` (suite, agree, or --workload <name>)"))
        }
    }
}

fn main() -> ExitCode {
    main_inner().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{END_TO_END, PER_LAYER};
    use casyn_obs::json::JsonValue;

    #[test]
    fn same_seed_same_text_other_seed_other_text() {
        use gen::{Rng, TwoLevel, SMALL, SPLA};
        let pla = |seed| TwoLevel::generate(SPLA.scaled(4), &mut Rng::stream(seed, 1)).to_pla();
        let blif = |seed| TwoLevel::generate(SMALL, &mut Rng::stream(seed, 1)).to_blif("d");
        assert_eq!(pla(11), pla(11));
        assert_ne!(pla(11), pla(12));
        assert_eq!(blif(11), blif(11));
        assert_ne!(blif(11), blif(12));
        // streams of one seed are independent designs, not one sequence of
        // draws read from places a few draws apart
        let stream = |s| TwoLevel::generate(SMALL, &mut Rng::stream(11, s)).to_blif("d");
        assert_ne!(stream(1), stream(2));
        let draws = |s| {
            let mut r = Rng::stream(1, s);
            (0..8).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        for later in 1001..1004 {
            let (a, b) = (draws(1000), draws(later));
            assert!((1..4).all(|shift| a[shift..] != b[..8 - shift]));
        }
    }

    #[test]
    fn generated_text_parses_to_the_declared_shape() {
        use casyn_flow::{parse_design, DesignFormat};
        use gen::{Rng, TwoLevel, SMALL};
        let design = TwoLevel::generate(SMALL, &mut Rng::stream(5, 0));
        let from_pla =
            parse_design(&design.to_pla(), DesignFormat::Pla, "p").expect("pla parses").core;
        let from_blif =
            parse_design(&design.to_blif("d"), DesignFormat::Blif, "b").expect("blif parses").core;
        assert_eq!(from_pla.inputs().len(), SMALL.inputs);
        assert_eq!(from_blif.outputs().len(), SMALL.outputs);
        // both serialisations describe one function
        for v in gen::vectors(SMALL.inputs, 64, &mut Rng::stream(6, 0)) {
            assert_eq!(from_pla.simulate_outputs(&v), from_blif.simulate_outputs(&v));
        }
    }

    /// `BENCHMARK.json` is the contract with the driver; the tables in
    /// `metrics.rs` are what the code reports. They must say the same.
    #[test]
    fn benchmark_json_mirrors_the_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = JsonValue::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json reads"))
            .expect("BENCHMARK.json parses");
        let list = |key: &str| doc.get(key).and_then(|v| v.as_array()).expect("a list").to_vec();
        let text = |v: &JsonValue, key: &str| {
            v.get(key).and_then(|s| s.as_str()).expect("a string").to_string()
        };
        let better = |b: stats::Better| if b == stats::Better::Lower { "lower" } else { "higher" };
        let e2e: Vec<_> = list("end_to_end")
            .iter()
            .map(|m| {
                (
                    text(m, "name"),
                    text(m, "unit"),
                    text(m, "better"),
                    m.get("bound").and_then(|b| b.as_f64()),
                )
            })
            .collect();
        let want: Vec<_> = END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    better(m.better).to_string(),
                    Some(m.bound),
                )
            })
            .collect();
        assert_eq!(e2e, want);
        let layers: Vec<_> = list("per_layer")
            .iter()
            .map(|m| (text(m, "name"), text(m, "unit"), text(m, "better")))
            .collect();
        let want: Vec<_> = PER_LAYER
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string(), better(m.better).to_string()))
            .collect();
        assert_eq!(layers, want);
        let names: Vec<_> = list("workloads").iter().map(|w| text(w, "name")).collect();
        assert_eq!(names, Workload::ALL.map(|w| w.name().to_string()));
        assert_eq!(doc.get("run_seconds").and_then(|v| v.as_f64()), Some(DEFAULT_SECONDS as f64));
    }

    /// Every workload and its traced pass through the same code as the
    /// real runs, at a few percent of the size.
    #[test]
    fn tiny_smoke_runs_all_workloads_and_traced_passes() {
        let out_dir =
            std::env::temp_dir().join(format!("casyn-benchmark-test-{}", std::process::id()));
        for workload in Workload::ALL {
            for trace in [false, true] {
                let cfg = Config {
                    workload,
                    seed: 3,
                    seconds: 0.2,
                    trace,
                    scale: Scale::Tiny,
                    out_dir: out_dir.clone(),
                };
                let outcome = run_workload(&cfg);
                assert!(
                    outcome.correct,
                    "{} trace={trace}: {:?}",
                    workload.name(),
                    outcome.failures
                );
                assert_eq!(outcome.failed, 0);
                let names: Vec<&str> = outcome.metrics.iter().map(|m| m.name).collect();
                if trace {
                    assert_eq!(names, PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>());
                    assert!(out_dir.join(format!("trace.{}.json", workload.name())).exists());
                } else {
                    assert_eq!(names, END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>());
                    for m in &outcome.metrics {
                        assert!(m.value.is_finite() && m.value > 0.0, "{} = {}", m.name, m.value);
                    }
                }
                for m in &outcome.metrics {
                    assert!(m.value.is_finite(), "{} {} is not finite", workload.name(), m.name);
                }
                let back = report::RunResult::parse(3, &outcome.result_line())
                    .expect("result line parses");
                assert_eq!(back.metrics.len(), outcome.metrics.len());
            }
        }
        let _ = std::fs::remove_dir_all(&out_dir);
    }
}
