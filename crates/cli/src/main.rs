//! `casyn` — command-line driver for the congestion-aware synthesis flow.
//!
//! ```text
#![doc = include_str!("help.txt")]
//! ```
//!
//! The batch manifest is a JSON document, either a top-level array of
//! jobs or `{"jobs": [...]}`; every field but `design` is optional:
//!
//! ```json
//! {"jobs": [
//!   {"design": "examples/designs/count8.pla", "ks": [0.0, 0.1, 1.0],
//!    "name": "count8", "util": 0.611, "layers": 3, "optimize": false,
//!    "placer": "kway", "deadline_ms": 60000, "fault_plan": "map:panic:1"}
//! ]}
//! ```
//!
//! `inject_panic: true` is the legacy spelling of
//! `"fault_plan": "decompose:panic:1"`: the job panics on purpose to
//! exercise the pool's panic isolation end to end. Either way the job
//! fails with a typed error in the report and siblings complete.
//!
//! Every document that says what a job produced is built from one
//! [`JobRecord`] per job (the manifest entry that ran, its design hash,
//! its partition scheme, its outcome and one row per K): the
//! `casyn.batch.v1` report `--out` names, the checkpoint the batch keeps
//! there while it runs, the crash bundle `--crash-dir` gets for a failed
//! job (itself a one-record batch document, so `casyn batch <bundle>`
//! replays the failure), and the `casyn.run.v1` ledger record of `map`,
//! `sweep` and `loop`. `--resume` reuses a finished record only when its
//! job ran what the manifest entry asks for now.

use casyn_core::{CostKind, MapOptions, PartitionScheme};
use casyn_exec::{FaultPlan, Pool};
use casyn_flow::batch::{run_batch, run_batch_job, BatchJob, BatchOptions};
use casyn_flow::telemetry::snapshot_json;
use casyn_flow::{
    batch_json, diff_records, file_stem, fnv1a64, format_diff, full_flow, k_sweep_prepared_pool,
    load_design, parse_manifest, prepare_pool, read_batch, run_methodology, safe_stem,
    sequential_flow, DesignFormat, FlowError, FlowOptions, JobParam, JobRecord, KSweepEntry,
    ManifestDefaults, ManifestJob, Row, Stage,
};
use casyn_logic::OptimizeOptions;
use casyn_netlist::verilog::to_verilog;
use casyn_obs as obs;
use casyn_obs::json::JsonValue;
use casyn_route::CongestionMap;
use std::collections::HashMap;
use std::fs;
use std::process::ExitCode;
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// `print!` to a stdout that may be closed: a reader that goes away early
/// (`casyn help | head -1`) must neither panic the command nor stop it
/// before it writes its files.
macro_rules! out {
    ($($arg:tt)*) => {{
        use std::io::Write as _;
        let _ = write!(std::io::stdout(), $($arg)*);
    }};
}

/// [`out!`] with a trailing newline.
macro_rules! outln {
    ($($arg:tt)*) => {{
        use std::io::Write as _;
        let _ = writeln!(std::io::stdout(), $($arg)*);
    }};
}

#[derive(Debug, Clone)]
struct Args {
    command: String,
    input: String,
    /// Second positional input — only the `diff` command takes one.
    input2: String,
    k: f64,
    ks: Vec<f64>,
    scheme: PartitionScheme,
    util: f64,
    layers: usize,
    verilog: Option<String>,
    optimize: bool,
    metrics_out: Option<String>,
    heatmap: Option<String>,
    trace_out: Option<String>,
    route_out: Option<String>,
    audit_out: Option<String>,
    ledger: Option<String>,
    jobs: Option<usize>,
    out: Option<String>,
    validate: bool,
    retries: u32,
    resume: Option<String>,
    fault_plan: Option<FaultPlan>,
    crash_dir: Option<String>,
    listen: String,
    server: Option<String>,
    queue_cap: usize,
    state_dir: Option<String>,
    mem_limit: u64,
    result_wait: u64,
    io_fault_plan: Option<FaultPlan>,
    interval: f64,
    frames: usize,
}

/// Every command `casyn` runs and the number of positional arguments it
/// takes. `parse_args` rejects anything else before a file is read, and
/// `usage` prints this same list.
const COMMANDS: &[(&str, usize)] = &[
    ("map", 1),
    ("sweep", 1),
    ("loop", 1),
    ("batch", 1),
    ("heatmap", 1),
    ("diff", 2),
    ("serve", 0),
    ("submit", 1),
    ("shutdown", 0),
    ("top", 1),
];

/// The commands that run the synthesis flow.
const FLOW: &[&str] = &["map", "sweep", "loop", "batch"];

/// Every option `casyn` reads and the commands that read it. `parse_args`
/// rejects an option on any other command before a file is read;
/// help.txt lists the same options under the same commands.
const OPTIONS: &[(&str, &[&str])] = &[
    ("--k", &["map"]),
    ("--scheme", &["map"]),
    ("--ks", &["sweep", "batch"]),
    ("--util", FLOW),
    ("--layers", FLOW),
    ("--optimize", FLOW),
    ("--validate", FLOW),
    ("--fault-plan", FLOW),
    ("--metrics-out", FLOW),
    ("--trace-out", FLOW),
    ("--verilog", &["map", "loop"]),
    ("--heatmap", &["map", "sweep", "loop"]),
    ("--route-out", &["map", "sweep", "loop"]),
    ("--audit-out", &["map", "sweep", "loop"]),
    ("--ledger", &["map", "sweep", "loop"]),
    ("--jobs", &["map", "sweep", "loop", "batch", "serve"]),
    ("--retries", &["batch", "serve"]),
    ("--out", &["batch"]),
    ("--resume", &["batch"]),
    ("--crash-dir", &["batch"]),
    ("--listen", &["serve"]),
    ("--queue-cap", &["serve"]),
    ("--state-dir", &["serve"]),
    ("--mem-limit", &["serve"]),
    ("--result-wait", &["serve"]),
    ("--io-fault-plan", &["serve"]),
    ("--server", &["submit", "shutdown"]),
    ("--interval", &["top"]),
    ("--frames", &["top"]),
];

/// The option list `casyn help` prints — the same text as the module doc.
const HELP: &str = include_str!("help.txt");

fn usage() -> ExitCode {
    let names: Vec<&str> = COMMANDS.iter().map(|(c, _)| *c).collect();
    eprintln!(
        "usage: casyn <{}> \
         [<design.pla|design.blif|manifest.json|heatmap.json|run.json|host:port>] [options]",
        names.join("|")
    );
    eprintln!("run `casyn help` for the option list");
    ExitCode::FAILURE
}

/// Parses a byte count with an optional binary `k`/`m`/`g` suffix
/// (`--mem-limit 512m`).
fn parse_bytes(s: &str) -> Result<u64, String> {
    let t = s.trim().to_ascii_lowercase();
    let (digits, mult) = if let Some(d) = t.strip_suffix('k') {
        (d, 1u64 << 10)
    } else if let Some(d) = t.strip_suffix('m') {
        (d, 1 << 20)
    } else if let Some(d) = t.strip_suffix('g') {
        (d, 1 << 30)
    } else {
        (t.as_str(), 1)
    };
    let n: u64 = digits.parse().map_err(|e| format!("--mem-limit: {e}"))?;
    n.checked_mul(mult).ok_or_else(|| format!("--mem-limit: {s} overflows"))
}

/// Parses a numeric flag value and range-checks it as the manifest field
/// of the same meaning is checked.
fn number(flag: &str, value: &str, param: JobParam) -> Result<f64, String> {
    let v: f64 = value.parse().map_err(|e| format!("{flag}: {e}"))?;
    param.check(v).map_err(|e| format!("{flag} {e}"))
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let command = argv.first().ok_or("missing command")?;
    let &(_, positionals) = COMMANDS
        .iter()
        .find(|(c, _)| c == command)
        .ok_or_else(|| format!("unknown command: {command}"))?;
    let mut args = Args {
        command: command.clone(),
        input: String::new(),
        input2: String::new(),
        k: 0.5,
        ks: vec![0.0, 0.1, 0.5, 1.0, 5.0],
        scheme: PartitionScheme::PlacementDriven,
        util: 0.611,
        layers: 3,
        verilog: None,
        optimize: false,
        metrics_out: None,
        heatmap: None,
        trace_out: None,
        route_out: None,
        audit_out: None,
        ledger: None,
        jobs: None,
        out: None,
        validate: false,
        retries: 0,
        resume: None,
        fault_plan: None,
        crash_dir: None,
        listen: "127.0.0.1:7878".into(),
        server: None,
        queue_cap: 64,
        state_dir: None,
        mem_limit: 0,
        result_wait: 600,
        io_fault_plan: None,
        interval: 1.0,
        frames: 0,
    };
    let mut inputs: Vec<&String> = Vec::new();
    let mut it = argv[1..].iter();
    while let Some(a) = it.next() {
        if !a.starts_with('-') {
            inputs.push(a);
            continue;
        }
        let (flag, scope) =
            OPTIONS.iter().find(|(f, _)| f == a).ok_or_else(|| format!("unknown option: {a}"))?;
        if !scope.contains(&command.as_str()) {
            return Err(format!("{flag} does not apply to {command}"));
        }
        let mut next = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        match *flag {
            "--k" => args.k = number(flag, &next()?, JobParam::K)?,
            "--ks" => {
                args.ks = next()?
                    .split(',')
                    .map(|s| number(flag, s.trim(), JobParam::K))
                    .collect::<Result<_, _>>()?
            }
            "--scheme" => {
                args.scheme = match next()?.as_str() {
                    "dagon" => PartitionScheme::Dagon,
                    "cone" => PartitionScheme::Cone,
                    "pdp" | "placement-driven" => PartitionScheme::PlacementDriven,
                    other => return Err(format!("unknown scheme: {other}")),
                }
            }
            "--util" => args.util = number(flag, &next()?, JobParam::Util)?,
            "--layers" => args.layers = number(flag, &next()?, JobParam::Layers)? as usize,
            "--verilog" => args.verilog = Some(next()?),
            "--optimize" => args.optimize = true,
            "--metrics-out" => args.metrics_out = Some(next()?),
            "--heatmap" => args.heatmap = Some(next()?),
            "--trace-out" => args.trace_out = Some(next()?),
            "--route-out" => args.route_out = Some(next()?),
            "--audit-out" => args.audit_out = Some(next()?),
            "--ledger" => args.ledger = Some(next()?),
            "--jobs" => {
                let n: usize = next()?.parse().map_err(|e| format!("--jobs: {e}"))?;
                if n == 0 {
                    return Err("--jobs must be at least 1".into());
                }
                args.jobs = Some(n);
            }
            "--out" => args.out = Some(next()?),
            "--validate" => args.validate = true,
            "--retries" => args.retries = next()?.parse().map_err(|e| format!("--retries: {e}"))?,
            "--resume" => args.resume = Some(next()?),
            "--listen" => args.listen = next()?,
            "--server" => args.server = Some(next()?),
            "--queue-cap" => {
                args.queue_cap = next()?.parse().map_err(|e| format!("--queue-cap: {e}"))?
            }
            "--state-dir" => args.state_dir = Some(next()?),
            "--mem-limit" => args.mem_limit = parse_bytes(&next()?)?,
            "--result-wait" => {
                args.result_wait = next()?.parse().map_err(|e| format!("--result-wait: {e}"))?
            }
            "--io-fault-plan" => {
                let plan = FaultPlan::parse(&next()?)?;
                for s in plan.specs() {
                    if !matches!(s.stage.as_str(), "wal" | "cache" | "conn") {
                        return Err(format!(
                            "io fault plan: unknown stage {:?} (expected wal, cache or conn)",
                            s.stage
                        ));
                    }
                }
                args.io_fault_plan = Some(plan);
            }
            "--interval" => {
                let v: f64 = next()?.parse().map_err(|e| format!("--interval: {e}"))?;
                if !v.is_finite() || v <= 0.0 {
                    return Err("--interval must be a positive number of seconds".into());
                }
                args.interval = v;
            }
            "--frames" => args.frames = next()?.parse().map_err(|e| format!("--frames: {e}"))?,
            "--fault-plan" => args.fault_plan = Some(casyn_flow::parse_fault_plan(&next()?)?),
            "--crash-dir" => args.crash_dir = Some(next()?),
            // a row of OPTIONS without an arm here; the option table test
            // parses every row
            other => return Err(format!("unknown option: {other}")),
        }
    }
    if inputs.len() != positionals {
        return Err(format!(
            "{command} takes {positionals} positional argument(s), got {}",
            inputs.len()
        ));
    }
    let mut inputs = inputs.into_iter().cloned();
    args.input = inputs.next().unwrap_or_default();
    args.input2 = inputs.next().unwrap_or_default();
    Ok(args)
}

fn flow_options(args: &Args) -> FlowOptions {
    let mut opts = FlowOptions { target_utilization: args.util, ..Default::default() };
    opts.route.layers = args.layers;
    if args.optimize {
        opts.optimize = Some(OptimizeOptions::default());
    }
    if args.validate {
        opts.validate = true;
    }
    opts.fault = args.fault_plan.as_ref().map(|p| p.fresh());
    opts
}

fn report(r: &casyn_flow::FlowResult) {
    outln!(
        "cells {:>7}   cell area {:>10.1} um^2   utilization {:>5.2}%",
        r.num_cells,
        r.cell_area,
        r.utilization_pct
    );
    outln!(
        "die {:>10.0} um^2   rows {:>4}   routed wirelength {:>10.0} um",
        r.floorplan.die_area(),
        r.floorplan.num_rows,
        r.route.total_wirelength
    );
    outln!(
        "routing violations {:>5}   peak congestion {:>5.1}%   iterations {}",
        r.route.violations,
        100.0 * r.route.congestion.max_util(),
        r.route.iterations
    );
    out!("{}", casyn_flow::format_convergence_sparkline(&r.route.convergence));
    if r.route.violations > 0 {
        out!("{}", casyn_flow::format_audit_table("overflow attribution", &r.route.audit, 8));
    }
    outln!("critical path {} at {:.3} ns", r.sta.critical_endpoints(), r.sta.critical_arrival());
}

/// Writes `text` to `path` and says so.
fn write_out(path: &str, text: &str) -> Result<(), String> {
    fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))?;
    outln!("wrote {path}");
    Ok(())
}

/// Writes the mapped netlist behind `--verilog`.
fn write_verilog(args: &Args, r: &casyn_flow::FlowResult) -> Result<(), String> {
    match &args.verilog {
        Some(path) => write_out(path, &to_verilog(&r.netlist, "casyn_top")),
        None => Ok(()),
    }
}

/// Writes the artifacts behind `--metrics-out` and `--heatmap` from the
/// final flow result of the chosen command (the last sweep row, the
/// converged loop result, ...).
fn write_observability(args: &Args, r: Option<&casyn_flow::FlowResult>) -> Result<(), String> {
    if let Some(path) = &args.metrics_out {
        let mut doc = r
            .map(|r| r.telemetry.to_json())
            .unwrap_or_else(|| casyn_flow::FlowTelemetry::default().to_json());
        if let JsonValue::Object(entries) = &mut doc {
            entries.push(("metrics".into(), snapshot_json(&obs::snapshot())));
        }
        write_out(path, &doc.to_string_pretty())?;
    }
    // the flow commands that read these flags end in a result, or in a
    // loop that did not converge
    let Some(r) = r else {
        return Ok(());
    };
    if let Some(path) = &args.heatmap {
        write_out(path, &r.route.congestion.to_json().to_string_pretty())?;
    }
    if let Some(path) = &args.route_out {
        write_out(path, &r.route.to_json().to_string_pretty())?;
    }
    if let Some(path) = &args.audit_out {
        write_out(path, &r.route.audit.to_json().to_string_pretty())?;
    }
    Ok(())
}

/// The `--scheme` spelling of a partition scheme, as records name it.
fn scheme_name(scheme: PartitionScheme) -> &'static str {
    match scheme {
        PartitionScheme::Dagon => "dagon",
        PartitionScheme::Cone => "cone",
        PartitionScheme::PlacementDriven => "pdp",
    }
}

/// The manifest entry the flow flags imply for the input design at
/// `ks`: what a `map`, `sweep` or `loop` ledger record says ran.
fn flag_job(args: &Args, ks: &[f64]) -> ManifestJob {
    let d = manifest_defaults(args);
    ManifestJob {
        name: file_stem(&args.input),
        design: args.input.clone(),
        source: None,
        format: DesignFormat::from_path(&args.input),
        ks: ks.to_vec(),
        util: d.util,
        layers: d.layers,
        optimize: d.optimize,
        deadline_ms: None,
        inject_panic: false,
        fault_plan: args.fault_plan.as_ref().map(FaultPlan::to_string),
    }
}

/// Appends a content-addressed `casyn.run.v1` record for this run to the
/// `--ledger` directory (a no-op when the flag is absent): the job the
/// flags imply at the rows' K values, run under `scheme`. The design
/// hash is FNV-1a over the raw design file bytes, so the same netlist
/// under a different name still diffs cleanly.
fn append_ledger(args: &Args, scheme: PartitionScheme, rows: &[KSweepEntry]) -> Result<(), String> {
    let Some(dir) = &args.ledger else {
        return Ok(());
    };
    if rows.is_empty() {
        return Ok(());
    }
    let bytes = fs::read(&args.input).map_err(|e| format!("cannot read {}: {e}", args.input))?;
    let ks: Vec<f64> = rows.iter().map(|e| e.k).collect();
    let mut record = JobRecord::new(flag_job(args, &ks), fnv1a64(&bytes), scheme_name(scheme));
    record.attempts = 1;
    record.rows = rows.iter().map(|e| Row::from_result(e.k, &e.result)).collect();
    record.wall_ms = record.rows.iter().map(|r| r.total_ms).sum();
    let path = record
        .append(std::path::Path::new(dir))
        .map_err(|e| format!("cannot append to ledger {dir}: {e}"))?;
    outln!("ledger: {}", path.display());
    Ok(())
}

/// `casyn diff <runA.json> <runB.json>`: loads two ledger records and
/// compares them — the stable projection (what ran, quality metrics,
/// stage names) exactly, stage wall clocks inside a fixed tolerance band.
/// Exits non-zero on stable deltas, so CI can use it as a determinism
/// gate.
fn run_diff_command(args: &Args) -> Result<(), String> {
    let a = JobRecord::load(std::path::Path::new(&args.input))
        .map_err(|e| format!("{}: {e}", args.input))?;
    let b = JobRecord::load(std::path::Path::new(&args.input2))
        .map_err(|e| format!("{}: {e}", args.input2))?;
    let d = diff_records(&a, &b);
    out!("{}", format_diff(&file_stem(&args.input), &file_stem(&args.input2), &d));
    if !d.is_clean() {
        return Err(format!("{} stable delta(s) between the two runs", d.deltas.len()));
    }
    Ok(())
}

/// The manifest fallbacks this CLI invocation implies (`--ks`, `--util`,
/// `--layers`, `--optimize` become the per-job defaults).
fn manifest_defaults(args: &Args) -> ManifestDefaults {
    ManifestDefaults {
        ks: args.ks.clone(),
        util: args.util,
        layers: args.layers,
        optimize: args.optimize,
    }
}

/// Reads a previous batch report, checkpoint or crash bundle and returns
/// its records that finished ok, by [`JobRecord::job_key`]: a manifest
/// entry resumes only when it asks for what its record ran. An entry
/// that does not read as a record (one written before records said what
/// they ran) is left to run again.
fn load_resume(path: &str) -> Result<HashMap<u64, JobRecord>, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let entries = read_batch(&text).map_err(|e| format!("{path}: {e}"))?;
    let mut done = HashMap::new();
    let mut unread = 0usize;
    for entry in entries {
        match entry {
            Ok(rec) if rec.error.is_none() => {
                done.insert(rec.job_key(), rec);
            }
            Ok(_) => {}
            Err(_) => unread += 1,
        }
    }
    if unread > 0 {
        outln!("resume: {unread} entries of {path} do not say what they ran; their jobs re-run");
    }
    Ok(done)
}

/// Atomically replaces `path` with `doc` through
/// [`casyn_flow::write_atomic`] (write to a temp file, fsync, rename),
/// so a batch killed mid-checkpoint never leaves a truncated report.
fn write_report_file(path: &str, doc: &JsonValue) -> Result<(), String> {
    casyn_flow::write_atomic(std::path::Path::new(path), doc.to_string_pretty().as_bytes())
        .map_err(|e| format!("cannot write {path}: {e}"))
}

/// When `--trace-out` names a directory (batch only), per-job trace files
/// are written there instead of one combined file.
fn trace_dir(args: &Args) -> Option<&str> {
    let p = args.trace_out.as_deref()?;
    (args.command == "batch" && (p.ends_with('/') || std::path::Path::new(p).is_dir())).then_some(p)
}

/// Writes the drained span timeline behind `--trace-out` in Chrome
/// trace-event format. Skipped in batch directory mode — per-job files
/// already hold those events.
fn write_traces(args: &Args, events: &[obs::trace::TraceEvent]) -> Result<(), String> {
    match &args.trace_out {
        Some(path) if trace_dir(args).is_none() => {
            write_out(path, &obs::trace::to_chrome_trace(events).to_string_pretty())
        }
        _ => Ok(()),
    }
}

/// Slices one batch job's events out of the full timeline: everything on
/// the `batch.job` span's worker track inside its interval. Jobs on one
/// worker run sequentially, so interval containment is unambiguous.
fn job_trace_events(
    events: &[obs::trace::TraceEvent],
    span: &obs::trace::TraceEvent,
) -> Vec<obs::trace::TraceEvent> {
    let end = span.start_us + span.dur_us;
    events
        .iter()
        .filter(|e| e.thread == span.thread && e.start_us >= span.start_us && e.start_us <= end)
        .cloned()
        .collect()
}

/// Batch directory mode: writes `dir/<job>.trace.json` (Chrome format)
/// for every `batch.job` span in the timeline and returns job → path.
fn write_job_traces(
    dir: &str,
    events: &[obs::trace::TraceEvent],
) -> Result<HashMap<String, String>, String> {
    fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir}: {e}"))?;
    let mut paths = HashMap::new();
    for span in
        events.iter().filter(|e| e.kind == obs::trace::EventKind::Span && e.name == "batch.job")
    {
        let Some(job) = span.attrs.iter().find_map(|(k, v)| match v {
            obs::trace::AttrValue::Str(s) if k == "job" => Some(s.clone()),
            _ => None,
        }) else {
            continue;
        };
        let sub = job_trace_events(events, span);
        let path = format!("{}/{}.trace.json", dir.trim_end_matches('/'), safe_stem(&job));
        fs::write(&path, obs::trace::to_chrome_trace(&sub).to_string_pretty())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        paths.insert(job, path);
    }
    Ok(paths)
}

/// `casyn batch <manifest.json>`: loads every design, fans the jobs out
/// over the pool, prints a per-job report (one job's failure never takes
/// down the batch) and optionally writes it as a `casyn.batch.v1`
/// document of job records. While the batch runs, `--out` holds the same
/// document over the records finished so far; `--resume` reuses the
/// records of a previous report whose jobs ran what the manifest asks.
fn run_batch_command(args: &Args, pool: &Pool) -> Result<(), String> {
    let text =
        fs::read_to_string(&args.input).map_err(|e| format!("cannot read {}: {e}", args.input))?;
    let manifest = parse_manifest(&text, &manifest_defaults(args))?;
    let resumed = match &args.resume {
        Some(path) => load_resume(path)?,
        None => HashMap::new(),
    };
    // every entry's record starts as what it runs: the entry with its
    // effective fault plan, its design bytes' hash and the scheme of the
    // batch flow. A bad path, parse error or bad fault plan fails its
    // record, not the batch
    let mut jobs: Vec<BatchJob> = Vec::new();
    let mut records: Vec<JobRecord> = Vec::new(); // manifest order
    let mut job_of: Vec<Option<usize>> = Vec::new(); // manifest index → job index
    for m in &manifest {
        let fault = m.fault().map(|f| f.or_else(|| args.fault_plan.as_ref().map(FaultPlan::fresh)));
        let design = m.design_text();
        let mut ran = m.clone();
        if let Ok(f) = &fault {
            (ran.inject_panic, ran.fault_plan) = (false, f.as_ref().map(FaultPlan::to_string));
        }
        let hash = design.as_ref().map_or(0, |(text, _)| fnv1a64(text.as_bytes()));
        let mut rec = JobRecord::new(ran, hash, scheme_name(PartitionScheme::PlacementDriven));
        if let Some(done) = resumed.get(&rec.job_key()) {
            records.push(done.clone());
            job_of.push(None);
            continue;
        }
        match design.and_then(|(text, format)| Ok((m.parse_network(&text, format)?, fault?))) {
            Ok((network, fault)) => {
                let mut opts = m.flow_options(args.validate);
                opts.fault = fault;
                job_of.push(Some(jobs.len()));
                jobs.push(BatchJob {
                    name: m.name.clone(),
                    network,
                    ks: m.ks.clone(),
                    opts,
                    deadline: m.deadline(),
                });
            }
            Err(e) => {
                rec.error = Some(FlowError::bad_input(Stage::Batch, e));
                job_of.push(None);
            }
        }
        records.push(rec);
    }
    // an entry that does not run here and has no error was resumed
    let num_resumed =
        job_of.iter().zip(&records).filter(|(j, r)| j.is_none() && r.error.is_none()).count();
    outln!(
        "batch: {} jobs ({} loadable, {} resumed) on {} workers",
        manifest.len(),
        jobs.len(),
        num_resumed,
        pool.workers()
    );
    let entry_of: Vec<usize> = (0..job_of.len()).filter(|&mi| job_of[mi].is_some()).collect();
    // Incremental checkpoint: every finished job's record lands in
    // `--out`, a batch document of the records so far, so a killed batch
    // can --resume. Resumed and load-failed records are in it up front.
    let t0 = Instant::now();
    let finished: Mutex<Vec<Option<JobRecord>>> = Mutex::new(
        records.iter().zip(&job_of).map(|(rec, job)| job.is_none().then(|| rec.clone())).collect(),
    );
    let bopts = BatchOptions { retries: args.retries, ..Default::default() };
    let batch = run_batch(&jobs, pool, &bopts, run_batch_job, |ji, jr| {
        let mi = entry_of[ji];
        let mut finished = finished.lock().unwrap_or_else(PoisonError::into_inner);
        // trace paths exist only after the batch drains the timeline;
        // the final report fills them in
        finished[mi] = Some(records[mi].finished(jr));
        if let Some(out) = &args.out {
            let so_far: Vec<JobRecord> = finished.iter().flatten().cloned().collect();
            let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
            if let Err(e) = write_report_file(out, &batch_json(&so_far, pool.workers(), wall_ms)) {
                obs::log::warn(&format!("checkpoint: {e}"));
            }
        }
    });
    // drain the span timeline once the pool is quiet; in directory mode
    // every job gets its own Chrome trace file, referenced from its record
    let traced = if args.trace_out.is_some() { obs::trace::take_events() } else { Vec::new() };
    let trace_paths = match trace_dir(args) {
        Some(dir) => write_job_traces(dir, &traced)?,
        None => HashMap::new(),
    };
    // the final report, in manifest order
    let mut finished = finished.into_inner().unwrap_or_else(PoisonError::into_inner);
    for (mi, job) in job_of.iter().enumerate() {
        let name = records[mi].job.name.clone();
        match (job, &records[mi].error) {
            (None, Some(e)) => outln!("[{name}] LOAD ERROR: {}", e.detail),
            (None, None) => outln!("[{name}] resumed: already ok in a previous run"),
            (Some(ji), _) => {
                let mut rec =
                    finished[mi].take().unwrap_or_else(|| records[mi].finished(&batch.jobs[*ji]));
                rec.trace_path = trace_paths.get(&name).cloned();
                match &rec.error {
                    Some(e) => {
                        outln!("[{name}] FAILED after {} attempt(s): {e}", rec.attempts.max(1));
                        if let Some(dir) = &args.crash_dir {
                            // a one-record batch document: `casyn batch` replays it
                            let path = format!("{dir}/{}.crash.json", safe_stem(&name));
                            let written = fs::create_dir_all(dir)
                                .map_err(|e| format!("cannot create {dir}: {e}"))
                                .and_then(|()| write_report_file(&path, &rec.bundle_json()));
                            match written {
                                Ok(()) => outln!("  crash bundle: {path}"),
                                Err(e) => eprintln!("  crash bundle failed: {e}"),
                            }
                        }
                    }
                    None => {
                        let tag = if rec.degraded { " DEGRADED (escalated K)" } else { "" };
                        outln!(
                            "[{name}] ok in {:.0} ms ({} K rows, {} attempt(s)){tag}",
                            rec.wall_ms,
                            rec.rows.len(),
                            rec.attempts
                        );
                        outln!(
                            "  {:>10} {:>12} {:>8} {:>8} {:>8}",
                            "K",
                            "area",
                            "cells",
                            "util%",
                            "viol"
                        );
                        for r in &rec.rows {
                            outln!(
                                "  {:>10} {:>12.0} {:>8} {:>8.2} {:>8}",
                                r.k,
                                r.cell_area,
                                r.num_cells,
                                r.utilization_pct,
                                r.violations
                            );
                        }
                    }
                }
                records[mi] = rec;
            }
        }
    }
    let failed = records.iter().filter(|r| r.error.is_some()).count();
    let degraded = records.iter().filter(|r| r.degraded).count();
    outln!(
        "batch done: {} ok ({degraded} degraded), {failed} failed, wall {:.0} ms (jobs={})",
        manifest.len() - failed,
        batch.wall_ms,
        pool.workers()
    );
    if let Some(path) = &args.out {
        write_report_file(path, &batch_json(&records, pool.workers(), batch.wall_ms))?;
        outln!("wrote {path}");
    }
    write_observability(args, None)?;
    write_traces(args, &traced)?;
    if failed > 0 {
        return Err(format!("{failed} of {} batch jobs failed", manifest.len()));
    }
    Ok(())
}

/// `casyn serve`: runs the synthesis service until a `POST /shutdown`
/// drains it.
fn run_serve_command(args: &Args) -> Result<(), String> {
    let server = casyn_serve::Server::start(casyn_serve::ServeConfig {
        addr: args.listen.clone(),
        workers: args.jobs.unwrap_or(0),
        queue_capacity: args.queue_cap,
        retries: args.retries,
        state_dir: args.state_dir.as_ref().map(std::path::PathBuf::from),
        mem_limit_bytes: args.mem_limit,
        result_wait_secs: args.result_wait,
        io_fault: args.io_fault_plan.as_ref().map(|p| p.fresh()),
        ..Default::default()
    })?;
    outln!("casyn-serve listening on {}", server.endpoint());
    server.wait()
}

/// `casyn submit <manifest.json> --server h:p`: submits a batch manifest
/// to a running service and waits for every job's result.
fn run_submit_command(args: &Args) -> Result<(), String> {
    let addr = args.server.as_deref().ok_or("submit needs --server host:port")?;
    let text =
        fs::read_to_string(&args.input).map_err(|e| format!("cannot read {}: {e}", args.input))?;
    let (status, doc) = casyn_serve::request_json(addr, "POST", "/jobs", Some(&text))?;
    if status != 202 {
        let msg = doc.get("error").and_then(|v| v.as_str()).unwrap_or("unknown error");
        return Err(format!("submit rejected ({status}): {msg}"));
    }
    let jobs =
        doc.get("jobs").and_then(|v| v.as_array()).ok_or("malformed submit response")?.to_vec();
    let mut failed = 0usize;
    for j in &jobs {
        let id = j.get("id").and_then(|v| v.as_f64()).unwrap_or(-1.0) as i64;
        let name = j.get("name").and_then(|v| v.as_str()).unwrap_or("?").to_string();
        let cache = j.get("cache").and_then(|v| v.as_str()).unwrap_or("?").to_string();
        let (_, r) =
            casyn_serve::request_json(addr, "GET", &format!("/jobs/{id}/result?wait=1"), None)?;
        let state = r.get("status").and_then(|v| v.as_str()).unwrap_or("?");
        let rows = r.get("rows").and_then(|v| v.as_array()).map_or(0, <[_]>::len);
        let wall = r.get("wall_ms").and_then(|v| v.as_f64()).unwrap_or(0.0);
        if state == "done" {
            outln!("[{name}] done (cache {cache}, {rows} K rows, {wall:.0} ms)");
        } else {
            failed += 1;
            let err = r.get("error").and_then(|v| v.as_str()).unwrap_or("unknown error");
            outln!("[{name}] {state}: {err}");
        }
    }
    if failed > 0 {
        return Err(format!("{failed} of {} submitted jobs failed", jobs.len()));
    }
    Ok(())
}

/// `casyn shutdown --server h:p`: asks a running service to drain.
fn run_shutdown_command(args: &Args) -> Result<(), String> {
    let addr = args.server.as_deref().ok_or("shutdown needs --server host:port")?;
    let (status, doc) = casyn_serve::request_json(addr, "POST", "/shutdown", None)?;
    if status != 200 {
        return Err(format!("shutdown rejected ({status})"));
    }
    outln!("server {addr} {}", doc.get("status").and_then(|v| v.as_str()).unwrap_or("draining"));
    Ok(())
}

/// `casyn top <host:port>`: polls `GET /stats` on a running service and
/// renders the windowed telemetry as a full-screen terminal dashboard.
fn run_top_command(args: &Args) -> Result<(), String> {
    let addr = args.input.as_str();
    let mut frame = 0usize;
    loop {
        let (status, doc) = casyn_serve::request_json(addr, "GET", "/stats", None)?;
        if status != 200 {
            return Err(format!("{addr} /stats answered {status}"));
        }
        let text = format_top(&doc, addr);
        // single-snapshot mode composes with pipes and CI logs, so it
        // skips the ANSI clear that the live dashboard wants
        let clear = if args.frames == 1 { "" } else { "\x1b[2J\x1b[H" };
        // a closed stdout ends the dashboard: nobody is watching it
        use std::io::Write as _;
        let mut stdout = std::io::stdout();
        if write!(stdout, "{clear}{text}").and_then(|()| stdout.flush()).is_err() {
            return Ok(());
        }
        frame += 1;
        if args.frames != 0 && frame >= args.frames {
            return Ok(());
        }
        std::thread::sleep(std::time::Duration::from_secs_f64(args.interval));
    }
}

/// Renders one `casyn.stats.v1` document as the `top` dashboard. Pure
/// (document in, text out) so the layout is testable without a server.
fn format_top(doc: &JsonValue, addr: &str) -> String {
    let num = |path: &[&str]| -> Option<f64> {
        let mut v = doc;
        for p in path {
            v = v.get(p)?;
        }
        v.as_f64()
    };
    let mut out = String::new();
    let uptime = num(&["uptime_s"]).unwrap_or(0.0);
    let version = doc.get("version").and_then(|v| v.as_str()).unwrap_or("?");
    let degraded = doc.get("degraded").and_then(|v| v.as_bool()).unwrap_or(false);
    out.push_str(&format!(
        "casyn top - {addr}   up {uptime:.0} s   {version}{}\n",
        if degraded { "   DEGRADED (shed in last 10s)" } else { "" }
    ));
    let rate = |w: &str| num(&["windows", w, "serve.jobs_done", "rate_per_s"]).unwrap_or(0.0);
    out.push_str(&format!(
        "jobs/sec      10s {:>7.2}   1m {:>7.2}   5m {:>7.2}\n",
        rate("10s"),
        rate("1m"),
        rate("5m")
    ));
    // gauges: the 10s window's `last` is the freshest sampled value
    let gauge = |k: &str| num(&["windows", "10s", k, "last"]).unwrap_or(0.0);
    out.push_str(&format!(
        "queue {:>5.0}   inflight {:>4.0}   live {:>8.1} MB\n",
        gauge("serve.queue_depth"),
        gauge("serve.inflight"),
        gauge("serve.live_bytes") / (1024.0 * 1024.0)
    ));
    let delta = |k: &str| num(&["windows", "1m", k, "delta"]).unwrap_or(0.0);
    let hits = delta("serve.cache_hits");
    let computes = delta("serve.computes");
    let hit_pct = if hits + computes > 0.0 { 100.0 * hits / (hits + computes) } else { 0.0 };
    out.push_str(&format!(
        "cache hits (1m) {hit_pct:>5.1}%   shed {:>4.0}   retries {:>4.0}   failed {:>4.0}\n",
        delta("serve.shed"),
        delta("retry.attempts"),
        delta("serve.jobs_failed")
    ));
    // per-stage windowed percentiles: every *.wall_ms_hist key in the 1m
    // window is a stage timed through obs::StageTimer
    let mut stages: Vec<(String, f64, f64, f64)> = Vec::new();
    if let Some(JsonValue::Object(keys)) = doc.get("windows").and_then(|w| w.get("1m")) {
        for (k, v) in keys {
            if let Some(stage) = k.strip_suffix(".wall_ms_hist") {
                stages.push((
                    stage.to_string(),
                    v.get("p50").and_then(|x| x.as_f64()).unwrap_or(0.0),
                    v.get("p95").and_then(|x| x.as_f64()).unwrap_or(0.0),
                    v.get("p99").and_then(|x| x.as_f64()).unwrap_or(0.0),
                ));
            }
        }
    }
    if !stages.is_empty() {
        out.push_str(&format!(
            "\n{:<22} {:>9} {:>9} {:>9}   (1m, wall ms)\n",
            "stage", "p50", "p95", "p99"
        ));
        for (stage, p50, p95, p99) in &stages {
            out.push_str(&format!("{stage:<22} {p50:>9.1} {p95:>9.1} {p99:>9.1}\n"));
        }
    }
    // per-second sparklines, oldest to newest
    if let Some(JsonValue::Object(series)) = doc.get("series") {
        if !series.is_empty() {
            out.push('\n');
        }
        for (k, v) in series {
            let vals: Vec<f64> =
                v.as_array().unwrap_or(&[]).iter().filter_map(|x| x.as_f64()).collect();
            out.push_str(&format!("{k:<22} {}\n", casyn_flow::format_sparkline(&vals)));
        }
    }
    out
}

/// `casyn heatmap <heatmap.json>`: parses and summarizes an exported
/// congestion heat map, with line/field diagnostics on malformed input.
fn run_heatmap_command(args: &Args) -> Result<(), String> {
    let text =
        fs::read_to_string(&args.input).map_err(|e| format!("cannot read {}: {e}", args.input))?;
    let map = CongestionMap::from_json(&text).map_err(|e| format!("{}: {e}", args.input))?;
    let (h_cap, v_cap) = map.capacities();
    outln!(
        "{}: {} x {} gcells of {:.2} um, capacity h {:.1} / v {:.1} tracks",
        args.input,
        map.nx(),
        map.ny(),
        map.gcell_size(),
        h_cap,
        v_cap
    );
    outln!("peak congestion {:.1}%", 100.0 * map.max_util());
    out!("{}", casyn_flow::format_congestion_heatmap(&file_stem(&args.input), &map));
    Ok(())
}

fn run(args: &Args) -> Result<(), String> {
    if args.metrics_out.is_some() {
        obs::set_enabled(true);
    }
    if args.trace_out.is_some() {
        // span recording wants the metrics/alloc side enabled too, so the
        // spans carry peak_bytes attributes
        obs::set_enabled(true);
        obs::trace::set_enabled(true);
    }
    let pool = || match args.jobs {
        Some(n) => Pool::new(n),
        None => Pool::from_env(),
    };
    match args.command.as_str() {
        "heatmap" => run_heatmap_command(args),
        "diff" => run_diff_command(args),
        "serve" => run_serve_command(args),
        "submit" => run_submit_command(args),
        "shutdown" => run_shutdown_command(args),
        "top" => run_top_command(args),
        "batch" => run_batch_command(args, &pool()),
        _ => {
            let result = run_flow_command(args, &pool());
            if args.trace_out.is_some() {
                // written even when the flow failed: the partial timeline
                // is most useful exactly then
                write_traces(args, &obs::trace::take_events())?;
            }
            result
        }
    }
}

fn run_flow_command(args: &Args, pool: &Pool) -> Result<(), String> {
    let design = load_design(&args.input)?;
    let opts = flow_options(args);
    if !design.is_combinational() {
        if args.command != "map" {
            return Err(format!(
                "{} flip-flops found: only `map` supports sequential designs",
                design.latches.len()
            ));
        }
        let r = sequential_flow(&design, args.k, &opts).map_err(|e| e.to_string())?;
        outln!("{}: sequential design, {} flip-flops", args.input, r.num_dffs);
        report(&r.flow);
        outln!("minimum clock period: {:.3} ns", r.min_clock_period);
        write_verilog(args, &r.flow)?;
        write_observability(args, Some(&r.flow))?;
        let rows = [KSweepEntry { k: args.k, result: r.flow }];
        append_ledger(args, PartitionScheme::PlacementDriven, &rows)?;
        return Ok(());
    }
    let prep = prepare_pool(&design.core, &opts, pool).map_err(|e| e.to_string())?;
    outln!(
        "{}: {} base gates, die {:.0} um^2 ({} rows)",
        args.input,
        prep.base_gates,
        prep.floorplan.die_area(),
        prep.floorplan.num_rows
    );
    match args.command.as_str() {
        "map" => {
            let cost =
                if args.k == 0.0 { CostKind::Area } else { CostKind::AreaWire { k: args.k } };
            let r = full_flow(&prep, &MapOptions { scheme: args.scheme, cost }, &opts)
                .map_err(|e| e.to_string())?;
            report(&r);
            write_verilog(args, &r)?;
            write_observability(args, Some(&r))?;
            append_ledger(args, args.scheme, &[KSweepEntry { k: args.k, result: r }])?;
        }
        "sweep" => {
            // one pooled sweep at any --jobs (one worker runs inline): the
            // rows are bit-identical, and the metrics registry covers the
            // whole command
            outln!("{:>10} {:>12} {:>8} {:>8} {:>8}", "K", "area", "cells", "util%", "viol");
            let rows =
                k_sweep_prepared_pool(&prep, &args.ks, &opts, pool).map_err(|e| e.to_string())?;
            for e in &rows {
                let r = &e.result;
                outln!(
                    "{:>10} {:>12.0} {:>8} {:>8.2} {:>8}",
                    e.k,
                    r.cell_area,
                    r.num_cells,
                    r.utilization_pct,
                    r.route.violations
                );
            }
            write_observability(args, rows.last().map(|e| &e.result))?;
            append_ledger(args, PartitionScheme::PlacementDriven, &rows)?;
        }
        "loop" => {
            let schedule = [0.0, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0];
            let out = run_methodology(&prep, &schedule, 1.0, &opts).map_err(|e| e.to_string())?;
            for s in &out.steps {
                outln!(
                    "K = {:<8} peak {:>6.1}%  violations {:>6}  {}",
                    s.k,
                    100.0 * s.max_util,
                    s.violations,
                    if s.accepted { "ACCEPT" } else { "increase K" }
                );
            }
            if out.converged {
                report(&out.result);
                write_verilog(args, &out.result)?;
                write_observability(args, Some(&out.result))?;
                // ledger the accepted K only: that row is the flow's output
                let k = out.steps.iter().find(|s| s.accepted).map_or(0.0, |s| s.k);
                let rows = [KSweepEntry { k, result: out.result }];
                append_ledger(args, PartitionScheme::PlacementDriven, &rows)?;
            } else {
                outln!("did not converge: relax the floorplan or resynthesize");
                write_observability(args, None)?;
            }
        }
        other => return Err(format!("unknown command: {other}")),
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    cli(&argv)
}

/// One invocation: `help`/`--help` print the option list and succeed; a
/// bad command line prints the short usage and fails before any file is
/// read; everything else runs.
fn cli(argv: &[String]) -> ExitCode {
    if matches!(argv.first().map(String::as_str), Some("help" | "--help")) {
        out!("{HELP}");
        return ExitCode::SUCCESS;
    }
    match parse_args(argv) {
        Ok(args) => match run(&args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        },
        Err(e) => {
            eprintln!("error: {e}");
            usage()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn sv(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    /// `cmd` with its positionals (paths that do not exist: nothing may
    /// read them) followed by `rest`.
    fn argv(cmd: &str, rest: &[&str]) -> Vec<String> {
        let n = COMMANDS.iter().find(|(c, _)| *c == cmd).map_or(0, |(_, n)| *n);
        let mut v = vec![cmd.to_string()];
        v.extend((0..n).map(|i| format!("absent-{i}.pla")));
        v.extend(rest.iter().map(|s| s.to_string()));
        v
    }

    /// A value each option accepts (`None` for a switch).
    fn sample(flag: &str) -> Option<&'static str> {
        Some(match flag {
            "--optimize" | "--validate" => return None,
            "--k" | "--util" | "--interval" => "0.5",
            "--ks" => "0,0.5",
            "--scheme" => "cone",
            "--layers" | "--jobs" | "--retries" | "--queue-cap" | "--result-wait" | "--frames" => {
                "2"
            }
            "--mem-limit" => "1m",
            "--fault-plan" => "map:panic:1",
            "--io-fault-plan" => "wal:torn_write:2",
            "--listen" | "--server" => "127.0.0.1:0",
            _ => "out.json",
        })
    }

    #[test]
    fn every_option_parses_exactly_on_the_commands_of_its_row() {
        for &(flag, scope) in OPTIONS {
            for &(cmd, _) in COMMANDS {
                let mut rest = vec![flag];
                rest.extend(sample(flag));
                let parsed = parse_args(&argv(cmd, &rest));
                if scope.contains(&cmd) {
                    assert!(parsed.is_ok(), "{flag} on {cmd}: {:?}", parsed.err());
                } else {
                    assert_eq!(parsed.unwrap_err(), format!("{flag} does not apply to {cmd}"));
                }
            }
        }
        // the regressions of a parser that let any option reach any
        // command: each was ignored, or failed only after the work
        for (cmd, rest) in [
            ("sweep", ["--k", "3"]),              // silently ran the default ladder
            ("serve", ["--trace-out", "t.json"]), // spans piled up, never written
            ("batch", ["--heatmap", "h.json"]),   // failed after the whole batch
            ("submit", ["--retries", "9"]),       // the server's retries apply
        ] {
            let e = parse_args(&argv(cmd, &rest)).unwrap_err();
            assert_eq!(e, format!("{} does not apply to {cmd}", rest[0]));
            assert_eq!(cli(&argv(cmd, &rest)), ExitCode::FAILURE);
        }
    }

    #[test]
    fn every_command_takes_exactly_its_positionals() {
        for &(cmd, n) in COMMANDS {
            assert!(parse_args(&argv(cmd, &[])).is_ok(), "{cmd}");
            let extra = parse_args(&argv(cmd, &["stray"])).unwrap_err();
            assert!(extra.starts_with(&format!("{cmd} takes {n} ")), "{extra}");
            if n > 0 {
                let v = argv(cmd, &[]);
                let missing = parse_args(&v[..v.len() - 1]).unwrap_err();
                assert!(missing.ends_with(&format!("got {}", n - 1)), "{missing}");
            }
        }
        // `serve stray` used to parse, and nothing read the positional
        assert_eq!(cli(&sv(&["serve", "stray"])), ExitCode::FAILURE);
        let d = parse_args(&sv(&["diff", "runs/a.json", "runs/b.json"])).unwrap();
        assert_eq!((d.input.as_str(), d.input2.as_str()), ("runs/a.json", "runs/b.json"));
    }

    #[test]
    fn help_lists_each_option_under_the_commands_of_its_row() {
        let table: BTreeMap<&str, Vec<&str>> =
            OPTIONS.iter().map(|&(flag, scope)| (flag, scope.to_vec())).collect();
        // every `--flag` the text mentions is a row of the table
        let mentioned: std::collections::BTreeSet<&str> = HELP
            .split(|c: char| !(c.is_ascii_lowercase() || c == '-'))
            .filter(|w| w.starts_with("--"))
            .collect();
        assert_eq!(mentioned, table.keys().copied().collect());
        // and each is listed under a `cmd, cmd:` heading naming its scope
        let mut listed = BTreeMap::new();
        let mut heading: Vec<&str> = Vec::new();
        for line in HELP.lines() {
            if let Some(h) = line.strip_suffix(':').filter(|_| !line.starts_with(' ')) {
                heading = h.split(", ").collect();
            } else if line.starts_with("  --") {
                listed.insert(line.split_whitespace().next().unwrap_or_default(), heading.clone());
            }
        }
        assert_eq!(listed, table);
    }

    #[test]
    fn option_values_land_in_their_fields() {
        let m = parse_args(&sv(&["map", "x.pla"])).unwrap();
        assert_eq!(
            (m.input.as_str(), m.k, m.scheme),
            ("x.pla", 0.5, PartitionScheme::PlacementDriven)
        );
        assert!(!m.optimize && !m.validate && m.fault_plan.is_none() && m.jobs.is_none());
        let m = parse_args(&sv(&[
            "map",
            "y.blif",
            "--k",
            "2",
            "--scheme",
            "cone",
            "--util",
            "0.5",
            "--layers",
            "4",
            "--optimize",
            "--validate",
            "--fault-plan",
            "map:panic:1,route:corrupt:2,seed=7",
            "--jobs",
            "3",
            "--trace-out",
            "t.json",
        ]))
        .unwrap();
        assert_eq!((m.k, m.scheme, m.util, m.layers), (2.0, PartitionScheme::Cone, 0.5, 4));
        assert!(m.optimize && m.validate && m.jobs == Some(3));
        let plan = m.fault_plan.as_ref().unwrap();
        assert_eq!((plan.specs().len(), plan.seed()), (2, 7));
        assert_eq!(trace_dir(&m), None);
        let b = parse_args(&sv(&[
            "batch",
            "m.json",
            "--ks",
            "0,0.5, 2",
            "--retries",
            "2",
            "--out",
            "r.json",
            "--resume",
            "old.json",
            "--crash-dir",
            "crashes",
            "--trace-out",
            "traces/",
        ]))
        .unwrap();
        assert_eq!((&b.ks[..], b.retries), (&[0.0, 0.5, 2.0][..], 2));
        assert_eq!((b.out.as_deref(), b.resume.as_deref()), (Some("r.json"), Some("old.json")));
        assert_eq!(b.crash_dir.as_deref(), Some("crashes"));
        // a directory --trace-out gives batch one trace file per job
        assert_eq!(trace_dir(&b), Some("traces/"));
        let s = parse_args(&sv(&["serve"])).unwrap();
        assert_eq!(
            (s.listen.as_str(), s.queue_cap, s.mem_limit, s.result_wait),
            ("127.0.0.1:7878", 64, 0, 600)
        );
        let s = parse_args(&sv(&[
            "serve",
            "--listen",
            "0.0.0.0:9000",
            "--queue-cap",
            "8",
            "--state-dir",
            "st",
            "--mem-limit",
            "512m",
            "--result-wait",
            "30",
            "--io-fault-plan",
            "wal:torn_write:2,cache:disk_full,conn:conn_drop:3",
        ]))
        .unwrap();
        assert_eq!(
            (s.listen.as_str(), s.queue_cap, s.state_dir.as_deref()),
            ("0.0.0.0:9000", 8, Some("st"))
        );
        assert_eq!((s.mem_limit, s.result_wait), (512 << 20, 30));
        assert_eq!(s.io_fault_plan.unwrap().specs().len(), 3);
        let t = parse_args(&sv(&["top", "h:1"])).unwrap();
        assert_eq!((t.input.as_str(), t.interval, t.frames), ("h:1", 1.0, 0));
        let t = parse_args(&sv(&["top", "h:1", "--interval", "0.5", "--frames", "3"])).unwrap();
        assert_eq!((t.interval, t.frames), (0.5, 3));
        let sub = parse_args(&sv(&["submit", "m.json", "--server", "h:1"])).unwrap();
        assert_eq!(sub.server.as_deref(), Some("h:1"));
        assert_eq!(parse_bytes("4k").unwrap(), 4096);
        assert_eq!(parse_bytes("1g").unwrap(), 1 << 30);
        assert_eq!(parse_bytes("123").unwrap(), 123);
    }

    #[test]
    fn bad_values_fail_naming_their_option() {
        // the numeric flags pass the manifest fields' range check
        for (cmd, flag, bad) in [
            ("map", "--util", "nan"),
            ("map", "--util", "0"),
            ("map", "--util", "1.5"),
            ("map", "--layers", "0"),
            ("map", "--layers", "2.7"),
            ("map", "--k", "inf"),
            ("map", "--k", "-1"),
            ("sweep", "--ks", "0,-0.5"),
            ("sweep", "--ks", "nan"),
            ("batch", "--jobs", "0"),
            ("batch", "--jobs", "-1"),
            ("batch", "--retries", "-1"),
            ("serve", "--mem-limit", "lots"),
            ("top", "--interval", "0"),
            ("top", "--interval", "nope"),
        ] {
            let e = parse_args(&argv(cmd, &[flag, bad])).unwrap_err();
            assert!(e.starts_with(flag), "{flag} {bad}: {e}");
        }
        for &(flag, scope) in OPTIONS.iter().filter(|(f, _)| sample(f).is_some()) {
            let e = parse_args(&argv(scope[0], &[flag])).unwrap_err();
            assert_eq!(e, format!("{flag} needs a value"));
        }
        let e = parse_args(&argv("map", &["--scheme", "bogus"])).unwrap_err();
        assert_eq!(e, "unknown scheme: bogus");
        // unknown fault stages fail up front, not silently at run time
        let e = parse_args(&argv("map", &["--fault-plan", "warp:panic:1"])).unwrap_err();
        assert!(e.contains("unknown stage") && e.contains("warp"), "got: {e}");
        assert!(parse_args(&argv("map", &["--fault-plan", "map:explode"])).is_err());
        // flow stages are not I/O stages, and the flow plan rejects I/O ones
        let e = parse_args(&argv("serve", &["--io-fault-plan", "map:torn_write"])).unwrap_err();
        assert!(e.contains("expected wal, cache or conn"), "got: {e}");
        assert!(parse_args(&argv("map", &["--fault-plan", "wal:torn_write"])).is_err());
    }

    #[test]
    fn unknown_commands_and_options_are_rejected_before_any_file_is_read() {
        assert_eq!(
            parse_args(&sv(&["frobnicate", "x.pla"])).unwrap_err(),
            "unknown command: frobnicate"
        );
        // retired commands and options are unknown
        for cmd in ["run", "loadgen"] {
            assert_eq!(
                parse_args(&sv(&[cmd, "x.pla"])).unwrap_err(),
                format!("unknown command: {cmd}")
            );
        }
        for flag in [
            "--placer",
            "--clients",
            "--designs",
            "--dot",
            "--blif",
            "--clock",
            "--trace",
            "--spans-out",
            "--snapshot-stride",
            "--tolerance",
            "--wat",
            "-x",
        ] {
            let e = parse_args(&argv("map", &[flag, "1"])).unwrap_err();
            assert_eq!(e, format!("unknown option: {flag}"));
        }
    }

    #[test]
    fn help_exits_zero_and_bad_invocations_exit_one() {
        assert_eq!(cli(&sv(&["help"])), ExitCode::SUCCESS);
        assert_eq!(cli(&sv(&["--help"])), ExitCode::SUCCESS);
        assert_eq!(cli(&[]), ExitCode::FAILURE);
        assert_eq!(cli(&sv(&["frobnicate", "x.pla"])), ExitCode::FAILURE);
        // help.txt is the one copy of the option list: it names every command
        for (c, _) in COMMANDS {
            assert!(HELP.contains(&format!("casyn {c} ")), "help.txt lacks {c}");
        }
    }

    #[test]
    fn format_top_renders_synthetic_stats() {
        let win = |entries: Vec<(&str, JsonValue)>| {
            JsonValue::object(entries.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
        };
        let counter = |delta: f64, rate: f64| {
            win(vec![("delta", JsonValue::Number(delta)), ("rate_per_s", JsonValue::Number(rate))])
        };
        let doc = win(vec![
            ("schema", JsonValue::Str("casyn.stats.v1".into())),
            ("now_s", JsonValue::Number(90.0)),
            ("uptime_s", JsonValue::Number(90.0)),
            ("version", JsonValue::Str("0.1.0+gdeadbee".into())),
            ("degraded", JsonValue::Bool(true)),
            (
                "windows",
                win(vec![
                    (
                        "10s",
                        win(vec![
                            ("serve.jobs_done", counter(15.0, 1.5)),
                            (
                                "serve.queue_depth",
                                win(vec![
                                    ("last", JsonValue::Number(4.0)),
                                    ("min", JsonValue::Number(0.0)),
                                    ("max", JsonValue::Number(6.0)),
                                ]),
                            ),
                        ]),
                    ),
                    (
                        "1m",
                        win(vec![
                            ("serve.jobs_done", counter(30.0, 0.5)),
                            ("serve.cache_hits", counter(3.0, 0.05)),
                            ("serve.computes", counter(9.0, 0.15)),
                            (
                                "flow.map.wall_ms_hist",
                                win(vec![
                                    ("count", JsonValue::Number(30.0)),
                                    ("p50", JsonValue::Number(12.0)),
                                    ("p95", JsonValue::Number(30.0)),
                                    ("p99", JsonValue::Number(41.0)),
                                ]),
                            ),
                        ]),
                    ),
                    ("5m", win(vec![("serve.jobs_done", counter(30.0, 0.1))])),
                ]),
            ),
            (
                "series",
                win(vec![(
                    "serve.jobs_done",
                    JsonValue::Array(vec![
                        JsonValue::Number(0.0),
                        JsonValue::Number(2.0),
                        JsonValue::Number(4.0),
                    ]),
                )]),
            ),
        ]);
        let text = format_top(&doc, "127.0.0.1:7878");
        assert!(text.contains("casyn top - 127.0.0.1:7878"), "got:\n{text}");
        assert!(text.contains("up 90 s") && text.contains("0.1.0+gdeadbee"), "got:\n{text}");
        assert!(text.contains("DEGRADED"), "got:\n{text}");
        // window rates land in the jobs/sec row in 10s/1m/5m order
        assert!(text.contains("10s    1.50   1m    0.50   5m    0.10"), "got:\n{text}");
        assert!(text.contains("queue     4"), "got:\n{text}");
        // 3 hits of 12 outcomes in the 1m window
        assert!(text.contains("cache hits (1m)  25.0%"), "got:\n{text}");
        // the stage table strips the histogram suffix
        assert!(text.contains("flow.map") && !text.contains("wall_ms_hist"), "got:\n{text}");
        assert!(text.contains("12.0") && text.contains("30.0") && text.contains("41.0"));
        // the sparkline row renders one glyph per sample
        let spark = text.lines().find(|l| l.starts_with("serve.jobs_done")).unwrap();
        assert_eq!(spark.split_whitespace().last().unwrap().chars().count(), 3, "got: {spark}");
        // a degraded=false doc drops the banner
        let calm = win(vec![("degraded", JsonValue::Bool(false))]);
        assert!(!format_top(&calm, "h:1").contains("DEGRADED"));
    }

    #[test]
    fn manifest_defaults_follow_cli_flags() {
        // manifest parsing itself lives in casyn-flow; the CLI's job is
        // mapping its flags onto the per-job fallbacks
        let a = parse_args(&sv(&[
            "batch",
            "m.json",
            "--ks",
            "0,2",
            "--util",
            "0.5",
            "--layers",
            "4",
            "--optimize",
        ]))
        .unwrap();
        let d = manifest_defaults(&a);
        assert_eq!(d.ks, vec![0.0, 2.0]);
        assert_eq!(d.util, 0.5);
        assert_eq!(d.layers, 4);
        assert!(d.optimize);
        let jobs =
            parse_manifest(r#"[{"design": "a.pla", "ks": [1]}, {"design": "b.pla"}]"#, &d).unwrap();
        assert_eq!(jobs[0].ks, vec![1.0]);
        assert_eq!(jobs[1].ks, vec![0.0, 2.0]);
        let plain = manifest_defaults(&parse_args(&sv(&["batch", "m.json"])).unwrap());
        assert_eq!(plain.ks, ManifestDefaults::default().ks);
        assert_eq!(plain.util, ManifestDefaults::default().util);
    }

    #[test]
    fn resume_reports_reject_unknown_schemas() {
        let dir = std::env::temp_dir().join("casyn-cli-resume-schema");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("weird.json");
        fs::write(&path, r#"{"schema": "casyn.telemetry.v1", "jobs": []}"#).unwrap();
        let e = load_resume(path.to_str().unwrap()).unwrap_err();
        assert!(e.contains("not resumable"), "got: {e}");
    }

    #[test]
    fn resume_collects_only_ok_jobs() {
        let dir = std::env::temp_dir().join("casyn-cli-resume-ok");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.json");
        let entries =
            parse_manifest(r#"[{"design": "a.pla"}, {"design": "b.pla"}]"#, &Default::default())
                .unwrap();
        let ok = JobRecord::new(entries[0].clone(), 1, "pdp");
        let mut failed = JobRecord::new(entries[1].clone(), 2, "pdp");
        failed.error = Some(FlowError::bad_input(Stage::Batch, "cannot read b.pla"));
        let mut text = batch_json(&[ok.clone(), failed], 1, 0.0).to_string_pretty();
        // an entry of an older report, which does not say what it ran
        text = text.replacen(
            r#""jobs": ["#,
            r#""jobs": [{"name": "c", "design": "c.pla", "status": "ok", "rows": []},"#,
            1,
        );
        fs::write(&path, text).unwrap();
        let done = load_resume(path.to_str().unwrap()).unwrap();
        assert_eq!(done.len(), 1);
        assert_eq!(done.get(&ok.job_key()), Some(&ok));
    }
}
