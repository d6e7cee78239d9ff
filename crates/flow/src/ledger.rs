//! The job record: what one job ran and what it produced, in the one
//! layout every result document shares.
//!
//! A [`JobRecord`] is the manifest entry that ran (with its effective
//! fault plan), the hash of its design bytes, the partition scheme that
//! ran, and the outcome, with one [`Row`] per K. A `casyn.batch.v1`
//! report or checkpoint ([`batch_json`]) is a summary over records, a
//! crash bundle ([`JobRecord::bundle_json`]) a one-record batch document,
//! a `casyn.run.v1` ledger record ([`JobRecord::append`]) one record plus
//! its content hash, and a `casyn-serve` result a record's rows.
//!
//! The *stable projection* — what the job is (its identity and
//! parameters), then per row the quality fields and stage names, never a
//! wall clock — is the content hash that addresses ledger records, the
//! exact half of [`diff_records`], and, its first half alone
//! ([`JobRecord::job_key`]), the key `casyn batch --resume` matches on.

use crate::batch::BatchJobReport;
use crate::content_key::KeyBuilder;
use crate::error::FlowError;
use crate::flows::FlowResult;
use crate::manifest::{parse_manifest_value, ManifestDefaults, ManifestJob};
use casyn_netlist::mapped::MappedNetlist;
use casyn_netlist::Point;
use casyn_obs::json::JsonValue;
use casyn_place::metrics::hpwl;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub use crate::content_key::fnv1a64;

/// The schema of a batch report, a checkpoint and a crash bundle.
const BATCH_SCHEMA: &str = "casyn.batch.v1";

/// The outcome of one K of a job.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// The congestion-cost weight K.
    pub k: f64,
    /// Total cell area in µm².
    pub cell_area: f64,
    /// Instance count.
    pub num_cells: usize,
    /// Cell area / die area × 100.
    pub utilization_pct: f64,
    /// Routing violations (rounded overflow).
    pub violations: usize,
    /// Raw residual overflow in track-segments.
    pub overflow: f64,
    /// Negotiation iterations the router ran.
    pub route_iterations: usize,
    /// Routed wirelength in µm.
    pub wirelength_um: f64,
    /// Half-perimeter wirelength of the placed netlist in µm.
    pub hpwl_um: f64,
    /// Critical-path arrival in ns.
    pub critical_ns: f64,
    /// Wall clock of the whole flow, in milliseconds.
    pub total_ms: f64,
    /// Peak live netlist nodes.
    pub peak_live_nodes: usize,
    /// Per stage, its name and wall clock in milliseconds. The per-stage
    /// metric deltas and allocator windows are most of a flow's telemetry
    /// bytes, so a row leaves them to `--metrics-out`.
    pub stages: Vec<(String, f64)>,
}

/// One job: the manifest entry that ran and what it produced.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRecord {
    /// The manifest entry that ran; its `fault_plan` is the plan in
    /// effect (the entry's own, or the batch-wide `--fault-plan`).
    pub job: ManifestJob,
    /// FNV-1a hash of the design bytes (0 when they could not be read).
    pub design_hash: u64,
    /// The partition scheme that ran: `pdp` (placement-driven), `cone`
    /// or `dagon`.
    pub scheme: String,
    /// The typed failure of the last attempt; `None` means status ok.
    pub error: Option<FlowError>,
    /// Attempts made (0 = never started).
    pub attempts: u32,
    /// True when the job only completed through K escalation.
    pub degraded: bool,
    /// Wall clock of all attempts, in milliseconds.
    pub wall_ms: f64,
    /// The job's own Chrome trace file (`casyn batch --trace-out <dir>/`).
    pub trace_path: Option<String>,
    /// One row per K run, in order.
    pub rows: Vec<Row>,
}

/// Why a record could not be read back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LedgerError {
    /// The document is not valid JSON.
    Syntax {
        /// 1-based line of the parse failure.
        line: usize,
        /// 1-based column of the parse failure.
        col: usize,
        /// Parser diagnostic.
        reason: String,
    },
    /// The document parsed but a field is missing or malformed.
    Field {
        /// Path of the offending field, e.g. `rows[1].overflow`.
        field: String,
        /// What was wrong with it.
        reason: String,
    },
}

impl fmt::Display for LedgerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LedgerError::Syntax { line, col, reason } => {
                write!(f, "ledger: line {line}, col {col}: {reason}")
            }
            LedgerError::Field { field, reason } => {
                write!(f, "ledger: field \"{field}\": {reason}")
            }
        }
    }
}

impl std::error::Error for LedgerError {}

fn field_error(field: &str, reason: &str) -> LedgerError {
    LedgerError::Field { field: field.to_string(), reason: reason.to_string() }
}

fn parse(text: &str) -> Result<JsonValue, LedgerError> {
    JsonValue::parse(text).map_err(|e| LedgerError::Syntax {
        line: e.line,
        col: e.col,
        reason: e.reason,
    })
}

/// Half-perimeter wirelength of a mapped netlist's nets, from the same
/// pin model the router uses (driver, cell sinks, primary-output pins).
pub fn mapped_hpwl(nl: &MappedNetlist) -> f64 {
    let mut total = 0.0;
    for net in nl.nets() {
        let mut pins: Vec<Point> = vec![nl.signal_pos(net.driver)];
        for (c, _) in &net.sinks {
            pins.push(nl.cells()[*c as usize].pos);
        }
        for o in &net.po_sinks {
            pins.push(nl.output_pos(*o));
        }
        total += hpwl(&pins);
    }
    total
}

/// The one rule for a file named after a job or design: anything but
/// letters, digits, `-` and `_` becomes `_`, so a name such as
/// `../x` can never leave the directory it is written to.
pub fn safe_stem(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_alphanumeric() || c == '-' || c == '_' { c } else { '_' })
        .collect()
}

/// One field of the stable projection, in the form the content hash
/// canonicalizes it ([`KeyBuilder`]).
#[derive(Debug, Clone, Copy, PartialEq)]
enum Stable<'a> {
    Str(&'a str),
    Hash(u64),
    Int(u64),
    Num(f64),
    Bool(bool),
    Nums(&'a [f64]),
}

impl Stable<'_> {
    fn add_to(self, b: KeyBuilder) -> KeyBuilder {
        match self {
            Stable::Str(v) => b.str(v),
            Stable::Hash(v) => b.hash(v),
            Stable::Int(v) => b.int(v),
            Stable::Num(v) => b.num(v),
            Stable::Bool(v) => b.bool(v),
            Stable::Nums(v) => b.nums(v),
        }
    }
}

impl fmt::Display for Stable<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Stable::Str(v) => f.write_str(v),
            Stable::Hash(v) => write!(f, "{v:016x}"),
            Stable::Int(v) => write!(f, "{v}"),
            Stable::Num(v) => write!(f, "{v}"),
            Stable::Bool(v) => write!(f, "{v}"),
            Stable::Nums(v) => write!(f, "{v:?}"),
        }
    }
}

impl Row {
    /// Summarizes one flow result at weight `k`.
    pub fn from_result(k: f64, r: &FlowResult) -> Row {
        let t = &r.telemetry;
        Row {
            k,
            cell_area: r.cell_area,
            num_cells: r.num_cells,
            utilization_pct: r.utilization_pct,
            violations: r.route.violations,
            overflow: r.route.overflow,
            route_iterations: r.route.iterations,
            wirelength_um: r.route.total_wirelength,
            hpwl_um: mapped_hpwl(&r.netlist),
            critical_ns: r.sta.critical_arrival(),
            total_ms: t.total_ms,
            peak_live_nodes: t.peak_live_nodes,
            stages: t.stages.iter().map(|s| (s.stage.clone(), s.wall_ms)).collect(),
        }
    }

    /// The quality fields, in content-hash order (K first).
    fn quality(&self) -> [(&'static str, Stable<'_>); 10] {
        use Stable::{Int, Num};
        [
            ("k", Num(self.k)),
            ("cell_area", Num(self.cell_area)),
            ("num_cells", Int(self.num_cells as u64)),
            ("utilization_pct", Num(self.utilization_pct)),
            ("violations", Int(self.violations as u64)),
            ("overflow", Num(self.overflow)),
            ("route_iterations", Int(self.route_iterations as u64)),
            ("wirelength_um", Num(self.wirelength_um)),
            ("hpwl_um", Num(self.hpwl_um)),
            ("critical_ns", Num(self.critical_ns)),
        ]
    }

    /// The row as JSON: the quality fields, then `telemetry` with
    /// `total_ms`, `peak_live_nodes` and per stage `stage` and `wall_ms`.
    pub fn to_json(&self) -> JsonValue {
        let mut doc: Vec<(String, JsonValue)> = self
            .quality()
            .into_iter()
            .map(|(name, v)| {
                let n = match v {
                    Stable::Int(n) => n as f64,
                    Stable::Num(n) => n,
                    _ => unreachable!("a row's quality fields are numbers"),
                };
                (name.to_string(), JsonValue::Number(n))
            })
            .collect();
        let stages = self
            .stages
            .iter()
            .map(|(stage, wall_ms)| {
                JsonValue::object(vec![
                    ("stage".into(), JsonValue::Str(stage.clone())),
                    ("wall_ms".into(), JsonValue::Number(*wall_ms)),
                ])
            })
            .collect();
        doc.push((
            "telemetry".into(),
            JsonValue::object(vec![
                ("total_ms".into(), JsonValue::Number(self.total_ms)),
                ("peak_live_nodes".into(), JsonValue::Number(self.peak_live_nodes as f64)),
                ("stages".into(), JsonValue::Array(stages)),
            ]),
        ));
        JsonValue::Object(doc)
    }

    /// Reads a row back; `at` names it in errors (`rows[1]`). A row of a
    /// ledger record written before rows carried `telemetry` keeps its
    /// `stages` at the top level, and reads with no total or peak.
    fn from_json(v: &JsonValue, at: &str) -> Result<Row, LedgerError> {
        let num = |obj: &JsonValue, name: &str| {
            obj.get(name).and_then(JsonValue::as_f64).filter(|x| x.is_finite()).ok_or_else(|| {
                field_error(&format!("{at}.{name}"), "missing or not a finite number")
            })
        };
        let t = v.get("telemetry");
        let stages = t
            .unwrap_or(v)
            .get("stages")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| field_error(&format!("{at}.stages"), "missing or not an array"))?
            .iter()
            .map(|s| {
                let stage = s.get("stage").and_then(JsonValue::as_str).ok_or_else(|| {
                    field_error(&format!("{at}.stages.stage"), "missing or not a string")
                })?;
                Ok((stage.to_string(), num(s, "wall_ms")?))
            })
            .collect::<Result<_, LedgerError>>()?;
        let opt = |name: &str| t.and_then(|t| t.get(name)).and_then(JsonValue::as_f64);
        Ok(Row {
            k: num(v, "k")?,
            cell_area: num(v, "cell_area")?,
            num_cells: num(v, "num_cells")? as usize,
            utilization_pct: num(v, "utilization_pct")?,
            violations: num(v, "violations")? as usize,
            overflow: num(v, "overflow")?,
            route_iterations: num(v, "route_iterations")? as usize,
            wirelength_um: num(v, "wirelength_um")?,
            hpwl_um: num(v, "hpwl_um")?,
            critical_ns: num(v, "critical_ns")?,
            total_ms: opt("total_ms").unwrap_or(0.0),
            peak_live_nodes: opt("peak_live_nodes").unwrap_or(0.0) as usize,
            stages,
        })
    }
}

impl JobRecord {
    /// The record of `job` before it runs: its identity and parameters,
    /// status ok, no attempts and no rows.
    pub fn new(job: ManifestJob, design_hash: u64, scheme: &str) -> JobRecord {
        JobRecord {
            job,
            design_hash,
            scheme: scheme.to_string(),
            error: None,
            attempts: 0,
            degraded: false,
            wall_ms: 0.0,
            trace_path: None,
            rows: Vec::new(),
        }
    }

    /// This record with the outcome of a batch run of its job.
    pub fn finished(&self, jr: &BatchJobReport) -> JobRecord {
        let mut rec = self.clone();
        (rec.attempts, rec.wall_ms) = (jr.attempts, jr.wall_ms);
        match &jr.outcome {
            Ok(s) => {
                rec.rows = s.rows.iter().map(|e| Row::from_result(e.k, &e.result)).collect();
                rec.degraded = s.degraded;
            }
            Err(e) => rec.error = Some(e.clone()),
        }
        rec
    }

    /// What the job is: its identity and parameters, the first half of
    /// the stable projection, in content-hash order.
    fn identity(&self) -> [(&'static str, Stable<'_>); 8] {
        use Stable::{Bool, Hash, Int, Num, Nums, Str};
        let j = &self.job;
        [
            ("name", Str(&j.name)),
            ("design_hash", Hash(self.design_hash)),
            ("scheme", Str(&self.scheme)),
            // the placer's name, from when there were two: records keep
            // the addresses they had
            ("placer", Str("kway")),
            ("layers", Int(j.layers as u64)),
            ("util", Num(j.util)),
            ("optimize", Bool(j.optimize)),
            ("ks", Nums(&j.ks)),
        ]
    }

    /// The key `casyn batch --resume` matches on: a hash of the job's
    /// identity and parameters (name, design bytes, scheme, layers,
    /// utilization, optimization, K list), so an entry that changed any
    /// of them re-runs.
    pub fn job_key(&self) -> u64 {
        self.identity()
            .into_iter()
            .fold(KeyBuilder::new("casyn.run.v1"), |b, (_, v)| v.add_to(b))
            .finish()
    }

    /// The content address: FNV-1a over the stable projection, the
    /// identity and parameters and then per row its quality fields and
    /// stage names, excluding every wall-clock reading. Identical-input
    /// runs of a deterministic build hash identically. Derivation lives
    /// in [`crate::content_key`], shared with the serve artifact cache.
    pub fn content_hash(&self) -> u64 {
        let mut b = KeyBuilder::new("casyn.run.v1");
        for (_, v) in self.identity() {
            b = v.add_to(b);
        }
        for r in &self.rows {
            for (_, v) in r.quality() {
                b = v.add_to(b);
            }
            // stage names are stable (the pipeline shape), readings are not
            b = b.int(r.stages.len() as u64);
            for (stage, _) in &r.stages {
                b = b.str(stage);
            }
        }
        b.finish()
    }

    /// The record's fields: the manifest entry's (as
    /// [`ManifestJob::to_json`] writes them), then `design_hash` (hex:
    /// JSON numbers lose u64 precision past 2⁵³), `scheme`, `status`,
    /// `error`, `attempts`, `degraded`, `wall_ms`, `trace_path` and
    /// `rows`.
    fn fields(&self) -> Vec<(String, JsonValue)> {
        let mut doc = match self.job.to_json() {
            JsonValue::Object(fields) => fields,
            _ => unreachable!("a manifest entry serializes as an object"),
        };
        let status = if self.error.is_some() { "error" } else { "ok" };
        doc.push(("design_hash".into(), JsonValue::Str(format!("{:016x}", self.design_hash))));
        doc.push(("scheme".into(), JsonValue::Str(self.scheme.clone())));
        doc.push(("status".into(), JsonValue::Str(status.into())));
        if let Some(e) = &self.error {
            doc.push(("error".into(), e.to_json()));
        }
        doc.push(("attempts".into(), JsonValue::Number(self.attempts as f64)));
        doc.push(("degraded".into(), JsonValue::Bool(self.degraded)));
        doc.push(("wall_ms".into(), JsonValue::Number(self.wall_ms)));
        if let Some(p) = &self.trace_path {
            doc.push(("trace_path".into(), JsonValue::Str(p.clone())));
        }
        doc.push(("rows".into(), JsonValue::Array(self.rows.iter().map(Row::to_json).collect())));
        doc
    }

    /// The record as one `casyn.batch.v1` job entry.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::Object(self.fields())
    }

    /// The crash bundle of a failed job: a one-record `casyn.batch.v1`
    /// document whose top level is the record itself (its `error`, its
    /// effective `fault_plan`, its parameters) and whose `jobs` holds the
    /// record again, so the bundle is also a manifest: `casyn batch
    /// <bundle>` replays the failure.
    pub fn bundle_json(&self) -> JsonValue {
        let mut doc = vec![("schema".into(), JsonValue::Str(BATCH_SCHEMA.into()))];
        doc.extend(self.fields());
        doc.push(("jobs".into(), JsonValue::Array(vec![self.to_json()])));
        JsonValue::Object(doc)
    }

    /// Reads a record back: a `casyn.batch.v1` job entry, a
    /// `casyn.run.v1` ledger record, or a ledger record written before
    /// records held their manifest entry (design name, `params` and
    /// rows; it reads as a job whose design path is its name).
    pub fn from_json(text: &str) -> Result<JobRecord, LedgerError> {
        let doc = parse(text)?;
        match doc.get("schema").map(|s| s.as_str()) {
            None | Some(Some("casyn.run.v1")) => JobRecord::read(&doc),
            Some(s) => Err(field_error(
                "schema",
                &format!("expected \"casyn.run.v1\", got {}", s.unwrap_or("a non-string")),
            )),
        }
    }

    fn read(doc: &JsonValue) -> Result<JobRecord, LedgerError> {
        // a record written before records held their manifest entry keeps
        // its parameters under `params` and names the design by its stem
        let entry = match doc.get("params") {
            Some(JsonValue::Object(params)) => {
                let name = doc.get("design").cloned().unwrap_or(JsonValue::Null);
                let util = |k: &str| if k == "target_utilization" { "util" } else { k }.to_string();
                let fields = params.iter().map(|(k, v)| (util(k), v.clone()));
                let ident = [("name".into(), name.clone()), ("design".into(), name)];
                JsonValue::Object(fields.chain(ident).collect())
            }
            _ => doc.clone(),
        };
        let str_of = |name: &str| {
            entry
                .get(name)
                .or_else(|| doc.get(name))
                .and_then(JsonValue::as_str)
                .ok_or_else(|| field_error(name, "missing or not a string"))
        };
        let design_hash = u64::from_str_radix(str_of("design_hash")?, 16)
            .map_err(|_| field_error("design_hash", "not a hex integer"))?;
        let scheme = str_of("scheme")?.to_string();
        let error = doc.get("error").map(|e| {
            FlowError::from_json(e)
                .ok_or_else(|| field_error("error", "not a stage, kind and detail"))
        });
        let job =
            parse_manifest_value(&JsonValue::Array(vec![entry]), &ManifestDefaults::default())
                .map_err(|e| field_error("job", &e))?
                .remove(0);
        let rows = doc
            .get("rows")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| field_error("rows", "missing or not an array"))?
            .iter()
            .enumerate()
            .map(|(i, r)| Row::from_json(r, &format!("rows[{i}]")))
            .collect::<Result<_, _>>()?;
        // a ledger record of an older build ran once and kept no wall clock
        let num = |name: &str, or: f64| doc.get(name).and_then(JsonValue::as_f64).unwrap_or(or);
        Ok(JobRecord {
            job,
            design_hash,
            scheme,
            error: error.transpose()?,
            attempts: num("attempts", 1.0) as u32,
            degraded: doc.get("degraded").and_then(JsonValue::as_bool).unwrap_or(false),
            wall_ms: num("wall_ms", 0.0),
            trace_path: doc.get("trace_path").and_then(JsonValue::as_str).map(str::to_string),
            rows,
        })
    }

    /// Appends the record to a ledger directory as a `casyn.run.v1`
    /// document, `<name>-<content-hash>.json`, creating the directory if
    /// needed. The write goes through [`crate::durable::write_atomic`]
    /// (write-then-fsync-then-rename); re-appending an identical run
    /// rewrites the same address and is idempotent. Returns the record's
    /// path.
    pub fn append(&self, dir: &Path) -> io::Result<PathBuf> {
        fs::create_dir_all(dir)?;
        let hash = self.content_hash();
        let path = dir.join(format!("{}-{hash:016x}.json", safe_stem(&self.job.name)));
        let mut doc = vec![
            ("schema".into(), JsonValue::Str("casyn.run.v1".into())),
            ("content_hash".into(), JsonValue::Str(format!("{hash:016x}"))),
        ];
        doc.extend(self.fields());
        let text = JsonValue::Object(doc).to_string_pretty() + "\n";
        crate::durable::write_atomic(&path, text.as_bytes())?;
        Ok(path)
    }

    /// Reads a record from a file previously written by
    /// [`JobRecord::append`] (or any `casyn.run.v1` document).
    pub fn load(path: &Path) -> Result<JobRecord, LedgerError> {
        let text = fs::read_to_string(path).map_err(|e| LedgerError::Field {
            field: path.display().to_string(),
            reason: format!("unreadable: {e}"),
        })?;
        JobRecord::from_json(&text)
    }
}

/// A `casyn.batch.v1` document over `records`: the pool's worker count,
/// the batch wall clock, the ok / failed / degraded counts, and the
/// records as `jobs`. A running batch's checkpoint is the same document
/// over the records finished so far.
pub fn batch_json(records: &[JobRecord], workers: usize, wall_ms: f64) -> JsonValue {
    let failed = records.iter().filter(|r| r.error.is_some()).count();
    let degraded = records.iter().filter(|r| r.degraded).count();
    let count = |n: usize| JsonValue::Number(n as f64);
    JsonValue::object(vec![
        ("schema".into(), JsonValue::Str(BATCH_SCHEMA.into())),
        ("workers".into(), count(workers)),
        ("wall_ms".into(), JsonValue::Number(wall_ms)),
        ("jobs_ok".into(), count(records.len() - failed)),
        ("jobs_failed".into(), count(failed)),
        ("jobs_degraded".into(), count(degraded)),
        ("jobs".into(), JsonValue::Array(records.iter().map(JobRecord::to_json).collect())),
    ])
}

/// Reads the job entries of a `casyn.batch.v1` document (a report, a
/// checkpoint or a crash bundle), or of the `casyn.checkpoint.v1` an
/// older batch left behind. Each entry reads on its own: one that does
/// not parse as a [`JobRecord`] (such as an older entry, which does not
/// say what it ran) is an error in its slot, not for the document.
pub fn read_batch(text: &str) -> Result<Vec<Result<JobRecord, LedgerError>>, LedgerError> {
    let doc = parse(text)?;
    let schema = doc.get("schema").and_then(JsonValue::as_str).unwrap_or("");
    if schema != BATCH_SCHEMA && schema != "casyn.checkpoint.v1" {
        return Err(field_error(
            "schema",
            &format!(
                "{schema:?} is not resumable (expected {BATCH_SCHEMA} or casyn.checkpoint.v1)"
            ),
        ));
    }
    let jobs = doc.get("jobs").and_then(JsonValue::as_array).unwrap_or(&[]);
    Ok(jobs.iter().map(JobRecord::read).collect())
}

/// The band a stage wall reading of a diff may stray from the other
/// run's without a note: up to `other × (1 + DIFF_RATIO) + DIFF_ABS_MS`
/// and down to `other / (1 + DIFF_RATIO) − DIFF_ABS_MS`. Generous:
/// cross-run wall noise is routinely 2× on small stages, and the absolute
/// slack absorbs timer noise on fast ones.
const DIFF_RATIO: f64 = 1.0;
const DIFF_ABS_MS: f64 = 5.0;

/// The outcome of comparing two [`JobRecord`]s.
#[derive(Debug, Clone, Default)]
pub struct RunDiff {
    /// Stable-projection mismatches — real differences between the runs.
    /// Non-empty means the runs diverged.
    pub deltas: Vec<String>,
    /// Stage wall readings outside the tolerance band — informational
    /// only, never a divergence by themselves.
    pub timing_notes: Vec<String>,
}

impl RunDiff {
    /// True when every stable field matched.
    pub fn is_clean(&self) -> bool {
        self.deltas.is_empty()
    }
}

/// Compares two records over their stable projection, field by field:
/// it must match exactly (the determinism contract says it is
/// bit-identical for identical inputs). Stage wall readings are held
/// only to a tolerance band.
pub fn diff_records(a: &JobRecord, b: &JobRecord) -> RunDiff {
    let mut d = RunDiff::default();
    let mut delta = |name: &str, av: &dyn fmt::Display, bv: &dyn fmt::Display| {
        d.deltas.push(format!("{name}: {av} != {bv}"));
    };
    for ((name, av), (_, bv)) in a.identity().into_iter().zip(b.identity()) {
        if av != bv {
            delta(name, &av, &bv);
        }
    }
    if a.rows.len() != b.rows.len() {
        delta("rows", &a.rows.len(), &b.rows.len());
    }
    for (ra, rb) in a.rows.iter().zip(&b.rows) {
        let k = ra.k;
        if ra.k != rb.k {
            delta("row k", &ra.k, &rb.k);
            continue;
        }
        for ((name, av), (_, bv)) in ra.quality().into_iter().zip(rb.quality()) {
            if av != bv {
                delta(&format!("k={k} {name}"), &av, &bv);
            }
        }
        // stage names are the pipeline's shape: a change is a delta
        let names =
            |r: &Row| r.stages.iter().map(|(s, _)| s.as_str()).collect::<Vec<_>>().join(",");
        if names(ra) != names(rb) {
            delta(&format!("k={k} stages"), &names(ra), &names(rb));
            continue;
        }
        for ((stage, wa), (_, wb)) in ra.stages.iter().zip(&rb.stages) {
            let hi = wb * (1.0 + DIFF_RATIO) + DIFF_ABS_MS;
            let lo = (wb / (1.0 + DIFF_RATIO) - DIFF_ABS_MS).max(0.0);
            if *wa > hi || *wa < lo {
                d.timing_notes.push(format!(
                    "k={k} {stage}: wall {wa:.3} ms vs {wb:.3} ms (band ±{:.0}% + {} ms)",
                    100.0 * DIFF_RATIO,
                    DIFF_ABS_MS
                ));
            }
        }
    }
    d
}

/// Formats a diff for the terminal: `!` marks stable deltas, `~` marks
/// tolerance-band timing notes, and the verdict line states the delta
/// count (`0 stable deltas` is the determinism smoke's pass condition).
pub fn format_diff(a_name: &str, b_name: &str, d: &RunDiff) -> String {
    let mut s = String::new();
    s.push_str(&format!("diff {a_name} vs {b_name}\n"));
    for line in &d.deltas {
        s.push_str(&format!("  ! {line}\n"));
    }
    for line in &d.timing_notes {
        s.push_str(&format!("  ~ {line}\n"));
    }
    s.push_str(&format!(
        "{} stable deltas, {} timing notes\n",
        d.deltas.len(),
        d.timing_notes.len()
    ));
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    // the pinned-address test below predates the record's rename
    use super::JobRecord as RunRecord;
    use crate::flows::{congestion_flow, FlowOptions};
    use casyn_netlist::bench::{random_pla, PlaGenConfig};

    fn job(name: &str, ks: &[f64]) -> ManifestJob {
        let doc = JsonValue::parse(&format!(
            r#"[{{"name": "{name}", "design": "{name}", "ks": {ks:?}, "util": 0.611}}]"#
        ))
        .unwrap();
        parse_manifest_value(&doc, &ManifestDefaults::default()).unwrap().remove(0)
    }

    fn record() -> RunRecord {
        let net = random_pla(&PlaGenConfig {
            inputs: 8,
            outputs: 4,
            terms: 16,
            min_literals: 2,
            max_literals: 4,
            mean_outputs_per_term: 1.3,
            seed: 3,
        })
        .to_network();
        let r = congestion_flow(&net, 0.001, &FlowOptions::default()).unwrap();
        let mut rec = JobRecord::new(job("t8", &[0.001]), fnv1a64(b"design-bytes"), "congestion");
        rec.attempts = 1;
        rec.rows = vec![Row::from_result(0.001, &r)];
        rec
    }

    #[test]
    fn the_fixed_record_keeps_its_address() {
        // recorded while records still named one of two placers: an
        // existing ledger still resolves, and its records still parse
        assert_eq!(record().content_hash(), 0x3331_accd_8e43_3207);
        let old = record().to_json().to_string_pretty();
        let old = old.replacen(
            r#""scheme": "congestion""#,
            r#""scheme": "congestion", "placer": "kway""#,
            1,
        );
        assert!(old.contains("placer"));
        assert_eq!(RunRecord::from_json(&old).unwrap().content_hash(), 0x3331_accd_8e43_3207);
    }

    #[test]
    fn fnv_vectors() {
        // standard FNV-1a test vectors
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn record_round_trips_through_json() {
        let mut rec = record();
        rec.trace_path = Some("traces/t8.trace.json".into());
        rec.job.fault_plan = Some("map:panic:1".into());
        let back = JobRecord::from_json(&rec.to_json().to_string_pretty()).unwrap();
        assert_eq!(back, rec);
        assert_eq!(back.content_hash(), rec.content_hash());
        rec.error = Some(FlowError::bad_input(crate::Stage::Map, "no"));
        rec.rows.clear();
        let text = rec.to_json().to_string_pretty();
        assert!(text.contains(r#""status": "error""#), "{text}");
        assert_eq!(JobRecord::from_json(&text).unwrap(), rec);
    }

    #[test]
    fn append_is_content_addressed_and_idempotent() {
        let rec = record();
        let dir = std::env::temp_dir().join(format!("casyn-ledger-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let p1 = rec.append(&dir).unwrap();
        let p2 = rec.append(&dir).unwrap();
        assert_eq!(p1, p2);
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 1);
        assert_eq!(JobRecord::load(&p1).unwrap(), rec);
        assert!(p1.file_name().unwrap().to_string_lossy().starts_with("t8-3331accd8e433207"));
        let text = fs::read_to_string(&p1).unwrap();
        assert!(
            text.starts_with("{\n  \"schema\": \"casyn.run.v1\",\n  \"content_hash\""),
            "{text}"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn content_hash_ignores_timing_but_not_results() {
        let rec = record();
        let h = rec.content_hash();
        let mut noisy = rec.clone();
        noisy.wall_ms += 99.0;
        for r in &mut noisy.rows {
            r.total_ms *= 3.0;
            for s in &mut r.stages {
                s.1 *= 7.0;
            }
        }
        assert_eq!(noisy.content_hash(), h, "timing noise must not move the address");
        assert_eq!(noisy.job_key(), rec.job_key());
        let mut changed = rec.clone();
        changed.rows[0].overflow += 1.0;
        assert_ne!(changed.content_hash(), h, "a result change must move the address");
        assert_eq!(changed.job_key(), rec.job_key(), "the job key is what ran, not its rows");
        let mut reparam = rec.clone();
        reparam.job.layers += 1;
        assert_ne!(reparam.content_hash(), h);
        assert_ne!(reparam.job_key(), rec.job_key());
        let mut other_design = rec;
        other_design.design_hash ^= 1;
        assert_ne!(other_design.job_key(), reparam.job_key());
    }

    #[test]
    fn identical_records_diff_clean() {
        let rec = record();
        let d = diff_records(&rec, &rec.clone());
        assert!(d.is_clean());
        assert!(d.timing_notes.is_empty());
        let out = format_diff("a", "b", &d);
        assert!(out.contains("0 stable deltas"), "{out}");
    }

    #[test]
    fn stable_mismatch_is_a_delta_timing_noise_is_a_note() {
        let rec = record();
        let mut other = rec.clone();
        other.rows[0].violations += 3;
        other.rows[0].stages[0].1 = rec.rows[0].stages[0].1 * 100.0 + 1000.0;
        let d = diff_records(&rec, &other);
        assert!(!d.is_clean());
        assert_eq!(d.deltas.len(), 1, "{:?}", d.deltas);
        assert!(d.deltas[0].contains("violations"));
        assert_eq!(d.timing_notes.len(), 1, "{:?}", d.timing_notes);
        let out = format_diff("a", "b", &d);
        assert!(out.contains("  ! "), "{out}");
        assert!(out.contains("  ~ "), "{out}");
    }

    #[test]
    fn shape_changes_are_deltas() {
        let rec = record();
        let mut other = rec.clone();
        other.rows[0].stages[0].0 = "renamed".into();
        let d = diff_records(&rec, &other);
        assert!(!d.is_clean());
        let mut shorter = rec.clone();
        shorter.rows.clear();
        let d = diff_records(&rec, &shorter);
        assert!(d.deltas.iter().any(|l| l.starts_with("rows:")), "{:?}", d.deltas);
        let mut rescheme = rec.clone();
        rescheme.scheme = "cone".into();
        rescheme.job.ks = vec![0.5];
        let d = diff_records(&rec, &rescheme);
        assert_eq!(d.deltas, ["scheme: congestion != cone", "ks: [0.001] != [0.5]"]);
    }

    #[test]
    fn hpwl_is_positive_for_routed_designs() {
        let rec = record();
        assert!(rec.rows[0].hpwl_um > 0.0);
    }

    #[test]
    fn ledger_error_diagnostics() {
        let e = JobRecord::from_json("{oops").unwrap_err();
        assert!(matches!(e, LedgerError::Syntax { .. }));
        let e = JobRecord::from_json("{\"schema\": \"casyn.run.v2\"}").unwrap_err();
        assert!(matches!(&e, LedgerError::Field { field, .. } if field == "schema"), "{e}");
        let rec = record();
        let text = rec.to_json().to_string_pretty().replace("\"overflow\"", "\"oveflow\"");
        let e = JobRecord::from_json(&text).unwrap_err();
        assert!(e.to_string().contains("overflow"), "{e}");
    }

    #[test]
    fn a_batch_document_reads_back_entry_by_entry() {
        let ok = record();
        let mut failed = record();
        failed.job.name = "bad".into();
        failed.error = Some(FlowError::bad_input(crate::Stage::Batch, "cannot read"));
        failed.rows.clear();
        let doc = batch_json(&[ok.clone(), failed.clone()], 2, 10.0);
        assert_eq!(doc.get("jobs_ok").and_then(JsonValue::as_f64), Some(1.0));
        assert_eq!(doc.get("jobs_failed").and_then(JsonValue::as_f64), Some(1.0));
        let mut text = doc.to_string_pretty();
        let read = read_batch(&text).unwrap();
        assert_eq!(read, vec![Ok(ok.clone()), Ok(failed.clone())]);
        // an older checkpoint's entry does not say what it ran
        text = text.replacen(BATCH_SCHEMA, "casyn.checkpoint.v1", 1).replacen(
            r#""jobs": ["#,
            r#""jobs": [{"name": "a", "design": "a.pla", "status": "ok", "rows": []},"#,
            1,
        );
        let read = read_batch(&text).unwrap();
        assert_eq!(read.len(), 3);
        assert!(read[0].is_err() && read[1] == Ok(ok));
        // a crash bundle is a batch document too
        let bundle = failed.bundle_json().to_string_pretty();
        assert_eq!(read_batch(&bundle).unwrap(), vec![Ok(failed)]);
        let e = read_batch(r#"{"schema": "casyn.telemetry.v1", "jobs": []}"#).unwrap_err();
        assert!(e.to_string().contains("not resumable"), "{e}");
    }

    #[test]
    fn file_stems_stay_in_their_directory() {
        assert_eq!(safe_stem("../escaped"), "___escaped");
        assert_eq!(safe_stem("a/b\\c"), "a_b_c");
        assert_eq!(safe_stem("ok-name_1"), "ok-name_1");
    }
}
