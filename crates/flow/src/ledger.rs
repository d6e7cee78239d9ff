//! The run ledger: content-addressed `casyn.run.v1` records of flow
//! invocations, and the cross-run diff behind `casyn diff`.
//!
//! Single-run artifacts (telemetry, traces, heat maps) answer "what did
//! this run do"; the ledger answers "what changed between runs". Every
//! flow or batch invocation can append one [`RunRecord`] — design
//! identity, parameters, the per-K quality metrics of the paper's
//! tables, and per-stage wall/allocation telemetry — to a ledger
//! directory. Records are content-addressed: the file name embeds an
//! FNV-1a hash of the *stable* fields (everything except wall-clock and
//! allocator readings), so two runs of the same design with the same
//! parameters and bit-identical results land on the same address, and
//! any divergence is visible in the directory listing before any diff
//! runs.
//!
//! [`diff_records`] compares two records field by field. Stable fields
//! (areas, violations, overflow, iterations, wirelength, HPWL, timing
//! arrival) must match exactly — the determinism contract says they are
//! bit-identical for identical inputs — and every mismatch is a *delta*.
//! Wall-clock and allocation figures are machine noise, so they are
//! compared against a tolerance band and reported separately as
//! informational *timing notes* that never fail a diff.

use crate::content_key::KeyBuilder;
use crate::flows::FlowResult;
use crate::sweep::KSweepEntry;
use crate::telemetry::FlowTelemetry;
use casyn_netlist::mapped::MappedNetlist;
use casyn_netlist::Point;
use casyn_obs::json::JsonValue;
use casyn_place::metrics::hpwl;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub use crate::content_key::fnv1a64;

/// The parameters that identify a run configuration. Part of the
/// content hash: two runs with different parameters never share an
/// address.
#[derive(Debug, Clone, PartialEq)]
pub struct RunParams {
    /// Mapping scheme (`congestion`, `dagon`, `sis`).
    pub scheme: String,
    /// Metal layers available for routing.
    pub layers: usize,
    /// Target area utilization used to derive the floorplan.
    pub target_utilization: f64,
    /// The K values run, in order.
    pub ks: Vec<f64>,
    /// Whether technology-independent optimization ran.
    pub optimize: bool,
}

/// One stage's telemetry inside a [`RunRow`]. Wall and allocation
/// figures are machine noise: excluded from the content hash, compared
/// only against the tolerance band.
#[derive(Debug, Clone, PartialEq)]
pub struct StageRow {
    /// Stage name (`place`, `map`, `route`, …).
    pub stage: String,
    /// Wall-clock milliseconds.
    pub wall_ms: f64,
    /// Bytes allocated during the stage.
    pub alloc_bytes: u64,
    /// Peak live bytes during the stage.
    pub peak_bytes: u64,
}

/// The outcome of one flow run (one K value) inside a [`RunRecord`].
#[derive(Debug, Clone, PartialEq)]
pub struct RunRow {
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
    /// Per-stage telemetry (timing-band fields only).
    pub stages: Vec<StageRow>,
}

/// One ledger entry: a flow/batch invocation over one design.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// Design name (file stem or batch job name).
    pub design: String,
    /// FNV-1a hash of the design source bytes.
    pub design_hash: u64,
    /// Run configuration.
    pub params: RunParams,
    /// One row per K value run.
    pub rows: Vec<RunRow>,
}

/// Why a ledger record could not be read back.
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

fn stage_rows(t: &FlowTelemetry) -> Vec<StageRow> {
    t.stages
        .iter()
        .map(|s| StageRow {
            stage: s.stage.clone(),
            wall_ms: s.wall_ms,
            alloc_bytes: s.alloc_bytes,
            peak_bytes: s.peak_bytes,
        })
        .collect()
}

impl RunRow {
    /// Summarizes one flow result at weight `k`.
    pub fn from_result(k: f64, r: &FlowResult) -> RunRow {
        RunRow {
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
            stages: stage_rows(&r.telemetry),
        }
    }
}

impl RunRecord {
    /// Builds a record from K-sweep entries (a single flow run is a
    /// one-entry sweep).
    pub fn from_sweep(
        design: &str,
        design_hash: u64,
        params: RunParams,
        rows: &[KSweepEntry],
    ) -> RunRecord {
        RunRecord {
            design: design.to_string(),
            design_hash,
            params,
            rows: rows.iter().map(|e| RunRow::from_result(e.k, &e.result)).collect(),
        }
    }

    /// The content address: FNV-1a over the stable fields (design
    /// identity, parameters, quality metrics), excluding wall-clock and
    /// allocation telemetry. Identical-input runs of a deterministic
    /// build hash identically. Derivation lives in
    /// [`crate::content_key`], shared with the serve artifact cache.
    pub fn content_hash(&self) -> u64 {
        let p = &self.params;
        let mut b = KeyBuilder::new("casyn.run.v1")
            .str(&self.design)
            .hash(self.design_hash)
            .str(&p.scheme)
            // the placer's name, from when there were two: records keep
            // the addresses they had
            .str("kway")
            .int(p.layers as u64)
            .num(p.target_utilization)
            .bool(p.optimize)
            .nums(&p.ks);
        for r in &self.rows {
            b = b
                .num(r.k)
                .num(r.cell_area)
                .int(r.num_cells as u64)
                .num(r.utilization_pct)
                .int(r.violations as u64)
                .num(r.overflow)
                .int(r.route_iterations as u64)
                .num(r.wirelength_um)
                .num(r.hpwl_um)
                .num(r.critical_ns);
            // stage names are stable (the pipeline shape), readings are not
            b = b.int(r.stages.len() as u64);
            for s in &r.stages {
                b = b.str(&s.stage);
            }
        }
        b.finish()
    }

    /// Serializes the record as a `casyn.run.v1` document. Hashes are
    /// hex strings (JSON numbers lose u64 precision past 2⁵³).
    pub fn to_json(&self) -> JsonValue {
        let params = JsonValue::object(vec![
            ("scheme".into(), JsonValue::Str(self.params.scheme.clone())),
            ("layers".into(), JsonValue::Number(self.params.layers as f64)),
            ("target_utilization".into(), JsonValue::Number(self.params.target_utilization)),
            (
                "ks".into(),
                JsonValue::Array(self.params.ks.iter().map(|&k| JsonValue::Number(k)).collect()),
            ),
            ("optimize".into(), JsonValue::Bool(self.params.optimize)),
        ]);
        let rows = self
            .rows
            .iter()
            .map(|r| {
                JsonValue::object(vec![
                    ("k".into(), JsonValue::Number(r.k)),
                    ("cell_area".into(), JsonValue::Number(r.cell_area)),
                    ("num_cells".into(), JsonValue::Number(r.num_cells as f64)),
                    ("utilization_pct".into(), JsonValue::Number(r.utilization_pct)),
                    ("violations".into(), JsonValue::Number(r.violations as f64)),
                    ("overflow".into(), JsonValue::Number(r.overflow)),
                    ("route_iterations".into(), JsonValue::Number(r.route_iterations as f64)),
                    ("wirelength_um".into(), JsonValue::Number(r.wirelength_um)),
                    ("hpwl_um".into(), JsonValue::Number(r.hpwl_um)),
                    ("critical_ns".into(), JsonValue::Number(r.critical_ns)),
                    (
                        "stages".into(),
                        JsonValue::Array(
                            r.stages
                                .iter()
                                .map(|s| {
                                    JsonValue::object(vec![
                                        ("stage".into(), JsonValue::Str(s.stage.clone())),
                                        ("wall_ms".into(), JsonValue::Number(s.wall_ms)),
                                        (
                                            "alloc_bytes".into(),
                                            JsonValue::Number(s.alloc_bytes as f64),
                                        ),
                                        (
                                            "peak_bytes".into(),
                                            JsonValue::Number(s.peak_bytes as f64),
                                        ),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect();
        JsonValue::object(vec![
            ("schema".into(), JsonValue::Str("casyn.run.v1".into())),
            ("design".into(), JsonValue::Str(self.design.clone())),
            ("design_hash".into(), JsonValue::Str(format!("{:016x}", self.design_hash))),
            ("content_hash".into(), JsonValue::Str(format!("{:016x}", self.content_hash()))),
            ("params".into(), params),
            ("rows".into(), JsonValue::Array(rows)),
        ])
    }

    /// Reads a `casyn.run.v1` document back — the inverse of
    /// [`RunRecord::to_json`].
    pub fn from_json(text: &str) -> Result<RunRecord, LedgerError> {
        let doc = JsonValue::parse(text).map_err(|e| LedgerError::Syntax {
            line: e.line,
            col: e.col,
            reason: e.reason,
        })?;
        let field = |name: &str, reason: &str| LedgerError::Field {
            field: name.to_string(),
            reason: reason.to_string(),
        };
        let str_of = |v: &JsonValue, name: &str| -> Result<String, LedgerError> {
            v.get(name)
                .and_then(|x| x.as_str())
                .map(str::to_string)
                .ok_or_else(|| field(name, "missing or not a string"))
        };
        let num_of = |v: &JsonValue, name: &str| -> Result<f64, LedgerError> {
            v.get(name)
                .and_then(|x| x.as_f64())
                .filter(|x| x.is_finite())
                .ok_or_else(|| field(name, "missing or not a finite number"))
        };
        let schema = str_of(&doc, "schema")?;
        if schema != "casyn.run.v1" {
            return Err(field("schema", &format!("expected \"casyn.run.v1\", got \"{schema}\"")));
        }
        let design = str_of(&doc, "design")?;
        let hash_text = str_of(&doc, "design_hash")?;
        let design_hash = u64::from_str_radix(&hash_text, 16)
            .map_err(|_| field("design_hash", "not a hex integer"))?;
        let p = doc.get("params").ok_or_else(|| field("params", "missing"))?;
        let ks = p
            .get("ks")
            .and_then(|v| v.as_array())
            .ok_or_else(|| field("params.ks", "missing or not an array"))?
            .iter()
            .enumerate()
            .map(|(i, v)| {
                v.as_f64().ok_or_else(|| field(&format!("params.ks[{i}]"), "not a number"))
            })
            .collect::<Result<Vec<f64>, _>>()?;
        let params = RunParams {
            scheme: str_of(p, "scheme")?,
            layers: num_of(p, "layers")? as usize,
            target_utilization: num_of(p, "target_utilization")?,
            ks,
            optimize: p
                .get("optimize")
                .and_then(|v| v.as_bool())
                .ok_or_else(|| field("params.optimize", "missing or not a bool"))?,
        };
        let rows_json = doc
            .get("rows")
            .and_then(|v| v.as_array())
            .ok_or_else(|| field("rows", "missing or not an array"))?;
        let mut rows = Vec::with_capacity(rows_json.len());
        for (i, r) in rows_json.iter().enumerate() {
            let at = |name: &str| format!("rows[{i}].{name}");
            let stages_json = r
                .get("stages")
                .and_then(|v| v.as_array())
                .ok_or_else(|| field(&at("stages"), "missing or not an array"))?;
            let mut stages = Vec::with_capacity(stages_json.len());
            for (j, s) in stages_json.iter().enumerate() {
                let sat = |name: &str| format!("rows[{i}].stages[{j}].{name}");
                stages.push(StageRow {
                    stage: s
                        .get("stage")
                        .and_then(|v| v.as_str())
                        .map(str::to_string)
                        .ok_or_else(|| field(&sat("stage"), "missing or not a string"))?,
                    wall_ms: s
                        .get("wall_ms")
                        .and_then(|v| v.as_f64())
                        .ok_or_else(|| field(&sat("wall_ms"), "missing or not a number"))?,
                    alloc_bytes: s.get("alloc_bytes").and_then(|v| v.as_f64()).unwrap_or(0.0)
                        as u64,
                    peak_bytes: s.get("peak_bytes").and_then(|v| v.as_f64()).unwrap_or(0.0) as u64,
                });
            }
            rows.push(RunRow {
                k: num_of(r, "k").map_err(|_| field(&at("k"), "missing or not a number"))?,
                cell_area: num_of(r, "cell_area")
                    .map_err(|_| field(&at("cell_area"), "missing or not a number"))?,
                num_cells: num_of(r, "num_cells")
                    .map_err(|_| field(&at("num_cells"), "missing or not a number"))?
                    as usize,
                utilization_pct: num_of(r, "utilization_pct")
                    .map_err(|_| field(&at("utilization_pct"), "missing or not a number"))?,
                violations: num_of(r, "violations")
                    .map_err(|_| field(&at("violations"), "missing or not a number"))?
                    as usize,
                overflow: num_of(r, "overflow")
                    .map_err(|_| field(&at("overflow"), "missing or not a number"))?,
                route_iterations: num_of(r, "route_iterations")
                    .map_err(|_| field(&at("route_iterations"), "missing or not a number"))?
                    as usize,
                wirelength_um: num_of(r, "wirelength_um")
                    .map_err(|_| field(&at("wirelength_um"), "missing or not a number"))?,
                hpwl_um: num_of(r, "hpwl_um")
                    .map_err(|_| field(&at("hpwl_um"), "missing or not a number"))?,
                critical_ns: num_of(r, "critical_ns")
                    .map_err(|_| field(&at("critical_ns"), "missing or not a number"))?,
                stages,
            });
        }
        Ok(RunRecord { design, design_hash, params, rows })
    }

    /// Appends the record to a ledger directory as
    /// `<design>-<content-hash>.json`, creating the directory if needed.
    /// The write goes through [`crate::durable::write_atomic`]
    /// (write-then-fsync-then-rename); re-appending an identical run
    /// rewrites the same address and is idempotent. Returns the
    /// record's path.
    pub fn append(&self, dir: &Path) -> io::Result<PathBuf> {
        fs::create_dir_all(dir)?;
        let name = format!("{}-{:016x}.json", sanitize(&self.design), self.content_hash());
        let path = dir.join(&name);
        let text = self.to_json().to_string_pretty() + "\n";
        crate::durable::write_atomic(&path, text.as_bytes())?;
        Ok(path)
    }

    /// Reads a record from a file previously written by
    /// [`RunRecord::append`] (or any `casyn.run.v1` document).
    pub fn load(path: &Path) -> Result<RunRecord, LedgerError> {
        let text = fs::read_to_string(path).map_err(|e| LedgerError::Field {
            field: path.display().to_string(),
            reason: format!("unreadable: {e}"),
        })?;
        RunRecord::from_json(&text)
    }
}

fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_alphanumeric() || c == '-' || c == '_' { c } else { '_' })
        .collect()
}

/// The tolerance band for the timing-noise fields of a diff. A reading
/// is an outlier when it exceeds `other × (1 + ratio) + abs`.
#[derive(Debug, Clone, Copy)]
pub struct DiffTolerance {
    /// Relative band on wall/alloc readings.
    pub ratio: f64,
    /// Absolute slack in milliseconds (absorbs timer noise on fast
    /// stages).
    pub abs_ms: f64,
    /// Absolute slack in bytes.
    pub abs_bytes: f64,
}

impl Default for DiffTolerance {
    fn default() -> Self {
        // generous: cross-run wall noise is routinely 2x on small stages
        DiffTolerance { ratio: 1.0, abs_ms: 5.0, abs_bytes: (4 << 20) as f64 }
    }
}

/// The outcome of comparing two [`RunRecord`]s.
#[derive(Debug, Clone, Default)]
pub struct RunDiff {
    /// Stable-field mismatches — real differences between the runs.
    /// Non-empty means the runs diverged.
    pub deltas: Vec<String>,
    /// Timing/allocation readings outside the tolerance band —
    /// informational only, never a divergence by themselves.
    pub timing_notes: Vec<String>,
}

impl RunDiff {
    /// True when every stable field matched.
    pub fn is_clean(&self) -> bool {
        self.deltas.is_empty()
    }
}

/// Compares two records stage by stage. Stable quality metrics must be
/// exactly equal (the determinism contract); wall/alloc readings are
/// held only to `tol`.
pub fn diff_records(a: &RunRecord, b: &RunRecord, tol: &DiffTolerance) -> RunDiff {
    let mut d = RunDiff::default();
    let mut delta = |name: &str, av: String, bv: String| {
        d.deltas.push(format!("{name}: {av} != {bv}"));
    };
    if a.design != b.design {
        delta("design", a.design.clone(), b.design.clone());
    }
    if a.design_hash != b.design_hash {
        delta("design_hash", format!("{:016x}", a.design_hash), format!("{:016x}", b.design_hash));
    }
    if a.params != b.params {
        delta("params", format!("{:?}", a.params), format!("{:?}", b.params));
    }
    if a.rows.len() != b.rows.len() {
        delta("rows", a.rows.len().to_string(), b.rows.len().to_string());
    }
    for (ra, rb) in a.rows.iter().zip(&b.rows) {
        let k = ra.k;
        let at = |name: &str| format!("k={k} {name}");
        if ra.k != rb.k {
            delta("row k", ra.k.to_string(), rb.k.to_string());
            continue;
        }
        let exact: [(&str, f64, f64); 8] = [
            ("cell_area", ra.cell_area, rb.cell_area),
            ("num_cells", ra.num_cells as f64, rb.num_cells as f64),
            ("utilization_pct", ra.utilization_pct, rb.utilization_pct),
            ("violations", ra.violations as f64, rb.violations as f64),
            ("overflow", ra.overflow, rb.overflow),
            ("route_iterations", ra.route_iterations as f64, rb.route_iterations as f64),
            ("wirelength_um", ra.wirelength_um, rb.wirelength_um),
            ("hpwl_um", ra.hpwl_um, rb.hpwl_um),
        ];
        for (name, av, bv) in exact {
            if av != bv {
                delta(&at(name), av.to_string(), bv.to_string());
            }
        }
        if ra.critical_ns != rb.critical_ns {
            delta(&at("critical_ns"), ra.critical_ns.to_string(), rb.critical_ns.to_string());
        }
        // timing band: match stages by name; shape changes are deltas,
        // readings are notes
        let stage_names = |r: &RunRow| r.stages.iter().map(|s| s.stage.clone()).collect::<Vec<_>>();
        if stage_names(ra) != stage_names(rb) {
            delta(&at("stages"), stage_names(ra).join(","), stage_names(rb).join(","));
            continue;
        }
        for (sa, sb) in ra.stages.iter().zip(&rb.stages) {
            let band = |x: f64, y: f64, abs: f64| -> bool {
                let hi = y * (1.0 + tol.ratio) + abs;
                let lo = (y / (1.0 + tol.ratio) - abs).max(0.0);
                x > hi || x < lo
            };
            if band(sa.wall_ms, sb.wall_ms, tol.abs_ms) {
                d.timing_notes.push(format!(
                    "k={k} {}: wall {:.3} ms vs {:.3} ms (band ±{:.0}% + {} ms)",
                    sa.stage,
                    sa.wall_ms,
                    sb.wall_ms,
                    100.0 * tol.ratio,
                    tol.abs_ms
                ));
            }
            if band(sa.alloc_bytes as f64, sb.alloc_bytes as f64, tol.abs_bytes)
                || band(sa.peak_bytes as f64, sb.peak_bytes as f64, tol.abs_bytes)
            {
                d.timing_notes.push(format!(
                    "k={k} {}: alloc {}/{} B vs {}/{} B",
                    sa.stage, sa.alloc_bytes, sa.peak_bytes, sb.alloc_bytes, sb.peak_bytes
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
    use crate::flows::{congestion_flow, FlowOptions};
    use casyn_netlist::bench::{random_pla, PlaGenConfig};

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
        let rows = vec![KSweepEntry { k: 0.001, result: r }];
        RunRecord::from_sweep(
            "t8",
            fnv1a64(b"design-bytes"),
            RunParams {
                scheme: "congestion".into(),
                layers: 3,
                target_utilization: 0.611,
                ks: vec![0.001],
                optimize: false,
            },
            &rows,
        )
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
        let rec = record();
        let text = rec.to_json().to_string_pretty();
        assert!(text.contains("\"schema\": \"casyn.run.v1\""));
        let back = RunRecord::from_json(&text).unwrap();
        assert_eq!(back, rec);
        assert_eq!(back.content_hash(), rec.content_hash());
    }

    #[test]
    fn content_hash_ignores_timing_but_not_results() {
        let rec = record();
        let h = rec.content_hash();
        let mut noisy = rec.clone();
        for r in &mut noisy.rows {
            for s in &mut r.stages {
                s.wall_ms *= 7.0;
                s.alloc_bytes += 12345;
            }
        }
        assert_eq!(noisy.content_hash(), h, "timing noise must not move the address");
        let mut changed = rec.clone();
        changed.rows[0].overflow += 1.0;
        assert_ne!(changed.content_hash(), h, "a result change must move the address");
        let mut reparam = rec;
        reparam.params.layers += 1;
        assert_ne!(reparam.content_hash(), h);
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
        let loaded = RunRecord::load(&p1).unwrap();
        assert_eq!(loaded, rec);
        assert!(p1.file_name().unwrap().to_string_lossy().contains("t8-"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn identical_records_diff_clean() {
        let rec = record();
        let d = diff_records(&rec, &rec.clone(), &DiffTolerance::default());
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
        other.rows[0].stages[0].wall_ms = rec.rows[0].stages[0].wall_ms * 100.0 + 1000.0;
        let d = diff_records(&rec, &other, &DiffTolerance::default());
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
        other.rows[0].stages[0].stage = "renamed".into();
        let d = diff_records(&rec, &other, &DiffTolerance::default());
        assert!(!d.is_clean());
        let mut shorter = rec.clone();
        shorter.rows.clear();
        let d = diff_records(&rec, &shorter, &DiffTolerance::default());
        assert!(d.deltas.iter().any(|l| l.starts_with("rows:")), "{:?}", d.deltas);
    }

    #[test]
    fn hpwl_is_positive_for_routed_designs() {
        let rec = record();
        assert!(rec.rows[0].hpwl_um > 0.0);
    }

    #[test]
    fn ledger_error_diagnostics() {
        let e = RunRecord::from_json("{oops").unwrap_err();
        assert!(matches!(e, LedgerError::Syntax { .. }));
        let e = RunRecord::from_json("{\"schema\": \"casyn.run.v2\"}").unwrap_err();
        assert!(matches!(&e, LedgerError::Field { field, .. } if field == "schema"), "{e}");
        let rec = record();
        let text = rec.to_json().to_string_pretty().replace("\"overflow\"", "\"oveflow\"");
        let e = RunRecord::from_json(&text).unwrap_err();
        assert!(e.to_string().contains("overflow"), "{e}");
    }
}
