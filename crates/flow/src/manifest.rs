//! Batch-manifest parsing, shared by `casyn batch` and the `casyn-serve`
//! job API.
//!
//! A manifest is a JSON document, either a top-level array of jobs or
//! `{"jobs": [...]}`. Every field but the design identity is optional
//! and falls back to [`ManifestDefaults`]:
//!
//! ```json
//! {"jobs": [
//!   {"design": "examples/designs/count8.pla", "ks": [0.0, 0.1, 1.0],
//!    "name": "count8", "util": 0.611, "layers": 3, "optimize": false,
//!    "placer": "kway", "deadline_ms": 60000, "fault_plan": "map:panic:1"}
//! ]}
//! ```
//!
//! A job names its design either by path (`design`) or inline
//! (`source`, the design text itself, with `format` `"pla"` or
//! `"blif"`; the serve API uses inline sources so clients need no
//! shared filesystem). `inject_panic: true` is the legacy spelling of
//! `"fault_plan": "decompose:panic:1"`. `placer` names the one global
//! placer, `"kway"` (or `"k-way"`); any other value is rejected, so a
//! manifest written for a retired backend never silently runs k-way.

use crate::error::Stage;
use crate::flows::FlowOptions;
use casyn_exec::FaultPlan;
use casyn_logic::OptimizeOptions;
use casyn_netlist::blif::Blif;
use casyn_netlist::network::Network;
use casyn_netlist::seq::SeqNetwork;
use casyn_netlist::Pla;
use casyn_obs::json::JsonValue;
use std::fs;
use std::time::Duration;

/// The fallback values a manifest entry inherits when it omits a field.
/// The CLI builds one from its flags; serve uses the server defaults.
#[derive(Debug, Clone)]
pub struct ManifestDefaults {
    /// K values to sweep.
    pub ks: Vec<f64>,
    /// Target K=0 utilization for the derived die.
    pub util: f64,
    /// Metal layers.
    pub layers: usize,
    /// Run technology-independent optimization first.
    pub optimize: bool,
}

impl Default for ManifestDefaults {
    fn default() -> Self {
        ManifestDefaults {
            ks: vec![0.0, 0.1, 0.5, 1.0, 5.0],
            util: 0.611,
            layers: 3,
            optimize: false,
        }
    }
}

/// A numeric job parameter that arrives from outside the program — a
/// manifest field (`casyn batch`, a serve submit, a replayed journal
/// record) or the CLI flag of the same name. [`JobParam::check`] is the one
/// range check all of them pass, so a value the flow would panic on
/// (a zero-area die, a negative deadline) is a typed error up front.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobParam {
    /// Target utilization: the die is the cell area divided by it.
    Util,
    /// Metal layers.
    Layers,
    /// A congestion minimization factor.
    K,
    /// A per-job deadline in milliseconds.
    DeadlineMs,
}

impl JobParam {
    /// `v` when it is in the parameter's range, else what the range is.
    pub fn check(self, v: f64) -> Result<f64, String> {
        let (ok, want) = match self {
            JobParam::Util => ((0.01..=1.0).contains(&v), "in [0.01, 1]"),
            JobParam::Layers => (v >= 1.0 && v.fract() == 0.0, "a whole number >= 1"),
            JobParam::K => (v.is_finite() && v >= 0.0, "finite and >= 0"),
            JobParam::DeadlineMs => (
                Duration::try_from_secs_f64(v / 1e3).is_ok(),
                "a finite, non-negative number of milliseconds",
            ),
        };
        if ok {
            Ok(v)
        } else {
            Err(format!("must be {want}, got {v}"))
        }
    }
}

/// The textual format of a design source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DesignFormat {
    /// Espresso two-level PLA.
    Pla,
    /// Berkeley BLIF.
    Blif,
}

impl DesignFormat {
    /// From a manifest `format` field value.
    pub fn parse(s: &str) -> Option<DesignFormat> {
        match s {
            "pla" => Some(DesignFormat::Pla),
            "blif" => Some(DesignFormat::Blif),
            _ => None,
        }
    }

    /// From a design path extension (`.blif` is BLIF, everything else
    /// reads as PLA — the historical CLI behavior).
    pub fn from_path(path: &str) -> DesignFormat {
        if path.ends_with(".blif") {
            DesignFormat::Blif
        } else {
            DesignFormat::Pla
        }
    }
}

/// One batch-manifest entry, with defaults already applied.
#[derive(Debug, Clone, PartialEq)]
pub struct ManifestJob {
    /// Display name (defaults to the design file stem).
    pub name: String,
    /// Design path — or, for inline jobs, the display identity.
    pub design: String,
    /// Inline design text; when set, `design` is never read from disk.
    pub source: Option<String>,
    /// Format of `source` (from the `format` field, default PLA). For
    /// path jobs the format follows the file extension instead.
    pub format: DesignFormat,
    /// K values to sweep.
    pub ks: Vec<f64>,
    /// Target utilization.
    pub util: f64,
    /// Metal layers.
    pub layers: usize,
    /// Technology-independent optimization.
    pub optimize: bool,
    /// Per-job deadline in milliseconds.
    pub deadline_ms: Option<f64>,
    /// Legacy spelling of `fault_plan: "decompose:panic:1"`.
    pub inject_panic: bool,
    /// Deterministic fault-injection spec (validated by [`ManifestJob::fault`]).
    pub fault_plan: Option<String>,
}

/// The file stem of a path (`a/count8.pla` → `count8`), used as the
/// default job name.
pub fn file_stem(path: &str) -> String {
    std::path::Path::new(path)
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| path.to_string())
}

/// Parses design text in the given format into a sequential network
/// (combinational designs pass through with no latches).
pub fn parse_design(text: &str, format: DesignFormat, what: &str) -> Result<SeqNetwork, String> {
    match format {
        DesignFormat::Blif => {
            let blif: Blif = text.parse().map_err(|e| format!("{what}: {e}"))?;
            Ok(blif.into_seq())
        }
        DesignFormat::Pla => {
            let pla: Pla = text.parse().map_err(|e| format!("{what}: {e}"))?;
            Ok(SeqNetwork::combinational(pla.to_network()))
        }
    }
}

/// Reads and parses a design file by extension (`.blif` is BLIF,
/// everything else PLA).
pub fn load_design(path: &str) -> Result<SeqNetwork, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse_design(&text, DesignFormat::from_path(path), path)
}

/// Parses a fault-plan spec (`--fault-plan`, a manifest `fault_plan`) and
/// rejects stage names the flow does not have, so a typo'd plan fails up
/// front instead of silently never firing.
pub fn parse_fault_plan(spec: &str) -> Result<FaultPlan, String> {
    let plan = FaultPlan::parse(spec)?;
    for s in plan.specs() {
        if Stage::parse(&s.stage).is_none() {
            let known: Vec<&str> = Stage::ALL.iter().map(|st| st.name()).collect();
            return Err(format!(
                "fault plan: unknown stage {:?} (expected one of {})",
                s.stage,
                known.join(", ")
            ));
        }
    }
    Ok(plan)
}

impl ManifestJob {
    /// The per-job deadline as a duration (`deadline_ms` was range-checked
    /// when the entry was parsed).
    pub fn deadline(&self) -> Option<Duration> {
        self.deadline_ms.and_then(|ms| Duration::try_from_secs_f64(ms / 1e3).ok())
    }

    /// The fault plan this entry asks for, validated: its `fault_plan`
    /// spec, else `decompose:panic:1` when the legacy `inject_panic` is
    /// set, else none.
    pub fn fault(&self) -> Result<Option<FaultPlan>, String> {
        let legacy = self.inject_panic.then_some("decompose:panic:1");
        self.fault_plan.as_deref().or(legacy).map(parse_fault_plan).transpose()
    }

    /// The design text and its format: the inline `source` when present,
    /// else the `design` path's contents. The returned text is what the
    /// content address hashes.
    pub fn design_text(&self) -> Result<(String, DesignFormat), String> {
        match &self.source {
            Some(text) => Ok((text.clone(), self.format)),
            None => {
                let text = fs::read_to_string(&self.design)
                    .map_err(|e| format!("cannot read {}: {e}", self.design))?;
                Ok((text, DesignFormat::from_path(&self.design)))
            }
        }
    }

    /// Loads the job's combinational network plus the raw design text
    /// (for content addressing). Sequential designs are rejected — the
    /// batch runner and serve sweep combinational flows only.
    pub fn load_network(&self) -> Result<(Network, String), String> {
        let (text, format) = self.design_text()?;
        Ok((self.parse_network(&text, format)?, text))
    }

    /// Parses this job's design text (as [`ManifestJob::design_text`]
    /// returned it) into its combinational network, rejecting
    /// sequential designs. Split from [`ManifestJob::load_network`] so
    /// a caller can address the job by its text and parse only when the
    /// job has to run.
    pub fn parse_network(&self, text: &str, format: DesignFormat) -> Result<Network, String> {
        let seq = parse_design(text, format, &self.design)?;
        if seq.is_combinational() {
            Ok(seq.core)
        } else {
            Err(format!("{}: sequential designs are not supported in batch", self.design))
        }
    }

    /// Serializes the entry as a manifest-object with every field
    /// explicit, so parsing it back through [`parse_manifest_value`]
    /// reproduces the job regardless of the defaults in effect. This is
    /// what the serve write-ahead log persists for admitted jobs: enough
    /// to re-run the job after a crash without the original request.
    pub fn to_json(&self) -> JsonValue {
        let mut doc = vec![
            ("name".into(), JsonValue::Str(self.name.clone())),
            ("design".into(), JsonValue::Str(self.design.clone())),
        ];
        if let Some(src) = &self.source {
            doc.push(("source".into(), JsonValue::Str(src.clone())));
        }
        let format = match self.format {
            DesignFormat::Pla => "pla",
            DesignFormat::Blif => "blif",
        };
        doc.push(("format".into(), JsonValue::Str(format.into())));
        doc.push((
            "ks".into(),
            JsonValue::Array(self.ks.iter().map(|&k| JsonValue::Number(k)).collect()),
        ));
        doc.push(("util".into(), JsonValue::Number(self.util)));
        doc.push(("layers".into(), JsonValue::Number(self.layers as f64)));
        doc.push(("optimize".into(), JsonValue::Bool(self.optimize)));
        if let Some(ms) = self.deadline_ms {
            doc.push(("deadline_ms".into(), JsonValue::Number(ms)));
        }
        if self.inject_panic {
            doc.push(("inject_panic".into(), JsonValue::Bool(true)));
        }
        if let Some(p) = &self.fault_plan {
            doc.push(("fault_plan".into(), JsonValue::Str(p.clone())));
        }
        JsonValue::object(doc)
    }

    /// The flow options this entry asks for (fault plan excluded — the
    /// caller injects [`ManifestJob::fault`]).
    pub fn flow_options(&self, validate: bool) -> FlowOptions {
        let mut opts = FlowOptions { target_utilization: self.util, ..Default::default() };
        opts.route.layers = self.layers;
        if self.optimize {
            opts.optimize = Some(OptimizeOptions::default());
        }
        if validate {
            opts.validate = true;
        }
        opts
    }
}

/// Parses a batch manifest from text. See [`parse_manifest_value`] for
/// the field rules.
pub fn parse_manifest(text: &str, defaults: &ManifestDefaults) -> Result<Vec<ManifestJob>, String> {
    let doc = JsonValue::parse(text).map_err(|e| e.to_string())?;
    parse_manifest_value(&doc, defaults)
}

/// Parses an already-parsed manifest document: a top-level job array or
/// `{"jobs": [...]}`. Missing per-job fields fall back to `defaults`.
/// Serve parses request bodies with explicit [`casyn_obs::json::JsonLimits`]
/// first and hands the document here.
pub fn parse_manifest_value(
    doc: &JsonValue,
    defaults: &ManifestDefaults,
) -> Result<Vec<ManifestJob>, String> {
    let entries = if let JsonValue::Array(items) = doc {
        items.as_slice()
    } else {
        doc.get("jobs")
            .and_then(|j| j.as_array())
            .ok_or("manifest must be a job array or an object with a \"jobs\" array")?
    };
    if entries.is_empty() {
        return Err("manifest has no jobs".into());
    }
    // a number of job `i`, range-checked; the error names job and field
    let number = |v: &JsonValue, key: &str, param: JobParam, i: usize| -> Result<f64, String> {
        let n = v.as_f64().ok_or(format!("job {i}: \"{key}\" must be a number"))?;
        param.check(n).map_err(|e| format!("job {i}: \"{key}\" {e}"))
    };
    let bool_field = |j: &JsonValue, key: &str, i: usize| -> Result<bool, String> {
        match j.get(key) {
            None => Ok(false),
            Some(v) => v.as_bool().ok_or(format!("job {i}: \"{key}\" must be a boolean")),
        }
    };
    let str_field = |j: &JsonValue, key: &str, i: usize| -> Result<Option<String>, String> {
        match j.get(key) {
            None => Ok(None),
            Some(v) => v
                .as_str()
                .map(|s| Some(s.to_string()))
                .ok_or(format!("job {i}: \"{key}\" must be a string")),
        }
    };
    entries
        .iter()
        .enumerate()
        .map(|(i, j)| {
            let source = str_field(j, "source", i)?;
            let name_field = str_field(j, "name", i)?;
            let design = match str_field(j, "design", i)? {
                Some(d) => d,
                // inline jobs may omit the path; their identity is the name
                None if source.is_some() => name_field
                    .clone()
                    .ok_or(format!("job {i}: inline \"source\" needs a \"name\" or \"design\""))?,
                None => return Err(format!("job {i}: missing \"design\" path")),
            };
            let format = match str_field(j, "format", i)? {
                Some(f) => DesignFormat::parse(&f)
                    .ok_or(format!("job {i}: unknown format {f:?} (pla | blif)"))?,
                None => DesignFormat::from_path(&design),
            };
            let ks = match j.get("ks") {
                None => defaults.ks.clone(),
                Some(v) => v
                    .as_array()
                    .ok_or(format!("job {i}: \"ks\" must be an array"))?
                    .iter()
                    .map(|k| number(k, "ks", JobParam::K, i))
                    .collect::<Result<_, _>>()?,
            };
            if let Some(p) = str_field(j, "placer", i)? {
                if !matches!(p.trim().to_ascii_lowercase().as_str(), "kway" | "k-way") {
                    return Err(format!(
                        "job {i}: \"placer\" {p:?} is unknown (the one placer is kway)"
                    ));
                }
            }
            Ok(ManifestJob {
                name: name_field.unwrap_or_else(|| file_stem(&design)),
                source,
                format,
                ks,
                util: match j.get("util") {
                    None => defaults.util,
                    Some(v) => number(v, "util", JobParam::Util, i)?,
                },
                layers: match j.get("layers") {
                    None => defaults.layers,
                    Some(v) => number(v, "layers", JobParam::Layers, i)? as usize,
                },
                optimize: bool_field(j, "optimize", i)? || defaults.optimize,
                deadline_ms: j
                    .get("deadline_ms")
                    .map(|v| number(v, "deadline_ms", JobParam::DeadlineMs, i))
                    .transpose()?,
                inject_panic: bool_field(j, "inject_panic", i)?,
                fault_plan: str_field(j, "fault_plan", i)?,
                design,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d() -> ManifestDefaults {
        ManifestDefaults::default()
    }

    #[test]
    fn manifest_fields_and_defaults() {
        let jobs = parse_manifest(
            r#"{"jobs": [
                {"design": "a/count8.pla"},
                {"design": "b.pla", "name": "bee", "ks": [0.0, 2.5], "util": 0.5,
                 "layers": 4, "optimize": true, "deadline_ms": 1500, "inject_panic": true,
                 "fault_plan": "route:deadline:1"}
            ]}"#,
            &d(),
        )
        .unwrap();
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[0].name, "count8");
        assert_eq!(jobs[0].ks, d().ks);
        assert_eq!(jobs[0].util, d().util);
        assert_eq!(jobs[0].layers, 3);
        assert!(!jobs[0].optimize && jobs[0].deadline_ms.is_none() && !jobs[0].inject_panic);
        assert!(jobs[0].fault_plan.is_none() && jobs[0].source.is_none());
        assert_eq!(jobs[0].format, DesignFormat::Pla);
        assert_eq!(jobs[1].name, "bee");
        assert_eq!(jobs[1].ks, vec![0.0, 2.5]);
        assert_eq!(jobs[1].util, 0.5);
        assert_eq!(jobs[1].layers, 4);
        assert!(jobs[1].optimize && jobs[1].inject_panic);
        assert_eq!(jobs[1].deadline_ms, Some(1500.0));
        assert_eq!(jobs[1].fault_plan.as_deref(), Some("route:deadline:1"));
    }

    #[test]
    fn manifest_accepts_top_level_array() {
        let jobs = parse_manifest(r#"[{"design": "x.pla"}]"#, &d()).unwrap();
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].design, "x.pla");
    }

    #[test]
    fn manifest_errors() {
        assert!(parse_manifest("not json", &d()).is_err());
        assert!(parse_manifest(r#"{"jobs": []}"#, &d()).unwrap_err().contains("no jobs"));
        assert!(parse_manifest(r#"{"jobs": [{}]}"#, &d()).unwrap_err().contains("design"));
        assert!(parse_manifest(r#"{"jobs": 3}"#, &d()).is_err());
        assert!(parse_manifest(r#"[{"design": "x.pla", "ks": "0,1"}]"#, &d())
            .unwrap_err()
            .contains("ks"));
        assert!(parse_manifest(r#"[{"design": "x.pla", "deadline_ms": "soon"}]"#, &d())
            .unwrap_err()
            .contains("deadline_ms"));
        assert!(parse_manifest(r#"[{"design": "x.pla", "fault_plan": 3}]"#, &d())
            .unwrap_err()
            .contains("fault_plan"));
        assert!(parse_manifest(r#"[{"design": "x.pla", "format": "vhdl"}]"#, &d())
            .unwrap_err()
            .contains("vhdl"));
    }

    /// Every numeric field, fed the values a hostile or careless client
    /// sends: each is either rejected by name, or accepted — and then the
    /// job it describes must run to completion (the service worker that
    /// would run it reads these fields outside any `catch_unwind`).
    #[test]
    fn numeric_fields_are_range_checked_or_harmless() {
        let design = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/designs/ex_a.pla");
        let hostile = [-1.0, 0.0, -0.0, 1e-320, 1e308, 2.7];
        let mut accepted = Vec::new();
        for field in ["util", "layers", "ks", "deadline_ms"] {
            for v in hostile {
                let ks = if field == "ks" { format!("[{v:e}]") } else { "[0.5]".into() };
                let other =
                    if field == "ks" { String::new() } else { format!(r#", "{field}": {v:e}"#) };
                let text = format!(r#"[{{"design": {design:?}, "ks": {ks}{other}}}]"#);
                let job = match parse_manifest(&text, &d()) {
                    Err(e) => {
                        assert!(e.contains(&format!("job 0: \"{field}\"")), "{field}={v:e}: {e}");
                        continue;
                    }
                    Ok(mut jobs) => jobs.remove(0),
                };
                accepted.push((field, v));
                let _ = job.deadline();
                let (network, _) = job.load_network().unwrap();
                let opts = job.flow_options(true);
                let prep = crate::flows::prepare(&network, &opts).unwrap();
                for &k in &job.ks {
                    crate::flows::congestion_flow_prepared(&prep, k, &opts).unwrap();
                }
            }
        }
        // what is in range, exactly: nothing for util; a huge but whole
        // layer count; every non-negative K; every deadline that converts
        let want: Vec<(&str, f64)> = [("layers", 1e308)]
            .into_iter()
            .chain([0.0, -0.0, 1e-320, 1e308, 2.7].map(|v| ("ks", v)))
            .chain([0.0, -0.0, 1e-320, 2.7].map(|v| ("deadline_ms", v)))
            .collect();
        assert_eq!(format!("{accepted:?}"), format!("{want:?}"));
    }

    #[test]
    fn deadline_converts_without_panicking() {
        let mut job = parse_manifest(r#"[{"design": "x.pla", "deadline_ms": 1500}]"#, &d())
            .unwrap()
            .remove(0);
        assert_eq!(job.deadline(), Some(Duration::from_millis(1500)));
        // a hand-built entry out of range has no deadline, not a panic
        for ms in [-1.0, 1e300, f64::NAN] {
            job.deadline_ms = Some(ms);
            assert_eq!(job.deadline(), None);
        }
        job.deadline_ms = None;
        assert_eq!(job.deadline(), None);
    }

    #[test]
    fn fault_resolves_both_spellings_and_rejects_unknown_stages() {
        let jobs = parse_manifest(
            r#"[{"design": "a.pla"},
                {"design": "b.pla", "inject_panic": true},
                {"design": "c.pla", "inject_panic": true, "fault_plan": "route:deadline:2"},
                {"design": "d.pla", "fault_plan": "warp:panic:1"}]"#,
            &d(),
        )
        .unwrap();
        assert!(jobs[0].fault().unwrap().is_none());
        assert_eq!(jobs[1].fault().unwrap().unwrap().to_string(), "decompose:panic:1");
        // an explicit plan wins over the legacy flag
        assert_eq!(jobs[2].fault().unwrap().unwrap().to_string(), "route:deadline:2");
        let e = jobs[3].fault().unwrap_err();
        assert!(e.contains("unknown stage") && e.contains("warp"), "got: {e}");
    }

    #[test]
    fn inline_source_jobs() {
        let pla = ".i 1\n.o 1\n.p 1\n1 1\n.e\n";
        let text = format!(r#"[{{"name": "tiny", "source": {:?}, "format": "pla"}}]"#, pla);
        let jobs = parse_manifest(&text, &d()).unwrap();
        assert_eq!(jobs[0].name, "tiny");
        assert_eq!(jobs[0].design, "tiny");
        assert_eq!(jobs[0].source.as_deref(), Some(pla));
        let (net, raw) = jobs[0].load_network().unwrap();
        assert_eq!(raw, pla);
        assert!(net.num_nodes() > 0);
        // an inline job with neither name nor design is rejected
        let e = parse_manifest(r#"[{"source": ".i 1"}]"#, &d()).unwrap_err();
        assert!(e.contains("name"), "got: {e}");
    }

    #[test]
    fn to_json_round_trips_through_the_parser() {
        let jobs = parse_manifest(
            r#"[{"design": "x.pla", "ks": [0.0, 2.5], "util": 0.5, "layers": 4,
                 "optimize": true, "deadline_ms": 1500, "fault_plan": "map:panic:1",
                 "placer": "kway"},
                {"name": "tiny", "source": ".i 1\n.o 1\n.p 1\n1 1\n.e\n", "format": "pla"}]"#,
            &d(),
        )
        .unwrap();
        // parse back under *different* defaults: every field must survive
        let hostile = ManifestDefaults { ks: vec![9.9], util: 0.1, layers: 9, optimize: false };
        for job in &jobs {
            let doc = JsonValue::Array(vec![job.to_json()]);
            let back = parse_manifest_value(&doc, &hostile).unwrap();
            assert_eq!(format!("{job:?}"), format!("{:?}", back[0]));
        }
    }

    #[test]
    fn flow_options_reflect_entry() {
        let jobs = parse_manifest(
            r#"[{"design": "x.pla", "util": 0.5, "layers": 4, "optimize": true}]"#,
            &d(),
        )
        .unwrap();
        let opts = jobs[0].flow_options(true);
        assert_eq!(opts.target_utilization, 0.5);
        assert_eq!(opts.route.layers, 4);
        assert!(opts.optimize.is_some());
        assert!(opts.validate);
    }

    #[test]
    fn placer_names_the_one_placer_or_fails_naming_the_field() {
        for ok in ["kway", "k-way", " K-WAY "] {
            let text = format!(r#"[{{"design": "x.pla", "placer": {ok:?}}}]"#);
            assert_eq!(parse_manifest(&text, &d()).unwrap().len(), 1, "{ok}");
        }
        for bad in [r#""bisect""#, r#""annealing""#, r#""""#, "3"] {
            let text =
                format!(r#"[{{"design": "x.pla"}}, {{"design": "y.pla", "placer": {bad}}}]"#);
            let e = parse_manifest(&text, &d()).unwrap_err();
            assert!(e.starts_with("job 1: \"placer\""), "{bad}: {e}");
        }
    }
}
