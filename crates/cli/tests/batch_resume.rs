//! Drives the built `casyn` binary end to end: a faulted batch exits
//! non-zero with typed errors and a crash bundle, and `--resume` finishes
//! the remaining work into a report identical (modulo wall clock) to an
//! uninterrupted run; a manifest naming a placer other than k-way fails
//! before any job runs.

use casyn_obs::json::JsonValue;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn design(name: &str) -> String {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../examples/designs")
        .join(name)
        .canonicalize()
        .unwrap()
        .to_str()
        .unwrap()
        .to_string()
}

/// Writes a four-job manifest over the two example designs; with
/// `fault_on_c`, job `c` carries a one-shot panic fault at the map stage.
fn manifest(dir: &Path, file: &str, fault_on_c: bool) -> PathBuf {
    let a = design("ex_a.pla");
    let b = design("ex_b.pla");
    let fault = if fault_on_c { r#", "fault_plan": "map:panic:1""# } else { "" };
    let text = format!(
        r#"{{"jobs": [
  {{"design": "{a}", "name": "a", "ks": [0.0, 0.1]}},
  {{"design": "{b}", "name": "b", "ks": [0.0, 0.1]}},
  {{"design": "{a}", "name": "c", "ks": [0.0, 0.1]{fault}}},
  {{"design": "{b}", "name": "d", "ks": [0.0, 0.1]}}
]}}"#
    );
    let path = dir.join(file);
    fs::write(&path, text).unwrap();
    path
}

fn casyn(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_casyn")).args(args).output().expect("spawn casyn")
}

fn read_json(path: &Path) -> JsonValue {
    JsonValue::parse(&fs::read_to_string(path).unwrap())
        .unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Wall-clock fields (`wall_ms` per job and per telemetry stage,
/// `total_ms` per row telemetry) are the only run-to-run nondeterminism
/// in a report.
fn strip_wall_ms(report: &str) -> String {
    report
        .lines()
        .filter(|l| !l.contains("\"wall_ms\"") && !l.contains("\"total_ms\""))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn faulted_batch_resumes_into_the_uninterrupted_report() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("batch_resume");
    fs::create_dir_all(&dir).unwrap();
    let clean_manifest = manifest(&dir, "clean.json", false);
    let fault_manifest = manifest(&dir, "fault.json", true);
    let full = dir.join("full.json");
    let partial = dir.join("partial.json");
    let resumed = dir.join("resumed.json");
    let crashes = dir.join("crashes");

    // the uninterrupted reference run
    let out = casyn(&[
        "batch",
        clean_manifest.to_str().unwrap(),
        "--jobs",
        "2",
        "--out",
        full.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "clean run: {}", String::from_utf8_lossy(&out.stderr));

    // the faulted run: job c panics at map, the batch exits non-zero, the
    // report carries the typed error, and a crash bundle is written
    let out = casyn(&[
        "batch",
        fault_manifest.to_str().unwrap(),
        "--jobs",
        "2",
        "--out",
        partial.to_str().unwrap(),
        "--crash-dir",
        crashes.to_str().unwrap(),
    ]);
    assert!(!out.status.success(), "faulted batch must exit non-zero");
    let doc = read_json(&partial);
    assert_eq!(doc.get("schema").unwrap().as_str(), Some("casyn.batch.v1"));
    assert_eq!(doc.get("jobs_ok").unwrap().as_f64(), Some(3.0));
    assert_eq!(doc.get("jobs_failed").unwrap().as_f64(), Some(1.0));
    let jobs = doc.get("jobs").unwrap().as_array().unwrap();
    assert_eq!(jobs.len(), 4);
    let c = jobs.iter().find(|j| j.get("name").unwrap().as_str() == Some("c")).unwrap();
    assert_eq!(c.get("status").unwrap().as_str(), Some("error"));
    let err = c.get("error").unwrap();
    assert_eq!(err.get("kind").unwrap().as_str(), Some("panicked"));
    assert!(err.get("detail").unwrap().as_str().unwrap().contains("map"));
    let bundle = read_json(&crashes.join("c.crash.json"));
    assert_eq!(bundle.get("schema").unwrap().as_str(), Some("casyn.batch.v1"));
    assert_eq!(bundle.get("error").unwrap().get("kind").unwrap().as_str(), Some("panicked"));
    assert!(bundle.get("fault_plan").unwrap().as_str().unwrap().contains("map:panic:1"));

    // resume: only the failed job re-runs, the batch exits zero
    let out = casyn(&[
        "batch",
        clean_manifest.to_str().unwrap(),
        "--jobs",
        "2",
        "--resume",
        partial.to_str().unwrap(),
        "--out",
        resumed.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "resume: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    for line in ["[a] resumed", "[b] resumed", "[d] resumed", "[c] ok"] {
        assert!(stdout.contains(line), "missing {line:?} in:\n{stdout}");
    }

    // modulo wall clock, the merged report IS the uninterrupted one
    let full_text = strip_wall_ms(&fs::read_to_string(&full).unwrap());
    let resumed_text = strip_wall_ms(&fs::read_to_string(&resumed).unwrap());
    assert_eq!(full_text, resumed_text);

    // a mid-run checkpoint document resumes the same way a final report
    // does (the schema an interrupted batch actually leaves behind)
    let jobs_doc = doc.get("jobs").unwrap().clone();
    let checkpoint = dir.join("checkpoint.json");
    let ck = JsonValue::object(vec![
        ("schema".into(), JsonValue::Str("casyn.checkpoint.v1".into())),
        ("jobs".into(), jobs_doc),
    ]);
    fs::write(&checkpoint, ck.to_string_pretty()).unwrap();
    let out = casyn(&[
        "batch",
        clean_manifest.to_str().unwrap(),
        "--jobs",
        "2",
        "--resume",
        checkpoint.to_str().unwrap(),
        "--out",
        resumed.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "checkpoint resume: {}", String::from_utf8_lossy(&out.stderr));
    let resumed_text = strip_wall_ms(&fs::read_to_string(&resumed).unwrap());
    assert_eq!(full_text, resumed_text);
}

/// A `casyn.batch.v1` row carries only what belongs to its job, even with
/// `--metrics-out` switching the process-global registry on under two
/// workers: per stage exactly `stage` and `wall_ms`, and no registry or
/// allocator window anywhere in the row.
#[test]
fn batch_rows_carry_only_per_job_telemetry() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("batch_rows");
    fs::create_dir_all(&dir).unwrap();
    let m = manifest(&dir, "rows.json", false);
    let (metrics, report) = (dir.join("m.json"), dir.join("r.json"));
    let out = casyn(&[
        "batch",
        m.to_str().unwrap(),
        "--jobs",
        "2",
        "--metrics-out",
        metrics.to_str().unwrap(),
        "--out",
        report.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let doc = read_json(&report);
    let rows: Vec<&JsonValue> = doc
        .get("jobs")
        .and_then(JsonValue::as_array)
        .unwrap()
        .iter()
        .flat_map(|j| j.get("rows").and_then(JsonValue::as_array).unwrap())
        .collect();
    assert_eq!(rows.len(), 8, "four jobs of two rows");
    for row in rows {
        let text = row.to_string_compact();
        for key in ["\"metrics\"", "\"alloc_bytes\"", "\"peak_bytes\"", "\"peak_alloc_bytes\""] {
            assert!(!text.contains(key), "{key} in a batch row: {text}");
        }
        let stages = row.get("telemetry").and_then(|t| t.get("stages"));
        let stages = stages.and_then(JsonValue::as_array).unwrap();
        assert!(!stages.is_empty());
        for s in stages {
            let JsonValue::Object(fields) = s else { panic!("stage is not an object: {text}") };
            let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["stage", "wall_ms"], "{text}");
        }
    }
    // the registry itself is still there, once, in --metrics-out
    let registry = read_json(&metrics);
    assert!(registry.get("metrics").and_then(|m| m.get("route.iterations")).is_some());
}

#[test]
fn batch_runs_the_kway_placer_field_and_rejects_any_other() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("batch_placer");
    fs::create_dir_all(&dir).unwrap();
    let a = design("ex_a.pla");
    for (placer, ok) in [("kway", true), ("bisect", false)] {
        let m = dir.join(format!("{placer}.json"));
        let text = format!(r#"[{{"design": "{a}", "ks": [0.0], "placer": "{placer}"}}]"#);
        fs::write(&m, text).unwrap();
        let report = dir.join(format!("{placer}-report.json"));
        let out = casyn(&["batch", m.to_str().unwrap(), "--out", report.to_str().unwrap()]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.success(), ok, "{placer}: {stderr}");
        assert_eq!(report.exists(), ok, "{placer}: a report only when the manifest is valid");
        if !ok {
            assert!(stderr.contains(r#"job 0: "placer" "bisect""#), "{stderr}");
        }
    }
}

fn jobs_of(doc: &JsonValue) -> &[JsonValue] {
    doc.get("jobs").and_then(JsonValue::as_array).unwrap()
}

fn job_named<'a>(doc: &'a JsonValue, name: &str) -> &'a JsonValue {
    jobs_of(doc).iter().find(|j| j.get("name").and_then(JsonValue::as_str) == Some(name)).unwrap()
}

/// `--resume` reuses a finished record only when its job ran what the
/// manifest entry asks for now: a changed K list and layer count, or new
/// design bytes at the same path, re-run.
#[test]
fn resume_reruns_a_job_whose_entry_changed() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("batch_resume_changed");
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    let (a, b) = (design("ex_a.pla"), design("ex_b.pla"));
    let copy = dir.join("b.pla");
    fs::copy(&b, &copy).unwrap();
    let copy = copy.to_str().unwrap();
    let write = |file: &str, a_entry: &str| {
        let text = format!(
            r#"{{"jobs": [
  {{"design": "{a}", "name": "a", {a_entry}}},
  {{"design": "{copy}", "name": "b", "ks": [0.0, 0.1]}},
  {{"design": "{a}", "name": "c", "ks": [0.0, 0.1]}},
  {{"design": "{b}", "name": "d", "ks": [0.0, 0.1]}}
]}}"#
        );
        let path = dir.join(file);
        fs::write(&path, text).unwrap();
        path
    };
    let first = write("first.json", r#""ks": [0.0]"#);
    let report = dir.join("first-report.json");
    let out = casyn(&["batch", first.to_str().unwrap(), "--out", report.to_str().unwrap()]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    // a asks for more K at another layer count; b's path now holds ex_a
    let second = write("second.json", r#""ks": [0.0, 0.5, 1.0], "layers": 4"#);
    fs::copy(&a, copy).unwrap();
    let resumed = dir.join("second-report.json");
    let out = casyn(&[
        "batch",
        second.to_str().unwrap(),
        "--resume",
        report.to_str().unwrap(),
        "--out",
        resumed.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    for line in ["[a] ok", "[b] ok", "[c] resumed", "[d] resumed"] {
        assert!(stdout.contains(line), "missing {line:?} in:\n{stdout}");
    }
    let (before, after) = (read_json(&report), read_json(&resumed));
    let ks = |j: &JsonValue| -> Vec<f64> {
        let rows = j.get("rows").and_then(JsonValue::as_array).unwrap();
        rows.iter().map(|r| r.get("k").and_then(JsonValue::as_f64).unwrap()).collect()
    };
    assert_eq!(ks(job_named(&after, "a")), [0.0, 0.5, 1.0]);
    assert_eq!(job_named(&after, "a").get("layers").and_then(JsonValue::as_f64), Some(4.0));
    // b ran the new bytes: ex_a's rows, under b's name
    let hash = |doc: &JsonValue, name: &str| job_named(doc, name).get("design_hash").cloned();
    assert_ne!(hash(&after, "b"), hash(&before, "b"));
    assert_eq!(hash(&after, "b"), hash(&after, "c"));
    let quality = |name: &str| {
        strip_wall_ms(&job_named(&after, name).get("rows").unwrap().to_string_pretty())
    };
    assert_eq!(quality("b"), quality("c"));
    for name in ["c", "d"] {
        assert_eq!(job_named(&after, name), job_named(&before, name), "{name} is the same record");
    }
}

/// A job name is a file name only through the one sanitizer: a crash
/// bundle and a per-job trace of a job named `../escaped` stay inside
/// their directories. The bundle is a one-record batch document that
/// replays the failure.
#[test]
fn per_job_files_stay_in_their_directories_and_a_bundle_replays() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("batch_file_names");
    let _ = fs::remove_dir_all(&dir);
    let (crashes, traces) = (dir.join("crashes"), dir.join("traces"));
    fs::create_dir_all(&traces).unwrap();
    let a = design("ex_a.pla");
    let m = dir.join("m.json");
    let text = format!(
        r#"[{{"design": "{a}", "name": "../escaped", "ks": [0.0], "fault_plan": "map:panic:1"}}]"#
    );
    fs::write(&m, text).unwrap();
    let report = dir.join("report.json");
    let out = casyn(&[
        "batch",
        m.to_str().unwrap(),
        "--out",
        report.to_str().unwrap(),
        "--crash-dir",
        crashes.to_str().unwrap(),
        "--trace-out",
        &format!("{}/", traces.display()),
    ]);
    assert!(!out.status.success(), "the faulted job fails the batch");
    assert!(!dir.join("escaped.crash.json").exists() && !dir.join("escaped.trace.json").exists());
    let names = |d: &Path| -> Vec<String> {
        fs::read_dir(d).unwrap().map(|e| e.unwrap().file_name().into_string().unwrap()).collect()
    };
    assert_eq!(names(&crashes), ["___escaped.crash.json"]);
    assert_eq!(names(&traces), ["___escaped.trace.json"]);
    let report = read_json(&report);
    let job = &jobs_of(&report)[0];
    let trace = traces.join("___escaped.trace.json");
    assert_eq!(job.get("trace_path").and_then(JsonValue::as_str), trace.to_str());

    let bundle_path = crashes.join("___escaped.crash.json");
    let bundle = read_json(&bundle_path);
    assert_eq!(bundle.get("schema").and_then(JsonValue::as_str), Some("casyn.batch.v1"));
    assert_eq!(jobs_of(&bundle).len(), 1);
    let replay = dir.join("replay.json");
    let out = casyn(&["batch", bundle_path.to_str().unwrap(), "--out", replay.to_str().unwrap()]);
    assert!(!out.status.success(), "the replay fails again");
    let replay = read_json(&replay);
    let replayed = &jobs_of(&replay)[0];
    let kind = replayed.get("error").and_then(|e| e.get("kind")).and_then(JsonValue::as_str);
    assert_eq!(kind, Some("panicked"));
    assert_eq!(replayed.get("fault_plan").and_then(JsonValue::as_str), Some("map:panic:1"));
}
