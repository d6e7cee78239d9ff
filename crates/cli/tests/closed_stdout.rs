//! A reader that goes away before `casyn` is done (`casyn help | head
//! -1`, a batch log piped into a pager that quits) must neither panic the
//! command nor cost it the files it writes.

use casyn_obs::json::JsonValue;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

/// Runs `casyn` with a stdout whose read end is already closed, so every
/// write to it fails with a broken pipe.
fn casyn_into_a_closed_pipe(args: &[&str]) -> Output {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    Command::new(env!("CARGO_BIN_EXE_casyn"))
        .args(args)
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("spawn casyn")
}

fn design(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/designs").join(name);
    path.canonicalize().unwrap().to_str().unwrap().to_string()
}

#[test]
fn help_into_a_closed_pipe_does_not_panic() {
    let out = casyn_into_a_closed_pipe(&["help"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(out.status.success(), "{stderr}");
}

#[test]
fn batch_into_a_closed_pipe_still_writes_its_report() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("closed_stdout");
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    let manifest = dir.join("m.json");
    let (a, b) = (design("ex_a.pla"), design("ex_b.pla"));
    fs::write(
        &manifest,
        format!(r#"[{{"design": "{a}", "name": "a", "ks": [0]}}, {{"design": "{b}", "name": "b", "ks": [0]}}]"#),
    )
    .unwrap();
    let report = dir.join("r.json");
    let out = casyn_into_a_closed_pipe(&[
        "batch",
        manifest.to_str().unwrap(),
        "--jobs",
        "1",
        "--out",
        report.to_str().unwrap(),
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(out.status.success(), "{stderr}");
    let doc = JsonValue::parse(&fs::read_to_string(&report).unwrap()).unwrap();
    let jobs = doc.get("jobs").and_then(JsonValue::as_array).unwrap();
    let names: Vec<_> = jobs.iter().map(|j| j.get("name").and_then(JsonValue::as_str)).collect();
    assert_eq!(names, [Some("a"), Some("b")]);
    for j in jobs {
        assert_eq!(j.get("status").and_then(JsonValue::as_str), Some("ok"), "{j:?}");
    }
}
