//! A `casyn.run.v1` ledger record written before records held their
//! manifest entry (`fixtures/ex_a-91c13eba9f92ab9d.json`, from `casyn
//! sweep examples/designs/ex_a.pla --ks 0,0.5 --jobs 1 --ledger <dir>`)
//! still loads, keeps the address in its file name, and diffs clean
//! against the record the same command writes now.

use casyn_flow::JobRecord;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

#[test]
fn an_older_ledger_record_keeps_its_address_and_diffs_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let older =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/ex_a-91c13eba9f92ab9d.json");
    let rec = JobRecord::load(&older).unwrap();
    assert_eq!(format!("{:016x}", rec.content_hash()), "91c13eba9f92ab9d");
    assert_eq!((rec.job.name.as_str(), rec.scheme.as_str()), ("ex_a", "pdp"));
    assert_eq!(rec.job.ks, [0.0, 0.5]);

    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("ledger_compat");
    let _ = fs::remove_dir_all(&dir);
    let casyn = |args: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_casyn"))
            .current_dir(&root)
            .args(args)
            .output()
            .expect("spawn casyn");
        assert!(out.status.success(), "{args:?}: {}", String::from_utf8_lossy(&out.stderr));
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let ledger = dir.to_str().unwrap();
    casyn(&[
        "sweep",
        "examples/designs/ex_a.pla",
        "--ks",
        "0,0.5",
        "--jobs",
        "1",
        "--ledger",
        ledger,
    ]);
    let now = dir.join("ex_a-91c13eba9f92ab9d.json");
    assert!(now.exists(), "the same run lands on the same address");
    let diff = casyn(&["diff", older.to_str().unwrap(), now.to_str().unwrap()]);
    assert!(diff.contains("0 stable deltas"), "{diff}");
}
