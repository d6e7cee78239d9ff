//! Embeds `git describe` output (when available) so `/healthz` can
//! report exactly which tree the binary was built from. Failure is
//! fine — release tarballs and vendored builds just report the crate
//! version.

use std::path::Path;
use std::process::Command;

fn main() {
    for watched in watched_git_files(Path::new("../../.git")) {
        println!("cargo:rerun-if-changed={watched}");
    }
    let describe = Command::new("git")
        .args(["describe", "--always", "--dirty", "--tags"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_default();
    println!("cargo:rustc-env=CASYN_GIT_DESCRIBE={describe}");
}

/// The files whose change means another commit is checked out: `HEAD`,
/// which changes on a checkout, the branch ref it names, which changes on
/// a commit, and `logs/HEAD`, which grows on both (and on a commit to a
/// packed ref). Only those that exist: a watched path that does not (a
/// source archive, a copy of the tree) makes cargo rerun this script, and
/// recompile the crate, on every build. Without any, the script watches
/// itself.
fn watched_git_files(git: &Path) -> Vec<String> {
    let head = git.join("HEAD");
    let mut files = vec![head.clone(), git.join("logs/HEAD")];
    if let Some(name) = std::fs::read_to_string(&head)
        .ok()
        .and_then(|s| s.strip_prefix("ref: ").map(|r| r.trim().to_string()))
    {
        files.push(git.join(name));
    }
    let mut watched: Vec<String> =
        files.iter().filter(|f| f.exists()).map(|f| f.display().to_string()).collect();
    if watched.is_empty() {
        watched.push("build.rs".into());
    }
    watched
}
