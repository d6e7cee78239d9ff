//! Embeds `git describe` output (when available) so `/healthz` can
//! report exactly which tree the binary was built from. Failure is
//! fine — release tarballs and vendored builds just report the crate
//! version.

use std::process::Command;

fn main() {
    // Watch the checked-out commit only where there is one. A watched
    // path that does not exist (a source archive, a copy of the tree)
    // makes cargo rerun this script, and recompile the crate, on every
    // build.
    let head = "../../.git/HEAD";
    let watched = if std::path::Path::new(head).exists() { head } else { "build.rs" };
    println!("cargo:rerun-if-changed={watched}");
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
