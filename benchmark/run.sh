#!/usr/bin/env bash
# Builds the benchmark offline and runs it from the repository root.
#
#   benchmark/run.sh [--seed N] [--runs R] [--seconds S]
#       every workload in a child process of its own, untraced then traced;
#       prints every metric and writes benchmark/out/result.json
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run; the last line of standard output is the result object
#   benchmark/run.sh agree A.json B.json
#       compares two result files under the metrics' bounds
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/casyn-benchmark"
# Build only when a source is newer than the binary. Asking cargo every
# time would cost ~10 s a run outside a git work tree: crates/serve/build.rs
# watches ../../.git/HEAD, and a watched file that does not exist makes
# cargo rerun the script and recompile casyn-serve on every invocation.
if [ ! -x "$bin" ] || [ -n "$(find benchmark/src benchmark/Cargo.toml benchmark/Cargo.lock \
        crates vendor Cargo.toml -newer "$bin" -print -quit)" ]; then
    # cargo's messages go to stderr; standard output stays the benchmark's
    cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
fi
exec "$bin" "$@"
