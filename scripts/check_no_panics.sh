#!/usr/bin/env bash
# Flow-stage code reachable from prepare / map_at / route_at (full_flow is
# the two in a row) / k_sweep_prepared / sequential_flow / run_methodology /
# run_batch must report failures through the typed FlowError spine, the
# service (`casyn serve`: handlers, job state machine, caches, durable I/O)
# and its HTTP client through typed HTTP, client and I/O errors, and the
# JSON parser behind every manifest and request body through its typed
# JsonParseError — panic!, .unwrap() and .expect( are
# forbidden there (test modules excluded). unreachable!() is allowed: it
# marks branches the type system cannot rule out but the invariants do.
set -euo pipefail
cd "$(dirname "$0")/.."

files=(
  crates/flow/src/flows.rs
  crates/flow/src/sweep.rs
  crates/flow/src/batch.rs
  crates/flow/src/seq.rs
  crates/flow/src/methodology.rs
  crates/flow/src/check.rs
  crates/flow/src/error.rs
  crates/route/src/router.rs
  crates/route/src/congestion.rs
  crates/place/src/lib.rs
  crates/serve/src/server.rs
  crates/serve/src/state.rs
  crates/serve/src/http.rs
  crates/serve/src/cache.rs
  crates/flow/src/durable.rs
  crates/flow/src/ledger.rs
  crates/serve/src/client.rs
  crates/obs/src/json.rs
)

status=0
for f in "${files[@]}"; do
  # strip the trailing test module, then look for panic paths on code
  # lines (doc examples and comments are fine)
  if hits=$(sed '/#\[cfg(test)\]/,$d' "$f" \
      | grep -nE 'panic!|\.unwrap\(\)|\.expect\(' \
      | grep -vE '^[0-9]+:[[:space:]]*//'); then
    echo "forbidden panic path in $f:"
    echo "$hits"
    status=1
  fi
done

if [ "$status" -eq 0 ]; then
  echo "no-panic check: ${#files[@]} flow-stage, service and JSON parser files clean"
fi
exit $status
