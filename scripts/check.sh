#!/usr/bin/env bash
# Tier-1 gate: everything a PR must pass before merging.
#
# Uses --locked throughout: the committed Cargo.lock pins the vendored shim
# versions and the build must work with no registry access (see
# shims/README.md). Run from the repo root.
#
# Each gate is timed; a per-gate elapsed-time summary prints at the end
# (and on failure, for the gates that ran), so slow gates are visible
# instead of anecdotal.

set -euo pipefail
cd "$(dirname "$0")/.."

GATE_NAMES=()
GATE_SECS=()

summary() {
    echo
    echo "== per-gate elapsed time =="
    local i total=0
    for i in "${!GATE_NAMES[@]}"; do
        printf '%8ss  %s\n' "${GATE_SECS[$i]}" "${GATE_NAMES[$i]}"
        total=$((total + GATE_SECS[i]))
    done
    printf '%8ss  total\n' "$total"
}
trap summary EXIT

gate() {
    local name="$1"
    shift
    echo "== $name =="
    local t0=$SECONDS
    "$@"
    GATE_NAMES+=("$name")
    GATE_SECS+=("$((SECONDS - t0))")
}

# Fully simulated result files are regenerated here, never in place, and
# must equal the committed copy byte for byte. To re-capture on purpose,
# copy the regenerated file over the committed one (as with goldens).
FRESH=target/check
mkdir -p "$FRESH"

same_as_committed() {
    local file="$1"
    if ! cmp "$file" "$FRESH/$file" >&2; then
        echo "$file: regenerated output differs from the committed file (new copy: $FRESH/$file)" >&2
        return 1
    fi
}

gate "rustfmt" cargo fmt --all -- --check

gate "build (release, locked)" \
    cargo build --workspace --release --locked

gate "tests" \
    cargo test --workspace --locked --quiet

gate "fpga tests in release (frame-index arithmetic wraps instead of panicking; the two-thread shared-word test races harder)" \
    cargo test --release --locked -p bionicdb-fpga

gate "perfbench unit tests (benchmark package, own workspace)" \
    cargo test --release --locked --offline --manifest-path perfbench/Cargo.toml

gate "clippy (deny warnings)" \
    cargo clippy --workspace --all-targets --locked -- -D warnings

gate "rustdoc (deny warnings: no dangling or private intra-doc links)" \
    env RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --locked

gate "chaos smoke (fixed-seed fault matrix incl. threaded-barrier crash)" \
    cargo run --release --locked -p bionicdb-bench --bin chaos -- --smoke

gate "goldencheck (fixed-seed goldens + strict/fast-forward/threaded byte-identity, one table of checks)" \
    cargo run --release --locked -p bionicdb-bench --bin goldencheck

gate "saturate (graceful-degradation claim: controlled >= 85% of peak at 2x, baseline < 50%)" \
    cargo run --release --locked -p bionicdb-bench --bin saturate -- --quick --json "$FRESH/BENCH_serve.json"

gate "BENCH_serve.json unchanged (the saturate model run is fully simulated)" \
    same_as_committed BENCH_serve.json

gate "saturate --engine hw (open-loop serving on the cycle-accurate machine: graceful degradation + batched admission beats unbatched on chained-hash ycsb_c)" \
    cargo run --release --locked -p bionicdb-bench --bin saturate -- --quick --engine hw --json "$FRESH/BENCH_serve_hw.json"

gate "BENCH_serve_hw.json unchanged (the saturate hw run is fully simulated)" \
    same_as_committed BENCH_serve_hw.json

gate "parsim full study (append results/bench_history.jsonl)" \
    cargo run --release --locked -p bionicdb-bench --bin simperf -- --par --out "$FRESH/BENCH_parsim.json"

gate "batchsweep full study (2x-at-width-8 assertion, append history)" \
    cargo run --release --locked -p bionicdb-bench --bin batchsweep -- --out "$FRESH/BENCH_batch.json"

gate "BENCH_batch.json unchanged (the batchsweep study is fully simulated)" \
    same_as_committed BENCH_batch.json

gate "benchdiff (gate vs recorded baseline)" \
    cargo run --release --locked -p bionicdb-bench --bin benchdiff

gate "dashboard (static HTML from the bench history)" \
    cargo run --release --locked -p bionicdb-bench --bin dashboard

echo
echo "All checks passed."
