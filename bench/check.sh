#!/usr/bin/env bash
# bench/check.sh — the benchmark's own gate (the CI workflow is off limits
# to the PR that defines the benchmark): format, lints, unit tests,
# BENCHMARK.json in sync with defs.rs, a quick pass of every workload in
# both modes, and proof that a wrong expectation fails the command.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/target}"
manifest=(--manifest-path bench/Cargo.toml)

cargo fmt "${manifest[@]}" --check
cargo clippy --offline "${manifest[@]}" --all-targets -- -D warnings
cargo test --offline --release --quiet "${manifest[@]}"

bash bench/run.sh --describe | diff -u BENCHMARK.json - ||
    { echo "BENCHMARK.json is out of date: bash bench/run.sh --describe > BENCHMARK.json" >&2; exit 1; }

start=$SECONDS
for workload in $(bash bench/run.sh --list); do
    for trace in 0 1; do
        bash bench/run.sh --workload "$workload" --quick --seconds 0.3 --trace "$trace" | tail -n 1 |
            grep -q '^{"correct": true, ' || { echo "$workload --trace $trace failed" >&2; exit 1; }
    done
done
echo "quick pass of every workload, both modes: $((SECONDS - start)) s"
((SECONDS - start < 15)) || { echo "quick pass took 15 s or more" >&2; exit 1; }

for workload in search_cached compare_warm warm_start; do
    if bash bench/run.sh --workload "$workload" --quick --seconds 0.3 --inject-wrong-expectation \
        >/dev/null 2>&1; then
        echo "$workload: a wrong expectation did not fail the command" >&2
        exit 1
    fi
done
echo "a wrong expectation fails the command: ok"
