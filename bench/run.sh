#!/usr/bin/env bash
# Builds the product's CLI and the benchmark from source (both no-ops when
# up to date), then runs one workload:
#
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Extra flags (--quick, --mux, …) pass through.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

# One target directory for both workspaces, so the layer crates compile once.
# The driver sets CARGO_TARGET_DIR relative to the checkout root.
target="${CARGO_TARGET_DIR:-target}"
case "$target" in /*) ;; *) target="$root/$target" ;; esac
export CARGO_TARGET_DIR="$target"

# Build output goes to stderr: stdout belongs to the result.
cargo build --quiet --release --offline --manifest-path "$root/Cargo.toml" -p xsact-cli >&2
cargo build --quiet --release --offline --manifest-path "$root/bench/Cargo.toml" >&2

binary=xsact-perf
args=("$@")
for ((i = 0; i < ${#args[@]}; i++)); do
    if [[ "${args[i]}" == "--trace" && "${args[i + 1]:-}" == "1" ]]; then
        binary=xsact-perf-traced
    fi
done

XSACT_PERF_RUSTC="$(rustc --version)"
XSACT_PERF_COMMIT="$(git rev-parse --short HEAD 2>/dev/null || echo none)"
export XSACT_PERF_RUSTC XSACT_PERF_COMMIT

exec "$target/release/$binary" --xsact-bin "$target/release/xsact" "$@"
