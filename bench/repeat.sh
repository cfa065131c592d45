#!/usr/bin/env bash
# bench/repeat.sh N [--no-trace] [workload…] — N full sets back to back.
#
# Set i runs every workload untraced with seed i (as the driver does: another
# seed each time) and, unless --no-trace, traced with the default seed (so the
# traced run's exact counters must repeat). Prints, per end-to-end metric ×
# workload, the distance between the first and third quartile as a share of
# the median next to the metric's bound, and fails when a spread exceeds its
# bound or an exact counter differs between sets.
set -euo pipefail

sets="${1:?usage: bench/repeat.sh N [--no-trace] [workload…]}"
shift
traced=1
if [[ "${1:-}" == "--no-trace" ]]; then
    traced=0
    shift
fi
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="bench/out/repeat-$$"
mkdir -p "$out"

if (($# > 0)); then
    workloads=("$@")
else
    mapfile -t workloads < <(bash bench/run.sh --list)
fi
seconds="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"

for ((set = 1; set <= sets; set++)); do
    for workload in "${workloads[@]}"; do
        echo "set $set/$sets: $workload" >&2
        bash bench/run.sh --workload "$workload" --seed "$set" --seconds "$seconds" --trace 0 \
            >"$out/$workload.untraced.$set.txt"
        if ((traced)); then
            bash bench/run.sh --workload "$workload" --seconds "$seconds" --trace 1 \
                >"$out/$workload.traced.$set.txt"
        fi
    done
done

python3 - "$out" "$sets" "$traced" "${workloads[@]}" <<'PY'
import json, statistics, sys

out, sets, with_traced, workloads = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1", sys.argv[4:]
bench = json.load(open("BENCHMARK.json"))
bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
# Per-layer metrics that count deterministic work: a fixed seed and a fixed
# op count must reproduce them digit for digit.
EXACT = [
    "index.postings_scanned_per_op", "index.gallop_probes_per_op",
    "index.candidates_pruned_per_op", "index.empty_result_share",
    "index.allocs_per_op", "entity.allocs_per_op", "core.allocs_per_op",
    "serve.cache_hit_share", "serve.cache_evictions_per_op",
    "serve.response_bytes_per_op", "serve.batch_size_mean", "serve.rejected",
    "core.bitmatrix_bytes", "core.dod_sum_snippet", "core.dod_sum_greedy",
    "core.dod_sum_single_swap", "core.dod_sum_multi_swap", "corpus.shard_restarts",
    "xml.nodes_per_doc", "index.xidx_bytes_per_xml_byte", "trace.ops",
]

def result(path):
    return json.loads(open(path).read().splitlines()[-1])

print(next(l for l in open(f"{out}/{workloads[0]}.untraced.1.txt") if l.startswith("# fingerprint")).strip())
failed = False
print(f"{'workload':<16} {'metric':<14} {'median':>14} {'spread':>8} {'bound':>6}")
for w in workloads:
    runs = [result(f"{out}/{w}.untraced.{s}.txt") for s in range(1, sets + 1)]
    if not all(r["correct"] and r["failed"] == 0 for r in runs):
        print(f"{w}: a run was incorrect")
        failed = True
    for name, bound in bounds.items():
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q = statistics.quantiles(values, n=4) if sets >= 2 else [median] * 3
        spread = (q[2] - q[0]) / median
        verdict = ""
        if name != "setup_s" and spread > bound:
            verdict, failed = "  OVER BOUND", True
        elif name != "setup_s" and spread > bound / 3:
            verdict = "  (above a third of the bound)"
        print(f"{w:<16} {name:<14} {median:>14.6g} {spread:>8.2%} {bound:>6.0%}{verdict}")
    if not with_traced:
        continue
    traced = [result(f"{out}/{w}.traced.{s}.txt") for s in range(1, sets + 1)]
    if not all(r["correct"] and r["failed"] == 0 for r in traced):
        print(f"{w}: a traced run was incorrect")
        failed = True
    for name in EXACT:
        values = {r["metrics"][name]["value"] for r in traced}
        if len(values) != 1:
            print(f"{w:<16} {name}: exact counter differs between sets: {sorted(values)}")
            failed = True
if failed:
    print("FAILED")
else:
    print("every spread within its bound" + ("; exact counters identical across sets" if with_traced else ""))
sys.exit(1 if failed else 0)
PY
