#!/usr/bin/env bash
# Mutation check: applies each mutant listed in ci/mutants.txt to a scratch
# copy of the tree, one at a time, and runs `cargo test -q --workspace` on
# the copy. Every mutant must make the suite fail. The script fails if a
# mutant survives, does not build, or no longer applies (its exact text is
# not found exactly once in its file).
#
# Usage: bash ci/mutants.sh
# The copy and its build directory go under $TMPDIR (default /tmp) and are
# removed on exit. Each mutant takes one incremental build plus the suite.
set -euo pipefail
shopt -u patsub_replacement 2>/dev/null || true

root=$(cd "$(dirname "$0")/.." && pwd)
work=$(mktemp -d "${TMPDIR:-/tmp}/xsact-mutants.XXXXXX")
trap 'rm -rf "$work"' EXIT
mkdir "$work/tree"
# The working tree as git sees it (tracked and untracked, minus ignored
# files), so an uncommitted ledger line is checked too.
(cd "$root" && git ls-files -z --cached --others --exclude-standard | tar --null -T - -cf -) |
    tar -xf - -C "$work/tree"
export CARGO_TARGET_DIR="$work/target"

run_suite() {
    (cd "$work/tree" && cargo test -q --workspace "$@") >"$work/log" 2>&1
}

echo "building the unmutated tree"
run_suite || { cat "$work/log"; echo "the unmutated suite fails"; exit 1; }

status=0
n=0
while IFS=$'\t' read -r file exact replacement law; do
    [[ -z $file || $file == \#* ]] && continue
    n=$((n + 1))
    exact=${exact//\\n/$'\n'}
    replacement=${replacement//\\n/$'\n'}
    path="$work/tree/$file"
    # The trailing `x` keeps the file's final newlines through `$(...)`.
    original=$(cat "$path" && printf x)
    original=${original%x}
    rest=${original//"$exact"/}
    count=$(((${#original} - ${#rest}) / ${#exact}))
    if ((count != 1)); then
        echo "mutant $n: STALE: exact text found $count times in $file"
        status=1
        continue
    fi
    printf '%s' "${original/"$exact"/"$replacement"}" >"$path"
    start=$SECONDS
    if ! run_suite --no-run; then
        verdict="DOES NOT BUILD"
        status=1
    elif run_suite; then
        verdict="SURVIVED"
        status=1
    else
        verdict="killed"
    fi
    printf '%s' "$original" >"$path"
    echo "mutant $n: $verdict in $((SECONDS - start)) s: $file: $law"
done <"$root/ci/mutants.txt"

((n > 0)) || { echo "ci/mutants.txt lists no mutant"; exit 1; }
exit $status
