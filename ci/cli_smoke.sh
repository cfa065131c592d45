#!/usr/bin/env bash
# CLI smoke lane: run a fixed list of `xsact` invocations (single-document
# demo on every dataset, ranked / bounded / selected listings, the typed
# error exits, corpus mode at several shard counts and over a directory)
# and golden-diff what they print, exit status included. "Every CLI output
# byte-identical" is then a diff of ci/cli.golden, not a claim.
#
# Timings are the only bytes that vary run to run; three fields are
# normalised to `<t>`: the elapsed time that ends a `DoD = …` line and the
# corpus mode's `ingested in …` and `documents in …`.
#
# `bash ci/cli_smoke.sh --bless` rewrites the golden from the current
# binary. The script builds nothing unless target/release/xsact is missing,
# so the CI step can reuse the workspace build.
set -euo pipefail
cd "$(dirname "$0")/.."
export LC_ALL=C

XSACT=target/release/xsact
GOLDEN=ci/cli.golden
if [[ ! -x "$XSACT" ]]; then
    cargo build --release -p xsact-cli
fi

DIR=$(mktemp -d)
trap 'rm -rf "$DIR"' EXIT
mkdir -p "$DIR/xml"
for shop in "east gps" "west gps navigation"; do
    read -r name kind <<<"$shop"
    printf '<shop><product><name>%s unit</name><kind>%s</kind></product></shop>' \
        "$name" "$kind" >"$DIR/xml/$name.xml"
done
# A second corpus whose names and text take every lexer path: uppercase
# and multi-term tag and attribute names (an attribute named like a tag),
# and text mixing ASCII with non-ASCII letters and digits.
mkdir -p "$DIR/mixed"
cat >"$DIR/mixed/alpine.xml" <<'EOF'
<Product_Line Region="Nord-Süd"><Product easyToRead="YES" Product_Line="GPS-630"><Name>TomTom Go 630 GPS</Name><Größe>12 cm² Maß</Größe><Note>ÉTÉ Straße İstanbul easy_to_read GPS</Note></Product><Product easyToRead="no"><Name>Garmin eTrex²</Name><Note>Plain ASCII gps unit, rugged.</Note></Product></Product_Line>
EOF
cat >"$DIR/mixed/coastal.xml" <<'EOF'
<Product_Line Region="West"><Product Product_Line="NAV" easyToRead="Yes"><Name>Garmin Drive 52</Name><Note>Crème brûlée GPS x² · naïve café</Note></Product><Review_Set><Review Stars="4">Easy to read, GPS fix in 30 s</Review></Review_Set></Product_Line>
EOF

normalize() {
    sed -E -e 's/^(DoD = .*), [0-9.]+[^ ]*s$/\1, <t>/' \
        -e 's/ingested in [0-9.]+[^ ]*s$/ingested in <t>/' \
        -e 's/documents in [0-9.]+[^ ]*s$/documents in <t>/'
}

# One invocation: a header naming it (the scratch directory as `<dir>`),
# everything it printed on stdout then stderr, and its exit status.
run_case() {
    local status=0 out err
    out=$(mktemp)
    err=$(mktemp)
    "$XSACT" "$@" >"$out" 2>"$err" || status=$?
    echo "\$ xsact $*" | sed "s|$DIR|<dir>|g"
    cat "$out" "$err"
    echo "exit $status"
    echo
    rm -f "$out" "$err"
}

cases() {
    run_case --dataset figure1 --bound 7
    run_case --dataset figure1 --stats --xml
    run_case --dataset figure1 --select 1,2
    run_case --dataset figure1 --explain
    run_case --dataset figure1 --ranked
    run_case --dataset figure1 --query zeppelin
    run_case --dataset figure1 --query "tomtom zeppelin" --explain
    run_case --dataset movies
    run_case --dataset movies --bound 6 --algorithm single-swap
    run_case --dataset movies --ranked
    run_case --dataset movies --ranked --top 3
    run_case --dataset movies --ranked --top 2 --select 1,3
    run_case --dataset movies --ranked --top 0
    run_case --dataset movies --ranked --top 0 --query zeppelin
    run_case --dataset movies --top 2
    run_case --dataset reviews --select 1,2
    run_case --dataset outdoor
    run_case --dataset jobs --bound 6
    run_case --dataset figure1 --select 9
    run_case --dataset figure1 --query '!!!'
    run_case --dataset figure1 --bound 0
    run_case --dataset figure1 --threshold -5
    for shards in 1 2 8; do
        run_case corpus --docs 4 --movies 40 --shards "$shards"
    done
    run_case corpus --docs 2 --movies 30 --top 1
    run_case corpus --docs 2 --movies 30 --explain
    run_case corpus --docs 2 --movies 20 --bound 0
    run_case corpus --dir "$DIR/xml" --query gps --top 2
    # Cold (builds and saves the indexes), then warm (loads them).
    run_case corpus --dir "$DIR/xml" --query gps --top 2 --index-dir "$DIR/index"
    run_case corpus --dir "$DIR/xml" --query gps --top 2 --index-dir "$DIR/index"
    # Cold over the mixed corpus, then the bytes of every image it wrote:
    # a change to the parser, the lexer or the build that moves one
    # `.xidx` byte shows.
    mixed=(corpus --dir "$DIR/mixed" --query "product line" --top 2 --index-dir "$DIR/mixed-index")
    run_case "${mixed[@]}" | tee "$DIR/mixed-cold.out"
    (cd "$DIR/mixed-index" && cksum -- *.xidx)
    # Warm over the same index dir: every document decodes from its image.
    # It must print no warning and the cold run's bytes, so it is diffed
    # against that run here rather than printed into the golden again.
    run_case "${mixed[@]}" >"$DIR/mixed-warm.out"
    if ! diff -u <(normalize <"$DIR/mixed-cold.out") <(normalize <"$DIR/mixed-warm.out") >&2; then
        echo "FAIL: the warm boot over the mixed corpus differs from its cold boot" >&2
        return 1
    fi
}

if [[ "${1:-}" == "--bless" ]]; then
    cases | normalize >"$GOLDEN"
    exit 0
fi

if ! cases | normalize | diff -u "$GOLDEN" -; then
    echo "FAIL: CLI output diverged from $GOLDEN" >&2
    exit 1
fi
echo "cli smoke: every invocation matched $GOLDEN"
