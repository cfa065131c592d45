#!/usr/bin/env bash
# The public surface, gated.
#
# (i)  The facade: the sorted `pub fn|struct|enum|trait|const|type|static`
#      signatures of src/*.rs must equal ci/facade_api.golden, so "public
#      facade unchanged" is a reviewed diff of that file.
# (ii) The layer crates: every such `pub` name declared in the product code
#      of crates/*/src must occur as a word in the product code of some
#      *other* file of a product surface (src/, crates/, examples/,
#      bench/src) or be listed in ci/surface.allow — one `name  reason` line
#      per oracle, or builder of an input, that only tests reach. Product
#      code is a file with every `#[cfg(test)]` item, every `pub use`
#      statement and every comment line blanked: test code, a re-export, a
#      doc link or a doctest reaches nothing, and a `pub` item of test code
#      is no surface. The vendored `rand` shim is excepted: it mirrors an
#      external API.
# (iii) The allowlist: each name must still be declared `pub` in a layer
#      crate's product code, and every `tests/*.rs` file its reason cites
#      must name it as a word.
#
# `bash ci/surface.sh --bless` rewrites the golden from the tree;
# `bash ci/surface.sh --product-code <dir>` checks nothing and writes the
# product code it reads (below) under <dir>, for CI steps that grep
# product code alone.
set -euo pipefail
cd "$(dirname "$0")/.."
export LC_ALL=C

DECL='^[[:space:]]*pub ((const|unsafe) )*(fn|struct|enum|trait|const|type|static) '

# One line per signature, `file: [impl header: ]signature`: a declaration
# runs from its `pub` line to the first `{` or `;`, whitespace squeezed.
facade_api() {
    awk -v decl="$DECL" '
        /^impl/ { owner = $0; sub(/ *\{.*$/, "", owner); owner = owner ": " }
        /^}/ { owner = "" }
        !open && $0 ~ decl { open = 1; sig = FILENAME ": " ($0 ~ /^pub/ ? "" : owner) }
        open {
            line = $0
            gsub(/[[:space:]]+/, " ", line)
            sub(/^ /, "", line)
            sig = sig line " "
            if (line ~ /[{;]/) {
                sub(/ ?[{;].*$/, "", sig)
                print sig
                open = 0
            }
        }' src/*.rs | sort
}

if [[ "${1:-}" == "--bless" ]]; then
    facade_api >ci/facade_api.golden
    exit 0
fi

mapfile -t files < <(find src crates examples bench/src -name '*.rs' | sort)
allowed=$(awk '!/^[[:space:]]*(#|$)/ {print $1}' ci/surface.allow)

# The product code of each file, under the same relative path in $code:
# every `#[cfg(test)]` item (from the attribute to the `}` that closes its
# first `{`, or to its `;`, braces in strings, chars and comments not
# counted), every `pub use` statement (to its `;`) and every comment line
# (`//`, `///`, `//!`, doctests included) blanked.
code=$(mktemp -d)
trap 'rm -rf "$code"' EXIT
printf '%s\n' "${files[@]}" | xargs dirname | sort -u | (cd "$code" && xargs mkdir -p)
awk -v out="$code" '
    # Scans `line` for the end of the test item: updates the string, raw
    # string, block comment and brace state; returns 1 once the item ends.
    function item_ends(line,    n, i, c, d, p, j) {
        n = length(line)
        for (i = 1; i <= n; i++) {
            c = substr(line, i, 1); d = substr(line, i + 1, 1)
            if (blk) {
                if (c == "*" && d == "/") { blk--; i++ } else if (c == "/" && d == "*") { blk++; i++ }
            } else if (str) {
                if (c == "\\") i++; else if (c == "\"") str = 0
            } else if (raw != "") {
                if (c == "\"" && substr(line, i + 1, length(raw) - 1) == substr(raw, 2)) { i += length(raw) - 1; raw = "" }
            } else if (c == "/" && d == "/") {
                return 0
            } else if (c == "/" && d == "*") {
                blk = 1; i++
            } else if (c == "\"") {
                str = 1
            } else if (c == "r" && (d == "\"" || d == "#") && substr(line, i - 1, 1) !~ /[A-Za-z0-9_]/ ||
                       c == "r" && substr(line, i - 1, 1) == "b" && substr(line, i - 2, 1) !~ /[A-Za-z0-9_]/) {
                p = substr(line, i + 1)
                if (match(p, /^#*"/)) { raw = "\"" substr(p, 1, RLENGTH - 1); i += RLENGTH }
            } else if (c == "\x27") {
                # A char literal; a quote, a letter and no closing quote
                # two bytes on is a lifetime.
                if (d == "\\") {
                    j = index(substr(line, i + 3), "\x27"); if (j) i += j + 2
                } else if (d !~ /[A-Za-z_]/ || substr(line, i + 2, 1) == "\x27") {
                    j = index(substr(line, i + 2), "\x27"); if (j) i += j + 1
                }
            } else if (c == "{") {
                depth++; opened = 1
            } else if (c == "}") {
                if (--depth == 0 && opened) return 1
            } else if (c == ";" && !opened) {
                return 1
            }
        }
        return 0
    }
    FNR == 1 { if (dest) close(dest); dest = out "/" FILENAME; skip = 0; test = 0 }
    !test && /^[[:space:]]*#\[cfg\(test\)\]/ { test = 1; depth = 0; opened = 0; str = 0; raw = ""; blk = 0 }
    test { if (item_ends($0)) test = 0; print "" > dest; next }
    !skip && /^[[:space:]]*pub use / { skip = 1 }
    { print ((skip || /^[[:space:]]*\/\//) ? "" : $0) > dest }
    skip && /;/ { skip = 0 }' "${files[@]}"

if [[ "${1:-}" == "--product-code" ]]; then
    cp -R "$code/." "$2"
    exit 0
fi

status=0

if ! facade_api | diff -u ci/facade_api.golden -; then
    echo "surface: src/ signatures differ from ci/facade_api.golden (review, then bash ci/surface.sh --bless)" >&2
    status=1
fi

while read -r file kind name; do
    grep -qxF -- "$name" <<<"$allowed" && continue
    # A type in the signature of a `pub fn` of its own file is reached with
    # that function, and a name in the type of a `pub` field of its own file
    # with that field: callers hold the value without naming its type.
    if [[ $kind != fn && $kind != const && $kind != static ]] &&
        grep -qwE -- "pub ((const|unsafe) )*fn .*$name" "$code/$file"; then
        continue
    fi
    if grep -qwE -- "^[[:space:]]*pub [a-z_][a-z0-9_]*: .*$name" "$code/$file"; then
        continue
    fi
    if ! (cd "$code" && grep -lw -- "$name" "${files[@]}") | grep -vxF -- "$file" >/dev/null; then
        echo "surface: pub $kind \`$name\` ($file) is named by no other file under src/ crates/ examples/ bench/src and is not in ci/surface.allow" >&2
        status=1
    fi
done < <(cd "$code" && printf '%s\n' "${files[@]}" | grep -E '^crates/[^/]+/src/' | grep -v '^crates/rand/' |
    xargs grep -HE "$DECL" |
    sed -nE 's/^([^:]+):[[:space:]]*pub ((const|unsafe) )*([a-z]+) ([A-Za-z_][A-Za-z0-9_]*).*/\1 \4 \5/p' |
    sort -u)

# An allowlist entry must name something a layer crate's product code still
# declares, and every test file its reason cites must name it.
while read -r name reason; do
    if ! grep -rqwE -- "pub ((const|unsafe) )*[a-z]+ $name" "$code/crates" --include='*.rs'; then
        echo "surface: ci/surface.allow lists \`$name\`, which no layer crate declares pub" >&2
        status=1
    fi
    for test in $(grep -oE 'tests/[A-Za-z0-9_/]+\.rs' <<<"$reason" || true); do
        if ! grep -qw -- "$name" "$test" 2>/dev/null; then
            echo "surface: ci/surface.allow cites $test for \`$name\`, which that file does not name" >&2
            status=1
        fi
    done
done < <(grep -vE '^[[:space:]]*(#|$)' ci/surface.allow)

exit $status
