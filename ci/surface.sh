#!/usr/bin/env bash
# The public surface, gated.
#
# (i)  The facade: the sorted `pub fn|struct|enum|trait|const|type|static`
#      signatures of src/*.rs must equal ci/facade_api.golden, so "public
#      facade unchanged" is a reviewed diff of that file.
# (ii) The layer crates: every such `pub` name declared under crates/*/src
#      must occur as a word in some *other* file of a product surface (src/,
#      crates/, examples/, bench/src) or be listed in ci/surface.allow — one
#      `name  reason` line per oracle that only tests/ reaches. Neither a
#      `pub use` statement nor a comment line counts: re-exporting a name
#      or naming it in a doc link or doctest reaches nothing. The vendored
#      `rand` shim is excepted: it mirrors an external API.
#
# `bash ci/surface.sh --bless` rewrites the golden from the tree.
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

status=0

if ! facade_api | diff -u ci/facade_api.golden -; then
    echo "surface: src/ signatures differ from ci/facade_api.golden (review, then bash ci/surface.sh --bless)" >&2
    status=1
fi

mapfile -t files < <(find src crates examples bench/src -name '*.rs' | sort)
allowed=$(awk '!/^[[:space:]]*(#|$)/ {print $1}' ci/surface.allow)

# The product files with every `pub use` statement (to its `;`) and every
# comment line (`//`, `///`, `//!`, doctests included) blanked, under the
# same relative paths: a doc link or an example names, it does not reach.
uses=$(mktemp -d)
trap 'rm -rf "$uses"' EXIT
printf '%s\n' "${files[@]}" | xargs dirname | sort -u | (cd "$uses" && xargs mkdir -p)
awk -v out="$uses" '
    FNR == 1 { if (dest) close(dest); dest = out "/" FILENAME; skip = 0 }
    !skip && /^[[:space:]]*pub use / { skip = 1 }
    { print ((skip || /^[[:space:]]*\/\//) ? "" : $0) > dest }
    skip && /;/ { skip = 0 }' "${files[@]}"

while read -r file kind name; do
    grep -qxF -- "$name" <<<"$allowed" && continue
    # A type in the signature of a `pub fn` of its own file is reached with
    # that function, and a name in the type of a `pub` field of its own file
    # with that field: callers hold the value without naming its type.
    if [[ $kind != fn && $kind != const && $kind != static ]] &&
        grep -qwE -- "pub ((const|unsafe) )*fn .*$name" "$file"; then
        continue
    fi
    if grep -qwE -- "^[[:space:]]*pub [a-z_][a-z0-9_]*: .*$name" "$file"; then
        continue
    fi
    if ! (cd "$uses" && grep -lw -- "$name" "${files[@]}") | grep -vxF -- "$file" >/dev/null; then
        echo "surface: pub $kind \`$name\` ($file) is named by no other file under src/ crates/ examples/ bench/src and is not in ci/surface.allow" >&2
        status=1
    fi
done < <(printf '%s\n' "${files[@]}" | grep -E '^crates/[^/]+/src/' | grep -v '^crates/rand/' |
    xargs grep -HE "$DECL" |
    sed -nE 's/^([^:]+):[[:space:]]*pub ((const|unsafe) )*([a-z]+) ([A-Za-z_][A-Za-z0-9_]*).*/\1 \4 \5/p' |
    sort -u)

# An allowlist entry must name something a layer crate still declares.
for name in $allowed; do
    if ! grep -rqwE -- "pub ((const|unsafe) )*[a-z]+ $name" crates --include='*.rs'; then
        echo "surface: ci/surface.allow lists \`$name\`, which no layer crate declares pub" >&2
        status=1
    fi
done

exit $status
