#!/usr/bin/env bash
# The public surface, gated.
#
# (i)  The facade's shape: the sorted `pub fn|struct|enum|trait|const|type|
#      static` signatures of src/*.rs must equal ci/facade_api.golden, so
#      "public facade unchanged" is a reviewed diff of that file.
# (ii) Reach: every such `pub` item declared in the product code of a layer
#      crate (crates/*/src) or of the facade (src/) must be reached by the
#      product code of another file of a product surface (src/, crates/,
#      examples/, bench/src), or be listed in ci/surface.allow.
#      - A `pub fn` of an `impl T` block is reached by a call: `.name(`,
#        `.name::<` or `T::name`. A local, a field or a free function of
#        the same name reaches nothing.
#      - Any other item (a free fn, a type, a const, a static) is reached by
#        its name as a word. A type in the signature of a `pub fn` of its
#        own file is reached with that function, and a name in the type of
#        a `pub` field of its own file with that field: callers hold the
#        value without naming its type.
#      - A facade item is reached only from outside src/: the CLI, the
#        examples and bench/src. A method src/ alone calls is `pub(crate)`.
#      Product code is a file with every `#[cfg(test)]` item, every `pub
#      use` statement and every comment line blanked: test code, a
#      re-export, a doc link or a doctest reaches nothing, and a `pub` item
#      of test code is no surface. The vendored `rand` shim is excepted: it
#      mirrors an external API.
#      The limit of the call rule: it reads text, not types. A method whose
#      name std also uses (`get`, `contains`, `to_vec`, `parse`, ...) is
#      reached by any such call on any type. Those were settled by hand,
#      by deleting each on a copy and building the workspace, its examples
#      and bench/; a new one has to be too.
# (iii) The allowlist: one `name  reason` line (`T::name  reason` for a
#      method) per reference or builder of an input that only tests reach.
#      Each must still be declared `pub` in the product code of a layer
#      crate or the facade, and every `tests/*.rs` file its reason cites
#      must name it (call it, for a method).
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
mapfile -t outside < <(printf '%s\n' "${files[@]}" | grep -v '^src/')
allowed=$(awk '!/^[[:space:]]*(#|$)/ {print $1}' ci/surface.allow)

# The product code of each file, under the same relative path in $code:
# every `#[cfg(test)]` item (from the attribute to the `}` that closes its
# first `{`, or to its `;`, braces in strings, chars and comments not
# counted), every `pub use` statement (to its `;`) and every comment line
# (`//`, `///`, `//!`, doctests included) blanked. Each `pub` declaration
# of product code goes to $decls as `file kind name owner`, where the
# owner of a `pub fn` directly inside an inherent `impl T` block is `T`
# and that of any other item `-`.
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
code=$tmp/code decls=$tmp/decls
mkdir "$code"
printf '%s\n' "${files[@]}" | xargs dirname | sort -u | (cd "$code" && xargs mkdir -p)
awk -v out="$code" -v decls="$decls" -v decl="$DECL" '
    # Lexes `line`: `{` and `}` outside strings, raw strings, chars and
    # comments move `depth`; the `{` after an impl header pushes its owner
    # and the `}` that closes it pops it. A test item ends (`ended`) at the
    # `}` that brings `depth` back to where it began, or at a `;` before
    # its first `{`.
    function scan(line,    n, i, c, d, p, j) {
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
                return
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
                if (pending != "") { impls++; at[impls] = depth; owner[impls] = pending; pending = "" }
            } else if (c == "}") {
                if (impls && at[impls] == depth) impls--
                if (--depth == base && opened && test) ended = 1
            } else if (c == ";" && !opened && test) {
                ended = 1
            }
        }
    }
    # The type an impl header is for, or "-" for a trait impl.
    function impl_owner(line,    h, i, level) {
        h = line
        sub(/^[[:space:]]*(unsafe[[:space:]]+)?impl/, "", h)
        if (substr(h, 1, 1) == "<") {
            for (i = 1; i <= length(h); i++) {
                if (substr(h, i, 1) == "<") level++
                else if (substr(h, i, 1) == ">" && --level == 0) break
            }
            h = substr(h, i + 1)
        }
        if (h ~ /[[:space:]]for[[:space:]]/ || !match(h, /[A-Za-z_][A-Za-z0-9_:]*/)) return "-"
        h = substr(h, RSTART, RLENGTH)
        sub(/.*::/, "", h)
        return h
    }
    FNR == 1 {
        if (dest) close(dest)
        dest = out "/" FILENAME; skip = 0; test = 0; depth = 0; impls = 0; pending = ""; blk = 0; str = 0; raw = ""
    }
    /^[[:space:]]*(unsafe[[:space:]]+)?impl[[:space:]<]/ { pending = impl_owner($0) }
    !test && /^[[:space:]]*#\[cfg\(test\)\]/ { test = 1; base = depth; opened = 0; ended = 0 }
    test { scan($0); if (ended) test = 0; print "" > dest; next }
    !skip && /^[[:space:]]*pub use / { skip = 1 }
    !skip && $0 ~ decl {
        item = $0
        sub(/^[[:space:]]*pub /, "", item)
        split(item, word, /[^A-Za-z0-9_]+/)
        for (k = 1; word[k] ~ /^(const|unsafe)$/ && word[k + 1] ~ /^(const|unsafe|fn)$/; k++) {}
        print FILENAME, word[k], word[k + 1], (word[k] == "fn" && impls && at[impls] == depth ? owner[impls] : "-") > decls
    }
    { print ((skip || /^[[:space:]]*\/\//) ? "" : $0) > dest; scan($0) }
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

# The files other than $1, among those the rest of the arguments name, whose
# product code matches the extended regex $2.
callers() {
    local file=$1 pattern=$2
    shift 2
    (cd "$code" && grep -lE -- "$pattern" "$@") | grep -vxF -- "$file"
}

# The facade's `pub fn` signatures, impl headers dropped.
signatures=$(facade_api | sed -E 's/^[^ ]+ (impl[^:]*: )?//' | grep -E '^pub ((const|unsafe) )*fn ' || true)

while read -r file kind name owner; do
    if [[ $file == src/* ]]; then
        scope=("${outside[@]}") where="no product file outside src/ (the CLI, examples/, bench/src)"
    else
        scope=("${files[@]}") where="no other file under src/ crates/ examples/ bench/src"
    fi
    if [[ $owner != - ]]; then
        grep -qxF -- "$owner::$name" <<<"$allowed" && continue
        if ! callers "$file" "\\.$name(\\(|::<)|(^|[^A-Za-z0-9_])$owner::$name([^A-Za-z0-9_]|\$)" "${scope[@]}" >/dev/null; then
            echo "surface: pub fn \`$owner::$name\` ($file) is called (\`.$name(\` or \`$owner::$name\`) by $where and is not in ci/surface.allow" >&2
            status=1
        fi
        continue
    fi
    grep -qxF -- "$name" <<<"$allowed" && continue
    if [[ $file == src/* ]]; then
        # A facade type is reached through the signature of any facade
        # `pub fn` or the type of any facade `pub` field.
        if [[ $kind != fn && $kind != const && $kind != static ]] &&
            { grep -qw -- "$name" <<<"$signatures" ||
                (cd "$code" && grep -qwE -- "^[[:space:]]*pub [a-z_][a-z0-9_]*: .*$name" src/*.rs); }; then
            continue
        fi
    elif [[ $kind != fn && $kind != const && $kind != static ]] &&
        grep -qwE -- "pub ((const|unsafe) )*fn .*$name" "$code/$file"; then
        continue
    elif grep -qwE -- "^[[:space:]]*pub [a-z_][a-z0-9_]*: .*$name" "$code/$file"; then
        continue
    fi
    if ! callers "$file" "(^|[^A-Za-z0-9_])$name([^A-Za-z0-9_]|\$)" "${scope[@]}" >/dev/null; then
        echo "surface: pub $kind \`$name\` ($file) is named by $where and is not in ci/surface.allow" >&2
        status=1
    fi
done < <(grep -E '^(src|crates/[^/]+/src)/' "$decls" | grep -v '^crates/rand/' | sort -u)

# An allowlist entry must name something the product code of a layer crate
# or the facade still declares, and every test file its reason cites must
# name it: call it, for a method.
while read -r name reason; do
    if [[ $name == *::* ]]; then
        owner=${name%::*} method=${name#*::}
        declared=$(awk -v o="$owner" -v m="$method" '$3 == m && $4 == o' "$decls")
        pattern="\\.$method(\\(|::<)|(^|[^A-Za-z0-9_])$owner::$method([^A-Za-z0-9_]|\$)"
    else
        declared=$(awk -v n="$name" '$3 == n && $4 == "-"' "$decls")
        pattern="(^|[^A-Za-z0-9_])$name([^A-Za-z0-9_]|\$)"
    fi
    if ! grep -E '^(src|crates/[^/]+/src)/' <<<"$declared" | grep -qv '^crates/rand/'; then
        echo "surface: ci/surface.allow lists \`$name\`, which neither a layer crate nor the facade declares pub" >&2
        status=1
    fi
    for test in $(grep -oE 'tests/[A-Za-z0-9_/]+\.rs' <<<"$reason" || true); do
        if ! grep -qE -- "$pattern" "$test" 2>/dev/null; then
            echo "surface: ci/surface.allow cites $test for \`$name\`, which that file does not name" >&2
            status=1
        fi
    done
done < <(grep -vE '^[[:space:]]*(#|$)' ci/surface.allow)

exit $status
