#!/usr/bin/env bash
# Serve smoke lane: boot `xsact serve` on a loopback socket, drive it with
# the scripted client, and golden-diff the responses. Six scenarios run
# in sequence:
#
#   1. a normal server — scripted queries, diffed against serve_smoke.golden
#   2. a --budget 1 server — the second query must be ERR BUDGET_EXCEEDED
#   3. a --queue 0 server  — every query must be ERR OVERLOADED
#   4. an XSACT_FAULTS=shard_panic@2 server (result-page cache enabled) —
#      the first query must be ERR SHARD_FAILED, the second byte-identical
#      to a healthy run (diffed against serve_chaos.golden), with
#      shard_restarts 1 and cache_hits 0 (a failure is never cached)
#   5. a --cache-entries 0 server vs the default — the same --repeat 3
#      client script against both; outputs must be byte-identical (the
#      cache never changes bytes, armed or disarmed)
#   6. a --metrics-addr server — one scripted query, then a /metrics scrape
#      over plain HTTP must equal the METRICS verb's body (values
#      normalised as in phase 1)
#
# The script also greps the fault module for its disarmed early-return and
# pins the XSACT_FAULTS read to that one module, so fault injection stays
# one branch on the production hot path.
#
# The script builds nothing unless target/release/xsact is missing, so the
# CI step can reuse the workspace build. Exit code 0 = all six passed.
set -euo pipefail
cd "$(dirname "$0")/.."

XSACT=target/release/xsact
GOLDEN=ci/serve_smoke.golden
if [[ ! -x "$XSACT" ]]; then
    cargo build --release -p xsact-cli
fi

SERVER_PID=""
SERVER_LOG=""
cleanup() {
    if [[ -n "$SERVER_PID" ]] && kill -0 "$SERVER_PID" 2>/dev/null; then
        kill "$SERVER_PID" 2>/dev/null || true
    fi
}
trap cleanup EXIT

# Starts a server on an ephemeral port with the fixed smoke dataset plus
# any extra flags, waits for its "listening on" line, and sets ADDR.
start_server() {
    SERVER_LOG=$(mktemp)
    # stderr joins the log: the chaos phase's injected panic and the
    # "fault injection armed" warning belong there, not in the CI output.
    "$XSACT" serve --addr 127.0.0.1:0 --docs 6 --movies 40 --seed 42 --shards 2 "$@" \
        >"$SERVER_LOG" 2>&1 &
    SERVER_PID=$!
    ADDR=""
    for _ in $(seq 1 100); do
        ADDR=$(sed -n 's/^listening on //p' "$SERVER_LOG")
        [[ -n "$ADDR" ]] && return 0
        if ! kill -0 "$SERVER_PID" 2>/dev/null; then
            echo "FAIL: server exited before binding; log:" >&2
            cat "$SERVER_LOG" >&2
            exit 1
        fi
        sleep 0.1
    done
    echo "FAIL: server never reported its address; log:" >&2
    cat "$SERVER_LOG" >&2
    exit 1
}

# Waits for the server process and echoes its remaining output (the
# shutdown summary), so a hung drain fails the lane visibly.
finish_server() {
    wait "$SERVER_PID"
    SERVER_PID=""
    cat "$SERVER_LOG"
    rm -f "$SERVER_LOG"
}

# Latency values vary run to run; the *shape* of the observability output
# does not. Replace every nanosecond sample in the METRICS exposition and
# every quantile summary in the STATS body with a placeholder, keeping
# metric names, ordering, and the (deterministic) observation counts.
normalize() {
    sed -e 's/^\(xsact_[a-z0-9_]*_ns[^ ]*\) [0-9][0-9]*$/\1 <ns>/' \
        -e 's/^\(\(queue_wait\|execute\|e2e\)_us count:[0-9]*\).*/\1 <quantiles>/'
}

echo "== serve smoke 1/6: scripted session vs golden =="
start_server
"$XSACT" client --addr "$ADDR" <<'EOF' >/tmp/serve_smoke.raw
QUERY drama family
TOP 2
QUERY drama family
STATS
METRICS
QUERY ???
BOGUS verb
SHUTDOWN
EOF
finish_server >/dev/null
normalize </tmp/serve_smoke.raw >/tmp/serve_smoke.out
if ! diff -u "$GOLDEN" /tmp/serve_smoke.out; then
    echo "FAIL: scripted session diverged from $GOLDEN" >&2
    exit 1
fi
# The exposition contract: every latency histogram recorded exactly one
# observation per served query (2 at the time METRICS ran).
for metric in xsact_queue_wait_ns xsact_execute_ns xsact_e2e_ns; do
    grep -q "^${metric}_count 2$" /tmp/serve_smoke.raw || {
        echo "FAIL: ${metric}_count should equal the 2 served queries" >&2
        grep "^${metric}" /tmp/serve_smoke.raw >&2 || true
        exit 1
    }
done
echo "golden diff clean; latency histogram counts match queries served"

echo "== serve smoke 2/6: session budget rejects the second query =="
start_server --budget 1
"$XSACT" client --addr "$ADDR" <<'EOF' >/tmp/serve_budget.out
QUERY drama family
QUERY drama family
SHUTDOWN
EOF
finish_server >/dev/null
grep -q '^OK ' /tmp/serve_budget.out || {
    echo "FAIL: first query should fit the budget" >&2
    cat /tmp/serve_budget.out >&2
    exit 1
}
grep -q '^ERR BUDGET_EXCEEDED ' /tmp/serve_budget.out || {
    echo "FAIL: second query should exceed the budget" >&2
    cat /tmp/serve_budget.out >&2
    exit 1
}
echo "budget rejection surfaced"

echo "== serve smoke 3/6: zero-capacity queue rejects as overloaded =="
start_server --queue 0
"$XSACT" client --addr "$ADDR" <<'EOF' >/tmp/serve_overload.out
QUERY drama family
SHUTDOWN
EOF
finish_server >/dev/null
grep -q '^ERR OVERLOADED ' /tmp/serve_overload.out || {
    echo "FAIL: zero-capacity server should reject with OVERLOADED" >&2
    cat /tmp/serve_overload.out >&2
    exit 1
}
echo "overload rejection surfaced"

echo "== serve smoke 4/6: injected shard panic is typed and recovered =="
# shard_panic@2 fires during the first executed miss (both shards hit the
# counter once); which shard wins the race varies, so shard numbers in
# the ERR line are normalized before the diff. Everything after the
# failed batch must be byte-identical to the healthy phase-1 answers.
XSACT_FAULTS=shard_panic@2 start_server
"$XSACT" client --addr "$ADDR" <<'EOF' >/tmp/serve_chaos.raw
QUERY drama family
QUERY drama family
STATS
METRICS
SHUTDOWN
EOF
finish_server >/dev/null
normalize </tmp/serve_chaos.raw \
    | sed -e 's/shard [0-9][0-9]*/shard N/g' >/tmp/serve_chaos.out
if ! diff -u ci/serve_chaos.golden /tmp/serve_chaos.out; then
    echo "FAIL: chaos session diverged from ci/serve_chaos.golden" >&2
    exit 1
fi
grep -q '^xsact_shard_restarts 1$' /tmp/serve_chaos.raw || {
    echo "FAIL: the panicked shard should be recovered exactly once" >&2
    grep '^xsact_shard' /tmp/serve_chaos.raw >&2 || true
    exit 1
}
# The result-page cache was enabled (the default): both submissions were
# fresh lookups, and the ShardFailed answer was never cached — a hit here
# would mean an error page was replayed.
grep -q '^xsact_cache_hits 0$' /tmp/serve_chaos.raw || {
    echo "FAIL: a failed query must never be served from the cache" >&2
    grep '^xsact_cache' /tmp/serve_chaos.raw >&2 || true
    exit 1
}
grep -q '^xsact_cache_misses 2$' /tmp/serve_chaos.raw || {
    echo "FAIL: both chaos submissions should be cache misses" >&2
    grep '^xsact_cache' /tmp/serve_chaos.raw >&2 || true
    exit 1
}
echo "shard panic surfaced as ERR SHARD_FAILED; recovery matched the golden"

echo "== serve smoke 5/6: disarmed cache is byte-identical =="
# The same --repeat 3 script against the default (cached) server and a
# --cache-entries 0 server: repeats are hits on one and fresh executions
# on the other, and the client-visible bytes must not differ.
cache_script() {
    "$XSACT" client --addr "$ADDR" --repeat 3 <<'EOF2'
QUERY drama family
TOP 2
QUERY drama family
QUERY comedy wedding
EOF2
    "$XSACT" client --addr "$ADDR" <<'EOF2'
SHUTDOWN
EOF2
}
start_server
cache_script >/tmp/serve_cached.out
start_server --cache-entries 0
cache_script >/tmp/serve_uncached.out
if ! diff -u /tmp/serve_cached.out /tmp/serve_uncached.out; then
    echo "FAIL: cache on vs off changed client-visible bytes" >&2
    exit 1
fi
echo "cache on/off outputs byte-identical"

echo "== serve smoke 6/6: the /metrics endpoint serves the METRICS body =="
start_server --metrics-addr 127.0.0.1:0
METRICS_ADDR=$(sed -n 's|^metrics on http://\(.*\)/metrics$|\1|p' "$SERVER_LOG")
[[ -n "$METRICS_ADDR" ]] || {
    echo "FAIL: --metrics-addr printed no 'metrics on' line; log:" >&2
    cat "$SERVER_LOG" >&2
    exit 1
}
"$XSACT" client --addr "$ADDR" <<'EOF' >/tmp/serve_metrics_verb.raw
QUERY drama family
METRICS
EOF
# One HTTP/1.0 request over bash's /dev/tcp; the endpoint closes after
# its one response, so the read ends at EOF.
exec 3<>"/dev/tcp/${METRICS_ADDR%:*}/${METRICS_ADDR##*:}"
printf 'GET /metrics HTTP/1.0\r\n\r\n' >&3
tr -d '\r' <&3 >/tmp/serve_metrics_http.raw
exec 3<&-
"$XSACT" client --addr "$ADDR" <<<SHUTDOWN >/dev/null
finish_server >/dev/null
head -n 1 /tmp/serve_metrics_http.raw | grep -qx 'HTTP/1.0 200 OK' || {
    echo "FAIL: the /metrics scrape was not answered 200 OK" >&2
    cat /tmp/serve_metrics_http.raw >&2
    exit 1
}
sed '1,/^OK metrics$/d' /tmp/serve_metrics_verb.raw | normalize >/tmp/serve_metrics_verb.out
sed '1,/^$/d' /tmp/serve_metrics_http.raw | normalize >/tmp/serve_metrics_http.out
grep -q '^xsact_queries_served 1$' /tmp/serve_metrics_verb.out || {
    echo "FAIL: the METRICS verb should count the one scripted query" >&2
    cat /tmp/serve_metrics_verb.raw >&2
    exit 1
}
if ! diff -u /tmp/serve_metrics_verb.out /tmp/serve_metrics_http.out; then
    echo "FAIL: the /metrics scrape differs from the METRICS verb's body" >&2
    exit 1
fi
echo "/metrics scrape equals the METRICS verb's body"

echo "== zero-cost guards: disarmed faults stay one branch =="
grep -q 'self.0.as_ref()?' src/fault.rs || {
    echo "FAIL: FaultPlan::should_fire lost its disarmed early-return" >&2
    exit 1
}
FAULT_READERS=$(grep -rl --include='*.rs' 'env::var("XSACT_FAULTS")' src crates)
if [[ "$FAULT_READERS" != "src/fault.rs" ]]; then
    echo "FAIL: XSACT_FAULTS must be read only by FaultPlan::from_env; found:" >&2
    echo "$FAULT_READERS" >&2
    exit 1
fi
echo "guards held"

echo "serve smoke: all six scenarios passed"
