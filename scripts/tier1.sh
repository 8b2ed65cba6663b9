#!/usr/bin/env bash
# Tier-1 verification gate: everything a PR must keep green.
#
#   scripts/tier1.sh
#
# Runs the release build, the full workspace test suite (which already
# includes every per-crate suite and integration test — nothing is
# re-run piecemeal), a multi-process loopback smoke test (router + two
# real shard-server processes over Unix-domain sockets), a budgeted
# soak-harness smoke replay, a build and short run of the separate
# benchmark/ workspace, and (for the crates added or reworked
# after the seed) formatting, lint and doc gates.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release --offline

# One run covers everything: unit tests of every workspace crate plus
# all root integration suites (hot_swap, chaos_serving, wire_serving,
# property_invariants, soak_scenarios, ...).
echo "==> cargo test -q (workspace: all crate + integration suites)"
cargo test -q --workspace --offline

# ---- Multi-process loopback smoke -----------------------------------
# Real processes: two sleuth-shardd children behind Unix-domain
# sockets, driven by sleuth-routerd. Pass = router exits 0 (span
# conservation balanced across processes), both shards exit 0, and no
# orphan process survives.
echo "==> loopback smoke: sleuth-routerd + 2x sleuth-shardd over UDS"
SMOKE_DIR=$(mktemp -d)
SHARD_PIDS=()
cleanup_smoke() {
    for pid in "${SHARD_PIDS[@]:-}"; do
        kill -9 "$pid" 2>/dev/null || true
    done
    rm -rf "$SMOKE_DIR"
}
trap cleanup_smoke EXIT

for i in 0 1; do
    target/release/sleuth-shardd \
        --addr "unix:$SMOKE_DIR/shard$i.sock" --shard-id "$i" \
        >"$SMOKE_DIR/shardd$i.log" 2>&1 &
    SHARD_PIDS+=($!)
done
if ! timeout 120 target/release/sleuth-routerd \
    --shard "unix:$SMOKE_DIR/shard0.sock" --shard "unix:$SMOKE_DIR/shard1.sock" \
    --traces 48 --anomalies 6 >"$SMOKE_DIR/routerd.log" 2>&1; then
    echo "loopback smoke: router failed" >&2
    cat "$SMOKE_DIR"/routerd.log "$SMOKE_DIR"/shardd*.log >&2
    exit 1
fi
grep -q '^ROUTER_CONSERVATION ok$' "$SMOKE_DIR/routerd.log" || {
    echo "loopback smoke: conservation line missing" >&2
    cat "$SMOKE_DIR/routerd.log" >&2
    exit 1
}
SMOKE_FAIL=0
for i in 0 1; do
    pid=${SHARD_PIDS[$i]}
    # The shards should already be exiting; give them a bounded grace
    # period before declaring them orphaned.
    for _ in $(seq 1 250); do
        kill -0 "$pid" 2>/dev/null || break
        sleep 0.02
    done
    if kill -0 "$pid" 2>/dev/null; then
        echo "loopback smoke: shard $i (pid $pid) orphaned after shutdown" >&2
        SMOKE_FAIL=1
    elif ! wait "$pid"; then
        echo "loopback smoke: shard $i exited non-zero" >&2
        cat "$SMOKE_DIR/shardd$i.log" >&2
        SMOKE_FAIL=1
    fi
done
[ "$SMOKE_FAIL" -eq 0 ] || exit 1
SHARD_PIDS=()
grep '^ROUTER_' "$SMOKE_DIR/routerd.log" | sed 's/^/    /'
echo "loopback smoke: OK"

# ---- Failover smoke: kill -9 one shardd mid-run ----------------------
# Three shard processes, paced traffic, one shard SIGKILLed while
# batches are still flowing. Pass = router exits 0 (conservation still
# balanced across processes), at least one failover recorded, and zero
# degraded verdicts: every healthy trace gets its full-fidelity verdict
# from a survivor.
echo "==> failover smoke: kill -9 one of 3 sleuth-shardd mid-run"
for i in 0 1 2; do
    target/release/sleuth-shardd \
        --addr "unix:$SMOKE_DIR/fo$i.sock" --shard-id "$i" \
        >"$SMOKE_DIR/fo-shardd$i.log" 2>&1 &
    SHARD_PIDS+=($!)
done
FO_LOG="$SMOKE_DIR/fo-routerd.log"
timeout 120 target/release/sleuth-routerd \
    --shard "unix:$SMOKE_DIR/fo0.sock" --shard "unix:$SMOKE_DIR/fo1.sock" \
    --shard "unix:$SMOKE_DIR/fo2.sock" \
    --traces 48 --anomalies 6 --pace-ms 10 --connect-retries 2 \
    --hb-interval-ms 25 --hb-miss 2 >"$FO_LOG" 2>&1 &
ROUTER_PID=$!
# Wait for the router to be connected to a fully live fleet, let some
# paced batches land, then kill a shard while traffic is flowing.
for _ in $(seq 1 600); do
    grep -q '^ROUTER_READY ' "$FO_LOG" && break
    sleep 0.1
done
grep -q '^ROUTER_READY shards=3 dead=\[\]$' "$FO_LOG" || {
    echo "failover smoke: fleet never came up live" >&2
    cat "$FO_LOG" "$SMOKE_DIR"/fo-shardd*.log >&2
    exit 1
}
sleep 0.1
kill -9 "${SHARD_PIDS[2]}" 2>/dev/null || true
if ! wait "$ROUTER_PID"; then
    echo "failover smoke: router failed after shard kill" >&2
    cat "$FO_LOG" "$SMOKE_DIR"/fo-shardd*.log >&2
    exit 1
fi
grep -q '^ROUTER_CONSERVATION ok$' "$FO_LOG" || {
    echo "failover smoke: conservation violated after shard kill" >&2
    cat "$FO_LOG" >&2
    exit 1
}
grep -Eq '^ROUTER_FAILOVER failovers=[1-9]' "$FO_LOG" || {
    echo "failover smoke: no failover recorded (kill landed too late?)" >&2
    cat "$FO_LOG" >&2
    exit 1
}
grep -Eq '^ROUTER_VERDICTS total=[0-9]+ degraded=0 ' "$FO_LOG" || {
    echo "failover smoke: degraded verdicts after failover" >&2
    cat "$FO_LOG" >&2
    exit 1
}
# The two survivors must still exit 0 on the router's clean shutdown;
# the killed shard is reaped by the EXIT trap.
for i in 0 1; do
    pid=${SHARD_PIDS[$i]}
    for _ in $(seq 1 250); do
        kill -0 "$pid" 2>/dev/null || break
        sleep 0.02
    done
    if kill -0 "$pid" 2>/dev/null; then
        echo "failover smoke: survivor shard (pid $pid) orphaned" >&2
        exit 1
    elif ! wait "$pid"; then
        echo "failover smoke: survivor shard exited non-zero" >&2
        cat "$SMOKE_DIR"/fo-shardd*.log >&2
        exit 1
    fi
done
wait "${SHARD_PIDS[2]}" 2>/dev/null || true
SHARD_PIDS=()
grep -E '^ROUTER_(FAILOVER|DEAD|CONSERVATION)' "$FO_LOG" | sed 's/^/    /'
echo "failover smoke: OK"

# ---- Soak-harness smoke ---------------------------------------------
# Deterministic replay of every small failure-scenario generator
# (diurnal/flash-crowd, retry storm, cascade, partial deploy,
# multi-tenant) against the live runtime under a lossless chaos plan.
# Pass = exit 0 inside the budget, span conservation exact for every
# scenario, zero escaped panics, and the labelled root cause recovered
# in every injected fault episode (SOAK_RESULT ok).
echo "==> soak smoke: sleuth-soak --smoke (seed 42, budget 60s)"
SOAK_LOG="$SMOKE_DIR/soak.log"
if ! timeout 60 target/release/sleuth-soak --smoke --quiet \
    >"$SOAK_LOG" 2>"$SMOKE_DIR/soak.err"; then
    echo "soak smoke: sleuth-soak failed or overran its 60s budget" >&2
    cat "$SOAK_LOG" >&2
    tail -n 40 "$SMOKE_DIR/soak.err" >&2
    exit 1
fi
grep -q '^SOAK_RESULT ok ' "$SOAK_LOG" || {
    echo "soak smoke: SOAK_RESULT ok line missing" >&2
    cat "$SOAK_LOG" >&2
    exit 1
}
SCENARIOS=$(grep -c '^SOAK_SCENARIO ' "$SOAK_LOG")
CONSERVED=$(grep -c '^SOAK_CONSERVATION ok ' "$SOAK_LOG")
CLEAN_PANICS=$(grep -c '^SOAK_PANICS .* escaped=0$' "$SOAK_LOG")
if [ "$SCENARIOS" -ne 5 ] || [ "$CONSERVED" -ne 5 ] || [ "$CLEAN_PANICS" -ne 5 ]; then
    echo "soak smoke: expected 5 scenarios all conserved with no escaped panics" \
         "(got scenarios=$SCENARIOS conserved=$CONSERVED clean=$CLEAN_PANICS)" >&2
    cat "$SOAK_LOG" >&2
    exit 1
fi
grep -E '^SOAK_(SCENARIO|RESULT) ' "$SOAK_LOG" | sed 's/^/    /'
echo "soak smoke: OK"

# ---- Benchmark harness smoke -------------------------------------------
# benchmark/ is its own workspace, so the build and tests above cannot
# see a crate API change that breaks it. Build it against this checkout
# and push 2 s of healthy_flood through a real sleuth-shardd: every
# verdict must match the in-process reference and every span be
# accounted for.
echo "==> benchmark harness: build + 2s healthy_flood smoke"
cargo build --release --offline --manifest-path benchmark/Cargo.toml
if ! timeout 300 cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    --workload healthy_flood --seconds 2 --trace 0 \
    >"$SMOKE_DIR/bench.out" 2>"$SMOKE_DIR/bench.err"; then
    echo "benchmark smoke: harness failed" >&2
    tail -n 40 "$SMOKE_DIR/bench.err" >&2
    exit 1
fi
tail -n 1 "$SMOKE_DIR/bench.out" | python3 -c '
import json, sys
line = json.loads(sys.stdin.read())
if line.get("correct") is not True or line.get("failed") != 0:
    sys.exit("benchmark smoke: result line is not clean: %r" % (
        {k: line.get(k) for k in ("correct", "attempted", "failed")},))
print("    attempted=%d failed=0 spans_per_s=%.0f" % (
    line["attempted"], line["metrics"]["spans_per_s"]["value"]))
'
echo "benchmark smoke: OK"

echo "==> BENCH_hotpath.json sanity (parses; carries both hot-path metrics)"
python3 - <<'EOF'
import json, sys
try:
    with open("BENCH_hotpath.json") as f:
        data = json.load(f)
except FileNotFoundError:
    sys.exit("BENCH_hotpath.json missing - run scripts/bench.sh")
for key in ("ns_per_span_ingest", "ns_per_pair_distance"):
    v = data.get(key)
    if not isinstance(v, (int, float)) or v <= 0:
        sys.exit(f"BENCH_hotpath.json: metric {key!r} missing or non-positive: {v!r}")
print(f"  ns_per_span_ingest={data['ns_per_span_ingest']} "
      f"ns_per_pair_distance={data['ns_per_pair_distance']}")
EOF

echo "==> BENCH_rca.json sanity (parses; pruning gates hold)"
python3 - <<'EOF'
import json, sys
try:
    with open("BENCH_rca.json") as f:
        data = json.load(f)
except FileNotFoundError:
    sys.exit("BENCH_rca.json missing - run scripts/bench.sh")
ratio = data.get("call_ratio")
if not isinstance(ratio, (int, float)) or ratio <= 0:
    sys.exit(f"BENCH_rca.json: call_ratio missing or non-positive: {ratio!r}")
if ratio > 0.5:
    sys.exit(f"BENCH_rca.json: call_ratio {ratio} exceeds the 0.5 gate")
if data.get("identical_root_cause_sets") != 1:
    sys.exit("BENCH_rca.json: pruned and unpruned verdicts diverged")
print(f"  call_ratio={ratio} p50_speedup={data.get('p50_speedup')} "
      f"identical_root_cause_sets=1")
EOF

echo "==> BENCH_failover.json sanity (parses; detection bound holds)"
python3 - <<'EOF'
import json, sys
try:
    with open("BENCH_failover.json") as f:
        data = json.load(f)
except FileNotFoundError:
    sys.exit("BENCH_failover.json missing - run scripts/bench.sh")
for key in ("p50_us", "p99_us"):
    v = data.get("detection", {}).get(key)
    if not isinstance(v, (int, float)) or v <= 0:
        sys.exit(f"BENCH_failover.json: detection.{key} missing or non-positive: {v!r}")
p99 = data["detection"]["p99_us"]
if p99 > 2_000_000:
    sys.exit(f"BENCH_failover.json: detection p99 {p99}us exceeds the 2s gate")
thru = data.get("verdict_throughput", {}).get("p50_per_sec")
if not isinstance(thru, (int, float)) or thru <= 0:
    sys.exit(f"BENCH_failover.json: verdict_throughput.p50_per_sec missing: {thru!r}")
print(f"  detection p50={data['detection']['p50_us']}us p99={p99}us "
      f"verdicts/s p50={thru}")
EOF

GATED="-p sleuth-serve -p sleuth-par -p sleuth-cluster -p sleuth-chaos -p sleuth-wire -p sleuth-synth -p sleuth-soak"

echo "==> cargo fmt --check (serve, par, cluster, chaos, wire, synth, soak)"
# shellcheck disable=SC2086
cargo fmt --check $GATED

echo "==> cargo clippy -D warnings (serve, par, cluster, chaos, wire, synth, soak)"
# shellcheck disable=SC2086
cargo clippy --offline $GATED --all-targets -- -D warnings

echo "==> cargo doc --no-deps -D warnings (gated crates + sleuth-core)"
# shellcheck disable=SC2086
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps $GATED -p sleuth-core

echo "tier-1: OK"
