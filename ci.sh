#!/usr/bin/env sh
# Staged CI gate.
#
#   ./ci.sh           full gate: fmt, clippy, debug tests, rustdoc lints,
#                     release build, benchmark package build + tests and
#                     its exact simulated-metrics pin, release chaos sweep,
#                     bench stdout goldens, perf smoke
#   ./ci.sh --quick   quick gate: fmt + clippy + debug tests only — no
#                     release binaries are built (runs on every push; the
#                     full gate runs as CI's second job, see
#                     .github/workflows/ci.yml)
#
# Every stage reports its wall time; a summary table prints at the end.
# Perf-smoke stages carry a wall-time budget (~10x the expected time, so
# only order-of-magnitude regressions or hangs trip them) and print
# measured vs. budget either way.
set -eu

QUICK=0
for arg in "$@"; do
    case "$arg" in
        --quick) QUICK=1 ;;
        *) echo "usage: ci.sh [--quick]" >&2; exit 2 ;;
    esac
done

REPORT=""
record() { # record <name> <seconds>
    REPORT="${REPORT}$(printf '  %-18s %5ss' "$1" "$2")
"
}

stage() { # stage <name> <cmd...>
    _name=$1; shift
    echo "== $_name"
    _start=$(date +%s)
    "$@"
    _took=$(( $(date +%s) - _start ))
    echo "-- $_name: ${_took}s"
    record "$_name" "$_took"
}

perf_stage() { # perf_stage <name> <budget_seconds> <cmd...>
    _name=$1; _budget=$2; shift 2
    echo "== perf: $_name (budget ${_budget}s)"
    _start=$(date +%s)
    _rc=0
    timeout "$_budget" "$@" > /dev/null || _rc=$?
    _took=$(( $(date +%s) - _start ))
    if [ "$_rc" -eq 0 ]; then
        echo "-- perf $_name: measured ${_took}s of ${_budget}s budget"
        record "perf:$_name" "$_took"
    elif [ "$_rc" -eq 124 ]; then
        echo "FAIL perf $_name: measured >= ${_took}s (killed at budget); budget ${_budget}s" >&2
        exit 1
    else
        echo "FAIL perf $_name: exit code $_rc after ${_took}s (budget ${_budget}s)" >&2
        exit 1
    fi
}

stage fmt    cargo fmt --check
stage clippy cargo clippy --all-targets -- -D warnings
stage test   cargo test -q

if [ "$QUICK" -eq 1 ]; then
    echo
    echo "CI QUICK OK"
    printf '%s' "$REPORT"
    exit 0
fi

stage doc env RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace
stage build-release cargo build --release

# The benchmark package is a nested workspace the stages above never
# compile, and it calls swarm_core/swarm_kv constructors directly: build
# and test it here so an API slip fails CI, not the benchmark driver.
stage benchmark-build sh -c 'cd benchmark && cargo build --release --offline && cargo test --offline -q'

# The deterministic perf gate: one smoke-volume run of the repo's benchmark
# (ycsb_b_64, seed 42, untraced) whose result line must contain every line
# of crates/bench/goldens/benchmark_smoke.expected — `correct`, zero failed
# operations and the seven *simulated* metrics, exactly, no tolerance (they
# are a pure function of the seed; host metrics are not compared). A
# mismatch means simulated behaviour moved: if intended, replace the
# expected lines with the ones this stage prints. The benchmark refuses to
# run under SWARM_* knobs, so they are unset for this stage only.
stage benchmark-smoke sh -c '
    set -eu
    unset SWARM_BENCH_THREADS SWARM_SHARD_THREADS SWARM_BENCH_OPS_SCALE SWARM_CHAOS_SEEDS
    result=$(bash benchmark/run.sh --smoke --workload ycsb_b_64 --seed 42 --trace 0 \
        --out "${CARGO_TARGET_DIR:-target}/benchmark-smoke" | tail -n 1)
    rc=0
    while IFS= read -r want; do
        case "$result" in
            *"$want"*) ;;
            *) echo "FAIL benchmark-smoke: result lacks $want" >&2; rc=1 ;;
        esac
    done < crates/bench/goldens/benchmark_smoke.expected
    [ "$rc" -eq 0 ] || echo "result line: $result" >&2
    exit "$rc"
'

# The chaos suite already ran once above with the pinned quick set; this
# release-mode pass widens the sweep. SWARM_CHAOS_SEEDS controls seeds per
# (protocol, fault-plan) cell — export a bigger N for deeper local hunts
# (see TESTING.md).
stage chaos-release env SWARM_CHAOS_SEEDS="${SWARM_CHAOS_SEEDS:-8}" \
    cargo test --release -q -p swarm-tests --test chaos

# Mid-migration chaos: online splits with source crashes, destination
# crashes (abort path), and membership-driven rebuilds, each replayed
# bit-identically across all three ShardModes. The same SWARM_CHAOS_SEEDS
# knob widens the per-scenario seed sweep (default 8 here vs the suite's
# debug-mode floor of 4).
stage reshard-chaos env SWARM_CHAOS_SEEDS="${SWARM_CHAOS_SEEDS:-8}" \
    cargo test --release -q -p swarm-tests --test reshard_chaos

# Anti-entropy chaos: repair armed under drop windows, every digest
# strategy, repair composed with an online split — bit-identical across
# all three ShardModes, plus the divergence-persists-without /
# heals-with ground truth. Same SWARM_CHAOS_SEEDS knob.
stage repair-chaos env SWARM_CHAOS_SEEDS="${SWARM_CHAOS_SEEDS:-8}" \
    cargo test --release -q -p swarm-tests --test repair_chaos

BIN_DIR="${CARGO_TARGET_DIR:-target}/release"

# Bench stdout goldens: all 17 `swarm-bench` experiments at the perf stages'
# volumes, stdout diffed against crates/bench/goldens/<name>.stdout (the
# unified diff prints on mismatch). The threaded experiments run under two
# SWARM_BENCH_THREADS / SWARM_SHARD_THREADS settings against the same
# golden, so the thread-knob contract rides on the same check. Regenerate
# with `sh crates/bench/goldens/check.sh --write` (see TESTING.md).
stage stdout-parity sh crates/bench/goldens/check.sh "$BIN_DIR"

# Perf smoke: quick fig5 single-threaded, a 2-thread fig8 sweep, and the
# sharded scale bench, all volume-scaled, under generous budgets. Guards
# the event loop (fig5 runs full quick volume), the threaded sweep driver,
# and the one-Sim-per-shard driver from silent regressions. bench_shards
# runs twice — single shard thread, then SWARM_SHARD_THREADS=2 — so the
# threaded path (scoped threads, work stealing, shard-order merge) gets a
# perf-budgeted exercise (stdout-parity above checks its output).
perf_stage fig5 60 env SWARM_BENCH_THREADS=1 "$BIN_DIR/swarm-bench" fig5
perf_stage fig8 120 env SWARM_BENCH_OPS_SCALE=0.05 SWARM_BENCH_THREADS=2 "$BIN_DIR/swarm-bench" fig8
perf_stage bench_shards 120 env SWARM_BENCH_OPS_SCALE=0.05 SWARM_BENCH_THREADS=2 \
    SWARM_SHARD_THREADS=1 "$BIN_DIR/swarm-bench" bench_shards
perf_stage bench_shards-mt 120 env SWARM_BENCH_OPS_SCALE=0.05 SWARM_BENCH_THREADS=1 \
    SWARM_SHARD_THREADS=2 "$BIN_DIR/swarm-bench" bench_shards
# The elastic-split timeline: wall time is dominated by the fixed 140 ms
# simulated horizon (two cells), so the volume knob mainly shrinks the
# preloaded keyspace; the split still has to seal or the bench fails.
perf_stage bench_reshard 60 env SWARM_BENCH_OPS_SCALE=0.05 SWARM_BENCH_THREADS=2 \
    "$BIN_DIR/swarm-bench" bench_reshard
# Anti-entropy convergence: three digest-strategy cells over the quick
# 2^14 keyspace (unscaled — the bloom-vs-full byte assertion needs a
# keyspace big enough for digests to pay off). Asserts every cell
# converges to zero residual divergence and BloomBuckets moves fewer
# bytes than the full exchange.
perf_stage bench_repair 60 env SWARM_BENCH_THREADS=3 "$BIN_DIR/swarm-bench" bench_repair
# Tail smoke: the quick {no-hedge, hedge} x {calm, spike} sweep (four
# cells). The binary asserts in-process that hedged p99 is >= 2x below
# unhedged under the canonical delay-spike plan with <= 5% median
# regression, and that the hedge budget balances — so this stage failing
# means the tail optimization regressed, not just a slow host.
perf_stage tail-smoke 60 env SWARM_BENCH_THREADS=2 "$BIN_DIR/swarm-bench" bench_tail
# Scenario smoke: the YCSB A-F x {static, flash-crowd} x 2-protocol (+ TTL
# churn + bimodal values) scenario sweep at smoke volume, run twice with
# different thread knobs. The binary validates every report's JSON before
# it touches disk (swarm_bench::validate_json); this stage asserts the
# report files exist, are non-empty, and are byte-identical across the two
# runs — the determinism contract of docs/SCENARIOS.md. (Its stdout is
# covered by stdout-parity.)
perf_stage scenario-smoke 120 sh -c '
    set -eu
    rm -rf target/reports target/reports.first
    SWARM_BENCH_OPS_SCALE=0.05 SWARM_BENCH_THREADS=2 "$0/swarm-bench" bench_scenarios
    mv target/reports target/reports.first
    SWARM_BENCH_OPS_SCALE=0.05 SWARM_BENCH_THREADS=1 SWARM_SHARD_THREADS=2 \
        "$0/swarm-bench" bench_scenarios
    diff -r target/reports.first target/reports
    [ "$(ls target/reports/*.json | wc -l)" -ge 14 ]
    for f in target/reports/ycsb_a_static target/reports/ycsb_e_flash \
             target/reports/ttl_churn target/reports/bigval; do
        [ -s "$f.json" ] && [ -s "$f.html" ]
    done
    rm -rf target/reports.first
' "$BIN_DIR"

echo
echo "CI OK"
printf '%s' "$REPORT"
