#!/usr/bin/env sh
# Bench stdout goldens: runs every `swarm-bench` experiment (release build)
# at a fixed volume and diffs its stdout against
# crates/bench/goldens/<experiment>.stdout.
#
#   sh crates/bench/goldens/check.sh [BIN_DIR]           check (ci.sh's stdout-parity stage)
#   sh crates/bench/goldens/check.sh --write [BIN_DIR]   regenerate the goldens
#
# Stdout carries only simulated numbers, so it is byte-identical across
# reruns and across SWARM_BENCH_THREADS; wall-clock output goes to stderr
# and *wall.csv and is outside the goldens. Every run is wrapped in
# `timeout $BUDGET` (hangs and order-of-magnitude slowdowns fail here) and
# prints its seconds. Run from the repository root (the experiments write
# target/experiments and target/reports relative to the cwd).
set -eu

WRITE=0
if [ "${1:-}" = "--write" ]; then
    WRITE=1
    shift
fi
BIN_DIR="${1:-${CARGO_TARGET_DIR:-target}/release}"
GOLDENS="$(dirname "$0")"
OUT="${CARGO_TARGET_DIR:-target}/stdout-parity"
mkdir -p "$OUT"
: > "$OUT/times"
FAILED=0
# Seconds any one run may take: ~10x the slowest (fig5, ~8 s on 2 cores).
BUDGET=120

golden() { # golden <experiment> <VAR=value...>
    _exp=$1; shift
    _start=$(date +%s)
    env "$@" timeout "$BUDGET" "$BIN_DIR/swarm-bench" "$_exp" \
        > "$OUT/$_exp.stdout" 2> "$OUT/$_exp.stderr" || {
        echo "FAIL $_exp: exit code $? under [$*] (124 = over the ${BUDGET}s budget); stderr:" >&2
        cat "$OUT/$_exp.stderr" >&2
        exit 1
    }
    echo "   $_exp [$*]: $(( $(date +%s) - _start ))s" | tee -a "$OUT/times"
    if [ "$WRITE" -eq 1 ]; then
        cp "$OUT/$_exp.stdout" "$GOLDENS/$_exp.stdout"
    elif ! diff -u "$GOLDENS/$_exp.stdout" "$OUT/$_exp.stdout"; then
        echo "FAIL $_exp: stdout differs from $GOLDENS/$_exp.stdout under [$*]" >&2
        FAILED=1
    fi
}

# Experiments that run through the sweep driver are checked under two thread
# settings against the same golden.
twice() { # twice <experiment> [VAR=value...]
    golden "$@" SWARM_BENCH_THREADS=2
    [ "$WRITE" -eq 1 ] || golden "$@" SWARM_BENCH_THREADS=1
}

# fig5 runs at full quick volume; bench_repair and bench_tail unscaled (their
# in-binary assertions — every strategy converges and the digests move fewer
# bytes; hedged p99 >= 2x below unhedged under the spike plan — need the
# volume); everything else at SWARM_BENCH_OPS_SCALE=0.05.
golden fig5 SWARM_BENCH_THREADS=1
twice bench_repair
twice bench_tail
for exp in table2 table3 fig6 fig11 fig12; do
    golden "$exp" SWARM_BENCH_OPS_SCALE=0.05
done
for exp in fig7 fig8 fig9 fig10 fig13 bench_multiget bench_shards bench_reshard; do
    twice "$exp" SWARM_BENCH_OPS_SCALE=0.05
done

# bench_scenarios also writes a JSON + HTML report per scenario: the second
# thread setting's target/reports must equal the first's byte for byte (the
# determinism contract of docs/SCENARIOS.md).
rm -rf target/reports "$OUT/reports.first"
golden bench_scenarios SWARM_BENCH_OPS_SCALE=0.05 SWARM_BENCH_THREADS=2
if [ "$WRITE" -eq 0 ]; then
    mv target/reports "$OUT/reports.first"
    golden bench_scenarios SWARM_BENCH_OPS_SCALE=0.05 SWARM_BENCH_THREADS=1
    diff -r "$OUT/reports.first" target/reports || {
        echo "FAIL bench_scenarios: target/reports differ between thread settings" >&2
        FAILED=1
    }
    [ "$(ls target/reports/*.json | wc -l)" -ge 14 ] || FAILED=1
    for f in ycsb_a_static ycsb_e_flash ttl_churn bigval; do
        [ -s "target/reports/$f.json" ] && [ -s "target/reports/$f.html" ] || {
            echo "FAIL bench_scenarios: target/reports/$f.{json,html} missing or empty" >&2
            FAILED=1
        }
    done
fi

if [ "$FAILED" -ne 0 ]; then
    echo "stdout-parity: FAILED (if the change is intended: sh $0 --write)" >&2
    exit 1
fi
if [ "$WRITE" -eq 1 ]; then
    echo "stdout-parity: wrote 17 goldens to $GOLDENS"
else
    echo "stdout-parity: 17 experiments match their goldens"
fi
