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
# target/experiments relative to the cwd).
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
: > "$OUT/checked"
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
    echo "$_exp" >> "$OUT/checked"
    if [ "$WRITE" -eq 1 ]; then
        cp "$OUT/$_exp.stdout" "$GOLDENS/$_exp.stdout"
    elif ! diff -u "$GOLDENS/$_exp.stdout" "$OUT/$_exp.stdout"; then
        echo "FAIL $_exp: stdout differs from $GOLDENS/$_exp.stdout under [$*]" >&2
        FAILED=1
    fi
}

# Experiments that run through the sweep driver are checked under two thread
# settings against the same golden, and every CSV they write but the
# wall-clock *wall.csv must come out byte-identical under both.
twice() { # twice <experiment> [VAR=value...]
    _csv="target/experiments/$1"
    rm -rf "$_csv" "$OUT/$1.csv"
    golden "$@" SWARM_BENCH_THREADS=2
    [ "$WRITE" -eq 0 ] || return 0
    cp -r "$_csv" "$OUT/$1.csv"
    golden "$@" SWARM_BENCH_THREADS=1
    diff -r -x '*wall.csv' "$OUT/$1.csv" "$_csv" || {
        echo "FAIL $1: $_csv differs between thread settings" >&2
        FAILED=1
    }
}

# fig5 runs at full quick volume; bench_tail unscaled (its in-binary
# assertion — hedged p99 >= 2x below unhedged under the spike plan — needs
# the volume); everything else at SWARM_BENCH_OPS_SCALE=0.05.
golden fig5 SWARM_BENCH_THREADS=1
twice bench_tail
for exp in table2 table3 fig6 fig10 fig11 fig12; do
    golden "$exp" SWARM_BENCH_OPS_SCALE=0.05
done
for exp in fig7 fig8 fig9 fig13 bench_shards bench_scenarios; do
    twice "$exp" SWARM_BENCH_OPS_SCALE=0.05
done

# Every golden present must belong to an experiment this script ran.
CHECKED=$(sort -u "$OUT/checked" | wc -l)
PRESENT=$(ls "$GOLDENS"/*.stdout | wc -l)
if [ "$CHECKED" -ne "$PRESENT" ]; then
    echo "FAIL: checked $CHECKED experiments but $GOLDENS holds $PRESENT *.stdout goldens" >&2
    FAILED=1
fi

if [ "$FAILED" -ne 0 ]; then
    echo "stdout-parity: FAILED (if the change is intended: sh $0 --write)" >&2
    exit 1
fi
if [ "$WRITE" -eq 1 ]; then
    echo "stdout-parity: wrote $CHECKED goldens to $GOLDENS"
else
    echo "stdout-parity: $CHECKED experiments match their goldens"
fi
