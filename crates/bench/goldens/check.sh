#!/usr/bin/env sh
# Bench stdout goldens: runs every `swarm-bench` experiment (release build)
# at a fixed volume and diffs its stdout against
# crates/bench/goldens/<experiment>.stdout.
#
#   sh crates/bench/goldens/check.sh [BIN_DIR]           check (ci.sh's stdout-parity stage)
#   sh crates/bench/goldens/check.sh --write [BIN_DIR]   regenerate the goldens
#
# Stdout carries only simulated numbers, so it is byte-identical across
# reruns and across SWARM_BENCH_THREADS / SWARM_SHARD_THREADS; wall-clock
# output goes to stderr and *_wall.csv and is outside the goldens. Run from
# the repository root (the experiments write target/experiments and
# target/reports relative to the cwd).
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
FAILED=0

golden() { # golden <experiment> <VAR=value...>
    _exp=$1; shift
    env "$@" "$BIN_DIR/swarm-bench" "$_exp" > "$OUT/$_exp.stdout" 2> "$OUT/$_exp.stderr" || {
        echo "FAIL $_exp: exit code $? under [$*]; stderr:" >&2
        cat "$OUT/$_exp.stderr" >&2
        exit 1
    }
    if [ "$WRITE" -eq 1 ]; then
        cp "$OUT/$_exp.stdout" "$GOLDENS/$_exp.stdout"
    elif ! diff -u "$GOLDENS/$_exp.stdout" "$OUT/$_exp.stdout"; then
        echo "FAIL $_exp: stdout differs from $GOLDENS/$_exp.stdout under [$*]" >&2
        FAILED=1
    fi
}

# Experiments that read a thread knob (the sweep driver's SWARM_BENCH_THREADS,
# bench_shards' SWARM_SHARD_THREADS) are checked under two settings.
twice() { # twice <experiment> [VAR=value...]
    golden "$@" SWARM_BENCH_THREADS=2 SWARM_SHARD_THREADS=1
    [ "$WRITE" -eq 1 ] || golden "$@" SWARM_BENCH_THREADS=1 SWARM_SHARD_THREADS=2
}

# The volumes are the ones ci.sh's perf stages use: fig5 at full quick
# volume; bench_repair and bench_tail unscaled (their in-binary assertions
# need the volume); everything else at SWARM_BENCH_OPS_SCALE=0.05.
golden fig5 SWARM_BENCH_THREADS=1
twice bench_repair
twice bench_tail
for exp in table2 table3 fig6 fig11 fig12; do
    golden "$exp" SWARM_BENCH_OPS_SCALE=0.05
done
for exp in fig7 fig8 fig9 fig10 fig13 bench_multiget bench_shards bench_reshard \
    bench_scenarios; do
    twice "$exp" SWARM_BENCH_OPS_SCALE=0.05
done

if [ "$FAILED" -ne 0 ]; then
    echo "stdout-parity: FAILED (if the change is intended: sh $0 --write)" >&2
    exit 1
fi
if [ "$WRITE" -eq 1 ]; then
    echo "stdout-parity: wrote 17 goldens to $GOLDENS"
else
    echo "stdout-parity: 17 experiments match their goldens"
fi
