#!/usr/bin/env sh
# Staged CI gate.
#
#   ./ci.sh           full gate: env-purity grep, fmt, clippy, debug tests,
#                     rustdoc lints, release build, the examples run,
#                     benchmark package build +
#                     tests and its exact simulated-metrics pin, release
#                     chaos sweep, bench stdout goldens
#   ./ci.sh --quick   quick gate: env-purity + fmt + clippy + debug tests
#                     only — no release binaries are built (runs on every
#                     push; the full gate runs as CI's second job, see
#                     .github/workflows/ci.yml)
#   ./ci.sh --loc     no gate: prints the lines-by-kind table and the
#                     settable fields of each config struct (below) and
#                     exits; builds nothing
#
# Every stage reports its wall time; a summary table prints at the end,
# followed by the seconds of each `swarm-bench` run of the stdout-parity
# stage (each under that script's one `timeout` budget) and the
# lines-by-kind table.
set -eu

# Lines by kind per crate, the figures CHANGES.md entries quote: non-test
# code / comment / test lines of `crates/<crate>/src/**/*.rs`, blank lines
# uncounted, then a `tests` row (`tests/src` + `tests/tests`: the harness
# and the suites over it, all of it test code by purpose whatever the
# column says) and a `vendor` row (`vendor/*/src`). A file's test module
# starts at its first top-level `#[cfg(test)]` followed by `mod` and runs to
# the end of the file; any other `#[cfg(test)]` covers the one item under it
# (to the closing brace at the attribute's indent, or a line ending in `;`).
# Outside tests a line starting with `//` is a comment and everything else is
# code. Below the table, the ten crate files with the most non-test code, by
# the same rule.
loc_files() { # loc_files <dir...>: "<non-test> <comment> <test> <path>" per file
    find "$@" -name '*.rs' | sort | xargs awk '
        FNR == 1 { in_mod = 0; item = 0; files[FILENAME] = 1 }
        {
            f = FILENAME
            line = $0
            sub(/^[ \t]+/, "", line)
            if (line == "") next
            if (in_mod) { test[f]++; next }
            if (item == 1) {          # the line under the attribute
                test[f]++
                if (indent == "" && line ~ /^(pub )?mod /) { in_mod = 1; item = 0 }
                else item = (line ~ /;$/) ? 0 : 2
                next
            }
            if (item == 2) {          # inside the one item
                test[f]++
                if ($0 == indent "}") item = 0
                next
            }
            if (line == "#[cfg(test)]") {
                indent = $0; sub(/#.*/, "", indent)
                item = 1; test[f]++
                next
            }
            if (line ~ /^\/\//) comment[f]++; else code[f]++
        }
        END { for (f in files) printf "%d %d %d %s\n", code[f], comment[f], test[f], f }'
}

loc_row() { # loc_row <name> <dir...>
    _name=$1; shift
    loc_files "$@" | awk -v crate="$_name" '
        { code += $1; comment += $2; test += $3 }
        END { printf "  %-10s %8d %8d %6d\n", crate, code, comment, test }'
}

# Settable values per config struct: its `pub` fields, less those holding
# another listed struct (`ClusterConfig`'s `fabric` and `quorum` count where
# they are declared). The total is over the run and cluster configs listed
# in CONFIGS.
CONFIGS='FabricConfig QuorumConfig ClusterConfig HedgeConfig RunConfig ScenarioRunConfig'
config_fields() {
    find crates/*/src -name '*.rs' | sort | xargs awk -v names="$CONFIGS" '
        BEGIN { n = split(names, order, " "); for (i = 1; i <= n; i++) listed[order[i]] = 1 }
        /^pub struct [A-Za-z]+ \{/ { name = $3; inside = name in listed; next }
        inside && /^}/ { inside = 0 }
        inside && /^    pub [a-z_0-9]+: / { type = $3; sub(/,$/, "", type); if (!(type in listed)) count[name]++ }
        END {
            printf "  %-18s %8s\n", "config struct", "settable"
            for (i = 1; i <= n; i++) { printf "  %-18s %8d\n", order[i], count[order[i]]; total += count[order[i]] }
            printf "  %-18s %8d\n", "(the " n ")", total
        }'
}

loc() {
    printf '  %-10s %8s %8s %6s\n' crate non-test comment test
    for dir in crates/*/src; do
        crate=${dir#crates/}
        loc_row "${crate%/src}" "$dir"
    done
    loc_row tests tests/src tests/tests
    loc_row vendor vendor/*/src
    printf '  %8s %8s %6s  %s\n' non-test comment test 'file (ten largest)'
    loc_files crates/*/src | sort -k1,1nr -k4,4 | head -n 10 |
        awk '{ printf "  %8d %8d %6d  %s\n", $1, $2, $3, $4 }'
    config_fields
}

QUICK=0
for arg in "$@"; do
    case "$arg" in
        --quick) QUICK=1 ;;
        --loc) loc; exit 0 ;;
        *) echo "usage: ci.sh [--quick | --loc]" >&2; exit 2 ;;
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

# The five library crates and the vendored generator (vendor/rand: the
# xoshiro256++ stream the seed contract rests on, not swappable for
# registry rand; ROADMAP item 8 inlines it) are functions of their
# arguments: only swarm-bench (and the test crates) may read the environment
# or count cores, so the three SWARM_* knobs are every knob there is.
stage env-purity sh -c '! grep -rnE "std::env|available_parallelism" \
    crates/sim/src crates/fabric/src crates/core/src crates/workload/src crates/kv/src \
    vendor/*/src'
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

# Every example in examples/examples/, built and run in release: each asserts
# what it demonstrates, so a non-zero exit fails the stage (~0.6 s for all
# six on 2 cores once built).
stage examples sh -c '
    set -eu
    cargo build --release -q -p swarm-examples --examples
    for src in examples/examples/*.rs; do
        name=$(basename "$src" .rs)
        "${CARGO_TARGET_DIR:-target}/release/examples/$name" > /dev/null || {
            echo "FAIL examples: $name exited $?" >&2
            exit 1
        }
        echo "   $name: ok"
    done'

# The benchmark package is a nested workspace the stages above never
# compile, and it calls swarm_core/swarm_kv constructors directly: build
# and test it here so an API slip fails CI, not the benchmark driver.
stage benchmark-build sh -c 'cd benchmark && cargo build --release --offline && cargo test --offline -q'

# The deterministic perf gate: three smoke-volume runs of the repo's
# benchmark (seed 42, untraced), one per row below, each of whose result
# line must contain every line of its expected file under
# crates/bench/goldens/ (ycsb_b_64: benchmark_smoke.expected, the others:
# benchmark_smoke_<workload>.expected) — `correct`, zero failed operations
# and the seven *simulated* metrics, exactly, no tolerance (they are a pure
# function of the seed; host metrics are not compared). A mismatch means
# simulated behaviour moved: if intended, replace the expected lines with
# the ones this stage prints. ycsb_a_8k and hotkey_16c also gate the
# host-side footprint against a stated ceiling. The benchmark refuses to run
# under SWARM_* knobs, so they are unset for this stage only.
stage benchmark-smoke sh -c '
    set -eu
    unset SWARM_BENCH_THREADS SWARM_BENCH_OPS_SCALE SWARM_CHAOS_SEEDS
    goldens=crates/bench/goldens
    rc=0

    # One row per cell: workload, peak_rss_mb ceiling in MiB (- for none;
    # = measured + 25 %; the measurement prints either way), expected file.
    # ycsb_a_8k says whether simulated memory still costs what a run touches
    # and not what it allocates (Backing store, crates/fabric/src/mem.rs),
    # and whether node memory still holds an 8 KiB write by reference, one
    # host copy per distinct image (Shared runs, same file): 63.5 MiB
    # measured, three runs within 0.2 (95 when every write was copied into
    # node memory, 487 when every reserved byte was zero-filled). hotkey_16c
    # (smoke keeps loaded_keys) says whether a key still costs node memory
    # only for the rings somebody wrote (crates/core/src/innout.rs) and a
    # client handle only its own words: 48 MiB measured (461 when every
    # key had the rings of 16 writers interleaved with its metadata, 77
    # when every cached handle cloned the state of its client and the
    # layouts of its key). No apostrophe in this script: it is one
    # single-quoted word.
    while read -r workload ceiling expected; do
        result=$(bash benchmark/run.sh --smoke --workload "$workload" --seed 42 --trace 0 \
            --out "${CARGO_TARGET_DIR:-target}/benchmark-smoke-$workload" | tail -n 1)
        miss=0
        while IFS= read -r want; do
            case "$result" in
                *"$want"*) ;;
                *) echo "FAIL benchmark-smoke: $workload result lacks $want" >&2; miss=1 ;;
            esac
        done < "$goldens/$expected"
        if [ "$miss" -eq 1 ]; then
            echo "$workload result line: $result" >&2
            rc=1
        fi
        [ "$ceiling" != - ] || continue
        rss=$(echo "$result" | sed -n "s/.*\"peak_rss_mb\":{\"value\":\([0-9.]*\).*/\1/p")
        echo "$workload smoke peak_rss_mb: ${rss:-none reported} (ceiling $ceiling MiB)"
        if [ -z "$rss" ] || ! awk -v r="$rss" -v c="$ceiling" "BEGIN { exit !(r <= c) }"; then
            echo "FAIL benchmark-smoke: $workload peak_rss_mb is over its ceiling" >&2
            rc=1
        fi
    done <<ROWS
ycsb_b_64 - benchmark_smoke.expected
ycsb_a_8k 80 benchmark_smoke_ycsb_a_8k.expected
hotkey_16c 75 benchmark_smoke_hotkey_16c.expected
ROWS
    exit "$rc"
'

# The three chaos suites already ran once above in debug at their pinned seed
# floors; this release-mode pass widens every sweep that takes its seeds from
# `swarm_tests::seeds` to 1 000 seeds, the depth at which chaos.rs's known
# failures were found: chaos.rs (fault plans x protocols, unhedged and
# hedged: 20 000 cells per sweep, ~17 s) and the other two (shard
# independence, scan scenarios; ~25 s together on 2 cores), every
# history checked whole. The same widening runs table2_seeds on all twenty
# of seeds 420-439 instead of its three (~8 s).
stage chaos-release sh -c '
    set -eu
    SWARM_CHAOS_SEEDS=1000 cargo test --release -q -p swarm-tests --test chaos \
        --test shard_chaos --test scenario_chaos --test table2_seeds'

BIN_DIR="${CARGO_TARGET_DIR:-target}/release"

# Bench stdout goldens: every `swarm-bench` experiment once per thread
# setting (the swept ones under SWARM_BENCH_THREADS=2 then =1, against the
# same golden), stdout diffed against crates/bench/goldens/<name>.stdout
# (the unified diff prints on mismatch), every run under one `timeout`
# budget, and each swept experiment's CSVs but *wall.csv byte-compared
# across the two settings. This is also where the in-binary assertion of
# bench_tail runs (unscaled). Regenerate with
# `sh crates/bench/goldens/check.sh --write` (see TESTING.md).
stage stdout-parity sh crates/bench/goldens/check.sh "$BIN_DIR"

echo
echo "CI OK"
printf '%s' "$REPORT"
echo "  stdout-parity runs:"
cat "${CARGO_TARGET_DIR:-target}/stdout-parity/times"
echo "  lines by kind:"
loc
