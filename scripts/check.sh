#!/usr/bin/env bash
# Tier-1 gate (see ROADMAP.md). Legs, in order:
#   1. warnings-as-errors release build;
#   2. the simlint determinism/robustness pass over the workspace, then a
#      --crates simlint self-lint pass;
#   3. every workspace crate's test suite (cargo test --workspace);
#   4. a 2-job smoke run of the reproduction at fast scale with the
#      metrics sidecars enabled;
#   5. a 1-job rerun that also writes a binary results store, byte-
#      compared against the 2-job run: results must not depend on the
#      thread count;
#   6. a --shards 2 rerun, byte-compared: the sharded engine must be
#      results-invariant in the shard count;
#   7. an --event-queue calendar rerun, byte-compared: the calendar
#      backend must be results-invariant in the queue structure;
#   8. `repro export` from the store of leg 5, byte-compared against that
#      leg's sidecars;
#   9. the allocator microbench and the warn-only perf gate.
# The smoke run's timing profile (per-experiment wall clock, per-sweep-
# point breakdown, and the measured metrics-snapshot overhead) is
# snapshotted into BENCH_runner.json at the repo root, the microbench into
# BENCH_alloc.json, each only when the gate passed it (see below); the lint
# report is written to target/check/simlint.json.
#
# The perf gate compares against the *committed* BENCH_*.json (HEAD), not
# the working tree, so a slow run can never become its own baseline. A
# snapshot is refreshed only when the gate found no regression in it (or
# had no baseline to gate against); a snapshot that warned is kept, and the
# script says so. Pass --accept to refresh every snapshot anyway (after a
# deliberate slowdown, or a rerun that confirmed a warning was noise), or
# --no-refresh to leave the working-tree snapshots untouched (gate only;
# it wins over --accept).
set -euo pipefail
cd "$(dirname "$0")/.."

REFRESH=1
ACCEPT=0
for arg in "$@"; do
    case "$arg" in
        --no-refresh) REFRESH=0 ;;
        --accept) ACCEPT=1 ;;
        *) echo "unknown option $arg (usage: check.sh [--no-refresh] [--accept])"; exit 2 ;;
    esac
done

echo "== cargo build --release (warnings deny) =="
RUSTFLAGS="-D warnings" cargo build --release

echo "== simlint (r1-r9, full workspace) =="
mkdir -p target/check
cargo run --release -q -p simlint -- --json target/check/simlint.json

echo "== simlint self-lint (--crates simlint) =="
# The linter is held to its own r3/r4 scoping: a filtered pass over just
# crates/simlint must come back clean too. The filter only restricts which
# files are linted — the r7 symbol table still spans the whole workspace.
cargo run --release -q -p simlint -- --crates simlint

echo "== cargo test -q --workspace =="
cargo test -q --workspace

echo "== repro smoke (scale 1/64, 2 jobs, metrics on) =="
cargo run --release -p readopt-core --bin repro -- \
    fig1 fig2 table4 shard_scaling users_1e6 --scale 64 --intervals 4 --jobs 2 --json target/check

echo "== sidecar determinism (re-run at 1 job, byte-compare) =="
# This run also writes the binary results store so the export leg below
# can regenerate its sidecars from the .rrs bytes alone.
mkdir -p target/check-j1
rm -f target/check/run.rrs
cargo run --release -q -p readopt-core --bin repro -- \
    fig1 fig2 table4 --scale 64 --intervals 4 --jobs 1 --json target/check-j1 \
    --store target/check/run.rrs > /dev/null
for exp in fig1 fig2 table4; do
    cmp "target/check/$exp.metrics.json" "target/check-j1/$exp.metrics.json" \
        || { echo "ERROR: $exp metrics sidecar differs between --jobs 2 and --jobs 1"; exit 1; }
    cmp "target/check/$exp.json" "target/check-j1/$exp.json" \
        || { echo "ERROR: $exp results differ between --jobs 2 and --jobs 1"; exit 1; }
    cmp "target/check/$exp.hist.json" "target/check-j1/$exp.hist.json" \
        || { echo "ERROR: $exp latency histograms differ between --jobs 2 and --jobs 1"; exit 1; }
done
echo "   sidecars byte-identical across job counts"

echo "== shard determinism (re-run at --shards 2, byte-compare) =="
# shard_scaling itself is excluded from the comparison: its payload is
# wall-clock (timing differs run to run by design); its bit-identity
# assertion runs inside the driver on every invocation above.
mkdir -p target/check-s2
cargo run --release -q -p readopt-core --bin repro -- \
    fig1 fig2 table4 --scale 64 --intervals 4 --jobs 1 --shards 2 \
    --json target/check-s2 > /dev/null
for exp in fig1 fig2 table4; do
    cmp "target/check-j1/$exp.metrics.json" "target/check-s2/$exp.metrics.json" \
        || { echo "ERROR: $exp metrics sidecar differs between --shards 1 and --shards 2"; exit 1; }
    cmp "target/check-j1/$exp.json" "target/check-s2/$exp.json" \
        || { echo "ERROR: $exp results differ between --shards 1 and --shards 2"; exit 1; }
    cmp "target/check-j1/$exp.hist.json" "target/check-s2/$exp.hist.json" \
        || { echo "ERROR: $exp latency histograms differ between --shards 1 and --shards 2"; exit 1; }
done
echo "   results byte-identical across shard counts"

echo "== event-queue determinism (re-run on calendar backend, byte-compare) =="
# users_1e6 asserts heap/calendar equality inside its driver on every run
# above; this leg pins the production experiments to the same contract end
# to end: the calendar-backed engine must reproduce the heap-backed results
# and sidecars byte for byte.
mkdir -p target/check-cal
cargo run --release -q -p readopt-core --bin repro -- \
    fig1 fig2 table4 --scale 64 --intervals 4 --jobs 1 --event-queue calendar \
    --json target/check-cal > /dev/null
for exp in fig1 fig2 table4; do
    cmp "target/check-j1/$exp.metrics.json" "target/check-cal/$exp.metrics.json" \
        || { echo "ERROR: $exp metrics sidecar differs between heap and calendar event queues"; exit 1; }
    cmp "target/check-j1/$exp.json" "target/check-cal/$exp.json" \
        || { echo "ERROR: $exp results differ between heap and calendar event queues"; exit 1; }
    cmp "target/check-j1/$exp.hist.json" "target/check-cal/$exp.hist.json" \
        || { echo "ERROR: $exp latency histograms differ between heap and calendar event queues"; exit 1; }
done
echo "   results byte-identical across event-queue backends"

echo "== results store (repro export, byte-compare against the sidecars) =="
# `repro export` regenerates every JSON sidecar from the sealed .rrs
# written during the 1-job leg. Artifact records hold the exact bytes
# write_json produced, so even profile.json (wall-clock) must round-trip
# byte-identically — any drift means the store and the sidecars diverged.
rm -rf target/check-export
cargo run --release -q -p readopt-core --bin repro -- \
    export --store target/check/run.rrs --json target/check-export > /dev/null
for f in target/check-j1/*.json; do
    cmp "$f" "target/check-export/$(basename "$f")" \
        || { echo "ERROR: $(basename "$f") regenerated from the store differs"; exit 1; }
done
[ "$(ls target/check-j1/*.json | wc -l)" = "$(ls target/check-export/*.json | wc -l)" ] \
    || { echo "ERROR: store export wrote a different artifact set"; exit 1; }
echo "   store export byte-identical to the original sidecars"

echo "== allocator microbench (bitmap vs btree backends) =="
cargo run --release -q -p readopt-bench --bin alloc_bench -- \
    --json target/check/alloc_bench.json

echo "== perf regression gate (warn-only, +25% vs committed baselines) =="
# Baselines come from the committed snapshots (HEAD), never the working
# tree: comparing against a file this script is about to overwrite would
# let one slow run silently become the next run's baseline. A snapshot
# that was never committed falls back to the working-tree copy (first run
# in a fresh history); perf_gate skips missing/empty baselines gracefully.
for snap in BENCH_runner.json BENCH_alloc.json; do
    if ! git show "HEAD:$snap" > "target/check/base_$snap" 2>/dev/null; then
        if [ -f "$snap" ]; then cp "$snap" "target/check/base_$snap"; else : > "target/check/base_$snap"; fi
    fi
done
cargo run --release -q -p readopt-bench --bin perf_gate -- \
    --threshold-pct 25 \
    --runner target/check/base_BENCH_runner.json target/check/profile.json \
    --alloc target/check/base_BENCH_alloc.json target/check/alloc_bench.json \
    | tee target/check/perf_gate.txt

if [ "$REFRESH" = 1 ]; then
    # perf_gate ends each snapshot's gating with `snapshot NAME: STATUS`.
    for entry in runner:profile.json:BENCH_runner.json alloc:alloc_bench.json:BENCH_alloc.json; do
        IFS=: read -r name fresh snap <<< "$entry"
        status=$(sed -n "s/^snapshot $name: //p" target/check/perf_gate.txt)
        if [ "$status" = ok ] || [ "$status" = no-baseline ]; then
            cp "target/check/$fresh" "$snap"
            echo "== wrote $snap (gate: $status) =="
        elif [ "$ACCEPT" = 1 ]; then
            cp "target/check/$fresh" "$snap"
            echo "== wrote $snap (gate: ${status:-none}; taken by --accept) =="
        else
            echo "== kept $snap: the fresh run is '${status:-ungated}' against it (--accept takes it anyway) =="
        fi
    done
else
    echo "== --no-refresh: BENCH_runner.json + BENCH_alloc.json left untouched =="
fi
