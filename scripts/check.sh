#!/usr/bin/env bash
# Tier-1 gate (see ROADMAP.md). Legs, in order:
#   1. warnings-as-errors release build of every workspace package and
#      target (libraries, binaries, tests, examples), so a warning in
#      repro, simlint, any test or any example fails the gate too;
#   2. the simlint determinism/robustness pass over the workspace, then a
#      --crates simlint self-lint pass;
#   3. every workspace crate's test suite (cargo test --workspace);
#   4. a 2-job smoke run of the reproduction at fast scale with the
#      metrics sidecars enabled (fig1, fig2, fig4, fig5, fig6, table4,
#      table3, diag, ablations, users_1e6; fig6 puts all four policy
#      families' I/O through the disk model, table4, table3 and diag are
#      projections of the fig4 and fig6 outputs, and the ablations are the
#      only runs of FFS, buddy's reallocator and the mirrored, RAID-5 and
#      parity-striped arrays);
#   5. a 1-job rerun of all of them, byte-compared against the 2-job run:
#      results, projections included, must not depend on the thread
#      count. users_1e6 runs each rung on one thread whatever --jobs is,
#      so for it this leg is a plain rerun: its latency histograms
#      (users_1e6.hist.json) must repeat. users_1e6.json holds each
#      rung's wall clock and is not compared; the users_1e6 golden
#      (tests/golden_results.rs) pins its deterministic fields.
# Every file the script writes is under target/ (the lint report is
# target/check/simlint.json); it changes no tracked file. It checks
# correctness only: speed is measured by the benchmark in perfbench/.
# It runs with REPRO_USERS_LADDER unset, so an exported ladder override
# cannot swap leg 4's users_1e6 ladder.
set -euo pipefail
unset REPRO_USERS_LADDER
cd "$(dirname "$0")/.."

if [ "$#" -gt 0 ]; then
    echo "usage: scripts/check.sh (takes no options)" >&2
    exit 2
fi

echo "== cargo build --release --workspace --all-targets (warnings deny) =="
RUSTFLAGS="-D warnings" cargo build --release --workspace --all-targets

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
    fig1 fig2 fig4 fig5 fig6 table4 table3 diag ablations users_1e6 --scale 64 --intervals 4 \
    --jobs 2 --json target/check

echo "== sidecar determinism (re-run at 1 job, byte-compare) =="
mkdir -p target/check-j1
cargo run --release -q -p readopt-core --bin repro -- \
    fig1 fig2 fig4 fig5 fig6 table4 table3 diag ablations users_1e6 --scale 64 --intervals 4 \
    --jobs 1 --json target/check-j1 > /dev/null
ablations="ablation_raid ablation_stripe ablation_file_mix ablation_realloc ablation_ffs
    ablation_degraded_raid ablation_disk_generations"
for exp in fig1 fig2 fig4 fig5 fig6 table4 table3 diag $ablations; do
    cmp "target/check/$exp.metrics.json" "target/check-j1/$exp.metrics.json" \
        || { echo "ERROR: $exp metrics sidecar differs between --jobs 2 and --jobs 1"; exit 1; }
    cmp "target/check/$exp.json" "target/check-j1/$exp.json" \
        || { echo "ERROR: $exp results differ between --jobs 2 and --jobs 1"; exit 1; }
    cmp "target/check/$exp.hist.json" "target/check-j1/$exp.hist.json" \
        || { echo "ERROR: $exp latency histograms differ between --jobs 2 and --jobs 1"; exit 1; }
done
cmp target/check/users_1e6.hist.json target/check-j1/users_1e6.hist.json \
    || { echo "ERROR: users_1e6 latency histograms differ between two runs"; exit 1; }
echo "   sidecars byte-identical across job counts"

