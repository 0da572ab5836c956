#!/usr/bin/env bash
# Tier-1 gate (see ROADMAP.md). Legs, in order:
#   1. warnings-as-errors release build;
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
#   5. a 1-job rerun of all of them that also writes a binary results
#      store, byte-compared against the 2-job run: results, projections
#      included, must not depend on the thread count. users_1e6 runs
#      each rung on one thread whatever --jobs is, so for it this leg is
#      a plain rerun: its latency histograms (users_1e6.hist.json) must
#      repeat, and its store records let leg 6 check users_1e6.json,
#      which holds each rung's wall clock and is not compared here;
#   6. `repro export` from the store of leg 5, byte-compared against that
#      leg's sidecars (users_1e6.json included);
#   7. a resumed run (`table4 users_1e6`) on a copy of leg 5's store: the
#      users_1e6 rungs come back from the store instead of rerunning, the
#      two artifacts that carry wall clocks (users_1e6.json, profile.json)
#      keep their stored bytes, and every deterministic artifact must
#      reproduce its stored bytes (repro exits 2 if one does not); all six
#      files written must equal leg 5's.
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
    fig1 fig2 fig4 fig5 fig6 table4 table3 diag ablations users_1e6 --scale 64 --intervals 4 \
    --jobs 2 --json target/check

echo "== sidecar determinism (re-run at 1 job, byte-compare) =="
# This run also writes the binary results store so the export leg below
# can regenerate its sidecars from the .rrs bytes alone.
mkdir -p target/check-j1
rm -f target/check/run.rrs
cargo run --release -q -p readopt-core --bin repro -- \
    fig1 fig2 fig4 fig5 fig6 table4 table3 diag ablations users_1e6 --scale 64 --intervals 4 \
    --jobs 1 --json target/check-j1 --store target/check/run.rrs > /dev/null
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

echo "== results store resume (table4 users_1e6 on a copy of the store) =="
rm -rf target/check-resume
mkdir -p target/check-resume
cp target/check/run.rrs target/check/resume.rrs
cargo run --release -q -p readopt-core --bin repro -- \
    table4 users_1e6 --scale 64 --intervals 4 --jobs 1 --json target/check-resume \
    --store target/check/resume.rrs > /dev/null 2> target/check/resume.log \
    || { cat target/check/resume.log; echo "ERROR: resuming leg 5's store failed"; exit 1; }
grep -q "users_1e6/u16000 recovered" target/check/resume.log \
    || { echo "ERROR: the resumed run reran the users_1e6 ladder"; exit 1; }
for f in table4.json table4.metrics.json table4.hist.json users_1e6.hist.json \
    users_1e6.json profile.json; do
    cmp "target/check-j1/$f" "target/check-resume/$f" \
        || { echo "ERROR: $f from the resumed store differs from leg 5's"; exit 1; }
done
echo "   resumed run reproduced the stored artifacts"
