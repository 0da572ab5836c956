#!/usr/bin/env bash
# Tier-1 gate (see ROADMAP.md). Legs, in order:
#   1. warnings-as-errors release build;
#   2. the simlint determinism/robustness pass over the workspace, then a
#      --crates simlint self-lint pass;
#   3. every workspace crate's test suite (cargo test --workspace);
#   4. a 2-job smoke run of the reproduction at fast scale with the
#      metrics sidecars enabled (fig1, fig2, fig6, table4, users_1e6;
#      fig6 puts all four policy families' I/O through the disk model);
#   5. a 1-job rerun of fig1, fig2, fig6 and table4 that also writes a
#      binary results store, byte-compared against the 2-job run: results
#      must not depend on the thread count;
#   6. `repro export` from the store of leg 5, byte-compared against that
#      leg's sidecars.
# Every file the script writes is under target/ (the lint report is
# target/check/simlint.json); it changes no tracked file. It checks
# correctness only: speed is measured by the benchmark in perfbench/.
set -euo pipefail
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
    fig1 fig2 fig6 table4 users_1e6 --scale 64 --intervals 4 --jobs 2 --json target/check

echo "== sidecar determinism (re-run at 1 job, byte-compare) =="
# This run also writes the binary results store so the export leg below
# can regenerate its sidecars from the .rrs bytes alone.
mkdir -p target/check-j1
rm -f target/check/run.rrs
cargo run --release -q -p readopt-core --bin repro -- \
    fig1 fig2 fig6 table4 --scale 64 --intervals 4 --jobs 1 --json target/check-j1 \
    --store target/check/run.rrs > /dev/null
for exp in fig1 fig2 fig6 table4; do
    cmp "target/check/$exp.metrics.json" "target/check-j1/$exp.metrics.json" \
        || { echo "ERROR: $exp metrics sidecar differs between --jobs 2 and --jobs 1"; exit 1; }
    cmp "target/check/$exp.json" "target/check-j1/$exp.json" \
        || { echo "ERROR: $exp results differ between --jobs 2 and --jobs 1"; exit 1; }
    cmp "target/check/$exp.hist.json" "target/check-j1/$exp.hist.json" \
        || { echo "ERROR: $exp latency histograms differ between --jobs 2 and --jobs 1"; exit 1; }
done
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
