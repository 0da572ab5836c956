//! `simlint` — the workspace's determinism & robustness lint pass.
//!
//! The whole value of this reproduction rests on bit-identical simulation
//! results (the parallel runner byte-compares `--jobs 1` against
//! `--jobs N`), so the classic nondeterminism hazards are enforced by
//! tooling rather than convention. This is a self-contained static
//! analysis — a hand-rolled Rust [`lexer`] plus a token-level rule engine
//! ([`rules`]) — with no dependencies, no network, and no clippy/dylint
//! machinery, so it runs identically everywhere the toolchain does.
//!
//! The analysis is layered: the [`lexer`] produces a position-carrying
//! token stream, the [`parse`] module extracts the item structure
//! (structs, fields, derives, fn bodies, impl headers), [`symbols`]
//! assembles a workspace-wide table of config-struct fields and
//! float-typed field names, and [`usage`] collects field-read sites —
//! which lets the rule set reach across files without a full type system.
//!
//! The deny-by-default rules:
//!
//! * **r1** — no `HashMap`/`HashSet`/`thread_rng`/`rand::random` in the
//!   simulation crates (`sim`, `disk`, `alloc`, `workloads`) and the
//!   results store (`store`): deterministic containers
//!   (`BTreeMap`/`BTreeSet`) and the seeded `SimRng` only. Applies to
//!   test code too — a test iterating a `HashMap` can flake.
//! * **r2** — no `std::time::{SystemTime, Instant}` or other wall-clock
//!   reads inside simulation logic; simulated time is explicit
//!   (`crates/disk/src/time.rs`). The `crates/core` runner/profiling
//!   layer is exempt.
//! * **r3** — no `.unwrap()`/`.expect()`/`panic!`/`todo!`/`unimplemented!`
//!   in library-crate non-test code; propagate through each crate's error
//!   type. `assert!` and `unreachable!` remain available for genuine
//!   invariants.
//! * **r4** — no `unsafe` outside `crates/vendor`.
//! * **r5** — no narrowing `as` casts (`u64 as u32`, `f64 as f32`, …) on
//!   the unit/time-arithmetic crates (`disk`, `alloc`, `sim`, `store`); use
//!   `try_from` or keep the wide type.
//! * **r6** — no `.sum::<f64>()` in simulation crates; float addition is
//!   not associative, so accumulation order must be pinned explicitly.
//! * **r7** — no dead config knobs: a `Deserialize`-visible field of a
//!   `*Config` struct in the simulation crates with zero non-serde,
//!   non-test reads anywhere in the workspace silently diverges from the
//!   paper's parameter space.
//! * **r8** — no stale suppressions: a `simlint::allow` directive whose
//!   removal produces no finding is deleted, and every survivor carries a
//!   justification string (`require_reason`).
//! * **r9** — no exact float `==`/`!=` in simulation crates; equal sums
//!   can differ in the last ulp depending on accumulation order.
//!
//! Every rule except r8 supports a justified inline suppression —
//! `// simlint::allow(rule, "reason")` — where the reason is mandatory,
//! and per-crate scoping via a root `simlint.toml` (see [`config`]).
//!
//! Run it with `cargo run -p simlint`; the tier-1 suite runs the same
//! pass in-process (`tests/simlint_clean.rs`) and fails on any finding.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod config;
pub mod diag;
pub mod driver;
pub mod lexer;
pub mod parse;
pub mod rules;
pub mod symbols;
pub mod usage;

pub use config::{FileClass, LintConfig, RuleCfg};
pub use diag::{render_human, render_json};
pub use driver::{run_workspace, run_workspace_filtered, run_workspace_with, Report};
pub use rules::{
    analyze_file, dead_config_hits, finalize, lint_file, FileAnalysis, FileInput, Finding, RawHit,
    SuppressionInfo,
};
