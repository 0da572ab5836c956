//! Warn-only perf-regression gate for `scripts/check.sh`.
//!
//! Compares a fresh run against the committed baselines — the runner
//! timing profile (`BENCH_runner.json`) and the allocator microbench
//! snapshot (`BENCH_alloc.json`) — and prints a `WARN:` line for every
//! number that got more than the threshold slower. Wall-clock noise on
//! shared machines makes a hard gate flaky, so this always exits 0; the
//! warnings are for the human reading the check log.
//!
//! Each snapshot also gets one machine-readable verdict line,
//! `snapshot <runner|alloc>: <status>`, where status is `ok` (gated, no
//! warning), `warn` (at least one warning), `no-baseline` (nothing to
//! gate against) or `unreadable` (the fresh file is missing or not JSON).
//! `scripts/check.sh` refreshes a committed snapshot only on `ok` or
//! `no-baseline`, so a regressed run never becomes the next baseline.
//!
//! Usage:
//!   perf_gate [--threshold-pct 25] \
//!             [--runner BASELINE FRESH] [--alloc BASELINE FRESH]

use serde::Value;

/// Numeric view of a JSON value (ints widen to f64 for ratio math).
fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::F64(x) => Some(*x),
        Value::U64(x) => Some(*x as f64),
        Value::I64(x) => Some(*x as f64),
        _ => None,
    }
}

fn as_str(v: &Value) -> Option<&str> {
    match v {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

fn as_array(v: &Value) -> Option<&[Value]> {
    match v {
        Value::Array(a) => Some(a),
        _ => None,
    }
}

/// True (and prints a WARN) when `fresh` exceeds `base` by more than
/// `threshold` percent.
fn warn_if_slower(label: &str, base: f64, fresh: f64, threshold: f64, unit: &str) -> bool {
    if base <= 0.0 || !base.is_finite() || !fresh.is_finite() {
        return false;
    }
    let pct = (fresh / base - 1.0) * 100.0;
    if pct > threshold {
        println!("WARN: {label}: {fresh:.3}{unit} vs baseline {base:.3}{unit} (+{pct:.0}%)");
        true
    } else {
        false
    }
}

fn load(path: &str) -> Option<Value> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            println!("note: skipping perf gate for {path}: {e}");
            return None;
        }
    };
    match serde_json::from_str(&text) {
        Ok(v) => Some(v),
        Err(e) => {
            println!("note: skipping perf gate for {path}: parse error: {e}");
            None
        }
    }
}

fn num(v: &Value, key: &str) -> Option<f64> {
    v.get(key).and_then(as_f64)
}

fn text<'a>(v: &'a Value, key: &str) -> Option<&'a str> {
    v.get(key).and_then(as_str)
}

/// Runner profile: total wall time plus per-experiment wall times.
fn gate_runner(base: &Value, fresh: &Value, threshold: f64) -> usize {
    let mut warns = 0;
    if let (Some(b), Some(f)) = (num(base, "total_wall_s"), num(fresh, "total_wall_s")) {
        warns += usize::from(warn_if_slower("runner total", b, f, threshold, "s"));
    }
    let base_exps = base.get("experiments").and_then(as_array).unwrap_or(&[]);
    let fresh_exps = fresh.get("experiments").and_then(as_array).unwrap_or(&[]);
    for be in base_exps {
        let Some(name) = text(be, "experiment") else { continue };
        let fe = fresh_exps.iter().find(|f| text(f, "experiment") == Some(name));
        if let Some(fe) = fe {
            if let (Some(b), Some(f)) = (num(be, "wall_s"), num(fe, "wall_s")) {
                warns +=
                    usize::from(warn_if_slower(&format!("runner {name}"), b, f, threshold, "s"));
            }
            // users_1e6 also gates per point, matched by label: the heap
            // vs calendar walls at each user-count rung are its payload.
            // Baselines predating it contribute nothing.
            if name == "users_1e6" {
                warns += gate_points(be, fe, threshold);
            }
        }
    }
    warns
}

/// Per-sweep-point wall times of one experiment, matched by point label.
fn gate_points(base_exp: &Value, fresh_exp: &Value, threshold: f64) -> usize {
    let mut warns = 0;
    let base_points = base_exp.get("points").and_then(as_array).unwrap_or(&[]);
    let fresh_points = fresh_exp.get("points").and_then(as_array).unwrap_or(&[]);
    for bp in base_points {
        let Some(label) = text(bp, "label") else { continue };
        let fp = fresh_points.iter().find(|p| text(p, "label") == Some(label));
        if let Some(fp) = fp {
            if let (Some(b), Some(f)) = (num(bp, "wall_ms"), num(fp, "wall_ms")) {
                warns +=
                    usize::from(warn_if_slower(&format!("runner {label}"), b, f, threshold, "ms"));
            }
        }
    }
    warns
}

/// Allocator microbench: per-(policy, utilization) bitmap ns/op — the
/// shipped backend is what must not quietly regress — plus the
/// high-fragmentation phase's indexed ns/op and the absolute-cost rows.
/// Baselines predating a row family simply contribute nothing (the key
/// lookups come up empty).
fn gate_alloc(base: &Value, fresh: &Value, threshold: f64) -> usize {
    let mut warns = 0;
    for (family, key, label) in [
        ("rows", "bitmap_ns_per_op", "alloc"),
        ("frag_rows", "indexed_ns_per_op", "alloc frag"),
        ("abs_rows", "ns_per_op", "alloc abs"),
    ] {
        let base_rows = base.get(family).and_then(as_array).unwrap_or(&[]);
        let fresh_rows = fresh.get(family).and_then(as_array).unwrap_or(&[]);
        for br in base_rows {
            let (Some(policy), Some(util)) = (text(br, "policy"), num(br, "util_pct")) else {
                continue;
            };
            let fr = fresh_rows
                .iter()
                .find(|f| text(f, "policy") == Some(policy) && num(f, "util_pct") == Some(util));
            if let Some(fr) = fr {
                if let (Some(b), Some(f)) = (num(br, key), num(fr, key)) {
                    warns += usize::from(warn_if_slower(
                        &format!("{label} {policy}@{util}%"),
                        b,
                        f,
                        threshold,
                        "ns/op",
                    ));
                }
            }
        }
    }
    warns
}

fn main() {
    let mut threshold = 25.0;
    let mut runner: Option<(String, String)> = None;
    let mut alloc: Option<(String, String)> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut pair = || {
            let b = args.next();
            let f = args.next();
            b.zip(f)
        };
        match a.as_str() {
            "--threshold-pct" => {
                threshold = args.next().and_then(|s| s.parse().ok()).unwrap_or(threshold);
            }
            "--runner" => runner = pair(),
            "--alloc" => alloc = pair(),
            other => {
                eprintln!(
                    "unknown option {other} \
                     (usage: perf_gate [--threshold-pct N] [--runner BASE FRESH] \
                     [--alloc BASE FRESH])"
                );
                std::process::exit(2);
            }
        }
    }

    let mut warns = 0;
    if let Some((base, fresh)) = runner {
        warns += gate_snapshot("runner", &base, &fresh, gate_runner, threshold);
    }
    if let Some((base, fresh)) = alloc {
        warns += gate_snapshot("alloc", &base, &fresh, gate_alloc, threshold);
    }
    if warns == 0 {
        println!("   perf gate: no regressions beyond {threshold}% (warn-only)");
    } else {
        println!("   perf gate: {warns} warning(s) — informational, not fatal");
    }
}

/// Gates one snapshot and prints its machine-readable verdict line.
/// Returns the number of warnings.
fn gate_snapshot(
    name: &str,
    base: &str,
    fresh: &str,
    gate: fn(&Value, &Value, f64) -> usize,
    threshold: f64,
) -> usize {
    let (status, warns) = match (load(base), load(fresh)) {
        (_, None) => ("unreadable", 0),
        (None, Some(_)) => ("no-baseline", 0),
        (Some(b), Some(f)) => {
            let warns = gate(&b, &f, threshold);
            (if warns == 0 { "ok" } else { "warn" }, warns)
        }
    };
    println!("snapshot {name}: {status}");
    warns
}
