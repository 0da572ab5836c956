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
//! warning), `warn` (at least one warning), `no-baseline` (no baseline
//! file, or no baseline number matched a fresh one, so nothing was
//! compared) or `unreadable` (the fresh file is missing or not JSON).
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

/// What gating one snapshot did: how many baseline numbers found a fresh
/// counterpart, and how many of those warned.
#[derive(Debug, Default)]
struct Gated {
    compared: usize,
    warns: usize,
}

impl Gated {
    /// Compares one baseline/fresh pair; prints a WARN and counts it when
    /// `fresh` exceeds `base` by more than `threshold` percent.
    fn compare(&mut self, label: &str, base: f64, fresh: f64, threshold: f64, unit: &str) {
        self.compared += 1;
        if base <= 0.0 || !base.is_finite() || !fresh.is_finite() {
            return;
        }
        let pct = (fresh / base - 1.0) * 100.0;
        if pct > threshold {
            println!("WARN: {label}: {fresh:.3}{unit} vs baseline {base:.3}{unit} (+{pct:.0}%)");
            self.warns += 1;
        }
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
fn gate_runner(base: &Value, fresh: &Value, threshold: f64) -> Gated {
    let mut gated = Gated::default();
    if let (Some(b), Some(f)) = (num(base, "total_wall_s"), num(fresh, "total_wall_s")) {
        gated.compare("runner total", b, f, threshold, "s");
    }
    let base_exps = base.get("experiments").and_then(as_array).unwrap_or(&[]);
    let fresh_exps = fresh.get("experiments").and_then(as_array).unwrap_or(&[]);
    for be in base_exps {
        let Some(name) = text(be, "experiment") else { continue };
        let fe = fresh_exps.iter().find(|f| text(f, "experiment") == Some(name));
        if let Some(fe) = fe {
            if let (Some(b), Some(f)) = (num(be, "wall_s"), num(fe, "wall_s")) {
                gated.compare(&format!("runner {name}"), b, f, threshold, "s");
            }
            // users_1e6 also gates per point, matched by label: the heap
            // vs calendar walls at each user-count rung are its payload.
            // Baselines predating it contribute nothing.
            if name == "users_1e6" {
                gate_points(be, fe, threshold, &mut gated);
            }
        }
    }
    gated
}

/// Per-sweep-point wall times of one experiment, matched by point label.
fn gate_points(base_exp: &Value, fresh_exp: &Value, threshold: f64, gated: &mut Gated) {
    let base_points = base_exp.get("points").and_then(as_array).unwrap_or(&[]);
    let fresh_points = fresh_exp.get("points").and_then(as_array).unwrap_or(&[]);
    for bp in base_points {
        let Some(label) = text(bp, "label") else { continue };
        let fp = fresh_points.iter().find(|p| text(p, "label") == Some(label));
        if let Some(fp) = fp {
            if let (Some(b), Some(f)) = (num(bp, "wall_ms"), num(fp, "wall_ms")) {
                gated.compare(&format!("runner {label}"), b, f, threshold, "ms");
            }
        }
    }
}

/// Allocator microbench: ns/op per (policy, utilization) row. Baseline
/// rows without a fresh counterpart, or without an `ns_per_op` key (older
/// schemas), compare nothing.
fn gate_alloc(base: &Value, fresh: &Value, threshold: f64) -> Gated {
    let mut gated = Gated::default();
    let base_rows = base.get("rows").and_then(as_array).unwrap_or(&[]);
    let fresh_rows = fresh.get("rows").and_then(as_array).unwrap_or(&[]);
    for br in base_rows {
        let (Some(policy), Some(util)) = (text(br, "policy"), num(br, "util_pct")) else {
            continue;
        };
        let fr = fresh_rows
            .iter()
            .find(|f| text(f, "policy") == Some(policy) && num(f, "util_pct") == Some(util));
        if let (Some(b), Some(f)) = (num(br, "ns_per_op"), fr.and_then(|fr| num(fr, "ns_per_op"))) {
            gated.compare(&format!("alloc {policy}@{util}%"), b, f, threshold, "ns/op");
        }
    }
    gated
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

/// A snapshot's verdict and warning count: `no-baseline` when nothing
/// was compared, even if a baseline file was there.
fn verdict(
    base: Option<&Value>,
    fresh: Option<&Value>,
    gate: fn(&Value, &Value, f64) -> Gated,
    threshold: f64,
) -> (&'static str, usize) {
    match (base, fresh) {
        (_, None) => ("unreadable", 0),
        (None, Some(_)) => ("no-baseline", 0),
        (Some(b), Some(f)) => match gate(b, f, threshold) {
            Gated { compared: 0, .. } => ("no-baseline", 0),
            Gated { warns: 0, .. } => ("ok", 0),
            Gated { warns, .. } => ("warn", warns),
        },
    }
}

/// Gates one snapshot and prints its machine-readable verdict line.
/// Returns the number of warnings.
fn gate_snapshot(
    name: &str,
    base: &str,
    fresh: &str,
    gate: fn(&Value, &Value, f64) -> Gated,
    threshold: f64,
) -> usize {
    let (status, warns) = verdict(load(base).as_ref(), load(fresh).as_ref(), gate, threshold);
    println!("snapshot {name}: {status}");
    warns
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alloc_snapshot(policy: &str, key: &str, ns: u64) -> Value {
        let row = format!(r#"{{"policy": "{policy}", "util_pct": 50, "{key}": {ns}}}"#);
        let text = format!(r#"{{"rows": [{row}]}}"#);
        serde_json::from_str(&text).expect("valid JSON")
    }

    #[test]
    fn alloc_verdicts() {
        let base = alloc_snapshot("ffs", "ns_per_op", 1000);
        let gate = |fresh: &Value| verdict(Some(&base), Some(fresh), gate_alloc, 25.0);
        assert_eq!(gate(&alloc_snapshot("ffs", "ns_per_op", 1200)), ("ok", 0));
        assert_eq!(gate(&alloc_snapshot("ffs", "ns_per_op", 1300)), ("warn", 1));
        // Rows that match no baseline row compare nothing: not `ok`.
        assert_eq!(gate(&alloc_snapshot("buddy", "ns_per_op", 99_999)), ("no-baseline", 0));
        assert_eq!(gate(&alloc_snapshot("ffs", "bitmap_ns_per_op", 99_999)), ("no-baseline", 0));
        let old_schema = alloc_snapshot("ffs", "bitmap_ns_per_op", 876);
        let fresh = alloc_snapshot("ffs", "ns_per_op", 99_999);
        assert_eq!(verdict(Some(&old_schema), Some(&fresh), gate_alloc, 25.0), ("no-baseline", 0));
        assert_eq!(verdict(None, Some(&fresh), gate_alloc, 25.0), ("no-baseline", 0));
        assert_eq!(verdict(Some(&base), None, gate_alloc, 25.0), ("unreadable", 0));
    }

    #[test]
    fn runner_verdicts() {
        let profile = |total: f64| -> Value {
            serde_json::from_str(&format!(r#"{{"total_wall_s": {total}}}"#)).expect("valid JSON")
        };
        let gate = |base: &Value, fresh: f64| {
            verdict(Some(base), Some(&profile(fresh)), gate_runner, 25.0)
        };
        assert_eq!(gate(&profile(1.0), 1.1), ("ok", 0));
        assert_eq!(gate(&profile(1.0), 2.0), ("warn", 1));
        let empty: Value = serde_json::from_str("{}").expect("valid JSON");
        assert_eq!(gate(&empty, 2.0), ("no-baseline", 0));
    }
}
