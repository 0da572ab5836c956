//! End-to-end binary-results-store tests against the real `repro` binary:
//! `repro export` must regenerate the JSON sidecars byte-identically,
//! the store's point records must not depend on `--jobs`,
//! and a `users_1e6` ladder killed mid-rung by the checkpoint fault
//! injection must resume to the same store bytes.

use readopt_store::StoreReader;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

fn out_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create artifact dir");
    dir
}

fn run_repro(args: &[&str], env: &[(&str, &str)]) -> Output {
    let mut cmd = repro();
    cmd.args(args);
    for (k, v) in env {
        cmd.env(k, v);
    }
    cmd.output().expect("repro runs")
}

fn run_ok(args: &[&str], env: &[(&str, &str)]) -> Output {
    let out = run_repro(args, env);
    assert!(
        out.status.success(),
        "repro {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

fn read(dir: &Path, file: &str) -> String {
    std::fs::read_to_string(dir.join(file))
        .unwrap_or_else(|e| panic!("read {}/{file}: {e}", dir.display()))
}

/// Every point-record payload in `store`, keyed by `(experiment, index)`.
fn point_records(store: &Path) -> BTreeMap<(String, u64), String> {
    let mut reader = StoreReader::open(store)
        .unwrap_or_else(|e| panic!("open {}: {e}", store.display()));
    let ids: Vec<(String, u64)> = reader.point_ids().to_vec();
    ids.into_iter()
        .map(|(exp, idx)| {
            let payload = reader.point(&exp, idx).expect("read point");
            ((exp, idx), payload)
        })
        .collect()
}

/// `repro --store` + `repro export` round-trips every sidecar
/// byte-identically, and neither the sweep point records nor the
/// deterministic artifacts depend on `--jobs`.
#[test]
fn store_export_roundtrips_and_is_parallelism_invariant() {
    let dir = out_dir("store_roundtrip");
    let base = ["table4", "--scale", "64", "--intervals", "4"];
    let store1 = dir.join("j1.rrs");
    let json1 = dir.join("j1");
    run_ok(
        &[&base[..], &["--jobs", "1", "--store", store1.to_str().unwrap(), "--json", json1.to_str().unwrap()]].concat(),
        &[],
    );

    // Export regenerates every sidecar the run wrote, byte-for-byte.
    let exported = dir.join("export");
    run_ok(
        &["export", "--store", store1.to_str().unwrap(), "--json", exported.to_str().unwrap()],
        &[],
    );
    let mut names: Vec<String> = std::fs::read_dir(&json1)
        .expect("list sidecars")
        .map(|e| e.expect("dir entry").file_name().into_string().expect("utf-8 name"))
        .collect();
    names.sort();
    assert!(names.contains(&String::from("table4.json")), "sidecars written: {names:?}");
    for name in &names {
        assert_eq!(
            read(&json1, name),
            read(&exported, name),
            "{name}: export must be byte-identical to the original sidecar"
        );
    }

    // The same sweep at another job count appends the same point records
    // and deterministic artifacts.
    let reference = point_records(&store1);
    assert!(
        reference.keys().any(|(exp, _)| exp == "table4"),
        "store holds table4 sweep points: {:?}",
        reference.keys().collect::<Vec<_>>()
    );
    let store2 = dir.join("j2.rrs");
    run_ok(&[&base[..], &["--jobs", "2", "--store", store2.to_str().unwrap()]].concat(), &[]);
    let got = point_records(&store2);
    for (id, payload) in &reference {
        // The profile artifact carries wall-clock; everything else must
        // match byte-for-byte.
        if id.0 == "artifact/profile" {
            continue;
        }
        assert_eq!(got.get(id), Some(payload), "store record {id:?} must match the --jobs 1 bytes");
    }

    // A store written under one configuration refuses a different one.
    let clash = run_repro(
        &["table4", "--scale", "32", "--intervals", "4", "--store", store1.to_str().unwrap()],
        &[],
    );
    assert!(!clash.status.success(), "scale 32 against a scale-64 store must be rejected");
    assert!(
        String::from_utf8_lossy(&clash.stderr).contains("different run configuration"),
        "stderr names the meta mismatch:\n{}",
        String::from_utf8_lossy(&clash.stderr)
    );
}

/// A `users_1e6` rung killed mid-test by the checkpoint fault injection
/// resumes from the engine snapshot and seals a store whose ladder point
/// records are byte-identical to an uninterrupted run's.
#[test]
fn killed_users_ladder_resumes_to_identical_store_bytes() {
    let dir = out_dir("store_resume");
    let ckpt = dir.join("ckpt");
    std::fs::create_dir_all(&ckpt).expect("create ckpt dir");
    let base = ["users_1e6", "--scale", "64", "--intervals", "4"];
    let common = [
        ("REPRO_USERS_LADDER", "64"),
        ("REPRO_CKPT_DIR", ckpt.to_str().unwrap()),
        ("REPRO_CKPT_EVERY", "50"),
    ];

    // First attempt: die after the first snapshot write.
    let killed = dir.join("killed.rrs");
    let out = run_repro(
        &[&base[..], &["--store", killed.to_str().unwrap()]].concat(),
        &[&common[..], &[("REPRO_CKPT_KILL", "1")]].concat(),
    );
    assert_eq!(
        out.status.code(),
        Some(readopt_sim::CHECKPOINT_KILL_EXIT),
        "fault injection exits with the kill code:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(ckpt.join("users_64.ckpt").exists(), "the snapshot survives the kill");

    // Second attempt, same store, kill disarmed: resumes mid-test.
    let out = run_ok(&[&base[..], &["--store", killed.to_str().unwrap()]].concat(), &common);
    assert!(
        !ckpt.join("users_64.ckpt").exists(),
        "the snapshot is removed once the rung completes"
    );
    drop(out);

    // Uninterrupted reference run (no checkpointing at all).
    let reference = dir.join("ref.rrs");
    run_ok(
        &[&base[..], &["--store", reference.to_str().unwrap()]].concat(),
        &[("REPRO_USERS_LADDER", "64")],
    );

    let resumed = point_records(&killed);
    let fresh = point_records(&reference);
    let ladder_ids: Vec<&(String, u64)> =
        fresh.keys().filter(|(exp, _)| exp == "users_1e6").collect();
    assert_eq!(
        ladder_ids,
        [&("users_1e6".to_string(), 0)],
        "one record per rung, indexed by the rung"
    );
    for id in ladder_ids {
        assert_eq!(
            resumed.get(id),
            fresh.get(id),
            "{id:?}: resumed ladder record must match the uninterrupted bytes"
        );
    }
}
