//! End-to-end binary-results-store tests against the real `repro` binary:
//! `repro export` must regenerate the JSON sidecars byte-identically,
//! the store's artifact records must not depend on `--jobs`, a
//! `users_1e6` ladder cut short after its first rung must resume from the
//! store to the same records and latency sidecar, and a resumed store
//! whose deterministic artifact or rung record this program cannot
//! reproduce is an error (exit 2), never a panic. A store refused when it
//! is opened (another configuration, a record of a family this program
//! does not write, an unparsable rung) is left byte for byte as it was.

use readopt_store::{StoreReader, StoreWriter};
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

/// Every record payload in `store`, keyed by `(experiment, index)`.
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
/// byte-identically, the store holds each result once (as artifact
/// bytes, with no record per sweep point), and the deterministic
/// artifacts do not depend on `--jobs`.
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

    // The store holds the artifacts and nothing per sweep point, and the
    // same sweep at another job count appends the same deterministic
    // artifacts.
    let reference = point_records(&store1);
    let ids: Vec<_> = reference.keys().collect();
    assert!(
        reference.keys().all(|(exp, _)| exp.starts_with("artifact/")),
        "only artifact records: {ids:?}"
    );
    for name in ["table4", "table4.metrics", "table4.hist", "profile"] {
        let id = (format!("artifact/{name}"), 0);
        assert!(reference.contains_key(&id), "store holds {id:?}: {ids:?}");
    }
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

/// A `users_1e6` ladder whose store ends after its first rung's record
/// (a run killed during the second rung) resumes per rung: the recorded
/// rung is read back instead of re-simulated, the missing one runs, and
/// the store's ladder records and the latency sidecar equal an
/// uninterrupted run's.
#[test]
fn users_ladder_resumes_completed_rungs_from_the_store() {
    let dir = out_dir("store_rung_resume");
    let base = ["users_1e6", "--scale", "64", "--intervals", "4"];
    let ladder = [("REPRO_USERS_LADDER", "64,256")];

    let full = dir.join("full.rrs");
    let full_json = dir.join("full");
    run_ok(
        &[&base[..], &["--store", full.to_str().unwrap(), "--json", full_json.to_str().unwrap()]]
            .concat(),
        &ladder,
    );

    // Keep the store only up to the end of rung 0's record.
    let recovered = StoreReader::recover(&full).expect("recover the finished store");
    let rung0 = recovered
        .points
        .iter()
        .find(|p| p.experiment == "users_1e6" && p.index == 0)
        .expect("rung 0 is recorded");
    let cut_at = usize::try_from(rung0.offset + rung0.total_len).expect("small store");
    let bytes = std::fs::read(&full).expect("read the store");
    let cut = dir.join("cut.rrs");
    std::fs::write(&cut, &bytes[..cut_at]).expect("write the cut store");

    let cut_json = dir.join("cut");
    let out = run_ok(
        &[&base[..], &["--store", cut.to_str().unwrap(), "--json", cut_json.to_str().unwrap()]]
            .concat(),
        &ladder,
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("users_1e6/u64 recovered"), "rung 0 is read back:\n{stderr}");
    assert!(!stderr.contains("u256 recovered"), "rung 1 was never recorded:\n{stderr}");

    let fresh = point_records(&full);
    let resumed = point_records(&cut);
    for rung in 0..2 {
        let id = ("users_1e6".to_string(), rung);
        assert!(fresh.contains_key(&id), "{id:?} recorded by the uninterrupted run");
        assert_eq!(resumed.get(&id), fresh.get(&id), "{id:?}: resumed record bytes");
    }
    assert_eq!(
        read(&cut_json, "users_1e6.hist.json"),
        read(&full_json, "users_1e6.hist.json"),
        "the latency sidecar of the resumed ladder is byte-identical"
    );
}

/// Runs `repro args` against `store` and asserts that the store is refused
/// when it is opened: exit 2 with `message`, nothing run, and the store
/// left byte for byte as it was, so that `repro export` still reads it.
fn assert_refused_untouched(store: &Path, args: &[&str], env: &[(&str, &str)], message: &str) {
    let before = std::fs::read(store).expect("read the store");
    let store_arg = store.to_str().expect("utf-8 path");
    let out = run_repro(&[args, &["--store", store_arg]].concat(), env);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(stderr.contains(message), "the message says {message:?}:\n{stderr}");
    assert!(stderr.contains("pass a fresh --store path"), "{stderr}");
    assert!(out.stdout.is_empty(), "nothing ran before the rejection");
    assert!(std::fs::read(store).expect("reread the store") == before, "the store is untouched");
    let json = store.with_extension("export");
    run_ok(&["export", "--store", store_arg, "--json", json.to_str().expect("utf-8 path")], &[]);
}

/// A resume under another run configuration (here another seed) is
/// refused before the store is touched.
#[test]
fn a_store_of_another_configuration_is_refused_untouched() {
    let dir = out_dir("store_other_config");
    let base = ["table1", "--scale", "64", "--intervals", "4"];
    let store = dir.join("run.rrs");
    run_ok(&[&base[..], &["--store", store.to_str().unwrap()]].concat(), &[]);
    let reseeded = [&base[..], &["--seed", "7"]].concat();
    assert_refused_untouched(&store, &reseeded, &[], "different run configuration");
}

/// A copy of `store`'s META record followed by `records`, written with the
/// store crate's own writer (a store the program could not have written).
fn crafted_store(store: &Path, path: &Path, records: &[(&str, u64, &str)]) {
    let meta = StoreReader::recover(store)
        .expect("recover the real store")
        .meta_json
        .expect("the real store has a META record");
    let mut writer = StoreWriter::create(path, &meta).expect("create the crafted store");
    for &(experiment, index, payload) in records {
        writer.append_point(experiment, index, payload).expect("append a crafted record");
    }
    writer.finish().expect("seal the crafted store");
}

/// On resume, a deterministic artifact must come out as the bytes the
/// store holds: one that does not is named, with exit 2, before its file
/// is written.
#[test]
fn resumed_store_rejects_an_artifact_it_cannot_reproduce() {
    let dir = out_dir("store_artifact_mismatch");
    let base = ["table4", "--scale", "64", "--intervals", "4", "--jobs", "2"];
    let real = dir.join("real.rrs");
    run_ok(&[&base[..], &["--store", real.to_str().unwrap()]].concat(), &[]);
    let crafted = dir.join("crafted.rrs");
    crafted_store(&real, &crafted, &[("artifact/table4", 0, "{\"rows\": []}")]);

    let json = dir.join("json");
    let out = run_repro(
        &[&base[..], &["--store", crafted.to_str().unwrap(), "--json", json.to_str().unwrap()]]
            .concat(),
        &[],
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains("table4.json differs from the bytes the results store holds"),
        "the message names the artifact:\n{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(!json.join("table4.json").exists(), "the stored bytes are not written out");
}

/// A `users_1e6` record that does not parse as a rung outcome (a store from
/// another version of the program, say) is rejected with exit 2 naming the
/// record when the store is opened, before anything runs or is cut.
#[test]
fn resumed_store_rejects_a_rung_record_that_does_not_parse() {
    let dir = out_dir("store_bad_rung");
    let base = ["users_1e6", "--scale", "64", "--intervals", "4"];
    let ladder = [("REPRO_USERS_LADDER", "64")];
    let real = dir.join("real.rrs");
    run_ok(&[&base[..], &["--store", real.to_str().unwrap()]].concat(), &ladder);
    let crafted = dir.join("crafted.rrs");
    crafted_store(&real, &crafted, &[("users_1e6", 0, "{\"not\":\"an outcome\"}")]);

    assert_refused_untouched(&crafted, &base, &ladder, "record users_1e6[0]");
}

/// A record of a family this program does not write (a sweep-point record
/// of an older version, say) is refused, naming the record, instead of
/// being carried into the resealed store.
#[test]
fn resumed_store_rejects_a_record_it_does_not_write() {
    let dir = out_dir("store_foreign_record");
    let base = ["table1", "--scale", "64", "--intervals", "4"];
    let real = dir.join("real.rrs");
    run_ok(&[&base[..], &["--store", real.to_str().unwrap()]].concat(), &[]);
    let crafted = dir.join("crafted.rrs");
    crafted_store(&real, &crafted, &[("fig1", 0, "{\"rows\": []}")]);
    assert_refused_untouched(&crafted, &base, &[], "record fig1[0]");
}
