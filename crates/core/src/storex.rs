//! Process-global binary results-store session (`repro --store FILE`).
//!
//! The `users_1e6` ladder and the `repro` binary's artifact writer both
//! append to the same `.rrs` file, so the open store lives behind one
//! mutex-guarded global session for the life of the run.
//!
//! Two record families share the file, both addressed by
//! `(experiment, index)`:
//!
//! * **ladder rungs** — `users_1e6` appends one record per rung, indexed
//!   by the rung's position, with only deterministic content (the rung's
//!   report, event count and latency histogram), which is what lets a
//!   killed run skip completed rungs on resume;
//! * **artifacts** — `experiment` is `artifact/<name>` with index 0 and
//!   the payload the exact pretty-JSON bytes `--json` writes to
//!   `<name>.json`, which makes [`export`] a pure byte copy: the
//!   regenerated sidecars are byte-identical to the originals by
//!   construction. Every sweep point reaches the store inside these
//!   records, and only there.
//!
//! Opening an existing store resumes it. First, on a read-only recovery
//! of the valid record prefix, the meta record is checked against the
//! current run configuration and every record must be a rung that parses
//! as a rung outcome or an artifact; a store that fails is left untouched.
//! Only then is a torn trailing frame (or a finished store's index and
//! footer) truncated away, all before anything runs. A
//! re-recorded artifact is verified to match the recovered bytes instead
//! of being appended twice; one that *disagrees* is a hard error, since
//! the run is deterministic and the store was not written by this
//! program and configuration. (`repro` keeps the stored bytes of the two
//! artifacts that carry wall-clock times, `profile` and `users_1e6`, and
//! re-records every other one.)

use readopt_store::{StoreReader, StoreWriter};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::{Mutex, PoisonError};

/// Experiment-name prefix for whole-artifact records (`artifact/<name>`
/// at index 0, payload = the exact `<name>.json` bytes).
pub const ARTIFACT_PREFIX: &str = "artifact/";

struct Session {
    writer: StoreWriter,
    /// Payload by id for every record already in the file — recovered on
    /// resume, or appended earlier in this run.
    seen: BTreeMap<(String, u64), String>,
}

static SESSION: Mutex<Option<Session>> = Mutex::new(None);

fn lock() -> std::sync::MutexGuard<'static, Option<Session>> {
    SESSION.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Opens (or resumes) the global store session. Returns the number of
/// records recovered from a previous run (0 for a fresh store).
///
/// `meta_json` is the canonical run-configuration fingerprint; resuming
/// a store whose meta record disagrees is an error — records produced
/// under a different configuration must never be mixed into one store.
/// So is a record this program does not write: anything but a
/// `users_1e6` rung that parses as a rung outcome or an
/// `artifact/<name>` (a store written by another version of the
/// program, say). These checks read the file only, so a store that is
/// refused stays byte for byte as it was.
pub fn open(path: &Path, meta_json: &str) -> Result<usize, String> {
    let mut guard = lock();
    if guard.is_some() {
        return Err(String::from("results store already open in this process"));
    }
    // A store whose previous run died before the meta record landed holds
    // nothing recoverable: it is started over like a fresh one.
    let resumable = path.exists()
        && check_resumable(path, meta_json)
            .map_err(|e| format!("store {} {e}; pass a fresh --store path", path.display()))?;
    let (writer, seen) = if resumable {
        let (writer, recovered) =
            StoreWriter::resume(path).map_err(|e| format!("resume {}: {e}", path.display()))?;
        let seen: BTreeMap<(String, u64), String> = recovered
            .points
            .into_iter()
            .map(|p| ((p.experiment, p.index), p.payload))
            .collect();
        (writer, seen)
    } else {
        let writer = StoreWriter::create(path, meta_json)
            .map_err(|e| format!("create {}: {e}", path.display()))?;
        (writer, BTreeMap::new())
    };
    let n = seen.len();
    *guard = Some(Session { writer, seen });
    Ok(n)
}

/// Whether the store at `path` has a meta record, after checking on a
/// read-only recovery that it is `meta_json` and that every record is one
/// this program writes.
fn check_resumable(path: &Path, meta_json: &str) -> Result<bool, String> {
    let recovered =
        StoreReader::recover(path).map_err(|e| format!("cannot be resumed ({e})"))?;
    match recovered.meta_json.as_deref() {
        None => return Ok(false),
        Some(existing) if existing != meta_json => {
            return Err(String::from(
                "was written under a different run configuration (meta record mismatch)",
            ));
        }
        Some(_) => {}
    }
    for p in &recovered.points {
        let (experiment, index) = (&p.experiment, p.index);
        if experiment == "users_1e6" {
            crate::users_scale::parse_rung(&p.payload).map_err(|e| {
                format!("record {experiment}[{index}] is not a users_1e6 rung outcome ({e})")
            })?;
        } else if !experiment.starts_with(ARTIFACT_PREFIX) {
            return Err(format!(
                "record {experiment}[{index}] is neither a users_1e6 rung nor an artifact"
            ));
        }
    }
    Ok(true)
}

/// Whether a store session is open (records will be appended).
pub fn active() -> bool {
    lock().is_some()
}

/// Appends one record, or verifies it against the already-stored bytes.
/// A no-op when no session is open.
pub fn record(experiment: &str, index: u64, payload: &str) -> Result<(), String> {
    let mut guard = lock();
    let Some(session) = guard.as_mut() else { return Ok(()) };
    let id = (experiment.to_string(), index);
    if let Some(stored) = session.seen.get(&id) {
        if stored == payload {
            return Ok(());
        }
        let what = match experiment.strip_prefix(ARTIFACT_PREFIX) {
            Some(name) => format!("{name}.json"),
            None => format!("store record {experiment}[{index}]"),
        };
        return Err(format!(
            "{what} differs from the bytes the results store holds ({} vs {} bytes): \
             the store was not written by this program and configuration",
            stored.len(),
            payload.len()
        ));
    }
    session
        .writer
        .append_point(experiment, index, payload)
        .map_err(|e| format!("append {experiment}[{index}]: {e}"))?;
    session.seen.insert(id, payload.to_string());
    Ok(())
}

/// Records a whole JSON artifact (the exact bytes `--json` writes to
/// `<name>.json`), or verifies it against the bytes a resumed store
/// holds. A no-op when no session is open.
pub fn record_artifact(name: &str, json: &str) -> Result<(), String> {
    record(&format!("{ARTIFACT_PREFIX}{name}"), 0, json)
}

/// The stored payload for `(experiment, index)`, if the (possibly
/// resumed) session already holds it. `None` when inactive or absent.
pub fn lookup(experiment: &str, index: u64) -> Option<String> {
    let guard = lock();
    let session = guard.as_ref()?;
    session.seen.get(&(experiment.to_string(), index)).cloned()
}

/// The stored bytes of artifact `name`, if the session already holds
/// them (i.e. the artifact landed before a previous run was killed). A
/// resumed run keeps these for the artifacts that carry wall-clock times
/// (`profile`, `users_1e6`), which could not reproduce the recorded
/// bytes, so that the file on disk matches what [`export`] regenerates.
pub fn lookup_artifact(name: &str) -> Option<String> {
    lookup(&format!("{ARTIFACT_PREFIX}{name}"), 0)
}

/// Seals and closes the session (writes the index block and footer).
/// Returns whether a session was actually open.
pub fn finish() -> Result<bool, String> {
    let mut guard = lock();
    let Some(session) = guard.take() else { return Ok(false) };
    session.writer.finish().map_err(|e| format!("finish store: {e}"))?;
    Ok(true)
}

/// Regenerates the JSON artifacts of a *finished* store into `dir`:
/// every `artifact/<name>` record becomes `dir/<name>.json` with the
/// exact payload bytes. Returns the artifact names written, in store
/// order.
pub fn export(store: &Path, dir: &Path) -> Result<Vec<String>, String> {
    let mut reader =
        StoreReader::open(store).map_err(|e| format!("open {}: {e}", store.display()))?;
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let ids: Vec<(String, u64)> = reader.point_ids().to_vec();
    let mut written = Vec::new();
    for (experiment, index) in ids {
        let Some(name) = experiment.strip_prefix(ARTIFACT_PREFIX) else { continue };
        if name.is_empty() || name.contains(['/', '\\']) {
            return Err(format!("store holds an unsafe artifact name {name:?}"));
        }
        let payload = reader
            .point(&experiment, index)
            .map_err(|e| format!("read {experiment}: {e}"))?;
        let path = dir.join(format!("{name}.json"));
        std::fs::write(&path, payload).map_err(|e| format!("write {}: {e}", path.display()))?;
        written.push(name.to_string());
    }
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("storex-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    /// The global session forces the suite's storex tests to run as one
    /// scenario: open → record → verify-dedupe → finish → export → resume.
    #[test]
    fn session_roundtrip_dedupe_and_export() {
        let dir = tmp("session");
        let store = dir.join("run.rrs");
        let (fig1, fig2) = ("{\n  \"rows\": []\n}", "{\n  \"rows\": [1]\n}");
        assert!(!active());
        assert_eq!(lookup_artifact("fig1"), None, "inactive lookup is None");
        record_artifact("fig1", "dropped").expect("inactive record is a no-op");

        assert_eq!(open(&store, "{\"seed\":1}").expect("open"), 0);
        assert!(active());
        assert!(open(&store, "{\"seed\":1}").unwrap_err().contains("already open"));
        record_artifact("fig1", fig1).expect("artifact");
        record_artifact("fig2", fig2).expect("artifact");
        // Re-recording identical bytes dedupes; diverging bytes are fatal.
        record_artifact("fig1", fig1).expect("same bytes verify");
        let err = record_artifact("fig1", "{}").unwrap_err();
        assert!(err.contains("fig1.json differs from the bytes the results store holds"), "{err}");
        assert_eq!(lookup_artifact("fig2").as_deref(), Some(fig2));
        assert!(finish().expect("finish"));
        assert!(!finish().expect("idempotent"), "second finish is a no-op");
        assert!(!active());

        // Export regenerates exactly the artifact records.
        let out = dir.join("json");
        let names = export(&store, &out).expect("export");
        assert_eq!(names, ["fig1", "fig2"]);
        let json = std::fs::read_to_string(out.join("fig1.json")).expect("read export");
        assert_eq!(json, fig1);

        // Resume with matching meta recovers the records and verifies
        // re-recorded artifacts against them; a different meta is rejected.
        assert!(open(&store, "{\"seed\":2}").unwrap_err().contains("different run"));
        assert_eq!(open(&store, "{\"seed\":1}").expect("resume"), 2);
        assert_eq!(lookup_artifact("fig1").as_deref(), Some(fig1));
        record_artifact("fig1", fig1).expect("recovered bytes verify");
        assert!(record_artifact("fig2", "{}").unwrap_err().contains("fig2.json differs"));
        assert!(finish().expect("finish resumed store"));
    }
}
