//! Robustness suite for the `.rrs` store: every class of damage the
//! reader must reject is exercised against real files — truncation at
//! arbitrary byte boundaries, bit-flipped record CRCs, corrupted and
//! oversized index blocks, and stale version headers.

use readopt_store::{StoreError, StoreReader, StoreWriter, FOOTER_LEN, HEADER_LEN, MAGIC};
use std::path::{Path, PathBuf};

fn tmp(name: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(name)
}

/// Builds a finished store with `n` points per experiment and returns its
/// path.
fn build(name: &str, experiments: &[&str], n: u64) -> PathBuf {
    let path = tmp(name);
    let mut w = StoreWriter::create(&path, r#"{"run":"test"}"#).expect("create");
    for exp in experiments {
        for i in 0..n {
            let payload = format!(r#"[{i},"{exp}",{}]"#, i * 10);
            w.append_point(exp, i, &payload).expect("append");
        }
    }
    w.finish().expect("finish");
    path
}

/// The file offset of every record's length prefix in a finished store, in
/// file order: the meta record, each point, then the index block.
fn record_offsets(bytes: &[u8]) -> Vec<usize> {
    let end = bytes.len() - usize::try_from(FOOTER_LEN).unwrap();
    let mut offsets = Vec::new();
    let mut pos = usize::try_from(HEADER_LEN).unwrap();
    while pos < end {
        offsets.push(pos);
        let body_len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap());
        pos += 4 + usize::try_from(body_len).unwrap() + 4;
    }
    assert_eq!(pos, end, "the records end where the footer starts");
    offsets
}

fn expect_corrupt(res: Result<StoreReader, StoreError>, what: &str) {
    match res {
        Err(StoreError::Corrupt(_)) => {}
        other => panic!("{what}: expected Corrupt, got {other:?}"),
    }
}

#[test]
fn roundtrip_reads_every_point_in_o1() {
    let path = build("roundtrip.rrs", &["fig1", "table4"], 5);
    let mut r = StoreReader::open(&path).expect("open");
    // Random-access order, not append order.
    assert_eq!(r.point("table4", 3).expect("t4/3"), r#"[3,"table4",30]"#);
    assert_eq!(r.point("fig1", 0).expect("f1/0"), r#"[0,"fig1",0]"#);
    assert_eq!(r.point("fig1", 4).expect("f1/4"), r#"[4,"fig1",40]"#);
    assert!(matches!(r.point("fig9", 0), Err(StoreError::NotFound(_))));
    assert!(matches!(r.point("fig1", 5), Err(StoreError::NotFound(_))));
}

#[test]
fn truncated_files_are_rejected() {
    let path = build("truncate.rrs", &["fig1"], 8);
    let full = std::fs::read(&path).unwrap();

    // Chop the footer plus a few bytes of the index: strict open must
    // refuse.
    let cut = tmp("truncate-cut.rrs");
    std::fs::write(&cut, &full[..full.len() - usize::try_from(FOOTER_LEN).unwrap() - 3]).unwrap();
    expect_corrupt(StoreReader::open(&cut), "footer gone");

    // Truncate mid-record (a kill during an append): no footer, refused.
    let third_point_end = record_offsets(&full)[4];
    let torn = tmp("truncate-torn.rrs");
    std::fs::write(&torn, &full[..third_point_end + 5]).unwrap();
    expect_corrupt(StoreReader::open(&torn), "torn record");

    // Truncate inside the header.
    let stub = tmp("truncate-stub.rrs");
    std::fs::write(&stub, &full[..10]).unwrap();
    expect_corrupt(StoreReader::open(&stub), "header only");
}

#[test]
fn bit_flipped_record_crc_rejected() {
    let path = build("bitflip.rrs", &["fig2"], 4);
    let mut bytes = std::fs::read(&path).unwrap();

    // Flip one payload bit in the second point record.
    let mid = record_offsets(&bytes)[2] + 9;
    bytes[mid] ^= 0x01;
    let flipped = tmp("bitflip-mut.rrs");
    std::fs::write(&flipped, &bytes).unwrap();

    // The index still opens (it is intact), but reading the damaged point
    // fails its frame CRC.
    let mut r = StoreReader::open(&flipped).expect("index intact");
    assert_eq!(r.point("fig2", 0).expect("point 0 untouched"), r#"[0,"fig2",0]"#);
    assert!(matches!(r.point("fig2", 1), Err(StoreError::Corrupt(_))), "flipped point");
}

#[test]
fn corrupted_and_oversized_index_blocks_rejected() {
    let path = build("badindex.rrs", &["fig1"], 3);
    let clean = std::fs::read(&path).unwrap();
    let index_start = *record_offsets(&clean).last().expect("an index block");

    // Flip a byte inside the index body: CRC mismatch on open.
    let mut bytes = clean.clone();
    bytes[index_start + 10] ^= 0xFF;
    let p = tmp("badindex-crc.rrs");
    std::fs::write(&p, &bytes).unwrap();
    expect_corrupt(StoreReader::open(&p), "index CRC");

    // Oversized length prefix on the index record (beyond MAX_BODY_LEN):
    // rejected as corruption, never attempted as an allocation.
    let mut bytes = clean.clone();
    bytes[index_start..index_start + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    let p = tmp("badindex-oversized.rrs");
    std::fs::write(&p, &bytes).unwrap();
    expect_corrupt(StoreReader::open(&p), "oversized index length");

    // Footer pointing into the middle of a record: frame check fails.
    let mut bytes = clean.clone();
    let footer_start = bytes.len() - usize::try_from(FOOTER_LEN).unwrap();
    let bogus = u64::try_from(index_start - 7).unwrap();
    bytes[footer_start..footer_start + 8].copy_from_slice(&bogus.to_le_bytes());
    bytes[footer_start + 8..footer_start + 12]
        .copy_from_slice(&readopt_store::crc32(&bogus.to_le_bytes()).to_le_bytes());
    let p = tmp("badindex-offset.rrs");
    std::fs::write(&p, &bytes).unwrap();
    expect_corrupt(StoreReader::open(&p), "misaimed index offset");

    // An index entry whose offset/length escape the record region: build
    // a store whose (single-entry) index is rewritten with a huge length.
    let mut bytes = clean;
    // entry layout after count(8): exp_len(2) exp(4) index(8) offset(8) len(8)
    let entry_len_at = index_start + 4 + 1 + 8 + 2 + 4 + 8 + 8;
    bytes[entry_len_at..entry_len_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
    // reseal the index body CRC so only the entry bounds check can object
    let body_len =
        u32::from_le_bytes(bytes[index_start..index_start + 4].try_into().unwrap()) as usize;
    let crc = readopt_store::crc32(&bytes[index_start + 4..index_start + 4 + body_len]);
    bytes[index_start + 4 + body_len..index_start + 4 + body_len + 4]
        .copy_from_slice(&crc.to_le_bytes());
    let p = tmp("badindex-bounds.rrs");
    std::fs::write(&p, &bytes).unwrap();
    expect_corrupt(StoreReader::open(&p), "out-of-bounds index entry");
}

#[test]
fn stale_version_header_rejected() {
    let path = build("version.rrs", &["fig1"], 2);
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[8..12].copy_from_slice(&7u32.to_le_bytes());
    let p = tmp("version-stale.rrs");
    std::fs::write(&p, &bytes).unwrap();
    assert!(matches!(StoreReader::open(&p), Err(StoreError::Version { found: 7 })));

    // Not an .rrs file at all.
    bytes[..8].copy_from_slice(b"NOTMAGIC");
    let p = tmp("version-magic.rrs");
    std::fs::write(&p, &bytes).unwrap();
    expect_corrupt(StoreReader::open(&p), "bad magic");
    assert_ne!(&MAGIC, b"NOTMAGIC");
}
