//! `.rrs` reader: a strict seek-based reader for finished stores
//! (footer → index → O(1) point lookup).

use crate::{
    kind, parse_point_body, u16_le, u32_le, u64_le, StoreError, END_MAGIC, FOOTER_LEN, FORMAT_VERSION,
    HEADER_LEN, MAGIC, MAX_BODY_LEN,
};
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::path::Path;

/// Each point's `(offset, total_len)` by `(experiment, index)`.
type Index = BTreeMap<(String, u64), (u64, u64)>;

/// Seek-based reader over a finished store: opens via the footer and the
/// trailing index block, then serves any point in O(1) seeks.
#[derive(Debug)]
pub struct StoreReader {
    file: File,
    index: Index,
}

impl StoreReader {
    /// Strictly opens a *finished* store: header, footer, and index block
    /// must all validate. Truncated or damaged files are rejected.
    pub fn open(path: &Path) -> Result<StoreReader, StoreError> {
        let mut file =
            File::open(path).map_err(|e| StoreError::Io(format!("open {}: {e}", path.display())))?;
        let file_len = file.metadata()?.len();
        if file_len < HEADER_LEN + FOOTER_LEN {
            return Err(StoreError::Corrupt(format!("file too short ({file_len} bytes)")));
        }
        check_header(&read_at(&mut file, 0, HEADER_LEN)?)?;

        let footer = read_at(&mut file, file_len - FOOTER_LEN, FOOTER_LEN)?;
        if footer.get(12..20) != Some(&END_MAGIC[..]) {
            return Err(StoreError::Corrupt(String::from(
                "missing end magic (file truncated or not finished)",
            )));
        }
        let index_offset =
            u64_le(&footer).ok_or_else(|| StoreError::Corrupt(String::from("short footer")))?;
        let footer_crc = u32_le(&footer[8..])
            .ok_or_else(|| StoreError::Corrupt(String::from("short footer")))?;
        if crate::crc32(&footer[..8]) != footer_crc {
            return Err(StoreError::Corrupt(String::from("footer CRC mismatch")));
        }
        if index_offset < HEADER_LEN || index_offset > file_len - FOOTER_LEN {
            return Err(StoreError::Corrupt(format!(
                "index offset {index_offset} outside file body"
            )));
        }

        let index_region_len = file_len - FOOTER_LEN - index_offset;
        let framed = read_at(&mut file, index_offset, index_region_len)?;
        let body = check_frame(&framed, "index block")?;
        // The index must be the last record before the footer — a length
        // prefix that undershoots the region means trailing garbage.
        let framed_len = u64::try_from(body.len() + 8)
            .map_err(|_| StoreError::Corrupt(String::from("index length overflow")))?;
        if framed_len != index_region_len {
            return Err(StoreError::Corrupt(String::from(
                "index block does not span to the footer",
            )));
        }
        if body.first() != Some(&kind::INDEX) {
            return Err(StoreError::Corrupt(String::from("index block has wrong kind tag")));
        }
        let index = parse_index_body(&body[1..], index_offset)?;
        Ok(StoreReader { file, index })
    }

    /// Reads one point's payload by `(experiment, index)` — a single seek
    /// plus one read, via the trailing index.
    pub fn point(&mut self, experiment: &str, index: u64) -> Result<String, StoreError> {
        let &(offset, total_len) = self
            .index
            .get(&(experiment.to_string(), index))
            .ok_or_else(|| StoreError::NotFound(format!("{experiment}[{index}]")))?;
        let framed = read_at(&mut self.file, offset, total_len)?;
        let body = check_frame(&framed, "point record")?;
        let (exp, idx, payload) = parse_point_body(body)?;
        if exp != experiment || idx != index {
            return Err(StoreError::Corrupt(format!(
                "index entry for {experiment}[{index}] points at {exp}[{idx}]"
            )));
        }
        Ok(payload)
    }
}

fn check_header(bytes: &[u8]) -> Result<(), StoreError> {
    if bytes.get(..8) != Some(&MAGIC[..]) {
        return Err(StoreError::Corrupt(String::from("bad magic (not an .rrs file)")));
    }
    let version = u32_le(&bytes[8..])
        .ok_or_else(|| StoreError::Corrupt(String::from("short header")))?;
    if version != FORMAT_VERSION {
        return Err(StoreError::Version { found: version });
    }
    let flags = u32_le(&bytes[12..])
        .ok_or_else(|| StoreError::Corrupt(String::from("short header")))?;
    if flags != 0 {
        return Err(StoreError::Corrupt(format!("unknown header flags {flags:#x}")));
    }
    Ok(())
}

/// Validates one framed record (`u32 len | body | u32 crc`) and returns
/// the body slice.
fn check_frame<'a>(framed: &'a [u8], what: &str) -> Result<&'a [u8], StoreError> {
    let body_len = u32_le(framed)
        .ok_or_else(|| StoreError::Corrupt(format!("{what}: short length prefix")))?;
    if body_len > MAX_BODY_LEN {
        return Err(StoreError::Corrupt(format!("{what}: oversized length prefix ({body_len})")));
    }
    let body_len = usize::try_from(body_len)
        .map_err(|_| StoreError::Corrupt(format!("{what}: length overflow")))?;
    let body = framed
        .get(4..4 + body_len)
        .ok_or_else(|| StoreError::Corrupt(format!("{what}: truncated body")))?;
    let stored_crc = u32_le(&framed[4 + body_len..])
        .ok_or_else(|| StoreError::Corrupt(format!("{what}: missing CRC")))?;
    if crate::crc32(body) != stored_crc {
        return Err(StoreError::Corrupt(format!("{what}: CRC mismatch")));
    }
    Ok(body)
}

fn parse_index_body(mut rest: &[u8], index_offset: u64) -> Result<Index, StoreError> {
    let corrupt = |what: &str| StoreError::Corrupt(format!("index block: {what}"));
    let count = u64_le(rest).ok_or_else(|| corrupt("truncated entry count"))?;
    rest = &rest[8..];
    let count = usize::try_from(count).map_err(|_| corrupt("entry count overflow"))?;
    // Each entry is at least 2 + 0 + 8 + 8 + 8 bytes; a count that cannot
    // fit in the remaining bytes is corruption, not an allocation request.
    if count > rest.len() / 26 {
        return Err(corrupt("entry count exceeds block size"));
    }
    let mut map = BTreeMap::new();
    for _ in 0..count {
        let exp_len = usize::from(u16_le(rest).ok_or_else(|| corrupt("truncated entry"))?);
        rest = &rest[2..];
        let exp = rest.get(..exp_len).ok_or_else(|| corrupt("truncated experiment name"))?;
        let exp = std::str::from_utf8(exp)
            .map_err(|_| corrupt("experiment name is not UTF-8"))?
            .to_string();
        rest = &rest[exp_len..];
        let fields = rest.get(..24).ok_or_else(|| corrupt("truncated entry fields"))?;
        let index = u64_le(fields).ok_or_else(|| corrupt("truncated index"))?;
        let offset = u64_le(&fields[8..]).ok_or_else(|| corrupt("truncated offset"))?;
        let total_len = u64_le(&fields[16..]).ok_or_else(|| corrupt("truncated length"))?;
        rest = &rest[24..];
        if offset < HEADER_LEN
            || total_len < 9
            || offset.checked_add(total_len).map_or(true, |end| end > index_offset)
        {
            return Err(corrupt(&format!(
                "entry {exp}[{index}] points outside the record region"
            )));
        }
        if map.insert((exp.clone(), index), (offset, total_len)).is_some() {
            return Err(corrupt(&format!("duplicate entry {exp}[{index}]")));
        }
    }
    if !rest.is_empty() {
        return Err(corrupt("trailing bytes after the last entry"));
    }
    Ok(map)
}

fn read_at(file: &mut File, offset: u64, len: u64) -> Result<Vec<u8>, StoreError> {
    let len = usize::try_from(len)
        .map_err(|_| StoreError::Corrupt(String::from("read length overflow")))?;
    file.seek(SeekFrom::Start(offset))?;
    let mut buf = vec![0u8; len];
    file.read_exact(&mut buf)
        .map_err(|e| StoreError::Io(format!("read {len} bytes at {offset}: {e}")))?;
    Ok(buf)
}
