//! Versioned binary results store — the `.rrs` format.
//!
//! A compact, append-only results file in the spirit of MF4-style
//! measurement logs: a fixed header, length-prefixed CRC-checked record
//! blocks (one per point, each carrying an opaque serialized payload), and
//! a trailing index block for O(1) random access. `repro` does not write
//! it: the benchmark's `store.*` replays, which time its writer and
//! reader, are its only user.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! header   := magic "RRSTORE\0" (8) | u32 version (=1) | u32 flags (=0)
//! record   := u32 body_len | body | u32 crc32(body)        (CRC32/IEEE)
//! body     := kind u8 | kind-specific bytes
//!   kind 1 := meta     — UTF-8 JSON run context (always the first record)
//!   kind 2 := point    — u16 exp_len | exp | u64 index | UTF-8 payload
//!   kind 3 := index    — u64 count | count × entry (always the last record)
//!   entry  := u16 exp_len | exp | u64 index | u64 offset | u64 total_len
//! footer   := u64 index_offset | u32 crc32(of those 8 bytes) | "RRSEND\0\0"
//! ```
//!
//! `offset` is the file offset of the record's length prefix and
//! `total_len` the full framed length (prefix + body + CRC), so a reader
//! can seek straight to any point without scanning.
//!
//! Durability model: the writer appends records incrementally (each
//! `append_point` is flushed) and writes index + footer only at
//! [`StoreWriter::finish`]. [`StoreReader::open`] reads only a finished
//! store: it checks the header, the footer and the index block, and
//! [`StoreReader::point`] checks each record's frame and CRC as it reads
//! it, so a truncated or damaged file is rejected with a typed error.
//!
//! The crate is deliberately payload-agnostic: points travel as opaque
//! JSON strings and are read back byte for byte.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

mod crc;
mod reader;
mod writer;

pub use crc::crc32;
pub use reader::StoreReader;
pub use writer::StoreWriter;

/// File magic: first 8 bytes of every `.rrs` file.
pub const MAGIC: [u8; 8] = *b"RRSTORE\0";
/// Trailing magic: last 8 bytes of a *finished* `.rrs` file.
pub const END_MAGIC: [u8; 8] = *b"RRSEND\0\0";
/// Current format version (header field).
pub const FORMAT_VERSION: u32 = 1;
/// Header length: magic + version + flags.
pub const HEADER_LEN: u64 = 16;
/// Footer length: index offset + crc + end magic.
pub const FOOTER_LEN: u64 = 20;
/// Upper bound on a single record body; a length prefix beyond this is
/// treated as corruption rather than attempted as an allocation.
pub const MAX_BODY_LEN: u32 = 1 << 30;

/// Record kind tags (first body byte).
pub mod kind {
    /// Run-context JSON (the first record of every store).
    pub const META: u8 = 1;
    /// One completed sweep point.
    pub const POINT: u8 = 2;
    /// The trailing index block.
    pub const INDEX: u8 = 3;
}

/// Everything that can go wrong reading or writing a store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// An OS-level file error (open, read, write, seek, truncate).
    Io(String),
    /// Structural damage: bad magic, torn frame, CRC mismatch, an index
    /// entry pointing outside the file, an oversized length prefix, …
    Corrupt(String),
    /// The file's header declares a format revision this reader does not
    /// speak.
    Version {
        /// The version found in the header.
        found: u32,
    },
    /// The caller asked for something the store does not contain
    /// (unknown experiment/point index).
    NotFound(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(m) => write!(f, "store i/o error: {m}"),
            StoreError::Corrupt(m) => write!(f, "corrupt store: {m}"),
            StoreError::Version { found } => {
                write!(f, "unsupported store version {found} (this build reads v{FORMAT_VERSION})")
            }
            StoreError::NotFound(m) => write!(f, "not in store: {m}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e.to_string())
    }
}

pub(crate) fn u16_le(b: &[u8]) -> Option<u16> {
    let arr: [u8; 2] = b.get(..2)?.try_into().ok()?;
    Some(u16::from_le_bytes(arr))
}

pub(crate) fn u32_le(b: &[u8]) -> Option<u32> {
    let arr: [u8; 4] = b.get(..4)?.try_into().ok()?;
    Some(u32::from_le_bytes(arr))
}

pub(crate) fn u64_le(b: &[u8]) -> Option<u64> {
    let arr: [u8; 8] = b.get(..8)?.try_into().ok()?;
    Some(u64::from_le_bytes(arr))
}

/// Frames a record body: `u32 len | body | u32 crc32(body)`.
pub(crate) fn frame(body: &[u8]) -> Result<Vec<u8>, StoreError> {
    let len = u32::try_from(body.len())
        .ok()
        .filter(|l| *l <= MAX_BODY_LEN)
        .ok_or_else(|| StoreError::Corrupt(format!("record body too large: {} bytes", body.len())))?;
    let mut out = Vec::with_capacity(body.len() + 8);
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(body);
    out.extend_from_slice(&crc32(body).to_le_bytes());
    Ok(out)
}

/// Serializes a point body: `kind | u16 exp_len | exp | u64 index | payload`.
pub(crate) fn point_body(experiment: &str, index: u64, payload: &str) -> Result<Vec<u8>, StoreError> {
    let exp = experiment.as_bytes();
    let exp_len = u16::try_from(exp.len()).map_err(|_| {
        StoreError::Corrupt(format!("experiment name too long: {} bytes", exp.len()))
    })?;
    let mut body = Vec::with_capacity(1 + 2 + exp.len() + 8 + payload.len());
    body.push(kind::POINT);
    body.extend_from_slice(&exp_len.to_le_bytes());
    body.extend_from_slice(exp);
    body.extend_from_slice(&index.to_le_bytes());
    body.extend_from_slice(payload.as_bytes());
    Ok(body)
}

/// Parses a point body (without the kind byte already consumed check —
/// `body[0]` must be [`kind::POINT`]).
pub(crate) fn parse_point_body(body: &[u8]) -> Result<(String, u64, String), StoreError> {
    let corrupt = |what: &str| StoreError::Corrupt(format!("point record: {what}"));
    if body.first() != Some(&kind::POINT) {
        return Err(corrupt("wrong kind tag"));
    }
    let rest = &body[1..];
    let exp_len = usize::from(u16_le(rest).ok_or_else(|| corrupt("truncated experiment length"))?);
    let rest = &rest[2..];
    let exp = rest.get(..exp_len).ok_or_else(|| corrupt("truncated experiment name"))?;
    let exp = std::str::from_utf8(exp)
        .map_err(|_| corrupt("experiment name is not UTF-8"))?
        .to_string();
    let rest = &rest[exp_len..];
    let index = u64_le(rest).ok_or_else(|| corrupt("truncated point index"))?;
    let payload = std::str::from_utf8(&rest[8..])
        .map_err(|_| corrupt("payload is not UTF-8"))?
        .to_string();
    Ok((exp, index, payload))
}
