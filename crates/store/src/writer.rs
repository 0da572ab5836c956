//! Incremental append-only `.rrs` writer.
//!
//! Every `append_point` writes one fully framed, CRC-sealed record and
//! flushes; [`StoreWriter::finish`] seals the file with the index block
//! and footer.

use crate::{frame, kind, point_body, StoreError, FORMAT_VERSION, MAGIC};
use std::fs::File;
use std::io::Write;
use std::path::Path;

#[derive(Debug, Clone)]
struct IndexEntry {
    experiment: String,
    index: u64,
    offset: u64,
    total_len: u64,
}

/// Append-only writer for one `.rrs` file.
#[derive(Debug)]
pub struct StoreWriter {
    file: File,
    pos: u64,
    entries: Vec<IndexEntry>,
    finished: bool,
}

impl StoreWriter {
    /// Creates a fresh store: header + the meta record (run-context JSON).
    pub fn create(path: &Path, meta_json: &str) -> Result<StoreWriter, StoreError> {
        let file = File::create(path)
            .map_err(|e| StoreError::Io(format!("create {}: {e}", path.display())))?;
        let mut w = StoreWriter { file, pos: 0, entries: Vec::new(), finished: false };
        let mut header = Vec::with_capacity(16);
        header.extend_from_slice(&MAGIC);
        header.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        header.extend_from_slice(&0u32.to_le_bytes()); // flags
        w.write_bytes(&header)?;
        let mut body = Vec::with_capacity(1 + meta_json.len());
        body.push(kind::META);
        body.extend_from_slice(meta_json.as_bytes());
        let framed = frame(&body)?;
        w.write_bytes(&framed)?;
        w.file.flush()?;
        Ok(w)
    }

    /// Appends one completed sweep point and flushes it to disk.
    pub fn append_point(
        &mut self,
        experiment: &str,
        index: u64,
        payload: &str,
    ) -> Result<(), StoreError> {
        if self.finished {
            return Err(StoreError::Io(String::from("append after finish")));
        }
        let body = point_body(experiment, index, payload)?;
        let framed = frame(&body)?;
        let offset = self.pos;
        let total_len = u64::try_from(framed.len())
            .map_err(|_| StoreError::Corrupt(String::from("record length overflow")))?;
        self.write_bytes(&framed)?;
        self.file.flush()?;
        self.entries.push(IndexEntry {
            experiment: experiment.to_string(),
            index,
            offset,
            total_len,
        });
        Ok(())
    }

    /// Seals the store: writes the index block and the footer.
    pub fn finish(mut self) -> Result<(), StoreError> {
        let mut body = Vec::new();
        body.push(kind::INDEX);
        let count = u64::try_from(self.entries.len())
            .map_err(|_| StoreError::Corrupt(String::from("index entry count overflow")))?;
        body.extend_from_slice(&count.to_le_bytes());
        for e in &self.entries {
            let exp = e.experiment.as_bytes();
            let exp_len = u16::try_from(exp.len()).map_err(|_| {
                StoreError::Corrupt(format!("experiment name too long: {} bytes", exp.len()))
            })?;
            body.extend_from_slice(&exp_len.to_le_bytes());
            body.extend_from_slice(exp);
            body.extend_from_slice(&e.index.to_le_bytes());
            body.extend_from_slice(&e.offset.to_le_bytes());
            body.extend_from_slice(&e.total_len.to_le_bytes());
        }
        let index_offset = self.pos;
        let framed = frame(&body)?;
        self.write_bytes(&framed)?;
        let mut footer = Vec::with_capacity(20);
        footer.extend_from_slice(&index_offset.to_le_bytes());
        footer.extend_from_slice(&crate::crc32(&index_offset.to_le_bytes()).to_le_bytes());
        footer.extend_from_slice(&crate::END_MAGIC);
        self.write_bytes(&footer)?;
        self.file.flush()?;
        self.finished = true;
        Ok(())
    }

    fn write_bytes(&mut self, bytes: &[u8]) -> Result<(), StoreError> {
        self.file.write_all(bytes)?;
        let len = u64::try_from(bytes.len())
            .map_err(|_| StoreError::Corrupt(String::from("write length overflow")))?;
        self.pos += len;
        Ok(())
    }
}
