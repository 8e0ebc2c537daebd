//! Execution-feedback channel: observed cardinalities per scanned key range.
//!
//! The executor knows, for every single-predicate scan it runs, the key
//! range the predicate selects and how many rows it produced. A
//! [`FeedbackLog`] is the typed side channel that carries those out of the
//! executor and into the statistics layer, where `stats::feedback` corrects
//! self-tuning histograms from them.
//!
//! Same cost contract as the rest of this crate: a disabled log costs one
//! branch per call site (no allocation, no lock), and enabling it may never
//! change an execution result. Records use plain scalars only — this crate
//! knows nothing about tables or values; producers key records by the raw
//! table id and column ordinal, and ranges by the workspace-wide
//! `numeric_key` projection.

use std::sync::{Arc, Mutex};

/// One observed cardinality of a scan's key range.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FeedbackRecord {
    /// Raw table id of the scanned table.
    pub table: u64,
    /// Column ordinal the predicate filters on.
    pub column: u32,
    /// Numeric-key range the predicate selects, inclusive on both ends
    /// (equality probes have `lo == hi`; open ranges use ±infinity).
    pub lo: f64,
    pub hi: f64,
    /// The observed scan output cardinality.
    pub rows_out: f64,
    /// Rows the scan read (the table's live row count), so consumers can
    /// turn `rows_out` into a selectivity fraction.
    pub input_rows: f64,
}

impl FeedbackRecord {
    /// Canonical 48-byte encoding: every field little-endian, floats by bit
    /// pattern. Two records are byte-equal iff they are indistinguishable
    /// to every consumer — the comparison key for the executor's contract
    /// that feedback streams are identical run to run.
    pub fn canonical_bytes(&self) -> [u8; 48] {
        let mut out = [0u8; 48];
        let fields: [u64; 6] = [
            self.table,
            u64::from(self.column),
            self.lo.to_bits(),
            self.hi.to_bits(),
            self.rows_out.to_bits(),
            self.input_rows.to_bits(),
        ];
        for (chunk, field) in out.chunks_exact_mut(8).zip(fields) {
            chunk.copy_from_slice(&field.to_le_bytes());
        }
        out
    }
}

/// A shared, optionally-enabled buffer of [`FeedbackRecord`]s.
///
/// Clones share one buffer (the executor and its consumer hold clones of the
/// same log). The default/`disabled` log holds no buffer: `push` is a single
/// branch and `drain` returns nothing.
#[derive(Debug, Clone, Default)]
pub struct FeedbackLog {
    buffer: Option<Arc<Mutex<Vec<FeedbackRecord>>>>,
}

impl FeedbackLog {
    /// A log that drops everything at one branch per push.
    pub fn disabled() -> FeedbackLog {
        FeedbackLog::default()
    }

    /// A live log with a fresh shared buffer.
    pub fn enabled() -> FeedbackLog {
        FeedbackLog {
            buffer: Some(Arc::new(Mutex::new(Vec::new()))),
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.buffer.is_some()
    }

    /// Append one record (no-op when disabled). Records are kept in push
    /// order; consumers rely on that order for deterministic correction.
    pub fn push(&self, record: FeedbackRecord) {
        if let Some(buffer) = &self.buffer {
            if let Ok(mut buf) = buffer.lock() {
                buf.push(record);
            }
        }
    }

    /// Take every buffered record, leaving the log empty (and still
    /// enabled). Disabled logs return an empty vec.
    pub fn drain(&self) -> Vec<FeedbackRecord> {
        match &self.buffer {
            Some(buffer) => match buffer.lock() {
                Ok(mut buf) => std::mem::take(&mut *buf),
                Err(_) => Vec::new(),
            },
            None => Vec::new(),
        }
    }

    /// Copy of every buffered record in push order, leaving the buffer
    /// intact — for comparing two logs without consuming either.
    pub fn snapshot(&self) -> Vec<FeedbackRecord> {
        match &self.buffer {
            Some(buffer) => buffer.lock().map(|b| b.clone()).unwrap_or_default(),
            None => Vec::new(),
        }
    }

    /// The concatenated [`FeedbackRecord::canonical_bytes`] of every
    /// buffered record, in push order.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for r in self.snapshot() {
            out.extend_from_slice(&r.canonical_bytes());
        }
        out
    }

    /// Number of buffered records (0 when disabled).
    pub fn len(&self) -> usize {
        match &self.buffer {
            Some(buffer) => buffer.lock().map(|b| b.len()).unwrap_or(0),
            None => 0,
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(rows_out: f64) -> FeedbackRecord {
        FeedbackRecord {
            table: 1,
            column: 2,
            lo: 10.0,
            hi: 20.0,
            rows_out,
            input_rows: 100.0,
        }
    }

    #[test]
    fn disabled_log_is_inert() {
        let log = FeedbackLog::disabled();
        assert!(!log.is_enabled());
        log.push(record(7.0));
        assert!(log.is_empty());
        assert!(log.drain().is_empty());
    }

    #[test]
    fn enabled_log_buffers_in_order_and_shares_across_clones() {
        let log = FeedbackLog::enabled();
        let writer = log.clone();
        writer.push(record(1.0));
        writer.push(record(2.0));
        assert_eq!(log.len(), 2);
        let drained = log.drain();
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[0].rows_out, 1.0);
        assert_eq!(drained[1].rows_out, 2.0);
        // Drain empties but keeps the log live.
        assert!(log.is_empty());
        assert!(log.is_enabled());
        writer.push(record(3.0));
        assert_eq!(log.len(), 1);
    }

    #[test]
    fn canonical_bytes_distinguish_fields_and_preserve_order() {
        let log = FeedbackLog::enabled();
        log.push(record(1.0));
        log.push(record(2.0));
        let bytes = log.canonical_bytes();
        assert_eq!(bytes.len(), 96);
        // snapshot leaves the buffer intact, unlike drain.
        assert_eq!(log.len(), 2);
        assert_eq!(log.snapshot().len(), 2);
        // Field changes show up in the encoding; equal records agree.
        assert_eq!(record(1.0).canonical_bytes(), record(1.0).canonical_bytes());
        assert_ne!(record(1.0).canonical_bytes(), record(2.0).canonical_bytes());
        let mut r = record(1.0);
        r.column += 1;
        assert_ne!(r.canonical_bytes(), record(1.0).canonical_bytes());
    }
}
