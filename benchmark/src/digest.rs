//! Order-insensitive fingerprints of statement outcomes, for output checks.

use executor::StatementOutcome;
use rustc_hash::FxHasher;
use std::hash::{Hash, Hasher};
use storage::Value;

fn rows_of(outcome: &StatementOutcome) -> &[Vec<Value>] {
    match outcome {
        StatementOutcome::Query { output, .. } => &output.rows,
        StatementOutcome::Dml { .. } => &[],
    }
}

fn row_count(outcome: &StatementOutcome) -> u64 {
    match outcome {
        StatementOutcome::Query { output, .. } => output.rows.len() as u64,
        StatementOutcome::Dml { rows_affected, .. } => *rows_affected as u64,
    }
}

/// The check between two runs of one plan over one database state: row count,
/// every value's bits and the executed work must all agree. One cheap hash
/// per row, because it is computed beside the measured calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    rows: u64,
    /// Wrapping sum of per-row hashes, so row order does not matter.
    hash: u64,
    work_bits: u64,
}

impl Digest {
    pub fn of(outcome: &StatementOutcome) -> Digest {
        let hash = rows_of(outcome).iter().fold(0u64, |acc, row| {
            let mut h = FxHasher::default();
            row.hash(&mut h);
            acc.wrapping_add(h.finish())
        });
        Digest {
            rows: row_count(outcome),
            hash,
            work_bits: outcome.work().to_bits(),
        }
    }
}

/// The check between different plans, or different physical row orders, for
/// one query: float aggregates may differ in their last bits because they
/// were summed in another order, so floats are compared as one tolerant sum
/// and everything else exactly. Computed outside the measured phases.
#[derive(Debug, Clone, Copy)]
pub struct RowSummary {
    pub rows: u64,
    discrete: u64,
    float_sum: f64,
}

impl RowSummary {
    pub fn of(outcome: &StatementOutcome) -> RowSummary {
        let mut summary = RowSummary {
            rows: row_count(outcome),
            discrete: 0,
            float_sum: 0.0,
        };
        for row in rows_of(outcome) {
            let mut h = FxHasher::default();
            for value in row {
                match value {
                    Value::Float(f) => summary.float_sum += f,
                    other => other.hash(&mut h),
                }
            }
            summary.discrete = summary.discrete.wrapping_add(h.finish());
        }
        summary
    }

    pub fn same_rows(&self, other: &RowSummary) -> bool {
        let scale = self.float_sum.abs().max(other.float_sum.abs()).max(1.0);
        self.rows == other.rows
            && self.discrete == other.discrete
            && (self.float_sum - other.float_sum).abs() <= 1e-7 * scale
    }
}
