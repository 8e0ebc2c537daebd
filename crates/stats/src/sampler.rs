//! Row sampling for statistics construction.
//!
//! The paper (§2) notes that building every statistic from a *single* shared
//! sample can introduce unwanted correlation, so each statistic build draws
//! its own sample, seeded deterministically from the statistic's descriptor
//! so that experiments are reproducible.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// How to read the base data when building a statistic.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum SampleSpec {
    /// Scan every row.
    #[default]
    FullScan,
    /// Uniform row-level sample of the given fraction (0, 1], with a floor of
    /// `min_rows` rows so tiny samples don't produce junk histograms.
    Fraction { fraction: f64, min_rows: usize },
    /// Block-level sample: whole runs of `block_rows` consecutive rows are
    /// taken until the fraction is covered. Cheaper to read on disk-resident
    /// systems, but values correlated with physical position (clustered
    /// columns) bias the sample — the §2 caveat about block-level sampling.
    Blocks {
        fraction: f64,
        block_rows: usize,
        min_rows: usize,
    },
}

use crate::error::StatsError;

/// Sampling fraction restricted to its valid domain (0, 1]; NaN and other
/// out-of-range values fall back to a full scan (fraction 1.0).
fn sane_fraction(fraction: f64) -> f64 {
    if fraction.is_finite() && fraction > 0.0 {
        fraction.min(1.0)
    } else {
        1.0
    }
}

impl SampleSpec {
    /// Validated row-level sample. Errors on a fraction outside (0, 1] or a
    /// zero row floor — a spec that could draw an *empty* sample from a
    /// non-empty table and build a `rows: 0` histogram that silently
    /// estimates zero for every predicate.
    pub fn fraction(fraction: f64, min_rows: usize) -> Result<Self, StatsError> {
        if !(fraction.is_finite() && fraction > 0.0 && fraction <= 1.0) {
            return Err(StatsError::InvalidSampleSpec {
                detail: format!("fraction {fraction} is outside (0, 1]"),
            });
        }
        if min_rows == 0 {
            return Err(StatsError::InvalidSampleSpec {
                detail: "min_rows must be at least 1".to_string(),
            });
        }
        Ok(SampleSpec::Fraction { fraction, min_rows })
    }

    /// Validated block-level sample; same domain rules as [`Self::fraction`]
    /// plus a non-zero block size.
    pub fn blocks(fraction: f64, block_rows: usize, min_rows: usize) -> Result<Self, StatsError> {
        Self::fraction(fraction, min_rows)?; // same fraction/min_rows domain
        if block_rows == 0 {
            return Err(StatsError::InvalidSampleSpec {
                detail: "block_rows must be at least 1".to_string(),
            });
        }
        Ok(SampleSpec::Blocks {
            fraction,
            block_rows,
            min_rows,
        })
    }

    /// Number of rows this spec reads from a table of `total_rows` rows.
    ///
    /// Degenerate field values in a literal-constructed spec (fraction
    /// outside (0, 1], `min_rows: 0`) are clamped here rather than trusted:
    /// a non-empty table always yields at least one sampled row.
    pub fn rows_read(&self, total_rows: usize) -> usize {
        match *self {
            SampleSpec::FullScan => total_rows,
            SampleSpec::Fraction { fraction, min_rows }
            | SampleSpec::Blocks {
                fraction, min_rows, ..
            } => {
                let n = (total_rows as f64 * sane_fraction(fraction)).ceil() as usize;
                n.max(min_rows.max(1)).min(total_rows)
            }
        }
    }

    /// Pick the sampled row indices of a table with `total_rows` rows.
    /// Deterministic for a given `seed`.
    pub fn pick_rows(&self, total_rows: usize, seed: u64) -> Vec<usize> {
        match *self {
            SampleSpec::FullScan => (0..total_rows).collect(),
            SampleSpec::Fraction { .. } => {
                let n = self.rows_read(total_rows);
                let mut rng = StdRng::seed_from_u64(seed);
                let mut all: Vec<usize> = (0..total_rows).collect();
                all.shuffle(&mut rng);
                all.truncate(n);
                all.sort_unstable();
                all
            }
            SampleSpec::Blocks { block_rows, .. } => {
                let n = self.rows_read(total_rows);
                let block = block_rows.max(1);
                let n_blocks = total_rows.div_ceil(block);
                let mut rng = StdRng::seed_from_u64(seed);
                let mut blocks: Vec<usize> = (0..n_blocks).collect();
                blocks.shuffle(&mut rng);
                let mut rows = Vec::with_capacity(n);
                for b in blocks {
                    if rows.len() >= n {
                        break;
                    }
                    let start = b * block;
                    let end = (start + block).min(total_rows);
                    rows.extend(start..end);
                }
                rows.truncate(n);
                rows.sort_unstable();
                rows
            }
        }
    }
}

/// The row indices a statistic build reads, ascending: the sampled `rows`,
/// or with `None` every row of a `total`-row table — a full scan needs no
/// index list.
pub(crate) fn iter_rows(rows: Option<&[usize]>, total: usize) -> RowIter<'_> {
    match rows {
        Some(rows) => RowIter::Sample(rows.iter()),
        None => RowIter::All(0..total),
    }
}

/// Iterator returned by [`iter_rows`].
#[derive(Clone)]
pub(crate) enum RowIter<'a> {
    All(std::ops::Range<usize>),
    Sample(std::slice::Iter<'a, usize>),
}

impl Iterator for RowIter<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        match self {
            RowIter::All(range) => range.next(),
            RowIter::Sample(rows) => rows.next().copied(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_scan_reads_everything() {
        let s = SampleSpec::FullScan;
        assert_eq!(s.rows_read(100), 100);
        assert_eq!(s.pick_rows(5, 0), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn fraction_respects_floor_and_cap() {
        let s = SampleSpec::Fraction {
            fraction: 0.01,
            min_rows: 50,
        };
        assert_eq!(s.rows_read(100), 50); // floor binds
        assert_eq!(s.rows_read(10), 10); // cap at table size
        assert_eq!(s.rows_read(100_000), 1000);
    }

    #[test]
    fn block_sampling_takes_contiguous_runs() {
        let s = SampleSpec::Blocks {
            fraction: 0.2,
            block_rows: 50,
            min_rows: 1,
        };
        let rows = s.pick_rows(1000, 3);
        assert_eq!(rows.len(), 200);
        // All rows group into exactly 4 blocks of 50 consecutive indices.
        let mut blocks: Vec<usize> = rows.iter().map(|r| r / 50).collect();
        blocks.dedup();
        assert_eq!(blocks.len(), 4);
        for chunk in rows.chunks(50) {
            assert!(chunk.windows(2).all(|w| w[1] == w[0] + 1));
        }
    }

    #[test]
    fn block_sampling_deterministic() {
        let s = SampleSpec::Blocks {
            fraction: 0.1,
            block_rows: 16,
            min_rows: 8,
        };
        assert_eq!(s.pick_rows(500, 9), s.pick_rows(500, 9));
        assert_ne!(s.pick_rows(500, 9), s.pick_rows(500, 10));
    }

    #[test]
    fn degenerate_specs_rejected_at_construction() {
        assert!(SampleSpec::fraction(0.0, 10).is_err());
        assert!(SampleSpec::fraction(-0.5, 10).is_err());
        assert!(SampleSpec::fraction(1.5, 10).is_err());
        assert!(SampleSpec::fraction(f64::NAN, 10).is_err());
        assert!(SampleSpec::fraction(0.1, 0).is_err());
        assert!(SampleSpec::blocks(0.1, 0, 10).is_err());
        assert!(SampleSpec::fraction(0.1, 10).is_ok());
        assert!(SampleSpec::blocks(1.0, 64, 1).is_ok());
    }

    #[test]
    fn literal_degenerate_spec_never_draws_empty_sample() {
        // A hand-built spec bypassing the validating constructor is clamped:
        // it can no longer produce the empty sample behind the "rows: 0.0
        // histogram estimates 0 for everything" failure mode.
        let s = SampleSpec::Fraction {
            fraction: 0.0,
            min_rows: 0,
        };
        assert_eq!(s.rows_read(1000), 1000); // zero fraction falls back to full scan
        assert_eq!(s.pick_rows(1000, 7).len(), 1000);
        assert_eq!(s.rows_read(0), 0);

        let tiny = SampleSpec::Fraction {
            fraction: 1e-9,
            min_rows: 0,
        };
        assert_eq!(tiny.rows_read(1000), 1); // min_rows: 0 still yields one row

        let nan = SampleSpec::Fraction {
            fraction: f64::NAN,
            min_rows: 0,
        };
        assert_eq!(nan.rows_read(50), 50); // NaN fraction falls back to full scan

        let b = SampleSpec::Blocks {
            fraction: -1.0,
            block_rows: 0,
            min_rows: 0,
        };
        assert_eq!(b.pick_rows(10, 3).len(), 10);
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let s = SampleSpec::Fraction {
            fraction: 0.1,
            min_rows: 1,
        };
        let a = s.pick_rows(1000, 42);
        let b = s.pick_rows(1000, 42);
        let c = s.pick_rows(1000, 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 100);
        // sorted unique indices in range
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert!(*a.last().unwrap() < 1000);
    }
}
