//! Two-dimensional histograms over the joint distribution of a column pair.
//!
//! §3 of the paper: "Multi-dimensional histogram structures can be
//! constructed using Phased or MHIST-p \[14\] strategy over the joint
//! distribution of multiple columns of a relation." This module implements
//! the **Phased** strategy for two dimensions: partition the leading
//! dimension into equi-depth slabs, then partition each slab independently
//! on the second dimension. The result estimates *conjunctive* predicates
//! over both columns without the attribute-value-independence assumption
//! that multiplying two 1-D selectivities makes.
//!
//! SQL Server 7.0 (the paper's substrate) does not carry such structures —
//! its multi-column statistics are the asymmetric histogram+density form of
//! §7.1 — so [`Histogram2d`] is an *optional* extra: enable it per catalog
//! via [`BuildOptions::with_joint_histograms`](crate::BuildOptions) and the
//! optimizer will prefer it for two-column conjunctions when present.

use storage::Value;

/// One cell: a slab of the leading dimension crossed with a bucket of the
/// second dimension inside that slab.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    pub x_lo: f64,
    pub x_hi: f64,
    pub y_lo: f64,
    pub y_hi: f64,
    /// Fraction of all rows falling in this cell.
    pub fraction: f64,
}

/// A Phased 2-D histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram2d {
    cells: Vec<Cell>,
    rows: f64,
}

/// Inclusive numeric ranges a predicate restricts each dimension to
/// (`None` bound = unbounded).
#[derive(Debug, Clone, Copy, Default)]
pub struct RangeQuery {
    pub x_lo: Option<f64>,
    pub x_hi: Option<f64>,
    pub y_lo: Option<f64>,
    pub y_hi: Option<f64>,
}

impl Histogram2d {
    /// Build from parallel value slices (`xs[i]`, `ys[i]` = row i), using at
    /// most `slabs` partitions of x and `buckets_per_slab` of y per slab.
    pub fn build(xs: &[Value], ys: &[Value], slabs: usize, buckets_per_slab: usize) -> Histogram2d {
        assert_eq!(xs.len(), ys.len(), "parallel column slices required");
        assert!(slabs >= 1 && buckets_per_slab >= 1);
        let mut pairs: Vec<(f64, f64)> = xs
            .iter()
            .zip(ys)
            .filter(|(x, y)| !x.is_null() && !y.is_null())
            .map(|(x, y)| (x.numeric_key(), y.numeric_key()))
            .collect();
        let rows = pairs.len() as f64;
        if pairs.is_empty() {
            return Histogram2d {
                cells: Vec::new(),
                rows: 0.0,
            };
        }
        // Phase 1: equi-depth slabs on x.
        pairs.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
        let n = pairs.len();
        let per_slab = n.div_ceil(slabs);
        let mut cells = Vec::new();
        let mut start = 0usize;
        while start < n {
            // Extend the slab so equal x values never straddle a boundary.
            let mut end = (start + per_slab).min(n);
            while end < n && pairs[end].0 == pairs[end - 1].0 {
                end += 1;
            }
            let slab = &pairs[start..end];
            let x_lo = slab[0].0;
            let x_hi = slab[slab.len() - 1].0;
            // Phase 2: equi-depth buckets on y within the slab.
            let mut ys_in: Vec<f64> = slab.iter().map(|&(_, y)| y).collect();
            ys_in.sort_by(f64::total_cmp);
            let m = ys_in.len();
            let per_bucket = m.div_ceil(buckets_per_slab);
            let mut bstart = 0usize;
            while bstart < m {
                let mut bend = (bstart + per_bucket).min(m);
                while bend < m && ys_in[bend] == ys_in[bend - 1] {
                    bend += 1;
                }
                cells.push(Cell {
                    x_lo,
                    x_hi,
                    y_lo: ys_in[bstart],
                    y_hi: ys_in[bend - 1],
                    fraction: (bend - bstart) as f64 / rows,
                });
                bstart = bend;
            }
            start = end;
        }
        Histogram2d { cells, rows }
    }

    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    pub fn rows(&self) -> f64 {
        self.rows
    }

    /// Estimated selectivity of a conjunctive range query over both
    /// dimensions, with uniform interpolation inside each cell.
    pub fn selectivity(&self, q: &RangeQuery) -> f64 {
        let overlap = |lo: f64, hi: f64, qlo: Option<f64>, qhi: Option<f64>| -> f64 {
            let qlo = qlo.unwrap_or(f64::NEG_INFINITY);
            let qhi = qhi.unwrap_or(f64::INFINITY);
            if qhi < lo || qlo > hi {
                return 0.0;
            }
            let w = hi - lo;
            if w <= 0.0 {
                // Point span: either covered or not.
                return if qlo <= lo && hi <= qhi { 1.0 } else { 0.5 };
            }
            ((qhi.min(hi) - qlo.max(lo)) / w).clamp(0.0, 1.0)
        };
        let mut sel = 0.0;
        for c in &self.cells {
            let fx = overlap(c.x_lo, c.x_hi, q.x_lo, q.x_hi);
            if fx == 0.0 {
                continue;
            }
            let fy = overlap(c.y_lo, c.y_hi, q.y_lo, q.y_hi);
            sel += c.fraction * fx * fy;
        }
        sel.clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ints(v: impl IntoIterator<Item = i64>) -> Vec<Value> {
        v.into_iter().map(Value::Int).collect()
    }

    /// Perfectly correlated columns: y == x. The independence assumption
    /// would estimate sel(x < 50 AND y >= 50) = 0.25; the truth is 0, and a
    /// joint histogram should be close to the truth.
    #[test]
    fn captures_correlation_independence_misses() {
        let xs = ints(0..1000);
        let ys = ints(0..1000);
        let h = Histogram2d::build(&xs, &ys, 16, 8);
        let contradictory = h.selectivity(&RangeQuery {
            x_hi: Some(499.0),
            y_lo: Some(500.0),
            ..Default::default()
        });
        assert!(
            contradictory < 0.05,
            "joint estimate {contradictory} should be near 0"
        );
        let consistent = h.selectivity(&RangeQuery {
            x_hi: Some(499.0),
            y_hi: Some(499.0),
            ..Default::default()
        });
        assert!(
            (consistent - 0.5).abs() < 0.1,
            "joint estimate {consistent} should be ~0.5"
        );
    }

    #[test]
    fn independent_columns_match_product() {
        let xs: Vec<Value> = ints((0..2000).map(|i| i % 40));
        let ys: Vec<Value> = ints((0..2000).map(|i| (i * 7) % 50));
        let h = Histogram2d::build(&xs, &ys, 10, 10);
        let est = h.selectivity(&RangeQuery {
            x_hi: Some(19.0),
            y_hi: Some(24.0),
            ..Default::default()
        });
        // True: P(x <= 19) ~ 0.5, P(y <= 24) ~ 0.5, independent → 0.25.
        assert!((est - 0.25).abs() < 0.08, "est={est}");
    }

    #[test]
    fn fractions_sum_to_one() {
        let xs = ints((0..500).map(|i| i % 13));
        let ys = ints((0..500).map(|i| i % 29));
        let h = Histogram2d::build(&xs, &ys, 8, 8);
        let total: f64 = h.cells().iter().map(|c| c.fraction).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn unbounded_query_is_one() {
        let xs = ints(0..100);
        let ys = ints(0..100);
        let h = Histogram2d::build(&xs, &ys, 4, 4);
        assert!((h.selectivity(&RangeQuery::default()) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_and_null_inputs() {
        let h = Histogram2d::build(&[], &[], 4, 4);
        assert_eq!(h.selectivity(&RangeQuery::default()), 0.0);
        let xs = vec![Value::Null, Value::Int(1)];
        let ys = vec![Value::Int(1), Value::Null];
        let h = Histogram2d::build(&xs, &ys, 4, 4);
        assert_eq!(h.rows(), 0.0, "rows with any NULL dimension are excluded");
    }

    #[test]
    fn slabs_never_split_equal_x() {
        let xs = ints(std::iter::repeat_n(5, 100).chain(0..50));
        let ys = ints(0..150);
        let h = Histogram2d::build(&xs, &ys, 10, 4);
        // Every cell with x range touching 5 must have x_lo <= 5 <= x_hi and
        // no two distinct slabs may both claim x == 5 exclusively.
        let slabs_with_5: std::collections::HashSet<(u64, u64)> = h
            .cells()
            .iter()
            .filter(|c| c.x_lo <= 5.0 && 5.0 <= c.x_hi)
            .map(|c| (c.x_lo.to_bits(), c.x_hi.to_bits()))
            .collect();
        assert_eq!(
            slabs_with_5.len(),
            1,
            "x=5 straddles slabs: {slabs_with_5:?}"
        );
    }
}
