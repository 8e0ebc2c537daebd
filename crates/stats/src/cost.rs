//! Deterministic cost model for statistics creation and update.
//!
//! The paper's experiments report *relative* reductions in "statistics
//! creation time" (Figures 3 and 4) and "update cost" (Table 1). We reproduce
//! those as ratios of deterministic work units: building a statistic costs a
//! scan of the referenced column bytes plus one sort per column of the
//! statistic. The knobs below let benches ablate the weighting; the defaults
//! are what every experiment uses.

/// Tunable weights of the statistics build/update cost model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Work units per 8 bytes of column data scanned.
    pub scan_weight: f64,
    /// Work units per comparison in the per-column sort.
    pub sort_weight: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            scan_weight: 1.0,
            sort_weight: 1.0,
        }
    }
}

impl CostModel {
    /// Cost of building (or rebuilding) a statistic that reads `rows_read`
    /// rows of `col_bytes` total referenced bytes per row, over `n_cols`
    /// statistic columns.
    pub fn build_cost(&self, rows_read: usize, col_bytes: usize, n_cols: usize) -> f64 {
        let n = rows_read as f64;
        let scan = self.scan_weight * n * (col_bytes as f64 / 8.0);
        let sort = self.sort_weight * n_cols as f64 * n * n.max(2.0).log2();
        scan + sort
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_statistic_build_work() {
        let m = CostModel::default();
        assert_eq!(
            m.build_cost(1234, 16, 3),
            crate::statistic::build_work(1234, 16, 3)
        );
    }

    #[test]
    fn weights_scale_linearly() {
        let m = CostModel {
            scan_weight: 2.0,
            sort_weight: 0.0,
        };
        assert_eq!(m.build_cost(100, 8, 1), 200.0);
    }
}
