//! Physical-operator cost formulas.
//!
//! Textbook CPU+I/O costs in abstract work units, chosen so that the
//! executor's measured work tracks the optimizer's estimates to first order.
//! Every formula is monotone non-decreasing in its input cardinalities,
//! which (together with cardinalities being monotone in selectivities) gives
//! the cost-monotonicity property MNSA relies on (§4.1).

/// Tunable constants of the plan cost model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostParams {
    /// Per-row cost of a sequential scan.
    pub seq_row: f64,
    /// Fixed cost of opening an index (tree descent).
    pub index_lookup: f64,
    /// Per-fetched-row cost of an index scan (random access penalty).
    pub index_row: f64,
    /// Per-row cost of building a hash table.
    pub hash_build: f64,
    /// Per-row cost of probing a hash table.
    pub hash_probe: f64,
    /// Per-comparison cost of sorting (`n log n` comparisons).
    pub sort_cmp: f64,
    /// Per-row cost of the merge phase of a sort-merge join.
    pub merge_row: f64,
    /// Per-output-row cost of any join.
    pub join_output: f64,
    /// Per-input-row cost of hash aggregation.
    pub agg_row: f64,
    /// Per-group output cost of aggregation.
    pub agg_group: f64,
}

impl Default for CostParams {
    fn default() -> Self {
        CostParams {
            seq_row: 1.0,
            index_lookup: 8.0,
            index_row: 4.0,
            hash_build: 2.0,
            hash_probe: 1.2,
            sort_cmp: 0.3,
            merge_row: 1.0,
            join_output: 0.1,
            agg_row: 1.5,
            agg_group: 1.0,
        }
    }
}

impl CostParams {
    pub fn seq_scan(&self, table_rows: f64) -> f64 {
        self.seq_row * table_rows
    }

    /// Index scan fetching `seek_rows` of `table_rows` via the index.
    pub fn index_scan(&self, table_rows: f64, seek_rows: f64) -> f64 {
        let _ = table_rows;
        self.index_lookup + self.index_row * seek_rows
    }

    /// Hash join: build on the right input, probe with the left.
    pub fn hash_join(&self, probe_rows: f64, build_rows: f64, out_rows: f64) -> f64 {
        self.hash_join_priced(probe_rows, build_rows, self.join_output * out_rows)
    }

    /// [`hash_join`](Self::hash_join) with its output term, `join_output ×
    /// out_rows`, already priced: the join enumerator prices every split of
    /// a subset against one output.
    pub(crate) fn hash_join_priced(&self, probe_rows: f64, build_rows: f64, output: f64) -> f64 {
        self.hash_build * build_rows + self.hash_probe * probe_rows + output
    }

    /// Sort-merge join including both sorts.
    pub fn merge_join(&self, left_rows: f64, right_rows: f64, out_rows: f64) -> f64 {
        self.merge_join_sorted(
            self.sort(left_rows),
            self.sort(right_rows),
            left_rows,
            right_rows,
            out_rows,
        )
    }

    /// [`merge_join`](Self::merge_join) for a caller that already holds
    /// `sort(left_rows)` and `sort(right_rows)` (the join enumerator keeps
    /// one per relation subset).
    pub fn merge_join_sorted(
        &self,
        left_sort: f64,
        right_sort: f64,
        left_rows: f64,
        right_rows: f64,
        out_rows: f64,
    ) -> f64 {
        self.merge_join_priced(
            left_sort,
            right_sort,
            left_rows,
            right_rows,
            self.join_output * out_rows,
        )
    }

    /// [`merge_join_sorted`](Self::merge_join_sorted) with its output term
    /// already priced, as [`hash_join_priced`](Self::hash_join_priced).
    pub(crate) fn merge_join_priced(
        &self,
        left_sort: f64,
        right_sort: f64,
        left_rows: f64,
        right_rows: f64,
        output: f64,
    ) -> f64 {
        left_sort + right_sort + self.merge_row * (left_rows + right_rows) + output
    }

    /// Nested-loop join: the inner subtree is re-evaluated per outer row.
    pub fn nested_loop(&self, outer_rows: f64, inner_cost: f64, out_rows: f64) -> f64 {
        self.nested_loop_priced(outer_rows, inner_cost, self.join_output * out_rows)
    }

    /// [`nested_loop`](Self::nested_loop) with its output term already
    /// priced, as [`hash_join_priced`](Self::hash_join_priced).
    pub(crate) fn nested_loop_priced(&self, outer_rows: f64, inner_cost: f64, output: f64) -> f64 {
        outer_rows.max(1.0) * inner_cost + output
    }

    pub fn sort(&self, rows: f64) -> f64 {
        let n = rows.max(2.0);
        self.sort_cmp * n * n.log2()
    }

    pub fn hash_aggregate(&self, input_rows: f64, groups: f64) -> f64 {
        self.agg_row * input_rows + self.agg_group * groups
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formulas_monotone_in_rows() {
        let p = CostParams::default();
        assert!(p.seq_scan(100.0) < p.seq_scan(200.0));
        assert!(p.index_scan(1000.0, 10.0) < p.index_scan(1000.0, 50.0));
        assert!(p.hash_join(100.0, 50.0, 10.0) < p.hash_join(200.0, 50.0, 10.0));
        assert!(p.hash_join(100.0, 50.0, 10.0) < p.hash_join(100.0, 80.0, 10.0));
        assert!(p.merge_join(100.0, 50.0, 10.0) < p.merge_join(100.0, 50.0, 500.0));
        assert!(p.nested_loop(10.0, 100.0, 5.0) < p.nested_loop(20.0, 100.0, 5.0));
        assert!(p.hash_aggregate(100.0, 5.0) < p.hash_aggregate(100.0, 50.0));
        assert!(p.sort(100.0) < p.sort(1000.0));
    }

    /// The join enumerator prices Merge once per unordered split pair
    /// (`enumerate.rs`, module docs): that skip is exact only because a
    /// merge join costs the same to the bit with its sides swapped. A NaN
    /// may keep the payload of whichever operand came first, so two NaNs
    /// count as agreeing — a NaN wins no `<` either way.
    #[test]
    fn merge_join_is_symmetric_to_the_bit() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let special = [
            0.0,
            -0.0,
            1.0,
            2.0,
            0.1,
            1e-310,
            f64::from_bits(1),
            f64::MIN_POSITIVE,
            1e300,
            f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        let draw = |next: &mut dyn FnMut() -> u64| -> f64 {
            let r = next();
            match r % 4 {
                0 => special[(r >> 8) as usize % special.len()],
                1 => f64::from_bits(next()),
                2 => (next() >> 11) as f64 * 2f64.powi((r >> 8) as i32 % 64 - 16),
                _ => (next() >> 11) as f64 / (1u64 << 53) as f64,
            }
        };
        let agree = |x: f64, y: f64| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan());
        for case in 0..200_000 {
            let p = if case % 2 == 0 {
                CostParams::default()
            } else {
                CostParams {
                    merge_row: draw(&mut next),
                    join_output: draw(&mut next),
                    ..CostParams::default()
                }
            };
            let [a, b, ra, rb, out] = [0; 5].map(|_| draw(&mut next));
            let (x, y) = (
                p.merge_join_sorted(a, b, ra, rb, out),
                p.merge_join_sorted(b, a, rb, ra, out),
            );
            assert!(agree(x, y), "{a} {b} {ra} {rb} {out}: {x} vs {y}");
            let o = p.join_output * out;
            let (x, y) = (
                p.merge_join_priced(a, b, ra, rb, o),
                p.merge_join_priced(b, a, rb, ra, o),
            );
            assert!(agree(x, y), "{a} {b} {ra} {rb} {o}: {x} vs {y}");
        }
    }

    #[test]
    fn index_beats_seq_scan_only_when_selective() {
        let p = CostParams::default();
        let rows = 10_000.0;
        assert!(p.index_scan(rows, rows * 0.001) < p.seq_scan(rows));
        assert!(p.index_scan(rows, rows * 0.9) > p.seq_scan(rows));
    }
}
