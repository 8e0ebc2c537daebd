//! Physical-operator cost formulas.
//!
//! Textbook CPU+I/O costs in abstract work units, chosen so that the
//! executor's measured work tracks the optimizer's estimates to first order.
//! The model is ten constants, fixed for the whole system like the magic
//! numbers, and the formulas over them. Every formula is monotone
//! non-decreasing in its input cardinalities, which (together with
//! cardinalities being monotone in selectivities) gives the
//! cost-monotonicity property MNSA relies on (§4.1).

/// The plan cost model: associated constants and formulas, no state. A
/// value of it is [`Optimizer::params`](crate::Optimizer::params), which
/// `benchmark/` passes to `executor::execute_plan`.
#[derive(Debug, Clone, Copy, Default)]
pub struct CostParams;

impl CostParams {
    /// Per-row cost of a sequential scan.
    pub const SEQ_ROW: f64 = 1.0;
    /// Fixed cost of opening an index (tree descent).
    pub const INDEX_LOOKUP: f64 = 8.0;
    /// Per-fetched-row cost of an index scan (random access penalty).
    pub const INDEX_ROW: f64 = 4.0;
    /// Per-row cost of building a hash table.
    pub const HASH_BUILD: f64 = 2.0;
    /// Per-row cost of probing a hash table.
    pub const HASH_PROBE: f64 = 1.2;
    /// Per-comparison cost of sorting (`n log n` comparisons).
    pub const SORT_CMP: f64 = 0.3;
    /// Per-row cost of the merge phase of a sort-merge join.
    pub const MERGE_ROW: f64 = 1.0;
    /// Per-output-row cost of any join.
    pub const JOIN_OUTPUT: f64 = 0.1;
    /// Per-input-row cost of hash aggregation.
    pub const AGG_ROW: f64 = 1.5;
    /// Per-group output cost of aggregation.
    pub const AGG_GROUP: f64 = 1.0;

    pub fn seq_scan(table_rows: f64) -> f64 {
        Self::SEQ_ROW * table_rows
    }

    /// Index scan fetching `seek_rows` of `table_rows` via the index.
    pub fn index_scan(table_rows: f64, seek_rows: f64) -> f64 {
        let _ = table_rows;
        Self::INDEX_LOOKUP + Self::INDEX_ROW * seek_rows
    }

    /// Hash join: build on the right input, probe with the left.
    pub fn hash_join(probe_rows: f64, build_rows: f64, out_rows: f64) -> f64 {
        Self::hash_join_priced(probe_rows, build_rows, Self::JOIN_OUTPUT * out_rows)
    }

    /// [`hash_join`](Self::hash_join) with its output term, `JOIN_OUTPUT ×
    /// out_rows`, already priced: the join enumerator prices every split of
    /// a subset against one output.
    pub(crate) fn hash_join_priced(probe_rows: f64, build_rows: f64, output: f64) -> f64 {
        Self::HASH_BUILD * build_rows + Self::HASH_PROBE * probe_rows + output
    }

    /// Sort-merge join including both sorts.
    pub fn merge_join(left_rows: f64, right_rows: f64, out_rows: f64) -> f64 {
        Self::merge_join_sorted(
            Self::sort(left_rows),
            Self::sort(right_rows),
            left_rows,
            right_rows,
            out_rows,
        )
    }

    /// [`merge_join`](Self::merge_join) for a caller that already holds
    /// `sort(left_rows)` and `sort(right_rows)` (the join enumerator keeps
    /// one per relation subset).
    pub fn merge_join_sorted(
        left_sort: f64,
        right_sort: f64,
        left_rows: f64,
        right_rows: f64,
        out_rows: f64,
    ) -> f64 {
        Self::merge_join_priced(
            left_sort,
            right_sort,
            left_rows,
            right_rows,
            Self::JOIN_OUTPUT * out_rows,
        )
    }

    /// [`merge_join_sorted`](Self::merge_join_sorted) with its output term
    /// already priced, as [`hash_join_priced`](Self::hash_join_priced).
    pub(crate) fn merge_join_priced(
        left_sort: f64,
        right_sort: f64,
        left_rows: f64,
        right_rows: f64,
        output: f64,
    ) -> f64 {
        left_sort + right_sort + Self::MERGE_ROW * (left_rows + right_rows) + output
    }

    /// Nested-loop join: the inner subtree is re-evaluated per outer row.
    pub fn nested_loop(outer_rows: f64, inner_cost: f64, out_rows: f64) -> f64 {
        Self::nested_loop_priced(outer_rows, inner_cost, Self::JOIN_OUTPUT * out_rows)
    }

    /// [`nested_loop`](Self::nested_loop) with its output term already
    /// priced, as [`hash_join_priced`](Self::hash_join_priced).
    pub(crate) fn nested_loop_priced(outer_rows: f64, inner_cost: f64, output: f64) -> f64 {
        outer_rows.max(1.0) * inner_cost + output
    }

    pub fn sort(rows: f64) -> f64 {
        let n = rows.max(2.0);
        Self::SORT_CMP * n * n.log2()
    }

    pub fn hash_aggregate(input_rows: f64, groups: f64) -> f64 {
        Self::AGG_ROW * input_rows + Self::AGG_GROUP * groups
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every constant of the model, pinned: a refit is a deliberate diff
    /// here.
    #[test]
    fn cost_constants_by_value() {
        for (name, constant, value) in [
            ("SEQ_ROW", CostParams::SEQ_ROW, 1.0),
            ("INDEX_LOOKUP", CostParams::INDEX_LOOKUP, 8.0),
            ("INDEX_ROW", CostParams::INDEX_ROW, 4.0),
            ("HASH_BUILD", CostParams::HASH_BUILD, 2.0),
            ("HASH_PROBE", CostParams::HASH_PROBE, 1.2),
            ("SORT_CMP", CostParams::SORT_CMP, 0.3),
            ("MERGE_ROW", CostParams::MERGE_ROW, 1.0),
            ("JOIN_OUTPUT", CostParams::JOIN_OUTPUT, 0.1),
            ("AGG_ROW", CostParams::AGG_ROW, 1.5),
            ("AGG_GROUP", CostParams::AGG_GROUP, 1.0),
        ] {
            assert_eq!(constant.to_bits(), f64::to_bits(value), "{name}");
        }
    }

    #[test]
    fn formulas_monotone_in_rows() {
        type C = CostParams;
        assert!(C::seq_scan(100.0) < C::seq_scan(200.0));
        assert!(C::index_scan(1000.0, 10.0) < C::index_scan(1000.0, 50.0));
        assert!(C::hash_join(100.0, 50.0, 10.0) < C::hash_join(200.0, 50.0, 10.0));
        assert!(C::hash_join(100.0, 50.0, 10.0) < C::hash_join(100.0, 80.0, 10.0));
        assert!(C::merge_join(100.0, 50.0, 10.0) < C::merge_join(100.0, 50.0, 500.0));
        assert!(C::nested_loop(10.0, 100.0, 5.0) < C::nested_loop(20.0, 100.0, 5.0));
        assert!(C::hash_aggregate(100.0, 5.0) < C::hash_aggregate(100.0, 50.0));
        assert!(C::sort(100.0) < C::sort(1000.0));
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
        type C = CostParams;
        for _ in 0..200_000 {
            let [a, b, ra, rb, out] = [0; 5].map(|_| draw(&mut next));
            let (x, y) = (
                C::merge_join_sorted(a, b, ra, rb, out),
                C::merge_join_sorted(b, a, rb, ra, out),
            );
            assert!(agree(x, y), "{a} {b} {ra} {rb} {out}: {x} vs {y}");
            let o = C::JOIN_OUTPUT * out;
            let (x, y) = (
                C::merge_join_priced(a, b, ra, rb, o),
                C::merge_join_priced(b, a, rb, ra, o),
            );
            assert!(agree(x, y), "{a} {b} {ra} {rb} {o}: {x} vs {y}");
        }
    }

    #[test]
    fn index_beats_seq_scan_only_when_selective() {
        type C = CostParams;
        let rows = 10_000.0;
        assert!(C::index_scan(rows, rows * 0.001) < C::seq_scan(rows));
        assert!(C::index_scan(rows, rows * 0.9) > C::seq_scan(rows));
    }
}
