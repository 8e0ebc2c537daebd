//! The "magic number" selectivities (§4.1 of the paper).
//!
//! "Magic numbers are system wide constants between 0 and 1 that are
//! predetermined for various kinds of predicates": one constant per
//! [`PredClass`], used for a selectivity variable that no visible statistic
//! and no injected value covers. The paper's own example uses 0.30 for a
//! range predicate; the remaining values follow the classical System R /
//! SQL Server conventions.

use query::PredClass;

/// The default selectivity of a predicate class, used when no statistics
/// apply.
pub const fn magic_number(class: PredClass) -> f64 {
    match class {
        // `col = literal`.
        PredClass::Equality => 0.10,
        // `col <> literal`.
        PredClass::Inequality => 0.90,
        // `col < / <= / > / >= literal`: the paper's example value.
        PredClass::Range => 0.30,
        // `col BETWEEN a AND b`.
        PredClass::Between => 0.25,
        // An equi-join edge between two relations.
        PredClass::Join => 0.10,
        // GROUP BY: the fraction of input rows distinct in the grouping
        // columns.
        PredClass::GroupBy => 0.10,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every magic number, pinned: a changed value is a deliberate diff here.
    /// The range value is the paper's (§4.1: "most relational optimizers
    /// use a default magic number, say 0.30, for the selectivity of the
    /// range predicate").
    #[test]
    fn magic_numbers_by_class() {
        for (class, value) in [
            (PredClass::Equality, 0.10),
            (PredClass::Inequality, 0.90),
            (PredClass::Range, 0.30),
            (PredClass::Between, 0.25),
            (PredClass::Join, 0.10),
            (PredClass::GroupBy, 0.10),
        ] {
            assert_eq!(
                magic_number(class).to_bits(),
                f64::to_bits(value),
                "{class:?}"
            );
            assert!((0.0..=1.0).contains(&value), "{class:?} -> {value}");
        }
    }
}
