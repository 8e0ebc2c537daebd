//! Default "magic number" selectivities (§4.1 of the paper).
//!
//! "Magic numbers are system wide constants between 0 and 1 that are
//! predetermined for various kinds of predicates." The paper's own example
//! uses 0.30 for a range predicate without statistics; the remaining values
//! follow the classical System R / SQL Server conventions.

use query::PredClass;

/// The per-predicate-class default selectivities used when no statistics
/// apply.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MagicNumbers {
    /// `col = literal`.
    pub equality: f64,
    /// `col <> literal`.
    pub inequality: f64,
    /// `col < / <= / > / >= literal` — the paper's example value is 0.30.
    pub range: f64,
    /// `col BETWEEN a AND b`.
    pub between: f64,
    /// Equi-join edge between two relations.
    pub join: f64,
    /// GROUP BY distinct-fraction: estimated fraction of input rows that are
    /// distinct in the grouping columns.
    pub group_by: f64,
}

impl Default for MagicNumbers {
    fn default() -> Self {
        MagicNumbers {
            equality: 0.10,
            inequality: 0.90,
            range: 0.30,
            between: 0.25,
            join: 0.10,
            group_by: 0.10,
        }
    }
}

impl MagicNumbers {
    /// The default selectivity for a predicate class.
    pub fn for_class(&self, class: PredClass) -> f64 {
        match class {
            PredClass::Equality => self.equality,
            PredClass::Inequality => self.inequality,
            PredClass::Range => self.range,
            PredClass::Between => self.between,
            PredClass::Join => self.join,
            PredClass::GroupBy => self.group_by,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid_selectivities() {
        let m = MagicNumbers::default();
        for class in [
            PredClass::Equality,
            PredClass::Inequality,
            PredClass::Range,
            PredClass::Between,
            PredClass::Join,
            PredClass::GroupBy,
        ] {
            let v = m.for_class(class);
            assert!((0.0..=1.0).contains(&v), "{class:?} -> {v}");
        }
    }

    #[test]
    fn range_matches_paper_example() {
        // §4.1: "most relational optimizers use a default magic number, say
        // 0.30, for the selectivity of the range predicate".
        assert_eq!(MagicNumbers::default().range, 0.30);
    }
}
