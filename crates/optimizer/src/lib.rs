//! A cost-based query optimizer for the supported SPJ + GROUP BY subset.
//!
//! This crate plays the role Microsoft SQL Server 7.0's optimizer plays in
//! the paper. The algorithms in `autostats` treat it as an oracle:
//!
//! ```text
//! optimize(query, visible statistics, injected selectivities)
//!     -> (physical plan tree, estimated cost, selectivity profile)
//! ```
//!
//! Three properties matter for faithfulness to the paper:
//!
//! 1. **Magic numbers** (§4.1): every predicate without applicable statistics
//!    gets a system-wide default selectivity; the profile reports *which*
//!    selectivity variables fell back to magic numbers.
//! 2. **Selectivity injection** (§7.2): any selectivity variable can be
//!    overridden with a caller-supplied value in `[0, 1]` — MNSA uses this to
//!    construct `P_low` (all magic variables at ε) and `P_high` (at 1−ε).
//! 3. **Ignore_Statistics_Subset** (§7.2): optimization can be told to ignore
//!    a subset of the existing statistics, which the Shrinking Set algorithm
//!    needs — this arrives as the [`stats::StatsView`] argument.
//!
//! A call is two halves, both public: [`Optimizer::profile`] reads the
//! statistics into one selectivity per variable, and [`Optimizer::plan`]
//! chooses a plan from those values alone — so a caller holding a plan for
//! the same profile values (Shrinking Set, holding MNSA's) need not plan
//! again.
//!
//! The physical cost model is monotone non-decreasing in every input
//! selectivity (the paper's *cost-monotonicity* assumption, §4.1), which a
//! property test in this crate verifies.

// Library code must stay panic-free on arbitrary input; tests may unwrap.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod cache;
pub mod cost;
mod enumerate;
pub mod error;
pub mod magic;
pub mod optimize;
pub mod plan;
pub mod selectivity;

pub use cache::OptimizeCache;
pub use cost::CostParams;
pub use enumerate::MAX_DP_RELATIONS;
pub use error::PlanError;
pub use magic::magic_number;
pub use optimize::{OptimizeOptions, OptimizedQuery, Optimizer};
pub use plan::{Operator, PlanNode};
pub use selectivity::{SelectivityProfile, SelectivitySource};

/// Relative cost comparison used by *t-Optimizer-Cost equivalence* (§3.2):
/// true when `|a - b| / min(a, b) <= t/100`. Equal costs are always within
/// t, `+∞` included; a NaN is within t of nothing.
///
/// ```
/// assert!(optimizer::costs_within_t(100.0, 115.0, 20.0));
/// assert!(!optimizer::costs_within_t(100.0, 130.0, 20.0));
/// ```
pub fn costs_within_t(a: f64, b: f64, t_percent: f64) -> bool {
    if a == b {
        return true;
    }
    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
    if lo <= 0.0 {
        return hi <= 0.0;
    }
    (hi - lo) / lo <= t_percent / 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn costs_within_t_basic() {
        assert!(costs_within_t(100.0, 119.0, 20.0));
        assert!(!costs_within_t(100.0, 121.0, 20.0));
        assert!(costs_within_t(119.0, 100.0, 20.0), "symmetric");
        assert!(costs_within_t(0.0, 0.0, 20.0));
        assert!(!costs_within_t(0.0, 1.0, 20.0));
        assert!(costs_within_t(5.0, 5.0, 0.0));
    }

    /// A plan is t-cost-equivalent to itself whatever its cost: (∞ − ∞) / ∞
    /// used to make `+∞` the one exception.
    #[test]
    fn costs_within_t_is_reflexive() {
        for a in [0.0, -0.0, 1.0, 1e300, f64::MAX, f64::INFINITY] {
            for t in [0.0, 20.0] {
                assert!(costs_within_t(a, a, t), "{a} at t = {t}");
            }
        }
        assert!(!costs_within_t(f64::INFINITY, f64::MAX, 20.0));
        assert!(!costs_within_t(f64::NAN, f64::NAN, 20.0));
        assert!(!costs_within_t(f64::NAN, 1.0, 20.0));
    }
}
