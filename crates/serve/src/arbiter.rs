//! The shared token-bucket budget arbiter.
//!
//! One *global* tuning budget is funded per tick and split across shards in
//! proportion to demand — the pending work (queued templates plus deferred
//! refreshes) each shard reported at the end of its previous tick, plus a
//! constant floor so an idle shard still receives tokens to pay down debt.
//! The split is pure f64 arithmetic in shard order, so it is bit-stable
//! run to run. Carry-over happens downstream: each shard's own
//! [`autod::LifecycleCore`] token balance keeps unspent tokens and debt,
//! exactly as in the unsharded daemon.

/// Splits a global per-tick budget across shards by demand.
#[derive(Debug, Clone)]
pub struct BudgetArbiter {
    global_per_tick: f64,
}

impl BudgetArbiter {
    pub fn new(global_per_tick: f64) -> BudgetArbiter {
        BudgetArbiter { global_per_tick }
    }

    pub fn global_per_tick(&self) -> f64 {
        self.global_per_tick
    }

    /// The demand signal derived from a shard's last tick: `1 + pending`,
    /// so every shard keeps a positive claim and backlogged shards claim
    /// proportionally more.
    pub fn demand(pending: usize) -> f64 {
        1.0 + pending as f64
    }

    /// Split the global budget across `demands.len()` shards. Negative and
    /// non-finite demands count as zero; if no shard has positive demand the
    /// budget splits evenly. An infinite global budget funds every shard
    /// infinitely (the unconstrained-tuning configuration).
    pub fn split(&self, demands: &[f64]) -> Vec<f64> {
        let n = demands.len();
        if n == 0 {
            return Vec::new();
        }
        if !self.global_per_tick.is_finite() {
            return vec![self.global_per_tick; n];
        }
        let clamped: Vec<f64> = demands
            .iter()
            .map(|&d| if d.is_finite() && d > 0.0 { d } else { 0.0 })
            .collect();
        let total: f64 = clamped.iter().sum();
        if total <= 0.0 {
            return vec![self.global_per_tick / n as f64; n];
        }
        clamped
            .iter()
            .map(|&d| self.global_per_tick * d / total)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_is_proportional_and_conserves_budget() {
        let arbiter = BudgetArbiter::new(1000.0);
        let shares = arbiter.split(&[1.0, 3.0]);
        assert_eq!(shares, vec![250.0, 750.0]);
        let sum: f64 = arbiter.split(&[2.0, 5.0, 13.0]).iter().sum();
        assert!((sum - 1000.0).abs() < 1e-9, "split conserves the budget");
    }

    #[test]
    fn zero_demand_splits_evenly() {
        let arbiter = BudgetArbiter::new(600.0);
        assert_eq!(arbiter.split(&[0.0, 0.0, 0.0]), vec![200.0, 200.0, 200.0]);
        assert_eq!(arbiter.split(&[-5.0, f64::NAN]), vec![300.0, 300.0]);
    }

    #[test]
    fn single_shard_receives_the_exact_global_budget() {
        // Bit-exactness matters: the 1-shard cluster must fund ticks with
        // the same f64 the unsharded service would.
        let arbiter = BudgetArbiter::new(500_000.0);
        assert_eq!(arbiter.split(&[1.0]), vec![500_000.0]);
        assert_eq!(arbiter.split(&[17.0])[0].to_bits(), 500_000.0f64.to_bits());
    }

    #[test]
    fn infinite_budget_funds_every_shard() {
        let arbiter = BudgetArbiter::new(f64::INFINITY);
        let shares = arbiter.split(&[0.0, 4.0]);
        assert!(shares.iter().all(|s| s.is_infinite() && *s > 0.0));
    }

    #[test]
    fn split_is_deterministic() {
        let arbiter = BudgetArbiter::new(12345.678);
        let demands = [1.0, 2.5, 0.0, 19.25];
        let a: Vec<u64> = arbiter
            .split(&demands)
            .iter()
            .map(|f| f.to_bits())
            .collect();
        let b: Vec<u64> = arbiter
            .split(&demands)
            .iter()
            .map(|f| f.to_bits())
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn demand_floors_at_one() {
        assert_eq!(BudgetArbiter::demand(0), 1.0);
        assert_eq!(BudgetArbiter::demand(9), 10.0);
    }
}
