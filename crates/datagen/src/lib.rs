//! Data and workload generation for the experiments.
//!
//! Reproduces the paper's experimental setup (§8.1):
//!
//! * **TPC-D with skew** — the paper modified the TPC-D dbgen to draw every
//!   column from a Zipfian distribution with parameter `z ∈ [0, 4]`, and to
//!   support a *mixed* mode assigning each column a random `z`. [`tpcd`]
//!   rebuilds that generator: `TPCD_0` (uniform), `TPCD_2`, `TPCD_4`, and
//!   `TPCD_MIX` databases at a configurable scale factor.
//! * **Rags-like workloads** — Slutz's Rags tool \[15\] generated stochastic
//!   SQL; [`rags`] is a seedable generator with the paper's three knobs:
//!   update percentage (0/25/50), complexity (Simple ≤ 2 tables /
//!   Complex ≤ 8 tables), and statement count, with names like `U25-S-1000`.
//! * **The 17 TPC-D benchmark queries** — [`tpcd_queries`] renders Q1–Q17 in
//!   the supported SPJ+GROUP BY subset (subqueries flattened) for the intro
//!   experiment and the `TPCD-ORIG` workload.

pub mod adversarial;
// Grandfathered under the CI panic-free gate: the TPC-D/Rags generators
// predate it and treat malformed schemas as programmer error. New datagen
// modules (e.g. `adversarial`) must stay unwrap/expect-free.
#[allow(clippy::unwrap_used, clippy::expect_used)]
pub mod rags;
#[allow(clippy::unwrap_used, clippy::expect_used)]
pub mod tpcd;
pub mod tpcd_queries;
pub mod zipf;

pub use adversarial::{
    adversarial_queries, build_adversarial, dim_name, AdversarialConfig, Regime, FACT, FACTS,
    SUBDIM,
};
pub use rags::{Complexity, RagsGenerator, WorkloadSpec};
pub use tpcd::{build_tpcd, create_tuned_indexes, standard_databases, TpcdConfig, ZipfSpec};
pub use tpcd_queries::tpcd_benchmark_queries;
pub use zipf::Zipf;
