//! Experiment harness for the reproduction.
//!
//! One module per table/figure of the paper's evaluation (§8) under
//! [`experiments`], each exposing a `run(...)` function, and one binary,
//! `exp <experiment> [flags]` ([`cli`] is its command line), that runs
//! them. The paper experiments print a human-readable table, state the
//! paper's reported band next to the measured value, and write the rows as
//! JSON lines under `results/` (consumed when updating `EXPERIMENTS.md`);
//! the system experiments write one `BENCH_*.json` artifact each. All of it
//! is deterministic work: no module here reads a clock, so every file `exp`
//! writes is a pure function of `(experiment, scale, seed)`. Throughput and
//! latency are measured by the system benchmark under `benchmark/` alone.
//!
//! | `exp …`     | Result                                                   |
//! |-------------|----------------------------------------------------------|
//! | `intro`     | §1 intro experiment — plans change for all but 2 of 17   |
//! | `fig3`      | Figure 3 — candidate algorithm vs Exhaustive             |
//! | `fig4`      | Figure 4 — MNSA vs create-all-candidates (`--ablation`)  |
//! | `table1`    | Table 1 — MNSA/D vs MNSA update cost                     |
//! | `tsweep`    | §3.2/§8.2 — sensitivity to the t and ε parameters        |
//! | `shrink`    | §5.2 — Shrinking Set essential sets                      |
//! | `aging`     | §6 — dampened re-creation of dropped statistics          |
//! | `all`       | everything above, into `results/all.jsonl`               |
//! | `online`    | online lifecycle daemon — convergence vs offline tuning  |
//! | `cardbench` | q-error and plan-cost regret on adversarial workloads    |
//! | `serve`     | sharded serving — 1-shard identity, replay, convergence  |

pub mod cli;
pub mod common;
pub mod experiments;

pub use common::{ExperimentScale, Row};
