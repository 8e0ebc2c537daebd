//! # serve — the sharded multi-tenant serving layer
//!
//! `autod`'s published snapshots let readers run without waiting on
//! writers or ticks, but one service's writers still take turns on its
//! snapshot, and one workload monitor sees every query. This crate spreads
//! both by sharding:
//!
//! * [`ShardPlan`] — a deterministic table → shard placement. Tables are
//!   assigned greedily by size to the least-loaded shard; tables at or above
//!   a row threshold are hash-partitioned across *all* shards by a seeded
//!   row hash. Every shard database is a [`Database::schema_skeleton`] of
//!   the original filled with only its owned tables, so [`TableId`]s,
//!   column ordinals, and index metadata are identical on every shard and
//!   bound statements need no translation.
//! * [`Router`] — a pure statement → [`Route`] function over the plan.
//!   Single-shard SELECTs and all DML on owned tables go straight to their
//!   shard's [`QueryHandle`]; INSERTs into partitioned tables row-hash to
//!   one shard; UPDATE/DELETE on partitioned tables broadcast (slices are
//!   disjoint); everything else takes the explicit fallback, which runs on
//!   a snapshot sharing the shards' tables (see [`cluster`]).
//! * [`BudgetArbiter`] — one global tuning budget per tick, split across
//!   shards proportionally to demand (pending work reported by each shard's
//!   last [`TickReport`]). Unspent tokens and debt carry over inside each
//!   shard's own token bucket, exactly as in the unsharded service.
//! * [`ServeCluster`] — one [`autod::OnlineService`] (published snapshot,
//!   monitor, lifecycle core, telemetry registry) per shard, plus
//!   cloneable [`ClusterClient`]s for query threads (each remembers the
//!   shard of the texts it sent to one shard, up to
//!   [`ROUTE_MEMO_CAPACITY`], and sends them there unparsed) and merge-based
//!   cluster telemetry (exact latency-histogram merges, summed health).
//!   [`ServeCluster::tick_wait`] ticks the shards in shard order on the
//!   calling thread; the cluster starts no thread of its own.
//!
//! ## Determinism contract
//!
//! A 1-shard cluster is bit-identical — catalog trajectory, epoch
//! generations, tick reports, and journal (after its `ShardAssigned`
//! prelude) — to a plain [`autod::OnlineService`] over the same database,
//! because shard 0's database is a structural clone and the arbiter's
//! single-shard split returns the global budget exactly. At any shard
//! count, a fixed seed and fixed tick schedule replay bit-identically:
//! placement, routing, and per-shard tick funding are all pure functions of
//! the inputs. Shard assignments are journaled as typed
//! [`autostats::OnlineEvent::ShardAssigned`] events at tick 0 so replays
//! stay auditable.
//!
//! [`QueryHandle`]: autod::QueryHandle
//! [`TickReport`]: autod::TickReport
//! [`Database::schema_skeleton`]: storage::Database::schema_skeleton
//! [`TableId`]: storage::TableId

#![forbid(unsafe_code)]
// Library code must stay panic-free on arbitrary input; tests may unwrap.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod arbiter;
pub mod cluster;
pub mod plan;
pub mod router;

pub use arbiter::BudgetArbiter;
pub use cluster::{ClusterClient, ServeCluster, ServeConfig, ROUTE_MEMO_CAPACITY};
pub use plan::{Placement, ShardPlan, TablePlacement};
pub use router::{Route, Router};
