//! # autod — the online statistics lifecycle daemon
//!
//! The paper frames MNSA as one piece of a *continuously running*
//! statistics-management service: the deployed system watches the workload,
//! notices when data changes invalidate statistics, and tunes in the
//! background without getting in the way of queries. This crate is that
//! service, built from three cooperating pieces:
//!
//! * [`WorkloadMonitor`] — a bounded, fingerprint-deduplicated reservoir of
//!   executed query templates (frequency + recency per template,
//!   deterministic seeded eviction). The tuning workload is this compressed
//!   live sample, not an offline workload file. A SELECT pushes its record
//!   onto an inbox that the tick folds into the monitor, so the monitor's
//!   bookkeeping stays off the statement path.
//! * [`LifecycleCore`] — a state machine advanced by deterministic
//!   virtual-time ticks. Each tick funds a work-token budget (carry-over,
//!   debt allowed), refreshes the statistics
//!   [`StatsCatalog::stale_statistics`] flags under the SQL Server-style
//!   `max(500, 20% of rows)` rule through the catalog's shared-scan batch
//!   rebuilds, physically drops the drop-listed statistics refreshed more
//!   than [`stats::MAX_UPDATES`] times (§6's auto-drop, as the paper
//!   improves it), runs MNSA ([`autostats::MnsaEngine`]) over
//!   the monitored sample's new templates while the budget lasts, and
//!   periodically a Shrinking Set pass
//!   ([`autostats::policy::shrinking_pass`]), journaling both into the same
//!   [`autostats::SessionReport`] ledger the offline tuner keeps.
//! * [`Snapshot`] — the data and the published [`CatalogEpoch`] swap
//!   together: one `Arc` per service, loaded once by every statement, so a
//!   query reads a consistent database and catalog and never blocks on
//!   tuning, and a write waits for no reader and no tick.
//!
//! [`OnlineService`] assembles the pieces over a database and a catalog and
//! exposes cloneable per-thread [`QueryHandle`]s — the one front door for
//! statements, and with it the one implementation of §6: ticked after every
//! statement on an unlimited budget it is the paper's on-the-fly policy,
//! ticked on a schedule and a finite budget a background service. It is
//! passive: it starts no
//! thread, and a tick runs on the thread that calls
//! [`OnlineService::tick_wait`], with the core behind a mutex.
//!
//! ## Determinism contract
//!
//! As in the offline layers: with a fixed seed, fixed tick schedule, and one
//! query thread, the daemon's catalog trajectory — epochs published, work
//! meters, journal — is bit-identical run to run. A *paused* daemon (queue
//! drained, one shrink pass) leaves the master catalog bit-identical to
//! [`OfflineTuner::tune`](autostats::OfflineTuner) over the same sample.
//!
//! [`StatsCatalog::stale_statistics`]: stats::StatsCatalog::stale_statistics

#![forbid(unsafe_code)]
// Library code must stay panic-free on arbitrary input; tests may unwrap.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod daemon;
pub mod monitor;
pub mod service;

pub use daemon::{AutodConfig, CatalogEpoch, LifecycleCore, TelemetryConfig, TickReport};
pub use monitor::{MonitorConfig, TemplateStats, WorkloadMonitor, MONITOR_CAPACITY};
pub use service::{plan_select, OnlineService, Prepared, QueryHandle, ServiceReport, Snapshot};
