//! Zero-heavy-dependency observability for the autostats workspace.
//!
//! Two halves:
//!
//! - [`metrics`] — a registry of named counters, gauges, and latency
//!   histograms behind atomics, with a [`Registry::snapshot`] API and
//!   text/JSON renderers.
//! - [`trace`] — a span tracer with explicit [`SpanGuard`]s, per-fork event
//!   buffers merged deterministically at flush, and exporters ([`export`])
//!   to JSONL and Chrome `trace_event` format (Perfetto-viewable).
//!
//! The cost contract: everything here is observation-only. A disabled
//! [`Obs`] costs one branch per call site — no allocation, no clock reads,
//! no locks — and enabling it may never change a tuning outcome; catalogs,
//! plans, and drop-lists must be bit-identical with tracing on vs off
//! (enforced by `tests/trace_determinism.rs` in the workspace root).

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]
#![cfg_attr(not(test), deny(clippy::expect_used))]

pub mod check;
pub mod export;
pub mod health;
pub mod json;
pub mod latency;
pub mod metrics;
pub mod slowlog;
pub mod trace;
pub mod window;

use std::sync::Arc;

pub use health::HealthSnapshot;
pub use latency::{LatencyHistogram, LatencySample, RELATIVE_ERROR_BOUND};
pub use metrics::{Counter, FloatCounter, Gauge, MetricValue, Registry, Snapshot};
pub use slowlog::{SlowQuery, SlowQueryLog, SpanSampler};
pub use trace::{ArgValue, Event, EventKind, SpanGuard, TraceDefect, Tracer};
pub use window::{WindowDelta, WindowValue, WindowedRegistry};

/// The observability context threaded through the pipeline: one tracer plus
/// one metrics registry. Cheap to clone; [`Obs::default`] is fully disabled
/// (no-op tracer, private throwaway registry) so library code can hold an
/// `Obs` unconditionally.
#[derive(Debug, Clone)]
pub struct Obs {
    pub tracer: Tracer,
    pub metrics: Arc<Registry>,
}

impl Default for Obs {
    fn default() -> Self {
        Obs {
            tracer: Tracer::disabled(),
            metrics: Arc::new(Registry::new()),
        }
    }
}

impl Obs {
    /// Fully disabled context: no-op tracer, detached registry.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Tracing and metrics both live, on a fresh registry.
    pub fn enabled() -> Self {
        Obs {
            tracer: Tracer::enabled(),
            metrics: Arc::new(Registry::new()),
        }
    }

    /// A context for another logical thread: same registry, forked tracer
    /// buffer tagged with `tid`.
    pub fn fork(&self, tid: u64) -> Obs {
        Obs {
            tracer: self.tracer.fork(tid),
            metrics: Arc::clone(&self.metrics),
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.tracer.is_enabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_obs_is_inert_and_cloneable() {
        let obs = Obs::disabled();
        let clone = obs.clone();
        assert!(!clone.is_enabled());
        let _s = clone.tracer.span("anything");
        assert!(clone.tracer.flush().is_empty());
    }

    #[test]
    fn fork_shares_registry() {
        let obs = Obs::enabled();
        let worker = obs.fork(3);
        worker.metrics.counter("shared").inc();
        assert_eq!(obs.metrics.counter("shared").get(), 1);
        let _root = obs.tracer.span("root");
        let _w = worker.tracer.span("work");
        drop(_w);
        drop(_root);
        let events = obs.tracer.flush();
        assert!(events.iter().any(|e| e.tid == 3));
    }
}
