//! Span-based tracer with explicit guards.
//!
//! Design constraints, in order:
//!
//! 1. **Observation only.** Nothing in the tracer can influence tuning
//!    decisions — no fallible APIs on the hot path, no data flows back out
//!    of it. Determinism of outcomes with tracing on vs off is a hard
//!    requirement elsewhere in the workspace and is enforced by tests.
//! 2. **Cheap when disabled.** A disabled [`Tracer`] is a `None`; every
//!    recording call is a branch on that option and nothing else — no
//!    allocation, no clock read, no locking.
//! 3. **No thread-local magic.** Parenting is explicit: a [`SpanGuard`]
//!    hands out children via [`SpanGuard::child`]. Worker threads get their
//!    own buffer via [`Tracer::fork`], and flushed events from all forks are
//!    merged by a global sequence number, so the merged order is the true
//!    causal order regardless of which thread recorded what.
//!
//! Span names are `&'static str` by contract: the taxonomy is fixed at
//! compile time (e.g. `mnsa.round`, `stats.build`, `exec.op.HashJoin`,
//! `exec.project`), which keeps recording allocation-light and makes traces
//! greppable.

use crate::lock;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// An attribute value attached to a span or instant event.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    Int(i64),
    Float(f64),
    Str(String),
    Bool(bool),
}

impl From<i64> for ArgValue {
    fn from(v: i64) -> Self {
        ArgValue::Int(v)
    }
}
impl From<u64> for ArgValue {
    fn from(v: u64) -> Self {
        ArgValue::Int(v as i64)
    }
}
impl From<usize> for ArgValue {
    fn from(v: usize) -> Self {
        ArgValue::Int(v as i64)
    }
}
impl From<f64> for ArgValue {
    fn from(v: f64) -> Self {
        ArgValue::Float(v)
    }
}
impl From<bool> for ArgValue {
    fn from(v: bool) -> Self {
        ArgValue::Bool(v)
    }
}
impl From<&str> for ArgValue {
    fn from(v: &str) -> Self {
        ArgValue::Str(v.to_string())
    }
}
impl From<String> for ArgValue {
    fn from(v: String) -> Self {
        ArgValue::Str(v)
    }
}

/// What an [`Event`] records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// A span opened (`id` is the span, `parent` its enclosing span).
    Begin,
    /// A span closed.
    End,
    /// A point-in-time marker inside a span.
    Instant,
}

/// One recorded trace event.
#[derive(Debug, Clone)]
pub struct Event {
    /// Global causal sequence number — the merge key across forks.
    pub seq: u64,
    pub kind: EventKind,
    /// Span id for Begin/End; owning span id for Instant.
    pub id: u64,
    /// Parent span id; 0 means root.
    pub parent: u64,
    pub name: &'static str,
    /// Logical thread id of the fork that recorded this event.
    pub tid: u64,
    /// Nanoseconds since the tracer was created (wall-clock flavour; not
    /// part of any determinism contract).
    pub ts_ns: u64,
    pub args: Vec<(&'static str, ArgValue)>,
}

#[derive(Debug)]
struct Inner {
    epoch: Instant,
    /// Global id allocator (span ids and the causal sequence).
    next_seq: AtomicU64,
    next_id: AtomicU64,
    /// One event buffer per fork; each fork locks only its own.
    buffers: Mutex<Vec<Arc<Mutex<Vec<Event>>>>>,
}

impl Inner {
    fn new() -> Self {
        Inner {
            epoch: Instant::now(),
            next_seq: AtomicU64::new(0),
            next_id: AtomicU64::new(1),
            buffers: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// A handle for recording events. Cheap to clone; disabled by default.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<Inner>>,
    buffer: Option<Arc<Mutex<Vec<Event>>>>,
    tid: u64,
}

impl Tracer {
    /// A tracer that records nothing and costs one branch per call.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// A live tracer recording into a fresh buffer set (this handle is
    /// fork/tid 0).
    pub fn enabled() -> Self {
        let inner = Arc::new(Inner::new());
        let buffer = Arc::new(Mutex::new(Vec::new()));
        lock(&inner.buffers).push(Arc::clone(&buffer));
        Tracer {
            inner: Some(inner),
            buffer: Some(buffer),
            tid: 0,
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// A handle for another logical thread: shares ids and the flush set,
    /// records into its own buffer so forks never contend on one lock.
    pub fn fork(&self, tid: u64) -> Tracer {
        match &self.inner {
            None => Tracer::disabled(),
            Some(inner) => {
                let buffer = Arc::new(Mutex::new(Vec::new()));
                lock(&inner.buffers).push(Arc::clone(&buffer));
                Tracer {
                    inner: Some(Arc::clone(inner)),
                    buffer: Some(buffer),
                    tid,
                }
            }
        }
    }

    fn record(
        &self,
        kind: EventKind,
        id: u64,
        parent: u64,
        name: &'static str,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        let (Some(inner), Some(buffer)) = (&self.inner, &self.buffer) else {
            return;
        };
        let event = Event {
            seq: inner.next_seq.fetch_add(1, Ordering::Relaxed),
            kind,
            id,
            parent,
            name,
            tid: self.tid,
            ts_ns: inner.now_ns(),
            args,
        };
        lock(buffer).push(event);
    }

    /// Open a root span. Prefer [`SpanGuard::child`] inside existing spans.
    pub fn span(&self, name: &'static str) -> SpanGuard {
        self.span_with(name, Vec::new())
    }

    /// Open a root span with initial attributes.
    pub fn span_with(&self, name: &'static str, args: Vec<(&'static str, ArgValue)>) -> SpanGuard {
        self.start_span(name, 0, args)
    }

    fn start_span(
        &self,
        name: &'static str,
        parent: u64,
        args: Vec<(&'static str, ArgValue)>,
    ) -> SpanGuard {
        let Some(inner) = &self.inner else {
            return SpanGuard {
                tracer: Tracer::disabled(),
                id: 0,
                name,
                end_args: Vec::new(),
            };
        };
        let id = inner.next_id.fetch_add(1, Ordering::Relaxed);
        self.record(EventKind::Begin, id, parent, name, args);
        SpanGuard {
            tracer: self.clone(),
            id,
            name,
            end_args: Vec::new(),
        }
    }

    /// Drain every fork's buffer and merge by global sequence number.
    /// The result is the causal order of recording across all threads.
    pub fn flush(&self) -> Vec<Event> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        let buffers = lock(&inner.buffers);
        let mut events: Vec<Event> = Vec::new();
        for buf in buffers.iter() {
            events.append(&mut lock(buf));
        }
        events.sort_by_key(|e| e.seq);
        events
    }
}

/// An open span. Closes (records `End`) on drop; children must be opened
/// through [`SpanGuard::child`] so parenting is explicit.
#[derive(Debug)]
pub struct SpanGuard {
    tracer: Tracer,
    id: u64,
    name: &'static str,
    end_args: Vec<(&'static str, ArgValue)>,
}

impl SpanGuard {
    /// This span's id (0 when the tracer is disabled).
    pub fn id(&self) -> u64 {
        self.id
    }

    pub fn is_enabled(&self) -> bool {
        self.tracer.is_enabled()
    }

    /// Open a child span.
    pub fn child(&self, name: &'static str) -> SpanGuard {
        self.tracer.start_span(name, self.id, Vec::new())
    }

    /// Attach an attribute, reported on the span's `End` event.
    pub fn arg(&mut self, key: &'static str, value: impl Into<ArgValue>) {
        if self.tracer.is_enabled() {
            self.end_args.push((key, value.into()));
        }
    }

    /// Record a point-in-time marker inside this span.
    pub fn instant(&self, name: &'static str, args: Vec<(&'static str, ArgValue)>) {
        self.tracer
            .record(EventKind::Instant, self.id, self.id, name, args);
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.tracer.is_enabled() {
            let args = std::mem::take(&mut self.end_args);
            self.tracer
                .record(EventKind::End, self.id, 0, self.name, args);
        }
    }
}

/// A structural problem found by [`validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceDefect {
    /// A span's `End` event never appeared.
    UnclosedSpan { id: u64, name: String },
    /// An `End` with no matching `Begin`.
    OrphanEnd { id: u64, name: String },
    /// A child's Begin/End falls outside its parent's Begin/End in the
    /// merged causal order.
    ChildOutsideParent { id: u64, parent: u64 },
    /// An event references a parent span that was never begun.
    UnknownParent { id: u64, parent: u64 },
    /// Sequence numbers are not strictly increasing after the merge.
    NonMonotoneSeq { at_index: usize },
}

/// Check well-formedness of a flushed, merged event stream: every span
/// closed exactly once, children strictly enclosed by their parents in
/// causal order, sequence numbers strictly monotone.
pub fn validate(events: &[Event]) -> Vec<TraceDefect> {
    use std::collections::HashMap;
    let mut defects = Vec::new();
    for (i, w) in events.windows(2).enumerate() {
        if w[1].seq <= w[0].seq {
            defects.push(TraceDefect::NonMonotoneSeq { at_index: i + 1 });
        }
    }
    // Span id -> (begin index, end index).
    let mut spans: HashMap<u64, (usize, Option<usize>)> = HashMap::new();
    for (i, e) in events.iter().enumerate() {
        match e.kind {
            EventKind::Begin => {
                spans.insert(e.id, (i, None));
            }
            EventKind::End => match spans.get_mut(&e.id) {
                Some(slot) => slot.1 = Some(i),
                None => defects.push(TraceDefect::OrphanEnd {
                    id: e.id,
                    name: e.name.to_string(),
                }),
            },
            EventKind::Instant => {}
        }
    }
    for (i, e) in events.iter().enumerate() {
        match e.kind {
            EventKind::Begin => {
                let Some(&(begin, end)) = spans.get(&e.id) else {
                    continue;
                };
                let Some(end) = end else {
                    defects.push(TraceDefect::UnclosedSpan {
                        id: e.id,
                        name: e.name.to_string(),
                    });
                    continue;
                };
                if e.parent != 0 {
                    match spans.get(&e.parent) {
                        None => defects.push(TraceDefect::UnknownParent {
                            id: e.id,
                            parent: e.parent,
                        }),
                        Some(&(pb, pe)) => {
                            let enclosed = pb < begin && pe.map(|pe| end < pe).unwrap_or(true);
                            if !enclosed {
                                defects.push(TraceDefect::ChildOutsideParent {
                                    id: e.id,
                                    parent: e.parent,
                                });
                            }
                        }
                    }
                }
            }
            EventKind::Instant => {
                if e.parent != 0 && !spans.contains_key(&e.parent) {
                    defects.push(TraceDefect::UnknownParent {
                        id: e.id,
                        parent: e.parent,
                    });
                }
                // An instant inside a span must fall within it causally.
                if let Some(&(pb, pe)) = spans.get(&e.parent) {
                    let inside = pb < i && pe.map(|pe| i < pe).unwrap_or(true);
                    if e.parent != 0 && !inside {
                        defects.push(TraceDefect::ChildOutsideParent {
                            id: e.id,
                            parent: e.parent,
                        });
                    }
                }
            }
            EventKind::End => {}
        }
    }
    defects
}

/// Deterministic textual signature of a flushed event stream: one line per
/// event in merge order, with span ids renumbered by first appearance and
/// wall-clock timestamps excluded. Two traces with the same structure, names,
/// and args — regardless of when or how fast they ran — produce byte-equal
/// signatures, so this is the comparison key for "same span tree" checks
/// (e.g. the executor's thread-count determinism contract). `Float` args
/// render by bit pattern, so even NaN payloads must agree.
pub fn canonical_signature(events: &[Event]) -> String {
    use std::collections::HashMap;
    use std::fmt::Write as _;
    // Renumber ids in order of first appearance: raw span ids come from a
    // shared counter whose values could differ between runs that interleave
    // with other tracer users, while the structure may still be identical.
    let mut dense: HashMap<u64, usize> = HashMap::new();
    dense.insert(0, 0);
    let of = |raw: u64, dense: &mut HashMap<u64, usize>| -> usize {
        let next = dense.len();
        *dense.entry(raw).or_insert(next)
    };
    let mut out = String::new();
    for e in events {
        let id = of(e.id, &mut dense);
        let parent = of(e.parent, &mut dense);
        let kind = match e.kind {
            EventKind::Begin => 'B',
            EventKind::End => 'E',
            EventKind::Instant => 'I',
        };
        let _ = write!(out, "{kind} {id} {parent} {}", e.name);
        for (k, v) in &e.args {
            match v {
                ArgValue::Int(i) => {
                    let _ = write!(out, " {k}=i{i}");
                }
                ArgValue::Float(f) => {
                    let _ = write!(out, " {k}=f{:016x}", f.to_bits());
                }
                ArgValue::Str(s) => {
                    let _ = write!(out, " {k}=s{s:?}");
                }
                ArgValue::Bool(b) => {
                    let _ = write!(out, " {k}=b{b}");
                }
            }
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_is_inert() {
        let t = Tracer::disabled();
        let mut s = t.span("root");
        s.arg("k", 1i64);
        s.instant("marker", vec![]);
        let c = s.child("child");
        drop(c);
        drop(s);
        assert!(t.flush().is_empty());
        assert!(!t.is_enabled());
    }

    #[test]
    fn span_tree_roundtrip() {
        let t = Tracer::enabled();
        {
            let mut root = t.span_with("root", vec![("n", ArgValue::Int(2))]);
            root.instant("tick", vec![("x", ArgValue::Bool(true))]);
            {
                let mut c = root.child("child");
                c.arg("rows", 42u64);
            }
            root.arg("done", true);
        }
        let events = t.flush();
        assert_eq!(events.len(), 5); // Begin root, Instant, Begin c, End c, End root
        assert!(validate(&events).is_empty());
        let begin_child = events
            .iter()
            .find(|e| e.kind == EventKind::Begin && e.name == "child")
            .expect("child begin");
        let begin_root = events
            .iter()
            .find(|e| e.kind == EventKind::Begin && e.name == "root")
            .expect("root begin");
        assert_eq!(begin_child.parent, begin_root.id);
    }

    #[test]
    fn forks_merge_in_sequence_order() {
        let t = Tracer::enabled();
        let root = t.span("root");
        let f = t.fork(7);
        // Interleave recordings across forks; seq must order them.
        let c1 = root.child("a");
        let fr = f.span("worker");
        drop(c1);
        drop(fr);
        drop(root);
        let events = t.flush();
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        assert_eq!(seqs, sorted);
        assert!(events.iter().any(|e| e.tid == 7));
        assert!(validate(&events).is_empty());
    }

    #[test]
    fn validate_flags_unclosed_span() {
        let t = Tracer::enabled();
        let root = t.span("root");
        let child = root.child("child");
        std::mem::forget(child); // leak: End never recorded
        drop(root);
        let events = t.flush();
        let defects = validate(&events);
        assert!(defects
            .iter()
            .any(|d| matches!(d, TraceDefect::UnclosedSpan { .. })));
    }

    #[test]
    fn canonical_signature_ignores_time_and_raw_ids() {
        let run = || {
            let t = Tracer::enabled();
            {
                let mut root = t.span("root");
                root.arg("est", 2.5f64);
                {
                    let mut c = root.child("child");
                    c.arg("rows", 42u64);
                }
                root.instant("tick", vec![("ok", ArgValue::Bool(true))]);
            }
            t.flush()
        };
        let (a, b) = (run(), run());
        // Wall-clock timestamps differ between the runs; the signature
        // must not.
        assert_eq!(canonical_signature(&a), canonical_signature(&b));
        // Renumbering: shifting every raw id must not change the signature.
        let shifted: Vec<Event> = a
            .iter()
            .map(|e| {
                let mut e = e.clone();
                e.id += 100;
                if e.parent != 0 {
                    e.parent += 100;
                }
                e
            })
            .collect();
        assert_eq!(canonical_signature(&a), canonical_signature(&shifted));
        // Structure is load-bearing: a different arg changes it.
        let mut c = a.clone();
        c[0].args.push(("extra", ArgValue::Int(1)));
        assert_ne!(canonical_signature(&a), canonical_signature(&c));
    }

    #[test]
    fn validate_flags_child_outside_parent() {
        let t = Tracer::enabled();
        let root = t.span("root");
        let child = root.child("child");
        drop(root); // parent ends before child
        drop(child);
        let events = t.flush();
        let defects = validate(&events);
        assert!(defects
            .iter()
            .any(|d| matches!(d, TraceDefect::ChildOutsideParent { .. })));
    }
}
