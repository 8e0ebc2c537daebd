//! Trace exporters: JSONL (one event per line) and Chrome `trace_event`
//! JSON (loadable in `chrome://tracing` / Perfetto).
//!
//! Both are pure functions of a flushed event stream, so exporting never
//! touches live tracer state. They only decide which fields an event carries;
//! [`crate::json`] writes them — the JSONL stream in its line layout, the
//! Chrome document in its block layout.

pub use crate::json::json_escape;
use crate::json::{Object, Value};
use crate::trace::{ArgValue, Event, EventKind};

impl From<&ArgValue> for Value {
    fn from(value: &ArgValue) -> Self {
        match value {
            ArgValue::Int(v) => (*v).into(),
            ArgValue::Float(v) => (*v).into(),
            ArgValue::Str(v) => v.as_str().into(),
            ArgValue::Bool(v) => (*v).into(),
        }
    }
}

fn args<'a>(args: impl IntoIterator<Item = &'a (&'static str, ArgValue)>) -> Object {
    let mut out = Object::new();
    for (key, value) in args {
        out.push(*key, value);
    }
    out
}

/// One JSON object per line, in merged causal order. Greppable, diffable,
/// and streamable; the schema is checked by `obsv_check`.
pub fn to_jsonl(events: &[Event]) -> String {
    let mut out = String::new();
    for e in events {
        let kind = match e.kind {
            EventKind::Begin => "B",
            EventKind::End => "E",
            EventKind::Instant => "I",
        };
        let line = Object::new()
            .field("seq", e.seq)
            .field("kind", kind)
            .field("id", e.id)
            .field("parent", e.parent)
            .field("name", e.name)
            .field("tid", e.tid)
            .field("ts_ns", e.ts_ns)
            .field("args", args(&e.args));
        out.push_str(&line.line());
        out.push('\n');
    }
    out
}

/// Chrome `trace_event` format: spans become `"X"` complete events (one
/// per matched Begin/End pair, duration = end − begin), instants become
/// `"i"` events. Open in Perfetto or `chrome://tracing`.
pub fn to_chrome(events: &[Event]) -> String {
    use std::collections::HashMap;
    let ends: HashMap<u64, &Event> = events
        .iter()
        .filter(|e| e.kind == EventKind::End)
        .map(|e| (e.id, e))
        .collect();
    let records: Vec<Object> = events
        .iter()
        .filter_map(|e| {
            let (ph, end) = match e.kind {
                // An unclosed span is skipped rather than emitted as garbage.
                EventKind::Begin => ("X", Some(*ends.get(&e.id)?)),
                EventKind::Instant => ("i", None),
                EventKind::End => return None,
            };
            let mut record = Object::new()
                .field("name", e.name)
                .field("ph", ph)
                .field("pid", 1u32)
                .field("tid", e.tid)
                .field("ts", e.ts_ns / 1000);
            match end {
                Some(end) => {
                    let dur_us = end.ts_ns.saturating_sub(e.ts_ns) / 1000;
                    record.push("dur", dur_us.max(1));
                    // Begin-args and end-args merge so everything a span
                    // learned during its lifetime shows in one tooltip.
                    record.push("args", args(e.args.iter().chain(&end.args)));
                }
                None => {
                    record.push("s", "t");
                    record.push("args", args(&e.args));
                }
            }
            Some(record)
        })
        .collect();
    Object::new().field("traceEvents", records).block()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::json::{parse, Json};
    use crate::trace::Tracer;

    fn sample_events() -> Vec<Event> {
        let t = Tracer::enabled();
        {
            let root = t.span("root");
            root.instant("tick", vec![("note", ArgValue::Str("a\"b".into()))]);
            let mut c = root.child("child");
            c.arg("rows", 3i64);
        }
        t.flush()
    }

    /// A fixed stream touching every argument type, an escape-heavy string
    /// and a non-finite float.
    pub(crate) fn fixed_events() -> Vec<Event> {
        let ev = |seq, kind, id, parent, name, tid, ts_ns, args| Event {
            seq,
            kind,
            id,
            parent,
            name,
            tid,
            ts_ns,
            args,
        };
        vec![
            ev(
                0,
                EventKind::Begin,
                1,
                0,
                "root",
                0,
                1000,
                vec![("sql", ArgValue::Str("a\"b\n".into()))],
            ),
            ev(
                1,
                EventKind::Instant,
                1,
                0,
                "tick",
                0,
                1500,
                vec![
                    ("note", ArgValue::Str("é✓\u{1}".into())),
                    ("ok", ArgValue::Bool(true)),
                ],
            ),
            ev(
                2,
                EventKind::Begin,
                2,
                1,
                "child",
                3,
                2000,
                vec![("rows", ArgValue::Int(-3))],
            ),
            ev(
                3,
                EventKind::End,
                2,
                0,
                "child",
                3,
                5000,
                vec![
                    ("rows_out", ArgValue::Int(9)),
                    ("ratio", ArgValue::Float(0.25)),
                    ("bad", ArgValue::Float(f64::NAN)),
                ],
            ),
            ev(4, EventKind::End, 1, 0, "root", 0, 9000, vec![]),
        ]
    }

    #[test]
    fn jsonl_bytes_are_pinned() {
        // The exact bytes written for this input: recorded artifacts and
        // their readers depend on them.
        let pinned = "{\"seq\": 0, \"kind\": \"B\", \"id\": 1, \"parent\": 0, \"name\": \"root\", \"tid\": 0, \"ts_ns\": 1000, \"args\": {\"sql\": \"a\\\"b\\n\"}}\n{\"seq\": 1, \"kind\": \"I\", \"id\": 1, \"parent\": 0, \"name\": \"tick\", \"tid\": 0, \"ts_ns\": 1500, \"args\": {\"note\": \"é✓\\u0001\", \"ok\": true}}\n{\"seq\": 2, \"kind\": \"B\", \"id\": 2, \"parent\": 1, \"name\": \"child\", \"tid\": 3, \"ts_ns\": 2000, \"args\": {\"rows\": -3}}\n{\"seq\": 3, \"kind\": \"E\", \"id\": 2, \"parent\": 0, \"name\": \"child\", \"tid\": 3, \"ts_ns\": 5000, \"args\": {\"rows_out\": 9, \"ratio\": 0.25, \"bad\": null}}\n{\"seq\": 4, \"kind\": \"E\", \"id\": 1, \"parent\": 0, \"name\": \"root\", \"tid\": 0, \"ts_ns\": 9000, \"args\": {}}\n";
        assert_eq!(to_jsonl(&fixed_events()), pinned);
    }

    #[test]
    fn chrome_document_is_pinned() {
        // The document written for this input in the earlier one-event-per-line
        // layout: the layout may change, the parsed document may not.
        let pinned = "{\"traceEvents\": [\n{\"name\": \"root\", \"ph\": \"X\", \"pid\": 1, \"tid\": 0, \"ts\": 1, \"dur\": 8, \"args\": {\"sql\": \"a\\\"b\\n\"}},\n{\"name\": \"tick\", \"ph\": \"i\", \"pid\": 1, \"tid\": 0, \"ts\": 1, \"s\": \"t\", \"args\": {\"note\": \"é✓\\u0001\", \"ok\": true}},\n{\"name\": \"child\", \"ph\": \"X\", \"pid\": 1, \"tid\": 3, \"ts\": 2, \"dur\": 3, \"args\": {\"rows\": -3, \"rows_out\": 9, \"ratio\": 0.25, \"bad\": null}}\n]}\n";
        let chrome = to_chrome(&fixed_events());
        assert_eq!(parse(&chrome), parse(pinned));
        assert!(chrome.starts_with("{\n  \"traceEvents\": [\n    {\"name\": \"root\""));
    }

    #[test]
    fn jsonl_parses_line_by_line() {
        let events = sample_events();
        let jsonl = to_jsonl(&events);
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), events.len());
        for line in lines {
            let parsed = parse(line).expect("jsonl line parses");
            assert!(parsed.get("seq").is_some());
            assert!(parsed.get("kind").and_then(Json::as_str).is_some());
        }
    }

    #[test]
    fn chrome_trace_is_valid_json_with_complete_events() {
        let events = sample_events();
        let chrome = to_chrome(&events);
        let parsed = parse(&chrome).expect("chrome trace parses");
        let list = parsed
            .get("traceEvents")
            .and_then(Json::as_array)
            .expect("traceEvents array");
        // 2 spans -> 2 "X" events, 1 instant -> 1 "i" event.
        assert_eq!(list.len(), 3);
        let phases: Vec<&str> = list
            .iter()
            .filter_map(|e| e.get("ph").and_then(Json::as_str))
            .collect();
        assert_eq!(phases.iter().filter(|p| **p == "X").count(), 2);
        assert_eq!(phases.iter().filter(|p| **p == "i").count(), 1);
    }
}
