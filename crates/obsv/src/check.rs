//! Schema checks for exported artefacts, shared by the `obsv_check` binary
//! and by tests. These validate the *files* a tuning run wrote (JSONL
//! traces, Chrome traces, metrics dumps), complementing
//! [`crate::trace::validate`], which checks the in-memory event stream.

use crate::json::{self, Json};

/// Check a JSONL trace: every line parses, carries the required fields,
/// sequence numbers are strictly increasing, and every Begin has an End.
pub fn check_jsonl(text: &str) -> Result<CheckSummary, String> {
    let mut last_seq: Option<f64> = None;
    let mut open: std::collections::HashMap<i64, String> = std::collections::HashMap::new();
    let mut events = 0usize;
    let mut spans = 0usize;
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = json::parse(line).map_err(|e| format!("line {}: {}", lineno + 1, e))?;
        let seq = field_num(&v, "seq", lineno)?;
        let kind = field_str(&v, "kind", lineno)?;
        let id = field_num(&v, "id", lineno)? as i64;
        field_num(&v, "parent", lineno)?;
        field_num(&v, "tid", lineno)?;
        field_num(&v, "ts_ns", lineno)?;
        let name = field_str(&v, "name", lineno)?;
        if v.get("args").and_then(Json::as_object).is_none() {
            return Err(format!("line {}: missing args object", lineno + 1));
        }
        if let Some(prev) = last_seq {
            if seq <= prev {
                return Err(format!(
                    "line {}: non-monotone seq {} after {}",
                    lineno + 1,
                    seq,
                    prev
                ));
            }
        }
        last_seq = Some(seq);
        match kind.as_str() {
            "B" => {
                spans += 1;
                open.insert(id, name);
            }
            "E" => {
                if open.remove(&id).is_none() {
                    return Err(format!("line {}: end of unknown span {}", lineno + 1, id));
                }
            }
            "I" => {}
            other => return Err(format!("line {}: unknown kind '{}'", lineno + 1, other)),
        }
        events += 1;
    }
    if let Some((id, name)) = open.iter().next() {
        return Err(format!("unclosed span {id} ('{name}')"));
    }
    Ok(CheckSummary { events, spans })
}

/// Check a Chrome `trace_event` file: top-level object with a
/// `traceEvents` array of well-formed `"X"`/`"i"` records.
pub fn check_chrome(text: &str) -> Result<CheckSummary, String> {
    let v = json::parse(text).map_err(|e| e.to_string())?;
    let list = v
        .get("traceEvents")
        .and_then(Json::as_array)
        .ok_or_else(|| "missing traceEvents array".to_string())?;
    let mut spans = 0usize;
    for (i, e) in list.iter().enumerate() {
        let ph = e
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing ph"))?;
        for key in ["name", "ts"] {
            if e.get(key).is_none() {
                return Err(format!("event {i}: missing {key}"));
            }
        }
        match ph {
            "X" => {
                spans += 1;
                let dur = e
                    .get("dur")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("event {i}: X event missing dur"))?;
                if dur < 0.0 {
                    return Err(format!("event {i}: negative duration"));
                }
            }
            "i" => {}
            other => return Err(format!("event {i}: unexpected phase '{other}'")),
        }
    }
    Ok(CheckSummary {
        events: list.len(),
        spans,
    })
}

/// Check a metrics dump: one JSON object whose values are numbers or
/// latency histogram objects (`count`/`p50`/`p90`/`p99`/`p999`/`max`).
pub fn check_metrics(text: &str) -> Result<CheckSummary, String> {
    let v = json::parse(text).map_err(|e| e.to_string())?;
    let obj = v
        .as_object()
        .ok_or_else(|| "metrics dump must be a JSON object".to_string())?;
    for (name, value) in obj {
        match value {
            Json::Num(_) | Json::Null => {}
            Json::Object(h) => {
                for key in ["count", "p50", "p90", "p99", "p999", "max"] {
                    if !h.contains_key(key) {
                        return Err(format!("metric '{name}': latency object missing {key}"));
                    }
                }
            }
            _ => return Err(format!("metric '{name}': unexpected value type")),
        }
    }
    Ok(CheckSummary {
        events: obj.len(),
        spans: 0,
    })
}

/// Check a windowed-rollup JSONL stream: every line is a flat JSON object
/// with a numeric `window` field, windows strictly increase, and every
/// value is a number or null.
pub fn check_windows(text: &str) -> Result<CheckSummary, String> {
    let mut last_window: Option<f64> = None;
    let mut lines = 0usize;
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = json::parse(line).map_err(|e| format!("line {}: {}", lineno + 1, e))?;
        let obj = v
            .as_object()
            .ok_or_else(|| format!("line {}: window entry must be an object", lineno + 1))?;
        let window = obj
            .get("window")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("line {}: missing numeric 'window'", lineno + 1))?;
        if let Some(prev) = last_window {
            if window <= prev {
                return Err(format!(
                    "line {}: non-monotone window {} after {}",
                    lineno + 1,
                    window,
                    prev
                ));
            }
        }
        last_window = Some(window);
        for (name, value) in obj {
            if !matches!(value, Json::Num(_) | Json::Null) {
                return Err(format!(
                    "line {}: metric '{}' is not a number",
                    lineno + 1,
                    name
                ));
            }
        }
        lines += 1;
    }
    Ok(CheckSummary {
        events: lines,
        spans: 0,
    })
}

/// Check a health JSONL stream: every line parses as a
/// [`crate::health::HealthSnapshot`] with the core fields present, and
/// ticks strictly increase *per shard* (a sharded service interleaves one
/// snapshot per shard per tick into a single stream).
pub fn check_health(text: &str) -> Result<CheckSummary, String> {
    let mut last_tick: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
    let mut lines = 0usize;
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = json::parse(line).map_err(|e| format!("line {}: {}", lineno + 1, e))?;
        for key in [
            "tick",
            "epoch_generation",
            "epoch_age_ticks",
            "staleness_backlog",
            "budget_balance",
            "queries",
            "latency_p99_ns",
        ] {
            // Non-finite floats render as null (e.g. an unlimited budget's
            // balance), which reads back as 0 — present, just not a Num.
            match v.get(key) {
                Some(Json::Null) => {}
                Some(n) if n.as_f64().is_some() => {}
                _ => {
                    return Err(format!("line {}: missing numeric '{}'", lineno + 1, key));
                }
            }
        }
        let snap = crate::health::HealthSnapshot::from_json_line(line)
            .map_err(|e| format!("line {}: {}", lineno + 1, e))?;
        if let Some(&prev) = last_tick.get(&snap.shard) {
            if snap.tick <= prev {
                return Err(format!(
                    "line {}: non-monotone tick {} after {} (shard {})",
                    lineno + 1,
                    snap.tick,
                    prev,
                    snap.shard
                ));
            }
        }
        last_tick.insert(snap.shard, snap.tick);
        lines += 1;
    }
    Ok(CheckSummary {
        events: lines,
        spans: 0,
    })
}

/// What a successful check saw.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckSummary {
    /// Lines (JSONL), trace events (Chrome), or metrics (dump).
    pub events: usize,
    /// Spans among them (0 for metrics dumps).
    pub spans: usize,
}

fn field_num(v: &Json, key: &str, lineno: usize) -> Result<f64, String> {
    v.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("line {}: missing numeric field '{}'", lineno + 1, key))
}

fn field_str(v: &Json, key: &str, lineno: usize) -> Result<String, String> {
    v.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("line {}: missing string field '{}'", lineno + 1, key))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::{to_chrome, to_jsonl};
    use crate::trace::Tracer;

    fn sample() -> Vec<crate::trace::Event> {
        let t = Tracer::enabled();
        {
            let root = t.span("root");
            root.instant("tick", vec![]);
            let _c = root.child("child");
        }
        t.flush()
    }

    #[test]
    fn exported_jsonl_passes() {
        let s = check_jsonl(&to_jsonl(&sample())).expect("valid jsonl");
        assert_eq!(s.spans, 2);
        assert_eq!(s.events, 5);
    }

    #[test]
    fn exported_chrome_passes() {
        let s = check_chrome(&to_chrome(&sample())).expect("valid chrome trace");
        assert_eq!(s.spans, 2);
    }

    #[test]
    fn metrics_dump_passes() {
        let r = crate::metrics::Registry::new();
        r.counter("a").inc();
        r.latency("h").observe(5);
        let s = check_metrics(&r.snapshot().render_json()).expect("valid metrics");
        assert_eq!(s.events, 2);
    }

    #[test]
    fn corrupt_inputs_are_rejected() {
        assert!(check_jsonl("{\"seq\": 1}\n").is_err());
        assert!(check_chrome("{\"traceEvents\": [{\"ph\": \"Z\"}]}").is_err());
        assert!(check_metrics("[1, 2]").is_err());
    }

    #[test]
    fn latency_metrics_dump_passes() {
        let r = crate::metrics::Registry::new();
        r.latency("q.latency_ns").observe(1234);
        let s = check_metrics(&r.snapshot().render_json()).expect("valid metrics");
        assert_eq!(s.events, 1);
        // A latency object missing its quantiles is rejected.
        assert!(check_metrics("{\"m\": {\"count\": 1}}").is_err());
    }

    #[test]
    fn window_stream_checks() {
        let r = std::sync::Arc::new(crate::metrics::Registry::new());
        let c = r.counter("qps");
        let lat = r.latency("q.latency_ns");
        let w = crate::window::WindowedRegistry::new(std::sync::Arc::clone(&r));
        let mut text = String::new();
        for window in 1..=3u64 {
            c.add(window);
            lat.observe(1000 * window);
            text.push_str(&w.roll(window).to_json_line());
            text.push('\n');
        }
        let s = check_windows(&text).expect("valid window stream");
        assert_eq!(s.events, 3);
        assert!(check_windows("{\"no_window\": 1}\n").is_err());
        assert!(
            check_windows("{\"window\": 2}\n{\"window\": 1}\n").is_err(),
            "non-monotone windows must fail"
        );
        assert!(check_windows("{\"window\": 1, \"m\": \"str\"}\n").is_err());
    }

    #[test]
    fn health_stream_checks() {
        let mut a = crate::health::HealthSnapshot {
            tick: 1,
            queries: 10,
            latency_p99_ns: 500,
            ..Default::default()
        };
        let mut text = a.to_json_line();
        text.push('\n');
        a.tick = 2;
        text.push_str(&a.to_json_line());
        text.push('\n');
        let s = check_health(&text).expect("valid health stream");
        assert_eq!(s.events, 2);
        // Repeated tick fails; missing core field fails.
        text.push_str(&a.to_json_line());
        assert!(check_health(&text).is_err());
        assert!(check_health("{\"tick\": 1}\n").is_err());
    }
}
