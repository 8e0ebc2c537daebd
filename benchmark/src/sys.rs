//! Measurement plumbing: order statistics, `/proc` readers, JSON output and
//! the run manifest.

use obsv::json::Json;
use std::collections::BTreeMap;
use std::process::Command;

/// Nearest-rank percentile of an ascending slice; 0 when it is empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sort(values: &mut [f64]) {
    values.sort_by(f64::total_cmp);
}

/// Median of the values (sorts them); 0 when there are none.
pub fn median(values: &mut [f64]) -> f64 {
    sort(values);
    percentile(values, 50.0)
}

pub fn pct(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        100.0 * part / whole
    } else {
        0.0
    }
}

pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Process CPU seconds so far, user plus system, all threads (the tuning
/// daemons too): fields 14 and 15 of `/proc/self/stat`, in USER_HZ ticks.
pub fn cpu_seconds() -> f64 {
    // USER_HZ is 100 on every Linux ABI; std has no sysconf to ask.
    const USER_HZ: f64 = 100.0;
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may hold spaces; fields resume after ')'.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    // `after` starts at field 3, so utime (14) is index 11, stime (15) is 12.
    match (ticks(11), ticks(12)) {
        (Some(utime), Some(stime)) => (utime + stime) / USER_HZ,
        _ => 0.0,
    }
}

/// CPU seconds the calling thread has used so far; 0 when the clock is
/// missing. `/proc/thread-self/schedstat` holds the same figure but only as of
/// the last scheduler tick, too coarse for a millisecond of work.
pub fn thread_cpu_seconds() -> f64 {
    #[repr(C)]
    struct Timespec {
        seconds: i64,
        nanoseconds: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut now = Timespec {
        seconds: 0,
        nanoseconds: 0,
    };
    // SAFETY: `now` is a valid `struct timespec` of 64-bit Linux, the only
    // platform whose `/proc` this file reads, and the call writes nothing else.
    if unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut now) } != 0 {
        return 0.0;
    }
    now.seconds as f64 + now.nanoseconds as f64 / 1e9
}

/// Peak resident set so far (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn command_line(program: &str, args: &[&str]) -> String {
    // A checkout that is not a git repository must not make git look for one
    // in the directories above it.
    let above = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(|p| p.to_path_buf()));
    Command::new(program)
        .args(args)
        .env("GIT_CEILING_DIRECTORIES", above.unwrap_or_default())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn env(name: &str) -> Json {
    Json::Str(std::env::var(name).unwrap_or_else(|_| "unset".to_string()))
}

/// Where and with what the run was made; goes into every result file.
pub fn manifest() -> Vec<(&'static str, Json)> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        (
            "git_commit",
            Json::Str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", Json::Str(command_line("rustc", &["--version"]))),
        ("nproc", Json::Num(nproc as f64)),
        // `run.sh` sets them; a run without them is a different benchmark.
        ("malloc_trim_threshold", env("MALLOC_TRIM_THRESHOLD_")),
        ("malloc_mmap_threshold", env("MALLOC_MMAP_THRESHOLD_")),
    ]
}

pub fn object(fields: Vec<(&str, Json)>) -> Json {
    Json::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

pub fn num(v: f64) -> Json {
    // An empty f64 sum is -0.0; adding 0.0 makes it print as 0.
    Json::Num(v + 0.0)
}

/// `{"name": {"value": v, "unit": u}, ...}` — the contract's metric object.
pub fn metrics_object(values: &BTreeMap<String, f64>, units: &[(String, &str)]) -> Json {
    Json::Object(
        units
            .iter()
            .map(|(name, unit)| {
                let value = values.get(name).copied().unwrap_or(0.0);
                let entry = object(vec![
                    ("value", num(value)),
                    ("unit", Json::Str(unit.to_string())),
                ]);
                (name.clone(), entry)
            })
            .collect(),
    )
}

/// Render on one line. Numbers print with every digit `f64` holds (Rust's
/// shortest round-trip form), so equal text means equal bits.
pub fn render(json: &Json) -> String {
    match json {
        Json::Null => "null".to_string(),
        Json::Bool(b) => b.to_string(),
        Json::Num(v) if v.is_finite() => format!("{v}"),
        Json::Num(_) => "null".to_string(),
        Json::Str(s) => format!("\"{}\"", obsv::export::json_escape(s)),
        Json::Array(items) => {
            let parts: Vec<String> = items.iter().map(render).collect();
            format!("[{}]", parts.join(", "))
        }
        Json::Object(map) => {
            let parts: Vec<String> = map
                .iter()
                .map(|(k, v)| format!("\"{}\": {}", obsv::export::json_escape(k), render(v)))
                .collect();
            format!("{{{}}}", parts.join(", "))
        }
    }
}
