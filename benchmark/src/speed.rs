//! The host-speed probe: a fixed kernel timed beside the measured work, and
//! the factor that takes a measured duration to the reference host speed.
//!
//! The benchmark runs on a few vCPUs of a shared host. Whatever shares a core
//! with them (a sibling hyperthread, the cache) changes how fast the same
//! instructions run, in plateaus of seconds to minutes and by up to 2x on the
//! dev box: one client's rounds read 125 ms, then 190 ms, then 150 ms, while
//! the other's move the other way. No median inside a 20 s run removes a
//! plateau as long as the run, and two sets of runs of the same code then
//! differ by more than any bound a regression check can use.
//!
//! So every client times this kernel between its blocks of statements (a
//! steady round, a stretch of the online stream, one `tune`), on the thread
//! and the core the statements ran on. The kernel is a small hash join and a
//! few column filters over arrays the size of the benchmark's tables, which
//! slows down with the statements (a dependent arithmetic loop does not move
//! with them at all, random reads over 16 MiB half as much). It allocates
//! nothing and uses `std` only, so neither the state of the heap nor a change
//! to the repository's crates can move it. A block's durations are multiplied
//! by `(REFERENCE_US / kernel time around the block) ^ SHARE`: what the block
//! would have taken had the host run the kernel at its reference speed. CPU
//! time is scaled by the kernel's CPU time, not its wall time: a core taken
//! away stretches only the second. The result file keeps the raw figures and
//! the probe readings beside the scaled ones.

use crate::sys::{median, num, object, ratio, thread_cpu_seconds};
use obsv::json::Json;
use std::time::Instant;

/// What one repetition of the kernel takes on the 2-vCPU dev box in its
/// usual state, in microseconds. Frozen: changing it rescales every timing.
pub const REFERENCE_US: f64 = 350.0;

/// How much of the kernel's slow-down the statements share, as an exponent.
/// Between a calm host and a busy one the kernel's time and a steady round's
/// time move together, the round's a little less: over six sets of ten runs of
/// `steady-simple`, some in calm and some in busy hours, the exponent that left
/// the least spread between runs lay between 0.7 and 1, and 0.85 was within
/// 7 % in all of them (no scaling: up to 23 %). Frozen like `REFERENCE_US`.
const SHARE: f64 = 0.85;

/// `lineitem` and `orders` at scale 0.005.
const ROWS: usize = 30_000;
const KEYS: u64 = 7_500;
const FILTERS: u64 = 10;
/// Repetitions behind one reading: the median of them, so that one
/// repetition hit by an interrupt or a waking thread does not count.
const REPS: usize = 7;

/// Slots of the join's open-addressing table, a power of two above `KEYS`.
const SLOTS: usize = 16_384;
const EMPTY: u64 = u64::MAX;

fn mix(i: u64) -> u64 {
    i.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

pub struct Probe {
    keys: Vec<u64>,
    column: Vec<f64>,
}

/// One thread's buffers for the kernel: it allocates nothing while it is
/// timed, so the state of the heap after a query does not show in a reading.
struct Scratch {
    table: Vec<(u64, u32)>,
    pairs: Vec<(u32, u32)>,
    rows: Vec<u32>,
}

impl Scratch {
    fn new() -> Scratch {
        Scratch {
            table: vec![(EMPTY, 0); SLOTS],
            pairs: Vec::with_capacity(ROWS),
            rows: Vec::with_capacity(ROWS),
        }
    }
}

impl Probe {
    pub fn new() -> Probe {
        Probe {
            keys: (0..ROWS as u64).map(|i| mix(i) % KEYS).collect(),
            column: (0..ROWS as u64).map(|i| (mix(i) >> 40) as f64).collect(),
        }
    }

    /// Build a hash table on `KEYS` keys, probe it with `ROWS` and
    /// materialise the pairs; then `FILTERS` range filters over a column into
    /// a selection vector.
    fn kernel(&self, scratch: &mut Scratch) -> usize {
        let slot = |key: u64| (mix(key) >> 50) as usize;
        scratch.table.fill((EMPTY, 0));
        for k in 0..KEYS {
            let mut at = slot(k);
            while scratch.table[at].0 != EMPTY {
                at = (at + 1) % SLOTS;
            }
            scratch.table[at] = (k, k as u32);
        }
        scratch.pairs.clear();
        for (row, &key) in self.keys.iter().enumerate() {
            let mut at = slot(key);
            while scratch.table[at].0 != EMPTY {
                if scratch.table[at].0 == key {
                    scratch.pairs.push((row as u32, scratch.table[at].1));
                }
                at = (at + 1) % SLOTS;
            }
        }
        let mut selected = 0;
        for f in 0..FILTERS {
            let low = (f * 1_000_000) as f64;
            scratch.rows.clear();
            for (row, &v) in self.column.iter().enumerate() {
                if v > low && v < low + 4.0e6 {
                    scratch.rows.push(row as u32);
                }
            }
            selected += scratch.rows.len();
        }
        scratch.pairs.len() + selected
    }

    /// What one repetition takes right now, on this thread: the medians of
    /// its wall and of its CPU microseconds.
    fn read(&self, scratch: &mut Scratch) -> Reading {
        let (mut wall, mut cpu) = ([0.0; REPS], [0.0; REPS]);
        for (wall, cpu) in wall.iter_mut().zip(&mut cpu) {
            let (t, c) = (Instant::now(), thread_cpu_seconds());
            std::hint::black_box(self.kernel(scratch));
            *cpu = (thread_cpu_seconds() - c) * 1e6;
            *wall = t.elapsed().as_secs_f64() * 1e6;
        }
        let wall_us = median(&mut wall);
        let cpu_us = median(&mut cpu);
        Reading {
            wall_us,
            // No thread clock: the wall clock is the best guess left.
            cpu_us: if cpu_us > 0.0 { cpu_us } else { wall_us },
        }
    }
}

#[derive(Clone, Copy, Default)]
struct Reading {
    wall_us: f64,
    cpu_us: f64,
}

/// What takes a stretch of work to the reference host speed: its wall-clock
/// durations times `wall`, its CPU time times `cpu`. The two differ when the
/// host takes the core away (wall time passes, CPU time does not) and agree
/// when the core itself runs slower.
#[derive(Clone, Copy)]
pub struct Factors {
    pub wall: f64,
    pub cpu: f64,
}

impl Factors {
    pub const NONE: Factors = Factors {
        wall: 1.0,
        cpu: 1.0,
    };
}

/// One thread's probe readings, taken between the stretches of work it
/// measures.
pub struct Meter<'a> {
    probe: &'a Probe,
    scratch: Scratch,
    last: Reading,
    pub readings_us: Vec<f64>,
    /// CPU time the readings themselves took, which is not the system's.
    pub spent_s: f64,
}

impl<'a> Meter<'a> {
    /// Takes the first reading, after one that only warms the thread up.
    pub fn start(probe: &'a Probe) -> Meter<'a> {
        let mut meter = Meter {
            probe,
            scratch: Scratch::new(),
            last: Reading::default(),
            readings_us: Vec::new(),
            spent_s: 0.0,
        };
        meter.read();
        meter.readings_us.clear();
        meter.read();
        meter
    }

    fn read(&mut self) -> Reading {
        let c = thread_cpu_seconds();
        let reading = self.probe.read(&mut self.scratch);
        self.spent_s += thread_cpu_seconds() - c;
        self.readings_us.push(reading.wall_us);
        self.last = reading;
        reading
    }

    /// Read again and return the factors for what ran since the previous
    /// reading.
    pub fn lap(&mut self) -> Factors {
        let before = self.last;
        let after = self.read();
        let factor =
            |before: f64, after: f64| ratio(REFERENCE_US, (before + after) / 2.0).powf(SHARE);
        Factors {
            wall: factor(before.wall_us, after.wall_us),
            cpu: factor(before.cpu_us, after.cpu_us),
        }
    }
}

/// A sum of durations, raw and at reference speed.
#[derive(Default, Clone, Copy)]
pub struct Scaled {
    pub raw_s: f64,
    pub reference_s: f64,
}

impl Scaled {
    pub fn of(seconds: f64, to_reference: f64) -> Scaled {
        Scaled {
            raw_s: seconds,
            reference_s: seconds * to_reference,
        }
    }

    pub fn add(&mut self, seconds: f64, to_reference: f64) {
        self.raw_s += seconds;
        self.reference_s += seconds * to_reference;
    }

    /// Medians of the durations at reference speed and of the raw ones.
    pub fn medians(values: &[Scaled]) -> Scaled {
        Scaled {
            raw_s: median(&mut values.iter().map(|v| v.raw_s).collect::<Vec<_>>()),
            reference_s: median(&mut values.iter().map(|v| v.reference_s).collect::<Vec<_>>()),
        }
    }

    /// The duration-weighted mean factor.
    pub fn factor(&self) -> f64 {
        ratio(self.reference_s, self.raw_s)
    }
}

/// The `host_speed` entry of a result file: the readings behind the factors,
/// the mean factors of the measured phase, and the figures as the clocks read
/// them, before scaling.
pub fn detail(meters: &[&Meter], wall: Scaled, cpu: Scaled, raw: Vec<(&'static str, f64)>) -> Json {
    let mut readings: Vec<f64> = meters
        .iter()
        .flat_map(|m| m.readings_us.iter().copied())
        .collect();
    let count = readings.len();
    let mid = median(&mut readings);
    object(vec![
        ("reference_us", num(REFERENCE_US)),
        ("readings", num(count as f64)),
        (
            "reading_min_us",
            num(readings.first().copied().unwrap_or(0.0)),
        ),
        ("reading_p50_us", num(mid)),
        (
            "reading_max_us",
            num(readings.last().copied().unwrap_or(0.0)),
        ),
        ("mean_wall_factor", num(wall.factor())),
        ("mean_cpu_factor", num(cpu.factor())),
        (
            "raw",
            object(raw.into_iter().map(|(n, v)| (n, num(v))).collect()),
        ),
    ])
}
