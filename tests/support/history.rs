//! A single-writer history check for the sharded cluster: the cluster must
//! answer every read as one unsharded database would have at some instant
//! between the read's call and its return.
//!
//! [`run`] starts a two-shard [`ServeCluster`] over [`database`] (`big`
//! hash-partitioned, `mid` and `small` owned). One writer thread applies a
//! seeded sequence of writes ([`writes`]: broadcast UPDATE and DELETE on
//! `big`, INSERT into `big`, UPDATE of the owned `mid`), one after another,
//! while reader threads send seeded SELECTs of every route class
//! ([`reads`]: single-shard, scatter and fallback). Each read records the
//! writes completed before it was called and the writes started before it
//! returned.
//!
//! [`check`] then replays the writes on one unsharded `Database`. A read
//! passes if its rows equal the model's rows after some prefix `k` of the
//! writes, `k` between those two counts: compared as multisets, floats
//! within a relative 1e-9 (a sum over two shards adds in another order).
//! With one writer the writes are totally ordered, so this is the whole of
//! linearizability; several writers need a search over their orders, which
//! this check does not make.

use autod::AutodConfig;
use executor::{run_statement, StatementOutcome};
use optimizer::Optimizer;
use query::{bind_statement, parse_statement};
use serve::{ServeCluster, ServeConfig};
use stats::StatsCatalog;
use std::cmp::Ordering as CmpOrdering;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Barrier;
use storage::{ColumnDef, DataType, Database, Schema, Value};

/// Writes per run.
pub const WRITES: usize = 100;
/// Reader threads, and the SELECTs in each one's list: a reader sends its
/// list once, and then again from the top until the writer is done.
pub const READERS: usize = 2;
pub const READS: usize = 40;

/// `big` (600 rows), `mid` (80) and `small` (10), each `(k INT, v INT)`
/// with `k` unique; `v = k % 7`.
pub fn database() -> Database {
    let mut db = Database::new();
    for (name, rows) in [("big", 600i64), ("mid", 80), ("small", 10)] {
        let id = db
            .create_table(
                name,
                Schema::new(vec![
                    ColumnDef::new("k", DataType::Int),
                    ColumnDef::new("v", DataType::Int),
                ]),
            )
            .unwrap();
        for k in 0..rows {
            db.table_mut(id)
                .insert(vec![Value::Int(k), Value::Int(k % 7)])
                .unwrap();
        }
    }
    db
}

/// The cluster [`run`] drives: `big` partitioned over two shards.
pub fn config() -> ServeConfig {
    ServeConfig {
        shards: 2,
        partition_threshold: 100,
        autod: AutodConfig::default(),
    }
}

/// A seeded splitmix64 stream.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D1_049B_B133_11EB);
        (z ^ (z >> 31)) % n
    }
}

/// The writer's statements for `seed`.
pub fn writes(seed: u64) -> Vec<String> {
    let mut rng = Rng::new(seed);
    (0..WRITES)
        .map(|i| {
            let (k, v) = (rng.below(700), rng.below(7));
            match rng.below(4) {
                0 => format!("UPDATE big SET v = {v} WHERE k >= {k}"),
                1 => format!("DELETE FROM big WHERE k >= {k} AND k < {}", k + 5),
                2 => format!("INSERT INTO big VALUES ({}, {v})", 1000 + i),
                _ => format!("UPDATE mid SET v = {v} WHERE k < {}", k % 80),
            }
        })
        .collect()
}

/// The SELECTs reader `reader` sends for `seed`: two single-shard (on
/// `mid`), two scatter and two fallback shapes.
pub fn reads(seed: u64, reader: usize) -> Vec<String> {
    let mut rng = Rng::new(seed ^ ((reader as u64 + 1) << 32));
    (0..READS)
        .map(|_| {
            let (k, v) = (rng.below(700), rng.below(7));
            match rng.below(6) {
                0 => format!("SELECT k, v FROM mid WHERE v = {v}"),
                1 => format!("SELECT COUNT(*), AVG(v) FROM mid WHERE k < {}", k % 80),
                2 => format!("SELECT k, v FROM big WHERE v = {v}"),
                3 => format!("SELECT k FROM big WHERE k < {k}"),
                4 => "SELECT v, COUNT(*), AVG(k) FROM big GROUP BY v".to_string(),
                _ => format!("SELECT b.k, m.v FROM big b, mid m WHERE b.k = m.k AND b.v = {v}"),
            }
        })
        .collect()
}

/// One read as the cluster answered it.
#[derive(Debug)]
pub struct Observed {
    pub sql: String,
    /// Writes completed before the read was called.
    pub after: usize,
    /// Writes started before the read returned.
    pub before: usize,
    pub rows: Vec<Vec<Value>>,
}

/// Drive a fresh cluster through `seed`'s history; returns every read.
pub fn run(seed: u64) -> Vec<Observed> {
    let cluster = ServeCluster::start(database(), config()).unwrap();
    let writes = writes(seed);
    let (started, completed) = (AtomicUsize::new(0), AtomicUsize::new(0));
    let writing = AtomicBool::new(true);
    let go = Barrier::new(READERS + 1);
    std::thread::scope(|scope| {
        let (writer, writes, started, completed, writing, go) = (
            cluster.client(1),
            &writes,
            &started,
            &completed,
            &writing,
            &go,
        );
        scope.spawn(move || {
            go.wait();
            for sql in writes {
                started.fetch_add(1, Ordering::SeqCst);
                let outcome = writer.run_sql(sql);
                completed.fetch_add(1, Ordering::SeqCst);
                if outcome.is_err() {
                    break;
                }
            }
            writing.store(false, Ordering::SeqCst);
        });
        let readers: Vec<_> = (0..READERS)
            .map(|r| {
                let client = cluster.client(r as u64 + 2);
                let reads = reads(seed, r);
                scope.spawn(move || {
                    go.wait();
                    let mut seen = Vec::new();
                    let once = reads.len();
                    let cycle = reads.iter().cycle().enumerate();
                    for (_, sql) in
                        cycle.take_while(|&(i, _)| i < once || writing.load(Ordering::SeqCst))
                    {
                        let after = completed.load(Ordering::SeqCst);
                        let outcome = client.run_sql(sql);
                        let before = started.load(Ordering::SeqCst);
                        let StatementOutcome::Query { output, .. } = outcome.unwrap() else {
                            panic!("{sql} is a query");
                        };
                        seen.push(Observed {
                            sql: sql.clone(),
                            after,
                            before,
                            rows: output.rows,
                        });
                    }
                    seen
                })
            })
            .collect();
        readers
            .into_iter()
            .flat_map(|r| r.join().unwrap())
            .collect()
    })
}

/// Rows sorted by `Value::total_cmp`, column by column.
fn sorted(mut rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
    rows.sort_by(|a, b| {
        a.iter()
            .zip(b)
            .map(|(x, y)| x.total_cmp(y))
            .find(|o| o.is_ne())
            .unwrap_or(CmpOrdering::Equal)
    });
    rows
}

/// Equal rows, floats within a relative 1e-9.
fn same_rows(a: &[Vec<Value>], b: &[Vec<Value>]) -> bool {
    let close = |x: &Value, y: &Value| match (x, y) {
        (Value::Float(x), Value::Float(y)) => (x - y).abs() <= 1e-9 * x.abs().max(y.abs()),
        _ => x == y,
    };
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(r, s)| r.len() == s.len() && r.iter().zip(s).all(|(x, y)| close(x, y)))
}

/// Run `sql` on `db` as an unsharded database would.
fn execute(db: &mut Database, sql: &str) -> StatementOutcome {
    let bound = bind_statement(db, &parse_statement(sql).unwrap()).unwrap();
    let catalog = StatsCatalog::new();
    run_statement(db, catalog.full_view(), &Optimizer::default(), &bound).unwrap()
}

/// Check every read of `seed`'s history against the unsharded model (module
/// docs); the error names the first read no prefix explains.
pub fn check(seed: u64, observed: Vec<Observed>) -> Result<(), String> {
    // The model after each prefix of the writes: a clone shares every table
    // a later write does not touch.
    let mut states = vec![database()];
    for sql in writes(seed) {
        let mut next = states[states.len() - 1].clone();
        execute(&mut next, &sql);
        states.push(next);
    }
    for read in observed {
        let rows = sorted(read.rows);
        let explained = (read.after..=read.before.min(WRITES)).any(|k| {
            let StatementOutcome::Query { output, .. } = execute(&mut states[k].clone(), &read.sql)
            else {
                return false;
            };
            same_rows(&rows, &sorted(output.rows))
        });
        if !explained {
            return Err(format!(
                "seed {seed}: {} returned {} rows that no prefix of writes {}..={} gives",
                read.sql,
                rows.len(),
                read.after,
                read.before
            ));
        }
    }
    Ok(())
}
