//! A string is one shared, immutable cell (`Arc<str>`) from storage to the
//! client: a result row holds the stored cell itself, not a copy of it, and
//! because a write replaces a cell and never edits one, a result a client
//! still holds reads the same after any later write.
//!
//! * **zero copy** — every string a SELECT returns is `Arc::ptr_eq` to the
//!   cell stored in the table it came from, through `execute_plan` (plain
//!   projection, GROUP BY key, MIN/MAX) and through a 2-shard cluster's
//!   cross-shard fallback (owned table and the partitioned table's shard
//!   slices, read in place);
//! * **held results** — rows read before an UPDATE, a DELETE, an INSERT and
//!   a copy-on-write of the same table still hold their old values
//!   afterwards, and so does a database snapshot.

use executor::{run_statement, ExecOutput, StatementOutcome};
use optimizer::Optimizer;
use query::{bind_statement, parse_statement};
use serve::{Placement, ServeCluster, ServeConfig};
use stats::StatsCatalog;
use std::collections::HashMap;
use std::sync::Arc;
use storage::{ColumnDef, DataType, Database, PayloadRef, Schema, Value};

/// `big` (600 rows) and `small` (10 rows), each `(k INT, name VARCHAR)` with
/// `k` unique, so a result row names the stored row it was read from.
fn names_db() -> Database {
    let mut db = Database::new();
    for (table, rows) in [("big", 600i64), ("small", 10)] {
        let id = db
            .create_table(
                table,
                Schema::new(vec![
                    ColumnDef::new("k", DataType::Int),
                    ColumnDef::new("name", DataType::Str),
                ]),
            )
            .unwrap();
        for k in 0..rows {
            db.table_mut(id)
                .insert(vec![
                    Value::Int(k),
                    Value::Str(format!("{table}-{:03}", k % 97).into()),
                ])
                .unwrap();
        }
    }
    db
}

fn run(db: &mut Database, sql: &str) -> StatementOutcome {
    let stmt = bind_statement(db, &parse_statement(sql).unwrap()).unwrap();
    let catalog = StatsCatalog::new();
    run_statement(db, catalog.full_view(), &Optimizer::default(), &stmt).unwrap()
}

fn select(db: &mut Database, sql: &str) -> ExecOutput {
    match run(db, sql) {
        StatementOutcome::Query { output, .. } => output,
        StatementOutcome::Dml { .. } => panic!("{sql} is not a query"),
    }
}

/// The stored `name` cell of every row of `table`, by its key.
fn stored_names(db: &Database, table: &str, into: &mut HashMap<i64, Arc<str>>) {
    let t = db.table_by_name(table).unwrap();
    let (PayloadRef::Int(keys), PayloadRef::Str(names)) =
        (t.column(0).payload(), t.column(1).payload())
    else {
        panic!("{table} is (k INT, name VARCHAR)")
    };
    into.extend(keys.iter().copied().zip(names.iter().cloned()));
}

fn cell(v: &Value) -> &Arc<str> {
    match v {
        Value::Str(s) => s,
        other => panic!("expected a string, found {other:?}"),
    }
}

fn key(v: &Value) -> i64 {
    match v {
        Value::Int(k) => *k,
        other => panic!("expected a key, found {other:?}"),
    }
}

#[test]
fn a_returned_string_is_the_stored_cell() {
    let mut db = names_db();
    let (mut big, mut small) = (HashMap::new(), HashMap::new());
    stored_names(&db, "big", &mut big);
    stored_names(&db, "small", &mut small);

    // Plain projection, below a join.
    let out = select(
        &mut db,
        "SELECT b.k, b.name, s.k, s.name FROM big b, small s WHERE b.k = s.k",
    );
    assert_eq!(out.rows.len(), 10);
    for row in &out.rows {
        assert!(Arc::ptr_eq(cell(&row[1]), &big[&key(&row[0])]));
        assert!(Arc::ptr_eq(cell(&row[3]), &small[&key(&row[2])]));
    }

    // A group key and a MIN/MAX result are stored cells too: some row of
    // the table holds the very allocation.
    let out = select(
        &mut db,
        "SELECT name, MIN(name), MAX(name), COUNT(name) FROM big GROUP BY name",
    );
    assert_eq!(out.rows.len(), 97);
    for row in &out.rows {
        for v in &row[..3] {
            assert_eq!(v, &row[0]);
            assert!(
                big.values().any(|stored| Arc::ptr_eq(stored, cell(v))),
                "{v} was copied"
            );
        }
    }
}

#[test]
fn a_two_shard_fallback_result_shares_the_shards_cells() {
    let config = ServeConfig {
        shards: 2,
        partition_threshold: 100,
        ..ServeConfig::default()
    };
    let cluster = ServeCluster::start(names_db(), config).unwrap();
    assert_eq!(
        cluster.plan().placement_by_name("big").unwrap().placement,
        Placement::Partitioned
    );
    // What the shards store: `big` in two slices, `small` on its owner (the
    // other shard holds it empty).
    let (mut big, mut small) = (HashMap::new(), HashMap::new());
    for service in cluster.services() {
        let snapshot = service.snapshot();
        stored_names(&snapshot.db, "big", &mut big);
        stored_names(&snapshot.db, "small", &mut small);
    }
    assert_eq!((big.len(), small.len()), (600, 10));

    // A join of the partitioned table with an owned one takes the fallback:
    // it runs over the shards' slices of `big` and a snapshot of `small`.
    let client = cluster.client(1);
    let sql = "SELECT b.k, b.name, s.k, s.name FROM big b, small s WHERE b.k = s.k";
    for pass in 0..2 {
        let StatementOutcome::Query { output, .. } = client.run_sql(sql).unwrap() else {
            panic!("{sql} is a query")
        };
        assert_eq!(output.rows.len(), 10);
        for row in &output.rows {
            assert!(Arc::ptr_eq(cell(&row[1]), &big[&key(&row[0])]));
            assert!(Arc::ptr_eq(cell(&row[3]), &small[&key(&row[2])]));
        }
        // The second pass reads a slice copied by a write.
        if pass == 0 {
            client
                .run_sql("INSERT INTO big VALUES (9999, 'late')")
                .unwrap();
        }
    }
}

#[test]
fn a_held_result_survives_later_writes() {
    let mut db = names_db();
    let big = db.table_id("big").unwrap();
    let held = select(&mut db, "SELECT k, name FROM big WHERE k < 200 ORDER BY k");
    let mut snapshot = db.clone();
    // What the held rows read, copied out byte by byte.
    let read = |out: &ExecOutput| -> Vec<(i64, String)> {
        out.rows
            .iter()
            .map(|r| (key(&r[0]), cell(&r[1]).to_string()))
            .collect()
    };
    let before = read(&held);
    assert_eq!(before.len(), 200);
    assert_eq!(before[5], (5, "big-005".to_string()));

    // The first write to a table another `Database` shares is the
    // copy-on-write of its `Arc<Table>`.
    let updated = run(&mut db, "UPDATE big SET name = 'overwritten' WHERE k < 150");
    assert!(matches!(
        updated,
        StatementOutcome::Dml {
            rows_affected: 150,
            ..
        }
    ));
    run(&mut db, "DELETE FROM big WHERE k >= 100 AND k < 400");
    let more = names_db();
    let more = more.table_by_name("big").unwrap();
    for r in 0..more.row_count() {
        db.table_mut(big).insert(more.row_values(r)).unwrap();
    }
    let now = select(&mut db, "SELECT k, name FROM big WHERE k = 5");
    assert_eq!(
        now.rows,
        vec![
            vec![Value::Int(5), "overwritten".into()],
            vec![Value::Int(5), "big-005".into()],
        ]
    );

    assert_eq!(
        before,
        read(&held),
        "a held result changed under a later write"
    );
    let again = select(
        &mut snapshot,
        "SELECT k, name FROM big WHERE k < 200 ORDER BY k",
    );
    assert_eq!(
        again.rows, held.rows,
        "a snapshot changed under a later write"
    );
}
