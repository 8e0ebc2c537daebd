//! The TPC-D schema and skewed data generation.
//!
//! The paper's experiments (§8.1) run on TPC-D databases whose columns are
//! drawn from Zipfian distributions: `TPCD_0` (z = 0, the benchmark's
//! uniform requirement), `TPCD_2`, `TPCD_4`, and `TPCD_MIX` (each column a
//! random z in [0, 4]). This module rebuilds that generator over the full
//! 8-table schema, plus the "tuned database with 13 indexes" configuration
//! of the intro experiment.
//!
//! Primary keys stay sequential (they must remain keys for joins to make
//! sense); foreign keys and attribute columns are drawn Zipf(z) over their
//! domains, which is where skew affects selectivity estimation.

use crate::zipf::Zipf;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::{self, Write};
use storage::{ColumnDef, DataType, Database, Schema, TableId, Value};

/// How skew is assigned to columns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ZipfSpec {
    /// Every column uses the same z.
    Fixed(f64),
    /// Each column gets an independent random z in [0, 4] (the paper's
    /// "mixed data distributions" instance).
    Mixed,
}

impl ZipfSpec {
    fn z_for(&self, rng: &mut StdRng) -> f64 {
        match self {
            ZipfSpec::Fixed(z) => *z,
            ZipfSpec::Mixed => rng.gen_range(0.0..=4.0),
        }
    }

    /// Database name suffix used in the paper's charts.
    pub fn label(&self) -> String {
        match self {
            ZipfSpec::Fixed(z) => format!("TPCD_{}", *z as i64),
            ZipfSpec::Mixed => "TPCD_MIX".to_string(),
        }
    }
}

/// Generation parameters.
#[derive(Debug, Clone, Copy)]
pub struct TpcdConfig {
    /// TPC-D scale factor. 1.0 would be the benchmark's 6M-row lineitem;
    /// experiments here default to small fractions (results are ratios).
    pub scale: f64,
    pub zipf: ZipfSpec,
    pub seed: u64,
}

impl Default for TpcdConfig {
    fn default() -> Self {
        TpcdConfig {
            scale: 0.005,
            zipf: ZipfSpec::Fixed(0.0),
            seed: 42,
        }
    }
}

impl TpcdConfig {
    pub fn rows(&self, base: usize) -> usize {
        ((base as f64 * self.scale).round() as usize).max(5)
    }
}

const DATE_LO: i32 = 8035; // 1992-01-01 as days since epoch
const DATE_DAYS: usize = 2405; // ~ through 1998-08

struct Gen {
    rng: StdRng,
    zipf_rng: StdRng,
    spec: ZipfSpec,
}

impl Gen {
    /// A Zipf sampler over `n` ranks with this database's skew policy;
    /// the z for each call site is drawn once (per column).
    fn zipf(&mut self, n: usize) -> Zipf {
        let z = self.spec.z_for(&mut self.zipf_rng);
        Zipf::new(n, z)
    }

    /// Zipf sampler for foreign-key columns, with skew capped at z = 1.
    ///
    /// Substitution note (see DESIGN.md): the paper's generator skews every
    /// column up to z = 4. Full skew on *join keys* makes random many-to-many
    /// join results grow quadratically — tolerable on the paper's server
    /// harness, not in a deterministic interpreter that must run thousands of
    /// queries in seconds. Attribute columns (where skew drives selectivity
    /// estimation quality, the paper's actual subject) keep the full z.
    fn zipf_fk(&mut self, n: usize) -> Zipf {
        let z = self.spec.z_for(&mut self.zipf_rng).min(1.0);
        Zipf::new(n, z)
    }
}

/// Column generators: each yields one value per row.
enum ColGen {
    /// Sequential 0..n primary key.
    Serial,
    /// Zipfian over 0..n mapped through a function.
    ZipfInt {
        zipf: Zipf,
        map: fn(usize) -> i64,
    },
    ZipfChoice {
        zipf: Zipf,
        choices: Vec<String>,
    },
    ZipfFloat {
        zipf: Zipf,
        lo: f64,
        step: f64,
    },
    ZipfDate {
        zipf: Zipf,
    },
    /// Zipfian foreign key into 0..parent_rows.
    ZipfFk {
        zipf: Zipf,
    },
    /// `row % n` — spreads a foreign key evenly so composite keys built on
    /// top of it stay (nearly) unique, like TPC-D's partsupp primary key.
    SerialMod(usize),
    /// Label column derived from the row number ("name#<row>").
    Label(&'static str),
}

/// A formatted string cell at one allocation: the text is written into
/// `buf`, which the caller reuses from cell to cell, and copied once into
/// its shared cell (`format!(..).into()` would allocate the `String` and
/// then the cell).
fn label(buf: &mut String, text: fmt::Arguments<'_>) -> Value {
    buf.clear();
    buf.write_fmt(text)
        .expect("writing to a String cannot fail");
    Value::Str(buf.as_str().into())
}

impl ColGen {
    fn value(&self, row: usize, rng: &mut StdRng, buf: &mut String) -> Value {
        match self {
            ColGen::Serial => Value::Int(row as i64),
            ColGen::ZipfInt { zipf, map } => Value::Int(map(zipf.sample(rng))),
            // A cell of its own per row, not one shared by every row that
            // drew the same choice: see `storage::ColumnData` on interning.
            ColGen::ZipfChoice { zipf, choices } => {
                Value::Str(choices[zipf.sample(rng) % choices.len()].as_str().into())
            }
            ColGen::ZipfFloat { zipf, lo, step } => {
                Value::Float(lo + step * zipf.sample(rng) as f64)
            }
            ColGen::ZipfDate { zipf } => Value::Date(DATE_LO + zipf.sample(rng) as i32),
            ColGen::ZipfFk { zipf } => Value::Int(zipf.sample(rng) as i64),
            ColGen::SerialMod(n) => Value::Int((row % n) as i64),
            ColGen::Label(prefix) => label(buf, format_args!("{prefix}#{row}")),
        }
    }
}

fn fill_table(db: &mut Database, id: TableId, rows: usize, cols: Vec<ColGen>, rng: &mut StdRng) {
    // One text buffer and one row buffer for the whole table, and the
    // copy-on-write checks (the table's, each column's) once, not per row.
    let mut buf = String::new();
    let mut values = Vec::with_capacity(cols.len());
    let mut table = db.table_mut(id).appender();
    for row in 0..rows {
        values.extend(cols.iter().map(|c| c.value(row, rng, &mut buf)));
        table
            .insert_from(&mut values)
            .expect("generated row is valid");
    }
    // Bulk load: zero the counter so the generated data is the staleness
    // baseline, not "everything was just modified".
    db.table_mut(id).reset_modification_counter();
}

fn choices(items: &[&str]) -> Vec<String> {
    items.iter().map(|s| s.to_string()).collect()
}

/// Build a skewed TPC-D database.
pub fn build_tpcd(config: &TpcdConfig) -> Database {
    let mut db = Database::new();
    let mut g = Gen {
        rng: StdRng::seed_from_u64(config.seed),
        zipf_rng: StdRng::seed_from_u64(config.seed ^ 0x5eed),
        spec: config.zipf,
    };

    let n_region = 5;
    let n_nation = 25;
    let n_supplier = config.rows(10_000).max(10);
    let n_part = config.rows(200_000).max(50);
    let n_partsupp = config.rows(800_000).max(100);
    let n_customer = config.rows(150_000).max(30);
    let n_orders = config.rows(1_500_000).max(100);
    let n_lineitem = config.rows(6_000_000).max(200);

    // region
    let region = db
        .create_table(
            "region",
            Schema::new(vec![
                ColumnDef::new("r_regionkey", DataType::Int),
                ColumnDef::new("r_name", DataType::Str),
            ]),
        )
        .unwrap();
    {
        let names = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"];
        for (i, n) in names.iter().enumerate() {
            db.table_mut(region)
                .insert(vec![Value::Int(i as i64), Value::Str((*n).into())])
                .unwrap();
        }
        db.table_mut(region).reset_modification_counter();
    }

    // nation
    let nation = db
        .create_table(
            "nation",
            Schema::new(vec![
                ColumnDef::new("n_nationkey", DataType::Int),
                ColumnDef::new("n_name", DataType::Str),
                ColumnDef::new("n_regionkey", DataType::Int),
            ]),
        )
        .unwrap();
    {
        let fk = g.zipf_fk(n_region);
        let mut cols = Vec::new();
        let mut buf = String::new();
        for i in 0..n_nation {
            cols.push(vec![
                Value::Int(i as i64),
                label(&mut buf, format_args!("NATION{i:02}")),
                Value::Int(fk.sample(&mut g.rng) as i64),
            ]);
        }
        db.table_mut(nation).insert_many(cols).unwrap();
        db.table_mut(nation).reset_modification_counter();
    }

    // supplier
    let supplier = db
        .create_table(
            "supplier",
            Schema::new(vec![
                ColumnDef::new("s_suppkey", DataType::Int),
                ColumnDef::new("s_name", DataType::Str),
                ColumnDef::new("s_nationkey", DataType::Int),
                ColumnDef::new("s_acctbal", DataType::Float),
            ]),
        )
        .unwrap();
    {
        let cols = vec![
            ColGen::Serial,
            ColGen::Label("Supplier"),
            ColGen::ZipfFk {
                zipf: g.zipf_fk(n_nation),
            },
            ColGen::ZipfFloat {
                zipf: g.zipf(1000),
                lo: -999.0,
                step: 11.0,
            },
        ];
        fill_table(&mut db, supplier, n_supplier, cols, &mut g.rng);
    }

    // part
    let part = db
        .create_table(
            "part",
            Schema::new(vec![
                ColumnDef::new("p_partkey", DataType::Int),
                ColumnDef::new("p_name", DataType::Str),
                ColumnDef::new("p_brand", DataType::Str),
                ColumnDef::new("p_type", DataType::Str),
                ColumnDef::new("p_size", DataType::Int),
                ColumnDef::new("p_container", DataType::Str),
                ColumnDef::new("p_retailprice", DataType::Float),
            ]),
        )
        .unwrap();
    {
        let brands: Vec<String> = (1..=25).map(|i| format!("Brand#{i}")).collect();
        let types = choices(&[
            "STANDARD ANODIZED TIN",
            "SMALL PLATED COPPER",
            "MEDIUM BURNISHED NICKEL",
            "LARGE BRUSHED STEEL",
            "ECONOMY POLISHED BRASS",
            "PROMO BURNISHED COPPER",
        ]);
        let containers = choices(&["SM CASE", "MED BOX", "LG DRUM", "JUMBO PKG", "WRAP JAR"]);
        let cols = vec![
            ColGen::Serial,
            ColGen::Label("part"),
            ColGen::ZipfChoice {
                zipf: g.zipf(25),
                choices: brands,
            },
            ColGen::ZipfChoice {
                zipf: g.zipf(6),
                choices: types,
            },
            ColGen::ZipfInt {
                zipf: g.zipf(50),
                map: |r| r as i64 + 1,
            },
            ColGen::ZipfChoice {
                zipf: g.zipf(5),
                choices: containers,
            },
            ColGen::ZipfFloat {
                zipf: g.zipf(1000),
                lo: 900.0,
                step: 1.1,
            },
        ];
        fill_table(&mut db, part, n_part, cols, &mut g.rng);
    }

    // partsupp
    let partsupp = db
        .create_table(
            "partsupp",
            Schema::new(vec![
                ColumnDef::new("ps_partkey", DataType::Int),
                ColumnDef::new("ps_suppkey", DataType::Int),
                ColumnDef::new("ps_availqty", DataType::Int),
                ColumnDef::new("ps_supplycost", DataType::Float),
            ]),
        )
        .unwrap();
    {
        // (ps_partkey, ps_suppkey) approximates the TPC-D primary key: the
        // part key spreads evenly and only the supplier choice is skewed, so
        // pair joins against lineitem keep bounded fan-out.
        let cols = vec![
            ColGen::SerialMod(n_part),
            ColGen::ZipfFk {
                zipf: g.zipf_fk(n_supplier),
            },
            ColGen::ZipfInt {
                zipf: g.zipf(10_000),
                map: |r| r as i64,
            },
            ColGen::ZipfFloat {
                zipf: g.zipf(1000),
                lo: 1.0,
                step: 1.0,
            },
        ];
        fill_table(&mut db, partsupp, n_partsupp, cols, &mut g.rng);
    }

    // customer
    let customer = db
        .create_table(
            "customer",
            Schema::new(vec![
                ColumnDef::new("c_custkey", DataType::Int),
                ColumnDef::new("c_name", DataType::Str),
                ColumnDef::new("c_nationkey", DataType::Int),
                ColumnDef::new("c_acctbal", DataType::Float),
                ColumnDef::new("c_mktsegment", DataType::Str),
            ]),
        )
        .unwrap();
    {
        let segments = choices(&[
            "AUTOMOBILE",
            "BUILDING",
            "FURNITURE",
            "MACHINERY",
            "HOUSEHOLD",
        ]);
        let cols = vec![
            ColGen::Serial,
            ColGen::Label("Customer"),
            ColGen::ZipfFk {
                zipf: g.zipf_fk(n_nation),
            },
            ColGen::ZipfFloat {
                zipf: g.zipf(1000),
                lo: -999.0,
                step: 11.0,
            },
            ColGen::ZipfChoice {
                zipf: g.zipf(5),
                choices: segments,
            },
        ];
        fill_table(&mut db, customer, n_customer, cols, &mut g.rng);
    }

    // orders
    let orders = db
        .create_table(
            "orders",
            Schema::new(vec![
                ColumnDef::new("o_orderkey", DataType::Int),
                ColumnDef::new("o_custkey", DataType::Int),
                ColumnDef::new("o_orderstatus", DataType::Str),
                ColumnDef::new("o_totalprice", DataType::Float),
                ColumnDef::new("o_orderdate", DataType::Date),
                ColumnDef::new("o_orderpriority", DataType::Str),
                ColumnDef::new("o_shippriority", DataType::Int),
            ]),
        )
        .unwrap();
    {
        let priorities = choices(&["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"]);
        let cols = vec![
            ColGen::Serial,
            ColGen::ZipfFk {
                zipf: g.zipf_fk(n_customer),
            },
            ColGen::ZipfChoice {
                zipf: g.zipf(3),
                choices: choices(&["F", "O", "P"]),
            },
            ColGen::ZipfFloat {
                zipf: g.zipf(10_000),
                lo: 850.0,
                step: 45.0,
            },
            ColGen::ZipfDate {
                zipf: g.zipf(DATE_DAYS),
            },
            ColGen::ZipfChoice {
                zipf: g.zipf(5),
                choices: priorities,
            },
            ColGen::ZipfInt {
                zipf: g.zipf(2),
                map: |r| r as i64,
            },
        ];
        fill_table(&mut db, orders, n_orders, cols, &mut g.rng);
    }

    // lineitem
    let lineitem = db
        .create_table(
            "lineitem",
            Schema::new(vec![
                ColumnDef::new("l_orderkey", DataType::Int),
                ColumnDef::new("l_partkey", DataType::Int),
                ColumnDef::new("l_suppkey", DataType::Int),
                ColumnDef::new("l_linenumber", DataType::Int),
                ColumnDef::new("l_quantity", DataType::Float),
                ColumnDef::new("l_extendedprice", DataType::Float),
                ColumnDef::new("l_discount", DataType::Float),
                ColumnDef::new("l_tax", DataType::Float),
                ColumnDef::new("l_returnflag", DataType::Str),
                ColumnDef::new("l_linestatus", DataType::Str),
                ColumnDef::new("l_shipdate", DataType::Date),
                ColumnDef::new("l_receiptdate", DataType::Date),
                ColumnDef::new("l_shipmode", DataType::Str),
            ]),
        )
        .unwrap();
    {
        let modes = choices(&["MAIL", "SHIP", "AIR", "TRUCK", "RAIL", "FOB", "REG AIR"]);
        let cols = vec![
            ColGen::ZipfFk {
                zipf: g.zipf_fk(n_orders),
            },
            ColGen::ZipfFk {
                zipf: g.zipf_fk(n_part),
            },
            ColGen::ZipfFk {
                zipf: g.zipf_fk(n_supplier),
            },
            ColGen::ZipfInt {
                zipf: g.zipf(7),
                map: |r| r as i64 + 1,
            },
            ColGen::ZipfFloat {
                zipf: g.zipf(50),
                lo: 1.0,
                step: 1.0,
            },
            ColGen::ZipfFloat {
                zipf: g.zipf(10_000),
                lo: 900.0,
                step: 9.5,
            },
            ColGen::ZipfFloat {
                zipf: g.zipf(11),
                lo: 0.0,
                step: 0.01,
            },
            ColGen::ZipfFloat {
                zipf: g.zipf(9),
                lo: 0.0,
                step: 0.01,
            },
            ColGen::ZipfChoice {
                zipf: g.zipf(3),
                choices: choices(&["A", "N", "R"]),
            },
            ColGen::ZipfChoice {
                zipf: g.zipf(2),
                choices: choices(&["F", "O"]),
            },
            ColGen::ZipfDate {
                zipf: g.zipf(DATE_DAYS),
            },
            ColGen::ZipfDate {
                zipf: g.zipf(DATE_DAYS),
            },
            ColGen::ZipfChoice {
                zipf: g.zipf(7),
                choices: modes,
            },
        ];
        fill_table(&mut db, lineitem, n_lineitem, cols, &mut g.rng);
    }

    db
}

/// Create the "tuned database" secondary indexes — 13 of them, mirroring the
/// intro experiment's configuration. Indexed leading columns are where
/// SQL Server would already hold statistics.
pub fn create_tuned_indexes(db: &mut Database) {
    let specs: [(&str, &str); 13] = [
        ("region", "r_regionkey"),
        ("nation", "n_nationkey"),
        ("supplier", "s_suppkey"),
        ("part", "p_partkey"),
        ("partsupp", "ps_partkey"),
        ("customer", "c_custkey"),
        ("customer", "c_nationkey"),
        ("orders", "o_orderkey"),
        ("orders", "o_custkey"),
        ("partsupp", "ps_suppkey"),
        ("lineitem", "l_orderkey"),
        ("lineitem", "l_partkey"),
        ("lineitem", "l_suppkey"),
    ];
    for (i, (table, column)) in specs.iter().enumerate() {
        let tid = db.table_id(table).expect("tpcd table exists");
        let col = db
            .table(tid)
            .schema()
            .index_of(column)
            .expect("tpcd column exists");
        db.create_index(format!("idx{i:02}_{table}_{column}"), tid, vec![col])
            .expect("unique index name");
    }
}

/// The four standard experiment databases of §8: z = 0, 2, 4, and mixed.
pub fn standard_databases(scale: f64, seed: u64) -> Vec<(String, Database)> {
    [
        ZipfSpec::Fixed(0.0),
        ZipfSpec::Fixed(2.0),
        ZipfSpec::Fixed(4.0),
        ZipfSpec::Mixed,
    ]
    .into_iter()
    .map(|zipf| {
        let cfg = TpcdConfig { scale, zipf, seed };
        (zipf.label(), build_tpcd(&cfg))
    })
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_all_eight_tables() {
        let db = build_tpcd(&TpcdConfig::default());
        for t in [
            "region", "nation", "supplier", "part", "partsupp", "customer", "orders", "lineitem",
        ] {
            assert!(db.table_id(t).is_some(), "missing {t}");
        }
        let li = db.table_by_name("lineitem").unwrap();
        assert!(li.row_count() >= 200);
        assert_eq!(li.schema().len(), 13);
    }

    #[test]
    fn scale_controls_row_counts() {
        let small = build_tpcd(&TpcdConfig {
            scale: 0.001,
            ..Default::default()
        });
        let big = build_tpcd(&TpcdConfig {
            scale: 0.01,
            ..Default::default()
        });
        assert!(
            big.table_by_name("orders").unwrap().row_count()
                > 5 * small.table_by_name("orders").unwrap().row_count()
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = TpcdConfig::default();
        let a = build_tpcd(&cfg);
        let b = build_tpcd(&cfg);
        let ta = a.table_by_name("orders").unwrap();
        let tb = b.table_by_name("orders").unwrap();
        assert_eq!(ta.row_count(), tb.row_count());
        for r in (0..ta.row_count()).step_by(17) {
            assert_eq!(ta.value(r, 4), tb.value(r, 4));
        }
    }

    #[test]
    fn skew_shows_in_value_frequencies() {
        let uniform = build_tpcd(&TpcdConfig {
            zipf: ZipfSpec::Fixed(0.0),
            scale: 0.01,
            seed: 9,
        });
        let skewed = build_tpcd(&TpcdConfig {
            zipf: ZipfSpec::Fixed(3.0),
            scale: 0.01,
            seed: 9,
        });
        let count_top = |db: &Database| {
            let t = db.table_by_name("orders").unwrap();
            let col = t.schema().index_of("o_custkey").unwrap();
            (0..t.row_count())
                .filter(|&r| t.value(r, col) == Value::Int(0))
                .count()
        };
        assert!(
            count_top(&skewed) > 3 * count_top(&uniform).max(1),
            "skewed={} uniform={}",
            count_top(&skewed),
            count_top(&uniform)
        );
    }

    #[test]
    fn tuned_indexes_count() {
        let mut db = build_tpcd(&TpcdConfig::default());
        create_tuned_indexes(&mut db);
        assert_eq!(db.indexes().len(), 13);
    }

    #[test]
    fn standard_databases_labels() {
        let dbs = standard_databases(0.002, 1);
        let labels: Vec<&str> = dbs.iter().map(|(l, _)| l.as_str()).collect();
        assert_eq!(labels, vec!["TPCD_0", "TPCD_2", "TPCD_4", "TPCD_MIX"]);
    }

    #[test]
    fn modification_counters_start_clean() {
        let db = build_tpcd(&TpcdConfig::default());
        for id in db.table_ids() {
            assert_eq!(db.table(id).modification_counter(), 0);
        }
    }

    #[test]
    fn dates_in_expected_range() {
        let db = build_tpcd(&TpcdConfig::default());
        let t = db.table_by_name("lineitem").unwrap();
        let col = t.schema().index_of("l_shipdate").unwrap();
        for r in 0..t.row_count().min(100) {
            match t.value(r, col) {
                Value::Date(d) => assert!((DATE_LO..DATE_LO + DATE_DAYS as i32).contains(&d)),
                other => panic!("unexpected {other:?}"),
            }
        }
    }
}
