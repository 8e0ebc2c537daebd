//! Input generation: the frozen universe (database and statements) and the
//! seed-dependent order in which statements are sent.

use crate::spec::Workload;
use datagen::{build_tpcd, RagsGenerator, TpcdConfig, WorkloadSpec, ZipfSpec};
use query::Statement;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::time::Instant;
use storage::Database;

/// The workload's TPC-D database (`ZipfSpec::Mixed`) in universe `universe`.
pub fn database(w: &Workload, universe: u64) -> Database {
    build_tpcd(&TpcdConfig {
        scale: w.scale,
        zipf: ZipfSpec::Mixed,
        seed: universe,
    })
}

/// A workload's statements. The system under test only ever receives `sql`;
/// `statements` stays with the benchmark (route class, SELECT or DML, the
/// oracle's input).
pub struct Inputs {
    pub statements: Vec<Statement>,
    pub sql: Vec<String>,
    pub build_tpcd_s: f64,
    pub rags_s: f64,
}

impl Inputs {
    /// The database and `count` Rags statements over it.
    pub fn generate(w: &Workload, universe: u64, count: usize) -> (Database, Inputs) {
        let t = Instant::now();
        let db = database(w, universe);
        let build_tpcd_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let spec = WorkloadSpec::new(w.update_pct, w.complexity, count).with_seed(universe);
        let statements = RagsGenerator::generate(&db, &spec);
        let sql = statements.iter().map(query::render).collect();
        let rags_s = t.elapsed().as_secs_f64();
        let inputs = Inputs {
            statements,
            sql,
            build_tpcd_s,
            rags_s,
        };
        (db, inputs)
    }

    pub fn is_select(&self, index: usize) -> bool {
        matches!(self.statements[index], Statement::Select(_))
    }
}

/// A permutation of `0..n` drawn from `(seed, stream)`: the order in which a
/// client sends a pool, or (modulo the client count) which client sends which
/// statement of a stream. This is all `--seed` decides.
pub fn order(n: usize, seed: u64, stream: u64) -> Vec<usize> {
    let mut indices: Vec<usize> = (0..n).collect();
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream);
    indices.shuffle(&mut rng);
    indices
}
