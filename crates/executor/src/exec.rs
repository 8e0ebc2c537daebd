//! The columnar batch plan executor.
//!
//! Intermediate results are kept as tuples of base-table row indices (one
//! per relation present in the subtree) so joins never copy column data;
//! values are materialized only at the very end for the projection and
//! aggregates.
//!
//! This engine is bit-identical to the retained row-at-a-time interpreter in
//! [`crate::reference`] — same `ExecOutput.rows`, same `work` — but removes
//! its per-row costs:
//!
//! * **Selections** are evaluated as selection vectors over typed column
//!   slices (`predicate::select_rows`): each predicate is compiled once
//!   against its column, so the per-row check is a primitive compare
//!   instead of a `Value` materialization.
//! * **String `=` and `<>`** on a column whose dictionary codes a statistic
//!   build already made run the numeric kernels over the `u32` codes,
//!   against the constant's code (a constant the dictionary lacks matches
//!   no row under `=` and every non-NULL row under `<>`). Row by row, a
//!   string compare cost about 17 ns a row against the kernels' 2–3 ns.
//!   Every string predicate the benchmark sends is an `=`/`<>`, and codes
//!   already exist for 97 % of those calls on `steady-simple`, 98 % on
//!   `steady-complex`, 100 % on `offline-tune` and 92 % on `online-mixed`
//!   (64 % of its rows). The executor never makes codes: making them on
//!   demand held 6 % more peak RSS on `online-mixed` and ran no faster on
//!   `steady-simple`. A scan's span counts the predicates that ran on
//!   codes (`code_preds`), so a trace shows one that fell back to bytes.
//! * **Hash joins** key on fixed-seed 64-bit fingerprints
//!   computed a column at a time (`KeySet::fingerprints`): one typed pass
//!   per key column folds each component's 64-bit code (the integer, the
//!   date narrowed as it reads, the float's bits, an Fx hash of the string)
//!   into the running value with a rotate, an xor and a multiply. A single
//!   `Int`/`Date`/`Float` key costs one multiply per tuple, and since
//!   multiplying by an odd constant is one-to-one, its fingerprint *is* the
//!   key: equal fingerprints are equal keys, so its hits go unchecked
//!   (checking them anyway with an `i64` compare measured 3–4 % fewer
//!   statements per second on `steady-simple` and `steady-complex`). Such
//!   keys carry 95 % of the benchmark's probe tuples on `steady-simple`,
//!   55 % on `steady-complex`, 82 % on `online-mixed` and 67 % on
//!   `offline-tune`. The rest probe on keys of several columns (the
//!   two-column `lineitem`–`partsupp` edge, or several edges meeting one
//!   side), which may share a fingerprint, so each such hit is verified by
//!   [`ValueRef`] equality, and results stay exact under
//!   64-bit collisions. The codes carry no type tag, so a key whose column
//!   types differ between the join's sides (`Int = Date`, `Int = Float`)
//!   never matches: such a join is empty before it is built. Equi-joins and
//!   the index nested-loop join share this one path (`hash_join`); the probe
//!   fingerprints `FP_BLOCK` tuples per pass, which held peak RSS on
//!   `steady-complex` 1.9 MB (4 %) below one pass over the whole side, at
//!   the same speed. Together with the cell-sized projection block below,
//!   these passes in place of a per-tuple hash of a tagged `ValueRef`
//!   measured +17 % statements per second on the benchmark's
//!   `steady-simple` workload and +24 % on `steady-complex` (medians of 10
//!   and 3 alternating 20 s parent/change pairs on a 2-core box), with
//!   every row and `work` bit unchanged.
//! * **GROUP BY** fingerprints its input the same way and gives each tuple
//!   a group id through one open-addressed table from (fingerprint, NULL
//!   flag) to group id (`GroupTable`). A candidate group is verified
//!   against its first tuple unless the key is exact (70 % of the
//!   benchmark's GROUP BY calls on `steady-simple`, 79 % on
//!   `steady-complex`, 86 % on `online-mixed`, 74 % on `offline-tune`); the
//!   NULL flag is compared even then. One counting sort then lays out the
//!   members of every group in one array. This replaced a hash map from
//!   fingerprint to a `Vec` of groups, each holding its own `Vec` of
//!   members, which cost about 44 ns a tuple.
//! * **ORDER BY** reads each key column once per tuple into a typed vector
//!   (`SortKeys`: the `i64`, the date narrowed to `i32`, the float's
//!   `f64_total_key`, the `&str`; `None` for NULL, which sorts first) and
//!   stable-sorts on those keys, which is exactly the order of
//!   `ValueRef::total_cmp`. It replaced a comparator that read both tuples'
//!   keys through `get_ref` on every comparison, about 90 ns per sorted
//!   tuple. Every sort the benchmark sends has one key column (on
//!   `steady-simple`, 86 % of sorted tuples are dates, 8 % strings and 5 %
//!   integers), which sorts (key, position) pairs held in one vector;
//!   several columns compare column by column. A GROUP BY orders its groups
//!   with the same sort over each group's first tuple. These three loops
//!   together measured +20 % statements per second on `steady-simple`
//!   (10 of 10 alternating 20 s parent/change pairs on a 2-core box),
//!   +9.5 % on `steady-complex` and +12 % on `online-mixed`, with every row
//!   and `work` bit unchanged. Variants without one of them put the typed
//!   sort at +8 %, the group table at +6 % and the codes at +4 % of
//!   `steady-simple`'s rate (4 rounds each).
//! * **Column resolution is hoisted**: relation → slot → table → column is
//!   resolved once per operator, not once per value.
//! * **Projections materialize column-wise**: one pass per output column
//!   over a block of `PROJECT_CELLS` cells (rows × output columns), under
//!   an `exec.project` span (the largest phase of most statements) that
//!   records the block's row count as `block_rows`.
//! * **A result row copies no string**: a string cell is a shared, immutable
//!   `Arc<str>` in storage and in [`Value`], so the projection, a group key
//!   and a MIN/MAX result hand out the stored cell itself — a pointer and a
//!   reference-count bump where an owned `String` cost a `malloc`, a
//!   `memcpy` and later a `free` per cell (four fifths of the allocations a
//!   result made). An UPDATE replaces the column's `Arc`, so rows a client
//!   still holds never change under a later write. Cells are deliberately
//!   *not* interned: with one `Arc` per distinct value, concurrent clients
//!   bump the same few counters, which measured no faster in `stmt_per_s`
//!   and 6 % dearer in CPU per statement than one cell per row.
//!
//! The interpreter never trusts the plan tree: a node that reads a relation
//! its input does not produce, or references a predicate/join-edge ordinal
//! the query does not define, yields a typed [`ExecError`] identifying the
//! inconsistency instead of panicking.

use crate::error::ExecError;
use crate::kernels::f64_total_key;
use crate::predicate::{select_rows, CompiledPred};
use optimizer::{CostParams, Operator, PlanNode};
use query::{AggFunc, BoundColumn, BoundSelect, OutputItem, Projection, SelectionPredicate};
use rustc_hash::FxHasher;
use std::cmp::Ordering;
use std::hash::Hasher;
use std::sync::Arc;
use storage::{ColumnData, DataType, Database, PayloadRef, Slices, Table, Value, ValueRef};

/// Hash-join build side: build ordinals chained by fingerprint.
///
/// Flat arrays sized at build time stand in for a `FxHashMap<u64, chain>`:
/// fingerprints live in one vector indexed by build ordinal, and a
/// power-of-two bucket array heads intrusive chains over the ordinals. Chains
/// are built by prepending in *reverse* input order, so every probe walks
/// matches in input order — exactly the bucket order of the reference
/// interpreter's `HashMap<JoinKey, Vec<usize>>`. A bucket (and, unless
/// the key is [exact](KeySet::exact), one fingerprint) may mix distinct
/// keys; [`hash_join`] verifies such hits with [`KeySet::keys_equal`].
struct FpTable {
    /// Fingerprint per build ordinal; unspecified where the key was NULL.
    fps: Vec<u64>,
    /// `64 - log2(bucket count)`: a bucket is a fingerprint's top bits.
    shift: u32,
    /// Bucket → first build ordinal, `usize::MAX` when empty.
    head: Vec<usize>,
    /// Build ordinal → next ordinal in its bucket's chain.
    next: Vec<usize>,
}

impl FpTable {
    /// Chain the `tuples` (flat, `arity` ordinals each) of a build side by
    /// the fingerprints of `key`; tuples with a NULL key component can never
    /// match and are left out.
    fn build(key: &KeySet<'_>, tuples: &[usize], arity: usize) -> FpTable {
        let n = tuples.len() / arity;
        let buckets = n.next_power_of_two().max(2);
        let mut nulls = Vec::new();
        let mut table = FpTable {
            fps: Vec::new(),
            shift: 64 - buckets.trailing_zeros(),
            head: vec![usize::MAX; buckets],
            next: vec![usize::MAX; n],
        };
        key.fingerprints(tuples, arity, &mut table.fps, &mut nulls);
        for i in (0..n).rev() {
            if !nulls[i] {
                let b = table.bucket(table.fps[i]);
                table.next[i] = table.head[b];
                table.head[b] = i;
            }
        }
        table
    }

    /// A fingerprint ends in a multiply, whose top bits depend on every bit
    /// of the key (for a single integer key this is Fibonacci hashing).
    #[inline]
    fn bucket(&self, fp: u64) -> usize {
        (fp >> self.shift) as usize
    }

    /// Ordinals whose fingerprint equals `fp`, in input order.
    #[inline]
    fn probe(&self, fp: u64) -> FpIter<'_> {
        FpIter {
            table: self,
            at: self.head[self.bucket(fp)],
            fp,
        }
    }
}

struct FpIter<'a> {
    table: &'a FpTable,
    at: usize,
    fp: u64,
}

impl Iterator for FpIter<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.at != usize::MAX {
            let i = self.at;
            self.at = self.table.next[i];
            if self.table.fps[i] == self.fp {
                return Some(i);
            }
        }
        None
    }
}

/// GROUP BY's hash table: open addressing with linear probing from a
/// (fingerprint, has-NULL flag) pair to a group id, doubled whenever it is
/// half full. A slot holds the fingerprint, and the group id shifted left
/// past the flag; the caller verifies a candidate group against its
/// representative tuple, unless the key is [exact](KeySet::exact). The flag
/// is compared even then: an `Int` key equal to `NULL_CODE` fingerprints
/// like a NULL.
struct GroupTable {
    slots: Vec<(u64, usize)>,
    /// `64 - log2(slot count)`: a fingerprint's home slot is its top bits.
    shift: u32,
    groups: usize,
}

/// A free [`GroupTable`] slot.
const EMPTY: usize = usize::MAX;

impl GroupTable {
    fn with_slots(slots: usize) -> GroupTable {
        GroupTable {
            slots: vec![(0, EMPTY); slots],
            shift: 64 - slots.trailing_zeros(),
            groups: 0,
        }
    }

    /// The group of a key with fingerprint `fp` and NULL flag `null`: the
    /// first group with both for which `same(group)` holds, or a new group,
    /// numbered in order of first appearance.
    #[inline]
    fn group_of(&mut self, fp: u64, null: bool, same: impl Fn(usize) -> bool) -> usize {
        let tag = null as usize;
        let mask = self.slots.len() - 1;
        let mut i = (fp >> self.shift) as usize;
        loop {
            let (at, id) = self.slots[i];
            if id == EMPTY {
                let g = self.groups;
                self.slots[i] = (fp, g << 1 | tag);
                self.groups += 1;
                if 2 * self.groups > self.slots.len() {
                    self.grow();
                }
                return g;
            }
            if at == fp && id & 1 == tag && same(id >> 1) {
                return id >> 1;
            }
            i = (i + 1) & mask;
        }
    }

    fn grow(&mut self) {
        let old = std::mem::replace(self, GroupTable::with_slots(2 * self.slots.len()));
        self.groups = old.groups;
        let mask = self.slots.len() - 1;
        for (fp, id) in old.slots.into_iter().filter(|&(_, id)| id != EMPTY) {
            let mut i = (fp >> self.shift) as usize;
            while self.slots[i].1 != EMPTY {
                i = (i + 1) & mask;
            }
            self.slots[i] = (fp, id);
        }
    }
}

/// Slots a [`GroupTable`] starts with.
const GROUP_SLOTS: usize = 16;

/// Tuples fingerprinted per pass of a probe or grouping loop: the block's
/// fingerprints (8 KiB) and NULL flags stay in L1 between the per-column
/// passes that write them and the per-tuple loop that reads them, and no
/// side-long buffer is held. One pass over the whole side ran at the same
/// speed and raised `steady-complex` peak RSS by 1.9 MB (median of 5).
const FP_BLOCK: usize = 1024;

/// The odd multiplier of the fingerprint mix (2^64 / φ). Multiplying by an
/// odd constant is a bijection on `u64`, which is what makes a
/// single-numeric-column fingerprint the key itself.
const FP_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// The code a NULL component folds into a grouping key's fingerprint. Any
/// value does: a non-NULL key that shares it is told apart by the group
/// table's NULL flag and by verification (`tests/reference_equivalence.rs`
/// groups an `Int` key of this value beside a NULL).
const NULL_CODE: u64 = 0x2545_F491_4F6C_DD1D;

/// Fold one key component's 64-bit code into a running fingerprint.
#[inline]
fn fp_mix(h: u64, code: u64) -> u64 {
    (h.rotate_left(26) ^ code).wrapping_mul(FP_MUL)
}

/// A string component's code: an Fx hash of its bytes.
#[inline]
fn str_code(s: &str) -> u64 {
    let mut h = FxHasher::default();
    h.write(s.as_bytes());
    h.finish()
}

/// Join `probe` against `build` on their keys: `hit(probe tuple, build
/// ordinal)` for every pair with equal NULL-free keys, in probe order and,
/// per probe tuple, in build order (the reference's order). The one hash-join
/// path: equi-joins and the index nested-loop join's "index" both run here.
///
/// A key whose column types differ between the sides never matches, so such
/// a join is empty before it is built: `ValueRef` equality would say
/// `Int(5) = Date(5)` and `Int(2) = Float(2.0)`, and the typed codes carry
/// no type tag to keep them apart. The reference's `JoinKey` compares types
/// for the same reason.
fn hash_join(
    build_key: &KeySet<'_>,
    build: &Intermediate,
    probe_key: &KeySet<'_>,
    probe: &Intermediate,
    mut hit: impl FnMut(&[usize], usize),
) {
    if build.data.is_empty() || probe.data.is_empty() || !build_key.comparable(probe_key) {
        return;
    }
    let table = FpTable::build(build_key, &build.data, build.arity());
    let exact = build_key.exact();
    probe_key.for_each_fp(&probe.data, probe.arity(), |t, fp, null| {
        if null {
            return; // NULL keys never join
        }
        for b in table.probe(fp) {
            if exact || probe_key.keys_equal(t, build_key, build.tuple(b)) {
                hit(t, b);
            }
        }
    });
}

/// The result of executing one query plan.
#[derive(Debug, Clone)]
pub struct ExecOutput {
    /// Materialized output rows (projection or aggregate results).
    pub rows: Vec<Vec<Value>>,
    /// Deterministic execution work in the optimizer's cost-model units, but
    /// computed from **actual** row counts.
    pub work: f64,
}

impl ExecOutput {
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }
}

/// The most row ordinals one cross product may hold: 2 GiB of them, over ten
/// times the largest resident set any `benchmark/` workload reaches. A
/// comma-join past it is refused; an unchecked one asks the allocator for
/// whatever the product comes to, and a failed allocation aborts the process.
const MAX_CARTESIAN_ORDINALS: usize = 1 << 28;

/// An intermediate result: which relation ordinals are present, plus one
/// base-table row index per present relation for every tuple. Tuples live
/// back-to-back in one flat buffer (`rels.len()` indices per tuple) so
/// operators never allocate per tuple — a scan's output *is* its selection
/// vector, and a join appends two slices per match.
struct Intermediate {
    rels: Vec<usize>,
    data: Vec<usize>,
}

impl Intermediate {
    fn slot_of(&self, rel: usize) -> Option<usize> {
        self.rels.iter().position(|&r| r == rel)
    }

    #[inline]
    fn arity(&self) -> usize {
        self.rels.len()
    }

    #[inline]
    fn count(&self) -> usize {
        if self.rels.is_empty() {
            0
        } else {
            self.data.len() / self.rels.len()
        }
    }

    #[inline]
    fn tuple(&self, i: usize) -> &[usize] {
        let a = self.arity();
        &self.data[i * a..(i + 1) * a]
    }

    #[inline]
    fn tuples(&self) -> std::slice::ChunksExact<'_, usize> {
        self.data.chunks_exact(self.arity().max(1))
    }
}

/// A bound column resolved against an intermediate: the tuple slot holding
/// the row ordinal, and where the column's cells are. Resolving once per
/// operator replaces the reference interpreter's per-value relation → table
/// → column chain.
#[derive(Clone)]
struct ResolvedCol<'a> {
    slot: usize,
    cells: Cells<'a>,
}

impl<'a> ResolvedCol<'a> {
    #[inline]
    fn row(&self, tuple: &[usize]) -> usize {
        tuple[self.slot]
    }

    fn data_type(&self) -> DataType {
        match &self.cells {
            Cells::One(col) => col.data_type(),
            Cells::Chain(chain) => chain.cols[0].data_type(),
        }
    }

    /// The cell of `tuple`, for a caller that reads one cell at a time.
    fn get(&self, tuple: &[usize]) -> Value {
        let row = self.row(tuple);
        match &self.cells {
            Cells::One(col) => col.get(row),
            Cells::Chain(chain) => chain.get(row),
        }
    }
}

/// Where a column's cells are, chosen once per operator: one table's column,
/// which the typed loops index by row as they always did, or a chained
/// table's ([`ChainCol`]).
#[derive(Clone)]
enum Cells<'a> {
    One(&'a ColumnData),
    Chain(ChainCol<'a>),
}

impl<'a> Cells<'a> {
    /// Column `col` of `rows`: the column itself unless `rows` is a chain.
    fn of(rows: Slices<'a>, col: usize) -> Cells<'a> {
        match rows.tables() {
            [table] => Cells::One(table.column(col)),
            tables => Cells::Chain(ChainCol {
                cols: tables.iter().map(|t| t.column(col)).collect(),
            }),
        }
    }
}

/// One column of a chained table (a cross-shard read of a partitioned
/// table): the column of each slice. A tuple holds the chain's row ordinal,
/// which names its slice and its row there ([`Slices::locate`]), so nothing
/// is copied into one column first.
#[derive(Clone)]
struct ChainCol<'a> {
    cols: Vec<&'a ColumnData>,
}

impl<'a> ChainCol<'a> {
    /// The cells of every slice, typed by `typed` (which every slice's
    /// payload passes, the slices sharing one schema).
    fn typed<T>(&self, typed: impl Fn(PayloadRef<'a>) -> Option<&'a [T]>) -> Chained<'a, T> {
        let parts = self.cols.iter().map(|c| Flat {
            valid: c.validity(),
            xs: typed(c.payload()).unwrap_or_default(),
        });
        Chained {
            parts: parts.collect(),
        }
    }

    /// The slice's column holding the chain's row `row`, and the row in it.
    #[inline]
    fn at(&self, row: usize) -> (&'a ColumnData, usize) {
        let (s, r) = Slices::locate(row);
        (self.cols[s], r)
    }
}

/// One column's cells of payload type `T`, read by row ordinal: what the
/// typed loops (fingerprints, sort keys, projection) index, compiled once
/// for a plain column and once for a chained one.
trait At<'a, T> {
    /// The cell at `row`; `None` if it is NULL.
    fn at(&self, row: usize) -> Option<&'a T>;
}

/// A plain column's cells: its validity bitmap and typed payload.
#[derive(Clone, Copy)]
struct Flat<'a, T> {
    valid: &'a [bool],
    xs: &'a [T],
}

impl<'a, T> At<'a, T> for Flat<'a, T> {
    #[inline]
    fn at(&self, row: usize) -> Option<&'a T> {
        if self.valid[row] {
            Some(&self.xs[row])
        } else {
            None
        }
    }
}

/// A chained column's cells: each slice's, a row located in its slice
/// before it is read.
struct Chained<'a, T> {
    parts: Vec<Flat<'a, T>>,
}

impl<'a, T> At<'a, T> for Chained<'a, T> {
    #[inline]
    fn at(&self, row: usize) -> Option<&'a T> {
        let (s, r) = Slices::locate(row);
        self.parts[s].at(r)
    }
}

/// Cell reads by row ordinal for the loops that are not typed per payload
/// (aggregates, key equality), compiled once for a plain column and once
/// for a chained one.
trait Read<'a> {
    fn is_valid(&self, row: usize) -> bool;
    fn get_ref(&self, row: usize) -> ValueRef<'a>;
    fn get(&self, row: usize) -> Value;
}

impl<'a> Read<'a> for &'a ColumnData {
    #[inline]
    fn is_valid(&self, row: usize) -> bool {
        ColumnData::is_valid(self, row)
    }

    #[inline]
    fn get_ref(&self, row: usize) -> ValueRef<'a> {
        ColumnData::get_ref(self, row)
    }

    #[inline]
    fn get(&self, row: usize) -> Value {
        ColumnData::get(self, row)
    }
}

impl<'a> Read<'a> for &ChainCol<'a> {
    #[inline]
    fn is_valid(&self, row: usize) -> bool {
        let (col, r) = self.at(row);
        col.is_valid(r)
    }

    #[inline]
    fn get_ref(&self, row: usize) -> ValueRef<'a> {
        let (col, r) = self.at(row);
        col.get_ref(r)
    }

    #[inline]
    fn get(&self, row: usize) -> Value {
        let (col, r) = self.at(row);
        col.get(r)
    }
}

/// One join/group key column, borrowed once per operator: the tuple slot,
/// the type and the cells — of a plain column, the validity bitmap and the
/// typed payload, so fingerprinting and equality in the per-tuple loops
/// index slices and never walk back through the table.
struct KeyCol<'a> {
    slot: usize,
    data_type: DataType,
    cells: KeyCells<'a>,
}

enum KeyCells<'a> {
    One {
        valid: &'a [bool],
        xs: PayloadRef<'a>,
    },
    Chain(ChainCol<'a>),
}

impl<'a> KeyCol<'a> {
    fn new(rc: ResolvedCol<'a>) -> KeyCol<'a> {
        KeyCol {
            slot: rc.slot,
            data_type: rc.data_type(),
            cells: match rc.cells {
                Cells::One(col) => KeyCells::One {
                    valid: col.validity(),
                    xs: col.payload(),
                },
                Cells::Chain(chain) => KeyCells::Chain(chain),
            },
        }
    }

    /// Fold this column's code for each tuple into `fps`, flagging NULLs in
    /// `nulls`: the per-tuple loop compiled once per payload type, with the
    /// code inlined.
    fn fold(&self, tuples: &[usize], arity: usize, fps: &mut [u64], nulls: &mut [bool]) {
        let rows = (tuples, arity, self.slot);
        match &self.cells {
            KeyCells::One { valid, xs } => match *xs {
                PayloadRef::Int(xs) => {
                    fold_rows(rows, Flat { valid, xs }, fps, nulls, |&x| x as u64)
                }
                PayloadRef::Date(xs) => {
                    fold_rows(rows, Flat { valid, xs }, fps, nulls, |&x| x as i32 as u64)
                }
                PayloadRef::Float(xs) => {
                    fold_rows(rows, Flat { valid, xs }, fps, nulls, |x| x.to_bits())
                }
                PayloadRef::Str(xs) => {
                    fold_rows(rows, Flat { valid, xs }, fps, nulls, |x| str_code(x))
                }
            },
            KeyCells::Chain(chain) => match self.data_type {
                DataType::Int => fold_rows(rows, chain.typed(PayloadRef::ints), fps, nulls, |&x| {
                    x as u64
                }),
                DataType::Date => {
                    fold_rows(rows, chain.typed(PayloadRef::ints), fps, nulls, |&x| {
                        x as i32 as u64
                    })
                }
                DataType::Float => {
                    fold_rows(rows, chain.typed(PayloadRef::floats), fps, nulls, |x| {
                        x.to_bits()
                    })
                }
                DataType::Str => fold_rows(rows, chain.typed(PayloadRef::strs), fps, nulls, |x| {
                    str_code(x)
                }),
            },
        }
    }

    /// The key at `row`, which the caller knows is not NULL.
    #[inline]
    fn value(&self, row: usize) -> ValueRef<'a> {
        match &self.cells {
            KeyCells::One { xs, .. } => xs.value(row),
            KeyCells::Chain(chain) => chain.get_ref(row),
        }
    }

    #[inline]
    fn is_valid(&self, row: usize) -> bool {
        match &self.cells {
            KeyCells::One { valid, .. } => valid[row],
            KeyCells::Chain(chain) => chain.is_valid(row),
        }
    }
}

/// [`KeyCol::fold`]'s loop: `(tuples, arity, slot)` says where each
/// tuple's row is.
#[inline]
fn fold_rows<'a, T: 'a>(
    (tuples, arity, slot): (&[usize], usize, usize),
    cells: impl At<'a, T>,
    fps: &mut [u64],
    nulls: &mut [bool],
    code: impl Fn(&T) -> u64,
) {
    for ((t, h), null) in tuples.chunks_exact(arity).zip(fps).zip(nulls) {
        let c = match cells.at(t[slot]) {
            Some(x) => code(x),
            None => {
                *null = true;
                NULL_CODE
            }
        };
        *h = fp_mix(*h, c);
    }
}

/// The key columns of one join side (or of a GROUP BY), typed once per
/// operator via [`KeyCol`].
struct KeySet<'a> {
    cols: Vec<KeyCol<'a>>,
}

impl<'a> KeySet<'a> {
    fn new(cols: Vec<ResolvedCol<'a>>) -> KeySet<'a> {
        KeySet {
            cols: cols.into_iter().map(KeyCol::new).collect(),
        }
    }

    /// Whether a fingerprint *is* the key: at most one column, and that one
    /// an `Int`, `Date` or `Float`, whose 64-bit code (the integer, the date
    /// narrowed as it reads, the float's bits) the mix maps one-to-one. Equal
    /// fingerprints then mean equal keys, and a hit needs no verification.
    fn exact(&self) -> bool {
        match &self.cols[..] {
            [] => true,
            [kc] => kc.data_type != DataType::Str,
            _ => false,
        }
    }

    /// Whether this side's keys can equal `other`'s: the same type in every
    /// position. The typed codes carry no type tag, so a mixed pair must
    /// never reach [`KeySet::keys_equal`].
    fn comparable(&self, other: &KeySet<'_>) -> bool {
        self.cols.len() == other.cols.len()
            && self
                .cols
                .iter()
                .zip(&other.cols)
                .all(|(a, b)| a.data_type == b.data_type)
    }

    /// Fingerprints of the key tuples in `tuples` (flat, `arity` ordinals
    /// each), one typed pass per key column: each component's 64-bit code
    /// folded into the running value by [`fp_mix`]. `nulls[i]` says whether
    /// tuple `i` has a NULL component, which a join skips and a grouping key
    /// keeps (its fingerprint folds in [`NULL_CODE`]).
    fn fingerprints(
        &self,
        tuples: &[usize],
        arity: usize,
        fps: &mut Vec<u64>,
        nulls: &mut Vec<bool>,
    ) {
        let n = tuples.len() / arity;
        fps.clear();
        fps.resize(n, 0);
        nulls.clear();
        nulls.resize(n, false);
        for kc in &self.cols {
            kc.fold(tuples, arity, fps, nulls);
        }
    }

    /// Call `f(tuple, fingerprint, has NULL component)` for every tuple of
    /// `tuples` in order, fingerprinting [`FP_BLOCK`] tuples at a time.
    fn for_each_fp(&self, tuples: &[usize], arity: usize, mut f: impl FnMut(&[usize], u64, bool)) {
        let (mut fps, mut nulls) = (Vec::new(), Vec::new());
        for block in tuples.chunks(FP_BLOCK * arity) {
            self.fingerprints(block, arity, &mut fps, &mut nulls);
            for ((t, &fp), &null) in block.chunks_exact(arity).zip(&fps).zip(&nulls) {
                f(t, fp, null);
            }
        }
    }

    /// Exact equality of this side's key tuple against `other`'s — the
    /// collision fallback behind the fingerprints. Callers only invoke this
    /// on [comparable](KeySet::comparable) sides after both fingerprints
    /// matched, so every component is non-NULL and both of one type, where
    /// `ValueRef` equality is the payload's own (floats by bit pattern, dates
    /// narrowed to `i32`).
    #[inline]
    fn keys_equal(&self, tuple: &[usize], other: &KeySet<'_>, otuple: &[usize]) -> bool {
        self.cols
            .iter()
            .zip(&other.cols)
            .all(|(a, b)| a.value(tuple[a.slot]) == b.value(otuple[b.slot]))
    }

    /// Whether two tuples' grouping keys are one group: NULL in the same
    /// components, and equal payloads in the others.
    #[inline]
    fn same_group(&self, tuple: &[usize], other: &[usize]) -> bool {
        self.cols.iter().all(|kc| {
            let (a, b) = (tuple[kc.slot], other[kc.slot]);
            let valid = kc.is_valid(a);
            valid == kc.is_valid(b) && (!valid || kc.value(a) == kc.value(b))
        })
    }
}

/// One ORDER BY key column read once per tuple into a typed vector, `None`
/// where the key is NULL. The types' own orders with `None` first are
/// exactly `ValueRef::total_cmp` between two values of one column.
enum SortKeys<'a> {
    Int(Vec<Option<i64>>),
    /// Narrowed to `i32`, as `ValueRef` reads a date.
    Date(Vec<Option<i32>>),
    /// [`f64_total_key`], whose integer order is `f64::total_cmp`.
    Float(Vec<Option<i64>>),
    Str(Vec<Option<&'a str>>),
}

impl<'a> SortKeys<'a> {
    /// The key of column `rc` in each of `tuples`.
    fn new<'t>(rc: &ResolvedCol<'a>, tuples: impl Iterator<Item = &'t [usize]>) -> SortKeys<'a> {
        /// The per-tuple loop, compiled once per payload type.
        fn read<'a, 't, T: 'a, K>(
            slot: usize,
            cells: impl At<'a, T>,
            tuples: impl Iterator<Item = &'t [usize]>,
            key: impl Fn(&'a T) -> K,
        ) -> Vec<Option<K>> {
            tuples.map(|t| cells.at(t[slot]).map(&key)).collect()
        }
        let slot = rc.slot;
        match &rc.cells {
            Cells::One(col) => {
                let valid = col.validity();
                match col.payload() {
                    PayloadRef::Int(xs) => {
                        SortKeys::Int(read(slot, Flat { valid, xs }, tuples, |&x| x))
                    }
                    PayloadRef::Date(xs) => {
                        SortKeys::Date(read(slot, Flat { valid, xs }, tuples, |&x| x as i32))
                    }
                    PayloadRef::Float(xs) => {
                        SortKeys::Float(read(slot, Flat { valid, xs }, tuples, |&x| {
                            f64_total_key(x)
                        }))
                    }
                    PayloadRef::Str(xs) => {
                        SortKeys::Str(read(slot, Flat { valid, xs }, tuples, |x| &**x))
                    }
                }
            }
            Cells::Chain(chain) => match rc.data_type() {
                DataType::Int => {
                    SortKeys::Int(read(slot, chain.typed(PayloadRef::ints), tuples, |&x| x))
                }
                DataType::Date => {
                    SortKeys::Date(read(slot, chain.typed(PayloadRef::ints), tuples, |&x| {
                        x as i32
                    }))
                }
                DataType::Float => {
                    SortKeys::Float(read(slot, chain.typed(PayloadRef::floats), tuples, |&x| {
                        f64_total_key(x)
                    }))
                }
                DataType::Str => {
                    SortKeys::Str(read(slot, chain.typed(PayloadRef::strs), tuples, |x| &**x))
                }
            },
        }
    }

    /// The order of the keys at `a` and `b`.
    #[inline]
    fn cmp(&self, a: usize, b: usize) -> Ordering {
        match self {
            SortKeys::Int(k) | SortKeys::Float(k) => k[a].cmp(&k[b]),
            SortKeys::Date(k) => k[a].cmp(&k[b]),
            SortKeys::Str(k) => k[a].cmp(&k[b]),
        }
    }

    /// The stable order of the keys, descending if `desc`.
    fn order(&self, desc: bool) -> Vec<usize> {
        match self {
            SortKeys::Int(k) | SortKeys::Float(k) => stable_order(k, desc),
            SortKeys::Date(k) => stable_order(k, desc),
            SortKeys::Str(k) => stable_order(k, desc),
        }
    }
}

/// The positions of `keys` in stable-sorted order, descending if `desc`:
/// each key sorts beside its position, so the sort reads one contiguous
/// vector and never goes back to the keys.
fn stable_order<K: Ord + Copy>(keys: &[K], desc: bool) -> Vec<usize> {
    let mut keyed: Vec<(K, usize)> = keys.iter().copied().zip(0..).collect();
    if desc {
        keyed.sort_by_key(|&(k, _)| std::cmp::Reverse(k));
    } else {
        keyed.sort_by_key(|&(k, _)| k);
    }
    keyed.into_iter().map(|(_, i)| i).collect()
}

/// The stable order of `n` tuples by `keys` (each column with its DESC
/// flag), compared column by column: a DESC column reverses its whole
/// comparison, NULL included.
fn sort_order(keys: &[(SortKeys<'_>, bool)], n: usize) -> Vec<usize> {
    if let [(key, desc)] = keys {
        return key.order(*desc);
    }
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        keys.iter()
            .map(|(key, desc)| {
                let ord = key.cmp(a, b);
                if *desc {
                    ord.reverse()
                } else {
                    ord
                }
            })
            .find(|ord| ord.is_ne())
            .unwrap_or(Ordering::Equal)
    });
    order
}

/// Static span name per operator (`exec.op.<Operator>`): span names are
/// `&'static str` by the tracer's contract, so the taxonomy is spelled out
/// here rather than formatted at runtime.
fn op_span_name(op: &Operator) -> &'static str {
    match op {
        Operator::SeqScan { .. } => "exec.op.SeqScan",
        Operator::IndexScan { .. } => "exec.op.IndexScan",
        Operator::HashJoin { .. } => "exec.op.HashJoin",
        Operator::MergeJoin { .. } => "exec.op.MergeJoin",
        Operator::NestedLoopJoin { .. } => "exec.op.NestedLoopJoin",
        Operator::IndexNLJoin { .. } => "exec.op.IndexNLJoin",
        Operator::HashAggregate { .. } => "exec.op.HashAggregate",
        Operator::Sort { .. } => "exec.op.Sort",
    }
}

struct Interp<'a> {
    db: &'a Database,
    query: &'a BoundSelect,
    work: f64,
}

impl<'a> Interp<'a> {
    /// Resolve bound columns against an intermediate, once per operator.
    /// The per-column checks (slot, relation, table) run in the same order
    /// as the reference interpreter's `value_of`, so a malformed plan
    /// surfaces the same error.
    fn resolve_cols(
        &self,
        inter: &Intermediate,
        cols: &[BoundColumn],
    ) -> Result<Vec<ResolvedCol<'a>>, ExecError> {
        cols.iter()
            .map(|&c| {
                let missing = ExecError::MissingRelation {
                    relation: c.relation,
                };
                let slot = inter.slot_of(c.relation).ok_or_else(|| missing.clone())?;
                let &(tid, _) = self.query.relations.get(c.relation).ok_or(missing)?;
                Ok(ResolvedCol {
                    slot,
                    cells: Cells::of(self.db.try_slices(tid)?, c.column),
                })
            })
            .collect()
    }

    /// The query's selection predicates at the given plan-node ordinals, or
    /// `MalformedPlan` if an ordinal is out of range.
    fn selections(&self, idxs: &[usize]) -> Result<Vec<&'a SelectionPredicate>, ExecError> {
        idxs.iter()
            .map(|&i| {
                self.query
                    .selections
                    .get(i)
                    .ok_or_else(|| ExecError::MalformedPlan {
                        detail: format!(
                            "plan references selection predicate #{i}, but the query \
                             defines only {}",
                            self.query.selections.len()
                        ),
                    })
            })
            .collect()
    }

    /// The selection predicates at `idxs`, compiled against `table`.
    fn compile(
        &self,
        table: &'a Table,
        idxs: &[usize],
    ) -> Result<Vec<CompiledPred<'a>>, ExecError> {
        Ok(self
            .selections(idxs)?
            .into_iter()
            .map(|p| CompiledPred::new(table, p))
            .collect())
    }

    /// The rows `scan` selects from each slice of `rows`, in slice order,
    /// as row ordinals of the whole ([`Slices::ordinal`]), with the sum of
    /// the counts `scan` returns beside them. Slice 0's rows are their own
    /// ordinals, so its selection (a plain table's whole answer) is kept as
    /// `scan` made it, not copied.
    fn scan_slices(
        rows: Slices<'a>,
        mut scan: impl FnMut(&'a Table) -> Result<(Vec<usize>, usize), ExecError>,
    ) -> Result<(Vec<usize>, usize), ExecError> {
        let mut out = Vec::new();
        let mut count = 0;
        for (s, table) in rows.tables().iter().enumerate() {
            let (selected, n) = scan(table)?;
            count += n;
            if s == 0 {
                out = selected;
            } else {
                out.extend(selected.into_iter().map(|r| Slices::ordinal(s, r)));
            }
        }
        Ok((out, count))
    }

    fn edge(&self, e: usize) -> Result<&'a query::JoinEdge, ExecError> {
        self.query
            .join_edges
            .get(e)
            .ok_or_else(|| ExecError::MalformedPlan {
                detail: format!(
                    "plan references join edge #{e}, but the query defines only {}",
                    self.query.join_edges.len()
                ),
            })
    }

    /// Run one plan node under an operator span. Each operator records its
    /// actual output cardinality next to the optimizer's estimate, so a
    /// trace shows exactly where cardinality estimation went wrong — the
    /// feedback signal the whole statistics-selection loop exists to serve.
    fn run(
        &mut self,
        node: &PlanNode,
        parent: &obsv::SpanGuard,
    ) -> Result<Intermediate, ExecError> {
        let mut span = parent.child(op_span_name(&node.op));
        let out = self.run_node(node, &mut span)?;
        span.arg("rows_out", out.count());
        span.arg("est_rows", node.est_rows);
        Ok(out)
    }

    /// Run one plan node. A scan records on its span how many of its
    /// predicates ran on dictionary codes (`code_preds`), so a trace shows
    /// a string predicate that fell back to comparing bytes.
    fn run_node(
        &mut self,
        node: &PlanNode,
        span: &mut obsv::SpanGuard,
    ) -> Result<Intermediate, ExecError> {
        let code_preds = |preds: &[CompiledPred<'_>]| preds.iter().filter(|p| p.on_codes()).count();
        match &node.op {
            // A scan compiles its predicates against each slice in turn, so a
            // string constant is coded in that slice's own dictionary;
            // `code_preds` then counts slice by slice.
            Operator::SeqScan { rel, table, preds } => {
                let rows = self.db.try_slices(*table)?;
                self.work += CostParams::seq_scan(rows.row_count() as f64);
                let (data, on_codes) = Self::scan_slices(rows, |t| {
                    let preds = self.compile(t, preds)?;
                    Ok((select_rows(&preds, t.row_count()), code_preds(&preds)))
                })?;
                span.arg("code_preds", on_codes);
                Ok(Intermediate {
                    rels: vec![*rel],
                    data,
                })
            }
            Operator::IndexScan {
                rel,
                table,
                seek_preds,
                residual,
                ..
            } => {
                let slices = self.db.try_slices(*table)?;
                let mut sought = 0;
                let (rows, on_codes) = Self::scan_slices(slices, |t| {
                    // Rows reachable through the index seek.
                    let seek = self.compile(t, seek_preds)?;
                    let mut rows = select_rows(&seek, t.row_count());
                    sought += rows.len();
                    let residual = self.compile(t, residual)?;
                    for pred in &residual {
                        pred.refine(&mut rows);
                    }
                    Ok((rows, code_preds(&seek) + code_preds(&residual)))
                })?;
                self.work += CostParams::index_scan(slices.row_count() as f64, sought as f64);
                span.arg("code_preds", on_codes);
                Ok(Intermediate {
                    rels: vec![*rel],
                    data: rows,
                })
            }
            Operator::HashJoin { edges } => {
                let left = self.run(&node.children[0], span)?;
                let right = self.run(&node.children[1], span)?;
                let out = self.equi_join(&left, &right, edges)?;
                self.work += CostParams::hash_join(
                    left.count() as f64,
                    right.count() as f64,
                    out.count() as f64,
                );
                Ok(out)
            }
            Operator::MergeJoin { edges } => {
                let left = self.run(&node.children[0], span)?;
                let right = self.run(&node.children[1], span)?;
                let out = self.equi_join(&left, &right, edges)?;
                self.work += CostParams::merge_join(
                    left.count() as f64,
                    right.count() as f64,
                    out.count() as f64,
                );
                Ok(out)
            }
            Operator::NestedLoopJoin { edges } => {
                let left = self.run(&node.children[0], span)?;
                let right = self.run(&node.children[1], span)?;
                let out = if edges.is_empty() {
                    self.cartesian(&left, &right)?
                } else {
                    self.equi_join(&left, &right, edges)?
                };
                // A nested-loop join re-walks the inner input once per outer
                // row; meter it that way even though we materialize.
                self.work += CostParams::nested_loop(
                    left.count() as f64,
                    CostParams::SEQ_ROW * right.count() as f64,
                    out.count() as f64,
                );
                Ok(out)
            }
            Operator::IndexNLJoin {
                edges,
                inner_rel,
                inner_table,
                inner_preds,
                ..
            } => {
                let outer = self.run(&node.children[0], span)?;
                let slices = self.db.try_slices(*inner_table)?;
                // Outer-side and inner-side key columns per crossing edge.
                let mut outer_keys: Vec<BoundColumn> = Vec::new();
                let mut inner_ords: Vec<usize> = Vec::new();
                for &e in edges {
                    let edge = self.edge(e)?;
                    for &(lc, rc) in &edge.pairs {
                        if edge.left_rel == *inner_rel {
                            inner_ords.push(lc);
                            outer_keys.push(BoundColumn::new(edge.right_rel, rc));
                        } else {
                            inner_ords.push(rc);
                            outer_keys.push(BoundColumn::new(edge.left_rel, lc));
                        }
                    }
                }
                // The inner predicates, compiled against each slice.
                let compiled_inner = slices
                    .tables()
                    .iter()
                    .map(|t| self.compile(t, inner_preds))
                    .collect::<Result<Vec<_>, _>>()?;
                // The "index": inner rows keyed by fingerprints of the joined
                // columns. Inner-side key columns resolve directly against
                // the base table (every tuple is its own row index).
                let inner_rows = slices.row_count();
                let mut inner_cols: Vec<ResolvedCol<'a>> = Vec::new();
                if inner_rows > 0 {
                    inner_cols = inner_ords
                        .iter()
                        .map(|&c| ResolvedCol {
                            slot: 0,
                            cells: Cells::of(slices, c),
                        })
                        .collect();
                }
                let inner_key = KeySet::new(inner_cols);
                // Every inner row is its own one-ordinal tuple.
                let inner = Intermediate {
                    rels: vec![*inner_rel],
                    data: slices.ordinals(),
                };
                let mut rels = outer.rels.clone();
                rels.push(*inner_rel);
                let outer_cols = if outer.data.is_empty() {
                    Vec::new()
                } else {
                    self.resolve_cols(&outer, &outer_keys)?
                };
                let outer_key = KeySet::new(outer_cols);
                let mut data = Vec::new();
                let mut fetched_total = 0usize;
                // Only exact key matches count as fetched (mirrors the
                // reference's exact-key map).
                let mut fetch = |tup: &[usize], r: usize, matches: bool| {
                    fetched_total += 1;
                    if matches {
                        data.extend_from_slice(tup);
                        data.push(r);
                    }
                };
                // A plain table's rows are their own ordinals, so its fetch
                // skips the lookup a chain's per-slice predicates need (the
                // cost measured against the chain accessor on plain tables:
                // DESIGN.md §17).
                match &compiled_inner[..] {
                    [preds] => hash_join(&inner_key, &inner, &outer_key, &outer, |tup, r| {
                        fetch(tup, r, preds.iter().all(|p| p.matches(r)))
                    }),
                    per_slice => hash_join(&inner_key, &inner, &outer_key, &outer, |tup, b| {
                        let r = inner.data[b];
                        let (s, row) = Slices::locate(r);
                        fetch(tup, r, per_slice[s].iter().all(|p| p.matches(row)))
                    }),
                }
                // Metering mirrors the optimizer's model: one index descent
                // per outer tuple plus a random access per fetched row.
                let out_count = data.len() / rels.len();
                self.work += outer.count() as f64 * CostParams::INDEX_LOOKUP
                    + fetched_total as f64 * CostParams::INDEX_ROW
                    + CostParams::JOIN_OUTPUT * out_count as f64;
                Ok(Intermediate { rels, data })
            }
            Operator::HashAggregate { .. } | Operator::Sort { .. } => {
                // Aggregation and final ordering are handled at the top
                // level in execute_plan; running them standalone passes the
                // input through.
                match node.children.first() {
                    Some(child) => self.run(child, span),
                    None => Err(ExecError::MalformedPlan {
                        detail: "aggregate/sort node has no input".to_string(),
                    }),
                }
            }
        }
    }

    /// The (left col, right col) pairs of the given edge ordinals oriented so
    /// the first element belongs to `left`.
    fn oriented_keys(
        &self,
        left: &Intermediate,
        edges: &[usize],
    ) -> Result<(Vec<BoundColumn>, Vec<BoundColumn>), ExecError> {
        let mut lk = Vec::new();
        let mut rk = Vec::new();
        for &e in edges {
            let edge = self.edge(e)?;
            let left_has = left.rels.contains(&edge.left_rel);
            for &(lc, rc) in &edge.pairs {
                if left_has {
                    lk.push(BoundColumn::new(edge.left_rel, lc));
                    rk.push(BoundColumn::new(edge.right_rel, rc));
                } else {
                    lk.push(BoundColumn::new(edge.right_rel, rc));
                    rk.push(BoundColumn::new(edge.left_rel, lc));
                }
            }
        }
        Ok((lk, rk))
    }

    fn equi_join(
        &self,
        left: &Intermediate,
        right: &Intermediate,
        edges: &[usize],
    ) -> Result<Intermediate, ExecError> {
        let (lk, rk) = self.oriented_keys(left, edges)?;
        // Build on the right, probe with the left (input order on both
        // sides is what makes the output order match the reference).
        let r_cols = if right.data.is_empty() {
            Vec::new()
        } else {
            self.resolve_cols(right, &rk)?
        };
        let r_key = KeySet::new(r_cols);
        let mut rels = left.rels.clone();
        rels.extend(&right.rels);
        let l_cols = if left.data.is_empty() {
            Vec::new()
        } else {
            self.resolve_cols(left, &lk)?
        };
        let l_key = KeySet::new(l_cols);
        let mut data = Vec::new();
        hash_join(&r_key, right, &l_key, left, |ltuple, ri| {
            data.extend_from_slice(ltuple);
            data.extend_from_slice(right.tuple(ri));
        });
        Ok(Intermediate { rels, data })
    }

    fn cartesian(
        &self,
        left: &Intermediate,
        right: &Intermediate,
    ) -> Result<Intermediate, ExecError> {
        let mut rels = left.rels.clone();
        rels.extend(&right.rels);
        let too_large = || ExecError::ResultTooLarge {
            tuples: left.count().saturating_mul(right.count()),
        };
        let ordinals = left
            .count()
            .checked_mul(right.count())
            .and_then(|tuples| tuples.checked_mul(rels.len()))
            .filter(|&n| n <= MAX_CARTESIAN_ORDINALS)
            .ok_or_else(too_large)?;
        let mut data = Vec::new();
        data.try_reserve_exact(ordinals).map_err(|_| too_large())?;
        for l in left.tuples() {
            for r in right.tuples() {
                data.extend_from_slice(l);
                data.extend_from_slice(r);
            }
        }
        Ok(Intermediate { rels, data })
    }
}

/// The output row of one aggregation group, whose `members` are tuple
/// ordinals into `input` in input order, in the SELECT list's order
/// (`items`): a grouping key is read off the first member. `members` is
/// empty only for the one row of an aggregate without GROUP BY over no
/// input, where every `agg_cols` entry is `None`.
fn agg_output(
    query: &BoundSelect,
    items: &[OutputItem],
    g_cols: &[ResolvedCol<'_>],
    agg_cols: &[Option<ResolvedCol<'_>>],
    input: &Intermediate,
    members: &[usize],
) -> Vec<Value> {
    items
        .iter()
        .map(|&item| match item {
            OutputItem::Key(k) => g_cols[k].get(input.tuple(members[0])),
            OutputItem::Aggregate(a) => aggregate(
                query.aggregates[a].func,
                agg_cols[a].as_ref(),
                input,
                members,
            ),
        })
        .collect()
}

/// `func` over `members`' values of `rc`.
fn aggregate(
    func: AggFunc,
    rc: Option<&ResolvedCol<'_>>,
    input: &Intermediate,
    members: &[usize],
) -> Value {
    let Some(rc) = rc else {
        // No input column: COUNT(*) counts the members, and any other
        // function folds nothing.
        return match func {
            AggFunc::Count => Value::Int(members.len() as i64),
            _ => Value::Null,
        };
    };
    let rows = members.iter().map(|&ti| rc.row(input.tuple(ti)));
    match &rc.cells {
        Cells::One(col) => fold_aggregate(func, *col, rows),
        Cells::Chain(chain) => fold_aggregate(func, chain, rows),
    }
}

/// `func` over the cells of `col` at `rows`.
fn fold_aggregate<'a>(
    func: AggFunc,
    col: impl Read<'a>,
    rows: impl Iterator<Item = usize> + Clone,
) -> Value {
    // The aggregate's non-NULL inputs as base-table rows, in member order.
    // Every fold below walks them as borrowed values; only a MIN/MAX winner
    // is materialized, as the stored cell itself.
    let live = || rows.clone().filter(|&r| col.is_valid(r));
    let by_value = |a: &usize, b: &usize| col.get_ref(*a).total_cmp(&col.get_ref(*b));
    match func {
        AggFunc::Count => Value::Int(live().count() as i64),
        // Of equal values `min_by` keeps the first and `max_by` the last, as
        // `Iterator::min` / `max` over owned values did.
        AggFunc::Min => live().min_by(by_value).map_or(Value::Null, |r| col.get(r)),
        AggFunc::Max => live().max_by(by_value).map_or(Value::Null, |r| col.get(r)),
        AggFunc::Sum | AggFunc::Avg => match live().count() {
            0 => Value::Null,
            n => {
                // `Iterator::sum` and no hand-written fold: std's identity
                // element is part of the float's bits.
                let sum: f64 = live().map(|r| col.get_ref(r).numeric_key()).sum();
                Value::Float(if func == AggFunc::Sum {
                    sum
                } else {
                    sum / n as f64
                })
            }
        },
    }
}

/// Execute a physical plan for `query` against `db`, returning materialized
/// output rows and the deterministic work metric, metered by [`CostParams`]'
/// constants. Errors if the plan tree is inconsistent with the query or
/// references a stale table.
///
/// `_params` holds nothing: it stays in the signature because `benchmark/`
/// passes `&optimizer.params`.
pub fn execute_plan(
    db: &Database,
    query: &BoundSelect,
    plan: &PlanNode,
    _params: &CostParams,
) -> Result<ExecOutput, ExecError> {
    execute_plan_observed(db, query, plan, &obsv::Tracer::disabled())
}

/// [`execute_plan`] under a tracer. The query gets an `exec.query` span with
/// one `exec.op.*` child span per plan node (actual vs estimated rows on
/// each). Tracing is write-only: rows and work are bit-identical to the
/// untraced call, and a disabled tracer costs one branch per operator.
pub fn execute_plan_observed(
    db: &Database,
    query: &BoundSelect,
    plan: &PlanNode,
    tracer: &obsv::Tracer,
) -> Result<ExecOutput, ExecError> {
    let mut span = tracer.span("exec.query");
    let out = execute_impl(db, query, plan, &span)?;
    span.arg("rows_out", out.rows.len());
    span.arg("work", out.work);
    Ok(out)
}

fn execute_impl(
    db: &Database,
    query: &BoundSelect,
    plan: &PlanNode,
    span: &obsv::SpanGuard,
) -> Result<ExecOutput, ExecError> {
    let mut interp = Interp {
        db,
        query,
        work: 0.0,
    };

    // Aggregation and final ordering execute at this level, not in
    // `run_node`, so the top-level Sort/HashAggregate wrappers are peeled
    // here and given spans of their own: each records its *post*-operator
    // cardinality. Running them through `run` would pass through the input
    // count, and any consumer joining estimated vs actual rows per operator
    // (the cardbench harness) would read a pre-aggregation count as the
    // aggregate's truth.
    let mut tree = plan;
    fn first_child(n: &PlanNode) -> Result<&PlanNode, ExecError> {
        n.children.first().ok_or_else(|| ExecError::MalformedPlan {
            detail: "aggregate/sort node has no input".to_string(),
        })
    }
    let mut sort_node: Option<&PlanNode> = None;
    let mut agg_node: Option<&PlanNode> = None;
    if matches!(tree.op, Operator::Sort { .. }) {
        sort_node = Some(tree);
        tree = first_child(tree)?;
    }
    if matches!(tree.op, Operator::HashAggregate { .. }) {
        agg_node = Some(tree);
        tree = first_child(tree)?;
    }
    let mut sort_span = sort_node.map(|n| span.child(op_span_name(&n.op)));
    let mut agg_span = agg_node.map(|n| {
        sort_span
            .as_ref()
            .unwrap_or(span)
            .child(op_span_name(&n.op))
    });

    let has_agg = !query.group_by.is_empty() || !query.aggregates.is_empty();
    let mut input = {
        let tree_parent = agg_span.as_ref().or(sort_span.as_ref()).unwrap_or(span);
        interp.run(tree, tree_parent)?
    };
    // Close each wrapper span with its actual output cardinality alongside
    // the optimizer's estimate, mirroring `Interp::run`. A Sort never
    // changes the cardinality of its input; an aggregate's output is its
    // group count, finalized below.
    let mut close_wrappers = |rows_out: usize| {
        if let (Some(s), Some(n)) = (agg_span.as_mut(), agg_node) {
            s.arg("rows_out", rows_out);
            s.arg("est_rows", n.est_rows);
        }
        drop(agg_span.take());
        if let (Some(s), Some(n)) = (sort_span.as_mut(), sort_node) {
            s.arg("rows_out", rows_out);
            s.arg("est_rows", n.est_rows);
        }
        drop(sort_span.take());
    };

    if has_agg {
        // Each tuple's group id from the fingerprint table, verified against
        // the group's first tuple unless the key is exact.
        let g_cols = if input.data.is_empty() {
            Vec::new()
        } else {
            interp.resolve_cols(&input, &query.group_by)?
        };
        let g_key = KeySet::new(g_cols.clone());
        let exact = g_key.exact();
        let mut table = GroupTable::with_slots(GROUP_SLOTS);
        let mut reps: Vec<usize> = Vec::new();
        let mut gids: Vec<usize> = Vec::with_capacity(input.count());
        g_key.for_each_fp(&input.data, input.arity(), |tuple, fp, null| {
            let g = table.group_of(fp, null, |g| {
                exact || g_key.same_group(tuple, input.tuple(reps[g]))
            });
            if g == reps.len() {
                reps.push(gids.len());
            }
            gids.push(g);
        });
        interp.work += CostParams::hash_aggregate(input.count() as f64, reps.len() as f64);
        // The members of every group in one array, counting-sorted by group
        // id: group `g` holds `members[bounds[g]..bounds[g + 1]]`, in input
        // order.
        let mut bounds = vec![0usize; reps.len() + 1];
        for &g in &gids {
            bounds[g] += 1;
        }
        let mut end = 0;
        for b in &mut bounds {
            end += *b;
            *b = end;
        }
        let mut members = vec![0usize; gids.len()];
        for (ti, &g) in gids.iter().enumerate().rev() {
            bounds[g] -= 1;
            members[bounds[g]] = ti;
        }
        // Deterministic output over each group's first tuple: the ORDER BY
        // keys, which the binder holds to grouping columns, then every
        // grouping key ascending, as the reference sorts its map keys.
        let position = |col| query.group_by.iter().position(|&g| g == col);
        let keys: Vec<(SortKeys<'_>, bool)> = query
            .order_by
            .iter()
            .filter_map(|&(col, desc)| Some((g_cols.get(position(col)?)?, desc)))
            .chain(g_cols.iter().map(|rc| (rc, false)))
            .map(|(rc, desc)| {
                (
                    SortKeys::new(rc, reps.iter().map(|&t| input.tuple(t))),
                    desc,
                )
            })
            .collect();
        let order = sort_order(&keys, reps.len());
        if !query.order_by.is_empty() {
            interp.work += CostParams::sort(reps.len() as f64);
        }
        let agg_cols: Vec<Option<ResolvedCol<'_>>> = query
            .aggregates
            .iter()
            .map(|agg| match agg.input {
                Some(col) if !input.data.is_empty() => Ok(Some(
                    interp
                        .resolve_cols(&input, std::slice::from_ref(&col))?
                        .swap_remove(0),
                )),
                _ => Ok(None),
            })
            .collect::<Result<_, ExecError>>()?;
        let Projection::Grouped(items) = &query.projection else {
            return Err(ExecError::projection_mismatch());
        };
        let mut rows = Vec::with_capacity(order.len());
        for g in order {
            let members = &members[bounds[g]..bounds[g + 1]];
            rows.push(agg_output(
                query, items, &g_cols, &agg_cols, &input, members,
            ));
        }
        // Without GROUP BY, SQL aggregates even no input into one row.
        if rows.is_empty() && query.group_by.is_empty() {
            rows.push(agg_output(query, items, &g_cols, &agg_cols, &input, &[]));
        }
        close_wrappers(rows.len());
        return Ok(ExecOutput {
            rows,
            work: interp.work,
        });
    }

    // ORDER BY on plain queries sorts the tuples before projection (the sort
    // key need not be projected): each key column is read once per tuple
    // into a typed vector, and the stable sort keeps tie order identical.
    if !query.order_by.is_empty() {
        interp.work += CostParams::sort(input.count() as f64);
        if !input.data.is_empty() {
            let order_cols: Vec<BoundColumn> = query.order_by.iter().map(|&(c, _)| c).collect();
            let keys: Vec<(SortKeys<'_>, bool)> = interp
                .resolve_cols(&input, &order_cols)?
                .into_iter()
                .zip(&query.order_by)
                .map(|(rc, &(_, desc))| (SortKeys::new(&rc, input.tuples()), desc))
                .collect();
            let order = sort_order(&keys, input.count());
            let mut sorted = Vec::with_capacity(input.data.len());
            for i in order {
                sorted.extend_from_slice(input.tuple(i));
            }
            input.data = sorted;
        }
    }

    close_wrappers(input.count());

    // Plain projection, materialized column-wise: one pass per output
    // column over the surviving tuples.
    let cols: Vec<BoundColumn> = match &query.projection {
        Projection::Columns(cols) => cols.clone(),
        Projection::Grouped(_) => return Err(ExecError::projection_mismatch()),
        Projection::Star => {
            let mut all = Vec::new();
            for (rel, (tid, _)) in query.relations.iter().enumerate() {
                for c in 0..db.try_slices(*tid)?.schema().len() {
                    all.push(BoundColumn::new(rel, c));
                }
            }
            all
        }
    };
    let mut project_span = span.child("exec.project");
    let p_cols = if input.data.is_empty() {
        Vec::new()
    } else {
        interp.resolve_cols(&input, &cols)?
    };
    let str_cols = p_cols.iter().filter(|rc| rc.data_type() == DataType::Str);
    let block_rows = (PROJECT_CELLS / cols.len().max(1)).max(1);
    project_span.arg("rows", input.count());
    project_span.arg("cols", cols.len());
    project_span.arg("str_cols", str_cols.count());
    project_span.arg("block_rows", block_rows);
    let mut rows: Vec<Vec<Value>> = (0..input.count())
        .map(|_| Vec::with_capacity(cols.len()))
        .collect();
    if !rows.is_empty() {
        let arity = input.arity();
        for (part, tuples) in rows
            .chunks_mut(block_rows)
            .zip(input.data.chunks(block_rows * arity))
        {
            for rc in &p_cols {
                project_column(rc, tuples.chunks_exact(arity), part);
            }
        }
    }
    Ok(ExecOutput {
        rows,
        work: interp.work,
    })
}

/// Cells (rows × output columns) materialized per projection block, so a
/// block's row buffers take the same ≈ 100 KB (`Value` is 24 bytes) at any
/// width. Every output column is one pass over the block's row vectors, so
/// the block has to stay cache-resident between passes: one pass per column
/// over the *whole* result measured 14% fewer statements per second and a
/// 24% higher SELECT p99 on the benchmark's `steady-simple` workload (five
/// alternating 20 s runs). The block used to be 4096 *rows*, which at the
/// 34 columns of a `steady-complex` projection is 3.3 MB of row buffers,
/// past a 2 MiB L2.
const PROJECT_CELLS: usize = 4096;

/// Append one projected column's values to the per-row output vectors of one
/// block, with the column's type dispatch hoisted out of the row loop so
/// each iteration is a slot load, a validity load, and a typed `Value` push.
fn project_column(
    rc: &ResolvedCol<'_>,
    tuples: std::slice::ChunksExact<'_, usize>,
    rows: &mut [Vec<Value>],
) {
    /// The row loop, compiled once per payload type with `cell` inlined.
    fn fill<'a, T: 'a>(
        slot: usize,
        cells: impl At<'a, T>,
        tuples: std::slice::ChunksExact<'_, usize>,
        rows: &mut [Vec<Value>],
        cell: impl Fn(&T) -> Value,
    ) {
        for (row, t) in rows.iter_mut().zip(tuples) {
            row.push(cells.at(t[slot]).map_or(Value::Null, &cell));
        }
    }
    let slot = rc.slot;
    match &rc.cells {
        Cells::One(col) => {
            let valid = col.validity();
            match col.payload() {
                PayloadRef::Int(xs) => {
                    fill(slot, Flat { valid, xs }, tuples, rows, |&x| Value::Int(x))
                }
                PayloadRef::Date(xs) => fill(slot, Flat { valid, xs }, tuples, rows, |&x| {
                    Value::Date(x as i32)
                }),
                PayloadRef::Float(xs) => {
                    fill(slot, Flat { valid, xs }, tuples, rows, |&x| Value::Float(x))
                }
                PayloadRef::Str(xs) => fill(slot, Flat { valid, xs }, tuples, rows, |x| {
                    Value::Str(Arc::clone(x))
                }),
            }
        }
        Cells::Chain(chain) => match rc.data_type() {
            DataType::Int => fill(slot, chain.typed(PayloadRef::ints), tuples, rows, |&x| {
                Value::Int(x)
            }),
            DataType::Date => fill(slot, chain.typed(PayloadRef::ints), tuples, rows, |&x| {
                Value::Date(x as i32)
            }),
            DataType::Float => fill(slot, chain.typed(PayloadRef::floats), tuples, rows, |&x| {
                Value::Float(x)
            }),
            DataType::Str => fill(slot, chain.typed(PayloadRef::strs), tuples, rows, |x| {
                Value::Str(Arc::clone(x))
            }),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::execute_plan_reference;
    use optimizer::{OptimizeOptions, Optimizer};
    use query::{bind_statement, parse_statement, BoundStatement};
    use stats::StatsCatalog;
    use storage::{ColumnDef, DataType, Schema, ValueRef};

    fn setup() -> Database {
        let mut db = Database::new();
        let emp = db
            .create_table(
                "emp",
                Schema::new(vec![
                    ColumnDef::new("empid", DataType::Int),
                    ColumnDef::new("deptid", DataType::Int),
                    ColumnDef::new("salary", DataType::Float),
                ]),
            )
            .unwrap();
        let dept = db
            .create_table(
                "dept",
                Schema::new(vec![
                    ColumnDef::new("deptid", DataType::Int),
                    ColumnDef::new("dname", DataType::Str),
                ]),
            )
            .unwrap();
        for i in 0..100i64 {
            db.table_mut(emp)
                .insert(vec![
                    Value::Int(i),
                    Value::Int(i % 5),
                    Value::Float((i * 10) as f64),
                ])
                .unwrap();
        }
        for d in 0..5i64 {
            db.table_mut(dept)
                .insert(vec![Value::Int(d), Value::Str(format!("d{d}").into())])
                .unwrap();
        }
        db
    }

    fn bind(db: &Database, sql: &str) -> BoundSelect {
        match bind_statement(db, &parse_statement(sql).unwrap()).unwrap() {
            BoundStatement::Select(q) => q,
            _ => panic!(),
        }
    }

    fn run(db: &Database, sql: &str) -> ExecOutput {
        let q = bind(db, sql);
        let cat = StatsCatalog::new();
        let opt = Optimizer::default();
        let r = opt
            .optimize(db, &q, cat.full_view(), &OptimizeOptions::default())
            .unwrap();
        let out = execute_plan(db, &q, &r.plan, &opt.params).unwrap();
        // Every test doubles as a differential check against the retained
        // row-at-a-time reference.
        let ref_out = execute_plan_reference(db, &q, &r.plan).unwrap();
        assert_eq!(out.rows, ref_out.rows, "columnar rows diverge on {sql}");
        assert_eq!(
            out.work.to_bits(),
            ref_out.work.to_bits(),
            "columnar work diverges on {sql}"
        );
        out
    }

    #[test]
    fn typed_fingerprints_are_the_key_or_are_verified() {
        // One column per type; row 0 holds the awkward payloads (an integer
        // past `i32::MAX` in the date column, `-0.0`), row 1 plain ones (and
        // NaN), rows 2..6 a NULL in one column each, row 6 in all four.
        let types = [
            DataType::Int,
            DataType::Date,
            DataType::Float,
            DataType::Str,
        ];
        let rows: [[Value; 4]; 2] = [
            [
                Value::Int(i64::MIN),
                Value::Int((1 << 40) + 5),
                Value::Float(-0.0),
                "".into(),
            ],
            [
                Value::Int(7),
                Value::Date(9000),
                Value::Float(f64::NAN),
                "Supplier#000000042".into(),
            ],
        ];
        let mut cols = types.map(ColumnData::new);
        for row in &rows {
            for (col, v) in cols.iter_mut().zip(row) {
                col.push(v.clone());
            }
        }
        for null_at in 0..5 {
            for (c, col) in cols.iter_mut().enumerate() {
                let null = c == null_at || null_at == 4;
                col.push(if null {
                    Value::Null
                } else {
                    rows[1][c].clone()
                });
            }
        }
        let n = cols[0].len();
        let key_over = |of: &[usize]| {
            KeySet::new(
                of.iter()
                    .map(|&c| ResolvedCol {
                        slot: 0,
                        cells: Cells::One(&cols[c]),
                    })
                    .collect(),
            )
        };
        let identity: Vec<usize> = (0..n).collect();
        let fps_of = |keys: &KeySet<'_>| {
            let (mut fps, mut nulls) = (Vec::new(), Vec::new());
            let KeyCells::One { valid, .. } = keys.cols[0].cells else {
                panic!("a plain column")
            };
            keys.fingerprints(&identity[..valid.len()], 1, &mut fps, &mut nulls);
            (fps, nulls)
        };
        // A single numeric column's fingerprint is its code times the odd
        // multiplier: one-to-one, so it needs no verification.
        for c in 0..4 {
            let keys = key_over(&[c]);
            assert_eq!(keys.exact(), types[c] != DataType::Str, "{:?}", types[c]);
            let (fps, nulls) = fps_of(&keys);
            for r in 0..n {
                let code = match cols[c].get_ref(r) {
                    ValueRef::Null => NULL_CODE,
                    ValueRef::Int(x) => x as u64,
                    ValueRef::Date(d) => d as u64,
                    ValueRef::Float(f) => f.to_bits(),
                    ValueRef::Str(s) => str_code(s),
                };
                assert_eq!(fps[r], code.wrapping_mul(FP_MUL), "{:?} row {r}", types[c]);
                assert_eq!(
                    nulls[r],
                    cols[c].get_ref(r).is_null(),
                    "{:?} row {r}",
                    types[c]
                );
            }
        }
        // A composite key folds its columns in order, and a NULL component
        // is a group of its own: the seven composite keys are seven
        // fingerprints.
        let all = key_over(&[0, 1, 2, 3]);
        assert!(!all.exact());
        let (mut group_fps, nulls) = fps_of(&all);
        assert_eq!(nulls, [false, false, true, true, true, true, true]);
        group_fps.sort_unstable();
        group_fps.dedup();
        assert_eq!(group_fps.len(), 7);
        // Blocked iteration hands out the same fingerprints in order.
        let mut seen = Vec::new();
        all.for_each_fp(&identity, 1, |t, fp, null| seen.push((t[0], fp, null)));
        let (fps, nulls) = fps_of(&all);
        let want: Vec<_> = (0..n).map(|r| (r, fps[r], nulls[r])).collect();
        assert_eq!(seen, want);

        // The date stored past `i32::MAX` is the date it narrows to: same
        // fingerprint, and equal when the fingerprints are verified.
        assert_eq!(cols[1].get_ref(0), ValueRef::Date(5));
        let mut narrow = ColumnData::new(DataType::Date);
        narrow.push(Value::Date(5));
        let (wide, narrow) = (
            key_over(&[1]),
            KeySet::new(vec![ResolvedCol {
                slot: 0,
                cells: Cells::One(&narrow),
            }]),
        );
        assert!(wide.comparable(&narrow));
        assert_eq!(fps_of(&wide).0[0], fps_of(&narrow).0[0]);
        assert!(wide.keys_equal(&[0], &narrow, &[0]));
        assert!(!wide.keys_equal(&[1], &narrow, &[0]));
        // `ValueRef` calls `Int(5)` equal to `Date(5)`, and `Int(2)` to
        // `Float(2.0)`; as join keys they never match.
        let mut int = ColumnData::new(DataType::Int);
        int.push(Value::Int(5));
        let int = KeySet::new(vec![ResolvedCol {
            slot: 0,
            cells: Cells::One(&int),
        }]);
        assert_eq!(ValueRef::Int(5), ValueRef::Date(5));
        assert!(!int.comparable(&narrow) && !int.comparable(&key_over(&[2])));
        assert!(!all.comparable(&key_over(&[0])), "key widths differ");
    }

    #[test]
    fn filtered_scan() {
        let db = setup();
        let out = run(&db, "SELECT * FROM emp WHERE empid < 10");
        assert_eq!(out.row_count(), 10);
        assert!(out.work > 0.0);
    }

    #[test]
    fn traced_execution_is_bit_identical_and_well_formed() {
        // `dept.dname` has dictionary codes, as a statistic build leaves
        // them, so its `<>` (against a constant no row holds) runs on them.
        let db = setup();
        let dept = db.table_id("dept").unwrap();
        db.table(dept).column(1).str_codes();
        let sql = "SELECT * FROM emp e, dept d WHERE e.deptid = d.deptid AND d.dname <> 'd9'";
        let q = bind(&db, sql);
        let cat = StatsCatalog::new();
        let opt = Optimizer::default();
        let r = opt
            .optimize(&db, &q, cat.full_view(), &OptimizeOptions::default())
            .unwrap();
        let plain = execute_plan(&db, &q, &r.plan, &opt.params).unwrap();
        let tracer = obsv::Tracer::enabled();
        let traced = execute_plan_observed(&db, &q, &r.plan, &tracer).unwrap();
        assert_eq!(plain.rows, traced.rows);
        assert_eq!(plain.work.to_bits(), traced.work.to_bits());
        let events = tracer.flush();
        assert!(obsv::trace::validate(&events).is_empty());
        // One span per plan node plus the exec.query root and its
        // exec.project child, which comes last and counts what it built.
        let begins: Vec<&str> = events
            .iter()
            .filter(|e| e.kind == obsv::EventKind::Begin)
            .map(|e| e.name)
            .collect();
        assert_eq!(begins.len(), r.plan.nodes().len() + 2);
        assert_eq!(begins[0], "exec.query");
        assert!(begins.iter().any(|n| n.starts_with("exec.op.")));
        assert_eq!(begins.last(), Some(&"exec.project"));
        let project = |kind| {
            events
                .iter()
                .find(|e| e.kind == kind && e.name == "exec.project")
                .expect("a projection span")
        };
        assert_eq!(project(obsv::EventKind::Begin).parent, events[0].id);
        let project_end = project(obsv::EventKind::End);
        for (key, want) in [
            ("rows", plain.rows.len()),
            ("cols", 5),
            ("str_cols", 1),
            ("block_rows", PROJECT_CELLS / 5),
        ] {
            assert!(
                project_end
                    .args
                    .iter()
                    .any(|(k, v)| *k == key && *v == obsv::ArgValue::Int(want as i64)),
                "exec.project {key} = {want}: {:?}",
                project_end.args
            );
        }
        // Each scan counts its string predicates answered on codes: one on
        // `dept`, none on `emp`. Without codes the same plan compares bytes,
        // says so, and returns the same rows.
        let code_preds = |events: &[obsv::Event]| {
            let mut counts: Vec<i64> = events
                .iter()
                .filter(|e| e.kind == obsv::EventKind::End && e.name == "exec.op.SeqScan")
                .flat_map(|e| e.args.iter())
                .filter_map(|(k, v)| match (k, v) {
                    (&"code_preds", obsv::ArgValue::Int(n)) => Some(*n),
                    _ => None,
                })
                .collect();
            counts.sort_unstable();
            counts
        };
        assert_eq!(code_preds(&events), [0, 1]);
        let bytes = setup();
        let tracer = obsv::Tracer::enabled();
        let compared = execute_plan_observed(&bytes, &q, &r.plan, &tracer).unwrap();
        assert_eq!(compared.rows, plain.rows);
        assert_eq!(code_preds(&tracer.flush()), [0, 0]);
        // The join span reports the actual output cardinality.
        let join_end = events
            .iter()
            .find(|e| e.kind == obsv::EventKind::End && e.name.contains("Join"))
            .expect("a join span");
        assert!(join_end
            .args
            .iter()
            .any(|(k, v)| *k == "rows_out" && *v == obsv::ArgValue::Int(100)));
    }

    #[test]
    fn aggregate_and_sort_spans_report_actual_output_counts() {
        // Regression: the top-level HashAggregate/Sort wrappers execute in
        // `execute_impl`, and their spans used to pass through the *input*
        // cardinality. Per-operator truth capture needs the group count.
        let db = setup();
        let q = bind(
            &db,
            "SELECT deptid, COUNT(*) FROM emp GROUP BY deptid ORDER BY deptid DESC",
        );
        let cat = StatsCatalog::new();
        let opt = Optimizer::default();
        let r = opt
            .optimize(&db, &q, cat.full_view(), &OptimizeOptions::default())
            .unwrap();
        let tracer = obsv::Tracer::enabled();
        let out = execute_plan_observed(&db, &q, &r.plan, &tracer).unwrap();
        assert_eq!(out.row_count(), 5);
        let events = tracer.flush();
        assert!(obsv::trace::validate(&events).is_empty());
        let begins: Vec<&str> = events
            .iter()
            .filter(|e| e.kind == obsv::EventKind::Begin)
            .map(|e| e.name)
            .collect();
        // An aggregate's rows are built under its HashAggregate span, so
        // there is no projection and no exec.project.
        assert_eq!(begins.len(), r.plan.nodes().len() + 1);
        assert_eq!(
            &begins[..3],
            &["exec.query", "exec.op.Sort", "exec.op.HashAggregate"],
            "wrapper spans keep the plan's pre-order"
        );
        for name in ["exec.op.HashAggregate", "exec.op.Sort"] {
            let end = events
                .iter()
                .find(|e| e.kind == obsv::EventKind::End && e.name == name)
                .expect("wrapper span present");
            assert!(
                end.args
                    .iter()
                    .any(|(k, v)| *k == "rows_out" && *v == obsv::ArgValue::Int(5)),
                "{name} must report the 5 groups, not the 100 input rows: {:?}",
                end.args
            );
        }
    }

    #[test]
    fn wrapper_span_chains_differential_against_reference() {
        // Audit of the wrapper-peeling path: for every top-level wrapper
        // chain the planner can emit (Sort over HashAggregate, each alone,
        // neither), the traced execution must (a) stay bit-identical to the
        // row-at-a-time reference in rows and work, and (b) stamp each
        // wrapper span with its *post*-operator cardinality — the final
        // output count, never the pre-aggregation input count.
        let db = setup();
        let cases: [(&str, bool, bool); 4] = [
            (
                "SELECT deptid, COUNT(*) FROM emp GROUP BY deptid",
                false,
                true,
            ),
            (
                "SELECT deptid, COUNT(*) FROM emp WHERE empid < 37 \
                 GROUP BY deptid ORDER BY deptid DESC",
                true,
                true,
            ),
            (
                "SELECT * FROM emp WHERE deptid = 2 ORDER BY salary",
                true,
                false,
            ),
            ("SELECT * FROM emp WHERE empid < 12", false, false),
        ];
        let cat = StatsCatalog::new();
        let opt = Optimizer::default();
        for (sql, want_sort, want_agg) in cases {
            let q = bind(&db, sql);
            let r = opt
                .optimize(&db, &q, cat.full_view(), &OptimizeOptions::default())
                .unwrap();
            let reference = execute_plan_reference(&db, &q, &r.plan).unwrap();
            let tracer = obsv::Tracer::enabled();
            let traced = execute_plan_observed(&db, &q, &r.plan, &tracer).unwrap();
            assert_eq!(traced.rows, reference.rows, "rows diverge on {sql}");
            assert_eq!(
                traced.work.to_bits(),
                reference.work.to_bits(),
                "work diverges on {sql}"
            );
            let events = tracer.flush();
            assert!(obsv::trace::validate(&events).is_empty(), "{sql}");
            for (name, wanted) in [
                ("exec.op.Sort", want_sort),
                ("exec.op.HashAggregate", want_agg),
            ] {
                let end = events
                    .iter()
                    .find(|e| e.kind == obsv::EventKind::End && e.name == name);
                assert_eq!(end.is_some(), wanted, "{sql}: span {name}");
                if let Some(end) = end {
                    let expected = obsv::ArgValue::Int(traced.row_count() as i64);
                    assert!(
                        end.args
                            .iter()
                            .any(|(k, v)| *k == "rows_out" && *v == expected),
                        "{sql}: {name} must report the post-operator count \
                         {}: {:?}",
                        traced.row_count(),
                        end.args
                    );
                }
            }
        }
    }

    #[test]
    fn equi_join_counts() {
        let db = setup();
        let out = run(&db, "SELECT * FROM emp e, dept d WHERE e.deptid = d.deptid");
        assert_eq!(out.row_count(), 100, "every emp matches exactly one dept");
        // Projection covers both tables' columns.
        assert_eq!(out.rows[0].len(), 5);
    }

    #[test]
    fn join_with_filter() {
        let db = setup();
        let out = run(
            &db,
            "SELECT e.empid, d.dname FROM emp e, dept d \
             WHERE e.deptid = d.deptid AND e.salary >= 900.0",
        );
        assert_eq!(out.row_count(), 10);
        assert_eq!(out.rows[0].len(), 2);
    }

    #[test]
    fn group_by_with_aggregates() {
        let db = setup();
        let out = run(
            &db,
            "SELECT deptid, COUNT(*), SUM(salary), MIN(empid), MAX(empid), AVG(salary) \
             FROM emp GROUP BY deptid",
        );
        assert_eq!(out.row_count(), 5);
        // deptid = 0 group: empids 0,5,...,95 → count 20
        let g0 = out.rows.iter().find(|r| r[0] == Value::Int(0)).unwrap();
        assert_eq!(g0[1], Value::Int(20));
        assert_eq!(g0[3], Value::Int(0));
        assert_eq!(g0[4], Value::Int(95));
    }

    #[test]
    fn scalar_aggregate_without_group_by() {
        let db = setup();
        let out = run(&db, "SELECT COUNT(*) FROM emp WHERE deptid = 3");
        assert_eq!(out.row_count(), 1);
        assert_eq!(out.rows[0][0], Value::Int(20));
    }

    #[test]
    fn cartesian_product() {
        let db = setup();
        let out = run(&db, "SELECT * FROM emp, dept");
        assert_eq!(out.row_count(), 500);
    }

    #[test]
    fn oversized_cartesian_product_is_refused_before_allocating() {
        // 20 000 × 20 000 tuples of two ordinals each: 6.4 GB of intermediate
        // result, which is an abort in the allocator if it is ever asked for.
        let mut db = Database::new();
        for name in ["a", "b"] {
            let schema = Schema::new(vec![ColumnDef::new("k", DataType::Int)]);
            let t = db.create_table(name, schema).unwrap();
            for k in 0..20_000 {
                db.table_mut(t).insert(vec![Value::Int(k)]).unwrap();
            }
        }
        let q = bind(&db, "SELECT * FROM a, b");
        let opt = Optimizer::default();
        let r = opt
            .optimize(
                &db,
                &q,
                StatsCatalog::new().full_view(),
                &OptimizeOptions::default(),
            )
            .unwrap();
        assert_eq!(
            execute_plan(&db, &q, &r.plan, &opt.params).unwrap_err(),
            ExecError::ResultTooLarge {
                tuples: 400_000_000
            }
        );
    }

    #[test]
    fn empty_result() {
        let db = setup();
        let out = run(&db, "SELECT * FROM emp WHERE empid = -1");
        assert_eq!(out.row_count(), 0);
    }

    #[test]
    fn between_predicate_execution() {
        let db = setup();
        let out = run(&db, "SELECT * FROM emp WHERE empid BETWEEN 10 AND 19");
        assert_eq!(out.row_count(), 10);
    }

    #[test]
    fn order_by_sorts_output() {
        let db = setup();
        let out = run(
            &db,
            "SELECT empid FROM emp WHERE empid < 5 ORDER BY empid DESC",
        );
        let ids: Vec<Value> = out.rows.iter().map(|r| r[0].clone()).collect();
        assert_eq!(
            ids,
            vec![
                Value::Int(4),
                Value::Int(3),
                Value::Int(2),
                Value::Int(1),
                Value::Int(0)
            ]
        );
    }

    #[test]
    fn order_by_unprojected_column() {
        // Sorting by a column that is not in the projection.
        let db = setup();
        let out = run(&db, "SELECT dname FROM dept ORDER BY deptid DESC");
        assert_eq!(out.rows[0][0], Value::Str("d4".into()));
        assert_eq!(out.rows[4][0], Value::Str("d0".into()));
    }

    #[test]
    fn order_by_on_aggregate_output() {
        let db = setup();
        let out = run(
            &db,
            "SELECT deptid, COUNT(*) FROM emp GROUP BY deptid ORDER BY deptid DESC",
        );
        assert_eq!(out.rows[0][0], Value::Int(4));
        assert_eq!(out.rows[4][0], Value::Int(0));
    }

    #[test]
    fn work_is_deterministic() {
        let db = setup();
        let a = run(&db, "SELECT * FROM emp e, dept d WHERE e.deptid = d.deptid");
        let b = run(&db, "SELECT * FROM emp e, dept d WHERE e.deptid = d.deptid");
        assert_eq!(a.work, b.work);
    }

    #[test]
    fn null_join_keys_never_match() {
        let mut db = Database::new();
        let a = db
            .create_table(
                "a",
                Schema::new(vec![ColumnDef::new("k", DataType::Int).nullable()]),
            )
            .unwrap();
        let b = db
            .create_table(
                "b",
                Schema::new(vec![ColumnDef::new("k", DataType::Int).nullable()]),
            )
            .unwrap();
        for v in [Value::Int(1), Value::Null, Value::Int(2)] {
            db.table_mut(a).insert(vec![v.clone()]).unwrap();
            db.table_mut(b).insert(vec![v]).unwrap();
        }
        let out = run(&db, "SELECT * FROM a, b WHERE a.k = b.k");
        assert_eq!(out.row_count(), 2, "NULL keys must not join");
    }

    #[test]
    fn null_group_keys_form_their_own_group() {
        let mut db = Database::new();
        let t = db
            .create_table(
                "t",
                Schema::new(vec![
                    ColumnDef::new("g", DataType::Int).nullable(),
                    ColumnDef::new("v", DataType::Int),
                ]),
            )
            .unwrap();
        for (g, v) in [
            (Value::Int(1), 10),
            (Value::Null, 20),
            (Value::Int(1), 30),
            (Value::Null, 40),
        ] {
            db.table_mut(t).insert(vec![g, Value::Int(v)]).unwrap();
        }
        let out = run(&db, "SELECT g, COUNT(*) FROM t GROUP BY g");
        assert_eq!(out.row_count(), 2);
        // NULL sorts first.
        assert_eq!(out.rows[0][0], Value::Null);
        assert_eq!(out.rows[0][1], Value::Int(2));
    }

    #[test]
    fn string_join_keys_match_exactly() {
        let db = setup();
        let out = run(
            &db,
            "SELECT e.empid FROM emp e, dept d WHERE e.deptid = d.deptid AND d.dname = 'd2'",
        );
        assert_eq!(out.row_count(), 20);
    }

    #[test]
    fn mixed_query_shapes_match_the_reference() {
        // Scan, join, aggregate + sort, and sorted scan in one place; `run`
        // compares rows and work bits against the reference interpreter.
        let db = setup();
        for sql in [
            "SELECT * FROM emp WHERE empid < 10",
            "SELECT * FROM emp e, dept d WHERE e.deptid = d.deptid",
            "SELECT deptid, COUNT(*), SUM(salary) FROM emp GROUP BY deptid ORDER BY deptid",
            "SELECT * FROM emp WHERE salary >= 250.0 ORDER BY empid DESC",
        ] {
            run(&db, sql);
        }
    }

    #[test]
    fn inconsistent_plan_reports_missing_relation() {
        // A hand-built plan whose scan produces relation ordinal 1 while the
        // query's projection reads relation 0: the executor must name the
        // missing relation instead of panicking.
        let db = setup();
        let q = bind(&db, "SELECT * FROM emp");
        let t = db.table_id("emp").unwrap();
        let plan = PlanNode::leaf(
            Operator::SeqScan {
                rel: 1,
                table: t,
                preds: vec![],
            },
            100.0,
            100.0,
        );
        let err = execute_plan(&db, &q, &plan, &Optimizer::default().params).unwrap_err();
        assert_eq!(err, ExecError::MissingRelation { relation: 0 });
        assert!(err.to_string().contains("relation #0"), "{err}");
    }

    #[test]
    fn out_of_range_predicate_is_malformed_plan() {
        let db = setup();
        let q = bind(&db, "SELECT * FROM emp");
        let t = db.table_id("emp").unwrap();
        let plan = PlanNode::leaf(
            Operator::SeqScan {
                rel: 0,
                table: t,
                preds: vec![9],
            },
            100.0,
            100.0,
        );
        let err = execute_plan(&db, &q, &plan, &Optimizer::default().params).unwrap_err();
        assert!(matches!(err, ExecError::MalformedPlan { .. }), "{err:?}");
    }
}
