//! A string column's dictionary codes (`ColumnData::str_codes`) against the
//! cells they code, through random runs of every write: `push` (NULLs
//! included), `set`, `delete_rows`, another column's rows pushed after them
//! (cells read out of a column with or without codes into one with or
//! without), and a `clone` followed by a write to either copy. After every step each live column's codes must be equal
//! exactly where its cells are equal and below their bound, and the column
//! must read back what was written, cell for cell the same allocations.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::collections::HashMap;
use std::sync::Arc;
use storage::{ColumnData, DataType, PayloadRef, Value};

/// The strings written: few, so that rows share them, the empty string
/// (what a NULL pads with) among them.
const POOL: [&str; 5] = ["", "a", "bb", "a\u{e9}", "zz"];

/// A column and what it should read: one entry per row, the cell stored for
/// it or `None` for a NULL.
#[derive(Clone)]
struct Tracked {
    col: ColumnData,
    model: Vec<Option<Arc<str>>>,
}

impl Tracked {
    fn new() -> Tracked {
        Tracked {
            col: ColumnData::new(DataType::Str),
            model: Vec::new(),
        }
    }

    fn push(&mut self, s: Option<usize>) {
        let cell = s.map(|i| Arc::<str>::from(POOL[i % POOL.len()]));
        self.col.push(cell.clone().map_or(Value::Null, Value::Str));
        self.model.push(cell);
    }

    fn cells(&self) -> &[Arc<str>] {
        match self.col.payload() {
            PayloadRef::Str(xs) => xs,
            other => panic!("a string column, not {other:?}"),
        }
    }

    /// The codes agree with the cells, and the column reads the model. A
    /// column without codes is checked through a clone, which makes its
    /// own, so that the column goes on without them.
    fn check(&self) -> Result<(), TestCaseError> {
        let probe = self.clone();
        let cells = probe.cells();
        let (codes, bound) = probe.col.str_codes().expect("a string column has codes");
        prop_assert_eq!(codes.len(), cells.len());
        let mut code_of: HashMap<&str, u32> = HashMap::new();
        let mut string_of: HashMap<u32, &str> = HashMap::new();
        for (cell, &code) in cells.iter().zip(codes) {
            prop_assert!((code as usize) < bound, "code {} of bound {}", code, bound);
            prop_assert_eq!(*code_of.entry(cell).or_insert(code), code);
            prop_assert_eq!(*string_of.entry(code).or_insert(cell), &**cell);
        }
        prop_assert_eq!(probe.col.len(), self.model.len());
        for (i, want) in self.model.iter().enumerate() {
            let value = want.clone().map_or(Value::Null, Value::Str);
            prop_assert_eq!(probe.col.get(i), value);
            if let Some(cell) = want {
                prop_assert!(Arc::ptr_eq(&cells[i], cell), "row {} was copied", i);
            }
        }
        Ok(())
    }

    /// Apply write `op` (a kind and two operands) to this column; `other`
    /// supplies the rows of an append.
    fn write(&mut self, (kind, a, b): (u8, usize, usize), other: &Tracked) {
        let len = self.model.len();
        match kind % 4 {
            0 => self.push((a % 6 != 5).then_some(b)),
            1 if len > 0 => {
                let (row, s) = (a % len, (b % 6 != 5).then_some(b));
                let cell = s.map(|i| Arc::<str>::from(POOL[i % POOL.len()]));
                let value = cell.clone().map_or(Value::Null, Value::Str);
                self.col.set(row, value).unwrap();
                self.model[row] = cell;
            }
            2 if len > 0 => {
                let step = 1 + b % 3;
                let rows: Vec<usize> = (a % len..len).step_by(step).collect();
                self.col.delete_rows(&rows);
                let mut doomed = rows.iter().peekable();
                let mut row = 0;
                self.model.retain(|_| {
                    let keep = doomed.next_if_eq(&&row).is_none();
                    row += 1;
                    keep
                });
            }
            _ => {
                other.col.iter().for_each(|v| self.col.push(v));
                self.model.extend(other.model.iter().cloned());
            }
        }
    }
}

type Op = (u8, usize, usize);

/// Runs one write sequence on a column and a donor for its appends. `encode`
/// says, per step, whether to ask the column (and the donor) for codes
/// first, so codes are made at any point and then maintained. A step whose
/// kind is 7 clones the column and writes to the copy or the original.
fn run(ops: &[(Op, bool, bool)]) -> Result<(), TestCaseError> {
    let mut col = Tracked::new();
    let mut donor = Tracked::new();
    for (i, &(op, encode, donor_encode)) in ops.iter().enumerate() {
        if encode {
            col.col.str_codes();
        }
        if donor_encode {
            donor.col.str_codes();
        }
        if op.0 == 7 {
            // Copy-on-write: the written copy and the untouched one must
            // each hold their own rows and codes.
            let mut copy = col.clone();
            let next = (op.1 as u8, op.2, op.1 ^ op.2);
            if op.2 % 2 == 0 {
                copy.write(next, &donor);
            } else {
                col.write(next, &donor);
            }
            copy.check()?;
            col.check()?;
            col = copy;
        } else {
            col.write(op, &donor);
        }
        // The donor grows too, with or without codes of its own.
        donor.push((i % 4 != 3).then_some(op.1 + op.2));
        if encode || i % 5 == 0 {
            col.check()?;
        }
    }
    col.check()?;
    donor.check()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn codes_follow_every_write(
        ops in prop::collection::vec(
            ((0u8..8, 0usize..40, 0usize..40), 0u8..4, 0u8..3),
            0..60,
        ),
    ) {
        let ops: Vec<(Op, bool, bool)> = ops
            .into_iter()
            .map(|(op, encode, donor)| (op, encode == 0, donor == 0))
            .collect();
        run(&ops)?;
    }
}

/// A dictionary that outgrew its column is dropped by the write that made
/// it so, and made again, from the rows left, when next asked for.
#[test]
fn codes_outgrown_by_writes_are_made_again() {
    let mut col = ColumnData::new(DataType::Str);
    for _ in 0..4 {
        col.push(Value::Str("same".into()));
    }
    assert_eq!(
        col.str_codes().map(|(c, b)| (c.to_vec(), b)),
        Some((vec![0; 4], 1))
    );
    for i in 0..2000 {
        col.set(i % 4, Value::Str(format!("s{i}").into())).unwrap();
    }
    let (codes, bound) = col.str_codes().unwrap();
    assert!(bound <= 2 * 4 + 1024, "bound {bound}");
    assert_eq!(codes.len(), 4);
    assert_eq!(ColumnData::new(DataType::Int).str_codes(), None);
}
