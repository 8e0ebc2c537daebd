//! Name resolution against a `storage::Database`.

use crate::ast::*;
use crate::bound::*;
use std::fmt;
use storage::{DataType, Database, TableId, Value};

/// Binding errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BindError {
    UnknownTable(String),
    UnknownColumn(String),
    AmbiguousColumn(String),
    DuplicateBindingName(String),
    SelfJoinColumnPair(String),
    TypeMismatch {
        column: String,
        expected: String,
        found: String,
    },
    ArityMismatch {
        table: String,
        expected: usize,
        found: usize,
    },
    /// A grouped or aggregating SELECT projects `*`, or projects or orders
    /// by a column that is not a GROUP BY column.
    Ungrouped(String),
    /// An INSERT puts NULL into a column that is not nullable.
    NullViolation {
        table: String,
        column: String,
    },
}

impl fmt::Display for BindError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BindError::UnknownTable(t) => write!(f, "unknown table '{t}'"),
            BindError::UnknownColumn(c) => write!(f, "unknown column '{c}'"),
            BindError::AmbiguousColumn(c) => write!(f, "ambiguous column '{c}'"),
            BindError::DuplicateBindingName(n) => {
                write!(f, "duplicate table binding name '{n}' in FROM")
            }
            BindError::SelfJoinColumnPair(c) => write!(
                f,
                "join predicate '{c}' relates two columns of the same relation; not supported"
            ),
            BindError::TypeMismatch {
                column,
                expected,
                found,
            } => {
                write!(
                    f,
                    "type mismatch on {column}: expected {expected}, found {found}"
                )
            }
            BindError::ArityMismatch {
                table,
                expected,
                found,
            } => write!(
                f,
                "INSERT into {table} expects {expected} values, found {found}"
            ),
            BindError::Ungrouped(c) => {
                write!(f, "'{c}' in a grouped SELECT is not a GROUP BY column")
            }
            BindError::NullViolation { table, column } => {
                write!(f, "NULL inserted into NOT NULL column {table}.{column}")
            }
        }
    }
}

impl std::error::Error for BindError {}

struct Scope<'a> {
    db: &'a Database,
    /// `(table id, binding name)` per relation, in FROM order. A FROM list
    /// is a handful of relations, so a name is found by a case-insensitive
    /// scan, with nothing lowercased into a new `String`.
    relations: Vec<(TableId, String)>,
}

impl<'a> Scope<'a> {
    fn build(db: &'a Database, from: &[TableRef]) -> Result<Self, BindError> {
        let mut scope = Scope {
            db,
            relations: Vec::with_capacity(from.len()),
        };
        for t in from {
            let id = db
                .table_id(&t.table)
                .ok_or_else(|| BindError::UnknownTable(t.table.clone()))?;
            let name = t.binding_name();
            if scope.relation_named(name).is_some() {
                return Err(BindError::DuplicateBindingName(name.to_string()));
            }
            scope.relations.push((id, name.to_string()));
        }
        Ok(scope)
    }

    /// The ordinal of the relation bound as `name`, in any letter case.
    fn relation_named(&self, name: &str) -> Option<usize> {
        self.relations
            .iter()
            .position(|(_, n)| n.eq_ignore_ascii_case(name))
    }

    fn resolve(&self, c: &ColumnRef) -> Result<BoundColumn, BindError> {
        if let Some(q) = &c.qualifier {
            let rel = self
                .relation_named(q)
                .ok_or_else(|| BindError::UnknownTable(q.clone()))?;
            let col = self
                .db
                .schema(self.relations[rel].0)
                .index_of(&c.column)
                .ok_or_else(|| BindError::UnknownColumn(c.to_string()))?;
            return Ok(BoundColumn::new(rel, col));
        }
        let mut found: Option<BoundColumn> = None;
        for (rel, (tid, _)) in self.relations.iter().enumerate() {
            if let Some(col) = self.db.schema(*tid).index_of(&c.column) {
                if found.is_some() {
                    return Err(BindError::AmbiguousColumn(c.column.clone()));
                }
                found = Some(BoundColumn::new(rel, col));
            }
        }
        found.ok_or_else(|| BindError::UnknownColumn(c.column.clone()))
    }

    fn column_type(&self, c: BoundColumn) -> DataType {
        self.db
            .schema(self.relations[c.relation].0)
            .column(c.column)
            .data_type
    }

    fn check_literal(
        &self,
        col: BoundColumn,
        name: &ColumnRef,
        v: &Value,
    ) -> Result<(), BindError> {
        check_literal(self.column_type(col), name, v)
    }
}

/// A literal fits a column of type `expected` when it is NULL, of that
/// type, or an INT meeting a FLOAT or DATE column — what
/// `storage::ColumnData` accepts. `name` is the column as the statement
/// spelled it.
fn check_literal(expected: DataType, name: &dyn fmt::Display, v: &Value) -> Result<(), BindError> {
    let Some(vt) = v.data_type() else {
        return Ok(());
    };
    let ok = vt == expected
        || matches!(
            (vt, expected),
            (DataType::Int, DataType::Float | DataType::Date)
        );
    if ok {
        Ok(())
    } else {
        Err(BindError::TypeMismatch {
            column: name.to_string(),
            expected: expected.to_string(),
            found: vt.to_string(),
        })
    }
}

/// Group raw join conjuncts into per-relation-pair join edges, pair columns
/// normalized so `left_rel < right_rel`.
fn build_join_edges(raw: Vec<(BoundColumn, BoundColumn)>) -> Vec<JoinEdge> {
    let mut edges: Vec<JoinEdge> = Vec::new();
    for (a, b) in raw {
        let (l, r) = if a.relation <= b.relation {
            (a, b)
        } else {
            (b, a)
        };
        if let Some(e) = edges
            .iter_mut()
            .find(|e| e.left_rel == l.relation && e.right_rel == r.relation)
        {
            if !e.pairs.contains(&(l.column, r.column)) {
                e.pairs.push((l.column, r.column));
            }
        } else {
            edges.push(JoinEdge {
                left_rel: l.relation,
                right_rel: r.relation,
                pairs: vec![(l.column, r.column)],
            });
        }
    }
    edges
}

/// Bind one SELECT. A grouped or aggregating SELECT follows SQL's grouping
/// rules: every projected or ORDER BY column is a GROUP BY column, `*` is
/// not written, and SUM and AVG read no string column.
pub fn bind_select(db: &Database, q: &SelectStmt) -> Result<BoundSelect, BindError> {
    let scope = Scope::build(db, &q.from)?;

    let mut selections = Vec::new();
    let mut raw_joins = Vec::new();
    for c in &q.conditions {
        match c {
            Condition::Compare { column, op, value } => {
                let col = scope.resolve(column)?;
                scope.check_literal(col, column, value)?;
                selections.push(SelectionPredicate {
                    column: col,
                    op: PredOp::Cmp(*op, value.clone()),
                });
            }
            Condition::Between { column, low, high } => {
                let col = scope.resolve(column)?;
                scope.check_literal(col, column, low)?;
                scope.check_literal(col, column, high)?;
                selections.push(SelectionPredicate {
                    column: col,
                    op: PredOp::Between(low.clone(), high.clone()),
                });
            }
            Condition::Join { left, right } => {
                let l = scope.resolve(left)?;
                let r = scope.resolve(right)?;
                if l.relation == r.relation {
                    return Err(BindError::SelfJoinColumnPair(format!("{left} = {right}")));
                }
                raw_joins.push((l, r));
            }
        }
    }

    let mut group_by = Vec::with_capacity(q.group_by.len());
    for g in &q.group_by {
        group_by.push(scope.resolve(g)?);
    }

    let grouped = !group_by.is_empty()
        || q.items
            .iter()
            .any(|i| matches!(i, SelectItem::Aggregate(..)));
    let grouping_key = |name: &dyn fmt::Display, col: BoundColumn| {
        if grouped && !group_by.contains(&col) {
            return Err(BindError::Ungrouped(name.to_string()));
        }
        Ok(col)
    };

    let mut order_by = Vec::with_capacity(q.order_by.len());
    for k in &q.order_by {
        let col = scope.resolve(&k.column)?;
        order_by.push((grouping_key(&k.column, col)?, k.descending));
    }

    let mut aggregates = Vec::new();
    let mut proj_cols = Vec::new();
    // A grouped SELECT's output, in SELECT-list order.
    let mut output = Vec::new();
    let mut star = false;
    for item in &q.items {
        match item {
            SelectItem::Star if grouped => return Err(BindError::Ungrouped("*".to_string())),
            SelectItem::Star => star = true,
            SelectItem::Column(c) => {
                let col = grouping_key(c, scope.resolve(c)?)?;
                match group_by.iter().position(|&g| g == col) {
                    Some(key) if grouped => output.push(OutputItem::Key(key)),
                    _ => proj_cols.push(col),
                }
            }
            SelectItem::Aggregate(f, arg) => {
                let input = match arg {
                    Some(c) => {
                        let col = scope.resolve(c)?;
                        let ty = scope.column_type(col);
                        if ty == DataType::Str && matches!(f, AggFunc::Sum | AggFunc::Avg) {
                            return Err(BindError::TypeMismatch {
                                column: format!("{}({c})", f.name()),
                                expected: "a number".to_string(),
                                found: ty.to_string(),
                            });
                        }
                        Some(col)
                    }
                    None => None,
                };
                output.push(OutputItem::Aggregate(aggregates.len()));
                aggregates.push(BoundAggregate { func: *f, input });
            }
        }
    }
    let projection = if grouped {
        Projection::Grouped(output)
    } else if star || proj_cols.is_empty() {
        Projection::Star
    } else {
        Projection::Columns(proj_cols)
    };

    Ok(BoundSelect {
        relations: scope.relations,
        projection,
        aggregates,
        selections,
        join_edges: build_join_edges(raw_joins),
        group_by,
        order_by,
    })
}

fn bind_filter_for_table(
    db: &Database,
    table: TableId,
    table_name: &str,
    conds: &[Condition],
) -> Result<Vec<SelectionPredicate>, BindError> {
    // Reuse the select machinery with a synthetic single-table scope.
    let scope = Scope::build(db, &[TableRef::new(table_name)])?;
    debug_assert_eq!(scope.relations[0].0, table);
    let mut out = Vec::new();
    for c in conds {
        match c {
            Condition::Compare { column, op, value } => {
                let col = scope.resolve(column)?;
                scope.check_literal(col, column, value)?;
                out.push(SelectionPredicate {
                    column: col,
                    op: PredOp::Cmp(*op, value.clone()),
                });
            }
            Condition::Between { column, low, high } => {
                let col = scope.resolve(column)?;
                out.push(SelectionPredicate {
                    column: col,
                    op: PredOp::Between(low.clone(), high.clone()),
                });
            }
            Condition::Join { left, right } => {
                return Err(BindError::SelfJoinColumnPair(format!("{left} = {right}")));
            }
        }
    }
    Ok(out)
}

/// Bind a statement against the database.
pub fn bind_statement(db: &Database, stmt: &Statement) -> Result<BoundStatement, BindError> {
    match stmt {
        Statement::Select(q) => Ok(BoundStatement::Select(bind_select(db, q)?)),
        Statement::Insert(i) => {
            let table = db
                .table_id(&i.table)
                .ok_or_else(|| BindError::UnknownTable(i.table.clone()))?;
            let schema = db.schema(table);
            if schema.len() != i.values.len() {
                return Err(BindError::ArityMismatch {
                    table: i.table.clone(),
                    expected: schema.len(),
                    found: i.values.len(),
                });
            }
            // What `storage::Table` would refuse, refused before the write
            // opens the slot.
            for (def, v) in schema.columns().iter().zip(&i.values) {
                if v.is_null() && !def.nullable {
                    return Err(BindError::NullViolation {
                        table: i.table.clone(),
                        column: def.name.clone(),
                    });
                }
                check_literal(def.data_type, &def.name, v)?;
            }
            Ok(BoundStatement::Insert(BoundInsert {
                table,
                values: i.values.clone(),
            }))
        }
        Statement::Update(u) => {
            let table = db
                .table_id(&u.table)
                .ok_or_else(|| BindError::UnknownTable(u.table.clone()))?;
            let schema = db.schema(table);
            let set_column = schema
                .index_of(&u.set_column)
                .ok_or_else(|| BindError::UnknownColumn(u.set_column.clone()))?;
            let def = schema.column(set_column);
            // The NULL `storage::Table::update_rows` would refuse, refused
            // as INSERT's is.
            if u.set_value.is_null() && !def.nullable {
                return Err(BindError::NullViolation {
                    table: u.table.clone(),
                    column: def.name.clone(),
                });
            }
            check_literal(def.data_type, &u.set_column, &u.set_value)?;
            let selections = bind_filter_for_table(db, table, &u.table, &u.conditions)?;
            Ok(BoundStatement::Update(BoundUpdate {
                table,
                set_column,
                set_value: u.set_value.clone(),
                selections,
            }))
        }
        Statement::Delete(d) => {
            let table = db
                .table_id(&d.table)
                .ok_or_else(|| BindError::UnknownTable(d.table.clone()))?;
            let selections = bind_filter_for_table(db, table, &d.table, &d.conditions)?;
            Ok(BoundStatement::Delete(BoundDelete { table, selections }))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_statement;
    use storage::{ColumnDef, Schema};

    fn test_db() -> Database {
        let mut db = Database::new();
        db.create_table(
            "emp",
            Schema::new(vec![
                ColumnDef::new("empid", DataType::Int),
                ColumnDef::new("deptid", DataType::Int),
                ColumnDef::new("age", DataType::Int),
                ColumnDef::new("salary", DataType::Float),
            ]),
        )
        .unwrap();
        db.create_table(
            "dept",
            Schema::new(vec![
                ColumnDef::new("deptid", DataType::Int),
                ColumnDef::new("dname", DataType::Str),
            ]),
        )
        .unwrap();
        db
    }

    fn bind(db: &Database, sql: &str) -> Result<BoundStatement, BindError> {
        bind_statement(db, &parse_statement(sql).unwrap())
    }

    #[test]
    fn binds_example2_query() {
        // Example 2 from the paper.
        let db = test_db();
        let b = bind(
            &db,
            "SELECT e.empid, d.dname FROM emp e, dept d \
             WHERE e.deptid = d.deptid AND e.age < 30 AND e.salary > 200",
        )
        .unwrap();
        let q = b.as_select().unwrap();
        assert_eq!(q.relations.len(), 2);
        assert_eq!(q.selections.len(), 2);
        assert_eq!(q.join_edges.len(), 1);
        assert_eq!(q.join_edges[0].pairs, vec![(1, 0)]);
        assert_eq!(
            q.predicate_ids(),
            vec![
                PredicateId::Selection(0),
                PredicateId::Selection(1),
                PredicateId::JoinEdge(0)
            ]
        );
    }

    #[test]
    fn multi_column_join_fuses_into_one_edge() {
        let mut db = Database::new();
        for t in ["r1", "r2"] {
            db.create_table(
                t,
                Schema::new(vec![
                    ColumnDef::new("a", DataType::Int),
                    ColumnDef::new("b", DataType::Int),
                ]),
            )
            .unwrap();
        }
        let b = bind(
            &db,
            "SELECT * FROM r1, r2 WHERE r1.a = r2.a AND r1.b = r2.b",
        )
        .unwrap();
        let q = b.as_select().unwrap();
        assert_eq!(q.join_edges.len(), 1);
        assert_eq!(q.join_edges[0].pairs.len(), 2);
    }

    #[test]
    fn unqualified_ambiguous_column_rejected() {
        let db = test_db();
        let err = bind(&db, "SELECT * FROM emp, dept WHERE deptid = 1").unwrap_err();
        assert!(matches!(err, BindError::AmbiguousColumn(_)));
    }

    #[test]
    fn unqualified_unique_column_resolves() {
        let db = test_db();
        let b = bind(&db, "SELECT * FROM emp, dept WHERE age < 30").unwrap();
        let q = b.as_select().unwrap();
        assert_eq!(q.selections[0].column, BoundColumn::new(0, 2));
    }

    #[test]
    fn type_mismatch_rejected() {
        let db = test_db();
        let err = bind(&db, "SELECT * FROM emp WHERE age = 'old'").unwrap_err();
        assert!(matches!(err, BindError::TypeMismatch { .. }));
    }

    #[test]
    fn update_set_value_is_checked_like_a_where_literal() {
        let db = test_db();
        for sql in [
            "UPDATE emp SET age = 'old' WHERE empid < 3",
            "UPDATE emp SET age = 1.5",
            "UPDATE dept SET dname = 7",
        ] {
            let err = bind(&db, sql).unwrap_err();
            assert!(
                matches!(err, BindError::TypeMismatch { .. }),
                "{sql}: {err}"
            );
        }
        // NULL into a column that is not nullable, as INSERT refuses it.
        let err = bind(&db, "UPDATE emp SET age = NULL").unwrap_err();
        assert!(
            matches!(err, BindError::NullViolation { ref column, .. } if column == "age"),
            "{err}"
        );
        // What the column store accepts still binds: the column's own type,
        // an INT into a FLOAT column.
        for sql in [
            "UPDATE emp SET age = 31 WHERE empid < 3",
            "UPDATE emp SET salary = 100",
            "UPDATE emp SET salary = 99.5",
            "UPDATE dept SET dname = 'ops'",
        ] {
            assert!(bind(&db, sql).is_ok(), "{sql}");
        }
    }

    #[test]
    fn duplicate_binding_rejected() {
        let db = test_db();
        let err = bind(&db, "SELECT * FROM emp e, dept e").unwrap_err();
        assert!(matches!(err, BindError::DuplicateBindingName(_)));
    }

    #[test]
    fn self_join_pair_rejected() {
        let db = test_db();
        let err = bind(&db, "SELECT * FROM emp WHERE empid = deptid").unwrap_err();
        assert!(matches!(err, BindError::SelfJoinColumnPair(_)));
    }

    #[test]
    fn binds_dml() {
        let db = test_db();
        let ins = bind(&db, "INSERT INTO dept VALUES (1, 'eng')").unwrap();
        assert!(matches!(ins, BoundStatement::Insert(_)));
        let upd = bind(&db, "UPDATE emp SET salary = 100.0 WHERE age > 60").unwrap();
        match upd {
            BoundStatement::Update(u) => {
                assert_eq!(u.set_column, 3);
                assert_eq!(u.selections.len(), 1);
            }
            _ => panic!(),
        }
        let err = bind(&db, "INSERT INTO dept VALUES (1)").unwrap_err();
        assert!(matches!(err, BindError::ArityMismatch { .. }));
    }

    /// An INSERT binds only a row the table takes: each value of its
    /// column's type (an INT meets a FLOAT column) and no NULL in a column
    /// that is not nullable.
    #[test]
    fn insert_values_are_checked_like_the_table_checks_a_row() {
        let db = test_db();
        assert_eq!(
            bind(&db, "INSERT INTO dept VALUES ('x', 'eng')").unwrap_err(),
            BindError::TypeMismatch {
                column: "deptid".to_string(),
                expected: "INT".to_string(),
                found: "VARCHAR".to_string(),
            }
        );
        assert_eq!(
            bind(&db, "INSERT INTO dept VALUES (1, NULL)").unwrap_err(),
            BindError::NullViolation {
                table: "dept".to_string(),
                column: "dname".to_string(),
            }
        );
        assert!(matches!(
            bind(&db, "INSERT INTO emp VALUES (1, 2, 1.5, 3)").unwrap_err(),
            BindError::TypeMismatch { .. }
        ));
        bind(&db, "INSERT INTO emp VALUES (1, 2, 30, 100)").unwrap();
    }

    #[test]
    fn group_by_and_aggregates_bind() {
        let db = test_db();
        let b = bind(
            &db,
            "SELECT deptid, COUNT(*), AVG(salary) FROM emp GROUP BY deptid",
        )
        .unwrap();
        let q = b.as_select().unwrap();
        assert_eq!(q.group_by.len(), 1);
        assert_eq!(q.aggregates.len(), 2);
        assert_eq!(q.predicate_ids(), vec![PredicateId::GroupBy]);
    }

    #[test]
    fn grouped_select_rejects_a_projected_column_outside_group_by() {
        let db = test_db();
        for sql in [
            "SELECT age, COUNT(*) FROM emp GROUP BY deptid",
            "SELECT deptid, age FROM emp GROUP BY deptid",
            "SELECT age, MIN(salary) FROM emp",
        ] {
            assert_eq!(
                bind(&db, sql).unwrap_err(),
                BindError::Ungrouped("age".to_string()),
                "{sql}"
            );
        }
        // An aggregates-only list still binds.
        let b = bind(&db, "SELECT COUNT(*), MAX(age) FROM emp").unwrap();
        assert_eq!(
            b.as_select().unwrap().projection,
            Projection::Grouped(vec![OutputItem::Aggregate(0), OutputItem::Aggregate(1)])
        );
    }

    #[test]
    fn grouped_select_rejects_a_written_star() {
        let db = test_db();
        for sql in [
            "SELECT * FROM emp GROUP BY deptid",
            "SELECT *, COUNT(*) FROM emp",
        ] {
            assert_eq!(
                bind(&db, sql).unwrap_err(),
                BindError::Ungrouped("*".to_string()),
                "{sql}"
            );
        }
    }

    #[test]
    fn grouped_select_rejects_an_order_by_key_outside_group_by() {
        let db = test_db();
        for sql in [
            "SELECT deptid, COUNT(*) FROM emp GROUP BY deptid ORDER BY age DESC",
            "SELECT COUNT(*) FROM emp ORDER BY age",
        ] {
            assert_eq!(
                bind(&db, sql).unwrap_err(),
                BindError::Ungrouped("age".to_string()),
                "{sql}"
            );
        }
        let q = bind(
            &db,
            "SELECT deptid, age, COUNT(*) FROM emp GROUP BY deptid, age ORDER BY age DESC",
        )
        .unwrap();
        assert_eq!(
            q.as_select().unwrap().order_by,
            vec![(BoundColumn::new(0, 2), true)]
        );
        // An ungrouped SELECT orders by any column.
        bind(&db, "SELECT empid FROM emp ORDER BY age").unwrap();
    }

    #[test]
    fn sum_and_avg_reject_a_string_column() {
        let db = test_db();
        for func in ["SUM", "AVG"] {
            let sql = format!("SELECT deptid, {func}(dname) FROM dept GROUP BY deptid");
            assert_eq!(
                bind(&db, &sql).unwrap_err(),
                BindError::TypeMismatch {
                    column: format!("{func}(dname)"),
                    expected: "a number".to_string(),
                    found: "VARCHAR".to_string(),
                },
                "{sql}"
            );
        }
        // MIN, MAX and COUNT read strings.
        bind(
            &db,
            "SELECT deptid, MIN(dname), MAX(dname), COUNT(dname) FROM dept GROUP BY deptid",
        )
        .unwrap();
    }
}
