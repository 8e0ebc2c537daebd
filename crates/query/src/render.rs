//! Rendering statements back to SQL text.
//!
//! `parse_statement(render(s)) == s` for every statement the workload
//! generator produces, literal types included; the property tests in this
//! crate and in `datagen` rely on that round-trip.

use crate::ast::*;
use std::fmt::{self, Write};
use storage::Value;

/// A literal as SQL text that parses back to the same [`Value`]: an integral
/// finite float keeps a `.0`, which `Value`'s `Display` drops (`25.0` would
/// print `25` and parse back as an `Int`).
struct Literal<'a>(&'a Value);

impl fmt::Display for Literal<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            Value::Float(x) if x.is_finite() && x.fract() == 0.0 => write!(f, "{x:.1}"),
            v => write!(f, "{v}"),
        }
    }
}

fn render_condition(c: &Condition, out: &mut String) {
    match c {
        Condition::Compare { column, op, value } => {
            let _ = write!(out, "{column} {op} {}", Literal(value));
        }
        Condition::Between { column, low, high } => {
            let _ = write!(
                out,
                "{column} BETWEEN {} AND {}",
                Literal(low),
                Literal(high)
            );
        }
        Condition::Join { left, right } => {
            let _ = write!(out, "{left} = {right}");
        }
    }
}

fn render_conditions(conds: &[Condition], out: &mut String) {
    for (i, c) in conds.iter().enumerate() {
        if i == 0 {
            out.push_str(" WHERE ");
        } else {
            out.push_str(" AND ");
        }
        render_condition(c, out);
    }
}

/// Render a statement as SQL text.
pub fn render(stmt: &Statement) -> String {
    let mut out = String::new();
    match stmt {
        Statement::Select(q) => {
            out.push_str("SELECT ");
            for (i, item) in q.items.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                match item {
                    SelectItem::Star => out.push('*'),
                    SelectItem::Column(c) => {
                        let _ = write!(out, "{c}");
                    }
                    SelectItem::Aggregate(f, arg) => {
                        let _ = write!(out, "{}(", f.name());
                        match arg {
                            Some(c) => {
                                let _ = write!(out, "{c}");
                            }
                            None => out.push('*'),
                        }
                        out.push(')');
                    }
                }
            }
            out.push_str(" FROM ");
            for (i, t) in q.from.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str(&t.table);
                if let Some(a) = &t.alias {
                    let _ = write!(out, " {a}");
                }
            }
            render_conditions(&q.conditions, &mut out);
            if !q.group_by.is_empty() {
                out.push_str(" GROUP BY ");
                for (i, c) in q.group_by.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    let _ = write!(out, "{c}");
                }
            }
            if !q.order_by.is_empty() {
                out.push_str(" ORDER BY ");
                for (i, k) in q.order_by.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    let _ = write!(out, "{}", k.column);
                    if k.descending {
                        out.push_str(" DESC");
                    }
                }
            }
        }
        Statement::Insert(ins) => {
            let _ = write!(out, "INSERT INTO {} VALUES (", ins.table);
            for (i, v) in ins.values.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "{}", Literal(v));
            }
            out.push(')');
        }
        Statement::Update(u) => {
            let _ = write!(
                out,
                "UPDATE {} SET {} = {}",
                u.table,
                u.set_column,
                Literal(&u.set_value)
            );
            render_conditions(&u.conditions, &mut out);
        }
        Statement::Delete(d) => {
            let _ = write!(out, "DELETE FROM {}", d.table);
            render_conditions(&d.conditions, &mut out);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_statement;
    use storage::Value;

    fn roundtrip(sql: &str) {
        let stmt = parse_statement(sql).unwrap();
        let rendered = render(&stmt);
        let reparsed = parse_statement(&rendered)
            .unwrap_or_else(|e| panic!("re-parse of {rendered:?} failed: {e}"));
        assert_eq!(stmt, reparsed, "round-trip mismatch for {sql}");
    }

    #[test]
    fn roundtrips() {
        roundtrip("SELECT * FROM t WHERE a < 10");
        roundtrip("SELECT a.x, COUNT(*) FROM t1 a, t2 b WHERE a.x = b.y AND a.z BETWEEN 1 AND 2 GROUP BY a.x");
        roundtrip("INSERT INTO t VALUES (1, 'a''b', -2.5, DATE 77, NULL)");
        roundtrip("UPDATE t SET c = 'v' WHERE k = 3");
        roundtrip("DELETE FROM t WHERE a >= 100");
        roundtrip("SELECT SUM(x), MIN(y), MAX(z), AVG(w) FROM t");
        roundtrip("SELECT * FROM t ORDER BY a DESC, b");
        roundtrip("SELECT b, COUNT(*) FROM t WHERE a = 1 GROUP BY b ORDER BY b DESC");
    }

    #[test]
    fn renders_programmatic_query() {
        let q = SelectStmt::star_from([TableRef::aliased("orders", "o")]).with_condition(
            Condition::Compare {
                column: ColumnRef::new("o", "total"),
                op: CmpOp::Gt,
                value: Value::Float(100.0),
            },
        );
        assert_eq!(
            render(&Statement::Select(q)),
            "SELECT * FROM orders o WHERE o.total > 100.0"
        );
    }
}
