//! A hand-written recursive-descent parser for the supported SQL subset.
//!
//! Grammar (case-insensitive keywords, conjunctive WHERE only):
//!
//! ```text
//! statement   := select | insert | update | delete
//! select      := SELECT items FROM tables [WHERE conds] [GROUP BY columns]
//!                [ORDER BY column [ASC|DESC] (',' column [ASC|DESC])*]
//! items       := '*' | item (',' item)*
//! item        := column | agg '(' ('*' | column) ')'
//! tables      := table (',' table)*
//! table       := ident [AS] [ident]
//! conds       := cond (AND cond)*
//! cond        := column op literal | literal op column
//!              | column BETWEEN literal AND literal
//!              | column '=' column                       -- equi-join
//! insert      := INSERT INTO ident VALUES '(' literal (',' literal)* ')'
//! update      := UPDATE ident SET ident '=' literal [WHERE conds]
//! delete      := DELETE FROM ident [WHERE conds]
//! literal     := int | float | string | DATE int | NULL
//! ```

use crate::ast::*;
use std::borrow::Cow;
use std::fmt;
use storage::Value;

/// Parse failure with a human-readable message and byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub message: String,
    pub offset: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

/// A token, borrowing its text from the statement: lexing and parsing copy
/// no identifier, and a string literal is unescaped only when it becomes a
/// [`Value`].
#[derive(Clone, Copy, PartialEq)]
enum Token<'a> {
    Ident(&'a str),
    Int(i64),
    Float(f64),
    /// A string literal's text between its quotes, `''` escapes and all.
    Str(&'a str),
    Symbol(&'static str), // one of , ( ) * . = <> < <= > >=
}

/// A string literal's contents: its text with each `''` read as `'`.
fn unescape(raw: &str) -> Cow<'_, str> {
    if raw.contains('\'') {
        Cow::Owned(raw.replace("''", "'"))
    } else {
        Cow::Borrowed(raw)
    }
}

/// As `#[derive(Debug)]` would print the token with owned, unescaped text:
/// what error messages show.
impl fmt::Debug for Token<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Ident(s) => f.debug_tuple("Ident").field(s).finish(),
            Token::Int(i) => f.debug_tuple("Int").field(i).finish(),
            Token::Float(x) => f.debug_tuple("Float").field(x).finish(),
            Token::Str(raw) => f.debug_tuple("Str").field(&unescape(raw)).finish(),
            Token::Symbol(s) => f.debug_tuple("Symbol").field(s).finish(),
        }
    }
}

struct Lexer<'a> {
    src: &'a str,
    pos: usize,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer { src, pos: 0 }
    }

    fn error(&self, msg: impl Into<String>) -> ParseError {
        ParseError {
            message: msg.into(),
            offset: self.pos,
        }
    }

    fn tokenize(mut self) -> Result<Vec<(Token<'a>, usize)>, ParseError> {
        let src = self.src;
        let bytes = src.as_bytes();
        // Sized for about one token per four bytes of SQL.
        let mut out = Vec::with_capacity(src.len() / 4 + 1);
        while self.pos < bytes.len() {
            let start = self.pos;
            let c = bytes[self.pos] as char;
            if c.is_ascii_whitespace() {
                self.pos += 1;
                continue;
            }
            if c.is_ascii_alphabetic() || c == '_' {
                let mut end = self.pos;
                while end < bytes.len()
                    && ((bytes[end] as char).is_ascii_alphanumeric() || bytes[end] == b'_')
                {
                    end += 1;
                }
                out.push((Token::Ident(&src[self.pos..end]), start));
                self.pos = end;
                continue;
            }
            if c.is_ascii_digit()
                || (c == '-'
                    && self.pos + 1 < bytes.len()
                    && (bytes[self.pos + 1] as char).is_ascii_digit())
            {
                let mut end = self.pos + 1;
                let mut is_float = false;
                while end < bytes.len() {
                    let d = bytes[end] as char;
                    if d.is_ascii_digit() {
                        end += 1;
                    } else if d == '.'
                        && !is_float
                        && end + 1 < bytes.len()
                        && (bytes[end + 1] as char).is_ascii_digit()
                    {
                        is_float = true;
                        end += 1;
                    } else {
                        break;
                    }
                }
                let text = &self.src[self.pos..end];
                let tok = if is_float {
                    Token::Float(text.parse().map_err(|_| self.error("bad float literal"))?)
                } else {
                    Token::Int(text.parse().map_err(|_| self.error("bad int literal"))?)
                };
                out.push((tok, start));
                self.pos = end;
                continue;
            }
            if c == '\'' {
                let mut end = self.pos + 1;
                loop {
                    if end >= bytes.len() {
                        return Err(self.error("unterminated string literal"));
                    }
                    if bytes[end] == b'\'' {
                        // '' is an escaped quote
                        if end + 1 < bytes.len() && bytes[end + 1] == b'\'' {
                            end += 2;
                            continue;
                        }
                        break;
                    }
                    end += 1;
                }
                out.push((Token::Str(&src[self.pos + 1..end]), start));
                self.pos = end + 1;
                continue;
            }
            let sym: &'static str = match c {
                ',' => ",",
                '(' => "(",
                ')' => ")",
                '*' => "*",
                '.' => ".",
                '=' => "=",
                '<' => {
                    if self.pos + 1 < bytes.len() && bytes[self.pos + 1] == b'>' {
                        self.pos += 1;
                        "<>"
                    } else if self.pos + 1 < bytes.len() && bytes[self.pos + 1] == b'=' {
                        self.pos += 1;
                        "<="
                    } else {
                        "<"
                    }
                }
                '>' => {
                    if self.pos + 1 < bytes.len() && bytes[self.pos + 1] == b'=' {
                        self.pos += 1;
                        ">="
                    } else {
                        ">"
                    }
                }
                ';' => {
                    self.pos += 1;
                    continue; // trailing semicolons are allowed and ignored
                }
                _ => return Err(self.error(format!("unexpected character '{c}'"))),
            };
            out.push((Token::Symbol(sym), start));
            self.pos += 1;
        }
        Ok(out)
    }
}

struct Parser<'a> {
    tokens: Vec<(Token<'a>, usize)>,
    pos: usize,
    /// Length of the input in bytes: where an error at end of input points.
    end: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<Token<'a>> {
        self.tokens.get(self.pos).map(|&(t, _)| t)
    }

    fn offset(&self) -> usize {
        self.tokens
            .get(self.pos)
            .map(|&(_, o)| o)
            .unwrap_or(self.end)
    }

    fn error(&self, msg: impl Into<String>) -> ParseError {
        ParseError {
            message: msg.into(),
            offset: self.offset(),
        }
    }

    fn next(&mut self) -> Option<Token<'a>> {
        let t = self.peek();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    /// Consume a keyword (case-insensitive); error if absent.
    fn expect_kw(&mut self, kw: &str) -> Result<(), ParseError> {
        match self.next() {
            Some(Token::Ident(s)) if s.eq_ignore_ascii_case(kw) => Ok(()),
            other => Err(self.error(format!("expected keyword {kw}, found {other:?}"))),
        }
    }

    /// Consume a keyword if it is next; return whether it was.
    fn eat_kw(&mut self, kw: &str) -> bool {
        if let Some(Token::Ident(s)) = self.peek() {
            if s.eq_ignore_ascii_case(kw) {
                self.pos += 1;
                return true;
            }
        }
        false
    }

    fn eat_symbol(&mut self, sym: &str) -> bool {
        if let Some(Token::Symbol(s)) = self.peek() {
            if s == sym {
                self.pos += 1;
                return true;
            }
        }
        false
    }

    fn expect_symbol(&mut self, sym: &str) -> Result<(), ParseError> {
        if self.eat_symbol(sym) {
            Ok(())
        } else {
            Err(self.error(format!("expected '{sym}'")))
        }
    }

    fn ident(&mut self) -> Result<&'a str, ParseError> {
        match self.next() {
            Some(Token::Ident(s)) => Ok(s),
            other => Err(self.error(format!("expected identifier, found {other:?}"))),
        }
    }

    fn is_keyword(s: &str) -> bool {
        const KEYWORDS: &[&str] = &[
            "select", "from", "where", "group", "by", "and", "between", "insert", "into", "values",
            "update", "set", "delete", "as", "date", "null", "order", "asc", "desc",
        ];
        KEYWORDS.iter().any(|k| s.eq_ignore_ascii_case(k))
    }

    fn literal(&mut self) -> Result<Value, ParseError> {
        match self.next() {
            Some(Token::Int(i)) => Ok(Value::Int(i)),
            Some(Token::Float(f)) => Ok(Value::Float(f)),
            Some(Token::Str(raw)) => Ok(Value::Str(unescape(raw).as_ref().into())),
            Some(Token::Ident(s)) if s.eq_ignore_ascii_case("null") => Ok(Value::Null),
            Some(Token::Ident(s)) if s.eq_ignore_ascii_case("date") => match self.next() {
                Some(Token::Int(d)) => Ok(Value::Date(d as i32)),
                _ => Err(self.error("expected integer after DATE")),
            },
            other => Err(self.error(format!("expected literal, found {other:?}"))),
        }
    }

    /// `ident['.'ident]` as a column reference.
    fn column_ref(&mut self) -> Result<ColumnRef, ParseError> {
        let first = self.ident()?;
        if self.eat_symbol(".") {
            let second = self.ident()?;
            Ok(ColumnRef::new(first, second))
        } else {
            Ok(ColumnRef::bare(first))
        }
    }

    /// A non-keyword identifier, or `DATE` not followed by a literal: a
    /// `DATE` before a literal starts a date literal, which errs unless the
    /// literal is an integer.
    fn looks_like_column(&self) -> bool {
        matches!(self.peek(), Some(Token::Ident(s)) if !Self::is_keyword(s))
            || matches!(self.peek(), Some(Token::Ident(s)) if s.eq_ignore_ascii_case("date"))
                && !matches!(
                    self.tokens.get(self.pos + 1).map(|(t, _)| t),
                    Some(Token::Int(_) | Token::Float(_) | Token::Str(_))
                )
    }

    fn cmp_op(&mut self) -> Result<CmpOp, ParseError> {
        match self.next() {
            Some(Token::Symbol("=")) => Ok(CmpOp::Eq),
            Some(Token::Symbol("<>")) => Ok(CmpOp::Ne),
            Some(Token::Symbol("<")) => Ok(CmpOp::Lt),
            Some(Token::Symbol("<=")) => Ok(CmpOp::Le),
            Some(Token::Symbol(">")) => Ok(CmpOp::Gt),
            Some(Token::Symbol(">=")) => Ok(CmpOp::Ge),
            other => Err(self.error(format!("expected comparison operator, found {other:?}"))),
        }
    }

    fn condition(&mut self) -> Result<Condition, ParseError> {
        if self.looks_like_column() {
            let column = self.column_ref()?;
            if self.eat_kw("between") {
                let low = self.literal()?;
                self.expect_kw("and")?;
                let high = self.literal()?;
                return Ok(Condition::Between { column, low, high });
            }
            let op = self.cmp_op()?;
            if self.looks_like_column() {
                let right = self.column_ref()?;
                if op != CmpOp::Eq {
                    return Err(self.error("column-to-column predicates must be equi-joins"));
                }
                return Ok(Condition::Join {
                    left: column,
                    right,
                });
            }
            let value = self.literal()?;
            Ok(Condition::Compare { column, op, value })
        } else {
            // literal op column  →  normalize to column-first
            let value = self.literal()?;
            let op = self.cmp_op()?;
            let column = self.column_ref()?;
            Ok(Condition::Compare {
                column,
                op: op.flipped(),
                value,
            })
        }
    }

    fn conditions(&mut self) -> Result<Vec<Condition>, ParseError> {
        let mut out = vec![self.condition()?];
        while self.eat_kw("and") {
            out.push(self.condition()?);
        }
        Ok(out)
    }

    fn select_item(&mut self) -> Result<SelectItem, ParseError> {
        if self.eat_symbol("*") {
            return Ok(SelectItem::Star);
        }
        const AGGREGATES: [(&str, AggFunc); 5] = [
            ("count", AggFunc::Count),
            ("sum", AggFunc::Sum),
            ("avg", AggFunc::Avg),
            ("min", AggFunc::Min),
            ("max", AggFunc::Max),
        ];
        if let Some(Token::Ident(s)) = self.peek() {
            let agg = AGGREGATES
                .iter()
                .find(|(name, _)| s.eq_ignore_ascii_case(name))
                .map(|&(_, func)| func);
            if let Some(func) = agg {
                // Only treat as an aggregate when followed by '('.
                if matches!(
                    self.tokens.get(self.pos + 1).map(|(t, _)| t),
                    Some(Token::Symbol("("))
                ) {
                    self.pos += 1; // func name
                    self.expect_symbol("(")?;
                    let input = if self.eat_symbol("*") {
                        None
                    } else {
                        Some(self.column_ref()?)
                    };
                    self.expect_symbol(")")?;
                    return Ok(SelectItem::Aggregate(func, input));
                }
            }
        }
        Ok(SelectItem::Column(self.column_ref()?))
    }

    fn table_ref(&mut self) -> Result<TableRef, ParseError> {
        let table = self.ident()?.to_string();
        let _ = self.eat_kw("as");
        if let Some(Token::Ident(s)) = self.peek() {
            if !Self::is_keyword(s) {
                let alias = self.ident()?;
                return Ok(TableRef::aliased(table, alias));
            }
        }
        Ok(TableRef::new(table))
    }

    fn select(&mut self) -> Result<SelectStmt, ParseError> {
        self.expect_kw("select")?;
        let mut items = vec![self.select_item()?];
        while self.eat_symbol(",") {
            items.push(self.select_item()?);
        }
        self.expect_kw("from")?;
        let mut from = vec![self.table_ref()?];
        while self.eat_symbol(",") {
            from.push(self.table_ref()?);
        }
        let conditions = if self.eat_kw("where") {
            self.conditions()?
        } else {
            Vec::new()
        };
        let group_by = if self.eat_kw("group") {
            self.expect_kw("by")?;
            let mut cols = vec![self.column_ref()?];
            while self.eat_symbol(",") {
                cols.push(self.column_ref()?);
            }
            cols
        } else {
            Vec::new()
        };
        let order_by = if self.eat_kw("order") {
            self.expect_kw("by")?;
            let mut keys = vec![self.order_key()?];
            while self.eat_symbol(",") {
                keys.push(self.order_key()?);
            }
            keys
        } else {
            Vec::new()
        };
        Ok(SelectStmt {
            items,
            from,
            conditions,
            group_by,
            order_by,
        })
    }

    fn order_key(&mut self) -> Result<OrderKey, ParseError> {
        let column = self.column_ref()?;
        let descending = if self.eat_kw("desc") {
            true
        } else {
            let _ = self.eat_kw("asc");
            false
        };
        Ok(OrderKey { column, descending })
    }

    fn insert(&mut self) -> Result<InsertStmt, ParseError> {
        self.expect_kw("insert")?;
        self.expect_kw("into")?;
        let table = self.ident()?.to_string();
        self.expect_kw("values")?;
        self.expect_symbol("(")?;
        let mut values = vec![self.literal()?];
        while self.eat_symbol(",") {
            values.push(self.literal()?);
        }
        self.expect_symbol(")")?;
        Ok(InsertStmt { table, values })
    }

    fn update(&mut self) -> Result<UpdateStmt, ParseError> {
        self.expect_kw("update")?;
        let table = self.ident()?.to_string();
        self.expect_kw("set")?;
        let set_column = self.ident()?.to_string();
        self.expect_symbol("=")?;
        let set_value = self.literal()?;
        let conditions = if self.eat_kw("where") {
            self.conditions()?
        } else {
            Vec::new()
        };
        Ok(UpdateStmt {
            table,
            set_column,
            set_value,
            conditions,
        })
    }

    fn delete(&mut self) -> Result<DeleteStmt, ParseError> {
        self.expect_kw("delete")?;
        self.expect_kw("from")?;
        let table = self.ident()?.to_string();
        let conditions = if self.eat_kw("where") {
            self.conditions()?
        } else {
            Vec::new()
        };
        Ok(DeleteStmt { table, conditions })
    }

    fn statement(&mut self) -> Result<Statement, ParseError> {
        match self.peek() {
            Some(Token::Ident(s)) if s.eq_ignore_ascii_case("select") => {
                Ok(Statement::Select(self.select()?))
            }
            Some(Token::Ident(s)) if s.eq_ignore_ascii_case("insert") => {
                Ok(Statement::Insert(self.insert()?))
            }
            Some(Token::Ident(s)) if s.eq_ignore_ascii_case("update") => {
                Ok(Statement::Update(self.update()?))
            }
            Some(Token::Ident(s)) if s.eq_ignore_ascii_case("delete") => {
                Ok(Statement::Delete(self.delete()?))
            }
            other => Err(self.error(format!("expected a statement, found {other:?}"))),
        }
    }
}

/// Parse one SQL statement in the supported subset.
///
/// ```
/// use query::parse_statement;
/// let stmt = parse_statement(
///     "SELECT l_returnflag, COUNT(*) FROM lineitem \
///      WHERE l_quantity < 24.0 GROUP BY l_returnflag",
/// )?;
/// let q = stmt.as_select().ok_or("not a select")?;
/// assert_eq!(q.group_by.len(), 1);
/// assert!(parse_statement("SELECT FROM nothing").is_err());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn parse_statement(sql: &str) -> Result<Statement, ParseError> {
    let tokens = Lexer::new(sql).tokenize()?;
    let mut parser = Parser {
        tokens,
        pos: 0,
        end: sql.len(),
    };
    let stmt = parser.statement()?;
    if parser.peek().is_some() {
        return Err(parser.error("trailing tokens after statement"));
    }
    Ok(stmt)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_select_star() {
        let s = parse_statement("SELECT * FROM t WHERE a < 10").unwrap();
        let q = s.as_select().unwrap();
        assert_eq!(q.from, vec![TableRef::new("t")]);
        assert_eq!(
            q.conditions,
            vec![Condition::Compare {
                column: ColumnRef::bare("a"),
                op: CmpOp::Lt,
                value: Value::Int(10),
            }]
        );
    }

    #[test]
    fn parses_join_and_aliases() {
        let s = parse_statement(
            "SELECT e.name, d.dname FROM emp e, dept AS d \
             WHERE e.deptid = d.deptid AND e.age < 30 AND e.salary > 200",
        )
        .unwrap();
        let q = s.as_select().unwrap();
        assert_eq!(q.from.len(), 2);
        assert_eq!(q.from[1].binding_name(), "d");
        assert!(matches!(q.conditions[0], Condition::Join { .. }));
        assert_eq!(q.conditions.len(), 3);
    }

    #[test]
    fn parses_between_and_group_by() {
        let s = parse_statement(
            "SELECT brand, COUNT(*), SUM(price) FROM part \
             WHERE size BETWEEN 1 AND 15 GROUP BY brand",
        )
        .unwrap();
        let q = s.as_select().unwrap();
        assert_eq!(q.group_by, vec![ColumnRef::bare("brand")]);
        assert!(matches!(
            q.items[1],
            SelectItem::Aggregate(AggFunc::Count, None)
        ));
        assert!(matches!(q.conditions[0], Condition::Between { .. }));
    }

    #[test]
    fn normalizes_literal_first_comparison() {
        let s = parse_statement("SELECT * FROM t WHERE 10 > a").unwrap();
        let q = s.as_select().unwrap();
        assert_eq!(
            q.conditions[0],
            Condition::Compare {
                column: ColumnRef::bare("a"),
                op: CmpOp::Lt,
                value: Value::Int(10),
            }
        );
    }

    #[test]
    fn parses_dml() {
        let ins = parse_statement("INSERT INTO t VALUES (1, 'x', 2.5, DATE 100, NULL)").unwrap();
        match ins {
            Statement::Insert(i) => {
                assert_eq!(i.values.len(), 5);
                assert_eq!(i.values[3], Value::Date(100));
                assert_eq!(i.values[4], Value::Null);
            }
            _ => panic!("not an insert"),
        }
        let upd = parse_statement("UPDATE t SET a = 5 WHERE b = 'q'").unwrap();
        assert!(matches!(upd, Statement::Update(_)));
        let del = parse_statement("DELETE FROM t WHERE a >= 3").unwrap();
        assert!(matches!(del, Statement::Delete(_)));
    }

    #[test]
    fn string_escape_roundtrip() {
        let s = parse_statement("SELECT * FROM t WHERE name = 'o''brien'").unwrap();
        let q = s.as_select().unwrap();
        match &q.conditions[0] {
            Condition::Compare { value, .. } => {
                assert_eq!(*value, Value::Str("o'brien".into()))
            }
            _ => panic!(),
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_statement("SELECT FROM").is_err());
        assert!(parse_statement("SELECT * FROM t WHERE a ! 3").is_err());
        assert!(parse_statement("SELECT * FROM t extra junk, here").is_err());
        assert!(parse_statement("SELECT * FROM t WHERE a < b").is_err()); // non-eq join

        // Input that stops short is an error at its end.
        for sql in [
            "SELECT",
            "SELECT * FROM",
            "SELECT * FROM t WHERE",
            "SELECT * FROM t ORDER BY",
        ] {
            let err = parse_statement(sql).unwrap_err();
            assert_eq!(err.offset, sql.len(), "{sql}: {err}");
        }
    }

    #[test]
    fn parse_errors_pin_their_message_and_offset() {
        let cases: [(&str, &str, usize); 14] = [
            (
                "SELECT * FROM t WHERE s = 'abc",
                "unterminated string literal",
                26,
            ),
            (
                "SELECT * FROM t WHERE s = '",
                "unterminated string literal",
                26,
            ),
            (
                "SELECT * FROM t WHERE a ! 3",
                "unexpected character '!'",
                24,
            ),
            (
                "SELECT * t",
                "expected keyword from, found Some(Ident(\"t\"))",
                10,
            ),
            (
                "SELECT * FROM t WHERE a BETWEEN 1 'x''y' 3",
                "expected keyword and, found Some(Str(\"x'y\"))",
                41,
            ),
            ("SELECT * FROM t x y", "trailing tokens after statement", 18),
            (
                "INSERT INTO t VALUES (DATE 'x')",
                "expected integer after DATE",
                30,
            ),
            (
                "SELECT * FROM t WHERE a BETWEEN DATE 1.5 AND DATE 2",
                "expected integer after DATE",
                41,
            ),
            (
                "SELECT * FROM t WHERE d = DATE 'x'",
                "expected integer after DATE",
                34,
            ),
            (
                "SELECT * FROM t WHERE d = DATE 1.5",
                "expected integer after DATE",
                34,
            ),
            ("", "expected a statement, found None", 0),
            (
                "EXPLAIN SELECT",
                "expected a statement, found Some(Ident(\"EXPLAIN\"))",
                0,
            ),
            (
                "SELECT * FROM t WHERE a = 99999999999999999999",
                "bad int literal",
                26,
            ),
            (
                "SELECT * FROM t WHERE a < b",
                "column-to-column predicates must be equi-joins",
                27,
            ),
        ];
        for (sql, message, offset) in cases {
            assert_eq!(
                parse_statement(sql),
                Err(ParseError {
                    message: message.to_string(),
                    offset
                }),
                "{sql}"
            );
        }
    }

    #[test]
    fn string_literals_keep_their_text() {
        for (sql, text) in [
            (
                "SELECT * FROM t WHERE s = 'caf\u{e9} \u{3b2}'",
                "caf\u{e9} \u{3b2}",
            ),
            ("SELECT * FROM t WHERE s = ''''", "'"),
            ("SELECT * FROM t WHERE s = 'o''brien'''", "o'brien'"),
            ("SELECT * FROM t WHERE s = ''", ""),
        ] {
            let q = parse_statement(sql).unwrap();
            match &q.as_select().unwrap().conditions[0] {
                Condition::Compare { value, .. } => assert_eq!(*value, Value::Str(text.into())),
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn parses_order_by() {
        let s = parse_statement("SELECT * FROM t WHERE a > 1 ORDER BY b DESC, c ASC, d").unwrap();
        let q = s.as_select().unwrap();
        assert_eq!(q.order_by.len(), 3);
        assert!(q.order_by[0].descending);
        assert!(!q.order_by[1].descending);
        assert!(!q.order_by[2].descending);
    }

    #[test]
    fn order_by_after_group_by() {
        let s = parse_statement("SELECT b, COUNT(*) FROM t GROUP BY b ORDER BY b").unwrap();
        let q = s.as_select().unwrap();
        assert_eq!(q.group_by.len(), 1);
        assert_eq!(q.order_by.len(), 1);
    }

    #[test]
    fn trailing_semicolon_ok() {
        assert!(parse_statement("SELECT * FROM t;").is_ok());
    }

    #[test]
    fn negative_numbers() {
        let s = parse_statement("SELECT * FROM t WHERE a > -5 AND b = -1.5").unwrap();
        let q = s.as_select().unwrap();
        assert_eq!(q.conditions.len(), 2);
        match &q.conditions[1] {
            Condition::Compare { value, .. } => assert_eq!(*value, Value::Float(-1.5)),
            _ => panic!(),
        }
    }
}
