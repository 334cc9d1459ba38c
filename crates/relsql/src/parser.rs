//! SQL parser for the supported subset.
//!
//! ```text
//! stmt   := create | insert | select | update | delete | drop
//! create := CREATE TABLE name '(' coldef (',' coldef)* ')'
//! coldef := name type [PRIMARY KEY]
//! insert := INSERT INTO name ['(' cols ')'] VALUES '(' literals ')'
//! select := SELECT ('*' | COUNT '(' '*' ')' | cols) FROM name
//!           [WHERE pred] [ORDER BY col [ASC|DESC]] [LIMIT n]
//! update := UPDATE name SET col '=' lit (',' col '=' lit)* [WHERE pred]
//! delete := DELETE FROM name [WHERE pred]
//! drop   := DROP TABLE name
//! pred   := conj (OR conj)*
//! conj   := unit (AND unit)*
//! unit   := NOT unit | '(' pred ')' | col [NOT] LIKE 'pat' | col IS [NOT] NULL
//!         | operand cmp operand
//! ```

use crate::ast::{CmpOp, Operand, OrderBy, Pred, SelectCols, Stmt};
use crate::lexer::{lex_sql, SqlLexError, Tok};
use crate::table::{ColType, Column};
use crate::value::SqlValue;
use gintern::Sym;
use std::fmt;

/// Parse failure.
#[derive(Debug, Clone, PartialEq)]
pub struct SqlParseError(pub String);

impl fmt::Display for SqlParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SQL parse error: {}", self.0)
    }
}

impl std::error::Error for SqlParseError {}

impl From<SqlLexError> for SqlParseError {
    fn from(e: SqlLexError) -> Self {
        SqlParseError(e.to_string())
    }
}

/// Deepest nesting of `NOT` and parentheses a predicate may have; deeper
/// input is a [`SqlParseError`], not a stack overflow.
pub const MAX_DEPTH: usize = 128;

/// Most `AND`/`OR` operators one predicate may hold.  `a = 1 AND …`
/// parses into a left-deep tree that evaluation, printing and drop all
/// recurse down, so this — with [`MAX_DEPTH`] — bounds the tree's
/// height.  It is counted per predicate, not per chain: a parenthesised
/// chain can open each of [`MAX_DEPTH`] nested chains, and their heights
/// add.  A chain this long runs, prints and drops on a 2 MB debug thread.
pub const MAX_OPERATORS: usize = 4096;

/// Parse one statement.
pub fn parse_stmt(sql: &str) -> Result<Stmt, SqlParseError> {
    let toks = lex_sql(sql)?;
    let mut p = P {
        toks,
        pos: 0,
        operators: 0,
    };
    let stmt = p.stmt()?;
    if p.pos != p.toks.len() {
        return Err(SqlParseError(format!(
            "trailing tokens starting at '{}'",
            p.toks[p.pos]
        )));
    }
    Ok(stmt)
}

struct P {
    toks: Vec<Tok>,
    pos: usize,
    /// `AND`/`OR` operators accepted so far (bounded by [`MAX_OPERATORS`]).
    operators: usize,
}

impl P {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos)
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek().is_some_and(|t| t.is_word(kw)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), SqlParseError> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(SqlParseError(format!(
                "expected {kw}, found {}",
                self.peek().map_or("end".into(), |t| t.to_string())
            )))
        }
    }

    fn eat_tok(&mut self, t: &Tok) -> bool {
        if self.peek() == Some(t) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_tok(&mut self, t: &Tok) -> Result<(), SqlParseError> {
        if self.eat_tok(t) {
            Ok(())
        } else {
            Err(SqlParseError(format!(
                "expected '{t}', found {}",
                self.peek().map_or("end".into(), |x| x.to_string())
            )))
        }
    }

    fn ident(&mut self) -> Result<String, SqlParseError> {
        match self.bump() {
            Some(Tok::Word(w)) => Ok(w.to_ascii_lowercase()),
            other => Err(SqlParseError(format!(
                "expected identifier, found {}",
                other.map_or("end".into(), |t| t.to_string())
            ))),
        }
    }

    /// An identifier the statement keeps: lowercased and interned, so
    /// execution compares names by symbol instead of hashing strings.
    fn sym(&mut self) -> Result<Sym, SqlParseError> {
        self.ident().map(|w| gintern::intern(&w))
    }

    fn literal(&mut self) -> Result<SqlValue, SqlParseError> {
        match self.bump() {
            Some(Tok::Int(i)) => Ok(SqlValue::Int(i)),
            Some(Tok::Real(r)) => Ok(SqlValue::Real(r)),
            Some(Tok::Str(s)) => Ok(SqlValue::Text(s)),
            Some(Tok::Word(w)) if w.eq_ignore_ascii_case("null") => Ok(SqlValue::Null),
            other => Err(SqlParseError(format!(
                "expected literal, found {}",
                other.map_or("end".into(), |t| t.to_string())
            ))),
        }
    }

    fn stmt(&mut self) -> Result<Stmt, SqlParseError> {
        if self.eat_kw("CREATE") {
            return self.create();
        }
        if self.eat_kw("INSERT") {
            return self.insert();
        }
        if self.eat_kw("SELECT") {
            return self.select();
        }
        if self.eat_kw("UPDATE") {
            return self.update();
        }
        if self.eat_kw("DELETE") {
            return self.delete();
        }
        if self.eat_kw("DROP") {
            self.expect_kw("TABLE")?;
            let name = self.sym()?;
            return Ok(Stmt::DropTable { name });
        }
        Err(SqlParseError(format!(
            "unknown statement start: {}",
            self.peek().map_or("end".into(), |t| t.to_string())
        )))
    }

    fn create(&mut self) -> Result<Stmt, SqlParseError> {
        self.expect_kw("TABLE")?;
        let name = self.sym()?;
        self.expect_tok(&Tok::LParen)?;
        let mut columns = Vec::new();
        let mut primary_key = None;
        loop {
            let cname = self.sym()?;
            let ty = match self.ident()?.as_str() {
                "int" | "integer" | "bigint" => ColType::Int,
                "real" | "float" | "double" => ColType::Real,
                "text" | "varchar" | "char" | "string" => ColType::Text,
                other => return Err(SqlParseError(format!("unknown column type {other:?}"))),
            };
            if self.eat_kw("PRIMARY") {
                self.expect_kw("KEY")?;
                if primary_key.is_some() {
                    return Err(SqlParseError("multiple primary keys".into()));
                }
                primary_key = Some(columns.len());
            }
            columns.push(Column { name: cname, ty });
            if self.eat_tok(&Tok::RParen) {
                break;
            }
            self.expect_tok(&Tok::Comma)?;
        }
        Ok(Stmt::CreateTable {
            name,
            columns,
            primary_key,
        })
    }

    fn insert(&mut self) -> Result<Stmt, SqlParseError> {
        self.expect_kw("INTO")?;
        let table = self.sym()?;
        let columns = if self.eat_tok(&Tok::LParen) {
            let mut cols = Vec::new();
            loop {
                cols.push(self.sym()?);
                if self.eat_tok(&Tok::RParen) {
                    break;
                }
                self.expect_tok(&Tok::Comma)?;
            }
            Some(cols)
        } else {
            None
        };
        self.expect_kw("VALUES")?;
        self.expect_tok(&Tok::LParen)?;
        let mut values = Vec::new();
        loop {
            values.push(self.literal()?);
            if self.eat_tok(&Tok::RParen) {
                break;
            }
            self.expect_tok(&Tok::Comma)?;
        }
        Ok(Stmt::Insert {
            table,
            columns,
            values,
        })
    }

    fn select(&mut self) -> Result<Stmt, SqlParseError> {
        let cols = if self.eat_tok(&Tok::Star) {
            SelectCols::Star
        } else if self.peek().is_some_and(|t| t.is_word("COUNT")) {
            self.pos += 1;
            self.expect_tok(&Tok::LParen)?;
            self.expect_tok(&Tok::Star)?;
            self.expect_tok(&Tok::RParen)?;
            SelectCols::CountStar
        } else {
            let mut cols = vec![self.sym()?];
            while self.eat_tok(&Tok::Comma) {
                cols.push(self.sym()?);
            }
            SelectCols::Columns(cols)
        };
        self.expect_kw("FROM")?;
        let table = self.sym()?;
        let where_ = if self.eat_kw("WHERE") {
            Some(self.pred(0)?)
        } else {
            None
        };
        let order_by = if self.eat_kw("ORDER") {
            self.expect_kw("BY")?;
            let column = self.sym()?;
            let desc = if self.eat_kw("DESC") {
                true
            } else {
                let _ = self.eat_kw("ASC");
                false
            };
            Some(OrderBy { column, desc })
        } else {
            None
        };
        let limit = if self.eat_kw("LIMIT") {
            match self.bump() {
                Some(Tok::Int(n)) if n >= 0 => Some(n as usize),
                other => {
                    return Err(SqlParseError(format!(
                        "expected LIMIT count, found {}",
                        other.map_or("end".into(), |t| t.to_string())
                    )))
                }
            }
        } else {
            None
        };
        Ok(Stmt::Select {
            cols,
            table,
            where_,
            order_by,
            limit,
        })
    }

    fn update(&mut self) -> Result<Stmt, SqlParseError> {
        let table = self.sym()?;
        self.expect_kw("SET")?;
        let mut sets = Vec::new();
        loop {
            let col = self.sym()?;
            self.expect_tok(&Tok::Eq)?;
            let v = self.literal()?;
            sets.push((col, v));
            if !self.eat_tok(&Tok::Comma) {
                break;
            }
        }
        let where_ = if self.eat_kw("WHERE") {
            Some(self.pred(0)?)
        } else {
            None
        };
        Ok(Stmt::Update {
            table,
            sets,
            where_,
        })
    }

    fn delete(&mut self) -> Result<Stmt, SqlParseError> {
        self.expect_kw("FROM")?;
        let table = self.sym()?;
        let where_ = if self.eat_kw("WHERE") {
            Some(self.pred(0)?)
        } else {
            None
        };
        Ok(Stmt::Delete { table, where_ })
    }

    /// A predicate reached `depth` `NOT`s and parentheses down; every
    /// level starts at a [`P::unit`], which enforces the bound.
    fn pred(&mut self, depth: usize) -> Result<Pred, SqlParseError> {
        let mut lhs = self.conj(depth)?;
        while self.eat_kw("OR") {
            self.count_operator()?;
            let rhs = self.conj(depth)?;
            lhs = Pred::Or(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn conj(&mut self, depth: usize) -> Result<Pred, SqlParseError> {
        let mut lhs = self.unit(depth)?;
        while self.eat_kw("AND") {
            self.count_operator()?;
            let rhs = self.unit(depth)?;
            lhs = Pred::And(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn count_operator(&mut self) -> Result<(), SqlParseError> {
        self.operators += 1;
        if self.operators > MAX_OPERATORS {
            return Err(SqlParseError(format!(
                "more than {MAX_OPERATORS} AND/OR operators"
            )));
        }
        Ok(())
    }

    fn unit(&mut self, depth: usize) -> Result<Pred, SqlParseError> {
        if depth > MAX_DEPTH {
            return Err(SqlParseError(format!("nesting deeper than {MAX_DEPTH}")));
        }
        if self.eat_kw("NOT") {
            return Ok(Pred::Not(Box::new(self.unit(depth + 1)?)));
        }
        if self.eat_tok(&Tok::LParen) {
            let p = self.pred(depth + 1)?;
            self.expect_tok(&Tok::RParen)?;
            return Ok(p);
        }
        let lhs = self.operand()?;
        // [NOT] LIKE only applies to columns.
        let negated_like = {
            let save = self.pos;
            if self.eat_kw("NOT") {
                if self.peek().is_some_and(|t| t.is_word("LIKE")) {
                    Some(true)
                } else {
                    self.pos = save;
                    None
                }
            } else if self.peek().is_some_and(|t| t.is_word("LIKE")) {
                Some(false)
            } else {
                None
            }
        };
        if let Some(negated) = negated_like {
            self.expect_kw("LIKE")?;
            let Operand::Column(column) = lhs else {
                return Err(SqlParseError("LIKE requires a column".into()));
            };
            let pattern = match self.bump() {
                Some(Tok::Str(s)) => s,
                other => {
                    return Err(SqlParseError(format!(
                        "LIKE needs a string pattern, found {}",
                        other.map_or("end".into(), |t| t.to_string())
                    )))
                }
            };
            return Ok(Pred::Like {
                column,
                pattern,
                negated,
            });
        }
        // IS [NOT] NULL only applies to columns.
        if self.peek().is_some_and(|t| t.is_word("IS")) {
            let Operand::Column(c) = lhs else {
                return Err(SqlParseError("IS NULL requires a column".into()));
            };
            self.pos += 1;
            if self.eat_kw("NOT") {
                self.expect_kw("NULL")?;
                return Ok(Pred::IsNotNull(c));
            }
            self.expect_kw("NULL")?;
            return Ok(Pred::IsNull(c));
        }
        let op = match self.bump() {
            Some(Tok::Eq) => CmpOp::Eq,
            Some(Tok::Ne) => CmpOp::Ne,
            Some(Tok::Lt) => CmpOp::Lt,
            Some(Tok::Le) => CmpOp::Le,
            Some(Tok::Gt) => CmpOp::Gt,
            Some(Tok::Ge) => CmpOp::Ge,
            other => {
                return Err(SqlParseError(format!(
                    "expected comparison operator, found {}",
                    other.map_or("end".into(), |t| t.to_string())
                )))
            }
        };
        let rhs = self.operand()?;
        Ok(Pred::Cmp(lhs, op, rhs))
    }

    fn operand(&mut self) -> Result<Operand, SqlParseError> {
        match self.peek() {
            Some(Tok::Word(w)) if !w.eq_ignore_ascii_case("null") => {
                Ok(Operand::Column(self.sym()?))
            }
            _ => Ok(Operand::Lit(self.literal()?)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_create() {
        let s =
            parse_stmt("CREATE TABLE producers (url TEXT PRIMARY KEY, tablename TEXT, host TEXT)")
                .unwrap();
        match s {
            Stmt::CreateTable {
                name,
                columns,
                primary_key,
            } => {
                assert_eq!(name, "producers");
                assert_eq!(columns.len(), 3);
                assert_eq!(primary_key, Some(0));
                assert_eq!(columns[0].ty, ColType::Text);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn parse_insert_positional_and_named() {
        let s = parse_stmt("INSERT INTO t VALUES (1, 'a', 2.5, NULL)").unwrap();
        match s {
            Stmt::Insert {
                columns, values, ..
            } => {
                assert!(columns.is_none());
                assert_eq!(values.len(), 4);
                assert_eq!(values[3], SqlValue::Null);
            }
            _ => panic!(),
        }
        let s = parse_stmt("INSERT INTO t (a, b) VALUES (1, 2)").unwrap();
        match s {
            Stmt::Insert { columns, .. } => {
                assert_eq!(columns, Some(vec!["a".into(), "b".into()]))
            }
            _ => panic!(),
        }
    }

    #[test]
    fn parse_select_full() {
        let s = parse_stmt(
            "SELECT host, load FROM cpu WHERE (load >= 1.5 OR host = 'lucky3') AND load IS NOT NULL ORDER BY load DESC LIMIT 10",
        )
        .unwrap();
        match s {
            Stmt::Select {
                cols,
                table,
                where_,
                order_by,
                limit,
            } => {
                assert_eq!(
                    cols,
                    SelectCols::Columns(vec!["host".into(), "load".into()])
                );
                assert_eq!(table, "cpu");
                assert!(where_.is_some());
                let ob = order_by.unwrap();
                assert_eq!(ob.column, "load");
                assert!(ob.desc);
                assert_eq!(limit, Some(10));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn parse_count_star() {
        let s = parse_stmt("SELECT COUNT(*) FROM t").unwrap();
        assert!(matches!(
            s,
            Stmt::Select {
                cols: SelectCols::CountStar,
                ..
            }
        ));
    }

    #[test]
    fn parse_update_delete_drop() {
        let s = parse_stmt("UPDATE t SET a = 1, b = 'x' WHERE c < 3").unwrap();
        assert!(matches!(s, Stmt::Update { ref sets, .. } if sets.len() == 2));
        let s = parse_stmt("DELETE FROM t WHERE a = 1").unwrap();
        assert!(matches!(s, Stmt::Delete { .. }));
        let s = parse_stmt("DELETE FROM t").unwrap();
        assert!(matches!(s, Stmt::Delete { where_: None, .. }));
        let s = parse_stmt("DROP TABLE t").unwrap();
        assert!(matches!(s, Stmt::DropTable { .. }));
    }

    #[test]
    fn predicate_precedence_and_not() {
        // a=1 OR b=2 AND c=3  =>  a=1 OR (b=2 AND c=3)
        let s = parse_stmt("SELECT * FROM t WHERE a=1 OR b=2 AND c=3").unwrap();
        let Stmt::Select {
            where_: Some(p), ..
        } = s
        else {
            panic!()
        };
        assert!(matches!(p, Pred::Or(_, ref rhs) if matches!(**rhs, Pred::And(_, _))));
        let s = parse_stmt("SELECT * FROM t WHERE NOT a = 1").unwrap();
        let Stmt::Select {
            where_: Some(p), ..
        } = s
        else {
            panic!()
        };
        assert!(matches!(p, Pred::Not(_)));
    }

    #[test]
    fn column_to_column_comparison() {
        let s = parse_stmt("SELECT * FROM t WHERE a < b").unwrap();
        let Stmt::Select {
            where_: Some(p), ..
        } = s
        else {
            panic!()
        };
        assert_eq!(
            p,
            Pred::Cmp(
                Operand::Column("a".into()),
                CmpOp::Lt,
                Operand::Column("b".into())
            )
        );
    }

    #[test]
    fn nesting_is_bounded() {
        // Each of these used to recurse until the stack ran out.
        // (opener, closer, nesting levels one opener costs)
        for (open, close, cost) in [("(", ")", 1), ("NOT ", "", 1), ("NOT (", ")", 2)] {
            let nest = |n: usize| {
                let (o, c) = (open.repeat(n), close.repeat(n));
                format!("SELECT * FROM m WHERE {o}a = 1{c}")
            };
            let levels = MAX_DEPTH / cost;
            let err = parse_stmt(&nest(100_000)).unwrap_err();
            assert!(err.0.contains("nesting"), "{err}");
            assert!(parse_stmt(&nest(levels)).is_ok(), "{open:?} at the limit");
            let err = parse_stmt(&nest(levels + 1)).unwrap_err();
            assert!(err.0.contains("nesting"), "{err}");
        }
        // The bound is on open nesting, not on how much a predicate holds.
        let wide = "(a = 1 AND NOT (b = 2)) OR ".repeat(10 * MAX_DEPTH);
        assert!(parse_stmt(&format!("SELECT * FROM m WHERE {wide}c = 3")).is_ok());
    }

    fn chain(operators: usize) -> String {
        format!("a = 1{}", " AND a = 1".repeat(operators))
    }

    #[test]
    fn operator_chains_are_bounded() {
        // The longest chain accepted parses, runs, prints and drops on an
        // explicit 2 MB thread.
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| {
                let mut db = crate::Database::new();
                db.execute("CREATE TABLE m (a INT)").unwrap();
                db.execute("INSERT INTO m VALUES (1)").unwrap();
                let sql = format!("SELECT * FROM m WHERE {}", chain(MAX_OPERATORS));
                assert_eq!(db.execute(&sql).unwrap().rows.len(), 1);
                let Stmt::Select {
                    where_: Some(p), ..
                } = parse_stmt(&sql).unwrap()
                else {
                    panic!()
                };
                assert!(p.to_string().starts_with(&"(".repeat(MAX_OPERATORS)));
                drop(p);
            })
            .unwrap()
            .join()
            .unwrap();
        // One more is an error, and so is a million (which used to parse
        // and then overflow the stack when dropped).  Chains in
        // parentheses count towards the enclosing predicate's total.
        let half = MAX_OPERATORS / 2;
        for pred in [
            chain(MAX_OPERATORS + 1),
            chain(1_000_000),
            format!("({}) OR {}", chain(half), chain(half)),
        ] {
            let err = parse_stmt(&format!("SELECT * FROM m WHERE {pred}")).unwrap_err();
            assert!(err.0.contains("AND/OR operators"), "{err}");
        }
    }

    #[test]
    fn errors() {
        assert!(parse_stmt("SELECT FROM t").is_err());
        assert!(parse_stmt("SELECT * FROM").is_err());
        assert!(parse_stmt("INSERT INTO t VALUES 1").is_err());
        assert!(parse_stmt("CREATE TABLE t (a BLOB)").is_err());
        assert!(parse_stmt("SELECT * FROM t WHERE").is_err());
        assert!(parse_stmt("SELECT * FROM t LIMIT x").is_err());
        assert!(parse_stmt("BOGUS").is_err());
        assert!(parse_stmt("SELECT * FROM t extra").is_err());
        assert!(parse_stmt("CREATE TABLE t (a INT PRIMARY KEY, b INT PRIMARY KEY)").is_err());
    }
}
