//! SQL parser for the supported subset: flat, one token of lookahead,
//! no recursion.
//!
//! ```text
//! stmt   := create | insert | select | update | delete
//! create := CREATE TABLE name '(' coldef (',' coldef)* ')'
//! coldef := name type [PRIMARY KEY]
//! insert := INSERT INTO name VALUES '(' lit (',' lit)* ')'
//! select := SELECT ('*' | COUNT '(' '*' ')' | col (',' col)*) FROM name [where]
//! update := UPDATE name SET col '=' lit (',' col '=' lit)* [where]
//! delete := DELETE FROM name [where]
//! where  := WHERE col '=' lit
//! ```

use crate::ast::{Pred, SelectCols, Stmt};
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

/// Parse one statement.
pub fn parse_stmt(sql: &str) -> Result<Stmt, SqlParseError> {
    let toks = lex_sql(sql)?;
    let mut p = P { toks, pos: 0 };
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

    /// `col = lit`, as `SET` and `WHERE` write it.
    fn assignment(&mut self) -> Result<(Sym, SqlValue), SqlParseError> {
        let column = self.sym()?;
        self.expect_tok(&Tok::Eq)?;
        Ok((column, self.literal()?))
    }

    fn where_(&mut self) -> Result<Option<Pred>, SqlParseError> {
        if !self.eat_kw("WHERE") {
            return Ok(None);
        }
        let (column, value) = self.assignment()?;
        Ok(Some(Pred { column, value }))
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
            self.expect_kw("FROM")?;
            let table = self.sym()?;
            let where_ = self.where_()?;
            return Ok(Stmt::Delete { table, where_ });
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
        Ok(Stmt::Insert { table, values })
    }

    fn select(&mut self) -> Result<Stmt, SqlParseError> {
        let cols = if self.eat_tok(&Tok::Star) {
            SelectCols::Star
        } else if self.eat_kw("COUNT") {
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
        let where_ = self.where_()?;
        Ok(Stmt::Select {
            cols,
            table,
            where_,
        })
    }

    fn update(&mut self) -> Result<Stmt, SqlParseError> {
        let table = self.sym()?;
        self.expect_kw("SET")?;
        let mut sets = vec![self.assignment()?];
        while self.eat_tok(&Tok::Comma) {
            sets.push(self.assignment()?);
        }
        let where_ = self.where_()?;
        Ok(Stmt::Update {
            table,
            sets,
            where_,
        })
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
    fn parse_insert_positional() {
        let s = parse_stmt("INSERT INTO t VALUES (1, 'a', 2.5, NULL)").unwrap();
        match s {
            Stmt::Insert { values, .. } => {
                assert_eq!(values.len(), 4);
                assert_eq!(values[3], SqlValue::Null);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn parse_select_full() {
        let s = parse_stmt("SELECT host, load FROM cpu WHERE Host = 'lucky3'").unwrap();
        assert_eq!(
            s,
            Stmt::Select {
                cols: SelectCols::Columns(vec!["host".into(), "load".into()]),
                table: "cpu".into(),
                where_: Some(Pred {
                    column: "host".into(),
                    value: SqlValue::Text("lucky3".into()),
                }),
            }
        );
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
    fn parse_update_delete() {
        let s = parse_stmt("UPDATE t SET a = 1, b = 'x' WHERE c = 3").unwrap();
        assert!(matches!(s, Stmt::Update { ref sets, .. } if sets.len() == 2));
        let s = parse_stmt("DELETE FROM t WHERE a = 1").unwrap();
        assert!(matches!(s, Stmt::Delete { .. }));
        let s = parse_stmt("DELETE FROM t").unwrap();
        assert!(matches!(s, Stmt::Delete { where_: None, .. }));
    }

    #[test]
    fn errors() {
        assert!(parse_stmt("SELECT FROM t").is_err());
        assert!(parse_stmt("SELECT * FROM").is_err());
        assert!(parse_stmt("INSERT INTO t VALUES 1").is_err());
        assert!(parse_stmt("CREATE TABLE t (a BLOB)").is_err());
        assert!(parse_stmt("SELECT * FROM t WHERE").is_err());
        assert!(parse_stmt("SELECT * FROM t WHERE a = b").is_err());
        assert!(parse_stmt("BOGUS").is_err());
        assert!(parse_stmt("SELECT * FROM t extra").is_err());
        assert!(parse_stmt("CREATE TABLE t (a INT PRIMARY KEY, b INT PRIMARY KEY)").is_err());
    }
}
