//! SQL abstract syntax.

use crate::table::Column;
use crate::value::SqlValue;
use gintern::Sym;

/// A `WHERE column = literal` filter, the one predicate form.
#[derive(Debug, Clone, PartialEq)]
pub struct Pred {
    pub column: Sym,
    pub value: SqlValue,
}

/// SELECT column list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectCols {
    Star,
    CountStar,
    Columns(Vec<Sym>),
}

/// A parsed statement.  Every name in it is a lowercased [`Sym`],
/// interned by the parser, so a parsed statement belongs to the thread
/// that parsed it (see `gintern`'s scope note).
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    CreateTable {
        name: Sym,
        columns: Vec<Column>,
        primary_key: Option<usize>,
    },
    /// Positional: one value per column, in schema order.
    Insert {
        table: Sym,
        values: Vec<SqlValue>,
    },
    Select {
        cols: SelectCols,
        table: Sym,
        where_: Option<Pred>,
    },
    Update {
        table: Sym,
        sets: Vec<(Sym, SqlValue)>,
        where_: Option<Pred>,
    },
    Delete {
        table: Sym,
        where_: Option<Pred>,
    },
}

/// A name as a parsed statement keeps it: lowercased and interned.
pub fn name(text: &str) -> Sym {
    gintern::intern(&text.to_ascii_lowercase())
}

impl Stmt {
    /// `SELECT cols FROM table [WHERE column = value]`, built without
    /// text: the statement the parser makes of that query.
    pub fn select(cols: SelectCols, table: &str, filter: Option<(&str, SqlValue)>) -> Stmt {
        Stmt::Select {
            cols,
            table: name(table),
            where_: filter.map(|(column, value)| Pred {
                column: name(column),
                value,
            }),
        }
    }
}
