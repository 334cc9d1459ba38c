//! SQL abstract syntax.

use crate::table::Column;
use crate::value::SqlValue;
use gintern::Sym;
use std::fmt;

/// Comparison operators in WHERE predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }
}

/// One side of a comparison.
#[derive(Debug, Clone, PartialEq)]
pub enum Operand {
    Column(Sym),
    Lit(SqlValue),
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Column(c) => write!(f, "{c}"),
            Operand::Lit(v) => write!(f, "{v}"),
        }
    }
}

/// A WHERE predicate.
#[derive(Debug, Clone, PartialEq)]
pub enum Pred {
    Cmp(Operand, CmpOp, Operand),
    /// `col LIKE 'pattern'` (`%` any run, `_` one char; negated form for
    /// NOT LIKE).
    Like {
        column: Sym,
        pattern: String,
        negated: bool,
    },
    IsNull(Sym),
    IsNotNull(Sym),
    And(Box<Pred>, Box<Pred>),
    Or(Box<Pred>, Box<Pred>),
    Not(Box<Pred>),
}

impl fmt::Display for Pred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Pred::Cmp(a, op, b) => write!(f, "{a} {} {b}", op.symbol()),
            Pred::Like {
                column,
                pattern,
                negated,
            } => write!(
                f,
                "{column} {}LIKE '{}'",
                if *negated { "NOT " } else { "" },
                pattern.replace('\'', "''")
            ),
            Pred::IsNull(c) => write!(f, "{c} IS NULL"),
            Pred::IsNotNull(c) => write!(f, "{c} IS NOT NULL"),
            Pred::And(a, b) => write!(f, "({a} AND {b})"),
            Pred::Or(a, b) => write!(f, "({a} OR {b})"),
            Pred::Not(p) => write!(f, "(NOT {p})"),
        }
    }
}

/// SELECT column list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectCols {
    Star,
    CountStar,
    Columns(Vec<Sym>),
}

/// ORDER BY clause.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderBy {
    pub column: Sym,
    pub desc: bool,
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
    Insert {
        table: Sym,
        /// Explicit column list, or None for positional.
        columns: Option<Vec<Sym>>,
        values: Vec<SqlValue>,
    },
    Select {
        cols: SelectCols,
        table: Sym,
        where_: Option<Pred>,
        order_by: Option<OrderBy>,
        limit: Option<usize>,
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
    DropTable {
        name: Sym,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pred_display() {
        let p = Pred::And(
            Box::new(Pred::Cmp(
                Operand::Column("a".into()),
                CmpOp::Ge,
                Operand::Lit(SqlValue::Int(5)),
            )),
            Box::new(Pred::IsNotNull("b".into())),
        );
        assert_eq!(p.to_string(), "(a >= 5 AND b IS NOT NULL)");
    }
}
