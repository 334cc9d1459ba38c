//! ClassAd expression AST and pretty-printing.
//!
//! Attribute names are interned [`Sym`]s: constructing,
//! cloning and comparing references costs no allocation, and scope
//! resolution in the evaluator compares symbol ids instead of strings.

use crate::value::Value;
use gintern::Sym;
use std::fmt;

/// Attribute-reference scope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// Unscoped: look up in the evaluating ad first, then the target.
    None,
    /// `MY.attr` — only the evaluating ad.
    My,
    /// `TARGET.attr` — only the candidate ad.
    Target,
}

/// Binary operators, in the classic ClassAd grammar.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    Or,
    And,
    Eq,
    Ne,
    MetaEq,
    MetaNe,
    Lt,
    Le,
    Gt,
    Ge,
}

impl BinOp {
    /// Binding strength (higher binds tighter).
    pub fn precedence(self) -> u8 {
        match self {
            BinOp::Or => 1,
            BinOp::And => 2,
            BinOp::Eq | BinOp::Ne | BinOp::MetaEq | BinOp::MetaNe => 3,
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => 4,
        }
    }

    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Or => "||",
            BinOp::And => "&&",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::MetaEq => "=?=",
            BinOp::MetaNe => "=!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
        }
    }
}

/// A ClassAd expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    Lit(Value),
    /// Attribute reference; the name is stored lowercase (ClassAd names
    /// are case-insensitive) with the original case kept for printing.
    Attr {
        scope: Scope,
        name: Sym,
        printed: Sym,
    },
    /// `!e`.
    Not(Box<Expr>),
    Binary(BinOp, Box<Expr>, Box<Expr>),
}

/// Intern a name's lowercase form without allocating when it is already
/// lowercase.
pub(crate) fn intern_lower(name: &str) -> Sym {
    if name.bytes().any(|b| b.is_ascii_uppercase()) {
        gintern::intern(&name.to_ascii_lowercase())
    } else {
        gintern::intern(name)
    }
}

impl Expr {
    pub fn attr(name: &str) -> Expr {
        Expr::Attr {
            scope: Scope::None,
            name: intern_lower(name),
            printed: gintern::intern(name),
        }
    }

    pub fn scoped_attr(scope: Scope, name: &str) -> Expr {
        Expr::Attr {
            scope,
            name: intern_lower(name),
            printed: gintern::intern(name),
        }
    }

    fn fmt_prec(&self, f: &mut fmt::Formatter<'_>, parent_prec: u8) -> fmt::Result {
        match self {
            Expr::Lit(v) => write!(f, "{v}"),
            Expr::Attr { scope, printed, .. } => match scope {
                Scope::None => write!(f, "{printed}"),
                Scope::My => write!(f, "MY.{printed}"),
                Scope::Target => write!(f, "TARGET.{printed}"),
            },
            Expr::Not(e) => {
                write!(f, "!")?;
                // `!` binds tighter than every binary operator.
                e.fmt_prec(f, u8::MAX)
            }
            Expr::Binary(op, a, b) => {
                let prec = op.precedence();
                let need_parens = prec < parent_prec;
                if need_parens {
                    write!(f, "(")?;
                }
                a.fmt_prec(f, prec)?;
                write!(f, " {} ", op.symbol())?;
                // Left-associative: the right child needs parens at equal
                // precedence.
                b.fmt_prec(f, prec + 1)?;
                if need_parens {
                    write!(f, ")")?;
                }
                Ok(())
            }
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_prec(f, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn precedence_ordering() {
        assert!(BinOp::Lt.precedence() > BinOp::Eq.precedence());
        assert!(BinOp::Eq.precedence() > BinOp::And.precedence());
        assert!(BinOp::And.precedence() > BinOp::Or.precedence());
    }

    fn bin(op: BinOp, a: Expr, b: Expr) -> Expr {
        Expr::Binary(op, Box::new(a), Box::new(b))
    }

    #[test]
    fn display_parenthesises_correctly() {
        // (a || b) && c keeps parens; a || b && c doesn't add them.
        let (a, b, c) = (Expr::attr("a"), Expr::attr("b"), Expr::attr("c"));
        let e = bin(BinOp::And, bin(BinOp::Or, a.clone(), b.clone()), c.clone());
        assert_eq!(e.to_string(), "(a || b) && c");
        let e2 = bin(BinOp::Or, a.clone(), bin(BinOp::And, b.clone(), c.clone()));
        assert_eq!(e2.to_string(), "a || b && c");
        // `!` wraps a binary operand in parens, a leaf not.
        let not = Expr::Not(Box::new(bin(BinOp::Lt, a.clone(), b)));
        assert_eq!(not.to_string(), "!(a < b)");
        assert_eq!(Expr::Not(Box::new(a)).to_string(), "!a");
    }

    #[test]
    fn attr_names_lowercased_but_printed_as_written() {
        let e = Expr::scoped_attr(Scope::Target, "CpuLoad");
        match &e {
            Expr::Attr { name, printed, .. } => {
                assert_eq!(name.as_str(), "cpuload");
                assert_eq!(printed.as_str(), "CpuLoad");
            }
            _ => unreachable!(),
        }
        assert_eq!(e.to_string(), "TARGET.CpuLoad");
    }
}
