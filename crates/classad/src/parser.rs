//! Recursive-descent parser for ClassAd expressions.
//!
//! Grammar (classic ClassAds, lowest precedence first):
//!
//! ```text
//! expr    := or ( '?' expr ':' expr )?
//! or      := and ( '||' and )*
//! and     := eq ( '&&' eq )*
//! eq      := rel ( ('==' | '!=' | '=?=' | '=!=') rel )*
//! rel     := add ( ('<' | '<=' | '>' | '>=') add )*
//! add     := mul ( ('+' | '-') mul )*
//! mul     := unary ( ('*' | '/' | '%') unary )*
//! unary   := ('!' | '-' | '+')* primary
//! primary := literal | attr | call | '(' expr ')'
//! attr    := ( 'MY' '.' | 'TARGET' '.' )? IDENT
//! call    := IDENT '(' (expr (',' expr)*)? ')'
//! ```

use crate::expr::{BinOp, Expr, Scope, UnOp};
use crate::lexer::{lex, LexError, Token};
use crate::value::Value;
use std::fmt;

/// Parse failure.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error: {}", self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError {
            message: e.to_string(),
        }
    }
}

/// Deepest nesting of parentheses, call arguments, ternary arms and
/// prefix operators [`parse_expr`] accepts; deeper input is a
/// [`ParseError`], not a stack overflow.
pub const MAX_DEPTH: usize = 128;

/// Most binary operators one expression may hold.  `a + b + …` parses
/// into a left-deep tree that evaluation, printing and drop all recurse
/// down, so this — with [`MAX_DEPTH`] — bounds the tree's height.  It is
/// counted per expression, not per operator chain: a parenthesised chain
/// can open each of [`MAX_DEPTH`] nested chains, and their heights add.
/// A chain this long evaluates, prints and drops on a 2 MB debug thread.
pub const MAX_OPERATORS: usize = 2048;

/// Parse a complete ClassAd expression.
pub fn parse_expr(input: &str) -> Result<Expr, ParseError> {
    let tokens = lex(input)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        operators: 0,
    };
    let e = p.expr(0)?;
    if p.pos != p.tokens.len() {
        return Err(ParseError {
            message: format!("trailing tokens starting at '{}'", p.tokens[p.pos]),
        });
    }
    Ok(e)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Binary operators accepted so far (bounded by [`MAX_OPERATORS`]).
    operators: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn bump(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, t: &Token) -> bool {
        if self.peek() == Some(t) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: &Token) -> Result<(), ParseError> {
        if self.eat(t) {
            Ok(())
        } else {
            Err(ParseError {
                message: format!(
                    "expected '{t}', found {}",
                    self.peek()
                        .map_or("end of input".to_string(), |x| format!("'{x}'"))
                ),
            })
        }
    }

    /// Every rule carries `depth`, the nesting it was reached at; each
    /// level starts at a [`Parser::unary`], which enforces the bound.
    fn expr(&mut self, depth: usize) -> Result<Expr, ParseError> {
        let cond = self.binary(1, depth)?;
        if self.eat(&Token::Question) {
            let then = self.expr(depth + 1)?;
            self.expect(&Token::Colon)?;
            let els = self.expr(depth + 1)?;
            Ok(Expr::Cond(Box::new(cond), Box::new(then), Box::new(els)))
        } else {
            Ok(cond)
        }
    }

    /// Precedence-climbing over binary operators with min precedence.
    fn binary(&mut self, min_prec: u8, depth: usize) -> Result<Expr, ParseError> {
        let mut lhs = self.unary(depth)?;
        while let Some(op) = self.peek().and_then(token_binop) {
            let prec = op.precedence();
            if prec < min_prec {
                break;
            }
            self.pos += 1;
            self.operators += 1;
            if self.operators > MAX_OPERATORS {
                return Err(ParseError {
                    message: format!("more than {MAX_OPERATORS} binary operators"),
                });
            }
            let rhs = self.binary(prec + 1, depth)?; // left-associative
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn unary(&mut self, depth: usize) -> Result<Expr, ParseError> {
        if depth > MAX_DEPTH {
            return Err(ParseError {
                message: format!("nesting deeper than {MAX_DEPTH}"),
            });
        }
        match self.peek() {
            Some(Token::Not) => {
                self.pos += 1;
                Ok(Expr::Unary(UnOp::Not, Box::new(self.unary(depth + 1)?)))
            }
            Some(Token::Minus) => {
                self.pos += 1;
                // Fold negation of numeric literals so `-5` is the literal
                // -5 (keeps printing/parsing canonical).
                Ok(match self.unary(depth + 1)? {
                    Expr::Lit(Value::Int(i)) => Expr::Lit(Value::Int(-i)),
                    Expr::Lit(Value::Real(r)) => Expr::Lit(Value::Real(-r)),
                    e => Expr::Unary(UnOp::Neg, Box::new(e)),
                })
            }
            Some(Token::Plus) => {
                self.pos += 1;
                Ok(Expr::Unary(UnOp::Plus, Box::new(self.unary(depth + 1)?)))
            }
            _ => self.primary(depth),
        }
    }

    fn primary(&mut self, depth: usize) -> Result<Expr, ParseError> {
        match self.bump() {
            Some(Token::Int(i)) => Ok(Expr::Lit(Value::Int(i))),
            Some(Token::Real(r)) => Ok(Expr::Lit(Value::Real(r))),
            Some(Token::Str(s)) => Ok(Expr::Lit(Value::Str(s))),
            Some(Token::LParen) => {
                let e = self.expr(depth + 1)?;
                self.expect(&Token::RParen)?;
                Ok(e)
            }
            Some(Token::Ident(name)) => self.ident_tail(name, depth),
            other => Err(ParseError {
                message: format!(
                    "expected a value, found {}",
                    other.map_or("end of input".to_string(), |t| format!("'{t}'"))
                ),
            }),
        }
    }

    fn ident_tail(&mut self, name: String, depth: usize) -> Result<Expr, ParseError> {
        // Keywords.
        let lower = name.to_ascii_lowercase();
        match lower.as_str() {
            "true" => return Ok(Expr::Lit(Value::Bool(true))),
            "false" => return Ok(Expr::Lit(Value::Bool(false))),
            "undefined" => return Ok(Expr::Lit(Value::Undefined)),
            "error" => return Ok(Expr::Lit(Value::Error)),
            _ => {}
        }
        // Scope prefix?
        if (lower == "my" || lower == "target") && self.eat(&Token::Dot) {
            let Some(Token::Ident(attr)) = self.bump() else {
                return Err(ParseError {
                    message: format!("expected attribute name after '{name}.'"),
                });
            };
            let scope = if lower == "my" {
                Scope::My
            } else {
                Scope::Target
            };
            return Ok(Expr::scoped_attr(scope, &attr));
        }
        // Function call?
        if self.peek() == Some(&Token::LParen) {
            self.pos += 1;
            let mut args = Vec::new();
            if !self.eat(&Token::RParen) {
                loop {
                    args.push(self.expr(depth + 1)?);
                    if self.eat(&Token::RParen) {
                        break;
                    }
                    self.expect(&Token::Comma)?;
                }
            }
            return Ok(Expr::Call(gintern::intern(&lower), args));
        }
        Ok(Expr::attr(&name))
    }
}

fn token_binop(t: &Token) -> Option<BinOp> {
    Some(match t {
        Token::Or => BinOp::Or,
        Token::And => BinOp::And,
        Token::Eq => BinOp::Eq,
        Token::Ne => BinOp::Ne,
        Token::MetaEq => BinOp::MetaEq,
        Token::MetaNe => BinOp::MetaNe,
        Token::Lt => BinOp::Lt,
        Token::Le => BinOp::Le,
        Token::Gt => BinOp::Gt,
        Token::Ge => BinOp::Ge,
        Token::Plus => BinOp::Add,
        Token::Minus => BinOp::Sub,
        Token::Star => BinOp::Mul,
        Token::Slash => BinOp::Div,
        Token::Percent => BinOp::Mod,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Expr {
        parse_expr(s).unwrap_or_else(|e| panic!("parse {s:?}: {e}"))
    }

    #[test]
    fn parses_literals_and_keywords() {
        assert_eq!(p("42"), Expr::int(42));
        assert_eq!(p("2.5"), Expr::real(2.5));
        assert_eq!(p("\"x\""), Expr::string("x"));
        assert_eq!(p("TRUE"), Expr::boolean(true));
        assert_eq!(p("False"), Expr::boolean(false));
        assert_eq!(p("UNDEFINED"), Expr::Lit(Value::Undefined));
        assert_eq!(p("error"), Expr::Lit(Value::Error));
    }

    #[test]
    fn precedence_shape() {
        // a || b && c  =>  a || (b && c)
        match p("a || b && c") {
            Expr::Binary(BinOp::Or, _, rhs) => {
                assert!(matches!(*rhs, Expr::Binary(BinOp::And, _, _)));
            }
            e => panic!("{e:?}"),
        }
        // 1 + 2 * 3 => 1 + (2*3)
        match p("1 + 2 * 3") {
            Expr::Binary(BinOp::Add, _, rhs) => {
                assert!(matches!(*rhs, Expr::Binary(BinOp::Mul, _, _)));
            }
            e => panic!("{e:?}"),
        }
        // Comparison binds tighter than equality: a == b < c => a == (b<c)
        match p("a == b < c") {
            Expr::Binary(BinOp::Eq, _, rhs) => {
                assert!(matches!(*rhs, Expr::Binary(BinOp::Lt, _, _)));
            }
            e => panic!("{e:?}"),
        }
    }

    #[test]
    fn left_associativity() {
        // 10 - 4 - 3 => (10-4)-3
        match p("10 - 4 - 3") {
            Expr::Binary(BinOp::Sub, lhs, _) => {
                assert!(matches!(*lhs, Expr::Binary(BinOp::Sub, _, _)));
            }
            e => panic!("{e:?}"),
        }
    }

    #[test]
    fn scopes_and_calls() {
        assert_eq!(p("MY.x"), Expr::scoped_attr(Scope::My, "x"));
        assert_eq!(p("target.Y"), Expr::scoped_attr(Scope::Target, "Y"));
        assert_eq!(
            p("floor(2.7)"),
            Expr::Call("floor".into(), vec![Expr::real(2.7)])
        );
        assert_eq!(p("size(\"ab\", 1)").to_string(), "size(\"ab\", 1)");
    }

    #[test]
    fn my_without_dot_is_plain_attr() {
        assert_eq!(p("my"), Expr::attr("my"));
        assert_eq!(p("target + 1").to_string(), "target + 1");
    }

    #[test]
    fn ternary() {
        let e = p("a > 1 ? \"big\" : \"small\"");
        assert!(matches!(e, Expr::Cond(..)));
        // Nested: a ? b : c ? d : e  => a ? b : (c ? d : e)
        let e = p("a ? b : c ? d : e");
        match e {
            Expr::Cond(_, _, els) => assert!(matches!(*els, Expr::Cond(..))),
            e => panic!("{e:?}"),
        }
    }

    #[test]
    fn meta_operators() {
        let e = p("x =?= UNDEFINED");
        assert!(matches!(e, Expr::Binary(BinOp::MetaEq, _, _)));
        let e = p("x =!= 5");
        assert!(matches!(e, Expr::Binary(BinOp::MetaNe, _, _)));
    }

    #[test]
    fn unary_chains() {
        assert_eq!(p("!!a").to_string(), "!!a");
        assert_eq!(p("--5"), Expr::int(5)); // double negation folds
        assert_eq!(p("-5"), Expr::int(-5));
        assert_eq!(p("-2.5"), Expr::real(-2.5));
        assert_eq!(p("-x + 1").to_string(), "-x + 1");
    }

    #[test]
    fn errors_are_reported() {
        assert!(parse_expr("1 +").is_err());
        assert!(parse_expr("(1").is_err());
        assert!(parse_expr("1 2").is_err());
        assert!(parse_expr("f(1,)").is_err());
        assert!(parse_expr("a ? b").is_err());
        assert!(parse_expr("").is_err());
    }

    #[test]
    fn nesting_is_bounded() {
        // Each of these used to recurse until the stack ran out.
        let nestings = [
            ("(", "1", ")"),
            ("!", "a", ""),
            ("- ", "1", ""),
            ("f(", "1", ")"),
        ];
        for (open, atom, close) in nestings {
            let nest = |n: usize| format!("{}{atom}{}", open.repeat(n), close.repeat(n));
            let err = parse_expr(&nest(100_000)).unwrap_err();
            assert!(err.message.contains("nesting"), "{err}");
            assert!(
                parse_expr(&nest(MAX_DEPTH)).is_ok(),
                "{open:?} at the limit"
            );
            let err = parse_expr(&nest(MAX_DEPTH + 1)).unwrap_err();
            assert!(err.message.contains("nesting"), "{err}");
        }
        let chain = |n: usize| format!("{}c", "a ? b : ".repeat(n));
        assert!(parse_expr(&chain(MAX_DEPTH)).is_ok());
        let err = parse_expr(&chain(100_000)).unwrap_err();
        assert!(err.message.contains("nesting"), "{err}");
        // The bound is on open nesting, not on how much an expression holds.
        let wide = format!("(1){}", " + f((1), !a)".repeat(10 * MAX_DEPTH));
        assert!(parse_expr(&wide).is_ok());
    }

    fn chain(operators: usize) -> String {
        format!("1{}", " + 1".repeat(operators))
    }

    #[test]
    fn operator_chains_are_bounded() {
        // The longest chain accepted parses, evaluates, prints and drops
        // on an explicit 2 MB thread.
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| {
                let e = p(&chain(MAX_OPERATORS));
                let v = crate::eval(&e, &crate::ClassAd::new(), None);
                assert_eq!(v, Value::Int(MAX_OPERATORS as i64 + 1));
                assert_eq!(e.to_string(), chain(MAX_OPERATORS));
                drop(e);
            })
            .unwrap()
            .join()
            .unwrap();
        // One more is an error, and so is a million (which used to parse
        // and then overflow the stack when dropped).  Chains in
        // parentheses count towards the enclosing expression's total.
        let half = MAX_OPERATORS / 2;
        for src in [
            chain(MAX_OPERATORS + 1),
            chain(1_000_000),
            format!("({}) + {}", chain(half), chain(half)),
        ] {
            let err = parse_expr(&src).unwrap_err();
            assert!(err.message.contains("binary operators"), "{err}");
        }
    }

    #[test]
    fn display_round_trip() {
        for src in [
            "TARGET.CpuLoad > 50 && TARGET.OpSys == \"LINUX\"",
            "(1 + 2) * 3 - -4",
            "a =?= UNDEFINED || b =!= ERROR",
            "x % 2 == 0 ? \"even\" : \"odd\"",
            "floor(a / 2) >= size(b)",
        ] {
            let e1 = p(src);
            let printed = e1.to_string();
            let e2 = p(&printed);
            assert_eq!(e1, e2, "round trip failed for {src:?} -> {printed:?}");
        }
    }
}
