//! Tokenizer for the classic ClassAd expression language.

use std::fmt;

/// A lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    Int(i64),
    Real(f64),
    Str(String),
    /// Identifier (attribute name, TRUE/FALSE/UNDEFINED/ERROR keywords are
    /// resolved by the parser, as are MY/TARGET scopes).
    Ident(String),
    LParen,
    RParen,
    Dot,
    // Operators.
    Not,
    And,
    Or,
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
    MetaEq,
    MetaNe,
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Int(i) => write!(f, "{i}"),
            Token::Real(r) => write!(f, "{r}"),
            Token::Str(s) => write!(f, "\"{s}\""),
            Token::Ident(s) => write!(f, "{s}"),
            Token::LParen => write!(f, "("),
            Token::RParen => write!(f, ")"),
            Token::Dot => write!(f, "."),
            Token::Not => write!(f, "!"),
            Token::And => write!(f, "&&"),
            Token::Or => write!(f, "||"),
            Token::Lt => write!(f, "<"),
            Token::Le => write!(f, "<="),
            Token::Gt => write!(f, ">"),
            Token::Ge => write!(f, ">="),
            Token::Eq => write!(f, "=="),
            Token::Ne => write!(f, "!="),
            Token::MetaEq => write!(f, "=?="),
            Token::MetaNe => write!(f, "=!="),
        }
    }
}

/// Lexing error with byte offset.
#[derive(Debug, Clone, PartialEq)]
pub struct LexError {
    pub offset: usize,
    pub message: String,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lex error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for LexError {}

/// Tokenize an expression string.
pub fn lex(input: &str) -> Result<Vec<Token>, LexError> {
    let bytes = input.as_bytes();
    let mut out = Vec::new();
    let mut i = 0usize;
    let err = |i: usize, m: &str| LexError {
        offset: i,
        message: m.to_string(),
    };
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' | '\r' | '\n' => i += 1,
            '(' => {
                out.push(Token::LParen);
                i += 1;
            }
            ')' => {
                out.push(Token::RParen);
                i += 1;
            }
            '&' => {
                if bytes.get(i + 1) == Some(&b'&') {
                    out.push(Token::And);
                    i += 2;
                } else {
                    return Err(err(i, "expected '&&'"));
                }
            }
            '|' => {
                if bytes.get(i + 1) == Some(&b'|') {
                    out.push(Token::Or);
                    i += 2;
                } else {
                    return Err(err(i, "expected '||'"));
                }
            }
            '!' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    out.push(Token::Ne);
                    i += 2;
                } else {
                    out.push(Token::Not);
                    i += 1;
                }
            }
            '<' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    out.push(Token::Le);
                    i += 2;
                } else {
                    out.push(Token::Lt);
                    i += 1;
                }
            }
            '>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    out.push(Token::Ge);
                    i += 2;
                } else {
                    out.push(Token::Gt);
                    i += 1;
                }
            }
            '=' => match (bytes.get(i + 1), bytes.get(i + 2)) {
                (Some(b'='), _) => {
                    out.push(Token::Eq);
                    i += 2;
                }
                (Some(b'?'), Some(b'=')) => {
                    out.push(Token::MetaEq);
                    i += 3;
                }
                (Some(b'!'), Some(b'=')) => {
                    out.push(Token::MetaNe);
                    i += 3;
                }
                _ => return Err(err(i, "expected '==', '=?=' or '=!='")),
            },
            '"' => {
                let (s, next) = lex_string(input, i)?;
                out.push(Token::Str(s));
                i = next;
            }
            '.' => {
                // Leading-dot real like `.5` or the scope dot `MY.Attr`
                // (the parser handles Dot after an ident).
                if bytes.get(i + 1).is_some_and(u8::is_ascii_digit) {
                    let (t, next) = lex_number(input, i)?;
                    out.push(t);
                    i = next;
                } else {
                    out.push(Token::Dot);
                    i += 1;
                }
            }
            // A `-` is only ever the sign of a numeric literal, so every
            // literal `Value` prints to text that lexes back.
            c if c.is_ascii_digit()
                || (c == '-' && bytes.get(i + 1).is_some_and(u8::is_ascii_digit)) =>
            {
                let (t, next) = lex_number(input, i)?;
                out.push(t);
                i = next;
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
                {
                    i += 1;
                }
                out.push(Token::Ident(input[start..i].to_string()));
            }
            _ => {
                let c = input[i..].chars().next().unwrap_or(c);
                return Err(err(i, &format!("unexpected character '{c}'")));
            }
        }
    }
    Ok(out)
}

fn lex_string(input: &str, start: usize) -> Result<(String, usize), LexError> {
    let bytes = input.as_bytes();
    let mut s = String::new();
    let mut i = start + 1;
    while i < bytes.len() {
        match bytes[i] {
            b'"' => return Ok((s, i + 1)),
            b'\\' => {
                // The escaped character is a whole char, not a byte: it
                // may be multi-byte UTF-8.
                let Some(esc) = input[i + 1..].chars().next() else {
                    return Err(LexError {
                        offset: i,
                        message: "dangling escape".into(),
                    });
                };
                s.push(match esc {
                    'n' => '\n',
                    't' => '\t',
                    c => c,
                });
                i += 1 + esc.len_utf8();
            }
            _ => {
                // Multi-byte UTF-8 passthrough.
                let ch = input[i..].chars().next().unwrap();
                s.push(ch);
                i += ch.len_utf8();
            }
        }
    }
    Err(LexError {
        offset: start,
        message: "unterminated string".into(),
    })
}

fn lex_number(input: &str, start: usize) -> Result<(Token, usize), LexError> {
    let bytes = input.as_bytes();
    let digits = start + usize::from(bytes[start] == b'-');
    let mut i = digits;
    let mut is_real = false;
    while i < bytes.len() && bytes[i].is_ascii_digit() {
        i += 1;
    }
    if i < bytes.len() && bytes[i] == b'.' && bytes.get(i + 1).is_some_and(u8::is_ascii_digit) {
        is_real = true;
        i += 1;
        while i < bytes.len() && bytes[i].is_ascii_digit() {
            i += 1;
        }
    } else if i < bytes.len() && bytes[i] == b'.' && i > digits {
        // `5.` style real.
        is_real = true;
        i += 1;
    }
    if i < bytes.len() && (bytes[i] == b'e' || bytes[i] == b'E') {
        let mut j = i + 1;
        if j < bytes.len() && (bytes[j] == b'+' || bytes[j] == b'-') {
            j += 1;
        }
        if j < bytes.len() && bytes[j].is_ascii_digit() {
            is_real = true;
            i = j;
            while i < bytes.len() && bytes[i].is_ascii_digit() {
                i += 1;
            }
        }
    }
    let text = &input[start..i];
    if is_real {
        text.parse::<f64>()
            .map(|r| (Token::Real(r), i))
            .map_err(|e| LexError {
                offset: start,
                message: format!("bad real literal: {e}"),
            })
    } else {
        text.parse::<i64>()
            .map(|n| (Token::Int(n), i))
            .map_err(|e| LexError {
                offset: start,
                message: format!("bad integer literal: {e}"),
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lex_operators() {
        let toks = lex("a && b || !c =?= d =!= e == f != g <= h >= i").unwrap();
        assert!(toks.contains(&Token::And));
        assert!(toks.contains(&Token::Or));
        assert!(toks.contains(&Token::Not));
        assert!(toks.contains(&Token::MetaEq));
        assert!(toks.contains(&Token::MetaNe));
        assert!(toks.contains(&Token::Eq));
        assert!(toks.contains(&Token::Ne));
        assert!(toks.contains(&Token::Le));
        assert!(toks.contains(&Token::Ge));
    }

    #[test]
    fn lex_numbers() {
        assert_eq!(lex("42").unwrap(), vec![Token::Int(42)]);
        assert_eq!(lex("2.5").unwrap(), vec![Token::Real(2.5)]);
        assert_eq!(lex("1e3").unwrap(), vec![Token::Real(1000.0)]);
        assert_eq!(lex("2.5e-1").unwrap(), vec![Token::Real(0.25)]);
        assert_eq!(lex(".5").unwrap(), vec![Token::Real(0.5)]);
        // A sign directly before a digit belongs to the literal.
        assert_eq!(lex("-5").unwrap(), vec![Token::Int(-5)]);
        assert_eq!(lex("-2.5").unwrap(), vec![Token::Real(-2.5)]);
        assert_eq!(lex("-5.").unwrap(), vec![Token::Real(-5.0)]);
        assert_eq!(
            lex("-9223372036854775808").unwrap(),
            vec![Token::Int(i64::MIN)]
        );
    }

    #[test]
    fn lex_strings_with_escapes() {
        assert_eq!(
            lex("\"hi \\\"there\\\"\"").unwrap(),
            vec![Token::Str("hi \"there\"".into())]
        );
        assert_eq!(lex("\"a\\nb\"").unwrap(), vec![Token::Str("a\nb".into())]);
        assert!(lex("\"unterminated").is_err());
        assert!(lex("\"dangling\\").is_err());
    }

    #[test]
    fn lex_escaped_multibyte_char() {
        // An escaped multi-byte char is taken whole: stepping over it
        // byte-wise lands inside it, and the next slice panics.
        assert_eq!(lex("\"\\é\"").unwrap(), vec![Token::Str("é".into())]);
        assert_eq!(lex("\"a\\€b\"").unwrap(), vec![Token::Str("a€b".into())]);
        assert!(lex("\"\\é").is_err());
    }

    #[test]
    fn lex_scoped_attr() {
        let toks = lex("MY.CpuLoad > TARGET.Threshold").unwrap();
        assert_eq!(toks[0], Token::Ident("MY".into()));
        assert_eq!(toks[1], Token::Dot);
        assert_eq!(toks[2], Token::Ident("CpuLoad".into()));
    }

    #[test]
    fn lex_rejects_garbage() {
        assert!(lex("a # b").is_err());
        assert!(lex("a & b").is_err());
        assert!(lex("a | b").is_err());
        assert!(lex("a = b").is_err()); // bare '=' is not an operator
        assert!(lex("a é b").is_err());
        // Arithmetic, ternaries and calls are not part of the language.
        for src in [
            "1 + 2",
            "-x",
            "a - 1",
            "a * 2",
            "a / 2",
            "a % 2",
            "a ? b : c",
            "f(a, b)",
        ] {
            assert!(lex(src).is_err(), "{src:?}");
        }
    }

    #[test]
    fn lex_whitespace_insensitive() {
        assert_eq!(lex(" a==-1 ").unwrap(), lex("a == -1").unwrap());
    }
}
