//! SQL tokenizer.

use std::fmt;

#[derive(Debug, Clone, PartialEq)]
pub enum Tok {
    /// Keyword or identifier, uppercased for keywords check; original kept.
    Word(String),
    Int(i64),
    Real(f64),
    Str(String),
    LParen,
    RParen,
    Comma,
    Star,
    Eq,
}

impl Tok {
    pub fn is_word(&self, kw: &str) -> bool {
        matches!(self, Tok::Word(w) if w.eq_ignore_ascii_case(kw))
    }
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Word(w) => write!(f, "{w}"),
            Tok::Int(i) => write!(f, "{i}"),
            Tok::Real(r) => write!(f, "{r}"),
            Tok::Str(s) => write!(f, "'{s}'"),
            Tok::LParen => write!(f, "("),
            Tok::RParen => write!(f, ")"),
            Tok::Comma => write!(f, ","),
            Tok::Star => write!(f, "*"),
            Tok::Eq => write!(f, "="),
        }
    }
}

/// Tokenization error.
#[derive(Debug, Clone, PartialEq)]
pub struct SqlLexError(pub String);

impl fmt::Display for SqlLexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SQL lex error: {}", self.0)
    }
}

impl std::error::Error for SqlLexError {}

/// Tokenize a SQL string.
pub fn lex_sql(input: &str) -> Result<Vec<Tok>, SqlLexError> {
    let b = input.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < b.len() {
        let c = b[i] as char;
        match c {
            ' ' | '\t' | '\r' | '\n' => i += 1,
            '(' => {
                out.push(Tok::LParen);
                i += 1;
            }
            ')' => {
                out.push(Tok::RParen);
                i += 1;
            }
            ',' => {
                out.push(Tok::Comma);
                i += 1;
            }
            '*' => {
                out.push(Tok::Star);
                i += 1;
            }
            '=' => {
                out.push(Tok::Eq);
                i += 1;
            }
            '\'' => {
                // SQL string with '' escaping.
                let mut s = String::new();
                i += 1;
                loop {
                    match b.get(i) {
                        None => return Err(SqlLexError("unterminated string".into())),
                        Some(b'\'') => {
                            if b.get(i + 1) == Some(&b'\'') {
                                s.push('\'');
                                i += 2;
                            } else {
                                i += 1;
                                break;
                            }
                        }
                        Some(_) => {
                            let ch = input[i..].chars().next().unwrap();
                            s.push(ch);
                            i += ch.len_utf8();
                        }
                    }
                }
                out.push(Tok::Str(s));
            }
            c if c.is_ascii_digit()
                || (c == '-' && b.get(i + 1).is_some_and(u8::is_ascii_digit)) =>
            {
                let start = i;
                if c == '-' {
                    i += 1;
                }
                let mut is_real = false;
                while i < b.len() && b[i].is_ascii_digit() {
                    i += 1;
                }
                if i < b.len() && b[i] == b'.' {
                    is_real = true;
                    i += 1;
                    while i < b.len() && b[i].is_ascii_digit() {
                        i += 1;
                    }
                }
                if i < b.len() && (b[i] == b'e' || b[i] == b'E') {
                    let mut j = i + 1;
                    if j < b.len() && (b[j] == b'+' || b[j] == b'-') {
                        j += 1;
                    }
                    if j < b.len() && b[j].is_ascii_digit() {
                        is_real = true;
                        i = j;
                        while i < b.len() && b[i].is_ascii_digit() {
                            i += 1;
                        }
                    }
                }
                let text = &input[start..i];
                if is_real {
                    out.push(Tok::Real(
                        text.parse()
                            .map_err(|e| SqlLexError(format!("bad real {text:?}: {e}")))?,
                    ));
                } else {
                    out.push(Tok::Int(
                        text.parse()
                            .map_err(|e| SqlLexError(format!("bad int {text:?}: {e}")))?,
                    ));
                }
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < b.len()
                    && ((b[i] as char).is_ascii_alphanumeric() || b[i] == b'_' || b[i] == b'.')
                {
                    i += 1;
                }
                out.push(Tok::Word(input[start..i].to_string()));
            }
            _ => {
                return Err(SqlLexError(format!(
                    "unexpected character {c:?} at byte {i}"
                )))
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lex_select() {
        let toks = lex_sql("SELECT a, b FROM t WHERE a = 2.5 , b = 'x''y'").unwrap();
        assert!(toks.iter().any(|t| t.is_word("select")));
        assert!(toks.contains(&Tok::Eq));
        assert!(toks.contains(&Tok::Real(2.5)));
        assert!(toks.contains(&Tok::Str("x'y".into())));
    }

    #[test]
    fn lex_numbers() {
        assert_eq!(lex_sql("-5").unwrap(), vec![Tok::Int(-5)]);
        assert_eq!(lex_sql("1e2").unwrap(), vec![Tok::Real(100.0)]);
        assert_eq!(lex_sql("3.25").unwrap(), vec![Tok::Real(3.25)]);
    }

    #[test]
    fn unterminated_string_rejected() {
        assert!(lex_sql("'oops").is_err());
        assert!(lex_sql("a $ b").is_err());
    }

    #[test]
    fn keywords_case_insensitive() {
        let toks = lex_sql("select SELECT SeLeCt").unwrap();
        assert!(toks.iter().all(|t| t.is_word("SELECT")));
    }
}
