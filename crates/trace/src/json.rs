//! A minimal JSON reader plus the two writer primitives ([`escape`],
//! [`F64`]) every report, trace and bench document in the workspace is
//! assembled from, so no artifact needs an external dependency.
//!
//! Handles the full JSON grammar the exporters emit (objects, arrays,
//! strings with escapes, numbers, booleans, null) plus `\uXXXX` escapes
//! with surrogate pairs.  Object keys keep insertion order.  Input comes
//! from files a user names (`--compare`, `--baseline`, `gridmon-inspect
//! FILE`), so every malformed document is an `Err`, never a panic:
//! nesting deeper than [`MAX_DEPTH`] is rejected before it can exhaust
//! the stack.

use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Val {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Val>),
    Obj(Vec<(String, Val)>),
}

impl Val {
    /// Object member lookup.
    pub fn get(&self, key: &str) -> Option<&Val> {
        match self {
            Val::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Val::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Val::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Val]> {
        match self {
            Val::Arr(items) => Some(items),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Val::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Escape `s` as the body of a JSON string literal (no quotes added).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// A float as JSON text: shortest round-trip when finite, `null` for
/// the non-finite values JSON cannot carry.
pub struct F64(pub f64);

impl fmt::Display for F64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_finite() {
            write!(f, "{}", self.0)
        } else {
            f.write_str("null")
        }
    }
}

/// Deepest array/object nesting [`parse`] accepts.  The documents this
/// workspace writes nest four levels; the parser recurses once per
/// level, so the bound is what keeps a file of `[[[[…` an error
/// instead of a stack overflow.
pub const MAX_DEPTH: usize = 128;

/// Parse a complete JSON document.
pub fn parse(s: &str) -> Result<Val, String> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn value(&mut self) -> Result<Val, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Val::Str(self.string()?)),
            Some(b't') => self.literal("true", Val::Bool(true)),
            Some(b'f') => self.literal("false", Val::Bool(false)),
            Some(b'n') => self.literal("null", Val::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            )),
        }
    }

    /// Run a container parser one nesting level down.
    fn nested(&mut self, container: fn(&mut Self) -> Result<Val, String>) -> Result<Val, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let v = container(self);
        self.depth -= 1;
        v
    }

    fn literal(&mut self, word: &str, v: Val) -> Result<Val, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn object(&mut self) -> Result<Val, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Val::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let v = self.value()?;
            members.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Val::Obj(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Val, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Val::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Val::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos + 4;
        let s = self
            .bytes
            .get(self.pos..end)
            .and_then(|b| std::str::from_utf8(b).ok())
            .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
        let n = u32::from_str_radix(s, 16)
            .map_err(|_| format!("bad \\u escape at byte {}", self.pos))?;
        self.pos = end;
        Ok(n)
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        let start = self.pos;
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let cp = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: expect \uXXXX low half.
                                self.expect(b'\\')?;
                                self.expect(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(format!(
                                        "high surrogate without a low one at byte {start}"
                                    ));
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(cp)
                                    .ok_or_else(|| format!("bad code point at byte {start}"))?,
                            );
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos - 1)),
                    }
                }
                Some(_) => {
                    // Copy a run of plain UTF-8 bytes verbatim.
                    let run_start = self.pos;
                    while let Some(&b) = self.bytes.get(self.pos) {
                        if b == b'"' || b == b'\\' {
                            break;
                        }
                        self.pos += 1;
                    }
                    let run = std::str::from_utf8(&self.bytes[run_start..self.pos])
                        .map_err(|_| "invalid UTF-8 in string".to_string())?;
                    out.push_str(run);
                }
            }
        }
    }

    fn number(&mut self) -> Result<Val, String> {
        let start = self.pos;
        while let Some(&b) = self.bytes.get(self.pos) {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let s = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        s.parse::<f64>()
            .map(Val::Num)
            .map_err(|_| format!("bad number {s:?} at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let v =
            parse(r#"{"a": [1, 2.5, -3e2], "b": {"c": true, "d": null}, "e": "x\ny"}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[2].as_f64(),
            Some(-300.0)
        );
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("e").unwrap().as_str(), Some("x\ny"));
    }

    #[test]
    fn escape_round_trips() {
        let s = "a\"b\\c\nd\te\u{1}— λ 🚀";
        let doc = format!("\"{}\"", escape(s));
        assert_eq!(parse(&doc).unwrap().as_str(), Some(s));
    }

    #[test]
    fn surrogate_pairs_decode() {
        // U+1F680 encoded as a \u surrogate pair.
        assert_eq!(
            parse(r#""\ud83d\ude80""#).unwrap().as_str(),
            Some("\u{1F680}")
        );
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse("{} x").is_err());
        assert!(parse("[1,").is_err());
        assert!(parse("nul").is_err());
    }

    #[test]
    fn nesting_is_bounded() {
        // 200 000 open brackets used to recurse until the stack ran out.
        for open in ["[", "{\"k\":"] {
            let err = parse(&open.repeat(200_000)).unwrap_err();
            assert!(err.contains("nesting"), "{err}");
        }
        let at_limit = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&at_limit).is_ok());
        let over = format!("[{at_limit}]");
        assert!(parse(&over).unwrap_err().contains("nesting"));
        // The bound is on open containers, not on how many a document holds.
        let wide = format!("[{}[]]", "[[]],".repeat(10 * MAX_DEPTH));
        assert!(parse(&wide).is_ok());
    }

    #[test]
    fn unpaired_surrogates_are_errors() {
        // A high surrogate followed by a \u escape that is not a low
        // surrogate used to underflow `lo - 0xDC00`.
        assert!(parse(r#""\ud83d\u0041""#)
            .unwrap_err()
            .contains("surrogate"));
        assert!(parse(r#""\ud83d\ue000""#).is_err());
        assert!(parse(r#""\ud83dx""#).is_err());
        assert!(parse(r#""\ude80""#).is_err());
    }

    #[test]
    fn f64_writes_null_for_non_finite() {
        assert_eq!(F64(1.5).to_string(), "1.5");
        assert_eq!(F64(-0.0).to_string(), "-0");
        assert_eq!(F64(f64::NAN).to_string(), "null");
        assert_eq!(F64(f64::INFINITY).to_string(), "null");
    }

    /// Every construct the parser knows, for the mutation property.
    const SEED_DOC: &str = r#"{"schema": "gridmon-bench-v3", "n": [0, -1.5e-3, 2E+9, true, false, null],
        "s": "a\"b\\c\/\b\f\n\r\t\u00e9\ud83d\ude80 λ", "o": {"k": [[], {}, [{"d": [1]}]]}}"#;

    use proptest::prelude::*;

    proptest! {
        /// Arbitrary bytes (read the way the binaries read a file: as
        /// text, here lossily) parse or fail, and never panic.
        #[test]
        fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
            let _ = parse(&String::from_utf8_lossy(&bytes));
        }

        /// A valid document with a few bytes overwritten, inserted or
        /// removed — mostly by JSON's own punctuation, so the damage
        /// lands in the grammar — parses or fails, and never panics.
        #[test]
        fn mutated_documents_never_panic(
            edits in proptest::collection::vec((any::<usize>(), 0usize..3, any::<u8>(), any::<bool>()), 1..6),
        ) {
            assert!(parse(SEED_DOC).is_ok());
            let mut bytes = SEED_DOC.as_bytes().to_vec();
            for (at, op, raw, punct) in edits {
                let at = at % bytes.len();
                let b = if punct {
                    let p = br#"[]{}",:\u-+.eEdD089 "#;
                    p[raw as usize % p.len()]
                } else {
                    raw
                };
                match op {
                    0 => bytes[at] = b,
                    1 => bytes.insert(at, b),
                    _ => {
                        bytes.remove(at);
                        if bytes.is_empty() {
                            bytes.push(b);
                        }
                    }
                }
            }
            let _ = parse(&String::from_utf8_lossy(&bytes));
        }
    }
}
