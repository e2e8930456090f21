//! The suite's one JSON module: a small recursive reader and the one string
//! escaper every JSON writer goes through. Hand-rolled because the build is
//! offline and carries no serde.
//!
//! The reader keeps object members in document order, tells integer
//! literals from reals (so a reader can render a value back byte for byte),
//! and refuses nesting deeper than [`MAX_DEPTH`]: bench files and journal
//! lines come from outside the program, and an unbounded recursive descent
//! would turn a file of brackets into a stack overflow.
//!
//! ```
//! use kratt_netlist::json::{self, Value};
//!
//! let value = json::parse(r#"{"name": "c2670", "gates": 1193, "ok": true}"#).unwrap();
//! assert_eq!(value.get("gates"), Some(&Value::Int(1193)));
//! assert_eq!(json::quote("a\"b"), r#""a\"b""#);
//! ```

use std::fmt::Write as _;

/// Deepest array/object nesting [`parse`] accepts; deeper input is an
/// error, not a stack overflow.
pub const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number written without fraction or exponent that fits an `i64`.
    Int(i64),
    /// Any other number.
    Real(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, members in document order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The first member named `key`, if this is an object that has one.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The number as an `f64`, if this is one (integer or real).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(n) => Some(*n as f64),
            Value::Real(x) => Some(*x),
            _ => None,
        }
    }

    fn is_scalar(&self) -> bool {
        !matches!(self, Value::Array(_) | Value::Object(_))
    }
}

/// Parses one JSON document.
///
/// # Errors
///
/// Describes the first malformed construct (with its byte offset), nesting
/// deeper than [`MAX_DEPTH`], or trailing data.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut parser = Parser {
        bytes: text.as_bytes(),
        position: 0,
    };
    let value = parser.value(0)?;
    parser.skip_whitespace();
    if parser.position != parser.bytes.len() {
        return Err(format!("trailing data at byte {}", parser.position));
    }
    Ok(value)
}

/// Parses one object whose members are all scalars (`{"k":"v","n":1.5}`)
/// into its members, or `None` for anything else. Journal and stream
/// records are deliberately one level deep, so a torn line (a crash
/// mid-append) is simply a line that does not parse to such an object.
pub fn parse_flat_object(line: &str) -> Option<Vec<(String, Value)>> {
    match parse(line.trim()).ok()? {
        Value::Object(members) if members.iter().all(|(_, v)| v.is_scalar()) => Some(members),
        _ => None,
    }
}

/// Appends `text` as a quoted JSON string literal — the one escaper.
pub fn write_str(out: &mut String, text: &str) {
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// `text` as a quoted JSON string literal.
pub fn quote(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    write_str(&mut out, text);
    out
}

/// Appends `"key":`.
pub fn write_key(out: &mut String, key: &str) {
    write_str(out, key);
    out.push(':');
}

/// Appends `"key":"value"`.
pub fn write_field(out: &mut String, key: &str, value: &str) {
    write_key(out, key);
    write_str(out, value);
}

struct Parser<'a> {
    bytes: &'a [u8],
    position: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.position).copied()
    }

    fn skip_whitespace(&mut self) {
        while self.peek().is_some_and(|b| b.is_ascii_whitespace()) {
            self.position += 1;
        }
    }

    /// Consumes `byte` (after whitespace) if it is next.
    fn eat(&mut self, byte: u8) -> bool {
        self.skip_whitespace();
        let found = self.peek() == Some(byte);
        self.position += usize::from(found);
        found
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.eat(byte) {
            return Ok(());
        }
        Err(format!(
            "expected `{}` at byte {}",
            char::from(byte),
            self.position
        ))
    }

    /// `depth` counts the arrays/objects enclosing this value.
    fn value(&mut self, depth: usize) -> Result<Value, String> {
        self.skip_whitespace();
        match self.peek() {
            Some(b'{' | b'[') if depth >= MAX_DEPTH => Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.position
            )),
            Some(b'{') => self
                .sequence(b'{', b'}', |p| {
                    p.skip_whitespace();
                    let key = p.string()?;
                    p.expect(b':')?;
                    Ok((key, p.value(depth + 1)?))
                })
                .map(Value::Object),
            Some(b'[') => self
                .sequence(b'[', b']', |p| p.value(depth + 1))
                .map(Value::Array),
            Some(b'"') => self.string().map(Value::String),
            Some(b't' | b'f' | b'n') => self.literal(),
            Some(_) => self.number(),
            None => Err("unexpected end of input".to_string()),
        }
    }

    /// `open`, then comma-separated items up to `close`.
    fn sequence<T>(
        &mut self,
        open: u8,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.expect(open)?;
        let mut items = Vec::new();
        if self.eat(close) {
            return Ok(items);
        }
        loop {
            items.push(item(self)?);
            if self.eat(close) {
                return Ok(items);
            }
            self.expect(b',')?;
        }
    }

    fn literal(&mut self) -> Result<Value, String> {
        for (word, value) in [
            ("true", Value::Bool(true)),
            ("false", Value::Bool(false)),
            ("null", Value::Null),
        ] {
            if self.bytes[self.position..].starts_with(word.as_bytes()) {
                self.position += word.len();
                return Ok(value);
            }
        }
        Err(format!(
            "expected `true`, `false` or `null` at byte {}",
            self.position
        ))
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.position;
        let numeric = |b: u8| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E');
        while self.peek().is_some_and(numeric) {
            self.position += 1;
        }
        // The scanned bytes are ASCII, so this slice is valid UTF-8.
        let literal = std::str::from_utf8(&self.bytes[start..self.position]).unwrap_or_default();
        match literal.parse::<i64>() {
            Ok(n) if !literal.contains(['.', 'e', 'E']) => Ok(Value::Int(n)),
            _ => literal
                .parse::<f64>()
                .map(Value::Real)
                .map_err(|e| format!("bad number at byte {start}: {e}")),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        // Raw bytes accumulate; multi-byte UTF-8 sequences pass through
        // verbatim and are validated once at the end.
        let mut out: Vec<u8> = Vec::new();
        while let Some(byte) = self.peek() {
            self.position += 1;
            let c = match byte {
                b'"' => return String::from_utf8(out).map_err(|e| e.to_string()),
                b'\\' => {
                    self.position += 1;
                    match self.bytes.get(self.position - 1) {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'u') => self.unicode_escape()?,
                        _ => return Err(format!("bad escape at byte {}", self.position - 2)),
                    }
                }
                byte => {
                    out.push(byte);
                    continue;
                }
            };
            out.extend_from_slice(c.encode_utf8(&mut [0u8; 4]).as_bytes());
        }
        Err("unterminated string".to_string())
    }

    /// The character of a `\u` escape whose `\u` is already consumed: a BMP
    /// code point, or a surrogate pair spelled as two escapes. A lone
    /// surrogate is an error.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let start = self.position;
        let lone = || Err(format!("lone surrogate at byte {start}"));
        let code = match self.hex4()? {
            high @ 0xD800..=0xDBFF if self.bytes[self.position..].starts_with(b"\\u") => {
                self.position += 2;
                match self.hex4()? {
                    low @ 0xDC00..=0xDFFF => 0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00),
                    _ => return lone(),
                }
            }
            0xD800..=0xDFFF => return lone(),
            code => code,
        };
        char::from_u32(code).ok_or_else(|| format!("invalid code point at byte {start}"))
    }

    /// Exactly four ASCII hex digits.
    fn hex4(&mut self) -> Result<u32, String> {
        let digits = self
            .bytes
            .get(self.position..self.position + 4)
            .unwrap_or_default();
        let code = digits.iter().try_fold(0, |code, &digit| {
            Some(code << 4 | char::from(digit).to_digit(16)?)
        });
        match code {
            Some(code) if digits.len() == 4 => {
                self.position += 4;
                Ok(code)
            }
            _ => Err(format!(
                "`\\u` needs four hex digits at byte {}",
                self.position
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn objects_keep_member_order_and_number_kinds() {
        let value =
            parse(r#" {"b": 2, "a": [1.5, -3, 2e3], "s": "x", "t": true, "n": null} "#).unwrap();
        let Value::Object(members) = &value else {
            panic!("expected an object");
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["b", "a", "s", "t", "n"]);
        assert_eq!(value.get("b"), Some(&Value::Int(2)));
        assert_eq!(
            value.get("a"),
            Some(&Value::Array(vec![
                Value::Real(1.5),
                Value::Int(-3),
                Value::Real(2000.0)
            ]))
        );
        assert_eq!(value.get("s").and_then(Value::as_str), Some("x"));
        assert_eq!(value.get("t"), Some(&Value::Bool(true)));
        assert_eq!(value.get("n"), Some(&Value::Null));
        assert_eq!(value.get("missing"), None);
        assert_eq!(Value::Int(3).as_f64(), Some(3.0));
    }

    #[test]
    fn malformed_documents_are_rejected() {
        for text in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "[1] 2",
            "\"open",
            "tru",
            "-",
            "{1:2}",
        ] {
            assert!(parse(text).is_err(), "{text:?} must not parse");
        }
    }

    #[test]
    fn escaped_strings_round_trip() {
        let text = "q\"b\\s\nn\rr\tt\u{1}c é😀/";
        let quoted = quote(text);
        assert_eq!(quoted, "\"q\\\"b\\\\s\\nn\\rr\\tt\\u0001c é😀/\"");
        assert_eq!(parse(&quoted), Ok(Value::String(text.to_string())));
        let mut out = String::new();
        write_field(&mut out, "k\"", "v");
        assert_eq!(out, r#""k\"":"v""#);
        assert_eq!(
            parse(r#""\/\b\fé""#).unwrap().as_str(),
            Some("/\u{8}\u{c}é")
        );
    }

    #[test]
    fn unicode_escapes_need_exactly_four_hex_digits() {
        // `from_str_radix` would accept a sign: `\u+041` is not `A`.
        assert!(parse(r#""\u+041""#).is_err());
        assert!(parse(r#""\u-041""#).is_err());
        assert!(parse(r#""\u04""#).is_err());
        assert_eq!(parse(r#""\u0041\u00e9""#).unwrap().as_str(), Some("Aé"));
    }

    #[test]
    fn surrogate_pairs_decode_to_one_character() {
        assert_eq!(parse(r#""\ud83d\ude00""#).unwrap().as_str(), Some("😀"));
        assert_eq!(parse(r#""x\uD834\uDD1Ey""#).unwrap().as_str(), Some("x𝄞y"));
    }

    #[test]
    fn lone_surrogates_are_errors() {
        assert!(parse(r#""\ud83d""#).is_err());
        assert!(parse(r#""\ud83dx""#).is_err());
        assert!(parse(r#""\ud83dA""#).is_err());
        assert!(parse(r#""\ude00""#).is_err());
    }

    #[test]
    fn nesting_is_capped_not_a_stack_overflow() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        assert!(parse(&nested(MAX_DEPTH + 1)).is_err());
        assert!(parse(&"[".repeat(100_000)).is_err());
        assert!(parse(&"{\"a\":".repeat(100_000)).is_err());
    }
}
