//! A minimal JSON reader/writer for the service protocol.
//!
//! The workspace deliberately carries no serialisation dependency, so the
//! protocol layer parses requests with this hand-rolled recursive-descent
//! parser. It accepts exactly the JSON grammar (RFC 8259) with two
//! service-grade hardening choices:
//!
//! * **Byte offsets on every error.** A malformed request line is answered
//!   with a structured error record; the offset lets clients point at the
//!   exact byte that broke.
//! * **Bounded nesting.** Arrays/objects nest at most [`MAX_DEPTH`] deep,
//!   so a hostile request cannot overflow the parser stack of a
//!   long-running service.
//!
//! Numbers keep their raw source text ([`Value::Num`]): the protocol never
//! does arithmetic on request numbers, but it echoes request ids back
//! verbatim — re-rendering the original token is the only way `1e2` stays
//! `1e2`.

use std::fmt;

use hrms_modsched::push_json_str;

/// Maximum nesting depth of arrays/objects accepted by [`parse`].
pub const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its raw source token (see the module docs).
    Num(String),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object as a key → value list in source order (duplicate keys are
    /// kept; [`Value::get`] returns the first).
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Looks up `key` in an object (first match); `None` for non-objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string contents, when this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, when this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, when this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Renders the value back to compact JSON.
    ///
    /// A parse → render round trip is value-preserving: strings are
    /// re-escaped canonically and numbers keep their original token.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.render(&mut out);
        out
    }

    fn render(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(true) => out.push_str("true"),
            Value::Bool(false) => out.push_str("false"),
            Value::Num(raw) => out.push_str(raw),
            Value::Str(s) => push_json_str(out, s),
            Value::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render(out);
                }
                out.push(']');
            }
            Value::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    push_json_str(out, key);
                    out.push(':');
                    value.render(out);
                }
                out.push('}');
            }
        }
    }
}

/// A JSON syntax error with the byte offset where it was detected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

/// Parses `input` as exactly one JSON value (leading/trailing whitespace
/// allowed, nothing else).
pub fn parse(input: &str) -> Result<Value, JsonError> {
    let mut p = Parser {
        input,
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.error("trailing characters after the JSON value"));
    }
    Ok(value)
}

struct Parser<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(format!("expected `{word}`")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.error(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(self.error(format!(
                "unexpected character `{}`",
                char::from(other).escape_default()
            ))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.error("expected `,` or `]` in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(self.error("expected `,` or `}` in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')
            .map_err(|_| self.error("expected a string"))?;
        let mut out = String::new();
        loop {
            // Copy the run of plain bytes up to the next quote, backslash or
            // control byte at once. Each of those is ASCII, so the run ends
            // on a character boundary.
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                .map_or(self.bytes.len(), |n| self.pos + n);
            out.push_str(&self.input[self.pos..run]);
            self.pos = run;
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                Some(_) => return Err(self.error("unescaped control character in string")),
            }
        }
    }

    fn escape(&mut self) -> Result<char, JsonError> {
        let c = self.peek().ok_or_else(|| self.error("dangling escape"))?;
        self.pos += 1;
        Ok(match c {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let hi = self.hex4()?;
                if (0xD800..0xDC00).contains(&hi) {
                    // High surrogate: require the paired low surrogate.
                    if self.peek() == Some(b'\\') {
                        self.pos += 1;
                        self.expect(b'u')
                            .map_err(|_| self.error("high surrogate not followed by \\u"))?;
                        let lo = self.hex4()?;
                        if !(0xDC00..0xE000).contains(&lo) {
                            return Err(self.error("invalid low surrogate"));
                        }
                        let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                        char::from_u32(code).ok_or_else(|| self.error("invalid surrogate pair"))?
                    } else {
                        return Err(self.error("unpaired high surrogate"));
                    }
                } else if (0xDC00..0xE000).contains(&hi) {
                    return Err(self.error("unpaired low surrogate"));
                } else {
                    char::from_u32(hi).ok_or_else(|| self.error("invalid \\u escape"))?
                }
            }
            other => {
                return Err(self.error(format!(
                    "unknown escape `\\{}`",
                    char::from(other).escape_default()
                )))
            }
        })
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let b = self
                .peek()
                .ok_or_else(|| self.error("truncated \\u escape"))?;
            let d = match b {
                b'0'..=b'9' => u32::from(b - b'0'),
                b'a'..=b'f' => u32::from(b - b'a') + 10,
                b'A'..=b'F' => u32::from(b - b'A') + 10,
                _ => return Err(self.error("non-hex digit in \\u escape")),
            };
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part: `0` alone or a non-zero-led digit run.
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => self.digits(),
            _ => return Err(self.error("expected a digit")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.error("expected a digit after `.`"));
            }
            self.digits();
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.error("expected a digit in the exponent"));
            }
            self.digits();
        }
        let raw = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII number token");
        Ok(Value::Num(raw.to_string()))
    }

    fn digits(&mut self) {
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(text: &str) -> Value {
        Value::Str(text.to_string())
    }

    #[test]
    fn scalars_parse() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse(" true ").unwrap(), Value::Bool(true));
        assert_eq!(parse("false").unwrap(), Value::Bool(false));
        assert_eq!(parse("-12.5e3").unwrap(), Value::Num("-12.5e3".into()));
        assert_eq!(parse("\"hi\"").unwrap(), s("hi"));
    }

    #[test]
    fn structures_parse_and_get() {
        let v = parse(r#"{"req":"schedule","loops":["a","b"],"cache":false,"n":3}"#).unwrap();
        assert_eq!(v.get("req").and_then(Value::as_str), Some("schedule"));
        assert_eq!(v.get("cache").and_then(Value::as_bool), Some(false));
        assert_eq!(v.get("loops").and_then(Value::as_array).unwrap().len(), 2);
        assert_eq!(v.get("n"), Some(&Value::Num("3".into())));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn escapes_round_trip() {
        let v = parse(r#""a\"b\\c\nd\u0041\u00e9\ud83d\ude00""#).unwrap();
        assert_eq!(v, s("a\"b\\c\ndA\u{e9}\u{1F600}"));
        // Render and re-parse: value-preserving.
        assert_eq!(parse(&v.to_json()).unwrap(), v);
    }

    #[test]
    fn render_round_trips_structures() {
        let text = r#"{"a":[1,2.5,"x"],"b":{"c":null},"d":true}"#;
        let v = parse(text).unwrap();
        assert_eq!(
            v.to_json(),
            text,
            "already-compact JSON renders identically"
        );
        assert_eq!(parse(&v.to_json()).unwrap(), v);
    }

    #[test]
    fn numbers_keep_their_raw_token() {
        let v = parse("[1e2, 0.50, -0]").unwrap();
        assert_eq!(v.to_json(), "[1e2,0.50,-0]");
    }

    #[test]
    fn errors_carry_offsets() {
        let e = parse("{\"a\": }").unwrap_err();
        assert_eq!(e.offset, 6);
        let e = parse("[1, 2").unwrap_err();
        assert_eq!(e.offset, 5);
        assert!(parse("").unwrap_err().message.contains("end of input"));
        assert!(parse("01").unwrap_err().message.contains("trailing"));
        assert!(parse("\"\u{1}\"").unwrap_err().message.contains("control"));
        assert!(parse("\"\\ud800x\"").is_err(), "unpaired surrogate");
    }

    /// Edge cases of the string reader, which copies each run of plain
    /// bytes at once: each is a JSON source literal, its decoded value and
    /// `push_json_str`'s rendering of that value.
    fn string_edges() -> Vec<(String, String, String)> {
        let long = "x".repeat(100);
        vec![
            // Plain runs ending at a 2-, 3- and 4-byte UTF-8 character.
            (
                "\"abcd\u{e9}\"".into(),
                "abcd\u{e9}".into(),
                "\"abcd\u{e9}\"".into(),
            ),
            (
                "\"abcd\u{20ac}\"".into(),
                "abcd\u{20ac}".into(),
                "\"abcd\u{20ac}\"".into(),
            ),
            (
                "\"abcd\u{1F600}\"".into(),
                "abcd\u{1F600}".into(),
                "\"abcd\u{1F600}\"".into(),
            ),
            (
                "\"ab\u{e9}\\n\u{20ac}\"".into(),
                "ab\u{e9}\n\u{20ac}".into(),
                "\"ab\u{e9}\\n\u{20ac}\"".into(),
            ),
            // An escape as the first and as the last character.
            ("\"\\nabc\"".into(), "\nabc".into(), "\"\\nabc\"".into()),
            ("\"abc\\t\"".into(), "abc\t".into(), "\"abc\\t\"".into()),
            ("\"\\\"\"".into(), "\"".into(), "\"\\\"\"".into()),
            // A surrogate pair after a long run.
            (
                format!("\"{long}\\ud83d\\ude00\""),
                format!("{long}\u{1F600}"),
                format!("\"{long}\u{1F600}\""),
            ),
            // Escapes that render as `\u00XX` or unescaped.
            (
                "\"a\\u0001\\/\"".into(),
                "a\u{1}/".into(),
                "\"a\\u0001/\"".into(),
            ),
        ]
    }

    #[test]
    fn strings_decode_across_run_boundaries() {
        for (source, value, rendered) in string_edges() {
            assert_eq!(parse(&source).unwrap(), s(&value), "parsing {source}");
            let mut out = String::new();
            push_json_str(&mut out, &value);
            assert_eq!(out, rendered, "rendering {value:?}");
            assert_eq!(parse(&out).unwrap(), s(&value), "re-parsing {out}");
        }
    }

    #[test]
    fn a_raw_control_byte_after_a_long_run_is_pinned_at_its_offset() {
        let long = "x".repeat(100);
        // The opening quote is byte 0 and the run bytes 1 to 100.
        let e = parse(&format!("\"{long}\u{1}\"")).unwrap_err();
        assert_eq!(e.offset, 101, "{e}");
        assert_eq!(e.message, "unescaped control character in string");
        let e = parse(&format!("\"{long}\u{e9}\n\"")).unwrap_err();
        assert_eq!(e.offset, 103, "{e}");
        let e = parse(&format!("\"{long}")).unwrap_err();
        assert_eq!((e.offset, e.message.as_str()), (101, "unterminated string"));
        let mut out = String::new();
        push_json_str(&mut out, &format!("{long}\u{1}"));
        assert_eq!(out, format!("\"{long}\\u0001\""));
    }

    #[test]
    fn nesting_is_bounded() {
        let deep = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        let e = parse(&deep).unwrap_err();
        assert!(e.message.contains("nesting"), "{e}");
        let ok = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn duplicate_keys_return_the_first() {
        let v = parse(r#"{"k":1,"k":2}"#).unwrap();
        assert_eq!(v.get("k"), Some(&Value::Num("1".into())));
    }
}
