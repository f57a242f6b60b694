//! A minimal JSON value, writer, and parser.
//!
//! The workspace builds offline with no external dependencies, so the
//! telemetry layer carries its own JSON support. The writer emits a
//! canonical compact form — objects keep insertion order, floats use
//! Rust's shortest round-trip formatting — so serializing a parsed
//! document reproduces it byte for byte. That property is what lets the
//! golden Perfetto trace be diffed as a whole file.

use std::fmt;

/// A JSON value.
///
/// Numbers are split into [`Json::U64`] (no decimal point or exponent
/// in the source) and [`Json::F64`] (everything else): counters stay
/// exact at full 64-bit range, ratios keep their floating form.
///
/// # Examples
///
/// ```
/// use decache_telemetry::Json;
///
/// let doc = Json::parse(r#"{"cycles": 42, "util": 0.5}"#).unwrap();
/// assert_eq!(doc.get("cycles").and_then(Json::as_u64), Some(42));
/// assert_eq!(doc.to_string(), r#"{"cycles":42,"util":0.5}"#);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A non-negative integer literal.
    U64(u64),
    /// A fractional, exponent, or negative numeric literal.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; insertion order is preserved and significant for the
    /// canonical form.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from key/value pairs.
    pub fn object(fields: Vec<(&str, Json)>) -> Json {
        Json::Object(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// The member `key` of an object, if this is an object holding it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The integer value, if this is a [`Json::U64`].
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::U64(v) => Some(v),
            _ => None,
        }
    }

    /// The numeric value as a float (integers convert).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::U64(v) => Some(v as f64),
            Json::F64(v) => Some(v),
            _ => None,
        }
    }

    /// The string value, if this is a [`Json::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is a [`Json::Array`].
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Parses a JSON document.
    ///
    /// # Errors
    ///
    /// Returns a message naming the byte offset of the first syntax
    /// error, of nesting deeper than [`MAX_DEPTH`], or of trailing
    /// garbage after the document.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(value)
    }
}

/// The deepest nesting of arrays and objects [`Json::parse`] accepts.
///
/// The parser recurses once per container, so a bound keeps hostile
/// input (a file of a million `[`) from overflowing the stack; it
/// returns an error instead. Canonical documents nest fewer than ten
/// levels.
pub const MAX_DEPTH: usize = 256;

/// Writes `s` as a JSON string literal (quotes and escapes included).
pub fn write_escaped(out: &mut String, s: &str) {
    write_string(out, s).expect("writing to a String cannot fail");
}

/// Writes `s` as a JSON string literal. Runs of bytes that need no
/// escaping go out as one slice; every byte that does is ASCII, so each
/// cut lands on a char boundary.
fn write_string<W: fmt::Write>(out: &mut W, s: &str) -> fmt::Result {
    out.write_char('"')?;
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => Some("\\\""),
            b'\\' => Some("\\\\"),
            b'\n' => Some("\\n"),
            b'\r' => Some("\\r"),
            b'\t' => Some("\\t"),
            0..=0x1f => None,
            _ => continue,
        };
        out.write_str(&s[run..i])?;
        match escape {
            Some(escape) => out.write_str(escape)?,
            None => write!(out, "\\u{b:04x}")?,
        }
        run = i + 1;
    }
    out.write_str(&s[run..])?;
    out.write_char('"')
}

/// Writes the decimal digits of `v` without the `fmt` machinery.
fn write_u64<W: fmt::Write>(out: &mut W, mut v: u64) -> fmt::Result {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.write_str(std::str::from_utf8(&digits[start..]).map_err(|_| fmt::Error)?)
}

/// The canonical compact writer behind [`Json`]'s `Display`.
fn write_value<W: fmt::Write>(out: &mut W, value: &Json) -> fmt::Result {
    match value {
        Json::Null => out.write_str("null"),
        Json::Bool(b) => out.write_str(if *b { "true" } else { "false" }),
        Json::U64(v) => write_u64(out, *v),
        // `{:?}` is Rust's shortest round-trip float form: "1.0" stays
        // distinguishable from the integer "1", and parsing the output
        // recovers the exact bits.
        Json::F64(v) => {
            if v.is_finite() {
                write!(out, "{v:?}")
            } else {
                // JSON has no Infinity/NaN; null is the conventional
                // degradation.
                out.write_str("null")
            }
        }
        Json::Str(s) => write_string(out, s),
        Json::Array(items) => {
            out.write_char('[')?;
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.write_char(',')?;
                }
                write_value(out, item)?;
            }
            out.write_char(']')
        }
        Json::Object(fields) => {
            out.write_char('{')?;
            for (i, (key, value)) in fields.iter().enumerate() {
                if i > 0 {
                    out.write_char(',')?;
                }
                write_string(out, key)?;
                out.write_char(':')?;
                write_value(out, value)?;
            }
            out.write_char('}')
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_value(f, self)
    }
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
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
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("expected '{word}' at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    /// Parses one container with `body`, one level deeper.
    fn nested(&mut self, body: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let value = body(self);
        self.depth -= 1;
        value
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            fields.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the plain run up to the next quote or backslash as
            // one slice: both are ASCII, so the cut is a char boundary.
            let start = self.pos;
            let end = self.bytes[start..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .map(|run| start + run)
                .ok_or("unterminated string")?;
            out.push_str(&self.text[start..end]);
            self.pos = end + 1;
            if self.bytes[end] == b'"' {
                return Ok(out);
            }
            self.escape(&mut out)?;
        }
    }

    /// Decodes the escape after a backslash (already consumed).
    fn escape(&mut self, out: &mut String) -> Result<(), String> {
        let at = self.pos;
        let letter = self.peek().ok_or("unterminated string")?;
        self.pos += 1;
        let c = match letter {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let code = self.hex4()?;
                self.unicode(code)
            }
            _ => return Err(format!("bad escape at byte {at}")),
        };
        out.push(c);
        Ok(())
    }

    /// Reads exactly four ASCII hex digits.
    fn hex4(&mut self) -> Result<u32, String> {
        let digits = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| format!("truncated \\u escape at byte {}", self.pos))?;
        let mut code = 0;
        for &d in digits {
            let nibble = char::from(d)
                .to_digit(16)
                .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
            code = code * 16 + nibble;
        }
        self.pos += 4;
        Ok(code)
    }

    /// The char for a `\u` code unit, joining a high surrogate with a
    /// `\u` low surrogate right after it. Lone surrogates fall back to
    /// the replacement character; the writer never emits them.
    fn unicode(&mut self, code: u32) -> char {
        if (0xd800..0xdc00).contains(&code) && self.bytes[self.pos..].starts_with(b"\\u") {
            let resume = self.pos;
            self.pos += 2;
            match self.hex4() {
                Ok(low @ 0xdc00..=0xdfff) => {
                    let joined = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
                    return char::from_u32(joined).unwrap_or('\u{fffd}');
                }
                // Not a low surrogate: leave the escape for the caller.
                _ => self.pos = resume,
            }
        }
        char::from_u32(code).unwrap_or('\u{fffd}')
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        let mut fractional = false;
        // Digits accumulate with checked arithmetic; `None` marks an
        // integer too large for a u64.
        let mut int = Some(0u64);
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => {
                    int = int
                        .and_then(|n| n.checked_mul(10))
                        .and_then(|n| n.checked_add(u64::from(b - b'0')));
                }
                b'-' | b'.' | b'e' | b'E' | b'+' => fractional = true,
                _ => break,
            }
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        let value = if fractional {
            text.parse::<f64>().ok().map(Json::F64)
        } else {
            int.map(Json::U64)
        };
        value.ok_or_else(|| format!("bad number '{text}' at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for text in ["null", "true", "false", "0", "42", "18446744073709551615"] {
            let v = Json::parse(text).unwrap();
            assert_eq!(v.to_string(), text);
        }
    }

    #[test]
    fn floats_round_trip_exactly() {
        for value in [0.5, 1.0, 97.25, 1e-9, 123456.789] {
            let text = Json::F64(value).to_string();
            match Json::parse(&text).unwrap() {
                Json::F64(back) => assert_eq!(back.to_bits(), value.to_bits(), "{text}"),
                other => panic!("{text} parsed as {other:?}"),
            }
        }
    }

    #[test]
    fn integers_stay_integers() {
        assert_eq!(Json::parse("7").unwrap(), Json::U64(7));
        assert_eq!(Json::parse("7.0").unwrap(), Json::F64(7.0));
        assert_eq!(Json::parse("-7").unwrap(), Json::F64(-7.0));
    }

    #[test]
    fn strings_escape_and_unescape() {
        let original = "a \"quote\"\nand\ttab \\ slash";
        let text = Json::Str(original.to_owned()).to_string();
        assert_eq!(Json::parse(&text).unwrap().as_str(), Some(original));
        assert_eq!(Json::parse(r#""Aé""#).unwrap().as_str(), Some("Aé"));
    }

    #[test]
    fn nested_structure_round_trips_canonically() {
        let doc = r#"{"name":"rb","rows":[{"n":2,"util":0.5},{"n":4,"util":0.75}],"ok":true}"#;
        let v = Json::parse(doc).unwrap();
        assert_eq!(v.to_string(), doc);
        assert_eq!(
            v.get("rows").and_then(Json::as_array).map(<[Json]>::len),
            Some(2)
        );
    }

    #[test]
    fn whitespace_is_insignificant() {
        let v = Json::parse(" { \"a\" : [ 1 , 2 ] , \"b\" : { } } ").unwrap();
        assert_eq!(v.to_string(), r#"{"a":[1,2],"b":{}}"#);
    }

    #[test]
    fn errors_name_the_offset() {
        assert!(Json::parse("{\"a\":}").is_err());
        assert!(Json::parse("[1,2").is_err());
        assert!(Json::parse("12 34").unwrap_err().contains("trailing"));
        assert!(Json::parse("\"open").is_err());
    }

    #[test]
    fn nesting_is_bounded_without_overflowing_the_stack() {
        let deep = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(Json::parse(&deep(MAX_DEPTH)).is_ok());
        let err = Json::parse(&deep(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(
            err,
            format!("nesting deeper than {MAX_DEPTH} at byte {MAX_DEPTH}")
        );
        // Unbalanced and far deeper: an error, not a stack overflow.
        let err = Json::parse(&"[{\"a\":".repeat(1_000_000)).unwrap_err();
        assert!(err.starts_with("nesting deeper than"), "{err}");
        assert!(Json::parse(&"[".repeat(1_000_000)).is_err());
    }

    #[test]
    fn simple_escapes_decode() {
        let v = Json::parse(r#""\"\\\/\b\f\n\r\t""#).unwrap();
        assert_eq!(v.as_str(), Some("\"\\/\u{8}\u{c}\n\r\t"));
        assert!(Json::parse(r#""\x""#).unwrap_err().contains("bad escape"));
        assert!(Json::parse(r#""\"#).is_err());
    }

    #[test]
    fn unicode_escapes_need_exactly_four_hex_digits() {
        assert_eq!(Json::parse(r#""Aé""#).unwrap().as_str(), Some("Aé"));
        assert_eq!(
            Json::parse(r#""\u0041\u00e9""#).unwrap().as_str(),
            Some("Aé")
        );
        for bad in [
            r#""\u+041""#,
            r#""\u-041""#,
            r#""\u 041""#,
            r#""\u04g1""#,
            r#""\u04""#,
        ] {
            assert!(Json::parse(bad).is_err(), "{bad} parsed");
        }
    }

    #[test]
    fn surrogate_pairs_join_into_one_char() {
        assert_eq!(
            Json::parse(r#""\ud83d\ude00""#).unwrap().as_str(),
            Some("😀")
        );
        assert_eq!(
            Json::parse(r#""x\uD834\uDD1Ey""#).unwrap().as_str(),
            Some("x𝄞y")
        );
    }

    #[test]
    fn lone_surrogates_decode_to_the_replacement_char() {
        for (text, want) in [
            (r#""\ud83d""#, "\u{fffd}"),
            (r#""\ude00""#, "\u{fffd}"),
            (r#""\ud83dx""#, "\u{fffd}x"),
            (r#""\ud83d\u0041""#, "\u{fffd}A"),
            (r#""\ud83d\ud83d\ude00""#, "\u{fffd}😀"),
            (r#""\ude00\ud83d""#, "\u{fffd}\u{fffd}"),
        ] {
            assert_eq!(Json::parse(text).unwrap().as_str(), Some(want), "{text}");
        }
        // A high surrogate followed by a malformed escape is still an error.
        assert!(Json::parse(r#""\ud83d\u12""#).is_err());
    }

    #[test]
    fn control_characters_render_as_unicode_escapes() {
        let text = Json::Str("\u{0}\u{8}\u{c}\u{1f}\u{7f}".to_owned()).to_string();
        assert_eq!(text, "\"\\u0000\\u0008\\u000c\\u001f\u{7f}\"");
        assert_eq!(Json::parse(&text).unwrap().to_string(), text);
    }

    #[test]
    fn integers_overflowing_u64_are_rejected() {
        assert_eq!(
            Json::parse("18446744073709551615").unwrap(),
            Json::U64(u64::MAX)
        );
        assert!(Json::parse("18446744073709551616")
            .unwrap_err()
            .contains("bad number"));
        assert_eq!(Json::parse("007").unwrap(), Json::U64(7));
        assert_eq!(
            Json::parse("18446744073709551616.0").unwrap(),
            Json::F64(18_446_744_073_709_551_616.0)
        );
        assert!(Json::parse("-").is_err());
        assert!(Json::parse("1-2").is_err());
    }
}
