//! A minimal hand-rolled JSON value model, parser and writer.
//!
//! The workspace builds offline (no serde); this module is just enough
//! JSON for the harness's content-addressed result store and the
//! [`SimReport`](crate::SimReport) round-trip: objects, arrays, strings
//! with escapes, booleans, null, and numbers. Unsigned integers are kept
//! as exact `u64` (simulation counters exceed the 2^53 range where `f64`
//! starts dropping bits); everything else parses as `f64`.

use std::fmt;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer written without fraction or exponent —
    /// kept exact so `u64` counters survive the round trip.
    UInt(u64),
    /// Any other number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, preserving member order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// The value of an object member, if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// This value as a `u64` (exact integers only).
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::UInt(u) => Some(u),
            _ => None,
        }
    }

    /// This value as an `f64` (accepts exact integers too).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::UInt(u) => Some(u as f64),
            Json::Num(x) => Some(x),
            _ => None,
        }
    }

    /// This value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// This value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Json::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// This value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes the value on one line (no pretty-printing — the result
    /// store is a JSON-lines format).
    ///
    /// # Panics
    ///
    /// Panics on non-finite floats: NaN/infinity have no JSON encoding,
    /// and silently writing `null` would corrupt stored results.
    pub fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::UInt(u) => out.push_str(&u.to_string()),
            Json::Num(x) => {
                assert!(x.is_finite(), "cannot serialize non-finite number {x}");
                // `{:?}` prints the shortest representation that parses
                // back to the same f64.
                out.push_str(&format!("{x:?}"));
            }
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// [`write`](Json::write) into a fresh string.
    pub fn to_json_string(&self) -> String {
        let mut s = String::new();
        self.write(&mut s);
        s
    }
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parse failure: byte offset plus a short description.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure in the input.
    pub pos: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for JsonError {}

/// Deepest array/object nesting [`parse`] accepts. The parser recurses
/// per level and runs on every inbound fabric frame before the peer has
/// said `hello`, so depth must not be the sender's to choose; the deepest
/// shape any record or message has is under a tenth of this.
pub const MAX_DEPTH: usize = 128;

/// Parses one JSON document; trailing non-whitespace is an error.
///
/// One pass, O(input bytes), recursion bounded by [`MAX_DEPTH`].
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        src: input,
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.src.len() {
        return Err(p.err("trailing characters after JSON value"));
    }
    Ok(v)
}

struct Parser<'a> {
    src: &'a str,
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError {
            pos: self.pos,
            msg: msg.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
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
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, JsonError> {
        if self.src[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(open @ (b'[' | b'{')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
                }
                self.depth += 1;
                let v = if open == b'[' {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                v
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            members.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            // Copy the run up to the next quote, backslash or control
            // byte in one piece. All three are ASCII, so the run starts
            // and ends on character boundaries of the input `&str`.
            let rest = &self.src[self.pos..];
            let run = rest
                .bytes()
                .position(|b| b == b'"' || b == b'\\' || b < 0x20)
                .unwrap_or(rest.len());
            s.push_str(&rest[..run]);
            self.pos += run;
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let cp = self.hex4()?;
                            // Surrogate pairs: a high surrogate must be
                            // followed by an escaped low surrogate.
                            let c = if (0xd800..0xdc00).contains(&cp) {
                                if self.peek() != Some(b'\\') {
                                    return Err(self.err("lone high surrogate"));
                                }
                                self.pos += 1;
                                if self.peek() != Some(b'u') {
                                    return Err(self.err("lone high surrogate"));
                                }
                                self.pos += 1;
                                let lo = self.hex4()?;
                                if !(0xdc00..0xe000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let combined = 0x10000 + ((cp - 0xd800) << 10) + (lo - 0xdc00);
                                char::from_u32(combined)
                                    .ok_or_else(|| self.err("invalid surrogate pair"))?
                            } else {
                                char::from_u32(cp).ok_or_else(|| self.err("invalid \\u escape"))?
                            };
                            s.push(c);
                            // hex4 leaves pos past the digits; the outer
                            // loop's advance below would skip a char.
                            continue;
                        }
                        _ => return Err(self.err("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(_) => return Err(self.err("unescaped control character")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        if end > self.src.len() {
            return Err(self.err("truncated \\u escape"));
        }
        // `get` is `None` when the fourth byte is inside a character.
        // Four hex digits and nothing else: `from_str_radix` alone
        // would also take a leading sign.
        let hex = self
            .src
            .get(self.pos..end)
            .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
            .ok_or_else(|| self.err("invalid \\u escape"))?;
        let cp = u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos = end;
        Ok(cp)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_integer = true;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_integer = false;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = &self.src[start..self.pos];
        if is_integer && !text.starts_with('-') {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Json::UInt(u));
            }
        }
        match text.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(Json::Num(x)),
            _ => Err(JsonError {
                pos: start,
                msg: format!("invalid number '{text}'"),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for src in ["null", "true", "false", "0", "42", "18446744073709551615"] {
            let v = parse(src).unwrap();
            assert_eq!(v.to_json_string(), src);
        }
        assert_eq!(parse("1.5").unwrap(), Json::Num(1.5));
        assert_eq!(parse("-3").unwrap(), Json::Num(-3.0));
        assert_eq!(parse("1e3").unwrap(), Json::Num(1000.0));
    }

    #[test]
    fn u64_counters_stay_exact() {
        let big = u64::MAX - 1;
        let v = parse(&big.to_string()).unwrap();
        assert_eq!(v.as_u64(), Some(big));
    }

    #[test]
    fn strings_escape_and_parse() {
        let s = "line\nquote\"back\\slash\ttab";
        let v = Json::Str(s.to_string());
        let parsed = parse(&v.to_json_string()).unwrap();
        assert_eq!(parsed.as_str(), Some(s));
        assert_eq!(parse(r#""Aé""#).unwrap().as_str(), Some("Aé"));
        assert_eq!(parse(r#""😀""#).unwrap().as_str(), Some("\u{1f600}"));
    }

    #[test]
    fn objects_and_arrays() {
        let src = r#"{"a":[1,2.5,"x"],"b":{"c":true},"d":null}"#;
        let v = parse(src).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("d"), Some(&Json::Null));
        assert_eq!(v.to_json_string(), src);
    }

    /// Every malformed input keeps its message *and byte offset*: store
    /// corruption reports and fabric protocol errors quote both.
    #[test]
    fn errors_are_loud() {
        let cases: &[(&str, usize, &str)] = &[
            ("", 0, "unexpected end of input"),
            ("{", 1, "expected '\"'"),
            ("[1,]", 3, "unexpected character"),
            ("nul", 0, "expected 'null'"),
            ("1 2", 2, "trailing characters after JSON value"),
            (r#"{"a":1"#, 6, "expected ',' or '}' in object"),
            ("\"\u{1}\"", 1, "unescaped control character"),
            ("[true,?]", 6, "unexpected character"),
            // A raw control byte in the middle of a run, after ASCII and
            // after a two-byte character (offsets are bytes, not chars).
            ("\"abc\u{1}def\"", 4, "unescaped control character"),
            ("\"ab\tc\"", 3, "unescaped control character"),
            ("\"é\u{1}\"", 3, "unescaped control character"),
            // A string cut in the middle of a run.
            ("\"abc", 4, "unterminated string"),
            ("\"abé", 5, "unterminated string"),
            (r#"["x","yz"#, 8, "unterminated string"),
            // Escapes.
            (r#""\x""#, 2, "invalid escape sequence"),
            (r#""\"#, 2, "invalid escape sequence"),
            (r#""\u12"#, 3, "truncated \\u escape"),
            (r#""\u"#, 3, "truncated \\u escape"),
            (r#""\u12g4""#, 3, "invalid \\u escape"),
            (r#""\u000é""#, 3, "invalid \\u escape"),
            (r#""\u+041""#, 3, "invalid \\u escape"),
            (r#""\u-041""#, 3, "invalid \\u escape"),
            // Surrogates: lone high, high followed by a non-\u escape,
            // high followed by a non-low, lone low.
            (r#""\ud800""#, 7, "lone high surrogate"),
            (r#""\ud800\n""#, 8, "lone high surrogate"),
            (r#""\ud800\u0041""#, 13, "invalid low surrogate"),
            (r#""\ud800\u12""#, 9, "truncated \\u escape"),
            (r#""\udc00""#, 7, "invalid \\u escape"),
        ];
        for &(src, pos, msg) in cases {
            let e = parse(src).expect_err(src);
            assert_eq!((e.pos, e.msg.as_str()), (pos, msg), "input {src:?}");
        }
    }

    #[test]
    fn nesting_is_capped() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let e = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(e.pos, MAX_DEPTH);
        assert!(e.msg.contains("nesting"), "{e}");
        // Objects count too, and siblings do not: depth is nesting, not
        // the number of containers.
        let e = parse(&r#"{"a":"#.repeat(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(e.pos, 5 * MAX_DEPTH);
        assert!(parse(&format!("[{}[]]", "[],".repeat(4 * MAX_DEPTH))).is_ok());
    }

    /// What aborted `valley serve`: unbounded recursion on a frame of
    /// `[`, on a handler thread's 2 MiB stack. With the cap it is an
    /// error at the first level past [`MAX_DEPTH`], however long the run.
    #[test]
    fn hostile_nesting_is_an_error_not_a_stack_overflow() {
        let handler = std::thread::Builder::new().stack_size(2 << 20);
        let e = handler
            .spawn(|| parse(&"[".repeat(1_000_000)))
            .expect("spawn")
            .join()
            .expect("parser must not unwind or overflow")
            .unwrap_err();
        assert_eq!(e.pos, MAX_DEPTH);
    }

    /// Decode is O(bytes). A per-character rescan of the remaining input
    /// (what `string` once did) needs over ten minutes for this document
    /// even optimized; one pass needs well under a second unoptimized, so
    /// the limit separates the two by orders of magnitude.
    #[test]
    fn parse_is_linear_in_document_size() {
        let item = format!("\"{}é\\n{}\",", "k".repeat(500), "v".repeat(500));
        let n = 8 * 1024 * 1024 / item.len();
        let mut doc = String::with_capacity(n * item.len() + 2);
        doc.push('[');
        for _ in 0..n {
            doc.push_str(&item);
        }
        doc.pop();
        doc.push(']');
        #[expect(
            clippy::disallowed_methods,
            reason = "the test's subject is decode time: a quadratic parser and a linear one differ only on the clock"
        )]
        let start = std::time::Instant::now();
        let v = parse(&doc).unwrap();
        let elapsed = start.elapsed();
        let items = v.as_arr().unwrap();
        assert_eq!(items.len(), n);
        assert_eq!(items[n - 1].as_str().unwrap().len(), 1003);
        assert!(
            elapsed < std::time::Duration::from_secs(5),
            "{} bytes took {elapsed:?}",
            doc.len()
        );
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn non_finite_floats_refuse_to_serialize() {
        Json::Num(f64::NAN).to_json_string();
    }
}
