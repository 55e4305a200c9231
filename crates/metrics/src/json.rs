//! The workspace's one JSON reader/writer, hand-rolled because the
//! build has no registry access.
//!
//! Run records, metric snapshots, the serve line protocol, Chrome
//! traces (`tc_trace::chrome`) and bench tables all go through it.
//! Integers are kept exact as `u64` — counters and histogram bounds
//! must survive a round trip without the 2⁵³ precision cliff of `f64`.
//! [`parse`] is fed from sockets and files, so it bounds its own
//! recursion ([`MAX_DEPTH`]) and walks each input byte once.

/// A parsed JSON value. Object member order is preserved.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    /// Non-negative integer token with no fraction/exponent.
    Int(u64),
    /// Any other number.
    Float(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Member lookup on an object (first match).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an exact `u64`, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Int(n) => Some(*n),
            Value::Float(f) if *f >= 0.0 && f.fract() == 0.0 && *f <= u64::MAX as f64 => {
                Some(*f as u64)
            }
            _ => None,
        }
    }

    /// The value as an `f64`, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(n) => Some(*n as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The object members, if it is an object.
    pub fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(members) => Some(members),
            _ => None,
        }
    }
}

/// Deepest array/object nesting [`parse`] accepts. The parser
/// recurses once per level, and its input arrives from sockets and
/// files: the stack depth is not the sender's to choose.
pub const MAX_DEPTH: usize = 64;

/// Parses one JSON document; trailing non-whitespace is an error.
pub fn parse(input: &str) -> Result<Value, String> {
    let mut p = Parser { src: input, pos: 0, depth: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != input.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    src: &'a str,
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", self.pos));
                }
                self.depth += 1;
                let v = if open == b'{' { self.object() } else { self.array() };
                self.depth -= 1;
                v
            }
            Some(b'"') => self.string().map(Value::Str),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.src.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            members.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // The run up to the next quote or backslash is copied in
            // one piece: both delimiters are ASCII, so the run is whole
            // UTF-8 scalars of an input that is already a `&str`.
            let start = self.pos;
            while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                self.pos += 1;
            }
            out.push_str(&self.src[start..self.pos]);
            let stop = self.peek().ok_or("unterminated string")?;
            self.pos += 1;
            if stop == b'"' {
                return Ok(out);
            }
            let esc = self.peek().ok_or("unterminated escape")?;
            self.pos += 1;
            out.push(match esc {
                b'"' => '"',
                b'\\' => '\\',
                b'/' => '/',
                b'b' => '\u{8}',
                b'f' => '\u{c}',
                b'n' => '\n',
                b'r' => '\r',
                b't' => '\t',
                b'u' => self.unicode_escape()?,
                _ => return Err(format!("bad escape at byte {}", self.pos)),
            });
        }
    }

    /// The scalar named by the `XXXX` after a `\u` — and, when that is
    /// a high surrogate, by the `\uXXXX` low surrogate that must follow.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let mut code = self.hex4()?;
        if (0xD800..0xDC00).contains(&code) {
            if !self.src.as_bytes()[self.pos..].starts_with(b"\\u") {
                return Err(format!("lone surrogate at byte {}", self.pos));
            }
            self.pos += 2;
            let lo = self.hex4()?;
            if !(0xDC00..0xE000).contains(&lo) {
                return Err(format!("bad low surrogate at byte {}", self.pos));
            }
            code = 0x10000 + ((code - 0xD800) << 10) + (lo - 0xDC00);
        }
        char::from_u32(code).ok_or_else(|| format!("lone surrogate at byte {}", self.pos))
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let mut v = 0;
        for _ in 0..4 {
            let digit = self
                .peek()
                .and_then(|b| (b as char).to_digit(16))
                .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
            self.pos += 1;
            v = v << 4 | digit;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut integral = true;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    integral = false;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = &self.src[start..self.pos];
        if integral && !text.starts_with('-') {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::Int(n));
            }
        }
        text.parse::<f64>().map(Value::Float).map_err(|e| format!("bad number '{text}': {e}"))
    }
}

/// Appends `s` JSON-escaped (without quotes) to `out`.
pub fn escape_into(out: &mut String, s: &str) {
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
}

/// Renders an `f64` as a JSON number token (finite values only;
/// non-finite values render as `0`).
pub fn fmt_f64(v: f64) -> String {
    if !v.is_finite() {
        return "0".into();
    }
    // `{}` on an f64 round-trips and never emits exponents for the
    // magnitudes this crate produces.
    format!("{v}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let v = parse(r#"{"a":[1,2.5,"x\n",-3e2,false],"b":{"c":true,"d":null},"n":-3}"#).unwrap();
        let a = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(a[0].as_u64(), Some(1));
        assert_eq!(a[1].as_f64(), Some(2.5));
        assert_eq!(a[2].as_str(), Some("x\n"));
        assert_eq!(a[3].as_f64(), Some(-300.0));
        assert_eq!(a[4], Value::Bool(false));
        assert_eq!(v.get("b").unwrap().get("c"), Some(&Value::Bool(true)));
        assert_eq!(v.get("b").unwrap().get("d"), Some(&Value::Null));
        assert_eq!(v.get("n").unwrap().as_f64(), Some(-3.0));
    }

    #[test]
    fn u64_integers_are_exact() {
        for big in [u64::MAX, (1 << 53) + 1] {
            let v = parse(&format!("{{\"x\":{big}}}")).unwrap();
            assert_eq!(v.get("x").unwrap().as_u64(), Some(big));
        }
    }

    #[test]
    fn rejects_trailing_garbage_and_bad_tokens() {
        assert!(parse("{} x").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("tru").is_err());
        assert!(parse("\"abc").is_err());
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse(r#"{"a":1} x"#).is_err());
        assert!(parse(r#""\uD800""#).is_err(), "lone high surrogate");
        assert!(parse(r#""\uD800\u0041""#).is_err(), "high surrogate, then no low one");
        assert!(parse(r#""\uDC00""#).is_err(), "lone low surrogate");
        assert!(parse(r#""\u12""#).is_err(), "truncated escape");
        assert!(parse(r#""\q""#).is_err(), "unknown escape");
    }

    #[test]
    fn parses_surrogate_pair() {
        assert_eq!(parse(r#""😀""#).unwrap().as_str(), Some("😀"));
        assert_eq!(parse(r#""\uD83D\uDE00 \u00e9""#).unwrap().as_str(), Some("😀 é"));
    }

    /// The union of the literal inputs the two former codecs' suites
    /// fed their parsers, one row each, judged by the one parser.
    #[test]
    fn conformance_table() {
        use Value::*;
        let accept: &[(&str, Value)] = &[
            ("null", Null),
            (" true ", Bool(true)),
            ("0", Int(0)),
            ("18446744073709551615", Int(u64::MAX)),
            ("9007199254740993", Int((1 << 53) + 1)),
            ("-3", Float(-3.0)),
            ("2.5", Float(2.5)),
            ("-3e2", Float(-300.0)),
            ("1e-9", Float(1e-9)),
            (r#""a\"b\\c\/d\b\f\n\r\t""#, Str("a\"b\\c/d\u{8}\u{c}\n\r\t".into())),
            (r#""\u0001\u00E9""#, Str("\u{1}é".into())),
            (r#""héllo 😀""#, Str("héllo 😀".into())),
            ("[]", Arr(vec![])),
            ("{}", Obj(vec![])),
            ("[1, [2, {\"k\": []}]]", {
                let inner = Obj(vec![("k".into(), Arr(vec![]))]);
                Arr(vec![Int(1), Arr(vec![Int(2), inner])])
            }),
            // Member order is kept, duplicates too; `get` takes the first.
            (r#"{"b":1,"a":2,"b":3}"#, {
                Obj(vec![("b".into(), Int(1)), ("a".into(), Int(2)), ("b".into(), Int(3))])
            }),
        ];
        for (input, want) in accept {
            assert_eq!(parse(input).as_ref(), Ok(want), "{input}");
        }
        let reject = [
            "", " ", "{", "[", "[1,]", "[1 2]", "{\"a\"}", "{\"a\":}", "{,}", "{} x", "1 2", "tru",
            "nul", "\"abc", "\"abc\\", "-", "1e", "--1", "not json",
        ];
        for input in reject {
            assert!(parse(input).is_err(), "{input:?} must not parse");
        }
    }

    #[test]
    fn nesting_is_bounded() {
        for (open, close) in [("[", "]"), ("{\"a\":", "}")] {
            let nested = |depth: usize| format!("{}1{}", open.repeat(depth), close.repeat(depth));
            assert!(parse(&nested(MAX_DEPTH)).is_ok(), "depth {MAX_DEPTH} of {open}");
            let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
            assert!(err.contains("nesting deeper than 64"), "{err}");
            // Unclosed and far past any stack: still a typed error.
            let err = parse(&open.repeat(200_000)).unwrap_err();
            assert!(err.contains("nesting deeper than 64"), "{err}");
        }
        // Siblings do not accumulate depth.
        assert!(parse(&format!("[{}]", vec!["[[]]"; 1000].join(","))).is_ok());
    }

    /// A per-character re-validation of the rest of the input made
    /// this quadratic: 1.6 MB took 38 s. Linear, 4 MB is milliseconds.
    #[test]
    fn long_strings_parse_in_linear_time() {
        let body = "x\\n é".repeat(700_000);
        assert!(body.len() >= 4_000_000);
        let started = std::time::Instant::now();
        let v = parse(&format!("{{\"s\":\"{body}\"}}")).unwrap();
        assert_eq!(v.get("s").unwrap().as_str().map(str::len), Some(body.len() - 700_000));
        assert!(started.elapsed() < std::time::Duration::from_secs(5), "{:?}", started.elapsed());
    }

    #[test]
    fn escape_round_trips() {
        let mut out = String::from("\"");
        escape_into(&mut out, "a\"b\\c\nd\u{1}");
        out.push('"');
        let v = parse(&out).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\nd\u{1}"));
    }

    #[test]
    fn escape_round_trips_through_parse() {
        let s = "a\"b\\c\nd\te\u{1}f héllo 😀";
        let mut lit = String::from("\"");
        escape_into(&mut lit, s);
        lit.push('"');
        assert_eq!(parse(&lit).unwrap().as_str(), Some(s));
    }

    #[test]
    fn fmt_f64_is_parseable() {
        for v in [0.0, 1.5, -2.0, 1e-9, 12345.0] {
            let s = fmt_f64(v);
            assert_eq!(parse(&s).unwrap().as_f64(), Some(v), "{s}");
        }
        assert_eq!(fmt_f64(f64::NAN), "0");
    }
}
