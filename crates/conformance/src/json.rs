//! Minimal hand-rolled JSON: enough for scenario files, nothing more.
//!
//! The workspace deliberately has no `serde_json` dependency (the telemetry
//! exporters hand-roll their Chrome-trace JSON for the same reason), so the
//! conformance harness carries its own small value type, parser, and
//! pretty-printer. Integers are kept as `u64` end to end — scenario files
//! carry seeds and cycle counts that must survive a round trip without the
//! precision loss an `f64`-only representation would introduce.

use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer token (no `.`, `e`, or sign).
    Int(u64),
    /// Any other numeric token.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved so output is canonical.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object member by key.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an unsigned integer.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::Int(n) => Some(n),
            _ => None,
        }
    }

    /// The value as a float: any number, integers converted (exactly up
    /// to 2^53).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::Int(n) => Some(n as f64),
            Json::Float(x) => Some(x),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Json::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Required object member, as a scenario-flavoured error.
    pub fn req<'a>(&'a self, key: &str) -> Result<&'a Json, String> {
        self.get(key).ok_or_else(|| format!("missing key `{key}`"))
    }

    /// Required unsigned-integer member.
    pub fn req_u64(&self, key: &str) -> Result<u64, String> {
        self.req(key)?
            .as_u64()
            .ok_or_else(|| format!("key `{key}` must be an unsigned integer"))
    }

    /// Required string member.
    pub fn req_str<'a>(&'a self, key: &str) -> Result<&'a str, String> {
        self.req(key)?
            .as_str()
            .ok_or_else(|| format!("key `{key}` must be a string"))
    }

    /// Required bool member.
    pub fn req_bool(&self, key: &str) -> Result<bool, String> {
        self.req(key)?
            .as_bool()
            .ok_or_else(|| format!("key `{key}` must be a bool"))
    }

    /// Optional unsigned-integer member with a default.
    pub fn opt_u64(&self, key: &str, default: u64) -> Result<u64, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .as_u64()
                .ok_or_else(|| format!("key `{key}` must be an unsigned integer")),
        }
    }

    /// Optional bool member with a default.
    pub fn opt_bool(&self, key: &str, default: bool) -> Result<bool, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .as_bool()
                .ok_or_else(|| format!("key `{key}` must be a bool")),
        }
    }

    /// Pretty-prints with two-space indentation and a trailing newline —
    /// the canonical on-disk form of corpus files.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    /// Serializes on a single line with no whitespace — the wire form used
    /// by line-delimited protocols, where a document must not contain a
    /// literal newline. Parses back to the same value as [`Json::pretty`].
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Float(x) => {
                let _ = write!(out, "{x}");
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Float(x) => {
                let _ = write!(out, "{x}");
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) if items.is_empty() => out.push_str("[]"),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    out.push_str(&"  ".repeat(indent + 1));
                    item.write(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
                out.push(']');
            }
            Json::Obj(members) if members.is_empty() => out.push_str("{}"),
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    out.push_str(&"  ".repeat(indent + 1));
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
                out.push('}');
            }
        }
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
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

/// Deepest array/object nesting [`parse`] accepts. The parser recurses once
/// per level, so without a bound a few kilobytes of `[` overflow the thread
/// stack and abort the process; no scenario comes near this depth.
pub const MAX_DEPTH: usize = 128;

/// Parses one JSON document, rejecting trailing garbage, nesting deeper
/// than [`MAX_DEPTH`], and an object that repeats a member name (which
/// [`Json::get`] would otherwise resolve silently to the first).
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing characters at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&c) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected `{}` at byte {}", c as char, *pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    if depth == MAX_DEPTH && matches!(bytes.get(*pos), Some(b'{' | b'[')) {
        return Err(format!(
            "nesting deeper than {MAX_DEPTH} levels at byte {}",
            *pos
        ));
    }
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => {
            *pos += 1;
            let mut members = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                expect(bytes, pos, b':')?;
                let value = parse_value(bytes, pos, depth + 1)?;
                members.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        // Sorted, not pairwise: a wide object must not
                        // cost quadratic time.
                        let mut keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
                        keys.sort_unstable();
                        if let Some(pair) = keys.windows(2).find(|pair| pair[0] == pair[1]) {
                            return Err(format!(
                                "object ending at byte {} repeats member `{}`",
                                *pos, pair[0]
                            ));
                        }
                        return Ok(Json::Obj(members));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {}", *pos)),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {}", *pos)),
                }
            }
        }
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {}", *pos));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let mut code = hex4(bytes, *pos + 1)?;
                        *pos += 4;
                        // A scalar above U+FFFF is escaped as a UTF-16 pair:
                        // a high surrogate, then a `\u` low surrogate.
                        if (0xD800..0xDC00).contains(&code) && bytes[*pos + 1..].starts_with(b"\\u")
                        {
                            let low = hex4(bytes, *pos + 3)?;
                            if (0xDC00..0xE000).contains(&low) {
                                code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                *pos += 6;
                            }
                        }
                        // `from_u32` refuses any surrogate left unpaired.
                        out.push(char::from_u32(code).ok_or("lone surrogate in \\u escape")?);
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (input came from &str, so the
                // byte stream is valid UTF-8).
                let start = *pos;
                *pos += 1;
                while *pos < bytes.len() && bytes[*pos] & 0xC0 == 0x80 {
                    *pos += 1;
                }
                out.push_str(std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?);
            }
        }
    }
}

/// The code unit a `\u` escape writes as the four hex digits at `at`:
/// exactly four ASCII hex digits, no sign.
fn hex4(bytes: &[u8], at: usize) -> Result<u32, String> {
    let digits = bytes.get(at..at + 4).ok_or("truncated \\u escape")?;
    digits.iter().try_fold(0, |code, &b| {
        let digit = char::from(b).to_digit(16).ok_or("bad \\u escape")?;
        Ok(code * 16 + digit)
    })
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let token = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    if token.is_empty() {
        return Err(format!("expected a value at byte {start}"));
    }
    if !is_json_number(token.as_bytes()) {
        return Err(format!("invalid number `{token}`"));
    }
    if token.bytes().all(|b| b.is_ascii_digit()) {
        token
            .parse::<u64>()
            .map(Json::Int)
            .map_err(|_| format!("integer `{token}` out of range"))
    } else {
        token
            .parse::<f64>()
            .map(Json::Float)
            .map_err(|_| format!("invalid number `{token}`"))
    }
}

/// Whether `t` is a number as RFC 8259 spells one:
/// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`. Rust's
/// `str::parse` alone would also take `+1`, `.5`, `5.` and `01`.
fn is_json_number(t: &[u8]) -> bool {
    let digits = |from: usize| t[from..].iter().take_while(|b| b.is_ascii_digit()).count();
    let mut i = usize::from(t.first() == Some(&b'-'));
    let int = digits(i);
    if int == 0 || (int > 1 && t[i] == b'0') {
        return false;
    }
    i += int;
    if t.get(i) == Some(&b'.') {
        let frac = digits(i + 1);
        if frac == 0 {
            return false;
        }
        i += 1 + frac;
    }
    if matches!(t.get(i), Some(b'e' | b'E')) {
        i += 1;
        if matches!(t.get(i), Some(b'+' | b'-')) {
            i += 1;
        }
        let exp = digits(i);
        if exp == 0 {
            return false;
        }
        i += exp;
    }
    i == t.len()
}

/// Convenience object builder preserving member order.
pub fn obj(members: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_documents() {
        let doc = obj(vec![
            ("name", Json::Str("wedge \"quoted\"\n".into())),
            ("seed", Json::Int(u64::MAX)),
            (
                "list",
                Json::Arr(vec![Json::Int(1), Json::Bool(false), Json::Null]),
            ),
            ("empty", Json::Obj(vec![])),
        ]);
        let text = doc.pretty();
        assert_eq!(parse(&text).unwrap(), doc);
    }

    #[test]
    fn u64_precision_is_preserved() {
        let v = parse("18446744073709551615").unwrap();
        assert_eq!(v.as_u64(), Some(u64::MAX));
    }

    #[test]
    fn compact_output_is_single_line_and_round_trips() {
        let doc = obj(vec![
            ("name", Json::Str("a \"b\"\n".into())),
            ("seed", Json::Int(u64::MAX)),
            (
                "list",
                Json::Arr(vec![Json::Int(1), Json::Bool(false), Json::Null]),
            ),
            ("empty", Json::Obj(vec![])),
        ]);
        let text = doc.compact();
        assert!(!text.contains('\n'), "{text}");
        assert_eq!(parse(&text).unwrap(), doc);
        assert_eq!(
            text,
            "{\"name\":\"a \\\"b\\\"\\n\",\"seed\":18446744073709551615,\
             \"list\":[1,false,null],\"empty\":{}}"
        );
    }

    #[test]
    fn pretty_output_is_stable() {
        let doc = obj(vec![
            ("a", Json::Int(1)),
            ("b", Json::Arr(vec![Json::Int(2)])),
        ]);
        assert_eq!(doc.pretty(), "{\n  \"a\": 1,\n  \"b\": [\n    2\n  ]\n}\n");
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("{\"a\": }").is_err());
        assert!(parse("[1, 2").is_err());
        assert!(parse("{} extra").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn numbers_outside_rfc_8259_are_refused() {
        for bad in [
            "+1", ".5", "5.", "1.e3", "01", "-01", "-", "1e", "1e+", "-.5", "--1",
        ] {
            assert!(parse(bad).is_err(), "{bad} parsed");
            assert!(
                parse(&format!("{{\"n\": [{bad}]}}")).is_err(),
                "{bad} parsed in a document"
            );
        }
    }

    #[test]
    fn rfc_8259_numbers_parse_as_before() {
        assert_eq!(parse("0").unwrap(), Json::Int(0));
        assert_eq!(parse("18446744073709551615").unwrap(), Json::Int(u64::MAX));
        let Json::Float(minus_zero) = parse("-0").unwrap() else {
            panic!("-0 is a float");
        };
        assert!(minus_zero == 0.0 && minus_zero.is_sign_negative());
        for (text, value) in [
            ("0.5", 0.5),
            ("1e3", 1e3),
            ("1E+3", 1e3),
            ("-1.5e-3", -1.5e-3),
        ] {
            assert_eq!(parse(text).unwrap(), Json::Float(value), "{text}");
        }
    }

    #[test]
    fn unicode_escapes_join_surrogate_pairs() {
        let s = |text: &str| parse(text).map(|v| v.as_str().map(str::to_string));
        assert_eq!(
            s(r#""\u0041\u00e9\u00E9""#).unwrap().unwrap(),
            "A\u{e9}\u{e9}"
        );
        // How Python's `json.dumps` writes an emoji by default.
        assert_eq!(s(r#""\ud83d\ude00""#).unwrap().unwrap(), "\u{1F600}");
        assert_eq!(s(r#""\udbff\udfff""#).unwrap().unwrap(), "\u{10FFFF}");
        assert_eq!(s(r#""a\u0000b""#).unwrap().unwrap(), "a\0b");
    }

    #[test]
    fn malformed_unicode_escapes_are_refused() {
        for bad in [
            r#""\u+041""#, // a sign is not a hex digit
            r#""\u-041""#,
            r#""\u 041""#,
            r#""\u04g1""#,
            r#""\u041""#,        // three digits, then the closing quote
            r#""\ud83d""#,       // lone high surrogate
            r#""\ud83dx""#,      // high surrogate, then a plain character
            r#""\ud83d\n""#,     // high surrogate, then another escape
            r#""\ud83d\u0041""#, // high surrogate, then no low one
            r#""\ud83d\ud83d""#, // two high surrogates
            r#""\ude00""#,       // lone low surrogate
            r#""\ude00\ud83d""#, // a pair in reverse
            r#""\ud83d\ude0""#,  // truncated low surrogate
        ] {
            assert!(parse(bad).is_err(), "{bad} parsed");
        }
    }

    #[test]
    fn repeated_member_names_are_refused_at_any_depth() {
        let err = parse(r#"{"name":"first","name":"second"}"#).unwrap_err();
        assert!(err.contains("repeats member `name`"), "{err}");
        assert!(parse(r#"[{"a":1},{"b":{"c":1,"d":2,"c":3}}]"#).is_err());
        // The same name in sibling objects is no repetition.
        assert!(parse(r#"[{"a":1},{"a":2,"b":{"a":3}}]"#).is_ok());
        // A wide object is checked in one sort, not pairwise.
        let wide: Vec<String> = (0..100_000).map(|i| format!("\"k{i}\":0")).collect();
        assert!(parse(&format!("{{{}}}", wide.join(","))).is_ok());
        let repeated = format!("{{{},\"k7\":1}}", wide.join(","));
        assert!(parse(&repeated).unwrap_err().contains("`k7`"));
    }

    #[test]
    fn nesting_is_bounded_at_max_depth() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting deeper than 128"), "{err}");
        assert!(parse(&"{\"a\":".repeat(MAX_DEPTH + 1)).is_err());
    }

    #[test]
    fn a_mebibyte_of_brackets_is_refused_on_a_default_stack() {
        // Spawned threads get the default 2 MiB stack, like serve's
        // connection handlers; unbounded recursion would abort the process.
        let text = "[".repeat(1 << 20);
        let result = std::thread::spawn(move || parse(&text)).join().unwrap();
        assert!(result.unwrap_err().contains("nesting deeper"));
    }

    #[test]
    fn accessors_type_check() {
        let doc = parse("{\"n\": 3, \"s\": \"x\", \"b\": true}").unwrap();
        assert_eq!(doc.req_u64("n").unwrap(), 3);
        assert_eq!(doc.req_str("s").unwrap(), "x");
        assert!(doc.req_bool("b").unwrap());
        assert!(doc.req_u64("s").is_err());
        assert!(doc.req_u64("missing").is_err());
        assert_eq!(doc.opt_u64("missing", 7).unwrap(), 7);
        assert!(doc.opt_bool("n", false).is_err());
    }
}
