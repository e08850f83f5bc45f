//! The one hand-rolled JSON writer (and a minimal reader) for the whole
//! workspace.
//!
//! Before this module existed, three serializers each carried their own
//! private copy of the same escape loop: `Report::to_json` in `lcs_api`,
//! the experiments-table emitter in `lcs_bench`, and the workload
//! histogram. They now all call [`escape`] / [`push_str_field`] /
//! [`string_array`] from here, so the escaping rules cannot drift apart.
//! The build environment has no serde; the writer stays deliberately
//! string-based — every caller pins its exact output bytes in tests, and
//! a streaming writer would make those goldens harder to reason about.
//!
//! [`JsonValue`] is a minimal parser for round-trip tests and CI
//! assertions. Numbers are kept as their raw source text (not `f64`), so
//! 64-bit digests survive a parse/write round trip bit-exactly.

/// Escapes `s` for embedding inside a JSON string literal (without the
/// surrounding quotes): `"` and `\` are backslash-escaped, the common
/// control characters get their short forms, and every other control
/// character becomes a `\u00xx` escape.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Appends `"key":"value"` (both escaped) to `out`.
pub fn push_str_field(out: &mut String, key: &str, value: &str) {
    out.push_str(&format!("\"{}\":\"{}\"", escape(key), escape(value)));
}

/// Serializes a slice of strings as a JSON array of (escaped) string
/// literals: `["a","b"]`.
pub fn string_array(items: &[String]) -> String {
    let cells: Vec<String> = items.iter().map(|c| format!("\"{}\"", escape(c))).collect();
    format!("[{}]", cells.join(","))
}

/// The deepest array/object nesting [`JsonValue::parse`] accepts. Every
/// document this workspace writes nests far less (a protocol line nests one
/// level); the cap keeps the recursive-descent parser's stack use bounded.
const MAX_DEPTH: usize = 128;

/// A parsed JSON value. Object member order is preserved; numbers keep
/// their raw token text so integers beyond 2^53 round-trip exactly.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its raw source token.
    Number(String),
    /// A string (unescaped).
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, as ordered key/value pairs.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Parses a complete JSON document. Trailing whitespace is allowed;
    /// trailing garbage is an error. Arrays and objects may nest at most
    /// 128 levels deep, so a hostile document cannot exhaust the parsing
    /// thread's stack.
    ///
    /// # Errors
    ///
    /// A human-readable description (with byte offset) of the first
    /// syntax error, or of the first container nested deeper than 128
    /// levels.
    pub fn parse(input: &str) -> Result<JsonValue, String> {
        let bytes = input.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, MAX_DEPTH)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(value)
    }

    /// Serializes the value back to JSON text. Parsing the result yields
    /// an equal `JsonValue` (the round-trip property the tests pin).
    pub fn write(&self) -> String {
        let mut out = String::new();
        self.write_into(&mut out);
        out
    }

    fn write_into(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Number(raw) => out.push_str(raw),
            JsonValue::String(s) => {
                out.push('"');
                out.push_str(&escape(s));
                out.push('"');
            }
            JsonValue::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_into(out);
                }
                out.push(']');
            }
            JsonValue::Object(members) => {
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    out.push_str(&escape(key));
                    out.push_str("\":");
                    value.write_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Member lookup on an object; `None` for other variants or a missing
    /// key.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The number parsed as `u64`, if this is an unsigned integer token.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Number(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Parses one value; `depth` is how many more containers may open.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    skip_ws(bytes, pos);
    if depth == 0 && matches!(bytes.get(*pos), Some(b'[' | b'{')) {
        return Err(format!(
            "nesting deeper than {MAX_DEPTH} at byte {pos}",
            pos = *pos
        ));
    }
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'n') => parse_literal(bytes, pos, "null", JsonValue::Null),
        Some(b't') => parse_literal(bytes, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", JsonValue::Bool(false)),
        Some(b'"') => Ok(JsonValue::String(parse_string(bytes, pos)?)),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(JsonValue::Array(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth - 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(JsonValue::Array(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut members = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(JsonValue::Object(members));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at byte {pos}", pos = *pos));
                }
                *pos += 1;
                let value = parse_value(bytes, pos, depth - 1)?;
                members.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(JsonValue::Object(members));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(c) if c.is_ascii_digit() || *c == b'-' => {
            let start = *pos;
            *pos += 1;
            while *pos < bytes.len()
                && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
            {
                *pos += 1;
            }
            let raw = std::str::from_utf8(&bytes[start..*pos]).expect("ascii number token");
            // Validate the token by letting the std parser check it.
            if raw.parse::<f64>().is_err() {
                return Err(format!("malformed number {raw:?} at byte {start}"));
            }
            Ok(JsonValue::Number(raw.to_string()))
        }
        Some(c) => Err(format!("unexpected byte {c:?} at offset {pos}", pos = *pos)),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    literal: &str,
    value: JsonValue,
) -> Result<JsonValue, String> {
    if bytes[*pos..].starts_with(literal.as_bytes()) {
        *pos += literal.len();
        Ok(value)
    } else {
        Err(format!("malformed literal at byte {pos}", pos = *pos))
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}", pos = *pos));
    }
    *pos += 1;
    let mut out = String::new();
    let mut chars = std::str::from_utf8(&bytes[*pos..])
        .map_err(|_| "invalid utf-8".to_string())?
        .char_indices();
    while let Some((offset, ch)) = chars.next() {
        match ch {
            '"' => {
                *pos += offset + 1;
                return Ok(out);
            }
            '\\' => match chars.next() {
                Some((_, '"')) => out.push('"'),
                Some((_, '\\')) => out.push('\\'),
                Some((_, '/')) => out.push('/'),
                Some((_, 'n')) => out.push('\n'),
                Some((_, 'r')) => out.push('\r'),
                Some((_, 't')) => out.push('\t'),
                Some((_, 'b')) => out.push('\u{8}'),
                Some((_, 'f')) => out.push('\u{c}'),
                Some((u_offset, 'u')) => {
                    let hex_start = *pos + u_offset + 1;
                    let hex = bytes
                        .get(hex_start..hex_start + 4)
                        .and_then(|h| std::str::from_utf8(h).ok())
                        .ok_or_else(|| "truncated \\u escape".to_string())?;
                    let code =
                        u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape".to_string())?;
                    out.push(char::from_u32(code).ok_or_else(|| "bad \\u escape".to_string())?);
                    // Consume the 4 hex digits from the char iterator.
                    for _ in 0..4 {
                        chars.next();
                    }
                }
                _ => return Err("bad escape sequence".to_string()),
            },
            c => out.push(c),
        }
    }
    Err("unterminated string".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_matches_the_historical_writers() {
        assert_eq!(escape("plain"), "plain");
        assert_eq!(escape("a\"b"), "a\\\"b");
        assert_eq!(escape("a\\b"), "a\\\\b");
        assert_eq!(escape("a\nb\rc\td"), "a\\nb\\rc\\td");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn push_str_field_quotes_and_escapes() {
        let mut out = String::new();
        push_str_field(&mut out, "k", "v\"x");
        assert_eq!(out, "\"k\":\"v\\\"x\"");
    }

    #[test]
    fn string_array_shape() {
        let items = vec!["a".to_string(), "b\"c".to_string()];
        assert_eq!(string_array(&items), "[\"a\",\"b\\\"c\"]");
        assert_eq!(string_array(&[]), "[]");
    }

    #[test]
    fn parse_round_trips_all_value_kinds() {
        let doc = "{\"null\":null,\"flag\":true,\"off\":false,\"n\":-12.5e3,\
                   \"big\":18446744073709551557,\"s\":\"a\\\"b\\n\",\"arr\":[1,[],{}],\
                   \"obj\":{\"nested\":[null]}}";
        let parsed = JsonValue::parse(doc).unwrap();
        let rewritten = parsed.write();
        assert_eq!(JsonValue::parse(&rewritten).unwrap(), parsed);
        // Big integers survive bit-exactly because numbers keep raw text.
        assert_eq!(
            parsed.get("big").and_then(JsonValue::as_u64),
            Some(18446744073709551557)
        );
    }

    #[test]
    fn parse_rejects_trailing_garbage_and_syntax_errors() {
        assert!(JsonValue::parse("{} x").is_err());
        assert!(JsonValue::parse("{\"a\":}").is_err());
        assert!(JsonValue::parse("[1,]").is_err());
        assert!(JsonValue::parse("\"open").is_err());
        assert!(JsonValue::parse("nul").is_err());
    }

    #[test]
    fn nesting_is_capped_before_the_stack_runs_out() {
        // 100,000 open brackets overflowed a 2 MiB thread before the cap.
        let deep = "[".repeat(100_000);
        let err = JsonValue::parse(&deep).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
        let objects = "{\"a\":".repeat(100_000);
        assert!(JsonValue::parse(&objects).is_err());
        // Exactly MAX_DEPTH levels still parse; one more does not.
        let at_cap = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(JsonValue::parse(&at_cap).is_ok());
        let over = format!("[{at_cap}]");
        assert!(JsonValue::parse(&over).is_err());
    }

    #[test]
    fn unicode_escapes_parse() {
        let parsed = JsonValue::parse("\"\\u0041\\u00e9\"").unwrap();
        assert_eq!(parsed.as_str(), Some("Aé"));
    }

    #[test]
    fn get_walks_objects() {
        let parsed = JsonValue::parse("{\"a\":{\"b\":7}}").unwrap();
        let b = parsed.get("a").and_then(|a| a.get("b")).unwrap();
        assert_eq!(b.as_u64(), Some(7));
        assert_eq!(parsed.get("missing"), None);
    }
}
