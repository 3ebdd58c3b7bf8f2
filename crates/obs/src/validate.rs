//! The workspace's JSON reader: a minimal parser plus field accessors.
//!
//! The vendored `serde_json` stand-in only serializes, so everything
//! that reads JSON back goes through [`parse_json`]: telemetry streams
//! and trace captures (twmc-analyze), checkpoints (twmc-resume), and
//! the daemon's request bodies and spool files (twmc-serve). It lifts
//! one document into a [`serde::Value`] tree in time linear in its
//! length; [`get`] and its typed siblings pick fields out of an object.
//! Telemetry streams are checked as they are read, by
//! `twmc_analyze::parse_stream`.

use serde::Value;

/// Parses one JSON document (object, array, scalar).
pub fn parse_json(text: &str) -> Result<Value, String> {
    let mut pos = 0usize;
    let v = parse_value(text, &mut pos)?;
    skip_ws(text.as_bytes(), &mut pos);
    if pos != text.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(v)
}

/// Looks a field up in an object value.
pub fn get<'a>(v: &'a Value, name: &str) -> Option<&'a Value> {
    match v {
        Value::Object(entries) => entries.iter().find(|(k, _)| k == name).map(|(_, v)| v),
        _ => None,
    }
}

/// Reads a string field.
pub fn get_str<'a>(v: &'a Value, name: &str) -> Option<&'a str> {
    match get(v, name) {
        Some(Value::Str(s)) => Some(s),
        _ => None,
    }
}

/// Reads an unsigned-integer field.
pub fn get_u64(v: &Value, name: &str) -> Option<u64> {
    get(v, name).and_then(as_u64)
}

/// Reads a value as an unsigned integer (the parser produces `Int` for
/// every integer that fits one).
pub fn as_u64(v: &Value) -> Option<u64> {
    match v {
        Value::UInt(n) => Some(*n),
        Value::Int(n) => u64::try_from(*n).ok(),
        _ => None,
    }
}

/// Reads a signed-integer field.
pub fn get_i64(v: &Value, name: &str) -> Option<i64> {
    match get(v, name) {
        Some(Value::Int(n)) => Some(*n),
        Some(Value::UInt(n)) => i64::try_from(*n).ok(),
        _ => None,
    }
}

/// Reads a boolean field.
pub fn get_bool(v: &Value, name: &str) -> Option<bool> {
    match get(v, name) {
        Some(Value::Bool(b)) => Some(*b),
        _ => None,
    }
}

/// Reads a float field (accepting integer spellings).
pub fn get_f64(v: &Value, name: &str) -> Option<f64> {
    match get(v, name) {
        Some(Value::Float(f)) => Some(*f),
        Some(Value::Int(n)) => Some(*n as f64),
        Some(Value::UInt(n)) => Some(*n as f64),
        _ => None,
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(s: &str, pos: &mut usize) -> Result<Value, String> {
    let b = s.as_bytes();
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".to_owned()),
        Some(b'{') => {
            *pos += 1;
            let mut entries = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Object(entries));
            }
            loop {
                skip_ws(b, pos);
                let key = match parse_value(s, pos)? {
                    Value::Str(s) => s,
                    _ => return Err(format!("object key at byte {pos} is not a string")),
                };
                skip_ws(b, pos);
                if b.get(*pos) != Some(&b':') {
                    return Err(format!("expected `:` at byte {pos}"));
                }
                *pos += 1;
                let val = parse_value(s, pos)?;
                entries.push((key, val));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Object(entries));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Array(items));
            }
            loop {
                items.push(parse_value(s, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Array(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {pos}")),
                }
            }
        }
        Some(b'"') => parse_string(s, pos).map(Value::Str),
        Some(b't') => parse_lit(b, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Value::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Value::Null),
        Some(_) => parse_number(s, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Value) -> Result<Value, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("invalid literal at byte {pos}"))
    }
}

fn parse_string(s: &str, pos: &mut usize) -> Result<String, String> {
    let b = s.as_bytes();
    debug_assert_eq!(b[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".to_owned()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = s
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape".to_owned())?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| "bad \\u escape".to_owned())?;
                        // Surrogate pairs are not emitted by our writer;
                        // map lone surrogates to the replacement char.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the run of plain characters up to the next quote
                // or escape. Both are ASCII, so the run ends on a
                // character boundary.
                let end = b[*pos..]
                    .iter()
                    .position(|&c| c == b'"' || c == b'\\')
                    .map_or(b.len(), |n| *pos + n);
                out.push_str(&s[*pos..end]);
                *pos = end;
            }
        }
    }
}

fn parse_number(s: &str, pos: &mut usize) -> Result<Value, String> {
    let b = s.as_bytes();
    let start = *pos;
    while *pos < b.len()
        && matches!(
            b[*pos],
            b'0'..=b'9'
                | b'-'
                | b'+'
                | b'.'
                | b'e'
                | b'E'
                | b'i'
                | b'n'
                | b'a'
                | b'f'
                | b't'
                | b'y'
                | b'N'
        )
    {
        // The extra letters admit non-finite spellings (inf, NaN) so a
        // malformed stream fails with a clear message below rather than
        // a confusing `expected , or }`.
        *pos += 1;
    }
    let text = &s[start..*pos];
    if text.is_empty() {
        return Err(format!("unexpected character at byte {start}"));
    }
    if !text.contains(['.', 'e', 'E', 'i', 'n', 'N']) {
        if let Ok(n) = text.parse::<i64>() {
            return Ok(Value::Int(n));
        }
        if let Ok(n) = text.parse::<u64>() {
            return Ok(Value::UInt(n));
        }
    }
    let f: f64 = text
        .parse()
        .map_err(|_| format!("invalid number `{text}` at byte {start}"))?;
    if !f.is_finite() {
        return Err(format!("non-finite number `{text}` at byte {start}"));
    }
    Ok(Value::Float(f))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Event, StageSpan};

    #[test]
    fn parses_scalars_and_nesting() {
        assert_eq!(parse_json("null").unwrap(), Value::Null);
        assert_eq!(parse_json("true").unwrap(), Value::Bool(true));
        assert_eq!(parse_json("-5").unwrap(), Value::Int(-5));
        assert_eq!(
            parse_json("18446744073709551615").unwrap(),
            Value::UInt(u64::MAX)
        );
        assert_eq!(parse_json("1.5e3").unwrap(), Value::Float(1500.0));
        let v = parse_json(r#"{"a": [1, {"b": "x\ny"}], "c": null}"#).unwrap();
        let Value::Object(entries) = v else {
            panic!("object")
        };
        assert_eq!(entries.len(), 2);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse_json("{").is_err());
        assert!(parse_json("[1,]").is_err());
        assert!(parse_json(r#"{"a" 1}"#).is_err());
        assert!(parse_json("1 2").is_err());
        assert!(parse_json("NaN").is_err());
        assert!(parse_json("\"unterminated").is_err());
        assert!(parse_json("\"\\u12").is_err());
        assert!(parse_json("\"\\u12é\"").is_err());
    }

    #[test]
    fn strings_keep_every_character() {
        let v = parse_json(r#"{"s": "añb\t\"c\u00e9\\d€"}"#).unwrap();
        assert_eq!(get_str(&v, "s"), Some("añb\t\"cé\\d€"));
    }

    #[test]
    fn parses_a_mebibyte_string_in_linear_time() {
        // A body this size used to take tens of seconds: every string
        // character re-checked the whole input as UTF-8.
        let value = "ab€\\n".repeat(1 << 18);
        let text = format!("{{\"netlist\":\"{value}\",\"seed\":7}}");
        assert!(text.len() > 1 << 20);
        let t0 = std::time::Instant::now();
        let v = parse_json(&text).unwrap();
        let secs = t0.elapsed().as_secs_f64();
        assert!(secs < 2.0, "parsing 1 MiB took {secs:.2}s");
        assert_eq!(get_str(&v, "netlist").map(str::len), Some(6 << 18));
        assert_eq!(get_u64(&v, "seed"), Some(7));
    }

    #[test]
    fn accessors_read_typed_fields() {
        let v = parse_json(r#"{"n": "j1", "u": 7, "i": -2, "b": true, "f": 12.5}"#).unwrap();
        assert_eq!(get_str(&v, "n"), Some("j1"));
        assert_eq!(get_u64(&v, "u"), Some(7));
        assert_eq!(get_i64(&v, "i"), Some(-2));
        assert_eq!(get_bool(&v, "b"), Some(true));
        assert_eq!(get_f64(&v, "f"), Some(12.5));
        assert_eq!(get_f64(&v, "u"), Some(7.0));
        assert_eq!(get_u64(&v, "i"), None, "negative is not unsigned");
        assert_eq!(get_u64(&v, "f"), None, "a float is not an integer");
        assert_eq!(get_str(&v, "u"), None);
        assert_eq!(get(&v, "missing"), None);
        assert_eq!(get(&Value::Int(1), "n"), None, "not an object");
    }

    #[test]
    fn roundtrips_serialized_events() {
        let ev = Event::StageSpan(StageSpan {
            stage: "global_routing",
            iteration: 2,
            wall_us: 987,
        });
        let json = serde_json::to_string(&ev).unwrap();
        let v = parse_json(&json).unwrap();
        // Int(2) and UInt(2) are both valid parses of `2`, so compare
        // the re-serialized text rather than the value trees.
        assert_eq!(serde_json::to_string(&v).unwrap(), json);
    }
}
