//! JSONL stream validation: a minimal JSON parser plus schema checks.
//!
//! The vendored `serde_json` stand-in only serializes, so tests and CI
//! need an independent reader to prove the emitted stream actually
//! parses. This module provides one: [`parse_json`] lifts a line back
//! into a [`serde::Value`] tree, [`validate_jsonl`] walks a whole
//! stream checking every line is an object with a known `kind` tag and
//! that kind's required fields, and [`expect_kinds`] asserts coverage.

use std::collections::BTreeMap;

use serde::Value;

use crate::EVENT_KINDS;

/// Fields every event of a given kind must carry (a subset — the schema
/// is append-only, so validation pins only the load-bearing keys).
fn required_fields(kind: &str) -> &'static [&'static str] {
    match kind {
        "run_start" => &["seed", "cells", "nets", "pins", "replicas", "strategy"],
        "place_temp" => &[
            "phase",
            "replica",
            "step",
            "temperature",
            "s_t",
            "window_x",
            "window_y",
            "inner",
            "attempts",
            "accepts",
            "cost",
            "teil",
            "index_rebuilds",
            "classes",
        ],
        "stage_span" => &["stage", "iteration", "wall_us"],
        "route_iter" => &[
            "phase",
            "iteration",
            "nets",
            "unrouted",
            "overflow_start",
            "overflow",
            "total_length",
            "attempts",
            "reassignments",
            "usage_total",
            "util_hist",
        ],
        "replica_summary" => &["phase", "replica", "seed", "teil", "cost"],
        "swap" => &["round", "lower", "upper", "s_t", "accepted"],
        "replica_failed" => &["phase", "replica", "round", "error"],
        "run_interrupted" => &["reason", "stage", "teil", "cost", "wall_us"],
        "run_end" => &[
            "teil",
            "chip_width",
            "chip_height",
            "routed_length",
            "wall_us",
        ],
        _ => &[],
    }
}

/// Aggregate statistics of a validated stream.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StreamStats {
    /// Non-empty lines seen.
    pub lines: usize,
    /// Events per `kind` tag.
    pub kind_counts: BTreeMap<String, usize>,
}

/// Parses one JSON document (object, array, scalar).
pub fn parse_json(text: &str) -> Result<Value, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let v = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(v)
}

/// Looks up a field in a parsed object and coerces it to `f64`.
fn numeric_field(entries: &[(String, Value)], field: &str) -> Option<f64> {
    entries
        .iter()
        .find(|(k, _)| k == field)
        .and_then(|(_, v)| match *v {
            Value::Int(n) => Some(n as f64),
            Value::UInt(n) => Some(n as f64),
            Value::Float(f) => Some(f),
            _ => None,
        })
}

fn string_field(entries: &[(String, Value)], field: &str) -> Option<String> {
    entries.iter().find(|(k, _)| k == field).and_then(|(_, v)| {
        if let Value::Str(s) = v {
            Some(s.clone())
        } else {
            None
        }
    })
}

/// Validates a JSONL telemetry stream: every non-empty line must parse
/// as a JSON object carrying a known `kind` tag and that kind's
/// required fields; additionally the stream must contain exactly one
/// `run_start`/`run_end` pair when either appears (in that order), and
/// temperatures within one annealing stream (the `place_temp`s sharing
/// a phase/iteration/replica scope) must be non-increasing. A
/// `run_interrupted` event resets the temperature tracking (the
/// continuation of an interrupted stage re-runs its cooling), and a
/// stream whose last event is `run_interrupted` may legally omit
/// `run_end` — the continuation lives in a checkpoint.
/// Every error names the offending line. Returns per-kind counts.
pub fn validate_jsonl(text: &str) -> Result<StreamStats, String> {
    let mut stats = StreamStats::default();
    // Line numbers of the run envelope events (1-based, 0 = unseen).
    let mut run_start_line = 0usize;
    let mut run_end_line = 0usize;
    let mut last_kind = String::new();
    // Last temperature per annealing stream, keyed by the place_temp
    // scope (phase, iteration, replica).
    let mut last_temp: BTreeMap<(String, i64, i64), (f64, usize)> = BTreeMap::new();
    for (lineno, line) in text.lines().enumerate() {
        let lineno = lineno + 1;
        if line.trim().is_empty() {
            continue;
        }
        let v = parse_json(line).map_err(|e| format!("line {lineno}: {e}"))?;
        let Value::Object(entries) = v else {
            return Err(format!("line {lineno}: not a JSON object"));
        };
        let kind = string_field(&entries, "kind")
            .ok_or_else(|| format!("line {lineno}: missing string `kind`"))?;
        if !EVENT_KINDS.contains(&kind.as_str()) {
            return Err(format!("line {lineno}: unknown kind `{kind}`"));
        }
        for field in required_fields(&kind) {
            if !entries.iter().any(|(k, _)| k == field) {
                return Err(format!(
                    "line {lineno}: `{kind}` event missing field `{field}`"
                ));
            }
        }
        match kind.as_str() {
            "run_start" => {
                if run_start_line != 0 {
                    return Err(format!(
                        "line {lineno}: duplicate `run_start` (first at line {run_start_line})"
                    ));
                }
                run_start_line = lineno;
            }
            "run_end" => {
                if run_end_line != 0 {
                    return Err(format!(
                        "line {lineno}: duplicate `run_end` (first at line {run_end_line})"
                    ));
                }
                if run_start_line == 0 {
                    return Err(format!(
                        "line {lineno}: `run_end` without a preceding `run_start`"
                    ));
                }
                run_end_line = lineno;
            }
            "place_temp" => {
                let key = (
                    string_field(&entries, "phase").unwrap_or_default(),
                    numeric_field(&entries, "iteration").unwrap_or(0.0) as i64,
                    numeric_field(&entries, "replica").unwrap_or(-1.0) as i64,
                );
                let t = numeric_field(&entries, "temperature")
                    .ok_or_else(|| format!("line {lineno}: non-numeric `temperature`"))?;
                if let Some(&(prev, prev_line)) = last_temp.get(&key) {
                    if t > prev {
                        return Err(format!(
                            "line {lineno}: temperature {t} rose above {prev} (line \
                             {prev_line}) within the {}[{}/{}] anneal stream",
                            key.0, key.1, key.2
                        ));
                    }
                }
                last_temp.insert(key, (t, lineno));
            }
            "run_interrupted" => {
                if run_start_line == 0 {
                    return Err(format!(
                        "line {lineno}: `run_interrupted` without a preceding `run_start`"
                    ));
                }
                // A resumed stage-2 re-runs its cooling from the top, so
                // the per-scope monotonicity restarts here.
                last_temp.clear();
            }
            _ => {}
        }
        stats.lines += 1;
        *stats.kind_counts.entry(kind.clone()).or_insert(0) += 1;
        last_kind = kind;
    }
    if run_start_line != 0 && run_end_line == 0 && last_kind != "run_interrupted" {
        return Err(format!(
            "line {run_start_line}: `run_start` has no matching `run_end` (truncated stream?)"
        ));
    }
    Ok(stats)
}

/// Checks that every kind in `required` appears at least once.
pub fn expect_kinds(stats: &StreamStats, required: &[&str]) -> Result<(), String> {
    let missing: Vec<&str> = required
        .iter()
        .copied()
        .filter(|k| !stats.kind_counts.contains_key(*k))
        .collect();
    if missing.is_empty() {
        Ok(())
    } else {
        Err(format!("stream missing event kinds: {missing:?}"))
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Value, String> {
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
                let key = match parse_value(b, pos)? {
                    Value::Str(s) => s,
                    _ => return Err(format!("object key at byte {pos} is not a string")),
                };
                skip_ws(b, pos);
                if b.get(*pos) != Some(&b':') {
                    return Err(format!("expected `:` at byte {pos}"));
                }
                *pos += 1;
                let val = parse_value(b, pos)?;
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
                items.push(parse_value(b, pos)?);
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
        Some(b'"') => parse_string(b, pos).map(Value::Str),
        Some(b't') => parse_lit(b, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Value::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Value::Null),
        Some(_) => parse_number(b, pos),
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

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
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
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape".to_owned())?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|_| "bad \\u escape".to_owned())?,
                            16,
                        )
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
                // Consume one UTF-8 scalar (the input is a &str, so
                // boundaries are valid).
                let s = &text_from(b)[*pos..];
                let ch = s.chars().next().expect("non-empty");
                out.push(ch);
                *pos += ch.len_utf8();
            }
        }
    }
}

fn text_from(b: &[u8]) -> &str {
    std::str::from_utf8(b).expect("input was a &str")
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Value, String> {
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
    let text = &text_from(b)[start..*pos];
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

    const RUN_START: &str = "{\"kind\":\"run_start\",\"seed\":1,\"cells\":2,\"nets\":3,\
                             \"pins\":4,\"replicas\":1,\"strategy\":\"single\"}";
    const RUN_END: &str = "{\"kind\":\"run_end\",\"teil\":1.0,\"chip_width\":1,\
                           \"chip_height\":1,\"routed_length\":1,\"wall_us\":9}";

    fn place_temp(t: f64) -> String {
        format!(
            "{{\"kind\":\"place_temp\",\"phase\":\"stage1\",\"iteration\":0,\"replica\":-1,\
             \"step\":0,\"temperature\":{t},\"s_t\":1.0,\"window_x\":6.0,\"window_y\":6.0,\
             \"inner\":1,\"attempts\":1,\"accepts\":1,\"cost\":{{\"total\":1.0}},\"teil\":1.0,\
             \"index_rebuilds\":0,\"classes\":[]}}"
        )
    }

    #[test]
    fn validates_streams() {
        let good = concat!(
            "{\"kind\":\"stage_span\",\"stage\":\"stage1\",\"iteration\":0,\"wall_us\":5}\n",
            "\n",
        );
        let stats = validate_jsonl(good).unwrap();
        assert_eq!(stats.lines, 1);
        assert_eq!(stats.kind_counts["stage_span"], 1);
        expect_kinds(&stats, &["stage_span"]).unwrap();
        assert!(expect_kinds(&stats, &["swap"]).is_err());

        assert!(validate_jsonl("{\"kind\":\"bogus\"}").is_err());
        assert!(
            validate_jsonl("{\"kind\":\"stage_span\"}").is_err(),
            "missing fields"
        );
        assert!(validate_jsonl("[1]").is_err(), "not an object");
        assert!(validate_jsonl("{oops").is_err());
    }

    #[test]
    fn enforces_run_envelope_pairing() {
        // A complete pair validates.
        let good = format!("{RUN_START}\n{RUN_END}\n");
        assert_eq!(validate_jsonl(&good).unwrap().lines, 2);

        // run_end without run_start, duplicate starts/ends, and a
        // truncated stream all fail with the offending line number.
        let orphan_end = format!("{RUN_END}\n");
        let err = validate_jsonl(&orphan_end).unwrap_err();
        assert!(err.contains("line 1") && err.contains("run_end"), "{err}");

        let dup_start = format!("{RUN_START}\n{RUN_START}\n{RUN_END}\n");
        let err = validate_jsonl(&dup_start).unwrap_err();
        assert!(err.contains("line 2") && err.contains("duplicate"), "{err}");

        let dup_end = format!("{RUN_START}\n{RUN_END}\n{RUN_END}\n");
        let err = validate_jsonl(&dup_end).unwrap_err();
        assert!(err.contains("line 3") && err.contains("duplicate"), "{err}");

        let truncated = format!("{RUN_START}\n");
        let err = validate_jsonl(&truncated).unwrap_err();
        assert!(err.contains("no matching `run_end`"), "{err}");
    }

    const INTERRUPTED: &str = "{\"kind\":\"run_interrupted\",\"reason\":\"signal\",\
                               \"stage\":\"stage1\",\"teil\":1.0,\"cost\":2.0,\"wall_us\":7}";

    #[test]
    fn interrupted_streams_may_end_without_run_end() {
        // run_start … run_interrupted as the final event validates.
        let cut = format!("{RUN_START}\n{}\n{INTERRUPTED}\n", place_temp(10.0));
        assert_eq!(validate_jsonl(&cut).unwrap().lines, 3);

        // A resumed stream may carry several interrupts and close with
        // run_end; the temperature tracking restarts at each interrupt,
        // so a stage that re-runs its cooling does not trip monotonicity.
        let resumed = format!(
            "{RUN_START}\n{}\n{INTERRUPTED}\n{}\n{INTERRUPTED}\n{}\n{RUN_END}\n",
            place_temp(8.0),
            place_temp(10.0),
            place_temp(9.0),
        );
        assert_eq!(validate_jsonl(&resumed).unwrap().lines, 7);

        // An interrupt before any run_start is malformed.
        let orphan = format!("{INTERRUPTED}\n");
        let err = validate_jsonl(&orphan).unwrap_err();
        assert!(err.contains("run_interrupted"), "{err}");

        // Events after the interrupt re-arm the truncation check.
        let trailing = format!("{RUN_START}\n{INTERRUPTED}\n{}\n", place_temp(5.0));
        let err = validate_jsonl(&trailing).unwrap_err();
        assert!(err.contains("no matching `run_end`"), "{err}");
    }

    #[test]
    fn enforces_monotone_temperatures_per_stream() {
        // Cooling (and plateaus) validate; reheating fails with the line.
        let cooling = format!(
            "{}\n{}\n{}\n",
            place_temp(10.0),
            place_temp(8.0),
            place_temp(8.0)
        );
        assert_eq!(validate_jsonl(&cooling).unwrap().lines, 3);

        let reheat = format!("{}\n{}\n", place_temp(8.0), place_temp(10.0));
        let err = validate_jsonl(&reheat).unwrap_err();
        assert!(
            err.contains("line 2") && err.contains("rose above"),
            "{err}"
        );

        // Different scopes are independent streams.
        let other_scope = place_temp(10.0).replace("\"replica\":-1", "\"replica\":1");
        let two_streams = format!("{}\n{}\n", place_temp(8.0), other_scope);
        assert_eq!(validate_jsonl(&two_streams).unwrap().lines, 2);
    }
}
