//! Small [`Value`]-tree helpers for the daemon's wire format.
//!
//! The vendored `serde_json` only serializes and the obs crate's
//! parser produces [`serde::Value`] trees, so the API builds and picks
//! apart values by hand; these helpers keep that code short. The field
//! accessors are the obs reader's own, re-exported. Unlike the
//! checkpoint codec (which needs bit-exact floats), the wire format
//! uses plain JSON numbers — responses are for humans and HTTP clients,
//! not for resuming RNG streams.

use serde::Value;

pub use twmc_obs::validate::{get, get_bool, get_f64, get_i64, get_str, get_u64};

/// Builds an object value from `(key, value)` pairs.
pub fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

/// Serializes a value tree to compact JSON text.
pub fn to_text(v: &Value) -> String {
    serde_json::to_string(v).expect("value trees always serialize")
}

#[cfg(test)]
mod tests {
    use super::*;
    use twmc_obs::validate::parse_json;

    #[test]
    fn roundtrip_and_accessors() {
        let v = obj(vec![
            ("name", Value::Str("j1".into())),
            ("seed", Value::UInt(7)),
            ("priority", Value::Int(-2)),
            ("yal", Value::Bool(true)),
            ("teil", Value::Float(12.5)),
        ]);
        let text = to_text(&v);
        let back = parse_json(&text).unwrap();
        assert_eq!(get_str(&back, "name"), Some("j1"));
        assert_eq!(get_u64(&back, "seed"), Some(7));
        assert_eq!(get_i64(&back, "priority"), Some(-2));
        assert_eq!(get_bool(&back, "yal"), Some(true));
        assert_eq!(get_f64(&back, "teil"), Some(12.5));
        assert_eq!(get_str(&back, "missing"), None);
        assert_eq!(get_u64(&back, "priority"), None);
    }
}
