//! The checkpoint payload codec.
//!
//! Every checkpointed type implements [`Codec`]: it encodes itself to a
//! [`Value`] tree and decodes back with a typed
//! [`CheckpointError::Corrupt`] (the vendored serde stand-in only
//! serializes, so decoding cannot be derived). A struct declares its
//! payload layout once, as one list of `field: "key"` pairs given to
//! [`codec_struct!`](crate::codec_struct), which writes both
//! directions; [`field`] reads one key of an object and names the key
//! when its value does not decode.
//!
//! Floats never appear as JSON floats in a payload: an `f64` is stored
//! as its IEEE-754 bit pattern in a `UInt`, so values survive the text
//! roundtrip bit-exactly (including negative zero, NaN payloads and
//! values whose shortest decimal form would round). Integers decode
//! from `Int` or `UInt` alike, since the parser emits `Int` for small
//! numbers.

pub use serde::Value;
use twmc_geom::{Orientation, Point, Rect, Side};

use crate::CheckpointError;

/// A value with a checkpoint payload layout.
pub trait Codec: Sized {
    /// The payload tree of `self`.
    fn encode(&self) -> Value;
    /// Reads a value back from its [`Codec::encode`] tree.
    fn decode(v: &Value) -> Result<Self, CheckpointError>;
}

/// A [`CheckpointError::Corrupt`] with `msg`.
pub fn corrupt(msg: impl Into<String>) -> CheckpointError {
    CheckpointError::Corrupt(msg.into())
}

/// Looks `key` up in an object `Value`.
pub fn get<'a>(v: &'a Value, key: &str) -> Result<&'a Value, CheckpointError> {
    let Value::Object(entries) = v else {
        return Err(corrupt(format!("field `{key}` is read from a non-object")));
    };
    entries
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, val)| val)
        .ok_or_else(|| corrupt(format!("missing field `{key}`")))
}

/// Decodes field `key` of an object `Value`; the error names the key.
pub fn field<T: Codec>(v: &Value, key: &str) -> Result<T, CheckpointError> {
    T::decode(get(v, key)?).map_err(|e| match e {
        CheckpointError::Corrupt(msg) => corrupt(format!("field `{key}`: {msg}")),
        other => other,
    })
}

/// Builds an object `Value` from `(key, value)` pairs, in order.
pub fn object(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

/// Implements [`Codec`] for a struct with named fields as an object
/// whose keys, in the order given, hold the fields' encodings:
///
/// ```
/// # use twmc_resume::codec::Codec;
/// struct Span {
///     lo: i64,
///     len: u64,
/// }
/// twmc_resume::codec_struct!(Span { lo: "lo", len: "n" });
///
/// let v = Span { lo: -3, len: 7 }.encode();
/// assert_eq!(serde_json::to_string(&v).unwrap(), r#"{"lo":-3,"n":7}"#);
/// assert_eq!(Span::decode(&v).unwrap().len, 7);
/// ```
///
/// The decoder builds the struct from a literal, so a field missing
/// from the list is a compile error.
#[macro_export]
macro_rules! codec_struct {
    ($ty:ty { $($field:ident: $key:literal),+ $(,)? }) => {
        impl $crate::codec::Codec for $ty {
            fn encode(&self) -> $crate::codec::Value {
                $crate::codec::object(vec![
                    $(($key, $crate::codec::Codec::encode(&self.$field)),)+
                ])
            }

            fn decode(v: &$crate::codec::Value) -> Result<Self, $crate::CheckpointError> {
                Ok(Self {
                    $($field: $crate::codec::field(v, $key)?,)+
                })
            }
        }
    };
}

/// The integer a `Value` holds, from either integer variant.
fn integer(v: &Value) -> Option<i128> {
    match *v {
        Value::Int(n) => Some(n.into()),
        Value::UInt(n) => Some(n.into()),
        _ => None,
    }
}

macro_rules! codec_int {
    ($($t:ty: |$n:ident| $encode:expr),* $(,)?) => {$(
        impl Codec for $t {
            fn encode(&self) -> Value {
                let $n = *self;
                $encode
            }

            fn decode(v: &Value) -> Result<Self, CheckpointError> {
                integer(v)
                    .and_then(|n| <$t>::try_from(n).ok())
                    .ok_or_else(|| corrupt(concat!("not a ", stringify!($t))))
            }
        }
    )*};
}
codec_int! {
    u64: |n| Value::UInt(n),
    usize: |n| Value::UInt(n as u64),
    u32: |n| Value::UInt(n.into()),
    i64: |n| Value::Int(n),
}

impl Codec for f64 {
    fn encode(&self) -> Value {
        self.to_bits().encode()
    }

    fn decode(v: &Value) -> Result<Self, CheckpointError> {
        u64::decode(v)
            .map(f64::from_bits)
            .map_err(|_| corrupt("not a bit-encoded f64"))
    }
}

impl Codec for bool {
    fn encode(&self) -> Value {
        Value::Bool(*self)
    }

    fn decode(v: &Value) -> Result<Self, CheckpointError> {
        match v {
            Value::Bool(b) => Ok(*b),
            _ => Err(corrupt("not a bool")),
        }
    }
}

impl Codec for String {
    fn encode(&self) -> Value {
        Value::Str(self.clone())
    }

    fn decode(v: &Value) -> Result<Self, CheckpointError> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            _ => Err(corrupt("not a string")),
        }
    }
}

/// `None` travels as `Null`.
impl<T: Codec> Codec for Option<T> {
    fn encode(&self) -> Value {
        self.as_ref().map_or(Value::Null, T::encode)
    }

    fn decode(v: &Value) -> Result<Self, CheckpointError> {
        match v {
            Value::Null => Ok(None),
            other => T::decode(other).map(Some),
        }
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn encode(&self) -> Value {
        Value::Array(self.iter().map(T::encode).collect())
    }

    fn decode(v: &Value) -> Result<Self, CheckpointError> {
        match v {
            Value::Array(items) => items.iter().map(T::decode).collect(),
            _ => Err(corrupt("not an array")),
        }
    }
}

impl<T: Codec, const N: usize> Codec for [T; N] {
    fn encode(&self) -> Value {
        Value::Array(self.iter().map(T::encode).collect())
    }

    fn decode(v: &Value) -> Result<Self, CheckpointError> {
        Vec::<T>::decode(v)?
            .try_into()
            .map_err(|_| corrupt(format!("not a {N}-element array")))
    }
}

/// `[a, b]`.
impl<A: Codec, B: Codec> Codec for (A, B) {
    fn encode(&self) -> Value {
        Value::Array(vec![self.0.encode(), self.1.encode()])
    }

    fn decode(v: &Value) -> Result<Self, CheckpointError> {
        match v {
            Value::Array(items) if items.len() == 2 => {
                Ok((A::decode(&items[0])?, B::decode(&items[1])?))
            }
            _ => Err(corrupt("not a 2-element array")),
        }
    }
}

/// A cell's static expansions (left, right, bottom, top).
impl Codec for (i64, i64, i64, i64) {
    fn encode(&self) -> Value {
        [self.0, self.1, self.2, self.3].encode()
    }

    fn decode(v: &Value) -> Result<Self, CheckpointError> {
        let [l, r, b, t] = <[i64; 4]>::decode(v)?;
        Ok((l, r, b, t))
    }
}

/// `[x, y]`.
impl Codec for Point {
    fn encode(&self) -> Value {
        [self.x, self.y].encode()
    }

    fn decode(v: &Value) -> Result<Self, CheckpointError> {
        let [x, y] = <[i64; 2]>::decode(v)?;
        Ok(Point::new(x, y))
    }
}

/// `[lo.x, lo.y, hi.x, hi.y]`.
impl Codec for Rect {
    fn encode(&self) -> Value {
        let (lo, hi) = (self.lo(), self.hi());
        [lo.x, lo.y, hi.x, hi.y].encode()
    }

    fn decode(v: &Value) -> Result<Self, CheckpointError> {
        let [x0, y0, x1, y1] = <[i64; 4]>::decode(v)?;
        Ok(Rect::new(Point::new(x0, y0), Point::new(x1, y1)))
    }
}

/// Enums that travel as their index in `ALL`.
macro_rules! codec_index {
    ($($t:ident),*) => {$(
        impl Codec for $t {
            fn encode(&self) -> Value {
                $t::ALL
                    .iter()
                    .position(|x| x == self)
                    .expect("ALL lists every value")
                    .encode()
            }

            fn decode(v: &Value) -> Result<Self, CheckpointError> {
                $t::ALL
                    .get(usize::decode(v)?)
                    .copied()
                    .ok_or_else(|| corrupt(concat!(stringify!($t), " index out of range")))
            }
        }
    )*};
}
codec_index!(Orientation, Side);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn float_bits_roundtrip_exactly() {
        for x in [0.0, -0.0, 1.5, f64::MAX, f64::MIN_POSITIVE, -123.456e-78] {
            assert_eq!(x.encode(), Value::UInt(x.to_bits()));
            assert_eq!(f64::decode(&x.encode()).unwrap().to_bits(), x.to_bits());
        }
        // NaN payload bits survive too.
        let nan = f64::from_bits(0x7ff8_dead_beef_0001);
        assert_eq!(f64::decode(&nan.encode()).unwrap().to_bits(), nan.to_bits());
    }

    #[test]
    fn field_accessors_name_their_failures() {
        let v = object(vec![
            ("a", Value::UInt(3)),
            ("b", Value::Str("x".to_owned())),
            ("c", [1u64, 2, 3, 4].encode()),
        ]);
        assert_eq!(field::<u64>(&v, "a").unwrap(), 3);
        assert_eq!(field::<String>(&v, "b").unwrap(), "x");
        assert_eq!(field::<[u64; 4]>(&v, "c").unwrap(), [1, 2, 3, 4]);
        let err = field::<u64>(&v, "missing").unwrap_err().to_string();
        assert!(err.contains("missing field `missing`"), "{err}");
        let err = field::<u64>(&v, "b").unwrap_err().to_string();
        assert!(err.contains("`b`"), "{err}");
        let err = field::<[u64; 3]>(&v, "c").unwrap_err().to_string();
        assert!(err.contains("`c`") && err.contains("3-element"), "{err}");
        assert!(field::<u64>(&Value::Null, "a").is_err());
    }

    #[test]
    fn int_uint_coercion_is_symmetric() {
        assert_eq!(u64::decode(&Value::Int(5)).unwrap(), 5);
        assert!(u64::decode(&Value::Int(-1)).is_err());
        assert!(i64::decode(&Value::UInt(u64::MAX)).is_err());
        assert_eq!(i64::decode(&Value::UInt(7)).unwrap(), 7);
        assert!(u32::decode(&Value::UInt(1 << 32)).is_err());
        assert_eq!(7i64.encode(), Value::Int(7));
        assert_eq!(7usize.encode(), Value::UInt(7));
    }

    #[test]
    fn geometry_keeps_its_layout() {
        let r = Rect::new(Point::new(-1, 2), Point::new(3, 4));
        let text = |v: &Value| serde_json::to_string(v).unwrap();
        assert_eq!(text(&r.encode()), "[-1,2,3,4]");
        assert_eq!(Rect::decode(&r.encode()).unwrap(), r);
        assert_eq!(text(&Point::new(5, -6).encode()), "[5,-6]");
        for (i, o) in Orientation::ALL.into_iter().enumerate() {
            assert_eq!(o.encode(), Value::UInt(i as u64));
            assert_eq!(Orientation::decode(&o.encode()).unwrap(), o);
        }
        assert_eq!(Side::ALL[3].encode(), Value::UInt(3));
        assert!(Orientation::decode(&Value::UInt(8)).is_err());
        assert_eq!(text(&Some((1, -2, 3, 4)).encode()), "[1,-2,3,4]");
        assert_eq!(None::<f64>.encode(), Value::Null);
    }
}
