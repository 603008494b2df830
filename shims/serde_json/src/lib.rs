//! Offline shim for `serde_json`: the entry points over the `serde`
//! shim's streaming JSON [`serde::json::Writer`] and
//! [`serde::json::Reader`]. A value is written as it is visited and read
//! straight into its type; no intermediate tree is built.

use serde::json::{Reader, Writer};
use serde::{DeError, Deserialize, Serialize};
use std::fmt;

/// Error type for both serialization and parsing.
#[derive(Debug, Clone)]
pub struct Error {
    msg: String,
}

impl From<DeError> for Error {
    fn from(e: DeError) -> Self {
        Error { msg: e.0 }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.msg)
    }
}

impl std::error::Error for Error {}

/// Serializes a value to compact JSON.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut w = Writer::new(false);
    value.serialize(&mut w);
    Ok(w.into_string())
}

/// Serializes a value to human-readable, indented JSON.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut w = Writer::new(true);
    value.serialize(&mut w);
    Ok(w.into_string())
}

/// Parses JSON text into any `Deserialize` type; trailing characters
/// other than whitespace are refused.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let mut r = Reader::new(s);
    let value = T::deserialize(&mut r)?;
    r.finish()?;
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    #[test]
    fn round_trip_nested_value() {
        let v = Value::Map(vec![
            ("name".into(), Value::Str("kernel \"a\"\n".into())),
            (
                "xs".into(),
                Value::Seq(vec![Value::F64(1.5), Value::F64(0.1 + 0.2), Value::Null]),
            ),
            ("n".into(), Value::U64(u64::MAX)),
            ("neg".into(), Value::I64(-42)),
            ("ok".into(), Value::Bool(true)),
        ]);
        let s = to_string(&v).unwrap();
        let back: Value = from_str(&s).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn floats_round_trip_bit_exactly() {
        for &x in &[1.0 / 3.0, 6.02214076e23, 1e-300, -0.0, 123456789.25f64] {
            let s = to_string(&x).unwrap();
            let back: f64 = from_str(&s).unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{s}");
        }
    }

    #[test]
    fn malformed_inputs_error() {
        assert!(from_str::<Value>("{not json").is_err());
        assert!(from_str::<Value>("[1, 2").is_err());
        assert!(from_str::<Value>("\"open").is_err());
        assert!(from_str::<Value>("12 34").is_err());
        assert!(from_str::<Value>("").is_err());
    }

    #[test]
    fn nesting_is_bounded() {
        let deep = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(from_str::<Value>(&deep(serde::json::MAX_DEPTH)).is_ok());
        for n in [serde::json::MAX_DEPTH + 1, 100_000] {
            let err = from_str::<Value>(&deep(n)).unwrap_err().to_string();
            assert!(err.contains("nesting deeper than 128"), "{err}");
            assert!(from_str::<Vec<Value>>(&deep(n)).is_err());
        }
        // Unclosed, as a truncated file would be.
        assert!(from_str::<Value>(&"[".repeat(100_000)).is_err());
    }

    #[test]
    fn pretty_output_parses_back() {
        let v = Value::Map(vec![
            ("a".into(), Value::Seq(vec![Value::U64(1), Value::U64(2)])),
            (
                "b".into(),
                Value::Map(vec![("c".into(), Value::Bool(false))]),
            ),
        ]);
        let s = to_string_pretty(&v).unwrap();
        assert!(s.contains('\n'));
        assert_eq!(from_str::<Value>(&s).unwrap(), v);
    }
}
