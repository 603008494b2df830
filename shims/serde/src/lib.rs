//! Offline shim for `serde`: `Serialize`/`Deserialize` stream a type
//! straight to and from JSON text through the [`json`] module's
//! [`json::Writer`] and [`json::Reader`], instead of serde's
//! visitor machinery. No intermediate tree is built: a type reads and
//! writes its own fields. [`Value`] is the type for dynamic JSON
//! documents and implements both traits like any other type.
//! `serde_json` (the shim) wraps the two entry points; the
//! `serde_derive` shim generates these impls for plain structs and
//! simple enums.

use std::collections::{BTreeMap, HashMap};
use std::fmt;

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};

pub mod json;

use json::{Reader, Writer};

/// A dynamic JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    /// Non-negative integers (exact).
    U64(u64),
    /// Negative integers (exact).
    I64(i64),
    F64(f64),
    Str(String),
    Seq(Vec<Value>),
    /// Insertion-ordered map (JSON object).
    Map(Vec<(String, Value)>),
}

impl Value {
    pub fn as_map(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Map(m) => Some(m),
            _ => None,
        }
    }

    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_map()
            .and_then(|m| m.iter().find(|(k, _)| k == key).map(|(_, v)| v))
    }
}

/// Deserialization error: a human-readable path + expectation.
#[derive(Debug, Clone)]
pub struct DeError(pub String);

impl DeError {
    pub fn custom(msg: impl fmt::Display) -> Self {
        DeError(msg.to_string())
    }
}

impl fmt::Display for DeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for DeError {}

/// A type that writes itself as JSON.
pub trait Serialize {
    fn serialize(&self, w: &mut Writer);
}

/// A type that reads itself from JSON.
pub trait Deserialize: Sized {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, DeError>;
}

fn expected(what: &str, got: &Value) -> DeError {
    DeError(format!("expected {what}, got {got:?}"))
}

// ---- primitives ----
//
// A scalar is read as a `Value` (no allocation but a string's own) and
// converted, so every scalar type accepts and refuses exactly the tokens
// its conversion below names.

impl Serialize for bool {
    fn serialize(&self, w: &mut Writer) {
        w.bool(*self)
    }
}

impl Deserialize for bool {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, DeError> {
        match r.value()? {
            Value::Bool(b) => Ok(b),
            other => Err(expected("bool", &other)),
        }
    }
}

macro_rules! impl_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self, w: &mut Writer) {
                w.u64(*self as u64)
            }
        }
        impl Deserialize for $t {
            #[inline]
            fn deserialize(r: &mut Reader<'_>) -> Result<Self, DeError> {
                match r.number("unsigned integer")? {
                    Value::U64(n) => <$t>::try_from(n).map_err(DeError::custom),
                    Value::I64(n) => <$t>::try_from(n).map_err(DeError::custom),
                    other => Err(expected("unsigned integer", &other)),
                }
            }
        }
    )*};
}

impl_unsigned!(u8, u16, u32, u64, usize);

macro_rules! impl_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self, w: &mut Writer) {
                w.i64(*self as i64)
            }
        }
        impl Deserialize for $t {
            #[inline]
            fn deserialize(r: &mut Reader<'_>) -> Result<Self, DeError> {
                match r.number("integer")? {
                    Value::U64(n) => <$t>::try_from(n).map_err(DeError::custom),
                    Value::I64(n) => <$t>::try_from(n).map_err(DeError::custom),
                    other => Err(expected("integer", &other)),
                }
            }
        }
    )*};
}

impl_signed!(i8, i16, i32, i64, isize);

macro_rules! impl_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self, w: &mut Writer) {
                w.f64(*self as f64)
            }
        }
        impl Deserialize for $t {
            #[inline]
            fn deserialize(r: &mut Reader<'_>) -> Result<Self, DeError> {
                match r.number("number")? {
                    Value::F64(x) => Ok(x as $t),
                    Value::U64(n) => Ok(n as $t),
                    Value::I64(n) => Ok(n as $t),
                    other => Err(expected("number", &other)),
                }
            }
        }
    )*};
}

impl_float!(f32, f64);

impl Serialize for String {
    fn serialize(&self, w: &mut Writer) {
        w.str(self)
    }
}

impl Deserialize for String {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, DeError> {
        r.str().map(std::borrow::Cow::into_owned)
    }
}

impl Serialize for str {
    fn serialize(&self, w: &mut Writer) {
        w.str(self)
    }
}

impl Serialize for char {
    fn serialize(&self, w: &mut Writer) {
        w.str(self.encode_utf8(&mut [0; 4]))
    }
}

impl Deserialize for char {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, DeError> {
        match r.value()? {
            Value::Str(s) if s.chars().count() == 1 => Ok(s.chars().next().unwrap()),
            other => Err(expected("single-char string", &other)),
        }
    }
}

// ---- forwarding / containers ----

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize(&self, w: &mut Writer) {
        (**self).serialize(w)
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn serialize(&self, w: &mut Writer) {
        (**self).serialize(w)
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, DeError> {
        T::deserialize(r).map(Box::new)
    }
}

impl<T: Serialize + ?Sized> Serialize for std::sync::Arc<T> {
    fn serialize(&self, w: &mut Writer) {
        (**self).serialize(w)
    }
}

impl<T: Deserialize> Deserialize for std::sync::Arc<T> {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, DeError> {
        T::deserialize(r).map(std::sync::Arc::new)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize(&self, w: &mut Writer) {
        match self {
            None => w.null(),
            Some(t) => t.serialize(w),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, DeError> {
        if r.null()? {
            Ok(None)
        } else {
            T::deserialize(r).map(Some)
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize(&self, w: &mut Writer) {
        w.begin_seq();
        for item in self {
            w.elem(item);
        }
        w.end_seq();
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize(&self, w: &mut Writer) {
        self.as_slice().serialize(w)
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, DeError> {
        let mut items = Vec::new();
        r.seq("sequence", |r| {
            items.push(T::deserialize(r)?);
            Ok(())
        })?;
        Ok(items)
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn serialize(&self, w: &mut Writer) {
        self.as_slice().serialize(w)
    }
}

impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, DeError> {
        let items: Vec<T> = Vec::deserialize(r)?;
        let len = items.len();
        <[T; N]>::try_from(items)
            .map_err(|_| DeError(format!("expected array of length {N}, got {len}")))
    }
}

/// A tuple reads its leading elements in order; elements past its arity
/// are parsed and ignored.
macro_rules! impl_tuple {
    ($(($($name:ident $var:ident $idx:tt),+))*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn serialize(&self, w: &mut Writer) {
                w.begin_seq();
                $(w.elem(&self.$idx);)+
                w.end_seq();
            }
        }
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn deserialize(r: &mut Reader<'_>) -> Result<Self, DeError> {
                $(let mut $var: Option<$name> = None;)+
                let mut i = 0usize;
                r.seq("tuple sequence", |r| {
                    match i {
                        $($idx => $var = Some($name::deserialize(r)?),)+
                        _ => r.skip()?,
                    }
                    i += 1;
                    Ok(())
                })?;
                Ok(($($var.ok_or_else(|| DeError::custom("tuple too short"))?,)+))
            }
        }
    )*};
}

impl_tuple! {
    (A a 0)
    (A a 0, B b 1)
    (A a 0, B b 1, C c 2)
    (A a 0, B b 1, C c 2, D d 3)
}

impl<V: Serialize> Serialize for BTreeMap<String, V> {
    fn serialize(&self, w: &mut Writer) {
        w.begin_map();
        for (k, v) in self {
            w.entry(k, v);
        }
        w.end_map();
    }
}

impl<V: Deserialize> Deserialize for BTreeMap<String, V> {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, DeError> {
        let mut map = BTreeMap::new();
        r.map("map", |r, k| {
            map.insert(k.to_string(), V::deserialize(r)?);
            Ok(())
        })?;
        Ok(map)
    }
}

impl<V: Serialize> Serialize for HashMap<String, V> {
    fn serialize(&self, w: &mut Writer) {
        // Sort for stable output.
        let mut entries: Vec<_> = self.iter().collect();
        entries.sort_by(|a, b| a.0.cmp(b.0));
        w.begin_map();
        for (k, v) in entries {
            w.entry(k, v);
        }
        w.end_map();
    }
}

impl<V: Deserialize> Deserialize for HashMap<String, V> {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, DeError> {
        let mut map = HashMap::new();
        r.map("map", |r, k| {
            map.insert(k.to_string(), V::deserialize(r)?);
            Ok(())
        })?;
        Ok(map)
    }
}

impl Serialize for Value {
    fn serialize(&self, w: &mut Writer) {
        match self {
            Value::Null => w.null(),
            Value::Bool(b) => w.bool(*b),
            Value::U64(n) => w.u64(*n),
            Value::I64(n) => w.i64(*n),
            Value::F64(x) => w.f64(*x),
            Value::Str(s) => w.str(s),
            Value::Seq(items) => items.serialize(w),
            Value::Map(entries) => {
                w.begin_map();
                for (k, v) in entries {
                    w.entry(k, v);
                }
                w.end_map();
            }
        }
    }
}

impl Deserialize for Value {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, DeError> {
        r.value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Serialize + Deserialize>(v: &T) -> T {
        let mut w = Writer::new(false);
        v.serialize(&mut w);
        let text = w.into_string();
        let mut r = Reader::new(&text);
        let back = T::deserialize(&mut r).unwrap();
        r.finish().unwrap();
        back
    }

    #[test]
    fn round_trip_primitives() {
        assert_eq!(round_trip(&42u64), 42);
        assert_eq!(round_trip(&-7i32), -7);
        assert_eq!(round_trip(&1.5f64), 1.5);
        assert_eq!(round_trip(&"hi".to_string()), "hi");
        assert_eq!(round_trip(&None::<f64>), None);
    }

    #[test]
    fn round_trip_containers() {
        let v = vec![1.0f64, 2.0, 3.0];
        assert_eq!(round_trip(&v), v);
        let a = [1u32, 2, 3];
        assert_eq!(round_trip(&a), a);
        let t = (1u64, 2.5f64);
        assert_eq!(round_trip(&t), t);
    }

    #[test]
    fn a_string_without_escapes_is_borrowed_from_the_input() {
        use std::borrow::Cow;
        assert!(matches!(
            Reader::new(" \"abc\"").str(),
            Ok(Cow::Borrowed("abc"))
        ));
        match Reader::new("\"a\\nb\"").str() {
            Ok(Cow::Owned(s)) => assert_eq!(s, "a\nb"),
            other => panic!("expected an owned string, got {other:?}"),
        }
        let err = Reader::new("12").str().unwrap_err();
        assert_eq!(err.0, "expected string, got U64(12)");
    }

    #[test]
    fn a_string_ends_at_its_first_quote_or_escape_at_any_offset() {
        // Runs of every length up to three words, ASCII and multi-byte, so
        // the quote or escape falls in every lane of a word and in the
        // byte-wise tail.
        for filler in ["a", "\u{e9}", "\u{7f}"] {
            for n in 0..24 {
                let run = filler.repeat(n);
                let text = format!("\"{run}\"");
                assert_eq!(Reader::new(&text).str().unwrap(), run);
                let text = format!("\"{run}\\n{run}\"");
                assert_eq!(Reader::new(&text).str().unwrap(), format!("{run}\n{run}"));
            }
        }
    }

    #[test]
    fn every_escape_is_written_in_every_lane_of_a_word() {
        // Each byte the writer escapes, twice, after runs of every length
        // up to three words of ASCII and multi-byte text, so it falls in
        // every lane of a word and in the byte-wise tail.
        let escaped = |c: char| match c {
            '"' => "\\\"".to_string(),
            '\\' => "\\\\".to_string(),
            '\n' => "\\n".to_string(),
            '\r' => "\\r".to_string(),
            '\t' => "\\t".to_string(),
            _ => format!("\\u{:04x}", u32::from(c)),
        };
        let written = |s: &str| {
            let mut w = Writer::new(false);
            w.str(s);
            w.into_string()
        };
        for filler in ["a", " ", "\u{7f}", "\u{e9}", "\u{20ac}", "\u{1f600}"] {
            for n in 0..24 {
                let run = filler.repeat(n);
                assert_eq!(written(&run), format!("\"{run}\""));
                for c in ['"', '\\'].into_iter().chain((0u8..0x20).map(char::from)) {
                    let e = escaped(c);
                    assert_eq!(
                        written(&format!("{run}{c}{run}{c}")),
                        format!("\"{run}{e}{run}{e}\"")
                    );
                }
            }
        }
    }

    #[test]
    fn type_mismatch_is_error() {
        assert!(bool::deserialize(&mut Reader::new("1.0")).is_err());
        assert!(u32::deserialize(&mut Reader::new("-1")).is_err());
    }
}
