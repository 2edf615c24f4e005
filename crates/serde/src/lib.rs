//! Offline, vendored stand-in for [`serde`](https://serde.rs).
//!
//! The real serde could not be fetched (no registry access), so this
//! crate provides the same *spelling* — `serde::Serialize`,
//! `serde::Deserialize`, `#[derive(Serialize, Deserialize)]`,
//! `#[serde(skip)]`, `#[serde(default)]` — over a much smaller core:
//! every serializable type converts to and from a JSON-shaped [`Value`]
//! tree. `serde_json` in this workspace renders that tree to text and
//! parses it back.
//!
//! Representation choices mirror serde's JSON conventions so existing
//! expectations (externally-tagged enums, newtype transparency, maps as
//! objects, skipped fields defaulting on read) keep holding.

#![forbid(unsafe_code)]

use std::collections::{BTreeMap, HashMap};
use std::fmt;

pub use serde_derive::{Deserialize, Serialize};

/// A JSON-shaped value tree: the interchange format between
/// [`Serialize`]/[`Deserialize`] impls and `serde_json`.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Signed integer.
    I64(i64),
    /// Unsigned integer too large for `i64`.
    U64(u64),
    /// Floating point.
    F64(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Value>),
    /// Object with preserved insertion order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The object fields, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// A short name of the variant, for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::I64(_) | Value::U64(_) | Value::F64(_) => "number",
            Value::Str(_) => "string",
            Value::Arr(_) => "array",
            Value::Obj(_) => "object",
        }
    }
}

/// Deserialization error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeError(pub String);

impl DeError {
    /// "expected X, found Y while reading T"
    pub fn expected(what: &str, got: &Value, ctx: &str) -> DeError {
        DeError(format!("expected {what}, found {} in {ctx}", got.kind()))
    }

    /// Missing object field.
    pub fn missing(field: &str, ctx: &str) -> DeError {
        DeError(format!("missing field `{field}` in {ctx}"))
    }
}

impl fmt::Display for DeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "deserialization error: {}", self.0)
    }
}

impl std::error::Error for DeError {}

/// Types that can render themselves into a [`Value`].
pub trait Serialize {
    /// Converts to the value tree.
    fn to_value(&self) -> Value;
}

/// Types that can rebuild themselves from a [`Value`].
pub trait Deserialize: Sized {
    /// Converts from the value tree.
    fn from_value(v: &Value) -> Result<Self, DeError>;
}

// ---------------------------------------------------------------- numbers

macro_rules! int_impl {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                if (*self as i128) >= 0 && (*self as i128) > i64::MAX as i128 {
                    Value::U64(*self as u64)
                } else {
                    Value::I64(*self as i64)
                }
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                let out = match *v {
                    Value::I64(x) => <$t>::try_from(x).ok(),
                    Value::U64(x) => <$t>::try_from(x).ok(),
                    Value::F64(x) if x.fract() == 0.0 && x.is_finite() => {
                        Some(x as $t)
                    }
                    _ => None,
                };
                out.ok_or_else(|| DeError::expected(stringify!($t), v, "integer"))
            }
        }
    )*};
}

int_impl!(i8, i16, i32, i64, isize, u8, u16, u32, u64, usize);

macro_rules! float_impl {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                if self.is_finite() {
                    Value::F64(*self as f64)
                } else {
                    // serde_json serializes non-finite floats as null
                    Value::Null
                }
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                match *v {
                    Value::F64(x) => Ok(x as $t),
                    Value::I64(x) => Ok(x as $t),
                    Value::U64(x) => Ok(x as $t),
                    Value::Null => Ok(<$t>::NAN),
                    _ => Err(DeError::expected("number", v, stringify!($t))),
                }
            }
        }
    )*};
}

float_impl!(f32, f64);

// ------------------------------------------------------------- primitives

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}
impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Bool(b) => Ok(*b),
            _ => Err(DeError::expected("bool", v, "bool")),
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}
impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            _ => Err(DeError::expected("string", v, "String")),
        }
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Serialize for char {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}
impl Deserialize for char {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Str(s) if s.chars().count() == 1 => Ok(s.chars().next().expect("one char")),
            _ => Err(DeError::expected("single-char string", v, "char")),
        }
    }
}

impl Serialize for () {
    fn to_value(&self) -> Value {
        Value::Null
    }
}
impl Deserialize for () {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Null => Ok(()),
            _ => Err(DeError::expected("null", v, "unit")),
        }
    }
}

// ------------------------------------------------------------- containers

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for Box<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}
impl<T: Deserialize> Deserialize for Box<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        T::from_value(v).map(Box::new)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(x) => x.to_value(),
            None => Value::Null,
        }
    }
}
impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Arr(self.iter().map(Serialize::to_value).collect())
    }
}
impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let items = v
            .as_arr()
            .ok_or_else(|| DeError::expected("array", v, "Vec"))?;
        items.iter().map(T::from_value).collect()
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Arr(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Arr(self.iter().map(Serialize::to_value).collect())
    }
}
impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let items = v
            .as_arr()
            .ok_or_else(|| DeError::expected("array", v, "fixed array"))?;
        if items.len() != N {
            return Err(DeError(format!(
                "expected array of length {N}, found {}",
                items.len()
            )));
        }
        let vec: Vec<T> = items.iter().map(T::from_value).collect::<Result<_, _>>()?;
        vec.try_into()
            .map_err(|_| DeError("array length mismatch".into()))
    }
}

macro_rules! tuple_impl {
    ($(($($n:tt $t:ident),+))*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn to_value(&self) -> Value {
                Value::Arr(vec![$(self.$n.to_value()),+])
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                let items = v.as_arr().ok_or_else(|| DeError::expected("array", v, "tuple"))?;
                let want = [$($n),+].len();
                if items.len() != want {
                    return Err(DeError(format!(
                        "expected tuple of length {want}, found {}", items.len()
                    )));
                }
                Ok(($($t::from_value(&items[$n])?,)+))
            }
        }
    )*};
}

tuple_impl! {
    (0 A)
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
    (0 A, 1 B, 2 C, 3 D, 4 E)
    (0 A, 1 B, 2 C, 3 D, 4 E, 5 F)
}

/// Map keys must render to a JSON object key.
pub trait MapKey: Sized {
    /// Key → object-key string.
    fn to_key(&self) -> String;
    /// Object-key string → key.
    fn from_key(s: &str) -> Result<Self, DeError>;
}

impl MapKey for String {
    fn to_key(&self) -> String {
        self.clone()
    }
    fn from_key(s: &str) -> Result<Self, DeError> {
        Ok(s.to_string())
    }
}

macro_rules! int_key_impl {
    ($($t:ty),*) => {$(
        impl MapKey for $t {
            fn to_key(&self) -> String {
                self.to_string()
            }
            fn from_key(s: &str) -> Result<Self, DeError> {
                s.parse().map_err(|_| DeError(format!("bad integer key `{s}`")))
            }
        }
    )*};
}

int_key_impl!(i8, i16, i32, i64, isize, u8, u16, u32, u64, usize);

/// Pair keys encode as `"a,b"`. Real serde_json rejects non-string map
/// keys at runtime; encoding them keeps such maps round-trippable here.
/// Sound for integer components, which never contain `,`.
impl<A: MapKey, B: MapKey> MapKey for (A, B) {
    fn to_key(&self) -> String {
        format!("{},{}", self.0.to_key(), self.1.to_key())
    }
    fn from_key(s: &str) -> Result<Self, DeError> {
        let (a, b) = s
            .split_once(',')
            .ok_or_else(|| DeError(format!("bad pair key `{s}`")))?;
        Ok((A::from_key(a)?, B::from_key(b)?))
    }
}

impl<T: Serialize> Serialize for std::collections::VecDeque<T> {
    fn to_value(&self) -> Value {
        Value::Arr(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for std::collections::VecDeque<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Arr(items) => items.iter().map(T::from_value).collect(),
            other => Err(DeError::expected("array", other, "VecDeque")),
        }
    }
}

impl<K: MapKey + Ord, V: Serialize> Serialize for BTreeMap<K, V> {
    fn to_value(&self) -> Value {
        Value::Obj(
            self.iter()
                .map(|(k, v)| (k.to_key(), v.to_value()))
                .collect(),
        )
    }
}
impl<K: MapKey + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let fields = v
            .as_obj()
            .ok_or_else(|| DeError::expected("object", v, "map"))?;
        fields
            .iter()
            .map(|(k, val)| Ok((K::from_key(k)?, V::from_value(val)?)))
            .collect()
    }
}

impl<K: MapKey + Eq + std::hash::Hash, V: Serialize> Serialize for HashMap<K, V> {
    fn to_value(&self) -> Value {
        // deterministic output: sort keys
        let mut fields: Vec<(String, Value)> = self
            .iter()
            .map(|(k, v)| (k.to_key(), v.to_value()))
            .collect();
        fields.sort_by(|a, b| a.0.cmp(&b.0));
        Value::Obj(fields)
    }
}
impl<K: MapKey + Eq + std::hash::Hash, V: Deserialize> Deserialize for HashMap<K, V> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let fields = v
            .as_obj()
            .ok_or_else(|| DeError::expected("object", v, "map"))?;
        fields
            .iter()
            .map(|(k, val)| Ok((K::from_key(k)?, V::from_value(val)?)))
            .collect()
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}
impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(v.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_roundtrip() {
        assert_eq!(i64::from_value(&42u8.to_value()).unwrap(), 42);
        assert!(bool::from_value(&true.to_value()).unwrap());
        assert_eq!(String::from_value(&"hi".to_value()).unwrap(), "hi");
        let v: Vec<u32> = Deserialize::from_value(&vec![1u32, 2, 3].to_value()).unwrap();
        assert_eq!(v, vec![1, 2, 3]);
    }

    #[test]
    fn option_and_array() {
        assert_eq!(Option::<u8>::from_value(&Value::Null).unwrap(), None);
        let arr: [String; 2] =
            Deserialize::from_value(&["a".to_string(), "b".to_string()].to_value()).unwrap();
        assert_eq!(arr[1], "b");
    }

    #[test]
    fn big_u64_keeps_precision() {
        let big = u64::MAX - 1;
        assert_eq!(u64::from_value(&big.to_value()).unwrap(), big);
    }
}
