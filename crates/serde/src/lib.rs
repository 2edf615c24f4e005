//! Offline, vendored stand-in for [`serde`](https://serde.rs).
//!
//! The real serde could not be fetched (no registry access), so this
//! crate provides the same *spelling* — `serde::Serialize`,
//! `serde::Deserialize`, `#[derive(Serialize, Deserialize)]`,
//! `#[serde(skip)]`, `#[serde(default)]` — over a much smaller core
//! with two ways out and one way in:
//!
//! * [`Serialize::write_json`] appends compact JSON text straight to a
//!   `String`, building no tree. `serde_json::to_string` is this call.
//! * [`Serialize::to_value`] builds a JSON-shaped [`Value`] tree, for
//!   callers that inspect or assemble one (`serde_json::to_value`,
//!   pretty printing).
//! * [`Deserialize::from_value`] rebuilds a type from a [`Value`] tree,
//!   which `serde_json` parses text into.
//!
//! The byte contract: for every type, `write_json` appends exactly the
//! compact rendering of `to_value()`, which is itself `Value`'s
//! `write_json`. One string escaper and one float formatter, both in
//! this crate, decide that format: `"`, `\`, `\n`, `\r` and `\t` get
//! short escapes, other control characters `\u00XX` with lowercase
//! hex, everything else (U+007F and multi-byte text included) is
//! copied; a float prints as Rust's shortest round-trip `{:?}` (so it
//! keeps a `.` or an exponent), an `f32` widened to `f64` first, and a
//! non-finite float as `null`. Object keys keep field order, a
//! `BTreeMap` its key order and a `HashMap` the order of its rendered
//! keys.
//!
//! Representation choices mirror serde's JSON conventions so existing
//! expectations (externally-tagged enums, newtype transparency, maps as
//! objects, skipped fields defaulting on read) keep holding.

#![forbid(unsafe_code)]

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt::{self, Write as _};

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

/// Types that serialize, as a [`Value`] tree or straight to compact
/// JSON text. Both methods are required; the derive generates both.
pub trait Serialize {
    /// Converts to the value tree.
    fn to_value(&self) -> Value;

    /// Appends compact JSON to `out`: the same bytes as rendering
    /// [`to_value`](Serialize::to_value) compactly, written without
    /// building the tree.
    fn write_json(&self, out: &mut String);
}

/// Types that can rebuild themselves from a [`Value`].
pub trait Deserialize: Sized {
    /// Converts from the value tree.
    fn from_value(v: &Value) -> Result<Self, DeError>;
}

// ------------------------------------------------------------ JSON format

/// Appends `s` as a JSON string literal: each run of bytes that needs no
/// escape is copied with one `push_str`.
fn write_str(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut unicode = *b"\\u0000";
    out.push('"');
    let mut plain = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0x00..=0x1f => {
                unicode[4] = HEX[usize::from(b >> 4)];
                unicode[5] = HEX[usize::from(b & 0xf)];
                std::str::from_utf8(&unicode).expect("an ASCII escape")
            }
            _ => continue,
        };
        // Every escaped byte is ASCII, so `i` is a char boundary.
        out.push_str(&s[plain..i]);
        out.push_str(escape);
        plain = i + 1;
    }
    out.push_str(&s[plain..]);
    out.push('"');
}

/// Appends a float: Rust's `Debug` form is the shortest round-trip
/// representation and always keeps a decimal point or an exponent
/// (float-ness survives the round trip, like serde_json/ryu).
/// Non-finite floats serialize as `null`, as serde_json does.
fn write_f64(out: &mut String, x: f64) {
    if x.is_finite() {
        write!(out, "{x:?}").expect("writing to a String cannot fail");
    } else {
        out.push_str("null");
    }
}

/// Appends `[a,b,…]`.
fn write_seq<'a, T: Serialize + 'a>(out: &mut String, items: impl IntoIterator<Item = &'a T>) {
    out.push('[');
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        item.write_json(out);
    }
    out.push(']');
}

/// Appends `{"k":v,…}` from already-rendered keys, in the given order.
fn write_obj<'a, K: AsRef<str> + 'a, V: Serialize + 'a>(
    out: &mut String,
    fields: impl IntoIterator<Item = (K, &'a V)>,
) {
    out.push('{');
    for (i, (key, value)) in fields.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_str(out, key.as_ref());
        out.push(':');
        value.write_json(out);
    }
    out.push('}');
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
            fn write_json(&self, out: &mut String) {
                write!(out, "{self}").expect("writing to a String cannot fail");
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
            fn write_json(&self, out: &mut String) {
                write_f64(out, *self as f64);
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
    fn write_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
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
    fn write_json(&self, out: &mut String) {
        write_str(out, self);
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
    fn write_json(&self, out: &mut String) {
        write_str(out, self);
    }
}

impl Serialize for char {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
    fn write_json(&self, out: &mut String) {
        write_str(out, self.encode_utf8(&mut [0; 4]));
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
    fn write_json(&self, out: &mut String) {
        out.push_str("null");
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
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

impl<T: Serialize> Serialize for Box<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
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
    fn write_json(&self, out: &mut String) {
        match self {
            Some(x) => x.write_json(out),
            None => out.push_str("null"),
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
    fn write_json(&self, out: &mut String) {
        write_seq(out, self);
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
    fn write_json(&self, out: &mut String) {
        write_seq(out, self);
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Arr(self.iter().map(Serialize::to_value).collect())
    }
    fn write_json(&self, out: &mut String) {
        write_seq(out, self);
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
            fn write_json(&self, out: &mut String) {
                out.push('[');
                $(
                    if $n > 0 {
                        out.push(',');
                    }
                    self.$n.write_json(out);
                )+
                out.push(']');
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

impl<T: Serialize> Serialize for VecDeque<T> {
    fn to_value(&self) -> Value {
        Value::Arr(self.iter().map(Serialize::to_value).collect())
    }
    fn write_json(&self, out: &mut String) {
        write_seq(out, self);
    }
}

impl<T: Deserialize> Deserialize for VecDeque<T> {
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
    fn write_json(&self, out: &mut String) {
        write_obj(out, self.iter().map(|(k, v)| (k.to_key(), v)));
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

/// A `HashMap`'s entries ordered by rendered key, for deterministic
/// output.
fn sorted_entries<K: MapKey, V>(map: &HashMap<K, V>) -> Vec<(String, &V)> {
    let mut fields: Vec<(String, &V)> = map.iter().map(|(k, v)| (k.to_key(), v)).collect();
    fields.sort_by(|a, b| a.0.cmp(&b.0));
    fields
}

impl<K: MapKey + Eq + std::hash::Hash, V: Serialize> Serialize for HashMap<K, V> {
    fn to_value(&self) -> Value {
        Value::Obj(
            sorted_entries(self)
                .into_iter()
                .map(|(k, v)| (k, v.to_value()))
                .collect(),
        )
    }
    fn write_json(&self, out: &mut String) {
        write_obj(out, sorted_entries(self));
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

/// A tree renders as compact JSON: the format every other type's
/// `write_json` reproduces without building one.
impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
    fn write_json(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => b.write_json(out),
            Value::I64(x) => x.write_json(out),
            Value::U64(x) => x.write_json(out),
            Value::F64(x) => write_f64(out, *x),
            Value::Str(s) => write_str(out, s),
            Value::Arr(items) => write_seq(out, items),
            Value::Obj(fields) => write_obj(out, fields.iter().map(|(k, v)| (k, v))),
        }
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
