//! Offline stand-in for `serde`.
//!
//! The build environment has no crates.io access, so this workspace-local
//! crate supplies working (if simplified) serialization machinery:
//!
//! * [`Serialize`] / [`Deserialize`] traits that convert through a JSON-like
//!   [`Value`] tree rather than serde's streaming data model;
//! * derive macros (from the sibling `serde_derive` crate) that generate
//!   those impls for plain structs and enums;
//! * the [`Value`] / [`Number`] / [`Map`] types that `serde_json` re-exports.
//!
//! The enum representation is externally tagged, like upstream serde's
//! default, so JSON produced here looks like what real serde_json would
//! emit. Only the shapes this workspace actually derives are supported:
//! non-generic structs and enums without `#[serde(...)]` attributes.

pub use serde_derive::{Deserialize, Serialize};

#[doc(hidden)]
pub mod value;

pub use value::{Map, Number, Value};

/// Error produced when a [`Value`] cannot be decoded into a Rust type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeError {
    msg: String,
}

impl DeError {
    /// A "expected X" decode error.
    pub fn expected(what: &str) -> DeError {
        DeError {
            msg: format!("expected {what}"),
        }
    }

    /// A decode error with a custom message.
    pub fn custom(msg: impl Into<String>) -> DeError {
        DeError { msg: msg.into() }
    }

    /// Wraps the error with the field it occurred in.
    pub fn in_field(self, field: &str) -> DeError {
        DeError {
            msg: format!("{}: {}", field, self.msg),
        }
    }
}

impl std::fmt::Display for DeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for DeError {}

/// Types that can be converted into a [`Value`] tree.
pub trait Serialize {
    /// Converts `self` into a [`Value`].
    fn to_value(&self) -> Value;
}

/// Types that can be reconstructed from a [`Value`] tree.
pub trait Deserialize: Sized {
    /// Attempts to reconstruct `Self` from a [`Value`].
    fn from_value(v: &Value) -> Result<Self, DeError>;
}

// ---------------------------------------------------------------------------
// Serialize impls
// ---------------------------------------------------------------------------

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize + ?Sized> Serialize for std::rc::Rc<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize + ?Sized> Serialize for std::sync::Arc<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

macro_rules! impl_ser_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Number(Number::from_u64(*self as u64))
            }
        }
    )*};
}
impl_ser_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_ser_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Number(Number::from_i64(*self as i64))
            }
        }
    )*};
}
impl_ser_int!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        match Number::from_f64(*self) {
            Some(n) => Value::Number(n),
            None => Value::Null,
        }
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        (*self as f64).to_value()
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::String(self.to_string())
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::String(self.clone())
    }
}

impl Serialize for char {
    fn to_value(&self) -> Value {
        Value::String(self.to_string())
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Serialize for () {
    fn to_value(&self) -> Value {
        Value::Null
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(v) => v.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

macro_rules! impl_ser_tuple {
    ($(($($name:ident . $idx:tt),+))*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$idx.to_value()),+])
            }
        }
    )*};
}
impl_ser_tuple! {
    (A.0)
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
}

impl<T: Serialize, E: Serialize> Serialize for Result<T, E> {
    fn to_value(&self) -> Value {
        let mut m = Map::new();
        match self {
            Ok(v) => m.insert(String::from("Ok"), v.to_value()),
            Err(e) => m.insert(String::from("Err"), e.to_value()),
        };
        Value::Object(m)
    }
}

impl<V: Serialize> Serialize for std::collections::BTreeMap<String, V> {
    fn to_value(&self) -> Value {
        let mut m = Map::new();
        for (k, v) in self {
            m.insert(k.clone(), v.to_value());
        }
        Value::Object(m)
    }
}

// ---------------------------------------------------------------------------
// Deserialize impls
// ---------------------------------------------------------------------------

macro_rules! impl_de_uint {
    ($($t:ty),*) => {$(
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                let n = v
                    .as_u64()
                    .ok_or_else(|| DeError::expected(concat!(stringify!($t))))?;
                <$t>::try_from(n).map_err(|_| DeError::custom("integer out of range"))
            }
        }
    )*};
}
impl_de_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_de_int {
    ($($t:ty),*) => {$(
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                let n = v
                    .as_i64()
                    .ok_or_else(|| DeError::expected(concat!(stringify!($t))))?;
                <$t>::try_from(n).map_err(|_| DeError::custom("integer out of range"))
            }
        }
    )*};
}
impl_de_int!(i8, i16, i32, i64, isize);

impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        v.as_f64().ok_or_else(|| DeError::expected("f64"))
    }
}

impl Deserialize for f32 {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(f64::from_value(v)? as f32)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        v.as_bool().ok_or_else(|| DeError::expected("bool"))
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| DeError::expected("string"))
    }
}

impl Deserialize for char {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let s = v.as_str().ok_or_else(|| DeError::expected("char"))?;
        let mut it = s.chars();
        match (it.next(), it.next()) {
            (Some(c), None) => Ok(c),
            _ => Err(DeError::expected("single-character string")),
        }
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(v.clone())
    }
}

impl Deserialize for () {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Null => Ok(()),
            _ => Err(DeError::expected("null")),
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

impl<T: Deserialize> Deserialize for Box<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        T::from_value(v).map(Box::new)
    }
}

impl<T: Deserialize> Deserialize for std::rc::Rc<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        T::from_value(v).map(std::rc::Rc::new)
    }
}

impl<T: Deserialize> Deserialize for std::sync::Arc<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        T::from_value(v).map(std::sync::Arc::new)
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Array(items) => items.iter().map(T::from_value).collect(),
            _ => Err(DeError::expected("array")),
        }
    }
}

impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let items = Vec::<T>::from_value(v)?;
        if items.len() != N {
            return Err(DeError::custom(format!(
                "expected array of length {N}, got {}",
                items.len()
            )));
        }
        items
            .try_into()
            .map_err(|_| DeError::custom("array length mismatch"))
    }
}

macro_rules! impl_de_tuple {
    ($(($len:expr; $($name:ident . $idx:tt),+))*) => {$(
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                match v {
                    Value::Array(items) if items.len() == $len => {
                        Ok(($($name::from_value(&items[$idx])?,)+))
                    }
                    _ => Err(DeError::expected("tuple array")),
                }
            }
        }
    )*};
}
impl_de_tuple! {
    (1; A.0)
    (2; A.0, B.1)
    (3; A.0, B.1, C.2)
    (4; A.0, B.1, C.2, D.3)
}

impl<T: Deserialize, E: Deserialize> Deserialize for Result<T, E> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let m = match v {
            Value::Object(m) if m.len() == 1 => m,
            _ => return Err(DeError::expected("Ok/Err object")),
        };
        let (k, inner) = m.iter().next().unwrap();
        match k.as_str() {
            "Ok" => T::from_value(inner).map(Ok),
            "Err" => E::from_value(inner).map(Err),
            _ => Err(DeError::expected("Ok/Err object")),
        }
    }
}

impl<V: Deserialize> Deserialize for std::collections::BTreeMap<String, V> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Object(m) => m
                .iter()
                .map(|(k, v)| Ok((k.clone(), V::from_value(v)?)))
                .collect(),
            _ => Err(DeError::expected("object")),
        }
    }
}
