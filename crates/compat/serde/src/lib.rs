//! Offline stand-in for the subset of `serde` used by this workspace.
//!
//! The workspace's only format is JSON (through the sibling `serde_json`
//! stand-in), so instead of serde's format-independent visitor model both
//! traits speak JSON text directly, and nothing is built in between:
//!
//! * [`Serialize`] — `fn serialize(&self, w: &mut Writer)` appends the
//!   value's text to the [`Writer`]'s one output buffer, compact or
//!   two-space pretty;
//! * [`Deserialize`] — `fn deserialize(r: &mut Reader) -> Result<Self,
//!   DeError>` pulls the value from the [`Reader`], a parser over the
//!   input text that borrows unescaped strings and compares object keys in
//!   place.
//!
//! [`Value`] is not an intermediate: it is the type of documents whose
//! shape the program does not know (opaque record blobs), and implements
//! both traits like any other type.
//!
//! The derive macros (`#[derive(Serialize, Deserialize)]`, re-exported from
//! the `serde_derive` stand-in) generate those impls for structs with named
//! fields and for enums with unit, newtype and struct variants, honouring
//! the `#[serde(rename)]`, `#[serde(rename_all = "snake_case")]`,
//! `#[serde(default)]`, `#[serde(skip_serializing_if = "path")]` and
//! `#[serde(deny_unknown_fields)]` attributes the workspace uses.
//!
//! Reading rules every impl keeps: integer types accept integer text in
//! range and reject fractions and exponents; float types accept any
//! number; a missing non-`default` field is an error; when an object
//! repeats a field name the first occurrence wins (maps keep the last);
//! arrays and objects nest at most [`MAX_DEPTH`] levels.

pub use serde_derive::{Deserialize, Serialize};

mod de;
mod ser;
mod value;

use de::Number;
pub use de::{DeError, Reader, MAX_DEPTH};
pub use ser::Writer;
pub use value::Value;

use std::collections::BTreeMap;

/// A type that writes itself as JSON.
pub trait Serialize {
    /// Append `self`'s JSON text to `w`.
    fn serialize(&self, w: &mut Writer<'_>);
}

/// A type that reads itself from JSON.
pub trait Deserialize: Sized {
    /// Read one value of this type from `r`.
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, DeError>;
}

// ---------------------------------------------------------------------------
// Primitive impls
// ---------------------------------------------------------------------------

macro_rules! impl_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self, w: &mut Writer<'_>) { w.i64(*self as i64) }
        }
        impl Deserialize for $t {
            fn deserialize(r: &mut Reader<'_>) -> Result<Self, DeError> {
                let ty = stringify!($t);
                match r.number("integer", ty)? {
                    Number::Int(i) => <$t>::try_from(i)
                        .map_err(|_| r.expected("in-range integer", ty)),
                    Number::UInt(u) => <$t>::try_from(u)
                        .map_err(|_| r.expected("in-range integer", ty)),
                    Number::Float(_) => Err(r.expected("integer", ty)),
                }
            }
        }
    )*};
}
impl_signed!(i8, i16, i32, i64, isize);

macro_rules! impl_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self, w: &mut Writer<'_>) { w.u64(*self as u64) }
        }
        impl Deserialize for $t {
            fn deserialize(r: &mut Reader<'_>) -> Result<Self, DeError> {
                let ty = stringify!($t);
                match r.number("integer", ty)? {
                    Number::UInt(u) => <$t>::try_from(u)
                        .map_err(|_| r.expected("in-range integer", ty)),
                    Number::Int(i) => u64::try_from(i)
                        .ok()
                        .and_then(|u| <$t>::try_from(u).ok())
                        .ok_or_else(|| r.expected("non-negative integer", ty)),
                    Number::Float(_) => Err(r.expected("integer", ty)),
                }
            }
        }
    )*};
}
impl_unsigned!(u8, u16, u32, u64, usize);

macro_rules! impl_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self, w: &mut Writer<'_>) { w.f64(*self as f64) }
        }
        impl Deserialize for $t {
            fn deserialize(r: &mut Reader<'_>) -> Result<Self, DeError> {
                Ok(match r.number("number", stringify!($t))? {
                    Number::Float(f) => f as $t,
                    Number::Int(i) => i as $t,
                    Number::UInt(u) => u as $t,
                })
            }
        }
    )*};
}
impl_float!(f32, f64);

impl Serialize for bool {
    fn serialize(&self, w: &mut Writer<'_>) {
        w.bool(*self)
    }
}

impl Deserialize for bool {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, DeError> {
        r.bool("bool")
    }
}

impl Serialize for str {
    fn serialize(&self, w: &mut Writer<'_>) {
        w.str(self)
    }
}

impl Serialize for String {
    fn serialize(&self, w: &mut Writer<'_>) {
        w.str(self)
    }
}

impl Deserialize for String {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, DeError> {
        r.string("String").map(|s| s.into_owned())
    }
}

// ---------------------------------------------------------------------------
// Container impls
// ---------------------------------------------------------------------------

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize(&self, w: &mut Writer<'_>) {
        (**self).serialize(w)
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize(&self, w: &mut Writer<'_>) {
        w.begin_array();
        for item in self {
            w.element();
            item.serialize(w);
        }
        w.end_array();
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize(&self, w: &mut Writer<'_>) {
        self.as_slice().serialize(w)
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, DeError> {
        r.begin_array("Vec")?;
        let mut items = Vec::new();
        while r.next_element()? {
            items.push(T::deserialize(r)?);
        }
        Ok(items)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize(&self, w: &mut Writer<'_>) {
        match self {
            Some(inner) => inner.serialize(w),
            None => w.null(),
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

impl<V: Serialize> Serialize for BTreeMap<String, V> {
    fn serialize(&self, w: &mut Writer<'_>) {
        w.begin_object();
        for (k, v) in self {
            w.field(k, v);
        }
        w.end_object();
    }
}

impl<V: Deserialize> Deserialize for BTreeMap<String, V> {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, DeError> {
        r.begin_object("BTreeMap")?;
        let mut map = BTreeMap::new();
        while let Some(key) = r.next_key()? {
            let value = V::deserialize(r)?;
            map.insert(key.into_owned(), value);
        }
        Ok(map)
    }
}

// serde's externally-tagged representation: {"Ok": ...} / {"Err": ...}.
impl<T: Serialize, E: Serialize> Serialize for Result<T, E> {
    fn serialize(&self, w: &mut Writer<'_>) {
        w.begin_object();
        match self {
            Ok(v) => w.field("Ok", v),
            Err(e) => w.field("Err", e),
        }
        w.end_object();
    }
}

impl<T: Deserialize, E: Deserialize> Deserialize for Result<T, E> {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, DeError> {
        r.begin_object("Result")?;
        let out = match r.next_key()?.as_deref() {
            Some("Ok") => Ok(T::deserialize(r)?),
            Some("Err") => Err(E::deserialize(r)?),
            _ => return Err(r.expected("a single \"Ok\" or \"Err\" key", "Result")),
        };
        match r.next_key()? {
            None => Ok(out),
            Some(_) => Err(r.expected("a single \"Ok\" or \"Err\" key", "Result")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn text<T: Serialize + ?Sized>(v: &T) -> String {
        let mut out = String::new();
        v.serialize(&mut Writer::compact(&mut out));
        out
    }

    fn read<T: Deserialize>(s: &str) -> Result<T, DeError> {
        let mut r = Reader::new(s);
        let v = T::deserialize(&mut r)?;
        r.finish()?;
        Ok(v)
    }

    #[test]
    fn primitives_round_trip() {
        assert_eq!(read::<i64>(&text(&42i64)).unwrap(), 42);
        assert_eq!(read::<u64>(&text(&7u64)).unwrap(), 7);
        assert_eq!(read::<f64>(&text(&1.5f64)).unwrap(), 1.5);
        assert_eq!(read::<String>(&text("hi")).unwrap(), "hi");
        assert!(read::<bool>(&text(&true)).unwrap());
        assert_eq!(text(&i64::MIN), "-9223372036854775808");
        assert_eq!(text(&u64::MAX), "18446744073709551615");
        assert_eq!(text(&-0.0f64), "-0.0");
        assert_eq!(text(&f64::NAN), "null");
    }

    #[test]
    fn containers_round_trip() {
        let v = vec![1i64, 2, 3];
        assert_eq!(read::<Vec<i64>>(&text(&v)).unwrap(), v);
        let o: Option<u64> = Some(9);
        assert_eq!(read::<Option<u64>>(&text(&o)).unwrap(), o);
        let n: Option<u64> = None;
        assert_eq!(read::<Option<u64>>(&text(&n)).unwrap(), n);
        let r: Result<u64, String> = Err("boom".into());
        assert_eq!(text(&r), r#"{"Err":"boom"}"#);
        assert_eq!(read::<Result<u64, String>>(&text(&r)).unwrap(), r);
        let m = BTreeMap::from([("b".to_string(), 2u8), ("a".to_string(), 1)]);
        assert_eq!(text(&m), r#"{"a":1,"b":2}"#);
        assert_eq!(read::<BTreeMap<String, u8>>(&text(&m)).unwrap(), m);
    }

    #[test]
    fn type_mismatches_error() {
        assert!(read::<i64>("\"x\"").is_err());
        assert!(read::<u64>("-1").is_err());
        assert!(read::<u64>("1.0").is_err());
        assert!(read::<u8>("256").is_err());
        assert!(read::<Vec<i64>>("null").is_err());
        assert!(read::<Result<u64, String>>(r#"{"Ok":1,"Err":"x"}"#).is_err());
        assert!(read::<Result<u64, String>>("{}").is_err());
        // Integer text out of every integer range fails even for floats.
        assert!(read::<f64>("18446744073709551616").is_err());
        assert_eq!(read::<f64>("-0").unwrap(), 0.0);
        assert_eq!(read::<u64>("-0").unwrap(), 0);
    }

    #[test]
    fn maps_keep_the_last_duplicate() {
        let m: BTreeMap<String, u8> = read(r#"{"a":1,"a":2}"#).unwrap();
        assert_eq!(m["a"], 2);
    }

    #[test]
    fn values_keep_their_shape() {
        let doc = r#"{"a":[1,-2,2.5,null,true,"s\n"],"a":{},"b":[]}"#;
        let v: Value = read(doc).unwrap();
        assert_eq!(
            v,
            Value::Object(vec![
                (
                    "a".into(),
                    Value::Array(vec![
                        Value::UInt(1),
                        Value::Int(-2),
                        Value::Float(2.5),
                        Value::Null,
                        Value::Bool(true),
                        Value::String("s\n".into()),
                    ])
                ),
                ("a".into(), Value::Object(vec![])),
                ("b".into(), Value::Array(vec![])),
            ])
        );
        assert_eq!(text(&v), doc);
        assert_eq!(v.get("a").and_then(|a| a.as_object()), None);
    }

    #[test]
    fn pretty_layout_matches_the_artifact_form() {
        let v: Value = read(r#"{"a":[1,{"b":[]}],"c":{}}"#).unwrap();
        let mut out = String::new();
        v.serialize(&mut Writer::pretty(&mut out));
        assert_eq!(
            out,
            "{\n  \"a\": [\n    1,\n    {\n      \"b\": []\n    }\n  ],\n  \"c\": {}\n}"
        );
    }

    #[test]
    fn nesting_is_bounded_and_the_error_names_the_offset() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(read::<Value>(&ok).is_ok());
        let deep = "[".repeat(200_000);
        let err = read::<Value>(&deep).unwrap_err();
        assert!(
            err.0.contains(&format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {MAX_DEPTH}"
            )),
            "{err}"
        );
        // Skipping an unknown value is bounded the same way.
        let mut r = Reader::new(&deep);
        assert!(r.skip_value().is_err());
        let deep_objects = "{\"k\":".repeat(200_000);
        assert!(read::<Value>(&deep_objects).is_err());
        // A typed reader stops at the first value of the wrong shape.
        let err = read::<Vec<u64>>(&deep).unwrap_err();
        assert!(err.0.contains("at byte 1"), "{err}");
    }
}
