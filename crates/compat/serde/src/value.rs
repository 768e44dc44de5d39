//! [`Value`]: a parsed JSON document of any shape.

use crate::{DeError, Deserialize, Number, Reader, Serialize, Writer};

/// A JSON document of any shape, held as a tree.
///
/// Typed values never pass through it: it is the type of documents whose
/// shape the program does not know, such as the trial-record blobs a
/// `bat/cache/v1` store keeps verbatim. It writes and reads like any other
/// type. Parsing yields `UInt` for non-negative integer text, `Int` for
/// negative, `Float` for text with a fraction or exponent, and keeps
/// object entries in document order, duplicates included.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// Boolean.
    Bool(bool),
    /// Signed integer.
    Int(i64),
    /// Unsigned integer (preserves `u64` values above `i64::MAX`).
    UInt(u64),
    /// Floating-point number.
    Float(f64),
    /// String.
    String(String),
    /// Array.
    Array(Vec<Value>),
    /// Object; insertion order is preserved for stable output.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The object entries, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(entries) => Some(entries),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// Look up `key` in an object value (the first entry wins).
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object()
            .and_then(|entries| entries.iter().find(|(k, _)| k == key))
            .map(|(_, v)| v)
    }
}

impl Serialize for Value {
    fn serialize(&self, w: &mut Writer<'_>) {
        match self {
            Value::Null => w.null(),
            Value::Bool(b) => w.bool(*b),
            Value::Int(i) => w.i64(*i),
            Value::UInt(u) => w.u64(*u),
            Value::Float(f) => w.f64(*f),
            Value::String(s) => w.str(s),
            Value::Array(items) => items.serialize(w),
            Value::Object(entries) => {
                w.begin_object();
                for (k, v) in entries {
                    w.field(k, v);
                }
                w.end_object();
            }
        }
    }
}

impl Deserialize for Value {
    fn deserialize(r: &mut Reader<'_>) -> Result<Value, DeError> {
        Ok(match r.peek() {
            Some(b'[') => Value::Array(Deserialize::deserialize(r)?),
            Some(b'{') => {
                r.begin_object("Value")?;
                let mut entries = Vec::new();
                while let Some(key) = r.next_key()? {
                    let value = Value::deserialize(r)?;
                    entries.push((key.into_owned(), value));
                }
                Value::Object(entries)
            }
            Some(b'"') => Value::String(r.string("Value")?.into_owned()),
            Some(b'-' | b'0'..=b'9') => match r.number("number", "Value")? {
                Number::Int(i) => Value::Int(i),
                Number::UInt(u) => Value::UInt(u),
                Number::Float(f) => Value::Float(f),
            },
            Some(b't' | b'f') => Value::Bool(r.bool("Value")?),
            _ if r.null()? => Value::Null,
            _ => return Err(r.unexpected()),
        })
    }
}
