//! Offline stand-in for the subset of `serde_json` used by this workspace:
//! [`to_string`], [`to_string_pretty`], [`from_str`] and [`Error`].
//!
//! The streaming `serde` stand-in's [`Writer`] and [`Reader`] do the work:
//! a value writes its JSON text straight into the output `String`, and is
//! read straight from the input text, with no tree in between. [`Value`]
//! is the tree type for documents of unknown shape.

use std::fmt;

pub use serde::Value;
use serde::{Deserialize, Reader, Serialize, Writer};

/// Serialization/deserialization failure.
#[derive(Debug, Clone, PartialEq)]
pub struct Error(String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

impl From<serde::DeError> for Error {
    fn from(e: serde::DeError) -> Self {
        Error(e.0)
    }
}

/// Serialize `value` as a pretty-printed (2-space indented) JSON string.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    value.serialize(&mut Writer::pretty(&mut out));
    Ok(out)
}

/// Serialize `value` as a compact JSON string.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    value.serialize(&mut Writer::compact(&mut out));
    Ok(out)
}

/// Parse a JSON string into `T`.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let mut r = Reader::new(s);
    let value = T::deserialize(&mut r)?;
    r.finish()?;
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        assert_eq!(from_str::<i64>("-42").unwrap(), -42);
        assert_eq!(from_str::<u64>("42").unwrap(), 42);
        assert_eq!(from_str::<f64>("2.5").unwrap(), 2.5);
        assert_eq!(from_str::<f64>("1e3").unwrap(), 1000.0);
        assert_eq!(from_str::<String>("\"a\\nb\"").unwrap(), "a\nb");
        assert!(from_str::<bool>("true").unwrap());
    }

    #[test]
    fn float_round_trip_is_exact() {
        for f in [0.1, 1.0 / 3.0, 5.0, 1e-300, std::f64::consts::PI] {
            let s = to_string_pretty(&f).unwrap();
            assert_eq!(from_str::<f64>(&s).unwrap(), f, "{s}");
        }
    }

    #[test]
    fn containers_round_trip() {
        let v = vec![vec![1i64, 2], vec![3]];
        let s = to_string_pretty(&v).unwrap();
        assert_eq!(from_str::<Vec<Vec<i64>>>(&s).unwrap(), v);
        let o: Vec<Option<f64>> = vec![Some(1.5), None];
        let s = to_string(&o).unwrap();
        assert_eq!(s, "[1.5,null]");
        assert_eq!(from_str::<Vec<Option<f64>>>(&s).unwrap(), o);
    }

    #[test]
    fn pretty_output_shape() {
        let v = vec![1i64];
        assert_eq!(to_string_pretty(&v).unwrap(), "[\n  1\n]");
    }

    #[test]
    fn strings_mix_runs_multibyte_characters_and_every_escape() {
        let json = r#""plain ünï😀 \" \\ \/ \n \r \t \b \f \u00e9\u0041 end😀""#;
        assert_eq!(
            from_str::<String>(json).unwrap(),
            "plain ünï😀 \" \\ / \n \r \t \u{8} \u{c} éA end😀"
        );
        assert_eq!(from_str::<String>(r#""""#).unwrap(), "");
        assert_eq!(from_str::<String>(r#""\\""#).unwrap(), "\\");
        assert_eq!(from_str::<String>(r#""ß""#).unwrap(), "ß");
        let s = "tab\t, quote \", ∑ and 🦀\u{1}".to_string();
        assert_eq!(from_str::<String>(&to_string(&s).unwrap()).unwrap(), s);
    }

    #[test]
    fn long_string_documents_parse_in_linear_time() {
        // About 256 KB of multi-byte string values. A parser that
        // re-validates the rest of the document per character needs
        // seconds for this in a debug build.
        let value = "grüße, 世界 🦀 ".repeat(12);
        let doc: Vec<String> = (0..1024).map(|i| format!("{i} {value}")).collect();
        let json = to_string(&doc).unwrap();
        assert!(json.len() > 256 << 10, "{} bytes", json.len());
        let started = std::time::Instant::now();
        assert_eq!(from_str::<Vec<String>>(&json).unwrap(), doc);
        let elapsed = started.elapsed();
        assert!(elapsed.as_secs_f64() < 1.0, "parsing took {elapsed:?}");
    }

    #[test]
    fn errors_are_reported() {
        assert!(from_str::<i64>("").is_err());
        assert!(from_str::<i64>("12 34").is_err());
        assert!(from_str::<Vec<i64>>("[1,").is_err());
        assert!(from_str::<Vec<i64>>("[1,]").is_err());
        assert!(from_str::<Vec<i64>>("[,1]").is_err());
        assert!(from_str::<Vec<i64>>("[1 2]").is_err());
        assert!(from_str::<String>("\"abc").is_err());
        assert!(from_str::<String>("\"\\u12\"").is_err());
        assert!(from_str::<Value>("{\"a\":1,}").is_err());
        assert!(from_str::<Value>("{\"a\" 1}").is_err());
        assert!(from_str::<Value>("nul").is_err());
        assert!(from_str::<Value>("-").is_err());
        assert!(from_str::<Value>("1.2.3").is_err());
    }

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    #[serde(deny_unknown_fields)]
    struct Strict {
        #[serde(rename = "type")]
        kind: String,
        #[serde(default, skip_serializing_if = "Option::is_none")]
        limit: Option<u32>,
        shape: Shape,
    }

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    struct Loose {
        #[serde(default)]
        n: u8,
        shapes: Vec<Shape>,
    }

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    #[serde(rename_all = "snake_case")]
    enum Shape {
        UnitSquare,
        Circle(f64),
        Rect { width: u32, height: u32 },
    }

    #[test]
    fn derived_impls_keep_their_shapes_and_rules() {
        let strict = Strict {
            kind: "a".into(),
            limit: None,
            shape: Shape::Rect {
                width: 2,
                height: 3,
            },
        };
        let json = to_string(&strict).unwrap();
        assert_eq!(
            json,
            r#"{"type":"a","shape":{"rect":{"width":2,"height":3}}}"#
        );
        assert_eq!(from_str::<Strict>(&json).unwrap(), strict);
        // deny_unknown_fields rejects a stray key; a repeated known key is
        // no stray, and its first occurrence wins.
        assert!(from_str::<Strict>(r#"{"type":"a","shape":"unit_square","x":1}"#).is_err());
        let first = from_str::<Strict>(r#"{"type":"a","shape":"unit_square","type":[[]]}"#);
        assert_eq!(first.unwrap().kind, "a");
        // A missing required field is an error; a missing default is not.
        assert!(from_str::<Strict>(r#"{"type":"a"}"#).is_err());
        let loose: Loose =
            from_str(r#"{"extra":{"deep":[1,{"x":null}]},"shapes":["unit_square",{"circle":1}]}"#)
                .unwrap();
        assert_eq!(loose.n, 0);
        assert_eq!(loose.shapes, vec![Shape::UnitSquare, Shape::Circle(1.0)]);
        // Variants: unknown tags, tags of the wrong kind and extra keys fail.
        for bad in [
            r#""circle""#,
            r#"{"unit_square":null}"#,
            r#"{"circle":1,"circle":2}"#,
            r#"{"oval":1}"#,
            r#"{}"#,
            r#"{"rect":{"width":1}}"#,
        ] {
            assert!(from_str::<Shape>(bad).is_err(), "{bad}");
        }
        assert_eq!(
            to_string_pretty(&Shape::Circle(0.5)).unwrap(),
            "{\n  \"circle\": 0.5\n}"
        );
    }
}
