//! The pull parser every [`Deserialize`](crate::Deserialize) impl reads
//! from.

use std::borrow::Cow;
use std::fmt;

/// How deeply arrays and objects may nest. The suite's own documents nest
/// at most 8 levels; the bound keeps a hostile document (a frame of
/// 200,000 `[`) from exhausting the parsing thread's stack.
pub const MAX_DEPTH: usize = 128;

/// A document that is not valid JSON, or not the JSON the target type
/// expects. The message names the byte offset where reading stopped.
#[derive(Debug, Clone, PartialEq)]
pub struct DeError(pub String);

impl fmt::Display for DeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for DeError {}

/// A JSON number as written: integer text without `-` reads as `UInt`,
/// with `-` as `Int`, and text with a fraction or exponent as `Float`.
/// Integer text that fits neither `u64` nor `i64` is an error, whatever
/// the target type.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Number {
    /// Negative integer text.
    Int(i64),
    /// Non-negative integer text.
    UInt(u64),
    /// Text with a `.`, `e`, `E` or `+` (or a `-` after the first byte).
    Float(f64),
}

/// A pull parser over one JSON document.
///
/// Typed readers ask for the value they expect next — [`string`],
/// [`begin_object`] then [`next_key`] until it returns `None`,
/// [`begin_array`] then [`next_element`] until it returns `false`, or a
/// number, boolean or `null` through the `Deserialize` impls of the
/// primitive types — and [`skip_value`] passes over a value nobody wants.
/// Nothing is buffered: strings without escapes are borrowed from the
/// input, and object keys are compared in place.
///
/// [`string`]: Reader::string
/// [`begin_object`]: Reader::begin_object
/// [`next_key`]: Reader::next_key
/// [`begin_array`]: Reader::begin_array
/// [`next_element`]: Reader::next_element
/// [`skip_value`]: Reader::skip_value
pub struct Reader<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Open containers, at most [`MAX_DEPTH`].
    depth: usize,
    /// True between opening a container and reading its first member.
    first: bool,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `src`.
    pub fn new(src: &'a str) -> Reader<'a> {
        Reader {
            src,
            bytes: src.as_bytes(),
            pos: 0,
            depth: 0,
            first: false,
        }
    }

    /// Succeed only if nothing but whitespace is left.
    pub fn finish(&mut self) -> Result<(), DeError> {
        self.skip_ws();
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(self.error("trailing input"))
        }
    }

    /// The next non-whitespace byte, not consumed.
    pub fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    /// `msg`, located at the current byte offset.
    pub(crate) fn error(&self, msg: &str) -> DeError {
        DeError(format!("{msg} at byte {}", self.pos))
    }

    /// "expected `what` while deserializing `ty`", located.
    pub fn expected(&self, what: &str, ty: &str) -> DeError {
        self.error(&format!("expected {what} while deserializing {ty}"))
    }

    /// A required field of `ty` is absent.
    pub fn missing_field(&self, field: &str, ty: &str) -> DeError {
        self.error(&format!("missing field {field:?} while deserializing {ty}"))
    }

    /// A key that names no field of a `deny_unknown_fields` type.
    pub fn unknown_field(&self, field: &str, ty: &str) -> DeError {
        self.error(&format!("unknown field {field:?} while deserializing {ty}"))
    }

    /// Consume `null` if it comes next; `false` (nothing consumed) for any
    /// other value.
    pub(crate) fn null(&mut self) -> Result<bool, DeError> {
        if self.peek() != Some(b'n') {
            return Ok(false);
        }
        self.keyword("null")?;
        Ok(true)
    }

    /// `true` or `false`.
    pub(crate) fn bool(&mut self, ty: &str) -> Result<bool, DeError> {
        match self.peek() {
            Some(b't') => self.keyword("true").map(|()| true),
            Some(b'f') => self.keyword("false").map(|()| false),
            _ => Err(self.expected("boolean", ty)),
        }
    }

    /// A number; `what` names the expectation in the error when the next
    /// value is not one.
    pub(crate) fn number(&mut self, what: &str, ty: &str) -> Result<Number, DeError> {
        if !matches!(self.peek(), Some(b'-' | b'0'..=b'9')) {
            return Err(self.expected(what, ty));
        }
        let start = self.pos;
        self.pos += 1;
        let mut is_float = false;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = &self.src[start..self.pos];
        if is_float {
            text.parse()
                .map(Number::Float)
                .map_err(|_| self.error("invalid number"))
        } else if text.starts_with('-') {
            text.parse()
                .map(Number::Int)
                .map_err(|_| self.error("integer out of range"))
        } else {
            text.parse()
                .map(Number::UInt)
                .map_err(|_| self.error("integer out of range"))
        }
    }

    /// A string, borrowed from the input unless it holds escapes.
    pub fn string(&mut self, ty: &str) -> Result<Cow<'a, str>, DeError> {
        if self.peek() != Some(b'"') {
            return Err(self.expected("string", ty));
        }
        self.quoted()
    }

    /// Open an array of `ty`.
    pub fn begin_array(&mut self, ty: &str) -> Result<(), DeError> {
        self.open(b'[', "array", ty)
    }

    /// Move to the next element of the open array: `true` when one
    /// follows, `false` once the array closed.
    pub fn next_element(&mut self) -> Result<bool, DeError> {
        match self.peek() {
            Some(b']') => {
                self.close();
                Ok(false)
            }
            Some(b',') if !self.first => {
                self.pos += 1;
                Ok(true)
            }
            _ if self.first => {
                self.first = false;
                Ok(true)
            }
            _ => Err(self.error("expected ',' or ']'")),
        }
    }

    /// Open an object of `ty`.
    pub fn begin_object(&mut self, ty: &str) -> Result<(), DeError> {
        self.open(b'{', "object", ty)
    }

    /// The next key of the open object, positioned at its value; `None`
    /// once the object closed.
    pub fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, DeError> {
        match self.peek() {
            Some(b'}') => {
                self.close();
                return Ok(None);
            }
            Some(b',') if !self.first => {
                self.pos += 1;
                self.skip_ws();
            }
            _ if self.first => self.first = false,
            _ => return Err(self.error("expected ',' or '}'")),
        }
        let key = self.quoted()?;
        self.skip_ws();
        self.expect(b':')?;
        Ok(Some(key))
    }

    /// Read past the next value, checking its syntax.
    pub fn skip_value(&mut self) -> Result<(), DeError> {
        <crate::Value as crate::Deserialize>::deserialize(self).map(drop)
    }

    /// The error for a byte that starts no JSON value.
    pub(crate) fn unexpected(&self) -> DeError {
        match self.bytes.get(self.pos) {
            None => self.error("unexpected end of input"),
            Some(&b) => self.error(&format!("unexpected character {:?}", b as char)),
        }
    }

    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes.get(self.pos) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), DeError> {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected {:?}", b as char)))
        }
    }

    fn keyword(&mut self, kw: &str) -> Result<(), DeError> {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(())
        } else {
            Err(self.error("invalid keyword"))
        }
    }

    fn open(&mut self, bracket: u8, what: &str, ty: &str) -> Result<(), DeError> {
        if self.peek() != Some(bracket) {
            return Err(self.expected(what, ty));
        }
        if self.depth == MAX_DEPTH {
            return Err(self.error(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.pos += 1;
        self.depth += 1;
        self.first = true;
        Ok(())
    }

    fn close(&mut self) {
        self.pos += 1;
        self.depth -= 1;
        // The enclosing container, if any, has now read this one.
        self.first = false;
    }

    /// The string starting at the current byte (a `"`).
    fn quoted(&mut self) -> Result<Cow<'a, str>, DeError> {
        self.expect(b'"')?;
        let start = self.pos;
        loop {
            match self.bytes.get(self.pos) {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Cow::Borrowed(&self.src[start..self.pos - 1]));
                }
                Some(b'\\') => break,
                Some(_) => self.pos += 1,
            }
        }
        // `"` and `\` are ASCII, so every run ends on a character boundary.
        let mut out = self.src[start..self.pos].to_string();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Cow::Owned(out));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .src
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.error("invalid \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.error("invalid \\u escape"))?;
                            // Surrogate pairs are not needed by this suite's
                            // documents; lone surrogates become U+FFFD.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.error("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    let run = self.pos;
                    while !matches!(self.bytes.get(self.pos), None | Some(b'"' | b'\\')) {
                        self.pos += 1;
                    }
                    out.push_str(&self.src[run..self.pos]);
                }
            }
        }
    }
}
