//! The JSON writer every [`Serialize`](crate::Serialize) impl writes into.

use std::fmt::Write as _;

/// Appends JSON text to one `String`, in one of two layouts:
///
/// * compact — no whitespace at all (`bat/wire/v1` frames);
/// * pretty — two-space indentation, one member per line, `": "` after
///   keys, and `[]` / `{}` for empty containers (artifacts, checkpoints,
///   caches).
///
/// An object is written by bracketing its members:
/// [`begin_object`](Writer::begin_object), then [`key`](Writer::key) and
/// the value (or [`field`](Writer::field)) for each member, then
/// [`end_object`](Writer::end_object). Every other value is written by the
/// `Serialize` impl of its type: numbers with Rust's own formatting —
/// `Display` for integers, `{:?}` (shortest round-trip text, always with a
/// `.` or an exponent) for finite floats, `null` for the others — and
/// slices and `Vec`s as arrays.
pub struct Writer<'a> {
    out: &'a mut String,
    pretty: bool,
    /// Open containers.
    depth: usize,
    /// True between opening a container and writing its first member.
    empty: bool,
}

impl<'a> Writer<'a> {
    /// A writer appending compact JSON to `out`.
    pub fn compact(out: &'a mut String) -> Writer<'a> {
        Writer {
            out,
            pretty: false,
            depth: 0,
            empty: false,
        }
    }

    /// A writer appending two-space-indented JSON to `out`.
    pub fn pretty(out: &'a mut String) -> Writer<'a> {
        Writer {
            pretty: true,
            ..Writer::compact(out)
        }
    }

    /// `null`.
    pub(crate) fn null(&mut self) {
        self.out.push_str("null");
    }

    /// `true` or `false`.
    pub(crate) fn bool(&mut self, b: bool) {
        self.out.push_str(if b { "true" } else { "false" });
    }

    /// A signed integer.
    pub(crate) fn i64(&mut self, v: i64) {
        write!(self.out, "{v}").expect("writing to a String cannot fail");
    }

    /// An unsigned integer.
    pub(crate) fn u64(&mut self, v: u64) {
        write!(self.out, "{v}").expect("writing to a String cannot fail");
    }

    /// A float: its `{:?}` text when finite, `null` otherwise (JSON has no
    /// infinities or NaN).
    pub(crate) fn f64(&mut self, v: f64) {
        if v.is_finite() {
            write!(self.out, "{v:?}").expect("writing to a String cannot fail");
        } else {
            self.null();
        }
    }

    /// A string, quoted and escaped: `"` and `\` and the control
    /// characters are escaped (`\n`, `\r`, `\t`, else `\u00xx`); all other
    /// characters, non-ASCII included, are copied as they are.
    pub fn str(&mut self, s: &str) {
        self.out.push('"');
        let mut start = 0;
        for (i, &b) in s.as_bytes().iter().enumerate() {
            let short = match b {
                b'"' => "\\\"",
                b'\\' => "\\\\",
                b'\n' => "\\n",
                b'\r' => "\\r",
                b'\t' => "\\t",
                0..=0x1f => "",
                _ => continue,
            };
            // `b` is ASCII, so `i` is a character boundary.
            self.out.push_str(&s[start..i]);
            if short.is_empty() {
                write!(self.out, "\\u{b:04x}").expect("writing to a String cannot fail");
            } else {
                self.out.push_str(short);
            }
            start = i + 1;
        }
        self.out.push_str(&s[start..]);
        self.out.push('"');
    }

    /// Open an array.
    pub(crate) fn begin_array(&mut self) {
        self.open('[');
    }

    /// Start the next element of the open array.
    pub(crate) fn element(&mut self) {
        self.member();
    }

    /// Close the open array.
    pub(crate) fn end_array(&mut self) {
        self.close(']');
    }

    /// Open an object.
    pub fn begin_object(&mut self) {
        self.open('{');
    }

    /// Write the next key of the open object; its value follows.
    pub fn key(&mut self, key: &str) {
        self.member();
        self.str(key);
        self.out.push_str(if self.pretty { ": " } else { ":" });
    }

    /// Close the open object.
    pub fn end_object(&mut self) {
        self.close('}');
    }

    /// Write one `key: value` member of the open object.
    pub fn field<T: crate::Serialize + ?Sized>(&mut self, key: &str, value: &T) {
        self.key(key);
        value.serialize(self);
    }

    fn open(&mut self, bracket: char) {
        self.out.push(bracket);
        self.depth += 1;
        self.empty = true;
    }

    fn member(&mut self) {
        if !self.empty {
            self.out.push(',');
        }
        self.empty = false;
        if self.pretty {
            self.newline();
        }
    }

    fn close(&mut self, bracket: char) {
        self.depth -= 1;
        if self.pretty && !self.empty {
            self.newline();
        }
        // The enclosing container, if any, now holds this one.
        self.empty = false;
        self.out.push(bracket);
    }

    fn newline(&mut self) {
        self.out.push('\n');
        for _ in 0..self.depth {
            self.out.push_str("  ");
        }
    }
}
