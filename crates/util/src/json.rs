//! The workspace's one JSON codec: a writer, a total reader, and typed
//! field reads and writes.
//!
//! Every JSON format the workspace writes or reads goes through this
//! module: telemetry's event and ops-snapshot JSONL and the analyzer's
//! findings report. Each format keeps its own layout; this module owns
//! the text of a value.
//!
//! * **Writer.** [`Str`] quotes and escapes a string. [`Num`] prints an
//!   `f64` in Rust's shortest round-trip form, so reading the text back
//!   gives the same bits. JSON has no NaN or infinity: a non-finite
//!   value is written as `null` and reads back as NaN.
//! * **Reader.** [`parse_object`] reads one document whose root is an
//!   object of strings, numbers, bools, `null` and nested objects. It
//!   is total (malformed input is an `Err`, never a panic), rejects
//!   trailing input and duplicate keys, and keeps each number as its
//!   source text, so a `u64` never passes through `f64`.
//! * **Typed fields.** [`Field`] writes and reads one value of a Rust
//!   type, rejecting any value the type cannot hold (`300` for a `u8`,
//!   `1.5` or `-1` for a `u64`); [`Object::get`] names the field in
//!   every error.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// Displays a string as a quoted JSON string: `"`, `\` and control
/// characters are escaped, everything else (non-BMP included) is
/// written as is.
pub struct Str<'a>(pub &'a str);

impl fmt::Display for Str<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_char('"')?;
        for c in self.0.chars() {
            match c {
                '"' => f.write_str("\\\"")?,
                '\\' => f.write_str("\\\\")?,
                '\n' => f.write_str("\\n")?,
                '\r' => f.write_str("\\r")?,
                '\t' => f.write_str("\\t")?,
                c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
                c => f.write_char(c)?,
            }
        }
        f.write_char('"')
    }
}

/// Displays an `f64` as a JSON number in shortest round-trip form
/// (`0.30000000000000004`, `1`), or `null` when it is not finite.
pub struct Num(pub f64);

impl fmt::Display for Num {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_finite() {
            write!(f, "{}", self.0)
        } else {
            f.write_str("null")
        }
    }
}

/// One parsed JSON value. Numbers keep their source text until a
/// typed read converts them.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number, as its source text.
    Num(String),
    /// A string, unescaped.
    Str(String),
    /// A nested object.
    Obj(Object),
}

/// A parsed JSON object. Keys are unique: the reader rejects a
/// duplicate instead of keeping either value.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Object(BTreeMap<String, Value>);

impl Object {
    /// Reads field `key` as a `T`. The error names the field.
    pub fn get<T: Field>(&self, key: &str) -> Result<T, String> {
        T::read(self.0.get(key)).map_err(|e| format!("field {key:?}: {e}"))
    }

    /// The nested object in field `key`.
    pub fn object(&self, key: &str) -> Result<&Object, String> {
        match self.0.get(key) {
            Some(Value::Obj(o)) => Ok(o),
            other => Err(format!("field {key:?}: {}", expected("an object", other))),
        }
    }

    /// The object's keys, sorted.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.0.keys().map(String::as_str)
    }
}

/// A Rust type stored as one JSON value.
pub trait Field: Sized {
    /// Appends the value's JSON text to `out`.
    fn write(&self, out: &mut String);

    /// Reads a field's value; `None` means the field is absent.
    fn read(value: Option<&Value>) -> Result<Self, String>;
}

macro_rules! unsigned_field {
    ($($t:ty),*) => {$(
        impl Field for $t {
            fn write(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }

            fn read(value: Option<&Value>) -> Result<Self, String> {
                match value {
                    Some(Value::Num(n)) => n
                        .parse()
                        .map_err(|_| format!("{n} is not a {}", stringify!($t))),
                    other => Err(expected("a number", other)),
                }
            }
        }
    )*};
}

unsigned_field!(u8, u32, u64);

impl Field for f64 {
    fn write(&self, out: &mut String) {
        let _ = write!(out, "{}", Num(*self));
    }

    fn read(value: Option<&Value>) -> Result<Self, String> {
        match value {
            Some(Value::Num(n)) => match n.parse::<f64>() {
                Ok(v) if v.is_finite() => Ok(v),
                _ => Err(format!("{n} is out of range for an f64")),
            },
            Some(Value::Null) => Ok(f64::NAN),
            other => Err(expected("a number or null", other)),
        }
    }
}

impl Field for bool {
    fn write(&self, out: &mut String) {
        let _ = write!(out, "{self}");
    }

    fn read(value: Option<&Value>) -> Result<Self, String> {
        match value {
            Some(Value::Bool(b)) => Ok(*b),
            other => Err(expected("a bool", other)),
        }
    }
}

impl Field for String {
    fn write(&self, out: &mut String) {
        let _ = write!(out, "{}", Str(self));
    }

    fn read(value: Option<&Value>) -> Result<Self, String> {
        match value {
            Some(Value::Str(s)) => Ok(s.clone()),
            other => Err(expected("a string", other)),
        }
    }
}

/// `None` is written as `null`; an absent field reads as `None`.
impl Field for Option<String> {
    fn write(&self, out: &mut String) {
        match self {
            Some(s) => s.write(out),
            None => out.push_str("null"),
        }
    }

    fn read(value: Option<&Value>) -> Result<Self, String> {
        match value {
            None | Some(Value::Null) => Ok(None),
            Some(Value::Str(s)) => Ok(Some(s.clone())),
            other => Err(expected("a string or null", other)),
        }
    }
}

fn expected(what: &str, found: Option<&Value>) -> String {
    let found = match found {
        None => return "missing".into(),
        Some(Value::Null) => "null",
        Some(Value::Bool(_)) => "a bool",
        Some(Value::Num(_)) => "a number",
        Some(Value::Str(_)) => "a string",
        Some(Value::Obj(_)) => "an object",
    };
    format!("expected {what}, found {found}")
}

/// Most objects the reader nests, the root included. The workspace's
/// formats nest at most three; the bound keeps hostile input from
/// exhausting the stack.
const MAX_DEPTH: usize = 16;

/// Parses one JSON document whose root is an object. Whitespace may
/// surround it; anything else after it is an error.
pub fn parse_object(text: &str) -> Result<Object, String> {
    let mut r = Reader { text, pos: 0 };
    let obj = r.object(0)?;
    r.skip_ws();
    if r.pos < text.len() {
        return Err(r.unexpected("end of input"));
    }
    Ok(obj)
}

struct Reader<'a> {
    text: &'a str,
    /// Byte offset; always on a `char` boundary.
    pos: usize,
}

impl Reader<'_> {
    fn rest(&self) -> &str {
        self.text.get(self.pos..).unwrap_or_default()
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    /// Consumes `byte` if it is next.
    fn eat(&mut self, byte: u8) -> bool {
        let hit = self.peek() == Some(byte);
        self.pos += usize::from(hit);
        hit
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn unexpected(&self, what: &str) -> String {
        match self.rest().chars().next() {
            Some(c) => format!("expected {what} at byte {}, found {c:?}", self.pos),
            None => format!("expected {what}, found end of input"),
        }
    }

    fn expect(&mut self, want: u8) -> Result<(), String> {
        self.skip_ws();
        if self.eat(want) {
            Ok(())
        } else {
            Err(self.unexpected(&format!("{:?}", want as char)))
        }
    }

    fn object(&mut self, depth: usize) -> Result<Object, String> {
        if depth == MAX_DEPTH {
            return Err(format!("objects nested deeper than {MAX_DEPTH}"));
        }
        self.expect(b'{')?;
        let mut fields = BTreeMap::new();
        self.skip_ws();
        if self.eat(b'}') {
            return Ok(Object(fields));
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            let value = self.value(depth)?;
            match fields.entry(key) {
                Entry::Occupied(e) => return Err(format!("duplicate key {:?}", e.key())),
                Entry::Vacant(e) => e.insert(value),
            };
            self.skip_ws();
            if self.eat(b'}') {
                return Ok(Object(fields));
            }
            if !self.eat(b',') {
                return Err(self.unexpected("',' or '}'"));
            }
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => return Ok(Value::Obj(self.object(depth + 1)?)),
            Some(b'"') => return Ok(Value::Str(self.string()?)),
            Some(b'-' | b'0'..=b'9') => return self.number(),
            _ => {}
        }
        for (word, value) in [
            ("null", Value::Null),
            ("true", Value::Bool(true)),
            ("false", Value::Bool(false)),
        ] {
            if self.rest().starts_with(word) {
                self.pos += word.len();
                return Ok(value);
            }
        }
        Err(self.unexpected("a value"))
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`
    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        self.eat(b'-');
        let int = self.eat(b'0') || self.digits();
        let frac = !self.eat(b'.') || self.digits();
        let exp = !(self.eat(b'e') || self.eat(b'E')) || {
            if !self.eat(b'+') {
                self.eat(b'-');
            }
            self.digits()
        };
        if int && frac && exp {
            Ok(Value::Num(self.text[start..self.pos].to_owned()))
        } else {
            Err(self.unexpected("a digit"))
        }
    }

    /// Consumes a run of digits; false when there is none.
    fn digits(&mut self) -> bool {
        let start = self.pos;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        self.pos > start
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let rest = self.rest();
            let run = rest
                .find(|c: char| c == '"' || c == '\\' || c < ' ')
                .unwrap_or(rest.len());
            out.push_str(&rest[..run]);
            self.pos += run;
            if self.eat(b'"') {
                return Ok(out);
            }
            if !self.eat(b'\\') {
                return Err(self.unexpected("a closing '\"' (control characters must be escaped)"));
            }
            out.push(self.escape()?);
        }
    }

    /// One escape, after its backslash. `\u` pairs of UTF-16 surrogates
    /// join into one character; a lone surrogate is an error.
    fn escape(&mut self) -> Result<char, String> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                self.pos += 1;
                let mut code = self.hex4()?;
                if (0xd800..0xdc00).contains(&code) && self.rest().starts_with("\\u") {
                    self.pos += 2;
                    let low = self.hex4()?;
                    if (0xdc00..0xe000).contains(&low) {
                        code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
                    }
                }
                return char::from_u32(code).ok_or_else(|| format!("lone surrogate \\u{code:04x}"));
            }
            _ => return Err(self.unexpected("an escape")),
        };
        self.pos += 1;
        Ok(c)
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let hex = self
            .rest()
            .get(..4)
            .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
            .ok_or_else(|| self.unexpected("four hex digits"))?;
        let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
        self.pos += 4;
        Ok(code)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn field<T: Field>(json: &str) -> Result<T, String> {
        parse_object(&format!("{{\"k\":{json}}}"))?.get("k")
    }

    #[test]
    fn writer_escapes_and_formats() {
        assert_eq!(
            Str("a\"b\\c\n\r\t\u{1}\u{7f}é😀").to_string(),
            "\"a\\\"b\\\\c\\n\\r\\t\\u0001\u{7f}é😀\""
        );
        assert_eq!(Num(1.0).to_string(), "1");
        assert_eq!(Num(0.1 + 0.2).to_string(), "0.30000000000000004");
        assert_eq!(Num(-0.0).to_string(), "-0");
        assert_eq!(Num(f64::NAN).to_string(), "null");
        assert_eq!(Num(f64::NEG_INFINITY).to_string(), "null");
        let mut out = String::new();
        None::<String>.write(&mut out);
        Some("x".to_string()).write(&mut out);
        true.write(&mut out);
        u64::MAX.write(&mut out);
        assert_eq!(out, "null\"x\"true18446744073709551615");
    }

    #[test]
    fn reader_handles_nesting_literals_and_escapes() {
        let obj = parse_object(
            " {\"a\": {\"b\": true}, \"n\": null, \"s\": \"\\u00e9\\ud83d\\ude00\\/\\b\\f\", \"x\": -1.5e+3}\n",
        )
        .expect("valid");
        assert!(obj
            .object("a")
            .expect("nested")
            .get::<bool>("b")
            .expect("bool"));
        assert_eq!(obj.get::<Option<String>>("n"), Ok(None));
        assert_eq!(obj.get::<Option<String>>("absent"), Ok(None));
        assert_eq!(obj.get::<String>("s").as_deref(), Ok("é😀/\u{8}\u{c}"));
        assert_eq!(obj.get::<f64>("x"), Ok(-1500.0));
        assert!(obj.get::<f64>("n").expect("null reads").is_nan());
        assert_eq!(obj.keys().collect::<Vec<_>>(), ["a", "n", "s", "x"]);
        assert_eq!(parse_object("{}"), Ok(Object::default()));
    }

    #[test]
    fn reader_rejects_malformed_documents() {
        for bad in [
            "",
            "[1]",
            "{\"a\":1} x",
            "{\"a\":1}{}",
            "{\"a\":1,}",
            "{\"a\" 1}",
            "{a:1}",
            "{\"a\":01}",
            "{\"a\":1.}",
            "{\"a\":.5}",
            "{\"a\":+1}",
            "{\"a\":1e}",
            "{\"a\":-}",
            "{\"a\":NaN}",
            "{\"a\":[1]}",
            "{\"a\":nul}",
            "{\"a\":\"\\x\"}",
            "{\"a\":\"\\u12\"}",
            "{\"a\":\"\\ud800\"}",
            "{\"a\":\"\\udc00\"}",
            "{\"a\":\"\\ud800\\u0041\"}",
            "{\"a\":\"raw\ncontrol\"}",
            "{\"a\":\"unterminated}",
        ] {
            assert!(parse_object(bad).is_err(), "accepted {bad:?}");
        }
        let nested = |n: usize| "{\"a\":".repeat(n - 1) + "{}" + &"}".repeat(n - 1);
        assert!(parse_object(&nested(MAX_DEPTH)).is_ok());
        assert!(parse_object(&nested(MAX_DEPTH + 1)).is_err());
    }

    #[test]
    fn duplicate_keys_are_rejected_at_any_depth() {
        let err = parse_object("{\"at\":1,\"at\":2}").expect_err("duplicate");
        assert!(err.contains("duplicate key \"at\""), "{err}");
        assert!(parse_object("{\"m\":{\"v\":1,\"v\":1}}").is_err());
    }

    #[test]
    fn typed_reads_reject_values_outside_the_type() {
        assert_eq!(field::<u8>("255"), Ok(255));
        assert_eq!(field::<u32>("4294967295"), Ok(u32::MAX));
        assert_eq!(field::<u64>("18446744073709551615"), Ok(u64::MAX));
        for (json, ty) in [
            ("300", "u8"),
            ("4294967296", "u32"),
            ("18446744073709551616", "u64"),
            ("-1", "u64"),
            ("1.5", "u64"),
            ("1e3", "u64"),
        ] {
            let err = match ty {
                "u8" => field::<u8>(json).map(u64::from),
                "u32" => field::<u32>(json).map(u64::from),
                _ => field::<u64>(json),
            }
            .expect_err(json);
            assert!(err.starts_with("field \"k\":"), "{err}");
            assert!(err.contains(&format!("is not a {ty}")), "{err}");
        }
        assert!(field::<f64>("1e999").is_err());
        assert!(field::<u64>("\"7\"").is_err());
        assert!(field::<bool>("1").is_err());
        assert!(field::<String>("null").is_err());
        assert_eq!(
            parse_object("{}").and_then(|o| o.get::<u64>("at")),
            Err("field \"at\": missing".into())
        );
    }
}
