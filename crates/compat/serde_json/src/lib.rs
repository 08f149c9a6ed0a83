//! Offline stand-in for `serde_json`.
//!
//! Serializes the stub serde's [`Value`] tree to JSON text and parses JSON
//! text back, covering [`to_string`], [`to_string_pretty`], [`from_str`],
//! the [`json!`] macro and the [`Value`]/[`Number`]/[`Map`] types.
//!
//! Floats are printed with Rust's shortest round-trippable formatting, so
//! encode/decode of any finite `f64` is loss-free.

pub use serde::{Map, Number, Value};

#[doc(hidden)]
pub mod __private {
    pub use serde::Serialize;
}

/// Error produced by [`to_string`] / [`from_str`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    msg: String,
}

impl Error {
    fn new(msg: impl Into<String>) -> Error {
        Error { msg: msg.into() }
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for Error {}

impl From<serde::DeError> for Error {
    fn from(e: serde::DeError) -> Error {
        Error::new(e.to_string())
    }
}

/// Serializes a value to compact JSON text.
pub fn to_string<T: serde::Serialize>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    serde::value::write_json(&mut out, &value.to_value(), None, 0);
    Ok(out)
}

/// Serializes a value to two-space-indented JSON text.
pub fn to_string_pretty<T: serde::Serialize>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    serde::value::write_json(&mut out, &value.to_value(), Some(2), 0);
    Ok(out)
}

/// Parses JSON text into any deserializable type.
pub fn from_str<T: serde::Deserialize>(s: &str) -> Result<T, Error> {
    let value = parse_value(s)?;
    Ok(T::from_value(&value)?)
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

fn parse_value(s: &str) -> Result<Value, Error> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::new(format!(
            "trailing characters at offset {}",
            p.pos
        )));
    }
    Ok(v)
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::new(format!(
                "expected '{}' at offset {}",
                b as char, self.pos
            )))
        }
    }

    fn eat_literal(&mut self, lit: &str, v: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(Error::new(format!(
                "invalid literal at offset {}",
                self.pos
            )))
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.eat_literal("null", Value::Null),
            Some(b't') => self.eat_literal("true", Value::Bool(true)),
            Some(b'f') => self.eat_literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            other => Err(Error::new(format!(
                "unexpected {:?} at offset {}",
                other.map(|b| b as char),
                self.pos
            ))),
        }
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(Error::new(format!("bad array at offset {}", self.pos))),
            }
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut m = Map::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(m));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let v = self.value()?;
            m.insert(key, v);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(m));
                }
                _ => return Err(Error::new(format!("bad object at offset {}", self.pos))),
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path over unescaped runs (valid UTF-8 by construction).
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| Error::new("invalid utf-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| Error::new("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{08}'),
                        b'f' => out.push('\u{0c}'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let c = if (0xd800..0xdc00).contains(&hi) {
                                // Surrogate pair.
                                self.expect(b'\\')?;
                                self.expect(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xdc00..0xe000).contains(&lo) {
                                    return Err(Error::new("invalid low surrogate"));
                                }
                                let code = 0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00);
                                char::from_u32(code)
                            } else {
                                char::from_u32(hi)
                            };
                            out.push(c.ok_or_else(|| Error::new("invalid \\u escape"))?);
                        }
                        other => {
                            return Err(Error::new(format!("invalid escape '\\{}'", other as char)))
                        }
                    }
                }
                _ => return Err(Error::new("unterminated string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let mut v = 0u32;
        for _ in 0..4 {
            let b = self.peek().ok_or_else(|| Error::new("short \\u escape"))?;
            let d = (b as char)
                .to_digit(16)
                .ok_or_else(|| Error::new("bad hex digit"))?;
            v = (v << 4) | d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::new("invalid number"))?;
        let n = if is_float {
            let f: f64 = text
                .parse()
                .map_err(|_| Error::new(format!("invalid number '{text}'")))?;
            Number::from_f64(f).ok_or_else(|| Error::new("non-finite number"))?
        } else if text.starts_with('-') {
            let v: i64 = text
                .parse()
                .map_err(|_| Error::new(format!("invalid number '{text}'")))?;
            Number::from_i64(v)
        } else {
            let v: u64 = text
                .parse()
                .map_err(|_| Error::new(format!("invalid number '{text}'")))?;
            Number::from_u64(v)
        };
        Ok(Value::Number(n))
    }
}

/// Builds a [`Value`] from a JSON-ish literal. Supports `null`, object and
/// array literals whose values are Rust expressions, and bare expressions.
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ({ $($key:tt : $val:expr),* $(,)? }) => {{
        #[allow(unused_mut, reason = "an empty object literal `json!({})` inserts nothing")]
        let mut __m = $crate::Map::new();
        $( __m.insert(($key).to_string(), $crate::__private::Serialize::to_value(&$val)); )*
        $crate::Value::Object(__m)
    }};
    ([ $($val:expr),* $(,)? ]) => {
        $crate::Value::Array(vec![ $($crate::__private::Serialize::to_value(&$val)),* ])
    };
    ($e:expr) => { $crate::__private::Serialize::to_value(&$e) };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_roundtrip() {
        let v = json!({
            "a": 1u64,
            "b": [1u64, 2u64, 3u64],
            "c": "hi\n\"quoted\"",
            "d": -5i64,
            "e": 1.5f64,
            "f": json!(null),
        });
        let text = to_string(&v).unwrap();
        let back: Value = from_str(&text).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn parses_whitespace_and_nesting() {
        let v: Value = from_str(" { \"x\" : [ 1 , { \"y\" : null } , true ] } ").unwrap();
        let m = v.as_object().unwrap();
        let arr = m.get("x").unwrap().as_array().unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[2], Value::Bool(true));
    }

    #[test]
    fn floats_roundtrip_exactly() {
        for f in [0.1, 1e300, -2.5e-10, 3.0, f64::MIN_POSITIVE] {
            let text = to_string(&f).unwrap();
            let back: f64 = from_str(&text).unwrap();
            assert_eq!(f, back, "{text}");
        }
    }

    #[test]
    fn unicode_escapes() {
        let s: String = from_str(r#""é😀""#).unwrap();
        assert_eq!(s, "é😀");
    }

    #[test]
    fn rejects_garbage() {
        assert!(from_str::<Value>("{").is_err());
        assert!(from_str::<Value>("[1,]").is_err());
        assert!(from_str::<Value>("1 2").is_err());
        assert!(from_str::<Value>("nul").is_err());
    }
}
