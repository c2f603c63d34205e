//! Offline stand-in for `serde_json`.
//!
//! Provides the subset of the real crate's API the workspace uses:
//! [`to_string`], [`from_str`], the [`Value`] tree (re-exported from the
//! sibling `serde` stand-in) and an [`Error`] type. The parser is a
//! complete JSON reader (strings with escapes, exact integers up to
//! 128 bits, floats, containers nested up to 128 deep like the real
//! crate's default limit); the writer lives on `Value`'s `Display` impl.

pub use serde::{Number, Value};

/// Deepest nesting of arrays and objects the parser accepts: the real
/// crate's default. The parser recurses once per level, so without a
/// cap one line of brackets overflows the stack of the thread parsing
/// it.
const RECURSION_LIMIT: usize = 128;

/// JSON (de)serialization error.
#[derive(Debug, Clone)]
pub struct Error {
    msg: String,
}

impl Error {
    fn new(msg: impl Into<String>) -> Self {
        Error { msg: msg.into() }
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON error: {}", self.msg)
    }
}

impl std::error::Error for Error {}

impl From<serde::Error> for Error {
    fn from(e: serde::Error) -> Self {
        Error::new(e.to_string())
    }
}

/// Serializes a value to compact JSON text.
///
/// # Errors
///
/// Never fails for the workspace's types; the `Result` mirrors the real
/// serde_json signature.
pub fn to_string<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(value.to_value().to_string())
}

/// Parses a value from JSON text, running the type's validation.
///
/// # Errors
///
/// Returns [`Error`] on malformed JSON or failed validation.
pub fn from_str<T: serde::Deserialize>(text: &str) -> Result<T, Error> {
    let value = parse_value(text)?;
    Ok(T::from_value(&value)?)
}

fn parse_value(text: &str) -> Result<Value, Error> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::new(format!("trailing characters at byte {}", p.pos)));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
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
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') if self.eat_keyword("null") => Ok(Value::Null),
            Some(b't') if self.eat_keyword("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_keyword("false") => Ok(Value::Bool(false)),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(Error::new(format!(
                "unexpected {:?} at byte {}",
                other.map(|b| b as char),
                self.pos
            ))),
        }
    }

    /// Parses one array or object a level deeper, failing past
    /// [`RECURSION_LIMIT`] levels.
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value, Error>) -> Result<Value, Error> {
        if self.depth == RECURSION_LIMIT {
            return Err(Error::new(format!(
                "recursion limit exceeded at byte {}",
                self.pos
            )));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
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
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => {
                    return Err(Error::new(format!(
                        "expected `,` or `]` at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(entries));
                }
                _ => {
                    return Err(Error::new(format!(
                        "expected `,` or `}}` at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(Error::new("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let cp = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                // High surrogate: require a paired \uXXXX.
                                if !(self.eat_keyword("\\u")) {
                                    return Err(Error::new("unpaired surrogate"));
                                }
                                let lo = self.hex4()?;
                                let combined =
                                    0x10000 + ((cp - 0xD800) << 10) + (lo.wrapping_sub(0xDC00));
                                char::from_u32(combined)
                                    .ok_or_else(|| Error::new("invalid surrogate pair"))?
                            } else {
                                char::from_u32(cp)
                                    .ok_or_else(|| Error::new("invalid unicode escape"))?
                            };
                            out.push(c);
                            continue; // hex4 advanced past the digits
                        }
                        _ => return Err(Error::new("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 character.
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest)
                        .map_err(|_| Error::new("invalid UTF-8 in string"))?;
                    let c = s.chars().next().expect("non-empty by peek");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let end = self.pos + 4;
        let digits = self
            .bytes
            .get(self.pos..end)
            .ok_or_else(|| Error::new("truncated unicode escape"))?;
        let s = std::str::from_utf8(digits).map_err(|_| Error::new("bad unicode escape"))?;
        let cp = u32::from_str_radix(s, 16).map_err(|_| Error::new("bad unicode escape"))?;
        self.pos = end;
        Ok(cp)
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::new("bad number"))?;
        if !is_float {
            if let Some(rest) = text.strip_prefix('-') {
                if let Ok(mag) = rest.parse::<u128>() {
                    if let Ok(n) = i128::try_from(mag) {
                        return Ok(Value::Number(Number::I(-n)));
                    }
                }
            } else if let Ok(n) = text.parse::<u128>() {
                return Ok(Value::Number(Number::U(n)));
            }
        }
        text.parse::<f64>()
            .map(|f| Value::Number(Number::F(f)))
            .map_err(|_| Error::new(format!("invalid number `{text}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        for text in ["null", "true", "false", "0", "-7", "3.5", "\"hi\""] {
            let v = parse_value(text).unwrap();
            assert_eq!(v.to_string(), text);
        }
    }

    #[test]
    fn roundtrip_nested() {
        let text = r#"{"a":[1,2,{"b":null}],"c":"x\"y"}"#;
        let v = parse_value(text).unwrap();
        assert_eq!(v.to_string(), text);
    }

    #[test]
    fn large_integers_are_exact() {
        let v = parse_value("18446744073709551615").unwrap();
        assert_eq!(v.as_u128(), Some(u64::MAX as u128));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_value("{not json").is_err());
        assert!(parse_value("[1,]").is_err());
        assert!(parse_value("").is_err());
        assert!(parse_value("1 2").is_err());
    }

    /// `depth` nested arrays (`[[]]`) or objects (`{"a":{"a":null}}`).
    fn nesting(depth: usize, object: bool) -> String {
        let (open, inner, close) = if object {
            ("{\"a\":", "null", "}")
        } else {
            ("[", "", "]")
        };
        format!("{}{inner}{}", open.repeat(depth), close.repeat(depth))
    }

    #[test]
    fn nesting_is_capped_at_the_recursion_limit() {
        for object in [false, true] {
            assert!(
                parse_value(&nesting(128, object)).is_ok(),
                "object {object}"
            );
            let err = parse_value(&nesting(129, object)).unwrap_err();
            assert!(err.to_string().contains("recursion limit"), "{err}");
        }
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        // 2 MiB, the default stack of a spawned thread (a server
        // connection's), which the uncapped parser overflowed.
        let errors = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| [false, true].map(|object| parse_value(&nesting(1_000_000, object)).is_err()))
            .unwrap()
            .join()
            .unwrap();
        assert_eq!(errors, [true, true]);
    }

    #[test]
    fn typed_roundtrip() {
        let v: Vec<u16> = from_str("[1,2,3]").unwrap();
        assert_eq!(v, vec![1, 2, 3]);
        assert_eq!(to_string(&v).unwrap(), "[1,2,3]");
        let opt: Option<u128> = from_str("null").unwrap();
        assert_eq!(opt, None);
    }
}
