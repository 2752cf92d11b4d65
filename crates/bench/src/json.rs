//! A minimal hand-rolled JSON reader for the harness's own documents
//! (`tp-bench/speed/v2`, `tp-bench/metrics/v1`).
//!
//! The build is offline — no serde — and the only JSON this crate ever
//! reads is JSON it wrote itself, so the reader supports exactly that
//! subset (no unicode escapes, no exotic numbers) and reports errors with
//! byte positions instead of panicking: `tp simprof --diff` runs on
//! user-supplied paths.

use std::collections::HashMap;

/// A parsed JSON value.
#[derive(Debug)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (as `f64`, which covers every value we emit).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object.
    Obj(HashMap<String, Json>),
}

impl Json {
    /// Object member lookup; `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The array elements; `None` on non-arrays.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The string value; `None` on non-strings.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value; `None` on non-numbers.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric value as a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// Member `key` as a number; `None` when absent or mistyped.
    pub fn num(&self, key: &str) -> Option<f64> {
        self.get(key).and_then(Json::as_f64)
    }

    /// Member `key` as a string; `None` when absent or mistyped.
    pub fn str(&self, key: &str) -> Option<&str> {
        self.get(key).and_then(Json::as_str)
    }
}

/// Parses a complete JSON document.
///
/// # Errors
///
/// Returns a message with the byte position on malformed input.
pub fn parse(input: &str) -> Result<Json, String> {
    let mut p = Parser { bytes: input.as_bytes(), pos: 0 };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.bytes.get(self.pos).is_some_and(u8::is_ascii_whitespace) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Result<u8, String> {
        self.bytes.get(self.pos).copied().ok_or_else(|| format!("eof at byte {}", self.pos))
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        let got = self.peek()?;
        if got != b {
            return Err(format!(
                "expected {:?} at byte {}, got {:?}",
                b as char, self.pos, got as char
            ));
        }
        self.pos += 1;
        Ok(())
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek()? {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Ok(Json::Str(self.string()?)),
            b't' => self.literal("true", Json::Bool(true)),
            b'f' => self.literal("false", Json::Bool(false)),
            b'n' => self.literal("null", Json::Null),
            _ => self.number(),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        let end = self.pos + word.len();
        if self.bytes.get(self.pos..end) != Some(word.as_bytes()) {
            return Err(format!("bad literal at byte {}", self.pos));
        }
        self.pos = end;
        Ok(v)
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut m = HashMap::new();
        self.skip_ws();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Json::Obj(m));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            m.insert(key, self.value()?);
            self.skip_ws();
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Json::Obj(m));
                }
                c => {
                    return Err(format!(
                        "expected ',' or '}}', got {:?} at byte {}",
                        c as char, self.pos
                    ))
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut v = Vec::new();
        self.skip_ws();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Json::Arr(v));
        }
        loop {
            v.push(self.value()?);
            self.skip_ws();
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(Json::Arr(v));
                }
                c => {
                    return Err(format!(
                        "expected ',' or ']', got {:?} at byte {}",
                        c as char, self.pos
                    ))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek()? {
                b'"' => {
                    self.pos += 1;
                    return Ok(s);
                }
                b'\\' => {
                    self.pos += 1;
                    let c = self.peek()?;
                    self.pos += 1;
                    s.push(match c {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'n' => '\n',
                        b't' => '\t',
                        other => {
                            return Err(format!(
                                "unsupported escape \\{} at byte {}",
                                other as char, self.pos
                            ))
                        }
                    });
                }
                _ => {
                    // Consume one UTF-8 scalar (our own documents are
                    // ASCII, but don't split a multi-byte sequence).
                    let rest = &self.bytes[self.pos..];
                    let text = std::str::from_utf8(rest).map_err(|e| format!("bad utf-8: {e}"))?;
                    let Some(c) = text.chars().next() else {
                        return Err("eof in string".into());
                    };
                    s.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii digits");
        text.parse().map(Json::Num).map_err(|e| format!("bad number {text:?} at byte {start}: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_own_documents() {
        let doc =
            r#"{"schema": "tp-bench/speed/v2", "cells": [{"ipc": 1.5, "ok": true, "x": null}]}"#;
        let v = parse(doc).expect("parses");
        assert_eq!(v.str("schema"), Some("tp-bench/speed/v2"));
        let cells = v.get("cells").and_then(Json::as_array).expect("array");
        assert_eq!(cells[0].num("ipc"), Some(1.5));
        assert_eq!(cells[0].num("missing"), None);
    }

    #[test]
    fn reports_positions_on_malformed_input() {
        assert!(parse("{").unwrap_err().contains("eof"));
        assert!(parse("[1 2]").unwrap_err().contains("byte 3"));
        assert!(parse("{}x").unwrap_err().contains("trailing"));
    }
}
