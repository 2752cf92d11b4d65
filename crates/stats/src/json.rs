//! The one JSON module behind every harness document: a value type
//! ([`Json`]), one writer (its [`Display`](fmt::Display)) and one reader
//! ([`parse`]).
//!
//! The build is offline — no serde. Every document (`BENCH_speed.json`,
//! the sampled and fast-forward grids, metrics, `cistats`/`cfgstats`
//! reports, Chrome traces) is built as a [`Json`] value and nested as a
//! value, so number formatting, string escaping and layout live here
//! alone:
//!
//! * integers ([`Json::Int`]) print exactly; floats ([`Json::Num`]) print
//!   with six decimals, and a non-finite float prints `0.0`;
//! * strings are escaped, and the reader accepts every escape the writer
//!   emits;
//! * object members keep their insertion order;
//! * layout: the members of the top-level container and the elements of
//!   arrays directly under it sit one per line (so grids and Chrome traces
//!   read one row per line); anything deeper is compact.
//!
//! The reader reports errors with byte positions instead of panicking:
//! `tp simprof --diff` runs on user-supplied paths.

use std::fmt::{self, Write as _};

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer, printed exactly.
    Int(u64),
    /// A float, printed with six decimals (`0.0` when non-finite).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, members in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` members, in order.
    pub fn obj<'a>(members: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        Json::Obj(members.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Object member lookup; `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_object()?.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The object members; `None` on non-objects.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(m) => Some(m),
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

    /// The boolean value; `None` on non-booleans.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The numeric value (integers widen to `f64`); `None` on non-numbers.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(n) => Some(*n as f64),
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric value as a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        match self {
            Json::Int(n) => Some(*n),
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

    fn write(&self, f: &mut fmt::Formatter<'_>, depth: usize) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(n) => write!(f, "{n}"),
            Json::Num(x) if x.is_finite() => write!(f, "{x:.6}"),
            Json::Num(_) => f.write_str("0.0"),
            Json::Str(s) => write_str(f, s),
            // The one layout rule: the top-level container and the arrays
            // directly under it break one child per line; deeper is compact.
            Json::Arr(v) => {
                write_list(f, ['[', ']'], v, depth, depth <= 1, |f, x| x.write(f, depth + 1))
            }
            Json::Obj(m) => write_list(f, ['{', '}'], m, depth, depth == 0, |f, (k, x)| {
                write_str(f, k)?;
                f.write_str(": ")?;
                x.write(f, depth + 1)
            }),
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f, 0)
    }
}

/// Writes `items` between `brackets`: one per line, indented, when
/// `broken`; `, `-separated on one line otherwise.
fn write_list<T>(
    f: &mut fmt::Formatter<'_>,
    brackets: [char; 2],
    items: &[T],
    depth: usize,
    broken: bool,
    mut item: impl FnMut(&mut fmt::Formatter<'_>, &T) -> fmt::Result,
) -> fmt::Result {
    f.write_char(brackets[0])?;
    let broken = broken && !items.is_empty();
    for (i, x) in items.iter().enumerate() {
        if i > 0 {
            f.write_str(if broken { "," } else { ", " })?;
        }
        if broken {
            write!(f, "\n{:1$}", "", 2 * depth + 2)?;
        }
        item(f, x)?;
    }
    if broken {
        write!(f, "\n{:1$}", "", 2 * depth)?;
    }
    f.write_char(brackets[1])
}

fn write_str(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\t' => f.write_str("\\t")?,
            '\r' => f.write_str("\\r")?,
            c if u32::from(c) < 0x20 => write!(f, "\\u{:04x}", u32::from(c))?,
            c => f.write_char(c)?,
        }
    }
    f.write_char('"')
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

macro_rules! from_unsigned {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(n: $t) -> Json {
                Json::Int(n as u64)
            }
        }
    )*};
}

from_unsigned!(u8, u32, u64, usize);

impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::Num(x)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

/// Parses a complete JSON document.
///
/// Numbers made of digits alone that fit a `u64` read as
/// [`Json::Int`]; every other number reads as [`Json::Num`].
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

    /// The elements of a `open ... close` list, each read by `item`.
    fn list<T>(
        &mut self,
        open: u8,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.expect(open)?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek()? == close {
            self.pos += 1;
            return Ok(out);
        }
        loop {
            out.push(item(self)?);
            self.skip_ws();
            match self.peek()? {
                b',' => self.pos += 1,
                c if c == close => {
                    self.pos += 1;
                    return Ok(out);
                }
                c => {
                    return Err(format!(
                        "expected ',' or {:?}, got {:?} at byte {}",
                        close as char, c as char, self.pos
                    ))
                }
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.list(b'{', b'}', |p| {
            p.skip_ws();
            let key = p.string()?;
            p.skip_ws();
            p.expect(b':')?;
            Ok((key, p.value()?))
        })
        .map(Json::Obj)
    }

    fn array(&mut self) -> Result<Json, String> {
        self.list(b'[', b']', Self::value).map(Json::Arr)
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
                        b'r' => '\r',
                        b'u' => {
                            let at = self.pos - 2;
                            let hex = self.bytes.get(self.pos..self.pos + 4);
                            self.pos += 4;
                            hex.and_then(|h| {
                                u32::from_str_radix(std::str::from_utf8(h).ok()?, 16).ok()
                            })
                            .and_then(char::from_u32)
                            .ok_or_else(|| format!("bad \\u escape at byte {at}"))?
                        }
                        other => {
                            return Err(format!(
                                "unsupported escape \\{} at byte {}",
                                other as char, self.pos
                            ))
                        }
                    });
                }
                _ => {
                    // Consume one UTF-8 scalar (don't split a multi-byte
                    // sequence).
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
        if text.bytes().all(|b| b.is_ascii_digit()) {
            if let Ok(n) = text.parse() {
                return Ok(Json::Int(n));
            }
        }
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
        assert_eq!(cells[0].get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(cells[0].num("missing"), None);
        assert_eq!(parse(&v.to_string()), Ok(v));
    }

    #[test]
    fn reports_positions_on_malformed_input() {
        assert!(parse("{").unwrap_err().contains("eof"));
        assert!(parse("[1 2]").unwrap_err().contains("byte 3"));
        assert!(parse("{}x").unwrap_err().contains("trailing"));
        assert!(parse(r#""\u00""#).unwrap_err().contains("\\u"));
    }

    #[test]
    fn strings_round_trip_through_every_escape() {
        let nasty = "quote \" backslash \\ newline \n tab \t cr \r bell \u{7} é";
        let v = Json::obj([(nasty, Json::from(nasty)), ("plain", Json::from("x"))]);
        let text = v.to_string();
        assert!(!text.contains('\t') && !text.contains('\u{7}'), "{text}");
        let back = parse(&text).expect("the writer's output parses");
        assert_eq!(back.str(nasty), Some(nasty));
        assert_eq!(back, v);
    }

    #[test]
    fn integers_are_exact_and_floats_have_six_decimals() {
        let v = Json::obj([
            ("max", u64::MAX.into()),
            ("ipc", 1.5.into()),
            ("third", (1.0 / 3.0).into()),
            ("nan", f64::NAN.into()),
            ("inf", f64::INFINITY.into()),
        ]);
        let text = v.to_string();
        assert!(text.contains("\"max\": 18446744073709551615"), "{text}");
        assert!(text.contains("\"ipc\": 1.500000"), "{text}");
        assert!(text.contains("\"third\": 0.333333"), "{text}");
        assert!(text.contains("\"nan\": 0.0") && text.contains("\"inf\": 0.0"), "{text}");
        let back = parse(&text).unwrap();
        assert_eq!(back.get("max"), Some(&Json::Int(u64::MAX)));
        assert_eq!(back.get("max").and_then(Json::as_u64), Some(u64::MAX));
        assert_eq!(back.num("ipc"), Some(1.5));
        // Signed, fractional and out-of-range numbers read as floats.
        assert_eq!(parse("-3").unwrap(), Json::Num(-3.0));
        assert_eq!(parse("2.0").unwrap().as_u64(), Some(2));
        assert_eq!(parse("18446744073709551616").unwrap(), Json::Num(2f64.powi(64)));
    }

    #[test]
    fn members_keep_their_order() {
        let v = Json::obj([("z", 1u64.into()), ("a", 2u64.into()), ("m", 3u64.into())]);
        let keys = |j: &Json| -> Vec<String> {
            j.as_object().unwrap().iter().map(|(k, _)| k.clone()).collect()
        };
        assert_eq!(keys(&v), ["z", "a", "m"]);
        assert_eq!(keys(&parse(&v.to_string()).unwrap()), ["z", "a", "m"]);
    }

    #[test]
    fn layout_breaks_only_the_top_two_levels() {
        let row = |n: u64| Json::obj([("n", n.into()), ("v", Json::Arr(vec![n.into()]))]);
        let v = Json::obj([
            ("schema", "x/v1".into()),
            ("inner", Json::obj([("a", 1u64.into())])),
            ("rows", Json::Arr(vec![row(1), row(2)])),
            ("empty", Json::Arr(vec![])),
        ]);
        assert_eq!(
            v.to_string(),
            "{\n  \"schema\": \"x/v1\",\n  \"inner\": {\"a\": 1},\n  \"rows\": [\n    \
             {\"n\": 1, \"v\": [1]},\n    {\"n\": 2, \"v\": [2]}\n  ],\n  \"empty\": []\n}"
        );
        assert_eq!(Json::Arr(vec![1u64.into()]).to_string(), "[\n  1\n]");
        assert_eq!(Json::obj([]).to_string(), "{}");
    }

    #[test]
    fn parses_the_checked_in_speed_baseline() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_speed.json");
        let text = std::fs::read_to_string(path).expect("BENCH_speed.json is checked in");
        let doc = parse(&text).expect("BENCH_speed.json parses");
        assert_eq!(doc.str("schema"), Some("tp-bench/speed/v2"));
        assert_eq!(doc.get("sampled").and_then(|s| s.str("schema")), Some("tp-bench/ffwd/v1"));
        let cells = doc.get("cells").and_then(Json::as_array).expect("cells array");
        assert!(!cells.is_empty());
        for c in cells {
            assert!(c.str("workload").is_some() && c.str("model").is_some(), "{c:?}");
            assert!(c.get("instrs").and_then(Json::as_u64).is_some_and(|n| n > 0), "{c:?}");
            assert!(c.get("attribution").and_then(Json::as_array).is_some(), "{c:?}");
        }
        let total: u64 = cells.iter().filter_map(|c| c.get("instrs")?.as_u64()).sum();
        assert_eq!(doc.get("retired_instrs_total").and_then(Json::as_u64), Some(total));
    }
}
