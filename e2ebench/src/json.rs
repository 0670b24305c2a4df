//! Just enough JSON: writing the result line, and reading
//! `BENCHMARK.json` back in the tests.

use std::collections::BTreeMap;
use std::fmt::Write;

pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite number with every digit Rust's shortest round-trip format
/// gives it.
pub fn number(v: f64) -> String {
    assert!(v.is_finite(), "non-finite metric value");
    format!("{v}")
}

#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(BTreeMap<String, Value>),
}

impl Value {
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> &[Value] {
        match self {
            Value::Arr(a) => a,
            _ => &[],
        }
    }
}

pub fn parse(s: &str) -> Result<Value, String> {
    let b = s.as_bytes();
    let mut i = 0;
    let v = value(b, &mut i)?;
    ws(b, &mut i);
    if i != b.len() {
        return Err(format!("trailing bytes at {i}"));
    }
    Ok(v)
}

fn ws(b: &[u8], i: &mut usize) {
    while *i < b.len() && b[*i].is_ascii_whitespace() {
        *i += 1;
    }
}

fn expect(b: &[u8], i: &mut usize, c: u8) -> Result<(), String> {
    ws(b, i);
    if b.get(*i) != Some(&c) {
        return Err(format!("expected '{}' at {i}", c as char));
    }
    *i += 1;
    Ok(())
}

fn value(b: &[u8], i: &mut usize) -> Result<Value, String> {
    ws(b, i);
    match b.get(*i) {
        Some(b'{') => {
            *i += 1;
            let mut m = BTreeMap::new();
            ws(b, i);
            if b.get(*i) == Some(&b'}') {
                *i += 1;
                return Ok(Value::Obj(m));
            }
            loop {
                ws(b, i);
                let Value::Str(k) = value(b, i)? else {
                    return Err("object key".into());
                };
                expect(b, i, b':')?;
                m.insert(k, value(b, i)?);
                ws(b, i);
                match b.get(*i) {
                    Some(b',') => *i += 1,
                    Some(b'}') => {
                        *i += 1;
                        return Ok(Value::Obj(m));
                    }
                    _ => return Err(format!("object at {i}")),
                }
            }
        }
        Some(b'[') => {
            *i += 1;
            let mut a = Vec::new();
            ws(b, i);
            if b.get(*i) == Some(&b']') {
                *i += 1;
                return Ok(Value::Arr(a));
            }
            loop {
                a.push(value(b, i)?);
                ws(b, i);
                match b.get(*i) {
                    Some(b',') => *i += 1,
                    Some(b']') => {
                        *i += 1;
                        return Ok(Value::Arr(a));
                    }
                    _ => return Err(format!("array at {i}")),
                }
            }
        }
        Some(b'"') => {
            *i += 1;
            let mut s = String::new();
            loop {
                match b.get(*i) {
                    Some(b'"') => {
                        *i += 1;
                        return Ok(Value::Str(s));
                    }
                    Some(b'\\') => {
                        let c = *b.get(*i + 1).ok_or("escape")?;
                        s.push(match c {
                            b'n' => '\n',
                            b't' => '\t',
                            c => c as char,
                        });
                        *i += 2;
                    }
                    Some(_) => {
                        let rest = std::str::from_utf8(&b[*i..]).map_err(|e| e.to_string())?;
                        let c = rest.chars().next().ok_or("string")?;
                        s.push(c);
                        *i += c.len_utf8();
                    }
                    None => return Err("unterminated string".into()),
                }
            }
        }
        Some(b't') if b[*i..].starts_with(b"true") => {
            *i += 4;
            Ok(Value::Bool(true))
        }
        Some(b'f') if b[*i..].starts_with(b"false") => {
            *i += 5;
            Ok(Value::Bool(false))
        }
        Some(b'n') if b[*i..].starts_with(b"null") => {
            *i += 4;
            Ok(Value::Null)
        }
        Some(_) => {
            let start = *i;
            while *i < b.len() && (b[*i].is_ascii_digit() || b"+-.eE".contains(&b[*i])) {
                *i += 1;
            }
            std::str::from_utf8(&b[start..*i])
                .ok()
                .and_then(|t| t.parse().ok())
                .map(Value::Num)
                .ok_or_else(|| format!("bad value at {start}"))
        }
        None => Err("unexpected end".into()),
    }
}
