//! A small JSON reader for the benchmark's own files (`BENCHMARK.json`
//! and the run reports `--compare` takes); numbers are `f64`.

use std::collections::BTreeMap;

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

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    #[cfg(test)]
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_obj(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Obj(m) => Some(m),
            _ => None,
        }
    }
}

pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        s: text.as_bytes(),
        at: 0,
    };
    let v = p.value(0)?;
    p.ws();
    if p.at != p.s.len() {
        return Err(format!("trailing bytes at {}", p.at));
    }
    Ok(v)
}

struct Parser<'a> {
    s: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.s.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> Result<(), String> {
        if self.s[self.at..].starts_with(lit.as_bytes()) {
            self.at += lit.len();
            Ok(())
        } else {
            Err(format!("expected `{lit}` at byte {}", self.at))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, String> {
        if depth > 32 {
            return Err("nesting too deep".into());
        }
        self.ws();
        match self.s.get(self.at) {
            None => Err("unexpected end".into()),
            Some(b'n') => self.eat("null").map(|()| Value::Null),
            Some(b't') => self.eat("true").map(|()| Value::Bool(true)),
            Some(b'f') => self.eat("false").map(|()| Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => {
                self.at += 1;
                let mut items = Vec::new();
                loop {
                    self.ws();
                    if self.s.get(self.at) == Some(&b']') {
                        self.at += 1;
                        return Ok(Value::Arr(items));
                    }
                    if !items.is_empty() {
                        self.eat(",")?;
                    }
                    items.push(self.value(depth + 1)?);
                }
            }
            Some(b'{') => {
                self.at += 1;
                let mut map = BTreeMap::new();
                loop {
                    self.ws();
                    if self.s.get(self.at) == Some(&b'}') {
                        self.at += 1;
                        return Ok(Value::Obj(map));
                    }
                    if !map.is_empty() {
                        self.eat(",")?;
                        self.ws();
                    }
                    let key = self.string()?;
                    self.ws();
                    self.eat(":")?;
                    if map.insert(key.clone(), self.value(depth + 1)?).is_some() {
                        return Err(format!("duplicate key `{key}`"));
                    }
                }
            }
            Some(_) => {
                let begin = self.at;
                while self
                    .s
                    .get(self.at)
                    .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
                {
                    self.at += 1;
                }
                std::str::from_utf8(&self.s[begin..self.at])
                    .ok()
                    .and_then(|t| t.parse().ok())
                    .map(Value::Num)
                    .ok_or_else(|| format!("bad number at byte {begin}"))
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat("\"")?;
        let mut out = Vec::new();
        loop {
            match self.s.get(self.at).copied() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.at += 1;
                    return String::from_utf8(out).map_err(|e| e.to_string());
                }
                Some(b'\\') => {
                    let esc = self.s.get(self.at + 1).copied();
                    self.at += 2;
                    match esc {
                        Some(b'n') => out.push(b'\n'),
                        Some(b't') => out.push(b'\t'),
                        Some(b'r') => out.push(b'\r'),
                        Some(b'u') => {
                            let hex = self.s.get(self.at..self.at + 4).ok_or("short \\u")?;
                            let code = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or("bad \\u escape")?;
                            out.extend(code.to_string().bytes());
                            self.at += 4;
                        }
                        Some(c @ (b'"' | b'\\' | b'/')) => out.push(c),
                        _ => return Err(format!("bad escape at byte {}", self.at)),
                    }
                }
                Some(b) => {
                    out.push(b);
                    self.at += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents_and_rejects_garbage() {
        let v =
            parse(r#"{"a": [1, 2.5e1, -3], "b": {"c": "x\"yé", "d": true, "e": null}}"#).unwrap();
        let a = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(a[1].as_f64(), Some(25.0));
        assert_eq!(a[2].as_f64(), Some(-3.0));
        let b = v.get("b").unwrap();
        assert_eq!(b.get("c").unwrap().as_str(), Some("x\"yé"));
        assert_eq!(b.get("d"), Some(&Value::Bool(true)));
        assert_eq!(b.get("e"), Some(&Value::Null));
        assert!(parse("{\"a\": 1,}").is_err());
        assert!(parse("[1 2]").is_err());
        assert!(parse("{} x").is_err());
        assert!(parse("{\"a\":1,\"a\":2}").is_err());
    }
}
