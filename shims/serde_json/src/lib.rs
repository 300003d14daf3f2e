//! Offline stand-in for `serde_json`: renders [`serde::Value`] trees as
//! (pretty) JSON text. Serialization only.

#![forbid(unsafe_code)]

use serde::{Serialize, Value};

/// Serialization error. The shim never actually fails; the type exists
/// so call sites keep serde_json's `Result` shape.
#[derive(Debug)]
pub struct Error(String);

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json serialization error: {}", self.0)
    }
}

impl std::error::Error for Error {}

/// Pretty-prints `value` with two-space indentation.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_value(), 0, &mut out);
    Ok(out)
}

/// Compact single-line rendering.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let pretty = to_string_pretty(value)?;
    // The writer only inserts structural whitespace after `,` / `:` and
    // around brackets, so re-rendering compactly is a simple strip; do it
    // properly instead by walking the tree again.
    let _ = pretty;
    let mut out = String::new();
    write_compact(&value.to_value(), &mut out);
    Ok(out)
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_float(f: f64, out: &mut String) {
    if f.is_finite() {
        if f == f.trunc() && f.abs() < 1e15 {
            out.push_str(&format!("{:.1}", f));
        } else {
            out.push_str(&format!("{}", f));
        }
    } else {
        out.push_str("null");
    }
}

fn write_value(v: &Value, indent: usize, out: &mut String) {
    let pad = "  ".repeat(indent);
    let pad_in = "  ".repeat(indent + 1);
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::UInt(u) => out.push_str(&u.to_string()),
        Value::Float(f) => write_float(*f, out),
        Value::Str(s) => write_escaped(s, out),
        Value::Arr(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                out.push_str(&pad_in);
                write_value(item, indent + 1, out);
                if i + 1 < items.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            out.push_str(&pad);
            out.push(']');
        }
        Value::Obj(entries) => {
            if entries.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push_str("{\n");
            for (i, (key, val)) in entries.iter().enumerate() {
                out.push_str(&pad_in);
                write_escaped(key, out);
                out.push_str(": ");
                write_value(val, indent + 1, out);
                if i + 1 < entries.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            out.push_str(&pad);
            out.push('}');
        }
    }
}

fn write_compact(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::UInt(u) => out.push_str(&u.to_string()),
        Value::Float(f) => write_float(*f, out),
        Value::Str(s) => write_escaped(s, out),
        Value::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_compact(item, out);
            }
            out.push(']');
        }
        Value::Obj(entries) => {
            out.push('{');
            for (i, (key, val)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_escaped(key, out);
                out.push(':');
                write_compact(val, out);
            }
            out.push('}');
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pretty_object() {
        let v = Value::Obj(vec![
            ("a".into(), Value::UInt(1)),
            ("b".into(), Value::Arr(vec![Value::Float(0.5), Value::Null])),
        ]);
        let text = to_string_pretty(&v).unwrap();
        assert!(text.contains("\"a\": 1"));
        assert!(text.contains("\"b\": [\n"));
        assert!(text.starts_with("{\n"));
    }

    #[test]
    fn compact_roundtrip_shapes() {
        let v = Value::Arr(vec![Value::Int(-3), Value::Str("x\"y".into())]);
        assert_eq!(to_string(&v).unwrap(), "[-3,\"x\\\"y\"]");
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(to_string(&f64::NAN).unwrap(), "null");
        assert_eq!(to_string(&f64::INFINITY).unwrap(), "null");
    }

    #[test]
    fn whole_floats_keep_decimal_point() {
        assert_eq!(to_string(&2.0f64).unwrap(), "2.0");
    }
}
