//! Shared lexical helpers of the `.dnnfg` text format: the name escaping
//! scheme, and the shape / dtype / attribute token codecs.
//!
//! Everything here is byte-deterministic in both directions — the exporter
//! and the strict importer use the same single implementation of each codec,
//! so a token either round-trips exactly or is rejected.

use dnnf_ops::{AttrValue, Attrs};
use dnnf_tensor::{DataType, Shape};

/// Percent-escapes a name so it is always exactly one whitespace-free,
/// nonempty token. Escaped bytes: `%` itself, ASCII controls and space
/// (`<= 0x20`), DEL and all non-ASCII bytes (`>= 0x7f`), and the attribute
/// metacharacters `;`, `,`, `=`. The empty string encodes as a lone `%`
/// (which no escaped nonempty string can produce, since a literal `%`
/// becomes `%25`).
#[must_use]
pub(crate) fn escape(s: &str) -> String {
    if s.is_empty() {
        return "%".to_string();
    }
    let mut out = String::with_capacity(s.len());
    for &b in s.as_bytes() {
        if b == b'%' || b <= 0x20 || b >= 0x7f || b == b';' || b == b',' || b == b'=' {
            out.push_str(&format!("%{b:02X}"));
        } else {
            out.push(b as char);
        }
    }
    out
}

/// Strict inverse of [`escape`]. Returns `None` for a dangling or non-hex
/// `%XX` sequence, for raw bytes that should have been escaped, or for
/// escapes that decode to invalid UTF-8.
#[must_use]
pub(crate) fn unescape(token: &str) -> Option<String> {
    if token == "%" {
        return Some(String::new());
    }
    if token.is_empty() {
        return None;
    }
    let bytes = token.as_bytes();
    let mut out: Vec<u8> = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        if b == b'%' {
            let hex = bytes.get(i + 1..i + 3)?;
            let hi = (hex[0] as char).to_digit(16)?;
            let lo = (hex[1] as char).to_digit(16)?;
            // Only uppercase hex is canonical.
            if hex.iter().any(u8::is_ascii_lowercase) {
                return None;
            }
            out.push((hi * 16 + lo) as u8);
            i += 3;
        } else if b <= 0x20 || b >= 0x7f || b == b';' || b == b',' || b == b'=' {
            return None;
        } else {
            out.push(b);
            i += 1;
        }
    }
    String::from_utf8(out).ok()
}

/// Prints a shape as `x`-joined dims (`1x3x224x224`); rank-0 prints as the
/// literal token `scalar`.
#[must_use]
pub(crate) fn shape_token(shape: &Shape) -> String {
    if shape.rank() == 0 {
        return "scalar".to_string();
    }
    shape
        .dims()
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join("x")
}

/// Strict inverse of [`shape_token`].
#[must_use]
pub(crate) fn parse_shape(token: &str) -> Option<Shape> {
    if token == "scalar" {
        return Some(Shape::new(vec![]));
    }
    let dims: Option<Vec<usize>> = token
        .split('x')
        .map(|d| {
            // Reject empty segments, signs, and leading zeros (non-canonical).
            if d.is_empty() || (d.len() > 1 && d.starts_with('0')) {
                None
            } else {
                d.parse::<usize>().ok()
            }
        })
        .collect();
    dims.map(Shape::new)
}

/// Prints a dtype in its lowercase token form (`f32`, `f16`, `i64`, `bool`,
/// `u8`) — the same tokens `DataType`'s `Display` uses.
#[must_use]
pub(crate) fn dtype_token(dtype: DataType) -> &'static str {
    match dtype {
        DataType::F32 => "f32",
        DataType::F16 => "f16",
        DataType::I64 => "i64",
        DataType::Bool => "bool",
        DataType::U8 => "u8",
    }
}

/// Strict inverse of [`dtype_token`].
#[must_use]
pub(crate) fn parse_dtype(token: &str) -> Option<DataType> {
    match token {
        "f32" => Some(DataType::F32),
        "f16" => Some(DataType::F16),
        "i64" => Some(DataType::I64),
        "bool" => Some(DataType::Bool),
        "u8" => Some(DataType::U8),
        _ => None,
    }
}

/// Prints an `f32` in Rust's shortest round-trip decimal form. `Display`
/// for floats is guaranteed to print the shortest string that parses back
/// to the identical bits, so `parse(print(x)).to_bits() == x.to_bits()` for
/// every finite and infinite value; `NaN` prints as `NaN` and parses back
/// to a quiet NaN.
#[must_use]
pub(crate) fn float_token(v: f32) -> String {
    format!("{v}")
}

/// Strict inverse of [`float_token`] (plain `f32::from_str`, which accepts
/// everything `Display` emits).
#[must_use]
pub(crate) fn parse_float(token: &str) -> Option<f32> {
    if token.is_empty() || token.contains(char::is_whitespace) {
        return None;
    }
    token.parse::<f32>().ok()
}

/// Encodes an attribute map as one whitespace-free token:
/// `;`-joined `key=tag:payload` entries in the map's canonical (name)
/// order, or the literal `-` when empty. Tags: `i` (int), `f` (float),
/// `is` (int list), `fs` (float list), `s` (escaped string); list payloads
/// are comma-joined and may be empty.
#[must_use]
pub(crate) fn attrs_token(attrs: &Attrs) -> String {
    if attrs.is_empty() {
        return "-".to_string();
    }
    let mut parts: Vec<String> = Vec::with_capacity(attrs.len());
    for (key, value) in attrs.iter() {
        let encoded = match value {
            AttrValue::Int(v) => format!("i:{v}"),
            AttrValue::Float(v) => format!("f:{}", float_token(*v)),
            AttrValue::Ints(v) => format!(
                "is:{}",
                v.iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join(",")
            ),
            AttrValue::Floats(v) => format!(
                "fs:{}",
                v.iter()
                    .map(|x| float_token(*x))
                    .collect::<Vec<_>>()
                    .join(",")
            ),
            AttrValue::Str(v) => format!("s:{}", escape(v)),
        };
        parts.push(format!("{}={encoded}", escape(key)));
    }
    parts.join(";")
}

/// Strict inverse of [`attrs_token`]. Returns `None` on any grammar
/// violation (bad tag, unparsable number, bad escape, missing `=`).
#[must_use]
pub(crate) fn parse_attrs(token: &str) -> Option<Attrs> {
    if token == "-" {
        return Some(Attrs::new());
    }
    let mut pairs: Vec<(String, AttrValue)> = Vec::new();
    for part in token.split(';') {
        let (key, rest) = part.split_once('=')?;
        let key = unescape(key)?;
        let (tag, payload) = rest.split_once(':')?;
        let value = match tag {
            "i" => AttrValue::Int(parse_int(payload)?),
            "f" => AttrValue::Float(parse_float(payload)?),
            "is" => AttrValue::Ints(if payload.is_empty() {
                Vec::new()
            } else {
                payload
                    .split(',')
                    .map(parse_int)
                    .collect::<Option<Vec<i64>>>()?
            }),
            "fs" => AttrValue::Floats(if payload.is_empty() {
                Vec::new()
            } else {
                payload
                    .split(',')
                    .map(parse_float)
                    .collect::<Option<Vec<f32>>>()?
            }),
            "s" => AttrValue::Str(unescape(payload)?),
            _ => return None,
        };
        pairs.push((key, value));
    }
    // Canonical form lists keys in name order with no duplicates.
    for window in pairs.windows(2) {
        if window[0].0 >= window[1].0 {
            return None;
        }
    }
    Some(pairs.into_iter().collect())
}

fn parse_int(token: &str) -> Option<i64> {
    if token.is_empty() {
        return None;
    }
    token.parse::<i64>().ok()
}

/// Encodes a weight payload as concatenated 8-hex-digit `f32::to_bits`
/// words, most significant nibble first, lowercase.
#[must_use]
pub(crate) fn data_token(data: &[f32]) -> String {
    let mut out = String::with_capacity(data.len() * 8);
    for &x in data {
        out.push_str(&format!("{:08x}", x.to_bits()));
    }
    out
}

/// Strict inverse of [`data_token`]: the token length must be exactly
/// `8 * expected` lowercase hex digits.
#[must_use]
pub(crate) fn parse_data(token: &str, expected: usize) -> Option<Vec<f32>> {
    if token.len() != expected * 8 || !token.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    if token.bytes().any(|b| b.is_ascii_uppercase()) {
        return None;
    }
    let mut out = Vec::with_capacity(expected);
    for chunk in token.as_bytes().chunks(8) {
        let s = std::str::from_utf8(chunk).ok()?;
        out.push(f32::from_bits(u32::from_str_radix(s, 16).ok()?));
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_round_trips_and_is_one_token() {
        for name in [
            "x",
            "conv1.w",
            "a b",
            "100%",
            "semi;colon,eq=",
            "tab\tnewline\n",
            "ünïcode",
            "",
        ] {
            let token = escape(name);
            assert!(!token.is_empty());
            assert!(!token.contains(char::is_whitespace), "{token:?}");
            assert_eq!(unescape(&token).as_deref(), Some(name));
        }
    }

    #[test]
    fn unescape_rejects_damage() {
        assert_eq!(unescape(""), None);
        assert_eq!(unescape("%2"), None); // dangling escape
        assert_eq!(unescape("%zz"), None); // non-hex
        assert_eq!(unescape("%2a"), None); // lowercase hex is non-canonical
        assert_eq!(unescape("a b"), None); // raw space
        assert_eq!(unescape("a=b"), None); // raw metacharacter
        assert_eq!(unescape("%FF"), None); // invalid UTF-8
    }

    #[test]
    fn shape_tokens_round_trip() {
        for dims in [vec![], vec![1], vec![1, 3, 224, 224], vec![2, 0, 4]] {
            let s = Shape::new(dims);
            assert_eq!(parse_shape(&shape_token(&s)).as_ref(), Some(&s));
        }
        assert_eq!(parse_shape(""), None);
        assert_eq!(parse_shape("1x"), None);
        assert_eq!(parse_shape("x3"), None);
        assert_eq!(parse_shape("1x-3"), None);
        assert_eq!(parse_shape("01x3"), None); // non-canonical leading zero
    }

    #[test]
    fn dtype_tokens_round_trip() {
        for dt in [
            DataType::F32,
            DataType::F16,
            DataType::I64,
            DataType::Bool,
            DataType::U8,
        ] {
            assert_eq!(parse_dtype(dtype_token(dt)), Some(dt));
        }
        assert_eq!(parse_dtype("f64"), None);
    }

    #[test]
    fn float_tokens_are_bit_exact() {
        for v in [
            0.0f32,
            -0.0,
            1.0,
            1e-5,
            f32::MIN_POSITIVE,
            f32::MAX,
            f32::INFINITY,
            f32::NEG_INFINITY,
            std::f32::consts::PI,
        ] {
            let back = parse_float(&float_token(v)).unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{v}");
        }
        assert!(parse_float(&float_token(f32::NAN)).unwrap().is_nan());
    }

    #[test]
    fn attr_tokens_round_trip() {
        let attrs = Attrs::new()
            .with_int("axis", -1)
            .with_float("epsilon", 1e-5)
            .with_ints("pads", vec![1, 1, 1, 1])
            .with_ints("empty", vec![])
            .with_floats("scales", vec![1.5, 2.0])
            .with_str("mode", "nearest neighbor");
        let token = attrs_token(&attrs);
        assert!(!token.contains(char::is_whitespace));
        assert_eq!(parse_attrs(&token).as_ref(), Some(&attrs));
        assert_eq!(parse_attrs("-"), Some(Attrs::new()));
        assert_eq!(attrs_token(&Attrs::new()), "-");
    }

    #[test]
    fn attr_parse_rejects_damage() {
        assert_eq!(parse_attrs(""), None);
        assert_eq!(parse_attrs("axis"), None); // missing `=`
        assert_eq!(parse_attrs("axis=1"), None); // missing tag
        assert_eq!(parse_attrs("axis=q:1"), None); // unknown tag
        assert_eq!(parse_attrs("axis=i:x"), None); // unparsable int
        assert_eq!(parse_attrs("b=i:1;a=i:2"), None); // out of name order
        assert_eq!(parse_attrs("a=i:1;a=i:2"), None); // duplicate key
    }

    #[test]
    fn data_tokens_are_bit_exact() {
        let data = vec![0.0f32, -1.5, 1e-20, f32::INFINITY];
        let token = data_token(&data);
        assert_eq!(token.len(), 32);
        let back = parse_data(&token, 4).unwrap();
        for (a, b) in data.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(parse_data(&token, 3), None); // wrong count
        assert_eq!(parse_data("zz", 0), None);
        assert_eq!(parse_data(&token.to_uppercase(), 4), None); // non-canonical
    }
}
