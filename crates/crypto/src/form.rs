//! `application/x-www-form-urlencoded` codecs.
//!
//! The paper's extension rewrites form-encoded POST bodies
//! (`docContents=…&delta=…`); these helpers implement the encoding rules
//! the simulated wire protocol uses: unreserved characters pass through,
//! space becomes `+`, and every other byte becomes `%XX`.
//!
//! # Example
//!
//! ```
//! use pe_crypto::form;
//!
//! let body = form::encode_pairs(&[("delta", "=2\t+a b")]);
//! assert_eq!(body, "delta=%3D2%09%2Ba+b");
//! let pairs = form::parse_pairs(&body)?;
//! assert_eq!(pairs, vec![("delta".to_string(), "=2\t+a b".to_string())]);
//! # Ok::<(), pe_crypto::CryptoError>(())
//! ```

use crate::error::CryptoError;

/// How [`percent_encode`] writes each byte: `0` passes it through,
/// `1` writes `+` (space), `2` writes `%XX`.
const CLASS: [u8; 256] = {
    let mut table = [2u8; 256];
    let mut b = 0;
    while b < 256 {
        let c = b as u8;
        if c.is_ascii_alphanumeric() || matches!(c, b'-' | b'_' | b'.' | b'*') {
            table[b] = 0;
        }
        b += 1;
    }
    table[b' ' as usize] = 1;
    table
};

const HEX_UPPER: &[u8; 16] = b"0123456789ABCDEF";

/// Percent-encodes `text` using form-urlencoding rules.
pub fn percent_encode(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    percent_encode_into(&mut out, text);
    out
}

/// Appends the percent-encoding of `text` to `out`: runs of unreserved
/// bytes are copied whole, and each other byte is looked up in [`CLASS`].
fn percent_encode_into(out: &mut String, text: &str) {
    let bytes = text.as_bytes();
    let mut run = 0;
    for (i, &b) in bytes.iter().enumerate() {
        let class = CLASS[usize::from(b)];
        if class == 0 {
            continue;
        }
        if run < i {
            // Unreserved ASCII from `run` to `i`, so both are character
            // boundaries (inside a multi-byte character they need not be).
            out.push_str(&text[run..i]);
        }
        run = i + 1;
        if class == 1 {
            out.push('+');
        } else {
            out.push('%');
            out.push(char::from(HEX_UPPER[usize::from(b >> 4)]));
            out.push(char::from(HEX_UPPER[usize::from(b & 0xf)]));
        }
    }
    out.push_str(&text[run..]);
}

/// Decodes a percent-encoded string back into text.
///
/// # Errors
///
/// Returns [`CryptoError::InvalidCharacter`] for malformed `%` escapes and
/// [`CryptoError::InvalidUtf8`] if the decoded bytes are not UTF-8.
pub fn percent_decode(text: &str) -> Result<String, CryptoError> {
    let bytes = text.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        // Copy the run up to the next escape or `+` whole.
        let run = bytes[i..].iter().position(|&b| b == b'%' || b == b'+').unwrap_or(bytes.len() - i);
        out.extend_from_slice(&bytes[i..i + run]);
        i += run;
        let Some(&b) = bytes.get(i) else { break };
        match b {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            _ => {
                if i + 2 >= bytes.len() {
                    return Err(CryptoError::InvalidCharacter { byte: b'%', position: i });
                }
                let hi = hex_val(bytes[i + 1])
                    .ok_or(CryptoError::InvalidCharacter { byte: bytes[i + 1], position: i + 1 })?;
                let lo = hex_val(bytes[i + 2])
                    .ok_or(CryptoError::InvalidCharacter { byte: bytes[i + 2], position: i + 2 })?;
                out.push((hi << 4) | lo);
                i += 3;
            }
        }
    }
    String::from_utf8(out).map_err(|e| CryptoError::InvalidUtf8 {
        position: e.utf8_error().valid_up_to(),
    })
}

fn hex_val(c: u8) -> Option<u8> {
    match c {
        b'0'..=b'9' => Some(c - b'0'),
        b'a'..=b'f' => Some(c - b'a' + 10),
        b'A'..=b'F' => Some(c - b'A' + 10),
        _ => None,
    }
}

/// Encodes key/value pairs as a form body (`k1=v1&k2=v2`).
pub fn encode_pairs<K: AsRef<str>, V: AsRef<str>>(pairs: &[(K, V)]) -> String {
    // The unescaped length plus an eighth: room for the escapes of
    // ciphertext (its four `;`) and of most prose, so a large body is
    // written without growing. A body is sent, not spliced.
    let len: usize = pairs.iter().map(|(k, v)| k.as_ref().len() + v.as_ref().len() + 2).sum();
    let mut out = String::with_capacity(len + len / 8);
    for (i, (k, v)) in pairs.iter().enumerate() {
        if i > 0 {
            out.push('&');
        }
        percent_encode_into(&mut out, k.as_ref());
        out.push('=');
        percent_encode_into(&mut out, v.as_ref());
    }
    out
}

/// Parses a form body into its key/value pairs, preserving order and
/// duplicates.
///
/// # Errors
///
/// Propagates decoding errors from [`percent_decode`].
pub fn parse_pairs(body: &str) -> Result<Vec<(String, String)>, CryptoError> {
    if body.is_empty() {
        return Ok(Vec::new());
    }
    let mut pairs = Vec::new();
    for piece in body.split('&') {
        let (k, v) = match piece.split_once('=') {
            Some((k, v)) => (k, v),
            None => (piece, ""),
        };
        pairs.push((percent_decode(k)?, percent_decode(v)?));
    }
    Ok(pairs)
}

/// Looks up the first value for `key` in a parsed form body.
pub fn first_value<'a>(pairs: &'a [(String, String)], key: &str) -> Option<&'a str> {
    pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unreserved_passes_through() {
        assert_eq!(percent_encode("AZaz09-_.*"), "AZaz09-_.*");
    }

    #[test]
    fn space_becomes_plus() {
        assert_eq!(percent_encode("a b"), "a+b");
        assert_eq!(percent_decode("a+b").unwrap(), "a b");
    }

    #[test]
    fn reserved_characters_escape() {
        assert_eq!(percent_encode("=&%\t"), "%3D%26%25%09");
        assert_eq!(percent_decode("%3D%26%25%09").unwrap(), "=&%\t");
    }

    #[test]
    fn unicode_roundtrip() {
        let text = "héllo wörld — ≠";
        assert_eq!(percent_decode(&percent_encode(text)).unwrap(), text);
    }

    #[test]
    fn roundtrip_every_ascii_byte() {
        let all: String = (0x20u8..0x7f).map(|b| b as char).collect();
        assert_eq!(percent_decode(&percent_encode(&all)).unwrap(), all);
    }

    #[test]
    fn truncated_escape_rejected() {
        assert!(percent_decode("abc%4").is_err());
        assert!(percent_decode("abc%").is_err());
    }

    #[test]
    fn invalid_hex_rejected() {
        assert!(matches!(
            percent_decode("%zz"),
            Err(CryptoError::InvalidCharacter { byte: b'z', position: 1 })
        ));
    }

    #[test]
    fn invalid_utf8_rejected() {
        assert!(matches!(percent_decode("%ff%fe"), Err(CryptoError::InvalidUtf8 { .. })));
    }

    #[test]
    fn pairs_roundtrip() {
        let pairs = vec![
            ("docContents".to_string(), "hello world & more".to_string()),
            ("delta".to_string(), "=2\t-5\t+x=y".to_string()),
            ("empty".to_string(), String::new()),
        ];
        let body = encode_pairs(&pairs);
        assert_eq!(parse_pairs(&body).unwrap(), pairs);
    }

    #[test]
    fn key_without_value_parses_as_empty() {
        assert_eq!(
            parse_pairs("flag&k=v").unwrap(),
            vec![("flag".to_string(), String::new()), ("k".to_string(), "v".to_string())]
        );
    }

    #[test]
    fn empty_body_parses_to_no_pairs() {
        assert!(parse_pairs("").unwrap().is_empty());
    }

    #[test]
    fn first_value_finds_first_duplicate() {
        let pairs = parse_pairs("a=1&a=2&b=3").unwrap();
        assert_eq!(first_value(&pairs, "a"), Some("1"));
        assert_eq!(first_value(&pairs, "b"), Some("3"));
        assert_eq!(first_value(&pairs, "c"), None);
    }
}
