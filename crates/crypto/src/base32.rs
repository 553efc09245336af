//! RFC 4648 Base32 encoding.
//!
//! The paper's extension Base32-encodes ciphertext before substituting it
//! into the `docContents`/`delta` fields (Figure 2: `Base32.encode(...)`),
//! because the on-line editor must be able to store and render the bytes as
//! ordinary document text. Base32's alphabet (`A–Z2–7`) survives every
//! text-processing layer of the simulated services.
//!
//! Encoding without padding is also provided: within a ciphertext document
//! each encryption block is encoded independently, and padding characters
//! would waste space (blocks have known size).
//!
//! A ciphertext document is thousands of 16-byte blocks, so that width has
//! its own kernels: [`encode_block`] and [`decode_block`] work on fixed
//! arrays through lookup tables and allocate nothing. They accept and
//! produce exactly what [`encode_unpadded`] and [`decode_unpadded`] do at
//! [`BLOCK_CHARS`] characters.
//!
//! # Example
//!
//! ```
//! use pe_crypto::base32;
//!
//! assert_eq!(base32::encode(b"foobar"), "MZXW6YTBOI======");
//! assert_eq!(base32::decode("MZXW6YTBOI======")?, b"foobar");
//! # Ok::<(), pe_crypto::CryptoError>(())
//! ```

use crate::error::CryptoError;

const ALPHABET: &[u8; 32] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZ234567";

/// Marks a byte outside the alphabet in [`DECODE`].
const INVALID: u8 = 0xff;

/// Every byte's 5-bit value: `A–Z`/`a–z` are 0–25, `2–7` are 26–31, and
/// everything else is [`INVALID`].
const DECODE: [u8; 256] = {
    let mut table = [INVALID; 256];
    let mut i = 0;
    while i < 32 {
        table[ALPHABET[i] as usize] = i as u8;
        table[ALPHABET[i].to_ascii_lowercase() as usize] = i as u8;
        i += 1;
    }
    table
};

/// Base32 characters of one 16-byte block: `encoded_len(16)`.
pub const BLOCK_CHARS: usize = 26;

/// Encodes a 16-byte block as its [`BLOCK_CHARS`] unpadded characters
/// (upper case), equal to [`encode_unpadded`] of the block.
pub fn encode_block(block: &[u8; 16]) -> [u8; BLOCK_CHARS] {
    let mut out = [0u8; BLOCK_CHARS];
    // Three 5-byte groups are 40 bits, eight characters each.
    for (group, chars) in block[..15].chunks_exact(5).zip(out.chunks_exact_mut(8)) {
        let bits = group.iter().fold(0u64, |acc, &b| (acc << 8) | u64::from(b));
        for (i, c) in chars.iter_mut().enumerate() {
            *c = ALPHABET[((bits >> (35 - 5 * i)) & 0x1f) as usize];
        }
    }
    // The last byte fills one character and three bits of the next,
    // whose two low bits are zero.
    out[24] = ALPHABET[usize::from(block[15] >> 3)];
    out[25] = ALPHABET[usize::from((block[15] << 2) & 0x1f)];
    out
}

/// Decodes the [`BLOCK_CHARS`] unpadded characters of one 16-byte block
/// (either case).
///
/// # Errors
///
/// Exactly those of [`decode_unpadded`] on the same text:
/// [`CryptoError::InvalidLength`] unless `text` is [`BLOCK_CHARS`] bytes,
/// [`CryptoError::InvalidCharacter`] at the first byte outside the
/// alphabet, and [`CryptoError::InvalidPadding`] when the two bits past
/// the block are not zero.
pub fn decode_block(text: &[u8]) -> Result<[u8; 16], CryptoError> {
    let text: &[u8; BLOCK_CHARS] =
        text.try_into().map_err(|_| CryptoError::InvalidLength { length: text.len() })?;
    let mut values = [0u8; BLOCK_CHARS];
    let mut seen = 0u8;
    for (value, &c) in values.iter_mut().zip(text) {
        *value = DECODE[usize::from(c)];
        seen |= *value;
    }
    if seen == INVALID {
        // Valid values stay below 32, so only an INVALID entry sets the
        // high bits; find the first one for the error.
        let position = values.iter().position(|&v| v == INVALID).expect("an invalid byte");
        return Err(CryptoError::InvalidCharacter { byte: text[position], position });
    }
    let mut out = [0u8; 16];
    for (chars, group) in values[..24].chunks_exact(8).zip(out.chunks_exact_mut(5)) {
        let bits = chars.iter().fold(0u64, |acc, &v| (acc << 5) | u64::from(v));
        group.copy_from_slice(&bits.to_be_bytes()[3..]);
    }
    if values[25] & 0b11 != 0 {
        return Err(CryptoError::InvalidPadding);
    }
    out[15] = (values[24] << 3) | (values[25] >> 2);
    Ok(out)
}

/// Encodes `data` as Base32 with `=` padding (RFC 4648 §6).
pub fn encode(data: &[u8]) -> String {
    let mut out = encode_unpadded(data);
    while !out.len().is_multiple_of(8) {
        out.push('=');
    }
    out
}

/// Encodes `data` as Base32 without padding characters.
pub fn encode_unpadded(data: &[u8]) -> String {
    let mut out = String::with_capacity(data.len().div_ceil(5) * 8);
    let mut buffer: u64 = 0;
    let mut bits: u32 = 0;
    for &byte in data {
        buffer = (buffer << 8) | u64::from(byte);
        bits += 8;
        while bits >= 5 {
            bits -= 5;
            out.push(ALPHABET[((buffer >> bits) & 0x1f) as usize] as char);
        }
    }
    if bits > 0 {
        out.push(ALPHABET[((buffer << (5 - bits)) & 0x1f) as usize] as char);
    }
    out
}

/// Decodes a padded or unpadded Base32 string.
///
/// # Errors
///
/// Returns [`CryptoError::InvalidCharacter`] for characters outside the
/// RFC 4648 alphabet, and [`CryptoError::InvalidPadding`] if `=` appears
/// anywhere but at the end or if the remainder length is impossible.
pub fn decode(text: &str) -> Result<Vec<u8>, CryptoError> {
    let bytes = text.as_bytes();
    let data_end = bytes.iter().position(|&b| b == b'=').unwrap_or(bytes.len());
    if bytes[data_end..].iter().any(|&b| b != b'=') {
        return Err(CryptoError::InvalidPadding);
    }
    decode_unpadded_bytes(&bytes[..data_end])
}

/// Decodes a Base32 string that carries no padding characters.
///
/// # Errors
///
/// As for [`decode`]; additionally any `=` is treated as an invalid
/// character.
pub fn decode_unpadded(text: &str) -> Result<Vec<u8>, CryptoError> {
    decode_unpadded_bytes(text.as_bytes())
}

fn decode_unpadded_bytes(bytes: &[u8]) -> Result<Vec<u8>, CryptoError> {
    // Remainders of 1, 3, 6 characters cannot arise from whole bytes.
    if matches!(bytes.len() % 8, 1 | 3 | 6) {
        return Err(CryptoError::InvalidLength { length: bytes.len() });
    }
    let mut out = Vec::with_capacity(bytes.len() * 5 / 8);
    let mut buffer: u64 = 0;
    let mut bits: u32 = 0;
    for (position, &c) in bytes.iter().enumerate() {
        let value = match DECODE[usize::from(c)] {
            INVALID => return Err(CryptoError::InvalidCharacter { byte: c, position }),
            value => value,
        };
        buffer = (buffer << 5) | u64::from(value);
        bits += 5;
        if bits >= 8 {
            bits -= 8;
            out.push(((buffer >> bits) & 0xff) as u8);
        }
    }
    // Leftover bits must be zero padding produced by the encoder.
    if bits > 0 && (buffer & ((1 << bits) - 1)) != 0 {
        return Err(CryptoError::InvalidPadding);
    }
    Ok(out)
}

/// Number of Base32 characters needed to encode `n` bytes without padding.
pub const fn encoded_len(n: usize) -> usize {
    (n * 8).div_ceil(5)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// RFC 4648 §10 test vectors.
    #[test]
    fn rfc4648_vectors() {
        let cases: &[(&[u8], &str)] = &[
            (b"", ""),
            (b"f", "MY======"),
            (b"fo", "MZXQ===="),
            (b"foo", "MZXW6==="),
            (b"foob", "MZXW6YQ="),
            (b"fooba", "MZXW6YTB"),
            (b"foobar", "MZXW6YTBOI======"),
        ];
        for (input, expect) in cases {
            assert_eq!(encode(input), *expect);
            assert_eq!(decode(expect).unwrap(), *input);
        }
    }

    #[test]
    fn unpadded_roundtrip_all_lengths() {
        for len in 0..64usize {
            let data: Vec<u8> = (0..len as u8).map(|b| b.wrapping_mul(37)).collect();
            let text = encode_unpadded(&data);
            assert!(!text.contains('='));
            assert_eq!(text.len(), encoded_len(len));
            assert_eq!(decode_unpadded(&text).unwrap(), data);
            // The padded decoder must accept unpadded text too.
            assert_eq!(decode(&text).unwrap(), data);
        }
    }

    #[test]
    fn lowercase_accepted() {
        assert_eq!(decode("mzxw6ytboi======").unwrap(), b"foobar");
    }

    #[test]
    fn invalid_character_rejected() {
        assert!(matches!(
            decode("MZ1W6YTB"),
            Err(CryptoError::InvalidCharacter { byte: b'1', position: 2 })
        ));
    }

    #[test]
    fn interior_padding_rejected() {
        assert_eq!(decode("MZ==6YTB"), Err(CryptoError::InvalidPadding));
    }

    #[test]
    fn impossible_remainder_rejected() {
        // A single trailing character can never decode to whole bytes.
        assert!(matches!(decode("MZXW6YTBA"), Err(CryptoError::InvalidLength { length: 9 })));
    }

    #[test]
    fn nonzero_trailing_bits_rejected() {
        // "MZXX" would leave non-zero bits in the buffer: craft one.
        // 'B' = 1 → for 2 chars (10 bits, 1 byte + 2 leftover bits) the
        // leftover bits must be zero; "MB" leaves 01 pending.
        assert_eq!(decode_unpadded("MB"), Err(CryptoError::InvalidPadding));
    }

    #[test]
    fn encoded_len_matches_encoder() {
        for len in 0..100 {
            let data = vec![0u8; len];
            assert_eq!(encode_unpadded(&data).len(), encoded_len(len));
        }
    }
}
