//! Property tests for every codec and primitive in `pe-crypto`.

use pe_crypto::aes::{Aes128, Aes256};
use pe_crypto::drbg::{CtrDrbg, NonceSource};
use pe_crypto::{base32, form, hex, BlockCipher};
use proptest::prelude::*;

proptest! {
    #[test]
    fn hex_roundtrips(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        prop_assert_eq!(hex::decode(&hex::encode(&data)).unwrap(), data);
    }

    #[test]
    fn base32_roundtrips(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        prop_assert_eq!(base32::decode(&base32::encode(&data)).unwrap(), data.clone());
        let unpadded = base32::encode_unpadded(&data);
        prop_assert_eq!(base32::decode_unpadded(&unpadded).unwrap(), data.clone());
        prop_assert_eq!(unpadded.len(), base32::encoded_len(data.len()));
    }

    #[test]
    fn base32_never_decodes_garbage_silently(text in "[A-Z2-7]{0,40}") {
        // Either the decode fails or it re-encodes to the same text.
        if let Ok(bytes) = base32::decode_unpadded(&text) {
            prop_assert_eq!(base32::encode_unpadded(&bytes), text);
        }
    }

    #[test]
    fn percent_roundtrips(text in "\\PC{0,120}") {
        prop_assert_eq!(form::percent_decode(&form::percent_encode(&text)).unwrap(), text);
    }

    #[test]
    fn form_pairs_roundtrip(
        pairs in proptest::collection::vec(("\\PC{0,20}", "\\PC{0,30}"), 0..8)
    ) {
        // Keys must be non-empty for unambiguous parsing.
        let pairs: Vec<(String, String)> = pairs
            .into_iter()
            .enumerate()
            .map(|(i, (k, v))| (format!("k{i}{k}"), v))
            .collect();
        let body = form::encode_pairs(&pairs);
        prop_assert_eq!(form::parse_pairs(&body).unwrap(), pairs);
    }

    #[test]
    fn aes128_roundtrips(key in any::<[u8; 16]>(), block in any::<[u8; 16]>()) {
        let cipher = Aes128::new(&key);
        let mut data = block;
        cipher.encrypt_block(&mut data);
        cipher.decrypt_block(&mut data);
        prop_assert_eq!(data, block);
    }

    #[test]
    fn aes256_roundtrips(key in any::<[u8; 32]>(), block in any::<[u8; 16]>()) {
        let cipher = Aes256::new(&key);
        let mut data = block;
        cipher.encrypt_block(&mut data);
        cipher.decrypt_block(&mut data);
        prop_assert_eq!(data, block);
    }

    #[test]
    fn aes_is_a_permutation_on_distinct_blocks(
        key in any::<[u8; 16]>(),
        a in any::<[u8; 16]>(),
        b in any::<[u8; 16]>(),
    ) {
        prop_assume!(a != b);
        let cipher = Aes128::new(&key);
        let (mut ca, mut cb) = (a, b);
        cipher.encrypt_block(&mut ca);
        cipher.encrypt_block(&mut cb);
        prop_assert_ne!(ca, cb, "a permutation cannot collide");
    }

    #[test]
    fn drbg_streams_are_prefix_consistent(seed in any::<u64>(), split in 1usize..64) {
        let mut whole = CtrDrbg::from_seed(seed);
        let mut parts = CtrDrbg::from_seed(seed);
        let mut big = vec![0u8; 64];
        whole.fill_bytes(&mut big);
        let mut first = vec![0u8; split];
        let mut second = vec![0u8; 64 - split];
        parts.fill_bytes(&mut first);
        parts.fill_bytes(&mut second);
        first.extend_from_slice(&second);
        prop_assert_eq!(first, big);
    }

    #[test]
    fn sha256_is_deterministic_and_sensitive(
        data in proptest::collection::vec(any::<u8>(), 1..200),
        flip in any::<usize>(),
    ) {
        use pe_crypto::sha256::Sha256;
        let digest = Sha256::digest(&data);
        prop_assert_eq!(Sha256::digest(&data), digest);
        let mut tweaked = data.clone();
        let at = flip % tweaked.len();
        tweaked[at] ^= 1;
        prop_assert_ne!(Sha256::digest(&tweaked), digest);
    }
}

proptest! {
    #[test]
    fn key_wrap_roundtrips(
        kek in proptest::array::uniform16(any::<u8>()),
        blocks in 2usize..9,
        seed in any::<u64>(),
    ) {
        use pe_crypto::kw;
        let mut rng = CtrDrbg::from_seed(seed);
        let mut data = vec![0u8; blocks * 8];
        rng.fill_bytes(&mut data);
        let cipher = Aes128::new(&kek);
        let wrapped = kw::wrap(&cipher, &data).unwrap();
        prop_assert_eq!(wrapped.len(), data.len() + 8);
        prop_assert_eq!(kw::unwrap(&cipher, &wrapped).unwrap(), data);
    }

    #[test]
    fn key_wrap_detects_tampering(
        kek in proptest::array::uniform16(any::<u8>()),
        data in proptest::collection::vec(any::<u8>(), 32..33),
        byte in 0usize..40,
        bit in 0u8..8,
    ) {
        use pe_crypto::kw;
        let cipher = Aes128::new(&kek);
        let mut wrapped = kw::wrap(&cipher, &data).unwrap();
        let at = byte % wrapped.len();
        wrapped[at] ^= 1 << bit;
        prop_assert_eq!(
            kw::unwrap(&cipher, &wrapped),
            Err(pe_crypto::CryptoError::IntegrityCheckFailed)
        );
    }

    #[test]
    fn key_wrap_rejects_wrong_kek(
        kek in proptest::array::uniform16(any::<u8>()),
        flip in 0usize..128,
        data in proptest::collection::vec(any::<u8>(), 16..17),
    ) {
        use pe_crypto::kw;
        let cipher = Aes128::new(&kek);
        let mut other_key = kek;
        other_key[flip / 8] ^= 1 << (flip % 8);
        let other = Aes128::new(&other_key);
        let wrapped = kw::wrap(&cipher, &data).unwrap();
        prop_assert_eq!(
            kw::unwrap(&other, &wrapped),
            Err(pe_crypto::CryptoError::IntegrityCheckFailed)
        );
    }
}

/// One Base32 character of a fixed-width record body: mostly the upper
/// case alphabet, sometimes lower case, sometimes any byte at all.
fn record_byte() -> impl Strategy<Value = u8> {
    (0u8..10, 0usize..32, any::<u8>()).prop_map(|(pick, value, byte)| {
        let upper = b"ABCDEFGHIJKLMNOPQRSTUVWXYZ234567"[value];
        match pick {
            0 => byte,
            1..=3 => upper.to_ascii_lowercase(),
            _ => upper,
        }
    })
}

proptest! {
    /// The fixed-width block decoder accepts exactly what the general
    /// decoder accepts at that width, with equal bytes and equal errors:
    /// lower case, bytes outside the alphabet and nonzero trailing bits
    /// all come up.
    #[test]
    fn base32_block_decoder_matches_general_decoder(
        text in proptest::collection::vec(record_byte(), base32::BLOCK_CHARS)
    ) {
        let general = std::str::from_utf8(&text)
            .map_err(|_| ())
            .and_then(|text| base32::decode_unpadded(text).map_err(|_| ()));
        let fixed = base32::decode_block(&text);
        match (&general, &fixed) {
            (Ok(bytes), Ok(block)) => prop_assert_eq!(bytes.as_slice(), block.as_slice()),
            (Err(()), Err(_)) => {}
            _ => prop_assert!(false, "{:?}: general {:?}, fixed {:?}", text, general, fixed),
        }
        // Where the text is a string the general decoder's error is the
        // fixed decoder's error.
        if let Ok(text) = std::str::from_utf8(&text) {
            prop_assert_eq!(
                base32::decode_unpadded(text).map(|b| b.try_into().unwrap()),
                fixed
            );
        }
    }

    /// The fixed-width block encoder writes what the general encoder
    /// writes, and the block decoder inverts it.
    #[test]
    fn base32_block_encoder_matches_general_encoder(block in any::<[u8; 16]>()) {
        let fixed = base32::encode_block(&block);
        prop_assert_eq!(std::str::from_utf8(&fixed).unwrap(), base32::encode_unpadded(&block));
        prop_assert_eq!(base32::decode_block(&fixed).unwrap(), block);
    }
}

/// The wire bytes of the form codec, pinned: every printable ASCII byte,
/// tab, newline and some multi-byte characters.
#[test]
fn percent_encode_golden() {
    let printable: String = (0x20u8..0x7f).map(char::from).collect();
    assert_eq!(
        form::percent_encode(&printable),
        "+%21%22%23%24%25%26%27%28%29*%2B%2C-.%2F0123456789%3A%3B%3C%3D%3E%3F%40\
         ABCDEFGHIJKLMNOPQRSTUVWXYZ%5B%5C%5D%5E_%60abcdefghijklmnopqrstuvwxyz%7B%7C%7D%7E"
    );
    assert_eq!(form::percent_encode("a\tb\nc"), "a%09b%0Ac");
    assert_eq!(form::percent_encode("é — 一😀"), "%C3%A9+%E2%80%94+%E4%B8%80%F0%9F%98%80");
    assert_eq!(
        form::encode_pairs(&[("k é", "v=1&2"), ("", "")]),
        "k+%C3%A9=v%3D1%262&="
    );
}
