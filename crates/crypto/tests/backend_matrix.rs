//! Forced-backend matrix: every AES backend must be byte-identical, and
//! so must every SHA-256 compression engine.
//!
//! The dispatch layer (`AesBackend`) selects between the scalar reference
//! and hardware AES-NI once per cipher construction. These tests pin both
//! to the FIPS-197 known-answer vectors and to each other under
//! proptest-generated keys and plaintexts, so CI on a non-AES-NI host
//! still exercises the dispatch and fallback code while an AES-NI host
//! proves the hardware schedule bit-for-bit.
//!
//! Backends are forced in-process via [`Aes128::with_backend`] /
//! [`Aes256::with_backend`]; the environment-variable override
//! (`PE_CRYPTO_FORCE_BACKEND`) is exercised by the CI matrix in
//! `scripts/ci.sh`, which re-runs the whole crypto suite once per value.

use pe_crypto::aes::{Aes128, Aes256, AesBackend};
use pe_crypto::sha256::{Sha256, ShaBackend};
use pe_crypto::BlockCipher;
use proptest::prelude::*;

/// Backends that can actually run on this host. AES-NI is included only
/// when CPUID reports it; the dispatch layer would otherwise silently fall
/// back to the reference engine and the "aesni" row would be a duplicate.
fn runnable_backends() -> Vec<AesBackend> {
    let mut backends = vec![AesBackend::Scalar];
    if AesBackend::aesni_supported() {
        backends.push(AesBackend::AesNi);
    }
    backends
}

// --- FIPS-197 known-answer tests, once per backend -----------------------

/// FIPS-197 Appendix C.1: AES-128 with the 000102…0f key.
const FIPS_KEY_128: [u8; 16] = [
    0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a, 0x0b,
    0x0c, 0x0d, 0x0e, 0x0f,
];
const FIPS_PLAIN: [u8; 16] = [
    0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99, 0xaa, 0xbb,
    0xcc, 0xdd, 0xee, 0xff,
];
const FIPS_CIPHER_128: [u8; 16] = [
    0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80,
    0x70, 0xb4, 0xc5, 0x5a,
];

/// FIPS-197 Appendix C.3: AES-256 with the 000102…1f key.
const FIPS_KEY_256: [u8; 32] = [
    0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a, 0x0b,
    0x0c, 0x0d, 0x0e, 0x0f, 0x10, 0x11, 0x12, 0x13, 0x14, 0x15, 0x16, 0x17,
    0x18, 0x19, 0x1a, 0x1b, 0x1c, 0x1d, 0x1e, 0x1f,
];
const FIPS_CIPHER_256: [u8; 16] = [
    0x8e, 0xa2, 0xb7, 0xca, 0x51, 0x67, 0x45, 0xbf, 0xea, 0xfc, 0x49, 0x90,
    0x4b, 0x49, 0x60, 0x89,
];

#[test]
fn fips197_kat_aes128_every_backend() {
    for backend in runnable_backends() {
        let cipher = Aes128::with_backend(&FIPS_KEY_128, backend);
        assert_eq!(cipher.backend(), backend, "dispatch honoured {backend}");

        let mut block = FIPS_PLAIN;
        cipher.encrypt_block(&mut block);
        assert_eq!(block, FIPS_CIPHER_128, "encrypt KAT on {backend}");
        cipher.decrypt_block(&mut block);
        assert_eq!(block, FIPS_PLAIN, "decrypt KAT on {backend}");
    }
}

#[test]
fn fips197_kat_aes256_every_backend() {
    for backend in runnable_backends() {
        let cipher = Aes256::with_backend(&FIPS_KEY_256, backend);
        assert_eq!(cipher.backend(), backend, "dispatch honoured {backend}");

        let mut block = FIPS_PLAIN;
        cipher.encrypt_block(&mut block);
        assert_eq!(block, FIPS_CIPHER_256, "encrypt KAT on {backend}");
        cipher.decrypt_block(&mut block);
        assert_eq!(block, FIPS_PLAIN, "decrypt KAT on {backend}");
    }
}

// --- Dispatch / fallback behaviour ---------------------------------------

#[test]
fn aesni_request_falls_back_when_unsupported() {
    let cipher = Aes128::with_backend(&FIPS_KEY_128, AesBackend::AesNi);
    let expected = if AesBackend::aesni_supported() {
        AesBackend::AesNi
    } else {
        AesBackend::Scalar
    };
    assert_eq!(cipher.backend(), expected);

    // Whatever it resolved to, the answer is still the FIPS-197 one.
    let mut block = FIPS_PLAIN;
    cipher.encrypt_block(&mut block);
    assert_eq!(block, FIPS_CIPHER_128);
}

#[test]
fn backend_parse_accepts_documented_names() {
    assert_eq!(AesBackend::parse("scalar"), Some(AesBackend::Scalar));
    assert_eq!(AesBackend::parse(" scalar "), Some(AesBackend::Scalar));
    assert_eq!(AesBackend::parse("aesni"), Some(AesBackend::AesNi));
    assert_eq!(AesBackend::parse("AESNI"), Some(AesBackend::AesNi));
    assert_eq!(AesBackend::parse("aes-ni"), Some(AesBackend::AesNi));
    assert_eq!(AesBackend::parse(""), None);
    assert_eq!(AesBackend::parse("gpu"), None);
    // `table` names no engine: ignored like any other unknown value.
    assert_eq!(AesBackend::parse("table"), None);
}

#[test]
fn backend_names_round_trip_through_parse() {
    for backend in [AesBackend::Scalar, AesBackend::AesNi] {
        assert_eq!(AesBackend::parse(backend.name()), Some(backend));
    }
}

// --- Cross-backend ciphertext equality (proptests) ------------------------

proptest! {
    /// Every backend produces the same AES-128 ciphertext for the same
    /// key/plaintext, and decrypts back to the plaintext.
    #[test]
    fn aes128_backends_byte_identical(key in any::<[u8; 16]>(),
                                      plain in any::<[u8; 16]>()) {
        let backends = runnable_backends();
        let mut ciphertexts = Vec::with_capacity(backends.len());
        for &backend in &backends {
            let cipher = Aes128::with_backend(&key, backend);
            let mut block = plain;
            cipher.encrypt_block(&mut block);
            ciphertexts.push((backend, block));
            cipher.decrypt_block(&mut block);
            prop_assert_eq!(block, plain, "roundtrip on {}", backend);
        }
        for window in ciphertexts.windows(2) {
            let (a, ct_a) = window[0];
            let (b, ct_b) = window[1];
            prop_assert_eq!(ct_a, ct_b, "{} vs {}", a, b);
        }
    }

    /// Same cross-backend equality for AES-256.
    #[test]
    fn aes256_backends_byte_identical(key in any::<[u8; 32]>(),
                                      plain in any::<[u8; 16]>()) {
        let backends = runnable_backends();
        let mut ciphertexts = Vec::with_capacity(backends.len());
        for &backend in &backends {
            let cipher = Aes256::with_backend(&key, backend);
            let mut block = plain;
            cipher.encrypt_block(&mut block);
            ciphertexts.push((backend, block));
            cipher.decrypt_block(&mut block);
            prop_assert_eq!(block, plain, "roundtrip on {}", backend);
        }
        for window in ciphertexts.windows(2) {
            let (a, ct_a) = window[0];
            let (b, ct_b) = window[1];
            prop_assert_eq!(ct_a, ct_b, "{} vs {}", a, b);
        }
    }

    /// The bulk entry point agrees with the one-at-a-time path on every
    /// backend — this is the path the seal pipeline and the DRBG use, and
    /// on AES-NI it takes the 8-wide pipelined route.
    #[test]
    fn bulk_matches_single_blocks(key in any::<[u8; 16]>(),
                                  blocks in proptest::collection::vec(
                                      any::<[u8; 16]>(), 0..40)) {
        for backend in runnable_backends() {
            let cipher = Aes128::with_backend(&key, backend);

            let mut bulk = blocks.clone();
            cipher.encrypt_blocks(&mut bulk);

            let mut singles = blocks.clone();
            for block in &mut singles {
                cipher.encrypt_block(block);
            }
            prop_assert_eq!(&bulk, &singles, "encrypt_blocks on {}", backend);

            cipher.decrypt_blocks(&mut bulk);
            prop_assert_eq!(&bulk, &blocks, "decrypt_blocks on {}", backend);
        }
    }
}

// --- SHA-256: the SHA-extension compression against the reference ------

/// A hasher on each engine, or `None` when this CPU lacks the SHA
/// extensions (the comparison is then skipped).
fn sha_engines() -> Option<(Sha256, Sha256)> {
    if !ShaBackend::shani_supported() {
        eprintln!("skipped: this CPU lacks the SHA extensions");
        return None;
    }
    let hardware = Sha256::with_backend(ShaBackend::ShaNi);
    let reference = Sha256::with_backend(ShaBackend::Scalar);
    assert_eq!((hardware.backend(), reference.backend()), (ShaBackend::ShaNi, ShaBackend::Scalar));
    Some((hardware, reference))
}

fn sha_message(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i.wrapping_mul(131) ^ (i >> 7)) as u8).collect()
}

#[test]
fn sha256_engines_agree_for_every_length_up_to_4096() {
    let Some((hardware, reference)) = sha_engines() else { return };
    let message = sha_message(4096);
    for len in 0..=message.len() {
        let (mut hw, mut sw) = (hardware.clone(), reference.clone());
        hw.update(&message[..len]);
        sw.update(&message[..len]);
        assert_eq!(hw.finalize(), sw.finalize(), "length {len}");
    }
}

#[test]
fn sha256_engines_agree_at_every_split_point() {
    let Some((hardware, reference)) = sha_engines() else { return };
    let message = sha_message(300);
    let mut expected = reference.clone();
    expected.update(&message);
    let expected = expected.finalize();
    for split in 0..=message.len() {
        for engine in [&hardware, &reference] {
            let mut hasher = engine.clone();
            hasher.update(&message[..split]);
            hasher.update(&message[split..]);
            assert_eq!(hasher.finalize(), expected, "{} split at {split}", engine.backend());
        }
    }
}

#[test]
fn sha256_known_answers_on_every_engine() {
    let mut engines = vec![ShaBackend::Scalar];
    if ShaBackend::shani_supported() {
        engines.push(ShaBackend::ShaNi);
    }
    let cases: [(&[u8], &str); 3] = [
        (b"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        (b"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"),
        (
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        ),
    ];
    for backend in engines {
        for (message, digest) in cases {
            let mut hasher = Sha256::with_backend(backend);
            hasher.update(message);
            assert_eq!(pe_crypto::hex::encode(&hasher.finalize()), digest, "{backend}");
        }
    }
}

#[test]
fn sha256_engine_follows_the_backend_pin() {
    let pinned = std::env::var(pe_crypto::aes::FORCE_BACKEND_ENV).ok().as_deref().and_then(AesBackend::parse);
    let expected = if pinned != Some(AesBackend::Scalar) && ShaBackend::shani_supported() {
        ShaBackend::ShaNi
    } else {
        ShaBackend::Scalar
    };
    assert_eq!(ShaBackend::select(), expected);
    assert_eq!(Sha256::new().backend(), expected);
}
