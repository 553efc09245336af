//! AES-128 and AES-256 block ciphers (FIPS-197) on two engines.
//!
//! Hardware AES-NI runs whenever CPUID reports it. Everywhere else the
//! byte-oriented FIPS-197 reference engine runs: the cipher exactly as
//! the standard writes it (SubBytes, ShiftRows, MixColumns, AddRoundKey
//! on a 16-byte state), with the S-box and its inverse as compile-time
//! constants. The same engine is the test oracle AES-NI is pinned
//! against. The reference engine is not constant-time — its S-box
//! lookups are indexed by key-dependent bytes — while AES-NI is.
//!
//! Correctness is pinned three ways:
//!
//! * the FIPS-197 Appendix C and SP 800-38A known answer tests,
//! * proptests that pin the dispatching cipher to the reference engine
//!   on random keys and blocks,
//! * round-trip tests over random blocks.
//!
//! The paper's prototype used the Stanford JavaScript crypto library's
//! AES; this module plays that role for the Rust reproduction.
//!
//! # Example
//!
//! ```
//! use pe_crypto::aes::Aes128;
//! use pe_crypto::BlockCipher;
//!
//! let cipher = Aes128::new(&[0u8; 16]);
//! let mut block = [0u8; 16];
//! cipher.encrypt_block(&mut block);
//! cipher.decrypt_block(&mut block);
//! assert_eq!(block, [0u8; 16]);
//! ```

use crate::BlockCipher;

/// Environment variable that pins the cipher backend (`scalar` or
/// `aesni`), overriding CPUID-based auto-selection.
pub const FORCE_BACKEND_ENV: &str = "PE_CRYPTO_FORCE_BACKEND";

/// Which cipher engine a key schedule was built on.
///
/// Selection happens **once per cipher construction** (`Aes128::new` /
/// `Aes256::new`): [`AesBackend::select`] consults
/// [`FORCE_BACKEND_ENV`], then CPUID. Both backends are byte-identical —
/// pinned by the FIPS-197 KATs and cross-backend proptests — so the
/// choice only affects speed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AesBackend {
    /// Byte-oriented FIPS-197 reference (the portable fallback).
    Scalar,
    /// Hardware AES-NI (`aesenc`/`aesdec` x86-64 instructions).
    AesNi,
}

impl AesBackend {
    /// Stable lowercase name (`scalar` / `aesni`).
    pub fn name(self) -> &'static str {
        match self {
            AesBackend::Scalar => "scalar",
            AesBackend::AesNi => "aesni",
        }
    }

    /// Parses a backend name as accepted by [`FORCE_BACKEND_ENV`].
    ///
    /// Case-insensitive; surrounding whitespace and `-`/`_` separators
    /// are ignored, so `AES-NI` and `aesni` both resolve.
    pub fn parse(text: &str) -> Option<AesBackend> {
        let normalized: String = text
            .trim()
            .chars()
            .filter(|c| *c != '-' && *c != '_')
            .map(|c| c.to_ascii_lowercase())
            .collect();
        match normalized.as_str() {
            "scalar" => Some(AesBackend::Scalar),
            "aesni" => Some(AesBackend::AesNi),
            _ => None,
        }
    }

    /// Whether this CPU can run the AES-NI backend (x86-64 with the
    /// `aes` CPUID feature flag).
    pub fn aesni_supported() -> bool {
        #[cfg(target_arch = "x86_64")]
        {
            crate::aesni::supported()
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    }

    /// The backend a fresh cipher will use: the reference engine when
    /// [`FORCE_BACKEND_ENV`] pins `scalar`, otherwise AES-NI when CPUID
    /// reports it and the reference engine when it does not (so forcing
    /// `aesni` runs everywhere). Unrecognized values are ignored.
    pub fn select() -> AesBackend {
        let forced = std::env::var(FORCE_BACKEND_ENV).ok().as_deref().and_then(AesBackend::parse);
        if forced != Some(AesBackend::Scalar) && AesBackend::aesni_supported() {
            AesBackend::AesNi
        } else {
            AesBackend::Scalar
        }
    }
}

impl std::fmt::Display for AesBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Counts a cipher construction under `crypto.backend.<name>`, so
/// `pedit stats` shows which engine the process actually ran.
fn record_backend_metric(backend: AesBackend) {
    match backend {
        AesBackend::Scalar => pe_observe::static_counter!("crypto.backend.scalar").inc(),
        AesBackend::AesNi => pe_observe::static_counter!("crypto.backend.aesni").inc(),
    }
}

/// The AES forward substitution box (FIPS-197 Figure 7).
const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab,
    0x76, 0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4,
    0x72, 0xc0, 0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71,
    0xd8, 0x31, 0x15, 0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2,
    0xeb, 0x27, 0xb2, 0x75, 0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6,
    0xb3, 0x29, 0xe3, 0x2f, 0x84, 0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb,
    0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf, 0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45,
    0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8, 0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5,
    0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2, 0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44,
    0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73, 0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a,
    0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb, 0xe0, 0x32, 0x3a, 0x0a, 0x49,
    0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79, 0xe7, 0xc8, 0x37, 0x6d,
    0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08, 0xba, 0x78, 0x25,
    0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a, 0x70, 0x3e,
    0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e, 0xe1,
    0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb,
    0x16,
];

/// Inverse S-box, derived from [`SBOX`] at compile time so the two tables
/// are consistent by construction.
const INV_SBOX: [u8; 256] = {
    let mut inv = [0u8; 256];
    let mut i = 0;
    while i < 256 {
        inv[SBOX[i] as usize] = i as u8;
        i += 1;
    }
    inv
};

/// Multiplication by `x` (i.e. `{02}`) in GF(2^8) modulo `x^8+x^4+x^3+x+1`.
#[inline]
const fn xtime(b: u8) -> u8 {
    (b << 1) ^ (if b & 0x80 != 0 { 0x1b } else { 0 })
}

/// General GF(2^8) multiplication (the decrypt-path MixColumns
/// coefficients are 9, 11, 13, 14).
#[inline]
const fn gmul(mut a: u8, mut b: u8) -> u8 {
    let mut p = 0u8;
    let mut i = 0;
    while i < 8 {
        if b & 1 != 0 {
            p ^= a;
        }
        a = xtime(a);
        b >>= 1;
        i += 1;
    }
    p
}

/// The backend-resolved cipher engine: exactly one schedule is expanded
/// per cipher, on the backend chosen at construction. The AES-NI
/// schedule (both directions' round keys inline) is boxed so a cipher
/// on the reference engine does not carry its size.
#[derive(Clone)]
enum Engine {
    Scalar(reference::ByteSchedule),
    #[cfg(target_arch = "x86_64")]
    AesNi(Box<crate::aesni::Schedule>),
}

impl Engine {
    /// Expands `key` on `backend`, falling back from AES-NI to the
    /// reference engine when the hardware lacks it (see
    /// [`AesBackend::select`]).
    fn build(key: &[u8], rounds: usize, backend: AesBackend) -> Engine {
        let backend = match backend {
            AesBackend::AesNi if !AesBackend::aesni_supported() => AesBackend::Scalar,
            other => other,
        };
        record_backend_metric(backend);
        match backend {
            AesBackend::Scalar => Engine::Scalar(reference::ByteSchedule::expand(key, rounds)),
            #[cfg(target_arch = "x86_64")]
            AesBackend::AesNi => Engine::AesNi(Box::new(crate::aesni::Schedule::expand(key))),
            #[cfg(not(target_arch = "x86_64"))]
            AesBackend::AesNi => unreachable!("aesni unsupported off x86-64"),
        }
    }

    fn backend(&self) -> AesBackend {
        match self {
            Engine::Scalar(_) => AesBackend::Scalar,
            #[cfg(target_arch = "x86_64")]
            Engine::AesNi(_) => AesBackend::AesNi,
        }
    }

    #[inline]
    fn encrypt_block(&self, block: &mut [u8; 16]) {
        match self {
            Engine::Scalar(ks) => reference::encrypt(ks, block),
            #[cfg(target_arch = "x86_64")]
            Engine::AesNi(ks) => ks.encrypt_block(block),
        }
    }

    #[inline]
    fn decrypt_block(&self, block: &mut [u8; 16]) {
        match self {
            Engine::Scalar(ks) => reference::decrypt(ks, block),
            #[cfg(target_arch = "x86_64")]
            Engine::AesNi(ks) => ks.decrypt_block(block),
        }
    }

    fn encrypt_blocks(&self, blocks: &mut [[u8; 16]]) {
        match self {
            Engine::Scalar(ks) => {
                for block in blocks {
                    reference::encrypt(ks, block);
                }
            }
            #[cfg(target_arch = "x86_64")]
            Engine::AesNi(ks) => ks.encrypt_blocks(blocks),
        }
    }

    fn decrypt_blocks(&self, blocks: &mut [[u8; 16]]) {
        match self {
            Engine::Scalar(ks) => {
                for block in blocks {
                    reference::decrypt(ks, block);
                }
            }
            #[cfg(target_arch = "x86_64")]
            Engine::AesNi(ks) => ks.decrypt_blocks(blocks),
        }
    }
}

/// AES with a 128-bit key (10 rounds).
#[derive(Clone)]
pub struct Aes128 {
    engine: Engine,
}

impl Aes128 {
    /// Constructs a cipher from a 16-byte key on the auto-selected
    /// backend ([`AesBackend::select`]), expanding both the encryption
    /// and decryption round keys up front.
    ///
    /// # Example
    ///
    /// ```
    /// use pe_crypto::aes::Aes128;
    /// let cipher = Aes128::new(&[7u8; 16]);
    /// # let _ = cipher;
    /// ```
    pub fn new(key: &[u8; 16]) -> Aes128 {
        Aes128::with_backend(key, AesBackend::select())
    }

    /// Constructs a cipher on an explicit backend (tests, benchmarks,
    /// and the forced-backend matrix). AES-NI falls back to the reference
    /// engine when the CPU lacks it.
    pub fn with_backend(key: &[u8; 16], backend: AesBackend) -> Aes128 {
        Aes128 { engine: Engine::build(key, 10, backend) }
    }

    /// The backend this cipher actually runs on (after any fallback).
    pub fn backend(&self) -> AesBackend {
        self.engine.backend()
    }
}

impl std::fmt::Debug for Aes128 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Aes128").field("backend", &self.backend()).finish_non_exhaustive()
    }
}

impl BlockCipher for Aes128 {
    fn encrypt_block(&self, block: &mut [u8; 16]) {
        self.engine.encrypt_block(block);
    }

    fn decrypt_block(&self, block: &mut [u8; 16]) {
        self.engine.decrypt_block(block);
    }

    fn encrypt_blocks(&self, blocks: &mut [[u8; 16]]) {
        self.engine.encrypt_blocks(blocks);
    }

    fn decrypt_blocks(&self, blocks: &mut [[u8; 16]]) {
        self.engine.decrypt_blocks(blocks);
    }
}

/// AES with a 256-bit key (14 rounds).
#[derive(Clone)]
pub struct Aes256 {
    engine: Engine,
}

impl Aes256 {
    /// Constructs a cipher from a 32-byte key on the auto-selected
    /// backend ([`AesBackend::select`]), expanding both the encryption
    /// and decryption round keys up front.
    ///
    /// # Example
    ///
    /// ```
    /// use pe_crypto::aes::Aes256;
    /// let cipher = Aes256::new(&[7u8; 32]);
    /// # let _ = cipher;
    /// ```
    pub fn new(key: &[u8; 32]) -> Aes256 {
        Aes256::with_backend(key, AesBackend::select())
    }

    /// Constructs a cipher on an explicit backend. See
    /// [`Aes128::with_backend`].
    pub fn with_backend(key: &[u8; 32], backend: AesBackend) -> Aes256 {
        Aes256 { engine: Engine::build(key, 14, backend) }
    }

    /// The backend this cipher actually runs on (after any fallback).
    pub fn backend(&self) -> AesBackend {
        self.engine.backend()
    }
}

impl std::fmt::Debug for Aes256 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Aes256").field("backend", &self.backend()).finish_non_exhaustive()
    }
}

impl BlockCipher for Aes256 {
    fn encrypt_block(&self, block: &mut [u8; 16]) {
        self.engine.encrypt_block(block);
    }

    fn decrypt_block(&self, block: &mut [u8; 16]) {
        self.engine.decrypt_block(block);
    }

    fn encrypt_blocks(&self, blocks: &mut [[u8; 16]]) {
        self.engine.encrypt_blocks(blocks);
    }

    fn decrypt_blocks(&self, blocks: &mut [[u8; 16]]) {
        self.engine.decrypt_blocks(blocks);
    }
}

mod reference {
    //! The byte-oriented FIPS-197 engine: the portable fallback on CPUs
    //! without AES-NI, and the oracle the test suite pins AES-NI against.

    use super::{gmul, xtime, INV_SBOX, SBOX};

    /// Round-key schedule shared by both key sizes: `round_keys[r]` is the
    /// 16-byte round key for round `r`.
    #[derive(Clone)]
    pub(super) struct ByteSchedule {
        round_keys: Vec<[u8; 16]>,
    }

    impl ByteSchedule {
        /// Expands `key` (16 or 32 bytes) following FIPS-197 §5.2.
        pub(super) fn expand(key: &[u8], rounds: usize) -> ByteSchedule {
            let nk = key.len() / 4;
            debug_assert!(nk == 4 || nk == 8);
            let total_words = 4 * (rounds + 1);
            let mut w: Vec<[u8; 4]> = Vec::with_capacity(total_words);
            for chunk in key.chunks_exact(4) {
                w.push([chunk[0], chunk[1], chunk[2], chunk[3]]);
            }
            let mut rcon: u8 = 0x01;
            for i in nk..total_words {
                let mut temp = w[i - 1];
                if i % nk == 0 {
                    // RotWord + SubWord + Rcon.
                    temp = [
                        SBOX[temp[1] as usize] ^ rcon,
                        SBOX[temp[2] as usize],
                        SBOX[temp[3] as usize],
                        SBOX[temp[0] as usize],
                    ];
                    rcon = xtime(rcon);
                } else if nk > 6 && i % nk == 4 {
                    // AES-256 extra SubWord.
                    temp = [
                        SBOX[temp[0] as usize],
                        SBOX[temp[1] as usize],
                        SBOX[temp[2] as usize],
                        SBOX[temp[3] as usize],
                    ];
                }
                let prev = w[i - nk];
                w.push([
                    prev[0] ^ temp[0],
                    prev[1] ^ temp[1],
                    prev[2] ^ temp[2],
                    prev[3] ^ temp[3],
                ]);
            }
            let round_keys = w
                .chunks_exact(4)
                .map(|c| {
                    let mut rk = [0u8; 16];
                    for (j, word) in c.iter().enumerate() {
                        rk[4 * j..4 * j + 4].copy_from_slice(word);
                    }
                    rk
                })
                .collect();
            ByteSchedule { round_keys }
        }
    }

    #[inline]
    fn add_round_key(state: &mut [u8; 16], rk: &[u8; 16]) {
        for (s, k) in state.iter_mut().zip(rk.iter()) {
            *s ^= k;
        }
    }

    #[inline]
    fn sub_bytes(state: &mut [u8; 16]) {
        for b in state.iter_mut() {
            *b = SBOX[*b as usize];
        }
    }

    #[inline]
    fn inv_sub_bytes(state: &mut [u8; 16]) {
        for b in state.iter_mut() {
            *b = INV_SBOX[*b as usize];
        }
    }

    /// ShiftRows on the column-major state: byte `r + 4c` holds row `r`,
    /// column `c` (FIPS-197 §3.4).
    #[inline]
    fn shift_rows(state: &mut [u8; 16]) {
        let s = *state;
        for r in 1..4 {
            for c in 0..4 {
                state[r + 4 * c] = s[r + 4 * ((c + r) % 4)];
            }
        }
    }

    #[inline]
    fn inv_shift_rows(state: &mut [u8; 16]) {
        let s = *state;
        for r in 1..4 {
            for c in 0..4 {
                state[r + 4 * ((c + r) % 4)] = s[r + 4 * c];
            }
        }
    }

    #[inline]
    fn mix_columns(state: &mut [u8; 16]) {
        for c in 0..4 {
            let col =
                [state[4 * c], state[4 * c + 1], state[4 * c + 2], state[4 * c + 3]];
            let t = col[0] ^ col[1] ^ col[2] ^ col[3];
            state[4 * c] = col[0] ^ t ^ xtime(col[0] ^ col[1]);
            state[4 * c + 1] = col[1] ^ t ^ xtime(col[1] ^ col[2]);
            state[4 * c + 2] = col[2] ^ t ^ xtime(col[2] ^ col[3]);
            state[4 * c + 3] = col[3] ^ t ^ xtime(col[3] ^ col[0]);
        }
    }

    #[inline]
    fn inv_mix_columns(state: &mut [u8; 16]) {
        for c in 0..4 {
            let col =
                [state[4 * c], state[4 * c + 1], state[4 * c + 2], state[4 * c + 3]];
            state[4 * c] =
                gmul(col[0], 14) ^ gmul(col[1], 11) ^ gmul(col[2], 13) ^ gmul(col[3], 9);
            state[4 * c + 1] =
                gmul(col[0], 9) ^ gmul(col[1], 14) ^ gmul(col[2], 11) ^ gmul(col[3], 13);
            state[4 * c + 2] =
                gmul(col[0], 13) ^ gmul(col[1], 9) ^ gmul(col[2], 14) ^ gmul(col[3], 11);
            state[4 * c + 3] =
                gmul(col[0], 11) ^ gmul(col[1], 13) ^ gmul(col[2], 9) ^ gmul(col[3], 14);
        }
    }

    pub(super) fn encrypt(schedule: &ByteSchedule, block: &mut [u8; 16]) {
        let rounds = schedule.round_keys.len() - 1;
        add_round_key(block, &schedule.round_keys[0]);
        for round in 1..rounds {
            sub_bytes(block);
            shift_rows(block);
            mix_columns(block);
            add_round_key(block, &schedule.round_keys[round]);
        }
        sub_bytes(block);
        shift_rows(block);
        add_round_key(block, &schedule.round_keys[rounds]);
    }

    pub(super) fn decrypt(schedule: &ByteSchedule, block: &mut [u8; 16]) {
        let rounds = schedule.round_keys.len() - 1;
        add_round_key(block, &schedule.round_keys[rounds]);
        for round in (1..rounds).rev() {
            inv_shift_rows(block);
            inv_sub_bytes(block);
            add_round_key(block, &schedule.round_keys[round]);
            inv_mix_columns(block);
        }
        inv_shift_rows(block);
        inv_sub_bytes(block);
        add_round_key(block, &schedule.round_keys[0]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;
    use proptest::prelude::*;

    fn hex16(s: &str) -> [u8; 16] {
        hex::decode(s).unwrap().try_into().unwrap()
    }

    /// FIPS-197 Appendix C.1: AES-128 known answer test.
    #[test]
    fn fips197_aes128_kat() {
        let key = hex16("000102030405060708090a0b0c0d0e0f");
        let cipher = Aes128::new(&key);
        let mut block = hex16("00112233445566778899aabbccddeeff");
        cipher.encrypt_block(&mut block);
        assert_eq!(hex::encode(&block), "69c4e0d86a7b0430d8cdb78070b4c55a");
        cipher.decrypt_block(&mut block);
        assert_eq!(hex::encode(&block), "00112233445566778899aabbccddeeff");
    }

    /// FIPS-197 Appendix C.3: AES-256 known answer test.
    #[test]
    fn fips197_aes256_kat() {
        let key: [u8; 32] = hex::decode(
            "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
        )
        .unwrap()
        .try_into()
        .unwrap();
        let cipher = Aes256::new(&key);
        let mut block = hex16("00112233445566778899aabbccddeeff");
        cipher.encrypt_block(&mut block);
        assert_eq!(hex::encode(&block), "8ea2b7ca516745bfeafc49904b496089");
        cipher.decrypt_block(&mut block);
        assert_eq!(hex::encode(&block), "00112233445566778899aabbccddeeff");
    }

    /// The reference oracle satisfies the same KATs independently.
    #[test]
    fn fips197_kats_hold_for_reference_oracle() {
        let key = hex16("000102030405060708090a0b0c0d0e0f");
        let cipher = Aes128::with_backend(&key, AesBackend::Scalar);
        let mut block = hex16("00112233445566778899aabbccddeeff");
        cipher.encrypt_block(&mut block);
        assert_eq!(hex::encode(&block), "69c4e0d86a7b0430d8cdb78070b4c55a");
        cipher.decrypt_block(&mut block);
        assert_eq!(hex::encode(&block), "00112233445566778899aabbccddeeff");

        let key: [u8; 32] = hex::decode(
            "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
        )
        .unwrap()
        .try_into()
        .unwrap();
        let cipher = Aes256::with_backend(&key, AesBackend::Scalar);
        let mut block = hex16("00112233445566778899aabbccddeeff");
        cipher.encrypt_block(&mut block);
        assert_eq!(hex::encode(&block), "8ea2b7ca516745bfeafc49904b496089");
    }

    /// NIST SP 800-38A F.1.1 ECB-AES128 first block.
    #[test]
    fn sp800_38a_ecb_aes128_block1() {
        let key = hex16("2b7e151628aed2a6abf7158809cf4f3c");
        let cipher = Aes128::new(&key);
        let mut block = hex16("6bc1bee22e409f96e93d7e117393172a");
        cipher.encrypt_block(&mut block);
        assert_eq!(hex::encode(&block), "3ad77bb40d7a3660a89ecaf32466ef97");
    }

    /// NIST SP 800-38A F.1.5 ECB-AES256 first block.
    #[test]
    fn sp800_38a_ecb_aes256_block1() {
        let key: [u8; 32] = hex::decode(
            "603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4",
        )
        .unwrap()
        .try_into()
        .unwrap();
        let cipher = Aes256::new(&key);
        let mut block = hex16("6bc1bee22e409f96e93d7e117393172a");
        cipher.encrypt_block(&mut block);
        assert_eq!(hex::encode(&block), "f3eed1bdb5d2a03c064b5a7e3db181f8");
    }

    #[test]
    fn roundtrip_many_random_blocks() {
        // A deterministic LCG avoids proptest overhead here.
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as u8
        };
        let mut key = [0u8; 16];
        key.iter_mut().for_each(|b| *b = next());
        let cipher = Aes128::new(&key);
        for _ in 0..200 {
            let mut block = [0u8; 16];
            block.iter_mut().for_each(|b| *b = next());
            let original = block;
            cipher.encrypt_block(&mut block);
            assert_ne!(block, original, "encryption must change the block");
            cipher.decrypt_block(&mut block);
            assert_eq!(block, original);
        }
    }

    #[test]
    fn different_keys_give_different_ciphertexts() {
        let c1 = Aes128::new(&[0u8; 16]);
        let c2 = Aes128::new(&[1u8; 16]);
        let mut b1 = [0x42u8; 16];
        let mut b2 = [0x42u8; 16];
        c1.encrypt_block(&mut b1);
        c2.encrypt_block(&mut b2);
        assert_ne!(b1, b2);
    }

    #[test]
    fn inv_sbox_inverts_sbox() {
        for i in 0..=255u8 {
            assert_eq!(INV_SBOX[SBOX[i as usize] as usize], i);
        }
    }

    #[test]
    fn gmul_matches_known_products() {
        // {57} . {83} = {c1} from the FIPS-197 §4.2 example.
        assert_eq!(gmul(0x57, 0x83), 0xc1);
        // {57} . {13} = {fe} from the same section.
        assert_eq!(gmul(0x57, 0x13), 0xfe);
    }

    #[test]
    fn batch_helpers_match_single_block_calls() {
        let cipher = Aes128::new(&[0x5au8; 16]);
        let mut blocks = [[0u8; 16]; 9];
        for (i, b) in blocks.iter_mut().enumerate() {
            b.fill(i as u8);
        }
        let mut expected = blocks;
        for b in expected.iter_mut() {
            cipher.encrypt_block(b);
        }
        cipher.encrypt_blocks(&mut blocks);
        assert_eq!(blocks, expected);
        cipher.decrypt_blocks(&mut blocks);
        for (i, b) in blocks.iter().enumerate() {
            assert!(b.iter().all(|&x| x == i as u8));
        }
    }

    proptest! {
        /// The dispatching cipher (AES-NI where the CPU has it) agrees
        /// with the byte-oriented reference engine on random keys and
        /// blocks, both directions, both key sizes.
        #[test]
        fn dispatch_matches_reference_aes128(key in proptest::array::uniform16(any::<u8>()),
                                             block in proptest::array::uniform16(any::<u8>())) {
            let fast = Aes128::new(&key);
            let oracle = Aes128::with_backend(&key, AesBackend::Scalar);
            let mut a = block;
            let mut b = block;
            fast.encrypt_block(&mut a);
            oracle.encrypt_block(&mut b);
            prop_assert_eq!(a, b, "encrypt mismatch");
            fast.decrypt_block(&mut a);
            oracle.decrypt_block(&mut b);
            prop_assert_eq!(a, block);
            prop_assert_eq!(b, block);
            // Decrypt also agrees on arbitrary (non-ciphertext) input.
            let mut c = block;
            let mut d = block;
            fast.decrypt_block(&mut c);
            oracle.decrypt_block(&mut d);
            prop_assert_eq!(c, d, "decrypt mismatch");
        }

        #[test]
        fn dispatch_matches_reference_aes256(key in proptest::array::uniform32(any::<u8>()),
                                             block in proptest::array::uniform16(any::<u8>())) {
            let fast = Aes256::new(&key);
            let oracle = Aes256::with_backend(&key, AesBackend::Scalar);
            let mut a = block;
            let mut b = block;
            fast.encrypt_block(&mut a);
            oracle.encrypt_block(&mut b);
            prop_assert_eq!(a, b, "encrypt mismatch");
            let mut c = block;
            let mut d = block;
            fast.decrypt_block(&mut c);
            oracle.decrypt_block(&mut d);
            prop_assert_eq!(c, d, "decrypt mismatch");
        }
    }
}
