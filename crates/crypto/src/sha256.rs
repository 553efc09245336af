//! SHA-256 hash function (FIPS-180-4).
//!
//! Used for password-based key derivation ([`crate::pbkdf2`]), message
//! authentication ([`crate::hmac`]), and the simulated server's
//! `contentFromServerHash` field.
//!
//! The compression function has two engines, selected like the AES ones
//! ([`ShaBackend::select`]): the x86 SHA extensions when CPUID reports
//! them, and the FIPS-180-4 compression as the standard writes it
//! otherwise. Both run every block, buffered and final padding blocks
//! included, and produce the same digests.
//!
//! # Example
//!
//! ```
//! use pe_crypto::sha256::Sha256;
//!
//! let digest = Sha256::digest(b"abc");
//! assert_eq!(
//!     pe_crypto::hex::encode(&digest),
//!     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
//! );
//! ```

use std::sync::OnceLock;

use crate::aes::{AesBackend, FORCE_BACKEND_ENV};

/// Which compression engine a hasher runs.
///
/// [`FORCE_BACKEND_ENV`] pins both ciphers and hashes: `scalar` selects
/// the reference compression here too. The variable is read once per
/// process, the first time a hasher is built.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShaBackend {
    /// The FIPS-180-4 compression (the portable fallback).
    Scalar,
    /// The x86 SHA extensions (`sha256rnds2`, `sha256msg1`/`sha256msg2`).
    ShaNi,
}

impl ShaBackend {
    /// Stable lowercase name (`scalar` / `shani`).
    pub fn name(self) -> &'static str {
        match self {
            ShaBackend::Scalar => "scalar",
            ShaBackend::ShaNi => "shani",
        }
    }

    /// Whether this CPU can run the SHA-extension engine (x86-64 with the
    /// `sha`, `ssse3` and `sse4.1` CPUID feature flags).
    pub fn shani_supported() -> bool {
        #[cfg(target_arch = "x86_64")]
        {
            crate::shani::supported()
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    }

    /// The engine [`Sha256::new`] uses: the reference compression when
    /// [`FORCE_BACKEND_ENV`] pins `scalar`, otherwise the SHA extensions
    /// when CPUID reports them. Decided once per process.
    pub fn select() -> ShaBackend {
        static SELECTED: OnceLock<ShaBackend> = OnceLock::new();
        *SELECTED.get_or_init(|| {
            let forced =
                std::env::var(FORCE_BACKEND_ENV).ok().as_deref().and_then(AesBackend::parse);
            if forced != Some(AesBackend::Scalar) && ShaBackend::shani_supported() {
                ShaBackend::ShaNi
            } else {
                ShaBackend::Scalar
            }
        })
    }
}

impl std::fmt::Display for ShaBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The compression a hasher was built with. The hardware variant holds
/// the proof that CPUID reported the instructions.
#[derive(Debug, Clone, Copy)]
enum Engine {
    Reference,
    #[cfg(target_arch = "x86_64")]
    ShaNi(crate::shani::ShaNi),
}

impl Engine {
    fn build(backend: ShaBackend) -> Engine {
        match backend {
            #[cfg(target_arch = "x86_64")]
            ShaBackend::ShaNi => crate::shani::ShaNi::detect().map_or(Engine::Reference, Engine::ShaNi),
            _ => Engine::Reference,
        }
    }

    /// Runs the compression over every 64-byte block of `blocks`.
    fn compress(self, state: &mut [u32; 8], blocks: &[u8]) {
        debug_assert!(blocks.len().is_multiple_of(64));
        match self {
            Engine::Reference => {
                for block in blocks.chunks_exact(64) {
                    compress_reference(state, block);
                }
            }
            #[cfg(target_arch = "x86_64")]
            Engine::ShaNi(engine) => engine.compress(state, blocks),
        }
    }
}

/// Initial hash values (FIPS-180-4 §5.3.3).
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
    0x5be0cd19,
];

/// Round constants (FIPS-180-4 §4.2.2).
pub(crate) const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4,
    0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe,
    0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f,
    0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
    0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
    0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116,
    0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
    0xc67178f2,
];

/// Streaming SHA-256 hasher.
///
/// Feed data with [`Sha256::update`] and produce the 32-byte digest with
/// [`Sha256::finalize`]. For one-shot hashing use [`Sha256::digest`].
#[derive(Clone, Debug)]
pub struct Sha256 {
    state: [u32; 8],
    /// Bytes buffered until a full 64-byte block is available.
    buffer: [u8; 64],
    buffer_len: usize,
    /// Total message length in bytes.
    total_len: u64,
    engine: Engine,
}

impl Default for Sha256 {
    fn default() -> Sha256 {
        Sha256::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher on the engine [`ShaBackend::select`] picks.
    ///
    /// # Example
    ///
    /// ```
    /// use pe_crypto::sha256::Sha256;
    /// let mut hasher = Sha256::new();
    /// hasher.update(b"ab");
    /// hasher.update(b"c");
    /// assert_eq!(hasher.finalize(), Sha256::digest(b"abc"));
    /// ```
    pub fn new() -> Sha256 {
        Sha256::with_backend(ShaBackend::select())
    }

    /// Creates a hasher on a given engine (tests and benchmarks). Asking
    /// for the SHA extensions on a CPU without them gives the reference
    /// compression.
    pub fn with_backend(backend: ShaBackend) -> Sha256 {
        Sha256 {
            state: H0,
            buffer: [0u8; 64],
            buffer_len: 0,
            total_len: 0,
            engine: Engine::build(backend),
        }
    }

    /// The engine this hasher actually runs on.
    pub fn backend(&self) -> ShaBackend {
        match self.engine {
            Engine::Reference => ShaBackend::Scalar,
            #[cfg(target_arch = "x86_64")]
            Engine::ShaNi(_) => ShaBackend::ShaNi,
        }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut input = data;
        if self.buffer_len > 0 {
            let take = (64 - self.buffer_len).min(input.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&input[..take]);
            self.buffer_len += take;
            input = &input[take..];
            if self.buffer_len < 64 {
                return;
            }
            self.engine.compress(&mut self.state, &self.buffer);
            self.buffer_len = 0;
        }
        // Every whole block straight from the input, in one call.
        let whole = input.len() - input.len() % 64;
        self.engine.compress(&mut self.state, &input[..whole]);
        let rest = &input[whole..];
        self.buffer[..rest.len()].copy_from_slice(rest);
        self.buffer_len = rest.len();
    }

    /// Consumes the hasher and returns the 32-byte digest.
    pub fn finalize(self) -> [u8; 32] {
        // The buffered bytes, 0x80, zeros, and the 64-bit bit length end
        // one block, or two when fewer than 9 bytes are left in the first.
        let mut tail = [0u8; 128];
        let n = self.buffer_len;
        tail[..n].copy_from_slice(&self.buffer[..n]);
        tail[n] = 0x80;
        let end = if n < 56 { 64 } else { 128 };
        tail[end - 8..end].copy_from_slice(&self.total_len.wrapping_mul(8).to_be_bytes());
        let mut state = self.state;
        self.engine.compress(&mut state, &tail[..end]);
        let mut out = [0u8; 32];
        for (chunk, word) in out.chunks_exact_mut(4).zip(state) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// One-shot convenience wrapper.
    pub fn digest(data: &[u8]) -> [u8; 32] {
        let mut hasher = Sha256::new();
        hasher.update(data);
        hasher.finalize()
    }
}

/// The FIPS-180-4 §6.2.2 compression of one 64-byte block.
fn compress_reference(state: &mut [u32; 8], block: &[u8]) {
    let mut w = [0u32; 64];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let temp1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let temp2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(temp1);
        d = c;
        c = b;
        b = a;
        a = temp1.wrapping_add(temp2);
    }
    for (word, add) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *word = word.wrapping_add(add);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;

    #[test]
    fn empty_message() {
        assert_eq!(
            hex::encode(&Sha256::digest(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn fips_one_block_message() {
        assert_eq!(
            hex::encode(&Sha256::digest(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn fips_two_block_message() {
        let msg = b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq";
        assert_eq!(
            hex::encode(&Sha256::digest(msg)),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a() {
        let mut hasher = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            hasher.update(&chunk);
        }
        assert_eq!(
            hex::encode(&hasher.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn streaming_equals_oneshot_for_all_split_points() {
        let msg: Vec<u8> = (0..200u8).collect();
        let expect = Sha256::digest(&msg);
        for split in 0..msg.len() {
            let mut hasher = Sha256::new();
            hasher.update(&msg[..split]);
            hasher.update(&msg[split..]);
            assert_eq!(hasher.finalize(), expect, "split at {split}");
        }
    }

    #[test]
    fn lengths_straddling_block_boundaries() {
        // Exercise padding for every length around the 64-byte boundary.
        for len in 55..=130usize {
            let msg = vec![0x5au8; len];
            let mut hasher = Sha256::new();
            for b in &msg {
                hasher.update(std::slice::from_ref(b));
            }
            assert_eq!(hasher.finalize(), Sha256::digest(&msg), "len {len}");
        }
    }
}
