//! Hardware AES via the x86-64 AES-NI instruction set.
//!
//! One `aesenc` retires a full AES round, so a 10-round AES-128 block
//! costs ~10 cycles of latency — against the byte-at-a-time rounds of
//! the software engine — and the units are pipelined: independent blocks issue
//! back-to-back. The bulk entry points therefore process eight blocks per
//! loop iteration so the round instructions of all lanes are in flight at
//! once, which is where the gigabytes-per-second throughput comes from.
//!
//! Key expansion uses `aeskeygenassist` (FIPS-197 §5.2 with the SubWord /
//! RotWord / Rcon step done in hardware); decryption round keys apply
//! `aesimc` (InvMixColumns) to the inner encryption round keys: the
//! equivalent inverse cipher of FIPS-197 §5.3.5.
//!
//! # Safety
//!
//! This is the only module in `pe-crypto` that uses `unsafe` (the crate
//! is `#![deny(unsafe_code)]`; this module carries a scoped allow). The
//! contract is narrow and enforced at one spot: [`Schedule::expand`] is
//! the sole constructor and asserts [`supported`] — i.e. CPUID reports
//! the `aes` feature — before touching any intrinsic. Every other unsafe
//! function takes a [`Schedule`], and a `Schedule` existing proves the
//! check passed (CPU features do not vanish at runtime). All loads and
//! stores use the unaligned `loadu`/`storeu` intrinsics, so no alignment
//! obligations exist.
//!
//! Correctness is pinned by the same FIPS-197 / SP 800-38A KATs as the
//! other backends plus cross-backend ciphertext-equality proptests (see
//! `tests/backend_matrix.rs`).

use core::arch::x86_64::{
    __m128i, _mm_aesdec_si128, _mm_aesdeclast_si128, _mm_aesenc_si128, _mm_aesenclast_si128,
    _mm_aesimc_si128, _mm_aeskeygenassist_si128, _mm_loadu_si128, _mm_setzero_si128,
    _mm_shuffle_epi32, _mm_slli_si128, _mm_storeu_si128, _mm_xor_si128,
};

/// Round-key capacity (AES-256: 15 round keys).
const MAX_ROUND_KEYS: usize = 15;

/// Blocks processed per bulk-loop iteration. AES-NI `aesenc` has a few
/// cycles of latency but single-cycle throughput, so eight independent
/// chains keep the unit saturated.
const LANES: usize = 8;

/// Whether this CPU executes the AES-NI instructions.
#[inline]
pub(crate) fn supported() -> bool {
    std::arch::is_x86_feature_detected!("aes")
}

/// Expanded AES-NI round keys for both directions.
///
/// Keys are stored as plain byte arrays (re-loaded with `loadu` at use)
/// so the struct stays `Clone`/`Send`/`Sync` without alignment games; the
/// bulk entry points hoist the loads out of their block loops.
#[derive(Clone)]
pub(crate) struct Schedule {
    rounds: usize,
    enc: [[u8; 16]; MAX_ROUND_KEYS],
    dec: [[u8; 16]; MAX_ROUND_KEYS],
}

impl Schedule {
    /// Expands `key` (16 or 32 bytes) on the hardware key-schedule path.
    ///
    /// # Panics
    ///
    /// Panics if the CPU lacks AES-NI — callers are expected to consult
    /// [`supported`] first (backend selection does).
    pub(crate) fn expand(key: &[u8]) -> Schedule {
        assert!(supported(), "AES-NI schedule built without CPUID support");
        let rounds = match key.len() {
            16 => 10,
            32 => 14,
            other => unreachable!("AES keys are 16 or 32 bytes, got {other}"),
        };
        // SAFETY: `supported()` just confirmed the `aes` (and baseline
        // `sse2`) instructions exist on this CPU.
        let enc = unsafe {
            if rounds == 10 {
                expand128(key.try_into().expect("16-byte key"))
            } else {
                expand256(key.try_into().expect("32-byte key"))
            }
        };
        // SAFETY: as above; `enc` holds `rounds + 1` valid round keys.
        let dec = unsafe { invert_schedule(&enc, rounds) };
        Schedule { rounds, enc, dec }
    }

    /// Encrypts one block in place.
    #[inline]
    pub(crate) fn encrypt_block(&self, block: &mut [u8; 16]) {
        // SAFETY: a `Schedule` can only be built via `expand`, which
        // asserted AES-NI support.
        unsafe { encrypt_one(self, block) }
    }

    /// Decrypts one block in place.
    #[inline]
    pub(crate) fn decrypt_block(&self, block: &mut [u8; 16]) {
        // SAFETY: as in `encrypt_block`.
        unsafe { decrypt_one(self, block) }
    }

    /// Encrypts every block of `blocks` in place, [`LANES`] at a time.
    #[inline]
    pub(crate) fn encrypt_blocks(&self, blocks: &mut [[u8; 16]]) {
        // SAFETY: as in `encrypt_block`.
        unsafe { encrypt_many(self, blocks) }
    }

    /// Decrypts every block of `blocks` in place, [`LANES`] at a time.
    #[inline]
    pub(crate) fn decrypt_blocks(&self, blocks: &mut [[u8; 16]]) {
        // SAFETY: as in `encrypt_block`.
        unsafe { decrypt_many(self, blocks) }
    }
}

impl std::fmt::Debug for Schedule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        f.debug_struct("Schedule").field("rounds", &self.rounds).finish_non_exhaustive()
    }
}

/// Finishes one AES-128 key-schedule round: `assist` carries
/// `SubWord(RotWord(w)) ^ Rcon` in its high word (what
/// `aeskeygenassist` computes); broadcast it and fold in the running
/// prefix XOR of the previous round key's words.
#[inline]
#[target_feature(enable = "aes")]
unsafe fn mix_assist_ff(mut key: __m128i, assist: __m128i) -> __m128i {
    // Register-only intrinsics: safe to call once the enclosing
    // target-feature context establishes `aes`.
    let t = _mm_shuffle_epi32::<0xff>(assist);
    key = _mm_xor_si128(key, _mm_slli_si128::<4>(key));
    key = _mm_xor_si128(key, _mm_slli_si128::<4>(key));
    key = _mm_xor_si128(key, _mm_slli_si128::<4>(key));
    _mm_xor_si128(key, t)
}

/// The AES-256 even-step variant: SubWord without RotWord/Rcon, taken
/// from lane 2 of the assist result (shuffle 0xaa).
#[inline]
#[target_feature(enable = "aes")]
unsafe fn mix_assist_aa(mut key: __m128i, assist: __m128i) -> __m128i {
    // Register-only intrinsics: safe to call once the enclosing
    // target-feature context establishes `aes`.
    let t = _mm_shuffle_epi32::<0xaa>(assist);
    key = _mm_xor_si128(key, _mm_slli_si128::<4>(key));
    key = _mm_xor_si128(key, _mm_slli_si128::<4>(key));
    key = _mm_xor_si128(key, _mm_slli_si128::<4>(key));
    _mm_xor_si128(key, t)
}

/// AES-128 key expansion: 11 round keys via `aeskeygenassist`.
#[target_feature(enable = "aes")]
unsafe fn expand128(key: &[u8; 16]) -> [[u8; 16]; MAX_ROUND_KEYS] {
    let mut out = [[0u8; 16]; MAX_ROUND_KEYS];
    // SAFETY: unaligned intrinsics on in-bounds pointers; `aes` enabled.
    unsafe {
        let mut k = _mm_loadu_si128(key.as_ptr().cast());
        _mm_storeu_si128(out[0].as_mut_ptr().cast(), k);
        // The Rcon immediates are x^(i-1) in GF(2^8): 01,02,04,…,36.
        macro_rules! round {
            ($i:literal, $rcon:literal) => {
                k = mix_assist_ff(k, _mm_aeskeygenassist_si128::<$rcon>(k));
                _mm_storeu_si128(out[$i].as_mut_ptr().cast(), k);
            };
        }
        round!(1, 0x01);
        round!(2, 0x02);
        round!(3, 0x04);
        round!(4, 0x08);
        round!(5, 0x10);
        round!(6, 0x20);
        round!(7, 0x40);
        round!(8, 0x80);
        round!(9, 0x1b);
        round!(10, 0x36);
    }
    out
}

/// AES-256 key expansion: 15 round keys, alternating the Rcon step with
/// the SubWord-only step.
#[target_feature(enable = "aes")]
unsafe fn expand256(key: &[u8; 32]) -> [[u8; 16]; MAX_ROUND_KEYS] {
    let mut out = [[0u8; 16]; MAX_ROUND_KEYS];
    // SAFETY: unaligned intrinsics on in-bounds pointers; `aes` enabled.
    unsafe {
        let mut even = _mm_loadu_si128(key.as_ptr().cast());
        let mut odd = _mm_loadu_si128(key.as_ptr().add(16).cast());
        _mm_storeu_si128(out[0].as_mut_ptr().cast(), even);
        _mm_storeu_si128(out[1].as_mut_ptr().cast(), odd);
        macro_rules! pair {
            ($i:literal, $rcon:literal) => {
                even = mix_assist_ff(even, _mm_aeskeygenassist_si128::<$rcon>(odd));
                _mm_storeu_si128(out[$i].as_mut_ptr().cast(), even);
                odd = mix_assist_aa(odd, _mm_aeskeygenassist_si128::<0x00>(even));
                _mm_storeu_si128(out[$i + 1].as_mut_ptr().cast(), odd);
            };
        }
        pair!(2, 0x01);
        pair!(4, 0x02);
        pair!(6, 0x04);
        pair!(8, 0x08);
        pair!(10, 0x10);
        pair!(12, 0x20);
        // The final Rcon step fills round key 14; the schedule has no
        // odd half past it (15 round keys total).
        even = mix_assist_ff(even, _mm_aeskeygenassist_si128::<0x40>(odd));
        _mm_storeu_si128(out[14].as_mut_ptr().cast(), even);
    }
    out
}

/// Decryption round keys for the equivalent inverse cipher: reverse
/// round order with `aesimc` (InvMixColumns) on the inner rounds.
#[target_feature(enable = "aes")]
unsafe fn invert_schedule(
    enc: &[[u8; 16]; MAX_ROUND_KEYS],
    rounds: usize,
) -> [[u8; 16]; MAX_ROUND_KEYS] {
    let mut dec = [[0u8; 16]; MAX_ROUND_KEYS];
    dec[0] = enc[rounds];
    dec[rounds] = enc[0];
    // SAFETY: unaligned intrinsics on in-bounds pointers; `aes` enabled.
    unsafe {
        for r in 1..rounds {
            let k = _mm_loadu_si128(enc[rounds - r].as_ptr().cast());
            _mm_storeu_si128(dec[r].as_mut_ptr().cast(), _mm_aesimc_si128(k));
        }
    }
    dec
}

/// Loads the round keys into registers once per bulk call.
#[inline]
#[target_feature(enable = "aes")]
unsafe fn load_keys(keys: &[[u8; 16]; MAX_ROUND_KEYS]) -> [__m128i; MAX_ROUND_KEYS] {
    // SAFETY: in-bounds unaligned loads; `sse2` is x86-64 baseline.
    unsafe {
        let mut rk = [_mm_setzero_si128(); MAX_ROUND_KEYS];
        for (slot, key) in rk.iter_mut().zip(keys.iter()) {
            *slot = _mm_loadu_si128(key.as_ptr().cast());
        }
        rk
    }
}

#[target_feature(enable = "aes")]
unsafe fn encrypt_one(sched: &Schedule, block: &mut [u8; 16]) {
    // SAFETY: unaligned load/store of one in-bounds 16-byte block.
    unsafe {
        let rk = load_keys(&sched.enc);
        let mut b = _mm_loadu_si128(block.as_ptr().cast());
        b = _mm_xor_si128(b, rk[0]);
        for key in rk.iter().take(sched.rounds).skip(1) {
            b = _mm_aesenc_si128(b, *key);
        }
        b = _mm_aesenclast_si128(b, rk[sched.rounds]);
        _mm_storeu_si128(block.as_mut_ptr().cast(), b);
    }
}

#[target_feature(enable = "aes")]
unsafe fn decrypt_one(sched: &Schedule, block: &mut [u8; 16]) {
    // SAFETY: unaligned load/store of one in-bounds 16-byte block.
    unsafe {
        let rk = load_keys(&sched.dec);
        let mut b = _mm_loadu_si128(block.as_ptr().cast());
        b = _mm_xor_si128(b, rk[0]);
        for key in rk.iter().take(sched.rounds).skip(1) {
            b = _mm_aesdec_si128(b, *key);
        }
        b = _mm_aesdeclast_si128(b, rk[sched.rounds]);
        _mm_storeu_si128(block.as_mut_ptr().cast(), b);
    }
}

/// Expands to the shared shape of the two bulk loops: load [`LANES`]
/// blocks, whiten, run the pipelined round instruction lane-by-lane so
/// all chains stay independent, finish with the `last` instruction, and
/// handle the remainder one block at a time.
macro_rules! bulk {
    ($sched:expr, $blocks:expr, $keys:expr, $round:ident, $last:ident, $single:ident) => {{
        let sched = $sched;
        let blocks = $blocks;
        // SAFETY (macro expands only inside `aes` target-feature fns):
        // every load/store is an unaligned intrinsic on an in-bounds
        // 16-byte block.
        unsafe {
            let rk = load_keys(&$keys);
            let mut groups = blocks.chunks_exact_mut(LANES);
            for group in &mut groups {
                let mut lanes = [_mm_setzero_si128(); LANES];
                for (lane, block) in lanes.iter_mut().zip(group.iter()) {
                    *lane = _mm_xor_si128(_mm_loadu_si128(block.as_ptr().cast()), rk[0]);
                }
                for key in rk.iter().take(sched.rounds).skip(1) {
                    for lane in lanes.iter_mut() {
                        *lane = $round(*lane, *key);
                    }
                }
                for (lane, block) in lanes.iter_mut().zip(group.iter_mut()) {
                    *lane = $last(*lane, rk[sched.rounds]);
                    _mm_storeu_si128(block.as_mut_ptr().cast(), *lane);
                }
            }
            for block in groups.into_remainder() {
                $single(sched, block);
            }
        }
    }};
}

#[target_feature(enable = "aes")]
unsafe fn encrypt_many(sched: &Schedule, blocks: &mut [[u8; 16]]) {
    bulk!(sched, blocks, sched.enc, _mm_aesenc_si128, _mm_aesenclast_si128, encrypt_one)
}

#[target_feature(enable = "aes")]
unsafe fn decrypt_many(sched: &Schedule, blocks: &mut [[u8; 16]]) {
    bulk!(sched, blocks, sched.dec, _mm_aesdec_si128, _mm_aesdeclast_si128, decrypt_one)
}
