//! SHA-256 compression on the x86 SHA extensions.
//!
//! `sha256rnds2` retires two rounds per instruction on the state held as
//! two registers (`ABEF` and `CDGH`), and `sha256msg1`/`sha256msg2`
//! extend the message schedule four words at a time, so a 64-byte block
//! is 32 round instructions and 12 schedule steps instead of the 64
//! scalar rounds of the reference compression. The layout follows
//! Intel's description of the extensions: the state is permuted into
//! `ABEF`/`CDGH` once per call, every block of the call runs on those
//! registers, and the permutation is undone at the end.
//!
//! # Safety
//!
//! Besides the AES-NI module, this is the only module in `pe-crypto` that
//! uses `unsafe`, under a scoped allow. The contract sits at one spot:
//! [`ShaNi::detect`] is the sole constructor of the [`ShaNi`] token and
//! returns one only when CPUID reports `sha`, `ssse3` and `sse4.1`
//! ([`supported`]). [`ShaNi::compress`] takes the token, and a token
//! existing proves the check passed (CPU features do not vanish at run
//! time). All loads and stores are unaligned `loadu`/`storeu` intrinsics
//! on in-bounds pointers, so no alignment obligation exists.
//!
//! Correctness is pinned by the FIPS-180-4 known answers and by tests
//! that compare this compression with the reference one at every length
//! from 0 to 4096 bytes and at every split point of a streaming update
//! (`tests/backend_matrix.rs`).

use core::arch::x86_64::{
    __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_loadu_si128, _mm_set_epi64x,
    _mm_setzero_si128, _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32,
    _mm_shuffle_epi32, _mm_shuffle_epi8, _mm_storeu_si128,
};

use crate::sha256::K;

/// Whether this CPU executes the SHA extensions and the SSSE3/SSE4.1
/// shuffles the compression uses around them.
pub(crate) fn supported() -> bool {
    std::arch::is_x86_feature_detected!("sha")
        && std::arch::is_x86_feature_detected!("ssse3")
        && std::arch::is_x86_feature_detected!("sse4.1")
}

/// Proof that CPUID reported the instructions [`compress_blocks`] needs.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ShaNi(());

impl ShaNi {
    /// The token, when this CPU supports the SHA extensions.
    pub(crate) fn detect() -> Option<ShaNi> {
        supported().then_some(ShaNi(()))
    }

    /// Compresses every 64-byte block of `blocks` into `state`.
    pub(crate) fn compress(self, state: &mut [u32; 8], blocks: &[u8]) {
        assert!(blocks.len().is_multiple_of(64), "SHA-256 compresses whole 64-byte blocks");
        if blocks.is_empty() {
            return;
        }
        // SAFETY: a `ShaNi` exists only after `detect` saw the `sha`,
        // `ssse3` and `sse4.1` features on this CPU.
        unsafe { compress_blocks(state, blocks) }
    }
}

#[target_feature(enable = "sha,ssse3,sse4.1")]
unsafe fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
    // Reverses the bytes of each 32-bit lane: message words are big-endian.
    let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
    // SAFETY: unaligned loads and stores of the 8-word state and of the
    // 16-byte quarters of each in-bounds 64-byte block and of `K`; the
    // enclosing target features cover every intrinsic.
    unsafe {
        let dcba = _mm_loadu_si128(state.as_ptr().cast());
        let hgfe = _mm_loadu_si128(state.as_ptr().add(4).cast());
        let cdab = _mm_shuffle_epi32::<0xb1>(dcba);
        let efgh = _mm_shuffle_epi32::<0x1b>(hgfe);
        let mut abef = _mm_alignr_epi8::<8>(cdab, efgh);
        let mut cdgh = _mm_blend_epi16::<0xf0>(efgh, cdab);
        for block in blocks.chunks_exact(64) {
            let (abef_in, cdgh_in) = (abef, cdgh);
            // The last four 4-word groups of the message schedule.
            let mut w: [__m128i; 4] = [_mm_setzero_si128(); 4];
            for group in 0..16 {
                let words = if group < 4 {
                    _mm_shuffle_epi8(_mm_loadu_si128(block.as_ptr().add(16 * group).cast()), bswap)
                } else {
                    // W[t] from W[t-16], W[t-15], W[t-7] and W[t-2], four
                    // lanes at a time: groups g-4, g-3, g-2 and g-1.
                    let (g4, g3) = (w[group % 4], w[(group + 1) % 4]);
                    let (g2, g1) = (w[(group + 2) % 4], w[(group + 3) % 4]);
                    let t7 = _mm_alignr_epi8::<4>(g1, g2);
                    _mm_sha256msg2_epu32(_mm_add_epi32(_mm_sha256msg1_epu32(g4, g3), t7), g1)
                };
                w[group % 4] = words;
                let wk = _mm_add_epi32(words, _mm_loadu_si128(K.as_ptr().add(4 * group).cast()));
                cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32::<0x0e>(wk));
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }
        let feba = _mm_shuffle_epi32::<0x1b>(abef);
        let dchg = _mm_shuffle_epi32::<0xb1>(cdgh);
        _mm_storeu_si128(state.as_mut_ptr().cast(), _mm_blend_epi16::<0xf0>(feba, dchg));
        _mm_storeu_si128(state.as_mut_ptr().add(4).cast(), _mm_alignr_epi8::<8>(dchg, feba));
    }
}
