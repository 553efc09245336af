//! From-scratch cryptographic primitives for the private-editing system.
//!
//! The paper ("Private Editing Using Untrusted Cloud Services", Huang &
//! Evans, 2011) builds its incremental encryption schemes on top of a block
//! cipher (AES, via the Stanford JavaScript library), a password-based key
//! derivation step, and Base32 text encoding so that ciphertext can be
//! stored in a plain-text document field. This crate provides those
//! substrates, implemented from scratch and validated against the standard
//! test vectors:
//!
//! * [`aes`] — AES-128 / AES-256 block cipher (FIPS-197),
//! * [`sha256`] — SHA-256 hash (FIPS-180-4),
//! * [`hmac`] — HMAC-SHA-256 (RFC 2104 / RFC 4231),
//! * [`pbkdf2`] — PBKDF2-HMAC-SHA-256 password-based key derivation
//!   (RFC 2898),
//! * [`hkdf`] — HKDF-SHA-256 subkey derivation (RFC 5869),
//! * [`drbg`] — a deterministic AES-CTR random generator and the
//!   [`NonceSource`] abstraction used everywhere nonces are needed,
//! * [`kw`] — RFC 3394 AES Key Wrap, used by the multi-tenant layer to
//!   wrap per-document data keys under per-user key-encryption keys,
//! * [`base32`] — RFC 4648 Base32 text encoding,
//! * [`zeroize`] — best-effort wiping of secret material,
//! * [`hex`] — hexadecimal encoding,
//! * [`form`] — percent-encoding and `application/x-www-form-urlencoded`
//!   codecs used by the simulated wire protocol.
//!
//! # Backends
//!
//! AES dispatches over two byte-identical backends, selected once per
//! cipher construction ([`aes::AesBackend::select`]): hardware AES-NI
//! when CPUID reports it, the byte-oriented FIPS-197 reference engine
//! otherwise. SHA-256 does the same once per process
//! ([`sha256::ShaBackend::select`]): the x86 SHA extensions when CPUID
//! reports them, the FIPS-180-4 compression otherwise.
//! `PE_CRYPTO_FORCE_BACKEND={scalar,aesni}` pins the choice for tests and
//! benchmarks; `scalar` pins both reference engines.
//!
//! # Security note
//!
//! These implementations favour clarity and correctness over side-channel
//! resistance (the software AES engine's S-box lookups are not
//! constant-time; AES-NI is). They are research reproductions, not
//! production cryptography.
//!
//! # Example
//!
//! ```
//! use pe_crypto::aes::Aes128;
//! use pe_crypto::BlockCipher;
//!
//! let key = [0u8; 16];
//! let cipher = Aes128::new(&key);
//! let mut block = *b"sixteen byte msg";
//! let original = block;
//! cipher.encrypt_block(&mut block);
//! assert_ne!(block, original);
//! cipher.decrypt_block(&mut block);
//! assert_eq!(block, original);
//! ```

// `deny` rather than `forbid`: the AES-NI and SHA-extension modules
// carry the crate's only scoped allows, with per-call SAFETY comments
// (see `aesni` and `shani`).
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod aes;
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
pub(crate) mod aesni;
pub mod base32;
pub mod drbg;
pub mod error;
pub mod form;
pub mod hex;
pub mod hkdf;
pub mod hmac;
pub mod kw;
pub mod pbkdf2;
pub mod sha256;
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
pub(crate) mod shani;
pub mod zeroize;

pub use aes::{Aes128, Aes256, AesBackend};
pub use drbg::{CtrDrbg, NonceSource, SystemRandom};
pub use error::CryptoError;

/// A 128-bit block cipher usable by the incremental encryption modes.
///
/// Implemented by [`Aes128`] and [`Aes256`]. The trait is deliberately
/// narrow: the incremental schemes only ever need in-place single-block
/// encryption and decryption of 16-byte blocks.
pub trait BlockCipher: Send + Sync {
    /// Block width in bytes. Always 16 for the provided AES ciphers.
    const BLOCK_BYTES: usize = 16;

    /// Encrypts one 16-byte block in place.
    fn encrypt_block(&self, block: &mut [u8; 16]);

    /// Decrypts one 16-byte block in place.
    fn decrypt_block(&self, block: &mut [u8; 16]);

    /// Encrypts every block of a slice in place.
    ///
    /// The provided implementation is a plain loop; it exists so batch
    /// callers (full-document seal/open) have a single entry point that a
    /// cipher with hardware or vectorized multi-block support could
    /// override.
    fn encrypt_blocks(&self, blocks: &mut [[u8; 16]]) {
        for block in blocks {
            self.encrypt_block(block);
        }
    }

    /// Decrypts every block of a slice in place. See
    /// [`encrypt_blocks`](Self::encrypt_blocks).
    fn decrypt_blocks(&self, blocks: &mut [[u8; 16]]) {
        for block in blocks {
            self.decrypt_block(block);
        }
    }
}
