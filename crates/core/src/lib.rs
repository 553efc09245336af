//! Incremental encryption for private editing on untrusted cloud services.
//!
//! This crate is the primary contribution of the reproduced paper
//! ("Private Editing Using Untrusted Cloud Services", Huang & Evans,
//! 2011): encryption schemes whose ciphertext can be **updated
//! incrementally** as the user edits, so that a client-side mediator can
//! keep only ciphertext on the cloud server while paying sub-linear cost
//! per edit.
//!
//! # Schemes
//!
//! * [`RecbDocument`] — the *randomized ECB* (rECB) mode of
//!   Buonanno–Katz–Yung: confidentiality only. Every plaintext block is
//!   XORed with a fresh nonce and sealed together with `r0 ⊕ rᵢ` in one
//!   AES block, so blocks are independent given the document nonce `r0`
//!   and each edit touches O(1) ciphertext blocks.
//! * [`RpcDocument`] — the *RPC* mode (confidentiality **and**
//!   integrity): blocks are circularly chained through random nonces and
//!   a final checksum block seals the XOR aggregates. The Wang–Kao–Yeh
//!   amendment is applied: the document length is bound into the checksum
//!   block, defeating truncation/forgery attacks.
//! * Baselines in [`baseline`]: [`baseline::CoCloDocument`] re-encrypts
//!   the whole document on every update (the CoClo comparator the paper
//!   measures against), and [`baseline::XorDocument`] is the XOR scheme
//!   §V-A cites as vulnerable to substitution attacks — implemented so the
//!   attack can be demonstrated.
//!
//! # Variable-length blocks
//!
//! Plaintext is grouped into blocks of up to `b` characters
//! (`1 ≤ b ≤ 8`, §V-C). Blocks are managed by the
//! [`IndexedSkipList`](pe_indexlist::IndexedSkipList), giving expected
//! `O(log n)` location of the blocks an edit touches. Because splits and
//! merges leave blocks partially filled, ciphertext size shows the
//! fragmentation the paper reports in Figure 7.
//!
//! # Wire format
//!
//! The server stores a plain text string: a short cleartext preamble
//! (scheme id, block size, KDF salt) followed by fixed-width Base32
//! records, one per ciphertext block (see [`wire`]). Incremental updates
//! are expressed as ordinary [`pe_delta::Delta`] values over that string,
//! so the server never needs to know encryption is in use.
//!
//! # Example
//!
//! ```
//! use pe_core::{DocumentKey, EditOp, IncrementalCipherDoc, RecbDocument, SchemeParams};
//! use pe_crypto::CtrDrbg;
//!
//! let key = DocumentKey::derive("password", &[7u8; 16], 100);
//! let params = SchemeParams::recb(8);
//! let mut doc = RecbDocument::create(&key, params, b"hello world", CtrDrbg::from_seed(1))?;
//! doc.apply(&EditOp::insert(5, b", dear"))?;
//! assert_eq!(doc.decrypt()?, b"hello, dear world");
//! # Ok::<(), pe_core::CoreError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
mod batch;
mod error;
pub mod guard;
mod keys;
mod pack;
pub mod presence;
mod recb;
mod rpc;
mod splice;
mod transform;
pub mod wire;

pub use error::CoreError;
pub use guard::MerkleGuard;
pub use keys::{DocumentKey, Mode, SchemeParams};
pub use pack::SealedBlock;
pub use presence::{Presence, PresenceSealer};
pub use recb::RecbDocument;
pub use rpc::RpcDocument;
pub use transform::{delta_to_patches, patches_to_delta, update_wire_len, DeltaTransformer};
pub use wire::{CipherPatch, Layout};

/// A byte-level edit operation against the plaintext document.
///
/// The mediator translates the client's character-based
/// [`Delta`](pe_delta::Delta) operations into these (UTF-8 byte indexed)
/// operations before handing them to an encrypted document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EditOp {
    /// Insert `text` so that it starts at byte offset `at`.
    Insert {
        /// Byte offset at which the insertion starts (0 ≤ at ≤ len).
        at: usize,
        /// Bytes to insert.
        text: Vec<u8>,
    },
    /// Delete `len` bytes starting at byte offset `at`.
    Delete {
        /// Byte offset of the first deleted byte.
        at: usize,
        /// Number of bytes to delete.
        len: usize,
    },
}

impl EditOp {
    /// Convenience constructor for an insertion.
    pub fn insert(at: usize, text: &[u8]) -> EditOp {
        EditOp::Insert { at, text: text.to_vec() }
    }

    /// Convenience constructor for a deletion.
    pub fn delete(at: usize, len: usize) -> EditOp {
        EditOp::Delete { at, len }
    }
}

/// The plaintext effect of one foreign record splice, in byte offsets of
/// the document *before* the change: `removed` bytes starting at `at`
/// gave way to `inserted`.
///
/// Blocks are byte chunks, so `at` and `at + removed` may cut a
/// multi-byte UTF-8 character; callers that hold text widen the window
/// to character boundaries themselves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlainSplice {
    /// Byte offset of the first replaced byte.
    pub at: usize,
    /// Number of bytes replaced.
    pub removed: usize,
    /// Replacement bytes (the decrypted inserted blocks).
    pub inserted: Vec<u8>,
}

/// The common surface of every encrypted-document implementation: the
/// paper's 4-tuple `(K, Enc, Dec, IncE)` with `K` factored into
/// [`DocumentKey`] and `IncE` exposed as [`apply`](Self::apply).
///
/// Implemented by [`RecbDocument`], [`RpcDocument`], and
/// [`baseline::CoCloDocument`]; the mediator works against this trait so
/// the scheme is a runtime choice.
pub trait IncrementalCipherDoc {
    /// Current plaintext length in bytes.
    fn len(&self) -> usize;

    /// True when the document is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Decrypts and returns the full plaintext (`Dec`).
    ///
    /// # Errors
    ///
    /// Fails when integrity verification fails (integrity-providing
    /// schemes) or the internal state is malformed.
    fn decrypt(&self) -> Result<Vec<u8>, CoreError>;

    /// Applies one edit, returning the ciphertext patches that transform
    /// the previous serialized ciphertext into the new one (`IncE`).
    ///
    /// Patches are sorted by record index and non-overlapping; see
    /// [`CipherPatch`].
    ///
    /// # Errors
    ///
    /// Fails when the edit is out of bounds.
    fn apply(&mut self, op: &EditOp) -> Result<Vec<CipherPatch>, CoreError>;

    /// Replaces the entire document contents (the protocol's full
    /// `docContents` save, which re-encrypts everything).
    ///
    /// Unlike [`apply`](Self::apply) this returns no patches: a full save
    /// ships the whole serialized ciphertext, so callers reserialize via
    /// [`serialize`](Self::serialize). The provided implementation edits
    /// the document in two splices; [`RecbDocument`] and [`RpcDocument`]
    /// override it with a batch seal path that packs and encrypts all
    /// blocks in one pass.
    ///
    /// # Errors
    ///
    /// Fails only if the underlying edits fail (not expected for a full
    /// replacement).
    fn replace_all(&mut self, plaintext: &[u8]) -> Result<(), CoreError> {
        let len = self.len();
        if len > 0 {
            self.apply(&EditOp::delete(0, len))?;
        }
        if !plaintext.is_empty() {
            self.apply(&EditOp::insert(0, plaintext))?;
        }
        Ok(())
    }

    /// Applies record splices someone else's [`apply`](Self::apply)
    /// produced — a collaborator's save, recovered from the ciphertext
    /// delta the server fans out by [`delta_to_patches`] — and returns
    /// their plaintext effect as ascending, non-overlapping
    /// [`PlainSplice`]s (a patch that changes no plaintext, such as an
    /// RPC checksum update, yields none).
    ///
    /// Only the inserted records are decoded and decrypted; block offsets
    /// come from the block index, so the cost is O(change · log n)
    /// whatever the document length. Integrity-providing schemes verify
    /// the splice as a full open would (header, chain links at every
    /// splice edge, checksum and length aggregates). Nothing is mutated
    /// unless every check passes, so an error leaves the document as it
    /// was and the caller can resynchronize from the server's copy.
    ///
    /// The provided implementation rejects every splice: schemes without
    /// an incremental check (the whole-document baselines) are always
    /// resynchronized instead.
    ///
    /// # Errors
    ///
    /// [`CoreError::Malformed`] for patches that do not fit the document
    /// or records that do not decode, [`CoreError::IntegrityFailure`]
    /// when verification fails.
    fn apply_foreign(&mut self, patches: &[CipherPatch]) -> Result<Vec<PlainSplice>, CoreError> {
        let _ = patches;
        Err(CoreError::Malformed { detail: "this scheme cannot verify a record splice".into() })
    }

    /// Serializes the full ciphertext document (the string the server
    /// stores).
    fn serialize(&self) -> String;

    /// The layout of the serialized form (preamble length, record width),
    /// needed to express patches as character-level deltas.
    fn layout(&self) -> Layout;
}

impl<T: IncrementalCipherDoc + ?Sized> IncrementalCipherDoc for Box<T> {
    fn len(&self) -> usize {
        (**self).len()
    }

    fn decrypt(&self) -> Result<Vec<u8>, CoreError> {
        (**self).decrypt()
    }

    fn apply(&mut self, op: &EditOp) -> Result<Vec<CipherPatch>, CoreError> {
        (**self).apply(op)
    }

    fn replace_all(&mut self, plaintext: &[u8]) -> Result<(), CoreError> {
        (**self).replace_all(plaintext)
    }

    fn apply_foreign(&mut self, patches: &[CipherPatch]) -> Result<Vec<PlainSplice>, CoreError> {
        (**self).apply_foreign(patches)
    }

    fn serialize(&self) -> String {
        (**self).serialize()
    }

    fn layout(&self) -> Layout {
        (**self).layout()
    }
}
