//! Client-side integrity guard for confidentiality-only documents.
//!
//! §V-A of the paper observes: "integrity can be obtained at marginal
//! cost if it is added onto a confidentiality-only service". This module
//! realizes that remark: [`MerkleGuard`] wraps any
//! [`IncrementalCipherDoc`] (in practice the rECB document) and maintains
//! a client-side [`MerkleTree`] over the serialized ciphertext records.
//! The 32-byte root is the only extra state the client must keep; every
//! incremental update adjusts the tree from the same
//! [`CipherPatch`]es the scheme already produces, and
//! [`MerkleGuard::verify_served`] authenticates a document fetched from
//! the server against the root.
//!
//! Cost model (the trade §V-A describes): replace-updates cost
//! `O(log n)` hashes; insert/delete rebuild the affected tree in `O(n)`
//! hash operations — cheaper in constants than RPC's re-encryption but
//! asymptotically worse for inserts, and requiring client-side state that
//! RPC does not need. The ablation benchmarks quantify this.

use pe_crypto::sha256::Sha256;

use crate::baseline::MerkleTree;
use crate::error::CoreError;
use crate::wire::{split_records, CipherPatch, Layout};
use crate::{EditOp, IncrementalCipherDoc, PlainSplice};

/// A confidentiality-only document wrapped with client-side Merkle
/// integrity.
///
/// # Example
///
/// ```
/// use pe_core::guard::MerkleGuard;
/// use pe_core::{DocumentKey, EditOp, IncrementalCipherDoc, RecbDocument, SchemeParams};
/// use pe_crypto::CtrDrbg;
///
/// let key = DocumentKey::derive("pw", &[3u8; 16], 100);
/// let doc = RecbDocument::create(&key, SchemeParams::recb(8), b"text", CtrDrbg::from_seed(1))?;
/// let mut guarded = MerkleGuard::new(doc);
/// guarded.apply(&EditOp::insert(4, b" more"))?;
/// // The root commitment authenticates the server's copy:
/// let served = guarded.serialize();
/// assert!(guarded.verify_served(&served).is_ok());
/// # Ok::<(), pe_core::CoreError>(())
/// ```
pub struct MerkleGuard<D> {
    inner: D,
    tree: MerkleTree,
}

impl<D: std::fmt::Debug> std::fmt::Debug for MerkleGuard<D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MerkleGuard")
            .field("inner", &self.inner)
            .field("records", &self.tree.len())
            .finish()
    }
}

impl<D: IncrementalCipherDoc> MerkleGuard<D> {
    /// Wraps a document, committing to its current serialized records.
    pub fn new(inner: D) -> MerkleGuard<D> {
        let wire = inner.serialize();
        let records = split_records(&wire).expect("own serialization is well-formed");
        let tree = MerkleTree::build(records.iter().map(|r| r.as_bytes()));
        MerkleGuard { inner, tree }
    }

    /// The wrapped document.
    pub fn inner(&self) -> &D {
        &self.inner
    }

    /// The 32-byte root commitment — the only state a client must keep
    /// (out of the server's reach) to detect tampering.
    pub fn root(&self) -> [u8; 32] {
        self.tree.root()
    }

    /// A compact fingerprint combining the root with the record count
    /// (handy for logs and cross-device comparison).
    pub fn fingerprint(&self) -> String {
        let mut hasher = Sha256::new();
        hasher.update(&self.tree.root());
        hasher.update(&(self.tree.len() as u64).to_be_bytes());
        pe_crypto::hex::encode(&hasher.finalize()[..8])
    }

    /// Verifies a document serialization fetched from the server against
    /// the root commitment.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::IntegrityFailure`] when the served records do
    /// not hash to the committed root, [`CoreError::Malformed`] when the
    /// serialization is structurally invalid.
    pub fn verify_served(&self, served: &str) -> Result<(), CoreError> {
        let records = split_records(served)?;
        let tree = MerkleTree::build(records.iter().map(|r| r.as_bytes()));
        if tree.root() != self.tree.root() {
            return Err(CoreError::IntegrityFailure {
                detail: "served document does not match the Merkle root commitment".into(),
            });
        }
        Ok(())
    }

    /// Applies the record-level effect of `patches` to the tree.
    fn track(&mut self, patches: &[CipherPatch]) {
        // Patches index the PRE-update records; apply right-to-left so
        // earlier indices stay valid.
        for patch in patches.iter().rev() {
            for _ in 0..patch.removed {
                self.tree.remove(patch.start_record);
            }
            for (i, record) in patch.inserted.iter().enumerate() {
                self.tree.insert(patch.start_record + i, record.as_bytes());
            }
        }
    }
}

impl<D: IncrementalCipherDoc> IncrementalCipherDoc for MerkleGuard<D> {
    fn len(&self) -> usize {
        self.inner.len()
    }

    fn decrypt(&self) -> Result<Vec<u8>, CoreError> {
        self.inner.decrypt()
    }

    fn apply(&mut self, op: &EditOp) -> Result<Vec<CipherPatch>, CoreError> {
        let patches = self.inner.apply(op)?;
        self.track(&patches);
        debug_assert_eq!(
            self.tree.root(),
            MerkleGuard::new_root_of(&self.inner),
            "tracked tree must match a rebuild"
        );
        Ok(patches)
    }

    fn apply_foreign(&mut self, patches: &[CipherPatch]) -> Result<Vec<PlainSplice>, CoreError> {
        let splices = self.inner.apply_foreign(patches)?;
        self.track(patches);
        debug_assert_eq!(
            self.tree.root(),
            MerkleGuard::new_root_of(&self.inner),
            "tracked tree must match a rebuild"
        );
        Ok(splices)
    }

    fn serialize(&self) -> String {
        self.inner.serialize()
    }

    fn layout(&self) -> Layout {
        self.inner.layout()
    }
}

impl<D: IncrementalCipherDoc> MerkleGuard<D> {
    /// Root a fresh build over `doc`'s records would have (debug checks).
    fn new_root_of(doc: &D) -> [u8; 32] {
        let wire = doc.serialize();
        let records = split_records(&wire).expect("own serialization is well-formed");
        MerkleTree::build(records.iter().map(|r| r.as_bytes())).root()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::{DocumentKey, SchemeParams};
    use crate::recb::RecbDocument;
    use pe_crypto::CtrDrbg;

    fn guarded(text: &[u8], seed: u64) -> MerkleGuard<RecbDocument> {
        let key = DocumentKey::derive("guard", &[4u8; 16], 100);
        MerkleGuard::new(
            RecbDocument::create(&key, SchemeParams::recb(8), text, CtrDrbg::from_seed(seed))
                .unwrap(),
        )
    }

    #[test]
    fn tracks_edits_and_verifies_honest_server() {
        let mut doc = guarded(b"guard this content carefully", 1);
        for op in [
            EditOp::insert(5, b" extra"),
            EditOp::delete(0, 3),
            EditOp::insert(0, b"new start: "),
            EditOp::delete(10, 8),
        ] {
            doc.apply(&op).unwrap();
            let served = doc.serialize();
            doc.verify_served(&served).unwrap();
        }
    }

    #[test]
    fn detects_substitution_that_recb_accepts() {
        let doc = guarded(b"AAAAAAAABBBBBBBB", 2);
        let wire = doc.serialize();
        let records: Vec<String> =
            split_records(&wire).unwrap().iter().map(|r| r.to_string()).collect();
        let preamble = crate::wire::PREAMBLE_CHARS;
        let mut swapped = records.clone();
        swapped.swap(1, 2);
        let tampered = format!("{}{}", &wire[..preamble], swapped.concat());
        // Bare rECB would accept this (see recb tests); the guard refuses.
        assert!(matches!(
            doc.verify_served(&tampered),
            Err(CoreError::IntegrityFailure { .. })
        ));
    }

    #[test]
    fn detects_truncation_and_extension() {
        let doc = guarded(b"do not resize me", 3);
        let wire = doc.serialize();
        let truncated = &wire[..wire.len() - crate::wire::RECORD_CHARS];
        assert!(doc.verify_served(truncated).is_err());
        let extended = format!("{wire}{}", &wire[wire.len() - crate::wire::RECORD_CHARS..]);
        assert!(doc.verify_served(&extended).is_err());
    }

    #[test]
    fn root_changes_with_every_update() {
        let mut doc = guarded(b"rooted", 4);
        let mut roots = vec![doc.root()];
        for i in 0..5 {
            doc.apply(&EditOp::insert(0, &[b'a' + i])).unwrap();
            roots.push(doc.root());
        }
        let unique: std::collections::HashSet<&[u8; 32]> = roots.iter().collect();
        assert_eq!(unique.len(), roots.len());
    }

    #[test]
    fn fingerprint_is_stable_and_short() {
        let doc = guarded(b"fingerprint me", 5);
        assert_eq!(doc.fingerprint(), doc.fingerprint());
        assert_eq!(doc.fingerprint().len(), 16);
    }

    #[test]
    fn foreign_splices_keep_the_commitment_in_step() {
        // A collaborator edits its own copy; the guarded follower absorbs
        // the splices and commits to exactly what the server now holds.
        let mut follower = guarded(b"two editors, one commitment", 7);
        let key = DocumentKey::derive("guard", &[4u8; 16], 100);
        let served = follower.serialize();
        let mut writer = RecbDocument::open(&key, &served, CtrDrbg::from_seed(8)).unwrap();
        for op in [EditOp::insert(3, b" (or more)"), EditOp::delete(0, 4)] {
            let patches = writer.apply(&op).unwrap();
            follower.apply_foreign(&patches).unwrap();
            assert_eq!(follower.serialize(), writer.serialize());
            follower.verify_served(&writer.serialize()).unwrap();
        }
        assert_eq!(follower.decrypt().unwrap(), writer.decrypt().unwrap());
    }

    #[test]
    fn decrypt_passes_through() {
        let doc = guarded(b"passthrough", 6);
        assert_eq!(doc.decrypt().unwrap(), b"passthrough");
        assert_eq!(doc.len(), 11);
    }
}
