//! The CoClo baseline: full re-encryption on every update.
//!
//! CoClo ("Content Cloaking") preserved privacy in Google Docs by
//! encrypting the document, but every save re-encrypted and retransmitted
//! the whole document. This implementation wraps [`RecbDocument`]'s wire
//! format (so servers cannot distinguish the schemes) while exhibiting
//! CoClo's cost profile: `apply` is `O(document)` in both time and patch
//! size.

use pe_crypto::drbg::NonceSource;
use pe_crypto::CtrDrbg;

use crate::error::CoreError;
use crate::keys::{DocumentKey, SchemeParams};
use crate::recb::RecbDocument;
use crate::wire::{split_records, CipherPatch, Layout};
use crate::{EditOp, IncrementalCipherDoc};

/// A full-re-encryption encrypted document (the CoClo cost model).
///
/// # Example
///
/// ```
/// use pe_core::baseline::CoCloDocument;
/// use pe_core::{DocumentKey, EditOp, IncrementalCipherDoc, SchemeParams};
/// use pe_crypto::CtrDrbg;
///
/// let key = DocumentKey::derive("pw", &[4u8; 16], 100);
/// let mut doc = CoCloDocument::create(&key, SchemeParams::recb(8), b"abc", CtrDrbg::from_seed(1))?;
/// let patches = doc.apply(&EditOp::insert(3, b"def"))?;
/// // Every update replaces the whole document.
/// assert_eq!(patches.len(), 1);
/// assert_eq!(patches[0].start_record, 0);
/// # Ok::<(), pe_core::CoreError>(())
/// ```
pub struct CoCloDocument {
    key: DocumentKey,
    params: SchemeParams,
    plaintext: Vec<u8>,
    inner: RecbDocument,
    rng: Box<dyn NonceSource + Send>,
}

impl std::fmt::Debug for CoCloDocument {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CoCloDocument")
            .field("len", &self.plaintext.len())
            .finish_non_exhaustive()
    }
}

impl CoCloDocument {
    /// Encrypts `plaintext` into a fresh document.
    ///
    /// # Errors
    ///
    /// As for [`RecbDocument::create`].
    pub fn create<R>(
        key: &DocumentKey,
        params: SchemeParams,
        plaintext: &[u8],
        rng: R,
    ) -> Result<CoCloDocument, CoreError>
    where
        R: NonceSource + Send + 'static,
    {
        let mut rng: Box<dyn NonceSource + Send> = Box::new(rng);
        let inner = RecbDocument::create(key, params, plaintext, Self::fork(&mut rng))?;
        Ok(CoCloDocument { key: key.clone(), params, plaintext: plaintext.to_vec(), inner, rng })
    }

    /// Derives an owned child generator from the document's generator (the
    /// inner document is rebuilt on every update and consumes its own
    /// nonce source).
    fn fork(rng: &mut Box<dyn NonceSource + Send>) -> CtrDrbg {
        let mut seed = [0u8; 16];
        rng.fill_bytes(&mut seed);
        CtrDrbg::new(seed)
    }

    /// The number of serialized records.
    pub fn record_count(&self) -> usize {
        self.inner.record_count()
    }
}

impl IncrementalCipherDoc for CoCloDocument {
    fn len(&self) -> usize {
        self.plaintext.len()
    }

    fn decrypt(&self) -> Result<Vec<u8>, CoreError> {
        self.inner.decrypt()
    }

    fn apply(&mut self, op: &EditOp) -> Result<Vec<CipherPatch>, CoreError> {
        let len = self.plaintext.len();
        match op {
            EditOp::Insert { at, text } => {
                if *at > len {
                    return Err(CoreError::OutOfBounds { at: *at, len });
                }
                self.plaintext.splice(at..at, text.iter().copied());
            }
            EditOp::Delete { at, len: dlen } => {
                let end = at.checked_add(*dlen).filter(|&e| e <= len);
                let Some(end) = end else {
                    return Err(CoreError::OutOfBounds { at: at + dlen, len });
                };
                self.plaintext.drain(*at..end);
            }
        }
        let old_records = self.inner.record_count();
        // CoClo: re-encrypt everything with fresh randomness.
        let fork = Self::fork(&mut self.rng);
        self.inner = RecbDocument::create(&self.key, self.params, &self.plaintext, fork)?;
        let wire = self.inner.serialize();
        let inserted =
            split_records(&wire)?.into_iter().map(str::to_string).collect::<Vec<_>>();
        Ok(vec![CipherPatch::splice(0, old_records, inserted)])
    }

    fn serialize(&self) -> String {
        self.inner.serialize()
    }

    fn layout(&self) -> Layout {
        self.inner.layout()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::apply_patches;

    fn key() -> DocumentKey {
        DocumentKey::derive("coclo", &[6u8; 16], 100)
    }

    fn doc(text: &[u8], seed: u64) -> CoCloDocument {
        CoCloDocument::create(&key(), SchemeParams::recb(8), text, CtrDrbg::from_seed(seed))
            .unwrap()
    }

    #[test]
    fn roundtrip_and_edits() {
        let mut d = doc(b"hello world", 1);
        d.apply(&EditOp::delete(0, 6)).unwrap();
        d.apply(&EditOp::insert(5, b"!")).unwrap();
        assert_eq!(d.decrypt().unwrap(), b"world!");
    }

    #[test]
    fn every_update_replaces_everything() {
        let mut d = doc(&[b'x'; 100], 2);
        let before = d.serialize();
        let patches = d.apply(&EditOp::insert(50, b"y")).unwrap();
        assert_eq!(patches.len(), 1);
        assert_eq!(patches[0].start_record, 0);
        // All records replaced: patch size ~ document size.
        assert_eq!(patches[0].removed, split_records(&before).unwrap().len());
        let mut after = before;
        apply_patches(&mut after, d.layout(), &patches).unwrap();
        assert_eq!(after, d.serialize());
    }

    #[test]
    fn reencryption_refreshes_all_nonces() {
        let mut d = doc(b"static text that never changes much", 3);
        let before: Vec<String> = split_records(&d.serialize())
            .unwrap()
            .iter()
            .map(|r| r.to_string())
            .collect();
        d.apply(&EditOp::insert(0, b"z")).unwrap();
        let after: Vec<String> =
            split_records(&d.serialize()).unwrap().iter().map(|r| r.to_string()).collect();
        // No record survives a CoClo update.
        for record in &after {
            assert!(!before.contains(record));
        }
    }

    #[test]
    fn out_of_bounds_rejected() {
        let mut d = doc(b"abc", 4);
        assert!(d.apply(&EditOp::insert(9, b"x")).is_err());
        assert!(d.apply(&EditOp::delete(1, 9)).is_err());
    }
}
