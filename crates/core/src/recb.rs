//! The randomized-ECB (rECB) incremental encryption mode (§V-B).
//!
//! Following Buonanno–Katz–Yung as used by the paper, the ciphertext of a
//! document `d₁ … dₙ` is
//!
//! ```text
//! F(r0),  F(r0⊕r1, r1⊕d1),  F(r0⊕r2, r2⊕d2),  …,  F(r0⊕rn, rn⊕dn)
//! ```
//!
//! where `F` is AES-128, `r0` is a per-document 64-bit nonce sealed in the
//! header block, and each data block packs `r0⊕rᵢ` in its left half and
//! `rᵢ⊕dᵢ` (the padded payload of up to 8 characters) in its right half.
//! Because each data block depends only on `r0` and its own fresh nonce,
//! blocks can be inserted, removed, or rewritten independently — the key
//! property that makes updates O(affected blocks · log n).
//!
//! The mode provides confidentiality only. An active server can splice
//! ciphertext blocks without detection; see [`RpcDocument`](crate::RpcDocument)
//! for the integrity-providing mode, and
//! [`baseline`](crate::baseline) for the schemes the paper compares
//! against.

use pe_crypto::aes::Aes128;
use pe_crypto::drbg::NonceSource;
use pe_crypto::BlockCipher;
use pe_indexlist::{BlockSeq, IndexedSkipList};

use crate::batch::{self, Direction};
use crate::error::CoreError;
use crate::keys::{DocumentKey, Mode, SchemeParams};
use crate::pack::{chunk_count, chunks, pad8, SealScratch, SealedBlock};
use crate::splice::{plan, SplicePlan};
use crate::wire::{self, decode_record, encode_record, CipherPatch, Layout, Preamble};
use crate::{EditOp, IncrementalCipherDoc, PlainSplice};

/// Domain-separation magic stored in the header block's right half.
const HEADER_MAGIC: [u8; 8] = *b"PE1.RECB";

/// A confidentiality-only encrypted document using the rECB mode with
/// variable-length blocks.
///
/// # Example
///
/// ```
/// use pe_core::{DocumentKey, EditOp, IncrementalCipherDoc, RecbDocument, SchemeParams};
/// use pe_crypto::CtrDrbg;
///
/// let key = DocumentKey::derive("pw", &[1u8; 16], 100);
/// let mut doc = RecbDocument::create(
///     &key,
///     SchemeParams::recb(8),
///     b"attack at dawn",
///     CtrDrbg::from_seed(3),
/// )?;
/// let patches = doc.apply(&EditOp::delete(10, 4))?;
/// assert!(!patches.is_empty());
/// assert_eq!(doc.decrypt()?, b"attack at ");
/// # Ok::<(), pe_core::CoreError>(())
/// ```
pub struct RecbDocument<S = IndexedSkipList<SealedBlock>> {
    cipher: Aes128,
    salt: [u8; 16],
    params: SchemeParams,
    r0: [u8; 8],
    header_cipher: [u8; 16],
    blocks: S,
    rng: Box<dyn NonceSource + Send>,
    /// Reused batch-seal buffers; see [`SealScratch`].
    scratch: SealScratch,
}

impl<S: BlockSeq<SealedBlock>> std::fmt::Debug for RecbDocument<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RecbDocument")
            .field("mode", &Mode::Recb)
            .field("max_block", &self.params.max_block)
            .field("blocks", &self.blocks.len_blocks())
            .field("len", &self.blocks.total_weight())
            .finish_non_exhaustive()
    }
}

impl RecbDocument {
    /// Encrypts `plaintext` into a fresh document (the scheme's `Enc`),
    /// backed by the paper's [`IndexedSkipList`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadParams`] when `params` are invalid or not
    /// rECB-mode.
    pub fn create<R>(
        key: &DocumentKey,
        params: SchemeParams,
        plaintext: &[u8],
        rng: R,
    ) -> Result<RecbDocument, CoreError>
    where
        R: NonceSource + Send + 'static,
    {
        RecbDocument::create_with_backing(key, params, plaintext, rng)
    }

    /// Loads a skip-list-backed document from its serialized ciphertext.
    ///
    /// # Errors
    ///
    /// As for [`RecbDocument::open_with_backing`].
    pub fn open<R>(key: &DocumentKey, serialized: &str, rng: R) -> Result<RecbDocument, CoreError>
    where
        R: NonceSource + Send + 'static,
    {
        RecbDocument::open_with_backing(key, serialized, rng)
    }
}

impl<S: BlockSeq<SealedBlock> + Default> RecbDocument<S> {
    /// Encrypts `plaintext` into a fresh document over an arbitrary
    /// [`BlockSeq`] backing (§V-C: "the idea of indexing could also be
    /// applied to any of the well-known balanced tree data structures").
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadParams`] when `params` are invalid or not
    /// rECB-mode.
    pub fn create_with_backing<R>(
        key: &DocumentKey,
        params: SchemeParams,
        plaintext: &[u8],
        rng: R,
    ) -> Result<RecbDocument<S>, CoreError>
    where
        R: NonceSource + Send + 'static,
    {
        params.validate()?;
        if params.mode != Mode::Recb {
            return Err(CoreError::BadParams { detail: "params.mode must be Recb".into() });
        }
        let mut rng: Box<dyn NonceSource + Send> = Box::new(rng);
        let mut r0 = [0u8; 8];
        rng.fill_bytes(&mut r0);
        let cipher = key.cipher();
        let mut header = [0u8; 16];
        header[..8].copy_from_slice(&r0);
        header[8..].copy_from_slice(&HEADER_MAGIC);
        cipher.encrypt_block(&mut header);
        let mut doc = RecbDocument {
            cipher,
            salt: *key.salt(),
            params,
            r0,
            header_cipher: header,
            blocks: S::default(),
            rng,
            scratch: SealScratch::default(),
        };
        let mut sealed = Vec::new();
        doc.seal_all(plaintext, &mut sealed);
        doc.blocks.extend_back(sealed);
        Ok(doc)
    }

    /// Loads a document from its serialized ciphertext (the string the
    /// server stores) over an arbitrary backing.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Malformed`] for structural problems,
    /// [`CoreError::BadParams`] when the key's salt does not match the
    /// preamble, and [`CoreError::IntegrityFailure`] when the header block
    /// does not decrypt to the expected magic (wrong password or corrupted
    /// header).
    pub fn open_with_backing<R>(
        key: &DocumentKey,
        serialized: &str,
        rng: R,
    ) -> Result<RecbDocument<S>, CoreError>
    where
        R: NonceSource + Send + 'static,
    {
        let preamble = Preamble::parse(serialized)?;
        if preamble.mode != Mode::Recb {
            return Err(CoreError::Malformed { detail: "not an rECB document".into() });
        }
        if &preamble.salt != key.salt() {
            return Err(CoreError::BadParams {
                detail: "key salt does not match document preamble".into(),
            });
        }
        // Records are decoded where they lie in `serialized`.
        let mut records = wire::records(serialized)?;
        let header = records
            .next()
            .ok_or_else(|| CoreError::Malformed { detail: "missing header record".into() })?;
        let cipher = key.cipher();
        let (tag, header_cipher) = decode_record(header)?;
        if tag != '0' {
            return Err(CoreError::Malformed { detail: "first record is not a header".into() });
        }
        let mut header = header_cipher;
        cipher.decrypt_block(&mut header);
        if header[8..] != HEADER_MAGIC {
            pe_observe::static_counter!("core.integrity_failures.recb").inc();
            return Err(CoreError::IntegrityFailure {
                detail: "wrong password or corrupted header".into(),
            });
        }
        let mut r0 = [0u8; 8];
        r0.copy_from_slice(&header[..8]);
        let mut parsed = Vec::with_capacity(records.len());
        for record in records {
            let (tag, block_cipher) = decode_record(record)?;
            let len = tag.to_digit(10).filter(|d| (1..=8).contains(d)).ok_or_else(|| {
                CoreError::Malformed { detail: format!("invalid data record tag {tag:?}") }
            })? as u8;
            if usize::from(len) > preamble.max_block {
                return Err(CoreError::Malformed {
                    detail: format!("block of {len} chars exceeds b={}", preamble.max_block),
                });
            }
            parsed.push(SealedBlock { len, cipher: block_cipher });
        }
        let mut blocks = S::default();
        blocks.extend_back(parsed);
        let params = SchemeParams::recb(preamble.max_block);
        Ok(RecbDocument {
            cipher,
            salt: preamble.salt,
            params,
            r0,
            header_cipher,
            blocks,
            rng: Box::new(rng),
            scratch: SealScratch::default(),
        })
    }
}

impl<S: BlockSeq<SealedBlock>> RecbDocument<S> {
    /// The scheme parameters this document was created with.
    pub fn params(&self) -> SchemeParams {
        self.params
    }

    /// Number of serialized records (header + data blocks).
    pub fn record_count(&self) -> usize {
        1 + self.blocks.len_blocks()
    }

    /// Seals every chunk of `text` into fresh blocks appended to `out`
    /// (the batch `Enc` path).
    ///
    /// Nonces are drawn from the document DRBG while the blocks are
    /// packed, then one batch call encrypts them all. The packing and
    /// nonce buffers are the document's reused [`SealScratch`], so
    /// repeated saves do not allocate.
    fn seal_all(&mut self, text: &[u8], out: &mut Vec<SealedBlock>) {
        let n = chunk_count(text.len(), self.params.max_block);
        // One bulk draw for every block nonce: a NonceSource is a byte
        // stream, so this yields the same bytes as n sequential 8-byte
        // draws (and lets CtrDrbg batch its keystream blocks).
        self.scratch.reset(n, n * 8);
        self.rng.fill_bytes(&mut self.scratch.nonces);
        // The two block halves are pure byte-wise XORs, so they can be
        // packed as whole 64-bit words; the output bytes are identical.
        let r0w = u64::from_ne_bytes(self.r0);
        for (chunk, ri) in
            chunks(text, self.params.max_block).zip(self.scratch.nonces.chunks_exact(8))
        {
            let riw = u64::from_ne_bytes(ri.try_into().expect("8-byte nonce"));
            let payload = u64::from_ne_bytes(pad8(chunk));
            let mut block = [0u8; 16];
            block[..8].copy_from_slice(&(r0w ^ riw).to_ne_bytes());
            block[8..].copy_from_slice(&(riw ^ payload).to_ne_bytes());
            self.scratch.bufs.push(block);
            self.scratch.lens.push(chunk.len() as u8);
        }
        batch::apply_cipher(&self.cipher, &mut self.scratch.bufs, Direction::Encrypt);
        pe_observe::static_counter!("core.blocks_sealed.recb").add(n as u64);
        out.reserve(n);
        out.extend(
            self.scratch
                .bufs
                .iter()
                .zip(&self.scratch.lens)
                .map(|(cipher, &len)| SealedBlock { len, cipher: *cipher }),
        );
    }

    /// Opens (decrypts) a run of `n` blocks, appending their plaintext to
    /// `out` (the batch `Dec` path): one contiguous scratch buffer for the
    /// AES work instead of a `Vec` per block.
    fn open_run<'a>(
        &self,
        run: impl Iterator<Item = &'a SealedBlock>,
        n: usize,
        out: &mut Vec<u8>,
    ) {
        let mut bufs: Vec<[u8; 16]> = Vec::with_capacity(n);
        let mut lens: Vec<u8> = Vec::with_capacity(n);
        for sealed in run {
            bufs.push(sealed.cipher);
            lens.push(sealed.len);
        }
        batch::apply_cipher(&self.cipher, &mut bufs, Direction::Decrypt);
        out.reserve(lens.iter().map(|&len| usize::from(len)).sum());
        // dᵢ = right ⊕ rᵢ = right ⊕ (left ⊕ r0), a whole-word XOR.
        let r0w = u64::from_ne_bytes(self.r0);
        for (block, len) in bufs.iter().zip(lens) {
            let left = u64::from_ne_bytes(block[..8].try_into().expect("half block"));
            let right = u64::from_ne_bytes(block[8..].try_into().expect("half block"));
            let data = (left ^ r0w ^ right).to_ne_bytes();
            out.extend_from_slice(&data[..len as usize]);
        }
        pe_observe::static_counter!("core.blocks_opened.recb").add(n as u64);
    }

    /// Opens (decrypts) the block at `ordinal` (single-block edit path).
    fn open_block(&self, ordinal: usize) -> Vec<u8> {
        let sealed = self.blocks.get(ordinal).expect("ordinal in range");
        let mut block = sealed.cipher;
        self.cipher.decrypt_block(&mut block);
        let mut data = Vec::with_capacity(sealed.len as usize);
        for k in 0..sealed.len as usize {
            let ri = block[k] ^ self.r0[k];
            data.push(block[8 + k] ^ ri);
        }
        pe_observe::static_counter!("core.blocks_opened.recb").inc();
        data
    }
}

impl<S: BlockSeq<SealedBlock> + Default> IncrementalCipherDoc for RecbDocument<S> {
    fn len(&self) -> usize {
        self.blocks.total_weight()
    }

    fn decrypt(&self) -> Result<Vec<u8>, CoreError> {
        let mut out = Vec::new();
        self.open_run(self.blocks.iter(), self.blocks.len_blocks(), &mut out);
        Ok(out)
    }

    fn apply(&mut self, op: &EditOp) -> Result<Vec<CipherPatch>, CoreError> {
        let plan = plan(&self.blocks, op, |ordinal| self.open_block(ordinal))?;
        let SplicePlan::Splice { start_block, removed, content } = plan else {
            return Ok(Vec::new());
        };
        for _ in 0..removed {
            self.blocks.remove(start_block);
        }
        let mut sealed_blocks = Vec::new();
        self.seal_all(&content, &mut sealed_blocks);
        let mut inserted = Vec::with_capacity(sealed_blocks.len());
        for (i, sealed) in sealed_blocks.into_iter().enumerate() {
            inserted.push(encode_record(sealed.tag(), &sealed.cipher));
            self.blocks.insert(start_block + i, sealed);
        }
        Ok(vec![CipherPatch::splice(1 + start_block, removed, inserted)])
    }

    /// rECB blocks are independent given `r0`, so any run of well-formed
    /// data records is a valid splice; the header record (which carries
    /// `r0`) must not be touched. Blocks a splice removes are never
    /// opened — their byte lengths are their public tags.
    fn apply_foreign(&mut self, patches: &[CipherPatch]) -> Result<Vec<PlainSplice>, CoreError> {
        let malformed = |detail: String| CoreError::Malformed { detail };
        // Check and decrypt everything before the first mutation.
        let mut planned = Vec::with_capacity(patches.len());
        let mut splices = Vec::with_capacity(patches.len());
        let mut cursor = 1; // record 0 is the header
        for patch in patches {
            let end = patch.start_record.saturating_add(patch.removed);
            if patch.start_record < cursor || end > self.record_count() {
                return Err(malformed(format!(
                    "splice of records {}..{end} touches the header, overlaps, or runs past {}",
                    patch.start_record,
                    self.record_count()
                )));
            }
            cursor = end;
            let mut sealed = Vec::with_capacity(patch.inserted.len());
            for record in &patch.inserted {
                let (tag, cipher) = decode_record(record)?;
                let len = tag
                    .to_digit(10)
                    .filter(|&d| (1..=self.params.max_block as u32).contains(&d))
                    .ok_or_else(|| malformed(format!("invalid data record tag {tag:?}")))?;
                sealed.push(SealedBlock { len: len as u8, cipher });
            }
            let first = patch.start_record - 1;
            let at = self.blocks.weight_before(first);
            let removed = self.blocks.weight_before(first + patch.removed) - at;
            let mut inserted = Vec::new();
            self.open_run(sealed.iter(), sealed.len(), &mut inserted);
            if removed > 0 || !inserted.is_empty() {
                splices.push(PlainSplice { at, removed, inserted });
            }
            planned.push((first, patch.removed, sealed));
        }
        // Right to left, so earlier ordinals stay valid.
        for (first, removed, sealed) in planned.into_iter().rev() {
            for _ in 0..removed {
                self.blocks.remove(first);
            }
            for (i, block) in sealed.into_iter().enumerate() {
                self.blocks.insert(first + i, block);
            }
        }
        Ok(splices)
    }

    /// Full-document replacement via the batch seal path: one nonce pass,
    /// one AES pass, no per-edit splice planning.
    fn replace_all(&mut self, plaintext: &[u8]) -> Result<(), CoreError> {
        let mut sealed = Vec::new();
        self.seal_all(plaintext, &mut sealed);
        let mut blocks = S::default();
        blocks.extend_back(sealed);
        self.blocks = blocks;
        Ok(())
    }

    fn serialize(&self) -> String {
        let header = std::iter::once(('0', &self.header_cipher));
        let data = self.blocks.iter().map(|block| (block.tag(), &block.cipher));
        wire::serialize_records(&Preamble::new(&self.params, self.salt), header.chain(data))
    }

    fn layout(&self) -> Layout {
        Layout::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::apply_patches;
    use pe_crypto::CtrDrbg;

    fn key() -> DocumentKey {
        DocumentKey::derive("test-password", &[9u8; 16], 100)
    }

    fn doc(plaintext: &[u8], b: usize, seed: u64) -> RecbDocument {
        RecbDocument::create(&key(), SchemeParams::recb(b), plaintext, CtrDrbg::from_seed(seed))
            .unwrap()
    }

    #[test]
    fn roundtrip_simple() {
        let d = doc(b"hello world", 8, 1);
        assert_eq!(d.decrypt().unwrap(), b"hello world");
        assert_eq!(d.len(), 11);
    }

    #[test]
    fn roundtrip_every_block_size() {
        let text = b"The quick brown fox jumps over the lazy dog";
        for b in 1..=8 {
            let d = doc(text, b, b as u64);
            assert_eq!(d.decrypt().unwrap(), text, "block size {b}");
        }
    }

    #[test]
    fn empty_document() {
        let d = doc(b"", 8, 2);
        assert_eq!(d.decrypt().unwrap(), b"");
        assert!(d.is_empty());
        assert_eq!(d.record_count(), 1);
    }

    #[test]
    fn serialize_open_roundtrip() {
        let d = doc(b"some secret content", 4, 3);
        let wire = d.serialize();
        let reopened = RecbDocument::open(&key(), &wire, CtrDrbg::from_seed(99)).unwrap();
        assert_eq!(reopened.decrypt().unwrap(), b"some secret content");
        assert_eq!(reopened.serialize(), wire);
    }

    #[test]
    fn wrong_password_detected_via_header() {
        let d = doc(b"secret", 8, 4);
        let wire = d.serialize();
        let wrong = DocumentKey::derive("other-password", &[9u8; 16], 100);
        let err = RecbDocument::open(&wrong, &wire, CtrDrbg::from_seed(0)).unwrap_err();
        assert!(matches!(err, CoreError::IntegrityFailure { .. }));
    }

    #[test]
    fn mismatched_salt_rejected() {
        let d = doc(b"secret", 8, 5);
        let wire = d.serialize();
        let other_salt = DocumentKey::derive("test-password", &[1u8; 16], 100);
        assert!(matches!(
            RecbDocument::open(&other_salt, &wire, CtrDrbg::from_seed(0)),
            Err(CoreError::BadParams { .. })
        ));
    }

    #[test]
    fn ciphertext_is_nondeterministic() {
        let a = doc(b"same plaintext", 8, 10);
        let b = doc(b"same plaintext", 8, 11);
        assert_ne!(a.serialize(), b.serialize());
    }

    #[test]
    fn equal_blocks_have_unequal_ciphertext() {
        // 16 identical chars → two identical plaintext blocks at b=8.
        let d = doc(b"AAAAAAAAAAAAAAAA", 8, 12);
        let records = {
            let wire = d.serialize();
            wire::split_records(&wire).unwrap().iter().map(|r| r.to_string()).collect::<Vec<_>>()
        };
        assert_eq!(records.len(), 3);
        assert_ne!(records[1], records[2], "fresh nonces must differ per block");
    }

    #[test]
    fn insert_middle_roundtrip_and_patches() {
        let mut d = doc(b"abcdefghij", 4, 13);
        let before = d.serialize();
        let patches = d.apply(&EditOp::insert(5, b"XYZ")).unwrap();
        assert_eq!(d.decrypt().unwrap(), b"abcdeXYZfghij");
        let mut server_side = before;
        apply_patches(&mut server_side, d.layout(), &patches).unwrap();
        assert_eq!(server_side, d.serialize(), "patches must reproduce serialization");
    }

    #[test]
    fn patches_track_serialization_through_edit_script() {
        let mut d = doc(b"The quick brown fox jumps over the lazy dog", 8, 14);
        let mut server = d.serialize();
        let script = [
            EditOp::insert(0, b">> "),
            EditOp::delete(3, 4),
            EditOp::insert(20, b"INSERTED TEXT HERE"),
            EditOp::delete(0, 1),
            EditOp::insert(35, b"x"),
            EditOp::delete(10, 20),
        ];
        for op in &script {
            let patches = d.apply(op).unwrap();
            apply_patches(&mut server, d.layout(), &patches).unwrap();
            assert_eq!(server, d.serialize());
        }
        // And the final document still decrypts to the model plaintext.
        let mut model: Vec<u8> = b"The quick brown fox jumps over the lazy dog".to_vec();
        for op in &script {
            match op {
                EditOp::Insert { at, text } => {
                    model.splice(at..at, text.iter().copied());
                }
                EditOp::Delete { at, len } => {
                    model.drain(*at..*at + *len);
                }
            }
        }
        assert_eq!(d.decrypt().unwrap(), model);
    }

    #[test]
    fn append_and_prepend() {
        let mut d = doc(b"middle", 3, 15);
        d.apply(&EditOp::insert(6, b"-end")).unwrap();
        d.apply(&EditOp::insert(0, b"start-")).unwrap();
        assert_eq!(d.decrypt().unwrap(), b"start-middle-end");
    }

    #[test]
    fn delete_everything_then_insert() {
        let mut d = doc(b"all of this will go", 8, 16);
        d.apply(&EditOp::delete(0, 19)).unwrap();
        assert!(d.is_empty());
        assert_eq!(d.record_count(), 1);
        d.apply(&EditOp::insert(0, b"fresh")).unwrap();
        assert_eq!(d.decrypt().unwrap(), b"fresh");
    }

    #[test]
    fn out_of_bounds_rejected() {
        let mut d = doc(b"abc", 8, 17);
        assert!(d.apply(&EditOp::insert(4, b"x")).is_err());
        assert!(d.apply(&EditOp::delete(2, 2)).is_err());
    }

    #[test]
    fn incremental_equals_full_reencryption_semantically() {
        // The defining IncE law: after any update, decrypt(IncE(C, op))
        // equals the edited plaintext (which is what Enc of the edited
        // plaintext decrypts to as well).
        let mut d = doc(b"incremental encryption", 5, 18);
        d.apply(&EditOp::insert(11, b" unforgeable")).unwrap();
        let fresh = doc(b"incremental unforgeable encryption", 5, 19);
        assert_eq!(d.decrypt().unwrap(), fresh.decrypt().unwrap());
    }

    #[test]
    fn substitution_attack_goes_undetected() {
        // §VI-A: "Our privacy-only encryption scheme cannot withstand
        // these attacks". Swapping two data records of equal length is
        // accepted silently by rECB — the negative control for the RPC
        // integrity tests.
        let d = doc(b"AAAAAAAABBBBBBBB", 8, 20);
        let wire = d.serialize();
        let records: Vec<String> =
            wire::split_records(&wire).unwrap().iter().map(|r| r.to_string()).collect();
        let swapped = format!(
            "{}{}{}{}",
            &wire[..Layout::standard().preamble_chars],
            records[0],
            records[2],
            records[1]
        );
        let tampered = RecbDocument::open(&key(), &swapped, CtrDrbg::from_seed(0)).unwrap();
        assert_eq!(tampered.decrypt().unwrap(), b"BBBBBBBBAAAAAAAA");
    }

    #[test]
    fn avl_backing_is_interchangeable() {
        use pe_indexlist::IndexedAvlTree;
        let text = b"any balanced tree works just as well";
        let mut avl_doc: RecbDocument<IndexedAvlTree<SealedBlock>> =
            RecbDocument::create_with_backing(
                &key(),
                SchemeParams::recb(4),
                text,
                CtrDrbg::from_seed(40),
            )
            .unwrap();
        let mut server = avl_doc.serialize();
        for op in [
            EditOp::insert(3, b" XX"),
            EditOp::delete(10, 6),
            EditOp::insert(0, b"head: "),
        ] {
            let patches = avl_doc.apply(&op).unwrap();
            apply_patches(&mut server, avl_doc.layout(), &patches).unwrap();
            assert_eq!(server, avl_doc.serialize());
        }
        // The wire format is backing-agnostic: a skip-list document opens
        // what the AVL document wrote.
        let reopened = RecbDocument::open(&key(), &server, CtrDrbg::from_seed(41)).unwrap();
        assert_eq!(reopened.decrypt().unwrap(), avl_doc.decrypt().unwrap());
    }

    #[test]
    fn replace_all_matches_fresh_create_byte_for_byte() {
        // From an empty document, replace_all consumes the DRBG exactly
        // like create does, so the serialized ciphertext must match a
        // fresh document built from the same seed.
        let text: Vec<u8> = (0..9_000u32).map(|i| (i.wrapping_mul(31) % 256) as u8).collect();
        let mut grown = doc(b"", 8, 57);
        grown.replace_all(&text).unwrap();
        let fresh = doc(&text, 8, 57);
        assert_eq!(grown.serialize(), fresh.serialize());
        assert_eq!(grown.decrypt().unwrap(), text);
    }

    #[test]
    fn blowup_decreases_with_block_size() {
        let text = vec![b'x'; 1000];
        let mut blowups = Vec::new();
        for b in [1usize, 2, 4, 8] {
            let d = doc(&text, b, 21);
            blowups.push(d.serialize().len() as f64 / text.len() as f64);
        }
        for pair in blowups.windows(2) {
            assert!(pair[1] < pair[0], "blowup must shrink with b: {blowups:?}");
        }
        // At b=1 each char costs 27 ciphertext chars (plus header).
        assert!(blowups[0] > 26.0 && blowups[0] < 28.5);
        // At b=8 a full block costs 27/8 = 3.375.
        assert!(blowups[3] > 3.0 && blowups[3] < 4.0);
    }
}
