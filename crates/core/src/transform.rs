//! Transforming plaintext deltas into ciphertext deltas.
//!
//! Figure 1 of the paper: the extension "mediates all client-server
//! traffic, encrypting the document contents and updates as necessary for
//! the server to maintain the ciphertext document". The piece that makes
//! incremental saves work is `transform_delta` (Figure 2): a translation
//! from the client's plaintext delta into a *cdelta* — an equivalent delta
//! over the serialized ciphertext string.
//!
//! The [`DeltaTransformer`] owns the encrypted document plus a mirror of
//! the serialized ciphertext (the paper: the extension "maintains a copy
//! of the state of the ciphertext document which is needed to transform
//! the delta"). For each plaintext operation it applies the corresponding
//! [`EditOp`] to the encrypted document, converts the resulting record
//! [`CipherPatch`]es into a character-level delta, and composes the
//! per-operation deltas into the single cdelta sent to the server.

use pe_delta::{Delta, DeltaOp};

use crate::error::CoreError;
use crate::wire::{self, CipherPatch, Layout};
use crate::{EditOp, IncrementalCipherDoc, PlainSplice};

/// Converts record-level patches into a character-level delta over the
/// serialized ciphertext.
pub fn patches_to_delta(patches: &[CipherPatch], layout: Layout) -> Delta {
    let mut builder = Delta::builder();
    let mut cursor_chars = 0usize;
    for patch in patches {
        let start = layout.record_offset(patch.start_record);
        debug_assert!(start >= cursor_chars, "patches must be sorted");
        builder.retain(start - cursor_chars);
        builder.delete(patch.removed * layout.record_chars);
        for record in &patch.inserted {
            builder.insert(record);
        }
        cursor_chars = start + patch.removed * layout.record_chars;
    }
    builder.build()
}

/// Recovers the record splices a ciphertext delta performs on a
/// serialized document of `serialized_len` characters — the inverse of
/// [`patches_to_delta`], used to follow a collaborator's incremental
/// save without re-reading the whole document.
///
/// Every delete and insert must sit on a record boundary past the
/// preamble and cover whole records; adjacent edits merge into one
/// patch. Retains may run anywhere inside the document (only the edits
/// they lead to are checked).
///
/// # Errors
///
/// Returns [`CoreError::Malformed`] for an edit inside the preamble or
/// off a record boundary, a partial record, non-ASCII record text, or a
/// delta that reaches past the end of the document.
pub fn delta_to_patches(
    delta: &Delta,
    layout: Layout,
    serialized_len: usize,
) -> Result<Vec<CipherPatch>, CoreError> {
    let malformed = |detail: String| CoreError::Malformed { detail };
    let mut patches: Vec<CipherPatch> = Vec::new();
    let mut cursor = 0usize; // character offset into the old serialization
    for op in delta.ops() {
        let n = match op {
            DeltaOp::Retain(n) => {
                cursor = cursor.saturating_add(*n);
                continue;
            }
            DeltaOp::Delete(n) => *n,
            DeltaOp::Insert(text) => text.len(),
        };
        let offset = cursor
            .checked_sub(layout.preamble_chars)
            .filter(|o| o % layout.record_chars == 0)
            .ok_or_else(|| {
                malformed(format!("edit at character {cursor} is off a record boundary"))
            })?;
        if n % layout.record_chars != 0 {
            return Err(malformed(format!("edit of {n} characters splits a record")));
        }
        let record = offset / layout.record_chars;
        let patch = match patches.last_mut() {
            Some(last) if last.start_record.saturating_add(last.removed) == record => last,
            _ => {
                patches.push(CipherPatch::splice(record, 0, Vec::new()));
                patches.last_mut().expect("just pushed")
            }
        };
        match op {
            DeltaOp::Delete(_) => {
                // Saturating: counts come from the server, and the end
                // check below rejects any delta that runs past the end.
                patch.removed = patch.removed.saturating_add(n / layout.record_chars);
                cursor = cursor.saturating_add(n);
            }
            DeltaOp::Insert(text) => {
                if !text.is_ascii() {
                    return Err(malformed("inserted records are not ASCII".into()));
                }
                // ASCII, so every record width is a character boundary.
                let width = layout.record_chars;
                patch
                    .inserted
                    .extend((0..text.len()).step_by(width).map(|i| text[i..i + width].to_string()));
            }
            DeltaOp::Retain(_) => unreachable!("retains continue above"),
        }
    }
    if cursor > serialized_len {
        return Err(malformed(format!(
            "delta reaches character {cursor} of a {serialized_len}-character document"
        )));
    }
    Ok(patches)
}

/// The wire size (in characters) of the ciphertext delta a patch set
/// produces — what an incremental save actually transmits.
pub fn update_wire_len(patches: &[CipherPatch], layout: Layout) -> usize {
    patches_to_delta(patches, layout).serialize().len()
}

/// Owns an encrypted document and translates plaintext deltas into
/// ciphertext deltas.
///
/// # Example
///
/// ```
/// use pe_core::{DeltaTransformer, DocumentKey, RecbDocument, SchemeParams};
/// use pe_crypto::CtrDrbg;
/// use pe_delta::Delta;
///
/// let key = DocumentKey::derive("pw", &[3u8; 16], 100);
/// let doc = RecbDocument::create(&key, SchemeParams::recb(8), b"abcdefg", CtrDrbg::from_seed(5))?;
/// let mut transformer = DeltaTransformer::new(doc);
/// let before = transformer.ciphertext().to_string();
///
/// // The paper's example delta: "=2 -3 +uv =2 +w" turns abcdefg into abuvfgw.
/// let cdelta = transformer.transform(&Delta::parse("=2\t-3\t+uv\t=2\t+w")?)?;
/// assert_eq!(cdelta.apply(&before)?, transformer.ciphertext());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct DeltaTransformer<D> {
    doc: D,
    ciphertext: String,
}

impl<D: IncrementalCipherDoc> DeltaTransformer<D> {
    /// Wraps an encrypted document, snapshotting its serialized form.
    pub fn new(doc: D) -> DeltaTransformer<D> {
        let ciphertext = doc.serialize();
        DeltaTransformer { doc, ciphertext }
    }

    /// Wraps a document opened from `serialized`, keeping that text as
    /// the mirror instead of serializing the document again:
    /// [`wire::canonicalize`] re-encodes its preamble and upper-cases its
    /// records in place, which is exactly what `doc` serializes to.
    ///
    /// Later saves splice the mirror in place, so it gets the room a
    /// string built by appending would have: capacity up to the next
    /// power of two, not the exact length the text arrived with (whose
    /// first growing splice would double it).
    ///
    /// # Errors
    ///
    /// [`CoreError::Malformed`] when `serialized` has no valid preamble.
    pub fn opened(doc: D, mut serialized: String) -> Result<DeltaTransformer<D>, CoreError> {
        wire::canonicalize(&mut serialized)?;
        let room = serialized.len().next_power_of_two();
        serialized.reserve_exact(room - serialized.len());
        debug_assert_eq!(serialized, doc.serialize());
        Ok(DeltaTransformer { doc, ciphertext: serialized })
    }

    /// The encrypted document.
    pub fn doc(&self) -> &D {
        &self.doc
    }

    /// The mirrored serialized ciphertext (always equal to what the server
    /// should currently store).
    pub fn ciphertext(&self) -> &str {
        &self.ciphertext
    }

    /// Consumes the transformer, returning the document.
    pub fn into_doc(self) -> D {
        self.doc
    }

    /// Translates a plaintext delta into the equivalent ciphertext delta,
    /// updating the encrypted document and the ciphertext mirror.
    ///
    /// Counts in `delta` are interpreted as **bytes** of the plaintext
    /// document (see [`Delta::apply_bytes`]).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::OutOfBounds`] (wrapped delta errors) when the
    /// delta does not fit the current document; the document is left in
    /// the state reached before the failing operation.
    pub fn transform(&mut self, delta: &Delta) -> Result<Delta, CoreError> {
        let layout = self.doc.layout();
        let mut combined = Delta::new();
        let mut out_pos = 0usize;
        for op in delta.ops() {
            let edit = match op {
                DeltaOp::Retain(n) => {
                    out_pos += n;
                    continue;
                }
                DeltaOp::Insert(s) => {
                    let edit = EditOp::insert(out_pos, s.as_bytes());
                    out_pos += s.len();
                    edit
                }
                DeltaOp::Delete(n) => EditOp::delete(out_pos, *n),
            };
            let patches = self.doc.apply(&edit)?;
            let cdelta = patches_to_delta(&patches, layout);
            wire::apply_patches(&mut self.ciphertext, layout, &patches)?;
            combined = combined.compose(&cdelta);
        }
        debug_assert_eq!(self.ciphertext, self.doc.serialize());
        Ok(combined)
    }

    /// Absorbs a collaborator's ciphertext delta — what the server fans
    /// out for someone else's incremental save — and returns its
    /// plaintext effect.
    ///
    /// Recovers the record splices with [`delta_to_patches`], hands them
    /// to [`IncrementalCipherDoc::apply_foreign`] (which decrypts only
    /// the inserted records and verifies them), and advances the mirror.
    /// Inserted records are stored in the canonical upper case
    /// [`IncrementalCipherDoc::serialize`] writes (Base32 decodes either
    /// case), so the mirror keeps equalling the document's own
    /// serialization.
    ///
    /// # Errors
    ///
    /// As for [`delta_to_patches`] and
    /// [`IncrementalCipherDoc::apply_foreign`]; on error neither the
    /// document nor the mirror has changed.
    pub fn apply_foreign(&mut self, cdelta: &Delta) -> Result<Vec<PlainSplice>, CoreError> {
        let layout = self.doc.layout();
        let mut patches = delta_to_patches(cdelta, layout, self.ciphertext.len())?;
        for record in patches.iter_mut().flat_map(|p| p.inserted.iter_mut()) {
            record.make_ascii_uppercase();
        }
        // Each step checks everything before it changes anything.
        wire::apply_patches(&mut self.ciphertext, layout, &patches)?;
        let splices = match self.doc.apply_foreign(&patches) {
            Ok(splices) => splices,
            Err(e) => {
                // The document refused the splice (an integrity check):
                // put the mirror back to the unchanged document.
                self.ciphertext = self.doc.serialize();
                return Err(e);
            }
        };
        debug_assert_eq!(self.ciphertext, self.doc.serialize());
        Ok(splices)
    }

    /// Encrypts a full replacement of the document contents (the
    /// `docContents` path of the protocol: the first save of a session
    /// carries the whole document).
    ///
    /// Delegates to [`IncrementalCipherDoc::replace_all`], so schemes with
    /// a batch seal path (rECB, RPC) re-encrypt the whole document in one
    /// pass instead of two block-by-block splices.
    ///
    /// Returns the new serialized ciphertext.
    ///
    /// # Errors
    ///
    /// Propagates edit errors (none are expected for a full replacement).
    pub fn replace_all(&mut self, plaintext: &[u8]) -> Result<&str, CoreError> {
        self.doc.replace_all(plaintext)?;
        self.ciphertext = self.doc.serialize();
        Ok(&self.ciphertext)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::{DocumentKey, SchemeParams};
    use crate::recb::RecbDocument;
    use crate::rpc::RpcDocument;
    use pe_crypto::CtrDrbg;

    fn key() -> DocumentKey {
        DocumentKey::derive("pw", &[8u8; 16], 100)
    }

    fn recb(plaintext: &[u8], b: usize, seed: u64) -> DeltaTransformer<RecbDocument> {
        DeltaTransformer::new(
            RecbDocument::create(&key(), SchemeParams::recb(b), plaintext, CtrDrbg::from_seed(seed))
                .unwrap(),
        )
    }

    fn rpc(plaintext: &[u8], b: usize, seed: u64) -> DeltaTransformer<RpcDocument> {
        DeltaTransformer::new(
            RpcDocument::create(&key(), SchemeParams::rpc(b), plaintext, CtrDrbg::from_seed(seed))
                .unwrap(),
        )
    }

    #[test]
    fn paper_delta_examples_transform() {
        let mut t = recb(b"abcdefg", 8, 1);
        let before = t.ciphertext().to_string();
        let cdelta = t.transform(&Delta::parse("=2\t-5").unwrap()).unwrap();
        assert_eq!(t.doc().decrypt().unwrap(), b"ab");
        assert_eq!(cdelta.apply(&before).unwrap(), t.ciphertext());
    }

    #[test]
    fn server_view_tracks_through_session_recb() {
        let mut t = recb(b"The quick brown fox", 4, 2);
        let mut server = t.ciphertext().to_string();
        for wire_delta in ["=4\t+slow and ", "-3\t+A", "=10\t-5", "+>>\t=3\t-1"] {
            let delta = Delta::parse(wire_delta).unwrap();
            let cdelta = t.transform(&delta).unwrap();
            server = cdelta.apply(&server).unwrap();
            assert_eq!(server, t.ciphertext(), "after {wire_delta:?}");
        }
        // Plaintext model must match too.
        let mut model = b"The quick brown fox".to_vec();
        for wire_delta in ["=4\t+slow and ", "-3\t+A", "=10\t-5", "+>>\t=3\t-1"] {
            model = Delta::parse(wire_delta).unwrap().apply_bytes(&model).unwrap();
        }
        assert_eq!(t.doc().decrypt().unwrap(), model);
    }

    #[test]
    fn server_view_tracks_through_session_rpc() {
        let mut t = rpc(b"integrity protected editing session", 7, 3);
        let mut server = t.ciphertext().to_string();
        for wire_delta in ["=9\t-10\t+XYZ", "+prefix ", "=20\t+mid", "-6"] {
            let delta = Delta::parse(wire_delta).unwrap();
            let cdelta = t.transform(&delta).unwrap();
            server = cdelta.apply(&server).unwrap();
            assert_eq!(server, t.ciphertext(), "after {wire_delta:?}");
        }
        // Server-held ciphertext must verify and decrypt.
        let reopened = RpcDocument::open(&key(), &server, CtrDrbg::from_seed(9)).unwrap();
        assert_eq!(reopened.decrypt().unwrap(), t.doc().decrypt().unwrap());
    }

    #[test]
    fn multi_op_delta_composes_into_one_cdelta() {
        let mut t = recb(b"abcdefg", 8, 4);
        let before = t.ciphertext().to_string();
        let cdelta = t.transform(&Delta::parse("=2\t-3\t+uv\t=2\t+w").unwrap()).unwrap();
        assert_eq!(t.doc().decrypt().unwrap(), b"abuvfgw");
        assert_eq!(cdelta.apply(&before).unwrap(), t.ciphertext());
    }

    #[test]
    fn out_of_bounds_delta_rejected() {
        let mut t = recb(b"abc", 8, 5);
        let err = t.transform(&Delta::parse("=10\t+x").unwrap()).unwrap_err();
        assert!(matches!(err, CoreError::OutOfBounds { .. }));
    }

    #[test]
    fn replace_all_resets_contents() {
        let mut t = recb(b"old contents", 8, 6);
        t.replace_all(b"entirely new").unwrap();
        assert_eq!(t.doc().decrypt().unwrap(), b"entirely new");
        assert_eq!(t.ciphertext(), t.doc().serialize());
    }

    #[test]
    fn identity_delta_produces_identity_cdelta() {
        let mut t = recb(b"unchanged", 8, 7);
        let cdelta = t.transform(&Delta::parse("=5").unwrap()).unwrap();
        assert!(cdelta.is_identity());
    }

    /// `old` with `splices` (ascending, old offsets) applied.
    fn spliced(old: &[u8], splices: &[PlainSplice]) -> Vec<u8> {
        let mut out = Vec::new();
        let mut cursor = 0;
        for s in splices {
            out.extend_from_slice(&old[cursor..s.at]);
            out.extend_from_slice(&s.inserted);
            cursor = s.at + s.removed;
        }
        out.extend_from_slice(&old[cursor..]);
        out
    }

    #[test]
    fn followers_absorb_a_writers_deltas() {
        let script = ["=4\t+slow and ", "-3\t+A", "=10\t-5", "+>>\t=3\t-1\t=6\t+!", "-30"];
        for rpc_mode in [false, true] {
            let (mut writer, mut follower) = if rpc_mode {
                let w = rpc(b"The quick brown fox jumps over", 5, 20);
                let f = RpcDocument::open(&key(), w.ciphertext(), CtrDrbg::from_seed(21)).unwrap();
                (DeltaTransformer::new(Box::new(w.into_doc()) as Box<dyn IncrementalCipherDoc>),
                 DeltaTransformer::new(Box::new(f) as Box<dyn IncrementalCipherDoc>))
            } else {
                let w = recb(b"The quick brown fox jumps over", 5, 20);
                let f = RecbDocument::open(&key(), w.ciphertext(), CtrDrbg::from_seed(21)).unwrap();
                (DeltaTransformer::new(Box::new(w.into_doc()) as Box<dyn IncrementalCipherDoc>),
                 DeltaTransformer::new(Box::new(f) as Box<dyn IncrementalCipherDoc>))
            };
            for wire_delta in script {
                let old = follower.doc().decrypt().unwrap();
                let cdelta = writer.transform(&Delta::parse(wire_delta).unwrap()).unwrap();
                let splices = follower.apply_foreign(&cdelta).unwrap();
                assert_eq!(follower.ciphertext(), writer.ciphertext(), "{wire_delta:?}");
                let new = writer.doc().decrypt().unwrap();
                assert_eq!(spliced(&old, &splices), new, "rpc={rpc_mode} {wire_delta:?}");
            }
        }
    }

    #[test]
    fn a_rejected_rpc_splice_changes_nothing() {
        let mut writer = RpcDocument::create(
            &key(),
            SchemeParams::rpc(7),
            b"integrity first, then speed",
            CtrDrbg::from_seed(30),
        )
        .unwrap();
        let wire = writer.serialize();
        let mut follower = RpcDocument::open(&key(), &wire, CtrDrbg::from_seed(31)).unwrap();
        let patches = writer.apply(&EditOp::insert(9, b", always")).unwrap();
        // Without its checksum patch the splice leaves a stale checksum.
        assert!(matches!(
            follower.apply_foreign(&patches[..1]),
            Err(CoreError::IntegrityFailure { .. })
        ));
        assert_eq!(follower.serialize(), wire);
        assert_eq!(follower.decrypt().unwrap(), b"integrity first, then speed");
        // The whole splice still applies afterwards.
        follower.apply_foreign(&patches).unwrap();
        assert_eq!(follower.serialize(), writer.serialize());
    }

    #[test]
    fn misaligned_deltas_are_not_record_splices() {
        let layout = Layout::standard();
        let len = layout.record_offset(3);
        // Inside the preamble, off a record boundary, partial records,
        // and past the end.
        let huge = format!("=36\t-{}", usize::MAX / 27 * 27);
        for bad in ["=5\t-1", "=41\t+x", "=36\t-26", "=36\t+abc", "=500", huge.as_str()] {
            let delta = Delta::parse(bad).unwrap();
            assert!(delta_to_patches(&delta, layout, len).is_err(), "{bad}");
        }
        let record = "X".repeat(layout.record_chars);
        let at = layout.record_offset(1);
        let ok = Delta::parse(&format!("={at}\t-{}\t+{record}", layout.record_chars)).unwrap();
        let patches = delta_to_patches(&ok, layout, len).unwrap();
        assert_eq!(patches, vec![CipherPatch::splice(1, 1, vec![record])]);
        assert_eq!(patches_to_delta(&patches, layout), ok);
    }

    #[test]
    fn patches_to_delta_offsets() {
        let layout = Layout::standard();
        let record = "X".repeat(layout.record_chars);
        let patches = vec![
            CipherPatch::splice(1, 1, vec![record.clone()]),
            CipherPatch::splice(3, 0, vec![record.clone()]),
        ];
        let delta = patches_to_delta(&patches, layout);
        let expected_retain = layout.record_offset(1);
        let serialized = delta.serialize();
        assert!(serialized.starts_with(&format!("={expected_retain}")), "{serialized}");
    }
}
