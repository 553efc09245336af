//! Serialized ciphertext format.
//!
//! The server must be able to store and render the ciphertext as ordinary
//! document text, so everything is encoded with the RFC 4648 Base32
//! alphabet (§IV/Fig. 2 of the paper use `Base32.encode`). The format is:
//!
//! ```text
//! PE1;<mode>;b<digit>;<salt>; <record> <record> …
//! └────────── preamble ─────┘
//! ```
//!
//! * The **preamble** is cleartext: format version, mode tag (`R` = rECB,
//!   `P` = RPC), maximum block size, and the Base32 KDF salt. It is
//!   written once at creation and never changes, so incremental updates
//!   never touch it.
//! * Each **record** is exactly [`RECORD_CHARS`] characters: a one-character
//!   tag followed by 26 Base32 characters encoding one 16-byte AES block.
//!   Tags: `0` = header block, `1`–`8` = data block holding that many
//!   plaintext characters (the public per-block character counter §V-C
//!   requires for variable-length blocks), `9` = RPC checksum block.
//!
//! Because records have fixed width, an incremental update maps to a small
//! set of contiguous record splices ([`CipherPatch`]), which the
//! transformer turns into a character-level delta over this string.

use pe_crypto::base32;

use crate::error::CoreError;
use crate::keys::{Mode, SchemeParams};

/// Characters per serialized record: 1 tag + 26 Base32 characters for a
/// 16-byte block.
pub const RECORD_CHARS: usize = 1 + base32::encoded_len(16);

/// Fixed preamble length: `PE1;` + `R;` + `b8;` + 26-char salt + `;`.
pub const PREAMBLE_CHARS: usize = 4 + 2 + 3 + base32::encoded_len(16) + 1;

/// Geometry of a serialized ciphertext document, used to convert record
/// indices into character offsets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Layout {
    /// Characters before the first record.
    pub preamble_chars: usize,
    /// Characters per record.
    pub record_chars: usize,
}

impl Layout {
    /// The layout every current document uses.
    pub fn standard() -> Layout {
        Layout { preamble_chars: PREAMBLE_CHARS, record_chars: RECORD_CHARS }
    }

    /// Character offset of record `index`.
    pub fn record_offset(&self, index: usize) -> usize {
        self.preamble_chars + index * self.record_chars
    }
}

/// A contiguous splice of records: starting at `start_record` (an index
/// into the records of the *previous* serialized ciphertext), `removed`
/// records are deleted and `inserted` serialized records take their place.
///
/// [`IncrementalCipherDoc::apply`](crate::IncrementalCipherDoc::apply)
/// returns patches sorted by `start_record` and non-overlapping, so they
/// translate directly into a single left-to-right delta.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CipherPatch {
    /// Record index (in the pre-update ciphertext) where the splice starts.
    pub start_record: usize,
    /// Number of old records removed.
    pub removed: usize,
    /// Serialized replacement records.
    pub inserted: Vec<String>,
}

impl CipherPatch {
    /// A patch replacing `removed` records at `start_record` with the
    /// given serialized records.
    pub fn splice(start_record: usize, removed: usize, inserted: Vec<String>) -> CipherPatch {
        CipherPatch { start_record, removed, inserted }
    }
}

/// Cleartext document parameters carried in the preamble.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Preamble {
    /// Encryption mode.
    pub mode: Mode,
    /// Maximum characters per block.
    pub max_block: usize,
    /// KDF salt.
    pub salt: [u8; 16],
}

impl Preamble {
    /// Builds a preamble from scheme parameters and the key salt.
    pub fn new(params: &SchemeParams, salt: [u8; 16]) -> Preamble {
        Preamble { mode: params.mode, max_block: params.max_block, salt }
    }

    /// Encodes the preamble (always [`PREAMBLE_CHARS`] characters).
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.push_to(&mut out);
        out
    }

    /// Appends the encoded preamble to `out`.
    fn push_to(&self, out: &mut String) {
        let start = out.len();
        out.push_str("PE1;");
        out.push(self.mode.tag());
        out.push_str(";b");
        out.push(char::from(b'0' + self.max_block as u8));
        out.push(';');
        push_base32(out, &self.salt);
        out.push(';');
        debug_assert_eq!(out.len() - start, PREAMBLE_CHARS);
    }

    /// Parses a preamble from the start of a serialized document.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Malformed`] when the text does not follow the
    /// preamble grammar.
    pub fn parse(text: &str) -> Result<Preamble, CoreError> {
        let malformed = |detail: &str| CoreError::Malformed { detail: detail.to_string() };
        if text.len() < PREAMBLE_CHARS || !text.is_char_boundary(PREAMBLE_CHARS) {
            return Err(malformed("document shorter than preamble"));
        }
        let head = &text[..PREAMBLE_CHARS];
        if !head.starts_with("PE1;") {
            return Err(malformed("missing PE1 magic"));
        }
        let mut fields = head[4..head.len() - 1].split(';');
        let mode_field = fields.next().ok_or_else(|| malformed("missing mode"))?;
        let mode = mode_field
            .chars()
            .next()
            .and_then(Mode::from_tag)
            .filter(|_| mode_field.len() == 1)
            .ok_or_else(|| malformed("unknown mode tag"))?;
        let block_field = fields.next().ok_or_else(|| malformed("missing block size"))?;
        let max_block = block_field
            .strip_prefix('b')
            .and_then(|d| d.parse::<usize>().ok())
            .filter(|b| (1..=8).contains(b))
            .ok_or_else(|| malformed("invalid block size field"))?;
        let salt_field = fields.next().ok_or_else(|| malformed("missing salt"))?;
        let salt = base32::decode_block(salt_field.as_bytes())
            .map_err(|_| malformed("invalid salt encoding"))?;
        Ok(Preamble { mode, max_block, salt })
    }
}

/// Appends the Base32 of a 16-byte block (upper case).
fn push_base32(out: &mut String, block: &[u8; 16]) {
    let chars = base32::encode_block(block);
    out.extend(chars.iter().map(|&c| char::from(c)));
}

/// Encodes one record: tag character + Base32 of the 16-byte block.
pub fn encode_record(tag: char, block: &[u8; 16]) -> String {
    let mut out = String::with_capacity(RECORD_CHARS);
    push_record(&mut out, tag, block);
    out
}

/// Appends one record to a serialized document.
pub fn push_record(out: &mut String, tag: char, block: &[u8; 16]) {
    debug_assert!(tag.is_ascii_digit());
    out.push(tag);
    push_base32(out, block);
}

/// Decodes one record (its [`RECORD_CHARS`] bytes) into its tag and
/// block. Allocates nothing unless it fails.
///
/// # Errors
///
/// Returns [`CoreError::Malformed`] for wrong length, an invalid tag, or
/// invalid Base32.
pub fn decode_record(text: impl AsRef<[u8]>) -> Result<(char, [u8; 16]), CoreError> {
    let text = text.as_ref();
    if text.len() != RECORD_CHARS {
        return Err(CoreError::Malformed {
            detail: format!("record must be {RECORD_CHARS} chars, got {}", text.len()),
        });
    }
    let tag = text[0];
    if !tag.is_ascii_digit() {
        return Err(CoreError::Malformed {
            detail: format!("invalid record tag {:?}", char::from(tag)),
        });
    }
    let block = base32::decode_block(&text[1..])
        .map_err(|e| CoreError::Malformed { detail: format!("invalid record body: {e}") })?;
    Ok((char::from(tag), block))
}

/// The records of a serialized document, in place: an iterator over
/// their [`RECORD_CHARS`]-byte slices, for [`decode_record`].
///
/// # Errors
///
/// Returns [`CoreError::Malformed`] when the text is shorter than the
/// preamble or its record region is not a whole number of records.
pub fn records(text: &str) -> Result<std::slice::ChunksExact<'_, u8>, CoreError> {
    if text.len() < PREAMBLE_CHARS || !text.is_char_boundary(PREAMBLE_CHARS) {
        return Err(CoreError::Malformed { detail: "document shorter than preamble".into() });
    }
    let body = &text.as_bytes()[PREAMBLE_CHARS..];
    if !body.len().is_multiple_of(RECORD_CHARS) {
        return Err(CoreError::Malformed {
            detail: format!("record region length {} is not a multiple of {RECORD_CHARS}", body.len()),
        });
    }
    Ok(body.chunks_exact(RECORD_CHARS))
}

/// Splits the record region of a serialized document into record strings.
///
/// # Errors
///
/// As for [`records`], and [`CoreError::Malformed`] for a record that
/// does not end on a character boundary.
pub fn split_records(text: &str) -> Result<Vec<&str>, CoreError> {
    records(text)?
        .map(|c| {
            std::str::from_utf8(c)
                .map_err(|_| CoreError::Malformed { detail: "record is not ASCII".into() })
        })
        .collect()
}

/// Puts the serialized document a scheme opened from `text` into the
/// canonical form its `serialize` writes, in place: the preamble is
/// re-encoded and the record region upper-cased (Base32 decodes either
/// case, and a record decodes to one block only). The result equals what
/// the opened document serializes to, without a second encoding pass.
///
/// # Errors
///
/// [`CoreError::Malformed`] when the preamble does not parse.
pub fn canonicalize(text: &mut String) -> Result<(), CoreError> {
    let mut preamble = String::with_capacity(PREAMBLE_CHARS);
    Preamble::parse(text)?.push_to(&mut preamble);
    text.replace_range(..PREAMBLE_CHARS, &preamble);
    text[PREAMBLE_CHARS..].make_ascii_uppercase();
    Ok(())
}

/// Appends the preamble and every record of a document to one buffer:
/// what `serialize` returns for rECB and RPC documents.
pub(crate) fn serialize_records<'a>(
    preamble: &Preamble,
    records: impl Iterator<Item = (char, &'a [u8; 16])>,
) -> String {
    let mut out = String::new();
    preamble.push_to(&mut out);
    for (tag, block) in records {
        push_record(&mut out, tag, block);
    }
    out
}

/// Applies a sorted, non-overlapping patch set to a serialized ciphertext
/// document in place.
///
/// This mirrors what the cloud server effectively does when it applies the
/// transformed delta: it is used by tests and by the delta transformer to
/// maintain the extension's ciphertext mirror. Every check runs before
/// anything changes, and the checks look only at what the patches touch
/// — their record offsets and the records they insert — so the cost is
/// the bytes from the first patch to the end plus the inserted records.
///
/// # Errors
///
/// Returns [`CoreError::Malformed`] when patches overlap, are unsorted,
/// reach outside the document's records, or insert a record that is not
/// `record_chars` ASCII characters; `doc` is then unchanged.
pub fn apply_patches(
    doc: &mut String,
    layout: Layout,
    patches: &[CipherPatch],
) -> Result<(), CoreError> {
    let malformed = |detail: String| CoreError::Malformed { detail };
    let record_region = doc
        .len()
        .checked_sub(layout.preamble_chars)
        .filter(|_| doc.is_char_boundary(layout.preamble_chars))
        .ok_or_else(|| malformed("document shorter than preamble".into()))?;
    if record_region % layout.record_chars != 0 {
        return Err(malformed("misaligned record region".into()));
    }
    let total_records = record_region / layout.record_chars;
    let mut cursor = 0usize; // record index into the old document
    for patch in patches {
        if patch.start_record < cursor {
            return Err(malformed("patches overlap or are unsorted".into()));
        }
        let splice_end = patch.start_record.saturating_add(patch.removed);
        if splice_end > total_records {
            return Err(malformed(format!(
                "patch touches record {} but document has {total_records}",
                splice_end - 1
            )));
        }
        for at in [patch.start_record, splice_end] {
            if !doc.is_char_boundary(layout.record_offset(at)) {
                return Err(malformed("ciphertext documents are ASCII".into()));
            }
        }
        if let Some(bad) =
            patch.inserted.iter().find(|r| r.len() != layout.record_chars || !r.is_ascii())
        {
            return Err(malformed(format!(
                "inserted record of width {} is not {} ASCII characters",
                bad.len(),
                layout.record_chars
            )));
        }
        cursor = splice_end;
    }
    let Some(first) = patches.first() else {
        return Ok(());
    };
    let base = layout.record_offset(first.start_record);
    let tail = doc.split_off(base);
    let mut cursor = base;
    for patch in patches {
        let start = layout.record_offset(patch.start_record);
        doc.push_str(&tail[cursor - base..start - base]);
        patch.inserted.iter().for_each(|record| doc.push_str(record));
        cursor = layout.record_offset(patch.start_record + patch.removed);
    }
    doc.push_str(&tail[cursor - base..]);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_width_is_27() {
        assert_eq!(RECORD_CHARS, 27);
    }

    #[test]
    fn preamble_roundtrip() {
        for (mode, b) in [(Mode::Recb, 1), (Mode::Recb, 8), (Mode::Rpc, 4)] {
            let params = match mode {
                Mode::Recb => SchemeParams::recb(b),
                Mode::Rpc => SchemeParams::rpc(b),
            };
            let pre = Preamble::new(&params, [0xab; 16]);
            let text = pre.encode();
            assert_eq!(text.len(), PREAMBLE_CHARS);
            assert_eq!(Preamble::parse(&text).unwrap(), pre);
        }
    }

    #[test]
    fn preamble_rejects_garbage() {
        assert!(Preamble::parse("").is_err());
        assert!(Preamble::parse(&"x".repeat(PREAMBLE_CHARS)).is_err());
        let good = Preamble::new(&SchemeParams::recb(8), [1; 16]).encode();
        let bad_mode = good.replacen("R", "Z", 1);
        assert!(Preamble::parse(&bad_mode).is_err());
        let bad_block = good.replacen("b8", "b9", 1);
        assert!(Preamble::parse(&bad_block).is_err());
    }

    #[test]
    fn record_roundtrip() {
        let block = [0x5a; 16];
        for tag in '0'..='9' {
            let text = encode_record(tag, &block);
            assert_eq!(text.len(), RECORD_CHARS);
            assert_eq!(decode_record(&text).unwrap(), (tag, block));
        }
    }

    #[test]
    fn record_rejects_bad_input() {
        assert!(decode_record("short").is_err());
        let good = encode_record('1', &[0; 16]);
        let bad_tag = format!("x{}", &good[1..]);
        assert!(decode_record(&bad_tag).is_err());
        let bad_body = format!("1{}", "!".repeat(26));
        assert!(decode_record(&bad_body).is_err());
    }

    #[test]
    fn split_records_checks_alignment() {
        let pre = Preamble::new(&SchemeParams::recb(8), [2; 16]).encode();
        let r1 = encode_record('0', &[1; 16]);
        let r2 = encode_record('3', &[2; 16]);
        let doc = format!("{pre}{r1}{r2}");
        let records = split_records(&doc).unwrap();
        assert_eq!(records, vec![r1.as_str(), r2.as_str()]);
        let misaligned = format!("{pre}{r1}xx");
        assert!(split_records(&misaligned).is_err());
    }

    #[test]
    fn layout_offsets() {
        let layout = Layout::standard();
        assert_eq!(layout.record_offset(0), PREAMBLE_CHARS);
        assert_eq!(layout.record_offset(3), PREAMBLE_CHARS + 3 * RECORD_CHARS);
    }

    fn sample_doc(n: usize) -> String {
        let mut doc = Preamble::new(&SchemeParams::recb(8), [7; 16]).encode();
        for i in 0..n {
            doc.push_str(&encode_record('1', &[i as u8; 16]));
        }
        doc
    }

    #[test]
    fn apply_patches_replaces_records() {
        let doc = sample_doc(3);
        let replacement = encode_record('2', &[0xff; 16]);
        let patch = CipherPatch::splice(1, 1, vec![replacement.clone()]);
        let mut out = doc.clone();
        apply_patches(&mut out, Layout::standard(), &[patch]).unwrap();
        let records = split_records(&out).unwrap();
        assert_eq!(records.len(), 3);
        assert_eq!(records[1], replacement);
        assert_eq!(records[0], split_records(&doc).unwrap()[0]);
    }

    #[test]
    fn apply_patches_insert_and_remove() {
        let doc = sample_doc(4);
        let extra = encode_record('4', &[0xee; 16]);
        let patches = vec![
            CipherPatch::splice(1, 0, vec![extra.clone()]),
            CipherPatch::splice(2, 2, vec![]),
        ];
        let mut out = doc.clone();
        apply_patches(&mut out, Layout::standard(), &patches).unwrap();
        let old_records = split_records(&doc).unwrap();
        let records = split_records(&out).unwrap();
        assert_eq!(records.len(), 3);
        assert_eq!(records[0], old_records[0]);
        assert_eq!(records[1], extra);
        assert_eq!(records[2], old_records[1]);
    }

    #[test]
    fn apply_patches_rejects_overlap() {
        let doc = sample_doc(4);
        let patches = vec![CipherPatch::splice(1, 2, vec![]), CipherPatch::splice(2, 1, vec![])];
        let mut out = doc.clone();
        assert!(apply_patches(&mut out, Layout::standard(), &patches).is_err());
        assert_eq!(out, doc, "nothing changes until every check passes");
    }

    #[test]
    fn apply_patches_rejects_out_of_range() {
        let doc = sample_doc(2);
        let patches = vec![CipherPatch::splice(1, 5, vec![])];
        assert!(apply_patches(&mut doc.clone(), Layout::standard(), &patches).is_err());
    }

    #[test]
    fn empty_patch_set_is_identity() {
        let doc = sample_doc(2);
        let mut out = doc.clone();
        apply_patches(&mut out, Layout::standard(), &[]).unwrap();
        assert_eq!(out, doc);
    }

    #[test]
    fn apply_patches_checks_the_records_it_inserts() {
        let doc = sample_doc(3);
        let good = encode_record('2', &[0xff; 16]);
        let accented = format!("é{}", &good[2..]);
        for bad in ["short".to_string(), accented] {
            // The second patch is bad: the first must not land either.
            let patches = vec![
                CipherPatch::splice(0, 1, vec![good.clone()]),
                CipherPatch::splice(2, 0, vec![bad]),
            ];
            let mut out = doc.clone();
            assert!(apply_patches(&mut out, Layout::standard(), &patches).is_err());
            assert_eq!(out, doc);
        }
    }
}
