//! Robustness fuzzing: hostile or garbage serialized input must produce
//! errors, never panics. (A malicious server controls everything a
//! document-open path parses.)

use pe_core::baseline::XorDocument;
use pe_core::wire::{apply_patches, decode_record, split_records, CipherPatch, Layout, Preamble};
use pe_core::{DocumentKey, RecbDocument, RpcDocument};
use pe_crypto::CtrDrbg;
use proptest::prelude::*;

fn key() -> DocumentKey {
    DocumentKey::derive("fuzz", &[0xf0; 16], 50)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary Unicode garbage through every parser.
    #[test]
    fn arbitrary_text_never_panics(text in "\\PC{0,300}") {
        let _ = Preamble::parse(&text);
        let _ = split_records(&text);
        let _ = decode_record(&text);
        let _ = RecbDocument::open(&key(), &text, CtrDrbg::from_seed(0));
        let _ = RpcDocument::open(&key(), &text, CtrDrbg::from_seed(0));
        let _ = XorDocument::open(&key(), &text, CtrDrbg::from_seed(0));
    }

    /// ASCII strings in the right alphabet (the adversary's best shot at
    /// structural validity) still never panic.
    #[test]
    fn plausible_ciphertext_never_panics(body in "[A-Z2-7;b18PRE]{0,400}") {
        let _ = RecbDocument::open(&key(), &body, CtrDrbg::from_seed(1));
        let _ = RpcDocument::open(&key(), &body, CtrDrbg::from_seed(1));
    }

    /// Truncations, extensions, and single-char corruptions of a VALID
    /// document: must error or produce a document, never panic — and for
    /// RPC must never silently verify.
    #[test]
    fn mutations_of_valid_documents_never_panic(
        cut in any::<usize>(),
        junk in "[A-Z2-7]{0,30}",
        flip_at in any::<usize>(),
    ) {
        let doc = RpcDocument::create(
            &key(),
            pe_core::SchemeParams::rpc(7),
            b"a perfectly normal secret document",
            CtrDrbg::from_seed(2),
        )
        .unwrap();
        use pe_core::IncrementalCipherDoc;
        let wire = doc.serialize();

        // Truncation at an arbitrary byte position.
        let cut = cut % (wire.len() + 1);
        let truncated = &wire[..cut];
        prop_assert!(
            cut == wire.len() || RpcDocument::open(&key(), truncated, CtrDrbg::from_seed(3)).is_err()
        );

        // Appending junk.
        let extended = format!("{wire}{junk}");
        if !junk.is_empty() {
            prop_assert!(RpcDocument::open(&key(), &extended, CtrDrbg::from_seed(3)).is_err());
        }

        // Single character replacement inside the record region.
        let preamble = pe_core::wire::PREAMBLE_CHARS;
        let pos = preamble + flip_at % (wire.len() - preamble);
        let mut chars: Vec<char> = wire.chars().collect();
        let original = chars[pos];
        chars[pos] = if original == 'Q' { 'R' } else { 'Q' };
        if chars[pos] != original {
            let corrupted: String = chars.into_iter().collect();
            prop_assert!(
                RpcDocument::open(&key(), &corrupted, CtrDrbg::from_seed(3)).is_err(),
                "corruption at {pos} must be detected"
            );
        }
    }

    /// apply_patches with arbitrary patch sets: error or success, no panic.
    #[test]
    fn arbitrary_patches_never_panic(
        start in 0usize..10,
        removed in 0usize..10,
        n_inserted in 0usize..4,
        width in 0usize..40,
    ) {
        let doc = {
            let pre = Preamble::new(&pe_core::SchemeParams::recb(8), [1; 16]).encode();
            let record = pe_core::wire::encode_record('1', &[7; 16]);
            format!("{pre}{record}{record}{record}")
        };
        let inserted = vec!["W".repeat(width); n_inserted];
        let patch = CipherPatch::splice(start, removed, inserted);
        let mut out = doc.clone();
        if apply_patches(&mut out, Layout::standard(), &[patch]).is_err() {
            prop_assert_eq!(out, doc, "a refused patch changes nothing");
        }
    }
}
