//! Property-based tests for the incremental encryption schemes.
//!
//! The central correctness law of incremental encryption (§V-A): after any
//! sequence of `IncE` updates, decryption yields exactly the plaintext the
//! same edits produce on a reference model — and the ciphertext patches
//! returned by each update transform the server's stored string into the
//! document's own serialization.

use pe_core::baseline::{CoCloDocument, XorDocument};
use pe_core::wire::apply_patches;
use pe_core::{DocumentKey, EditOp, IncrementalCipherDoc, RecbDocument, RpcDocument, SchemeParams};
use pe_crypto::CtrDrbg;
use proptest::prelude::*;

/// A raw edit drawn by proptest; bounds are fixed up against the evolving
/// document length.
#[derive(Debug, Clone)]
struct RawEdit {
    kind: u8,
    at: usize,
    amount: usize,
    byte: u8,
}

fn raw_edit() -> impl Strategy<Value = RawEdit> {
    (any::<u8>(), 0usize..4096, 0usize..24, any::<u8>())
        .prop_map(|(kind, at, amount, byte)| RawEdit { kind, at, amount, byte })
}

/// Resolves a raw edit into a valid `EditOp` for a document of length
/// `len`, mirroring how a real editor only produces in-bounds edits.
fn resolve(raw: &RawEdit, len: usize) -> EditOp {
    if raw.kind.is_multiple_of(2) || len == 0 {
        let at = if len == 0 { 0 } else { raw.at % (len + 1) };
        let text: Vec<u8> = (0..raw.amount.max(1))
            .map(|i| raw.byte.wrapping_add(i as u8) % 94 + 32)
            .collect();
        EditOp::insert(at, &text)
    } else {
        let at = raw.at % len;
        let max = len - at;
        EditOp::delete(at, (raw.amount % max.max(1)).max(1).min(max))
    }
}

fn apply_model(model: &mut Vec<u8>, op: &EditOp) {
    match op {
        EditOp::Insert { at, text } => {
            model.splice(at..at, text.iter().copied());
        }
        EditOp::Delete { at, len } => {
            model.drain(*at..*at + *len);
        }
    }
}

/// Runs a full session against one scheme and checks every law after
/// every step.
fn run_session<D, F>(initial: &[u8], edits: &[RawEdit], make: F)
where
    D: IncrementalCipherDoc,
    F: FnOnce(&[u8]) -> D,
{
    let mut doc = make(initial);
    let mut model = initial.to_vec();
    let mut server = doc.serialize();
    for raw in edits {
        let op = resolve(raw, model.len());
        let patches = doc.apply(&op).expect("in-bounds edit must succeed");
        apply_model(&mut model, &op);
        apply_patches(&mut server, doc.layout(), &patches)
            .expect("patches must apply to the server copy");
        assert_eq!(server, doc.serialize(), "server copy must track serialization");
        assert_eq!(doc.decrypt().expect("decrypt"), model, "decrypt must match the model");
        assert_eq!(doc.len(), model.len());
    }
}

fn key() -> DocumentKey {
    DocumentKey::derive("prop-pw", &[0x42; 16], 50)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn recb_session_laws(
        initial in proptest::collection::vec(32u8..127, 0..200),
        edits in proptest::collection::vec(raw_edit(), 1..25),
        b in 1usize..=8,
        seed in any::<u64>(),
    ) {
        run_session(&initial, &edits, |text| {
            RecbDocument::create(&key(), SchemeParams::recb(b), text, CtrDrbg::from_seed(seed))
                .unwrap()
        });
    }

    #[test]
    fn rpc_session_laws(
        initial in proptest::collection::vec(32u8..127, 0..200),
        edits in proptest::collection::vec(raw_edit(), 1..25),
        b in 1usize..=7,
        seed in any::<u64>(),
    ) {
        run_session(&initial, &edits, |text| {
            RpcDocument::create(&key(), SchemeParams::rpc(b), text, CtrDrbg::from_seed(seed))
                .unwrap()
        });
    }

    #[test]
    fn coclo_session_laws(
        initial in proptest::collection::vec(32u8..127, 0..100),
        edits in proptest::collection::vec(raw_edit(), 1..10),
        seed in any::<u64>(),
    ) {
        run_session(&initial, &edits, |text| {
            CoCloDocument::create(&key(), SchemeParams::recb(8), text, CtrDrbg::from_seed(seed))
                .unwrap()
        });
    }

    #[test]
    fn xor_session_laws(
        initial in proptest::collection::vec(32u8..127, 0..150),
        edits in proptest::collection::vec(raw_edit(), 1..15),
        seed in any::<u64>(),
    ) {
        run_session(&initial, &edits, |text| {
            XorDocument::create(&key(), SchemeParams::recb(8), text, CtrDrbg::from_seed(seed))
                .unwrap()
        });
    }

    /// The serialized RPC ciphertext produced by any edit session must
    /// reopen cleanly (integrity holds on honest updates) and decrypt to
    /// the same plaintext.
    #[test]
    fn rpc_serialization_reopens(
        initial in proptest::collection::vec(32u8..127, 0..120),
        edits in proptest::collection::vec(raw_edit(), 0..12),
        seed in any::<u64>(),
    ) {
        let mut doc = RpcDocument::create(
            &key(), SchemeParams::rpc(7), &initial, CtrDrbg::from_seed(seed),
        ).unwrap();
        let mut model = initial.clone();
        for raw in &edits {
            let op = resolve(raw, model.len());
            doc.apply(&op).unwrap();
            apply_model(&mut model, &op);
        }
        let wire = doc.serialize();
        let reopened = RpcDocument::open(&key(), &wire, CtrDrbg::from_seed(1)).unwrap();
        prop_assert_eq!(reopened.decrypt().unwrap(), model);
    }

    /// Flipping any single record character of an RPC document (outside
    /// the preamble) must be detected on open.
    #[test]
    fn rpc_detects_any_single_char_corruption(
        text in proptest::collection::vec(32u8..127, 1..60),
        seed in any::<u64>(),
        victim in any::<usize>(),
    ) {
        let doc = RpcDocument::create(
            &key(), SchemeParams::rpc(7), &text, CtrDrbg::from_seed(seed),
        ).unwrap();
        let wire = doc.serialize();
        let preamble = pe_core::wire::PREAMBLE_CHARS;
        let pos = preamble + victim % (wire.len() - preamble);
        let mut chars: Vec<char> = wire.chars().collect();
        // Replace with a different Base32 character (tags 0-9 stay digits
        // to keep the structure parseable — structural errors also count
        // as detection).
        let replacement = if chars[pos] == 'A' { 'B' } else { 'A' };
        chars[pos] = replacement;
        let tampered: String = chars.into_iter().collect();
        let result = RpcDocument::open(&key(), &tampered, CtrDrbg::from_seed(2));
        prop_assert!(result.is_err(), "corruption at char {pos} must be detected");
    }
}
