//! Property test: the mediator under arbitrary editor-generated sessions
//! must keep three invariants simultaneously — the plaintext model, the
//! no-leak guarantee, and reopenability.

use std::sync::Arc;

use pe_cloud::docs::DocsServer;
use pe_crypto::CtrDrbg;
use pe_delta::Delta;
use pe_extension::{DocsMediator, MediatorConfig};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct RawEdit {
    kind: u8,
    at: usize,
    amount: usize,
    seed: u8,
}

fn raw_edit() -> impl Strategy<Value = RawEdit> {
    (any::<u8>(), any::<usize>(), 1usize..12, any::<u8>())
        .prop_map(|(kind, at, amount, seed)| RawEdit { kind, at, amount, seed })
}

/// Turns a raw edit into a valid delta against `content`.
fn resolve(raw: &RawEdit, content: &str) -> Delta {
    let len = content.len();
    let mut builder = Delta::builder();
    if raw.kind.is_multiple_of(2) || len == 0 {
        let at = if len == 0 { 0 } else { raw.at % (len + 1) };
        let text: String = (0..raw.amount)
            .map(|i| (b'a' + (raw.seed.wrapping_add(i as u8)) % 26) as char)
            .collect();
        builder.retain(at).insert(&text);
    } else {
        let at = raw.at % len;
        let del = raw.amount.min(len - at).max(1);
        builder.retain(at).delete(del);
    }
    builder.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn mediator_session_invariants(
        initial in "[a-z ]{0,80}",
        saves in proptest::collection::vec(proptest::collection::vec(raw_edit(), 1..4), 1..10),
        rpc in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let config = if rpc { MediatorConfig::rpc(7) } else { MediatorConfig::recb(8) };
        let server = Arc::new(DocsServer::new());
        let mut mediator =
            DocsMediator::with_rng(Arc::clone(&server), config, CtrDrbg::from_seed(seed));
        let doc_id = mediator.create_document("prop-pw").unwrap();
        mediator.save_full(&doc_id, &initial).unwrap();
        let mut model = initial.clone();
        for edits in &saves {
            // Several edits in one save: the canonical delta carries one
            // hunk per differing stretch, end to end.
            let mut delta = Delta::new();
            for raw in edits {
                let edit = resolve(raw, &model);
                edit.apply_in_place(&mut model).unwrap();
                delta = delta.compose(&edit);
            }
            mediator.save_delta(&doc_id, &delta).unwrap();
            // Invariant 1: the mediator's view tracks the model.
            prop_assert_eq!(mediator.plaintext(&doc_id), Some(model.as_str()));
        }
        // Invariant 2: no plaintext word reaches the provider.
        let stored = server.stored_content(&doc_id).unwrap();
        for word in model.split_whitespace().filter(|w| w.len() >= 4) {
            prop_assert!(!stored.contains(word), "leaked {word:?}");
        }
        // Invariant 3: a fresh mediator with the password recovers the
        // exact document (verifying integrity in RPC mode).
        let mut reader =
            DocsMediator::with_rng(Arc::clone(&server), config, CtrDrbg::from_seed(seed ^ 1));
        reader.register_password(&doc_id, "prop-pw");
        prop_assert_eq!(reader.open_document(&doc_id).unwrap(), model);
    }
}
