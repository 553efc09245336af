//! Property tests for the delta protocol's wire format and algebra.

use pe_delta::{diff, Delta, DeltaOp};
use proptest::prelude::*;

fn arbitrary_op() -> impl Strategy<Value = DeltaOp> {
    prop_oneof![
        (0usize..100).prop_map(DeltaOp::Retain),
        (0usize..100).prop_map(DeltaOp::Delete),
        "\\PC{0,20}".prop_map(DeltaOp::Insert),
    ]
}

proptest! {
    /// Wire round-trip preserves arbitrary op sequences exactly —
    /// including redundant ones (required by the covert-channel work).
    #[test]
    fn serialize_parse_roundtrip(ops in proptest::collection::vec(arbitrary_op(), 0..20)) {
        let delta = Delta::from_ops(ops);
        let wire = delta.serialize();
        prop_assert_eq!(Delta::parse(&wire).unwrap(), delta);
    }

    /// diff(a, b) always transforms a into b, for any pair of strings.
    #[test]
    fn diff_is_always_correct(a in "\\PC{0,80}", b in "\\PC{0,80}") {
        let delta = diff(&a, &b);
        prop_assert_eq!(delta.apply(&a).unwrap(), b);
    }

    /// diff is canonical: diffing equal documents gives the identity.
    #[test]
    fn diff_of_equal_is_identity(a in "\\PC{0,80}") {
        prop_assert!(diff(&a, &a).is_identity());
    }

    /// Normalization never changes a delta's effect.
    #[test]
    fn normalized_preserves_semantics(
        doc in "[a-e]{0,60}",
        raw in proptest::collection::vec((any::<u8>(), 0usize..10, "[x-z]{0,5}"), 0..10),
    ) {
        // Build a valid delta against doc.
        let mut remaining = doc.len();
        let mut ops = Vec::new();
        for (kind, n, text) in raw {
            match kind % 3 {
                0 => {
                    let take = n.min(remaining);
                    remaining -= take;
                    ops.push(DeltaOp::Retain(take));
                }
                1 => {
                    let take = n.min(remaining);
                    remaining -= take;
                    ops.push(DeltaOp::Delete(take));
                }
                _ => ops.push(DeltaOp::Insert(text)),
            }
        }
        let delta = Delta::from_ops(ops);
        let normalized = delta.normalized();
        prop_assert_eq!(delta.apply(&doc).unwrap(), normalized.apply(&doc).unwrap());
    }

    /// apply and apply_bytes agree on any text and any byte offset:
    /// apply gives the same bytes, or refuses exactly the cuts whose
    /// result is not UTF-8.
    #[test]
    fn apply_bytes_matches_apply_on_text(
        doc in "\\PC{0,60}",
        at in any::<usize>(),
        cut in 0usize..4,
        text in "\\PC{0,10}",
    ) {
        let at = at % (doc.len() + 1);
        let mut builder = Delta::builder();
        builder.retain(at).delete(cut.min(doc.len() - at)).insert(&text);
        let delta = builder.build();
        let via_bytes = delta.apply_bytes(doc.as_bytes()).unwrap();
        match delta.apply(&doc) {
            Ok(via_text) => prop_assert_eq!(via_text.as_bytes(), &via_bytes[..]),
            Err(_) => prop_assert!(String::from_utf8(via_bytes).is_err()),
        }
    }
}
