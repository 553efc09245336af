//! The canonical multi-hunk delta (§VI-B countermeasure): a function of
//! the two document versions alone, one small replace per differing
//! stretch, and what that costs on the wire.

use std::sync::{Arc, Mutex};

use pe_cloud::docs::DocsServer;
use pe_cloud::{CloudService, Request, Response};
use pe_crypto::{form, CtrDrbg};
use pe_delta::{changed_window, diff, Delta, DeltaOp};
use pe_extension::countermeasures::{canonical_delta, EDIT_DISTANCE_CAP, MERGE_GAP};
use pe_extension::{DocsMediator, MediatorConfig};
use proptest::prelude::*;

/// Edit distance in bytes (inserts plus deletes), by dynamic programming.
fn edit_distance(a: &[u8], b: &[u8]) -> usize {
    let mut row: Vec<usize> = (0..=b.len()).collect();
    for (i, x) in a.iter().enumerate() {
        let mut diag = row[0];
        row[0] = i + 1;
        for (j, y) in b.iter().enumerate() {
            let next = if x == y { diag } else { row[j].min(row[j + 1]) + 1 };
            diag = row[j + 1];
            row[j + 1] = next;
        }
    }
    row[b.len()]
}

/// `(at, removed, inserted)` of every hunk, in byte counts.
fn hunks(delta: &Delta, len: usize) -> Vec<(usize, usize, usize)> {
    delta.hunks(len).unwrap().iter().map(|h| (h.at, h.removed, h.inserted_len())).collect()
}

/// The same effect in one-byte steps: every character of the common
/// prefix and suffix replaced by itself, the window deleted a byte at a
/// time and inserted a character at a time.
fn one_byte_steps(old: &str, new: &str) -> Delta {
    let (prefix, suffix) = changed_window(old, new, 0, 0);
    let mut ops = Vec::new();
    let self_replace = |ops: &mut Vec<DeltaOp>, text: &str| {
        for c in text.chars() {
            ops.push(DeltaOp::Delete(c.len_utf8()));
            ops.push(DeltaOp::Insert(c.to_string()));
        }
    };
    self_replace(&mut ops, &old[..prefix]);
    ops.extend((prefix..old.len() - suffix).map(|_| DeltaOp::Delete(1)));
    ops.extend(new[prefix..new.len() - suffix].chars().map(|c| DeltaOp::Insert(c.to_string())));
    self_replace(&mut ops, &old[old.len() - suffix..]);
    Delta::from_ops(ops)
}

/// Applies `edits` to `base` at character boundaries, returning the
/// result and the client's delta: the byte-counted edits composed.
fn edit(base: &str, edits: &[(usize, bool, usize, String)]) -> (String, Delta) {
    let mut text = base.to_string();
    let mut client = Delta::new();
    for (at, delete, len, insert) in edits {
        let at = text.floor_char_boundary(at % (text.len() + 1));
        let end = if *delete { text.ceil_char_boundary((at + len).min(text.len())) } else { at };
        let mut builder = Delta::builder();
        builder.retain(at).delete(end - at).insert(insert);
        let step = builder.build();
        step.apply_in_place(&mut text).unwrap();
        client = client.compose(&step);
    }
    (text, client)
}

fn base_text() -> impl Strategy<Value = String> {
    prop_oneof!["[a-z ]{0,200}", "[a-cé日😀 ]{0,80}"]
}

fn edits() -> impl Strategy<Value = Vec<(usize, bool, usize, String)>> {
    proptest::collection::vec(
        (any::<usize>(), any::<bool>(), 0usize..6, prop_oneof!["[a-z]{0,4}", "[xé日 ]{0,30}"]),
        0..5,
    )
}

proptest! {
    /// Every encoding of one effect canonicalizes to the same bytes — the
    /// canonical delta itself included, so the form is idempotent — and
    /// the canonical delta is small, whole-character and exact.
    #[test]
    fn canonical_form_depends_on_the_two_versions_only(base in base_text(), edits in edits()) {
        let (new, client) = edit(&base, &edits);
        let canonical = canonical_delta(&client, &base).unwrap();
        let wire = canonical.serialize();
        let mut everything = Delta::builder();
        everything.delete(base.len()).insert(&new);
        let steps = one_byte_steps(&base, &new);
        for other in [canonical.clone(), steps, diff(&base, &new), everything.build()] {
            prop_assert_eq!(&canonical_delta(&other, &base).unwrap().serialize(), &wire, "{}", other);
        }
        // It applies, and every hunk sits on character boundaries.
        prop_assert_eq!(canonical.apply_bytes(base.as_bytes()).unwrap(), new.as_bytes());
        let spans = hunks(&canonical, base.len());
        for &(at, removed, _) in &spans {
            prop_assert!(base.is_char_boundary(at) && base.is_char_boundary(at + removed));
        }
        // Its size is the edit distance plus the equal bytes it keeps:
        // gaps under MERGE_GAP between merged stretches, and at most three
        // bytes each side to finish a character, on both sides of the edit.
        let distance = edit_distance(base.as_bytes(), new.as_bytes());
        let sent: usize = spans.iter().map(|&(_, removed, inserted)| removed + inserted).sum();
        if distance > EDIT_DISTANCE_CAP {
            prop_assert_eq!(canonical, diff(&base, &new));
        } else {
            let widening = if base.is_ascii() && new.is_ascii() { 0 } else { 12 * distance };
            let merged = (MERGE_GAP - 1) * distance.saturating_sub(spans.len());
            prop_assert!(sent <= distance + 2 * merged + widening, "{} for distance {}", wire, distance);
            if base.is_ascii() && new.is_ascii() && spans.len() == 1 {
                prop_assert!(sent <= distance + 2 * (MERGE_GAP - 1) * distance.saturating_sub(1));
            }
        }
    }
}

#[test]
fn far_apart_edits_stay_separate_hunks() {
    let base = "the quick brown fox jumps over the lazy dog. ".repeat(20);
    let mut builder = Delta::builder();
    builder.retain(100).insert("X").retain(500).delete(3).insert("Y");
    let canonical = canonical_delta(&builder.build(), &base).unwrap();
    assert_eq!(hunks(&canonical, base.len()), vec![(100, 0, 1), (600, 3, 1)]);
}

/// A service that remembers the body of every request it forwards.
#[derive(Clone)]
struct Recorder {
    inner: Arc<DocsServer>,
    bodies: Arc<Mutex<Vec<String>>>,
}

impl CloudService for Recorder {
    fn handle(&self, request: &Request) -> Response {
        let body = request.body_text().unwrap_or("").to_string();
        self.bodies.lock().unwrap().push(body);
        self.inner.handle(request)
    }

    fn name(&self) -> &'static str {
        "recorder"
    }
}

#[test]
fn two_far_apart_inserts_seal_a_few_blocks() {
    let text: String = "editing in private, one small change at a time. ".repeat(700);
    let text = &text[..32 * 1024];
    for config in [MediatorConfig::recb(8), MediatorConfig::rpc(7)] {
        let server = Arc::new(DocsServer::new());
        let recorder = Recorder { inner: Arc::clone(&server), bodies: Arc::default() };
        let mut mediator =
            DocsMediator::with_rng(recorder.clone(), config, CtrDrbg::from_seed(22));
        let doc_id = mediator.create_document("pw").unwrap();
        mediator.save_full(&doc_id, text).unwrap();
        // Two one-byte inserts 16 KiB apart, in one save.
        let mut builder = Delta::builder();
        builder.retain(8 * 1024).insert("!").retain(16 * 1024).insert("?");
        let delta = builder.build();
        let expected = String::from_utf8(delta.apply_bytes(text.as_bytes()).unwrap()).unwrap();
        mediator.save_delta(&doc_id, &delta).unwrap();

        let body = recorder.bodies.lock().unwrap().last().cloned().unwrap();
        let pairs = form::parse_pairs(&body).unwrap();
        let sent = form::first_value(&pairs, "delta").unwrap();
        assert!(sent.len() < 1024, "{:?}: sent {} bytes of ciphertext delta", config.params, sent.len());
        let records: usize = Delta::parse(sent)
            .unwrap()
            .ops()
            .iter()
            .map(|op| match op {
                DeltaOp::Insert(records) => records.len() / pe_core::wire::RECORD_CHARS,
                _ => 0,
            })
            .sum();
        assert!(records <= 8, "{:?}: sealed {records} blocks", config.params);

        let mut reader = DocsMediator::with_rng(Arc::clone(&server), config, CtrDrbg::from_seed(23));
        reader.register_password(&doc_id, "pw");
        assert_eq!(reader.open_document(&doc_id).unwrap(), expected);
    }
}
