//! Delta composition.
//!
//! `a.compose(&b)` produces a single delta equivalent to applying `a` and
//! then `b`. The extension uses composition to merge the client's queued
//! updates before canonicalizing them (§VI-B suggests "maintaining each
//! group of delta updates and merging them into a canonical form before
//! sending an update to the server").

use std::collections::VecDeque;

use crate::ops::{Delta, DeltaOp};

impl Delta {
    /// Composes `self` followed by `other` into one delta such that for
    /// every document `d` where the two-step application succeeds,
    /// `self.compose(&other).apply_bytes(d) ==
    /// other.apply_bytes(self.apply_bytes(d))`. Counts are **bytes**; a
    /// count of `other` that ends inside a multi-byte character `self`
    /// inserts is rounded up to the end of that character.
    ///
    /// Composition is total: operations of `other` that reach past
    /// `self`'s explicit output operate on the implicitly-retained tail
    /// and pass through unchanged. Whether the composed delta fits a
    /// particular document is still checked at [`Delta::apply`] time.
    pub fn compose(&self, other: &Delta) -> Delta {
        let mut a: VecDeque<DeltaOp> = self.ops().to_vec().into();
        let mut b: VecDeque<DeltaOp> = other.ops().to_vec().into();
        let mut out = Delta::builder();
        loop {
            // Deletions in `a` affect the original document regardless of
            // what `b` does afterwards.
            if let Some(DeltaOp::Delete(n)) = a.front() {
                out.delete(*n);
                a.pop_front();
                continue;
            }
            // Insertions in `b` are independent of `a`'s output.
            if let Some(DeltaOp::Insert(s)) = b.front() {
                out.insert(s);
                b.pop_front();
                continue;
            }
            match (a.pop_front(), b.pop_front()) {
                (None, None) => break,
                // `a` exhausted: the rest of `b` operates on the implicit
                // tail of the original document.
                (None, Some(op)) => {
                    push_op(&mut out, &op);
                    while let Some(op) = b.pop_front() {
                        push_op(&mut out, &op);
                    }
                    break;
                }
                // `b` exhausted: it implicitly retains everything `a`
                // produces.
                (Some(op), None) => {
                    push_op(&mut out, &op);
                    while let Some(op) = a.pop_front() {
                        push_op(&mut out, &op);
                    }
                    break;
                }
                (Some(DeltaOp::Retain(n)), Some(DeltaOp::Retain(m))) => {
                    let take = n.min(m);
                    out.retain(take);
                    requeue_count(&mut a, DeltaOp::Retain(n - take));
                    requeue_count(&mut b, DeltaOp::Retain(m - take));
                }
                (Some(DeltaOp::Retain(n)), Some(DeltaOp::Delete(m))) => {
                    let take = n.min(m);
                    out.delete(take);
                    requeue_count(&mut a, DeltaOp::Retain(n - take));
                    requeue_count(&mut b, DeltaOp::Delete(m - take));
                }
                (Some(DeltaOp::Insert(s)), Some(DeltaOp::Retain(m))) => {
                    let take = split_point(&s, m);
                    out.insert(&s[..take]);
                    if take < s.len() {
                        a.push_front(DeltaOp::Insert(s[take..].to_string()));
                    }
                    requeue_count(&mut b, DeltaOp::Retain(m.saturating_sub(take)));
                }
                (Some(DeltaOp::Insert(s)), Some(DeltaOp::Delete(m))) => {
                    let take = split_point(&s, m);
                    if take < s.len() {
                        a.push_front(DeltaOp::Insert(s[take..].to_string()));
                    }
                    requeue_count(&mut b, DeltaOp::Delete(m.saturating_sub(take)));
                }
                // Unreachable: deletes in `a` and inserts in `b` were
                // drained above.
                (Some(DeltaOp::Delete(_)), _) | (_, Some(DeltaOp::Insert(_))) => {
                    unreachable!("drained before the match")
                }
            }
        }
        out.build()
    }
}

/// Pushes an op onto the builder preserving its kind.
fn push_op(out: &mut crate::ops::DeltaBuilder, op: &DeltaOp) {
    match op {
        DeltaOp::Retain(n) => {
            out.retain(*n);
        }
        DeltaOp::Delete(n) => {
            out.delete(*n);
        }
        DeltaOp::Insert(s) => {
            out.insert(s);
        }
    }
}

/// How many bytes of inserted text `s` a retain or delete of `count`
/// bytes consumes: at most all of `s`, rounded up to the end of a
/// character the count would cut.
fn split_point(s: &str, count: usize) -> usize {
    s.ceil_char_boundary(s.len().min(count))
}

/// Puts the remainder of a partially-consumed counting op back on the
/// queue front (dropping empty remainders).
fn requeue_count(queue: &mut VecDeque<DeltaOp>, op: DeltaOp) {
    let empty = matches!(&op, DeltaOp::Retain(0) | DeltaOp::Delete(0));
    if !empty {
        queue.push_front(op);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn compose_check(doc: &str, a: &str, b: &str) {
        let da = Delta::parse(a).unwrap();
        let db = Delta::parse(b).unwrap();
        let two_step = db.apply_bytes(&da.apply_bytes(doc.as_bytes()).unwrap()).unwrap();
        let composed = da.compose(&db);
        assert_eq!(
            composed.apply_bytes(doc.as_bytes()).unwrap(),
            two_step,
            "compose({a:?}, {b:?}) on {doc:?} → {composed:?}"
        );
    }

    #[test]
    fn compose_simple_cases() {
        compose_check("abcdefg", "=2\t-5", "+xy");
        compose_check("abcdefg", "=2\t-3\t+uv\t=2\t+w", "=1\t-2\t+Q");
        compose_check("hello", "", "=1\t+i");
        compose_check("hello", "+abc", "");
        compose_check("hello", "-5", "+bye");
        // Byte counts: 抹 and 茶 are three bytes each.
        compose_check("hello", "+抹茶", "=3\t-3");
        compose_check("héé", "+é", "=2\t+y\t=3\t-2");
    }

    #[test]
    fn compose_insert_then_delete_cancels() {
        let a = Delta::parse("+abc").unwrap();
        let b = Delta::parse("-3").unwrap();
        let composed = a.compose(&b);
        assert!(composed.is_identity(), "got {composed:?}");
    }

    #[test]
    fn compose_reaches_into_implicit_tail() {
        // `a` touches only the first char; `b` edits beyond a's explicit ops.
        compose_check("abcdef", "=1\t+X", "=4\t-2");
        // `b` consumes past everything `a` explicitly produced.
        compose_check("abcdef", "+P", "=3\t-4");
    }

    #[test]
    fn identity_composes_neutrally() {
        let d = Delta::parse("=2\t+xy\t-1").unwrap();
        let id = Delta::new();
        assert_eq!(id.compose(&d).normalized(), d.normalized());
        assert_eq!(d.compose(&id).normalized(), d.normalized());
    }

    /// Builds a random valid delta for `doc` from a bag of raw choices:
    /// counts are the byte lengths of whole characters.
    fn build_delta(doc: &str, raw: &[(u8, u8)]) -> Delta {
        const INSERTS: [&str; 4] = ["i", "é", "日", "😀"];
        let mut cursor = 0;
        let mut builder = Delta::builder();
        for &(kind, amount) in raw {
            let take: usize =
                doc[cursor..].chars().take(amount as usize).map(char::len_utf8).sum();
            match kind % 3 {
                0 => {
                    builder.retain(take);
                    cursor += take;
                }
                1 => {
                    builder.delete(take);
                    cursor += take;
                }
                _ => {
                    let text = INSERTS[kind as usize % 4].repeat(amount as usize % 5);
                    builder.insert(&text);
                }
            }
        }
        builder.build()
    }

    proptest! {
        /// compose(a, b).apply(d) == b.apply(a.apply(d)) for arbitrary
        /// valid deltas.
        #[test]
        fn compose_equals_sequential_application(
            doc in "[a-dé日😀]{0,40}",
            raw_a in proptest::collection::vec((0u8..=255, 0u8..=6), 0..8),
            raw_b in proptest::collection::vec((0u8..=255, 0u8..=6), 0..8),
        ) {
            let a = build_delta(&doc, &raw_a);
            let mid = a.apply(&doc).unwrap();
            let b = build_delta(&mid, &raw_b);
            let two_step = b.apply(&mid).unwrap();
            let composed = a.compose(&b);
            prop_assert_eq!(composed.apply(&doc).unwrap(), two_step);
        }

        /// Composition is associative in effect.
        #[test]
        fn compose_is_associative_in_effect(
            doc in "[a-cé日😀]{0,30}",
            raw_a in proptest::collection::vec((0u8..=255, 0u8..=5), 0..6),
            raw_b in proptest::collection::vec((0u8..=255, 0u8..=5), 0..6),
            raw_c in proptest::collection::vec((0u8..=255, 0u8..=5), 0..6),
        ) {
            let a = build_delta(&doc, &raw_a);
            let d1 = a.apply(&doc).unwrap();
            let b = build_delta(&d1, &raw_b);
            let d2 = b.apply(&d1).unwrap();
            let c = build_delta(&d2, &raw_c);
            let left = a.compose(&b).compose(&c);
            let right = a.compose(&b.compose(&c));
            prop_assert_eq!(left.apply(&doc).unwrap(), right.apply(&doc).unwrap());
        }
    }
}
