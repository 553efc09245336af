//! Operational transformation: rebasing one delta over another.
//!
//! The paper's §VII-A finds collaborative editing only *partially*
//! functional under the extension and points at SPORC (Feldman et al.,
//! OSDI 2010) for the full solution. SPORC's core mechanism is
//! **operational transformation** (OT): when two clients edit the same
//! base concurrently, each rebases its delta over the other's so both
//! converge. This module implements OT for the delta language, enabling
//! the client-side merge that upgrades concurrent editing from "partial"
//! to functional: a live session rebases its unsent edits over each
//! change pushed from the change stream (see `pe_collab::LiveSession`
//! and `DocsClient::apply_foreign_delta`).
//!
//! The convergence law (OT's TP1 property), verified by property tests:
//!
//! ```text
//! b.transform(a, Right).apply(a.apply(doc))
//!     == a.transform(b, Left).apply(b.apply(doc))
//! ```
//!
//! where [`Side`] breaks the tie when both deltas insert at the same
//! position (the `Left` delta's insertion ends up first).

use crate::error::DeltaError;
use crate::ops::{Delta, DeltaOp};

/// Tie-breaking priority for concurrent insertions at the same position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// This delta's insertions win ties (end up before the other's).
    Left,
    /// The other delta's insertions win ties.
    Right,
}

/// A consumable cursor over a delta's ops with explicit trailing retain.
struct OpStream {
    ops: std::collections::VecDeque<DeltaOp>,
}

impl OpStream {
    fn new(delta: &Delta, base_len: usize) -> Result<OpStream, DeltaError> {
        let consumed = delta.input_len();
        if consumed > base_len {
            return Err(DeltaError::PastEnd {
                position: 0,
                requested: consumed,
                len: base_len,
            });
        }
        let mut ops: std::collections::VecDeque<DeltaOp> = delta.ops().to_vec().into();
        let tail = base_len - consumed;
        if tail > 0 {
            ops.push_back(DeltaOp::Retain(tail));
        }
        Ok(OpStream { ops })
    }

    fn peek(&self) -> Option<&DeltaOp> {
        self.ops.front()
    }

    fn pop(&mut self) -> Option<DeltaOp> {
        self.ops.pop_front()
    }

    /// Consumes up to `n` input bytes from the head retain/delete,
    /// returning how many were consumed and whether they were retained.
    fn consume(&mut self, n: usize) -> (usize, bool) {
        match self.ops.pop_front() {
            Some(DeltaOp::Retain(m)) => {
                let take = m.min(n);
                if m > take {
                    self.ops.push_front(DeltaOp::Retain(m - take));
                }
                (take, true)
            }
            Some(DeltaOp::Delete(m)) => {
                let take = m.min(n);
                if m > take {
                    self.ops.push_front(DeltaOp::Delete(m - take));
                }
                (take, false)
            }
            Some(op @ DeltaOp::Insert(_)) => {
                // Inserts consume no input; put it back.
                self.ops.push_front(op);
                (0, true)
            }
            None => (0, true),
        }
    }

    fn head_input_len(&self) -> usize {
        match self.peek() {
            Some(DeltaOp::Retain(n)) | Some(DeltaOp::Delete(n)) => *n,
            _ => 0,
        }
    }
}

impl Delta {
    /// Rebases this delta over `other`: both were produced against the
    /// same base document of `base_len` bytes; the result applies to
    /// `other.apply(base)` and preserves this delta's intent.
    ///
    /// `side` breaks insertion ties: with [`Side::Left`], this delta's
    /// insertions at a shared position land before `other`'s.
    ///
    /// # Errors
    ///
    /// Returns [`DeltaError::PastEnd`] when either delta consumes more
    /// than `base_len` bytes.
    ///
    /// # Example
    ///
    /// ```
    /// use pe_delta::{Delta, Side};
    ///
    /// let base = "shared text";
    /// let alice = Delta::parse("+A: ")?;                    // prepend
    /// let bob = Delta::parse("=11\t+ (bob)")?;              // append
    /// let bob_rebased = bob.transform(&alice, base.len(), Side::Right)?;
    /// let merged = bob_rebased.apply(&alice.apply(base)?)?;
    /// assert_eq!(merged, "A: shared text (bob)");
    /// # Ok::<(), pe_delta::DeltaError>(())
    /// ```
    pub fn transform(
        &self,
        other: &Delta,
        base_len: usize,
        side: Side,
    ) -> Result<Delta, DeltaError> {
        let mut a = OpStream::new(self, base_len)?;
        let mut b = OpStream::new(other, base_len)?;
        let mut out = Delta::builder();
        loop {
            match (a.peek(), b.peek()) {
                (None, _) => break,
                // This delta inserts: it wins the tie when Left, or when
                // the other is not inserting here.
                (Some(DeltaOp::Insert(_)), peek_b) => {
                    let b_inserting = matches!(peek_b, Some(DeltaOp::Insert(_)));
                    if side == Side::Left || !b_inserting {
                        if let Some(DeltaOp::Insert(s)) = a.pop() {
                            out.insert(&s);
                        }
                    } else if let Some(DeltaOp::Insert(s)) = b.pop() {
                        // The other's insert lands first: retain over it.
                        out.retain(s.len());
                    }
                }
                // The other inserts text this delta must retain over.
                (_, Some(DeltaOp::Insert(_))) => {
                    if let Some(DeltaOp::Insert(s)) = b.pop() {
                        out.retain(s.len());
                    }
                }
                // Both consume base bytes.
                (Some(_), Some(_)) => {
                    let n = a.head_input_len().min(b.head_input_len()).max(1);
                    let (taken_a, a_retains) = a.consume(n);
                    let (taken_b, b_retains) = b.consume(taken_a);
                    debug_assert_eq!(taken_a, taken_b, "streams must stay aligned");
                    match (a_retains, b_retains) {
                        // Both keep the bytes.
                        (true, true) => {
                            out.retain(taken_a);
                        }
                        // This delta deletes bytes the other kept.
                        (false, true) => {
                            out.delete(taken_a);
                        }
                        // The other already deleted them: nothing to do.
                        (true, false) | (false, false) => {}
                    }
                }
                // The other is exhausted (its implicit tail was explicit,
                // so this means both hit base_len): emit the rest of a.
                (Some(_), None) => {
                    while let Some(op) = a.pop() {
                        match op {
                            DeltaOp::Retain(n) => {
                                out.retain(n);
                            }
                            DeltaOp::Delete(n) => {
                                out.delete(n);
                            }
                            DeltaOp::Insert(s) => {
                                out.insert(&s);
                            }
                        }
                    }
                    break;
                }
            }
        }
        Ok(out.build())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Checks TP1 convergence for a pair of concurrent deltas.
    fn converges(doc: &str, a: &Delta, b: &Delta) -> String {
        let a_prime = a.transform(b, doc.len(), Side::Left).unwrap();
        let b_prime = b.transform(a, doc.len(), Side::Right).unwrap();
        let via_a = b_prime.apply(&a.apply(doc).unwrap()).unwrap();
        let via_b = a_prime.apply(&b.apply(doc).unwrap()).unwrap();
        assert_eq!(via_a, via_b, "TP1 violated for {a:?} / {b:?} on {doc:?}");
        via_a
    }

    #[test]
    fn disjoint_edits_merge() {
        let doc = "the quick brown fox";
        let a = Delta::parse("+<< ").unwrap(); // prepend
        let b = Delta::parse("=19\t+ >>").unwrap(); // append
        assert_eq!(converges(doc, &a, &b), "<< the quick brown fox >>");
    }

    #[test]
    fn same_position_inserts_tiebreak() {
        let doc = "ab";
        let a = Delta::parse("=1\t+X").unwrap();
        let b = Delta::parse("=1\t+Y").unwrap();
        // Left's insert lands first.
        assert_eq!(converges(doc, &a, &b), "aXYb");
    }

    #[test]
    fn overlapping_deletes_do_not_double_delete() {
        let doc = "abcdefgh";
        let a = Delta::parse("=2\t-4").unwrap(); // delete cdef
        let b = Delta::parse("=4\t-4").unwrap(); // delete efgh
        assert_eq!(converges(doc, &a, &b), "ab");
    }

    #[test]
    fn delete_vs_insert_inside_range() {
        let doc = "abcdef";
        let a = Delta::parse("=1\t-4").unwrap(); // delete bcde
        let b = Delta::parse("=3\t+XY").unwrap(); // insert inside the range
        // The insert survives; the surrounding deletion still happens.
        assert_eq!(converges(doc, &a, &b), "aXYf");
    }

    #[test]
    fn multi_byte_inserts_shift_by_their_bytes() {
        // é is two bytes: an append after "abc" moves from 3 to 5.
        let a = Delta::parse("+é").unwrap();
        let b = Delta::parse("=3\t+!").unwrap();
        assert_eq!(b.transform(&a, 3, Side::Right).unwrap().serialize(), "=5\t+!");
        assert_eq!(converges("abc", &a, &b), "éabc!");
        let (a, b) = (Delta::parse("+X").unwrap(), Delta::parse("=9\t+ (bob)").unwrap());
        assert_eq!(converges("héé abc", &a, &b), "Xhéé abc (bob)");
    }

    #[test]
    fn identity_transforms_to_identity() {
        let doc = "unchanged";
        let id = Delta::new();
        let b = Delta::parse("=3\t+news").unwrap();
        let id_prime = id.transform(&b, doc.len(), Side::Left).unwrap();
        assert!(id_prime.apply(&b.apply(doc).unwrap()).unwrap() == b.apply(doc).unwrap());
    }

    #[test]
    fn transform_rejects_oversized_deltas() {
        let a = Delta::parse("=100").unwrap();
        let b = Delta::new();
        assert!(a.transform(&b, 5, Side::Left).is_err());
        assert!(b.transform(&a, 5, Side::Right).is_err());
    }

    /// Builds a valid random delta for `doc`: every count is the byte
    /// length of whole characters, so every edit sits on a boundary.
    fn build(doc: &str, raw: &[(u8, u8, String)]) -> Delta {
        let mut cursor = 0;
        let mut builder = Delta::builder();
        for (kind, n, text) in raw {
            let take: usize =
                doc[cursor..].chars().take(*n as usize % 7).map(char::len_utf8).sum();
            match kind % 3 {
                0 => {
                    cursor += take;
                    builder.retain(take);
                }
                1 => {
                    cursor += take;
                    builder.delete(take);
                }
                _ => {
                    builder.insert(text);
                }
            }
        }
        builder.build()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// TP1: concurrent deltas converge regardless of application order.
        #[test]
        fn tp1_convergence(
            doc in "[a-dé日😀]{0,40}",
            raw_a in proptest::collection::vec((any::<u8>(), any::<u8>(), "[wxé日😀]{0,3}"), 0..8),
            raw_b in proptest::collection::vec((any::<u8>(), any::<u8>(), "[WXè月🚀]{0,3}"), 0..8),
        ) {
            let a = build(&doc, &raw_a);
            let b = build(&doc, &raw_b);
            let a_prime = a.transform(&b, doc.len(), Side::Left).unwrap();
            let b_prime = b.transform(&a, doc.len(), Side::Right).unwrap();
            let via_a = b_prime.apply(&a.apply(&doc).unwrap()).unwrap();
            let via_b = a_prime.apply(&b.apply(&doc).unwrap()).unwrap();
            prop_assert_eq!(via_a, via_b);
        }

        /// Transforming against the identity changes nothing semantically.
        #[test]
        fn identity_is_neutral(
            doc in "[a-dé日😀]{0,30}",
            raw in proptest::collection::vec((any::<u8>(), any::<u8>(), "[pqé日😀]{0,3}"), 0..8),
        ) {
            let a = build(&doc, &raw);
            let id = Delta::new();
            let a_prime = a.transform(&id, doc.len(), Side::Left).unwrap();
            prop_assert_eq!(a_prime.apply(&doc).unwrap(), a.apply(&doc).unwrap());
        }
    }
}
