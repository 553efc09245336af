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

    /// Consumes up to `n` input characters from the head retain/delete,
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
    /// same base document of `base_len` characters; the result applies to
    /// `other.apply(base)` and preserves this delta's intent.
    ///
    /// `side` breaks insertion ties: with [`Side::Left`], this delta's
    /// insertions at a shared position land before `other`'s.
    ///
    /// # Errors
    ///
    /// Returns [`DeltaError::PastEnd`] when either delta consumes more
    /// than `base_len` characters.
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
                        out.retain(s.chars().count());
                    }
                }
                // The other inserts text this delta must retain over.
                (_, Some(DeltaOp::Insert(_))) => {
                    if let Some(DeltaOp::Insert(s)) = b.pop() {
                        out.retain(s.chars().count());
                    }
                }
                // Both consume base characters.
                (Some(_), Some(_)) => {
                    let n = a.head_input_len().min(b.head_input_len()).max(1);
                    let (taken_a, a_retains) = a.consume(n);
                    let (taken_b, b_retains) = b.consume(taken_a);
                    debug_assert_eq!(taken_a, taken_b, "streams must stay aligned");
                    match (a_retains, b_retains) {
                        // Both keep the characters.
                        (true, true) => {
                            out.retain(taken_a);
                        }
                        // This delta deletes characters the other kept.
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
        let len = doc.chars().count();
        let a_prime = a.transform(b, len, Side::Left).unwrap();
        let b_prime = b.transform(a, len, Side::Right).unwrap();
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

    /// Builds a valid random delta for a document of `len` chars.
    fn build(len: usize, raw: &[(u8, u8, char)]) -> Delta {
        let mut remaining = len;
        let mut builder = Delta::builder();
        for &(kind, n, c) in raw {
            let n = n as usize % 7;
            match kind % 3 {
                0 => {
                    let take = n.min(remaining);
                    remaining -= take;
                    builder.retain(take);
                }
                1 => {
                    let take = n.min(remaining);
                    remaining -= take;
                    builder.delete(take);
                }
                _ => {
                    let text: String = std::iter::repeat_n(c, n % 4).collect();
                    builder.insert(&text);
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
            doc in "[a-d]{0,40}",
            raw_a in proptest::collection::vec((any::<u8>(), any::<u8>(), proptest::char::range('w', 'y')), 0..8),
            raw_b in proptest::collection::vec((any::<u8>(), any::<u8>(), proptest::char::range('W', 'Y')), 0..8),
        ) {
            let len = doc.chars().count();
            let a = build(len, &raw_a);
            let b = build(len, &raw_b);
            let a_prime = a.transform(&b, len, Side::Left).unwrap();
            let b_prime = b.transform(&a, len, Side::Right).unwrap();
            let via_a = b_prime.apply(&a.apply(&doc).unwrap()).unwrap();
            let via_b = a_prime.apply(&b.apply(&doc).unwrap()).unwrap();
            prop_assert_eq!(via_a, via_b);
        }

        /// Transforming against the identity changes nothing semantically.
        #[test]
        fn identity_is_neutral(
            doc in "[a-d]{0,30}",
            raw in proptest::collection::vec((any::<u8>(), any::<u8>(), proptest::char::range('p', 'r')), 0..8),
        ) {
            let len = doc.chars().count();
            let a = build(len, &raw);
            let id = Delta::new();
            let a_prime = a.transform(&id, len, Side::Left).unwrap();
            prop_assert_eq!(a_prime.apply(&doc).unwrap(), a.apply(&doc).unwrap());
        }
    }
}
