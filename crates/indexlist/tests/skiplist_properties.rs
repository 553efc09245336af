//! Structural property tests for the IndexedSkipList.
//!
//! Two invariants the model-based tests cannot see from the outside:
//!
//! 1. **Span partition**: the forward links at *every* level partition the
//!    sequence, so each level's `span_blocks`/`span_weight` totals must
//!    equal `len_blocks()`/`total_weight()` exactly.
//! 2. **Locate oracle**: `locate(i)` must agree with a linear scan over
//!    the iterated blocks for every reachable character index.
//!
//! Bulk appends are mixed with inserts, removes and replaces, so they
//! draw from arena slots and tower runs the removes freed;
//! `assert_invariants` checks that live and freed slots and runs account
//! for the arena and the link pool exactly once.

use pe_indexlist::{BlockSeq, IndexedSkipList, Location, Weighted};
use proptest::prelude::*;

#[derive(Debug, Clone, PartialEq)]
struct Block(Vec<u8>);

impl Weighted for Block {
    fn weight(&self) -> usize {
        self.0.len()
    }
}

/// An operation with positions drawn open-range; resolved modulo the
/// current size when applied, so every sequence is valid.
#[derive(Debug, Clone)]
enum RawOp {
    Insert { pos: usize, len: usize },
    Remove { pos: usize },
    Replace { pos: usize, len: usize },
    ExtendBack { n: usize },
}

fn raw_op() -> impl Strategy<Value = RawOp> {
    prop_oneof![
        3 => (any::<usize>(), 1usize..=9).prop_map(|(pos, len)| RawOp::Insert { pos, len }),
        1 => any::<usize>().prop_map(|pos| RawOp::Remove { pos }),
        1 => (any::<usize>(), 1usize..=9).prop_map(|(pos, len)| RawOp::Replace { pos, len }),
        1 => (0usize..=12).prop_map(|n| RawOp::ExtendBack { n }),
    ]
}

/// Applies ops to a skip list, keeping a flat mirror of the block weights.
fn build(seed: u64, ops: &[RawOp]) -> (IndexedSkipList<Block>, Vec<usize>) {
    let mut list = IndexedSkipList::with_seed(seed);
    let mut weights: Vec<usize> = Vec::new();
    for (step, op) in ops.iter().enumerate() {
        let n = weights.len();
        match op {
            RawOp::Insert { pos, len } => {
                let pos = if n == 0 { 0 } else { pos % (n + 1) };
                list.insert(pos, Block(vec![step as u8; *len]));
                weights.insert(pos, *len);
            }
            RawOp::Remove { pos } if n > 0 => {
                let pos = pos % n;
                list.remove(pos);
                weights.remove(pos);
            }
            RawOp::Replace { pos, len } if n > 0 => {
                let pos = pos % n;
                list.replace(pos, Block(vec![step as u8; *len]));
                weights[pos] = *len;
            }
            RawOp::ExtendBack { n } => {
                let lens: Vec<usize> = (0..*n).map(|k| 1 + (step + k) % 9).collect();
                list.extend_back(lens.iter().map(|&len| Block(vec![step as u8; len])).collect());
                weights.extend(lens);
            }
            _ => {}
        }
    }
    (list, weights)
}

/// Linear-scan oracle for `locate`: walk the weights, find the block
/// holding `char_index`.
fn locate_oracle(weights: &[usize], char_index: usize) -> Option<Location> {
    let mut remaining = char_index;
    for (block, &w) in weights.iter().enumerate() {
        if remaining < w {
            return Some(Location { block, offset: remaining });
        }
        remaining -= w;
    }
    None
}

proptest! {
    /// Invariant 1: every level's span sums equal the list totals.
    #[test]
    fn every_level_spans_partition_the_sequence(
        seed in any::<u64>(),
        ops in proptest::collection::vec(raw_op(), 0..120),
    ) {
        let (list, weights) = build(seed, &ops);
        prop_assert_eq!(list.len_blocks(), weights.len());
        prop_assert_eq!(list.total_weight(), weights.iter().sum::<usize>());
        for (level, (blocks, weight)) in list.level_span_totals().into_iter().enumerate() {
            prop_assert_eq!(
                (blocks, weight),
                (list.len_blocks(), list.total_weight()),
                "level {} span totals disagree with the list totals",
                level
            );
        }
        list.assert_invariants();
    }

    /// Invariant 2: locate agrees with the linear-scan oracle everywhere,
    /// including one past the end.
    #[test]
    fn locate_agrees_with_linear_scan(
        seed in any::<u64>(),
        ops in proptest::collection::vec(raw_op(), 0..60),
    ) {
        let (list, weights) = build(seed, &ops);
        let total = list.total_weight();
        for char_index in 0..=total {
            prop_assert_eq!(
                list.locate(char_index),
                locate_oracle(&weights, char_index),
                "locate({}) disagrees with the oracle",
                char_index
            );
        }
        prop_assert_eq!(list.locate(total + 1), None);
    }
}
