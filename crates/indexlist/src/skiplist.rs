//! The paper's IndexedSkipList (§V-C, Figure 3, Algorithm 1), generalized
//! to weighted (variable-length) blocks.
//!
//! A classic Pugh skip list stores a sorted list and searches by key. The
//! IndexedSkipList instead associates a `skip_count` with every forward
//! pointer — here a pair *(blocks skipped, characters skipped)* — so the
//! structure is searched **by position**: either by block ordinal or by
//! character index. Find, Insert, and Delete all run in expected
//! `O(log n)` time in the number of blocks, matching the analysis the
//! paper inherits from Pugh's original algorithms.
//!
//! # Layout
//!
//! Nodes live in one arena vector and every link above level 0 in one
//! shared link pool. A node holds its value, its level-0 link (the one
//! every walk ends on and iteration follows) and the `u32` offset of its
//! other `height - 1` links, which sit next to each other in the pool.
//! Heights are geometric with p = 1/2, so the pool holds about one link
//! per node. A removed node's slot and its tower's run of links go on
//! free lists (the runs one list per height) that later inserts and bulk
//! appends draw from first, so neither vector grows under churn. Dropping
//! a list frees two allocations, whatever its length.

use crate::{BlockSeq, Location, Weighted};

/// Maximum tower height; 2^32 blocks is far beyond any document size.
const MAX_LEVEL: usize = 32;

/// Sentinel index: the NIL pointer at the end of every level, the end of
/// every free list, and the tower offset of a node with no pooled links.
const NIL: u32 = u32::MAX;

/// Arena index of the head sentinel. Its tower is the first
/// `MAX_LEVEL - 1` links of the pool, so it never moves as levels grow.
const HEAD: u32 = 0;

/// A forward pointer: the paper's `forward[i].point_at` plus the
/// `skip_count` field, carried in both block and character units.
///
/// Every field is a `u32` (no document this system stores comes near
/// 2^32 blocks or characters), which keeps a link at 12 bytes.
#[derive(Debug, Clone, Copy)]
struct Link {
    /// Arena index of the destination node, or [`NIL`].
    target: u32,
    /// Blocks skipped when following this link, counting the destination:
    /// `rank(target) - rank(source)`.
    span_blocks: u32,
    /// Characters skipped when following this link, counting the full
    /// destination block.
    span_weight: u32,
}

const NIL_LINK: Link = Link { target: NIL, span_blocks: 0, span_weight: 0 };

/// Narrows a span to the stored width, checked in debug builds.
#[inline]
fn span(n: usize) -> u32 {
    debug_assert!(n <= u32::MAX as usize, "span exceeds u32 range");
    n as u32
}

/// Narrows an arena length to a `u32` index.
fn arena_index(n: usize) -> u32 {
    assert!(n < NIL as usize, "arena exceeds u32 range");
    n as u32
}

/// One arena slot.
#[derive(Debug)]
struct Node<T> {
    /// `None` only for the head sentinel and freed arena slots.
    value: Option<T>,
    /// Number of levels this node's tower reaches (at least 1).
    height: u8,
    /// Pool offset of the links at levels `1..height`, or [`NIL`] for a
    /// height-1 node.
    tower: u32,
    /// The level-0 link. In a freed slot, `next.target` chains the free
    /// list instead.
    next: Link,
}

/// SplitMix64: a tiny, high-quality PRNG for tower heights, embedded so the
/// data structure is deterministic given a seed.
#[derive(Debug, Clone)]
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Where a walk to a rank descended: at every level `i` below the list's
/// height, `update[i]` is the last node before the rank and `ranks[i]`
/// its cumulative `(blocks, weight)` rank (the head's is `(0, 0)`).
struct Path {
    update: [u32; MAX_LEVEL],
    ranks: [(usize, usize); MAX_LEVEL],
}

/// The IndexedSkipList of §V-C: an order-statistic skip list over
/// variable-length blocks.
///
/// See the [crate docs](crate) and [`BlockSeq`] for the operation set, and
/// the [module docs](self) for the memory layout.
///
/// # Example
///
/// ```
/// use pe_indexlist::{BlockSeq, IndexedSkipList, Weighted};
///
/// struct B(&'static str);
/// impl Weighted for B {
///     fn weight(&self) -> usize { self.0.len() }
/// }
///
/// let mut list = IndexedSkipList::with_seed(7);
/// for (i, text) in ["abc", "fgh", "ijk"].iter().enumerate() {
///     list.insert(i, B(text));
/// }
/// assert_eq!(list.total_weight(), 9);
/// assert_eq!(list.locate(5).map(|l| l.block), Some(1));
/// ```
#[derive(Debug)]
pub struct IndexedSkipList<T> {
    nodes: Vec<Node<T>>,
    /// Every link above level 0; a tower's links are one contiguous run.
    links: Vec<Link>,
    /// First freed arena slot, or [`NIL`].
    free_node: u32,
    /// `free_towers[h]`: the first freed run of `h - 1` links, or [`NIL`];
    /// each run chains the next through its first link's `target`.
    free_towers: [u32; MAX_LEVEL + 1],
    len_blocks: usize,
    total_weight: usize,
    /// Number of levels currently in use (head tower height), at least 1.
    level: usize,
    rng: SplitMix64,
}

impl<T: Weighted> Default for IndexedSkipList<T> {
    fn default() -> Self {
        IndexedSkipList::new()
    }
}

impl<T: Weighted> IndexedSkipList<T> {
    /// Creates an empty list with a fixed default seed (deterministic).
    pub fn new() -> IndexedSkipList<T> {
        IndexedSkipList::with_seed(0x5eed_feed_cafe_f00d)
    }

    /// Creates an empty list whose tower heights are drawn from the given
    /// seed, making the structure fully reproducible.
    pub fn with_seed(seed: u64) -> IndexedSkipList<T> {
        let head = Node { value: None, height: MAX_LEVEL as u8, tower: 0, next: NIL_LINK };
        IndexedSkipList {
            nodes: vec![head],
            links: vec![NIL_LINK; MAX_LEVEL - 1],
            free_node: NIL,
            free_towers: [NIL; MAX_LEVEL + 1],
            len_blocks: 0,
            total_weight: 0,
            level: 1,
            rng: SplitMix64(seed),
        }
    }

    /// Draws a tower height with geometric distribution (p = 1/2).
    fn random_level(&mut self) -> usize {
        let bits = self.rng.next();
        ((bits.trailing_ones() as usize) + 1).min(MAX_LEVEL)
    }

    /// The level-`i` link leaving node `x`.
    #[inline]
    fn link(&self, x: u32, i: usize) -> Link {
        let node = &self.nodes[x as usize];
        debug_assert!(i < node.height as usize, "level {i} out of range");
        if i == 0 {
            node.next
        } else {
            self.links[node.tower as usize + i - 1]
        }
    }

    #[inline]
    fn link_mut(&mut self, x: u32, i: usize) -> &mut Link {
        let node = &mut self.nodes[x as usize];
        debug_assert!(i < node.height as usize, "level {i} out of range");
        if i == 0 {
            &mut node.next
        } else {
            &mut self.links[node.tower as usize + i - 1]
        }
    }

    /// Raises the head to `lvl` levels. Each new head link runs past the
    /// end, spanning the whole list.
    fn raise_level(&mut self, lvl: usize) {
        let whole = Link {
            target: NIL,
            span_blocks: span(self.len_blocks),
            span_weight: span(self.total_weight),
        };
        for i in self.level..lvl {
            *self.link_mut(HEAD, i) = whole;
        }
        self.level = self.level.max(lvl);
    }

    /// Walks to the node of block-rank `rank` (head has rank 0), recording
    /// for every level the node where the walk descended and that node's
    /// cumulative (blocks, weight) rank.
    fn walk_to_rank(&self, rank: usize) -> Path {
        let mut path = Path { update: [HEAD; MAX_LEVEL], ranks: [(0, 0); MAX_LEVEL] };
        let mut x = HEAD;
        let mut remaining = rank;
        let mut acc_blocks = 0usize;
        let mut acc_weight = 0usize;
        for i in (0..self.level).rev() {
            loop {
                let link = self.link(x, i);
                if link.target == NIL || link.span_blocks as usize > remaining {
                    break;
                }
                remaining -= link.span_blocks as usize;
                acc_blocks += link.span_blocks as usize;
                acc_weight += link.span_weight as usize;
                x = link.target;
            }
            path.update[i] = x;
            path.ranks[i] = (acc_blocks, acc_weight);
        }
        debug_assert_eq!(remaining, 0, "rank walk must land exactly");
        path
    }

    /// The arena index of block `ordinal`, which must be in range.
    fn node_at(&self, ordinal: usize) -> u32 {
        self.link(self.walk_to_rank(ordinal).update[0], 0).target
    }

    /// Allocates a node of the given height, reusing a freed slot and a
    /// freed run of links when there are any. Its links are unset.
    fn alloc(&mut self, value: T, height: usize) -> u32 {
        let tower = if height == 1 {
            NIL
        } else if self.free_towers[height] != NIL {
            let run = self.free_towers[height];
            self.free_towers[height] = self.links[run as usize].target;
            run
        } else {
            let run = arena_index(self.links.len());
            self.links.resize(self.links.len() + height - 1, NIL_LINK);
            run
        };
        let node = Node { value: Some(value), height: height as u8, tower, next: NIL_LINK };
        if self.free_node == NIL {
            let idx = arena_index(self.nodes.len());
            self.nodes.push(node);
            idx
        } else {
            let idx = self.free_node;
            self.free_node = self.nodes[idx as usize].next.target;
            self.nodes[idx as usize] = node;
            idx
        }
    }

    /// Puts an unlinked node's slot and tower on the free lists and
    /// returns its value.
    fn release(&mut self, x: u32) -> T {
        let node = &mut self.nodes[x as usize];
        let height = node.height as usize;
        if height > 1 {
            self.links[node.tower as usize].target = self.free_towers[height];
            self.free_towers[height] = node.tower;
        }
        node.next.target = self.free_node;
        self.free_node = x;
        node.value.take().expect("live node")
    }

    /// Sums `(span_blocks, span_weight)` along the forward chain of each
    /// level, from the head to NIL. For a consistent list every level's
    /// totals equal `(len_blocks, total_weight)` — the links at level `i`
    /// partition the sequence, whatever subset of nodes reaches level `i`.
    /// Intended for tests; O(n · level).
    #[doc(hidden)]
    pub fn level_span_totals(&self) -> Vec<(usize, usize)> {
        (0..self.level)
            .map(|i| {
                let mut x = HEAD;
                let (mut blocks, mut weight) = (0usize, 0usize);
                loop {
                    let link = self.link(x, i);
                    blocks += link.span_blocks as usize;
                    weight += link.span_weight as usize;
                    if link.target == NIL {
                        break;
                    }
                    x = link.target;
                }
                (blocks, weight)
            })
            .collect()
    }

    /// Verifies every structural invariant (span consistency at all
    /// levels, length/weight accounting, and that live and freed slots
    /// and towers account for the whole arena and pool exactly once).
    /// Intended for tests; O(n · level).
    ///
    /// # Panics
    ///
    /// Panics if any invariant is violated.
    #[doc(hidden)]
    pub fn assert_invariants(&self) {
        // Collect level-0 order and per-node (rank, weight-rank).
        let mut x = HEAD;
        let mut rank_of = std::collections::HashMap::new();
        rank_of.insert(HEAD, (0usize, 0usize));
        let mut blocks = 0usize;
        let mut weight = 0usize;
        loop {
            let link = self.link(x, 0);
            assert_eq!(
                link.span_blocks as usize,
                if link.target == NIL { self.len_blocks - blocks } else { 1 }
            );
            if link.target == NIL {
                assert_eq!(link.span_weight as usize, self.total_weight - weight);
                break;
            }
            x = link.target;
            let w = self.nodes[x as usize].value.as_ref().expect("live node has a value").weight();
            assert_eq!(link.span_weight as usize, w, "level-0 span must equal destination weight");
            blocks += 1;
            weight += w;
            assert!(rank_of.insert(x, (blocks, weight)).is_none(), "level 0 revisits node {x}");
        }
        assert_eq!(blocks, self.len_blocks, "block count must match");
        assert_eq!(weight, self.total_weight, "weight must match");
        // Every level must chain through increasing ranks with exact spans.
        for i in 0..self.level {
            let mut x = HEAD;
            loop {
                assert!(
                    x == HEAD || i < self.nodes[x as usize].height as usize,
                    "node on chain missing level {i}"
                );
                let link = self.link(x, i);
                let (rb, rw) = rank_of[&x];
                if link.target == NIL {
                    assert_eq!(link.span_blocks as usize, self.len_blocks - rb);
                    assert_eq!(link.span_weight as usize, self.total_weight - rw);
                    break;
                }
                let (tb, tw) = rank_of[&link.target];
                assert_eq!(link.span_blocks as usize, tb - rb, "span_blocks at level {i}");
                assert_eq!(link.span_weight as usize, tw - rw, "span_weight at level {i}");
                x = link.target;
            }
        }
        // Arena: every slot is the head, live, or on the free list once.
        let mut free_slots = 0usize;
        let mut slot = self.free_node;
        while slot != NIL {
            assert!(self.nodes[slot as usize].value.is_none(), "free slot {slot} holds a value");
            assert!(!rank_of.contains_key(&slot), "free slot {slot} is linked");
            free_slots += 1;
            assert!(free_slots < self.nodes.len(), "free list cycles");
            slot = self.nodes[slot as usize].next.target;
        }
        assert_eq!(1 + self.len_blocks + free_slots, self.nodes.len(), "arena slots leak");
        // Pool: the head's run, the live towers and the freed runs tile it.
        let mut runs = vec![(0usize, MAX_LEVEL - 1)];
        for &x in rank_of.keys().filter(|&&x| x != HEAD) {
            let node = &self.nodes[x as usize];
            if node.height > 1 {
                runs.push((node.tower as usize, node.height as usize - 1));
            } else {
                assert_eq!(node.tower, NIL, "a height-1 node owns no pooled links");
            }
        }
        for (height, &first) in self.free_towers.iter().enumerate() {
            let mut run = first;
            while run != NIL {
                assert!(height > 1, "a free run of height {height}");
                runs.push((run as usize, height - 1));
                assert!(runs.len() <= self.links.len(), "free tower list cycles");
                run = self.links[run as usize].target;
            }
        }
        runs.sort_unstable();
        let mut end = 0usize;
        for (start, len) in runs {
            assert_eq!(start, end, "tower runs must tile the link pool");
            end = start + len;
        }
        assert_eq!(end, self.links.len(), "link pool has unowned links");
    }
}

impl<T: Weighted> BlockSeq<T> for IndexedSkipList<T> {
    fn len_blocks(&self) -> usize {
        self.len_blocks
    }

    fn total_weight(&self) -> usize {
        self.total_weight
    }

    fn get(&self, ordinal: usize) -> Option<&T> {
        if ordinal >= self.len_blocks {
            return None;
        }
        self.nodes[self.node_at(ordinal) as usize].value.as_ref()
    }

    fn insert(&mut self, ordinal: usize, value: T) {
        assert!(ordinal <= self.len_blocks, "insert ordinal {ordinal} out of range");
        let w = value.weight();
        assert!(w > 0, "blocks must have positive weight");
        let lvl = self.random_level();
        self.raise_level(lvl);
        let path = self.walk_to_rank(ordinal);
        let wk = path.ranks[0].1; // weight of blocks before the insertion point
        let new = self.alloc(value, lvl);
        for i in 0..lvl {
            let u = path.update[i];
            let old = self.link(u, i);
            let nb = span(ordinal + 1 - path.ranks[i].0);
            let nw = span(wk + w - path.ranks[i].1);
            *self.link_mut(new, i) = Link {
                target: old.target,
                span_blocks: old.span_blocks - (nb - 1),
                span_weight: old.span_weight - (nw - span(w)),
            };
            *self.link_mut(u, i) = Link { target: new, span_blocks: nb, span_weight: nw };
        }
        for i in lvl..self.level {
            let link = self.link_mut(path.update[i], i);
            link.span_blocks += 1;
            link.span_weight += span(w);
        }
        self.len_blocks += 1;
        self.total_weight += w;
    }

    /// Bulk append. Every tower height is drawn first, in the order
    /// sequential end-inserts draw them (so the resulting structure is
    /// identical), which sizes the arena and the link pool once. One walk
    /// to the end then seeds per-level tail pointers, and every item links
    /// in without a position search. Tail links — the per-level links
    /// that run past the end of the list — are left unset during the loop
    /// (the next node to reach the level overwrites them) and are patched
    /// in one pass at the end, so each item costs `O(its own tower
    /// height)` instead of `O(list height)`.
    fn extend_back(&mut self, items: Vec<T>) {
        let heights: Vec<u8> = items.iter().map(|_| self.random_level() as u8).collect();
        let Some(&top) = heights.iter().max() else {
            return;
        };
        self.nodes.reserve(items.len());
        self.links.reserve(heights.iter().map(|&h| h as usize - 1).sum());
        self.raise_level(top as usize);
        let mut path = self.walk_to_rank(self.len_blocks);
        for (value, height) in items.into_iter().zip(heights) {
            let w = value.weight();
            assert!(w > 0, "blocks must have positive weight");
            let (ordinal, wk) = (self.len_blocks, self.total_weight);
            let new = self.alloc(value, height as usize);
            for i in 0..height as usize {
                *self.link_mut(path.update[i], i) = Link {
                    target: new,
                    span_blocks: span(ordinal + 1 - path.ranks[i].0),
                    span_weight: span(wk + w - path.ranks[i].1),
                };
                path.update[i] = new;
                path.ranks[i] = (ordinal + 1, wk + w);
            }
            self.len_blocks += 1;
            self.total_weight += w;
        }
        // Patch every tail link: it spans from its node to the (new) end.
        for i in 0..self.level {
            *self.link_mut(path.update[i], i) = Link {
                target: NIL,
                span_blocks: span(self.len_blocks - path.ranks[i].0),
                span_weight: span(self.total_weight - path.ranks[i].1),
            };
        }
    }

    fn remove(&mut self, ordinal: usize) -> T {
        assert!(ordinal < self.len_blocks, "remove ordinal {ordinal} out of range");
        let path = self.walk_to_rank(ordinal);
        let target = self.link(path.update[0], 0).target;
        debug_assert_ne!(target, NIL);
        let w = span(self.nodes[target as usize].value.as_ref().expect("live node").weight());
        let target_levels = self.nodes[target as usize].height as usize;
        for i in 0..self.level {
            let u = path.update[i];
            let bypass = (i < target_levels).then(|| self.link(target, i));
            let u_link = self.link_mut(u, i);
            match bypass {
                Some(t_link) if u_link.target == target => {
                    u_link.target = t_link.target;
                    u_link.span_blocks += t_link.span_blocks;
                    u_link.span_weight += t_link.span_weight;
                }
                _ => {}
            }
            u_link.span_blocks -= 1;
            u_link.span_weight -= w;
        }
        // Shrink unused levels (keep at least one).
        while self.level > 1 && self.link(HEAD, self.level - 1).target == NIL {
            self.level -= 1;
        }
        self.len_blocks -= 1;
        self.total_weight -= w as usize;
        self.release(target)
    }

    fn replace(&mut self, ordinal: usize, value: T) -> T {
        assert!(ordinal < self.len_blocks, "replace ordinal {ordinal} out of range");
        let new_w = value.weight();
        assert!(new_w > 0, "blocks must have positive weight");
        let path = self.walk_to_rank(ordinal);
        let target = self.link(path.update[0], 0).target;
        let old_w = self.nodes[target as usize].value.as_ref().expect("live node").weight();
        if new_w != old_w {
            // Exactly one link per level covers the target block; it is the
            // link leaving update[i].
            for i in 0..self.level {
                let u_link = self.link_mut(path.update[i], i);
                u_link.span_weight = u_link.span_weight + span(new_w) - span(old_w);
            }
            self.total_weight = self.total_weight + new_w - old_w;
        }
        self.nodes[target as usize].value.replace(value).expect("live node")
    }

    fn locate(&self, char_index: usize) -> Option<Location> {
        if char_index >= self.total_weight {
            return None;
        }
        // Algorithm 1 of the paper, with weights as the skip counts.
        let mut x = HEAD;
        let mut remaining = char_index;
        let mut acc_blocks = 0usize;
        for i in (0..self.level).rev() {
            loop {
                let link = self.link(x, i);
                if link.target == NIL || link.span_weight as usize > remaining {
                    break;
                }
                remaining -= link.span_weight as usize;
                acc_blocks += link.span_blocks as usize;
                x = link.target;
            }
        }
        Some(Location { block: acc_blocks, offset: remaining })
    }

    fn weight_before(&self, ordinal: usize) -> usize {
        assert!(ordinal <= self.len_blocks, "ordinal {ordinal} out of range");
        self.walk_to_rank(ordinal).ranks[0].1
    }

    fn iter_from(&self, ordinal: usize) -> Box<dyn Iterator<Item = &T> + '_> {
        let start = if ordinal >= self.len_blocks { NIL } else { self.node_at(ordinal) };
        Box::new(Iter { list: self, cursor: start })
    }
}

struct Iter<'a, T> {
    list: &'a IndexedSkipList<T>,
    cursor: u32,
}

impl<'a, T: Weighted> Iterator for Iter<'a, T> {
    type Item = &'a T;

    fn next(&mut self) -> Option<&'a T> {
        if self.cursor == NIL {
            return None;
        }
        let node = &self.list.nodes[self.cursor as usize];
        self.cursor = node.next.target;
        node.value.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::VecModel;

    #[derive(Debug, Clone, PartialEq)]
    struct B(String);

    impl Weighted for B {
        fn weight(&self) -> usize {
            self.0.len()
        }
    }

    fn b(s: &str) -> B {
        B(s.to_string())
    }

    fn contents(list: &IndexedSkipList<B>) -> String {
        list.iter().map(|blk| blk.0.as_str()).collect()
    }

    #[test]
    fn empty_list() {
        let list: IndexedSkipList<B> = IndexedSkipList::new();
        assert_eq!(list.len_blocks(), 0);
        assert_eq!(list.total_weight(), 0);
        assert!(list.is_empty());
        assert_eq!(list.locate(0), None);
        assert_eq!(list.get(0), None);
        list.assert_invariants();
    }

    #[test]
    fn paper_figure3_insertion() {
        // Figure 3: insert "xy" at index 3 of "abcfghijk" (blocks abc, fgh, ijk).
        let mut list = IndexedSkipList::with_seed(11);
        list.insert(0, b("abc"));
        list.insert(1, b("fgh"));
        list.insert(2, b("ijk"));
        let loc = list.locate(3).unwrap();
        assert_eq!(loc, Location { block: 1, offset: 0 });
        list.insert(loc.block, b("xy"));
        assert_eq!(contents(&list), "abcxyfghijk");
        list.assert_invariants();
    }

    #[test]
    fn sequential_appends() {
        let mut list = IndexedSkipList::with_seed(1);
        for i in 0..100 {
            list.insert(i, b(&format!("{i:03}")));
            list.assert_invariants();
        }
        assert_eq!(list.len_blocks(), 100);
        assert_eq!(list.total_weight(), 300);
        for i in 0..100 {
            assert_eq!(list.get(i).unwrap().0, format!("{i:03}"));
        }
    }

    #[test]
    fn front_inserts_reverse_order() {
        let mut list = IndexedSkipList::with_seed(2);
        for i in 0..50 {
            list.insert(0, b(&format!("{i}")));
        }
        let texts: Vec<_> = list.iter().map(|blk| blk.0.clone()).collect();
        let expect: Vec<_> = (0..50).rev().map(|i| format!("{i}")).collect();
        assert_eq!(texts, expect);
        list.assert_invariants();
    }

    #[test]
    fn locate_every_char() {
        let mut list = IndexedSkipList::with_seed(3);
        let words = ["a", "bc", "def", "ghij", "klmno"];
        for (i, word) in words.iter().enumerate() {
            list.insert(i, b(word));
        }
        let flat: String = words.concat();
        for (c, expected_char) in flat.chars().enumerate() {
            let loc = list.locate(c).unwrap();
            let block = list.get(loc.block).unwrap();
            assert_eq!(block.0.as_bytes()[loc.offset] as char, expected_char);
        }
        assert_eq!(list.locate(flat.len()), None);
    }

    #[test]
    fn remove_middle_and_ends() {
        let mut list = IndexedSkipList::with_seed(4);
        for (i, word) in ["aa", "bb", "cc", "dd", "ee"].iter().enumerate() {
            list.insert(i, b(word));
        }
        assert_eq!(list.remove(2).0, "cc");
        list.assert_invariants();
        assert_eq!(list.remove(0).0, "aa");
        list.assert_invariants();
        assert_eq!(list.remove(list.len_blocks() - 1).0, "ee");
        list.assert_invariants();
        assert_eq!(contents(&list), "bbdd");
        assert_eq!(list.total_weight(), 4);
    }

    #[test]
    fn replace_changes_weight() {
        let mut list = IndexedSkipList::with_seed(5);
        for (i, word) in ["aa", "bb", "cc"].iter().enumerate() {
            list.insert(i, b(word));
        }
        let old = list.replace(1, b("XYZW"));
        assert_eq!(old.0, "bb");
        assert_eq!(list.total_weight(), 8);
        assert_eq!(list.locate(5).unwrap(), Location { block: 1, offset: 3 });
        assert_eq!(list.locate(6).unwrap(), Location { block: 2, offset: 0 });
        list.assert_invariants();
    }

    #[test]
    fn weight_before_matches_prefix_sums() {
        let mut list = IndexedSkipList::with_seed(6);
        let words = ["q", "we", "rty", "uiop"];
        for (i, word) in words.iter().enumerate() {
            list.insert(i, b(word));
        }
        let mut acc = 0;
        for (i, word) in words.iter().enumerate() {
            assert_eq!(list.weight_before(i), acc);
            acc += word.len();
        }
        assert_eq!(list.weight_before(words.len()), acc);
    }

    #[test]
    fn iter_from_offsets() {
        let mut list = IndexedSkipList::with_seed(7);
        for (i, word) in ["ab", "cd", "ef"].iter().enumerate() {
            list.insert(i, b(word));
        }
        let tail: String = list.iter_from(1).map(|blk| blk.0.clone()).collect();
        assert_eq!(tail, "cdef");
        assert_eq!(list.iter_from(3).count(), 0);
    }

    #[test]
    fn arena_slots_are_recycled() {
        let mut list = IndexedSkipList::with_seed(8);
        for round in 0..10 {
            let blocks: Vec<B> = (0..20).map(|i| b(&format!("r{round}i{i}"))).collect();
            if round % 2 == 0 {
                for (i, block) in blocks.into_iter().enumerate() {
                    list.insert(i, block);
                }
            } else {
                list.extend_back(blocks);
            }
            list.assert_invariants();
            for _ in 0..20 {
                list.remove(0);
            }
        }
        assert!(list.is_empty());
        list.assert_invariants();
        // Neither the arena nor the link pool grew linearly with total
        // insertions: 200 nodes holding ~200 pooled links went through a
        // list that never held more than 20 at once. (Runs are reused by
        // height only, so the pool settles above the 20 a single bucket
        // would need.)
        assert!(list.nodes.len() <= 22, "arena grew to {}", list.nodes.len());
        assert!(list.links.len() <= MAX_LEVEL - 1 + 60, "link pool grew to {}", list.links.len());
    }

    #[test]
    fn node_and_link_sizes_are_pinned() {
        // A sealed block: one length byte and 16 cipher bytes.
        type Block17 = (u8, [u8; 16]);
        assert_eq!(std::mem::size_of::<Block17>(), 17);
        assert_eq!(std::mem::size_of::<Link>(), 12);
        let node = std::mem::size_of::<Node<Block17>>();
        assert!(node <= 40, "a node over a 17-byte block takes {node} bytes");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn insert_past_end_panics() {
        let mut list = IndexedSkipList::new();
        list.insert(1, b("x"));
    }

    #[test]
    #[should_panic(expected = "positive weight")]
    fn zero_weight_block_panics() {
        let mut list = IndexedSkipList::new();
        list.insert(0, b(""));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn remove_from_empty_panics() {
        let mut list: IndexedSkipList<B> = IndexedSkipList::new();
        list.remove(0);
    }

    #[test]
    fn extend_back_matches_sequential_inserts() {
        // Same seed → same tower heights → structurally identical lists.
        let words: Vec<B> = (0..500).map(|i| b(&format!("{:03}", i % 300))).collect();
        let mut bulk = IndexedSkipList::with_seed(77);
        bulk.extend_back(words.clone());
        let mut serial = IndexedSkipList::with_seed(77);
        for (i, word) in words.iter().cloned().enumerate() {
            serial.insert(i, word);
        }
        bulk.assert_invariants();
        assert_eq!(contents(&bulk), contents(&serial));
        assert_eq!(bulk.level_span_totals(), serial.level_span_totals());
        assert_eq!(bulk.len_blocks(), 500);
        // Appending to a non-empty list continues the same structure.
        let mut grown = IndexedSkipList::with_seed(77);
        grown.extend_back(words[..100].to_vec());
        grown.extend_back(words[100..].to_vec());
        grown.assert_invariants();
        assert_eq!(contents(&grown), contents(&serial));
        assert_eq!(grown.level_span_totals(), serial.level_span_totals());
    }

    #[test]
    fn extend_back_empty_is_noop() {
        let mut list: IndexedSkipList<B> = IndexedSkipList::with_seed(1);
        list.extend_back(Vec::new());
        assert!(list.is_empty());
        list.insert(0, b("x"));
        list.extend_back(Vec::new());
        assert_eq!(list.len_blocks(), 1);
        list.assert_invariants();
    }

    /// Randomized cross-check against the Vec reference model.
    #[test]
    fn randomized_against_model() {
        let mut rng = SplitMix64(0xfeed);
        for seed in 0..8u64 {
            let mut list = IndexedSkipList::with_seed(seed);
            let mut model: VecModel<B> = VecModel::new();
            for step in 0..400 {
                let r = rng.next();
                let n = model.len_blocks();
                match r % 4 {
                    0 | 1 => {
                        let pos = if n == 0 { 0 } else { (r >> 8) as usize % (n + 1) };
                        let len = 1 + ((r >> 40) as usize % 8);
                        let text: String =
                            (0..len).map(|k| (b'a' + ((r >> k) % 26) as u8) as char).collect();
                        list.insert(pos, b(&text));
                        model.insert(pos, b(&text));
                    }
                    2 if n > 0 => {
                        let pos = (r >> 8) as usize % n;
                        assert_eq!(list.remove(pos), model.remove(pos));
                    }
                    3 if n > 0 => {
                        let pos = (r >> 8) as usize % n;
                        let len = 1 + ((r >> 40) as usize % 8);
                        let text: String =
                            (0..len).map(|k| (b'z' - ((r >> k) % 26) as u8) as char).collect();
                        assert_eq!(list.replace(pos, b(&text)), model.replace(pos, b(&text)));
                    }
                    _ => {}
                }
                assert_eq!(list.len_blocks(), model.len_blocks());
                assert_eq!(list.total_weight(), model.total_weight());
                if step % 20 == 0 {
                    list.assert_invariants();
                    let w = model.total_weight();
                    for probe in [0, w / 3, w / 2, w.saturating_sub(1)] {
                        assert_eq!(list.locate(probe), model.locate(probe), "locate {probe}");
                    }
                    for ord in 0..model.len_blocks() {
                        assert_eq!(list.get(ord), model.get(ord));
                    }
                }
            }
            list.assert_invariants();
        }
    }
}
