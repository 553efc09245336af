//! The in-memory sharded index: doc-id → latest content, version, and
//! revision history.
//!
//! N shards keyed by a hash of the doc id, each behind its own `RwLock`,
//! so readers (loads, spell checks, exports, admin listings) proceed
//! concurrently while the WAL serializes writers. Both [`crate::MemStore`]
//! and [`crate::LogStore`] are this index; the latter adds the log in
//! front of it.
//!
//! Only the latest content is kept whole. Every earlier version is kept
//! as its difference from the next-newer one — the common prefix and
//! suffix lengths plus the bytes between — so an incremental save
//! retains about the bytes it changed, not a copy of the document.
//! [`Index::get`] and [`Index::snapshot_docs`] rebuild full revisions;
//! every other read touches only the latest content.

use std::collections::HashMap;

use parking_lot::{Mutex, RwLock};

use crate::DocState;

/// Default shard count (a power of two keeps the modulo cheap).
pub const DEFAULT_SHARDS: usize = 16;

/// A past version stored against the next-newer one: that version's
/// first `prefix` and last `suffix` bytes with `middle` between them.
#[derive(Debug, Clone)]
struct Revision {
    prefix: usize,
    suffix: usize,
    middle: Vec<u8>,
}

/// Comparison stride for the prefix/suffix scans: slice equality over a
/// block compiles to `memcmp`, so a long common run costs little.
const STRIDE: usize = 64;

/// Length of the longest common prefix of `a` and `b`.
fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    let n = a.len().min(b.len());
    let mut i = 0;
    while i + STRIDE <= n && a[i..i + STRIDE] == b[i..i + STRIDE] {
        i += STRIDE;
    }
    i + a[i..n].iter().zip(&b[i..n]).take_while(|(x, y)| x == y).count()
}

/// Length of the longest common suffix of `a` and `b`.
fn common_suffix(a: &[u8], b: &[u8]) -> usize {
    let n = a.len().min(b.len());
    let (a, b) = (&a[a.len() - n..], &b[b.len() - n..]);
    let mut i = 0;
    while i + STRIDE <= n && a[n - i - STRIDE..n - i] == b[n - i - STRIDE..n - i] {
        i += STRIDE;
    }
    i + a[..n - i].iter().rev().zip(b[..n - i].iter().rev()).take_while(|(x, y)| x == y).count()
}

impl Revision {
    /// `old` as a difference from `newer`. The suffix never overlaps the
    /// prefix, so `aaa` against `aa` keeps one byte in `middle`.
    fn between(old: Vec<u8>, newer: &[u8]) -> Revision {
        let prefix = common_prefix(&old, newer);
        let suffix = common_suffix(&old[prefix..], &newer[prefix..]);
        let kept = old.len() - prefix - suffix;
        let middle = if kept * 4 >= old.len() * 3 {
            // Mostly changed (a full save re-seals every block): trim the
            // old buffer in place instead of copying it out.
            let mut old = old;
            old.truncate(prefix + kept);
            old.drain(..prefix);
            old
        } else {
            old[prefix..prefix + kept].to_vec()
        };
        Revision { prefix, suffix, middle }
    }

    /// The full version, given the next-newer one.
    fn rebuild(&self, newer: &[u8]) -> Vec<u8> {
        [&newer[..self.prefix], &self.middle, &newer[newer.len() - self.suffix..]].concat()
    }
}

/// One document as the index holds it.
#[derive(Debug, Clone, Default)]
struct Entry {
    content: Vec<u8>,
    version: u64,
    /// Oldest first; each rebuilds from its successor (the newest from
    /// `content`).
    revisions: Vec<Revision>,
}

impl Entry {
    fn from_state(state: DocState) -> Entry {
        let DocState { content, version, mut revisions } = state;
        let mut diffs = Vec::with_capacity(revisions.len());
        for i in 0..revisions.len() {
            let old = std::mem::take(&mut revisions[i]);
            diffs.push(Revision::between(old, revisions.get(i + 1).unwrap_or(&content)));
        }
        Entry { content, version, revisions: diffs }
    }

    /// The full state, every revision rebuilt.
    fn state(&self) -> DocState {
        let mut revisions: Vec<Vec<u8>> = Vec::with_capacity(self.revisions.len());
        for revision in self.revisions.iter().rev() {
            let newer = revisions.last().map_or(self.content.as_slice(), Vec::as_slice);
            let rebuilt = revision.rebuild(newer);
            revisions.push(rebuilt);
        }
        revisions.reverse();
        DocState { content: self.content.clone(), version: self.version, revisions }
    }
}

#[derive(Debug)]
pub struct Index {
    shards: Vec<RwLock<HashMap<String, Entry>>>,
    meta: Mutex<HashMap<String, u64>>,
}

/// FNV-1a — short ids, no adversarial keys (ids are server-issued).
/// Shared with [`crate::shard`] so document→shard routing and the
/// in-memory index agree on one hash.
pub(crate) fn hash_id(id: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in id.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl Index {
    pub fn new(shards: usize) -> Index {
        let shards = shards.max(1);
        Index {
            shards: (0..shards).map(|_| RwLock::new(HashMap::new())).collect(),
            meta: Mutex::new(HashMap::new()),
        }
    }

    fn shard(&self, id: &str) -> &RwLock<HashMap<String, Entry>> {
        &self.shards[(hash_id(id) % self.shards.len() as u64) as usize]
    }

    /// The full state, revision history rebuilt.
    pub fn get(&self, id: &str) -> Option<DocState> {
        self.shard(id).read().get(id).map(Entry::state)
    }

    /// Latest content and version, read together under one lock.
    pub fn current(&self, id: &str) -> Option<(Vec<u8>, u64)> {
        self.shard(id).read().get(id).map(|d| (d.content.clone(), d.version))
    }

    pub fn content(&self, id: &str) -> Option<Vec<u8>> {
        self.shard(id).read().get(id).map(|d| d.content.clone())
    }

    pub fn contains(&self, id: &str) -> bool {
        self.shard(id).read().contains_key(id)
    }

    pub fn version(&self, id: &str) -> Option<u64> {
        self.shard(id).read().get(id).map(|d| d.version)
    }

    pub fn list(&self) -> Vec<String> {
        let mut ids: Vec<String> = self
            .shards
            .iter()
            .flat_map(|s| s.read().keys().cloned().collect::<Vec<_>>())
            .collect();
        ids.sort();
        ids
    }

    pub fn doc_count(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    /// Installs an empty document; `false` if it already exists.
    pub fn apply_create(&self, id: &str) -> bool {
        let mut shard = self.shard(id).write();
        if shard.contains_key(id) {
            return false;
        }
        shard.insert(id.to_string(), Entry::default());
        true
    }

    /// Replaces content, keeping the previous content as a revision when
    /// the document already existed. Returns the new version.
    pub fn apply_save(&self, id: &str, content: Vec<u8>) -> u64 {
        let mut shard = self.shard(id).write();
        match shard.get_mut(id) {
            Some(doc) => {
                let previous = std::mem::replace(&mut doc.content, content);
                doc.revisions.push(Revision::between(previous, &doc.content));
                doc.version += 1;
                doc.version
            }
            None => {
                shard.insert(
                    id.to_string(),
                    Entry { content, version: 1, revisions: Vec::new() },
                );
                1
            }
        }
    }

    /// Installs a complete state verbatim (snapshot load).
    pub fn install(&self, id: String, state: DocState) {
        self.shard(&id).write().insert(id, Entry::from_state(state));
    }

    pub fn apply_remove(&self, id: &str) -> bool {
        self.shard(id).write().remove(id).is_some()
    }

    pub fn meta_get(&self, key: &str) -> Option<u64> {
        self.meta.lock().get(key).copied()
    }

    pub fn meta_set(&self, key: &str, value: u64) {
        self.meta.lock().insert(key.to_string(), value);
    }

    /// Increment-and-get; used for `next_doc`-style id allocation. The
    /// caller's write lock makes the read-modify-write atomic with the
    /// WAL append.
    pub fn meta_bump(&self, key: &str) -> u64 {
        let mut meta = self.meta.lock();
        let value = meta.entry(key.to_string()).or_insert(0);
        *value += 1;
        *value
    }

    pub fn meta_entries(&self) -> Vec<(String, u64)> {
        let mut entries: Vec<(String, u64)> =
            self.meta.lock().iter().map(|(k, v)| (k.clone(), *v)).collect();
        entries.sort();
        entries
    }

    /// A point-in-time copy of every document with full revisions,
    /// sorted by id. The caller must hold the store's write serializer
    /// for the copy to be a consistent cut.
    pub fn snapshot_docs(&self) -> Vec<(String, DocState)> {
        let mut docs: Vec<(String, DocState)> = self
            .shards
            .iter()
            .flat_map(|s| s.read().iter().map(|(k, v)| (k.clone(), v.state())).collect::<Vec<_>>())
            .collect();
        docs.sort_by(|a, b| a.0.cmp(&b.0));
        docs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_save_remove_lifecycle() {
        let index = Index::new(4);
        assert!(index.apply_create("a"));
        assert!(!index.apply_create("a"), "double create is a no-op");
        assert_eq!(index.version("a"), Some(0));
        assert_eq!(index.apply_save("a", b"one".to_vec()), 1);
        assert_eq!(index.apply_save("a", b"two".to_vec()), 2);
        let doc = index.get("a").unwrap();
        assert_eq!(doc.content, b"two");
        assert_eq!(doc.revisions, vec![Vec::new(), b"one".to_vec()]);
        assert!(index.apply_remove("a"));
        assert!(!index.apply_remove("a"));
    }

    #[test]
    fn save_without_create_starts_at_version_one_with_no_revision() {
        let index = Index::new(4);
        assert_eq!(index.apply_save("f", b"put".to_vec()), 1);
        assert!(index.get("f").unwrap().revisions.is_empty());
    }

    #[test]
    fn listing_is_sorted_across_shards() {
        let index = Index::new(3);
        for id in ["zebra", "alpha", "mid"] {
            index.apply_create(id);
        }
        assert_eq!(index.list(), vec!["alpha", "mid", "zebra"]);
        assert_eq!(index.doc_count(), 3);
    }

    #[test]
    fn meta_counters_bump_atomically() {
        let index = Index::new(1);
        assert_eq!(index.meta_get("next_doc"), None);
        assert_eq!(index.meta_bump("next_doc"), 1);
        assert_eq!(index.meta_bump("next_doc"), 2);
        index.meta_set("next_session", 9);
        assert_eq!(
            index.meta_entries(),
            vec![("next_doc".to_string(), 2), ("next_session".to_string(), 9)]
        );
    }

    #[test]
    fn revisions_keep_only_the_changed_bytes() {
        let index = Index::new(1);
        let base = vec![b'x'; 4096];
        index.apply_create("d");
        index.apply_save("d", base.clone());
        let mut edited = base.clone();
        edited[2000..2004].copy_from_slice(b"edit");
        index.apply_save("d", edited.clone());
        let shard = index.shard("d").read();
        let revisions = &shard["d"].revisions;
        assert_eq!(revisions[0].middle.len(), 0, "the empty first version");
        assert_eq!(revisions[1].middle.len(), 4, "only the replaced bytes are kept");
        drop(shard);
        assert_eq!(index.get("d").unwrap().revisions, vec![Vec::new(), base]);
    }

    #[test]
    fn scans_do_not_overlap_on_repeated_bytes() {
        for (old, newer) in [
            (&b"aaa"[..], &b"aa"[..]),
            (b"aa", b"aaa"),
            (b"abab", b"ababab"),
            (b"", b"abc"),
            (b"abc", b""),
            (b"same", b"same"),
        ] {
            let revision = Revision::between(old.to_vec(), newer);
            assert_eq!(revision.rebuild(newer), old, "{old:?} against {newer:?}");
        }
        // Long runs cross the comparison stride.
        let long = vec![7u8; 3 * STRIDE + 5];
        let short = &long[..STRIDE];
        assert_eq!(Revision::between(long[1..].to_vec(), &long).rebuild(&long), &long[1..]);
        assert_eq!(Revision::between(long.clone(), short).rebuild(short), long);
        // A mostly-changed revision keeps the old buffer, trimmed.
        let (old, newer) = (b"<ABCDEFGH>".to_vec(), b"<abcdefgh>".to_vec());
        let revision = Revision::between(old.clone(), &newer);
        assert_eq!((revision.prefix, revision.suffix), (1, 1));
        assert_eq!(revision.middle, b"ABCDEFGH");
        assert_eq!(revision.rebuild(&newer), old);
    }

    #[test]
    fn snapshot_copy_is_sorted_and_deep() {
        let index = Index::new(2);
        index.apply_save("b", b"bb".to_vec());
        index.apply_save("a", b"aa".to_vec());
        let snap = index.snapshot_docs();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].0, "a");
        index.apply_save("a", b"changed".to_vec());
        assert_eq!(snap[0].1.content, b"aa", "copy is independent of later writes");
    }
}
