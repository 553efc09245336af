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
//! as its difference from the next-newer one: for each hunk, where it
//! sits in the newer version, how long it is there, and the bytes it
//! replaced. A delta save splices the latest content in place
//! ([`Index::check_delta`], then [`Index::apply_checked`]) and keeps one
//! hunk per edit, so it retains about the bytes it removed — two small
//! edits far apart stay two small hunks. A full save keeps one hunk, the
//! span between the longest common prefix and suffix of the two
//! versions. [`Index::get`] and [`Index::snapshot_docs`] rebuild full
//! revisions; every other read touches only the latest content.

use std::collections::HashMap;

use parking_lot::{Mutex, RwLock};
use pe_delta::{seams_are_utf8, Delta, Hunk};

use crate::{DeltaLimits, DocState, StoreError};

/// Default shard count (a power of two keeps the modulo cheap).
pub const DEFAULT_SHARDS: usize = 16;

/// A past version stored against the next-newer one: the newer
/// version with each span replaced by its removed bytes.
#[derive(Debug, Clone, Default)]
struct Revision {
    spans: Vec<Span>,
    /// The bytes every span replaced, concatenated in order.
    removed: Vec<u8>,
}

/// One hunk of a [`Revision`]: `len` bytes at `at` of the newer version
/// took the place of the next `removed` bytes of [`Revision::removed`].
#[derive(Debug, Clone, Copy)]
struct Span {
    at: usize,
    len: usize,
    removed: usize,
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
    /// `old` as a difference from `newer`: one span between their common
    /// prefix and suffix. The suffix never overlaps the prefix, so `aaa`
    /// against `aa` keeps one byte.
    fn between(old: Vec<u8>, newer: &[u8]) -> Revision {
        let prefix = common_prefix(&old, newer);
        let suffix = common_suffix(&old[prefix..], &newer[prefix..]);
        let kept = old.len() - prefix - suffix;
        let removed = if kept * 4 >= old.len() * 3 {
            // Mostly changed (a full save re-seals every block): trim the
            // old buffer in place instead of copying it out.
            let mut old = old;
            old.truncate(prefix + kept);
            old.drain(..prefix);
            old
        } else {
            old[prefix..prefix + kept].to_vec()
        };
        let span = Span { at: prefix, len: newer.len() - prefix - suffix, removed: kept };
        Revision { spans: vec![span], removed }
    }

    /// The full version, given the next-newer one.
    fn rebuild(&self, newer: &[u8]) -> Vec<u8> {
        let replaced: usize = self.spans.iter().map(|s| s.len).sum();
        let mut out = Vec::with_capacity(newer.len() - replaced + self.removed.len());
        let (mut cursor, mut taken) = (0, 0);
        for span in &self.spans {
            out.extend_from_slice(&newer[cursor..span.at]);
            out.extend_from_slice(&self.removed[taken..taken + span.removed]);
            taken += span.removed;
            cursor = span.at + span.len;
        }
        out.extend_from_slice(&newer[cursor..]);
        out
    }

    /// Splices `hunks` into `content` in place and returns the revision
    /// that rebuilds the content as it was. The bytes before the first
    /// hunk stay where they are.
    fn splice(content: &mut Vec<u8>, hunks: &[Hunk<'_>]) -> Revision {
        let Some(first) = hunks.first() else {
            return Revision::default();
        };
        let base = first.at;
        let tail = content.split_off(base);
        let mut revision = Revision { spans: Vec::with_capacity(hunks.len()), removed: Vec::new() };
        let mut cursor = base;
        for hunk in hunks {
            content.extend_from_slice(&tail[cursor - base..hunk.at - base]);
            let at = content.len();
            hunk.inserted().for_each(|text| content.extend_from_slice(text.as_bytes()));
            cursor = hunk.at + hunk.removed;
            revision.removed.extend_from_slice(&tail[hunk.at - base..cursor - base]);
            revision.spans.push(Span { at, len: content.len() - at, removed: hunk.removed });
        }
        content.extend_from_slice(&tail[cursor - base..]);
        revision
    }
}

/// Rejects the apply when a [`DeltaLimits::base_version`] precondition
/// does not match the document's current version. Callers must hold
/// their writer lock so the check is atomic with the write.
fn check_base_version(current: u64, limits: DeltaLimits) -> Result<(), StoreError> {
    match limits.base_version {
        Some(base) if base != current => Err(StoreError::Conflict(format!(
            "delta base version {base} is stale (document at {current})"
        ))),
        _ => Ok(()),
    }
}

/// A delta [`Index::check_delta`] accepted, ready for
/// [`Index::apply_checked`].
#[derive(Debug)]
pub struct CheckedDelta<'d> {
    hunks: Vec<Hunk<'d>>,
    /// Whether the result is known to be valid UTF-8.
    utf8: bool,
    /// The version the splice produces.
    pub version: u64,
}

/// One document as the index holds it.
#[derive(Debug, Clone, Default)]
struct Entry {
    content: Vec<u8>,
    version: u64,
    /// Whether `content` is known to be valid UTF-8 (false when unknown):
    /// a delta on known text checks only the characters it touches.
    utf8: bool,
    /// Oldest first; each rebuilds from its successor (the newest from
    /// `content`).
    revisions: Vec<Revision>,
}

impl Entry {
    fn new(content: Vec<u8>, version: u64, revisions: Vec<Revision>) -> Entry {
        let utf8 = std::str::from_utf8(&content).is_ok();
        Entry { content, version, utf8, revisions }
    }

    fn from_state(state: DocState) -> Entry {
        let DocState { content, version, mut revisions } = state;
        let mut diffs = Vec::with_capacity(revisions.len());
        for i in 0..revisions.len() {
            let old = std::mem::take(&mut revisions[i]);
            diffs.push(Revision::between(old, revisions.get(i + 1).unwrap_or(&content)));
        }
        Entry::new(content, version, diffs)
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
                doc.utf8 = std::str::from_utf8(&content).is_ok();
                let previous = std::mem::replace(&mut doc.content, content);
                doc.revisions.push(Revision::between(previous, &doc.content));
                doc.version += 1;
                doc.version
            }
            None => {
                shard.insert(id.to_string(), Entry::new(content, 1, Vec::new()));
                1
            }
        }
    }

    /// Checks a byte-counted delta against the document without changing
    /// anything: the [`DeltaLimits::base_version`] precondition, the
    /// delta's bounds, the resulting size, and — under
    /// [`DeltaLimits::require_utf8`] — that the result is text. It
    /// rejects exactly the deltas a check of the whole result would, but
    /// on content known to be text it reads only the characters the
    /// edits touch. The caller must hold its writer lock until
    /// [`Index::apply_checked`].
    pub fn check_delta<'d>(
        &self,
        id: &str,
        delta: &'d Delta,
        limits: DeltaLimits,
    ) -> Result<CheckedDelta<'d>, StoreError> {
        let shard = self.shard(id).read();
        let entry = shard.get(id).ok_or(StoreError::NoSuchDocument)?;
        check_base_version(entry.version, limits)?;
        let old = &entry.content;
        let hunks = delta.hunks(old.len()).map_err(|e| StoreError::Conflict(e.to_string()))?;
        let removed: usize = hunks.iter().map(|h| h.removed).sum();
        let len = old.len() - removed + hunks.iter().map(Hunk::inserted_len).sum::<usize>();
        if len > limits.max_len {
            return Err(StoreError::TooLarge { len, max: limits.max_len });
        }
        let utf8 = if entry.utf8 {
            seams_are_utf8(old, &hunks)
        } else if limits.require_utf8 {
            // Content not known to be text: check the whole result.
            let mut updated = old.clone();
            Revision::splice(&mut updated, &hunks);
            std::str::from_utf8(&updated).is_ok()
        } else {
            false
        };
        if limits.require_utf8 && !utf8 {
            return Err(StoreError::InvalidUtf8);
        }
        Ok(CheckedDelta { hunks, utf8, version: entry.version + 1 })
    }

    /// Splices a delta [`Index::check_delta`] accepted into the content in
    /// place, keeping the bytes it removed as the previous version's
    /// revision. Returns the new version.
    pub fn apply_checked(&self, id: &str, checked: CheckedDelta<'_>) -> u64 {
        let mut shard = self.shard(id).write();
        let doc = shard.get_mut(id).expect("checked under the same writer lock");
        let revision = Revision::splice(&mut doc.content, &checked.hunks);
        doc.revisions.push(revision);
        doc.utf8 = checked.utf8;
        doc.version += 1;
        debug_assert_eq!(doc.version, checked.version);
        doc.version
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
        assert_eq!(revisions[0].removed.len(), 0, "the empty first version");
        assert_eq!(revisions[1].removed.len(), 4, "only the replaced bytes are kept");
        drop(shard);
        assert_eq!(index.get("d").unwrap().revisions, vec![Vec::new(), base]);
    }

    #[test]
    fn a_two_hunk_save_keeps_a_small_revision() {
        let index = Index::new(1);
        let base: Vec<u8> = (0..32 * 1024).map(|i| b'a' + (i % 26) as u8).collect();
        index.apply_save("d", base.clone());
        // Two small edits 16 KiB apart, in one delta.
        let delta = Delta::parse("=8192\t-27\t+ABC\t=16384\t+DEF").unwrap();
        let checked = index.check_delta("d", &delta, DeltaLimits::none()).unwrap();
        assert_eq!(index.apply_checked("d", checked), 2);
        let shard = index.shard("d").read();
        let revision = shard["d"].revisions.last().unwrap();
        let kept = revision.removed.len() + revision.spans.len() * std::mem::size_of::<Span>();
        assert!(kept < 1024, "a two-hunk revision keeps {kept} bytes");
        assert_eq!(revision.removed, &base[8192..8192 + 27]);
        drop(shard);
        let state = index.get("d").unwrap();
        assert_eq!(state.revisions.last().unwrap(), &base);
        assert_eq!(state.content, delta.apply_bytes(&base).unwrap());
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
        assert_eq!((revision.spans[0].at, revision.spans[0].len), (1, 8));
        assert_eq!(revision.removed, b"ABCDEFGH");
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
