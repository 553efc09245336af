//! Durable storage for the untrusted cloud's view of the world.
//!
//! The paper's server is "a glorified data store" for ciphertext — but a
//! data store that loses acknowledged saves on a crash is not much of a
//! store. This crate gives every simulated cloud backend a real storage
//! engine, built on nothing but `std::fs`:
//!
//! * [`record`] — the WAL record vocabulary (create, full-save, delta,
//!   delete, meta, snapshot-marker), length-prefixed and CRC-checksummed.
//! * [`wal`] — append-only segment files with a configurable
//!   [`FsyncPolicy`] and torn-tail detection on replay.
//! * [`ShardedLogStore`] — the on-disk store: N independent WAL shards
//!   behind an atomic manifest, with documents routed by id. A store
//!   from before sharding is migrated in place the first time it opens.
//! * [`LogStore`] — the log-structured engine behind each shard: a
//!   sharded in-memory index rebuilt by WAL replay at open, plus
//!   background snapshot + log compaction that garbage-collects
//!   superseded segments.
//! * [`MemStore`] — the old `HashMap` behaviour behind the same trait,
//!   for tests and benchmark baselines.
//! * [`StoreFaults`] — a seeded crash-point injector (fail-before-fsync,
//!   fail-mid-write, truncate-tail, crash-during-snapshot) mirroring
//!   `pe_cloud::fault`, used to prove the recovery invariant: after any
//!   injected crash, [`LogStore::open`] recovers **exactly** the prefix
//!   of acknowledged writes — no loss, no phantoms.
//!
//! The incremental-encryption design of the paper means small edits are
//! small ciphertext deltas; the WAL preserves that economy end to end: a
//! delta save costs one small append, not a whole-document rewrite.
//!
//! # Example
//!
//! ```
//! use pe_store::{DocStore, ShardedLogStore, StoreConfig};
//! let dir = std::env::temp_dir().join(format!("pe-store-doc-{}", std::process::id()));
//! # let _ = std::fs::remove_dir_all(&dir);
//! let store = ShardedLogStore::open(&dir, 2, StoreConfig::default()).unwrap();
//! store.create("doc1").unwrap();
//! store.put_full("doc1", b"ciphertext bytes").unwrap();
//! drop(store); // crash or exit — the WAL has the bytes
//! // Reopening keeps the shard count recorded in the manifest.
//! let store = ShardedLogStore::open(&dir, 8, StoreConfig::default()).unwrap();
//! assert_eq!(store.shard_count(), 2);
//! assert_eq!(store.content("doc1").unwrap(), b"ciphertext bytes");
//! # drop(store);
//! # std::fs::remove_dir_all(&dir).unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

pub mod crc32;
mod fault;
mod index;
mod log;
mod mem;
pub mod record;
mod shard;
mod snapfile;
pub mod wal;

pub use fault::{CrashPoint, StoreFaults};
pub use log::{
    fsck, CompactionStats, FsckReport, LogStore, SegmentReport, SnapshotReport, StoreConfig,
};
pub use mem::MemStore;
pub use shard::{shard_dir, ShardedLogStore, MANIFEST_NAME, MAX_SHARDS};
pub use wal::{FsyncPolicy, GroupStats};

/// The stored state of one document, as the provider sees it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DocState {
    /// Latest stored bytes (ciphertext under the privacy extension).
    pub content: Vec<u8>,
    /// Number of saves applied (0 for a freshly created document).
    pub version: u64,
    /// Previous contents, oldest first — the revision history the real
    /// 2011 services kept (and leaked). Stores keep these as differences
    /// and rebuild them for [`DocStore::get`].
    pub revisions: Vec<Vec<u8>>,
}

/// Limits enforced atomically when applying a delta.
#[derive(Debug, Clone, Copy)]
pub struct DeltaLimits {
    /// Maximum resulting document length in bytes.
    pub max_len: usize,
    /// Require the resulting bytes to be valid UTF-8 (the Docs protocol
    /// stores text; Bespin/Buzzword callers pass `false`).
    pub require_utf8: bool,
    /// Optimistic-concurrency precondition: the version the delta was
    /// computed against. When set, the apply is rejected with
    /// [`StoreError::Conflict`] unless the document is still at exactly
    /// this version — checked under the same lock as the write, so a
    /// concurrent save cannot slip in between. `None` skips the check
    /// (a delta's positional fit is then the only guard, which cannot
    /// catch every race: a stale delta may still *apply* cleanly while
    /// silently dropping a concurrent writer's change).
    pub base_version: Option<u64>,
}

impl DeltaLimits {
    /// No limits: any length, any bytes, no version precondition.
    pub fn none() -> DeltaLimits {
        DeltaLimits { max_len: usize::MAX, require_utf8: false, base_version: None }
    }

    /// Adds a version precondition to these limits.
    pub fn at_version(self, base_version: u64) -> DeltaLimits {
        DeltaLimits { base_version: Some(base_version), ..self }
    }
}

/// Errors from the storage layer.
#[derive(Debug)]
#[non_exhaustive]
pub enum StoreError {
    /// Underlying filesystem failure.
    Io(std::io::Error),
    /// On-disk state failed validation (bad CRC, bad framing, gaps in
    /// the segment sequence, …).
    Corrupt(String),
    /// A delta did not apply to the current content.
    Conflict(String),
    /// The operation would exceed [`DeltaLimits::max_len`].
    TooLarge {
        /// Resulting length.
        len: usize,
        /// Configured maximum.
        max: usize,
    },
    /// The delta produced non-UTF-8 bytes under
    /// [`DeltaLimits::require_utf8`].
    InvalidUtf8,
    /// The document does not exist.
    NoSuchDocument,
    /// The seeded fault injector crashed this operation; the write was
    /// **not** acknowledged.
    InjectedCrash(&'static str),
    /// A previous injected crash poisoned this store; reopen it.
    Poisoned,
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store i/o error: {e}"),
            StoreError::Corrupt(msg) => write!(f, "store corrupt: {msg}"),
            StoreError::Conflict(msg) => write!(f, "delta conflict: {msg}"),
            StoreError::TooLarge { len, max } => {
                write!(f, "document would be {len} bytes (limit {max})")
            }
            StoreError::InvalidUtf8 => write!(f, "delta produced invalid text"),
            StoreError::NoSuchDocument => write!(f, "no such document"),
            StoreError::InjectedCrash(point) => write!(f, "injected crash at {point}"),
            StoreError::Poisoned => write!(f, "store poisoned by an earlier crash; reopen it"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> StoreError {
        StoreError::Io(e)
    }
}

/// A durable (or deliberately non-durable) document store.
///
/// The unit of storage is a named document holding opaque bytes plus its
/// version counter and revision history; a small `u64` metadata namespace
/// rides along for server counters (`next_doc`, `next_session`). Every
/// mutation is atomic with respect to concurrent callers, and on
/// [`LogStore`] is durable according to the configured [`FsyncPolicy`]
/// **before** the call returns — a returned `Ok` is an acknowledgement.
pub trait DocStore: Send + Sync {
    /// Full state of a document (content, version, revisions).
    fn get(&self, id: &str) -> Option<DocState>;

    /// Latest content bytes only (cheaper than [`DocStore::get`]).
    fn content(&self, id: &str) -> Option<Vec<u8>>;

    /// Latest content and its version, read atomically — what serving a
    /// document needs, without materializing its revision history.
    ///
    /// The provided implementation goes through [`DocStore::get`], so
    /// every store has it; the crate's stores answer from the latest
    /// content alone.
    fn current(&self, id: &str) -> Option<(Vec<u8>, u64)> {
        self.get(id).map(|doc| (doc.content, doc.version))
    }

    /// Whether the document exists.
    fn contains(&self, id: &str) -> bool {
        self.content(id).is_some()
    }

    /// All document ids, sorted.
    fn list(&self) -> Vec<String>;

    /// Creates an empty document at version 0. Returns `false` (and
    /// changes nothing) if it already exists.
    ///
    /// # Errors
    ///
    /// I/O or injected-crash failures from the backing log.
    fn create(&self, id: &str) -> Result<bool, StoreError>;

    /// Replaces the content (creating the document if missing), pushes
    /// the previous content onto the revision history, and bumps the
    /// version. Returns the new version.
    ///
    /// # Errors
    ///
    /// I/O or injected-crash failures from the backing log.
    fn put_full(&self, id: &str, content: &[u8]) -> Result<u64, StoreError>;

    /// Applies an incremental delta to the current content, atomically
    /// enforcing `limits` *before* anything is committed. Returns the
    /// resulting state (content + version; revisions are not cloned).
    ///
    /// # Errors
    ///
    /// [`StoreError::NoSuchDocument`], [`StoreError::Conflict`],
    /// [`StoreError::TooLarge`], [`StoreError::InvalidUtf8`], or log
    /// failures.
    fn apply_delta(
        &self,
        id: &str,
        delta: &pe_delta::Delta,
        limits: DeltaLimits,
    ) -> Result<DocState, StoreError>;

    /// Removes a document. Returns `false` if it did not exist.
    ///
    /// # Errors
    ///
    /// I/O or injected-crash failures from the backing log.
    fn remove(&self, id: &str) -> Result<bool, StoreError>;

    /// Reads a metadata counter (`None` when never set).
    fn meta(&self, key: &str) -> Option<u64>;

    /// Sets a metadata counter.
    ///
    /// # Errors
    ///
    /// I/O or injected-crash failures from the backing log.
    fn set_meta(&self, key: &str, value: u64) -> Result<(), StoreError>;

    /// Atomically increments a metadata counter and returns the new
    /// value (1 on first use).
    ///
    /// # Errors
    ///
    /// I/O or injected-crash failures from the backing log.
    fn bump_meta(&self, key: &str) -> Result<u64, StoreError>;

    /// All metadata entries, sorted by key.
    fn meta_entries(&self) -> Vec<(String, u64)>;

    /// Flushes and fsyncs any buffered log writes (a no-op for
    /// [`MemStore`]). After this returns, every acknowledged write is on
    /// disk regardless of the fsync policy.
    ///
    /// # Errors
    ///
    /// I/O failures from the backing log.
    fn flush(&self) -> Result<(), StoreError>;

    /// Writes a point-in-time snapshot, rotates the log, and
    /// garbage-collects superseded segments (a no-op for [`MemStore`]).
    ///
    /// # Errors
    ///
    /// I/O or injected-crash failures.
    fn compact(&self) -> Result<CompactionStats, StoreError>;

    /// Short backend name for logs and reports.
    fn name(&self) -> &'static str;
}

impl<T: DocStore + ?Sized> DocStore for std::sync::Arc<T> {
    fn get(&self, id: &str) -> Option<DocState> {
        (**self).get(id)
    }
    fn content(&self, id: &str) -> Option<Vec<u8>> {
        (**self).content(id)
    }
    fn current(&self, id: &str) -> Option<(Vec<u8>, u64)> {
        (**self).current(id)
    }
    fn contains(&self, id: &str) -> bool {
        (**self).contains(id)
    }
    fn list(&self) -> Vec<String> {
        (**self).list()
    }
    fn create(&self, id: &str) -> Result<bool, StoreError> {
        (**self).create(id)
    }
    fn put_full(&self, id: &str, content: &[u8]) -> Result<u64, StoreError> {
        (**self).put_full(id, content)
    }
    fn apply_delta(
        &self,
        id: &str,
        delta: &pe_delta::Delta,
        limits: DeltaLimits,
    ) -> Result<DocState, StoreError> {
        (**self).apply_delta(id, delta, limits)
    }
    fn remove(&self, id: &str) -> Result<bool, StoreError> {
        (**self).remove(id)
    }
    fn meta(&self, key: &str) -> Option<u64> {
        (**self).meta(key)
    }
    fn set_meta(&self, key: &str, value: u64) -> Result<(), StoreError> {
        (**self).set_meta(key, value)
    }
    fn bump_meta(&self, key: &str) -> Result<u64, StoreError> {
        (**self).bump_meta(key)
    }
    fn meta_entries(&self) -> Vec<(String, u64)> {
        (**self).meta_entries()
    }
    fn flush(&self) -> Result<(), StoreError> {
        (**self).flush()
    }
    fn compact(&self) -> Result<CompactionStats, StoreError> {
        (**self).compact()
    }
    fn name(&self) -> &'static str {
        (**self).name()
    }
}
