//! Document-sharded storage: N independent [`LogStore`]s behind one
//! [`DocStore`].
//!
//! ## Layout
//!
//! A sharded store root holds a manifest plus one subdirectory per
//! shard, each a fully self-contained log store (own WAL segments,
//! snapshots, index, background compactor):
//!
//! ```text
//! store/
//!   pe-shards          # manifest: shard count (routing depends on it)
//!   shard-000/wal-…    # independent WAL + snapshots
//!   shard-001/…
//! ```
//!
//! Documents route by `fnv1a(doc_id) % N` — the same hash the in-memory
//! index shards by — so two writers touching different documents
//! usually land on different WALs and different group-commit fsyncs.
//! Meta counters live on shard 0 (they are global, not per-document).
//!
//! ## Migration
//!
//! A directory holding `wal-*.log`/`snap-*.snap` files directly (every
//! store created before sharding existed) is migrated in place the first
//! time [`ShardedLogStore::open`] sees it, to the requested shard count.
//! Migration is crash-safe: shard snapshots are published first, the
//! manifest second, and the old files removed last — the manifest's
//! existence is the commit point. A migration that dies before its
//! manifest restarts from the old files on the next open.
//!
//! ## Recovery
//!
//! Opening replays all shards in parallel (scoped threads, one per
//! shard); shards are independent by construction, so open time is
//! bounded by the largest shard, not the total log.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use crate::index::hash_id;
use crate::log::{CompactionStats, LogStore, StoreConfig};
use crate::snapfile;
use crate::wal::{self, GroupStats};
use crate::{DeltaLimits, DocState, DocStore, StoreError};

/// Manifest file name marking a directory as a sharded store root.
pub const MANIFEST_NAME: &str = "pe-shards";

/// Upper bound on the shard count — far above any sane configuration,
/// low enough to reject a garbage manifest before creating directories.
pub const MAX_SHARDS: usize = 256;

const MANIFEST_MAGIC: &str = "pe-sharded-store v1";

/// Subdirectory of shard `i` inside a sharded root.
pub fn shard_dir(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("shard-{shard:03}"))
}

fn write_manifest(dir: &Path, shards: usize) -> Result<(), StoreError> {
    let tmp = dir.join("pe-shards.tmp");
    std::fs::write(&tmp, format!("{MANIFEST_MAGIC}\nshards={shards}\n"))?;
    let file = std::fs::File::open(&tmp)?;
    file.sync_all()?;
    drop(file);
    std::fs::rename(&tmp, dir.join(MANIFEST_NAME))?;
    wal::sync_dir(dir)?;
    Ok(())
}

pub(crate) fn read_manifest(dir: &Path) -> Result<usize, StoreError> {
    let text = std::fs::read_to_string(dir.join(MANIFEST_NAME))?;
    let mut lines = text.lines();
    if lines.next() != Some(MANIFEST_MAGIC) {
        return Err(StoreError::Corrupt(format!(
            "{}: bad shard manifest magic",
            dir.display()
        )));
    }
    let shards = lines
        .next()
        .and_then(|l| l.strip_prefix("shards="))
        .and_then(|n| n.parse::<usize>().ok())
        .filter(|&n| (1..=MAX_SHARDS).contains(&n))
        .ok_or_else(|| {
            StoreError::Corrupt(format!("{}: bad shard manifest count", dir.display()))
        })?;
    Ok(shards)
}

/// Paths of the entries of `dir` whose names satisfy `keep`, sorted.
fn entries(dir: &Path, keep: impl Fn(&str) -> bool) -> Result<Vec<PathBuf>, StoreError> {
    let mut found = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if entry.file_name().to_str().is_some_and(&keep) {
            found.push(entry.path());
        }
    }
    found.sort();
    Ok(found)
}

/// Pre-sharding store files (WAL segments, snapshots) directly in `dir`.
fn presharding_files(dir: &Path) -> Result<Vec<PathBuf>, StoreError> {
    entries(dir, |n| {
        wal::parse_segment_name(n).is_some() || snapfile::parse_snapshot_name(n).is_some()
    })
}

/// Shard subdirectories present in `dir` (sorted by index).
fn existing_shard_dirs(dir: &Path) -> Result<Vec<PathBuf>, StoreError> {
    let named = entries(dir, |n| {
        n.strip_prefix("shard-").is_some_and(|i| i.parse::<usize>().is_ok())
    })?;
    Ok(named.into_iter().filter(|path| path.is_dir()).collect())
}

fn remove_presharding_files(dir: &Path) -> Result<(), StoreError> {
    let files = presharding_files(dir)?;
    for file in &files {
        std::fs::remove_file(file)?;
    }
    if !files.is_empty() {
        wal::sync_dir(dir)?;
    }
    Ok(())
}

/// Opens all shard stores in parallel, one scoped thread per shard.
/// Per-shard replay time lands in the `store.shard.open_ns` histogram;
/// the first open error wins.
fn open_shards_parallel(
    dir: &Path,
    shards: usize,
    config: StoreConfig,
) -> Result<Vec<LogStore>, StoreError> {
    let mut slots: Vec<Option<Result<LogStore, StoreError>>> =
        (0..shards).map(|_| None).collect();
    std::thread::scope(|scope| {
        for (i, slot) in slots.iter_mut().enumerate() {
            scope.spawn(move || {
                let started = Instant::now();
                let opened = LogStore::open(shard_dir(dir, i), config);
                pe_observe::static_histogram!("store.shard.open_ns")
                    .record_duration(started.elapsed());
                *slot = Some(opened);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("every shard open thread fills its slot"))
        .collect()
}

/// Converts a pre-sharding single-directory store at `dir` into a
/// `count`-way sharded layout, in place.
///
/// Crash-safe ordering: per-shard snapshots are published and fsynced
/// first, then the manifest (the commit point), then the pre-sharding
/// files are deleted. A crash before the manifest leaves the old store
/// authoritative and the next open starts over; after it, open finishes
/// the cleanup.
fn migrate(dir: &Path, count: usize, config: StoreConfig) -> Result<(), StoreError> {
    // Stale shard dirs can only be debris from a migration that crashed
    // before its manifest; the old files are still the truth, so start
    // over.
    for stale in existing_shard_dirs(dir)? {
        std::fs::remove_dir_all(&stale)?;
    }
    let (docs, meta) = LogStore::open(dir, config)?.snapshot_state();
    for shard in 0..count {
        let sub = shard_dir(dir, shard);
        std::fs::create_dir_all(&sub)?;
        let own: Vec<(String, DocState)> = docs
            .iter()
            .filter(|(id, _)| (hash_id(id) % count as u64) as usize == shard)
            .cloned()
            .collect();
        // Meta is global state; it lives on shard 0.
        let own_meta = if shard == 0 { meta.clone() } else { Vec::new() };
        let (tmp, _bytes) = snapfile::write_snapshot_tmp(&sub, 0, &own, &own_meta)?;
        snapfile::publish_snapshot(&sub, &tmp, 0)?;
    }
    write_manifest(dir, count)?;
    remove_presharding_files(dir)?;
    pe_observe::static_counter!("store.shard.migrations").inc();
    Ok(())
}

/// A [`DocStore`] that routes documents across N independent
/// [`LogStore`] shards. See the module docs for layout and semantics.
pub struct ShardedLogStore {
    dir: PathBuf,
    shards: Vec<LogStore>,
    /// Set when any shard reports an injected crash or fsync failure:
    /// a real process would have died whole, so the entire store
    /// refuses further work, not just the failed shard.
    poisoned: AtomicBool,
}

impl std::fmt::Debug for ShardedLogStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedLogStore")
            .field("dir", &self.dir)
            .field("shards", &self.shards.len())
            .finish()
    }
}

impl ShardedLogStore {
    /// Opens (or creates) the store at `dir`.
    ///
    /// - An existing sharded root (manifest present) opens with its
    ///   recorded shard count — `shards` is ignored; routing must match
    ///   the layout that wrote the data.
    /// - A pre-sharding single-directory store is migrated in place to
    ///   `shards` shards first (see the module docs).
    /// - A fresh directory is initialized with `shards` shards.
    ///
    /// `shards` is clamped to `1..=MAX_SHARDS`.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failures, [`StoreError::Corrupt`]
    /// on a bad manifest, shard directories with no manifest and no
    /// pre-sharding files, or any shard failing validation.
    pub fn open(
        dir: impl AsRef<Path>,
        shards: usize,
        config: StoreConfig,
    ) -> Result<ShardedLogStore, StoreError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let started = Instant::now();

        let count = if dir.join(MANIFEST_NAME).exists() {
            let count = read_manifest(&dir)?;
            // A crash between publishing the manifest and deleting the
            // pre-sharding files leaves stale duplicates; the manifest is
            // the commit point, so finish the cleanup here.
            remove_presharding_files(&dir)?;
            count
        } else {
            let count = shards.clamp(1, MAX_SHARDS);
            if !presharding_files(&dir)?.is_empty() {
                migrate(&dir, count, config)?;
            } else if existing_shard_dirs(&dir)?.is_empty() {
                write_manifest(&dir, count)?;
            } else {
                return Err(StoreError::Corrupt(format!(
                    "{}: shard directories present but no {MANIFEST_NAME} manifest \
                     (restore the manifest)",
                    dir.display()
                )));
            }
            count
        };
        let shards = open_shards_parallel(&dir, count, config)?;
        let store = ShardedLogStore { dir, shards, poisoned: AtomicBool::new(false) };

        pe_observe::gauge("store.shard.count").set(store.shards.len() as u64);
        pe_observe::static_histogram!("store.shard.parallel_open_ns")
            .record_duration(started.elapsed());
        Ok(store)
    }

    /// The store root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of shards, as recorded in the manifest.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Shard index a document id routes to.
    pub fn shard_for(&self, id: &str) -> usize {
        (hash_id(id) % self.shards.len() as u64) as usize
    }

    /// Live WAL bytes across all shards.
    pub fn log_bytes(&self) -> u64 {
        self.shards.iter().map(LogStore::log_bytes).sum()
    }

    /// Group-commit counters summed across shards (`max_batch_records`
    /// is the max over shards).
    pub fn group_stats(&self) -> GroupStats {
        let mut total = GroupStats::default();
        for shard in &self.shards {
            let s = shard.group_stats();
            total.appends += s.appends;
            total.fsyncs += s.fsyncs;
            total.fsyncs_saved += s.fsyncs_saved;
            total.max_batch_records = total.max_batch_records.max(s.max_batch_records);
        }
        total
    }

    fn route(&self, id: &str) -> &LogStore {
        &self.shards[self.shard_for(id)]
    }

    fn check(&self) -> Result<(), StoreError> {
        if self.poisoned.load(Ordering::SeqCst) {
            Err(StoreError::Poisoned)
        } else {
            Ok(())
        }
    }

    /// Propagates a shard failure to the whole store: an injected crash
    /// (or poisoned shard) models the process dying, and a dead process
    /// serves nothing.
    fn escalate<T>(&self, result: Result<T, StoreError>) -> Result<T, StoreError> {
        if matches!(result, Err(StoreError::InjectedCrash(_)) | Err(StoreError::Poisoned)) {
            self.poisoned.store(true, Ordering::SeqCst);
        }
        result
    }
}

impl DocStore for ShardedLogStore {
    fn get(&self, id: &str) -> Option<DocState> {
        self.route(id).get(id)
    }

    fn content(&self, id: &str) -> Option<Vec<u8>> {
        self.route(id).content(id)
    }

    fn current(&self, id: &str) -> Option<(Vec<u8>, u64)> {
        self.route(id).current(id)
    }

    fn contains(&self, id: &str) -> bool {
        self.route(id).contains(id)
    }

    fn list(&self) -> Vec<String> {
        let mut all: Vec<String> = self.shards.iter().flat_map(DocStore::list).collect();
        all.sort_unstable();
        all
    }

    fn create(&self, id: &str) -> Result<bool, StoreError> {
        self.check()?;
        self.escalate(self.route(id).create(id))
    }

    fn put_full(&self, id: &str, content: &[u8]) -> Result<u64, StoreError> {
        self.check()?;
        self.escalate(self.route(id).put_full(id, content))
    }

    fn apply_delta(
        &self,
        id: &str,
        delta: &pe_delta::Delta,
        limits: DeltaLimits,
    ) -> Result<DocState, StoreError> {
        self.check()?;
        self.escalate(self.route(id).apply_delta(id, delta, limits))
    }

    fn remove(&self, id: &str) -> Result<bool, StoreError> {
        self.check()?;
        self.escalate(self.route(id).remove(id))
    }

    fn meta(&self, key: &str) -> Option<u64> {
        self.shards[0].meta(key)
    }

    fn set_meta(&self, key: &str, value: u64) -> Result<(), StoreError> {
        self.check()?;
        self.escalate(self.shards[0].set_meta(key, value))
    }

    fn bump_meta(&self, key: &str) -> Result<u64, StoreError> {
        self.check()?;
        self.escalate(self.shards[0].bump_meta(key))
    }

    fn meta_entries(&self) -> Vec<(String, u64)> {
        self.shards[0].meta_entries()
    }

    fn flush(&self) -> Result<(), StoreError> {
        self.check()?;
        for shard in &self.shards {
            self.escalate(shard.flush())?;
        }
        Ok(())
    }

    fn compact(&self) -> Result<CompactionStats, StoreError> {
        self.check()?;
        let mut total = CompactionStats::default();
        for shard in &self.shards {
            let stats = self.escalate(shard.compact())?;
            total.covered_seq = total.covered_seq.max(stats.covered_seq);
            total.snapshot_bytes += stats.snapshot_bytes;
            total.segments_removed += stats.segments_removed;
            total.snapshots_removed += stats.snapshots_removed;
            total.docs += stats.docs;
        }
        Ok(total)
    }

    fn name(&self) -> &'static str {
        "sharded-log"
    }
}
