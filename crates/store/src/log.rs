//! The log-structured store: WAL in front, sharded index behind,
//! snapshots + compaction underneath.
//!
//! ## Write path
//!
//! Every mutation (1) serializes behind a short write lock just long
//! enough to read-modify-write the index and enqueue one CRC-framed
//! record into the group-commit buffer, then (2) releases the lock and
//! waits for durability via [`wal::GroupWal::sync_to`] — one *leader*
//! fsync covers every record that arrived while the previous sync was in
//! flight, so the per-record fsync cost amortizes across concurrent
//! writers. An `Ok` return *is* the acknowledgement: under
//! [`FsyncPolicy::Always`] the record is on disk before the caller hears
//! back.
//!
//! ## Open path
//!
//! [`LogStore::open`] loads the newest valid snapshot (if any), replays
//! every WAL segment after it in order, repairs a torn tail on the final
//! segment, and resumes appending. Replay applies records through the
//! exact same index functions the live write path uses, so recovery is
//! replaying history, not reimplementing it.
//!
//! ## Compaction
//!
//! [`LogStore::compact`] seals the live segment, writes a point-in-time
//! snapshot covering it (temp file → fsync → rename → dir fsync),
//! appends a snapshot-marker, and garbage-collects superseded segments
//! and older snapshots. A crash at any step leaves a recoverable
//! directory; the seeded [`StoreFaults`] injector proves each step.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use crate::index::{Index, DEFAULT_SHARDS};
use crate::record::Record;
use crate::snapfile;
use crate::wal::{self, AppendAck, FsyncPolicy, GroupWal, SegmentWriter};
use crate::{CrashPoint, DeltaLimits, DocState, DocStore, StoreError, StoreFaults};

/// Documents plus meta entries, as one consistent cut.
pub(crate) type SnapshotState = (Vec<(String, DocState)>, Vec<(String, u64)>);

/// Configuration for [`LogStore::open`].
#[derive(Debug, Clone, Copy)]
pub struct StoreConfig {
    /// Fsync policy for WAL appends.
    pub fsync: FsyncPolicy,
    /// Index shard count.
    pub shards: usize,
    /// When set, a background thread compacts the store once the live
    /// log grows past this many bytes since the last snapshot.
    pub compact_threshold_bytes: Option<u64>,
    /// Seeded crash-point plan (tests only).
    pub faults: Option<StoreFaults>,
}

impl Default for StoreConfig {
    fn default() -> StoreConfig {
        StoreConfig {
            fsync: FsyncPolicy::Always,
            shards: DEFAULT_SHARDS,
            compact_threshold_bytes: None,
            faults: None,
        }
    }
}

/// What one compaction accomplished.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactionStats {
    /// Highest WAL segment covered by the snapshot (0 when nothing ran).
    pub covered_seq: u64,
    /// Bytes in the snapshot file.
    pub snapshot_bytes: u64,
    /// WAL segment files deleted.
    pub segments_removed: u64,
    /// Older snapshot files deleted.
    pub snapshots_removed: u64,
    /// Documents captured.
    pub docs: u64,
}

struct LogInner {
    dir: PathBuf,
    index: Index,
    /// Serializes mutations: index read-modify-write + record enqueue
    /// happen under this lock; the fsync wait happens *outside* it.
    write_lock: Mutex<()>,
    wal: GroupWal,
    compact_lock: Mutex<()>,
    poisoned: AtomicBool,
    stop: AtomicBool,
    /// Live log bytes appended since the last snapshot (drives the
    /// background compactor).
    log_bytes: AtomicU64,
    compact_threshold: Option<u64>,
    faults: Option<StoreFaults>,
}

/// The durable log-structured [`DocStore`].
pub struct LogStore {
    inner: Arc<LogInner>,
    compactor: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for LogStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LogStore")
            .field("dir", &self.inner.dir)
            .field("docs", &self.inner.index.doc_count())
            .finish()
    }
}

/// Scans a store directory into (segments by seq, snapshot seqs
/// descending).
fn scan_dir(dir: &Path) -> Result<(BTreeMap<u64, PathBuf>, Vec<u64>), StoreError> {
    let mut segments = BTreeMap::new();
    let mut snapshots = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(seq) = wal::parse_segment_name(name) {
            segments.insert(seq, entry.path());
        } else if let Some(seq) = snapfile::parse_snapshot_name(name) {
            snapshots.push(seq);
        }
    }
    snapshots.sort_unstable_by(|a, b| b.cmp(a));
    Ok((segments, snapshots))
}

impl LogStore {
    /// Opens (or creates) the store at `dir`, rebuilding the index from
    /// the newest valid snapshot plus WAL replay.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failures, [`StoreError::Corrupt`]
    /// when sealed log state fails validation (every snapshot invalid
    /// while segments are missing, a gap in the segment sequence, or a
    /// bad frame in a sealed segment).
    pub fn open(dir: impl AsRef<Path>, config: StoreConfig) -> Result<LogStore, StoreError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        if dir.join(crate::shard::MANIFEST_NAME).exists() {
            return Err(StoreError::Corrupt(format!(
                "{} is a sharded store root; open it with ShardedLogStore",
                dir.display()
            )));
        }

        // A crash mid-compaction can leave a half-written `.tmp`; it was
        // never published, so it is dead weight.
        for entry in std::fs::read_dir(&dir)? {
            let path = entry?.path();
            if path.extension().is_some_and(|e| e == "tmp") {
                std::fs::remove_file(&path)?;
            }
        }

        let (segments, snapshots) = scan_dir(&dir)?;
        let index = Index::new(config.shards);

        // Newest valid snapshot wins; older ones are only a fallback
        // while the segments they need still exist.
        let mut covered_seq = 0u64;
        let mut loaded = false;
        for &seq in &snapshots {
            match snapfile::read_snapshot(&snapfile::snapshot_path(&dir, seq)) {
                Ok(contents) => {
                    for (key, value) in contents.meta {
                        index.meta_set(&key, value);
                    }
                    for (id, state) in contents.docs {
                        index.install(id, state);
                    }
                    covered_seq = contents.covered_seq;
                    loaded = true;
                    break;
                }
                Err(StoreError::Corrupt(msg)) => {
                    pe_observe::static_counter!("store.snapshot_rejected").inc();
                    // Fall back to an older snapshot — valid only if no
                    // segment it needs has been garbage-collected, which
                    // the gap check below enforces.
                    let _ = msg;
                }
                Err(e) => return Err(e),
            }
        }
        if !loaded && !snapshots.is_empty() {
            // Every snapshot is bad. Full replay still works only if
            // segment 1 survives (GC would have removed it).
            if !segments.contains_key(&1) {
                return Err(StoreError::Corrupt(
                    "all snapshots invalid and early segments already compacted away".into(),
                ));
            }
        }

        // Replay everything after the snapshot, in order, with no gaps.
        let replay: Vec<(u64, PathBuf)> = segments
            .range(covered_seq + 1..)
            .map(|(&seq, path)| (seq, path.clone()))
            .collect();
        for window in replay.windows(2) {
            if window[1].0 != window[0].0 + 1 {
                return Err(StoreError::Corrupt(format!(
                    "segment gap: wal {} follows wal {}",
                    window[1].0, window[0].0
                )));
            }
        }
        if let Some(&(first, _)) = replay.first() {
            if first != covered_seq + 1 && loaded {
                return Err(StoreError::Corrupt(format!(
                    "snapshot covers wal {covered_seq} but replay starts at wal {first}"
                )));
            }
        }

        let mut live_bytes = 0u64;
        let mut tail = None; // (seq, validated length)
        let last_seq = replay.last().map(|&(seq, _)| seq);
        for (seq, path) in &replay {
            let mut records = 0u64;
            let stats = wal::replay_segment(path, |record| {
                records += 1;
                apply_record(&index, &record);
            })?;
            pe_observe::counter("store.replay_records").add(stats.records);
            pe_observe::counter("store.recovered_bytes").add(stats.valid_bytes);
            if stats.torn_bytes > 0 && Some(*seq) != last_seq {
                return Err(StoreError::Corrupt(format!(
                    "sealed segment wal {seq} has {} invalid bytes",
                    stats.torn_bytes
                )));
            }
            live_bytes += stats.valid_bytes;
            tail = Some((*seq, stats.valid_bytes));
        }

        // Resume appending: continue the final segment (repairing any
        // torn tail) or start the first segment after the snapshot.
        let (seq, start_len) = tail.unwrap_or((covered_seq + 1, 0));
        // The fault plan lives in the group layer (which owns append
        // ordinals); the raw writer stays uninstrumented.
        let writer = SegmentWriter::open(&dir, seq, start_len, config.fsync, None)?;

        let inner = Arc::new(LogInner {
            dir,
            index,
            write_lock: Mutex::new(()),
            wal: GroupWal::new(writer, config.fsync, config.faults),
            compact_lock: Mutex::new(()),
            poisoned: AtomicBool::new(false),
            stop: AtomicBool::new(false),
            log_bytes: AtomicU64::new(live_bytes),
            compact_threshold: config.compact_threshold_bytes,
            faults: config.faults,
        });

        let compactor = config.compact_threshold_bytes.map(|_| {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("pe-store-compactor".into())
                .spawn(move || background_compactor(&inner))
                .expect("spawn compactor thread")
        });

        Ok(LogStore { inner, compactor: Mutex::new(compactor) })
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.inner.dir
    }

    /// Live WAL bytes appended since the last snapshot.
    pub fn log_bytes(&self) -> u64 {
        self.inner.log_bytes.load(Ordering::Relaxed)
    }

    fn check(&self) -> Result<(), StoreError> {
        if self.inner.poisoned.load(Ordering::SeqCst) {
            Err(StoreError::Poisoned)
        } else {
            Ok(())
        }
    }

    /// Enqueues a record under the already-held write lock — the single
    /// funnel every mutation goes through. The caller holds the lock so
    /// its read-modify-write (version read, existence check) and index
    /// apply are atomic with record ordering; durability is settled
    /// afterwards by [`LogStore::finish_commit`], outside the lock.
    fn commit_locked(&self, record: &Record) -> Result<AppendAck, StoreError> {
        match self.inner.wal.append(record) {
            Ok(ack) => {
                self.inner.log_bytes.fetch_add(ack.frame_len, Ordering::Relaxed);
                Ok(ack)
            }
            Err(e) => {
                if matches!(e, StoreError::InjectedCrash(_)) {
                    self.inner.poisoned.store(true, Ordering::SeqCst);
                }
                Err(e)
            }
        }
    }

    /// Completes a commit after the write lock is released: joins the
    /// group fsync when the policy demands durability before the ack.
    /// An fsync failure voids durability promises made since the last
    /// successful sync, so it poisons the whole store.
    fn finish_commit(
        &self,
        ack: AppendAck,
        started: std::time::Instant,
    ) -> Result<(), StoreError> {
        if ack.needs_sync {
            if let Err(e) = self.inner.wal.sync_to(ack.end) {
                self.inner.poisoned.store(true, Ordering::SeqCst);
                return Err(e);
            }
        }
        pe_observe::static_histogram!("store.append_ns").record_duration(started.elapsed());
        Ok(())
    }

    /// Lifetime group-commit counters (appends, fsyncs, batch sizes).
    pub fn group_stats(&self) -> wal::GroupStats {
        self.inner.wal.stats()
    }

    /// A point-in-time copy of every document and meta entry — the
    /// migration source for converting a pre-sharding store into shards.
    pub(crate) fn snapshot_state(&self) -> SnapshotState {
        (self.inner.index.snapshot_docs(), self.inner.index.meta_entries())
    }
}

/// Applies one record to the index — shared verbatim by the live write
/// path and crash recovery.
fn apply_record(index: &Index, record: &Record) {
    match record {
        Record::Create { id } => {
            index.apply_create(id);
        }
        Record::FullSave { id, version, content } => {
            // Idempotence guard: snapshots are cut on exact segment
            // boundaries, but a defensive skip keeps double-applies
            // harmless.
            if index.version(id).is_none_or(|v| *version > v) {
                index.apply_save(id, content.clone());
            }
        }
        Record::Delta { id, version, delta } => {
            if index.version(id).is_none_or(|v| *version > v) {
                if let Ok(parsed) = pe_delta::Delta::parse(delta) {
                    if let Ok(checked) = index.check_delta(id, &parsed, DeltaLimits::none()) {
                        index.apply_checked(id, checked);
                    }
                }
            }
        }
        Record::Delete { id } => {
            index.apply_remove(id);
        }
        Record::Meta { key, value } => {
            index.meta_set(key, *value);
        }
        Record::SnapshotMarker { .. } => {}
    }
}

fn background_compactor(inner: &LogInner) {
    let threshold = inner.compact_threshold.expect("compactor only runs with a threshold");
    while !inner.stop.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(25));
        if inner.poisoned.load(Ordering::SeqCst) {
            continue;
        }
        if inner.log_bytes.load(Ordering::Relaxed) >= threshold {
            // Failures surface on the foreground path (poisoned flag or
            // the next explicit compact); the background thread only
            // keeps trying.
            let _ = compact_inner(inner);
        }
    }
}

/// The compaction state machine. Holds the compaction lock so explicit
/// and background compactions never interleave.
fn compact_inner(inner: &LogInner) -> Result<CompactionStats, StoreError> {
    let _serialize = inner.compact_lock.lock();

    // Seal the live segment and cut a consistent copy of the index. The
    // write lock blocks writers for exactly the rotation + copy.
    let (sealed, docs, meta) = {
        let _writers = inner.write_lock.lock();
        let sealed = inner.wal.rotate()?;
        let docs = inner.index.snapshot_docs();
        let meta = inner.index.meta_entries();
        (sealed, docs, meta)
    };

    let (tmp, snapshot_bytes) = snapfile::write_snapshot_tmp(&inner.dir, sealed, &docs, &meta)?;

    if let Some(faults) = inner.faults {
        if faults.triggers_compaction(CrashPoint::SnapshotBeforeRename) {
            inner.poisoned.store(true, Ordering::SeqCst);
            return Err(StoreError::InjectedCrash(CrashPoint::SnapshotBeforeRename.name()));
        }
    }

    snapfile::publish_snapshot(&inner.dir, &tmp, sealed)?;

    if let Some(faults) = inner.faults {
        if faults.triggers_compaction(CrashPoint::SnapshotAfterRename) {
            inner.poisoned.store(true, Ordering::SeqCst);
            return Err(StoreError::InjectedCrash(CrashPoint::SnapshotAfterRename.name()));
        }
    }

    // Leave a marker in the live log, then garbage-collect everything
    // the snapshot supersedes.
    let marker = {
        let _writers = inner.write_lock.lock();
        let ack = inner.wal.append(&Record::SnapshotMarker { covered_seq: sealed })?;
        inner.log_bytes.store(inner.wal.live_len(), Ordering::Relaxed);
        ack
    };
    if marker.needs_sync {
        inner.wal.sync_to(marker.end)?;
    }
    let (segments, snapshots) = scan_dir(&inner.dir)?;
    let mut segments_removed = 0u64;
    for (&seq, path) in segments.range(..=sealed) {
        std::fs::remove_file(path)?;
        let _ = seq;
        segments_removed += 1;
    }
    let mut snapshots_removed = 0u64;
    for &seq in snapshots.iter().filter(|&&seq| seq < sealed) {
        std::fs::remove_file(snapfile::snapshot_path(&inner.dir, seq))?;
        snapshots_removed += 1;
    }
    wal::sync_dir(&inner.dir)?;

    pe_observe::static_counter!("store.compactions").inc();
    pe_observe::counter("store.snapshot_bytes").add(snapshot_bytes);
    pe_observe::counter("store.segments_removed").add(segments_removed);

    Ok(CompactionStats {
        covered_seq: sealed,
        snapshot_bytes,
        segments_removed,
        snapshots_removed,
        docs: docs.len() as u64,
    })
}

impl Drop for LogStore {
    fn drop(&mut self) {
        self.inner.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.compactor.lock().take() {
            let _ = handle.join();
        }
        // Best-effort durability on clean shutdown.
        if !self.inner.poisoned.load(Ordering::SeqCst) {
            let _ = self.inner.wal.flush();
        }
    }
}

impl DocStore for LogStore {
    fn get(&self, id: &str) -> Option<DocState> {
        self.inner.index.get(id)
    }

    fn content(&self, id: &str) -> Option<Vec<u8>> {
        self.inner.index.content(id)
    }

    fn current(&self, id: &str) -> Option<(Vec<u8>, u64)> {
        self.inner.index.current(id)
    }

    fn contains(&self, id: &str) -> bool {
        self.inner.index.contains(id)
    }

    fn list(&self) -> Vec<String> {
        self.inner.index.list()
    }

    fn create(&self, id: &str) -> Result<bool, StoreError> {
        self.check()?;
        let started = std::time::Instant::now();
        let ack = {
            let _writers = self.inner.write_lock.lock();
            if self.inner.index.contains(id) {
                return Ok(false);
            }
            let ack = self.commit_locked(&Record::Create { id: id.to_string() })?;
            self.inner.index.apply_create(id);
            ack
        };
        self.finish_commit(ack, started)?;
        Ok(true)
    }

    fn put_full(&self, id: &str, content: &[u8]) -> Result<u64, StoreError> {
        self.check()?;
        let started = std::time::Instant::now();
        let (ack, version) = {
            let _writers = self.inner.write_lock.lock();
            let version = self.inner.index.version(id).unwrap_or(0) + 1;
            let record =
                Record::FullSave { id: id.to_string(), version, content: content.to_vec() };
            let ack = self.commit_locked(&record)?;
            let applied = self.inner.index.apply_save(id, content.to_vec());
            debug_assert_eq!(applied, version);
            (ack, version)
        };
        self.finish_commit(ack, started)?;
        Ok(version)
    }

    fn apply_delta(
        &self,
        id: &str,
        delta: &pe_delta::Delta,
        limits: DeltaLimits,
    ) -> Result<DocState, StoreError> {
        self.check()?;
        let started = std::time::Instant::now();
        let (ack, content, version) = {
            let _writers = self.inner.write_lock.lock();
            let checked = self.inner.index.check_delta(id, delta, limits)?;
            let version = checked.version;
            let record =
                Record::Delta { id: id.to_string(), version, delta: delta.serialize() };
            let ack = self.commit_locked(&record)?;
            self.inner.index.apply_checked(id, checked);
            (ack, self.inner.index.content(id).unwrap_or_default(), version)
        };
        self.finish_commit(ack, started)?;
        Ok(DocState { content, version, revisions: Vec::new() })
    }

    fn remove(&self, id: &str) -> Result<bool, StoreError> {
        self.check()?;
        let started = std::time::Instant::now();
        let ack = {
            let _writers = self.inner.write_lock.lock();
            if !self.inner.index.contains(id) {
                return Ok(false);
            }
            let ack = self.commit_locked(&Record::Delete { id: id.to_string() })?;
            self.inner.index.apply_remove(id);
            ack
        };
        self.finish_commit(ack, started)?;
        Ok(true)
    }

    fn meta(&self, key: &str) -> Option<u64> {
        self.inner.index.meta_get(key)
    }

    fn set_meta(&self, key: &str, value: u64) -> Result<(), StoreError> {
        self.check()?;
        let started = std::time::Instant::now();
        let ack = {
            let _writers = self.inner.write_lock.lock();
            let ack = self.commit_locked(&Record::Meta { key: key.to_string(), value })?;
            self.inner.index.meta_set(key, value);
            ack
        };
        self.finish_commit(ack, started)?;
        Ok(())
    }

    fn bump_meta(&self, key: &str) -> Result<u64, StoreError> {
        self.check()?;
        let started = std::time::Instant::now();
        let (ack, value) = {
            let _writers = self.inner.write_lock.lock();
            let value = self.inner.index.meta_get(key).unwrap_or(0) + 1;
            let ack = self.commit_locked(&Record::Meta { key: key.to_string(), value })?;
            self.inner.index.meta_set(key, value);
            (ack, value)
        };
        self.finish_commit(ack, started)?;
        Ok(value)
    }

    fn meta_entries(&self) -> Vec<(String, u64)> {
        self.inner.index.meta_entries()
    }

    fn flush(&self) -> Result<(), StoreError> {
        self.check()?;
        self.inner.wal.flush()
    }

    fn compact(&self) -> Result<CompactionStats, StoreError> {
        self.check()?;
        compact_inner(&self.inner)
    }

    fn name(&self) -> &'static str {
        "log"
    }
}

/// One segment's health, as seen by [`fsck`].
#[derive(Debug, Clone)]
pub struct SegmentReport {
    /// Segment sequence number.
    pub seq: u64,
    /// Valid records decoded.
    pub records: u64,
    /// Bytes of valid frames.
    pub valid_bytes: u64,
    /// Invalid trailing bytes (recoverable only on the final segment).
    pub torn_bytes: u64,
}

/// One snapshot's health, as seen by [`fsck`].
#[derive(Debug, Clone)]
pub struct SnapshotReport {
    /// Covered segment sequence number.
    pub seq: u64,
    /// Whether magic + CRC + structure all validated.
    pub valid: bool,
    /// Documents captured (0 when invalid).
    pub docs: u64,
}

/// The result of a read-only store verification.
#[derive(Debug, Clone, Default)]
pub struct FsckReport {
    /// Per-snapshot findings, newest first.
    pub snapshots: Vec<SnapshotReport>,
    /// Per-segment findings, oldest first.
    pub segments: Vec<SegmentReport>,
    /// Fatal problems that would make [`LogStore::open`] refuse or lose
    /// sealed data. Empty means the store opens cleanly.
    pub errors: Vec<String>,
    /// Non-fatal notes (e.g. a recoverable torn tail).
    pub warnings: Vec<String>,
    /// For a sharded root: one sub-report per shard (directory name,
    /// findings). Empty for a pre-sharding directory not yet migrated.
    pub shards: Vec<(String, FsckReport)>,
}

impl FsckReport {
    /// Whether the directory would open without data loss beyond a torn
    /// tail.
    pub fn is_healthy(&self) -> bool {
        self.errors.is_empty() && self.shards.iter().all(|(_, report)| report.is_healthy())
    }

    /// Human-readable rendering.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (name, report) in &self.shards {
            let _ = writeln!(out, "[{name}]");
            for line in report.render_body().lines() {
                let _ = writeln!(out, "  {line}");
            }
        }
        out.push_str(&self.render_body());
        let _ = write!(
            out,
            "{}",
            if self.is_healthy() { "store healthy" } else { "STORE CORRUPT" }
        );
        out
    }

    /// Renders findings without the trailing verdict line.
    fn render_body(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for snap in &self.snapshots {
            let _ = writeln!(
                out,
                "snapshot snap-{:010}: {} ({} docs)",
                snap.seq,
                if snap.valid { "ok" } else { "INVALID" },
                snap.docs
            );
        }
        for seg in &self.segments {
            let _ = writeln!(
                out,
                "segment wal-{:010}: {} records, {} bytes{}",
                seg.seq,
                seg.records,
                seg.valid_bytes,
                if seg.torn_bytes > 0 {
                    format!(", {} torn tail bytes", seg.torn_bytes)
                } else {
                    String::new()
                }
            );
        }
        for warning in &self.warnings {
            let _ = writeln!(out, "warning: {warning}");
        }
        for error in &self.errors {
            let _ = writeln!(out, "error: {error}");
        }
        out
    }
}

/// Read-only verification of a store directory: validates every
/// snapshot's CRC and every WAL frame, without modifying anything.
/// A pre-sharding single-directory store that has not been migrated yet
/// is checked in place, while a sharded root (one carrying a
/// [`crate::MANIFEST_NAME`] manifest) gets one sub-report per shard and
/// is healthy only if every shard is.
///
/// # Errors
///
/// [`StoreError::Io`] only — validation findings land in the report, not
/// in the error channel.
pub fn fsck(dir: impl AsRef<Path>) -> Result<FsckReport, StoreError> {
    let dir = dir.as_ref();
    let mut report = FsckReport::default();
    if !dir.is_dir() {
        report.errors.push(format!("{} is not a store directory", dir.display()));
        return Ok(report);
    }
    if dir.join(crate::shard::MANIFEST_NAME).is_file() {
        match crate::shard::read_manifest(dir) {
            Ok(count) => {
                for shard in 0..count {
                    let sub = crate::shard::shard_dir(dir, shard);
                    let name = format!("shard-{shard:03}");
                    let shard_report = fsck_one(&sub)?;
                    report.shards.push((name, shard_report));
                }
            }
            Err(StoreError::Corrupt(msg)) => report.errors.push(msg),
            Err(e) => return Err(e),
        }
        return Ok(report);
    }
    fsck_one(dir)
}

/// Verifies one physical store directory (an unmigrated root or a shard).
fn fsck_one(dir: &Path) -> Result<FsckReport, StoreError> {
    let mut report = FsckReport::default();
    if !dir.is_dir() {
        report.errors.push(format!("{} is not a store directory", dir.display()));
        return Ok(report);
    }
    let (segments, snapshots) = scan_dir(dir)?;

    let mut best_snapshot = None;
    for &seq in &snapshots {
        match snapfile::read_snapshot(&snapfile::snapshot_path(dir, seq)) {
            Ok(contents) => {
                report.snapshots.push(SnapshotReport {
                    seq,
                    valid: true,
                    docs: contents.docs.len() as u64,
                });
                if best_snapshot.is_none() {
                    best_snapshot = Some(seq);
                }
            }
            Err(StoreError::Corrupt(msg)) => {
                report.snapshots.push(SnapshotReport { seq, valid: false, docs: 0 });
                report.errors.push(format!("snapshot snap-{seq:010}: {msg}"));
            }
            Err(e) => return Err(e),
        }
    }

    let covered = best_snapshot.unwrap_or(0);
    let replay: Vec<u64> = segments.range(covered + 1..).map(|(&seq, _)| seq).collect();
    for window in replay.windows(2) {
        if window[1] != window[0] + 1 {
            report
                .errors
                .push(format!("segment gap between wal {} and wal {}", window[0], window[1]));
        }
    }
    if let (Some(&first), Some(snap)) = (replay.first(), best_snapshot) {
        if first != snap + 1 {
            report.errors.push(format!(
                "snapshot covers wal {snap} but the next surviving segment is wal {first}"
            ));
        }
    }
    if best_snapshot.is_none() && !snapshots.is_empty() && !segments.contains_key(&1) {
        report
            .errors
            .push("all snapshots invalid and early segments already compacted away".into());
    }

    let last = segments.keys().next_back().copied();
    for (&seq, path) in &segments {
        match wal::replay_segment(path, |_| {}) {
            Ok(stats) => {
                if stats.torn_bytes > 0 {
                    if Some(seq) == last {
                        report.warnings.push(format!(
                            "segment wal {seq}: {} torn tail bytes (recoverable; open will truncate)",
                            stats.torn_bytes
                        ));
                    } else {
                        report.errors.push(format!(
                            "sealed segment wal {seq} has {} invalid bytes",
                            stats.torn_bytes
                        ));
                    }
                }
                report.segments.push(SegmentReport {
                    seq,
                    records: stats.records,
                    valid_bytes: stats.valid_bytes,
                    torn_bytes: stats.torn_bytes,
                });
            }
            Err(StoreError::Corrupt(msg)) => {
                report.errors.push(format!("segment wal {seq}: {msg}"));
                report.segments.push(SegmentReport {
                    seq,
                    records: 0,
                    valid_bytes: 0,
                    torn_bytes: 0,
                });
            }
            Err(e) => return Err(e),
        }
    }

    if segments.is_empty() && snapshots.is_empty() {
        report.warnings.push("store is empty (no segments, no snapshots)".into());
    }

    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) struct TempDir(pub PathBuf);

    impl TempDir {
        pub(crate) fn new(tag: &str) -> TempDir {
            let path = std::env::temp_dir().join(format!(
                "pe-log-{tag}-{}-{:?}",
                std::process::id(),
                std::thread::current().id()
            ));
            let _ = std::fs::remove_dir_all(&path);
            TempDir(path)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn reopen(dir: &Path) -> LogStore {
        LogStore::open(dir, StoreConfig::default()).unwrap()
    }

    #[test]
    fn acknowledged_writes_survive_reopen() {
        let dir = TempDir::new("reopen");
        {
            let store = reopen(&dir.0);
            store.create("doc1").unwrap();
            store.put_full("doc1", b"v one").unwrap();
            store.put_full("doc1", b"v two").unwrap();
            store.set_meta("next_doc", 1).unwrap();
        }
        let store = reopen(&dir.0);
        let doc = store.get("doc1").unwrap();
        assert_eq!(doc.content, b"v two");
        assert_eq!(doc.version, 2);
        assert_eq!(doc.revisions, vec![Vec::new(), b"v one".to_vec()]);
        assert_eq!(store.meta("next_doc"), Some(1));
    }

    #[test]
    fn deltas_replay_to_the_same_state() {
        let dir = TempDir::new("delta");
        let expected;
        {
            let store = reopen(&dir.0);
            store.put_full("d", b"abcdefg").unwrap();
            let delta = pe_delta::Delta::parse("=2\t-3\t+uv\t=2\t+w").unwrap();
            expected = store.apply_delta("d", &delta, DeltaLimits::none()).unwrap();
            assert_eq!(expected.content, b"abuvfgw");
        }
        let store = reopen(&dir.0);
        assert_eq!(store.content("d").unwrap(), expected.content);
        assert_eq!(store.get("d").unwrap().version, 2);
    }

    #[test]
    fn removal_survives_reopen() {
        let dir = TempDir::new("remove");
        {
            let store = reopen(&dir.0);
            store.put_full("gone", b"x").unwrap();
            store.put_full("kept", b"y").unwrap();
            assert!(store.remove("gone").unwrap());
            assert!(!store.remove("never").unwrap());
        }
        let store = reopen(&dir.0);
        assert!(store.get("gone").is_none());
        assert_eq!(store.content("kept").unwrap(), b"y");
        assert_eq!(store.list(), vec!["kept"]);
    }

    #[test]
    fn compaction_snapshots_rotates_and_gcs() {
        let dir = TempDir::new("compact");
        {
            let store = reopen(&dir.0);
            for i in 0..20 {
                store.put_full(&format!("doc{}", i % 4), format!("body {i}").as_bytes()).unwrap();
            }
            let stats = store.compact().unwrap();
            assert_eq!(stats.covered_seq, 1);
            assert_eq!(stats.segments_removed, 1);
            assert_eq!(stats.docs, 4);
            // More writes after compaction land in the fresh segment.
            store.put_full("doc0", b"after compaction").unwrap();
            let again = store.compact().unwrap();
            assert_eq!(again.covered_seq, 2);
            assert_eq!(again.snapshots_removed, 1, "old snapshot GC'd");
        }
        let (segments, snapshots) = scan_dir(&dir.0).unwrap();
        assert_eq!(snapshots, vec![2]);
        assert!(segments.keys().all(|&s| s > 2));
        let store = reopen(&dir.0);
        assert_eq!(store.content("doc0").unwrap(), b"after compaction");
        assert_eq!(store.get("doc3").unwrap().content, b"body 19");
        // Revision history survives the snapshot round-trip: six saves
        // of doc0, the first creating it without a revision push.
        assert_eq!(store.get("doc0").unwrap().version, 6);
        assert_eq!(store.get("doc0").unwrap().revisions.len(), 5);
    }

    #[test]
    fn background_compactor_kicks_in() {
        let dir = TempDir::new("auto");
        let config = StoreConfig {
            compact_threshold_bytes: Some(2 * 1024),
            ..StoreConfig::default()
        };
        let store = LogStore::open(&dir.0, config).unwrap();
        for i in 0..200 {
            store.put_full("doc", format!("payload number {i:04}").as_bytes()).unwrap();
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            let (_, snapshots) = scan_dir(&dir.0).unwrap();
            if !snapshots.is_empty() {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "compactor never ran");
            std::thread::sleep(Duration::from_millis(20));
        }
        drop(store);
        let store = reopen(&dir.0);
        assert_eq!(store.content("doc").unwrap(), b"payload number 0199");
    }

    #[test]
    fn fsck_reports_health_and_corruption() {
        let dir = TempDir::new("fsck");
        {
            let store = reopen(&dir.0);
            store.put_full("a", b"content a").unwrap();
            store.compact().unwrap();
            store.put_full("b", b"content b").unwrap();
        }
        let report = fsck(&dir.0).unwrap();
        assert!(report.is_healthy(), "{}", report.render());
        assert_eq!(report.snapshots.len(), 1);
        assert!(report.render().contains("store healthy"));

        // Flip a byte inside the snapshot: fsck must flag it.
        let snap = snapfile::snapshot_path(&dir.0, report.snapshots[0].seq);
        let mut bytes = std::fs::read(&snap).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 1;
        std::fs::write(&snap, &bytes).unwrap();
        let report = fsck(&dir.0).unwrap();
        assert!(!report.is_healthy());
        assert!(report.render().contains("STORE CORRUPT"));
    }

    #[test]
    fn fsck_flags_missing_directory_and_torn_tail() {
        let missing = fsck("/nonexistent/pe-store-dir").unwrap();
        assert!(!missing.is_healthy());

        let dir = TempDir::new("fscktail");
        {
            let store = reopen(&dir.0);
            store.put_full("a", b"one").unwrap();
            store.put_full("a", b"two").unwrap();
        }
        // Tear the tail by hand.
        let path = wal::segment_path(&dir.0, 1);
        let len = std::fs::metadata(&path).unwrap().len();
        let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 2).unwrap();
        drop(f);
        let report = fsck(&dir.0).unwrap();
        assert!(report.is_healthy(), "torn tail is recoverable: {}", report.render());
        assert!(report.render().contains("torn tail"));
        // And open indeed recovers the prefix.
        let store = reopen(&dir.0);
        assert_eq!(store.content("a").unwrap(), b"one");
    }

    #[test]
    fn concurrent_writers_serialize_without_loss() {
        let dir = TempDir::new("concurrent");
        let store = std::sync::Arc::new(
            LogStore::open(&dir.0, StoreConfig { fsync: FsyncPolicy::Never, ..Default::default() })
                .unwrap(),
        );
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let store = std::sync::Arc::clone(&store);
                std::thread::spawn(move || {
                    for i in 0..50 {
                        store.put_full(&format!("doc{t}"), format!("{t}:{i}").as_bytes()).unwrap();
                        store.bump_meta("total").unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(store.meta("total"), Some(200));
        drop(std::sync::Arc::try_unwrap(store).unwrap());
        let store = reopen(&dir.0);
        assert_eq!(store.meta("total"), Some(200));
        for t in 0..4 {
            assert_eq!(store.get(&format!("doc{t}")).unwrap().version, 50);
        }
    }
}
