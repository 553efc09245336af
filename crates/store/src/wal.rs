//! Append-only write-ahead log segments.
//!
//! A store directory holds numbered segment files `wal-<seq>.log`. Each
//! record is framed as
//!
//! ```text
//! [payload len: u32 LE][crc32(payload): u32 LE][payload]
//! ```
//!
//! Replay walks frames until the file ends cleanly or a frame fails
//! validation. A bad frame in the **final** segment is a torn tail — the
//! expected disk state after a crash mid-append — and is truncated away;
//! a bad frame in any earlier (sealed) segment is real corruption and is
//! reported as such.

use std::fs::{File, OpenOptions};
use std::io::{IoSlice, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Condvar, Mutex, MutexGuard};

use crate::crc32::{crc32, Crc32};
use crate::record::Record;
use crate::{CrashPoint, StoreError, StoreFaults};

/// Framing header size: payload length + CRC.
pub const FRAME_HEADER_BYTES: usize = 8;

/// Upper bound on one record payload. Documents are capped well below
/// this by the services; anything larger in a length field is garbage
/// (torn tail or foreign file).
pub const MAX_PAYLOAD_BYTES: u32 = 16 * 1024 * 1024;

/// When (and how often) appends reach the platter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fsync` after every append: an acknowledged write is a durable
    /// write. The default, and the only policy under which the
    /// crash-recovery oracle promises zero acknowledged loss.
    Always,
    /// `fsync` every `n` appends (and on [`flush`](crate::DocStore::flush)
    /// / rotation). Bounds loss to the last `n-1` acknowledged writes.
    EveryN(u64),
    /// Never `fsync` on append (only on flush/rotation). Fastest;
    /// durability rides entirely on the OS page cache.
    Never,
}

impl FsyncPolicy {
    /// Parses `always`, `never`, or `every=N` (N ≥ 1).
    pub fn parse(text: &str) -> Option<FsyncPolicy> {
        match text {
            "always" => Some(FsyncPolicy::Always),
            "never" => Some(FsyncPolicy::Never),
            other => {
                let n: u64 = other.strip_prefix("every=")?.parse().ok()?;
                (n >= 1).then_some(FsyncPolicy::EveryN(n))
            }
        }
    }

    /// Stable name (`always`, `never`, `every=N`) for reports.
    pub fn label(&self) -> String {
        match self {
            FsyncPolicy::Always => "always".into(),
            FsyncPolicy::Never => "never".into(),
            FsyncPolicy::EveryN(n) => format!("every={n}"),
        }
    }
}

/// Path of segment `seq` inside `dir`.
pub fn segment_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("wal-{seq:010}.log"))
}

/// Parses a segment file name back into its sequence number.
pub fn parse_segment_name(name: &str) -> Option<u64> {
    name.strip_prefix("wal-")?.strip_suffix(".log")?.parse().ok()
}

/// Encodes `record` into `payload_buf` (cleared first) while folding the
/// bytes into a streaming CRC in the same pass, and returns the 8-byte
/// frame header `[payload len][crc]`.
///
/// This is the zero-copy core of [`SegmentWriter::append`]: the record —
/// including a megabyte `FullSave` body — is walked exactly once (copied
/// into the reused buffer and checksummed while hot in cache), and no
/// intermediate frame `Vec` is ever assembled; the header and payload go
/// to the file as two `IoSlice`s.
fn encode_payload(record: &Record, payload_buf: &mut Vec<u8>) -> [u8; FRAME_HEADER_BYTES] {
    payload_buf.clear();
    payload_buf.reserve(record.encoded_len());
    let mut hasher = Crc32::new();
    record.encode_parts(&mut |part| {
        hasher.update(part);
        payload_buf.extend_from_slice(part);
    });
    debug_assert!(payload_buf.len() as u32 <= MAX_PAYLOAD_BYTES);
    let mut header = [0u8; FRAME_HEADER_BYTES];
    header[..4].copy_from_slice(&(payload_buf.len() as u32).to_le_bytes());
    header[4..].copy_from_slice(&hasher.finish().to_le_bytes());
    header
}

/// What one segment replay saw.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Valid records decoded.
    pub records: u64,
    /// Bytes of valid frames (including headers).
    pub valid_bytes: u64,
    /// Trailing bytes that failed validation (0 for a clean segment).
    pub torn_bytes: u64,
}

/// Reads every valid frame of `path` into `sink`, stopping at the first
/// invalid frame.
///
/// Returns the replay stats; `torn_bytes > 0` means the file has an
/// invalid tail starting at offset `valid_bytes`. The caller decides
/// whether that tail is tolerable (final segment after a crash) or
/// corruption (sealed segment).
///
/// # Errors
///
/// [`StoreError::Io`] on read failure, [`StoreError::Corrupt`] if a
/// CRC-valid payload fails to decode (checksum collision or foreign
/// data — never produced by a torn write).
pub fn replay_segment(
    path: &Path,
    mut sink: impl FnMut(Record),
) -> Result<ReplayStats, StoreError> {
    let bytes = std::fs::read(path)?;
    let mut stats = ReplayStats::default();
    let mut pos = 0usize;
    loop {
        let rest = &bytes[pos..];
        if rest.is_empty() {
            break; // clean end
        }
        if rest.len() < FRAME_HEADER_BYTES {
            stats.torn_bytes = rest.len() as u64;
            break;
        }
        let len = u32::from_le_bytes(rest[0..4].try_into().expect("4 bytes"));
        let crc = u32::from_le_bytes(rest[4..8].try_into().expect("4 bytes"));
        if len > MAX_PAYLOAD_BYTES || rest.len() - FRAME_HEADER_BYTES < len as usize {
            stats.torn_bytes = rest.len() as u64;
            break;
        }
        let payload = &rest[FRAME_HEADER_BYTES..FRAME_HEADER_BYTES + len as usize];
        if crc32(payload) != crc {
            stats.torn_bytes = rest.len() as u64;
            break;
        }
        let record = Record::decode(payload)?;
        sink(record);
        stats.records += 1;
        let frame_len = FRAME_HEADER_BYTES + len as usize;
        stats.valid_bytes += frame_len as u64;
        pos += frame_len;
    }
    Ok(stats)
}

/// The single-writer append end of the WAL.
///
/// Owned by the store behind its write lock; not internally
/// synchronized.
#[derive(Debug)]
pub struct SegmentWriter {
    dir: PathBuf,
    seq: u64,
    file: File,
    /// Current byte length of the open segment.
    len: u64,
    /// Byte length at the last fsync.
    durable_len: u64,
    policy: FsyncPolicy,
    appends_since_sync: u64,
    /// Lifetime append ordinal (1-based), across rotations — the fault
    /// injector counts these.
    total_appends: u64,
    faults: Option<StoreFaults>,
    /// Reused payload encode buffer: steady-state appends allocate
    /// nothing (the buffer keeps the high-water-mark capacity).
    payload_buf: Vec<u8>,
}

impl SegmentWriter {
    /// Opens segment `seq` for appending, creating it if missing.
    /// `start_len` must be the validated length (replay's `valid_bytes`);
    /// anything beyond it is truncated away (torn-tail repair).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on open/truncate failure.
    pub fn open(
        dir: &Path,
        seq: u64,
        start_len: u64,
        policy: FsyncPolicy,
        faults: Option<StoreFaults>,
    ) -> Result<SegmentWriter, StoreError> {
        let path = segment_path(dir, seq);
        // truncate(false): an existing segment is resumed, not clobbered
        // — the torn-tail cut below is the only truncation allowed.
        let mut file = OpenOptions::new()
            .create(true)
            .truncate(false)
            .read(true)
            .write(true)
            .open(&path)?;
        let actual = file.metadata()?.len();
        if actual > start_len {
            file.set_len(start_len)?;
            file.sync_all()?;
            pe_observe::static_counter!("store.torn_tail_truncations").inc();
            pe_observe::counter("store.torn_bytes_discarded").add(actual - start_len);
        }
        file.seek(SeekFrom::Start(start_len))?;
        Ok(SegmentWriter {
            dir: dir.to_path_buf(),
            seq,
            file,
            len: start_len,
            durable_len: start_len,
            policy,
            appends_since_sync: 0,
            total_appends: 0,
            faults,
            payload_buf: Vec::new(),
        })
    }

    /// Current segment sequence number.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Bytes in the currently open segment.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the open segment holds no records.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends one record, honouring the fsync policy and the fault
    /// plan. On `Ok`, the record is acknowledged (and durable under
    /// [`FsyncPolicy::Always`]).
    ///
    /// # Errors
    ///
    /// [`StoreError::InjectedCrash`] when the fault plan fires (the
    /// write is **not** acknowledged and the disk is left in the
    /// crash-consistent state the fault models), or [`StoreError::Io`].
    pub fn append(&mut self, record: &Record) -> Result<(), StoreError> {
        // Take the reused buffer out of `self` so the fault-injection
        // path below can borrow `self` mutably; restored before return.
        let mut payload_buf = std::mem::take(&mut self.payload_buf);
        let header = encode_payload(record, &mut payload_buf);
        let frame_len = FRAME_HEADER_BYTES + payload_buf.len();
        self.total_appends += 1;
        if let Some(faults) = self.faults {
            if faults.triggers_append(self.total_appends) {
                let err = self.crash(&faults, &header, &payload_buf);
                self.payload_buf = payload_buf;
                return Err(err);
            }
        }
        let started = std::time::Instant::now();
        let wrote = write_all_vectored(&mut self.file, &header, &payload_buf);
        self.payload_buf = payload_buf;
        wrote?;
        self.len += frame_len as u64;
        self.appends_since_sync += 1;
        let sync = match self.policy {
            FsyncPolicy::Always => true,
            FsyncPolicy::EveryN(n) => self.appends_since_sync >= n,
            FsyncPolicy::Never => false,
        };
        if sync {
            self.sync()?;
        }
        pe_observe::static_counter!("store.appends").inc();
        pe_observe::static_histogram!("store.append_bytes").record(frame_len as u64);
        pe_observe::static_histogram!("store.append_ns").record_duration(started.elapsed());
        Ok(())
    }

    /// Writes already-framed bytes straight to the segment without any
    /// policy bookkeeping — the group-commit leader's batch drain.
    fn write_raw(&mut self, frames: &[u8]) -> Result<(), StoreError> {
        if frames.is_empty() {
            return Ok(());
        }
        self.file.write_all(frames)?;
        self.len += frames.len() as u64;
        Ok(())
    }

    /// Enacts the configured crash, leaving the file exactly as the
    /// modelled failure would. The frame arrives as its two wire parts
    /// (header, payload) — prefix semantics treat them as concatenated.
    fn crash(&mut self, faults: &StoreFaults, header: &[u8], payload: &[u8]) -> StoreError {
        let frame_len = header.len() + payload.len();
        let point = faults.point();
        let outcome: Result<(), std::io::Error> = (|| match point {
            CrashPoint::BeforeFsync => {
                // The write reached the OS, the fsync never happened, and
                // the machine died: everything since the last sync is
                // gone.
                self.file.write_all(header)?;
                self.file.write_all(payload)?;
                self.file.set_len(self.durable_len)?;
                self.file.sync_all()
            }
            CrashPoint::MidWrite => {
                // Only a prefix of the frame made it out.
                let kept = faults.torn_len(frame_len);
                let head_kept = kept.min(header.len());
                self.file.write_all(&header[..head_kept])?;
                self.file.write_all(&payload[..kept - head_kept])?;
                self.file.sync_all()
            }
            CrashPoint::TruncateTail => {
                // The whole frame landed, then the tail was torn off.
                self.file.write_all(header)?;
                self.file.write_all(payload)?;
                let kept = faults.torn_len(frame_len);
                self.file.set_len(self.len + kept as u64)?;
                self.file.sync_all()
            }
            CrashPoint::SnapshotBeforeRename | CrashPoint::SnapshotAfterRename => {
                unreachable!("compaction crash points never trigger appends")
            }
        })();
        if let Err(e) = outcome {
            return StoreError::Io(e);
        }
        StoreError::InjectedCrash(point.name())
    }

    fn sync(&mut self) -> Result<(), StoreError> {
        self.file.sync_data()?;
        self.durable_len = self.len;
        self.appends_since_sync = 0;
        pe_observe::static_counter!("store.fsyncs").inc();
        Ok(())
    }

    /// Flushes and fsyncs; after this every appended record is durable.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on fsync failure.
    pub fn flush(&mut self) -> Result<(), StoreError> {
        if self.durable_len < self.len || self.appends_since_sync > 0 {
            self.sync()?;
        }
        Ok(())
    }

    /// Seals the current segment (flush + fsync) and starts a fresh one.
    /// Returns the sealed segment's sequence number.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on fsync/create failure.
    pub fn rotate(&mut self) -> Result<u64, StoreError> {
        self.flush()?;
        let sealed = self.seq;
        let next = self.seq + 1;
        let path = segment_path(&self.dir, next);
        let file = OpenOptions::new().create_new(true).read(true).write(true).open(&path)?;
        file.sync_all()?;
        sync_dir(&self.dir)?;
        self.file = file;
        self.seq = next;
        self.len = 0;
        self.durable_len = 0;
        self.appends_since_sync = 0;
        Ok(sealed)
    }
}

/// Initial capacity of the two reused group-commit batch buffers. Bursts
/// larger than this grow the buffer to its high-water mark once and then
/// stay allocation-free, like the single-writer payload buffer.
const BATCH_BUF_INITIAL: usize = 256 * 1024;

/// With `never` (or a not-yet-due `every=N`) policy nothing forces the
/// pending buffer to the file, so a drain is triggered once it holds this
/// many bytes — bounding memory and keeping writes large and few.
const PENDING_DRAIN_BYTES: usize = 1024 * 1024;

/// Receipt for one accepted append: where the record ends in the log's
/// logical byte stream and whether the policy demands durability before
/// the write may be acknowledged.
#[derive(Debug, Clone, Copy)]
pub struct AppendAck {
    /// Logical end offset of this record (monotonic across rotations).
    pub end: u64,
    /// Framed size of the record on disk.
    pub frame_len: u64,
    /// Whether the caller must [`GroupWal::sync_to`] before acking.
    pub needs_sync: bool,
}

/// Lifetime counters for one group-commit WAL, independent of the global
/// metrics registry so tests and benches can assert on a single store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GroupStats {
    /// Records accepted.
    pub appends: u64,
    /// fsyncs issued (batch syncs; excludes flush/rotate syncs).
    pub fsyncs: u64,
    /// Largest number of records one fsync covered.
    pub max_batch_records: u64,
    /// Appends that were made durable by another thread's fsync.
    pub fsyncs_saved: u64,
}

/// Group-commit state shared by every appender of one shard.
#[derive(Debug)]
struct WalQueue {
    /// Encoded frames accepted but not yet handed to the file. Appenders
    /// encode directly into this buffer under the queue lock; the sync
    /// leader swaps it against `spare` (double buffering — both reach
    /// their high-water capacity once, then appends allocate nothing).
    pending: Vec<u8>,
    spare: Option<Vec<u8>>,
    pending_records: u64,
    /// Logical bytes accepted since open (monotonic across rotations).
    /// Invariant: `appended - pending.len()` bytes are on the file.
    appended: u64,
    /// Logical bytes known durable (fsynced).
    durable: u64,
    /// Logical offset where the currently open segment started.
    segment_base: u64,
    /// A sync leader is currently writing + fsyncing outside this lock.
    leader: bool,
    appends_since_sync: u64,
    /// Lifetime append ordinal (1-based) — the fault injector counts
    /// these, exactly like the single-writer path.
    total_appends: u64,
    /// A leader hit an I/O error (or an injected crash fired): nothing
    /// further can be promised durable.
    failed: bool,
    stats: GroupStats,
}

/// The concurrent append end of the WAL: group commit.
///
/// Concurrent appenders no longer pay one fsync each. An append encodes
/// its frame into a shared pending buffer under a short-held queue lock
/// and returns a logical end offset; [`sync_to`](GroupWal::sync_to) then
/// elects one waiter as *leader*, which drains the whole pending buffer
/// with a single contiguous `write` and issues **one** fsync covering
/// every record that arrived while the previous leader was syncing, then
/// wakes all waiters. `fsync=always` semantics are unchanged — no append
/// is acknowledged before its record is durable — but the fsync cost is
/// amortized across the batch.
///
/// Lock order is `queue` → `file`; a leader never holds `file` while
/// waiting on `queue`, so appenders keep filling the next batch while the
/// current one is inside `fsync`.
#[derive(Debug)]
pub struct GroupWal {
    queue: Mutex<WalQueue>,
    synced: Condvar,
    file: Mutex<SegmentWriter>,
    policy: FsyncPolicy,
    faults: Option<StoreFaults>,
}

impl GroupWal {
    /// Wraps an opened segment writer. The writer must carry no fault
    /// plan of its own (the group layer owns ordinal counting).
    pub fn new(writer: SegmentWriter, policy: FsyncPolicy, faults: Option<StoreFaults>) -> GroupWal {
        GroupWal {
            queue: Mutex::new(WalQueue {
                pending: Vec::with_capacity(BATCH_BUF_INITIAL),
                spare: Some(Vec::with_capacity(BATCH_BUF_INITIAL)),
                pending_records: 0,
                appended: 0,
                durable: 0,
                segment_base: 0,
                leader: false,
                appends_since_sync: 0,
                total_appends: 0,
                failed: false,
                stats: GroupStats::default(),
            }),
            synced: Condvar::new(),
            file: Mutex::new(writer),
            policy,
            faults,
        }
    }

    fn lock_queue(&self) -> MutexGuard<'_, WalQueue> {
        // A panic mid-append is unrecoverable anyway (the store poisons
        // itself on every error path); ignore std mutex poisoning.
        self.queue.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn lock_file(&self) -> MutexGuard<'_, SegmentWriter> {
        self.file.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Acquires the queue with no sync leader in flight. `flush` and
    /// `rotate` drain the pending buffer while *holding* the queue lock,
    /// so a leader that already swapped a batch out but has not written
    /// it yet would otherwise be overtaken (out-of-order frames).
    fn wait_for_no_leader(&self) -> Result<MutexGuard<'_, WalQueue>, StoreError> {
        let mut q = self.lock_queue();
        while q.leader {
            q = self.synced.wait(q).unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        if q.failed {
            return Err(StoreError::Poisoned);
        }
        Ok(q)
    }

    /// Accepts one record: encodes it into the shared pending buffer and
    /// reports where it ends and whether the policy wants a sync before
    /// the ack. The caller serializes appends (index read-modify-write)
    /// with its own write lock; this method only orders the bytes.
    ///
    /// # Errors
    ///
    /// [`StoreError::InjectedCrash`] when the fault plan fires (the disk
    /// is left in the modelled crash state and the queue refuses further
    /// work), or [`StoreError::Io`].
    pub fn append(&self, record: &Record) -> Result<AppendAck, StoreError> {
        let mut q = self.lock_queue();
        if q.failed {
            return Err(StoreError::Poisoned);
        }
        q.total_appends += 1;
        if let Some(faults) = self.faults {
            if faults.triggers_append(q.total_appends) {
                // Freeze the log first: no later append may slip in, and
                // sync waiters will observe the failure. An in-flight
                // leader finishes normally — the records in its batch
                // reach the platter and their acks stay honest.
                q.failed = true;
                while q.leader {
                    q = self.synced.wait(q).unwrap_or_else(std::sync::PoisonError::into_inner);
                }
                // Model the crash as if every buffered-but-unsynced frame
                // had reached the OS (they were accepted earlier): drain
                // the prefix, then enact the configured failure on this
                // frame. Everything past the last fsync may be lost —
                // which is exactly what those unacknowledged (or
                // relaxed-policy) records were promised.
                let start = q.pending.len();
                encode_frame_into(record, &mut q.pending);
                let mut w = self.lock_file();
                let outcome = w.write_raw(&q.pending[..start]).map(|()| {
                    let frame = &q.pending[start..];
                    w.crash(&faults, &frame[..FRAME_HEADER_BYTES], &frame[FRAME_HEADER_BYTES..])
                });
                q.pending.clear();
                q.pending_records = 0;
                drop(w);
                drop(q);
                self.synced.notify_all();
                return Err(match outcome {
                    Ok(crash) => crash,
                    Err(io) => io,
                });
            }
        }
        let start = q.pending.len();
        encode_frame_into(record, &mut q.pending);
        let frame_len = (q.pending.len() - start) as u64;
        q.appended += frame_len;
        q.pending_records += 1;
        q.appends_since_sync += 1;
        q.stats.appends += 1;
        let needs_sync = match self.policy {
            FsyncPolicy::Always => true,
            FsyncPolicy::EveryN(n) => {
                if q.appends_since_sync >= n {
                    q.appends_since_sync = 0;
                    true
                } else {
                    false
                }
            }
            FsyncPolicy::Never => false,
        };
        let ack = AppendAck { end: q.appended, frame_len, needs_sync };
        if !needs_sync && q.pending.len() >= PENDING_DRAIN_BYTES && !q.leader {
            // Nothing will force these bytes out soon; hand them to the
            // OS now (no fsync) so memory stays bounded. The leader flag
            // keeps batch writes ordered: while we write outside the
            // lock, no other drain or sync leader may start. Skipped
            // when a leader is already mid-sync — it drains for us.
            q.leader = true;
            let swap_in = q.spare.take().unwrap_or_default();
            let drained = std::mem::replace(&mut q.pending, swap_in);
            q.pending_records = 0;
            drop(q);
            let mut w = self.lock_file();
            let wrote = w.write_raw(&drained);
            drop(w);
            let mut q = self.lock_queue();
            q.leader = false;
            q.spare = Some(reclaim(drained));
            if let Err(e) = wrote {
                q.failed = true;
                drop(q);
                self.synced.notify_all();
                return Err(e);
            }
            drop(q);
            self.synced.notify_all();
        }
        pe_observe::static_counter!("store.appends").inc();
        pe_observe::static_histogram!("store.append_bytes").record(frame_len);
        Ok(ack)
    }

    /// Blocks until every byte up to logical offset `end` is durable,
    /// joining (or leading) a group fsync.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] if the batch write or fsync failed — for this
    /// record *or* for the batch it rode in; nothing past the last
    /// successful fsync can be promised after that.
    pub fn sync_to(&self, end: u64) -> Result<(), StoreError> {
        let mut q = self.lock_queue();
        let mut led = false;
        loop {
            if q.durable >= end {
                if !led {
                    q.stats.fsyncs_saved += 1;
                    pe_observe::static_counter!("store.group_commit.fsyncs_saved").inc();
                }
                return Ok(());
            }
            if q.failed {
                return Err(StoreError::Poisoned);
            }
            if q.leader {
                q = self
                    .synced
                    .wait(q)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                continue;
            }
            // Become the leader: take the whole pending batch, remember
            // how far the log had grown (everything before the batch is
            // already on the file), and do the I/O outside the queue
            // lock so the next batch can fill behind us.
            led = true;
            q.leader = true;
            let swap_in = q.spare.take().unwrap_or_default();
            let batch = std::mem::replace(&mut q.pending, swap_in);
            let batch_records = q.pending_records;
            let cover = q.appended;
            q.pending_records = 0;
            drop(q);

            let mut w = self.lock_file();
            let outcome = w.write_raw(&batch).and_then(|()| w.sync());
            drop(w);

            q = self.lock_queue();
            q.leader = false;
            q.spare = Some(reclaim(batch));
            match outcome {
                Ok(()) => {
                    q.durable = q.durable.max(cover);
                    q.stats.fsyncs += 1;
                    q.stats.max_batch_records = q.stats.max_batch_records.max(batch_records);
                    pe_observe::static_histogram!("store.group_commit.batch_records")
                        .record(batch_records);
                }
                Err(e) => {
                    // An fsync failure voids every durability promise
                    // made since the previous sync; poison the log.
                    q.failed = true;
                    self.synced.notify_all();
                    return Err(e);
                }
            }
            self.synced.notify_all();
        }
    }

    /// Drains the pending buffer and fsyncs; after this every accepted
    /// record is durable.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on write/fsync failure.
    pub fn flush(&self) -> Result<(), StoreError> {
        let mut q = self.wait_for_no_leader()?;
        let appended = q.appended;
        let mut w = self.lock_file();
        let swap_in = q.spare.take().unwrap_or_default();
        let drained = std::mem::replace(&mut q.pending, swap_in);
        q.pending_records = 0;
        let outcome = w.write_raw(&drained).and_then(|()| w.flush());
        q.spare = Some(reclaim(drained));
        drop(w);
        match outcome {
            Ok(()) => {
                q.durable = q.durable.max(appended);
                drop(q);
                self.synced.notify_all();
                Ok(())
            }
            Err(e) => {
                q.failed = true;
                drop(q);
                self.synced.notify_all();
                Err(e)
            }
        }
    }

    /// Seals the current segment (drain + fsync) and starts the next
    /// one. Returns the sealed sequence number.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on fsync/create failure.
    pub fn rotate(&self) -> Result<u64, StoreError> {
        let mut q = self.wait_for_no_leader()?;
        let appended = q.appended;
        let mut w = self.lock_file();
        let swap_in = q.spare.take().unwrap_or_default();
        let drained = std::mem::replace(&mut q.pending, swap_in);
        q.pending_records = 0;
        let outcome = w.write_raw(&drained).and_then(|()| w.rotate());
        q.spare = Some(reclaim(drained));
        drop(w);
        match outcome {
            Ok(sealed) => {
                q.durable = q.durable.max(appended);
                q.segment_base = appended;
                q.appends_since_sync = 0;
                drop(q);
                self.synced.notify_all();
                Ok(sealed)
            }
            Err(e) => {
                q.failed = true;
                drop(q);
                self.synced.notify_all();
                Err(e)
            }
        }
    }

    /// Logical bytes accepted into the currently open segment.
    pub fn live_len(&self) -> u64 {
        let q = self.lock_queue();
        q.appended - q.segment_base
    }

    /// Lifetime group-commit counters for this WAL.
    pub fn stats(&self) -> GroupStats {
        self.lock_queue().stats
    }

    /// Whether a leader already failed (poisoned log).
    pub fn failed(&self) -> bool {
        self.lock_queue().failed
    }

    /// Marks the log failed (store-level poisoning mirrors down).
    pub fn fail(&self) {
        self.lock_queue().failed = true;
        self.synced.notify_all();
    }
}

/// Clears a swapped-out batch buffer for reuse, keeping its capacity.
fn reclaim(mut buf: Vec<u8>) -> Vec<u8> {
    buf.clear();
    buf
}

/// Appends one framed record (`[len][crc][payload]`) to `buf`, computing
/// the CRC in the same pass that copies the payload — the group-commit
/// twin of [`encode_payload`], writing into the shared pending buffer
/// instead of a per-writer one.
fn encode_frame_into(record: &Record, buf: &mut Vec<u8>) {
    let start = buf.len();
    buf.reserve(FRAME_HEADER_BYTES + record.encoded_len());
    buf.extend_from_slice(&[0u8; FRAME_HEADER_BYTES]);
    let mut hasher = Crc32::new();
    record.encode_parts(&mut |part| {
        hasher.update(part);
        buf.extend_from_slice(part);
    });
    let payload_len = buf.len() - start - FRAME_HEADER_BYTES;
    debug_assert!(payload_len as u32 <= MAX_PAYLOAD_BYTES);
    buf[start..start + 4].copy_from_slice(&(payload_len as u32).to_le_bytes());
    buf[start + 4..start + FRAME_HEADER_BYTES]
        .copy_from_slice(&hasher.finish().to_le_bytes());
}

/// Writes `header` then `payload` as one logical frame using vectored
/// I/O, handling partial writes. The common case is a single
/// `pwritev`-style syscall covering both slices — the frame is never
/// assembled into a contiguous buffer.
fn write_all_vectored(file: &mut File, header: &[u8], payload: &[u8]) -> std::io::Result<()> {
    let total = header.len() + payload.len();
    let mut written = 0usize;
    while written < total {
        let n = if written < header.len() {
            let bufs = [IoSlice::new(&header[written..]), IoSlice::new(payload)];
            file.write_vectored(&bufs)?
        } else {
            file.write(&payload[written - header.len()..])?
        };
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::WriteZero,
                "failed to write whole WAL frame",
            ));
        }
        written += n;
    }
    Ok(())
}

/// Fsyncs a directory so renames/creates within it are durable.
///
/// # Errors
///
/// Propagates the underlying I/O failure.
pub fn sync_dir(dir: &Path) -> std::io::Result<()> {
    File::open(dir)?.sync_all()
}

#[cfg(test)]
mod tests {
    use super::*;

    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> TempDir {
            let path = std::env::temp_dir()
                .join(format!("pe-wal-{tag}-{}-{:?}", std::process::id(), std::thread::current().id()));
            let _ = std::fs::remove_dir_all(&path);
            std::fs::create_dir_all(&path).unwrap();
            TempDir(path)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn records(n: u64) -> Vec<Record> {
        (0..n)
            .map(|i| Record::FullSave {
                id: format!("doc{}", i % 3),
                version: i + 1,
                content: vec![b'x'; (i as usize % 40) + 1],
            })
            .collect()
    }

    #[test]
    fn append_then_replay_round_trips() {
        let dir = TempDir::new("roundtrip");
        let mut w = SegmentWriter::open(&dir.0, 1, 0, FsyncPolicy::Always, None).unwrap();
        let written = records(10);
        for r in &written {
            w.append(r).unwrap();
        }
        drop(w);
        let mut seen = Vec::new();
        let stats = replay_segment(&segment_path(&dir.0, 1), |r| seen.push(r)).unwrap();
        assert_eq!(seen, written);
        assert_eq!(stats.records, 10);
        assert_eq!(stats.torn_bytes, 0);
    }

    #[test]
    fn torn_tail_is_detected_not_corrupt() {
        let dir = TempDir::new("torn");
        let mut w = SegmentWriter::open(&dir.0, 1, 0, FsyncPolicy::Always, None).unwrap();
        for r in records(5) {
            w.append(&r).unwrap();
        }
        let full_len = w.len();
        drop(w);
        let path = segment_path(&dir.0, 1);
        // Chop 3 bytes off the last frame.
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(full_len - 3).unwrap();
        drop(file);
        let mut seen = 0;
        let stats = replay_segment(&path, |_| seen += 1).unwrap();
        assert_eq!(seen, 4, "last record lost, earlier ones intact");
        assert!(stats.torn_bytes > 0);
        // Reopening at the validated length truncates the tail away.
        let w = SegmentWriter::open(&dir.0, 1, stats.valid_bytes, FsyncPolicy::Always, None)
            .unwrap();
        assert_eq!(w.len(), stats.valid_bytes);
        drop(w);
        let clean = replay_segment(&path, |_| {}).unwrap();
        assert_eq!(clean.torn_bytes, 0);
    }

    #[test]
    fn corrupted_payload_with_valid_framing_is_a_crc_miss() {
        let dir = TempDir::new("flip");
        let mut w = SegmentWriter::open(&dir.0, 1, 0, FsyncPolicy::Always, None).unwrap();
        for r in records(3) {
            w.append(&r).unwrap();
        }
        drop(w);
        let path = segment_path(&dir.0, 1);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let mut seen = 0;
        let stats = replay_segment(&path, |_| seen += 1).unwrap();
        assert!(seen < 3, "flip must cut replay short");
        assert!(stats.torn_bytes > 0);
    }

    #[test]
    fn rotation_seals_and_continues() {
        let dir = TempDir::new("rotate");
        let mut w = SegmentWriter::open(&dir.0, 1, 0, FsyncPolicy::EveryN(4), None).unwrap();
        for r in records(3) {
            w.append(&r).unwrap();
        }
        assert_eq!(w.rotate().unwrap(), 1);
        assert_eq!(w.seq(), 2);
        assert!(w.is_empty());
        for r in records(2) {
            w.append(&r).unwrap();
        }
        w.flush().unwrap();
        drop(w);
        let mut first = 0;
        replay_segment(&segment_path(&dir.0, 1), |_| first += 1).unwrap();
        let mut second = 0;
        replay_segment(&segment_path(&dir.0, 2), |_| second += 1).unwrap();
        assert_eq!((first, second), (3, 2));
    }

    #[test]
    fn policy_parsing_round_trips() {
        for (text, policy) in [
            ("always", FsyncPolicy::Always),
            ("never", FsyncPolicy::Never),
            ("every=8", FsyncPolicy::EveryN(8)),
        ] {
            assert_eq!(FsyncPolicy::parse(text), Some(policy));
            assert_eq!(policy.label(), text);
        }
        assert_eq!(FsyncPolicy::parse("every=0"), None);
        assert_eq!(FsyncPolicy::parse("sometimes"), None);
    }

    #[test]
    fn segment_names_round_trip() {
        assert_eq!(parse_segment_name("wal-0000000042.log"), Some(42));
        assert_eq!(parse_segment_name("snap-1.snap"), None);
        let path = segment_path(Path::new("/x"), 7);
        assert_eq!(parse_segment_name(path.file_name().unwrap().to_str().unwrap()), Some(7));
    }

    #[test]
    fn group_wal_single_thread_appends_replay_in_order() {
        let dir = TempDir::new("group-single");
        let w = SegmentWriter::open(&dir.0, 1, 0, FsyncPolicy::Always, None).unwrap();
        let wal = GroupWal::new(w, FsyncPolicy::Always, None);
        let written = records(20);
        for r in &written {
            let ack = wal.append(r).unwrap();
            assert!(ack.needs_sync);
            wal.sync_to(ack.end).unwrap();
        }
        let stats = wal.stats();
        assert_eq!(stats.appends, 20);
        assert_eq!(stats.fsyncs, 20, "single writer: one fsync per record");
        assert_eq!(stats.fsyncs_saved, 0);
        drop(wal);
        let mut seen = Vec::new();
        replay_segment(&segment_path(&dir.0, 1), |r| seen.push(r)).unwrap();
        assert_eq!(seen, written);
    }

    #[test]
    fn group_wal_concurrent_appenders_batch_fsyncs() {
        let dir = TempDir::new("group-batch");
        let w = SegmentWriter::open(&dir.0, 1, 0, FsyncPolicy::Always, None).unwrap();
        let wal = GroupWal::new(w, FsyncPolicy::Always, None);
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 50;
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let wal = &wal;
                scope.spawn(move || {
                    for i in 0..PER_THREAD {
                        let r = Record::FullSave {
                            id: format!("doc-{t}"),
                            version: i + 1,
                            content: vec![t as u8; 64],
                        };
                        let ack = wal.append(&r).unwrap();
                        wal.sync_to(ack.end).unwrap();
                    }
                });
            }
        });
        let stats = wal.stats();
        assert_eq!(stats.appends, THREADS * PER_THREAD);
        assert!(
            stats.fsyncs <= stats.appends,
            "fsyncs ({}) must not exceed appends ({})",
            stats.fsyncs,
            stats.appends
        );
        assert_eq!(
            stats.fsyncs + stats.fsyncs_saved,
            stats.appends,
            "every append either led a sync or rode one"
        );
        drop(wal);
        let mut per_doc: std::collections::HashMap<String, u64> = std::collections::HashMap::new();
        let stats = replay_segment(&segment_path(&dir.0, 1), |r| {
            if let Record::FullSave { id, version, .. } = r {
                let prev = per_doc.insert(id, version).unwrap_or(0);
                assert_eq!(version, prev + 1, "each thread's records replay in its append order");
            }
        })
        .unwrap();
        assert_eq!(stats.records, THREADS * PER_THREAD);
        assert_eq!(stats.torn_bytes, 0);
        assert!(per_doc.values().all(|&v| v == PER_THREAD));
    }

    #[test]
    fn group_wal_rotate_preserves_logical_offsets() {
        let dir = TempDir::new("group-rotate");
        let w = SegmentWriter::open(&dir.0, 1, 0, FsyncPolicy::Always, None).unwrap();
        let wal = GroupWal::new(w, FsyncPolicy::Always, None);
        let written = records(6);
        for r in &written[..3] {
            let ack = wal.append(r).unwrap();
            wal.sync_to(ack.end).unwrap();
        }
        let before = wal.live_len();
        assert!(before > 0);
        assert_eq!(wal.rotate().unwrap(), 1);
        assert_eq!(wal.live_len(), 0, "live length resets at the segment boundary");
        let mut last = 0;
        for r in &written[3..] {
            let ack = wal.append(r).unwrap();
            assert!(ack.end > before, "logical offsets stay monotonic across rotation");
            wal.sync_to(ack.end).unwrap();
            last = ack.end;
        }
        assert_eq!(wal.live_len(), last - before);
        drop(wal);
        let mut seen = Vec::new();
        replay_segment(&segment_path(&dir.0, 1), |r| seen.push(r)).unwrap();
        replay_segment(&segment_path(&dir.0, 2), |r| seen.push(r)).unwrap();
        assert_eq!(seen, written);
    }

    #[test]
    fn group_wal_relaxed_policy_drains_without_fsync() {
        let dir = TempDir::new("group-never");
        let w = SegmentWriter::open(&dir.0, 1, 0, FsyncPolicy::Never, None).unwrap();
        let wal = GroupWal::new(w, FsyncPolicy::Never, None);
        // Push more than PENDING_DRAIN_BYTES through; the drain path must
        // hand bytes to the OS without any fsync.
        let big = Record::FullSave { id: "d".into(), version: 1, content: vec![7u8; 64 * 1024] };
        for _ in 0..(2 * PENDING_DRAIN_BYTES / (64 * 1024) as usize + 2) {
            let ack = wal.append(&big).unwrap();
            assert!(!ack.needs_sync);
        }
        assert_eq!(wal.stats().fsyncs, 0);
        wal.flush().unwrap();
        drop(wal);
        let stats = replay_segment(&segment_path(&dir.0, 1), |_| {}).unwrap();
        assert!(stats.records >= 2);
        assert_eq!(stats.torn_bytes, 0);
    }

    #[test]
    fn group_wal_fault_poisons_concurrent_appenders() {
        let dir = TempDir::new("group-fault");
        let w = SegmentWriter::open(&dir.0, 1, 0, FsyncPolicy::Always, None).unwrap();
        let faults = StoreFaults::at_append(CrashPoint::BeforeFsync, 10, 1);
        let wal = GroupWal::new(w, FsyncPolicy::Always, Some(faults));
        let mut crashes = 0u32;
        let mut poisoned = 0u32;
        for r in records(30) {
            match wal.append(&r) {
                Ok(ack) => {
                    wal.sync_to(ack.end).unwrap();
                }
                Err(StoreError::InjectedCrash(_)) => crashes += 1,
                Err(StoreError::Poisoned) => poisoned += 1,
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert_eq!(crashes, 1, "exactly one append hits the crash point");
        assert_eq!(poisoned, 30 - 10, "every later append sees the poisoned log");
        assert!(wal.failed());
        drop(wal);
        let stats = replay_segment(&segment_path(&dir.0, 1), |_| {}).unwrap();
        assert_eq!(stats.records, 9, "the acknowledged prefix survives the crash");
    }

    #[test]
    fn group_wal_fsync_saved_when_riding_another_batch() {
        // Deterministic two-thread handoff: thread B appends while thread
        // A is inside fsync, so B's record rides A's next batch or B
        // becomes the next leader — either way fsyncs+saved==appends.
        let dir = TempDir::new("group-saved");
        let w = SegmentWriter::open(&dir.0, 1, 0, FsyncPolicy::Always, None).unwrap();
        let wal = GroupWal::new(w, FsyncPolicy::Always, None);
        std::thread::scope(|scope| {
            for t in 0..2u8 {
                let wal = &wal;
                scope.spawn(move || {
                    for i in 0..100u64 {
                        let r = Record::FullSave {
                            id: format!("t{t}"),
                            version: i + 1,
                            content: vec![t; 16],
                        };
                        let ack = wal.append(&r).unwrap();
                        wal.sync_to(ack.end).unwrap();
                    }
                });
            }
        });
        let stats = wal.stats();
        assert_eq!(stats.fsyncs + stats.fsyncs_saved, 200);
        assert!(stats.max_batch_records >= 1);
    }
}
