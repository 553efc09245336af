//! Integration tests for [`ShardedLogStore`]: layout detection, routing,
//! in-place migration on open, concurrent appenders, and sharded fsck.

use std::path::PathBuf;

use pe_store::{
    fsck, shard_dir, DeltaLimits, DocStore, LogStore, MemStore, ShardedLogStore, StoreConfig,
    StoreError, MANIFEST_NAME,
};

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let path = std::env::temp_dir().join(format!(
            "pe-sharded-{tag}-{}-{:?}",
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

/// Documents and metadata counters, for exact comparison.
type ObservedState = (Vec<(String, pe_store::DocState)>, Vec<(String, u64)>);

fn observe(store: &dyn DocStore) -> ObservedState {
    let docs = store
        .list()
        .into_iter()
        .map(|id| {
            let state = store.get(&id).expect("listed doc exists");
            (id, state)
        })
        .collect();
    (docs, store.meta_entries())
}

#[test]
fn fresh_store_writes_manifest_and_routes_documents() {
    let dir = TempDir::new("fresh");
    let store = ShardedLogStore::open(&dir.0, 4, StoreConfig::default()).unwrap();
    assert_eq!(store.shard_count(), 4);
    assert!(dir.0.join(MANIFEST_NAME).is_file());
    for shard in 0..4 {
        assert!(shard_dir(&dir.0, shard).is_dir(), "shard {shard} directory exists");
    }
    for i in 0..32 {
        let id = format!("doc-{i}");
        store.put_full(&id, format!("content {i}").as_bytes()).unwrap();
        // The document's WAL bytes must land in exactly its routed shard.
        assert!(store.shard_for(&id) < 4);
    }
    assert_eq!(store.list().len(), 32);
    // Every shard really is used at 32 docs over 4 shards (FNV spreads).
    let used: std::collections::HashSet<usize> =
        (0..32).map(|i| store.shard_for(&format!("doc-{i}"))).collect();
    assert!(used.len() > 1, "routing must spread documents across shards");
}

#[test]
fn reopen_uses_manifest_count_and_recovers_all_shards() {
    let dir = TempDir::new("reopen");
    {
        let store = ShardedLogStore::open(&dir.0, 4, StoreConfig::default()).unwrap();
        for i in 0..20 {
            store.put_full(&format!("doc-{i}"), format!("v{i}").as_bytes()).unwrap();
        }
        store.set_meta("next_doc", 20).unwrap();
    }
    // A different requested count is ignored: routing must match the
    // layout that wrote the data.
    let store = ShardedLogStore::open(&dir.0, 16, StoreConfig::default()).unwrap();
    assert_eq!(store.shard_count(), 4);
    for i in 0..20 {
        assert_eq!(store.content(&format!("doc-{i}")).unwrap(), format!("v{i}").as_bytes());
    }
    assert_eq!(store.meta("next_doc"), Some(20));
}

/// Names of pre-sharding WAL segments and snapshots left at the root.
fn root_store_files(dir: &std::path::Path) -> Vec<String> {
    std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.unwrap().file_name().into_string().ok())
        .filter(|n| n.ends_with(".log") || n.ends_with(".snap"))
        .collect()
}

#[test]
fn plain_open_migrates_a_pre_sharding_directory() {
    let dir = TempDir::new("presharding");
    {
        let old = LogStore::open(&dir.0, StoreConfig::default()).unwrap();
        old.put_full("old-doc", b"pre-sharding bytes").unwrap();
    }
    let store = ShardedLogStore::open(&dir.0, 8, StoreConfig::default()).unwrap();
    assert_eq!(store.shard_count(), 8);
    assert!(dir.0.join(MANIFEST_NAME).is_file(), "open must migrate");
    let leftover = root_store_files(&dir.0);
    assert!(leftover.is_empty(), "pre-sharding files must be removed: {leftover:?}");
    assert_eq!(store.content("old-doc").unwrap(), b"pre-sharding bytes");
    store.put_full("new-doc", b"still works").unwrap();
    drop(store);
    let reread = ShardedLogStore::open(&dir.0, 1, StoreConfig::default()).unwrap();
    assert_eq!(reread.shard_count(), 8);
    assert_eq!(reread.content("old-doc").unwrap(), b"pre-sharding bytes");
    assert_eq!(reread.content("new-doc").unwrap(), b"still works");
}

#[test]
fn migration_preserves_versions_revisions_and_meta_exactly() {
    let dir = TempDir::new("migrate");
    let model = MemStore::new();
    {
        let old = LogStore::open(&dir.0, StoreConfig::default()).unwrap();
        for store in [&old as &dyn DocStore, &model as &dyn DocStore] {
            store.create("alpha").unwrap();
            store.put_full("alpha", b"first").unwrap();
            store.put_full("alpha", b"second").unwrap();
            store.put_full("beta", b"abcdef").unwrap();
            let delta = pe_delta::Delta::parse("=3\t-3\t+xyz").unwrap();
            store.apply_delta("beta", &delta, DeltaLimits::none()).unwrap();
            store.put_full("gamma", b"gone soon").unwrap();
            store.remove("gamma").unwrap();
            store.bump_meta("next_doc").unwrap();
            store.set_meta("next_session", 7).unwrap();
        }
    }
    let migrated = ShardedLogStore::open(&dir.0, 4, StoreConfig::default()).unwrap();
    assert_eq!(migrated.shard_count(), 4);
    assert_eq!(observe(&migrated), observe(&model), "migration must be lossless");
    // The root holds only manifest + shard dirs.
    let top = root_store_files(&dir.0);
    assert!(top.is_empty(), "pre-sharding files must be removed: {top:?}");
    drop(migrated);

    // Reopen sees the sharded layout and the same state.
    let reopened = ShardedLogStore::open(&dir.0, 1, StoreConfig::default()).unwrap();
    assert_eq!(reopened.shard_count(), 4);
    assert_eq!(observe(&reopened), observe(&model));
}

#[test]
fn migration_restarts_over_stale_shard_debris() {
    let dir = TempDir::new("debris");
    {
        let old = LogStore::open(&dir.0, StoreConfig::default()).unwrap();
        old.put_full("doc", b"authoritative").unwrap();
    }
    // Simulate a migration that crashed before publishing its manifest:
    // a stale shard directory exists, the pre-sharding files are still
    // the truth.
    std::fs::create_dir_all(shard_dir(&dir.0, 0)).unwrap();
    std::fs::write(shard_dir(&dir.0, 0).join("garbage"), b"half-written").unwrap();

    // Open clears the debris and completes the migration.
    let migrated = ShardedLogStore::open(&dir.0, 2, StoreConfig::default()).unwrap();
    assert_eq!(migrated.shard_count(), 2);
    assert_eq!(migrated.content("doc").unwrap(), b"authoritative");
    assert_eq!(migrated.get("doc").unwrap().version, 1);
    assert!(!shard_dir(&dir.0, 0).join("garbage").exists(), "debris must be cleared");
    assert!(root_store_files(&dir.0).is_empty());
}

#[test]
fn shard_dirs_without_manifest_refuse_to_open() {
    let dir = TempDir::new("no-manifest");
    std::fs::create_dir_all(shard_dir(&dir.0, 0)).unwrap();
    match ShardedLogStore::open(&dir.0, 4, StoreConfig::default()) {
        Err(StoreError::Corrupt(msg)) => assert!(msg.contains(MANIFEST_NAME), "{msg}"),
        other => panic!("expected Corrupt, got {other:?}"),
    }
}

#[test]
fn logstore_refuses_a_sharded_root() {
    let dir = TempDir::new("wrong-engine");
    drop(ShardedLogStore::open(&dir.0, 2, StoreConfig::default()).unwrap());
    match LogStore::open(&dir.0, StoreConfig::default()) {
        Err(StoreError::Corrupt(msg)) => assert!(msg.contains("sharded"), "{msg}"),
        other => panic!("expected Corrupt, got {other:?}"),
    }
}

#[test]
fn corrupt_manifest_is_rejected() {
    let dir = TempDir::new("bad-manifest");
    drop(ShardedLogStore::open(&dir.0, 2, StoreConfig::default()).unwrap());
    std::fs::write(dir.0.join(MANIFEST_NAME), b"not a manifest\n").unwrap();
    assert!(matches!(
        ShardedLogStore::open(&dir.0, 2, StoreConfig::default()),
        Err(StoreError::Corrupt(_))
    ));
}

#[test]
fn concurrent_appenders_spread_over_shards_and_survive_reopen() {
    let dir = TempDir::new("concurrent");
    const THREADS: usize = 8;
    const PER_THREAD: usize = 25;
    {
        let store = ShardedLogStore::open(&dir.0, 4, StoreConfig::default()).unwrap();
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let store = &store;
                scope.spawn(move || {
                    let id = format!("writer-{t}");
                    for i in 1..=PER_THREAD {
                        let version =
                            store.put_full(&id, format!("{t}:{i}").as_bytes()).unwrap();
                        assert_eq!(version as usize, i);
                    }
                });
            }
        });
        let stats = store.group_stats();
        assert_eq!(stats.appends as usize, THREADS * PER_THREAD);
        assert_eq!(
            stats.fsyncs + stats.fsyncs_saved,
            stats.appends,
            "every append either led a group fsync or rode one"
        );
    }
    let store = ShardedLogStore::open(&dir.0, 4, StoreConfig::default()).unwrap();
    for t in 0..THREADS {
        let state = store.get(&format!("writer-{t}")).unwrap();
        assert_eq!(state.version as usize, PER_THREAD);
        assert_eq!(state.content, format!("{t}:{PER_THREAD}").as_bytes());
    }
}

#[test]
fn fsck_reports_per_shard_and_flags_a_corrupt_shard() {
    let dir = TempDir::new("fsck");
    {
        let store = ShardedLogStore::open(&dir.0, 3, StoreConfig::default()).unwrap();
        for i in 0..12 {
            store.put_full(&format!("doc-{i}"), b"bytes").unwrap();
        }
    }
    let report = fsck(&dir.0).unwrap();
    assert_eq!(report.shards.len(), 3);
    assert!(report.is_healthy(), "{}", report.render());
    let rendered = report.render();
    assert!(rendered.contains("[shard-001]"), "{rendered}");
    assert!(rendered.contains("store healthy"), "{rendered}");

    // Corrupt one shard's sealed bytes: the whole store is unhealthy and
    // the verdict line cannot read healthy.
    let victim = shard_dir(&dir.0, 1);
    let seg = std::fs::read_dir(&victim)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|e| e == "log"))
        .expect("shard has a wal segment");
    let mut bytes = std::fs::read(&seg).unwrap();
    assert!(bytes.len() > 12);
    bytes[10] ^= 0xff;
    // Append a second frame worth of garbage so the flip is not a
    // recoverable torn tail.
    bytes.extend_from_slice(&[0xa5; 64]);
    let truncated_midframe = bytes.len() - 32;
    bytes.truncate(truncated_midframe);
    std::fs::write(&seg, &bytes).unwrap();
    let report = fsck(&dir.0).unwrap();
    let rendered = report.render();
    assert!(rendered.ends_with("STORE CORRUPT") || rendered.ends_with("store healthy"));
    // Either the flip corrupted mid-log (error) or only the tail
    // (warning); in the flipped-CRC case it must be fatal.
    assert!(!report.shards[1].1.errors.is_empty() || !report.shards[1].1.warnings.is_empty());
}

#[test]
fn meta_counters_live_on_shard_zero_and_survive_reopen() {
    let dir = TempDir::new("meta");
    {
        let store = ShardedLogStore::open(&dir.0, 4, StoreConfig::default()).unwrap();
        assert_eq!(store.bump_meta("next_doc").unwrap(), 1);
        assert_eq!(store.bump_meta("next_doc").unwrap(), 2);
        store.set_meta("next_session", 41).unwrap();
    }
    let store = ShardedLogStore::open(&dir.0, 4, StoreConfig::default()).unwrap();
    assert_eq!(store.meta("next_doc"), Some(2));
    assert_eq!(store.bump_meta("next_session").unwrap(), 42);
    assert_eq!(
        store.meta_entries(),
        vec![("next_doc".to_string(), 2), ("next_session".to_string(), 42)]
    );
}

#[test]
fn compact_rolls_up_stats_across_shards() {
    let dir = TempDir::new("compact");
    let store = ShardedLogStore::open(&dir.0, 2, StoreConfig::default()).unwrap();
    for i in 0..10 {
        store.put_full(&format!("doc-{i}"), vec![b'z'; 512].as_slice()).unwrap();
    }
    let stats = store.compact().unwrap();
    assert!(stats.docs >= 10, "snapshot covers all documents: {stats:?}");
    assert!(stats.snapshot_bytes > 0);
    let report = fsck(store.dir()).unwrap();
    assert!(report.is_healthy(), "{}", report.render());
}
