//! Multi-tenant key-management benchmarks: AES key-wrap latency,
//! grant/revoke cost as a function of document size (the paper's
//! "no re-encryption on membership change" claim), and directory
//! recovery time after a crash at directory scale.
//!
//! The grant/revoke sweep is the headline: each row stores a document
//! body of the given size, then repeatedly grants and revokes access
//! while asserting the stored ciphertext bytes never change. Because a
//! grant is one 40-byte wrapped-key record and a revoke is one record
//! delete, the measured latency must stay flat from 1 KiB to 1 MiB.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use pe_cloud::docs::DocsServer;
use pe_crypto::CtrDrbg;
use pe_store::{DocStore, FsyncPolicy, ShardedLogStore, StoreConfig};
use pe_tenant::{DataKey, MasterKey, ServiceRecords, TenantDirectory, WRAPPED_KEY_BYTES};

/// A scratch directory deleted on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let mut path = std::env::temp_dir();
        path.push(format!(
            "pe-tenantbench-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
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

/// PBKDF2 iteration count for bench users: low on purpose, so the
/// sweeps measure wrap/record traffic rather than password stretching
/// (the KDF row reports stretching cost separately, at real settings).
const BENCH_ITERS: u32 = 32;

/// One measured key-hierarchy primitive.
#[derive(Debug, Clone, PartialEq)]
pub struct WrapRow {
    /// Operation label (`kdf@10000`, `wrap`, `unwrap`).
    pub op: String,
    /// Timed repetitions.
    pub reps: u64,
    /// Mean nanoseconds per operation.
    pub mean_ns: f64,
    /// Worst observed single operation, nanoseconds.
    pub max_ns: u64,
}

/// One grant/revoke measurement at a fixed document body size.
#[derive(Debug, Clone, PartialEq)]
pub struct GrantRow {
    /// Stored document body bytes.
    pub body_bytes: usize,
    /// Timed grant→accept→revoke cycles.
    pub reps: u64,
    /// Mean microseconds for `grant` (mint invite, wrap under invite KEK).
    pub grant_us: f64,
    /// Mean microseconds for `accept` (unwrap invite, rewrap under grantee).
    pub accept_us: f64,
    /// Mean microseconds for `revoke` (delete wrapped-key record).
    pub revoke_us: f64,
    /// Whether the stored body bytes were byte-identical after every cycle.
    pub body_unchanged: bool,
}

/// One directory-recovery measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryRow {
    /// Registered users.
    pub users: usize,
    /// Registered documents (each with one owner grant).
    pub docs: usize,
    /// Stored wrapped-key records.
    pub grants: usize,
    /// WAL shards backing the directory.
    pub shards: usize,
    /// Wall seconds to populate the directory (register + create).
    pub populate_wall_s: f64,
    /// Wall seconds to reopen the store cold (WAL replay).
    pub reopen_wall_s: f64,
    /// Wall seconds for a full directory scan (`stats`) after reopen.
    pub scan_wall_s: f64,
}

/// Measures the raw key-hierarchy primitives: PBKDF2 master-key
/// derivation at the default production iteration count, and RFC 3394
/// wrap/unwrap of a 32-byte data key (40-byte wrapped record).
pub fn wrap_unwrap_sweep(reps: u64, kdf_iters: u32) -> Vec<WrapRow> {
    let mut rng = CtrDrbg::from_seed(0x7e4a);
    let salt = [7u8; 16];
    let master = MasterKey::derive("bench-passphrase", &salt, kdf_iters);
    let data = DataKey::generate(&mut rng);
    let wrapped = data.wrap(&master);
    assert_eq!(wrapped.len(), WRAPPED_KEY_BYTES);

    let mut rows = Vec::new();
    // KDF reps are scaled down: one derivation is ~iterations PRF calls.
    let kdf_reps = (reps / 50).max(4);
    rows.push(time_op(&format!("kdf@{kdf_iters}"), kdf_reps, || {
        let m = MasterKey::derive("bench-passphrase", &salt, kdf_iters);
        std::hint::black_box(m.verifier()[0])
    }));
    rows.push(time_op("wrap", reps, || {
        std::hint::black_box(data.wrap(&master)[0])
    }));
    rows.push(time_op("unwrap", reps, || {
        let k = DataKey::unwrap(&master, &wrapped).expect("bench unwrap");
        std::hint::black_box(k.bytes()[0])
    }));
    rows
}

fn time_op(op: &str, reps: u64, mut f: impl FnMut() -> u8) -> WrapRow {
    // Warm-up pass so one-time table setup does not pollute the max.
    f();
    let mut total_ns = 0u128;
    let mut max_ns = 0u128;
    for _ in 0..reps {
        let started = Instant::now();
        f();
        let ns = started.elapsed().as_nanos();
        total_ns += ns;
        max_ns = max_ns.max(ns);
    }
    WrapRow {
        op: op.to_string(),
        reps,
        mean_ns: total_ns as f64 / reps as f64,
        max_ns: max_ns as u64,
    }
}

/// Measures grant/accept/revoke latency against stored documents of
/// increasing size, asserting after every cycle that the stored body
/// bytes are byte-identical — membership changes never touch content.
///
/// Bodies are written through [`DocStore::put_full`] directly (the raw
/// storage path), so sizes can exceed the public save endpoint's cap.
pub fn grant_revoke_sweep(sizes: &[usize], reps: u64) -> Vec<GrantRow> {
    let server = DocsServer::new();
    let dir = TenantDirectory::new(ServiceRecords::new(&server));
    let mut rng = CtrDrbg::from_seed(0x9c31);

    let owner = dir
        .register("owner", "owner-pass", BENCH_ITERS, &mut rng)
        .expect("register owner");
    let reader = dir
        .register("reader", "reader-pass", BENCH_ITERS, &mut rng)
        .expect("register reader");

    sizes
        .iter()
        .map(|&body_bytes| {
            let doc_id = format!("bench-doc-{body_bytes}");
            dir.create_document(&owner, &doc_id, &mut rng).expect("create doc");
            // A stand-in ciphertext body: printable so `stored_content`
            // round-trips it exactly like real sealed document text.
            let body: String =
                (0..body_bytes).map(|i| char::from(b'a' + (i % 26) as u8)).collect();
            server.store().put_full(&doc_id, body.as_bytes()).expect("store body");
            let before = server.store().content(&doc_id).expect("body stored");

            let mut grant_ns = 0u128;
            let mut accept_ns = 0u128;
            let mut revoke_ns = 0u128;
            let mut body_unchanged = true;
            for _ in 0..reps {
                let started = Instant::now();
                let code = dir.grant(&owner, &doc_id, "reader", &mut rng).expect("grant");
                grant_ns += started.elapsed().as_nanos();

                let started = Instant::now();
                dir.accept(&reader, &doc_id, &code).expect("accept");
                accept_ns += started.elapsed().as_nanos();

                let started = Instant::now();
                let removed = dir.revoke(&owner, &doc_id, "reader").expect("revoke");
                revoke_ns += started.elapsed().as_nanos();
                assert!(removed, "revoke must remove the grant");

                body_unchanged &=
                    server.store().content(&doc_id).as_deref() == Some(&before[..]);
            }
            let per_us = |ns: u128| ns as f64 / reps as f64 / 1_000.0;
            GrantRow {
                body_bytes,
                reps,
                grant_us: per_us(grant_ns),
                accept_us: per_us(accept_ns),
                revoke_us: per_us(revoke_ns),
                body_unchanged,
            }
        })
        .collect()
}

/// Populates a durable, sharded directory with `users` users and `docs`
/// documents (one owner grant each), then measures a cold reopen (WAL
/// replay) and a full directory scan.
pub fn recovery_bench(users: usize, docs: usize, shards: usize) -> RecoveryRow {
    let tmp = TempDir::new("recovery");
    let config = StoreConfig { fsync: FsyncPolicy::Never, ..Default::default() };
    let mut rng = CtrDrbg::from_seed(0x51ab);

    let populate_started = Instant::now();
    {
        let store = ShardedLogStore::open(&tmp.0, shards, config).expect("open store");
        let server = DocsServer::with_store(Arc::new(store));
        let dir = TenantDirectory::new(ServiceRecords::new(&server));

        // Documents round-robin over a pool of live sessions so the
        // grant records span many distinct user keys.
        let mut sessions = Vec::new();
        for i in 0..users {
            let name = format!("u{i:05}");
            let session = dir
                .register(&name, &format!("pw-{i}"), BENCH_ITERS, &mut rng)
                .expect("register");
            if sessions.len() < 16 {
                sessions.push(session);
            }
        }
        for i in 0..docs {
            let session = &sessions[i % sessions.len()];
            dir.create_document(session, &format!("doc{i:05}"), &mut rng)
                .expect("create doc");
        }
        server.store().flush().expect("flush");
    }
    let populate_wall_s = populate_started.elapsed().as_secs_f64();

    let reopen_started = Instant::now();
    let store = ShardedLogStore::open(&tmp.0, shards, config).expect("reopen store");
    let reopen_wall_s = reopen_started.elapsed().as_secs_f64();

    let server = DocsServer::with_store(Arc::new(store));
    let dir = TenantDirectory::new(ServiceRecords::new(&server));
    let scan_started = Instant::now();
    let stats = dir.stats().expect("stats");
    let scan_wall_s = scan_started.elapsed().as_secs_f64();
    assert_eq!(stats.users, users, "all users must survive the crash");
    assert_eq!(stats.documents, docs, "all documents must survive the crash");

    RecoveryRow {
        users,
        docs,
        grants: stats.grants,
        shards,
        populate_wall_s,
        reopen_wall_s,
        scan_wall_s,
    }
}

/// Renders all three sweeps as the JSON document committed as
/// `BENCH_tenant.json`.
pub fn render_json(
    wraps: &[WrapRow],
    grants: &[GrantRow],
    recoveries: &[RecoveryRow],
) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"tenant_bench\",\n");
    out.push_str(
        "  \"subsystem\": \"pe-tenant multi-tenant key directory (RFC 3394 AES-KW)\",\n",
    );
    out.push_str(&format!("  \"wrapped_key_bytes\": {WRAPPED_KEY_BYTES},\n"));
    out.push_str(&format!("  \"bench_kdf_iterations\": {BENCH_ITERS},\n"));
    out.push_str("  \"wrap_rows\": [\n");
    for (i, row) in wraps.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"op\": \"{}\", \"reps\": {}, \"mean_ns\": {:.1}, \"max_ns\": {}}}{}\n",
            row.op,
            row.reps,
            row.mean_ns,
            row.max_ns,
            if i + 1 == wraps.len() { "" } else { "," },
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"grant_rows\": [\n");
    for (i, row) in grants.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"body_bytes\": {}, \"reps\": {}, \"grant_us\": {:.2}, \
             \"accept_us\": {:.2}, \"revoke_us\": {:.2}, \"body_unchanged\": {}}}{}\n",
            row.body_bytes,
            row.reps,
            row.grant_us,
            row.accept_us,
            row.revoke_us,
            row.body_unchanged,
            if i + 1 == grants.len() { "" } else { "," },
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"recovery_rows\": [\n");
    for (i, row) in recoveries.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"users\": {}, \"docs\": {}, \"grants\": {}, \"shards\": {}, \
             \"populate_wall_s\": {:.3}, \"reopen_wall_s\": {:.4}, \
             \"scan_wall_s\": {:.4}}}{}\n",
            row.users,
            row.docs,
            row.grants,
            row.shards,
            row.populate_wall_s,
            row.reopen_wall_s,
            row.scan_wall_s,
            if i + 1 == recoveries.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrap_rows_cover_all_ops() {
        let rows = wrap_unwrap_sweep(8, 100);
        let ops: Vec<&str> = rows.iter().map(|r| r.op.as_str()).collect();
        assert_eq!(ops, ["kdf@100", "wrap", "unwrap"]);
        assert!(rows.iter().all(|r| r.mean_ns > 0.0));
    }

    #[test]
    fn grant_cost_is_independent_of_body_size() {
        let rows = grant_revoke_sweep(&[1024, 64 * 1024], 8);
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| r.body_unchanged), "bodies must never change");
        assert!(rows.iter().all(|r| r.grant_us > 0.0 && r.revoke_us > 0.0));
    }

    #[test]
    fn recovery_preserves_directory() {
        let _metrics = crate::metrics_lock();
        let row = recovery_bench(12, 20, 2);
        assert_eq!(row.users, 12);
        assert_eq!(row.docs, 20);
        assert_eq!(row.grants, 20);
    }

    #[test]
    fn json_is_well_formed_enough() {
        let _metrics = crate::metrics_lock();
        let wraps = wrap_unwrap_sweep(4, 50);
        let grants = grant_revoke_sweep(&[1024], 2);
        let recs = vec![recovery_bench(4, 4, 2)];
        let json = render_json(&wraps, &grants, &recs);
        assert!(json.starts_with("{\n"));
        assert!(json.ends_with("}\n"));
        assert!(json.contains("\"grant_rows\""));
        assert!(json.contains("\"body_unchanged\": true"));
    }
}
