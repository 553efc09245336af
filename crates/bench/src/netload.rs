//! Multi-client network load: N concurrent mediated editors hammering
//! one [`HttpServer`](pe_net::HttpServer) over real loopback sockets.
//!
//! Each client is a full [`DocsMediator`] stack — password-derived key,
//! rECB encryption, delta protocol — over its own pooling
//! [`HttpClient`](pe_net::HttpClient), editing its own document. The
//! harness measures aggregate request throughput and per-request latency
//! quantiles straight from the `net.client.*` metrics the transport
//! already records, so the bench numbers and production telemetry can
//! never disagree.
//!
//! Every client is seeded, so a run is reproducible edit-for-edit; only
//! the timing is machine-dependent.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use pe_cloud::docs::DocsServer;
use pe_crypto::CtrDrbg;
use pe_extension::{DocsMediator, MediatorConfig};
use pe_net::{HttpClient, HttpServer, ServerConfig, Service};
use pe_store::{DocStore, FsyncPolicy, ShardedLogStore, StoreConfig};

/// What the per-row `DocsServer` persists documents in.
#[derive(Debug, Clone)]
pub enum RowStore {
    /// In-memory store: measures the pipeline with storage free.
    Mem,
    /// Durable sharded WAL store rooted at `dir` — every acknowledged
    /// save pays real WAL + fsync cost. Each concurrency row opens a
    /// fresh store in its own subdirectory, so rows stay independent.
    Sharded {
        /// Root directory; each row uses a `cNNNN` subdirectory.
        dir: PathBuf,
        /// Fsync policy for every shard.
        fsync: FsyncPolicy,
        /// WAL shards per row store.
        shards: usize,
    },
}

impl RowStore {
    /// Stable per-row label for reports.
    pub fn label(&self) -> String {
        match self {
            RowStore::Mem => "mem".into(),
            RowStore::Sharded { fsync, shards, .. } => {
                format!("sharded-log shards={shards} fsync={}", fsync.label())
            }
        }
    }

    /// A fresh backend server for one concurrency row.
    fn make_server(&self, clients: usize) -> DocsServer {
        match self {
            RowStore::Mem => DocsServer::new(),
            RowStore::Sharded { dir, fsync, shards } => {
                let row_dir = dir.join(format!("c{clients:04}"));
                let _ = std::fs::remove_dir_all(&row_dir);
                std::fs::create_dir_all(&row_dir).expect("create row store dir");
                let store = ShardedLogStore::open(
                    &row_dir,
                    *shards,
                    StoreConfig { fsync: *fsync, ..StoreConfig::default() },
                )
                .expect("open durable bench store");
                DocsServer::with_store(Arc::new(store) as Arc<dyn DocStore>)
            }
        }
    }
}

/// One measured concurrency level.
#[derive(Debug, Clone, PartialEq)]
pub struct NetLoadRow {
    /// Store backing the server for this row (`mem`, `sharded-log …`,
    /// or `external` when driving a foreign server).
    pub store: String,
    /// Number of concurrent mediated editors.
    pub clients: usize,
    /// Successful HTTP requests completed across all clients.
    pub requests: u64,
    /// Wall-clock seconds for the whole fan-out (spawn to last join).
    pub wall_s: f64,
    /// Aggregate requests per second.
    pub rps: f64,
    /// Median request latency, nanoseconds (`net.client.request_ns` p50).
    pub p50_ns: u64,
    /// Tail request latency, nanoseconds (`net.client.request_ns` p99).
    pub p99_ns: u64,
    /// Transient failures that were retried (`net.client.retries`).
    pub retries: u64,
    /// Requests that exhausted retries or hit a fatal error
    /// (`net.client.errors`) — must be zero on a fault-free wire.
    pub errors: u64,
    /// Editing sessions that failed outright — must always be zero.
    pub failed_sessions: u64,
    /// Server-side peak of concurrently open connections
    /// (`net.server.conns_open` gauge peak). Zero in `--connect` mode,
    /// where the server runs in another process.
    pub peak_conns: u64,
    /// Event-loop wakeups the server needed for the whole row
    /// (`net.server.epoll_wakeups`). Zero in `--connect` mode.
    pub loop_wakeups: u64,
}

/// One client's scripted session: create a document, then
/// `edits` rounds of open → append → save.
fn editor_session(
    addr: std::net::SocketAddr,
    client_index: usize,
    edits: usize,
    seed: u64,
) -> Result<(), String> {
    let client = HttpClient::new(addr);
    let mut mediator = DocsMediator::with_rng(
        client,
        MediatorConfig::recb(8),
        CtrDrbg::from_seed(seed ^ (client_index as u64) << 8),
    );
    let doc_id = mediator
        .create_document(&format!("load-pw-{client_index}"))
        .map_err(|e| format!("client {client_index} create: {e}"))?;
    mediator
        .save_full(&doc_id, &format!("client {client_index} baseline"))
        .map_err(|e| format!("client {client_index} seed save: {e}"))?;
    for edit in 0..edits {
        let current = mediator
            .open_document(&doc_id)
            .map_err(|e| format!("client {client_index} open #{edit}: {e}"))?;
        mediator
            .save_full(&doc_id, &format!("{current} +{edit}"))
            .map_err(|e| format!("client {client_index} save #{edit}: {e}"))?;
    }
    Ok(())
}

/// Runs the load at each concurrency level in `client_counts`.
///
/// Each level gets a fresh [`DocsServer`], a fresh [`HttpServer`], and a
/// reset metrics registry, so rows are independent measurements. The
/// worker pool is sized to the machine (not to N) — scaling beyond the
/// worker count measures queueing, which is the interesting regime.
pub fn net_load(client_counts: &[usize], edits: usize, seed: u64) -> Vec<NetLoadRow> {
    net_load_with_store(&RowStore::Mem, client_counts, edits, seed)
}

/// Like [`net_load`] but with a chosen [`RowStore`] — the durable
/// variant is the row set that shows what acknowledged saves cost when
/// every one of them must reach a sharded WAL before the HTTP response.
pub fn net_load_with_store(
    backing: &RowStore,
    client_counts: &[usize],
    edits: usize,
    seed: u64,
) -> Vec<NetLoadRow> {
    client_counts
        .iter()
        .map(|&clients| {
            let backend = Arc::new(backing.make_server(clients));
            let server = HttpServer::bind(
                "127.0.0.1:0",
                Arc::clone(&backend) as Arc<dyn Service>,
                ServerConfig { workers: 8, ..ServerConfig::default() },
            )
            .expect("bind loopback ephemeral port");
            let row = run_row(server.local_addr(), &backing.label(), clients, edits, seed);
            server.shutdown();
            row
        })
        .collect()
}

/// Like [`net_load`] but driving an already-running server at `addr`
/// (e.g. a live `pedit serve`) instead of spawning one per row. The
/// server-side columns (`peak_conns`, `loop_wakeups`) read zero because
/// the server's registry lives in the other process.
pub fn net_load_connect(
    addr: std::net::SocketAddr,
    client_counts: &[usize],
    edits: usize,
    seed: u64,
) -> Vec<NetLoadRow> {
    client_counts.iter().map(|&clients| run_row(addr, "external", clients, edits, seed)).collect()
}

/// One concurrency level against `addr`, measured from a fresh metrics
/// registry.
fn run_row(
    addr: std::net::SocketAddr,
    store: &str,
    clients: usize,
    edits: usize,
    seed: u64,
) -> NetLoadRow {
    pe_observe::global().reset();
    let started = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|i| std::thread::spawn(move || editor_session(addr, i, edits, seed)))
        .collect();
    let failed_sessions = handles
        .into_iter()
        .map(std::thread::JoinHandle::join)
        .filter(|outcome| !matches!(outcome, Ok(Ok(()))))
        .count() as u64;
    let wall_s = started.elapsed().as_secs_f64();

    let snapshot = pe_observe::global().snapshot();
    let requests = snapshot.counter("net.client.requests").unwrap_or(0);
    let (p50_ns, p99_ns) = snapshot
        .histogram("net.client.request_ns")
        .map_or((0, 0), |h| (h.quantile(0.50), h.quantile(0.99)));
    NetLoadRow {
        store: store.to_string(),
        clients,
        requests,
        wall_s,
        rps: if wall_s > 0.0 { requests as f64 / wall_s } else { 0.0 },
        p50_ns,
        p99_ns,
        retries: snapshot.counter("net.client.retries").unwrap_or(0),
        errors: snapshot.counter("net.client.errors").unwrap_or(0),
        failed_sessions,
        peak_conns: snapshot.gauge("net.server.conns_open").map_or(0, |g| g.peak),
        loop_wakeups: snapshot.counter("net.server.epoll_wakeups").unwrap_or(0),
    }
}

/// Renders the rows as the JSON document committed as `BENCH_net.json`.
pub fn render_json(rows: &[NetLoadRow], edits: usize) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"net_load\",\n");
    out.push_str("  \"transport\": \"pe-net loopback TCP\",\n");
    out.push_str("  \"server\": \"event-loop (epoll)\",\n");
    out.push_str("  \"mode\": \"recb\",\n");
    out.push_str("  \"block_size\": 8,\n");
    out.push_str(&format!("  \"edits_per_client\": {edits},\n"));
    out.push_str("  \"rows\": [\n");
    for (i, row) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"store\": \"{}\", \"clients\": {}, \"requests\": {}, \"wall_s\": {:.4}, \
             \"rps\": {:.1}, \"p50_ns\": {}, \"p99_ns\": {}, \"retries\": {}, \"errors\": {}, \
             \"failed_sessions\": {}, \"peak_conns\": {}, \"loop_wakeups\": {}}}{}\n",
            row.store,
            row.clients,
            row.requests,
            row.wall_s,
            row.rps,
            row.p50_ns,
            row.p99_ns,
            row.retries,
            row.errors,
            row.failed_sessions,
            row.peak_conns,
            row.loop_wakeups,
            if i + 1 == rows.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_load_completes_with_zero_unrecovered_errors() {
        let _metrics = crate::metrics_lock();
        let rows = net_load(&[1, 2], 2, 0xbead);
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert_eq!(row.errors, 0, "unrecovered errors on a fault-free wire");
            assert_eq!(row.failed_sessions, 0);
            // create + seed save + 2×(open + save) = 6 requests per client.
            assert_eq!(row.requests, 6 * row.clients as u64);
            assert!(row.rps > 0.0);
            assert!(row.p50_ns > 0 && row.p99_ns >= row.p50_ns);
            assert!(row.peak_conns >= 1, "server-side connection peak not observed");
            assert!(row.loop_wakeups > 0, "event loop never woke?");
        }
    }

    #[test]
    fn durable_backing_persists_every_acknowledged_save() {
        let _metrics = crate::metrics_lock();
        let dir = std::env::temp_dir()
            .join(format!("pe-netload-durable-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let backing = RowStore::Sharded {
            dir: dir.clone(),
            fsync: FsyncPolicy::Always,
            shards: 2,
        };
        let rows = net_load_with_store(&backing, &[2], 1, 0xd0);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].errors, 0);
        assert_eq!(rows[0].failed_sessions, 0);
        assert!(rows[0].store.starts_with("sharded-log"), "store: {}", rows[0].store);
        // The row's store is a real sharded layout that reopens with
        // every client's document intact.
        let row_dir = dir.join("c0002");
        assert!(row_dir.join(pe_store::MANIFEST_NAME).is_file());
        let reopened = ShardedLogStore::open(&row_dir, 2, StoreConfig::default()).unwrap();
        assert_eq!(reopened.shard_count(), 2);
        assert_eq!(reopened.list().len(), 2, "one document per client");
        drop(reopened);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn connect_mode_drives_an_external_server() {
        let _metrics = crate::metrics_lock();
        let backend = Arc::new(DocsServer::new());
        let server = HttpServer::bind(
            "127.0.0.1:0",
            backend as Arc<dyn Service>,
            ServerConfig::default(),
        )
        .unwrap();
        let rows = net_load_connect(server.local_addr(), &[2], 1, 0xc0);
        server.shutdown();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].errors, 0);
        assert_eq!(rows[0].failed_sessions, 0);
        assert_eq!(rows[0].requests, 4 * 2);
    }

    #[test]
    fn json_report_is_well_formed() {
        let _metrics = crate::metrics_lock();
        let rows = net_load(&[1], 1, 0xfeed);
        let json = render_json(&rows, 1);
        assert!(json.contains("\"bench\": \"net_load\""));
        assert!(json.contains("\"clients\": 1"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
