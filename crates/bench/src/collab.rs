//! Live-collaboration load: K concurrent [`LiveSession`] editors on ONE
//! shared encrypted document over real loopback sockets.
//!
//! Every editor is the full client stack — password-derived key, rECB
//! encryption, a pooling `HttpClient` for requests plus a dedicated
//! subscription connection for the long-poll — all sharing a single
//! mediator per editor (the [`SharedChannel`] topology), against a
//! server whose every accepted save lands in a durable sharded WAL
//! before the ack and then fans out to parked `/Doc/changes`
//! subscribers.
//!
//! Two delivery paths are measured against each other, each on a
//! dedicated pure listener so the comparison is symmetric:
//!
//! * **push** — a watcher that stays parked in long-polls; a save
//!   wakes its connection, so delivery latency is wake + decrypt time
//!   (`collab.push_delivery_ns`);
//! * **poll** — a subscriber that never parks (`waitMs=0`) and
//!   instead sleeps a fixed interval between probes, the pre-change-
//!   stream strategy; its latency is dominated by the interval
//!   (`collab.poll_delivery_ns`).
//!
//! Latency runs from just before the *publisher* sends the save that
//! was acknowledged to the *subscriber's* application of its sequence —
//! cross-thread, via a shared seq → `Instant` map — so it includes the
//! whole path: the save, its fan-out, and the subscriber's decrypt. The
//! server fans out before it acks, so only a stamp taken before the
//! send is guaranteed to precede every delivery; a sample that still
//! lands before its stamp is counted as an error, never clamped.
//! At the end of a row every editor must hold byte-for-byte identical
//! plaintext, equal to a fresh reader's decryption of the server copy.

use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use pe_client::{DocsClient, PrivateChannel, SaveOutcome};
use pe_cloud::docs::DocsServer;
use pe_collab::{LiveDocs, LiveService, LiveSession, LiveTransport, SharedChannel};
use pe_crypto::CtrDrbg;
use pe_extension::{DocsMediator, MediatorConfig};
use pe_net::{HttpClient, HttpServer, ServerConfig};
use pe_store::{DocStore, FsyncPolicy, ShardedLogStore, StoreConfig};

/// Password every bench editor shares (one document, one key).
const PASSWORD: &str = "collab-load-pw";

/// One measured fan-out level.
#[derive(Debug, Clone, PartialEq)]
pub struct CollabLoadRow {
    /// Store backing the server for this row.
    pub store: String,
    /// Concurrent live editors (each also a push subscriber).
    pub editors: usize,
    /// Edit rounds each editor performed.
    pub rounds: usize,
    /// Accepted saves across all editors.
    pub saves: u64,
    /// Foreign changes applied across all push subscribers.
    pub deliveries: u64,
    /// Wall-clock seconds, join to last converged drain.
    pub wall_s: f64,
    /// Deliveries per second across the whole fan-out.
    pub fanout_per_s: f64,
    /// Push-path delivery latency, publisher send → subscriber apply.
    pub push_p50_ns: u64,
    /// Push-path tail latency.
    pub push_p99_ns: u64,
    /// The polling subscriber's probe interval.
    pub poll_interval_ms: u64,
    /// Poll-path delivery latency (dominated by the interval).
    pub poll_p50_ns: u64,
    /// Poll-path tail latency.
    pub poll_p99_ns: u64,
    /// Sessions that fell back to a full-content resync.
    pub resyncs: u64,
    /// Editor sessions that failed outright, plus delivery samples that
    /// preceded their publisher's stamp — must be zero.
    pub errors: u64,
    /// Every editor ended byte-for-byte equal to the server copy.
    pub converged: bool,
    /// Final plaintext length in bytes.
    pub doc_bytes: usize,
}

/// What one editor thread brings home.
struct EditorOutcome {
    content: String,
    deliveries: u64,
    resyncs: u64,
}

type LiveChannel = SharedChannel<PrivateChannel<LiveTransport>>;

fn join_session(
    addr: std::net::SocketAddr,
    doc: &str,
    name: &str,
    seed: u64,
    wait: Duration,
) -> Result<LiveSession<LiveChannel, LiveChannel>, String> {
    // The subscription read timeout must outlast the longest park.
    let transport =
        LiveTransport::new(HttpClient::new(addr), wait + Duration::from_secs(30));
    let mut mediator =
        DocsMediator::with_rng(transport, MediatorConfig::recb(8), CtrDrbg::from_seed(seed));
    mediator.register_password(doc, PASSWORD);
    let channel = SharedChannel::new(PrivateChannel(mediator));
    let client = DocsClient::open(channel.clone(), doc)
        .map_err(|e| format!("{name}: open failed: {e:?}"))?;
    LiveSession::start(client, channel, name, None).map_err(|e| format!("{name}: {e}"))
}

/// Records delivery latency for every newly-covered foreign sequence
/// and returns how many samples preceded their stamp (each an error:
/// the stamp is taken before the save is sent, so no delivery can
/// honestly precede it).
///
/// Delivery can outrun the bookkeeping: the server fans out *before* the
/// ack travels back to the publisher, so a fast subscriber may apply a
/// sequence before the publisher has filed its stamp in `publishes`.
/// Unmatched sequences are parked in `pending` with their apply time and
/// resolved on a later call once the stamp shows up.
fn record_deliveries(
    histogram: &'static pe_observe::Histogram,
    publishes: &Mutex<HashMap<u64, Instant>>,
    pending: &mut Vec<(u64, Instant)>,
    prev_since: u64,
    new_since: u64,
) -> u64 {
    let applied_at = Instant::now();
    for seq in prev_since.saturating_add(1)..=new_since {
        pending.push((seq, applied_at));
    }
    let map = publishes.lock().unwrap_or_else(|e| e.into_inner());
    let mut early = 0;
    pending.retain(|(seq, at)| match map.get(seq) {
        Some(stamp) => {
            match at.checked_duration_since(*stamp) {
                Some(latency) => histogram.record(latency.as_nanos() as u64),
                None => early += 1,
            }
            false
        }
        None => true,
    });
    early
}

#[allow(clippy::too_many_arguments)]
fn editor_session(
    addr: std::net::SocketAddr,
    doc: &str,
    index: usize,
    rounds: usize,
    seed: u64,
    publishes: &Mutex<HashMap<u64, Instant>>,
    start: &Barrier,
    edits_done: &Barrier,
) -> Result<EditorOutcome, String> {
    let wait = Duration::from_millis(800);
    let name = format!("editor-{index}");
    let mut session = join_session(addr, doc, &name, seed ^ ((index as u64) << 8), wait)?;
    let mut deliveries = 0u64;

    start.wait();
    for round in 0..rounds {
        {
            let editor = session.client().editor();
            let len = editor.len();
            editor.insert(len, &format!(" e{index}r{round}"));
        }
        // Under a K-writer storm the client's internal retries can run
        // out; pull the stream (rebasing our pending intent via OT) and
        // try again — the local edit survives every failed attempt.
        let mut saved = false;
        for _attempt in 0..25 {
            if session.save() != SaveOutcome::Conflict {
                saved = true;
                break;
            }
            let outcome = session
                .step(Duration::from_millis(20 + (index as u64 % 7) * 10))
                .map_err(|e| format!("{name}: {e}"))?;
            deliveries += outcome.applied as u64;
        }
        if !saved {
            return Err(format!("{name}: save conflicted out in round {round}"));
        }
        // Every send is stamped just before it leaves; the acknowledged
        // one's stamp is filed under the version it landed at.
        let client = session.client();
        if let (Some(version), Some(sent)) = (client.last_ack_version(), client.last_save_sent()) {
            publishes.lock().unwrap_or_else(|e| e.into_inner()).insert(version, sent);
        }
        let outcome = session.step(wait).map_err(|e| format!("{name}: {e}"))?;
        deliveries += outcome.applied as u64;
    }

    // Everyone stops typing, then drains until globally quiet: no new
    // sequences can appear, so two consecutive empty polls mean done.
    edits_done.wait();
    let mut quiet = 0;
    for _ in 0..40 {
        let outcome =
            session.step(Duration::from_millis(300)).map_err(|e| format!("{name}: {e}"))?;
        deliveries += outcome.applied as u64;
        if outcome.applied == 0 && !outcome.resynced {
            quiet += 1;
            if quiet >= 2 {
                break;
            }
        } else {
            quiet = 0;
        }
    }
    Ok(EditorOutcome {
        content: session.content().to_string(),
        deliveries,
        resyncs: session.resyncs() as u64,
    })
}

/// The push listener: stays parked in long-polls, woken by every
/// accepted save. Runs until `stop` flips; returns its deliveries and
/// the samples that preceded their stamp.
fn watcher_session(
    addr: std::net::SocketAddr,
    doc: &str,
    seed: u64,
    publishes: &Mutex<HashMap<u64, Instant>>,
    start: &Barrier,
    stop: &AtomicBool,
) -> Result<(u64, u64), String> {
    let wait = Duration::from_millis(1500);
    let joined = join_session(addr, doc, "watcher", seed, wait);
    // The editors start typing only once both listeners are subscribed,
    // so every accepted save is a delivery the listeners can time.
    start.wait();
    let mut session = joined?;
    let mut pending = Vec::new();
    let push_latency = pe_observe::static_histogram!("collab.push_delivery_ns");
    let (mut deliveries, mut early) = (0u64, 0u64);
    while !stop.load(Ordering::SeqCst) {
        let before = session.since();
        let outcome = session.step(wait).map_err(|e| format!("watcher: {e}"))?;
        deliveries += outcome.applied as u64;
        early += record_deliveries(push_latency, publishes, &mut pending, before, session.since());
    }
    Ok((deliveries, early))
}

/// The pre-change-stream baseline: probe with `waitMs=0` every
/// `interval`, never parking. Runs until `stop` flips; returns as
/// [`watcher_session`] does.
fn poller_session(
    addr: std::net::SocketAddr,
    doc: &str,
    seed: u64,
    interval: Duration,
    publishes: &Mutex<HashMap<u64, Instant>>,
    start: &Barrier,
    stop: &AtomicBool,
) -> Result<(u64, u64), String> {
    let joined = join_session(addr, doc, "poller", seed, interval);
    start.wait();
    let mut session = joined?;
    let mut pending = Vec::new();
    let poll_latency = pe_observe::static_histogram!("collab.poll_delivery_ns");
    let (mut deliveries, mut early) = (0u64, 0u64);
    while !stop.load(Ordering::SeqCst) {
        let before = session.since();
        let outcome = session.step(Duration::ZERO).map_err(|e| format!("poller: {e}"))?;
        deliveries += outcome.applied as u64;
        early += record_deliveries(poll_latency, publishes, &mut pending, before, session.since());
        std::thread::sleep(interval);
    }
    Ok((deliveries, early))
}

/// Runs the fan-out at each level in `editor_counts`, each row on a
/// fresh durable sharded store under `dir` and a fresh metrics registry.
pub fn collab_load(
    dir: &Path,
    fsync: FsyncPolicy,
    shards: usize,
    editor_counts: &[usize],
    rounds: usize,
    poll_interval_ms: u64,
    seed: u64,
) -> Vec<CollabLoadRow> {
    editor_counts
        .iter()
        .map(|&editors| {
            run_row(dir, fsync, shards, editors, rounds, poll_interval_ms, seed)
        })
        .collect()
}

fn run_row(
    dir: &Path,
    fsync: FsyncPolicy,
    shards: usize,
    editors: usize,
    rounds: usize,
    poll_interval_ms: u64,
    seed: u64,
) -> CollabLoadRow {
    pe_observe::global().reset();
    let row_dir = dir.join(format!("k{editors:04}"));
    let _ = std::fs::remove_dir_all(&row_dir);
    std::fs::create_dir_all(&row_dir).expect("create row store dir");
    let store = ShardedLogStore::open(
        &row_dir,
        shards,
        StoreConfig { fsync, ..StoreConfig::default() },
    )
    .expect("open durable bench store");
    let backend =
        Arc::new(DocsServer::with_store(Arc::new(store) as Arc<dyn DocStore>));
    let live = LiveDocs::new(Arc::clone(&backend));
    let server = HttpServer::bind(
        "127.0.0.1:0",
        Arc::new(LiveService(Arc::clone(&live))),
        ServerConfig { workers: 8, ..ServerConfig::default() },
    )
    .expect("bind loopback ephemeral port");
    let addr = server.local_addr();

    // One shared private document, created over the wire.
    let mut creator = DocsMediator::with_rng(
        HttpClient::new(addr),
        MediatorConfig::recb(8),
        CtrDrbg::from_seed(seed),
    );
    let doc = creator.create_document(PASSWORD).expect("create shared document");
    creator.save_full(&doc, "collab baseline").expect("seed the shared document");

    let publishes = Arc::new(Mutex::new(HashMap::new()));
    // The editors plus the watcher and the poller.
    let start = Arc::new(Barrier::new(editors + 2));
    let edits_done = Arc::new(Barrier::new(editors));
    let stop_listeners = Arc::new(AtomicBool::new(false));

    let watcher = {
        let doc = doc.clone();
        let publishes = Arc::clone(&publishes);
        let start = Arc::clone(&start);
        let stop = Arc::clone(&stop_listeners);
        std::thread::spawn(move || {
            watcher_session(addr, &doc, seed ^ 0x5afe, &publishes, &start, &stop)
        })
    };
    let poller = {
        let doc = doc.clone();
        let publishes = Arc::clone(&publishes);
        let start = Arc::clone(&start);
        let stop = Arc::clone(&stop_listeners);
        let interval = Duration::from_millis(poll_interval_ms);
        std::thread::spawn(move || {
            poller_session(addr, &doc, seed ^ 0x9011, interval, &publishes, &start, &stop)
        })
    };

    let started = Instant::now();
    let handles: Vec<_> = (0..editors)
        .map(|index| {
            let doc = doc.clone();
            let publishes = Arc::clone(&publishes);
            let start = Arc::clone(&start);
            let edits_done = Arc::clone(&edits_done);
            std::thread::spawn(move || {
                editor_session(
                    addr, &doc, index, rounds, seed, &publishes, &start, &edits_done,
                )
            })
        })
        .collect();
    let outcomes: Vec<Result<EditorOutcome, String>> = handles
        .into_iter()
        .map(|h| h.join().unwrap_or_else(|_| Err("editor thread panicked".into())))
        .collect();
    let wall_s = started.elapsed().as_secs_f64();
    stop_listeners.store(true, Ordering::SeqCst);
    let mut deliveries = 0u64;
    let mut early_samples = 0u64;
    for (listener, joined) in [("watcher", watcher.join()), ("poller", poller.join())] {
        match joined {
            Ok(Ok((n, early))) => {
                deliveries += n;
                if early > 0 {
                    eprintln!("{listener}: {early} deliveries preceded their publisher's stamp");
                }
                early_samples += early;
            }
            Ok(Err(message)) => eprintln!("{listener} failed: {message}"),
            Err(_) => eprintln!("{listener} thread panicked"),
        }
    }
    let mut errors = 0u64;
    let mut resyncs = 0u64;
    let mut contents: Vec<String> = Vec::new();
    for outcome in outcomes {
        match outcome {
            Ok(o) => {
                deliveries += o.deliveries;
                resyncs += o.resyncs;
                contents.push(o.content);
            }
            Err(message) => {
                eprintln!("editor failed: {message}");
                errors += 1;
            }
        }
    }

    // Byte-for-byte convergence: every editor equal, and equal to what a
    // fresh key holder decrypts from the durable server copy.
    let mut reader = DocsMediator::with_rng(
        HttpClient::new(addr),
        MediatorConfig::recb(8),
        CtrDrbg::from_seed(seed ^ 0xFEED),
    );
    reader.register_password(&doc, PASSWORD);
    let server_copy = reader.open_document(&doc).unwrap_or_default();
    let converged =
        errors == 0 && !contents.is_empty() && contents.iter().all(|c| *c == server_copy);
    if !converged && errors == 0 {
        // Name the culprits: which editors drifted, and by how much.
        eprintln!("server copy: {} bytes", server_copy.len());
        for (i, content) in contents.iter().enumerate() {
            if *content != server_copy {
                eprintln!("editor {i} diverged: {} bytes", content.len());
            }
        }
    }
    server.shutdown();

    let snapshot = pe_observe::global().snapshot();
    let (push_p50_ns, push_p99_ns) = snapshot
        .histogram("collab.push_delivery_ns")
        .map_or((0, 0), |h| (h.quantile(0.50), h.quantile(0.99)));
    let (poll_p50_ns, poll_p99_ns) = snapshot
        .histogram("collab.poll_delivery_ns")
        .map_or((0, 0), |h| (h.quantile(0.50), h.quantile(0.99)));
    CollabLoadRow {
        store: format!("sharded-log shards={shards} fsync={}", fsync.label()),
        editors,
        rounds,
        saves: snapshot.counter("collab.published").unwrap_or(0),
        deliveries,
        wall_s,
        fanout_per_s: if wall_s > 0.0 { deliveries as f64 / wall_s } else { 0.0 },
        push_p50_ns,
        push_p99_ns,
        poll_interval_ms,
        poll_p50_ns,
        poll_p99_ns,
        resyncs,
        errors: errors + early_samples,
        converged,
        doc_bytes: server_copy.len(),
    }
}

/// Renders the rows as the JSON document committed as `BENCH_collab.json`.
pub fn render_json(rows: &[CollabLoadRow], rounds: usize, poll_interval_ms: u64) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"collab_load\",\n");
    out.push_str("  \"transport\": \"pe-net loopback TCP, parked long-poll push\",\n");
    out.push_str("  \"mode\": \"recb\",\n");
    out.push_str("  \"block_size\": 8,\n");
    out.push_str(&format!("  \"rounds_per_editor\": {rounds},\n"));
    out.push_str(&format!("  \"poll_interval_ms\": {poll_interval_ms},\n"));
    out.push_str("  \"rows\": [\n");
    for (i, row) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"store\": \"{}\", \"editors\": {}, \"saves\": {}, \"deliveries\": {}, \
             \"wall_s\": {:.4}, \"fanout_per_s\": {:.1}, \"push_p50_ns\": {}, \
             \"push_p99_ns\": {}, \"poll_interval_ms\": {}, \"poll_p50_ns\": {}, \
             \"poll_p99_ns\": {}, \"resyncs\": {}, \"errors\": {}, \"converged\": {}, \
             \"doc_bytes\": {}}}{}\n",
            row.store,
            row.editors,
            row.saves,
            row.deliveries,
            row.wall_s,
            row.fanout_per_s,
            row.push_p50_ns,
            row.push_p99_ns,
            row.poll_interval_ms,
            row.poll_p50_ns,
            row.poll_p99_ns,
            row.resyncs,
            row.errors,
            row.converged,
            row.doc_bytes,
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
    fn tiny_fanout_converges_with_zero_errors() {
        let _metrics = crate::metrics_lock();
        let dir = std::env::temp_dir()
            .join(format!("pe-collabload-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let rows = collab_load(&dir, FsyncPolicy::Never, 2, &[2], 2, 50, 0xc011);
        assert_eq!(rows.len(), 1);
        let row = &rows[0];
        assert_eq!(row.errors, 0, "editor sessions failed");
        assert!(row.converged, "editors diverged");
        assert_eq!(row.saves, 2 * 2 + 1, "seed save + K*rounds accepted saves");
        assert!(row.deliveries > 0, "no fan-out deliveries observed");
        assert!(row.push_p99_ns > 0, "push latency histogram is empty");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn json_report_is_well_formed() {
        let row = CollabLoadRow {
            store: "sharded-log shards=4 fsync=always".into(),
            editors: 2,
            rounds: 3,
            saves: 7,
            deliveries: 6,
            wall_s: 0.5,
            fanout_per_s: 12.0,
            push_p50_ns: 1_000_000,
            push_p99_ns: 5_000_000,
            poll_interval_ms: 250,
            poll_p50_ns: 120_000_000,
            poll_p99_ns: 260_000_000,
            resyncs: 0,
            errors: 0,
            converged: true,
            doc_bytes: 64,
        };
        let json = render_json(&[row], 3, 250);
        assert!(json.contains("\"bench\": \"collab_load\""));
        assert!(json.contains("\"converged\": true"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
