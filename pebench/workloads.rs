//! The four workloads, their load generator, and their output oracles.
//!
//! Every workload sets its stack up several times (reporting the median
//! as `setup_s`), then measures in rounds. A round is an open-loop
//! segment — Poisson arrivals at a frozen rate, latency timed from each
//! op's due time — followed by a closed-loop capacity segment on the
//! same threads, so that a slow phase of the host falls on both. Latency
//! percentiles are taken over the samples of all rounds together, and
//! capacity over the busy time of all rounds together; both, and set-up
//! time, are reported at the reference host's speed (see `host.rs`),
//! which is probed before the set-ups and between rounds. Load comes from
//! at most two generator threads (the reference host has two CPUs); each
//! has one request in flight and owns a disjoint set of documents.
//!
//! The server keeps every revision of every document in memory, and the
//! change bus keeps each full-save body, so memory grows with every save.
//! A capacity segment therefore stops after as many ops as its round's
//! open-loop segment made (or at its deadline), which also makes the
//! number of saves in a run, and so `rss_mb`, depend on the seed alone.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use pe_client::workload::{TypingSession, WorkloadGen};
use pe_client::{DocsClient, PrivateChannel, SaveOutcome};
use pe_collab::{LiveSession, LiveTransport, SharedChannel};
use pe_crypto::CtrDrbg;
use pe_extension::{DocsMediator, MediatorConfig};
use pe_net::HttpClient;
use pe_store::DocStore;

use crate::host::{HostSpeed, IDLE_CPU_LIMIT, REFERENCE_PROBE_MS};
use crate::stack::{self, Chan, Mediator, Server};
use crate::stats::{self, mix, poisson_schedule, quantile, Arrival};
use crate::trace::{self, attribute, Breakdown, Span, TracedChannel, TracedTransport, Tracer};

/// One workload's fixed inputs. Rates were calibrated once, on the
/// reference host, to a fraction of the workload's measured capacity,
/// and are frozen here: they are never derived at run time.
#[derive(Debug)]
pub struct Spec {
    pub name: &'static str,
    /// Documents the generator addresses (`live`: one per round).
    pub docs: usize,
    pub doc_bytes: usize,
    /// Open-loop arrival rate, ops/s.
    pub rate: f64,
}

pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "typing",
        docs: 64,
        doc_bytes: 32 * 1024,
        rate: 60.0,
    },
    Spec {
        name: "open",
        docs: 16,
        doc_bytes: 64 * 1024,
        rate: 45.0,
    },
    Spec {
        name: "full_save",
        docs: 16,
        doc_bytes: 64 * 1024,
        rate: 15.0,
    },
    Spec {
        name: "live",
        docs: 1,
        doc_bytes: 32 * 1024,
        rate: 30.0,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|s| s.name == name)
}

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;
/// Measurement rounds per run.
pub const ROUNDS: usize = 10;
/// Share of each round spent open loop; the rest measures capacity.
pub const OPEN_SHARE: f64 = 0.7;
/// Keystrokes per typing op.
const KEYSTROKES: usize = 20;
/// Long-poll wait of the live watcher.
const WATCH_WAIT: Duration = Duration::from_millis(1000);
/// Generator threads: the reference host's CPU count.
const GEN_THREADS: usize = 2;

/// How one run is parameterised.
#[derive(Debug, Clone)]
pub struct Config {
    pub spec: &'static Spec,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Tiny documents, a quarter of the rate, one set-up and one round:
    /// exercises the whole harness (oracles included) in about a second.
    pub smoke: bool,
    /// Directory under which store directories are created.
    pub scratch: PathBuf,
}

impl Config {
    fn docs(&self) -> usize {
        if self.smoke {
            self.spec.docs.min(4)
        } else {
            self.spec.docs
        }
    }

    fn doc_bytes(&self) -> usize {
        if self.smoke {
            2048
        } else {
            self.spec.doc_bytes
        }
    }

    fn rate(&self) -> f64 {
        if self.smoke {
            self.spec.rate / 4.0
        } else {
            self.spec.rate
        }
    }

    fn setups(&self) -> usize {
        if self.smoke {
            1
        } else {
            SETUPS
        }
    }

    fn rounds(&self) -> usize {
        if self.smoke {
            1
        } else {
            ROUNDS
        }
    }

    /// Open-loop time of one round.
    fn segment(&self) -> Duration {
        Duration::from_secs_f64(self.seconds * OPEN_SHARE / self.rounds() as f64)
    }

    /// Longest capacity segment of one round.
    fn capacity_segment(&self) -> Duration {
        Duration::from_secs_f64(self.seconds * (1.0 - OPEN_SHARE) / self.rounds() as f64)
    }

    /// Round `r`'s arrivals, due times relative to the round's start.
    fn schedule(&self, r: usize) -> Vec<Arrival> {
        let name = format!("{}-round-{r}", self.spec.name);
        poisson_schedule(self.seed, &name, self.rate(), self.segment(), self.docs())
    }

    fn threads(&self) -> usize {
        GEN_THREADS.min(stack::nproc()).min(self.docs()).max(1)
    }

    fn password(&self) -> String {
        format!("pebench-{}", self.seed)
    }

    /// A per-run plaintext marker typed into every document; the raw
    /// store must never contain it.
    fn sentinel(&self) -> String {
        format!("sentinel{:016x}", mix(self.seed, "sentinel"))
    }

    fn initial_text(&self, doc: usize) -> String {
        let mut gen = WorkloadGen::new(mix(self.seed, &format!("{}-doc-{doc}", self.spec.name)));
        let mut text = format!("{}. ", self.sentinel());
        text.push_str(&gen.document(self.doc_bytes().saturating_sub(text.len())));
        text
    }

    fn store_dir(&self, setup: usize) -> PathBuf {
        self.scratch
            .join(format!("{}-{}-{setup}", self.spec.name, std::process::id()))
    }
}

/// A measured value with its unit and the number of samples behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

fn metric(name: &str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
        samples,
    }
}

/// Everything one workload run reports.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    /// Self time per span name on the measured op's path (trace runs).
    pub spans: Vec<Metric>,
    /// Secondary measurements and every failure, one line each.
    pub notes: Vec<String>,
    /// The spans, for the JSONL dump.
    pub tracer: Option<Arc<Tracer>>,
}

impl Report {
    /// Records `count` failures of one kind.
    fn fail(&mut self, count: u64, note: String) {
        if count > 0 {
            self.failed += count;
            self.notes.push(format!("FAIL ×{count} {note}"));
        }
    }
}

/// What the generator measured for one open-loop op.
#[derive(Debug, Clone, Copy)]
pub struct Record {
    pub due: Instant,
    pub start: Instant,
    pub end: Instant,
    /// The thread was idle at the due time (so `start - due` is the
    /// generator's own lateness, not queueing behind a previous op).
    pub idle: bool,
    pub ok: bool,
    /// Trace op id; 0 when the op was not traced.
    pub op: u64,
}

/// What an op body reports back to the generator.
pub struct Done {
    pub ok: bool,
    pub end: Instant,
    pub op: u64,
}

/// Runs `arrivals` (in due order) open loop from `t0`: each op is sent at
/// its due time, or as soon as the previous op returns if that is later,
/// and its latency is measured from the due time — so a stall is charged
/// to every op queued behind it.
pub fn open_loop(
    t0: Instant,
    arrivals: &[Arrival],
    mut op: impl FnMut(&Arrival, Instant, Instant) -> Done,
) -> Vec<Record> {
    let mut records = Vec::with_capacity(arrivals.len());
    for arrival in arrivals {
        let due = t0 + arrival.due;
        let now = Instant::now();
        let idle = now < due;
        if idle {
            std::thread::sleep(due - now);
        }
        let start = Instant::now();
        let done = op(arrival, due, start);
        records.push(Record {
            due,
            start,
            end: done.end,
            idle,
            ok: done.ok,
            op: done.op,
        });
    }
    records
}

/// What one thread's capacity segment did.
#[derive(Debug, Default, Clone, Copy)]
struct Closed {
    ok: u64,
    failed: u64,
    /// The thread's busy time, seconds.
    busy: f64,
}

/// Issues ops back to back until `deadline` or until `budget` ops have
/// been issued.
fn closed_loop(deadline: Instant, budget: usize, mut op: impl FnMut(usize) -> bool) -> Closed {
    let start = Instant::now();
    let mut done = Closed::default();
    for k in 0..budget {
        if Instant::now() >= deadline {
            break;
        }
        if op(k) {
            done.ok += 1;
        } else {
            done.failed += 1;
        }
    }
    done.busy = start.elapsed().as_secs_f64();
    done
}

/// Runs `f` once per state, each on its own scoped thread.
fn on_threads<S: Send, R: Send>(states: &mut [S], f: impl Fn(usize, &mut S) -> R + Sync) -> Vec<R> {
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = states
            .iter_mut()
            .enumerate()
            .map(|(i, s)| scope.spawn(move || f(i, s)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    })
}

/// Wraps one op body in its trace root, when traced: the generator's
/// wait (due → start) and the client-thread work become spans. The body
/// gets the op's trace id (0 when untraced).
fn traced_op(
    tracer: &Tracer,
    traced: bool,
    due: Instant,
    start: Instant,
    body: impl FnOnce(u64) -> (bool, Instant),
) -> Done {
    if !traced {
        let (ok, end) = body(0);
        return Done { ok, end, op: 0 };
    }
    let op = tracer.next_id();
    tracer.record("gen.wait", 0, op, tracer.at(due), tracer.at(start));
    let (ok, end) = {
        let _root = tracer.root("client.op", op, start);
        body(op)
    };
    Done { ok, end, op }
}

/// Program counters summed over the open-loop segments.
#[derive(Debug, Default, Clone, Copy)]
struct Counters {
    fsyncs: u64,
    sealed: u64,
    opened: u64,
    /// Body bytes through the client transports.
    wire: u64,
}

impl Counters {
    fn now(tracer: &Tracer) -> Counters {
        let snap = pe_observe::global().snapshot();
        Counters {
            fsyncs: snap.counter("store.fsyncs").unwrap_or(0),
            sealed: snap.counter_family("core.blocks_sealed"),
            opened: snap.counter_family("core.blocks_opened"),
            wire: tracer.wire_bytes(),
        }
    }

    fn add_since(&mut self, before: Counters, tracer: &Tracer) {
        let now = Counters::now(tracer);
        self.fsyncs += now.fsyncs - before.fsyncs;
        self.sealed += now.sealed - before.sealed;
        self.opened += now.opened - before.opened;
        self.wire += now.wire - before.wire;
    }
}

/// One round, as measured.
struct Round {
    /// The open-loop segment's ops (for `live`, the writer's saves).
    records: Vec<Record>,
    /// When the open-loop segment was due to end.
    open_end: Instant,
    /// End-to-end latencies of the round's successful ops, ms.
    latencies: Vec<f64>,
    /// The capacity segment, per generator thread.
    capacity: Vec<Closed>,
}

/// The measured rounds of the document workloads. `body(state, doc)`
/// performs one op on `doc` and reports (ok, end).
fn measure_docs<S: Send>(
    cfg: &Config,
    tracer: &Tracer,
    states: &mut [S],
    counters: &mut Counters,
    host: &mut HostSpeed,
    body: impl Fn(&mut S, usize) -> (bool, Instant) + Sync,
) -> Vec<Round> {
    let threads = states.len();
    (0..cfg.rounds())
        .map(|r| {
            probe_host(cfg, host);
            let slice = cfg.schedule(r);
            let before = Counters::now(tracer);
            let t0 = Instant::now() + Duration::from_millis(20);
            let per_thread: Vec<Vec<Record>> = on_threads(states, |t, state| {
                let mine: Vec<Arrival> = slice
                    .iter()
                    .filter(|a| a.doc % threads == t)
                    .copied()
                    .collect();
                let mut n = 0u64;
                open_loop(t0, &mine, |arrival, due, start| {
                    n += 1;
                    traced_op(tracer, cfg.trace && n.is_multiple_of(2), due, start, |_| {
                        body(state, arrival.doc)
                    })
                })
            });
            counters.add_since(before, tracer);

            // Equal budgets, so no thread works alone at the end.
            let budget = slice.len().div_ceil(threads);
            let deadline = Instant::now() + cfg.capacity_segment();
            let closed = on_threads(states, |t, state| {
                let mine: Vec<usize> = (t..cfg.docs()).step_by(threads).collect();
                closed_loop(deadline, budget, |k| body(state, mine[k % mine.len()]).0)
            });
            let records: Vec<Record> = per_thread.into_iter().flatten().collect();
            Round {
                latencies: records
                    .iter()
                    .filter(|r| r.ok)
                    .map(|r| ms(r.end - r.due))
                    .collect(),
                records,
                open_end: t0 + cfg.segment(),
                capacity: closed,
            }
        })
        .collect()
}

/// Times the host probe, except in a smoke run, which measures nothing.
fn probe_host(cfg: &Config, host: &mut HostSpeed) {
    if !cfg.smoke {
        host.probe();
    }
}

/// Sets the stack up `cfg.setups()` times, keeping the last one.
#[allow(clippy::type_complexity)]
fn set_up<F>(
    cfg: &Config,
    mut build: impl FnMut(&Server, &Arc<Tracer>) -> Result<F, String>,
) -> Result<(Server, Arc<Tracer>, F, Vec<f64>), String> {
    let mut times = Vec::new();
    for i in 0..cfg.setups() {
        let started = Instant::now();
        let tracer = Tracer::new();
        let server = Server::start(&cfg.store_dir(i), cfg.trace.then_some(&tracer))?;
        let fixture = build(&server, &tracer)?;
        times.push(started.elapsed().as_secs_f64());
        if i + 1 == cfg.setups() {
            return Ok((server, tracer, fixture, times));
        }
        drop(fixture);
        server.stop();
    }
    unreachable!("at least one set-up runs")
}

/// Runs one workload end to end: set-ups, rounds, oracles, metrics.
pub fn run(cfg: &Config) -> Result<Report, String> {
    std::fs::create_dir_all(&cfg.scratch)
        .map_err(|e| format!("create {}: {e}", cfg.scratch.display()))?;
    match cfg.spec.name {
        "typing" => typing(cfg),
        "open" => open(cfg),
        "full_save" => full_save(cfg),
        "live" => live(cfg),
        other => Err(format!("unknown workload {other}")),
    }
}

fn http(server: &Server) -> Arc<HttpClient> {
    Arc::new(HttpClient::new(server.addr))
}

/// Set-ups, rounds, oracles and metrics of a document workload. Each
/// generator thread owns one `S`; `body(tracer, state, doc)` performs one
/// op on `doc` and reports (ok, end); `texts(state)` lists the thread's
/// documents with the text each must now hold.
fn run_docs<S: Send>(
    cfg: &Config,
    build: impl FnMut(&Server, &Arc<Tracer>) -> Result<Vec<S>, String>,
    body: impl Fn(&Arc<Tracer>, &mut S, usize) -> (bool, Instant) + Sync,
    texts: impl Fn(&S) -> Vec<(String, String)>,
) -> Result<Report, String> {
    let mut host = HostSpeed::default();
    probe_host(cfg, &mut host);
    let (server, tracer, mut states, setup) = set_up(cfg, build)?;
    let mut counters = Counters::default();
    let rounds = measure_docs(
        cfg,
        &tracer,
        &mut states,
        &mut counters,
        &mut host,
        |state, doc| body(&tracer, state, doc),
    );
    probe_host(cfg, &mut host);
    let rss = resident_mib();
    let expected: Vec<(String, String)> = states.iter().flat_map(texts).collect();
    drop(states);
    let mut report = Report::default();
    check_outputs(cfg, &mut report, server, &expected);
    score(&mut report, &setup, &rounds, counters, &host, rss)?;

    if cfg.trace {
        let spans = tracer.spans();
        let by_op = trace::by_op(&spans);
        let mut traced = Vec::new();
        let mut untraced = Vec::new();
        for r in rounds
            .iter()
            .flat_map(|round| &round.records)
            .filter(|r| r.ok)
        {
            let e2e = (r.end - r.due).as_nanos() as f64;
            let Some(path) = by_op.get(&r.op) else {
                untraced.push(e2e);
                continue;
            };
            let mut b = Breakdown::default();
            attribute(path, tracer.at(r.due), tracer.at(r.end), &mut b);
            traced.push((e2e, b));
        }
        layer_metrics(&mut report, &traced, &untraced, counters, &rounds);
        report.tracer = Some(tracer);
    }
    Ok(report)
}

/// One typing document: its session and its typist.
struct Typed {
    id: String,
    client: DocsClient<Chan>,
    typist: TypingSession,
}

fn typing(cfg: &Config) -> Result<Report, String> {
    let threads = cfg.threads();
    let build = |server: &Server, tracer: &Arc<Tracer>| {
        let mut states: Vec<Vec<Typed>> = (0..threads).map(|_| Vec::new()).collect();
        let clients: Vec<Arc<HttpClient>> = (0..threads).map(|_| http(server)).collect();
        for doc in 0..cfg.docs() {
            let t = doc % threads;
            let seed = mix(cfg.seed, &format!("typing-m{doc}"));
            let mut mediator = stack::mediator(&clients[t], tracer, seed);
            let id = mediator
                .create_document(&cfg.password())
                .map_err(|e| format!("create: {e}"))?;
            let mut client = DocsClient::open(stack::channel(mediator, tracer), &id)
                .map_err(|r| format!("open {id}: {}", r.status))?;
            // The session's first save is a full save; make it here so
            // every measured save is a delta.
            client.editor().insert(0, &cfg.initial_text(doc));
            if client.save() != SaveOutcome::Saved {
                return Err(format!("initial save of {id} failed"));
            }
            let typist = TypingSession::new(mix(cfg.seed, &format!("typing-k{doc}")));
            states[t].push(Typed { id, client, typist });
        }
        Ok(states)
    };
    let body = |_: &Arc<Tracer>, docs: &mut Vec<Typed>, doc: usize| {
        let d = &mut docs[doc / threads];
        d.typist.type_burst(d.client.editor(), KEYSTROKES);
        let outcome = d.client.save();
        (outcome == SaveOutcome::Saved, Instant::now())
    };
    let texts = |docs: &Vec<Typed>| {
        docs.iter()
            .map(|d| (d.id.clone(), d.client.content().to_string()))
            .collect()
    };
    run_docs(cfg, build, body, texts)
}

/// One generator thread of the `open` workload. The channel is taken
/// for the duration of each open (`DocsClient::open` consumes it).
struct Opener {
    chan: Option<Chan>,
    http: Arc<HttpClient>,
    seed: u64,
    docs: Vec<(String, String)>,
}

impl Opener {
    /// A replacement channel after a failed open dropped the old one.
    fn rebuild(&self, cfg: &Config, tracer: &Arc<Tracer>) -> Chan {
        let mut mediator = stack::mediator(&self.http, tracer, self.seed ^ 0x0e0e);
        for (id, _) in &self.docs {
            mediator.register_password(id, &cfg.password());
        }
        stack::channel(mediator, tracer)
    }
}

fn open(cfg: &Config) -> Result<Report, String> {
    let threads = cfg.threads();
    let build = |server: &Server, tracer: &Arc<Tracer>| {
        let mut states = Vec::new();
        for t in 0..threads {
            let http = http(server);
            let seed = mix(cfg.seed, &format!("open-m{t}"));
            let mut mediator = stack::mediator(&http, tracer, seed);
            let mut docs = Vec::new();
            for doc in (t..cfg.docs()).step_by(threads) {
                let id = mediator
                    .create_document(&cfg.password())
                    .map_err(|e| format!("create: {e}"))?;
                let text = cfg.initial_text(doc);
                // One full save: the document's history depth stays 1.
                mediator
                    .save_full(&id, &text)
                    .map_err(|e| format!("save {id}: {e}"))?;
                docs.push((id, text));
            }
            let mut chan = Some(stack::channel(mediator, tracer));
            // Warm the key cache: the first open of a document derives
            // its key from the password.
            for (id, _) in &docs {
                let client = DocsClient::open(chan.take().expect("channel present"), id)
                    .map_err(|r| format!("open {id}: {}", r.status))?;
                chan = Some(client.into_channel());
            }
            states.push(Opener {
                chan,
                http,
                seed,
                docs,
            });
        }
        Ok(states)
    };
    let body = |tracer: &Arc<Tracer>, opener: &mut Opener, doc: usize| {
        let chan = match opener.chan.take() {
            Some(chan) => chan,
            None => opener.rebuild(cfg, tracer),
        };
        let (id, expected) = &opener.docs[doc / threads];
        match DocsClient::open(chan, id) {
            Ok(client) => {
                let end = Instant::now();
                let ok = client.content() == expected;
                opener.chan = Some(client.into_channel());
                (ok, end)
            }
            Err(_) => (false, Instant::now()),
        }
    };
    run_docs(cfg, build, body, |opener: &Opener| opener.docs.clone())
}

/// One generator thread of `full_save`: its mediator and documents.
struct Saver {
    mediator: Mediator,
    gen: WorkloadGen,
    docs: Vec<(String, String)>,
}

fn full_save(cfg: &Config) -> Result<Report, String> {
    let threads = cfg.threads();
    let build = |server: &Server, tracer: &Arc<Tracer>| {
        let mut states = Vec::new();
        for t in 0..threads {
            let seed = mix(cfg.seed, &format!("full-m{t}"));
            let mut mediator = stack::mediator(&http(server), tracer, seed);
            let mut docs = Vec::new();
            for doc in (t..cfg.docs()).step_by(threads) {
                let id = mediator
                    .create_document(&cfg.password())
                    .map_err(|e| format!("create: {e}"))?;
                let text = cfg.initial_text(doc);
                mediator
                    .save_full(&id, &text)
                    .map_err(|e| format!("save {id}: {e}"))?;
                docs.push((id, text));
            }
            let gen = WorkloadGen::new(mix(cfg.seed, &format!("full-edits{t}")));
            states.push(Saver {
                mediator,
                gen,
                docs,
            });
        }
        Ok(states)
    };
    let body = |tracer: &Arc<Tracer>, saver: &mut Saver, doc: usize| {
        let (id, text) = &mut saver.docs[doc / threads];
        let (start, end) = saver.gen.sentence_range(text);
        let sentence = saver.gen.sentence();
        text.replace_range(start..end, &sentence);
        let saved = {
            let _span = tracer.child("extension.exchange");
            saver.mediator.save_full(id, text)
        };
        let end = Instant::now();
        (matches!(saved, Ok(m) if m.response.is_success()), end)
    };
    run_docs(cfg, build, body, |saver: &Saver| saver.docs.clone())
}

/// The output checks every workload ends with: a reader with a fresh key
/// reopens every document and must read the expected text, and the raw
/// store must not contain the plaintext sentinel. Stops the server.
fn check_outputs(cfg: &Config, report: &mut Report, server: Server, expected: &[(String, String)]) {
    let mut reader = stack::fresh_reader(server.addr, mix(cfg.seed, "reader"));
    for (id, text) in expected {
        reader.register_password(id, &cfg.password());
        match reader.open_document(id) {
            Ok(got) if got == *text => {}
            Ok(got) => report.fail(
                1,
                format!(
                    "{id}: fresh-key reopen differs ({} bytes, expected {})",
                    got.len(),
                    text.len()
                ),
            ),
            Err(e) => report.fail(1, format!("{id}: fresh-key reopen failed: {e}")),
        }
    }
    let sentinel = cfg.sentinel();
    for id in server.store.list() {
        let Some(doc) = server.store.get(&id) else {
            continue;
        };
        if std::iter::once(&doc.content)
            .chain(&doc.revisions)
            .any(|b| contains(b, sentinel.as_bytes()))
        {
            report.fail(1, format!("{id}: the store holds the plaintext sentinel"));
        }
    }
    report.attempted += 2 * expected.len() as u64;
    server.stop();
}

fn contains(haystack: &[u8], needle: &[u8]) -> bool {
    haystack.windows(needle.len()).any(|w| w == needle)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Counts the rounds' ops and failures, then computes the end-to-end
/// metrics and the generator's health notes.
fn score(
    report: &mut Report,
    setup: &[f64],
    rounds: &[Round],
    counters: Counters,
    host: &HostSpeed,
    rss: f64,
) -> Result<(), String> {
    for (r, round) in rounds.iter().enumerate() {
        let failed = round.records.iter().filter(|rec| !rec.ok).count() as u64;
        let (ok, closed_failed) = round
            .capacity
            .iter()
            .fold((0, 0), |(o, f), c| (o + c.ok, f + c.failed));
        report.attempted += round.records.len() as u64 + ok + closed_failed;
        report.fail(failed, format!("open-loop ops of round {r} failed"));
        report.fail(closed_failed, format!("capacity ops of round {r} failed"));
    }
    let latencies: Vec<&[f64]> = rounds.iter().map(|r| r.latencies.as_slice()).collect();
    let pooled = pooled_latencies(&latencies);
    if pooled.is_empty() {
        return Err("no successful open-loop op to measure".into());
    }
    let capacity_ops: u64 = rounds.iter().flat_map(|r| &r.capacity).map(|c| c.ok).sum();
    let ops: usize = rounds.iter().map(|r| r.records.len()).sum();
    // As measured, then at the reference host's speed.
    let (setup_s, p50, p90, ops_s) = (
        stats::median(setup),
        quantile(&pooled, 0.5),
        quantile(&pooled, 0.9),
        capacity(rounds),
    );
    let slowdown = host.slowdown();
    let e2e = &mut report.end_to_end;
    e2e.push(metric("setup_s", setup_s / slowdown, "s", setup.len()));
    e2e.push(metric("p50_ms", p50 / slowdown, "ms", pooled.len()));
    e2e.push(metric("p90_ms", p90 / slowdown, "ms", pooled.len()));
    e2e.push(metric(
        "capacity_ops_s",
        ops_s * slowdown,
        "ops/s",
        capacity_ops as usize,
    ));
    e2e.push(metric(
        "transfer_kib_per_op",
        counters.wire as f64 / 1024.0 / ops as f64,
        "KiB",
        ops,
    ));
    e2e.push(metric("rss_mb", rss, "MiB", 1));

    let probes: Vec<String> = host.probes().iter().map(|p| format!("{p:.3}")).collect();
    report.notes.push(format!(
        "host probe ms: {} (slowdown {slowdown:.4} against {REFERENCE_PROBE_MS} ms; \
         the stack's threads busy {:.2} % of the time)",
        probes.join(" "),
        host.others_busy() * 100.0
    ));
    report.notes.push(format!(
        "as measured: setup_s {setup_s:.4}, p50_ms {p50:.4}, p90_ms {p90:.4}, capacity_ops_s {ops_s:.2}"
    ));
    report.attempted += 1;
    report.fail(
        u64::from(host.others_busy() > IDLE_CPU_LIMIT),
        format!(
            "the stack's threads were busy for {:.1} % of the host probes' time",
            host.others_busy() * 100.0
        ),
    );
    report.notes.push(format!(
        "p99 {:.4} ms over {} samples; peak RSS {:.1} MiB",
        quantile(&pooled, 0.99),
        pooled.len(),
        peak_rss_mib()
    ));
    let round_p50s: Vec<String> = latencies
        .iter()
        .filter(|l| !l.is_empty())
        .map(|l| format!("{:.3}", quantile(&stats::sorted(l.to_vec()), 0.5)))
        .collect();
    report
        .notes
        .push(format!("p50 ms by round: {}", round_p50s.join(" ")));
    let (late, overdue) = generator_health(rounds);
    report.notes.push(format!(
        "generator: late p99 {late:.4} ms while idle, at most {overdue} ops overdue at a segment's end"
    ));
    if late > 1.0 || overdue > 2 {
        report
            .notes
            .push("WARNING generator saturated: the open-loop segments are invalid".into());
    }
    Ok(())
}

/// Every round's latency samples in one ascending list. The reported
/// percentiles are taken over all of them, so a stall moves them by as
/// many ops as it delayed, whichever rounds it fell in.
fn pooled_latencies(rounds: &[&[f64]]) -> Vec<f64> {
    stats::sorted(rounds.iter().flat_map(|r| r.iter().copied()).collect())
}

/// Completed capacity ops per second: each generator thread's successful
/// ops over its busy time, both summed over the rounds, summed over the
/// threads.
fn capacity(rounds: &[Round]) -> f64 {
    let threads = rounds.iter().map(|r| r.capacity.len()).max().unwrap_or(0);
    (0..threads)
        .map(|t| {
            let (ok, busy) = rounds
                .iter()
                .filter_map(|r| r.capacity.get(t))
                .fold((0, 0.0), |(ok, busy), c| (ok + c.ok, busy + c.busy));
            if busy > 0.0 {
                ok as f64 / busy
            } else {
                0.0
            }
        })
        .sum()
}

/// The generator's own health: its p99 lateness when idle at the due
/// time, and the largest backlog left when an open-loop segment ended.
fn generator_health(rounds: &[Round]) -> (f64, usize) {
    let late = stats::sorted(
        rounds
            .iter()
            .flat_map(|r| &r.records)
            .filter(|r| r.idle)
            .map(|r| ms(r.start - r.due))
            .collect(),
    );
    let overdue = rounds
        .iter()
        .map(|r| {
            r.records
                .iter()
                .filter(|rec| rec.start > r.open_end)
                .count()
        })
        .max()
        .unwrap_or(0);
    let late_p99 = if late.is_empty() {
        0.0
    } else {
        quantile(&late, 0.99)
    };
    (late_p99, overdue)
}

/// The per-layer metrics of a traced run, from each traced op's
/// end-to-end time and breakdown, and the untraced ops' times.
fn layer_metrics(
    report: &mut Report,
    traced: &[(f64, Breakdown)],
    untraced: &[f64],
    counters: Counters,
    rounds: &[Round],
) {
    let n = traced.len().max(1) as f64;
    let per =
        |f: &dyn Fn(&Breakdown) -> u64| traced.iter().map(|(_, b)| f(b) as f64).sum::<f64>() / n;
    let ops: usize = rounds.iter().map(|r| r.records.len()).sum();
    let out = &mut report.per_layer;
    for layer in trace::LAYERS {
        out.push(metric(
            layer,
            per(&|b| b.layer(layer)) / 1e6,
            "ms",
            traced.len(),
        ));
    }
    out.push(metric(
        "net.req_bytes_per_op",
        per(&|b| b.req_bytes),
        "B",
        traced.len(),
    ));
    out.push(metric(
        "net.resp_bytes_per_op",
        per(&|b| b.resp_bytes),
        "B",
        traced.len(),
    ));
    out.push(metric(
        "store.read_bytes_per_op",
        per(&|b| b.read_bytes),
        "B",
        traced.len(),
    ));
    let per_op = |count: u64| count as f64 / ops.max(1) as f64;
    out.push(metric(
        "store.fsyncs_per_op",
        per_op(counters.fsyncs),
        "count",
        ops,
    ));
    out.push(metric(
        "core.blocks_sealed_per_op",
        per_op(counters.sealed),
        "count",
        ops,
    ));
    out.push(metric(
        "core.blocks_opened_per_op",
        per_op(counters.opened),
        "count",
        ops,
    ));
    let (late, overdue) = generator_health(rounds);
    out.push(metric("gen.late_p99_ms", late, "ms", ops));
    out.push(metric(
        "gen.overdue_ops",
        overdue as f64,
        "count",
        rounds.len(),
    ));
    let e2e_mean = traced.iter().map(|(e, _)| e).sum::<f64>() / n;
    let overhead = if untraced.is_empty() {
        0.0
    } else {
        (e2e_mean / stats::mean(untraced) - 1.0) * 100.0
    };
    out.push(metric(
        "trace.overhead_pct",
        overhead,
        "%",
        traced.len() + untraced.len(),
    ));
    let covered = per(&|b| b.covered());
    out.push(metric(
        "trace.coverage_pct",
        covered / e2e_mean * 100.0,
        "%",
        traced.len(),
    ));

    let mut names: BTreeMap<&'static str, u64> = BTreeMap::new();
    for (_, b) in traced {
        for (name, ns) in &b.by_span {
            *names.entry(name).or_insert(0) += ns;
        }
    }
    report.spans = names
        .into_iter()
        .map(|(name, ns)| metric(name, ns as f64 / n / 1e6, "ms", traced.len()))
        .collect();
}

/// A `/proc/self/status` field, in MiB.
fn status_mib(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with(field))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The process's peak resident set (VmHWM), in MiB.
fn peak_rss_mib() -> f64 {
    status_mib("VmHWM:")
}

/// Memory the running stack holds, in MiB: the resident set once the
/// allocator has returned its free pages. Peak RSS mostly measures which
/// allocator arenas happened to serve transient copies.
fn resident_mib() -> f64 {
    release_free_memory();
    status_mib("VmRSS:")
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn release_free_memory() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: glibc's malloc_trim takes no pointers and only hands free
    // heap pages back to the kernel; any thread may call it at any time.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn release_free_memory() {}

/// Matches the live writer's saves to the watcher's applies.
///
/// The writer stamps each save *before* sending it, keyed by the
/// sequence it will land at — the last acknowledged one plus one, since
/// it is the only writer — so an apply can never precede its stamp.
/// Latency is never clamped: an apply that precedes its due time, an
/// apply of a sequence nobody stamped, and a stamp nobody applied are
/// all errors.
#[derive(Default)]
pub struct Visibility {
    state: Mutex<VisState>,
    applied: Condvar,
}

#[derive(Default)]
struct VisState {
    stamps: BTreeMap<u64, Stamp>,
    samples: Vec<Visible>,
    high: u64,
    errors: Vec<String>,
}

#[derive(Clone, Copy)]
struct Stamp {
    due: Instant,
    op: u64,
    measured: bool,
}

/// One save made visible to the watcher.
#[derive(Debug, Clone, Copy)]
pub struct Visible {
    pub seq: u64,
    pub op: u64,
    pub due: Instant,
    pub applied: Instant,
}

impl Visibility {
    fn lock(&self) -> std::sync::MutexGuard<'_, VisState> {
        self.state
            .lock()
            .expect("a visibility lock holder panicked")
    }

    /// Called before the save of `seq` is sent. Only `measured` stamps
    /// become latency samples; every stamp must be matched.
    pub fn stamp(&self, seq: u64, due: Instant, op: u64, measured: bool) {
        self.lock().stamps.insert(seq, Stamp { due, op, measured });
    }

    /// The watcher folded every sequence in `(from, to]` at `at`.
    pub fn applied(&self, from: u64, to: u64, at: Instant) {
        let mut state = self.lock();
        for seq in from + 1..=to {
            match state.stamps.remove(&seq) {
                Some(stamp) if at < stamp.due => {
                    state
                        .errors
                        .push(format!("seq {seq} applied before it was due"));
                }
                Some(Stamp {
                    due,
                    op,
                    measured: true,
                }) => {
                    state.samples.push(Visible {
                        seq,
                        op,
                        due,
                        applied: at,
                    });
                }
                Some(_) => {}
                None => state
                    .errors
                    .push(format!("seq {seq} applied but never stamped")),
            }
        }
        state.high = state.high.max(to);
        drop(state);
        self.applied.notify_all();
    }

    /// Waits until the watcher has applied `seq`.
    pub fn wait_for(&self, seq: u64, timeout: Duration) -> bool {
        let state = self.lock();
        let (state, _) = self
            .applied
            .wait_timeout_while(state, timeout, |s| s.high < seq)
            .expect("a visibility lock holder panicked");
        state.high >= seq
    }

    /// Stamps never matched by an apply.
    pub fn unmatched(&self) -> Vec<u64> {
        self.lock().stamps.keys().copied().collect()
    }

    pub fn samples(&self) -> Vec<Visible> {
        self.lock().samples.clone()
    }

    pub fn errors(&self) -> Vec<String> {
        self.lock().errors.clone()
    }
}

type WatchChan = SharedChannel<PrivateChannel<TracedTransport<LiveTransport>>>;
type Watcher = LiveSession<WatchChan, TracedChannel<WatchChan>>;

/// The live workload's writer on one document: its session and typist.
struct LiveWriter {
    client: DocsClient<Chan>,
    typist: TypingSession,
}

impl LiveWriter {
    /// The sequence the next save will land at: this is the only
    /// writer, so the last acknowledged one plus one.
    fn next_seq(&self) -> u64 {
        self.client.last_ack_version().unwrap_or(0) + 1
    }

    /// Types a burst and saves it, stamped before the send with the
    /// sequence it must land at. Returns (saved at that seq, seq).
    fn save(
        &mut self,
        visibility: &Visibility,
        due: Instant,
        op: u64,
        measured: bool,
    ) -> (bool, u64) {
        self.typist.type_burst(self.client.editor(), KEYSTROKES);
        let seq = self.next_seq();
        visibility.stamp(seq, due, op, measured);
        let saved =
            self.client.save() == SaveOutcome::Saved && self.client.last_ack_version() == Some(seq);
        (saved, seq)
    }
}

/// One round's document in the live workload, with its writer and its
/// watcher. Each round starts on a fresh document, so every round sees
/// the same history depths and the rounds are replicates.
struct LiveDoc {
    id: String,
    writer: LiveWriter,
    watcher: Watcher,
}

/// Sets up one fresh document per round. Writers share one pooled
/// client; watchers share one mediator and one subscription connection,
/// since only the current round's watcher polls.
fn live_docs(cfg: &Config, server: &Server, tracer: &Arc<Tracer>) -> Result<Vec<LiveDoc>, String> {
    let pool = http(server);
    // The poll connection's read timeout must outlast the longest park.
    let transport = LiveTransport::new(
        HttpClient::new(server.addr),
        WATCH_WAIT + Duration::from_secs(30),
    );
    let shared = SharedChannel::new(PrivateChannel(DocsMediator::with_rng(
        TracedTransport::new(transport, Arc::clone(tracer)),
        MediatorConfig::default(),
        CtrDrbg::from_seed(mix(cfg.seed, "live-watcher")),
    )));
    (0..cfg.rounds())
        .map(|r| {
            let seed = mix(cfg.seed, &format!("live-writer-{r}"));
            let mut mediator = stack::mediator(&pool, tracer, seed);
            let id = mediator
                .create_document(&cfg.password())
                .map_err(|e| format!("create: {e}"))?;
            let mut client = DocsClient::open(stack::channel(mediator, tracer), &id)
                .map_err(|r| format!("open {id}: {}", r.status))?;
            client.editor().insert(0, &cfg.initial_text(r));
            if client.save() != SaveOutcome::Saved {
                return Err(format!("initial save of {id} failed"));
            }
            shared.with_inner(|c| c.0.register_password(&id, &cfg.password()));
            let watcher_client = DocsClient::open(shared.clone(), &id)
                .map_err(|r| format!("watcher open {id}: {}", r.status))?;
            let poll = TracedChannel::new(shared.clone(), Arc::clone(tracer));
            let watcher = LiveSession::start(watcher_client, poll, "watcher", None)
                .map_err(|e| format!("watcher start: {e}"))?;
            let typist = TypingSession::new(mix(cfg.seed, &format!("live-typist-{r}")));
            Ok(LiveDoc {
                id,
                writer: LiveWriter { client, typist },
                watcher,
            })
        })
        .collect()
}

/// What one live round measured besides its `Round`.
struct LiveRound {
    visibility: Visibility,
    watcher_ops: Vec<u64>,
    watcher_errors: Vec<String>,
    drained: bool,
}

/// One live round: the writer's open-loop segment and its ping-pong
/// capacity segment, with the document's watcher on its own thread.
fn live_round(
    cfg: &Config,
    tracer: &Tracer,
    doc: &mut LiveDoc,
    r: usize,
    counters: &mut Counters,
) -> (Round, LiveRound) {
    let visibility = Visibility::default();
    // The watcher runs until it has applied this sequence.
    let stop_at = AtomicU64::new(u64::MAX);
    let LiveDoc {
        writer, watcher, ..
    } = doc;
    let (records, open_end, capacity, drained, (watcher_ops, watcher_errors)) =
        std::thread::scope(|scope| {
            let watcher_thread = scope.spawn(|| {
                let mut ops = Vec::new();
                let mut errors = Vec::new();
                while watcher.since() < stop_at.load(Ordering::SeqCst) {
                    let before = watcher.since();
                    let result = if cfg.trace {
                        let op = tracer.next_id();
                        ops.push(op);
                        let _root = tracer.root("client.step", op, Instant::now());
                        watcher.step(WATCH_WAIT)
                    } else {
                        watcher.step(WATCH_WAIT)
                    };
                    let at = Instant::now();
                    match result {
                        Ok(_) => visibility.applied(before, watcher.since(), at),
                        Err(e) => errors.push(format!("watcher step: {e}")),
                    }
                }
                (ops, errors)
            });

            let before = Counters::now(tracer);
            let t0 = Instant::now() + Duration::from_millis(20);
            let mut n = 0u64;
            let records = open_loop(t0, &cfg.schedule(r), |_, due, start| {
                n += 1;
                traced_op(tracer, cfg.trace && n.is_multiple_of(2), due, start, |op| {
                    let (ok, _) = writer.save(&visibility, due, op, true);
                    (ok, Instant::now())
                })
            });
            counters.add_since(before, tracer);

            // Capacity: the next save goes out as soon as the watcher has
            // applied the previous one.
            let deadline = Instant::now() + cfg.capacity_segment();
            let capacity = closed_loop(deadline, records.len(), |_| {
                let (saved, seq) = writer.save(&visibility, Instant::now(), 0, false);
                saved && visibility.wait_for(seq, Duration::from_secs(5))
            });
            // A closing save wakes the parked watcher, which stops once it
            // has applied it; if it never does, it stops after its poll.
            stop_at.store(writer.next_seq(), Ordering::SeqCst);
            let (closed, seq) = writer.save(&visibility, Instant::now(), 0, false);
            let drained = closed && visibility.wait_for(seq, Duration::from_secs(10));
            if !drained {
                stop_at.store(0, Ordering::SeqCst);
            }
            let watched = watcher_thread.join().expect("watcher thread panicked");
            (records, t0 + cfg.segment(), capacity, drained, watched)
        });
    let round = Round {
        records,
        open_end,
        latencies: visibility
            .samples()
            .iter()
            .map(|v| ms(v.applied - v.due))
            .collect(),
        capacity: vec![capacity],
    };
    let live = LiveRound {
        visibility,
        watcher_ops,
        watcher_errors,
        drained,
    };
    (round, live)
}

fn live(cfg: &Config) -> Result<Report, String> {
    let mut host = HostSpeed::default();
    probe_host(cfg, &mut host);
    let (server, tracer, mut docs, setup) =
        set_up(cfg, |server, tracer| live_docs(cfg, server, tracer))?;
    let mut counters = Counters::default();
    let (rounds, lives): (Vec<Round>, Vec<LiveRound>) = docs
        .iter_mut()
        .enumerate()
        .map(|(r, doc)| {
            probe_host(cfg, &mut host);
            live_round(cfg, &tracer, doc, r, &mut counters)
        })
        .unzip();
    probe_host(cfg, &mut host);
    let rss = resident_mib();

    // Per document: writer, watcher and a fresh reader hold the same
    // text, and every stamped save was applied exactly once.
    let mut report = Report::default();
    let expected: Vec<(String, String)> = docs
        .iter()
        .map(|d| (d.id.clone(), d.writer.client.content().to_string()))
        .collect();
    let publishes = tracer.publishes();
    check_outputs(cfg, &mut report, server, &expected);
    for (doc, live) in docs.iter().zip(&lives) {
        report.attempted += 1;
        if doc.watcher.content() != doc.writer.client.content() {
            report.fail(
                1,
                format!(
                    "{}: watcher text ({} bytes) differs from the writer's ({} bytes)",
                    doc.id,
                    doc.watcher.content().len(),
                    doc.writer.client.content().len()
                ),
            );
        }
        if !live.drained {
            report.fail(1, format!("{}: the watcher never caught up", doc.id));
        }
        for e in live
            .watcher_errors
            .iter()
            .cloned()
            .chain(live.visibility.errors())
        {
            report.fail(1, format!("{}: {e}", doc.id));
        }
        for seq in live.visibility.unmatched() {
            report.fail(
                1,
                format!("{}: seq {seq} was saved but never applied", doc.id),
            );
        }
    }
    let saves = stats::sorted(
        rounds
            .iter()
            .flat_map(|r| &r.records)
            .filter(|r| r.ok)
            .map(|r| ms(r.end - r.due))
            .collect(),
    );
    if !saves.is_empty() {
        report.notes.push(format!(
            "writer save latency: p50 {:.4} ms, p90 {:.4} ms over {} saves",
            quantile(&saves, 0.5),
            quantile(&saves, 0.9),
            saves.len()
        ));
    }
    score(&mut report, &setup, &rounds, counters, &host, rss)?;

    if cfg.trace {
        let spans = tracer.spans();
        let watcher_ops: HashSet<u64> = lives
            .iter()
            .flat_map(|l| l.watcher_ops.iter().copied())
            .collect();
        let (watch_spans, writer_spans): (Vec<&Span>, Vec<&Span>) =
            spans.iter().partition(|s| watcher_ops.contains(&s.op));
        let by_op = trace::by_op(writer_spans);
        let fanned_out: HashMap<(&str, u64), u64> = publishes
            .iter()
            .map(|p| ((p.doc.as_str(), p.seq), p.end))
            .collect();
        let mut traced = Vec::new();
        let mut untraced = Vec::new();
        for (doc, live) in docs.iter().zip(&lives) {
            for v in live.visibility.samples() {
                let e2e = (v.applied - v.due).as_nanos() as f64;
                let split = fanned_out.get(&(doc.id.as_str(), v.seq));
                let (Some(path), Some(&split)) = (by_op.get(&v.op), split) else {
                    untraced.push(e2e);
                    continue;
                };
                // The writer's path up to the fan-out, then the watcher's.
                let mut b = Breakdown::default();
                attribute(path, tracer.at(v.due), split, &mut b);
                attribute(&watch_spans, split, tracer.at(v.applied), &mut b);
                traced.push((e2e, b));
            }
        }
        layer_metrics(&mut report, &traced, &untraced, counters, &rounds);
        report.tracer = Some(tracer);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_latency_runs_from_the_due_time() {
        // Ops due every 10 ms; the first one stalls for 60 ms. The ops
        // queued behind it are charged the wait, not just their service.
        let arrivals: Vec<Arrival> = (0..6)
            .map(|i| Arrival {
                due: Duration::from_millis(10 * i),
                doc: 0,
            })
            .collect();
        let t0 = Instant::now();
        let mut first = true;
        let records = open_loop(t0, &arrivals, |_, _, _| {
            std::thread::sleep(Duration::from_millis(if first { 60 } else { 1 }));
            first = false;
            Done {
                ok: true,
                end: Instant::now(),
                op: 0,
            }
        });
        let second = records[1];
        assert!(!second.idle, "the second op was queued behind the stall");
        assert!(second.start - second.due >= Duration::from_millis(50));
        assert!(second.end - second.due > second.end - second.start);
        assert!(records.iter().all(|r| r.end >= r.due));
    }

    #[test]
    fn a_stall_in_three_rounds_of_ten_moves_the_reported_values() {
        // Ten rounds of 100 ops at 4.00..4.99 ms; then the same with the
        // first three rounds' ops 20 ms slower.
        let clean: Vec<Vec<f64>> = (0..10)
            .map(|_| (0..100).map(|i| 4.0 + f64::from(i) / 100.0).collect())
            .collect();
        let mut stalled = clean.clone();
        for round in &mut stalled[..3] {
            round.iter_mut().for_each(|x| *x += 20.0);
        }
        let at = |rounds: &[Vec<f64>], q: f64| {
            let refs: Vec<&[f64]> = rounds.iter().map(Vec::as_slice).collect();
            quantile(&pooled_latencies(&refs), q)
        };
        assert!(at(&stalled, 0.9) >= at(&clean, 0.9) + 19.0);
        assert!(at(&stalled, 0.5) > at(&clean, 0.5));

        // Capacity: three rounds in which each thread took twice as long.
        let round = |busy: f64| Round {
            records: Vec::new(),
            open_end: Instant::now(),
            latencies: Vec::new(),
            capacity: vec![
                Closed {
                    ok: 100,
                    failed: 0,
                    busy,
                };
                2
            ],
        };
        let clean: Vec<Round> = (0..10).map(|_| round(1.0)).collect();
        let stalled: Vec<Round> = (0..10)
            .map(|r| round(if r < 3 { 2.0 } else { 1.0 }))
            .collect();
        assert_eq!(capacity(&clean), 200.0);
        assert_eq!(capacity(&stalled), 2.0 * 1000.0 / 13.0);
    }

    #[test]
    fn visibility_matches_every_seq_without_clamping() {
        let v = Visibility::default();
        let due = Instant::now();
        // Stamped before the send, so an apply that outruns the writer's
        // ack still finds its stamp.
        v.stamp(5, due, 7, true);
        v.stamp(6, due, 0, false);
        v.applied(4, 5, due + Duration::from_millis(3));
        let samples = v.samples();
        assert_eq!(samples.len(), 1);
        assert_eq!((samples[0].seq, samples[0].op), (5, 7));
        assert_eq!(
            samples[0].applied - samples[0].due,
            Duration::from_millis(3)
        );
        // A stamp never applied is reported, not dropped.
        assert_eq!(v.unmatched(), vec![6]);
        // An apply before the due time is an error, not a zero sample.
        let later = Instant::now() + Duration::from_secs(60);
        v.stamp(7, later, 0, true);
        v.applied(5, 8, Instant::now());
        let errors = v.errors();
        assert_eq!(errors.len(), 2, "{errors:?}");
        assert!(errors[0].contains("seq 7 applied before"));
        assert!(errors[1].contains("seq 8 applied but never stamped"));
        assert!(v.unmatched().is_empty());
        assert_eq!(v.samples().len(), 1);
        assert!(v.wait_for(8, Duration::ZERO));
        assert!(!v.wait_for(9, Duration::from_millis(1)));
    }

    #[test]
    fn smoke_every_workload_with_oracles() {
        let scratch = std::env::temp_dir().join(format!("pebench-smoke-{}", std::process::id()));
        for (spec, trace) in WORKLOADS.iter().flat_map(|s| [(s, false), (s, true)]) {
            let cfg = Config {
                spec,
                seed: 1,
                seconds: 1.0,
                trace,
                smoke: true,
                scratch: scratch.clone(),
            };
            let report = run(&cfg).unwrap_or_else(|e| panic!("{}: {e}", spec.name));
            assert_eq!(report.failed, 0, "{}: {:?}", spec.name, report.notes);
            assert!(report.attempted > 0);
            let names: Vec<&str> = report.end_to_end.iter().map(|m| m.name.as_str()).collect();
            assert_eq!(
                names,
                [
                    "setup_s",
                    "p50_ms",
                    "p90_ms",
                    "capacity_ops_s",
                    "transfer_kib_per_op",
                    "rss_mb"
                ]
            );
            assert!(
                report.end_to_end.iter().all(|m| m.value > 0.0),
                "{:?}",
                report.end_to_end
            );
            if !trace {
                assert!(report.per_layer.is_empty());
                continue;
            }
            let coverage = report
                .per_layer
                .iter()
                .find(|m| m.name == "trace.coverage_pct");
            let coverage = coverage.expect("coverage reported").value;
            assert!(
                (90.0..=101.0).contains(&coverage),
                "{}: coverage {coverage}",
                spec.name
            );
        }
        let _ = std::fs::remove_dir_all(&scratch);
    }
}
