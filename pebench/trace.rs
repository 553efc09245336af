//! Request-scoped spans, recorded from this benchmark's own files by
//! wrapping each layer's public trait — no code inside the program
//! changes.
//!
//! | wrapper            | trait                    | span(s)                         |
//! |--------------------|--------------------------|---------------------------------|
//! | [`TracedChannel`]  | `pe_client::Channel`     | `extension.exchange`            |
//! | [`TracedTransport`]| `pe_cloud::CloudService` | `net.client` (+ body bytes, counted untraced too) |
//! | [`TracedService`]  | `pe_net::Service`        | `cloud.service`, `net.wake`, `collab.parked` |
//! | [`TracedStore`]    | `pe_store::DocStore`     | `store.<method>` (+ read bytes) |
//! | [`TracedListener`] | `pe_cloud::docs::SaveListener` | `collab.publish`          |
//!
//! Client-side spans nest through a per-thread stack. The server runs
//! handlers on its own worker threads, so [`TracedTransport`] files each
//! request in an in-flight table keyed by (method, path, docID) before
//! sending; [`TracedService`] finds its parent there. Every generator
//! thread owns disjoint documents and has one request in flight, so the
//! key is unambiguous. Store and publish spans nest under the service
//! span through the worker thread's stack.
//!
//! The server-side wrappers are mounted only in a traced run (see
//! `stack.rs`). The client-side ones call straight through when their
//! thread has no open span.
//!
//! Spans stay in memory; [`Tracer::write_jsonl`] writes them out at exit.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use pe_client::Channel;
use pe_cloud::docs::{SaveChange, SaveListener};
use pe_cloud::{CloudService, Method, Request, Response};
use pe_delta::Delta;
use pe_net::{Served, Service, Waker};
use pe_store::{CompactionStats, DeltaLimits, DocState, DocStore, StoreError};

/// One timed interval of one layer, in nanoseconds since the tracer's
/// epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    /// Id of the span that caused this one; 0 for an op's roots.
    pub parent: u64,
    /// The generator op this span belongs to.
    pub op: u64,
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    /// Request body bytes (transport) — zero elsewhere.
    pub bytes_in: u64,
    /// Response body bytes (transport) or bytes returned (store reads).
    pub bytes_out: u64,
}

/// When an accepted save had been fanned out to subscribers.
#[derive(Debug, Clone, PartialEq)]
pub struct Publish {
    pub doc: String,
    pub seq: u64,
    pub end: u64,
}

type Key = (Method, String, String);

/// A parked long-poll: when it parked and when its waker fired.
#[derive(Default)]
struct Park {
    parked_at: Option<u64>,
    fired_at: Option<u64>,
}

/// The span sink shared by every wrapper of one benchmark stack.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    publishes: Mutex<Vec<Publish>>,
    inflight: Mutex<HashMap<Key, (u64, u64)>>,
    parks: Mutex<HashMap<Key, Park>>,
    /// Request and response body bytes through every client transport,
    /// traced or not.
    wire_bytes: AtomicU64,
}

#[derive(Clone, Copy)]
struct Frame {
    span: u64,
    op: u64,
}

thread_local! {
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().expect("a tracing lock holder panicked")
}

fn key_of(request: &Request) -> Key {
    let doc = request.query_param("docID").unwrap_or("").to_string();
    (request.method, request.path.clone(), doc)
}

impl Tracer {
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            publishes: Mutex::new(Vec::new()),
            inflight: Mutex::new(HashMap::new()),
            parks: Mutex::new(HashMap::new()),
            wire_bytes: AtomicU64::new(0),
        })
    }

    /// Body bytes sent and received by the client transports so far.
    pub fn wire_bytes(&self) -> u64 {
        self.wire_bytes.load(Ordering::Relaxed)
    }

    /// A fresh id, for ops and spans alike.
    pub fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// `t` in nanoseconds since the epoch (0 for instants before it).
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn now(&self) -> u64 {
        self.at(Instant::now())
    }

    /// Records a completed span.
    pub fn record(&self, name: &'static str, parent: u64, op: u64, start: u64, end: u64) {
        let id = self.next_id();
        lock(&self.spans).push(Span {
            id,
            parent,
            op,
            name,
            start,
            end,
            bytes_in: 0,
            bytes_out: 0,
        });
    }

    /// Opens an op's root span on this thread: everything the thread
    /// calls until the guard drops is traced under `op`.
    pub fn root(&self, name: &'static str, op: u64, start: Instant) -> Guard<'_> {
        self.open(name, 0, op, self.at(start))
    }

    /// Opens a child of this thread's innermost span, if the thread is
    /// inside a traced op.
    pub fn child(&self, name: &'static str) -> Option<Guard<'_>> {
        let top = STACK.with(|s| s.borrow().last().copied())?;
        Some(self.open(name, top.span, top.op, self.now()))
    }

    fn open(&self, name: &'static str, parent: u64, op: u64, start: u64) -> Guard<'_> {
        let id = self.next_id();
        STACK.with(|s| s.borrow_mut().push(Frame { span: id, op }));
        Guard {
            tracer: self,
            span: Span {
                id,
                parent,
                op,
                name,
                start,
                end: 0,
                bytes_in: 0,
                bytes_out: 0,
            },
        }
    }

    pub fn spans(&self) -> Vec<Span> {
        lock(&self.spans).clone()
    }

    pub fn publishes(&self) -> Vec<Publish> {
        lock(&self.publishes).clone()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in lock(&self.spans).iter() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\
                 \"end_ns\":{},\"bytes_in\":{},\"bytes_out\":{}}}",
                s.id, s.parent, s.op, s.name, s.start, s.end, s.bytes_in, s.bytes_out
            )?;
        }
        out.flush()
    }
}

/// An open span; it ends, and leaves the thread's stack, when dropped.
pub struct Guard<'a> {
    tracer: &'a Tracer,
    span: Span,
}

impl Guard<'_> {
    pub fn id(&self) -> u64 {
        self.span.id
    }

    pub fn op(&self) -> u64 {
        self.span.op
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        self.span.end = self.tracer.now();
        STACK.with(|s| {
            s.borrow_mut().pop();
        });
        lock(&self.tracer.spans).push(self.span.clone());
    }
}

/// `pe_client::Channel` wrapper: the privacy extension and everything
/// beneath it, as the editing client sees it.
pub struct TracedChannel<C> {
    pub inner: C,
    tracer: Arc<Tracer>,
}

impl<C> TracedChannel<C> {
    pub fn new(inner: C, tracer: Arc<Tracer>) -> TracedChannel<C> {
        TracedChannel { inner, tracer }
    }
}

impl<C: Channel> Channel for TracedChannel<C> {
    fn exchange(&mut self, request: &Request) -> Response {
        let _span = self.tracer.child("extension.exchange");
        self.inner.exchange(request)
    }
}

/// `CloudService` wrapper around the client transport: one span per
/// request on the wire, carrying its body sizes.
pub struct TracedTransport<T> {
    inner: T,
    tracer: Arc<Tracer>,
}

impl<T> TracedTransport<T> {
    pub fn new(inner: T, tracer: Arc<Tracer>) -> TracedTransport<T> {
        TracedTransport { inner, tracer }
    }
}

impl<T: CloudService> CloudService for TracedTransport<T> {
    fn handle(&self, request: &Request) -> Response {
        let response = match self.tracer.child("net.client") {
            None => self.inner.handle(request),
            Some(mut span) => {
                let key = key_of(request);
                lock(&self.tracer.inflight).insert(key.clone(), (span.op(), span.id()));
                let response = self.inner.handle(request);
                lock(&self.tracer.inflight).remove(&key);
                span.span.bytes_in = request.body.len() as u64;
                span.span.bytes_out = response.body.len() as u64;
                response
            }
        };
        let bytes = request.body.len() + response.body.len();
        self.tracer
            .wire_bytes
            .fetch_add(bytes as u64, Ordering::Relaxed);
        response
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// `pe_net::Service` wrapper around the mounted front end. A long-poll
/// that parks is re-entered after its waker fires; the wrapper records
/// the parked interval and the wake-to-re-entry delay as their own spans.
pub struct TracedService<S> {
    inner: S,
    tracer: Arc<Tracer>,
}

impl<S> TracedService<S> {
    pub fn new(inner: S, tracer: Arc<Tracer>) -> TracedService<S> {
        TracedService { inner, tracer }
    }
}

impl<S: Service> Service for TracedService<S> {
    fn call(&self, request: &Request) -> Response {
        match self.call_deferred(request, Waker::noop()) {
            Served::Response(response) => response,
            Served::Parked { on_timeout, .. } => on_timeout,
        }
    }

    fn call_deferred(&self, request: &Request, waker: Waker) -> Served {
        let key = key_of(request);
        let Some((op, parent)) = lock(&self.tracer.inflight).get(&key).copied() else {
            return self.inner.call_deferred(request, waker);
        };
        let tracer = &self.tracer;
        // A re-entry after a wake closes the previous park. The entry is
        // (re)armed before the inner call so a save that fires the waker
        // while the call is still returning is not missed.
        let previous = lock(&tracer.parks).insert(key.clone(), Park::default());
        let entered = tracer.now();
        if let Some(Park {
            parked_at: Some(parked),
            fired_at: Some(fired),
        }) = previous
        {
            tracer.record("collab.parked", parent, op, parked, fired.max(parked));
            tracer.record("net.wake", parent, op, fired.max(parked), entered);
        }
        let wake_tracer = Arc::clone(tracer);
        let wake_key = key.clone();
        let traced_waker = Waker::from_fn(move || {
            let now = wake_tracer.now();
            if let Some(park) = lock(&wake_tracer.parks).get_mut(&wake_key) {
                park.fired_at.get_or_insert(now);
            }
            waker.wake();
        });
        let served = {
            let _span = tracer.open("cloud.service", parent, op, entered);
            self.inner.call_deferred(request, traced_waker)
        };
        let mut parks = lock(&tracer.parks);
        match &served {
            Served::Parked { .. } => {
                if let Some(park) = parks.get_mut(&key) {
                    park.parked_at = Some(tracer.now());
                }
            }
            Served::Response(_) => {
                parks.remove(&key);
            }
        }
        served
    }

    fn service_name(&self) -> &str {
        self.inner.service_name()
    }
}

/// `pe_store::DocStore` wrapper: one span per call made while serving a
/// traced request.
pub struct TracedStore {
    inner: Arc<dyn DocStore>,
    tracer: Arc<Tracer>,
}

impl TracedStore {
    pub fn new(inner: Arc<dyn DocStore>, tracer: Arc<Tracer>) -> TracedStore {
        TracedStore { inner, tracer }
    }

    fn timed<R>(&self, name: &'static str, call: impl FnOnce() -> R) -> R {
        let _span = self.tracer.child(name);
        call()
    }

    fn timed_read<R>(
        &self,
        name: &'static str,
        call: impl FnOnce() -> R,
        bytes: impl Fn(&R) -> usize,
    ) -> R {
        let Some(mut span) = self.tracer.child(name) else {
            return call();
        };
        let result = call();
        span.span.bytes_out = bytes(&result) as u64;
        result
    }
}

impl DocStore for TracedStore {
    fn get(&self, id: &str) -> Option<DocState> {
        self.timed_read(
            "store.get",
            || self.inner.get(id),
            |doc| {
                doc.as_ref().map_or(0, |d| {
                    d.content.len() + d.revisions.iter().map(Vec::len).sum::<usize>()
                })
            },
        )
    }
    fn content(&self, id: &str) -> Option<Vec<u8>> {
        self.timed_read(
            "store.content",
            || self.inner.content(id),
            |c| c.as_ref().map_or(0, Vec::len),
        )
    }
    fn contains(&self, id: &str) -> bool {
        self.timed("store.contains", || self.inner.contains(id))
    }
    fn list(&self) -> Vec<String> {
        self.timed("store.list", || self.inner.list())
    }
    fn create(&self, id: &str) -> Result<bool, StoreError> {
        self.timed("store.create", || self.inner.create(id))
    }
    fn put_full(&self, id: &str, content: &[u8]) -> Result<u64, StoreError> {
        self.timed("store.put_full", || self.inner.put_full(id, content))
    }
    fn apply_delta(
        &self,
        id: &str,
        delta: &Delta,
        limits: DeltaLimits,
    ) -> Result<DocState, StoreError> {
        self.timed("store.apply_delta", || {
            self.inner.apply_delta(id, delta, limits)
        })
    }
    fn remove(&self, id: &str) -> Result<bool, StoreError> {
        self.timed("store.remove", || self.inner.remove(id))
    }
    fn meta(&self, key: &str) -> Option<u64> {
        self.timed("store.meta", || self.inner.meta(key))
    }
    fn set_meta(&self, key: &str, value: u64) -> Result<(), StoreError> {
        self.timed("store.set_meta", || self.inner.set_meta(key, value))
    }
    fn bump_meta(&self, key: &str) -> Result<u64, StoreError> {
        self.timed("store.bump_meta", || self.inner.bump_meta(key))
    }
    fn meta_entries(&self) -> Vec<(String, u64)> {
        self.timed("store.meta_entries", || self.inner.meta_entries())
    }
    fn flush(&self) -> Result<(), StoreError> {
        self.timed("store.flush", || self.inner.flush())
    }
    fn compact(&self) -> Result<CompactionStats, StoreError> {
        self.timed("store.compact", || self.inner.compact())
    }
    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// `SaveListener` wrapper around the change bus: when each accepted save
/// was fanned out (the split point of a push's critical path).
pub struct TracedListener<L> {
    inner: Arc<L>,
    tracer: Arc<Tracer>,
}

impl<L> TracedListener<L> {
    pub fn new(inner: Arc<L>, tracer: Arc<Tracer>) -> TracedListener<L> {
        TracedListener { inner, tracer }
    }
}

impl<L: SaveListener> SaveListener for TracedListener<L> {
    fn on_save(&self, doc_id: &str, seq: u64, change: &SaveChange) {
        let Some(span) = self.tracer.child("collab.publish") else {
            return self.inner.on_save(doc_id, seq, change);
        };
        self.inner.on_save(doc_id, seq, change);
        drop(span);
        let end = self.tracer.now();
        lock(&self.tracer.publishes).push(Publish {
            doc: doc_id.to_string(),
            seq,
            end,
        });
    }
}

/// The layer a span's self time is charged to.
pub fn layer_of(name: &str) -> &'static str {
    match name {
        "gen.wait" => "gen.wait_ms",
        "extension.exchange" => "extension.self_ms",
        "net.client" | "net.wake" | "collab.parked" => "net.transport_ms",
        "cloud.service" | "collab.publish" => "cloud.self_ms",
        "store.get" | "store.content" | "store.contains" | "store.list" | "store.meta"
        | "store.meta_entries" => "store.read_ms",
        n if n.starts_with("store.") => "store.write_ms",
        n if n.starts_with("client.") => "client.self_ms",
        _ => "other_ms",
    }
}

/// The per-layer metrics, in reporting order.
pub const LAYERS: [&str; 7] = [
    "gen.wait_ms",
    "client.self_ms",
    "extension.self_ms",
    "net.transport_ms",
    "cloud.self_ms",
    "store.read_ms",
    "store.write_ms",
];

/// Where one sample's end-to-end time went.
#[derive(Debug, Default, Clone)]
pub struct Breakdown {
    /// Nanoseconds charged to each span name (self time on the path).
    pub by_span: BTreeMap<&'static str, u64>,
    pub req_bytes: u64,
    pub resp_bytes: u64,
    pub read_bytes: u64,
}

impl Breakdown {
    pub fn covered(&self) -> u64 {
        self.by_span.values().sum()
    }

    pub fn layer(&self, layer: &str) -> u64 {
        self.by_span
            .iter()
            .filter(|(n, _)| layer_of(n) == layer)
            .map(|(_, v)| v)
            .sum()
    }
}

/// Groups spans by the op they belong to.
pub fn by_op<'a>(spans: impl IntoIterator<Item = &'a Span>) -> HashMap<u64, Vec<&'a Span>> {
    let mut groups: HashMap<u64, Vec<&Span>> = HashMap::new();
    for span in spans {
        groups.entry(span.op).or_default().push(span);
    }
    groups
}

/// Charges every instant of `[lo, hi]` to the deepest of `spans` covering
/// it — the span's self time restricted to the window. Instants no span
/// covers stay uncharged, which is what the coverage metric detects.
pub fn attribute(spans: &[&Span], lo: u64, hi: u64, out: &mut Breakdown) {
    if hi <= lo {
        return;
    }
    let ids: HashMap<u64, &Span> = spans.iter().map(|s| (s.id, *s)).collect();
    let depth = |s: &Span| {
        let mut d = 0;
        let mut parent = s.parent;
        while let Some(p) = ids.get(&parent) {
            d += 1;
            parent = p.parent;
        }
        d
    };
    let live: Vec<(&Span, usize)> = spans
        .iter()
        .filter(|s| s.start < hi && s.end > lo)
        .map(|s| (*s, depth(s)))
        .collect();
    let mut cuts: Vec<u64> = vec![lo, hi];
    for (s, _) in &live {
        cuts.extend([s.start.clamp(lo, hi), s.end.clamp(lo, hi)]);
    }
    cuts.sort_unstable();
    cuts.dedup();
    for w in cuts.windows(2) {
        let (a, b) = (w[0], w[1]);
        let deepest = live
            .iter()
            .filter(|(s, _)| s.start <= a && s.end >= b)
            .max_by_key(|(s, d)| (*d, s.start));
        if let Some((s, _)) = deepest {
            *out.by_span.entry(s.name).or_insert(0) += b - a;
        }
    }
    for (s, _) in &live {
        match s.name {
            "net.client" => {
                out.req_bytes += s.bytes_in;
                out.resp_bytes += s.bytes_out;
            }
            name if layer_of(name) == "store.read_ms" => out.read_bytes += s.bytes_out,
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            op: 1,
            name,
            start,
            end,
            bytes_in: 0,
            bytes_out: 0,
        }
    }

    #[test]
    fn self_times_of_nested_spans_sum_to_the_window() {
        let spans = [
            span(1, 0, "gen.wait", 0, 10),
            span(2, 0, "client.op", 10, 100),
            span(3, 2, "extension.exchange", 20, 90),
            span(4, 3, "net.client", 30, 80),
            span(5, 4, "cloud.service", 40, 70),
            span(6, 5, "store.apply_delta", 50, 60),
        ];
        let refs: Vec<&Span> = spans.iter().collect();
        let mut b = Breakdown::default();
        attribute(&refs, 0, 100, &mut b);
        assert_eq!(b.covered(), 100);
        assert_eq!(b.layer("gen.wait_ms"), 10);
        assert_eq!(b.layer("client.self_ms"), 20);
        assert_eq!(b.layer("extension.self_ms"), 20);
        assert_eq!(b.layer("net.transport_ms"), 20);
        assert_eq!(b.layer("cloud.self_ms"), 20);
        assert_eq!(b.layer("store.write_ms"), 10);
    }

    #[test]
    fn uncovered_time_and_out_of_window_time_are_not_charged() {
        let spans = [
            span(1, 0, "client.op", 10, 50),
            span(2, 1, "net.client", 40, 200),
        ];
        let refs: Vec<&Span> = spans.iter().collect();
        let mut b = Breakdown::default();
        attribute(&refs, 0, 60, &mut b);
        // [0,10) and [50,60) only partly: net.client covers up to the window end.
        assert_eq!(b.layer("client.self_ms"), 30);
        assert_eq!(b.layer("net.transport_ms"), 20);
        assert_eq!(b.covered(), 50);
    }
}
