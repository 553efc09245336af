//! The readiness-driven event loop behind [`HttpServer`](crate::HttpServer).
//!
//! One loop thread owns every socket. Connections move through a staged
//! state machine:
//!
//! ```text
//!   accept ──▶ Reading ──(request complete)──▶ Dispatched ──▶ Writing ─┐
//!                ▲   ╲──(queue full)──▶ DispatchQueued ──▶─┘           │
//!                │                                                     │
//!                └───────────────(keep-alive, response flushed)────────┘
//! ```
//!
//! * **Reading** — nonblocking reads append to a [`RequestAccumulator`],
//!   which re-frames bytes through the untouched blocking codec: a parse
//!   that would block mid-message reports "need more", so the request can
//!   arrive split at *any* byte boundary and resume correctly.
//! * **Dispatched** — the decoded request runs on a small worker pool;
//!   the loop never calls user handlers, so a slow [`Service`] can stall
//!   at most `workers` requests, never the wire. With `workers == 0`
//!   handlers run inline on the loop (lowest latency, for trusted-fast
//!   services).
//! * **DispatchQueued** — the worker queue was full; the connection
//!   parks (reads masked) until a completion frees a slot. This is the
//!   backpressure path: overload slows clients down instead of growing
//!   queues without bound.
//! * **Writing** — the serialized response drains through nonblocking
//!   writes; partial writes re-arm write interest and continue on the
//!   next readiness event.
//!
//! Deadlines are enforced by a coarse [`TimerWheel`], not per-socket
//! kernel timeouts: a **request deadline** starts at the first byte of a
//! request and is *not* extended by further bytes — a slow-loris client
//! dribbling one byte per interval is closed on schedule while costing
//! no worker and no thread. Idle keep-alive connections and stalled
//! response writes get the same treatment (`read_timeout` respectively
//! `write_timeout`).
//!
//! Shutdown is graceful: accepting stops immediately, idle connections
//! close, in-flight requests finish and flush (bounded by a drain
//! deadline), then the loop exits and the worker pool drains and joins.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use pe_cloud::fault::{ConnectionFault, ConnectionFaultSchedule};
use pe_cloud::Response;

use crate::codec;
use crate::error::NetError;
use crate::sys::{Event, Interest, Poller};
use crate::{Served, Service, Waker};

/// Hard cap on buffered inbound bytes per connection: the largest legal
/// message (16 MiB body) plus head room for its head.
const INBUF_CAP: usize = codec::MAX_BODY_BYTES + 64 * 1024;

/// If no head terminator shows up within this many bytes, hand the
/// buffer to the codec anyway so its line/header limits produce the
/// right error instead of the accumulator hoarding garbage.
const HEAD_ATTEMPT_BYTES: usize = codec::MAX_LINE_BYTES + 2;

/// Read chunk size per `read()` call.
const READ_CHUNK: usize = 16 * 1024;

/// Reserved poller tokens (chosen to never collide with slot tokens,
/// whose generation half never reaches `u32::MAX`).
const LISTENER_TOKEN: u64 = u64::MAX;
const WAKER_TOKEN: u64 = u64::MAX - 1;

/// How long accepting stays paused after a persistent `accept` failure
/// (EMFILE/ENFILE and friends). Retrying immediately would livelock the
/// loop: the pending connection stays in the kernel queue and accept
/// keeps failing the same way, so the only cure is letting existing
/// connections progress (their closes free the fds that un-wedge us).
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(100);

// ---------------------------------------------------------------------
// Incremental request framing
// ---------------------------------------------------------------------

/// Re-frames a nonblocking byte stream into requests using the blocking
/// codec unchanged.
///
/// Bytes are pushed in as they arrive off the wire — split at arbitrary
/// boundaries — and [`try_next`](RequestAccumulator::try_next) yields a
/// request exactly when one is complete. Internally a parse attempt runs
/// the real `codec::read_request` over the buffered prefix; a parse that
/// runs out of bytes mid-message maps to "need more", so the codec
/// itself stays the single authority on what the bytes mean.
///
/// To avoid re-parsing a large body on every arriving chunk, the
/// accumulator remembers (from a cheap, non-authoritative scan of the
/// complete head) how many bytes the message needs and skips parse
/// attempts until they are buffered.
#[derive(Debug, Default)]
pub struct RequestAccumulator {
    buf: Vec<u8>,
    /// How far `buf` has been scanned for the head terminator.
    scanned: usize,
    /// Index just past the head terminator, once found.
    head_end: Option<usize>,
    /// Known total size of the in-flight message, once the head is
    /// complete; parse attempts are skipped below this.
    need: Option<usize>,
}

impl RequestAccumulator {
    /// An empty accumulator.
    pub fn new() -> RequestAccumulator {
        RequestAccumulator::default()
    }

    /// Appends bytes read off the wire.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes currently buffered (complete requests are drained out).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Tries to parse one complete request off the front of the buffer.
    ///
    /// Returns `Ok(None)` when more bytes are needed, `Ok(Some(_))` with
    /// the parsed request (its bytes are consumed; pipelined followers
    /// stay buffered), and `Err` exactly when the blocking codec would
    /// reject the same bytes.
    ///
    /// # Errors
    ///
    /// The codec's own classes: [`NetError::Malformed`] and
    /// [`NetError::TooLarge`].
    pub fn try_next(&mut self) -> Result<Option<codec::ParsedRequest>, NetError> {
        if self.buf.is_empty() {
            return Ok(None);
        }
        if let Some(need) = self.need {
            if self.buf.len() < need {
                return Ok(None);
            }
        }
        let head_end = match self.find_head_end() {
            Some(end) => end,
            // No complete head yet: only bother the codec once enough is
            // buffered that it can diagnose a limit violation.
            None if self.buf.len() <= HEAD_ATTEMPT_BYTES => return Ok(None),
            None => self.buf.len(),
        };
        let mut cursor = std::io::Cursor::new(&self.buf[..]);
        match codec::read_request(&mut cursor) {
            Ok(Some(parsed)) => {
                let consumed = usize::try_from(cursor.position()).unwrap_or(self.buf.len());
                self.buf.drain(..consumed);
                self.scanned = 0;
                self.head_end = None;
                self.need = None;
                Ok(Some(parsed))
            }
            // Non-empty buffer never yields the clean-EOF case, but treat
            // it as "need more" rather than asserting.
            Ok(None) => Ok(None),
            Err(NetError::UnexpectedEof) => {
                // Head parsed, body incomplete: schedule the next attempt
                // for when the whole message is here.
                self.need = Some(head_end + scan_content_length(&self.buf[..head_end]));
                Ok(None)
            }
            Err(e) => Err(e),
        }
    }

    /// Finds the end of the head (the index just past `\r\n\r\n`),
    /// scanning only bytes not examined before and caching the answer
    /// until the message is consumed.
    fn find_head_end(&mut self) -> Option<usize> {
        if let Some(end) = self.head_end {
            return Some(end);
        }
        let start = self.scanned.saturating_sub(3);
        if let Some(pos) =
            self.buf[start..].windows(4).position(|w| w == b"\r\n\r\n").map(|p| p + start)
        {
            self.head_end = Some(pos + 4);
            return Some(pos + 4);
        }
        self.scanned = self.buf.len();
        None
    }
}

/// Best-effort `content-length` scan of a complete head, used only to
/// decide when the next (authoritative) parse attempt is worthwhile.
/// Returns 0 when absent or unparseable — the codec then re-checks on
/// every chunk, which is correct, just slower.
fn scan_content_length(head: &[u8]) -> usize {
    for line in head.split(|&b| b == b'\n') {
        let Some(colon) = line.iter().position(|&b| b == b':') else { continue };
        let name = &line[..colon];
        if name.eq_ignore_ascii_case(b"content-length") {
            let value: &[u8] = &line[colon + 1..];
            let value = std::str::from_utf8(value).unwrap_or("").trim();
            return value.parse().unwrap_or(0);
        }
    }
    0
}

// ---------------------------------------------------------------------
// Timer wheel
// ---------------------------------------------------------------------

/// A hashed timer wheel: O(1) schedule, O(slots-stepped) tick. Entries
/// are `(slot, generation, seq)` connection handles; entries are never
/// removed early — when one fires, the caller compares its `seq` against
/// the connection's live arm-sequence and drops superseded entries, so a
/// busy keep-alive connection (which re-arms deadlines on every request)
/// sheds its dead entries within one wheel revolution instead of
/// recirculating them forever. Deadlines past the wheel horizon park in
/// the farthest slot and re-circulate until due.
struct TimerWheel {
    slots: Vec<Vec<(u32, u32, u32)>>,
    granularity: Duration,
    cursor: usize,
    last_tick: Instant,
}

impl TimerWheel {
    fn new(slots: usize, granularity: Duration, now: Instant) -> TimerWheel {
        TimerWheel {
            slots: (0..slots).map(|_| Vec::new()).collect(),
            granularity,
            cursor: 0,
            last_tick: now,
        }
    }

    fn schedule(&mut self, deadline: Instant, now: Instant, slot: u32, generation: u32, seq: u32) {
        let ticks = deadline
            .saturating_duration_since(now)
            .as_nanos()
            .div_ceil(self.granularity.as_nanos().max(1));
        // At least one tick out (never the live cursor slot), at most a
        // full revolution minus one.
        let ticks = (ticks as usize).clamp(1, self.slots.len() - 1);
        let index = (self.cursor + ticks) % self.slots.len();
        self.slots[index].push((slot, generation, seq));
    }

    /// Advances the wheel to `now`, collecting every entry in elapsed
    /// slots into `fired`.
    fn tick(&mut self, now: Instant, fired: &mut Vec<(u32, u32, u32)>) {
        let elapsed = now.saturating_duration_since(self.last_tick);
        let steps = (elapsed.as_nanos() / self.granularity.as_nanos().max(1)) as usize;
        if steps == 0 {
            return;
        }
        let steps = steps.min(self.slots.len());
        for _ in 0..steps {
            self.cursor = (self.cursor + 1) % self.slots.len();
            fired.append(&mut self.slots[self.cursor]);
        }
        self.last_tick = now;
    }
}

// ---------------------------------------------------------------------
// Connections
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ConnState {
    /// Accumulating request bytes (also the keep-alive idle state).
    Reading,
    /// Parked: worker queue was full when the request completed.
    DispatchQueued,
    /// Request running on a worker; awaiting its completion.
    Dispatched,
    /// Long-poll subscriber: the service deferred the response; the
    /// connection holds no worker and waits for its [`Waker`] (or the
    /// subscription deadline).
    Parked,
    /// Response bytes draining to the socket.
    Writing,
}

/// Why a deadline was armed — picks the metric and log on expiry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DeadlineKind {
    /// Keep-alive connection with no request bytes yet.
    Idle,
    /// Mid-request: first byte seen, message incomplete.
    Request,
    /// Response flush in progress.
    Write,
    /// Parked long-poll subscriber. Deliberately distinct from
    /// `Request`: a parked subscriber has *completed* its request and is
    /// not a slow-loris, so it gets the (much longer) subscription
    /// budget, and expiry sends the service's timeout response instead
    /// of closing the socket.
    Subscription,
}

struct Conn {
    stream: TcpStream,
    state: ConnState,
    acc: RequestAccumulator,
    outbuf: Vec<u8>,
    outpos: usize,
    /// Close once `outbuf` drains (truncation fault, keep-alive off,
    /// protocol error response).
    close_after_write: bool,
    deadline: Option<(Instant, DeadlineKind)>,
    /// Bumped on every arm/disarm; wheel entries carrying an older value
    /// are superseded and dropped when they fire.
    deadline_seq: u32,
    /// Requests served on this connection.
    served: u64,
    /// Parked request waiting for a dispatch slot.
    queued: Option<Job>,
    /// Deferred long-poll request held while in `Parked` state.
    parked: Option<ParkedReq>,
    /// Peer sent EOF; serve what is buffered, then close.
    peer_eof: bool,
    created: Instant,
}

/// What a `Parked` connection remembers: the request to re-dispatch on
/// wake, and the pre-serialized response to send if the subscription
/// deadline fires first.
struct ParkedReq {
    request: pe_cloud::Request,
    keep_alive: bool,
    timeout_bytes: Vec<u8>,
    timeout_close_after: bool,
}

struct Slab {
    conns: Vec<Option<Conn>>,
    generations: Vec<u32>,
    free: Vec<u32>,
}

impl Slab {
    fn new() -> Slab {
        Slab { conns: Vec::new(), generations: Vec::new(), free: Vec::new() }
    }

    fn insert(&mut self, conn: Conn) -> (u32, u32) {
        if let Some(slot) = self.free.pop() {
            self.conns[slot as usize] = Some(conn);
            (slot, self.generations[slot as usize])
        } else {
            self.conns.push(Some(conn));
            self.generations.push(0);
            ((self.conns.len() - 1) as u32, 0)
        }
    }

    fn get_mut(&mut self, slot: u32, generation: u32) -> Option<&mut Conn> {
        if self.generations.get(slot as usize) != Some(&generation) {
            return None;
        }
        self.conns.get_mut(slot as usize).and_then(Option::as_mut)
    }

    fn remove(&mut self, slot: u32) -> Option<Conn> {
        let conn = self.conns.get_mut(slot as usize).and_then(Option::take);
        if conn.is_some() {
            self.generations[slot as usize] = self.generations[slot as usize].wrapping_add(1);
            self.free.push(slot);
        }
        conn
    }

    fn len(&self) -> usize {
        self.conns.len() - self.free.len()
    }

    fn live_slots(&self) -> Vec<u32> {
        (0..self.conns.len() as u32).filter(|&s| self.conns[s as usize].is_some()).collect()
    }
}

fn token_of(slot: u32, generation: u32) -> u64 {
    u64::from(slot) | (u64::from(generation) << 32)
}

// ---------------------------------------------------------------------
// Dispatch plumbing
// ---------------------------------------------------------------------

/// A decoded request handed to the worker pool.
struct Job {
    slot: u32,
    generation: u32,
    request: pe_cloud::Request,
    /// Peer asked for keep-alive (final decision happens at completion).
    keep_alive: bool,
    /// True when this is a parked subscriber being re-dispatched after a
    /// wake — already counted as a request the first time around.
    redispatch: bool,
}

/// What a worker decided for one job.
enum Outcome {
    /// Ordinary response: send these bytes.
    Respond { bytes: Vec<u8>, close_after: bool },
    /// The service deferred: park the connection until its waker fires
    /// or the subscription deadline sends `timeout_bytes`.
    Park {
        request: pe_cloud::Request,
        keep_alive: bool,
        timeout_bytes: Vec<u8>,
        timeout_close_after: bool,
        /// Caller-requested wait; caps the park below the server-wide
        /// subscription timeout.
        wait: Option<Duration>,
    },
}

/// A job outcome coming back from a worker.
struct Completion {
    slot: u32,
    generation: u32,
    outcome: Outcome,
}

/// Wake requests from parked subscribers, drained by the loop thread.
/// Entries carry the connection's (slot, generation) identity; the loop
/// validates both plus the `Parked` state before re-dispatching, so
/// stale or duplicate wakes are harmless no-ops.
pub(crate) struct ParkedWakeups {
    pending: Mutex<Vec<(u32, u32)>>,
}

impl ParkedWakeups {
    fn new() -> ParkedWakeups {
        ParkedWakeups { pending: Mutex::new(Vec::new()) }
    }

    fn push(&self, slot: u32, generation: u32) {
        self.pending.lock().unwrap_or_else(|e| e.into_inner()).push((slot, generation));
    }

    fn drain(&self) -> Vec<(u32, u32)> {
        std::mem::take(&mut *self.pending.lock().unwrap_or_else(|e| e.into_inner()))
    }
}

/// Wakes the event loop from other threads by writing one byte to a
/// loopback socket registered in the poller.
struct WakeHandle {
    tx: Mutex<TcpStream>,
}

impl WakeHandle {
    fn wake(&self) {
        if let Ok(mut tx) = self.tx.lock() {
            // WouldBlock means a wake is already pending — good enough.
            let _ = tx.write(&[1u8]);
        }
    }
}

/// Builds a connected loopback pair for the waker without any
/// platform-specific socketpair call.
fn waker_pair() -> std::io::Result<(TcpStream, TcpStream)> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let tx = TcpStream::connect(listener.local_addr()?)?;
    let (rx, _) = listener.accept()?;
    tx.set_nonblocking(true)?;
    rx.set_nonblocking(true)?;
    tx.set_nodelay(true)?;
    Ok((tx, rx))
}

/// Everything the loop and workers share.
pub(crate) struct LoopShared {
    pub service: Arc<dyn Service>,
    pub faults: Option<Arc<ConnectionFaultSchedule>>,
    pub shutdown: Arc<AtomicBool>,
    pub keep_alive: bool,
}

/// Loop tuning, distilled from [`ServerConfig`](crate::ServerConfig).
#[derive(Debug, Clone)]
pub(crate) struct LoopConfig {
    pub read_timeout: Duration,
    pub write_timeout: Duration,
    pub subscription_timeout: Duration,
    pub max_conns: usize,
    pub queue: usize,
    pub workers: usize,
    pub force_poll: bool,
    pub drain: Duration,
}

/// Handles joined by [`HttpServer::shutdown`](crate::HttpServer).
pub(crate) struct EventServer {
    pub shutdown: Arc<AtomicBool>,
    pub loop_thread: Option<std::thread::JoinHandle<()>>,
    pub workers: Vec<std::thread::JoinHandle<()>>,
    waker: Arc<WakeHandle>,
}

impl EventServer {
    /// Signals the loop to begin its graceful drain.
    pub fn begin_shutdown(&self) {
        if !self.shutdown.swap(true, Ordering::SeqCst) {
            self.waker.wake();
        }
    }
}

/// Spawns the loop thread and worker pool for an already-bound listener.
pub(crate) fn spawn(
    listener: TcpListener,
    shared: LoopShared,
    config: LoopConfig,
) -> std::io::Result<EventServer> {
    listener.set_nonblocking(true)?;
    let (waker_tx, waker_rx) = waker_pair()?;
    let waker = Arc::new(WakeHandle { tx: Mutex::new(waker_tx) });
    let shutdown = Arc::clone(&shared.shutdown);
    let completions: Arc<Mutex<Vec<Completion>>> = Arc::new(Mutex::new(Vec::new()));
    let wakeups = Arc::new(ParkedWakeups::new());

    let (job_tx, job_rx) = std::sync::mpsc::sync_channel::<Job>(config.queue.max(1));
    let job_rx = Arc::new(Mutex::new(job_rx));
    let shared = Arc::new(shared);

    let workers = (0..config.workers)
        .map(|i| {
            let job_rx = Arc::clone(&job_rx);
            let shared = Arc::clone(&shared);
            let completions = Arc::clone(&completions);
            let waker = Arc::clone(&waker);
            let wakeups = Arc::clone(&wakeups);
            std::thread::Builder::new()
                .name(format!("pe-net-worker-{i}"))
                .spawn(move || worker_loop(&job_rx, &shared, &completions, &waker, &wakeups))
                .expect("spawn worker thread")
        })
        .collect();

    let loop_waker = Arc::clone(&waker);
    let thread_waker = Arc::clone(&waker);
    let loop_thread = std::thread::Builder::new()
        .name("pe-net-loop".into())
        .spawn(move || {
            let mut event_loop = match EventLoop::new(
                listener, waker_rx, shared, config, job_tx, completions, wakeups, thread_waker,
            ) {
                Ok(event_loop) => event_loop,
                Err(e) => {
                    // Bind succeeded, so this is a poller-creation failure
                    // (fd exhaustion); nothing to serve on.
                    eprintln!("pe-net: event loop failed to start: {e}");
                    return;
                }
            };
            event_loop.run();
        })
        .expect("spawn event-loop thread");

    Ok(EventServer {
        shutdown,
        loop_thread: Some(loop_thread),
        workers,
        waker: loop_waker,
    })
}

fn worker_loop(
    jobs: &Mutex<Receiver<Job>>,
    shared: &LoopShared,
    completions: &Mutex<Vec<Completion>>,
    waker: &Arc<WakeHandle>,
    wakeups: &Arc<ParkedWakeups>,
) {
    loop {
        let job = {
            let rx = jobs.lock().unwrap_or_else(|e| e.into_inner());
            rx.recv()
        };
        let Ok(job) = job else { return };
        let completion = serve_job(job, shared, wakeups, waker);
        completions.lock().unwrap_or_else(|e| e.into_inner()).push(completion);
        waker.wake();
    }
}

/// Runs one request through the service and serializes the response,
/// enacting stall/truncate faults. Shared by the worker pool and the
/// `workers == 0` inline path. A service that defers ([`Served::Parked`])
/// yields a `Park` outcome instead; faults are not applied to parks —
/// they act on responses, and a park has none yet.
fn serve_job(
    job: Job,
    shared: &LoopShared,
    wakeups: &Arc<ParkedWakeups>,
    waker: &Arc<WakeHandle>,
) -> Completion {
    let Job { slot, generation, request, keep_alive: peer_keep_alive, redispatch: _ } = job;
    let served = {
        let _timed = pe_observe::static_histogram!("net.server.handle_ns").span();
        let wake_list = Arc::clone(wakeups);
        let wake_handle = Arc::clone(waker);
        let wake = Waker::from_fn(move || {
            wake_list.push(slot, generation);
            wake_handle.wake();
        });
        shared.service.call_deferred(&request, wake)
    };
    let keep_alive =
        peer_keep_alive && shared.keep_alive && !shared.shutdown.load(Ordering::SeqCst);
    let serialize = |response: &Response| {
        let mut bytes = Vec::new();
        let mut close_after = !keep_alive;
        if codec::write_response(response, keep_alive, &mut bytes).is_err() {
            bytes.clear();
            let oversize = Response::error(500, "response exceeded the wire size limit");
            let _ = codec::write_response(&oversize, false, &mut bytes);
            close_after = true;
        }
        (bytes, close_after)
    };
    match served {
        Served::Response(response) => {
            let (mut bytes, mut close_after) = serialize(&response);
            let fault = shared
                .faults
                .as_ref()
                .filter(|s| s.fault() != ConnectionFault::Refuse)
                .and_then(|s| s.next());
            match fault {
                Some(ConnectionFault::Stall(delay)) => {
                    pe_observe::static_counter!("net.server.faults.stalled").inc();
                    std::thread::sleep(delay);
                }
                Some(ConnectionFault::Truncate(n)) => {
                    pe_observe::static_counter!("net.server.faults.truncated").inc();
                    bytes.truncate(n.min(bytes.len()));
                    close_after = true;
                }
                Some(ConnectionFault::Refuse) | None => {}
            }
            Completion { slot, generation, outcome: Outcome::Respond { bytes, close_after } }
        }
        Served::Parked { on_timeout, wait } => {
            let (timeout_bytes, timeout_close_after) = serialize(&on_timeout);
            Completion {
                slot,
                generation,
                outcome: Outcome::Park {
                    request,
                    keep_alive: peer_keep_alive,
                    timeout_bytes,
                    timeout_close_after,
                    wait,
                },
            }
        }
    }
}

// ---------------------------------------------------------------------
// The loop itself
// ---------------------------------------------------------------------

struct EventLoop {
    poller: Poller,
    listener: TcpListener,
    waker_rx: TcpStream,
    shared: Arc<LoopShared>,
    config: LoopConfig,
    job_tx: SyncSender<Job>,
    completions: Arc<Mutex<Vec<Completion>>>,
    /// Pending wakes from parked subscribers' wakers.
    wakeups: Arc<ParkedWakeups>,
    /// Loop's own wake handle, lent to inline-mode (`workers == 0`)
    /// service calls so their wakers can reach the poller.
    wake_handle: Arc<WakeHandle>,
    slab: Slab,
    wheel: TimerWheel,
    /// Slots parked in `DispatchQueued`, oldest first.
    dispatch_queue: VecDeque<u32>,
    /// Listener interest currently disabled (connection cap reached or
    /// persistent accept failure).
    accept_paused: bool,
    /// Earliest time a failure-paused listener may re-arm; connection
    /// closes resume it sooner (they free the fds accept was missing).
    accept_resume_at: Option<Instant>,
    /// Shutdown observed; draining in-flight work.
    draining: Option<Instant>,
    events: Vec<Event>,
    fired: Vec<(u32, u32, u32)>,
}

impl EventLoop {
    #[allow(clippy::too_many_arguments)]
    fn new(
        listener: TcpListener,
        waker_rx: TcpStream,
        shared: Arc<LoopShared>,
        config: LoopConfig,
        job_tx: SyncSender<Job>,
        completions: Arc<Mutex<Vec<Completion>>>,
        wakeups: Arc<ParkedWakeups>,
        wake_handle: Arc<WakeHandle>,
    ) -> std::io::Result<EventLoop> {
        let mut poller = Poller::new(config.force_poll)?;
        match poller.backend() {
            crate::sys::Backend::Epoll => {
                pe_observe::static_counter!("net.server.backend.epoll").inc();
            }
            crate::sys::Backend::Poll => {
                pe_observe::static_counter!("net.server.backend.poll").inc();
            }
        }
        poller.register(listener.as_raw_fd(), LISTENER_TOKEN, Interest::READ)?;
        poller.register(waker_rx.as_raw_fd(), WAKER_TOKEN, Interest::READ)?;
        let now = Instant::now();
        Ok(EventLoop {
            poller,
            listener,
            waker_rx,
            shared,
            config,
            job_tx,
            completions,
            wakeups,
            wake_handle,
            slab: Slab::new(),
            wheel: TimerWheel::new(512, Duration::from_millis(16), now),
            dispatch_queue: VecDeque::new(),
            accept_paused: false,
            accept_resume_at: None,
            draining: None,
            events: Vec::with_capacity(1024),
            fired: Vec::new(),
        })
    }

    fn run(&mut self) {
        loop {
            let timeout = if self.slab.len() == 0 && self.draining.is_none() {
                Duration::from_millis(200)
            } else {
                Duration::from_millis(10)
            };
            self.events.clear();
            if let Err(e) = self.poller.wait(timeout, &mut self.events) {
                // A broken poller cannot recover; drop every connection.
                eprintln!("pe-net: poller failed: {e}");
                break;
            }
            pe_observe::static_counter!("net.server.epoll_wakeups").inc();

            let events = std::mem::take(&mut self.events);
            for event in &events {
                match event.token {
                    LISTENER_TOKEN => self.accept_ready(),
                    WAKER_TOKEN => self.drain_waker(),
                    token => self.conn_event(token, event),
                }
            }
            self.events = events;

            self.drain_completions();
            self.drain_parked_wakeups();
            self.retry_queued_dispatches();
            self.expire_deadlines();
            if self.accept_resume_at.is_some_and(|at| Instant::now() >= at) {
                self.accept_resume_at = None;
                self.resume_accept();
            }

            if self.shared.shutdown.load(Ordering::SeqCst) && self.draining.is_none() {
                self.begin_drain();
            }
            if let Some(since) = self.draining {
                let expired = since.elapsed() > self.config.drain;
                if self.slab.len() == 0 || expired {
                    for slot in self.slab.live_slots() {
                        self.close(slot, None);
                    }
                    break;
                }
            }
        }
    }

    // -- accept ----------------------------------------------------

    fn accept_ready(&mut self) {
        if self.draining.is_some() {
            return;
        }
        loop {
            if self.slab.len() >= self.config.max_conns {
                pe_observe::static_counter!("net.server.accept_pressure").inc();
                self.pause_accept();
                return;
            }
            let stream = match self.listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                // The connection died between the kernel queue and our
                // accept — gone for good, take the next one.
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::ConnectionAborted
                            | std::io::ErrorKind::ConnectionReset
                            | std::io::ErrorKind::Interrupted
                    ) =>
                {
                    continue
                }
                // Anything else (fd exhaustion, ENOMEM) persists across
                // retries: back off instead of livelocking the loop.
                Err(_) => {
                    pe_observe::static_counter!("net.server.accept_errors").inc();
                    self.pause_accept();
                    self.accept_resume_at = Some(Instant::now() + ACCEPT_ERROR_BACKOFF);
                    return;
                }
            };
            pe_observe::static_counter!("net.server.connections").inc();
            // Refuse-on-accept faults close the socket before any read.
            if let Some(schedule) = &self.shared.faults {
                if schedule.fault() == ConnectionFault::Refuse
                    && schedule.next() == Some(ConnectionFault::Refuse)
                {
                    pe_observe::static_counter!("net.server.faults.refused").inc();
                    drop(stream);
                    continue;
                }
            }
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            let _ = stream.set_nodelay(true);
            let now = Instant::now();
            let conn = Conn {
                stream,
                state: ConnState::Reading,
                acc: RequestAccumulator::new(),
                outbuf: Vec::new(),
                outpos: 0,
                close_after_write: false,
                deadline: None,
                deadline_seq: 0,
                served: 0,
                queued: None,
                parked: None,
                peer_eof: false,
                created: now,
            };
            let (slot, generation) = self.slab.insert(conn);
            let fd =
                self.slab.get_mut(slot, generation).expect("just inserted").stream.as_raw_fd();
            if self.poller.register(fd, token_of(slot, generation), Interest::READ).is_err() {
                self.slab.remove(slot);
                continue;
            }
            pe_observe::static_gauge!("net.server.conns_open").inc();
            self.arm_deadline(slot, generation, DeadlineKind::Idle);
        }
    }

    fn pause_accept(&mut self) {
        if !self.accept_paused {
            self.accept_paused = true;
            let _ =
                self.poller.modify(self.listener.as_raw_fd(), LISTENER_TOKEN, Interest::NONE);
        }
    }

    fn resume_accept(&mut self) {
        if self.accept_paused && self.slab.len() < self.config.max_conns {
            self.accept_paused = false;
            self.accept_resume_at = None;
            let _ =
                self.poller.modify(self.listener.as_raw_fd(), LISTENER_TOKEN, Interest::READ);
            // Level-triggered: pending backlog re-fires on the next wait.
        }
    }

    fn drain_waker(&mut self) {
        let mut sink = [0u8; 64];
        loop {
            match self.waker_rx.read(&mut sink) {
                Ok(0) => return,
                Ok(_) => {}
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return,
            }
        }
    }

    // -- per-connection events --------------------------------------

    fn conn_event(&mut self, token: u64, event: &Event) {
        let slot = (token & u64::from(u32::MAX)) as u32;
        let generation = (token >> 32) as u32;
        let Some(conn) = self.slab.get_mut(slot, generation) else { return };
        if event.readable && conn.state == ConnState::Reading {
            self.read_ready(slot, generation);
            return;
        }
        if event.writable && conn.state == ConnState::Writing {
            self.write_ready(slot, generation);
            return;
        }
        if event.hangup {
            // No readable/writable work to do and the peer is gone.
            self.close(slot, None);
        }
    }

    fn read_ready(&mut self, slot: u32, generation: u32) {
        let mut chunk = [0u8; READ_CHUNK];
        let conn = self.slab.get_mut(slot, generation).expect("validated by caller");
        let was_idle = conn.acc.is_empty();
        loop {
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    conn.peer_eof = true;
                    break;
                }
                Ok(n) => {
                    if conn.acc.len() + n > INBUF_CAP {
                        pe_observe::static_counter!("net.server.read_errors").inc();
                        self.close(slot, None);
                        return;
                    }
                    conn.acc.push(&chunk[..n]);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.close(slot, None);
                    return;
                }
            }
        }
        // First byte of a new request arms the slow-loris deadline; more
        // bytes never extend it.
        if was_idle && !self.slab.get_mut(slot, generation).expect("live").acc.is_empty() {
            self.arm_deadline(slot, generation, DeadlineKind::Request);
        }
        self.advance_parse(slot, generation);
    }

    /// Tries to turn buffered bytes into a dispatched request (or an
    /// error response, or a clean close).
    fn advance_parse(&mut self, slot: u32, generation: u32) {
        let Some(conn) = self.slab.get_mut(slot, generation) else { return };
        if conn.state != ConnState::Reading {
            return;
        }
        match conn.acc.try_next() {
            Ok(Some(parsed)) => {
                let keep_alive = parsed.keep_alive;
                conn.deadline = None;
                conn.deadline_seq = conn.deadline_seq.wrapping_add(1);
                self.dispatch(slot, generation, Job {
                    slot,
                    generation,
                    request: parsed.request,
                    keep_alive,
                    redispatch: false,
                });
            }
            Ok(None) => {
                if conn.peer_eof {
                    // Clean close between requests, or EOF mid-message —
                    // either way there is nothing left to serve.
                    self.close(slot, None);
                }
            }
            Err(e) => {
                pe_observe::static_counter!("net.server.read_errors").inc();
                let response = Response::error(400, &format!("bad request: {e}"));
                let mut bytes = Vec::new();
                let _ = codec::write_response(&response, false, &mut bytes);
                self.start_response(slot, generation, bytes, true);
            }
        }
    }

    fn dispatch(&mut self, slot: u32, generation: u32, job: Job) {
        if !job.redispatch {
            pe_observe::static_counter!("net.server.requests").inc();
            let conn = self.slab.get_mut(slot, generation).expect("live");
            if conn.served > 0 {
                pe_observe::static_counter!("net.server.keepalive_reuses").inc();
            }
        }
        if self.config.workers == 0 {
            // Inline mode: the handler runs on the loop thread.
            let completion = serve_job(job, &self.shared, &self.wakeups, &self.wake_handle);
            let conn = self.slab.get_mut(slot, generation).expect("live");
            conn.state = ConnState::Dispatched;
            self.apply_completion(completion);
            return;
        }
        match self.job_tx.try_send(job) {
            Ok(()) => {
                let conn = self.slab.get_mut(slot, generation).expect("live");
                conn.state = ConnState::Dispatched;
                let fd = conn.stream.as_raw_fd();
                let _ = self.poller.modify(fd, token_of(slot, generation), Interest::NONE);
            }
            Err(TrySendError::Full(job)) => {
                pe_observe::static_counter!("net.server.dispatch_stalls").inc();
                let conn = self.slab.get_mut(slot, generation).expect("live");
                conn.state = ConnState::DispatchQueued;
                conn.queued = Some(job);
                let fd = conn.stream.as_raw_fd();
                let _ = self.poller.modify(fd, token_of(slot, generation), Interest::NONE);
                self.dispatch_queue.push_back(slot);
            }
            Err(TrySendError::Disconnected(_)) => self.close(slot, None),
        }
    }

    fn retry_queued_dispatches(&mut self) {
        while let Some(&slot) = self.dispatch_queue.front() {
            let Some(generation) =
                self.slab.generations.get(slot as usize).copied()
            else {
                self.dispatch_queue.pop_front();
                continue;
            };
            let Some(conn) = self.slab.get_mut(slot, generation) else {
                self.dispatch_queue.pop_front();
                continue;
            };
            if conn.state != ConnState::DispatchQueued {
                self.dispatch_queue.pop_front();
                continue;
            }
            let Some(job) = conn.queued.take() else {
                self.dispatch_queue.pop_front();
                continue;
            };
            match self.job_tx.try_send(job) {
                Ok(()) => {
                    self.dispatch_queue.pop_front();
                    let conn = self.slab.get_mut(slot, generation).expect("live");
                    conn.state = ConnState::Dispatched;
                }
                Err(TrySendError::Full(job)) => {
                    let conn = self.slab.get_mut(slot, generation).expect("live");
                    conn.queued = Some(job);
                    return;
                }
                Err(TrySendError::Disconnected(_)) => {
                    self.dispatch_queue.pop_front();
                    self.close(slot, None);
                }
            }
        }
    }

    // -- responses ---------------------------------------------------

    fn drain_completions(&mut self) {
        let drained: Vec<Completion> = {
            let mut completions =
                self.completions.lock().unwrap_or_else(|e| e.into_inner());
            std::mem::take(&mut *completions)
        };
        for completion in drained {
            self.apply_completion(completion);
        }
    }

    fn apply_completion(&mut self, completion: Completion) {
        let Completion { slot, generation, outcome } = completion;
        let Some(conn) = self.slab.get_mut(slot, generation) else {
            return; // connection died while the worker ran
        };
        if conn.state != ConnState::Dispatched {
            return;
        }
        match outcome {
            Outcome::Respond { bytes, close_after } => {
                self.start_response(slot, generation, bytes, close_after);
            }
            Outcome::Park { request, keep_alive, timeout_bytes, timeout_close_after, wait } => {
                if self.draining.is_some() {
                    // Shutting down: answer immediately with the timeout
                    // response instead of holding the subscriber open.
                    self.start_response(slot, generation, timeout_bytes, true);
                    return;
                }
                conn.state = ConnState::Parked;
                conn.parked =
                    Some(ParkedReq { request, keep_alive, timeout_bytes, timeout_close_after });
                pe_observe::static_gauge!("net.server.parked_conns").inc();
                // Reads stay masked while parked. The caller's requested
                // wait bounds the park, clamped by the server-wide
                // subscription timeout (a client cannot hold a slot
                // longer than the server allows).
                let fd = conn.stream.as_raw_fd();
                let _ = self.poller.modify(fd, token_of(slot, generation), Interest::NONE);
                let budget = match wait {
                    Some(wait) => wait.min(self.config.subscription_timeout),
                    None => self.config.subscription_timeout,
                };
                self.arm_deadline_for(slot, generation, DeadlineKind::Subscription, budget);
                // The waker may have fired while the park completion was
                // in flight (publish raced the park) — its entry was kept
                // queued and re-dispatches on this same pass.
            }
        }
    }

    /// Re-dispatches parked subscribers whose wakers fired.
    fn drain_parked_wakeups(&mut self) {
        let pending = self.wakeups.drain();
        for (slot, generation) in pending {
            let Some(conn) = self.slab.get_mut(slot, generation) else { continue };
            if conn.state == ConnState::Dispatched {
                // The waker fired between the service registering it and
                // the worker's park completion reaching this loop: keep
                // the wake for the pass that applies the completion
                // (which wakes the loop), or the subscriber would sleep
                // out its whole wait.
                self.wakeups.push(slot, generation);
                continue;
            }
            if conn.state != ConnState::Parked {
                continue; // stale or duplicate wake
            }
            let Some(parked) = conn.parked.take() else { continue };
            pe_observe::static_gauge!("net.server.parked_conns").dec();
            pe_observe::static_counter!("net.server.parked_wakes").inc();
            conn.deadline = None;
            conn.deadline_seq = conn.deadline_seq.wrapping_add(1);
            conn.state = ConnState::Reading; // transient; dispatch advances it
            self.dispatch(slot, generation, Job {
                slot,
                generation,
                request: parked.request,
                keep_alive: parked.keep_alive,
                redispatch: true,
            });
        }
    }

    /// Installs response bytes and drives the first (optimistic) write.
    fn start_response(
        &mut self,
        slot: u32,
        generation: u32,
        bytes: Vec<u8>,
        close_after: bool,
    ) {
        let conn = self.slab.get_mut(slot, generation).expect("validated by caller");
        conn.outbuf = bytes;
        conn.outpos = 0;
        conn.close_after_write = close_after;
        conn.state = ConnState::Writing;
        self.arm_deadline(slot, generation, DeadlineKind::Write);
        self.write_ready(slot, generation);
    }

    fn write_ready(&mut self, slot: u32, generation: u32) {
        let conn = self.slab.get_mut(slot, generation).expect("validated by caller");
        while conn.outpos < conn.outbuf.len() {
            match conn.stream.write(&conn.outbuf[conn.outpos..]) {
                Ok(0) => {
                    pe_observe::static_counter!("net.server.write_errors").inc();
                    self.close(slot, None);
                    return;
                }
                Ok(n) => conn.outpos += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    let fd = conn.stream.as_raw_fd();
                    let _ =
                        self.poller.modify(fd, token_of(slot, generation), Interest::WRITE);
                    return;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    pe_observe::static_counter!("net.server.write_errors").inc();
                    self.close(slot, None);
                    return;
                }
            }
        }
        self.finish_response(slot, generation);
    }

    fn finish_response(&mut self, slot: u32, generation: u32) {
        let draining = self.draining.is_some();
        let conn = self.slab.get_mut(slot, generation).expect("validated by caller");
        conn.served += 1;
        conn.outbuf = Vec::new();
        conn.outpos = 0;
        if conn.close_after_write || draining {
            self.close(slot, None);
            return;
        }
        conn.state = ConnState::Reading;
        if conn.peer_eof {
            // The peer half-closed, but it may have pipelined further
            // requests before its FIN: serve everything still buffered
            // (advance_parse closes once the accumulator runs dry). No
            // poller re-arm — no more bytes are coming.
            self.advance_parse(slot, generation);
            return;
        }
        let fd = conn.stream.as_raw_fd();
        let _ = self.poller.modify(fd, token_of(slot, generation), Interest::READ);
        let kind =
            if conn.acc.is_empty() { DeadlineKind::Idle } else { DeadlineKind::Request };
        self.arm_deadline(slot, generation, kind);
        // Pipelined follower already buffered? Serve it now.
        self.advance_parse(slot, generation);
    }

    // -- deadlines ---------------------------------------------------

    fn arm_deadline(&mut self, slot: u32, generation: u32, kind: DeadlineKind) {
        let budget = match kind {
            DeadlineKind::Idle | DeadlineKind::Request => self.config.read_timeout,
            DeadlineKind::Write => self.config.write_timeout,
            DeadlineKind::Subscription => self.config.subscription_timeout,
        };
        self.arm_deadline_for(slot, generation, kind, budget);
    }

    /// Arms a deadline with an explicit budget (parks use the caller's
    /// requested wait instead of the kind's default).
    fn arm_deadline_for(
        &mut self,
        slot: u32,
        generation: u32,
        kind: DeadlineKind,
        budget: Duration,
    ) {
        let now = Instant::now();
        let deadline = now + budget;
        if let Some(conn) = self.slab.get_mut(slot, generation) {
            conn.deadline_seq = conn.deadline_seq.wrapping_add(1);
            conn.deadline = Some((deadline, kind));
            let seq = conn.deadline_seq;
            self.wheel.schedule(deadline, now, slot, generation, seq);
        }
    }

    fn expire_deadlines(&mut self) {
        let now = Instant::now();
        let mut fired = std::mem::take(&mut self.fired);
        fired.clear();
        self.wheel.tick(now, &mut fired);
        for (slot, generation, seq) in fired.drain(..) {
            let Some(conn) = self.slab.get_mut(slot, generation) else { continue };
            if seq != conn.deadline_seq {
                continue; // superseded by a later arm/disarm — drop it
            }
            let Some((deadline, kind)) = conn.deadline else { continue };
            if deadline > now {
                // Beyond-horizon entry recirculating; keep it live.
                self.wheel.schedule(deadline, now, slot, generation, seq);
                continue;
            }
            match kind {
                DeadlineKind::Idle => {
                    pe_observe::static_counter!("net.server.idle_closes").inc();
                }
                DeadlineKind::Request => {
                    pe_observe::static_counter!("net.server.request_timeouts").inc();
                }
                DeadlineKind::Write => {
                    pe_observe::static_counter!("net.server.write_timeouts").inc();
                }
                DeadlineKind::Subscription => {
                    // Not an error: the long-poll ran dry. Send the
                    // service's timeout response; the connection lives on
                    // (keep-alive permitting).
                    pe_observe::static_counter!("net.server.subscription_timeouts").inc();
                    pe_observe::static_gauge!("net.server.parked_conns").dec();
                    if let Some(parked) = conn.parked.take() {
                        conn.state = ConnState::Dispatched; // start_response path
                        self.start_response(
                            slot,
                            generation,
                            parked.timeout_bytes,
                            parked.timeout_close_after,
                        );
                    } else {
                        self.close(slot, None);
                    }
                    continue;
                }
            }
            self.close(slot, None);
        }
        self.fired = fired;
    }

    // -- teardown ----------------------------------------------------

    fn begin_drain(&mut self) {
        self.draining = Some(Instant::now());
        let _ = self.poller.deregister(self.listener.as_raw_fd());
        // Idle and mid-request connections have nothing to finish; parked
        // subscribers get their timeout response now (flush, then close)
        // instead of holding the drain open.
        for slot in self.slab.live_slots() {
            let generation = self.slab.generations[slot as usize];
            let Some(conn) = self.slab.get_mut(slot, generation) else { continue };
            if conn.state == ConnState::Reading {
                self.close(slot, None);
            } else if conn.state == ConnState::Parked {
                pe_observe::static_gauge!("net.server.parked_conns").dec();
                let parked = conn.parked.take();
                conn.state = ConnState::Dispatched;
                conn.deadline = None;
                conn.deadline_seq = conn.deadline_seq.wrapping_add(1);
                match parked {
                    Some(p) => self.start_response(slot, generation, p.timeout_bytes, true),
                    None => self.close(slot, None),
                }
            }
        }
    }

    fn close(&mut self, slot: u32, _reason: Option<&str>) {
        let Some(conn) = self.slab.remove(slot) else { return };
        let _ = self.poller.deregister(conn.stream.as_raw_fd());
        if conn.state == ConnState::Parked {
            pe_observe::static_gauge!("net.server.parked_conns").dec();
        }
        pe_observe::static_gauge!("net.server.conns_open").dec();
        pe_observe::static_histogram!("net.server.conn_lifetime_ns")
            .record(u64::try_from(conn.created.elapsed().as_nanos()).unwrap_or(u64::MAX));
        drop(conn);
        self.resume_accept();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pe_cloud::{Method, Request};

    fn request_bytes(body: &str) -> Vec<u8> {
        codec::request_bytes(
            &Request::post("/Doc", &[("cmd", "open"), ("docID", "d1")], body.to_string()),
            true,
        )
        .unwrap()
    }

    #[test]
    fn accumulator_parses_whole_request() {
        let bytes = request_bytes("docContents=hello");
        let mut acc = RequestAccumulator::new();
        acc.push(&bytes);
        let parsed = acc.try_next().unwrap().unwrap();
        assert_eq!(parsed.request.method, Method::Post);
        assert_eq!(parsed.request.path, "/Doc");
        assert!(acc.is_empty(), "whole message consumed");
    }

    #[test]
    fn accumulator_resumes_across_byte_splits() {
        let bytes = request_bytes("docContents=split+me");
        for split in 0..bytes.len() {
            let mut acc = RequestAccumulator::new();
            acc.push(&bytes[..split]);
            assert!(
                acc.try_next().unwrap().is_none(),
                "no request from a {split}-byte prefix"
            );
            acc.push(&bytes[split..]);
            let parsed = acc.try_next().unwrap().expect("complete after remainder");
            assert_eq!(parsed.request.body_text().unwrap(), "docContents=split+me");
        }
    }

    #[test]
    fn accumulator_keeps_pipelined_followers() {
        let mut bytes = request_bytes("a=1");
        bytes.extend_from_slice(&request_bytes("b=2"));
        let mut acc = RequestAccumulator::new();
        acc.push(&bytes);
        let first = acc.try_next().unwrap().unwrap();
        assert_eq!(first.request.body_text().unwrap(), "a=1");
        let second = acc.try_next().unwrap().unwrap();
        assert_eq!(second.request.body_text().unwrap(), "b=2");
        assert!(acc.try_next().unwrap().is_none());
    }

    #[test]
    fn accumulator_surfaces_malformed_bytes() {
        let mut acc = RequestAccumulator::new();
        acc.push(b"NONSENSE\r\n\r\n");
        assert!(matches!(acc.try_next(), Err(NetError::Malformed { .. })));
    }

    #[test]
    fn accumulator_rejects_oversize_heads_without_hoarding() {
        let mut acc = RequestAccumulator::new();
        // An endless request line with no terminator in sight.
        acc.push(&vec![b'a'; HEAD_ATTEMPT_BYTES + 10]);
        assert!(matches!(acc.try_next(), Err(NetError::TooLarge { .. })));
    }

    #[test]
    fn content_length_scan_is_permissive() {
        assert_eq!(scan_content_length(b"POST / HTTP/1.1\r\ncontent-length: 42\r\n\r\n"), 42);
        assert_eq!(scan_content_length(b"POST / HTTP/1.1\r\nCONTENT-LENGTH:7\r\n\r\n"), 7);
        assert_eq!(scan_content_length(b"GET / HTTP/1.1\r\nhost: x\r\n\r\n"), 0);
        assert_eq!(scan_content_length(b"GET / HTTP/1.1\r\ncontent-length: pear\r\n\r\n"), 0);
    }

    #[test]
    fn timer_wheel_fires_in_order_and_recirculates() {
        let start = Instant::now();
        let mut wheel = TimerWheel::new(8, Duration::from_millis(10), start);
        wheel.schedule(start + Duration::from_millis(25), start, 1, 0, 7);
        // Far beyond the 80 ms horizon: parks at the farthest slot.
        wheel.schedule(start + Duration::from_millis(500), start, 2, 0, 3);
        let mut fired = Vec::new();
        wheel.tick(start + Duration::from_millis(40), &mut fired);
        assert_eq!(fired, vec![(1, 0, 7)]);
        fired.clear();
        // The far entry surfaces within one revolution; the caller would
        // re-schedule it (same seq) because its deadline is still ahead,
        // or drop it if the connection re-armed with a newer seq.
        wheel.tick(start + Duration::from_millis(120), &mut fired);
        assert_eq!(fired, vec![(2, 0, 3)]);
    }

    #[test]
    fn slab_generations_invalidate_stale_handles() {
        let mut slab = Slab::new();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let make_conn = || Conn {
            stream: TcpStream::connect(listener.local_addr().unwrap()).unwrap(),
            state: ConnState::Reading,
            acc: RequestAccumulator::new(),
            outbuf: Vec::new(),
            outpos: 0,
            close_after_write: false,
            deadline: None,
            deadline_seq: 0,
            served: 0,
            queued: None,
            parked: None,
            peer_eof: false,
            created: Instant::now(),
        };
        let (slot, gen0) = slab.insert(make_conn());
        assert!(slab.get_mut(slot, gen0).is_some());
        slab.remove(slot);
        assert!(slab.get_mut(slot, gen0).is_none(), "stale generation rejected");
        let (slot2, gen1) = slab.insert(make_conn());
        assert_eq!(slot2, slot, "slot reused");
        assert_ne!(gen0, gen1);
        assert!(slab.get_mut(slot2, gen1).is_some());
    }
}
