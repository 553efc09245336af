//! The event-driven HTTP server.
//!
//! One loop thread owns every socket through a readiness poller
//! (`epoll` on Linux, portable `poll(2)` elsewhere — see
//! [`sys`](crate::sys)); nonblocking reads feed a per-connection
//! incremental parser, decoded requests dispatch onto a small worker
//! pool, and responses drain back through nonblocking writes. The full
//! state machine, timer wheel, and backpressure rules live in
//! [`event`](crate::event); this module keeps the stable surface:
//! [`ServerConfig`], [`HttpServer::bind`], and graceful
//! [`shutdown`](HttpServer::shutdown).
//!
//! Compared to the original thread-per-connection pool, concurrency is
//! no longer bounded by worker count: ten thousand idle keep-alive
//! connections cost ten thousand registered file descriptors and some
//! buffers, not ten thousand blocked threads. A connection consumes a
//! worker only while its request handler runs.
//!
//! The server still enacts [`ConnectionFault`]s from a seeded
//! [`ConnectionFaultSchedule`] — refuse-on-accept, stalls, truncated
//! responses — which is how `pe-net`'s resilience tests drive the client
//! through real wire failures.
//!
//! [`ConnectionFault`]: pe_cloud::fault::ConnectionFault
//! [`ConnectionFaultSchedule`]: pe_cloud::fault::ConnectionFaultSchedule

use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

use pe_cloud::fault::ConnectionFaultSchedule;

use crate::event::{self, EventServer, LoopConfig, LoopShared};
use crate::Service;

/// Tuning knobs for [`HttpServer`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads running request handlers. `0` runs handlers inline
    /// on the event loop: lowest latency, but a slow handler then stalls
    /// every connection — only for services known to be fast.
    pub workers: usize,
    /// Bound of the decoded-request dispatch queue. When full, further
    /// complete requests park their connections (reads masked) until a
    /// worker frees up — backpressure instead of unbounded queueing.
    pub accept_backlog: usize,
    /// Read budget: how long a keep-alive connection may sit idle, and
    /// how long a request may take from its *first byte* to a complete
    /// parse. The request deadline is not extended by trickling bytes,
    /// so slow-loris clients are closed on schedule.
    pub read_timeout: Duration,
    /// How long a response flush may remain unfinished.
    pub write_timeout: Duration,
    /// Budget for a *parked* long-poll subscription (a service returned
    /// [`Served::Parked`](crate::Served::Parked)). Deliberately separate
    /// from `read_timeout`: a parked subscriber has already delivered a
    /// complete request and is not a slow-loris, so it may outlive the
    /// request deadline; when this budget expires the service's timeout
    /// response is sent and the connection continues normally.
    pub subscription_timeout: Duration,
    /// Whether to honor keep-alive (false forces one request per
    /// connection).
    pub keep_alive: bool,
    /// Maximum concurrently open connections. At the cap the listener is
    /// unarmed (pending connections wait in the kernel backlog) and
    /// re-armed as connections close.
    pub max_conns: usize,
    /// Use the portable `poll(2)` backend even where `epoll` is
    /// available (tests / comparison runs). Defaults to the
    /// `PE_NET_FORCE_POLL` environment variable.
    pub force_poll: bool,
    /// How long shutdown waits for in-flight requests to finish before
    /// force-closing their connections.
    pub drain: Duration,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            workers: 4,
            accept_backlog: 128,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            subscription_timeout: Duration::from_secs(30),
            keep_alive: true,
            max_conns: 8192,
            force_poll: std::env::var_os("PE_NET_FORCE_POLL").is_some(),
            drain: Duration::from_secs(5),
        }
    }
}

/// A running HTTP server bound to a local address.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use pe_cloud::docs::DocsServer;
/// use pe_net::{HttpServer, ServerConfig};
///
/// let server = HttpServer::bind(
///     "127.0.0.1:0",
///     Arc::new(DocsServer::new()),
///     ServerConfig::default(),
/// )
/// .unwrap();
/// let addr = server.local_addr();
/// // … point an HttpClient at `addr` …
/// server.shutdown();
/// # let _ = addr;
/// ```
pub struct HttpServer {
    addr: SocketAddr,
    inner: EventServer,
}

impl HttpServer {
    /// Binds to `addr` and starts serving `service`.
    ///
    /// # Errors
    ///
    /// Propagates socket errors from binding the listener or creating
    /// the readiness poller.
    pub fn bind(
        addr: impl ToSocketAddrs,
        service: Arc<dyn Service>,
        config: ServerConfig,
    ) -> std::io::Result<HttpServer> {
        HttpServer::bind_with_faults(addr, service, config, None)
    }

    /// Like [`HttpServer::bind`] but enacting connection faults from
    /// `faults` (tests and resilience drills).
    ///
    /// # Errors
    ///
    /// Propagates socket errors from binding the listener or creating
    /// the readiness poller.
    pub fn bind_with_faults(
        addr: impl ToSocketAddrs,
        service: Arc<dyn Service>,
        config: ServerConfig,
        faults: Option<Arc<ConnectionFaultSchedule>>,
    ) -> std::io::Result<HttpServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shared = LoopShared {
            service,
            faults,
            shutdown: Arc::new(AtomicBool::new(false)),
            keep_alive: config.keep_alive,
        };
        let loop_config = LoopConfig {
            read_timeout: config.read_timeout,
            write_timeout: config.write_timeout,
            subscription_timeout: config.subscription_timeout,
            max_conns: config.max_conns.max(1),
            queue: config.accept_backlog.max(1),
            workers: config.workers,
            force_poll: config.force_poll,
            drain: config.drain,
        };
        let inner = event::spawn(listener, shared, loop_config)?;
        Ok(HttpServer { addr, inner })
    }

    /// The address the server actually bound (resolves `:0` requests).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Signals shutdown and blocks until every thread has exited.
    /// Accepting stops immediately; in-flight requests finish and flush
    /// (bounded by [`ServerConfig::drain`]); idle connections close.
    pub fn shutdown(mut self) {
        self.inner.begin_shutdown();
        if let Some(event_loop) = self.inner.loop_thread.take() {
            let _ = event_loop.join();
        }
        for worker in self.inner.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        // `shutdown()` takes self and joins; a plain drop still stops the
        // threads, just without blocking on them.
        self.inner.begin_shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec;
    use pe_cloud::docs::DocsServer;
    use pe_cloud::{Request, Response};
    use std::io::{BufReader, Write};
    use std::net::TcpStream;

    fn start(service: Arc<dyn Service>) -> HttpServer {
        HttpServer::bind(
            "127.0.0.1:0",
            service,
            ServerConfig { read_timeout: Duration::from_millis(500), ..ServerConfig::default() },
        )
        .expect("bind loopback")
    }

    fn raw_exchange(addr: SocketAddr, request: &Request, keep_alive: bool) -> Response {
        let mut stream = TcpStream::connect(addr).unwrap();
        let bytes = codec::request_bytes(request, keep_alive).unwrap();
        stream.write_all(&bytes).unwrap();
        let mut reader = BufReader::new(stream);
        codec::read_response(&mut reader).unwrap().response
    }

    #[test]
    fn serves_a_docs_request_over_a_socket() {
        let server = start(Arc::new(DocsServer::new()));
        let resp =
            raw_exchange(server.local_addr(), &Request::post("/Doc", &[("cmd", "create")], ""), false);
        assert!(resp.is_success());
        assert!(resp.body_text().unwrap().contains("docID"));
        server.shutdown();
    }

    #[test]
    fn keep_alive_serves_multiple_requests_on_one_connection() {
        let server = start(Arc::new(DocsServer::new()));
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        for _ in 0..3 {
            let bytes =
                codec::request_bytes(&Request::post("/Doc", &[("cmd", "create")], ""), true)
                    .unwrap();
            writer.write_all(&bytes).unwrap();
            let parsed = codec::read_response(&mut reader).unwrap();
            assert!(parsed.response.is_success());
            assert!(parsed.keep_alive);
        }
        server.shutdown();
    }

    #[test]
    fn malformed_input_gets_a_400_not_a_hang() {
        let server = start(Arc::new(DocsServer::new()));
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream.write_all(b"NONSENSE\r\n\r\n").unwrap();
        let mut reader = BufReader::new(stream);
        let parsed = codec::read_response(&mut reader).unwrap();
        assert_eq!(parsed.response.status, 400);
        server.shutdown();
    }

    #[test]
    fn shutdown_joins_cleanly_and_frees_the_port() {
        let server = start(Arc::new(DocsServer::new()));
        let addr = server.local_addr();
        server.shutdown();
        // The port is released: a new bind to the same address succeeds.
        let rebind = TcpListener::bind(addr);
        assert!(rebind.is_ok(), "port still held after shutdown: {rebind:?}");
    }

    #[test]
    fn inline_workers_zero_serves_requests() {
        let server = HttpServer::bind(
            "127.0.0.1:0",
            Arc::new(DocsServer::new()),
            ServerConfig { workers: 0, ..ServerConfig::default() },
        )
        .unwrap();
        let resp =
            raw_exchange(server.local_addr(), &Request::post("/Doc", &[("cmd", "create")], ""), false);
        assert!(resp.is_success());
        server.shutdown();
    }

    #[test]
    fn poll_backend_serves_requests_too() {
        let server = HttpServer::bind(
            "127.0.0.1:0",
            Arc::new(DocsServer::new()),
            ServerConfig { force_poll: true, ..ServerConfig::default() },
        )
        .unwrap();
        let resp =
            raw_exchange(server.local_addr(), &Request::post("/Doc", &[("cmd", "create")], ""), false);
        assert!(resp.is_success());
        server.shutdown();
    }

    /// A service that parks `/wait` requests. Wakers are stashed so the
    /// test controls exactly when (or whether) a subscriber is woken; on
    /// re-dispatch after a wake it answers immediately.
    struct ParkingService {
        wakers: std::sync::Mutex<Vec<crate::Waker>>,
        release: std::sync::atomic::AtomicBool,
    }

    impl ParkingService {
        fn new() -> ParkingService {
            ParkingService {
                wakers: std::sync::Mutex::new(Vec::new()),
                release: std::sync::atomic::AtomicBool::new(false),
            }
        }
    }

    impl crate::Service for ParkingService {
        fn call(&self, _request: &Request) -> Response {
            Response::ok("immediate")
        }

        fn call_deferred(&self, request: &Request, waker: crate::Waker) -> crate::Served {
            if request.path == "/wait" {
                if self.release.load(std::sync::atomic::Ordering::SeqCst) {
                    return crate::Served::Response(Response::ok("woken"));
                }
                self.wakers.lock().unwrap().push(waker);
                return crate::Served::Parked {
                    on_timeout: Response::ok("poll-timeout"),
                    wait: None,
                };
            }
            crate::Served::Response(self.call(request))
        }
    }

    #[test]
    fn parked_subscriber_outlives_request_deadline_while_slow_loris_dies() {
        let service = Arc::new(ParkingService::new());
        let server = HttpServer::bind(
            "127.0.0.1:0",
            service.clone(),
            ServerConfig {
                read_timeout: Duration::from_millis(300),
                subscription_timeout: Duration::from_secs(5),
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let addr = server.local_addr();

        // The subscriber: a complete /wait request that the service parks.
        let mut sub = TcpStream::connect(addr).unwrap();
        sub.write_all(&codec::request_bytes(&Request::get("/wait", &[]), true).unwrap())
            .unwrap();

        // The slow-loris: dribbles a partial request and stalls.
        let mut loris = TcpStream::connect(addr).unwrap();
        loris.write_all(b"GET /wait HTT").unwrap();

        // Well past the 300 ms request deadline.
        std::thread::sleep(Duration::from_millis(900));

        // The slow-loris connection is dead: its write eventually fails
        // or its read returns EOF without a response.
        loris.set_read_timeout(Some(Duration::from_millis(500))).unwrap();
        let mut buf = [0u8; 16];
        use std::io::Read;
        match loris.read(&mut buf) {
            Ok(0) => {} // clean close, no response bytes
            Ok(n) => panic!("slow-loris got {n} response bytes instead of a close"),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                panic!("slow-loris connection still open past the request deadline")
            }
            Err(_) => {} // reset — also closed
        }

        // The parked subscriber is still open; wake it and get the data.
        service.release.store(true, std::sync::atomic::Ordering::SeqCst);
        for waker in service.wakers.lock().unwrap().drain(..) {
            waker.wake();
        }
        sub.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut reader = BufReader::new(sub);
        let parsed = codec::read_response(&mut reader).unwrap();
        assert_eq!(parsed.response.body_text(), Some("woken"));
        server.shutdown();
    }

    /// Fires its waker *before* returning `Parked`, then lingers, so the
    /// loop sees the wake while the park completion is still on its way —
    /// the order a publish racing a subscribe produces.
    struct RacingService {
        woken: std::sync::atomic::AtomicBool,
    }

    impl crate::Service for RacingService {
        fn call(&self, _request: &Request) -> Response {
            Response::ok("immediate")
        }

        fn call_deferred(&self, _request: &Request, waker: crate::Waker) -> crate::Served {
            if self.woken.swap(true, std::sync::atomic::Ordering::SeqCst) {
                return crate::Served::Response(Response::ok("woken"));
            }
            waker.wake();
            std::thread::sleep(Duration::from_millis(100));
            crate::Served::Parked { on_timeout: Response::ok("poll-timeout"), wait: None }
        }
    }

    #[test]
    fn a_wake_that_races_the_park_is_not_lost() {
        let service = Arc::new(RacingService { woken: std::sync::atomic::AtomicBool::new(false) });
        let server = HttpServer::bind(
            "127.0.0.1:0",
            service,
            ServerConfig {
                subscription_timeout: Duration::from_secs(10),
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let started = std::time::Instant::now();
        let resp = raw_exchange(server.local_addr(), &Request::get("/race", &[]), false);
        assert_eq!(resp.body_text(), Some("woken"), "the early wake was dropped");
        assert!(started.elapsed() < Duration::from_secs(5), "waited out the subscription");
        server.shutdown();
    }

    #[test]
    fn subscription_deadline_sends_timeout_response_and_keeps_the_connection() {
        let service = Arc::new(ParkingService::new());
        let server = HttpServer::bind(
            "127.0.0.1:0",
            service.clone(),
            ServerConfig {
                read_timeout: Duration::from_secs(5),
                subscription_timeout: Duration::from_millis(200),
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let addr = server.local_addr();
        let stream = TcpStream::connect(addr).unwrap();
        let mut writer = stream.try_clone().unwrap();
        writer
            .write_all(&codec::request_bytes(&Request::get("/wait", &[]), true).unwrap())
            .unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut reader = BufReader::new(stream);
        let parsed = codec::read_response(&mut reader).unwrap();
        assert_eq!(parsed.response.body_text(), Some("poll-timeout"));
        assert!(parsed.keep_alive, "connection survives a poll timeout");
        // The same connection serves an ordinary request afterwards.
        writer
            .write_all(&codec::request_bytes(&Request::get("/other", &[]), true).unwrap())
            .unwrap();
        let parsed = codec::read_response(&mut reader).unwrap();
        assert_eq!(parsed.response.body_text(), Some("immediate"));
        server.shutdown();
    }

    #[test]
    fn pipelined_requests_all_get_responses() {
        let server = start(Arc::new(DocsServer::new()));
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        let mut burst = Vec::new();
        for _ in 0..3 {
            burst.extend_from_slice(
                &codec::request_bytes(&Request::post("/Doc", &[("cmd", "create")], ""), true)
                    .unwrap(),
            );
        }
        stream.write_all(&burst).unwrap();
        let mut reader = BufReader::new(stream);
        for _ in 0..3 {
            let parsed = codec::read_response(&mut reader).unwrap();
            assert!(parsed.response.is_success());
        }
        server.shutdown();
    }
}
