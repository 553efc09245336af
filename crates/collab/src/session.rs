//! The client side of live collaboration: [`LiveSession`] drives a
//! [`DocsClient`] from a change-stream subscription.
//!
//! A session owns two channels:
//!
//! * the **edit channel** inside the [`DocsClient`] — open/save/load,
//!   pooled and retried like any other traffic;
//! * the **poll channel** — long-poll `/Doc/changes` plus presence. Over
//!   HTTP this must be a dedicated connection ([`SubscriptionTransport`]
//!   over [`SubscriptionConn`]): a parked long-poll would otherwise pin a
//!   pooled connection for up to the subscription timeout and starve the
//!   pool, and the pool's stale-connection grace retry could silently
//!   double-subscribe.
//!
//! Each [`step`](LiveSession::step) long-polls once and folds the answer
//! into the editor: foreign deltas are applied with operational
//! transformation (pending local edits are rebased, [TP1] convergence is
//! the delta crate's guarantee), our own save echoes are skipped by
//! sequence number, and a `resync` frame falls back to merging full
//! content. [`save`](LiveSession::save) sends the pending edits as one
//! delta against the session's server version; a save that lost a race
//! is rejected, folded in by a step, and retried. The change stream is
//! thus the one way concurrent writers converge, and no save loads the
//! document first. Presence travels sealed — the session encrypts its
//! own cursor with the document key and can only open peers' blobs if
//! it holds the same key; the server relays opaque hex.
//!
//! [TP1]: pe_delta::Delta::transform

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Duration;

use pe_client::{Channel, DocsClient, SaveOutcome};
use pe_cloud::docs::SaveChange;
use pe_cloud::{CloudService, Request, Response};
use pe_core::{Presence, PresenceSealer};
use pe_crypto::form;
use pe_delta::Delta;
use pe_net::{HttpClient, SubscriptionConn};

/// Save attempts [`LiveSession::save`] makes before it reports `Conflict`.
const SAVE_ATTEMPTS: u32 = 4;

/// Why a live session could not make progress.
#[derive(Debug)]
pub enum CollabError {
    /// The server (or transport) answered with a failure status.
    Server {
        /// HTTP-ish status code.
        status: u16,
        /// Server-provided message.
        message: String,
    },
    /// The change-stream answer did not parse.
    Protocol(String),
}

impl std::fmt::Display for CollabError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CollabError::Server { status, message } => {
                write!(f, "server error {status}: {message}")
            }
            CollabError::Protocol(msg) => write!(f, "protocol error: {msg}"),
        }
    }
}

impl std::error::Error for CollabError {}

fn protocol(msg: impl Into<String>) -> CollabError {
    CollabError::Protocol(msg.into())
}

fn server_error(response: &Response) -> CollabError {
    CollabError::Server {
        status: response.status,
        message: response.body_text().unwrap_or("<binary>").to_string(),
    }
}

/// Builds the long-poll request for one subscription round.
pub fn changes_request(doc_id: &str, since: u64, wait: Duration) -> Request {
    Request::get(
        "/Doc/changes",
        &[
            ("docID", doc_id),
            ("since", &since.to_string()),
            ("waitMs", &wait.as_millis().to_string()),
        ],
    )
}

/// One parsed `/Doc/changes` answer (see the wire protocol in
/// [`crate::live`]).
#[derive(Debug, Default)]
pub struct ChangesUpdate {
    /// The server's head sequence after this answer.
    pub head: u64,
    /// The poll expired with nothing new.
    pub timed_out: bool,
    /// Full authoritative content: the cursor was unservable.
    pub resync_content: Option<String>,
    /// `(seq, change)` pairs, ascending.
    pub changes: Vec<(u64, SaveChange)>,
    /// Sealed presence blobs, `(client_token, sealed_hex)`.
    pub presence: Vec<(String, String)>,
}

/// Parses a `/Doc/changes` response body.
///
/// # Errors
///
/// [`CollabError::Protocol`] when a required field is missing or a
/// `change` entry is malformed.
pub fn parse_changes(body: &str) -> Result<ChangesUpdate, CollabError> {
    let pairs = form::parse_pairs(body).map_err(|e| protocol(format!("bad form body: {e}")))?;
    let head = form::first_value(&pairs, "seq")
        .ok_or_else(|| protocol("missing seq"))?
        .parse::<u64>()
        .map_err(|_| protocol("malformed seq"))?;
    let mut update = ChangesUpdate { head, ..ChangesUpdate::default() };
    update.timed_out = form::first_value(&pairs, "timeout") == Some("1");
    if form::first_value(&pairs, "resync") == Some("1") {
        let content =
            form::first_value(&pairs, "content").ok_or_else(|| protocol("resync sans content"))?;
        update.resync_content = Some(content.to_string());
    }
    for (key, value) in &pairs {
        match key.as_str() {
            "change" => {
                let mut parts = value.splitn(3, ':');
                let (seq, kind, payload) = match (parts.next(), parts.next(), parts.next()) {
                    (Some(seq), Some(kind), Some(payload)) => (seq, kind, payload),
                    _ => return Err(protocol(format!("malformed change entry: {value}"))),
                };
                let seq =
                    seq.parse::<u64>().map_err(|_| protocol("malformed change sequence"))?;
                let change = match kind {
                    "full" => SaveChange::Full(payload.to_string()),
                    "delta" => SaveChange::Delta(payload.to_string()),
                    other => return Err(protocol(format!("unknown change kind: {other}"))),
                };
                update.changes.push((seq, change));
            }
            "presence" => {
                if let Some((client, sealed)) = value.split_once(':') {
                    update.presence.push((client.to_string(), sealed.to_string()));
                }
            }
            _ => {}
        }
    }
    Ok(update)
}

/// A [`CloudService`] over a dedicated, pool-exempt
/// [`SubscriptionConn`] — the HTTP poll channel of a [`LiveSession`]
/// (optionally behind a mediator, which then translates the ciphertext
/// stream on this same dedicated socket).
pub struct SubscriptionTransport {
    conn: Mutex<SubscriptionConn>,
}

impl SubscriptionTransport {
    /// Dedicates one connection off `client`'s dial configuration.
    /// `read_timeout` must exceed the server's subscription timeout or
    /// parked polls will be cut off client-side.
    pub fn new(client: &HttpClient, read_timeout: Duration) -> SubscriptionTransport {
        SubscriptionTransport { conn: Mutex::new(client.subscription(read_timeout)) }
    }
}

impl std::fmt::Debug for SubscriptionTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("SubscriptionTransport")
    }
}

impl CloudService for SubscriptionTransport {
    fn handle(&self, request: &Request) -> Response {
        let mut conn = self.conn.lock().unwrap_or_else(|p| p.into_inner());
        match conn.poll(request) {
            Ok(response) => response,
            Err(e) => Response::error(503, &format!("subscription transport: {e}")),
        }
    }

    fn name(&self) -> &'static str {
        "subscription-conn"
    }
}

/// One channel shared between a session's edit path and poll path.
///
/// For **private** documents this is mandatory: the mediator keeps a
/// ciphertext mirror of the server, and that mirror must advance on both
/// our own saves *and* the foreign changes translated out of the stream.
/// Two independent mediators would desynchronize the moment a
/// collaborator's delta lands. Wrap the one mediator-backed channel in a
/// `SharedChannel` and hand clones to [`DocsClient::open`] and
/// [`LiveSession::start`].
pub struct SharedChannel<C: Channel>(std::sync::Arc<Mutex<C>>);

impl<C: Channel> SharedChannel<C> {
    /// Shares `inner` between any number of clones.
    pub fn new(inner: C) -> SharedChannel<C> {
        SharedChannel(std::sync::Arc::new(Mutex::new(inner)))
    }

    /// Runs `f` with the inner channel (inspecting a mediator, etc.).
    pub fn with_inner<R>(&self, f: impl FnOnce(&mut C) -> R) -> R {
        f(&mut self.0.lock().unwrap_or_else(|p| p.into_inner()))
    }
}

impl<C: Channel> Clone for SharedChannel<C> {
    fn clone(&self) -> SharedChannel<C> {
        SharedChannel(std::sync::Arc::clone(&self.0))
    }
}

impl<C: Channel> std::fmt::Debug for SharedChannel<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("SharedChannel")
    }
}

impl<C: Channel> Channel for SharedChannel<C> {
    fn exchange(&mut self, request: &Request) -> Response {
        self.0.lock().unwrap_or_else(|p| p.into_inner()).exchange(request)
    }
}

/// HTTP transport that routes long-polls onto a dedicated connection and
/// everything else onto the shared pool.
///
/// `GET /Doc/changes` goes over a [`SubscriptionTransport`] (never the
/// pool — a parked poll would pin a pooled connection for the whole
/// subscription timeout); saves, loads, and presence go through the
/// pooled [`HttpClient`] with its usual retry policy. Mount a mediator on
/// top of this to get a private live session over real sockets.
pub struct LiveTransport {
    pooled: HttpClient,
    subscription: SubscriptionTransport,
}

impl LiveTransport {
    /// Builds the routed transport; `subscription_read_timeout` must
    /// exceed the server's subscription timeout.
    pub fn new(pooled: HttpClient, subscription_read_timeout: Duration) -> LiveTransport {
        let subscription = SubscriptionTransport::new(&pooled, subscription_read_timeout);
        LiveTransport { pooled, subscription }
    }
}

impl std::fmt::Debug for LiveTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("LiveTransport")
    }
}

impl CloudService for LiveTransport {
    fn handle(&self, request: &Request) -> Response {
        if request.method == pe_cloud::Method::Get && request.path == "/Doc/changes" {
            self.subscription.handle(request)
        } else {
            self.pooled.handle(request)
        }
    }

    fn name(&self) -> &'static str {
        "live-transport"
    }
}

/// What one [`LiveSession::step`] did.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StepOutcome {
    /// Foreign changes folded into the editor.
    pub applied: usize,
    /// The session fell back to a full-content merge.
    pub resynced: bool,
    /// The poll expired with nothing new.
    pub timed_out: bool,
    /// Subscription cursor after the step.
    pub head: u64,
}

/// A live collaborative editing session (see module docs).
pub struct LiveSession<C: Channel, P: Channel> {
    client: DocsClient<C>,
    poll: P,
    since: u64,
    editor_name: String,
    client_token: String,
    sealer: Option<PresenceSealer>,
    cursor: usize,
    presence_nonce: u64,
    peers: HashMap<String, Presence>,
    resyncs: usize,
}

impl<C: Channel, P: Channel> std::fmt::Debug for LiveSession<C, P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LiveSession")
            .field("doc_id", &self.client.doc_id())
            .field("editor", &self.editor_name)
            .field("since", &self.since)
            .finish_non_exhaustive()
    }
}

impl<C: Channel, P: Channel> LiveSession<C, P> {
    /// Joins the live session: learns the server's current head through
    /// the poll channel and subscribes from there. Pass a
    /// [`PresenceSealer`] to publish and read sealed presence (peers
    /// without the key see only opaque blobs).
    ///
    /// # Errors
    ///
    /// [`CollabError::Server`] when the initial load fails.
    pub fn start(
        client: DocsClient<C>,
        poll: P,
        editor_name: &str,
        sealer: Option<PresenceSealer>,
    ) -> Result<LiveSession<C, P>, CollabError> {
        let mut session = LiveSession {
            client,
            poll,
            since: 0,
            editor_name: editor_name.to_string(),
            client_token: Self::token_for(editor_name),
            sealer,
            cursor: 0,
            presence_nonce: 0,
            peers: HashMap::new(),
            resyncs: 0,
        };
        // Learn the head *without* disturbing the editor: a session may
        // join mid-edit, and the client already holds the open content.
        let doc_id = session.client.doc_id().to_string();
        let request = Request::get("/Doc/load", &[("docID", doc_id.as_str())]);
        let response = session.poll.exchange(&request);
        if !response.is_success() {
            return Err(server_error(&response));
        }
        let body = response.body_text().ok_or_else(|| protocol("binary load body"))?;
        let pairs =
            form::parse_pairs(body).map_err(|e| protocol(format!("bad load body: {e}")))?;
        session.since = form::first_value(&pairs, "version")
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| protocol("load answer lacks a version"))?;
        if let Some(content) = form::first_value(&pairs, "content") {
            session.client.merge_server_content(content);
        }
        // Live sessions are version-aware from the first save: arm the
        // optimistic-concurrency precondition at the head just learned.
        session.client.note_server_version(session.since);
        pe_observe::static_counter!("collab.sessions").inc();
        Ok(session)
    }

    /// Short opaque token identifying this editor on the wire. Derived
    /// by hashing so the raw editor name never appears in server-visible
    /// metadata (the sealed blob carries the real name for key holders).
    fn token_for(editor_name: &str) -> String {
        let digest = pe_crypto::sha256::Sha256::digest(editor_name.as_bytes());
        pe_crypto::hex::encode(&digest[..6])
    }

    /// The editing client (make edits through `client().editor()`).
    pub fn client(&mut self) -> &mut DocsClient<C> {
        &mut self.client
    }

    /// Current document text.
    pub fn content(&self) -> &str {
        self.client.content()
    }

    /// The subscription cursor: every change up to and including this
    /// sequence is folded into the editor.
    pub fn since(&self) -> u64 {
        self.since
    }

    /// How many times this session fell back to a full-content resync.
    pub fn resyncs(&self) -> usize {
        self.resyncs
    }

    /// Peers' latest opened presence, by client token (only populated
    /// when this session holds the document key).
    pub fn peers(&self) -> &HashMap<String, Presence> {
        &self.peers
    }

    /// Moves this editor's advertised cursor (published on the next
    /// [`publish_presence`](LiveSession::publish_presence)).
    pub fn set_cursor(&mut self, cursor: usize) {
        self.cursor = cursor;
    }

    /// Saves local edits as a delta against the session's server
    /// version (`baseVersion`). A save that lost the race to a
    /// collaborator comes back `Conflict`; the session then folds what
    /// landed with one zero-wait poll — rebasing the pending edits — and
    /// tries again, up to four attempts with the client's backoff between
    /// them. On `Saved` the subscription cursor moves over our own echo
    /// so the next poll does not re-apply what we just wrote. A
    /// `Conflict` loses nothing: the edits stay pending for the next save.
    pub fn save(&mut self) -> SaveOutcome {
        for attempt in 0..SAVE_ATTEMPTS {
            if attempt > 0 {
                self.client.backoff_pause(attempt - 1);
                if self.step(Duration::ZERO).is_err() {
                    continue;
                }
            }
            match self.client.save() {
                SaveOutcome::Conflict => continue,
                SaveOutcome::Saved => {
                    if let Some(version) = self.client.last_ack_version() {
                        self.since = self.since.max(version);
                    }
                    return SaveOutcome::Saved;
                }
                SaveOutcome::Clean => return SaveOutcome::Clean,
            }
        }
        SaveOutcome::Conflict
    }

    /// Seals and publishes this editor's presence (name + cursor).
    /// No-op without a sealer.
    ///
    /// # Errors
    ///
    /// [`CollabError::Server`] when the presence post fails.
    pub fn publish_presence(&mut self) -> Result<(), CollabError> {
        let Some(sealer) = &self.sealer else {
            return Ok(());
        };
        let me = Presence { editor: self.editor_name.clone(), cursor: self.cursor };
        self.presence_nonce += 1;
        let sealed = sealer.seal(&me, self.presence_nonce);
        let doc_id = self.client.doc_id().to_string();
        let body =
            form::encode_pairs(&[("client", self.client_token.as_str()), ("sealed", &sealed)]);
        let request = Request::post("/Doc/presence", &[("docID", doc_id.as_str())], body);
        let response = self.poll.exchange(&request);
        if !response.is_success() {
            return Err(server_error(&response));
        }
        Ok(())
    }

    /// One subscription round: long-polls up to `wait`, folds pushed
    /// changes into the editor (rebasing pending local edits), updates
    /// peer presence.
    ///
    /// # Errors
    ///
    /// [`CollabError::Server`] on transport/server failure,
    /// [`CollabError::Protocol`] on an unparseable answer. Both leave
    /// the editor state intact; the caller may retry.
    pub fn step(&mut self, wait: Duration) -> Result<StepOutcome, CollabError> {
        let doc_id = self.client.doc_id().to_string();
        let request = changes_request(&doc_id, self.since, wait);
        let response = self.poll.exchange(&request);
        if !response.is_success() {
            return Err(server_error(&response));
        }
        let body = response.body_text().ok_or_else(|| protocol("binary changes body"))?;
        let update = parse_changes(body)?;
        let mut outcome = StepOutcome { timed_out: update.timed_out, ..StepOutcome::default() };

        if let Some(content) = &update.resync_content {
            self.client.merge_server_content(content);
            self.since = update.head;
            self.resyncs += 1;
            outcome.resynced = true;
        } else {
            for (seq, change) in &update.changes {
                if *seq <= self.since {
                    // Our own echo (or an overlap with the cursor) — the
                    // content is already incorporated.
                    continue;
                }
                let folded = match change {
                    SaveChange::Delta(text) => Delta::parse(text)
                        .ok()
                        .and_then(|delta| self.client.apply_foreign_delta(&delta).ok())
                        .is_some(),
                    SaveChange::Full(content) => {
                        self.client.merge_server_content(content);
                        true
                    }
                };
                if folded {
                    self.since = *seq;
                    outcome.applied += 1;
                    pe_observe::static_counter!("collab.applied").inc();
                } else {
                    // The delta did not fit our sync point: reload the
                    // authoritative content instead of guessing.
                    self.reload()?;
                    self.resyncs += 1;
                    outcome.resynced = true;
                    break;
                }
            }
            if !outcome.resynced {
                self.since = self.since.max(update.head);
            }
        }

        if let Some(sealer) = &self.sealer {
            for (token, sealed) in &update.presence {
                if token == &self.client_token {
                    continue;
                }
                if let Some(presence) = sealer.open(sealed) {
                    self.peers.insert(token.clone(), presence);
                }
            }
        }
        // The sync point now corresponds to sequence `since`: re-arm the
        // client's optimistic-concurrency save precondition with it.
        self.client.note_server_version(self.since);
        outcome.head = self.since;
        Ok(outcome)
    }

    /// Full reload through the poll channel: merge authoritative content
    /// and move the cursor to the served version.
    fn reload(&mut self) -> Result<(), CollabError> {
        let doc_id = self.client.doc_id().to_string();
        let request = Request::get("/Doc/load", &[("docID", doc_id.as_str())]);
        let response = self.poll.exchange(&request);
        if !response.is_success() {
            return Err(server_error(&response));
        }
        let body = response.body_text().ok_or_else(|| protocol("binary load body"))?;
        let pairs =
            form::parse_pairs(body).map_err(|e| protocol(format!("bad load body: {e}")))?;
        let content =
            form::first_value(&pairs, "content").ok_or_else(|| protocol("load sans content"))?;
        let version = form::first_value(&pairs, "version")
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| protocol("load answer lacks a version"))?;
        self.client.merge_server_content(content);
        self.since = version;
        self.client.note_server_version(version);
        Ok(())
    }

    /// Ends the session, releasing the client (presence is left to the
    /// server's discretion; blobs are overwritten on the next join).
    pub fn into_client(self) -> DocsClient<C> {
        self.client
    }
}
