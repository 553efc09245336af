//! The full simulated client: session management, autosave, and the
//! Ack-hash conflict check.

use pe_cloud::retry::BackoffPolicy;
use pe_cloud::{CloudService, Request, Response};
use pe_crypto::form;
use pe_crypto::hex;
use pe_crypto::sha256::Sha256;
use pe_delta::{diff, Delta, Side};
use pe_extension::{DocsMediator, ExtensionError};

use crate::editor::Editor;

/// The client's communication channel: either straight to the server or
/// through the privacy mediator. This is where "with extension" vs
/// "without extension" differs in the benchmarks.
pub trait Channel {
    /// Sends one request, returning the response the client sees.
    fn exchange(&mut self, request: &Request) -> Response;
}

/// Direct connection to a cloud service (no privacy extension).
#[derive(Debug)]
pub struct DirectChannel<S>(pub S);

impl<S: CloudService> Channel for DirectChannel<S> {
    fn exchange(&mut self, request: &Request) -> Response {
        self.0.handle(request)
    }
}

/// Connection through the privacy mediator ("with extension").
pub struct PrivateChannel<S>(pub DocsMediator<S>);

impl<S: CloudService> Channel for PrivateChannel<S> {
    fn exchange(&mut self, request: &Request) -> Response {
        match self.0.intercept(request) {
            Ok(mediated) => mediated.response,
            Err(e) => match e {
                ExtensionError::ServerError { status, message } => {
                    Response::error(status, &message)
                }
                other => Response::error(502, &other.to_string()),
            },
        }
    }
}

/// Result of a save attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SaveOutcome {
    /// The server accepted the update and the Ack was consistent.
    Saved,
    /// The Ack hash disagreed with the client's view, or the server
    /// rejected the delta — "multiple people editing" (§VII-A).
    Conflict,
    /// There was nothing to save.
    Clean,
}

/// A simulated Google-Documents client: an [`Editor`] bound to a document
/// on a [`Channel`].
///
/// Protocol behaviour follows §IV-A: the first save of every session
/// sends the full `docContents`; later saves send deltas; every Ack's
/// `contentFromServerHash` is compared against the hash of the client's
/// own content (a `0` hash — what the extension substitutes — is accepted
/// silently, which is exactly why single-user sessions work and
/// concurrent sessions conflict).
///
/// The editor's pending delta is the only record of edits the server
/// has not accepted: a save consumes it only when the server accepts
/// the save, and every resynchronization rebases it over whatever
/// changed server-side.
pub struct DocsClient<C> {
    channel: C,
    doc_id: String,
    editor: Editor,
    /// Content as of the last successful synchronization with the server
    /// (the base the editor's pending delta applies to).
    synced: String,
    sent_full_save: bool,
    /// Set when the server rejected a save, or acknowledged one with a
    /// hash that differs from ours: `synced` no longer matches the
    /// server, so saves answer `Conflict` without sending anything until
    /// the client resynchronizes (a folded foreign change, a merge of
    /// server content, a noted server version, or a refresh).
    needs_resync: bool,
    conflicts: usize,
    /// Server version carried by the last successful save Ack — the
    /// change-stream sequence of the client's own save, used by live
    /// sessions to suppress the echo of their own change.
    last_ack_version: Option<u64>,
    /// Server version `synced` is known to correspond to, when armed.
    /// Sent as the `baseVersion` precondition on delta saves so a save
    /// racing a collaborator is rejected (409) instead of landing on a
    /// base it was not computed against. Arming is **opt-in** via
    /// [`DocsClient::note_server_version`] (live sessions do this):
    /// classic plaintext sessions stay on the paper's Ack-hash conflict
    /// detection and never send the precondition, so their observable
    /// protocol is unchanged. Once armed, every save ack refreshes it.
    base_version: Option<u64>,
    /// When the last save request was handed to the channel — the
    /// moment before the send, whatever the server answered.
    last_save_sent: Option<std::time::Instant>,
    /// Delay schedule between failed save attempts. Hammering a
    /// struggling server with zero-delay retries only feeds the
    /// overload; seeded jitter keeps runs reproducible.
    backoff: BackoffPolicy,
}

impl<C: Channel> DocsClient<C> {
    /// Opens an editing session on `doc_id`, loading the current content.
    ///
    /// # Errors
    ///
    /// Returns the raw error response on failure.
    pub fn open(mut channel: C, doc_id: &str) -> Result<DocsClient<C>, Response> {
        let response =
            channel.exchange(&Request::post("/Doc", &[("docID", doc_id), ("cmd", "open")], ""));
        if !response.is_success() {
            return Err(response);
        }
        let body = response.body_text().unwrap_or("");
        let pairs = form::parse_pairs(body).unwrap_or_default();
        let content = form::first_value(&pairs, "content").unwrap_or("").to_string();
        Ok(DocsClient {
            channel,
            doc_id: doc_id.to_string(),
            editor: Editor::new(&content),
            synced: content,
            sent_full_save: false,
            needs_resync: false,
            conflicts: 0,
            last_ack_version: None,
            last_save_sent: None,
            base_version: None,
            backoff: BackoffPolicy::client_default(0),
        })
    }

    /// Replaces the retry backoff schedule (builder style).
    #[must_use]
    pub fn with_backoff(mut self, backoff: BackoffPolicy) -> DocsClient<C> {
        self.backoff = backoff;
        self
    }

    /// Replaces the retry backoff schedule in place.
    pub fn set_backoff(&mut self, backoff: BackoffPolicy) {
        self.backoff = backoff;
    }

    /// Sleeps per the backoff schedule before retry number `attempt`
    /// (0-based), recording the actual delay.
    pub fn backoff_pause(&self, attempt: u32) {
        let slept = self.backoff.sleep(attempt);
        pe_observe::static_histogram!("client.retry_backoff_ns")
            .record(slept.as_nanos() as u64);
    }

    /// The local editor.
    pub fn editor(&mut self) -> &mut Editor {
        &mut self.editor
    }

    /// The client's current view of the document.
    pub fn content(&self) -> &str {
        self.editor.content()
    }

    /// Number of conflicts ("multiple people editing") seen so far.
    pub fn conflicts(&self) -> usize {
        self.conflicts
    }

    /// Releases the channel (for inspecting the mediator afterwards).
    pub fn into_channel(self) -> C {
        self.channel
    }

    /// The document this session edits.
    pub fn doc_id(&self) -> &str {
        &self.doc_id
    }

    /// Borrows the channel (live sessions route out-of-band requests —
    /// change polls, presence — through the same mediator/transport).
    pub fn channel(&mut self) -> &mut C {
        &mut self.channel
    }

    /// Server version acknowledged for this client's most recent save,
    /// if the server reports versions.
    pub fn last_ack_version(&self) -> Option<u64> {
        self.last_ack_version
    }

    /// When the last save request was sent (stamped just before the
    /// send). After a save that came back `Saved`, this is the send the
    /// server acknowledged: latency benches measure delivery from here,
    /// since the server fans a save out before its ack returns.
    pub fn last_save_sent(&self) -> Option<std::time::Instant> {
        self.last_save_sent
    }

    /// Applies a *foreign* delta pushed from the change stream: unsent
    /// local edits are rebased over it with operational transformation,
    /// so the buffer keeps the user's intent on top of the collaborator's
    /// change and the sync point advances to the server's new content.
    ///
    /// # Errors
    ///
    /// Returns the delta error when `foreign` does not apply to the sync
    /// point (the stream and the session disagree about the base — the
    /// caller should fall back to a full resync). State is untouched.
    pub fn apply_foreign_delta(&mut self, foreign: &Delta) -> Result<(), pe_delta::DeltaError> {
        let new_synced = foreign.apply(&self.synced)?;
        pe_observe::static_counter!("client.foreign_deltas").inc();
        self.rebase_onto(foreign, new_synced);
        Ok(())
    }

    /// Records the server version the current sync point corresponds to.
    /// Live sessions call this after folding stream changes at a known
    /// sequence, re-arming the `baseVersion` save precondition that
    /// [`DocsClient::apply_foreign_delta`] and
    /// [`DocsClient::merge_server_content`] conservatively clear. The
    /// server holds the sync point at that version, so later saves are
    /// deltas against it.
    pub fn note_server_version(&mut self, version: u64) {
        self.base_version = Some(version);
        self.sent_full_save = true;
        self.needs_resync = false;
    }

    /// Resynchronizes on authoritative server content (the change
    /// stream's full-content fallback) while preserving unsent local
    /// edits, rebasing them over whatever changed server-side.
    pub fn merge_server_content(&mut self, server_content: &str) {
        if server_content == self.synced {
            self.needs_resync = false;
            return;
        }
        let foreign = diff(&self.synced, server_content);
        self.rebase_onto(&foreign, server_content.to_string());
    }

    /// The one rebase routine behind both resync paths: moves the sync
    /// point over `foreign` (a change the server applied to `synced`,
    /// yielding `new_synced`) and rebases the pending delta — exactly the
    /// unsent edits — over it.
    fn rebase_onto(&mut self, foreign: &Delta, new_synced: String) {
        let base_len = self.synced.chars().count();
        let rebased = match self.editor.pending().transform(foreign, base_len, Side::Right) {
            Ok(rebased) => rebased,
            // Two deltas over their common base always transform;
            // defensively drop local edits rather than diverging from
            // the server.
            Err(_) => {
                pe_observe::static_counter!("client.merge_transform_failures").inc();
                Delta::new()
            }
        };
        self.editor.reset(&new_synced);
        if !rebased.is_identity() {
            pe_observe::static_counter!("client.merges").inc();
            self.editor.apply(rebased);
        }
        self.synced = new_synced;
        // The server already holds the new base; stay incremental. Its
        // version is unknown until the caller reports it.
        self.sent_full_save = true;
        self.base_version = None;
        self.needs_resync = false;
    }

    fn local_hash(&self) -> String {
        hex::encode(&Sha256::digest(self.editor.content().as_bytes())[..8])
    }

    /// Saves pending edits: a full `docContents` save the first time, a
    /// delta save afterwards, mirroring the observed client behaviour.
    /// After a `Conflict` the edits stay pending, and later saves answer
    /// `Conflict` without a request until the client resynchronizes.
    pub fn save(&mut self) -> SaveOutcome {
        self.save_inner().0
    }

    /// Like [`DocsClient::save`] but also exposes the server's status
    /// code so callers can tell transient failures (5xx) from conflicts.
    fn save_inner(&mut self) -> (SaveOutcome, u16) {
        if self.needs_resync {
            return (SaveOutcome::Conflict, 409);
        }
        if self.sent_full_save && !self.editor.has_pending() {
            return (SaveOutcome::Clean, 200);
        }
        pe_observe::static_counter!("client.save_attempts").inc();
        let body = if self.sent_full_save {
            let mut fields: Vec<(&str, String)> =
                vec![("delta", self.editor.pending().serialize())];
            if let Some(base) = self.base_version {
                fields.push(("baseVersion", base.to_string()));
            }
            let pairs: Vec<(&str, &str)> =
                fields.iter().map(|(k, v)| (*k, v.as_str())).collect();
            form::encode_pairs(&pairs)
        } else {
            form::encode_pairs(&[("docContents", self.editor.content())])
        };
        self.last_save_sent = Some(std::time::Instant::now());
        let response =
            self.channel.exchange(&Request::post("/Doc", &[("docID", &self.doc_id)], body));
        if !response.is_success() {
            self.conflicts += 1;
            self.needs_resync = true;
            pe_observe::static_counter!("client.save_conflicts").inc();
            return (SaveOutcome::Conflict, response.status);
        }
        // The server holds the edits now (a full save folds them in).
        self.editor.take_pending();
        self.sent_full_save = true;
        let body = response.body_text().unwrap_or("");
        let pairs = form::parse_pairs(body).unwrap_or_default();
        let ack_hash = form::first_value(&pairs, "contentFromServerHash").unwrap_or("");
        if let Some(version) = form::first_value(&pairs, "version").and_then(|v| v.parse().ok())
        {
            self.last_ack_version = Some(version);
        }
        if ack_hash == "0" || ack_hash == self.local_hash() {
            self.synced = self.editor.content().to_string();
            if self.base_version.is_some() {
                self.base_version = self.last_ack_version;
            }
            (SaveOutcome::Saved, response.status)
        } else {
            self.conflicts += 1;
            self.needs_resync = true;
            pe_observe::static_counter!("client.save_conflicts").inc();
            pe_observe::static_counter!("client.save_ack_divergence").inc();
            (SaveOutcome::Conflict, response.status)
        }
    }

    /// Saves with bounded retries: **transient** failures (5xx — a flaky
    /// transport or server front-end) are retried up to `attempts` times,
    /// re-establishing the session with a full save of the still-pending
    /// edits. Genuine conflicts (409 / Ack-hash mismatch, i.e. another
    /// writer) are returned immediately for the caller to resolve via
    /// [`DocsClient::refresh`] — blindly retrying those would clobber the
    /// other writer.
    pub fn save_with_retry(&mut self, attempts: usize) -> SaveOutcome {
        for attempt in 1..=attempts.max(1) {
            let (outcome, status) = self.save_inner();
            match outcome {
                SaveOutcome::Saved | SaveOutcome::Clean => {
                    pe_observe::static_histogram!("client.retries_to_success")
                        .record(attempt as u64 - 1);
                    return outcome;
                }
                SaveOutcome::Conflict if status >= 500 => {
                    // Transient: nothing landed and the edits are still
                    // pending; the next attempt re-establishes server
                    // state via a full save.
                    pe_observe::static_counter!("client.save_retries").inc();
                    self.sent_full_save = false;
                    self.needs_resync = false;
                    if attempt < attempts.max(1) {
                        self.backoff_pause(attempt as u32 - 1);
                    }
                }
                SaveOutcome::Conflict => return SaveOutcome::Conflict,
            }
        }
        SaveOutcome::Conflict
    }

    /// Refreshes the buffer from the server (the passive-reader /
    /// post-conflict path). Discards pending local edits.
    ///
    /// # Errors
    ///
    /// Returns the raw error response on failure.
    pub fn refresh(&mut self) -> Result<(), Response> {
        let response = self
            .channel
            .exchange(&Request::get("/Doc/load", &[("docID", &self.doc_id)]));
        if !response.is_success() {
            return Err(response);
        }
        let body = response.body_text().unwrap_or("");
        let pairs = form::parse_pairs(body).unwrap_or_default();
        let content = form::first_value(&pairs, "content").unwrap_or("");
        self.editor.reset(content);
        self.synced = content.to_string();
        self.needs_resync = false;
        // A refresh re-synchronizes the session; subsequent saves may be
        // incremental again only after a full save reestablishes state.
        self.sent_full_save = false;
        Ok(())
    }
}

impl<C> std::fmt::Debug for DocsClient<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DocsClient")
            .field("doc_id", &self.doc_id)
            .field("len", &self.editor.len())
            .field("conflicts", &self.conflicts)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pe_cloud::docs::DocsServer;
    use pe_crypto::CtrDrbg;
    use pe_extension::MediatorConfig;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn new_doc(server: &DocsServer) -> String {
        let resp = server.handle(&Request::post("/Doc", &[("cmd", "create")], ""));
        let pairs = form::parse_pairs(resp.body_text().unwrap()).unwrap();
        form::first_value(&pairs, "docID").unwrap().to_string()
    }

    #[test]
    fn plaintext_session_without_extension() {
        let server = Arc::new(DocsServer::new());
        let doc_id = new_doc(&server);
        let mut client =
            DocsClient::open(DirectChannel(Arc::clone(&server)), &doc_id).unwrap();
        client.editor().insert(0, "plain text editing");
        assert_eq!(client.save(), SaveOutcome::Saved);
        client.editor().replace(0, 5, "CLEAR");
        assert_eq!(client.save(), SaveOutcome::Saved);
        assert_eq!(server.stored_content(&doc_id).unwrap(), "CLEAR text editing");
        assert_eq!(client.conflicts(), 0);
    }

    #[test]
    fn private_session_through_extension() {
        let server = Arc::new(DocsServer::new());
        let doc_id = new_doc(&server);
        let mut mediator = DocsMediator::with_rng(
            Arc::clone(&server),
            MediatorConfig::recb(8),
            CtrDrbg::from_seed(1),
        );
        mediator.register_password(&doc_id, "pw");
        let mut client = DocsClient::open(PrivateChannel(mediator), &doc_id).unwrap();
        client.editor().insert(0, "secret agenda");
        assert_eq!(client.save(), SaveOutcome::Saved);
        client.editor().delete(0, 7);
        assert_eq!(client.save(), SaveOutcome::Saved);
        let stored = server.stored_content(&doc_id).unwrap();
        assert!(!stored.contains("agenda"));
        assert_eq!(client.conflicts(), 0, "single-user private session is flawless");
    }

    #[test]
    fn concurrent_plaintext_clients_detect_conflicts_via_hash() {
        let server = Arc::new(DocsServer::new());
        let doc_id = new_doc(&server);
        let mut alice =
            DocsClient::open(DirectChannel(Arc::clone(&server)), &doc_id).unwrap();
        alice.editor().insert(0, "alice was here. ");
        assert_eq!(alice.save(), SaveOutcome::Saved);
        // Bob joins after Alice's save and establishes his session.
        let mut bob = DocsClient::open(DirectChannel(Arc::clone(&server)), &doc_id).unwrap();
        assert_eq!(bob.save(), SaveOutcome::Saved); // first (full) save
        // Both now edit concurrently; Alice lands first.
        alice.editor().insert(0, "A2 ");
        assert_eq!(alice.save(), SaveOutcome::Saved);
        let bob_len = bob.content().len();
        bob.editor().insert(bob_len, "bob too");
        // Bob's Ack hash reflects a document containing Alice's new text;
        // his local hash differs → conflict detected (plaintext clients
        // detect this properly — unlike under the extension, §VII-A).
        assert_eq!(bob.save(), SaveOutcome::Conflict);
        assert_eq!(bob.conflicts(), 1);
        bob.refresh().unwrap();
        assert!(bob.content().contains("A2 "));
    }

    #[test]
    fn refresh_pulls_server_state() {
        let server = Arc::new(DocsServer::new());
        let doc_id = new_doc(&server);
        let mut writer =
            DocsClient::open(DirectChannel(Arc::clone(&server)), &doc_id).unwrap();
        writer.editor().insert(0, "v1");
        writer.save();
        let mut reader =
            DocsClient::open(DirectChannel(Arc::clone(&server)), &doc_id).unwrap();
        writer.editor().insert(2, " v2");
        writer.save();
        reader.refresh().unwrap();
        assert_eq!(reader.content(), "v1 v2");
    }

    #[test]
    fn clean_save_when_no_edits() {
        let server = Arc::new(DocsServer::new());
        let doc_id = new_doc(&server);
        let mut client =
            DocsClient::open(DirectChannel(Arc::clone(&server)), &doc_id).unwrap();
        client.editor().insert(0, "x");
        assert_eq!(client.save(), SaveOutcome::Saved);
        assert_eq!(client.save(), SaveOutcome::Clean);
    }

    #[test]
    fn save_ack_carries_the_server_version() {
        let server = Arc::new(DocsServer::new());
        let doc_id = new_doc(&server);
        let mut client =
            DocsClient::open(DirectChannel(Arc::clone(&server)), &doc_id).unwrap();
        assert_eq!(client.last_ack_version(), None);
        client.editor().insert(0, "v1");
        assert_eq!(client.save(), SaveOutcome::Saved);
        let first = client.last_ack_version().expect("version in ack");
        client.editor().insert(2, " v2");
        assert_eq!(client.save(), SaveOutcome::Saved);
        let second = client.last_ack_version().expect("version in ack");
        assert!(second > first, "sequence advances per accepted save");
    }

    #[test]
    fn foreign_delta_rebases_pending_local_edits() {
        let server = Arc::new(DocsServer::new());
        let doc_id = new_doc(&server);
        let mut client =
            DocsClient::open(DirectChannel(Arc::clone(&server)), &doc_id).unwrap();
        client.editor().insert(0, "shared base");
        assert_eq!(client.save(), SaveOutcome::Saved);
        // A collaborator lands a change on the server…
        let mut other =
            DocsClient::open(DirectChannel(Arc::clone(&server)), &doc_id).unwrap();
        other.editor().replace(0, 6, "SHARED");
        assert_eq!(other.save(), SaveOutcome::Saved);
        // …while this client holds a pending local edit on the old base.
        client.editor().insert(11, " +local");
        let foreign = diff("shared base", "SHARED base");
        client.apply_foreign_delta(&foreign).unwrap();
        assert_eq!(client.content(), "SHARED base +local");
        // Saving after the merge converges without conflict.
        assert_eq!(client.save(), SaveOutcome::Saved);
        assert_eq!(server.stored_content(&doc_id).unwrap(), "SHARED base +local");
    }

    #[test]
    fn foreign_delta_with_wrong_base_is_an_error() {
        let server = Arc::new(DocsServer::new());
        let doc_id = new_doc(&server);
        let mut client =
            DocsClient::open(DirectChannel(Arc::clone(&server)), &doc_id).unwrap();
        client.editor().insert(0, "abc");
        assert_eq!(client.save(), SaveOutcome::Saved);
        // A delta built against a much longer document cannot apply.
        let foreign = diff("a much longer base document", "a much longer base documentX");
        assert!(client.apply_foreign_delta(&foreign).is_err());
        // State is untouched — the caller resyncs instead.
        assert_eq!(client.content(), "abc");
    }

    /// Counts the requests that reach the server.
    struct Counted(Arc<DocsServer>, Arc<AtomicUsize>);

    impl Channel for Counted {
        fn exchange(&mut self, request: &Request) -> Response {
            self.1.fetch_add(1, Ordering::Relaxed);
            self.0.handle(request)
        }
    }

    #[test]
    fn a_rejected_save_keeps_its_edit_until_the_client_resyncs() {
        let server = Arc::new(DocsServer::new());
        let doc_id = new_doc(&server);
        let sent = Arc::new(AtomicUsize::new(0));
        let mut client =
            DocsClient::open(Counted(Arc::clone(&server), Arc::clone(&sent)), &doc_id).unwrap();
        client.editor().insert(0, "base text");
        assert_eq!(client.save(), SaveOutcome::Saved);
        client.note_server_version(client.last_ack_version().expect("version in ack"));
        client.editor().insert(9, " +a");
        // A collaborator's save lands first, so the armed precondition
        // rejects this client's delta.
        let mut other = DocsClient::open(DirectChannel(Arc::clone(&server)), &doc_id).unwrap();
        other.editor().insert(0, "B");
        assert_eq!(other.save(), SaveOutcome::Saved);
        assert_eq!(client.save(), SaveOutcome::Conflict);

        // The edit is still pending: no `Clean`, and no request either,
        // until the client has folded what landed.
        let before = sent.load(Ordering::Relaxed);
        assert_eq!(client.save(), SaveOutcome::Conflict);
        assert_eq!(sent.load(Ordering::Relaxed), before, "a stale client sends nothing");
        assert_eq!(client.content(), "base text +a");

        client.apply_foreign_delta(&diff("base text", "Bbase text")).unwrap();
        assert_eq!(client.save(), SaveOutcome::Saved);
        assert_eq!(server.stored_content(&doc_id).unwrap(), "Bbase text +a");
        assert_eq!(client.content(), "Bbase text +a");
    }

    #[test]
    fn merge_server_content_preserves_local_intent() {
        let server = Arc::new(DocsServer::new());
        let doc_id = new_doc(&server);
        let mut client =
            DocsClient::open(DirectChannel(Arc::clone(&server)), &doc_id).unwrap();
        client.editor().insert(0, "line one");
        assert_eq!(client.save(), SaveOutcome::Saved);
        let mut other =
            DocsClient::open(DirectChannel(Arc::clone(&server)), &doc_id).unwrap();
        other.editor().replace(0, 4, "LINE");
        assert_eq!(other.save(), SaveOutcome::Saved);
        client.editor().insert(8, " local-tail");
        client.merge_server_content("LINE one");
        assert_eq!(client.content(), "LINE one local-tail");
        assert_eq!(client.save(), SaveOutcome::Saved);
        // Identical content is a no-op that keeps pending edits pending.
        client.merge_server_content("LINE one local-tail");
        assert_eq!(client.save(), SaveOutcome::Clean);
    }
}

#[cfg(test)]
mod retry_tests {
    use super::*;
    use pe_cloud::docs::DocsServer;
    use pe_cloud::fault::FlakyService;
    use pe_crypto::CtrDrbg;
    use pe_extension::{DocsMediator, MediatorConfig};
    use std::sync::Arc;

    fn new_doc(server: &DocsServer) -> String {
        let resp = server.handle(&Request::post("/Doc", &[("cmd", "create")], ""));
        let pairs = form::parse_pairs(resp.body_text().unwrap()).unwrap();
        form::first_value(&pairs, "docID").unwrap().to_string()
    }

    #[test]
    fn retries_survive_a_flaky_transport() {
        let server = Arc::new(DocsServer::new());
        let doc_id = new_doc(&server);
        // Fail roughly one in three requests.
        let flaky = FlakyService::new(Arc::clone(&server), 3, 5);
        let mut client = DocsClient::open(DirectChannel(flaky), &doc_id)
            .or_else(|_| {
                // The open itself may have hit an injected fault; retry.
                let flaky = FlakyService::new(Arc::clone(&server), 3, 6);
                DocsClient::open(DirectChannel(flaky), &doc_id)
            })
            .expect("one of two opens succeeds");
        for i in 0..20 {
            let len = client.content().len();
            client.editor().insert(len, &format!("chunk {i}. "));
            assert_eq!(client.save_with_retry(8), SaveOutcome::Saved, "edit {i}");
        }
        let stored = server.stored_content(&doc_id).unwrap();
        for i in 0..20 {
            assert!(stored.contains(&format!("chunk {i}. ")), "lost edit {i}");
        }
    }

    #[test]
    fn retries_survive_a_flaky_transport_with_extension() {
        let server = Arc::new(DocsServer::new());
        let doc_id = new_doc(&server);
        let flaky = FlakyService::new(Arc::clone(&server), 4, 11);
        let mut mediator =
            DocsMediator::with_rng(flaky, MediatorConfig::recb(8), CtrDrbg::from_seed(1));
        mediator.register_password(&doc_id, "flaky-pw");
        let mut client = DocsClient::open(PrivateChannel(mediator), &doc_id).unwrap();
        for i in 0..15 {
            let len = client.content().len();
            client.editor().insert(len, &format!("private {i}. "));
            assert_eq!(client.save_with_retry(10), SaveOutcome::Saved, "edit {i}");
        }
        // Final state decrypts correctly despite injected faults.
        let mut reader = DocsMediator::with_rng(
            Arc::clone(&server),
            MediatorConfig::recb(8),
            CtrDrbg::from_seed(2),
        );
        reader.register_password(&doc_id, "flaky-pw");
        let text = reader.open_document(&doc_id).unwrap();
        for i in 0..15 {
            assert!(text.contains(&format!("private {i}. ")), "lost edit {i}: {text}");
        }
    }

    #[test]
    fn genuine_conflicts_are_not_retried() {
        let server = Arc::new(DocsServer::new());
        let doc_id = new_doc(&server);
        let mut alice = DocsClient::open(DirectChannel(Arc::clone(&server)), &doc_id).unwrap();
        alice.editor().insert(0, "alice. ");
        alice.save();
        let mut bob = DocsClient::open(DirectChannel(Arc::clone(&server)), &doc_id).unwrap();
        bob.save();
        alice.editor().insert(0, "more alice. ");
        alice.save();
        let bob_len = bob.content().len();
        bob.editor().insert(bob_len, "bob. ");
        // A hash-mismatch conflict must come back immediately. Had the
        // client retried with a full save, the server would hold exactly
        // Bob's (Alice-free) view — it must not.
        assert_eq!(bob.save_with_retry(5), SaveOutcome::Conflict);
        assert_eq!(bob.conflicts(), 1, "exactly one attempt, no retries");
        assert_ne!(server.stored_content(&doc_id).unwrap(), bob.content());
    }

    /// Fails every request that carries a body (i.e. every save), leaving
    /// open/create untouched.
    struct FailSaves(Arc<DocsServer>);

    impl Channel for FailSaves {
        fn exchange(&mut self, request: &Request) -> Response {
            if !request.body.is_empty() {
                return Response::error(500, "backend down");
            }
            self.0.handle(request)
        }
    }

    #[test]
    fn transient_retries_pause_per_the_backoff_schedule() {
        use pe_cloud::retry::BackoffPolicy;
        use std::time::{Duration, Instant};
        let server = Arc::new(DocsServer::new());
        let doc_id = new_doc(&server);
        let mut client = DocsClient::open(FailSaves(Arc::clone(&server)), &doc_id)
            .unwrap()
            .with_backoff(BackoffPolicy::new(
                Duration::from_millis(10),
                Duration::from_millis(10),
                0.0,
                0,
            ));
        client.editor().insert(0, "never lands");
        let started = Instant::now();
        assert_eq!(client.save_with_retry(3), SaveOutcome::Conflict);
        // Three attempts, a 10 ms pause after each of the first two.
        assert!(
            started.elapsed() >= Duration::from_millis(20),
            "retries must be paced, not immediate: {:?}",
            started.elapsed()
        );
    }
}
