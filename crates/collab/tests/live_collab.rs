//! End-to-end live collaboration: multiple sessions over one server —
//! in-process, over real sockets with event-loop parking, and across a
//! durable-store restart (the resume-from-`since` contract).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use pe_client::{Channel, DirectChannel, DocsClient, PrivateChannel, SaveOutcome};
use pe_cloud::docs::DocsServer;
use pe_cloud::fault::FlakyService;
use pe_cloud::{CloudService, Request, Response};
use pe_collab::{
    LiveDocs, LiveService, LiveSession, LiveTransport, SharedChannel, SubscriptionTransport,
};
use pe_core::PresenceSealer;
use pe_crypto::{form, CtrDrbg};
use pe_extension::{DocsMediator, MediatorConfig};
use pe_net::{HttpClient, HttpServer, ServerConfig};
use pe_store::{ShardedLogStore, StoreConfig};

type InProcSession = LiveSession<DirectChannel<Arc<LiveDocs>>, DirectChannel<Arc<LiveDocs>>>;

struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let path = std::env::temp_dir().join(format!(
            "pe-collab-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).unwrap();
        TempDir(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn create_doc(service: &dyn CloudService) -> String {
    let resp = service.handle(&Request::post("/Doc", &[("cmd", "create")], ""));
    let pairs = form::parse_pairs(resp.body_text().unwrap()).unwrap();
    form::first_value(&pairs, "docID").unwrap().to_string()
}

fn join_in_process(live: &Arc<LiveDocs>, doc: &str, name: &str) -> InProcSession {
    let client = DocsClient::open(DirectChannel(Arc::clone(live)), doc).unwrap();
    LiveSession::start(client, DirectChannel(Arc::clone(live)), name, None).unwrap()
}

/// Saves and polls both sessions until neither has pending work, then
/// asserts byte-for-byte convergence.
fn drain_and_assert_converged<C: Channel, P: Channel>(
    a: &mut LiveSession<C, P>,
    b: &mut LiveSession<C, P>,
) {
    for _ in 0..24 {
        let a_saved = a.save();
        let b_saved = b.save();
        a.step(Duration::ZERO).unwrap();
        b.step(Duration::ZERO).unwrap();
        let quiet = (a_saved == SaveOutcome::Clean || a_saved == SaveOutcome::Saved)
            && (b_saved == SaveOutcome::Clean || b_saved == SaveOutcome::Saved);
        if quiet && a.content() == b.content() && a.since() == b.since() {
            break;
        }
    }
    assert_eq!(a.content(), b.content(), "sessions must converge byte-for-byte");
}

#[test]
fn pushed_deltas_reach_the_second_editor() {
    let live = LiveDocs::new(Arc::new(DocsServer::new()));
    let doc = create_doc(&*live);
    let mut alice = join_in_process(&live, &doc, "alice");
    let mut bob = join_in_process(&live, &doc, "bob");

    alice.client().editor().insert(0, "hello from alice");
    assert_eq!(alice.save(), SaveOutcome::Saved);

    let outcome = bob.step(Duration::ZERO).unwrap();
    assert_eq!(outcome.applied, 1);
    assert!(!outcome.resynced);
    assert_eq!(bob.content(), "hello from alice");

    // Alice's own echo is skipped: her step applies nothing.
    let outcome = alice.step(Duration::ZERO).unwrap();
    assert_eq!(outcome.applied, 0);
    assert_eq!(alice.content(), "hello from alice");
}

#[test]
fn pending_local_edits_are_rebased_over_pushed_changes() {
    let live = LiveDocs::new(Arc::new(DocsServer::new()));
    let doc = create_doc(&*live);
    let mut alice = join_in_process(&live, &doc, "alice");
    let mut bob = join_in_process(&live, &doc, "bob");

    alice.client().editor().insert(0, "the shared line");
    assert_eq!(alice.save(), SaveOutcome::Saved);
    assert_eq!(bob.step(Duration::ZERO).unwrap().applied, 1);

    // Both edit concurrently: Alice prepends, Bob appends — classic OT.
    alice.client().editor().insert(0, "[A] ");
    assert_eq!(alice.save(), SaveOutcome::Saved);
    let bob_len = bob.content().len();
    bob.client().editor().insert(bob_len, " [B]");
    // Bob polls before saving: his pending edit survives the rebase.
    assert_eq!(bob.step(Duration::ZERO).unwrap().applied, 1);
    assert_eq!(bob.content(), "[A] the shared line [B]");
    assert_eq!(bob.save(), SaveOutcome::Saved);
    assert_eq!(alice.step(Duration::ZERO).unwrap().applied, 1);

    assert_eq!(alice.content(), "[A] the shared line [B]");
    drain_and_assert_converged(&mut alice, &mut bob);
}

#[test]
fn a_rebase_keeps_a_collaborators_delete() {
    let live = LiveDocs::new(Arc::new(DocsServer::new()));
    let doc = create_doc(&*live);
    let mut alice = join_in_process(&live, &doc, "alice");
    let mut bob = join_in_process(&live, &doc, "bob");
    alice.client().editor().insert(0, "AAAA BBBB CCCC");
    assert_eq!(alice.save(), SaveOutcome::Saved);
    assert_eq!(bob.step(Duration::ZERO).unwrap().applied, 1);

    // Alice edits both ends; Bob deletes the middle word and lands first.
    alice.client().editor().insert(0, "1");
    alice.client().editor().insert(15, "2");
    bob.client().editor().delete(5, 5);
    assert_eq!(bob.save(), SaveOutcome::Saved);
    // Alice's save is rejected, folds Bob's delete, and lands: only her
    // two inserts are rebased, so the delete survives.
    assert_eq!(alice.save(), SaveOutcome::Saved);
    bob.step(Duration::ZERO).unwrap();

    assert_eq!(alice.content(), "1AAAA CCCC2");
    assert_eq!(bob.content(), "1AAAA CCCC2");
    assert_eq!(live.docs().stored_content(&doc).unwrap(), "1AAAA CCCC2");
}

#[test]
fn a_foreign_insert_after_a_multi_byte_character_lands_where_it_was_typed() {
    let live = LiveDocs::new(Arc::new(DocsServer::new()));
    let doc = create_doc(&*live);
    let mut alice = join_in_process(&live, &doc, "alice");
    let mut bob = join_in_process(&live, &doc, "bob");
    alice.client().editor().insert(0, "café au lait");
    assert_eq!(alice.save(), SaveOutcome::Saved);
    assert_eq!(bob.step(Duration::ZERO).unwrap().applied, 1);

    // Byte 5 is right after the two bytes of é.
    alice.client().editor().insert(5, "!");
    assert_eq!(alice.save(), SaveOutcome::Saved);
    let outcome = bob.step(Duration::ZERO).unwrap();
    assert_eq!((outcome.applied, outcome.resynced), (1, false));

    let expected = "café! au lait";
    assert_eq!(alice.content(), expected);
    assert_eq!(bob.content(), expected);
    assert_eq!(live.docs().stored_content(&doc).unwrap(), expected);
}

#[test]
fn a_pending_edit_moves_by_the_bytes_a_collaborator_inserted() {
    let live = LiveDocs::new(Arc::new(DocsServer::new()));
    let doc = create_doc(&*live);
    let mut alice = join_in_process(&live, &doc, "alice");
    let mut bob = join_in_process(&live, &doc, "bob");
    alice.client().editor().insert(0, "abc");
    assert_eq!(alice.save(), SaveOutcome::Saved);
    assert_eq!(bob.step(Duration::ZERO).unwrap().applied, 1);

    // Bob appends while Alice prepends a two-byte character.
    bob.client().editor().insert(3, "!");
    alice.client().editor().insert(0, "é");
    assert_eq!(alice.save(), SaveOutcome::Saved);
    assert_eq!(bob.step(Duration::ZERO).unwrap().applied, 1);
    assert_eq!(bob.save(), SaveOutcome::Saved);
    assert_eq!(alice.step(Duration::ZERO).unwrap().applied, 1);

    let expected = "éabc!";
    assert_eq!(alice.content(), expected);
    assert_eq!(bob.content(), expected);
    assert_eq!(live.docs().stored_content(&doc).unwrap(), expected);
}

/// A channel that logs the path of every request it forwards.
#[derive(Clone)]
struct Logged(Arc<LiveDocs>, Arc<Mutex<Vec<String>>>);

impl Logged {
    fn take(&self) -> Vec<String> {
        std::mem::take(&mut *self.1.lock().unwrap())
    }
}

impl Channel for Logged {
    fn exchange(&mut self, request: &Request) -> Response {
        self.1.lock().unwrap().push(request.path.clone());
        self.0.handle(request)
    }
}

#[test]
fn a_live_save_sends_only_the_save_unless_it_conflicts() {
    let live = LiveDocs::new(Arc::new(DocsServer::new()));
    let doc = create_doc(&*live);
    let log = Logged(Arc::clone(&live), Arc::default());
    let client = DocsClient::open(log.clone(), &doc).unwrap();
    let mut alice = LiveSession::start(client, log.clone(), "alice", None).unwrap();
    let mut bob = join_in_process(&live, &doc, "bob");
    log.take();

    // No conflict: one request, the save itself — no load first.
    alice.client().editor().insert(0, "first");
    assert_eq!(alice.save(), SaveOutcome::Saved);
    assert_eq!(log.take(), ["/Doc"]);

    // Bob lands first: the rejected save, one poll that folds his
    // change, and the save that lands.
    bob.step(Duration::ZERO).unwrap();
    bob.client().editor().insert(0, "bob ");
    assert_eq!(bob.save(), SaveOutcome::Saved);
    let len = alice.content().len();
    alice.client().editor().insert(len, " alice");
    assert_eq!(alice.save(), SaveOutcome::Saved);
    assert_eq!(log.take(), ["/Doc", "/Doc/changes", "/Doc"]);
    assert_eq!(alice.content(), "bob first alice");
}

/// A channel that keeps the body of every save's answer.
#[derive(Clone)]
struct Acks(Arc<LiveDocs>, Arc<Mutex<Vec<String>>>);

impl Channel for Acks {
    fn exchange(&mut self, request: &Request) -> Response {
        let response = self.0.handle(request);
        if request.path == "/Doc" && request.query_param("cmd").is_none() {
            self.1.lock().unwrap().push(response.body_text().unwrap_or("").to_string());
        }
        response
    }
}

#[test]
fn a_plaintext_live_save_is_saved_without_an_ack_hash() {
    let live = LiveDocs::new(Arc::new(DocsServer::new()));
    let doc = create_doc(&*live);
    let acks = Acks(Arc::clone(&live), Arc::default());
    let client = DocsClient::open(acks.clone(), &doc).unwrap();
    let mut alice = LiveSession::start(client, acks.clone(), "alice", None).unwrap();
    for text in ["first", " second"] {
        let len = alice.content().len();
        alice.client().editor().insert(len, text);
        assert_eq!(alice.save(), SaveOutcome::Saved);
        let ack = acks.1.lock().unwrap().pop().unwrap();
        let pairs = form::parse_pairs(&ack).unwrap();
        assert!(form::first_value(&pairs, "version").is_some(), "{ack}");
        assert_eq!(form::first_value(&pairs, "contentFromServerHash"), None, "{ack}");
    }
    assert_eq!(live.docs().stored_content(&doc).unwrap(), "first second");
}

#[test]
fn flaky_transport_loses_no_live_edit() {
    let live = LiveDocs::new(Arc::new(DocsServer::new()));
    let doc = create_doc(&*live);
    // Fail roughly one request in three, on the edit and poll paths alike.
    let flaky = Arc::new(FlakyService::new(Arc::clone(&live), 3, 21));
    let mut session = (0..8)
        .find_map(|_| {
            let client = DocsClient::open(DirectChannel(Arc::clone(&flaky)), &doc).ok()?;
            LiveSession::start(client, DirectChannel(Arc::clone(&flaky)), "flaky", None).ok()
        })
        .expect("one of eight joins gets through");
    for i in 0..12 {
        let len = session.content().len();
        session.client().editor().insert(len, &format!("m{i}. "));
        // A save that runs out of attempts keeps the edit pending; the
        // next call sends it again.
        let saved = (0..10).any(|_| session.save() == SaveOutcome::Saved);
        assert!(saved, "edit {i} never landed");
    }
    let stored = live.docs().stored_content(&doc).unwrap();
    for i in 0..12 {
        assert!(stored.contains(&format!("m{i}. ")), "lost edit {i}: {stored}");
    }
    assert_eq!(session.content(), stored);
}

#[test]
fn stale_cursor_resyncs_without_diverging() {
    let live = LiveDocs::new(Arc::new(DocsServer::new()));
    let doc = create_doc(&*live);
    let mut alice = join_in_process(&live, &doc, "alice");
    let mut bob = join_in_process(&live, &doc, "bob");

    // Alice makes more saves than the ring retains while Bob is away.
    alice.client().editor().insert(0, "seed ");
    assert_eq!(alice.save(), SaveOutcome::Saved);
    for i in 0..(pe_collab::DEFAULT_RING_CAPACITY + 8) {
        alice.client().editor().insert(0, if i % 2 == 0 { "x" } else { "y" });
        assert_eq!(alice.save(), SaveOutcome::Saved);
    }
    let outcome = bob.step(Duration::ZERO).unwrap();
    assert!(outcome.resynced, "cursor far behind the ring must resync");
    assert_eq!(bob.content(), alice.content());
    assert_eq!(bob.since(), alice.since());
}

#[test]
fn sealed_presence_is_opened_only_by_key_holders() {
    let live = LiveDocs::new(Arc::new(DocsServer::new()));
    let doc = create_doc(&*live);
    let sealer = |name: &str| {
        let _ = name;
        PresenceSealer::from_password(&doc, "shared-secret", 64)
    };

    let client = DocsClient::open(DirectChannel(Arc::clone(&live)), &doc).unwrap();
    let mut alice =
        LiveSession::start(client, DirectChannel(Arc::clone(&live)), "alice", Some(sealer("alice")))
            .unwrap();
    let client = DocsClient::open(DirectChannel(Arc::clone(&live)), &doc).unwrap();
    let mut bob =
        LiveSession::start(client, DirectChannel(Arc::clone(&live)), "bob", Some(sealer("bob")))
            .unwrap();

    alice.set_cursor(7);
    alice.publish_presence().unwrap();
    bob.step(Duration::ZERO).unwrap();
    let peers: Vec<_> = bob.peers().values().collect();
    assert_eq!(peers.len(), 1);
    assert_eq!(peers[0].editor, "alice");
    assert_eq!(peers[0].cursor, 7);

    // The server-side blob never contains the editor name or cursor.
    let stored = live.bus().presence(&doc);
    assert_eq!(stored.len(), 1);
    assert!(!stored[0].1.contains("alice"));
    assert!(stored[0].1.chars().all(|c| c.is_ascii_hexdigit()));
}

#[test]
fn parked_subscriber_over_a_real_socket_is_woken_by_a_save() {
    let live = LiveDocs::new(Arc::new(DocsServer::new()));
    let doc = create_doc(&*live);
    let server = HttpServer::bind(
        "127.0.0.1:0",
        Arc::new(LiveService(Arc::clone(&live))),
        ServerConfig::default(),
    )
    .unwrap();
    let addr = server.local_addr();

    // Subscriber: edit channel on the pooled client, poll channel on a
    // dedicated subscription connection.
    let pooled = HttpClient::new(addr);
    let sub_client = DocsClient::open(DirectChannel(HttpClient::new(addr)), &doc).unwrap();
    let poll = DirectChannel(SubscriptionTransport::new(&pooled, Duration::from_secs(60)));
    let mut watcher = LiveSession::start(sub_client, poll, "watcher", None).unwrap();

    let writer_handle = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(150));
        let mut writer =
            DocsClient::open(DirectChannel(HttpClient::new(addr)), &doc).unwrap();
        writer.editor().insert(0, "pushed over the wire");
        assert_eq!(writer.save(), SaveOutcome::Saved);
    });

    // The long-poll parks server-side until the save wakes it.
    let start = Instant::now();
    let outcome = watcher.step(Duration::from_secs(10)).unwrap();
    let waited = start.elapsed();
    writer_handle.join().unwrap();

    assert_eq!(outcome.applied, 1, "push must deliver the save");
    assert_eq!(watcher.content(), "pushed over the wire");
    assert!(
        waited < Duration::from_secs(5),
        "woken by publish, not by poll timeout (waited {waited:?})"
    );
    server.shutdown();
}

#[test]
fn resume_from_since_survives_a_server_restart() {
    let dir = TempDir::new("resume");
    let doc;
    let since_before_crash;
    {
        let store: Arc<dyn pe_store::DocStore> =
            Arc::new(ShardedLogStore::open(&dir.0, 4, StoreConfig::default()).unwrap());
        let live = LiveDocs::new(Arc::new(DocsServer::with_store(store)));
        doc = create_doc(&*live);
        let mut writer = join_in_process(&live, &doc, "writer");
        writer.client().editor().insert(0, "first line");
        assert_eq!(writer.save(), SaveOutcome::Saved);
        writer.client().editor().insert(10, " second");
        assert_eq!(writer.save(), SaveOutcome::Saved);
        since_before_crash = writer.since();
        assert!(since_before_crash >= 2);
        // Server "crashes": LiveDocs and its in-memory ring are dropped;
        // only the WAL-backed store survives.
    }

    let store: Arc<dyn pe_store::DocStore> =
        Arc::new(ShardedLogStore::open(&dir.0, 4, StoreConfig::default()).unwrap());
    let live = LiveDocs::new(Arc::new(DocsServer::with_store(store)));

    // A subscriber resuming from its pre-crash cursor: the sequence is
    // store-durable, so "nothing new" is the truthful answer — no lost
    // and no duplicated deltas.
    let mut resumed = join_in_process(&live, &doc, "resumed");
    assert_eq!(resumed.since(), since_before_crash, "version counter survived the restart");
    assert_eq!(resumed.content(), "first line second");
    let outcome = resumed.step(Duration::ZERO).unwrap();
    assert_eq!(outcome.applied, 0);
    assert!(!outcome.resynced);

    // A subscriber whose cursor predates the retained window resyncs
    // from authoritative content instead of silently missing changes.
    let stale_client = DocsClient::open(DirectChannel(Arc::clone(&live)), &doc).unwrap();
    let mut stale =
        LiveSession::start(stale_client, DirectChannel(Arc::clone(&live)), "stale", None).unwrap();
    // Fake a pre-crash cursor by bypassing start()'s load: a fresh
    // session already at head steps cleanly…
    assert!(!stale.step(Duration::ZERO).unwrap().resynced);

    // …and new saves after the restart flow to the resumed subscriber
    // exactly once.
    let mut writer = join_in_process(&live, &doc, "writer2");
    writer.client().editor().insert(0, "post-crash ");
    assert_eq!(writer.save(), SaveOutcome::Saved);
    let outcome = resumed.step(Duration::ZERO).unwrap();
    assert_eq!(outcome.applied, 1);
    assert_eq!(resumed.content(), "post-crash first line second");
    let outcome = resumed.step(Duration::ZERO).unwrap();
    assert_eq!(outcome.applied, 0, "no duplicate delivery");
}

type PrivateInProc<S = Arc<LiveDocs>> =
    LiveSession<SharedChannel<PrivateChannel<S>>, SharedChannel<PrivateChannel<S>>>;

/// Joins a *private* session: one mediator shared between the edit and
/// poll paths (its ciphertext mirror must see both directions).
fn join_private<S: CloudService>(
    server: S,
    doc: &str,
    name: &str,
    seed: [u8; 16],
) -> PrivateInProc<S> {
    let mut mediator = DocsMediator::with_rng(server, MediatorConfig::recb(8), CtrDrbg::new(seed));
    mediator.register_password(doc, "collab-pw");
    let channel = SharedChannel::new(PrivateChannel(mediator));
    let client = DocsClient::open(channel.clone(), doc).unwrap();
    let sealer = PresenceSealer::from_password(doc, "collab-pw", 64);
    LiveSession::start(client, channel, name, Some(sealer)).unwrap()
}

/// What a fresh key holder decrypts from the stored document.
fn read_private(live: &Arc<LiveDocs>, doc: &str) -> String {
    let mut reader = DocsMediator::new(Arc::clone(live), MediatorConfig::recb(8));
    reader.register_password(doc, "collab-pw");
    reader.open_document(doc).unwrap()
}

/// The provider stores ciphertext only: none of `words` appears in it.
fn assert_stored_without(live: &LiveDocs, doc: &str, words: &[&str]) {
    let stored = live.docs().stored_content(doc).unwrap();
    for word in words {
        assert!(!stored.contains(word), "{word:?} stored in the clear");
    }
}

#[test]
fn private_sessions_converge_and_the_server_sees_only_ciphertext() {
    let live = LiveDocs::new(Arc::new(DocsServer::new()));
    let doc = create_doc(&*live);
    let mut alice = join_private(Arc::clone(&live), &doc, "alice", [1; 16]);
    let mut bob = join_private(Arc::clone(&live), &doc, "bob", [2; 16]);

    alice.client().editor().insert(0, "attack at dawn");
    assert_eq!(alice.save(), SaveOutcome::Saved);

    // Bob receives the change decrypted through his mediator…
    let outcome = bob.step(Duration::ZERO).unwrap();
    assert!(outcome.applied >= 1 || outcome.resynced);
    assert_eq!(bob.content(), "attack at dawn");

    // …edits concurrently with Alice, both converge.
    let bob_len = bob.content().len();
    bob.client().editor().insert(bob_len, " (bob)");
    alice.client().editor().insert(0, "(alice) ");
    assert_eq!(alice.save(), SaveOutcome::Saved);
    let outcome = bob.step(Duration::ZERO).unwrap();
    assert!(outcome.applied >= 1 || outcome.resynced);
    assert_eq!(bob.save(), SaveOutcome::Saved);
    let outcome = alice.step(Duration::ZERO).unwrap();
    assert!(outcome.applied >= 1 || outcome.resynced);

    assert_eq!(alice.content(), bob.content());
    assert_eq!(alice.content(), "(alice) attack at dawn (bob)");

    // The provider stored and fanned out only ciphertext.
    assert_stored_without(&live, &doc, &["attack", "alice"]);

    // Sealed presence round-trips between key holders.
    alice.set_cursor(3);
    alice.publish_presence().unwrap();
    bob.step(Duration::ZERO).unwrap();
    let peers: Vec<_> = bob.peers().values().collect();
    assert_eq!(peers.len(), 1);
    assert_eq!(peers[0].editor, "alice");
    assert_eq!(peers[0].cursor, 3);
}

#[test]
fn private_writers_converge_when_the_second_save_loses_the_race() {
    let live = LiveDocs::new(Arc::new(DocsServer::new()));
    let doc = create_doc(&*live);
    let mut alice = join_private(Arc::clone(&live), &doc, "alice", [1; 16]);
    let mut bob = join_private(Arc::clone(&live), &doc, "bob", [2; 16]);
    alice.client().editor().insert(0, "attack at dawn");
    assert_eq!(alice.save(), SaveOutcome::Saved);
    bob.step(Duration::ZERO).unwrap();

    // Both edit; Alice saves first and Bob saves without polling. His
    // save is rejected, his mediator resyncs through `/Doc/load`, his
    // pending edit is rebased over Alice's, and the retry lands.
    alice.client().editor().insert(0, "(alice) ");
    let len = bob.content().len();
    bob.client().editor().insert(len, " (bob)");
    assert_eq!(alice.save(), SaveOutcome::Saved);
    assert_eq!(bob.save(), SaveOutcome::Saved);
    alice.step(Duration::ZERO).unwrap();

    let expected = "(alice) attack at dawn (bob)";
    assert_eq!(alice.content(), expected);
    assert_eq!(bob.content(), expected);
    assert_eq!(read_private(&live, &doc), expected);
    assert_stored_without(&live, &doc, &["attack", "dawn", "(alice)", "(bob)"]);
}

#[test]
fn a_private_pending_edit_past_multi_byte_text_survives_a_collaborators_insert() {
    let live = LiveDocs::new(Arc::new(DocsServer::new()));
    let doc = create_doc(&*live);
    let mut alice = join_private(Arc::clone(&live), &doc, "alice", [1; 16]);
    let mut bob = join_private(Arc::clone(&live), &doc, "bob", [2; 16]);
    alice.client().editor().insert(0, "héé abc");
    assert_eq!(alice.save(), SaveOutcome::Saved);
    bob.step(Duration::ZERO).unwrap();

    // Bob's pending append sits past the four bytes of éé; Alice's
    // prepend lands first and Bob folds it before saving.
    let len = bob.content().len();
    bob.client().editor().insert(len, " (bob)");
    alice.client().editor().insert(0, "X");
    assert_eq!(alice.save(), SaveOutcome::Saved);
    bob.step(Duration::ZERO).unwrap();
    bob.save();
    alice.step(Duration::ZERO).unwrap();

    let expected = "Xhéé abc (bob)";
    assert_eq!(bob.content(), expected);
    assert_eq!(alice.content(), expected);
    assert_eq!(read_private(&live, &doc), expected);
    assert_stored_without(&live, &doc, &["abc", "(bob)"]);
}

/// A private editor's transport for the lost-mirror race: fails the next
/// save with a 503 before it reaches the server, then runs a hook once
/// the next poll has been answered — after the zero-wait poll the
/// session makes following the failure, before the save it retries.
struct FailedSaveThenHook {
    live: Arc<LiveDocs>,
    fail_next_save: AtomicBool,
    after_next_poll: Mutex<Option<Box<dyn FnOnce() + Send>>>,
}

impl CloudService for FailedSaveThenHook {
    fn handle(&self, request: &Request) -> Response {
        let save = request.path == "/Doc" && request.query_param("cmd").is_none();
        if save && self.fail_next_save.swap(false, Ordering::SeqCst) {
            return Response::error(503, "injected fault");
        }
        let response = self.live.handle(request);
        if request.path == "/Doc/changes" {
            if let Some(hook) = self.after_next_poll.lock().unwrap().take() {
                hook();
            }
        }
        response
    }

    fn name(&self) -> &'static str {
        "failed-save-then-hook"
    }
}

#[test]
fn a_private_retry_after_a_failed_save_keeps_a_collaborators_edit() {
    let live = LiveDocs::new(Arc::new(DocsServer::new()));
    let doc = create_doc(&*live);
    let transport = Arc::new(FailedSaveThenHook {
        live: Arc::clone(&live),
        fail_next_save: AtomicBool::new(false),
        after_next_poll: Mutex::new(None),
    });
    let mut alice = join_private(Arc::clone(&transport), &doc, "alice", [1; 16]);
    let bob = Arc::new(Mutex::new(join_private(Arc::clone(&live), &doc, "bob", [2; 16])));
    alice.client().editor().insert(0, "attack at dawn");
    assert_eq!(alice.save(), SaveOutcome::Saved);
    bob.lock().unwrap().step(Duration::ZERO).unwrap();

    // Alice appends and her save fails with a 503, which drops her
    // mediator's mirror. Her session's poll finds nothing new; Bob's
    // prepend lands right after it, before her retry.
    let len = alice.content().len();
    alice.client().editor().insert(len, " (alice)");
    bob.lock().unwrap().client().editor().insert(0, "(bob) ");
    transport.fail_next_save.store(true, Ordering::SeqCst);
    let collaborator = Arc::clone(&bob);
    *transport.after_next_poll.lock().unwrap() = Some(Box::new(move || {
        assert_eq!(collaborator.lock().unwrap().save(), SaveOutcome::Saved);
    }));
    assert_eq!(alice.save(), SaveOutcome::Saved);
    assert!(transport.after_next_poll.lock().unwrap().is_none(), "Bob saved mid-retry");
    let mut bob = bob.lock().unwrap();
    bob.step(Duration::ZERO).unwrap();
    alice.step(Duration::ZERO).unwrap();

    let expected = "(bob) attack at dawn (alice)";
    assert_eq!(alice.content(), expected);
    assert_eq!(bob.content(), expected);
    assert_eq!(read_private(&live, &doc), expected);
    assert_stored_without(&live, &doc, &["attack", "dawn", "(alice)", "(bob)"]);
}

#[test]
fn private_live_session_works_over_real_sockets() {
    let live = LiveDocs::new(Arc::new(DocsServer::new()));
    let server = HttpServer::bind(
        "127.0.0.1:0",
        Arc::new(LiveService(Arc::clone(&live))),
        ServerConfig::default(),
    )
    .unwrap();
    let addr = server.local_addr();

    // Writer creates the private document over the wire.
    let mut writer_mediator = DocsMediator::with_rng(
        LiveTransport::new(HttpClient::new(addr), Duration::from_secs(60)),
        MediatorConfig::recb(8),
        CtrDrbg::new([3; 16]),
    );
    let doc = writer_mediator.create_document("wire-pw").unwrap();
    let writer_channel = SharedChannel::new(PrivateChannel(writer_mediator));
    let writer_client = DocsClient::open(writer_channel.clone(), &doc).unwrap();
    let mut writer =
        LiveSession::start(writer_client, writer_channel, "writer", None).unwrap();

    // Watcher joins over its own sockets (pool + dedicated subscription).
    let mut watcher_mediator = DocsMediator::with_rng(
        LiveTransport::new(HttpClient::new(addr), Duration::from_secs(60)),
        MediatorConfig::recb(8),
        CtrDrbg::new([4; 16]),
    );
    watcher_mediator.register_password(&doc, "wire-pw");
    let watcher_channel = SharedChannel::new(PrivateChannel(watcher_mediator));
    let watcher_client = DocsClient::open(watcher_channel.clone(), &doc).unwrap();
    let mut watcher =
        LiveSession::start(watcher_client, watcher_channel, "watcher", None).unwrap();

    let writer_handle = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(150));
        writer.client().editor().insert(0, "secret meeting at noon");
        assert_eq!(writer.save(), SaveOutcome::Saved);
    });

    let start = Instant::now();
    let outcome = watcher.step(Duration::from_secs(10)).unwrap();
    let waited = start.elapsed();
    writer_handle.join().unwrap();

    assert!(outcome.applied >= 1 || outcome.resynced);
    assert_eq!(watcher.content(), "secret meeting at noon");
    assert!(waited < Duration::from_secs(5), "push beat the poll timeout ({waited:?})");
    assert!(!live.docs().stored_content(&doc).unwrap().contains("secret"));
    server.shutdown();
}

mod convergence_proptest {
    use super::*;
    use proptest::prelude::*;

    /// Hands out every character at most once, cycling through one-,
    /// two-, three- and four-byte UTF-8 encodings, so each inserted
    /// character names the one insert that made it.
    struct Fresh(u32);

    impl Fresh {
        fn take(&mut self, n: usize) -> String {
            (0..n)
                .map(|_| {
                    self.0 += 1;
                    let first = [0x21, 0xC0, 0x4E00, 0x1F300][self.0 as usize % 4];
                    char::from_u32(first + self.0 / 4).expect("scripts fit each range")
                })
                .collect()
        }
    }

    /// What the scripts typed and deleted, across both editors.
    #[derive(Default)]
    struct Typed {
        inserted: String,
        deleted: String,
    }

    /// Byte offset of character `i` of `text` (its length past the end).
    fn offset(text: &str, i: usize) -> usize {
        text.char_indices().nth(i).map_or(text.len(), |(at, _)| at)
    }

    /// Applies one scripted edit to a session's editor. Positions count
    /// whole characters, taken modulo the buffer so every script is
    /// valid.
    fn apply_edit<C: Channel, P: Channel>(
        session: &mut LiveSession<C, P>,
        kind: u8,
        pos: u8,
        fresh: &mut Fresh,
        typed: &mut Typed,
    ) {
        let content = session.content().to_string();
        let chars = content.chars().count();
        let pos = pos as usize;
        let (at, removed, text) = match kind % 3 {
            0 => (pos % (chars + 1), 0, fresh.take(1 + pos % 3)),
            1 if chars > 0 => (pos % chars, (1 + pos % 4).min(chars - pos % chars), String::new()),
            _ => (pos % (chars + 1), 0, fresh.take(1)),
        };
        let (start, end) = (offset(&content, at), offset(&content, at + removed));
        typed.inserted.push_str(&text);
        typed.deleted.push_str(&content[start..end]);
        session.client().editor().replace(start, end - start, &text);
    }

    type Script = [(u8, u8, bool)];

    /// Runs both scripts, interleaved, then checks that the sessions
    /// converge on `stored()` — the authoritative content — holding no
    /// character twice and every character typed and never deleted.
    /// With `exact`, the deleted ones are all gone too. A private session
    /// is handed each collaborator's change as one window, `diff(old,
    /// new)`, so a character it deleted concurrently inside that window
    /// comes back with the window's text.
    fn run_scripts<C: Channel, P: Channel>(
        mut alice: LiveSession<C, P>,
        mut bob: LiveSession<C, P>,
        script_a: &Script,
        script_b: &Script,
        stored: impl Fn() -> String,
        exact: bool,
    ) -> Result<(), TestCaseError> {
        let mut fresh = Fresh(0);
        let mut typed = Typed::default();
        for i in 0..script_a.len().max(script_b.len()) {
            if let Some(&(kind, pos, save_now)) = script_a.get(i) {
                apply_edit(&mut alice, kind, pos, &mut fresh, &mut typed);
                if save_now {
                    alice.save();
                    bob.step(Duration::ZERO).unwrap();
                }
            }
            if let Some(&(kind, pos, save_now)) = script_b.get(i) {
                apply_edit(&mut bob, kind, pos, &mut fresh, &mut typed);
                if save_now {
                    bob.save();
                    alice.step(Duration::ZERO).unwrap();
                }
            }
        }
        drain_and_assert_converged(&mut alice, &mut bob);
        prop_assert_eq!(alice.content(), stored());
        let mut expected: Vec<char> =
            typed.inserted.chars().filter(|c| !typed.deleted.contains(*c)).collect();
        let mut got: Vec<char> = alice.content().chars().collect();
        expected.sort_unstable();
        got.sort_unstable();
        if exact {
            prop_assert_eq!(got, expected);
        } else {
            prop_assert!(got.windows(2).all(|pair| pair[0] != pair[1]), "{:?}", got);
            prop_assert!(got.iter().all(|c| typed.inserted.contains(*c)), "{:?}", got);
            prop_assert!(expected.iter().all(|c| got.contains(c)), "{:?} ⊉ {:?}", got, expected);
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Collab-level TP1: two live sessions making arbitrary
        /// interleaved edits of multi-byte text, saves, and polls always
        /// converge, plaintext and private alike. Plaintext sessions hold
        /// exactly the characters typed minus those deleted, each once;
        /// private ones none twice and none lost (see `run_scripts`).
        #[test]
        fn two_live_sessions_always_converge(
            script_a in proptest::collection::vec(
                (any::<u8>(), any::<u8>(), any::<bool>()), 1..12),
            script_b in proptest::collection::vec(
                (any::<u8>(), any::<u8>(), any::<bool>()), 1..12),
        ) {
            let live = LiveDocs::new(Arc::new(DocsServer::new()));
            let doc = create_doc(&*live);
            let (alice, bob) =
                (join_in_process(&live, &doc, "alice"), join_in_process(&live, &doc, "bob"));
            run_scripts(alice, bob, &script_a, &script_b, || {
                live.docs().stored_content(&doc).unwrap()
            }, true)?;

            let live = LiveDocs::new(Arc::new(DocsServer::new()));
            let doc = create_doc(&*live);
            let alice = join_private(Arc::clone(&live), &doc, "alice", [1; 16]);
            let bob = join_private(Arc::clone(&live), &doc, "bob", [2; 16]);
            run_scripts(alice, bob, &script_a, &script_b, || read_private(&live, &doc), false)?;
        }
    }
}
