//! What the live server reads from its store: polls answer from the
//! change bus, open and load from the latest content. Neither may
//! materialize a document's revision history (`DocStore::get`), whose
//! cost grows with every save.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use pe_cloud::docs::DocsServer;
use pe_cloud::{CloudService, Request};
use pe_collab::{LiveDocs, LiveService};
use pe_crypto::form;
use pe_delta::Delta;
use pe_net::{Served, Service, Waker};
use pe_store::{CompactionStats, DeltaLimits, DocState, DocStore, MemStore, StoreError};

/// A [`DocStore`] that counts the history reads it forwards.
#[derive(Default)]
struct CountingStore {
    inner: MemStore,
    gets: AtomicUsize,
}

impl DocStore for CountingStore {
    fn get(&self, id: &str) -> Option<DocState> {
        self.gets.fetch_add(1, Ordering::SeqCst);
        self.inner.get(id)
    }
    fn content(&self, id: &str) -> Option<Vec<u8>> {
        self.inner.content(id)
    }
    fn current(&self, id: &str) -> Option<(Vec<u8>, u64)> {
        self.inner.current(id)
    }
    fn contains(&self, id: &str) -> bool {
        self.inner.contains(id)
    }
    fn list(&self) -> Vec<String> {
        self.inner.list()
    }
    fn create(&self, id: &str) -> Result<bool, StoreError> {
        self.inner.create(id)
    }
    fn put_full(&self, id: &str, content: &[u8]) -> Result<u64, StoreError> {
        self.inner.put_full(id, content)
    }
    fn apply_delta(
        &self,
        id: &str,
        delta: &Delta,
        limits: DeltaLimits,
    ) -> Result<DocState, StoreError> {
        self.inner.apply_delta(id, delta, limits)
    }
    fn remove(&self, id: &str) -> Result<bool, StoreError> {
        self.inner.remove(id)
    }
    fn meta(&self, key: &str) -> Option<u64> {
        self.inner.meta(key)
    }
    fn set_meta(&self, key: &str, value: u64) -> Result<(), StoreError> {
        self.inner.set_meta(key, value)
    }
    fn bump_meta(&self, key: &str) -> Result<u64, StoreError> {
        self.inner.bump_meta(key)
    }
    fn meta_entries(&self) -> Vec<(String, u64)> {
        self.inner.meta_entries()
    }
    fn flush(&self) -> Result<(), StoreError> {
        self.inner.flush()
    }
    fn compact(&self) -> Result<CompactionStats, StoreError> {
        self.inner.compact()
    }
    fn name(&self) -> &'static str {
        "counting"
    }
}

fn live_server() -> (Arc<CountingStore>, Arc<LiveDocs>) {
    let store = Arc::new(CountingStore::default());
    let docs = Arc::new(DocsServer::with_store(
        Arc::clone(&store) as Arc<dyn DocStore>
    ));
    (store, LiveDocs::new(docs))
}

fn create(live: &LiveDocs) -> String {
    let resp = live.handle(&Request::post("/Doc", &[("cmd", "create")], ""));
    let pairs = form::parse_pairs(resp.body_text().unwrap()).unwrap();
    form::first_value(&pairs, "docID").unwrap().to_string()
}

fn save(live: &LiveDocs, doc: &str, field: &str, value: &str) {
    let body = form::encode_pairs(&[(field, value)]);
    let resp = live.handle(&Request::post("/Doc", &[("docID", doc)], body));
    assert!(
        resp.is_success(),
        "save failed: {}",
        resp.body_text().unwrap_or("")
    );
}

fn poll(doc: &str, since: u64) -> Request {
    Request::get(
        "/Doc/changes",
        &[
            ("docID", doc),
            ("since", &since.to_string()),
            ("waitMs", "5000"),
        ],
    )
}

#[test]
fn saves_and_parked_polls_never_read_the_history() {
    const SAVES: u64 = 40;
    let (store, live) = live_server();
    let doc = create(&live);
    save(&live, &doc, "docContents", "v0");
    let service = LiveService(Arc::clone(&live));
    let woken = Arc::new(AtomicUsize::new(0));
    for seq in 1..=SAVES {
        let counter = Arc::clone(&woken);
        let waker = Waker::from_fn(move || {
            counter.fetch_add(1, Ordering::SeqCst);
        });
        // Caught up: the poll parks until the next save.
        let parked = service.call_deferred(&poll(&doc, seq), waker);
        assert!(
            matches!(parked, Served::Parked { .. }),
            "poll at the head must park"
        );
        save(&live, &doc, "delta", "=2\t+x");
        assert_eq!(
            woken.load(Ordering::SeqCst) as u64,
            seq,
            "the save wakes the parked poll"
        );
        // The event loop re-dispatches the woken poll.
        let Served::Response(resp) = service.call_deferred(&poll(&doc, seq), Waker::noop()) else {
            panic!("a woken poll must answer");
        };
        let pairs = form::parse_pairs(resp.body_text().unwrap()).unwrap();
        assert_eq!(
            form::first_value(&pairs, "seq"),
            Some((seq + 1).to_string().as_str())
        );
    }
    let gets = store.gets.load(Ordering::SeqCst);
    assert!(
        gets <= 1,
        "{gets} history reads for {SAVES} saves and {} polls",
        2 * SAVES
    );
    // The history is intact for the endpoint that serves it.
    assert_eq!(
        live.docs().stored_revisions(&doc).unwrap().len() as u64,
        SAVES + 1
    );
}

#[test]
fn open_and_load_read_only_the_latest_content() {
    let (store, live) = live_server();
    let doc = create(&live);
    for i in 0..50 {
        save(&live, &doc, "docContents", &format!("revision {i}"));
    }
    let before = store.gets.load(Ordering::SeqCst);
    for _ in 0..5 {
        let opened = live.handle(&Request::post(
            "/Doc",
            &[("docID", &doc), ("cmd", "open")],
            "",
        ));
        let pairs = form::parse_pairs(opened.body_text().unwrap()).unwrap();
        assert_eq!(form::first_value(&pairs, "content"), Some("revision 49"));
        let loaded = live.handle(&Request::get("/Doc/load", &[("docID", &doc)]));
        let pairs = form::parse_pairs(loaded.body_text().unwrap()).unwrap();
        assert_eq!(form::first_value(&pairs, "content"), Some("revision 49"));
        assert_eq!(form::first_value(&pairs, "version"), Some("50"));
    }
    assert_eq!(
        store.gets.load(Ordering::SeqCst),
        before,
        "open/load read the history"
    );
    // The history is still there for the one endpoint that serves it.
    let count = live.handle(&Request::get("/Doc/revisions", &[("docID", &doc)]));
    assert_eq!(count.body_text(), Some("revisionCount=50"));
}
