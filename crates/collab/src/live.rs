//! The live front-end: `/Doc/changes` + `/Doc/presence` over a
//! [`DocsServer`], everything else forwarded untouched.
//!
//! # Change-stream wire protocol
//!
//! `GET /Doc/changes?docID=…&since=SEQ[&waitMs=N]` answers with a
//! form-encoded body:
//!
//! * changes available — `seq=HEAD` plus one `change` field per entry,
//!   each `"{seq}:{kind}:{payload}"` where `kind` is `full` or `delta`
//!   and the payload is exactly what the saver shipped (ciphertext under
//!   the privacy extension; the server cannot read what it fans out);
//! * nothing new before the wait expired — `seq=HEAD&timeout=1`;
//! * cursor unservable (fell off the retention ring, or the server
//!   restarted with an empty ring) — `resync=1&seq=HEAD&content=…&
//!   contentHash=…`: reload from the authoritative content, resume at
//!   `HEAD`.
//!
//! Every variant also carries the document's sealed presence blobs as
//! repeated `presence` fields, `"{client}:{sealed}"`.
//!
//! Two execution modes serve the same protocol:
//!
//! * **In-process / worker-thread** ([`CloudService::handle`]): blocks on
//!   the bus condvar for up to `waitMs` (capped). Fine for direct calls
//!   and tests; would pin a worker under the event-driven server.
//! * **Event-loop** ([`LiveService`], via `call_deferred`): never blocks.
//!   An empty collect registers a waker and *parks* the connection; the
//!   next accepted save re-dispatches it. Idle subscribers cost a slab
//!   slot, not a thread.

use std::sync::Arc;
use std::time::Duration;

use pe_cloud::docs::{self, DocsServer, SaveChange};
use pe_cloud::{CloudService, Method, Request, Response};
use pe_crypto::form;
use pe_net::{Served, Service, Waker};

use crate::bus::{ChangeBus, Collected};

/// Longest wait honored for the blocking (`handle`) path.
pub const MAX_WAIT: Duration = Duration::from_secs(25);
/// Default long-poll wait when `waitMs` is absent.
pub const DEFAULT_WAIT: Duration = Duration::from_secs(10);

/// A [`DocsServer`] with the live-collaboration endpoints mounted in
/// front (see module docs for the protocol).
pub struct LiveDocs {
    docs: Arc<DocsServer>,
    bus: Arc<ChangeBus>,
}

impl std::fmt::Debug for LiveDocs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LiveDocs").field("bus", &self.bus).finish()
    }
}

impl LiveDocs {
    /// Wraps `docs`, installing the change bus as its save listener.
    pub fn new(docs: Arc<DocsServer>) -> Arc<LiveDocs> {
        let bus = Arc::new(ChangeBus::default());
        docs.set_save_listener(Arc::clone(&bus) as Arc<dyn pe_cloud::docs::SaveListener>);
        Arc::new(LiveDocs { docs, bus })
    }

    /// The underlying docs server.
    pub fn docs(&self) -> &Arc<DocsServer> {
        &self.docs
    }

    /// The change bus (tests, tooling).
    pub fn bus(&self) -> &Arc<ChangeBus> {
        &self.bus
    }

    /// The change-stream head for `doc_id`, `None` when the document
    /// does not exist. Once the bus has met the document (a save
    /// published, or an earlier poll seeded it) the bus's own head is
    /// the answer; only the first meeting reads the store's version,
    /// which seeds the bus after a restart. So a poll costs O(1) store
    /// work however long the document's history grows.
    fn head_hint(&self, doc_id: &str) -> Option<u64> {
        if !self.docs.store().contains(doc_id) {
            return None;
        }
        self.bus.head(doc_id).or_else(|| self.docs.stored_version(doc_id))
    }

    fn parse_cursor(request: &Request) -> Result<(String, u64), Response> {
        let doc_id = match request.query_param("docID") {
            Some(id) if !id.is_empty() => id.to_string(),
            _ => return Err(Response::error(400, "missing docID")),
        };
        let since = match request.query_param("since") {
            Some(s) => match s.parse::<u64>() {
                Ok(n) => n,
                Err(_) => return Err(Response::error(400, "malformed since cursor")),
            },
            None => return Err(Response::error(400, "missing since cursor")),
        };
        Ok((doc_id, since))
    }

    fn wait_of(request: &Request) -> Duration {
        request
            .query_param("waitMs")
            .and_then(|w| w.parse::<u64>().ok())
            .map_or(DEFAULT_WAIT, Duration::from_millis)
            .min(MAX_WAIT)
    }

    /// Renders a [`Collected`] outcome to the wire (see module docs).
    fn render(&self, doc_id: &str, collected: &Collected) -> Response {
        let mut pairs: Vec<(String, String)> = Vec::new();
        match collected {
            Collected::Changes { head, changes } => {
                pairs.push(("seq".into(), head.to_string()));
                for (seq, change) in changes {
                    let (kind, payload) = match change {
                        SaveChange::Full(text) => ("full", text.as_str()),
                        SaveChange::Delta(text) => ("delta", text.as_str()),
                    };
                    pairs.push(("change".into(), format!("{seq}:{kind}:{payload}")));
                }
                pe_observe::static_counter!("collab.changes_served").inc();
            }
            Collected::Empty { head } => {
                pairs.push(("seq".into(), head.to_string()));
                pairs.push(("timeout".into(), "1".into()));
                pe_observe::static_counter!("collab.poll_timeouts").inc();
            }
            Collected::Resync { .. } => {
                // Content and cursor come from one store read. The bus
                // head can trail a save the store already holds (a save
                // publishes after its write), and a client resuming from
                // that head would fold the save a second time.
                let Some((content, version)) = self.docs.store().current(doc_id) else {
                    return Response::error(404, "no such document");
                };
                let content = docs::stored_text(content);
                pairs.push(("resync".into(), "1".into()));
                pairs.push(("seq".into(), version.to_string()));
                pairs.push(("contentHash".into(), DocsServer::content_hash(&content)));
                pairs.push(("content".into(), content));
                pe_observe::static_counter!("collab.resyncs_served").inc();
            }
        }
        for (client, sealed) in self.bus.presence(doc_id) {
            pairs.push(("presence".into(), format!("{client}:{sealed}")));
        }
        Response::ok(form::encode_pairs(&pairs))
    }

    /// Blocking long-poll (worker-thread / in-process path).
    fn changes_blocking(&self, request: &Request) -> Response {
        let (doc_id, since) = match Self::parse_cursor(request) {
            Ok(cursor) => cursor,
            Err(resp) => return resp,
        };
        let Some(hint) = self.head_hint(&doc_id) else {
            return Response::error(404, "no such document");
        };
        let wait = Self::wait_of(request);
        let collected = self.bus.collect_blocking(&doc_id, since, hint, wait);
        self.render(&doc_id, &collected)
    }

    /// Non-blocking subscribe for the event loop: `Ok` responds now,
    /// `Err((doc_id, head))` means "park me" — nothing to report yet and
    /// the waker is registered.
    fn changes_deferred(
        &self,
        request: &Request,
        waker: Waker,
    ) -> Result<Response, (String, u64)> {
        let (doc_id, since) = match Self::parse_cursor(request) {
            Ok(cursor) => cursor,
            Err(resp) => return Ok(resp),
        };
        let Some(hint) = self.head_hint(&doc_id) else {
            return Ok(Response::error(404, "no such document"));
        };
        match self.bus.subscribe(&doc_id, since, hint, waker) {
            Collected::Empty { head } => Err((doc_id, head)),
            collected => Ok(self.render(&doc_id, &collected)),
        }
    }

    fn presence_post(&self, request: &Request) -> Response {
        let doc_id = request.query_param("docID").unwrap_or("");
        if doc_id.is_empty() {
            return Response::error(400, "missing docID");
        }
        let Some(head) = self.head_hint(doc_id) else {
            return Response::error(404, "no such document");
        };
        let Some(body) = request.body_text() else {
            return Response::error(400, "presence body must be UTF-8");
        };
        let Ok(pairs) = form::parse_pairs(body) else {
            return Response::error(400, "malformed presence body");
        };
        let Some(client) = form::first_value(&pairs, "client").filter(|c| !c.is_empty()) else {
            return Response::error(400, "missing client token");
        };
        let Some(sealed) = form::first_value(&pairs, "sealed") else {
            return Response::error(400, "missing sealed blob");
        };
        self.bus.set_presence(doc_id, client, sealed, head);
        Response::ok("ok=1")
    }

    fn presence_get(&self, request: &Request) -> Response {
        let doc_id = request.query_param("docID").unwrap_or("");
        if doc_id.is_empty() {
            return Response::error(400, "missing docID");
        }
        let pairs: Vec<(&str, String)> = self
            .bus
            .presence(doc_id)
            .into_iter()
            .map(|(client, sealed)| ("presence", format!("{client}:{sealed}")))
            .collect();
        Response::ok(form::encode_pairs(&pairs))
    }
}

impl CloudService for LiveDocs {
    fn handle(&self, request: &Request) -> Response {
        match (request.method, request.path.as_str()) {
            (Method::Get, "/Doc/changes") => self.changes_blocking(request),
            (Method::Post, "/Doc/presence") => self.presence_post(request),
            (Method::Get, "/Doc/presence") => self.presence_get(request),
            _ => self.docs.handle(request),
        }
    }

    fn name(&self) -> &'static str {
        "live-docs"
    }
}

/// [`pe_net::Service`] adapter that parks `/Doc/changes` subscribers in
/// the event loop instead of blocking a worker.
///
/// The blanket `CloudService → Service` impl cannot override
/// `call_deferred`, so mounting a [`LiveDocs`] directly would long-poll
/// on worker threads; mount this wrapper instead.
pub struct LiveService(pub Arc<LiveDocs>);

impl std::fmt::Debug for LiveService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("LiveService")
    }
}

impl Service for LiveService {
    fn call(&self, request: &Request) -> Response {
        self.0.handle(request)
    }

    fn call_deferred(&self, request: &Request, waker: Waker) -> Served {
        if request.method == Method::Get && request.path == "/Doc/changes" {
            match self.0.changes_deferred(request, waker) {
                Ok(response) => Served::Response(response),
                Err((doc_id, head)) => {
                    // Parked: if the requested wait (or the server's
                    // subscription cap, whichever is smaller) beats the
                    // next save, the loop answers with this timeout frame.
                    let on_timeout =
                        self.0.render(&doc_id, &Collected::Empty { head });
                    let wait = LiveDocs::wait_of(request);
                    if wait.is_zero() {
                        // A zero-wait probe never parks; the subscribed
                        // waker goes stale, which the loop tolerates.
                        Served::Response(on_timeout)
                    } else {
                        Served::Parked { on_timeout, wait: Some(wait) }
                    }
                }
            }
        } else {
            Served::Response(self.0.handle(request))
        }
    }

    fn service_name(&self) -> &str {
        "live-docs"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pe_cloud::docs::DocsServer;
    use std::time::Instant;

    fn create_doc(live: &LiveDocs) -> String {
        let resp = live.handle(&Request::post("/Doc", &[("cmd", "create")], ""));
        let pairs = form::parse_pairs(resp.body_text().unwrap()).unwrap();
        form::first_value(&pairs, "docID").unwrap().to_string()
    }

    fn save_contents(live: &LiveDocs, doc: &str, contents: &str) -> Response {
        let body = form::encode_pairs(&[("docContents", contents)]);
        live.handle(&Request::post("/Doc", &[("docID", doc)], body))
    }

    fn changes(live: &LiveDocs, doc: &str, since: u64, wait_ms: u64) -> Vec<(String, String)> {
        let wait = wait_ms.to_string();
        let resp = live.handle(&Request::get(
            "/Doc/changes",
            &[("docID", doc), ("since", &since.to_string()), ("waitMs", &wait)],
        ));
        assert!(resp.is_success(), "changes failed: {}", resp.body_text().unwrap_or(""));
        form::parse_pairs(resp.body_text().unwrap())
            .unwrap()
            .into_iter()
            .collect()
    }

    fn values<'a>(pairs: &'a [(String, String)], key: &str) -> Vec<&'a str> {
        pairs.iter().filter(|(k, _)| k == key).map(|(_, v)| v.as_str()).collect()
    }

    #[test]
    fn changes_reports_saves_after_the_cursor() {
        let live = LiveDocs::new(Arc::new(DocsServer::new()));
        let doc = create_doc(&live);
        save_contents(&live, &doc, "v1");
        save_contents(&live, &doc, "v2");
        let pairs = changes(&live, &doc, 0, 0);
        let got = values(&pairs, "change");
        assert_eq!(got.len(), 2);
        assert!(got[0].starts_with("1:full:"), "got {:?}", got[0]);
        assert!(got[1].starts_with("2:full:"), "got {:?}", got[1]);
        assert_eq!(values(&pairs, "seq"), vec!["2"]);
    }

    #[test]
    fn blocking_poll_wakes_on_a_concurrent_save() {
        let live = LiveDocs::new(Arc::new(DocsServer::new()));
        let doc = create_doc(&live);
        save_contents(&live, &doc, "v1");
        let saver = {
            let live = Arc::clone(&live);
            let doc = doc.clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(60));
                save_contents(&live, &doc, "v2");
            })
        };
        let start = Instant::now();
        let pairs = changes(&live, &doc, 1, 5_000);
        assert!(start.elapsed() < Duration::from_secs(4));
        assert_eq!(values(&pairs, "change").len(), 1);
        saver.join().unwrap();
    }

    #[test]
    fn poll_times_out_with_the_head_cursor() {
        let live = LiveDocs::new(Arc::new(DocsServer::new()));
        let doc = create_doc(&live);
        save_contents(&live, &doc, "v1");
        let pairs = changes(&live, &doc, 1, 30);
        assert_eq!(values(&pairs, "timeout"), vec!["1"]);
        assert_eq!(values(&pairs, "seq"), vec!["1"]);
        assert!(values(&pairs, "change").is_empty());
    }

    #[test]
    fn stale_cursor_gets_full_content_resync() {
        let live = LiveDocs::new(Arc::new(DocsServer::new()));
        let doc = create_doc(&live);
        // Overflow the default ring so cursor 0 falls off.
        for i in 0..(crate::bus::DEFAULT_RING_CAPACITY + 4) {
            save_contents(&live, &doc, &format!("v{i}"));
        }
        let pairs = changes(&live, &doc, 0, 0);
        assert_eq!(values(&pairs, "resync"), vec!["1"]);
        let content = values(&pairs, "content");
        assert_eq!(content.len(), 1);
        assert!(content[0].starts_with('v'));
        assert_eq!(
            values(&pairs, "contentHash"),
            vec![DocsServer::content_hash(content[0]).as_str()]
        );
    }

    #[test]
    fn a_resync_resumes_at_the_version_of_its_content() {
        let live = LiveDocs::new(Arc::new(DocsServer::new()));
        let doc = create_doc(&live);
        save_contents(&live, &doc, "v1");
        // A save the store holds but the bus has not published yet.
        live.docs().store().put_full(&doc, b"v2").unwrap();
        let pairs = changes(&live, &doc, 99, 0);
        assert_eq!(values(&pairs, "resync"), vec!["1"]);
        assert_eq!(values(&pairs, "content"), vec!["v2"]);
        assert_eq!(values(&pairs, "seq"), vec!["2"], "cursor must match the content");
    }

    #[test]
    fn unknown_document_is_a_404() {
        let live = LiveDocs::new(Arc::new(DocsServer::new()));
        let resp = live.handle(&Request::get(
            "/Doc/changes",
            &[("docID", "nope"), ("since", "0"), ("waitMs", "0")],
        ));
        assert_eq!(resp.status, 404);
    }

    #[test]
    fn malformed_cursor_is_a_400() {
        let live = LiveDocs::new(Arc::new(DocsServer::new()));
        let doc = create_doc(&live);
        let resp = live
            .handle(&Request::get("/Doc/changes", &[("docID", &doc), ("since", "later")]));
        assert_eq!(resp.status, 400);
        let resp = live.handle(&Request::get("/Doc/changes", &[("docID", &doc)]));
        assert_eq!(resp.status, 400);
    }

    #[test]
    fn presence_round_trips_and_rides_the_change_stream() {
        let live = LiveDocs::new(Arc::new(DocsServer::new()));
        let doc = create_doc(&live);
        save_contents(&live, &doc, "v1");
        let body = form::encode_pairs(&[("client", "c1"), ("sealed", "deadbeef")]);
        let resp = live.handle(&Request::post("/Doc/presence", &[("docID", &doc)], body));
        assert!(resp.is_success());
        // Dedicated endpoint…
        let resp = live.handle(&Request::get("/Doc/presence", &[("docID", &doc)]));
        let pairs: Vec<(String, String)> =
            form::parse_pairs(resp.body_text().unwrap()).unwrap().into_iter().collect();
        assert_eq!(values(&pairs, "presence"), vec!["c1:deadbeef"]);
        // …and piggybacked on every changes answer.
        let pairs = changes(&live, &doc, 0, 0);
        assert_eq!(values(&pairs, "presence"), vec!["c1:deadbeef"]);
    }

    #[test]
    fn other_endpoints_forward_to_the_docs_server() {
        let live = LiveDocs::new(Arc::new(DocsServer::new()));
        let doc = create_doc(&live);
        save_contents(&live, &doc, "hello world");
        let resp = live.handle(&Request::get("/Doc/load", &[("docID", &doc)]));
        assert!(resp.is_success());
        assert!(resp.body_text().unwrap().contains("hello"));
    }
}
