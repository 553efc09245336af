//! The Google-Documents-style server (§IV-A of the paper).
//!
//! Reproduces the 2011 wire protocol the paper reverse-engineered:
//!
//! * `POST /Doc?cmd=create` — create a document, returns its `docID`.
//! * `POST /Doc?docID=…&cmd=open` — open an edit session; the response
//!   carries a session id, the current content and its hash. Session ids
//!   are minted in memory (see [`DocsServer`]), so an open writes nothing.
//! * `POST /Doc?docID=…` with a form body — save: the `docContents` field
//!   replaces the whole document (the first save of every session), the
//!   `delta` field applies an incremental update. The server answers with
//!   an **Ack** carrying `contentFromServer`, `contentFromServerHash` and
//!   the save's `version`; a delta save that carries the `baseVersion`
//!   precondition gets no hash, since its client learns the outcome from
//!   the version and nothing compares it.
//! * `GET /Doc/load?docID=…` — passive reader refresh (collaboration).
//!
//! Server-side *features* operate on the stored content — which is exactly
//! why they break under the privacy extension (§VII-A): spell checking
//! (`POST /spell`), translation (`POST /translate`), export
//! (`GET /export`), and drawing (`POST /drawing`, whose request body
//! itself carries plaintext primitives, so the mediator must block it).
//!
//! The server enforces Google's 500-kilobyte document limit the paper
//! cites when motivating multi-character blocks (§V-C).
//!
//! Storage is pluggable: the server is a protocol veneer over any
//! [`DocStore`] — [`MemStore`](pe_store::MemStore) by default (tests,
//! examples), or a durable [`pe_store::LogStore`] in the `pedit serve`
//! stack, where an acknowledged save survives `kill -9`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use pe_crypto::form;
use pe_crypto::hex;
use pe_crypto::sha256::Sha256;
use pe_crypto::{NonceSource, SystemRandom};
use pe_delta::Delta;
use pe_store::{DeltaLimits, DocStore, MemStore, StoreError};

use crate::{CloudService, Request, Response};

/// Maximum stored document size in bytes (Google's 2011 limit).
pub const MAX_DOC_BYTES: usize = 500 * 1024;

/// One accepted save, as observed by a [`SaveListener`].
///
/// The payload is whatever the client shipped — ciphertext when the
/// privacy extension is active. The server fans it out without ever
/// interpreting it.
#[derive(Debug, Clone)]
pub enum SaveChange {
    /// A full `docContents` save: the complete new stored content.
    Full(String),
    /// An incremental `delta` save: the serialized delta text.
    Delta(String),
}

/// Observer of accepted saves — the hook the live-collaboration layer
/// (`pe-collab`) uses to fan changes out to parked subscribers.
///
/// `seq` is the document's post-save version counter: monotonic, durable
/// (it rides the WAL), and therefore a valid resume cursor across server
/// restarts. Called synchronously after the store accepted the save and
/// before the Ack is returned; implementations must be fast and must not
/// call back into the server.
pub trait SaveListener: Send + Sync {
    /// One accepted save on `doc_id`, now at version `seq`.
    fn on_save(&self, doc_id: &str, seq: u64, change: &SaveChange);
}

/// Metadata key for the document id counter.
const META_NEXT_DOC: &str = "next_doc";
/// Metadata key of the session counter older releases kept in the store.
/// Text snapshots still carry it and [`DocsServer::restore_into`] keeps
/// it; nothing reads it any more.
const META_NEXT_SESSION: &str = "next_session";

/// The paths [`DocsServer`] routes. Each keeps its own request counters;
/// every other path counts as `other`, so clients cannot mint metrics.
const ROUTED_PATHS: [&str; 10] = [
    "/Doc",
    "/Doc/load",
    "/Doc/revisions",
    "/tenant/record",
    "/tenant/verify",
    "/tenant/list",
    "/spell",
    "/translate",
    "/export",
    "/drawing",
];

/// Counts one answered request as `cloud.req.<path>.<class>xx`, resolving
/// each (path, status class) handle once.
fn count_request(path: &str, status: u16) {
    const CLASSES: usize = 5;
    static COUNTERS: [[OnceLock<pe_observe::Counter>; CLASSES]; ROUTED_PATHS.len() + 1] =
        [const { [const { OnceLock::new() }; CLASSES] }; ROUTED_PATHS.len() + 1];
    let route = ROUTED_PATHS.iter().position(|routed| *routed == path);
    let class = usize::from(status / 100).clamp(1, CLASSES);
    COUNTERS[route.unwrap_or(ROUTED_PATHS.len())][class - 1]
        .get_or_init(|| {
            let name = route.map_or("other", |r| ROUTED_PATHS[r]);
            pe_observe::counter(&format!("cloud.req.{name}.{class}xx"))
        })
        .inc();
}

/// A small English dictionary for the spell-check feature. Real enough to
/// make plaintext prose pass and Base32 ciphertext fail spectacularly.
const DICTIONARY: &[&str] = &[
    "a", "about", "all", "also", "an", "and", "are", "as", "at", "be", "because", "but", "by",
    "can", "come", "could", "day", "do", "document", "even", "find", "first", "for", "from",
    "get", "give", "go", "have", "he", "her", "here", "him", "his", "how", "i", "if", "in",
    "into", "it", "its", "just", "know", "like", "look", "make", "man", "many", "me", "meet",
    "more", "my", "new", "no", "noon", "not", "now", "of", "on", "one", "only", "or", "other",
    "our", "out", "people", "say", "secret", "see", "she", "so", "some", "take", "than", "that",
    "the", "their", "them", "then", "there", "these", "they", "thing", "think", "this", "those",
    "time", "to", "two", "up", "use", "very", "want", "way", "we", "well", "what", "when",
    "which", "who", "will", "with", "word", "world", "would", "year", "you", "your", "quick",
    "brown", "fox", "jumps", "over", "lazy", "dog", "hello", "attack", "at", "dawn", "editing",
    "private", "cloud", "service", "paper", "plan", "was", "old", "yes", "did", "has",
];

/// The simulated Google-Documents word-processor backend.
///
/// Thread-safe; clients, mediators, and benchmark harnesses may share one
/// instance.
///
/// Session ids are `s<prefix>-<n>`: a random 64-bit prefix drawn when the
/// server is built, then a per-server counter. They are per process and
/// never stored (no crate reads an id back), so opening a document is a
/// pure read; the random prefix keeps ids from repeating across restarts
/// or between servers over one store.
///
/// # Example
///
/// ```
/// use pe_cloud::docs::DocsServer;
/// use pe_cloud::{CloudService, Request};
/// use pe_crypto::form;
///
/// let server = DocsServer::new();
/// let created = server.handle(&Request::post("/Doc", &[("cmd", "create")], ""));
/// let pairs = form::parse_pairs(created.body_text().unwrap())?;
/// let doc_id = form::first_value(&pairs, "docID").unwrap();
/// assert!(doc_id.starts_with("doc"));
/// # Ok::<(), pe_crypto::CryptoError>(())
/// ```
pub struct DocsServer {
    store: Arc<dyn DocStore>,
    /// Serializes tenant-record mutations so their check-then-put pairs
    /// (registration uniqueness, ownership checks) are atomic.
    tenant_lock: std::sync::Mutex<()>,
    /// Fan-out hook for accepted saves (live collaboration).
    save_listener: std::sync::RwLock<Option<Arc<dyn SaveListener>>>,
    /// This server's random session-id prefix.
    session_prefix: u64,
    /// Session ids minted so far.
    sessions: AtomicU64,
}

impl std::fmt::Debug for DocsServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DocsServer").field("store", &self.store.name()).finish()
    }
}

impl Default for DocsServer {
    fn default() -> DocsServer {
        DocsServer::new()
    }
}

/// Maps a storage failure onto the 2011 wire protocol's status codes.
fn store_error(e: &StoreError) -> Response {
    match e {
        StoreError::NoSuchDocument => Response::error(404, "no such document"),
        StoreError::Conflict(msg) => Response::error(409, &format!("delta conflict: {msg}")),
        StoreError::TooLarge { .. } => Response::error(413, "document exceeds 500kB limit"),
        StoreError::InvalidUtf8 => Response::error(400, "delta produced invalid text"),
        other => Response::error(500, &format!("storage failure: {other}")),
    }
}

/// [`DocsServer::content_hash`] of stored bytes.
fn hash_bytes(content: &[u8]) -> String {
    hex::encode(&Sha256::digest(content)[..8])
}

/// Stored bytes as text, keeping their buffer. Saves are checked to be
/// UTF-8, so the lossy copy is only for bytes that got in otherwise.
pub fn stored_text(content: Vec<u8>) -> String {
    String::from_utf8(content)
        .unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned())
}

impl DocsServer {
    /// Creates a server with no documents, backed by an in-memory store.
    pub fn new() -> DocsServer {
        DocsServer::with_store(Arc::new(MemStore::new()))
    }

    /// Creates a server over an existing store — a durable
    /// [`pe_store::LogStore`] makes every acknowledged save survive a
    /// crash; documents already in the store are served as-is.
    pub fn with_store(store: Arc<dyn DocStore>) -> DocsServer {
        DocsServer {
            store,
            tenant_lock: std::sync::Mutex::new(()),
            save_listener: std::sync::RwLock::new(None),
            session_prefix: SystemRandom::new().next_u64(),
            sessions: AtomicU64::new(0),
        }
    }

    /// Installs the observer notified after every accepted save (at most
    /// one; a second call replaces the first). Used by `pe-collab` to
    /// wake parked `/Doc/changes` subscribers.
    pub fn set_save_listener(&self, listener: Arc<dyn SaveListener>) {
        *self.save_listener.write().unwrap_or_else(|p| p.into_inner()) = Some(listener);
    }

    fn publish_save(&self, doc_id: &str, seq: u64, change: &SaveChange) {
        let guard = self.save_listener.read().unwrap_or_else(|p| p.into_inner());
        if let Some(listener) = guard.as_ref() {
            listener.on_save(doc_id, seq, change);
        }
    }

    /// Guard held for the duration of any tenant-record mutation.
    pub(crate) fn tenant_mutation_lock(&self) -> std::sync::MutexGuard<'_, ()> {
        self.tenant_lock.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// The backing store (tooling: flush/compact/inspect).
    pub fn store(&self) -> &Arc<dyn DocStore> {
        &self.store
    }

    /// Hash the server reports in Ack messages (`contentFromServerHash`).
    /// Note it is computed over the *stored* content — ciphertext when the
    /// privacy extension is active, which is what makes collaborative
    /// editing only partially functional (§VII-A).
    pub fn content_hash(content: &str) -> String {
        hash_bytes(content.as_bytes())
    }

    /// Direct (test/bench) access to a document's stored content.
    pub fn stored_content(&self, doc_id: &str) -> Option<String> {
        self.store.content(doc_id).map(stored_text)
    }

    /// A document's version counter (the change stream's head after a
    /// restart; also tests and benches).
    pub fn stored_version(&self, doc_id: &str) -> Option<u64> {
        self.store.current(doc_id).map(|(_, version)| version)
    }

    /// Direct (test/bench) access to the stored revision history.
    pub fn stored_revisions(&self, doc_id: &str) -> Option<Vec<String>> {
        self.store.get(doc_id).map(|d| {
            d.revisions.iter().map(|r| String::from_utf8_lossy(r).into_owned()).collect()
        })
    }

    /// Lists all document ids, sorted (tooling/tests). Tenant-directory
    /// records (reserved `~tenant/` prefix) are internal and excluded.
    pub fn list_documents(&self) -> Vec<String> {
        self.store
            .list()
            .into_iter()
            .filter(|id| !id.starts_with(crate::tenant::TENANT_PREFIX))
            .collect()
    }

    /// Replays a text snapshot — the single-file store format `pedit`
    /// wrote before it kept a store directory — into an existing store.
    /// The format is line-oriented: `next_doc=N`, `next_session=N`, and
    /// one form-encoded line per document (`docID`, `content`, `version`,
    /// then one `revision` per past content, oldest first). Each
    /// document's save history is re-executed (create, then one full save
    /// per revision, then the current content), so version counters and
    /// revision lists reconstruct exactly.
    ///
    /// # Errors
    ///
    /// Returns a description of the malformed line, or of the storage
    /// failure, on error.
    pub fn restore_into(snapshot: &str, store: &dyn DocStore) -> Result<(), String> {
        for (line_no, line) in snapshot.lines().enumerate() {
            if line.is_empty() {
                continue;
            }
            if let Some(n) = line.strip_prefix("next_doc=") {
                let n: u64 = n.parse().map_err(|_| format!("line {line_no}: bad next_doc"))?;
                store
                    .set_meta(META_NEXT_DOC, n)
                    .map_err(|e| format!("line {line_no}: {e}"))?;
                continue;
            }
            if let Some(n) = line.strip_prefix("next_session=") {
                let n: u64 =
                    n.parse().map_err(|_| format!("line {line_no}: bad next_session"))?;
                store
                    .set_meta(META_NEXT_SESSION, n)
                    .map_err(|e| format!("line {line_no}: {e}"))?;
                continue;
            }
            let pairs = form::parse_pairs(line).map_err(|e| format!("line {line_no}: {e}"))?;
            let doc_id = form::first_value(&pairs, "docID")
                .ok_or_else(|| format!("line {line_no}: missing docID"))?
                .to_string();
            let content = form::first_value(&pairs, "content").unwrap_or("");
            let revisions: Vec<&str> =
                pairs.iter().filter(|(k, _)| k == "revision").map(|(_, v)| v.as_str()).collect();
            let io = |e: StoreError| format!("line {line_no}: {e}");
            store.create(&doc_id).map_err(io)?;
            // Replay the save history. A document's first revision is the
            // empty content `create` installed, so it is skipped — the
            // remaining revisions and the final content are one full save
            // each, reconstructing version == revisions.len().
            let mut history = revisions.iter();
            match history.next() {
                Some(&"") | None => {}
                Some(&first) => {
                    // Foreign snapshot whose history does not start empty:
                    // replay it verbatim (versions shift by one).
                    store.put_full(&doc_id, first.as_bytes()).map_err(io)?;
                }
            }
            for revision in history {
                store.put_full(&doc_id, revision.as_bytes()).map_err(io)?;
            }
            if !revisions.is_empty() || !content.is_empty() {
                store.put_full(&doc_id, content.as_bytes()).map_err(io)?;
            }
        }
        Ok(())
    }

    fn revisions(&self, doc_id: &str, index: Option<&str>) -> Response {
        let Some(doc) = self.store.get(doc_id) else {
            return Response::error(404, "no such document");
        };
        match index {
            None => Response::ok(form::encode_pairs(&[(
                "revisionCount",
                doc.revisions.len().to_string().as_str(),
            )])),
            Some(raw) => {
                let Ok(i) = raw.parse::<usize>() else {
                    return Response::error(400, "bad revision index");
                };
                match doc.revisions.get(i) {
                    Some(content) => Response::ok(form::encode_pairs(&[(
                        "content",
                        String::from_utf8_lossy(content).as_ref(),
                    )])),
                    None => Response::error(404, "no such revision"),
                }
            }
        }
    }

    fn create(&self) -> Response {
        let n = match self.store.bump_meta(META_NEXT_DOC) {
            Ok(n) => n,
            Err(e) => return store_error(&e),
        };
        let id = format!("doc{n}");
        if let Err(e) = self.store.create(&id) {
            return store_error(&e);
        }
        Response::ok(form::encode_pairs(&[("docID", id.as_str())]))
    }

    fn open(&self, doc_id: &str) -> Response {
        let Some((content, version)) = self.store.current(doc_id) else {
            return Response::error(404, "no such document");
        };
        let n = self.sessions.fetch_add(1, Ordering::Relaxed) + 1;
        let session = format!("s{:016x}-{n}", self.session_prefix);
        let content = stored_text(content);
        let hash = Self::content_hash(&content);
        Response::ok(form::encode_pairs(&[
            ("sessionID", session.as_str()),
            ("content", content.as_str()),
            ("contentHash", hash.as_str()),
            ("version", version.to_string().as_str()),
        ]))
    }

    fn save(&self, doc_id: &str, body: &str) -> Response {
        let Ok(pairs) = form::parse_pairs(body) else {
            return Response::error(400, "malformed form body");
        };
        if !self.store.contains(doc_id) {
            return Response::error(404, "no such document");
        }
        // `hash` is the Ack's `contentFromServerHash`, computed only for
        // the classic saves whose clients compare it (§IV-A); a save that
        // carries `baseVersion` learns the outcome from `version`.
        let (hash, version, change) =
            if let Some(contents) = form::first_value(&pairs, "docContents") {
                if contents.len() > MAX_DOC_BYTES {
                    return Response::error(413, "document exceeds 500kB limit");
                }
                let version = match self.store.put_full(doc_id, contents.as_bytes()) {
                    Ok(v) => v,
                    Err(e) => return store_error(&e),
                };
                let hash = Self::content_hash(contents);
                (Some(hash), version, SaveChange::Full(contents.to_string()))
            } else if let Some(delta_text) = form::first_value(&pairs, "delta") {
                let Ok(delta) = Delta::parse(delta_text) else {
                    return Response::error(400, "malformed delta");
                };
                // `baseVersion` is the client's optimistic-concurrency
                // precondition: reject the delta (409) unless the document
                // is still at the version it was computed against. Checked
                // atomically with the apply — a racing save cannot slip
                // between check and write.
                let base_version = form::first_value(&pairs, "baseVersion")
                    .and_then(|v| v.parse::<u64>().ok());
                let limits = DeltaLimits {
                    max_len: MAX_DOC_BYTES,
                    require_utf8: true,
                    base_version,
                };
                match self.store.apply_delta(doc_id, &delta, limits) {
                    Ok(state) => (
                        base_version.is_none().then(|| hash_bytes(&state.content)),
                        state.version,
                        SaveChange::Delta(delta_text.to_string()),
                    ),
                    Err(e) => return store_error(&e),
                }
            } else {
                return Response::error(400, "save needs docContents or delta");
            };
        self.publish_save(doc_id, version, &change);
        // The Ack conveys "the current content to the best of the
        // server's knowledge" (§IV-A). Like the real service, the content
        // field stays empty on ordinary saves (the client already holds
        // the content); the hash is what collaboration coordination uses.
        // `version` is the change-stream sequence this save landed at.
        let version = version.to_string();
        let mut fields = vec![("contentFromServer", "")];
        if let Some(hash) = hash.as_deref() {
            fields.push(("contentFromServerHash", hash));
        }
        fields.push(("version", version.as_str()));
        Response::ok(form::encode_pairs(&fields))
    }

    fn load(&self, doc_id: &str, caller_hash: Option<&str>) -> Response {
        let Some((content, version)) = self.store.current(doc_id) else {
            return Response::error(404, "no such document");
        };
        let content = stored_text(content);
        let hash = Self::content_hash(&content);
        let version = version.to_string();
        // 304-style fast path for passive readers: when the caller already
        // holds the current content (hashes match), skip the body.
        if caller_hash == Some(hash.as_str()) {
            pe_observe::static_counter!("docs.load_unchanged").inc();
            return Response::ok(form::encode_pairs(&[
                ("unchanged", "1"),
                ("contentHash", hash.as_str()),
                ("version", version.as_str()),
            ]));
        }
        Response::ok(form::encode_pairs(&[
            ("content", content.as_str()),
            ("contentHash", hash.as_str()),
            ("version", version.as_str()),
        ]))
    }

    fn spell_check(&self, doc_id: &str) -> Response {
        let Some(content) = self.stored_content(doc_id) else {
            return Response::error(404, "no such document");
        };
        let misspelled: Vec<String> = content
            .split(|c: char| !c.is_alphabetic())
            .filter(|w| !w.is_empty())
            .map(str::to_lowercase)
            .filter(|w| !DICTIONARY.contains(&w.as_str()))
            .collect();
        let mut unique = misspelled;
        unique.sort();
        unique.dedup();
        Response::ok(form::encode_pairs(&[("misspelled", unique.join(",").as_str())]))
    }

    fn translate(&self, doc_id: &str) -> Response {
        let Some(content) = self.stored_content(doc_id) else {
            return Response::error(404, "no such document");
        };
        // A toy "translation": pig latin, word by word. Stands in for the
        // real service's plaintext-dependent translation feature.
        let translated: String =
            content.split(' ').map(pig_latin).collect::<Vec<_>>().join(" ");
        Response::ok(form::encode_pairs(&[("translated", translated.as_str())]))
    }

    fn export(&self, doc_id: &str, format: &str) -> Response {
        let Some(content) = self.stored_content(doc_id) else {
            return Response::error(404, "no such document");
        };
        match format {
            "txt" => Response::ok(content),
            "upper" => Response::ok(content.to_uppercase()),
            _ => Response::error(400, "unknown export format"),
        }
    }

    fn drawing(&self, body: &str) -> Response {
        // The real service rendered drawing primitives server-side. The
        // request body itself carries plaintext, which is why the mediator
        // must block this path.
        Response::ok(format!("rendered:{body}"))
    }
}

/// Pig-latin translation of a single word (punctuation passes through).
fn pig_latin(word: &str) -> String {
    let mut chars = word.chars();
    match chars.next() {
        Some(first) if first.is_alphabetic() => {
            format!("{}{}ay", chars.as_str(), first.to_lowercase())
        }
        _ => word.to_string(),
    }
}

impl CloudService for DocsServer {
    fn handle(&self, request: &Request) -> Response {
        let doc_id = request.query_param("docID").unwrap_or("");
        let response = match (request.method, request.path.as_str()) {
            (crate::Method::Post, "/Doc") => match request.query_param("cmd") {
                Some("create") => self.create(),
                Some("open") => self.open(doc_id),
                None => {
                    self.save(doc_id, request.body_text().unwrap_or(""))
                }
                Some(other) => Response::error(400, &format!("unknown command {other}")),
            },
            (crate::Method::Get, "/Doc/load") => {
                self.load(doc_id, request.query_param("hash"))
            }
            (crate::Method::Get, "/tenant/record") => self.tenant_record_get(request),
            (crate::Method::Post, "/tenant/record") => self.tenant_record_post(request),
            (crate::Method::Post, "/tenant/verify") => self.tenant_verify(request),
            (crate::Method::Get, "/tenant/list") => self.tenant_list(request),
            (crate::Method::Get, "/Doc/revisions") => {
                self.revisions(doc_id, request.query_param("index"))
            }
            (crate::Method::Post, "/spell") => self.spell_check(doc_id),
            (crate::Method::Post, "/translate") => self.translate(doc_id),
            (crate::Method::Get, "/export") => {
                self.export(doc_id, request.query_param("format").unwrap_or("txt"))
            }
            (crate::Method::Post, "/drawing") => {
                self.drawing(request.body_text().unwrap_or(""))
            }
            _ => Response::error(404, "unknown endpoint"),
        };
        pe_observe::static_counter!("cloud.requests").inc();
        count_request(&request.path, response.status);
        response
    }

    fn name(&self) -> &'static str {
        "google-documents"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn create_doc(server: &DocsServer) -> String {
        let resp = server.handle(&Request::post("/Doc", &[("cmd", "create")], ""));
        let pairs = form::parse_pairs(resp.body_text().unwrap()).unwrap();
        form::first_value(&pairs, "docID").unwrap().to_string()
    }

    fn save_contents(server: &DocsServer, doc: &str, contents: &str) -> Response {
        let body = form::encode_pairs(&[("docContents", contents)]);
        server.handle(&Request::post("/Doc", &[("docID", doc)], body))
    }

    fn save_delta(server: &DocsServer, doc: &str, delta: &str) -> Response {
        let body = form::encode_pairs(&[("delta", delta)]);
        server.handle(&Request::post("/Doc", &[("docID", doc)], body))
    }

    #[test]
    fn create_open_save_cycle() {
        let server = DocsServer::new();
        let doc = create_doc(&server);
        let resp = save_contents(&server, &doc, "hello world");
        assert!(resp.is_success());
        assert_eq!(server.stored_content(&doc).unwrap(), "hello world");
        let open = server.handle(&Request::post("/Doc", &[("docID", &doc), ("cmd", "open")], ""));
        let pairs = form::parse_pairs(open.body_text().unwrap()).unwrap();
        assert_eq!(form::first_value(&pairs, "content"), Some("hello world"));
    }

    #[test]
    fn delta_saves_apply_incrementally() {
        let server = DocsServer::new();
        let doc = create_doc(&server);
        save_contents(&server, &doc, "abcdefg");
        // The paper's example: "=2 -3 +uv =2 +w" turns abcdefg into abuvfgw.
        let resp = save_delta(&server, &doc, "=2\t-3\t+uv\t=2\t+w");
        assert!(resp.is_success());
        assert_eq!(server.stored_content(&doc).unwrap(), "abuvfgw");
        assert_eq!(server.stored_version(&doc), Some(2));
    }

    #[test]
    fn ack_carries_hash_of_stored_content() {
        let server = DocsServer::new();
        let doc = create_doc(&server);
        let resp = save_contents(&server, &doc, "content");
        let pairs = form::parse_pairs(resp.body_text().unwrap()).unwrap();
        assert_eq!(form::first_value(&pairs, "contentFromServer"), Some(""));
        assert_eq!(
            form::first_value(&pairs, "contentFromServerHash"),
            Some(DocsServer::content_hash("content").as_str())
        );
    }

    #[test]
    fn a_base_version_save_is_acked_with_its_version_and_no_hash() {
        let server = DocsServer::new();
        let doc = create_doc(&server);
        save_contents(&server, &doc, "content");
        let body = form::encode_pairs(&[("delta", "=7\t+!"), ("baseVersion", "1")]);
        let resp = server.handle(&Request::post("/Doc", &[("docID", &doc)], body));
        let pairs = form::parse_pairs(resp.body_text().unwrap()).unwrap();
        assert_eq!(form::first_value(&pairs, "version"), Some("2"));
        assert_eq!(form::first_value(&pairs, "contentFromServerHash"), None);
        // A classic delta save still carries the hash its client compares.
        let resp = save_delta(&server, &doc, "=8\t+?");
        let pairs = form::parse_pairs(resp.body_text().unwrap()).unwrap();
        assert_eq!(
            form::first_value(&pairs, "contentFromServerHash"),
            Some(DocsServer::content_hash("content!?").as_str())
        );
    }

    #[test]
    fn bad_delta_is_a_conflict() {
        let server = DocsServer::new();
        let doc = create_doc(&server);
        save_contents(&server, &doc, "short");
        let resp = save_delta(&server, &doc, "=100\t-1");
        assert_eq!(resp.status, 409);
        // Content unchanged on conflict.
        assert_eq!(server.stored_content(&doc).unwrap(), "short");
    }

    #[test]
    fn size_limit_enforced() {
        let server = DocsServer::new();
        let doc = create_doc(&server);
        let huge = "x".repeat(MAX_DOC_BYTES + 1);
        assert_eq!(save_contents(&server, &doc, &huge).status, 413);
        save_contents(&server, &doc, "small");
        let grow = format!("+{}", "y".repeat(MAX_DOC_BYTES));
        assert_eq!(save_delta(&server, &doc, &grow).status, 413);
    }

    #[test]
    fn unknown_document_is_404() {
        let server = DocsServer::new();
        assert_eq!(save_contents(&server, "nope", "x").status, 404);
        assert_eq!(server.handle(&Request::get("/Doc/load", &[("docID", "nope")])).status, 404);
    }

    #[test]
    fn spell_check_flags_unknown_words() {
        let server = DocsServer::new();
        let doc = create_doc(&server);
        save_contents(&server, &doc, "the quick brown fox zzyzx");
        let resp = server.handle(&Request::post("/spell", &[("docID", &doc)], ""));
        let pairs = form::parse_pairs(resp.body_text().unwrap()).unwrap();
        assert_eq!(form::first_value(&pairs, "misspelled"), Some("zzyzx"));
    }

    #[test]
    fn spell_check_on_ciphertext_flags_everything() {
        let server = DocsServer::new();
        let doc = create_doc(&server);
        // Simulates what the server sees under the extension.
        save_contents(&server, &doc, "MZXW6YTB OI2DKNRU GEZDGNBV");
        let resp = server.handle(&Request::post("/spell", &[("docID", &doc)], ""));
        let pairs = form::parse_pairs(resp.body_text().unwrap()).unwrap();
        // Digits split the Base32 tokens, so more fragments than "words"
        // are flagged — the point is that nothing passes the dictionary.
        let flagged = form::first_value(&pairs, "misspelled").unwrap();
        assert!(flagged.split(',').count() >= 3, "ciphertext must be flagged: {flagged}");
    }

    #[test]
    fn translate_and_export() {
        let server = DocsServer::new();
        let doc = create_doc(&server);
        save_contents(&server, &doc, "hello world");
        let resp = server.handle(&Request::post("/translate", &[("docID", &doc)], ""));
        let pairs = form::parse_pairs(resp.body_text().unwrap()).unwrap();
        assert_eq!(form::first_value(&pairs, "translated"), Some("ellohay orldway"));
        let resp =
            server.handle(&Request::get("/export", &[("docID", &doc), ("format", "upper")]));
        assert_eq!(resp.body_text(), Some("HELLO WORLD"));
    }

    #[test]
    fn drawing_renders_primitives() {
        let server = DocsServer::new();
        let resp = server.handle(&Request::post("/drawing", &[], "circle(3,4,5)"));
        assert_eq!(resp.body_text(), Some("rendered:circle(3,4,5)"));
    }

    fn restore(text: &str) -> Result<DocsServer, String> {
        let store: Arc<dyn DocStore> = Arc::new(MemStore::new());
        DocsServer::restore_into(text, store.as_ref())?;
        Ok(DocsServer::with_store(store))
    }

    #[test]
    fn restore_into_replays_a_text_snapshot_exactly() {
        let doc_line = form::encode_pairs(&[
            ("docID", "doc1"),
            ("content", "persistent content with = & % chars"),
            ("version", "2"),
            ("revision", ""),
            ("revision", "v1"),
        ]);
        let restored = restore(&format!("next_doc=1\nnext_session=4\n{doc_line}\n")).unwrap();
        assert_eq!(
            restored.stored_content("doc1").as_deref(),
            Some("persistent content with = & % chars")
        );
        assert_eq!(restored.stored_version("doc1"), Some(2));
        assert_eq!(restored.stored_revisions("doc1"), Some(vec![String::new(), "v1".into()]));
        assert_eq!(restored.store().meta(META_NEXT_SESSION), Some(4));
        // Restored servers continue issuing fresh ids.
        let resp = restored.handle(&Request::post("/Doc", &[("cmd", "create")], ""));
        let pairs = form::parse_pairs(resp.body_text().unwrap()).unwrap();
        assert_eq!(form::first_value(&pairs, "docID"), Some("doc2"));
    }

    /// A store that counts the calls that would write.
    struct CountingStore {
        inner: MemStore,
        writes: std::sync::atomic::AtomicUsize,
    }

    impl CountingStore {
        fn wrote(&self) {
            self.writes.fetch_add(1, Ordering::Relaxed);
        }
    }

    impl DocStore for CountingStore {
        fn get(&self, id: &str) -> Option<pe_store::DocState> {
            self.inner.get(id)
        }
        fn content(&self, id: &str) -> Option<Vec<u8>> {
            self.inner.content(id)
        }
        fn current(&self, id: &str) -> Option<(Vec<u8>, u64)> {
            self.inner.current(id)
        }
        fn list(&self) -> Vec<String> {
            self.inner.list()
        }
        fn create(&self, id: &str) -> Result<bool, StoreError> {
            self.wrote();
            self.inner.create(id)
        }
        fn put_full(&self, id: &str, content: &[u8]) -> Result<u64, StoreError> {
            self.wrote();
            self.inner.put_full(id, content)
        }
        fn apply_delta(
            &self,
            id: &str,
            delta: &Delta,
            limits: DeltaLimits,
        ) -> Result<pe_store::DocState, StoreError> {
            self.wrote();
            self.inner.apply_delta(id, delta, limits)
        }
        fn remove(&self, id: &str) -> Result<bool, StoreError> {
            self.wrote();
            self.inner.remove(id)
        }
        fn meta(&self, key: &str) -> Option<u64> {
            self.inner.meta(key)
        }
        fn set_meta(&self, key: &str, value: u64) -> Result<(), StoreError> {
            self.wrote();
            self.inner.set_meta(key, value)
        }
        fn bump_meta(&self, key: &str) -> Result<u64, StoreError> {
            self.wrote();
            self.inner.bump_meta(key)
        }
        fn meta_entries(&self) -> Vec<(String, u64)> {
            self.inner.meta_entries()
        }
        fn flush(&self) -> Result<(), StoreError> {
            self.wrote();
            self.inner.flush()
        }
        fn compact(&self) -> Result<pe_store::CompactionStats, StoreError> {
            self.wrote();
            self.inner.compact()
        }
        fn name(&self) -> &'static str {
            "counting"
        }
    }

    fn open_session(server: &DocsServer, doc: &str) -> Response {
        server.handle(&Request::post("/Doc", &[("docID", doc), ("cmd", "open")], ""))
    }

    fn session_id(open: &Response) -> String {
        assert!(open.is_success(), "open failed: {}", open.status);
        let pairs = form::parse_pairs(open.body_text().unwrap()).unwrap();
        form::first_value(&pairs, "sessionID").unwrap().to_string()
    }

    #[test]
    fn opens_write_nothing_and_mint_distinct_ids() {
        let store = Arc::new(CountingStore {
            inner: MemStore::new(),
            writes: std::sync::atomic::AtomicUsize::new(0),
        });
        let server = DocsServer::with_store(store.clone());
        let doc = create_doc(&server);
        save_contents(&server, &doc, "read me");
        let before = store.writes.load(Ordering::Relaxed);
        let ids: std::collections::HashSet<String> =
            (0..100).map(|_| session_id(&open_session(&server, &doc))).collect();
        assert_eq!(store.writes.load(Ordering::Relaxed), before, "an open wrote to the store");
        assert_eq!(ids.len(), 100, "session ids repeat within one server");
    }

    #[test]
    fn servers_over_one_store_never_repeat_a_session_id() {
        // A restart is a second server over the same store.
        let store: Arc<dyn DocStore> = Arc::new(MemStore::new());
        let first = DocsServer::with_store(store.clone());
        let doc = create_doc(&first);
        let mut ids: Vec<String> =
            (0..50).map(|_| session_id(&open_session(&first, &doc))).collect();
        drop(first);
        let second = DocsServer::with_store(store);
        ids.extend((0..50).map(|_| session_id(&open_session(&second, &doc))));
        let distinct: std::collections::HashSet<&String> = ids.iter().collect();
        assert_eq!(distinct.len(), ids.len(), "a restarted server repeated a session id");
    }

    #[test]
    fn opening_a_missing_document_mints_no_id() {
        let server = DocsServer::new();
        assert_eq!(open_session(&server, "nope").status, 404);
        let doc = create_doc(&server);
        let id = session_id(&open_session(&server, &doc));
        assert!(id.ends_with("-1"), "the 404 consumed a session id: {id}");
    }

    #[test]
    fn unknown_paths_share_one_counter_per_status_class() {
        let server = DocsServer::new();
        for i in 0..10_000 {
            let resp = server.handle(&Request::get(&format!("/probe-{i}"), &[]));
            assert_eq!(resp.status, 404);
        }
        let snapshot = pe_observe::global().snapshot();
        let names: Vec<&str> = snapshot
            .counters
            .iter()
            .map(|c| c.name.as_str())
            .filter(|name| name.starts_with("cloud.req."))
            .collect();
        assert!(!names.iter().any(|name| name.contains("/probe-")), "a probe path minted a metric");
        // Other tests in this process may count routed paths concurrently;
        // unknown paths add at most one counter per status class.
        assert!(names.len() <= (ROUTED_PATHS.len() + 1) * 5, "{} request counters", names.len());
        assert!(snapshot.counter("cloud.req.other.4xx").unwrap_or(0) >= 10_000);
    }

    #[test]
    fn restore_rejects_garbage() {
        assert!(restore("next_doc=abc").is_err());
        assert!(restore("content=x").is_err(), "missing docID");
    }

    #[test]
    fn revision_history_is_kept() {
        let server = DocsServer::new();
        let doc = create_doc(&server);
        save_contents(&server, &doc, "v1");
        save_delta(&server, &doc, "+x");
        save_contents(&server, &doc, "v3");
        // History: "", "v1", "xv1".
        let revisions = server.stored_revisions(&doc).unwrap();
        assert_eq!(revisions, vec!["".to_string(), "v1".to_string(), "xv1".to_string()]);
        let resp = server.handle(&Request::get("/Doc/revisions", &[("docID", &doc)]));
        let pairs = form::parse_pairs(resp.body_text().unwrap()).unwrap();
        assert_eq!(form::first_value(&pairs, "revisionCount"), Some("3"));
        let resp = server
            .handle(&Request::get("/Doc/revisions", &[("docID", &doc), ("index", "1")]));
        let pairs = form::parse_pairs(resp.body_text().unwrap()).unwrap();
        assert_eq!(form::first_value(&pairs, "content"), Some("v1"));
        let resp = server
            .handle(&Request::get("/Doc/revisions", &[("docID", &doc), ("index", "9")]));
        assert_eq!(resp.status, 404);
    }

    #[test]
    fn version_counts_saves() {
        let server = DocsServer::new();
        let doc = create_doc(&server);
        save_contents(&server, &doc, "v1");
        save_delta(&server, &doc, "+x");
        save_delta(&server, &doc, "+y");
        assert_eq!(server.stored_version(&doc), Some(3));
    }

    #[test]
    fn ack_and_load_carry_version() {
        let server = DocsServer::new();
        let doc = create_doc(&server);
        let resp = save_contents(&server, &doc, "v1");
        let pairs = form::parse_pairs(resp.body_text().unwrap()).unwrap();
        assert_eq!(form::first_value(&pairs, "version"), Some("1"));
        let resp = save_delta(&server, &doc, "+x");
        let pairs = form::parse_pairs(resp.body_text().unwrap()).unwrap();
        assert_eq!(form::first_value(&pairs, "version"), Some("2"));
        let resp = server.handle(&Request::get("/Doc/load", &[("docID", &doc)]));
        let pairs = form::parse_pairs(resp.body_text().unwrap()).unwrap();
        assert_eq!(form::first_value(&pairs, "version"), Some("2"));
    }

    #[test]
    fn load_with_matching_hash_skips_body() {
        let server = DocsServer::new();
        let doc = create_doc(&server);
        save_contents(&server, &doc, "cached content");
        let hash = DocsServer::content_hash("cached content");
        let resp =
            server.handle(&Request::get("/Doc/load", &[("docID", &doc), ("hash", &hash)]));
        let pairs = form::parse_pairs(resp.body_text().unwrap()).unwrap();
        assert_eq!(form::first_value(&pairs, "unchanged"), Some("1"));
        assert_eq!(form::first_value(&pairs, "contentHash"), Some(hash.as_str()));
        assert_eq!(form::first_value(&pairs, "content"), None, "body must be skipped");
        // A stale hash still gets the full body.
        let resp =
            server.handle(&Request::get("/Doc/load", &[("docID", &doc), ("hash", "stale")]));
        let pairs = form::parse_pairs(resp.body_text().unwrap()).unwrap();
        assert_eq!(form::first_value(&pairs, "content"), Some("cached content"));
        assert_eq!(form::first_value(&pairs, "unchanged"), None);
    }

    #[test]
    fn save_listener_sees_accepted_saves_only() {
        struct Recorder(std::sync::Mutex<Vec<(String, u64, String)>>);
        impl SaveListener for Recorder {
            fn on_save(&self, doc_id: &str, seq: u64, change: &SaveChange) {
                let kind = match change {
                    SaveChange::Full(c) => format!("full:{c}"),
                    SaveChange::Delta(d) => format!("delta:{d}"),
                };
                self.0.lock().unwrap().push((doc_id.to_string(), seq, kind));
            }
        }
        let server = DocsServer::new();
        let recorder = Arc::new(Recorder(std::sync::Mutex::new(Vec::new())));
        server.set_save_listener(recorder.clone());
        let doc = create_doc(&server);
        save_contents(&server, &doc, "v1");
        save_delta(&server, &doc, "+x");
        save_delta(&server, &doc, "=100\t-1"); // conflict: must not publish
        let events = recorder.0.lock().unwrap().clone();
        assert_eq!(
            events,
            vec![
                (doc.clone(), 1, "full:v1".to_string()),
                (doc.clone(), 2, "delta:+x".to_string()),
            ]
        );
    }

    #[test]
    fn durable_store_survives_a_server_restart() {
        let dir = std::env::temp_dir().join(format!(
            "pe-docs-durable-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let doc;
        {
            let store: Arc<dyn DocStore> = Arc::new(
                pe_store::LogStore::open(&dir, pe_store::StoreConfig::default()).unwrap(),
            );
            let server = DocsServer::with_store(store);
            doc = create_doc(&server);
            save_contents(&server, &doc, "survives");
            save_delta(&server, &doc, "=8\t+ the crash");
        }
        let store: Arc<dyn DocStore> = Arc::new(
            pe_store::LogStore::open(&dir, pe_store::StoreConfig::default()).unwrap(),
        );
        let server = DocsServer::with_store(store);
        assert_eq!(server.stored_content(&doc).unwrap(), "survives the crash");
        assert_eq!(server.stored_version(&doc), Some(2));
        assert_eq!(
            server.stored_revisions(&doc).unwrap(),
            vec!["".to_string(), "survives".to_string()]
        );
        // Fresh ids continue past the restart.
        let second = create_doc(&server);
        assert_ne!(second, doc);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
