//! Following collaborators through the change stream: the mediator turns
//! each ciphertext delta the server fans out into record splices on its
//! cached document and emits, per splice, the diff of the text it
//! replaced and the text it inserted — decrypting only the records the
//! change inserted. Anything that is not a clean,
//! verified splice must end in a full-content resync or an error, never
//! in wrong plaintext or a half-applied mirror.
//!
//! The tests read process-wide counters (blocks opened, fallbacks), so
//! they hold one lock while they run.

use std::sync::{Arc, Mutex, MutexGuard};

use pe_cloud::docs::{DocsServer, SaveChange, SaveListener};
use pe_cloud::{CloudService, Method, Request, Response};
use pe_core::wire::{Preamble, RECORD_CHARS};
use pe_core::{
    patches_to_delta, DeltaTransformer, DocumentKey, EditOp, IncrementalCipherDoc, Mode,
    RecbDocument, RpcDocument,
};
use pe_crypto::{form, CtrDrbg};
use pe_delta::{diff, Delta, DeltaOp};
use pe_extension::{DocsMediator, ExtensionError, Mediated, MediatorConfig};
use proptest::prelude::*;

const PASSWORD: &str = "follow-pw";
const KDF_ITERATIONS: u32 = 16;

static COUNTERS: Mutex<()> = Mutex::new(());

fn counters() -> MutexGuard<'static, ()> {
    COUNTERS
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn opened() -> u64 {
    pe_observe::counter("core.blocks_opened.recb").get()
        + pe_observe::counter("core.blocks_opened.rpc").get()
}

fn fallbacks() -> u64 {
    pe_observe::counter("mediator.changes_fallbacks").get()
}

/// Every accepted save as a change-stream entry, as the live server's
/// change bus records them.
#[derive(Default)]
struct Stream(Mutex<Vec<(u64, String)>>);

impl SaveListener for Stream {
    fn on_save(&self, _doc_id: &str, seq: u64, change: &SaveChange) {
        let (kind, payload) = match change {
            SaveChange::Full(text) => ("full", text),
            SaveChange::Delta(text) => ("delta", text),
        };
        self.0
            .lock()
            .unwrap()
            .push((seq, format!("{seq}:{kind}:{payload}")));
    }
}

/// A docs server with `/Doc/changes` in the wire format of the live
/// server (one document, never parks).
struct Server {
    docs: DocsServer,
    stream: Arc<Stream>,
}

impl Server {
    fn new() -> Arc<Server> {
        let stream = Arc::new(Stream::default());
        let docs = DocsServer::new();
        docs.set_save_listener(Arc::clone(&stream) as Arc<dyn SaveListener>);
        Arc::new(Server { docs, stream })
    }

    /// Stores a raw ciphertext delta, as a malicious writer or server
    /// could; it is fanned out like any save.
    fn store_raw(&self, doc: &str, cdelta: &str) {
        let body = form::encode_pairs(&[("delta", cdelta)]);
        let resp = self
            .docs
            .handle(&Request::post("/Doc", &[("docID", doc)], body));
        assert!(
            resp.is_success(),
            "raw save failed: {}",
            resp.body_text().unwrap_or("")
        );
    }

    /// The last entry's ciphertext delta.
    fn last_cdelta(&self) -> Delta {
        let stream = self.stream.0.lock().unwrap();
        let entry = &stream.last().expect("a change").1;
        Delta::parse(entry.splitn(3, ':').nth(2).unwrap()).unwrap()
    }

    fn head(&self) -> u64 {
        self.stream
            .0
            .lock()
            .unwrap()
            .last()
            .map_or(0, |(seq, _)| *seq)
    }
}

impl CloudService for Server {
    fn handle(&self, request: &Request) -> Response {
        if request.method == Method::Get && request.path == "/Doc/changes" {
            let since: u64 = request.query_param("since").unwrap().parse().unwrap();
            let stream = self.stream.0.lock().unwrap();
            let head = stream.last().map_or(since, |(seq, _)| *seq);
            let mut pairs = vec![("seq".to_string(), head.to_string())];
            for (_, entry) in stream.iter().filter(|(seq, _)| *seq > since) {
                pairs.push(("change".to_string(), entry.clone()));
            }
            return Response::ok(form::encode_pairs(&pairs));
        }
        self.docs.handle(request)
    }

    fn name(&self) -> &'static str {
        "stream"
    }
}

type Mediator = DocsMediator<Arc<Server>>;

fn config(rpc: bool, block: usize, canonical: bool) -> MediatorConfig {
    let base = if rpc {
        MediatorConfig::rpc(block)
    } else {
        MediatorConfig::recb(block)
    };
    MediatorConfig {
        canonicalize_deltas: canonical,
        kdf_iterations: KDF_ITERATIONS,
        ..base
    }
}

fn mediator(server: &Arc<Server>, config: MediatorConfig, seed: u64) -> Mediator {
    DocsMediator::with_rng(Arc::clone(server), config, CtrDrbg::from_seed(seed))
}

/// Two editors on one document, each following the other's saves.
struct Pair {
    server: Arc<Server>,
    config: MediatorConfig,
    doc: String,
    editors: [Mediator; 2],
    since: [u64; 2],
}

impl Pair {
    fn new(config: MediatorConfig, initial: &str, seed: u64) -> Pair {
        let server = Server::new();
        let mut a = mediator(&server, config, seed);
        let doc = a.create_document(PASSWORD).unwrap();
        assert!(a.save_full(&doc, initial).unwrap().response.is_success());
        let mut b = mediator(&server, config, seed ^ 0xb0b);
        b.register_password(&doc, PASSWORD);
        assert_eq!(b.open_document(&doc).unwrap(), initial);
        let head = server.head();
        Pair {
            server,
            config,
            doc,
            editors: [a, b],
            since: [head, head],
        }
    }

    fn text(&self, who: usize) -> String {
        self.editors[who].plaintext(&self.doc).unwrap().to_string()
    }

    /// One save by `who`; returns the (old, new) plaintexts.
    fn save(&mut self, who: usize, delta: &Delta) -> (String, String) {
        let old = self.text(who);
        let mediated = self.editors[who].save_delta(&self.doc, delta).unwrap();
        assert!(mediated.response.is_success(), "save rejected");
        self.since[who] = self.server.head();
        (old, self.text(who))
    }

    fn poll(&mut self, who: usize) -> Result<Mediated, ExtensionError> {
        let since = self.since[who].to_string();
        let request = Request::get(
            "/Doc/changes",
            &[("docID", &self.doc), ("since", &since), ("waitMs", "0")],
        );
        let result = self.editors[who].intercept(&request);
        self.since[who] = self.server.head();
        result
    }

    /// A fresh key holder's view of the stored ciphertext: its plaintext
    /// and the canonical serialization of a fresh open.
    fn fresh_open(&self) -> Result<(String, String), ExtensionError> {
        let mut fresh = mediator(&self.server, self.config, 0xf4e5);
        fresh.register_password(&self.doc, PASSWORD);
        let plaintext = fresh.open_document(&self.doc)?;
        Ok((plaintext, fresh.ciphertext(&self.doc).unwrap().to_string()))
    }

    /// The follower state must equal a fresh open of what the server
    /// stores, byte for byte.
    fn assert_matches_store(&self, who: usize) {
        let (plaintext, ciphertext) = self.fresh_open().expect("the store must open");
        assert_eq!(
            self.editors[who].plaintext(&self.doc),
            Some(plaintext.as_str())
        );
        assert_eq!(
            self.editors[who].ciphertext(&self.doc),
            Some(ciphertext.as_str())
        );
    }

    /// An encrypted document holding what the server stores, for
    /// computing ciphertext deltas without sending them.
    fn shadow(&self) -> DeltaTransformer<Box<dyn IncrementalCipherDoc + Send>> {
        let stored = self.server.docs.stored_content(&self.doc).unwrap();
        let preamble = Preamble::parse(&stored).unwrap();
        let key = DocumentKey::derive(PASSWORD, &preamble.salt, KDF_ITERATIONS);
        let doc: Box<dyn IncrementalCipherDoc + Send> = match preamble.mode {
            Mode::Recb => {
                Box::new(RecbDocument::open(&key, &stored, CtrDrbg::from_seed(5)).unwrap())
            }
            Mode::Rpc => Box::new(RpcDocument::open(&key, &stored, CtrDrbg::from_seed(5)).unwrap()),
        };
        DeltaTransformer::new(doc)
    }
}

/// The `delta` payloads of a translated changes answer, in order.
fn emitted(mediated: &Mediated) -> Vec<String> {
    let pairs = form::parse_pairs(mediated.response.body_text().unwrap()).unwrap();
    assert_eq!(
        form::first_value(&pairs, "resync"),
        None,
        "the change was not translated"
    );
    pairs
        .iter()
        .filter(|(k, _)| k == "change")
        .map(|(_, v)| {
            let mut parts = v.splitn(3, ':');
            let (_, kind, payload) = (parts.next(), parts.next().unwrap(), parts.next().unwrap());
            assert_eq!(kind, "delta");
            payload.to_string()
        })
        .collect()
}

fn inserted_records(cdelta: &Delta) -> u64 {
    cdelta
        .ops()
        .iter()
        .map(|op| match op {
            DeltaOp::Insert(text) => (text.len() / RECORD_CHARS) as u64,
            _ => 0,
        })
        .sum()
}

/// Builds a byte-counted delta from up to three hunks, each at a
/// character boundary of `text`: `(position, chars deleted, insert)`.
fn hunks_to_delta(text: &str, hunks: &[(usize, usize, String)]) -> Delta {
    let bounds: Vec<usize> = text
        .char_indices()
        .map(|(i, _)| i)
        .chain(std::iter::once(text.len()))
        .collect();
    let chars = bounds.len() - 1;
    let mut positions: Vec<(usize, usize, &str)> = hunks
        .iter()
        .map(|(at, del, ins)| (at % (chars + 1), *del, ins.as_str()))
        .collect();
    positions.sort_by_key(|h| h.0);
    let mut builder = Delta::builder();
    let mut cursor = 0; // in chars
    for (i, &(at, del, ins)) in positions.iter().enumerate() {
        let at = at.max(cursor);
        let limit = positions.get(i + 1).map_or(chars, |next| next.0.max(at));
        let end = (at + del).min(limit);
        builder
            .retain(bounds[at] - bounds[cursor])
            .delete(bounds[end] - bounds[at])
            .insert(ins);
        cursor = end;
    }
    builder.build()
}

/// Bytes a delta deletes plus bytes it inserts.
fn edited(delta: &Delta) -> usize {
    delta
        .ops()
        .iter()
        .map(|op| match op {
            DeltaOp::Retain(_) => 0,
            DeltaOp::Delete(n) => *n,
            DeltaOp::Insert(text) => text.len(),
        })
        .sum()
}

fn text(max: usize) -> impl Strategy<Value = String> {
    const ALPHABET: [char; 7] = ['a', 'b', ' ', 'é', 'ß', '日', '😀'];
    proptest::collection::vec(0..ALPHABET.len(), 0..max)
        .prop_map(|picks| picks.into_iter().map(|i| ALPHABET[i]).collect())
}

fn hunks() -> impl Strategy<Value = Vec<(usize, usize, String)>> {
    proptest::collection::vec((any::<usize>(), 0usize..5, text(6)), 1..4)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Honest sessions: every foreign change is translated (never a
    /// resync), the emitted delta turns `old` into `new` and edits no
    /// more bytes than `diff(old, new)` (it keeps the change's separate
    /// stretches apart instead of one window around them), the
    /// follower's mirror equals a fresh open of the stored ciphertext,
    /// and a change opens at most its inserted records plus two blocks.
    #[test]
    fn foreign_deltas_translate_to_the_exact_diff(
        rpc in any::<bool>(),
        block in 1usize..=8,
        canonical in any::<bool>(),
        initial in text(120),
        steps in proptest::collection::vec(
            (0usize..2, proptest::collection::vec(hunks(), 1..3)),
            1..8,
        ),
        seed in any::<u64>(),
    ) {
        let _counters = counters();
        let block = if rpc { block.min(7) } else { block };
        let mut pair = Pair::new(config(rpc, block, canonical), &initial, seed);
        let fallbacks_before = fallbacks();
        for (writer, saves) in steps {
            let reader = 1 - writer;
            let mut changes = Vec::new();
            let mut budget = 0;
            for hunks in &saves {
                let delta = hunks_to_delta(&pair.text(writer), hunks);
                changes.push(pair.save(writer, &delta));
                budget += inserted_records(&pair.server.last_cdelta()) + 2;
            }
            let before = opened();
            let mediated = pair.poll(reader).expect("an honest change translates");
            let spent = opened() - before;
            let emitted = emitted(&mediated);
            prop_assert_eq!(emitted.len(), changes.len());
            for (delta, (old, new)) in emitted.iter().zip(&changes) {
                let delta = Delta::parse(delta).unwrap();
                prop_assert_eq!(&delta.apply(old).unwrap(), new);
                prop_assert!(edited(&delta) <= edited(&diff(old, new)), "{:?} for {:?} -> {:?}", delta, old, new);
            }
            prop_assert!(spent <= budget, "opened {} blocks for a budget of {}", spent, budget);
            prop_assert_eq!(pair.text(reader), pair.text(writer));
            pair.assert_matches_store(reader);
        }
        prop_assert_eq!(fallbacks(), fallbacks_before, "an honest session fell back to a resync");
    }
}

/// A document and the byte offset of its first record.
fn layout_offsets() -> (usize, usize) {
    let layout = pe_core::Layout::standard();
    (layout.preamble_chars, layout.record_chars)
}

/// One record of `stored`, by index.
fn record(stored: &str, index: usize) -> String {
    let (pre, width) = layout_offsets();
    stored[pre + index * width..pre + (index + 1) * width].to_string()
}

/// Runs `tamper` (which stores a raw delta) against a follower in both
/// modes and checks the outcome is safe: an error with no cached state,
/// or state equal to a fresh open of the stored ciphertext. Returns
/// whether each mode translated without falling back.
fn check_tamper(name: &str, tamper: impl Fn(&Pair) -> String) -> [bool; 2] {
    let _counters = counters();
    let mut translated = [false; 2];
    for (i, rpc) in [false, true].into_iter().enumerate() {
        let initial = "the quick brown fox jumps over the lazy dog, then naps";
        let mut pair = Pair::new(config(rpc, 4, true), initial, 77);
        // An honest change first, so the follower is mid-session.
        let edit = hunks_to_delta(initial, &[(10, 2, "QQ".into())]);
        pair.save(0, &edit);
        pair.poll(1).expect("honest change");
        let cdelta = tamper(&pair);
        pair.server.store_raw(&pair.doc, &cdelta);
        let before = fallbacks();
        match pair.poll(1) {
            Err(_) => assert!(
                pair.editors[1].plaintext(&pair.doc).is_none(),
                "{name} (rpc={rpc}): an error left a cached mirror"
            ),
            Ok(_) => {
                assert!(
                    pair.fresh_open().is_ok(),
                    "{name} (rpc={rpc}): accepted an unopenable change"
                );
                pair.assert_matches_store(1);
                translated[i] = fallbacks() == before;
            }
        }
    }
    translated
}

/// An honest insertion's ciphertext delta, computed but not sent.
fn honest_insert(pair: &Pair, at: usize, text: &str) -> Delta {
    let mut builder = Delta::builder();
    builder.retain(at).insert(text);
    pair.shadow().transform(&builder.build()).unwrap()
}

/// The delta with its first edit moved `by` characters to the right
/// (any later edit stays where it was, so the delta still fits).
fn shift_retain(delta: &Delta, by: usize) -> String {
    let mut ops = delta.ops().to_vec();
    let retains: Vec<usize> = (0..ops.len())
        .filter(|&i| matches!(ops[i], DeltaOp::Retain(_)))
        .collect();
    if let Some(DeltaOp::Retain(n)) = retains.first().map(|&i| &mut ops[i]) {
        *n += by;
    }
    if let Some(DeltaOp::Retain(n)) = retains.get(1).map(|&i| &mut ops[i]) {
        *n -= by;
    }
    Delta::from_ops(ops).serialize()
}

/// Rewrites the ops of a ciphertext delta.
fn rewrite(delta: &Delta, f: impl Fn(&DeltaOp) -> DeltaOp) -> String {
    Delta::from_ops(delta.ops().iter().map(f).collect()).serialize()
}

#[test]
fn misaligned_retains_and_deletes_never_translate() {
    let shifted = check_tamper("misaligned retain", |pair| {
        shift_retain(&honest_insert(pair, 20, "x"), 1)
    });
    assert_eq!(shifted, [false, false]);
    let short = check_tamper("misaligned delete", |pair| {
        let honest = honest_insert(pair, 20, "x");
        rewrite(&honest, |op| match op {
            DeltaOp::Delete(n) => DeltaOp::Delete(n - 1),
            other => other.clone(),
        })
    });
    assert_eq!(short, [false, false]);
}

#[test]
fn splices_into_the_preamble_or_the_recb_header_never_translate() {
    let preamble = check_tamper("preamble", |_| "=5\t-1\t+Q".to_string());
    assert_eq!(preamble, [false, false]);
    let header = check_tamper("header record", |pair| {
        let stored = pair.server.docs.stored_content(&pair.doc).unwrap();
        let (pre, width) = layout_offsets();
        format!("={pre}\t-{width}\t+{}", record(&stored, 1))
    });
    assert_eq!(header, [false, false]);
}

#[test]
fn bad_tags_and_bad_base32_never_translate() {
    for (name, bad) in [
        ("bad tag", 'X'),
        ("header tag mid-document", '0'),
        ("bad base32", '1'),
    ] {
        let outcome = check_tamper(name, |pair| {
            let honest = honest_insert(pair, 20, "x");
            rewrite(&honest, |op| match op {
                DeltaOp::Insert(records) => {
                    let mut records = records.clone();
                    let at = if bad == '1' { 5 } else { 0 };
                    records.replace_range(at..at + 1, &bad.to_string());
                    DeltaOp::Insert(records)
                }
                other => other.clone(),
            })
        });
        assert_eq!(outcome, [false, false], "{name}");
    }
}

#[test]
fn swapped_and_replayed_records_translate_only_where_recb_cannot_tell() {
    // rECB has no integrity: a swap is a valid document, so the
    // follower must agree with a fresh open; RPC must refuse it.
    let swapped = check_tamper("swapped records", |pair| {
        let stored = pair.server.docs.stored_content(&pair.doc).unwrap();
        let (pre, width) = layout_offsets();
        format!(
            "={}\t-{}\t+{}{}",
            pre + width,
            2 * width,
            record(&stored, 2),
            record(&stored, 1)
        )
    });
    assert_eq!(swapped, [true, false]);
    let replayed = check_tamper("replayed record", |pair| {
        // The record the first honest edit replaced, put back.
        let first = pair.server.stream.0.lock().unwrap()[0].1.clone();
        let original = first.splitn(3, ':').nth(2).unwrap().to_string();
        let stored = pair.server.docs.stored_content(&pair.doc).unwrap();
        let (pre, width) = layout_offsets();
        let old = &original[pre + 3 * width..pre + 4 * width];
        assert_ne!(
            old,
            record(&stored, 3),
            "the honest edit re-sealed record 3"
        );
        format!("={}\t-{width}\t+{old}", pre + 3 * width)
    });
    assert_eq!(replayed, [true, false]);
}

#[test]
fn rpc_chain_breaks_and_stale_checksums_never_translate() {
    for (name, stale) in [
        ("chain break at a splice edge", false),
        ("stale checksum", true),
    ] {
        let outcome = check_tamper(name, |pair| {
            let stored = pair.server.docs.stored_content(&pair.doc).unwrap();
            let preamble = Preamble::parse(&stored).unwrap();
            let key = DocumentKey::derive(PASSWORD, &preamble.salt, KDF_ITERATIONS);
            let mut doc: Box<dyn IncrementalCipherDoc> = match preamble.mode {
                Mode::Recb => {
                    Box::new(RecbDocument::open(&key, &stored, CtrDrbg::from_seed(3)).unwrap())
                }
                Mode::Rpc => {
                    Box::new(RpcDocument::open(&key, &stored, CtrDrbg::from_seed(3)).unwrap())
                }
            };
            let mut patches = doc.apply(&EditOp::insert(20, b"x")).unwrap();
            if stale || patches.len() < 2 {
                // rECB has no checksum; dropping nothing keeps it honest
                // there, so only RPC's outcome is asserted.
                patches.truncate(1);
            }
            if !stale {
                // Splice the fresh blocks one record to the right: their
                // chain no longer meets its neighbours.
                patches[0].start_record += 1;
            }
            patches_to_delta(&patches, doc.layout()).serialize()
        });
        assert!(!outcome[1], "{name}: RPC translated a broken splice");
    }
}

#[test]
fn lowercase_base32_translates_into_a_canonical_mirror() {
    let _counters = counters();
    for rpc in [false, true] {
        let initial = "lowercase records decode, but the mirror stays canonical";
        let mut pair = Pair::new(config(rpc, 4, true), initial, 9);
        let honest = honest_insert(&pair, 9, " Base32");
        let lower = rewrite(&honest, |op| match op {
            DeltaOp::Insert(records) => DeltaOp::Insert(records.to_ascii_lowercase()),
            other => other.clone(),
        });
        pair.server.store_raw(&pair.doc, &lower);
        let before = fallbacks();
        let mediated = pair.poll(1).unwrap();
        assert_eq!(
            fallbacks(),
            before,
            "rpc={rpc}: lowercase records fell back"
        );
        let (stored_plaintext, _) = pair.fresh_open().unwrap();
        assert_eq!(
            emitted(&mediated),
            vec![diff(initial, &stored_plaintext).serialize()]
        );
        pair.assert_matches_store(1);
        // The follower's own next save starts from a canonical mirror
        // (the transformer's debug check compares it with serialize()).
        let prepend = hunks_to_delta(&pair.text(1), &[(0, 0, ">".into())]);
        let (old, new) = pair.save(1, &prepend);
        let mediated = pair.poll(0).unwrap();
        let expected = [diff(initial, &stored_plaintext), diff(&old, &new)];
        assert_eq!(emitted(&mediated), expected.map(|d| d.serialize()));
    }
}

#[test]
fn a_stream_that_disagrees_with_the_store_resyncs_to_the_store() {
    let _counters = counters();
    let mut pair = Pair::new(
        config(true, 7, true),
        "the stream lies, the store does not",
        3,
    );
    let honest = honest_insert(&pair, 4, "x");
    // Fanned out but never stored, and off a record boundary.
    let misaligned = shift_retain(&honest, 3);
    let head = pair.server.head();
    pair.server
        .stream
        .0
        .lock()
        .unwrap()
        .push((head + 1, format!("{}:delta:{misaligned}", head + 1)));
    let before = fallbacks();
    let mediated = pair.poll(1).unwrap();
    assert_eq!(fallbacks(), before + 1);
    let pairs = form::parse_pairs(mediated.response.body_text().unwrap()).unwrap();
    assert_eq!(form::first_value(&pairs, "resync"), Some("1"));
    pair.assert_matches_store(1);
}
