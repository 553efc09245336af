//! The transport-parity acceptance test: the same seeded mediated
//! editing session, run once through in-process function calls and once
//! through `pe-net` over a real loopback socket, must leave the provider
//! holding **byte-identical ciphertext** and give the client **identical
//! plaintext**. That is the whole point of the `Transport` seam — the
//! wire changes nothing but the wire.

use std::sync::Arc;

use pe_cloud::docs::DocsServer;
use pe_cloud::CloudService;
use pe_crypto::CtrDrbg;
use pe_delta::Delta;
use pe_extension::{DocsMediator, MediatorConfig};
use pe_net::{HttpClient, HttpServer, ServerConfig};

/// Runs the scripted session against `service`, returning
/// `(doc_id, plaintext_as_seen_by_a_fresh_reader)`.
fn scripted_session<S: CloudService>(service: S, reopen: S) -> (String, String) {
    let mut mediator =
        DocsMediator::with_rng(service, MediatorConfig::recb(8), CtrDrbg::from_seed(0x10af));
    let doc_id = mediator.create_document("parity-pw").unwrap();
    mediator.save_full(&doc_id, "the quick brown fox").unwrap();
    let mut delta = Delta::builder();
    delta.retain(4).insert("very ");
    mediator.save_delta(&doc_id, &delta.build()).unwrap();
    let mut delta = Delta::builder();
    delta.retain(0).delete(4).insert("one");
    mediator.save_delta(&doc_id, &delta.build()).unwrap();
    mediator.save_full(&doc_id, "rewritten from scratch, still private").unwrap();

    // A fresh mediator (fresh rng) decrypting proves the ciphertext is
    // self-contained, not an artifact of in-memory state.
    let mut reader =
        DocsMediator::with_rng(reopen, MediatorConfig::recb(8), CtrDrbg::from_seed(0x0bb));
    reader.register_password(&doc_id, "parity-pw");
    let plaintext = reader.open_document(&doc_id).unwrap();
    (doc_id, plaintext)
}

#[test]
fn loopback_session_matches_in_process_session_byte_for_byte() {
    // In-process run.
    let direct_backend = Arc::new(DocsServer::new());
    let (direct_doc, direct_text) =
        scripted_session(Arc::clone(&direct_backend), Arc::clone(&direct_backend));

    // Identical run over a real socket.
    let wire_backend = Arc::new(DocsServer::new());
    let server = HttpServer::bind(
        "127.0.0.1:0",
        Arc::clone(&wire_backend) as Arc<dyn pe_net::Service>,
        ServerConfig::default(),
    )
    .unwrap();
    let (wire_doc, wire_text) = scripted_session(
        HttpClient::new(server.local_addr()),
        HttpClient::new(server.local_addr()),
    );
    server.shutdown();

    // Same document id (both backends assign their first id)…
    assert_eq!(direct_doc, wire_doc);
    // …same plaintext back out…
    assert_eq!(direct_text, wire_text);
    assert_eq!(wire_text, "rewritten from scratch, still private");
    // …and the provider's stored ciphertext is byte-identical: the codec
    // and transport are lossless, and the wire added no nondeterminism.
    let direct_stored = direct_backend.stored_content(&direct_doc).unwrap();
    let wire_stored = wire_backend.stored_content(&wire_doc).unwrap();
    assert_eq!(direct_stored, wire_stored);
    // And it is ciphertext.
    assert!(!wire_stored.contains("private"));
    assert!(!wire_stored.contains("fox"));
}

#[test]
fn revision_history_also_survives_the_wire_identically() {
    let direct_backend = Arc::new(DocsServer::new());
    let (doc, _) = scripted_session(Arc::clone(&direct_backend), Arc::clone(&direct_backend));

    let wire_backend = Arc::new(DocsServer::new());
    let server = HttpServer::bind(
        "127.0.0.1:0",
        Arc::clone(&wire_backend) as Arc<dyn pe_net::Service>,
        ServerConfig::default(),
    )
    .unwrap();
    scripted_session(HttpClient::new(server.local_addr()), HttpClient::new(server.local_addr()));
    server.shutdown();

    // Every stored revision matches, not just the head.
    let state = |backend: &DocsServer| {
        let store = backend.store();
        let docs: Vec<_> = store.list().into_iter().map(|id| (store.get(&id), id)).collect();
        (docs, store.meta_entries())
    };
    assert_eq!(
        state(&direct_backend),
        state(&wire_backend),
        "full provider state (incl. history) must match"
    );
    let _ = doc;
}
