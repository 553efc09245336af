//! End-to-end tests of the mediator against the simulated services.

use std::sync::Arc;

use pe_cloud::docs::DocsServer;
use pe_cloud::{CloudService, Request};
use pe_crypto::{form, CtrDrbg};
use pe_delta::Delta;
use pe_extension::{DocsMediator, MediatorConfig, Outcome};

fn mediator(config: MediatorConfig, seed: u64) -> (Arc<DocsServer>, DocsMediator<Arc<DocsServer>>) {
    let server = Arc::new(DocsServer::new());
    let mediator = DocsMediator::with_rng(Arc::clone(&server), config, CtrDrbg::from_seed(seed));
    (server, mediator)
}

/// The secret must never appear in anything the server stores.
fn assert_server_never_sees(server: &DocsServer, doc_id: &str, secret: &str) {
    let stored = server.stored_content(doc_id).unwrap_or_default();
    assert!(
        !stored.contains(secret),
        "server stored plaintext! stored={stored:.60}… secret={secret}"
    );
}

#[test]
fn full_session_recb() {
    let (server, mut mediator) = mediator(MediatorConfig::recb(8), 1);
    let doc_id = mediator.create_document("password1").unwrap();
    mediator.save_full(&doc_id, "my darkest secret").unwrap();
    assert_server_never_sees(&server, &doc_id, "secret");
    // Incremental edits (paper example semantics).
    let mut delta = Delta::builder();
    delta.retain(3).delete(7).insert("brightest");
    mediator.save_delta(&doc_id, &delta.build()).unwrap();
    assert_server_never_sees(&server, &doc_id, "brightest");
    assert_eq!(mediator.plaintext(&doc_id), Some("my brightest secret"));
    // Reopening through a fresh mediator with the right password works.
    let mut reader = DocsMediator::with_rng(
        Arc::clone(&server),
        MediatorConfig::recb(8),
        CtrDrbg::from_seed(2),
    );
    reader.register_password(&doc_id, "password1");
    assert_eq!(reader.open_document(&doc_id).unwrap(), "my brightest secret");
}

#[test]
fn full_session_rpc() {
    let (server, mut mediator) = mediator(MediatorConfig::rpc(7), 3);
    let doc_id = mediator.create_document("password2").unwrap();
    mediator.save_full(&doc_id, "integrity protected text").unwrap();
    let mut delta = Delta::builder();
    delta.retain(10).insert("fully ");
    mediator.save_delta(&doc_id, &delta.build()).unwrap();
    assert_server_never_sees(&server, &doc_id, "protected");
    let mut reader = DocsMediator::with_rng(
        Arc::clone(&server),
        MediatorConfig::rpc(7),
        CtrDrbg::from_seed(4),
    );
    reader.register_password(&doc_id, "password2");
    assert_eq!(reader.open_document(&doc_id).unwrap(), "integrity fully protected text");
}

#[test]
fn rpc_detects_server_tampering_on_open() {
    let (server, mut mediator) = mediator(MediatorConfig::rpc(7), 5);
    let doc_id = mediator.create_document("pw").unwrap();
    mediator.save_full(&doc_id, "tamper target content").unwrap();
    // Malicious server flips a ciphertext character.
    let stored = server.stored_content(&doc_id).unwrap();
    let mut tampered: Vec<char> = stored.chars().collect();
    let pos = tampered.len() - 5;
    tampered[pos] = if tampered[pos] == 'A' { 'B' } else { 'A' };
    let tampered: String = tampered.into_iter().collect();
    let body = pe_crypto::form::encode_pairs(&[("docContents", tampered.as_str())]);
    server.handle(&Request::post("/Doc", &[("docID", &doc_id)], body));
    // The victim reopens: integrity failure must surface.
    let mut reader = DocsMediator::with_rng(
        Arc::clone(&server),
        MediatorConfig::rpc(7),
        CtrDrbg::from_seed(6),
    );
    reader.register_password(&doc_id, "pw");
    assert!(reader.open_document(&doc_id).is_err(), "tampering must be detected");
}

#[test]
fn wrong_password_fails_cleanly() {
    let (server, mut mediator) = mediator(MediatorConfig::recb(8), 7);
    let doc_id = mediator.create_document("right").unwrap();
    mediator.save_full(&doc_id, "content").unwrap();
    let mut reader = DocsMediator::with_rng(
        Arc::clone(&server),
        MediatorConfig::recb(8),
        CtrDrbg::from_seed(8),
    );
    reader.register_password(&doc_id, "wrong");
    assert!(reader.open_document(&doc_id).is_err());
}

#[test]
fn without_password_user_sees_ciphertext() {
    let (server, mut mediator) = mediator(MediatorConfig::recb(8), 9);
    let doc_id = mediator.create_document("pw").unwrap();
    mediator.save_full(&doc_id, "hidden").unwrap();
    // A mediator with no password passes the raw (encrypted) content through.
    let mut reader = DocsMediator::with_rng(
        Arc::clone(&server),
        MediatorConfig::recb(8),
        CtrDrbg::from_seed(10),
    );
    let shown = reader.open_document(&doc_id).unwrap();
    assert!(shown.starts_with("PE1;"), "user without password sees ciphertext: {shown:.30}");
}

#[test]
fn unknown_requests_are_blocked() {
    let (_server, mut mediator) = mediator(MediatorConfig::recb(8), 11);
    let drawing = Request::post("/drawing", &[], "circle(1,2,3) containing secret layout");
    let mediated = mediator.intercept(&drawing).unwrap();
    assert_eq!(mediated.outcome, Outcome::Blocked);
    assert_eq!(mediated.response.status, 403);
    let arbitrary = Request::get("/telemetry", &[("data", "leak")]);
    assert_eq!(mediator.intercept(&arbitrary).unwrap().outcome, Outcome::Blocked);
}

#[test]
fn acks_are_scrubbed() {
    let (_server, mut mediator) = mediator(MediatorConfig::recb(8), 12);
    let doc_id = mediator.create_document("pw").unwrap();
    let mediated = mediator.save_full(&doc_id, "text").unwrap();
    let body = mediated.response.body_text().unwrap();
    let pairs = pe_crypto::form::parse_pairs(body).unwrap();
    assert_eq!(pe_crypto::form::first_value(&pairs, "contentFromServer"), Some(""));
    assert_eq!(pe_crypto::form::first_value(&pairs, "contentFromServerHash"), Some("0"));
}

/// The §VI-B covert channel demonstrated here is the *self-replace*
/// channel: a malicious client "edits" a character to its existing value
/// (`-1 +b` where the document already starts with `b`). The editing
/// outcome is identical to doing nothing, but the touched ciphertext block
/// is re-encrypted — the server observes *which blocks changed* and reads
/// covert bits from that pattern.
fn self_replace_delta() -> Delta {
    Delta::from_ops(vec![
        pe_delta::DeltaOp::Delete(1),
        pe_delta::DeltaOp::Insert("b".into()),
    ])
}

#[test]
fn canonicalization_destroys_covert_delta_encoding() {
    let config = MediatorConfig::recb(8); // canonicalize_deltas = true
    let (server, mut sneaky) = mediator(config, 13);
    let doc_id = sneaky.create_document("pw").unwrap();
    sneaky.save_full(&doc_id, "base document").unwrap();
    let before = server.stored_content(&doc_id).unwrap();
    sneaky.save_delta(&doc_id, &self_replace_delta()).unwrap();
    let after = server.stored_content(&doc_id).unwrap();
    // The canonical form of a self-replace is the identity delta, so the
    // server-side ciphertext is bit-for-bit unchanged: no covert bit.
    assert_eq!(before, after, "canonicalization must squash the no-op edit");
    assert_eq!(sneaky.plaintext(&doc_id), Some("base document"));
}

#[test]
fn without_canonicalization_the_channel_exists() {
    let mut config = MediatorConfig::recb(8);
    config.canonicalize_deltas = false;
    let (server, mut sneaky) = mediator(config, 14);
    let doc_id = sneaky.create_document("pw").unwrap();
    sneaky.save_full(&doc_id, "base document").unwrap();
    let before = server.stored_content(&doc_id).unwrap();
    sneaky.save_delta(&doc_id, &self_replace_delta()).unwrap();
    let after = server.stored_content(&doc_id).unwrap();
    // The touched block was re-encrypted: the server sees which block
    // changed even though the document did not — one covert bit leaked.
    assert_ne!(before, after, "covert self-replace should re-encrypt a block");
    assert_eq!(sneaky.plaintext(&doc_id), Some("base document"));
}

/// Without canonicalization the client's delta is sent as it is. One
/// that cuts characters is accepted exactly when its result is text, and
/// a refused one changes neither mirror.
#[test]
fn uncanonicalized_deltas_that_cut_characters_are_checked_exactly() {
    let mut config = MediatorConfig::recb(8);
    config.canonicalize_deltas = false;
    let (server, mut mediator) = mediator(config, 16);
    let doc_id = mediator.create_document("pw").unwrap();
    mediator.save_full(&doc_id, "é😀日日éé").unwrap();
    let before = server.stored_content(&doc_id).unwrap();
    // Cutting é in two leaves no text.
    assert!(mediator.save_delta(&doc_id, &Delta::parse("=1\t-1").unwrap()).is_err());
    assert_eq!(mediator.plaintext(&doc_id), Some("é😀日日éé"));
    assert_eq!(server.stored_content(&doc_id).unwrap(), before);
    // Two cuts that meet: the lead byte of one 日 and the last byte of the
    // next make a new character.
    mediator.save_delta(&doc_id, &Delta::parse("=7\t-1\t=1\t-2").unwrap()).unwrap();
    assert_eq!(mediator.plaintext(&doc_id), Some("é😀\u{6965}éé"));
    let mut reader = DocsMediator::with_rng(
        Arc::clone(&server),
        MediatorConfig::recb(8),
        CtrDrbg::from_seed(17),
    );
    reader.register_password(&doc_id, "pw");
    assert_eq!(reader.open_document(&doc_id).unwrap(), "é😀\u{6965}éé");
}

#[test]
fn hardened_config_pads_and_delays() {
    let config = MediatorConfig::recb(8).hardened();
    let (server, mut mediator) = mediator(config, 15);
    let doc_id = mediator.create_document("pw").unwrap();
    mediator.save_full(&doc_id, "abc").unwrap();
    let mut delays = Vec::new();
    for i in 0..10 {
        let mut delta = Delta::builder();
        delta.insert(&format!("{i}"));
        let mediated = mediator.save_delta(&doc_id, &delta.build()).unwrap();
        delays.push(mediated.suggested_delay);
    }
    assert!(delays.iter().any(|d| !d.is_zero()), "random delays expected");
    assert!(delays.windows(2).any(|w| w[0] != w[1]), "delays must vary");
    // Padding must not corrupt the document.
    let mut reader = DocsMediator::with_rng(
        Arc::clone(&server),
        MediatorConfig::recb(8),
        CtrDrbg::from_seed(16),
    );
    reader.register_password(&doc_id, "pw");
    // Each one-character delta had no leading retain, so inserts land at
    // position 0: the digits accumulate in reverse order before "abc".
    assert_eq!(reader.open_document(&doc_id).unwrap(), "9876543210abc");
}

#[test]
fn collaborative_reader_sees_updates() {
    let (server, mut writer) = mediator(MediatorConfig::recb(8), 17);
    let doc_id = writer.create_document("shared-pw").unwrap();
    writer.save_full(&doc_id, "draft v1").unwrap();
    let mut reader = DocsMediator::with_rng(
        Arc::clone(&server),
        MediatorConfig::recb(8),
        CtrDrbg::from_seed(18),
    );
    reader.register_password(&doc_id, "shared-pw");
    assert_eq!(reader.open_document(&doc_id).unwrap(), "draft v1");
    // Writer continues editing; passive reader refreshes via load.
    let mut delta = Delta::builder();
    delta.retain(6).delete(2).insert("v2");
    writer.save_delta(&doc_id, &delta.build()).unwrap();
    let mediated = reader
        .intercept(&Request::get("/Doc/load", &[("docID", &doc_id)]))
        .unwrap();
    let pairs = pe_crypto::form::parse_pairs(mediated.response.body_text().unwrap()).unwrap();
    assert_eq!(pe_crypto::form::first_value(&pairs, "content"), Some("draft v2"));
}

#[test]
fn spell_check_breaks_but_is_not_blocked() {
    let (_server, mut mediator) = mediator(MediatorConfig::recb(8), 19);
    let doc_id = mediator.create_document("pw").unwrap();
    mediator.save_full(&doc_id, "the quick brown fox").unwrap();
    let mediated =
        mediator.intercept(&Request::post("/spell", &[("docID", &doc_id)], "")).unwrap();
    assert_eq!(mediated.outcome, Outcome::PassedThrough);
    let pairs = pe_crypto::form::parse_pairs(mediated.response.body_text().unwrap()).unwrap();
    let flagged = pe_crypto::form::first_value(&pairs, "misspelled").unwrap();
    // Everything is flagged: the feature is broken (though every word of
    // the plaintext is in the server's dictionary).
    assert!(!flagged.is_empty(), "ciphertext must confuse the spell checker");
}

#[test]
fn delta_before_full_save_falls_back_to_full_save() {
    let (server, mut mediator) = mediator(MediatorConfig::recb(8), 20);
    let doc_id = mediator.create_document("pw").unwrap();
    // No full save yet — protocol says first save carries docContents;
    // the mediator must handle a client that sends a delta first.
    let mut delta = Delta::builder();
    delta.insert("first words");
    mediator.save_delta(&doc_id, &delta.build()).unwrap();
    assert_eq!(mediator.plaintext(&doc_id), Some("first words"));
    assert_server_never_sees(&server, &doc_id, "first words");
}

/// A delta save's `baseVersion` names the server version the client
/// computed it against. Encrypted against a copy at any other version
/// it would land in the wrong place, so the mediator refuses it unsent.
#[test]
fn a_delta_on_another_base_is_refused_unsent() {
    let (server, mut mediator) = mediator(MediatorConfig::recb(8), 22);
    let doc_id = mediator.create_document("pw").unwrap();
    mediator.save_full(&doc_id, "base text").unwrap();
    let mut prepend = Delta::builder();
    prepend.insert("B");
    mediator.save_delta(&doc_id, &prepend.build()).unwrap();
    assert_eq!(server.stored_version(&doc_id), Some(2));

    let mut append = Delta::builder();
    append.retain(10).insert(" +a");
    let append = append.build().serialize();
    let save_on = |base: &str| {
        let body = form::encode_pairs(&[("delta", append.as_str()), ("baseVersion", base)]);
        Request::post("/Doc", &[("docID", doc_id.as_str())], body)
    };
    // Against the mirror (at version 2), then against the reloaded copy
    // once the refusal has dropped the mirror.
    for _ in 0..2 {
        let mediated = mediator.intercept(&save_on("1")).unwrap();
        assert_eq!(mediated.response.status, 409);
        assert_eq!(mediated.outcome, Outcome::Blocked);
        assert_eq!(mediator.plaintext(&doc_id), None, "the mirror is dropped");
        assert_eq!(server.stored_version(&doc_id), Some(2), "nothing was sent");
    }
    assert!(mediator.intercept(&save_on("2")).unwrap().response.is_success());
    assert_eq!(mediator.plaintext(&doc_id), Some("Bbase text +a"));
}

#[test]
fn long_editing_session_stays_consistent() {
    let (server, mut mediator) = mediator(MediatorConfig::rpc(7), 21);
    let doc_id = mediator.create_document("pw").unwrap();
    mediator.save_full(&doc_id, "").unwrap();
    let mut model = String::new();
    let mut seed = 42u64;
    let mut next = move || {
        seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        seed >> 33
    };
    for step in 0..60 {
        let len = model.len();
        let delta = if next() % 3 == 0 && len > 4 {
            let at = (next() as usize) % (len - 2);
            let del = 1 + (next() as usize) % (len - at - 1).min(6);
            let mut b = Delta::builder();
            b.retain(at).delete(del);
            b.build()
        } else {
            let at = if len == 0 { 0 } else { (next() as usize) % (len + 1) };
            let text = format!("w{step} ");
            let mut b = Delta::builder();
            b.retain(at).insert(&text);
            b.build()
        };
        model = delta.apply(&model).unwrap();
        mediator.save_delta(&doc_id, &delta).unwrap();
        assert_eq!(mediator.plaintext(&doc_id), Some(model.as_str()), "step {step}");
    }
    // Final state reopens correctly from the server's stored ciphertext.
    let mut reader = DocsMediator::with_rng(
        Arc::clone(&server),
        MediatorConfig::rpc(7),
        CtrDrbg::from_seed(22),
    );
    reader.register_password(&doc_id, "pw");
    assert_eq!(reader.open_document(&doc_id).unwrap(), model);
}

#[test]
fn revision_history_stays_encrypted_and_decryptable() {
    let (server, mut writer) = mediator(MediatorConfig::recb(8), 30);
    let doc_id = writer.create_document("rev-pw").unwrap();
    writer.save_full(&doc_id, "version one").unwrap();
    let mut delta = Delta::builder();
    delta.retain(8).delete(3).insert("two");
    writer.save_delta(&doc_id, &delta.build()).unwrap();
    // The provider's stored history contains no plaintext.
    for revision in server.stored_revisions(&doc_id).unwrap() {
        assert!(!revision.contains("version"), "revision leaked plaintext");
    }
    // But the password holder can browse history through the mediator.
    let count_resp = writer
        .intercept(&Request::get("/Doc/revisions", &[("docID", &doc_id)]))
        .unwrap();
    let pairs = pe_crypto::form::parse_pairs(count_resp.response.body_text().unwrap()).unwrap();
    let count: usize =
        pe_crypto::form::first_value(&pairs, "revisionCount").unwrap().parse().unwrap();
    assert!(count >= 2);
    // The most recent revision (pre-delta) decrypts to "version one".
    let idx = (count - 1).to_string();
    let rev = writer
        .intercept(&Request::get(
            "/Doc/revisions",
            &[("docID", &doc_id), ("index", idx.as_str())],
        ))
        .unwrap();
    assert_eq!(rev.outcome, Outcome::Decrypted);
    let pairs = pe_crypto::form::parse_pairs(rev.response.body_text().unwrap()).unwrap();
    assert_eq!(pe_crypto::form::first_value(&pairs, "content"), Some("version one"));
}

#[test]
fn password_rotation_reencrypts_under_new_key() {
    let (server, mut owner) = mediator(MediatorConfig::recb(8), 31);
    let doc_id = owner.create_document("old-password").unwrap();
    owner.save_full(&doc_id, "rotate me").unwrap();
    let before = server.stored_content(&doc_id).unwrap();
    owner.change_password(&doc_id, "new-password").unwrap();
    let after = server.stored_content(&doc_id).unwrap();
    assert_ne!(before, after, "rotation must re-encrypt");
    // Old password no longer opens the current document…
    let mut old_reader = DocsMediator::with_rng(
        Arc::clone(&server),
        MediatorConfig::recb(8),
        CtrDrbg::from_seed(32),
    );
    old_reader.register_password(&doc_id, "old-password");
    assert!(old_reader.open_document(&doc_id).is_err());
    // …the new one does…
    let mut new_reader = DocsMediator::with_rng(
        Arc::clone(&server),
        MediatorConfig::recb(8),
        CtrDrbg::from_seed(33),
    );
    new_reader.register_password(&doc_id, "new-password");
    assert_eq!(new_reader.open_document(&doc_id).unwrap(), "rotate me");
    // …and edits continue normally afterwards.
    let mut delta = Delta::builder();
    delta.insert("ok: ");
    owner.save_delta(&doc_id, &delta.build()).unwrap();
    assert_eq!(owner.plaintext(&doc_id), Some("ok: rotate me"));
}

#[test]
fn rotation_does_not_protect_old_revisions() {
    // The documented limitation: server-side history stays under the old
    // keys, so a party with the old password still reads old revisions.
    let (server, mut owner) = mediator(MediatorConfig::recb(8), 34);
    let doc_id = owner.create_document("leaked-old-password").unwrap();
    owner.save_full(&doc_id, "the old secret").unwrap();
    owner.change_password(&doc_id, "fresh-password").unwrap();
    let revisions = server.stored_revisions(&doc_id).unwrap();
    // The pre-rotation ciphertext is still in history; the old password
    // decrypts it through a mediator that only knows the old password.
    let old_ciphertext = revisions.iter().rev().find(|r| !r.is_empty()).unwrap();
    let mut old_holder = DocsMediator::with_rng(
        Arc::clone(&server),
        MediatorConfig::recb(8),
        CtrDrbg::from_seed(35),
    );
    old_holder.register_password(&doc_id, "leaked-old-password");
    // Feed the revision back through the open path by planting it as the
    // current content of a scratch document.
    let scratch = old_holder.create_document("leaked-old-password").unwrap();
    let body = pe_crypto::form::encode_pairs(&[("docContents", old_ciphertext.as_str())]);
    server.handle(&Request::post("/Doc", &[("docID", &scratch)], body));
    assert_eq!(old_holder.open_document(&scratch).unwrap(), "the old secret");
}

/// A config with a cheap KDF for tenant tests (PBKDF2 runs per login).
fn tenant_config() -> MediatorConfig {
    let mut config = MediatorConfig::recb(8);
    config.kdf_iterations = 64;
    config
}

#[test]
fn tenant_share_edit_and_revoke() {
    let server = Arc::new(DocsServer::new());
    let mut alice =
        DocsMediator::with_rng(Arc::clone(&server), tenant_config(), CtrDrbg::from_seed(40));
    let mut bob =
        DocsMediator::with_rng(Arc::clone(&server), tenant_config(), CtrDrbg::from_seed(41));

    alice.tenant_register("alice", "alice's passphrase").unwrap();
    bob.tenant_register("bob", "bob's passphrase").unwrap();
    assert_eq!(alice.tenant_user(), Some("alice"));

    // No per-document password anywhere in this test.
    let doc_id = alice.tenant_create_document().unwrap();
    alice.save_full(&doc_id, "tenant shared secret").unwrap();
    assert_server_never_sees(&server, &doc_id, "secret");

    // Before the grant, bob fails closed.
    assert!(bob.open_document(&doc_id).is_err());

    // Grant travels as an invite code; the stored ciphertext must not
    // change by a single byte (zero re-encryption).
    let before = server.stored_content(&doc_id).unwrap();
    let code = alice.tenant_grant(&doc_id, "bob").unwrap();
    bob.tenant_accept(&doc_id, &code).unwrap();
    assert_eq!(server.stored_content(&doc_id).unwrap(), before);

    // Bob reads and edits.
    assert_eq!(bob.open_document(&doc_id).unwrap(), "tenant shared secret");
    let mut delta = Delta::builder();
    delta.retain(7).delete(6).insert("public");
    bob.save_delta(&doc_id, &delta.build()).unwrap();
    assert_eq!(bob.plaintext(&doc_id), Some("tenant public secret"));

    // Revoke is also byte-preserving, and a fresh session for bob now
    // fails closed (no cached key to fall back on).
    let before = server.stored_content(&doc_id).unwrap();
    assert!(alice.tenant_revoke(&doc_id, "bob").unwrap());
    assert_eq!(server.stored_content(&doc_id).unwrap(), before);
    let mut bob_later =
        DocsMediator::with_rng(Arc::clone(&server), tenant_config(), CtrDrbg::from_seed(42));
    bob_later.tenant_login("bob", "bob's passphrase").unwrap();
    assert!(bob_later.open_document(&doc_id).is_err());

    // Alice still reads the document bob edited.
    let mut alice_later =
        DocsMediator::with_rng(Arc::clone(&server), tenant_config(), CtrDrbg::from_seed(43));
    alice_later.tenant_login("alice", "alice's passphrase").unwrap();
    assert_eq!(alice_later.open_document(&doc_id).unwrap(), "tenant public secret");
}

#[test]
fn tenant_passphrase_rotation_keeps_documents() {
    let server = Arc::new(DocsServer::new());
    let mut alice =
        DocsMediator::with_rng(Arc::clone(&server), tenant_config(), CtrDrbg::from_seed(44));
    alice.tenant_register("alice", "old words").unwrap();
    let doc_id = alice.tenant_create_document().unwrap();
    alice.save_full(&doc_id, "survives rotation").unwrap();

    let before = server.stored_content(&doc_id).unwrap();
    let rewrapped = alice.tenant_passwd("alice", "old words", "new words").unwrap();
    assert_eq!(rewrapped, 1);
    // Rotation rewraps 40-byte records; the body bytes are untouched.
    assert_eq!(server.stored_content(&doc_id).unwrap(), before);

    let mut later =
        DocsMediator::with_rng(Arc::clone(&server), tenant_config(), CtrDrbg::from_seed(45));
    assert!(later.tenant_login("alice", "old words").is_err());
    later.tenant_login("alice", "new words").unwrap();
    assert_eq!(later.open_document(&doc_id).unwrap(), "survives rotation");
}

#[test]
fn a_lower_case_server_copy_opens_into_a_canonical_mirror() {
    let (server, mut writer) = mediator(MediatorConfig::recb(8), 40);
    let doc_id = writer.create_document("lower-pw").unwrap();
    writer.save_full(&doc_id, "case does not matter to Base32").unwrap();
    let canonical = server.stored_content(&doc_id).unwrap();
    // Lower-case the salt and every record: the magic and mode tag stay.
    let (magic, rest) = canonical.split_at("PE1;R;b8;".len());
    let lowered = format!("{magic}{}", rest.to_ascii_lowercase());
    assert_ne!(lowered, canonical);
    let body = form::encode_pairs(&[("docContents", lowered.as_str())]);
    assert!(server.handle(&Request::post("/Doc", &[("docID", &doc_id)], body)).is_success());

    let mut editor = DocsMediator::with_rng(
        Arc::clone(&server),
        MediatorConfig::recb(8),
        CtrDrbg::from_seed(41),
    );
    editor.register_password(&doc_id, "lower-pw");
    assert_eq!(editor.open_document(&doc_id).unwrap(), "case does not matter to Base32");
    // The mirror is what the opened document serializes to.
    assert_eq!(editor.ciphertext(&doc_id), Some(canonical.as_str()));
    let mut delta = Delta::builder();
    delta.retain(5).delete(8).insert("never");
    assert!(editor.save_delta(&doc_id, &delta.build()).unwrap().response.is_success());

    let mut reader = DocsMediator::with_rng(
        Arc::clone(&server),
        MediatorConfig::recb(8),
        CtrDrbg::from_seed(42),
    );
    reader.register_password(&doc_id, "lower-pw");
    assert_eq!(reader.open_document(&doc_id).unwrap(), "case never matter to Base32");
}
