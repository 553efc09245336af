//! Collaborative editing under the extension (§VII-A): sharing via
//! password works for passive readers; simultaneous writers conflict
//! because the extension blanks the server's coordination hash. The
//! second half shows live sessions converging anyway: each save is a
//! delta against a known server version, and a save that lost the race
//! folds the winner's change from the change stream and retries.
//!
//! Run with: `cargo run --example collaborative_editing`

use std::sync::Arc;
use std::time::Duration;

use pe_collab::{LiveDocs, LiveSession, SharedChannel};
use private_editing::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let server = Arc::new(DocsServer::new());

    // Alice creates and shares the document; the password travels over
    // some other secure channel (the paper's assumption).
    let mut alice = DocsMediator::new(Arc::clone(&server), MediatorConfig::recb(8));
    let doc_id = alice.create_document("shared-password")?;
    alice.save_full(&doc_id, "Meeting notes: agenda below.")?;
    println!("Alice created {doc_id} and shared the password with Bob");

    // Bob, a passive reader, refreshes and sees every update.
    let mut bob = DocsMediator::new(Arc::clone(&server), MediatorConfig::recb(8));
    bob.register_password(&doc_id, "shared-password");
    println!("Bob reads: {:?}", bob.open_document(&doc_id)?);

    let mut edit = Delta::builder();
    edit.retain(15).insert("(v2) ");
    alice.save_delta(&doc_id, &edit.build())?;
    println!("Alice edits…");
    println!("Bob refreshes and reads: {:?}", bob.open_document(&doc_id)?);

    // Now Bob also writes, concurrently with Alice. His mediator's
    // ciphertext mirror is stale, so the collaboration degrades — the
    // partially-functional case the paper reports.
    let mut alice_edit = Delta::builder();
    alice_edit.insert("[Alice] ");
    alice.save_delta(&doc_id, &alice_edit.build())?;

    let mut bob_edit = Delta::builder();
    bob_edit.insert("[Bob] ");
    let result = bob.save_delta(&doc_id, &bob_edit.build());
    match result {
        Err(e) => println!("Bob's concurrent save failed cleanly: {e}"),
        Ok(mediated) if !mediated.response.is_success() => {
            println!("server rejected Bob's stale delta: {}", mediated.response.status)
        }
        Ok(_) => {
            // Even an "accepted" save leaves the shared document corrupted
            // for the next reader — there is no encrypted-domain merge.
            let mut carol = DocsMediator::new(Arc::clone(&server), MediatorConfig::recb(8));
            carol.register_password(&doc_id, "shared-password");
            match carol.open_document(&doc_id) {
                Ok(text) => println!(
                    "concurrent writes went through but the merge is wrong:\n  {text:?}"
                ),
                Err(e) => println!("document corrupted by concurrent writes: {e}"),
            }
        }
    }
    println!("\n→ collaborative editing is *partial* under the extension, as §VII-A reports.");
    println!("  (The SPORC line of work addresses this with a collaboration-aware server.)");

    // ── Beyond the paper: live sessions make concurrent private
    //    writers converge through the change stream. ───────────────
    println!("\n== with live sessions and operational-transformation merge ==");
    let server = Arc::new(DocsServer::new());
    let live = LiveDocs::new(Arc::clone(&server));
    let mut setup = DocsMediator::new(Arc::clone(&server), MediatorConfig::recb(8));
    let doc_id = setup.create_document("merge-pw")?;
    setup.save_full(&doc_id, "shared agenda. ")?;

    // One mediator per editor, shared by its edit and poll paths so its
    // ciphertext mirror follows both directions.
    let join = |name: &str, seed: u64| {
        let mut m = DocsMediator::with_rng(
            Arc::clone(&live),
            MediatorConfig::recb(8),
            CtrDrbg::from_seed(seed),
        );
        m.register_password(&doc_id, "merge-pw");
        let channel = SharedChannel::new(PrivateChannel(m));
        let client = DocsClient::open(channel.clone(), &doc_id).expect("open");
        LiveSession::start(client, channel, name, None).expect("join")
    };
    let mut alice = join("alice", 1);
    let mut bob = join("bob", 2);
    alice.client().editor().insert(0, "[alice] ");
    let bob_len = bob.content().len();
    bob.client().editor().insert(bob_len, "[bob]");
    assert_eq!(alice.save(), SaveOutcome::Saved);
    // Bob's save loses the race: it is rejected, folds Alice's change
    // from the stream (rebasing his pending edit), and lands.
    assert_eq!(bob.save(), SaveOutcome::Saved);
    alice.step(Duration::ZERO)?;
    assert_eq!(alice.content(), bob.content());

    let mut reader = DocsMediator::new(Arc::clone(&server), MediatorConfig::recb(8));
    reader.register_password(&doc_id, "merge-pw");
    let merged = reader.open_document(&doc_id)?;
    println!("converged encrypted document: {merged:?}");
    assert_eq!(merged, "[alice] shared agenda. [bob]");
    assert_eq!(alice.content(), merged);
    assert!(!server.stored_content(&doc_id).unwrap().contains("alice"));
    println!("…and the provider still only ever saw ciphertext ✓");
    Ok(())
}
