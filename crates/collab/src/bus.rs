//! The change bus: per-document fan-out of accepted saves.
//!
//! One [`ChangeBus`] hangs off a [`DocsServer`](pe_cloud::docs::DocsServer)
//! as its [`SaveListener`]. Every accepted save lands here tagged with the
//! document's post-save version — the *change sequence*. The sequence is
//! the store's own version counter, so it is monotonic per document and
//! durable (it rides the WAL); a client can resume `since=SEQ` across a
//! server `kill -9` and the arithmetic still holds.
//!
//! The bus keeps a bounded ring of recent changes per document. A
//! subscriber whose cursor has fallen off the ring (or who arrives after
//! a restart emptied it) gets told to **resync** from full content
//! instead of silently missing changes — losing a delta would fork the
//! replicas forever, so the gap check is the load-bearing invariant here.

use std::collections::{HashMap, VecDeque};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use pe_cloud::docs::{SaveChange, SaveListener};
use pe_net::Waker;

/// Default number of changes retained per document.
pub const DEFAULT_RING_CAPACITY: usize = 256;

/// What a subscriber's `since` cursor resolves to.
#[derive(Debug)]
pub enum Collected {
    /// Changes after `since`, oldest first, plus the new head sequence.
    Changes {
        /// The document's current head sequence.
        head: u64,
        /// `(seq, change)` pairs, strictly ascending, all `> since`.
        changes: Vec<(u64, SaveChange)>,
    },
    /// Nothing new; the caller may wait (long-poll) and retry.
    Empty {
        /// The document's current head sequence.
        head: u64,
    },
    /// The cursor points below the retained window (ring overflow or a
    /// post-restart empty ring): the caller must reload full content and
    /// resume from `head`.
    Resync {
        /// The document's current head sequence.
        head: u64,
    },
}

/// Per-document channel state.
struct DocChannel {
    /// Highest sequence seen (or seeded from the store version).
    head: u64,
    /// Sequence *before* the oldest retained entry: a subscriber needs
    /// `since >= base` to be served incrementally.
    base: u64,
    /// Retained `(seq, change)` ring, ascending and contiguous.
    ring: VecDeque<(u64, SaveChange)>,
    /// Parked subscribers to wake on the next publish.
    wakers: Vec<Waker>,
    /// Latest sealed presence blob per client token. The server never
    /// opens these — editor names and cursor positions stay encrypted.
    presence: HashMap<String, String>,
}

impl DocChannel {
    fn seeded(head: u64) -> DocChannel {
        DocChannel {
            head,
            base: head,
            ring: VecDeque::new(),
            wakers: Vec::new(),
            presence: HashMap::new(),
        }
    }
}

/// Fan-out hub for document change streams (see module docs).
pub struct ChangeBus {
    inner: Mutex<HashMap<String, DocChannel>>,
    changed: Condvar,
    capacity: usize,
}

impl std::fmt::Debug for ChangeBus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChangeBus").field("capacity", &self.capacity).finish()
    }
}

impl Default for ChangeBus {
    fn default() -> ChangeBus {
        ChangeBus::new(DEFAULT_RING_CAPACITY)
    }
}

impl ChangeBus {
    /// A bus retaining up to `capacity` changes per document.
    pub fn new(capacity: usize) -> ChangeBus {
        ChangeBus {
            inner: Mutex::new(HashMap::new()),
            changed: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<String, DocChannel>> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Records one accepted save and wakes every parked subscriber of the
    /// document. Called by the [`SaveListener`] impl; also usable
    /// directly in tests.
    pub fn publish(&self, doc_id: &str, seq: u64, change: &SaveChange) {
        let wakers = {
            let mut inner = self.lock();
            let channel = inner
                .entry(doc_id.to_string())
                .or_insert_with(|| DocChannel::seeded(seq.saturating_sub(1)));
            if seq <= channel.head {
                // Replay of an already-published sequence (idempotent).
                return;
            }
            if seq != channel.head + 1 {
                // A gap we cannot bridge (should not happen — versions
                // advance by one per accepted save): drop the ring so
                // stale cursors resync rather than miss a change.
                channel.ring.clear();
                channel.base = seq - 1;
            }
            channel.ring.push_back((seq, change.clone()));
            channel.head = seq;
            while channel.ring.len() > self.capacity {
                let (evicted, _) = channel.ring.pop_front().expect("non-empty ring");
                channel.base = evicted;
            }
            pe_observe::static_counter!("collab.published").inc();
            std::mem::take(&mut channel.wakers)
        };
        pe_observe::static_counter!("collab.wakes").add(wakers.len() as u64);
        for waker in wakers {
            waker.wake();
        }
        self.changed.notify_all();
    }

    /// Resolves `since` against the retained window. `head_hint` seeds
    /// the channel for a document the bus has not seen yet (pass the
    /// store's current version so post-restart cursors resolve
    /// correctly).
    pub fn collect(&self, doc_id: &str, since: u64, head_hint: u64) -> Collected {
        let mut inner = self.lock();
        let channel = inner
            .entry(doc_id.to_string())
            .or_insert_with(|| DocChannel::seeded(head_hint));
        Self::collect_locked(channel, since)
    }

    fn collect_locked(channel: &DocChannel, since: u64) -> Collected {
        if since > channel.head {
            // The caller knows a future the server does not (e.g. the
            // store was restored from an older snapshot): resync.
            return Collected::Resync { head: channel.head };
        }
        if since == channel.head {
            return Collected::Empty { head: channel.head };
        }
        if since < channel.base {
            pe_observe::static_counter!("collab.resyncs").inc();
            return Collected::Resync { head: channel.head };
        }
        let changes: Vec<(u64, SaveChange)> =
            channel.ring.iter().filter(|(seq, _)| *seq > since).cloned().collect();
        Collected::Changes { head: channel.head, changes }
    }

    /// Like [`collect`](ChangeBus::collect), but when the cursor is
    /// current, registers `waker` to fire on the next publish *before*
    /// releasing the lock — the caller can then park the connection with
    /// no lost-wakeup window.
    pub fn subscribe(&self, doc_id: &str, since: u64, head_hint: u64, waker: Waker) -> Collected {
        let mut inner = self.lock();
        let channel = inner
            .entry(doc_id.to_string())
            .or_insert_with(|| DocChannel::seeded(head_hint));
        let collected = Self::collect_locked(channel, since);
        if let Collected::Empty { .. } = collected {
            channel.wakers.push(waker);
        }
        collected
    }

    /// Blocking variant for in-process callers: waits up to `wait` for
    /// the cursor to fall behind the head, then collects. Never blocks
    /// when there is already something to report.
    pub fn collect_blocking(
        &self,
        doc_id: &str,
        since: u64,
        head_hint: u64,
        wait: Duration,
    ) -> Collected {
        let deadline = Instant::now() + wait;
        let mut inner = self.lock();
        loop {
            let channel = inner
                .entry(doc_id.to_string())
                .or_insert_with(|| DocChannel::seeded(head_hint));
            match Self::collect_locked(channel, since) {
                Collected::Empty { head } => {
                    let now = Instant::now();
                    if now >= deadline {
                        return Collected::Empty { head };
                    }
                    let (guard, _timeout) = self
                        .changed
                        .wait_timeout(inner, deadline - now)
                        .unwrap_or_else(|p| p.into_inner());
                    inner = guard;
                }
                other => return other,
            }
        }
    }

    /// Stores (or refreshes) one client's sealed presence blob and wakes
    /// parked subscribers so peers see cursor moves promptly. `head_hint`
    /// seeds the channel of a document the bus has not seen yet, as in
    /// [`collect`](ChangeBus::collect).
    pub fn set_presence(&self, doc_id: &str, client: &str, sealed: &str, head_hint: u64) {
        let wakers = {
            let mut inner = self.lock();
            let channel = inner
                .entry(doc_id.to_string())
                .or_insert_with(|| DocChannel::seeded(head_hint));
            channel.presence.insert(client.to_string(), sealed.to_string());
            pe_observe::static_counter!("collab.presence_updates").inc();
            std::mem::take(&mut channel.wakers)
        };
        for waker in wakers {
            waker.wake();
        }
        self.changed.notify_all();
    }

    /// All sealed presence blobs for a document, `(client, sealed)`,
    /// sorted by client token for deterministic wire output.
    pub fn presence(&self, doc_id: &str) -> Vec<(String, String)> {
        let inner = self.lock();
        let Some(channel) = inner.get(doc_id) else {
            return Vec::new();
        };
        let mut out: Vec<(String, String)> =
            channel.presence.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        out.sort();
        out
    }

    /// Drops one client's presence blob (session ended).
    pub fn clear_presence(&self, doc_id: &str, client: &str) {
        let mut inner = self.lock();
        if let Some(channel) = inner.get_mut(doc_id) {
            channel.presence.remove(client);
        }
    }

    /// The head sequence currently known for `doc_id`, if any.
    pub fn head(&self, doc_id: &str) -> Option<u64> {
        self.lock().get(doc_id).map(|c| c.head)
    }
}

impl SaveListener for ChangeBus {
    fn on_save(&self, doc_id: &str, seq: u64, change: &SaveChange) {
        self.publish(doc_id, seq, change);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn full(text: &str) -> SaveChange {
        SaveChange::Full(text.to_string())
    }

    fn changes_of(collected: Collected) -> Vec<(u64, String)> {
        match collected {
            Collected::Changes { changes, .. } => changes
                .into_iter()
                .map(|(seq, c)| {
                    let text = match c {
                        SaveChange::Full(t) => t,
                        SaveChange::Delta(t) => t,
                    };
                    (seq, text)
                })
                .collect(),
            other => panic!("expected changes, got {other:?}"),
        }
    }

    #[test]
    fn collect_returns_changes_after_the_cursor() {
        let bus = ChangeBus::new(8);
        bus.publish("d", 1, &full("a"));
        bus.publish("d", 2, &full("b"));
        bus.publish("d", 3, &full("c"));
        let got = changes_of(bus.collect("d", 1, 0));
        assert_eq!(got, vec![(2, "b".into()), (3, "c".into())]);
        assert!(matches!(bus.collect("d", 3, 0), Collected::Empty { head: 3 }));
    }

    #[test]
    fn cursor_below_the_ring_forces_a_resync() {
        let bus = ChangeBus::new(2);
        for seq in 1..=5 {
            bus.publish("d", seq, &full("x"));
        }
        // Ring holds 4..=5; a cursor at 1 fell off the window.
        assert!(matches!(bus.collect("d", 1, 0), Collected::Resync { head: 5 }));
        // A cursor inside the window is still served incrementally.
        assert_eq!(changes_of(bus.collect("d", 4, 0)).len(), 1);
    }

    #[test]
    fn unknown_document_seeds_from_the_head_hint() {
        let bus = ChangeBus::new(8);
        // Simulates a restart: store is at version 7, the bus is empty.
        assert!(matches!(bus.collect("d", 7, 7), Collected::Empty { head: 7 }));
        assert!(matches!(bus.collect("d", 3, 7), Collected::Resync { head: 7 }));
        // The next save picks up from the seeded head.
        bus.publish("d", 8, &full("y"));
        assert_eq!(changes_of(bus.collect("d", 7, 7)), vec![(8, "y".into())]);
    }

    #[test]
    fn cursor_ahead_of_the_head_resyncs() {
        let bus = ChangeBus::new(8);
        bus.publish("d", 1, &full("a"));
        assert!(matches!(bus.collect("d", 9, 0), Collected::Resync { head: 1 }));
    }

    #[test]
    fn publish_wakes_registered_subscribers_once() {
        let bus = ChangeBus::new(8);
        let fired = Arc::new(AtomicUsize::new(0));
        let f = Arc::clone(&fired);
        let waker = Waker::from_fn(move || {
            f.fetch_add(1, Ordering::SeqCst);
        });
        assert!(matches!(bus.subscribe("d", 0, 0, waker), Collected::Empty { .. }));
        bus.publish("d", 1, &full("a"));
        assert_eq!(fired.load(Ordering::SeqCst), 1);
        // The waker was consumed; a second publish does not re-fire it.
        bus.publish("d", 2, &full("b"));
        assert_eq!(fired.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn subscribe_with_pending_changes_does_not_register() {
        let bus = ChangeBus::new(8);
        bus.publish("d", 1, &full("a"));
        let fired = Arc::new(AtomicUsize::new(0));
        let f = Arc::clone(&fired);
        let waker = Waker::from_fn(move || {
            f.fetch_add(1, Ordering::SeqCst);
        });
        assert!(matches!(bus.subscribe("d", 0, 0, waker), Collected::Changes { .. }));
        bus.publish("d", 2, &full("b"));
        assert_eq!(fired.load(Ordering::SeqCst), 0, "waker must not have been registered");
    }

    #[test]
    fn duplicate_publish_is_idempotent() {
        let bus = ChangeBus::new(8);
        bus.publish("d", 1, &full("a"));
        bus.publish("d", 1, &full("a"));
        assert_eq!(changes_of(bus.collect("d", 0, 0)).len(), 1);
    }

    #[test]
    fn collect_blocking_returns_when_a_save_lands() {
        let bus = Arc::new(ChangeBus::new(8));
        bus.publish("d", 1, &full("a"));
        let publisher = {
            let bus = Arc::clone(&bus);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(50));
                bus.publish("d", 2, &full("b"));
            })
        };
        let start = Instant::now();
        let got = bus.collect_blocking("d", 1, 0, Duration::from_secs(5));
        assert_eq!(changes_of(got), vec![(2, "b".into())]);
        assert!(start.elapsed() < Duration::from_secs(4), "must not wait out the full timeout");
        publisher.join().unwrap();
    }

    #[test]
    fn collect_blocking_times_out_empty() {
        let bus = ChangeBus::new(8);
        bus.publish("d", 1, &full("a"));
        let got = bus.collect_blocking("d", 1, 0, Duration::from_millis(30));
        assert!(matches!(got, Collected::Empty { head: 1 }));
    }

    #[test]
    fn presence_is_stored_per_client_and_sorted() {
        let bus = ChangeBus::new(8);
        bus.set_presence("d", "c2", "blob2", 0);
        bus.set_presence("d", "c1", "blob1", 0);
        bus.set_presence("d", "c2", "blob2b", 0);
        assert_eq!(
            bus.presence("d"),
            vec![("c1".into(), "blob1".into()), ("c2".into(), "blob2b".into())]
        );
        bus.clear_presence("d", "c1");
        assert_eq!(bus.presence("d").len(), 1);
    }
}
