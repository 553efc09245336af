//! The revision history the index keeps as differences, checked against
//! a plain `Vec<Vec<u8>>` history model: every full save, delta (one
//! hunk or several), and shape that stresses a prefix/suffix
//! representation (identical consecutive contents, a content that is a
//! prefix or suffix of the next, runs of one repeated byte, empty
//! documents), through snapshot install, log replay and reopen.

use std::collections::BTreeMap;
use std::path::PathBuf;

use proptest::prelude::*;

use pe_delta::Delta;
use pe_store::{DeltaLimits, DocState, DocStore, LogStore, MemStore, StoreConfig, StoreError};

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let path = std::env::temp_dir().join(format!(
            "pe-revisions-{tag}-{}-{:?}",
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

/// A document's whole history: every content it held, oldest first (the
/// last one is current), plus its version counter.
#[derive(Debug, Clone, Default)]
struct History {
    contents: Vec<Vec<u8>>,
    version: u64,
}

impl History {
    fn current(&self) -> &[u8] {
        self.contents.last().map_or(&[], Vec::as_slice)
    }

    fn save(&mut self, content: Vec<u8>) {
        self.contents.push(content);
        self.version += 1;
    }

    fn state(&self) -> DocState {
        let (content, revisions) = self.contents.split_last().expect("a saved document");
        DocState {
            content: content.clone(),
            version: self.version,
            revisions: revisions.to_vec(),
        }
    }
}

#[derive(Debug, Clone)]
enum Op {
    Create(usize),
    /// A full save of arbitrary bytes from a two-letter alphabet.
    Full(usize, Vec<u8>),
    /// Replace `del` bytes at `at` (both taken modulo the length) by
    /// `text`, as an incremental delta.
    Delta(usize, usize, usize, String),
    /// Several `(at, del, text)` replaces in one delta, at ascending
    /// positions (each `at` taken modulo the length, moved past the
    /// previous hunk).
    Hunks(usize, Vec<(usize, usize, String)>),
    /// Save the current content again.
    Same(usize),
    /// The current content becomes a prefix of the next one.
    Extend(usize, Vec<u8>),
    /// The current content becomes a suffix of the next one.
    Prepend(usize, Vec<u8>),
    /// Drop the last byte (`aaa` → `aa`).
    Truncate(usize),
    /// Save an empty document.
    Empty(usize),
    /// Snapshot, then reopen from the snapshot plus the log.
    CompactReopen,
}

fn bytes() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(prop_oneof![Just(b'a'), Just(b'b')], 0..24)
}

fn op() -> impl Strategy<Value = Op> {
    let doc = 0usize..3;
    prop_oneof![
        doc.clone().prop_map(Op::Create),
        (doc.clone(), bytes()).prop_map(|(d, b)| Op::Full(d, b)),
        (doc.clone(), any::<usize>(), 0usize..6, "[ab]{0,6}")
            .prop_map(|(d, at, del, text)| Op::Delta(d, at, del, text)),
        (doc.clone(), proptest::collection::vec((any::<usize>(), 0usize..4, "[ab]{0,3}"), 2..5))
            .prop_map(|(d, hunks)| Op::Hunks(d, hunks)),
        doc.clone().prop_map(Op::Same),
        (doc.clone(), bytes()).prop_map(|(d, b)| Op::Extend(d, b)),
        (doc.clone(), bytes()).prop_map(|(d, b)| Op::Prepend(d, b)),
        doc.clone().prop_map(Op::Truncate),
        doc.prop_map(Op::Empty),
        Just(Op::CompactReopen),
    ]
}

/// The current content of model document `d` (empty when absent).
fn current_of(model: &BTreeMap<String, History>, d: usize) -> Vec<u8> {
    model.get(&format!("doc{d}")).map_or(Vec::new(), |h| h.current().to_vec())
}

/// Checks every document of both stores against the model.
fn check(
    stores: &[&dyn DocStore],
    model: &BTreeMap<String, History>,
) -> Result<(), TestCaseError> {
    for store in stores {
        prop_assert_eq!(store.list(), model.keys().cloned().collect::<Vec<_>>());
        for (id, history) in model {
            prop_assert_eq!(
                store.get(id),
                Some(history.state()),
                "{} of {}",
                id,
                store.name()
            );
            prop_assert_eq!(
                store.current(id),
                Some((history.current().to_vec(), history.version))
            );
        }
    }
    Ok(())
}

proptest! {
    #[test]
    fn diff_stored_revisions_match_a_plain_history(
        ops in proptest::collection::vec(op(), 1..40),
    ) {
        let dir = TempDir::new("model");
        let mut log = LogStore::open(&dir.0, StoreConfig::default()).unwrap();
        let mem = MemStore::new();
        let mut model: BTreeMap<String, History> = BTreeMap::new();
        for op in ops {
            let (doc, next) = match &op {
                Op::CompactReopen => {
                    log.compact().unwrap();
                    drop(log);
                    log = LogStore::open(&dir.0, StoreConfig::default()).unwrap();
                    check(&[&log, &mem], &model)?;
                    continue;
                }
                Op::Create(d) => {
                    let id = format!("doc{d}");
                    let fresh = !model.contains_key(&id);
                    prop_assert_eq!(log.create(&id).unwrap(), fresh);
                    prop_assert_eq!(mem.create(&id).unwrap(), fresh);
                    if fresh {
                        model.insert(id, History { contents: vec![Vec::new()], version: 0 });
                    }
                    continue;
                }
                Op::Full(d, b) => (*d, b.clone()),
                Op::Same(d) => (*d, current_of(&model, *d)),
                Op::Extend(d, b) | Op::Prepend(d, b) => {
                    let current = current_of(&model, *d);
                    let next = if matches!(op, Op::Extend(..)) {
                        [current, b.clone()].concat()
                    } else {
                        [b.clone(), current].concat()
                    };
                    (*d, next)
                }
                Op::Truncate(d) => {
                    let mut current = current_of(&model, *d);
                    current.pop();
                    (*d, current)
                }
                Op::Empty(d) => (*d, Vec::new()),
                Op::Delta(d, ..) | Op::Hunks(d, _) => {
                    let id = format!("doc{d}");
                    let Some(history) = model.get_mut(&id) else {
                        // Deltas need an existing document; both stores agree.
                        let delta = Delta::parse("+x").unwrap();
                        prop_assert!(log.apply_delta(&id, &delta, DeltaLimits::none()).is_err());
                        continue;
                    };
                    let hunks = match &op {
                        Op::Delta(_, at, del, text) => vec![(*at, *del, text.clone())],
                        Op::Hunks(_, hunks) => hunks.clone(),
                        _ => unreachable!("matched above"),
                    };
                    let len = history.current().len();
                    let mut builder = Delta::builder();
                    let mut cursor = 0;
                    for (at, del, text) in hunks {
                        let at = (at % (len + 1)).max(cursor);
                        let del = del.min(len - at);
                        builder.retain(at - cursor).delete(del).insert(&text);
                        cursor = at + del;
                    }
                    let delta = builder.build();
                    let next = delta.apply_bytes(history.current()).unwrap();
                    let state = log.apply_delta(&id, &delta, DeltaLimits::none()).unwrap();
                    prop_assert_eq!(&state.content, &next);
                    mem.apply_delta(&id, &delta, DeltaLimits::none()).unwrap();
                    history.save(next);
                    prop_assert_eq!(state.version, history.version);
                    continue;
                }
            };
            let id = format!("doc{doc}");
            let version = log.put_full(&id, &next).unwrap();
            prop_assert_eq!(mem.put_full(&id, &next).unwrap(), version);
            match model.get_mut(&id) {
                Some(history) => history.save(next),
                None => {
                    model.insert(id, History { contents: vec![next], version: 1 });
                }
            }
        }
        check(&[&log, &mem], &model)?;
        drop(log);
        let reopened = LogStore::open(&dir.0, StoreConfig::default()).unwrap();
        check(&[&reopened], &model)?;
    }
}

/// The store checks UTF-8 only around each splice, yet accepts and
/// refuses exactly what a check of the whole result would.
#[test]
fn utf8_checks_around_the_splice_match_the_whole_content_check() {
    let dir = TempDir::new("utf8");
    let log = LogStore::open(&dir.0, StoreConfig::default()).unwrap();
    let mem = MemStore::new();
    let text = DeltaLimits { require_utf8: true, ..DeltaLimits::none() };
    for store in [&log as &dyn DocStore, &mem] {
        store.put_full("d", "é".as_bytes()).unwrap();
        // A delta that cuts the two-byte character is refused...
        for cut in ["=1\t-1", "-1", "=1\t+x", "=1\t-1\t+è"] {
            let delta = Delta::parse(cut).unwrap();
            assert!(
                matches!(store.apply_delta("d", &delta, text), Err(StoreError::InvalidUtf8)),
                "{cut:?} on {}",
                store.name()
            );
        }
        // ...one whose splice leaves the character whole is not.
        let whole = Delta::parse("=1\t+\t=1").unwrap();
        assert_eq!(store.apply_delta("d", &whole, text).unwrap().content, "é".as_bytes());
        // Two cuts that meet end to end: the lead byte of one 日 and the
        // last byte of the next make a new character.
        store.put_full("f", "é😀日日éé".as_bytes()).unwrap();
        let joined = Delta::parse("=7\t-1\t=1\t-2").unwrap();
        let content = store.apply_delta("f", &joined, text).unwrap().content;
        assert_eq!(content, "é😀\u{6965}éé".as_bytes(), "{}", store.name());
        // Content that is not text (written without the requirement)
        // fails every text delta, wherever it lands, until one repairs it.
        store.put_full("e", "ab日".as_bytes()).unwrap();
        let broken = Delta::parse("=2\t-1").unwrap();
        store.apply_delta("e", &broken, DeltaLimits::none()).unwrap();
        let elsewhere = Delta::parse("+x").unwrap();
        assert!(matches!(store.apply_delta("e", &elsewhere, text), Err(StoreError::InvalidUtf8)));
        let repair = Delta::parse("=2\t-2\t+!").unwrap();
        assert_eq!(store.apply_delta("e", &repair, text).unwrap().content, b"ab!");
        assert_eq!(store.apply_delta("e", &elsewhere, text).unwrap().content, b"xab!");
    }
    // The log replays every one of them.
    drop(log);
    let reopened = LogStore::open(&dir.0, StoreConfig::default()).unwrap();
    assert_eq!(reopened.get("d"), mem.get("d"));
    assert_eq!(reopened.get("e"), mem.get("e"));
    assert_eq!(reopened.get("f"), mem.get("f"));
    assert_eq!(reopened.current("e"), Some((b"xab!".to_vec(), 4)));
}
