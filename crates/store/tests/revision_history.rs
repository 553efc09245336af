//! The revision history the index keeps as differences, checked against
//! a plain `Vec<Vec<u8>>` history model: every full save, delta, and
//! shape that stresses a prefix/suffix representation (identical
//! consecutive contents, a content that is a prefix or suffix of the
//! next, runs of one repeated byte, empty documents), through snapshot
//! install and reopen.

use std::collections::BTreeMap;
use std::path::PathBuf;

use proptest::prelude::*;

use pe_delta::Delta;
use pe_store::{DeltaLimits, DocState, DocStore, LogStore, MemStore, StoreConfig};

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
                Op::Delta(d, at, del, text) => {
                    let id = format!("doc{d}");
                    let Some(history) = model.get_mut(&id) else {
                        // Deltas need an existing document; both stores agree.
                        let delta = Delta::parse("+x").unwrap();
                        prop_assert!(log.apply_delta(&id, &delta, DeltaLimits::none()).is_err());
                        continue;
                    };
                    let len = history.current().len();
                    let at = at % (len + 1);
                    let del = (*del).min(len - at);
                    let mut builder = Delta::builder();
                    builder.retain(at).delete(del).insert(text);
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
