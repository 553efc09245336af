//! End-to-end CLI tests: every command, driven in-process against a real
//! temp-directory store.

use std::path::{Path, PathBuf};

use pe_cli::{parse_args, run, CliError};
use pe_store::{DocStore, ShardedLogStore, StoreConfig};

struct TempStore(PathBuf);

impl TempStore {
    fn new(tag: &str) -> TempStore {
        let mut path = std::env::temp_dir();
        path.push(format!("pedit-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir_all(&path);
        TempStore(path)
    }

    fn path(&self) -> &str {
        self.0.to_str().unwrap()
    }
}

impl Drop for TempStore {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Every regular file under `dir`, recursively.
fn files_under(dir: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            files.extend(files_under(&path));
        } else {
            files.push(path);
        }
    }
    files
}

fn pedit(store: &TempStore, args: &[&str]) -> Result<String, CliError> {
    let mut full = vec!["--store".to_string(), store.path().to_string()];
    full.extend(args.iter().map(|s| s.to_string()));
    run(&parse_args(&full)?)
}

#[test]
fn full_lifecycle_via_cli() {
    let store = TempStore::new("lifecycle");
    // Create.
    let created = pedit(&store, &["create", "--password", "pw"]).unwrap();
    assert!(created.starts_with("created doc"));
    let doc = created.strip_prefix("created ").unwrap().to_string();
    // Save and show.
    pedit(&store, &["save", "--doc", &doc, "--password", "pw", "--text", "hello world"])
        .unwrap();
    let shown = pedit(&store, &["show", "--doc", &doc, "--password", "pw"]).unwrap();
    assert_eq!(shown, "hello world");
    // Incremental edits.
    pedit(&store, &["insert", "--doc", &doc, "--password", "pw", "--at", "5", "--text", ","])
        .unwrap();
    pedit(&store, &["delete", "--doc", &doc, "--password", "pw", "--at", "0", "--len", "6"])
        .unwrap();
    let shown = pedit(&store, &["show", "--doc", &doc, "--password", "pw"]).unwrap();
    assert_eq!(shown, " world");
    // List.
    let listed = pedit(&store, &["list"]).unwrap();
    assert!(listed.contains(&doc));
    // The provider's view is ciphertext.
    let raw = pedit(&store, &["raw", "--doc", &doc]).unwrap();
    assert!(raw.starts_with("PE1;"));
    assert!(!raw.contains("world"));
    // And no file of the store directory contains plaintext.
    let files = files_under(&store.0);
    assert!(!files.is_empty());
    for file in files {
        let bytes = std::fs::read(&file).unwrap();
        assert!(
            !bytes.windows(b"world".len()).any(|w| w == b"world"),
            "plaintext leaked to {}",
            file.display()
        );
    }
}

#[test]
fn wrong_password_is_rejected() {
    let store = TempStore::new("wrongpw");
    let created = pedit(&store, &["create", "--password", "right"]).unwrap();
    let doc = created.strip_prefix("created ").unwrap().to_string();
    pedit(&store, &["save", "--doc", &doc, "--password", "right", "--text", "secret"]).unwrap();
    let err = pedit(&store, &["show", "--doc", &doc, "--password", "wrong"]).unwrap_err();
    assert!(matches!(err, CliError::Extension(_)), "{err}");
}

#[test]
fn history_and_rotate() {
    let store = TempStore::new("history");
    let created = pedit(&store, &["create", "--password", "pw"]).unwrap();
    let doc = created.strip_prefix("created ").unwrap().to_string();
    pedit(&store, &["save", "--doc", &doc, "--password", "pw", "--text", "v1"]).unwrap();
    pedit(&store, &["save", "--doc", &doc, "--password", "pw", "--text", "v2"]).unwrap();
    let history = pedit(&store, &["history", "--doc", &doc, "--password", "pw"]).unwrap();
    assert!(history.contains("revision(s)"));
    assert!(history.contains("v1"), "decrypted history must show v1: {history}");
    // Rotate, then the old password fails and the new one works.
    pedit(&store, &["rotate", "--doc", &doc, "--old", "pw", "--new", "pw2"]).unwrap();
    assert!(pedit(&store, &["show", "--doc", &doc, "--password", "pw"]).is_err());
    assert_eq!(pedit(&store, &["show", "--doc", &doc, "--password", "pw2"]).unwrap(), "v2");
}

#[test]
fn rpc_mode_documents() {
    let store = TempStore::new("rpc");
    let created = pedit(&store, &["--rpc", "create", "--password", "pw"]).unwrap();
    let doc = created.strip_prefix("created ").unwrap().to_string();
    pedit(&store, &["--rpc", "save", "--doc", &doc, "--password", "pw", "--text", "guarded"])
        .unwrap();
    let raw = pedit(&store, &["raw", "--doc", &doc]).unwrap();
    assert!(raw.starts_with("PE1;P;"), "RPC preamble expected: {}", &raw[..12]);
    assert_eq!(
        pedit(&store, &["--rpc", "show", "--doc", &doc, "--password", "pw"]).unwrap(),
        "guarded"
    );
    // The provider alters one byte of the stored ciphertext; the next
    // show detects it.
    {
        let provider = ShardedLogStore::open(&store.0, 1, StoreConfig::default()).unwrap();
        let mut tampered = provider.content(&doc).unwrap();
        let flip = tampered.len() - 2;
        tampered[flip] = if tampered[flip] == b'A' { b'B' } else { b'A' };
        provider.put_full(&doc, &tampered).unwrap();
    }
    assert!(pedit(&store, &["--rpc", "show", "--doc", &doc, "--password", "pw"]).is_err());
}

#[test]
fn unreadable_text_store_is_left_where_it_was() {
    let store = TempStore::new("badtext");
    std::fs::write(&store.0, "next_doc=abc\n").unwrap();
    let err = pedit(&store, &["list"]).unwrap_err();
    assert!(matches!(err, CliError::BadStore(_)), "{err}");
    assert_eq!(std::fs::read_to_string(&store.0).unwrap(), "next_doc=abc\n");
    let mut aside = store.0.clone().into_os_string();
    aside.push(".legacy");
    assert!(!PathBuf::from(aside).exists());
}

#[test]
fn missing_document_errors_cleanly() {
    let store = TempStore::new("missing");
    let err =
        pedit(&store, &["show", "--doc", "doc99", "--password", "pw"]).unwrap_err();
    assert!(err.to_string().contains("404") || err.to_string().contains("server error"));
    assert_eq!(pedit(&store, &["list"]).unwrap(), "(no documents)");
    assert_eq!(pedit(&store, &["raw", "--doc", "doc99"]).unwrap(), "(no such document)");
}
