//! End-to-end `pedit serve` / `--connect` test: one invocation serves a
//! temp-file store over a real loopback socket while another drives a
//! full mediated editing session against it, then stops it cleanly.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use pe_cli::{parse_args, run, CliError};

struct TempPath(PathBuf);

impl TempPath {
    fn new(tag: &str) -> TempPath {
        let mut path = std::env::temp_dir();
        path.push(format!("pedit-serve-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir_all(&path);
        TempPath(path)
    }

    fn str(&self) -> &str {
        self.0.to_str().unwrap()
    }
}

impl Drop for TempPath {
    fn drop(&mut self) {
        // Stores are directories; address files are plain files.
        let _ = std::fs::remove_file(&self.0);
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn pedit(args: &[&str]) -> Result<String, CliError> {
    let full: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    run(&parse_args(&full)?)
}

#[test]
fn serve_and_connect_round_trip() {
    let store = TempPath::new("store");
    let addr_file = TempPath::new("addr");

    // Serve in a background thread (the CLI blocks until `stop`).
    let serve_args: Vec<String> =
        ["--store", store.str(), "serve", "--addr", "127.0.0.1:0", "--workers", "2",
         "--addr-file", addr_file.str()]
            .iter()
            .map(|s| s.to_string())
            .collect();
    let server_thread = std::thread::spawn(move || run(&parse_args(&serve_args).unwrap()));

    // Wait for the ephemeral port to land in the addr file.
    let deadline = Instant::now() + Duration::from_secs(10);
    let addr = loop {
        if let Ok(addr) = std::fs::read_to_string(&addr_file.0) {
            if !addr.is_empty() {
                break addr;
            }
        }
        assert!(Instant::now() < deadline, "server never wrote its address");
        std::thread::sleep(Duration::from_millis(20));
    };

    // A complete mediated session over the socket.
    let created = pedit(&["--connect", &addr, "create", "--password", "pw"]).unwrap();
    let doc = created.strip_prefix("created ").unwrap().to_string();
    pedit(&["--connect", &addr, "save", "--doc", &doc, "--password", "pw", "--text",
            "wired secret"])
        .unwrap();
    pedit(&["--connect", &addr, "insert", "--doc", &doc, "--password", "pw", "--at", "5",
            "--text", " loopback"])
        .unwrap();
    let shown =
        pedit(&["--connect", &addr, "show", "--doc", &doc, "--password", "pw"]).unwrap();
    assert_eq!(shown, "wired loopback secret");

    // The provider's view (over the admin endpoint) is ciphertext.
    let raw = pedit(&["--connect", &addr, "raw", "--doc", &doc]).unwrap();
    assert!(!raw.contains("secret"), "plaintext leaked to the server: {raw}");
    assert!(!raw.contains("loopback"), "plaintext leaked to the server: {raw}");
    let listed = pedit(&["--connect", &addr, "list"]).unwrap();
    assert!(listed.contains(&doc));
    assert_eq!(pedit(&["--connect", &addr, "raw", "--doc", "nope"]).unwrap(),
               "(no such document)");

    // Stop the server and reap the serving invocation.
    assert_eq!(pedit(&["--connect", &addr, "stop"]).unwrap(), "server stopping");
    let served = server_thread.join().unwrap().unwrap();
    assert!(served.contains("store persisted"), "unexpected serve output: {served}");

    // The persisted store decrypts locally — same document, same content.
    let local =
        pedit(&["--store", store.str(), "show", "--doc", &doc, "--password", "pw"]).unwrap();
    assert_eq!(local, "wired loopback secret");
    let local_raw = pedit(&["--store", store.str(), "raw", "--doc", &doc]).unwrap();
    assert!(!local_raw.contains("secret"));
}

#[test]
fn live_watch_and_concurrent_editors_converge_over_the_socket() {
    let store = TempPath::new("live-store");
    let addr_file = TempPath::new("live-addr");
    let serve_args: Vec<String> =
        ["--store", store.str(), "serve", "--addr", "127.0.0.1:0", "--workers", "2",
         "--addr-file", addr_file.str()]
            .iter()
            .map(|s| s.to_string())
            .collect();
    let server_thread = std::thread::spawn(move || run(&parse_args(&serve_args).unwrap()));
    let deadline = Instant::now() + Duration::from_secs(10);
    let addr = loop {
        if let Ok(addr) = std::fs::read_to_string(&addr_file.0) {
            if !addr.is_empty() {
                break addr;
            }
        }
        assert!(Instant::now() < deadline, "server never wrote its address");
        std::thread::sleep(Duration::from_millis(20));
    };

    let created = pedit(&["--connect", &addr, "create", "--password", "pw"]).unwrap();
    let doc = created.strip_prefix("created ").unwrap().to_string();

    // `watch` and `edit --live` refuse to run without a server.
    assert!(matches!(
        pedit(&["--store", store.str(), "watch", "--doc", &doc, "--password", "pw"]),
        Err(CliError::Usage(_))
    ));

    // A watcher long-polls while an editor pushes a change: the update
    // must arrive via the change stream, not a reload.
    let watch_args: Vec<String> =
        ["--connect", &addr, "watch", "--doc", &doc, "--password", "pw", "--rounds", "3",
         "--wait-ms", "4000"]
            .iter()
            .map(|s| s.to_string())
            .collect();
    let watcher = std::thread::spawn(move || run(&parse_args(&watch_args).unwrap()));
    std::thread::sleep(Duration::from_millis(300));
    let edited = pedit(&["--connect", &addr, "edit", "--live", "--doc", &doc, "--password",
                         "pw", "--ops", "a:hello from A", "--rounds", "0"])
        .unwrap();
    assert!(edited.contains("applied 1 op(s)"), "unexpected edit output: {edited}");
    let watched = watcher.join().unwrap().unwrap();
    assert!(watched.contains("hello from A"), "watcher missed the push: {watched}");

    // Two live editors typing concurrently converge on the server.
    let a_args: Vec<String> =
        ["--connect", &addr, "edit", "--live", "--doc", &doc, "--password", "pw",
         "--editor", "alice", "--ops", "i:0:[A] ", "--rounds", "2", "--wait-ms", "500"]
            .iter()
            .map(|s| s.to_string())
            .collect();
    let b_args: Vec<String> =
        ["--connect", &addr, "edit", "--live", "--doc", &doc, "--password", "pw",
         "--editor", "bob", "--ops", "a: [B]", "--rounds", "2", "--wait-ms", "500"]
            .iter()
            .map(|s| s.to_string())
            .collect();
    let a = std::thread::spawn(move || run(&parse_args(&a_args).unwrap()));
    let b = std::thread::spawn(move || run(&parse_args(&b_args).unwrap()));
    a.join().unwrap().unwrap();
    b.join().unwrap().unwrap();
    let shown = pedit(&["--connect", &addr, "show", "--doc", &doc, "--password", "pw"]).unwrap();
    assert!(shown.contains("[A]") && shown.contains("[B]") && shown.contains("hello from A"),
            "editors diverged: {shown:?}");

    // The provider never saw a plaintext byte of any of it.
    let raw = pedit(&["--connect", &addr, "raw", "--doc", &doc]).unwrap();
    assert!(!raw.contains("hello") && !raw.contains("[A]") && !raw.contains("[B]"),
            "plaintext leaked: {raw}");

    assert_eq!(pedit(&["--connect", &addr, "stop"]).unwrap(), "server stopping");
    server_thread.join().unwrap().unwrap();
}
