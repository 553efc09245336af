//! `pedit`: a command-line private editor.
//!
//! The paper's user story, as a tool: documents live on an untrusted
//! "cloud" (here a durable [`ShardedLogStore`] directory — the provider's
//! entire view), and every interaction goes through the privacy mediator,
//! so the store never contains a byte of plaintext.
//!
//! ```console
//! $ pedit --store cloud.db create --password pw
//! created doc1
//! $ pedit --store cloud.db save --doc doc1 --password pw --text "my plans"
//! $ pedit --store cloud.db show --doc doc1 --password pw
//! my plans
//! $ pedit --store cloud.db raw --doc doc1        # what the provider sees
//! PE1;R;b8;…
//! ```
//!
//! The command layer is a library so the binary stays a thin wrapper and
//! integration tests can drive every command in-process.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use pe_cloud::docs::DocsServer;
use pe_cloud::{CloudService, Request};
use pe_crypto::form;
use pe_crypto::SystemRandom;
use pe_delta::Delta;
use pe_extension::{DocsMediator, ExtensionError, MediatorConfig};
use pe_store::{DocStore, FsyncPolicy, ShardedLogStore, StoreConfig, StoreError};
use pe_tenant::{ServiceRecords, TenantDirectory};

/// A parsed command-line invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliOptions {
    /// Path of the store directory holding the provider's state.
    pub store: PathBuf,
    /// Use RPC (integrity) mode for newly created documents.
    pub rpc: bool,
    /// Address of a running `pedit serve` instance to talk to over TCP
    /// instead of opening a local store.
    pub connect: Option<String>,
    /// PBKDF2 iteration override from `--kdf-iters` (the `PE_KDF_ITERS`
    /// environment variable is consulted at run time when absent).
    /// Existing documents open unchanged either way: each preamble and
    /// each tenant user record carries its own salt, and derivation uses
    /// the configured count only for *new* keys.
    pub kdf_iters: Option<u32>,
    /// The subcommand.
    pub command: Command,
}

/// How a document command authenticates: the paper's per-document
/// password, or a tenant login (per-user master key unwrapping a
/// per-document data key from the directory).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Auth {
    /// Legacy per-document password (`--password`).
    Password(String),
    /// Tenant login (`--user` + `--passphrase`).
    Tenant {
        /// User name in the tenant directory.
        user: String,
        /// The user's login passphrase.
        passphrase: String,
    },
}

/// One `pedit` subcommand.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// Create a new encrypted document.
    Create {
        /// Per-document password or tenant login.
        auth: Auth,
    },
    /// List document ids the provider stores.
    List,
    /// Decrypt and print a document.
    Show {
        /// Document id.
        doc: String,
        /// Per-document password or tenant login.
        auth: Auth,
    },
    /// Replace the whole document (full save).
    Save {
        /// Document id.
        doc: String,
        /// Per-document password or tenant login.
        auth: Auth,
        /// New content.
        text: String,
    },
    /// Insert text at a byte offset (incremental save).
    Insert {
        /// Document id.
        doc: String,
        /// Per-document password or tenant login.
        auth: Auth,
        /// Byte offset.
        at: usize,
        /// Text to insert.
        text: String,
    },
    /// Delete a byte range (incremental save).
    Delete {
        /// Document id.
        doc: String,
        /// Per-document password or tenant login.
        auth: Auth,
        /// Byte offset.
        at: usize,
        /// Bytes to delete.
        len: usize,
    },
    /// Show decrypted revision history.
    History {
        /// Document id.
        doc: String,
        /// Per-document password or tenant login.
        auth: Auth,
    },
    /// Subscribe to a document's live change stream (requires
    /// `--connect`): long-polls `GET /Doc/changes`, decrypts each pushed
    /// update through the mediator, and prints it.
    Watch {
        /// Document id.
        doc: String,
        /// Per-document password or tenant login.
        auth: Auth,
        /// How many long-poll rounds to run before exiting.
        rounds: usize,
        /// Long-poll wait per round, in milliseconds.
        wait_ms: u64,
    },
    /// Apply a scripted sequence of edit operations. With `--live`
    /// (requires `--connect`) the session holds a change-stream
    /// subscription open and rebases concurrent foreign edits between
    /// operations; without it the ops are one-shot incremental saves.
    Edit {
        /// Document id.
        doc: String,
        /// Per-document password or tenant login.
        auth: Auth,
        /// Hold a live subscription and rebase concurrent edits.
        live: bool,
        /// Comma-separated ops: `i:AT:TEXT`, `d:AT:LEN`, `a:TEXT`
        /// (byte offsets).
        ops: String,
        /// Extra long-poll rounds after the ops (live mode only).
        rounds: usize,
        /// Long-poll wait per round, in milliseconds (live mode only).
        wait_ms: u64,
        /// Editor name shown in sealed presence.
        editor: String,
    },
    /// Register a tenant user (per-user master key, random salt).
    UserRegister {
        /// User name.
        name: String,
        /// Login passphrase.
        passphrase: String,
    },
    /// Rotate a tenant user's passphrase: every wrapped key they hold is
    /// rewrapped; document bodies are untouched.
    UserPasswd {
        /// User name.
        name: String,
        /// Current passphrase.
        old: String,
        /// New passphrase.
        new: String,
    },
    /// List registered tenant users.
    UserList,
    /// Grant another user access to an owned document; prints the
    /// one-time invite code (deliver it out of band).
    Grant {
        /// Document id.
        doc: String,
        /// Owner's user name.
        user: String,
        /// Owner's passphrase.
        passphrase: String,
        /// User being granted access.
        to: String,
    },
    /// Redeem an invite code, storing the data key wrapped under the
    /// accepting user's own master key.
    Accept {
        /// Document id.
        doc: String,
        /// Accepting user's name.
        user: String,
        /// Accepting user's passphrase.
        passphrase: String,
        /// The invite code from `grant`.
        invite: String,
    },
    /// Revoke a user's access to an owned document (deletes their
    /// wrapped key record; O(1), body bytes untouched).
    Revoke {
        /// Document id.
        doc: String,
        /// Owner's user name.
        user: String,
        /// Owner's passphrase.
        passphrase: String,
        /// User losing access.
        to: String,
    },
    /// Rotate a document's password.
    Rotate {
        /// Document id.
        doc: String,
        /// Current password.
        old: String,
        /// New password.
        new: String,
    },
    /// Print the raw stored ciphertext (the provider's view).
    Raw {
        /// Document id.
        doc: String,
    },
    /// Run a scripted edit session against an in-memory cloud and print
    /// the observability snapshot for every layer.
    Stats {
        /// Output format for the snapshot.
        format: StatsFormat,
    },
    /// Serve the store over HTTP (a real `pe-net` socket server) until a
    /// `stop` command arrives. Every acknowledged save is on disk before
    /// the client hears back, so a `kill -9` loses nothing.
    Serve {
        /// Address to bind (`127.0.0.1:0` picks an ephemeral port).
        addr: String,
        /// Worker threads (defaults to the server's default).
        workers: Option<usize>,
        /// Concurrent-connection cap (defaults to the server's default).
        max_conns: Option<usize>,
        /// File to write the bound address into (how scripts learn the
        /// ephemeral port).
        addr_file: Option<PathBuf>,
        /// WAL fsync policy (`always`, `never`, `every=N`).
        fsync: FsyncPolicy,
        /// Shard count for a freshly created store (defaults to the CPU
        /// count; an existing store keeps its recorded layout).
        shards: Option<usize>,
    },
    /// Ask a running `pedit serve` (via `--connect`) to shut down.
    Stop,
    /// Verify a store directory read-only: snapshot CRCs, WAL frames,
    /// segment continuity. Exits non-zero when the store is corrupt.
    Fsck {
        /// The store directory to check.
        dir: PathBuf,
    },
    /// Snapshot and garbage-collect a store directory offline.
    Compact {
        /// The store directory to compact.
        dir: PathBuf,
    },
}

/// Output format of the [`Command::Stats`] snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatsFormat {
    /// Human-readable report with histogram bars.
    Text,
    /// Line-oriented JSON (one object per metric).
    Json,
}

/// Errors surfaced to the user.
#[derive(Debug)]
#[non_exhaustive]
pub enum CliError {
    /// Command line could not be parsed; the string is usage help.
    Usage(String),
    /// The store could not be read or written.
    Store(std::io::Error),
    /// The store contents were invalid.
    BadStore(String),
    /// The mediator/crypto layer failed (wrong password, tampering, …).
    Extension(ExtensionError),
    /// Networking failure while serving or connecting.
    Net(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "{msg}"),
            CliError::Store(e) => write!(f, "store i/o error: {e}"),
            CliError::BadStore(msg) => write!(f, "invalid store: {msg}"),
            CliError::Extension(e) => write!(f, "{e}"),
            CliError::Net(msg) => write!(f, "network error: {msg}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<ExtensionError> for CliError {
    fn from(e: ExtensionError) -> CliError {
        CliError::Extension(e)
    }
}

impl From<pe_tenant::TenantError> for CliError {
    fn from(e: pe_tenant::TenantError) -> CliError {
        CliError::Extension(ExtensionError::Tenant(e))
    }
}

/// Usage text shown for parse failures and `--help`.
pub const USAGE: &str = "\
pedit — private editing on an untrusted (locally simulated) cloud

USAGE: pedit --store DIR [--rpc] [--kdf-iters N] COMMAND
       pedit --connect HOST:PORT [--rpc] [--kdf-iters N] COMMAND

With --store, commands run against a local store directory, created on
first use; a single-file text store from older releases at that path is
migrated to a directory by the first command that opens it. With
--connect, they run over a real TCP socket against a running `pedit serve`.

Document commands authenticate with a per-document password
(--password PW) or a tenant login (--user U --passphrase P) whose
per-user master key unwraps the document's data key from the key
directory stored on the same untrusted server. --kdf-iters (or the
PE_KDF_ITERS environment variable) overrides the PBKDF2 iteration
count for newly derived keys; existing documents open unchanged
because every salt (and per-user iteration count) is recorded.

COMMANDS:
  create  --password PW | --user U --passphrase P
  list
  show    --doc ID (--password PW | --user U --passphrase P)
  save    --doc ID (--password PW | --user U --passphrase P) --text TEXT
  insert  --doc ID (--password PW | --user U --passphrase P) --at N --text TEXT
  delete  --doc ID (--password PW | --user U --passphrase P) --at N --len N
  history --doc ID (--password PW | --user U --passphrase P)
  watch   --doc ID (--password PW | --user U --passphrase P)
          [--rounds N] [--wait-ms MS]
          (requires --connect; long-polls the server's change stream over
           a dedicated connection and prints each decrypted update)
  edit    --doc ID (--password PW | --user U --passphrase P) --ops SPEC
          [--live] [--editor NAME] [--rounds N] [--wait-ms MS]
          (SPEC is comma-separated i:AT:TEXT | d:AT:LEN | a:TEXT with
           byte offsets; --live, with --connect, holds a change-stream
           subscription open and rebases concurrent edits between ops)
  rotate  --doc ID --old PW --new PW
  raw     --doc ID
  user register --name U --passphrase P
  user passwd   --name U --old P --new P     (rewraps keys; bodies untouched)
  user list
  grant   --doc ID --user OWNER --passphrase P --to USER   (prints invite code)
  accept  --doc ID --user USER --passphrase P --invite CODE
  revoke  --doc ID --user OWNER --passphrase P --to USER
  stats   [--format text|json]
  serve   [--addr HOST:PORT] [--workers N] [--max-conns N] [--addr-file PATH]
          [--fsync always|never|every=N] [--shards N]
          (requires --store DIR; --addr defaults to 127.0.0.1:0;
           --shards sets the WAL shard count for a fresh store)
  stop    (requires --connect)
  fsck    DIR     (verify a store directory read-only, every shard
                   checked; non-zero exit on corruption)
  compact DIR     (snapshot + garbage-collect a store directory)";

/// Parses command-line arguments (excluding `argv[0]`).
///
/// # Errors
///
/// Returns [`CliError::Usage`] with help text for malformed invocations.
pub fn parse_args(args: &[String]) -> Result<CliOptions, CliError> {
    let usage = |msg: &str| CliError::Usage(format!("{msg}\n\n{USAGE}"));
    let mut store: Option<PathBuf> = None;
    let mut rpc = false;
    let mut connect: Option<String> = None;
    let mut kdf_iters: Option<u32> = None;
    let mut rest: Vec<String> = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--store" => {
                store = Some(PathBuf::from(
                    iter.next().ok_or_else(|| usage("--store needs a value"))?,
                ));
            }
            "--connect" => {
                connect =
                    Some(iter.next().ok_or_else(|| usage("--connect needs a value"))?.clone());
            }
            "--kdf-iters" => {
                kdf_iters = Some(
                    iter.next()
                        .ok_or_else(|| usage("--kdf-iters needs a value"))?
                        .parse::<u32>()
                        .ok()
                        .filter(|n| *n > 0)
                        .ok_or_else(|| usage("--kdf-iters must be a positive number"))?,
                );
            }
            "--rpc" => rpc = true,
            "--help" | "-h" => return Err(CliError::Usage(USAGE.to_string())),
            _ => rest.push(arg.clone()),
        }
    }
    let mut rest = rest.into_iter();
    let verb = rest.next().ok_or_else(|| usage("missing command"))?;
    // `user` takes a positional subcommand before its flags.
    let user_sub = if verb == "user" {
        Some(
            rest.next()
                .ok_or_else(|| usage("user needs a subcommand: register, passwd, or list"))?,
        )
    } else {
        None
    };
    if verb == "serve" && connect.is_some() {
        return Err(usage("serve runs a server locally; it cannot be combined with --connect"));
    }
    // `fsck` and `compact` take the store directory as a positional
    // argument and run purely offline.
    if verb == "fsck" || verb == "compact" {
        let dir = PathBuf::from(
            rest.next().ok_or_else(|| usage(&format!("{verb} needs a store directory")))?,
        );
        if let Some(extra) = rest.next() {
            return Err(usage(&format!("unexpected argument {extra:?}")));
        }
        let command = if verb == "fsck" { Command::Fsck { dir } } else { Command::Compact { dir } };
        return Ok(CliOptions {
            store: store.unwrap_or_default(),
            rpc,
            connect,
            kdf_iters,
            command,
        });
    }
    // `stats` runs against its own in-memory cloud and `--connect` talks
    // to a remote server, so neither needs a store.
    let store = match store {
        Some(path) => path,
        None if verb == "stats" || connect.is_some() => PathBuf::new(),
        None => return Err(usage("missing --store DIR")),
    };
    // Collect remaining flags into key/value pairs.
    let mut flags = std::collections::HashMap::new();
    let remaining: Vec<String> = rest.collect();
    let mut i = 0;
    while i < remaining.len() {
        let key = remaining[i]
            .strip_prefix("--")
            .ok_or_else(|| usage(&format!("unexpected argument {:?}", remaining[i])))?;
        // `--live` is a bare boolean; everything else takes a value.
        if key == "live" {
            flags.insert("live".to_string(), "true".to_string());
            i += 1;
            continue;
        }
        let value = remaining
            .get(i + 1)
            .ok_or_else(|| usage(&format!("--{key} needs a value")))?;
        flags.insert(key.to_string(), value.clone());
        i += 2;
    }
    let take = |flags: &std::collections::HashMap<String, String>, key: &str| {
        flags
            .get(key)
            .cloned()
            .ok_or_else(|| usage(&format!("{verb} requires --{key}")))
    };
    let number = |flags: &std::collections::HashMap<String, String>, key: &str| {
        take(flags, key)?
            .parse::<usize>()
            .map_err(|_| usage(&format!("--{key} must be a number")))
    };
    let auth = |flags: &std::collections::HashMap<String, String>| {
        match (flags.get("password"), flags.get("user"), flags.get("passphrase")) {
            (Some(password), None, None) => Ok(Auth::Password(password.clone())),
            (None, Some(user), Some(passphrase)) => {
                Ok(Auth::Tenant { user: user.clone(), passphrase: passphrase.clone() })
            }
            _ => Err(usage(&format!(
                "{verb} needs --password PW or --user U --passphrase P"
            ))),
        }
    };
    let command = match verb.as_str() {
        "create" => Command::Create { auth: auth(&flags)? },
        "list" => Command::List,
        "show" => Command::Show { doc: take(&flags, "doc")?, auth: auth(&flags)? },
        "save" => Command::Save {
            doc: take(&flags, "doc")?,
            auth: auth(&flags)?,
            text: take(&flags, "text")?,
        },
        "insert" => Command::Insert {
            doc: take(&flags, "doc")?,
            auth: auth(&flags)?,
            at: number(&flags, "at")?,
            text: take(&flags, "text")?,
        },
        "delete" => Command::Delete {
            doc: take(&flags, "doc")?,
            auth: auth(&flags)?,
            at: number(&flags, "at")?,
            len: number(&flags, "len")?,
        },
        "history" => Command::History { doc: take(&flags, "doc")?, auth: auth(&flags)? },
        "watch" => Command::Watch {
            doc: take(&flags, "doc")?,
            auth: auth(&flags)?,
            rounds: match flags.get("rounds") {
                Some(value) => value
                    .parse::<usize>()
                    .map_err(|_| usage("--rounds must be a number"))?,
                None => 5,
            },
            wait_ms: match flags.get("wait-ms") {
                Some(value) => value
                    .parse::<u64>()
                    .map_err(|_| usage("--wait-ms must be a number"))?,
                None => 2000,
            },
        },
        "edit" => Command::Edit {
            doc: take(&flags, "doc")?,
            auth: auth(&flags)?,
            live: flags.contains_key("live"),
            ops: take(&flags, "ops")?,
            rounds: match flags.get("rounds") {
                Some(value) => value
                    .parse::<usize>()
                    .map_err(|_| usage("--rounds must be a number"))?,
                None => 3,
            },
            wait_ms: match flags.get("wait-ms") {
                Some(value) => value
                    .parse::<u64>()
                    .map_err(|_| usage("--wait-ms must be a number"))?,
                None => 1000,
            },
            editor: flags.get("editor").cloned().unwrap_or_else(|| "pedit".to_string()),
        },
        "user" => match user_sub.as_deref().expect("set for the user verb") {
            "register" => Command::UserRegister {
                name: take(&flags, "name")?,
                passphrase: take(&flags, "passphrase")?,
            },
            "passwd" => Command::UserPasswd {
                name: take(&flags, "name")?,
                old: take(&flags, "old")?,
                new: take(&flags, "new")?,
            },
            "list" => Command::UserList,
            other => return Err(usage(&format!("unknown user subcommand {other:?}"))),
        },
        "grant" => Command::Grant {
            doc: take(&flags, "doc")?,
            user: take(&flags, "user")?,
            passphrase: take(&flags, "passphrase")?,
            to: take(&flags, "to")?,
        },
        "accept" => Command::Accept {
            doc: take(&flags, "doc")?,
            user: take(&flags, "user")?,
            passphrase: take(&flags, "passphrase")?,
            invite: take(&flags, "invite")?,
        },
        "revoke" => Command::Revoke {
            doc: take(&flags, "doc")?,
            user: take(&flags, "user")?,
            passphrase: take(&flags, "passphrase")?,
            to: take(&flags, "to")?,
        },
        "rotate" => Command::Rotate {
            doc: take(&flags, "doc")?,
            old: take(&flags, "old")?,
            new: take(&flags, "new")?,
        },
        "raw" => Command::Raw { doc: take(&flags, "doc")? },
        "stats" => Command::Stats {
            format: match flags.get("format").map(String::as_str) {
                None | Some("text") => StatsFormat::Text,
                Some("json") => StatsFormat::Json,
                Some(other) => {
                    return Err(usage(&format!("unknown stats format {other:?}")))
                }
            },
        },
        "serve" => Command::Serve {
            addr: flags.get("addr").cloned().unwrap_or_else(|| "127.0.0.1:0".to_string()),
            workers: match flags.get("workers") {
                Some(value) => Some(
                    value
                        .parse::<usize>()
                        .map_err(|_| usage("--workers must be a number"))?,
                ),
                None => None,
            },
            max_conns: match flags.get("max-conns") {
                Some(value) => Some(
                    value
                        .parse::<usize>()
                        .map_err(|_| usage("--max-conns must be a number"))?,
                ),
                None => None,
            },
            addr_file: flags.get("addr-file").map(PathBuf::from),
            fsync: match flags.get("fsync") {
                Some(value) => FsyncPolicy::parse(value)
                    .ok_or_else(|| usage("--fsync must be always, never, or every=N"))?,
                None => FsyncPolicy::Always,
            },
            shards: match flags.get("shards") {
                Some(value) => Some(
                    value.parse::<usize>().map_err(|_| usage("--shards must be a number"))?,
                ),
                None => None,
            },
        },
        "stop" => Command::Stop,
        other => return Err(usage(&format!("unknown command {other:?}"))),
    };
    Ok(CliOptions { store, rpc, connect, kdf_iters, command })
}

/// The PBKDF2 iteration count to use for newly derived keys: the
/// `--kdf-iters` flag, else the `PE_KDF_ITERS` environment variable,
/// else the mediator default. Never changes how existing material is
/// opened — salts and per-user counts are recorded where they're used.
fn effective_kdf_iters(options: &CliOptions) -> u32 {
    options
        .kdf_iters
        .or_else(|| {
            std::env::var("PE_KDF_ITERS").ok().and_then(|v| v.parse::<u32>().ok()).filter(|n| *n > 0)
        })
        .unwrap_or(MediatorConfig::default().kdf_iterations)
}

fn store_error(e: StoreError) -> CliError {
    match e {
        StoreError::Io(io) => CliError::Store(io),
        other => CliError::BadStore(other.to_string()),
    }
}

/// Shard count for a freshly created store when `--shards` is absent:
/// one WAL per CPU, so concurrent group commits spread across cores.
fn default_shards() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Opens (or creates) the durable store directory at `path` — the one
/// store format every command, local or `serve`, runs on.
///
/// A single-file text store from older releases at the same path is
/// migrated once: the file is moved aside to `PATH.legacy`, replayed
/// into a fresh store directory at `path`, and deleted only once the
/// replayed log is durable. Deleting it is the commit point: a leftover
/// `.legacy` file means an interrupted migration, which restarts from
/// it. A file that fails to replay is put back where it was.
fn open_store(
    path: &Path,
    fsync: FsyncPolicy,
    shards: Option<usize>,
) -> Result<Arc<ShardedLogStore>, CliError> {
    let config = StoreConfig { fsync, ..StoreConfig::default() };
    let open = || {
        ShardedLogStore::open(path, shards.unwrap_or_else(default_shards), config)
            .map(Arc::new)
            .map_err(store_error)
    };
    let mut legacy = path.as_os_str().to_os_string();
    legacy.push(".legacy");
    let legacy = PathBuf::from(legacy);
    if path.is_file() {
        std::fs::rename(path, &legacy).map_err(CliError::Store)?;
    } else if !legacy.is_file() {
        return open();
    }
    let replay = || -> Result<Arc<ShardedLogStore>, CliError> {
        // Clear whatever an interrupted earlier attempt left behind.
        if path.exists() {
            std::fs::remove_dir_all(path).map_err(CliError::Store)?;
        }
        let text = std::fs::read_to_string(&legacy).map_err(CliError::Store)?;
        let store = open()?;
        DocsServer::restore_into(&text, store.as_ref()).map_err(CliError::BadStore)?;
        store.flush().map_err(store_error)?;
        Ok(store)
    };
    match replay() {
        Ok(store) => {
            std::fs::remove_file(&legacy).map_err(CliError::Store)?;
            // The removal is the commit point; it must be durable before
            // any save lands in the directory, or a crash could bring the
            // text file back and replay it over newer saves.
            let parent = path.parent().filter(|p| !p.as_os_str().is_empty());
            pe_store::wal::sync_dir(parent.unwrap_or(Path::new("."))).map_err(CliError::Store)?;
            Ok(store)
        }
        Err(e) => {
            let _ = std::fs::remove_dir_all(path);
            std::fs::rename(&legacy, path).map_err(CliError::Store)?;
            Err(e)
        }
    }
}

fn mediator<S: CloudService>(service: S, rpc: bool, kdf_iters: u32) -> DocsMediator<S> {
    let mut config = if rpc { MediatorConfig::rpc(7) } else { MediatorConfig::recb(8) };
    config.kdf_iterations = kdf_iters;
    DocsMediator::new(service, config)
}

/// Builds a mediator with the document's credential installed: a
/// per-document password is registered locally; a tenant login derives
/// the user's master key against the directory on the service.
fn authed_mediator<S: CloudService>(
    service: S,
    rpc: bool,
    kdf_iters: u32,
    doc: &str,
    auth: &Auth,
) -> Result<DocsMediator<S>, CliError> {
    let mut mediator = mediator(service, rpc, kdf_iters);
    match auth {
        Auth::Password(password) => mediator.register_password(doc, password),
        Auth::Tenant { user, passphrase } => mediator.tenant_login(user, passphrase)?,
    }
    Ok(mediator)
}

/// Runs one mediated document command against any [`CloudService`] — the
/// local in-process store or an [`pe_net::HttpClient`] talking to a
/// remote `pedit serve`. The privacy mediator sits on the client side of
/// whichever transport, exactly as in the paper's deployment.
///
/// Handles every command that speaks the Docs protocol; `List`/`Raw`
/// (provider-side views) and the control commands are the caller's job.
fn doc_session<S: CloudService>(
    service: S,
    rpc: bool,
    kdf_iters: u32,
    command: &Command,
) -> Result<String, CliError> {
    let mut output = String::new();
    match command {
        Command::Create { auth } => {
            let mut mediator = mediator(service, rpc, kdf_iters);
            let doc_id = match auth {
                Auth::Password(password) => mediator.create_document(password)?,
                Auth::Tenant { user, passphrase } => {
                    mediator.tenant_login(user, passphrase)?;
                    mediator.tenant_create_document()?
                }
            };
            // An empty full save materializes the encrypted document.
            mediator.save_full(&doc_id, "")?;
            output.push_str(&format!("created {doc_id}"));
        }
        Command::Show { doc, auth } => {
            let mut mediator = authed_mediator(service, rpc, kdf_iters, doc, auth)?;
            output.push_str(&mediator.open_document(doc)?);
        }
        Command::Save { doc, auth, text } => {
            let mut mediator = authed_mediator(service, rpc, kdf_iters, doc, auth)?;
            mediator.open_document(doc)?;
            mediator.save_full(doc, text)?;
            output.push_str("saved");
        }
        Command::Insert { doc, auth, at, text } => {
            let mut mediator = authed_mediator(service, rpc, kdf_iters, doc, auth)?;
            mediator.open_document(doc)?;
            let mut delta = Delta::builder();
            delta.retain(*at).insert(text);
            mediator.save_delta(doc, &delta.build())?;
            output.push_str("saved (incremental)");
        }
        Command::Delete { doc, auth, at, len } => {
            let mut mediator = authed_mediator(service, rpc, kdf_iters, doc, auth)?;
            mediator.open_document(doc)?;
            let mut delta = Delta::builder();
            delta.retain(*at).delete(*len);
            mediator.save_delta(doc, &delta.build())?;
            output.push_str("saved (incremental)");
        }
        Command::History { doc, auth } => {
            let mut mediator = authed_mediator(service, rpc, kdf_iters, doc, auth)?;
            mediator.open_document(doc)?;
            let count_resp =
                mediator.intercept(&Request::get("/Doc/revisions", &[("docID", doc)]))?;
            let body = count_resp.response.body_text().unwrap_or("");
            let pairs = form::parse_pairs(body).unwrap_or_default();
            let count: usize = form::first_value(&pairs, "revisionCount")
                .and_then(|v| v.parse().ok())
                .unwrap_or(0);
            output.push_str(&format!("{count} revision(s)"));
            for index in 0..count {
                let idx = index.to_string();
                let rev = mediator.intercept(&Request::get(
                    "/Doc/revisions",
                    &[("docID", doc), ("index", idx.as_str())],
                ))?;
                let body = rev.response.body_text().unwrap_or("");
                let pairs = form::parse_pairs(body).unwrap_or_default();
                let content = form::first_value(&pairs, "content").unwrap_or("");
                let shown: String = content.chars().take(60).collect();
                output.push_str(&format!("\n[{index}] {shown}"));
            }
        }
        Command::Edit { doc, auth, live: false, ops, .. } => {
            let mut mediator = authed_mediator(service, rpc, kdf_iters, doc, auth)?;
            let mut content = mediator.open_document(doc)?;
            let ops = live_cli::parse_ops(ops)?;
            let count = ops.len();
            for op in &ops {
                let delta = live_cli::op_delta(&content, op)?;
                content = delta
                    .apply(&content)
                    .map_err(|e| CliError::Usage(format!("op does not fit document: {e}")))?;
                mediator.save_delta(doc, &delta)?;
            }
            output.push_str(&format!("applied {count} op(s)\n{content}"));
        }
        Command::Rotate { doc, old, new } => {
            let mut mediator = mediator(service, rpc, kdf_iters);
            mediator.register_password(doc, old);
            mediator.change_password(doc, new)?;
            output.push_str("password rotated (note: server-side history keeps old-key ciphertext)");
        }
        // Tenant directory operations: pure wrapped-key-record work
        // against the `/tenant/*` endpoints of the same service; no
        // document body is ever read or written.
        Command::UserRegister { name, passphrase } => {
            let directory = TenantDirectory::new(ServiceRecords::new(service));
            directory.register(name, passphrase, kdf_iters, &mut SystemRandom::new())?;
            output.push_str(&format!("registered user {name}"));
        }
        Command::UserPasswd { name, old, new } => {
            let directory = TenantDirectory::new(ServiceRecords::new(service));
            let rewrapped = directory.rewrap(name, old, new, kdf_iters, &mut SystemRandom::new())?;
            output.push_str(&format!(
                "passphrase rotated; {rewrapped} wrapped key(s) rewrapped, 0 bytes re-encrypted"
            ));
        }
        Command::UserList => {
            let directory = TenantDirectory::new(ServiceRecords::new(service));
            let users = directory.list_users()?;
            output.push_str(&if users.is_empty() { "(no users)".to_string() } else { users.join("\n") });
        }
        Command::Grant { doc, user, passphrase, to } => {
            let directory = TenantDirectory::new(ServiceRecords::new(service));
            let session = directory.login(user, passphrase)?;
            let code = directory.grant(&session, doc, to, &mut SystemRandom::new())?;
            // The code alone on the last line so scripts can capture it.
            output.push_str(&format!("invite for {to} (deliver out of band):\n{code}"));
        }
        Command::Accept { doc, user, passphrase, invite } => {
            let directory = TenantDirectory::new(ServiceRecords::new(service));
            let session = directory.login(user, passphrase)?;
            directory.accept(&session, doc, invite)?;
            output.push_str(&format!("accepted: {user} now holds a wrapped key for {doc}"));
        }
        Command::Revoke { doc, user, passphrase, to } => {
            let directory = TenantDirectory::new(ServiceRecords::new(service));
            let session = directory.login(user, passphrase)?;
            let existed = directory.revoke(&session, doc, to)?;
            output.push_str(if existed {
                "revoked (wrapped key record deleted; document bytes untouched)"
            } else {
                "no grant existed"
            });
        }
        Command::List
        | Command::Raw { .. }
        | Command::Stats { .. }
        | Command::Serve { .. }
        | Command::Stop
        | Command::Fsck { .. }
        | Command::Compact { .. }
        | Command::Watch { .. }
        | Command::Edit { live: true, .. } => {
            unreachable!("non-document command routed to doc_session")
        }
    }
    Ok(output)
}

/// Executes a parsed invocation, returning the text to print.
///
/// # Errors
///
/// Returns [`CliError`] for store, password, integrity, or network
/// failures.
pub fn run(options: &CliOptions) -> Result<String, CliError> {
    match &options.command {
        Command::Stats { format } if options.connect.is_none() => {
            // The stats session runs against its own in-memory cloud; the
            // store is neither read nor written. With `--connect` the
            // command instead falls through to remote dispatch and fetches
            // the live server's snapshot from `/admin/stats`.
            return stats::run_scripted_session(*format);
        }
        Command::Serve { addr, workers, max_conns, addr_file, fsync, shards } => {
            return serve::run_server(
                options,
                addr,
                *workers,
                *max_conns,
                addr_file.as_deref(),
                *fsync,
                *shards,
            );
        }
        Command::Fsck { dir } => {
            let report = pe_store::fsck(dir).map_err(store_error)?;
            let text = report.render();
            return if report.is_healthy() { Ok(text) } else { Err(CliError::BadStore(text)) };
        }
        Command::Compact { dir } => {
            let store = open_store(dir, FsyncPolicy::Always, None)?;
            let stats = store.compact().map_err(store_error)?;
            return Ok(format!(
                "compacted {} ({} shard(s)): snapshot covers wal {} ({} doc(s), {} bytes); \
                 removed {} segment(s), {} old snapshot(s)",
                dir.display(),
                store.shard_count(),
                stats.covered_seq,
                stats.docs,
                stats.snapshot_bytes,
                stats.segments_removed,
                stats.snapshots_removed,
            ));
        }
        _ => {}
    }
    if let Some(target) = &options.connect {
        return remote::run_remote(target, options);
    }
    if matches!(
        options.command,
        Command::Watch { .. } | Command::Edit { live: true, .. }
    ) {
        return Err(CliError::Usage(format!(
            "watch and edit --live subscribe to a running server; use --connect HOST:PORT\n\n{USAGE}"
        )));
    }
    if options.command == Command::Stop {
        return Err(CliError::Usage(format!("stop needs --connect HOST:PORT\n\n{USAGE}")));
    }
    let store = open_store(&options.store, FsyncPolicy::Always, None)?;
    let server = Arc::new(DocsServer::with_store(store as Arc<dyn DocStore>));
    // Every mutation below is fsynced before it returns (`--fsync always`),
    // so there is nothing left to write back on exit.
    Ok(match &options.command {
        Command::List => {
            let ids = server.list_documents();
            if ids.is_empty() {
                "(no documents)".to_string()
            } else {
                ids.join("\n")
            }
        }
        Command::Raw { doc } => match server.stored_content(doc) {
            Some(content) => content,
            None => "(no such document)".to_string(),
        },
        command => doc_session(server, options.rpc, effective_kdf_iters(options), command)?,
    })
}

mod serve {
    //! The `pedit serve` mode: a durable store, served over a real socket.
    //!
    //! The document protocol mounts at `/` (the raw [`DocsServer`] — the
    //! provider still sees only what clients send, which under mediated
    //! clients is ciphertext). Control endpoints mount under `/admin`:
    //! `POST /admin/shutdown`, `GET /admin/ping`, `GET /admin/stats`
    //! (live metrics, `?format=text|json`), `GET /admin/list`,
    //! `GET /admin/raw?docID=…`.
    //!
    //! The store is the same write-ahead-logged [`ShardedLogStore`]
    //! directory local commands use: every acknowledged save is appended
    //! (and, under the default `--fsync always`, fsynced) before the HTTP
    //! response leaves, so a `kill -9` at any moment loses nothing a
    //! client was told succeeded.

    use std::path::Path;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    use pe_cloud::docs::DocsServer;
    use pe_cloud::{CloudService, Method, Request, Response};
    use pe_collab::{LiveDocs, LiveService};
    use pe_net::{HttpServer, Router, ServerConfig};
    use pe_store::{DocStore, FsyncPolicy, ShardedLogStore};

    use crate::{open_store, store_error, CliError, CliOptions};

    /// Control endpoints; implements [`CloudService`] so the `pe-net`
    /// blanket impl mounts it like any other service.
    struct AdminService {
        server: Arc<DocsServer>,
        store: Arc<ShardedLogStore>,
        stop: Arc<AtomicBool>,
    }

    impl CloudService for AdminService {
        fn handle(&self, request: &Request) -> Response {
            match (request.method, request.path.as_str()) {
                (Method::Post, "/shutdown") => {
                    // Flush before acknowledging: under `--fsync never` or
                    // `every=N` the stop ack must still mean "everything
                    // you saved is on disk".
                    if let Err(e) = self.store.flush() {
                        return Response::error(500, &format!("flush failed: {e}"));
                    }
                    self.stop.store(true, Ordering::SeqCst);
                    Response::ok("stopping")
                }
                (Method::Get, "/ping") => Response::ok("pong"),
                (Method::Get, "/stats") => {
                    // The serving process's live metrics — including the
                    // event loop's net.server.* gauges and counters.
                    let snapshot = pe_observe::global().snapshot();
                    match request.query_param("format") {
                        None | Some("text") => Response::ok(snapshot.render_text()),
                        Some("json") => Response::ok(snapshot.render_jsonl()),
                        Some(other) => {
                            Response::error(400, &format!("unknown format {other:?}"))
                        }
                    }
                }
                (Method::Get, "/list") => {
                    Response::ok(self.server.list_documents().join("\n"))
                }
                (Method::Get, "/raw") => match request
                    .query_param("docID")
                    .and_then(|id| self.server.stored_content(id))
                {
                    Some(content) => Response::ok(content),
                    None => Response::error(404, "no such document"),
                },
                _ => Response::error(404, "unknown admin endpoint"),
            }
        }

        fn name(&self) -> &'static str {
            "pedit-admin"
        }
    }

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run_server(
        options: &CliOptions,
        addr: &str,
        workers: Option<usize>,
        max_conns: Option<usize>,
        addr_file: Option<&Path>,
        fsync: FsyncPolicy,
        shards: Option<usize>,
    ) -> Result<String, CliError> {
        if options.store.as_os_str().is_empty() {
            return Err(CliError::Usage(format!(
                "serve needs --store DIR\n\n{}",
                crate::USAGE
            )));
        }
        let store = open_store(&options.store, fsync, shards)?;
        let server =
            Arc::new(DocsServer::with_store(Arc::clone(&store) as Arc<dyn DocStore>));
        let stop = Arc::new(AtomicBool::new(false));
        let admin = AdminService {
            server: Arc::clone(&server),
            store: Arc::clone(&store),
            stop: Arc::clone(&stop),
        };
        // The document protocol mounts wrapped in the live front-end:
        // every accepted save fans out to parked `/Doc/changes`
        // subscribers, and all other routes pass straight through.
        let live = LiveDocs::new(Arc::clone(&server));
        let router = Router::new()
            .mount("/admin", Arc::new(admin))
            .mount("", Arc::new(LiveService(live)) as Arc<dyn pe_net::Service>);
        let mut config = ServerConfig::default();
        if let Some(workers) = workers {
            config.workers = workers;
        }
        if let Some(max_conns) = max_conns {
            config.max_conns = max_conns;
        }
        let http = HttpServer::bind(addr, Arc::new(router), config)
            .map_err(|e| CliError::Net(format!("bind {addr}: {e}")))?;
        let bound = http.local_addr();
        if let Some(path) = addr_file {
            std::fs::write(path, bound.to_string()).map_err(CliError::Store)?;
        }
        // Announce readiness immediately; run() only prints on exit.
        println!("pedit serving {} on {bound}", options.store.display());

        // Every acknowledged save is already in the WAL; just wait for
        // the admin `stop` (which flushed before acknowledging).
        while !stop.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(50));
        }
        http.shutdown();
        store.flush().map_err(store_error)?;
        Ok(format!("served on {bound}; store persisted"))
    }
}

mod remote {
    //! The `--connect` mode: the same commands, over a live socket.

    use std::net::ToSocketAddrs;

    use pe_cloud::Request;
    use pe_net::HttpClient;

    use crate::{doc_session, CliError, CliOptions, Command};

    fn admin_get(client: &HttpClient, path: &str, query: &[(&str, &str)]) -> Result<String, CliError> {
        let response = client
            .send(&Request::get(path, query))
            .map_err(|e| CliError::Net(e.to_string()))?;
        let body = response.body_text().unwrap_or("").to_string();
        if response.is_success() {
            Ok(body)
        } else {
            Err(CliError::Net(format!("{} -> {}: {body}", path, response.status)))
        }
    }

    pub(crate) fn run_remote(target: &str, options: &CliOptions) -> Result<String, CliError> {
        let addr = target
            .to_socket_addrs()
            .ok()
            .and_then(|mut addrs| addrs.next())
            .ok_or_else(|| CliError::Net(format!("cannot resolve {target:?}")))?;
        let client = HttpClient::new(addr);
        match &options.command {
            Command::Stop => {
                let response = client
                    .send(&Request::post("/admin/shutdown", &[], ""))
                    .map_err(|e| CliError::Net(e.to_string()))?;
                if response.is_success() {
                    Ok("server stopping".to_string())
                } else {
                    Err(CliError::Net(format!("shutdown refused: {}", response.status)))
                }
            }
            Command::List => {
                let body = admin_get(&client, "/admin/list", &[])?;
                Ok(if body.is_empty() { "(no documents)".to_string() } else { body })
            }
            Command::Raw { doc } => {
                let response = client
                    .send(&Request::get("/admin/raw", &[("docID", doc)]))
                    .map_err(|e| CliError::Net(e.to_string()))?;
                match response.status {
                    _ if response.is_success() => {
                        Ok(response.body_text().unwrap_or("").to_string())
                    }
                    404 => Ok("(no such document)".to_string()),
                    status => Err(CliError::Net(format!("raw -> {status}"))),
                }
            }
            Command::Stats { format } => {
                let format = match format {
                    crate::StatsFormat::Text => "text",
                    crate::StatsFormat::Json => "json",
                };
                admin_get(&client, "/admin/stats", &[("format", format)])
            }
            Command::Watch { doc, auth, rounds, wait_ms } => crate::live_cli::run_watch(
                addr,
                options,
                doc,
                auth,
                *rounds,
                *wait_ms,
            ),
            Command::Edit { live: true, doc, auth, ops, rounds, wait_ms, editor } => {
                crate::live_cli::run_live_edit(
                    addr,
                    options,
                    doc,
                    auth,
                    ops,
                    *rounds,
                    *wait_ms,
                    editor,
                )
            }
            Command::Serve { .. } | Command::Fsck { .. } | Command::Compact { .. } => {
                unreachable!("handled before remote dispatch")
            }
            command => {
                doc_session(client, options.rpc, crate::effective_kdf_iters(options), command)
            }
        }
    }
}

mod live_cli {
    //! The `watch` and `edit --live` modes: a [`LiveSession`] over a
    //! real socket — pooled connections for requests, one dedicated
    //! connection for the long-poll subscription — with the privacy
    //! mediator *shared* between both paths so its ciphertext mirror
    //! sees every direction of traffic.

    use std::net::SocketAddr;
    use std::time::Duration;

    use pe_client::{DocsClient, PrivateChannel, SaveOutcome};
    use pe_collab::{CollabError, LiveSession, LiveTransport, SharedChannel};
    use pe_core::PresenceSealer;
    use pe_delta::Delta;
    use pe_net::HttpClient;

    use crate::{authed_mediator, Auth, CliError, CliOptions};

    type LiveChannel = SharedChannel<PrivateChannel<LiveTransport>>;
    type Session = LiveSession<LiveChannel, LiveChannel>;

    /// One scripted edit operation (byte offsets).
    pub(crate) enum EditOp {
        /// `i:AT:TEXT`
        Insert { at: usize, text: String },
        /// `d:AT:LEN`
        Delete { at: usize, len: usize },
        /// `a:TEXT`
        Append { text: String },
    }

    /// Parses a comma-separated `--ops` spec. An empty spec is a valid
    /// empty script (useful for a watch-like live session that only
    /// merges foreign edits).
    pub(crate) fn parse_ops(spec: &str) -> Result<Vec<EditOp>, CliError> {
        let bad = |entry: &str| {
            CliError::Usage(format!(
                "bad op {entry:?}: expected i:AT:TEXT, d:AT:LEN, or a:TEXT"
            ))
        };
        let mut ops = Vec::new();
        for entry in spec.split(',').filter(|e| !e.is_empty()) {
            let (kind, rest) = entry.split_once(':').ok_or_else(|| bad(entry))?;
            let op = match kind {
                "i" => {
                    let (at, text) = rest.split_once(':').ok_or_else(|| bad(entry))?;
                    EditOp::Insert {
                        at: at.parse().map_err(|_| bad(entry))?,
                        text: text.to_string(),
                    }
                }
                "d" => {
                    let (at, len) = rest.split_once(':').ok_or_else(|| bad(entry))?;
                    EditOp::Delete {
                        at: at.parse().map_err(|_| bad(entry))?,
                        len: len.parse().map_err(|_| bad(entry))?,
                    }
                }
                "a" => EditOp::Append { text: rest.to_string() },
                _ => return Err(bad(entry)),
            };
            ops.push(op);
        }
        Ok(ops)
    }

    /// Builds the char-based [`Delta`] an op denotes against `content`
    /// (ops use byte offsets, deltas count characters).
    pub(crate) fn op_delta(content: &str, op: &EditOp) -> Result<Delta, CliError> {
        let chars_at = |at: usize| {
            content
                .get(..at)
                .map(|prefix| prefix.chars().count())
                .ok_or_else(|| CliError::Usage(format!("offset {at} is out of range")))
        };
        let mut builder = Delta::builder();
        match op {
            EditOp::Insert { at, text } => {
                builder.retain(chars_at(*at)?).insert(text);
            }
            EditOp::Delete { at, len } => {
                let span = content
                    .get(*at..*at + *len)
                    .map(|s| s.chars().count())
                    .ok_or_else(|| {
                        CliError::Usage(format!("range {at}+{len} is out of range"))
                    })?;
                builder.retain(chars_at(*at)?).delete(span);
            }
            EditOp::Append { text } => {
                builder.retain(content.chars().count()).insert(text);
            }
        }
        Ok(builder.build())
    }

    fn net(e: CollabError) -> CliError {
        CliError::Net(e.to_string())
    }

    /// Opens the document and joins the live session. The edit path and
    /// the poll path share ONE mediator (via [`SharedChannel`]): foreign
    /// ciphertext deltas advance the same mirror the next save diffs
    /// against.
    fn join(
        addr: SocketAddr,
        options: &CliOptions,
        doc: &str,
        auth: &Auth,
        editor: &str,
        wait_ms: u64,
    ) -> Result<Session, CliError> {
        let kdf_iters = crate::effective_kdf_iters(options);
        // The subscription read timeout must outlast the server's poll
        // window or an idle long-poll looks like a dead connection.
        let read_timeout = Duration::from_millis(wait_ms) + Duration::from_secs(30);
        let transport = LiveTransport::new(HttpClient::new(addr), read_timeout);
        let mediator = authed_mediator(transport, options.rpc, kdf_iters, doc, auth)?;
        let channel = SharedChannel::new(PrivateChannel(mediator));
        let client = DocsClient::open(channel.clone(), doc)
            .map_err(|e| CliError::Net(format!("open {doc}: {e:?}")))?;
        let sealer = match auth {
            Auth::Password(password) => {
                Some(PresenceSealer::from_password(doc, password, kdf_iters))
            }
            // A tenant presence sealer would need the unwrapped data key;
            // presence stays unpublished for tenant logins for now.
            Auth::Tenant { .. } => None,
        };
        LiveSession::start(client, channel, editor, sealer).map_err(net)
    }

    pub(crate) fn run_watch(
        addr: SocketAddr,
        options: &CliOptions,
        doc: &str,
        auth: &Auth,
        rounds: usize,
        wait_ms: u64,
    ) -> Result<String, CliError> {
        let mut session = join(addr, options, doc, auth, "watcher", wait_ms)?;
        println!("watching {doc} from seq {}", session.since());
        let wait = Duration::from_millis(wait_ms);
        let mut applied = 0usize;
        for _ in 0..rounds {
            let outcome = session.step(wait).map_err(net)?;
            applied += outcome.applied;
            if outcome.applied > 0 || outcome.resynced {
                // Stream updates as they land; run() prints the summary.
                println!("[seq {}] {}", outcome.head, session.content());
            }
            for peer in session.peers().values() {
                println!("[presence] {} at {}", peer.editor, peer.cursor);
            }
        }
        Ok(format!(
            "watched {rounds} round(s): {applied} change(s), {} resync(s); final seq {}\n{}",
            session.resyncs(),
            session.since(),
            session.content(),
        ))
    }

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run_live_edit(
        addr: SocketAddr,
        options: &CliOptions,
        doc: &str,
        auth: &Auth,
        ops: &str,
        rounds: usize,
        wait_ms: u64,
        editor: &str,
    ) -> Result<String, CliError> {
        let ops = parse_ops(ops)?;
        let mut session = join(addr, options, doc, auth, editor, wait_ms)?;
        let wait = Duration::from_millis(wait_ms);
        let mut merged = 0usize;
        for op in &ops {
            {
                let editor = session.client().editor();
                match op {
                    EditOp::Insert { at, text } => editor.insert(*at, text),
                    EditOp::Delete { at, len } => editor.delete(*at, *len),
                    EditOp::Append { text } => {
                        let len = editor.len();
                        editor.insert(len, text);
                    }
                }
            }
            if session.save() == SaveOutcome::Conflict {
                return Err(CliError::Net(format!("live save of {doc} failed")));
            }
            // Drain anything that landed while we were typing without
            // blocking; the trailing rounds below do the real waiting.
            merged += session.step(Duration::ZERO).map_err(net)?.applied;
        }
        for _ in 0..rounds {
            let outcome = session.step(wait).map_err(net)?;
            merged += outcome.applied;
            if outcome.applied > 0 || outcome.resynced {
                // A foreign edit may have been rebased under pending
                // local state; push the converged text back.
                if session.save() == SaveOutcome::Conflict {
                    return Err(CliError::Net(format!("live save of {doc} failed")));
                }
            }
        }
        Ok(format!(
            "applied {} op(s); merged {merged} foreign change(s), {} resync(s)\n{}",
            ops.len(),
            session.resyncs(),
            session.content(),
        ))
    }
}

mod stats {
    //! The `pedit stats` scripted session: drives every layer of the
    //! stack — client retry loop, privacy mediator, simulated cloud with
    //! injected faults and the modeled network — against an in-memory
    //! server, then prints the global observability snapshot.

    use std::sync::{Arc, Mutex};

    use pe_client::{DirectChannel, DocsClient, PrivateChannel, SaveOutcome};
    use pe_cloud::docs::DocsServer;
    use pe_cloud::fault::FlakyService;
    use pe_cloud::meter::MeteredService;
    use pe_cloud::net::NetworkModel;
    use pe_cloud::CloudService;
    use pe_collab::{LiveDocs, LiveSession, SharedChannel};
    use pe_crypto::CtrDrbg;
    use pe_delta::Delta;
    use pe_extension::{DocsMediator, MediatorConfig};

    use crate::{CliError, StatsFormat};

    /// Serializes sessions so concurrent callers (parallel tests) cannot
    /// reset the global registry out from under each other.
    fn session_lock() -> &'static Mutex<()> {
        static LOCK: std::sync::OnceLock<Mutex<()>> = std::sync::OnceLock::new();
        LOCK.get_or_init(|| Mutex::new(()))
    }

    pub(crate) fn run_scripted_session(format: StatsFormat) -> Result<String, CliError> {
        let _guard = session_lock().lock().unwrap_or_else(|e| e.into_inner());
        pe_observe::global().reset();

        let bad = |detail: &str| CliError::BadStore(format!("stats session: {detail}"));
        let server = Arc::new(DocsServer::new());

        // --- rECB document: mediated edits over a metered transport. ---
        let metered = MeteredService::new(Arc::clone(&server));
        let mut mediator = DocsMediator::with_rng(
            metered.clone(),
            MediatorConfig::recb(8),
            CtrDrbg::from_seed(0x57a7),
        );
        let doc_id = mediator.create_document("stats-pw")?;
        mediator.save_full(&doc_id, "the quick brown fox jumps over the lazy dog")?;
        let mut client = DocsClient::open(PrivateChannel(mediator), &doc_id)
            .map_err(|_| bad("open failed"))?;
        for i in 0..6 {
            let len = client.content().len();
            client.editor().insert(len, &format!(" edit {i}."));
            if client.save() != SaveOutcome::Saved {
                return Err(bad("mediated save failed"));
            }
        }
        client.editor().delete(0, 4);
        client.save();

        // --- Two live writers on the same document: Bob's save loses
        //     the race, folds Alice's change from the stream, lands. ---
        let live = LiveDocs::new(Arc::clone(&server));
        let join = |name: &str, seed: u64| {
            let mut m = DocsMediator::with_rng(
                Arc::clone(&live),
                MediatorConfig::recb(8),
                CtrDrbg::from_seed(seed),
            );
            m.register_password(&doc_id, "stats-pw");
            let channel = SharedChannel::new(PrivateChannel(m));
            let client = DocsClient::open(channel.clone(), &doc_id)
                .map_err(|_| bad(&format!("{name} open failed")))?;
            LiveSession::start(client, channel, name, None)
                .map_err(|e| bad(&format!("{name} join failed: {e}")))
        };
        let mut alice = join("alice", 1)?;
        let mut bob = join("bob", 2)?;
        alice.client().editor().insert(0, "[alice] ");
        let bob_len = bob.content().len();
        bob.client().editor().insert(bob_len, " [bob]");
        if alice.save() != SaveOutcome::Saved || bob.save() != SaveOutcome::Saved {
            return Err(bad("live save failed"));
        }

        // --- RPC document: integrity mode, then a tamper attempt. ---
        let mut rpc_mediator = DocsMediator::with_rng(
            Arc::clone(&server),
            MediatorConfig::rpc(7),
            CtrDrbg::from_seed(0x0bc),
        );
        let rpc_id = rpc_mediator.create_document("rpc-pw")?;
        rpc_mediator.save_full(&rpc_id, "integrity protected contents")?;
        let mut delta = Delta::builder();
        delta.retain(9).insert(" fully");
        rpc_mediator.save_delta(&rpc_id, &delta.build())?;
        rpc_mediator.open_document(&rpc_id)?;
        // Tamper with the stored ciphertext and watch verification fail.
        let stored = server.stored_content(&rpc_id).ok_or_else(|| bad("no rpc doc"))?;
        let flip = stored.len() - 2;
        let tampered: String = stored
            .char_indices()
            .map(|(i, c)| if i == flip { if c == 'A' { 'B' } else { 'A' } } else { c })
            .collect();
        server.handle(&pe_cloud::Request::post(
            "/Doc",
            &[("docID", &rpc_id)],
            pe_crypto::form::encode_pairs(&[("docContents", tampered.as_str())]),
        ));
        let mut victim = DocsMediator::with_rng(
            Arc::clone(&server),
            MediatorConfig::rpc(7),
            CtrDrbg::from_seed(0xbad),
        );
        victim.register_password(&rpc_id, "rpc-pw");
        if victim.open_document(&rpc_id).is_ok() {
            return Err(bad("tampered document must not open"));
        }

        // --- Flaky transport: the client retry loop rides out 503s. ---
        let flaky_doc = {
            let resp = server.handle(&pe_cloud::Request::post("/Doc", &[("cmd", "create")], ""));
            let body = resp.body_text().unwrap_or("");
            let pairs = pe_crypto::form::parse_pairs(body).unwrap_or_default();
            pe_crypto::form::first_value(&pairs, "docID")
                .ok_or_else(|| bad("create failed"))?
                .to_string()
        };
        // Deterministic seeds; at least one open succeeds.
        let mut flaky_client = None;
        for seed in 0..8 {
            let flaky = FlakyService::new(Arc::clone(&server), 3, seed);
            if let Ok(c) = DocsClient::open(DirectChannel(flaky), &flaky_doc) {
                flaky_client = Some(c);
                break;
            }
        }
        let mut flaky_client = flaky_client.ok_or_else(|| bad("all flaky opens failed"))?;
        for i in 0..10 {
            let len = flaky_client.content().len();
            flaky_client.editor().insert(len, &format!("chunk {i}. "));
            if flaky_client.save_with_retry(10) != SaveOutcome::Saved {
                return Err(bad("retried save failed"));
            }
        }

        // --- Full-document save: the batch encrypt path, wall-timed. ---
        // A ~64 KiB document exercises the same `replace_all` route the
        // docs mediator takes for a browser full save.
        let full_text: String = {
            let alphabet = b"abcdefghijklmnopqrstuvwxyz ABCDEFGHIJKLMNOPQRSTUVWXYZ. ";
            (0..64 * 1024).map(|i| char::from(alphabet[i % alphabet.len()])).collect()
        };
        let mut saver = DocsMediator::with_rng(
            Arc::clone(&server),
            MediatorConfig::recb(8),
            CtrDrbg::from_seed(0xfa57),
        );
        let full_id = saver.create_document("full-pw")?;
        let started = std::time::Instant::now();
        saver.save_full(&full_id, &full_text)?;
        let full_save = started.elapsed();
        saver.open_document(&full_id)?; // and the batch decrypt path back
        pe_observe::static_histogram!("cli.full_save_ns").record(full_save.as_nanos() as u64);
        pe_observe::static_counter!("cli.full_save_bytes").add(full_text.len() as u64);

        // --- Modeled network time for every metered exchange. ---
        let model = NetworkModel::default();
        for exchange in metered.drain() {
            model.round_trip_bytes(exchange.request_bytes, exchange.response_bytes);
        }

        let snapshot = pe_observe::global().snapshot();
        Ok(match format {
            StatsFormat::Text => {
                // The JSON format stays exactly the snapshot (tests
                // round-trip it), so the human-readable wall-time line is
                // text-mode only.
                let mut out = snapshot.render_text();
                out.push_str(&format!(
                    "\nfull save: {} bytes re-encrypted in {:.3} ms (batch path)\n",
                    full_text.len(),
                    full_save.as_secs_f64() * 1e3,
                ));
                out
            }
            StatsFormat::Json => snapshot.render_jsonl(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_create() {
        let options =
            parse_args(&args(&["--store", "s.db", "create", "--password", "pw"])).unwrap();
        assert_eq!(options.store, PathBuf::from("s.db"));
        assert!(!options.rpc);
        assert_eq!(
            options.command,
            Command::Create { auth: Auth::Password("pw".into()) }
        );
    }

    #[test]
    fn parses_rpc_flag_and_numbers() {
        let options = parse_args(&args(&[
            "--store", "s.db", "--rpc", "delete", "--doc", "doc1", "--password", "pw", "--at",
            "3", "--len", "7",
        ]))
        .unwrap();
        assert!(options.rpc);
        assert_eq!(
            options.command,
            Command::Delete {
                doc: "doc1".into(),
                auth: Auth::Password("pw".into()),
                at: 3,
                len: 7
            }
        );
    }

    #[test]
    fn rejects_missing_store_and_bad_flags() {
        assert!(matches!(parse_args(&args(&["create"])), Err(CliError::Usage(_))));
        assert!(matches!(
            parse_args(&args(&["--store", "s", "create"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_args(&args(&["--store", "s", "teleport"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_args(&args(&["--store", "s", "show", "--doc"])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn parses_tenant_auth_and_user_commands() {
        let options = parse_args(&args(&[
            "--store", "s.db", "show", "--doc", "doc1", "--user", "alice", "--passphrase", "pp",
        ]))
        .unwrap();
        assert_eq!(
            options.command,
            Command::Show {
                doc: "doc1".into(),
                auth: Auth::Tenant { user: "alice".into(), passphrase: "pp".into() },
            }
        );
        // Mixing both credential styles is rejected.
        assert!(matches!(
            parse_args(&args(&[
                "--store", "s", "show", "--doc", "d", "--password", "pw", "--user", "u",
                "--passphrase", "p",
            ])),
            Err(CliError::Usage(_))
        ));
        let options = parse_args(&args(&[
            "--store", "s.db", "user", "register", "--name", "alice", "--passphrase", "pp",
        ]))
        .unwrap();
        assert_eq!(
            options.command,
            Command::UserRegister { name: "alice".into(), passphrase: "pp".into() }
        );
        let options = parse_args(&args(&["--store", "s.db", "user", "list"])).unwrap();
        assert_eq!(options.command, Command::UserList);
        let options = parse_args(&args(&[
            "--store", "s.db", "grant", "--doc", "d", "--user", "alice", "--passphrase", "pp",
            "--to", "bob",
        ]))
        .unwrap();
        assert_eq!(
            options.command,
            Command::Grant {
                doc: "d".into(),
                user: "alice".into(),
                passphrase: "pp".into(),
                to: "bob".into()
            }
        );
        assert!(matches!(
            parse_args(&args(&["--store", "s", "user", "teleport"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_args(&args(&["--store", "s", "user"])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn parses_kdf_iters_override() {
        let options = parse_args(&args(&[
            "--store", "s.db", "--kdf-iters", "2000", "create", "--password", "pw",
        ]))
        .unwrap();
        assert_eq!(options.kdf_iters, Some(2000));
        assert!(matches!(
            parse_args(&args(&["--store", "s", "--kdf-iters", "0", "list"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_args(&args(&["--store", "s", "--kdf-iters", "many", "list"])),
            Err(CliError::Usage(_))
        ));
        // Default: no override recorded.
        let options = parse_args(&args(&["--store", "s.db", "list"])).unwrap();
        assert_eq!(options.kdf_iters, None);
    }

    #[test]
    fn help_shows_usage() {
        let err = parse_args(&args(&["--help"])).unwrap_err();
        assert!(err.to_string().contains("COMMANDS"));
    }

    #[test]
    fn parses_serve_with_defaults_and_flags() {
        let options = parse_args(&args(&["--store", "s.db", "serve"])).unwrap();
        assert_eq!(
            options.command,
            Command::Serve {
                addr: "127.0.0.1:0".into(),
                workers: None,
                max_conns: None,
                addr_file: None,
                fsync: FsyncPolicy::Always,
                shards: None,
            }
        );
        let options = parse_args(&args(&[
            "--store", "s.db", "serve", "--addr", "127.0.0.1:8080", "--workers", "2",
            "--max-conns", "512", "--addr-file", "/tmp/a", "--fsync", "every=8",
            "--shards", "4",
        ]))
        .unwrap();
        assert_eq!(
            options.command,
            Command::Serve {
                addr: "127.0.0.1:8080".into(),
                workers: Some(2),
                max_conns: Some(512),
                addr_file: Some(PathBuf::from("/tmp/a")),
                fsync: FsyncPolicy::EveryN(8),
                shards: Some(4),
            }
        );
        assert!(matches!(
            parse_args(&args(&["--store", "s", "serve", "--fsync", "sometimes"])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn parses_fsck_and_compact_as_positional_verbs() {
        // Neither needs --store: the directory is the positional argument.
        let options = parse_args(&args(&["fsck", "some/dir"])).unwrap();
        assert_eq!(options.command, Command::Fsck { dir: PathBuf::from("some/dir") });
        let options = parse_args(&args(&["compact", "some/dir"])).unwrap();
        assert_eq!(options.command, Command::Compact { dir: PathBuf::from("some/dir") });
        assert!(matches!(parse_args(&args(&["fsck"])), Err(CliError::Usage(_))));
        assert!(matches!(
            parse_args(&args(&["compact", "a", "b"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_args(&args(&["fsck", "a", "--shards", "2"])),
            Err(CliError::Usage(_)),
        ));
        // The layout is fixed when a store is created; compact takes no
        // shard count.
        assert!(matches!(
            parse_args(&args(&["compact", "a", "--shards", "2"])),
            Err(CliError::Usage(_)),
        ));
    }

    #[test]
    fn fsck_reports_missing_directory_as_corrupt() {
        let options = parse_args(&args(&["fsck", "/nonexistent/pedit-store"])).unwrap();
        assert!(matches!(run(&options), Err(CliError::BadStore(_))));
    }

    #[test]
    fn parses_connect_mode_without_store() {
        let options = parse_args(&args(&[
            "--connect", "127.0.0.1:9", "show", "--doc", "d", "--password", "pw",
        ]))
        .unwrap();
        assert_eq!(options.connect.as_deref(), Some("127.0.0.1:9"));
        assert!(options.store.as_os_str().is_empty());
        let options = parse_args(&args(&["--connect", "127.0.0.1:9", "stop"])).unwrap();
        assert_eq!(options.command, Command::Stop);
    }

    #[test]
    fn serve_cannot_combine_with_connect_and_stop_needs_connect() {
        assert!(matches!(
            parse_args(&args(&["--store", "s", "--connect", "h:1", "serve"])),
            Err(CliError::Usage(_))
        ));
        // `stop` parses without --connect but run() rejects it.
        let options = parse_args(&args(&["--store", "s", "stop"])).unwrap();
        assert!(matches!(run(&options), Err(CliError::Usage(_))));
    }
}
