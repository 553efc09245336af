//! The stack under test: what `pedit serve` runs, in-process.
//!
//! Server: `HttpServer` (`ServerConfig::default()`) → `Router` →
//! `LiveService` → `LiveDocs` → `DocsServer` → `ShardedLogStore`
//! (one shard per CPU, `fsync=always`). Client: `DocsClient` →
//! `PrivateChannel(DocsMediator)` (`MediatorConfig::default()`, rECB) →
//! `HttpClient` over loopback.
//!
//! The server's tracing wrappers are mounted only in a traced run. The
//! client's wrappers are part of its types, but they call straight
//! through unless their thread has an open trace span, which only a
//! traced run opens.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use pe_client::PrivateChannel;
use pe_cloud::docs::DocsServer;
use pe_collab::{LiveDocs, LiveService};
use pe_crypto::CtrDrbg;
use pe_extension::{DocsMediator, MediatorConfig};
use pe_net::{HttpClient, HttpServer, Router, ServerConfig};
use pe_store::{DocStore, FsyncPolicy, ShardedLogStore, StoreConfig};

use crate::trace::{
    TracedChannel, TracedListener, TracedService, TracedStore, TracedTransport, Tracer,
};

/// Logical CPUs, which is also the store's shard count and the
/// generator's thread budget.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// A running server over a fresh durable store directory.
pub struct Server {
    pub addr: SocketAddr,
    /// The raw (untraced) store, for the sentinel scan.
    pub store: Arc<ShardedLogStore>,
    http: HttpServer,
    dir: PathBuf,
}

impl Server {
    /// Starts the server; with a tracer, behind the tracing wrappers.
    pub fn start(dir: &Path, tracer: Option<&Arc<Tracer>>) -> Result<Server, String> {
        let _ = std::fs::remove_dir_all(dir);
        let config = StoreConfig {
            fsync: FsyncPolicy::Always,
            ..StoreConfig::default()
        };
        let store = Arc::new(
            ShardedLogStore::open(dir, nproc(), config)
                .map_err(|e| format!("open store {}: {e}", dir.display()))?,
        );
        let raw = Arc::clone(&store) as Arc<dyn DocStore>;
        let front: Arc<dyn pe_net::Service> = match tracer {
            None => Arc::new(LiveService(LiveDocs::new(Arc::new(
                DocsServer::with_store(raw),
            )))),
            Some(tracer) => {
                let traced = Arc::new(TracedStore::new(raw, Arc::clone(tracer)));
                let docs = Arc::new(DocsServer::with_store(traced));
                let live = LiveDocs::new(Arc::clone(&docs));
                // Re-install the change bus behind a timing wrapper.
                docs.set_save_listener(Arc::new(TracedListener::new(
                    Arc::clone(live.bus()),
                    Arc::clone(tracer),
                )));
                Arc::new(TracedService::new(LiveService(live), Arc::clone(tracer)))
            }
        };
        let router = Router::new().mount("", front);
        let http = HttpServer::bind("127.0.0.1:0", Arc::new(router), ServerConfig::default())
            .map_err(|e| format!("bind loopback: {e}"))?;
        Ok(Server {
            addr: http.local_addr(),
            store,
            http,
            dir: dir.to_path_buf(),
        })
    }

    /// Shuts the server down and deletes its store.
    pub fn stop(self) {
        self.http.shutdown();
        drop(self.store);
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// The traced client transport.
pub type Transport = TracedTransport<Arc<HttpClient>>;
/// The privacy mediator over the traced transport.
pub type Mediator = DocsMediator<Transport>;
/// What an editing client talks through.
pub type Chan = TracedChannel<PrivateChannel<Transport>>;

pub fn mediator(http: &Arc<HttpClient>, tracer: &Arc<Tracer>, seed: u64) -> Mediator {
    DocsMediator::with_rng(
        TracedTransport::new(Arc::clone(http), Arc::clone(tracer)),
        MediatorConfig::default(),
        CtrDrbg::from_seed(seed),
    )
}

pub fn channel(mediator: Mediator, tracer: &Arc<Tracer>) -> Chan {
    TracedChannel::new(PrivateChannel(mediator), Arc::clone(tracer))
}

/// A reader that has never seen any document: it derives every key
/// afresh from the password and the stored salt.
pub fn fresh_reader(addr: SocketAddr, seed: u64) -> DocsMediator<HttpClient> {
    DocsMediator::with_rng(
        HttpClient::new(addr),
        MediatorConfig::default(),
        CtrDrbg::from_seed(seed),
    )
}
