//! Multi-client network load over real loopback sockets: N concurrent
//! mediated editors against one `pe-net` HTTP server.
//!
//! Usage: `cargo run -p pe-bench --bin net_load --release -- \
//!     [--smoke] [--clients N,N,...] [--edits N] [--connect ADDR] \
//!     [--store DIR] [--fsync POLICY] [--shards N] [--out FILE]`
//!
//! By default each concurrency row spawns its own in-process event-loop
//! server over an in-memory store and the JSON report goes to
//! `BENCH_net.json` (or `--out FILE`). `--store DIR` adds a second sweep
//! whose servers persist to a durable sharded WAL store under `DIR`
//! (fsync policy `--fsync`, default `always`; `--shards` WAL shards,
//! default 4) — those rows carry the real cost of making every
//! acknowledged save durable. `--connect ADDR` drives an
//! already-running server (e.g. a live `pedit serve`) instead — used by
//! CI's high-concurrency smoke — and then no JSON is written unless
//! `--out` is given explicitly. `--smoke` runs tiny concurrency levels
//! with few edits.

use pe_bench::netload::{net_load, net_load_connect, net_load_with_store, render_json, RowStore};
use pe_bench::report::markdown_table;
use pe_store::FsyncPolicy;

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).map(String::as_str)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");

    let default_counts: &[usize] =
        if smoke { &[1, 2] } else { &[1, 4, 16, 64, 256, 512, 1024] };
    let counts: Vec<usize> = match flag_value(&args, "--clients") {
        Some(list) => list
            .split(',')
            .map(|n| n.trim().parse().unwrap_or_else(|_| bad_usage(n)))
            .collect(),
        None => default_counts.to_vec(),
    };
    let edits: usize = match flag_value(&args, "--edits") {
        Some(n) => n.parse().unwrap_or_else(|_| bad_usage(n)),
        None if smoke => 2,
        None => 25,
    };
    let connect: Option<std::net::SocketAddr> = flag_value(&args, "--connect").map(|a| {
        a.parse().unwrap_or_else(|_| {
            eprintln!("error: --connect needs HOST:PORT, got {a:?}");
            std::process::exit(2);
        })
    });
    let durable: Option<RowStore> = flag_value(&args, "--store").map(|dir| {
        let fsync = match flag_value(&args, "--fsync") {
            Some(text) => FsyncPolicy::parse(text).unwrap_or_else(|| {
                eprintln!("error: --fsync needs always|never|every=N, got {text:?}");
                std::process::exit(2);
            }),
            None => FsyncPolicy::Always,
        };
        let shards: usize = match flag_value(&args, "--shards") {
            Some(n) => n.parse().unwrap_or_else(|_| bad_usage(n)),
            None => 4,
        };
        RowStore::Sharded { dir: dir.into(), fsync, shards }
    });
    if durable.is_some() && connect.is_some() {
        eprintln!("error: --store spawns its own servers; it cannot be combined with --connect");
        std::process::exit(2);
    }

    println!("# Network load — concurrent mediated editors over loopback TCP (rECB, b=8)\n");
    println!(
        "Each client: its own pooling HttpClient + DocsMediator + document; \
         {edits} open+save rounds after create."
    );
    println!("Latency quantiles come from the live net.client.request_ns histogram.\n");

    let rows = match connect {
        Some(addr) => {
            println!("Driving external server at {addr}.\n");
            net_load_connect(addr, &counts, edits, 0x10ad)
        }
        None => {
            let mut rows = net_load(&counts, edits, 0x10ad);
            if let Some(backing) = &durable {
                println!("Durable sweep: {}.\n", backing.label());
                rows.extend(net_load_with_store(backing, &counts, edits, 0x10ad));
            }
            rows
        }
    };
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|row| {
            vec![
                row.store.clone(),
                format!("{}", row.clients),
                format!("{}", row.requests),
                format!("{:.2} s", row.wall_s),
                format!("{:.0}", row.rps),
                format!("{:.2} ms", row.p50_ns as f64 / 1e6),
                format!("{:.2} ms", row.p99_ns as f64 / 1e6),
                format!("{}", row.retries),
                format!("{}", row.errors),
                format!("{}", row.peak_conns),
            ]
        })
        .collect();
    println!(
        "{}",
        markdown_table(
            &[
                "store", "clients", "requests", "wall", "req/s", "p50", "p99", "retries",
                "errors", "peak conns"
            ],
            &table
        )
    );

    if rows.iter().any(|r| r.errors > 0 || r.failed_sessions > 0) {
        eprintln!("error: unrecovered failures on a fault-free wire");
        std::process::exit(1);
    }

    let out_path = flag_value(&args, "--out");
    let out_path = match (out_path, connect) {
        (Some(path), _) => Some(path),
        (None, None) => Some("BENCH_net.json"),
        // --connect without --out: measurement only, nothing to commit.
        (None, Some(_)) => None,
    };
    if let Some(out_path) = out_path {
        let json = render_json(&rows, edits);
        match std::fs::write(out_path, &json) {
            Ok(()) => println!("wrote {out_path}"),
            Err(e) => {
                eprintln!("error: could not write {out_path}: {e}");
                std::process::exit(1);
            }
        }
    }
    println!("{}", pe_bench::report::observability_section());
}

fn bad_usage(got: &str) -> ! {
    eprintln!("error: expected a number, got {got:?}");
    eprintln!(
        "usage: net_load [--smoke] [--clients N,N,...] [--edits N] [--connect ADDR] \
         [--store DIR] [--fsync POLICY] [--shards N] [--out FILE]"
    );
    std::process::exit(2)
}
