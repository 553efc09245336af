//! Live-collaboration fan-out over real loopback sockets: K concurrent
//! [`LiveSession`](pe_collab::LiveSession) editors on one shared
//! encrypted document, server-pushed change streams against a durable
//! sharded WAL store.
//!
//! Usage: `cargo run -p pe-bench --bin collab_load --release -- \
//!     [--smoke] [--editors K,K,...] [--rounds N] [--store DIR] \
//!     [--fsync POLICY] [--shards N] [--poll-interval-ms MS] [--out FILE]`
//!
//! Defaults: editors 2,8,32 (smoke: 2), 8 rounds each (smoke: 2), a
//! 4-shard always-fsync store under a temp directory, a 250 ms polling
//! baseline, and the JSON report to `BENCH_collab.json`. Exits non-zero
//! on any unrecovered session error or convergence failure.

use pe_bench::collab::{collab_load, render_json};
use pe_bench::report::markdown_table;
use pe_store::FsyncPolicy;

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).map(String::as_str)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");

    let default_counts: &[usize] = if smoke { &[2] } else { &[2, 8, 32] };
    let counts: Vec<usize> = match flag_value(&args, "--editors") {
        Some(list) => list
            .split(',')
            .map(|n| n.trim().parse().unwrap_or_else(|_| bad_usage(n)))
            .collect(),
        None => default_counts.to_vec(),
    };
    let rounds: usize = match flag_value(&args, "--rounds") {
        Some(n) => n.parse().unwrap_or_else(|_| bad_usage(n)),
        None if smoke => 2,
        None => 8,
    };
    let poll_interval_ms: u64 = match flag_value(&args, "--poll-interval-ms") {
        Some(n) => n.parse().unwrap_or_else(|_| bad_usage(n)),
        None => 250,
    };
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
    let (dir, ephemeral) = match flag_value(&args, "--store") {
        Some(dir) => (std::path::PathBuf::from(dir), false),
        None => (
            std::env::temp_dir().join(format!("pe-collabload-{}", std::process::id())),
            true,
        ),
    };

    println!("# Live collaboration — K editors, one encrypted document, pushed change streams\n");
    println!(
        "Each editor: SharedChannel mediator (rECB, b=8), pooled requests + dedicated \
         long-poll subscription; {rounds} append+merge rounds."
    );
    println!(
        "Push latency is publisher-send → subscriber-apply; the poll baseline probes \
         every {poll_interval_ms} ms instead of parking.\n"
    );

    let rows = collab_load(&dir, fsync, shards, &counts, rounds, poll_interval_ms, 0xc0_11ab);
    if ephemeral {
        let _ = std::fs::remove_dir_all(&dir);
    }

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|row| {
            vec![
                row.store.clone(),
                format!("{}", row.editors),
                format!("{}", row.saves),
                format!("{}", row.deliveries),
                format!("{:.2} s", row.wall_s),
                format!("{:.0}/s", row.fanout_per_s),
                format!("{:.2} ms", row.push_p50_ns as f64 / 1e6),
                format!("{:.2} ms", row.push_p99_ns as f64 / 1e6),
                format!("{:.0} ms", row.poll_p50_ns as f64 / 1e6),
                format!("{}", row.resyncs),
                format!("{}", row.converged),
            ]
        })
        .collect();
    println!(
        "{}",
        markdown_table(
            &[
                "store", "editors", "saves", "deliveries", "wall", "fan-out", "push p50",
                "push p99", "poll p50", "resyncs", "converged"
            ],
            &table
        )
    );

    if rows.iter().any(|r| r.errors > 0 || !r.converged) {
        eprintln!("error: unrecovered session failures or divergent editors");
        std::process::exit(1);
    }

    let out_path = flag_value(&args, "--out").unwrap_or("BENCH_collab.json");
    let json = render_json(&rows, rounds, poll_interval_ms);
    match std::fs::write(out_path, &json) {
        Ok(()) => println!("wrote {out_path}"),
        Err(e) => {
            eprintln!("error: could not write {out_path}: {e}");
            std::process::exit(1);
        }
    }
    println!("{}", pe_bench::report::observability_section());
}

fn bad_usage(got: &str) -> ! {
    eprintln!("error: expected a number, got {got:?}");
    eprintln!(
        "usage: collab_load [--smoke] [--editors K,K,...] [--rounds N] [--store DIR] \
         [--fsync POLICY] [--shards N] [--poll-interval-ms MS] [--out FILE]"
    );
    std::process::exit(2)
}
