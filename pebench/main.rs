//! `pebench`: the repository's benchmark of the `pedit serve` stack.
//!
//! ```text
//! pebench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--record FILE] [--smoke]
//! pebench [--seed N] [--seconds S] [--trace 0|1] [--out FILE] [--smoke]
//! pebench [--bounds BENCHMARK.json] --compare PARENT.json… -- CHANGE.json…
//! ```
//!
//! The first form runs one workload and ends its output with one JSON
//! line (`correct`, `attempted`, `failed`, `metrics`): the end-to-end
//! metrics, or with `--trace 1` the per-layer ones. The second runs
//! every workload, each in a fresh child process of the first form, and
//! writes all results with the run's metadata to `--out`. The third
//! compares result files. See README.md beside this file.

mod compare;
mod host;
mod report;
mod stack;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use report::{quote, Facts};
use workloads::{Config, Metric, WORKLOADS};

/// Measured seconds per run; `run_seconds` in BENCHMARK.json.
const DEFAULT_SECONDS: f64 = 30.0;
/// Where stores, records and span dumps go, relative to the working
/// directory.
const SCRATCH: &str = ".pebench";

const USAGE: &str = "usage:
  pebench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--record FILE] [--smoke]
  pebench [--seed N] [--seconds S] [--trace 0|1] [--out FILE] [--smoke]
  pebench [--bounds BENCHMARK.json] --compare PARENT.json... -- CHANGE.json...
workloads: typing, open, full_save, live";

#[derive(Debug)]
struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    record: Option<PathBuf>,
    out: Option<PathBuf>,
    bounds: PathBuf,
    compare: Option<(Vec<PathBuf>, Vec<PathBuf>)>,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        record: None,
        out: None,
        bounds: PathBuf::from("BENCHMARK.json"),
        compare: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs a value"))
        };
        match arg.as_str() {
            "--workload" => o.workload = Some(value()?),
            "--seed" => o.seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                o.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(o.seconds > 0.0 && o.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--smoke" => o.smoke = true,
            "--record" => o.record = Some(PathBuf::from(value()?)),
            "--out" => o.out = Some(PathBuf::from(value()?)),
            "--bounds" => o.bounds = PathBuf::from(value()?),
            "--compare" => {
                let rest: Vec<PathBuf> = it.by_ref().map(PathBuf::from).collect();
                let split = rest
                    .iter()
                    .position(|p| p.as_os_str() == "--")
                    .ok_or("--compare needs PARENT files, then --, then CHANGE files")?;
                o.compare = Some((rest[..split].to_vec(), rest[split + 1..].to_vec()));
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if let Some(name) = &o.workload {
        if workloads::spec(name).is_none() {
            return Err(format!("unknown workload {name:?}"));
        }
    }
    Ok(o)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_args(&args) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("pebench: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = if let Some((parents, changes)) = &options.compare {
        compare::compare(parents, changes, &options.bounds)
    } else if let Some(name) = &options.workload {
        run_one(&options, name)
    } else {
        run_all(&options)
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("pebench: {message}");
            ExitCode::from(1)
        }
    }
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("  {title}:");
    for m in metrics {
        println!(
            "    {:<26} {:>14.4} {:<6} ({} samples)",
            m.name, m.value, m.unit, m.samples
        );
    }
}

/// Runs one workload in this process; `Ok(false)` when an output check
/// failed.
fn run_one(o: &Options, name: &str) -> Result<bool, String> {
    let spec = workloads::spec(name).expect("validated by parse_args");
    let cfg = Config {
        spec,
        seed: o.seed,
        seconds: if o.smoke { 1.0 } else { o.seconds },
        trace: o.trace,
        smoke: o.smoke,
        scratch: PathBuf::from(SCRATCH),
    };
    let report = workloads::run(&cfg)?;
    println!(
        "pebench {name}: seed {} seconds {} trace {} docs {} × {} B at {} ops/s",
        o.seed, cfg.seconds, o.trace as u8, spec.docs, spec.doc_bytes, spec.rate
    );
    print_metrics("end to end", &report.end_to_end);
    if o.trace {
        print_metrics("per layer", &report.per_layer);
        print_metrics("self time by span on the measured path", &report.spans);
    }
    for note in &report.notes {
        println!("  note: {note}");
    }
    if let Some(tracer) = &report.tracer {
        let path = PathBuf::from(SCRATCH).join(format!("trace-{name}.jsonl"));
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("  spans: {}", path.display());
    }
    if let Some(path) = &o.record {
        let facts = Facts::gather(&cfg.scratch);
        std::fs::write(path, report::record_json(name, &report, &facts))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    let correct = report.failed == 0;
    let metrics = if o.trace {
        &report.per_layer
    } else {
        &report.end_to_end
    };
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        report.attempted,
        report.failed,
        report::metrics_json(metrics, false)
    );
    Ok(correct)
}

/// Runs every workload, each in a fresh child process, and collects the
/// results with the run's metadata.
fn run_all(o: &Options) -> Result<bool, String> {
    std::fs::create_dir_all(SCRATCH).map_err(|e| format!("create {SCRATCH}: {e}"))?;
    let exe = std::env::current_exe().map_err(|e| format!("locate pebench: {e}"))?;
    let mut records = Vec::new();
    let mut all_correct = true;
    for spec in &WORKLOADS {
        let record = PathBuf::from(SCRATCH).join(format!(
            "record-{}-{}.json",
            spec.name,
            std::process::id()
        ));
        let mut child = Command::new(&exe);
        child.args(["--workload", spec.name, "--seed", &o.seed.to_string()]);
        child.args([
            "--seconds",
            &o.seconds.to_string(),
            "--trace",
            if o.trace { "1" } else { "0" },
        ]);
        child.arg("--record").arg(&record);
        if o.smoke {
            child.arg("--smoke");
        }
        let status = child
            .status()
            .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
        let text = std::fs::read_to_string(&record)
            .map_err(|e| format!("{} produced no record ({status}): {e}", spec.name))?;
        let _ = std::fs::remove_file(&record);
        all_correct &= status.success();
        records.push((spec.name, report::parse(&text)?));
    }

    println!(
        "\npebench summary (seed {}, trace {}):",
        o.seed, o.trace as u8
    );
    println!(
        "  {:<10} {:<26} {:>14} {:<6} {:>8}",
        "workload", "metric", "value", "unit", "samples"
    );
    for (name, record) in &records {
        let section = if o.trace { "per_layer" } else { "end_to_end" };
        for (metric, m) in record
            .get(section)
            .and_then(report::Json::obj)
            .into_iter()
            .flatten()
        {
            println!(
                "  {:<10} {:<26} {:>14.4} {:<6} {:>8}",
                name,
                metric,
                m.get("value")
                    .and_then(report::Json::num)
                    .unwrap_or(f64::NAN),
                m.get("unit").and_then(report::Json::str).unwrap_or("?"),
                m.get("samples").and_then(report::Json::num).unwrap_or(0.0)
            );
        }
        let attempted = record
            .get("attempted")
            .and_then(report::Json::num)
            .unwrap_or(0.0);
        let failed = record
            .get("failed")
            .and_then(report::Json::num)
            .unwrap_or(0.0);
        println!(
            "  {:<10} {:<26} {:>14.6} {:<6} {:>8}",
            name,
            "fail_ratio",
            failed / attempted.max(1.0),
            "ratio",
            attempted
        );
    }

    if let Some(out) = &o.out {
        std::fs::write(out, results_json(o, &records)?)
            .map_err(|e| format!("write {}: {e}", out.display()))?;
        println!("results: {}", out.display());
    }
    Ok(all_correct)
}

/// The results file: run metadata (host facts, seed, frozen rates and
/// durations) plus every workload's record.
fn results_json(o: &Options, records: &[(&str, report::Json)]) -> Result<String, String> {
    let facts = records
        .first()
        .and_then(|(_, r)| r.get("facts"))
        .ok_or("no workload record")?;
    if let Some((name, _)) = records.iter().find(|(_, r)| r.get("facts") != Some(facts)) {
        return Err(format!("host facts changed between workloads (at {name})"));
    }
    let report::Json::Obj(facts) = facts else {
        return Err("malformed facts".into());
    };
    let mut meta: Vec<String> = facts
        .iter()
        .map(|(k, v)| format!("{}:{}", quote(k), v.render()))
        .collect();
    meta.push(format!("\"seed\":{}", o.seed));
    meta.push(format!("\"seconds\":{}", o.seconds));
    meta.push(format!("\"trace\":{}", o.trace));
    meta.push(format!("\"smoke\":{}", o.smoke));
    meta.push(format!("\"setups\":{}", workloads::SETUPS));
    meta.push(format!("\"rounds\":{}", workloads::ROUNDS));
    meta.push(format!("\"open_share\":{}", workloads::OPEN_SHARE));
    let specs: Vec<String> = WORKLOADS
        .iter()
        .map(|s| {
            format!(
                "{}:{{\"docs\":{},\"doc_bytes\":{},\"rate_ops_s\":{}}}",
                quote(s.name),
                s.docs,
                s.doc_bytes,
                s.rate
            )
        })
        .collect();
    meta.push(format!("\"workloads\":{{{}}}", specs.join(",")));
    let results: Vec<String> = records
        .iter()
        .map(|(name, r)| format!("{}:{}", quote(name), r.render()))
        .collect();
    Ok(format!(
        "{{\"meta\":{{{}}},\"results\":{{{}}}}}\n",
        meta.join(","),
        results.join(",")
    ))
}
