//! `pebench --compare PARENT.json… -- CHANGE.json…`: the parent/change
//! comparison rule of the choosing-metrics guide (§6, §8).
//!
//! Result files pair up by position (`PARENT[i]` with `CHANGE[i]`); the
//! runs behind them should alternate which side went first. Each
//! (workload, end-to-end metric) row gets both sides' median and
//! quartiles, the change's win fraction over the pairs, and a verdict
//! against the metric's bound in `BENCHMARK.json`:
//!
//! * **improved** — over at least ten pairs, the change wins at least
//!   nine tenths of them (ties count for neither) and the medians differ
//!   by more than the parent's own quartile spread;
//! * **regressed** — the change's median is worse than the parent's by
//!   more than the bound;
//! * **unresolved** — the parent's runs spread wider than the bound,
//!   unless every change run reads better than every parent run; or the
//!   change looks better but there are fewer than ten pairs;
//! * **unchanged** — otherwise.
//!
//! Results are refused unless every file shares the host facts and the
//! run parameters (run length, tracing, smoke mode, rounds, workload
//! rates), and the two files of each pair share their seed.

use std::path::PathBuf;

use crate::report::{self, Json, HOST_FACTS, RUN_PARAMS};
use crate::stats::quartiles;

/// Fewest pairs on which a gain may be claimed.
const MIN_PAIRS_FOR_GAIN: usize = 10;

/// One end-to-end metric's regression rule.
struct Bound {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

fn load(path: &PathBuf) -> Result<Json, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    report::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn bounds(benchmark: &Json) -> Result<Vec<Bound>, String> {
    let list = benchmark
        .get("end_to_end")
        .and_then(Json::arr)
        .ok_or("BENCHMARK.json lacks end_to_end")?;
    list.iter()
        .map(|m| {
            Ok(Bound {
                name: m
                    .get("name")
                    .and_then(Json::str)
                    .ok_or("metric without a name")?
                    .to_string(),
                lower_is_better: m.get("better").and_then(Json::str) == Some("lower"),
                bound: m
                    .get("bound")
                    .and_then(Json::num)
                    .ok_or("metric without a bound")?,
            })
        })
        .collect()
}

/// `keys` of a results file's metadata, rendered; "?" for a missing key.
fn meta_of(results: &Json, keys: &[&str]) -> Vec<(String, String)> {
    let meta = results.get("meta");
    keys.iter()
        .map(|k| {
            (
                k.to_string(),
                meta.and_then(|m| m.get(k))
                    .map_or_else(|| "?".into(), Json::render),
            )
        })
        .collect()
}

/// Refuses results that were not measured alike: every file must share
/// the host facts and the run parameters, and the two files of a pair
/// must share their seed.
fn check_comparable(
    parents: &[(PathBuf, Json)],
    changes: &[(PathBuf, Json)],
) -> Result<(), String> {
    let keys: Vec<&str> = HOST_FACTS.iter().chain(&RUN_PARAMS).copied().collect();
    let reference = meta_of(&parents[0].1, &keys);
    for (path, run) in parents.iter().chain(changes) {
        let meta = meta_of(run, &keys);
        if let Some(((key, got), (_, want))) = meta.iter().zip(&reference).find(|(a, b)| a != b) {
            return Err(format!(
                "refusing to compare: {} has {key} = {got}, {} has {want}",
                path.display(),
                parents[0].0.display()
            ));
        }
    }
    for ((p_path, p), (c_path, c)) in parents.iter().zip(changes) {
        let (p_seed, c_seed) = (meta_of(p, &["seed"]), meta_of(c, &["seed"]));
        if p_seed != c_seed || p_seed[0].1 == "?" {
            return Err(format!(
                "refusing to compare: the pair {} and {} differ in seed ({} vs {})",
                p_path.display(),
                c_path.display(),
                p_seed[0].1,
                c_seed[0].1
            ));
        }
    }
    Ok(())
}

fn value(results: &Json, workload: &str, metric: &str) -> Option<f64> {
    results
        .get("results")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?
        .get("value")?
        .num()
}

fn fail_ratio(runs: &[Json], workload: &str) -> f64 {
    let (mut attempted, mut failed) = (0.0, 0.0);
    for run in runs {
        if let Some(w) = run.get("results").and_then(|r| r.get(workload)) {
            attempted += w.get("attempted").and_then(Json::num).unwrap_or(0.0);
            failed += w.get("failed").and_then(Json::num).unwrap_or(0.0);
        }
    }
    if attempted > 0.0 {
        failed / attempted
    } else {
        0.0
    }
}

/// Runs the comparison; `Ok(true)` when nothing regressed.
pub fn compare(
    parents: &[PathBuf],
    changes: &[PathBuf],
    benchmark: &PathBuf,
) -> Result<bool, String> {
    if parents.is_empty() || parents.len() != changes.len() {
        return Err(format!(
            "need the same number (≥ 1) of parent and change results, got {} and {}",
            parents.len(),
            changes.len()
        ));
    }
    let bounds = bounds(&load(benchmark)?)?;
    let loaded = |paths: &[PathBuf]| {
        paths
            .iter()
            .map(|p| Ok((p.clone(), load(p)?)))
            .collect::<Result<Vec<_>, String>>()
    };
    let (parents, changes) = (loaded(parents)?, loaded(changes)?);
    check_comparable(&parents, &changes)?;
    let parent_runs: Vec<Json> = parents.into_iter().map(|(_, j)| j).collect();
    let change_runs: Vec<Json> = changes.into_iter().map(|(_, j)| j).collect();
    let workloads: Vec<String> = parent_runs[0]
        .get("results")
        .and_then(Json::obj)
        .map(|m| m.keys().cloned().collect())
        .unwrap_or_default();

    println!(
        "{:<10} {:<15} {:>30} {:>30} {:>8} {:>6} {:>6}  verdict",
        "workload",
        "metric",
        "parent median [q1, q3]",
        "change median [q1, q3]",
        "delta",
        "wins",
        "bound"
    );
    let mut clean = true;
    for workload in &workloads {
        for b in &bounds {
            let pairs: Vec<(f64, f64)> = parent_runs
                .iter()
                .zip(&change_runs)
                .filter_map(|(p, c)| {
                    Some((value(p, workload, &b.name)?, value(c, workload, &b.name)?))
                })
                .collect();
            if pairs.is_empty() {
                continue;
            }
            let p: Vec<f64> = pairs.iter().map(|x| x.0).collect();
            let c: Vec<f64> = pairs.iter().map(|x| x.1).collect();
            let (pq1, pmed, pq3) = quartiles(&p);
            let (cq1, cmed, cq3) = quartiles(&c);
            let better = |x: f64, y: f64| if b.lower_is_better { x < y } else { x > y };
            let wins = pairs.iter().filter(|(p, c)| better(*c, *p)).count();
            let win_frac = wins as f64 / pairs.len() as f64;
            let worse_by = if b.lower_is_better {
                (cmed - pmed) / pmed
            } else {
                (pmed - cmed) / pmed
            };
            let spread = (pq3 - pq1) / pmed;
            let all_better = c.iter().all(|cv| p.iter().all(|pv| better(*cv, *pv)));
            let gain = win_frac >= 0.9 && better(cmed, pmed) && (cmed - pmed).abs() > pq3 - pq1;
            let verdict = if gain && pairs.len() >= MIN_PAIRS_FOR_GAIN {
                "improved"
            } else if worse_by > b.bound {
                clean = false;
                "regressed"
            } else if gain || (spread > b.bound && !all_better) {
                "unresolved"
            } else {
                "unchanged"
            };
            println!(
                "{:<10} {:<15} {:>30} {:>30} {:>+7.2}% {:>6.2} {:>6.2}  {verdict}",
                workload,
                b.name,
                format!("{pmed:.4} [{pq1:.4}, {pq3:.4}]"),
                format!("{cmed:.4} [{cq1:.4}, {cq3:.4}]"),
                (cmed - pmed) / pmed * 100.0,
                win_frac,
                b.bound
            );
        }
        let (pf, cf) = (
            fail_ratio(&parent_runs, workload),
            fail_ratio(&change_runs, workload),
        );
        if cf > pf {
            clean = false;
            println!("{workload:<10} fail_ratio rose from {pf:.6} to {cf:.6}  regressed");
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn results(seed: u64, seconds: u64, trace: bool) -> (PathBuf, Json) {
        let text = format!(
            "{{\"meta\":{{\"nproc\":2,\"aes_backend\":\"aesni\",\"store_fs\":\"ext4\",\
             \"store_device\":\"/dev/vda\",\"kernel\":\"6.1\",\"commit\":\"c{seed}\",\
             \"seed\":{seed},\"seconds\":{seconds},\"trace\":{trace},\"smoke\":false,\
             \"setups\":5,\"rounds\":10,\"open_share\":0.7,\"workloads\":{{\"typing\":{{\"rate_ops_s\":100}}}}}},\
             \"results\":{{}}}}"
        );
        (
            PathBuf::from(format!("s{seed}.json")),
            report::parse(&text).unwrap(),
        )
    }

    #[test]
    fn refuses_results_measured_differently() {
        let parents = [results(1, 25, false), results(2, 25, false)];
        assert!(
            check_comparable(&parents, &[results(1, 25, false), results(2, 25, false)]).is_ok()
        );

        let longer = check_comparable(&parents, &[results(1, 25, false), results(2, 30, false)]);
        assert!(longer.unwrap_err().contains("seconds"));
        let traced = check_comparable(&parents, &[results(1, 25, true), results(2, 25, false)]);
        assert!(traced.unwrap_err().contains("trace"));
        let swapped = check_comparable(&parents, &[results(2, 25, false), results(1, 25, false)]);
        assert!(swapped.unwrap_err().contains("seed"));

        let (path, mut other_rate) = results(2, 25, false);
        let text = other_rate
            .render()
            .replace("\"rate_ops_s\":100", "\"rate_ops_s\":90");
        other_rate = report::parse(&text).unwrap();
        let rates = check_comparable(&parents, &[results(1, 25, false), (path, other_rate)]);
        assert!(rates.unwrap_err().contains("workloads"));
    }
}
