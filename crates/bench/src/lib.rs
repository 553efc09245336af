//! Benchmark harness regenerating every table and figure of §VII.
//!
//! Each experiment has (a) a harness function here returning structured
//! results so integration tests can assert the paper's *shape* claims,
//! and (b) a binary under `src/bin/` printing the same rows the paper
//! reports. DESIGN.md maps every paper table/figure to its regenerator;
//! EXPERIMENTS.md records paper-vs-measured values.
//!
//! | Paper artifact | Harness | Binary |
//! |---|---|---|
//! | Fig. 4 (micro, RPC) | [`micro::fig4`] | `fig4_micro` |
//! | Fig. 5 (macro table) | [`macrobench::run_macro`] | `fig5_macro` |
//! | Fig. 6 (block-size sweep) | [`micro::fig6`] | `fig6_blocksize` |
//! | Fig. 7 (blowup table) | [`blowup::fig7`] | `fig7_blowup` |
//! | Fig. 8 (macro, 8-char rECB) | [`macrobench::run_macro`] | `fig8_macro_multichar` |
//! | §VII-A functionality matrix | [`matrix::functionality_matrix`] | `functionality_matrix` |
//! | §V-A/VI ablations | [`ablation`] | `ablation_baselines` |
//! | §V-A integrity design space | [`integrity`] | `ablation_integrity` |
//! | "typical use" keystroke throughput | — | `typing_throughput` |
//! | Crypto throughput per backend | [`crypto_bench::crypto_throughput`] | `crypto_throughput` |
//! | Network load scaling | [`netload::net_load`] | `net_load` |
//! | Live collaboration fan-out | [`collab::collab_load`] | `collab_load` |
//! | Durable store append + replay | [`storebench`] | `store_recovery` |
//! | Tenant key wrap / grant / recovery | [`tenantbench`] | `tenant_bench` |
//!
//! Timing note: run the binaries with `--release`; the from-scratch AES
//! is 30–50× slower unoptimized.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod blowup;
pub mod collab;
pub mod crypto_bench;
pub mod integrity;
pub mod macrobench;
pub mod matrix;
pub mod micro;
pub mod netload;
pub mod report;
pub mod storebench;
pub mod tenantbench;
pub mod timing;

/// Serializes the unit tests that drive sockets or durable stores: the
/// harnesses reset and read the process-global metrics registry, which
/// a concurrently running test would perturb.
#[cfg(test)]
pub(crate) fn metrics_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}
