//! # qcf-bench — evaluation corpus and experiment harness
//!
//! Regenerates every table/figure of the paper's evaluation (DESIGN.md §4,
//! experiments E1–E11) from scratch: the `experiments` binary prints each
//! table and saves a JSON record under `results/`. The `qcfz` binary is the
//! command-line front end (file compression, demos, run reports).

pub mod cli;
pub mod corpus;
pub mod experiments;
pub mod report;
pub mod run_report;
pub mod slo_cmd;
pub mod top;

/// Serializes tests that drive the process-global telemetry substrate
/// (registry values, sampler ring, journal) — concurrent tests would
/// reset each other's state mid-run.
#[cfg(test)]
pub(crate) fn telemetry_test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}
