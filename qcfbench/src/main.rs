//! `qcfbench` — the repository's end-to-end benchmark.
//!
//! ```text
//! cargo run --release --manifest-path qcfbench/Cargo.toml -- \
//!     --workload <tn-p2-large|tn-p1-tiny|sv-warm|sv-spill-ckpt|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! metrics of a separate traced run. Every line before the last is for
//! people; the last line is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. The workloads and the layer map are described in
//! `workloads.rs`.

mod host;
mod timed;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;
use workloads::{RunResult, Workload};

/// End-to-end metrics (`--trace 0`), with units:
///
/// - `energy_cpu_s`: median over passes of the process CPU time, all
///   threads, from the first contraction or gate to the final energy. The
///   wall-clock `time_to_energy_s` is printed as information: on a shared
///   VM, time given to other guests moves it by tens of percent.
/// - `setup_s`: median CPU time of building the circuit and compressor
///   (and, SV, `CompressedState::zero` with its initial encodes).
/// - `result_rel_err`: relative L2 error of what the workload stores
///   compressed. TN: every compressed intermediate against the hook's
///   input. SV: the final state as stored against the dense simulation.
///   The energy error is printed as information and bounded by the checks.
/// - `compression_ratio`: TN `CompressionStats::ratio()`; SV dense bytes
///   over compressed bytes in RAM plus on disk after `flush`.
/// - `peak_rss_mib`: peak resident set over the first three timed passes
///   (TN: and the warm-up pass before them).
const END_TO_END: &[(&str, &str)] = &[
    ("energy_cpu_s", "s"),
    ("setup_s", "s"),
    ("result_rel_err", "fraction"),
    ("compression_ratio", "x"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics (`--trace 1`), with units. A layer a workload does not
/// exercise reads 0 (e.g. `contract.*` on the state workloads).
const PER_LAYER: &[(&str, &str)] = &[
    ("contract.terms", "count"),
    ("contract.self_s", "s"),
    ("contract.term_ms_p50", "ms"),
    ("contract.term_ms_p90", "ms"),
    ("contract.peak_live_mib", "MiB"),
    ("hook.compressed", "count"),
    ("hook.skipped", "count"),
    ("hook.self_s", "s"),
    ("codec.encode_calls", "count"),
    ("codec.decode_calls", "count"),
    ("codec.encode_s", "s"),
    ("codec.decode_s", "s"),
    ("codec.bytes_in", "B"),
    ("codec.bytes_out", "B"),
    ("codec.encode_mbps", "MB/s"),
    ("codec.decode_mbps", "MB/s"),
    ("codec.errors", "count"),
    ("codec.shrunk_frac", "fraction"),
    ("codec.encode_s.lt4k", "s"),
    ("codec.encode_s.4k-1m", "s"),
    ("codec.encode_s.ge1m", "s"),
    ("codec.decode_main_s", "s"),
    ("codec.decode_bg_s", "s"),
    ("gpu.sim_s", "s"),
    ("state.gates", "count"),
    ("state.apply_s", "s"),
    ("state.gate_ms_p50", "ms"),
    ("state.gate_ms_p90", "ms"),
    ("state.energy_s", "s"),
    ("state.zero_s", "s"),
    ("state.flush_s", "s"),
    ("state.encodes", "count"),
    ("state.decodes", "count"),
    ("state.writebacks", "count"),
    ("state.cache_hit_ratio", "fraction"),
    ("state.peak_resident_mib", "MiB"),
    ("spill.writes", "count"),
    ("spill.reads", "count"),
    ("spill.prefetch_hit_ratio", "fraction"),
    ("spill.stall_s", "s"),
    ("spill.compactions", "count"),
    ("spill.bytes", "B"),
    ("ckpt.commit_s", "s"),
    ("ckpt.bytes", "B"),
    ("ckpt.resume_s", "s"),
    ("ledger.requants", "count"),
    ("ledger.accumulated_estimate", "abs_err"),
    ("ledger.energy_rel_err", "fraction"),
    ("telemetry.cost_frac", "fraction"),
    ("trace.unattributed_frac", "fraction"),
    ("trace.overhead_frac", "fraction"),
];

/// Settings that change what the program does; a run refuses them so that
/// every result measures the defaults.
const REFUSED_ENV: &[&str] = &[
    "QCF_FAULTS",
    "QCF_MEM_BUDGET",
    "QCF_CHUNK_CACHE",
    "QCF_SLO",
    "QCF_TELEMETRY_SAMPLE",
    "QCF_JOURNAL",
    "QCF_LEDGER_MEASURE",
    "QCF_WORKERS",
    "QCF_SPILL_LATENCY_US",
    "QCF_TELEMETRY",
    "QCF_FLIGHT_RECORD",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = num(&value)?,
            "--seconds" => args.seconds = num(&value)?.max(1),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// A per-run directory for spill logs and snapshots, removed on drop.
struct RunDir(PathBuf);

impl RunDir {
    /// Creates `.bench_tmp/run-<pid>` under the working directory and points
    /// the process temp dir (where spill logs go) at it.
    fn create() -> std::io::Result<Self> {
        let dir = std::env::current_dir()?
            .join(".bench_tmp")
            .join(format!("run-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        // Still single-threaded here: nothing reads the environment yet.
        std::env::set_var("TMPDIR", &dir);
        Ok(RunDir(dir))
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Only succeeds once no other run is using it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Formats `v` with every digit it has (JSON has no NaN or infinity).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

/// Prints the human-readable lines of one workload; returns its metrics as
/// `(name, value, unit)` in table order. Values outside `table` are printed
/// for information only.
fn report(
    name: &str,
    table: &[(&'static str, &'static str)],
    res: &RunResult,
) -> Vec<(&'static str, f64, &'static str)> {
    let c = &res.checks;
    let failed_frac = c.failed as f64 / c.attempted.max(1) as f64;
    println!(
        "{name}: attempted {} failed {} failed_frac {failed_frac} fraction",
        c.attempted, c.failed
    );
    if let Some(why) = &c.first_failure {
        println!("{name}: first failure: {why}");
    }
    let metrics = table
        .iter()
        .map(|&(metric, unit)| {
            let v = res.values.get(metric).copied().unwrap_or(0.0);
            println!("{name}: {metric:<28} {:>24} {unit}", num(v));
            (metric, v, unit)
        })
        .collect();
    for (k, v) in &res.values {
        if !table.iter().any(|(n, _)| n == k) {
            println!("{name}: {k:<28} {:>24} (info)", num(*v));
        }
    }
    metrics
}

fn json(correct: bool, attempted: u64, failed: u64, metrics: &[(String, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(*v)))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("qcfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let set: Vec<&str> = REFUSED_ENV
        .iter()
        .copied()
        .filter(|k| std::env::var_os(k).is_some())
        .collect();
    if !set.is_empty() {
        eprintln!("qcfbench: refusing to run with {} set", set.join(", "));
        return ExitCode::from(2);
    }
    let all = workloads::workloads();
    let chosen: Vec<&Workload> = if args.workload == "all" {
        all.iter().collect()
    } else {
        match all.iter().find(|w| w.name == args.workload) {
            Some(w) => vec![w],
            None => {
                eprintln!("qcfbench: unknown workload {}", args.workload);
                return ExitCode::from(2);
            }
        }
    };
    let run_dir = match RunDir::create() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("qcfbench: cannot create the run directory: {e}");
            return ExitCode::from(2);
        }
    };
    println!("{}", host::facts());

    let table = if args.trace { PER_LAYER } else { END_TO_END };
    let (mut attempted, mut failed) = (0, 0);
    let mut metrics = Vec::new();
    for w in &chosen {
        let budget = Duration::from_secs(args.seconds);
        let res = workloads::run(w, args.seed, budget, args.trace, &run_dir.0);
        attempted += res.checks.attempted;
        failed += res.checks.failed;
        for (m, v, u) in report(w.name, table, &res) {
            // A single workload keeps the bare names the driver expects.
            let key = if chosen.len() == 1 {
                m.to_string()
            } else {
                format!("{}/{m}", w.name)
            };
            metrics.push((key, v, u));
        }
    }
    drop(run_dir);
    println!(
        "{}",
        json(failed == 0 && attempted > 0, attempted, failed, &metrics)
    );
    ExitCode::SUCCESS
}
