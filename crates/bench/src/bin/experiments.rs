//! Experiment harness CLI.
//!
//! ```text
//! experiments [e1|e2|...|e11|all] [--quick] [--out DIR]
//!             [--trace FILE] [--metrics FILE] [--phases]
//! ```
//!
//! Prints each regenerated table and writes JSON records (default
//! `results/`). `--trace` writes a Chrome-trace JSON of all spans recorded
//! across the run, `--metrics` dumps the telemetry registry as Prometheus
//! text exposition, and `--phases` prints the per-phase time
//! breakdown table after the experiments finish.

use qcf_bench::experiments::run_by_id;
use qcf_bench::{cli, report};
use std::path::Path;

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let phases = args.iter().any(|a| a == "--phases");
    let trace_path = flag(&args, "--trace").map(str::to_string);
    let metrics_path = flag(&args, "--metrics").map(str::to_string);
    if trace_path.is_some() || metrics_path.is_some() || phases {
        // Explicit telemetry request overrides QCF_TELEMETRY=0.
        qcf_telemetry::set_enabled(true);
    }
    let out_dir = flag(&args, "--out").unwrap_or("results").to_string();
    // Positional ids: anything that is neither a flag nor a flag's value.
    let value_positions: Vec<usize> = ["--out", "--trace", "--metrics"]
        .iter()
        .filter_map(|f| args.iter().position(|a| a == f).map(|i| i + 1))
        .collect();
    let ids: Vec<String> = args
        .iter()
        .enumerate()
        .filter(|(i, a)| !a.starts_with("--") && !value_positions.contains(i))
        .map(|(_, a)| a.clone())
        .collect();
    let ids = if ids.is_empty() {
        vec!["all".to_string()]
    } else {
        ids
    };

    for id in &ids {
        let started = std::time::Instant::now();
        match run_by_id(id, quick) {
            Some(tables) => {
                for (k, table) in tables.iter().enumerate() {
                    table.print();
                    // Tables carry unique experiment ids; suffix only when
                    // one experiment emits several tables under one id.
                    let dup = tables.iter().filter(|t| t.id == table.id).count() > 1;
                    let suffix = if dup { Some(k) } else { None };
                    if let Err(e) = table.save_json(std::path::Path::new(&out_dir), suffix) {
                        eprintln!("warning: could not save {}: {e}", table.id);
                    }
                }
                eprintln!("[{id} done in {:.1}s]", started.elapsed().as_secs_f64());
            }
            None => {
                eprintln!("unknown experiment '{id}' (expected e1..e11 or all)");
                std::process::exit(2);
            }
        }
    }

    if phases {
        report::phase_table(&qcf_telemetry::span::snapshot()).print();
        report::metrics_table().print();
    }
    if let Some(path) = &trace_path {
        // Experiments run everything host-side; only span lanes here.
        match cli::write_trace(Path::new(path), &[]) {
            Ok(()) => eprintln!("trace written to {path}"),
            Err(e) => eprintln!("warning: could not write trace: {e}"),
        }
    }
    if let Some(path) = &metrics_path {
        match cli::write_metrics(Path::new(path)) {
            Ok(_) => eprintln!("metrics written to {path}"),
            Err(e) => eprintln!("warning: could not write metrics: {e}"),
        }
    }
}
