//! The four QAOA workloads and their untraced and traced runs.
//!
//! Every workload computes MaxCut energies of 3-regular graphs, either
//! through the tensor-network simulator with a [`CompressingHook`] (TN) or
//! through a chunked [`CompressedState`] (SV). What the run seed draws is
//! set per workload ([`Draw`]): random graphs at the fixed angles, or the
//! angles within ±1 % of the fixed angles on a fixed graph. `tn-p2-large`
//! needs the latter: the greedy elimination order depends on vertex
//! labels, so on random n=38 graphs one p=2 energy took from 1.3 s to 76 s
//! and up to 5 GB, and even isomorphic lightcones ranged over 64x in
//! largest-tensor size.
//!
//! Exact references are untimed: a `NoopHook` contraction of the same
//! circuit for energies, the dense `StateVector` for amplitudes, and for
//! the checkpointed workload the same circuit run in RAM.
//!
//! Layer → end-to-end metric → workload that should move it:
//!
//! | layer (crate)        | per-layer metrics     | moves                                                   |
//! |----------------------|-----------------------|---------------------------------------------------------|
//! | `qtensor.contract`   | `contract.*`          | `energy_cpu_s`: tn-p2-large, tn-p1-tiny                 |
//! | `qtensor.hook`       | `hook.*`              | `energy_cpu_s`: tn-p1-tiny                              |
//! | `core`+`compressors` | `codec.*`             | `energy_cpu_s`: tn-p2-large, sv-spill-ckpt; `compression_ratio`, `result_rel_err`: all; not sv-warm's time |
//! | `gpu` (model)        | `gpu.sim_s`           | nothing measured: a roofline model, shown beside `codec.encode_s` |
//! | `qtensor.state`      | `state.*`             | `energy_cpu_s`: sv-warm; `state.zero_s` → `setup_s`     |
//! | `qtensor.spill`      | `spill.*`             | `energy_cpu_s`: sv-spill-ckpt only                      |
//! | `qtensor.checkpoint` | `ckpt.*`              | `energy_cpu_s`: sv-spill-ckpt only                      |
//! | `qtensor.ledger`     | `ledger.*`            | explains `result_rel_err`                               |
//! | `telemetry`          | `telemetry.cost_frac` | `energy_cpu_s`: mostly sv-warm                          |

use crate::host;
use crate::timed::{Tallies, Tally, TimedCompressor, TimedHook};
use compressors::{Compressor, ErrorBound};
use qcf_core::QcfCompressor;
use qcircuit::{qaoa_circuit, Circuit, Graph, QaoaParams};
use qtensor::compressed::CompressingHook;
use qtensor::{
    CompressedState, ContractError, ContractionHook, Simulator, StateStats, StateVector,
};
use std::collections::BTreeMap;
use std::fmt::Display;
use std::ops::Range;
use std::path::Path;
use std::time::{Duration, Instant};
use tensornet::Tensor;

/// What the run seed draws; the rest of a workload's input is fixed.
#[derive(Debug, Clone)]
pub enum Draw {
    /// This many random 3-regular graphs, with the fixed angles.
    Graphs(u64),
    /// The angles, each within ±1 % of the fixed angle, on the fixed
    /// graphs `Graph::random_regular(n, 3, s)` for `s` in the range.
    Angles(Range<u64>),
}

impl Draw {
    /// The run's graphs and angles for `n` vertices and depth `p`.
    fn inputs(&self, n: usize, p: usize, seed: u64) -> (Vec<Graph>, QaoaParams) {
        let fixed = match p {
            1 => QaoaParams::fixed_angles_3reg_p1(),
            2 => QaoaParams::fixed_angles_3reg_p2(),
            _ => panic!("fixed angles exist for p=1 and p=2 only"),
        };
        match self {
            Draw::Graphs(count) => {
                let graphs = (0..*count)
                    .map(|i| Graph::random_regular(n, 3, mix(seed, i)))
                    .collect();
                (graphs, fixed)
            }
            Draw::Angles(seeds) => {
                let graphs = seeds
                    .clone()
                    .map(|s| Graph::random_regular(n, 3, s))
                    .collect();
                let mut k = 0;
                let mut jitter = |v: &f64| {
                    k += 1;
                    v * (0.99 + 0.02 * unit(mix(seed, k)))
                };
                let gammas = fixed.gammas.iter().map(&mut jitter).collect();
                let betas = fixed.betas.iter().map(&mut jitter).collect();
                (graphs, QaoaParams::new(gammas, betas))
            }
        }
    }
}

/// Tensor-network energy through `Simulator::energy_with_hook`; the timed
/// figure is the whole batch of graphs.
#[derive(Debug, Clone)]
pub struct TnSpec {
    pub n: usize,
    pub p: usize,
    pub min_elems: usize,
    pub draw: Draw,
}

/// Chunked compressed-state run of the p=1 circuit on one graph.
#[derive(Debug, Clone)]
pub struct SvSpec {
    pub n: usize,
    pub draw: Draw,
    pub chunk_qubits: usize,
    /// Compressed-RAM budget; `Some` arms the disk tier and prefetch.
    pub mem_budget: Option<usize>,
    /// Checkpoint after half the gates, drop the state and resume it.
    pub checkpoint: bool,
}

#[derive(Debug, Clone)]
pub enum Shape {
    Tn(TnSpec),
    Sv(SvSpec),
}

#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub shape: Shape,
}

pub fn workloads() -> [Workload; 4] {
    [
        Workload {
            name: "tn-p2-large",
            shape: Shape::Tn(TnSpec {
                n: 38,
                p: 2,
                min_elems: 64,
                draw: Draw::Angles(2..3),
            }),
        },
        Workload {
            name: "tn-p1-tiny",
            shape: Shape::Tn(TnSpec {
                n: 60,
                p: 1,
                min_elems: 4,
                draw: Draw::Graphs(4),
            }),
        },
        Workload {
            name: "sv-warm",
            shape: Shape::Sv(SvSpec {
                n: 22,
                draw: Draw::Angles(0..1),
                chunk_qubits: 19,
                mem_budget: None,
                checkpoint: false,
            }),
        },
        Workload {
            name: "sv-spill-ckpt",
            shape: Shape::Sv(SvSpec {
                n: 18,
                draw: Draw::Angles(0..1),
                chunk_qubits: 10,
                mem_budget: Some(64 << 10),
                checkpoint: true,
            }),
        },
    ]
}

/// The TN setting of experiment E9 and `qcfz qaoa`.
const TN_BOUND: ErrorBound = ErrorBound::Abs(1e-4);
const SV_BOUND: ErrorBound = ErrorBound::Rel(1e-3);
/// The low end of the paper's 1–5 % energy-accuracy claim.
const MAX_REL_ERR: f64 = 0.01;
/// TN set-up takes well under a millisecond, so it is sampled this often
/// before every timed pass.
const TN_SETUP_SAMPLES: usize = 8;
/// Timed passes per run at least, so that the median has company.
const MIN_PASSES: usize = 3;

/// Counts operations and correctness checks; every `Err` and every failed
/// check is one failure.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.first_failure.get_or_insert_with(what);
        }
        ok
    }

    pub fn op<T, E: Display>(&mut self, what: &str, res: Result<T, E>) -> Option<T> {
        match res {
            Ok(v) => {
                self.check(true, String::new);
                Some(v)
            }
            Err(e) => {
                self.check(false, || format!("{what}: {e}"));
                None
            }
        }
    }
}

/// Measured values by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// What one workload run measured.
pub struct RunResult {
    pub checks: Checks,
    pub values: Values,
}

/// Stream `k` of `seed`, scrambled (splitmix64).
fn mix(seed: u64, k: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(k.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform draw from `[0, 1)`.
fn unit(bits: u64) -> f64 {
    (bits >> 11) as f64 / (1u64 << 53) as f64
}

fn rel_err(e: f64, exact: f64) -> f64 {
    (e - exact).abs() / exact.abs()
}

/// `‖got − want‖₂ / ‖want‖₂` over paired values.
fn rel_l2(pairs: impl Iterator<Item = (f64, f64)>) -> f64 {
    let (mut err, mut norm) = (0.0, 0.0);
    for (got, want) in pairs {
        err += (got - want) * (got - want);
        norm += want * want;
    }
    (err / norm).sqrt()
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len().max(1) as f64
}

fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Nearest-rank quantile (`0.0` for no samples).
fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// The passes of a run.
struct Passes<T> {
    items: Vec<T>,
    /// Peak resident set from the caller's last `host::reset_peak_rss` to
    /// the end of pass [`MIN_PASSES`]. The resident set grows over the
    /// first passes, as worker threads come and go, so a fixed pass count
    /// and not the host's speed sets what this covers.
    peak_rss_mib: f64,
}

/// Runs passes until `budget` is spent and at least [`MIN_PASSES`] ran,
/// or one fails. Each starts from cleared program
/// telemetry, as a fresh process would.
fn repeat<T>(budget: Duration, mut pass: impl FnMut() -> Option<T>) -> Passes<T> {
    let start = Instant::now();
    let mut out = Passes {
        items: Vec::new(),
        peak_rss_mib: 0.0,
    };
    while out.items.len() < MIN_PASSES || start.elapsed() < budget {
        qcf_telemetry::reset();
        let Some(v) = pass() else {
            break;
        };
        out.items.push(v);
        if out.items.len() == MIN_PASSES {
            out.peak_rss_mib = host::peak_rss_mib();
        }
    }
    out
}

/// The time figures of a run: CPU seconds are gated, wall seconds are
/// information (see `host::cpu_seconds`).
fn insert_times(values: &mut Values, cpu: &[f64], wall: &[f64], setup: &[f64]) {
    values.insert("energy_cpu_s", median(cpu));
    values.insert("setup_s", median(setup));
    values.insert("time_to_energy_s", median(wall));
    values.insert("passes", cpu.len() as f64);
}

/// Runs `pass` once with the program's telemetry switched off.
fn telemetry_off<T>(pass: impl FnOnce() -> T) -> T {
    qcf_telemetry::reset();
    qcf_telemetry::set_enabled(false);
    let out = pass();
    qcf_telemetry::set_enabled(true);
    out
}

fn secs(ns: u64) -> f64 {
    ns as f64 * 1e-9
}

fn elapsed_ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

fn ms(ns: &[u64]) -> Vec<f64> {
    ns.iter().map(|&n| n as f64 * 1e-6).collect()
}

const MIB: f64 = (1u64 << 20) as f64;

/// Runs workload `w` for about `budget`, untraced (end-to-end metrics) or
/// traced (per-layer metrics).
pub fn run(w: &Workload, seed: u64, budget: Duration, traced: bool, tmp: &Path) -> RunResult {
    let mut checks = Checks::default();
    let values = match (&w.shape, traced) {
        (Shape::Tn(spec), false) => tn_untraced(spec, seed, budget, &mut checks),
        (Shape::Tn(spec), true) => tn_traced(spec, seed, budget, &mut checks),
        (Shape::Sv(spec), false) => sv_untraced(spec, seed, budget, tmp, &mut checks),
        (Shape::Sv(spec), true) => sv_traced(spec, seed, budget, tmp, &mut checks),
    };
    RunResult { checks, values }
}

// ---------------------------------------------------------------------------
// Tensor network
// ---------------------------------------------------------------------------

struct TnInputs {
    graphs: Vec<Graph>,
    params: QaoaParams,
    /// Circuit of each graph (the traced pass contracts these; the untraced
    /// pass lets `energy_with_hook` build its own).
    circuits: Vec<Circuit>,
    compressor: QcfCompressor,
}

fn tn_inputs(spec: &TnSpec, seed: u64) -> TnInputs {
    let (graphs, params) = spec.draw.inputs(spec.n, spec.p, seed);
    let (circuits, compressor) = tn_setup(&graphs, &params);
    TnInputs {
        graphs,
        params,
        circuits,
        compressor,
    }
}

/// The program's set-up for the given input: one circuit per graph and
/// the compressor.
fn tn_setup(graphs: &[Graph], params: &QaoaParams) -> (Vec<Circuit>, QcfCompressor) {
    let circuits = graphs.iter().map(|g| qaoa_circuit(g, params)).collect();
    (circuits, QcfCompressor::ratio())
}

/// A hook that measures what a [`CompressingHook`] does to the tensors it
/// compresses: the sums of `|reconstructed − input|²` and `|input|²`.
struct ErrorHook<'a> {
    hook: CompressingHook<'a>,
    err_sq: f64,
    norm_sq: f64,
}

impl ContractionHook for ErrorHook<'_> {
    fn on_intermediate(&mut self, tensor: Tensor) -> Result<Tensor, ContractError> {
        let input = tensor.data().to_vec();
        let compressed = self.hook.stats.tensors_compressed;
        let out = self.hook.on_intermediate(tensor)?;
        if self.hook.stats.tensors_compressed > compressed {
            for (&x, &y) in input.iter().zip(out.data()) {
                self.err_sq += (y - x).norm_sq();
                self.norm_sq += x.norm_sq();
            }
        }
        Ok(out)
    }
}

/// One pass over the batch.
#[derive(Debug, Default)]
struct TnPass {
    wall_s: f64,
    cpu_s: f64,
    energies: Vec<f64>,
    /// `⟨Z_a Z_b⟩` of every edge of every graph, in order.
    zz: Vec<f64>,
    raw_bytes: u64,
    compressed_bytes: u64,
}

/// What the traced passes saw, summed over passes.
#[derive(Debug, Default)]
struct TnLayers {
    passes: usize,
    term_ns: Vec<u64>,
    hook_ns: u64,
    hook_compressed: u64,
    hook_skipped: u64,
    peak_live_bytes: usize,
    gpu_sim_s: f64,
    lossy_events: u64,
    accumulated_bound: f64,
}

/// The untimed exact pass (`NoopHook`).
fn tn_exact(inp: &TnInputs, checks: &mut Checks) -> Option<TnPass> {
    let sim = Simulator::default();
    let mut pass = TnPass::default();
    for g in &inp.graphs {
        let report = checks.op("exact energy", sim.energy(g, &inp.params))?;
        pass.energies.push(report.energy);
        pass.zz.extend(report.zz_terms);
    }
    Some(pass)
}

fn tn_pass(spec: &TnSpec, inp: &TnInputs, checks: &mut Checks) -> Option<TnPass> {
    let sim = Simulator::default();
    let mut pass = TnPass::default();
    for g in &inp.graphs {
        let mut hook = CompressingHook::new(&inp.compressor, TN_BOUND, spec.min_elems);
        let c0 = host::cpu_seconds();
        let t0 = Instant::now();
        let res = sim.energy_with_hook(g, &inp.params, &mut hook);
        pass.wall_s += t0.elapsed().as_secs_f64();
        pass.cpu_s += host::cpu_seconds() - c0;
        let report = checks.op("energy_with_hook", res)?;
        pass.energies.push(report.energy);
        pass.zz.extend(report.zz_terms);
        pass.raw_bytes += hook.stats.uncompressed_bytes;
        pass.compressed_bytes += hook.stats.compressed_bytes;
    }
    Some(pass)
}

/// An untimed [`tn_pass`] through [`ErrorHook`]s: the pass, and the
/// relative L2 error of every compressed intermediate against its input.
fn tn_fidelity(spec: &TnSpec, inp: &TnInputs, checks: &mut Checks) -> Option<(TnPass, f64)> {
    let sim = Simulator::default();
    let mut pass = TnPass::default();
    let (mut err_sq, mut norm_sq) = (0.0, 0.0);
    for g in &inp.graphs {
        let mut hook = ErrorHook {
            hook: CompressingHook::new(&inp.compressor, TN_BOUND, spec.min_elems),
            err_sq: 0.0,
            norm_sq: 0.0,
        };
        let res = sim.energy_with_hook(g, &inp.params, &mut hook);
        let report = checks.op("energy_with_hook", res)?;
        pass.energies.push(report.energy);
        pass.zz.extend(report.zz_terms);
        pass.raw_bytes += hook.hook.stats.uncompressed_bytes;
        pass.compressed_bytes += hook.hook.stats.compressed_bytes;
        err_sq += hook.err_sq;
        norm_sq += hook.norm_sq;
    }
    Some((pass, (err_sq / norm_sq).sqrt()))
}

/// [`tn_pass`] with every edge term and hook call timed. It repeats
/// `Simulator::energy_with_hook`'s loop (same circuit, same edge order,
/// same sum), so its results must equal the untraced ones bit for bit.
fn tn_pass_traced(
    spec: &TnSpec,
    inp: &TnInputs,
    comp: &dyn Compressor,
    layers: &mut TnLayers,
    checks: &mut Checks,
) -> Option<TnPass> {
    let sim = Simulator::default();
    let mut pass = TnPass::default();
    for (g, circuit) in inp.graphs.iter().zip(&inp.circuits) {
        let mut hook = TimedHook::new(CompressingHook::new(comp, TN_BOUND, spec.min_elems));
        let c0 = host::cpu_seconds();
        let t0 = Instant::now();
        let mut energy = 0.0;
        for &(a, b) in g.edges() {
            let t = Instant::now();
            let res = sim.zz_expectation(circuit, a, b, &mut hook);
            layers.term_ns.push(elapsed_ns(t));
            let (zz, stats) = checks.op("zz_expectation", res)?;
            energy += 0.5 * (1.0 - zz);
            pass.zz.push(zz);
            layers.peak_live_bytes = layers.peak_live_bytes.max(stats.peak_live_bytes);
        }
        pass.wall_s += t0.elapsed().as_secs_f64();
        pass.cpu_s += host::cpu_seconds() - c0;
        pass.energies.push(energy);
        let st = &hook.hook.stats;
        pass.raw_bytes += st.uncompressed_bytes;
        pass.compressed_bytes += st.compressed_bytes;
        layers.hook_ns += hook.ns;
        layers.hook_compressed += st.tensors_compressed as u64;
        layers.hook_skipped += st.tensors_skipped as u64;
        layers.lossy_events += st.lossy_events;
        layers.accumulated_bound += st.accumulated_bound;
        layers.gpu_sim_s += hook.hook.stream().elapsed_s();
    }
    layers.passes += 1;
    Some(pass)
}

/// The relative energy error of each graph of a pass, each checked
/// against the accuracy bound.
fn tn_energy_errs(pass: &TnPass, exact: &TnPass, checks: &mut Checks) -> Vec<f64> {
    let errs: Vec<f64> = pass
        .energies
        .iter()
        .zip(&exact.energies)
        .map(|(&e, &x)| rel_err(e, x))
        .collect();
    for (i, &err) in errs.iter().enumerate() {
        checks.check(err <= MAX_REL_ERR, || {
            format!("graph {i}: energy_rel_err {err:.3e} above {MAX_REL_ERR}")
        });
    }
    errs
}

/// Checks that `pass` reproduced `reference` bit for bit.
fn tn_check_same(what: &str, pass: &TnPass, reference: &TnPass, checks: &mut Checks) {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let same = pass.compressed_bytes == reference.compressed_bytes
        && bits(&pass.energies) == bits(&reference.energies)
        && bits(&pass.zz) == bits(&reference.zz);
    checks.check(same, || {
        format!("{what}: results or compressed bytes differ")
    });
}

fn tn_untraced(spec: &TnSpec, seed: u64, budget: Duration, checks: &mut Checks) -> Values {
    let inp = tn_inputs(spec, seed);
    let mut values = Values::new();
    let Some(exact) = tn_exact(&inp, checks) else {
        return values;
    };
    // The fidelity pass doubles as the warm-up: pools and lazily built
    // tables are in place before timing starts. Its peak counts too, which
    // brings the figure closer to where the resident set settles.
    host::reset_peak_rss();
    let Some((fid, result_err)) = tn_fidelity(spec, &inp, checks) else {
        return values;
    };
    // Set-up samples are spread over the run like the passes.
    let mut setup = Vec::new();
    let passes = repeat(budget, || {
        for _ in 0..TN_SETUP_SAMPLES {
            let c0 = host::cpu_seconds();
            std::hint::black_box(tn_setup(&inp.graphs, &inp.params));
            setup.push(host::cpu_seconds() - c0);
        }
        tn_pass(spec, &inp, checks)
    });
    for p in &passes.items {
        tn_energy_errs(p, &exact, checks);
        tn_check_same("timed pass", p, &fid, checks);
    }
    let cpu: Vec<f64> = passes.items.iter().map(|p| p.cpu_s).collect();
    let wall: Vec<f64> = passes.items.iter().map(|p| p.wall_s).collect();
    insert_times(&mut values, &cpu, &wall, &setup);
    values.insert("result_rel_err", result_err);
    values.insert(
        "compression_ratio",
        fid.raw_bytes as f64 / fid.compressed_bytes.max(1) as f64,
    );
    values.insert("peak_rss_mib", passes.peak_rss_mib);
    values.insert(
        "energy_rel_err",
        mean(&tn_energy_errs(&fid, &exact, checks)),
    );
    values
}

fn tn_traced(spec: &TnSpec, seed: u64, budget: Duration, checks: &mut Checks) -> Values {
    let inp = tn_inputs(spec, seed);
    let mut values = Values::new();
    let Some(exact) = tn_exact(&inp, checks) else {
        return values;
    };
    qcf_telemetry::reset();
    let Some(plain) = tn_pass(spec, &inp, checks) else {
        return values;
    };
    let energy_err = mean(&tn_energy_errs(&plain, &exact, checks));
    let Some(off) = telemetry_off(|| tn_pass(spec, &inp, checks)) else {
        return values;
    };
    tn_check_same("telemetry-off pass", &off, &plain, checks);

    let timed = TimedCompressor::new(&inp.compressor);
    let mut layers = TnLayers::default();
    let traced = repeat(budget, || {
        tn_pass_traced(spec, &inp, &timed, &mut layers, checks)
    })
    .items;
    for p in &traced {
        tn_check_same("traced pass", p, &plain, checks);
    }
    if traced.is_empty() {
        return values;
    }
    let n = layers.passes as f64;
    let codec = timed.snapshot();
    let wall = traced.iter().map(|p| p.wall_s).sum::<f64>() / n;
    let terms = secs(layers.term_ns.iter().sum()) / n;
    let hook = secs(layers.hook_ns) / n;
    let raw_codec = (codec.secs(Tally::EncodeNs) + codec.secs(Tally::DecodeMainNs)) / n;
    let term_ms = ms(&layers.term_ns);
    values.insert("contract.terms", layers.term_ns.len() as f64 / n);
    values.insert("contract.self_s", terms - hook);
    values.insert("contract.term_ms_p50", quantile(&term_ms, 0.5));
    values.insert("contract.term_ms_p90", quantile(&term_ms, 0.9));
    values.insert(
        "contract.peak_live_mib",
        layers.peak_live_bytes as f64 / MIB,
    );
    values.insert("hook.compressed", layers.hook_compressed as f64 / n);
    values.insert("hook.skipped", layers.hook_skipped as f64 / n);
    values.insert("hook.self_s", hook - raw_codec);
    insert_codec(&mut values, &codec, n);
    values.insert("gpu.sim_s", layers.gpu_sim_s / n);
    values.insert("ledger.requants", layers.lossy_events as f64 / n);
    values.insert(
        "ledger.accumulated_estimate",
        layers.accumulated_bound / (n * inp.graphs.len() as f64),
    );
    values.insert("ledger.energy_rel_err", energy_err);
    values.insert(
        "telemetry.cost_frac",
        (plain.cpu_s - off.cpu_s) / plain.cpu_s,
    );
    // Contraction, hook and codec self times add up to the edge-term time;
    // the rest of the wall (the loop around the terms) is unattributed.
    values.insert("trace.unattributed_frac", (wall - terms) / wall);
    let cpu = traced.iter().map(|p| p.cpu_s).sum::<f64>() / n;
    values.insert("trace.overhead_frac", (cpu - plain.cpu_s) / plain.cpu_s);
    values
}

/// Per-layer codec metrics from the wrapper's counters over `n` passes.
fn insert_codec(values: &mut Values, c: &Tallies, n: f64) {
    let per = |t: Tally| c.get(t) as f64 / n;
    let per_s = |t: Tally| c.secs(t) / n;
    let encode_s = per_s(Tally::EncodeNs);
    let decode_s = per_s(Tally::DecodeMainNs) + per_s(Tally::DecodeBgNs);
    let rate = |bytes: f64, s: f64| if s > 0.0 { bytes / s / 1e6 } else { 0.0 };
    let calls = c.get(Tally::EncodeCalls);
    values.insert("codec.encode_calls", per(Tally::EncodeCalls));
    values.insert("codec.decode_calls", per(Tally::DecodeCalls));
    values.insert("codec.encode_s", encode_s);
    values.insert("codec.decode_s", decode_s);
    values.insert("codec.bytes_in", per(Tally::BytesIn));
    values.insert("codec.bytes_out", per(Tally::BytesOut));
    values.insert("codec.encode_mbps", rate(per(Tally::BytesIn), encode_s));
    values.insert(
        "codec.decode_mbps",
        rate(per(Tally::DecodedBytes), decode_s),
    );
    values.insert("codec.errors", per(Tally::Errors));
    values.insert(
        "codec.shrunk_frac",
        c.get(Tally::Shrunk) as f64 / calls.max(1) as f64,
    );
    values.insert("codec.encode_s.lt4k", per_s(Tally::EncodeNsLt4k));
    values.insert("codec.encode_s.4k-1m", per_s(Tally::EncodeNs4kTo1m));
    values.insert("codec.encode_s.ge1m", per_s(Tally::EncodeNsGe1m));
    values.insert("codec.decode_main_s", per_s(Tally::DecodeMainNs));
    values.insert("codec.decode_bg_s", per_s(Tally::DecodeBgNs));
}

// ---------------------------------------------------------------------------
// Compressed state
// ---------------------------------------------------------------------------

/// One set-up + run of the circuit.
#[derive(Debug)]
struct SvPass {
    setup_s: f64,
    wall_s: f64,
    cpu_s: f64,
    energy: f64,
    dense_bytes: usize,
    compressed_bytes: usize,
    /// Relative L2 error of the amplitudes as stored, when asked for.
    state_rel_err: Option<f64>,
}

/// What the traced passes saw, summed over passes.
#[derive(Debug, Default)]
struct SvLayers {
    passes: usize,
    gates: u64,
    apply_ns: u64,
    /// Per-gate times; empty when gates run under the prefetch pipeline,
    /// which only `run_scheduled` drives.
    gate_ns: Vec<u64>,
    energy_ns: u64,
    zero_ns: u64,
    flush_ns: u64,
    commit_ns: u64,
    ckpt_bytes: u64,
    resume_ns: u64,
    /// `StateStats` summed over the pre-checkpoint and resumed states.
    stats: StateStats,
    requants: u64,
    accumulated_rss: f64,
    codec: Tallies,
}

impl SvLayers {
    fn absorb(&mut self, s: &StateStats) {
        let t = &mut self.stats;
        t.recompressions += s.recompressions;
        t.decompressions += s.decompressions;
        t.writebacks += s.writebacks;
        t.cache_hits += s.cache_hits;
        t.cache_misses += s.cache_misses;
        t.peak_resident_bytes = t.peak_resident_bytes.max(s.peak_resident_bytes);
        t.spills += s.spills;
        t.fetches += s.fetches;
        t.prefetch_hits += s.prefetch_hits;
        t.prefetch_misses += s.prefetch_misses;
        t.prefetch_stall_us += s.prefetch_stall_us;
        t.compactions += s.compactions;
        t.spilled_bytes += s.spilled_bytes;
    }
}

/// The run's graph and angles.
fn sv_inputs(spec: &SvSpec, seed: u64) -> (Graph, QaoaParams) {
    let (mut graphs, params) = spec.draw.inputs(spec.n, 1, seed);
    assert_eq!(graphs.len(), 1, "a state workload runs one graph");
    (graphs.remove(0), params)
}

/// Applies `gates`. Traced runs without a disk tier time each gate:
/// `run_scheduled` is then exactly this `apply` loop.
fn sv_gates(
    state: &mut CompressedState<'_>,
    gates: &[qcircuit::Gate],
    layers: Option<&mut SvLayers>,
    checks: &mut Checks,
) -> Option<()> {
    let Some(l) = layers else {
        return checks.op("run_scheduled", state.run_scheduled(gates, true));
    };
    l.gates += gates.len() as u64;
    if state.mem_budget().is_some() {
        let t = Instant::now();
        let res = state.run_scheduled(gates, true);
        l.apply_ns += elapsed_ns(t);
        return checks.op("run_scheduled", res);
    }
    for g in gates {
        let t = Instant::now();
        let res = state.apply(g);
        let ns = elapsed_ns(t);
        l.apply_ns += ns;
        l.gate_ns.push(ns);
        checks.op("apply", res)?;
    }
    Some(())
}

/// Sets up a state and runs the circuit. With `fidelity`, the stored
/// amplitudes are afterwards compared with the dense simulation (untimed).
fn sv_pass(
    spec: &SvSpec,
    seed: u64,
    tmp: &Path,
    fidelity: bool,
    mut layers: Option<&mut SvLayers>,
    checks: &mut Checks,
) -> Option<SvPass> {
    let (graph, params) = sv_inputs(spec, seed);
    let c_setup = host::cpu_seconds();
    let circuit = qaoa_circuit(&graph, &params);
    let plain = QcfCompressor::speed();
    let timed = layers.is_some().then(|| TimedCompressor::new(&plain));
    let comp: &dyn Compressor = match &timed {
        Some(t) => t,
        None => &plain,
    };
    let t_zero = Instant::now();
    let zero = CompressedState::zero(spec.n, spec.chunk_qubits, comp, SV_BOUND);
    let mut state = checks.op("CompressedState::zero", zero)?;
    state.set_mem_budget(spec.mem_budget);
    let zero_ns = elapsed_ns(t_zero);
    let setup_s = host::cpu_seconds() - c_setup;

    let gates = circuit.gates();
    let split = if spec.checkpoint {
        gates.len() / 2
    } else {
        gates.len()
    };
    let c_run = host::cpu_seconds();
    let t_run = Instant::now();
    sv_gates(&mut state, &gates[..split], layers.as_deref_mut(), checks)?;
    if spec.checkpoint {
        let path = tmp.join("state.qcfsnap");
        let t = Instant::now();
        let bytes = checks.op("checkpoint", state.checkpoint(&path, &[]))?;
        let commit_ns = elapsed_ns(t);
        if let Some(l) = layers.as_deref_mut() {
            l.absorb(&state.stats);
            l.commit_ns += commit_ns;
            l.ckpt_bytes += bytes;
        }
        drop(state);
        let t = Instant::now();
        let (resumed, _) = checks.op("resume", CompressedState::resume(&path, comp))?;
        state = resumed;
        state.set_mem_budget(spec.mem_budget);
        let resume_ns = elapsed_ns(t);
        if let Some(l) = layers.as_deref_mut() {
            l.resume_ns += resume_ns;
        }
        checks.op("remove snapshot", std::fs::remove_file(&path))?;
        sv_gates(&mut state, &gates[split..], layers.as_deref_mut(), checks)?;
    }
    let t = Instant::now();
    let energy = checks.op("maxcut_energy", state.maxcut_energy(&graph))?;
    let energy_ns = elapsed_ns(t);
    let wall_s = t_run.elapsed().as_secs_f64();
    let cpu_s = host::cpu_seconds() - c_run;

    let t = Instant::now();
    checks.op("flush", state.flush())?;
    let flush_ns = elapsed_ns(t);
    let tiers = state.tier_breakdown();
    if let Some(l) = layers.as_deref_mut() {
        l.passes += 1;
        l.zero_ns += zero_ns;
        l.energy_ns += energy_ns;
        l.flush_ns += flush_ns;
        l.absorb(&state.stats);
        let ledger = state.ledger_summary();
        l.requants += ledger.total_requants;
        l.accumulated_rss += ledger.accumulated_rss;
    }
    let mut state_rel_err = None;
    if fidelity {
        // Drop the cache so every amplitude is read back from its
        // compressed frame.
        checks.op("drop cache", state.set_cache_capacity(0))?;
        let stored = checks.op("to_statevector", state.to_statevector())?;
        let exact = StateVector::run(&circuit);
        let pairs = stored.amplitudes().iter().zip(exact.amplitudes());
        state_rel_err = Some(rel_l2(
            pairs.flat_map(|(g, w)| [(g.re, w.re), (g.im, w.im)]),
        ));
    }
    drop(state);
    if let (Some(l), Some(t)) = (layers, &timed) {
        l.codec.add(&t.snapshot());
    }
    Some(SvPass {
        setup_s,
        wall_s,
        cpu_s,
        energy,
        dense_bytes: 16usize << spec.n,
        compressed_bytes: tiers.ram_compressed_bytes + tiers.spilled_bytes,
        state_rel_err,
    })
}

/// The exact energy, and for checkpointed workloads the energy of the same
/// circuit run in RAM without budget or checkpoint (both untimed).
fn sv_references(
    spec: &SvSpec,
    seed: u64,
    tmp: &Path,
    checks: &mut Checks,
) -> Option<(f64, Option<f64>)> {
    let (graph, params) = sv_inputs(spec, seed);
    let exact = Simulator::default().energy(&graph, &params);
    let exact = checks.op("exact energy", exact)?.energy;
    if !spec.checkpoint {
        return Some((exact, None));
    }
    let in_ram = SvSpec {
        mem_budget: None,
        checkpoint: false,
        ..spec.clone()
    };
    let reference = sv_pass(&in_ram, seed, tmp, false, None, checks)?;
    Some((exact, Some(reference.energy)))
}

/// The correctness check of one pass: bit identity with the in-RAM run
/// where there is one, else the energy-accuracy bound.
fn sv_check(pass: &SvPass, exact: f64, in_ram: Option<f64>, checks: &mut Checks) {
    match in_ram {
        Some(e) => checks.check(pass.energy.to_bits() == e.to_bits(), || {
            format!("energy {} differs from the in-RAM run's {e}", pass.energy)
        }),
        None => {
            let err = rel_err(pass.energy, exact);
            checks.check(err <= MAX_REL_ERR, || {
                format!("energy_rel_err {err:.3e} above {MAX_REL_ERR}")
            })
        }
    };
}

fn sv_check_same(what: &str, pass: &SvPass, reference: &SvPass, checks: &mut Checks) {
    let same = pass.energy.to_bits() == reference.energy.to_bits()
        && pass.compressed_bytes == reference.compressed_bytes;
    checks.check(same, || {
        format!("{what}: energy or compressed bytes differ")
    });
}

fn sv_untraced(
    spec: &SvSpec,
    seed: u64,
    budget: Duration,
    tmp: &Path,
    checks: &mut Checks,
) -> Values {
    let mut values = Values::new();
    let Some((exact, in_ram)) = sv_references(spec, seed, tmp, checks) else {
        return values;
    };
    // The fidelity pass doubles as the warm-up.
    let Some(fid) = sv_pass(spec, seed, tmp, true, None, checks) else {
        return values;
    };
    host::reset_peak_rss();
    let passes = repeat(budget, || sv_pass(spec, seed, tmp, false, None, checks));
    for p in passes.items.iter().chain([&fid]) {
        sv_check(p, exact, in_ram, checks);
        sv_check_same("timed pass", p, &fid, checks);
    }
    let cpu: Vec<f64> = passes.items.iter().map(|p| p.cpu_s).collect();
    let wall: Vec<f64> = passes.items.iter().map(|p| p.wall_s).collect();
    let setup: Vec<f64> = passes.items.iter().map(|p| p.setup_s).collect();
    insert_times(&mut values, &cpu, &wall, &setup);
    values.insert("result_rel_err", fid.state_rel_err.unwrap_or(f64::NAN));
    values.insert(
        "compression_ratio",
        fid.dense_bytes as f64 / fid.compressed_bytes.max(1) as f64,
    );
    values.insert("peak_rss_mib", passes.peak_rss_mib);
    values.insert("energy_rel_err", rel_err(fid.energy, exact));
    values
}

fn sv_traced(
    spec: &SvSpec,
    seed: u64,
    budget: Duration,
    tmp: &Path,
    checks: &mut Checks,
) -> Values {
    let mut values = Values::new();
    let Some((exact, in_ram)) = sv_references(spec, seed, tmp, checks) else {
        return values;
    };
    qcf_telemetry::reset();
    let Some(plain) = sv_pass(spec, seed, tmp, false, None, checks) else {
        return values;
    };
    sv_check(&plain, exact, in_ram, checks);
    let Some(off) = telemetry_off(|| sv_pass(spec, seed, tmp, false, None, checks)) else {
        return values;
    };
    sv_check_same("telemetry-off pass", &off, &plain, checks);

    let mut l = SvLayers::default();
    let traced = repeat(budget, || {
        sv_pass(spec, seed, tmp, false, Some(&mut l), checks)
    })
    .items;
    for p in &traced {
        sv_check_same("traced pass", p, &plain, checks);
    }
    if traced.is_empty() {
        return values;
    }
    let n = l.passes as f64;
    let s = &l.stats;
    let per = |x: u64| x as f64 / n;
    let ratio = |a: u64, b: u64| a as f64 / (a + b).max(1) as f64;
    let wall = traced.iter().map(|p| p.wall_s).sum::<f64>() / n;
    let gate_ms = ms(&l.gate_ns);
    values.insert("state.gates", per(l.gates));
    values.insert("state.apply_s", secs(l.apply_ns) / n);
    values.insert("state.gate_ms_p50", quantile(&gate_ms, 0.5));
    values.insert("state.gate_ms_p90", quantile(&gate_ms, 0.9));
    values.insert("state.energy_s", secs(l.energy_ns) / n);
    values.insert("state.zero_s", secs(l.zero_ns) / n);
    values.insert("state.flush_s", secs(l.flush_ns) / n);
    values.insert("state.encodes", per(s.recompressions));
    values.insert("state.decodes", per(s.decompressions));
    values.insert("state.writebacks", per(s.writebacks));
    values.insert("state.cache_hit_ratio", ratio(s.cache_hits, s.cache_misses));
    values.insert(
        "state.peak_resident_mib",
        s.peak_resident_bytes as f64 / MIB,
    );
    values.insert("spill.writes", per(s.spills));
    values.insert("spill.reads", per(s.fetches));
    values.insert(
        "spill.prefetch_hit_ratio",
        ratio(s.prefetch_hits, s.prefetch_misses),
    );
    values.insert("spill.stall_s", s.prefetch_stall_us as f64 * 1e-6 / n);
    values.insert("spill.compactions", per(s.compactions));
    values.insert("spill.bytes", s.spilled_bytes as f64 / n);
    values.insert("ckpt.commit_s", secs(l.commit_ns) / n);
    values.insert("ckpt.bytes", per(l.ckpt_bytes));
    values.insert("ckpt.resume_s", secs(l.resume_ns) / n);
    values.insert("ledger.requants", per(l.requants));
    values.insert("ledger.accumulated_estimate", l.accumulated_rss / n);
    values.insert("ledger.energy_rel_err", rel_err(plain.energy, exact));
    insert_codec(&mut values, &l.codec, n);
    values.insert(
        "telemetry.cost_frac",
        (plain.cpu_s - off.cpu_s) / plain.cpu_s,
    );
    // Top-level spans inside the wall: gates, checkpoint commit, resume and
    // the energy scan; codec and spill-stall time nest inside them.
    let spans = secs(l.apply_ns + l.commit_ns + l.resume_ns + l.energy_ns) / n;
    values.insert("trace.unattributed_frac", (wall - spans) / wall);
    let cpu = traced.iter().map(|p| p.cpu_s).sum::<f64>() / n;
    values.insert("trace.overhead_frac", (cpu - plain.cpu_s) / plain.cpu_s);
    values
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> [Workload; 3] {
        [
            Workload {
                name: "tn",
                shape: Shape::Tn(TnSpec {
                    n: 10,
                    p: 2,
                    min_elems: 4,
                    draw: Draw::Graphs(2),
                }),
            },
            Workload {
                name: "sv",
                shape: Shape::Sv(SvSpec {
                    n: 10,
                    draw: Draw::Angles(1..2),
                    chunk_qubits: 6,
                    mem_budget: None,
                    checkpoint: false,
                }),
            },
            Workload {
                name: "sv-spill",
                shape: Shape::Sv(SvSpec {
                    n: 10,
                    draw: Draw::Angles(1..2),
                    chunk_qubits: 4,
                    mem_budget: Some(2 << 10),
                    checkpoint: true,
                }),
            },
        ]
    }

    fn scratch_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("qcfbench-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        dir
    }

    #[test]
    fn seeds_draw_angles_within_one_percent_or_graphs() {
        let fixed = QaoaParams::fixed_angles_3reg_p2();
        let draw = Draw::Angles(2..3);
        let (g, a) = draw.inputs(12, 2, 7);
        assert_eq!((g.clone(), a.clone()), draw.inputs(12, 2, 7));
        let (g8, a8) = draw.inputs(12, 2, 8);
        assert_eq!(g, g8, "the graph is fixed");
        assert_ne!(a, a8, "the angles follow the seed");
        let pairs = a
            .gammas
            .iter()
            .chain(&a.betas)
            .zip(fixed.gammas.iter().chain(&fixed.betas));
        for (got, want) in pairs {
            assert!((got / want - 1.0).abs() <= 0.01, "{got} vs {want}");
        }
        let draw = Draw::Graphs(3);
        let (g, a) = draw.inputs(12, 1, 7);
        assert_eq!(g.len(), 3);
        assert_eq!(a, QaoaParams::fixed_angles_3reg_p1());
        assert_ne!(g, draw.inputs(12, 1, 8).0, "the graphs follow the seed");
    }

    /// The traced passes go through the timing wrappers; their energies,
    /// edge terms and compressed bytes must equal the plain passes' bit for
    /// bit, and the wrappers must have seen the codec work.
    #[test]
    fn timing_wrappers_are_behaviour_neutral() {
        let tmp = scratch_dir("neutral");
        for w in tiny() {
            let mut checks = Checks::default();
            match &w.shape {
                Shape::Tn(spec) => {
                    let inp = tn_inputs(spec, 3);
                    let plain = tn_pass(spec, &inp, &mut checks).expect("plain pass");
                    let timed = TimedCompressor::new(&inp.compressor);
                    let mut layers = TnLayers::default();
                    let traced = tn_pass_traced(spec, &inp, &timed, &mut layers, &mut checks)
                        .expect("traced pass");
                    assert_eq!(traced.compressed_bytes, plain.compressed_bytes);
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&traced.energies), bits(&plain.energies));
                    assert_eq!(bits(&traced.zz), bits(&plain.zz));
                    assert!(timed.snapshot().get(Tally::EncodeCalls) > 0);
                    assert!(layers.hook_ns > 0);
                }
                Shape::Sv(spec) => {
                    let plain = sv_pass(spec, 3, &tmp, false, None, &mut checks).expect("plain");
                    let mut layers = SvLayers::default();
                    let traced = sv_pass(spec, 3, &tmp, false, Some(&mut layers), &mut checks)
                        .expect("traced pass");
                    assert_eq!(
                        traced.energy.to_bits(),
                        plain.energy.to_bits(),
                        "{}",
                        w.name
                    );
                    assert_eq!(
                        traced.compressed_bytes, plain.compressed_bytes,
                        "{}",
                        w.name
                    );
                    assert!(layers.codec.get(Tally::EncodeCalls) > 0, "{}", w.name);
                    if spec.mem_budget.is_some() {
                        assert!(layers.stats.spills > 0, "{} never spilled", w.name);
                        assert!(layers.ckpt_bytes > 0);
                    } else {
                        assert_eq!(layers.gate_ns.len() as u64, layers.gates);
                    }
                }
            }
            assert_eq!(checks.failed, 0, "{}: {:?}", w.name, checks.first_failure);
        }
        std::fs::remove_dir_all(&tmp).expect("remove scratch dir");
    }

    /// Both runs of every tiny workload pass all their correctness checks
    /// (the traced run compares itself with an untraced pass) and report
    /// every metric they own.
    #[test]
    fn runs_check_clean_and_report_their_metrics() {
        let tmp = scratch_dir("runs");
        for w in tiny() {
            for traced in [false, true] {
                let res = run(&w, 5, Duration::ZERO, traced, &tmp);
                assert_eq!(
                    res.checks.failed, 0,
                    "{}: {:?}",
                    w.name, res.checks.first_failure
                );
                assert!(res.checks.attempted > 0);
                let want: &[&str] = if traced {
                    &[
                        "codec.encode_s",
                        "ledger.energy_rel_err",
                        "trace.unattributed_frac",
                    ]
                } else {
                    &[
                        "energy_cpu_s",
                        "setup_s",
                        "result_rel_err",
                        "compression_ratio",
                    ]
                };
                for k in want {
                    let v = res.values.get(k).copied();
                    assert!(
                        v.is_some_and(f64::is_finite),
                        "{} traced={traced}: {k} = {v:?}",
                        w.name
                    );
                }
                if !traced {
                    assert!(res.values["result_rel_err"] > 0.0, "{}", w.name);
                }
            }
        }
        std::fs::remove_dir_all(&tmp).expect("remove scratch dir");
    }
}
