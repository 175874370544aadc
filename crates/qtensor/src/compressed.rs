//! Compressed contraction: intermediates round-trip through a compressor.
//!
//! This is the paper's end-to-end integration point. In the real system,
//! QTensor stores each intermediate tensor compressed on the GPU and
//! decompresses it when the next bucket needs it; semantically, contraction
//! proceeds with the *reconstructed* (error-bounded) tensors. The
//! [`CompressingHook`] reproduces exactly that data flow and accounts both
//! footprints, while [`NoiseHook`] injects idealized bounded noise for the
//! error-impact characterization (experiment E8).

use crate::contraction::{ContractError, ContractionHook};
use crate::ledger::rss_accumulate;
use compressors::{Compressor, CompressorKind, ErrorBound};
use gpu_model::{DeviceSpec, Stream};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use tensornet::planes::{as_interleaved, as_interleaved_mut};
use tensornet::Tensor;

/// Cumulative compression accounting across a contraction.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CompressionStats {
    /// Tensors that were compressed (met the size threshold).
    pub tensors_compressed: usize,
    /// Tensors passed through untouched.
    pub tensors_skipped: usize,
    /// Uncompressed bytes of the compressed tensors.
    pub uncompressed_bytes: u64,
    /// Their compressed size.
    pub compressed_bytes: u64,
    /// Largest single-tensor uncompressed size seen.
    pub largest_tensor_bytes: u64,
    /// Number of *lossy* round trips (0 under a lossless codec).
    pub lossy_events: u64,
    /// Accumulated-bound estimate over the contraction: RSS of each lossy
    /// round trip's resolved absolute bound (the same first-order model
    /// `qtensor::ledger` applies per chunk; `qcf-core::fidelity` turns it
    /// into a predicted energy error).
    pub accumulated_bound: f64,
}

impl CompressionStats {
    /// Aggregate compression ratio over everything compressed (1.0 if none).
    pub fn ratio(&self) -> f64 {
        if self.compressed_bytes == 0 {
            1.0
        } else {
            self.uncompressed_bytes as f64 / self.compressed_bytes as f64
        }
    }
}

/// Routes every intermediate tensor of at least `min_elems` complex elements
/// through `compressor` (compress + decompress), so contraction continues on
/// the error-bounded reconstruction.
pub struct CompressingHook<'a> {
    compressor: &'a dyn Compressor,
    bound: ErrorBound,
    stream: Stream,
    min_elems: usize,
    /// Mirrors `stats.accumulated_bound` into the registry
    /// (`contract.accumulated_bound`) when telemetry is enabled.
    acc_bound_gauge: std::sync::Arc<qcf_telemetry::FloatGauge>,
    /// Accounting for E7/E9.
    pub stats: CompressionStats,
}

impl<'a> CompressingHook<'a> {
    /// Creates a hook compressing tensors of `min_elems`+ complex elements
    /// on a fresh simulated A100 stream.
    pub fn new(compressor: &'a dyn Compressor, bound: ErrorBound, min_elems: usize) -> Self {
        CompressingHook {
            compressor,
            bound,
            stream: Stream::new(DeviceSpec::a100()),
            min_elems,
            acc_bound_gauge: qcf_telemetry::registry().float_gauge("contract.accumulated_bound"),
            stats: CompressionStats::default(),
        }
    }

    /// The simulated GPU stream (for timing reports).
    pub fn stream(&self) -> &Stream {
        &self.stream
    }
}

impl ContractionHook for CompressingHook<'_> {
    fn on_intermediate(&mut self, mut tensor: Tensor) -> Result<Tensor, ContractError> {
        if tensor.len() < self.min_elems {
            self.stats.tensors_skipped += 1;
            return Ok(tensor);
        }
        let _span = qcf_telemetry::span!("compress.intermediate");
        let flat = as_interleaved(tensor.data());
        let bytes = self
            .compressor
            .compress(flat, self.bound, &self.stream)
            .map_err(|e| ContractError::Hook(format!("compress: {e}")))?;
        let reconstructed = self
            .compressor
            .decompress(&bytes, &self.stream)
            .map_err(|e| ContractError::Hook(format!("decompress: {e}")))?;
        if reconstructed.len() != tensor.len() * 2 {
            return Err(ContractError::Hook("reconstruction length mismatch".into()));
        }
        let nbytes = (tensor.len() * 16) as u64;
        self.stats.tensors_compressed += 1;
        self.stats.uncompressed_bytes += nbytes;
        self.stats.compressed_bytes += bytes.len() as u64;
        self.stats.largest_tensor_bytes = self.stats.largest_tensor_bytes.max(nbytes);
        if self.compressor.kind() == CompressorKind::ErrorBounded {
            let eps = self.bound.to_abs(flat);
            self.stats.lossy_events += 1;
            self.stats.accumulated_bound = rss_accumulate(self.stats.accumulated_bound, eps);
            self.acc_bound_gauge.set(self.stats.accumulated_bound);
        }
        // Write the reconstruction back into the tensor's own storage —
        // labels and dims are untouched, and no per-intermediate complex
        // buffer is allocated.
        as_interleaved_mut(tensor.data_mut()).copy_from_slice(&reconstructed);
        Ok(tensor)
    }
}

/// Injects uniform noise in `[-eps, +eps]` into every intermediate of at
/// least `min_elems` elements — the idealized worst-case of an
/// error-bounded compressor, used to characterize how tensor-level error
/// moves the final energy.
pub struct NoiseHook {
    eps: f64,
    min_elems: usize,
    rng: ChaCha8Rng,
    /// Number of tensors perturbed.
    pub perturbed: usize,
}

impl NoiseHook {
    /// Creates a seeded noise hook.
    pub fn new(eps: f64, min_elems: usize, seed: u64) -> Self {
        NoiseHook {
            eps,
            min_elems,
            rng: ChaCha8Rng::seed_from_u64(seed),
            perturbed: 0,
        }
    }
}

impl ContractionHook for NoiseHook {
    fn on_intermediate(&mut self, mut tensor: Tensor) -> Result<Tensor, ContractError> {
        if tensor.len() < self.min_elems || self.eps == 0.0 {
            return Ok(tensor);
        }
        self.perturbed += 1;
        for v in tensor.data_mut() {
            v.re += self.rng.gen_range(-self.eps..=self.eps);
            v.im += self.rng.gen_range(-self.eps..=self.eps);
        }
        Ok(tensor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::energy::Simulator;
    use compressors::cusz::CuSz;
    use compressors::cuszx::CuSzx;
    use compressors::dummy::Memcpy;
    use qcircuit::{Graph, QaoaParams};

    fn setup() -> (Graph, QaoaParams, f64) {
        let g = Graph::random_regular(10, 3, 21);
        let params = QaoaParams::new(vec![0.5, 0.8], vec![0.3, 0.55]);
        let exact = Simulator::default().energy(&g, &params).unwrap().energy;
        (g, params, exact)
    }

    #[test]
    fn lossless_compression_changes_nothing() {
        let (g, params, exact) = setup();
        let comp = Memcpy;
        let mut hook = CompressingHook::new(&comp, ErrorBound::Abs(1e-3), 1);
        let e = Simulator::default()
            .energy_with_hook(&g, &params, &mut hook)
            .unwrap()
            .energy;
        assert!((e - exact).abs() < 1e-12);
        assert!(hook.stats.tensors_compressed > 0);
        assert!((hook.stats.ratio() - 1.0).abs() < 0.1);
        assert_eq!(hook.stats.lossy_events, 0);
        assert_eq!(hook.stats.accumulated_bound, 0.0);
    }

    #[test]
    fn lossy_compression_keeps_energy_close() {
        let (g, params, exact) = setup();
        let comp = CuSz::default();
        let mut hook = CompressingHook::new(&comp, ErrorBound::Abs(1e-5), 4);
        let e = Simulator::default()
            .energy_with_hook(&g, &params, &mut hook)
            .unwrap()
            .energy;
        let rel = (e - exact).abs() / exact.abs();
        assert!(rel < 0.01, "energy off by {:.3}% at eb=1e-5", rel * 100.0);
        assert!(
            hook.stats.ratio() > 1.0,
            "lossy compression should shrink tensors"
        );
        assert_eq!(
            hook.stats.lossy_events, hook.stats.tensors_compressed as u64,
            "every lossy round trip is one ledger event"
        );
        // Abs bound ⇒ each event contributes exactly eb: RSS closed form.
        let want = crate::ledger::uniform_rss(1e-5, hook.stats.lossy_events as usize);
        assert!((hook.stats.accumulated_bound - want).abs() < 1e-12);
    }

    #[test]
    fn looser_bound_larger_energy_drift() {
        let (g, params, exact) = setup();
        let drift = |eb: f64| {
            let comp = CuSzx::default();
            let mut hook = CompressingHook::new(&comp, ErrorBound::Abs(eb), 4);
            let e = Simulator::default()
                .energy_with_hook(&g, &params, &mut hook)
                .unwrap()
                .energy;
            (e - exact).abs()
        };
        let tight = drift(1e-8);
        let loose = drift(1e-2);
        assert!(tight <= loose + 1e-9, "tight {tight} vs loose {loose}");
    }

    #[test]
    fn min_elems_threshold_respected() {
        let (g, params, _) = setup();
        let comp = Memcpy;
        let mut hook = CompressingHook::new(&comp, ErrorBound::Abs(1e-3), usize::MAX);
        Simulator::default()
            .energy_with_hook(&g, &params, &mut hook)
            .unwrap();
        assert_eq!(hook.stats.tensors_compressed, 0);
        assert!(hook.stats.tensors_skipped > 0);
    }

    #[test]
    fn noise_hook_moves_energy_boundedly() {
        let (g, params, exact) = setup();
        let mut hook = NoiseHook::new(1e-6, 1, 7);
        let e = Simulator::default()
            .energy_with_hook(&g, &params, &mut hook)
            .unwrap()
            .energy;
        assert!(hook.perturbed > 0);
        assert!((e - exact).abs() < 1e-2);
        assert_ne!(e, exact, "noise should move the result measurably");
    }

    #[test]
    fn zero_noise_is_identity() {
        let (g, params, exact) = setup();
        let mut hook = NoiseHook::new(0.0, 1, 7);
        let e = Simulator::default()
            .energy_with_hook(&g, &params, &mut hook)
            .unwrap()
            .energy;
        assert_eq!(e, exact);
    }
}
