//! Quality and performance metrics for compression runs.
//!
//! The quantities every figure in the paper's evaluation reports:
//! compression ratio, maximum pointwise error, PSNR, and simulated
//! throughput.

use crate::traits::{Compressor, ErrorBound};
use codec_kit::CodecError;
use gpu_model::{DeviceSpec, Stream};
use std::time::Instant;

/// Quality metrics of a reconstruction against its original.
#[derive(Debug, Clone, PartialEq)]
pub struct QualityMetrics {
    /// Original bytes / compressed bytes.
    pub compression_ratio: f64,
    /// `max_i |x_i − x̂_i|`.
    pub max_abs_error: f64,
    /// Root-mean-square error.
    pub rmse: f64,
    /// Peak signal-to-noise ratio in dB (∞ for exact reconstruction).
    pub psnr_db: f64,
}

/// Computes quality metrics; `compressed_len` in bytes.
///
/// # Empty input
/// Empty slices are well-defined, not an error: `max_abs_error` and `rmse`
/// are `0.0`, `psnr_db` is `+∞` (nothing deviated), and
/// `compression_ratio` is `0.0` (zero input bytes over a nonzero
/// container). Callers that consider an empty buffer a bug must check
/// before calling — this function deliberately reports "perfect
/// reconstruction of nothing" rather than panicking mid-experiment.
///
/// # Panics
/// Panics when lengths differ.
pub fn quality(original: &[f64], reconstructed: &[f64], compressed_len: usize) -> QualityMetrics {
    assert_eq!(original.len(), reconstructed.len(), "length mismatch");
    let n = original.len().max(1) as f64;
    let mut max_err = 0.0f64;
    let mut sq_sum = 0.0f64;
    let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
    for (&a, &b) in original.iter().zip(reconstructed) {
        let e = (a - b).abs();
        max_err = max_err.max(e);
        sq_sum += e * e;
        min = min.min(a);
        max = max.max(a);
    }
    let rmse = (sq_sum / n).sqrt();
    let range = if original.is_empty() { 0.0 } else { max - min };
    let psnr_db = if rmse == 0.0 || range == 0.0 {
        f64::INFINITY
    } else {
        20.0 * (range / rmse).log10()
    };
    QualityMetrics {
        compression_ratio: (original.len() * 8) as f64 / compressed_len.max(1) as f64,
        max_abs_error: max_err,
        rmse,
        psnr_db,
    }
}

/// Everything measured about one compress→decompress round trip.
#[derive(Debug, Clone)]
pub struct RoundTripReport {
    /// Compressor name.
    pub name: &'static str,
    /// Input element count.
    pub n: usize,
    /// Compressed size in bytes.
    pub compressed_bytes: usize,
    /// Quality metrics.
    pub quality: QualityMetrics,
    /// Simulated-GPU compression throughput, bytes/s of input.
    pub gpu_compress_bps: f64,
    /// Simulated-GPU decompression throughput, bytes/s of output.
    pub gpu_decompress_bps: f64,
    /// The reconstructed values.
    pub reconstructed: Vec<f64>,
}

/// Runs a full round trip on a fresh A100 stream and measures everything.
///
/// When telemetry is enabled, the run also publishes per-compressor
/// metrics to the registry: `compressor.<name>.cr` / `.max_abs_err` /
/// `.psnr_db` / `.gpu_compress_bps` / `.gpu_decompress_bps` float gauges
/// plus a `compressor.<name>.round_trips` counter, and feeds the shared
/// `compressor.encode_us` / `compressor.decode_us` latency histograms
/// (host wall clock, µs) whose p50/p95/p99 surface in `qcfz top` and the
/// Prometheus exposition.
pub fn round_trip(
    comp: &dyn Compressor,
    data: &[f64],
    bound: ErrorBound,
) -> Result<RoundTripReport, CodecError> {
    let _span = qcf_telemetry::span!("compressor.round_trip");
    let payload = (data.len() * 8) as u64;

    let cstream = Stream::new(DeviceSpec::a100());
    let t0 = Instant::now();
    let bytes = comp.compress(data, bound, &cstream)?;
    let encode_s = t0.elapsed().as_secs_f64();

    let dstream = Stream::new(DeviceSpec::a100());
    let t1 = Instant::now();
    let reconstructed = comp.decompress(&bytes, &dstream)?;
    let decode_s = t1.elapsed().as_secs_f64();

    let report = RoundTripReport {
        name: comp.name(),
        n: data.len(),
        compressed_bytes: bytes.len(),
        quality: quality(data, &reconstructed, bytes.len()),
        gpu_compress_bps: cstream.throughput(payload),
        gpu_decompress_bps: dstream.throughput(payload),
        reconstructed,
    };
    if qcf_telemetry::enabled() {
        let r = qcf_telemetry::registry();
        let name = report.name;
        r.float_gauge(&format!("compressor.{name}.cr"))
            .set(report.quality.compression_ratio);
        r.float_gauge(&format!("compressor.{name}.max_abs_err"))
            .set(report.quality.max_abs_error);
        r.float_gauge(&format!("compressor.{name}.psnr_db"))
            .set(report.quality.psnr_db);
        r.float_gauge(&format!("compressor.{name}.gpu_compress_bps"))
            .set(report.gpu_compress_bps);
        r.float_gauge(&format!("compressor.{name}.gpu_decompress_bps"))
            .set(report.gpu_decompress_bps);
        r.counter(&format!("compressor.{name}.round_trips")).inc();
        // Shared (cross-compressor) latency histograms, µs. Log-spaced
        // bounds from small test buffers up to multi-ms statevector planes.
        const LAT_BOUNDS_US: [f64; 10] = [
            10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0, 10000.0,
        ];
        r.histogram("compressor.encode_us", &LAT_BOUNDS_US)
            .observe(encode_s * 1e6);
        r.histogram("compressor.decode_us", &LAT_BOUNDS_US)
            .observe(decode_s * 1e6);
    }
    Ok(report)
}

/// Asserts the error-bound contract of a reconstruction.
///
/// The contract is `|x − x̂| ≤ eb` up to floating-point rounding of the
/// reconstruction arithmetic. That rounding scales with the largest
/// magnitude participating in the arithmetic — not the value itself: cuSZx
/// reconstructs `mean + q·2eb`, so a small value sharing a block with a
/// ±1e5 neighbour carries ~1e-11 of rounding regardless of `eb`. Real
/// SZ-family implementations carry the same caveat, so the tolerance here
/// is `eb + O(eps · max|x|)` over the buffer.
pub fn assert_bound(original: &[f64], reconstructed: &[f64], abs_bound: f64) {
    assert_eq!(original.len(), reconstructed.len());
    let max_abs = original
        .iter()
        .chain(reconstructed)
        .fold(0.0f64, |m, &v| m.max(v.abs()));
    let ulp_slack = max_abs * 16.0 * f64::EPSILON;
    for (i, (&a, &b)) in original.iter().zip(reconstructed).enumerate() {
        assert!(
            (a - b).abs() <= abs_bound * (1.0 + 1e-12) + ulp_slack + f64::EPSILON,
            "bound violated at {i}: |{a} - {b}| = {} > {abs_bound}",
            (a - b).abs()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_reconstruction_metrics() {
        let data = vec![1.0, 2.0, 3.0, 4.0];
        let q = quality(&data, &data, 16);
        assert_eq!(q.max_abs_error, 0.0);
        assert_eq!(q.rmse, 0.0);
        assert!(q.psnr_db.is_infinite());
        assert!((q.compression_ratio - 2.0).abs() < 1e-12);
    }

    #[test]
    fn error_metrics_computed() {
        let a = vec![0.0, 1.0];
        let b = vec![0.1, 1.0];
        let q = quality(&a, &b, 16);
        assert!((q.max_abs_error - 0.1).abs() < 1e-12);
        let want_rmse = (0.01f64 / 2.0).sqrt();
        assert!((q.rmse - want_rmse).abs() < 1e-12);
        // psnr = 20 log10(1.0 / rmse)
        assert!((q.psnr_db - 20.0 * (1.0 / want_rmse).log10()).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "bound violated")]
    fn assert_bound_catches_violation() {
        assert_bound(&[0.0], &[0.5], 0.1);
    }

    #[test]
    fn empty_buffers_do_not_divide_by_zero() {
        let q = quality(&[], &[], 1);
        assert_eq!(q.max_abs_error, 0.0);
        assert!(q.psnr_db.is_infinite());
    }

    #[test]
    fn empty_input_behavior_is_fully_specified() {
        // The documented contract for empty slices, field by field: no
        // panic, no NaN, and a ratio of exactly zero so the case is
        // distinguishable from any real (ratio > 0) compression.
        for compressed_len in [0usize, 1, 100] {
            let q = quality(&[], &[], compressed_len);
            assert_eq!(q.max_abs_error, 0.0, "no elements → no error");
            assert_eq!(q.rmse, 0.0);
            assert!(q.psnr_db.is_infinite() && q.psnr_db > 0.0);
            assert_eq!(q.compression_ratio, 0.0, "zero input bytes → ratio 0");
            assert!(!q.compression_ratio.is_nan());
        }
    }
}
