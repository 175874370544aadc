//! The `Compressor` abstraction all nine compressors implement.
//!
//! Compressors take flat `f64` buffers — the layout QTensor tensors have
//! after the framework's de-interleaving — and run their kernels on a
//! simulated-GPU [`Stream`], which is where throughput numbers come from.
//! Streams are self-describing: a one-byte compressor id, then the
//! compressor's own header, so decompression can be dispatched blindly.
//!
//! Codecs implement `compress_raw_into`/`decompress_raw_into`, which speak
//! the bare v1 stream format; the allocating `*_raw` forms are provided. The public [`Compressor::compress`]/[`Compressor::decompress`]
//! family wraps every stream in a checksummed v2 integrity frame
//! ([`codec_kit::frame`]) and verifies it on the way back in — legacy
//! (unframed) v1 streams still decode unchanged.

use codec_kit::{frame, CodecError};
use gpu_model::Stream;

/// User-facing error-bound specification.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ErrorBound {
    /// Absolute: `|x − x̂| ≤ eb` pointwise.
    Abs(f64),
    /// Value-range relative: `|x − x̂| ≤ eb · (max − min)` pointwise
    /// (the SZ convention; resolved to absolute per buffer).
    Rel(f64),
}

impl ErrorBound {
    /// Resolves to an absolute bound for `data`. Only `Rel` reads the
    /// data (one pass for its value range); zero-range (constant) data
    /// counts as range 1, so the bound stays positive.
    pub fn to_abs(self, data: &[f64]) -> f64 {
        match self {
            ErrorBound::Abs(eb) => eb,
            ErrorBound::Rel(eb) => {
                let (min, max) = value_range(data);
                let r = max - min;
                eb * if r > 0.0 { r } else { 1.0 }
            }
        }
    }

    /// The raw bound value (for display).
    pub fn value(self) -> f64 {
        match self {
            ErrorBound::Abs(v) | ErrorBound::Rel(v) => v,
        }
    }
}

/// Lossless compressors ignore the bound; error-bounded ones honour it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompressorKind {
    /// Bit-exact reconstruction.
    Lossless,
    /// Pointwise error-bounded lossy reconstruction.
    ErrorBounded,
}

/// A (de)compressor of `f64` buffers with simulated-GPU cost accounting.
pub trait Compressor: Send + Sync {
    /// Short name as used in the paper's plots (e.g. `"cuSZ"`).
    fn name(&self) -> &'static str;

    /// Stable one-byte stream id.
    fn id(&self) -> u8;

    /// Lossless or error-bounded.
    fn kind(&self) -> CompressorKind;

    /// Encodes the bare (v1, unframed) stream into `out` (cleared first,
    /// capacity reused) — the one encode body each codec implements. On
    /// error the buffer contents are unspecified but valid.
    fn compress_raw_into(
        &self,
        data: &[f64],
        bound: ErrorBound,
        stream: &Stream,
        out: &mut Vec<u8>,
    ) -> Result<(), CodecError>;

    /// Decodes a bare v1 stream produced by
    /// [`Compressor::compress_raw_into`] into `out` (cleared first,
    /// capacity reused) — the one decode body each codec implements. On
    /// error the buffer contents are unspecified but valid.
    fn decompress_raw_into(
        &self,
        bytes: &[u8],
        stream: &Stream,
        out: &mut Vec<f64>,
    ) -> Result<(), CodecError>;

    /// [`Compressor::compress_raw_into`] into a fresh buffer.
    fn compress_raw(
        &self,
        data: &[f64],
        bound: ErrorBound,
        stream: &Stream,
    ) -> Result<Vec<u8>, CodecError> {
        let mut out = Vec::new();
        self.compress_raw_into(data, bound, stream, &mut out)?;
        Ok(out)
    }

    /// [`Compressor::decompress_raw_into`] into a fresh buffer.
    fn decompress_raw(&self, bytes: &[u8], stream: &Stream) -> Result<Vec<f64>, CodecError> {
        let mut out = Vec::new();
        self.decompress_raw_into(bytes, stream, &mut out)?;
        Ok(out)
    }

    /// Compresses `data` under `bound` into a checksummed v2 integrity
    /// frame, charging kernels to `stream`.
    fn compress(
        &self,
        data: &[f64],
        bound: ErrorBound,
        stream: &Stream,
    ) -> Result<Vec<u8>, CodecError> {
        let mut out = Vec::new();
        self.compress_into(data, bound, stream, &mut out)?;
        Ok(out)
    }

    /// [`Compressor::compress`] into a caller-provided buffer (cleared
    /// first, capacity reused); bit-identical to `compress`. The frame is
    /// sealed in place — no scratch allocation beyond the output buffer.
    fn compress_into(
        &self,
        data: &[f64],
        bound: ErrorBound,
        stream: &Stream,
        out: &mut Vec<u8>,
    ) -> Result<(), CodecError> {
        self.compress_raw_into(data, bound, stream, out)?;
        frame::seal_in_place(out);
        Ok(())
    }

    /// Decompresses a stream produced by [`Compressor::compress`],
    /// verifying the integrity frame first. Bare v1 streams (no frame)
    /// decode unchanged for backward compatibility.
    fn decompress(&self, bytes: &[u8], stream: &Stream) -> Result<Vec<f64>, CodecError> {
        let mut out = Vec::new();
        self.decompress_into(bytes, stream, &mut out)?;
        Ok(out)
    }

    /// [`Compressor::decompress`] into a caller-provided buffer (cleared
    /// first, capacity reused).
    fn decompress_into(
        &self,
        bytes: &[u8],
        stream: &Stream,
        out: &mut Vec<f64>,
    ) -> Result<(), CodecError> {
        let payload = frame::unseal(bytes)?;
        if qcf_telemetry::faults::inject("codec.decode").is_some() {
            return Err(CodecError::Corrupt("injected decode fault"));
        }
        self.decompress_raw_into(payload, stream, out)
    }
}

/// Writes the common stream prologue (id + element count) into `out`,
/// cleared first — every encoder starts its stream with this.
pub fn stream_header_into(id: u8, n: usize, out: &mut Vec<u8>) {
    out.clear();
    out.push(id);
    codec_kit::varint::write_uvarint(out, n as u64);
}

/// Decompression-bomb guard: the largest plausible expansion of one stream
/// byte into decoded f64 values. The run-length family legitimately
/// reaches millions of values per byte on constant chunks (an all-zero
/// `2^27`-amplitude chunk cascades to a few dozen bytes), so the cap is
/// generous — but a forged header can no longer make a decoder reserve
/// terabytes from a handful of bytes.
const MAX_VALUES_PER_BYTE: usize = 1 << 23;

/// Declared counts below this are always allowed (degenerate tiny streams).
const GUARD_FLOOR: usize = 1 << 16;

/// Checks the id byte and reads the element count; returns `(n, pos)`.
///
/// The declared count is validated against the remaining input *before*
/// the caller allocates anything: `n` may not exceed
/// [`MAX_VALUES_PER_BYTE`] × the bytes actually present (plus a small
/// floor).
pub fn read_stream_header(bytes: &[u8], expect_id: u8) -> Result<(usize, usize), CodecError> {
    let id = *bytes.first().ok_or(CodecError::UnexpectedEof)?;
    if id != expect_id {
        return Err(CodecError::Corrupt("compressor id mismatch"));
    }
    let mut pos = 1usize;
    let n = codec_kit::varint::read_uvarint(bytes, &mut pos)? as usize;
    if n > (1usize << 32) {
        return Err(CodecError::Corrupt("absurd element count"));
    }
    let remaining = bytes.len() - pos;
    if n > GUARD_FLOOR + remaining.saturating_mul(MAX_VALUES_PER_BYTE) {
        return Err(CodecError::Corrupt(
            "declared length exceeds remaining input",
        ));
    }
    if qcf_telemetry::faults::inject("codec.alloc").is_some() {
        return Err(CodecError::Corrupt("injected allocation-cap breach"));
    }
    Ok((n, pos))
}

/// Value range `(min, max)` of a buffer; `(0, 0)` when empty.
pub fn value_range(data: &[f64]) -> (f64, f64) {
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    for &v in data {
        min = min.min(v);
        max = max.max(v);
    }
    if data.is_empty() {
        (0.0, 0.0)
    } else {
        (min, max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bound_resolution() {
        assert_eq!(ErrorBound::Abs(1e-3).to_abs(&[-50.0, 50.0]), 1e-3);
        assert_eq!(ErrorBound::Rel(1e-3).to_abs(&[1.0, -1.0, 0.5]), 2e-3);
        // constant data: falls back to treating range as 1
        assert_eq!(ErrorBound::Rel(1e-3).to_abs(&[4.0, 4.0]), 1e-3);
    }

    #[test]
    fn header_roundtrip() {
        let mut h = Vec::new();
        stream_header_into(7, 123_456, &mut h);
        let hdr_len = h.len();
        // The bomb guard requires payload bytes proportional to the declared
        // count; a bare header with a six-figure n is treated as forged.
        h.push(0);
        let (n, pos) = read_stream_header(&h, 7).unwrap();
        assert_eq!(n, 123_456);
        assert_eq!(pos, hdr_len);
    }

    #[test]
    fn header_id_mismatch() {
        let mut h = Vec::new();
        stream_header_into(7, 10, &mut h);
        assert!(read_stream_header(&h, 8).is_err());
        assert!(read_stream_header(&[], 7).is_err());
    }

    #[test]
    fn range_of_buffer() {
        assert_eq!(value_range(&[1.0, -2.0, 3.0]), (-2.0, 3.0));
        assert_eq!(value_range(&[]), (0.0, 0.0));
    }

    #[test]
    fn header_rejects_declared_length_exceeding_input() {
        // A 2-byte tail declaring 2^30 values: no real codec expands a
        // couple of bytes that far — reject before anyone allocates.
        let mut h = vec![7u8];
        codec_kit::varint::write_uvarint(&mut h, 1u64 << 30);
        assert_eq!(
            read_stream_header(&h, 7).unwrap_err(),
            CodecError::Corrupt("declared length exceeds remaining input")
        );
        // The same count with a plausibly sized body passes the guard.
        let mut ok = vec![7u8];
        codec_kit::varint::write_uvarint(&mut ok, 1u64 << 27);
        ok.extend_from_slice(&[0; 64]);
        assert!(read_stream_header(&ok, 7).is_ok());
    }

    #[test]
    fn header_rejects_absurd_counts_outright() {
        let mut h = vec![7u8];
        codec_kit::varint::write_uvarint(&mut h, 1u64 << 39);
        h.extend_from_slice(&vec![0u8; 1 << 17]);
        assert_eq!(
            read_stream_header(&h, 7).unwrap_err(),
            CodecError::Corrupt("absurd element count")
        );
    }
}
