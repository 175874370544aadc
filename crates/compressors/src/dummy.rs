//! Memcpy — the no-op baseline (nvCOMP benchmarks report it too).
//!
//! Compression ratio exactly 1 at raw copy bandwidth: the floor every other
//! compressor is judged against.

use crate::traits::{
    read_stream_header, stream_header_into, Compressor, CompressorKind, ErrorBound,
};
use codec_kit::CodecError;
use gpu_model::{KernelSpec, Stream};

/// Stream id of the memcpy baseline.
pub const MEMCPY_ID: u8 = 9;

/// The identity "compressor".
#[derive(Debug, Clone, Default)]
pub struct Memcpy;

impl Compressor for Memcpy {
    fn name(&self) -> &'static str {
        "memcpy"
    }

    fn id(&self) -> u8 {
        MEMCPY_ID
    }

    fn kind(&self) -> CompressorKind {
        CompressorKind::Lossless
    }

    /// Writes directly into `out` — with warm capacity this path performs
    /// zero heap allocations, which is what makes the compressed-state
    /// apply loop's steady state allocation-free under a lossless codec.
    fn compress_raw_into(
        &self,
        data: &[f64],
        _bound: ErrorBound,
        stream: &Stream,
        out: &mut Vec<u8>,
    ) -> Result<(), CodecError> {
        let nbytes = (data.len() * 8) as u64;
        stream_header_into(MEMCPY_ID, data.len(), out);
        stream.launch(
            &KernelSpec::streaming("memcpy::copy", nbytes, nbytes),
            || {
                out.reserve(data.len() * 8);
                for v in data {
                    out.extend_from_slice(&v.to_le_bytes());
                }
            },
        );
        Ok(())
    }

    fn decompress_raw_into(
        &self,
        bytes: &[u8],
        stream: &Stream,
        out: &mut Vec<f64>,
    ) -> Result<(), CodecError> {
        let (n, pos) = read_stream_header(bytes, MEMCPY_ID)?;
        if bytes.len() < pos + n * 8 {
            return Err(CodecError::UnexpectedEof);
        }
        let nbytes = (n * 8) as u64;
        stream.launch(
            &KernelSpec::streaming("memcpy::copy", nbytes, nbytes),
            || {
                out.clear();
                out.reserve(n);
                out.extend(
                    bytes[pos..pos + n * 8]
                        .chunks_exact(8)
                        .map(|c| f64::from_le_bytes(c.try_into().unwrap())),
                );
            },
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_model::DeviceSpec;

    #[test]
    fn identity_roundtrip() {
        let s = Stream::new(DeviceSpec::a100());
        let v = vec![1.0f64, -2.5, f64::NAN, 0.0];
        let bytes = Memcpy.compress(&v, ErrorBound::Abs(0.0), &s).unwrap();
        assert_eq!(
            bytes.len(),
            v.len() * 8 + 2 + codec_kit::frame::FRAME_OVERHEAD
        );
        let rec = Memcpy.decompress(&bytes, &s).unwrap();
        for (a, b) in v.iter().zip(&rec) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn runs_at_copy_bandwidth() {
        let s = Stream::new(DeviceSpec::a100());
        let v = vec![0.5f64; 1 << 20];
        Memcpy.compress(&v, ErrorBound::Abs(0.0), &s).unwrap();
        let gbps = s.throughput((v.len() * 8) as u64) / 1e9;
        assert!(gbps > 500.0, "memcpy at only {gbps:.0} GB/s");
    }

    #[test]
    fn truncated_errors() {
        let s = Stream::new(DeviceSpec::a100());
        let bytes = Memcpy
            .compress(&[1.0, 2.0], ErrorBound::Abs(0.0), &s)
            .unwrap();
        assert!(Memcpy.decompress(&bytes[..bytes.len() - 1], &s).is_err());
    }
}
