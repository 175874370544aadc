//! Bitcomp — NVIDIA's proprietary bit-level compressor (lossless mode).
//!
//! Bitcomp's lossless float path is an FPC-style scheme: XOR each 64-bit
//! word with its predecessor (identical leading bytes cancel to zero), then
//! store each fixed-size block at the width of its largest XOR residual.
//! Exactly reproducible from its observable behaviour: strong on slowly
//! varying sign/exponent fields, ratio ≈ 1 on noisy mantissas, very fast
//! (single streaming pass, no entropy coding).

use crate::traits::{
    read_stream_header, stream_header_into, Compressor, CompressorKind, ErrorBound,
};
use codec_kit::bitio::{BitReader, BitWriter};
use codec_kit::bitpack::{pack, required_width, unpack};
use codec_kit::varint::{read_uvarint, write_len_prefixed};
use codec_kit::CodecError;
use gpu_model::{KernelSpec, MemoryPattern, Stream};

/// Stream id of Bitcomp.
pub const BITCOMP_ID: u8 = 8;

/// Words per width block.
const BLOCK: usize = 128;

/// The Bitcomp compressor (lossless mode).
#[derive(Debug, Clone, Default)]
pub struct Bitcomp;

impl Compressor for Bitcomp {
    fn name(&self) -> &'static str {
        "Bitcomp"
    }

    fn id(&self) -> u8 {
        BITCOMP_ID
    }

    fn kind(&self) -> CompressorKind {
        CompressorKind::Lossless
    }

    fn compress_raw_into(
        &self,
        data: &[f64],
        _bound: ErrorBound,
        stream: &Stream,
        out: &mut Vec<u8>,
    ) -> Result<(), CodecError> {
        let n = data.len();
        let nbytes = (n * 8) as u64;
        stream_header_into(BITCOMP_ID, n, out);

        write_len_prefixed(out, |out| {
            stream.launch(
                &KernelSpec::streaming("bitcomp::xor_pack", nbytes, nbytes)
                    .with_pattern(MemoryPattern::Streaming)
                    .with_flops(n as u64),
                || {
                    out.reserve(n * 8);
                    let mut w = BitWriter::from_vec(std::mem::take(out));
                    let mut prev = 0u64;
                    let mut residuals = [0u64; BLOCK];
                    for chunk in data.chunks(BLOCK) {
                        for (i, &v) in chunk.iter().enumerate() {
                            let bits = v.to_bits();
                            residuals[i] = bits ^ prev;
                            prev = bits;
                        }
                        let res = &residuals[..chunk.len()];
                        // 64-bit residuals exceed the 57-bit packer: split each
                        // into a 32-bit low and up-to-32-bit high half at the
                        // block's required widths.
                        let width = required_width(res);
                        w.write_bits(width as u64, 7);
                        if width <= 57 {
                            pack(res, width, &mut w);
                        } else {
                            for &r in res {
                                w.write_bits(r & 0xFFFF_FFFF, 32);
                                w.write_bits(r >> 32, 32);
                            }
                        }
                    }
                    *out = w.finish();
                },
            )
        });
        Ok(())
    }

    fn decompress_raw_into(
        &self,
        bytes: &[u8],
        stream: &Stream,
        out: &mut Vec<f64>,
    ) -> Result<(), CodecError> {
        let (n, mut pos) = read_stream_header(bytes, BITCOMP_ID)?;
        let payload_len = read_uvarint(bytes, &mut pos)? as usize;
        if bytes.len() < pos + payload_len {
            return Err(CodecError::UnexpectedEof);
        }
        let payload = &bytes[pos..pos + payload_len];

        stream.launch(
            &KernelSpec::streaming("bitcomp::unpack_xor", payload_len as u64, (n * 8) as u64)
                .with_pattern(MemoryPattern::Streaming)
                .with_flops(n as u64),
            || {
                let mut r = BitReader::new(payload);
                out.clear();
                out.reserve(n);
                let mut prev = 0u64;
                let mut remaining = n;
                while remaining > 0 {
                    let len = remaining.min(BLOCK);
                    let width = r.read_bits(7)? as u32;
                    if width > 64 {
                        return Err(CodecError::Corrupt("bitcomp width out of range"));
                    }
                    if width <= 57 {
                        for res in unpack(&mut r, width, len)? {
                            prev ^= res;
                            out.push(f64::from_bits(prev));
                        }
                    } else {
                        for _ in 0..len {
                            let lo = r.read_bits(32)?;
                            let hi = r.read_bits(32)?;
                            prev ^= lo | (hi << 32);
                            out.push(f64::from_bits(prev));
                        }
                    }
                    remaining -= len;
                }
                Ok(())
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_model::DeviceSpec;
    use rand::{Rng, SeedableRng};

    fn stream() -> Stream {
        Stream::new(DeviceSpec::a100())
    }

    fn roundtrip(data: &[f64]) -> usize {
        let c = Bitcomp;
        let bytes = c.compress(data, ErrorBound::Abs(0.0), &stream()).unwrap();
        let rec = c.decompress(&bytes, &stream()).unwrap();
        assert_eq!(rec.len(), data.len());
        for (a, b) in data.iter().zip(&rec) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        bytes.len()
    }

    #[test]
    fn constant_runs_collapse() {
        let n = roundtrip(&vec![2.5f64; 65_536]);
        assert!(n < 1500, "constant data took {n} bytes");
    }

    #[test]
    fn assorted_roundtrips() {
        roundtrip(&[]);
        roundtrip(&[1.0]);
        roundtrip(&[f64::NAN, -0.0, f64::INFINITY]);
        let v: Vec<f64> = (0..1000).map(|i| i as f64 * 0.5).collect();
        roundtrip(&v);
    }

    #[test]
    fn random_mantissas_near_ratio_one() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(13);
        let v: Vec<f64> = (0..8192).map(|_| rng.gen_range(0.5..1.0)).collect();
        let n = roundtrip(&v);
        let cr = (v.len() * 8) as f64 / n as f64;
        // sign+exponent cancel via XOR; mantissa noise stays → CR slightly > 1
        assert!(cr > 0.95 && cr < 1.5, "CR={cr:.2}");
    }

    #[test]
    fn fastest_lossless_on_gpu_model() {
        let v: Vec<f64> = (0..(1 << 16)).map(|i| (i % 100) as f64).collect();
        let b = stream();
        Bitcomp.compress(&v, ErrorBound::Abs(0.0), &b).unwrap();
        let g = stream();
        crate::gdeflate::GDeflate
            .compress(&v, ErrorBound::Abs(0.0), &g)
            .unwrap();
        assert!(b.elapsed_s() < g.elapsed_s() / 4.0);
    }

    #[test]
    fn corrupt_stream_errors() {
        let v: Vec<f64> = (0..500).map(|i| i as f64).collect();
        let c = Bitcomp;
        let bytes = c.compress(&v, ErrorBound::Abs(0.0), &stream()).unwrap();
        for cut in [0, 1, 4, bytes.len() / 3] {
            assert!(c.decompress(&bytes[..cut], &stream()).is_err());
        }
    }
}
