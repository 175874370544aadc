//! Bit-identity proofs for the width-8 vectorized codec kernels against
//! their scalar references, on adversarial inputs: NaN, infinities,
//! subnormals, values whose quantized magnitude saturates `i64`, and
//! ordinary amplitude-like payloads.
//!
//! The scalar functions (`dual_quant_scalar`, `encode_block_scalar`,
//! `decode_block_scalar`) are the format definition; the unrolled kernels
//! must reproduce their output bit for bit at every length (lane-multiple
//! and ragged tails alike) and every worker count (the chunked
//! `dual_quant_into` re-derives each chunk's carry from the raw input).

use codec_kit::bitio::{BitReader, BitWriter};
use compressors::cusz::{dual_quant_into, dual_quant_scalar};
use compressors::cuszx::{
    block_mean, decode_block, decode_block_scalar, encode_block, encode_block_scalar,
};
use proptest::prelude::*;

/// One f64 drawn from the regions that break naive vectorization: the
/// edges of the finite range, non-finite payloads, subnormals, and the
/// ordinary near-zero amplitudes quantum states are full of.
fn edge_f64() -> impl Strategy<Value = f64> {
    prop_oneof![
        4 => -1.0f64..1.0,
        2 => -1e-7f64..1e-7,
        1 => Just(0.0f64),
        1 => Just(-0.0f64),
        1 => Just(f64::NAN),
        1 => Just(f64::INFINITY),
        1 => Just(f64::NEG_INFINITY),
        1 => Just(f64::MIN_POSITIVE / 2.0), // subnormal
        1 => Just(1e300f64),                // quantizes past i64::MAX
        1 => Just(-1e300f64),
        1 => Just(f64::MAX),
        1 => Just(f64::MIN),
    ]
}

fn payload() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(edge_f64(), 0..700)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn dual_quant_vector_matches_scalar(
        data in payload(),
        twoeb in prop_oneof![Just(2e-4f64), Just(2e-8f64), Just(2e-300f64)],
        radius in prop_oneof![Just(16i64), Just(512i64)],
    ) {
        let (ref_syms, ref_outliers) = dual_quant_scalar(&data, twoeb, radius);
        let mut syms = vec![0u32; data.len()];
        let outliers = dual_quant_into(&data, twoeb, radius, &mut syms);
        prop_assert_eq!(syms, ref_syms);
        prop_assert_eq!(outliers, ref_outliers);
    }

    #[test]
    fn szx_encode_vector_matches_scalar(
        data in payload(),
        bs in prop_oneof![Just(16usize), Just(128usize), Just(333usize)],
        eb in prop_oneof![Just(1e-4f64), Just(1e-300f64)],
    ) {
        // Per block: the same bytes, or the same refusal (a non-finite
        // mean) with nothing written.
        let twoeb = 2.0 * eb;
        let mut wr = BitWriter::new();
        let mut wv = BitWriter::new();
        let mut scratch = vec![0u64; bs];
        for block in data.chunks(bs) {
            let res_ref = encode_block_scalar(block, eb, twoeb, &mut wr);
            let res_vec = encode_block(block, eb, twoeb, &mut scratch, &mut wv);
            prop_assert_eq!(res_vec, res_ref);
        }
        prop_assert_eq!(wv.finish(), wr.finish());
    }

    #[test]
    fn szx_decode_vector_matches_scalar(
        data in payload(),
        bs in prop_oneof![Just(16usize), Just(128usize), Just(333usize)],
        eb in prop_oneof![Just(1e-4f64), Just(1e-300f64)],
    ) {
        // Encode finite-mean blocks only: a non-finite mean is rejected by
        // both decoders identically, which the error branch below checks.
        let twoeb = 2.0 * eb;
        let mut w = BitWriter::new();
        let mut scratch = vec![0u64; bs];
        let mut lens = Vec::new();
        for block in data.chunks(bs) {
            if block_mean(block).is_finite() {
                encode_block(block, eb, twoeb, &mut scratch, &mut w).unwrap();
                lens.push(block.len());
            }
        }
        let bytes = w.finish();
        let mut rr = BitReader::new(&bytes);
        let mut rv = BitReader::new(&bytes);
        let mut dref = Vec::new();
        let mut dvec = Vec::new();
        for &len in &lens {
            decode_block_scalar(&mut rr, len, twoeb, &mut dref).unwrap();
            decode_block(&mut rv, len, twoeb, &mut dvec).unwrap();
        }
        prop_assert_eq!(dvec.len(), dref.len());
        for (v, r) in dvec.iter().zip(&dref) {
            prop_assert_eq!(v.to_bits(), r.to_bits());
        }
    }

    #[test]
    fn szx_decoders_reject_corruption_identically(
        bytes in prop::collection::vec(any::<u8>(), 0..200),
        len in 1usize..64,
    ) {
        let mut rr = BitReader::new(&bytes);
        let mut rv = BitReader::new(&bytes);
        let mut dref = Vec::new();
        let mut dvec = Vec::new();
        let res_ref = decode_block_scalar(&mut rr, len, 2e-4, &mut dref);
        let res_vec = decode_block(&mut rv, len, 2e-4, &mut dvec);
        prop_assert_eq!(res_ref.is_err(), res_vec.is_err());
        if res_ref.is_ok() {
            prop_assert_eq!(dvec.len(), dref.len());
            for (v, r) in dvec.iter().zip(&dref) {
                prop_assert_eq!(v.to_bits(), r.to_bits());
            }
        }
    }
}
