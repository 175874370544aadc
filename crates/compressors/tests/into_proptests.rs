//! Buffer-reuse contract: for every compressor in the registry, the
//! `*_into` entry points must be bit-identical to their allocating
//! counterparts — even when the caller's output buffer arrives dirty and
//! oversized from a previous, unrelated call.
//!
//! Stream stability: the framed bytes of every registry codec and both QCF
//! modes on fixed inputs must match digests recorded from an earlier
//! revision, so a refactor of any encoder cannot silently change a format.

use compressors::registry::{all_compressors, decompress_any, decompress_any_into};
use compressors::ErrorBound;
use gpu_model::{DeviceSpec, Stream};
use proptest::prelude::*;

fn stream() -> Stream {
    Stream::new(DeviceSpec::a100())
}

/// Payloads spanning the regimes the codecs branch on.
fn f64_payload() -> impl Strategy<Value = Vec<f64>> {
    let val = prop_oneof![
        3 => (0u8..12).prop_map(|k| k as f64 * 0.07 - 0.4), // small alphabet
        2 => Just(0.0f64),
        2 => -1.0f64..1.0,
        1 => -1e5f64..1e5,
    ];
    prop::collection::vec(val, 0..600)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn compress_into_matches_compress_for_every_compressor(
        data in f64_payload(),
        garbage in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        let s = stream();
        for comp in all_compressors() {
            let fresh = comp.compress(&data, ErrorBound::Abs(1e-4), &s).unwrap();
            // Dirty, possibly oversized reused buffer.
            let mut reused = garbage.clone();
            reused.reserve(4096);
            comp.compress_into(&data, ErrorBound::Abs(1e-4), &s, &mut reused)
                .unwrap();
            prop_assert_eq!(
                &fresh, &reused,
                "compress_into diverges for {}", comp.name()
            );
        }
    }

    #[test]
    fn decompress_into_matches_decompress_for_every_compressor(
        data in f64_payload(),
        dirt in prop::collection::vec(-1e3f64..1e3, 0..128),
    ) {
        let s = stream();
        for comp in all_compressors() {
            let bytes = comp.compress(&data, ErrorBound::Abs(1e-4), &s).unwrap();
            let fresh = comp.decompress(&bytes, &s).unwrap();
            let mut reused = dirt.clone();
            comp.decompress_into(&bytes, &s, &mut reused).unwrap();
            prop_assert_eq!(
                fresh.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                reused.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "decompress_into diverges for {}", comp.name()
            );
            // Registry dispatch must agree too.
            let any_fresh = decompress_any(&bytes, &s).unwrap();
            let mut any_reused = dirt.clone();
            decompress_any_into(&bytes, &s, &mut any_reused).unwrap();
            prop_assert_eq!(
                any_fresh.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                any_reused.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "decompress_any_into diverges for {}", comp.name()
            );
        }
    }
}

/// Fixed inputs covering the codecs' main regimes: a smooth wave long
/// enough to span several Huffman chunks, a QAOA-like small alphabet with
/// runs of zeros, and wide-range pseudo-random values (LCG, no RNG crate).
/// The tiny inputs (2, 8 and 32 values, and a 130-value small alphabet)
/// are contraction-intermediate sized: they stay below one stage block, so
/// QCF encodes their planes serially, and the LZ77 matcher sees inputs of
/// a few hundred bytes at most. `motif128k` is the other end: 2^17 values
/// tiling a 64-value motif (zero runs plus a slope) scaled by a ramp that
/// steps every 4096 values, so each QCF plane holds several hundred
/// distinct codes (u16 dictionary indices) and its index stream is all
/// long, deep-chain LZ77 matches.
fn golden_inputs() -> [(&'static str, Vec<f64>); 8] {
    let wave = (0..10_000)
        .map(|i| (i as f64 * 0.013).sin() * 0.4)
        .collect();
    let alphabet = [0.0, 0.5, -0.5, 0.353_553_390_593_273_8, -0.25, 0.125];
    let sparse = (0..4_096usize)
        .map(|i| {
            if i % 7 < 3 {
                0.0
            } else {
                alphabet[(i * 5 + i / 64) % 6]
            }
        })
        .collect();
    let mut x = 0x2545_f491_4f6c_dd1du64;
    let noise = (0..1_000)
        .map(|_| {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            ((x >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 2e3
        })
        .collect();
    let tiny = |n: usize| (0..n).map(|i| (i as f64 * 0.7).cos() * 0.3).collect();
    let dict = (0..130usize)
        .map(|i| alphabet[(i * i + i / 3) % alphabet.len()])
        .collect();
    let motif = (0..1usize << 17)
        .map(|i| {
            let m = i % 64;
            if m % 16 < 5 {
                0.0
            } else {
                (m as f64 - 31.5) * 0.004 * (1.0 + (i >> 12) as f64 * 0.125)
            }
        })
        .collect();
    [
        ("wave", wave),
        ("sparse", sparse),
        ("noise", noise),
        ("tiny2", tiny(2)),
        ("tiny8", tiny(8)),
        ("tiny32", tiny(32)),
        ("dict130", dict),
        ("motif128k", motif),
    ]
}

/// FNV-1a, 64-bit.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// `(codec, input, framed length, fnv1a64)` of `compress(input, Abs(1e-4))`.
/// The streams are a persisted format (checkpoints, spill logs), so any
/// change here must be a deliberate format change.
const GOLDEN: &[(&str, &str, usize, u64)] = &[
    ("cuSZ", "wave", 7060, 0xceec44681fea4d37),
    ("cuSZ", "sparse", 7872, 0xfae7acc0a11efef2),
    ("cuSZ", "noise", 4940, 0xd87d24a964468f6d),
    ("cuSZ", "tiny2", 43, 0x2d6479e5aa201fcf),
    ("cuSZ", "tiny8", 63, 0x1dbdee8abf6832cb),
    ("cuSZ", "tiny32", 142, 0x991f0d34f98f46c4),
    ("cuSZ", "dict130", 302, 0xdd3e222d3ea0abcd),
    ("cuSZ", "motif128k", 113872, 0x11197a6f1d1ba91b),
    ("cuSZx", "wave", 15271, 0x086d6993d6a61c31),
    ("cuSZx", "sparse", 6965, 0xf23e6a6427af6e4e),
    ("cuSZx", "noise", 3096, 0x010445033e691b05),
    ("cuSZx", "tiny2", 35, 0x3e5fe3cc3da1f267),
    ("cuSZx", "tiny8", 44, 0x95a5f74a63e7007d),
    ("cuSZx", "tiny32", 80, 0x2d129a08d8f11f0f),
    ("cuSZx", "dict130", 250, 0xa0b57f1816253b53),
    ("cuSZx", "motif128k", 208795, 0x7ebcfaca09478458),
    ("cuZFP", "wave", 31278, 0xb9bc85dc4fadfd19),
    ("cuZFP", "sparse", 12745, 0x6b757162168ffa25),
    ("cuZFP", "noise", 4610, 0xfa8043a66bc5d785),
    ("cuZFP", "tiny2", 34, 0x0dcedc7068e76c19),
    ("cuZFP", "tiny8", 47, 0xe225863332b43b6e),
    ("cuZFP", "tiny32", 124, 0x861885770a3401d0),
    ("cuZFP", "dict130", 464, 0x40dac2828db167f8),
    ("cuZFP", "motif128k", 302969, 0x2e27ce36b6051804),
    ("LZ4", "wave", 80290, 0x6bfb37f8636564cd),
    ("LZ4", "sparse", 353, 0x4f9acde37517ea03),
    ("LZ4", "noise", 8048, 0xe3cb7f78e17a6f8d),
    ("LZ4", "tiny2", 28, 0x7d843687d2532d07),
    ("LZ4", "tiny8", 77, 0x77770e5392537772),
    ("LZ4", "tiny32", 270, 0x10088b326b94b003),
    ("LZ4", "dict130", 58, 0xa117f6f292d91bfc),
    ("LZ4", "motif128k", 12257, 0xb6dda97bbf989dc4),
    ("Snappy", "wave", 80088, 0x888e0c4f730fd6db),
    ("Snappy", "sparse", 1662, 0xa02c0c056171f591),
    ("Snappy", "noise", 8020, 0xa48a22092f56e490),
    ("Snappy", "tiny2", 29, 0xfef5e5233b21f8d8),
    ("Snappy", "tiny8", 77, 0x08f165a2fa44b787),
    ("Snappy", "tiny32", 272, 0x9d9323ca1fd8325c),
    ("Snappy", "dict130", 100, 0xff2ad272e01c7c68),
    ("Snappy", "motif128k", 57012, 0xe44c1574149a1e12),
    ("GDeflate", "wave", 76153, 0xbc4c7f3442d41ef7),
    ("GDeflate", "sparse", 575, 0xf4cc977ad4411140),
    ("GDeflate", "noise", 7873, 0xa1f5b786d9391606),
    ("GDeflate", "tiny2", 63, 0xe2ecf2bbcec01fa1),
    ("GDeflate", "tiny8", 195, 0x0ebb264c86879130),
    ("GDeflate", "tiny32", 513, 0xba054ec4b1206ea7),
    ("GDeflate", "dict130", 105, 0x3d09d937ae2cd59b),
    ("GDeflate", "motif128k", 12237, 0xa2169814f05630f1),
    ("Cascaded", "wave", 80014, 0xb8ae58ef593183fe),
    ("Cascaded", "sparse", 22951, 0xa8518a2ce0de0aaa),
    ("Cascaded", "noise", 8014, 0xd0e75eae42faa95c),
    ("Cascaded", "tiny2", 29, 0x6b47a2572e6b8428),
    ("Cascaded", "tiny8", 77, 0xaf4c6020cac31219),
    ("Cascaded", "tiny32", 269, 0x4abb97226e826f57),
    ("Cascaded", "dict130", 754, 0xbcd8e99202ad249c),
    ("Cascaded", "motif128k", 847900, 0x3501e26e10a9a1ad),
    ("Bitcomp", "wave", 74090, 0xfc25ace923056930),
    ("Bitcomp", "sparse", 32812, 0x3f775568f1132e01),
    ("Bitcomp", "noise", 8022, 0x09911d4ca09e057f),
    ("Bitcomp", "tiny2", 30, 0x7cff70de5ecd0fad),
    ("Bitcomp", "tiny8", 78, 0x7dc73ce0eec6776a),
    ("Bitcomp", "tiny32", 271, 0x4148a3ed0dcd9a64),
    ("Bitcomp", "dict130", 1057, 0x3bfb7e9809afa7bf),
    ("Bitcomp", "motif128k", 1049489, 0xef84330fe3f0a6d8),
    ("memcpy", "wave", 80013, 0x51c18164f38ccbb1),
    ("memcpy", "sparse", 32781, 0x1e9f3d83b0fe2f9a),
    ("memcpy", "noise", 8013, 0x6049c3f93a19275e),
    ("memcpy", "tiny2", 28, 0xfe9b8269969291ad),
    ("memcpy", "tiny8", 76, 0xfde054b63d1b4efe),
    ("memcpy", "tiny32", 268, 0xfdc25b891001579c),
    ("memcpy", "dict130", 1053, 0x2318abad475e29af),
    ("memcpy", "motif128k", 1048590, 0xa864fa9e66eb6c1a),
    ("QCF-ratio", "wave", 21668, 0xa2b9ab041cbccd5a),
    ("QCF-ratio", "sparse", 309, 0xb7e6c4a9f58fabcc),
    ("QCF-ratio", "noise", 5270, 0x7164e11125d75c3e),
    ("QCF-ratio", "tiny2", 79, 0x29f017f40190bc59),
    ("QCF-ratio", "tiny8", 99, 0x9ccb8f0b2f742ac8),
    ("QCF-ratio", "tiny32", 185, 0xcf1bea33b2aa68d8),
    ("QCF-ratio", "dict130", 126, 0xd4915d476167990b),
    ("QCF-ratio", "motif128k", 5500, 0x461aa1f5ed093cfe),
    ("QCF-speed", "wave", 22910, 0xd9efeb2b7d5771e5),
    ("QCF-speed", "sparse", 1315, 0x22f2d8872a3f2a28),
    ("QCF-speed", "noise", 4956, 0xa5810e341f18205f),
    ("QCF-speed", "tiny2", 51, 0xc25ec955e2ffee19),
    ("QCF-speed", "tiny8", 65, 0x5dfb4e6b5fc04ae3),
    ("QCF-speed", "tiny32", 127, 0x7c1031e1df319672),
    ("QCF-speed", "dict130", 120, 0x226cddc360e762d5),
    ("QCF-speed", "motif128k", 5371, 0xc86b35fc35b025b1),
];

#[test]
fn framed_streams_match_golden_digests() {
    let s = stream();
    let mut codecs = all_compressors();
    codecs.push(Box::new(qcf_core::QcfCompressor::ratio()));
    codecs.push(Box::new(qcf_core::QcfCompressor::speed()));
    let mut got = Vec::new();
    for comp in &codecs {
        for (input, data) in golden_inputs() {
            let bytes = comp.compress(&data, ErrorBound::Abs(1e-4), &s).unwrap();
            got.push((comp.name(), input, bytes.len(), fnv1a64(&bytes)));
        }
    }
    let table: String = got
        .iter()
        .map(|(c, i, len, h)| format!("    ({c:?}, {i:?}, {len}, {h:#018x}),\n"))
        .collect();
    assert!(
        got == GOLDEN,
        "framed streams differ from the golden digests; actual table:\n{table}"
    );
}

/// An encoder never emits a stream its own decoder rejects. On an input
/// with one NaN, every codec either refuses at compress or round-trips;
/// cuSZx (whose decoder rejects a non-finite block mean) and QCF-speed
/// (which falls back to cuSZx) must refuse.
#[test]
fn nan_input_is_refused_at_compress_or_round_trips() {
    let s = stream();
    let mut data: Vec<f64> = (0..300).map(|i| (i as f64 * 0.05).sin() * 0.5).collect();
    data[123] = f64::NAN;
    let mut codecs = all_compressors();
    codecs.push(Box::new(qcf_core::QcfCompressor::ratio()));
    codecs.push(Box::new(qcf_core::QcfCompressor::speed()));
    for comp in &codecs {
        match comp.compress(&data, ErrorBound::Abs(1e-4), &s) {
            Ok(bytes) => {
                assert!(
                    !["cuSZx", "QCF-speed"].contains(&comp.name()),
                    "{} accepted a NaN input",
                    comp.name()
                );
                let back = comp.decompress(&bytes, &s).unwrap_or_else(|e| {
                    panic!("{} emitted a stream it cannot decode: {e}", comp.name())
                });
                assert_eq!(back.len(), data.len(), "{}", comp.name());
            }
            Err(e) => eprintln!("{} refuses a NaN input: {e}", comp.name()),
        }
    }
}
