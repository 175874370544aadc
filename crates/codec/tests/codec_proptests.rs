//! Property tests over the codec primitives: anything in, same thing out.

use codec_kit::bitio::{BitReader, BitWriter};
use codec_kit::bitpack::{pack, required_width, unpack};
use codec_kit::chunked::{decode_chunk_at, decode_chunked, encode_chunked};
use codec_kit::huffman::{histogram, HuffmanDecoder, HuffmanEncoder};
use codec_kit::lz77::{expand, find_matches, LzConfig, LzToken};
use codec_kit::rle::{delta_decode, delta_encode, rle_decode, rle_encode};
use codec_kit::varint::{read_ivarint, read_uvarint, write_ivarint, write_uvarint};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

/// The matcher configurations in use: GDeflate (`gdeflate::deflate_bytes`,
/// which also codes QCF-ratio's index stream), LZ4 (`lz4_encode_block`),
/// Snappy (`snappy_encode`) and the default.
const LZ_CONFIGS: [(&str, LzConfig); 4] = [
    (
        "GDeflate",
        LzConfig {
            min_match: 4,
            max_match: 258,
            window: 32_768,
            max_chain: 64,
        },
    ),
    (
        "LZ4",
        LzConfig {
            min_match: 4,
            max_match: 1 << 20,
            window: 65_535,
            max_chain: 32,
        },
    ),
    (
        "Snappy",
        LzConfig {
            min_match: 4,
            max_match: 1 << 20,
            window: 65_535,
            max_chain: 32,
        },
    ),
    (
        "default",
        LzConfig {
            min_match: 4,
            max_match: 65_535,
            window: 65_535,
            max_chain: 32,
        },
    ),
];

/// The greedy hash-chain parse `find_matches` must reproduce token for
/// token, written one byte at a time: the same 15-bit multiplicative
/// `hash4`, `usize` chains in one dense head array, a byte-serial compare
/// of every candidate, and the same bounded insert of a match's region.
fn reference_parse(data: &[u8], cfg: &LzConfig) -> Vec<LzToken> {
    const NONE: usize = usize::MAX;
    let hash4 = |i: usize| {
        let v = u32::from_le_bytes([data[i], data[i + 1], data[i + 2], data[i + 3]]);
        (v.wrapping_mul(2_654_435_761) >> 17) as usize
    };
    let n = data.len();
    let mut head = vec![NONE; 1 << 15];
    let mut prev = vec![NONE; n];
    let mut tokens = Vec::new();
    let (mut lit_start, mut i) = (0, 0);
    while i + cfg.min_match <= n {
        let h = hash4(i);
        let (mut best_len, mut best_dist) = (0, 0);
        let mut cand = head[h];
        let mut depth = 0;
        while cand != NONE && depth < cfg.max_chain && i - cand <= cfg.window {
            let limit = (n - i).min(cfg.max_match);
            let mut l = 0;
            while l < limit && data[cand + l] == data[i + l] {
                l += 1;
            }
            if l > best_len {
                best_len = l;
                best_dist = i - cand;
                if l >= limit {
                    break;
                }
            }
            cand = prev[cand];
            depth += 1;
        }
        if best_len >= cfg.min_match {
            if i > lit_start {
                tokens.push(LzToken::Literal {
                    start: lit_start,
                    len: i - lit_start,
                });
            }
            tokens.push(LzToken::Match {
                len: best_len,
                dist: best_dist,
            });
            let end = i + best_len;
            let insert_end = end.min(i + 256).min(n + 1 - cfg.min_match);
            while i < insert_end {
                let h = hash4(i);
                prev[i] = head[h];
                head[h] = i;
                i += 1;
            }
            i = end;
            lit_start = end;
        } else {
            prev[i] = head[h];
            head[h] = i;
            i += 1;
        }
    }
    if n > lit_start {
        tokens.push(LzToken::Literal {
            start: lit_start,
            len: n - lit_start,
        });
    }
    tokens
}

/// `len` bytes of one of four shapes, drawn from `seed`: 0 a u8 index
/// stream (a motif over a small alphabet with zero runs and rare edits),
/// 1 the same as a u16 little-endian stream over 600 symbols, 2 a period
/// of 1 to 8 bytes with rare breaks (overlapping `dist < 8` matches and
/// runs past every `max_match`), 3 noise.
fn lz_input(shape: u8, len: usize, seed: u64) -> Vec<u8> {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    let edited = |v: u16, rng: &mut rand_chacha::ChaCha8Rng, max: u16| {
        if rng.gen_range(0..100u32) == 0 {
            rng.gen_range(0..max)
        } else {
            v
        }
    };
    match shape {
        0 | 1 => {
            let max = if shape == 0 { 12 } else { 600 };
            let period = rng.gen_range(1..200usize);
            let motif: Vec<u16> = (0..period)
                .map(|_| {
                    if rng.gen_bool(0.4) {
                        0
                    } else {
                        rng.gen_range(0..max)
                    }
                })
                .collect();
            let symbols: Vec<u16> = (0..len)
                .map(|i| edited(motif[i % period], &mut rng, max))
                .collect();
            if shape == 0 {
                symbols.iter().map(|&v| v as u8).collect()
            } else {
                symbols
                    .iter()
                    .flat_map(|v| v.to_le_bytes())
                    .take(len)
                    .collect()
            }
        }
        2 => {
            let base: Vec<u8> = (0..rng.gen_range(1..9usize)).map(|_| rng.gen()).collect();
            (0..len)
                .map(|i| {
                    if rng.gen_range(0..1000u32) == 0 {
                        rng.gen()
                    } else {
                        base[i % base.len()]
                    }
                })
                .collect()
        }
        _ => (0..len).map(|_| rng.gen()).collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn varints_roundtrip(values in prop::collection::vec(any::<u64>(), 0..200)) {
        let mut buf = Vec::new();
        for &v in &values {
            write_uvarint(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &values {
            prop_assert_eq!(read_uvarint(&buf, &mut pos).unwrap(), v);
        }
        prop_assert_eq!(pos, buf.len());
    }

    #[test]
    fn ivarints_roundtrip(values in prop::collection::vec(any::<i64>(), 0..200)) {
        let mut buf = Vec::new();
        for &v in &values {
            write_ivarint(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &values {
            prop_assert_eq!(read_ivarint(&buf, &mut pos).unwrap(), v);
        }
    }

    #[test]
    fn bitio_roundtrips_any_width_sequence(
        items in prop::collection::vec((any::<u64>(), 0u32..=57), 0..500)
    ) {
        let mut w = BitWriter::new();
        for &(v, n) in &items {
            w.write_bits(v, n);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &(v, n) in &items {
            let want = if n == 0 { 0 } else { v & ((1u64 << n) - 1) };
            prop_assert_eq!(r.read_bits(n).unwrap(), want);
        }
    }

    #[test]
    fn bitpack_roundtrips(values in prop::collection::vec(0u64..(1 << 40), 0..300)) {
        let width = required_width(&values);
        let mut w = BitWriter::new();
        pack(&values, width, &mut w);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        prop_assert_eq!(unpack(&mut r, width, values.len()).unwrap(), values);
    }

    #[test]
    fn rle_roundtrips(values in prop::collection::vec(0u32..50, 0..400)) {
        let mut buf = Vec::new();
        rle_encode(&values, &mut buf);
        let mut pos = 0;
        prop_assert_eq!(rle_decode(&buf, &mut pos).unwrap(), values);
    }

    #[test]
    fn delta_roundtrips(values in prop::collection::vec(any::<u32>(), 0..400)) {
        let mut v = values.clone();
        delta_encode(&mut v);
        delta_decode(&mut v);
        prop_assert_eq!(v, values);
    }

    #[test]
    fn lz77_expand_inverts_parse(data in prop::collection::vec(any::<u8>(), 0..2000)) {
        let tokens = find_matches(&data, &LzConfig::default());
        prop_assert_eq!(expand(&tokens, &data), data);
    }

    #[test]
    fn lz77_periodic_data(period in 1usize..32, reps in 1usize..64) {
        let data: Vec<u8> = (0..period * reps).map(|i| (i % period) as u8).collect();
        let tokens = find_matches(&data, &LzConfig::default());
        prop_assert_eq!(expand(&tokens, &data), data);
    }

    #[test]
    fn lz77_parse_matches_byte_at_a_time_reference(
        shape in 0u8..4,
        // tiny, both sides of the sparse/dense head crossover (2048 B),
        // and long enough for deep chains
        len in prop_oneof![
            0usize..64,
            Just(2047usize),
            Just(2048usize),
            Just(2049usize),
            1900usize..2200,
            4000usize..20_000,
        ],
        seed in any::<u64>(),
    ) {
        let data = lz_input(shape, len, seed);
        for (name, cfg) in &LZ_CONFIGS {
            let tokens = find_matches(&data, cfg);
            prop_assert_eq!(&tokens, &reference_parse(&data, cfg), "{} shape {} len {}", name, shape, len);
        }
    }

    #[test]
    fn huffman_roundtrips_any_symbols(
        symbols in prop::collection::vec(0u32..300, 1..3000)
    ) {
        let freqs = histogram(&symbols, 300);
        let enc = HuffmanEncoder::from_freqs(&freqs);
        let mut header = Vec::new();
        enc.write_table(&mut header);
        let mut w = BitWriter::new();
        enc.encode_all(&mut w, &symbols);
        let payload = w.finish();

        let mut pos = 0;
        let dec = HuffmanDecoder::read_table(&header, &mut pos).unwrap();
        let mut r = BitReader::new(&payload);
        prop_assert_eq!(dec.decode_all(&mut r, symbols.len()).unwrap(), symbols);
    }

    #[test]
    fn chunked_huffman_roundtrips(
        symbols in prop::collection::vec(0u32..64, 0..5000),
        chunk in 1usize..1500,
    ) {
        let enc = encode_chunked(&symbols, 64, chunk);
        prop_assert_eq!(decode_chunked(&enc).unwrap(), symbols.clone());
        // Spot-check a random-access chunk.
        if !symbols.is_empty() {
            let k = (symbols.len() / chunk.max(1)).saturating_sub(1);
            let piece = decode_chunk_at(&enc, k).unwrap();
            let lo = k * chunk;
            let hi = (lo + chunk).min(symbols.len());
            prop_assert_eq!(piece, symbols[lo..hi].to_vec());
        }
    }

    #[test]
    fn decoders_survive_arbitrary_garbage(garbage in prop::collection::vec(any::<u8>(), 0..300)) {
        // None of these may panic; errors are fine, and any accidental
        // success must at least return something well-formed.
        let mut pos = 0;
        let _ = read_uvarint(&garbage, &mut pos);
        let mut pos = 0;
        let _ = rle_decode(&garbage, &mut pos);
        let _ = decode_chunked(&garbage);
        let mut pos = 0;
        let _ = HuffmanDecoder::read_table(&garbage, &mut pos);
    }
}

/// The cases the word-at-a-time compare has to get right, enumerated
/// rather than drawn: runs of every period from 1 to 9 bytes (match
/// distances below and at one word), each long enough to hit GDeflate's
/// 258-byte cap, followed by every tail length from 0 to 9 bytes, so
/// matches end inside the last word and at the input's end. The test
/// also checks that those cases occurred.
#[test]
fn lz77_parse_matches_reference_on_runs_and_short_tails() {
    let (mut capped, mut overlapping) = (false, false);
    for period in 1..=9usize {
        for tail in 0..=9usize {
            let mut data: Vec<u8> = (0..600)
                .map(|i| ((i % period) as u8).wrapping_mul(37).wrapping_add(1))
                .collect();
            data.extend((0..tail).map(|k| (k as u8).wrapping_mul(101)));
            for (name, cfg) in &LZ_CONFIGS {
                let tokens = find_matches(&data, cfg);
                assert_eq!(
                    tokens,
                    reference_parse(&data, cfg),
                    "{name}: period {period}, tail {tail}"
                );
                assert_eq!(expand(&tokens, &data), data);
                for t in &tokens {
                    if let LzToken::Match { len, dist } = *t {
                        capped |= len == cfg.max_match;
                        overlapping |= dist < 8 && len > dist;
                    }
                }
            }
        }
    }
    assert!(capped, "no match reached max_match");
    assert!(overlapping, "no overlapping match with dist < 8");
}
