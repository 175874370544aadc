//! The quantization-dictionary stage (P3) — the framework's biggest lever.
//!
//! Measured QTensor intermediates (experiment E1) contain very few distinct
//! values: entries are sums of products of a handful of gate-matrix entries,
//! so a tensor of thousands of elements typically holds only dozens to a few
//! hundred distinct values, scattered (not blocked). Generic predictors see
//! high-entropy deltas; a *dictionary* sees a tiny alphabet.
//!
//! The stage quantizes every value to `q = round(v / 2eb)` — an
//! error-bounded map (`|v − q·2eb| ≤ eb`) that also merges near-duplicates
//! — then stores the distinct `q`s once and codes the index stream:
//!
//! * **Ratio flavour**: the index stream (u8 when D ≤ 256, else u16) runs
//!   through the DEFLATE-style byte codec — Huffman captures the alphabet
//!   skew and LZ77 captures the strong *positional* repetition tensor
//!   slices exhibit; zero-heavy or periodic streams go far below 1
//!   bit/value.
//! * **Speed flavour**: a frequency-sorted *hot/cold* two-level code — the
//!   `2^b` most frequent symbols cost `1 + b` bits, the rest `1 + ⌈log₂ D⌉`
//!   bits — optionally fronted by a *stride predictor*: tensor slices tile
//!   short patterns, so `idx[i] == idx[i − L]` for the innermost repeat
//!   stride `L` (and trivially inside near-zero regions). Matches are
//!   run-length coded (9 bits per ≤256-run), misses fall back to the
//!   hot/cold code. The encoder counts hits for a few candidate strides,
//!   computes the exact bit cost of all three layouts (plain fixed-width,
//!   hot/cold, stride-RLE) and picks the smallest — all single-pass,
//!   block-parallel work of the same shape as cuSZx's constant-block
//!   detection.
//!
//! The code table follows cuSZ, which counts bounded integer codes in a
//! dense array: a plane's codes usually span a few thousand integers
//! (tn-p2-large planes: 2,308 at p50, 8,996 at most), so [`quantize`]
//! first finds that span and, when it is narrow (at most twice the plane
//! length and at most 2^14 slots), assigns table indices through a dense
//! slot array indexed by `q − min`. A wider span goes through a hash map.
//! Either way the table is in first-occurrence order, so the emitted
//! stream does not depend on which one ran.
//!
//! When the distinct count exceeds [`DICT_CAP`] the stage reports
//! inapplicable and the framework falls back to its backend compressor.

use codec_kit::bitio::{BitReader, BitWriter};
use codec_kit::bitpack::unpack;
use codec_kit::varint::{read_ivarint, read_uvarint, write_ivarint, write_uvarint};
use codec_kit::CodecError;
use compressors::gdeflate::{deflate_bytes, inflate_bytes};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Maximum dictionary entries before the stage declares inapplicability.
pub const DICT_CAP: usize = 4096;

/// Quantized representation: distinct codes + per-value index.
#[derive(Debug, Clone, PartialEq)]
pub struct Quantized {
    /// Distinct quantization codes, first-occurrence order.
    pub table: Vec<i64>,
    /// Per-value index into `table`.
    pub indices: Vec<u32>,
    /// Index of code 0 in `table`, if present.
    pub zero_index: Option<u32>,
}

/// Codes whose magnitude reaches this lose integer exactness in `f64`
/// (it is just below 2^52); a plane holding one is refused.
const CODE_LIMIT: f64 = 4.5e15;

/// Widest code span (`max − min + 1`) the direct-indexed table serves: a
/// 64 KiB table. Spans measured on tn-p2-large planes were 2,308 at p50,
/// 5,001 at p90 and 8,996 at most, so every measured plane fits; a wider
/// span falls back to the hashed map.
const DIRECT_MAX_SPAN: u64 = 1 << 14;

/// Quantizes a plane at bound `eb`; `None` when the dictionary would
/// overflow [`DICT_CAP`] or a code would overflow the safe integer range.
///
/// A first pass finds the code range. When the span is at most twice the
/// plane length (so the `u32` slot table is no bigger than the plane) and
/// at most 2^14 slots, codes index a dense table by `q − min`; otherwise
/// they go through a hash map. Both give the same result.
pub fn quantize(plane: &[f64], eb: f64) -> Option<Quantized> {
    debug_assert!(eb > 0.0);
    let twoeb = 2.0 * eb;
    let (lo, hi) = code_range(plane, twoeb)?;
    let span = hi.abs_diff(lo) + 1;
    if direct_table_fits(span, plane.len()) {
        build(plane, twoeb, DirectCodes::new(lo, span as usize))
    } else {
        build(plane, twoeb, HashedCodes::default())
    }
}

/// Whether a plane of `len` values whose codes span `span` slots takes
/// the direct-indexed table.
fn direct_table_fits(span: u64, len: usize) -> bool {
    span <= DIRECT_MAX_SPAN.min(2 * len as u64)
}

/// `(min, max)` code of the plane (`(0, 0)` when empty), or `None` when a
/// value is NaN or its code reaches [`CODE_LIMIT`]. Division by the
/// positive `twoeb` and rounding are both monotone, so only the extreme
/// values need scaling (an infinite one scales to ±∞ or NaN and is
/// refused like any other).
fn code_range(plane: &[f64], twoeb: f64) -> Option<(i64, i64)> {
    let Some(&first) = plane.first() else {
        return Some((0, 0));
    };
    let (mut lo, mut hi, mut nan) = (first, first, false);
    for &v in plane {
        lo = if v < lo { v } else { lo };
        hi = if v > hi { v } else { hi };
        nan |= v.is_nan();
    }
    let (lo, hi) = (lo / twoeb, hi / twoeb);
    // also false for NaN
    if nan || !(lo > -CODE_LIMIT && hi < CODE_LIMIT) {
        return None;
    }
    Some((round_code(lo), round_code(hi)))
}

/// `scaled.round() as i64` (half away from zero) for `|scaled| <
/// CODE_LIMIT`, without the libm call: truncation is exact below 2^52,
/// and so is the fraction `scaled − trunc`.
#[inline]
fn round_code(scaled: f64) -> i64 {
    let t = scaled as i64;
    let frac = scaled - t as f64;
    t + (frac >= 0.5) as i64 - (frac <= -0.5) as i64
}

/// Code → table index, in first-occurrence order.
trait CodeIndex {
    /// The index stored for `q`, storing `next` first when `q` is new.
    fn index_or_insert(&mut self, q: i64, next: u32) -> u32;
    /// The index stored for `q`, if any.
    fn get(&self, q: i64) -> Option<u32>;
}

/// One `u32` slot per code in `[lo, lo + span)`; `u32::MAX` is empty.
struct DirectCodes {
    lo: i64,
    slots: Vec<u32>,
}

impl DirectCodes {
    fn new(lo: i64, span: usize) -> Self {
        DirectCodes {
            lo,
            slots: vec![u32::MAX; span],
        }
    }
}

impl CodeIndex for DirectCodes {
    #[inline]
    fn index_or_insert(&mut self, q: i64, next: u32) -> u32 {
        let slot = &mut self.slots[q.abs_diff(self.lo) as usize];
        if *slot == u32::MAX {
            *slot = next;
        }
        *slot
    }

    fn get(&self, q: i64) -> Option<u32> {
        let slot = usize::try_from(q.checked_sub(self.lo)?).ok()?;
        self.slots.get(slot).copied().filter(|&i| i != u32::MAX)
    }
}

/// Multiplicative hash of one `i64` code; SipHash's flooding resistance
/// buys nothing for codes computed from the plane itself.
#[derive(Default)]
struct CodeHasher(u64);

impl Hasher for CodeHasher {
    fn finish(&self) -> u64 {
        // hashbrown buckets by the low bits: bring the well-mixed high
        // bits of the product down
        self.0.rotate_left(26)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    fn write_i64(&mut self, v: i64) {
        self.write_u64(v as u64);
    }
}

#[derive(Default)]
struct HashedCodes(HashMap<i64, u32, BuildHasherDefault<CodeHasher>>);

impl CodeIndex for HashedCodes {
    #[inline]
    fn index_or_insert(&mut self, q: i64, next: u32) -> u32 {
        *self.0.entry(q).or_insert(next)
    }

    fn get(&self, q: i64) -> Option<u32> {
        self.0.get(&q).copied()
    }
}

/// The quantize pass proper, over a plane [`code_range`] accepted.
fn build(plane: &[f64], twoeb: f64, mut codes: impl CodeIndex) -> Option<Quantized> {
    let mut table: Vec<i64> = Vec::new();
    let mut indices: Vec<u32> = Vec::with_capacity(plane.len());
    for &v in plane {
        let q = round_code(v / twoeb);
        let next = table.len() as u32;
        let idx = codes.index_or_insert(q, next);
        if idx == next {
            if table.len() == DICT_CAP {
                return None;
            }
            table.push(q);
        }
        indices.push(idx);
    }
    Some(Quantized {
        zero_index: codes.get(0),
        table,
        indices,
    })
}

fn write_table(table: &[i64], eb: f64, out: &mut Vec<u8>) {
    out.extend_from_slice(&eb.to_le_bytes());
    write_uvarint(out, table.len() as u64);
    for &q in table {
        write_ivarint(out, q);
    }
}

fn read_table(data: &[u8], pos: &mut usize) -> Result<(Vec<i64>, f64), CodecError> {
    if data.len() < *pos + 8 {
        return Err(CodecError::UnexpectedEof);
    }
    let eb = f64::from_le_bytes(data[*pos..*pos + 8].try_into().unwrap());
    *pos += 8;
    if eb.is_nan() || eb <= 0.0 || !eb.is_finite() {
        return Err(CodecError::Corrupt("bad dictionary error bound"));
    }
    let d = read_uvarint(data, pos)? as usize;
    if d == 0 || d > DICT_CAP {
        return Err(CodecError::Corrupt("dictionary size out of range"));
    }
    let mut table = Vec::with_capacity(d);
    for _ in 0..d {
        table.push(read_ivarint(data, pos)?);
    }
    Ok((table, eb))
}

/// Ratio flavour: dictionary + DEFLATE-coded index stream. Huffman inside
/// the byte codec captures symbol skew; LZ77 captures positional repetition
/// (tensor slices repeat their index patterns wholesale).
pub fn encode_ratio(q: &Quantized, eb: f64, out: &mut Vec<u8>) {
    write_uvarint(out, q.indices.len() as u64);
    write_table(&q.table, eb, out);
    let wide = q.table.len() > 256;
    out.push(wide as u8);
    let bytes: Vec<u8> = if wide {
        q.indices
            .iter()
            .flat_map(|&i| (i as u16).to_le_bytes())
            .collect()
    } else {
        q.indices.iter().map(|&i| i as u8).collect()
    };
    out.extend_from_slice(&deflate_bytes(&bytes));
}

/// Decodes [`encode_ratio`] back to plane values.
pub fn decode_ratio(data: &[u8], pos: &mut usize) -> Result<Vec<f64>, CodecError> {
    let n = read_uvarint(data, pos)? as usize;
    if n > 1 << 40 {
        return Err(CodecError::Corrupt("absurd dictionary element count"));
    }
    if n > (1 << 16) + data.len().saturating_mul(1 << 23) {
        return Err(CodecError::Corrupt(
            "declared length exceeds remaining input",
        ));
    }
    let (table, eb) = read_table(data, pos)?;
    let wide = *data.get(*pos).ok_or(CodecError::UnexpectedEof)?;
    *pos += 1;
    if wide > 1 {
        return Err(CodecError::Corrupt("bad index-width flag"));
    }
    let per = if wide == 1 { 2usize } else { 1 };
    let raw = inflate_bytes(data, pos, n * per)?;
    let twoeb = 2.0 * eb;
    let lookup = |idx: usize| -> Result<f64, CodecError> {
        table
            .get(idx)
            .map(|&q| q as f64 * twoeb)
            .ok_or(CodecError::Corrupt("dictionary index out of range"))
    };
    if wide == 1 {
        raw.chunks_exact(2)
            .map(|c| lookup(u16::from_le_bytes([c[0], c[1]]) as usize))
            .collect()
    } else {
        raw.iter().map(|&b| lookup(b as usize)).collect()
    }
}

/// Speed flavour: frequency-sorted dictionary + hot/cold two-level code.
///
/// The table is permuted so the most frequent symbol has index 0; the
/// stream stores the permuted table, so decode needs no side information
/// beyond the chosen hot width `b`.
pub fn encode_speed(q: &Quantized, eb: f64, out: &mut Vec<u8>) {
    let n = q.indices.len();
    let d = q.table.len();
    write_uvarint(out, n as u64);

    // Frequency-sort the table and remap indices.
    let mut freqs = vec![0u64; d];
    for &idx in &q.indices {
        freqs[idx as usize] += 1;
    }
    let mut order: Vec<u32> = (0..d as u32).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(freqs[i as usize]));
    let mut remap = vec![0u32; d];
    let mut sorted_table = Vec::with_capacity(d);
    let mut sorted_freqs = Vec::with_capacity(d);
    for (new, &old) in order.iter().enumerate() {
        remap[old as usize] = new as u32;
        sorted_table.push(q.table[old as usize]);
        sorted_freqs.push(freqs[old as usize]);
    }
    write_table(&sorted_table, eb, out);

    // Hot/cold width minimizing that layout's bits.
    let full = index_width(d);
    let prefix: Vec<u64> = sorted_freqs
        .iter()
        .scan(0u64, |acc, &f| {
            *acc += f;
            Some(*acc)
        })
        .collect();
    let plain_cost = n as u64 * full as u64;
    let mut hot_choice: Option<(u32, u64)> = None;
    for b in 0..full {
        let hot_syms = (1usize << b).min(d);
        let hot = prefix[hot_syms - 1];
        let cold = n as u64 - hot;
        let cost = n as u64 + hot * b as u64 + cold * full as u64;
        if hot_choice.is_none_or(|(_, c)| cost < c) {
            hot_choice = Some((b, cost));
        }
    }
    let (b, hot_cost) = hot_choice.unwrap_or((0, plain_cost));

    // Stride predictor: pick the lag with the most idx[i] == idx[i-L] hits
    // (out-of-range predecessors predict index 0, the top symbol).
    let remapped: Vec<u32> = q.indices.iter().map(|&i| remap[i as usize]).collect();
    // Power-of-two candidate strides up to 4096 — tensor dims are powers of
    // two, so the innermost repeated extent is one of these.
    const LAGS: [usize; 13] = [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096];
    let mut best_lag = 1usize;
    let mut best_hits = 0u64;
    for &lag in &LAGS {
        let hits = remapped
            .iter()
            .enumerate()
            .filter(|&(i, &idx)| idx == if i >= lag { remapped[i - lag] } else { 0 })
            .count() as u64;
        if hits > best_hits {
            best_hits = hits;
            best_lag = lag;
        }
    }
    // Hot width for the misses alone.
    let mut miss_freqs = vec![0u64; d];
    let mut miss_total = 0u64;
    for (i, &idx) in remapped.iter().enumerate() {
        let pred = if i >= best_lag {
            remapped[i - best_lag]
        } else {
            0
        };
        if idx != pred {
            miss_freqs[idx as usize] += 1;
            miss_total += 1;
        }
    }
    let miss_prefix: Vec<u64> = miss_freqs
        .iter()
        .scan(0u64, |acc, &f| {
            *acc += f;
            Some(*acc)
        })
        .collect();
    let mut stride_choice: Option<(u32, u64)> = None;
    for sb in 0..=full {
        let hot_syms = (1usize << sb).min(d);
        let hot = miss_prefix[hot_syms.max(1) - 1];
        let cold = miss_total - hot;
        // Miss bits only; the match-run chunk cost is added below once the
        // exact run count is known (it does not depend on sb).
        let cost = miss_total * 2 + hot * sb as u64 + cold * full as u64;
        if stride_choice.is_none_or(|(_, c)| cost < c) {
            stride_choice = Some((sb, cost));
        }
    }
    let (sb, miss_cost) = stride_choice.unwrap_or((0, u64::MAX));
    // Count match runs exactly for the run-chunk cost.
    let mut run_chunks = 0u64;
    {
        let mut i = 0usize;
        while i < n {
            let pred = if i >= best_lag {
                remapped[i - best_lag]
            } else {
                0
            };
            if remapped[i] == pred {
                let mut run = 1usize;
                while i + run < n {
                    let j = i + run;
                    let pred = if j >= best_lag {
                        remapped[j - best_lag]
                    } else {
                        0
                    };
                    if remapped[j] != pred {
                        break;
                    }
                    run += 1;
                }
                run_chunks += run.div_ceil(256) as u64;
                i += run;
            } else {
                i += 1;
            }
        }
    }
    let stride_cost = 9 * run_chunks + miss_cost;

    let mut w = BitWriter::with_capacity(n / 4 + 16);
    if stride_cost < hot_cost.min(plain_cost) {
        out.push(2);
        out.push(sb as u8);
        out.push(best_lag.trailing_zeros() as u8); // lag stored as exponent
        let hot_limit = 1u32 << sb;
        let mut i = 0usize;
        while i < n {
            let pred = if i >= best_lag {
                remapped[i - best_lag]
            } else {
                0
            };
            if remapped[i] == pred {
                let mut run = 1usize;
                while i + run < n {
                    let j = i + run;
                    let pred = if j >= best_lag {
                        remapped[j - best_lag]
                    } else {
                        0
                    };
                    if remapped[j] != pred {
                        break;
                    }
                    run += 1;
                }
                let mut rest = run;
                while rest > 0 {
                    let chunk = rest.min(256);
                    w.write_bit(false);
                    w.write_bits((chunk - 1) as u64, 8);
                    rest -= chunk;
                }
                i += run;
            } else {
                w.write_bit(true);
                let idx = remapped[i];
                if idx < hot_limit {
                    w.write_bit(false);
                    w.write_bits(idx as u64, sb);
                } else {
                    w.write_bit(true);
                    w.write_bits(idx as u64, full);
                }
                i += 1;
            }
        }
    } else if hot_cost < plain_cost {
        out.push(1);
        out.push(b as u8);
        let hot_limit = 1u32 << b;
        for &idx in &remapped {
            if idx < hot_limit {
                w.write_bit(false);
                w.write_bits(idx as u64, b);
            } else {
                w.write_bit(true);
                w.write_bits(idx as u64, full);
            }
        }
    } else {
        out.push(0);
        for &idx in &remapped {
            w.write_bits(idx as u64, full);
        }
    }
    let payload = w.finish();
    write_uvarint(out, payload.len() as u64);
    out.extend_from_slice(&payload);
}

/// Decodes [`encode_speed`].
pub fn decode_speed(data: &[u8], pos: &mut usize) -> Result<Vec<f64>, CodecError> {
    let n = read_uvarint(data, pos)? as usize;
    if n > 1 << 40 {
        return Err(CodecError::Corrupt("absurd dictionary element count"));
    }
    if n > (1 << 16) + data.len().saturating_mul(1 << 23) {
        return Err(CodecError::Corrupt(
            "declared length exceeds remaining input",
        ));
    }
    let (table, eb) = read_table(data, pos)?;
    let mode = *data.get(*pos).ok_or(CodecError::UnexpectedEof)?;
    *pos += 1;
    let full = index_width(table.len());
    let twoeb = 2.0 * eb;

    let lookup = |idx: u64| -> Result<f64, CodecError> {
        table
            .get(idx as usize)
            .map(|&q| q as f64 * twoeb)
            .ok_or(CodecError::Corrupt("dictionary index out of range"))
    };

    match mode {
        1 => {
            let b = *data.get(*pos).ok_or(CodecError::UnexpectedEof)? as u32;
            *pos += 1;
            if b >= 32 {
                return Err(CodecError::Corrupt("hot width out of range"));
            }
            let payload_len = read_uvarint(data, pos)? as usize;
            if data.len() < *pos + payload_len {
                return Err(CodecError::UnexpectedEof);
            }
            let mut r = BitReader::new(&data[*pos..*pos + payload_len]);
            *pos += payload_len;
            // every symbol costs ≥ 1 payload bit — reject forged counts
            // before reserving
            if n > payload_len.saturating_mul(8) {
                return Err(CodecError::Corrupt("declared length exceeds payload"));
            }
            let mut out = Vec::with_capacity(n);
            for _ in 0..n {
                let cold = r.read_bit()?;
                let idx = if cold {
                    r.read_bits(full)?
                } else {
                    r.read_bits(b)?
                };
                out.push(lookup(idx)?);
            }
            Ok(out)
        }
        2 => {
            let sb = *data.get(*pos).ok_or(CodecError::UnexpectedEof)? as u32;
            *pos += 1;
            if sb >= 32 {
                return Err(CodecError::Corrupt("hot width out of range"));
            }
            let lag_exp = *data.get(*pos).ok_or(CodecError::UnexpectedEof)? as u32;
            *pos += 1;
            if lag_exp > 12 {
                return Err(CodecError::Corrupt("stride lag out of range"));
            }
            let lag = 1usize << lag_exp;
            let payload_len = read_uvarint(data, pos)? as usize;
            if data.len() < *pos + payload_len {
                return Err(CodecError::UnexpectedEof);
            }
            let mut r = BitReader::new(&data[*pos..*pos + payload_len]);
            *pos += payload_len;
            // capped reservation: a run chunk expands 9 bits into ≤ 256
            // values, so trust growth rather than the declared count
            let mut idxs: Vec<u32> = Vec::with_capacity(n.min(1 << 20));
            while idxs.len() < n {
                if r.read_bit()? {
                    let cold = r.read_bit()?;
                    let idx = if cold {
                        r.read_bits(full)?
                    } else {
                        r.read_bits(sb)?
                    } as u32;
                    if idx as usize >= table.len() {
                        return Err(CodecError::Corrupt("dictionary index out of range"));
                    }
                    idxs.push(idx);
                } else {
                    let run = r.read_bits(8)? as usize + 1;
                    if idxs.len() + run > n {
                        return Err(CodecError::Corrupt("run overruns output"));
                    }
                    for _ in 0..run {
                        let i = idxs.len();
                        let pred = if i >= lag { idxs[i - lag] } else { 0 };
                        idxs.push(pred);
                    }
                }
            }
            idxs.into_iter().map(|i| lookup(i as u64)).collect()
        }
        0 => {
            let payload_len = read_uvarint(data, pos)? as usize;
            if data.len() < *pos + payload_len {
                return Err(CodecError::UnexpectedEof);
            }
            let mut r = BitReader::new(&data[*pos..*pos + payload_len]);
            *pos += payload_len;
            let packed = unpack(&mut r, full, n)?;
            packed.into_iter().map(lookup).collect()
        }
        _ => Err(CodecError::Corrupt("bad dictionary mode byte")),
    }
}

/// Bits needed per index for a `d`-entry table (0 when one entry).
#[inline]
pub fn index_width(d: usize) -> u32 {
    if d <= 1 {
        0
    } else {
        64 - (d as u64 - 1).leading_zeros()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn sample_plane(n: usize, zero_frac: f64, alphabet: usize, seed: u64) -> Vec<f64> {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let values: Vec<f64> = (0..alphabet)
            .map(|k| (k as f64 * 0.7).sin() * 0.5)
            .collect();
        (0..n)
            .map(|_| {
                if rng.gen::<f64>() < zero_frac {
                    rng.gen_range(-1e-8..1e-8)
                } else {
                    values[rng.gen_range(0..alphabet)]
                }
            })
            .collect()
    }

    fn check_bound(orig: &[f64], rec: &[f64], eb: f64) {
        for (a, b) in orig.iter().zip(rec) {
            assert!((a - b).abs() <= eb * (1.0 + 1e-12), "|{a}-{b}| > {eb}");
        }
    }

    /// The hashed quantizer the direct table replaced, kept as the
    /// definition `quantize` must reproduce on every plane: SipHash map,
    /// per-value refusal checks, libm rounding.
    fn quantize_reference(plane: &[f64], eb: f64) -> Option<Quantized> {
        let twoeb = 2.0 * eb;
        let mut map: HashMap<i64, u32> = HashMap::with_capacity(256);
        let mut table: Vec<i64> = Vec::new();
        let mut indices: Vec<u32> = Vec::with_capacity(plane.len());
        for &v in plane {
            let scaled = v / twoeb;
            if scaled.is_nan() || scaled.abs() >= 4.5e15 {
                return None;
            }
            let q = scaled.round() as i64;
            let next = table.len() as u32;
            let idx = *map.entry(q).or_insert_with(|| {
                table.push(q);
                next
            });
            if table.len() > DICT_CAP {
                return None;
            }
            indices.push(idx);
        }
        let zero_index = map.get(&0).copied();
        Some(Quantized {
            table,
            indices,
            zero_index,
        })
    }

    /// `quantize` equals the reference; returns whether the plane took
    /// the direct table (`None` when a value is refused).
    fn assert_matches_reference(plane: &[f64], eb: f64) -> Option<bool> {
        let got = quantize(plane, eb);
        assert_eq!(
            got,
            quantize_reference(plane, eb),
            "n = {}, eb = {eb}",
            plane.len()
        );
        let (lo, hi) = code_range(plane, 2.0 * eb)?;
        Some(direct_table_fits(hi.abs_diff(lo) + 1, plane.len()))
    }

    /// A plane of `len` values at `eb = 0.5` (so value = code) whose
    /// codes span exactly `lo..=hi`, drawn from `distinct` codes in that
    /// range (always including both ends), in shuffled order.
    fn plane_with_codes(lo: i64, hi: i64, distinct: usize, len: usize, seed: u64) -> Vec<f64> {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let mut codes = vec![lo, hi];
        codes.extend((2..distinct).map(|_| rng.gen_range(lo..=hi)));
        let mut plane: Vec<f64> = (0..len).map(|i| codes[i % codes.len()] as f64).collect();
        for i in (1..len).rev() {
            plane.swap(i, rng.gen_range(0..=i));
        }
        plane
    }

    #[test]
    fn quantize_matches_hashed_reference() {
        let mut took = [false; 2];
        // narrow and wide ranges, negative codes, with and without zero
        for (k, &(lo, hi)) in [
            (0, 0),
            (-3, 3),
            (5, 40),
            (-40, -5),
            (-2_000, 2_000),
            (-9_000, 100),
            (1, 1 << 20),
            (-(1 << 40), 1 << 40),
        ]
        .iter()
        .enumerate()
        {
            for len in [1usize, 2, 7, 64, 1000, 20_000] {
                let plane = plane_with_codes(lo, hi, 300, len, k as u64);
                took[assert_matches_reference(&plane, 0.5).unwrap() as usize] = true;
            }
        }
        // spans on both sides of both cutoffs: twice the length (small
        // planes) and DIRECT_MAX_SPAN (large planes)
        let max = DIRECT_MAX_SPAN as i64;
        for (len, span, direct) in [
            (100usize, 199i64, true),
            (100, 200, true),
            (100, 201, false),
            (20_000, max - 1, true),
            (20_000, max, true),
            (20_000, max + 1, false),
        ] {
            let plane = plane_with_codes(-17, span - 18, 200, len, span as u64);
            let took = assert_matches_reference(&plane, 0.5);
            assert_eq!(took, Some(direct), "len {len}, span {span}");
        }
        // rounding ties and near-ties, both signs; then small-alphabet
        // planes at bounds that are not powers of two
        let ties: Vec<f64> = [
            0.5,
            1.5,
            2.5,
            0.499_999_999_999_999_94,
            4.5e15 - 0.5,
            1e15 + 0.5,
        ]
        .iter()
        .flat_map(|&x| [x, -x])
        .collect();
        assert_matches_reference(&ties, 0.5);
        for eb in [1e-4, 3e-7, 0.37] {
            assert_matches_reference(&sample_plane(5000, 0.5, 90, 7), eb);
        }
        assert!(took[0] && took[1], "both code tables exercised: {took:?}");
    }

    #[test]
    fn quantize_refusals_match_hashed_reference() {
        let body = plane_with_codes(-50, 50, 40, 500, 9);
        for bad in [f64::NAN, 4.5e15, -4.5e15, f64::INFINITY, f64::NEG_INFINITY] {
            let mut first = vec![bad];
            first.extend_from_slice(&body);
            let mut last = body.clone();
            last.push(bad);
            assert_eq!(assert_matches_reference(&first, 0.5), None);
            assert_eq!(assert_matches_reference(&last, 0.5), None);
        }
        // an infinite value at an infinite bound scales to NaN
        assert_eq!(
            assert_matches_reference(&[1.0, f64::INFINITY], f64::MAX),
            None
        );
        assert_eq!(assert_matches_reference(&[1.0, -3.0], f64::MAX), Some(true));
        // just inside the boundary is accepted
        let edge = [4.5e15 - 1.0, -(4.5e15 - 1.0), 0.0];
        assert!(assert_matches_reference(&edge, 0.5).is_some());
        // exactly DICT_CAP distinct codes fits, one more overflows, in a
        // narrow (direct) and a wide (hashed) range
        for stride in [1i64, 1 << 30] {
            for extra in [0usize, 1] {
                let distinct = DICT_CAP + extra;
                let plane: Vec<f64> = (0..3 * distinct)
                    .map(|i| ((i % distinct) as i64 * stride) as f64)
                    .collect();
                let direct = assert_matches_reference(&plane, 0.5);
                assert_eq!(direct, Some(stride == 1));
                let fits = quantize(&plane, 0.5).is_some();
                assert_eq!(fits, extra == 0, "stride {stride}, {distinct} codes");
            }
        }
        assert_eq!(assert_matches_reference(&[], 1e-4), Some(false));
    }

    #[test]
    fn quantize_builds_small_table() {
        let plane = sample_plane(4096, 0.6, 50, 1);
        let q = quantize(&plane, 1e-4).unwrap();
        assert!(q.table.len() <= 52, "table has {} entries", q.table.len());
        assert!(q.zero_index.is_some());
        assert_eq!(q.indices.len(), plane.len());
    }

    #[test]
    fn quantize_bails_on_dense_values() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(2);
        let plane: Vec<f64> = (0..20_000).map(|_| rng.gen_range(-1.0..1.0)).collect();
        assert!(
            quantize(&plane, 1e-7).is_none(),
            "20k random values at 1e-7 must overflow"
        );
    }

    #[test]
    fn quantize_bails_on_nan_or_overflow() {
        assert!(quantize(&[f64::NAN], 1e-4).is_none());
        assert!(quantize(&[1e300], 1e-9).is_none());
    }

    #[test]
    fn ratio_roundtrip_within_bound() {
        let plane = sample_plane(8192, 0.7, 80, 3);
        let eb = 1e-4;
        let q = quantize(&plane, eb).unwrap();
        let mut buf = Vec::new();
        encode_ratio(&q, eb, &mut buf);
        let mut pos = 0;
        let rec = decode_ratio(&buf, &mut pos).unwrap();
        assert_eq!(pos, buf.len());
        check_bound(&plane, &rec, eb);
        // zero-heavy small-alphabet stream should crush
        let cr = (plane.len() * 8) as f64 / buf.len() as f64;
        assert!(cr > 12.0, "ratio-flavour CR only {cr:.1}");
    }

    #[test]
    fn speed_roundtrip_within_bound_hot_cold() {
        let plane = sample_plane(8192, 0.7, 80, 4);
        let eb = 1e-4;
        let q = quantize(&plane, eb).unwrap();
        let mut buf = Vec::new();
        encode_speed(&q, eb, &mut buf);
        let mut pos = 0;
        let rec = decode_speed(&buf, &mut pos).unwrap();
        assert_eq!(pos, buf.len());
        check_bound(&plane, &rec, eb);
        let cr = (plane.len() * 8) as f64 / buf.len() as f64;
        assert!(cr > 10.0, "speed-flavour CR only {cr:.1}");
    }

    #[test]
    fn speed_roundtrip_no_zeros_plain_mode() {
        let plane = sample_plane(2048, 0.0, 40, 5);
        let eb = 1e-5;
        let q = quantize(&plane, eb).unwrap();
        let mut buf = Vec::new();
        encode_speed(&q, eb, &mut buf);
        let mut pos = 0;
        let rec = decode_speed(&buf, &mut pos).unwrap();
        check_bound(&plane, &rec, eb);
    }

    #[test]
    fn single_distinct_value_is_nearly_free() {
        let plane = vec![0.25f64; 10_000];
        let eb = 1e-6;
        let q = quantize(&plane, eb).unwrap();
        assert_eq!(q.table.len(), 1);
        let mut buf = Vec::new();
        encode_speed(&q, eb, &mut buf);
        assert!(buf.len() < 64, "constant plane took {} bytes", buf.len());
        let mut pos = 0;
        check_bound(&plane, &decode_speed(&buf, &mut pos).unwrap(), eb);
    }

    #[test]
    fn empty_plane() {
        let q = quantize(&[], 1e-4).unwrap();
        let mut buf = Vec::new();
        encode_ratio(&q, 1e-4, &mut buf);
        // An empty index stream still writes a (degenerate) table; the
        // framework never calls the dictionary on empty planes, but the
        // codec itself must not panic.
        assert!(quantize(&[], 1e-4).unwrap().indices.is_empty());
        let _ = buf;
    }

    #[test]
    fn corrupt_streams_error() {
        let plane = sample_plane(512, 0.5, 30, 6);
        let q = quantize(&plane, 1e-4).unwrap();
        let mut ratio = Vec::new();
        encode_ratio(&q, 1e-4, &mut ratio);
        let mut speed = Vec::new();
        encode_speed(&q, 1e-4, &mut speed);
        for buf in [&ratio, &speed] {
            for cut in [0usize, 1, 5, buf.len() / 2] {
                let mut pos = 0;
                let _ = decode_ratio(&buf[..cut], &mut pos);
                let mut pos = 0;
                let _ = decode_speed(&buf[..cut], &mut pos);
            }
        }
    }

    #[test]
    fn index_width_edge_cases() {
        assert_eq!(index_width(0), 0);
        assert_eq!(index_width(1), 0);
        assert_eq!(index_width(2), 1);
        assert_eq!(index_width(3), 2);
        assert_eq!(index_width(256), 8);
        assert_eq!(index_width(257), 9);
    }
}
