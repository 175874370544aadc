//! Pre-processing stages of the compression framework (contribution 1).
//!
//! QTensor tensors have three exploitable regularities that generic
//! compressors miss:
//!
//! 1. **Interleaved components** — complex values are stored `re, im, re,
//!    im, …`; the Lorenzo predictor sees an artificial zig-zag. Splitting
//!    into planes (stage P1, in `framework`) restores smoothness.
//! 2. **Heavy near-zero mass** — amplitudes of improbable paths are tiny
//!    but not exactly zero; quantized they produce noisy ±1 codes. *Zero
//!    collapse* (P2) flushes `|v| ≤ t` to exact zero, spending `t` of the
//!    error budget to turn noise into perfectly predictable runs.
//! 3. **Repeated blocks** — gate structure repeats whole slices. *Block
//!    dedup* (P3) stores each distinct block once plus a reference array.
//!
//! All stages are exact bookkeeping except zero collapse, whose error is
//! budgeted explicitly by the framework (threshold + backend bound ≤ user
//! bound).

use codec_kit::bitio::{BitReader, BitWriter};
use codec_kit::bitpack::{pack, unpack};
use codec_kit::varint::{read_uvarint, write_uvarint};
use codec_kit::CodecError;
use gpu_model::exec::{par_chunks_mut, par_fill_blocks, par_map_blocks};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Values per parallel block for the element-wise stage kernels. Every
/// stage below decomposes by index arithmetic into independent blocks, so
/// the output is bit-identical for any worker count (see `gpu_model::exec`).
pub(crate) const STAGE_BLOCK: usize = 1 << 14;

/// Flushes values with `|v| ≤ threshold` to exact `+0.0` in place.
/// Returns the number of values collapsed.
///
/// Block-parallel: each chunk is flushed independently and the per-chunk
/// counts are summed (an order-independent reduction), so both the buffer
/// and the count match the serial loop exactly.
pub fn zero_collapse(values: &mut [f64], threshold: f64) -> usize {
    let collapsed = AtomicUsize::new(0);
    par_chunks_mut(values, STAGE_BLOCK, |_, chunk| {
        let mut local = 0usize;
        for v in chunk.iter_mut() {
            if v.abs() <= threshold {
                *v = 0.0;
                local += 1;
            }
        }
        collapsed.fetch_add(local, Ordering::Relaxed);
    });
    collapsed.into_inner()
}

/// Fraction of values a collapse at `threshold` would flush (cheap probe
/// used by the framework's routing heuristics). Parallel count over blocks.
pub fn zero_frac(values: &[f64], threshold: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let counts = par_map_blocks(values, STAGE_BLOCK, |_, chunk| {
        chunk.iter().filter(|v| v.abs() <= threshold).count()
    });
    counts.iter().sum::<usize>() as f64 / values.len() as f64
}

/// Splits interleaved `re, im, re, im, …` data into two planes (stage P1).
/// Both gathers run block-parallel; every output element is an independent
/// copy, so the planes are identical for any worker count.
///
/// # Panics
/// Panics when the length is odd.
pub fn deinterleave(data: &[f64]) -> (Vec<f64>, Vec<f64>) {
    let mut re = Vec::new();
    let mut im = Vec::new();
    deinterleave_into(data, &mut re, &mut im);
    (re, im)
}

/// [`deinterleave`] into caller-provided buffers, which are resized to
/// `data.len() / 2` (reusing their capacity) and fully overwritten.
///
/// # Panics
/// Panics when the length is odd.
pub fn deinterleave_into(data: &[f64], re: &mut Vec<f64>, im: &mut Vec<f64>) {
    assert!(
        data.len().is_multiple_of(2),
        "interleaved input must have even length"
    );
    let half = data.len() / 2;
    re.clear();
    re.resize(half, 0.0);
    im.clear();
    im.resize(half, 0.0);
    par_fill_blocks(re, STAGE_BLOCK, |_, range, chunk| {
        for (j, slot) in range.zip(chunk.iter_mut()) {
            *slot = data[2 * j];
        }
    });
    par_fill_blocks(im, STAGE_BLOCK, |_, range, chunk| {
        for (j, slot) in range.zip(chunk.iter_mut()) {
            *slot = data[2 * j + 1];
        }
    });
}

/// Re-interleaves two planes back into `re, im, re, im, …` order (the
/// inverse of [`deinterleave`]), block-parallel over the output.
///
/// # Panics
/// Panics when the planes differ in length.
pub fn interleave(re: &[f64], im: &[f64]) -> Vec<f64> {
    let mut out = Vec::new();
    interleave_into(re, im, &mut out);
    out
}

/// [`interleave`] into a caller-provided buffer, which is resized to
/// `2 * re.len()` (reusing its capacity) and fully overwritten.
///
/// # Panics
/// Panics when the planes differ in length.
pub fn interleave_into(re: &[f64], im: &[f64], out: &mut Vec<f64>) {
    assert_eq!(re.len(), im.len(), "planes must have equal length");
    out.clear();
    out.resize(re.len() * 2, 0.0);
    par_fill_blocks(out, STAGE_BLOCK, |_, range, chunk| {
        for (j, slot) in range.zip(chunk.iter_mut()) {
            let plane = if j % 2 == 0 { re } else { im };
            *slot = plane[j / 2];
        }
    });
}

/// Result of block deduplication.
#[derive(Debug, Clone, PartialEq)]
pub struct Deduped<'a> {
    /// Concatenation of the distinct blocks (in first-occurrence order)
    /// followed by the partial tail (`n % block_size` values). When the
    /// input has no duplicate blocks this borrows the input verbatim —
    /// first-occurrence order *is* input order — so the all-unique probe
    /// (the common case for incompressible planes) copies nothing.
    pub unique: std::borrow::Cow<'a, [f64]>,
    /// Per full block, the index of its distinct block.
    pub refs: Vec<u32>,
    /// Block size used.
    pub block_size: usize,
    /// Original length.
    pub n: usize,
    /// Number of distinct blocks.
    pub n_unique: usize,
}

impl Deduped<'_> {
    /// Fraction of full blocks that were duplicates (0 for < 2 blocks).
    pub fn dup_frac(&self) -> f64 {
        if self.refs.len() < 2 {
            return 0.0;
        }
        (self.refs.len() - self.n_unique) as f64 / self.refs.len() as f64
    }
}

/// 64-bit FNV-1a over the bit patterns of a block (the parallel hash pass
/// of [`dedup_blocks`]).
fn block_fingerprint(chunk: &[f64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in chunk {
        for byte in v.to_bits().to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// True when two blocks are bit-identical (NaN payloads and zero signs
/// distinguish, matching the dedup contract).
fn blocks_bit_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Splits `values` into `block_size` chunks and deduplicates bit-identical
/// blocks. The trailing partial block is appended verbatim to `unique`.
///
/// Two passes: a block-parallel fingerprint pass (one 64-bit FNV-1a hash
/// per full block), then a serial table walk in first-occurrence order.
/// Fingerprints only route blocks into buckets — equality is always decided
/// by bit-exact comparison, so a hash collision costs a compare, never a
/// wrong merge, and the result is identical to the single-pass serial walk.
pub fn dedup_blocks(values: &[f64], block_size: usize) -> Deduped<'_> {
    assert!(block_size > 0, "block size must be positive");
    let n = values.len();
    let n_blocks = n / block_size;
    let full = &values[..n_blocks * block_size];
    let fingerprints: Vec<u64> =
        par_map_blocks(full, block_size, |_, chunk| block_fingerprint(chunk));
    let mut table: std::collections::HashMap<u64, Vec<u32>> =
        std::collections::HashMap::with_capacity(n_blocks);
    // Block index of each distinct block's first occurrence — the table
    // walk range-indexes the original slice instead of eagerly copying
    // unique blocks, so the all-unique case materializes nothing.
    let mut firsts: Vec<u32> = Vec::new();
    let mut refs: Vec<u32> = Vec::with_capacity(n_blocks);
    for b in 0..n_blocks {
        let chunk = &values[b * block_size..(b + 1) * block_size];
        let bucket = table.entry(fingerprints[b]).or_default();
        let id = match bucket.iter().copied().find(|&id| {
            let lo = firsts[id as usize] as usize * block_size;
            blocks_bit_eq(&values[lo..lo + block_size], chunk)
        }) {
            Some(id) => id,
            None => {
                let id = firsts.len() as u32;
                firsts.push(b as u32);
                bucket.push(id);
                id
            }
        };
        refs.push(id);
    }
    let n_unique = firsts.len();
    let unique = if n_unique == n_blocks {
        // No duplicates: distinct blocks in first-occurrence order plus the
        // verbatim tail is exactly the input.
        std::borrow::Cow::Borrowed(values)
    } else {
        let tail = &values[n_blocks * block_size..];
        let mut u: Vec<f64> = Vec::with_capacity(n_unique * block_size + tail.len());
        for &fb in &firsts {
            let lo = fb as usize * block_size;
            u.extend_from_slice(&values[lo..lo + block_size]);
        }
        u.extend_from_slice(tail);
        std::borrow::Cow::Owned(u)
    };
    Deduped {
        unique,
        refs,
        block_size,
        n,
        n_unique,
    }
}

/// Reassembles the original buffer from (a reconstruction of) `unique` and
/// the reference array. `unique` may be a lossy reconstruction — duplicates
/// stay bit-identical to each other because they share one stored block.
pub fn reassemble_blocks(
    unique: &[f64],
    refs: &[u32],
    block_size: usize,
    n: usize,
) -> Result<Vec<f64>, CodecError> {
    let mut out = Vec::new();
    reassemble_blocks_into(unique, refs, block_size, n, &mut out)?;
    Ok(out)
}

/// [`reassemble_blocks`] into a caller-provided buffer, which is cleared
/// first (reusing its capacity). On error the buffer contents are
/// unspecified but valid.
pub fn reassemble_blocks_into(
    unique: &[f64],
    refs: &[u32],
    block_size: usize,
    n: usize,
    out: &mut Vec<f64>,
) -> Result<(), CodecError> {
    let n_blocks = n / block_size;
    if refs.len() != n_blocks {
        return Err(CodecError::Corrupt("dedup reference count mismatch"));
    }
    let tail_len = n - n_blocks * block_size;
    if unique.len() < tail_len {
        return Err(CodecError::Corrupt("dedup unique length mismatch"));
    }
    let unique_blocks = (unique.len() - tail_len) / block_size;
    if unique_blocks * block_size + tail_len != unique.len() {
        return Err(CodecError::Corrupt("dedup unique length mismatch"));
    }
    out.clear();
    out.reserve(n);
    for &r in refs {
        let r = r as usize;
        if r >= unique_blocks {
            return Err(CodecError::Corrupt("dedup reference out of range"));
        }
        out.extend_from_slice(&unique[r * block_size..(r + 1) * block_size]);
    }
    out.extend_from_slice(&unique[unique.len() - tail_len..]);
    Ok(())
}

/// Serializes a dedup reference array, bit-packed at the width `n_unique`
/// requires.
pub fn write_refs(refs: &[u32], n_unique: usize, out: &mut Vec<u8>) {
    write_uvarint(out, refs.len() as u64);
    let width = if n_unique <= 1 {
        0
    } else {
        64 - (n_unique as u64 - 1).leading_zeros()
    };
    out.push(width as u8);
    let mut w = BitWriter::with_capacity(refs.len() * width as usize / 8 + 8);
    let wide: Vec<u64> = refs.iter().map(|&r| r as u64).collect();
    pack(&wide, width, &mut w);
    let packed = w.finish();
    write_uvarint(out, packed.len() as u64);
    out.extend_from_slice(&packed);
}

/// Reads a reference array written by [`write_refs`]. `max_refs` is the
/// largest count the caller considers plausible (the plane's block count) —
/// a forged header may not reserve past it.
pub fn read_refs(data: &[u8], pos: &mut usize, max_refs: usize) -> Result<Vec<u32>, CodecError> {
    let count = read_uvarint(data, pos)? as usize;
    if count > max_refs {
        return Err(CodecError::Corrupt("absurd dedup reference count"));
    }
    let width = *data.get(*pos).ok_or(CodecError::UnexpectedEof)? as u32;
    *pos += 1;
    if width > 32 {
        return Err(CodecError::Corrupt("dedup reference width out of range"));
    }
    let packed_len = read_uvarint(data, pos)? as usize;
    if data.len() < *pos + packed_len {
        return Err(CodecError::UnexpectedEof);
    }
    // Width > 0 refs cost `width` bits each — the packed length bounds the
    // honest count before `unpack` reserves anything.
    if width > 0 && count > packed_len.saturating_mul(8) / width as usize {
        return Err(CodecError::Corrupt("dedup reference count exceeds payload"));
    }
    let mut r = BitReader::new(&data[*pos..*pos + packed_len]);
    *pos += packed_len;
    let wide = unpack(&mut r, width, count)?;
    Ok(wide.into_iter().map(|v| v as u32).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collapse_flushes_small_values() {
        let mut v = vec![0.5, 1e-9, -1e-9, -0.5, 0.0];
        let c = zero_collapse(&mut v, 1e-6);
        assert_eq!(c, 3);
        assert_eq!(v, vec![0.5, 0.0, 0.0, -0.5, 0.0]);
        // collapsed negatives become +0.0 bit patterns
        assert_eq!(v[2].to_bits(), 0);
    }

    #[test]
    fn collapse_threshold_zero_only_flushes_zeros() {
        let mut v = vec![1e-300, 0.0, -0.0];
        let c = zero_collapse(&mut v, 0.0);
        assert_eq!(c, 2); // 0.0 and -0.0
        assert_eq!(v[0], 1e-300);
    }

    #[test]
    fn zero_frac_probe() {
        assert_eq!(zero_frac(&[], 1.0), 0.0);
        assert_eq!(zero_frac(&[0.0, 1.0, 0.5, 2.0], 0.5), 0.5);
    }

    #[test]
    fn deinterleave_interleave_roundtrip() {
        // Cover both the serial (< STAGE_BLOCK) and multi-block regimes.
        for n_complex in [0usize, 3, STAGE_BLOCK + 17] {
            let data: Vec<f64> = (0..n_complex * 2).map(|i| i as f64 * 0.25 - 7.0).collect();
            let (re, im) = deinterleave(&data);
            assert_eq!(re.len(), n_complex);
            for i in 0..n_complex {
                assert_eq!(re[i], data[2 * i]);
                assert_eq!(im[i], data[2 * i + 1]);
            }
            assert_eq!(interleave(&re, &im), data);
        }
    }

    #[test]
    fn collapse_large_buffer_matches_serial_count() {
        let mut v: Vec<f64> = (0..3 * STAGE_BLOCK + 11)
            .map(|i| if i % 3 == 0 { 1e-9 } else { 0.5 })
            .collect();
        let want = v.iter().filter(|x| x.abs() <= 1e-6).count();
        let frac = zero_frac(&v, 1e-6);
        assert!((frac - want as f64 / v.len() as f64).abs() < 1e-15);
        assert_eq!(zero_collapse(&mut v, 1e-6), want);
        assert!(v.iter().all(|x| *x == 0.5 || x.to_bits() == 0));
    }

    #[test]
    fn dedup_finds_duplicates() {
        // blocks of 2: [1,2] [3,4] [1,2] + tail [9]
        let v = vec![1.0, 2.0, 3.0, 4.0, 1.0, 2.0, 9.0];
        let d = dedup_blocks(&v, 2);
        assert_eq!(d.n_unique, 2);
        assert_eq!(d.refs, vec![0, 1, 0]);
        assert_eq!(d.unique, vec![1.0, 2.0, 3.0, 4.0, 9.0]);
        assert!((d.dup_frac() - 1.0 / 3.0).abs() < 1e-12);
        let back = reassemble_blocks(&d.unique, &d.refs, 2, v.len()).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn dedup_distinguishes_nan_payloads_and_zero_signs() {
        let nan1 = f64::from_bits(0x7FF8_0000_0000_0001);
        let nan2 = f64::from_bits(0x7FF8_0000_0000_0002);
        let v = vec![nan1, nan2, 0.0, -0.0];
        let d = dedup_blocks(&v, 2);
        assert_eq!(d.n_unique, 2, "bit-distinct blocks must not merge");
        let back = reassemble_blocks(&d.unique, &d.refs, 2, 4).unwrap();
        for (a, b) in v.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn dedup_all_same_block() {
        let v = vec![7.0; 1024];
        let d = dedup_blocks(&v, 64);
        assert_eq!(d.n_unique, 1);
        assert_eq!(d.unique.len(), 64);
        assert!((d.dup_frac() - 15.0 / 16.0).abs() < 1e-12);
        assert_eq!(reassemble_blocks(&d.unique, &d.refs, 64, 1024).unwrap(), v);
    }

    #[test]
    fn dedup_short_input_is_all_tail() {
        let v = vec![1.0, 2.0, 3.0];
        let d = dedup_blocks(&v, 8);
        assert_eq!(d.refs.len(), 0);
        assert_eq!(d.unique, v);
        assert_eq!(reassemble_blocks(&d.unique, &d.refs, 8, 3).unwrap(), v);
    }

    #[test]
    fn refs_roundtrip() {
        for refs in [
            vec![],
            vec![0u32],
            vec![0, 1, 2, 1, 0, 2, 2],
            (0..1000u32).collect(),
        ] {
            let n_unique = refs.iter().max().map_or(0, |&m| m as usize + 1);
            let mut buf = Vec::new();
            write_refs(&refs, n_unique, &mut buf);
            let mut pos = 0;
            assert_eq!(read_refs(&buf, &mut pos, 1 << 16).unwrap(), refs);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn refs_single_unique_block_is_width_zero() {
        let refs = vec![0u32; 4096];
        let mut buf = Vec::new();
        write_refs(&refs, 1, &mut buf);
        assert!(
            buf.len() < 16,
            "4096 identical refs took {} bytes",
            buf.len()
        );
        let mut pos = 0;
        assert_eq!(read_refs(&buf, &mut pos, 1 << 16).unwrap(), refs);
    }

    #[test]
    fn corrupt_refs_error() {
        let mut buf = Vec::new();
        write_refs(&[0, 1, 2], 3, &mut buf);
        let mut pos = 0;
        assert!(read_refs(&buf[..buf.len() - 1], &mut pos, 1 << 16).is_err());
    }

    #[test]
    fn reassemble_rejects_bad_refs() {
        assert!(reassemble_blocks(&[1.0, 2.0], &[5], 2, 2).is_err());
        assert!(reassemble_blocks(&[1.0, 2.0], &[0, 0], 2, 2).is_err());
    }

    #[test]
    fn dedup_all_unique_borrows_input() {
        let v: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let d = dedup_blocks(&v, 8);
        assert_eq!(d.n_unique, 12);
        assert!(
            matches!(d.unique, std::borrow::Cow::Borrowed(_)),
            "all-unique input must not be copied"
        );
        assert_eq!(&*d.unique, &v[..]);
        let back = reassemble_blocks(&d.unique, &d.refs, 8, v.len()).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn dedup_with_duplicates_owns_unique() {
        let v = vec![1.0, 2.0, 1.0, 2.0, 3.0, 4.0];
        let d = dedup_blocks(&v, 2);
        assert!(matches!(d.unique, std::borrow::Cow::Owned(_)));
        assert_eq!(d.refs, vec![0, 0, 1]);
        assert_eq!(d.unique, vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn into_variants_match_allocating_counterparts() {
        let data: Vec<f64> = (0..2 * (STAGE_BLOCK + 5)).map(|i| i as f64 * 0.1).collect();
        let (re, im) = deinterleave(&data);
        // Dirty, differently-sized target buffers must not affect results.
        let mut re2 = vec![9.9; 3];
        let mut im2 = Vec::with_capacity(1 << 16);
        deinterleave_into(&data, &mut re2, &mut im2);
        assert_eq!(re, re2);
        assert_eq!(im, im2);

        let merged = interleave(&re, &im);
        let mut merged2 = vec![1.0; 5];
        interleave_into(&re2, &im2, &mut merged2);
        assert_eq!(merged, merged2);
        assert_eq!(merged, data);

        let d = dedup_blocks(&data, 64);
        let out = reassemble_blocks(&d.unique, &d.refs, 64, data.len()).unwrap();
        let mut out2 = vec![7.0; 2];
        reassemble_blocks_into(&d.unique, &d.refs, 64, data.len(), &mut out2).unwrap();
        assert_eq!(out, out2);
    }
}
