//! LZ77 match finding with a hash-chain dictionary.
//!
//! One greedy matcher feeds all three byte-oriented lossless compressors
//! (LZ4, Snappy, GDeflate); each wraps the token stream in its own wire
//! format. The matcher hashes 4-byte windows and walks a bounded chain of
//! previous positions — the same structure zlib/LZ4 use, sized so the
//! search is O(depth) per position. A candidate is extended eight bytes
//! per compare, and only when it can beat the best match so far.

/// One token of an LZ77 parse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LzToken {
    /// `len` literal bytes starting at `start` in the input.
    Literal {
        /// Input offset of the first literal byte.
        start: usize,
        /// Number of literal bytes.
        len: usize,
    },
    /// A back-reference: copy `len` bytes from `dist` bytes behind.
    Match {
        /// Match length in bytes (≥ the matcher's `min_match`).
        len: usize,
        /// Backward distance in bytes (≥ 1).
        dist: usize,
    },
}

/// Matcher configuration.
#[derive(Debug, Clone, Copy)]
pub struct LzConfig {
    /// Minimum match length worth emitting.
    pub min_match: usize,
    /// Maximum match length.
    pub max_match: usize,
    /// Maximum backward distance.
    pub window: usize,
    /// Maximum hash-chain positions examined per lookup.
    pub max_chain: usize,
}

impl Default for LzConfig {
    fn default() -> Self {
        LzConfig {
            min_match: 4,
            max_match: 65_535,
            window: 65_535,
            max_chain: 32,
        }
    }
}

const HASH_BITS: u32 = 15;

/// Inputs shorter than this many bytes keep their chain heads in a
/// [`SparseHeads`] table sized to the input instead of the dense
/// `2^HASH_BITS` array, whose 256 KiB clear would otherwise dominate the
/// parse of a small buffer. Set from a measured sweep of both layouts
/// over input sizes (see CHANGES.md); the token stream is identical
/// either way.
const SPARSE_HEADS_BELOW: usize = 2048;

#[inline]
fn hash4(bytes: &[u8]) -> usize {
    let v = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    (v.wrapping_mul(2654435761) >> (32 - HASH_BITS)) as usize
}

/// An input position as the chains store it. `u32` halves the chain
/// arrays for every input below 4 GiB; longer inputs store `usize`.
trait Pos: Copy + Eq {
    /// The end of a chain; never a real position.
    const NONE: Self;
    fn new(i: usize) -> Self;
    fn get(self) -> usize;
}

impl Pos for u32 {
    const NONE: Self = u32::MAX;

    #[inline]
    fn new(i: usize) -> Self {
        i as u32
    }

    #[inline]
    fn get(self) -> usize {
        self as usize
    }
}

impl Pos for usize {
    const NONE: Self = usize::MAX;

    #[inline]
    fn new(i: usize) -> Self {
        i
    }

    #[inline]
    fn get(self) -> usize {
        self
    }
}

/// The most recent input position per [`hash4`] value — the head of each
/// hash chain, or `Pos::NONE` when the chain is empty.
trait ChainHeads {
    type P: Pos;
    fn get(&self, h: usize) -> Self::P;
    /// Makes `pos` the head of chain `h`; returns the previous head.
    fn replace(&mut self, h: usize, pos: Self::P) -> Self::P;
}

/// One slot per hash value: O(1) access, `2^HASH_BITS` slots to clear.
struct DenseHeads<P>(Vec<P>);

impl<P: Pos> DenseHeads<P> {
    fn new() -> Self {
        DenseHeads(vec![P::NONE; 1 << HASH_BITS])
    }
}

impl<P: Pos> ChainHeads for DenseHeads<P> {
    type P = P;

    #[inline]
    fn get(&self, h: usize) -> P {
        self.0[h]
    }

    #[inline]
    fn replace(&mut self, h: usize, pos: P) -> P {
        std::mem::replace(&mut self.0[h], pos)
    }
}

/// Open-addressed `hash → position` table with linear probing, sized to
/// at least twice the positions that can be inserted, so it never fills
/// and stays at most half full. Only inputs below [`SPARSE_HEADS_BELOW`]
/// use it.
struct SparseHeads {
    /// `(hash, position)`; an empty slot holds `EMPTY` as its hash.
    slots: Vec<(u16, u32)>,
    mask: usize,
}

impl SparseHeads {
    const EMPTY: u16 = u16::MAX;

    fn for_len(n: usize) -> Self {
        let cap = (2 * n).next_power_of_two();
        SparseHeads {
            slots: vec![(Self::EMPTY, 0); cap],
            mask: cap - 1,
        }
    }

    #[inline]
    fn pos((key, pos): (u16, u32)) -> u32 {
        if key == Self::EMPTY {
            u32::NONE
        } else {
            pos
        }
    }

    /// The slot holding `h`, or the empty slot where it belongs.
    #[inline]
    fn slot(&self, h: usize) -> usize {
        let mut i = h & self.mask;
        loop {
            let key = self.slots[i].0;
            if key == h as u16 || key == Self::EMPTY {
                return i;
            }
            i = (i + 1) & self.mask;
        }
    }
}

impl ChainHeads for SparseHeads {
    type P = u32;

    #[inline]
    fn get(&self, h: usize) -> u32 {
        Self::pos(self.slots[self.slot(h)])
    }

    #[inline]
    fn replace(&mut self, h: usize, pos: u32) -> u32 {
        let i = self.slot(h);
        Self::pos(std::mem::replace(&mut self.slots[i], (h as u16, pos)))
    }
}

/// Greedy LZ77 parse of `data`.
///
/// Adjacent literals are coalesced into single [`LzToken::Literal`] tokens;
/// the concatenation of tokens reproduces the input exactly (verified by
/// [`expand`]). Setup is sized to the input: short inputs keep their chain
/// heads in a small hash table rather than clearing the dense one.
pub fn find_matches(data: &[u8], cfg: &LzConfig) -> Vec<LzToken> {
    assert!(cfg.min_match >= 4, "hash covers 4 bytes");
    let n = data.len();
    if n == 0 {
        Vec::new()
    } else if n < SPARSE_HEADS_BELOW {
        parse(data, cfg, SparseHeads::for_len(n))
    } else if n <= u32::MAX as usize {
        parse(data, cfg, DenseHeads::<u32>::new())
    } else {
        parse(data, cfg, DenseHeads::<usize>::new())
    }
}

/// Length of the common prefix of `data[a..]` and `data[b..]`, at most
/// `limit` (`a, b + limit ≤ data.len()`): eight bytes per step, the first
/// differing byte found from the lowest set bit of the XOR.
#[inline]
fn match_len(data: &[u8], a: usize, b: usize, limit: usize) -> usize {
    let (x, y) = (&data[a..a + limit], &data[b..b + limit]);
    let word = |s: &[u8], l: usize| u64::from_le_bytes(s[l..l + 8].try_into().unwrap());
    let mut l = 0;
    while l + 8 <= limit {
        let diff = word(x, l) ^ word(y, l);
        if diff != 0 {
            return l + (diff.trailing_zeros() / 8) as usize;
        }
        l += 8;
    }
    while l < limit && x[l] == y[l] {
        l += 1;
    }
    l
}

fn parse<H: ChainHeads>(data: &[u8], cfg: &LzConfig, mut head: H) -> Vec<LzToken> {
    let n = data.len();
    let mut tokens = Vec::new();
    let mut prev = vec![H::P::NONE; n];
    let mut lit_start = 0usize;
    let mut i = 0usize;

    let flush_literals = |tokens: &mut Vec<LzToken>, lit_start: usize, end: usize| {
        if end > lit_start {
            tokens.push(LzToken::Literal {
                start: lit_start,
                len: end - lit_start,
            });
        }
    };

    while i + cfg.min_match <= n {
        let h = hash4(&data[i..]);
        let limit = (n - i).min(cfg.max_match);
        let mut cand = head.get(h);
        let mut best_len = 0usize;
        let mut best_dist = 0usize;
        let mut depth = 0usize;
        while cand != H::P::NONE && depth < cfg.max_chain {
            let c = cand.get();
            let dist = i - c;
            if dist > cfg.window {
                break;
            }
            // `best_len < limit` here. A candidate that differs at
            // `best_len` is shorter than the best match: skip its walk.
            if data[c + best_len] == data[i + best_len] {
                let l = match_len(data, c, i, limit);
                if l > best_len {
                    best_len = l;
                    best_dist = dist;
                    if l >= limit {
                        break;
                    }
                }
            }
            cand = prev[c];
            depth += 1;
        }

        if best_len >= cfg.min_match {
            flush_literals(&mut tokens, lit_start, i);
            tokens.push(LzToken::Match {
                len: best_len,
                dist: best_dist,
            });
            // Insert hash entries for the matched region (bounded to keep
            // the parse O(n) even on pathological inputs).
            let end = i + best_len;
            let insert_end = end.min(i + 256).min(n.saturating_sub(cfg.min_match - 1));
            while i < insert_end {
                prev[i] = head.replace(hash4(&data[i..]), H::P::new(i));
                i += 1;
            }
            i = end;
            lit_start = end;
        } else {
            prev[i] = head.replace(h, H::P::new(i));
            i += 1;
        }
    }
    flush_literals(&mut tokens, lit_start, n);
    tokens
}

/// Expands a token stream back into bytes (the reference decoder; format
/// crates implement their own expansion over their wire encoding).
pub fn expand(tokens: &[LzToken], input_for_literals: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    for t in tokens {
        match *t {
            LzToken::Literal { start, len } => {
                out.extend_from_slice(&input_for_literals[start..start + len]);
            }
            LzToken::Match { len, dist } => {
                assert!(dist >= 1 && dist <= out.len(), "bad match distance");
                // Overlapping copies are byte-serial by definition.
                let from = out.len() - dist;
                for k in 0..len {
                    let b = out[from + k];
                    out.push(b);
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) -> Vec<LzToken> {
        let tokens = find_matches(data, &LzConfig::default());
        assert_eq!(expand(&tokens, data), data);
        tokens
    }

    #[test]
    fn empty_and_tiny_inputs() {
        assert!(roundtrip(b"").is_empty());
        roundtrip(b"a");
        roundtrip(b"abc");
    }

    #[test]
    fn repeated_pattern_found() {
        let data = b"abcdabcdabcdabcd";
        let tokens = roundtrip(data);
        assert!(
            tokens
                .iter()
                .any(|t| matches!(t, LzToken::Match { dist: 4, .. })),
            "expected a distance-4 match, got {tokens:?}"
        );
    }

    #[test]
    fn run_of_zeros_compresses_to_overlapping_match() {
        let data = vec![0u8; 1000];
        let tokens = roundtrip(&data);
        assert!(
            tokens.len() <= 3,
            "run should be a couple of tokens: {}",
            tokens.len()
        );
        assert!(tokens
            .iter()
            .any(|t| matches!(t, LzToken::Match { dist: 1, .. })));
    }

    #[test]
    fn incompressible_random_is_all_literals() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(3);
        let data: Vec<u8> = (0..4096).map(|_| rng.gen()).collect();
        let tokens = roundtrip(&data);
        let match_bytes: usize = tokens
            .iter()
            .filter_map(|t| match t {
                LzToken::Match { len, .. } => Some(*len),
                _ => None,
            })
            .sum();
        assert!(
            match_bytes < data.len() / 8,
            "random data matched {match_bytes} bytes"
        );
    }

    #[test]
    fn sparse_and_dense_heads_parse_identically() {
        // The head layout and position width are storage only: on every
        // input the sparse table and the `usize` dense table must
        // reproduce the `u32` dense table's token stream, including hash
        // collisions and inputs on both sides of the crossover.
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(17);
        let cfg = LzConfig::default();
        for n in [1usize, 4, 5, 17, 100, 640, 2047, 2048, 3000] {
            let noise: Vec<u8> = (0..n).map(|_| rng.gen()).collect();
            let small: Vec<u8> = (0..n).map(|_| rng.gen_range(0..4u8)).collect();
            let floats: Vec<u8> = (0..n.div_ceil(8))
                .flat_map(|i| ((i % 13) as f64 * 0.37).to_le_bytes())
                .take(n)
                .collect();
            for data in [noise, small, floats] {
                let dense = parse(&data, &cfg, DenseHeads::<u32>::new());
                let sparse = parse(&data, &cfg, SparseHeads::for_len(n));
                let wide = parse(&data, &cfg, DenseHeads::<usize>::new());
                assert_eq!(sparse, dense, "n = {n}");
                assert_eq!(wide, dense, "n = {n}");
                assert_eq!(find_matches(&data, &cfg), dense, "n = {n}");
            }
        }
    }

    #[test]
    fn long_match_lengths_capped() {
        let cfg = LzConfig {
            max_match: 16,
            ..LzConfig::default()
        };
        let data = vec![7u8; 200];
        let tokens = find_matches(&data, &cfg);
        assert_eq!(expand(&tokens, &data), data);
        for t in &tokens {
            if let LzToken::Match { len, .. } = t {
                assert!(*len <= 16);
            }
        }
    }

    #[test]
    fn structured_float_bytes() {
        // Interleaved doubles with repeating exponents — the byte structure
        // lossless compressors see on tensor data.
        let vals: Vec<f64> = (0..512).map(|i| (i % 16) as f64 * 0.125).collect();
        let bytes: Vec<u8> = vals.iter().flat_map(|v| v.to_le_bytes()).collect();
        let tokens = roundtrip(&bytes);
        let match_bytes: usize = tokens
            .iter()
            .filter_map(|t| match t {
                LzToken::Match { len, .. } => Some(*len),
                _ => None,
            })
            .sum();
        assert!(
            match_bytes > bytes.len() / 2,
            "periodic data should mostly match"
        );
    }
}
