//! Timing wrappers for the traced run.
//!
//! Both wrappers sit *outside* the program: they delegate to the real
//! compressor and hook and only read the clock around each call, so the
//! bytes and energies they produce are those of the unwrapped objects.

use codec_kit::CodecError;
use compressors::{Compressor, CompressorKind, ErrorBound};
use gpu_model::Stream;
use qtensor::compressed::CompressingHook;
use qtensor::{ContractError, ContractionHook};
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread::ThreadId;
use std::time::Instant;
use tensornet::Tensor;

/// One counter of [`TimedCompressor`]; the discriminant indexes [`Tallies`].
#[derive(Debug, Clone, Copy)]
pub enum Tally {
    EncodeCalls,
    DecodeCalls,
    EncodeNs,
    DecodeMainNs,
    DecodeBgNs,
    /// Raw bytes handed to the encoder.
    BytesIn,
    /// Bare (unframed) stream bytes the encoder produced.
    BytesOut,
    /// Raw bytes the decoder reconstructed.
    DecodedBytes,
    Errors,
    /// Encodes whose output is smaller than their input.
    Shrunk,
    /// Encode time for inputs under 4 KiB.
    EncodeNsLt4k,
    /// Encode time for inputs from 4 KiB up to 1 MiB.
    EncodeNs4kTo1m,
    /// Encode time for inputs of 1 MiB and more.
    EncodeNsGe1m,
}

const N_TALLIES: usize = Tally::EncodeNsGe1m as usize + 1;

/// A point-in-time copy of a [`TimedCompressor`]'s counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tallies([u64; N_TALLIES]);

impl Tallies {
    pub fn get(&self, t: Tally) -> u64 {
        self.0[t as usize]
    }

    /// Seconds held by a nanosecond counter.
    pub fn secs(&self, t: Tally) -> f64 {
        self.get(t) as f64 * 1e-9
    }

    /// Adds another set of counters field by field.
    pub fn add(&mut self, other: &Tallies) {
        for (a, b) in self.0.iter_mut().zip(other.0) {
            *a += b;
        }
    }
}

/// A [`Compressor`] that delegates `name`/`id`/`kind` and the four `*_raw*`
/// methods to `inner` and times each raw call. The framed methods keep the
/// trait's default bodies, so frame sealing and verification run exactly as
/// for `inner` (and are *not* counted as codec time).
pub struct TimedCompressor<'a> {
    inner: &'a dyn Compressor,
    main: ThreadId,
    counts: [AtomicU64; N_TALLIES],
}

impl<'a> TimedCompressor<'a> {
    /// Wraps `inner`; calls from the constructing thread count as main.
    pub fn new(inner: &'a dyn Compressor) -> Self {
        TimedCompressor {
            inner,
            main: std::thread::current().id(),
            counts: Default::default(),
        }
    }

    pub fn snapshot(&self) -> Tallies {
        Tallies(std::array::from_fn(|i| {
            self.counts[i].load(Ordering::Relaxed)
        }))
    }

    fn bump(&self, t: Tally, by: u64) {
        // Relaxed: plain statistics, read after the threads are joined.
        self.counts[t as usize].fetch_add(by, Ordering::Relaxed);
    }

    fn note_encode(&self, values: usize, t0: Instant, out: Result<usize, &CodecError>) {
        let ns = t0.elapsed().as_nanos() as u64;
        let bytes_in = (values * 8) as u64;
        self.bump(Tally::EncodeCalls, 1);
        self.bump(Tally::EncodeNs, ns);
        let class = match bytes_in {
            b if b < 4 << 10 => Tally::EncodeNsLt4k,
            b if b < 1 << 20 => Tally::EncodeNs4kTo1m,
            _ => Tally::EncodeNsGe1m,
        };
        self.bump(class, ns);
        match out {
            Ok(len) => {
                self.bump(Tally::BytesIn, bytes_in);
                self.bump(Tally::BytesOut, len as u64);
                if (len as u64) < bytes_in {
                    self.bump(Tally::Shrunk, 1);
                }
            }
            Err(_) => self.bump(Tally::Errors, 1),
        }
    }

    fn note_decode(&self, t0: Instant, out: Result<usize, &CodecError>) {
        let ns = t0.elapsed().as_nanos() as u64;
        self.bump(Tally::DecodeCalls, 1);
        if std::thread::current().id() == self.main {
            self.bump(Tally::DecodeMainNs, ns);
        } else {
            self.bump(Tally::DecodeBgNs, ns);
        }
        match out {
            Ok(values) => self.bump(Tally::DecodedBytes, (values * 8) as u64),
            Err(_) => self.bump(Tally::Errors, 1),
        }
    }
}

impl Compressor for TimedCompressor<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn id(&self) -> u8 {
        self.inner.id()
    }

    fn kind(&self) -> CompressorKind {
        self.inner.kind()
    }

    fn compress_raw(
        &self,
        data: &[f64],
        bound: ErrorBound,
        stream: &Stream,
    ) -> Result<Vec<u8>, CodecError> {
        let t0 = Instant::now();
        let res = self.inner.compress_raw(data, bound, stream);
        self.note_encode(data.len(), t0, res.as_ref().map(Vec::len));
        res
    }

    fn compress_raw_into(
        &self,
        data: &[f64],
        bound: ErrorBound,
        stream: &Stream,
        out: &mut Vec<u8>,
    ) -> Result<(), CodecError> {
        let t0 = Instant::now();
        let res = self.inner.compress_raw_into(data, bound, stream, out);
        self.note_encode(data.len(), t0, res.as_ref().map(|_| out.len()));
        res
    }

    fn decompress_raw(&self, bytes: &[u8], stream: &Stream) -> Result<Vec<f64>, CodecError> {
        let t0 = Instant::now();
        let res = self.inner.decompress_raw(bytes, stream);
        self.note_decode(t0, res.as_ref().map(Vec::len));
        res
    }

    fn decompress_raw_into(
        &self,
        bytes: &[u8],
        stream: &Stream,
        out: &mut Vec<f64>,
    ) -> Result<(), CodecError> {
        let t0 = Instant::now();
        let res = self.inner.decompress_raw_into(bytes, stream, out);
        self.note_decode(t0, res.as_ref().map(|_| out.len()));
        res
    }
}

/// A [`ContractionHook`] that times every call into a [`CompressingHook`].
pub struct TimedHook<'a> {
    pub hook: CompressingHook<'a>,
    /// Time spent inside `hook.on_intermediate`.
    pub ns: u64,
}

impl<'a> TimedHook<'a> {
    pub fn new(hook: CompressingHook<'a>) -> Self {
        TimedHook { hook, ns: 0 }
    }
}

impl ContractionHook for TimedHook<'_> {
    fn on_intermediate(&mut self, tensor: Tensor) -> Result<Tensor, ContractError> {
        let t0 = Instant::now();
        let res = self.hook.on_intermediate(tensor);
        self.ns += t0.elapsed().as_nanos() as u64;
        res
    }
}
