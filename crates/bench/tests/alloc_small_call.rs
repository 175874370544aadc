//! Small-call cost guard: a QCF-ratio round trip of a 4-complex tensor
//! (the size of a contraction intermediate at `min_elems 4`) must cost
//! what the tensor costs, not a fixed toll per call.
//!
//! Installs a counting global allocator and measures one warm
//! `compress` + `decompress` of 8 values. Two per-call tables would
//! dominate this figure, and neither is needed for a tensor this small: a
//! dense LZ77 chain-head array (256 KiB, once for each of the four buffers
//! an encode parses) and the Huffman decoders' multi-symbol prefix table
//! (147 KB, once for each of the four decoders a decode builds). The round
//! trip allocates 41,778 B (release build, x86-64); [`MAX_BYTES`] leaves
//! room for small growth and still fails on either table.
//!
//! It also asserts that no plane thread was spawned: a plane below one
//! stage block encodes serially whatever the pool size. Run it with
//! `QCF_WORKERS=4` (as ci.sh does) so that check binds on any host.
//!
//! Keep this file to a single `#[test]`: the counter is armed globally
//! for the measured window, so a sibling test running concurrently would
//! show up in the figure.

use compressors::{Compressor, ErrorBound};
use gpu_model::exec::take_peak_workers;
use gpu_model::{DeviceSpec, Stream};
use qcf_core::QcfCompressor;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Upper bound on bytes requested from the allocator by one warm round
/// trip (every thread counted, a realloc counted at its new size).
const MAX_BYTES: u64 = 64 * 1024;

/// System allocator wrapped with a byte counter that only counts while
/// [`ARMED`] is set, on any thread, so a spawned plane encoder's
/// allocations count too.
struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn count(bytes: usize) {
    if ARMED.load(Ordering::Relaxed) {
        BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

#[test]
fn tiny_qcf_ratio_round_trip_is_cheap_and_serial() {
    let comp = QcfCompressor::ratio();
    let stream = Stream::new(DeviceSpec::a100());
    // Four complex amplitudes, interleaved re/im, with a repeated value so
    // the dictionary planes (and with them LZ77 and Huffman) engage.
    let data = [0.5, -0.25, 0.125, 0.5, -0.25, 0.125, 0.5, 0.0];
    let bound = ErrorBound::Abs(1e-4);
    let round_trip = || {
        let bytes = comp.compress(&data, bound, &stream).unwrap();
        let back = comp.decompress(&bytes, &stream).unwrap();
        assert_eq!(back.len(), data.len());
        for (a, b) in data.iter().zip(&back) {
            assert!((a - b).abs() <= 1e-4, "{a} vs {b}");
        }
    };

    // Warm-up: one-time lazies (telemetry registry, thread-local arenas,
    // the stream's event log) stay out of the measured figure.
    round_trip();
    take_peak_workers();

    ARMED.store(true, Ordering::SeqCst);
    round_trip();
    ARMED.store(false, Ordering::SeqCst);
    let bytes = BYTES.load(Ordering::SeqCst);
    let peak = take_peak_workers();

    eprintln!("tiny QCF-ratio round trip: {bytes} B allocated, peak workers {peak}");
    assert!(
        bytes <= MAX_BYTES,
        "a 4-complex QCF-ratio round trip allocated {bytes} B (bound {MAX_BYTES} B): \
         a per-call table is back"
    );
    assert_eq!(
        peak, 1,
        "a plane below one stage block must encode without spawning a thread"
    );
}
