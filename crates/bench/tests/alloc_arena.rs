//! Arena-backed warm-path allocation guard.
//!
//! Installs a counting global allocator and asserts that, once the
//! thread-local bump arena, the caller's buffers, and the stream's event
//! log are warm, a full cuSZx `compress_raw_into`/`decompress_raw_into`
//! round trip performs ZERO heap allocations: block-code scratch comes
//! from the arena phase, the payload is written straight into the
//! caller's reused output buffer, and the serial single-worker fast path
//! never spawns.
//!
//! Run it with `QCF_WORKERS=1` (as ci.sh does): on a multi-worker pool the
//! test prints `skipping` and checks nothing.
//!
//! (cuSZ's warm path is arena-backed for its symbol plane too; its
//! chunked-Huffman table construction is pooled in the codec's
//! thread-local encode pool and gated separately in
//! `alloc_cusz_table.rs`.)
//!
//! Keep this file to a single `#[test]`: the counter only counts the
//! opted-in test thread, but a sibling test reusing that thread would
//! still show up in the delta.

use compressors::cuszx::CuSzx;
use compressors::{Compressor, ErrorBound};
use gpu_model::exec::worker_count;
use gpu_model::{with_arena_phase, DeviceSpec, Stream};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// System allocator wrapped with an allocation-event counter. Frees are
/// not counted — the guard is about *new* heap traffic in the hot loop.
///
/// Only allocations made by the test thread itself are counted: the
/// libtest harness's main thread blocks on an mpsc `recv` while the test
/// runs, and its lazily-initialized channel context can allocate at an
/// arbitrary point — a race that lands inside the measured window on some
/// runs. The round trip under test is strictly single-threaded (the test
/// skips unless `worker_count() == 1`), so thread-filtering loses
/// nothing. The flag is a const-initialized native TLS cell, which is
/// itself allocation-free to access.
struct CountingAlloc;

static ALLOC_EVENTS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static COUNT_THIS_THREAD: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

fn count() {
    if COUNT_THIS_THREAD.with(|c| c.get()) {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

#[test]
fn warm_cuszx_round_trip_allocates_nothing() {
    COUNT_THIS_THREAD.with(|c| c.set(true));
    if worker_count() != 1 {
        // The zero-allocation contract is the single-worker fast path;
        // scoped worker threads allocate stacks by construction.
        eprintln!("skipping: worker_count()={} (needs 1)", worker_count());
        return;
    }

    let comp = CuSzx::default();
    let stream = Stream::new(DeviceSpec::a100());
    let n = 1usize << 14;
    let data: Vec<f64> = (0..n)
        .map(|i| {
            if i % 5 == 0 {
                (i as f64 * 0.3).sin() * 0.5
            } else {
                1e-8 * (i as f64)
            }
        })
        .collect();
    let bound = ErrorBound::Abs(1e-6);
    let mut bytes = Vec::new();
    let mut out = Vec::new();

    // Warm-up: grow the arena chunk, the output buffers, and the
    // stream's kernel-event log (a Vec that doubles; 24
    // rounds of 2 launches land its capacity well past the measured
    // window below).
    for _ in 0..24 {
        bytes.clear();
        comp.compress_raw_into(&data, bound, &stream, &mut bytes)
            .unwrap();
        comp.decompress_raw_into(&bytes, &stream, &mut out).unwrap();
    }

    // Warm arena phases on this thread must be pure cursor arithmetic.
    let before = ALLOC_EVENTS.load(Ordering::SeqCst);
    for _ in 0..8 {
        with_arena_phase(|arena| {
            let a = arena.alloc_u64(1024);
            let b = arena.alloc_f64(1024);
            a[0] = 1;
            b[0] = 1.0;
        });
    }
    let delta = ALLOC_EVENTS.load(Ordering::SeqCst) - before;
    assert_eq!(delta, 0, "warm arena phases performed {delta} allocations");

    let before = ALLOC_EVENTS.load(Ordering::SeqCst);
    const ROUNDS: u64 = 5;
    for _ in 0..ROUNDS {
        bytes.clear();
        comp.compress_raw_into(&data, bound, &stream, &mut bytes)
            .unwrap();
        comp.decompress_raw_into(&bytes, &stream, &mut out).unwrap();
    }
    let delta = ALLOC_EVENTS.load(Ordering::SeqCst) - before;
    assert_eq!(
        delta, 0,
        "warm cuSZx round trips performed {delta} heap allocations over {ROUNDS} rounds"
    );
    assert_eq!(out.len(), n);

    // The arena actually carried the block scratch: phases reset and the
    // high-water mark covers at least the 128-block u64 code buffer.
    let stats = gpu_model::thread_arena_stats();
    assert!(stats.resets > 0, "no arena phase ran");
    assert!(
        stats.high_water >= 128 * 8,
        "arena high-water {} too small for block scratch",
        stats.high_water
    );
    assert_eq!(stats.bytes_in_use, 0, "phase leaked arena bytes");
}
