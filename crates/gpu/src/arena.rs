//! Phase-scoped scratch memory: a per-thread bump [`Arena`].
//!
//! This is the only scratch mechanism in the crates. A pipeline phase that needs
//! short-lived slices (codec symbol tables, histograms, packed planes) runs
//! inside [`with_arena_phase`] and carves them off the calling thread's
//! arena; everything is released in one cursor move when the phase ends.
//! Buffers that outlive a phase, or that executor workers build, are plain
//! `Vec`s.

use qcf_telemetry::Counter;
use std::sync::Arc;

/// Minimum size of an [`Arena`] chunk. Small enough that idle threads cost
/// little, big enough that a typical codec phase fits in one chunk.
const ARENA_MIN_CHUNK: usize = 64 * 1024;

/// Alignment of every arena chunk and every bump allocation. Covers all
/// element types the pipeline traffics in (`u8`/`u32`/`u64`/`f64`) and
/// leaves headroom for 16-byte SIMD lanes.
const ARENA_ALIGN: usize = 16;

/// A bump allocator for phase-scoped codec scratch.
///
/// `Arena` hands out borrowed slices carved from a few large chunks and
/// releases them all at once when the phase ends. Allocation is a cursor bump (no locks, no
/// free-list search), chunks double in size as the arena grows, and after
/// the first warm phase the largest chunk covers the whole working set —
/// so warm-path allocation count is zero and there is no grown-once
/// fragmentation: the same chunk bytes are reused verbatim every phase.
///
/// The intended entry point is [`with_arena_phase`], which runs a closure
/// against the calling thread's arena and rolls the cursor back when the
/// closure returns (or unwinds). Phases nest: an inner phase rolls back to
/// its own mark, leaving outer allocations intact. Returned slices are
/// zero-initialized.
///
/// `Arena` is deliberately `!Send`/`!Sync`: each OS thread owns one via a
/// thread-local, so the bump cursor needs no synchronization. Executor
/// worker closures should keep using per-block `Vec`s — worker threads are
/// ephemeral (spawned per `par_*` call), so a thread-local arena there
/// would be allocated and dropped every call.
pub struct Arena {
    chunks: std::cell::RefCell<Vec<ArenaChunk>>,
    /// Index of the chunk the bump cursor currently sits in.
    cursor_chunk: std::cell::Cell<usize>,
    /// Byte offset of the cursor within that chunk.
    cursor_off: std::cell::Cell<usize>,
    high_water: std::cell::Cell<usize>,
    resets: std::cell::Cell<u64>,
    /// Cached registry handles (`workspace.arena.*`); lookups happen once.
    gauge_in_use: Arc<qcf_telemetry::Gauge>,
    resets_ctr: Arc<Counter>,
}

struct ArenaChunk {
    ptr: std::ptr::NonNull<u8>,
    len: usize,
}

/// A saved cursor position; releasing to it frees everything allocated
/// after the mark was taken.
#[derive(Debug, Clone, Copy)]
pub struct ArenaMark {
    chunk: usize,
    off: usize,
}

/// Point-in-time usage figures of one [`Arena`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ArenaStats {
    /// Bytes currently bumped (including alignment padding and skipped
    /// chunk tails).
    pub bytes_in_use: usize,
    /// Highest `bytes_in_use` ever observed.
    pub high_water: usize,
    /// Phase releases performed so far.
    pub resets: u64,
    /// Chunks currently backing the arena.
    pub chunks: usize,
}

impl Default for Arena {
    fn default() -> Self {
        Arena::new()
    }
}

impl Arena {
    /// A fresh arena with no chunks; the first allocation grows it.
    pub fn new() -> Self {
        let r = qcf_telemetry::registry();
        Arena {
            chunks: std::cell::RefCell::new(Vec::new()),
            cursor_chunk: std::cell::Cell::new(0),
            cursor_off: std::cell::Cell::new(0),
            high_water: std::cell::Cell::new(0),
            resets: std::cell::Cell::new(0),
            gauge_in_use: r.gauge("workspace.arena.bytes_in_use"),
            resets_ctr: r.counter("workspace.arena.resets"),
        }
    }

    /// A zeroed `u8` slice of `len`, valid until the enclosing phase ends.
    #[allow(clippy::mut_from_ref)]
    pub fn alloc_u8(&self, len: usize) -> &mut [u8] {
        self.alloc_slice(len)
    }

    /// A zeroed `u32` slice of `len`, valid until the enclosing phase ends.
    #[allow(clippy::mut_from_ref)]
    pub fn alloc_u32(&self, len: usize) -> &mut [u32] {
        self.alloc_slice(len)
    }

    /// A zeroed `u64` slice of `len`, valid until the enclosing phase ends.
    #[allow(clippy::mut_from_ref)]
    pub fn alloc_u64(&self, len: usize) -> &mut [u64] {
        self.alloc_slice(len)
    }

    /// A zeroed `f64` slice of `len`, valid until the enclosing phase ends.
    #[allow(clippy::mut_from_ref)]
    pub fn alloc_f64(&self, len: usize) -> &mut [f64] {
        self.alloc_slice(len)
    }

    /// The current cursor; pass to [`release_to`](Arena::release_to) to
    /// free everything allocated after this point.
    pub fn mark(&self) -> ArenaMark {
        ArenaMark {
            chunk: self.cursor_chunk.get(),
            off: self.cursor_off.get(),
        }
    }

    /// Rolls the cursor back to `mark`. Every slice handed out after the
    /// mark must be dead by now — [`with_arena_phase`] enforces this with
    /// closure lifetimes; direct callers must uphold it themselves (the
    /// borrow checker does it for them as long as slices from before the
    /// mark are not conflated with slices from after).
    pub fn release_to(&self, mark: ArenaMark) {
        self.cursor_chunk.set(mark.chunk);
        self.cursor_off.set(mark.off);
        self.resets.set(self.resets.get() + 1);
        self.resets_ctr.inc();
        self.gauge_in_use.set(self.bytes_in_use() as i64);
    }

    /// Current usage figures.
    pub fn stats(&self) -> ArenaStats {
        ArenaStats {
            bytes_in_use: self.bytes_in_use(),
            high_water: self.high_water.get(),
            resets: self.resets.get(),
            chunks: self.chunks.borrow().len(),
        }
    }

    fn bytes_in_use(&self) -> usize {
        let chunks = self.chunks.borrow();
        let full: usize = chunks
            .iter()
            .take(self.cursor_chunk.get().min(chunks.len()))
            .map(|c| c.len)
            .sum();
        full + self.cursor_off.get()
    }

    /// Carves a zeroed, `ARENA_ALIGN`-aligned `&mut [T]` off the bump
    /// cursor.
    ///
    /// Soundness: every call advances the cursor past the returned region,
    /// so two live slices never alias; the cursor only moves backwards in
    /// `release_to`, whose callers guarantee the freed slices are dead.
    #[allow(clippy::mut_from_ref)]
    fn alloc_slice<T>(&self, len: usize) -> &mut [T] {
        debug_assert!(std::mem::align_of::<T>() <= ARENA_ALIGN);
        if len == 0 {
            return &mut [];
        }
        let bytes = len
            .checked_mul(std::mem::size_of::<T>())
            .expect("arena allocation size overflows usize");
        let ptr = self.alloc_bytes(bytes);
        unsafe {
            std::ptr::write_bytes(ptr, 0, bytes);
            std::slice::from_raw_parts_mut(ptr.cast::<T>(), len)
        }
    }

    fn alloc_bytes(&self, need: usize) -> *mut u8 {
        loop {
            {
                let chunks = self.chunks.borrow();
                if let Some(c) = chunks.get(self.cursor_chunk.get()) {
                    let off = (self.cursor_off.get() + ARENA_ALIGN - 1) & !(ARENA_ALIGN - 1);
                    if let Some(end) = off.checked_add(need) {
                        if end <= c.len {
                            self.cursor_off.set(end);
                            let ptr = unsafe { c.ptr.as_ptr().add(off) };
                            drop(chunks);
                            self.note_usage();
                            return ptr;
                        }
                    }
                }
                // Cursor chunk exhausted (or none yet): move into the next
                // retained chunk if a nested-phase rollback left one, else
                // grow.
                if self.cursor_chunk.get() + 1 < chunks.len() {
                    self.cursor_chunk.set(self.cursor_chunk.get() + 1);
                    self.cursor_off.set(0);
                    continue;
                }
            }
            self.grow(need);
        }
    }

    #[cold]
    fn grow(&self, need: usize) {
        let last = self.chunks.borrow().last().map_or(0, |c| c.len);
        let size = need.max(last.saturating_mul(2)).max(ARENA_MIN_CHUNK);
        let size = size.checked_next_power_of_two().unwrap_or(size);
        let layout =
            std::alloc::Layout::from_size_align(size, ARENA_ALIGN).expect("arena chunk layout");
        let raw = unsafe { std::alloc::alloc(layout) };
        let Some(ptr) = std::ptr::NonNull::new(raw) else {
            std::alloc::handle_alloc_error(layout);
        };
        let mut chunks = self.chunks.borrow_mut();
        chunks.push(ArenaChunk { ptr, len: size });
        self.cursor_chunk.set(chunks.len() - 1);
        self.cursor_off.set(0);
    }

    fn note_usage(&self) {
        let used = self.bytes_in_use();
        if used > self.high_water.get() {
            self.high_water.set(used);
        }
        self.gauge_in_use.set(used as i64);
    }
}

impl Drop for Arena {
    fn drop(&mut self) {
        for c in self.chunks.get_mut().drain(..) {
            unsafe {
                std::alloc::dealloc(
                    c.ptr.as_ptr(),
                    std::alloc::Layout::from_size_align_unchecked(c.len, ARENA_ALIGN),
                );
            }
        }
    }
}

impl std::fmt::Debug for Arena {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Arena")
            .field("stats", &self.stats())
            .finish()
    }
}

thread_local! {
    /// One arena per OS thread. Only caller-thread pipeline phases use it;
    /// ephemeral executor workers never touch it (see [`Arena`] docs).
    static THREAD_ARENA: Arena = Arena::new();
}

struct PhaseGuard<'a> {
    arena: &'a Arena,
    mark: ArenaMark,
}

impl Drop for PhaseGuard<'_> {
    fn drop(&mut self) {
        // Runs on unwind too, so a panicking phase still releases its
        // allocations instead of leaking cursor space forever.
        self.arena.release_to(self.mark);
    }
}

/// Runs `f` against the calling thread's [`Arena`], releasing everything
/// the phase allocated when `f` returns or unwinds.
///
/// The closure receives `&Arena` with a fresh lifetime, so slices it
/// allocates cannot escape through the return value — the same trick
/// `std::thread::scope` uses. Phases nest freely; an inner phase rolls
/// back to its own mark only.
pub fn with_arena_phase<R>(f: impl FnOnce(&Arena) -> R) -> R {
    THREAD_ARENA.with(|arena| {
        let guard = PhaseGuard {
            arena,
            mark: arena.mark(),
        };
        f(guard.arena)
    })
}

/// Usage figures of the calling thread's arena (tests, reports).
pub fn thread_arena_stats() -> ArenaStats {
    THREAD_ARENA.with(|a| a.stats())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arena_slices_are_zeroed_and_disjoint() {
        let arena = Arena::new();
        let mark = arena.mark();
        let a = arena.alloc_u32(100);
        let b = arena.alloc_u32(100);
        assert!(a.iter().all(|&v| v == 0));
        a.fill(7);
        b.fill(9);
        assert!(a.iter().all(|&v| v == 7), "b must not alias a");
        assert!(b.iter().all(|&v| v == 9));
        let f = arena.alloc_f64(3);
        assert_eq!(f, &[0.0; 3]);
        assert!(arena.stats().bytes_in_use >= 800 + 24);
        arena.release_to(mark);
        assert_eq!(arena.stats().bytes_in_use, 0);
        assert_eq!(arena.stats().resets, 1);
    }

    #[test]
    fn arena_phase_releases_and_reuses_chunks() {
        let warm = with_arena_phase(|a| {
            a.alloc_u64(1 << 12);
            a.alloc_u8(1 << 12);
            a.stats()
        });
        assert!(warm.chunks >= 1);
        // A second identical phase must not grow the arena further.
        let again = with_arena_phase(|a| {
            a.alloc_u64(1 << 12);
            a.alloc_u8(1 << 12);
            a.stats()
        });
        assert_eq!(again.chunks, warm.chunks, "warm phase must not grow");
        assert_eq!(again.high_water, warm.high_water);
        assert_eq!(thread_arena_stats().bytes_in_use, 0, "phase released");
    }

    #[test]
    fn arena_nested_phase_rolls_back_to_own_mark() {
        with_arena_phase(|a| {
            let outer = a.alloc_u32(16);
            outer.fill(5);
            let inner_stats = with_arena_phase(|b| {
                b.alloc_u32(1 << 16); // force growth past the outer chunk
                b.stats()
            });
            assert!(inner_stats.bytes_in_use > 16 * 4);
            // Inner released; outer allocation still live and intact.
            assert!(outer.iter().all(|&v| v == 5));
            let next = a.alloc_u32(8);
            next.fill(1);
            assert!(outer.iter().all(|&v| v == 5), "no aliasing after rollback");
        });
    }

    #[test]
    fn arena_phase_releases_on_panic() {
        let before = thread_arena_stats();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            with_arena_phase(|a| {
                a.alloc_u8(1024);
                panic!("boom");
            })
        }));
        assert!(r.is_err());
        let after = thread_arena_stats();
        assert_eq!(after.bytes_in_use, before.bytes_in_use);
        assert_eq!(after.resets, before.resets + 1);
    }

    #[test]
    fn arena_grows_doubling_chunks() {
        let arena = Arena::new();
        arena.alloc_u8(ARENA_MIN_CHUNK + 1); // bigger than the first chunk
        let st = arena.stats();
        assert_eq!(st.chunks, 1, "single oversized chunk, not two");
        arena.alloc_u8(ARENA_MIN_CHUNK * 4);
        assert_eq!(arena.stats().chunks, 2);
        assert!(arena.stats().high_water >= ARENA_MIN_CHUNK * 5);
    }
}
