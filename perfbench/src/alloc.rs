//! A counting global allocator, armed only inside traced windows.
//!
//! Untraced runs pay one relaxed load of an unarmed flag per allocation.
//! Armed, each thread increments a counter on its own cache line: with one
//! shared counter the generator threads of `batch-ragged` contend on it,
//! and armed pass pairs ran 10-14% slower than unarmed ones (five seeds),
//! against 0-4% with a line per thread. Copies the benchmark makes of its
//! own request templates run inside `uncounted`, so what is counted is the
//! program's work.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

pub struct Counting;

static ARMED: AtomicBool = AtomicBool::new(false);

const SHARDS: usize = 64;

#[repr(align(64))]
struct Shard(AtomicU64);

static COUNTS: [Shard; SHARDS] = [const { Shard(AtomicU64::new(0)) }; SHARDS];

thread_local! {
    // Const-initialised and without a destructor, so touching it from
    // inside the allocator never allocates.
    static PAUSED: Cell<bool> = const { Cell::new(false) };
}

fn count() {
    if ARMED.load(Ordering::Relaxed) {
        // Thread-local blocks sit at the same page offset in every thread:
        // hash the address so neighbouring threads land on different lines.
        let (paused, key) = PAUSED.with(|p| (p.get(), p as *const Cell<bool> as u64));
        if !paused {
            let shard = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 58) as usize % SHARDS;
            COUNTS[shard].0.fetch_add(1, Ordering::Relaxed);
        }
    }
}

// SAFETY: every call is forwarded to `System` unchanged; the counter does
// not touch the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Arms or disarms counting for every thread of the process.
pub fn arm(on: bool) {
    ARMED.store(on, Ordering::Relaxed);
}

pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// Allocations counted so far while armed, over all threads.
pub fn allocations() -> u64 {
    COUNTS.iter().map(|s| s.0.load(Ordering::Relaxed)).sum()
}

/// Runs `f` on this thread without counting its allocations: for the
/// benchmark's own bookkeeping inside an armed window.
pub fn uncounted<T>(f: impl FnOnce() -> T) -> T {
    PAUSED.with(|p| p.set(true));
    let value = f();
    PAUSED.with(|p| p.set(false));
    value
}
