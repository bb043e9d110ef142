//! Live-heap accounting for the `peak_heap_mib` metric.
//!
//! The process's resident-set high-water mark is a poor measure here:
//! the allocator keeps freed pages resident, so it grows with the number
//! of passes a run fits in, and it cannot be reset between passes. This
//! global allocator forwards to the system allocator and, only inside
//! [`measure`], counts the bytes allocated and freed, so the peak of
//! one pass can be read exactly. Outside `measure` each call costs one
//! relaxed load of a flag that is not set, so timed passes run on the
//! system allocator as users run it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering::Relaxed};

static COUNTING: AtomicBool = AtomicBool::new(false);
/// Bytes allocated minus bytes freed since counting began. Memory
/// allocated before and freed during the measurement makes it dip below
/// zero, hence signed.
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

fn grow(bytes: usize) {
    if COUNTING.load(Relaxed) {
        let bytes = bytes as isize;
        let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
        PEAK.fetch_max(live, Relaxed);
    }
}

fn shrink(bytes: usize) {
    if COUNTING.load(Relaxed) {
        LIVE.fetch_sub(bytes as isize, Relaxed);
    }
}

/// Runs `f` with counting on and returns its result and the largest
/// growth of the live heap above its size when `f` began, in MiB.
pub fn measure<R>(f: impl FnOnce() -> R) -> (R, f64) {
    LIVE.store(0, Relaxed);
    PEAK.store(0, Relaxed);
    COUNTING.store(true, Relaxed);
    let out = f();
    COUNTING.store(false, Relaxed);
    (out, PEAK.load(Relaxed) as f64 / (1024.0 * 1024.0))
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters only observe
// the sizes and never touch the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's guarantees for `layout` are passed on.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's guarantees for `layout` are passed on.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`, as the
        // caller guarantees for this allocator.
        unsafe { System.dealloc(ptr, layout) };
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller's guarantees for `ptr`, `layout` and
        // `new_size` are passed on.
        let q = unsafe { System.realloc(ptr, layout, new_size) };
        if !q.is_null() {
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                shrink(layout.size() - new_size);
            }
        }
        q
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;
