//! The census allocator: a global allocator that counts the heap
//! allocation events (`alloc`, `alloc_zeroed`, `realloc`) of each thread.
//! A census binary declares `mod counting_alloc;` and reads [`allocs`]
//! around what it measures. Per thread, so the tests the harness runs
//! beside a census do not show up in its counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Heap allocation events of this thread so far.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Forwards to `System`, counting `alloc`, `alloc_zeroed` and `realloc`
/// against the calling thread.
struct CountingAlloc;

/// Count one allocation event on this thread. A `const`-initialised
/// `Cell` with no destructor is a plain thread-local slot: reaching it
/// neither allocates nor fails, even while the thread is torn down.
fn bump() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition is a thread-local
// counter bump that neither allocates nor touches the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller's `layout` obligations pass through to `System`.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`; the caller guarantees `new_size` is valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocation events of this thread so far.
pub fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}
