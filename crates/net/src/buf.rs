//! The frame buffer: one heap block behind a thin, reference-counted handle.
//!
//! ```text
//! FrameBuf ──► { refs: AtomicU32, len: u32, bytes: [u8; len] }
//! ```
//!
//! A [`Frame`](crate::Frame) crosses two SPSC queues and is read on another
//! core, so what matters is how many cache lines a reader must pull to get
//! from the handle to the headers. Count, length and bytes share one block:
//! `as_slice` is one dependent load (the length, from the block the handle
//! points at), and the line it brings in already holds the Ethernet and IPv4
//! headers. The handle is a single pointer, which keeps `Frame` at 24 bytes;
//! a fat `Arc<[u8]>` handle needs no `unsafe` but makes it 32, and the
//! monitor moves frames by value through its staging buckets and both queues
//! (DESIGN.md §5, item 10).
//!
//! A block whose last handle drops stays with the thread that dropped it, a
//! few ([`CACHE_BLOCKS`]) of one size at a time, for the frames it copies
//! next — the paper's monitor takes frames from preallocated queue slots
//! (§3.5), and a full-size frame's block is past what the allocator's own
//! per-thread cache holds.
//!
//! All `unsafe` that touches the block lives in this module; nothing outside
//! it can reach the pointer.

use std::alloc::{self, Layout};
use std::cell::RefCell;
use std::ptr::NonNull;
use std::sync::atomic::{fence, AtomicU32, Ordering};

/// Head of the block; the frame's bytes follow it directly.
#[repr(C)]
struct Header {
    /// Handles alive on this block.
    refs: AtomicU32,
    /// Length of the byte run after the header. Written once, before the
    /// first handle exists.
    len: u32,
}

/// Offset of the first frame byte inside the block.
const DATA: usize = std::mem::size_of::<Header>();

/// Blocks a thread keeps at most.
const CACHE_BLOCKS: usize = 32;

/// The blocks a thread let go of last and has not reused: `blocks[..held]`,
/// each `size` bytes (header included) from the global allocator and
/// reachable from here alone. One size, so any of them fits the next frame of
/// that size exactly and every byte of it is overwritten.
struct Cache {
    size: usize,
    blocks: [*mut Header; CACHE_BLOCKS],
    held: usize,
}

thread_local! {
    static CACHE: RefCell<Cache> = const {
        RefCell::new(Cache { size: 0, blocks: [std::ptr::null_mut(); CACHE_BLOCKS], held: 0 })
    };
}

impl Cache {
    /// Hand every block held back to the allocator.
    fn release(&mut self) {
        for block in &self.blocks[..self.held] {
            // SAFETY: the cache owns the block, which came from `alloc` with
            // this layout (`give` files blocks under their own size only).
            unsafe { alloc::dealloc(block.cast::<u8>(), block_layout(self.size)) };
        }
        self.held = 0;
    }
}

impl Drop for Cache {
    /// The thread is exiting.
    fn drop(&mut self) {
        self.release();
    }
}

fn block_layout(size: usize) -> Layout {
    Layout::from_size_align(size, std::mem::align_of::<Header>())
        .expect("frame block size overflows isize")
}

/// A block of exactly `size` bytes this thread kept, if it has one. Out of
/// line, like [`give`]: reached inline, the thread-local access would swell
/// `Frame`'s drop glue in loops that never free a block (EXPERIMENTS.md,
/// "Frames from a pool").
#[inline(never)]
fn take(size: usize) -> Option<NonNull<Header>> {
    let taken = CACHE.try_with(|cache| {
        let mut cache = cache.borrow_mut();
        if cache.size != size || cache.held == 0 {
            return None;
        }
        cache.held -= 1;
        NonNull::new(cache.blocks[cache.held])
    });
    // `Err`: the thread is past its destructors and keeps nothing any more.
    taken.ok().flatten()
}

/// Keep a block whose last handle just dropped for this thread's next frame
/// of its size, or free it when the cache is full (or gone). A block of
/// another size than the ones held turns them out first: the cache follows
/// the size the thread is freeing now.
///
/// Every loop that drops frames calls this, nearly never: the block is all it
/// is passed, and it is `extern "C"` for what that says to the caller — it
/// cannot unwind (a panic in here aborts, as one in `free` would). Declared
/// as a Rust function it may, and every drop of a `Vec<Frame>` grows landing
/// pads and drop guards around a call that was `free` before: 1–2 % of
/// `flows1m`, which never frees a block (EXPERIMENTS.md, "Frames from a
/// pool").
///
/// # Safety
/// `block` is a [`FrameBuf`]'s block whose count has just reached zero.
#[inline(never)]
unsafe extern "C" fn give(block: NonNull<Header>) {
    // Orders every other handle's reads (Release decrements) before the
    // block is rewritten or freed.
    fence(Ordering::Acquire);
    // SAFETY: nobody else can reach the block; `len` was written when it was
    // made, `DATA + len` bytes from `alloc`.
    let size = DATA + unsafe { (*block.as_ptr()).len } as usize;
    // A recycled block is overwritten whole before anyone reads it; a debug
    // build makes a miss visible.
    #[cfg(debug_assertions)]
    // SAFETY: the block is `size` writable bytes nobody else can reach.
    unsafe {
        block.as_ptr().cast::<u8>().write_bytes(0xDD, size)
    };
    let kept = CACHE.try_with(|cache| {
        let mut cache = cache.borrow_mut();
        if cache.size != size {
            cache.release();
            cache.size = size;
        }
        let held = cache.held;
        if held < CACHE_BLOCKS {
            cache.blocks[held] = block.as_ptr();
            cache.held = held + 1;
        }
        held < CACHE_BLOCKS
    });
    if kept != Ok(true) {
        // SAFETY: the block came from `alloc` with this layout, see above.
        unsafe { alloc::dealloc(block.as_ptr().cast::<u8>(), block_layout(size)) };
    }
}

/// Immutable-when-shared byte buffer: clones share the block, and
/// [`FrameBuf::make_mut`] hands out `&mut [u8]` only to a sole owner.
pub(crate) struct FrameBuf {
    /// Start of a live block of `DATA + len` bytes laid out as [`block_layout`]
    /// says, obtained from the global allocator (now, or in an earlier frame's
    /// life) and valid for the whole block until the last handle drops.
    block: NonNull<Header>,
}

// SAFETY: the only field is a pointer to a block whose bytes are plain `u8`
// and whose count is atomic. Handles on several threads only read the bytes;
// `make_mut` writes them only after observing (Acquire) that no other handle
// is left, and the block is freed or kept for reuse by whichever thread drops
// the last one, after an Acquire fence that orders every other handle's reads
// before it.
unsafe impl Send for FrameBuf {}
// SAFETY: `&FrameBuf` allows `as_slice` (shared reads) and `clone` (an atomic
// increment); every write needs `&mut FrameBuf`.
unsafe impl Sync for FrameBuf {}

impl FrameBuf {
    /// A block holding a copy of `bytes`: one this thread kept, else the one
    /// allocation a frame costs.
    pub(crate) fn copy_from_slice(bytes: &[u8]) -> FrameBuf {
        let len = u32::try_from(bytes.len()).expect("frame longer than u32::MAX bytes");
        let size = DATA.checked_add(bytes.len()).expect("frame block size overflows usize");
        let block = take(size).unwrap_or_else(|| {
            let layout = block_layout(size);
            // SAFETY: `layout` is never zero-sized — it includes the header.
            let raw = unsafe { alloc::alloc(layout) };
            NonNull::new(raw.cast::<Header>()).unwrap_or_else(|| alloc::handle_alloc_error(layout))
        });
        // SAFETY: the block is `DATA + len` bytes aligned for `Header`, fresh
        // from the allocator or out of the cache, which holds only blocks of
        // the size asked for: the header write and the `len`-byte copy behind
        // it are in bounds, and `bytes` cannot overlap memory nobody else has.
        unsafe {
            block.as_ptr().write(Header { refs: AtomicU32::new(1), len });
            let data = block.as_ptr().cast::<u8>().add(DATA);
            std::ptr::copy_nonoverlapping(bytes.as_ptr(), data, bytes.len());
        }
        FrameBuf { block }
    }

    fn refs(&self) -> &AtomicU32 {
        // SAFETY: the block outlives every handle, and the header was
        // initialised before the first handle existed.
        unsafe { &(*self.block.as_ptr()).refs }
    }

    pub(crate) fn len(&self) -> usize {
        // SAFETY: as in `refs`; `len` is never written after construction.
        unsafe { (*self.block.as_ptr()).len as usize }
    }

    /// First frame byte. Derived from the block pointer, not from a
    /// `&Header`, so it may address the bytes behind the header.
    fn data(&self) -> *mut u8 {
        // SAFETY: the block is at least `DATA` bytes long.
        unsafe { self.block.as_ptr().cast::<u8>().add(DATA) }
    }

    pub(crate) fn as_slice(&self) -> &[u8] {
        // SAFETY: the `len` bytes at `data` were initialised by
        // `copy_from_slice` and live as long as this handle. Nothing writes
        // them while the `&self` borrow lasts: `make_mut` needs `&mut` on a
        // handle that is the only one.
        unsafe { std::slice::from_raw_parts(self.data(), self.len()) }
    }

    /// The bytes for writing, copy-on-write: in place when this is the only
    /// handle on the block, else on a private copy (one allocation, one
    /// copy) that replaces this handle's share of the old block.
    pub(crate) fn make_mut(&mut self) -> &mut [u8] {
        // Acquire pairs with the Release decrement in `drop`: if the count
        // reads 1, every read another handle made happened before this.
        if self.refs().load(Ordering::Acquire) != 1 {
            *self = FrameBuf::copy_from_slice(self.as_slice());
        }
        // SAFETY: the count is 1 and this handle is borrowed mutably, so no
        // other handle exists and none can be cloned while the slice lives;
        // bounds and initialisation as in `as_slice`.
        unsafe { std::slice::from_raw_parts_mut(self.data(), self.len()) }
    }
}

impl Clone for FrameBuf {
    fn clone(&self) -> FrameBuf {
        // Relaxed, as in `Arc`: the new handle is made from a live one, which
        // already keeps the block alive and orders nothing else.
        let before = self.refs().fetch_add(1, Ordering::Relaxed);
        // A wrapped count would free a block still in use. 2^31 live handles
        // are 48 GiB of `Frame`s, so this is a leak loop (`mem::forget`), and
        // the only sound answer is the one `Arc` gives.
        if before > u32::MAX / 2 {
            std::process::abort();
        }
        FrameBuf { block: self.block }
    }
}

impl Drop for FrameBuf {
    fn drop(&mut self) {
        // Release publishes this handle's reads to whoever frees or rewrites
        // the block (the Acquire in `give`, or the one in `make_mut`).
        if self.refs().fetch_sub(1, Ordering::Release) != 1 {
            return;
        }
        // SAFETY: that was the last handle.
        unsafe { give(self.block) };
    }
}
