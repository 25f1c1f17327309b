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
//! All `unsafe` that touches the block lives in this module; nothing outside
//! it can reach the pointer.

use std::alloc::{self, Layout};
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

/// Immutable-when-shared byte buffer: clones share the block, and
/// [`FrameBuf::make_mut`] hands out `&mut [u8]` only to a sole owner.
pub(crate) struct FrameBuf {
    /// Start of a live block laid out as [`FrameBuf::layout`] says, obtained
    /// from the global allocator and valid for the whole block (header and
    /// bytes), until the last handle drops.
    block: NonNull<Header>,
}

// SAFETY: the only field is a pointer to a block whose bytes are plain `u8`
// and whose count is atomic. Handles on several threads only read the bytes;
// `make_mut` writes them only after observing (Acquire) that no other handle
// is left, and the block is freed by whichever thread drops the last one,
// after an Acquire fence that orders every other handle's reads before it.
unsafe impl Send for FrameBuf {}
// SAFETY: `&FrameBuf` allows `as_slice` (shared reads) and `clone` (an atomic
// increment); every write needs `&mut FrameBuf`.
unsafe impl Sync for FrameBuf {}

impl FrameBuf {
    fn layout(len: usize) -> Layout {
        let size = DATA.checked_add(len).expect("frame block size overflows usize");
        Layout::from_size_align(size, std::mem::align_of::<Header>())
            .expect("frame block size overflows isize")
    }

    /// A fresh block holding a copy of `bytes`: the one allocation a frame
    /// costs.
    pub(crate) fn copy_from_slice(bytes: &[u8]) -> FrameBuf {
        let len = u32::try_from(bytes.len()).expect("frame longer than u32::MAX bytes");
        let layout = FrameBuf::layout(bytes.len());
        // SAFETY: `layout` is never zero-sized — it includes the header.
        let raw = unsafe { alloc::alloc(layout) };
        let Some(block) = NonNull::new(raw.cast::<Header>()) else {
            alloc::handle_alloc_error(layout)
        };
        // SAFETY: `raw` is a fresh allocation of `DATA + len` bytes aligned
        // for `Header`, so the header write and the `len`-byte copy behind it
        // are in bounds; `bytes` cannot overlap memory nobody else has yet.
        unsafe {
            block.as_ptr().write(Header { refs: AtomicU32::new(1), len });
            std::ptr::copy_nonoverlapping(bytes.as_ptr(), raw.add(DATA), bytes.len());
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
        // the block (the Acquire below, or the one in `make_mut`).
        if self.refs().fetch_sub(1, Ordering::Release) != 1 {
            return;
        }
        fence(Ordering::Acquire);
        let layout = FrameBuf::layout(self.len());
        // SAFETY: the last handle is gone, so nobody can reach the block; it
        // came from `alloc` with this same layout.
        unsafe { alloc::dealloc(self.block.as_ptr().cast::<u8>(), layout) };
    }
}
