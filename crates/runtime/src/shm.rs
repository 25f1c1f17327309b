//! SysV shared-memory IPC — the paper's actual queue substrate.
//!
//! "LVRM allocates a shared memory segment for each IPC queue (via the
//! function call `shmget()`). The shared memory segment is associated with a
//! shared memory identifier, through which LVRM and VRIs can access" (§3.8).
//! This module provides exactly that: a [`ShmRegion`] wrapping
//! `shmget`/`shmat`, and [`ShmFrameQueue`], a Lamport SPSC ring laid out as
//! plain data *inside* the segment so two **processes** (not just threads)
//! can exchange raw frames through it. The cross-`fork()` integration test
//! in `tests/shm_fork.rs` proves the process-to-process path.
//!
//! Layout of a queue segment:
//!
//! ```text
//! [ head: AtomicU32 | pad to 64 | tail: AtomicU32 | pad to 64 |
//!   slot 0: { len: u32, bytes: [u8; SLOT_BYTES] } | slot 1 | ... ]
//! ```
//!
//! The control protocol is Lamport's (one writer per index, payload
//! published with Release before the index). Frames are copied in and out
//! of fixed slots — unlike the in-process queues, reference-counted buffers
//! cannot cross an address-space boundary.

#![cfg(target_os = "linux")]

use std::sync::atomic::{AtomicU32, Ordering};

use lvrm_net::Frame;

/// Maximum frame bytes a slot can carry (jumbo-free Ethernet capture).
pub const SLOT_BYTES: usize = 1514;

const CACHE_LINE: usize = 64;

/// Errors from the SysV shm syscalls.
#[derive(Debug)]
pub struct ShmError {
    pub op: &'static str,
    pub errno: i32,
}

impl std::fmt::Display for ShmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} failed (errno {})", self.op, self.errno)
    }
}

impl std::error::Error for ShmError {}

fn errno() -> i32 {
    std::io::Error::last_os_error().raw_os_error().unwrap_or(-1)
}

/// An attached System V shared-memory segment.
///
/// Created private (`IPC_PRIVATE`): the id is inherited by forked children
/// or passed "via the main arguments to VRIs" exactly as the paper does.
/// The creator marks the segment for destruction on drop; it lives until
/// the last attachment detaches.
pub struct ShmRegion {
    id: i32,
    addr: *mut u8,
    len: usize,
    owner: bool,
}

// SAFETY: the raw pointer refers to shared memory valid for the lifetime of
// the attachment; concurrent access is governed by the queue protocol.
unsafe impl Send for ShmRegion {}

impl ShmRegion {
    /// Allocate and attach a fresh segment of at least `len` bytes.
    pub fn create(len: usize) -> Result<ShmRegion, ShmError> {
        // SAFETY: plain syscalls; flags request a new private segment.
        let id = unsafe { libc::shmget(libc::IPC_PRIVATE, len, libc::IPC_CREAT | 0o600) };
        if id < 0 {
            return Err(ShmError { op: "shmget", errno: errno() });
        }
        let addr = unsafe { libc::shmat(id, std::ptr::null(), 0) };
        if addr as isize == -1 {
            unsafe { libc::shmctl(id, libc::IPC_RMID, std::ptr::null_mut()) };
            return Err(ShmError { op: "shmat", errno: errno() });
        }
        // SAFETY: fresh attachment; zero it so queue indices start clean.
        unsafe { std::ptr::write_bytes(addr as *mut u8, 0, len) };
        Ok(ShmRegion { id, addr: addr as *mut u8, len, owner: true })
    }

    /// Attach an existing segment by id (the identifier LVRM hands a VRI).
    pub fn attach(id: i32, len: usize) -> Result<ShmRegion, ShmError> {
        let addr = unsafe { libc::shmat(id, std::ptr::null(), 0) };
        if addr as isize == -1 {
            return Err(ShmError { op: "shmat", errno: errno() });
        }
        Ok(ShmRegion { id, addr: addr as *mut u8, len, owner: false })
    }

    /// The shared-memory identifier (pass to the peer process).
    pub fn id(&self) -> i32 {
        self.id
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn base(&self) -> *mut u8 {
        self.addr
    }
}

impl Drop for ShmRegion {
    fn drop(&mut self) {
        // SAFETY: detach our mapping; the owner also marks the segment for
        // removal (it persists until every attachment is gone).
        unsafe {
            libc::shmdt(self.addr as *const libc::c_void);
            if self.owner {
                libc::shmctl(self.id, libc::IPC_RMID, std::ptr::null_mut());
            }
        }
    }
}

#[repr(C)]
struct SlotHeader {
    len: u32,
}

// Stride rounded up so every slot header stays 4-byte aligned.
const SLOT_STRIDE: usize = (std::mem::size_of::<SlotHeader>() + SLOT_BYTES + 3) & !3;

/// Bytes of shared memory needed for a queue of `capacity` slots.
pub fn queue_region_len(capacity: usize) -> usize {
    2 * CACHE_LINE + (capacity + 1) * SLOT_STRIDE
}

/// A Lamport SPSC frame ring living inside a [`ShmRegion`].
///
/// Exactly one producer and one consumer — typically in different processes.
/// Both sides construct an `ShmFrameQueue` over their own attachment of the
/// same segment; the type is a view, not an owner.
pub struct ShmFrameQueue<'a> {
    region: &'a ShmRegion,
    slots: usize,
}

impl<'a> ShmFrameQueue<'a> {
    /// View `region` as a queue with `capacity` usable slots. The region
    /// must have been sized with [`queue_region_len`] for the same capacity.
    pub fn new(region: &'a ShmRegion, capacity: usize) -> ShmFrameQueue<'a> {
        assert!(capacity > 0, "queue capacity must be positive");
        assert!(
            region.len() >= queue_region_len(capacity),
            "region too small for {capacity} slots"
        );
        ShmFrameQueue { region, slots: capacity + 1 }
    }

    fn head(&self) -> &AtomicU32 {
        // SAFETY: offset 0 is within the region and aligned; AtomicU32 is
        // valid for any bit pattern and the region outlives `self`.
        unsafe { &*(self.region.base() as *const AtomicU32) }
    }

    fn tail(&self) -> &AtomicU32 {
        // SAFETY: as above, one cache line in.
        unsafe { &*(self.region.base().add(CACHE_LINE) as *const AtomicU32) }
    }

    /// Raw pointer to slot `i`'s header.
    fn slot_ptr(&self, i: usize) -> *mut u8 {
        debug_assert!(i < self.slots);
        // SAFETY: bounds asserted at construction.
        unsafe { self.region.base().add(2 * CACHE_LINE + i * SLOT_STRIDE) }
    }

    /// Try to enqueue a frame's bytes. Fails when the ring is full or the
    /// frame exceeds [`SLOT_BYTES`].
    pub fn try_send(&self, frame: &Frame) -> bool {
        let data = frame.bytes();
        if data.len() > SLOT_BYTES {
            return false;
        }
        let tail = self.tail().load(Ordering::Relaxed) as usize;
        let next = (tail + 1) % self.slots;
        if next == self.head().load(Ordering::Acquire) as usize {
            return false; // full
        }
        let p = self.slot_ptr(tail);
        // SAFETY: the Lamport protocol gives the producer exclusive
        // ownership of slot `tail` until the Release store below.
        unsafe {
            (*(p as *mut SlotHeader)).len = data.len() as u32;
            std::ptr::copy_nonoverlapping(
                data.as_ptr(),
                p.add(std::mem::size_of::<SlotHeader>()),
                data.len(),
            );
        }
        self.tail().store(next as u32, Ordering::Release);
        true
    }

    /// Try to dequeue one frame (copies the bytes out of the segment).
    pub fn try_recv(&self) -> Option<Frame> {
        let head = self.head().load(Ordering::Relaxed) as usize;
        if head == self.tail().load(Ordering::Acquire) as usize {
            return None;
        }
        let p = self.slot_ptr(head);
        // SAFETY: head != tail, so the producer published this slot with
        // Release; our Acquire load pairs with it.
        let frame = unsafe {
            let len = (*(p as *const SlotHeader)).len as usize;
            let len = len.min(SLOT_BYTES);
            let bytes = std::slice::from_raw_parts(p.add(std::mem::size_of::<SlotHeader>()), len);
            Frame::new(bytes)
        };
        self.head().store(((head + 1) % self.slots) as u32, Ordering::Release);
        Some(frame)
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        let head = self.head().load(Ordering::Acquire) as usize;
        let tail = self.tail().load(Ordering::Acquire) as usize;
        (tail + self.slots - head) % self.slots
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lvrm_net::FrameBuilder;
    use std::net::Ipv4Addr;

    fn frame(tag: u8, payload: usize) -> Frame {
        FrameBuilder::new(Ipv4Addr::new(10, 0, 1, 1), Ipv4Addr::new(10, 0, 2, 1)).udp(
            100,
            200,
            &vec![tag; payload],
        )
    }

    #[test]
    fn same_process_roundtrip() {
        let region = ShmRegion::create(queue_region_len(8)).expect("shm available");
        let q = ShmFrameQueue::new(&region, 8);
        assert!(q.is_empty());
        assert!(q.try_send(&frame(7, 100)));
        assert!(q.try_send(&frame(8, 100)));
        assert_eq!(q.len(), 2);
        assert_eq!(q.try_recv().unwrap().udp().unwrap().payload()[0], 7);
        assert_eq!(q.try_recv().unwrap().udp().unwrap().payload()[0], 8);
        assert!(q.try_recv().is_none());
    }

    #[test]
    fn full_ring_refuses() {
        let region = ShmRegion::create(queue_region_len(2)).expect("shm available");
        let q = ShmFrameQueue::new(&region, 2);
        assert!(q.try_send(&frame(1, 10)));
        assert!(q.try_send(&frame(2, 10)));
        assert!(!q.try_send(&frame(3, 10)), "third send exceeds capacity");
        q.try_recv();
        assert!(q.try_send(&frame(3, 10)));
    }

    #[test]
    fn oversized_frames_rejected() {
        let region = ShmRegion::create(queue_region_len(2)).expect("shm available");
        let q = ShmFrameQueue::new(&region, 2);
        assert!(!q.try_send(&frame(1, SLOT_BYTES)), "payload pushes past the slot");
        assert!(q.is_empty());
    }

    #[test]
    fn second_attachment_sees_the_same_data() {
        let region = ShmRegion::create(queue_region_len(4)).expect("shm available");
        let peer = ShmRegion::attach(region.id(), region.len()).expect("attach by id");
        let tx = ShmFrameQueue::new(&region, 4);
        let rx = ShmFrameQueue::new(&peer, 4);
        assert!(tx.try_send(&frame(42, 64)));
        let got = rx.try_recv().expect("visible through the other mapping");
        assert_eq!(got.udp().unwrap().payload()[0], 42);
    }

    #[test]
    fn wraparound_preserves_content() {
        let region = ShmRegion::create(queue_region_len(3)).expect("shm available");
        let q = ShmFrameQueue::new(&region, 3);
        for round in 0..50u8 {
            assert!(q.try_send(&frame(round, 32)));
            let f = q.try_recv().unwrap();
            assert_eq!(f.udp().unwrap().payload(), &[round; 32][..]);
        }
    }
}
