//! The frame buffer against a `Vec<u8>` model: clones share, a write never
//! shows through another handle, a sole owner is rewritten where it lies
//! without allocating, and the block is freed exactly once, from whichever
//! thread lets go last. CI runs this file under Miri as well — the buffer is
//! the crate's one hand-rolled allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

use lvrm_net::Frame;
use proptest::prelude::*;

/// Block size no other allocation in this binary has: a frame of
/// `MARKED_LEN` bytes plus the buffer's 8-byte header.
const MARKED_LEN: usize = 48_611;
const MARKED_BLOCK: usize = MARKED_LEN + 8;

/// Forwards to the system allocator, counting this thread's allocations and,
/// across threads, the marked blocks made and freed.
struct Counting;

thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}
static MARKED_ALLOCS: AtomicU64 = AtomicU64::new(0);
static MARKED_FREES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`; the counters touch
// no allocator state and never allocate (the thread-local is const-initialised
// and has no destructor).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = THREAD_ALLOCS.try_with(|n| n.set(n.get() + 1));
        if layout.size() == MARKED_BLOCK {
            MARKED_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller's contract, passed on.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if layout.size() == MARKED_BLOCK {
            MARKED_FREES.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller's contract, passed on.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

fn thread_allocs() -> u64 {
    THREAD_ALLOCS.with(Cell::get)
}

#[derive(Clone, Debug)]
enum Op {
    Clone(usize),
    Write { handle: usize, at: usize, value: u8 },
    Drop(usize),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        any::<usize>().prop_map(Op::Clone),
        (any::<usize>(), any::<usize>(), any::<u8>()).prop_map(|(handle, at, value)| Op::Write {
            handle,
            at,
            value
        }),
        any::<usize>().prop_map(Op::Drop),
    ]
}

/// A handle, what its bytes must read, and which block the model says it is
/// on (handles with the same number share).
struct Held {
    frame: Frame,
    model: Vec<u8>,
    block: usize,
}

#[cfg(not(miri))]
const CASES: u32 = 256;
#[cfg(miri)]
const CASES: u32 = 12;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn clone_write_drop_interleavings_match_the_vec_model(
        seed in prop::collection::vec(any::<u8>(), 1..80),
        ops in prop::collection::vec(arb_op(), 1..60),
    ) {
        let mut held = vec![Held { frame: Frame::new(&seed), model: seed.clone(), block: 0 }];
        let mut blocks = 1;
        for op in ops {
            if held.is_empty() {
                break;
            }
            match op {
                Op::Clone(i) => {
                    let h = &held[i % held.len()];
                    let before = thread_allocs();
                    let frame = h.frame.clone();
                    prop_assert_eq!(thread_allocs(), before, "a clone allocates nothing");
                    prop_assert_eq!(frame.bytes().as_ptr(), h.frame.bytes().as_ptr());
                    let (model, block) = (h.model.clone(), h.block);
                    held.push(Held { frame, model, block });
                }
                Op::Write { handle, at, value } => {
                    let i = handle % held.len();
                    let shared = held.iter().filter(|h| h.block == held[i].block).count() > 1;
                    let h = &mut held[i];
                    let at = at % h.model.len();
                    let (addr, before) = (h.frame.bytes().as_ptr(), thread_allocs());
                    h.frame.modify_bytes(|b| b[at] = value);
                    let allocs = thread_allocs() - before;
                    h.model[at] = value;
                    if shared {
                        prop_assert_eq!(allocs, 1, "a shared buffer moves: one allocation");
                        prop_assert_ne!(h.frame.bytes().as_ptr(), addr);
                        h.block = blocks;
                        blocks += 1;
                    } else {
                        prop_assert_eq!(allocs, 0, "a sole owner is rewritten in place");
                        prop_assert_eq!(h.frame.bytes().as_ptr(), addr);
                    }
                }
                Op::Drop(i) => {
                    held.swap_remove(i % held.len());
                }
            }
            // No write ever shows through another handle.
            for h in &held {
                prop_assert_eq!(h.frame.bytes(), &h.model[..]);
                prop_assert_eq!(h.frame.len(), h.model.len());
            }
        }
    }
}

#[test]
fn handles_dropped_on_many_threads_free_the_block_exactly_once() {
    const THREADS: usize = 4;
    let rounds = if cfg!(miri) { 20 } else { 20_000 };
    let bytes: Vec<u8> = (0..MARKED_LEN).map(|i| i as u8).collect();
    let frame = Frame::new(&bytes);
    assert_eq!(MARKED_ALLOCS.load(Ordering::Relaxed), 1);
    let start = Arc::new(Barrier::new(THREADS + 1));
    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            let (mine, start, want) = (frame.clone(), Arc::clone(&start), bytes.clone());
            std::thread::spawn(move || {
                start.wait();
                for round in 0..rounds {
                    let mut copy = mine.clone();
                    assert_eq!(copy.bytes(), &want[..]);
                    if round % 64 == t {
                        // Shared, so the write lands on a private copy —
                        // one more marked block, made and freed here.
                        copy.modify_bytes(|b| b[0] = !b[0]);
                        assert_ne!(copy.bytes()[0], mine.bytes()[0]);
                    }
                }
            })
        })
        .collect();
    start.wait();
    // The first handle goes while the others are busy cloning.
    drop(frame);
    for w in workers {
        w.join().expect("worker");
    }
    let made = MARKED_ALLOCS.load(Ordering::Relaxed);
    assert!(made > 1, "the writes made private copies");
    assert_eq!(
        MARKED_FREES.load(Ordering::Relaxed),
        made,
        "each block freed once, the shared one too"
    );
}

#[test]
fn frame_is_send_and_sync() {
    fn shared_across_threads<T: Send + Sync>() {}
    shared_across_threads::<Frame>();
}
