//! The frame buffer against a `Vec<u8>` model: clones share, a write never
//! shows through another handle, a sole owner is rewritten where it lies, and
//! a block nobody holds any more is kept by the thread that let go last —
//! up to a bound, one size at a time — for the next frame of its size, which
//! must find none of the old frame in it. The allocator is called only for a
//! block the thread's cache cannot supply, and every block goes back to it
//! exactly once: when the cache is full, turns to another size, or its thread
//! exits. CI runs this file under Miri as well, leak check on — the buffer is
//! the crate's one hand-rolled allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Barrier};

use lvrm_net::Frame;
use proptest::prelude::*;

/// The buffer's header, in front of a frame's bytes in its block.
const HEADER: usize = 8;
/// Blocks a thread keeps at most (`buf.rs`, `CACHE_BLOCKS`).
const CACHE_BLOCKS: usize = 32;

/// Frame lengths whose blocks no other allocation in this binary has the size
/// of, one per test that counts across threads.
const SHARED_LEN: usize = 48_611;
const HANDOFF_LEN: usize = 47_303;
const BOUND_LEN: usize = 46_237;
const MARKED: [usize; 3] = [SHARED_LEN + HEADER, HANDOFF_LEN + HEADER, BOUND_LEN + HEADER];

/// Forwards to the system allocator, counting this thread's calls and, across
/// threads, the blocks of each marked size made and freed.
struct Counting;

thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
    static THREAD_FREES: Cell<u64> = const { Cell::new(0) };
    static LAST_ALLOC_SIZE: Cell<usize> = const { Cell::new(0) };
}
static MARKED_ALLOCS: [AtomicU64; MARKED.len()] = [const { AtomicU64::new(0) }; MARKED.len()];
static MARKED_FREES: [AtomicU64; MARKED.len()] = [const { AtomicU64::new(0) }; MARKED.len()];

// SAFETY: every call is forwarded unchanged to `System`; the counters touch
// no allocator state and never allocate (the thread-locals are
// const-initialised and have no destructor).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = THREAD_ALLOCS.try_with(|n| n.set(n.get() + 1));
        let _ = LAST_ALLOC_SIZE.try_with(|s| s.set(layout.size()));
        if let Some(i) = MARKED.iter().position(|size| *size == layout.size()) {
            MARKED_ALLOCS[i].fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller's contract, passed on.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = THREAD_FREES.try_with(|n| n.set(n.get() + 1));
        if let Some(i) = MARKED.iter().position(|size| *size == layout.size()) {
            MARKED_FREES[i].fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller's contract, passed on.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Blocks of marked frame length `len` made and freed so far, by any thread.
fn marked(len: usize) -> (u64, u64) {
    let i = MARKED.iter().position(|size| *size == len + HEADER).expect("a marked length");
    (MARKED_ALLOCS[i].load(Ordering::Relaxed), MARKED_FREES[i].load(Ordering::Relaxed))
}

/// This thread's allocator calls during `f`: `(allocations, frees)`.
fn calls_during<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let before = (THREAD_ALLOCS.with(Cell::get), THREAD_FREES.with(Cell::get));
    let out = f();
    (out, THREAD_ALLOCS.with(Cell::get) - before.0, THREAD_FREES.with(Cell::get) - before.1)
}

/// Run `f` on a thread of its own: its cache starts empty, and is released
/// by the time this returns.
fn on_a_fresh_thread<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|s| s.spawn(f).join()).unwrap_or_else(|e| std::panic::resume_unwind(e))
}

/// Lengths of the frames an [`Op::New`] or [`Op::Burst`] makes: two that
/// differ by a byte, so a block one too small or too large would be handed
/// out if sizes were ever confused.
const LENS: [usize; 4] = [1, 24, 25, 80];

#[derive(Clone, Debug)]
enum Op {
    New(usize),
    Clone(usize),
    Write {
        handle: usize,
        at: usize,
        value: u8,
    },
    Drop(usize),
    /// Make `n` frames of one length, then let them all go: enough to fill
    /// the cache past its bound.
    Burst {
        len: usize,
        n: usize,
    },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        any::<usize>().prop_map(Op::New),
        any::<usize>().prop_map(Op::Clone),
        (any::<usize>(), any::<usize>(), any::<u8>()).prop_map(|(handle, at, value)| Op::Write {
            handle,
            at,
            value
        }),
        any::<usize>().prop_map(Op::Drop),
        any::<usize>().prop_map(Op::Drop),
        (any::<usize>(), 1usize..48).prop_map(|(len, n)| Op::Burst { len, n }),
    ]
}

/// A handle, what its bytes must read, and which block the model says it is
/// on (handles with the same number share).
struct Held {
    frame: Frame,
    model: Vec<u8>,
    block: usize,
}

/// What the thread's cache must hold: the first bytes of the blocks it kept,
/// oldest first, all of `size`.
#[derive(Default)]
struct CacheModel {
    size: usize,
    kept: Vec<*const u8>,
}

impl CacheModel {
    /// A frame of `len` bytes is made: the block it must land in, if the
    /// cache has one, else it is the allocator's to supply.
    fn take(&mut self, len: usize) -> Option<*const u8> {
        if self.size == len + HEADER {
            self.kept.pop()
        } else {
            None
        }
    }

    /// The last handle on a block of a `len`-byte frame is dropped: how many
    /// blocks go back to the allocator because of it.
    fn give(&mut self, len: usize, at: *const u8) -> u64 {
        let mut freed = 0;
        if self.size != len + HEADER {
            freed += self.kept.len() as u64;
            self.kept.clear();
            self.size = len + HEADER;
        }
        if self.kept.len() < CACHE_BLOCKS {
            self.kept.push(at);
        } else {
            freed += 1;
        }
        freed
    }
}

/// Bytes for a new frame that a stale block would not happen to hold: no two
/// calls give the same run, and none gives the poison byte throughout.
fn fresh_bytes(len: usize, salt: &mut u8) -> Vec<u8> {
    *salt = salt.wrapping_add(1);
    (0..len).map(|i| (i as u8).wrapping_mul(31).wrapping_add(*salt)).collect()
}

/// Make a frame of `bytes` and hold it to the cache model: taken from the
/// cache exactly when the model says one of its size waits there, and then
/// that very block; else one allocator call, for exactly the block's size.
fn make(bytes: &[u8], cache: &mut CacheModel) -> Frame {
    let want = cache.take(bytes.len());
    let (frame, allocs, frees) = calls_during(|| Frame::new(bytes));
    match want {
        Some(at) => {
            assert_eq!((allocs, frees), (0, 0), "a block of this size was waiting");
            assert_eq!(frame.bytes().as_ptr(), at, "the block kept last is the one taken");
        }
        None => {
            assert_eq!((allocs, frees), (1, 0), "nothing of this size waits: one allocation");
            assert_eq!(LAST_ALLOC_SIZE.with(Cell::get), bytes.len() + HEADER);
        }
    }
    assert_eq!(frame.bytes(), bytes, "a new frame shows its own bytes and nothing older");
    frame
}

/// Drop `held[i]` and hold it to the cache model: the allocator hears of it
/// only if the handle was the block's last, and then only for what the cache
/// turned out or could not take.
fn let_go(held: &mut Vec<Held>, i: usize, cache: &mut CacheModel) {
    let h = held.swap_remove(i);
    let last = held.iter().all(|other| other.block != h.block);
    let freed = if last { cache.give(h.model.len(), h.frame.bytes().as_ptr()) } else { 0 };
    let ((), allocs, frees) = calls_during(|| drop(h.frame));
    assert_eq!((allocs, frees), (0, freed), "dropping a handle, last on its block: {last}");
    assert!(cache.kept.len() <= CACHE_BLOCKS);
}

fn run_case(seed: &[u8], ops: &[Op]) {
    let mut cache = CacheModel::default();
    let mut salt = 0u8;
    let mut held = vec![Held { frame: make(seed, &mut cache), model: seed.to_vec(), block: 0 }];
    let mut blocks = 1;
    for op in ops {
        match *op {
            Op::New(len) => {
                let model = fresh_bytes(LENS[len % LENS.len()], &mut salt);
                held.push(Held { frame: make(&model, &mut cache), model, block: blocks });
                blocks += 1;
            }
            Op::Clone(i) if !held.is_empty() => {
                let h = &held[i % held.len()];
                let (frame, allocs, frees) = calls_during(|| h.frame.clone());
                assert_eq!((allocs, frees), (0, 0), "a clone is a count");
                assert_eq!(frame.bytes().as_ptr(), h.frame.bytes().as_ptr());
                let (model, block) = (h.model.clone(), h.block);
                held.push(Held { frame, model, block });
            }
            Op::Write { handle, at, value } if !held.is_empty() => {
                let i = handle % held.len();
                let shared = held.iter().filter(|h| h.block == held[i].block).count() > 1;
                let h = &mut held[i];
                let at = at % h.model.len();
                let addr = h.frame.bytes().as_ptr();
                // A shared buffer moves to a private block, made as any
                // frame's is; the block left behind still has a holder.
                let want = if shared { Some(cache.take(h.model.len())) } else { None };
                let ((), allocs, frees) = calls_during(|| h.frame.modify_bytes(|b| b[at] = value));
                h.model[at] = value;
                match want {
                    None => {
                        assert_eq!((allocs, frees), (0, 0), "a sole owner is rewritten in place");
                        assert_eq!(h.frame.bytes().as_ptr(), addr);
                    }
                    Some(taken) => {
                        assert_eq!((allocs, frees), (u64::from(taken.is_none()), 0));
                        assert_ne!(h.frame.bytes().as_ptr(), addr);
                        assert!(taken.is_none_or(|at| at == h.frame.bytes().as_ptr()));
                        h.block = blocks;
                        blocks += 1;
                    }
                }
            }
            Op::Drop(i) if !held.is_empty() => {
                let i = i % held.len();
                let_go(&mut held, i, &mut cache);
            }
            Op::Burst { len, n } => {
                let first = held.len();
                for _ in 0..n {
                    let model = fresh_bytes(LENS[len % LENS.len()], &mut salt);
                    held.push(Held { frame: make(&model, &mut cache), model, block: blocks });
                    blocks += 1;
                }
                while held.len() > first {
                    let_go(&mut held, first, &mut cache);
                }
            }
            _ => {}
        }
        // No write ever shows through another handle, and no block's earlier
        // life through a frame made in it.
        for h in &held {
            assert_eq!(h.frame.bytes(), &h.model[..]);
            assert_eq!(h.frame.len(), h.model.len());
        }
    }
    while !held.is_empty() {
        let_go(&mut held, 0, &mut cache);
    }
}

#[cfg(not(miri))]
const CASES: u32 = 256;
#[cfg(miri)]
const CASES: u32 = 12;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn clone_write_drop_interleavings_match_the_vec_and_cache_models(
        seed in prop::collection::vec(any::<u8>(), 1..80),
        ops in prop::collection::vec(arb_op(), 1..60),
    ) {
        // Every case on a thread of its own, so each starts from an empty
        // cache and ends with its release.
        on_a_fresh_thread(|| run_case(&seed, &ops));
    }
}

#[test]
fn handles_dropped_on_many_threads_free_the_block_exactly_once() {
    const THREADS: usize = 4;
    let rounds = if cfg!(miri) { 20 } else { 20_000 };
    let bytes: Vec<u8> = (0..SHARED_LEN).map(|i| i as u8).collect();
    // The block is made on this test's own thread and let go last by
    // whichever worker finishes last: kept there, and freed at its exit.
    on_a_fresh_thread(|| {
        let frame = Frame::new(&bytes);
        assert_eq!(marked(SHARED_LEN), (1, 0));
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
                            // Shared, so the write lands on a private copy:
                            // one more marked block the first time, the same
                            // one again from this thread's cache after.
                            copy.modify_bytes(|b| b[0] = !b[0]);
                            assert_ne!(copy.bytes()[0], mine.bytes()[0]);
                            assert_eq!(copy.bytes()[1..], want[1..]);
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
    });
    let (made, freed) = marked(SHARED_LEN);
    assert_eq!(made, 1 + THREADS as u64, "the shared block, and one private copy a worker");
    assert_eq!(freed, made, "each block freed once, the shared one too, every cache released");
}

/// A block made on thread A and let go on thread B is B's to keep: B's next
/// frame of the size is made in it without a word to the allocator, and B's
/// exit frees it — once.
#[test]
fn a_block_let_go_on_another_thread_is_kept_there_and_freed_at_its_exit() {
    let bytes = vec![0xA5u8; HANDOFF_LEN];
    let (to_b, from_a) = mpsc::channel::<Frame>();
    on_a_fresh_thread(|| {
        let b = std::thread::spawn(move || {
            let frame = from_a.recv().expect("A sends one frame");
            let at = frame.bytes().as_ptr();
            let ((), allocs, frees) = calls_during(|| drop(frame));
            assert_eq!((allocs, frees), (0, 0), "kept, not freed");
            let next = vec![0x3Cu8; HANDOFF_LEN];
            let (again, allocs, _) = calls_during(|| Frame::new(&next));
            assert_eq!(allocs, 0, "made in the block A's frame left");
            assert_eq!(again.bytes().as_ptr(), at);
            assert_eq!(again.bytes(), &next[..], "and none of A's bytes");
        });
        to_b.send(Frame::new(&bytes)).expect("B is listening");
        b.join().expect("thread B");
        assert_eq!(marked(HANDOFF_LEN), (1, 1), "A allocated it, B's exit freed it");
    });
    assert_eq!(marked(HANDOFF_LEN), (1, 1), "and A's exit did not free it again");
}

/// The cache is bounded: of more blocks than it holds, let go at once, the
/// rest are freed on the spot; the kept ones when the thread exits.
#[test]
fn a_thread_keeps_no_more_blocks_than_the_bound_and_releases_them_when_it_exits() {
    const FRAMES: usize = CACHE_BLOCKS + 8;
    let bytes = vec![0x11u8; BOUND_LEN];
    on_a_fresh_thread(|| {
        let frames: Vec<Frame> = (0..FRAMES).map(|_| Frame::new(&bytes)).collect();
        assert_eq!(marked(BOUND_LEN), (FRAMES as u64, 0));
        drop(frames);
        assert_eq!(marked(BOUND_LEN), (FRAMES as u64, 8), "all but the bound freed at once");
        // A frame of another size turns the kept ones out.
        drop(Frame::new(&bytes[..100]));
        assert_eq!(marked(BOUND_LEN), (FRAMES as u64, FRAMES as u64));
        drop(Frame::new(&bytes));
    });
    assert_eq!(marked(BOUND_LEN), (FRAMES as u64 + 1, FRAMES as u64 + 1), "released at exit");
}

#[test]
fn frame_is_send_and_sync() {
    fn shared_across_threads<T: Send + Sync>() {}
    shared_across_threads::<Frame>();
}
