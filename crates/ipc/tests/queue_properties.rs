//! Property-based tests: every queue implementation must behave exactly like
//! a bounded FIFO (modeled with `VecDeque`) under any interleaving of sends
//! and receives, and must deliver items unmutated and in order across threads.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use lvrm_ipc::vlink::VLinkQueue;
use lvrm_ipc::{queue, Full, LamportQueue, QueueKind};
use proptest::prelude::*;

#[derive(Clone, Debug)]
enum Op {
    Send(u64),
    Recv,
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(prop_oneof![any::<u64>().prop_map(Op::Send), Just(Op::Recv)], 0..200)
}

fn check_against_model(kind: QueueKind, capacity: usize, script: &[Op]) {
    let (mut tx, mut rx) = queue::<u64>(kind, capacity);
    let mut model: VecDeque<u64> = VecDeque::new();
    for op in script {
        match op {
            Op::Send(v) => {
                let res = tx.try_send(*v);
                if model.len() < capacity {
                    assert_eq!(res, Ok(()), "send should succeed below capacity");
                    model.push_back(*v);
                } else {
                    assert_eq!(res, Err(Full(*v)), "send should fail at capacity");
                }
            }
            Op::Recv => {
                assert_eq!(rx.try_recv(), model.pop_front());
            }
        }
    }
    // Drain: everything still queued must come out in model order.
    while let Some(expect) = model.pop_front() {
        assert_eq!(rx.try_recv(), Some(expect));
    }
    assert_eq!(rx.try_recv(), None);
}

/// A script mixing per-item and bulk operations, to pin the batch entry
/// points to the same bounded-FIFO model (and to each other).
#[derive(Clone, Debug)]
enum BatchOp {
    Send(u64),
    Recv,
    /// Bulk send: the queue must accept exactly the free-space prefix.
    SendBatch(Vec<u64>),
    /// Bulk receive with a max: exactly `min(occupancy, max)` items, FIFO.
    RecvBatch(usize),
}

fn batch_ops() -> impl Strategy<Value = Vec<BatchOp>> {
    prop::collection::vec(
        prop_oneof![
            any::<u64>().prop_map(BatchOp::Send),
            Just(BatchOp::Recv),
            prop::collection::vec(any::<u64>(), 0..12).prop_map(BatchOp::SendBatch),
            (0usize..12).prop_map(BatchOp::RecvBatch),
        ],
        0..120,
    )
}

fn check_batch_against_model(kind: QueueKind, capacity: usize, script: &[BatchOp]) {
    let (mut tx, mut rx) = queue::<u64>(kind, capacity);
    let mut model: VecDeque<u64> = VecDeque::new();
    let mut out: Vec<u64> = Vec::new();
    for op in script {
        match op {
            BatchOp::Send(v) => {
                let res = tx.try_send(*v);
                if model.len() < capacity {
                    assert_eq!(res, Ok(()));
                    model.push_back(*v);
                } else {
                    assert_eq!(res, Err(Full(*v)));
                }
            }
            BatchOp::Recv => {
                assert_eq!(rx.try_recv(), model.pop_front());
            }
            BatchOp::SendBatch(items) => {
                let free = capacity - model.len();
                let want = free.min(items.len());
                let mut pending = items.clone();
                let accepted = tx.try_send_batch(&mut pending);
                assert_eq!(accepted, want, "batch send must fill exactly the free space");
                assert_eq!(pending.len(), items.len() - want, "rejected suffix stays");
                assert_eq!(&pending[..], &items[want..], "rejected suffix unmutated");
                model.extend(items[..want].iter().copied());
            }
            BatchOp::RecvBatch(max) => {
                out.clear();
                let want = model.len().min(*max);
                let got = rx.try_recv_batch(&mut out, *max);
                assert_eq!(got, want, "batch recv must drain exactly min(occupancy, max)");
                assert_eq!(out.len(), want);
                for v in &out {
                    assert_eq!(Some(*v), model.pop_front(), "FIFO order across batch recv");
                }
            }
        }
    }
    out.clear();
    rx.try_recv_batch(&mut out, usize::MAX);
    assert_eq!(out.len(), model.len());
    for v in &out {
        assert_eq!(Some(*v), model.pop_front());
    }
    assert_eq!(rx.try_recv(), None);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn lamport_matches_fifo_model(script in ops(), cap in 1usize..16) {
        check_against_model(QueueKind::Lamport, cap, &script);
    }

    /// Single-threaded, the MPMC ring is a bounded FIFO like every SPSC kind.
    #[test]
    fn vlink_matches_fifo_model(script in ops(), cap in 1usize..16) {
        check_against_model(QueueKind::VLink, cap, &script);
    }

    /// Batch and per-item entry points are interchangeable: any interleaving
    /// of the four operations still behaves like the bounded FIFO model.
    #[test]
    fn lamport_batch_matches_fifo_model(script in batch_ops(), cap in 1usize..16) {
        check_batch_against_model(QueueKind::Lamport, cap, &script);
    }

    #[test]
    fn vlink_batch_matches_fifo_model(script in batch_ops(), cap in 1usize..16) {
        check_batch_against_model(QueueKind::VLink, cap, &script);
    }

    /// Producer-side `len()` must equal true occupancy whenever the queue is
    /// quiescent (no concurrent access), for every implementation.
    #[test]
    fn quiescent_len_is_exact(kind_idx in 0..QueueKind::ALL.len(), sends in 0usize..8, recvs in 0usize..8) {
        let kind = QueueKind::ALL[kind_idx];
        let cap = 8;
        let (mut tx, mut rx) = queue::<u64>(kind, cap);
        let mut occupancy = 0usize;
        for i in 0..sends {
            if tx.try_send(i as u64).is_ok() {
                occupancy += 1;
            }
        }
        for _ in 0..recvs {
            if rx.try_recv().is_some() {
                occupancy -= 1;
            }
        }
        prop_assert_eq!(tx.len(), occupancy);
        prop_assert_eq!(rx.len(), occupancy);
    }
}

/// `VriAdapter::drain_egress` and the reap / egress-rescue paths receive
/// once, with no limit, and take the answer for the queue's whole content.
/// Single-threaded that is exact for every kind, wherever in the ring the
/// content sits: one call returns all of it, in order, and leaves nothing.
#[test]
fn one_unbounded_receive_returns_everything_published() {
    for kind in QueueKind::ALL {
        for cap in [1usize, 2, 3, 31, 64] {
            let (mut tx, mut rx) = queue::<u64>(kind, cap);
            let mut out: Vec<u64> = Vec::new();
            let mut next = 0u64;
            // Fill levels 0..=cap, each started one slot further round.
            for fill in (0..=cap).chain((0..=cap).rev()) {
                let mut burst: Vec<u64> = (next..next + fill as u64).collect();
                assert_eq!(tx.try_send_batch(&mut burst), fill, "{kind} cap {cap}");
                out.clear();
                assert_eq!(rx.try_recv_batch(&mut out, usize::MAX), fill, "{kind}");
                assert!(out.iter().copied().eq(next..next + fill as u64), "{kind}");
                assert_eq!(rx.try_recv_batch(&mut out, usize::MAX), 0, "a second receive");
                next += fill as u64;
                // Shift the ring position by one for the next level.
                tx.try_send(u64::MAX).unwrap();
                assert_eq!(rx.try_recv(), Some(u64::MAX));
            }
        }
    }
}

/// Across threads the promise is a floor: one unbounded receive returns at
/// least what the producer had published before it said so. The producer
/// announces its running total *after* each burst is in; the consumer reads
/// the announcement, receives once, and must by then hold that many.
#[test]
fn one_unbounded_receive_sees_what_was_published_before_the_signal() {
    const N: usize = if cfg!(miri) { 300 } else { 100_000 };
    for kind in QueueKind::ALL {
        let (mut tx, mut rx) = queue::<u64>(kind, 32);
        let announced = Arc::new(AtomicUsize::new(0));
        let producer = {
            let announced = Arc::clone(&announced);
            std::thread::spawn(move || {
                let mut pending: Vec<u64> = Vec::new();
                let (mut next, mut sent) = (0usize, 0usize);
                while sent < N {
                    while pending.len() < 11 && next < N {
                        pending.push(next as u64);
                        next += 1;
                    }
                    sent += tx.try_send_batch(&mut pending);
                    announced.store(sent, Ordering::Release);
                }
            })
        };
        let mut out: Vec<u64> = Vec::with_capacity(N);
        while out.len() < N {
            let floor = announced.load(Ordering::Acquire);
            rx.try_recv_batch(&mut out, usize::MAX);
            assert!(out.len() >= floor, "{kind}: held {} of {floor} announced", out.len());
        }
        producer.join().unwrap();
        assert!(out.iter().copied().eq(0..N as u64), "{kind}");
    }
}

/// The Lamport ring's index arithmetic wraps by compare-and-subtract over
/// `capacity + 1` slots, which is a power of two only by accident. Both
/// ends' `len`, the free space a batch send finds and the run a batch receive
/// finds must match a `VecDeque` at the sizes where a wrap is every
/// operation (1, 2, 3), at an odd one and at a large one, for at least ten
/// laps of the ring each.
#[test]
fn lamport_len_free_and_batch_sizes_match_the_model_across_wraps() {
    for cap in [1usize, 2, 3, 31, 1024] {
        let (mut tx, mut rx) = LamportQueue::<u64>::with_capacity(cap);
        let mut model: VecDeque<u64> = VecDeque::new();
        let mut out: Vec<u64> = Vec::new();
        let mut rng = 0x2545_F491_4F6C_DD1Du64 ^ cap as u64;
        let mut draw = |below: usize| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            (rng >> 11) as usize % below
        };
        let (mut sent, mut steps) = (0u64, 0u32);
        let laps = if cfg!(miri) { 2 } else { 12 };
        while sent < laps * (cap as u64 + 1) {
            let offer = draw(cap + 3);
            let mut burst: Vec<u64> = (sent..sent + offer as u64).collect();
            let fits = (cap - model.len()).min(offer);
            assert_eq!(tx.try_send_batch(&mut burst), fits, "cap {cap} step {steps}");
            assert_eq!(burst.len(), offer - fits);
            model.extend(sent..sent + fits as u64);
            sent += fits as u64;
            assert_eq!((tx.len(), rx.len()), (model.len(), model.len()), "cap {cap}");
            assert_eq!(tx.try_send(u64::MAX).is_err(), model.len() == cap, "full means full");
            if model.len() < cap {
                model.push_back(u64::MAX);
            }

            let max = draw(cap + 3);
            let run = model.len().min(max);
            out.clear();
            assert_eq!(rx.try_recv_batch(&mut out, max), run, "cap {cap} step {steps}");
            assert!(out.iter().eq(model.iter().take(run)), "cap {cap} step {steps}");
            model.drain(..run);
            assert_eq!((tx.len(), rx.len()), (model.len(), model.len()), "cap {cap}");
            assert_eq!(tx.is_empty(), model.is_empty());
            steps += 1;
        }
    }
}

/// Concurrent bulk smoke test per kind: a producer pushing uneven bursts and
/// a consumer draining uneven bursts still see one ordered FIFO stream.
#[test]
fn concurrent_batch_order_all_kinds() {
    for kind in QueueKind::ALL {
        let (mut tx, mut rx) = queue::<u64>(kind, 32);
        const N: u64 = 50_000;
        let t = std::thread::spawn(move || {
            let mut pending: Vec<u64> = Vec::new();
            let mut next = 0u64;
            while next < N || !pending.is_empty() {
                while pending.len() < 13 && next < N {
                    pending.push(next);
                    next += 1;
                }
                if tx.try_send_batch(&mut pending) == 0 {
                    std::hint::spin_loop();
                }
            }
        });
        let mut out: Vec<u64> = Vec::new();
        let mut expected = 0u64;
        while expected < N {
            out.clear();
            if rx.try_recv_batch(&mut out, 7) == 0 {
                std::hint::spin_loop();
                continue;
            }
            for v in &out {
                assert_eq!(*v, expected, "kind {kind}");
                expected += 1;
            }
        }
        t.join().unwrap();
    }
}

/// MPMC contract, part 1: several producers and several consumers hammering
/// one ring — every element sent is delivered exactly once, nothing lost,
/// nothing duplicated, and the union matches the sent multiset exactly.
#[test]
fn vlink_mpmc_delivers_exactly_once() {
    const PRODUCERS: u64 = 3;
    const CONSUMERS: usize = 3;
    const PER_PRODUCER: u64 = if cfg!(miri) { 200 } else { 20_000 };
    let (tx, rx) = VLinkQueue::<u64>::with_capacity(16);
    let taken = Arc::new(AtomicUsize::new(0));
    let total = (PRODUCERS * PER_PRODUCER) as usize;

    let producers: Vec<_> = (0..PRODUCERS)
        .map(|p| {
            let tx = tx.clone();
            std::thread::spawn(move || {
                for seq in 0..PER_PRODUCER {
                    let mut v = (p << 32) | seq;
                    loop {
                        match tx.try_send(v) {
                            Ok(()) => break,
                            Err(Full(back)) => {
                                v = back;
                                std::hint::spin_loop();
                            }
                        }
                    }
                }
            })
        })
        .collect();
    let consumers: Vec<_> = (0..CONSUMERS)
        .map(|_| {
            let rx = rx.clone();
            let taken = taken.clone();
            std::thread::spawn(move || {
                let mut got: Vec<u64> = Vec::new();
                let mut burst: Vec<u64> = Vec::new();
                while taken.load(Ordering::Relaxed) < total {
                    burst.clear();
                    let n = rx.try_recv_batch(&mut burst, 5);
                    if n == 0 {
                        std::hint::spin_loop();
                        continue;
                    }
                    taken.fetch_add(n, Ordering::Relaxed);
                    got.extend_from_slice(&burst);
                }
                got
            })
        })
        .collect();
    for p in producers {
        p.join().unwrap();
    }
    let mut all: Vec<u64> = Vec::new();
    for c in consumers {
        all.extend(c.join().unwrap());
    }
    assert_eq!(all.len(), total, "every element must be delivered");
    all.sort_unstable();
    let expected: Vec<u64> =
        (0..PRODUCERS).flat_map(|p| (0..PER_PRODUCER).map(move |s| (p << 32) | s)).collect();
    assert_eq!(all, expected, "delivered multiset must match the sent multiset");
}

/// MPMC contract, part 2: stealing may interleave producers arbitrarily, but
/// within any one consumer's stream each producer's items appear in send
/// order (the ring is FIFO and claims are taken in ring order).
#[test]
fn vlink_mpmc_preserves_per_producer_fifo() {
    const PRODUCERS: u64 = 3;
    const CONSUMERS: usize = 2;
    const PER_PRODUCER: u64 = if cfg!(miri) { 200 } else { 20_000 };
    let (tx, rx) = VLinkQueue::<u64>::with_capacity(8);
    let taken = Arc::new(AtomicUsize::new(0));
    let total = (PRODUCERS * PER_PRODUCER) as usize;

    let producers: Vec<_> = (0..PRODUCERS)
        .map(|p| {
            let tx = tx.clone();
            std::thread::spawn(move || {
                for seq in 0..PER_PRODUCER {
                    let mut v = (p << 32) | seq;
                    loop {
                        match tx.try_send(v) {
                            Ok(()) => break,
                            Err(Full(back)) => {
                                v = back;
                                std::hint::spin_loop();
                            }
                        }
                    }
                }
            })
        })
        .collect();
    let consumers: Vec<_> = (0..CONSUMERS)
        .map(|_| {
            let rx = rx.clone();
            let taken = taken.clone();
            std::thread::spawn(move || {
                let mut last: Vec<Option<u64>> = vec![None; PRODUCERS as usize];
                let mut burst: Vec<u64> = Vec::new();
                while taken.load(Ordering::Relaxed) < total {
                    burst.clear();
                    let n = rx.try_recv_batch(&mut burst, 3);
                    if n == 0 {
                        std::hint::spin_loop();
                        continue;
                    }
                    taken.fetch_add(n, Ordering::Relaxed);
                    for v in &burst {
                        let p = (v >> 32) as usize;
                        let seq = v & 0xffff_ffff;
                        if let Some(prev) = last[p] {
                            assert!(prev < seq, "producer {p} reordered: {prev} then {seq}");
                        }
                        last[p] = Some(seq);
                    }
                }
            })
        })
        .collect();
    for p in producers {
        p.join().unwrap();
    }
    for c in consumers {
        c.join().unwrap();
    }
}

/// Dropping the ring with items still queued must run their destructors:
/// every clone sent but never received is released by the queue itself.
#[test]
fn vlink_drop_releases_queued_items() {
    let sentinel = Arc::new(());
    let (tx, rx) = VLinkQueue::<Arc<()>>::with_capacity(8);
    for _ in 0..5 {
        tx.try_send(sentinel.clone()).unwrap();
    }
    drop(rx.try_recv().expect("one out"));
    assert_eq!(Arc::strong_count(&sentinel), 5, "4 queued + the sentinel");
    drop(tx);
    drop(rx);
    assert_eq!(Arc::strong_count(&sentinel), 1, "destructor must drain the ring");
}

/// Concurrent smoke test per kind: order and content preserved under real
/// thread interleavings (longer stress lives in each module's unit tests).
#[test]
fn concurrent_order_all_kinds() {
    for kind in QueueKind::ALL {
        let (mut tx, mut rx) = queue::<u64>(kind, 32);
        const N: u64 = 50_000;
        let t = std::thread::spawn(move || {
            for i in 0..N {
                let mut v = i;
                loop {
                    match tx.try_send(v) {
                        Ok(()) => break,
                        Err(Full(b)) => {
                            v = b;
                            std::hint::spin_loop();
                        }
                    }
                }
            }
        });
        let mut expected = 0;
        while expected < N {
            if let Some(v) = rx.try_recv() {
                assert_eq!(v, expected, "kind {kind}");
                expected += 1;
            } else {
                std::hint::spin_loop();
            }
        }
        t.join().unwrap();
    }
}
