//! Lamport's lock-free SPSC ring buffer (the paper's default IPC queue).
//!
//! Correctness argument (after Lamport 1977, the paper's \[23\]): with exactly
//! one producer advancing `tail` and one consumer advancing `head`, each index
//! has a single writer, so plain ring-buffer logic is race-free provided the
//! *slot contents* are published before the index that makes them visible.
//! We realize "published before" with Release stores on the owned index and
//! Acquire loads of the foreign index — the minimal ordering this algorithm
//! needs (per *Rust Atomics and Locks*, ch. 5).

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use crossbeam_utils::CachePadded;

use crate::Full;

struct Inner<T> {
    buf: Box<[UnsafeCell<MaybeUninit<T>>]>,
    /// Next slot the consumer will read. Written only by the consumer.
    head: CachePadded<AtomicUsize>,
    /// Next slot the producer will write. Written only by the producer.
    tail: CachePadded<AtomicUsize>,
}

// SAFETY: the producer/consumer split guarantees each slot is accessed by at
// most one thread at a time (the index protocol hands slots over with
// Release/Acquire ordering).
unsafe impl<T: Send> Send for Inner<T> {}
unsafe impl<T: Send> Sync for Inner<T> {}

impl<T> Drop for Inner<T> {
    fn drop(&mut self) {
        // Runs when the *last* endpoint goes away, so it sees every item that
        // was ever enqueued and not received — including items the sender
        // pushed after the receiver dropped (the old receiver-side drain
        // leaked those).
        let slots = self.buf.len();
        let mut head = *self.head.get_mut();
        let tail = *self.tail.get_mut();
        while head != tail {
            // SAFETY: &mut self means no endpoint is alive; every slot in
            // [head, tail) holds an initialized, undelivered item.
            unsafe { (*self.buf[head].get()).assume_init_drop() };
            head = if head + 1 == slots { 0 } else { head + 1 };
        }
    }
}

/// Items in a ring of `slots` slots whose consumer is at `head` and whose
/// producer is at `tail`, both below `slots`. `slots` is `capacity + 1` and
/// rarely a power of two, so the wrap is a compare and a subtract where
/// `(tail + slots - head) % slots` would divide.
#[inline]
fn occupied(head: usize, tail: usize, slots: usize) -> usize {
    if tail >= head {
        tail - head
    } else {
        tail + slots - head
    }
}

/// Factory type; split into endpoints with [`LamportQueue::with_capacity`].
pub struct LamportQueue<T>(std::marker::PhantomData<T>);

impl<T: Send> LamportQueue<T> {
    /// Create a queue holding up to `capacity` items and split it into its
    /// producer and consumer endpoints.
    ///
    /// One ring slot is sacrificed to distinguish full from empty, so the
    /// internal buffer has `capacity + 1` slots.
    pub fn with_capacity(capacity: usize) -> (LamportSender<T>, LamportReceiver<T>) {
        assert!(capacity > 0, "queue capacity must be positive");
        let slots = capacity + 1;
        let buf: Box<[UnsafeCell<MaybeUninit<T>>]> =
            (0..slots).map(|_| UnsafeCell::new(MaybeUninit::uninit())).collect();
        let inner = Arc::new(Inner {
            buf,
            head: CachePadded::new(AtomicUsize::new(0)),
            tail: CachePadded::new(AtomicUsize::new(0)),
        });
        (
            LamportSender { inner: Arc::clone(&inner), cached_head: 0 },
            LamportReceiver { inner, cached_tail: 0 },
        )
    }
}

/// Producer endpoint.
pub struct LamportSender<T> {
    inner: Arc<Inner<T>>,
    /// Last observed consumer position; refreshed only when the ring looks
    /// full, sparing an Acquire load (and a likely cache miss) per send.
    cached_head: usize,
}

/// Consumer endpoint.
pub struct LamportReceiver<T> {
    inner: Arc<Inner<T>>,
    /// Last observed producer position (same caching trick as the sender).
    cached_tail: usize,
}

impl<T: Send> LamportSender<T> {
    #[inline]
    pub fn try_send(&mut self, item: T) -> Result<(), Full<T>> {
        let inner = &*self.inner;
        let slots = inner.buf.len();
        // Only the producer writes `tail`, so Relaxed is fine for our own read.
        let tail = inner.tail.load(Ordering::Relaxed);
        let next = if tail + 1 == slots { 0 } else { tail + 1 };
        if next == self.cached_head {
            // Ring looked full against the cached head — refresh it.
            self.cached_head = inner.head.load(Ordering::Acquire);
            if next == self.cached_head {
                return Err(Full(item));
            }
        }
        // SAFETY: slot `tail` is not visible to the consumer until the
        // Release store below, and the producer owns it exclusively now.
        unsafe { (*inner.buf[tail].get()).write(item) };
        inner.tail.store(next, Ordering::Release);
        Ok(())
    }

    /// Enqueue as many items as fit from the front of `items`, removing the
    /// accepted prefix, and publish `tail` **once** for the whole burst.
    /// Returns how many were accepted.
    ///
    /// SPSC safety is unchanged: every slot in `[tail, tail + n)` is invisible
    /// to the consumer until the single Release store below, exactly as a
    /// one-item send publishes its single slot. Items that don't fit stay in
    /// `items` (no loss): the free run is computed *before* any slot is
    /// written.
    pub fn try_send_batch(&mut self, items: &mut Vec<T>) -> usize {
        if items.is_empty() {
            return 0;
        }
        let inner = &*self.inner;
        let slots = inner.buf.len();
        let mut tail = inner.tail.load(Ordering::Relaxed);
        // One slot stays empty to tell full from empty.
        let free = |head: usize| slots - 1 - occupied(head, tail, slots);
        let mut avail = free(self.cached_head);
        if avail < items.len() {
            // Looks too full against the cached head — refresh once per burst.
            self.cached_head = inner.head.load(Ordering::Acquire);
            avail = free(self.cached_head);
        }
        let n = avail.min(items.len());
        if n == 0 {
            return 0;
        }
        for item in items.drain(..n) {
            // SAFETY: slot `tail` lies in the free run computed above and is
            // not visible to the consumer until the Release store below.
            unsafe { (*inner.buf[tail].get()).write(item) };
            tail = if tail + 1 == slots { 0 } else { tail + 1 };
        }
        inner.tail.store(tail, Ordering::Release);
        n
    }

    /// Items currently buffered (producer-side estimate, exact for SPSC use).
    #[inline]
    pub fn len(&self) -> usize {
        let tail = self.inner.tail.load(Ordering::Relaxed);
        let head = self.inner.head.load(Ordering::Acquire);
        occupied(head, tail, self.inner.buf.len())
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    #[inline]
    pub fn capacity(&self) -> usize {
        self.inner.buf.len() - 1
    }
}

impl<T: Send> LamportReceiver<T> {
    #[inline]
    pub fn try_recv(&mut self) -> Option<T> {
        let inner = &*self.inner;
        let slots = inner.buf.len();
        let head = inner.head.load(Ordering::Relaxed);
        if head == self.cached_tail {
            self.cached_tail = inner.tail.load(Ordering::Acquire);
            if head == self.cached_tail {
                return None;
            }
        }
        // SAFETY: head != tail, so slot `head` holds an initialized item the
        // producer published with Release; our Acquire load above pairs with
        // it. The consumer owns the slot until the store below.
        let item = unsafe { (*inner.buf[head].get()).assume_init_read() };
        let next = if head + 1 == slots { 0 } else { head + 1 };
        inner.head.store(next, Ordering::Release);
        Some(item)
    }

    /// Dequeue up to `max` items into `out`, publishing `head` **once** for
    /// the whole burst. Returns how many were appended.
    ///
    /// Mirror image of [`LamportSender::try_send_batch`]: the occupied run is
    /// read against a tail observed with one Acquire load, and the slots are
    /// handed back to the producer with a single Release store at the end.
    pub fn try_recv_batch(&mut self, out: &mut Vec<T>, max: usize) -> usize {
        if max == 0 {
            return 0;
        }
        let inner = &*self.inner;
        let slots = inner.buf.len();
        let mut head = inner.head.load(Ordering::Relaxed);
        let mut avail = occupied(head, self.cached_tail, slots);
        if avail < max {
            self.cached_tail = inner.tail.load(Ordering::Acquire);
            avail = occupied(head, self.cached_tail, slots);
        }
        let n = avail.min(max);
        if n == 0 {
            return 0;
        }
        out.reserve(n);
        for _ in 0..n {
            // SAFETY: head != cached_tail within the occupied run, so each
            // slot holds an item published by the producer's Release store.
            out.push(unsafe { (*inner.buf[head].get()).assume_init_read() });
            head = if head + 1 == slots { 0 } else { head + 1 };
        }
        inner.head.store(head, Ordering::Release);
        n
    }

    /// Items currently buffered (consumer-side view).
    #[inline]
    pub fn len(&self) -> usize {
        let tail = self.inner.tail.load(Ordering::Acquire);
        let head = self.inner.head.load(Ordering::Relaxed);
        occupied(head, tail, self.inner.buf.len())
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    #[inline]
    pub fn capacity(&self) -> usize {
        self.inner.buf.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_preserved() {
        let (mut tx, mut rx) = LamportQueue::with_capacity(8);
        for i in 0..8 {
            tx.try_send(i).unwrap();
        }
        for i in 0..8 {
            assert_eq!(rx.try_recv(), Some(i));
        }
    }

    #[test]
    fn wraps_around_many_times() {
        let (mut tx, mut rx) = LamportQueue::with_capacity(3);
        for round in 0..100u32 {
            tx.try_send(round).unwrap();
            assert_eq!(rx.try_recv(), Some(round));
        }
    }

    #[test]
    fn full_and_empty_detection() {
        let (mut tx, mut rx) = LamportQueue::with_capacity(2);
        assert!(rx.try_recv().is_none());
        tx.try_send(1).unwrap();
        tx.try_send(2).unwrap();
        assert_eq!(tx.try_send(3), Err(Full(3)));
        assert_eq!(rx.try_recv(), Some(1));
        tx.try_send(3).unwrap();
        assert_eq!(rx.try_recv(), Some(2));
        assert_eq!(rx.try_recv(), Some(3));
        assert!(rx.try_recv().is_none());
    }

    #[test]
    fn len_tracks_occupancy_from_both_ends() {
        let (mut tx, mut rx) = LamportQueue::with_capacity(4);
        assert_eq!(tx.len(), 0);
        tx.try_send(1).unwrap();
        tx.try_send(2).unwrap();
        assert_eq!(tx.len(), 2);
        assert_eq!(rx.len(), 2);
        rx.try_recv();
        assert_eq!(tx.len(), 1);
        assert_eq!(rx.len(), 1);
    }

    #[test]
    fn cross_thread_transfer_preserves_order() {
        let (mut tx, mut rx) = LamportQueue::with_capacity(64);
        const N: u64 = 200_000;
        let producer = std::thread::spawn(move || {
            for i in 0..N {
                let mut v = i;
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
        });
        let mut expected = 0u64;
        while expected < N {
            if let Some(v) = rx.try_recv() {
                assert_eq!(v, expected);
                expected += 1;
            } else {
                std::hint::spin_loop();
            }
        }
        producer.join().unwrap();
    }

    #[test]
    fn drop_runs_destructors_of_queued_items() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        #[derive(Debug)]
        struct D;
        impl Drop for D {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        DROPS.store(0, Ordering::SeqCst);
        let (mut tx, rx) = LamportQueue::with_capacity(4);
        tx.try_send(D).unwrap();
        tx.try_send(D).unwrap();
        drop(rx);
        drop(tx);
        assert_eq!(DROPS.load(Ordering::SeqCst), 2);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = LamportQueue::<u8>::with_capacity(0);
    }

    #[test]
    fn batch_send_accepts_prefix_and_keeps_rest() {
        let (mut tx, mut rx) = LamportQueue::with_capacity(4);
        let mut items: Vec<u32> = (0..7).collect();
        assert_eq!(tx.try_send_batch(&mut items), 4);
        assert_eq!(items, vec![4, 5, 6], "unaccepted suffix stays put");
        for i in 0..4 {
            assert_eq!(rx.try_recv(), Some(i));
        }
        assert_eq!(tx.try_send_batch(&mut items), 3);
        assert!(items.is_empty());
    }

    #[test]
    fn batch_recv_respects_max_and_order() {
        let (mut tx, mut rx) = LamportQueue::with_capacity(8);
        for i in 0..6u32 {
            tx.try_send(i).unwrap();
        }
        let mut out = Vec::new();
        assert_eq!(rx.try_recv_batch(&mut out, 4), 4);
        assert_eq!(out, vec![0, 1, 2, 3]);
        assert_eq!(rx.try_recv_batch(&mut out, 100), 2);
        assert_eq!(out, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(rx.try_recv_batch(&mut out, 4), 0, "empty queue");
    }

    #[test]
    fn batch_ops_wrap_around() {
        let (mut tx, mut rx) = LamportQueue::with_capacity(4);
        let mut out = Vec::new();
        let mut next = 0u64;
        for _ in 0..50 {
            let mut burst: Vec<u64> = (next..next + 3).collect();
            next += 3;
            assert_eq!(tx.try_send_batch(&mut burst), 3);
            assert_eq!(rx.try_recv_batch(&mut out, 3), 3);
        }
        assert_eq!(out, (0..150).collect::<Vec<u64>>());
    }

    #[test]
    fn batch_cross_thread_transfer_preserves_order() {
        let (mut tx, mut rx) = LamportQueue::with_capacity(64);
        const N: u64 = 200_000;
        let producer = std::thread::spawn(move || {
            let mut pending: Vec<u64> = Vec::new();
            let mut next = 0u64;
            while next < N || !pending.is_empty() {
                while pending.len() < 17 && next < N {
                    pending.push(next);
                    next += 1;
                }
                if tx.try_send_batch(&mut pending) == 0 {
                    std::hint::spin_loop();
                }
            }
        });
        let mut out = Vec::with_capacity(N as usize);
        while out.len() < N as usize {
            if rx.try_recv_batch(&mut out, 23) == 0 {
                std::hint::spin_loop();
            }
        }
        producer.join().unwrap();
        assert!(out.iter().copied().eq(0..N));
    }

    /// Regression: items pushed *after* the receiver dropped used to leak
    /// (the receiver-side drain could not see them). Draining in the ring's
    /// own Drop catches every undelivered item regardless of teardown order.
    #[test]
    fn send_after_receiver_drop_still_runs_destructors() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        #[derive(Debug)]
        struct D;
        impl Drop for D {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        DROPS.store(0, Ordering::SeqCst);
        let (mut tx, rx) = LamportQueue::with_capacity(8);
        tx.try_send(D).unwrap();
        drop(rx);
        tx.try_send(D).unwrap();
        tx.try_send(D).unwrap();
        assert_eq!(DROPS.load(Ordering::SeqCst), 0, "no drops while queued");
        drop(tx);
        assert_eq!(DROPS.load(Ordering::SeqCst), 3);
    }
}
