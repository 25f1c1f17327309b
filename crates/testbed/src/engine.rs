//! The discrete-event engine.
//!
//! A binary heap of `(time, sequence)`-ordered events. The sequence number
//! makes ordering total and deterministic: two events scheduled for the same
//! nanosecond fire in scheduling order, so simulation results are
//! reproducible regardless of heap internals.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// An event tag. The testbed uses a closed enum rather than boxed closures:
/// dispatch stays branch-predictable and the event queue allocation-free.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Event {
    /// A traffic source should emit its next frame(s).
    SourceEmit { source: usize },
    /// A link finished delivering its head frame.
    LinkDeliver { link: usize },
    /// The gateway's main loop polls its NIC rings (LVRM or kernel model).
    GatewayPoll,
    /// A simulated VRI polls its incoming queues.
    VriPoll { slot: usize },
    /// A TCP retransmission timer fired.
    TcpTimeout { flow: usize, epoch: u32 },
    /// A TCP flow should try to send (start of flow, or after an ACK).
    TcpKick { flow: usize },
    /// Periodic measurement tick (time series sampling).
    Sample,
    /// One-shot snapshot at the warmup boundary (does not reschedule).
    WarmupSnapshot,
    /// Faults of the scenario's `FaultPlan` fall due: the LVRM host fires
    /// every one scheduled by now.
    Fault,
    /// End of the run.
    Stop,
}

#[derive(PartialEq, Eq)]
struct Entry {
    key: Reverse<(u64, u64)>,
    event: Event,
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The time-ordered event queue.
pub struct EventQueue {
    heap: BinaryHeap<Entry>,
    seq: u64,
    now: u64,
}

impl Default for EventQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl EventQueue {
    pub fn new() -> EventQueue {
        EventQueue { heap: BinaryHeap::with_capacity(1024), seq: 0, now: 0 }
    }

    /// Current simulation time (the timestamp of the last popped event).
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Schedule `event` at absolute time `at_ns`. Events in the past are
    /// clamped to `now` (they fire immediately, in scheduling order).
    pub fn schedule(&mut self, at_ns: u64, event: Event) {
        let at = at_ns.max(self.now);
        self.heap.push(Entry { key: Reverse((at, self.seq)), event });
        self.seq += 1;
    }

    /// Schedule `event` after a delay.
    pub fn schedule_in(&mut self, delay_ns: u64, event: Event) {
        self.schedule(self.now + delay_ns, event);
    }

    /// Pop the next event, advancing `now`.
    pub fn pop(&mut self) -> Option<(u64, Event)> {
        let e = self.heap.pop()?;
        let Reverse((t, _)) = e.key;
        debug_assert!(t >= self.now, "event queue went backwards");
        self.now = t;
        Some((t, e.event))
    }

    /// Pending event count.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_fire_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(30, Event::GatewayPoll);
        q.schedule(10, Event::Sample);
        q.schedule(20, Event::Stop);
        assert_eq!(q.pop(), Some((10, Event::Sample)));
        assert_eq!(q.pop(), Some((20, Event::Stop)));
        assert_eq!(q.pop(), Some((30, Event::GatewayPoll)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_by_scheduling_order() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.schedule(100, Event::SourceEmit { source: i });
        }
        for i in 0..10 {
            assert_eq!(q.pop(), Some((100, Event::SourceEmit { source: i })));
        }
    }

    #[test]
    fn now_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(50, Event::Stop);
        assert_eq!(q.now(), 0);
        q.pop();
        assert_eq!(q.now(), 50);
    }

    #[test]
    fn past_events_clamp_to_now() {
        let mut q = EventQueue::new();
        q.schedule(100, Event::Stop);
        q.pop();
        q.schedule(10, Event::Sample); // in the past
        let (t, ev) = q.pop().unwrap();
        assert_eq!(t, 100);
        assert_eq!(ev, Event::Sample);
    }

    #[test]
    fn schedule_in_is_relative() {
        let mut q = EventQueue::new();
        q.schedule(100, Event::Stop);
        q.pop();
        q.schedule_in(25, Event::Sample);
        assert_eq!(q.pop(), Some((125, Event::Sample)));
    }
}
