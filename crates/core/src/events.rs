//! Virtual-time event queue for the pipeline simulation.
//!
//! The paper's prototype is a single-threaded epoll loop whose callbacks
//! poll device stages for completion (§4.1). Under simulation the same
//! structure becomes a discrete-event loop: every stage completion is an
//! event with a virtual timestamp, processed in time order with a stable
//! FIFO tie-break — which makes runs exactly deterministic and testable.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A timestamped event. Ordering: earliest time first; equal times in
/// enqueue order.
#[derive(Clone, Debug)]
struct Scheduled<E> {
    time: f64,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert for earliest-first. `total_cmp`
        // is a total order, so even a NaN timestamp (rejected at
        // `schedule`, but belt-and-braces here) cannot corrupt the heap
        // invariant the way `partial_cmp(..).unwrap_or(Equal)` could: a
        // NaN compared Equal to *everything*, making the order
        // non-transitive and silently breaking earliest-first delivery.
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Deterministic virtual-time event queue.
///
/// # Example
///
/// ```
/// use rhythm_core::events::EventQueue;
///
/// let mut q = EventQueue::new();
/// q.schedule(2.0, "late");
/// q.schedule(1.0, "early");
/// q.schedule(1.0, "early-second");
/// assert_eq!(q.pop(), Some((1.0, "early")));
/// assert_eq!(q.pop(), Some((1.0, "early-second")));
/// assert_eq!(q.now(), 1.0);
/// assert_eq!(q.pop(), Some((2.0, "late")));
/// assert!(q.pop().is_none());
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    seq: u64,
    now: f64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue at time zero.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
            now: 0.0,
        }
    }

    /// Current virtual time (the timestamp of the last popped event).
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Schedule `event` at absolute time `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is NaN or earlier than the current virtual time
    /// (events cannot fire in the past).
    pub fn schedule(&mut self, time: f64, event: E) {
        assert!(!time.is_nan(), "event time is NaN");
        assert!(
            time >= self.now,
            "event scheduled in the past ({time} < {})",
            self.now
        );
        self.heap.push(Scheduled {
            time,
            seq: self.seq,
            event,
        });
        self.seq += 1;
    }

    /// Schedule `event` after a delay from now.
    pub fn schedule_in(&mut self, delay: f64, event: E) {
        let now = self.now;
        self.schedule(now + delay, event);
    }

    /// Pop the next event, advancing virtual time.
    pub fn pop(&mut self) -> Option<(f64, E)> {
        let s = self.heap.pop()?;
        self.now = s.time;
        Some((s.time, s.event))
    }

    /// Pending event count.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_ordering() {
        let mut q = EventQueue::new();
        q.schedule(3.0, 3);
        q.schedule(1.0, 1);
        q.schedule(2.0, 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn fifo_tie_break() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(1.0, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn schedule_in_uses_now() {
        let mut q = EventQueue::new();
        q.schedule(5.0, "a");
        q.pop();
        q.schedule_in(1.0, "b");
        assert_eq!(q.pop(), Some((6.0, "b")));
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn past_events_rejected() {
        let mut q = EventQueue::new();
        q.schedule(5.0, ());
        q.pop();
        q.schedule(4.0, ());
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_rejected() {
        let mut q = EventQueue::new();
        q.schedule(f64::NAN, ());
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_delay_rejected() {
        // A NaN delay poisons `now + delay`; the push-time check catches
        // it before it can reach the heap comparator.
        let mut q = EventQueue::new();
        q.schedule_in(f64::NAN, ());
    }

    /// Regression for the heap comparator: `partial_cmp(..).unwrap_or(Equal)`
    /// was only a partial order — any NaN that slipped past the push
    /// assert compared Equal to everything and silently corrupted
    /// earliest-first delivery. `total_cmp` is total and antisymmetric on
    /// every representable f64, so heap order survives adversarial values
    /// like `-0.0`, subnormals, and infinities.
    #[test]
    fn comparator_is_a_total_order_on_odd_floats() {
        let mut q = EventQueue::new();
        // -0.0 passes the `time >= now` check at time zero and sorts
        // before +0.0 under total_cmp (both deterministic).
        for (i, &t) in [0.0, -0.0, f64::MIN_POSITIVE, 1e-300, f64::INFINITY, 2.0]
            .iter()
            .enumerate()
        {
            q.schedule(t, i);
        }
        let mut last = f64::NEG_INFINITY;
        let mut n = 0;
        while let Some((t, _)) = q.pop() {
            assert!(
                t.total_cmp(&last).is_ge(),
                "pop order must be non-decreasing: {t} after {last}"
            );
            last = t;
            n += 1;
        }
        assert_eq!(n, 6);
    }
}
