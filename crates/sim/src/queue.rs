//! The pending-event queue.
//!
//! One contiguous buffer of `(time, seq, event)` entries kept sorted in
//! *descending* `(time, seq)` order, so the earliest event is the last
//! element and [`EventQueue::pop`] is a plain `Vec::pop`. `seq` increases
//! monotonically with every push, so events scheduled for the same instant
//! pop in FIFO order — a property several state machines in the simulator
//! rely on (e.g. "frequency applied" must be observed before a
//! decode-completion check scheduled afterwards at the same instant).
//!
//! A streaming session keeps about three events pending (seven at most),
//! so the `O(pending)` shift in [`EventQueue::push`] and
//! [`EventQueue::cancel`] moves a handful of entries; at that size it is
//! cheaper than a binary heap's sift plus an indirection to a payload.
//!
//! [`EventId`] is the event's `seq`, unique for the lifetime of the queue,
//! so the id of an event that fired or was cancelled can never match a
//! later one. Cancellation removes the entry at once: every entry in the
//! buffer is live.

use std::fmt;

use crate::time::SimTime;

/// A handle identifying a scheduled event, usable for cancellation.
///
/// Ids are never reused: each push mints a new one.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EventId(u64);

impl EventId {
    /// The raw sequence number. Mostly useful for logging.
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

impl fmt::Display for EventId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ev#{}", self.0)
    }
}

struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

/// A time-ordered queue of pending simulation events.
///
/// ```
/// use eavs_sim::queue::EventQueue;
/// use eavs_sim::time::SimTime;
///
/// let mut q = EventQueue::new();
/// let a = q.push(SimTime::from_millis(5), "late");
/// let _b = q.push(SimTime::from_millis(1), "early");
/// q.cancel(a);
/// let (t, ev) = q.pop().unwrap();
/// assert_eq!((t, ev), (SimTime::from_millis(1), "early"));
/// assert!(q.pop().is_none());
/// ```
pub struct EventQueue<E> {
    /// Pending events, sorted by descending `(time, seq)`.
    entries: Vec<Entry<E>>,
    next_seq: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            entries: Vec::new(),
            next_seq: 0,
        }
    }

    /// Schedules `event` at absolute time `time`, returning its id.
    #[inline]
    pub fn push(&mut self, time: SimTime, event: E) -> EventId {
        let seq = self.next_seq;
        self.next_seq += 1;
        // Append, then walk the entry toward the front past every entry it
        // must pop after. `seq` exceeds every pending one, so that includes
        // all entries at the same instant. At a session's handful of
        // pending events this walk beats a binary search plus
        // `Vec::insert`'s `memmove` call; on a 10k-event queue it is the
        // slower of the two (see DESIGN.md §9.1).
        self.entries.push(Entry { time, seq, event });
        let mut at = self.entries.len() - 1;
        while at > 0 && self.entries[at - 1].time <= time {
            self.entries.swap(at - 1, at);
            at -= 1;
        }
        EventId(seq)
    }

    /// Cancels a previously scheduled event, removing it from the queue.
    ///
    /// Returns `true` if the event was still pending, `false` if it had
    /// already fired or been cancelled.
    pub fn cancel(&mut self, id: EventId) -> bool {
        match self.entries.iter().rposition(|e| e.seq == id.0) {
            Some(at) => {
                self.entries.remove(at);
                true
            }
            None => false,
        }
    }

    /// `true` if `id` still names a pending (not fired, not cancelled)
    /// event.
    pub fn contains(&self, id: EventId) -> bool {
        self.entries.iter().any(|e| e.seq == id.0)
    }

    /// The time of the earliest pending event, if any.
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.entries.last().map(|e| e.time)
    }

    /// Removes and returns the earliest pending event.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.entries.pop().map(|e| (e.time, e.event))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EventQueue")
            .field("live", &self.entries.len())
            .field("scheduled_total", &self.next_seq)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(t(30), 'c');
        q.push(t(10), 'a');
        q.push(t(20), 'b');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!['a', 'b', 'c']);
    }

    #[test]
    fn same_time_is_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(t(5), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn cancel_pending() {
        let mut q = EventQueue::new();
        let a = q.push(t(1), 'a');
        let b = q.push(t(2), 'b');
        assert!(q.cancel(a));
        assert!(!q.cancel(a), "double cancel must report false");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((t(2), 'b')));
        assert!(!q.cancel(b), "cancel after pop must report false");
    }

    #[test]
    fn peek_time_skips_cancelled() {
        let mut q = EventQueue::new();
        let a = q.push(t(1), 'a');
        q.push(t(2), 'b');
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(t(2)));
    }

    #[test]
    fn len_and_empty() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.is_empty());
        let id = q.push(t(1), ());
        assert_eq!(q.len(), 1);
        q.cancel(id);
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn interleaved_push_pop_cancel() {
        let mut q = EventQueue::new();
        let mut ids = Vec::new();
        for i in 0..50u64 {
            ids.push(q.push(t(i % 7), i));
        }
        for id in ids.iter().step_by(3) {
            q.cancel(*id);
        }
        let mut last = SimTime::ZERO;
        let mut seen = 0;
        while let Some((time, v)) = q.pop() {
            assert!(time >= last);
            last = time;
            assert!(v % 3 != 0, "cancelled event {v} popped");
            seen += 1;
        }
        assert_eq!(seen, 50 - ids.iter().step_by(3).count());
    }

    #[test]
    fn cancelled_id_never_touches_a_later_event() {
        let mut q = EventQueue::new();
        let a = q.push(t(1), "old");
        assert!(q.cancel(a));
        // A later event at the same instant must not answer to the old id.
        let b = q.push(t(1), "new");
        assert_ne!(a, b);
        assert_ne!(a.as_u64(), b.as_u64());
        assert!(!q.contains(a), "cancelled id observes a later event");
        assert!(!q.cancel(a), "cancelled id cancelled a later event");
        assert!(q.contains(b));
        assert_eq!(q.pop(), Some((t(1), "new")));
    }

    #[test]
    fn fired_id_never_touches_a_later_event() {
        let mut q = EventQueue::new();
        let a = q.push(t(1), 1u32);
        assert_eq!(q.pop(), Some((t(1), 1)));
        let b = q.push(t(2), 2u32);
        assert!(!q.contains(a), "fired id observes its successor");
        assert!(!q.cancel(a), "fired id cancelled its successor");
        assert!(q.cancel(b));
        assert!(q.is_empty());
    }

    #[test]
    fn memory_tracks_peak_pending_not_total_scheduled() {
        let mut q = EventQueue::new();
        for round in 0..1_000u64 {
            let ids: Vec<_> = (0..8).map(|i| q.push(t(round * 10 + i), i)).collect();
            for id in ids {
                assert!(q.cancel(id));
            }
        }
        // 8,000 events scheduled, never more than 8 pending at once.
        assert!(q.is_empty());
        let cap = q.entries.capacity();
        assert!((8..16).contains(&cap), "capacity {cap} for a peak of 8");
        // Raising the peak grows the buffer to match, and no further.
        for i in 0..20 {
            q.push(t(i), i);
        }
        while q.pop().is_some() {}
        let cap = q.entries.capacity();
        assert!((20..40).contains(&cap), "capacity {cap} for a peak of 20");
    }
}
