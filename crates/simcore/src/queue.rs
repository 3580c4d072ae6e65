//! Deterministic event queue.
//!
//! A priority queue of timestamped events. Events scheduled for the same
//! instant pop in insertion order (FIFO), which makes simulations
//! deterministic regardless of how the underlying structure happens to
//! order equal keys.
//!
//! The queue is a binary heap of `(time, seq)`-reversed entries: O(log n)
//! per operation and no assumption about push times. The end-to-end
//! measurement that chose it is in DESIGN.md §9.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// A timestamped entry in the heap.
///
/// Ordered so that the *earliest* time is the *greatest* entry (so it sits at
/// the top of the max-heap), with the insertion sequence number breaking
/// ties in FIFO order.
struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: smaller (time, seq) compares greater, so it pops first.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// A deterministic time-ordered event queue.
///
/// # Examples
///
/// ```
/// use spotcheck_simcore::queue::EventQueue;
/// use spotcheck_simcore::time::SimTime;
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_secs(2), "late");
/// q.push(SimTime::from_secs(1), "early");
/// assert_eq!(q.pop(), Some((SimTime::from_secs(1), "early")));
/// assert_eq!(q.pop(), Some((SimTime::from_secs(2), "late")));
/// assert_eq!(q.pop(), None);
/// ```
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedules `event` to fire at `time`.
    pub fn push(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { time, seq, event });
    }

    /// Removes and returns the earliest event, FIFO among ties.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let popped = self.heap.pop().map(|e| (e.time, e.event));
        if popped.is_some() {
            crate::metrics::add(1);
        }
        popped
    }

    /// Returns the firing time of the earliest event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    /// Returns the number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns true if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Removes all pending events.
    pub fn clear(&mut self) {
        self.heap.clear();
    }

    /// Drains all events at the earliest pending instant into `batch`
    /// (cleared first), in FIFO order, and returns that instant.
    ///
    /// This is the allocation-free variant of [`EventQueue::pop_batch`]:
    /// per-instant callers (e.g. batch-dispatching engines) reuse one
    /// buffer across instants instead of allocating a fresh `Vec` each
    /// time.
    ///
    /// Returns `None` (leaving `batch` cleared) if the queue is empty.
    pub fn pop_batch_into(&mut self, batch: &mut Vec<E>) -> Option<SimTime> {
        batch.clear();
        let t = self.peek_time()?;
        while self.heap.peek().map(|e| e.time) == Some(t) {
            batch.push(self.heap.pop().expect("peeked entry must exist").event);
        }
        crate::metrics::add(batch.len() as u64);
        Some(t)
    }

    /// Drains and returns all events at the earliest pending instant,
    /// in FIFO order, along with that instant.
    ///
    /// Allocates a fresh `Vec` per call; prefer
    /// [`EventQueue::pop_batch_into`] on hot paths.
    ///
    /// Returns `None` if the queue is empty.
    pub fn pop_batch(&mut self) -> Option<(SimTime, Vec<E>)> {
        let mut batch = Vec::new();
        let t = self.pop_batch_into(&mut batch)?;
        Some((t, batch))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(3), 'c');
        q.push(SimTime::from_secs(1), 'a');
        q.push(SimTime::from_secs(2), 'b');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!['a', 'b', 'c']);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..100 {
            q.push(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_ties_stay_fifo() {
        let mut q = EventQueue::new();
        let t1 = SimTime::from_secs(1);
        let t2 = SimTime::from_secs(2);
        q.push(t2, "b1");
        q.push(t1, "a1");
        q.push(t2, "b2");
        q.push(t1, "a2");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["a1", "a2", "b1", "b2"]);
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(1), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(1)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.pop();
        assert_eq!(q.peek_time(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn pop_batch_groups_same_instant() {
        let mut q = EventQueue::new();
        let t1 = SimTime::from_secs(1);
        q.push(t1, 1);
        q.push(t1, 2);
        q.push(SimTime::from_secs(2), 3);
        assert_eq!(q.pop_batch(), Some((t1, vec![1, 2])));
        assert_eq!(q.pop_batch(), Some((SimTime::from_secs(2), vec![3])));
        assert_eq!(q.pop_batch(), None);
    }

    #[test]
    fn pop_batch_into_reuses_buffer() {
        let mut q = EventQueue::new();
        let t1 = SimTime::from_secs(1);
        q.push(t1, 1);
        q.push(t1, 2);
        q.push(SimTime::from_secs(2), 3);
        let mut buf = Vec::with_capacity(8);
        assert_eq!(q.pop_batch_into(&mut buf), Some(t1));
        assert_eq!(buf, vec![1, 2]);
        assert_eq!(q.pop_batch_into(&mut buf), Some(SimTime::from_secs(2)));
        assert_eq!(buf, vec![3]);
        assert_eq!(q.pop_batch_into(&mut buf), None);
        assert!(buf.is_empty());
    }

    #[test]
    fn clear_empties() {
        let mut q = EventQueue::new();
        q.push(SimTime::ZERO, 0);
        q.clear();
        assert!(q.is_empty());
    }
}
