//! The bounded operating-system message queue (paper §3.3).
//!
//! Arriving updates are buffered by the OS until the controller actively
//! receives them. The OS queue lives in kernel space, is small (`OS_max`),
//! and only supports FIFO receive of the next message — it cannot be
//! searched or reordered, which is why the algorithms that defer updates
//! also maintain the application-level update queue. On overflow the
//! kernel rejects the arriving message; `dropped` counts those rejections.

use std::collections::VecDeque;

use crate::update::Update;

/// Outcome of [`OsQueue::deliver`]: whether the arrival entered the buffer
/// or was rejected by a full queue. A struct rather than a `bool` because
/// `benchmark/src/layers.rs` reads `.accepted`; only a change that may edit
/// `benchmark/` can flatten it.
#[derive(Debug, Clone, PartialEq)]
pub struct Delivery {
    /// The arriving update entered the buffer.
    pub accepted: bool,
}

/// Size of a block [`OsQueue::deliver`] starts, so a queue that never
/// empties frees its received prefix a block at a time.
const SEGMENT: usize = 1024;

/// Bounded FIFO of arrived-but-unreceived updates, kept as a queue of
/// blocks. [`OsQueue::append`] takes a caller's block whole (the live
/// server's connection threads decode each batch frame into one), so
/// queueing a frame neither copies it nor touches fresh memory;
/// [`OsQueue::deliver`] appends one update to a growable tail block.
///
/// Invariants: `front` is the block being received from and `head` its
/// next update; every block in `rest` holds at least one update, and
/// `rest` is empty when `front` is used up; `len` counts the updates from
/// `head` on. Receiving from `front` alone, the common case, touches no
/// `VecDeque`.
#[derive(Debug, Clone)]
pub struct OsQueue {
    front: Vec<Update>,
    head: usize,
    rest: VecDeque<Vec<Update>>,
    len: usize,
    capacity: usize,
    dropped: u64,
}

impl OsQueue {
    /// Creates a queue bounded at `capacity` messages.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        OsQueue {
            front: Vec::new(),
            head: 0,
            rest: VecDeque::new(),
            len: 0,
            capacity,
            dropped: 0,
        }
    }

    /// Delivers an arriving update; a full queue rejects it and counts one
    /// drop.
    pub fn deliver(&mut self, update: Update) -> Delivery {
        let accepted = self.len < self.capacity;
        if accepted {
            let tail = self.rest.back_mut().unwrap_or(&mut self.front);
            if tail.len() < tail.capacity() {
                tail.push(update);
            } else {
                self.start_block(update);
            }
            self.len += 1;
        } else {
            self.dropped += 1;
        }
        Delivery { accepted }
    }

    /// Delivers a block of arrivals in order: the first
    /// `capacity - len` enter the queue, the rest are rejected and
    /// counted as drops, exactly as that many [`OsQueue::deliver`] calls
    /// would. Returns the number accepted.
    pub fn append(&mut self, mut block: Vec<Update>) -> usize {
        let room = self.capacity - self.len;
        if block.len() > room {
            self.dropped += (block.len() - room) as u64;
            block.truncate(room);
            // A mostly rejected block must not hold a frame's worth of
            // memory per queued update.
            block.shrink_to_fit();
        }
        let accepted = block.len();
        if accepted > 0 {
            self.push_block(block);
            self.len += accepted;
        }
        accepted
    }

    /// Queues `update` in a block of its own: growing a full block would
    /// copy it. Out of line, so the common path of `deliver` stays small.
    #[cold]
    #[inline(never)]
    fn start_block(&mut self, update: Update) {
        let mut block = Vec::with_capacity(SEGMENT.min(self.capacity));
        block.push(update);
        self.push_block(block);
    }

    /// Queues a non-empty block behind every queued update; it replaces
    /// `front` when that is used up.
    fn push_block(&mut self, block: Vec<Update>) {
        if self.len == 0 {
            self.front = block;
            self.head = 0;
        } else {
            self.rest.push_back(block);
        }
    }

    /// Receives the next message in arrival order. A used-up block is
    /// freed, except the last one, which is kept for the next arrivals.
    pub fn receive(&mut self) -> Option<Update> {
        let update = *self.front.get(self.head)?;
        self.head += 1;
        self.len -= 1;
        if self.head == self.front.len() {
            self.head = 0;
            if self.rest.is_empty() {
                self.front.clear();
            } else {
                self.next_block();
            }
        }
        Some(update)
    }

    /// Frees the used-up front block for the next one. Out of line, so the
    /// common path of `receive` stays small.
    #[cold]
    #[inline(never)]
    fn next_block(&mut self) {
        if let Some(next) = self.rest.pop_front() {
            self.front = next;
        }
    }

    /// Number of buffered messages.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no messages are buffered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Overflow events (one rejected arrival each).
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The configured capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Blocks currently held, a kept empty one included.
    #[must_use]
    pub fn blocks(&self) -> usize {
        1 + self.rest.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::{Importance, ViewObjectId};
    use strip_sim::time::SimTime;

    fn upd(seq: u64) -> Update {
        Update {
            seq,
            object: ViewObjectId::new(Importance::Low, 0),
            generation_ts: SimTime::from_secs(seq as f64),
            arrival_ts: SimTime::from_secs(seq as f64),
            payload: 0.0,
            attr_mask: Update::COMPLETE,
        }
    }

    #[test]
    fn fifo_order() {
        let mut q = OsQueue::new(10);
        for i in 0..5 {
            assert!(q.deliver(upd(i)).accepted);
        }
        for i in 0..5 {
            assert_eq!(q.receive().unwrap().seq, i);
        }
        assert!(q.receive().is_none());
    }

    #[test]
    fn overflow_drops_arrivals() {
        let mut q = OsQueue::new(2);
        assert!(q.deliver(upd(0)).accepted);
        assert!(q.deliver(upd(1)).accepted);
        let lost = q.deliver(upd(2));
        assert!(!lost.accepted);
        assert_eq!(q.dropped(), 1);
        assert_eq!(q.len(), 2);
        // The arrival was the victim; receiving frees a slot.
        assert_eq!(q.receive().unwrap().seq, 0);
        assert!(q.deliver(upd(3)).accepted);
        assert_eq!(q.capacity(), 2);
    }

    #[test]
    fn append_takes_what_fits_and_keeps_fifo_with_deliver() {
        let mut q = OsQueue::new(5);
        assert!(q.deliver(upd(0)).accepted);
        assert_eq!(q.append(vec![upd(1), upd(2)]), 2);
        assert_eq!(q.append(vec![upd(3), upd(4), upd(5), upd(6)]), 2);
        assert_eq!(q.dropped(), 2);
        assert_eq!(q.append(Vec::new()), 0);
        assert!(!q.deliver(upd(7)).accepted);
        let got: Vec<u64> = std::iter::from_fn(|| q.receive()).map(|u| u.seq).collect();
        assert_eq!(got, [0, 1, 2, 3, 4]);
        assert_eq!(q.blocks(), 1, "the last block is kept, empty");
        assert!(q.deliver(upd(8)).accepted);
        assert_eq!(q.receive().map(|u| u.seq), Some(8));
    }

    #[test]
    fn empty_flags() {
        let mut q = OsQueue::new(1);
        assert!(q.is_empty());
        q.deliver(upd(0));
        assert!(!q.is_empty());
    }
}
