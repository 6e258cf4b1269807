//! The bounded operating-system message queue (paper §3.3).
//!
//! Arriving updates are buffered by the OS until the controller actively
//! receives them. The OS queue lives in kernel space, is small (`OS_max`),
//! and only supports FIFO receive of the next message — it cannot be
//! searched or reordered, which is why the algorithms that defer updates
//! also maintain the application-level update queue. On overflow the
//! kernel rejects the arriving message; `dropped` counts those rejections.
//!
//! The queue is kept as blocks of updates. A block a caller hands in whole
//! ([`OsQueue::append`]) is the caller's: once used up it waits, emptied
//! with its capacity kept, until [`OsQueue::take_spent`] hands it back, so
//! the live server's connection threads can decode their next frames into
//! it. Blocks the queue starts itself ([`OsQueue::deliver`], the
//! simulator's only path) are freed when used up.

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
/// next update; `rest` is empty when `front` is used up; `len` counts the
/// updates from `head` on. A block's flag is true when it came in through
/// `append`; such a block is never kept as `front` once used up, and it
/// is the only kind that may wait in `rest` empty (nothing of it was
/// accepted), so that it comes home in turn. Receiving from `front`
/// alone, the common case, touches no `VecDeque`.
#[derive(Debug, Clone)]
pub struct OsQueue {
    front: Vec<Update>,
    head: usize,
    /// `front` came in through [`OsQueue::append`].
    front_lent: bool,
    rest: VecDeque<(Vec<Update>, bool)>,
    len: usize,
    capacity: usize,
    dropped: u64,
    /// Used-up appended blocks, emptied, in the order they were appended.
    spent: Vec<Vec<Update>>,
}

impl OsQueue {
    /// Creates a queue bounded at `capacity` messages.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        OsQueue {
            front: Vec::new(),
            head: 0,
            front_lent: false,
            rest: VecDeque::new(),
            len: 0,
            capacity,
            dropped: 0,
            spent: Vec::new(),
        }
    }

    /// Delivers an arriving update; a full queue rejects it and counts one
    /// drop.
    pub fn deliver(&mut self, update: Update) -> Delivery {
        let accepted = self.len < self.capacity;
        if accepted {
            let tail = match self.rest.back_mut() {
                Some((block, _)) => block,
                None => &mut self.front,
            };
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
    /// would. Returns the number accepted. The block comes back out of
    /// [`OsQueue::take_spent`] once used up, after every block appended
    /// before it; a block nothing of which was accepted is used up when
    /// the blocks ahead of it are.
    pub fn append(&mut self, mut block: Vec<Update>) -> usize {
        let room = self.capacity - self.len;
        if block.len() > room {
            self.dropped += (block.len() - room) as u64;
            block.truncate(room);
            if room > 0 {
                // A mostly rejected block must not hold a frame's worth of
                // memory per queued update.
                block.shrink_to_fit();
            }
        }
        let accepted = block.len();
        if self.len == 0 && accepted == 0 {
            self.spent.push(block);
        } else {
            self.push_block(block, true);
            self.len += accepted;
        }
        accepted
    }

    /// Hands out the appended blocks that are used up, emptied, with their
    /// capacity kept, in the order they were appended.
    pub fn take_spent(&mut self) -> std::vec::Drain<'_, Vec<Update>> {
        self.spent.drain(..)
    }

    /// Queues `update` in a block of its own: growing a full block would
    /// copy it. Out of line, so the common path of `deliver` stays small.
    #[cold]
    #[inline(never)]
    fn start_block(&mut self, update: Update) {
        let mut block = Vec::with_capacity(SEGMENT.min(self.capacity));
        block.push(update);
        self.push_block(block, false);
    }

    /// Queues a non-empty block behind every queued update; it replaces
    /// `front` when that is used up. `lent`: it came in through `append`.
    fn push_block(&mut self, block: Vec<Update>, lent: bool) {
        if self.len == 0 {
            self.front = block;
            self.front_lent = lent;
            self.head = 0;
        } else {
            self.rest.push_back((block, lent));
        }
    }

    /// Receives the next message in arrival order. A used-up block goes
    /// to `take_spent` if it was appended, and is otherwise freed, except
    /// the last one, which is kept for the next arrivals.
    pub fn receive(&mut self) -> Option<Update> {
        let update = *self.front.get(self.head)?;
        self.head += 1;
        self.len -= 1;
        if self.head == self.front.len() {
            self.head = 0;
            if self.rest.is_empty() && !self.front_lent {
                self.front.clear();
            } else {
                self.next_block();
            }
        }
        Some(update)
    }

    /// Retires the used-up front block — to `spent` if it was appended —
    /// for the next one that holds an update, or for an empty one when
    /// none is queued; appended blocks that wait empty are retired on the
    /// way. Out of line, so the common path of `receive` stays small.
    #[cold]
    #[inline(never)]
    fn next_block(&mut self) {
        loop {
            let (next, lent) = self.rest.pop_front().unwrap_or_default();
            let mut used = std::mem::replace(&mut self.front, next);
            if std::mem::replace(&mut self.front_lent, lent) {
                used.clear();
                self.spent.push(used);
            }
            if !(self.front_lent && self.front.is_empty()) {
                return;
            }
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
        assert_eq!(q.blocks(), 1);
        assert!(q.deliver(upd(8)).accepted);
        assert_eq!(q.receive().map(|u| u.seq), Some(8));
    }

    #[test]
    fn appended_blocks_come_back_used_up_and_in_order_and_delivered_ones_do_not() {
        let mut q = OsQueue::new(6);
        let block = |seqs: &[u64], cap: usize| {
            let mut b = Vec::with_capacity(cap);
            b.extend(seqs.iter().map(|&s| upd(s)));
            b
        };
        let capacities = |q: &mut OsQueue| -> Vec<usize> {
            q.take_spent()
                .map(|b| {
                    assert!(b.is_empty());
                    b.capacity()
                })
                .collect()
        };
        // Nothing queued: an empty block is used up at once.
        q.append(Vec::with_capacity(9));
        assert_eq!(capacities(&mut q), [9]);
        assert!(q.deliver(upd(0)).accepted);
        q.append(block(&[1, 2], 10));
        // Empty, and behind the full one: it waits its turn.
        q.append(Vec::with_capacity(11));
        q.append(block(&[3, 4, 5], 12));
        // Full: nothing of this one is kept, and it waits its turn too.
        q.append(block(&[6], 13));
        assert!(!q.deliver(upd(7)).accepted);
        assert!(q.take_spent().next().is_none());
        assert_eq!(q.receive().map(|u| u.seq), Some(0));
        assert_eq!(q.receive().map(|u| u.seq), Some(1));
        assert!(q.take_spent().next().is_none());
        assert_eq!(q.receive().map(|u| u.seq), Some(2));
        assert_eq!(capacities(&mut q), [10, 11]);
        let got: Vec<u64> = std::iter::from_fn(|| q.receive()).map(|u| u.seq).collect();
        assert_eq!(got, [3, 4, 5]);
        // The delivered block was freed; the appended ones come back in
        // the order appended, the last one included: it is not kept as
        // the tail.
        assert_eq!(capacities(&mut q), [12, 13]);
        assert!(q.take_spent().next().is_none());
        // A queue fed by `deliver` alone keeps its last block and hands
        // out nothing.
        assert!(q.deliver(upd(8)).accepted);
        assert_eq!(q.receive().map(|u| u.seq), Some(8));
        assert!(q.deliver(upd(9)).accepted);
        assert_eq!(q.receive().map(|u| u.seq), Some(9));
        assert_eq!(q.blocks(), 1);
        assert!(q.take_spent().next().is_none());
    }

    #[test]
    fn empty_flags() {
        let mut q = OsQueue::new(1);
        assert!(q.is_empty());
        q.deliver(upd(0));
        assert!(!q.is_empty());
    }
}
