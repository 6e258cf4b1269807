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
//!
//! An appended block arrives at one instant with consecutive sequence
//! numbers, so the queue keeps that *stamp* — the first entry's sequence
//! number and the arrival instant — once for the block, and
//! [`OsQueue::receive`] writes it into each entry it hands out: accepting
//! a block is O(1), whatever its length, and its entries are touched once,
//! when received. A delivered update comes stamped by its caller, and is
//! never put into an appended block, whose entries take the block's stamp.

use std::collections::VecDeque;

use strip_sim::time::SimTime;

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

/// What [`OsQueue::append`] records for a block: entry `i` of it has
/// sequence number `seq + i` and arrived at `arrival`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Stamp {
    seq: u64,
    arrival: SimTime,
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
/// updates from `head` on. A block's stamp is `Some` when it came in
/// through `append`; such a block is never kept as `front` once used up,
/// never takes a delivered update, and is the only kind that may wait in
/// `rest` empty (nothing of it was accepted), so that it comes home in
/// turn. Receiving from `front` alone, the common case, touches no
/// `VecDeque`.
#[derive(Debug, Clone)]
pub struct OsQueue {
    front: Vec<Update>,
    head: usize,
    /// `front`'s stamp: `Some` when it came in through [`OsQueue::append`].
    front_stamp: Option<Stamp>,
    rest: VecDeque<(Vec<Update>, Option<Stamp>)>,
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
            front_stamp: None,
            rest: VecDeque::new(),
            len: 0,
            capacity,
            dropped: 0,
            spent: Vec::new(),
        }
    }

    /// Delivers an arriving update, stamped by the caller; a full queue
    /// rejects it and counts one drop.
    pub fn deliver(&mut self, update: Update) -> Delivery {
        let accepted = self.len < self.capacity;
        if accepted {
            let tail = match self.rest.back_mut() {
                Some((block, stamp)) => (block, stamp.is_some()),
                None => (&mut self.front, self.front_stamp.is_some()),
            };
            match tail {
                (block, false) if block.len() < block.capacity() => block.push(update),
                _ => self.start_block(update),
            }
            self.len += 1;
        } else {
            self.dropped += 1;
        }
        Delivery { accepted }
    }

    /// Delivers a block of arrivals, all at `arrival`, in order: the first
    /// `capacity - len` enter the queue, the rest are rejected and counted
    /// as drops, exactly as that many [`OsQueue::deliver`] calls would.
    /// Entry `i` is received with sequence number `first_seq + i` and
    /// arrival `arrival`, whatever its own fields say; nothing of the
    /// block is read or written here. Returns the number accepted. The
    /// block comes back out of [`OsQueue::take_spent`] once used up, after
    /// every block appended before it; a block nothing of which was
    /// accepted is used up when the blocks ahead of it are.
    pub fn append(&mut self, mut block: Vec<Update>, first_seq: u64, arrival: SimTime) -> usize {
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
            let stamp = Stamp {
                seq: first_seq,
                arrival,
            };
            self.push_block(block, Some(stamp));
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
    /// copy it, and an appended one takes no delivered update. Out of
    /// line, so the common path of `deliver` stays small.
    #[cold]
    #[inline(never)]
    fn start_block(&mut self, update: Update) {
        let mut block = Vec::with_capacity(SEGMENT.min(self.capacity));
        block.push(update);
        self.push_block(block, None);
    }

    /// Queues a non-empty block behind every queued update; it replaces
    /// `front` when that is used up. `stamp`: it came in through `append`.
    fn push_block(&mut self, block: Vec<Update>, stamp: Option<Stamp>) {
        if self.len == 0 {
            self.front = block;
            self.front_stamp = stamp;
            self.head = 0;
        } else {
            self.rest.push_back((block, stamp));
        }
    }

    /// Receives the next message in arrival order, with its block's stamp
    /// written in if it was appended. A used-up block goes to
    /// `take_spent` if it was appended, and is otherwise freed, except the
    /// last one, which is kept for the next arrivals.
    #[inline]
    pub fn receive(&mut self) -> Option<Update> {
        let mut update = *self.front.get(self.head)?;
        if let Some(stamp) = self.front_stamp {
            update.seq = stamp.seq + self.head as u64;
            update.arrival_ts = stamp.arrival;
        }
        self.head += 1;
        self.len -= 1;
        if self.head == self.front.len() {
            self.head = 0;
            if self.rest.is_empty() && self.front_stamp.is_none() {
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
            let (next, stamp) = self.rest.pop_front().unwrap_or_default();
            let mut used = std::mem::replace(&mut self.front, next);
            if std::mem::replace(&mut self.front_stamp, stamp).is_some() {
                used.clear();
                self.spent.push(used);
            }
            if !(self.front_stamp.is_some() && self.front.is_empty()) {
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

    /// `seqs` as a block a caller hands in: each entry's own fields are
    /// a stand-in the block's stamp replaces.
    fn unstamped(seqs: impl IntoIterator<Item = u64>) -> Vec<Update> {
        seqs.into_iter()
            .map(|s| Update {
                seq: u64::MAX - s,
                arrival_ts: SimTime::from_secs(-1.0),
                ..upd(s)
            })
            .collect()
    }

    /// Appends `seqs` stamped as the arrivals of instant `seqs[0]`.
    fn append(q: &mut OsQueue, seqs: &[u64]) -> usize {
        let first = seqs.first().copied().unwrap_or(0);
        q.append(unstamped(seqs.iter().copied()), first, at(first))
    }

    fn at(seq: u64) -> SimTime {
        SimTime::from_secs(seq as f64)
    }

    #[test]
    fn append_takes_what_fits_and_keeps_fifo_with_deliver() {
        let mut q = OsQueue::new(5);
        assert!(q.deliver(upd(0)).accepted);
        assert_eq!(append(&mut q, &[1, 2]), 2);
        assert_eq!(append(&mut q, &[3, 4, 5, 6]), 2);
        assert_eq!(q.dropped(), 2);
        assert_eq!(append(&mut q, &[]), 0);
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
            b.extend(unstamped(seqs.iter().copied()));
            b
        };
        let stamp = |b: Vec<Update>| {
            let first = b.first().map_or(0, |u| u64::MAX - u.seq);
            (b, first, at(first))
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
        q.append(Vec::with_capacity(9), 0, at(0));
        assert_eq!(capacities(&mut q), [9]);
        assert!(q.deliver(upd(0)).accepted);
        let (b, seq, arrival) = stamp(block(&[1, 2], 10));
        q.append(b, seq, arrival);
        // Empty, and behind the full one: it waits its turn.
        q.append(Vec::with_capacity(11), 3, at(3));
        let (b, seq, arrival) = stamp(block(&[3, 4, 5], 12));
        q.append(b, seq, arrival);
        // Full: nothing of this one is kept, and it waits its turn too.
        let (b, seq, arrival) = stamp(block(&[6], 13));
        q.append(b, seq, arrival);
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

    /// A stamped block hands out what stamping each entry in place and
    /// delivering it would: the same updates, sequence numbers and
    /// arrival instants, in the same order, through overflow and mixed
    /// with delivered updates; and its blocks come home in append order.
    #[test]
    fn a_stamped_block_receives_as_entries_stamped_in_place() {
        // (instant, arrivals, delivered, receives): `arrivals` updates
        // appended as a block at that instant, or delivered one by one
        // when `delivered` is set; then `receives` receives.
        let script = [
            (10, 3, false, 0),
            (13, 1, true, 2),
            (14, 4, false, 0),
            (18, 2, true, 0),
            // Overflows: capacity 8 leaves room for fewer than 5.
            (20, 5, false, 1),
            (25, 6, false, 3),
            (31, 2, true, 0),
            (33, 3, false, 16),
        ];
        let mut q = OsQueue::new(8);
        let mut reference = OsQueue::new(8);
        let mut seq = 0u64;
        let (mut got, mut want) = (Vec::new(), Vec::new());
        let mut appended = Vec::new();
        for (instant, n, delivered, receives) in script {
            let entries: Vec<Update> = (0..n as u64).map(|i| upd(100 + seq + i)).collect();
            let stamped = entries.iter().enumerate().map(|(i, u)| Update {
                seq: seq + i as u64,
                arrival_ts: at(instant),
                ..*u
            });
            if delivered {
                for u in stamped {
                    assert_eq!(q.deliver(u), reference.deliver(u));
                }
            } else {
                let kept = stamped.map(|u| reference.deliver(u).accepted);
                let kept = kept.filter(|&k| k).count();
                let mut block = Vec::with_capacity(n + 7);
                block.extend(entries);
                appended.push(block.capacity());
                assert_eq!(q.append(block, seq, at(instant)), kept);
            }
            seq += n as u64;
            for _ in 0..receives {
                got.extend(q.receive());
                want.extend(reference.receive());
            }
            assert_eq!(
                (q.len(), q.dropped()),
                (reference.len(), reference.dropped())
            );
        }
        assert!(q.is_empty() && !want.is_empty());
        assert_eq!(got, want);
        // Every appended block came home once used up, in append order; a
        // truncated one kept room for what it holds only.
        let home: Vec<usize> = q.take_spent().map(|b| b.capacity()).collect();
        assert_eq!(home.len(), appended.len());
        assert!(home.iter().zip(&appended).all(|(h, a)| h <= a));
        assert_eq!(home[..3], appended[..3]);
    }

    /// An update delivered behind a stamped block starts a block of its
    /// own, even where the stamped one has room: it keeps its own stamp,
    /// and the stamped block comes home without it.
    #[test]
    fn a_delivery_after_a_stamped_block_starts_its_own_block() {
        let mut q = OsQueue::new(10);
        let mut block = Vec::with_capacity(8);
        block.extend(unstamped([1, 2]));
        q.append(block, 1, at(1));
        assert_eq!(q.blocks(), 1);
        assert!(q.deliver(upd(3)).accepted);
        assert_eq!(q.blocks(), 2);
        let got: Vec<(u64, SimTime)> = std::iter::from_fn(|| q.receive())
            .map(|u| (u.seq, u.arrival_ts))
            .collect();
        assert_eq!(got, [(1, at(1)), (2, at(1)), (3, at(3))]);
        let home: Vec<Vec<Update>> = q.take_spent().collect();
        assert_eq!(home.len(), 1);
        assert!(home[0].is_empty() && home[0].capacity() == 8);
    }

    #[test]
    fn empty_flags() {
        let mut q = OsQueue::new(1);
        assert!(q.is_empty());
        q.deliver(upd(0));
        assert!(!q.is_empty());
    }
}
