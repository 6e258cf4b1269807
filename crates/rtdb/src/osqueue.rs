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

/// Bounded FIFO of arrived-but-unreceived updates.
#[derive(Debug, Clone)]
pub struct OsQueue {
    buf: VecDeque<Update>,
    capacity: usize,
    dropped: u64,
}

impl OsQueue {
    /// Creates a queue bounded at `capacity` messages.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        OsQueue {
            buf: VecDeque::with_capacity(capacity.min(4096)),
            capacity,
            dropped: 0,
        }
    }

    /// Delivers an arriving update; a full queue rejects it and counts one
    /// drop.
    pub fn deliver(&mut self, update: Update) -> Delivery {
        let accepted = self.buf.len() < self.capacity;
        if accepted {
            self.buf.push_back(update);
        } else {
            self.dropped += 1;
        }
        Delivery { accepted }
    }

    /// Receives the next message in arrival order.
    pub fn receive(&mut self) -> Option<Update> {
        self.buf.pop_front()
    }

    /// Number of buffered messages.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if no messages are buffered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
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
    fn empty_flags() {
        let mut q = OsQueue::new(1);
        assert!(q.is_empty());
        q.deliver(upd(0));
        assert!(!q.is_empty());
    }
}
