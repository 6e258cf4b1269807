//! The future-event list.
//!
//! A classic discrete-event simulation calendar: events are popped in
//! non-decreasing time order, with FIFO tie-breaking (two events scheduled
//! for the same instant fire in the order they were scheduled). Stability
//! matters for reproducibility and for modelling conventions such as "the
//! deadline watchdog was armed before the completion event, so at an exact
//! tie the deadline fires first".
//!
//! Every pending event sits in one slab slot from `schedule` to `pop` — it
//! is copied in once and out once. The slots are ordered by two tiers,
//! split on fixed-width time buckets (`bucket = secs / width`, truncated
//! toward zero):
//!
//! * the **near tier** is a `std::collections::BinaryHeap` of `(time,
//!   seq)` keys and slot indices covering every pending event whose bucket
//!   is at or before the `current` bucket — the few events of the next
//!   milliseconds. Over the `sim_sweep` fig03 points it holds 2.0–6.2
//!   events on average (sampled after every pop) and at most 62, start-up
//!   included, so a plain binary heap is all it needs, grown on demand
//!   (`with_capacity` reserves only the slab);
//! * the **far tier** is a ring of `RING` buckets, each an unsorted list
//!   of slots, holding the events of the next `RING · width` seconds (in
//!   the simulator: the Maximum Age watchdogs, armed α = 7 s out by every
//!   install), plus one overflow list for events beyond the ring. When the
//!   heap empties, `current` steps to the next bucket and that bucket's
//!   slots join the heap; the overflow list is redistributed each time
//!   `current` starts a new revolution.
//!
//! Pop order is exactly `(time, seq)`: the bucket index is monotone
//! non-decreasing in time, so every far event is strictly later than every
//! near event, and the heap orders the near ones on
//! [`SimTime::order_bits`], which is `SimTime`'s own order (`-0.0` and
//! `+0.0` tie, and pop as `+0.0`). Because `(time, seq)` is
//! a strict total order (`seq` is unique), the calendar pops the same
//! sequence as the plain `BinaryHeap` calendar it replaced (kept under
//! `tests/reference/` as the pop-order oracle) — the tiers cannot change
//! simulation results.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;
use std::mem;

use crate::time::SimTime;

/// A near-heap entry, ordered by its key alone, the packed `u128`
/// `time.order_bits() << 64 | seq`: the earliest time pops first and the
/// sequence number breaks ties in scheduling order. Keys are unique, so
/// `slot` never decides, and leaving it out of the order makes each heap
/// comparison one integer compare. The event itself stays in slab slot
/// `slot`, so the heap moves 32 bytes whatever the size of `E`.
#[derive(Clone, Copy)]
struct Entry {
    key: u128,
    slot: u32,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl Eq for Entry {}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key.cmp(&other.key)
    }
}

/// Buckets per second: a bucket is 2⁻⁷ s ≈ 7.8 ms wide. At the paper's
/// baseline an update arrives every 2.5 ms and installs in 0.48 ms, so a
/// bucket holds a few arrivals, their installs and the watchdogs that
/// fall due beside them — over the 250 s `sim_sweep` fig03 points the
/// near heap holds 2.0–6.2 events on average and never more than 62 of the
/// up to ≈ 2 900 pending — while transaction compute (≈ 120 ms), deadlines
/// (0.1–1.2 s) and MA watchdogs (α = 7 s) wait unsorted in the ring. A
/// power of two, so the product below is exact scaling.
const BUCKETS_PER_SEC: f64 = 128.0;

/// Ring length (a power of two): 2 048 × 7.8 ms = 16 s of lookahead, which
/// covers the baseline α = 7 s with room for the longer α sweeps; events
/// further out wait in the overflow list.
const RING: usize = 2_048;

/// `bucket & RING_MASK` is the bucket's ring slot (also for negative
/// buckets: two's complement makes it the euclidean remainder).
const RING_MASK: u64 = RING as u64 - 1;

/// End of a slab list.
const NIL: u32 = u32::MAX;

/// The time a key carries.
#[inline]
fn key_time(key: u128) -> SimTime {
    SimTime::from_order_bits((key >> 64) as u64)
}

/// The bucket of `time`. Truncation is monotone non-decreasing over every
/// non-NaN `f64` — negatives and ±∞ included, `as` saturates — which is
/// all the pop-order argument needs (and, unlike `floor`, is no libm call).
#[inline]
fn bucket_of(time: SimTime) -> i64 {
    (time.as_secs() * BUCKETS_PER_SEC) as i64
}

/// One slot of the slab: a pending event and its key, or a free slot
/// (`event` is `None`). `next` links the slot into its far-tier list — a
/// ring bucket, the overflow list or the free list; an event in the near
/// heap is on no list.
struct Slot<E> {
    key: u128,
    next: u32,
    event: Option<E>,
}

/// A future-event list holding events of type `E` (see the module docs
/// for the two tiers).
pub struct EventQueue<E> {
    /// Near tier: a min-heap over every pending event whose bucket is at
    /// or before `current`. Non-empty whenever the queue is: a pop that
    /// empties it refills it from the far tier.
    near: BinaryHeap<Reverse<Entry>>,
    /// Every pending event, in either tier, plus the free slots.
    slab: Vec<Slot<E>>,
    /// Head of the free-slot list.
    free: u32,
    /// Head of each ring bucket's list: bucket `b` (with
    /// `current < b < current + RING`) lives in `ring[b & RING_MASK]`.
    ring: Box<[u32]>,
    /// Head of the list of events that were `RING` or more buckets ahead
    /// of `current` when they were filed.
    overflow: u32,
    /// The latest bucket the near tier has taken in.
    current: i64,
    /// Events in the far tier (ring and overflow).
    far_len: usize,
    /// Of those, events in the overflow list.
    overflow_len: usize,
    next_seq: u64,
    scheduled: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Bytes of one slab slot holding an `E`: the `u128` key, the list
    /// link and the event, padded to the key's alignment.
    pub const SLOT_BYTES: usize = mem::size_of::<Slot<E>>();

    /// Creates an empty calendar.
    #[must_use]
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty calendar whose slab has room for `cap` pending
    /// events, so a run with a known population (one MA watchdog per
    /// install within α) never reallocates it. The near heap is not
    /// reserved: it holds a few events of the current bucket and grows to
    /// its peak (62 entries over the `sim_sweep` fig03 points) on demand,
    /// where reserving it for `cap` would set aside 32 bytes per pending
    /// event it never holds. The ring is one fixed allocation whatever
    /// `cap` is.
    #[must_use]
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            near: BinaryHeap::new(),
            slab: Vec::with_capacity(cap),
            free: NIL,
            ring: vec![NIL; RING].into_boxed_slice(),
            overflow: NIL,
            current: 0,
            far_len: 0,
            overflow_len: 0,
            next_seq: 0,
            scheduled: 0,
        }
    }

    /// Schedules `event` to fire at `time`.
    pub fn schedule(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.scheduled += 1;
        let key = (u128::from(time.order_bits()) << 64) | u128::from(seq);
        let slot = if self.free == NIL {
            self.slab.push(Slot {
                key,
                next: NIL,
                event: Some(event),
            });
            u32::try_from(self.slab.len() - 1).expect("fewer than 2^32 - 1 pending events")
        } else {
            // Reuse the most recently freed slot (still in cache), in place.
            let i = self.free;
            let slot = &mut self.slab[i as usize];
            self.free = slot.next;
            slot.key = key;
            slot.event = Some(event);
            i
        };
        let bucket = bucket_of(time);
        if self.near.is_empty() {
            // The queue is empty: any bucket may be the current one.
            self.current = bucket;
        }
        self.file(bucket, Entry { key, slot });
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let Reverse(top) = self.near.pop()?;
        if self.near.is_empty() && self.far_len > 0 {
            self.refill();
        }
        let slot = &mut self.slab[top.slot as usize];
        let event = slot.event.take().expect("a queued slot holds its event");
        slot.next = self.free;
        self.free = top.slot;
        Some((key_time(top.key), event))
    }

    /// The time of the earliest pending event, if any.
    #[must_use]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.near.peek().map(|Reverse(top)| key_time(top.key))
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.near.len() + self.far_len
    }

    /// True when no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.near.is_empty()
    }

    /// Total number of events ever scheduled (for diagnostics).
    #[must_use]
    pub fn total_scheduled(&self) -> u64 {
        self.scheduled
    }

    /// How many pending events the slab holds without reallocating (for
    /// diagnostics; the near heap grows on its own, see `with_capacity`).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.slab.capacity()
    }

    /// Number of pending events in the near tier (for diagnostics: the
    /// heap's size is what its choice of structure rests on).
    #[must_use]
    pub fn near_len(&self) -> usize {
        self.near.len()
    }

    /// Files a slotted event of bucket `bucket` into the tier it belongs
    /// to.
    fn file(&mut self, bucket: i64, entry: Entry) {
        if bucket <= self.current {
            self.near.push(Reverse(entry));
            return;
        }
        // `bucket > current`; the difference may exceed `i64::MAX` (±∞
        // saturate), but not `u64::MAX`.
        let next = if (bucket.wrapping_sub(self.current) as u64) < RING as u64 {
            mem::replace(
                &mut self.ring[(bucket as u64 & RING_MASK) as usize],
                entry.slot,
            )
        } else {
            self.overflow_len += 1;
            mem::replace(&mut self.overflow, entry.slot)
        };
        self.slab[entry.slot as usize].next = next;
        self.far_len += 1;
    }

    /// Moves the next non-empty bucket into the (empty) near heap: steps
    /// `current` through the ring, redistributing the overflow list at
    /// each new revolution, or jumps to the overflow's earliest bucket when
    /// the ring is empty.
    fn refill(&mut self) {
        while self.near.is_empty() {
            if self.far_len == self.overflow_len {
                let mut s = self.overflow;
                self.current = i64::MAX;
                while s != NIL {
                    let (entry, next) = self.listed(s);
                    self.current = self.current.min(bucket_of(key_time(entry.key)));
                    s = next;
                }
                self.redistribute();
            } else {
                self.current += 1;
                if self.current as u64 & RING_MASK == 0 {
                    self.redistribute();
                }
            }
            let mut s = mem::replace(
                &mut self.ring[(self.current as u64 & RING_MASK) as usize],
                NIL,
            );
            while s != NIL {
                let (entry, next) = self.listed(s);
                self.far_len -= 1;
                self.near.push(Reverse(entry));
                s = next;
            }
        }
    }

    /// Re-files every overflow event against the current bucket.
    fn redistribute(&mut self) {
        let mut s = mem::replace(&mut self.overflow, NIL);
        self.far_len -= self.overflow_len;
        self.overflow_len = 0;
        while s != NIL {
            let (entry, next) = self.listed(s);
            self.file(bucket_of(key_time(entry.key)), entry);
            s = next;
        }
    }

    /// The heap entry of far-tier slot `s`, and the next slot of its list.
    fn listed(&self, s: u32) -> (Entry, u32) {
        let slot = &self.slab[s as usize];
        (
            Entry {
                key: slot.key,
                slot: s,
            },
            slot.next,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(t(3.0), "c");
        q.schedule(t(1.0), "a");
        q.schedule(t(2.0), "b");
        assert_eq!(q.pop(), Some((t(1.0), "a")));
        assert_eq!(q.pop(), Some((t(2.0), "b")));
        assert_eq!(q.pop(), Some((t(3.0), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(t(1.0), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t(1.0), i)));
        }
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.schedule(t(5.0), ());
        q.schedule(t(4.0), ());
        assert_eq!(q.peek_time(), Some(t(4.0)));
        assert!(!q.is_empty());
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.peek_time(), Some(t(5.0)));
    }

    #[test]
    fn counts_scheduled() {
        let mut q = EventQueue::new();
        q.schedule(t(1.0), ());
        q.schedule(t(2.0), ());
        q.pop();
        assert_eq!(q.total_scheduled(), 2);
    }

    #[test]
    fn with_capacity_never_reallocates_within_budget() {
        let mut q = EventQueue::with_capacity(64);
        let cap = q.capacity();
        assert!(cap >= 64);
        // Descending times all land in the near heap, which grows on
        // demand; ascending ones over 32 s fill ring buckets and the
        // overflow list. Either way every event sits in a slab slot, and
        // the slab keeps its reservation.
        for secs in [|i: i32| 64.0 - f64::from(i), |i: i32| f64::from(i) / 2.0] {
            for i in 0..64 {
                q.schedule(t(secs(i)), i);
            }
            assert_eq!(q.capacity(), cap);
            while q.pop().is_some() {}
            assert_eq!(q.capacity(), cap);
        }
    }
}
