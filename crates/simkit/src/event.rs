//! The future-event list.
//!
//! A classic discrete-event simulation calendar: events are popped in
//! non-decreasing time order, with FIFO tie-breaking (two events scheduled
//! for the same instant fire in the order they were scheduled). Stability
//! matters for reproducibility and for modelling conventions such as "the
//! deadline watchdog was armed before the completion event, so at an exact
//! tie the deadline fires first".
//!
//! The calendar is an indexed **four-ary min-heap** keyed on `(time, seq)`.
//! Compared to the `std::collections::BinaryHeap` binary heap it replaces
//! (kept under `tests/reference/` as the pop-order oracle), a 4-ary heap is
//! half as deep, so a sift-down touches half as many cache lines — the right
//! trade for this workload, where almost every processed event schedules a
//! follow-up and the heap is hot in every simulated second. Because
//! `(time, seq)` is a strict total order (`seq` is unique), *any* correct
//! heap pops the exact same sequence, so swapping the structure cannot
//! change simulation results.

use core::mem::ManuallyDrop;
use core::ptr;

use crate::time::SimTime;

/// Order-preserving bijection from the `f64` total order to the `u64`
/// order: the same sign-flip trick `f64::total_cmp` performs on *every*
/// comparison, hoisted so it runs once per `schedule` instead of O(log n)
/// times per sift. Self-inverse up to the final sign toggle — see
/// [`bits_to_secs`].
#[inline]
fn secs_to_bits(secs: f64) -> u64 {
    let b = secs.to_bits() as i64;
    (b ^ (((b >> 63) as u64) >> 1) as i64) as u64 ^ (1 << 63)
}

/// Inverse of [`secs_to_bits`]: the conditional mantissa flip depends only
/// on the (preserved) sign bit, so undoing the sign toggle and re-applying
/// the flip recovers the original bits exactly.
#[inline]
fn bits_to_secs(bits: u64) -> f64 {
    let m = (bits ^ (1 << 63)) as i64;
    f64::from_bits((m ^ (((m >> 63) as u64) >> 1) as i64) as u64)
}

/// An entry in the calendar, keyed by the packed `u128`
/// `time_bits << 64 | seq`: the earliest time pops first and the sequence
/// number breaks ties in scheduling order. Packing the whole key into one
/// integer makes every heap comparison a single branch (or a conditional
/// move inside the child tournament).
struct Entry<E> {
    key: u128,
    event: E,
}

impl<E> Entry<E> {
    #[inline]
    fn time(&self) -> SimTime {
        SimTime::from_secs(bits_to_secs((self.key >> 64) as u64))
    }
}

/// Heap arity: each node has up to four children.
const ARITY: usize = 4;

/// A hole in the heap slice during a sift: the displaced element is held
/// outside the slice, each level costs one move instead of a three-move
/// swap, and the element is written back exactly once on drop. This is the
/// same technique `std::collections::BinaryHeap` uses internally.
///
/// Invariant: `pos` is in bounds and the slot at `pos` is logically empty —
/// reads go through [`Hole::get`] with an index different from `pos`.
struct Hole<'a, T> {
    data: &'a mut [T],
    elt: ManuallyDrop<T>,
    pos: usize,
}

impl<'a, T> Hole<'a, T> {
    /// Opens a hole at `pos`.
    ///
    /// # Safety
    /// `pos` must be in bounds of `data`.
    unsafe fn new(data: &'a mut [T], pos: usize) -> Self {
        debug_assert!(pos < data.len());
        // SAFETY: caller guarantees `pos` is in bounds; the slot is treated
        // as empty until drop writes `elt` back.
        let elt = unsafe { ptr::read(data.get_unchecked(pos)) };
        Hole {
            data,
            elt: ManuallyDrop::new(elt),
            pos,
        }
    }

    /// The element removed from the hole.
    #[inline]
    fn element(&self) -> &T {
        &self.elt
    }

    /// Reads the element at `index`.
    ///
    /// # Safety
    /// `index` must be in bounds and different from the hole position.
    #[inline]
    unsafe fn get(&self, index: usize) -> &T {
        debug_assert!(index != self.pos && index < self.data.len());
        // SAFETY: caller guarantees the index is in bounds and occupied.
        unsafe { self.data.get_unchecked(index) }
    }

    /// Reads the element at `index` through the normal bounds check. The
    /// cold partial-last-level scan is not performance-critical, so it
    /// pays the checked access and carries no safety contract.
    #[inline]
    fn get_checked(&self, index: usize) -> &T {
        debug_assert!(index != self.pos);
        &self.data[index]
    }

    /// Moves the element at `index` into the hole; the hole moves to `index`.
    ///
    /// # Safety
    /// `index` must be in bounds and different from the hole position.
    #[inline]
    unsafe fn move_to(&mut self, index: usize) {
        debug_assert!(index != self.pos && index < self.data.len());
        // SAFETY: source and destination are distinct in-bounds slots.
        unsafe {
            let ptr = self.data.as_mut_ptr();
            ptr::copy_nonoverlapping(ptr.add(index), ptr.add(self.pos), 1);
        }
        self.pos = index;
    }
}

impl<T> Drop for Hole<'_, T> {
    fn drop(&mut self) {
        // Fill the hole with the held element.
        // SAFETY: `pos` is in bounds and its slot is logically empty.
        unsafe {
            let pos = self.pos;
            ptr::copy_nonoverlapping(&*self.elt, self.data.get_unchecked_mut(pos), 1);
        }
    }
}

/// A future-event list holding events of type `E`.
pub struct EventQueue<E> {
    entries: Vec<Entry<E>>,
    next_seq: u64,
    scheduled: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty calendar.
    #[must_use]
    pub fn new() -> Self {
        EventQueue {
            entries: Vec::new(),
            next_seq: 0,
            scheduled: 0,
        }
    }

    /// Creates an empty calendar with room for `cap` events, so a run with
    /// a known population (e.g. one watchdog per view object) never
    /// reallocates.
    #[must_use]
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            entries: Vec::with_capacity(cap),
            next_seq: 0,
            scheduled: 0,
        }
    }

    /// Schedules `event` to fire at `time`.
    pub fn schedule(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.scheduled += 1;
        self.entries.push(Entry {
            key: (u128::from(secs_to_bits(time.as_secs())) << 64) | u128::from(seq),
            event,
        });
        self.sift_up(self.entries.len() - 1);
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let mut entry = self.entries.pop()?;
        if !self.entries.is_empty() {
            core::mem::swap(&mut entry, &mut self.entries[0]);
            self.sift_down_to_bottom(0);
        }
        Some((entry.time(), entry.event))
    }

    /// The time of the earliest pending event, if any.
    #[must_use]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.entries.first().map(Entry::time)
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total number of events ever scheduled (for diagnostics).
    #[must_use]
    pub fn total_scheduled(&self) -> u64 {
        self.scheduled
    }

    /// Allocated capacity of the backing storage (for diagnostics).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.entries.capacity()
    }

    fn sift_up(&mut self, pos: usize) {
        // SAFETY: callers pass an in-bounds index (the just-pushed slot);
        // parent indices of in-bounds nodes are in bounds and never equal
        // the hole position.
        unsafe {
            let mut hole = Hole::new(&mut self.entries, pos);
            while hole.pos > 0 {
                let parent = (hole.pos - 1) / ARITY;
                if hole.get(parent).key <= hole.element().key {
                    break;
                }
                hole.move_to(parent);
            }
        }
    }

    /// Restores the heap after a pop replaced the root with the (former)
    /// last element: the hole is driven straight to a leaf along the
    /// smallest-child path — *without* comparing the displaced element at
    /// each level — and the element is then bubbled back up from there.
    /// Because the displaced element came from the bottom of the heap, it
    /// almost always belongs near a leaf, so skipping the per-level element
    /// comparison saves a quarter of the comparisons on the hot pop path
    /// (the same "bounce" strategy `BinaryHeap::pop` uses).
    fn sift_down_to_bottom(&mut self, pos: usize) {
        let n = self.entries.len();
        // SAFETY: callers pass an in-bounds index; child indices are checked
        // against `n` before use and are strictly greater than the hole
        // position, and the bubble-up phase only revisits ancestors of the
        // leaf the hole reached.
        unsafe {
            let mut hole = Hole::new(&mut self.entries, pos);
            loop {
                let first = hole.pos * ARITY + 1;
                if first + ARITY <= n {
                    // All four children exist (the common case everywhere
                    // above the last level): a balanced tournament, which
                    // the optimiser lowers to conditional moves instead of
                    // a chain of mispredictable branches.
                    let k0 = hole.get(first).key;
                    let k1 = hole.get(first + 1).key;
                    let k2 = hole.get(first + 2).key;
                    let k3 = hole.get(first + 3).key;
                    let (ia, ka) = if k1 < k0 {
                        (first + 1, k1)
                    } else {
                        (first, k0)
                    };
                    let (ib, kb) = if k3 < k2 {
                        (first + 3, k3)
                    } else {
                        (first + 2, k2)
                    };
                    hole.move_to(if kb < ka { ib } else { ia });
                } else {
                    if first >= n {
                        break;
                    }
                    // Partial last level: linear scan over the 1–3 leaves,
                    // through the safe checked accessor — this runs at most
                    // once per pop, so the bounds checks are free noise.
                    let mut best = first;
                    let mut best_key = hole.get_checked(first).key;
                    for c in first + 1..n {
                        let key = hole.get_checked(c).key;
                        if key < best_key {
                            best = c;
                            best_key = key;
                        }
                    }
                    hole.move_to(best);
                    break;
                }
            }
            while hole.pos > pos {
                let parent = (hole.pos - 1) / ARITY;
                if hole.get(parent).key <= hole.element().key {
                    break;
                }
                hole.move_to(parent);
            }
        }
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
        for i in 0..64 {
            q.schedule(t(64.0 - i as f64), i);
        }
        assert_eq!(q.capacity(), cap);
        while q.pop().is_some() {}
        assert_eq!(q.capacity(), cap);
    }
}
