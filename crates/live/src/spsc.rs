//! Bounded lock-free single-producer/single-consumer ring.
//!
//! This is the handoff between a connection's socket-reader thread (the
//! producer) and the quantum executor (the consumer), and the way back
//! for the blocks it carried; the WAL's chunks travel the same way
//! between the executor and the flusher. The executor must
//! never block on — or even contend for — a lock that an ingest thread
//! holds, or a slow client could stall the scheduling core mid-quantum
//! and degrade freshness for every other client (see PAPERS.md,
//! "Lock-based or Lock-less: Which Is Fresh?"). The ring is wait-free on
//! both sides: `push` and `pop` are a bounded number of loads/stores with
//! no CAS loop, no syscall, and no allocation after construction.
//!
//! Layout and ordering:
//!
//! * `head` (consumer cursor) and `tail` (producer cursor) are
//!   monotonically increasing counters on separate cache lines
//!   ([`CachePadded`]), so the producer's stores never invalidate the
//!   line the consumer spins on (and vice versa).
//! * Slot `i` lives at `i & mask` (capacity is a power of two). The
//!   producer writes the slot *before* publishing it with a `Release`
//!   store of `tail`; the consumer `Acquire`-loads `tail`, reads the
//!   slot, then retires it with a `Release` store of `head`. Each side
//!   caches the other's cursor and refreshes only on apparent
//!   full/empty, keeping the steady-state cost to one shared store per
//!   operation.
//! * Counters never wrap in practice (a 64-bit counter at 10 M
//!   updates/s lasts ~58 000 years); `usize` arithmetic is used
//!   directly.
//!
//! The interleaving-sensitive core (cursor publication order, the
//! full/empty edge refreshes) is model-checked offline by
//! `tests/loom_spsc.rs` under `RUSTFLAGS="--cfg loom"`, which swaps the
//! atomics below for the checked `crates/loom` stand-ins. This module is
//! intentionally the only unsafe, *ordering-sensitive* code in the live
//! runtime (the crate's other unsafe is the pair of `signal(2)` FFI
//! registrations in [`crate::signal`] and the CRC-32 kernel in
//! `crc32.rs`) — the crate roots' `#![deny(unsafe_code)]` and the
//! `#![expect(unsafe_code)]` of these three modules pin that claim.

#![expect(
    unsafe_code,
    reason = "the ring hands slots between one producer and one consumer through raw cells"
)]

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::Arc;

#[cfg(loom)]
use loom::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
#[cfg(not(loom))]
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Pads (and aligns) a value to a 64-byte cache line so the producer's
/// and consumer's hot cursors never share a line (no false sharing).
#[repr(align(64))]
#[derive(Debug, Default)]
struct CachePadded<T>(T);

/// One storage cell. `MaybeUninit` keeps vacant slots free of `T`'s
/// invariants; initialisation is tracked by the cursors alone.
struct Slot<T>(UnsafeCell<MaybeUninit<T>>);

/// State shared by the two endpoints.
struct Inner<T> {
    /// Consumer cursor: next position to pop. Equals the number of
    /// elements ever popped.
    head: CachePadded<AtomicUsize>,
    /// Producer cursor: next position to push. Equals the number of
    /// elements ever pushed.
    tail: CachePadded<AtomicUsize>,
    /// Raised when the producer endpoint is dropped.
    closed: CachePadded<AtomicBool>,
    /// `capacity - 1`; capacity is a power of two.
    mask: usize,
    slots: Box<[Slot<T>]>,
}

// SAFETY: SPSC protocol — slot `i` is written only by the single
// producer while vacant (outside `head..tail`) and read only by the
// single consumer after the producer's Release store of `tail` made
// `i < tail` visible (Acquire on the consumer side). Endpoints take
// `&mut self` and are neither `Clone` nor `Sync`, so no slot is ever
// accessed from two threads at once.
unsafe impl<T: Send> Sync for Inner<T> {}
// SAFETY: sending the shared state between threads moves only ownership
// of `T` values (the producer hands them to the consumer), which
// `T: Send` permits.
unsafe impl<T: Send> Send for Inner<T> {}

impl<T> Drop for Inner<T> {
    fn drop(&mut self) {
        // SAFETY-ordering: `Relaxed` is legal here and only here — this
        // is the `relaxed_in = ["Inner::drop"]` context the sync-site
        // registry (`crates/lint/sync_protocol.toml`) declares for the
        // `head`/`tail` publication fields, and D9 flags any other
        // relaxed use. `&mut self` proves both endpoints are gone: the
        // final `Arc` drop that got us here synchronised with every
        // endpoint's last Release operation, so the plain loads cannot
        // race and observe the cursors' final values. Elements in
        // `head..tail` were pushed but never popped and still own a
        // live `T`.
        let head = self.head.0.load(Ordering::Relaxed);
        let tail = self.tail.0.load(Ordering::Relaxed);
        for pos in head..tail {
            let slot = &self.slots[pos & self.mask];
            // SAFETY: positions in `head..tail` hold initialised values
            // (written by push, not yet taken by pop), and nobody else
            // can observe them after this drop.
            unsafe { (*slot.0.get()).assume_init_drop() };
        }
    }
}

/// The write endpoint: owned by exactly one thread (not `Clone`).
pub struct Producer<T> {
    inner: Arc<Inner<T>>,
    /// Local copy of `tail` (only this endpoint advances it).
    ///
    /// SAFETY-ordering: a *plain* field, not an atomic — sound because
    /// `tail` has a single writer (this endpoint) and the shared
    /// `Inner::tail` store in `push` is the Release publication the
    /// registry declares; this copy never needs to observe anyone
    /// else's writes.
    tail: usize,
    /// Last observed `head`; refreshed only when the ring looks full.
    ///
    /// SAFETY-ordering: a stale value is safe in exactly one direction —
    /// it *under*-estimates the consumer's progress, so the ring can
    /// only look more full than it is (spurious `Err(Full)`), never less.
    /// The refresh in `push` is the Acquire load of `Inner::head` the
    /// registry pairs with the consumer's Release store.
    head_cache: usize,
}

/// The read endpoint: owned by exactly one thread (not `Clone`).
pub struct Consumer<T> {
    inner: Arc<Inner<T>>,
    /// Local copy of `head` (only this endpoint advances it).
    ///
    /// SAFETY-ordering: plain single-writer copy, mirror image of
    /// `Producer::tail` — the shared `Inner::head` store in `pop` is the
    /// Release the producer's Acquire load pairs with.
    head: usize,
    /// Last observed `tail`; refreshed only when the ring looks empty.
    ///
    /// SAFETY-ordering: staleness only *under*-estimates the producer's
    /// progress (spurious `None` from `pop`, never a read of an
    /// unpublished slot). The refresh in `pop` is the Acquire load of
    /// `Inner::tail` that synchronises with the producer's Release
    /// store, making the slot write at `head` visible before the read.
    tail_cache: usize,
}

impl<T> std::fmt::Debug for Producer<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("spsc::Producer")
            .field("capacity", &self.capacity())
            .field("pushed", &self.tail)
            .finish()
    }
}

impl<T> std::fmt::Debug for Consumer<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("spsc::Consumer")
            .field("capacity", &(self.inner.mask + 1))
            .field("popped", &self.head)
            .finish()
    }
}

/// Creates a bounded SPSC ring holding at least `capacity` elements
/// (rounded up to the next power of two, minimum 2). All storage is
/// allocated here; `push`/`pop` never allocate.
///
/// # Panics
///
/// Panics when `capacity` cannot be rounded to a power of two that fits
/// in `usize` (unreachable for any sane capacity).
#[must_use]
pub fn ring<T: Send>(capacity: usize) -> (Producer<T>, Consumer<T>) {
    let cap = capacity.max(2).next_power_of_two();
    let slots: Box<[Slot<T>]> = (0..cap)
        .map(|_| Slot(UnsafeCell::new(MaybeUninit::uninit())))
        .collect();
    let inner = Arc::new(Inner {
        head: CachePadded(AtomicUsize::new(0)),
        tail: CachePadded(AtomicUsize::new(0)),
        closed: CachePadded(AtomicBool::new(false)),
        mask: cap - 1,
        slots,
    });
    (
        Producer {
            inner: Arc::clone(&inner),
            tail: 0,
            head_cache: 0,
        },
        Consumer {
            inner,
            head: 0,
            tail_cache: 0,
        },
    )
}

impl<T> Producer<T> {
    /// Ring capacity in elements.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.inner.mask + 1
    }

    /// Attempts to push; returns the value back when the ring is full.
    ///
    /// # Errors
    ///
    /// `Err(value)` when the ring holds `capacity` un-popped elements.
    pub fn push(&mut self, value: T) -> Result<(), T> {
        let tail = self.tail;
        if tail - self.head_cache == self.capacity() {
            self.head_cache = self.inner.head.0.load(Ordering::Acquire);
            if tail - self.head_cache == self.capacity() {
                return Err(value);
            }
        }
        let slot = &self.inner.slots[tail & self.inner.mask];
        // SAFETY: `tail - head <= capacity - 1` was just established, so
        // this slot is vacant (any previous occupant at this index was
        // popped — the consumer advanced `head` past it), and only this
        // single producer writes slots.
        unsafe { (*slot.0.get()).write(value) };
        // Release: publishes the slot write before the new tail becomes
        // visible to the consumer's Acquire load.
        self.inner.tail.0.store(tail + 1, Ordering::Release);
        self.tail = tail + 1;
        Ok(())
    }

    /// Total elements ever pushed through this endpoint.
    #[must_use]
    pub fn pushed(&self) -> u64 {
        self.tail as u64
    }

    /// Total elements the consumer has popped so far (monotonic; the
    /// credit-based flow control in `server.rs` reads this to learn how
    /// much window has freed up).
    #[must_use]
    pub fn consumed(&self) -> u64 {
        self.inner.head.0.load(Ordering::Acquire) as u64
    }

    /// True when every pushed element has been popped.
    #[must_use]
    pub fn is_drained(&self) -> bool {
        self.consumed() == self.pushed()
    }
}

impl<T> Drop for Producer<T> {
    fn drop(&mut self) {
        // Release: pairs with the consumer's Acquire in `is_closed` so a
        // consumer that observes the close also observes every push that
        // preceded it.
        self.inner.closed.0.store(true, Ordering::Release);
    }
}

impl<T> Consumer<T> {
    /// Ring capacity in elements.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.inner.mask + 1
    }

    /// Pops the oldest element, or `None` when the ring is empty.
    pub fn pop(&mut self) -> Option<T> {
        let head = self.head;
        if head == self.tail_cache {
            self.tail_cache = self.inner.tail.0.load(Ordering::Acquire);
            if head == self.tail_cache {
                return None;
            }
        }
        let slot = &self.inner.slots[head & self.inner.mask];
        // SAFETY: `head < tail` was observed through an Acquire load of
        // `tail`, so the producer's Release store — and the slot write
        // before it — happen-before this read; the value is initialised
        // and only this single consumer takes it.
        let value = unsafe { (*slot.0.get()).assume_init_read() };
        // Release: retires the slot before the new head becomes visible
        // to the producer's Acquire load, so the producer never reuses a
        // slot the consumer is still reading.
        self.inner.head.0.store(head + 1, Ordering::Release);
        self.head = head + 1;
        Some(value)
    }

    /// Elements currently queued (exact from the consumer side).
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.tail.0.load(Ordering::Acquire) - self.head
    }

    /// True when no element is queued right now.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when the producer endpoint has been dropped. The ring may
    /// still hold elements; drain with [`Consumer::pop`] first.
    #[must_use]
    pub fn is_closed(&self) -> bool {
        self.inner.closed.0.load(Ordering::Acquire)
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_with_wraparound() {
        let (mut p, mut c) = ring::<u32>(4);
        assert_eq!(p.capacity(), 4);
        // Three full cycles so the indices wrap the 4-slot buffer.
        let mut next_push = 0u32;
        let mut next_pop = 0u32;
        for _ in 0..3 {
            while p.push(next_push).is_ok() {
                next_push += 1;
            }
            while let Some(v) = c.pop() {
                assert_eq!(v, next_pop);
                next_pop += 1;
            }
        }
        assert_eq!(next_push, 12);
        assert_eq!(next_pop, 12);
        assert!(c.is_empty());
        assert!(p.is_drained());
    }

    #[test]
    fn full_ring_rejects_and_recovers() {
        let (mut p, mut c) = ring::<u8>(2);
        assert_eq!(p.push(1), Ok(()));
        assert_eq!(p.push(2), Ok(()));
        assert_eq!(p.push(3), Err(3), "full ring must hand the value back");
        assert_eq!(c.pop(), Some(1));
        assert_eq!(p.push(3), Ok(()), "one pop frees one slot");
        assert_eq!(c.pop(), Some(2));
        assert_eq!(c.pop(), Some(3));
        assert_eq!(c.pop(), None);
    }

    #[test]
    fn counters_feed_the_credit_protocol() {
        let (mut p, mut c) = ring::<u64>(8);
        for i in 0..5 {
            p.push(i).expect("room");
        }
        assert_eq!(p.pushed(), 5);
        assert_eq!(p.consumed(), 0);
        assert_eq!(c.len(), 5);
        for _ in 0..3 {
            c.pop().expect("queued");
        }
        assert_eq!(p.consumed(), 3);
        assert!(!p.is_drained());
        c.pop().expect("queued");
        c.pop().expect("queued");
        assert!(p.is_drained());
    }

    #[test]
    fn close_is_observed_after_the_last_push() {
        let (mut p, mut c) = ring::<u8>(2);
        p.push(7).expect("room");
        assert!(!c.is_closed());
        drop(p);
        assert!(c.is_closed());
        assert_eq!(c.pop(), Some(7), "closing loses nothing already pushed");
        assert_eq!(c.pop(), None);
    }

    #[test]
    fn dropping_the_ring_drops_unpopped_elements_exactly_once() {
        use std::sync::atomic::{AtomicUsize as StdAtomicUsize, Ordering as StdOrdering};
        static DROPS: StdAtomicUsize = StdAtomicUsize::new(0);
        #[derive(Debug)]
        struct Counted;
        impl Drop for Counted {
            fn drop(&mut self) {
                DROPS.fetch_add(1, StdOrdering::SeqCst);
            }
        }
        DROPS.store(0, StdOrdering::SeqCst);
        let (mut p, mut c) = ring::<Counted>(4);
        for _ in 0..3 {
            p.push(Counted).expect("room");
        }
        drop(c.pop()); // one popped and dropped by us
        assert_eq!(DROPS.load(StdOrdering::SeqCst), 1);
        drop(p);
        drop(c); // two still queued: dropped by the ring teardown
        assert_eq!(DROPS.load(StdOrdering::SeqCst), 3);
    }

    #[test]
    fn cross_thread_stream_is_lossless_and_ordered() {
        // Miri interprets ~1000x slower than native: a stream that still
        // wraps the ring twice keeps its run in seconds.
        const N: u64 = if cfg!(miri) { 2_048 } else { 200_000 };
        let (mut p, mut c) = ring::<u64>(1024);
        let producer = std::thread::spawn(move || {
            for i in 0..N {
                let mut v = i;
                while let Err(back) = p.push(v) {
                    v = back;
                    std::hint::spin_loop();
                }
            }
        });
        let mut expect = 0u64;
        while expect < N {
            match c.pop() {
                Some(v) => {
                    assert_eq!(v, expect, "stream reordered or corrupted");
                    expect += 1;
                }
                None => std::hint::spin_loop(),
            }
        }
        producer.join().expect("producer thread");
        assert!(c.is_empty());
    }
}
