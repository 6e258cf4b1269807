//! Miri regression tests for the calendar's slab tiers.
//!
//! The calendar itself is safe code (`strip-sim` forbids `unsafe`): the
//! near tier is a `std::collections::BinaryHeap`, and the far tier parks
//! events in slab slots threaded onto ring-bucket, overflow and free
//! lists. The bugs that slab invites — leaks of a parked event, double
//! drops through a reused slot — are what these tests and Miri's leak
//! check catch. They drive the queue through deterministic churn with a
//! drop-counting payload across every tier move (bucket into heap,
//! overflow redistribution, slot reuse, interleaved push/pop), and drop
//! the queue with events still waiting in each tier.
//!
//! CI runs this weekly under `cargo +nightly miri test` (see
//! `.github/workflows/miri.yml`); under plain `cargo test` it still
//! verifies drop-count conservation. The op count shrinks under Miri,
//! which executes ~1000x slower than native.

use std::cell::Cell;
use std::rc::Rc;

use strip_sim::event::EventQueue;
use strip_sim::rng::Xoshiro256pp;
use strip_sim::time::SimTime;

/// Payload that counts its drops; cloning tracks the same counter.
struct DropCounter {
    hits: Rc<Cell<u64>>,
}

impl Drop for DropCounter {
    fn drop(&mut self) {
        self.hits.set(self.hits.get() + 1);
    }
}

fn op_count() -> usize {
    if cfg!(miri) {
        400
    } else {
        20_000
    }
}

#[test]
fn churn_conserves_drops_and_orders_pops() {
    let hits = Rc::new(Cell::new(0u64));
    let mut rng = Xoshiro256pp::seed_from_u64(0x5712_1995);
    let mut q = EventQueue::new();
    let mut scheduled = 0u64;
    let mut popped = 0u64;
    let mut last = SimTime::from_secs(0.0);

    for step in 0..op_count() {
        // Biased toward pushes early, pops late, with mid-heap holes from
        // interleaving; times collide often enough to exercise seq
        // tiebreaks.
        let push = rng.next_below(100) < if step < op_count() / 2 { 70 } else { 30 };
        if push || q.is_empty() {
            // Like a real simulator: schedule at or after the current
            // clock, so pop order must be globally monotone.
            let t = SimTime::from_secs(last.as_secs() + rng.next_below(1000) as f64 / 8.0);
            q.schedule(
                t,
                DropCounter {
                    hits: Rc::clone(&hits),
                },
            );
            scheduled += 1;
        } else {
            let (t, ev) = q.pop().expect("non-empty queue pops");
            assert!(t >= last, "pops must be time-ordered");
            last = t;
            drop(ev);
            popped += 1;
        }
    }
    assert_eq!(hits.get(), popped, "only popped events dropped so far");

    // Drain; every remaining element must drop exactly once.
    while let Some((t, _ev)) = q.pop() {
        assert!(t >= last);
        last = t;
        popped += 1;
    }
    assert_eq!(popped, scheduled);
    assert_eq!(hits.get(), scheduled, "every payload drops exactly once");
}

#[test]
fn dropping_a_loaded_queue_drops_every_payload_once() {
    let hits = Rc::new(Cell::new(0u64));
    let mut rng = Xoshiro256pp::seed_from_u64(7);
    let n = op_count() as u64 / 4;
    let mut q = EventQueue::with_capacity(n as usize);
    for _ in 0..n {
        let t = SimTime::from_secs(rng.next_f64() * 100.0);
        q.schedule(
            t,
            DropCounter {
                hits: Rc::clone(&hits),
            },
        );
    }
    drop(q);
    assert_eq!(hits.get(), n);
}

#[test]
fn events_left_in_every_tier_drop_once() {
    // Times spread over 100 s against a 16 s ring. Popping half of them
    // moves buckets into the heap and, at each new revolution,
    // redistributes the overflow list; the queue is then refilled ahead of
    // the clock and dropped with events waiting in the near heap, in ring
    // buckets and in the overflow list.
    let hits = Rc::new(Cell::new(0u64));
    let mut rng = Xoshiro256pp::seed_from_u64(0x7135);
    let n = op_count() as u64 / 4;
    let mut q = EventQueue::new();
    let mut schedule = |q: &mut EventQueue<DropCounter>, from: f64| {
        let t = SimTime::from_secs(from + rng.next_f64() * 100.0);
        q.schedule(
            t,
            DropCounter {
                hits: Rc::clone(&hits),
            },
        );
    };
    for _ in 0..n {
        schedule(&mut q, 0.0);
    }
    let mut last = SimTime::from_secs(0.0);
    for _ in 0..n / 2 {
        let (t, ev) = q.pop().expect("non-empty queue pops");
        assert!(t >= last, "pops must be time-ordered");
        last = t;
        drop(ev);
    }
    assert!(last.as_secs() > 20.0, "the clock passed a revolution");
    for _ in 0..n / 2 {
        schedule(&mut q, last.as_secs());
    }
    assert_eq!(hits.get(), n / 2);
    assert_eq!(q.len() as u64, n);
    drop(q);
    assert_eq!(hits.get(), n + n / 2, "every payload drops exactly once");
}

#[test]
fn zero_sized_payloads_survive_hole_sifting() {
    // A ZST payload makes every `ptr` arithmetic degenerate; Miri checks
    // the provenance rules still hold.
    let mut rng = Xoshiro256pp::seed_from_u64(99);
    let mut q = EventQueue::new();
    for _ in 0..op_count() / 8 {
        q.schedule(SimTime::from_secs(rng.next_below(64) as f64), ());
    }
    let mut n = 0usize;
    let mut last = SimTime::from_secs(0.0);
    while let Some((t, ())) = q.pop() {
        assert!(t >= last);
        last = t;
        n += 1;
    }
    assert_eq!(n, op_count() / 8);
}
