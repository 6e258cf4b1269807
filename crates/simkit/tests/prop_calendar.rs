//! Differential tests: the four-ary-heap calendar against the seed
//! `BinaryHeap` implementation kept in `reference/`, under arbitrary
//! schedule/pop interleavings.
//!
//! Because both are keyed on the strict total order `(time, seq)`, the two
//! must emit **identical** pop sequences — including FIFO order at exact
//! time ties — for any interleaving.

mod reference;

use proptest::prelude::*;
use strip_sim::event::EventQueue;
use strip_sim::time::SimTime;

#[derive(Debug, Clone)]
enum Op {
    /// Schedule at one of a few coarse times (collisions exercise the FIFO
    /// tie-break).
    Schedule {
        time_ms: u32,
    },
    Pop,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0u32..64).prop_map(|slot| Op::Schedule { time_ms: slot * 250 }),
        2 => Just(Op::Pop),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn quad_heap_matches_seed_binary_heap(
        ops in prop::collection::vec(op_strategy(), 1..400),
    ) {
        let mut quad = EventQueue::new();
        let mut seed = reference::EventQueue::new();
        let mut payload = 0u64;
        for op in ops {
            match op {
                Op::Schedule { time_ms } => {
                    let time = SimTime::from_secs(f64::from(time_ms) / 1000.0);
                    quad.schedule(time, payload);
                    seed.schedule(time, payload);
                    payload += 1;
                }
                Op::Pop => {
                    prop_assert_eq!(quad.peek_time(), seed.peek_time());
                    prop_assert_eq!(quad.pop(), seed.pop());
                }
            }
            prop_assert_eq!(quad.len(), seed.len());
            prop_assert_eq!(quad.is_empty(), seed.is_empty());
            prop_assert_eq!(quad.total_scheduled(), seed.total_scheduled());
        }
        // Drain both: the tails must agree too.
        loop {
            let (a, b) = (quad.pop(), seed.pop());
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn pops_are_globally_time_sorted_with_fifo_ties(
        times in prop::collection::vec(0u32..32, 1..200),
    ) {
        let mut q = EventQueue::with_capacity(times.len());
        for (i, slot) in times.iter().enumerate() {
            q.schedule(SimTime::from_secs(f64::from(*slot)), i as u64);
        }
        let mut popped = Vec::new();
        while let Some((t, i)) = q.pop() {
            popped.push((t, i));
        }
        prop_assert_eq!(popped.len(), times.len());
        // Non-decreasing in time; at equal times, ascending in schedule
        // order (the payload is the insertion index).
        for w in popped.windows(2) {
            prop_assert!(w[0].0 <= w[1].0);
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1);
            }
        }
    }
}

#[test]
fn matches_reference_heap_on_adversarial_interleaving() {
    // Deterministic pseudo-random mix of schedules (with many exact-tie
    // times) and pops; the 4-ary heap must emit the identical sequence
    // as the seed BinaryHeap, including FIFO tie order.
    let mut quad = EventQueue::new();
    let mut oracle = reference::EventQueue::new();
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut rng = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for i in 0..10_000u64 {
        if rng() % 3 != 0 {
            // Coarse times (one of 64 values) force frequent ties.
            let time = SimTime::from_secs((rng() % 64) as f64);
            quad.schedule(time, i);
            oracle.schedule(time, i);
        } else {
            assert_eq!(quad.peek_time(), oracle.peek_time());
            assert_eq!(quad.pop(), oracle.pop());
        }
        assert_eq!(quad.len(), oracle.len());
    }
    loop {
        let (a, b) = (quad.pop(), oracle.pop());
        assert_eq!(a, b);
        if a.is_none() {
            break;
        }
    }
}
