//! Differential tests: the two-tier calendar against the seed
//! `BinaryHeap` implementation kept in `reference/`, under arbitrary
//! schedule/pop interleavings.
//!
//! Because both are keyed on the strict total order `(time, seq)`, the two
//! must emit **identical** pop sequences — including FIFO order at exact
//! time ties — for any interleaving. The time mixes below aim at the
//! tiers' edges: one bucket holding everything, times far beyond the ring
//! (overflow and its redistribution), negative and infinite times, spreads
//! far below a bucket's width, and schedules earlier than events already
//! popped.

mod reference;

use proptest::prelude::*;
use strip_sim::event::EventQueue;
use strip_sim::rng::Xoshiro256pp;
use strip_sim::time::SimTime;

/// One step of a calendar workout.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Schedule at an absolute time (seconds).
    At(f64),
    /// Schedule relative to the last popped time (may be earlier).
    AfterLast(f64),
    Pop,
}

/// Runs `steps` on the calendar and on the seed oracle side by side: every
/// pop, peek, length and scheduled count must agree, and so must the
/// drained tails.
fn replay(steps: &[Step]) {
    let mut cal = EventQueue::new();
    let mut oracle = reference::EventQueue::new();
    let mut last = 0.0;
    for (payload, step) in steps.iter().enumerate() {
        let at = match *step {
            Step::At(secs) => Some(secs),
            Step::AfterLast(offset) => Some(last + offset),
            Step::Pop => None,
        };
        if let Some(secs) = at {
            let time = SimTime::from_secs(secs);
            cal.schedule(time, payload);
            oracle.schedule(time, payload);
        } else {
            assert_eq!(cal.peek_time(), oracle.peek_time());
            let popped = cal.pop();
            assert_eq!(popped, oracle.pop());
            if let Some((t, _)) = popped {
                last = t.as_secs();
            }
        }
        assert_eq!(cal.len(), oracle.len());
        assert_eq!(cal.is_empty(), oracle.is_empty());
        assert_eq!(cal.total_scheduled(), oracle.total_scheduled());
    }
    loop {
        assert_eq!(cal.peek_time(), oracle.peek_time());
        let (a, b) = (cal.pop(), oracle.pop());
        assert_eq!(a, b);
        assert_eq!(cal.len(), oracle.len());
        if a.is_none() {
            break;
        }
    }
}

/// Steps that schedule at times drawn from `times`, popping two times in
/// five.
fn steps(times: impl Strategy<Value = f64> + 'static) -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec(
        prop_oneof![3 => times.prop_map(Step::At), 2 => Just(Step::Pop)],
        1..400,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn all_tie_times_pop_fifo(steps in steps(Just(7.25))) {
        replay(&steps);
    }

    #[test]
    fn times_far_beyond_the_ring(steps in steps(0.0..1e6)) {
        // 1e6 s is ~60 000 revolutions of the 16 s ring: nearly every
        // event waits in the overflow list and is redistributed.
        replay(&steps);
    }

    #[test]
    fn negative_and_infinite_times(steps in steps(prop_oneof![
        Just(f64::NEG_INFINITY),
        Just(f64::INFINITY),
        Just(-0.0),
        Just(0.0),
        -20.0..20.0,
        -1e12..-1e3,
        1e15..1e18,
        (-4i32..4).prop_map(|k| f64::from(k) / 128.0),
    ])) {
        replay(&steps);
    }

    #[test]
    fn sub_nanosecond_spreads_inside_one_bucket(
        steps in steps((0u32..1_000).prop_map(|k| 5.0 + f64::from(k) * 1e-12)),
    ) {
        replay(&steps);
    }

    #[test]
    fn schedules_earlier_than_popped_times(steps in prop::collection::vec(
        prop_oneof![
            3 => (-30.0..30.0).prop_map(Step::AfterLast),
            1 => (0.0..60.0).prop_map(Step::At),
            3 => Just(Step::Pop),
        ],
        1..400,
    )) {
        replay(&steps);
    }

    #[test]
    fn quad_heap_matches_seed_binary_heap(
        // One of 64 coarse times: collisions exercise the FIFO tie-break.
        steps in steps((0u32..64).prop_map(|slot| f64::from(slot * 250) / 1000.0)),
    ) {
        replay(&steps);
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
fn matches_reference_on_the_simulators_delay_mix() {
    // What the controller schedules at the paper's baseline: an update
    // arrival every 2.5 ms on average, a 0.48 ms install after each, a
    // transaction every 100 ms with a deadline ≈ 0.2–1.2 s out, and an MA
    // watchdog α = 7 s after every install — always at or after the
    // current time, as the engine schedules.
    let mut cal = EventQueue::new();
    let mut oracle = reference::EventQueue::new();
    let mut rng = Xoshiro256pp::seed_from_u64(0x5712_1995);
    let mut exp = |mean: f64| -mean * rng.next_f64_open_zero().ln();
    let mut follow_ups = vec![(0.0, 0u8), (0.0, 1)];
    for id in 0..200_000u64 {
        for (at, kind) in follow_ups.drain(..) {
            let time = SimTime::from_secs(at);
            cal.schedule(time, (kind, id));
            oracle.schedule(time, (kind, id));
        }
        assert_eq!(cal.peek_time(), oracle.peek_time());
        let popped = cal.pop();
        assert_eq!(popped, oracle.pop());
        assert_eq!(cal.len(), oracle.len());
        let Some((now, (kind, _))) = popped else {
            break;
        };
        let now = now.as_secs();
        match kind {
            // Update arrival: the next one, and an install.
            0 => follow_ups.extend([(now + exp(0.0025), 0), (now + 0.000_48, 2)]),
            // Transaction arrival: the next one, and its deadline.
            1 => follow_ups.extend([(now + exp(0.1), 1), (now + 0.22 + exp(0.4), 3)]),
            // Install done: its watchdog.
            2 => follow_ups.push((now + 7.0, 4)),
            _ => {}
        }
    }
    assert!(cal.len() > 2_000, "the watchdogs pile up: {}", cal.len());
}

#[test]
fn matches_reference_heap_on_adversarial_interleaving() {
    // Deterministic pseudo-random mix of schedules (with many exact-tie
    // times) and pops; the calendar must emit the identical sequence as
    // the seed BinaryHeap, including FIFO tie order.
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut rng = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let steps: Vec<Step> = (0..10_000)
        .map(|_| {
            if rng() % 3 != 0 {
                // Coarse times (one of 64 values) force frequent ties.
                Step::At((rng() % 64) as f64)
            } else {
                Step::Pop
            }
        })
        .collect();
    replay(&steps);
}
