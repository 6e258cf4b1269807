//! Property tests of the simulation kernel: event ordering, time-weighted
//! statistics and Welford accumulation against brute-force references.

use proptest::prelude::*;
use strip_sim::event::EventQueue;
use strip_sim::stats::{TimeWeighted, Welford};
use strip_sim::time::SimTime;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The calendar pops events in (time, insertion) order — i.e. it is a
    /// stable sort of the schedule.
    #[test]
    fn event_queue_is_a_stable_sort(times in prop::collection::vec(0u32..1_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &ms) in times.iter().enumerate() {
            q.schedule(SimTime::from_secs(f64::from(ms)), i);
        }
        let mut expect: Vec<(u32, usize)> =
            times.iter().enumerate().map(|(i, &ms)| (ms, i)).collect();
        expect.sort(); // stable-equivalent because the index breaks ties
        let mut got = Vec::new();
        while let Some((t, i)) = q.pop() {
            got.push((t.as_secs() as u32, i));
        }
        prop_assert_eq!(got, expect);
    }

    /// Interleaved schedule/pop sequences never pop out of order once the
    /// clock has advanced (monotone non-decreasing pop times for pending
    /// events scheduled in the future).
    #[test]
    fn event_queue_len_tracks_operations(ops in prop::collection::vec(prop::option::of(0u32..100), 1..300)) {
        let mut q = EventQueue::new();
        let mut expected_len = 0usize;
        for op in ops {
            match op {
                Some(ms) => {
                    q.schedule(SimTime::from_secs(f64::from(ms)), ());
                    expected_len += 1;
                }
                None => {
                    let expect_some = expected_len > 0;
                    let had = q.pop().is_some();
                    prop_assert_eq!(had, expect_some);
                    if had {
                        expected_len -= 1;
                    }
                }
            }
            prop_assert_eq!(q.len(), expected_len);
            prop_assert_eq!(q.is_empty(), expected_len == 0);
        }
    }

    /// TimeWeighted equals a brute-force piecewise integral.
    #[test]
    fn time_weighted_matches_brute_force(
        steps in prop::collection::vec((1u32..100, -50i32..50), 1..80)
    ) {
        let mut tw = TimeWeighted::new(SimTime::ZERO, 0.0);
        let mut t = 0.0f64;
        let mut v = 0.0f64;
        let mut integral = 0.0f64;
        for (dt_ms, val) in steps {
            let dt = f64::from(dt_ms) / 1000.0;
            integral += v * dt;
            t += dt;
            v = f64::from(val);
            tw.set(SimTime::from_secs(t), v);
        }
        let end = t + 0.5;
        integral += v * 0.5;
        let got = tw.integral_through(SimTime::from_secs(end));
        prop_assert!((got - integral).abs() < 1e-9, "got {got}, want {integral}");
        let mean = tw.mean_over(SimTime::ZERO, SimTime::from_secs(end));
        prop_assert!((mean - integral / end).abs() < 1e-9);
    }

    /// Welford mean/variance equal the two-pass computation.
    #[test]
    fn welford_matches_two_pass(xs in prop::collection::vec(-1e3f64..1e3, 2..200)) {
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
        prop_assert!((w.mean() - mean).abs() < 1e-6 * (1.0 + mean.abs()));
        prop_assert!((w.variance() - var).abs() < 1e-6 * (1.0 + var));
        prop_assert_eq!(w.count(), xs.len() as u64);
    }

    /// Merging arbitrary partitions of the data equals sequential pushes.
    #[test]
    fn welford_merge_is_partition_invariant(
        xs in prop::collection::vec(-100f64..100.0, 2..120),
        split in 0usize..120,
    ) {
        let split = split.min(xs.len());
        let mut whole = Welford::new();
        for &x in &xs {
            whole.push(x);
        }
        let mut a = Welford::new();
        let mut b = Welford::new();
        for &x in &xs[..split] {
            a.push(x);
        }
        for &x in &xs[split..] {
            b.push(x);
        }
        a.merge(&b);
        prop_assert_eq!(a.count(), whole.count());
        prop_assert!((a.mean() - whole.mean()).abs() < 1e-9);
        prop_assert!((a.variance() - whole.variance()).abs() < 1e-7);
    }
}
