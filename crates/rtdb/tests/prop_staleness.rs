//! Property tests: the event-driven staleness trackers against brute-force
//! oracles that recompute staleness from the full history at every step.

use proptest::prelude::*;
use strip_db::object::{Importance, ViewObjectId};
use strip_db::staleness::{ExpiryWatch, StalenessSpec, StalenessTracker};
use strip_db::update::Update;
use strip_sim::time::SimTime;

#[derive(Debug, Clone)]
enum Ev {
    Receive { obj: u32, gen_ms: u32 },
    Install { obj: u32, gen_ms: u32 },
}

fn ev_strategy() -> impl Strategy<Value = Ev> {
    prop_oneof![
        (0u32..6, 0u32..60_000).prop_map(|(obj, gen_ms)| Ev::Receive { obj, gen_ms }),
        (0u32..6, 0u32..60_000).prop_map(|(obj, gen_ms)| Ev::Install { obj, gen_ms }),
    ]
}

fn t_ms(ms: u32) -> SimTime {
    SimTime::from_secs(f64::from(ms) / 1000.0)
}

/// One step of [`ma_tracker_matches_oracle_under_late_and_repeated_delivery`],
/// `dt` ms after the one before.
#[derive(Debug, Clone)]
enum Step {
    /// A value generated `age` ms ago is installed into the attributes of
    /// `obj` that `mask` covers (two attributes per object).
    Install {
        dt: u32,
        obj: u32,
        age: u32,
        mask: u64,
    },
    /// Every pending watch due by now is delivered; with `again`, each one
    /// that left its object stale is delivered once more at the next poll.
    Poll { dt: u32, again: bool },
}

fn step_strategy() -> impl Strategy<Value = Step> {
    let mask = prop_oneof![Just(0b01u64), Just(0b10u64), Just(Update::COMPLETE)];
    prop_oneof![
        3 => (0u32..1_500, 0u32..4, 0u32..8_000, mask)
            .prop_map(|(dt, obj, age, mask)| Step::Install { dt, obj, age, mask }),
        1 => (0u32..4_000, proptest::bool::ANY).prop_map(|(dt, again)| Step::Poll { dt, again }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// UU tracker: the stale flag equals `max received gen > max installed
    /// gen`, recomputed from scratch.
    #[test]
    fn uu_tracker_matches_history_oracle(
        events in prop::collection::vec(ev_strategy(), 1..150)
    ) {
        let n = 6u32;
        let mut tracker = StalenessTracker::new(
            StalenessSpec::UnappliedUpdate, n, 0, SimTime::ZERO, |_| SimTime::ZERO,
        );
        let mut max_received = vec![0u32; n as usize];
        let mut max_installed = vec![0u32; n as usize];
        let mut version = 0u64;
        for (step, ev) in events.iter().enumerate() {
            let now = t_ms(step as u32 * 10 + 60_000);
            match *ev {
                Ev::Receive { obj, gen_ms } => {
                    tracker.on_receive(ViewObjectId::new(Importance::Low, obj), t_ms(gen_ms), now);
                    let slot = &mut max_received[obj as usize];
                    *slot = (*slot).max(gen_ms);
                }
                Ev::Install { obj, gen_ms } => {
                    version += 1;
                    tracker.on_install(
                        ViewObjectId::new(Importance::Low, obj), t_ms(gen_ms), version, now,
                    );
                    let slot = &mut max_installed[obj as usize];
                    *slot = (*slot).max(gen_ms);
                }
            }
            let mut stale_count = 0.0;
            for obj in 0..n {
                let expect = max_received[obj as usize] > max_installed[obj as usize];
                let got = tracker.is_stale(ViewObjectId::new(Importance::Low, obj));
                prop_assert_eq!(got, expect, "object {} at step {}", obj, step);
                if expect {
                    stale_count += 1.0;
                }
            }
            prop_assert_eq!(tracker.stale_count(Importance::Low), stale_count);
        }
    }

    /// MA tracker: installing values and firing every watchdog in time
    /// order reproduces the timestamp-based oracle at any query time.
    #[test]
    fn ma_tracker_matches_timestamp_oracle(
        installs in prop::collection::vec((0u32..5, 0u32..30_000u32, 1u32..30_000u32), 1..60),
        alpha_ms in 1_000u32..10_000,
    ) {
        let n = 5u32;
        let alpha = f64::from(alpha_ms) / 1000.0;
        let mut tracker = StalenessTracker::new(
            StalenessSpec::MaxAge { alpha }, n, 0, SimTime::ZERO,
            |_| SimTime::ZERO,
        );
        // Fire initial watches and collect pending ones in a time-ordered
        // list, interleaving with installs (sorted by install time).
        let mut watches: Vec<ExpiryWatch> = tracker.initial_watches();
        let mut installs: Vec<(u32, u32, u32)> = installs;
        // Install times strictly increasing: accumulate offsets.
        let mut t_acc = 0u32;
        let mut schedule: Vec<(u32, u32, u32)> = Vec::new(); // (at_ms, obj, gen_ms)
        for (obj, gen_off, dt) in installs.drain(..) {
            t_acc += dt;
            let gen_ms = t_acc.saturating_sub(gen_off);
            schedule.push((t_acc, obj, gen_ms));
        }
        let mut latest_gen = vec![0u32; n as usize]; // oracle: newest installed gen
        let mut version = 0u64;
        let mut i = 0;
        // Event loop: process watches and installs in time order.
        loop {
            let next_watch = watches.iter().map(|w| w.at).min();
            let next_install = schedule.get(i).map(|s| t_ms(s.0));
            let (is_watch, now) = match (next_watch, next_install) {
                (None, None) => break,
                (Some(w), None) => (true, w),
                (None, Some(s)) => (false, s),
                (Some(w), Some(s)) => if w <= s { (true, w) } else { (false, s) },
            };
            if is_watch {
                let idx = watches
                    .iter()
                    .position(|w| w.at == now)
                    .expect("watch present");
                let w = watches.swap_remove(idx);
                tracker.on_expiry(w.object, now);
            } else {
                let (at_ms, obj, gen_ms) = schedule[i];
                i += 1;
                // Only newer generations install (the store's worthiness
                // check guarantees this in the real system).
                if gen_ms > latest_gen[obj as usize] {
                    latest_gen[obj as usize] = gen_ms;
                    version += 1;
                    if let Some(w) = tracker.on_install(
                        ViewObjectId::new(Importance::Low, obj),
                        t_ms(gen_ms),
                        version,
                        t_ms(at_ms),
                    ) {
                        watches.push(w);
                    }
                }
                // Oracle check at this instant for every object. At an age
                // of *exactly* alpha the watchdog convention (stale from
                // the boundary onward) and the strict `>` oracle disagree
                // on a measure-zero instant — skip those ties.
                for o in 0..n {
                    let age_ms = at_ms as i64 - i64::from(latest_gen[o as usize]);
                    if age_ms == i64::from(alpha_ms) {
                        continue;
                    }
                    let expect = age_ms > i64::from(alpha_ms);
                    prop_assert_eq!(
                        tracker.is_stale(ViewObjectId::new(Importance::Low, o)),
                        expect,
                        "object {} at {}ms (gen {}ms, alpha {}ms)",
                        o, at_ms, latest_gen[o as usize], alpha_ms
                    );
                }
            }
        }
    }

    /// MA tracker, delivered the way the live executor delivers: only at
    /// polls, late, after newer installs of the same object, sometimes
    /// twice, with superseded watches re-keyed on the tracker's answer,
    /// and with partial installs that leave the oldest attribute (the
    /// generation MA measures) where it was. After every poll the flags
    /// and the stale count equal the timestamp oracle's.
    #[test]
    fn ma_tracker_matches_oracle_under_late_and_repeated_delivery(
        steps in prop::collection::vec(step_strategy(), 1..120),
        alpha_ms in 1_000u32..5_000,
    ) {
        let n = 4u32;
        let alpha = f64::from(alpha_ms) / 1000.0;
        let obj = |o: u32| ViewObjectId::new(Importance::Low, o);
        let mut tracker = StalenessTracker::new(
            StalenessSpec::MaxAge { alpha }, n, 0, SimTime::ZERO, |_| SimTime::ZERO,
        );
        // Oracle: each object's two attribute generations, in ms. MA
        // measures the oldest.
        let mut attrs = vec![[0i64; 2]; n as usize];
        let oldest = |row: [i64; 2]| SimTime::from_secs(row[0].min(row[1]) as f64 / 1000.0);
        // The executor's timers: at most one pending watch per object,
        // whose bit is set while it is, plus the watches that flagged
        // their object at the last poll, to be delivered once more.
        fn arm(armed: &mut [bool], pending: &mut Vec<ExpiryWatch>, w: ExpiryWatch) {
            if !std::mem::replace(&mut armed[w.object.index as usize], true) {
                pending.push(w);
            }
        }
        let mut armed = vec![false; n as usize];
        let (mut pending, mut repeats) = (Vec::new(), Vec::<ExpiryWatch>::new());
        for w in tracker.initial_watches() {
            arm(&mut armed, &mut pending, w);
        }
        let (mut now_ms, mut version) = (0u32, 0u64);
        for step in &steps {
            match *step {
                Step::Install { dt, obj: o, age, mask } => {
                    now_ms += dt;
                    let gen = i64::from(now_ms) - i64::from(age);
                    let row = &mut attrs[o as usize];
                    let mut advanced = false;
                    for (i, a) in row.iter_mut().enumerate() {
                        if (mask >> i) & 1 == 1 && gen > *a {
                            *a = gen;
                            advanced = true;
                        }
                    }
                    // The store's worthiness check: only an advance installs.
                    if advanced {
                        version += 1;
                        let gen = oldest(*row);
                        if let Some(w) = tracker.on_install(obj(o), gen, version, t_ms(now_ms)) {
                            arm(&mut armed, &mut pending, w);
                        }
                    }
                }
                Step::Poll { dt, again } => {
                    now_ms += dt;
                    let now = t_ms(now_ms);
                    for w in std::mem::take(&mut repeats) {
                        // Whatever it answers, the object's armed watch, if
                        // any, stands for a newer value.
                        let _ = tracker.on_expiry(w.object, now);
                    }
                    pending.retain_mut(|w| {
                        if w.at > now {
                            return true;
                        }
                        let o = w.object.index as usize;
                        match tracker.on_expiry(w.object, now) {
                            Some(later) => {
                                // The superseding value's expiry, still ahead.
                                assert_eq!(later, oldest(attrs[o]) + alpha);
                                assert!(later > now, "{later:?} re-keys {w:?} into the past");
                                w.at = later;
                                true
                            }
                            None => {
                                armed[o] = false;
                                if again {
                                    repeats.push(*w);
                                }
                                false
                            }
                        }
                    });
                    let mut stale_count = Some(0.0);
                    for o in 0..n {
                        let oldest_ms = attrs[o as usize][0].min(attrs[o as usize][1]);
                        let age_ms = i64::from(now_ms) - oldest_ms;
                        if age_ms == i64::from(alpha_ms) {
                            stale_count = None;
                            continue;
                        }
                        let expect = age_ms > i64::from(alpha_ms);
                        prop_assert_eq!(
                            tracker.is_stale(obj(o)),
                            expect,
                            "object {} at {}ms (oldest gen {}ms, alpha {}ms)",
                            o, now_ms, oldest_ms, alpha_ms
                        );
                        stale_count = stale_count.map(|c| c + f64::from(u8::from(expect)));
                    }
                    if let Some(count) = stale_count {
                        prop_assert_eq!(tracker.stale_count(Importance::Low), count);
                    }
                }
            }
        }
    }

    /// fold is always within [0, 1] and matches a direct integral bound.
    #[test]
    fn fold_stays_in_unit_interval(
        events in prop::collection::vec(ev_strategy(), 1..100)
    ) {
        let mut tracker = StalenessTracker::new(
            StalenessSpec::UnappliedUpdate, 4, 4, SimTime::ZERO, |_| SimTime::ZERO,
        );
        for (step, ev) in events.iter().enumerate() {
            let now = t_ms(step as u32 * 7 + 1);
            match *ev {
                Ev::Receive { obj, gen_ms } => tracker.on_receive(
                    ViewObjectId::new(Importance::Low, obj % 4), t_ms(gen_ms), now,
                ),
                Ev::Install { obj, gen_ms } => {
                    tracker.on_install(
                        ViewObjectId::new(Importance::Low, obj % 4), t_ms(gen_ms), 1, now,
                    );
                }
            }
        }
        let end = t_ms(events.len() as u32 * 7 + 100);
        for class in Importance::ALL {
            let f = tracker.fold(class, end);
            prop_assert!((0.0..=1.0).contains(&f), "fold {f}");
        }
    }
}
