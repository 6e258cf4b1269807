//! Differential tests: the slab-backed update queue against two oracles
//! that share no code with it — a brute-force `Vec` model and the seed
//! `BTreeMap` implementation kept in `reference/` — under arbitrary
//! operation sequences. Generation times include both zeros: they are
//! equal `SimTime`s, so only the sequence number may order them.

mod reference;

use proptest::prelude::*;
use reference::ReferenceUpdateQueue;
use strip_db::object::{Importance, ViewObjectId};
use strip_db::update::Update;
use strip_db::update_queue::UpdateQueue;
use strip_sim::time::SimTime;

/// Operations exercised against both implementations.
#[derive(Debug, Clone)]
enum Op {
    Insert { obj: u32, gen: f64 },
    PopOldest,
    PopNewest,
    DiscardExpired { now_ms: u32, alpha_ms: u32 },
    TakeNewestFor { obj: u32 },
}

/// Generation times in seconds: a millisecond grid over 10 s, and both
/// zeros.
fn gen_strategy() -> impl Strategy<Value = f64> {
    prop_oneof![
        8 => (0u32..10_000).prop_map(|ms| f64::from(ms) / 1000.0),
        1 => Just(-0.0),
        1 => Just(0.0),
    ]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0u32..20, gen_strategy()).prop_map(|(obj, gen)| Op::Insert { obj, gen }),
        2 => Just(Op::PopOldest),
        2 => Just(Op::PopNewest),
        1 => (0u32..12_000, 100u32..5_000)
            .prop_map(|(now_ms, alpha_ms)| Op::DiscardExpired { now_ms, alpha_ms }),
        2 => (0u32..20).prop_map(|obj| Op::TakeNewestFor { obj }),
    ]
}

/// Brute-force reference: a plain vector of updates.
#[derive(Default)]
struct Model {
    items: Vec<Update>,
}

impl Model {
    fn key(u: &Update) -> (SimTime, u64) {
        (u.generation_ts, u.seq)
    }

    fn insert(&mut self, u: Update, cap: usize, dedup: bool) {
        if dedup {
            let new_key = Self::key(&u);
            // A newer (or equal) same-object update supersedes the arrival.
            if self
                .items
                .iter()
                .any(|e| e.object == u.object && Self::key(e) >= new_key)
            {
                return;
            }
            self.items
                .retain(|e| e.object != u.object || Self::key(e) >= new_key);
        }
        self.items.push(u);
        if self.items.len() > cap {
            let oldest = self.items.iter().map(Self::key).min().expect("non-empty");
            self.items.retain(|e| Self::key(e) != oldest);
        }
    }

    fn pop_oldest(&mut self) -> Option<Update> {
        let key = self.items.iter().map(Self::key).min()?;
        let idx = self.items.iter().position(|e| Self::key(e) == key)?;
        Some(self.items.remove(idx))
    }

    fn pop_newest(&mut self) -> Option<Update> {
        let key = self.items.iter().map(Self::key).max()?;
        let idx = self.items.iter().position(|e| Self::key(e) == key)?;
        Some(self.items.remove(idx))
    }

    fn discard_expired(&mut self, now: SimTime, alpha: f64) -> usize {
        let before = self.items.len();
        // The MA rule: stale from generation + alpha on.
        self.items.retain(|e| e.generation_ts + alpha > now);
        before - self.items.len()
    }

    fn take_newest_for(&mut self, obj: ViewObjectId) -> Option<Update> {
        let key = self
            .items
            .iter()
            .filter(|e| e.object == obj)
            .map(Self::key)
            .max()?;
        let idx = self.items.iter().position(|e| Self::key(e) == key)?;
        Some(self.items.remove(idx))
    }
}

fn mk_update(seq: u64, obj: u32, gen: f64) -> Update {
    Update {
        seq,
        object: ViewObjectId::new(Importance::Low, obj),
        generation_ts: SimTime::from_secs(gen),
        arrival_ts: SimTime::from_secs(gen + 0.05),
        payload: f64::from(seq as u32),
        attr_mask: Update::COMPLETE,
    }
}

fn run_ops(ops: Vec<Op>, cap: usize, dedup: bool) {
    let mut q = UpdateQueue::new(cap, dedup);
    let mut model = Model::default();
    let mut seq = 0u64;
    for op in ops {
        match op {
            Op::Insert { obj, gen } => {
                let u = mk_update(seq, obj, gen);
                seq += 1;
                q.insert(u);
                model.insert(u, cap, dedup);
            }
            Op::PopOldest => {
                assert_eq!(q.pop_oldest(), model.pop_oldest());
            }
            Op::PopNewest => {
                assert_eq!(q.pop_newest(), model.pop_newest());
            }
            Op::DiscardExpired { now_ms, alpha_ms } => {
                let now = SimTime::from_secs(f64::from(now_ms) / 1000.0);
                let alpha = f64::from(alpha_ms) / 1000.0;
                let got = q.discard_expired(now, alpha);
                let want = model.discard_expired(now, alpha);
                assert_eq!(got, want, "expiry discard count");
            }
            Op::TakeNewestFor { obj } => {
                let id = ViewObjectId::new(Importance::Low, obj);
                assert_eq!(q.take_newest_for(id), model.take_newest_for(id));
            }
        }
        assert_eq!(q.len(), model.items.len());
        assert!(q.len() <= cap);
        assert!(q.check_invariants(), "index/map divergence");
        // Queue iteration must be generation-sorted.
        let gens: Vec<_> = q.iter().map(|u| (u.generation_ts, u.seq)).collect();
        let mut sorted = gens.clone();
        sorted.sort();
        assert_eq!(gens, sorted);
    }
}

/// Operations for the slab-vs-seed equivalence test: everything [`Op`]
/// covers plus class-qualified objects, hot-first service, and per-object
/// drain interleavings.
#[derive(Debug, Clone)]
enum XOp {
    Insert { obj: u32, high: bool, gen: f64 },
    PopOldest,
    PopNewest,
    DiscardExpired { now_ms: u32, alpha_ms: u32 },
    TakeNewestFor { obj: u32, high: bool },
    DrainObject { obj: u32, high: bool },
    PopHottest { salt: u64 },
}

fn xop_strategy() -> impl Strategy<Value = XOp> {
    let id = || (0u32..12, proptest::bool::ANY);
    prop_oneof![
        5 => (id(), gen_strategy())
            .prop_map(|((obj, high), gen)| XOp::Insert { obj, high, gen }),
        2 => Just(XOp::PopOldest),
        2 => Just(XOp::PopNewest),
        1 => (0u32..12_000, 100u32..5_000)
            .prop_map(|(now_ms, alpha_ms)| XOp::DiscardExpired { now_ms, alpha_ms }),
        2 => id().prop_map(|(obj, high)| XOp::TakeNewestFor { obj, high }),
        1 => id().prop_map(|(obj, high)| XOp::DrainObject { obj, high }),
        1 => (0u64..u64::MAX).prop_map(|salt| XOp::PopHottest { salt }),
    ]
}

fn vid(obj: u32, high: bool) -> ViewObjectId {
    let class = if high {
        Importance::High
    } else {
        Importance::Low
    };
    ViewObjectId::new(class, obj)
}

/// Drives the slab queue and the seed `BTreeMap` implementation through the
/// same operation sequence, asserting identical observable behaviour after
/// every step. Returns how often the slab's tombstones, having reached its
/// live entries, were cleared (the compaction threshold crossed).
fn run_xops(ops: Vec<XOp>, cap: usize, dedup: bool) -> usize {
    let mut slab = UpdateQueue::new(cap, dedup);
    let mut seed = ReferenceUpdateQueue::new(cap, dedup);
    let mut seq = 0u64;
    let mut crossings = 0;
    for op in ops {
        let (tombs, live) = (slab.tombstones(), slab.len());
        match op {
            XOp::Insert { obj, high, gen } => {
                let u = Update {
                    object: vid(obj, high),
                    ..mk_update(seq, obj, gen)
                };
                seq += 1;
                prop_assert_eq!(slab.insert(u), seed.insert(u));
            }
            XOp::PopOldest => prop_assert_eq!(slab.pop_oldest(), seed.pop_oldest()),
            XOp::PopNewest => prop_assert_eq!(slab.pop_newest(), seed.pop_newest()),
            XOp::DiscardExpired { now_ms, alpha_ms } => {
                let now = SimTime::from_secs(f64::from(now_ms) / 1000.0);
                let alpha = f64::from(alpha_ms) / 1000.0;
                prop_assert_eq!(
                    slab.discard_expired(now, alpha),
                    seed.discard_expired(now, alpha)
                );
            }
            XOp::TakeNewestFor { obj, high } => {
                let id = vid(obj, high);
                prop_assert_eq!(slab.newest_for(id).copied(), seed.newest_for(id).copied());
                prop_assert_eq!(slab.take_newest_for(id), seed.take_newest_for(id));
            }
            XOp::DrainObject { obj, high } => {
                // Interleaved per-object drain: empty one object's chain
                // while the rest of the queue stays live.
                let id = vid(obj, high);
                loop {
                    let (a, b) = (slab.take_newest_for(id), seed.take_newest_for(id));
                    prop_assert_eq!(a, b);
                    if a.is_none() {
                        break;
                    }
                }
                prop_assert!(!slab.has_pending_for(id));
                prop_assert!(!seed.has_pending_for(id));
            }
            XOp::PopHottest { salt } => {
                // A salted pseudo-score: arbitrary but identical for both
                // sides, with deliberate collisions (mod 4) to exercise the
                // smaller-id tie-break.
                let score = move |id: ViewObjectId| (u64::from(id.index) ^ salt) % 4;
                prop_assert_eq!(slab.pop_hottest(score), seed.pop_hottest(score));
            }
        }
        prop_assert_eq!(slab.len(), seed.len());
        prop_assert_eq!(slab.is_empty(), seed.is_empty());
        prop_assert_eq!(slab.capacity(), seed.capacity());
        prop_assert!(
            slab.iter().eq(seed.iter()),
            "generation-order iteration diverged"
        );
        prop_assert_eq!(slab.overflow_dropped(), seed.overflow_dropped());
        prop_assert_eq!(slab.expired_dropped(), seed.expired_dropped());
        prop_assert_eq!(slab.dedup_dropped(), seed.dedup_dropped());
        prop_assert!(slab.check_invariants());
        if tombs > 0 && tombs + 1 >= live && slab.tombstones() == 0 {
            crossings += 1;
        }
    }
    crossings
}

/// A long run of `n` operations over `objects` objects per class, drawn
/// from a seeded xorshift in phases of 100–600 operations: *fill* (mostly
/// inserts), *hollow* (mostly removals of an object's newest update, which
/// sits anywhere in the generation order, so tombstones build up to the
/// compaction threshold) and *drain* (both ends and MA expiry).
/// Generations trail a clock that advances 1 ms per insert, nearly sorted
/// as the simulator's streams are, with stragglers up to 5 s late and both
/// zeros.
fn phased_ops(seed: u64, n: usize, objects: u32) -> Vec<XOp> {
    let mut state = seed | 1;
    let mut rng = move |bound: u32| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % u64::from(bound)) as u32
    };
    let mut ops = Vec::with_capacity(n);
    let mut clock_ms = 0u32;
    while ops.len() < n {
        let phase = rng(3);
        for _ in 0..100 + rng(500) {
            let (obj, high) = (rng(objects), rng(2) == 1);
            let roll = rng(100);
            let op = match (phase, roll) {
                (1, 0..70) => XOp::TakeNewestFor { obj, high },
                (1, 70..74) => XOp::DrainObject { obj, high },
                (1, 74..76) => XOp::PopHottest {
                    salt: u64::from(rng(u32::MAX)),
                },
                (2, 0..40) => XOp::PopOldest,
                (2, 40..80) => XOp::PopNewest,
                (2, 80..84) => XOp::DiscardExpired {
                    now_ms: clock_ms,
                    alpha_ms: 1_000 + rng(20_000),
                },
                (0, 85..) => XOp::PopOldest,
                _ => {
                    clock_ms += 1;
                    let gen = match rng(50) {
                        0 => -0.0,
                        1 => 0.0,
                        2..5 => f64::from(clock_ms - rng(clock_ms.min(5_000) + 1)) / 1000.0,
                        _ => f64::from(clock_ms - rng(clock_ms.min(50) + 1)) / 1000.0,
                    };
                    XOp::Insert { obj, high, gen }
                }
            };
            ops.push(op);
        }
    }
    ops.truncate(n);
    ops
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn queue_matches_model_plain(ops in prop::collection::vec(op_strategy(), 1..120), cap in 1usize..40) {
        run_ops(ops, cap, false);
    }

    #[test]
    fn slab_matches_seed_btreemap_plain(
        ops in prop::collection::vec(xop_strategy(), 1..160),
        cap in 1usize..48,
    ) {
        run_xops(ops, cap, false);
    }

    #[test]
    fn slab_matches_seed_btreemap_dedup(
        ops in prop::collection::vec(xop_strategy(), 1..160),
        cap in 1usize..48,
    ) {
        run_xops(ops, cap, true);
    }

    #[test]
    fn queue_matches_model_dedup(ops in prop::collection::vec(op_strategy(), 1..120), cap in 1usize..40) {
        run_ops(ops, cap, true);
    }

    #[test]
    fn dedup_holds_at_most_one_update_per_object(
        inserts in prop::collection::vec((0u32..10, gen_strategy()), 1..200)
    ) {
        let mut q = UpdateQueue::new(1_000, true);
        for (i, (obj, gen)) in inserts.into_iter().enumerate() {
            q.insert(mk_update(i as u64, obj, gen));
        }
        #[allow(clippy::disallowed_types, reason = "a membership check; never iterated")]
        let mut seen = std::collections::HashSet::new();
        for u in q.iter() {
            assert!(seen.insert(u.object), "duplicate pending update for {:?}", u.object);
        }
        assert!(q.len() <= 10);
    }

    #[test]
    fn newest_for_agrees_with_iteration(
        inserts in prop::collection::vec((0u32..8, gen_strategy()), 1..100)
    ) {
        let mut q = UpdateQueue::new(1_000, false);
        for (i, (obj, gen)) in inserts.into_iter().enumerate() {
            q.insert(mk_update(i as u64, obj, gen));
        }
        for obj in 0..8u32 {
            let id = ViewObjectId::new(Importance::Low, obj);
            let expect = q
                .iter()
                .filter(|u| u.object == id)
                .max_by_key(|u| (u.generation_ts, u.seq))
                .copied();
            assert_eq!(q.newest_for(id).copied(), expect);
            assert_eq!(q.has_pending_for(id), expect.is_some());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn long_phased_runs_match_seed_btreemap(
        seed in 0u64..u64::MAX,
        n in 2_000usize..2_400,
        cap in 1usize..3_000,
        objects in 1u32..400,
        dedup in proptest::bool::ANY,
    ) {
        run_xops(phased_ops(seed, n, objects), cap, dedup);
    }
}

/// The oracle itself: the seed implementation keeps the seed semantics.
#[test]
fn reference_keeps_seed_semantics() {
    let mut q = ReferenceUpdateQueue::new(2, true);
    q.insert(mk_update(0, 1, 1.0));
    let out = q.insert(mk_update(1, 1, 2.0));
    assert_eq!(out.deduped, 1);
    assert_eq!(q.len(), 1);
    q.insert(mk_update(2, 2, 3.0));
    let out = q.insert(mk_update(3, 3, 4.0));
    assert_eq!(out.displaced.unwrap().seq, 1);
    assert_eq!(q.pop_oldest().unwrap().seq, 2);
    assert_eq!(q.pop_newest().unwrap().seq, 3);
    assert!(q.is_empty());
}

#[test]
fn matches_reference_on_mixed_workload() {
    // Deterministic pseudo-random interleaving of every operation,
    // checked step by step against the seed implementation.
    let t = SimTime::from_secs;
    let mut slab = UpdateQueue::new(8, true);
    let mut oracle = ReferenceUpdateQueue::new(8, true);
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let mut rng = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for seq in 0..4_000u64 {
        let r = rng();
        let obj = vid(((r >> 1) % 6) as u32, r & 1 != 0);
        let gen = (rng() % 1_000) as f64 * 0.1;
        match rng() % 6 {
            0 | 1 => {
                let u = Update {
                    seq,
                    object: obj,
                    generation_ts: t(gen),
                    arrival_ts: t(gen + 0.05),
                    payload: seq as f64,
                    attr_mask: Update::COMPLETE,
                };
                assert_eq!(slab.insert(u), oracle.insert(u));
            }
            2 => assert_eq!(slab.pop_oldest(), oracle.pop_oldest()),
            3 => assert_eq!(slab.pop_newest(), oracle.pop_newest()),
            4 => assert_eq!(slab.take_newest_for(obj), oracle.take_newest_for(obj)),
            _ => assert_eq!(
                slab.discard_expired(t(gen), 20.0),
                oracle.discard_expired(t(gen), 20.0)
            ),
        }
        assert_eq!(slab.len(), oracle.len());
    }
    assert!(slab.check_invariants());
    assert!(slab.iter().eq(oracle.iter()));
}

#[test]
fn long_runs_cross_the_compaction_threshold_repeatedly() {
    // The phased runs above with capacity 3 000 over 20 objects a class,
    // so a hollow phase reaches most queued objects: every run must clear
    // a full load of tombstones several times, with and without dedup,
    // and still match the seed implementation step by step.
    for dedup in [false, true] {
        for seed in 1..=3u64 {
            let crossings = run_xops(phased_ops(seed, 3_000, 20), 3_000, dedup);
            assert!(
                crossings >= 3,
                "seed {seed}, dedup {dedup}: compaction threshold crossed {crossings} times"
            );
        }
    }
}
