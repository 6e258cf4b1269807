//! Differential tests: the slab-backed update queue against two oracles
//! that share no code with it — a brute-force `Vec` model and the seed
//! `BTreeMap` implementation kept in `reference/` — under arbitrary
//! operation sequences.

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
    Insert { obj: u32, gen_ms: u32 },
    PopOldest,
    PopNewest,
    DiscardExpired { now_ms: u32, alpha_ms: u32 },
    TakeNewestFor { obj: u32 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0u32..20, 0u32..10_000).prop_map(|(obj, gen_ms)| Op::Insert { obj, gen_ms }),
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
        self.items.retain(|e| now.since(e.generation_ts) <= alpha);
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

fn mk_update(seq: u64, obj: u32, gen_ms: u32) -> Update {
    Update {
        seq,
        object: ViewObjectId::new(Importance::Low, obj),
        generation_ts: SimTime::from_secs(f64::from(gen_ms) / 1000.0),
        arrival_ts: SimTime::from_secs(f64::from(gen_ms) / 1000.0 + 0.05),
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
            Op::Insert { obj, gen_ms } => {
                let u = mk_update(seq, obj, gen_ms);
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
    Insert { obj: u32, high: bool, gen_ms: u32 },
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
        5 => (id(), 0u32..10_000)
            .prop_map(|((obj, high), gen_ms)| XOp::Insert { obj, high, gen_ms }),
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
/// every step.
fn run_xops(ops: Vec<XOp>, cap: usize, dedup: bool) {
    let mut slab = UpdateQueue::new(cap, dedup);
    let mut seed = ReferenceUpdateQueue::new(cap, dedup);
    let mut seq = 0u64;
    for op in ops {
        match op {
            XOp::Insert { obj, high, gen_ms } => {
                let u = Update {
                    object: vid(obj, high),
                    ..mk_update(seq, obj, gen_ms)
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
    }
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
        inserts in prop::collection::vec((0u32..10, 0u32..10_000), 1..200)
    ) {
        let mut q = UpdateQueue::new(1_000, true);
        for (i, (obj, gen_ms)) in inserts.into_iter().enumerate() {
            q.insert(mk_update(i as u64, obj, gen_ms));
        }
        let mut seen = std::collections::HashSet::new();
        for u in q.iter() {
            assert!(seen.insert(u.object), "duplicate pending update for {:?}", u.object);
        }
        assert!(q.len() <= 10);
    }

    #[test]
    fn newest_for_agrees_with_iteration(
        inserts in prop::collection::vec((0u32..8, 0u32..10_000), 1..100)
    ) {
        let mut q = UpdateQueue::new(1_000, false);
        for (i, (obj, gen_ms)) in inserts.into_iter().enumerate() {
            q.insert(mk_update(i as u64, obj, gen_ms));
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

/// The oracle itself: the seed implementation keeps the seed semantics.
#[test]
fn reference_keeps_seed_semantics() {
    let mut q = ReferenceUpdateQueue::new(2, true);
    q.insert(mk_update(0, 1, 1_000));
    let out = q.insert(mk_update(1, 1, 2_000));
    assert_eq!(out.deduped, 1);
    assert_eq!(q.len(), 1);
    q.insert(mk_update(2, 2, 3_000));
    let out = q.insert(mk_update(3, 3, 4_000));
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
