//! Property tests for the bounded queues' overflow rules: every received
//! update must land in exactly one terminal bucket, for every update-queue
//! [`ShedPolicy`] (robustness extension) and for the OS queue's rejection
//! of the arrival, under arbitrary operation sequences.
//!
//! Queue-level mirror of the controller's `UpdateCounts::terminal_total`
//! conservation law:
//!
//! ```text
//! received == applied (popped) + still queued
//!           + overflow_dropped + expired_dropped + dedup_dropped
//! ```

use proptest::prelude::*;
use strip_db::object::{Importance, ViewObjectId};
use strip_db::osqueue::OsQueue;
use strip_db::shed::ShedPolicy;
use strip_db::update::Update;
use strip_db::update_queue::UpdateQueue;
use strip_sim::time::SimTime;

#[derive(Debug, Clone)]
enum Op {
    Insert { obj: u32, high: bool, gen_ms: u32 },
    PopOldest,
    PopNewest,
    TakeNewestFor { obj: u32, high: bool },
    DiscardExpired { now_ms: u32, alpha_ms: u32 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let id = || (0u32..10, proptest::bool::ANY);
    prop_oneof![
        6 => (id(), 0u32..10_000)
            .prop_map(|((obj, high), gen_ms)| Op::Insert { obj, high, gen_ms }),
        2 => Just(Op::PopOldest),
        1 => Just(Op::PopNewest),
        2 => id().prop_map(|(obj, high)| Op::TakeNewestFor { obj, high }),
        1 => (0u32..12_000, 100u32..5_000)
            .prop_map(|(now_ms, alpha_ms)| Op::DiscardExpired { now_ms, alpha_ms }),
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

fn mk_update(seq: u64, obj: u32, high: bool, gen_ms: u32) -> Update {
    Update {
        seq,
        object: vid(obj, high),
        generation_ts: SimTime::from_secs(f64::from(gen_ms) / 1000.0),
        arrival_ts: SimTime::from_secs(f64::from(gen_ms) / 1000.0 + 0.05),
        payload: f64::from(seq as u32),
        attr_mask: Update::COMPLETE,
    }
}

fn key(u: &Update) -> (SimTime, u64) {
    (u.generation_ts, u.seq)
}

/// Drives one update queue through `ops` and checks conservation plus the
/// policy-specific eviction guarantee after every step.
fn run_conservation(ops: Vec<Op>, cap: usize, dedup: bool, shed: ShedPolicy) {
    let mut q = UpdateQueue::with_shed(cap, dedup, shed);
    let mut seq = 0u64;
    let mut received = 0u64;
    let mut applied = 0u64;
    for op in ops {
        match op {
            Op::Insert { obj, high, gen_ms } => {
                let u = mk_update(seq, obj, high, gen_ms);
                seq += 1;
                received += 1;
                let before_keys: Vec<_> = q.iter().map(key).collect();
                let outcome = q.insert(u);
                if let Some(victim) = outcome.displaced {
                    match shed {
                        ShedPolicy::DropOldest => {
                            // The victim has the smallest key of queue+arrival.
                            let min = before_keys
                                .iter()
                                .copied()
                                .chain(std::iter::once(key(&u)))
                                .min()
                                .expect("non-empty on overflow");
                            assert_eq!(key(&victim), min, "DropOldest must evict the oldest");
                        }
                        ShedPolicy::DropNewest => {
                            let max = before_keys
                                .iter()
                                .copied()
                                .chain(std::iter::once(key(&u)))
                                .max()
                                .expect("non-empty on overflow");
                            assert_eq!(key(&victim), max, "DropNewest must evict the newest");
                        }
                        ShedPolicy::DropLowestImportance => {
                            // A high-importance victim means no low-importance
                            // update was available to sacrifice.
                            if victim.object.class == Importance::High {
                                assert!(
                                    q.iter().all(|e| e.object.class == Importance::High),
                                    "evicted high-importance while low was queued"
                                );
                            }
                        }
                        ShedPolicy::CoalescePerObject => {
                            // The victim is superseded by a newer queued update
                            // for its object, or (no superseded entry) it falls
                            // back to the oldest generation.
                            let superseded = q
                                .iter()
                                .any(|e| e.object == victim.object && key(e) > key(&victim));
                            let min = before_keys
                                .iter()
                                .copied()
                                .chain(std::iter::once(key(&u)))
                                .min()
                                .expect("non-empty on overflow");
                            assert!(
                                superseded || key(&victim) == min,
                                "Coalesce victim neither superseded nor oldest"
                            );
                        }
                    }
                }
            }
            Op::PopOldest => applied += u64::from(q.pop_oldest().is_some()),
            Op::PopNewest => applied += u64::from(q.pop_newest().is_some()),
            Op::TakeNewestFor { obj, high } => {
                applied += u64::from(q.take_newest_for(vid(obj, high)).is_some());
            }
            Op::DiscardExpired { now_ms, alpha_ms } => {
                let now = SimTime::from_secs(f64::from(now_ms) / 1000.0);
                q.discard_expired(now, f64::from(alpha_ms) / 1000.0);
            }
        }
        // Conservation: every received update is in exactly one bucket.
        let terminal = applied
            + q.len() as u64
            + q.overflow_dropped()
            + q.expired_dropped()
            + q.dedup_dropped();
        assert_eq!(
            terminal,
            received,
            "conservation violated under {shed:?} (dedup={dedup}): \
             applied {applied} + queued {} + overflow {} + expired {} + dedup {} != {received}",
            q.len(),
            q.overflow_dropped(),
            q.expired_dropped(),
            q.dedup_dropped()
        );
        assert!(q.len() <= cap);
        assert!(q.check_invariants());
    }
}

/// A long run of `n` operations over `objects` objects per class, drawn
/// from a seeded xorshift in phases of 100–600 operations: *fill* (mostly
/// inserts, so the queue sits at its bound and sheds), *hollow* (mostly
/// removals of an object's newest update, from anywhere in the generation
/// order) and *drain* (both ends and MA expiry). Generations trail a clock
/// that advances 1 ms per insert, with stragglers up to 5 s late.
fn phased_ops(seed: u64, n: usize, objects: u32) -> Vec<Op> {
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
            let op = match (phase, rng(100)) {
                (0, 85..) | (2, 0..40) => Op::PopOldest,
                (1, 0..75) => Op::TakeNewestFor { obj, high },
                (2, 40..80) => Op::PopNewest,
                (2, 80..84) => Op::DiscardExpired {
                    now_ms: clock_ms,
                    alpha_ms: 1_000 + rng(20_000),
                },
                _ => {
                    clock_ms += 1;
                    let late = if rng(20) == 0 { 5_000 } else { 50 };
                    let gen_ms = clock_ms - rng(clock_ms.min(late) + 1);
                    Op::Insert { obj, high, gen_ms }
                }
            };
            ops.push(op);
        }
    }
    ops.truncate(n);
    ops
}

/// OS-queue mirror: `deliver`/`receive` under the paper's overflow rule
/// (a full queue rejects the arrival) conserves every delivered message
/// and counts exactly the rejections as dropped.
fn run_os_conservation(arrivals: Vec<(u32, bool, u32)>, cap: usize) {
    let mut q = OsQueue::new(cap);
    let mut received = 0u64;
    let mut delivered = 0u64;
    let mut rejected = 0u64;
    for (i, (obj, high, gen_ms)) in arrivals.into_iter().enumerate() {
        delivered += 1;
        if !q.deliver(mk_update(i as u64, obj, high, gen_ms)).accepted {
            rejected += 1;
        }
        // Drain a little so the queue sees both full and empty regimes.
        if i % 3 == 0 {
            received += u64::from(q.receive().is_some());
        }
        assert_eq!(
            delivered,
            received + q.len() as u64 + rejected,
            "OS conservation violated"
        );
        assert_eq!(q.dropped(), rejected);
        assert!(q.len() <= cap);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn update_queue_conserves_drop_newest(
        ops in prop::collection::vec(op_strategy(), 1..140),
        cap in 1usize..24,
        dedup in proptest::bool::ANY,
    ) {
        run_conservation(ops, cap, dedup, ShedPolicy::DropNewest);
    }

    #[test]
    fn update_queue_conserves_drop_oldest(
        ops in prop::collection::vec(op_strategy(), 1..140),
        cap in 1usize..24,
        dedup in proptest::bool::ANY,
    ) {
        run_conservation(ops, cap, dedup, ShedPolicy::DropOldest);
    }

    #[test]
    fn update_queue_conserves_drop_lowest_importance(
        ops in prop::collection::vec(op_strategy(), 1..140),
        cap in 1usize..24,
        dedup in proptest::bool::ANY,
    ) {
        run_conservation(ops, cap, dedup, ShedPolicy::DropLowestImportance);
    }

    #[test]
    fn update_queue_conserves_coalesce_per_object(
        ops in prop::collection::vec(op_strategy(), 1..140),
        cap in 1usize..24,
        dedup in proptest::bool::ANY,
    ) {
        run_conservation(ops, cap, dedup, ShedPolicy::CoalescePerObject);
    }

    #[test]
    fn os_queue_conserves(
        arrivals in prop::collection::vec((0u32..8, proptest::bool::ANY, 0u32..10_000), 1..160),
        cap in 1usize..16,
    ) {
        run_os_conservation(arrivals, cap);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn long_phased_runs_conserve_under_every_policy(
        seed in 0u64..u64::MAX,
        n in 2_000usize..2_400,
        cap in 1usize..3_000,
        objects in 1u32..400,
        dedup in proptest::bool::ANY,
    ) {
        let ops = phased_ops(seed, n, objects);
        for shed in ShedPolicy::ALL {
            run_conservation(ops.clone(), cap, dedup, shed);
        }
    }
}
