//! Property tests for the derived-view DAG (DESIGN.md §12): delta
//! conservation under random generated DAGs and interleavings, and the
//! incremental path against the full-recompute oracle at quiescent points.

use proptest::prelude::*;
use strip_db::dag::{full_recompute, generate_dag, DagSpec, DagState};
use strip_db::object::{Importance, ViewObjectId};
use strip_db::store::Store;
use strip_db::update::Update;
use strip_sim::rng::Xoshiro256pp;
use strip_sim::time::SimTime;

const N_LOW: u32 = 8;
const N_HIGH: u32 = 4;

fn object_for(k: u32) -> ViewObjectId {
    let k = k % (N_LOW + N_HIGH);
    if k < N_LOW {
        ViewObjectId::new(Importance::Low, k)
    } else {
        ViewObjectId::new(Importance::High, k - N_LOW)
    }
}

/// One step of the random interleaving: install a base update (and
/// propagate it into the DAG) or apply the next pending delta.
#[derive(Debug, Clone, Copy)]
enum Step {
    Install { obj: u32, payload_milli: i32 },
    ApplyNext,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0u32..(N_LOW + N_HIGH), -5_000i32..5_000)
            .prop_map(|(obj, payload_milli)| { Step::Install { obj, payload_milli } }),
        Just(Step::ApplyNext),
    ]
}

fn shape_strategy() -> impl Strategy<Value = (u32, u32, u32)> {
    (1u32..4, 1u32..6, 1u32..4)
}

/// Runs the interleaving over a generated DAG, asserting per-step delta
/// conservation, and returns the final `(store, state)` pair.
fn drive(dag: &strip_db::dag::ViewDag, max_pending: u32, steps: &[Step]) -> (Store, DagState) {
    let mut store = Store::new(N_LOW, N_HIGH, 0, SimTime::ZERO);
    let mut state = DagState::new(dag, &store, max_pending);
    let mut seq = 0u64;
    for (i, step) in steps.iter().enumerate() {
        let now = SimTime::from_secs(i as f64 * 0.01);
        match *step {
            Step::Install { obj, payload_milli } => {
                seq += 1;
                let object = object_for(obj);
                let payload = f64::from(payload_milli) / 1_000.0;
                store.install(&Update {
                    seq,
                    object,
                    generation_ts: now,
                    arrival_ts: now,
                    payload,
                    attr_mask: Update::COMPLETE,
                });
                state.on_base_install(dag, object, payload, now);
            }
            Step::ApplyNext => {
                if let Some(node) = state.next_pending() {
                    assert!(state.apply(dag, &store, node, now).is_some());
                }
            }
        }
        let s = state.stats;
        assert_eq!(
            s.enqueued,
            s.applied + s.coalesced + s.shed + state.pending_len() as u64,
            "conservation broke at step {i}"
        );
    }
    (store, state)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// With a pending bound the DAG can never hit (it is keyed by node, so
    /// at most `depth × width` entries exist), no delta is ever shed:
    /// draining to quiescence must reproduce the full-recompute oracle
    /// bit for bit with zero transitive staleness, and every enqueue ends
    /// applied or coalesced.
    #[test]
    fn quiescent_incremental_matches_full_recompute(
        shape in shape_strategy(),
        dag_seed in 0u64..1_000,
        steps in prop::collection::vec(step_strategy(), 1..120),
    ) {
        let (depth, width, fanout) = shape;
        let spec = DagSpec { depth, width, fanout, ..DagSpec::default() };
        let mut dag_rng = Xoshiro256pp::seed_from_u64(dag_seed).substream(0xDA6);
        let dag = generate_dag(&spec, N_LOW, N_HIGH, &mut dag_rng);
        let roomy = depth * width + 1;
        let (store, mut state) = drive(&dag, roomy, &steps);
        let end = SimTime::from_secs(1e6);
        while let Some(node) = state.next_pending() {
            prop_assert!(state.apply(&dag, &store, node, end).is_some());
        }
        prop_assert_eq!(state.pending_len(), 0);
        prop_assert_eq!(state.stale_count(), 0, "quiescent DAG must be fresh");
        let oracle = full_recompute(&dag, &store);
        for (node, expect) in oracle.iter().enumerate() {
            prop_assert_eq!(
                state.value(node as u32).to_bits(),
                expect.to_bits(),
                "node {} diverged from the full-recompute oracle",
                node
            );
        }
        let s = state.stats;
        prop_assert_eq!(s.shed, 0, "roomy bound must never shed");
        prop_assert_eq!(s.enqueued, s.applied + s.coalesced);
    }

    /// With a tight pending bound the interleaving sheds deltas; the
    /// conservation identity must keep holding through shed and drain
    /// (shed deltas are *lost work*, accounted but never applied).
    #[test]
    fn tight_pending_bound_sheds_but_conserves(
        shape in shape_strategy(),
        dag_seed in 0u64..1_000,
        steps in prop::collection::vec(step_strategy(), 30..120),
    ) {
        let (depth, width, fanout) = shape;
        let spec = DagSpec { depth, width, fanout, ..DagSpec::default() };
        let mut dag_rng = Xoshiro256pp::seed_from_u64(dag_seed).substream(0xDA6);
        let dag = generate_dag(&spec, N_LOW, N_HIGH, &mut dag_rng);
        let (store, mut state) = drive(&dag, 1, &steps);
        let end = SimTime::from_secs(1e6);
        while let Some(node) = state.next_pending() {
            prop_assert!(state.apply(&dag, &store, node, end).is_some());
        }
        let s = state.stats;
        prop_assert_eq!(s.enqueued, s.applied + s.coalesced + s.shed);
    }
}
