//! Property tests for the feed outage: the disturbed stream is the inner
//! stream with every arrival in `[from, to)` moved to `to`, in the same
//! order, and `outage_held` counts the inner arrivals generated inside the
//! window — also those a horizon before `to` strands, which a consumer
//! never receives.

use proptest::prelude::*;
use strip_core::config::{DisturbanceSpec, SimConfig};
use strip_core::sources::{ScriptedUpdates, UpdateSource, UpdateSpec};
use strip_db::object::{Importance, ViewObjectId};
use strip_sim::time::SimTime;
use strip_workload::{DisturbedUpdates, PoissonUpdates};

/// What the outage must make of `inner`: the delivered stream and the
/// held count.
fn expected(inner: &[UpdateSpec], spec: DisturbanceSpec) -> (Vec<UpdateSpec>, u64) {
    let Some((from, to)) = spec.outage_window() else {
        return (inner.to_vec(), 0);
    };
    let (from, to) = (SimTime::from_secs(from), SimTime::from_secs(to));
    let mut held = 0;
    let out = inner
        .iter()
        .map(|&u| {
            let mut u = u;
            if u.arrival >= from && u.arrival < to {
                u.arrival = to;
                held += 1;
            }
            u
        })
        .collect();
    (out, held)
}

/// Pulls `source` the way the controller does: until the first arrival
/// past `horizon`, which is pulled but never delivered.
fn consume_until<S: UpdateSource>(source: &mut S, horizon: SimTime) -> Vec<UpdateSpec> {
    let mut out = Vec::new();
    while let Some(u) = source.next_update() {
        if u.arrival > horizon {
            break;
        }
        out.push(u);
    }
    out
}

/// An outage window for runs of up to `scale` seconds: empty, starting at
/// 0, inside the run, or reaching past its end.
fn window(scale: f64) -> impl Strategy<Value = DisturbanceSpec> {
    let at = move |f: f64| f * scale;
    prop_oneof![
        1 => (0u32..100).prop_map(move |f| DisturbanceSpec {
            outage_from: at(f64::from(f) / 100.0),
            outage_secs: 0.0,
        }),
        1 => (1u32..100).prop_map(move |s| DisturbanceSpec {
            outage_from: 0.0,
            outage_secs: at(f64::from(s) / 100.0),
        }),
        2 => (0u32..100, 1u32..60).prop_map(move |(f, s)| DisturbanceSpec {
            outage_from: at(f64::from(f) / 100.0),
            outage_secs: at(f64::from(s) / 100.0),
        }),
        1 => (0u32..120, 100u32..300).prop_map(move |(f, s)| DisturbanceSpec {
            outage_from: at(f64::from(f) / 100.0),
            outage_secs: at(f64::from(s) / 100.0),
        }),
    ]
}

fn drain<S: UpdateSource>(source: &mut S) -> Vec<UpdateSpec> {
    std::iter::from_fn(|| source.next_update()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn poisson_stream_behind_an_outage(
        seed in 0u64..1_000_000,
        tenths in 10u32..60,
        spec in window(6.0),
    ) {
        let duration = f64::from(tenths) / 10.0;
        let cfg = SimConfig::builder()
            .lambda_u(200.0)
            .duration(duration)
            .seed(seed)
            .build()
            .expect("valid config");
        let inner = drain(&mut PoissonUpdates::from_config(&cfg));
        let (want, held) = expected(&inner, spec);

        let mut whole = DisturbedUpdates::new(PoissonUpdates::from_config(&cfg), spec);
        prop_assert_eq!(drain(&mut whole), want.clone());
        prop_assert_eq!(whole.outage_held(), held);

        // Consumed up to the horizon, as a run consumes it: the arrivals
        // the horizon strands in the flood still count as held.
        let horizon = SimTime::from_secs(duration);
        let mut run = DisturbedUpdates::new(PoissonUpdates::from_config(&cfg), spec);
        let delivered = consume_until(&mut run, horizon);
        let on_time: Vec<_> = want.iter().copied().filter(|u| u.arrival <= horizon).collect();
        prop_assert_eq!(delivered, on_time);
        prop_assert_eq!(run.outage_held(), held);
    }

    #[test]
    fn ties_at_the_window_edges_keep_inner_order(
        steps in prop::collection::vec(0u32..3, 0..80),
        from in 0u32..30,
        len in 0u32..30,
    ) {
        // Arrivals on a quarter-second grid, so many sit exactly on `from`
        // or `to` and several share an instant.
        let mut t = 0u32;
        let inner: Vec<_> = steps
            .iter()
            .enumerate()
            .map(|(i, &dt)| {
                t += dt;
                let at = f64::from(t) * 0.25;
                UpdateSpec {
                    arrival: SimTime::from_secs(at),
                    object: ViewObjectId::new(Importance::High, i as u32),
                    generation_ts: SimTime::from_secs(at),
                    payload: i as f64,
                    attr_mask: u64::MAX,
                }
            })
            .collect();
        let spec = DisturbanceSpec {
            outage_from: f64::from(from) * 0.25,
            outage_secs: f64::from(len) * 0.25,
        };
        let (want, held) = expected(&inner, spec);
        let mut s = DisturbedUpdates::new(ScriptedUpdates::new(inner), spec);
        prop_assert_eq!(drain(&mut s), want);
        prop_assert_eq!(s.outage_held(), held);
    }
}
