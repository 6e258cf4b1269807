//! Striped simulation runner (scale-out extension).
//!
//! Models the sharded live runtime inside the simulator so the two stay
//! decision-parity: the object space is split across
//! [`SimConfig::stripes`] stripes by the *same*
//! [`strip_core::stripe`] hash the live connection readers use, the
//! seeded global workload is partitioned per stripe, and each stripe runs
//! a full independent sub-simulation (its own controller state, OS/update
//! queues, staleness tracker, and metrics — exactly what a live stripe
//! executor owns). The per-stripe reports are composed with
//! [`RunReport::merge_stripes`], the simulator twin of the live runtime's
//! cross-stripe collect-and-merge barrier.
//!
//! Modelling notes, mirroring the live design:
//! * **Updates** route to the stripe owning the object — bit-identical to
//!   the live fan-out (`stripe_of`), with the object id translated to the
//!   stripe-local index.
//! * **Transactions** route to the *home* stripe: the owner of their
//!   first read. Reads owned by other stripes are pinned onto home-stripe
//!   objects ([`StripeMap::pin_to`]) so the cost structure (read count,
//!   lookup time, deadline slack) is preserved exactly; the live runtime
//!   instead splits such read sets across owners and merges at a barrier.
//! * **Queue bounds** are per stripe (each stripe owns its queues), the
//!   same shape the live executors get.
//! * `stripes == 1` runs the ordinary single-store path via the scripted
//!   partition, which is bit-identical to [`run_paper_sim`] — pinned by
//!   `tests/policy_parity.rs`.
//!
//! [`SimConfig::stripes`]: strip_core::config::SimConfig::stripes
//! [`run_paper_sim`]: crate::run_paper_sim

use strip_core::config::{ConfigError, SimConfig};
use strip_core::controller::run_simulation_checked;
use strip_core::report::RunReport;
use strip_core::sources::{ScriptedTxns, UpdateSource, UpdateSpec};
use strip_core::stripe::{splitmix64, StripeMap};
use strip_core::txn::TxnSpec;

use crate::generators::{PoissonTxns, UpdateStream};

/// A partitioned slice of the global update stream. Unlike
/// [`strip_core::sources::ScriptedUpdates`] this does not assert arrival
/// monotonicity: a disturbed global stream (reordering faults) stays
/// legal after partitioning, exactly as it would arriving at a live
/// stripe.
#[derive(Debug, Clone, Default)]
struct PartitionedUpdates {
    items: std::collections::VecDeque<UpdateSpec>,
}

impl UpdateSource for PartitionedUpdates {
    fn next_update(&mut self) -> Option<UpdateSpec> {
        self.items.pop_front()
    }
}

/// Materialises the global seeded update stream (with any configured
/// disturbance applied *before* partitioning, as faults hit the shared
/// network path) and routes each arrival to its owning stripe.
fn partition_updates(cfg: &SimConfig, map: &StripeMap) -> Vec<PartitionedUpdates> {
    let mut parts: Vec<PartitionedUpdates> = (0..map.stripes())
        .map(|_| PartitionedUpdates::default())
        .collect();
    let mut route = |spec: UpdateSpec| {
        let (s, local) = map.to_local(spec.object);
        parts[s as usize].items.push_back(UpdateSpec {
            object: local,
            ..spec
        });
    };
    let mut stream = UpdateStream::from_config(cfg);
    while let Some(u) = stream.next_update() {
        route(u);
    }
    parts
}

/// Materialises the global transaction stream and routes each transaction
/// to its home stripe (owner of the first read), pinning foreign reads
/// onto home-stripe objects.
fn partition_txns(cfg: &SimConfig, map: &StripeMap) -> Vec<Vec<TxnSpec>> {
    let mut parts: Vec<Vec<TxnSpec>> = (0..map.stripes()).map(|_| Vec::new()).collect();
    let mut txns = PoissonTxns::from_config(cfg);
    use strip_core::sources::TxnSource;
    while let Some(spec) = txns.next_txn() {
        let home = match spec.reads.first() {
            Some(&id) => map.stripe_of(id),
            // A read-free transaction has no owner; spread by id hash.
            None => (splitmix64(spec.id) % u64::from(map.stripes())) as u32,
        };
        let reads = spec
            .reads
            .iter()
            .map(|&id| {
                let (s, local) = map.to_local(id);
                if s == home {
                    local
                } else {
                    map.pin_to(home, id)
                }
            })
            .collect();
        parts[home as usize].push(TxnSpec { reads, ..spec });
    }
    parts
}

/// Runs `cfg` under the striped model: one sub-simulation per stripe over
/// the partitioned seeded workload, merged at the cross-stripe barrier.
///
/// # Errors
///
/// Returns [`ConfigError`] if `cfg` fails validation.
pub fn run_paper_sim_striped(cfg: &SimConfig) -> Result<RunReport, ConfigError> {
    cfg.validate()?;
    let map = StripeMap::from_config(cfg);
    let updates = partition_updates(cfg, &map);
    let txns = partition_txns(cfg, &map);
    let mut parts = Vec::with_capacity(map.stripes() as usize);
    let mut shapes = Vec::with_capacity(map.stripes() as usize);
    for (s, (u, t)) in updates.into_iter().zip(txns).enumerate() {
        let (n_low, n_high) = map.shape(s as u32);
        shapes.push((n_low, n_high));
        if n_low + n_high == 0 {
            // The hash left this stripe empty (tiny object spaces only);
            // it owns nothing, receives nothing, and reports zeros.
            parts.push(RunReport::default());
            continue;
        }
        // The sub-run is a single store; disturbance was already applied
        // to the global stream before partitioning.
        let mut sub = map.sub_config(cfg, s as u32);
        sub.disturbance = None;
        parts.push(run_simulation_checked(&sub, u, ScriptedTxns::new(t))?);
    }
    Ok(RunReport::merge_stripes(&parts, &shapes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use strip_core::config::Policy;

    fn base(stripes: u32) -> SimConfig {
        SimConfig::builder()
            .policy(Policy::OnDemand)
            .duration(3.0)
            .seed(0x5712_1995)
            .stripes(stripes)
            .build()
            .unwrap()
    }

    #[test]
    fn striped_run_conserves_updates_per_stripe_and_in_aggregate() {
        let report = run_paper_sim_striped(&base(4)).unwrap();
        assert_eq!(report.stripes.len(), 4);
        let mut arrived = 0;
        for s in &report.stripes {
            assert_eq!(
                s.updates.terminal_total(),
                s.updates.arrived,
                "stripe {} leaks updates",
                s.stripe
            );
            arrived += s.updates.arrived;
        }
        assert_eq!(report.updates.arrived, arrived);
        assert_eq!(report.updates.terminal_total(), report.updates.arrived);
        assert!(report.txns.arrived > 0);
    }

    #[test]
    fn single_stripe_matches_unstriped_runner_bit_exactly() {
        let cfg = base(1);
        let striped = run_paper_sim_striped(&cfg).unwrap();
        let direct = crate::run_paper_sim_checked(&cfg).unwrap();
        // The scripted partition must be a faithful materialisation of
        // the lazy generator path.
        assert_eq!(striped.txns, direct.txns);
        assert_eq!(striped.updates, direct.updates);
        assert_eq!(striped.fold_low.to_bits(), direct.fold_low.to_bits());
        assert_eq!(striped.fold_high.to_bits(), direct.fold_high.to_bits());
    }
}
