//! Clock-agnostic scheduling decisions — the paper's §4 algorithms as pure
//! functions.
//!
//! Which side of the CPU split gets the next slice, whether an arrival
//! preempts, where a received update goes, when a view read pays a queue
//! scan, and when OD installs on demand: every function here is a pure map
//! from observable queue/ready-set state to a decision — no clocks, no
//! queues, no I/O. Their one caller is [`crate::scheduler::Scheduler`], the
//! state machine that both the simulator's `Controller` and the
//! `strip-live` executor drive, so the two runtimes make *identical*
//! decisions by construction; `tests/policy_parity.rs` pins the results
//! and thereby guards the two drivers.
//!
//! | decision | paper | function |
//! |----------|-------|----------|
//! | update work before transactions? | §4.1–§4.4 | [`updates_have_priority`] |
//! | arrival preempts a running txn? | §4.1/§4.3 | [`preempts_on_arrival`] |
//! | received update installed now or queued? | §4.1–§4.3 | [`arrival_route`] |
//! | view read pays a queue scan? | §3.4/§4.4/§6.3 | [`read_check`] |
//! | OD applies a queued update on demand? | §4.4 | [`od_refresh`] |
//! | derived read refreshes its ancestor closure? | §4.4 generalised | [`dag_refresh`] |
//! | staleness verdicts (metric vs system) | §3.2/§6.2 | [`metric_uses_tracker`], [`system_stale`] |
//! | update-queue service order | §4.2 Fig. 11 | [`service_order`] |

use strip_db::object::Importance;
use strip_db::staleness::StalenessSpec;
use strip_sim::time::SimTime;

use crate::config::{Policy, QueuePolicy};

/// The slice of scheduler state the dispatch-priority decision observes.
/// Both runtimes can produce it cheaply at every scheduling point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkState {
    /// The OS (kernel) queue holds no received-but-unqueued arrivals.
    pub os_empty: bool,
    /// The application-level update queue is empty.
    pub uq_empty: bool,
    /// CPU seconds spent on update work so far (ρu numerator).
    pub busy_update: f64,
    /// CPU seconds spent on transaction work so far (ρt numerator).
    pub busy_txn: f64,
}

/// Destination of an update received from the OS queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalRoute {
    /// Install immediately, ahead of any queue (UF always; SU for the
    /// high-importance class).
    InstallImmediate,
    /// Insert into the generation-ordered update queue.
    Enqueue,
}

/// What a view read does before its staleness verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadCheck {
    /// Pay a queue scan (UU staleness probe, or OD's search for an
    /// applicable update under MA).
    Scan,
    /// Conclude the read directly from the store timestamp.
    Direct,
}

/// Update-queue service order at a background-install point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceOrder {
    /// Pop the oldest generation first (paper baseline).
    OldestFirst,
    /// Pop the newest generation first (Figure 11's LIFO).
    NewestFirst,
    /// Pop the most-read object's update first (extension).
    HottestFirst,
}

/// True when the policy serves update work before transactions at this
/// dispatch point (§4.1 UF, §4.3 SU's arrival class, §7's fixed fraction).
/// TF and OD always let transactions go first and drain queues when idle.
#[inline]
#[must_use]
pub fn updates_have_priority(policy: Policy, state: &WorkState) -> bool {
    match policy {
        Policy::UpdatesFirst => !state.os_empty,
        // SU must receive arrivals immediately to classify them; its
        // update queue (low importance) only drains when idle.
        Policy::SplitUpdates => !state.os_empty,
        Policy::FixedFraction { fraction } => {
            if state.os_empty && state.uq_empty {
                return false;
            }
            let total = state.busy_update + state.busy_txn;
            total <= 0.0 || state.busy_update / total < fraction
        }
        Policy::TransactionsFirst | Policy::OnDemand => false,
    }
}

/// True when an update *arrival* preempts a running transaction slice
/// (charging `2·x_switch`): UF and SU react to arrivals; TF, OD and the
/// fixed-fraction extension let them wait in the OS queue.
#[inline]
#[must_use]
pub fn preempts_on_arrival(policy: Policy) -> bool {
    matches!(policy, Policy::UpdatesFirst | Policy::SplitUpdates)
}

/// Where an update received from the OS queue goes: straight to an install
/// slice (UF always, SU for high importance) or into the update queue.
#[inline]
#[must_use]
pub fn arrival_route(policy: Policy, class: Importance) -> ArrivalRoute {
    match policy {
        Policy::UpdatesFirst => ArrivalRoute::InstallImmediate,
        Policy::SplitUpdates if class == Importance::High => ArrivalRoute::InstallImmediate,
        _ => ArrivalRoute::Enqueue,
    }
}

/// Whether a view read pays a queue scan before its staleness verdict.
///
/// Under MA only OD scans, and only when the store timestamp already shows
/// the object stale (the scan is its search for an applicable update).
/// Under UU (and the combined criterion) the unapplied-update *check
/// itself* is a queue scan, paid by every queue-using algorithm on every
/// view read (§6.3); UF has no queue to search.
#[inline]
#[must_use]
pub fn read_check(policy: Policy, staleness: StalenessSpec, ma_stale: bool) -> ReadCheck {
    match staleness {
        StalenessSpec::MaxAge { .. } => {
            if ma_stale && policy == Policy::OnDemand {
                ReadCheck::Scan
            } else {
                ReadCheck::Direct
            }
        }
        StalenessSpec::UnappliedUpdate | StalenessSpec::Either { .. } => {
            if policy.uses_update_queue() {
                ReadCheck::Scan
            } else {
                ReadCheck::Direct
            }
        }
    }
}

/// True when OD applies a queued update on demand after its scan: the
/// newest queued generation for the object (if any) must be strictly newer
/// than the installed one. Under the combined criterion a queued newer
/// update is worth applying whether the object is MA-stale or UU-stale.
#[inline]
#[must_use]
pub fn od_refresh(
    policy: Policy,
    queued_newest: Option<SimTime>,
    installed_generation: SimTime,
) -> bool {
    policy == Policy::OnDemand && queued_newest.is_some_and(|g| g > installed_generation)
}

/// OD generalised to the derived-view DAG: true when a derived-node read
/// pulls a fresh ancestor closure (applies every pending delta above the
/// node, in topological order) before answering. Only OD refreshes, and
/// only when the node is *transitively* stale — an unapplied delta on the
/// node itself or anywhere in its ancestor chain. Every other policy
/// answers from the possibly-stale materialised value, exactly as flat OD
/// is the only policy that installs queued updates on a view read.
/// Shared verbatim by the simulator and the live executor so derived
/// reads keep sim/live decision parity.
#[inline]
#[must_use]
pub fn dag_refresh(policy: Policy, node_stale: bool) -> bool {
    policy == Policy::OnDemand && node_stale
}

/// True when the *metric* staleness verdict of a view read comes from the
/// receive-side tracker (UU and the combined criterion) rather than the
/// store's MA timestamp.
#[inline]
#[must_use]
pub fn metric_uses_tracker(staleness: StalenessSpec) -> bool {
    matches!(
        staleness,
        StalenessSpec::UnappliedUpdate | StalenessSpec::Either { .. }
    )
}

/// What the running *system* can detect (drives abort-on-stale): MA uses
/// the store timestamp; UU sees only the queue — an update dropped before
/// being applied is invisible; the combined criterion ORs both detectors.
#[inline]
#[must_use]
pub fn system_stale(staleness: StalenessSpec, ma_stale: bool, queue_has_newer: bool) -> bool {
    match staleness {
        StalenessSpec::MaxAge { .. } => ma_stale,
        StalenessSpec::UnappliedUpdate => queue_has_newer,
        StalenessSpec::Either { .. } => ma_stale || queue_has_newer,
    }
}

/// Maps the configured queue discipline onto the background-install
/// service order.
#[inline]
#[must_use]
pub fn service_order(queue_policy: QueuePolicy) -> ServiceOrder {
    match queue_policy {
        QueuePolicy::Fifo => ServiceOrder::OldestFirst,
        QueuePolicy::Lifo => ServiceOrder::NewestFirst,
        QueuePolicy::HotFirst => ServiceOrder::HottestFirst,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state(os_empty: bool, uq_empty: bool, busy_u: f64, busy_t: f64) -> WorkState {
        WorkState {
            os_empty,
            uq_empty,
            busy_update: busy_u,
            busy_txn: busy_t,
        }
    }

    #[test]
    fn uf_su_serve_os_queue_first() {
        for p in [Policy::UpdatesFirst, Policy::SplitUpdates] {
            assert!(updates_have_priority(p, &state(false, true, 0.0, 0.0)));
            assert!(!updates_have_priority(p, &state(true, false, 0.0, 0.0)));
        }
        for p in [Policy::TransactionsFirst, Policy::OnDemand] {
            assert!(!updates_have_priority(p, &state(false, false, 0.0, 0.0)));
        }
    }

    #[test]
    fn fixed_fraction_tracks_busy_share() {
        let p = Policy::FixedFraction { fraction: 0.5 };
        // Below the target share with work available: updates go first.
        assert!(updates_have_priority(p, &state(false, true, 1.0, 9.0)));
        // At/above the share: transactions go first.
        assert!(!updates_have_priority(p, &state(false, true, 5.0, 5.0)));
        // No work at all: nothing to prioritise.
        assert!(!updates_have_priority(p, &state(true, true, 0.0, 10.0)));
        // No busy time yet: updates bootstrap first.
        assert!(updates_have_priority(p, &state(true, false, 0.0, 0.0)));
    }

    #[test]
    fn arrival_reaction_matches_the_paper() {
        assert!(preempts_on_arrival(Policy::UpdatesFirst));
        assert!(preempts_on_arrival(Policy::SplitUpdates));
        assert!(!preempts_on_arrival(Policy::TransactionsFirst));
        assert!(!preempts_on_arrival(Policy::OnDemand));
        assert!(!preempts_on_arrival(Policy::FixedFraction {
            fraction: 0.5
        }));
    }

    #[test]
    fn routing_splits_su_by_class() {
        assert_eq!(
            arrival_route(Policy::UpdatesFirst, Importance::Low),
            ArrivalRoute::InstallImmediate
        );
        assert_eq!(
            arrival_route(Policy::SplitUpdates, Importance::High),
            ArrivalRoute::InstallImmediate
        );
        assert_eq!(
            arrival_route(Policy::SplitUpdates, Importance::Low),
            ArrivalRoute::Enqueue
        );
        assert_eq!(
            arrival_route(Policy::OnDemand, Importance::High),
            ArrivalRoute::Enqueue
        );
    }

    #[test]
    fn read_checks_follow_criterion_and_policy() {
        let ma = StalenessSpec::MaxAge { alpha: 1.0 };
        assert_eq!(read_check(Policy::OnDemand, ma, true), ReadCheck::Scan);
        assert_eq!(read_check(Policy::OnDemand, ma, false), ReadCheck::Direct);
        assert_eq!(
            read_check(Policy::TransactionsFirst, ma, true),
            ReadCheck::Direct
        );
        let uu = StalenessSpec::UnappliedUpdate;
        assert_eq!(
            read_check(Policy::TransactionsFirst, uu, false),
            ReadCheck::Scan
        );
        assert_eq!(
            read_check(Policy::UpdatesFirst, uu, true),
            ReadCheck::Direct
        );
    }

    #[test]
    fn od_refresh_needs_a_strictly_newer_update() {
        let t = SimTime::from_secs;
        assert!(od_refresh(Policy::OnDemand, Some(t(2.0)), t(1.0)));
        assert!(!od_refresh(Policy::OnDemand, Some(t(1.0)), t(1.0)));
        assert!(!od_refresh(Policy::OnDemand, None, t(1.0)));
        assert!(!od_refresh(Policy::TransactionsFirst, Some(t(2.0)), t(1.0)));
    }

    #[test]
    fn dag_refresh_is_od_on_stale_only() {
        assert!(dag_refresh(Policy::OnDemand, true));
        assert!(!dag_refresh(Policy::OnDemand, false));
        for p in [
            Policy::UpdatesFirst,
            Policy::TransactionsFirst,
            Policy::SplitUpdates,
            Policy::FixedFraction { fraction: 0.5 },
        ] {
            assert!(!dag_refresh(p, true));
            assert!(!dag_refresh(p, false));
        }
    }

    #[test]
    fn staleness_verdicts() {
        let ma = StalenessSpec::MaxAge { alpha: 1.0 };
        let uu = StalenessSpec::UnappliedUpdate;
        let either = StalenessSpec::Either { alpha: 1.0 };
        assert!(!metric_uses_tracker(ma));
        assert!(metric_uses_tracker(uu));
        assert!(metric_uses_tracker(either));
        assert!(system_stale(ma, true, false));
        assert!(!system_stale(ma, false, true));
        assert!(system_stale(uu, false, true));
        assert!(!system_stale(uu, true, false));
        assert!(system_stale(either, true, false));
        assert!(system_stale(either, false, true));
    }

    #[test]
    fn service_orders_map_one_to_one() {
        assert_eq!(service_order(QueuePolicy::Fifo), ServiceOrder::OldestFirst);
        assert_eq!(service_order(QueuePolicy::Lifo), ServiceOrder::NewestFirst);
        assert_eq!(
            service_order(QueuePolicy::HotFirst),
            ServiceOrder::HottestFirst
        );
    }
}
