//! Staleness definitions and exact time-weighted staleness accounting
//! (paper §2 and §3.5).
//!
//! Two criteria are modelled:
//!
//! * **Maximum Age (MA)** — an object is stale once the *generation* age of
//!   its installed value reaches `alpha`. Even an object whose true value
//!   never changes goes stale unless it is periodically refreshed.
//! * **Unapplied Update (UU)** — an object is optimistically fresh unless an
//!   update for it has been received by the system but not yet applied.
//!   Following the paper's observation that discarding queued updates "can
//!   cause data to become stale", we track *newest received generation vs.
//!   installed generation*: dropping an update from the queue leaves the
//!   object stale until a newer update is installed. (The strict
//!   queue-presence reading would absurdly make drops freshen data.)
//!
//! The trackers are *metric observers*: they maintain the exact
//! time-weighted stale counts from which `fold_l` and `fold_h` are computed.
//! The in-system behavioural checks (a timestamp compare for MA, an update
//! queue scan for UU) are performed by the controller and charged to the CPU
//! via the cost model. For MA the check and the metric are one rule,
//! [`ma_stale`] (generation + α ≤ now), which `Store::is_stale_ma`,
//! `Update::expired_at` and `UpdateQueue::discard_expired` ask as well.
//! The UU metric is omniscient about drops that the in-system queue scan
//! can no longer see.

use serde::{Deserialize, Serialize};
use strip_sim::stats::TimeWeighted;
use strip_sim::time::SimTime;

use crate::object::{Importance, ViewObjectId};

/// Which staleness criterion a simulation uses.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum StalenessSpec {
    /// Maximum Age with threshold `alpha` seconds (generation-time based).
    MaxAge {
        /// Maximum tolerated generation age in seconds (the paper's α).
        alpha: f64,
    },
    /// Unapplied Update.
    UnappliedUpdate,
    /// Combined criterion (paper §2: "an object would be considered stale
    /// if it were stale under either definition").
    Either {
        /// The MA component's maximum age in seconds.
        alpha: f64,
    },
}

impl StalenessSpec {
    /// The maximum-age threshold, if the criterion has an MA component.
    #[inline]
    #[must_use]
    pub fn alpha(&self) -> Option<f64> {
        match self {
            StalenessSpec::MaxAge { alpha } | StalenessSpec::Either { alpha } => Some(*alpha),
            StalenessSpec::UnappliedUpdate => None,
        }
    }

    /// True if the criterion has an Unapplied Update component.
    #[inline]
    #[must_use]
    pub fn tracks_unapplied(&self) -> bool {
        matches!(
            self,
            StalenessSpec::UnappliedUpdate | StalenessSpec::Either { .. }
        )
    }
}

/// A request to fire a staleness-expiry watchdog: under MA, the value
/// installed into `object` becomes stale at `at` unless a newer generation
/// is installed first. Whether it still applies is the tracker's to decide
/// when it is delivered ([`StalenessTracker::on_expiry`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExpiryWatch {
    /// Object to re-examine.
    pub object: ViewObjectId,
    /// When the installed value reaches the maximum age.
    pub at: SimTime,
}

/// The Maximum Age rule (paper §2), the one place it is stated: a value
/// generated at `gen` is stale from `gen + alpha` on, the instant an
/// expiry timer fires at. The paper's "older than α" differs from it only
/// at that instant. The tracker's metric and every in-system check (a
/// read, an install, the update queue's discard) ask this one predicate.
#[inline]
#[must_use]
pub fn ma_stale(gen: SimTime, alpha: f64, now: SimTime) -> bool {
    gen + alpha <= now
}

/// When a value generated at `gen` goes stale under MA, and whether `now`
/// has reached that instant ([`ma_stale`]).
#[inline]
fn ma_expiry(gen: SimTime, alpha: f64, now: SimTime) -> (SimTime, bool) {
    (gen + alpha, ma_stale(gen, alpha, now))
}

#[derive(Debug, Clone)]
struct ObjState {
    /// The installed value's age exceeds the MA threshold.
    ma_stale: bool,
    /// A received update newer than the installed value is unapplied.
    uu_stale: bool,
    /// UU: newest generation received by the system for this object.
    received_gen: SimTime,
    /// Newest generation installed; MA measures its age.
    installed_gen: SimTime,
}

impl ObjState {
    #[inline]
    fn combined(&self, spec: StalenessSpec) -> bool {
        match spec {
            StalenessSpec::MaxAge { .. } => self.ma_stale,
            StalenessSpec::UnappliedUpdate => self.uu_stale,
            StalenessSpec::Either { .. } => self.ma_stale || self.uu_stale,
        }
    }
}

/// Exact per-class staleness accounting for either criterion.
///
/// # Example
///
/// ```
/// use strip_db::object::{Importance, ViewObjectId};
/// use strip_db::staleness::{StalenessSpec, StalenessTracker};
/// use strip_sim::time::SimTime;
///
/// let t = SimTime::from_secs;
/// let mut tracker = StalenessTracker::new(
///     StalenessSpec::UnappliedUpdate, 2, 0, SimTime::ZERO, |_| SimTime::ZERO,
/// );
/// let obj = ViewObjectId::new(Importance::Low, 0);
/// tracker.on_receive(obj, t(1.0), t(1.0));   // update received, unapplied
/// assert!(tracker.is_stale(obj));
/// tracker.on_install(obj, t(1.0), 1, t(3.0)); // installed two seconds later
/// assert!(!tracker.is_stale(obj));
/// // fold over [0, 4]: one of two objects stale during [1, 3].
/// assert!((tracker.fold(Importance::Low, t(4.0)) - 0.25).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct StalenessTracker {
    spec: StalenessSpec,
    /// `spec`'s MA threshold and whether it tracks unapplied updates,
    /// read once here rather than matched on every receive and install.
    alpha: Option<f64>,
    unapplied: bool,
    /// A row per object at its [`ViewObjectId::slot`].
    objs: Vec<ObjState>,
    /// Objects per class, by [`Importance::index`].
    class_len: [u32; 2],
    stale_counts: [TimeWeighted; 2],
    start: SimTime,
}

impl StalenessTracker {
    /// Creates a tracker for `n_low` + `n_high` view objects whose initial
    /// generation timestamps are given by `init_gen`. Statistics accumulate
    /// from `start`.
    #[must_use]
    pub fn new<F>(
        spec: StalenessSpec,
        n_low: u32,
        n_high: u32,
        start: SimTime,
        mut init_gen: F,
    ) -> Self
    where
        F: FnMut(ViewObjectId) -> SimTime,
    {
        let unused = ObjState {
            ma_stale: false,
            uu_stale: false,
            received_gen: SimTime::ZERO,
            installed_gen: SimTime::ZERO,
        };
        let mut objs = vec![unused; ViewObjectId::slots(n_low, n_high)];
        let mut stale = [0.0; 2];
        for (class, n) in [(Importance::Low, n_low), (Importance::High, n_high)] {
            for i in 0..n {
                let id = ViewObjectId::new(class, i);
                let gen = init_gen(id);
                let st = ObjState {
                    ma_stale: spec
                        .alpha()
                        .is_some_and(|alpha| ma_expiry(gen, alpha, start).1),
                    uu_stale: false,
                    received_gen: gen,
                    installed_gen: gen,
                };
                if st.combined(spec) {
                    stale[class.index()] += 1.0;
                }
                objs[id.slot()] = st;
            }
        }
        StalenessTracker {
            spec,
            alpha: spec.alpha(),
            unapplied: spec.tracks_unapplied(),
            objs,
            class_len: [n_low, n_high],
            stale_counts: stale.map(|count| TimeWeighted::new(start, count)),
            start,
        }
    }

    /// The criterion in force.
    #[inline]
    #[must_use]
    pub fn spec(&self) -> StalenessSpec {
        self.spec
    }

    #[inline]
    fn obj_mut(&mut self, id: ViewObjectId) -> &mut ObjState {
        debug_assert!(id.index < self.class_len[id.class.index()]);
        &mut self.objs[id.slot()]
    }

    #[inline]
    fn obj(&self, id: ViewObjectId) -> &ObjState {
        debug_assert!(id.index < self.class_len[id.class.index()]);
        &self.objs[id.slot()]
    }

    /// Applies flag changes, updating the time-weighted stale count when
    /// the combined verdict flips.
    #[inline]
    fn set_flags(&mut self, id: ViewObjectId, now: SimTime, ma: Option<bool>, uu: Option<bool>) {
        let spec = self.spec;
        let st = self.obj_mut(id);
        let before = st.combined(spec);
        if let Some(v) = ma {
            st.ma_stale = v;
        }
        if let Some(v) = uu {
            st.uu_stale = v;
        }
        let after = st.combined(spec);
        if before != after {
            let delta = if after { 1.0 } else { -1.0 };
            self.stale_counts[id.class.index()].add(now, delta);
        }
    }

    /// Expiry watchdogs for the initial (pre-simulation) values under MA.
    /// Under UU returns an empty vector.
    #[inline]
    #[must_use]
    pub fn initial_watches(&self) -> Vec<ExpiryWatch> {
        let Some(alpha) = self.alpha else {
            return Vec::new();
        };
        let mut watches = Vec::new();
        for class in Importance::ALL {
            for i in 0..self.class_len[class.index()] {
                let object = ViewObjectId::new(class, i);
                let st = self.obj(object);
                if !st.ma_stale {
                    watches.push(ExpiryWatch {
                        object,
                        at: st.installed_gen + alpha,
                    });
                }
            }
        }
        watches
    }

    /// Records that the system received (was handed) an update for `object`
    /// generated at `gen`. Only meaningful under UU; a no-op under MA.
    #[inline]
    pub fn on_receive(&mut self, object: ViewObjectId, gen: SimTime, now: SimTime) {
        if !self.unapplied {
            return;
        }
        let st = self.obj_mut(object);
        if gen > st.received_gen {
            st.received_gen = gen;
        }
        if st.received_gen > st.installed_gen {
            self.set_flags(object, now, None, Some(true));
        }
    }

    /// Records that a value generated at `gen` was installed into `object`
    /// at `now`. Under MA returns the watch of the value's expiry, unless
    /// it is stale already: the driver delivers it to
    /// [`StalenessTracker::on_expiry`] at or after its instant, whatever
    /// is installed meanwhile.
    ///
    /// `_version`, the store's version of the write, is unused: the MA
    /// rule reads generations only. It stays because
    /// `benchmark/src/layers.rs` passes it; only a change that may edit
    /// `benchmark/` can drop it.
    #[inline]
    pub fn on_install(
        &mut self,
        object: ViewObjectId,
        gen: SimTime,
        _version: u64,
        now: SimTime,
    ) -> Option<ExpiryWatch> {
        let (alpha, unapplied) = (self.alpha, self.unapplied);
        let st = self.obj_mut(object);
        if gen > st.installed_gen {
            st.installed_gen = gen;
        }
        // UU component: a generation at least as new as everything received
        // clears the unapplied flag.
        let uu_flag = (unapplied && st.installed_gen >= st.received_gen).then_some(false);
        let Some(alpha) = alpha else {
            self.set_flags(object, now, None, uu_flag);
            return None;
        };
        // MA component: installing an already-expired value (possible
        // under FIFO with very old queued updates) leaves the object stale.
        let (at, stale) = ma_expiry(st.installed_gen, alpha, now);
        self.set_flags(object, now, Some(stale), uu_flag);
        (!stale).then_some(ExpiryWatch { object, at })
    }

    /// Delivers an expiry watch of `object` at `now`, at or after the
    /// watch's instant (MA). The object is stale from its installed
    /// generation + α on: once `now` has reached that, it is flagged
    /// stale — again, harmlessly, when it already is — and `None` comes
    /// back. When a newer value was installed since the watch was handed
    /// out, nothing changes and that value's later expiry comes back, for
    /// a driver that keeps one watch per object to re-key; a driver that
    /// arms every watch [`StalenessTracker::on_install`] returns can
    /// ignore it. Always `None` without an MA component.
    #[inline]
    pub fn on_expiry(&mut self, object: ViewObjectId, now: SimTime) -> Option<SimTime> {
        let alpha = self.alpha?;
        let (at, stale) = ma_expiry(self.obj(object).installed_gen, alpha, now);
        if !stale {
            return Some(at);
        }
        self.set_flags(object, now, Some(true), None);
        None
    }

    /// Whether `object` is stale right now under the tracked criterion
    /// (metric view; see module docs for the UU system-visible distinction).
    #[inline]
    #[must_use]
    pub fn is_stale(&self, object: ViewObjectId) -> bool {
        self.obj(object).combined(self.spec)
    }

    /// Current number of stale objects in `class`.
    #[inline]
    #[must_use]
    pub fn stale_count(&self, class: Importance) -> f64 {
        self.stale_counts[class.index()].current()
    }

    /// The paper's `fold` for `class`: the time-weighted average fraction of
    /// stale objects over `[start, end]`.
    #[inline]
    #[must_use]
    pub fn fold(&self, class: Importance, end: SimTime) -> f64 {
        let n = self.class_len[class.index()];
        if n == 0 {
            return 0.0;
        }
        self.stale_counts[class.index()].mean_over(self.start, end) / n as f64
    }

    /// The raw integral of the stale count for `class` from the start of
    /// tracking through `at` (object-seconds). Used by callers that exclude
    /// a warm-up prefix: `fold over [w, end]` is
    /// `(integral(end) - integral(w)) / (N · (end - w))`.
    #[inline]
    #[must_use]
    pub fn stale_count_integral(&self, class: Importance, at: SimTime) -> f64 {
        self.stale_counts[class.index()].integral_through(at)
    }

    /// Number of tracked objects in `class`.
    #[inline]
    #[must_use]
    pub fn class_len(&self, class: Importance) -> usize {
        self.class_len[class.index()] as usize
    }
}

/// Exact time-weighted *transitive* staleness accounting over a
/// derived-view DAG (`fold_derived`).
///
/// The behavioural definition lives in [`crate::dag::DagState`]: a node is
/// stale iff it has an unapplied delta or any derived input is stale. This
/// observer only integrates that count over time; the controller calls
/// [`DerivedStaleness::observe`] after every propagation event, and the
/// fold is the time-weighted average fraction of stale nodes — the DAG
/// twin of the paper's `fold_l`/`fold_h`.
#[derive(Debug, Clone)]
pub struct DerivedStaleness {
    count: TimeWeighted,
    last: f64,
    n: usize,
    start: SimTime,
}

impl DerivedStaleness {
    /// Tracker over `n_nodes` derived nodes, all initially fresh,
    /// accumulating from `start`.
    #[inline]
    #[must_use]
    pub fn new(n_nodes: usize, start: SimTime) -> Self {
        DerivedStaleness {
            count: TimeWeighted::new(start, 0.0),
            last: 0.0,
            n: n_nodes,
            start,
        }
    }

    /// Records that `stale` nodes are stale as of `now`.
    #[inline]
    pub fn observe(&mut self, now: SimTime, stale: u32) {
        let v = f64::from(stale);
        if (v - self.last).abs() > 0.0 {
            self.count.add(now, v - self.last);
            self.last = v;
        }
    }

    /// Time-weighted average fraction of stale derived nodes over
    /// `[start, end]`; 0 for an empty DAG.
    #[inline]
    #[must_use]
    pub fn fold(&self, end: SimTime) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        self.count.mean_over(self.start, end) / self.n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn ma_tracker(alpha: f64, init_age: f64) -> StalenessTracker {
        StalenessTracker::new(StalenessSpec::MaxAge { alpha }, 2, 2, t(0.0), |_| {
            t(-init_age)
        })
    }

    #[test]
    fn ma_initially_fresh_objects_expire_via_watchdog() {
        let mut tr = ma_tracker(7.0, 1.0);
        assert_eq!(tr.stale_count(Importance::Low), 0.0);
        let watches = tr.initial_watches();
        assert_eq!(watches.len(), 4);
        assert_eq!(watches[0].at, t(6.0)); // -1 + 7
        for w in watches {
            assert_eq!(tr.on_expiry(w.object, w.at), None);
        }
        assert_eq!(tr.stale_count(Importance::Low), 2.0);
        assert_eq!(tr.stale_count(Importance::High), 2.0);
        // fold over [0, 12]: stale for [6, 12] -> 0.5
        assert!((tr.fold(Importance::Low, t(12.0)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn ma_initially_stale_objects_counted_from_start() {
        let tr = ma_tracker(7.0, 10.0);
        assert_eq!(tr.stale_count(Importance::Low), 2.0);
        assert!(tr.initial_watches().is_empty());
        assert!((tr.fold(Importance::High, t(5.0)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ma_install_freshens_and_a_superseded_expiry_re_keys() {
        let mut tr = ma_tracker(7.0, 10.0);
        let id = ViewObjectId::new(Importance::Low, 0);
        assert!(tr.is_stale(id));
        let w = tr.on_install(id, t(1.0), 1, t(2.0)).expect("watch");
        assert!(!tr.is_stale(id));
        assert_eq!(w.at, t(8.0));
        // A newer install supersedes the watchdog: delivered late, it
        // changes nothing and answers the newer value's expiry.
        let w2 = tr.on_install(id, t(5.0), 2, t(5.5)).expect("watch2");
        assert_eq!(tr.on_expiry(w.object, t(9.0)), Some(t(12.0)));
        assert!(!tr.is_stale(id));
        assert_eq!(tr.on_expiry(w2.object, t(12.0)), None);
        assert!(tr.is_stale(id));
        // Delivered again, it flags nothing new.
        assert_eq!(tr.on_expiry(w2.object, t(13.0)), None);
        assert_eq!(tr.stale_count(Importance::Low), 2.0);
    }

    #[test]
    fn ma_installing_expired_value_is_immediately_stale() {
        let mut tr = ma_tracker(7.0, 10.0);
        let id = ViewObjectId::new(Importance::High, 1);
        // Installed at t=9 a value generated at t=1 with alpha 7 -> age 8.
        let w = tr.on_install(id, t(1.0), 1, t(9.0));
        assert!(w.is_none());
        assert!(tr.is_stale(id));
    }

    #[test]
    fn uu_receive_then_install_cycle() {
        let mut tr =
            StalenessTracker::new(StalenessSpec::UnappliedUpdate, 1, 0, t(0.0), |_| t(0.0));
        let id = ViewObjectId::new(Importance::Low, 0);
        assert!(!tr.is_stale(id));
        tr.on_receive(id, t(1.0), t(1.1));
        assert!(tr.is_stale(id));
        assert!(tr.on_install(id, t(1.0), 1, t(2.0)).is_none());
        assert!(!tr.is_stale(id));
        // fold over [0, 4]: stale during [1.1, 2.0].
        assert!((tr.fold(Importance::Low, t(4.0)) - 0.9 / 4.0).abs() < 1e-12);
    }

    #[test]
    fn uu_dropped_update_keeps_object_stale_until_newer_install() {
        let mut tr =
            StalenessTracker::new(StalenessSpec::UnappliedUpdate, 1, 0, t(0.0), |_| t(0.0));
        let id = ViewObjectId::new(Importance::Low, 0);
        tr.on_receive(id, t(1.0), t(1.0));
        // The update is dropped from the queue — no install happens. A later
        // *older* install does not freshen:
        tr.on_install(id, t(0.5), 1, t(2.0));
        assert!(tr.is_stale(id));
        // Only installing a generation >= the received one freshens.
        tr.on_install(id, t(3.0), 2, t(3.5));
        assert!(!tr.is_stale(id));
    }

    #[test]
    fn uu_out_of_order_receives_keep_newest() {
        let mut tr =
            StalenessTracker::new(StalenessSpec::UnappliedUpdate, 1, 0, t(0.0), |_| t(0.0));
        let id = ViewObjectId::new(Importance::Low, 0);
        tr.on_receive(id, t(5.0), t(5.0));
        tr.on_receive(id, t(2.0), t(5.1)); // late, older — ignored
        tr.on_install(id, t(2.0), 1, t(6.0));
        assert!(tr.is_stale(id), "newest received (5.0) still unapplied");
        tr.on_install(id, t(5.0), 2, t(7.0));
        assert!(!tr.is_stale(id));
    }

    #[test]
    fn uu_ignores_ma_watchdogs_and_ma_ignores_receives() {
        let uu = StalenessTracker::new(StalenessSpec::UnappliedUpdate, 1, 0, t(0.0), |_| t(0.0));
        assert!(uu.initial_watches().is_empty());
        let mut ma = ma_tracker(7.0, 1.0);
        let id = ViewObjectId::new(Importance::Low, 0);
        ma.on_receive(id, t(100.0), t(0.5));
        assert!(!ma.is_stale(id), "MA ignores receive events");
    }

    #[test]
    fn derived_staleness_integrates_fraction_over_time() {
        let mut d = DerivedStaleness::new(4, t(0.0));
        assert_eq!(d.fold(t(10.0)), 0.0);
        d.observe(t(2.0), 2); // half the DAG stale over [2, 6]
        d.observe(t(6.0), 0);
        // integral = 2 nodes * 4 s = 8 node-seconds over 10 s * 4 nodes.
        assert!((d.fold(t(10.0)) - 0.2).abs() < 1e-12);
        // Redundant observations are no-ops.
        d.observe(t(7.0), 0);
        assert!((d.fold(t(10.0)) - 0.2).abs() < 1e-12);
        assert_eq!(DerivedStaleness::new(0, t(0.0)).fold(t(5.0)), 0.0);
    }

    #[test]
    fn fold_of_empty_class_is_zero() {
        let tr = StalenessTracker::new(StalenessSpec::UnappliedUpdate, 1, 0, t(0.0), |_| t(0.0));
        assert_eq!(tr.fold(Importance::High, t(10.0)), 0.0);
    }

    #[test]
    fn either_is_stale_under_either_component() {
        let mut tr =
            StalenessTracker::new(StalenessSpec::Either { alpha: 7.0 }, 1, 0, t(0.0), |_| {
                t(0.0)
            });
        let id = ViewObjectId::new(Importance::Low, 0);
        assert!(!tr.is_stale(id));
        // UU component: a pending update makes it stale while still young.
        tr.on_receive(id, t(1.0), t(1.0));
        assert!(tr.is_stale(id));
        let w = tr.on_install(id, t(1.0), 1, t(2.0)).expect("MA watch");
        assert!(!tr.is_stale(id));
        // MA component: the watchdog fires with no pending update.
        assert_eq!(tr.on_expiry(w.object, w.at), None);
        assert!(tr.is_stale(id), "MA-stale even though nothing is pending");
        // A newer install clears both components.
        tr.on_install(id, t(9.0), 2, t(9.5));
        assert!(!tr.is_stale(id));
    }

    #[test]
    fn either_both_components_must_clear() {
        let mut tr =
            StalenessTracker::new(StalenessSpec::Either { alpha: 7.0 }, 1, 0, t(0.0), |_| {
                t(0.0)
            });
        let id = ViewObjectId::new(Importance::Low, 0);
        // Receive generation 5, but install only generation 3: the value is
        // young (MA-fresh) yet a newer update remains unapplied.
        tr.on_receive(id, t(5.0), t(5.0));
        tr.on_install(id, t(3.0), 1, t(5.5));
        assert!(tr.is_stale(id), "UU component still set");
        tr.on_install(id, t(5.0), 2, t(6.0));
        assert!(!tr.is_stale(id));
    }

    #[test]
    fn either_initial_watches_cover_fresh_objects() {
        let tr = StalenessTracker::new(StalenessSpec::Either { alpha: 7.0 }, 2, 1, t(0.0), |_| {
            t(-1.0)
        });
        assert_eq!(tr.initial_watches().len(), 3);
        assert_eq!(tr.spec().alpha(), Some(7.0));
        assert!(tr.spec().tracks_unapplied());
    }
}
