//! Poisson workload generators (paper §5.1, §5.2).
//!
//! * Updates arrive as a Poisson process with rate `λ_u`; each update picks
//!   its importance class with probability `p_ul`, a uniformly random object
//!   within the class, and carries an exponentially distributed network age
//!   (mean `a_update`), so its generation timestamp precedes its arrival.
//! * Transactions arrive as a Poisson process with rate `λ_t`; each picks a
//!   value class with probability `p_tl`, a normally distributed value, a
//!   normally distributed computation time, a normally distributed read-set
//!   size over its class's view partition, and uniform slack.
//!
//! Every stochastic quantity draws from its own named RNG sub-stream, so
//! changing one parameter (say `λ_t`) never perturbs the other processes —
//! essential for low-variance comparisons across a sweep.

use strip_core::config::{SimConfig, UpdateMode};
use strip_core::sources::{StreamDisturbanceStats, TxnSource, UpdateSource, UpdateSpec};
use strip_core::txn::TxnSpec;
use strip_db::object::{Importance, ViewObjectId};
use strip_sim::dist::{ClampedNormal, Distribution, Exponential, Poisson, Uniform, Zipf};
use strip_sim::rng::Xoshiro256pp;
use strip_sim::time::SimTime;

use crate::disturbance::DisturbedUpdates;

/// Stream labels for RNG sub-stream derivation.
pub(crate) mod stream {
    pub const UPDATE_ARRIVAL: u64 = 1;
    pub const UPDATE_TARGET: u64 = 2;
    pub const UPDATE_AGE: u64 = 3;
    pub const UPDATE_PAYLOAD: u64 = 4;
    pub const TXN_ARRIVAL: u64 = 5;
    pub const TXN_SHAPE: u64 = 6;
    pub const TXN_READS: u64 = 7;
    /// Fault-injection layer (`crate::disturbance`) — disjoint from the
    /// generator labels so disturbances never perturb workload draws.
    pub const DISTURBANCE: u64 = 8;
    /// Derived-view reads (DAG extension); its own sub-stream so enabling
    /// the DAG never perturbs the base read/shape/arrival draws.
    pub const TXN_DERIVED_READS: u64 = 9;
}

/// Poisson update stream per Table 1.
#[derive(Debug, Clone)]
pub struct PoissonUpdates {
    clock: SimTime,
    horizon: SimTime,
    interarrival: Option<Exponential>,
    age: Exponential,
    p_low: f64,
    n_low: u32,
    n_high: u32,
    attrs: u32,
    p_partial: f64,
    arrival_rng: Xoshiro256pp,
    target_rng: Xoshiro256pp,
    age_rng: Xoshiro256pp,
    payload_rng: Xoshiro256pp,
}

impl PoissonUpdates {
    /// Builds the update stream described by `cfg`. Arrivals stop at the
    /// simulation horizon.
    #[must_use]
    pub fn from_config(cfg: &SimConfig) -> Self {
        let root = Xoshiro256pp::seed_from_u64(cfg.seed);
        PoissonUpdates {
            clock: SimTime::ZERO,
            horizon: SimTime::from_secs(cfg.duration),
            interarrival: (cfg.lambda_u > 0.0).then(|| Exponential::from_rate(cfg.lambda_u)),
            age: Exponential::new(cfg.mean_update_age),
            p_low: cfg.p_update_low,
            n_low: cfg.n_low,
            n_high: cfg.n_high,
            attrs: cfg.attrs_per_object,
            p_partial: cfg.p_partial_update,
            arrival_rng: root.substream(stream::UPDATE_ARRIVAL),
            target_rng: root.substream(stream::UPDATE_TARGET),
            age_rng: root.substream(stream::UPDATE_AGE),
            payload_rng: root.substream(stream::UPDATE_PAYLOAD),
        }
    }
}

impl UpdateSource for PoissonUpdates {
    fn next_update(&mut self) -> Option<UpdateSpec> {
        let dist = self.interarrival.as_ref()?;
        self.clock += dist.sample(&mut self.arrival_rng);
        if self.clock > self.horizon {
            return None;
        }
        let (class, n) = if self.target_rng.chance(self.p_low) && self.n_low > 0 {
            (Importance::Low, self.n_low)
        } else if self.n_high > 0 {
            (Importance::High, self.n_high)
        } else {
            (Importance::Low, self.n_low)
        };
        let index = self.target_rng.next_below(u64::from(n)) as u32;
        let age = self.age.sample(&mut self.age_rng);
        let attr_mask = if self.p_partial > 0.0 && self.target_rng.chance(self.p_partial) {
            1u64 << self.target_rng.next_below(u64::from(self.attrs))
        } else {
            u64::MAX
        };
        Some(UpdateSpec {
            arrival: self.clock,
            object: ViewObjectId::new(class, index),
            generation_ts: SimTime::from_secs(self.clock.as_secs() - age),
            payload: self.payload_rng.next_f64() * 1_000.0,
            attr_mask,
        })
    }
}

/// Poisson transaction stream per Table 2, with an optional transient
/// burst (extension): a non-homogeneous Poisson process with a piecewise
/// constant rate, sampled exactly via the memorylessness property — a draw
/// that crosses a rate boundary is discarded and re-drawn from the
/// boundary at the new rate.
#[derive(Debug, Clone)]
pub struct PoissonTxns {
    clock: SimTime,
    horizon: SimTime,
    base_rate: f64,
    burst: Option<strip_core::config::BurstSpec>,
    interarrival: Option<Exponential>,
    p_low: f64,
    value_low: ClampedNormal,
    value_high: ClampedNormal,
    compute: ClampedNormal,
    reads: ClampedNormal,
    slack: Uniform,
    n_low: u32,
    n_high: u32,
    /// Zipf read-access skew per class (extension; None = uniform).
    skew: Option<[Zipf; 2]>,
    /// Derived-view read draws (DAG extension; None = no DAG configured):
    /// per-transaction Poisson count over a uniform node choice.
    derived: Option<(Poisson, u64)>,
    next_id: u64,
    arrival_rng: Xoshiro256pp,
    shape_rng: Xoshiro256pp,
    reads_rng: Xoshiro256pp,
    derived_rng: Xoshiro256pp,
}

impl PoissonTxns {
    /// Builds the transaction stream described by `cfg`. Arrivals stop at
    /// the simulation horizon.
    #[must_use]
    pub fn from_config(cfg: &SimConfig) -> Self {
        let root = Xoshiro256pp::seed_from_u64(cfg.seed);
        PoissonTxns {
            clock: SimTime::ZERO,
            horizon: SimTime::from_secs(cfg.duration),
            base_rate: cfg.lambda_t,
            burst: cfg.lambda_t_burst,
            interarrival: (cfg.lambda_t > 0.0).then(|| Exponential::from_rate(cfg.lambda_t)),
            p_low: cfg.p_txn_low,
            value_low: ClampedNormal::new(cfg.value_low_mean, cfg.value_low_sd, 0.0),
            value_high: ClampedNormal::new(cfg.value_high_mean, cfg.value_high_sd, 0.0),
            compute: ClampedNormal::new(cfg.compute_mean, cfg.compute_sd, 1e-6),
            reads: ClampedNormal::new(cfg.reads_mean, cfg.reads_sd, 0.0),
            slack: Uniform::new(cfg.slack_min, cfg.slack_max),
            n_low: cfg.n_low,
            n_high: cfg.n_high,
            skew: (cfg.read_skew > 0.0).then(|| {
                [
                    Zipf::new(u64::from(cfg.n_low.max(1)), cfg.read_skew),
                    Zipf::new(u64::from(cfg.n_high.max(1)), cfg.read_skew),
                ]
            }),
            derived: cfg.dag.map(|d| {
                (
                    Poisson::new(d.derived_reads_mean),
                    u64::from(d.depth.max(1)) * u64::from(d.width.max(1)),
                )
            }),
            next_id: 0,
            arrival_rng: root.substream(stream::TXN_ARRIVAL),
            shape_rng: root.substream(stream::TXN_SHAPE),
            reads_rng: root.substream(stream::TXN_READS),
            derived_rng: root.substream(stream::TXN_DERIVED_READS),
        }
    }
}

impl PoissonTxns {
    /// The arrival rate in force at time `t`.
    fn rate_at(&self, t: f64) -> f64 {
        match self.burst {
            Some(b) if t >= b.from && t < b.until => self.base_rate * b.factor,
            _ => self.base_rate,
        }
    }

    /// The next rate boundary strictly after `t`, if any.
    fn next_boundary(&self, t: f64) -> Option<f64> {
        let b = self.burst?;
        if t < b.from {
            Some(b.from)
        } else if t < b.until {
            Some(b.until)
        } else {
            None
        }
    }

    /// Advances the clock to the next arrival of the (possibly
    /// non-homogeneous) Poisson process. Returns false when past the
    /// horizon.
    fn advance_clock(&mut self) -> bool {
        if self.interarrival.is_none() {
            return false;
        }
        let mut t = self.clock.as_secs();
        loop {
            let rate = self.rate_at(t);
            if rate <= 0.0 {
                // Zero-rate segment: jump to its end (or give up).
                match self.next_boundary(t) {
                    Some(b) => {
                        t = b;
                        continue;
                    }
                    None => return false,
                }
            }
            let dt = Exponential::from_rate(rate).sample(&mut self.arrival_rng);
            match self.next_boundary(t) {
                Some(b) if t + dt > b => {
                    // Crossed a rate boundary: restart from it
                    // (memorylessness keeps this exact).
                    t = b;
                }
                _ => {
                    t += dt;
                    self.clock = SimTime::from_secs(t);
                    return t <= self.horizon.as_secs();
                }
            }
        }
    }
}

impl TxnSource for PoissonTxns {
    fn next_txn(&mut self) -> Option<TxnSpec> {
        if !self.advance_clock() {
            return None;
        }
        let (class, n, value_dist) = if self.shape_rng.chance(self.p_low) && self.n_low > 0 {
            (Importance::Low, self.n_low, &self.value_low)
        } else {
            (Importance::High, self.n_high.max(1), &self.value_high)
        };
        let value = value_dist.sample(&mut self.shape_rng);
        let compute_time = self.compute.sample(&mut self.shape_rng);
        let slack = self.slack.sample(&mut self.shape_rng);
        let read_count = self.reads.sample(&mut self.reads_rng).round().max(0.0) as usize;
        let reads = (0..read_count)
            .map(|_| {
                let index = match &self.skew {
                    Some(zipf) => zipf[usize::from(class == Importance::High)]
                        .sample_rank(&mut self.reads_rng) as u32,
                    None => self.reads_rng.next_below(u64::from(n)) as u32,
                };
                ViewObjectId::new(class, index)
            })
            .collect();
        let derived_reads = match &self.derived {
            Some((count_dist, nodes)) => {
                let count = count_dist.sample_count(&mut self.derived_rng);
                (0..count)
                    .map(|_| self.derived_rng.next_below(*nodes) as u32)
                    .collect()
            }
            None => Vec::new(),
        };
        let id = self.next_id;
        self.next_id += 1;
        Some(TxnSpec {
            id,
            class,
            value,
            arrival: self.clock,
            slack,
            compute_time,
            reads,
            derived_reads,
        })
    }
}

/// Periodic update stream (paper §2 / §7 future work): every object is
/// re-reported on a fixed per-object period with a uniformly random phase,
/// so the aggregate rate still equals `λ_u`. Optional jitter perturbs each
/// emission. Because network ages vary, emissions are merged through a
/// small priority queue so arrivals are still produced in order.
#[derive(Debug, Clone)]
pub struct PeriodicUpdates {
    horizon: SimTime,
    /// Min-heap of future emissions: (generation time, object).
    emissions: std::collections::BinaryHeap<std::cmp::Reverse<(SimTime, u64, ViewObjectId)>>,
    /// Min-heap of materialised arrivals waiting to be released in order.
    pending: std::collections::BinaryHeap<std::cmp::Reverse<(SimTime, u64)>>,
    pending_specs: std::collections::BTreeMap<u64, UpdateSpec>,
    periods: [f64; 2],
    jitter_frac: f64,
    age: Exponential,
    seq: u64,
    rng: Xoshiro256pp,
    payload_rng: Xoshiro256pp,
}

impl PeriodicUpdates {
    /// Builds the periodic stream for `cfg` (using its `λ_u`, class mix and
    /// partition sizes to derive per-object periods).
    ///
    /// # Panics
    ///
    /// Panics if `cfg.update_mode` is not periodic.
    #[must_use]
    pub fn from_config(cfg: &SimConfig) -> Self {
        let UpdateMode::Periodic { jitter_frac } = cfg.update_mode else {
            panic!("PeriodicUpdates requires UpdateMode::Periodic");
        };
        let root = Xoshiro256pp::seed_from_u64(cfg.seed);
        let mut rng = root.substream(stream::UPDATE_ARRIVAL);
        let periods = [
            cfg.per_object_refresh_mean(true),
            cfg.per_object_refresh_mean(false),
        ];
        let mut emissions = std::collections::BinaryHeap::new();
        let mut seq = 0u64;
        let mut seed_class = |class: Importance, n: u32, period: f64| {
            if !period.is_finite() {
                return;
            }
            for i in 0..n {
                let phase = rng.next_f64() * period;
                emissions.push(std::cmp::Reverse((
                    SimTime::from_secs(phase),
                    seq,
                    ViewObjectId::new(class, i),
                )));
                seq += 1;
            }
        };
        seed_class(Importance::Low, cfg.n_low, periods[0]);
        seed_class(Importance::High, cfg.n_high, periods[1]);
        PeriodicUpdates {
            horizon: SimTime::from_secs(cfg.duration),
            emissions,
            pending: std::collections::BinaryHeap::new(),
            pending_specs: std::collections::BTreeMap::new(),
            periods,
            jitter_frac,
            age: Exponential::new(cfg.mean_update_age),
            seq,
            rng,
            payload_rng: root.substream(stream::UPDATE_PAYLOAD),
        }
    }

    /// Materialises one emission into a pending arrival and schedules the
    /// object's next emission. Callers check the horizon first.
    fn step_emission(&mut self) {
        let Some(std::cmp::Reverse((gen, _, object))) = self.emissions.pop() else {
            return;
        };
        // Next emission for this object.
        let period = self.periods[object.class.index()];
        let jitter = if self.jitter_frac > 0.0 {
            (self.rng.next_f64() - 0.5) * self.jitter_frac * period
        } else {
            0.0
        };
        let next_gen =
            SimTime::from_secs((gen.as_secs() + period + jitter).max(gen.as_secs() + 1e-9));
        self.emissions
            .push(std::cmp::Reverse((next_gen, self.seq, object)));
        self.seq += 1;
        // The arrival ages in the network.
        let arrival = gen + self.age.sample(&mut self.rng);
        let key = self.seq;
        self.seq += 1;
        self.pending.push(std::cmp::Reverse((arrival, key)));
        self.pending_specs.insert(
            key,
            UpdateSpec {
                arrival,
                object,
                generation_ts: gen,
                payload: self.payload_rng.next_f64() * 1_000.0,
                attr_mask: u64::MAX,
            },
        );
    }
}

impl UpdateSource for PeriodicUpdates {
    fn next_update(&mut self) -> Option<UpdateSpec> {
        // Release the earliest pending arrival only once no future emission
        // could produce an earlier one: a future emission with generation
        // time g yields an arrival ≥ g, so pending head `a` is safe when
        // a ≤ g (or when no emission before the horizon remains).
        while let Some(&std::cmp::Reverse((next_gen, _, _))) = self.emissions.peek() {
            if next_gen > self.horizon {
                break;
            }
            if let Some(&std::cmp::Reverse((a, _))) = self.pending.peek() {
                if a <= next_gen {
                    break;
                }
            }
            self.step_emission();
        }
        let std::cmp::Reverse((arrival, key)) = self.pending.pop()?;
        let spec = self.pending_specs.remove(&key).expect("pending spec");
        if arrival > self.horizon {
            // Heap order: everything still pending arrives even later.
            return None;
        }
        Some(spec)
    }
}

/// The update stream a [`SimConfig`] describes — the one place a config
/// turns into an update source, for the simulator and the live load
/// generator alike: Poisson (the paper's model) or periodic (extension),
/// behind the fault-injection layer when the config asks for one.
#[derive(Debug, Clone)]
pub enum UpdateStream {
    /// Poisson arrivals (paper §5.1).
    Poisson(PoissonUpdates),
    /// Fixed per-object periods (extension).
    Periodic(PeriodicUpdates),
    /// Either of the above, disturbed (robustness extension).
    Disturbed(Box<DisturbedUpdates<UpdateStream>>),
}

impl UpdateStream {
    /// Chooses the stream type from `cfg.update_mode` and wraps it in
    /// [`DisturbedUpdates`] when `cfg.disturbance` is set; an undisturbed
    /// config gets the bare generator, bit-identical to builds that predate
    /// the layer.
    #[must_use]
    pub fn from_config(cfg: &SimConfig) -> Self {
        let stream = match cfg.update_mode {
            UpdateMode::Aperiodic => UpdateStream::Poisson(PoissonUpdates::from_config(cfg)),
            UpdateMode::Periodic { .. } => {
                UpdateStream::Periodic(PeriodicUpdates::from_config(cfg))
            }
        };
        match cfg.disturbance {
            Some(spec) => {
                UpdateStream::Disturbed(Box::new(DisturbedUpdates::new(stream, spec, cfg.seed)))
            }
            None => stream,
        }
    }
}

impl UpdateSource for UpdateStream {
    fn next_update(&mut self) -> Option<UpdateSpec> {
        match self {
            UpdateStream::Poisson(s) => s.next_update(),
            UpdateStream::Periodic(s) => s.next_update(),
            UpdateStream::Disturbed(s) => s.next_update(),
        }
    }

    fn disturbance_stats(&self) -> StreamDisturbanceStats {
        match self {
            UpdateStream::Disturbed(s) => s.disturbance_stats(),
            UpdateStream::Poisson(_) | UpdateStream::Periodic(_) => {
                StreamDisturbanceStats::default()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SimConfig {
        SimConfig::builder()
            .duration(100.0)
            .seed(7)
            .build()
            .unwrap()
    }

    #[test]
    fn update_rate_matches_lambda() {
        let mut src = PoissonUpdates::from_config(&cfg());
        let mut count = 0u64;
        while src.next_update().is_some() {
            count += 1;
        }
        // 400/s over 100 s → ~40 000 arrivals; Poisson sd ≈ 200.
        assert!((39_000..41_000).contains(&count), "count {count}");
    }

    #[test]
    fn updates_age_before_arrival() {
        let mut src = PoissonUpdates::from_config(&cfg());
        let mut total_age = 0.0;
        let mut n = 0;
        for _ in 0..10_000 {
            let u = src.next_update().unwrap();
            let age = u.arrival.since(u.generation_ts);
            assert!(age >= 0.0);
            total_age += age;
            n += 1;
        }
        let mean = total_age / f64::from(n);
        assert!((mean - 0.1).abs() < 0.01, "mean age {mean}");
    }

    #[test]
    fn update_class_mix_matches_p_ul() {
        let mut src = PoissonUpdates::from_config(&cfg());
        let mut lows = 0;
        let mut n = 0;
        while let Some(u) = src.next_update() {
            if u.object.class == Importance::Low {
                lows += 1;
            }
            assert!(u.object.index < 500);
            n += 1;
        }
        let frac = f64::from(lows) / f64::from(n);
        assert!((frac - 0.5).abs() < 0.02, "low fraction {frac}");
    }

    #[test]
    fn update_targets_cover_partition() {
        let mut src = PoissonUpdates::from_config(&cfg());
        let mut seen = std::collections::HashSet::new();
        for _ in 0..20_000 {
            let u = src.next_update().unwrap();
            seen.insert(u.object);
        }
        // 20k draws over 1000 objects: expect nearly all objects touched.
        assert!(seen.len() > 950, "covered {}", seen.len());
    }

    #[test]
    fn txn_rate_and_ids() {
        let mut src = PoissonTxns::from_config(&cfg());
        let mut count = 0u64;
        let mut last_id = None;
        while let Some(t) = src.next_txn() {
            if let Some(prev) = last_id {
                assert_eq!(t.id, prev + 1);
            }
            last_id = Some(t.id);
            count += 1;
        }
        // 10/s over 100 s → ~1000; sd ≈ 32.
        assert!((850..1150).contains(&count), "count {count}");
    }

    #[test]
    fn txn_shapes_match_table_2() {
        let big = SimConfig::builder()
            .duration(10_000.0)
            .seed(11)
            .build()
            .unwrap();
        let mut src = PoissonTxns::from_config(&big);
        let mut compute = strip_sim::stats::Welford::new();
        let mut reads = strip_sim::stats::Welford::new();
        let mut slack_min = f64::INFINITY;
        let mut slack_max = f64::NEG_INFINITY;
        let mut low_vals = strip_sim::stats::Welford::new();
        let mut high_vals = strip_sim::stats::Welford::new();
        for _ in 0..20_000 {
            let t = src.next_txn().unwrap();
            compute.push(t.compute_time);
            reads.push(t.reads.len() as f64);
            slack_min = slack_min.min(t.slack);
            slack_max = slack_max.max(t.slack);
            match t.class {
                Importance::Low => low_vals.push(t.value),
                Importance::High => high_vals.push(t.value),
            }
            for r in &t.reads {
                assert_eq!(r.class, t.class, "reads stay in the txn's class");
            }
        }
        assert!(
            (compute.mean() - 0.12).abs() < 0.002,
            "compute {}",
            compute.mean()
        );
        // Rounded-and-clamped N(2,1): mean stays near 2 (clamp adds ~+0.03).
        assert!((reads.mean() - 2.0).abs() < 0.1, "reads {}", reads.mean());
        assert!(slack_min >= 0.1 && slack_max <= 1.0);
        assert!(
            (low_vals.mean() - 1.0).abs() < 0.05,
            "low {}",
            low_vals.mean()
        );
        assert!(
            (high_vals.mean() - 2.0).abs() < 0.05,
            "high {}",
            high_vals.mean()
        );
    }

    #[test]
    fn dag_config_adds_derived_reads_without_perturbing_base_draws() {
        let base = cfg();
        let mut dagged = cfg();
        dagged.dag = Some(strip_core::config::DagSpec::default());
        let spec = dagged.dag.unwrap();
        let nodes = u64::from(spec.depth) * u64::from(spec.width);
        let mut a = PoissonTxns::from_config(&base);
        let mut b = PoissonTxns::from_config(&dagged);
        let mut saw_derived = false;
        for _ in 0..500 {
            let (x, y) = (a.next_txn().unwrap(), b.next_txn().unwrap());
            // The derived sub-stream is independent: every base draw is
            // bit-identical with and without the DAG.
            assert_eq!(x.arrival, y.arrival);
            assert_eq!(x.reads, y.reads);
            assert_eq!(x.compute_time, y.compute_time);
            assert!(x.derived_reads.is_empty());
            saw_derived |= !y.derived_reads.is_empty();
            for &node in &y.derived_reads {
                assert!(u64::from(node) < nodes, "node {node} out of range");
            }
        }
        assert!(saw_derived, "mean 2.0 should produce derived reads");
    }

    fn periodic_cfg(jitter: f64) -> SimConfig {
        SimConfig::builder()
            .update_mode(strip_core::config::UpdateMode::Periodic {
                jitter_frac: jitter,
            })
            .duration(50.0)
            .seed(13)
            .build()
            .unwrap()
    }

    #[test]
    fn periodic_arrivals_are_ordered_and_rate_matches() {
        let mut src = PeriodicUpdates::from_config(&periodic_cfg(0.0));
        let mut count = 0u64;
        let mut last = SimTime::ZERO;
        while let Some(u) = src.next_update() {
            assert!(u.arrival >= last, "arrivals out of order");
            assert!(u.generation_ts <= u.arrival);
            last = u.arrival;
            count += 1;
        }
        // Aggregate rate λu = 400/s over 50 s → ~20 000 (edge effects from
        // phases and ages only).
        assert!((19_000..21_000).contains(&count), "count {count}");
    }

    #[test]
    fn periodic_refreshes_every_object_regularly() {
        let mut src = PeriodicUpdates::from_config(&periodic_cfg(0.0));
        let mut per_obj: std::collections::HashMap<ViewObjectId, Vec<f64>> =
            std::collections::HashMap::new();
        while let Some(u) = src.next_update() {
            per_obj
                .entry(u.object)
                .or_default()
                .push(u.generation_ts.as_secs());
        }
        // Every object is covered...
        assert_eq!(per_obj.len(), 1000);
        // ...and generation gaps equal the per-object period (2.5 s).
        for gens in per_obj.values() {
            for w in gens.windows(2) {
                assert!((w[1] - w[0] - 2.5).abs() < 1e-9, "gap {}", w[1] - w[0]);
            }
        }
    }

    #[test]
    fn periodic_jitter_perturbs_gaps_but_keeps_order() {
        let mut src = PeriodicUpdates::from_config(&periodic_cfg(0.5));
        let mut last = SimTime::ZERO;
        let mut gaps: Vec<f64> = Vec::new();
        let mut per_obj: std::collections::HashMap<ViewObjectId, f64> =
            std::collections::HashMap::new();
        while let Some(u) = src.next_update() {
            assert!(u.arrival >= last);
            last = u.arrival;
            if let Some(prev) = per_obj.insert(u.object, u.generation_ts.as_secs()) {
                gaps.push(u.generation_ts.as_secs() - prev);
            }
        }
        let irregular = gaps.iter().filter(|g| (*g - 2.5).abs() > 0.01).count();
        assert!(
            irregular > gaps.len() / 2,
            "jitter should perturb most gaps"
        );
    }

    #[test]
    fn update_stream_dispatches_on_mode() {
        let aperiodic = SimConfig::builder().duration(5.0).build().unwrap();
        assert!(matches!(
            UpdateStream::from_config(&aperiodic),
            UpdateStream::Poisson(_)
        ));
        assert!(matches!(
            UpdateStream::from_config(&periodic_cfg(0.0)),
            UpdateStream::Periodic(_)
        ));
    }

    #[test]
    fn burst_multiplies_rate_inside_the_window() {
        let cfg = SimConfig::builder()
            .duration(300.0)
            .lambda_t(10.0)
            .lambda_t_burst(Some(strip_core::config::BurstSpec {
                from: 100.0,
                until: 200.0,
                factor: 3.0,
            }))
            .seed(31)
            .build()
            .unwrap();
        let mut src = PoissonTxns::from_config(&cfg);
        let mut buckets = [0u32; 3];
        let mut last = 0.0;
        while let Some(t) = src.next_txn() {
            let secs = t.arrival.as_secs();
            assert!(secs >= last, "ordered arrivals");
            last = secs;
            buckets[(secs / 100.0).min(2.0) as usize] += 1;
        }
        // ~1000 / ~3000 / ~1000 arrivals per segment.
        assert!((850..1150).contains(&buckets[0]), "pre {}", buckets[0]);
        assert!((2700..3300).contains(&buckets[1]), "burst {}", buckets[1]);
        assert!((850..1150).contains(&buckets[2]), "post {}", buckets[2]);
    }

    #[test]
    fn zero_factor_burst_silences_the_window() {
        let cfg = SimConfig::builder()
            .duration(300.0)
            .lambda_t(10.0)
            .lambda_t_burst(Some(strip_core::config::BurstSpec {
                from: 100.0,
                until: 200.0,
                factor: 0.0,
            }))
            .seed(32)
            .build()
            .unwrap();
        let mut src = PoissonTxns::from_config(&cfg);
        while let Some(t) = src.next_txn() {
            let secs = t.arrival.as_secs();
            assert!(!(100.0..200.0).contains(&secs), "arrival at {secs}");
        }
    }

    #[test]
    fn zipf_skew_concentrates_reads_on_hot_objects() {
        let cfg = SimConfig::builder()
            .duration(500.0)
            .read_skew(1.0)
            .seed(33)
            .build()
            .unwrap();
        let mut src = PoissonTxns::from_config(&cfg);
        let mut hot = 0u32;
        let mut total = 0u32;
        while let Some(t) = src.next_txn() {
            for r in &t.reads {
                total += 1;
                if r.index < 25 {
                    hot += 1;
                }
            }
        }
        // Top 5% of a 500-object Zipf(1) universe draws ~47% of accesses.
        let frac = f64::from(hot) / f64::from(total.max(1));
        assert!(frac > 0.35, "hot fraction {frac}");
    }

    #[test]
    fn zero_rates_produce_no_arrivals() {
        let c = SimConfig::builder()
            .lambda_u(0.0)
            .lambda_t(0.0)
            .duration(10.0)
            .build()
            .unwrap();
        assert!(PoissonUpdates::from_config(&c).next_update().is_none());
        assert!(PoissonTxns::from_config(&c).next_txn().is_none());
    }

    #[test]
    fn streams_are_deterministic_per_seed() {
        let c = cfg();
        let mut a = PoissonUpdates::from_config(&c);
        let mut b = PoissonUpdates::from_config(&c);
        for _ in 0..1000 {
            assert_eq!(a.next_update(), b.next_update());
        }
    }

    #[test]
    fn changing_txn_rate_leaves_update_stream_untouched() {
        let c1 = cfg();
        let mut c2 = cfg();
        c2.lambda_t = 25.0;
        let mut a = PoissonUpdates::from_config(&c1);
        let mut b = PoissonUpdates::from_config(&c2);
        for _ in 0..1000 {
            assert_eq!(a.next_update(), b.next_update());
        }
    }
}
