//! Pins [`RunReport::to_json`] bit-for-bit.
//!
//! The generator names each field by hand on purpose: it is the independent
//! side of the comparison with the table-driven walk in `report.rs`.

use strip_core::fingerprint::fnv1a_64;
use strip_core::report::{RunReport, TimelineWindow};

/// SplitMix64: self-contained so the pinned inputs never move with the
/// workspace's own generators.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Counter magnitudes from "rounds to .5" small values up to 2^40.
    fn count(&mut self) -> u64 {
        match self.below(4) {
            0 => self.below(4),
            1 => self.below(1_000),
            2 => self.below(1_000_000),
            _ => self.below(1 << 40),
        }
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn real(&mut self) -> f64 {
        self.unit() * 1_000.0
    }
}

fn random_report(rng: &mut Rng) -> RunReport {
    let mut r = RunReport {
        policy: ["UF", "TF", "SU", "OD"][rng.below(4) as usize].to_string(),
        seed: rng.next(),
        duration: rng.real(),
        warmup: rng.real(),
        fold_low: rng.unit(),
        fold_high: rng.unit(),
        ..RunReport::default()
    };
    let t = &mut r.txns;
    t.arrived = rng.count();
    // Commit weights for the Welford pooling, zero included.
    t.committed = rng.below(5) * rng.below(2_000);
    t.committed_fresh = rng.count();
    t.missed_deadline = rng.count();
    t.aborted_infeasible = rng.count();
    t.aborted_stale = rng.count();
    t.in_flight_at_end = rng.count();
    t.value_committed = rng.real();
    t.stale_reads = rng.count();
    t.view_reads = rng.count();
    t.response_mean = rng.real();
    t.response_sd = rng.unit() * 10.0;
    for c in &mut t.by_class {
        c.arrived = rng.count();
        c.committed = rng.count();
        c.committed_fresh = rng.count();
    }
    let u = &mut r.updates;
    u.arrived = rng.count();
    u.os_dropped = rng.count();
    u.enqueued = rng.count();
    u.installed_background = rng.count();
    u.installed_immediate = rng.count();
    u.installed_on_demand = rng.count();
    u.superseded_skips = rng.count();
    u.expired_dropped = rng.count();
    u.overflow_dropped = rng.count();
    u.dedup_dropped = rng.count();
    u.admission_shed = rng.count();
    u.max_uq_len = rng.count();
    u.max_os_len = rng.count();
    u.left_in_os = rng.count();
    u.left_in_update_queue = rng.count();
    u.in_flight_at_end = rng.count();
    let c = &mut r.cpu;
    c.busy_txn = rng.real();
    c.busy_update = rng.real();
    c.measured_secs = rng.real();
    c.events_processed = rng.count();
    c.io_misses_reads = rng.count();
    c.io_misses_installs = rng.count();
    let h = &mut r.history;
    h.historical_reads = rng.count();
    h.misses = rng.count();
    h.appends = rng.count();
    h.pruned = rng.count();
    h.entries_at_end = rng.count();
    let g = &mut r.triggers;
    g.fired = rng.count();
    g.coalesced = rng.count();
    g.dropped = rng.count();
    g.executed = rng.count();
    g.pending_at_end = rng.count();
    g.lag_mean = rng.real();
    g.max_pending = rng.count();
    let d = &mut r.dag;
    d.enqueued = rng.count();
    d.applied = rng.count();
    d.coalesced = rng.count();
    d.shed = rng.count();
    d.pending_at_end = rng.count();
    d.derived_reads = rng.count();
    d.stale_derived_reads = rng.count();
    d.od_refreshes = rng.count();
    d.lag_mean = rng.real();
    d.max_pending = rng.count();
    d.fold_derived = rng.unit();
    let z = &mut r.resilience;
    z.duplicated = rng.count();
    z.reordered = rng.count();
    z.outage_held = rng.count();
    z.burst_grouped = rng.count();
    z.admission_shed = rng.count();
    z.recovery_secs = (rng.below(2) == 1).then(|| rng.real());
    let y = &mut r.durability;
    y.wal_appended = rng.count();
    y.wal_fsyncs = rng.count();
    y.wal_bytes = rng.count();
    y.wal_group_max = rng.count();
    y.snapshots_written = rng.count();
    y.wal_rotations = rng.count();
    y.recovery_replayed = rng.count();
    y.recovery_discarded = rng.count();
    // Ragged: reports cover different numbers of windows.
    r.timeline = (0..rng.below(5))
        .map(|w| TimelineWindow {
            t_start: w as f64 * 12.5,
            finished: rng.count(),
            committed: rng.count(),
            committed_fresh: rng.count(),
        })
        .collect();
    r
}

/// The `to_json` digest of set `i`: every report the set draws, in order.
fn digest(i: u64) -> u64 {
    let mut rng = Rng(0x5712_1995 ^ i.wrapping_mul(0xA076_1D64_78BD_642F));
    let mut json = String::new();
    for bound in [5, 4] {
        for _ in 0..=rng.below(bound) {
            json.push_str(&random_report(&mut rng).to_json());
        }
    }
    fnv1a_64(json.as_bytes())
}

/// Taken at commit 2dde2a5.
#[rustfmt::skip]
const PINNED: [u64; 64] = [
    0x70aef33e12a0e70b,
    0xb163d6b9f846e5ef,
    0xe6bfbee153c94e8e,
    0xe92f14168db86703,
    0x3b07b6c337fb2320,
    0x0617913703ca54a0,
    0xd11cd8a4522aa594,
    0x22fbda549e70d394,
    0xeb98ed59dcdd5fd0,
    0x533d94e19c38a696,
    0x2dfe5c2c0bb41db3,
    0xef2bfaf9bfc6a52c,
    0xb2e2d617d663757f,
    0x66688ae484c90b9f,
    0x92bfbe816617bfff,
    0x38b7088dcc476089,
    0x15744338ccf5e95d,
    0x02570213b3bdada2,
    0xbc30621425438c40,
    0x7ea6596d8c6c19e9,
    0xc1c192ddec286ce0,
    0xf7b14639f61e9a55,
    0x7c5391a5e13ba64d,
    0x3731b3e74893d007,
    0x27b58e947098d56c,
    0x0d986d5b858a4774,
    0xa5d3cec73e4bd00c,
    0xcecd8bbefcd2910d,
    0xb4a25632f6de5d0e,
    0xc6e2112f622810bf,
    0xd7a650caadad1925,
    0x1c0f878fb907430f,
    0x01179c8c45ddd725,
    0x4a9c38f66e17c059,
    0x443630dc6727bde3,
    0x0184045cd1679325,
    0x5c557a9c829ec5e0,
    0x5fa28be13fc8290c,
    0xf233027d795c9a60,
    0x7b6bfa97a3b5b26f,
    0x4bcd4cf9e7fbcaa6,
    0xb39cfc7467564ce0,
    0x63e28ec08c78c842,
    0x3c48eea6f2afcf27,
    0x78f0c800808c158f,
    0x04a2a51e3dbedbfb,
    0xf58d27a5ae549632,
    0x30fd9fa8e9c1c840,
    0x8942fb5b30bf3f1a,
    0x949d6188f9b3c765,
    0xf5fec21f02f8b9d0,
    0xec6daa4041893015,
    0x01605a2cf0ac2de4,
    0xd0cd03a049204405,
    0x056afdc77084df63,
    0x58e7ee5234cd83dd,
    0xe9235a35d1c55ee3,
    0x4359d0de4f6fbd53,
    0xf0e06f28dbbc2b78,
    0xa6a58b573f6a7303,
    0xdfa1a14a7f2e5458,
    0x571c08c9b5f9d4a7,
    0x3389e5a9dbc55cc2,
    0x12fa1a91ce7daeab,
];

#[test]
fn table_walks_reproduce_the_hand_written_arithmetic() {
    let got: Vec<u64> = (0..64).map(digest).collect();
    if got != PINNED {
        let rows: Vec<String> = got.iter().map(|m| format!("    {m:#018x},")).collect();
        panic!("digests moved; actual table:\n{}", rows.join("\n"));
    }
}

#[test]
fn the_pinned_sets_cover_the_irregular_cases() {
    let mut rng = Rng(7);
    let reports: Vec<RunReport> = (0..200).map(|_| random_report(&mut rng)).collect();
    assert!(reports.iter().any(|r| r.resilience.recovery_secs.is_none()));
    assert!(reports.iter().any(|r| r.resilience.recovery_secs.is_some()));
    assert!(reports.iter().any(|r| r.txns.committed == 0));
    assert!(reports.iter().any(|r| r.timeline.is_empty()));
    assert!(reports.iter().any(|r| r.timeline.len() == 4));
}
