//! Pins the arithmetic of [`RunReport::merge_stripes`] and
//! [`RunReport::to_json`] bit-for-bit.
//!
//! The digests below were taken with the hand-written per-field traversals
//! (one `mu`/`mf`/`su`/`sf`/`mx` line per field) that preceded the field
//! table in `report.rs`; the table-driven walks must reproduce every one.
//! The generator names each field by hand on purpose: it is the independent
//! side of the comparison.

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
    // Ragged: replicas and stripes cover different numbers of windows.
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

/// The `merge_stripes` digest of set `i`.
fn digest(i: u64) -> u64 {
    let mut rng = Rng(0x5712_1995 ^ i.wrapping_mul(0xA076_1D64_78BD_642F));
    // The digests were taken when each set led with up to five reports for
    // a second walk; drawing them still keeps the stripe inputs, and so the
    // pinned digests, where they were.
    for _ in 0..=rng.below(5) {
        random_report(&mut rng);
    }
    let parts: Vec<RunReport> = (0..=rng.below(4))
        .map(|_| random_report(&mut rng))
        .collect();
    // A third of the partition sizes are zero; every eighth set owns no
    // objects at all (the zero-total-weight fold).
    let mut size = || match rng.below(3) {
        0 => 0,
        _ => rng.below(500) as u32,
    };
    let shapes: Vec<(u32, u32)> = parts
        .iter()
        .map(|_| (size(), size()))
        .map(|shape| if i % 8 == 7 { (0, 0) } else { shape })
        .collect();
    fnv1a_64(
        RunReport::merge_stripes(&parts, &shapes)
            .to_json()
            .as_bytes(),
    )
}

/// Taken at commit 487f25e (hand-written traversals).
#[rustfmt::skip]
const PINNED: [u64; 64] = [
    0x4e015205bbc4035b,
    0x64e7ca273e56565b,
    0xea1d5aad4ad44ba3,
    0xec8a0a7dc2e37e8f,
    0xc3e57e79a4eabe13,
    0xc654ddff22e74b83,
    0xbe23aded1fca677c,
    0xb09ef219dd993e73,
    0x160d7bed588431e7,
    0x2abcaf3bfc2b75f3,
    0x561b1032284ca276,
    0xb9d6bc38273a27aa,
    0xcc56aa912a1c37c9,
    0xda87c46cff534c9f,
    0x0079d52773efe3d7,
    0x3411c3c3607346fa,
    0x3f37aa6e469945c9,
    0x61a57941d94e29d6,
    0x4cec4984de3c953c,
    0x830a0c6e133d8aa6,
    0x0550efe88429f2fa,
    0x7e89c076972ef14d,
    0x374059a35a7cf4d4,
    0x35d6a81993a43f43,
    0xf439ac8e1df223d2,
    0x9724fcd4a1f86e35,
    0x6123cfd07bac335e,
    0x2ff378d8cd830d30,
    0x690ca03b2e61f83b,
    0x606e48c395423222,
    0x124cc537dc8cace8,
    0x4d9a8a41899ea792,
    0xbbe521c7fa5d3442,
    0xe72849272889eed6,
    0x7a3de52ce4cda43d,
    0x5159f8de7f3513d5,
    0xeb8f053915c42544,
    0x9c7b4f1cbdc49fca,
    0xd2add9e298ef7310,
    0xd3a37e43f9a5c2ae,
    0x5c123ca4725fe114,
    0x00288ada608ce5eb,
    0x49edb600d3e4e6b2,
    0x959b67b9e9aac302,
    0x76c73e4b2e22d1b5,
    0x1e12495f2c8a0c7c,
    0xcd7fc3b9aeb16440,
    0xa4f182ed432ecc51,
    0x32a5a13f28c45af0,
    0x698e5e4f053d3420,
    0x0589b3579ab8bd2d,
    0xa164a70f6d5194b7,
    0x475d2cc827ec0cd9,
    0x798bb984eeefc6a3,
    0xbdabf173ae7d0ba3,
    0xd4746ffea9c3e73e,
    0xa36803a9f0fc7c1c,
    0x186b04a3b4708e7d,
    0x4a70a6289dffb23a,
    0x33a9c368b063c785,
    0x8bb9aaf6974620d2,
    0x9a6ca5e0095f579b,
    0xc9f6a5c6fa23a0c8,
    0x5413b17bebb001c8,
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
