//! Property tests for the WAL wire formats: records, segment headers, and
//! whole-segment scans must round-trip exactly, reject every single-byte
//! corruption, and recover the longest valid prefix from a torn tail at
//! any byte offset — the invariants crash recovery stands on.

use proptest::prelude::*;
use strip_core::config::SimConfig;
use strip_core::config_fingerprint;
use strip_db::store::Store;
use strip_live::protocol::WireUpdate;
use strip_live::wal::{
    rotated_segment_name, scan_segment, DurabilityConfig, SegmentHeader, WalError, WalRecord,
    HDR_LEN, REC_LEN, REC_SEAL, SEGMENT_FILE,
};
use strip_live::{recover, snapshot, LiveConfig, Recovered};

fn update_strategy() -> impl Strategy<Value = WireUpdate> {
    (
        0u8..2,
        0u32..u32::MAX,
        i64::MIN..i64::MAX,
        -1e12f64..1e12,
        0u64..u64::MAX,
    )
        .prop_map(
            |(class, index, generation_micros, payload, attr_mask)| WireUpdate {
                class,
                index,
                generation_micros,
                payload,
                attr_mask,
            },
        )
}

fn record_strategy() -> impl Strategy<Value = WalRecord> {
    prop_oneof![
        7 => (0u64..u64::MAX, update_strategy(), i64::MIN..i64::MAX)
            .prop_map(|(seq, u, arrival)| WalRecord::update(seq, u, arrival)),
        1 => (0u64..u64::MAX).prop_map(WalRecord::seal),
    ]
}

/// A header plus `records` encoded back-to-back, as the flusher writes them.
fn encode_segment(fingerprint: u64, base_seq: u64, records: &[WalRecord]) -> Vec<u8> {
    let mut bytes = SegmentHeader {
        fingerprint,
        base_seq,
    }
    .encode()
    .to_vec();
    for rec in records {
        bytes.extend_from_slice(&rec.encode());
    }
    bytes
}

proptest! {
    #[test]
    fn record_round_trips(rec in record_strategy()) {
        let decoded = WalRecord::decode(&rec.encode()).expect("valid record");
        prop_assert_eq!(decoded, rec);
    }

    #[test]
    fn record_rejects_single_byte_corruption(
        rec in record_strategy(),
        pos in 0usize..REC_LEN,
        bit in 0u32..8,
    ) {
        let mut bytes = rec.encode();
        bytes[pos] ^= 1 << bit;
        let err = WalRecord::decode(&bytes).expect_err("corruption undetected");
        prop_assert!(matches!(err, WalError::BadCrc | WalError::BadKind(_)));
    }

    #[test]
    fn header_round_trips(fingerprint in 0u64..u64::MAX, base_seq in 0u64..u64::MAX) {
        let hdr = SegmentHeader { fingerprint, base_seq };
        let decoded = SegmentHeader::decode(&hdr.encode()).expect("valid header");
        prop_assert_eq!(decoded, hdr);
    }

    #[test]
    fn header_rejects_single_byte_corruption(
        fingerprint in 0u64..u64::MAX,
        base_seq in 0u64..u64::MAX,
        pos in 0usize..HDR_LEN,
        bit in 0u32..8,
    ) {
        let mut bytes = SegmentHeader { fingerprint, base_seq }.encode();
        bytes[pos] ^= 1 << bit;
        prop_assert!(SegmentHeader::decode(&bytes).is_err());
    }

    #[test]
    fn torn_tail_recovers_longest_valid_prefix(
        records in prop::collection::vec(record_strategy(), 0..12),
        fingerprint in 0u64..u64::MAX,
        cut_back in 0usize..REC_LEN * 12,
    ) {
        // Drop seals mid-stream: a seal legitimately ends the scan early,
        // which is the one case where "longest prefix" is not the whole
        // vector. Sealing is covered separately below.
        let records: Vec<WalRecord> =
            records.into_iter().filter(|r| r.kind != REC_SEAL).collect();
        let full = encode_segment(fingerprint, 0, &records);
        // Tear anywhere from "just the header" to the full length.
        let cut = full.len().saturating_sub(cut_back).max(HDR_LEN);
        let scan = scan_segment(&full[..cut], fingerprint).expect("header intact");
        let whole = (cut - HDR_LEN) / REC_LEN;
        prop_assert_eq!(scan.records.len(), whole);
        prop_assert_eq!(&scan.records[..], &records[..whole]);
        prop_assert_eq!(
            scan.discarded,
            u64::from(!(cut - HDR_LEN).is_multiple_of(REC_LEN))
        );
        prop_assert!(!scan.sealed);
    }

    #[test]
    fn sealed_segment_scans_clean_with_zero_discard(
        records in prop::collection::vec(record_strategy(), 0..12),
        fingerprint in 0u64..u64::MAX,
        garbage in prop::collection::vec(0u8..u8::MAX, 0..70),
    ) {
        let records: Vec<WalRecord> =
            records.into_iter().filter(|r| r.kind != REC_SEAL).collect();
        let mut bytes = encode_segment(fingerprint, 0, &records);
        bytes.extend_from_slice(&WalRecord::seal(records.len() as u64).encode());
        // Anything after the seal is stale pre-truncation leftover.
        bytes.extend_from_slice(&garbage);
        let scan = scan_segment(&bytes, fingerprint).expect("header intact");
        prop_assert!(scan.sealed);
        prop_assert_eq!(scan.discarded, 0);
        prop_assert_eq!(scan.records.len(), records.len() + 1);
        prop_assert_eq!(scan.records[records.len()].seq, records.len() as u64);
    }

    #[test]
    fn scan_rejects_wrong_fingerprint(
        records in prop::collection::vec(record_strategy(), 0..4),
        fingerprint in 0u64..u64::MAX - 1,
    ) {
        let bytes = encode_segment(fingerprint, 0, &records);
        prop_assert!(matches!(
            scan_segment(&bytes, fingerprint + 1),
            Err(WalError::FingerprintMismatch { .. })
        ));
    }
}

/// A live config over a tiny store, durable into `dir`, for driving
/// `recover()` against hand-written segment chains.
fn chain_config(dir: &std::path::Path) -> LiveConfig {
    let sim = SimConfig::builder()
        .n_low(8)
        .n_high(8)
        .lambda_u(0.0)
        .lambda_t(0.0)
        .build()
        .expect("valid config");
    let mut cfg = LiveConfig::with_quantum(sim, 500e-6).expect("valid live config");
    cfg.durability = Some(DurabilityConfig::new(dir));
    cfg
}

/// An update record that recovery will accept (class and index inside the
/// `chain_config` store shape), with sequence numbers assigned in order.
fn chain_update(seq: u64) -> WalRecord {
    WalRecord::update(
        seq,
        WireUpdate {
            class: (seq % 2) as u8,
            index: (seq % 8) as u32,
            generation_micros: (seq as i64) * 1_000,
            payload: seq as f64,
            attr_mask: u64::MAX,
        },
        (seq as i64) * 1_000 + 7,
    )
}

fn fresh_chain_dir(tag: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static CASE: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "strip-wal-chain-{tag}-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

/// A store as snapshot bytes stamped `next_seq`.
fn image(cfg: &LiveConfig, store: &Store, next_seq: u64) -> Vec<u8> {
    let attrs = cfg.sim.attrs_per_object.max(1);
    snapshot::encode(store, attrs, config_fingerprint(&cfg.sim), next_seq)
}

/// `recover` twice is `recover` once: the second pass finds everything in
/// the re-base image and replays nothing.
fn assert_recovery_is_idempotent(cfg: &LiveConfig, once: &Recovered) {
    let twice = recover(cfg).expect("second recovery");
    assert_eq!(twice.replayed, 0);
    assert_eq!(twice.next_seq, once.next_seq);
    assert!(
        image(cfg, &twice.store, twice.next_seq) == image(cfg, &once.store, once.next_seq),
        "stores differ"
    );
}

proptest! {
    // The full rotation contract, end to end through `recover()`: a chain
    // of sealed links followed by an active segment torn at an arbitrary
    // byte (including exactly at a record boundary, and inside the header)
    // must replay every record in every sealed link plus the longest valid
    // prefix of the tail, discard at most the one torn record, and leave
    // `next_seq` pointing one past the last replayed update.
    #[test]
    fn recovery_replays_rotated_chain_and_tolerates_torn_tail(
        per_link in prop::collection::vec(1usize..6, 0..4),
        tail in 0usize..8,
        cut_back in 0usize..REC_LEN * 2,
    ) {
        let dir = fresh_chain_dir("replay");
        let cfg = chain_config(&dir);
        let fingerprint = config_fingerprint(&cfg.sim);

        let mut seq = 0u64;
        for (idx, n) in per_link.iter().enumerate() {
            let mut records: Vec<WalRecord> = (0..*n)
                .map(|_| {
                    let r = chain_update(seq);
                    seq += 1;
                    r
                })
                .collect();
            let base = records[0].seq;
            records.push(WalRecord::seal(seq));
            std::fs::write(
                dir.join(rotated_segment_name(idx as u64)),
                encode_segment(fingerprint, base, &records),
            )
            .expect("write link");
        }
        let chain_records = seq;
        let active: Vec<WalRecord> = (0..tail)
            .map(|_| {
                let r = chain_update(seq);
                seq += 1;
                r
            })
            .collect();
        let mut bytes = encode_segment(fingerprint, chain_records, &active);
        let cut = bytes.len().saturating_sub(cut_back);
        bytes.truncate(cut);
        std::fs::write(dir.join(SEGMENT_FILE), &bytes).expect("write active");

        let rec = recover(&cfg).expect("chain recovers");
        // A tail torn inside its header holds no record; the torn bytes
        // count like any other torn record.
        let (whole_tail, torn) = match cut.checked_sub(HDR_LEN) {
            Some(body) => ((body / REC_LEN) as u64, !body.is_multiple_of(REC_LEN)),
            None => (0, cut > 0),
        };
        prop_assert_eq!(rec.replayed, chain_records + whole_tail);
        prop_assert_eq!(rec.discarded, u64::from(torn));
        prop_assert_eq!(rec.next_seq, rec.replayed);
        prop_assert!(!rec.snapshot_loaded);
        assert_recovery_is_idempotent(&cfg, &rec);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Writes the directory's snapshot: the initial store, stamped `next_seq`.
fn write_image(cfg: &LiveConfig, next_seq: u64) {
    let store = strip_core::scheduler::initial_store(&cfg.sim);
    let dir = &cfg.durability.as_ref().expect("durable config").dir;
    snapshot::write_atomic(dir, &image(cfg, &store, next_seq)).expect("write image");
}

/// Writes sealed link `idx` holding updates `seqs` and the seal after them.
fn write_link(dir: &std::path::Path, fingerprint: u64, idx: u64, seqs: std::ops::Range<u64>) {
    let mut records: Vec<WalRecord> = seqs.clone().map(chain_update).collect();
    records.push(WalRecord::seal(seqs.end));
    std::fs::write(
        dir.join(rotated_segment_name(idx)),
        encode_segment(fingerprint, seqs.start, &records),
    )
    .expect("write link");
}

#[test]
fn recovery_rejects_torn_or_unsealed_interior_link() {
    // Rotation seals and fsyncs a link before the next one exists, so an
    // interior link that is torn, unsealed, shorter than its header or
    // absent means acknowledged records are gone; recovery must refuse
    // rather than skip silently.
    for case in ["torn seal", "unsealed", "headerless", "missing link"] {
        let dir = fresh_chain_dir("torn");
        let cfg = chain_config(&dir);
        let fingerprint = config_fingerprint(&cfg.sim);
        write_link(&dir, fingerprint, 0, 0..4);
        write_link(&dir, fingerprint, 1, 4..8);
        write_link(&dir, fingerprint, 2, 8..10);
        std::fs::write(
            dir.join(SEGMENT_FILE),
            encode_segment(fingerprint, 10, &[WalRecord::seal(10)]),
        )
        .expect("write active");
        assert_eq!(recover(&cfg).expect("intact chain").replayed, 10);

        let link = dir.join(rotated_segment_name(1));
        let intact = std::fs::read(&link).expect("read link");
        match case {
            "torn seal" => std::fs::write(&link, &intact[..intact.len() - REC_LEN / 2]),
            "unsealed" => std::fs::write(&link, &intact[..intact.len() - REC_LEN]),
            "headerless" => std::fs::write(&link, &intact[..HDR_LEN - 1]),
            _ => std::fs::remove_file(&link),
        }
        .expect("damage link");
        // The first recovery re-based at 10; start over from the log alone.
        std::fs::remove_file(dir.join("snapshot.bin")).expect("remove image");
        let err = recover(&cfg).expect_err("interior damage must abort");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{case}: {err}");
        if case == "missing link" {
            assert!(err.to_string().contains("4..8"), "range not named: {err}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn recovery_tolerates_an_active_segment_torn_inside_its_header() {
    // `begin` truncates the active segment, then writes its header. A crash
    // between the two — in a fresh start, a rotation or a snapshot cut —
    // loses nothing, so recovery must boot from what stands beside it.
    for beside in ["nothing", "a sealed chain", "a snapshot"] {
        for short in [0, HDR_LEN - 1] {
            let dir = fresh_chain_dir("headerless");
            let cfg = chain_config(&dir);
            let fingerprint = config_fingerprint(&cfg.sim);
            let covered = match beside {
                "a sealed chain" => {
                    write_link(&dir, fingerprint, 0, 0..3);
                    3
                }
                "a snapshot" => {
                    write_image(&cfg, 5);
                    5
                }
                _ => 0,
            };
            let header = SegmentHeader {
                fingerprint,
                base_seq: covered,
            }
            .encode();
            std::fs::write(dir.join(SEGMENT_FILE), &header[..short]).expect("write active");

            let rec = recover(&cfg).unwrap_or_else(|e| panic!("beside {beside}, {short} B: {e}"));
            assert_eq!(rec.next_seq, covered, "beside {beside}");
            assert_eq!(rec.replayed, if beside == "a sealed chain" { 3 } else { 0 });
            assert_eq!(rec.discarded, u64::from(short > 0));
            assert_eq!(rec.snapshot_loaded, beside == "a snapshot");
            assert_recovery_is_idempotent(&cfg, &rec);

            // A full-length header that fails its checks is damage, not a
            // torn tail: still refused.
            let mut bad = header;
            bad[HDR_LEN - 1] ^= 1;
            std::fs::write(dir.join(SEGMENT_FILE), bad).expect("write active");
            assert!(
                recover(&cfg).is_err(),
                "beside {beside}: bad header accepted"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// One state a crashed transition leaves on disk, and what recovery must
/// make of it. Links and the active segment hold updates `from..to`.
struct Crashed {
    at: &'static str,
    snapshot: Option<u64>,
    links: &'static [(u64, u64)],
    /// `(base_seq, from, to)`.
    active: Option<(u64, u64, u64)>,
    replayed: u64,
    next_seq: u64,
}

#[test]
fn recovery_accepts_every_state_a_crashed_transition_leaves() {
    // Rows of the crash table in DESIGN.md §14 that the tests above do not
    // reach.
    #[rustfmt::skip]
    let rows = [
        Crashed { at: "rotate: renamed, before begin",
                  snapshot: None, links: &[(0, 4)], active: None, replayed: 4, next_seq: 4 },
        Crashed { at: "cut: image replaced, before begin",
                  snapshot: Some(6), links: &[(0, 4)], active: Some((4, 4, 6)), replayed: 0, next_seq: 6 },
        // The fresh header sits above the stale chain's last seal: not a
        // gap, the image covers what lies between.
        Crashed { at: "cut: begun, chain not yet unlinked",
                  snapshot: Some(6), links: &[(0, 4)], active: Some((6, 6, 6)), replayed: 0, next_seq: 6 },
        Crashed { at: "cut: chain half unlinked",
                  snapshot: Some(10), links: &[(0, 4)], active: Some((10, 10, 12)), replayed: 2, next_seq: 12 },
        Crashed { at: "start after recover: chain unlinked, before begin",
                  snapshot: Some(6), links: &[], active: Some((4, 4, 6)), replayed: 0, next_seq: 6 },
        Crashed { at: "fresh start: active unlinked, rest of the old run still there",
                  snapshot: Some(6), links: &[(6, 8)], active: None, replayed: 2, next_seq: 8 },
    ];
    for row in rows {
        let dir = fresh_chain_dir("crashed");
        let cfg = chain_config(&dir);
        let fingerprint = config_fingerprint(&cfg.sim);
        if let Some(stamp) = row.snapshot {
            write_image(&cfg, stamp);
        }
        for (idx, &(from, to)) in row.links.iter().enumerate() {
            write_link(&dir, fingerprint, idx as u64, from..to);
        }
        if let Some((base, from, to)) = row.active {
            let records: Vec<WalRecord> = (from..to).map(chain_update).collect();
            std::fs::write(
                dir.join(SEGMENT_FILE),
                encode_segment(fingerprint, base, &records),
            )
            .expect("write active");
        }
        let rec = recover(&cfg).unwrap_or_else(|e| panic!("{}: {e}", row.at));
        assert_eq!(rec.replayed, row.replayed, "{}", row.at);
        assert_eq!(rec.next_seq, row.next_seq, "{}", row.at);
        assert_eq!(rec.discarded, 0, "{}", row.at);
        assert_recovery_is_idempotent(&cfg, &rec);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
