//! Property tests for the WAL wire formats: records, batches, segment
//! headers, and whole-segment scans must round-trip exactly, reject every
//! single-byte corruption, and recover the longest valid prefix from a
//! torn tail at any byte offset — the invariants crash recovery stands on.

use proptest::prelude::*;
use strip_core::config::SimConfig;
use strip_core::config_fingerprint;
use strip_db::store::Store;
use strip_live::protocol::{encode_batch_body, WireUpdate};
use strip_live::wal::{
    crc32, encode_run, rotated_segment_name, scan_segment, DurabilityConfig, FsyncPolicy,
    SegmentHeader, WalError, WalHandle, WalRecord, HDR_LEN, REC_BATCH, REC_LEN, REC_SEAL,
    REC_UPDATE, RUN_HEAD, SEGMENT_FILE, WAL_VERSION,
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

/// Runs of one to five updates, each run at its own arrival instant.
fn runs_strategy() -> impl Strategy<Value = Vec<(i64, Vec<WireUpdate>)>> {
    prop::collection::vec(
        (
            i64::MIN..i64::MAX,
            prop::collection::vec(update_strategy(), 1..6),
        ),
        0..6,
    )
}

/// Appends `runs` from sequence number `seq` to `bytes` as the flusher
/// writes them; returns the records a scan must yield and, per record
/// written, its end offset and how many of those records end by it.
fn append_runs(
    bytes: &mut Vec<u8>,
    mut seq: u64,
    runs: &[(i64, Vec<WireUpdate>)],
) -> (Vec<WalRecord>, Vec<(usize, usize)>) {
    let mut records = Vec::new();
    let mut ends = Vec::new();
    for (arrival, updates) in runs {
        encode_run(bytes, seq, *arrival, updates);
        for u in updates {
            records.push(WalRecord::update(seq, *u, *arrival));
            seq += 1;
        }
        ends.push((bytes.len(), records.len()));
    }
    (records, ends)
}

/// A header only, as [`SegmentHeader::encode`] writes it.
fn header(fingerprint: u64, base_seq: u64) -> Vec<u8> {
    let bytes = SegmentHeader {
        fingerprint,
        base_seq,
    }
    .encode();
    assert_eq!(bytes[8..12], WAL_VERSION.to_le_bytes());
    bytes.to_vec()
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
    fn a_segment_of_runs_cut_anywhere_keeps_the_whole_records_before_the_cut(
        runs in runs_strategy(),
        fingerprint in 0u64..u64::MAX,
        base in 0u64..u64::MAX / 2,
    ) {
        let mut full = header(fingerprint, base);
        let (records, ends) = append_runs(&mut full, base, &runs);
        let scan = scan_segment(&full, fingerprint).expect("header intact");
        prop_assert_eq!(&scan.records, &records);
        for cut in HDR_LEN..=full.len() {
            let scan = scan_segment(&full[..cut], fingerprint).expect("header intact");
            let (end, whole) = ends
                .iter()
                .rev()
                .find(|(end, _)| *end <= cut)
                .copied()
                .unwrap_or((HDR_LEN, 0));
            prop_assert_eq!(&scan.records[..], &records[..whole], "cut at {}", cut);
            prop_assert_eq!(scan.discarded, u64::from(cut > end), "cut at {}", cut);
            prop_assert!(!scan.sealed);
        }
    }

    #[test]
    fn flipping_any_byte_of_a_batch_drops_it_and_every_record_after_it(
        before in runs_strategy(),
        batch in prop::collection::vec(update_strategy(), 2..6),
        arrival in i64::MIN..i64::MAX,
        after in runs_strategy(),
        fingerprint in 0u64..u64::MAX,
        flip in 1u8..u8::MAX,
    ) {
        let mut bytes = header(fingerprint, 0);
        let (kept, _) = append_runs(&mut bytes, 0, &before);
        let at = bytes.len();
        encode_run(&mut bytes, kept.len() as u64, arrival, &batch);
        let end = bytes.len();
        prop_assert_eq!(bytes[at], REC_BATCH);
        append_runs(&mut bytes, (kept.len() + batch.len()) as u64, &after);
        // Kind, first seq, count, arrival, every entry, the CRC.
        for pos in at..end {
            let mut bad = bytes.clone();
            bad[pos] ^= flip;
            let scan = scan_segment(&bad, fingerprint).expect("header intact");
            prop_assert_eq!(&scan.records, &kept, "byte {} of the batch", pos - at);
            prop_assert!(scan.discarded >= 1);
        }
    }

    // D7: a count is read before the checksum that covers it, so it may
    // be anything. It sizes no allocation and indexes nothing before the
    // checksum passes, whether the bytes it claims are there or not.
    #[test]
    fn a_corrupt_count_sizes_nothing_and_panics_nowhere(
        before in runs_strategy(),
        count in 1024u16..u16::MAX,
        filled in 0usize..3,
        seq in 0u64..u64::MAX,
    ) {
        let mut bytes = header(1, 0);
        let (kept, _) = append_runs(&mut bytes, 0, &before);
        bytes.push(REC_BATCH);
        bytes.extend_from_slice(&seq.to_le_bytes());
        bytes.extend_from_slice(&count.to_le_bytes());
        bytes.extend_from_slice(&7i64.to_le_bytes());
        // None, some, or every byte the count claims (and a CRC that fails).
        let claimed = usize::from(count) * 29 + 4;
        bytes.resize(bytes.len() + claimed * filled / 2, 0x5A);
        let scan = scan_segment(&bytes, 1).expect("header intact");
        prop_assert_eq!(&scan.records, &kept);
        prop_assert_eq!(scan.discarded, 1);
        prop_assert!(
            scan.records.capacity() <= 2 * kept.len() + 8,
            "capacity {} for {} records",
            scan.records.capacity(),
            kept.len()
        );
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
        run in 1usize..4,
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
        // The active segment holds the tail in runs of `run` updates, each
        // run at one instant: batches, and a record of its own for a run
        // of one.
        let chain_records = seq;
        let mut bytes = header(fingerprint, chain_records);
        let runs: Vec<(i64, Vec<WireUpdate>)> = (chain_records..chain_records + tail as u64)
            .map(chain_update)
            .collect::<Vec<_>>()
            .chunks(run)
            .map(|g| (g[0].arrival_micros, g.iter().map(|r| r.update).collect()))
            .collect();
        let (_, ends) = append_runs(&mut bytes, chain_records, &runs);
        let cut = bytes.len().saturating_sub(cut_back);
        bytes.truncate(cut);
        std::fs::write(dir.join(SEGMENT_FILE), &bytes).expect("write active");

        let rec = recover(&cfg).expect("chain recovers");
        // A tail torn inside its header holds no record; the torn bytes
        // count like any other torn record.
        let (whole_tail, torn) = if cut < HDR_LEN {
            (0, cut > 0)
        } else {
            let (end, whole) = ends
                .iter()
                .rev()
                .find(|(end, _)| *end <= cut)
                .copied()
                .unwrap_or((HDR_LEN, 0));
            (whole as u64, cut > end)
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
    // Rows of the crash table in DESIGN.md §10 that the tests above do not
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

/// `header(fingerprint, base_seq)` as the build before batches wrote it:
/// version 1.
fn version_1_header(fingerprint: u64, base_seq: u64) -> Vec<u8> {
    let mut bytes = header(fingerprint, base_seq);
    bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
    let crc = crc32(&bytes[..HDR_LEN - 4]);
    bytes[HDR_LEN - 4..].copy_from_slice(&crc.to_le_bytes());
    bytes
}

#[test]
fn a_version_1_segment_and_a_segment_of_all_three_kinds_recover_in_full() {
    // Version 1: 50-byte update records, a sealed link and the active tail.
    let dir = fresh_chain_dir("version-1");
    let cfg = chain_config(&dir);
    let fingerprint = config_fingerprint(&cfg.sim);
    let mut link = version_1_header(fingerprint, 0);
    for seq in 0..5 {
        link.extend_from_slice(&chain_update(seq).encode());
    }
    link.extend_from_slice(&WalRecord::seal(5).encode());
    std::fs::write(dir.join(rotated_segment_name(0)), &link).expect("write link");
    let mut active = version_1_header(fingerprint, 5);
    for seq in 5..9 {
        active.extend_from_slice(&chain_update(seq).encode());
    }
    std::fs::write(dir.join(SEGMENT_FILE), &active).expect("write active");
    let rec = recover(&cfg).expect("a version-1 chain recovers");
    assert_eq!((rec.replayed, rec.next_seq, rec.discarded), (9, 9, 0));
    assert_recovery_is_idempotent(&cfg, &rec);
    let _ = std::fs::remove_dir_all(&dir);

    // Version 2: a link of an update, a batch and a seal; an active
    // segment of a batch and an update.
    let dir = fresh_chain_dir("all-kinds");
    let cfg = chain_config(&dir);
    let run = |seqs: std::ops::Range<u64>| {
        let records: Vec<WalRecord> = seqs.map(chain_update).collect();
        let updates: Vec<WireUpdate> = records.iter().map(|r| r.update).collect();
        (records[0].seq, records[0].arrival_micros, updates)
    };
    let mut link = header(fingerprint, 0);
    for (first, arrival, updates) in [run(0..1), run(1..6)] {
        encode_run(&mut link, first, arrival, &updates);
    }
    link.extend_from_slice(&WalRecord::seal(6).encode());
    assert_eq!(
        [
            link[HDR_LEN],
            link[HDR_LEN + REC_LEN],
            link[link.len() - REC_LEN]
        ],
        [REC_UPDATE, REC_BATCH, REC_SEAL]
    );
    std::fs::write(dir.join(rotated_segment_name(0)), &link).expect("write link");
    let mut active = header(fingerprint, 6);
    for (first, arrival, updates) in [run(6..10), run(10..11)] {
        encode_run(&mut active, first, arrival, &updates);
    }
    std::fs::write(dir.join(SEGMENT_FILE), &active).expect("write active");
    let rec = recover(&cfg).expect("a chain of all three kinds recovers");
    assert_eq!((rec.replayed, rec.next_seq, rec.discarded), (11, 11, 0));
    assert_recovery_is_idempotent(&cfg, &rec);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The log a [`WalHandle`] writes for `log` into a fresh directory under
/// `tag`, sealed, as its active segment's bytes.
fn logged(tag: &str, log: impl FnOnce(&mut WalHandle)) -> Vec<u8> {
    let dir = fresh_chain_dir(tag);
    let mut cfg = DurabilityConfig::new(&dir);
    cfg.fsync = FsyncPolicy::Off;
    cfg.snapshot_secs = f64::INFINITY;
    let mut wal = WalHandle::start(&cfg, 0x5EED_F00D, 0).expect("start the log");
    log(&mut wal);
    wal.seal().expect("seal");
    let bytes = std::fs::read(dir.join(SEGMENT_FILE)).expect("the active segment");
    let _ = std::fs::remove_dir_all(&dir);
    bytes
}

/// A block's wire buffer as a logging session fills it: a zeroed run
/// head, then the wire entries of `updates`.
fn block_wire(updates: &[WireUpdate]) -> Vec<u8> {
    let mut body = Vec::new();
    encode_batch_body(&mut body, updates).expect("a frame's worth");
    let mut wire = vec![0; RUN_HEAD];
    wire.extend_from_slice(&body[1 + 4..]);
    wire
}

proptest! {
    // The two ways into the log write the same updates: blocks moved in
    // whole (`append_run`, the session path) and one update at a time
    // (`append`, the in-process path, which also joins neighbouring runs
    // of one arrival). Their segments may cut records differently; the
    // records a scan yields — seq, update, arrival — are equal.
    #[test]
    fn blocks_and_single_appends_log_equal_records(
        runs in prop::collection::vec(
            (0i64..3, prop::collection::vec(update_strategy(), 1..40)),
            0..8,
        ),
    ) {
        let mut expected = Vec::new();
        let mut seq = 0;
        for (arrival, updates) in &runs {
            for u in updates {
                expected.push(WalRecord::update(seq, *u, *arrival));
                seq += 1;
            }
        }
        let blocks = logged("as-blocks", |wal| {
            let mut seq = 0;
            for (arrival, updates) in &runs {
                wal.append_run(seq, *arrival, block_wire(updates));
                seq += updates.len() as u64;
            }
        });
        let singles = logged("as-singles", |wal| {
            for r in &expected {
                wal.append(r.seq, r.update, r.arrival_micros);
            }
        });
        for bytes in [&blocks, &singles] {
            let scan = scan_segment(bytes, 0x5EED_F00D).expect("the segment scans");
            prop_assert!(scan.sealed);
            prop_assert_eq!(scan.discarded, 0);
            prop_assert_eq!(&scan.records[..expected.len()], &expected[..]);
            prop_assert_eq!(scan.records.len(), expected.len() + 1);
        }
    }
}

/// An update of the records `golden/wal_v2_segment.seg` holds.
fn fixture_update(seq: u64) -> WireUpdate {
    WireUpdate {
        class: (seq % 2) as u8,
        index: (seq * 7 % 1_000) as u32,
        generation_micros: (seq as i64) * 131 - 5_000,
        payload: 0.25 + seq as f64,
        attr_mask: u64::MAX >> (seq % 17),
    }
}

/// The records `golden/wal_v2_segment.seg` holds before its seal: runs of
/// 1 to 40 updates, neighbours sharing an arrival, a sequence gap.
fn fixture_records() -> Vec<WalRecord> {
    // (updates, seq gap before, arrival µs)
    let runs = [
        (1, 0, 10),
        (3, 0, 10),
        (1, 0, 11),
        (1, 0, 12),
        (17, 0, 12),
        (2, 10, 13),
        (40, 0, 14),
        (1, 0, 15),
        (5, 0, 15),
    ];
    let mut records = Vec::new();
    let mut seq = 0;
    for (len, gap, arrival) in runs {
        seq += gap;
        for _ in 0..len {
            records.push(WalRecord::update(seq, fixture_update(seq), arrival));
            seq += 1;
        }
    }
    records
}

/// `golden/wal_v2_segment.seg` was written, through `WalHandle::append`,
/// by the build whose executor copied each update into a chunk of 256
/// and whose flusher found the runs: it scans to the records appended,
/// and the same appends today write the same bytes, so the format on
/// disk has not moved.
#[test]
fn a_segment_the_chunked_build_wrote_scans_to_equal_records() {
    let golden = include_bytes!("golden/wal_v2_segment.seg");
    let records = fixture_records();
    let scan = scan_segment(golden, 0x5EED_F00D).expect("the segment scans");
    assert!(scan.sealed);
    assert_eq!(scan.discarded, 0);
    assert_eq!(scan.records[..records.len()], records[..]);
    assert_eq!(scan.records.len(), records.len() + 1);
    let today = logged("golden-again", |wal| {
        for r in &records {
            wal.append(r.seq, r.update, r.arrival_micros);
        }
    });
    assert_eq!(today[..], golden[..]);
}
