//! Property tests: every wire message survives an encode → decode
//! round-trip unchanged, including the zero-length and maximum-size
//! edges of the variable-length frames.

use proptest::prelude::*;
use strip_live::protocol::{
    decode_body, read_msg, write_msg, Msg, ProtoError, WireDerivedQuery, WireDerivedQueryResponse,
    WireQuery, WireQueryResponse, WireStats, WireTxn, WireUpdate, MAX_BATCH_UPDATES, MAX_TXN_READS,
};

/// Encodes `msg` into a buffer and decodes it back out.
fn round_trip(msg: &Msg) -> Msg {
    let mut buf = Vec::new();
    write_msg(&mut buf, msg).expect("encode into Vec");
    let mut cursor = &buf[..];
    let decoded = read_msg(&mut cursor)
        .expect("decode")
        .expect("one full frame present");
    assert!(cursor.is_empty(), "frame left trailing bytes");
    decoded
}

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

fn txn_strategy() -> impl Strategy<Value = WireTxn> {
    (
        (0u64..u64::MAX, 0u8..2, -1e9f64..1e9),
        (0u64..u64::MAX, 0u64..u64::MAX),
        prop::collection::vec((0u8..2, 0u32..u32::MAX), 0..40),
    )
        .prop_map(
            |((id, class, value), (slack_micros, compute_micros), reads)| WireTxn {
                id,
                class,
                value,
                slack_micros,
                compute_micros,
                reads,
            },
        )
}

fn stats_strategy() -> impl Strategy<Value = WireStats> {
    (
        (
            0u64..u64::MAX,
            0u64..u64::MAX,
            0u64..u64::MAX,
            0u64..u64::MAX,
            0u64..u64::MAX,
        ),
        (
            0u64..u64::MAX,
            0u64..u64::MAX,
            0u64..u64::MAX,
            0u64..u64::MAX,
            0u64..u64::MAX,
        ),
        (0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0, 0.0f64..1e9),
    )
        .prop_map(
            |(
                (ingested, applied, superseded, shed, queued),
                (txns_arrived, txns_committed, txns_missed, os_depth, uq_depth),
                (fold_low, fold_high, p_md, av),
            )| WireStats {
                ingested,
                applied,
                superseded,
                shed,
                queued,
                txns_arrived,
                txns_committed,
                txns_missed,
                os_depth,
                uq_depth,
                fold_low,
                fold_high,
                p_md,
                av,
            },
        )
}

fn msg_strategy() -> impl Strategy<Value = Msg> {
    prop_oneof![
        3 => txn_strategy().prop_map(Msg::Txn),
        3 => prop::collection::vec(update_strategy(), 0..60).prop_map(Msg::UpdateBatch),
        1 => Just(Msg::CreditRequest),
        1 => (0u64..u64::MAX).prop_map(Msg::Credit),
        2 => (0u8..2, 0u32..u32::MAX).prop_map(|(class, index)| Msg::Query(WireQuery { class, index })),
        1 => Just(Msg::StatsRequest),
        1 => Just(Msg::ReportRequest),
        1 => Just(Msg::Shutdown),
        2 => (-1e12f64..1e12, i64::MIN..i64::MAX, i64::MIN..i64::MAX, 0u8..2).prop_map(
            |(payload, generation_micros, age_micros, uu_stale)| {
                Msg::QueryResponse(WireQueryResponse {
                    payload,
                    generation_micros,
                    age_micros,
                    uu_stale,
                })
            }
        ),
        2 => stats_strategy().prop_map(Msg::StatsResponse),
        1 => prop::collection::vec(32u8..127, 0..200).prop_map(|bytes| {
            Msg::ReportJson(String::from_utf8(bytes).expect("printable ascii"))
        }),
        2 => (0u32..u32::MAX).prop_map(|node| Msg::DerivedQuery(WireDerivedQuery { node })),
        2 => (-1e12f64..1e12, 0u8..3, 0u8..2).prop_map(|(value, stale, refreshed)| {
            Msg::DerivedQueryResponse(WireDerivedQueryResponse {
                value,
                stale,
                refreshed,
            })
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn any_message_round_trips(msg in msg_strategy()) {
        prop_assert_eq!(round_trip(&msg), msg);
    }

    #[test]
    fn update_batches_round_trip_at_any_length(
        updates in prop::collection::vec(update_strategy(), 0..200),
    ) {
        let msg = Msg::UpdateBatch(updates);
        prop_assert_eq!(round_trip(&msg), msg);
    }

    #[test]
    fn txn_read_sets_round_trip_at_any_length(
        n in 0usize..200,
        seed in 0u64..u64::MAX,
    ) {
        let reads: Vec<(u8, u32)> = (0..n)
            .map(|i| ((i % 2) as u8, (seed as u32).wrapping_add(i as u32)))
            .collect();
        let msg = Msg::Txn(WireTxn {
            id: seed,
            class: (seed % 2) as u8,
            value: 1.0,
            slack_micros: seed >> 1,
            compute_micros: seed >> 2,
            reads,
        });
        prop_assert_eq!(round_trip(&msg), msg);
    }
}

/// Zero-length edges: an empty read set, an empty report string, and an
/// empty update batch.
#[test]
fn zero_length_payloads_round_trip() {
    let txn = Msg::Txn(WireTxn {
        id: 0,
        class: 0,
        value: 0.0,
        slack_micros: 0,
        compute_micros: 0,
        reads: Vec::new(),
    });
    assert_eq!(round_trip(&txn), txn);
    let report = Msg::ReportJson(String::new());
    assert_eq!(round_trip(&report), report);
    let batch = Msg::UpdateBatch(Vec::new());
    assert_eq!(round_trip(&batch), batch);
}

/// A single-update batch round-trips, and the same update entry behind
/// tag 1 (the retired one-update frame: tag, then the entry, no count) is
/// an unknown tag — a batch frame is the only way in for an update.
#[test]
fn single_update_batch_round_trips_and_a_tag_1_body_is_refused() {
    let u = WireUpdate {
        class: 1,
        index: 123,
        generation_micros: -42,
        payload: 6.5,
        attr_mask: u64::MAX,
    };
    let batch = Msg::UpdateBatch(vec![u]);
    assert_eq!(round_trip(&batch), batch);
    let batch_body = batch.encode_body();
    let mut tag_1 = vec![1u8];
    tag_1.extend_from_slice(&batch_body[5..]);
    assert_eq!(decode_body(&tag_1), Err(ProtoError::BadTag(1)));
}

/// Maximum-size edge: the largest batch that fits in `MAX_FRAME`
/// round-trips; one more update must be rejected by the encoder rather
/// than producing an undecodable frame.
#[test]
fn max_size_batch_round_trips_and_overflow_is_rejected() {
    let full: Vec<WireUpdate> = (0..MAX_BATCH_UPDATES)
        .map(|i| WireUpdate {
            class: (i % 2) as u8,
            index: i as u32,
            generation_micros: i as i64,
            payload: i as f64,
            attr_mask: u64::MAX,
        })
        .collect();
    let msg = Msg::UpdateBatch(full.clone());
    assert_eq!(round_trip(&msg), msg);

    let mut over = full;
    over.push(WireUpdate {
        class: 0,
        index: 0,
        generation_micros: 0,
        payload: 0.0,
        attr_mask: 0,
    });
    let mut buf = Vec::new();
    assert!(
        write_msg(&mut buf, &Msg::UpdateBatch(over.clone())).is_err(),
        "oversized batch must be refused at encode time"
    );
    let mut reused = Vec::new();
    assert!(
        strip_live::protocol::encode_batch_body(&mut reused, &over).is_err(),
        "the reusable-buffer encoder must refuse it too"
    );
}

/// Maximum-size edge: a transaction frame carrying the largest read set
/// that fits in `MAX_FRAME` round-trips; one more read is rejected by
/// the encoder rather than producing an undecodable frame.
#[test]
fn max_size_txn_frame_round_trips_and_overflow_is_rejected() {
    let reads: Vec<(u8, u32)> = (0..MAX_TXN_READS)
        .map(|i| ((i % 2) as u8, i as u32))
        .collect();
    let msg = Msg::Txn(WireTxn {
        id: u64::MAX,
        class: 1,
        value: -1.5,
        slack_micros: u64::MAX,
        compute_micros: u64::MAX,
        reads,
    });
    assert_eq!(round_trip(&msg), msg);

    let too_many: Vec<(u8, u32)> = (0..=MAX_TXN_READS)
        .map(|i| ((i % 2) as u8, i as u32))
        .collect();
    let over = Msg::Txn(WireTxn {
        id: 1,
        class: 0,
        value: 0.0,
        slack_micros: 0,
        compute_micros: 0,
        reads: too_many,
    });
    let mut buf = Vec::new();
    assert!(
        write_msg(&mut buf, &over).is_err(),
        "oversized frame must be refused at encode time"
    );
}
