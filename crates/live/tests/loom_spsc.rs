//! Loom model for the lock-free SPSC ingest ring (`strip_live::spsc`).
//!
//! Compiled only under `--cfg loom`, where the ring's atomics resolve to
//! the checked loom stand-ins and every operation becomes a scheduling
//! decision. The models below exhaustively enumerate producer/consumer
//! interleavings around the three edges that matter for a ring buffer:
//! normal streaming (FIFO, no loss, no duplication), the full-ring edge
//! (a push against a full ring hands the value back instead of
//! overwriting), and the empty-ring/close edge (a pop against an empty
//! ring returns `None` and close is observed only after the last value).
//! Two protocol models ride along: the server's credit-grant arithmetic
//! (the real [`CreditWindow`] against a real ring — grants may never let
//! a credited push find it full) and the WAL flusher's
//! chunk-then-watermark Release publication.
//!
//! Run with:
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test -p strip-live --test loom_spsc --release
//! ```
//!
//! The vendored loom stand-in explores sequentially consistent
//! interleavings without a preemption bound, so every loop here is
//! bounded: a stray `while` spinning on another thread's progress would
//! send the DFS down an infinite schedule.
#![cfg(loom)]

use strip_live::credit::CreditWindow;
use strip_live::spsc::ring;

/// Streaming: a producer pushes a short FIFO sequence while the consumer
/// pops concurrently. Under every interleaving the consumer must observe
/// exactly the pushed sequence, in order, with nothing lost or
/// duplicated — this is the property the executor's drain loop relies on
/// when it trusts `len()` as a pop budget.
#[test]
fn spsc_stream_is_fifo_lossless_under_all_interleavings() {
    loom::model(|| {
        let (mut p, mut c) = ring::<u32>(4);
        let producer = loom::thread::spawn(move || {
            for v in 0..3u32 {
                // Capacity 4 with 3 pushes total: the ring can never be
                // full here, so a handed-back value is itself a bug.
                p.push(v).expect("ring with spare capacity refused a push");
            }
        });
        // Bounded concurrent pops: some attempts may race ahead of the
        // producer and legitimately see an empty ring.
        let mut got = Vec::new();
        for _ in 0..6 {
            if let Some(v) = c.pop() {
                got.push(v);
            }
        }
        producer.join().expect("producer thread");
        // After the join everything published is visible; drain the rest
        // (bounded by ring occupancy, so this loop terminates).
        while let Some(v) = c.pop() {
            got.push(v);
        }
        assert_eq!(got, vec![0, 1, 2], "FIFO with no loss or duplication");
        assert!(c.is_closed(), "producer drop must publish the close");
        assert!(c.is_empty());
    });
}

/// Full-ring and wraparound edge: the ring starts at capacity, so the
/// producer's next pushes contend with the consumer for freed slots.
/// Whatever the schedule, a push either lands (and must come back out in
/// order, through wrapped indices) or is refused — never overwrites.
#[test]
fn full_ring_pushes_are_refused_not_overwritten() {
    loom::model(|| {
        let (mut p, mut c) = ring::<u32>(2);
        // Pre-fill to the brim before the threads race.
        p.push(0).expect("empty ring accepts");
        p.push(1).expect("last free slot accepts");
        let producer = loom::thread::spawn(move || {
            // Two bounded attempts: each succeeds only if the consumer
            // freed a slot first. Successful pushes walk the sequence
            // forward so FIFO violations are detectable downstream.
            let mut landed = 0u32;
            for _ in 0..2 {
                if p.push(2 + landed).is_ok() {
                    landed += 1;
                }
            }
            landed
        });
        let mut got = Vec::new();
        for _ in 0..3 {
            if let Some(v) = c.pop() {
                got.push(v);
            }
        }
        let landed = producer.join().expect("producer thread");
        while let Some(v) = c.pop() {
            got.push(v);
        }
        let expected: Vec<u32> = (0..2 + landed).collect();
        assert_eq!(
            got, expected,
            "every landed push must come out exactly once, in order"
        );
    });
}

/// Credit-grant model: the server's credit arithmetic (the *real*
/// [`CreditWindow`] from `strip_live::credit`, driven against a real ring)
/// racing a draining executor. The property the wire protocol stands on:
/// a grant is computed from the ring's observed free slots minus the
/// client's unspent window, and the executor only ever *frees* slots
/// concurrently — so a credited client spending its whole window must
/// never find the ring full. A stale `consumed()` observation
/// under-estimates frees and shrinks the grant; it can never inflate it.
/// The model also checks FIFO end to end.
#[test]
fn credit_grants_never_let_a_credited_push_find_a_full_ring() {
    loom::model(|| {
        const CAP: usize = 2;
        let (mut p0, mut c0) = ring::<u32>(CAP);
        let mut window = CreditWindow::new();
        // The executor drains the ring concurrently with the grant
        // rounds (bounded attempts; a miss is a legal schedule).
        let consumer = loom::thread::spawn(move || {
            let mut got = Vec::new();
            for _ in 0..2 {
                if let Some(v) = c0.pop() {
                    got.push(v);
                }
            }
            (c0, got)
        });
        // Two grant rounds, each spent entirely, so the bound is tight,
        // not slack.
        let mut next = 0u32;
        for _ in 0..2 {
            let free = (CAP as u64).saturating_sub(p0.pushed().saturating_sub(p0.consumed()));
            let grant = window.grantable(free);
            window.record_grant(grant);
            for _ in 0..grant {
                assert!(window.on_update(), "an update inside the grant");
                p0.push(next)
                    .expect("credited push found a full ring: the grant overran occupancy");
                next += 1;
            }
        }
        let (mut c0, mut got) = consumer.join().expect("consumer thread");
        while let Some(v) = c0.pop() {
            got.push(v);
        }
        let expected: Vec<u32> = (0..next).collect();
        assert_eq!(got, expected, "granted pushes stay FIFO");
    });
}

/// WAL chunk-handoff model: the flusher's watermark publication protocol
/// from `strip_live::wal::flusher_loop`, in miniature. The flusher
/// writes a chunk's records and only then Release-stores the durable
/// watermark (`written` in the sync-site registry); an appender
/// Acquire-samples the watermark to decide what is safely on disk. Under
/// every interleaving the sampled watermark must be monotone and every
/// record at or below it must already be fully written — i.e. the
/// Release store really is the *last* step of the handoff, after the
/// record writes in program order.
#[test]
fn wal_watermark_is_monotone_and_never_overtakes_its_chunk() {
    use loom::sync::atomic::{AtomicU64, Ordering};
    use loom::sync::Arc;

    loom::model(|| {
        // Four records flushed as two chunks of two; slot value 0 means
        // "not yet written" (records are seq + 1, never 0).
        let slots = Arc::new([
            AtomicU64::new(0),
            AtomicU64::new(0),
            AtomicU64::new(0),
            AtomicU64::new(0),
        ]);
        let written = Arc::new(AtomicU64::new(0)); // highest durable seq, 1-based
        let flusher = {
            let slots = Arc::clone(&slots);
            let written = Arc::clone(&written);
            loom::thread::spawn(move || {
                for chunk in 0..2u64 {
                    for r in 0..2u64 {
                        let seq = chunk * 2 + r;
                        slots[seq as usize].store(seq + 1, Ordering::Relaxed);
                    }
                    // The publication edge: records first, watermark last.
                    written.store(chunk * 2 + 2, Ordering::Release);
                }
            })
        };
        let mut last = 0u64;
        for _ in 0..2 {
            let wm = written.load(Ordering::Acquire);
            assert!(wm >= last, "watermark went backwards: {wm} < {last}");
            last = wm;
            for seq in 0..wm {
                let v = slots[seq as usize].load(Ordering::Relaxed);
                assert_eq!(
                    v,
                    seq + 1,
                    "watermark {wm} published before record {seq} was written"
                );
            }
        }
        flusher.join().expect("flusher thread");
        assert_eq!(written.load(Ordering::Acquire), 4, "all chunks durable");
    });
}

/// Empty-ring and close edge: pops racing ahead of the only push must
/// return `None` (never block, never yield junk), and after the producer
/// is joined the value and the close are both visible.
#[test]
fn empty_pops_return_none_and_close_is_seen_after_drain() {
    loom::model(|| {
        let (mut p, mut c) = ring::<u32>(2);
        let producer = loom::thread::spawn(move || {
            p.push(7).expect("empty ring accepts");
            // Dropping the producer here closes the ring.
        });
        let mut seen = None;
        for _ in 0..4 {
            if let Some(v) = c.pop() {
                seen = Some(v);
                break;
            }
        }
        producer.join().expect("producer thread");
        if seen.is_none() {
            seen = c.pop();
        }
        assert_eq!(seen, Some(7), "the pushed value must not be lost");
        assert!(c.is_closed(), "close must be visible after the join");
        assert_eq!(c.pop(), None, "a drained closed ring stays empty");
    });
}
