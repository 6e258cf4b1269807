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
//! Three protocol models ride along: the server's credit-grant arithmetic
//! (the real [`CreditWindow`] and [`InFlight`] against a real ring of
//! blocks — grants may never let a credited push find it full), the WAL
//! flusher's chunk-then-watermark Release publication, a block's round
//! trip from session to executor and home again over two rings, and a
//! block's wire buffer's longer one, through the WAL flusher and back.
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

use strip_live::credit::{CreditWindow, InFlight};
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
/// [`CreditWindow`] and [`InFlight`] from `strip_live::credit`, driven
/// against a real ring of blocks) racing a draining executor. The
/// property the wire protocol stands on: a grant is computed from the
/// ring's capacity minus the updates in it — the lengths of the pushed
/// blocks, retired against the consumer's cursor — minus the client's
/// unspent window, and the executor only ever *frees* slots concurrently,
/// so a credited client spending its whole window, in blocks of 1–3
/// updates, must never find the ring full. A stale `consumed()`
/// observation under-estimates frees and shrinks the grant; it can never
/// inflate it. The model also checks FIFO end to end.
#[test]
fn credit_grants_never_let_a_credited_push_find_a_full_ring() {
    loom::model(|| {
        const CAP: usize = 4;
        let (mut p0, mut c0) = ring::<Vec<u32>>(CAP);
        let mut window = CreditWindow::new();
        let mut in_flight = InFlight::new();
        // The executor drains the ring concurrently with the grant
        // rounds (bounded attempts; a miss is a legal schedule).
        let consumer = loom::thread::spawn(move || {
            let mut got = Vec::new();
            for _ in 0..2 {
                if let Some(block) = c0.pop() {
                    got.extend(block);
                }
            }
            (c0, got)
        });
        // Two grant rounds, each spent entirely in blocks whose lengths
        // cycle 1, 2, 3, so the bound is tight, not slack.
        let mut next = 0u32;
        let mut len = 1u64;
        for _ in 0..2 {
            let free = (CAP as u64).saturating_sub(in_flight.updates(p0.consumed()));
            let grant = window.grantable(free);
            window.record_grant(grant);
            let mut left = grant;
            while left > 0 {
                let n = len.min(left);
                len = len % 3 + 1;
                for _ in 0..n {
                    assert!(window.on_update(), "an update inside the grant");
                }
                let block: Vec<u32> = (next..next + n as u32).collect();
                p0.push(block)
                    .expect("credited push found a full ring: the grant overran occupancy");
                in_flight.on_push(n);
                next += n as u32;
                left -= n;
            }
        }
        let (mut c0, mut got) = consumer.join().expect("consumer thread");
        while let Some(block) = c0.pop() {
            got.extend(block);
        }
        let expected: Vec<u32> = (0..next).collect();
        assert_eq!(got, expected, "granted pushes stay FIFO");
    });
}

/// WAL chunk-handoff model: the flusher's watermark publication protocol
/// from `strip_live::wal`'s `Flusher::step`, in miniature. The flusher
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

/// Blocks going home: the session (this thread) decodes each frame into a
/// block the executor sent back when one is waiting, and allocates one
/// otherwise; the executor (the spawned thread) pops blocks, empties each
/// and sends it back, and drops it when the return ring is full — the
/// shape of `server.rs`'s `BatchState::push_frame` and the executor's
/// `return_spent`, on two real rings. Both rings start full, so every
/// push races a pop at the full edge. Under every interleaving:
///
/// * no block is refilled while it is still queued — every popped block
///   holds exactly the one frame it was filled with, in FIFO order;
/// * none is returned twice — each block that comes home is one the
///   session lent out and has not had back since;
/// * the blocks alive never exceed the two rings' slots plus one in each
///   thread's hand.
#[test]
fn blocks_go_home_once_and_are_refilled_only_in_hand() {
    use loom::sync::atomic::{AtomicUsize, Ordering};
    use loom::sync::Arc;

    loom::model(|| {
        const SLOTS: usize = 2;
        const MOST_ALIVE: usize = 2 * SLOTS + 2;
        // A block is `[id]` when empty and `[id, frame]` when filled.
        let (mut blocks_tx, mut blocks_rx) = ring::<Vec<u32>>(SLOTS);
        let (mut spent_tx, mut spent_rx) = ring::<Vec<u32>>(SLOTS);
        let dropped = Arc::new(AtomicUsize::new(0));
        // The session's books: blocks allocated, and the ids lent to the
        // executor and not yet back.
        let mut allocated = 0u32;
        let mut lent = Vec::new();
        for frame in 0..SLOTS as u32 {
            blocks_tx.push(vec![allocated, frame]).expect("room");
            lent.push(allocated);
            allocated += 1;
        }
        for _ in 0..SLOTS {
            spent_tx.push(vec![allocated]).expect("room");
            lent.push(allocated);
            allocated += 1;
        }
        let executor = {
            let dropped = Arc::clone(&dropped);
            loom::thread::spawn(move || {
                let mut next = 0;
                for _ in 0..2 {
                    let Some(mut block) = blocks_rx.pop() else {
                        continue;
                    };
                    assert_eq!(
                        block[1..],
                        [next],
                        "block {} filled once, in order",
                        block[0]
                    );
                    next += 1;
                    block.truncate(1);
                    if spent_tx.push(block).is_err() {
                        dropped.fetch_add(1, Ordering::SeqCst);
                    }
                }
                (blocks_rx, next)
            })
        };
        let mut hand: Option<Vec<u32>> = None;
        let mut frame = SLOTS as u32;
        for _ in 0..2 {
            let mut block = match hand.take().or_else(|| spent_rx.pop()) {
                Some(block) if block.len() == 1 => {
                    let at = lent.iter().position(|&id| id == block[0]);
                    lent.swap_remove(at.expect("a block came home twice"));
                    block
                }
                Some(held) => held,
                None => {
                    allocated += 1;
                    let alive = allocated as usize - dropped.load(Ordering::SeqCst);
                    assert!(alive <= MOST_ALIVE, "{alive} blocks alive");
                    vec![allocated - 1]
                }
            };
            if block.len() == 1 {
                block.push(frame);
            }
            let id = block[0];
            match blocks_tx.push(block) {
                Ok(()) => {
                    lent.push(id);
                    frame += 1;
                }
                Err(block) => hand = Some(block),
            }
        }
        let (mut blocks_rx, mut next) = executor.join().expect("executor thread");
        while let Some(block) = blocks_rx.pop() {
            assert_eq!(
                block[1..],
                [next],
                "block {} filled once, in order",
                block[0]
            );
            next += 1;
        }
        assert_eq!(next, frame, "every frame pushed came out once");
        let alive = allocated as usize - dropped.load(Ordering::SeqCst);
        assert!(alive <= MOST_ALIVE, "{alive} blocks alive");
    });
}

/// Wire buffers on their round trip through the log: the executor (this
/// thread) pops a block, moves its wire buffer to the flusher, and sends
/// the block home with a buffer the flusher has sent back, or none, where
/// the session fills that buffer with its next frame, or a new one when
/// the block came without; the flusher frames a buffer, empties it and
/// sends it back, dropping it when the return ring is full — the
/// executor's `accept_block` and `return_spent`, `wal.rs`'s
/// `Flusher::step` and `server.rs`'s `BatchState::push_frame`. The
/// executor–flusher leg runs on two real rings, both full at the start so
/// every push races a pop at the full edge; the session's leg is played
/// in this thread's hand, in the order the executor sends blocks home
/// (`blocks_go_home_once_and_are_refilled_only_in_hand` races that leg,
/// whose rings carry the block and its buffer together). A buffer is
/// `[id]` when empty and `[id, frame]` when filled. Under every
/// interleaving:
///
/// * a buffer has one owner at a time, and none is refilled while queued
///   — the flusher sees every frame once, filled with exactly that frame,
///   in FIFO order;
/// * a buffer comes home only once for each time it was lent out;
/// * the buffers alive never exceed the two rings' slots plus one in each
///   hand: the flusher's, the executor's and the session's.
#[test]
fn wire_buffers_go_through_the_log_once_and_are_refilled_only_in_hand() {
    use loom::sync::atomic::{AtomicUsize, Ordering};
    use loom::sync::Arc;

    loom::model(|| {
        const SLOTS: usize = 1;
        const TURNS: u32 = 2;
        const MOST_ALIVE: usize = 2 * SLOTS + 3;
        let (mut wal_tx, mut wal_rx) = ring::<Vec<u32>>(SLOTS);
        let (mut spent_tx, mut spent_rx) = ring::<Vec<u32>>(SLOTS);
        // Frame 0 waits for the flusher; buffer 1 came back from it.
        wal_tx.push(vec![0, 0]).expect("room");
        spent_tx.push(vec![1]).expect("room");
        let mut allocated = 2;
        // Buffer ids lent to the executor by the session and not yet back.
        let mut lent = vec![0, 1];
        let dropped = Arc::new(AtomicUsize::new(0));
        let flusher = {
            let dropped = Arc::clone(&dropped);
            loom::thread::spawn(move || {
                let mut next = 0;
                for _ in 0..TURNS {
                    let Some(mut wire) = wal_rx.pop() else {
                        continue;
                    };
                    assert_eq!(
                        wire[1..],
                        [next],
                        "buffer {} framed once, in order",
                        wire[0]
                    );
                    next += 1;
                    wire.truncate(1);
                    if spent_tx.push(wire).is_err() {
                        dropped.fetch_add(1, Ordering::SeqCst);
                    }
                }
                (wal_rx, next)
            })
        };
        // What the session holds: the buffer the last block came home
        // with, if any.
        let mut home: Option<Vec<u32>> = None;
        // A filled buffer the full WAL ring handed back (the real
        // executor spins on it).
        let mut held: Option<Vec<u32>> = None;
        let mut frame = 1;
        for _ in 0..TURNS {
            if let Some(wire) = held.take() {
                held = wal_tx.push(wire).err();
                continue;
            }
            // The session fills its next frame into the buffer that came
            // home, or a new one; the executor pops that block.
            let mut wire = match home.take().filter(|w| !w.is_empty()) {
                Some(wire) => {
                    assert_eq!(wire.len(), 1, "buffer {} came home filled", wire[0]);
                    let at = lent.iter().position(|&id| id == wire[0]);
                    lent.swap_remove(at.expect("a buffer came home twice"));
                    wire
                }
                None => {
                    allocated += 1;
                    let alive = allocated as usize - dropped.load(Ordering::SeqCst);
                    assert!(alive <= MOST_ALIVE, "{alive} buffers alive");
                    vec![allocated - 1]
                }
            };
            wire.push(frame);
            lent.push(wire[0]);
            frame += 1;
            held = wal_tx.push(wire).err();
            // The block goes home with a spare buffer, or none.
            home = Some(spent_rx.pop().unwrap_or_default());
        }
        let (mut wal_rx, framed) = flusher.join().expect("flusher thread");
        // What is still queued or held comes out in order, each frame once.
        let mut next = framed;
        for wire in std::iter::from_fn(|| wal_rx.pop()).chain(held) {
            assert_eq!(
                wire[1..],
                [next],
                "buffer {} filled once, in order",
                wire[0]
            );
            next += 1;
        }
        assert_eq!(next, frame, "every frame filled came out once");
        let alive = allocated as usize - dropped.load(Ordering::SeqCst);
        assert!(alive <= MOST_ALIVE, "{alive} buffers alive");
        // Every buffer alive is queued for the flusher, in a hand, or
        // framed and back.
        let unframed = (next - framed) as usize;
        let idle = home.into_iter().filter(|w| !w.is_empty()).count()
            + std::iter::from_fn(|| spent_rx.pop()).count();
        assert_eq!(alive, unframed + idle, "a buffer was lost or duplicated");
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
