//! Crash recovery: snapshot load plus WAL tail replay.
//!
//! The recovery state machine (DESIGN.md §14) runs **before** `stripd`
//! binds its listener, so a recovering server is never visible half-built:
//!
//! 1. **Snapshot** — load `snapshot.bin` if present; a valid image yields
//!    a [`Store`] and the first sequence number it does not cover. No
//!    snapshot means recovery starts from the configured initial store at
//!    sequence 0 (a WAL-only crash early in a run).
//! 2. **Replay** — scan the segment chain in log order: every sealed
//!    (rotated) segment ascending by rotation index, then the active
//!    `wal.seg` last ([`crate::wal::scan_segment`] per segment). Each
//!    header is verified against the running config's fingerprint and
//!    the chain's `base_seq` continuity is enforced; within a segment
//!    the longest valid record prefix is kept. A torn tail is legal only
//!    in the *final* segment — rotation seals and fsyncs every chained
//!    link before the next one exists — so corruption inside a sealed
//!    link aborts recovery rather than silently skipping records.
//!    Re-`install`s go through the same worthiness check as live
//!    traffic, so replay is idempotent and order-insensitive with
//!    respect to superseded generations.
//! 3. **Re-base** — write a fresh snapshot of the recovered store
//!    (atomically) so the caller can truncate the segment without ever
//!    holding state only the old segment proves.
//!
//! Torn or CRC-failing tail records are counted in
//! [`Recovered::discarded`], never replayed. A fingerprint mismatch on
//! either artefact aborts recovery with an error: replaying a log into a
//! differently-shaped store would corrupt it silently.

use std::io;

use strip_core::config_fingerprint;
use strip_db::object::{Importance, ViewObjectId};
use strip_db::store::Store;
use strip_db::update::Update;

use crate::clock::LiveClock;
use crate::executor::{stripe_configs, LiveConfig};
use crate::snapshot;
use crate::wal::{self, REC_SEAL, REC_UPDATE, SEGMENT_FILE};
use strip_core::scheduler::initial_store;

/// Outcome of [`recover`]: the rebuilt store plus replay accounting.
#[derive(Debug)]
pub struct Recovered {
    /// The store as of the crash (snapshot base + replayed WAL tail).
    pub store: Store,
    /// Next update sequence number the executor should assign.
    pub next_seq: u64,
    /// WAL records re-installed on top of the snapshot.
    pub replayed: u64,
    /// Torn or corrupt tail records rejected by the scan.
    pub discarded: u64,
    /// A snapshot file was found and loaded (false: WAL-only recovery).
    pub snapshot_loaded: bool,
}

/// Rebuilds store state from the durability directory of `cfg` and
/// re-bases it (writes a post-recovery snapshot) so the caller may start a
/// fresh WAL segment at [`Recovered::next_seq`] without loss.
///
/// # Errors
///
/// I/O failures reading or re-writing the artefacts, and
/// [`crate::wal::WalError`] (as `InvalidData`) for artefacts that are
/// damaged at the header level or were written under a different
/// configuration. A *missing* snapshot or segment is not an error — each
/// simply contributes nothing.
pub fn recover(cfg: &LiveConfig) -> io::Result<Recovered> {
    let Some(dur) = &cfg.durability else {
        return Err(io::Error::other("recover() without a durability config"));
    };
    let fingerprint = config_fingerprint(&cfg.sim);
    let attrs = cfg.sim.attrs_per_object.max(1);
    // First boot with `--recover` on a fresh directory is a legal cold
    // start; the re-base snapshot below needs the directory to exist.
    std::fs::create_dir_all(&dur.dir)?;

    // Phase 1: snapshot.
    let (mut store, mut next_seq, snapshot_loaded) = match snapshot::read(&dur.dir)? {
        Some(bytes) => {
            let img = snapshot::decode(&bytes, fingerprint)?;
            if img.n_low != cfg.sim.n_low || img.n_high != cfg.sim.n_high || img.attrs != attrs {
                // The fingerprint should already preclude this; keep the
                // check so a decoder bug cannot turn into an index panic.
                return Err(wal::WalError::FingerprintMismatch {
                    expected: fingerprint,
                    found: img.next_seq,
                }
                .into());
            }
            let objects = img.objects;
            let n_low = img.n_low as usize;
            let store = Store::restore(cfg.sim.n_low, cfg.sim.n_high, cfg.sim.n_general, |id| {
                let flat = match id.class {
                    Importance::Low => id.index as usize,
                    Importance::High => n_low + id.index as usize,
                };
                objects[flat].clone()
            });
            (store, img.next_seq, true)
        }
        None => (initial_store(&cfg.sim), 0, false),
    };

    // Phase 2: WAL chain replay — sealed links ascending, active tail
    // last. A crash can land between a rotation's rename and the new
    // active segment's creation, so a missing `wal.seg` contributes
    // nothing rather than erroring.
    let mut replayed = 0u64;
    let mut discarded = 0u64;
    let mut chain: Vec<(std::path::PathBuf, bool)> = wal::list_rotated(&dur.dir)?
        .into_iter()
        .map(|(_, path)| (path, false))
        .collect();
    chain.push((dur.dir.join(SEGMENT_FILE), true));
    for (path, is_final) in chain {
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound && is_final => continue,
            Err(e) => return Err(e),
        };
        let scan = wal::scan_segment(&bytes, fingerprint)?;
        if !is_final && (!scan.sealed || scan.discarded > 0) {
            // Rotation fsyncs the seal before chaining the next link; an
            // unsealed or torn interior segment means records this chain
            // claims to hold are unrecoverable.
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unsealed or torn interior WAL segment {}", path.display()),
            ));
        }
        discarded += scan.discarded;
        for rec in &scan.records {
            if rec.kind == REC_SEAL || rec.seq < next_seq {
                // Seal markers carry no state; records below the
                // snapshot edge are already folded into the image.
                continue;
            }
            debug_assert_eq!(rec.kind, REC_UPDATE);
            let w = rec.update;
            let Some(class) = Importance::from_index(w.class as usize) else {
                discarded += 1;
                continue;
            };
            let n = match class {
                Importance::Low => cfg.sim.n_low,
                Importance::High => cfg.sim.n_high,
            };
            if w.index >= n {
                discarded += 1;
                continue;
            }
            let update = Update {
                seq: rec.seq,
                object: ViewObjectId::new(class, w.index),
                generation_ts: LiveClock::micros_to_sim(w.generation_micros),
                arrival_ts: LiveClock::micros_to_sim(rec.arrival_micros),
                payload: w.payload,
                attr_mask: w.attr_mask,
            };
            let _ = store.install(&update); // worthiness decides
            replayed += 1;
            next_seq = rec.seq + 1;
        }
    }

    // Phase 3: re-base, so the caller's fresh segment (base_seq =
    // next_seq) never strands replayed state in a truncated log.
    let image = snapshot::encode(&store, attrs, fingerprint, next_seq);
    snapshot::write_atomic(&dur.dir, &image)?;

    Ok(Recovered {
        store,
        next_seq,
        replayed,
        discarded,
        snapshot_loaded,
    })
}

/// Sharded recovery: runs [`recover`] once per stripe, each against its
/// own `stripe-<s>/` durability subdirectory and stripe-local
/// configuration (see [`stripe_configs`]), in stripe order. Stripes are
/// independent failure domains — each replays its own chain — so the
/// result vector lines up index-for-index with the executors
/// `serve_recovered` will start. For `stripes <= 1` this is exactly one
/// [`recover`] over the flat directory.
///
/// # Errors
///
/// The first failing stripe aborts the whole recovery: booting with a
/// partial store would silently violate cross-stripe conservation.
pub fn recover_all(cfg: &LiveConfig) -> io::Result<Vec<Recovered>> {
    stripe_configs(cfg).iter().map(recover).collect()
}
