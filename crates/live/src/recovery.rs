//! Crash recovery: snapshot load plus WAL tail replay.
//!
//! Recovery runs **before** `stripd` binds its listener, so a recovering
//! server is never visible half-built. It reads the durability directory
//! through [`crate::logdir`] only, and what it makes of every state a
//! crash can leave there is the table in DESIGN.md §14:
//!
//! 1. **Snapshot** — a valid image yields a [`Store`] and the first
//!    sequence number it does not cover. No snapshot means the configured
//!    initial store at sequence 0 (a WAL-only crash early in a run).
//! 2. **Replay** — fold over [`logdir::chain`]: every sealed link
//!    ascending, the active segment last ([`crate::wal::scan_segment`] per
//!    file, headers verified against the running config's fingerprint). A
//!    link may not begin above the sequence number reached so far — the
//!    records in between are gone, and recovery refuses rather than skip
//!    them. The longest-valid-prefix rule applies to the *final* segment
//!    only, all the way down to a torn header; rotation seals and fsyncs
//!    every link before the next one exists, so an unsealed, torn or
//!    short interior link aborts recovery too. Re-`install`s go through
//!    the same worthiness check as live traffic, so replay is idempotent
//!    and order-insensitive with respect to superseded generations.
//! 3. **Re-base** — write a fresh snapshot of the recovered store
//!    (atomically) so the caller can restart the segment at
//!    [`Recovered::next_seq`] without ever holding state only the old
//!    segment proves.
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
use crate::wal::{self, HDR_LEN, REC_SEAL, REC_UPDATE};
use crate::{logdir, snapshot};
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

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
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
    logdir::create(&dur.dir)?;

    // Phase 1: snapshot.
    let (mut store, mut next_seq, snapshot_loaded) = match logdir::read_snapshot(&dur.dir)? {
        Some(bytes) => {
            let img = snapshot::decode(&bytes, fingerprint)?;
            if img.n_low != cfg.sim.n_low || img.n_high != cfg.sim.n_high || img.attrs != attrs {
                // The fingerprint should already preclude this; keep the
                // check so a decoder bug cannot turn into an index panic.
                return Err(invalid(format!(
                    "snapshot shape {}+{}x{} does not match the configured {}+{}x{attrs}",
                    img.n_low, img.n_high, img.attrs, cfg.sim.n_low, cfg.sim.n_high
                )));
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

    // Phase 2: WAL chain replay.
    let mut replayed = 0u64;
    let mut discarded = 0u64;
    for link in logdir::chain(&dur.dir)? {
        let (bytes, is_final) = link?;
        if is_final && bytes.len() < HDR_LEN {
            // `begin` truncates, then writes the header: a crash between
            // the two tore the tail before its first record.
            discarded += u64::from(!bytes.is_empty());
            continue;
        }
        let scan = wal::scan_segment(&bytes, fingerprint)?;
        let base = scan.header.base_seq;
        if !is_final && (!scan.sealed || scan.discarded > 0) {
            // Rotation fsyncs the seal before chaining the next link; an
            // unsealed or torn interior segment means records this chain
            // claims to hold are unrecoverable.
            return Err(invalid(format!(
                "unsealed or torn interior WAL segment (base_seq {base})"
            )));
        }
        if base > next_seq {
            return Err(invalid(format!(
                "WAL chain has lost a link: records {next_seq}..{base} are missing"
            )));
        }
        discarded += scan.discarded;
        for rec in &scan.records {
            if rec.kind == REC_SEAL || rec.seq < next_seq {
                // Seal markers carry no state; records below the
                // snapshot edge are already folded into the image.
                continue;
            }
            debug_assert_eq!(rec.kind, REC_UPDATE);
            next_seq = rec.seq + 1;
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
        }
    }

    // Phase 3: re-base, so the caller's fresh segment (base_seq =
    // next_seq) never strands replayed state in a truncated log.
    let image = snapshot::encode(&store, attrs, fingerprint, next_seq);
    logdir::write_snapshot(&dur.dir, &image)?;

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
