//! Store snapshots: the base the WAL tail is replayed onto.
//!
//! A snapshot is a point-in-time image of the view partitions (payload,
//! install version, and every attribute generation per object) plus the
//! next update sequence number — everything [`crate::recovery`] needs to
//! rebuild a [`Store`] and resume replay exactly where the image was cut.
//! General data is deliberately absent: it is transaction-private scratch
//! in this reproduction (paper §3.2) and zeroed on recovery, just as it is
//! on a cold start.
//!
//! This module is the byte format only. Where an image lives and how it
//! is replaced atomically is [`crate::logdir`]'s business; the whole-file
//! CRC here catches anything the filesystem mangles anyway.
//!
//! Wire form (all integers little-endian):
//!
//! ```text
//! "STRIPSNP" | version u32 | config fingerprint u64 | next_seq u64
//! | n_low u32 | n_high u32 | attrs u32
//! | per object (low 0.., then high 0..):
//! |     payload f64 bits | version u64 | attrs × generation f64 bits
//! | crc32 over everything above
//! ```
//!
//! Generations are serialized as the **bit pattern** of their seconds
//! value, not as integer microseconds: recovery must reproduce the exact
//! `SimTime` the tracker and worthiness checks saw, and the initial ages
//! drawn at startup are not microsecond-aligned.

use std::io;
use std::path::Path;

use strip_db::object::{Importance, ViewObject, ViewObjectId};
use strip_db::store::Store;
use strip_sim::time::SimTime;

use crate::wal::{crc32, WalError};

/// Snapshot header magic.
pub const SNAP_MAGIC: [u8; 8] = *b"STRIPSNP";
/// Snapshot format version.
pub const SNAP_VERSION: u32 = 1;

/// Fixed header length before the per-object section.
const SNAP_HDR_LEN: usize = 8 + 4 + 8 + 8 + 4 + 4 + 4;

/// A decoded snapshot, ready for [`Store::restore`].
#[derive(Debug, Clone)]
pub struct DecodedSnapshot {
    /// First update sequence number NOT covered by this image.
    pub next_seq: u64,
    /// Low-importance partition size the image was cut from.
    pub n_low: u32,
    /// High-importance partition size the image was cut from.
    pub n_high: u32,
    /// Attributes per view object.
    pub attrs: u32,
    /// Restored objects, low partition first then high, index order.
    pub objects: Vec<ViewObject>,
}

/// Encodes the view partitions of `store` into snapshot wire form.
#[must_use]
pub fn encode(store: &Store, attrs: u32, fingerprint: u64, next_seq: u64) -> Vec<u8> {
    let n_low = store.class_len(Importance::Low) as u32;
    let n_high = store.class_len(Importance::High) as u32;
    let per_object = 8 + 8 + 8 * attrs.max(1) as usize;
    let mut out = Vec::with_capacity(SNAP_HDR_LEN + (n_low + n_high) as usize * per_object + 4);
    out.extend_from_slice(&SNAP_MAGIC);
    out.extend_from_slice(&SNAP_VERSION.to_le_bytes());
    out.extend_from_slice(&fingerprint.to_le_bytes());
    out.extend_from_slice(&next_seq.to_le_bytes());
    out.extend_from_slice(&n_low.to_le_bytes());
    out.extend_from_slice(&n_high.to_le_bytes());
    out.extend_from_slice(&attrs.max(1).to_le_bytes());
    for class in Importance::ALL {
        for index in 0..store.class_len(class) as u32 {
            let obj = store.view(ViewObjectId::new(class, index));
            out.extend_from_slice(&obj.payload.to_bits().to_le_bytes());
            out.extend_from_slice(&obj.version.to_le_bytes());
            for a in 0..attrs.max(1) {
                let gen = obj.attr_generation(a).as_secs();
                out.extend_from_slice(&gen.to_bits().to_le_bytes());
            }
        }
    }
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], WalError> {
        let end = self.pos.checked_add(n).ok_or(WalError::Truncated)?;
        if end > self.bytes.len() {
            return Err(WalError::Truncated);
        }
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32, WalError> {
        let mut b = [0u8; 4];
        b.copy_from_slice(self.take(4)?);
        Ok(u32::from_le_bytes(b))
    }

    fn u64(&mut self) -> Result<u64, WalError> {
        let mut b = [0u8; 8];
        b.copy_from_slice(self.take(8)?);
        Ok(u64::from_le_bytes(b))
    }

    fn f64(&mut self) -> Result<f64, WalError> {
        Ok(f64::from_bits(self.u64()?))
    }
}

/// Decodes and validates snapshot bytes.
///
/// # Errors
///
/// [`WalError::BadMagic`] / [`WalError::BadVersion`] /
/// [`WalError::BadCrc`] / [`WalError::Truncated`] for a damaged file, and
/// [`WalError::FingerprintMismatch`] when the image was cut under a
/// different configuration. Hostile length fields are caught by checked
/// arithmetic, never by panicking.
pub fn decode(bytes: &[u8], expected_fingerprint: u64) -> Result<DecodedSnapshot, WalError> {
    if bytes.len() < SNAP_HDR_LEN + 4 {
        return Err(WalError::Truncated);
    }
    let (body, crc_bytes) = bytes.split_at(bytes.len() - 4);
    let mut crc = [0u8; 4];
    crc.copy_from_slice(crc_bytes);
    if u32::from_le_bytes(crc) != crc32(body) {
        return Err(WalError::BadCrc);
    }
    let mut cur = Cursor {
        bytes: body,
        pos: 0,
    };
    if cur.take(8)? != SNAP_MAGIC {
        return Err(WalError::BadMagic);
    }
    let version = cur.u32()?;
    if version != SNAP_VERSION {
        return Err(WalError::BadVersion(version));
    }
    let fingerprint = cur.u64()?;
    if fingerprint != expected_fingerprint {
        return Err(WalError::FingerprintMismatch {
            expected: expected_fingerprint,
            found: fingerprint,
        });
    }
    let next_seq = cur.u64()?;
    let n_low = cur.u32()?;
    let n_high = cur.u32()?;
    let attrs = cur.u32()?;
    let total = u64::from(n_low) + u64::from(n_high);
    let mut objects = Vec::new();
    // Size check up front (checked math): a hostile header cannot make us
    // reserve unbounded memory or overflow an index below.
    let per_object = 16u64 + 8 * u64::from(attrs.max(1));
    let need = total.checked_mul(per_object).ok_or(WalError::Truncated)?;
    if (body.len() as u64).saturating_sub(cur.pos as u64) < need {
        return Err(WalError::Truncated);
    }
    objects.reserve(total as usize);
    for _ in 0..total {
        let payload = cur.f64()?;
        let version = cur.u64()?;
        let mut gens = Vec::with_capacity(attrs.max(1) as usize);
        for _ in 0..attrs.max(1) {
            gens.push(SimTime::from_secs(cur.f64()?));
        }
        objects.push(ViewObject::restore(payload, version, gens));
    }
    Ok(DecodedSnapshot {
        next_seq,
        n_low,
        n_high,
        attrs,
        objects,
    })
}

/// [`crate::logdir`]'s atomic snapshot replace, under the name the
/// benchmark times.
///
/// # Errors
///
/// Any I/O failure along the tmp-write-rename path.
pub fn write_atomic(dir: &Path, bytes: &[u8]) -> io::Result<()> {
    crate::logdir::write_snapshot(dir, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use strip_db::update::Update;

    const FP: u64 = 0x5EED_F00D;

    /// A 2-low/1-high store with distinct per-attribute generations and a
    /// couple of installed updates, so payloads, versions, and generations
    /// all differ from their defaults.
    fn populated_store() -> Store {
        let mut store = Store::with_initial_timestamps(2, 1, 0, 2, |id| {
            SimTime::from_secs(0.125 * f64::from(id.index + 1))
        });
        for (seq, (class, index, payload)) in [
            (Importance::Low, 0, 3.5),
            (Importance::High, 0, -7.25),
            (Importance::Low, 1, 11.0),
        ]
        .into_iter()
        .enumerate()
        {
            store.install(&Update {
                seq: seq as u64,
                object: ViewObjectId::new(class, index),
                generation_ts: SimTime::from_secs(1.0 + seq as f64),
                arrival_ts: SimTime::from_secs(1.5 + seq as f64),
                payload,
                attr_mask: if seq == 1 { 0b01 } else { u64::MAX },
            });
        }
        store
    }

    fn assert_stores_match(a: &Store, b: &Store, attrs: u32) {
        for class in Importance::ALL {
            assert_eq!(a.class_len(class), b.class_len(class));
            for index in 0..a.class_len(class) as u32 {
                let id = ViewObjectId::new(class, index);
                let (x, y) = (a.view(id), b.view(id));
                assert_eq!(x.payload.to_bits(), y.payload.to_bits(), "{id:?}");
                assert_eq!(x.version, y.version, "{id:?}");
                for attr in 0..attrs.max(1) {
                    assert_eq!(
                        x.attr_generation(attr).as_secs().to_bits(),
                        y.attr_generation(attr).as_secs().to_bits(),
                        "{id:?} attr {attr}"
                    );
                }
            }
        }
    }

    #[test]
    fn snapshot_round_trips_payloads_versions_and_generations() {
        let store = populated_store();
        let bytes = encode(&store, 2, FP, 3);
        let img = decode(&bytes, FP).expect("valid snapshot");
        assert_eq!(
            (img.next_seq, img.n_low, img.n_high, img.attrs),
            (3, 2, 1, 2)
        );
        let restored = Store::restore(img.n_low, img.n_high, 0, |id| {
            let flat = match id.class {
                Importance::Low => id.index as usize,
                Importance::High => img.n_low as usize + id.index as usize,
            };
            img.objects[flat].clone()
        });
        assert_stores_match(&store, &restored, 2);
    }

    #[test]
    fn decode_rejects_any_single_byte_corruption() {
        let bytes = encode(&populated_store(), 2, FP, 3);
        for pos in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x10;
            assert!(
                decode(&bad, FP).is_err(),
                "flipped byte {pos} went undetected"
            );
        }
    }

    #[test]
    fn decode_rejects_truncation_at_every_length() {
        let bytes = encode(&populated_store(), 2, FP, 3);
        for len in 0..bytes.len() {
            assert!(
                decode(&bytes[..len], FP).is_err(),
                "truncation to {len} went undetected"
            );
        }
    }

    #[test]
    fn decode_rejects_wrong_fingerprint() {
        let bytes = encode(&populated_store(), 2, FP, 3);
        assert!(matches!(
            decode(&bytes, FP + 1),
            Err(WalError::FingerprintMismatch { .. })
        ));
    }

    #[test]
    fn decode_rejects_hostile_length_header_without_allocating() {
        // Claim u32::MAX objects of u32::MAX attrs each in a tiny buffer:
        // the checked sizing must reject it, not OOM or overflow.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&SNAP_MAGIC);
        bytes.extend_from_slice(&SNAP_VERSION.to_le_bytes());
        bytes.extend_from_slice(&FP.to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes());
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        let crc = crc32(&bytes);
        bytes.extend_from_slice(&crc.to_le_bytes());
        assert!(matches!(decode(&bytes, FP), Err(WalError::Truncated)));
    }
}
