//! The durability directory: every file `stripd` names, creates,
//! truncates, renames, unlinks or fsyncs (DESIGN.md §14).
//!
//! ```text
//! <dir>/snapshot.bin      store image stamped with the first seq it does not cover
//! <dir>/snapshot.bin.tmp  the image being written; never read
//! <dir>/wal.NNNNNN.seg    sealed links of the chain, ascending rotation index
//! <dir>/wal.seg           the active segment: header, then records
//! <dir>/stripe-<s>/       the same layout, one per stripe of a sharded server
//! ```
//!
//! The byte formats belong to [`crate::wal`] and [`crate::snapshot`]; this
//! module owns which files exist, the order they are replaced in, and
//! which of them a reader trusts. The write side is one `Segment`, owned
//! by the WAL flusher; the read side is `read_snapshot` and [`chain`].
//! What each transition asks of the kernel, in order:
//!
//! | transition        | syscalls                                                              |
//! |-------------------|-----------------------------------------------------------------------|
//! | `begin(base)`     | open+truncate `wal.seg`, `write` header, `fsync`                      |
//! | `start(base)`     | `mkdir -p`; unlink what `base` does not stand on (below); `begin`     |
//! | `append(buf)`     | one `write`                                                           |
//! | `sync`            | one `fdatasync`                                                       |
//! | `seal(next)`      | `write` seal record, `fsync`                                          |
//! | `rotate(next)`    | `seal`; `rename` to `wal.NNNNNN.seg`, dir `fsync`; `begin`; dir `fsync` |
//! | `cut(image,next)` | tmp: open+truncate, `write`, `fsync`; `rename` to `snapshot.bin`, dir `fsync`; `begin`; unlink chain; dir `fsync` |
//!
//! `begin` is the one place a header is written. A segment based at
//! `base` can only be recovered beside an image covering every sequence
//! number below it, which is what tells the two starts apart: at 0 that
//! image is the configured initial store, so `start` unlinks everything an
//! earlier run left (active segment, chain, snapshot, tmp); above 0 the
//! base is [`Recovered::next_seq`](crate::recovery::Recovered) and the
//! re-base snapshot `recover()` just wrote stays, only the chain it covers
//! goes. Every state a crash can leave between two of these calls, and
//! what recovery makes of it, is the table in DESIGN.md §14.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use crate::wal::{DurabilityConfig, SegmentHeader, WalRecord, HDR_LEN};

/// Active segment file name inside the WAL directory.
pub const SEGMENT_FILE: &str = "wal.seg";
/// Snapshot file name inside the WAL directory.
pub const SNAPSHOT_FILE: &str = "snapshot.bin";
/// Temporary file the atomic snapshot replace goes through.
pub const SNAPSHOT_TMP: &str = "snapshot.bin.tmp";

/// Durability directory of stripe `s` under a sharded server's `dir`.
#[must_use]
pub fn stripe_dir(dir: &Path, s: u32) -> PathBuf {
    dir.join(format!("stripe-{s}"))
}

/// File name of sealed (rotated) segment `idx` inside the WAL directory.
#[must_use]
pub fn rotated_segment_name(idx: u64) -> String {
    format!("wal.{idx:06}.seg")
}

fn active(dir: &Path) -> PathBuf {
    dir.join(SEGMENT_FILE)
}

/// `Ok(None)` where the file or directory does not exist.
fn if_present<T>(res: io::Result<T>) -> io::Result<Option<T>> {
    match res {
        Ok(v) => Ok(Some(v)),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e),
    }
}

/// Creates the directory (and its parents) if it is missing.
pub(crate) fn create(dir: &Path) -> io::Result<()> {
    fs::create_dir_all(dir)
}

/// Sealed segments in the directory, ascending by rotation index (which
/// is also ascending by `base_seq` — the flusher rotates in log order).
///
/// # Errors
///
/// Directory enumeration failures. A missing directory is an empty chain.
pub fn list_rotated(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    let Some(entries) = if_present(fs::read_dir(dir))? else {
        return Ok(out);
    };
    for entry in entries {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(idx) = name
            .strip_prefix("wal.")
            .and_then(|s| s.strip_suffix(".seg"))
            .filter(|mid| mid.len() >= 6 && mid.bytes().all(|b| b.is_ascii_digit()))
            .and_then(|mid| mid.parse::<u64>().ok())
        else {
            continue;
        };
        out.push((idx, entry.path()));
    }
    out.sort_by_key(|&(idx, _)| idx);
    Ok(out)
}

/// The log in replay order, one `(bytes, is_final)` per file: sealed links
/// ascending, the active segment last. A missing active segment yields
/// nothing: a crash can land between a rotation's rename and `begin`.
///
/// # Errors
///
/// Directory enumeration up front; an unreadable file is that item's error.
pub fn chain(dir: &Path) -> io::Result<impl Iterator<Item = io::Result<(Vec<u8>, bool)>>> {
    let links = list_rotated(dir)?
        .into_iter()
        .map(|(_, path)| (path, false));
    Ok(links
        .chain([(active(dir), true)])
        .filter_map(|(path, is_final)| match fs::read(path) {
            Ok(bytes) => Some(Ok((bytes, is_final))),
            Err(e) if is_final && e.kind() == io::ErrorKind::NotFound => None,
            Err(e) => Some(Err(e)),
        }))
}

/// The directory's snapshot, `None` if one was never written.
pub(crate) fn read_snapshot(dir: &Path) -> io::Result<Option<Vec<u8>>> {
    if_present(fs::read(dir.join(SNAPSHOT_FILE)))
}

/// Makes the directory's own entries — a rename, a create, an unlink —
/// survive power loss.
fn sync_dir(dir: &Path) -> io::Result<()> {
    File::open(dir)?.sync_all()
}

/// Creates (or truncates) `path` holding exactly `bytes`, fsynced.
fn write_new(path: &Path, bytes: &[u8]) -> io::Result<File> {
    let mut file = OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(true)
        .open(path)?;
    file.write_all(bytes)?;
    file.sync_all()?;
    Ok(file)
}

/// The atomic replace: renames `from` over `to` and fsyncs the directory.
/// A crash leaves the old complete `to` or the new complete one.
fn replace(dir: &Path, from: &Path, to: &Path) -> io::Result<()> {
    fs::rename(from, to)?;
    sync_dir(dir)
}

/// Writes `image` as the directory's snapshot, atomically: tmp file,
/// fsync, rename over [`SNAPSHOT_FILE`], fsync the directory.
pub(crate) fn write_snapshot(dir: &Path, image: &[u8]) -> io::Result<()> {
    let tmp = dir.join(SNAPSHOT_TMP);
    drop(write_new(&tmp, image)?);
    replace(dir, &tmp, &dir.join(SNAPSHOT_FILE))
}

/// The one place a segment header is written: (re)creates the active
/// segment holding nothing but a header at `base_seq`.
fn begin(dir: &Path, fingerprint: u64, base_seq: u64) -> io::Result<File> {
    let header = SegmentHeader {
        fingerprint,
        base_seq,
    };
    write_new(&active(dir), &header.encode())
}

/// Unlinks the sealed chain, newest link first: whatever a crash leaves
/// behind is still a chain with no interior gap.
fn remove_chain(dir: &Path) -> io::Result<()> {
    for (_, path) in list_rotated(dir)?.into_iter().rev() {
        fs::remove_file(path)?;
    }
    Ok(())
}

/// Unlinks everything an earlier run left, newest state first, so a crash
/// part-way leaves a prefix of the old log that still recovers.
fn reset(dir: &Path) -> io::Result<()> {
    if_present(fs::remove_file(active(dir)))?;
    remove_chain(dir)?;
    if_present(fs::remove_file(dir.join(SNAPSHOT_FILE)))?;
    if_present(fs::remove_file(dir.join(SNAPSHOT_TMP)))?;
    Ok(())
}

/// The active segment and the directory around it: the write side of the
/// log, owned by the WAL flusher. A transition returns the bytes it
/// appended to the log (headers and seals included).
#[derive(Debug)]
pub(crate) struct Segment {
    dir: PathBuf,
    fingerprint: u64,
    rotate_bytes: u64,
    file: File,
    /// Length of the active segment.
    len: u64,
    /// Rotation index the next sealed link takes.
    next_idx: u64,
}

impl Segment {
    /// Creates the directory and begins a segment at `base` over exactly
    /// the files that base stands on (module docs): nothing at 0, the
    /// re-base snapshot above it.
    pub(crate) fn start(cfg: &DurabilityConfig, fingerprint: u64, base: u64) -> io::Result<Self> {
        create(&cfg.dir)?;
        if base == 0 {
            reset(&cfg.dir)?;
        } else {
            remove_chain(&cfg.dir)?;
        }
        Ok(Segment {
            file: begin(&cfg.dir, fingerprint, base)?,
            dir: cfg.dir.clone(),
            fingerprint,
            rotate_bytes: cfg.rotate_bytes,
            len: HDR_LEN as u64,
            next_idx: 0,
        })
    }

    fn restart(&mut self, base_seq: u64) -> io::Result<u64> {
        self.file = begin(&self.dir, self.fingerprint, base_seq)?;
        self.len = HDR_LEN as u64;
        Ok(self.len)
    }

    /// Appends encoded records with one `write`.
    pub(crate) fn append(&mut self, records: &[u8]) -> io::Result<u64> {
        self.file.write_all(records)?;
        self.len += records.len() as u64;
        Ok(records.len() as u64)
    }

    /// The cadence fsync: data only, a scan re-derives the length.
    pub(crate) fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()
    }

    /// The segment has reached the rotation bound (never, at bound 0).
    pub(crate) fn is_full(&self) -> bool {
        self.rotate_bytes > 0 && self.len >= self.rotate_bytes
    }

    /// Appends a seal record carrying `next_seq` and fsyncs: the clean end
    /// of a link, or of the log on an orderly shutdown.
    pub(crate) fn seal(&mut self, next_seq: u64) -> io::Result<u64> {
        let sealed = self.append(&WalRecord::seal(next_seq).encode())?;
        self.file.sync_all()?;
        Ok(sealed)
    }

    /// Seals the active segment, renames it into the chain and begins a
    /// fresh one at `next_seq`: the sealed link is durable under its chain
    /// name before the new active segment exists.
    pub(crate) fn rotate(&mut self, next_seq: u64) -> io::Result<u64> {
        let sealed = self.seal(next_seq)?;
        let link = self.dir.join(rotated_segment_name(self.next_idx));
        replace(&self.dir, &active(&self.dir), &link)?;
        self.next_idx += 1;
        let fresh = self.restart(next_seq)?;
        sync_dir(&self.dir)?;
        Ok(sealed + fresh)
    }

    /// Replaces the snapshot with `image` (which covers every sequence
    /// number below `next_seq`), THEN begins the segment afresh at
    /// `next_seq` and unlinks the chain the image made redundant: at no
    /// instant is state reachable only from bytes already dropped.
    pub(crate) fn cut(&mut self, image: &[u8], next_seq: u64) -> io::Result<u64> {
        write_snapshot(&self.dir, image)?;
        let fresh = self.restart(next_seq)?;
        remove_chain(&self.dir)?;
        sync_dir(&self.dir)?;
        Ok(fresh)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("strip-logdir-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    fn names(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = fs::read_dir(dir)
            .expect("read dir")
            .map(|e| e.expect("entry").file_name().into_string().expect("utf-8"))
            .collect();
        names.sort();
        names
    }

    #[test]
    fn rotated_names_list_in_order_and_ignore_strangers() {
        let dir = scratch("names");
        for idx in [3u64, 0, 12] {
            fs::write(dir.join(rotated_segment_name(idx)), b"x").expect("write");
        }
        for stranger in ["wal.seg", "snapshot.bin", "wal.abc.seg", "wal..seg"] {
            fs::write(dir.join(stranger), b"x").expect("write");
        }
        let listed: Vec<u64> = list_rotated(&dir)
            .expect("list")
            .into_iter()
            .map(|(idx, _)| idx)
            .collect();
        assert_eq!(listed, vec![0, 3, 12]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_snapshot_then_read_round_trips_and_replaces() {
        let dir = scratch("snap");
        assert!(read_snapshot(&dir).expect("read empty dir").is_none());
        for image in [&b"first image"[..], &b"second"[..]] {
            write_snapshot(&dir, image).expect("write");
            assert_eq!(
                read_snapshot(&dir).expect("read back").as_deref(),
                Some(image)
            );
        }
        assert_eq!(names(&dir), [SNAPSHOT_FILE], "tmp file left behind");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn chain_yields_links_ascending_then_the_active_segment_if_there_is_one() {
        let dir = scratch("chain");
        for idx in [1u64, 0] {
            fs::write(dir.join(rotated_segment_name(idx)), [idx as u8]).expect("write");
        }
        let walk = |dir: &Path| -> Vec<(Vec<u8>, bool)> {
            chain(dir)
                .expect("list")
                .collect::<io::Result<_>>()
                .expect("read")
        };
        // Between a rotation's rename and `begin` there is no active segment.
        assert_eq!(walk(&dir), [(vec![0], false), (vec![1], false)]);
        fs::write(active(&dir), [9]).expect("write");
        assert_eq!(walk(&dir)[2], (vec![9], true));
        assert!(walk(&dir.join("never-created")).is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    /// Every file a previous run can leave behind.
    fn used_directory(tag: &str) -> PathBuf {
        let dir = scratch(tag);
        for name in [SNAPSHOT_FILE, SNAPSHOT_TMP, SEGMENT_FILE, "wal.000004.seg"] {
            fs::write(dir.join(name), b"previous run").expect("write");
        }
        dir
    }

    #[test]
    fn a_start_at_zero_resets_the_directory_and_a_recovered_start_keeps_the_snapshot() {
        let header = |base_seq| {
            SegmentHeader {
                fingerprint: 7,
                base_seq,
            }
            .encode()
            .to_vec()
        };

        let dir = used_directory("fresh");
        let seg = Segment::start(&DurabilityConfig::new(&dir), 7, 0).expect("start");
        assert_eq!(names(&dir), [SEGMENT_FILE]);
        assert_eq!(fs::read(active(&dir)).expect("read"), header(0));
        drop(seg);
        let _ = fs::remove_dir_all(&dir);

        // A base above 0 is recovery's `next_seq`: the image stays, the
        // chain it covers goes.
        let dir = used_directory("recovered");
        let seg = Segment::start(&DurabilityConfig::new(&dir), 7, 40).expect("start");
        assert_eq!(names(&dir), [SNAPSHOT_FILE, SNAPSHOT_TMP, SEGMENT_FILE]);
        assert_eq!(fs::read(active(&dir)).expect("read"), header(40));
        drop(seg);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn transitions_leave_the_files_and_report_the_bytes_the_table_says() {
        let dir = scratch("transitions");
        let mut cfg = DurabilityConfig::new(&dir);
        cfg.rotate_bytes = (HDR_LEN + 10) as u64;
        let mut seg = Segment::start(&cfg, 7, 0).expect("start");
        assert!(!seg.is_full());
        assert_eq!(seg.append(&[0xAB; 10]).expect("append"), 10);
        assert!(seg.is_full());

        let seal = WalRecord::seal(1).encode();
        assert_eq!(
            seg.rotate(1).expect("rotate"),
            (seal.len() + HDR_LEN) as u64
        );
        assert!(!seg.is_full());
        assert_eq!(names(&dir), ["wal.000000.seg", SEGMENT_FILE]);
        let link = fs::read(dir.join("wal.000000.seg")).expect("read link");
        assert_eq!(link.len(), HDR_LEN + 10 + seal.len());
        assert!(link.ends_with(&seal));

        assert_eq!(seg.cut(b"image", 1).expect("cut"), HDR_LEN as u64);
        assert_eq!(names(&dir), [SNAPSHOT_FILE, SEGMENT_FILE]);
        assert_eq!(
            read_snapshot(&dir).expect("read").as_deref(),
            Some(&b"image"[..])
        );

        // The rotation index is not reused after a cut emptied the chain.
        seg.rotate(1).expect("rotate");
        assert_eq!(names(&dir), [SNAPSHOT_FILE, "wal.000001.seg", SEGMENT_FILE]);
        assert_eq!(seg.seal(1).expect("seal"), seal.len() as u64);
        assert!(fs::read(active(&dir)).expect("read").ends_with(&seal));
        let _ = fs::remove_dir_all(&dir);
    }
}
