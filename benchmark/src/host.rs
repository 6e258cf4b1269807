//! The host stamp written beside every result, and per-thread CPU time
//! read from `/proc` (no FFI, no `unsafe`).

use std::path::Path;

use crate::json::Json;

fn read_trimmed(path: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Commit of the checkout, read from `.git` without running git; a source
/// archive (the driver's checkout) has none and reads "unknown".
fn git_sha(repo_root: &Path) -> String {
    let head = match std::fs::read_to_string(repo_root.join(".git/HEAD")) {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(repo_root.join(".git").join(r))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None => head,
    }
}

/// Filesystem type holding `dir`, from the longest matching mount point.
fn fs_type(dir: &Path) -> String {
    let dir = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, mount, ty) = (f.next()?, f.next()?, f.next()?);
            dir.starts_with(mount)
                .then(|| (mount.len(), ty.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, ty)| ty)
}

/// The stamp: results from different hosts are not comparable, so every
/// document says where it was taken.
pub fn stamp(repo_root: &Path, wal_dir: &Path) -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let mut h = Json::obj();
    h.set("nproc", nproc)
        .set("cpu_model", cpu_model())
        .set(
            "kernel",
            read_trimmed("/proc/sys/kernel/osrelease").unwrap_or_else(|| "unknown".into()),
        )
        .set("rustc", rustc_version())
        .set("git_sha", git_sha(repo_root))
        .set("wal_fs", fs_type(wal_dir));
    h
}

/// Kernel clock ticks per second for `/proc/*/stat` times. `USER_HZ` has
/// been 100 on every Linux ABI for decades; reading it properly needs
/// `sysconf`, which is FFI.
const USER_HZ: f64 = 100.0;

/// CPU seconds (user + system) consumed so far by live threads of this
/// process whose name starts with `prefix`, summed. Thread names come from
/// `std::thread::Builder::name` (the kernel keeps the first 15 bytes).
pub fn thread_cpu_secs(prefix: &str) -> f64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0.0;
    };
    tasks
        .flatten()
        .filter_map(|t| std::fs::read_to_string(t.path().join("stat")).ok())
        .filter_map(|stat| {
            // `pid (comm) state ppid ... utime stime`: comm may hold spaces,
            // so split at the last ')'.
            let open = stat.find('(')?;
            let close = stat.rfind(')')?;
            if !stat[open + 1..close].starts_with(prefix) {
                return None;
            }
            let mut rest = stat[close + 1..].split_whitespace();
            let utime: f64 = rest.nth(11)?.parse().ok()?;
            let stime: f64 = rest.next()?.parse().ok()?;
            Some((utime + stime) / USER_HZ)
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamp_names_the_host() {
        let s = stamp(Path::new("."), Path::new("."));
        assert!(s
            .get("nproc")
            .and_then(Json::as_f64)
            .is_some_and(|n| n >= 1.0));
        for key in ["cpu_model", "kernel", "rustc", "git_sha", "wal_fs"] {
            assert!(s.get(key).and_then(Json::as_str).is_some(), "{key}");
        }
    }

    #[test]
    fn thread_cpu_finds_a_named_busy_thread() {
        let h = std::thread::Builder::new()
            .name("bench-burner".into())
            .spawn(|| {
                let start = std::time::Instant::now();
                let mut x = 0u64;
                while start.elapsed().as_millis() < 120 {
                    x = std::hint::black_box(x.wrapping_add(1));
                }
                thread_cpu_secs("bench-burner")
            })
            .expect("spawn");
        let cpu = h.join().expect("join");
        assert!(cpu >= 0.05, "expected ≥50 ms of CPU, read {cpu}");
        assert_eq!(thread_cpu_secs("no-such-thread"), 0.0);
    }
}
