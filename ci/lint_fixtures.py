#!/usr/bin/env python3
"""Show that each per-file rule D1-D8 fails clippy where it applies.

The rules are compiler and clippy lints, set by the `clippy.toml` files
(the root's, experiments' and bench's) and by lint attributes (DESIGN.md §11). This script copies the workspace
to a temporary directory once, checks that the unmodified copy passes
`cargo clippy -p <crate> --all-targets -- -D warnings` for every crate a
case plants in, and then, one case at a time, appends a violation to a
file of a crate in the rule's scope, requires the check to fail naming the
expected lint, and puts the file back. The last two cases show what the
clippy step alone would not: `#![forbid]` refuses a per-site allowance in
a durability file, and `unsafe` in a fourth `strip-live` file fails
`cargo build`.

Usage: python3 ci/lint_fixtures.py [ROOT]

ROOT defaults to the current directory. Cargo builds in the temporary
copy's target/, deleted with it, unless CARGO_TARGET_DIR names another.
Exits 1 if the unmodified copy fails or a planted violation passes, 2 on
a bad ROOT.
"""

import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

PLANTED = "/// A planted violation.\n#[allow(dead_code, reason = \"a planted violation\")]\n"

# (rule, package, file, appended source, text the failure must print (a
#  clippy lint's help link ends in `#<lint>`), command: "clippy" or "build")
CASES = [
    ("D1 wall clock", "strip-sim", "crates/simkit/src/lib.rs",
     "pub fn planted() -> f64 {\n    std::time::Instant::now().elapsed().as_secs_f64()\n}\n",
     "#disallowed_types", "clippy"),
    ("D1 wall clock outside clock.rs", "strip-live", "crates/live/src/executor.rs",
     "pub fn planted() -> std::time::SystemTime {\n    std::time::SystemTime::now()\n}\n",
     "#disallowed_types", "clippy"),
    ("D2 hash order", "strip-experiments", "crates/experiments/src/lib.rs",
     "pub fn planted(xs: &[u32]) -> usize {\n"
     "    xs.iter().collect::<std::collections::HashSet<_>>().len()\n}\n",
     "#disallowed_types", "clippy"),
    ("D2 hash order (root package)", "strip", "src/lib.rs",
     "pub fn planted() -> std::collections::HashMap<u8, u8> {\n    Default::default()\n}\n",
     "#disallowed_types", "clippy"),
    ("D3 ambient entropy (bench's clippy.toml)", "strip-bench", "crates/bench/src/lib.rs",
     "pub fn planted() -> std::hash::RandomState {\n    std::hash::RandomState::new()\n}\n",
     "#disallowed_types", "clippy"),
    ("D3 ambient entropy (root clippy.toml)", "strip-db", "crates/rtdb/src/lib.rs",
     "pub fn planted() -> std::hash::RandomState {\n    std::hash::RandomState::new()\n}\n",
     "#disallowed_types", "clippy"),
    ("D4 undocumented unsafe", "strip-live", "crates/live/src/spsc.rs",
     "pub fn planted(xs: &[u8; 1]) -> u8 {\n    unsafe { *xs.as_ptr() }\n}\n",
     "#undocumented_unsafe_blocks", "clippy"),
    ("D5 indexing in checkpoint I/O", "strip-experiments", "crates/experiments/src/runner.rs",
     "pub fn planted(xs: &[u8], i: usize) -> u8 {\n    xs[i]\n}\n",
     "#indexing_slicing", "clippy"),
    ("D5 unwrap in trace I/O", "strip-experiments", "crates/experiments/src/tracing.rs",
     "pub fn planted(line: Option<&str>) -> &str {\n    line.unwrap()\n}\n",
     "#unwrap_used", "clippy"),
    ("D7 unwrap in the WAL", "strip-live", "crates/live/src/wal.rs",
     "pub fn planted(r: Option<u8>) -> u8 {\n    r.unwrap()\n}\n",
     "#unwrap_used", "clippy"),
    ("D8 expect in the executor", "strip-live", "crates/live/src/executor.rs",
     "pub fn planted(r: Option<u8>) -> u8 {\n    r.expect(\"x\")\n}\n",
     "#expect_used", "clippy"),
    ("D8 panic in the scheduler core", "strip-core", "crates/core/src/scheduler.rs",
     "pub fn planted() {\n    panic!(\"x\");\n}\n",
     "#panic", "clippy"),
    ("D7 admits no allowance", "strip-live", "crates/live/src/recovery.rs",
     "#[allow(clippy::unwrap_used, reason = \"an allowance D7 refuses\")]\n"
     "pub fn planted(r: Option<u8>) -> u8 {\n    r.unwrap()\n}\n",
     "error[E0453]", "clippy"),
    ("unsafe outside crc32/signal/spsc", "strip-live", "crates/live/src/credit.rs",
     "pub fn planted(xs: &[u8; 1]) -> u8 {\n"
     "    // SAFETY: the array has one element.\n    unsafe { *xs.as_ptr() }\n}\n",
     "deny(unsafe_code)", "build"),
]


def run(cmd, pkg, ws):
    args = ["cargo", cmd, "--offline", "-q", "-p", pkg]
    if cmd == "clippy":
        args += ["--all-targets", "--", "-D", "warnings"]
    proc = subprocess.run(args, cwd=ws, capture_output=True, text=True)
    return proc.returncode, proc.stdout + proc.stderr


def main() -> int:
    argv = sys.argv[1:]
    root = Path(argv[0] if argv else ".").resolve()
    if not (root / "crates").is_dir():
        print(f"lint_fixtures.py: {root} has no crates/ directory", file=sys.stderr)
        return 2
    failed = 0
    with tempfile.TemporaryDirectory(prefix="lint-fixtures-") as tmp:
        ws = Path(tmp) / "ws"
        shutil.copytree(root, ws, ignore=shutil.ignore_patterns("target", ".git", "benchmark"))
        for cmd, pkg in sorted({(c[5], c[1]) for c in CASES}):
            code, out = run(cmd, pkg, ws)
            ok = code == 0
            print(f"{'ok  ' if ok else 'FAIL'} unmodified: cargo {cmd} -p {pkg} passes")
            if not ok:
                print(out)
                failed += 1
        for rule, pkg, rel, source, lint, cmd in CASES:
            path = ws / rel
            original = path.read_text(encoding="utf-8")
            path.write_text(original + "\n" + PLANTED + source, encoding="utf-8")
            try:
                code, out = run(cmd, pkg, ws)
            finally:
                path.write_text(original, encoding="utf-8")
            caught = code != 0 and lint in out and rel in out
            print(f"{'ok  ' if caught else 'FAIL'} {rule}: cargo {cmd} -p {pkg} "
                  f"fails on {rel} with {lint}")
            if not caught:
                print(out)
                failed += 1
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
