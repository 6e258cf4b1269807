#!/usr/bin/env python3
"""Non-test Rust lines per crate and in total.

Counts every line of every `.rs` file under `crates/*/src` and `src/`,
with each file cut at its unit-test module: the first column-0
`#[cfg(test)]` (or `#[cfg(all(test, ...))]`) line that is followed by a
column-0 `mod` declaration (`mod tests {`, `pub(crate) mod tests {`).
The attribute on any other item (a test-only function or static) does
not cut the file, so such items count as the production code they sit
in.

Usage: python3 ci/loc.py [ROOT]   (ROOT defaults to the current directory)

Exits 2 when ROOT has no `crates/` directory (a mistyped path or an
option taken for ROOT), rather than printing a table of zeros.
"""

import re
import sys
from pathlib import Path

TEST_CFG = re.compile(r"^#\[cfg\((test|all\(test\b.*)\)\]$")
MOD_LINE = re.compile(r"^(pub(\([^)]*\))? )?mod \w+")


def non_test_lines(path: Path) -> int:
    lines = path.read_text(encoding="utf-8").splitlines()
    for i, line in enumerate(lines):
        if TEST_CFG.match(line.rstrip()) and i + 1 < len(lines) and MOD_LINE.match(lines[i + 1]):
            return i
    return len(lines)


def main() -> int:
    root = Path(sys.argv[1] if len(sys.argv) > 1 else ".")
    if not (root / "crates").is_dir():
        print(f"loc.py: {root} has no crates/ directory", file=sys.stderr)
        return 2
    per_crate = {}
    for src in sorted(root.glob("crates/*/src")) + [root / "src"]:
        name = src.parent.name if src.parent != root else "(root)"
        per_crate[name] = sum(non_test_lines(f) for f in sorted(src.rglob("*.rs")))
    width = max(len(name) for name in per_crate)
    for name, n in per_crate.items():
        print(f"{name:<{width}} {n:>7}")
    print(f"{'total':<{width}} {sum(per_crate.values()):>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
