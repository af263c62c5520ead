"""Reference output of every benchmark command, and the row-level comparison.

The files under reference/ are the exact stdout of each workload command at
the default prime; certified output does not depend on the prime, so every
seed must reproduce them byte for byte.  A row is one line that starts with
a digit: one per n for `typed solve`, one per degree for `hp0 brute`.

Regenerate (only when the certified output is meant to change):

    python3 perfbench/reference.py
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
DIR = HERE / "reference"


def path(workload: str, index: int) -> Path:
    return DIR / f"{workload}.{index}.txt"


def rows(text: str) -> dict[str, str]:
    """Output rows keyed by their first field (n or degree)."""
    out = {}
    for line in text.splitlines():
        if line.strip()[:1].isdigit():
            out[line.split()[0]] = line
    return out


def failed_rows(expected: str, actual: str, exit_code: int) -> int:
    """Expected rows that are missing or differ, or all of them on a
    non-zero exit."""
    want = rows(expected)
    if exit_code != 0:
        return len(want)
    got = rows(actual)
    return sum(1 for key, line in want.items() if got.get(key) != line)


def main() -> int:
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    DIR.mkdir(exist_ok=True)
    for wl in WORKLOADS.values():
        for i, command in enumerate(wl.commands):
            argv = [sys.executable, str(HERE / "launch.py"), "--", *command, "--no-cache"]
            out = subprocess.run(argv, check=True, capture_output=True, text=True).stdout
            path(wl.name, i).write_text(out)
            print(f"{wl.name}.{i}: {len(rows(out))} rows")
    return 0


if __name__ == "__main__":
    sys.exit(main())
