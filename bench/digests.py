"""Byte-level checks on a run's output directory.

stochfp promises byte-identical outputs for the same config, seeds and
stream, whatever --jobs is; the benchmark's correctness gate is that promise.
"""

from __future__ import annotations

import hashlib
from pathlib import Path


def digest_dir(path: Path) -> dict[str, str]:
    """SHA-256 hex digest of every regular file in path, keyed by file name."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(Path(path).iterdir())
        if p.is_file()
    }


def digest_mismatches(expected: dict[str, str], actual: dict[str, str]) -> list[str]:
    """Names of files that are missing, unexpected, or whose bytes differ."""
    names = sorted(set(expected) | set(actual))
    return [n for n in names if expected.get(n) != actual.get(n)]


def seed_steps(path: Path) -> dict[str, int]:
    """Iterations per seed CSV: data rows with n >= 1 (the lower bound's n = 0 row is not a step)."""
    steps = {}
    for p in sorted(Path(path).glob("seed_*.csv")):
        rows = p.read_bytes().splitlines()[1:]
        steps[p.name] = sum(1 for row in rows if not row.startswith(b"0,"))
    return steps
