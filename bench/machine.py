"""Machine fingerprint and two calibration probes.

Recorded beside results so a reader can interpret them; never used to
derate a bound.
"""

from __future__ import annotations

import os
import platform
import statistics
import time
from pathlib import Path

__all__ = ["fsync_ms", "spin_ms", "fingerprint"]


def fsync_ms(directory: Path, rounds: int = 25) -> float:
    """Median milliseconds of one 4 KiB write + fsync under ``directory``."""
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"fsync-probe-{os.getpid()}"
    block = b"\0" * 4096
    samples = []
    try:
        with path.open("wb", buffering=0) as handle:
            for _ in range(rounds):
                started = time.perf_counter()
                handle.write(block)
                os.fsync(handle.fileno())
                samples.append(time.perf_counter() - started)
    finally:
        path.unlink(missing_ok=True)
    return statistics.median(samples) * 1e3


def spin_ms(rounds: int = 5) -> float:
    """Median milliseconds of a fixed pure-Python loop (interpreter speed)."""
    samples = []
    for _ in range(rounds):
        started = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        samples.append(time.perf_counter() - started)
    return statistics.median(samples) * 1e3


def fingerprint(directory: Path) -> dict[str, object]:
    """What the results were measured on."""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "machine.fsync_ms": fsync_ms(directory),
        "machine.spin_ms": spin_ms(),
    }
