"""Time-based window assignment over timestamped records.

The paper's workflow (Section 4.1) speaks of "devices that trigger an alarm
within a certain observation period (the streaming window)".  The
micro-batch engine in :mod:`repro.streaming.dstream` windows by
*availability*; this module adds the classic event-time windows on top:

* :class:`TumblingWindows` — fixed-size, non-overlapping periods;
* :class:`SlidingWindows` — fixed-size periods advancing by a slide step
  (a record belongs to every window covering its timestamp);
* :func:`windowed_counts` — per-window, per-key counts (the "devices that
  alarmed in this observation period" query).

Windows are aligned to the epoch (window ``k`` covers
``[k*size, (k+1)*size)`` for tumbling), so assignments are deterministic
and independent of the data seen so far.  Window bounds are always derived
from the *integer* window index ``k`` — never by accumulating or scaling
the raw timestamp — so every timestamp inside one mathematical window
produces the bit-identical :class:`Window` value.  With non-integer sizes
(0.1, 0.3, ...) the old ``floor(ts / size) * size`` arithmetic drifted in
the last float ulps, splitting one logical window into several distinct
dict keys in :func:`windowed_counts`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Iterable

from repro.errors import ConfigurationError

__all__ = ["Window", "TumblingWindows", "SlidingWindows", "windowed_counts"]


@dataclass(frozen=True, order=True)
class Window:
    """A half-open event-time interval ``[start, end)``."""

    start: float
    end: float

    def contains(self, timestamp: float) -> bool:
        """Whether ``timestamp`` falls inside the window."""
        return self.start <= timestamp < self.end

    @property
    def size(self) -> float:
        return self.end - self.start


def _window_index(timestamp: float, step: float) -> int:
    """Index ``k`` of the step-aligned window containing ``timestamp``.

    ``floor(timestamp / step)`` can land one index off when the division
    rounds across an integer (half-ulp effects with non-integer steps), so
    the candidate is nudged until ``k * step <= timestamp < (k + 1) * step``
    holds under the exact same float products used to build the window.
    """
    k = math.floor(timestamp / step)
    if (k + 1) * step <= timestamp:
        k += 1
    elif k * step > timestamp:
        k -= 1
    return k


class TumblingWindows:
    """Non-overlapping fixed-size windows aligned to the epoch."""

    def __init__(self, size_seconds: float) -> None:
        if size_seconds <= 0:
            raise ConfigurationError(f"size_seconds must be > 0, got {size_seconds}")
        self.size = size_seconds

    def assign(self, timestamp: float) -> list[Window]:
        """The single window containing ``timestamp``."""
        k = _window_index(timestamp, self.size)
        return [Window(k * self.size, (k + 1) * self.size)]


class SlidingWindows:
    """Overlapping fixed-size windows advancing by ``slide_seconds``.

    Every timestamp belongs to ``ceil(size / slide)`` windows.  With
    ``slide == size`` this degenerates to tumbling windows.
    """

    def __init__(self, size_seconds: float, slide_seconds: float) -> None:
        if size_seconds <= 0 or slide_seconds <= 0:
            raise ConfigurationError("window size and slide must be > 0")
        if slide_seconds > size_seconds:
            raise ConfigurationError(
                "slide larger than size would drop records between windows"
            )
        self.size = size_seconds
        self.slide = slide_seconds

    def assign(self, timestamp: float) -> list[Window]:
        """All windows whose interval covers ``timestamp``.

        Window ``j`` covers ``[j*slide, (j+1)*slide + (size - slide))``: its
        end is built on the next window's start ``(j+1)*slide``, the exact
        product :func:`_window_index` compares against, so the window that
        index names always contains ``timestamp`` (with ``j*slide + size``
        the two roundings could disagree and leave it in no window at all).
        """
        j = _window_index(timestamp, self.slide)
        overhang = self.size - self.slide
        windows = []
        while (j + 1) * self.slide + overhang > timestamp:
            windows.append(Window(j * self.slide, (j + 1) * self.slide + overhang))
            j -= 1
        windows.reverse()
        return windows


def windowed_counts(
    records: Iterable[Any],
    assigner: TumblingWindows | SlidingWindows,
    timestamp_fn: Callable[[Any], float],
    key_fn: Callable[[Any], Any],
) -> dict[Window, dict[Any, int]]:
    """Per-window, per-key record counts.

    The paper's observation-period query: with ``key_fn`` extracting the
    device address, the result tells for each streaming window which
    devices alarmed and how often.
    """
    out: dict[Window, dict[Any, int]] = {}
    for record in records:
        timestamp = timestamp_fn(record)
        key = key_fn(record)
        for window in assigner.assign(timestamp):
            bucket = out.setdefault(window, {})
            bucket[key] = bucket.get(key, 0) + 1
    return out
