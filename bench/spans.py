"""Outside-in tracing: span recorder, timing proxies and attribute patches.

Everything here wraps callables from the outside; nothing depends on
``repro``.  A span has a name, a start, an end and the span that caused it.
Counts and busy time are aggregated per name as spans close; full spans are
retained only while the recording thread's ``keep`` flag is on (the
consumer thread always, the generator thread for sampled alarms), so memory
stays flat however long a run is.

Self time is a span's duration minus the part of its interval covered by
its child spans.  Children may overlap (a fan-out runs them on pool
threads), so coverage is the length of the union, never the sum.
"""

from __future__ import annotations

import inspect
import itertools
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Iterable, Mapping

__all__ = [
    "Recorder", "Stat", "TimingProxy", "covered_length", "self_time",
    "patch_attribute", "propagate_spans_into_pools",
]


def covered_length(intervals: Iterable[tuple[float, float]],
                   start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    covered = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo = max(lo, reach)
        hi = min(hi, end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return covered


def self_time(start: float, end: float,
              children: Iterable[tuple[float, float]]) -> float:
    """Duration of ``[start, end]`` not covered by any child interval."""
    return (end - start) - covered_length(children, start, end)


class Stat:
    """Aggregate of every closed span of one name."""

    __slots__ = ("calls", "busy", "self_s", "durations", "counts", "peaks", "under")

    def __init__(self) -> None:
        self.calls = 0
        self.busy = 0.0
        self.self_s = 0.0
        self.durations: list[float] = []
        self.counts: dict[str, float] = {}
        self.peaks: dict[str, float] = {}
        #: Busy time by the name of the span that caused it.
        self.under: dict[str, float] = {}

    def merge(self, other: "Stat") -> None:
        self.calls += other.calls
        self.busy += other.busy
        self.self_s += other.self_s
        self.durations.extend(other.durations)
        for key, amount in other.counts.items():
            self.counts[key] = self.counts.get(key, 0) + amount
        for key, value in other.peaks.items():
            self.peaks[key] = max(self.peaks.get(key, value), value)
        for key, amount in other.under.items():
            self.under[key] = self.under.get(key, 0.0) + amount


class _Frame:
    """One open span."""

    __slots__ = ("name", "start", "parent", "children", "span_id", "keep",
                 "meta", "fanned_out")

    def __init__(self, name: str, parent: "_Frame | None", span_id: int,
                 keep: bool) -> None:
        self.name = name
        self.parent = parent
        self.children: list[tuple[float, float]] = []
        self.span_id = span_id
        self.keep = keep
        self.meta: dict[str, Any] | None = None
        #: Set when the span handed work to a thread pool (a fan-out).
        self.fanned_out = False
        self.start = time.perf_counter()


class _ThreadState:
    __slots__ = ("name", "stack", "stats", "top_busy", "kept", "keep", "adopted")

    def __init__(self, name: str) -> None:
        self.name = name
        self.stack: list[_Frame] = []
        self.stats: dict[str, Stat] = {}
        #: Summed duration of spans with no parent on this thread's own
        #: stack: the thread's wall time minus this is its untraced time.
        self.top_busy = 0.0
        self.kept: list[dict[str, Any]] = []
        self.keep = False
        self.adopted: _Frame | None = None


class Recorder:
    """Thread-safe span recorder with per-thread, lock-free accumulation."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = _ThreadState(threading.current_thread().name)
            self._local.state = state
            with self._lock:
                self._states.append(state)
            return state

    # -- recording ---------------------------------------------------------------

    def begin(self, name: str) -> _Frame:
        state = self._state()
        stack = state.stack
        if stack:
            parent = stack[-1]
            keep = parent.keep
        else:
            parent = state.adopted
            keep = state.keep or (parent is not None and parent.keep)
        frame = _Frame(name, parent, next(self._ids), keep)
        stack.append(frame)
        return frame

    def end(self, frame: _Frame) -> float:
        """Close ``frame``; returns its duration."""
        end = time.perf_counter()
        state = self._local.state
        state.stack.pop()
        start = frame.start
        duration = end - start
        name = frame.name
        stat = state.stats.get(name)
        if stat is None:
            stat = state.stats[name] = Stat()
        stat.calls += 1
        stat.busy += duration
        children = frame.children
        stat.self_s += self_time(start, end, children) if children else duration
        stat.durations.append(duration)
        if children and frame.fanned_out:
            # A result that waits for parallel parts waits for the slowest.
            counts = stat.counts
            counts["fanouts"] = counts.get("fanouts", 0) + 1
            counts["fanout_s"] = counts.get("fanout_s", 0.0) + duration
            counts["slowest_s"] = counts.get("slowest_s", 0.0) + max(
                hi - lo for lo, hi in children)
        parent = frame.parent
        if parent is not None:
            parent.children.append((start, end))
            under = stat.under
            under[parent.name] = under.get(parent.name, 0.0) + duration
        if not state.stack:
            state.top_busy += duration
        if frame.keep:
            state.kept.append({
                "id": frame.span_id,
                "parent": parent.span_id if parent else None,
                "name": name, "start": start, "end": end,
                "thread": state.name, **(frame.meta or {}),
            })
        return duration

    def add(self, name: str, key: str, amount: float = 1) -> None:
        """Count ``amount`` of ``key`` at the boundary ``name``."""
        state = self._state()
        stat = state.stats.get(name)
        if stat is None:
            stat = state.stats[name] = Stat()
        stat.counts[key] = stat.counts.get(key, 0) + amount

    def peak(self, name: str, key: str, value: float) -> None:
        """Keep the largest ``value`` of ``key`` seen at the boundary ``name``."""
        state = self._state()
        stat = state.stats.get(name)
        if stat is None:
            stat = state.stats[name] = Stat()
        stat.peaks[key] = max(stat.peaks.get(key, value), value)

    def wrap(self, name: str, fn: Callable[..., Any],
             observe: Callable[["Recorder", _Frame, tuple, dict, Any], None] | None = None
             ) -> Callable[..., Any]:
        """``fn`` timed as a span called ``name``.

        ``observe(recorder, frame, args, kwargs, result)`` runs after a
        successful call, before the span closes, to count work at the
        boundary (bytes, documents) or attach metadata to a kept span.
        """
        begin, end = self.begin, self.end
        if observe is None:
            def timed(*args: Any, **kwargs: Any) -> Any:
                frame = begin(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    end(frame)
        else:
            def timed(*args: Any, **kwargs: Any) -> Any:
                frame = begin(name)
                try:
                    result = fn(*args, **kwargs)
                    observe(self, frame, args, kwargs, result)
                    return result
                finally:
                    end(frame)
        timed.__wrapped__ = fn  # type: ignore[attr-defined]
        return timed

    # -- thread context ----------------------------------------------------------

    def set_keep(self, keep: bool) -> None:
        """Retain (or stop retaining) full spans opened by this thread."""
        self._state().keep = keep

    def current(self) -> _Frame | None:
        """The calling thread's innermost open span, if any."""
        state = self._state()
        return state.stack[-1] if state.stack else state.adopted

    def adopt(self, parent: _Frame | None) -> _Frame | None:
        """Make ``parent`` the cause of this thread's top-level spans;
        returns the previously adopted frame so the caller can restore it."""
        state = self._state()
        previous = state.adopted
        state.adopted = parent
        return previous

    # -- reading -----------------------------------------------------------------

    def totals(self) -> dict[str, Stat]:
        """Per-name aggregates merged over every thread."""
        merged: dict[str, Stat] = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            for name, stat in state.stats.items():
                merged.setdefault(name, Stat()).merge(stat)
        return merged

    def top_busy(self, thread_name: str) -> float:
        """Summed top-level span time of the thread(s) called ``thread_name``."""
        with self._lock:
            return sum(s.top_busy for s in self._states if s.name == thread_name)

    def kept_spans(self) -> list[dict[str, Any]]:
        """Every retained span, in start order."""
        with self._lock:
            spans = [span for state in self._states for span in state.kept]
        spans.sort(key=lambda span: span["start"])
        return spans


class TimingProxy:
    """Stands in for ``target``; every attribute is the target's own except
    the callables named in ``wrapped``, which are timed replacements.

    Attribute writes and the container protocol are forwarded too, so code
    holding the proxy cannot tell it from the target.  The replacements sit
    in the instance dictionary, so calling one costs no ``__getattr__``.
    """

    def __init__(self, target: Any, wrapped: Mapping[str, Callable[..., Any]]) -> None:
        self.__dict__.update(wrapped)
        self.__dict__["_target"] = target

    def __getattr__(self, name: str) -> Any:
        return getattr(self.__dict__["_target"], name)

    def __setattr__(self, name: str, value: Any) -> None:
        setattr(self.__dict__["_target"], name, value)

    def __len__(self) -> int:
        return len(self.__dict__["_target"])

    def __bool__(self) -> bool:
        return bool(self.__dict__["_target"])

    def __iter__(self):
        return iter(self.__dict__["_target"])

    def __repr__(self) -> str:
        return f"TimingProxy({self.__dict__['_target']!r})"


def patch_attribute(owner: Any, attribute: str,
                    make: Callable[[Any], Any]) -> Callable[[], None] | None:
    """Replace ``owner.attribute`` with ``make(original)``.

    Returns the undo callable, or ``None`` when ``owner`` has no such
    attribute — a refactor renamed the hook; the caller reports it as
    missing instead of failing the run.
    """
    try:
        original = inspect.getattr_static(owner, attribute)
    except AttributeError:
        return None
    plain = original.__func__ if isinstance(original, (staticmethod, classmethod)) \
        else original
    replacement: Any = make(plain)
    if isinstance(original, staticmethod):
        replacement = staticmethod(replacement)
    elif isinstance(original, classmethod):
        replacement = classmethod(replacement)
    setattr(owner, attribute, replacement)

    def undo() -> None:
        setattr(owner, attribute, original)
    return undo


def propagate_spans_into_pools(recorder: Recorder) -> Callable[[], None]:
    """Make tasks submitted to any thread pool children of the submitting
    thread's open span (a fan-out's per-shard calls run on pool threads).

    Returns the undo callable.
    """
    original = ThreadPoolExecutor.submit

    def submit(self: ThreadPoolExecutor, fn: Callable[..., Any], /,
               *args: Any, **kwargs: Any):
        parent = recorder.current()
        if parent is None:
            return original(self, fn, *args, **kwargs)
        parent.fanned_out = True

        def task(*task_args: Any, **task_kwargs: Any) -> Any:
            previous = recorder.adopt(parent)
            try:
                return fn(*task_args, **task_kwargs)
            finally:
                recorder.adopt(previous)
        return original(self, task, *args, **kwargs)

    ThreadPoolExecutor.submit = submit  # type: ignore[method-assign]

    def undo() -> None:
        ThreadPoolExecutor.submit = original  # type: ignore[method-assign]
    return undo
