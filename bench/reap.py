"""Stop every process this one started and wait until each has ended.

The store workers are reaped by the pipeline that spawned them; what is left
is ``multiprocessing``'s resource tracker, a child the first spawn starts and
nothing waits for: it outlives the interpreter by a moment and is then
nobody's to reap.  Only the standard library is used, and nothing of
``multiprocessing`` is imported unless the run already did.
"""

from __future__ import annotations

import os
import signal
import sys

__all__ = ["children", "reap_children", "exit_on_sigterm"]


def children(parent: int | None = None) -> list[int]:
    """Pids whose parent is ``parent`` (this process by default), zombies
    included."""
    parent = os.getpid() if parent is None else parent
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as handle:
                stat = handle.read()
        except OSError:  # ended between the listing and the read
            continue
        # pid (comm) state ppid ...; comm may hold spaces and parentheses.
        fields = stat[stat.rfind(")") + 2:].split()
        if int(fields[1]) == parent:
            found.append(int(entry))
    return found


def reap_children(graceful: bool = True) -> list[int]:
    """End and wait for every child of this process; returns the pids that
    had to be killed.  ``graceful`` first lets the resource tracker finish
    its own clean-up (it ignores SIGTERM and stops when its pipe closes)."""
    if graceful:
        tracker = getattr(sys.modules.get("multiprocessing.resource_tracker"),
                          "_resource_tracker", None)
        stop = getattr(tracker, "_stop", None)
        if stop is not None:
            try:
                stop()
            except Exception:  # whatever it still runs as is killed below
                pass
    killed = children()
    for pid in killed:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    while True:
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            return killed
        except InterruptedError:
            continue


def exit_on_sigterm() -> None:
    """A terminated run leaves no process behind either: its children are
    killed and waited for before it exits (threads and temporary stores are
    not unwound; the latter live in the gitignored ``bench/out``)."""
    def on_term(signum: int, _frame: object) -> None:
        reap_children(graceful=False)
        os._exit(128 + signum)

    signal.signal(signal.SIGTERM, on_term)
