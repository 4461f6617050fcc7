"""No run leaves a process behind: the reaper ends and waits for every child."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent

# Run in a process of its own: the reaper ends *every* child of its process.
SCRIPT = """
import multiprocessing, subprocess, sys, time
from bench.reap import children, reap_children

if __name__ == "__main__":
    sleeper = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
    worker = multiprocessing.get_context("spawn").Process(target=time.sleep, args=(0,))
    worker.start()
    worker.join()
    before = children()
    # The sleeper and the resource tracker the spawn started.
    assert sleeper.pid in before and len(before) >= 2, before
    killed = reap_children()
    assert killed == [sleeper.pid], (killed, before)
    assert children() == []
    print("reaped")
"""


def test_reaper_ends_and_waits_for_every_child() -> None:
    done = subprocess.run([sys.executable, "-c", SCRIPT], cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "reaped"
