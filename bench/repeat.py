"""Repeatability: K seeds per workload, each in a fresh process, and the
spread of every end-to-end metric against its bound."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from typing import Any

from bench import machine
from bench.metrics import END_TO_END
from bench.runner import OUT_DIR
from bench.stats import spread

__all__ = ["repeat", "summarize_runs"]

ROOT = Path(__file__).resolve().parent.parent
#: Discarded runs before the first set: a box that was idle runs its first
#: minute of sustained load faster than everything after it, and a set that
#: straddles the change reads as spread.
WARMUP_RUNS = 3


def _commit() -> str:
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def summarize_runs(runs: list[dict[str, Any]]) -> dict[str, dict[str, float]]:
    """Per end-to-end metric: median, quartiles and spreads over ``runs``."""
    return {
        name: {**spread([run["metrics"][name]["value"] for run in runs]),
               "bound": bound}
        for name, _unit, _better, bound in END_TO_END
    }


def repeat(names: list[str], seed: int, seconds: float, count: int,
           out: str | None) -> int:
    if count < 2:
        print("--repeat needs at least 2 runs", file=sys.stderr)
        return 2
    record: dict[str, Any] = {
        "commit": _commit(),
        "machine": machine.fingerprint(OUT_DIR),
        "seconds": seconds, "seeds": list(range(seed, seed + count)),
        "workloads": {},
    }
    def run(name: str, run_seed: int) -> subprocess.CompletedProcess[str]:
        return subprocess.run(
            [sys.executable, "-m", "bench.run", "--workload", name,
             "--seed", str(run_seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True,
        )

    for _ in range(WARMUP_RUNS):
        run(names[0], seed)
    all_correct = True
    for name in names:
        runs = []
        for run_seed in record["seeds"]:
            done = run(name, run_seed)
            if not done.stdout.strip():
                print(done.stderr, file=sys.stderr)
                return 1
            result = json.loads(done.stdout.strip().splitlines()[-1])
            all_correct = all_correct and result["correct"]
            runs.append(result)
            print(f"{name} seed {run_seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
        summary = summarize_runs(runs)
        record["workloads"][name] = {"runs": runs, "summary": summary}
        print(f"== {name}: {count} runs")
        print(f"   {'metric':<24}{'median':>12}{'q1':>12}{'q3':>12}"
              f"{'iqr/med':>9}{'range/med':>10}{'bound':>7}")
        for metric, row in summary.items():
            flag = "" if row["iqr_share"] <= row["bound"] / 3 else \
                "  > bound/3" if row["iqr_share"] <= row["bound"] else "  > BOUND"
            print(f"   {metric:<24}{row['median']:>12.4f}{row['q1']:>12.4f}"
                  f"{row['q3']:>12.4f}{row['iqr_share']:>9.3f}"
                  f"{row['range_share']:>10.3f}{row['bound']:>7.2f}{flag}")
    if out:
        Path(out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
        print(f"written to {out}")
    return 0 if all_correct else 1
