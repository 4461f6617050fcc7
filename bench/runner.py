"""One run of one workload: set-up, timed phases, output check, metrics."""

from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Any

from bench import machine
from bench.adapter import Inputs, Pipeline, generate_inputs
from bench.check import CheckReport, check_outputs
from bench.harness import DRAIN_TIMEOUT_S, Measurement, measure
from bench.layers import RunFacts, per_layer_metrics
from bench.metrics import END_TO_END, PER_LAYER
from bench.spans import Recorder
from bench.stats import highest_supported_percentile, percentile, summarize
from bench.workloads import Workload

__all__ = ["run_once", "sliced_percentile", "OUT_DIR"]

#: Trace files and every run's temporary stores live here (gitignored).
OUT_DIR = Path(__file__).resolve().parent / "out"
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: The generator thread stands for devices outside the process: with the
#: interpreter's default 5 ms switch interval a busy consumer starves it of
#: the interpreter lock, sends run tens of ms late and the pipeline flips,
#: at a random moment, into 1-alarm windows it never leaves.
SWITCH_INTERVAL_S = 0.0001
#: Latency percentiles are the median over this many slices of the paced
#: phase at most (each of at least ``SLICE_MIN_SAMPLES`` alarms), so a
#: stall - a slow fsync, a collector pause - moves its slice, not the metric.
LATENCY_SLICES = 12
SLICE_MIN_SAMPLES = 500
#: Spans written to a trace file at most.
TRACE_FILE_SPANS = 50_000


def _cpu_s(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def _disk_bytes(root: Path) -> int:
    return sum(path.stat().st_size for path in root.rglob("*") if path.is_file())


def _slice_count(samples: int) -> int:
    return max(1, min(LATENCY_SLICES, samples // SLICE_MIN_SAMPLES))


def sliced_percentile(samples: list[float], pct: float) -> float:
    """Median over consecutive slices of ``samples`` of each slice's
    ``pct``-th percentile."""
    count = _slice_count(len(samples))
    size = len(samples) / count
    return statistics.median(
        percentile(samples[round(i * size):round((i + 1) * size)], pct)
        for i in range(count)
    )


def _end_to_end(measurement: Measurement, setup_s: float) -> dict[str, float]:
    latencies = [
        min(latency, DRAIN_TIMEOUT_S) for latency in measurement.paced_latency_s
    ] or [DRAIN_TIMEOUT_S]
    queries = measurement.query_latency_s or [DRAIN_TIMEOUT_S]
    queried = summarize(queries)
    return {
        "setup_s": setup_s,
        "verified_alarms_per_s":
            measurement.sat_alarms / measurement.sat_wall_s
            if measurement.sat_wall_s else 0.0,
        "e2e_latency_p50_ms": sliced_percentile(latencies, 50.0) * 1e3,
        "e2e_latency_p99_ms": sliced_percentile(latencies, 99.0) * 1e3,
        "query_latency_p50_ms": queried["p50"] * 1e3,
        "query_latency_p99_ms": queried["p99"] * 1e3,
        "queries_per_s":
            len(measurement.query_latency_s) / measurement.query_wall_s
            if measurement.query_wall_s else 0.0,
    }


def _say(workload: Workload, inputs: Inputs, measurement: Measurement,
         report: CheckReport, metrics: dict[str, float],
         units: dict[str, str]) -> None:
    """The human-readable part of the output (the JSON line comes last)."""
    alarms = summarize(measurement.paced_latency_s or [0.0])
    queries = summarize(measurement.query_latency_s or [0.0])
    print(f"== {workload.name} (seed {inputs.seed}): {workload.why}")
    sat_sizes = [count for count, _polled, acked in measurement.windows
                 if not measurement.paced_due or acked < measurement.paced_due[0]]
    paced_sizes = [count for count, *_ in measurement.windows[len(sat_sizes):]]
    print(f"   sat   {measurement.sat_alarms} alarms in "
          f"{measurement.sat_wall_s:.3f} s (closed loop), {len(sat_sizes)} windows "
          f"of p50 {percentile(sat_sizes or [0], 50.0):g} alarms")
    slices = _slice_count(alarms["n"])
    print(f"   paced {alarms['n']} alarms at {workload.paced_rate:g}/s in "
          f"{slices} slices, each supporting "
          f"p{highest_supported_percentile(alarms['n'] // slices):g} "
          f"(pooled p50 {alarms['p50'] * 1e3:.2f} ms, p99 {alarms['p99'] * 1e3:.2f} ms), "
          f"deadline_miss_share {measurement.deadline_miss_share:.4f}, "
          f"{'valid' if measurement.paced_valid else 'INVALID open loop'} "
          f"(generator lateness p99 "
          f"{percentile(measurement.lateness_s or [0.0], 99.0) * 1e3:.2f} ms, "
          f"final backlog {measurement.backlog[-1] if measurement.backlog else 0}"
          f"{', growing' if measurement.backlog_growing else ''}), "
          f"{len(paced_sizes)} windows of p50 "
          f"{percentile(paced_sizes or [0], 50.0):g} alarms")
    print(f"   operator {queries['n']} queries "
          f"({'beside' if workload.operator else 'after'} ingest): highest "
          f"supported percentile p{queries['supported_pct']:g}, "
          f"{measurement.queries_failed} wrong")
    for name, value in metrics.items():
        print(f"   {name:<42} {value:>14.4f} {units[name]}")
    for problem in report.problems:
        print(f"   CHECK FAILED: {problem}")
    print(f"   output check: {'ok' if report.correct else 'FAILED'}")


def _result(inputs: Inputs, measurement: Measurement, report: CheckReport,
            metrics: dict[str, float], units: dict[str, str]) -> dict[str, Any]:
    failed = report.failed_alarms + measurement.queries_failed
    if not report.correct:
        failed = max(failed, 1)
    return {
        "correct": report.correct and failed == 0,
        "attempted": inputs.unique + len(measurement.query_latency_s),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }


def _untraced(workload: Workload, inputs: Inputs, scratch: Path) -> dict[str, Any]:
    setups: list[float] = []
    pipeline: Pipeline | None = None
    for attempt in range(SETUP_REPEATS):
        if pipeline is not None:
            pipeline.close()
            shutil.rmtree(pipeline.root, ignore_errors=True)
        started = time.perf_counter()
        pipeline = Pipeline(workload, inputs, scratch / f"setup-{attempt}")
        setups.append(time.perf_counter() - started)
    assert pipeline is not None
    try:
        measurement = measure(pipeline, inputs)
        report = check_outputs(pipeline, inputs, measurement)
    finally:
        pipeline.close()
    units = {name: unit for name, unit, _better, _bound in END_TO_END}
    metrics = _end_to_end(measurement, statistics.median(setups))
    _say(workload, inputs, measurement, report, metrics, units)
    return _result(inputs, measurement, report, metrics, units)


def _traced(workload: Workload, inputs: Inputs, scratch: Path) -> dict[str, Any]:
    facts = RunFacts(fsync_ms=machine.fsync_ms(scratch), spin_ms=machine.spin_ms())
    # The same closed loop with wrappers off: the difference between the
    # two runs is the tracing overhead.
    baseline = Pipeline(workload, inputs, scratch / "untraced")
    try:
        facts.untraced_sat_wall_s = measure(baseline, inputs, sat_only=True).sat_wall_s
    finally:
        baseline.close()
        shutil.rmtree(baseline.root, ignore_errors=True)

    recorder = Recorder()
    workers_before = _cpu_s(resource.RUSAGE_CHILDREN)
    pipeline = Pipeline(workload, inputs, scratch / "traced", recorder)
    try:
        parent_before = _cpu_s(resource.RUSAGE_SELF)
        measurement = measure(pipeline, inputs, recorder)
        pipeline.stop_tracing()
        facts.parent_cpu_s = _cpu_s(resource.RUSAGE_SELF) - parent_before
        facts.disk_bytes = _disk_bytes(pipeline.root) if workload.durable else 0
        facts.docs_per_shard = pipeline.docs_per_shard()
        started = time.perf_counter()
        facts.program = pipeline.program_metrics()
        facts.harvest_s = time.perf_counter() - started
        facts.spawn_s = pipeline.spawn_s
        facts.hooks_missing = len(pipeline.missing_hooks)
        report = check_outputs(pipeline, inputs, measurement)
    finally:
        pipeline.close()
    # Children count once reaped, so the workers' CPU is read after close.
    facts.worker_cpu_s = _cpu_s(resource.RUSAGE_CHILDREN) - workers_before
    facts.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    _write_trace(workload, inputs, recorder, measurement)
    units = {name: unit for name, unit, _better in PER_LAYER}
    metrics = per_layer_metrics(recorder, inputs, measurement, report, facts)
    for hook in pipeline.missing_hooks:
        print(f"   hook not found, its spans read 0: {hook}")
    _say(workload, inputs, measurement, report, metrics, units)
    return _result(inputs, measurement, report, metrics, units)


def _write_trace(workload: Workload, inputs: Inputs, recorder: Recorder,
                 measurement: Measurement) -> None:
    spans = recorder.kept_spans()
    path = OUT_DIR / f"trace-{workload.name}-{inputs.seed}.json"
    with path.open("w", encoding="utf-8") as handle:
        json.dump({
            "workload": workload.name, "seed": inputs.seed,
            "spans_recorded": len(spans),
            "spans": spans[:TRACE_FILE_SPANS],
            "alarms": [
                {**sample, "ack": measurement.ack_time[int(sample["alarm"])]}
                for sample in measurement.sampled
            ],
            "windows": [
                {"alarms": count, "polled_at": polled, "acked_at": acked}
                for count, polled, acked in measurement.windows
            ],
        }, handle)
    print(f"   trace written to {path.relative_to(OUT_DIR.parent.parent)}")


def run_once(workload: Workload, seed: int, seconds: float,
             trace: bool) -> dict[str, Any]:
    """Run ``workload`` once; returns the result object the command prints."""
    sys.setswitchinterval(SWITCH_INTERVAL_S)
    inputs = generate_inputs(workload, seed, seconds)
    scratch = OUT_DIR / f"run-{os.getpid()}-{workload.name}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    try:
        run = _traced if trace else _untraced
        return run(workload, inputs, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
