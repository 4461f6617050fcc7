"""The per-layer budget of a traced run, computed here and never by the program.

Spans come from :class:`bench.spans.Recorder` (wrappers around the calls into
each layer, all inside this process).  What outside timing cannot reach - the
WAL and RPC frames of the worker processes - is added from the program's own
``collect_metrics()`` snapshots; ``bench/README.md`` lists those values as
``source=program``.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Any, Iterator

from bench.adapter import Inputs
from bench.check import CheckReport
from bench.harness import CONSUMER_THREAD, Measurement
from bench.metrics import PER_LAYER
from bench.spans import Recorder, Stat, covered_length
from bench.stats import percentile

__all__ = ["RunFacts", "per_layer_metrics", "unaccounted_share"]


@dataclass
class RunFacts:
    """Scalars a traced run gathers around the timed phases."""

    disk_bytes: int = 0
    docs_per_shard: list[int] = field(default_factory=list)
    #: Worker-process metric snapshots and how long harvesting them took.
    program: list[dict[str, Any]] = field(default_factory=list)
    harvest_s: float = 0.0
    spawn_s: float = 0.0
    hooks_missing: int = 0
    worker_cpu_s: float = 0.0
    parent_cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    untraced_sat_wall_s: float = 0.0
    fsync_ms: float = 0.0
    spin_ms: float = 0.0


def _program_series(snapshots: list[dict[str, Any]], kind: str,
                    name: str) -> Iterator[dict[str, Any]]:
    """Every worker's series called ``name`` (whatever its labels)."""
    for snapshot in snapshots:
        for key, entry in snapshot.get(kind, {}).items():
            if key == name or key.startswith(name + "{"):
                yield entry


def _program_histogram(snapshots: list[dict[str, Any]], name: str) -> tuple[float, float]:
    """``(count, sum)`` of the histogram ``name`` over every worker snapshot."""
    entries = list(_program_series(snapshots, "histograms", name))
    return (sum(entry.get("count", 0) for entry in entries),
            sum(entry.get("sum", 0.0) for entry in entries))


def unaccounted_share(recorder: Recorder, measurement: Measurement) -> float:
    """``(e2e - sum of spans) / e2e`` over the sampled alarms.

    An alarm's life is its lateness (due -> send), its send, its queue dwell
    (send -> the poll that fetched it) and its window (poll -> store-ack).
    Only the window holds time no span covers: what the consumer spends
    between the wrapped calls (dataset building, ``distinct``,
    ``Alarm.from_document``).
    """
    top = [
        (span["start"], span["end"]) for span in recorder.kept_spans()
        if span["thread"] == CONSUMER_THREAD and span["parent"] is None
    ]
    starts = [start for start, _end in top]
    uncovered_by_ack: dict[float, float] = {}
    for _count, polled_at, acked_at in measurement.windows:
        lo = bisect.bisect_left(starts, polled_at)
        hi = bisect.bisect_right(starts, acked_at)
        uncovered_by_ack[acked_at] = (acked_at - polled_at) - covered_length(
            top[lo:hi], polled_at, acked_at)
    e2e = uncovered = 0.0
    for sample in measurement.sampled:
        acked_at = measurement.ack_time[int(sample["alarm"])]
        if not acked_at:
            continue
        e2e += acked_at - sample["due"]
        uncovered += uncovered_by_ack.get(acked_at, 0.0)
    return uncovered / e2e if e2e > 0 else 0.0


def per_layer_metrics(recorder: Recorder, inputs: Inputs,
                      measurement: Measurement, report: CheckReport,
                      facts: RunFacts) -> dict[str, float]:
    """Every ``PER_LAYER`` metric of one traced run."""
    totals = recorder.totals()
    workload = inputs.workload
    unique = max(1, inputs.unique)

    def stat(name: str) -> Stat:
        return totals.get(name) or Stat()

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    def p_ms(samples: list[float], pct: float) -> float:
        return percentile(samples, pct) * 1e3 if samples else 0.0

    m: dict[str, float] = {}

    # streaming
    serialize, append = stat("streaming.serialize"), stat("streaming.append")
    fetch, commit = stat("streaming.fetch"), stat("streaming.commit")
    m["streaming.serialize.busy_s"] = serialize.busy
    m["streaming.serialize.bytes_per_alarm"] = ratio(
        serialize.counts.get("bytes", 0), serialize.calls)
    m["streaming.append.busy_s"] = append.busy
    m["streaming.append.calls"] = append.calls
    m["streaming.fetch.busy_s"] = fetch.busy
    m["streaming.fetch.calls"] = fetch.calls
    m["streaming.fetch.empty_share"] = ratio(fetch.counts.get("empty", 0), fetch.calls)
    m["streaming.deserialize.busy_s"] = stat("streaming.deserialize").busy
    m["streaming.commit.busy_s"] = commit.busy
    m["streaming.commit.calls"] = commit.calls
    polled_by_ack = {acked: polled for _n, polled, acked in measurement.windows}
    # A record appended while its window's poll is already sweeping the
    # partitions has no dwell.
    dwell = [
        max(0.0, polled_by_ack[acked] - sent)
        for sent, acked in zip(measurement.sent_at, measurement.ack_time)
        if sent and acked in polled_by_ack
    ]
    m["streaming.queue_dwell.p50_ms"] = p_ms(dwell, 50.0)
    m["streaming.queue_dwell.p99_ms"] = p_ms(dwell, 99.0)
    sizes = [count for count, _polled, _acked in measurement.windows]
    m["streaming.window.count"] = len(sizes)
    m["streaming.window.alarms_p50"] = percentile(sizes, 50.0) if sizes else 0.0
    m["streaming.lag.max_alarms"] = measurement.max_lag

    # core
    lookup, sink = stat("core.history_lookup"), stat("core.sink")
    m["core.history_lookup.busy_s"] = lookup.busy
    m["core.history_lookup.calls"] = lookup.calls
    m["core.history_lookup.devices_per_call"] = ratio(
        lookup.counts.get("devices", 0), lookup.calls)
    m["core.sink.busy_s"] = sink.busy
    m["core.sink.calls"] = sink.calls
    m["core.sink.duplicates_dropped"] = sink.counts.get("duplicates", 0)
    m["core.consumer.self_s"] = max(
        0.0, measurement.consumer_wall_s - recorder.top_busy(CONSUMER_THREAD))
    m["core.consumer.idle_s"] = stat("core.consumer.idle").busy
    m["core.unaccounted_share"] = unaccounted_share(recorder, measurement)

    # ml
    verify = stat("ml.verify")
    m["ml.verify.busy_s"] = verify.busy
    m["ml.verify.calls"] = verify.calls
    m["ml.verify.alarms_per_call"] = ratio(verify.counts.get("alarms", 0), verify.calls)
    stored = [(i, outcome) for i, outcome in enumerate(report.stored)
              if outcome is not None]
    m["ml.accuracy"] = ratio(
        sum(1 for i, outcome in stored if outcome == inputs.truth[i]), len(stored))
    m["ml.false_share"] = ratio(sum(1 for _i, outcome in stored if outcome), len(stored))

    # storage: the store as core calls it, whatever topology answers
    insert, count = stat("storage.insert"), stat("storage.count")
    kinds = {kind: stat(f"storage.query.{kind}")
             for kind in ("point", "topk", "aggregate")}
    m["storage.insert.busy_s"] = insert.busy
    m["storage.insert.calls"] = insert.calls
    m["storage.insert.docs"] = insert.counts.get("docs", 0)
    m["storage.count.busy_s"] = count.busy
    m["storage.count.calls"] = count.calls
    m["storage.query.busy_s"] = sum(s.busy for s in kinds.values())
    m["storage.query.calls"] = sum(s.calls for s in kinds.values())
    m["storage.query.docs_returned"] = sum(
        s.counts.get("docs", 0) for s in kinds.values())
    for kind, kind_stat in kinds.items():
        m[f"storage.query.{kind}_p50_ms"] = p_ms(kind_stat.durations, 50.0)

    # durability: this process by spans, worker processes by their own metrics
    wal_append, fsync = stat("durability.wal_append"), stat("durability.fsync")
    wal_sync, checkpoint = stat("durability.wal_sync"), stat("durability.checkpoint")
    worker_fsyncs, worker_fsync_s = _program_histogram(
        facts.program, "repro_wal_fsync_seconds")
    worker_commits, worker_records = _program_histogram(
        facts.program, "repro_wal_commit_batch_records")
    m["durability.wal_append.busy_s"] = wal_append.busy
    m["durability.wal_append.calls"] = wal_append.calls + worker_commits
    m["durability.wal_append.bytes"] = wal_append.counts.get("bytes", 0)
    m["durability.wal_fsync.busy_s"] = fsync.busy + worker_fsync_s
    m["durability.wal_fsync.calls"] = fsync.calls + worker_fsyncs
    m["durability.wal.records_per_fsync"] = ratio(
        wal_append.counts.get("records", 0) + worker_records,
        fsync.calls + worker_fsyncs)
    m["durability.broker_append.self_s"] = append.self_s if workload.durable else 0.0
    m["durability.offset_commit.busy_s"] = (
        wal_append.under.get("streaming.commit", 0.0)
        + wal_sync.under.get("streaming.commit", 0.0))
    m["durability.checkpoint.busy_s"] = checkpoint.busy
    m["durability.checkpoint.count"] = checkpoint.calls
    m["durability.disk_bytes_per_alarm"] = facts.disk_bytes / unique
    recovery = report.recovery
    m["durability.recovery.busy_s"] = getattr(recovery, "seconds", 0.0)
    m["durability.recovery.ops_replayed"] = getattr(recovery, "store_ops_replayed", 0)
    m["durability.recovery.records_replayed"] = getattr(recovery, "broker_records", 0)

    # cluster: the store calls' time outside the RPCs they fan out
    sharded = workload.process_shards > 0
    reads = [count, *kinds.values()]
    m["cluster.insert.self_s"] = insert.self_s if sharded else 0.0
    m["cluster.read.self_s"] = sum(s.self_s for s in reads) if sharded else 0.0
    fanned = [insert, *reads] if sharded else []
    m["cluster.fanout.calls"] = sum(s.counts.get("fanouts", 0) for s in fanned)
    m["cluster.slowest_shard_share"] = ratio(
        sum(s.counts.get("slowest_s", 0.0) for s in fanned),
        sum(s.counts.get("fanout_s", 0.0) for s in fanned))
    shards = facts.docs_per_shard
    m["cluster.shard_skew"] = ratio(max(shards), sum(shards) / len(shards)) \
        if sharded and shards else 0.0

    # runtime
    rpc, encode = stat("runtime.rpc"), stat("runtime.encode")
    m["runtime.rpc.busy_s"] = rpc.busy
    m["runtime.rpc.calls"] = rpc.calls
    m["runtime.rpc.p50_ms"] = p_ms(rpc.durations, 50.0)
    m["runtime.rpc.p99_ms"] = p_ms(rpc.durations, 99.0)
    m["runtime.rpc.ops_per_call"] = ratio(rpc.counts.get("ops", 0), rpc.calls)
    m["runtime.encode.busy_s"] = encode.busy
    m["runtime.bytes_sent_per_alarm"] = encode.counts.get("bytes_sent", 0) / unique
    m["runtime.bytes_received_per_alarm"] = \
        encode.counts.get("bytes_received", 0) / unique
    m["runtime.worker_cpu_s"] = facts.worker_cpu_s
    m["runtime.spawn_s"] = facts.spawn_s
    m["runtime.frame_resyncs"] = sum(
        entry.get("value", 0) for entry in _program_series(
            facts.program, "counters", "repro_frame_resyncs_total"))

    # replication
    apply, ack = stat("replication.leader_apply"), stat("replication.ack_wait")
    ship, ship_read = stat("replication.ship"), stat("replication.ship_read")
    m["replication.leader_apply.busy_s"] = apply.busy
    m["replication.leader_apply.calls"] = apply.calls
    m["replication.ack_wait.busy_s"] = ack.busy
    m["replication.ack_wait.p99_ms"] = p_ms(ack.durations, 99.0)
    m["replication.ship.busy_s"] = ship.busy + ship_read.busy
    m["replication.ship.batches"] = ship.calls
    m["replication.ship.entries_per_batch"] = ratio(
        ship.counts.get("entries", 0), ship.calls)
    m["replication.lag.max_records"] = ship.peaks.get("lag", 0)

    # obs, loadgen, process, machine
    m["obs.trace_overhead_share"] = ratio(
        measurement.sat_wall_s - facts.untraced_sat_wall_s,
        facts.untraced_sat_wall_s)
    m["obs.harvest_s"] = facts.harvest_s
    m["obs.hooks_missing"] = facts.hooks_missing
    m["loadgen.generate_s"] = inputs.generate_s
    m["loadgen.lateness_p99_ms"] = p_ms(measurement.lateness_s, 99.0)
    m["loadgen.busy_share"] = 1.0 - ratio(
        measurement.generator_slept_s, measurement.paced_wall_s)
    m["loadgen.backlog_final_alarms"] = \
        measurement.backlog[-1] if measurement.backlog else 0
    m["loadgen.paced_valid"] = 1.0 if measurement.paced_valid else 0.0
    m["loadgen.deadline_miss_share"] = measurement.deadline_miss_share
    m["process.parent_cpu_s"] = facts.parent_cpu_s
    m["process.peak_rss_mb"] = facts.peak_rss_mb
    m["machine.fsync_ms"] = facts.fsync_ms
    m["machine.spin_ms"] = facts.spin_ms

    missing = [name for name, _unit, _better in PER_LAYER if name not in m]
    if missing or len(m) != len(PER_LAYER):
        raise AssertionError(f"per-layer metrics out of step with the table: {missing}")
    return m
