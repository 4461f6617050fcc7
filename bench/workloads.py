"""The four workloads: topology, frozen sizes and rates, and why each exists.

Counts are fixed, not derived at run time: a phase sends
``share * seconds * rate`` alarms, where ``seconds`` is the benchmark's
``run_seconds`` and the rates below were frozen from the seed commit (``sat``
at about its saturated throughput there, ``paced`` at about half of it).  On
the seed commit the timed phases therefore last ``seconds``; a faster commit
finishes ``sat`` sooner, and every commit stores the same documents.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Workload", "WORKLOADS", "SAT_SHARE", "PACED_SHARE", "QUERY_SHARE",
           "phase_counts", "idle_query_count"]

#: Shares of ``--seconds``: the closed loop, the open loop, and - where no
#: operator queries beside ingest - the operator querying the idle store.
SAT_SHARE = 0.4
PACED_SHARE = 0.5
QUERY_SHARE = 0.1
#: Queries/s that fix the idle-store query count (``inmem``'s rate at the seed).
IDLE_QUERY_RATE = 27.0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Durable topologies run broker + store under a ``RecoveryManager``.
    durable: bool
    #: Store shards, each in its own worker process (0 = one in-process store).
    process_shards: int
    replicas: int
    devices: int
    preload: int
    #: Share of alarms delivered twice (at-least-once upstream).
    redelivery_share: float
    #: Alarms/s that fix the ``sat`` count (the seed's saturated throughput).
    sat_rate: float
    #: Open-loop arrival rate of the ``paced`` phase.
    paced_rate: float
    #: Whether the operator queries the history beside the paced ingest (the
    #: open loop then lasts ``PACED_SHARE + QUERY_SHARE``) or after it.
    operator: bool = False
    partitions: int = 4
    train: int = 2_000


#: Listed with the least host-sensitive first: a box that was idle runs its
#: first minute of sustained load ~15% faster than everything after it
#: (see README, "The host's burst"), and a session starts with the first.
WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="replicated",
        why="2 process shards x 2 replicas, sync ack: every write crosses "
            "cluster routing, RPC encode, worker WAL and the replication ack "
            "wait, and every window's history lookup is one RPC per device",
        durable=True, process_shards=2, replicas=2,
        devices=400, preload=1_000, redelivery_share=0.0,
        sat_rate=2_800.0, paced_rate=800.0,
    ),
    Workload(
        name="analytics_mix",
        why="2 unreplicated process shards with an operator thread querying "
            "the history beside ingest, so a write-path gain that taxes "
            "fan-out reads, or the reverse, shows",
        durable=True, process_shards=2, replicas=1,
        devices=2_000, preload=10_000, redelivery_share=0.0,
        sat_rate=2_700.0, paced_rate=300.0, operator=True,
    ),
    Workload(
        name="durable",
        why="single durable store and broker, one fsynced append per send: "
            "durability sets the pace, windows collapse to a few alarms and "
            "5% redeliveries exercise the sink's dedup path",
        durable=True, process_shards=0, replicas=1,
        devices=400, preload=1_000, redelivery_share=0.05,
        sat_rate=1_600.0, paced_rate=600.0,
    ),
    Workload(
        name="inmem",
        why="paper's 5.5.2 scenario: in-memory broker and store, so ml, "
            "streaming and storage do all the work and durability, runtime, "
            "replication and cluster none",
        durable=False, process_shards=0, replicas=1,
        devices=400, preload=1_000, redelivery_share=0.0,
        sat_rate=12_000.0, paced_rate=2_000.0,
    ),
)}


def phase_counts(workload: Workload, seconds: float) -> tuple[int, int]:
    """Unique alarms sent in the ``sat`` and ``paced`` phases."""
    sat = max(1, round(SAT_SHARE * seconds * workload.sat_rate))
    share = PACED_SHARE + (QUERY_SHARE if workload.operator else 0.0)
    paced = max(1, round(share * seconds * workload.paced_rate))
    return sat, paced


def idle_query_count(seconds: float) -> int:
    """Queries the operator issues against the idle store: whole blocks of
    ten, so the mix is the same whatever ``seconds`` is."""
    return 10 * max(1, round(QUERY_SHARE * seconds * IDLE_QUERY_RATE / 10))
