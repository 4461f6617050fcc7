"""The only module that imports ``repro``.

It turns ``(generator, params, seed)`` into inputs, builds each workload's
topology from the public surface listed in ``bench/README.md``, and - for a
traced run - wraps that surface with timing proxies and class-attribute
patches.  The harness sees :class:`Inputs` and :class:`Pipeline` only.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

import repro.durability.journal as _journal  # noqa: E402
import repro.durability.wal as _wal  # noqa: E402
import repro.replication.shipper as _shipper  # noqa: E402
import repro.runtime.remote as _remote  # noqa: E402
from repro.core.alarm import Alarm  # noqa: E402
from repro.core.consumer_app import ConsumerApplication  # noqa: E402
from repro.core.history import AlarmHistory  # noqa: E402
from repro.core.labeling import label_alarms  # noqa: E402
from repro.core.verification import ALARM_FEATURES, VerificationService  # noqa: E402
from repro.core.verification_log import VerificationLog  # noqa: E402
from repro.datasets.sitasys import SitasysGenerator  # noqa: E402
from repro.durability.recovery import RecoveryManager  # noqa: E402
from repro.ml.forest import RandomForestClassifier  # noqa: E402
from repro.ml.pipeline import FeaturePipeline  # noqa: E402
from repro.streaming.broker import Broker  # noqa: E402
from repro.streaming.producer import Producer  # noqa: E402
from repro.streaming.serializers import serializer_by_name  # noqa: E402

from bench.spans import (  # noqa: E402
    Recorder, TimingProxy, patch_attribute, propagate_spans_into_pools,
)
from bench.workloads import Workload, phase_counts  # noqa: E402

__all__ = ["Inputs", "Pipeline", "generate_inputs", "uid_of"]

TOPIC = "alarms"
GROUP = "bench-consumer"
SHARD_KEYS = {"alarms": "device_address", "verifications": "alarm_uid"}
#: Labeling threshold (seconds) for the generator's ground truth.
DELTA_T = 60.0
#: Alarm population sampled with replacement, so generation cost stays flat.
POOL_SIZE = 10_000
#: The device fleet and the model's training set are parameters of a
#: workload, the same for every seed: the seed draws the traffic (alarms,
#: preloaded history, redeliveries, operator queries).  A per-seed model
#: would add its own cost differences to every run-to-run comparison.
WORLD_SEED = 11
#: Blocks of ten operator queries generated (the operator cycles them).
OPERATOR_QUERY_BLOCKS = 400
RECENT_LIMIT = 50


# -- inputs: (generator, params, seed) -> alarms --------------------------------------


@dataclass
class Inputs:
    """Everything a run feeds the program, generated before timing starts."""

    workload: Workload
    seed: int
    seconds: float
    timeline_id: str
    train: list[Any]
    preload: list[Any]
    #: Alarm documents in send order (redeliveries included).
    sat: list[dict[str, Any]]
    paced: list[dict[str, Any]]
    #: Unique alarms per phase (redeliveries excluded).
    sat_unique: int
    paced_unique: int
    #: Ground truth ``is_false`` by ``_event_seq``.
    truth: list[bool]
    #: Operator queries, cycled: ``(kind, argument)`` in blocks of ten.
    queries: list[tuple[str, Any]]
    #: Alarms per device: preloaded, and preloaded + streamed.
    device_preload: dict[str, int]
    device_total: dict[str, int]
    #: Alarms per alarm type, likewise.
    type_preload: dict[str, int]
    type_total: dict[str, int]
    #: Final ``alarms_by_zip()`` computed from the inputs.
    zip_counts: dict[str, int]
    generate_s: float = 0.0

    @property
    def unique(self) -> int:
        return self.sat_unique + self.paced_unique

    def digest(self) -> str:
        """SHA-256 over every generated document, in order."""
        sha = hashlib.sha256()
        for alarm in self.train + self.preload:
            sha.update(json.dumps(alarm.to_document(), sort_keys=True).encode())
        for doc in self.sat + self.paced:
            sha.update(json.dumps(doc, sort_keys=True).encode())
        sha.update(json.dumps(self.queries).encode())
        return sha.hexdigest()


def uid_of(timeline_id: str, seq: int) -> str:
    """The verification log's uid for event ``seq`` of ``timeline_id``."""
    return f"seq:{timeline_id}:{seq}"


def _with_redeliveries(docs: list[dict[str, Any]], share: float,
                       rng: np.random.Generator) -> list[dict[str, Any]]:
    """Insert a marked copy of ``share`` of the documents a few sends later."""
    if share <= 0:
        return docs
    redeliver = rng.uniform(size=len(docs)) < share
    gaps = rng.integers(1, 9, size=len(docs))
    pending: dict[int, list[dict[str, Any]]] = {}
    out: list[dict[str, Any]] = []
    for i, doc in enumerate(docs):
        out.append(doc)
        if redeliver[i]:
            pending.setdefault(i + int(gaps[i]), []).append(
                {**doc, "_redelivery": True}
            )
        out.extend(pending.pop(i, ()))
    for late in sorted(pending):
        out.extend(pending[late])
    return out


def generate_inputs(workload: Workload, seed: int, seconds: float) -> Inputs:
    """The deterministic inputs of one run: same arguments, same documents."""
    started = time.perf_counter()
    generator = SitasysGenerator(num_devices=workload.devices, seed=WORLD_SEED)
    train = generator.generate(workload.train, seed_offset=0)
    # seed_offset keys the generator's stream: two disjoint ranges per seed.
    pool = generator.generate(POOL_SIZE, seed_offset=2 * seed + 1)
    preload = generator.generate(workload.preload, seed_offset=2 * seed + 2)
    pool_docs = [alarm.to_document() for alarm in pool]
    pool_truth = [labeled.is_false for labeled in label_alarms(pool, DELTA_T)]

    sat_unique, paced_unique = phase_counts(workload, seconds)
    unique = sat_unique + paced_unique
    rng = np.random.default_rng((seed, 9001))
    picks = rng.integers(0, POOL_SIZE, size=unique)
    timeline_id = f"{workload.name}/{seed}"
    docs: list[dict[str, Any]] = []
    truth: list[bool] = []
    for seq in range(unique):
        pick = int(picks[seq])
        doc = dict(pool_docs[pick])
        doc["_event_seq"] = seq
        doc["_timeline_id"] = timeline_id
        if seq >= sat_unique:
            # Open-loop due time, seconds from the start of the paced phase.
            doc["_due_s"] = (seq - sat_unique) / workload.paced_rate
        docs.append(doc)
        truth.append(pool_truth[pick])

    device_preload = Counter(alarm.device_address for alarm in preload)
    type_preload = Counter(alarm.alarm_type for alarm in preload)
    zip_counts = Counter(alarm.zip_code for alarm in preload)
    device_total = device_preload + Counter(doc["device_address"] for doc in docs)
    type_total = type_preload + Counter(doc["alarm_type"] for doc in docs)
    zip_counts.update(doc["zip_code"] for doc in docs)

    # The operator's mix is stratified, not drawn: every block of ten is
    # 7 hourly_profile, 2 recent and 1 alarms_by_zip, and the alarm types
    # take turns, so a short phase issues the same mix as a long one.  The
    # arguments are seeded.
    query_rng = np.random.default_rng((seed, 9002))
    devices = [device.address for device in generator.devices]
    alarm_types = sorted(type_total)
    queries: list[tuple[str, Any]] = []
    for block in range(OPERATOR_QUERY_BLOCKS):
        ten: list[tuple[str, Any]] = [
            ("hourly_profile", devices[int(query_rng.integers(len(devices)))])
            for _ in range(7)
        ]
        ten += [
            ("recent", preload[int(query_rng.integers(len(preload)))].timestamp)
            for _ in range(2)
        ]
        ten.append(("alarms_by_zip", alarm_types[block % len(alarm_types)]))
        queries.extend(ten[int(i)] for i in query_rng.permutation(10))

    redelivery_rng = np.random.default_rng((seed, 9003))
    return Inputs(
        workload=workload, seed=seed, seconds=seconds, timeline_id=timeline_id,
        train=train, preload=preload,
        sat=_with_redeliveries(docs[:sat_unique], workload.redelivery_share,
                               redelivery_rng),
        paced=_with_redeliveries(docs[sat_unique:], workload.redelivery_share,
                                 redelivery_rng),
        sat_unique=sat_unique, paced_unique=paced_unique,
        truth=truth, queries=queries,
        device_preload=device_preload, device_total=device_total,
        type_preload=type_preload, type_total=type_total,
        zip_counts=dict(zip_counts),
        generate_s=time.perf_counter() - started,
    )


# -- the program under test -----------------------------------------------------------


def _train_service(inputs: Inputs) -> VerificationService:
    """12 trees of depth 20, as ``LoadDriver._build_service``."""
    labeled = label_alarms(inputs.train, DELTA_T)
    pipeline = FeaturePipeline(
        RandomForestClassifier(n_estimators=12, max_depth=20,
                               random_state=WORLD_SEED),
        categorical_features=ALARM_FEATURES, encoding="ordinal",
    )
    pipeline.fit([l.features() for l in labeled], [l.is_false for l in labeled])
    return VerificationService(pipeline)


class Pipeline:
    """One workload's topology, set up under ``root`` and ready for alarms:
    the model trained, the stores opened or recovered, the workers spawned,
    the history preloaded, the topic created.

    ``service``, ``history``, ``log``, ``broker`` and ``serializer`` are what
    the producer, the consumer and the operator use - timing proxies in a
    traced run, the program's own objects otherwise.  ``raw_history``,
    ``raw_log`` and ``raw_service`` always are the program's own, for the
    output check.
    """

    def __init__(self, workload: Workload, inputs: Inputs, root: Path,
                 recorder: Recorder | None = None) -> None:
        self.workload = workload
        self.inputs = inputs
        self.root = root
        self.recorder = recorder
        self.manager: RecoveryManager | None = None
        self.spawn_s = 0.0
        self._undo: list[Callable[[], None]] = []
        self.missing_hooks: list[str] = []
        try:
            self._open()
        except BaseException:
            self.close()
            raise

    def _open(self) -> None:
        workload, inputs = self.workload, self.inputs
        service = _train_service(inputs)
        if workload.durable:
            self.manager = RecoveryManager(
                self.root,
                store_shards=max(1, workload.process_shards),
                shard_keys=SHARD_KEYS,
                process_shards=workload.process_shards > 0,
                replicas=workload.replicas,
                replica_ack="sync",
            )
            started = time.perf_counter()
            self.manager.recover()
            if workload.process_shards:
                self.spawn_s = time.perf_counter() - started
            broker: Any = self.manager.broker
            store = self.manager.store
        else:
            broker = Broker()
            store = AlarmHistory().store
        self.store = store
        self.raw_history = AlarmHistory(store=store)
        self.raw_log = VerificationLog(store)
        self.raw_history.record_batch(inputs.preload)
        broker.create_topic(TOPIC, num_partitions=workload.partitions)
        serializer = serializer_by_name("compact")
        self.service: Any = service
        self.raw_service = service
        self.history: Any = self.raw_history
        self.log: Any = self.raw_log
        self.broker: Any = broker
        self.serializer: Any = serializer
        if self.recorder is not None:
            self._instrument(self.recorder, service, broker, serializer, store)

    # -- what the harness drives -------------------------------------------------

    def producer(self) -> Producer:
        return Producer(self.broker, serializer=self.serializer)

    def consumer(self, on_window: Callable[[list, Any], None]) -> ConsumerApplication:
        return ConsumerApplication(
            self.broker, TOPIC, GROUP, self.service, history=self.history,
            serializer=self.serializer, verification_log=self.log,
            on_window=on_window,
        )

    def run_query(self, query: tuple[str, Any]) -> Any:
        """One operator query against the history."""
        kind, argument = query
        if kind == "hourly_profile":
            return self.history.hourly_profile(argument)
        if kind == "recent":
            return self.history.recent(argument, limit=RECENT_LIMIT)
        return self.history.alarms_by_zip([argument])

    def verify_offline(self, docs: list[dict[str, Any]]) -> list[bool]:
        """``is_false`` of each document by one offline ``verify_batch``."""
        alarms = [Alarm.from_document(doc) for doc in docs]
        return [v.is_false for v in self.raw_service.verify_batch(alarms)]

    def stored_outcomes(self) -> dict[str, bool]:
        """``alarm_uid -> is_false`` as stored by the verification log."""
        rows = self.raw_log.collection.find(projection=["alarm_uid", "is_false"])
        return {row["alarm_uid"]: row["is_false"] for row in rows}

    def docs_per_shard(self) -> list[int]:
        """History rows held by each store shard (one entry when unsharded)."""
        shards = getattr(self.store, "shards", None)
        if shards is None:
            return [len(self.raw_history)]
        return [len(shard.collection(AlarmHistory.COLLECTION)) for shard in shards]

    def program_metrics(self) -> list[dict[str, Any]]:
        """Worker-process metric snapshots (``source=program``); empty when
        every store runs in this process."""
        collect = getattr(self.store, "collect_metrics", None)
        return list(collect()) if collect is not None else []

    def workers_alive(self) -> bool:
        supervisor = getattr(self.store, "supervisor", None)
        if supervisor is None:
            return True
        return all(
            supervisor.is_alive(i) for i in range(supervisor.num_shards)
        )

    def crash_and_recover(self) -> Any:
        """Lose every un-fsynced byte (page-cache-loss model), then recover
        from disk; the pipeline's handles point at the recovered stores."""
        assert self.manager is not None
        self.manager.crash()
        self.manager.shutdown_workers()
        report = self.manager.recover()
        self.store = self.manager.store
        self.raw_history = AlarmHistory(store=self.store)
        self.raw_log = VerificationLog(self.store)
        return report

    def stop_tracing(self) -> None:
        """Undo the class-attribute patches, so that what follows the timed
        phases (the output check, the final close) records no spans."""
        for undo in reversed(self._undo):
            undo()
        self._undo.clear()

    def close(self) -> None:
        """Undo patches, close the stores and reap every worker."""
        self.stop_tracing()
        if self.manager is not None:
            try:
                self.manager.close()
            finally:
                self.manager.shutdown_workers()

    # -- traced runs: proxies and patches ------------------------------------------

    def _patch(self, owner: Any, attribute: str, make: Callable[[Any], Any]) -> None:
        undo = patch_attribute(owner, attribute, make)
        if undo is None:
            self.missing_hooks.append(f"{getattr(owner, '__name__', owner)}.{attribute}")
        else:
            self._undo.append(undo)

    def _instrument(self, rec: Recorder, service: Any, broker: Any,
                    serializer: Any, store: Any) -> None:
        def sized(key: str, size: Callable[[tuple, dict, Any], float]):
            def observe(r: Recorder, frame: Any, args: tuple, kwargs: dict,
                        result: Any) -> None:
                r.add(frame.name, key, size(args, kwargs, result))
            return observe

        self.serializer = TimingProxy(serializer, {
            "serialize": rec.wrap(
                "streaming.serialize", serializer.serialize,
                sized("bytes", lambda a, k, out: len(out))),
            "deserialize_batch": rec.wrap(
                "streaming.deserialize", serializer.deserialize_batch),
            "deserialize": rec.wrap(
                "streaming.deserialize", serializer.deserialize),
        })
        self.broker = TimingProxy(broker, {
            "append": rec.wrap("streaming.append", broker.append),
            "fetch": rec.wrap(
                "streaming.fetch", broker.fetch,
                sized("empty", lambda a, k, out: 0 if out else 1)),
            "commit": rec.wrap("streaming.commit", broker.commit),
            "wait_for_any": rec.wrap("core.consumer.idle", broker.wait_for_any),
            "wait_for_activity": rec.wrap(
                "core.consumer.idle", broker.wait_for_activity),
        })
        self.service = TimingProxy(service, {
            "verify_batch": rec.wrap(
                "ml.verify", service.verify_batch,
                sized("alarms", lambda a, k, out: len(out))),
        })
        traced_store = self._store_proxy(rec, store)
        history = AlarmHistory(store=traced_store)
        log = VerificationLog(traced_store)
        self.history = TimingProxy(history, {
            "device_histogram": rec.wrap(
                "core.history_lookup", history.device_histogram,
                sized("devices", lambda a, k, out: len(out))),
        })
        self.log = TimingProxy(log, {
            "record_batch": rec.wrap(
                "core.sink", log.record_batch,
                sized("duplicates", lambda a, k, out: len(a[0]) - len(out))),
        })
        self._undo.append(propagate_spans_into_pools(rec))
        self._patch_durability(rec)
        if self.workload.process_shards:
            self._patch_runtime(rec)
        if self.workload.replicas > 1:
            self._patch_replication(rec)

    def _store_proxy(self, rec: Recorder, store: Any) -> TimingProxy:
        """The store as ``core`` sees it: inserts, counts and queries timed
        at the call, whatever topology answers it."""
        def docs_returned(r: Recorder, frame: Any, args: tuple, kwargs: dict,
                          result: Any) -> None:
            r.add(frame.name, "docs", len(result))

        def docs_grouped(r: Recorder, frame: Any, args: tuple, kwargs: dict,
                         result: Any) -> None:
            r.add(frame.name, "docs", sum(len(docs) for _name, docs in args[0]))

        proxies: dict[str, tuple[Any, TimingProxy]] = {}

        def collection(name: str) -> TimingProxy:
            # Ask the store every time, as an untraced run does; only the
            # wrapper around an unchanged collection object is reused.
            target = store.collection(name)
            cached = proxies.get(name)
            if cached is not None and cached[0] is target:
                return cached[1]
            point = rec.wrap("storage.query.point", target.find, docs_returned)
            topk = rec.wrap("storage.query.topk", target.find, docs_returned)

            def find(*args: Any, **kwargs: Any) -> Any:
                ranked = kwargs.get("sort") is not None and kwargs.get("limit")
                return (topk if ranked else point)(*args, **kwargs)

            proxy = TimingProxy(target, {
                "insert_many": rec.wrap(
                    "storage.insert", target.insert_many, docs_returned),
                "insert_one": rec.wrap("storage.insert", target.insert_one),
                "count": rec.wrap("storage.count", target.count),
                "find": find,
            })
            proxies[name] = (target, proxy)
            return proxy

        wrapped: dict[str, Callable[..., Any]] = {
            "collection": collection,
            "aggregate": rec.wrap(
                "storage.query.aggregate", store.aggregate, docs_returned),
        }
        if hasattr(store, "insert_group"):
            wrapped["insert_group"] = rec.wrap(
                "storage.insert", store.insert_group, docs_grouped)
        return TimingProxy(store, wrapped)

    def _patch_durability(self, rec: Recorder) -> None:
        def on_append(r: Recorder, frame: Any, args: tuple, kwargs: dict,
                      result: Any) -> None:
            r.add(frame.name, "records", len(result))
            r.add(frame.name, "bytes", sum(len(payload) for payload in args[1]))

        wal = _wal.WriteAheadLog
        self._patch(wal, "append_many", lambda fn: rec.wrap(
            "durability.wal_append", fn, on_append))
        self._patch(wal, "sync", lambda fn: rec.wrap("durability.wal_sync", fn))
        # Every fsync this process issues: WAL group commits, the offset
        # journal's checkpoints and snapshot publishes.
        self._patch(os, "fsync", lambda fn: rec.wrap("durability.fsync", fn))
        self._patch(_journal.DurableDocumentStore, "checkpoint",
                    lambda fn: rec.wrap("durability.checkpoint", fn))

    def _patch_runtime(self, rec: Recorder) -> None:
        def on_call(r: Recorder, frame: Any, args: tuple, kwargs: dict,
                    result: Any) -> None:
            r.add(frame.name, "ops", len(args[1]))
            frame.meta = {"shard": args[0].shard}

        self._patch(_remote.RemoteShardStore, "call",
                    lambda fn: rec.wrap("runtime.rpc", fn, on_call))
        self._patch(_remote, "encode_request", lambda fn: rec.wrap(
            "runtime.encode", fn,
            lambda r, f, a, k, out: r.add(f.name, "bytes_sent", len(out))))
        self._patch(_remote, "decode_response", lambda fn: rec.wrap(
            "runtime.encode", fn,
            lambda r, f, a, k, out: r.add(f.name, "bytes_received", len(a[0]))))

    def _patch_replication(self, rec: Recorder) -> None:
        peer = _remote.RemoteShardStore
        self._patch(peer, "apply_write",
                    lambda fn: rec.wrap("replication.leader_apply", fn))
        # The shipper's lag as the program computes it: records the leader
        # holds past the follower's frontier after each shipped batch.
        leader = threading.local()

        def on_read(r: Recorder, frame: Any, args: tuple, kwargs: dict,
                    result: Any) -> None:
            leader.next_lsn = int(result["next_lsn"])

        def on_apply(r: Recorder, frame: Any, args: tuple, kwargs: dict,
                     result: Any) -> None:
            r.add(frame.name, "entries", len(args[2]))
            r.peak(frame.name, "lag", getattr(leader, "next_lsn", 0) - int(result))

        self._patch(peer, "wal_read",
                    lambda fn: rec.wrap("replication.ship_read", fn, on_read))
        self._patch(peer, "replica_apply",
                    lambda fn: rec.wrap("replication.ship", fn, on_apply))
        self._patch(_shipper.LogShipper, "wait_for",
                    lambda fn: rec.wrap("replication.ack_wait", fn))
