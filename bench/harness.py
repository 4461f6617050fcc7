"""The timed phases: closed-loop ``sat``, open-loop ``paced``, the operator.

One process: a generator thread sends alarms one ``Producer.send`` at a time
(as devices do; batching is the system's job), the system's own consumer
drains on its own thread, and an operator thread queries the history in a
closed loop - beside the paced ingest on ``analytics_mix``, against the idle
store after it elsewhere.  An alarm is *store-acked* when the ``on_window``
callback that follows its persist runs.
"""

from __future__ import annotations

import gc
import threading
import time
from dataclasses import dataclass, field
from typing import Any

from bench.adapter import RECENT_LIMIT, TOPIC, Inputs, Pipeline
from bench.spans import Recorder
from bench.stats import percentile
from bench.workloads import idle_query_count

__all__ = ["Measurement", "measure", "query_is_right"]

#: ``sat``: alarms sent but not yet store-acked never exceed this.
MAX_INFLIGHT = 4_000
#: An alarm not store-acked this long after its due time missed its deadline.
DEADLINE_S = 1.0
#: A ``paced`` phase whose generator ran later than this at p99 is invalid.
MAX_LATENESS_S = 0.025
#: Records the consumer drains into one window at most (as ``LoadDriver``).
MAX_WINDOW_RECORDS = 2_000
#: A phase that has not drained this long after its last send has failed.
DRAIN_TIMEOUT_S = 60.0
#: Traced runs retain the full span tree of one alarm in this many.
TRACE_SAMPLE_EVERY = 32
#: The operator's pause between a result and the next query.
THINK_S = 0.005

GENERATOR_THREAD = "bench-generator"
CONSUMER_THREAD = "bench-consumer"
OPERATOR_THREAD = "bench-operator"


class AckTracker:
    """Store-ack bookkeeping, fed by the consumer's ``on_window`` callback."""

    def __init__(self, unique: int) -> None:
        self.ack_time = [0.0] * unique
        self.acked = 0
        self.changed = threading.Condition()
        #: ``(alarms recorded, polled_at, acked_at)`` per non-empty window.
        self.windows: list[tuple[int, float, float]] = []
        self.errors: list[BaseException] = []

    def on_window(self, recorded: list, batch: Any) -> None:
        now = time.perf_counter()
        ack_time = self.ack_time
        for verification in recorded:
            ack_time[verification.alarm.extras["_event_seq"]] = now
        self.windows.append((len(recorded), batch.polled_at, now))
        with self.changed:
            self.acked += len(recorded)
            self.changed.notify_all()

    def fail(self, error: BaseException) -> None:
        with self.changed:
            self.errors.append(error)
            self.changed.notify_all()

    def wait_until(self, acked: int, timeout: float) -> bool:
        """Block until ``acked`` alarms are store-acked, a thread failed or
        ``timeout`` passed; true when the count was reached."""
        deadline = time.monotonic() + timeout
        with self.changed:
            while self.acked < acked and not self.errors:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self.changed.wait(min(remaining, 0.05))
            return self.acked >= acked


@dataclass
class Measurement:
    """What the timed phases of one run observed."""

    sat_alarms: int = 0
    sat_wall_s: float = 0.0
    #: Per unique alarm, by ``_event_seq``: when its send returned and when
    #: it was store-acked (0.0 = never).
    sent_at: list[float] = field(default_factory=list)
    ack_time: list[float] = field(default_factory=list)
    #: Per unique paced alarm, in sequence order: its due time, how late the
    #: generator started its send, and the un-acked alarms at that moment.
    paced_due: list[float] = field(default_factory=list)
    lateness_s: list[float] = field(default_factory=list)
    backlog: list[int] = field(default_factory=list)
    paced_wall_s: float = 0.0
    generator_slept_s: float = 0.0
    query_latency_s: list[float] = field(default_factory=list)
    query_wall_s: float = 0.0
    queries_failed: int = 0
    consumer_wall_s: float = 0.0
    max_lag: int = 0
    windows: list[tuple[int, float, float]] = field(default_factory=list)
    #: Sampled alarms of a traced run: seq, due and the send's start.
    sampled: list[dict[str, float]] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)

    @property
    def paced_latency_s(self) -> list[float]:
        """Due time -> store-ack per paced alarm (``inf`` if never acked)."""
        base = len(self.ack_time) - len(self.paced_due)
        return [
            self.ack_time[base + i] - due if self.ack_time[base + i] else float("inf")
            for i, due in enumerate(self.paced_due)
        ]

    @property
    def backlog_growing(self) -> bool:
        """Whether the open loop's backlog was still growing at the end:
        its mean over the last third of the phase clearly above the first."""
        third = len(self.backlog) // 3
        if third == 0:
            return False
        first = sum(self.backlog[:third]) / third
        last = sum(self.backlog[-third:]) / third
        return last > 1.5 * first + 0.1 * third

    @property
    def paced_valid(self) -> bool:
        """An open loop is valid when its generator kept the schedule and
        the system kept up; otherwise its latencies mean nothing."""
        if not self.lateness_s:
            return False
        return (percentile(self.lateness_s, 99.0) <= MAX_LATENESS_S
                and not self.backlog_growing)

    @property
    def deadline_miss_share(self) -> float:
        """Paced alarms not store-acked within the deadline; every alarm of
        an invalid phase counts as missed."""
        latencies = self.paced_latency_s
        if not latencies or not self.paced_valid:
            return 1.0
        return sum(1 for latency in latencies if latency > DEADLINE_S) / len(latencies)


class _Generator:
    """The load generator's two loops, one producer per phase."""

    def __init__(self, pipeline: Pipeline, tracker: AckTracker,
                 result: Measurement, recorder: Recorder | None) -> None:
        self.pipeline = pipeline
        self.tracker = tracker
        self.result = result
        self.recorder = recorder

    def _send(self, send: Any, doc: dict[str, Any], due: float | None) -> None:
        recorder = self.recorder
        seq = doc["_event_seq"]
        original = "_redelivery" not in doc
        if recorder is None or seq % TRACE_SAMPLE_EVERY or not original:
            send(TOPIC, doc, key=doc["device_address"])
        else:
            # A sampled alarm: its send is the kept root of its span tree.
            recorder.set_keep(True)
            frame = recorder.begin("loadgen.send")
            frame.meta = {"alarm": seq}
            try:
                send(TOPIC, doc, key=doc["device_address"])
            finally:
                recorder.end(frame)
                recorder.set_keep(False)
            self.result.sampled.append({
                "alarm": seq, "send_start": frame.start,
                "due": frame.start if due is None else due,
            })
        if original:
            self.result.sent_at[seq] = time.perf_counter()

    def closed_loop(self, docs: list[dict[str, Any]]) -> tuple[float, int]:
        """Send ``docs`` with at most ``MAX_INFLIGHT`` un-acked; returns the
        first send's start and the unique alarms sent."""
        tracker, result = self.tracker, self.result
        producer = self.pipeline.producer()
        sent_unique = 0
        first = time.perf_counter()
        for doc in docs:
            if "_redelivery" not in doc:
                while sent_unique - tracker.acked >= MAX_INFLIGHT:
                    if tracker.errors:
                        return first, sent_unique
                    with tracker.changed:
                        tracker.changed.wait(0.05)
                sent_unique += 1
            self._send(producer.send, doc, None)
            lag = sent_unique - tracker.acked
            if lag > result.max_lag:
                result.max_lag = lag
        producer.close()
        return first, sent_unique

    def open_loop(self, docs: list[dict[str, Any]], base: int) -> float:
        """Send each document at its due time whatever the system does;
        returns the phase's start (due times are offsets from it)."""
        tracker, result = self.tracker, self.result
        producer = self.pipeline.producer()
        sent_unique = base
        slept = 0.0
        start = time.perf_counter() + 0.02
        for doc in docs:
            due = start + doc["_due_s"]
            now = time.perf_counter()
            if due > now:
                time.sleep(due - now)
                woke = time.perf_counter()
                slept += woke - now
                now = woke
            if tracker.errors:
                break
            if "_redelivery" not in doc:
                sent_unique += 1
                result.paced_due.append(due)
                result.lateness_s.append(now - due)
                result.backlog.append(sent_unique - tracker.acked)
            self._send(producer.send, doc, due)
        producer.close()
        result.generator_slept_s = slept
        result.max_lag = max([result.max_lag, *result.backlog])
        return start


def query_is_right(inputs: Inputs, query: tuple[str, Any], result: Any) -> bool:
    """Whether an operator query's result is possible given the inputs:
    ingest may run beside the query, so counts are bounded, not fixed."""
    kind, argument = query
    if kind == "hourly_profile":
        total = sum(result.values())
        return (inputs.device_preload.get(argument, 0) <= total
                <= inputs.device_total.get(argument, 0))
    if kind == "recent":
        stamps = [alarm.timestamp for alarm in result]
        return (len(stamps) <= RECENT_LIMIT
                and all(stamp >= argument for stamp in stamps)
                and stamps == sorted(stamps, reverse=True))
    total = sum(result.values())
    return (inputs.type_preload.get(argument, 0) <= total
            <= inputs.type_total.get(argument, 0)
            and result.keys() <= inputs.zip_counts.keys())


def _operate(pipeline: Pipeline, inputs: Inputs, stop: threading.Event,
             result: Measurement, tracker: AckTracker,
             limit: int | None = None) -> None:
    """Closed loop with think time: the next query is issued ``THINK_S``
    after the previous one returned, until ``stop`` or ``limit`` queries."""
    queries = inputs.queries
    started = time.perf_counter()
    index = 0
    try:
        while not stop.is_set() and (limit is None or index < limit):
            query = queries[index % len(queries)]
            index += 1
            begun = time.perf_counter()
            try:
                right = query_is_right(inputs, query, pipeline.run_query(query))
            except Exception as exc:  # a raising query is a failed operation
                right = False
                result.errors.append(f"query {query[0]} raised {exc!r}")
            result.query_latency_s.append(time.perf_counter() - begun)
            if not right:
                result.queries_failed += 1
            stop.wait(THINK_S)
    except BaseException as exc:
        tracker.fail(exc)
    finally:
        result.query_wall_s = time.perf_counter() - started


def measure(pipeline: Pipeline, inputs: Inputs,
            recorder: Recorder | None = None,
            sat_only: bool = False) -> Measurement:
    """Run the timed phases against an opened pipeline."""
    result = Measurement(sent_at=[0.0] * inputs.unique)
    tracker = AckTracker(inputs.unique)
    result.ack_time = tracker.ack_time
    generator = _Generator(pipeline, tracker, result, recorder)
    stop_consumer = threading.Event()
    app = pipeline.consumer(tracker.on_window)

    def consume() -> None:
        if recorder is not None:
            recorder.set_keep(True)
        started = time.perf_counter()
        try:
            app.drain_until(stop_consumer.is_set, max_records=MAX_WINDOW_RECORDS)
        except BaseException as exc:
            tracker.fail(exc)
        finally:
            result.consumer_wall_s = time.perf_counter() - started

    def paced() -> None:
        settle()
        start = generator.open_loop(inputs.paced, inputs.sat_unique)
        tracker.wait_until(inputs.unique, DRAIN_TIMEOUT_S)
        result.paced_wall_s = time.perf_counter() - start

    def paced_beside_operator() -> None:
        stop_operator = threading.Event()
        operator = threading.Thread(
            target=_operate, name=OPERATOR_THREAD,
            args=(pipeline, inputs, stop_operator, result, tracker),
        )
        operator.start()
        try:
            paced()
        finally:
            stop_operator.set()
            operator.join()

    def settle() -> None:
        # Each phase starts from the same collector state: what earlier work
        # left alive (the model, the stored history) is moved out of the
        # collected generations, as a long-lived server would have it.
        gc.collect()
        gc.freeze()

    def generate() -> None:
        try:
            settle()
            first, sent = generator.closed_loop(inputs.sat)
            if tracker.wait_until(sent, DRAIN_TIMEOUT_S):
                result.sat_alarms = sent
                result.sat_wall_s = tracker.windows[-1][2] - first
            if sat_only or tracker.errors:
                return
            if inputs.workload.operator:
                paced_beside_operator()
            else:
                paced()
                if not tracker.errors:
                    _operate(pipeline, inputs, threading.Event(), result, tracker,
                             limit=idle_query_count(inputs.seconds))
        except BaseException as exc:
            tracker.fail(exc)

    consumer = threading.Thread(target=consume, name=CONSUMER_THREAD)
    producer = threading.Thread(target=generate, name=GENERATOR_THREAD)
    consumer.start()
    producer.start()
    producer.join()
    stop_consumer.set()
    consumer.join()
    gc.unfreeze()
    result.windows = tracker.windows
    result.errors.extend(repr(error) for error in tracker.errors)
    return result
