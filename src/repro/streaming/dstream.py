"""Micro-batch stream processing over the broker (Spark-Streaming analogue).

A :class:`StreamingContext` couples a consumer group to a topic and hands the
application one :class:`MicroBatch` per streaming window, exactly like
Spark's Direct DStream over Kafka (Section 4.2 of the paper): each batch is
an RDD-like :class:`~repro.streaming.rdd.PartitionedDataset` whose partitions
mirror the Kafka partitions, offsets are committed after the batch handler
returns (exactly-once), and ``repartition`` can raise the parallelism of a
single-partition stream (the Section 5.5.2 fix).

Windows here are *count/availability* based rather than wall-clock based:
``next_batch()`` drains whatever is available up to ``max_batch_size``.  A
wall-clock window is available through ``run(duration)`` for streaming
applications that want periodic batches.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.obs.trace import TRACE_ID_HEADER, TRACE_SENT_HEADER
from repro.streaming.broker import Broker
from repro.streaming.consumer import Consumer
from repro.streaming.message import TopicPartition
from repro.streaming.rdd import PartitionedDataset
from repro.streaming.serializers import Serializer, deserialize_batch

__all__ = ["MicroBatch", "StreamingContext", "BatchStats"]

#: Most recent :class:`BatchStats` kept in :attr:`StreamingContext.history`;
#: older entries are dropped so a long-running stream holds bounded memory.
HISTORY_LIMIT = 1_000


@dataclass
class BatchStats:
    """Timing and size metadata for one processed micro-batch."""

    batch_index: int
    num_records: int
    deserialize_seconds: float
    handler_seconds: float
    offsets: dict[TopicPartition, int] = field(default_factory=dict)

    @property
    def total_seconds(self) -> float:
        """Deserialization plus handler time."""
        return self.deserialize_seconds + self.handler_seconds


class MicroBatch:
    """One streaming window of deserialized records, as a partitioned dataset.

    ``traces`` carries the sampled trace contexts found in the window's
    record headers as ``(trace_id, producer_sent_at)`` pairs, and
    ``polled_at`` is the perf-counter instant the poll returned — together
    they let the consumer application derive queue-dwell spans (producer
    send -> consumer poll) without re-scanning raw records.
    """

    def __init__(self, index: int, dataset: PartitionedDataset,
                 offsets: dict[TopicPartition, int], deserialize_seconds: float,
                 traces: list[tuple[str, float]] | None = None,
                 polled_at: float = 0.0):
        self.index = index
        self.dataset = dataset
        self.offsets = offsets
        self.deserialize_seconds = deserialize_seconds
        self.traces = traces if traces is not None else []
        self.polled_at = polled_at

    def __len__(self) -> int:
        return self.dataset.count()

    def is_empty(self) -> bool:
        """True when the window contained no records."""
        return len(self) == 0


class StreamingContext:
    """Micro-batch scheduler over a broker topic.

    Parameters
    ----------
    broker, topic, group:
        Source topic and the consumer group used for exactly-once offsets.
    serializer:
        Payload serializer shared with the consumer.
    max_batch_size:
        Maximum records drained into one micro-batch.
    coordinator, member_id:
        When a :class:`~repro.cluster.coordinator.GroupCoordinator` is
        given, the context joins it as ``member_id`` instead of statically
        subscribing to every partition: the coordinator deals this context
        its share of the topic and re-deals (with a bumped, fenced
        generation) whenever membership changes.
    """

    def __init__(self, broker: Broker, topic: str, group: str,
                 serializer: Serializer | None = None,
                 max_batch_size: int = 10_000,
                 coordinator: Any | None = None,
                 member_id: str | None = None) -> None:
        self._broker = broker
        self._topic = topic
        self._consumer = Consumer(broker, group, serializer=serializer)
        if coordinator is not None:
            coordinator.join(member_id or f"member-{id(self):x}", self._consumer)
        else:
            self._consumer.subscribe(topic)
        self._batch_index = 0
        self.history: list[BatchStats] = []

    @property
    def consumer(self) -> Consumer:
        """The underlying consumer (e.g. for lag inspection)."""
        return self._consumer

    def next_batch(self, max_records: int | None = None,
                   timeout: float | None = None) -> MicroBatch:
        """Drain available records into one micro-batch (may be empty).

        The batch's dataset has one partition per Kafka partition that
        contributed records — this is the Direct DStream 1:1 mapping, and it
        is why an un-partitioned topic yields a single-partition dataset that
        downstream actions process serially.

        A positive ``timeout`` long-polls the broker for the first record
        instead of returning an empty batch immediately.
        """
        started = time.perf_counter()
        batch = self._consumer.poll(max_records or 10_000, timeout=timeout)
        polled_at = time.perf_counter()
        partitions: list[list[Any]] = []
        traces: list[tuple[str, float]] = []
        serializer = self._consumer.serializer
        for tp in batch.partitions():
            records = batch.records(tp)
            partitions.append(
                deserialize_batch(serializer, [r.value for r in records])
            )
            for record in records:
                if record.headers and TRACE_ID_HEADER in record.headers:
                    traces.append((
                        record.headers[TRACE_ID_HEADER],
                        float(record.headers[TRACE_SENT_HEADER]),
                    ))
        deserialize_seconds = time.perf_counter() - started
        if not partitions:
            partitions = [[]]
        dataset = PartitionedDataset.from_partitions(partitions)
        micro = MicroBatch(
            index=self._batch_index,
            dataset=dataset,
            offsets=batch.max_offsets(),
            deserialize_seconds=deserialize_seconds,
            traces=traces,
            polled_at=polled_at,
        )
        self._batch_index += 1
        return micro

    def commit(self) -> None:
        """Commit the consumer's positions (call after the handler succeeds)."""
        self._consumer.commit()

    def wait_for_records(self, timeout: float) -> bool:
        """Block until the topic has unread records or ``timeout`` passes.

        Event-driven idle wait for streaming loops: wakes on the broker's
        append notification instead of sleep-polling.  Returns ``True`` when
        records are available.
        """
        return self._consumer.wait_for_records(timeout)

    def process_available(self, handler: Callable[[MicroBatch], None],
                          max_records: int | None = None) -> list[BatchStats]:
        """Process every already-available record in micro-batches.

        For each non-empty batch: run ``handler``, then commit offsets —
        the processing-then-commit order that gives exactly-once semantics.
        Returns per-batch stats and appends them to :attr:`history`, which
        keeps only the most recent :data:`HISTORY_LIMIT` entries.
        """
        stats: list[BatchStats] = []
        while True:
            batch = self.next_batch(max_records)
            if batch.is_empty():
                break
            started = time.perf_counter()
            handler(batch)
            handler_seconds = time.perf_counter() - started
            self.commit()
            entry = BatchStats(
                batch_index=batch.index,
                num_records=len(batch),
                deserialize_seconds=batch.deserialize_seconds,
                handler_seconds=handler_seconds,
                offsets=batch.offsets,
            )
            stats.append(entry)
            self.history.append(entry)
            if len(self.history) > HISTORY_LIMIT:
                del self.history[:-HISTORY_LIMIT]
        return stats

    def run(self, handler: Callable[[MicroBatch], None], duration_seconds: float,
            window_seconds: float = 0.05) -> list[BatchStats]:
        """Run periodic micro-batches for ``duration_seconds`` of wall time.

        Between empty polls the context blocks up to ``window_seconds`` on
        the broker's append notification (waking immediately when a
        concurrent producer fills the topic) — the Producer/Consumer
        experiment setup of Section 5.5.1 without sleep-polling.
        """
        deadline = time.perf_counter() + duration_seconds
        all_stats: list[BatchStats] = []
        while True:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                break
            processed = self.process_available(handler)
            all_stats.extend(processed)
            if not processed:
                self.wait_for_records(min(window_seconds, remaining))
        return all_stats
