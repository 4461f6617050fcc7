"""Tests for micro-batch streaming: windows, commits, partition mapping."""

import pytest

from repro.streaming import Broker, Producer, StreamingContext
from repro.streaming.dstream import HISTORY_LIMIT


@pytest.fixture
def broker():
    b = Broker()
    b.create_topic("alarms", num_partitions=3)
    return b


def fill(broker, n, key_fn=None):
    Producer(broker).send_many("alarms", [{"i": i} for i in range(n)], key_fn=key_fn)


class TestMicroBatches:
    def test_next_batch_contains_available_records(self, broker):
        fill(broker, 15)
        ctx = StreamingContext(broker, "alarms", "g")
        batch = ctx.next_batch()
        assert len(batch) == 15
        assert not batch.is_empty()

    def test_empty_topic_gives_empty_batch(self, broker):
        ctx = StreamingContext(broker, "alarms", "g")
        assert ctx.next_batch().is_empty()

    def test_batch_partitions_mirror_topic_partitions(self, broker):
        # Direct-DStream property: one dataset partition per Kafka partition.
        fill(broker, 30)  # keyless -> round robin over 3 partitions
        ctx = StreamingContext(broker, "alarms", "g")
        batch = ctx.next_batch()
        assert batch.dataset.num_partitions() == 3

    def test_batch_index_increments(self, broker):
        fill(broker, 5)
        ctx = StreamingContext(broker, "alarms", "g")
        assert ctx.next_batch().index == 0
        fill(broker, 5)
        assert ctx.next_batch().index == 1

    def test_max_records_caps_window(self, broker):
        fill(broker, 50)
        ctx = StreamingContext(broker, "alarms", "g")
        batch = ctx.next_batch(max_records=9)
        assert len(batch) <= 9


class TestProcessAvailable:
    def test_processes_everything_in_order(self, broker):
        fill(broker, 40, key_fn=lambda v: str(v["i"] % 3))
        ctx = StreamingContext(broker, "alarms", "g")
        seen = []
        stats = ctx.process_available(
            lambda batch: seen.extend(batch.dataset.collect())
        )
        assert sorted(d["i"] for d in seen) == list(range(40))
        assert sum(s.num_records for s in stats) == 40
        assert ctx.history == stats

    def test_history_keeps_only_the_most_recent_windows(self, broker):
        extra = 7
        fill(broker, HISTORY_LIMIT + extra)
        ctx = StreamingContext(broker, "alarms", "g")
        stats = ctx.process_available(lambda batch: None, max_records=1)
        assert len(stats) == HISTORY_LIMIT + extra
        assert len(ctx.history) == HISTORY_LIMIT
        assert ctx.history == stats[extra:]

    def test_offsets_commit_after_handler(self, broker):
        fill(broker, 10)
        ctx = StreamingContext(broker, "alarms", "g")
        ctx.process_available(lambda batch: None)
        # A second context in the same group sees nothing (exactly-once).
        ctx2 = StreamingContext(broker, "alarms", "g")
        assert ctx2.process_available(lambda batch: None) == []

    def test_handler_failure_leaves_offsets_uncommitted(self, broker):
        fill(broker, 10)
        ctx = StreamingContext(broker, "alarms", "g")
        with pytest.raises(RuntimeError):
            ctx.process_available(lambda batch: (_ for _ in ()).throw(RuntimeError("boom")))
        # Replacement consumer in the same group re-reads everything.
        ctx2 = StreamingContext(broker, "alarms", "g")
        replayed = []
        ctx2.process_available(lambda batch: replayed.extend(batch.dataset.collect()))
        assert len(replayed) == 10

    def test_stats_record_timings(self, broker):
        fill(broker, 10)
        ctx = StreamingContext(broker, "alarms", "g")
        stats = ctx.process_available(lambda batch: None)
        assert all(s.deserialize_seconds >= 0 for s in stats)
        assert all(s.total_seconds >= s.handler_seconds for s in stats)


class TestRunLoop:
    def test_run_picks_up_concurrent_production(self, broker):
        import threading

        ctx = StreamingContext(broker, "alarms", "g")
        total = []

        def produce_later():
            fill(broker, 25)

        thread = threading.Thread(target=produce_later)
        thread.start()
        ctx.run(lambda batch: total.extend(batch.dataset.collect()),
                duration_seconds=0.5, window_seconds=0.01)
        thread.join()
        assert len(total) == 25


class TestBlockingWaits:
    def test_next_batch_timeout_waits_for_producer(self, broker):
        import threading
        import time

        ctx = StreamingContext(broker, "alarms", "g")

        def produce_later():
            time.sleep(0.03)
            fill(broker, 5)

        thread = threading.Thread(target=produce_later)
        thread.start()
        batch = ctx.next_batch(timeout=2.0)
        thread.join()
        assert len(batch) == 5

    def test_next_batch_timeout_expires_empty(self, broker):
        ctx = StreamingContext(broker, "alarms", "g")
        batch = ctx.next_batch(timeout=0.05)
        assert batch.is_empty()

    def test_wait_for_records_signals_availability(self, broker):
        ctx = StreamingContext(broker, "alarms", "g")
        assert not ctx.wait_for_records(0.02)  # nothing yet
        fill(broker, 1)
        assert ctx.wait_for_records(0.02)
        ctx.process_available(lambda batch: None)
        assert not ctx.wait_for_records(0.02)  # drained again
