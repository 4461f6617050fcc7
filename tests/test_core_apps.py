"""Producer/consumer application tests (configuration and failure paths)."""

import pytest

from repro.core import (
    AlarmHistory,
    ConsumerApplication,
    ProducerApplication,
    VerificationService,
    label_alarms,
)
from repro.datasets import SitasysGenerator
from repro.errors import ConfigurationError
from repro.ml import FeaturePipeline, LogisticRegression, RandomForestClassifier
from repro.streaming import Broker

CATS = ["location", "property_type", "alarm_type", "hour_of_day",
        "day_of_week", "sensor_type", "software_version"]


@pytest.fixture(scope="module")
def alarms():
    return SitasysGenerator(num_devices=80, seed=11).generate(800)


@pytest.fixture(scope="module")
def service(alarms):
    labeled = label_alarms(alarms[:400], 60.0)
    pipe = FeaturePipeline(LogisticRegression(max_iter=60), CATS)
    pipe.fit([l.features() for l in labeled], [l.is_false for l in labeled])
    return VerificationService(pipe)


class _CountingService:
    """Delegates to a verification service, recording each batch's size."""

    def __init__(self, service):
        self._service = service
        self.batch_sizes = []

    def verify_batch(self, alarms):
        self.batch_sizes.append(len(alarms))
        return self._service.verify_batch(alarms)


@pytest.fixture
def broker():
    b = Broker()
    b.create_topic("alarms", num_partitions=3)
    return b


class TestProducerApplication:
    def test_run_sends_requested_count(self, broker, alarms):
        app = ProducerApplication(broker, "alarms", alarms, seed=1)
        report = app.run(250)
        assert report.records_sent == 250
        assert broker.total_records("alarms") == 250
        assert report.throughput > 0

    def test_multithreaded_run_conserves_count(self, broker, alarms):
        app = ProducerApplication(broker, "alarms", alarms, seed=1)
        report = app.run(301, num_threads=3)
        assert report.records_sent == 301
        assert broker.total_records("alarms") == 301
        assert report.threads == 3

    def test_keying_by_device_keeps_device_in_one_partition(self, broker, alarms):
        ProducerApplication(broker, "alarms", alarms, seed=2).run(400)
        from repro.streaming import Consumer
        consumer = Consumer(broker, "check")
        consumer.subscribe("alarms")
        device_partitions: dict[str, set[int]] = {}
        for record in consumer.poll(1000):
            doc_partitions = device_partitions.setdefault(
                record.key.decode(), set()
            )
            doc_partitions.add(record.partition)
        assert all(len(parts) == 1 for parts in device_partitions.values())

    def test_deterministic_given_seed(self, alarms):
        def collect(seed):
            b = Broker()
            b.create_topic("alarms", num_partitions=1)
            ProducerApplication(b, "alarms", alarms, seed=seed).run(50)
            from repro.streaming import Consumer
            c = Consumer(b, "g")
            c.subscribe("alarms")
            return [v["device_address"] for v in c.poll_values(100)]
        assert collect(7) == collect(7)
        assert collect(7) != collect(8)

    def test_validation(self, broker, alarms):
        with pytest.raises(ConfigurationError):
            ProducerApplication(broker, "alarms", [])
        app = ProducerApplication(broker, "alarms", alarms)
        with pytest.raises(ConfigurationError):
            app.run(0)
        with pytest.raises(ConfigurationError):
            app.run(10, num_threads=0)

    def test_rate_limit_is_respected(self, broker, alarms):
        import time
        app = ProducerApplication(broker, "alarms", alarms, seed=1)
        started = time.perf_counter()
        app.run(60, rate_limit=300.0)
        assert time.perf_counter() - started >= 60 / 300.0 * 0.7


class TestConsumerApplication:
    def test_process_available_verifies_everything(self, broker, alarms, service):
        ProducerApplication(broker, "alarms", alarms, seed=3).run(200)
        consumer = ConsumerApplication(broker, "alarms", "g", service)
        report = consumer.process_available()
        assert report.alarms_processed == 200
        assert report.windows >= 1
        assert report.elapsed_seconds > 0

    def test_parallel_ml_mode_produces_same_counts(self, broker, alarms, service):
        ProducerApplication(broker, "alarms", alarms, seed=4).run(150)
        consumer = ConsumerApplication(
            broker, "alarms", "g", service, repartition=3, parallel_ml=True,
        )
        assert consumer.process_available().alarms_processed == 150

    def test_window_over_four_partitions_is_one_verify_batch_call(self, alarms):
        # A forest's rows are classified independently of each other, so the
        # per-partition and whole-window calls must agree bit for bit.
        labeled = label_alarms(alarms[:400], 60.0)
        pipe = FeaturePipeline(
            RandomForestClassifier(n_estimators=5, max_depth=8, random_state=0),
            categorical_features=CATS, encoding="ordinal",
        )
        pipe.fit([l.features() for l in labeled], [l.is_false for l in labeled])
        service = VerificationService(pipe)
        broker = Broker()
        broker.create_topic("alarms", num_partitions=4)
        ProducerApplication(broker, "alarms", alarms, seed=8).run(160)

        single_spy = _CountingService(service)
        single = ConsumerApplication(
            broker, "alarms", "single", single_spy, keep_verifications=True,
        ).process_available()
        assert single.windows == 1
        assert single_spy.batch_sizes == [160]

        # The per-partition path: one task per broker partition.
        parts_spy = _CountingService(service)
        per_partition = ConsumerApplication(
            broker, "alarms", "parts", parts_spy, parallel_ml=True,
            keep_verifications=True,
        ).process_available()
        assert per_partition.windows == 1
        assert len(parts_spy.batch_sizes) == 4
        assert single.verifications == per_partition.verifications

    def test_histogram_since_filters_history(self, broker, alarms, service):
        history = AlarmHistory()
        history.record_batch(alarms[:100])
        latest = max(a.timestamp for a in alarms[:100])
        consumer = ConsumerApplication(
            broker, "alarms", "g", service, history=history,
            histogram_since=latest + 1.0,
        )
        ProducerApplication(broker, "alarms", alarms, seed=5).run(50)
        consumer.process_available()
        # Everything predates the cutoff except the window itself (recorded
        # after the histogram step), so all counts are zero.
        assert all(count == 0 for count in consumer.last_histogram.values())

    def test_invalid_repartition_raises(self, broker, service):
        with pytest.raises(ConfigurationError):
            ConsumerApplication(broker, "alarms", "g", service, repartition=0)

    def test_keep_verifications_off_keeps_memory_flat(self, broker, alarms, service):
        ProducerApplication(broker, "alarms", alarms, seed=6).run(100)
        consumer = ConsumerApplication(broker, "alarms", "g", service)
        report = consumer.process_available()
        assert report.verifications == []

    def test_run_loop_with_live_producer(self, broker, alarms, service):
        import threading
        consumer = ConsumerApplication(broker, "alarms", "g", service)
        producer = ProducerApplication(broker, "alarms", alarms, seed=7)
        thread = threading.Thread(target=lambda: producer.run(120))
        thread.start()
        report = consumer.run(duration_seconds=1.0)
        thread.join()
        # run() must pick up everything the live producer wrote.
        remaining = consumer.process_available()
        assert report.alarms_processed + remaining.alarms_processed == 120

    def test_breakdown_shares_sum_to_one(self, broker, alarms, service):
        ProducerApplication(broker, "alarms", alarms, seed=8).run(80)
        consumer = ConsumerApplication(broker, "alarms", "g", service)
        report = consumer.process_available()
        assert sum(report.breakdown().values()) == pytest.approx(1.0)

    def test_empty_topic_report(self, broker, service):
        consumer = ConsumerApplication(broker, "alarms", "g", service)
        report = consumer.process_available()
        assert report.alarms_processed == 0
        assert report.breakdown() == {
            "streaming": 0.0, "batch": 0.0, "ml": 0.0, "store": 0.0
        }

    def test_on_window_observer_sees_every_verification(self, broker, alarms, service):
        ProducerApplication(broker, "alarms", alarms, seed=3).run(150)
        observed = []
        consumer = ConsumerApplication(
            broker, "alarms", "g", service,
            on_window=lambda verifications, batch: observed.append(
                (len(verifications), batch.index)
            ),
        )
        report = consumer.process_available(max_records=60)
        assert report.alarms_processed == 150
        assert sum(count for count, _ in observed) == 150
        assert len(observed) == report.windows

    def test_drain_until_processes_everything_then_stops(self, broker, alarms, service):
        ProducerApplication(broker, "alarms", alarms, seed=4).run(120)
        consumer = ConsumerApplication(broker, "alarms", "g", service)
        report = consumer.drain_until(lambda: True, max_records=50)
        assert report.alarms_processed == 120
        assert report.windows >= 1

    def test_drain_until_waits_for_done_signal(self, broker, alarms, service):
        consumer = ConsumerApplication(broker, "alarms", "g", service)
        state = {"calls": 0}

        def done():
            state["calls"] += 1
            if state["calls"] == 2:
                ProducerApplication(broker, "alarms", alarms, seed=5).run(30)
            return state["calls"] >= 2

        report = consumer.drain_until(done, idle_sleep=0.001)
        assert report.alarms_processed == 30
