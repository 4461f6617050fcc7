"""Section 5.5.2 — end-to-end throughput and the repartitioning fix.

Paper: the first single-producer/single-consumer setup peaked around 12K
alarms/s (serializer-bound); after switching serializers and repartitioning
the un-partitioned Kafka stream so Spark processed records in parallel, a
single consumer reached ~30K verified alarms/s including historic analysis.

The bench measures the verified-alarms-per-second of the full consumer
(deserialize -> distinct devices -> history histogram -> ML verification ->
archive) for an un-partitioned stream versus partitioned configurations,
plus a multi-threaded producer, and asserts the published direction:
partitioned processing does not lose records and the pipeline sustains a
high verification rate.

One honest divergence: the paper's repartitioning fix raises *executor*
parallelism on a Spark cluster.  In a single CPython process, thread-level
parallelism cannot speed this workload up (GIL), so the reproduction gets
its throughput from vectorized batch classification instead; the
partitioning mechanics (task-per-partition, record conservation) are still
exercised.
"""

# Heavy paper-reproduction benchmark: excluded from the fast tier-1
# profile (see pytest.ini); run with `pytest -m slow` or `-m "slow or not slow"`.
import pytest

pytestmark = pytest.mark.slow

from conftest import SITASYS_FEATURES, make_pipeline, print_table

from repro.core import (
    AlarmHistory,
    ConsumerApplication,
    ProducerApplication,
    VerificationService,
)
from repro.core.labeling import label_alarms
from repro.streaming import Broker

STREAM = 30_000


def build_service(train):
    labeled = label_alarms(train, 60.0)
    pipeline = make_pipeline("RF", SITASYS_FEATURES, n_estimators=30, max_depth=25)
    pipeline.fit([l.features() for l in labeled], [l.is_false for l in labeled])
    return VerificationService(pipeline)


def consume(service, test, topic_partitions, repartition, producer_threads):
    broker = Broker()
    broker.create_topic("alarms", num_partitions=topic_partitions)
    producer_report = ProducerApplication(broker, "alarms", test, seed=1).run(
        STREAM, num_threads=producer_threads
    )
    # ``repartition`` shapes only the task-per-partition (parallel_ml) path.
    consumer = ConsumerApplication(
        broker, "alarms", "bench", service, history=AlarmHistory(),
        repartition=repartition, parallel_ml=repartition is not None,
    )
    report = consumer.process_available(max_records=STREAM)
    assert report.alarms_processed == STREAM
    return producer_report.throughput, report.throughput


def test_e2e_throughput_and_repartitioning(benchmark, sitasys_alarms):
    train, test = sitasys_alarms[:10_000], sitasys_alarms[10_000:]
    service = build_service(train)

    serial_producer, serial_consumer = consume(
        service, test, topic_partitions=1, repartition=None, producer_threads=1
    )

    def parallel_run():
        return consume(
            service, test, topic_partitions=1, repartition=6,
            producer_threads=2,
        )
    parallel_producer, parallel_consumer = benchmark.pedantic(
        parallel_run, rounds=2, iterations=1
    )

    multi_partition_producer, multi_partition_consumer = consume(
        service, test, topic_partitions=6, repartition=None, producer_threads=4
    )

    print_table(
        "Section 5.5.2: end-to-end verified-alarm throughput "
        "(paper: ~12K/s serial bottleneck -> ~30K/s after fixes)",
        ["configuration", "producer /s", "consumer (verify+history) /s"],
        [
            ["1 partition, serial", f"{serial_producer:,.0f}",
             f"{serial_consumer:,.0f}"],
            ["1 partition, repartition(6)", f"{parallel_producer:,.0f}",
             f"{parallel_consumer:,.0f}"],
            ["6 partitions, 4 producer threads",
             f"{multi_partition_producer:,.0f}",
             f"{multi_partition_consumer:,.0f}"],
        ],
    )

    # Published directions: nothing lost, the pipeline sustains thousands of
    # verified alarms per second, and parallel configurations keep up with
    # (or beat) the serial one.
    assert serial_consumer > 1_000
    assert max(parallel_consumer, multi_partition_consumer) >= serial_consumer * 0.8
