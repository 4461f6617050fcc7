"""The validity guard, the query check and one tiny run of each mode."""

import pytest

from bench.adapter import generate_inputs
from bench.harness import DEADLINE_S, Measurement, query_is_right
from bench.metrics import END_TO_END, PER_LAYER
from bench.runner import run_once
from bench.workloads import WORKLOADS


def _paced(latencies, lateness, backlog):
    due = [float(i) for i in range(len(latencies))]
    return Measurement(
        ack_time=[d + latency for d, latency in zip(due, latencies)],
        paced_due=due, lateness_s=lateness, backlog=backlog,
    )


def test_valid_open_loop_counts_only_real_deadline_misses():
    m = _paced([0.1] * 98 + [DEADLINE_S + 0.5] * 2, [0.001] * 100, [5] * 100)
    assert m.paced_valid and not m.backlog_growing
    assert m.deadline_miss_share == pytest.approx(0.02)


def test_late_generator_invalidates_the_phase():
    m = _paced([0.1] * 100, [0.5] * 100, [5] * 100)
    assert not m.paced_valid
    assert m.deadline_miss_share == 1.0


def test_growing_backlog_invalidates_the_phase():
    m = _paced([0.1] * 300, [0.001] * 300, list(range(300)))
    assert m.backlog_growing and not m.paced_valid
    assert m.deadline_miss_share == 1.0


def test_never_acked_alarm_is_a_miss():
    m = _paced([0.1] * 100, [0.001] * 100, [5] * 100)
    m.ack_time[7] = 0.0
    assert m.paced_latency_s[7] == float("inf")
    assert m.deadline_miss_share == pytest.approx(0.01)


def test_query_check_bounds_counts_beside_ingest():
    inputs = generate_inputs(WORKLOADS["inmem"], 4, 0.2)
    device = next(iter(inputs.device_total))
    low, high = inputs.device_preload.get(device, 0), inputs.device_total[device]
    assert query_is_right(inputs, ("hourly_profile", device), {3: low})
    assert query_is_right(inputs, ("hourly_profile", device), {3: low, 4: high - low})
    assert not query_is_right(inputs, ("hourly_profile", device), {3: high + 1})
    kind = next(iter(inputs.type_total))
    zip_code = next(iter(inputs.zip_counts))
    assert query_is_right(inputs, ("alarms_by_zip", kind),
                          {zip_code: inputs.type_total[kind]})
    assert not query_is_right(inputs, ("alarms_by_zip", kind), {"no-such-zip": 1})


class _Stamped:
    def __init__(self, timestamp):
        self.timestamp = timestamp


def test_query_check_wants_recent_sorted_limited_and_after_since():
    inputs = generate_inputs(WORKLOADS["inmem"], 4, 0.2)
    ok = [_Stamped(9.0), _Stamped(7.0), _Stamped(5.0)]
    assert query_is_right(inputs, ("recent", 5.0), ok)
    assert not query_is_right(inputs, ("recent", 6.0), ok)
    assert not query_is_right(inputs, ("recent", 1.0), list(reversed(ok)))
    assert not query_is_right(inputs, ("recent", 0.0), [_Stamped(1.0)] * 51)


def test_untraced_run_prints_every_end_to_end_metric(capsys):
    result = run_once(WORKLOADS["inmem"], seed=5, seconds=0.3, trace=False)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [name for name, *_ in END_TO_END]
    assert all(entry["value"] > 0 for entry in result["metrics"].values())
    assert "output check: ok" in capsys.readouterr().out


def test_traced_run_prints_every_per_layer_metric_and_idle_layers_read_zero():
    result = run_once(WORKLOADS["inmem"], seed=6, seconds=0.3, trace=True)
    assert result["correct"]
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    assert list(metrics) == [name for name, *_ in PER_LAYER]
    idle = ("durability.", "runtime.", "replication.", "cluster.")
    assert all(value == 0 for name, value in metrics.items() if name.startswith(idle))
    assert metrics["ml.verify.calls"] > 0 and metrics["storage.insert.docs"] > 0
    assert 0.0 <= metrics["core.unaccounted_share"] < 1.0
    assert metrics["obs.hooks_missing"] == 0
