"""Tests for the extension modules: time windows, calibration, retraining,
cost model."""

import numpy as np
import pytest

from repro.core import (
    Alarm,
    AlarmHistory,
    CostModel,
    RetrainingManager,
    Verification,
    VerificationService,
)
from repro.datasets import SitasysGenerator
from repro.errors import ConfigurationError, DimensionMismatchError
from repro.ml import (
    FeaturePipeline,
    LogisticRegression,
    brier_score,
    confidence_histogram,
    expected_calibration_error,
    reliability_curve,
)
from repro.streaming import SlidingWindows, TumblingWindows, Window, windowed_counts

CATS = ["location", "property_type", "alarm_type", "hour_of_day",
        "day_of_week", "sensor_type", "software_version"]


class TestTimeWindows:
    def test_tumbling_assignment_is_unique_and_aligned(self):
        windows = TumblingWindows(60.0)
        assigned = windows.assign(125.0)
        assert assigned == [Window(120.0, 180.0)]
        assert assigned[0].contains(125.0)

    def test_tumbling_boundary_goes_to_next_window(self):
        windows = TumblingWindows(60.0)
        assert windows.assign(120.0) == [Window(120.0, 180.0)]

    def test_sliding_assignment_covers_timestamp(self):
        windows = SlidingWindows(60.0, 20.0)
        assigned = windows.assign(125.0)
        assert len(assigned) == 3  # ceil(60/20)
        assert all(w.contains(125.0) for w in assigned)
        starts = [w.start for w in assigned]
        assert starts == sorted(starts)

    def test_sliding_equal_to_tumbling_when_slide_is_size(self):
        sliding = SlidingWindows(60.0, 60.0)
        tumbling = TumblingWindows(60.0)
        assert sliding.assign(95.0) == tumbling.assign(95.0)

    def test_sliding_with_slide_equal_size_leaves_no_gap(self):
        # 0.6 / 0.1 rounds to index 5, whose end used to be computed as
        # 5 * 0.1 + 0.1 == 0.6 exactly, so 0.6 fell in no window at all.
        assigned = SlidingWindows(0.1, 0.1).assign(0.6)
        assert assigned == TumblingWindows(0.1).assign(0.6)
        assert len(assigned) == 1 and assigned[0].contains(0.6)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TumblingWindows(0.0)
        with pytest.raises(ConfigurationError):
            SlidingWindows(10.0, 20.0)

    def test_windowed_counts_per_device(self):
        events = [
            {"device": "a", "ts": 5.0},
            {"device": "a", "ts": 15.0},
            {"device": "b", "ts": 15.0},
            {"device": "a", "ts": 65.0},
        ]
        counts = windowed_counts(
            events, TumblingWindows(60.0),
            timestamp_fn=lambda e: e["ts"], key_fn=lambda e: e["device"],
        )
        first = counts[Window(0.0, 60.0)]
        second = counts[Window(60.0, 120.0)]
        assert first == {"a": 2, "b": 1}
        assert second == {"a": 1}

    def test_sliding_counts_overlap(self):
        events = [{"ts": 25.0}]
        counts = windowed_counts(
            events, SlidingWindows(40.0, 20.0),
            timestamp_fn=lambda e: e["ts"], key_fn=lambda e: "k",
        )
        assert len(counts) == 2  # the record lands in two sliding windows


class TestCalibration:
    def test_brier_perfect_and_worst(self):
        assert brier_score([1, 0], [1.0, 0.0]) == 0.0
        assert brier_score([1, 0], [0.0, 1.0]) == 1.0

    def test_brier_uninformed(self):
        assert brier_score([1, 0], [0.5, 0.5]) == pytest.approx(0.25)

    def test_reliability_curve_perfectly_calibrated(self):
        rng = np.random.default_rng(0)
        proba = rng.uniform(size=5000)
        outcomes = (rng.uniform(size=5000) < proba).astype(int)
        bins = reliability_curve(outcomes, proba, n_bins=5)
        assert all(bin_.gap < 0.05 for bin_ in bins)

    def test_reliability_curve_counts_sum(self):
        proba = np.linspace(0, 1, 100)
        outcomes = (proba > 0.5).astype(int)
        bins = reliability_curve(outcomes, proba, n_bins=10)
        assert sum(b.count for b in bins) == 100

    def test_ece_detects_overconfidence(self):
        # Model says 0.99 but is right only half the time.
        proba = np.full(200, 0.99)
        outcomes = np.array([1, 0] * 100)
        assert expected_calibration_error(outcomes, proba) > 0.4

    def test_ece_zero_for_perfect_model(self):
        assert expected_calibration_error([1, 1, 0, 0], [1, 1, 0, 0]) == 0.0

    def test_confidence_histogram_counts(self):
        histogram = confidence_histogram([0.5, 0.95, 0.05, 0.7], n_bins=5)
        assert sum(histogram.values()) == 4

    def test_validation(self):
        with pytest.raises(DimensionMismatchError):
            brier_score([1], [0.5, 0.5])
        with pytest.raises(DimensionMismatchError):
            brier_score([2], [0.5])
        with pytest.raises(DimensionMismatchError):
            brier_score([1], [1.5])
        with pytest.raises(ConfigurationError):
            reliability_curve([1], [0.5], n_bins=0)


@pytest.fixture(scope="module")
def trained_world():
    generator = SitasysGenerator(num_devices=100, seed=11)
    alarms = generator.generate(1500)
    history = AlarmHistory()
    history.record_batch(alarms[:800])

    def factory():
        return FeaturePipeline(LogisticRegression(max_iter=60), CATS)

    service = VerificationService(factory().fit(
        [a.to_document() and _features(a) for a in alarms[:200]],
        [a.duration_seconds < 60.0 for a in alarms[:200]],
    ))
    return generator, alarms, history, factory, service


def _features(alarm: Alarm) -> dict:
    return {
        "location": alarm.zip_code, "property_type": alarm.property_type,
        "alarm_type": alarm.alarm_type, "hour_of_day": alarm.hour_of_day,
        "day_of_week": alarm.day_of_week, "sensor_type": alarm.sensor_type,
        "software_version": alarm.software_version,
    }


class TestRetrainingManager:
    def test_not_due_without_new_alarms(self, trained_world):
        _, _, history, factory, service = trained_world
        manager = RetrainingManager(history, factory, service, min_new_alarms=100)
        assert not manager.is_due()
        assert manager.maybe_retrain() is None

    def test_due_after_enough_new_alarms(self, trained_world):
        generator, alarms, _, factory, _ = trained_world
        history = AlarmHistory()
        history.record_batch(alarms[:300])
        service = VerificationService(factory().fit(
            [_features(a) for a in alarms[:100]],
            [a.duration_seconds < 60.0 for a in alarms[:100]],
        ))
        manager = RetrainingManager(history, factory, service, min_new_alarms=100)
        history.record_batch(alarms[300:500])
        assert manager.new_alarms_since_last_build() == 200
        record = manager.maybe_retrain()
        assert record is not None
        assert record.version == 1
        assert record.training_alarms == 500
        assert record.training_accuracy > 0.7
        assert manager.new_alarms_since_last_build() == 0

    def test_swaps_serving_pipeline(self, trained_world):
        _, alarms, _, factory, _ = trained_world
        history = AlarmHistory()
        history.record_batch(alarms[:400])
        service = VerificationService(factory().fit(
            [_features(a) for a in alarms[:50]],
            [a.duration_seconds < 60.0 for a in alarms[:50]],
        ))
        before = service.pipeline
        manager = RetrainingManager(history, factory, service, min_new_alarms=1)
        manager.retrain()
        assert service.pipeline is not before
        assert service.verify(alarms[0]).probability_false >= 0.0

    def test_interval_gate(self, trained_world):
        _, alarms, _, factory, _ = trained_world
        history = AlarmHistory()
        history.record_batch(alarms[:400])
        service = VerificationService(factory().fit(
            [_features(a) for a in alarms[:50]],
            [a.duration_seconds < 60.0 for a in alarms[:50]],
        ))
        manager = RetrainingManager(
            history, factory, service,
            min_new_alarms=1, min_interval_seconds=3600.0,
        )
        manager.retrain(now=1000.0)
        history.record_batch(alarms[400:500])
        assert not manager.is_due(now=2000.0)   # inside the interval
        assert manager.is_due(now=1000.0 + 3601.0)

    def test_max_training_alarms_cap(self, trained_world):
        _, alarms, _, factory, _ = trained_world
        history = AlarmHistory()
        history.record_batch(alarms[:600])
        service = VerificationService(factory().fit(
            [_features(a) for a in alarms[:50]],
            [a.duration_seconds < 60.0 for a in alarms[:50]],
        ))
        manager = RetrainingManager(
            history, factory, service, min_new_alarms=1, max_training_alarms=250,
        )
        record = manager.retrain()
        assert record.training_alarms == 250

    def test_empty_history_raises(self, trained_world):
        _, _, _, factory, service = trained_world
        manager = RetrainingManager(AlarmHistory(), factory, service)
        with pytest.raises(ConfigurationError):
            manager.retrain()

    def test_validation(self, trained_world):
        _, _, history, factory, service = trained_world
        with pytest.raises(ConfigurationError):
            RetrainingManager(history, factory, service, min_new_alarms=0)
        with pytest.raises(ConfigurationError):
            RetrainingManager(history, factory, service, min_interval_seconds=-1)


def make_verification(p_false, alarm_type="intrusion"):
    alarm = Alarm(
        device_address="d", zip_code="8001", timestamp=0.0,
        alarm_type=alarm_type, property_type="residential",
        duration_seconds=10.0,
    )
    return Verification(alarm=alarm, is_false=p_false >= 0.5,
                        probability_false=p_false)


class TestCostModel:
    def test_perfect_classifier_costs_less_than_inverted(self):
        model = CostModel()
        verifications = [make_verification(0.95), make_verification(0.05)]
        aligned = model.evaluate(verifications, [True, False], threshold=0.5)
        inverted = model.evaluate(verifications, [False, True], threshold=0.5)
        assert aligned.total_cost < inverted.total_cost

    def test_suppressing_true_alarm_incurs_missed_cost(self):
        model = CostModel(missed_true_cost=9999.0)
        verification = make_verification(0.2, alarm_type="technical")
        point = model.evaluate([verification], [False], threshold=0.5,
                               suppress_alarm_types=frozenset({"technical"}))
        assert point.missed_true == 1
        assert point.total_cost >= 9999.0

    def test_dispatch_to_false_counted_at_arc(self):
        model = CostModel(false_dispatch_cost=100.0, arc_handling_cost=1.0)
        # Confidently "true" but actually false -> ARC dispatch wasted.
        point = model.evaluate([make_verification(0.1)], [True], threshold=0.5)
        assert point.arc_handled == 1
        assert point.dispatches_to_false == 1
        assert point.total_cost == pytest.approx(101.0)

    def test_customer_route_is_cheap(self):
        model = CostModel(customer_ping_cost=0.5, arc_handling_cost=10.0,
                          customer_answer_rate=1.0)
        point = model.evaluate([make_verification(0.9)], [True], threshold=0.5)
        assert point.customer_handled == 1
        assert point.total_cost == pytest.approx(0.5)

    def test_sweep_produces_one_point_per_threshold(self):
        model = CostModel()
        verifications = [make_verification(p) for p in (0.1, 0.4, 0.6, 0.9)]
        truths = [False, False, True, True]
        points = model.sweep(verifications, truths, thresholds=(0.2, 0.5, 0.8))
        assert [p.threshold for p in points] == [0.2, 0.5, 0.8]

    def test_best_threshold_prefers_cheaper_operation(self):
        model = CostModel(false_dispatch_cost=1000.0, customer_ping_cost=0.1,
                          arc_handling_cost=1.0, customer_answer_rate=1.0)
        # All alarms false and correctly scored: high thresholds (send to
        # customer) must win because ARC dispatches are expensive.
        verifications = [make_verification(0.95) for _ in range(20)]
        truths = [True] * 20
        best = model.best_threshold(verifications, truths,
                                    thresholds=(0.05, 0.5, 0.95))
        assert best >= 0.5

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CostModel(false_dispatch_cost=-1.0)
        with pytest.raises(ConfigurationError):
            CostModel(customer_answer_rate=1.5)
        with pytest.raises(ConfigurationError):
            CostModel().evaluate([make_verification(0.5)], [], threshold=0.5)
