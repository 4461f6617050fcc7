"""Property-based tests for the extension modules (hypothesis)."""

import hypothesis.strategies as st
import numpy as np
from hypothesis import assume, given, settings

from repro.core import Alarm, CostModel, Verification
from repro.ml import brier_score, expected_calibration_error, reliability_curve
from repro.streaming import SlidingWindows, TumblingWindows, windowed_counts

timestamps = st.floats(min_value=0.0, max_value=1e9, allow_nan=False,
                       allow_infinity=False)


@given(ts=timestamps, size=st.floats(min_value=0.5, max_value=86_400))
@settings(max_examples=150, deadline=None)
def test_tumbling_window_always_contains_its_timestamp(ts, size):
    windows = TumblingWindows(size).assign(ts)
    assert len(windows) == 1
    assert windows[0].contains(ts)
    assert abs(windows[0].size - size) < 1e-6 * max(1.0, abs(windows[0].start))


@given(
    ts=timestamps,
    size=st.floats(min_value=1.0, max_value=3_600),
    divisor=st.integers(min_value=1, max_value=6),
)
@settings(max_examples=150, deadline=None)
def test_sliding_windows_cover_timestamp_exactly(ts, size, divisor):
    slide = size / divisor
    windows = SlidingWindows(size, slide).assign(ts)
    # Floating rounding can put ts epsilon-outside a boundary window, so
    # require containment up to a relative tolerance.
    tolerance = 1e-6 * max(1.0, abs(ts))
    assert all(
        w.start - tolerance <= ts < w.end + tolerance for w in windows
    )
    # Number of covering windows equals ceil(size / slide) == divisor
    # (off-by-one at exact boundaries is allowed by floating arithmetic).
    assert divisor <= len(windows) + 1
    assert len(windows) <= divisor + 1


@given(
    events=st.lists(
        st.tuples(st.floats(0, 10_000, allow_nan=False), st.sampled_from("abc")),
        max_size=60,
    ),
    size=st.floats(min_value=1.0, max_value=500.0),
)
@settings(max_examples=100, deadline=None)
def test_tumbling_counts_conserve_events(events, size):
    counts = windowed_counts(
        events, TumblingWindows(size),
        timestamp_fn=lambda e: e[0], key_fn=lambda e: e[1],
    )
    total = sum(sum(bucket.values()) for bucket in counts.values())
    assert total == len(events)


# -- fractional window sizes: float-drift regression ---------------------------
#
# Window bounds are now derived from the integer window index, so equal
# logical windows must be *bit-identical* Window values (one dict key in
# windowed_counts) and containment must hold exactly, even for fractional
# sizes like 0.1 whose products drift in the last ulps.

fractional_sizes = st.sampled_from([0.1, 0.3, 0.7, 1.3, 2.5, 0.05])


@given(ts=st.floats(0.0, 10_000.0, allow_nan=False), size=fractional_sizes)
@settings(max_examples=200, deadline=None)
def test_tumbling_fractional_sizes_contain_exactly(ts, size):
    windows = TumblingWindows(size).assign(ts)
    assert len(windows) == 1
    assert windows[0].contains(ts)  # exact, no tolerance


@given(
    ts=st.floats(0.0, 5_000.0, allow_nan=False),
    size=fractional_sizes,
    divisor=st.integers(min_value=1, max_value=5),
)
@settings(max_examples=200, deadline=None)
def test_sliding_fractional_sizes_contain_exactly(ts, size, divisor):
    windows = SlidingWindows(size, size / divisor).assign(ts)
    assert windows
    assert all(w.contains(ts) for w in windows)  # exact, no tolerance


@given(
    tenths=st.integers(min_value=0, max_value=100_000),
    size=fractional_sizes,
    divisor=st.integers(min_value=1, max_value=5),
)
@settings(max_examples=200, deadline=None)
def test_sliding_decimal_timestamps_fall_in_some_window(tenths, size, divisor):
    """Decimal timestamps on slide boundaries (0.6 with 0.1 windows) are
    covered, and ``slide == size`` assigns exactly the tumbling window."""
    ts = tenths / 10
    windows = SlidingWindows(size, size / divisor).assign(ts)
    assert windows
    assert all(w.contains(ts) for w in windows)
    if divisor == 1:
        assert windows == TumblingWindows(size).assign(ts)


@given(
    base=st.integers(min_value=0, max_value=3_000),
    offsets=st.lists(st.floats(0.0, 1.0, exclude_max=True, allow_nan=False),
                     min_size=1, max_size=30),
    size=st.sampled_from([0.1, 0.3]),
)
@settings(max_examples=150, deadline=None)
def test_tumbling_fractional_sizes_dedupe_window_keys(base, offsets, size):
    """Timestamps in one logical window must produce ONE dict key.

    With the old ``floor(ts/size)*size`` arithmetic, 0.1-sized windows
    split into several float-drifted keys; keying off the integer window
    index makes them collapse.
    """
    assigner = TumblingWindows(size)
    # All timestamps inside the logical window that contains base*size+0.01.
    anchor = assigner.assign(base * size + size / 10)[0]
    inside = [anchor.start + f * (anchor.end - anchor.start) for f in offsets]
    inside = [ts for ts in inside if anchor.contains(ts)]
    counts = windowed_counts(
        [(ts, "k") for ts in inside], assigner,
        timestamp_fn=lambda e: e[0], key_fn=lambda e: e[1],
    )
    assert len(counts) <= 1
    if inside:
        assert counts == {anchor: {"k": len(inside)}}


@given(
    outcomes=st.lists(st.sampled_from([0, 1]), min_size=1, max_size=80),
    seed=st.integers(0, 100),
)
@settings(max_examples=120, deadline=None)
def test_brier_bounds_and_ece_bounds(outcomes, seed):
    rng = np.random.default_rng(seed)
    proba = rng.uniform(size=len(outcomes))
    assert 0.0 <= brier_score(outcomes, proba) <= 1.0
    assert 0.0 <= expected_calibration_error(outcomes, proba) <= 1.0


@given(
    outcomes=st.lists(st.sampled_from([0, 1]), min_size=1, max_size=80),
    seed=st.integers(0, 100),
    n_bins=st.integers(1, 20),
)
@settings(max_examples=120, deadline=None)
def test_reliability_bins_partition_the_samples(outcomes, seed, n_bins):
    rng = np.random.default_rng(seed)
    proba = rng.uniform(size=len(outcomes))
    bins = reliability_curve(outcomes, proba, n_bins=n_bins)
    assert sum(b.count for b in bins) == len(outcomes)
    for bin_ in bins:
        assert bin_.lower <= bin_.mean_predicted <= bin_.upper + 1e-12
        assert 0.0 <= bin_.observed_frequency <= 1.0


def _verification(p_false: float) -> Verification:
    alarm = Alarm(
        device_address="d", zip_code="z", timestamp=0.0,
        alarm_type="intrusion", property_type="residential",
        duration_seconds=1.0,
    )
    return Verification(alarm=alarm, is_false=p_false >= 0.5,
                        probability_false=p_false)


@given(
    p_falses=st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=1, max_size=40),
    seed=st.integers(0, 50),
    threshold=st.floats(0.0, 1.0),
)
@settings(max_examples=100, deadline=None)
def test_cost_model_accounting_invariants(p_falses, seed, threshold):
    rng = np.random.default_rng(seed)
    verifications = [_verification(p) for p in p_falses]
    truths = [bool(v) for v in rng.integers(0, 2, size=len(p_falses))]
    point = CostModel().evaluate(verifications, truths, threshold)
    assert point.total_cost >= 0.0
    assert point.arc_handled + point.customer_handled + point.suppressed == len(p_falses)
    assert point.cost_per_alarm * len(p_falses) == pytest_approx(point.total_cost)


def pytest_approx(value: float):
    import pytest
    return pytest.approx(value, rel=1e-9)


@given(
    p_falses=st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=2, max_size=30),
    seed=st.integers(0, 50),
)
@settings(max_examples=80, deadline=None)
def test_cost_model_threshold_monotonic_arc_share(p_falses, seed):
    """Raising the threshold can only move alarms away from the ARC."""
    rng = np.random.default_rng(seed)
    verifications = [_verification(p) for p in p_falses]
    truths = [bool(v) for v in rng.integers(0, 2, size=len(p_falses))]
    model = CostModel()
    low = model.evaluate(verifications, truths, threshold=0.2)
    high = model.evaluate(verifications, truths, threshold=0.8)
    assert high.arc_handled <= low.arc_handled
    assert high.customer_handled >= low.customer_handled
