"""Span self time, parentage across threads, proxies and patches."""

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from bench.spans import (
    Recorder, TimingProxy, covered_length, patch_attribute,
    propagate_spans_into_pools, self_time,
)


def test_self_time_subtracts_sequential_children():
    assert self_time(0.0, 10.0, [(1.0, 3.0), (5.0, 6.0)]) == pytest.approx(7.0)


def test_self_time_counts_overlapping_children_once():
    # Two fan-out children overlap on [2, 4]: the union covers [1, 6].
    assert self_time(0.0, 10.0, [(1.0, 4.0), (2.0, 6.0)]) == pytest.approx(5.0)


def test_self_time_handles_nested_and_out_of_order_children():
    children = [(5.0, 6.0), (1.0, 8.0), (2.0, 3.0)]
    assert self_time(0.0, 10.0, children) == pytest.approx(3.0)


def test_children_never_exceed_their_parent():
    # A child reaching past its parent (clock jitter) is clipped.
    assert covered_length([(-1.0, 4.0), (9.0, 12.0)], 0.0, 10.0) == pytest.approx(5.0)
    assert self_time(0.0, 10.0, [(-5.0, 50.0)]) == 0.0


def test_recorder_aggregates_busy_and_self_time():
    recorder = Recorder()
    inner = recorder.wrap("inner", lambda: time.sleep(0.01))

    def outer_body():
        inner()
        inner()
        time.sleep(0.005)

    recorder.wrap("outer", outer_body)()
    totals = recorder.totals()
    assert totals["inner"].calls == 2
    assert totals["outer"].calls == 1
    assert totals["outer"].busy >= totals["inner"].busy
    assert totals["outer"].self_s == pytest.approx(
        totals["outer"].busy - totals["inner"].busy, abs=1e-6)
    assert totals["inner"].under["outer"] == pytest.approx(totals["inner"].busy)
    # Only the outer span is top-level on this thread.
    assert recorder.top_busy(threading.current_thread().name) == \
        pytest.approx(totals["outer"].busy)


def test_recorder_counts_and_peaks_merge_over_threads():
    recorder = Recorder()

    def work():
        recorder.add("boundary", "bytes", 10)
        recorder.peak("boundary", "lag", threading.get_ident() % 7)

    threads = [threading.Thread(target=work) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=5)
    merged = recorder.totals()["boundary"]
    assert merged.counts["bytes"] == 40
    assert 0 <= merged.peaks["lag"] <= 6


def test_kept_spans_carry_parent_ids_only_while_keep_is_on():
    recorder = Recorder()
    child = recorder.wrap("child", lambda: None)
    parent = recorder.wrap("parent", child)
    parent()                      # keep off: aggregated, not retained
    recorder.set_keep(True)
    parent()
    recorder.set_keep(False)
    spans = recorder.kept_spans()
    assert [span["name"] for span in spans] == ["parent", "child"]
    assert spans[1]["parent"] == spans[0]["id"]
    assert spans[0]["parent"] is None
    assert recorder.totals()["parent"].calls == 2


def test_pool_tasks_become_children_of_the_submitting_span():
    recorder = Recorder()
    undo = propagate_spans_into_pools(recorder)
    try:
        shard_call = recorder.wrap("rpc", lambda: time.sleep(0.02))
        with ThreadPoolExecutor(max_workers=2) as pool:
            def fan_out():
                futures = [pool.submit(shard_call) for _ in range(2)]
                for future in futures:
                    future.result(timeout=5)
            recorder.wrap("fanout", fan_out)()
    finally:
        undo()
    totals = recorder.totals()
    assert totals["rpc"].under["fanout"] == pytest.approx(totals["rpc"].busy)
    # The two shard calls overlap, so they cover the parent once, not twice.
    assert totals["fanout"].self_s < totals["fanout"].busy
    assert totals["fanout"].self_s >= 0.0
    assert totals["fanout"].counts["fanouts"] == 1
    assert totals["fanout"].counts["slowest_s"] <= totals["fanout"].busy
    assert ThreadPoolExecutor.submit.__name__ == "submit"


class _Target:
    """A stand-in with every kind of attribute a proxy must forward."""

    CONSTANT = "alarms"

    def __init__(self):
        self.store = object()
        self.counter = 0
        self.items = [3, 1, 2]

    def timed(self, x):
        self.counter += 1
        return x * 2

    def untimed(self, x):
        return x + 1

    @property
    def computed(self):
        return self.counter * 10

    def __len__(self):
        return len(self.items)

    def __iter__(self):
        return iter(self.items)


def test_proxy_forwards_every_attribute_unchanged():
    recorder = Recorder()
    target = _Target()
    proxy = TimingProxy(target, {"timed": recorder.wrap("t", target.timed)})
    for name in dir(target):
        if name.startswith("__") or name == "timed":
            continue
        assert getattr(proxy, name) == getattr(target, name), name
    assert proxy.store is target.store
    assert proxy.CONSTANT == "alarms"
    assert proxy.timed(4) == 8 and proxy.untimed(4) == 5
    assert proxy.computed == 10 == target.computed
    assert len(proxy) == 3 and list(proxy) == [3, 1, 2] and bool(proxy)
    assert recorder.totals()["t"].calls == 1


def test_proxy_forwards_writes_and_missing_attributes():
    target = _Target()
    proxy = TimingProxy(target, {})
    proxy.counter = 5
    assert target.counter == 5
    assert not hasattr(proxy, "insert_group")
    with pytest.raises(AttributeError):
        proxy.no_such_attribute


def test_patch_attribute_replaces_restores_and_reports_missing():
    class Owner:
        def method(self):
            return "original"

        @staticmethod
        def helper():
            return "static"

    undo = patch_attribute(Owner, "method", lambda fn: lambda self: "patched")
    assert Owner().method() == "patched"
    undo()
    assert Owner().method() == "original"
    undo = patch_attribute(Owner, "helper", lambda fn: lambda: fn() + "+")
    assert Owner.helper() == "static+" and Owner().helper() == "static+"
    undo()
    assert Owner.helper() == "static"
    assert patch_attribute(Owner, "renamed_away", lambda fn: fn) is None
