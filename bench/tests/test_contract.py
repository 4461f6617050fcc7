"""BENCHMARK.json names exactly the metrics and workloads the code fixes."""

import json
import re
from pathlib import Path

from bench.metrics import END_TO_END, PER_LAYER
from bench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _contract():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_keys_command_and_paths():
    doc = _contract()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert doc["command"] == ["python3", "-m", "bench.run"]
    assert doc["paths"] == ["bench"]
    assert isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60


def test_workloads_match_the_code():
    doc = _contract()
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == \
        [(w.name, w.why) for w in WORKLOADS.values()]
    assert 2 <= len(doc["workloads"]) <= 8
    for workload in doc["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]


def test_metrics_match_the_tables():
    doc = _contract()
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in doc["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"], m["better"])
            for m in doc["per_layer"]] == PER_LAYER
    assert 1 <= len(END_TO_END) <= 16 and 1 <= len(PER_LAYER) <= 128
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in doc["end_to_end"])}]


def test_names_units_and_bounds_are_within_the_limits():
    doc = _contract()
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]] + \
        [w["name"] for w in doc["workloads"]]
    assert len(names) == len(set(names))
    for metric in doc["end_to_end"] + doc["per_layer"]:
        assert NAME.match(metric["name"]), metric["name"]
        assert UNIT.match(metric["unit"]), metric["unit"]
        assert metric["better"] in ("lower", "higher")
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    assert (ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024
