"""(generator, params, seed) -> alarms is a pure function."""

import dataclasses

import pytest

from bench.adapter import generate_inputs
from bench.workloads import WORKLOADS, idle_query_count, phase_counts

SECONDS = 0.5  # sizes scale with --seconds; determinism does not depend on it


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs_different_seed_different(name):
    workload = WORKLOADS[name]
    first = generate_inputs(workload, 11, SECONDS)
    again = generate_inputs(workload, 11, SECONDS)
    other = generate_inputs(workload, 12, SECONDS)
    assert first.digest() == again.digest()
    assert first.digest() != other.digest()


def test_counts_are_fixed_by_seconds_and_frozen_rates():
    workload = WORKLOADS["replicated"]
    sat, paced = phase_counts(workload, 15)
    assert (sat, paced) == (round(0.4 * 15 * workload.sat_rate),
                            round(0.5 * 15 * workload.paced_rate))
    # The operator's open loop takes the idle-query phase's share as well.
    mix = WORKLOADS["analytics_mix"]
    assert phase_counts(mix, 15)[1] == round(0.6 * 15 * mix.paced_rate)
    assert idle_query_count(15) == 40 and idle_query_count(0.1) == 10


def test_documents_carry_sequence_timeline_and_due_time():
    workload = WORKLOADS["durable"]
    inputs = generate_inputs(workload, 3, 2.0)
    originals = [d for d in inputs.sat + inputs.paced if "_redelivery" not in d]
    assert [d["_event_seq"] for d in originals] == list(range(inputs.unique))
    assert {d["_timeline_id"] for d in originals} == {"durable/3"}
    dues = [d["_due_s"] for d in inputs.paced if "_redelivery" not in d]
    assert dues == sorted(dues) and dues[0] == 0.0
    assert dues[1] == pytest.approx(1.0 / workload.paced_rate)
    assert all("_due_s" not in d for d in inputs.sat)


def test_redeliveries_reuse_the_uid_and_follow_the_original():
    inputs = generate_inputs(WORKLOADS["durable"], 3, 2.0)
    docs = inputs.sat + inputs.paced
    copies = [i for i, d in enumerate(docs) if "_redelivery" in d]
    assert copies, "5% of the durable workload's alarms are delivered twice"
    assert len(copies) == len(docs) - inputs.unique
    first_seen = {}
    for i, doc in enumerate(docs):
        first_seen.setdefault(doc["_event_seq"], i)
    for i in copies:
        assert first_seen[docs[i]["_event_seq"]] < i
    assert not any("_redelivery" in d for d in
                   generate_inputs(WORKLOADS["inmem"], 3, 0.2).sat)


def test_operator_mix_is_stratified_in_blocks_of_ten():
    inputs = generate_inputs(WORKLOADS["analytics_mix"], 5, SECONDS)
    for start in range(0, 40, 10):
        kinds = [kind for kind, _arg in inputs.queries[start:start + 10]]
        assert kinds.count("hourly_profile") == 7
        assert kinds.count("recent") == 2
        assert kinds.count("alarms_by_zip") == 1
    types = [arg for kind, arg in inputs.queries[:40] if kind == "alarms_by_zip"]
    assert sorted(types) == sorted(inputs.type_total)


def test_expected_counts_follow_from_the_documents():
    inputs = generate_inputs(WORKLOADS["inmem"], 9, SECONDS)
    assert sum(inputs.zip_counts.values()) == len(inputs.preload) + inputs.unique
    assert sum(inputs.device_total.values()) == len(inputs.preload) + inputs.unique
    assert sum(inputs.type_preload.values()) == len(inputs.preload)
    assert len(inputs.truth) == inputs.unique
    assert dataclasses.is_dataclass(inputs)
