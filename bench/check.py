"""Output check: run on every workload before any metric is printed.

The program's outputs are read back through its public query API and
compared with values computed from the generated inputs alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from bench.adapter import Inputs, Pipeline, uid_of
from bench.harness import Measurement

__all__ = ["CheckReport", "check_outputs"]


@dataclass
class CheckReport:
    """What the output check found."""

    #: One line per violated condition; empty means the outputs are correct.
    problems: list[str] = field(default_factory=list)
    #: Alarms without exactly one verification document, or with a stored
    #: outcome that differs from the offline one.
    failed_alarms: int = 0
    #: Stored ``is_false`` by ``_event_seq`` (None where nothing is stored).
    stored: list[bool | None] = field(default_factory=list)
    #: The recovery report of the durable workloads' crash-and-recover step.
    recovery: Any = None

    @property
    def correct(self) -> bool:
        return not self.problems


def _count_check(report: CheckReport, pipeline: Pipeline, inputs: Inputs,
                 when: str) -> None:
    verified = pipeline.raw_log.count()
    if verified != inputs.unique:
        report.problems.append(
            f"{when}: {verified} verification documents for "
            f"{inputs.unique} unique alarms")
    duplicates = pipeline.raw_log.duplicate_uids()
    if duplicates:
        report.problems.append(
            f"{when}: {len(duplicates)} alarm uids stored more than once")
    rows = len(pipeline.raw_history)
    expected = len(inputs.preload) + inputs.unique
    if rows != expected:
        report.problems.append(
            f"{when}: {rows} history rows, expected {expected}")


def check_outputs(pipeline: Pipeline, inputs: Inputs,
                  measurement: Measurement) -> CheckReport:
    """Compare what the pipeline stored with what the inputs dictate."""
    report = CheckReport()
    if measurement.errors:
        report.problems.extend(f"run error: {error}" for error in measurement.errors)
    if not pipeline.workers_alive():
        report.problems.append("a store worker process died")
        return report
    _count_check(report, pipeline, inputs, "after the run")

    # Streamed outcome per uid == one offline verify_batch over the inputs.
    unique_docs = [
        doc for doc in inputs.sat + inputs.paced if "_redelivery" not in doc
    ]
    offline = pipeline.verify_offline(unique_docs)
    stored = pipeline.stored_outcomes()
    for doc, expected in zip(unique_docs, offline):
        outcome = stored.get(uid_of(inputs.timeline_id, doc["_event_seq"]))
        report.stored.append(outcome)
        if outcome is None or outcome != expected:
            report.failed_alarms += 1
    if report.failed_alarms:
        report.problems.append(
            f"{report.failed_alarms} alarms unverified or verified "
            "differently from the offline model")

    by_zip = pipeline.raw_history.alarms_by_zip()
    if by_zip != inputs.zip_counts:
        report.problems.append("alarms_by_zip() differs from the inputs' counts")

    if pipeline.manager is not None:
        # Page-cache-loss crash: only fsynced bytes survive; no acked alarm
        # may be lost.
        report.recovery = pipeline.crash_and_recover()
        _count_check(report, pipeline, inputs, "after crash and recovery")
    return report
