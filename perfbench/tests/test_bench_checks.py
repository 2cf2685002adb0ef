"""Per-op output checks count a wrong output as a failed op."""

import dataclasses

import pytest

import run
import workloads
from fibercode import decoders


@pytest.fixture(scope="module")
def paper(tmp_path_factory):
    workload = workloads.DecodePaper(tmp_path_factory.mktemp("root"), seed=1)
    workload.setup()
    return workload


def test_corrupted_correction_is_a_failed_op(paper, monkeypatch):
    original = decoders.decode_erasure_x

    def corrupted(*args, **kwargs):
        result = original(*args, **kwargs)
        return dataclasses.replace(result, correction=result.correction.flip(0))

    monkeypatch.setattr(decoders, "decode_erasure_x", corrupted)
    paper.jobs = workloads.trial_jobs(paper.built.config, paper.seed)
    # One round of the ten bench points; four of them are erasure points.
    durations, errors = run.closed_loop(paper, None, count=10)
    assert len(durations) == 10
    assert len(errors) == 4
    assert all("erasure correction does not reproduce the syndrome" in e for e in errors)


def test_row_differing_from_the_reference_is_a_failed_op(paper):
    trial = workloads.run_trial(paper.built, next(paper.jobs))
    row = trial.row
    key = (row["error_model"], str(row["point"]), str(row["trial"]))
    reference = {key: {k: str(row[k]) for k in workloads.REFERENCE_FIELDS}}
    assert workloads.check_trial(trial, paper.syndrome_maps, reference) is None
    reference[key]["steps"] = str(row["steps"] + 1)
    assert "differs from the reference" in workloads.check_trial(
        trial, paper.syndrome_maps, reference
    )


def test_raising_op_is_a_failed_op(paper, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("decoder exploded")

    monkeypatch.setattr(decoders, "decode_x", broken)
    paper.jobs = workloads.trial_jobs(paper.built.config, paper.seed)
    durations, errors = run.closed_loop(paper, None, count=1)
    assert len(durations) == 1
    assert errors == ["op raised RuntimeError('decoder exploded')"]
