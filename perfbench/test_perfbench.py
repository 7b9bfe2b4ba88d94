"""Tests of the benchmark's own code.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from bench import BenchResult, Run, Setup, central, run_workload
from tracing import TARGETS, Tracer, _resolve
from workloads import WORKLOADS, reference_spec_text, spec_text

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_spec_text_is_a_function_of_the_seed(workload, tmp_path):
    assert spec_text(workload, 3, tmp_path) == spec_text(workload, 3, tmp_path)
    assert spec_text(workload, 3, tmp_path) != spec_text(workload, 4, tmp_path)
    other_suite = spec_text(workload, 3, tmp_path, suite_seed=5)
    assert other_suite != spec_text(workload, 3, tmp_path)
    assert json.loads(other_suite)["execution"] == json.loads(
        spec_text(workload, 3, tmp_path)
    )["execution"]


def test_reference_spec_is_serial(tmp_path):
    text = reference_spec_text(spec_text("queue-short", 1, tmp_path))
    assert json.loads(text)["execution"] == {"backend": "serial", "base_seed": 1}


def _fake_result() -> BenchResult:
    def run(traced):
        return Run(
            wall_s=2.0,
            first_record_s=1.0,
            cpu_s=2.0,
            attempted=4,
            records=[],
            traced=traced,
        )

    return BenchResult(
        runs=[run(False), run(True)],
        setups=[Setup(0, 0.001, 0.05, 1.0)],
        peak_rss_mb=100.0,
        tracer=Tracer(),
    )


def test_metric_names_match_benchmark_json():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    result = _fake_result()
    end_to_end = set(result.end_to_end()) - {"failed_fraction"}
    assert {m["name"] for m in declared["end_to_end"]} == end_to_end
    assert {m["name"] for m in declared["per_layer"]} == set(result.per_layer())
    assert {w["name"] for w in declared["workloads"]} == set(WORKLOADS)
    for name in [*result.end_to_end(), *result.per_layer(), *WORKLOADS]:
        assert NAME.fullmatch(name), name


def test_end_to_end_times_are_at_the_reference_host_speed():
    result = _fake_result()
    for run in result.runs:
        run.host = 2.0
    result.setups = [Setup(0, 0.01, 0.05, 2.0)]
    metrics = result.end_to_end()
    assert metrics["episodes_per_s"][0] == pytest.approx(4.0)
    assert metrics["first_record_s"][0] == pytest.approx(0.5)
    assert metrics["cpu_s_per_episode"][0] == pytest.approx(0.25)
    assert metrics["setup_s"][0] == pytest.approx(0.03)
    assert result.per_layer()["spec.build_s"][0] == pytest.approx(0.05)


def test_setup_s_is_the_mean_of_each_suites_median():
    result = _fake_result()
    result.setups = [
        Setup(0, 0.0, 0.1, 1.0),
        Setup(0, 0.0, 0.2, 1.0),
        Setup(0, 0.0, 0.9, 1.0),
        Setup(1, 0.0, 0.4, 1.0),
    ]
    assert result.end_to_end()["setup_s"][0] == pytest.approx(0.3)


def test_central_drops_the_outer_quarters():
    assert central([3.0]) == 3.0
    assert central([1.0, 2.0]) == 1.5
    assert central([1.0, 2.0, 9.0]) == 2.0
    assert central([1.0, 2.0, 4.0, 50.0]) == 3.0
    assert central([9.0, 1.0, 2.0, 3.0, 50.0]) == pytest.approx(14.0 / 3.0)


def test_tracer_restores_original_attributes():
    owners = [(_resolve(path), attr) for path, attr, _ in TARGETS]
    before = [owner.__dict__[attr] for owner, attr in owners]
    tracer = Tracer().install()
    try:
        assert all(
            owner.__dict__[attr] is not original
            for (owner, attr), original in zip(owners, before)
        )
    finally:
        tracer.restore()
    assert all(
        owner.__dict__[attr] is original
        for (owner, attr), original in zip(owners, before)
    )


class _Inner:
    def work(self):
        return sum(range(20000))


class _Outer:
    def work(self):
        return _Inner().work() + _Inner().work()


def test_self_time_excludes_nested_spans():
    tracer = Tracer(
        targets=(
            (f"{__name__}:_Outer", "work", "outer"),
            (f"{__name__}:_Inner", "work", "inner"),
        )
    )
    tracer.install()
    try:
        _Outer().work()
    finally:
        tracer.restore()
    assert tracer.calls == {"outer": 1, "inner": 2}
    total = tracer.total_s["outer"]
    assert tracer.self_s["outer"] == pytest.approx(total - tracer.total_s["inner"])
    assert tracer.main_self_s == pytest.approx(total)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_reproduces_the_serial_records(workload, tmp_path):
    result = run_workload(workload, 0, 0.0, True, tmp_path, scenarios=1)
    assert result.end_to_end()["failed_fraction"][0] == 0.0
    layers = result.per_layer()
    assert layers["trace.overhead"][0] > 0
    if workload == "queue-short":
        assert layers["broker.requests"][0] > 0
    else:
        assert layers["episode.frames"][0] > 0
        assert layers["trace.coverage"][0] > 0.5


def test_a_record_differing_from_the_reference_counts_as_failed(monkeypatch, tmp_path):
    import bench

    real = bench.reference_records

    def tampered(text):
        records = real(text)
        records[0]["frames"] += 1
        return records

    monkeypatch.setattr(bench, "reference_records", tampered)
    result = run_workload("queue-short", 0, 0.0, False, tmp_path, scenarios=1)
    assert result.failed == len(result.runs)
    assert result.end_to_end()["failed_fraction"][0] == 0.5
