"""Tiny-size runs of every workload through the same code paths as a real
run, plus the failure paths of the correctness gate."""

import json
import pathlib
import shutil
import subprocess
import sys

import numpy as np
import pytest

from perfbench import boundaries, measure, workloads

ROOT = pathlib.Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def test_benchmark_json_names_the_workloads_and_metrics():
    assert NAMES == list(workloads.WORKLOADS)
    assert [m["name"] for m in SPEC["per_layer"]] == list(boundaries.PER_LAYER)
    assert set(boundaries.EXPECTED_SPANS) == set(NAMES)


@pytest.mark.parametrize("name", NAMES)
def test_tiny_untraced_run(name):
    runner = measure.prepare(name, seed=3, tiny=True)
    outcome = measure.untraced(runner, seconds=0.01, measure_setup=lambda n: [0.5] * n)
    assert outcome.tally.problems == []
    assert outcome.tally.correct and outcome.tally.attempted >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: unit for k, (_, unit) in outcome.metrics.items()} == expected
    assert all(value > 0 for value, _ in outcome.metrics.values())


@pytest.mark.parametrize("name", NAMES)
def test_tiny_traced_run_passes_the_boundary_self_check(name):
    runner = measure.prepare(name, seed=3, tiny=True)
    outcome = measure.traced(runner, seconds=0.01)
    assert outcome.tally.problems == []
    assert outcome.tally.correct
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: unit for k, (_, unit) in outcome.metrics.items()} == expected
    for span_name in boundaries.EXPECTED_SPANS[name]:
        key = f"{span_name}_s"
        assert outcome.metrics[key][0] > 0, key


def test_gate_fails_a_unit_with_a_wrong_output_or_moved_books():
    runner = measure.prepare("gnmf-dense", seed=1, tiny=True)
    result, _, _, problems = runner.unit()
    assert problems == []
    key = next(iter(result.outputs))
    result.outputs[key] = result.outputs[key] * (1 + 1e-6)
    result.books = dict(result.books, **{"gnmf/comm_bytes": -1})
    problems = workloads.check_unit(
        runner.workload, result, runner.expected, runner.first_books
    )
    assert any("numpy reference" in p for p in problems)
    assert any("books differ" in p for p in problems)


def test_gate_fails_a_wrong_optimum():
    runner = measure.prepare("greedy-gap", seed=1, tiny=True)
    result, _, _, problems = runner.unit()
    assert problems == []
    result.books["cf/optimal"] += 1
    problems = workloads.check_unit(runner.workload, result, runner.expected, None)
    assert problems == ["cf: exhaustive optimum 52429 != 52428"]


def test_a_raising_unit_counts_as_failed(monkeypatch):
    runner = measure.prepare("greedy-gap", seed=1, tiny=True)

    def broken(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(workloads, "run_unit", broken)
    outcome = measure.untraced(runner, seconds=0.01, measure_setup=lambda n: [0.5] * n)
    assert outcome.tally.failed == outcome.tally.attempted >= 1
    assert outcome.metrics["pass_ratio"][0] == 0.0
    assert not outcome.tally.correct


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gnmf-dense",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_declared_inputs_follow_shape_and_sparsity():
    program = workloads.GREEDY_GAP_BUILDERS["gram"]()
    inputs = workloads.declared_inputs(program, np.random.default_rng(0))
    (a,) = inputs.values()
    assert a.shape == (512, 16)
    assert 0.15 < np.count_nonzero(a) / a.size < 0.25


def test_setup_is_sampled_before_and_after_the_units():
    runner = measure.prepare("greedy-gap", seed=1, tiny=True)
    calls = []

    def fake_setup(n):
        calls.append((n, runner.tally.attempted))
        return [0.25] * n

    outcome = measure.untraced(runner, seconds=0.01, measure_setup=fake_setup)
    assert calls == [(4, 0), (4, outcome.tally.attempted)]
    assert outcome.metrics["setup_s"][0] == 0.25
