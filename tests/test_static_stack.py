"""One static-analysis stack: a plan that is both linted and verified is
analysed once, and every peak-memory bound maps the cluster configuration
to the predictor the same way."""

from __future__ import annotations

import importlib
import sys

import numpy as np
import pytest

import repro.verify
from repro import ClusterConfig, DMacSession
from repro.programs.gnmf import build_gnmf_program
from repro.runtime.graph import StageGraph
from repro.serve.plancache import plan_for_cache


def _gnmf(rows: int, cols: int, factors: int, iterations: int):
    program = build_gnmf_program(
        (rows, cols), 1.0, factors=factors, iterations=iterations
    )
    inputs = {"V": np.random.default_rng(0).random((rows, cols))}
    return program, inputs


def _count_calls(monkeypatch, module: str, name: str) -> list[int]:
    """Wrap ``module.name`` everywhere ``repro`` bound it; the returned
    one-element list holds the call count."""
    original = getattr(importlib.import_module(module), name)
    calls = [0]

    def counting(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    for loaded_name, loaded in list(sys.modules.items()):
        if loaded is None or not loaded_name.startswith("repro"):
            continue
        for attr, value in list(vars(loaded).items()):
            if value is original:
                monkeypatch.setattr(loaded, attr, counting)
    return calls


class TestCheckedPlanIsAnalysedOnce:
    def test_lint_and_verify_share_one_analysis(self, monkeypatch):
        program, inputs = _gnmf(256, 128, 8, 2)
        session = DMacSession(ClusterConfig(), lint="error", verify="error")
        plan = session.plan(program)

        graphs = [0]
        from_plan = StageGraph.__dict__["from_plan"].__func__

        def counting_from_plan(cls, plan):
            graphs[0] += 1
            return from_plan(cls, plan)

        monkeypatch.setattr(StageGraph, "from_plan", classmethod(counting_from_plan))
        hazards = _count_calls(monkeypatch, "repro.verify.hazards", "find_hazards")
        summaries = _count_calls(monkeypatch, "repro.verify.certify", "value_summary")
        analyses = _count_calls(monkeypatch, "repro.verify.analysis", "analyse_plan")

        session.run(program, inputs, plan=plan)

        assert graphs[0] <= 2  # one for the checks, one for the executor
        assert hazards[0] == 1
        assert summaries[0] == 1
        assert analyses[0] == 2  # the checks' and the executor's bound
        assert "repro.lint.facts" not in sys.modules
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.lint.facts")


class TestStrassenPeakBound:
    def test_admission_and_session_verify_match_the_executor(self, monkeypatch):
        config = ClusterConfig(
            num_workers=2,
            threads_per_worker=2,
            block_size=32,
            strassen=True,
            strassen_min_size=16,
        )
        program, inputs = _gnmf(128, 64, 32, 1)
        reports = []
        verify_plan = repro.verify.verify_plan

        def recording(*args, **kwargs):
            reports.append(verify_plan(*args, **kwargs))
            return reports[-1]

        monkeypatch.setattr(repro.verify, "verify_plan", recording)
        session = DMacSession(config, verify="error")
        admitted = plan_for_cache(session, program).predicted_peak_bytes
        result = session.run(program, inputs)

        executed = result.predicted_peak_memory_bytes
        assert len(reports) == 1
        assert reports[0].memory.peak_bytes == executed
        assert admitted == executed
