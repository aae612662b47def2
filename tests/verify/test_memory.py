"""The liveness-based memory predictor against the real engines: on every
paper application the static bound must dominate the observed per-worker
tracker peak (soundness) and, under serial stage scheduling, stay within
2x of it (tightness) -- loose enough to be safe, tight enough to be a
budget you can actually provision against."""

import pytest

from repro import ClusterConfig, DMacSession
from repro.cli import APPS
from repro.verify import predict_peak_memory

from tests.verify._workloads import small_workload


def _run(app: str, max_concurrent_stages):
    program, inputs, __ = small_workload(app)
    config = ClusterConfig(
        num_workers=4, max_concurrent_stages=max_concurrent_stages
    )
    # A fresh session per run: tracker peaks accumulate per session.
    return DMacSession(config).run(program, inputs)


@pytest.mark.parametrize("app", APPS)
def test_serial_bound_is_sound_and_within_2x(app):
    result = _run(app, max_concurrent_stages=1)
    observed = result.peak_memory_bytes
    predicted = result.predicted_peak_memory_bytes
    assert predicted is not None
    assert observed <= predicted, (
        f"{app}: unsound -- observed {observed} above the bound {predicted}"
    )
    assert predicted <= 2 * observed, (
        f"{app}: bound too loose -- predicted {predicted} vs observed "
        f"{observed} ({predicted / observed:.2f}x)"
    )


@pytest.mark.parametrize("app", APPS)
def test_concurrent_bound_stays_sound(app):
    program, inputs, __ = small_workload(app)
    config = ClusterConfig(num_workers=4)
    # Under the default stage concurrency the bound covers *any* antichain
    # the modelled cluster could run together, so it is sound but
    # deliberately looser; only soundness is contractual for it.
    result = DMacSession(config).run(program, inputs)
    observed = result.peak_memory_bytes
    predicted = result.predicted_peak_memory_bytes
    assert predicted is not None
    assert observed <= predicted
    # Stage concurrency is modelled, not run: a fresh session realises
    # the same peak, and it stays within the serial bound.
    assert DMacSession(config).run(program, inputs).peak_memory_bytes == observed
    plan = DMacSession(config).plan(program)
    serial = predict_peak_memory(plan, num_workers=4, max_concurrent_stages=1)
    assert observed <= serial.serial_peak_bytes


def test_prediction_internals_are_ordered():
    program, __, ___ = small_workload("gnmf")
    plan = DMacSession(ClusterConfig(num_workers=4)).plan(program)
    serial = predict_peak_memory(plan, num_workers=4, max_concurrent_stages=1)
    concurrent = predict_peak_memory(plan, num_workers=4)
    assert serial.concurrency == 1
    assert serial.peak_bytes == serial.serial_peak_bytes
    assert concurrent.concurrency > 1
    assert concurrent.peak_bytes == concurrent.concurrent_peak_bytes
    # The concurrent bound only ever adds transients on top of the pins.
    assert concurrent.concurrent_peak_bytes >= serial.serial_peak_bytes
    assert serial.serial_peak_bytes >= serial.pinned_bytes
    assert serial.serial_peak_bytes >= serial.transient_peak_bytes
    assert len(serial.footprints) == len(plan.steps)


def test_buffer_strategy_predicts_no_less_than_inplace():
    program, __, ___ = small_workload("gnmf")
    plan = DMacSession(ClusterConfig(num_workers=4)).plan(program)
    inplace = predict_peak_memory(
        plan, num_workers=4, inplace=True, max_concurrent_stages=1
    )
    buffered = predict_peak_memory(
        plan, num_workers=4, inplace=False, max_concurrent_stages=1
    )
    assert buffered.serial_peak_bytes >= inplace.serial_peak_bytes


def test_json_dict_lists_the_heaviest_steps():
    program, __, ___ = small_workload("pagerank")
    plan = DMacSession(ClusterConfig(num_workers=4)).plan(program)
    prediction = predict_peak_memory(plan, num_workers=4)
    document = prediction.to_json_dict()
    heaviest = document["heaviest_steps"]
    assert heaviest, "pagerank has charging steps"
    weights = [entry["transient_bytes"] for entry in heaviest]
    assert weights == sorted(weights, reverse=True)
    assert weights[0] == prediction.transient_peak_bytes
