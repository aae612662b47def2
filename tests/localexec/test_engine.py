"""Tests for the per-worker local engine (In-Place vs Buffer, Section 5.3)."""

import numpy as np
import pytest

from repro.blocks import assemble, split
from repro.errors import BlockError, MemoryLimitExceeded
from repro.localexec.engine import LocalEngine
from tests.conftest import random_sparse


def make_grids(rng, m=20, k=16, n=12, block=5, density=1.0):
    a = random_sparse(rng, m, k, density) if density < 1 else rng.random((m, k))
    b = rng.random((k, n))
    return a, b, split(a, block), split(b, block)


class TestMatmulGrids:
    @pytest.mark.parametrize("inplace", [True, False])
    @pytest.mark.parametrize("threads", [1, 4])
    def test_correctness(self, rng, inplace, threads):
        a, b, ga, gb = make_grids(rng)
        engine = LocalEngine(threads=threads, inplace=inplace)
        gc = engine.matmul_grids(ga, gb)
        np.testing.assert_allclose(assemble(gc, (20, 12), 5), a @ b, atol=1e-9)

    def test_inplace_equals_buffer(self, rng):
        a, b, ga, gb = make_grids(rng, density=0.3)
        inplace = LocalEngine(inplace=True).matmul_grids(ga, gb)
        buffer = LocalEngine(inplace=False).matmul_grids(ga, gb)
        for key in inplace:
            np.testing.assert_allclose(
                inplace[key].to_numpy(), buffer[key].to_numpy(), atol=1e-9
            )

    def test_inplace_peak_memory_not_above_buffer(self, rng):
        __, __, ga, gb = make_grids(rng, m=40, k=40, n=40, block=5)
        peaks = {}
        for inplace in (True, False):
            engine = LocalEngine(inplace=inplace)
            engine.register_grid(ga)
            engine.register_grid(gb)
            engine.matmul_grids(ga, gb)
            peaks[inplace] = engine.tracker.peak_bytes
        assert peaks[True] < peaks[False]

    @pytest.mark.parametrize("m, n", [(40, 40), (5, 10)])
    def test_inplace_peak_charges_one_partial_per_thread(self, rng, m, n):
        """In-Place holds one transient partial per modelled thread, so the
        peak is inputs + results + min(L, tasks) partials."""
        __, __, ga, gb = make_grids(rng, m=m, k=40, n=n, block=5)
        engine = LocalEngine(threads=4, inplace=True, batched_matmul=False)
        engine.register_grid(ga)
        engine.register_grid(gb)
        gc = engine.matmul_grids(ga, gb)
        inputs = sum(b.model_nbytes for g in (ga, gb) for b in g.values())
        results = sum(b.model_nbytes for b in gc.values())
        partial = gc[0, 0].model_nbytes
        assert engine.tracker.peak_bytes == (
            inputs + results + min(4, len(gc)) * partial
        )

    def test_memory_limit_stops_buffer_mode(self, rng):
        """Reproduces the paper's 'Buffer cannot run Wikipedia' failure mode."""
        __, __, ga, gb = make_grids(rng, m=40, k=40, n=40, block=5)
        limit_probe = LocalEngine(inplace=True)
        limit_probe.matmul_grids(ga, gb)
        limit = limit_probe.tracker.peak_bytes + 100
        # In-Place fits within the limit...
        LocalEngine(inplace=True, memory_limit_bytes=limit).matmul_grids(ga, gb)
        # ...Buffer does not.
        with pytest.raises(MemoryLimitExceeded):
            LocalEngine(inplace=False, memory_limit_bytes=limit).matmul_grids(ga, gb)

    def test_flops_recorded(self, rng):
        __, __, ga, gb = make_grids(rng)
        engine = LocalEngine()
        engine.matmul_grids(ga, gb)
        assert engine.stats.flops > 0
        assert engine.stats.tasks > 0

    def test_sparse_flops_classified(self, rng):
        a, b, __, gb = make_grids(rng)
        ga = split(random_sparse(rng, 20, 16, 0.1), 5, storage="sparse")
        engine = LocalEngine()
        engine.matmul_grids(ga, gb)
        assert engine.stats.sparse_flops > 0

    def test_rejects_zero_threads(self):
        with pytest.raises(BlockError):
            LocalEngine(threads=0)


class TestOtherGridOps:
    def test_cellwise_ops(self, rng):
        a, b = rng.random((12, 10)), rng.random((12, 10)) + 0.5
        ga, gb = split(a, 4), split(b, 4)
        engine = LocalEngine(threads=2)
        for op, expected in [
            ("add", a + b),
            ("subtract", a - b),
            ("multiply", a * b),
            ("divide", a / b),
        ]:
            out = engine.cellwise_grids(op, ga, gb)
            np.testing.assert_allclose(assemble(out, (12, 10), 4), expected)

    def test_cellwise_add_union_of_keys(self, rng):
        a = rng.random((8, 8))
        ga = split(a, 4)
        gb = dict(ga)
        del gb[(0, 0)]  # missing block treated as zero
        out = LocalEngine().cellwise_grids("add", ga, gb)
        expected = a * 2
        expected[:4, :4] = a[:4, :4]
        np.testing.assert_allclose(assemble(out, (8, 8), 4), expected)

    def test_cellwise_multiply_intersection_of_keys(self, rng):
        a = rng.random((8, 8))
        ga = split(a, 4)
        gb = dict(ga)
        del gb[(0, 0)]
        out = LocalEngine().cellwise_grids("multiply", ga, gb)
        assert (0, 0) not in out

    def test_cellwise_divide_requires_denominator(self, rng):
        ga = split(rng.random((8, 8)), 4)
        gb = dict(ga)
        del gb[(0, 0)]
        with pytest.raises(BlockError):
            LocalEngine().cellwise_grids("divide", ga, gb)

    def test_cellwise_subtract_missing_left_negates(self, rng):
        a = rng.random((4, 4))
        out = LocalEngine().cellwise_grids("subtract", {}, split(a, 4))
        np.testing.assert_allclose(assemble(out, (4, 4), 4), -a)

    def test_scalar_grids(self, rng):
        a = rng.random((8, 6))
        out = LocalEngine().scalar_grids("multiply", split(a, 4), 2.5)
        np.testing.assert_allclose(assemble(out, (8, 6), 4), a * 2.5)

    def test_transpose_grid(self, rng):
        a = rng.random((8, 6))
        out = LocalEngine(threads=2).transpose_grid(split(a, 4))
        np.testing.assert_allclose(assemble(out, (6, 8), 4), a.T)

    def test_sum_and_sq_sum(self, rng):
        a = rng.random((8, 6))
        engine = LocalEngine()
        grid = split(a, 4)
        assert engine.sum_grid(grid) == pytest.approx(a.sum())
        assert engine.sq_sum_grid(grid) == pytest.approx((a * a).sum())

    def test_unknown_cellwise_op(self, rng):
        ga = split(rng.random((4, 4)), 4)
        with pytest.raises(BlockError):
            LocalEngine().cellwise_grids("xor", ga, ga)

    def test_register_release_roundtrip(self, rng):
        grid = split(rng.random((8, 8)), 4)
        engine = LocalEngine()
        engine.register_grid(grid)
        before = engine.tracker.current_bytes
        assert before > 0
        engine.release_grid(grid)
        assert engine.tracker.current_bytes == 0
