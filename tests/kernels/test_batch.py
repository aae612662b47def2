"""Unit tests for the batched BLAS dispatch layer (repro.kernels.batch)."""

from dataclasses import dataclass

import numpy as np
import pytest

from repro.kernels.batch import (
    BATCH_MAX_DIM,
    BATCH_MIN_TASKS,
    GridProductPlan,
    StackBufferCache,
    plan_grid_product,
    stacked_matmul,
)


@dataclass(frozen=True)
class FakeBlock:
    """The minimal _BlockLike the planner inspects."""

    shape: tuple
    sparse: bool = False

    @property
    def is_sparse(self):
        return self.sparse


def grid(rows, cols, shape, sparse_at=()):
    return {
        (i, j): FakeBlock(shape, sparse=(i, j) in sparse_at)
        for i in range(rows)
        for j in range(cols)
    }


class TestPlanGridProduct:
    def test_regular_product_plans(self):
        plan = plan_grid_product(grid(2, 3, (8, 4)), grid(3, 2, (4, 8)))
        assert plan == GridProductPlan((0, 1), (0, 1, 2), (0, 1), 8, 4, 8)
        assert plan.tasks == 4
        assert plan.pairs == 12
        assert plan.flops_per_task == 2 * 8 * 4 * 8 * 3

    def test_inner_is_ascending_intersection(self):
        a = {(0, k): FakeBlock((4, 4)) for k in (5, 1, 3)}
        a.update({(1, k): FakeBlock((4, 4)) for k in (5, 1, 3)})
        b = {(k, j): FakeBlock((4, 4)) for k in (3, 1, 5) for j in (0, 1)}
        plan = plan_grid_product(a, b)
        assert plan is not None and plan.inner == (1, 3, 5)

    def test_empty_grid_is_unplanned(self):
        assert plan_grid_product({}, grid(2, 2, (4, 4))) is None
        assert plan_grid_product(grid(2, 2, (4, 4)), {}) is None

    def test_partial_grid_is_unplanned(self):
        a = grid(2, 2, (4, 4))
        del a[(1, 0)]
        assert plan_grid_product(a, grid(2, 2, (4, 4))) is None

    def test_sparse_block_is_unplanned(self):
        a = grid(2, 2, (4, 4), sparse_at={(1, 1)})
        assert plan_grid_product(a, grid(2, 2, (4, 4))) is None

    def test_ragged_shapes_are_unplanned(self):
        a = grid(2, 2, (4, 4))
        a[(1, 1)] = FakeBlock((4, 3))
        assert plan_grid_product(a, grid(2, 2, (4, 4))) is None

    def test_oversized_blocks_are_unplanned(self):
        big = (BATCH_MAX_DIM + 1, BATCH_MAX_DIM + 1)
        assert plan_grid_product(grid(2, 2, big), grid(2, 2, big)) is None
        assert plan_grid_product(grid(2, 2, big), grid(2, 2, big),
                                 max_dim=BATCH_MAX_DIM + 1) is not None

    def test_disjoint_inner_indices_are_unplanned(self):
        a = {(0, 0): FakeBlock((4, 4)), (1, 0): FakeBlock((4, 4))}
        b = {(7, 0): FakeBlock((4, 4)), (7, 1): FakeBlock((4, 4))}
        assert plan_grid_product(a, b) is None

    def test_narrow_stages_are_unplanned(self):
        """A block dot product (1x1 result over many inner levels) has no
        parallel width -- the measured losing shape the gate excludes."""
        assert BATCH_MIN_TASKS == 4
        assert plan_grid_product(grid(1, 8, (4, 4)), grid(8, 1, (4, 4))) is None
        assert plan_grid_product(grid(1, 2, (4, 4)), grid(2, 2, (4, 4))) is None
        assert plan_grid_product(grid(2, 2, (4, 4)), grid(2, 2, (4, 4))) is not None
        assert plan_grid_product(grid(1, 8, (4, 4)), grid(8, 1, (4, 4)),
                                 min_tasks=1) is not None


class TestStackBufferCache:
    def test_checkout_shape_and_capacity(self):
        cache = StackBufferCache()
        buffer = cache.checkout(5, (8, 4))
        assert buffer.shape == (5, 8, 4) and buffer.dtype == np.float64

    def test_checkin_then_checkout_reuses(self):
        cache = StackBufferCache()
        buffer = cache.checkout(5, (8, 4))
        cache.checkin(buffer)
        assert cache.checkout(3, (8, 4)) is buffer

    def test_concurrent_checkouts_are_distinct(self):
        cache = StackBufferCache()
        assert cache.checkout(2, (4, 4)) is not cache.checkout(2, (4, 4))

    def test_too_small_idle_buffer_is_not_reused(self):
        cache = StackBufferCache()
        cache.checkin(cache.checkout(2, (4, 4)))
        grown = cache.checkout(9, (4, 4))
        assert grown.shape[0] >= 9

    def test_reuse_is_keyed_by_slice_shape(self):
        cache = StackBufferCache()
        buffer = cache.checkout(4, (8, 4))
        cache.checkin(buffer)
        assert cache.checkout(4, (4, 8)) is not buffer


class TestStackedMatmul:
    def test_bitwise_matches_individual_products(self):
        rng = np.random.default_rng(3)
        lefts = [rng.standard_normal((5, 7)) for _ in range(9)]
        rights = [rng.standard_normal((7, 3)) for _ in range(9)]
        out = stacked_matmul(lefts, rights)
        assert out.shape == (9, 5, 3)
        for index in range(9):
            assert out[index].tobytes() == (lefts[index] @ rights[index]).tobytes()

    def test_rejects_mismatched_counts(self):
        a = np.ones((2, 2))
        with pytest.raises(ValueError, match="pairwise"):
            stacked_matmul([a, a], [a])

    def test_rejects_empty_batch(self):
        with pytest.raises(ValueError, match="at least one"):
            stacked_matmul([], [])

