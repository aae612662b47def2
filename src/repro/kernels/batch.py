"""Batched BLAS dispatch for same-shape block products.

The local engine's In-Place matmul folds one ``A[i,k] @ B[k,j]`` partial at
a time.  Block grids are uniform away from the matrix edges, so most of a
stage's partial products share a shape -- exactly the situation where
stacked ``np.matmul`` calls (batched dgemm dispatches) recover the hardware
throughput that per-block Python dispatch wastes (MLlib's experience,
PAPERS.md).

Byte-identity: ``np.matmul`` over stacked or broadcast 3-D/4-D operands
performs the same 2-D dgemm per slice as the plain 2-D call, so every
batched slice is bitwise equal to the corresponding individual product;
the engine then folds the per-``k`` product planes into the accumulator in
the serial path's canonical ascending-``k`` order with plain elementwise
adds, so results are byte-identical to the unbatched engine.

Two facts decide how batching must be shaped, both measured on this
runtime:

* Stacking operands once per *pair* is a loss: in a grid product each
  ``A[i,k]`` block appears in one pair per result column, so pairwise
  stacking copies every operand ``O(grid width)`` times -- which costs as
  much as the small dgemms it feeds.  :func:`plan_grid_product` instead
  recognises the full cross-product structure of an In-Place matmul stage,
  so each distinct block is copied into its stack exactly once and each
  ascending-``k`` level runs as one broadcast ``np.matmul``.
* Freshly allocated stacking buffers page-fault on first touch, which can
  cost several times the stacked matmul itself.  :class:`StackBufferCache`
  keeps warm buffers alive across stages (checkout/checkin, so two
  callers of one engine never share a live buffer).

Past :data:`BATCH_MAX_DIM` the per-block dgemm dominates both paths and
batching is noise, so the engine leaves such grids on the serial path.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, List, Mapping, Protocol, Sequence, Tuple

import numpy as np

Shape = Tuple[int, int]

#: Block coordinate within a grid: ``(block_row, block_col)``.
BlockKey = Tuple[int, int]

#: Largest block dimension worth batching: beyond this the per-pair dgemm
#: dwarfs the dispatch overhead batching removes.
BATCH_MAX_DIM = 64

#: Fewest result blocks worth batching.  Each ascending-``k`` level runs as
#: one gufunc call over ``tasks`` slices, so a near-degenerate stage (a
#: block dot product: one task, many levels) has no parallel width to
#: amortise the stacking copies and accumulator traffic -- measured ~0.8x.
#: From four tasks up the batched path measures at or above serial.
BATCH_MIN_TASKS = 4


class _BlockLike(Protocol):
    """The slice of the block interface the planner needs (duck-typed to
    keep :mod:`repro.kernels` import-free of :mod:`repro.blocks`)."""

    shape: Shape

    @property
    def is_sparse(self) -> bool: ...


@dataclass(frozen=True)
class GridProductPlan:
    """A batched execution plan for one In-Place matmul stage.

    The stage's ``MultiplyAccumulateTask``s form the full cross product
    ``{rows} x {cols}``, every task carrying one pair per inner index in
    ``inner`` (ascending -- the canonical accumulation order).  ``m``,
    ``k``, ``n`` are the uniform block dimensions.
    """

    rows: Tuple[int, ...]
    inner: Tuple[int, ...]
    cols: Tuple[int, ...]
    m: int
    k: int
    n: int

    @property
    def tasks(self) -> int:
        return len(self.rows) * len(self.cols)

    @property
    def pairs(self) -> int:
        return self.tasks * len(self.inner)

    @property
    def flops_per_task(self) -> int:
        return 2 * self.m * self.k * self.n * len(self.inner)


def plan_grid_product(
    a_grid: Mapping[BlockKey, _BlockLike],
    b_grid: Mapping[BlockKey, _BlockLike],
    *,
    max_dim: int = BATCH_MAX_DIM,
    min_tasks: int = BATCH_MIN_TASKS,
) -> GridProductPlan | None:
    """The :class:`GridProductPlan` for ``a_grid @ b_grid``, or ``None``.

    A plan exists when the product is a *regular* one -- both grids are
    full over their key ranges, every participating block is dense with
    one uniform shape per side, no dimension exceeds ``max_dim``, and the
    stage yields at least ``min_tasks`` result blocks (narrower stages
    lack the parallel width that pays for stacking).  Any irregularity
    (missing blocks, sparse operands, ragged edge blocks) returns ``None``
    and the engine falls back to the serial fold.
    """
    if not a_grid or not b_grid:
        return None
    rows = sorted({i for i, _ in a_grid})
    a_cols = sorted({k for _, k in a_grid})
    b_rows = sorted({k for k, _ in b_grid})
    cols = sorted({j for _, j in b_grid})
    # Full grids: every (row, col) coordinate within the key range present.
    if len(a_grid) != len(rows) * len(a_cols):
        return None
    if len(b_grid) != len(b_rows) * len(cols):
        return None
    inner = [k for k in a_cols if k in set(b_rows)]
    if not inner or len(rows) * len(cols) < min_tasks:
        return None
    a_blocks = [a_grid[i, k] for i in rows for k in inner]
    b_blocks = [b_grid[k, j] for k in inner for j in cols]
    if any(block.is_sparse for block in a_blocks + b_blocks):
        return None
    if len({block.shape for block in a_blocks}) != 1:
        return None
    if len({block.shape for block in b_blocks}) != 1:
        return None
    m, k = a_blocks[0].shape
    _, n = b_blocks[0].shape
    if max(m, k, n) > max_dim:
        return None
    return GridProductPlan(tuple(rows), tuple(inner), tuple(cols), m, k, n)


class StackBufferCache:
    """Warm, reusable stacking buffers with checkout/checkin semantics.

    ``checkout`` hands the caller exclusive base buffers; ``checkin``
    returns them for reuse once the caller no longer holds views into
    them.  Buffers are only ever reused after checkin, so two caller
    threads driving the same engine each get private buffers.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: slice shape -> idle base buffers, smallest capacity first
        self._idle: Dict[Tuple[int, ...], List[np.ndarray]] = {}

    def checkout(self, count: int, shape: Shape) -> np.ndarray:
        """An exclusive ``(>= count, *shape)`` float64 buffer."""
        with self._lock:
            stash = self._idle.get(shape, [])
            if stash and stash[-1].shape[0] >= count:
                return stash.pop()
        return np.empty((count,) + shape, dtype=np.float64)

    def checkin(self, *buffers: np.ndarray) -> None:
        """Return checked-out base buffers for later reuse."""
        with self._lock:
            for buffer in buffers:
                stash = self._idle.setdefault(buffer.shape[1:], [])
                stash.append(buffer)
                stash.sort(key=lambda b: b.shape[0])


def stacked_matmul(
    lefts: Sequence[np.ndarray], rights: Sequence[np.ndarray]
) -> np.ndarray:
    """One batched BLAS dispatch: ``out[i] = lefts[i] @ rights[i]``.

    All lefts must share a shape and all rights likewise.  Returns the
    stacked ``(batch, m, n)`` product array; each slice is bitwise equal
    to the corresponding individual 2-D product (the gufunc runs the same
    dgemm per slice), which is the contract the engine's byte-identity
    guarantee rests on.
    """
    if len(lefts) != len(rights):
        raise ValueError(
            f"stacked matmul needs pairwise operands, got {len(lefts)} lefts "
            f"and {len(rights)} rights"
        )
    if not lefts:
        raise ValueError("stacked matmul needs at least one pair")
    return np.matmul(np.asarray(lefts), np.asarray(rights))
