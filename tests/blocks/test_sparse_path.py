"""Byte-identity and memory checks for the sparse block path.

``matmul(Dense, CSC)`` walks the CSC columns one depth level at a time and
``split`` builds every CSC block of a block-row band from one pass.  Both
must reproduce, bit for bit, the formulations they replaced; those live on
here as oracles.
"""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.blocks import ops
from repro.blocks.conversion import DEFAULT_SPARSE_THRESHOLD, split
from repro.blocks.dense import DenseBlock
from repro.blocks.sparse import CSCBlock

with np.errstate(invalid="ignore"):
    #: The NaN that invalid operations (``inf * 0``) produce on this platform.
    #: Using it for input NaNs keeps every NaN in a product bitwise equal, so
    #: results compare with ``tobytes()`` whatever loop numpy picks.
    DEFAULT_NAN = float(np.float64(np.inf) * 0.0)

SPECIALS = (DEFAULT_NAN, np.inf, -np.inf, -0.0, 0.0)


# ---------------------------------------------------------------------------
# Oracles: the formulations the sparse path replaced
# ---------------------------------------------------------------------------


def transpose_matmul(a: DenseBlock, b: CSCBlock) -> DenseBlock:
    """``A @ B == (B^T @ A^T)^T`` through the sparse-times-dense kernel."""
    product = ops._sparse_dense_matmul(b.transpose(), a.transpose())
    return product.transpose()


def wrap(piece: np.ndarray, storage: str) -> DenseBlock | CSCBlock:
    if storage == "dense":
        return DenseBlock(piece)
    if storage == "sparse":
        return CSCBlock.from_dense(piece)
    size = piece.size
    density = np.count_nonzero(piece) / size if size else 0.0
    if density < DEFAULT_SPARSE_THRESHOLD:
        return CSCBlock.from_dense(piece)
    return DenseBlock(piece)


def per_block_split(array: np.ndarray, block_size: int, storage: str) -> dict:
    rows, cols = array.shape
    return {
        (bi, bj): wrap(
            array[bi * block_size:(bi + 1) * block_size, bj * block_size:(bj + 1) * block_size],
            storage,
        )
        for bi in range(-(-rows // block_size))
        for bj in range(-(-cols // block_size))
    }


def assert_same_grid(grid: dict, expected: dict) -> None:
    assert list(grid) == list(expected)
    for key, block in grid.items():
        want = expected[key]
        assert type(block) is type(want), key
        assert block.shape == want.shape, key
        if isinstance(block, DenseBlock):
            assert block.data.tobytes() == want.data.tobytes(), key
            continue
        for got, ref in ((block.values, want.values), (block.row_idx, want.row_idx),
                         (block.colptr, want.colptr)):
            assert got.dtype == ref.dtype, key
            assert got.tobytes() == ref.tobytes(), key


# ---------------------------------------------------------------------------
# Dense x CSC kernel
# ---------------------------------------------------------------------------

element = st.one_of(
    st.floats(min_value=-8, max_value=8, allow_nan=False, width=64),
    st.sampled_from(SPECIALS),
)


@st.composite
def dense_times_csc(draw, stored=element, dense=element):
    """A dense ``m x k`` block and a ``k x n`` CSC block built straight from
    its arrays, so stored values may be NaN, inf, -0.0 or explicit zeros."""
    k = draw(st.integers(1, 9))
    n = draw(st.integers(1, 9))
    m = draw(st.sampled_from([1, k, draw(st.integers(2, 9))]))
    rows, colptr = [], [0]
    for _ in range(n):
        kind = draw(st.sampled_from(["empty", "single", "full", "some"]))
        if kind == "empty":
            picked = []
        elif kind == "single":
            picked = [draw(st.integers(0, k - 1))]
        elif kind == "full":
            picked = list(range(k))
        else:
            picked = sorted(draw(st.sets(st.integers(0, k - 1), max_size=k)))
        rows.extend(picked)
        colptr.append(len(rows))
    values = draw(arrays(np.float64, len(rows), elements=stored))
    a = draw(arrays(np.float64, (m, k), elements=dense))
    return DenseBlock(a), CSCBlock((k, n), values, np.array(rows, dtype=np.int32), colptr)


@settings(max_examples=300)
@given(dense_times_csc())
def test_dense_csc_matmul_is_byte_identical(operands):
    a, b = operands
    with np.errstate(all="ignore"):
        got = ops.matmul(a, b)
        want = transpose_matmul(a, b)
    assert got.shape == want.shape
    assert got.data.tobytes() == want.data.tobytes()


@settings(max_examples=100)
@given(dense_times_csc(
    stored=st.sampled_from([np.nan, np.inf, -np.inf, -0.0, 0.0, 1.5, -2.0]),
    dense=st.sampled_from([np.nan, np.inf, -np.inf, -0.0, 0.0, 1.5, -2.0]),
))
def test_dense_csc_matmul_with_mixed_nans(operands):
    # ``np.nan`` and the NaN of ``inf * 0`` may differ in sign: where two
    # of them meet, numpy's loops pick the survivor.  Everything else --
    # NaN positions, infinities, signed zeros -- is still bitwise equal.
    a, b = operands
    with np.errstate(all="ignore"):
        got = ops.matmul(a, b).data
        want = transpose_matmul(a, b).data
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


def test_dense_csc_matmul_leaves_operands_untouched():
    a = DenseBlock(np.arange(6.0).reshape(2, 3))
    b = CSCBlock((3, 2), [0.0, 2.0, -1.0], [0, 2, 1], [0, 2, 3])
    a_before, b_before = a.data.copy(), b.copy()
    ops.matmul(a, b)
    assert np.array_equal(a.data, a_before)
    assert b == b_before


def test_explicit_zero_meets_infinity_like_the_transpose():
    # The stored zero is dropped, as the transpose drops it: 0 * inf never
    # turns the result into NaN.
    a = DenseBlock(np.array([[np.inf, 1.0]]))
    b = CSCBlock((2, 1), [0.0, 3.0], [0, 1], [0, 2])
    assert ops.matmul(a, b).data.tolist() == [[3.0]]


# ---------------------------------------------------------------------------
# One-pass split
# ---------------------------------------------------------------------------

split_element = st.one_of(
    st.just(0.0),
    st.floats(width=64),  # any float: NaNs of every payload, inf, -0.0
)


@settings(max_examples=200)
@given(
    arrays(np.float64, st.tuples(st.integers(0, 14), st.integers(0, 14)),
           elements=split_element),
    st.integers(1, 16),
    st.sampled_from(["auto", "sparse", "dense"]),
)
def test_split_is_byte_identical_to_per_block_conversion(array, block_size, storage):
    grid = split(array, block_size, storage)
    assert_same_grid(grid, per_block_split(array, block_size, storage))
    for block in grid.values():
        if isinstance(block, CSCBlock):
            assert not np.shares_memory(block.values, array)


@pytest.mark.parametrize("storage", ["auto", "sparse", "dense"])
@pytest.mark.parametrize("shape", [(0, 0), (0, 5), (5, 0)])
def test_split_of_an_empty_array_is_an_empty_grid(shape, storage):
    assert split(np.zeros(shape), 3, storage) == {}


@pytest.mark.parametrize("storage", ["auto", "sparse", "dense"])
@pytest.mark.parametrize("block_size", [1, 4, 7, 50])
def test_split_edges_match_per_block_conversion(rng, block_size, storage):
    array = rng.standard_normal((23, 17)) * (rng.random((23, 17)) < 0.2)
    array[3, 4], array[9, 0], array[22, 16] = np.inf, np.nan, -np.inf
    array[5, 5] = -0.0
    array[7, 2] = np.array(0x7FF0000000000001, dtype=np.uint64).view(np.float64)  # signalling NaN
    with np.errstate(invalid="ignore"):  # the signalling NaN is quietened
        assert_same_grid(split(array, block_size, storage),
                         per_block_split(array, block_size, storage))


def test_block_at_exactly_the_threshold_stays_dense():
    array = np.zeros((10, 20))
    array[:3, :10] = 1.0  # left block: 30 of 100 entries, exactly 0.3
    array[0, 10:19] = 1.0  # right block: 9 of 100 entries
    assert np.count_nonzero(array[:, :10]) / 100 == DEFAULT_SPARSE_THRESHOLD
    grid = split(array, 10)
    assert isinstance(grid[(0, 0)], DenseBlock)
    assert isinstance(grid[(0, 1)], CSCBlock)


def test_csc_blocks_of_a_grid_share_no_memory(rng):
    array = rng.standard_normal((40, 36)) * (rng.random((40, 36)) < 0.15)
    grid = split(array, 6, "sparse")
    parts = [part for block in grid.values()
             for part in (block.values, block.row_idx, block.colptr)]
    for x, y in itertools.combinations(parts, 2):
        assert not np.shares_memory(x, y)
    # Each array owns its buffer: a cached block never pins a band's
    # coordinate arrays.
    assert all(part.base is None for part in parts)


@pytest.mark.parametrize("density, bound", [(1.0, 1.25), (0.01, 0.35)])
def test_split_peak_memory(density, bound):
    rng = np.random.default_rng(0)
    array = rng.random((1024, 1024))
    if density < 1.0:
        array *= rng.random(array.shape) < density
    tracemalloc.start()
    try:
        grid = split(array, 32)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(grid) == 32 * 32
    assert peak <= bound * array.nbytes, peak / array.nbytes
