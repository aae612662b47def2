import contextvars
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from perfbench.tracing import (
    Boundary,
    Span,
    SpanRecorder,
    busy_by_name,
    install,
    self_times,
    uncovered,
    union_length,
)


def span(id, name, start, end, parent=None, thread=1, unit=1):
    return Span(id, name, start, end, parent, thread, unit)


def test_union_length_merges_overlaps_and_clips():
    assert union_length([], 0.0, 10.0) == 0.0
    assert union_length([(1, 3), (2, 5), (7, 8)], 0, 10) == 5
    assert union_length([(1, 3), (3, 4)], 0, 10) == 3
    assert union_length([(-5, 2), (9, 20)], 0, 10) == 3
    assert union_length([(11, 12)], 0, 10) == 0


def test_self_time_of_nested_spans():
    spans = [
        span(1, "runtime", 0.0, 10.0),
        span(2, "engine", 1.0, 7.0, parent=1),
        span(3, "block", 2.0, 4.0, parent=2),
        span(4, "block", 5.0, 6.0, parent=2),
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(4.0)  # 10 - engine's 6
    assert own[2] == pytest.approx(3.0)  # 6 - blocks' 2 + 1
    assert own[3] == pytest.approx(2.0)
    assert own[4] == pytest.approx(1.0)
    # Self times partition the root span's time.
    assert sum(own.values()) == pytest.approx(10.0)


def test_overlapping_children_on_two_threads():
    """Children running side by side cover the parent once, and count as
    busy thread-seconds each."""
    spans = [
        span(1, "engine", 0.0, 10.0, thread=1),
        span(2, "block", 1.0, 6.0, parent=1, thread=2),
        span(3, "block", 4.0, 9.0, parent=1, thread=3),
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(2.0)  # covered 1..9
    busy = busy_by_name(spans)
    assert busy == {"engine": pytest.approx(2.0), "block": pytest.approx(10.0)}


def test_children_are_clipped_to_the_parent():
    spans = [span(1, "a", 2.0, 4.0), span(2, "b", 1.0, 3.0, parent=1)]
    assert self_times(spans)[1] == pytest.approx(1.0)


def test_uncovered_counts_only_top_level_spans_on_the_thread():
    spans = [
        span(1, "plan", 1.0, 3.0, thread=7),
        span(2, "child", 2.0, 5.0, parent=1, thread=7),
        span(3, "execute", 4.0, 6.0, thread=7),
        span(4, "elsewhere", 0.0, 10.0, thread=8),
    ]
    assert uncovered(spans, 0.0, 10.0, thread=7) == pytest.approx(6.0)


def test_recorder_links_parents_across_copied_contexts():
    recorder = SpanRecorder()
    unit = recorder.begin_unit()

    def leaf(x):
        return x * 2

    wrapped_leaf = recorder.wrap(leaf, "leaf", counter=lambda r, x: [("leaves", 1)])

    def parent():
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [
                pool.submit(contextvars.copy_context().run, wrapped_leaf, i)
                for i in range(4)
            ]
            return [f.result() for f in futures]

    assert recorder.wrap(parent, "parent")() == [0, 2, 4, 6]
    spans = recorder.unit_spans(unit)
    (top,) = [s for s in spans if s.name == "parent"]
    leaves = [s for s in spans if s.name == "leaf"]
    assert len(leaves) == 4
    assert all(s.parent == top.id for s in leaves)
    assert top.parent is None and top.thread == threading.get_ident()
    assert recorder.counts[unit]["leaves"] == 4


def test_recorder_names_spans_from_arguments_and_records_raising_calls():
    recorder = SpanRecorder()
    recorder.begin_unit()

    def boom(kind):
        raise ValueError(kind)

    wrapped = recorder.wrap(boom, lambda kind: f"op.{kind}")
    with pytest.raises(ValueError):
        wrapped("ds")
    assert [s.name for s in recorder.spans] == ["op.ds"]


def test_install_patches_every_binding_and_restores_them():
    import repro.blocks
    import repro.blocks.conversion as conversion
    import repro.matrix.distributed as distributed
    from repro.localexec.engine import LocalEngine
    from repro.matrix.distributed import DistributedMatrix

    original_split = conversion.split
    original_matmul = LocalEngine.__dict__["matmul_grids"]
    original_from_numpy = DistributedMatrix.__dict__["from_numpy"]
    recorder = SpanRecorder()
    table = [
        Boundary("blocks.split", "repro.blocks.conversion", "split"),
        Boundary("localexec.matmul", "repro.localexec.engine", "LocalEngine.matmul_grids"),
        Boundary("matrix.from_numpy", "repro.matrix.distributed", "DistributedMatrix.from_numpy"),
    ]
    with install(recorder, table):
        # A from-import binding is patched too: the caller's own name.
        assert distributed.split is not original_split
        assert repro.blocks.split is distributed.split
        assert isinstance(DistributedMatrix.__dict__["from_numpy"], classmethod)
        assert LocalEngine.__dict__["matmul_grids"] is not original_matmul
    assert conversion.split is original_split
    assert distributed.split is original_split
    assert repro.blocks.split is original_split
    assert LocalEngine.__dict__["matmul_grids"] is original_matmul
    assert DistributedMatrix.__dict__["from_numpy"] is original_from_numpy
