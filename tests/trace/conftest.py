"""Shared workloads for the trace suite: all seven paper applications,
scaled down to run in a few hundred milliseconds each."""

from __future__ import annotations

import numpy as np
import pytest

from repro import ClusterConfig, DMacSession
from repro.datasets import graph_like, netflix_like, row_normalize, sparse_random
from repro.programs import (
    build_cf_program,
    build_gnmf_program,
    build_jacobi_program,
    build_linreg_program,
    build_logreg_program,
    build_pagerank_program,
    build_svd_program,
    split_system,
)


def seven_apps():
    """``(name, program, inputs)`` for every app of the equivalence suite."""
    out = []
    gnmf_data = netflix_like(scale=1e-3, seed=3)
    out.append((
        "gnmf",
        build_gnmf_program(gnmf_data.shape, 0.02, factors=4, iterations=2),
        {"V": gnmf_data},
    ))
    link = row_normalize(graph_like("soc-pokec", scale=1e-3, seed=4))
    out.append((
        "pagerank",
        build_pagerank_program(link.shape[0], 0.05, iterations=2),
        {"link": link},
    ))
    design = sparse_random(120, 12, 0.1, seed=5)
    target = sparse_random(120, 1, 1.0, seed=6)
    out.append((
        "linreg",
        build_linreg_program(design.shape, 0.1, iterations=2),
        {"V": design, "y": target},
    ))
    rng = np.random.default_rng(7)
    labels = (rng.random((120, 1)) > 0.5).astype(float)
    out.append((
        "logreg",
        build_logreg_program(design.shape, 0.1, iterations=2),
        {"V": design, "y": labels},
    ))
    n = 48
    matrix = rng.random((n, n)) * (rng.random((n, n)) < 0.3)
    np.fill_diagonal(matrix, np.abs(matrix).sum(axis=1) + 1.0)
    remainder, dinv, rhs = split_system(matrix, rng.random((n, 1)))
    out.append((
        "jacobi",
        build_jacobi_program(n, 0.3, iterations=2),
        {"R": remainder, "dinv": dinv, "b": rhs},
    ))
    ratings = netflix_like(scale=1e-3, seed=8).T
    out.append(("cf", build_cf_program(ratings.shape, 0.02), {"R": ratings}))
    svd_data = netflix_like(scale=1e-3, seed=9)
    svd_program, __ = build_svd_program(svd_data.shape, 0.02, rank=3)
    out.append(("svd", svd_program, {"V": svd_data}))
    return out


@pytest.fixture
def traced_session():
    """A session on 4 workers with L=2 modelled threads each and 8x8
    blocks, so traces hold many block-task spans per stage."""
    return DMacSession(
        ClusterConfig(num_workers=4, threads_per_worker=2, block_size=8)
    )
