"""Serial-vs-concurrent bit-parity for the Gemini engine's supersteps.

``GeminiEngine.run`` keeps its census bitmap per run and memoises the
cut-arc and mirror structures on the (shared, immutable) assignment. So
several engines running at once in threads over one fresh assignment —
racing to build that memo — must each produce exactly the values,
ledger, message counts, mode decisions and iteration count of a lone
serial run.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.cluster import BSPCluster
from repro.engines.gemini import ConnectedComponents, GeminiEngine, PageRank
from repro.graph import chung_lu
from repro.partition import HashPartitioner


@pytest.fixture(scope="module")
def graph():
    return chung_lu(600, 9.0, 2.2, rng=13)


def _assignment(graph):
    # A fresh assignment per call, so its derived cache starts empty.
    return HashPartitioner(seed=2).partition(graph, 4).assignment


def _run(graph, assignment, make_program, *, mode="adaptive"):
    engine = GeminiEngine(BSPCluster(4), mode=mode)
    return engine.run(graph, assignment, make_program())


def _run_concurrently(graph, make_program, *, jobs, mode="adaptive"):
    """``jobs`` threads run the program at once over one shared assignment."""
    assignment = _assignment(graph)
    start = threading.Barrier(jobs)

    def task(_):
        start.wait(timeout=30)
        return _run(graph, assignment, make_program, mode=mode)

    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(task, range(jobs)))


def _assert_identical(base, par):
    np.testing.assert_array_equal(base.values, par.values)
    assert base.ledger.total_runtime == par.ledger.total_runtime
    assert base.total_messages == par.total_messages
    assert base.modes == par.modes
    assert base.iterations == par.iterations


@pytest.mark.parametrize("jobs", [2, 4])
@pytest.mark.parametrize("mode", ["push", "adaptive", "pull"])
def test_pagerank_ledger_parity(graph, jobs, mode):
    make = lambda: PageRank(iterations=6)  # noqa: E731
    base = _run(graph, _assignment(graph), make, mode=mode)
    results = _run_concurrently(graph, make, jobs=jobs, mode=mode)
    assert len(results) == jobs
    for par in results:
        _assert_identical(base, par)


@pytest.mark.parametrize("jobs", [2, 4])
def test_cc_ledger_parity(graph, jobs):
    base = _run(graph, _assignment(graph), ConnectedComponents)
    results = _run_concurrently(graph, ConnectedComponents, jobs=jobs)
    assert len(results) == jobs
    for par in results:
        _assert_identical(base, par)
