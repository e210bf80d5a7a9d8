"""Unit tests for the Gemini-like engine and its vertex programs."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.cluster import BSPCluster
from repro.engines.gemini import (
    BFS,
    SSSP,
    ConnectedComponents,
    DegreeCentrality,
    GeminiEngine,
    PageRank,
    neighbor_min,
    neighbor_sum,
)
from repro.errors import SimulationError
from repro.graph import chung_lu, from_edges, path_graph, ring_graph
from repro.graph.convert import to_networkx
from repro.partition import HashPartitioner, PartitionAssignment


def make_assignment(g, k=4, seed=0):
    return HashPartitioner(seed=seed).partition(g, k).assignment


class TestGatherPrimitives:
    def test_neighbor_sum_ring(self, ring64):
        values = np.arange(64, dtype=float)
        s = neighbor_sum(ring64, values)
        # neighbours of v are v±1 mod 64
        expected = np.array([(v - 1) % 64 + (v + 1) % 64 for v in range(64)], dtype=float)
        assert np.allclose(s, expected)

    def test_neighbor_sum_isolated_default(self, isolated_vertices):
        s = neighbor_sum(isolated_vertices, np.ones(6), default=-7.0)
        assert s[5] == -7.0

    def test_neighbor_min(self, path10):
        values = np.arange(10, dtype=float)
        m = neighbor_min(path10, values)
        assert m[0] == 1  # only neighbour is 1
        assert m[5] == 4  # min(4, 6)

    def test_neighbor_min_empty_graph(self):
        g = from_edges([], [], num_vertices=3)
        m = neighbor_min(g, np.ones(3), default=np.inf)
        assert np.isinf(m).all()


class TestPageRank:
    def test_matches_networkx(self, powerlaw_small):
        a = make_assignment(powerlaw_small)
        engine = GeminiEngine(BSPCluster(4))
        res = engine.run(powerlaw_small, a, PageRank(iterations=80))
        nx_pr = nx.pagerank(to_networkx(powerlaw_small), alpha=0.85, max_iter=200, tol=1e-12)
        err = max(abs(res.values[v] - nx_pr[v]) for v in range(powerlaw_small.num_vertices))
        assert err < 1e-6

    def test_mass_conserved(self, powerlaw_small):
        a = make_assignment(powerlaw_small)
        res = GeminiEngine(BSPCluster(4)).run(powerlaw_small, a, PageRank(iterations=10))
        assert res.values.sum() == pytest.approx(1.0)

    def test_runs_exactly_n_iterations(self, ring64):
        a = make_assignment(ring64)
        res = GeminiEngine(BSPCluster(4)).run(ring64, a, PageRank(iterations=7))
        assert res.iterations == 7
        assert res.ledger.num_iterations == 7

    def test_result_independent_of_partition(self, powerlaw_small):
        p1 = make_assignment(powerlaw_small, seed=0)
        p2 = make_assignment(powerlaw_small, seed=9)
        r1 = GeminiEngine(BSPCluster(4)).run(powerlaw_small, p1, PageRank(10))
        r2 = GeminiEngine(BSPCluster(4)).run(powerlaw_small, p2, PageRank(10))
        assert np.allclose(r1.values, r2.values)

    def test_dangling_vertices(self, isolated_vertices):
        a = make_assignment(isolated_vertices, k=2)
        res = GeminiEngine(BSPCluster(2)).run(isolated_vertices, a, PageRank(30))
        assert res.values.sum() == pytest.approx(1.0)
        assert (res.values > 0).all()


class TestConnectedComponents:
    def test_labels_match_networkx(self, two_components):
        a = make_assignment(two_components, k=2)
        res = GeminiEngine(BSPCluster(2)).run(two_components, a, ConnectedComponents())
        comps = {}
        for v, label in enumerate(res.values):
            comps.setdefault(label, set()).add(v)
        expected = {frozenset(c) for c in nx.connected_components(to_networkx(two_components))}
        assert {frozenset(s) for s in comps.values()} == expected

    def test_label_is_component_minimum(self, two_components):
        a = make_assignment(two_components, k=2)
        res = GeminiEngine(BSPCluster(2)).run(two_components, a, ConnectedComponents())
        assert res.values[0] == 0 and res.values[3] == 3

    def test_converges_in_diameter_iterations(self, path10):
        a = make_assignment(path10, k=2)
        res = GeminiEngine(BSPCluster(2)).run(path10, a, ConnectedComponents())
        assert res.iterations <= 11


class TestBFSAndSSSP:
    def test_bfs_matches_networkx(self, powerlaw_small):
        a = make_assignment(powerlaw_small)
        res = GeminiEngine(BSPCluster(4)).run(powerlaw_small, a, BFS(source=0))
        lengths = nx.single_source_shortest_path_length(to_networkx(powerlaw_small), 0)
        for v in range(powerlaw_small.num_vertices):
            if v in lengths:
                assert res.values[v] == lengths[v]
            else:
                assert np.isinf(res.values[v])

    def test_unit_sssp_equals_bfs(self, powerlaw_small):
        a = make_assignment(powerlaw_small)
        eng = GeminiEngine(BSPCluster(4))
        bfs = eng.run(powerlaw_small, a, BFS(source=3)).values
        sssp = eng.run(powerlaw_small, a, SSSP(source=3)).values
        assert np.array_equal(bfs, sssp)

    def test_weighted_sssp(self):
        # path 0-1-2 with weights 1 and 10
        g = path_graph(3)
        # indices order: v0:[1], v1:[0,2], v2:[1]
        weights = np.array([1.0, 1.0, 10.0, 10.0])
        a = make_assignment(g, k=2)
        res = GeminiEngine(BSPCluster(2)).run(g, a, SSSP(source=0, weights=weights))
        assert res.values[2] == pytest.approx(11.0)

    def test_source_out_of_range(self, ring64):
        a = make_assignment(ring64)
        with pytest.raises(ValueError):
            GeminiEngine(BSPCluster(4)).run(ring64, a, BFS(source=100))

    def test_negative_weights_rejected(self, path10):
        a = make_assignment(path10, k=2)
        with pytest.raises(ValueError):
            GeminiEngine(BSPCluster(2)).run(
                path10, a, SSSP(source=0, weights=-np.ones(path10.num_edges))
            )


class TestDegreeCentrality:
    def test_single_iteration(self, ring64):
        a = make_assignment(ring64)
        res = GeminiEngine(BSPCluster(4)).run(ring64, a, DegreeCentrality())
        assert res.iterations == 1
        assert np.allclose(res.values, 2 / 63)


class TestEngineAccounting:
    def test_cluster_size_mismatch(self, ring64):
        a = make_assignment(ring64, k=4)
        with pytest.raises(SimulationError):
            GeminiEngine(BSPCluster(8)).run(ring64, a, PageRank(2))

    def test_messages_zero_on_single_part(self, powerlaw_small):
        a = HashPartitioner().partition(powerlaw_small, 1).assignment
        res = GeminiEngine(BSPCluster(1)).run(powerlaw_small, a, PageRank(3))
        assert res.total_messages == 0

    def test_aggregation_reduces_messages(self, powerlaw_small):
        a = make_assignment(powerlaw_small)
        agg = GeminiEngine(BSPCluster(4), aggregate_messages=True).run(
            powerlaw_small, a, PageRank(3)
        )
        raw = GeminiEngine(BSPCluster(4), aggregate_messages=False).run(
            powerlaw_small, a, PageRank(3)
        )
        assert agg.total_messages < raw.total_messages

    def test_raw_messages_equal_active_cut_arcs(self, powerlaw_small):
        from repro.partition.metrics import edge_cut_ratio

        a = make_assignment(powerlaw_small)
        res = GeminiEngine(BSPCluster(4), aggregate_messages=False).run(
            powerlaw_small, a, PageRank(1)
        )
        cut_arcs = round(
            edge_cut_ratio(powerlaw_small, a.parts) * powerlaw_small.num_edges
        )
        assert res.total_messages == cut_arcs

    def test_compute_proportional_to_local_edges(self, powerlaw_small):
        a = make_assignment(powerlaw_small)
        res = GeminiEngine(BSPCluster(4)).run(powerlaw_small, a, PageRank(1))
        compute = res.ledger.compute_matrix[0]
        edges_per_m = np.bincount(a.parts, weights=powerlaw_small.degrees, minlength=4)
        # same cost model across machines → compute ∝ local work
        ratio = compute / (
            edges_per_m * BSPCluster(4).cost_model.edge_cost / BSPCluster(4).cost_model.cores
            + np.bincount(a.parts, minlength=4)
            * BSPCluster(4).cost_model.vertex_cost
            / BSPCluster(4).cost_model.cores
        )
        assert np.allclose(ratio, 1.0)

    def test_aggregated_messages_count_distinct_machine_vertex_pairs(self, powerlaw_small):
        a = make_assignment(powerlaw_small)
        res = GeminiEngine(BSPCluster(4), mode="push").run(powerlaw_small, a, PageRank(1))
        src, dst = powerlaw_small.edge_array()
        pairs = {
            (int(a.parts[u]), int(v))
            for u, v in zip(src, dst)
            if a.parts[u] != a.parts[v]
        }
        assert res.total_messages == len(pairs)

    def test_census_never_calls_numpy_unique(self, powerlaw_small, monkeypatch):
        # Guard against the hash-based np.unique path returning to the
        # per-superstep census: the bitmap dedup needs no unique call.
        a = make_assignment(powerlaw_small)
        expected = GeminiEngine(BSPCluster(4), mode="push").run(
            powerlaw_small, make_assignment(powerlaw_small), PageRank(4)
        )

        def _forbidden(*args, **kwargs):
            raise AssertionError("np.unique called during a Gemini run")

        monkeypatch.setattr(np, "unique", _forbidden)
        res = GeminiEngine(BSPCluster(4), mode="push", aggregate_messages=True).run(
            powerlaw_small, a, PageRank(4)
        )
        assert res.iterations == 4
        assert res.total_messages == expected.total_messages
        assert res.ledger.total_runtime == expected.ledger.total_runtime
