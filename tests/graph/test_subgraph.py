"""Unit tests for subgraph extraction."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import PartitionError
from repro.graph import extract_subgraph, partition_subgraphs


class TestExtract:
    def test_triangle_pair(self, triangle):
        sub = extract_subgraph(triangle, np.array([0, 1]))
        assert sub.num_vertices == 2
        assert sub.graph.num_undirected_edges == 1
        # each kept vertex loses one arc to vertex 2
        assert sub.num_cut_arcs == 2
        assert sub.num_total_arcs == 4

    def test_mask_and_ids_agree(self, grid8x8):
        ids = np.arange(0, 32)
        mask = np.zeros(64, dtype=bool)
        mask[ids] = True
        a = extract_subgraph(grid8x8, ids)
        b = extract_subgraph(grid8x8, mask)
        assert a.graph == b.graph
        assert a.num_cut_arcs == b.num_cut_arcs

    def test_relabelling_maps_back(self, grid8x8):
        ids = np.array([9, 10, 17, 18])  # 2x2 block
        sub = extract_subgraph(grid8x8, ids)
        assert np.array_equal(sub.global_ids, ids)
        for local, g in enumerate(ids):
            assert sub.local_of[g] == local
        # block has 4 internal undirected edges
        assert sub.graph.num_undirected_edges == 4

    def test_degrees_conserved(self, powerlaw_small):
        members = np.arange(0, powerlaw_small.num_vertices, 2)
        sub = extract_subgraph(powerlaw_small, members)
        assert (
            sub.graph.num_edges + sub.num_cut_arcs == sub.num_total_arcs
        )
        assert sub.num_total_arcs == int(powerlaw_small.degrees[members].sum())

    def test_empty_membership(self, triangle):
        sub = extract_subgraph(triangle, np.array([], dtype=np.int64))
        assert sub.num_vertices == 0
        assert sub.num_total_arcs == 0

    def test_out_of_range_ids(self, triangle):
        with pytest.raises(PartitionError):
            extract_subgraph(triangle, np.array([5]))

    def test_unsorted_duplicate_ids_match_sorted_distinct(self, grid8x8):
        ids = np.array([18, 9, 17, 9, 10, 18, 18])
        sub = extract_subgraph(grid8x8, ids)
        ref = extract_subgraph(grid8x8, np.array([9, 10, 17, 18]))
        assert np.array_equal(sub.global_ids, [9, 10, 17, 18])
        assert np.array_equal(sub.local_of, ref.local_of)
        assert sub.graph == ref.graph
        assert sub.num_cut_arcs == ref.num_cut_arcs
        assert sub.num_total_arcs == ref.num_total_arcs

    @pytest.mark.parametrize("bad", [64, -1])
    def test_out_of_range_among_valid_ids(self, grid8x8, bad):
        with pytest.raises(PartitionError):
            extract_subgraph(grid8x8, np.array([3, bad, 3, 1]))

    def test_bad_mask_length(self, triangle):
        with pytest.raises(PartitionError):
            extract_subgraph(triangle, np.zeros(2, dtype=bool))


class TestPartitionSubgraphs:
    def test_parts_cover_graph(self, powerlaw_small):
        n = powerlaw_small.num_vertices
        parts = np.arange(n) % 4
        subs = partition_subgraphs(powerlaw_small, parts, 4)
        assert sum(s.num_vertices for s in subs) == n
        # every arc is either internal to exactly one part or cut twice
        internal = sum(s.graph.num_edges for s in subs)
        cut = sum(s.num_cut_arcs for s in subs)
        assert internal + cut == powerlaw_small.num_edges

    def test_wrong_length(self, triangle):
        with pytest.raises(PartitionError):
            partition_subgraphs(triangle, np.array([0, 1]), 2)
