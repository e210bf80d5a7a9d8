"""Gemini ledgers against the pinned golden records.

``tests/golden/gemini_ledger.json`` holds, per case, the values hash,
simulated makespan, message total, per-iteration modes and iteration
count of PageRank(6) and ConnectedComponents in every execution mode,
with and without mirror aggregation, on a dense and a multi-shard graph
(see :mod:`tests.golden.gemini_ledger`). Any change to the superstep
census that moves one of those numbers shows up here.
"""

from __future__ import annotations

import json

import pytest

from tests.golden import gemini_ledger


def test_sharded_case_walks_several_blocks(tmp_path):
    graph = gemini_ledger.sharded_graph(tmp_path / "g")
    assert sum(1 for _ in graph.iter_blocks()) > 1


def test_ledgers_match_golden_byte_for_byte(tmp_path):
    recs = gemini_ledger.build_records(tmp_path)
    golden_text = gemini_ledger.GOLDEN_PATH.read_text()
    golden = json.loads(golden_text)["cases"]
    assert [r["case"] for r in recs] == [g["case"] for g in golden]
    for rec, gold in zip(recs, golden):
        assert rec == gold, rec["case"]
    assert gemini_ledger.render(recs) == golden_text


def test_writer_requires_regenerate_flag():
    with pytest.raises(SystemExit) as exc:
        gemini_ledger.main([])
    assert exc.value.code == 2
