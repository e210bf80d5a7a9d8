"""Golden Gemini ledgers: the cases, the record format, and the writer.

Every case runs one vertex program through :class:`GeminiEngine` and
records what a rewrite of the engine must not change: a SHA-256 of the
final vertex values, the ledger's simulated makespan, the message total,
the per-iteration modes and the iteration count. The cases cover
PageRank(6) and ConnectedComponents in push, pull and adaptive mode with
mirror aggregation on and off, on one dense Chung–Lu graph and on one
sharded graph whose ``iter_blocks`` yields several blocks.

``tests/engines/test_gemini_golden.py`` compares the rendered records
with ``gemini_ledger.json`` byte for byte. Rewrite the file only when a
change to the engine's cost model is intended::

    PYTHONPATH=src python -m tests.golden.gemini_ledger --regenerate
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from repro.cluster import BSPCluster
from repro.engines.gemini import ConnectedComponents, GeminiEngine, PageRank
from repro.graph import ShardedCSRBuilder, chung_lu
from repro.partition import HashPartitioner

GOLDEN_PATH = Path(__file__).with_name("gemini_ledger.json")
MACHINES = 4
PROGRAMS = {"pagerank6": lambda: PageRank(iterations=6), "cc": ConnectedComponents}
MODES = ("push", "pull", "adaptive")


def dense_graph():
    return chung_lu(600, 9.0, 2.2, rng=13)


def sharded_graph(directory):
    """A 900-vertex graph in 128-vertex shards (eight blocks)."""
    src, dst = chung_lu(900, 7.0, 2.3, rng=29).edge_array()
    builder = ShardedCSRBuilder(directory, num_vertices=900, shard_size=128)
    for lo in range(0, src.size, 1000):
        builder.add_edges(src[lo : lo + 1000], dst[lo : lo + 1000])
    return builder.finalize()


def records(graphs: dict) -> list[dict]:
    """Run every case over ``graphs`` (name → graph) in a fixed order."""
    out = []
    for graph_name, graph in graphs.items():
        assignment = HashPartitioner(seed=2).partition(graph, MACHINES).assignment
        for program_name, make_program in PROGRAMS.items():
            for mode in MODES:
                for aggregate in (True, False):
                    engine = GeminiEngine(
                        BSPCluster(MACHINES), mode=mode, aggregate_messages=aggregate
                    )
                    res = engine.run(graph, assignment, make_program())
                    values = np.ascontiguousarray(res.values)
                    out.append(
                        {
                            "case": f"{graph_name}/{program_name}/{mode}/"
                            f"{'agg' if aggregate else 'noagg'}",
                            "values_sha256": hashlib.sha256(
                                values.dtype.str.encode() + values.tobytes()
                            ).hexdigest(),
                            "total_runtime": res.ledger.total_runtime,
                            "total_messages": int(res.total_messages),
                            "modes": list(res.modes),
                            "iterations": int(res.iterations),
                        }
                    )
    return out


def render(recs: list[dict]) -> str:
    """Canonical JSON text: sorted keys, one case per line."""
    lines = ",\n".join(json.dumps(r, sort_keys=True) for r in recs)
    return '{"cases": [\n' + lines + "\n]}\n"


def build_records(scratch_dir) -> list[dict]:
    return records(
        {"dense": dense_graph(), "sharded": sharded_graph(Path(scratch_dir) / "g")}
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--regenerate",
        action="store_true",
        help="overwrite gemini_ledger.json with the current engine's records",
    )
    args = parser.parse_args(argv)
    if not args.regenerate:
        parser.error("refusing to rewrite the golden file without --regenerate")
    with tempfile.TemporaryDirectory() as tmp:
        recs = build_records(tmp)
    GOLDEN_PATH.write_text(render(recs))
    print(f"wrote {GOLDEN_PATH} ({len(recs)} cases)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
