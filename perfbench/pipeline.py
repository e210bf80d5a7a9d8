"""Run one benchmark workload for a given time, in this (fresh) interpreter.

Started by ``run.py``; not meant to be run by hand. Usage::

    python3 perfbench/pipeline.py --workload NAME --seed N --seconds S --trace 0|1 --tmp DIR

A workload is a few seeded graph instances. Set-up samples each
instance's edges, builds it once and generates its query trace. Then
the pipeline runs in rounds until ``--seconds`` is used up: each round
rebuilds every instance (dense or through the sharded builder), runs
BPart, Gemini PageRank and KnightKing node2vec on a simulated
8-machine cluster, and serves the instance's trace. A stage's time in
a round is the sum over the instances, and each metric is the median
over the rounds after the first, which is warm-up. Summing over
instances evens out the seed-dependent part of the work (BPart's
combine takes one layer on some graphs and three on others); the
median over rounds, and scaling by a calibration timed in the same
rounds (see ``CAL_REF_S``), even out the host.

Layer functions are called directly, so the artifact cache never
replays a result. Every round must give the same outputs. Prints one
JSON record as the last line of standard output: end-to-end values,
per-layer values (``--trace 1`` only), output checks, digests and spans.
"""

from __future__ import annotations

import os
import sys
import time

T0 = time.perf_counter()

# Hermetic: no cache, telemetry, chaos, worker-pool or spill setting of the
# caller may reach the program. Cleared before ``repro`` is imported.
for _var in [k for k in os.environ if k.startswith("REPRO_")]:
    del os.environ[_var]

import argparse  # noqa: E402
import hashlib  # noqa: E402
import heapq  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from repro.bench.experiments.serving_availability import crash_drill_plan  # noqa: E402
from repro.cluster import BSPCluster  # noqa: E402
from repro.engines.gemini import GeminiEngine, PageRank  # noqa: E402
from repro.engines.knightking import Node2Vec, WalkEngine  # noqa: E402
from repro.graph.builder import from_edges  # noqa: E402
from repro.graph.datasets import DATASETS  # noqa: E402
from repro.graph.generators import social_edge_batches  # noqa: E402
from repro.graph.sharded import ShardedCSRBuilder  # noqa: E402
from repro.partition.assignment import PartitionAssignment  # noqa: E402
from repro.partition.bpart import BPartPartitioner, weighted_stream_partition  # noqa: E402
from repro.partition.combine import multi_layer_combine  # noqa: E402
from repro.partition.metrics import balance_report  # noqa: E402
from repro.resilience.chaos import active_plan, install_plan  # noqa: E402
from repro.serving import (  # noqa: E402
    ServingConfig,
    ServingSimulator,
    WorkloadSpec,
    plan_replicas,
)

from spans import Recorder, self_times  # noqa: E402

IMPORT_S = time.perf_counter() - T0

NUM_PARTS = 8
WALK_STEPS = 4
SLO_S = 0.05

# BPartPartitioner's defaults, spelled out for the traced run's own
# combine call; the traced assignment is checked bit for bit against the
# untraced BPartPartitioner one, so a drift here fails the run.
BPART_COMBINE = dict(oversplit_base=2, base_rounds=2, balance_threshold=0.1, max_layers=3)
BPART_STREAM = dict(c=0.5, alpha=None, gamma=1.5, slack=1.1, order="natural", passes=1)
EPS = BPART_COMBINE["balance_threshold"]

# Set-up (edge sampling, trace generation) runs this many times.
SETUP_REPEATS = 5

# The shared host this was tuned on runs in phases up to 1.6x faster or
# slower than usual, lasting from seconds to minutes. Every timed round
# (and set-up pass) also times calibrate(), which calls no repro code,
# and end-to-end times are scaled by CAL_REF_S over its time: seconds at
# the host speed where one calibrate() call takes CAL_REF_S, its usual
# speed there. Per-layer times stay raw, with host.calibrate_s beside
# them.
CAL_REF_S = 0.085

_LJ = DATASETS["livejournal"]
SOCIAL = dict(n=1 << 15, avg_degree=16.0, exponent=2.3, locality=0.2)
# load_dataset("livejournal", 1.0, seed)'s generator parameters.
LIVEJOURNAL = dict(
    n=_LJ.base_vertices, avg_degree=_LJ.avg_degree, exponent=_LJ.exponent, locality=_LJ.locality
)

WORKLOADS = {
    "pipeline-dense": dict(
        instances=6,
        graph=SOCIAL,
        sharded=None,
        pagerank_iters=2,
        spec=dict(duration=0.5),
        serving=dict(),
        chaos=False,
    ),
    # Four 2^17-edge batches per instance into four 2^12-vertex shards.
    "sharded-failover": dict(
        instances=3,
        graph=LIVEJOURNAL,
        sharded=dict(batch=1 << 17, shard_size=1 << 12),
        pagerank_iters=2,
        spec=dict(rate=30_000, duration=0.25),
        serving=dict(replication_factor=2, hedge_after=0.005),
        chaos=True,
    ),
}


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def digest(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for array in arrays:
        h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()


def summary_sha256(served) -> str:
    text = json.dumps(served.summary(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class Checks:
    """Output checks, each attached to the stage whose output it tests."""

    def __init__(self) -> None:
        self.rows: list[dict] = []

    def add(self, stage: str, name: str, ok: bool, detail: str) -> None:
        self.rows.append({"stage": stage, "name": name, "ok": bool(ok), "detail": detail})


class Instance:
    """One seeded graph with its inputs, built once during set-up."""

    def __init__(self, spec_w: dict, seed: int, tmp: str) -> None:
        self.seed = seed
        self.g = spec_w["graph"]
        self.sharded = spec_w["sharded"]
        self.tmp = tmp
        self.batches: list = []
        self.graph = None
        self.trace = None
        self.layers: list[dict] = []  # BPart's combine layers, first round
        self.first: dict = {}  # stage -> first round's result

    def sample(self) -> None:
        g = self.g
        batch = self.sharded["batch"] if self.sharded else int(g["n"] * g["avg_degree"])
        self.batches = list(
            social_edge_batches(
                g["n"], g["avg_degree"], g["exponent"],
                locality=g["locality"], rng=self.seed, batch_size=batch,
            )
        )
        if not self.sharded and len(self.batches) != 1:
            raise RuntimeError(f"expected one edge batch, got {len(self.batches)}")

    def build(self, rec: Recorder, directory: str):
        """Dense ``from_edges``, or spill + finalize through the sharded
        builder into ``directory``."""
        if not self.sharded:
            src, dst = self.batches[0]
            return from_edges(src, dst, self.g["n"])
        builder = ShardedCSRBuilder(
            directory, num_vertices=self.g["n"], shard_size=self.sharded["shard_size"]
        )
        try:
            with rec.stage("graph.spill"):
                for src, dst in self.batches:
                    builder.add_edges(src, dst)
            with rec.stage("graph.finalize"):
                return builder.finalize()
        except BaseException:
            builder.abort()
            raise


def partition_traced(rec: Recorder, graph, seed: int, counts: dict):
    """BPart through multi_layer_combine with a timed stream wrapper."""

    def stream(sub, pieces: int) -> np.ndarray:
        with rec.stage("partition.stream"):
            counts["calls"] = counts.get("calls", 0) + 1
            counts["vertices"] = counts.get("vertices", 0) + sub.num_vertices
            return weighted_stream_partition(sub, pieces, rng=seed, **BPART_STREAM)

    parts, traces = multi_layer_combine(graph, stream, NUM_PARTS, **BPART_COMBINE)
    layers = [{"layer": t.layer, "finalized": list(t.finalized)} for t in traces]
    return PartitionAssignment(graph, parts, NUM_PARTS), layers


def guaranteed_balance(assignment, layers: list[dict]) -> tuple[bool, str]:
    """What BPart's combine promises (partition/combine.py): a part it
    finalises in a layer below ``max_layers`` is within (1 +- eps) of
    |V|/k and |E|/k in both dimensions; the ``max_layers`` layer
    finalises whatever remains, unconditionally."""
    graph = assignment.graph
    v_target = graph.num_vertices / NUM_PARTS
    e_target = graph.num_edges / NUM_PARTS
    vdev = np.abs(assignment.vertex_counts - v_target) / v_target
    edev = np.abs(assignment.edge_counts - e_target) / e_target
    bad = [
        p for t in layers if t["layer"] < BPART_COMBINE["max_layers"]
        for p in t["finalized"] if max(vdev[p], edev[p]) > EPS + 1e-12
    ]
    return not bad, f"parts {bad} finalised before the layer cap exceed eps={EPS}"


_CAL_ARRAY = np.random.default_rng(0).integers(0, 1 << 40, size=1 << 17)


def calibrate(rec: Recorder) -> float:
    """Time a fixed piece of interpreter and numpy work that calls no
    ``repro`` code, as a gauge of the host's current speed."""
    start = time.perf_counter()
    with rec.stage("calibrate"):
        heap, counts = [], {}
        for i in range(40_000):
            heapq.heappush(heap, (i * 7919) % 10007)
            counts[i % 997] = counts.get(i % 997, 0) + 1
        while heap:
            heapq.heappop(heap)
        np.unique(_CAL_ARRAY)
        np.argsort(_CAL_ARRAY, kind="stable")
    return time.perf_counter() - start


def busy_imbalance(ledger) -> float:
    busy = np.sum([it.busy for it in ledger.iterations], axis=0)
    return float(busy.max() / busy.mean() - 1.0) if busy.mean() > 0 else 0.0


def run(workload: str, seed: int, seconds: float, tracing: bool, tmp: str) -> dict:
    spec_w = WORKLOADS[workload]
    rec = Recorder(tracing=tracing)
    checks = Checks()
    instances = [
        Instance(spec_w, seed * 1000 + i, os.path.join(tmp, f"i{i}"))
        for i in range(spec_w["instances"])
    ]
    spec_kw = spec_w["spec"]
    config = ServingConfig(**spec_w["serving"])

    # Set-up: sampling and trace generation are timed (setup_s); the
    # one build in between, which trace generation needs, is not. Import
    # time, measured once per process and spread 2x, is only recorded.
    gen_s, tracegen_s, setup_cal, setup_keys = [], [], [], set()
    with rec.stage("setup"):
        for rep in range(SETUP_REPEATS):
            start = time.perf_counter()
            for inst in instances:
                with rec.stage("graph.gen"):
                    inst.sample()
            gen_s.append(time.perf_counter() - start)
            if rep == 0:
                for inst in instances:
                    directory = os.path.join(inst.tmp, "setup")
                    inst.graph = inst.build(Recorder(tracing=False), directory)
            start = time.perf_counter()
            for inst in instances:
                with rec.stage("serving.trace_gen"):
                    inst.trace = WorkloadSpec(seed=inst.seed, **spec_kw).generate(inst.graph)
            tracegen_s.append(time.perf_counter() - start)
            setup_cal.append(calibrate(rec))
            setup_keys.add(
                tuple(
                    (digest(*(a for b in inst.batches for a in b)), inst.trace.fingerprint())
                    for inst in instances
                )
            )
    checks.add("setup", "repeatable", len(setup_keys) == 1, f"{SETUP_REPEATS} set-up passes agree")
    build_rss = rss_mb()

    stream_counts: dict = {}
    layer_counts: list[int] = []
    kernel = None

    def build(inst, r):
        directory = os.path.join(inst.tmp, f"round{r}")
        graph = inst.build(rec, directory)
        key = graph.fingerprint()
        if inst.sharded:
            graph.close()
            shutil.rmtree(directory, ignore_errors=True)
        return key

    def partition(inst, r):
        nonlocal kernel
        if tracing:
            assignment, layers = partition_traced(rec, inst.graph, inst.seed, stream_counts)
        else:
            result = BPartPartitioner(seed=inst.seed).partition(inst.graph, NUM_PARTS)
            assignment, layers = result.assignment, result.metadata["layers"]
            # Sharded graphs route every kernel choice through the buffered
            # gather, whatever the metadata names.
            kernel = (
                "buffered"
                if getattr(inst.graph, "gather_block", None) is not None
                else result.metadata["kernel"]
            )
        if r == 0:
            layer_counts.append(len(layers))
            inst.layers = layers
        return assignment

    def gemini(inst, r):
        # A fresh assignment object per run, so the structures Gemini
        # memoises on it are rebuilt every time, as in a single job.
        parts = inst.first["partition.run"].parts
        return GeminiEngine(BSPCluster(NUM_PARTS)).run(
            inst.graph,
            PartitionAssignment(inst.graph, parts, NUM_PARTS),
            PageRank(spec_w["pagerank_iters"]),
        )

    def knightking(inst, r):
        return WalkEngine(BSPCluster(NUM_PARTS), seed=inst.seed).run(
            inst.graph, inst.first["partition.run"], Node2Vec(),
            walkers_per_vertex=1, max_steps=WALK_STEPS,
        )

    def serve(inst, r):
        # The crash drill is installed for the serving run only.
        previous = active_plan()
        try:
            if spec_w["chaos"]:
                install_plan(crash_drill_plan())
            return ServingSimulator(inst.first["partition.run"], config, seed=inst.seed).run(
                inst.trace
            )
        finally:
            install_plan(previous)

    def plan(inst, r):
        assignment = inst.first["partition.run"]
        return plan_replicas(assignment, config.replication_factor, slack=config.replica_slack)

    stage_fns = {
        "graph.build": (build, lambda key: key),
        "partition.run": (partition, lambda a: digest(a.parts)),
        "engines.gemini.run": (gemini, lambda r: (digest(r.values), r.runtime, r.total_messages)),
        "engines.knightking.run": (
            knightking,
            lambda r: (r.total_steps, r.runtime, r.total_messages, digest(r.final_positions)),
        ),
        "serving.run": (serve, summary_sha256),
    }
    if tracing:
        # Not part of wall_s, so that traced and untraced walls compare.
        stage_fns["serving.plan"] = (plan, lambda p: p.digest())

    rounds: list[dict[str, float]] = []
    keys: dict[str, set] = {name: set() for name in stage_fns}
    partition_rss = 0.0
    start = time.perf_counter()
    with rec.stage("rounds"):
        while True:
            r = len(rounds)
            before = dict(rec.seconds)
            round_keys: dict[str, list] = {name: [] for name in stage_fns}
            # Instance by instance, so that each stage's runs in a round
            # are spread over the whole round, not bunched in one stretch.
            for inst in instances:
                for name, (fn, key) in stage_fns.items():
                    with rec.stage(name):
                        result = fn(inst, r)
                    inst.first.setdefault(name, result)
                    round_keys[name].append(key(result))
                    if name == "partition.run" and r == 0:
                        partition_rss = rss_mb()
                calibrate(rec)
            for name, found in round_keys.items():
                keys[name].add(tuple(found))
            rounds.append({n: t - before.get(n, 0.0) for n, t in rec.seconds.items()})
            elapsed = time.perf_counter() - start
            if elapsed * (len(rounds) + 1) / len(rounds) > seconds:
                break
    for name, found in keys.items():
        checks.add(name, "repeatable", len(found) == 1, f"{len(rounds)} rounds agree")

    # The first round is warm-up (lazy imports and caches, first page
    # faults): it is checked like the others but timed only if alone.
    timed = rounds[1:] or rounds

    def raw(name: str) -> float:
        return statistics.median(rnd.get(name, 0.0) for rnd in timed)

    def scaled(name: str) -> float:
        return statistics.median(
            rnd.get(name, 0.0) * CAL_REF_S * len(instances) / rnd["calibrate"] for rnd in timed
        )

    # Output checks, on the first round's results.
    reports, good, arrivals, latencies = [], 0, 0, []
    for inst in instances:
        assignment = inst.first["partition.run"]
        parts = assignment.parts
        in_range = (
            parts.size == inst.graph.num_vertices
            and int(parts.min()) >= 0
            and int(parts.max()) < NUM_PARTS
        )
        checks.add(
            "partition.run", "parts_in_range", in_range, f"every vertex in [0, {NUM_PARTS})"
        )
        ok, detail = guaranteed_balance(assignment, inst.layers)
        checks.add("partition.run", "balance", ok, detail)
        reports.append(balance_report(assignment))
        values = np.asarray(inst.first["engines.gemini.run"].values, dtype=np.float64)
        checks.add(
            "engines.gemini.run",
            "pagerank_finite_nonnegative",
            bool(np.isfinite(values).all() and (values >= 0).all()),
            "PageRank values finite and >= 0",
        )
        walk = inst.first["engines.knightking.run"]
        walkers = inst.graph.num_vertices
        checks.add(
            "engines.knightking.run",
            "walk_steps_bounded",
            walk.total_steps <= walkers * WALK_STEPS,
            f"total_steps {walk.total_steps} <= {walkers} x {WALK_STEPS}",
        )
        served = inst.first["serving.run"]
        shed = int(served.shed.sum())
        conserved = (
            served.num_queries == inst.trace.num_queries
            and served.completed + shed == inst.trace.num_queries
        )
        checks.add(
            "serving.run",
            "queries_conserved",
            conserved,
            f"completed {served.completed} + shed {shed} == arrivals {inst.trace.num_queries}",
        )
        good += int(round(served.availability(slo=SLO_S) * served.num_queries))
        arrivals += served.num_queries
        latencies.append(served.completed_latencies())

    latency = np.sort(np.concatenate(latencies))
    p999_rank = max(0, int(np.ceil(0.999 * latency.size)) - 1)
    pr = [inst.first["engines.gemini.run"] for inst in instances]
    walks = [inst.first["engines.knightking.run"] for inst in instances]
    served_all = [inst.first["serving.run"] for inst in instances]
    build_s = scaled("graph.build")
    partition_s = scaled("partition.run")
    gemini_s = scaled("engines.gemini.run")
    knightking_s = scaled("engines.knightking.run")
    serve_s = scaled("serving.run")
    setup_s = statistics.median(
        (g + t) * CAL_REF_S / c for g, t, c in zip(gen_s, tracegen_s, setup_cal)
    )

    e2e = {
        "setup_s": setup_s,
        "wall_s": build_s + partition_s + gemini_s + knightking_s + serve_s,
        "preprocess_s": build_s + partition_s,
        "analytics_s": gemini_s + knightking_s,
        "serve_wall_qps": arrivals / serve_s,
        "peak_rss_mb": rss_mb(),
        # Mean over instances of max part size over mean part size, i.e.
        # 1 + bias: never 0, and steady across seeds where the bias itself
        # sits near 0.
        "vertex_imbalance": 1.0 + float(np.mean([rep.vertex_bias for rep in reports])),
        "edge_imbalance": 1.0 + float(np.mean([rep.edge_bias for rep in reports])),
        "cut_ratio": float(np.mean([rep.cut_ratio for rep in reports])),
        "pagerank_sim_ms": float(np.mean([p.runtime for p in pr])) * 1e3,
        "node2vec_sim_ms": float(np.mean([w.runtime for w in walks])) * 1e3,
        # Mean, not p50: at nominal load the median query is a bare cache
        # hit whose latency is the same constant on every seed.
        "serve_mean_ms": float(latency.mean()) * 1e3,
        "serve_p999_ms": float(latency[p999_rank]) * 1e3,
        "serve_goodput": good / arrivals,
    }

    if tracing:
        build_s, partition_s = raw("graph.build"), raw("partition.run")
        gemini_s, knightking_s = raw("engines.gemini.run"), raw("engines.knightking.run")
        serve_s, stream_s = raw("serving.run"), raw("partition.stream")
        batches = sum(int(s.batches.sum()) for s in served_all)
        hedges = sum(int(s.hedges) for s in served_all)
        arcs = sum(int(inst.graph.num_edges) for inst in instances)
        calls = stream_counts["calls"] / len(rounds)
        streamed = stream_counts["vertices"] / len(rounds)
        layer = {
            "graph.gen_s": statistics.median(gen_s),
            "graph.build_s": build_s,
            "graph.build_arcs": arcs,
            "graph.build_arcs_per_s": arcs / build_s,
            "graph.build_rss_mb": build_rss,
            "graph.spill_s": raw("graph.spill"),
            "graph.finalize_s": raw("graph.finalize"),
            "graph.shard_bytes": sum(
                entry.stat().st_size
                for inst in instances if inst.sharded
                for entry in os.scandir(inst.graph.spill_dir) if entry.is_file()
            ),
            "partition.run_s": partition_s,
            "partition.stream_s": stream_s,
            "partition.stream_calls": calls,
            "partition.stream_vertices": streamed,
            "partition.stream_vps": streamed / stream_s,
            "partition.combine_self_s": partition_s - stream_s,
            "partition.layers": sum(layer_counts),
            "partition.rss_mb": partition_rss,
            "engines.gemini.run_s": gemini_s,
            "engines.gemini.iterations": sum(p.iterations for p in pr),
            "engines.gemini.iter_s": gemini_s / sum(p.iterations for p in pr),
            "engines.gemini.messages": sum(int(p.total_messages) for p in pr),
            "engines.knightking.run_s": knightking_s,
            "engines.knightking.steps": sum(int(w.total_steps) for w in walks),
            "engines.knightking.steps_per_s": (
                sum(int(w.total_steps) for w in walks) / knightking_s
            ),
            "engines.knightking.supersteps": sum(int(w.num_supersteps) for w in walks),
            "engines.knightking.messages": sum(int(w.total_messages) for w in walks),
            "cluster.pagerank.wait_ratio": float(np.mean([p.ledger.waiting_ratio for p in pr])),
            "cluster.pagerank.busy_imbalance": float(
                np.mean([busy_imbalance(p.ledger) for p in pr])
            ),
            "cluster.node2vec.wait_ratio": float(np.mean([w.ledger.waiting_ratio for w in walks])),
            "serving.trace_gen_s": statistics.median(tracegen_s),
            "serving.run_s": serve_s,
            "serving.us_per_query": serve_s / arrivals * 1e6,
            "serving.batches": batches,
            "serving.queries_per_batch": sum(int(s.queries.sum()) for s in served_all) / batches,
            "serving.cache_hit_rate": float(
                np.mean([s.cache_stats.get("hit_rate", 0.0) for s in served_all])
            ),
            "serving.remote_reads": sum(int(s.messages.sum()) for s in served_all),
            "serving.busy_max_s": max(float(s.busy_seconds.max()) for s in served_all),
            "serving.busy_mean_s": float(np.mean([s.busy_seconds.mean() for s in served_all])),
            "serving.plan_s": raw("serving.plan"),
            "serving.shed": sum(int(s.shed.sum()) for s in served_all),
            "serving.redispatched": sum(int(s.redispatched) for s in served_all),
            "serving.hedges": hedges,
            "serving.hedge_win_rate": (
                sum(s.hedge_wins for s in served_all) / hedges if hedges else 0.0
            ),
            "serving.crashes": sum(int(s.crashes) for s in served_all),
            "serving.rereplication_bytes": sum(int(s.rereplication_bytes) for s in served_all),
            "host.calibrate_s": raw("calibrate") / len(instances),
        }
    else:
        layer = {}

    # Values that are pure functions of the seed: equal in every same-seed run.
    deterministic = {
        "partition_sha256": digest(*(inst.first["partition.run"].parts for inst in instances)),
        "serving_summary_sha256": hashlib.sha256(
            "".join(summary_sha256(s) for s in served_all).encode()
        ).hexdigest(),
        "trace_fingerprints": [inst.trace.fingerprint() for inst in instances],
        "graph_fingerprints": [inst.graph.fingerprint() for inst in instances],
        **{k: e2e[k] for k in (
            "vertex_imbalance", "edge_imbalance", "cut_ratio", "pagerank_sim_ms",
            "node2vec_sim_ms", "serve_mean_ms", "serve_p999_ms", "serve_goodput",
        )},
    }
    # Operations: every stage call of every round, and every query served.
    stage_calls = len(rounds) * len(stage_fns) * len(instances)
    failed_stages = {row["stage"] for row in checks.rows if not row["ok"]}
    over = [
        inst.seed for inst, rep in zip(instances, reports)
        if max(rep.vertex_bias, rep.edge_bias) > EPS
    ]
    return {
        "workload": workload,
        "seed": seed,
        "trace": tracing,
        "e2e": e2e,
        "layer": layer,
        "deterministic": deterministic,
        "checks": checks.rows,
        "attempted": stage_calls + len(rounds) * arrivals,
        "failed": len(failed_stages) + len(rounds) * (arrivals - good),
        "info": {
            "kernel": kernel,
            "instances": len(instances),
            "instance_seeds": [inst.seed for inst in instances],
            "rounds": len(rounds),
            "vertices": sum(int(inst.graph.num_vertices) for inst in instances),
            "arcs": sum(int(inst.graph.num_edges) for inst in instances),
            "combine_layers": layer_counts,
            # Instances whose final bias exceeds eps: allowed, as BPart's
            # last combine layer finalises unconditionally, and reported.
            "over_eps_instances": over,
            "queries": arrivals,
            "completed": int(latency.size),
            "p50_ms": float(latency[max(0, int(np.ceil(0.5 * latency.size)) - 1)]) * 1e3,
            "p999_beyond": int(latency.size - (p999_rank + 1)),
            "import_s": IMPORT_S,
            "setup_seconds": {
                "graph.gen": gen_s, "serving.trace_gen": tracegen_s, "calibrate": setup_cal
            },
            "stage_seconds": {
                name: [rnd.get(name, 0.0) for rnd in rounds]
                for name in (*stage_fns, "calibrate")
            },
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "spans": self_times(rec.spans) if tracing else [],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tmp", required=True)
    args = parser.parse_args()
    record = run(args.workload, args.seed, args.seconds, bool(args.trace), args.tmp)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
