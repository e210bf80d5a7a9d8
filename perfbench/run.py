"""Benchmark of the whole pipeline: build, BPart, Gemini/KnightKing, serving.

Run from the root of a checkout::

    python3 perfbench/run.py --workload pipeline-dense --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --seed 1          # every workload, one after another

Each workload runs in a fresh interpreter (``pipeline.py``), with every
``REPRO_*`` variable cleared and one BLAS/OpenMP thread. The child sets
up its seeded inputs, then runs the pipeline in rounds until
``--seconds`` is used up; each end-to-end metric is the median over the
rounds. With ``--trace 1`` one untraced and one traced child run, each
for half the time; the per-layer metrics come from the traced one, and
the tracing overhead is traced wall minus untraced wall.

Output checks run in every child, and every round of a child must give
the same outputs; values that are pure functions of the seed (partition
checksum, serving summary digest, quality and simulated metrics) must
also agree between the two children of a traced run. A failed check is
a failed operation and makes the exit code 1. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end metrics with ``--trace 0``, per-layer metrics
with ``--trace 1``). Full records, provenance and spans are written to
``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

# A run must finish within 180 s.
CHILD_BUDGET_S = 165.0


class ChildFailed(RuntimeError):
    pass


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(workload: str, seed: int, seconds: float, trace: bool, timeout: float) -> dict:
    tmp = OUT / "tmp" / f"{workload}-{os.getpid()}-{time.monotonic_ns()}"
    tmp.mkdir(parents=True)
    cmd = [
        sys.executable,
        str(HERE / "pipeline.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(int(trace)),
        "--tmp", str(tmp),
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{workload} child exceeded {timeout:.0f}s") from exc
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.strip().splitlines()[-15:])
        raise ChildFailed(f"{workload} child exited {proc.returncode}:\n{tail}")
    return json.loads(lines[-1])


def provenance(seed: int, record: dict) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    info = record["info"]
    return {
        "seed": seed,
        "git_commit": commit,
        "src_sha256": h.hexdigest(),
        "cpus": len(os.sched_getaffinity(0)),
        "python": info["python"],
        "numpy": info["numpy"],
        "scipy": info["scipy"],
        "kernel": info["kernel"],
    }


def identity_mismatches(records: list[dict]) -> list[str]:
    first = records[0]["deterministic"]
    return sorted(
        key for rec in records[1:] for key, value in rec["deterministic"].items()
        if first.get(key) != value
    )


def self_time_per_call(spans: list[dict]) -> list[tuple[str, int, float]]:
    """``(span name, calls, median self seconds per call)``, largest first.
    Stages run several times, so a total would rank them by repeat count."""
    selfs: dict[str, list[float]] = {}
    for span in spans:
        selfs.setdefault(span["name"], []).append(span["self"])
    rows = [(name, len(v), statistics.median(v)) for name, v in selfs.items()]
    return sorted(rows, key=lambda row: -row[2])


def load_spec() -> tuple[list, dict, dict]:
    """Workload names, end-to-end ``name -> (unit, better)`` and per-layer
    ``name -> unit``, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return (
        [w["name"] for w in spec["workloads"]],
        {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def run_workload(workload: str, seed: int, seconds: float, trace: bool, end_to_end: dict) -> dict:
    start = time.perf_counter()
    records = []

    def remaining() -> float:
        return CHILD_BUDGET_S - (time.perf_counter() - start)

    if trace:
        # Half the time each, so that a traced run takes as long as an
        # untraced one.
        records.append(run_child(workload, seed, seconds / 2, False, remaining()))
        records.append(run_child(workload, seed, seconds / 2, True, remaining()))
    else:
        records.append(run_child(workload, seed, seconds, False, remaining()))

    mismatches = identity_mismatches(records)
    checks = [dict(row, child=i) for i, rec in enumerate(records) for row in rec["checks"]]
    checks.append(
        {
            "stage": "determinism",
            "name": "same_seed_identity",
            "ok": not mismatches,
            "detail": (
                f"{len(records)} same-seed children agree on partition checksum, "
                "serving summary digest and deterministic metrics"
                + (f"; differ: {', '.join(mismatches)}" if mismatches else "")
            ),
        }
    )
    attempted = sum(rec["attempted"] for rec in records)
    failed = sum(rec["failed"] for rec in records) + (1 if mismatches else 0)
    untraced = [rec for rec in records if not rec["trace"]]
    e2e = {name: statistics.median(rec["e2e"][name] for rec in untraced) for name in end_to_end}
    result = {
        "workload": workload,
        "trace": trace,
        "children": len(records),
        "seconds": time.perf_counter() - start,
        "provenance": provenance(seed, untraced[0]),
        "correct": all(row["ok"] for row in checks),
        "attempted": attempted,
        "failed": failed,
        "checks": checks,
        "end_to_end": e2e,
        "records": records,
    }
    if trace:
        traced = records[-1]
        layer = dict(traced["layer"])
        overhead = traced["e2e"]["wall_s"] - untraced[0]["e2e"]["wall_s"]
        layer["trace.overhead_s"] = overhead
        layer["trace.overhead_share"] = overhead / untraced[0]["e2e"]["wall_s"]
        result["per_layer"] = layer
        result["self_times"] = self_time_per_call(traced["spans"])
    return result


def report(result: dict, seed: int, end_to_end: dict, per_layer: dict) -> None:
    prov = result["provenance"]
    info = result["records"][0]["info"]
    print(
        f"perfbench {result['workload']} seed={seed} trace={int(result['trace'])} "
        f"children={result['children']} cpus={prov['cpus']} python={prov['python']} "
        f"numpy={prov['numpy']} scipy={prov['scipy']} kernel={prov['kernel']} "
        f"commit={prov['git_commit'] or 'n/a'} src={prov['src_sha256'][:12]}"
    )
    notes = {
        "serve_mean_ms": f"n={info['completed']} completed, p50 {info['p50_ms']:.6g} ms",
        "serve_p999_ms": f"n={info['completed']}, {info['p999_beyond']} beyond",
        "serve_goodput": f"{info['queries']} arrivals, slo=50ms",
    }
    for name, (unit, better) in end_to_end.items():
        value = result["end_to_end"][name]
        print(f"  {name:<18} {value:>14.6g} {unit:<6} [{better}] {notes.get(name, '')}")
    # Not a metric in BENCHMARK.json: it is 0 on every clean run, and the
    # result line's attempted/failed carry it exactly.
    rate = result["failed"] / result["attempted"]
    print(f"  {'error_rate':<18} {rate:>14.6g} {'ratio':<6} [lower] "
          f"{result['failed']}/{result['attempted']} operations")
    if result["trace"]:
        print("  per-layer:")
        for name, unit in per_layer.items():
            print(f"    {name:<34} {result['per_layer'][name]:>14.6g} {unit}")
        print("  self time per call, median (traced child):")
        for name, calls, self_s in result["self_times"]:
            print(f"    {name:<28} x{calls:<4} {self_s:9.3f}s")
    for row in result["checks"]:
        if not row["ok"]:
            print(f"  CHECK FAILED [{row['stage']}] {row['name']}: {row['detail']}")


def metrics_of(result: dict, names: dict) -> dict:
    values = result["per_layer"] if result["trace"] else result["end_to_end"]
    return {name: {"value": values[name], "unit": unit} for name, unit in names.items()}


def main() -> int:
    workloads, end_to_end, per_layer = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=("all", *workloads))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # Turn SIGTERM into an exception, so subprocess.run kills and reaps the
    # running child before this process exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    reported = per_layer if args.trace else {name: unit for name, (unit, _) in end_to_end.items()}
    names = workloads if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace), end_to_end)
        except ChildFailed as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 2
        OUT.mkdir(exist_ok=True)
        path = OUT / f"{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
        report(result, args.seed, end_to_end, per_layer)
        results.append(result)
    if len(results) == 1:
        metrics = metrics_of(results[0], reported)
    else:
        metrics = {f"{r['workload']}/{k}": v for r in results
                   for k, v in metrics_of(r, reported).items()}
    correct = all(r["correct"] for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
