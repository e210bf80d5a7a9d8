"""In-memory span recorder for the benchmark's own stage timing.

Every timed stage of a workload goes through :meth:`Recorder.stage`,
which always adds the stage's wall seconds to :attr:`Recorder.seconds`
(the untraced measurement) and, only when tracing is on, also keeps a
span — name, start, end, parent — in memory. Spans are handed back to
the caller at the end of the run and written out once; nothing is
written while the workload runs.

A span's self time is its duration minus the part of that interval its
child spans cover.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

__all__ = ["Recorder", "self_times"]


class Recorder:
    """Stage stopwatch plus optional span log.

    ``seconds[name]`` accumulates every call of a stage. With
    ``tracing=True`` each call is also a span whose parent is the
    innermost open span.
    """

    def __init__(self, *, tracing: bool) -> None:
        self.tracing = bool(tracing)
        self.seconds: dict[str, float] = {}
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._origin = time.perf_counter()

    @contextmanager
    def stage(self, name: str):
        span_id = None
        if self.tracing:
            span_id = len(self.spans)
            self.spans.append(
                {
                    "id": span_id,
                    "name": name,
                    "parent": self._open[-1] if self._open else None,
                    "start": None,
                    "end": None,
                }
            )
            self._open.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.seconds[name] = self.seconds.get(name, 0.0) + (end - start)
            if span_id is not None:
                self._open.pop()
                self.spans[span_id]["start"] = start - self._origin
                self.spans[span_id]["end"] = end - self._origin


def self_times(spans: list[dict]) -> list[dict]:
    """Return ``spans`` with a ``self`` field: duration minus the union
    of the intervals its direct children cover (clipped to the span)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    out = []
    for span in spans:
        covered = 0.0
        reach = span["start"]
        for lo, hi in sorted(children.get(span["id"], [])):
            lo, hi = max(lo, reach), min(hi, span["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(dict(span, self=(span["end"] - span["start"]) - covered))
    return out
