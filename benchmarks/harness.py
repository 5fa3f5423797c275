"""Workload-independent parts of the benchmark: the closed-loop timer, the
latency statistics and the span tracer.

Only the standard library is imported here, so that ``bench.py`` can load
this module before the timed set-up starts (which imports numpy through
``greendecay``).
"""

from __future__ import annotations

import resource
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

# The checkout being measured: the benchmark lives in ROOT/benchmarks and
# measures the package under ROOT/src, never an installed copy.
ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# The tail percentile needs this many samples beyond it (see tail_latency).
TAIL_BEYOND = 10


class CheckFailed(Exception):
    """An op's output did not pass its correctness check."""


def require(ok: bool, message: str) -> None:
    """Raise CheckFailed with ``message`` unless ``ok``."""
    if not ok:
        raise CheckFailed(message)


@dataclass
class Op:
    """One unit of user work: ``run(tracer)`` is timed, ``check(output)`` is not."""

    label: str
    run: Callable[[Any], Any]
    check: Callable[[Any], None]


class NullTracer:
    """Stand-in for Tracer in untraced runs: calls straight through."""

    traced = False
    op_id = None

    def call(self, name: str, fn: Callable, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name: str, value: float = 1) -> None:
        pass


NULL_TRACER = NullTracer()


class Tracer:
    """Records spans (name, start, end, parent, op id) and counters in memory.

    ``call`` wraps one call into the program; spans opened while another is
    open record it as their parent. ``op_id`` is set by :func:`measure` for
    the duration of each op, so all spans of one op share it; spans recorded
    outside ops (set-up, extras) carry ``None``.
    """

    traced = True

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.counts: dict[str, float] = defaultdict(float)
        self.op_id: int | None = None
        self._open: list[int] = []

    def call(self, name: str, fn: Callable, *args, **kwargs):
        parent = self._open[-1] if self._open else None
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self.op_id])
        self._open.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans[idx][2] = time.perf_counter()
            self._open.pop()

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] += value

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the time covered by child spans."""
        out: dict[str, float] = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            out[name] += end - start
            if parent is not None:
                out[self.spans[parent][0]] -= end - start
        return dict(out)

    def totals(self) -> dict[str, tuple[float, bool]]:
        """Per span name: (summed duration, whether the spans lie inside ops)."""
        out: dict[str, list] = {}
        for name, start, end, _, op_id in self.spans:
            entry = out.setdefault(name, [0.0, op_id is not None])
            entry[0] += end - start
        return {k: (v[0], v[1]) for k, v in out.items()}

    def dump(self) -> dict:
        return {
            "fields": ["name", "start_s", "end_s", "parent", "op_id"],
            "spans": self.spans,
            "counts": dict(self.counts),
            "self_s": self.self_times(),
        }


def cpu_clock() -> float:
    """CPU seconds (user + system) of this process and its reaped children.

    The ops are single-threaded (BLAS is pinned to one thread), so an op's
    CPU time is its wall time on an otherwise idle core, without the time
    the host ran other tenants instead: on a shared host that time swings by
    more than the benchmark's bounds from one minute to the next.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


@dataclass
class Measurement:
    """Outcome of one closed loop: per-op wall and CPU latencies, failures."""

    latencies: list[float] = field(default_factory=list)
    cpu_latencies: list[float] = field(default_factory=list)
    failed: int = 0
    busy: float = 0.0
    cpu_busy: float = 0.0
    batches: int = 0
    errors: list[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def ops_per_s(self) -> float:
        return (self.attempted - self.failed) / self.busy

    @property
    def ops_per_cpu_s(self) -> float:
        return (self.attempted - self.failed) / self.cpu_busy


def measure(
    batch: Callable[[int], list[Op]],
    seconds: float,
    tracer=NULL_TRACER,
    min_ops: int = 1,
    first_batch: int = 0,
) -> Measurement:
    """Run ops in a closed loop (one client, no think time).

    ``batch(b)`` returns the ops of batch b, which always run to the end, so
    a run holds whole batches; the loop stops at a batch boundary once the
    timed op bodies add up to ``seconds`` of wall time and at least
    ``min_ops`` ops ran. Only ``op.run`` is timed, by the wall clock and by
    :func:`cpu_clock`; building the batch and checking outputs are not. An
    op fails when it raises or its check does not pass.
    """
    m = Measurement()
    b = first_batch
    while m.busy < seconds or m.attempted < min_ops:
        for op in batch(b):
            tracer.op_id = m.attempted
            error = None
            c0 = cpu_clock()
            t0 = time.perf_counter()
            try:
                out = tracer.call("op", op.run, tracer)
            except Exception:
                error = traceback.format_exc()
            dt = time.perf_counter() - t0
            dc = cpu_clock() - c0
            tracer.op_id = None
            m.busy += dt
            m.cpu_busy += dc
            m.latencies.append(dt)
            m.cpu_latencies.append(dc)
            if error is None:
                try:
                    op.check(out)
                except Exception:
                    error = traceback.format_exc()
            if error is not None:
                m.failed += 1
                m.errors.append(f"op {m.attempted - 1} ({op.label}):\n{error}")
        b += 1
    m.batches = b - first_batch
    return m


def tail_latency(latencies: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least TAIL_BEYOND samples beyond it.

    Returns ``(value, percentile, sample_count)``: the order statistic with
    exactly TAIL_BEYOND larger samples, and the share of samples at or below
    it in percent. Needs at least TAIL_BEYOND + 1 samples.
    """
    n = len(latencies)
    if n <= TAIL_BEYOND:
        raise ValueError(f"need more than {TAIL_BEYOND} samples, got {n}")
    ordered = sorted(latencies)
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n
