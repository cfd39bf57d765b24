"""Span recording and self-time arithmetic for the per-layer run.

Spans come from the benchmark's own wrappers around the public methods
through which each layer is entered (see ``instrument.py``); nothing is
passed into the program.  A span's parent is whatever span was current
in the calling asyncio task, carried by a :mod:`contextvars` variable,
so children spawned with ``asyncio.gather`` nest under the span that
spawned them.

Self time is a span's duration minus the *union* of its children's
intervals: parallel children (a stripe write fans out to five RPCs)
overlap, and summing their durations would count the same wall time
several times.
"""

from __future__ import annotations

import contextvars
import time

_current: contextvars.ContextVar["Span | None"] = contextvars.ContextVar(
    "perfbench_span", default=None
)

now = time.perf_counter


class Span:
    """One timed interval in one layer, tied to the op that caused it."""

    __slots__ = ("name", "layer", "start", "end", "parent", "op", "attrs")

    def __init__(self, name: str, layer: str, parent: "Span | None", op: int) -> None:
        self.name = name
        self.layer = layer
        self.parent = parent
        self.op = op
        self.start = now()
        self.end = self.start
        self.attrs: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Counters:
    """Counts and per-call samples that are not spans."""

    def __init__(self) -> None:
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_evictions = 0
        self.sheds = 0
        self.allocate_us: list[float] = []
        self.extents: list[int] = []
        self.connects = 0
        self.connect_us: list[float] = []
        self.rpcs = 0
        self.wire_bytes_out = 0
        self.wire_bytes_in = 0
        self.disk_read_us: list[float] = []
        self.disk_write_us: list[float] = []


class Recorder:
    """Keeps every span of the traced phases in memory.

    Spans are recorded only inside an op (a root span opened by the
    load generator with :meth:`op`), so set-up and preload traffic stays out.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: true while a traced phase runs; gates the samples that are
        #: taken outside any op (node-side disk calls)
        self.tracing = False
        #: counts of the running phase; the workload runner swaps in a fresh
        #: :class:`Counters` per phase
        self.counters = Counters()
        self._next_op = 0

    def op(self, name: str) -> "_OpScope":
        self._next_op += 1
        return _OpScope(self, name, self._next_op)

    def begin(self, name: str, layer: str) -> Span | None:
        """Open a child of the current span (None outside any op)."""
        parent = _current.get()
        if parent is None:
            return None
        span = Span(name, layer, parent, parent.op)
        self.spans.append(span)
        return span

    def push(self, span: Span) -> contextvars.Token:
        return _current.set(span)

    @staticmethod
    def pop(span: Span, token: contextvars.Token) -> None:
        span.end = now()
        _current.reset(token)


class _OpScope:
    def __init__(self, rec: Recorder, name: str, op: int) -> None:
        self.rec = rec
        self.span = Span(name, "driver", None, op)

    def __enter__(self) -> Span:
        self.rec.spans.append(self.span)
        self._token = _current.set(self.span)
        return self.span

    def __exit__(self, *exc) -> None:
        Recorder.pop(self.span, self._token)


# -- interval arithmetic -----------------------------------------------------


def union(intervals: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Merge intervals into disjoint, sorted runs."""
    out: list[list[float]] = []
    for lo, hi in sorted(intervals):
        if hi <= lo:
            continue
        if out and lo <= out[-1][1]:
            out[-1][1] = max(out[-1][1], hi)
        else:
            out.append([lo, hi])
    return [(lo, hi) for lo, hi in out]


def subtract(
    span: tuple[float, float], covered: list[tuple[float, float]]
) -> list[tuple[float, float]]:
    """Parts of ``span`` outside the disjoint sorted ``covered`` runs."""
    lo, hi = span
    out = []
    cur = lo
    for c_lo, c_hi in covered:
        if c_hi <= cur:
            continue
        if c_lo >= hi:
            break
        if c_lo > cur:
            out.append((cur, c_lo))
        cur = max(cur, c_hi)
    if cur < hi:
        out.append((cur, hi))
    return out


def total(intervals: list[tuple[float, float]]) -> float:
    return sum(hi - lo for lo, hi in intervals)


def self_intervals(spans: list[Span]) -> dict[int, list[tuple[float, float]]]:
    """Per span (by ``id``): its interval minus the union of its children."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(id(s.parent), []).append((s.start, s.end))
    return {
        id(s): subtract((s.start, s.end), union(children.get(id(s), [])))
        for s in spans
    }


def layer_times(spans: list[Span]) -> tuple[dict[int, float], dict[int, dict[str, float]]]:
    """Per op: its wall time, and the self time of each layer in it.

    A layer's time in one op is the union of the self intervals of all
    its spans in that op, so parallel siblings of one layer (five RPCs
    of one stripe write) count their shared wall time once.  The layers
    of one op then add up to the op's wall time, except where two
    layers are busy at the same instant -- the residual that
    :func:`reconcile` reports.
    """
    selfs = self_intervals(spans)
    walls: dict[int, float] = {}
    per_layer: dict[int, dict[str, list[tuple[float, float]]]] = {}
    for s in spans:
        if s.parent is None:
            walls[s.op] = s.duration
        per_layer.setdefault(s.op, {}).setdefault(s.layer, []).extend(selfs[id(s)])
    return walls, {
        op: {layer: total(union(iv)) for layer, iv in layers.items()}
        for op, layers in per_layer.items()
    }


def reconcile(spans: list[Span]) -> float:
    """Relative gap between the program's per-layer self time and op wall time.

    The op's root span is the load generator's own timer around the whole op, so
    its ``driver`` layer holds what no program layer accounts for (the
    oracle's compare, payload handling); time two layers spend at once
    is counted twice.  Summed over every op:
    ``|sum(program layer self) - sum(wall)| / sum(wall)``.
    """
    walls, layers = layer_times(spans)
    wall = sum(walls.values())
    attributed = sum(
        t for op, d in layers.items() if op in walls
        for layer, t in d.items() if layer != "driver"
    )
    return abs(attributed - wall) / wall if wall > 0 else 0.0
