"""Unified observability: tracing, metrics, profiling, regression gate.

``repro.obs`` is the dependency-free observability layer every other
subsystem reports through:

* :mod:`repro.obs.tracing` -- structured spans on an *injected* clock
  (deterministic under ``repro.sim``'s ``VirtualClock``; byte-identical
  trace digests across replays), with JSONL and Chrome ``trace_event``
  exporters;
* :mod:`repro.obs.metrics` -- counters, gauges and mergeable log2
  histograms (grown out of the cluster's counters), with a
  Prometheus text-exposition formatter served by cluster nodes;
* :mod:`repro.obs.profile` -- engine hooks emitting per-schedule spans
  (XOR count, bytes, plan-cache hit/miss, effective throughput);
* :mod:`repro.obs.regress` -- the ``repro bench regress`` gate that
  diffs ``BENCH_perf.json`` across runs and fails on regression.

Design constraint: this package never touches a wall clock or ambient
randomness -- time arrives via injection (a ``Clock``/callable) or not
at all, so the sim-seam AST lint holds over ``repro.obs`` exactly as it
does over the rest of the library (it is deliberately *not* an exempt
seam; see ``repro.analysis.static.astlint``).
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    default_registry,
    to_prometheus,
)
from repro.obs.tracing import (
    Span,
    Tracer,
    active_tracer,
    set_tracer,
    spans_to_chrome,
    spans_to_jsonl,
    trace_digest,
    use_tracer,
    write_chrome_trace,
    write_jsonl,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "default_registry",
    "to_prometheus",
    "Span",
    "Tracer",
    "active_tracer",
    "set_tracer",
    "use_tracer",
    "spans_to_jsonl",
    "spans_to_chrome",
    "trace_digest",
    "write_jsonl",
    "write_chrome_trace",
]
