"""Turn a finished :class:`workloads.Workload` into metric values.

End-to-end metrics come from an untraced run, per-layer metrics from a
traced one; both are plain dicts ``name -> value`` whose names are the
ones ``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import resource
import statistics

import numpy as np

from spans import Counters, self_intervals, reconcile, total
from workloads import Phase, Workload, rate

#: Largest ``trace.reconcile_err`` a traced run should show: the share of
#: op wall time by which summed per-layer self time may differ from it.
RECONCILE_TOLERANCE = 0.05


def _pct(values, q: float, scale: float = 1.0) -> float:
    return float(np.percentile(values, q)) * scale if len(values) else 0.0


def _rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def totals(w: Workload) -> dict:
    """Ops attempted; failed (errors, sheds and mismatches); mismatches."""
    return {
        "attempted": sum(p.ops for p in w.phases),
        "failed": sum(p.failed + p.shed + p.mismatches for p in w.phases),
        "mismatches": sum(p.mismatches for p in w.phases),
    }


def _rebuild_mbps(phases: list[Phase]) -> float:
    """The median over the run's rebuild phases of each phase's rate
    (its rebuilt bytes over its rounds' time).

    There is one rebuild phase per slice, so the median samples eight
    moments of the run and a slow spell of a shared host moves it only
    if it covers most of them.  Not the fastest round: that depends on
    how many rounds happen to land in a fast spell, and over five seeds
    on ``repair`` it spread by 25% of its median, this median by 6%.
    """
    rates = [
        sum(b for b, _ in p.rounds) / sum(s for _, s in p.rounds)
        for p in phases
        if p.rounds
    ]
    return statistics.median(rates) / 1e6 if rates else 0.0


def end_to_end(w: Workload) -> dict:
    closed = [p for p in w.phases if p.kind == "closed"]
    reads = [x for p in closed for x in p.lat["read"]]
    writes = [x for p in closed for x in p.lat["write"]]
    t = totals(w)
    return {
        "setup_s": statistics.median(w.setup_times),
        "read_p50_ms": _pct(reads, 50, 1e3),
        "read_p95_ms": _pct(reads, 95, 1e3),
        "write_p50_ms": _pct(writes, 50, 1e3),
        "write_p95_ms": _pct(writes, 95, 1e3),
        "capacity_ops_s": rate(closed, "ops"),
        "read_mbps": rate(closed, "read") / 1e6,
        "write_mbps": rate(closed, "write") / 1e6,
        "rebuild_mbps": _rebuild_mbps([p for p in w.phases if p.kind == "rebuild"]),
        "served_frac": 1.0 - t["failed"] / t["attempted"],
        "space_amp": w.space_amp,
        "rss_mb": _rss_mb(),
    }


# -- per-layer -------------------------------------------------------------------


def _merge(counters: list[Counters]) -> Counters:
    out = Counters()
    for c in counters:
        for k, v in vars(c).items():
            setattr(out, k, getattr(out, k) + v)
    return out


def _selfs_by_name(phases: list[Phase]) -> dict[str, list[float]]:
    """Self time in seconds of every span, grouped by span name."""
    out: dict[str, list[float]] = {}
    for p in phases:
        selfs = self_intervals(p.spans)
        for s in p.spans:
            out.setdefault(s.name, []).append(total(selfs[id(s)]))
    return out


def _durations(phases: list[Phase], *names: str) -> list[float]:
    return [s.duration for p in phases for s in p.spans if s.name in names]


def _roots(phases: list[Phase]) -> list:
    return [s for p in phases for s in p.spans if s.parent is None]


def _rebuild_windows(phases: list[Phase]) -> dict[str, list[float]]:
    """Fetch, decode and put time of every rebuild window.

    A window's decode is its ``codec.batch_decode`` span; its fetch runs
    from the end of the previous window's last put (or the rebuild's
    start) to the decode; its put runs from the decode to the end of the
    last ``put`` RPC issued before the next decode.
    """
    out: dict[str, list[float]] = {"fetch": [], "decode": [], "put": []}
    for p in phases:
        for col in (s for s in p.spans if s.name == "rebuild.column"):
            mine = [s for s in p.spans if s.op == col.op]
            decodes = sorted(
                (s for s in mine if s.name == "codec.batch_decode"), key=lambda s: s.start
            )
            puts = [
                s for s in mine
                if s.name == "wire.rpc" and s.attrs and s.attrs.get("verb") == "put"
            ]
            prev_end = col.start
            for i, d in enumerate(decodes):
                limit = decodes[i + 1].start if i + 1 < len(decodes) else col.end
                ends = [s.end for s in puts if d.end <= s.start < limit]
                put_end = max(ends) if ends else d.end
                out["fetch"].append(d.start - prev_end)
                out["decode"].append(d.duration)
                out["put"].append(put_end - d.end)
                prev_end = put_end
    return out


def per_layer(w: Workload) -> dict:
    traced = [p for p in w.phases if p.traced]
    fg = [p for p in traced if p.kind != "rebuild"]
    rb = [p for p in traced if p.kind == "rebuild"]
    open_ = [p for p in fg if p.kind == "open"]
    base = [p for p in w.phases if not p.traced and p.kind == "closed"]
    c = _merge([p.counters for p in fg])
    c_rb = _merge([p.counters for p in rb])
    selfs = _selfs_by_name(traced)
    roots = _roots(fg)
    n_ops = max(1, len(roots))
    user_bytes = sum(p.user_bytes for p in fg)
    n_writes = sum(1 for r in roots if r.name in ("put", "update", "write"))
    client: dict[str, int] = {}
    for p in traced:
        for k, v in p.client_counts.items():
            client[k] = client.get(k, 0) + v

    codec = [s for p in traced for s in p.spans if s.layer == "codec"]
    codec_bytes = sum((s.attrs or {}).get("bytes", 0) for s in codec)
    codec_time = sum(s.duration for s in codec)
    codec_self = sum(sum(v) for k, v in selfs.items() if k.startswith("codec."))
    all_roots = _roots(traced)
    op_wall = sum(r.duration for r in all_roots)

    windows = _rebuild_windows(rb)
    rebuilt = sum(b for p in rb for b, _ in p.rounds)
    cap_traced = rate([p for p in fg if p.kind == "closed"], "ops")
    cap_base = rate(base, "ops")
    lookups = c.cache_hits + c.cache_misses
    wall = sum(p.duration for p in traced)

    return {
        "driver.lag_p99_ms": _pct([x for p in open_ for x in p.lags], 99, 1e3),
        "driver.open_read_p99_ms": _pct([x for p in open_ for x in p.lat["read"]], 99, 1e3),
        "driver.open_write_p99_ms": _pct([x for p in open_ for x in p.lat["write"]], 99, 1e3),
        "loop.lag_p99_ms": _pct([x for p in traced for x in p.loop_lags], 99, 1e3),
        "loop.cpu_util": sum(p.cpu for p in traced) / wall,
        "gateway.get.self_ms": _pct(selfs.get("gateway.get", []), 50, 1e3),
        "gateway.write.self_ms": _pct(
            selfs.get("gateway.put", []) + selfs.get("gateway.update", []), 50, 1e3
        ),
        "admission.wait_ms_p99": _pct(_durations(fg, "admission.wait"), 99, 1e3),
        "admission.shed_frac": c.sheds / n_ops,
        "cache.hit_ratio": c.cache_hits / lookups if lookups else 0.0,
        "cache.evictions_per_op": c.cache_evictions / n_ops,
        "layout.allocate_us_p50": _pct(c.allocate_us, 50),
        "layout.allocate_us_p99": _pct(c.allocate_us, 99),
        "layout.extents_per_object": float(np.mean(c.extents)) if c.extents else 0.0,
        "client.read_stripe.self_ms": _pct(selfs.get("client.read_stripe", []), 50, 1e3),
        "client.write_stripe.self_ms": _pct(selfs.get("client.write_stripe", []), 50, 1e3),
        "client.rmw_per_write": client.get("rmw_writes", 0) / n_writes if n_writes else 0.0,
        "client.retries": client.get("retries", 0),
        "client.breaker_short_circuits": client.get("breaker_short_circuits", 0),
        "codec.encode_us_p50": _pct(_durations(traced, "codec.encode"), 50, 1e6),
        "codec.decode_us_p50": _pct(_durations(traced, "codec.decode"), 50, 1e6),
        "codec.gbps": codec_bytes / codec_time / 1e9 if codec_time else 0.0,
        "codec.share": codec_self / op_wall if op_wall else 0.0,
        "wire.connects_per_op": c.connects / n_ops,
        "wire.connect_us_p50": _pct(c.connect_us, 50),
        "wire.rpcs_per_op": c.rpcs / n_ops,
        "wire.rpc_ms_p50": _pct(_durations(fg, "wire.rpc"), 50, 1e3),
        "wire.rpc_ms_p99": _pct(_durations(fg, "wire.rpc"), 99, 1e3),
        "wire.bytes_per_user_byte": (
            (c.wire_bytes_out + c.wire_bytes_in) / user_bytes if user_bytes else 0.0
        ),
        "node.disk_read_us_p50": _pct(c.disk_read_us, 50),
        "node.disk_write_us_p50": _pct(c.disk_write_us, 50),
        "node.requests_per_op": sum(p.node_requests for p in fg) / n_ops,
        "rebuild.fetch_ms": _pct(windows["fetch"], 50, 1e3),
        "rebuild.decode_ms": _pct(windows["decode"], 50, 1e3),
        "rebuild.put_ms": _pct(windows["put"], 50, 1e3),
        "rebuild.ingress_bytes_per_rebuilt_byte": c_rb.wire_bytes_in / rebuilt if rebuilt else 0.0,
        "host.cpu_ref_ms": statistics.median(w.cpu_ref),
        "trace.overhead": cap_base / cap_traced if cap_traced else 0.0,
        "trace.reconcile_err": reconcile([s for p in traced for s in p.spans]),
    }
