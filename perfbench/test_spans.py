"""Tests of the benchmark's span arithmetic and frame pairing.

Run from the root of a checkout::

    python3 -m pytest perfbench/test_spans.py
"""

from __future__ import annotations

import asyncio
import struct
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from instrument import _Channel  # noqa: E402
from spans import (  # noqa: E402
    Recorder,
    Span,
    layer_times,
    reconcile,
    self_intervals,
    subtract,
    total,
    union,
)


def span(name, layer, start, end, parent=None, op=1):
    s = Span(name, layer, parent, op)
    s.start, s.end = start, end
    return s


def test_union_merges_overlaps_and_touching_runs():
    assert union([(5, 7), (0, 2), (1, 3), (3, 4), (9, 9)]) == [(0, 4), (5, 7)]


def test_subtract_clips_to_the_span():
    assert subtract((0, 10), [(-5, 1), (3, 4), (8, 20)]) == [(1, 3), (4, 8)]
    assert subtract((0, 10), []) == [(0, 10)]
    assert subtract((0, 10), [(0, 10)]) == []


def test_self_time_counts_overlapping_children_once():
    # A stripe write fanning out to three parallel RPCs: [1, 5], [2, 6]
    # and [2, 4] cover [1, 6] together, so the parent's self time over
    # [0, 10] is 10 - 5 = 5, not 10 - (4 + 4 + 2) = 0.
    root = span("write", "driver", 0, 10)
    parent = span("client.write_stripe", "client", 0, 10, root)
    kids = [
        span("wire.rpc", "wire", 1, 5, parent),
        span("wire.rpc", "wire", 2, 6, parent),
        span("wire.rpc", "wire", 2, 4, parent),
    ]
    selfs = self_intervals([root, parent, *kids])
    assert total(selfs[id(parent)]) == pytest.approx(5)
    assert selfs[id(parent)] == [(0, 1), (6, 10)]
    assert total(selfs[id(root)]) == 0
    assert [total(selfs[id(k)]) for k in kids] == [4, 4, 2]


def test_layer_times_union_parallel_siblings_and_reconcile():
    root = span("write", "driver", 0, 10)
    client = span("client.write_stripe", "client", 1, 9, root)
    rpcs = [span("wire.rpc", "wire", 2, 6, client), span("wire.rpc", "wire", 3, 7, client)]
    walls, layers = layer_times([root, client, *rpcs])
    assert walls == {1: 10}
    assert layers[1] == {"driver": 2, "client": 3, "wire": 5}
    # Program layers cover 8 of the 10 wall seconds: the load generator's own 2
    # are the unattributed residual.
    assert reconcile([root, client, *rpcs]) == pytest.approx(0.2)


def test_reconcile_counts_two_busy_layers_twice():
    root = span("read", "driver", 0, 10)
    client = span("client.read", "client", 0, 10, root)
    a = span("client.read_stripe", "client", 0, 10, client)
    wire = span("wire.rpc", "wire", 0, 10, a)
    codec = span("codec.decode", "codec", 4, 6, client)  # parallel task
    # client self time is 0; wire covers [0, 10]; codec [4, 6] overlaps it.
    assert reconcile([root, client, a, wire, codec]) == pytest.approx(0.2)


def _frame(header: bytes, payload: bytes) -> list[bytes]:
    return [struct.pack("!4sII", b"RPR1", len(header), len(payload)), header, payload, b"\0" * 4]


def test_channel_pairs_pipelined_frames_in_order():
    async def main():
        rec = Recorder()
        with rec.op("op"):
            channel = _Channel(rec)
            for verb in (b'{"verb":"get"}', b'{"verb":"put"}'):
                for part in _frame(verb, b"x" * 10):
                    channel.out.feed(part)
            first, second = [s for s in rec.spans if s.name == "wire.rpc"]
            assert [first.attrs["verb"], second.attrs["verb"]] == ["get", "put"]
            reply = b"".join(_frame(b'{"status":"ok"}', b"y" * 7))
            # Delivered in odd-sized pieces, as a socket may.
            for i in range(0, len(reply), 5):
                channel.inp.feed(reply[i : i + 5])
            assert first.end > first.start and second.end == second.start
            for part in _frame(b'{"status":"ok"}', b""):
                channel.inp.feed(part)
            assert second.end > second.start
            assert rec.counters.rpcs == 2

    asyncio.run(main())
