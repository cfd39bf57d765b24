"""Wrap the layer entry points of the instances the benchmark builds.

Every wrapper replaces a bound method on one *instance* (never a class),
records a span or a count, and calls the original.  The program is not
told: no ``tracer=`` argument, no ``set_tracer``.  Layers and the
methods through which they are entered:

==================  ===========================================================
gateway             ``ObjectGateway.get`` / ``put`` / ``update``
admission           ``gateway.admission.acquire`` (queue wait, sheds)
cache               ``gateway.cache.get`` / ``put`` (hits, misses, evictions)
layout              ``gateway.allocator.allocate``
client              ``ClusterArray.read`` / ``write`` / ``read_stripe`` /
                    ``write_stripe``
codec               ``code.encode`` / ``code.decode`` and
                    ``RebuildScheduler.coder.decode``
wire                ``Transport.connect`` plus the streams it returns: each
                    request frame is timed to its reply frame, so the span
                    stays right if a channel carries many requests
node                ``cluster.nodes[i].disk.read_strip`` / ``write_strip``
rebuild             ``RebuildScheduler.rebuild_column``
==================  ===========================================================
"""

from __future__ import annotations

import functools
import json
import struct
from collections import deque

from repro.gateway.admission import Overloaded
from spans import Recorder, Span, now

#: The cluster protocol's frame layout: preamble (magic, header length,
#: payload length), header, payload, CRC-32.
_PREAMBLE = struct.Struct("!4sII")
_CRC_BYTES = 4


def wrap_async(rec: Recorder, obj, method: str, name: str, layer: str) -> None:
    """Replace ``obj.method`` with a version that records a ``layer`` span
    named ``name`` around each call made inside an op."""
    orig = getattr(obj, method)

    @functools.wraps(orig)
    async def wrapper(*args, **kwargs):
        span = rec.begin(name, layer)
        if span is None:
            return await orig(*args, **kwargs)
        token = rec.push(span)
        try:
            return await orig(*args, **kwargs)
        finally:
            rec.pop(span, token)

    setattr(obj, method, wrapper)


def wrap_sync(
    rec: Recorder, obj, method: str, name: str, layer: str, nbytes=None
) -> None:
    """Like :func:`wrap_async`; ``nbytes(args)`` stores the bytes the
    call processes on the span (codec throughput)."""
    orig = getattr(obj, method)

    @functools.wraps(orig)
    def wrapper(*args, **kwargs):
        span = rec.begin(name, layer)
        if span is None:
            return orig(*args, **kwargs)
        if nbytes is not None:
            span.attrs = {"bytes": nbytes(args)}
        token = rec.push(span)
        try:
            return orig(*args, **kwargs)
        finally:
            rec.pop(span, token)

    setattr(obj, method, wrapper)


class _FrameCounter:
    """Finds frame boundaries in a byte stream of the cluster protocol.

    Fed every chunk written or read; calls ``on_start(header_bytes)``
    once a frame's header is complete and ``on_end()`` when its last
    byte (the CRC) has passed.
    """

    def __init__(self, on_start, on_end) -> None:
        self.on_start = on_start
        self.on_end = on_end
        self._head = bytearray()  # preamble + header of the current frame
        self._need_head = _PREAMBLE.size
        self._hlen = -1
        self._body_left = 0  # payload + CRC bytes still to pass

    def feed(self, data) -> None:
        view = memoryview(data).cast("B")
        while len(view):
            if self._need_head:
                take = min(self._need_head, len(view))
                self._head += view[:take]
                view = view[take:]
                self._need_head -= take
                if self._need_head == 0 and self._hlen < 0:
                    _, hlen, plen = _PREAMBLE.unpack(self._head[: _PREAMBLE.size])
                    self._hlen = hlen
                    self._need_head = hlen
                    self._body_left = plen + _CRC_BYTES
                if self._need_head == 0:
                    self.on_start(bytes(self._head[_PREAMBLE.size :]))
                continue
            take = min(self._body_left, len(view))
            view = view[take:]
            self._body_left -= take
            if self._body_left == 0:
                self.on_end()
                self._head.clear()
                self._need_head = _PREAMBLE.size
                self._hlen = -1


class _Channel:
    """One client connection: pairs request frames with reply frames.

    A request's span opens when its frame's header has been written
    and closes when the matching reply frame has been read in full;
    replies match requests in order, as they do on any stream.
    """

    def __init__(self, rec: Recorder) -> None:
        self.rec = rec
        self.pending: deque[Span | None] = deque()
        self.out = _FrameCounter(self._request_start, lambda: None)
        self.inp = _FrameCounter(lambda _hdr: None, self._reply_end)

    def _request_start(self, header: bytes) -> None:
        span = self.rec.begin("wire.rpc", "wire")
        if span is not None:
            span.attrs = {"verb": json.loads(header).get("verb", "?")}
            self.rec.counters.rpcs += 1
        self.pending.append(span)

    def _reply_end(self) -> None:
        if self.pending:
            span = self.pending.popleft()
            if span is not None:
                span.end = now()


class _Writer:
    def __init__(self, inner, channel: _Channel) -> None:
        self._inner = inner
        self._channel = channel

    def write(self, data) -> None:
        self._channel.rec.counters.wire_bytes_out += len(memoryview(data).cast("B"))
        self._channel.out.feed(data)
        self._inner.write(data)

    async def wait_closed(self) -> None:
        span = self._channel.rec.begin("wire.close", "wire")
        if span is None:
            return await self._inner.wait_closed()
        token = self._channel.rec.push(span)
        try:
            return await self._inner.wait_closed()
        finally:
            self._channel.rec.pop(span, token)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class _Reader:
    def __init__(self, inner, channel: _Channel) -> None:
        self._inner = inner
        self._channel = channel

    async def readexactly(self, n: int) -> bytes:
        data = await self._inner.readexactly(n)
        self._channel.rec.counters.wire_bytes_in += len(data)
        self._channel.inp.feed(data)
        return data

    def __getattr__(self, name):
        return getattr(self._inner, name)


def wrap_transport(rec: Recorder, transport) -> None:
    orig = transport.connect

    async def connect(address):
        span = rec.begin("wire.connect", "wire")
        if span is None:
            reader, writer = await orig(address)
        else:
            token = rec.push(span)
            try:
                reader, writer = await orig(address)
            finally:
                rec.pop(span, token)
            rec.counters.connects += 1
            rec.counters.connect_us.append(span.duration * 1e6)
        channel = _Channel(rec)
        return _Reader(reader, channel), _Writer(writer, channel)

    transport.connect = connect


def wrap_timed(rec: Recorder, obj, method: str, samples: str) -> None:
    """Time a synchronous call in microseconds into ``rec.counters.<samples>``
    while a traced phase runs (node-side calls belong to no op)."""
    orig = getattr(obj, method)

    @functools.wraps(orig)
    def wrapper(*args, **kwargs):
        if not rec.tracing:
            return orig(*args, **kwargs)
        t0 = now()
        try:
            return orig(*args, **kwargs)
        finally:
            getattr(rec.counters, samples).append((now() - t0) * 1e6)

    setattr(obj, method, wrapper)


def instrument_stack(rec: Recorder, stack) -> None:
    """Wrap every layer of a :class:`workloads.Stack`."""
    code, array = stack.code, stack.array
    stripe_bytes = code.data_bytes
    wrap_sync(rec, code, "encode", "codec.encode", "codec", lambda a: stripe_bytes)
    wrap_sync(rec, code, "decode", "codec.decode", "codec", lambda a: stripe_bytes)
    wrap_transport(rec, stack.transport)
    for method in ("read", "write", "read_stripe", "write_stripe"):
        wrap_async(rec, array, method, f"client.{method}", "client")
    instrument_nodes(rec, stack.cluster.nodes)
    gw = stack.gateway
    if gw is None:
        return
    for method in ("get", "put", "update"):
        wrap_async(rec, gw, method, f"gateway.{method}", "gateway")
    _wrap_admission(rec, gw.admission)
    _wrap_cache(rec, gw.cache)
    _wrap_allocator(rec, gw.allocator)


def instrument_nodes(rec: Recorder, nodes) -> None:
    for node in nodes:
        wrap_timed(rec, node.disk, "read_strip", "disk_read_us")
        wrap_timed(rec, node.disk, "write_strip", "disk_write_us")


def instrument_rebuild(rec: Recorder, scheduler) -> None:
    stripe_bytes = scheduler.array.code.data_bytes
    wrap_async(rec, scheduler, "rebuild_column", "rebuild.column", "rebuild")
    wrap_sync(
        rec, scheduler.coder, "decode", "codec.batch_decode", "codec",
        lambda a: a[0].shape[0] * stripe_bytes,
    )


def _wrap_admission(rec: Recorder, admission) -> None:
    orig = admission.acquire

    async def acquire():
        span = rec.begin("admission.wait", "admission")
        if span is None:
            return await orig()
        token = rec.push(span)
        try:
            return await orig()
        except Overloaded:
            rec.counters.sheds += 1
            raise
        finally:
            rec.pop(span, token)

    admission.acquire = acquire


def _wrap_cache(rec: Recorder, cache) -> None:
    orig_get, orig_put = cache.get, cache.put

    def get(stripe):
        payload = orig_get(stripe)
        if rec.tracing:
            if payload is None:
                rec.counters.cache_misses += 1
            else:
                rec.counters.cache_hits += 1
        return payload

    def put(stripe, payload):
        before = len(cache) + (stripe not in cache)
        orig_put(stripe, payload)
        if rec.tracing and cache.capacity:
            rec.counters.cache_evictions += max(0, before - len(cache))

    cache.get, cache.put = get, put


def _wrap_allocator(rec: Recorder, allocator) -> None:
    orig = allocator.allocate

    def allocate(size):
        span = rec.begin("layout.allocate", "layout")
        if span is None:
            return orig(size)
        token = rec.push(span)
        try:
            extents = orig(size)
        finally:
            rec.pop(span, token)
        rec.counters.allocate_us.append(span.duration * 1e6)
        rec.counters.extents.append(len(extents))
        return extents

    allocator.allocate = allocate
