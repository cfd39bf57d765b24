"""Kept-open node channels: reuse, stale-reply safety, clean shutdown.

A :class:`~repro.cluster.client.NodeClient` keeps its connections open
and reuses one after every complete, CRC-valid reply; any failed
exchange closes its connection so a late reply can never answer a
later request.  :meth:`StripNode.stop` hangs up on every open
connection and waits for the handlers.  The drills run on the sim seam
(deterministic), except the one real-socket shutdown test.
"""

import asyncio
import logging
from collections import Counter

import numpy as np
import pytest

from repro.array.faults import NetworkFaultPlan
from repro.cluster import (
    HealthMonitor,
    LocalCluster,
    NodeClient,
    NodeUnavailableError,
    RebuildScheduler,
    RetryPolicy,
    StripNode,
)
from repro.codes import make_code
from repro.sim import MemoryTransport, VirtualClock
from repro.utils.words import WORD_DTYPE

from tests.cluster.conftest import payload_for

STRIP_WORDS = 10
ONE_SHOT = RetryPolicy(attempts=1, timeout=0.5)
#: real seconds a node gets to stop: a stop that waits on a handler
#: nobody hung up on fails the test instead of hanging the suite
STOP_TIMEOUT = 2.0


class CountingTransport(MemoryTransport):
    """A memory network that counts the connections opened per address."""

    def __init__(self) -> None:
        super().__init__()
        self.connects: Counter = Counter()

    async def connect(self, address):
        self.connects[tuple(address)] += 1
        return await super().connect(address)


def strip(seed: int) -> bytes:
    return np.random.default_rng(seed).integers(
        0, 2**64, STRIP_WORDS, dtype=WORD_DTYPE
    ).tobytes()


def run_node(coro_fn, *, policy=ONE_SHOT):
    """Start a sim node, run ``coro_fn(node, client, transport)``, stop."""

    async def run():
        transport, clock = CountingTransport(), VirtualClock()
        node = StripNode(0, 8, STRIP_WORDS, transport=transport, clock=clock)
        await node.start()
        client = NodeClient(
            node.address, policy=policy, transport=transport, clock=clock
        )
        for stripe in range(8):
            await client.request("put", {"stripe": stripe}, strip(stripe))
        try:
            return await coro_fn(node, client, transport)
        finally:
            await asyncio.wait_for(node.stop(), STOP_TIMEOUT)

    return asyncio.run(run())


class TestReuse:
    def test_sequential_requests_share_one_connection(self):
        async def go(node, client, transport):
            for i in range(50):
                _, data = await client.request("get", {"stripe": i % 8})
                assert data == strip(i % 8)
            open_now = node.metrics.gauge("connections_open").value
            return transport.connects[node.address], client, open_now

        connects, client, open_now = run_node(go)
        assert connects == 1
        assert client.connects == 1
        assert client.connection_reuses == 8 + 50 - 1
        assert open_now == 1

    def test_concurrent_requests_open_at_most_their_concurrency(self):
        async def go(node, client, transport):
            for _ in range(5):
                await asyncio.gather(
                    *(client.request("get", {"stripe": s}) for s in range(4))
                )
            return transport.connects[node.address]

        assert run_node(go) == 4

    def test_hung_up_idle_connection_is_replaced_without_a_retry(self):
        async def go(node, client, transport):
            # Hangs up on the client's idle connection.
            await asyncio.wait_for(node.stop(), STOP_TIMEOUT)
            await node.start()
            client.address = node.address
            _, data = await client.request("get", {"stripe": 2})
            return data, client.metrics.snapshot()["counters"], client.connects

        data, counters, connects = run_node(go)
        assert data == strip(2)
        assert "connection_errors" not in counters
        assert "retries" not in counters
        assert connects == 2

    def test_close_drops_idle_connections(self):
        async def go(node, client, transport):
            client.close()
            for _ in range(3):
                await asyncio.sleep(0)
            open_after_close = node.metrics.gauge("connections_open").value
            _, data = await client.request("get", {"stripe": 1})
            return open_after_close, data, transport.connects[node.address]

        open_after_close, data, connects = run_node(go)
        assert open_after_close == 0
        assert data == strip(1)
        assert connects == 2


class TestStaleReplies:
    def test_timed_out_reply_never_answers_the_next_request(self):
        async def go(node, client, transport):
            node.faults = NetworkFaultPlan(latency=1.0, slow_requests=1)
            with pytest.raises(NodeUnavailableError):
                await client.request("get", {"stripe": 3})
            _, data = await client.request("get", {"stripe": 4})
            # Let the slow handler finish; its late reply must go nowhere.
            await client.clock.sleep(1.0)
            _, again = await client.request("get", {"stripe": 5})
            return data, again, client.metrics.snapshot()["counters"]

        data, again, counters = run_node(go)
        assert data == strip(4)
        assert again == strip(5)
        assert counters["timeouts"] == 1

    def test_corrupt_reply_closes_its_connection(self):
        async def go(node, client, transport):
            node.faults = NetworkFaultPlan(corrupt_frames=1)
            with pytest.raises(NodeUnavailableError):
                await client.request("get", {"stripe": 6})
            _, data = await client.request("get", {"stripe": 7})
            return data, client.connects, client.metrics.snapshot()["counters"]

        data, connects, counters = run_node(go)
        assert data == strip(7)
        assert connects == 2
        assert counters["frame_errors"] == 1

    def test_dropped_reply_is_retried_on_a_fresh_connection(self):
        policy = RetryPolicy(attempts=2, timeout=0.5, backoff=0.01)

        async def go(node, client, transport):
            node.faults = NetworkFaultPlan(drop_mid_frame=1)
            _, data = await client.request("get", {"stripe": 2})
            _, after = await client.request("get", {"stripe": 3})
            return data, after, client.connects

        data, after, connects = run_node(go, policy=policy)
        assert (data, after) == (strip(2), strip(3))
        assert connects == 2


class TestNodeStop:
    def test_stop_hangs_up_on_idle_connections(self):
        async def go(node, client, transport):
            await client.request("ping")
            assert node.metrics.gauge("connections_open").value == 1
            await asyncio.wait_for(node.stop(), STOP_TIMEOUT)
            return node

        node = run_node(go)
        assert not node._conns
        assert node.metrics.gauge("connections_open").value == 0

    def test_stop_waits_for_a_handler_mid_request(self):
        async def go(node, client, transport):
            node.faults = NetworkFaultPlan(latency=0.2)
            pending = asyncio.ensure_future(client.request("get", {"stripe": 1}))
            for _ in range(5):
                await asyncio.sleep(0)
            await asyncio.wait_for(node.stop(), STOP_TIMEOUT)
            with pytest.raises(NodeUnavailableError):
                await pending
            return node

        assert not run_node(go)._conns

    @pytest.mark.slow
    def test_real_socket_stop_with_open_client_connection(self, caplog):
        """A kept-open idle connection neither delays ``stop()`` nor
        makes asyncio log an error (on Python 3.12 the listener's
        ``wait_closed`` waits for open connections)."""
        errors = []

        async def run():
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: errors.append(context)
            )
            node = StripNode(0, 4, STRIP_WORDS)
            await node.start()
            client = NodeClient(node.address, policy=ONE_SHOT)
            await client.request("put", {"stripe": 1}, strip(1))
            _, data = await client.request("get", {"stripe": 1})
            assert data == strip(1)
            assert client.connects == 1
            loop = asyncio.get_running_loop()
            t0 = loop.time()
            await asyncio.wait_for(node.stop(), STOP_TIMEOUT)
            elapsed = loop.time() - t0
            client.close()
            return node, elapsed

        with caplog.at_level(logging.WARNING, logger="asyncio"):
            node, elapsed = asyncio.run(run())
        assert elapsed < 1.0
        assert not node._conns
        assert errors == []
        assert [r for r in caplog.records if r.name == "asyncio"] == []


def test_health_probes_reuse_one_connection_per_node():
    async def run():
        transport = CountingTransport()
        code = make_code("liberation-optimal", 3, p=5, element_size=64)
        cluster = LocalCluster(code, 4, transport=transport, clock=VirtualClock())
        await cluster.start()
        try:
            monitor = HealthMonitor(cluster.array())
            for _ in range(20):
                assert all((await monitor.probe_once()).values())
            per_node = [transport.connects[a] for a in cluster.addresses]
            served = [
                n.metrics.snapshot()["counters"]["requests_ping"]
                for n in cluster.nodes
            ]
            # A node that moves gets a fresh probe channel.
            await asyncio.wait_for(cluster.stop_node(1), STOP_TIMEOUT)
            moved = await cluster.restart_node(1)
            for _ in range(3):
                assert (await monitor.probe_once())["n1"]
            await monitor.stop()
            return per_node, served, transport.connects[moved]
        finally:
            await asyncio.wait_for(cluster.stop(), STOP_TIMEOUT)

    per_node, served, moved_connects = asyncio.run(run())
    assert per_node == [1] * 5
    assert served == [20] * 5
    assert moved_connects == 1


def test_rebuild_and_superseded_clients_leave_no_connection_open():
    async def run():
        code = make_code("liberation-optimal", 3, p=5, element_size=64)
        cluster = LocalCluster(
            code, 4, transport=MemoryTransport(), clock=VirtualClock()
        )
        await cluster.start()
        try:
            arr = cluster.array()
            data = payload_for(arr, seed=3)
            await arr.write(0, data)
            old_client = arr.client_for_node("n2")
            await cluster.stop_node(2)
            address = await cluster.start_replacement(2)
            replacement = cluster.replacements[2]
            await RebuildScheduler(arr, batch_stripes=2).rebuild_column(2, address)
            for _ in range(3):
                await asyncio.sleep(0)
            # The scheduler's own channel to the replacement is closed.
            open_after_rebuild = replacement.metrics.gauge("connections_open").value
            cluster.promote_replacement(2)
            new_client = arr.client_for_node("n2")
            assert new_client is not old_client
            readback = await arr.read(0, len(data))
            return open_after_rebuild, old_client._idle, readback == data
        finally:
            await asyncio.wait_for(cluster.stop(), STOP_TIMEOUT)

    open_after_rebuild, old_idle, intact = asyncio.run(run())
    assert open_after_rebuild == 0
    assert old_idle == []
    assert intact
