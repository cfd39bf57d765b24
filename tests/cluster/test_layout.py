"""The fixed ``k + 2`` layout: what the repair benchmark relies on.

On the default :class:`~repro.cluster.local.LocalCluster`, ``nodes[c]``
holds column *c* of every stripe, before and after a column rebuild;
stopping two data nodes makes every read run the two-data-column
decode (the paper's Algorithm 4) with the same erasure pattern; and a
:class:`~repro.cluster.health.HealthMonitor` that is never probed
still gates the data path with its breakers.  A larger pool scatters
columns, so a column rebuild there is refused.
"""

import asyncio

import numpy as np
import pytest

from repro.cluster import HealthMonitor, RebuildScheduler
from tests.cluster.conftest import (
    FAST_POLICY,
    elastic_sim_cluster,
    payload_for,
    sim_cluster,
)


def encoded_stripes(arr, data):
    """The encoded stripe buffers the array should hold for ``data``."""
    code = arr.code
    bufs = []
    for s in range(arr.n_stripes):
        buf = code.alloc_stripe()
        arr._fill_data_columns(
            buf, data[s * code.data_bytes : (s + 1) * code.data_bytes]
        )
        code.encode(buf)
        bufs.append(buf)
    return bufs


def assert_column_on_node(cluster, column, want):
    disk = cluster.nodes[column].disk
    for s, buf in enumerate(want):
        strip = disk.read_strip(s).reshape(buf[column].shape)
        assert np.array_equal(strip, buf[column])


class TestFixedLayout:
    def test_column_c_of_every_stripe_is_on_node_c(self):
        async def run():
            code, cluster = sim_cluster()
            async with cluster:
                arr = cluster.array(policy=FAST_POLICY)
                data = payload_for(arr, seed=21)
                await arr.write(0, data)
                want = encoded_stripes(arr, data)
                for col in range(code.n_cols):
                    assert arr.column_node(col) == f"n{col}"
                    assert_column_on_node(cluster, col, want)

        asyncio.run(run())

    def test_two_lost_data_nodes_give_one_erasure_pattern(self):
        async def run():
            code, cluster = sim_cluster()
            async with cluster:
                arr = cluster.array(policy=FAST_POLICY)
                data = payload_for(arr, seed=22)
                await arr.write(0, data)
                await cluster.stop_node(0)
                await cluster.stop_node(1)
                patterns = []
                decode = code.decode

                def spy(buf, erasures):
                    patterns.append(tuple(erasures))
                    return decode(buf, erasures)

                code.decode = spy
                assert await arr.read(0, arr.capacity) == data
                assert patterns == [(0, 1)] * arr.n_stripes

        asyncio.run(run())

    def test_rebuilt_column_lands_on_the_promoted_node(self):
        async def run():
            code, cluster = sim_cluster()
            async with cluster:
                arr = cluster.array(policy=FAST_POLICY)
                data = payload_for(arr, seed=23)
                await arr.write(0, data)
                want = encoded_stripes(arr, data)
                col = 1
                await cluster.stop_node(col)
                address = await cluster.start_replacement(col)
                await RebuildScheduler(arr).rebuild_column(col, address)
                cluster.promote_replacement(col)
                assert cluster.nodes[col].address == address
                assert arr.column_node(col) == f"n{col}"
                assert arr.membership.address_of(f"n{col}") == address
                assert_column_on_node(cluster, col, want)
                # Losing it again loses column `col` of every stripe.
                await cluster.stop_node(col)
                await cluster.stop_node(0)
                assert await arr.read(0, arr.capacity) == data

        asyncio.run(run())

    def test_unprobed_monitor_breakers_short_circuit_the_data_path(self):
        async def run():
            code, cluster = sim_cluster()
            async with cluster:
                arr = cluster.array(policy=FAST_POLICY)
                data = payload_for(arr, seed=24)
                await arr.write(0, data)
                HealthMonitor(arr)  # never probed, no spare
                await cluster.stop_node(0)
                await cluster.stop_node(1)
                for _ in range(3):
                    assert await arr.read(0, arr.capacity) == data
                assert arr.metrics.get("breaker_short_circuits") > 0

        asyncio.run(run())


class TestLargerPool:
    def test_column_rebuild_refuses_a_scattered_layout(self):
        async def run():
            code, cluster = elastic_sim_cluster()
            async with cluster:
                arr = cluster.array(policy=FAST_POLICY)
                await arr.write(0, payload_for(arr, seed=25))
                with pytest.raises(ValueError, match="not laid out on one node"):
                    await RebuildScheduler(arr).rebuild_column(0, ("127.0.0.1", 1))

        asyncio.run(run())
