"""Stale columns after a restart: reads, RMW, scrub and the gateway.

A degraded write skips the column of a stopped node; when that node is
restarted it comes back with its old disk, so its strip of the stripe
is *stale* -- it answers reads, with bytes the stripe no longer holds.
The array's dirty list turns that unknown error into a known erasure,
and every path that assembles the stripe must decode around it.  Each
case below fails if any path trusts the restarted column's strip.
"""

import asyncio

import pytest

from repro.cluster import ClusterScrubber, TwoPhaseWriter
from repro.cluster.txn import ClientCrash
from repro.gateway.objstore import ObjectGateway
from tests.cluster.conftest import FAST_POLICY, payload_for, sim_cluster

#: Stale column first (P is 3, Q is 4 at k = 3), then what runs after
#: the restart.
CASES = [
    pytest.param(0, "read", id="read-after-restart"),
    pytest.param(0, "rmw-then-deep-scrub", id="rmw-then-deep-scrub"),
    pytest.param(3, "lose-data-column", id="stale-P-lost-data"),
    pytest.param(4, "lose-data-column", id="stale-Q-lost-data"),
    pytest.param(0, "gateway", id="gateway-put-during-outage"),
]


@pytest.mark.parametrize("stale, then", CASES)
def test_restarted_column_is_never_trusted(stale, then):
    async def run():
        code, cluster = sim_cluster(k=3, p=5, n_stripes=4)
        async with cluster:
            arr = cluster.array(policy=FAST_POLICY)
            sdb = arr.stripe_data_bytes
            want = bytearray(payload_for(arr, seed=1))
            await arr.write(0, bytes(want))
            gateway = ObjectGateway(arr) if then == "gateway" else None

            await cluster.stop_node(stale)
            if gateway is None:
                # A full-stripe write of stripe 1 skips the stopped column.
                fresh = payload_for(arr, seed=2)[:sdb]
                await arr.write(sdb, fresh)
                want[sdb : 2 * sdb] = fresh
            else:
                obj = payload_for(arr, seed=3)[: sdb + 100]
                await gateway.put("obj", obj)
            assert arr.dirty_stripes, "the write should have skipped a column"
            await cluster.restart_node(stale)

            if then == "gateway":
                gateway.cache.clear()
                assert await gateway.get("obj") == obj
                return
            if then == "rmw-then-deep-scrub":
                # 16 bytes in another data column of the same stripe.
                patch = bytes(range(16))
                off = sdb + code.strip_bytes + 8
                await arr.write(off, patch)
                want[off : off + 16] = patch
                report = await ClusterScrubber(arr).scrub(deep=True)
                assert report.healthy
            if then == "lose-data-column":
                await cluster.stop_node(0)
            assert await arr.read(0, arr.capacity) == bytes(want)

    asyncio.run(run())


@pytest.mark.parametrize("p_down", ["during-the-write", "during-recovery"])
def test_writer_crash_recovery_marks_the_missed_column_stale(p_down):
    """A two-phase write whose coordinator dies mid-commit: recovery
    rolls it forward, and P -- skipped by the write, or unreachable
    when recovery rolls it forward -- must be recorded stale, since
    the writer never did."""

    async def run():
        code, cluster = sim_cluster(k=3, p=5, n_stripes=2)
        async with cluster:
            arr = cluster.array(policy=FAST_POLICY)
            sdb = arr.stripe_data_bytes
            await arr.write(0, payload_for(arr, seed=1))
            new = payload_for(arr, seed=2)[:sdb]
            buf = code.alloc_stripe()
            arr._fill_data_columns(buf, new)
            code.encode(buf)

            writer = TwoPhaseWriter(arr, client_id="t")
            # One prepare per column, one commit, then death.
            writer.crash.arm(after=code.n_cols + 1)
            if p_down == "during-the-write":
                await cluster.stop_node(code.p_col)
                with pytest.raises(ClientCrash):
                    await writer.write_stripe(0, buf)
                await cluster.restart_node(code.p_col)
                recovered = await writer.recover()
            else:
                with pytest.raises(ClientCrash):
                    await writer.write_stripe(0, buf)
                await cluster.stop_node(code.p_col)
                recovered = await writer.recover()
                await cluster.restart_node(code.p_col)
            assert recovered["rolled_forward"] == ["t-1"]

            await cluster.stop_node(0)
            assert await arr.read(0, sdb) == new

    asyncio.run(run())
