"""Distributed scrub drills: silent corruption is found and fixed in place.

Covers the paper's single-column locator over the wire, the CRC-32
fast path (and its blind spot: stale-but-consistent strips, which only
a deep pass catches), dirty-first scheduling after degraded writes,
and the idle economy -- a scrubber between passes issues no RPCs.
"""

import asyncio

import numpy as np

from repro.array.faults import NetworkFaultPlan
from repro.cluster import ClusterScrubber
from tests.cluster.conftest import FAST_POLICY, payload_for, sim_cluster


def total_requests(cluster) -> int:
    """All RPCs ever served, summed over the cluster's nodes."""
    total = 0
    for node in cluster.nodes:
        counters = node.metrics.snapshot()["counters"]
        total += sum(v for k, v in counters.items() if k.startswith("requests_"))
    return total


def strip_requests(cluster, verb="get") -> int:
    return sum(
        node.metrics.snapshot()["counters"].get(f"requests_{verb}", 0)
        for node in cluster.nodes
    )


class TestLocatorRepair:
    def test_single_column_corruption_located_and_repaired(self):
        async def run():
            code, cluster = sim_cluster()
            async with cluster:
                arr = cluster.array(policy=FAST_POLICY)
                data = payload_for(arr)
                await arr.write(0, data)
                pristine = cluster.nodes[1].disk.read_strip(3).copy()
                cluster.nodes[1].disk.corrupt(3, seed=99)
                report = await ClusterScrubber(arr).scrub()
                assert report.corrected == [(3, 1)]
                assert (3, 1) in report.crc_mismatches
                assert report.healthy
                repaired = cluster.nodes[1].disk.read_strip(3)
                assert np.array_equal(repaired, pristine)
                # The repair also refreshed the node's sidecar.
                second = await ClusterScrubber(arr).scrub()
                assert second.stripes_clean == arr.n_stripes

        asyncio.run(run())

    def test_two_column_corruption_is_uncorrectable(self):
        async def run():
            code, cluster = sim_cluster()
            async with cluster:
                arr = cluster.array(policy=FAST_POLICY)
                await arr.write(0, payload_for(arr))
                cluster.nodes[0].disk.corrupt(2, seed=7)
                cluster.nodes[3].disk.corrupt(2, seed=8)
                report = await ClusterScrubber(arr).scrub()
                assert report.uncorrectable == [2]
                assert not report.healthy

        asyncio.run(run())


class TestChecksumFastPath:
    def test_clean_pass_ships_no_strips(self):
        async def run():
            code, cluster = sim_cluster()
            async with cluster:
                arr = cluster.array(policy=FAST_POLICY)
                await arr.write(0, payload_for(arr))
                gets_before = strip_requests(cluster, "get")
                report = await ClusterScrubber(arr).scrub()
                assert report.fast_path_hits == arr.n_stripes
                assert report.stripes_clean == arr.n_stripes
                # Probes only -- not a single strip crossed the wire.
                assert strip_requests(cluster, "get") == gets_before
                assert strip_requests(cluster, "scrub-read") > 0

        asyncio.run(run())

    def test_deep_pass_catches_stale_but_consistent_strip(self):
        """A stale strip matches its own sidecar, so only a deep pass
        (full fetch + parity verify) can see it."""

        async def run():
            code, cluster = sim_cluster()
            async with cluster:
                arr = cluster.array(policy=FAST_POLICY)
                await arr.write(0, payload_for(arr, seed=1))
                # Re-write stripe 0 everywhere except column 2: that
                # node now holds a stale strip with a *valid* sidecar.
                buf = code.alloc_stripe()
                rng = np.random.default_rng(2)
                buf[: code.k] = rng.integers(
                    0, 2**64, buf[: code.k].shape, dtype=np.uint64
                )
                code.encode(buf)
                cols = [c for c in range(code.n_cols) if c != 2]
                await arr.write_stripe(0, buf, columns=cols)

                shallow = await ClusterScrubber(arr).scrub()
                assert shallow.stripes_clean == arr.n_stripes  # blind spot
                deep = await ClusterScrubber(arr).scrub(deep=True)
                assert deep.fast_path_hits == 0
                assert (0, 2) in deep.corrected
                assert np.array_equal(
                    cluster.nodes[2].disk.read_strip(0).reshape(buf[2].shape),
                    buf[2],
                )

        asyncio.run(run())


class TestDirtyStripes:
    def test_degraded_write_scrubbed_first_and_cleared(self):
        async def run():
            code, cluster = sim_cluster()
            async with cluster:
                arr = cluster.array(policy=FAST_POLICY)
                await arr.write(0, payload_for(arr))
                buf = code.alloc_stripe()
                buf[: code.k] = 7
                code.encode(buf)
                await cluster.stop_node(4)
                skipped = await arr.write_stripe(1, buf)
                assert skipped == [4]
                assert arr.dirty_stripes == {1: {4}}

                await cluster.restart_node(4)
                arr.replace_node(4, cluster.nodes[4].address)
                report = await ClusterScrubber(arr).scrub()
                assert (1, 4) in report.corrected
                assert report.healthy
                assert not arr.dirty_stripes
                assert np.array_equal(
                    cluster.nodes[4].disk.read_strip(1).reshape(buf[4].shape),
                    buf[4],
                )

        asyncio.run(run())

    def test_unreachable_column_defers_the_stripe(self):
        async def run():
            code, cluster = sim_cluster()
            async with cluster:
                arr = cluster.array(policy=FAST_POLICY)
                await arr.write(0, payload_for(arr))
                buf = code.alloc_stripe()
                buf[: code.k] = 3
                code.encode(buf)
                await cluster.stop_node(0)
                await arr.write_stripe(2, buf)
                report = await ClusterScrubber(arr).scrub()
                assert 2 in report.deferred
                assert not report.healthy
                assert arr.dirty_stripes == {2: {0}}  # kept for the next pass

        asyncio.run(run())

    def test_write_racing_a_repair_is_not_overwritten(self):
        """A foreground write that lands while the scrubber is between
        reading a stripe and writing a decoded strip back must not be
        overwritten by the older decoded bytes."""

        async def run():
            code, cluster = sim_cluster()
            async with cluster:
                arr = cluster.array(policy=FAST_POLICY)
                sdb = arr.stripe_data_bytes
                want = bytearray(payload_for(arr, seed=1))
                await arr.write(0, bytes(want))
                await cluster.stop_node(code.q_col)
                await arr.write(sdb, payload_for(arr, seed=2)[:sdb])
                await cluster.restart_node(code.q_col)
                # Q is slow: the write's Q put is still in flight when
                # the scrubber sends its decoded Q strip.
                cluster.nodes[code.q_col].faults = NetworkFaultPlan(latency=0.3)
                fresh = payload_for(arr, seed=3)[:sdb]
                await asyncio.gather(
                    ClusterScrubber(arr).scrub_stripe(1), arr.write(sdb, fresh)
                )
                want[sdb : 2 * sdb] = fresh
                cluster.nodes[code.q_col].faults = NetworkFaultPlan()
                # Only Q and one data column can recover the stripe now.
                await cluster.stop_node(0)
                await cluster.stop_node(code.p_col)
                return bytes(want), await arr.read(0, arr.capacity)

        want, back = asyncio.run(run())
        assert back == want


class TestIdleEconomy:
    def test_idle_scrubber_issues_no_rpcs(self):
        async def run():
            code, cluster = sim_cluster()
            async with cluster:
                arr = cluster.array(policy=FAST_POLICY)
                await arr.write(0, payload_for(arr))
                scrubber = ClusterScrubber(arr, interval=30.0)
                scrubber.start()
                while arr.metrics.get("scrub_passes") == 0:
                    await asyncio.sleep(0)
                after_pass = total_requests(cluster)
                await arr.clock.sleep(10.0)  # idle: inside the interval
                assert total_requests(cluster) == after_pass
                await scrubber.stop()

        asyncio.run(run())
