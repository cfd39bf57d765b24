"""Rebalancer drills: throttled migration, drains, heals, crash sweeps.

Everything runs on the simulation seam (in-memory transport + virtual
clock), so the throttle's pacing is measured in exact virtual seconds
and every churn schedule replays identically.  The crash sweeps are
the heart of the file: every node-side crash point of the migration
protocol (``migrate-before-log``, ``migrate-before-reply``,
``commit-before-apply``, ``commit-before-reply``, ``release-before-drop``,
``release-before-reply``) and every coordinator-side RPC position must
leave a stripe either fully at its old holders or fully at its new
ones -- never a mix -- and a recovery pass must finish the job.
"""

import asyncio

import pytest

from repro.cluster import ClusterError, MembershipError, TokenBucket
from repro.cluster.health import HealthMonitor
from repro.cluster.membership import NodeState
from repro.cluster.rebalance import Rebalancer
from repro.cluster.txn import ClientCrash, TwoPhaseWriter
from repro.sim import VirtualClock
from tests.cluster.conftest import FAST_POLICY, elastic_sim_cluster, payload_for


class TestTokenBucket:
    def test_burst_is_free_then_debt_is_paid_at_rate(self):
        async def run():
            clock = VirtualClock()
            bucket = TokenBucket(100.0, 50.0, clock)
            assert await bucket.take(50) == 0.0  # within burst
            slept = await bucket.take(100)  # overdraft of 100 tokens
            assert slept == pytest.approx(1.0)
            assert clock.time() == pytest.approx(1.0)

        asyncio.run(run())

    def test_sustained_throughput_converges_to_rate(self):
        async def run():
            clock = VirtualClock()
            bucket = TokenBucket(100.0, 100.0, clock)
            for _ in range(10):
                await bucket.take(100)
            # 1000 tokens through a 100/s bucket with 100 burst: the
            # first chunk rides the burst, the rest pay full price.
            assert clock.time() == pytest.approx(9.0)

        asyncio.run(run())

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            TokenBucket(0.0, 1.0, VirtualClock())


async def churned(cluster, *, seed):
    """Write a full payload, add one node; returns (array, data, new_id)."""
    arr = cluster.array(policy=FAST_POLICY)
    data = payload_for(arr, seed=seed)
    await arr.write(0, data)
    new_id = await cluster.add_node()
    return arr, data, new_id


class TestConvergence:
    def test_join_then_rebalance_moves_data_and_preserves_it(self):
        async def run():
            _, cluster = elastic_sim_cluster()
            async with cluster:
                arr, data, new_id = await churned(cluster, seed=1)
                reb = Rebalancer(arr)
                todo = reb.misplaced()
                assert todo  # the new node wins some strips (seeded)
                epoch_before = arr.membership.epoch
                moved = await reb.run_until_converged()
                assert moved == len(todo)
                assert reb.misplaced() == []
                assert reb.strips_on(new_id) > 0
                assert arr.membership.epoch > epoch_before  # one bump per flip
                assert await arr.read(0, arr.capacity) == data
                counters = arr.metrics.snapshot()["counters"]
                assert counters["stripes_migrated"] == moved
                assert counters["migration_bytes"] > 0

        asyncio.run(run())

    def test_converged_cluster_is_a_no_op(self):
        async def run():
            _, cluster = elastic_sim_cluster()
            async with cluster:
                arr = cluster.array(policy=FAST_POLICY)
                data = payload_for(arr, seed=2)
                await arr.write(0, data)
                reb = Rebalancer(arr)
                assert await reb.run_until_converged() == 0
                assert arr.metrics.snapshot()["counters"].get(
                    "stripes_migrated", 0
                ) == 0

        asyncio.run(run())

    def test_dead_node_heals_onto_survivors(self):
        async def run():
            _, cluster = elastic_sim_cluster()
            async with cluster:
                arr = cluster.array(policy=FAST_POLICY)
                data = payload_for(arr, seed=3)
                await arr.write(0, data)
                victim = arr.holders(0)[0]
                monitor = HealthMonitor(arr, miss_threshold=1, probe_timeout=0.2)
                await cluster.stop_node(victim)
                await monitor.probe_once()
                assert arr.membership.state_of(victim) is NodeState.DEAD
                reb = Rebalancer(arr)
                moved = await reb.run_until_converged()
                assert moved > 0
                assert reb.misplaced() == []
                # Full redundancy restored: nothing routes to the corpse.
                assert reb.strips_on(victim) == 0
                assert await arr.read(0, arr.capacity) == data

        asyncio.run(run())

    def test_throttle_paces_migration_at_the_configured_rate(self):
        async def run():
            _, cluster = elastic_sim_cluster()
            async with cluster:
                arr, data, _ = await churned(cluster, seed=4)
                rate, burst = 4096.0, 1024.0
                reb = Rebalancer(arr, rate_bytes=rate, burst_bytes=burst)
                t0 = arr.clock.time()
                await reb.run_until_converged()
                elapsed = arr.clock.time() - t0
                moved_bytes = arr.metrics.snapshot()["counters"]["migration_bytes"]
                assert moved_bytes > burst
                # Debt model: every byte past the burst is paid at rate.
                assert elapsed >= (moved_bytes - burst) / rate
                assert await arr.read(0, arr.capacity) == data

        asyncio.run(run())

    def test_foreground_gate_defers_migration(self):
        async def run():
            _, cluster = elastic_sim_cluster()
            async with cluster:
                arr, data, _ = await churned(cluster, seed=5)
                busy = {"rounds": 3}

                def gate() -> bool:
                    if busy["rounds"] > 0:
                        busy["rounds"] -= 1
                        return True
                    return False

                reb = Rebalancer(
                    arr, foreground_gate=gate, gate_backoff=0.01
                )
                await reb.run_until_converged()
                counters = arr.metrics.snapshot()["counters"]
                assert counters["rebalance_yields"] == 3
                assert await arr.read(0, arr.capacity) == data

        asyncio.run(run())

    def test_stale_column_that_stays_put_stays_stale(self):
        """A migration moves some columns of a stripe whose unmoved
        column is stale (skipped by a degraded write, node back with
        its old disk): the flip must not forget that column is stale."""

        async def run():
            _, cluster = elastic_sim_cluster()
            async with cluster:
                arr, data, _ = await churned(cluster, seed=1)
                reb = Rebalancer(arr)
                # A misplaced stripe with a data column that stays put.
                stripe, col = next(
                    (s, c)
                    for s in reb.misplaced()
                    for c in range(arr.code.k)
                    if arr.holders(s)[c] == reb.targets(s)[c]
                )
                node = arr.holders(stripe)[col]
                await cluster.stop_node(node)
                sdb = arr.stripe_data_bytes
                fresh = payload_for(arr, seed=2)[:sdb]
                await arr.write(stripe * sdb, fresh)
                await cluster.restart_node(node)
                await reb.run_until_converged()
                assert arr.holders(stripe)[col] == node
                return fresh, await arr.read(stripe * sdb, sdb)

        fresh, back = asyncio.run(run())
        assert back == fresh


class TestDrain:
    def test_drain_empties_the_node_and_tombstones_it(self):
        async def run():
            _, cluster = elastic_sim_cluster()
            async with cluster:
                arr = cluster.array(policy=FAST_POLICY)
                data = payload_for(arr, seed=6)
                await arr.write(0, data)
                reb = Rebalancer(arr)
                victim = max(arr.membership.serving(), key=reb.strips_on)
                assert reb.strips_on(victim) > 0
                moved = await reb.drain(victim)
                assert moved >= reb.strips_on(victim) == 0
                assert arr.membership.state_of(victim) is NodeState.LEFT
                assert victim not in arr.membership.placement_pool()
                assert arr.metrics.snapshot()["gauges"]["drain_remaining"] == 0
                assert await arr.read(0, arr.capacity) == data

        asyncio.run(run())

    def test_drain_refuses_to_shrink_below_the_column_count(self):
        async def run():
            code, cluster = elastic_sim_cluster(n_nodes=5)  # exactly k + 2
            async with cluster:
                arr = cluster.array(policy=FAST_POLICY)
                reb = Rebalancer(arr)
                with pytest.raises(MembershipError):
                    await reb.drain("n0")
                # Nothing changed: the node still serves and places.
                assert arr.membership.state_of("n0") is NodeState.LIVE

        asyncio.run(run())

    def test_drain_under_sustained_foreground_load_zero_client_failures(self):
        """The acceptance drill: a full drain completes while a client
        hammers reads and writes, and the client never sees an error."""

        async def run():
            _, cluster = elastic_sim_cluster(n_stripes=8)
            async with cluster:
                arr = cluster.array(policy=FAST_POLICY)
                model = bytearray(payload_for(arr, seed=7))
                await arr.write(0, bytes(model))
                reb = Rebalancer(arr)
                victim = max(arr.membership.serving(), key=reb.strips_on)
                stripe_bytes = arr.stripe_data_bytes
                stop = asyncio.Event()
                failures: list[Exception] = []
                ops = {"done": 0}

                async def foreground():
                    i = 0
                    while not stop.is_set():
                        off = (i % arr.n_stripes) * stripe_bytes
                        try:
                            if i % 3 == 2:
                                chunk = bytes([(i * 31) % 251] * 64)
                                model[off : off + 64] = chunk
                                await arr.write(off, chunk)
                            else:
                                back = await arr.read(off, 64)
                                assert back == bytes(model[off : off + 64])
                        except Exception as exc:  # any client-visible failure
                            failures.append(exc)
                        ops["done"] += 1
                        i += 1
                        await arr.clock.sleep(0.01)

                task = asyncio.get_running_loop().create_task(foreground())
                moved = await reb.drain(victim)
                stop.set()
                await task
                assert failures == []
                assert ops["done"] > 0
                assert moved > 0
                assert reb.strips_on(victim) == 0
                assert arr.membership.state_of(victim) is NodeState.LEFT
                assert await arr.read(0, arr.capacity) == bytes(model)

        asyncio.run(run())


def migration_fixture(seed):
    """A cluster mid-churn with one stripe picked for migration.

    Returns (cluster, arr, data, stripe, before, target, new_id) inside
    the caller's coroutine; the chosen stripe is the first misplaced
    one whose targets include the freshly joined node.
    """

    async def build():
        _, cluster = elastic_sim_cluster()
        await cluster.start()
        arr, data, new_id = await churned(cluster, seed=seed)
        reb = Rebalancer(arr)
        stripe = next(s for s in reb.misplaced() if new_id in reb.targets(s))
        return cluster, arr, data, reb, stripe, new_id

    return build()


class TestCrashSweep:
    """Every crash position leaves all-old-at-source or all-new-at-target."""

    TARGET_POINTS = [
        "migrate-before-log",
        "migrate-before-reply",
        "commit-before-apply",
        "commit-before-reply",
    ]

    @pytest.mark.parametrize("point", TARGET_POINTS)
    def test_target_node_crash_leaves_all_old_at_source(self, point):
        async def run():
            cluster, arr, data, reb, stripe, new_id = await migration_fixture(8)
            try:
                before = arr.holders(stripe)
                cluster.node(new_id).crashes.arm(point)
                with pytest.raises(ClusterError):
                    await reb.migrate_stripe(stripe)
                # All-old: routing untouched, every byte still served.
                assert arr.holders(stripe) == before
                assert await arr.read(0, arr.capacity) == data
                # Reboot the corpse, sweep orphan intents, finish the job.
                await cluster.restart_node(new_id)
                await reb.recover()
                await reb.run_until_converged()
                assert reb.misplaced() == []
                assert arr.holders(stripe) == reb.targets(stripe)
                assert await arr.read(0, arr.capacity) == data
            finally:
                await cluster.stop()

        asyncio.run(run())

    SOURCE_POINTS = ["release-before-drop", "release-before-reply"]

    @pytest.mark.parametrize("point", SOURCE_POINTS)
    def test_source_crash_during_release_leaves_all_new_at_target(self, point):
        async def run():
            cluster, arr, data, reb, stripe, new_id = await migration_fixture(9)
            try:
                before = arr.holders(stripe)
                target = reb.targets(stripe)
                # A source being vacated (and not kept at another column)
                # is the node that will be asked to release.
                source = next(
                    before[c]
                    for c in range(len(before))
                    if before[c] != target[c] and before[c] not in set(target)
                )
                cluster.node(source).crashes.arm(point)
                # Release is post-flip and best-effort: the migration
                # itself must succeed even though the source dies.
                assert await reb.migrate_stripe(stripe)
                assert arr.holders(stripe) == target  # all-new
                assert await arr.read(0, arr.capacity) == data
                await cluster.restart_node(source)
                await reb.run_until_converged()
                assert reb.misplaced() == []
                assert await arr.read(0, arr.capacity) == data
            finally:
                await cluster.stop()

        asyncio.run(run())

    def test_coordinator_crash_sweep_is_atomic_at_every_rpc(self):
        """Kill the rebalancer before its Nth protocol RPC for every N
        until a full migration fits, proving all-old-or-all-new plus
        recoverability at each position."""

        async def run_position(after: int) -> bool:
            cluster, arr, data, reb, stripe, _ = await migration_fixture(10)
            try:
                before = arr.holders(stripe)
                target = reb.targets(stripe)
                reb.crash.arm(after=after)
                crashed = False
                try:
                    await reb.migrate_stripe(stripe)
                except ClientCrash:
                    crashed = True
                assert arr.holders(stripe) in (before, target)
                assert await arr.read(0, arr.capacity) == data
                # A fresh coordinator (new crash plan) finishes the job.
                fresh = Rebalancer(arr)
                orphans = fresh.misplaced() and await fresh.recover()
                await fresh.run_until_converged()
                assert fresh.misplaced() == []
                assert arr.holders(stripe) == fresh.targets(stripe)
                assert await arr.read(0, arr.capacity) == data
                del orphans
                return crashed
            finally:
                await cluster.stop()

        async def run():
            after = 0
            while await run_position(after):
                after += 1
                assert after < 64, "migration protocol grew without bound"
            assert after >= 3  # stage + commit + verify at minimum

        asyncio.run(run())

    def test_staged_migration_survives_two_phase_recovery(self):
        """``TwoPhaseWriter.recover`` must not decide a ``mig-`` intent:
        only the rebalancer knows whether its flip happened."""

        async def run():
            cluster, arr, data, reb, stripe, new_id = await migration_fixture(12)
            try:
                reb.crash.arm(after=1)  # dies right after staging one strip
                with pytest.raises(ClientCrash):
                    await reb.migrate_stripe(stripe)
                staged = set(cluster.node(new_id).intents)
                assert staged and all(t.startswith("mig-") for t in staged)
                outcome = await TwoPhaseWriter(arr, client_id="t").recover()
                assert outcome == {"rolled_forward": [], "rolled_back": []}
                assert set(cluster.node(new_id).intents) == staged
                fresh = Rebalancer(arr)
                assert await fresh.recover() >= 1
                await fresh.run_until_converged()
                assert fresh.misplaced() == []
                assert await arr.read(0, arr.capacity) == data
            finally:
                await cluster.stop()

        asyncio.run(run())

    def test_recover_aborts_orphaned_intents(self):
        async def run():
            cluster, arr, data, reb, stripe, new_id = await migration_fixture(12)
            try:
                # Die right after the first stage RPC: a pending
                # mig- intent is stranded on the target.
                reb.crash.arm(after=1)
                with pytest.raises(ClientCrash):
                    await reb.migrate_stripe(stripe)
                fresh = Rebalancer(arr)
                assert await fresh.recover() >= 1
                counters = arr.metrics.snapshot()["counters"]
                assert counters["migration_intents_aborted"] >= 1
                await fresh.run_until_converged()
                assert fresh.misplaced() == []
                assert await arr.read(0, arr.capacity) == data
            finally:
                await cluster.stop()

        asyncio.run(run())
