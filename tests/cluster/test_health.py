"""Health-monitor drills: heartbeats, circuit breakers, auto-heal.

The breaker lifecycle runs against an injectable clock, so every
open/half-open/closed transition is exact; the monitor drills run on
the simulation seam and end with a dead column rebuilt onto a spare
without any operator involvement.
"""

import asyncio

from repro.cluster import CircuitBreaker
from repro.cluster.health import BreakerState
from repro.cluster.membership import NodeState
from tests.cluster.conftest import FAST_POLICY, payload_for, sim_cluster


class Tick:
    """Minimal settable clock for breaker unit tests."""

    def __init__(self):
        self.now = 0.0

    def time(self) -> float:
        return self.now


class TestCircuitBreaker:
    def test_lifecycle(self):
        clock = Tick()
        br = CircuitBreaker(clock, failure_threshold=3, reset_timeout=5.0)
        assert br.state is BreakerState.CLOSED
        br.record_failure()
        br.record_failure()
        assert br.allow()  # under threshold: still closed
        br.record_failure()
        assert br.state is BreakerState.OPEN
        assert not br.allow()

        clock.now = 4.9
        assert not br.allow()  # cooldown not elapsed
        clock.now = 5.1
        assert br.state is BreakerState.HALF_OPEN
        assert br.allow()  # one trial request goes through

        br.record_success()
        assert br.state is BreakerState.CLOSED

    def test_half_open_failure_reopens_immediately(self):
        clock = Tick()
        br = CircuitBreaker(clock, failure_threshold=3, reset_timeout=5.0)
        for _ in range(3):
            br.record_failure()
        clock.now = 6.0
        assert br.state is BreakerState.HALF_OPEN
        br.record_failure()  # the trial request failed
        assert br.state is BreakerState.OPEN
        assert not br.allow()

    def test_success_resets_failure_count(self):
        br = CircuitBreaker(Tick(), failure_threshold=3)
        br.record_failure()
        br.record_failure()
        br.record_success()
        br.record_failure()
        br.record_failure()
        assert br.state is BreakerState.CLOSED  # streak was broken


class TestBreakerFlapGuard:
    def make(self, clock, **kw):
        from repro.obs.metrics import MetricsRegistry

        reg = MetricsRegistry()
        br = CircuitBreaker(
            clock, failure_threshold=1, reset_timeout=5.0,
            min_open_interval=2.0, metrics=reg, **kw,
        )
        return br, reg

    def test_success_inside_the_open_interval_is_ignored(self):
        clock = Tick()
        br, reg = self.make(clock)
        br.record_failure()  # trips at t=0
        assert br.state is BreakerState.OPEN
        clock.now = 0.5
        br.record_success()  # an out-of-band probe got lucky
        assert br.state is BreakerState.OPEN  # guard holds the trip
        assert reg.snapshot()["counters"]["breaker_flaps"] == 1

    def test_alternating_outcomes_cannot_oscillate_the_breaker(self):
        clock = Tick()
        br, reg = self.make(clock)
        br.record_failure()
        for i in range(4):  # probe success / data failure, interleaved
            clock.now = 0.2 * (i + 1)
            br.record_success()
            br.record_failure()
        assert br.state is BreakerState.OPEN  # never flapped closed
        assert reg.snapshot()["counters"]["breaker_flaps"] == 4

    def test_success_after_the_interval_closes_normally(self):
        clock = Tick()
        br, reg = self.make(clock)
        br.record_failure()
        clock.now = 2.5  # past min_open_interval, inside reset_timeout
        br.record_success()
        assert br.state is BreakerState.CLOSED
        assert "breaker_flaps" not in reg.snapshot()["counters"]

    def test_guard_never_delays_the_half_open_trial(self):
        clock = Tick()
        br, _ = self.make(clock)
        br.record_failure()
        clock.now = 5.1  # reset_timeout elapsed
        assert br.state is BreakerState.HALF_OPEN
        br.record_success()
        assert br.state is BreakerState.CLOSED

    def test_reset_bypasses_the_guard(self):
        clock = Tick()
        br, reg = self.make(clock)
        br.record_failure()
        clock.now = 0.1
        br.reset()  # node was genuinely replaced
        assert br.state is BreakerState.CLOSED
        assert "breaker_flaps" not in reg.snapshot()["counters"]

    def test_default_interval_keeps_legacy_close_on_success(self):
        clock = Tick()
        br = CircuitBreaker(clock, failure_threshold=1, reset_timeout=5.0)
        br.record_failure()
        br.record_success()  # min_open_interval=0: historical behaviour
        assert br.state is BreakerState.CLOSED


class TestHealthMonitor:
    def test_probe_marks_failed_after_miss_threshold(self):
        async def run():
            code, cluster = sim_cluster()
            async with cluster:
                arr = cluster.array(policy=FAST_POLICY)
                monitor = cluster.auto_healer(
                    arr, miss_threshold=2, probe_timeout=0.2
                )
                alive = await monitor.probe_once()
                assert alive == {f"n{c}": True for c in range(code.n_cols)}
                assert arr.membership.counts()["dead"] == 0

                await cluster.stop_node(3)
                await monitor.probe_once()
                # one miss is not a failure
                assert arr.membership.state_of("n3") is NodeState.LIVE
                await monitor.probe_once()
                assert arr.membership.state_of("n3") is NodeState.DEAD
                assert arr.metrics.get("nodes_dead") == 1
                assert arr.metrics.get("heartbeat_misses") == 2

        asyncio.run(run())

    def test_failure_trips_the_arrays_breaker(self):
        async def run():
            code, cluster = sim_cluster()
            async with cluster:
                arr = cluster.array(policy=FAST_POLICY)
                monitor = cluster.auto_healer(
                    arr, miss_threshold=2, probe_timeout=0.2, failure_threshold=2
                )
                assert arr.breakers  # installed by the monitor
                await cluster.stop_node(1)
                await monitor.probe_once()
                await monitor.probe_once()
                assert arr.breakers["n1"].state is BreakerState.OPEN
                # Data-plane requests now short-circuit without a dial.
                _, erased = await arr.assemble(0, [1])
                assert erased == [1]
                assert arr.metrics.get("breaker_short_circuits") > 0

        asyncio.run(run())

    def test_heal_rebuilds_failed_column_onto_spare(self):
        async def run():
            code, cluster = sim_cluster()
            async with cluster:
                arr = cluster.array(policy=FAST_POLICY)
                data = payload_for(arr)
                await arr.write(0, data)
                monitor = cluster.auto_healer(
                    arr, miss_threshold=2, probe_timeout=0.2, rebuild_batch=2
                )
                await cluster.stop_node(2)
                await monitor.probe_once()
                await monitor.probe_once()
                assert arr.membership.state_of("n2") is NodeState.DEAD

                healed = await monitor.heal()
                assert healed == [2]
                # The replacement took over the id: LIVE at a new address.
                assert arr.membership.state_of("n2") is NodeState.LIVE
                assert arr.membership.address_of("n2") == cluster.nodes[2].address
                # The breaker reset with the rebuild: the column serves
                # again without waiting out the cooldown.
                assert arr.breakers["n2"].state is BreakerState.CLOSED
                assert arr.metrics.get("columns_healed") == 1
                assert await arr.read(0, arr.capacity) == data
                # The promoted replacement holds real strips.
                assert cluster.nodes[2].disk.read_strip(0).any()

        asyncio.run(run())

    def test_background_loop_heals_without_operator(self):
        async def run():
            code, cluster = sim_cluster()
            async with cluster:
                arr = cluster.array(policy=FAST_POLICY)
                data = payload_for(arr)
                await arr.write(0, data)
                monitor = cluster.auto_healer(
                    arr, interval=1.0, miss_threshold=2, probe_timeout=0.2,
                    rebuild_batch=2,
                )
                monitor.start()
                await cluster.stop_node(4)
                for _ in range(200):
                    if arr.metrics.get("columns_healed"):
                        break
                    await arr.clock.sleep(1.0)
                assert arr.metrics.get("columns_healed") == 1
                await monitor.stop()
                assert await arr.read(0, arr.capacity) == data

        asyncio.run(run())
