"""Failure detection and degraded-mode management for the cluster.

Three mechanisms close the gap between "a node misbehaves" and "the
operator notices":

* **Heartbeats** -- :class:`HealthMonitor` pings every node of the
  membership table on a fixed cadence with a one-shot probe (no
  retries: the cadence *is* the retry loop), counts consecutive misses
  per node, and writes its verdicts into the table (``mark_dead``, and
  ``mark_live`` when a node answers again).
* **Circuit breakers** -- each node gets a :class:`CircuitBreaker`
  (installed on :attr:`ClusterArray.breakers`) that the data path
  consults before every RPC.  A node that keeps timing out is
  short-circuited to an immediate
  :class:`~repro.cluster.client.NodeUnavailableError` -- the degraded
  read path takes over instantly instead of burning a retry budget per
  request -- until a half-open trial shows the node recovered.  The
  breaker runs on an injectable clock, so the sim drives it in virtual
  time.
* **Auto-heal** -- once a node's consecutive misses cross the
  threshold, the monitor marks it DEAD; if it held one whole column,
  :meth:`HealthMonitor.heal` asks ``spare_provider`` for a replacement
  address, streams a
  :class:`~repro.cluster.rebuild.RebuildScheduler` rebuild onto it,
  and repoints the array: fault to restored redundancy with no human
  in the loop.

Slow-but-alive nodes are the hedged reads' job
(``ClusterArray(hedge_after=...)``), not the breaker's: hedging
absorbs tail latency, the breaker absorbs hard unavailability.
"""

from __future__ import annotations

import asyncio
import enum

from repro.cluster.client import ClusterArray, ClusterError, NodeClient, RetryPolicy
from repro.cluster.membership import NodeState
from repro.cluster.rebuild import RebuildScheduler
from repro.sim.clock import Clock

__all__ = ["BreakerState", "CircuitBreaker", "HealthMonitor"]


class BreakerState(enum.Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"


class CircuitBreaker:
    """Per-node request gate with the classic three-state life cycle.

    CLOSED passes everything; ``failure_threshold`` consecutive
    failures trip it OPEN, which rejects instantly until
    ``reset_timeout`` clock-seconds pass; the first request after the
    cooldown runs as a HALF_OPEN trial -- success closes the breaker,
    failure re-opens it for another cooldown.  Time comes from the
    injected clock, never the wall.

    ``min_open_interval`` is the flap guard: a success reported while
    the breaker is still OPEN (e.g. an out-of-band probe racing the
    data path) is *ignored* for the first ``min_open_interval``
    clock-seconds after the trip, counted on the ``breaker_flaps``
    metric instead of closing the breaker.  Without it, alternating
    success/failure oscillates the breaker every probe and the data
    path never gets a stable degraded mode.  The default of ``0``
    keeps the historical close-on-any-success behaviour; the guard
    never delays the HALF_OPEN trial, which may still close the
    breaker after ``reset_timeout``.  :meth:`reset` bypasses the guard
    for the cases where the node genuinely changed (rebuild onto a
    fresh replacement).
    """

    def __init__(
        self,
        clock: Clock,
        *,
        failure_threshold: int = 3,
        reset_timeout: float = 5.0,
        min_open_interval: float = 0.0,
        metrics=None,
    ) -> None:
        self.clock = clock
        self.failure_threshold = int(failure_threshold)
        self.reset_timeout = float(reset_timeout)
        self.min_open_interval = float(min_open_interval)
        self.metrics = metrics
        self._state = BreakerState.CLOSED
        self._failures = 0
        self._opened_at = 0.0

    @property
    def state(self) -> BreakerState:
        if (
            self._state is BreakerState.OPEN
            and self.clock.time() - self._opened_at >= self.reset_timeout
        ):
            self._state = BreakerState.HALF_OPEN
        return self._state

    def allow(self) -> bool:
        """Whether a request may go out right now."""
        return self.state is not BreakerState.OPEN

    def record_success(self) -> None:
        if (
            self.state is BreakerState.OPEN
            and self.clock.time() - self._opened_at < self.min_open_interval
        ):
            # Flap guard: the breaker just tripped; one lucky success
            # does not un-trip it.  Count the suppressed flap and keep
            # the cooldown running.
            if self.metrics is not None:
                self.metrics.counter("breaker_flaps").inc()
            return
        self.reset()

    def reset(self) -> None:
        """Force-close, bypassing the flap guard (node was replaced)."""
        self._failures = 0
        self._state = BreakerState.CLOSED

    def record_failure(self) -> None:
        if self.state is BreakerState.HALF_OPEN:
            self._trip()
            return
        self._failures += 1
        if self._failures >= self.failure_threshold:
            self._trip()

    def _trip(self) -> None:
        self._state = BreakerState.OPEN
        self._failures = 0
        self._opened_at = self.clock.time()

    def __repr__(self) -> str:
        return f"CircuitBreaker({self.state.value}, failures={self._failures})"


class HealthMonitor:
    """Heartbeat prober + auto-heal driver for one :class:`ClusterArray`.

    Constructing the monitor installs a breaker per node on
    ``array.breakers``; nodes that join later get one on their first
    probe.  Each round probes every non-LEFT node of the array's
    membership table: ``miss_threshold`` consecutive misses ``mark_dead``
    the node, and an answering probe promotes a JOINING node and revives
    a DEAD one (``mark_live``).  ``on_change(epoch)`` fires after a round
    that changed the table, so a rebalancer can wake up.  Drive it either
    with the background loop (:meth:`start` / :meth:`stop`) or, in
    deterministic tests, by calling :meth:`probe_once` / :meth:`heal`
    directly.

    ``spare_provider`` is an async callable ``column -> address`` that
    produces a blank replacement node (e.g.
    :meth:`LocalCluster.start_replacement`); ``on_rebuilt`` is called
    with the column after the rebuild repoints the array (e.g.
    :meth:`LocalCluster.promote_replacement`).  Only a DEAD node that
    holds one whole column (the fixed ``k + 2`` layout) heals this way;
    on a larger pool the :class:`~repro.cluster.rebalance.Rebalancer`
    re-places a dead node's strips.  Without a provider the monitor
    only observes.
    """

    def __init__(
        self,
        array: ClusterArray,
        *,
        interval: float = 1.0,
        miss_threshold: int = 3,
        probe_timeout: float = 0.5,
        failure_threshold: int = 3,
        reset_timeout: float = 5.0,
        min_open_interval: float = 0.0,
        spare_provider=None,
        on_rebuilt=None,
        rebuild_batch: int = 16,
        on_change=None,
    ) -> None:
        self.array = array
        self.membership = array.membership
        self.clock = array.clock
        self.interval = float(interval)
        self.miss_threshold = int(miss_threshold)
        self.probe_policy = RetryPolicy(attempts=1, timeout=float(probe_timeout))
        self.failure_threshold = int(failure_threshold)
        self.reset_timeout = float(reset_timeout)
        self.min_open_interval = float(min_open_interval)
        self.spare_provider = spare_provider
        self.on_rebuilt = on_rebuilt
        self.rebuild_batch = int(rebuild_batch)
        self.on_change = on_change
        self.misses: dict[str, int] = {}
        self.healing: set[int] = set()
        self._probe_clients: dict[str, NodeClient] = {}
        array.breakers = {
            node_id: self._new_breaker() for node_id in self.membership.probed()
        }
        self._task: asyncio.Task | None = None

    def _new_breaker(self) -> CircuitBreaker:
        return CircuitBreaker(
            self.clock,
            failure_threshold=self.failure_threshold,
            reset_timeout=self.reset_timeout,
            min_open_interval=self.min_open_interval,
            metrics=self.array.metrics,
        )

    def _breaker(self, node_id: str) -> CircuitBreaker:
        breakers = self.array.breakers
        if node_id not in breakers:
            breakers[node_id] = self._new_breaker()
        return breakers[node_id]

    # -- probing -------------------------------------------------------------

    def _probe_client(self, node_id: str) -> NodeClient:
        # One kept-open probe channel per node, rebuilt (the old one
        # closed) when a replacement moves the node to a new address;
        # shares the array's seams (and metrics) for determinism.
        address = self.membership.address_of(node_id)
        client = self._probe_clients.get(node_id)
        if client is None or client.address != address:
            if client is not None:
                client.close()
            array = self.array
            client = self._probe_clients[node_id] = NodeClient(
                address,
                policy=self.probe_policy,
                metrics=array.metrics,
                transport=array.transport,
                clock=array.clock,
                tracer=array.tracer,
            )
        return client

    async def probe_once(self) -> dict[str, bool]:
        """One heartbeat round; returns per-node liveness verdicts.

        Updates miss counters, feeds the breakers and renders the
        table verdicts (auto-heal is :meth:`heal`'s job, so
        deterministic tests can split the two).
        """
        table = self.membership
        metrics = self.array.metrics
        targets = table.probed()
        epoch_before = table.epoch

        async def probe(node_id: str) -> bool:
            try:
                await self._probe_client(node_id).request("ping")
            except ClusterError:
                return False
            return True

        alive = dict(
            zip(targets, await asyncio.gather(*(probe(n) for n in targets)))
        )
        for node_id, ok in alive.items():
            breaker = self._breaker(node_id)
            state = table.state_of(node_id)
            if ok:
                self.misses[node_id] = 0
                breaker.record_success()
                if state is NodeState.JOINING or state is NodeState.DEAD:
                    table.mark_live(node_id)  # joined, or came back on its own
            else:
                self.misses[node_id] = self.misses.get(node_id, 0) + 1
                breaker.record_failure()
                metrics.counter("heartbeat_misses").inc()
                if (
                    self.misses[node_id] >= self.miss_threshold
                    and state is not NodeState.DEAD
                ):
                    table.mark_dead(node_id)
                    metrics.counter("nodes_dead").inc()
        if table.epoch != epoch_before and self.on_change is not None:
            self.on_change(table.epoch)
        return alive

    # -- healing -------------------------------------------------------------

    async def heal(self) -> list[int]:
        """Rebuild every dead node's column onto a spare; returns columns healed.

        Sequential by design: RAID-6 tolerates two losses, and a
        rebuild already reads every surviving column.
        """
        if self.spare_provider is None:
            return []
        healed: list[int] = []
        for col in range(self.array.code.n_cols):
            try:
                node_id = self.array.column_node(col)
            except ValueError:
                continue  # scattered column: the rebalancer's job
            if (
                self.membership.state_of(node_id) is not NodeState.DEAD
                or col in self.healing
            ):
                continue
            self.healing.add(col)
            try:
                address = await self.spare_provider(col)
                scheduler = RebuildScheduler(
                    self.array, batch_stripes=self.rebuild_batch
                )
                # Repoints the node's id at the spare, marks it LIVE and
                # resets its breaker (the flap guard must not keep a
                # brand-new node short-circuited).
                await scheduler.rebuild_column(col, address)
                if self.on_rebuilt is not None:
                    self.on_rebuilt(col)
            finally:
                self.healing.discard(col)
            self.misses[node_id] = 0
            self.array.metrics.counter("columns_healed").inc()
            healed.append(col)
        return healed

    # -- background driving --------------------------------------------------

    def start(self) -> asyncio.Task:
        """Run probe + heal rounds forever as a background task."""
        if self._task is not None and not self._task.done():
            raise RuntimeError("health loop already running")

        async def loop() -> None:
            while True:
                await self.probe_once()
                if self.membership.counts()[NodeState.DEAD.value]:
                    await self.heal()
                await self.clock.sleep(self.interval)

        self._task = asyncio.get_running_loop().create_task(loop())
        return self._task

    async def stop(self) -> None:
        """Stop the background loop and close the probe connections."""
        task, self._task = self._task, None
        if task is not None and not task.done():
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass
        for client in self._probe_clients.values():
            client.close()

    # -- introspection -------------------------------------------------------

    def status(self) -> dict:
        """Operator view: per-node state, misses, breaker."""
        return {
            "epoch": self.membership.epoch,
            "nodes": [
                {
                    **entry.to_dict(),
                    "misses": self.misses.get(node_id, 0),
                    "breaker": self.array.breakers[node_id].state.value
                    if node_id in self.array.breakers
                    else "closed",
                }
                for node_id, entry in sorted(self.membership.nodes.items())
            ],
        }
