"""Spin up a whole cluster in one process (tests, examples, demos).

:class:`LocalCluster` owns a pool of :class:`~repro.cluster.node.StripNode`
servers on loopback ephemeral ports plus the
:class:`~repro.cluster.membership.MembershipTable` that names them
(``nodes[i]`` is node id ``"n<i>"``), and the lifecycle verbs the
failure drills need: stop a node (simulating a machine loss), restart
it, start a blank replacement for a column (the rebuild target), grow
the pool, and tear everything down.  Being in-process, tests can also
reach into ``cluster.nodes[i].faults`` / ``.disk`` directly instead of
going through the ``fault`` verb.

The default pool is ``k + 2`` nodes, where arrays get the fixed layout:
``nodes[c]`` holds column *c* of every stripe.  A larger pool
(``n_nodes``) places each stripe by rendezvous hashing, and churn
drills -- :meth:`add_node`, drains and rebalancing -- move strips
between nodes.
"""

from __future__ import annotations

import asyncio
import random

from repro.cluster.client import ClusterArray, RetryPolicy
from repro.cluster.health import HealthMonitor
from repro.cluster.membership import MembershipTable
from repro.cluster.node import StripNode
from repro.codes.base import RAID6Code
from repro.obs.tracing import Tracer
from repro.sim.clock import Clock
from repro.sim.transport import Transport

__all__ = ["LocalCluster"]


class LocalCluster:
    """A pool of ``n_nodes >= k + 2`` loopback strip nodes (default ``k + 2``).

    ``transport``/``clock`` default to real sockets and the event-loop
    clock; pass a :class:`~repro.sim.transport.MemoryTransport` and
    :class:`~repro.sim.clock.VirtualClock` to run the whole cluster as
    a deterministic in-process simulation.  An optional
    :class:`~repro.obs.tracing.Tracer` is threaded into every node (and
    into arrays built via :meth:`array`), so one trace shows client
    RPCs and node dispatches interleaved on one timeline.

    Drill methods take a node as its position in :attr:`nodes` (the
    column, on the default layout) or as its membership id.
    """

    def __init__(
        self,
        code: RAID6Code,
        n_stripes: int,
        n_nodes: int | None = None,
        *,
        host: str = "127.0.0.1",
        transport: Transport | None = None,
        clock: Clock | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        n_nodes = code.n_cols if n_nodes is None else int(n_nodes)
        if n_nodes < code.n_cols:
            raise ValueError(
                f"need at least {code.n_cols} nodes (k+2), got {n_nodes}"
            )
        self.code = code
        self.n_stripes = int(n_stripes)
        self.host = host
        self.transport = transport
        self.clock = clock
        self.tracer = tracer
        self.membership = MembershipTable()
        self.nodes: list[StripNode] = []
        for _ in range(n_nodes):
            self.nodes.append(self._new_node(len(self.nodes)))
        #: replacement nodes started via :meth:`start_replacement`
        self.replacements: dict[int, StripNode] = {}

    def _new_node(self, index: int) -> StripNode:
        return StripNode(
            index, self.n_stripes, self.code.rows * (self.code.element_size // 8),
            host=self.host, transport=self.transport, clock=self.clock,
            tracer=self.tracer,
        )

    @staticmethod
    def _index(node: int | str) -> int:
        """Position in :attr:`nodes` of an index or a node id (``"n3"``)."""
        return int(node[1:]) if isinstance(node, str) else int(node)

    def node(self, node: int | str) -> StripNode:
        """The :class:`StripNode` at an index or with a node id."""
        return self.nodes[self._index(node)]

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> list[tuple[str, int]]:
        """Start every node and admit it LIVE; returns their addresses."""
        await asyncio.gather(*(n.start() for n in self.nodes))
        for i, node in enumerate(self.nodes):
            self.membership.join(f"n{i}", node.address, live=True)
        return self.addresses

    async def stop(self) -> None:
        live = [n for n in [*self.nodes, *self.replacements.values()] if n.running]
        await asyncio.gather(*(n.stop() for n in live))

    async def __aenter__(self) -> "LocalCluster":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    @property
    def addresses(self) -> list[tuple[str, int]]:
        return [n.address for n in self.nodes]

    # -- failure and churn drills --------------------------------------------

    async def stop_node(self, node: int | str) -> None:
        """Take one node offline (machine loss); membership learns via
        the heartbeat monitor (or an explicit ``mark_dead``)."""
        await self.node(node).stop()

    async def restart_node(self, node: int | str) -> tuple[str, int]:
        """Bring a stopped node back (reboot after a crash).

        Durable state -- disk contents, intent log, checksum sidecars
        -- survives in the :class:`StripNode` object; only the
        listening socket was lost.  The fresh address is recorded in
        the membership table (same id, same state) and returned.
        """
        index = self._index(node)
        address = await self.nodes[index].start()
        self.membership.set_address(f"n{index}", address)
        return address

    async def add_node(self, *, live: bool = True) -> str:
        """Start one blank node and join it; returns its id.

        ``live=False`` parks it in JOINING for heartbeat-promotion
        drills; the default admits it straight into the placement pool.
        """
        node = self._new_node(len(self.nodes))
        self.nodes.append(node)
        node_id = f"n{len(self.nodes) - 1}"
        await node.start()
        self.membership.join(node_id, node.address, live=live)
        return node_id

    async def start_replacement(self, column: int) -> tuple[str, int]:
        """Start a blank node for ``column``; returns its address.

        The caller hands the address to the rebuild scheduler, which
        moves the column's node id onto it; :meth:`promote_replacement`
        then makes it ``nodes[column]`` so later drills target the live
        replacement.
        """
        node = self._new_node(column)
        await node.start()
        self.replacements[column] = node
        return node.address

    def promote_replacement(self, column: int) -> None:
        """Make the replacement the column's node of record."""
        self.nodes[column] = self.replacements.pop(column)

    # -- convenience -------------------------------------------------------

    def auto_healer(self, array: ClusterArray, **kwargs) -> HealthMonitor:
        """A :class:`~repro.cluster.health.HealthMonitor` wired for self-heal.

        Spares come from :meth:`start_replacement`; after each rebuild
        the replacement is promoted to the column's node of record.
        Extra ``kwargs`` pass through to the monitor (thresholds,
        intervals, breaker tuning).
        """
        return HealthMonitor(
            array,
            spare_provider=self.start_replacement,
            on_rebuilt=self.promote_replacement,
            **kwargs,
        )

    def array(
        self,
        *,
        policy: RetryPolicy | None = None,
        rng: random.Random | None = None,
        hedge_after: float | None = None,
    ) -> ClusterArray:
        """A :class:`ClusterArray` over this cluster's membership table."""
        return ClusterArray(
            self.code, self.membership, self.n_stripes, policy=policy,
            transport=self.transport, clock=self.clock, rng=rng,
            tracer=self.tracer, hedge_after=hedge_after,
        )
