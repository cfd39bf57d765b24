"""Cluster client: per-node RPC with retries, and the striped array.

:class:`NodeClient` is the transport layer -- kept-open connections
that each carry one request at a time, a per-request timeout, bounded
retries with exponential backoff (plus optional seeded jitter), and a
metrics trail of every timeout, checksum failure and reconnect.  A
connection goes back on the client's idle list only after a complete,
CRC-valid reply; a timeout, cancellation or transport error closes it,
so a late reply can never be paired with a later request.  All timing
-- timeouts, backoff sleeps, latency observations -- flows through an
injectable :class:`~repro.sim.clock.Clock` and all byte I/O through an
injectable :class:`~repro.sim.transport.Transport`, so the same code
path runs on real sockets in production and on virtual time + in-memory
pipes under :mod:`repro.sim`, where scenarios replay bit-identically
from a seed.

:class:`ClusterArray` is the data path: it stripes full-stripe writes
across :class:`~repro.cluster.node.StripNode` servers (on a ``k + 2``
pool column ``c`` lives on node ``c``; a larger pool places each stripe
by rendezvous hashing), serves **degraded reads** by pulling survivor
strips and decoding with the configured code (the paper's Algorithm 4
path for ``liberation-optimal``, plan cached per erasure pattern), and
degrades gracefully while any two of a stripe's nodes are unreachable
or faulty.

Everything here is asyncio-native; the CLI and examples wrap entry
points in ``asyncio.run``.
"""

from __future__ import annotations

import asyncio
import contextlib
import random
from collections.abc import Collection, Iterable, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.cluster.membership import MembershipTable, NodeState
from repro.cluster.placement import PlacementMap
from repro.cluster.protocol import FrameChecksumError, ProtocolError, read_frame, write_frame
from repro.codes.base import RAID6Code
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer
from repro.parallel import BatchCoder, alloc_batch
from repro.sim.clock import Clock, RealClock
from repro.sim.transport import AsyncioTransport, Transport
from repro.utils.words import WORD_DTYPE

if TYPE_CHECKING:
    from repro.cluster.health import CircuitBreaker

__all__ = [
    "RetryPolicy",
    "ClusterError",
    "NodeUnavailableError",
    "DeadlineExceededError",
    "RemoteDiskError",
    "ClusterDegradedError",
    "NodeClient",
    "ClusterArray",
    "send_verb",
]


class ClusterError(Exception):
    """Base class for distributed-array failures."""


class NodeUnavailableError(ClusterError):
    """A node stayed unreachable/faulty through the whole retry budget."""


class DeadlineExceededError(NodeUnavailableError):
    """The request's total deadline expired before an attempt succeeded.

    A subclass of :class:`NodeUnavailableError` on purpose: to the data
    path a column that cannot answer within its latency budget *is*
    unavailable (degraded reads decode around it, circuit breakers
    count it), but callers that care -- admission control deciding
    whether to shed, tests distinguishing a blown deadline from an
    exhausted per-RPC retry budget -- can catch the subclass.
    """


class RemoteDiskError(ClusterError):
    """The node answered, but its disk could not serve the strip."""


class ClusterDegradedError(ClusterError):
    """More columns are lost than the code can reconstruct."""


@dataclass
class RetryPolicy:
    """Per-request robustness knobs.

    ``timeout`` bounds every attempt; transport failures (refused /
    dropped connections, timeouts, frame checksum mismatches) are
    retried up to ``attempts`` times with exponential backoff starting
    at ``backoff`` seconds.  Deterministic node answers -- a latent
    sector error, a failed disk -- are *not* retried: replaying them
    cannot succeed, the erasure code is the retry.

    ``jitter`` spreads each backoff delay uniformly over
    ``[d, d * (1 + jitter)]`` to decorrelate retry storms.  The random
    source is the *caller's* seeded ``random.Random`` (threaded through
    :meth:`delays`), never a module-level global, so retry timing is
    reproducible under simulation.

    ``deadline`` caps the *total* time one request may spend across all
    attempts, backoff sleeps included -- the budget a caller (the
    gateway's admission control) can actually reason about, where
    ``timeout`` alone only bounds each attempt and the worst case grows
    with ``attempts``.  The running attempt's timeout is clipped to the
    remaining budget, a backoff that would outlive the budget is not
    slept, and expiry raises :class:`DeadlineExceededError`.  Timing
    flows through the client's injectable clock, so deadlines work in
    virtual seconds under simulation.  ``None`` (the default) preserves
    the historical per-RPC-only behaviour.
    """

    attempts: int = 3
    timeout: float = 2.0
    backoff: float = 0.02
    multiplier: float = 2.0
    max_backoff: float = 0.5
    jitter: float = 0.0
    deadline: float | None = None

    def delays(self, rng: random.Random | None = None):
        d = self.backoff
        for _ in range(max(0, self.attempts - 1)):
            delay = d
            if self.jitter and rng is not None:
                delay *= 1.0 + self.jitter * rng.random()
            yield min(delay, self.max_backoff)
            d = min(d * self.multiplier, self.max_backoff)


async def send_verb(
    address: tuple[str, int],
    verb: str,
    header: dict | None = None,
    payload: bytes = b"",
    *,
    transport: Transport | None = None,
    timeout: float | None = 5.0,
    clock: Clock | None = None,
) -> tuple[dict, bytes]:
    """One-shot request with no retry (control-plane helper).

    ``timeout`` bounds the whole exchange (connect + request + reply)
    so a hung node cannot stall control-plane callers forever; pass
    ``None`` to wait indefinitely.  The timer runs on ``clock`` so
    simulated callers time out in virtual seconds.
    """
    transport = transport if transport is not None else AsyncioTransport()
    clock = clock if clock is not None else RealClock()

    async def exchange() -> tuple[dict, bytes]:
        reader, writer = await transport.connect(address)
        try:
            await write_frame(writer, {"verb": verb, **(header or {})}, payload)
            return await read_frame(reader)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    if timeout is None:
        return await exchange()
    return await clock.wait_for(exchange(), timeout)


class NodeClient:
    """Retrying RPC channel to one strip node."""

    def __init__(
        self,
        address: tuple[str, int],
        *,
        policy: RetryPolicy | None = None,
        metrics: MetricsRegistry | None = None,
        transport: Transport | None = None,
        clock: Clock | None = None,
        rng: random.Random | None = None,
        tracer: Tracer | None = None,
        hedge_after: float | None = None,
    ) -> None:
        self.address = (str(address[0]), int(address[1]))
        self.policy = policy or RetryPolicy()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.transport = transport if transport is not None else AsyncioTransport()
        self.clock = clock if clock is not None else RealClock()
        self.rng = rng
        self.tracer = tracer
        #: launch a duplicate request after this many seconds without a
        #: reply and take whichever finishes first (tail-latency hedge);
        #: None disables.  Safe because every verb is idempotent -- the
        #: retry loop already requires that.
        self.hedge_after = hedge_after
        #: kept-open connections, each between requests; one in flight
        #: is owned by its request, so this never outgrows the peak
        #: number of concurrent requests to the node
        self._idle: list[tuple[asyncio.StreamReader, object]] = []
        #: connections opened, and requests that reused an idle one
        self.connects = 0
        self.connection_reuses = 0

    async def _attempt(self, header: dict, payload: bytes) -> tuple[dict, bytes]:
        reader, writer = await self._checkout()
        try:
            await write_frame(writer, header, payload)
            reply = await read_frame(reader)
        except BaseException:
            # Timeout (cancellation), dropped peer, bad CRC or garbled
            # framing: the stream may still carry this request's late
            # or partial reply, so it must never serve another request.
            writer.close()
            raise
        self._idle.append((reader, writer))
        return reply

    async def _checkout(self) -> tuple[asyncio.StreamReader, object]:
        """An idle kept-open connection, else a fresh one."""
        while self._idle:
            reader, writer = self._idle.pop()
            if not (reader.at_eof() or writer.is_closing()):
                self.connection_reuses += 1
                return reader, writer
            writer.close()  # the node hung up while it sat idle
        self.connects += 1
        return await self.transport.connect(self.address)

    def close(self) -> None:
        """Close the idle connections (a later request reconnects)."""
        idle, self._idle = self._idle, []
        for _, writer in idle:
            writer.close()

    async def request(
        self, verb: str, header: dict | None = None, payload: bytes = b""
    ) -> tuple[dict, bytes]:
        """Issue one verb; returns ``(reply_header, reply_payload)``.

        Raises :class:`RemoteDiskError` for ``latent`` / ``disk-failed``
        answers and :class:`NodeUnavailableError` once the retry budget
        is exhausted by transport-level failures.
        """
        issue = (
            self._request_with_retries if self.hedge_after is None else self._hedged
        )
        if self.tracer is None:
            return await issue(verb, header, payload)
        with self.tracer.span(f"rpc.{verb}", bytes_out=len(payload)) as span:
            try:
                reply, data = await issue(verb, header, payload)
            except ClusterError as exc:
                span.set("outcome", type(exc).__name__)
                raise
            span.set("outcome", "ok")
            span.set("bytes_in", len(data))
            return reply, data

    async def _hedged(
        self, verb: str, header: dict | None, payload: bytes
    ) -> tuple[dict, bytes]:
        """Issue the request; past ``hedge_after`` seconds, race a twin.

        The winner is the first attempt to *succeed*; a lone failure
        waits for its sibling, and only when both fail does the first
        error propagate.  Losers are cancelled (their connection drops,
        which the node handles like any peer departure).
        """
        first = asyncio.ensure_future(
            self._request_with_retries(verb, header, payload)
        )
        timer = asyncio.ensure_future(self.clock.sleep(self.hedge_after))
        try:
            await asyncio.wait({first, timer}, return_when=asyncio.FIRST_COMPLETED)
        finally:
            timer.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await timer
        if first.done():
            return first.result()  # fast path: no hedge needed
        self.metrics.counter("hedged_requests").inc()
        second = asyncio.ensure_future(
            self._request_with_retries(verb, header, payload)
        )
        attempts = (first, second)  # fixed preference order: deterministic
        first_error: BaseException | None = None
        while True:
            pending = [t for t in attempts if not t.done()]
            if not pending:
                break
            await asyncio.wait(pending, return_when=asyncio.FIRST_COMPLETED)
            for task in attempts:
                if task.done() and task.exception() is None:
                    for loser in attempts:
                        if not loser.done():
                            loser.cancel()
                            with contextlib.suppress(BaseException):
                                await loser
                    if task is second:
                        self.metrics.counter("hedge_wins").inc()
                    return task.result()
        for task in attempts:
            if task.exception() is not None:
                first_error = task.exception()
                break
        assert first_error is not None
        raise first_error

    async def _request_with_retries(
        self, verb: str, header: dict | None, payload: bytes
    ) -> tuple[dict, bytes]:
        full_header = {"verb": verb, **(header or {})}
        policy = self.policy
        delays = policy.delays(self.rng)
        clock = self.clock
        start = clock.time()

        def remaining() -> float | None:
            if policy.deadline is None:
                return None
            return policy.deadline - (clock.time() - start)

        def expired(budget: float | None) -> bool:
            return budget is not None and budget <= 0

        self.metrics.counter("requests").inc()
        for attempt in range(policy.attempts):
            budget = remaining()
            if expired(budget):
                self.metrics.counter("deadline_exceeded").inc()
                self.metrics.counter(f"deadline_exceeded_{verb}").inc()
                raise DeadlineExceededError(
                    f"node {self.address}: deadline {policy.deadline}s exhausted "
                    f"after {attempt} attempt(s)"
                )
            attempt_timeout = (
                policy.timeout if budget is None else min(policy.timeout, budget)
            )
            t0 = clock.time()
            try:
                reply, data = await clock.wait_for(
                    self._attempt(full_header, payload), attempt_timeout
                )
            except (asyncio.TimeoutError, TimeoutError):
                self.metrics.counter("timeouts").inc()
            except FrameChecksumError:
                self.metrics.counter("frame_errors").inc()
            except ProtocolError:
                self.metrics.counter("frame_errors").inc()
            except (ConnectionError, EOFError, OSError):
                self.metrics.counter("connection_errors").inc()
            else:
                self.metrics.histogram("request_latency_s").observe(clock.time() - t0)
                if reply.get("status") == "ok":
                    return reply, data
                error = reply.get("error", "unknown")
                if error in ("latent", "disk-failed"):
                    raise RemoteDiskError(
                        f"{self.address}: {error}: {reply.get('detail', '')}"
                    )
                # Transient server-side conditions (injected io-error,
                # overload): spend a retry on them.
                self.metrics.counter("remote_errors").inc()
            if attempt < policy.attempts - 1:
                delay = next(delays)
                budget = remaining()
                if budget is not None and delay >= budget:
                    # Sleeping would burn the whole budget with no
                    # attempt left to spend it on: fail now, honestly.
                    self.metrics.counter("deadline_exceeded").inc()
                    self.metrics.counter(f"deadline_exceeded_{verb}").inc()
                    raise DeadlineExceededError(
                        f"node {self.address}: backoff of {delay:.3f}s exceeds "
                        f"remaining deadline budget {max(budget, 0.0):.3f}s"
                    )
                self.metrics.counter("retries").inc()
                await clock.sleep(delay)
        # The whole retry budget burned on transport failures: surface
        # it distinctly from per-attempt counters so dashboards can
        # alert on *requests that failed*, per verb, not just noise.
        self.metrics.counter("retries_exhausted").inc()
        self.metrics.counter(f"retries_exhausted_{verb}").inc()
        raise NodeUnavailableError(
            f"node {self.address} unreachable after {policy.attempts} attempts"
        )


class ClusterArray:
    """A RAID-6 array whose strips live on network nodes.

    The mirror image of :class:`repro.array.raid6.RAID6Array` with the
    disk accesses replaced by concurrent RPCs.  Reads always succeed
    while at most two columns are lost (in any mix of stopped nodes,
    network faults and disk errors); writes skip unreachable columns
    the way a degraded array skips failed disks, leaving the stripe
    recoverable through the parity that *was* written.  The skipped
    columns stay stale after their node returns, and every path that
    assembles a stripe decodes around them (:meth:`assemble_window`).

    Every strip routes through :meth:`holders` -- the authoritative
    ``stripe -> node ids`` map in :attr:`locations` -- over the
    :class:`~repro.cluster.membership.MembershipTable` that names each
    node's address.  ``nodes`` is either that table or the ``k + 2``
    node addresses in column order, from which a table of ids ``n0``,
    ``n1``, ... is built.  A table of exactly ``k + 2`` nodes gets the
    fixed layout: column *c* of every stripe on the *c*-th node to
    join, so a lost node is one lost column of every stripe (one
    erasure pattern for the decoder, one column to rebuild).  A larger
    pool pins each stripe, on first touch, to its rendezvous placement
    (:class:`~repro.cluster.placement.PlacementMap`); afterwards only a
    :class:`~repro.cluster.rebalance.Rebalancer` flip moves it.

    **Epoch-bump retry**: a data RPC that fails with
    :class:`NodeUnavailableError` *and* observes the membership epoch
    moved since it was resolved re-resolves the holder and retries once
    (``epoch_retries`` counter), so a client racing a migration or a
    drain sees one slow request, not an error.  A per-stripe lock
    serializes foreground stripe writes against migrations of the same
    stripe; reads wait only while the stripe is in :attr:`migrating`.
    """

    def __init__(
        self,
        code: RAID6Code,
        nodes: list[tuple[str, int]] | MembershipTable,
        n_stripes: int,
        *,
        policy: RetryPolicy | None = None,
        transport: Transport | None = None,
        clock: Clock | None = None,
        rng: random.Random | None = None,
        tracer: Tracer | None = None,
        hedge_after: float | None = None,
    ) -> None:
        if n_stripes <= 0:
            raise ValueError("n_stripes must be positive")
        if not isinstance(nodes, MembershipTable):
            if len(nodes) != code.n_cols:
                raise ValueError(
                    f"need {code.n_cols} node addresses (k+2), got {len(nodes)}"
                )
            table = MembershipTable()
            for i, address in enumerate(nodes):
                table.join(f"n{i}", address, live=True)
            nodes = table
        self.code = code
        self.n_stripes = int(n_stripes)
        self.policy = policy or RetryPolicy()
        self.metrics = MetricsRegistry()
        self.transport = transport if transport is not None else AsyncioTransport()
        self.clock = clock if clock is not None else RealClock()
        self.rng = rng
        self.tracer = tracer
        self.hedge_after = hedge_after
        self.membership = nodes
        if nodes.metrics is None:
            nodes.metrics = self.metrics
            nodes._export()
        self.placement = PlacementMap(nodes, code.n_cols)
        #: authoritative current holders (stripe -> node ids per column);
        #: flipped atomically by the rebalancer after a verified migration
        self.locations: dict[int, tuple[str, ...]] = {}
        if len(nodes.nodes) == code.n_cols:
            self.locations = dict.fromkeys(range(self.n_stripes), tuple(nodes.nodes))
        #: one cached client per node id (see :meth:`client_for_node`)
        self.clients: dict[str, NodeClient] = {}
        #: per-node circuit breakers, installed by
        #: :class:`repro.cluster.health.HealthMonitor`; absent = no gating
        self.breakers: dict[str, CircuitBreaker] = {}
        #: stripe -> its stale columns (skipped by a write); changed
        #: only by the stale-column methods below, and the scrubber's
        #: priority queue.  In memory: a restarted client forgets it.
        self.dirty_stripes: dict[int, set[int]] = {}
        #: stripes with a migration in flight (set by the rebalancer);
        #: readers of such a stripe wait for the flip instead of racing
        #: the window where a target's disk slot is being overwritten
        self.migrating: set[int] = set()
        self._stripe_locks: dict[int, asyncio.Lock] = {}

    def _make_client(self, address: tuple[str, int]) -> NodeClient:
        return NodeClient(
            address,
            policy=self.policy,
            metrics=self.metrics,
            transport=self.transport,
            clock=self.clock,
            rng=self.rng,
            tracer=self.tracer,
            hedge_after=self.hedge_after,
        )

    # -- geometry ----------------------------------------------------------

    @property
    def stripe_data_bytes(self) -> int:
        return self.code.data_bytes

    @property
    def capacity(self) -> int:
        """User-addressable bytes."""
        return self.n_stripes * self.stripe_data_bytes

    def _check_stripe(self, stripe: int) -> None:
        if not 0 <= stripe < self.n_stripes:
            raise IndexError(f"stripe {stripe} out of range [0, {self.n_stripes})")

    # -- routing -------------------------------------------------------------

    def holders(self, stripe: int) -> tuple[str, ...]:
        """Current holder ids for ``stripe``, pinned on first touch.

        A stripe's first resolution pins it to the placement of that
        moment; afterwards only a rebalancer flip moves it, so routing
        never silently follows placement to a node that holds nothing.
        """
        locs = self.locations.get(stripe)
        if locs is None:
            locs = self.placement.nodes_for(stripe)
            self.locations[stripe] = locs
        return locs

    def client_for_node(self, node_id: str) -> NodeClient:
        """Cached client for one node, rebuilt if its address changed
        (the superseded client's idle connections are closed)."""
        address = self.membership.address_of(node_id)
        client = self.clients.get(node_id)
        if client is None or client.address != address:
            if client is not None:
                client.close()
            client = self.clients[node_id] = self._make_client(address)
        return client

    def column_node(self, column: int) -> str:
        """The one node holding ``column`` of every stripe.

        Raises :class:`ValueError` when the layout scatters the column
        over several nodes (or some stripe is not pinned yet): a column
        rebuild needs one machine to replace.
        """
        missing = (None,) * self.code.n_cols
        ids = {
            self.locations.get(s, missing)[column] for s in range(self.n_stripes)
        }
        if len(ids) != 1 or None in ids:
            raise ValueError(f"column {column} is not laid out on one node")
        return ids.pop()

    def replace_node(self, column: int, address: tuple[str, int]) -> None:
        """Point the node holding ``column`` at a replacement (post-rebuild).

        The replacement takes over the node's id at the new address, so
        routing, :meth:`client_for_node` and the membership table need
        nothing new.  A DEAD node is LIVE again, and its circuit breaker
        resets -- the breaker's state belongs to the *old* machine, and a
        freshly rebuilt column must not stay short-circuited for the rest
        of the cooldown.
        """
        node_id = self.column_node(column)
        self.membership.set_address(node_id, address)
        if self.membership.state_of(node_id) is NodeState.DEAD:
            self.membership.mark_live(node_id)
        breaker = self.breakers.get(node_id)
        if breaker is not None:
            breaker.reset()

    # -- strip RPCs --------------------------------------------------------

    async def _column_request(
        self,
        column: int,
        verb: str,
        header: dict | None = None,
        payload: bytes = b"",
        *,
        stripe: int,
    ) -> tuple[dict, bytes]:
        """Data-plane RPC to the node holding ``column`` of ``stripe``."""
        epoch = self.membership.epoch
        try:
            return await self._node_request(
                self.holders(stripe)[column], verb, header, payload
            )
        except NodeUnavailableError:
            if self.membership.epoch == epoch:
                raise
            # The cluster moved under us (join/leave/drain/migration
            # flip): re-resolve the holder at the new epoch and spend
            # one retry before surfacing the failure.
            self.metrics.counter("epoch_retries").inc()
            return await self._node_request(
                self.holders(stripe)[column], verb, header, payload
            )

    async def _node_request(
        self, node_id: str, verb: str, header: dict | None = None, payload: bytes = b""
    ) -> tuple[dict, bytes]:
        """RPC to one node, gated by its circuit breaker.

        An open breaker short-circuits to :class:`NodeUnavailableError`
        without touching the wire; outcomes feed back so the breaker
        sees every probe.  :class:`RemoteDiskError` counts as a
        *success* -- the node answered, its disk is the problem.
        """
        breaker = self.breakers.get(node_id)
        if breaker is not None and not breaker.allow():
            self.metrics.counter("breaker_short_circuits").inc()
            raise NodeUnavailableError(f"node {node_id}: circuit breaker open")
        try:
            result = await self.client_for_node(node_id).request(
                verb, header, payload
            )
        except NodeUnavailableError:
            if breaker is not None:
                breaker.record_failure()
            raise
        except RemoteDiskError:
            if breaker is not None:
                breaker.record_success()
            raise
        if breaker is not None:
            breaker.record_success()
        return result

    async def _fetch_strip(self, column: int, stripe: int) -> np.ndarray:
        _, payload = await self._column_request(
            column, "get", {"stripe": stripe}, stripe=stripe
        )
        words = np.frombuffer(payload, dtype=WORD_DTYPE)
        expected = self.code.rows * (self.code.element_size // 8)
        if words.size != expected:
            raise ProtocolError(
                f"column {column} returned {words.size} words, expected {expected}"
            )
        return words.reshape(self.code.rows, -1)

    async def _store_strip(self, column: int, stripe: int, strip: np.ndarray) -> None:
        # Ship a view, not a copy: the frame writer streams memoryviews
        # straight to the socket (ascontiguousarray is a no-op for the
        # usual stripe-column slice and keeps the buffer alive via the
        # view for the rare strided caller).
        await self._column_request(
            column,
            "put",
            {"stripe": stripe},
            np.ascontiguousarray(strip).data,
            stripe=stripe,
        )

    def stripe_lock(self, stripe: int) -> asyncio.Lock:
        """Per-stripe lock shared by foreground writes, migrations and
        the repairers that write decoded strips back (scrub, rebuild)."""
        lock = self._stripe_locks.get(stripe)
        if lock is None:
            lock = self._stripe_locks[stripe] = asyncio.Lock()
        return lock

    # -- stripe I/O --------------------------------------------------------

    async def read_stripe(self, stripe: int) -> np.ndarray:
        """Assemble one stripe buffer, decoding around lost and stale
        columns (see :meth:`assemble`)."""
        self._check_stripe(stripe)
        if stripe in self.migrating:
            # A migration of this stripe is in its hazard window; wait
            # for the routing flip rather than read a half-moved state.
            async with self.stripe_lock(stripe):
                pass
        buf, _ = await self.assemble(stripe)
        return buf

    async def write_stripe(
        self, stripe: int, buf: np.ndarray, *, columns: list[int] | None = None
    ) -> list[int]:
        """Scatter (selected columns of) a stripe buffer to the nodes.

        Columns whose node cannot be reached are skipped -- degraded
        write semantics -- unless that would leave the stripe beyond
        RAID-6 tolerance, which raises :class:`ClusterDegradedError`.
        Returns the columns *skipped* (empty means fully durable), and
        records them as stale (:meth:`record_write`).
        """
        self._check_stripe(stripe)
        cols = list(range(self.code.n_cols)) if columns is None else list(columns)
        async with self.stripe_lock(stripe):
            results = await asyncio.gather(
                *(self._store_strip(c, stripe, buf[c]) for c in cols),
                return_exceptions=True,
            )
        skipped: list[int] = []
        for col, res in zip(cols, results):
            if isinstance(res, (NodeUnavailableError, RemoteDiskError)):
                skipped.append(col)
            elif isinstance(res, BaseException):
                raise res
        if skipped:
            self.metrics.counter("degraded_writes").inc()
            if len(skipped) > 2:
                raise ClusterDegradedError(
                    f"stripe {stripe}: write lost columns {skipped}"
                )
        self.record_write(stripe, [c for c in cols if c not in skipped], skipped)
        return skipped

    # -- stale columns -------------------------------------------------------
    #
    # A degraded write leaves the skipped columns' strips stale: when
    # their node returns, it answers reads with bytes the stripe no
    # longer holds.  :attr:`dirty_stripes` names them, and these methods
    # are the only code that changes it or turns it into erasures, so
    # every reader and repairer (reads, RMW, scrub, rebuild, migration,
    # 2PC) treats a stale strip as the known erasure it is -- one parity
    # to recover, where an unknown error costs two and must first be
    # located.

    def record_write(
        self, stripe: int, written: Iterable[int], skipped: Iterable[int] = ()
    ) -> None:
        """Note that a write landed fresh strips on ``written`` columns
        of ``stripe`` and missed ``skipped`` ones, which are now stale."""
        stale = self.dirty_stripes.get(stripe, set()) - set(written) | set(skipped)
        if stale:
            self.dirty_stripes[stripe] = stale
        else:
            self.dirty_stripes.pop(stripe, None)

    async def assemble(
        self, stripe: int, columns: Iterable[int] | None = None
    ) -> tuple[np.ndarray, list[int]]:
        """One stripe's buffer holding ``columns`` (default: the data
        columns), and the erasures decoded to fill them (empty when no
        decode was needed).  See :meth:`assemble_window`."""
        batch, patterns = await self.assemble_window([stripe], columns)
        if patterns[0]:
            self.metrics.counter("decodes").inc()
            self.metrics.counter("degraded_reads").inc()
        return batch[0], patterns[0]

    async def assemble_window(
        self,
        stripes: Sequence[int],
        columns: Iterable[int] | None = None,
        *,
        lost: Collection[int] = (),
        coder: BatchCoder | None = None,
    ) -> tuple[np.ndarray, list[list[int]]]:
        """Assemble ``columns`` (default: the data columns) of each stripe.

        Only trusted strips are fetched: a column in ``lost``, or stale
        on a stripe, is an erasure without a fetch, and a column that
        fails to answer on any stripe of the window is an erasure on
        all of them.  The first round fetches the trusted ones of
        ``columns``; when a stripe misses one of them, a second round
        fetches its other trusted columns.  A stripe with a needed
        column erased is decoded -- through ``coder`` when the whole
        window shares one pattern, else stripe by stripe -- and more
        than two erasures raise :class:`ClusterDegradedError`.

        Returns the ``(len(stripes), total_cols, rows, words)`` batch
        and, per stripe, the erasures it was decoded around (empty when
        its columns all arrived).
        """
        code = self.code
        need = list(range(code.k)) if columns is None else sorted(columns)
        every = range(code.n_cols)
        known = [self.dirty_stripes.get(s, set()).union(lost) for s in stripes]
        batch = alloc_batch(code, len(stripes))
        tried = [[c for c in need if c not in gone] for gone in known]
        failed = await self._fetch_window(stripes, tried, batch)
        more = [
            [c for c in every if c not in gone and c not in cols]
            if not (gone.isdisjoint(need) and failed.isdisjoint(need)) else []
            for gone, cols in zip(known, tried)
        ]
        if any(more):
            failed |= await self._fetch_window(stripes, more, batch)
        patterns: list[list[int]] = []
        for i, s in enumerate(stripes):
            got = set(tried[i] + more[i]) - failed
            erased = [] if got.issuperset(need) else [c for c in every if c not in got]
            if len(erased) > 2:
                raise ClusterDegradedError(
                    f"stripe {s}: columns {erased} lost or stale; RAID-6 tolerates 2"
                )
            if erased:
                batch[i, erased] = 0
            patterns.append(erased)
        if coder is not None and all(patterns) and len(set(map(tuple, patterns))) == 1:
            coder.decode(batch, patterns[0])
        else:
            for i, erased in enumerate(patterns):
                if erased:
                    code.decode(batch[i], erased)
        return batch, patterns

    async def _fetch_window(
        self, stripes: Sequence[int], columns: list[list[int]], batch: np.ndarray
    ) -> set[int]:
        """Fetch ``columns[i]`` of ``stripes[i]`` into ``batch[i]``, all
        concurrently; returns the columns that failed on any stripe."""
        jobs = [(i, c) for i, cols in enumerate(columns) for c in cols]
        results = await asyncio.gather(
            *(self._fetch_strip(c, stripes[i]) for i, c in jobs),
            return_exceptions=True,
        )
        failed: set[int] = set()
        for (i, col), res in zip(jobs, results):
            if isinstance(res, (NodeUnavailableError, RemoteDiskError)):
                failed.add(col)
            elif isinstance(res, BaseException):
                raise res
            else:
                batch[i, col] = res
        return failed

    async def write_back(
        self, stripe: int, buf: np.ndarray, columns: Iterable[int] | None = None
    ) -> list[int]:
        """Store decoded strips of ``buf`` on ``columns`` (default: the
        stripe's stale columns), one at a time, and clear the stale mark
        of each one written; returns the columns that could not be."""
        cols = sorted(self.dirty_stripes.get(stripe, ()) if columns is None else columns)
        failed: list[int] = []
        for col in cols:
            try:
                await self._store_strip(col, stripe, buf[col])
            except (NodeUnavailableError, RemoteDiskError):
                failed.append(col)
        self.record_write(stripe, [c for c in cols if c not in failed])
        return failed

    # -- byte-addressed user I/O -------------------------------------------

    def _stripe_payload(self, buf: np.ndarray) -> memoryview:
        """Zero-copy byte view of the data columns (``buf`` is
        C-contiguous, so its leading-column slice is too)."""
        return memoryview(buf[: self.code.k]).cast("B")

    def _fill_data_columns(self, buf: np.ndarray, payload: bytes) -> None:
        code = self.code
        words = np.frombuffer(payload, dtype=np.uint8)
        for col in range(code.k):
            strip = words[col * code.strip_bytes : (col + 1) * code.strip_bytes]
            buf[col] = strip.view(WORD_DTYPE).reshape(code.rows, -1)

    async def write(self, offset: int, data: bytes) -> None:
        """Write user bytes; stripe-aligned spans take the encode path,
        everything else is a stripe-granular read-modify-write."""
        if not data:
            return
        if offset < 0 or offset + len(data) > self.capacity:
            raise ValueError("write outside the array")
        sdb = self.stripe_data_bytes
        pos, end = offset, offset + len(data)
        while pos < end:
            stripe, within = divmod(pos, sdb)
            take = min(end - pos, sdb - within)
            chunk = data[pos - offset : pos - offset + take]
            if within == 0 and take == sdb:
                buf = self.code.alloc_stripe()
                self._fill_data_columns(buf, chunk)
                self.metrics.counter("full_stripe_writes").inc()
            else:
                buf = await self.read_stripe(stripe)
                blob = bytearray(self._stripe_payload(buf))
                blob[within : within + take] = chunk
                self._fill_data_columns(buf, bytes(blob))
                self.metrics.counter("rmw_writes").inc()
            self.code.encode(buf)
            await self.write_stripe(stripe, buf)
            pos += take

    async def read(self, offset: int, length: int) -> bytes:
        """Read user bytes, transparently decoding around failures."""
        if length < 0 or offset < 0 or offset + length > self.capacity:
            raise ValueError("read outside the array")
        if length == 0:
            return b""
        sdb = self.stripe_data_bytes
        first, last = offset // sdb, (offset + length - 1) // sdb
        stripes = await asyncio.gather(
            *(self.read_stripe(s) for s in range(first, last + 1))
        )
        blob = b"".join(self._stripe_payload(buf) for buf in stripes)
        start = offset - first * sdb
        return blob[start : start + length]

    # -- health / metrics --------------------------------------------------

    async def ping(self) -> dict[str, bool]:
        """Liveness of every probed node, keyed by node id (never raises)."""
        ids = self.membership.probed()

        async def probe(node_id: str) -> bool:
            try:
                await self.client_for_node(node_id).request("ping")
            except Exception:
                return False
            return True

        alive = await asyncio.gather(*(probe(n) for n in ids))
        return dict(zip(ids, alive))

    async def node_stats(self) -> dict[str, dict | None]:
        """Each serving node's ``stats`` reply header (None if unreachable)."""
        ids = self.membership.serving()

        async def fetch(node_id: str) -> dict | None:
            try:
                reply, _ = await self.client_for_node(node_id).request("stats")
            except Exception:
                return None
            return reply

        stats = await asyncio.gather(*(fetch(n) for n in ids))
        return dict(zip(ids, stats))

    async def stats(self) -> dict:
        """Aggregate view: client-side metrics, per-node channel use
        (connections opened, requests that reused one) and per-node
        snapshots."""
        nodes = await self.node_stats()
        return {
            "epoch": self.membership.epoch,
            "client": self.metrics.snapshot(),
            "wire": {
                node_id: {"connects": client.connects,
                          "connection_reuses": client.connection_reuses}
                for node_id, client in sorted(self.clients.items())
            },
            "nodes": {
                node_id: None
                if reply is None
                else {"column": reply.get("column"),
                      "held": reply.get("held"),
                      "stats": reply.get("stats"),
                      "disk": reply.get("disk")}
                for node_id, reply in nodes.items()
            },
        }
