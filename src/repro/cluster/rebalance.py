"""Background stripe migration: drain/fill nodes under a throttle.

The rebalancer converges :attr:`ClusterArray.locations` (where stripes
*are*) toward :class:`~repro.cluster.placement.PlacementMap` (where the
current membership epoch says they *should* be).  One stripe's
migration is a small two-phase transaction per moving column, reusing
the node's intent log and idempotent ``commit`` verb:

1. **Assemble** -- read the stripe through
   :meth:`ClusterArray.assemble`, the path every reader and repairer
   shares: dead, faulty and stale sources are decoded around like any
   degraded read, and the parity is re-encoded, so the migrated image
   is internally consistent even when a source copy was stale.
2. **Stage** -- ``migrate-in`` logs the strip image as an intent on the
   target; the reply's CRC-32 must match the locally computed one, so
   a frame mangled in flight dies here, before anything is durable.
3. **Commit** -- the target applies + retires the intent (the existing
   2PC crash points cover this step), then a ``scrub-read`` proves the
   landed copy's sidecar matches the bytes we sent.
4. **Flip** -- ``locations[stripe]`` switches to the new holders and
   the epoch bumps: the atomic commit point.  A crash anywhere before
   this leaves the sources authoritative (all-old); after it, the
   verified targets serve (all-new).  Never split, never lost.
5. **Verify + release** -- the stripe is re-read through the *new*
   route and compared byte-for-byte (the decode-path check), the moved
   columns lose any stale mark, then each source strip is released,
   fenced by the CRC the source currently advertises.

Transaction ids are deterministic -- ``mig-<stripe>-<crc>`` --
so a coordinator that crashes and re-runs finds its own half-done work
(already-staged intents restage idempotently, already-committed strips
answer ``committed``) instead of forking a second copy; the payload
CRC inside the id means changed bytes get a fresh transaction.

Migration traffic is a guest, not a tenant: every staged payload passes
through a :class:`TokenBucket` (injectable clock, so throttling works
in virtual time), and an optional ``foreground_gate`` callable pauses
the migrator entirely while foreground pressure is high (e.g. the
gateway's queue depth).
"""

from __future__ import annotations

import asyncio
import contextlib
import zlib

import numpy as np

from repro.cluster.client import ClusterArray, ClusterError
from repro.cluster.membership import MembershipError, NodeState
from repro.cluster.txn import TxnCrashPoint
from repro.sim.clock import Clock

__all__ = ["RebalanceError", "TokenBucket", "Rebalancer"]


class RebalanceError(ClusterError):
    """A migration could not complete (verification or protocol failure)."""


class TokenBucket:
    """Debt-model token bucket on an injectable clock.

    ``take(n)`` always succeeds immediately in accounting terms but
    sleeps long enough afterwards to pay any overdraft back at ``rate``
    tokens/second, so a single oversized strip cannot starve forever
    and sustained throughput converges to ``rate`` exactly.
    """

    def __init__(self, rate: float, burst: float, clock: Clock) -> None:
        if rate <= 0:
            raise ValueError("rate must be positive")
        self.rate = float(rate)
        self.burst = float(burst)
        self.clock = clock
        self._tokens = float(burst)
        self._last = clock.time()

    def _refill(self) -> None:
        now = self.clock.time()
        self._tokens = min(self.burst, self._tokens + (now - self._last) * self.rate)
        self._last = now

    async def take(self, n: float) -> float:
        """Consume ``n`` tokens; returns the seconds slept paying debt."""
        self._refill()
        self._tokens -= float(n)
        if self._tokens >= 0:
            return 0.0
        delay = -self._tokens / self.rate
        await self.clock.sleep(delay)
        self._refill()
        return delay


class Rebalancer:
    """Throttled stripe migrator for one :class:`ClusterArray`.

    Drive it with :meth:`run_until_converged` (tests, drains) or the
    background loop (:meth:`start` / :meth:`stop`).  ``crash`` is a
    :class:`~repro.cluster.txn.TxnCrashPoint` counting this
    coordinator's protocol RPCs, so tests sweep coordinator-crash
    positions exactly like the 2PC writer's sweep.
    """

    def __init__(
        self,
        array: ClusterArray,
        *,
        rate_bytes: float | None = None,
        burst_bytes: float | None = None,
        foreground_gate=None,
        gate_backoff: float = 0.05,
        crash: TxnCrashPoint | None = None,
    ) -> None:
        self.array = array
        self.clock = array.clock
        self.throttle = (
            None
            if rate_bytes is None
            else TokenBucket(
                rate_bytes,
                rate_bytes if burst_bytes is None else burst_bytes,
                array.clock,
            )
        )
        #: callable -> truthy while foreground traffic should win;
        #: checked between stripes, never mid-migration
        self.foreground_gate = foreground_gate
        self.gate_backoff = float(gate_backoff)
        self.crash = crash if crash is not None else TxnCrashPoint()
        self._task: asyncio.Task | None = None

    # -- protocol plumbing ---------------------------------------------------

    async def _rpc(
        self, node_id: str, verb: str, header: dict, payload: bytes = b""
    ) -> dict:
        self.crash.step()
        reply, _ = await self.array.client_for_node(node_id).request(
            verb, header, payload
        )
        if reply.get("status") != "ok":
            raise RebalanceError(
                f"{verb} on {node_id}: {reply.get('error')}: {reply.get('detail')}"
            )
        return reply

    # -- planning ------------------------------------------------------------

    def targets(self, stripe: int) -> tuple[str, ...]:
        return self.array.placement.nodes_for(stripe)

    def misplaced(self) -> list[int]:
        """Stripes whose current holders differ from placement."""
        return [
            s
            for s in range(self.array.n_stripes)
            if self.array.holders(s) != self.targets(s)
        ]

    def strips_on(self, node_id: str) -> int:
        """How many strips currently route to ``node_id`` (drain progress)."""
        return sum(
            1
            for s in range(self.array.n_stripes)
            if node_id in self.array.holders(s)
        )

    # -- one stripe ----------------------------------------------------------

    async def _stage(
        self, node_id: str, stripe: int, payload, crc: int
    ) -> tuple[str, bool]:
        """Stage one strip image on its target; returns ``(txn, landed)``.

        Walks a deterministic salt sequence past transactions a prior
        recovery pass aborted; ``landed`` means an earlier run already
        committed these exact bytes, so commit can be skipped.
        """
        base = f"mig-{stripe}-{crc:08x}"
        for salt in range(8):
            txn = base if salt == 0 else f"{base}-r{salt}"
            reply = await self._rpc(
                node_id, "migrate-in", {"txn": txn, "stripe": stripe}, payload
            )
            state = reply.get("state")
            if state == "pending":
                if int(reply.get("crc", -1)) == crc:
                    return txn, False
                # Bytes mangled between us and the intent log: drop the
                # poisoned intent and restage under the next salt.
                self.array.metrics.counter("migration_stage_corrupt").inc()
                await self._rpc(node_id, "abort", {"txn": txn, "stripe": stripe})
                continue
            if state == "committed" and int(reply.get("crc", -1)) == crc:
                return txn, True
            # aborted tombstone or a committed different image: next salt
        raise RebalanceError(
            f"stripe {stripe}: could not stage on {node_id} (salt budget spent)"
        )

    async def migrate_stripe(self, stripe: int) -> bool:
        """Migrate one stripe to its placement targets; True if it moved.

        Holds the stripe lock end to end, so foreground writes order
        entirely before or after the migration and the staged image can
        never go stale mid-protocol.
        """
        array = self.array
        async with array.stripe_lock(stripe):
            current = array.holders(stripe)
            target = self.targets(stripe)
            if current == target:
                return False
            moving = [c for c in range(array.code.n_cols) if current[c] != target[c]]
            cm = (
                contextlib.nullcontext()
                if array.tracer is None
                else array.tracer.span(
                    "rebalance.migrate", stripe=stripe, strips=len(moving)
                )
            )
            # Readers of this stripe wait on the lock from here on: a
            # target that is *also* a current holder (at another
            # column) gets its disk slot overwritten at commit, before
            # the flip -- a reader racing that window would fetch the
            # wrong column's bytes.
            array.migrating.add(stripe)
            try:
                with cm:
                    await self._migrate_locked(stripe, current, target, moving)
            finally:
                array.migrating.discard(stripe)
            return True

    async def _migrate_locked(
        self,
        stripe: int,
        current: tuple[str, ...],
        target: tuple[str, ...],
        moving: list[int],
    ) -> None:
        array = self.array
        code = array.code

        # 1. assemble through the shared decode path (lost and stale
        # columns are erasures, so a stale source is never copied into
        # the new placement), then re-encode the parity it left unfetched.
        # We hold this stripe's lock ourselves, so no migration gate.
        buf, _ = await array.assemble(stripe)
        code.encode(buf)

        payloads: dict[int, bytes] = {}
        crcs: dict[int, int] = {}
        for col in moving:
            payload = bytes(np.ascontiguousarray(buf[col]).data)
            payloads[col] = payload
            crcs[col] = zlib.crc32(payload)

        # throttle on the bytes about to move (before they move, so a
        # drained bucket delays the copy, not the release)
        if self.throttle is not None:
            await self.throttle.take(sum(len(p) for p in payloads.values()))

        # 2. stage on every target, end-to-end CRC checked
        txns: dict[int, str] = {}
        landed: dict[int, bool] = {}
        for col in moving:
            txns[col], landed[col] = await self._stage(
                target[col], stripe, payloads[col], crcs[col]
            )

        # 3. commit + sidecar verification on every target
        for col in moving:
            if not landed[col]:
                reply = await self._rpc(
                    target[col], "commit", {"txn": txns[col], "stripe": stripe}
                )
                if reply.get("state") != "committed":
                    raise RebalanceError(
                        f"stripe {stripe}: commit on {target[col]} answered "
                        f"{reply.get('state')!r}"
                    )
            probe = await self._rpc(target[col], "scrub-read", {"stripe": stripe})
            if not probe.get("match") or int(probe.get("crc_stored", -1)) != crcs[col]:
                raise RebalanceError(
                    f"stripe {stripe}: landed copy on {target[col]} failed "
                    f"CRC verification"
                )

        # 4. flip: the atomic commit point of the whole migration
        array.locations[stripe] = tuple(target)
        array.membership.bump()
        array.metrics.counter("stripes_migrated").inc()
        array.metrics.counter("migration_bytes").inc(
            sum(len(p) for p in payloads.values())
        )

        # 5. decode-path verification through the new route, then release
        check, _ = await array.assemble(stripe)
        if bytes(array._stripe_payload(check)) != bytes(array._stripe_payload(buf)):
            # The new copies verified strip-by-strip but the stripe
            # does not read back: revert routing and fail loudly.
            array.locations[stripe] = tuple(current)
            array.membership.bump()
            raise RebalanceError(f"stripe {stripe}: post-flip read-back diverged")
        # The moved columns now hold freshly encoded strips; a stale
        # column that stayed put stays stale.
        array.record_write(stripe, moving)
        await self._release_sources(stripe, current, target, moving)

    async def _release_sources(
        self,
        stripe: int,
        current: tuple[str, ...],
        target: tuple[str, ...],
        moving: list[int],
    ) -> None:
        """Release the old copies, fenced by each source's own CRC.

        Best effort by design: an unreachable or dead source keeps its
        (now unrouted) strip, which is garbage, not a hazard -- the
        flip already happened.  A source that still ends up a holder of
        this stripe on another column (pool smaller than 2 * n_cols)
        is skipped.
        """
        array = self.array
        still_holding = set(target)
        for col in moving:
            node_id = current[col]
            if node_id in still_holding:
                continue
            entry = array.membership.nodes.get(node_id)
            if entry is None or entry.state not in (
                NodeState.LIVE, NodeState.DRAINING
            ):
                continue
            try:
                probe = await self._rpc(node_id, "scrub-read", {"stripe": stripe})
                await self._rpc(
                    node_id,
                    "release",
                    {"stripe": stripe, "crc": int(probe["crc_stored"])},
                )
            except ClusterError:
                continue

    # -- convergence ---------------------------------------------------------

    async def _yield_to_foreground(self) -> None:
        while self.foreground_gate is not None and self.foreground_gate():
            self.array.metrics.counter("rebalance_yields").inc()
            await self.clock.sleep(self.gate_backoff)

    async def run_until_converged(self, *, max_rounds: int = 16) -> int:
        """Migrate until no stripe is misplaced; returns stripes moved.

        Per-stripe failures (an unreachable target, a verification
        refusal) are retried on later rounds; a full round with zero
        progress and outstanding work raises :class:`RebalanceError`
        so callers never spin silently.
        """
        array = self.array
        moved = 0
        for _ in range(max_rounds):
            todo = self.misplaced()
            array.metrics.gauge("rebalance_misplaced").set(len(todo))
            if not todo:
                return moved
            progressed = False
            failures: list[str] = []
            for stripe in todo:
                await self._yield_to_foreground()
                try:
                    if await self.migrate_stripe(stripe):
                        moved += 1
                        progressed = True
                except ClusterError as exc:
                    failures.append(f"stripe {stripe}: {exc}")
            if not progressed:
                raise RebalanceError(
                    f"rebalance stalled with {len(todo)} stripes misplaced: "
                    + "; ".join(failures[:3])
                )
        remaining = self.misplaced()
        array.metrics.gauge("rebalance_misplaced").set(len(remaining))
        if remaining:
            raise RebalanceError(
                f"rebalance did not converge in {max_rounds} rounds; "
                f"{len(remaining)} stripes still misplaced"
            )
        return moved

    async def drain(self, node_id: str, *, remove: bool = True) -> int:
        """Gracefully empty one node; returns the stripes migrated.

        Marks the node DRAINING (it keeps serving reads and strip
        writes throughout), refuses to start if the remaining LIVE
        pool could not host every column, converges, proves the node
        holds no routed strip, and finally tombstones it.
        """
        array = self.array
        table = array.membership
        pool = set(table.placement_pool())
        if len(pool - {node_id}) < array.code.n_cols:
            raise MembershipError(
                f"draining {node_id!r} would leave "
                f"{len(pool - {node_id})} live nodes < {array.code.n_cols} columns"
            )
        if table.state_of(node_id) is not NodeState.DRAINING:
            table.drain(node_id)
        total = self.strips_on(node_id)
        array.metrics.gauge("drain_remaining").set(total)
        moved = await self.run_until_converged()
        left = self.strips_on(node_id)
        array.metrics.gauge("drain_remaining").set(left)
        if left:
            raise RebalanceError(
                f"drain of {node_id!r} finished rebalance but {left} strips "
                f"still route there"
            )
        if remove:
            table.remove(node_id)
        return moved

    async def recover(self) -> int:
        """Abort orphaned migration intents left by crashed coordinators.

        Safe because a re-run migration walks a salt sequence past
        aborted transaction ids; returns the intents aborted.  Strips
        whose migration had already committed are untouched -- the
        deterministic txn id lets the re-run recognise them as landed.
        """
        array = self.array
        aborted = 0
        for node_id in array.membership.serving():
            try:
                reply, _ = await array.client_for_node(node_id).request("intents")
            except ClusterError:
                continue
            for rec in reply.get("txns", ()):
                txn = str(rec["txn"])
                if not txn.startswith("mig-"):
                    continue
                try:
                    await self._rpc(
                        node_id, "abort", {"txn": txn, "stripe": rec.get("stripe")}
                    )
                    aborted += 1
                except ClusterError:
                    continue
        if aborted:
            array.metrics.counter("migration_intents_aborted").inc(aborted)
        return aborted

    # -- background driving --------------------------------------------------

    def start(self, *, interval: float = 1.0) -> asyncio.Task:
        """Converge-on-change loop: poll for misplacement, migrate, sleep."""
        if self._task is not None and not self._task.done():
            raise RuntimeError("rebalance loop already running")

        async def loop() -> None:
            while True:
                try:
                    if self.misplaced():
                        await self.run_until_converged()
                except (ClusterError, MembershipError):
                    pass  # transient (mid-churn); next round retries
                await self.clock.sleep(interval)

        self._task = asyncio.get_running_loop().create_task(loop())
        return self._task

    async def stop(self) -> None:
        task, self._task = self._task, None
        if task is not None and not task.done():
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass
