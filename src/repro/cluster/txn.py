"""Atomic stripe updates: two-phase commit over the strip nodes.

The distributed analogue of :class:`repro.array.journal.JournaledRAID6Array`.
A plain :meth:`ClusterArray.write_stripe` scatters strips with no
ordering guarantee, so a client crash mid-scatter reopens the RAID
write hole across machines: some columns new, some old, parity mixed.
:class:`TwoPhaseWriter` closes it with the classic presumed-abort
protocol:

1. **Prepare** -- the client sends every participating column its new
   strip image; each node logs it as a durable
   :class:`~repro.cluster.node.NodeIntent` without touching the disk.
2. **Commit** -- once all reachable participants hold the intent, the
   client sends ``commit``; each node applies and retires the intent
   atomically (the node-local journaled apply).
3. **Recovery** -- after any crash, :meth:`TwoPhaseWriter.recover`
   collects pending intents from the nodes and resolves each
   transaction: if *any* participant already committed, the decision
   was commit, so the rest roll forward; otherwise presumed abort
   rolls everyone back.  All verbs are idempotent, so recovery can be
   re-run and can race a still-live client safely.

Either way every stripe lands all-old or all-new -- the crash-point
sweep in ``tests/cluster/test_txn.py`` proves it for every client- and
node-side crash position, mirroring ``tests/array/test_journal.py``.

Crash injection: :class:`TxnCrashPoint` kills the *client* before its
``n``-th protocol RPC (:class:`~repro.cluster.node.NodeCrashPlan`
covers the node side).  Both are deterministic, so sim scenarios
replay bit-identically.
"""

from __future__ import annotations

import asyncio

import numpy as np

from repro.cluster.client import (
    ClusterArray,
    ClusterDegradedError,
    ClusterError,
    NodeUnavailableError,
    RemoteDiskError,
)

__all__ = ["ClientCrash", "TxnCrashPoint", "TwoPhaseWriter"]


class ClientCrash(Exception):
    """Injected client death: the coordinator vanished mid-protocol.

    Tests catch it where a real deployment would lose the process; the
    cluster is then in whatever state the completed RPCs left, and
    :meth:`TwoPhaseWriter.recover` must converge it.
    """


class TxnCrashPoint:
    """Deterministic client-side crash trigger, counted in RPCs.

    ``arm(after=n)`` makes the writer die immediately before its
    ``n+1``-th protocol RPC (prepare/commit/abort, in issue order), so
    a sweep over ``n`` covers every client-side crash position of a
    write.  Disarmed by default and after firing.
    """

    def __init__(self) -> None:
        self._remaining: int | None = None
        self.steps = 0

    def arm(self, *, after: int = 0) -> None:
        self._remaining = int(after)

    def step(self) -> None:
        """Account one imminent RPC; raises :class:`ClientCrash` if armed out."""
        self.steps += 1
        if self._remaining is None:
            return
        if self._remaining == 0:
            self._remaining = None
            raise ClientCrash(f"client crashed before protocol RPC #{self.steps}")
        self._remaining -= 1


class TwoPhaseWriter:
    """Coordinator for atomic full-stripe writes on a :class:`ClusterArray`.

    ``client_id`` seeds the transaction-id sequence
    (``"<client_id>-<n>"``); keep it unique per live coordinator and
    deterministic under the sim (no randomness inside).  RPCs are
    issued sequentially in column order so crash positions are
    well-defined and reproducible.
    """

    def __init__(self, array: ClusterArray, *, client_id: str = "txn") -> None:
        self.array = array
        self.client_id = str(client_id)
        self.crash = TxnCrashPoint()
        self._seq = 0

    def _next_txn(self) -> str:
        self._seq += 1
        return f"{self.client_id}-{self._seq}"

    async def _rpc(
        self, column: int, verb: str, header: dict, payload: bytes = b""
    ) -> dict:
        self.crash.step()
        # The stripe rides along for routing: the (column, stripe) pair
        # resolves to a node through the array's holder map.
        reply, _ = await self.array._column_request(
            column, verb, header, payload, stripe=header["stripe"]
        )
        return reply

    # -- the write protocol --------------------------------------------------

    async def write_stripe(self, stripe: int, buf: np.ndarray) -> list[int]:
        """Atomically replace one stripe with ``buf`` (all columns).

        Degraded-write semantics match
        :meth:`ClusterArray.write_stripe`: unreachable columns are
        excluded from the transaction (:meth:`ClusterArray.record_write`
        marks their strips stale), up to the RAID-6 budget of two --
        beyond that the transaction aborts and
        :class:`ClusterDegradedError` is raised.  Returns the skipped
        columns; the stripe is all-new on the participants when the
        call returns.
        """
        array = self.array
        array._check_stripe(stripe)
        cols = list(range(array.code.n_cols))
        txn = self._next_txn()
        array.metrics.counter("txn_writes").inc()

        prepared: list[int] = []
        skipped: list[int] = []
        for col in cols:
            header = {"txn": txn, "stripe": stripe, "part": cols}
            try:
                await self._rpc(
                    col, "prepare", header, np.ascontiguousarray(buf[col]).data
                )
            except (NodeUnavailableError, RemoteDiskError):
                skipped.append(col)
            else:
                prepared.append(col)

        if len(skipped) > 2:
            await self._abort(txn, prepared, stripe=stripe)
            raise ClusterDegradedError(
                f"stripe {stripe}: txn {txn} lost columns {skipped}"
            )

        # The decision is commit: the skipped columns miss this write
        # whatever happens next, even if this writer dies mid-commit.
        array.record_write(stripe, [], skipped)
        committed_somewhere = False
        dirty: list[int] = []
        for col in prepared:
            try:
                await self._rpc(col, "commit", {"txn": txn, "stripe": stripe})
            except (NodeUnavailableError, RemoteDiskError):
                # The decision was commit; this participant crashed or
                # vanished before acknowledging.  Its intent (or its
                # stale strip) is recovered later -- mark it dirty.
                dirty.append(col)
            else:
                committed_somewhere = True
        if not committed_somewhere and prepared:
            # Every commit RPC failed: the decision still stands, and
            # recovery will roll the survivors forward.
            array.metrics.counter("txn_commit_stalls").inc()

        if skipped or dirty:
            array.metrics.counter("degraded_writes").inc()
        array.record_write(stripe, [c for c in prepared if c not in dirty], dirty)
        return skipped

    async def _abort(self, txn: str, columns: list[int], *, stripe: int) -> None:
        for col in columns:
            try:
                await self._rpc(col, "abort", {"txn": txn, "stripe": stripe})
            except (NodeUnavailableError, RemoteDiskError):
                pass  # presumed abort: an unreachable node aborts on recovery

    # -- crash recovery ------------------------------------------------------

    async def recover(self) -> dict:
        """Resolve every pending intent left by crashed writers.

        Scans every serving node for logged intents, then decides each
        transaction the presumed-abort way: any participant in state
        ``committed`` means the coordinator reached phase 2, so the
        rest roll forward; otherwise everyone rolls back.  Migration
        intents (``mig-...``) belong to
        :meth:`~repro.cluster.rebalance.Rebalancer.recover` and are left
        alone.  Unreachable nodes are skipped and picked up by the next
        pass (the verbs are idempotent).  Returns
        ``{"rolled_forward": [...], "rolled_back": [...]}`` of txn ids.
        """
        array = self.array
        nodes = array.membership.serving()

        async def intents_of(node_id: str) -> list[dict] | None:
            try:
                reply, _ = await array.client_for_node(node_id).request("intents")
            except ClusterError:
                return None
            return list(reply.get("txns", ()))

        found = await asyncio.gather(*(intents_of(n) for n in nodes))
        #: nodes whose intents are unknown: a commit may not reach them
        unseen = [n for n, recs in zip(nodes, found) if recs is None]
        pending: dict[str, dict] = {}
        for node_id, recs in zip(nodes, found):
            for rec in recs or ():
                if rec["txn"].startswith("mig-"):
                    continue
                entry = pending.setdefault(
                    rec["txn"],
                    {"stripe": int(rec["stripe"]),
                     "part": [int(c) for c in rec["part"]]
                     or list(range(array.code.n_cols)),
                     "holders": []},
                )
                entry["holders"].append(node_id)

        rolled_forward: list[str] = []
        rolled_back: list[str] = []
        for txn in sorted(pending):
            entry = pending[txn]
            holders = array.holders(entry["stripe"])
            commit = False
            for col in entry["part"]:
                try:
                    reply, _ = await array.client_for_node(holders[col]).request(
                        "txn-status", {"txn": txn}
                    )
                except ClusterError:
                    continue
                if reply.get("state") == "committed":
                    commit = True
                    break
            verb = "commit" if commit else "abort"
            rolled: list[str] = []
            missed = list(unseen)
            for node_id in entry["holders"]:
                try:
                    await array.client_for_node(node_id).request(verb, {"txn": txn})
                except ClusterError:
                    # Next recovery pass finishes the job; until then a
                    # committed txn's strip here, or on an unseen node,
                    # is stale.
                    missed.append(node_id)
                    continue
                rolled.append(node_id)
            if commit:
                array.record_write(
                    entry["stripe"],
                    [holders.index(n) for n in rolled if n in holders],
                    [holders.index(n) for n in missed if n in holders],
                )
            (rolled_forward if commit else rolled_back).append(txn)
            array.metrics.counter(
                "txn_rolled_forward" if commit else "txn_rolled_back"
            ).inc()
        return {"rolled_forward": rolled_forward, "rolled_back": rolled_back}
