"""Background rebuild of a lost column onto a replacement node.

The distributed analogue of :meth:`repro.array.raid6.RAID6Array.rebuild`:
stripes are streamed in bounded windows (``repro.parallel.iter_batches``)
through a :class:`~repro.parallel.BatchCoder` -- the same batch decode
path the throughput benchmarks exercise -- and the reconstructed strips
are pushed to a fresh node.  Because the scheduler is an ordinary
asyncio task, the array keeps serving reads and writes while the
rebuild drains in the background (a write to a stripe of the window in
flight waits for it); progress is visible live through the
``rebuild_*`` counters.

A rebuild tolerates a *second* concurrent loss: whatever columns turn
out to be unreachable while fetching a window are simply added to that
window's erasure pattern, up to the code's two-column budget.  Stale
columns (skipped by a degraded write) are erasures too, so their fresh
strips come out of the same decode and are written back.
"""

from __future__ import annotations

import asyncio
import contextlib

from repro.cluster.client import ClusterArray, NodeClient
from repro.parallel import BatchCoder, iter_batches

__all__ = ["RebuildScheduler"]


class RebuildScheduler:
    """Streams a column rebuild through batch decodes.

    ``batch_stripes`` bounds memory (one window of stripe buffers);
    each window is assembled by :meth:`ClusterArray.assemble_window`
    and, when every stripe in it shares one erasure pattern, decoded in
    one call of :attr:`coder` (a :class:`~repro.parallel.BatchCoder`).
    Run it in the background with
    ``asyncio.create_task(scheduler.rebuild_column(column, address))``:
    the array keeps serving while it drains.
    """

    def __init__(self, array: ClusterArray, *, batch_stripes: int = 16) -> None:
        self.array = array
        self.batch_stripes = int(batch_stripes)
        self.coder = BatchCoder(array.code)

    # -- progress ----------------------------------------------------------

    @property
    def progress(self) -> tuple[int, int]:
        """``(stripes_done, stripes_total)`` of the current/last rebuild."""
        m = self.array.metrics
        return m.get("rebuild_stripes_done"), m.get("rebuild_stripes_total")

    # -- the rebuild proper ------------------------------------------------

    async def rebuild_column(self, column: int, address: tuple[str, int]) -> int:
        """Reconstruct ``column`` onto the replacement node at ``address``.

        The replacement must already be listening (a blank
        :class:`~repro.cluster.node.StripNode` of the same geometry).
        On success the node that held the column takes the new
        address (:meth:`ClusterArray.replace_node`), restoring full
        redundancy.  Returns the number of stripes rebuilt.

        The column must live on one node for every stripe -- the fixed
        ``k + 2`` layout -- or :class:`ValueError` is raised.  On a
        larger pool a dead node's strips are scattered over columns; the
        :class:`~repro.cluster.rebalance.Rebalancer` re-places them
        (decode on read, placement-chosen targets per stripe).
        """
        array = self.array
        code = array.code
        if not 0 <= column < code.n_cols:
            raise ValueError(f"column {column} out of range [0, {code.n_cols})")
        array.column_node(column)
        array.metrics.counter("rebuild_stripes_total").inc(array.n_stripes)
        # Share the array's transport/clock seam so rebuilds run (and
        # replay deterministically) under simulation too.
        replacement = array._make_client(address)
        try:
            done = await self._rebuild_onto(column, replacement)
        finally:
            replacement.close()
        array.replace_node(column, address)
        return done

    async def _rebuild_onto(self, column: int, replacement: NodeClient) -> int:
        """Decode ``column`` window by window and put it on ``replacement``."""
        array = self.array
        done = 0
        for start, stop in iter_batches(array.n_stripes, self.batch_stripes):
            stripes = range(start, stop)
            async with contextlib.AsyncExitStack() as locks:
                # A write landing between the window's decode and its
                # puts would be lost on the replacement: hold it off.
                for s in stripes:
                    await locks.enter_async_context(array.stripe_lock(s))
                # The column is lost on every stripe; the window's other
                # losses and each stripe's stale columns join it, so the
                # stale strips are decoded too rather than trusted.
                batch, _ = await array.assemble_window(
                    stripes, [column], lost=[column], coder=self.coder
                )
                # Let queued foreground reads run before the puts.
                await asyncio.sleep(0)
                await asyncio.gather(
                    *(
                        replacement.request("put", {"stripe": s}, batch[i, column].data)
                        for i, s in enumerate(stripes)
                    )
                )
                for i, s in enumerate(stripes):
                    # The replacement holds fresh bytes; the stripe's
                    # other stale columns get theirs from the same decode.
                    array.record_write(s, [column])
                    await array.write_back(s, batch[i])
            done += stop - start
            array.metrics.counter("rebuild_stripes_done").inc(stop - start)
        return done
