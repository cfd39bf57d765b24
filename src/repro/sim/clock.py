"""Injectable time: the real event loop clock or a deterministic
virtual one.

Everything in :mod:`repro.cluster` that touches time -- service-latency
faults, request timeouts, retry backoff, latency histograms -- goes
through a :class:`Clock`.  The default :class:`RealClock` delegates to
asyncio, so production behaviour is unchanged.  Under simulation a
:class:`VirtualClock` replaces it: ``sleep`` and ``wait_for`` consume
*virtual* seconds that advance only when every task in the loop has
quiesced, so a scenario with seconds of backoff and timeout runs in
microseconds of wall time and -- because nothing ever races the wall
clock -- replays bit-identically from the same seed.

The advancement rule is the standard discrete-event one: while any
virtual sleeper is pending, let the event loop drain all ready work,
then jump time straight to the earliest deadline and wake everything
due.  With the in-memory transport (:mod:`repro.sim.transport`) there
is no real I/O to wait on, so "ready work drained" is observable by
yielding the pump task through the loop a bounded number of times --
each ``asyncio.sleep(0)`` parks the pump behind every currently
runnable callback.
"""

from __future__ import annotations

import asyncio
import contextlib
import heapq
from typing import Awaitable

__all__ = ["Clock", "RealClock", "VirtualClock"]


class Clock:
    """Interface: time(), sleep(), wait_for() -- see the implementations."""

    def time(self) -> float:
        raise NotImplementedError

    async def sleep(self, delay: float) -> None:
        raise NotImplementedError

    async def wait_for(self, awaitable: Awaitable, timeout: float):
        raise NotImplementedError


class RealClock(Clock):
    """The event loop's own clock (production default)."""

    def time(self) -> float:
        return asyncio.get_running_loop().time()

    async def sleep(self, delay: float) -> None:
        await asyncio.sleep(delay)

    async def wait_for(self, awaitable: Awaitable, timeout: float):
        return await asyncio.wait_for(awaitable, timeout)


class VirtualClock(Clock):
    """Deterministic discrete-event time for simulation.

    ``settle_yields`` bounds how many times the advancing task cycles
    through the ready queue before concluding the loop has quiesced;
    each cycle runs *every* currently ready callback, so the default
    comfortably covers the deepest RPC chains in the cluster stack.
    The value sets how many loop passes time waits before it jumps to
    the next sleeper, so it moves the virtual timestamps a scenario
    records (its trace ``t`` values, and with them its digest), but not
    op results or read hashes: all in-simulation work is deterministic
    either way.
    """

    def __init__(self, start: float = 0.0, *, settle_yields: int = 20) -> None:
        self._now = float(start)
        self._seq = 0
        #: heap of (deadline, seq, future) for pending sleepers
        self._sleepers: list[tuple[float, int, asyncio.Future]] = []
        self._pump: asyncio.Task | None = None
        self.settle_yields = int(settle_yields)

    def time(self) -> float:
        return self._now

    @property
    def pending(self) -> int:
        """Number of unfired sleepers (diagnostics)."""
        return sum(1 for *_ , f in self._sleepers if not f.done())

    async def sleep(self, delay: float) -> None:
        if delay <= 0:
            await asyncio.sleep(0)
            return
        loop = asyncio.get_running_loop()
        fut: asyncio.Future = loop.create_future()
        heapq.heappush(self._sleepers, (self._now + float(delay), self._seq, fut))
        self._seq += 1
        if self._pump is None or self._pump.done():
            self._pump = loop.create_task(self._advance_forever())
        await fut

    async def wait_for(self, awaitable: Awaitable, timeout: float):
        """Race ``awaitable`` against a virtual timer.

        Mirrors :func:`asyncio.wait_for`: on timeout the awaitable is
        cancelled and :class:`asyncio.TimeoutError` is raised.
        """
        if timeout is None:
            return await awaitable
        task = asyncio.ensure_future(awaitable)
        timer = asyncio.ensure_future(self.sleep(timeout))
        try:
            await asyncio.wait({task, timer}, return_when=asyncio.FIRST_COMPLETED)
            if task.done():
                return task.result()
            task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await task
            raise asyncio.TimeoutError(f"virtual wait_for timed out after {timeout}s")
        finally:
            timer.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await timer

    # -- the advancing pump --------------------------------------------------

    def _prune(self) -> None:
        while self._sleepers and self._sleepers[0][2].done():
            heapq.heappop(self._sleepers)

    async def _advance_forever(self) -> None:
        while True:
            # Let every runnable task make progress before touching time.
            for _ in range(self.settle_yields):
                await asyncio.sleep(0)
            self._prune()
            if not self._sleepers:
                return
            deadline = self._sleepers[0][0]
            if deadline > self._now:
                self._now = deadline
            while self._sleepers and self._sleepers[0][0] <= self._now:
                _, _, fut = heapq.heappop(self._sleepers)
                if not fut.done():
                    fut.set_result(None)

    def __repr__(self) -> str:
        return f"VirtualClock(t={self._now:.6f}, pending={self.pending})"
