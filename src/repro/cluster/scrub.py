"""Distributed scrub & repair: find and fix silent corruption in place.

The cluster-side sibling of :class:`repro.array.scrub.Scrubber`, built
around the paper's single-column locator
(:func:`repro.core.error_correction.locate_and_correct`): stream
stripes through the cluster in bounded windows, verify parity, locate
the corrupted column on a mismatch, and push the corrected strip back
to its node.

Two economies keep a routine pass cheap:

* **Dirty-first** -- stripes whose last write skipped columns
  (:attr:`ClusterArray.dirty_stripes`) are scrubbed before anything
  else: their stale columns are known erasures, so the shared assembly
  path (:meth:`ClusterArray.assemble`) decodes them exactly and the
  scrubber writes them back the moment their node is back.
* **Checksum fast path** -- for the remaining stripes the scrubber
  first issues ``scrub-read`` probes: each node compares its strip
  against its CRC-32 sidecar locally and answers with a verdict, no
  strip payload on the wire.  Only stripes with a mismatch (or an
  unreachable probe) pay for a full fetch + parity verify.  ``deep``
  mode skips the fast path entirely -- sidecars cannot see a *stale
  but internally consistent* strip, so a periodic deep pass is the
  backstop.

Erasure-type damage met along the way (latent sectors, a column that
is briefly down) is repaired too: survivors decode the lost strips and
the scrubber pushes them back where a node will take them.

All I/O rides the array's Clock/Transport/Tracer seams, so scrub
passes replay deterministically under :mod:`repro.sim`; progress is
visible in ``scrub_*`` metrics and ``scrub.pass`` spans.  When the
scrubber is idle (between passes, or never started) it issues no RPCs
at all.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field

from repro.cluster.client import ClusterArray, ClusterDegradedError, ClusterError
from repro.codes.liberation import LiberationCode
from repro.core.error_correction import ScanStatus, locate_and_correct
from repro.parallel import iter_batches

__all__ = ["ClusterScrubReport", "ClusterScrubber"]


@dataclass
class ClusterScrubReport:
    """Aggregate outcome of one distributed scrub pass."""

    stripes_scanned: int = 0
    stripes_clean: int = 0
    stripes_corrected: int = 0
    stripes_uncorrectable: int = 0
    #: parity mismatch found, but the code has no locator (or repair is
    #: off): detected, not correctable by the single-column procedure
    stripes_detected_only: int = 0
    #: stripes whose damaged columns could not be reached for repair
    stripes_deferred: int = 0
    #: stripes settled by the checksum fast path (no strip shipped)
    fast_path_hits: int = 0
    corrected: list[tuple[int, int]] = field(default_factory=list)  # (stripe, column)
    uncorrectable: list[int] = field(default_factory=list)
    detected_only: list[int] = field(default_factory=list)
    deferred: list[int] = field(default_factory=list)
    crc_mismatches: list[tuple[int, int]] = field(default_factory=list)

    @property
    def healthy(self) -> bool:
        return (
            self.stripes_uncorrectable == 0
            and self.stripes_detected_only == 0
            and self.stripes_deferred == 0
        )

    def merge(self, other: "ClusterScrubReport") -> None:
        for name in (
            "stripes_scanned", "stripes_clean", "stripes_corrected",
            "stripes_uncorrectable", "stripes_detected_only",
            "stripes_deferred", "fast_path_hits",
        ):
            setattr(self, name, getattr(self, name) + getattr(other, name))
        for name in ("corrected", "uncorrectable", "detected_only",
                     "deferred", "crc_mismatches"):
            getattr(self, name).extend(getattr(other, name))


class ClusterScrubber:
    """Scrubs a :class:`ClusterArray` in place, window by window.

    ``window`` bounds concurrency (stripes verified at once);
    ``interval`` is the sleep between background passes when driven by
    :meth:`start`.  Non-Liberation codes fall back to detect-only, the
    same surfaced fallback as the local scrubber.
    """

    def __init__(
        self, array: ClusterArray, *, window: int = 8, interval: float = 30.0
    ) -> None:
        self.array = array
        self.window = int(window)
        self.interval = float(interval)
        self._can_locate = isinstance(array.code, LiberationCode)
        self._task: asyncio.Task | None = None

    # -- one stripe ----------------------------------------------------------

    async def _crc_clean(self, stripe: int) -> tuple[bool, list[int]]:
        """Checksum probe of every column; ``(all clean, mismatched cols)``.

        An unreachable or erroring probe counts as a mismatch so the
        full path takes over.
        """
        cols = range(self.array.code.n_cols)

        async def probe(col: int) -> bool:
            reply, _ = await self.array._column_request(
                col, "scrub-read", {"stripe": stripe}, stripe=stripe
            )
            return bool(reply.get("match"))

        results = await asyncio.gather(
            *(probe(c) for c in cols), return_exceptions=True
        )
        bad = [c for c, r in zip(cols, results) if r is not True]
        for res in results:
            if isinstance(res, BaseException) and not isinstance(res, ClusterError):
                raise res
        return not bad, bad

    async def scrub_stripe(
        self, stripe: int, *, repair: bool = True
    ) -> ClusterScrubReport:
        """Full verify (and repair) of one stripe; returns a 1-stripe report.

        Holds the stripe lock from the read to the repair, so a write
        cannot land in between and be overwritten by older bytes.
        """
        async with self.array.stripe_lock(stripe):
            array, code = self.array, self.array.code
            report = ClusterScrubReport(stripes_scanned=1)
            try:
                buf, erased = await array.assemble(stripe, range(code.n_cols))
            except ClusterDegradedError:
                report.stripes_deferred += 1
                report.deferred.append(stripe)
                return report

            if erased:
                # Erasure-type damage -- lost strips and the stripe's stale
                # columns, decoded exactly -- goes back to any column that
                # will take a write (latent sectors heal on rewrite; a down
                # node stays deferred).
                failed = await array.write_back(stripe, buf, erased) if repair else erased
                for col in erased:
                    if col not in failed:
                        report.stripes_corrected += 1
                        report.corrected.append((stripe, col))
                        array.metrics.counter("scrub_stripes_corrected").inc()
                if failed:
                    report.stripes_deferred += 1
                    report.deferred.append(stripe)
                return report

            if code.verify(buf):
                report.stripes_clean += 1
                return report

            if not (self._can_locate and repair):
                report.stripes_detected_only += 1
                report.detected_only.append(stripe)
                array.metrics.counter("scrub_detected_only").inc()
                return report

            result = locate_and_correct(code.geometry, buf)
            if result.status is ScanStatus.CORRECTED:
                if await array.write_back(stripe, buf, [result.column]):
                    report.stripes_deferred += 1
                    report.deferred.append(stripe)
                    return report
                report.stripes_corrected += 1
                report.corrected.append((stripe, result.column))
                array.metrics.counter("scrub_stripes_corrected").inc()
            else:
                report.stripes_uncorrectable += 1
                report.uncorrectable.append(stripe)
                array.metrics.counter("scrub_uncorrectable").inc()
            return report

    # -- one pass ------------------------------------------------------------

    async def scrub(self, *, repair: bool = True, deep: bool = False) -> ClusterScrubReport:
        """One pass over the whole array: dirty stripes first, then the rest.

        Clean, non-dirty stripes settle on the checksum fast path
        unless ``deep`` forces a full fetch + parity verify of every
        stripe.
        """
        array = self.array
        report = ClusterScrubReport()
        tracer = array.tracer

        async def run_pass() -> None:
            dirty = sorted(array.dirty_stripes)
            for stripe in dirty:
                report.merge(await self.scrub_stripe(stripe, repair=repair))
            rest = [s for s in range(array.n_stripes) if s not in set(dirty)]
            for start, stop in iter_batches(len(rest), self.window):
                window = rest[start:stop]
                if deep:
                    verdicts = [(False, []) for _ in window]
                else:
                    verdicts = await asyncio.gather(
                        *(self._crc_clean(s) for s in window)
                    )
                for stripe, (clean, bad) in zip(window, verdicts):
                    if clean:
                        report.stripes_scanned += 1
                        report.stripes_clean += 1
                        report.fast_path_hits += 1
                        array.metrics.counter("scrub_fast_path_hits").inc()
                        continue
                    report.crc_mismatches.extend((stripe, c) for c in bad)
                    for col in bad:
                        array.metrics.counter("scrub_crc_mismatches_seen").inc()
                    report.merge(await self.scrub_stripe(stripe, repair=repair))
            array.metrics.counter("scrub_passes").inc()
            array.metrics.counter("scrub_stripes_scanned").inc(
                report.stripes_scanned
            )

        if tracer is None:
            await run_pass()
        else:
            with tracer.span("scrub.pass", stripes=array.n_stripes,
                             deep=deep) as span:
                await run_pass()
                span.set("corrected", report.stripes_corrected)
                span.set("uncorrectable", report.stripes_uncorrectable)
                span.set("fast_path_hits", report.fast_path_hits)
        return report

    # -- background driving --------------------------------------------------

    def start(self, *, repair: bool = True, deep_every: int = 0) -> asyncio.Task:
        """Launch periodic passes as a background task.

        ``deep_every=n`` makes every ``n``-th pass a deep one (0 keeps
        all passes on the fast path).  Between passes the scrubber
        sleeps on the array's clock and issues **no** RPCs.
        """
        if self._task is not None and not self._task.done():
            raise RuntimeError("scrub loop already running")

        async def loop() -> None:
            passes = 0
            while True:
                deep = bool(deep_every) and passes % deep_every == deep_every - 1
                await self.scrub(repair=repair, deep=deep)
                passes += 1
                await self.array.clock.sleep(self.interval)

        self._task = asyncio.get_running_loop().create_task(loop())
        return self._task

    async def stop(self) -> None:
        """Cancel the background loop (no-op if never started)."""
        task, self._task = self._task, None
        if task is not None and not task.done():
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass
