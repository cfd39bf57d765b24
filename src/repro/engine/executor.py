"""Schedule execution: bit-level reference and word-level paths.

Two executors share one semantics:

* :func:`execute_bits` -- interprets a schedule op-by-op over a
  ``(cols, rows)`` 0/1 array.  This is the reference implementation used
  by correctness tests and by anything that wants exact bit semantics.

* :func:`execute_words` -- runs the schedule over a stripe of
  machine-word elements ``buf[cols, rows, words]`` through
  :func:`compile_schedule`, which lowers it to a
  :class:`~repro.engine.kernels.KernelPlan` of levelized bulk-XOR slice
  ops.  :class:`StreamingSchedule` is the op-at-a-time alternative that
  mirrors Jerasure's execution model.

The XOR *count* of a schedule is a property of the schedule itself
(``Schedule.n_xors``), never of the execution strategy; compiling for
speed cannot change the complexity accounting.
"""

from __future__ import annotations

import numpy as np

from repro.engine.kernels import KernelPlan, compile_kernel
from repro.engine.ops import Schedule

__all__ = [
    "execute_bits",
    "execute_words",
    "compile_schedule",
    "StreamingSchedule",
]


def execute_bits(schedule: Schedule, bits: np.ndarray) -> np.ndarray:
    """Run ``schedule`` in place over a ``(cols, rows)`` 0/1 array.

    Returns ``bits`` for convenience.
    """
    if bits.shape != (schedule.cols, schedule.rows):
        raise ValueError(
            f"bit array shape {bits.shape} does not match schedule "
            f"({schedule.cols}, {schedule.rows})"
        )
    for op in schedule:
        if op.copy:
            bits[op.dst_col, op.dst_row] = bits[op.src_col, op.src_row]
        else:
            bits[op.dst_col, op.dst_row] ^= bits[op.src_col, op.src_row]
    return bits


def compile_schedule(schedule: Schedule, *, validate: bool = False) -> KernelPlan:
    """Lower a schedule to a :class:`~repro.engine.kernels.KernelPlan`.

    The production fast path: contiguous-slice bulk XORs (see
    :mod:`repro.engine.kernels`).  ``validate`` proves the emitted
    kernel program cell-for-cell equivalent to the source schedule by
    symbolic execution, raising
    :class:`~repro.engine.verify.ScheduleViolation` on a lowering bug.
    """
    return compile_kernel(schedule, validate=validate)


class StreamingSchedule:
    """Op-at-a-time execution, mirroring Jerasure's region operations.

    Jerasure executes a schedule as one ``galois_region_xor`` (or
    memcpy) per scheduled operation; throughput is therefore
    proportional to the *operation count* -- which is exactly the
    quantity the paper's algorithms minimise.  This executor preserves
    that model: one NumPy XOR/copy over the element per op, no fusion.
    Use it for paper-faithful throughput comparisons; the
    :class:`~repro.engine.kernels.KernelPlan` from
    :func:`compile_schedule` is the faster engine for production use
    (where levelization blurs the algorithms' op-count differences).
    """

    def __init__(self, schedule: Schedule) -> None:
        self.cols = schedule.cols
        self.rows = schedule.rows
        arr = schedule.to_array()
        rows = self.rows
        self._dst = (arr[:, 0] * rows + arr[:, 1]).astype(np.intp)
        self._src = (arr[:, 2] * rows + arr[:, 3]).astype(np.intp)
        self._copy = arr[:, 4].astype(bool)

    @property
    def n_ops(self) -> int:
        return self._dst.size

    def run(self, buf: np.ndarray) -> np.ndarray:
        """Execute over ``buf[cols, rows, words]`` (in place)."""
        if buf.shape[:2] != (self.cols, self.rows):
            raise ValueError(
                f"stripe shape {buf.shape[:2]} does not match schedule "
                f"({self.cols}, {self.rows})"
            )
        flat = buf.reshape(self.cols * self.rows, -1)
        for dst, src, is_copy in zip(self._dst, self._src, self._copy):
            if is_copy:
                flat[dst] = flat[src]
            else:
                np.bitwise_xor(flat[dst], flat[src], out=flat[dst])
        return buf


def execute_words(schedule: Schedule, buf: np.ndarray) -> np.ndarray:
    """One-shot compile + run over a word stripe (in place).

    For hot paths, compile once with :func:`compile_schedule` and reuse
    the :class:`~repro.engine.kernels.KernelPlan`.
    """
    return compile_schedule(schedule).run(buf)
