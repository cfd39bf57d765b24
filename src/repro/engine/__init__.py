"""XOR schedule representation and execution engine.

Every encoder/decoder in this library -- the paper's optimal Algorithms
1-4 as well as the Jerasure-style bit-matrix baseline -- is expressed as
a *schedule*: an ordered list of copy/XOR operations on stripe cells
``(column, row)``.  One engine then executes a schedule either

* on bit arrays (one bit per cell; exact semantics, used for
  correctness tests and XOR counting), or
* on machine-word arrays (``uint64`` element buffers; used for
  throughput benchmarks, 64 interleaved codewords per word as in the
  paper §II-A), either op-at-a-time (streaming) or lowered to
  levelized bulk-XOR slice kernels (:mod:`repro.engine.kernels` --
  the native-speed data plane).

Keeping algorithms as schedule generators gives exact, implementation-
independent XOR counts (a copy is free, each XOR'd source counts 1 --
the paper's accounting) while sharing a single optimised datapath, so
throughput comparisons between algorithms measure the algorithms and
not incidental implementation differences.
"""

from repro.engine.ops import XorOp, Schedule
from repro.engine.executor import (
    execute_bits,
    execute_words,
    StreamingSchedule,
    compile_schedule,
)
from repro.engine.kernels import KernelOp, KernelPlan, compile_kernel
from repro.engine.verify import ScheduleViolation, verify_schedule

__all__ = [
    "XorOp",
    "Schedule",
    "execute_bits",
    "execute_words",
    "StreamingSchedule",
    "compile_schedule",
    "KernelOp",
    "KernelPlan",
    "compile_kernel",
    "ScheduleViolation",
    "verify_schedule",
]
