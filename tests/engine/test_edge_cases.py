"""Edge-case shapes through every executor (satellite of the kernel PR).

The data plane's zero-copy story rests on executors accepting exactly
the buffers callers actually hold: empty word axes (a zero-byte
object's stripe tail), odd word counts (element sizes that are not a
power of two), non-contiguous views (a stripe sliced out of a larger
transport buffer), and the kernel plan's trailing-shape freedom (batch
views).  Each case compares against the streaming executor or a
contiguous copy, so these are equivalence tests, not just smoke.
"""

import numpy as np
import pytest

from repro.codes import make_code
from repro.engine.executor import (
    StreamingSchedule,
    compile_schedule,
    execute_bits,
    execute_words,
)
from repro.engine.kernels import compile_kernel
from repro.engine.ops import Schedule, XorOp


def _code(element_size=8):
    return make_code("liberation-optimal", 5, p=5, element_size=element_size)


def _sched():
    return _code().encode_schedule()


def _random_words(shape, seed=0):
    return np.random.default_rng(seed).integers(0, 2**64, shape, dtype=np.uint64)


class TestZeroLengthWordAxis:
    """words == 0: every path must be a structural no-op, not a crash."""

    def test_all_word_executors_accept_empty_words(self):
        sched = _sched()
        empty = np.zeros((sched.cols, sched.rows, 0), dtype=np.uint64)
        for run in (
            lambda b: execute_words(sched, b),
            compile_schedule(sched).run,
            StreamingSchedule(sched).run,
            compile_kernel(sched).run,
        ):
            out = run(empty.copy())
            assert out.shape == empty.shape

    def test_empty_schedule_is_identity(self):
        sched = Schedule(4, 3, [])
        buf = _random_words((4, 3, 2))
        for run in (
            lambda b: execute_words(sched, b),
            compile_schedule(sched).run,
            StreamingSchedule(sched).run,
            compile_kernel(sched).run,
        ):
            np.testing.assert_array_equal(run(buf.copy()), buf)
        bits = np.ones((4, 3), dtype=np.uint8)
        np.testing.assert_array_equal(execute_bits(sched, bits.copy()), bits)


class TestOddWordCounts:
    @pytest.mark.parametrize("element_size", (8, 24, 40, 56))
    def test_non_power_of_two_elements_agree(self, element_size):
        code = _code(element_size)
        sched = code.encode_schedule()
        buf = code.alloc_stripe()
        buf[: code.k] = _random_words(buf[: code.k].shape, seed=element_size)
        ref = compile_schedule(sched).run(buf.copy())
        np.testing.assert_array_equal(compile_kernel(sched).run(buf.copy()), ref)
        np.testing.assert_array_equal(StreamingSchedule(sched).run(buf.copy()), ref)

    def test_single_word_stripe(self):
        code = _code(8)
        assert code.alloc_stripe().shape[2] == 1  # the minimal word axis


class TestNonContiguousBuffers:
    def test_kernel_runs_in_place_on_strided_word_view(self):
        # A stripe interleaved with another in one backing buffer: the
        # kernel slices axes 0-1 only, so a word-axis stride is legal
        # and must produce the contiguous answer in place.
        sched = _sched()
        backing = _random_words((sched.cols, sched.rows, 6), seed=2)
        view = backing[:, :, ::2]
        assert not view.flags["C_CONTIGUOUS"]
        ref = compile_kernel(sched).run(view.copy())  # .copy() is contiguous
        compile_kernel(sched).run(view)
        np.testing.assert_array_equal(view, ref)

    def test_kernel_runs_on_transposed_batch_view(self):
        # The BatchCoder wide path's exact shape: a stripe-major batch
        # viewed as (cols, rows, n, words) without copying.
        code = _code()
        sched = code.encode_schedule()
        n, words = 3, 1
        batch = np.zeros((n, code.total_cols, code.rows, words), dtype=np.uint64)
        batch[:, : code.k] = _random_words((n, code.k, code.rows, words), seed=5)
        refs = [compile_schedule(sched).run(batch[i].copy()) for i in range(n)]
        wide = batch.transpose(1, 2, 0, 3)
        assert wide.base is batch
        compile_kernel(sched).run(wide)
        for i in range(n):
            np.testing.assert_array_equal(batch[i], refs[i])

    def test_kernel_word_packed_batch(self):
        # Word-packed layout (cols, rows, n*words): one plan call covers
        # every stripe; each word block must equal the per-stripe run.
        sched = _sched()
        single = _random_words((sched.cols, sched.rows, 2), seed=9)
        packed = np.concatenate([single, single], axis=2)
        ref = compile_kernel(sched).run(single.copy())
        compile_kernel(sched).run(packed)
        np.testing.assert_array_equal(packed[:, :, :2], ref)
        np.testing.assert_array_equal(packed[:, :, 2:], ref)


class TestShapeRejection:
    def test_kernel_rejects_wrong_leading_shape(self):
        sched = _sched()
        plan = compile_kernel(sched)
        with pytest.raises(ValueError, match="does not match kernel plan"):
            plan.run(np.zeros((sched.cols + 1, sched.rows, 1), dtype=np.uint64))
        with pytest.raises(ValueError, match="does not match kernel plan"):
            plan.run(np.zeros((sched.cols, sched.rows), dtype=np.uint64))

    def test_word_executors_reject_wrong_shape(self):
        sched = _sched()
        bad = np.zeros((sched.cols, sched.rows + 1, 1), dtype=np.uint64)
        with pytest.raises(ValueError):
            execute_words(sched, bad)
        with pytest.raises(ValueError):
            compile_schedule(sched).run(bad)


class TestBoundProgramCache:
    def test_rebinds_when_buffer_identity_is_reused(self):
        # id() reuse must not serve a stale program: the cache holds a
        # strong reference, so a cached id can never be recycled while
        # the entry lives -- and a fresh buffer always rebinds.
        sched = _sched()
        plan = compile_kernel(sched)
        ref = None
        for seed in range(6):  # > _CACHE_SIZE distinct buffers
            buf = _random_words((sched.cols, sched.rows, 1), seed=0)
            out = plan.run(buf)
            if ref is None:
                ref = out.copy()
            np.testing.assert_array_equal(out, ref)

    def test_cache_is_bounded(self):
        sched = _sched()
        plan = compile_kernel(sched)
        bufs = [_random_words((sched.cols, sched.rows, 1), seed=s) for s in range(8)]
        for b in bufs:
            plan.run(b)
        assert len(plan._bound) <= plan._CACHE_SIZE


class TestBitExecutorEdges:
    def test_execute_bits_copy_then_xor_chain(self):
        sched = Schedule(
            3, 2, [XorOp(2, 0, 0, 0, copy=True), XorOp(2, 0, 1, 1, copy=False)]
        )
        bits = np.array([[1, 0], [0, 1], [0, 0]], dtype=np.uint8)
        execute_bits(sched, bits)
        assert bits[2, 0] == 0  # 1 ^ 1

    def test_execute_bits_rejects_wrong_shape(self):
        sched = _sched()
        with pytest.raises(ValueError):
            execute_bits(sched, np.zeros((1, 1), dtype=np.uint8))
