"""Tests for schedule execution: bit reference vs compiled word engines.

The central invariant: for any legal schedule, the compiled
:class:`~repro.engine.kernels.KernelPlan`, the :class:`StreamingSchedule`
and the op-by-op bit executor compute identical results.
"""

import numpy as np
import pytest

from repro.engine.executor import (
    StreamingSchedule,
    compile_schedule,
    execute_bits,
    execute_words,
)
from repro.engine.ops import Schedule


def random_schedule(rng, cols=5, rows=4, n_ops=60):
    """A random legal schedule with read-write interleavings."""
    s = Schedule(cols, rows)
    for _ in range(n_ops):
        dst = (int(rng.integers(0, cols)), int(rng.integers(0, rows)))
        src = (int(rng.integers(0, cols)), int(rng.integers(0, rows)))
        if src == dst:
            continue
        if not s.touched(dst) or rng.random() < 0.15:
            s.copy_cell(dst, src)
        else:
            s.accumulate(dst, src)
    return s


def bits_of_words(words):
    """Unpack a (cols, rows, words) uint64 stripe into per-bit planes."""
    return np.unpackbits(words.view(np.uint8), axis=-1)


class TestBitExecutor:
    def test_copy_then_xor(self):
        s = Schedule(3, 1)
        s.copy_cell((2, 0), (0, 0))
        s.accumulate((2, 0), (1, 0))
        bits = np.array([[1], [1], [0]], dtype=np.uint8)
        execute_bits(s, bits)
        assert bits[2, 0] == 0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            execute_bits(Schedule(3, 2), np.zeros((2, 2), dtype=np.uint8))


class TestEquivalence:
    @pytest.mark.parametrize("seed", range(12))
    def test_compiled_matches_bits(self, seed):
        rng = np.random.default_rng(seed)
        sched = random_schedule(rng)
        bits = rng.integers(0, 2, (5, 4)).astype(np.uint8)
        # Word buffer whose single word's low bit mirrors `bits`.
        words = bits.astype(np.uint64)[:, :, None]
        execute_bits(sched, bits)
        compile_schedule(sched).run(words)
        assert np.array_equal(words[:, :, 0] & 1, bits)

    @pytest.mark.parametrize("seed", range(12))
    def test_streaming_matches_bits(self, seed):
        rng = np.random.default_rng(seed)
        sched = random_schedule(rng)
        bits = rng.integers(0, 2, (5, 4)).astype(np.uint8)
        words = bits.astype(np.uint64)[:, :, None]
        execute_bits(sched, bits)
        StreamingSchedule(sched).run(words)
        assert np.array_equal(words[:, :, 0] & 1, bits)

    @pytest.mark.parametrize("seed", range(8))
    def test_batched_matches_sequential(self, seed):
        """One plan bound over a stripe batch ``(cols, rows, n, words)``
        equals running the op-at-a-time engine stripe by stripe."""
        rng = np.random.default_rng(100 + seed)
        sched = random_schedule(rng, n_ops=120)
        base = rng.integers(0, 2**64, (5, 4, 3, 2), dtype=np.uint64)
        a = base.copy()
        compile_schedule(sched).run(a)
        for i in range(base.shape[2]):
            b = np.ascontiguousarray(base[:, :, i])
            StreamingSchedule(sched).run(b)
            assert np.array_equal(a[:, :, i], b)

    def test_execute_words_one_shot(self):
        s = Schedule(3, 1)
        s.copy_cell((2, 0), (0, 0))
        s.accumulate((2, 0), (1, 0))
        buf = np.array([[[5]], [[3]], [[0]]], dtype=np.uint64)
        execute_words(s, buf)
        assert buf[2, 0, 0] == 6


class TestHazards:
    def test_value_read_mid_accumulation(self):
        """A copy must observe the partial value at its program point.

        This is exactly the encoder's common-expression pattern: Q is
        seeded from P while P is only partially accumulated.
        """
        s = Schedule(4, 1)
        s.copy_cell((2, 0), (0, 0))  # P <- a
        s.accumulate((2, 0), (1, 0))  # P ^= b  (P == common expression)
        s.copy_cell((3, 0), (2, 0))  # Q <- E  (partial P!)
        s.accumulate((2, 0), (1, 0))  # P continues accumulating
        buf = np.array([[[0b100]], [[0b010]], [[0]], [[0]]], dtype=np.uint64)
        execute_words(s, buf.copy())
        out = buf.copy()
        compile_schedule(s).run(out)
        assert out[3, 0, 0] == 0b110  # saw a^b, not the final P
        assert out[2, 0, 0] == 0b100  # a^b^b

    def test_write_after_read(self):
        """A source overwritten later must have been consumed first."""
        s = Schedule(3, 1)
        s.copy_cell((1, 0), (0, 0))  # B <- A
        s.copy_cell((0, 0), (2, 0))  # A <- C (overwrites the source)
        buf = np.array([[[7]], [[0]], [[9]]], dtype=np.uint64)
        compile_schedule(s).run(buf)
        assert buf[1, 0, 0] == 7 and buf[0, 0, 0] == 9

    def test_in_place_syndrome_update(self):
        """Decode pattern: produce, consume, update, consume again."""
        s = Schedule(3, 2)
        s.copy_cell((2, 0), (0, 0))  # S <- a
        s.accumulate((2, 0), (1, 0))  # S ^= b
        s.copy_cell((2, 1), (2, 0))  # T <- S
        s.accumulate((2, 0), (0, 1))  # S ^= c  (update after read)
        s.accumulate((2, 1), (2, 0))  # T ^= S' (read updated value)
        rng = np.random.default_rng(5)
        buf = rng.integers(0, 2**64, (3, 2, 2), dtype=np.uint64)
        expect = buf.copy()
        a, b, c = expect[0, 0].copy(), expect[1, 0].copy(), expect[0, 1].copy()
        expect[2, 0] = a ^ b ^ c
        expect[2, 1] = (a ^ b) ^ (a ^ b ^ c)
        compile_schedule(s).run(buf)
        assert np.array_equal(buf, expect)


class TestCompiledProperties:
    def test_group_count_reported(self):
        """Accumulations from a contiguous column range into one cell
        lower to a single reduce."""
        s = Schedule(4, 1)
        for j in range(3):
            s.xor_into((3, 0), (j, 0))
        plan = compile_schedule(s)
        assert plan.stats()["kernel_ops"] == 1

    def test_run_shape_mismatch(self):
        s = Schedule(3, 2)
        s.copy_cell((2, 0), (0, 0))
        with pytest.raises(ValueError):
            compile_schedule(s).run(np.zeros((3, 3, 1), dtype=np.uint64))
        with pytest.raises(ValueError):
            StreamingSchedule(s).run(np.zeros((3, 3, 1), dtype=np.uint64))

    def test_streaming_op_count(self):
        s = Schedule(3, 1)
        s.copy_cell((2, 0), (0, 0))
        s.accumulate((2, 0), (1, 0))
        assert StreamingSchedule(s).n_ops == 2


class TestCompileValidation:
    """compile_schedule(validate=True): the lowering is symbolically
    proved equivalent to the source schedule at compile time."""

    def _real_schedules(self):
        from repro.codes import make_code

        for name in ("liberation-optimal", "evenodd", "rdp"):
            code = make_code(name, 4, p=5)
            yield code.build_encode_schedule()
            yield code.build_decode_schedule((0, 1))
            yield code.build_decode_schedule((1, code.q_col))

    def test_real_schedules_validate(self):
        for sched in self._real_schedules():
            compile_schedule(sched, validate=True)
