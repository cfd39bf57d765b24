"""Tests for the symbolic GF(2) interpreter."""

import numpy as np
import pytest

from repro.analysis.static.symbolic import (
    ZERO,
    data_atom,
    format_expr,
    garbage_atom,
    is_garbage,
    pristine_state,
    symbolic_execute,
)
from repro.engine.executor import execute_bits
from repro.engine.ops import Schedule


def expr(*cells):
    return frozenset(data_atom(c, r) for c, r in cells)


class TestInterpreter:
    def test_copy_replaces(self):
        s = Schedule(3, 1)
        s.copy_cell((2, 0), (0, 0))
        final = symbolic_execute(s)
        assert final[(2, 0)] == expr((0, 0))

    def test_accumulate_is_symmetric_difference(self):
        s = Schedule(3, 1)
        s.copy_cell((2, 0), (0, 0))
        s.accumulate((2, 0), (1, 0))
        s.accumulate((2, 0), (0, 0))  # cancels the copy's contribution
        final = symbolic_execute(s)
        assert final[(2, 0)] == expr((1, 0))

    def test_double_accumulate_cancels_to_zero(self):
        s = Schedule(2, 1)
        s.mark_touched((1, 0))
        s.accumulate((1, 0), (0, 0))
        s.accumulate((1, 0), (0, 0))
        final = symbolic_execute(s)
        assert final[(1, 0)] == expr((1, 0))  # back to its initial value

    def test_untouched_cells_keep_their_atom(self):
        s = Schedule(3, 2)
        s.copy_cell((2, 0), (0, 0))
        final = symbolic_execute(s)
        assert final[(1, 1)] == expr((1, 1))

    def test_input_state_not_mutated(self):
        s = Schedule(2, 1)
        s.copy_cell((1, 0), (0, 0))
        state = pristine_state(2, 1)
        before = dict(state)
        symbolic_execute(s, state)
        assert state == before

    def test_garbage_flows_through(self):
        s = Schedule(3, 1)
        s.copy_cell((2, 0), (1, 0))
        state = pristine_state(3, 1, garbage_cells=[(1, 0)])
        final = symbolic_execute(s, state)
        assert final[(2, 0)] == frozenset((garbage_atom(1, 0),))
        assert all(is_garbage(a) for a in final[(2, 0)])

    def test_overrides(self):
        state = pristine_state(2, 1, overrides={(1, 0): expr((0, 0))})
        assert state[(1, 0)] == expr((0, 0))


class TestAgainstBitExecution:
    """The interpreter must agree with the bit-level reference on every
    input: evaluate the symbolic result over random bit assignments."""

    @pytest.mark.parametrize("name,k,p", [
        ("liberation-optimal", 4, 5),
        ("evenodd", 4, 5),
        ("rdp", 4, 5),
    ])
    def test_symbolic_matches_dynamic(self, name, k, p):
        from repro.codes import make_code

        code = make_code(name, k, p=p)
        sched = code.build_encode_schedule()
        final = symbolic_execute(sched)

        rng = np.random.default_rng(7)
        for _ in range(4):
            bits = rng.integers(0, 2, (sched.cols, sched.rows)).astype(np.uint8)
            ref = bits.copy()
            execute_bits(sched, ref)
            for col in range(sched.cols):
                for row in range(sched.rows):
                    want = 0
                    for _tag, c, r in final[(col, row)]:
                        want ^= int(bits[c, r])
                    assert ref[col, row] == want


class TestFormatting:
    def test_zero(self):
        assert format_expr(ZERO) == "0"

    def test_terms_and_garbage(self):
        e = frozenset((data_atom(1, 2), garbage_atom(3, 4)))
        out = format_expr(e)
        assert "b[c1,r2]" in out and "garbage[c3,r4]" in out

    def test_truncation(self):
        e = frozenset(data_atom(c, 0) for c in range(12))
        out = format_expr(e, limit=3)
        assert "9 more" in out
