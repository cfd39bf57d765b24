"""Tests for batch / multi-threaded stripe coding."""

import numpy as np
import pytest

from repro.codes import make_code
from repro.parallel import BatchCoder, alloc_batch, alloc_word_batch, iter_batches


class TestIterBatches:
    def test_covers_range_without_overlap(self):
        bounds = list(iter_batches(10, 3))
        assert bounds == [(0, 3), (3, 6), (6, 9), (9, 10)]

    def test_single_window(self):
        assert list(iter_batches(4, 100)) == [(0, 4)]

    def test_empty(self):
        assert list(iter_batches(0, 8)) == []

    def test_rejects_nonpositive_batch(self):
        with pytest.raises(ValueError):
            list(iter_batches(5, 0))


@pytest.fixture
def code():
    return make_code("liberation-optimal", 4, p=5, element_size=64)


def filled_batch(code, n, rng):
    batch = alloc_batch(code, n)
    batch[:, : code.k] = rng.integers(
        0, 2**64, batch[:, : code.k].shape, dtype=np.uint64
    )
    return batch


class TestAllocBatch:
    def test_shape(self, code):
        batch = alloc_batch(code, 5)
        assert batch.shape == (5, code.total_cols, 5, 8)

    def test_positive_count(self, code):
        with pytest.raises(ValueError):
            alloc_batch(code, 0)


class TestEncode:
    def test_matches_per_stripe_encode(self, code, rng):
        batch = filled_batch(code, 7, rng)
        expect = batch.copy()
        for i in range(7):
            code.encode(expect[i])
        BatchCoder(code).encode(batch)
        assert np.array_equal(batch, expect)

    @pytest.mark.parametrize("workers", [2, 4])
    def test_threaded_identical_to_serial(self, code, rng, workers):
        batch = filled_batch(code, 23, rng)
        serial = batch.copy()
        BatchCoder(code, workers=1).encode(serial)
        BatchCoder(code, workers=workers).encode(batch)
        assert np.array_equal(batch, serial)

    def test_single_stripe_batch(self, code, rng):
        batch = filled_batch(code, 1, rng)
        BatchCoder(code, workers=4).encode(batch)
        assert code.verify(batch[0])

    def test_bad_shape_rejected(self, code, rng):
        with pytest.raises(ValueError):
            BatchCoder(code).encode(np.zeros((2, 3, 4), dtype=np.uint64))

    def test_workers_validated(self, code):
        with pytest.raises(ValueError):
            BatchCoder(code, workers=0)


class TestDecode:
    @pytest.mark.parametrize("workers", [1, 3])
    def test_bulk_reconstruction(self, code, rng, workers):
        batch = filled_batch(code, 11, rng)
        BatchCoder(code).encode(batch)
        ref = batch.copy()
        batch[:, 1] = rng.integers(0, 2**64, batch[:, 1].shape, dtype=np.uint64)
        batch[:, 3] = rng.integers(0, 2**64, batch[:, 3].shape, dtype=np.uint64)
        BatchCoder(code, workers=workers).decode(batch, [1, 3])
        assert np.array_equal(batch, ref)

    def test_other_code_families(self, rng):
        for name in ("evenodd", "rdp", "reed-solomon", "cauchy-rs"):
            kw = {"rows": 4} if name == "reed-solomon" else {}
            c = make_code(name, 4, element_size=64, **kw)
            batch = alloc_batch(c, 6)
            batch[:, :4] = rng.integers(0, 2**64, batch[:, :4].shape, dtype=np.uint64)
            coder = BatchCoder(c, workers=2)
            coder.encode(batch)
            ref = batch.copy()
            batch[:, 0] = 0
            batch[:, 5] = 0
            coder.decode(batch, [0, 5])
            assert np.array_equal(batch[:, :6], ref[:, :6]), name

    def test_worker_exception_propagates(self, code, rng):
        batch = filled_batch(code, 4, rng)
        BatchCoder(code).encode(batch)
        with pytest.raises(ValueError):
            BatchCoder(code, workers=2).decode(batch, [0, 1, 2])  # 3 erasures

    def test_empty_erasure_list_is_a_no_op(self, code, rng):
        batch = filled_batch(code, 3, rng)
        BatchCoder(code).encode(batch)
        ref = batch.copy()
        BatchCoder(code).decode(batch, [])
        assert np.array_equal(batch, ref)


class TestKernelWidePath:
    """The zero-copy wide path: one bound plan over the whole batch."""

    def test_wide_path_matches_fused_per_stripe(self, rng):
        """The wide batch path equals per-stripe op-at-a-time coding."""
        kcode = make_code("liberation-optimal", 4, p=5, element_size=64)
        fcode = make_code(
            "liberation-optimal", 4, p=5, element_size=64, execution="streaming"
        )
        assert kcode.execution == "kernel"
        batch = filled_batch(kcode, 9, rng)
        expect = batch.copy()
        for i in range(9):
            fcode.encode(expect[i])
        BatchCoder(kcode).encode(batch)
        assert np.array_equal(batch, expect)
        ref = batch.copy()
        batch[:, 0] = 0
        batch[:, 2] = 0
        BatchCoder(kcode, workers=3).decode(batch, [0, 2])
        assert np.array_equal(batch, ref)

    def test_wide_path_only_engages_for_kernel_execution(self, rng):
        kcode = make_code("liberation-optimal", 4, p=5, element_size=64)
        scode = make_code(
            "liberation-optimal", 4, p=5, element_size=64, execution="streaming"
        )
        assert BatchCoder(kcode)._wide_plan(None) is not None
        assert BatchCoder(scode)._wide_plan(None) is None
        # Streaming still encodes correctly through the per-stripe loop.
        batch = filled_batch(scode, 3, rng)
        BatchCoder(scode).encode(batch)
        assert all(scode.verify(batch[i]) for i in range(3))

    def test_view_cache_reuses_the_bound_view(self, code, rng):
        coder = BatchCoder(code)
        batch = filled_batch(code, 5, rng)
        v1 = coder._wide_view(batch, 0, 5)
        v2 = coder._wide_view(batch, 0, 5)
        assert v1 is v2  # same object => the plan's bound program hits
        assert v1.base is batch  # and it is a view, not a copy

    def test_view_cache_is_bounded_and_identity_checked(self, code, rng):
        coder = BatchCoder(code)
        for _ in range(7):
            coder._wide_view(filled_batch(code, 2, rng), 0, 2)
        assert len(coder._views) <= 4
        # A new batch recycled onto a cached id must not serve the old
        # view: the cache stores (batch, view) and checks identity.
        batch = filled_batch(code, 2, rng)
        view = coder._wide_view(batch, 0, 2)
        assert coder._wide_view(batch, 0, 2) is view


class TestWordPackedBatch:
    def test_alloc_word_batch_shape(self, code):
        buf = alloc_word_batch(code, 3)
        assert buf.shape == (code.total_cols, code.rows, 3 * 8)
        with pytest.raises(ValueError):
            alloc_word_batch(code, 0)

    def test_one_plan_call_codes_every_packed_stripe(self, code, rng):
        buf = alloc_word_batch(code, 4)
        buf[: code.k] = rng.integers(0, 2**64, buf[: code.k].shape, dtype=np.uint64)
        code._encode_plan = code._compile(code.encode_schedule())
        code._encode_plan.run(buf)
        for i in range(4):
            assert code.verify(np.ascontiguousarray(buf[:, :, i * 8 : (i + 1) * 8]))
