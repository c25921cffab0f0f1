import numpy as np
import pytest

from spikeff import numerics
from spikeff.errors import NumericError, ShapeError
from spikeff.numerics import (
    AdamState,
    RngStream,
    adam_update,
    row_blocks,
    worker_ranges,
)

from oracles import adam_scalar_sequence


class TestAdam:
    def test_zero_gradient_fixed_point(self):
        param = np.array([[1.5, -2.0], [0.25, 3.0]])
        expected = param.copy()
        state = AdamState()
        assert adam_update(param, np.zeros_like(param), state, 1e-3) is None
        np.testing.assert_array_equal(param, expected)
        assert state.step == 1

    def test_zero_gradients_never_move_params(self):
        param = np.array([[0.5, -0.5, 2.0]])
        expected = param.copy()
        state = AdamState()
        for _ in range(7):
            adam_update(param, np.zeros_like(param), state, 0.01)
        np.testing.assert_array_equal(param, expected)
        assert state.step == 7

    def test_single_step_hand_value(self):
        # m_hat = v_hat = 1 after one unit-gradient step:
        # p = 1 - lr * 1 / (1 + eps) ~ 0.999
        param = np.array([[1.0]])
        state = AdamState()
        adam_update(param, np.array([[1.0]]), state, 1e-3)
        expected = 1.0 - 1e-3 / (1.0 + 1e-8)
        assert param[0, 0] == pytest.approx(expected, abs=1e-15)
        assert param[0, 0] == pytest.approx(0.999, abs=1e-8)

    def test_two_steps_match_scalar_oracle(self):
        param = np.array([[0.7]])
        state = AdamState()
        grads = [0.3, 0.3]
        for g in grads:
            adam_update(param, np.array([[g]]), state, 1e-3)
        expected = adam_scalar_sequence(0.7, grads, lr=1e-3)[-1]
        assert param[0, 0] == pytest.approx(expected, abs=1e-12)

    def test_longer_sequence_matches_scalar_oracle(self):
        rng = RngStream(3)
        grads = list(rng.normal(10))
        param = np.array([[2.0]])
        state = AdamState()
        for g in grads:
            adam_update(param, np.array([[g]]), state, 0.05)
        expected = adam_scalar_sequence(2.0, grads, lr=0.05)[-1]
        assert param[0, 0] == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("shape,given_moments", [
        ((7,), True), ((5, 9), True), ((3, 4, 6), True), ((5, 9), False),
    ], ids=["shape0", "shape1", "shape2", "first step from a state without moments"])
    def test_matches_the_plain_expressions_bit_for_bit(self, shape, given_moments):
        rng = RngStream(8)
        param = rng.normal(shape)
        if given_moments:
            state = AdamState(np.zeros(shape), np.zeros(shape))
        else:
            state = AdamState()
            assert state.first_moment is None and state.second_moment is None
        m, v = np.zeros(shape), np.zeros(shape)
        b1, b2, eps, lr = state.beta1, state.beta2, state.eps, 0.02
        want = param.copy()
        for step in range(1, 6):
            grad = rng.normal(shape) * 10.0 ** rng.integers(-4, 3, shape)
            m = b1 * m + (1.0 - b1) * grad
            v = b2 * v + (1.0 - b2) * np.square(grad)
            m_hat, v_hat = m / (1.0 - b1**step), v / (1.0 - b2**step)
            want = want - lr * m_hat / (np.sqrt(v_hat) + eps)
            adam_update(param, grad, state, lr)
            # in place: the parameters themselves, apart from the gradient
            # and the moments
            for other in (grad, state.first_moment, state.second_moment):
                assert not np.shares_memory(param, other)
            assert np.array_equal(param, want), step
            assert np.array_equal(state.first_moment, m)
            assert np.array_equal(state.second_moment, v)

    def test_shape_mismatch(self):
        param = np.zeros((2, 2))
        state = AdamState()
        with pytest.raises(ShapeError):
            adam_update(param, np.zeros((2, 3)), state, 1e-3)
        assert state.first_moment is None and state.step == 0
        given = AdamState(np.zeros((2, 3)), np.zeros((2, 3)))
        with pytest.raises(ShapeError, match=r"moments \(2, 3\)"):
            adam_update(param, np.zeros((2, 2)), given, 1e-3)

    def test_nonfinite_gradient_names_tensor_and_step(self):
        param = np.zeros((1, 1))
        state = AdamState()
        bad = np.array([[np.nan]])
        with pytest.raises(NumericError, match=r"layer0\.weights at step 1"):
            adam_update(param, bad, state, 1e-3, name="layer0.weights")
        assert state.first_moment is None and state.second_moment is None


class TestRngStream:
    def test_fixed_seed_byte_identical(self):
        a = RngStream(1234).normal(64)
        b = RngStream(1234).normal(64)
        assert a.tobytes() == b.tobytes()

    def test_permutation_replays(self):
        assert np.array_equal(RngStream(9).permutation(50),
                              RngStream(9).permutation(50))

    def test_substreams_are_independent(self):
        root = RngStream(5)
        a = root.substream(1).normal(16)
        b = root.substream(2).normal(16)
        assert not np.array_equal(a, b)
        again = RngStream(5).substream(1).normal(16)
        assert a.tobytes() == again.tobytes()

    def test_frozen_draws(self):
        # Philox is platform-stable; these values pin the contract.
        draws = RngStream(2024).generator.integers(0, 2**63, size=3)
        assert list(draws) == [
            2495963801145750184,
            5709115244285566421,
            357077068958064791,
        ]


class TestRowSplit:
    @pytest.fixture
    def setter(self, monkeypatch):
        """A stand-in OpenBLAS thread setter; yields a core-count setter."""
        monkeypatch.setattr(numerics, "_openblas_thread_calls",
                            lambda: (lambda: 1, lambda count: None))
        return lambda cores: monkeypatch.setattr(numerics, "_usable_cores",
                                                 lambda: cores)

    @staticmethod
    def assert_tiles(slices, rows):
        """Contiguous, non-empty slices from row 0 to `rows`."""
        assert slices[0].start == 0 and slices[-1].stop == rows
        assert all(a.stop == b.start for a, b in zip(slices, slices[1:]))
        assert all(s.start < s.stop for s in slices)

    @pytest.mark.parametrize("rows,width", [(1, 7), (512, 64), (513, 64),
                                            (1000, 64), (65, 500), (131, 500),
                                            (3, 40000)])
    @pytest.mark.parametrize("cores", [1, 2, 3, 8])
    def test_ranges_are_whole_blocks_covering_the_rows(self, setter, rows,
                                                       width, cores):
        setter(cores)
        blocks = row_blocks(rows, width)
        self.assert_tiles(blocks, rows)
        step = max(1, numerics.BLOCK_ELEMENTS // width)
        assert all(b.stop - b.start == step for b in blocks[:-1])
        assert blocks[-1].stop - blocks[-1].start <= step

        ranges = worker_ranges(rows, width)
        self.assert_tiles(ranges, rows)
        assert {r.start for r in ranges} <= {b.start for b in blocks}
        assert {r.stop for r in ranges} <= {b.stop for b in blocks}
        assert len(ranges) <= min(cores, len(blocks))
        assert (len(ranges) > 1) == (cores > 1 and len(blocks) > 1)

    def test_one_range_without_a_setter(self, monkeypatch):
        monkeypatch.setattr(numerics, "_openblas_thread_calls", lambda: None)
        monkeypatch.setattr(numerics, "_usable_cores", lambda: 8)
        assert len(row_blocks(4096, 64)) == 8
        assert worker_ranges(4096, 64) == [slice(0, 4096)]

    @pytest.mark.parametrize("cores", [1, 4])
    def test_zero_rows_make_one_empty_range(self, setter, cores):
        setter(cores)
        assert row_blocks(0, 64) == [slice(0, 0)]
        assert worker_ranges(0, 64) == [slice(0, 0)]
