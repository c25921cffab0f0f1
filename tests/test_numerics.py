import numpy as np
import pytest

from spikeff.errors import NumericError, ShapeError
from spikeff.numerics import AdamState, RngStream, adam_update

from oracles import adam_scalar_sequence


class TestAdam:
    def test_zero_gradient_fixed_point(self):
        param = np.array([[1.5, -2.0], [0.25, 3.0]])
        state = AdamState.for_param(param, lr=1e-3)
        updated = adam_update(param, np.zeros_like(param), state)
        np.testing.assert_array_equal(updated, param)
        assert state.step == 1

    def test_zero_gradients_never_move_params(self):
        param = np.array([[0.5, -0.5, 2.0]])
        state = AdamState.for_param(param, lr=0.01)
        current = param
        for _ in range(7):
            current = adam_update(current, np.zeros_like(current), state)
        np.testing.assert_array_equal(current, param)
        assert state.step == 7

    def test_single_step_hand_value(self):
        # m_hat = v_hat = 1 after one unit-gradient step:
        # p = 1 - lr * 1 / (1 + eps) ~ 0.999
        param = np.array([[1.0]])
        state = AdamState.for_param(param, lr=1e-3)
        updated = adam_update(param, np.array([[1.0]]), state)
        expected = 1.0 - 1e-3 / (1.0 + 1e-8)
        assert updated[0, 0] == pytest.approx(expected, abs=1e-15)
        assert updated[0, 0] == pytest.approx(0.999, abs=1e-8)

    def test_two_steps_match_scalar_oracle(self):
        param = np.array([[0.7]])
        state = AdamState.for_param(param, lr=1e-3)
        grads = [0.3, 0.3]
        current = param
        for g in grads:
            current = adam_update(current, np.array([[g]]), state)
        expected = adam_scalar_sequence(0.7, grads, lr=1e-3)[-1]
        assert current[0, 0] == pytest.approx(expected, abs=1e-12)

    def test_longer_sequence_matches_scalar_oracle(self):
        rng = RngStream(3)
        grads = list(rng.normal(10))
        param = np.array([[2.0]])
        state = AdamState.for_param(param, lr=0.05)
        current = param
        for g in grads:
            current = adam_update(current, np.array([[g]]), state)
        expected = adam_scalar_sequence(2.0, grads, lr=0.05)[-1]
        assert current[0, 0] == pytest.approx(expected, abs=1e-12)

    def test_shape_mismatch(self):
        param = np.zeros((2, 2))
        state = AdamState.for_param(param)
        with pytest.raises(ShapeError):
            adam_update(param, np.zeros((2, 3)), state)

    def test_nonfinite_gradient_names_tensor_and_step(self):
        param = np.zeros((1, 1))
        state = AdamState.for_param(param)
        bad = np.array([[np.nan]])
        with pytest.raises(NumericError, match=r"layer0\.weights at step 1"):
            adam_update(param, bad, state, name="layer0.weights")


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
