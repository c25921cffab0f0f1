import math

import numpy as np
import pytest

from spikeff import neuron
from spikeff.errors import ConfigError, NumericError, ShapeError
from spikeff.layer import SpikingLayer, layer_forward
from spikeff.neuron import (
    NeuronConfig,
    advance_membrane,
    surrogate_grad,
)
from spikeff.numerics import RngStream

from oracles import smoothed_spike


def step(membrane, spikes, drive, cfg, decay_raw=None):
    """One membrane step from a hand-set state, as `neuron.timestep` takes it."""
    beta = neuron.effective_decay(decay_raw, cfg)
    return advance_membrane(np.asarray(membrane, float), np.asarray(spikes, float),
                            np.asarray(drive, float), beta, cfg)


def lif_layer(cfg, n, timesteps, decay_raw=None, recurrent=None):
    """A layer whose eval-mode drive at step t is exactly frames[t].

    Identity weights, zero running mean, unit running variance, eps 0,
    unit scale and zero shift make the normalization an exact identity, so
    `layer_forward(mode="eval")` runs the bare LIF recursion on hand drives.
    """
    return SpikingLayer(
        weights=np.eye(n),
        gamma=np.ones((timesteps, n)),
        shift=np.zeros((timesteps, n)),
        running_mean=np.zeros((timesteps, n)),
        running_var=np.ones((timesteps, n)),
        neuron=cfg,
        decay_raw=decay_raw,
        recurrent=recurrent,
        batches_tracked=1,
        eps=0.0,
    )


def run_lif(layer, drives):
    """Eval-mode rollout over per-timestep (B, n) drives."""
    frames = [np.asarray(d, float) for d in drives]
    return layer_forward(layer, frames, "eval")


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            NeuronConfig(threshold=0.0)
        with pytest.raises(ValueError):
            NeuronConfig(decay=0.0)
        with pytest.raises(ValueError):
            NeuronConfig(decay=1.5)
        with pytest.raises(ValueError):
            NeuronConfig(reset_mode="clamp")
        with pytest.raises(ValueError):
            NeuronConfig(surrogate_slope=0.0)

    def test_every_violation_listed(self):
        with pytest.raises(ConfigError) as err:
            NeuronConfig(threshold=0.0, decay=1.5, reset_mode="clamp",
                         surrogate_slope=0.0)
        fields = [v.split(":")[0] for v in err.value.violations]
        assert fields == ["threshold", "decay", "reset_mode", "surrogate_slope"]

    def test_raw_decay_round_trip(self):
        raw = neuron.raw_decay_for(0.99)
        assert neuron.sigmoid(raw) == pytest.approx(0.99, abs=1e-12)


class TestLifStep:
    def test_integrate_to_threshold(self):
        cfg = NeuronConfig(threshold=1.0, decay=0.5)
        out = run_lif(lif_layer(cfg, 1, 1), [[[1.0]]])
        assert out.membranes[0][0, 0] == 1.0
        assert out.spikes[0][0, 0] == 1.0

    def test_decay_only(self):
        cfg = NeuronConfig(threshold=1.0, decay=0.99)
        membrane = step([[0.5]], [[0.0]], [[0.0]], cfg)
        assert membrane[0, 0] == pytest.approx(0.495, abs=1e-15)
        out = run_lif(lif_layer(cfg, 1, 2), [[[0.5]], [[0.0]]])
        assert out.membranes[1][0, 0] == pytest.approx(0.495, abs=1e-15)
        assert out.spikes[1][0, 0] == 0.0

    def test_subtract_reset_after_spike(self):
        # decay 1.0 isolates the reset arithmetic
        cfg = NeuronConfig(threshold=1.0, decay=1.0)
        membrane = step([[1.2]], [[1.0]], [[0.0]], cfg)
        assert membrane[0, 0] == pytest.approx(0.2, abs=1e-15)

    def test_zero_reset_clears_membrane(self):
        cfg = NeuronConfig(threshold=1.0, decay=0.9, reset_mode="zero")
        membrane = step([[1.4]], [[1.0]], [[0.0]], cfg)
        assert membrane[0, 0] == 0.0

    def test_threshold_inclusive(self):
        cfg = NeuronConfig(threshold=1.0, decay=0.5)
        out = run_lif(lif_layer(cfg, 2, 1), [[[1.0, 0.999999]]])
        np.testing.assert_array_equal(out.spikes[0], [[1.0, 0.0]])

    def test_spikes_binary_under_random_drive(self):
        cfg = NeuronConfig(threshold=1.0, decay=0.9)
        rng = RngStream(0)
        drives = [rng.normal((8, 5), scale=2.0) for _ in range(20)]
        out = run_lif(lif_layer(cfg, 5, 20), drives)
        for spikes in out.spikes:
            assert set(np.unique(spikes)) <= {0.0, 1.0}

    def test_subthreshold_decay_never_spikes(self):
        cfg = NeuronConfig(threshold=1.0, decay=0.7)
        drives = [[[0.99]]] + [[[0.0]]] * 50
        out = run_lif(lif_layer(cfg, 1, 51), drives)
        previous = out.membranes[0][0, 0]
        assert previous == 0.99 and out.spikes[0][0, 0] == 0.0
        for membrane, spikes in zip(out.membranes[1:], out.spikes[1:]):
            assert spikes[0, 0] == 0.0
            assert 0.0 <= membrane[0, 0] < previous or previous == 0.0
            previous = membrane[0, 0]

    def test_learnable_decay_used_when_raw_present(self):
        cfg = NeuronConfig(threshold=10.0, decay=0.5, decay_learnable=True)
        raw = np.array([neuron.raw_decay_for(0.25)])
        membrane = step([[1.0]], [[0.0]], np.zeros((1, 1)), cfg, raw)
        assert membrane[0, 0] == pytest.approx(0.25, abs=1e-12)
        out = run_lif(lif_layer(cfg, 1, 2, decay_raw=raw), [[[1.0]], [[0.0]]])
        assert out.membranes[1][0, 0] == pytest.approx(0.25, abs=1e-12)

    def test_shape_and_finiteness_errors(self):
        cfg = NeuronConfig()
        with pytest.raises(ShapeError):
            run_lif(lif_layer(cfg, 3, 1), [np.zeros((2, 2))])
        drives = [np.zeros((1, 1))] * 4 + [np.array([[np.inf]])]
        with pytest.raises(NumericError, match="timestep 4"):
            run_lif(lif_layer(cfg, 1, 5), drives)


class TestRecurrentStep:
    def test_zero_weights_match_plain_step_bitwise(self):
        cfg = NeuronConfig(threshold=1.0, decay=0.9)
        rng = RngStream(1)
        drives = [rng.normal((4, 3)) for _ in range(5)]
        plain = run_lif(lif_layer(cfg, 3, 5), drives)
        rec = run_lif(lif_layer(cfg, 3, 5, recurrent=np.zeros((3, 3))), drives)
        for a, b in zip(plain.membranes, rec.membranes):
            assert a.tobytes() == b.tobytes()
        for a, b in zip(plain.spikes, rec.spikes):
            assert a.tobytes() == b.tobytes()

    def test_no_prior_spikes_match_plain_step(self):
        cfg = NeuronConfig(threshold=1.0, decay=0.9)
        rng = RngStream(2)
        drive = rng.normal((2, 3))
        rec_weights = rng.normal((3, 3))
        plain = run_lif(lif_layer(cfg, 3, 1), [drive])
        rec = run_lif(lif_layer(cfg, 3, 1, recurrent=rec_weights), [drive])
        np.testing.assert_array_equal(plain.membranes[0], rec.membranes[0])

    def test_hand_example_adds_recurrent_drive(self):
        cfg = NeuronConfig(threshold=10.0, decay=1.0)
        rec_weights = np.array([[0.0, 1.0], [0.0, 0.0]])
        out = run_lif(lif_layer(cfg, 2, 2, recurrent=rec_weights),
                      [[[10.0, 0.0]], [[0.0, 0.0]]])
        np.testing.assert_array_equal(out.spikes[0], [[1.0, 0.0]])
        extra = out.spikes[0] @ rec_weights
        np.testing.assert_array_equal(extra, [[0.0, 1.0]])
        equivalent = run_lif(lif_layer(cfg, 2, 2),
                             [[[10.0, 0.0]], np.zeros((1, 2)) + extra])
        np.testing.assert_array_equal(out.membranes[1], equivalent.membranes[1])


class TestSurrogate:
    def test_value_at_threshold(self):
        cfg = NeuronConfig(threshold=1.0, surrogate_slope=2.0)
        value = surrogate_grad(np.array([[1.0]]), cfg)[0, 0]
        assert value == pytest.approx(1.0 / math.pi, abs=1e-12)

    def test_far_from_threshold_vanishes(self):
        cfg = NeuronConfig(threshold=1.0, surrogate_slope=2.0)
        assert surrogate_grad(np.array([[1e8]]), cfg)[0, 0] < 1e-12
        assert surrogate_grad(np.array([[-1e8]]), cfg)[0, 0] < 1e-12

    def test_worked_value_one_above_threshold(self):
        cfg = NeuronConfig(threshold=1.0, surrogate_slope=2.0)
        value = surrogate_grad(np.array([[2.0]]), cfg)[0, 0]
        expected = (1.0 / math.pi) / (1.0 + math.pi**2)
        assert value == pytest.approx(expected, abs=1e-12)
        assert value == pytest.approx(0.02928, abs=5e-6)

    def test_shape_properties(self):
        cfg = NeuronConfig(threshold=1.3, surrogate_slope=2.0)
        offsets = np.linspace(-5, 5, 801)
        values = surrogate_grad((cfg.threshold + offsets)[None, :], cfg)[0]
        assert (values > 0).all()
        np.testing.assert_allclose(values, values[::-1], atol=1e-15)  # even
        assert values.argmax() == 400  # maximal at threshold
        half = values[400:]
        assert (np.diff(half) < 0).all()  # strictly decreasing in |U - thr|

    def test_smoothed_spike_derivative_matches_surrogate(self):
        cfg = NeuronConfig(threshold=1.0, surrogate_slope=3.0)
        u = np.linspace(-2, 4, 101)[None, :]
        h = 1e-6
        numeric = (smoothed_spike(u + h, cfg) - smoothed_spike(u - h, cfg)) / (2 * h)
        np.testing.assert_allclose(numeric, surrogate_grad(u, cfg), atol=1e-9)

    def test_smoothed_spike_half_at_threshold(self):
        cfg = NeuronConfig(threshold=2.0, surrogate_slope=2.0)
        assert smoothed_spike(np.array([[2.0]]), cfg)[0, 0] == pytest.approx(0.5)
