"""Finite-difference verification of layer_backward.

The oracle differentiates an independent re-implementation of the
smooth-spike forward (hard threshold replaced by the arctan primitive whose
exact derivative is the layer's surrogate) with the reset sequence frozen at
the baseline, i.e. exactly the function whose gradients the backward pass
claims to compute.
"""

import numpy as np
import pytest

from spikeff.layer import init_layer, layer_backward
from spikeff.neuron import NeuronConfig
from spikeff.numerics import RngStream

from oracles import (
    central_difference_grads,
    reference_forward,
    relative_errors,
    smoothed_layer_objective,
)


def random_instance(seed):
    """One random tiny layer + batch; mixes all neuron variants over seeds."""
    rng = RngStream(seed)
    t_steps = int(rng.integers(1, 6))
    n_in = int(rng.integers(1, 6))
    n_out = int(rng.integers(1, 6))
    batch = int(rng.integers(2, 9))
    cfg = NeuronConfig(
        threshold=float(rng.uniform(low=0.5, high=1.5)),
        decay=float(rng.uniform(low=0.6, high=0.99)),
        decay_learnable=bool(seed % 2),
        reset_mode="zero" if seed % 3 == 0 else "subtract",
        surrogate_slope=2.0,
    )
    layer = init_layer(n_in, n_out, t_steps, cfg, rng.substream(1),
                       recurrent=bool(seed % 4 < 2))
    frames = [rng.normal((batch, n_in)) for _ in range(t_steps)]
    seed_weights = rng.normal(batch)
    return layer, frames, seed_weights


def gradient_errors(seed, h=1e-5):
    layer, frames, seed_weights = random_instance(seed)
    trace = reference_forward(layer, frames, smooth=True)
    analytic = layer_backward(layer, trace, seed_weights)
    frozen = trace.spikes

    def objective():
        return smoothed_layer_objective(layer, frames, frozen, seed_weights)

    numeric = central_difference_grads(objective, layer.trainable_tensors(), h=h)
    pooled = np.concatenate(
        [relative_errors(analytic[name], numeric[name]) for name in analytic]
    )
    return pooled


@pytest.mark.parametrize("seed", range(8))
def test_backward_matches_finite_differences(seed):
    errors = gradient_errors(seed)
    assert np.percentile(errors, 90) <= 1e-4
    assert errors.max() <= 1e-2


def test_all_variant_combinations_covered():
    combos = set()
    for seed in range(8):
        layer, _, _ = random_instance(seed)
        combos.add(
            (layer.neuron.reset_mode, layer.neuron.decay_learnable,
             layer.recurrent is not None)
        )
    assert len(combos) >= 4  # both reset modes and both decay variants appear
    assert any(rec for _, _, rec in combos)
    assert any(not rec for _, _, rec in combos)
