"""Label scoring: the in-place rollout of `label_goodness` against the
per-overlay `forward_eval` reference."""

import itertools

import numpy as np
import pytest

from spikeff import dataio
from spikeff.errors import NumericError, ShapeError, UsageError
from spikeff.layer import EvalRollout, goodness, layer_forward
from spikeff.network import build_network, forward_eval, label_goodness
from spikeff.neuron import NeuronConfig
from spikeff.numerics import RngStream
from spikeff.trainer import TrainConfig, train_epoch

TIMESTEPS = 5


def dataset(temporal, class_count, n=48, seed=0):
    if temporal:
        return dataio.make_temporal_dataset(
            n, input_dim=class_count + TIMESTEPS + 4, timesteps=TIMESTEPS,
            class_count=class_count, seed=seed,
        )
    return dataio.make_blob_dataset(n, input_dim=class_count + 6,
                                    class_count=class_count, seed=seed)


def trained_network(reset_mode, learnable, recurrent, temporal, class_count):
    """A two-layer net after three train batches: running stats, gamma,
    shift and (when learnable) decay have all moved off their init values."""
    ds = dataset(temporal, class_count)
    cfg = NeuronConfig(threshold=1.0, decay=0.9, decay_learnable=learnable,
                       reset_mode=reset_mode)
    net = build_network([7, 5], ds.input_dim, class_count, TIMESTEPS, cfg,
                        RngStream(3), recurrent=recurrent, lr=0.05)
    train_epoch(net, ds, TrainConfig(epochs=2, batch_size=16, eval_every=0),
                RngStream(4))
    return net, ds


def reference_scores(net, batch):
    """One forward_eval per overlay, goodness summed over layers."""
    scores = np.zeros((batch.size, net.class_count))
    for y in range(net.class_count):
        variant = dataio.embed_label(
            batch, np.full(batch.size, y, dtype=np.int64), net.class_count
        )
        total = np.zeros(batch.size)
        for trace in forward_eval(net, variant.frames(net.timesteps)):
            total += goodness(trace)
        scores[:, y] = total
    return scores


def held_out_batch(ds, size=11):
    return dataio.SampleBatch(ds.inputs[:size], ds.labels[:size], ds.input_dim,
                              ds.timesteps)


def state_of(net):
    out = []
    for layer in net.layers:
        tensors = dict(layer.trainable_tensors())
        tensors["running_mean"] = layer.running_mean
        tensors["running_var"] = layer.running_var
        out.append(({k: v.copy() for k, v in tensors.items()},
                    layer.batches_tracked))
    return out


GRID = list(itertools.product(
    ("subtract", "zero"), (False, True), (False, True), (False, True), (2, 10)
))


@pytest.mark.parametrize(
    "reset_mode,learnable,recurrent,temporal,class_count", GRID,
    ids=[
        f"{r}-{'learnable' if l else 'fixed'}-{'rec' if rc else 'ff'}-"
        f"{'temporal' if t else 'static'}-c{c}"
        for r, l, rc, t, c in GRID
    ],
)
def test_scores_equal_per_overlay_reference(
    reset_mode, learnable, recurrent, temporal, class_count
):
    net, _ = trained_network(reset_mode, learnable, recurrent, temporal,
                             class_count)
    held_out = dataset(temporal, class_count, n=11, seed=9)
    batch = held_out_batch(held_out)
    before = state_of(net)
    rows_before = net.eval_rows

    scores = label_goodness(net, batch)

    assert net.eval_rows - rows_before == class_count * batch.size
    for (tensors, tracked), layer in zip(before, net.layers):
        assert layer.batches_tracked == tracked
        after = dict(layer.trainable_tensors(),
                     running_mean=layer.running_mean,
                     running_var=layer.running_var)
        assert after.keys() == tensors.keys()
        for name, value in tensors.items():
            assert np.array_equal(after[name], value), name

    reference = reference_scores(net, batch)
    assert scores.shape == (batch.size, class_count)
    assert np.array_equal(scores, reference)
    assert np.ptp(scores) > 0  # the network fires, so the check has teeth


@pytest.mark.parametrize("reset_mode", ["subtract", "zero"])
@pytest.mark.parametrize("learnable", [False, True])
@pytest.mark.parametrize("recurrent", [False, True])
@pytest.mark.parametrize("temporal", [False, True])
def test_rollout_steps_match_layer_forward_bit_for_bit(
    reset_mode, learnable, recurrent, temporal
):
    """Every step's membrane and spikes equal the recorded eval trace's, so
    the op order is the reference's, not just close to it."""
    net, _ = trained_network(reset_mode, learnable, recurrent, temporal, 2)
    layer = net.layers[0]
    frames = held_out_batch(dataset(temporal, 2, n=64, seed=5), 64).frames(TIMESTEPS)
    trace = layer_forward(layer, frames, "eval")
    roll = EvalRollout(layer, 64)
    for t in range(TIMESTEPS):
        spikes = roll.step(t, roll.product(frames[t], t))
        assert np.array_equal(roll.membrane, trace.membranes[t]), t
        assert np.array_equal(spikes, trace.spikes[t]), t
    assert np.array_equal(roll.counts, trace.counts)
    assert np.array_equal(goodness(roll), goodness(trace))


@pytest.mark.parametrize("layer_index", [0, 1])
@pytest.mark.parametrize("temporal", [False, True])
def test_non_finite_weight_names_the_timestep(layer_index, temporal):
    net, ds = trained_network("subtract", False, False, temporal, 2)
    net.layers[layer_index].weights[0, 0] = np.nan
    with pytest.raises(NumericError, match="non-finite drive at timestep 0"):
        label_goodness(net, held_out_batch(ds))


def test_wrong_input_width_is_shape_error():
    net, _ = trained_network("subtract", False, False, False, 2)
    wide = dataset(False, 2, n=4, seed=1)
    wide = dataio.SampleBatch(
        np.hstack([wide.inputs, wide.inputs[:, :3]]), wide.labels,
        wide.input_dim + 3,
    )
    rows_before = net.eval_rows
    with pytest.raises(ShapeError, match="network expects 8"):
        label_goodness(net, wide)
    assert net.eval_rows == rows_before



@pytest.mark.parametrize("run_timesteps", [TIMESTEPS - 1, TIMESTEPS + 1])
def test_temporal_run_length_mismatch_is_usage_error(run_timesteps):
    ds = dataset(True, 2, n=4)
    net = build_network([7, 5], ds.input_dim, 2, run_timesteps,
                        NeuronConfig(threshold=1.0, decay=0.9), RngStream(3))
    with pytest.raises(UsageError, match="timesteps but the run wants"):
        label_goodness(net, held_out_batch(ds))
    assert net.eval_rows == 0
