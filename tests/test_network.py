"""Label scoring: the in-place rollout of `label_goodness` against the
per-overlay `forward_eval` reference; the train pass against the plain
numpy reference of the gradient tests."""

import dataclasses
import itertools

import numpy as np
import pytest

from spikeff import dataio, neuron, predictor
from spikeff.errors import NumericError, ShapeError, UsageError
from spikeff.layer import (
    EvalRollout,
    LayerForwardTrace,
    goodness,
    layer_forward,
    product,
)
from spikeff.network import (
    build_network,
    forward_eval,
    forward_train,
    label_goodness,
)
from spikeff.neuron import NeuronConfig
from spikeff.numerics import RngStream
from spikeff.trainer import TrainConfig, train_epoch

from oracles import reference_forward

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
GRID_IDS = [
    f"{r}-{'learnable' if l else 'fixed'}-{'rec' if rc else 'ff'}-"
    f"{'temporal' if t else 'static'}-c{c}"
    for r, l, rc, t, c in GRID
]


@pytest.mark.parametrize(
    "reset_mode,learnable,recurrent,temporal,class_count", GRID, ids=GRID_IDS
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


@pytest.mark.parametrize(
    "reset_mode,learnable,recurrent,temporal,class_count", GRID, ids=GRID_IDS
)
def test_reference_forward_equals_the_train_pass_bit_for_bit(
    reset_mode, learnable, recurrent, temporal, class_count
):
    """`reference_forward` (with the hard threshold) and `layer_forward`
    record equal traces, field for field: the reference the gradient tests
    differentiate is the train pass, on static, temporal and spike inputs,
    plain and overlaid."""
    net, _ = trained_network(reset_mode, learnable, recurrent, temporal,
                             class_count)
    batch = held_out_batch(dataset(temporal, class_count, n=11, seed=9))
    overlaid = dataio.embed_label(batch, (batch.labels + 1) % class_count,
                                  class_count)
    for frames in (batch.frames(TIMESTEPS), overlaid.frames(TIMESTEPS)):
        for layer in net.layers:
            want = layer_forward(layer, frames, "train")
            got = reference_forward(layer, frames, smooth=False)
            for field in dataclasses.fields(LayerForwardTrace):
                a, b = getattr(got, field.name), getattr(want, field.name)
                if isinstance(b, np.ndarray):
                    assert (a.dtype, a.shape) == (b.dtype, b.shape), field.name
                    assert a.tobytes() == b.tobytes(), field.name
                else:
                    assert a is b or a == b, field.name
            assert want.counts.any()  # the layer fires, so spikes are checked
            frames = want.spikes


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
        product(frames[t], layer.weights, t, roll.drive)
        spikes = roll.step(t, roll.drive)
        assert spikes.dtype == np.bool_  # as a trace's: no float copy
        assert np.array_equal(roll.membrane, trace.membranes[t]), t
        assert np.array_equal(spikes, trace.spikes[t]), t
    assert np.array_equal(roll.counts, trace.counts)
    assert np.array_equal(goodness(roll), goodness(trace))


@pytest.mark.parametrize("recurrent,temporal", [(False, False), (True, True)])
def test_only_the_train_pass_steps_under_the_traced_name(monkeypatch, recurrent,
                                                        temporal):
    """Profilers wrap `neuron.membrane_update` on its module and count its
    calls: one layer's train pass looks it up once per timestep, whole
    batch, and scoring never runs under it. The wrapped runs' results equal
    the plain runs' bit for bit."""
    net, ds = trained_network("subtract", True, recurrent, temporal, 3)
    batch = held_out_batch(ds)
    frames = dataio.embed_label(batch, batch.labels, 3).frames(TIMESTEPS)

    def train_pass():
        (trace,) = forward_train(net.layers[:1], frames)
        return trace.spikes, trace.membranes, trace.counts, trace.mu, trace.var

    runs = (train_pass, lambda: label_goodness(net, batch),
            lambda: predictor.evaluate(net, ds))
    plain = [run() for run in runs]
    calls = []
    kernel = neuron.membrane_update

    def counting(*args, **kwargs):
        calls.append(len(args[0]))  # the rows of one call
        return kernel(*args, **kwargs)

    monkeypatch.setattr(neuron, "membrane_update", counting)
    wrapped = []
    for run, expected in zip(runs, ([batch.size] * TIMESTEPS, [], [])):
        calls.clear()
        wrapped.append(run())
        assert calls == expected
    for a, b in zip(plain[0], wrapped[0]):
        assert np.array_equal(a, b)
    assert np.array_equal(plain[1], wrapped[1])
    assert plain[2] == wrapped[2]


@pytest.mark.parametrize("layer_index", [0, 1])
@pytest.mark.parametrize("temporal", [False, True])
def test_non_finite_weight_names_the_timestep(layer_index, temporal):
    """NaN, +inf and -inf weights each fail the one product check, in label
    scoring and in the train pass: layer 0 of static data takes one shared
    product, every other layer input is stacked."""
    net, ds = trained_network("subtract", False, False, temporal, 2)
    batch = held_out_batch(ds)
    frames = dataio.embed_label(batch, batch.labels, 2).frames(TIMESTEPS)
    for value in (np.nan, np.inf, -np.inf):
        net.layers[layer_index].weights[0, 0] = value
        for run in (lambda: label_goodness(net, batch),
                    lambda: forward_train(net.layers, frames)):
            with pytest.raises(NumericError, match="non-finite drive at timestep 0"), \
                    np.errstate(invalid="ignore"):  # inf * 0 in the GEMM
                run()


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


@pytest.mark.parametrize("temporal", [False, True])
def test_an_overlaid_batch_scores_as_its_plain_batch(temporal):
    """An overlaid batch is scored from its base rows as it is, whatever
    its overlay labels: a train step scores its positive variant."""
    net, ds = trained_network("subtract", False, False, temporal, 2)
    batch = held_out_batch(ds)
    want = label_goodness(net, batch)
    for labels in (batch.labels, 1 - batch.labels):
        overlaid = dataio.embed_label(batch, labels, 2)
        assert np.array_equal(label_goodness(net, overlaid), want)
