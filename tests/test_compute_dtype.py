"""The compute dtype is the weights': a network whose tensors are float32
scores and trains a step with every trace array, rollout buffer, gradient
and Adam moment in float32, and makes no float64 buffer of a layer's
(B, n) size. Checkpoints stay float64 whatever the dtype in memory."""

import copy
import dataclasses
import sys
import tracemalloc

import numpy as np
import pytest

from spikeff import network, trainer
from spikeff.checkpoint import load_checkpoint, save_checkpoint
from spikeff.dataio import SampleBatch, embed_label
from spikeff.layer import LayerForwardTrace, goodness, layer_backward
from spikeff.network import build_network, forward_train, label_goodness
from spikeff.neuron import NeuronConfig
from spikeff.numerics import RngStream
from spikeff.trainer import TrainConfig, train_step

# B, n, c, T and d are chosen so that no float32 buffer of a step has a
# float64 (B, n) buffer's byte size: 8 * B * n is neither 4 * B * k nor
# 4 * T * B * k nor 4 * c * B * k for any width k here, nor a weight
# matrix's or a bool stack's size.
BATCH, WIDTHS, CLASSES, TIMESTEPS, INPUT_DIM = 12, (5, 11), 3, 3, 7


def cast_network(net, dtype):
    """net with every tensor cast to dtype, in place."""
    for layer in net.layers:
        for name, tensor in layer.stored_tensors().items():
            setattr(layer, name, tensor.astype(dtype))
    return net


def float32_case(temporal):
    """A float32 network and a float32 batch of its input; the temporal
    case is recurrent, zero-reset and has a learnable decay."""
    cfg = NeuronConfig(threshold=0.5, decay=0.9, decay_learnable=temporal,
                       reset_mode="zero" if temporal else "subtract")
    net = build_network(WIDTHS, INPUT_DIM, CLASSES, TIMESTEPS, cfg,
                        RngStream(5), recurrent=temporal, lr=0.01)
    steps = TIMESTEPS if temporal else 1
    rng = RngStream(6)
    inputs = (rng.uniform((BATCH, steps * INPUT_DIM)) < 0.5) * rng.uniform(
        (BATCH, steps * INPUT_DIM), 0.5, 2.0)
    labels = np.arange(BATCH) % CLASSES
    batch = SampleBatch(inputs.astype(np.float32), labels, INPUT_DIM, steps)
    return cast_network(net, np.float32), batch


def floating_arrays(obj):
    """The floating ndarrays among obj's attributes, by name."""
    return {name: value for name, value in vars(obj).items()
            if isinstance(value, np.ndarray) and value.dtype.kind == "f"}


class LiveArraySizes:
    """The byte sizes of the numpy buffers alive at any line event of the
    traced Python code, numpy's own Python functions included."""

    def __init__(self, sizes):
        self.sizes = set(sizes)
        self.seen = set()
        self.filters = [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)]

    def __call__(self, frame, event, arg):
        if event == "line":
            snapshot = tracemalloc.take_snapshot().filter_traces(self.filters)
            self.seen.update(t.size for t in snapshot.traces if t.size in self.sizes)
        return self

    def run(self, call):
        tracemalloc.start()
        sys.settrace(self)
        try:
            return call()
        finally:
            sys.settrace(None)
            tracemalloc.stop()


@pytest.mark.parametrize("temporal", [False, True])
def test_a_float32_network_scores_and_steps_in_float32(monkeypatch, temporal):
    net, batch = float32_case(temporal)
    traces, rollouts, updates = [], [], []
    real_forward, real_adam = trainer.forward_train, trainer.adam_update

    def recording_forward(layers, frames):
        result = real_forward(layers, frames)
        traces.extend(floating_arrays(trace) for trace in result)
        return result

    class RecordingRollout(network.EvalRollout):
        def __init__(self, layer, rows):
            super().__init__(layer, rows)
            rollouts.append(self)

    def recording_adam(param, grad, state, lr, name):
        real_adam(param, grad, state, lr, name)
        updates.append((name, param, grad, state.first_moment, state.second_moment))

    monkeypatch.setattr(trainer, "forward_train", recording_forward)
    monkeypatch.setattr(network, "EvalRollout", RecordingRollout)
    monkeypatch.setattr(trainer, "adam_update", recording_adam)
    float64_sizes = {8 * BATCH * n for n in WIDTHS}
    watch = LiveArraySizes(float64_sizes)

    scores = watch.run(lambda: label_goodness(net, batch))
    watch.run(lambda: train_step(net, batch, TrainConfig(epochs=1),
                                 RngStream(7)))

    assert scores.dtype == np.float32 and scores.shape == (BATCH, CLASSES)
    assert watch.seen == set()
    assert len(traces) == 2 * len(WIDTHS)
    for arrays in traces:
        assert {"membranes", "counts", "mu", "var"} <= arrays.keys()
        assert {a.dtype for a in arrays.values()} == {np.dtype(np.float32)}
    assert len(rollouts) == 2 * len(WIDTHS)  # scoring, then the step's
    for roll in rollouts:
        assert roll.counts.dtype == np.uint8  # counts of at most T spikes
        arrays = floating_arrays(roll)
        assert {"_drive", "_membrane", "_spikes", "scratch", "scale"} <= arrays.keys()
        assert {a.dtype for a in arrays.values()} == {np.dtype(np.float32)}
    trained = set(net.layers[0].trainable_tensors())
    assert {name.split(".")[1] for name, *_ in updates} == trained
    for name, *arrays in updates:
        assert [a.dtype for a in arrays] == [np.dtype(np.float32)] * 4, name


@pytest.mark.parametrize("temporal", [False, True])
def test_float64_rows_are_cast_to_the_compute_dtype(temporal):
    """A float32 network given float64 rows computes what it computes from
    their float32 cast: the same scores, train trace and gradients, for a
    static input's one product and a stacked input's per-timestep ones."""
    net, narrow = float32_case(temporal)
    wide = dataclasses.replace(narrow, inputs=narrow.inputs.astype(np.float64))
    assert label_goodness(net, wide).tobytes() == label_goodness(net, narrow).tobytes()
    runs = []
    for batch in (wide, narrow):
        overlaid = embed_label(batch, batch.labels, CLASSES)
        (trace,) = forward_train(net.layers[:1], overlaid.frames(TIMESTEPS))
        arrays = [getattr(trace, name).tobytes()
                  for name in ("membranes", "spikes", "counts", "mu", "var")]
        grads = layer_backward(net.layers[0], trace, np.linspace(-1.0, 1.0, BATCH))
        assert {g.dtype for g in grads.values()} == {np.dtype(np.float32)}
        runs.append((arrays, {name: g.tobytes() for name, g in grads.items()}))
    assert runs[0] == runs[1]


def test_goodness_squares_counts_in_the_compute_dtype():
    trace = LayerForwardTrace(
        mode="eval", counts=np.array([[3.0, 4.0]], np.float32),
        mu=np.zeros((1, 2), np.float32), var=np.ones((1, 2), np.float32),
        spikes=np.zeros((1, 1, 2), bool),
    )
    good = goodness(trace)
    assert good.dtype == np.float32 and good[0] == 12.5


def test_checkpoints_stay_float64(tmp_path):
    """A float32 network writes the bytes of its float64 copy, and loads
    as float64: the compute dtype lives in memory only."""
    net, _ = float32_case(temporal=True)
    wide = cast_network(copy.deepcopy(net), np.float64)
    save_checkpoint(tmp_path / "narrow.sffc", net)
    save_checkpoint(tmp_path / "wide.sffc", wide)

    narrow_bytes = (tmp_path / "narrow.sffc").read_bytes()
    assert narrow_bytes == (tmp_path / "wide.sffc").read_bytes()
    loaded, _ = load_checkpoint(tmp_path / "narrow.sffc")
    for narrow_layer, layer in zip(net.layers, loaded.layers):
        tensors = layer.stored_tensors()
        assert tensors.keys() == narrow_layer.stored_tensors().keys()
        for name, tensor in tensors.items():
            assert tensor.dtype == np.float64, name
            assert np.array_equal(tensor, narrow_layer.stored_tensors()[name]), name
