"""What a training step keeps alive: step traces are released before the
next batch's scoring, label scoring runs in overlay chunks on reused
buffers, and a trace derives its normalized drive instead of storing it."""

import dataclasses
import itertools
import tracemalloc
import weakref

import numpy as np
import pytest

from spikeff import dataio, layer as layer_module, network, trainer
from spikeff.layer import EvalRollout, goodness
from spikeff.network import build_network, forward_train, label_goodness
from spikeff.neuron import NeuronConfig
from spikeff.numerics import RngStream
from spikeff.trainer import TrainConfig, train_epoch, train_step

from test_network import (
    TIMESTEPS,
    dataset,
    held_out_batch,
    reference_scores,
    trained_network,
)


def test_step_traces_freed_before_the_next_scoring(monkeypatch):
    ds = dataio.make_blob_dataset(64, seed=0)
    net = build_network([8, 6], ds.input_dim, ds.class_count, 4,
                        NeuronConfig(threshold=1.0, decay=0.9), RngStream(1))
    steps = []  # per step: weak references to every trace it made
    live_at_scoring = []
    real_forward, real_sample = trainer.forward_train, trainer.sample_hard_labels

    def recording_forward(net, frames):
        traces = real_forward(net, frames)
        steps[-1].extend(weakref.ref(trace) for trace in traces)
        return traces

    def checking_sample(net, batch, rng):
        live_at_scoring.append(
            sum(ref() is not None for refs in steps for ref in refs))
        steps.append([])
        return real_sample(net, batch, rng)

    monkeypatch.setattr(trainer, "forward_train", recording_forward)
    monkeypatch.setattr(trainer, "sample_hard_labels", checking_sample)
    train_epoch(net, ds, TrainConfig(epochs=1, batch_size=16, eval_every=0),
                RngStream(2))

    assert len(steps) == 4 and all(len(refs) == 4 for refs in steps)
    assert live_at_scoring == [0, 0, 0, 0]


def test_layer_traces_freed_before_its_adam_update(monkeypatch):
    ds = dataio.make_blob_dataset(32, seed=0)
    net = build_network([8, 6], ds.input_dim, ds.class_count, 4,
                        NeuronConfig(threshold=1.0, decay=0.9), RngStream(1))
    refs = []  # weak references to the step's traces, pass by pass
    live_at_adam = {}  # layer -> its traces still alive at its first update
    real_forward, real_adam = trainer.forward_train, trainer.adam_update

    def recording_forward(net, frames):
        traces = real_forward(net, frames)
        refs.append([weakref.ref(trace) for trace in traces])
        return traces

    def checking_adam(param, grad, state, name):
        k = int(name[len("layer")])
        live_at_adam.setdefault(
            k, sum(pass_refs[k]() is not None for pass_refs in refs))
        return real_adam(param, grad, state, name)

    monkeypatch.setattr(trainer, "forward_train", recording_forward)
    monkeypatch.setattr(trainer, "adam_update", checking_adam)
    batch = dataio.SampleBatch(ds.inputs, ds.labels, ds.input_dim)
    train_step(net, batch, TrainConfig(epochs=1, batch_size=32), RngStream(2))

    assert len(refs) == 2
    assert live_at_adam == {0: 0, 1: 0}


def test_temporal_overlays_freed_once_framed(monkeypatch):
    """A temporal variant's frames are a timestep-major copy of its overlaid
    rows; the step keeps the frames (in the layer-0 trace), not the rows."""
    ds = dataset(True, 2, n=16)
    net = build_network([8, 6], ds.input_dim, ds.class_count, TIMESTEPS,
                        NeuronConfig(threshold=1.0, decay=0.9), RngStream(1))
    overlays = []  # weak references to the rows of each overlaid batch
    live_at_forward = []
    real_embed, real_forward = trainer.embed_label, trainer.forward_train

    def recording_embed(batch, labels, class_count):
        variant = real_embed(batch, labels, class_count)
        overlays.append(weakref.ref(variant.inputs))
        return variant

    def checking_forward(net, frames):
        live_at_forward.append(sum(ref() is not None for ref in overlays))
        return real_forward(net, frames)

    monkeypatch.setattr(trainer, "embed_label", recording_embed)
    monkeypatch.setattr(trainer, "forward_train", checking_forward)
    batch = dataio.SampleBatch(ds.inputs, ds.labels, ds.input_dim, ds.timesteps)
    train_step(net, batch, TrainConfig(epochs=1, batch_size=16), RngStream(2))

    assert len(overlays) == 2
    assert live_at_forward == [0, 0]


def test_scoring_peak_below_the_unchunked_buffers():
    c, b, widths, t_steps = 10, 128, (1024, 256), 3
    ds = dataio.make_blob_dataset(b, input_dim=16, class_count=c, seed=0)
    net = build_network(list(widths), ds.input_dim, c, t_steps,
                        NeuronConfig(threshold=1.0, decay=0.9), RngStream(1))
    batch = dataio.SampleBatch(ds.inputs, ds.labels, ds.input_dim)
    # One c*B-row scoring pass held five (c*B, n_out) float64 buffers per
    # layer (drive, membrane, spikes, scratch, counts) and the stacked
    # (c*B, d) overlays.
    unchunked = 8 * c * b * (5 * sum(widths) + ds.input_dim)

    tracemalloc.start()
    try:
        scores = label_goodness(net, batch)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()

    assert scores.shape == (b, c)
    assert peak < unchunked, (peak, unchunked)


def test_temporal_scoring_holds_one_overlay_beside_its_frames(monkeypatch):
    """Overlays are written into one reused timestep-major buffer, one at a
    time: no sample-major chunk and no per-chunk frame copy."""
    c, b, t_steps, d = 3, 64, 5, 400
    ds = dataio.make_temporal_dataset(b, input_dim=d, timesteps=t_steps,
                                      class_count=c, seed=0)
    net = build_network([8, 6], d, c, t_steps,
                        NeuronConfig(threshold=1.0, decay=0.9), RngStream(1))
    batch = dataio.SampleBatch(ds.inputs, ds.labels, d, t_steps)
    monkeypatch.setattr(network, "CHUNK_ELEMENTS", b * 8)  # one overlay a chunk
    overlay_bytes = ds.inputs.nbytes

    tracemalloc.start()
    try:
        scores = label_goodness(net, batch)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()

    assert np.array_equal(scores, reference_scores(net, batch))
    # the frame buffer and the overlay being written; a third copy fails
    assert peak < 2.5 * overlay_bytes, (peak, overlay_bytes)


def test_normalized_is_derived_and_matches_the_first_membrane():
    ds = dataio.make_blob_dataset(32, seed=0)
    net = build_network([7, 5], ds.input_dim, ds.class_count, 4,
                        NeuronConfig(threshold=1.0, decay=0.9), RngStream(3))
    batch = dataio.SampleBatch(ds.inputs, ds.labels, ds.input_dim)
    frames = dataio.embed_label(batch, batch.labels, ds.class_count).frames(4)
    traces = forward_train(net, frames)
    # Adam replaces gamma and shift; the traces keep the pass's arrays.
    train_step(net, batch, TrainConfig(epochs=1, batch_size=32), RngStream(4))
    for trace, layer in zip(traces, net.layers):
        assert trace.gamma is not layer.gamma and trace.shift is not layer.shift
        assert "normalized" not in {f.name for f in dataclasses.fields(trace)}
        # at t=0 the membrane starts from rest: it is exactly the drive
        assert np.array_equal(trace.normalized[0], trace.membranes[0])
        assert np.ptp(trace.membranes[0]) > 0


CHUNK_GRID = list(itertools.product(("subtract", "zero"), (False, True),
                                    (False, True), (1, 3)))


@pytest.mark.parametrize(
    "reset_mode,recurrent,temporal,per_chunk", CHUNK_GRID,
    ids=[f"{r}-{'rec' if rc else 'ff'}-{'temporal' if t else 'static'}-x{n}"
         for r, rc, t, n in CHUNK_GRID],
)
def test_chunked_scores_equal_per_overlay_reference(
    monkeypatch, reset_mode, recurrent, temporal, per_chunk
):
    """Chunks of 1 or 3 overlays out of 10 (an uneven last chunk) and row
    blocks of 2-4 rows (an uneven last block) leave every score's bits as
    they are."""
    net, _ = trained_network(reset_mode, True, recurrent, temporal, 10)
    batch = held_out_batch(dataset(temporal, 10, n=11, seed=9))
    widest = max(layer.n_out for layer in net.layers)
    monkeypatch.setattr(network, "CHUNK_ELEMENTS", per_chunk * batch.size * widest)
    monkeypatch.setattr(layer_module, "BLOCK_ELEMENTS", 20)
    rows_before = net.eval_rows

    scores = label_goodness(net, batch)

    assert net.eval_rows - rows_before == 10 * batch.size
    assert np.array_equal(scores, reference_scores(net, batch))
    assert np.ptp(scores) > 0


def test_reset_rollout_replays_a_fresh_one():
    net, _ = trained_network("subtract", True, True, True, 2)
    layer = net.layers[0]
    frames = held_out_batch(dataset(True, 2, n=20, seed=5), 20).frames(TIMESTEPS)
    fresh = EvalRollout(layer, 12)
    reused = EvalRollout(layer, 20)
    for rollout in (fresh, reused):  # reused runs all 20 rows first
        for t in range(TIMESTEPS):
            rollout.step(t, rollout.product(frames[t][: rollout.counts.shape[0]], t))
    reused.reset(12)
    for t in range(TIMESTEPS):
        reused.step(t, reused.product(frames[t][:12], t))
    assert reused.counts.shape == (12, layer.n_out)
    assert np.array_equal(reused.membrane, fresh.membrane)
    assert np.array_equal(goodness(reused), goodness(fresh))
