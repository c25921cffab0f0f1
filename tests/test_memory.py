"""What a training step keeps alive: one layer's traces at a time, all
released before the next batch's scoring; label scoring runs in overlay
chunks on reused buffers, and a dataset's shares together hold one batch's.
A trace stores bool spikes and neither its products nor its normalized
drive. A network that has not trained holds no Adam moments."""

import copy
import itertools
import tracemalloc
import weakref

import numpy as np
import pytest

from spikeff import dataio, network, numerics, trainer
from spikeff.checkpoint import load_checkpoint, save_checkpoint
from spikeff.layer import EvalRollout, goodness, product
from spikeff.network import build_network, forward_train, label_goodness
from spikeff.neuron import NeuronConfig
from spikeff.numerics import RngStream
from spikeff.predictor import evaluate
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

    def recording_forward(layers, frames):
        traces = real_forward(layers, frames)
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


def layer_index(net, layers):
    """The index in `net` of the one layer a step's `forward_train` runs."""
    (layer,) = layers
    return next(k for k, each in enumerate(net.layers) if each is layer)


def test_layer_traces_freed_before_its_adam_update(monkeypatch):
    ds = dataio.make_blob_dataset(32, seed=0)
    net = build_network([8, 6], ds.input_dim, ds.class_count, 4,
                        NeuronConfig(threshold=1.0, decay=0.9), RngStream(1))
    refs = []  # (layer, weak reference) of each trace of the step
    live_at_adam = {}  # layer -> its traces still alive at its first update
    real_forward, real_adam = trainer.forward_train, trainer.adam_update

    def recording_forward(layers, frames):
        traces = real_forward(layers, frames)
        refs.extend((layer_index(net, layers), weakref.ref(t)) for t in traces)
        return traces

    def checking_adam(param, grad, state, name):
        k = int(name[len("layer")])
        live_at_adam.setdefault(
            k, sum(ref() is not None for j, ref in refs if j == k))
        return real_adam(param, grad, state, name)

    monkeypatch.setattr(trainer, "forward_train", recording_forward)
    monkeypatch.setattr(trainer, "adam_update", checking_adam)
    batch = dataio.SampleBatch(ds.inputs, ds.labels, ds.input_dim)
    train_step(net, batch, TrainConfig(epochs=1, batch_size=32), RngStream(2))

    assert [k for k, _ in refs] == [0, 0, 1, 1]
    assert live_at_adam == {0: 0, 1: 0}


@pytest.mark.parametrize("temporal", [False, True])
def test_lower_layer_traces_freed_before_each_forward(monkeypatch, temporal):
    """A step runs one layer at a time, both passes of it: when layer k's
    forward starts, no trace of a layer below it is alive, and no trace
    outlives its step."""
    ds = dataset(temporal, 3, n=32)
    net = build_network([8, 7, 6], ds.input_dim, 3, TIMESTEPS,
                        NeuronConfig(threshold=1.0, decay=0.9), RngStream(1))
    refs = []  # (layer, weak reference) of each trace made so far
    calls, live_below = [], []  # per forward: its layer, lower traces alive
    real_forward = network.layer_forward

    def checking_forward(layer, frames, mode="train", **kwargs):
        k = layer_index(net, [layer])
        calls.append(k)
        live_below.append(sum(ref() is not None for j, ref in refs if j < k))
        trace = real_forward(layer, frames, mode, **kwargs)
        refs.append((k, weakref.ref(trace)))
        return trace

    monkeypatch.setattr(network, "layer_forward", checking_forward)
    batch = dataio.SampleBatch(ds.inputs, ds.labels, ds.input_dim, ds.timesteps)
    config = TrainConfig(epochs=1, batch_size=32)
    for seed in (2, 3):
        train_step(net, batch, config, RngStream(seed))

    assert calls == [0, 0, 1, 1, 2, 2] * 2
    assert live_below == [0] * 12
    assert not any(ref() is not None for _, ref in refs)


def test_one_overlay_per_step_framed_without_a_copy(monkeypatch):
    """A temporal step overlays its batch once: scoring and both passes
    read that one copy of the base rows, each pass's layer-0 inputs being
    a view of it, and it is freed with layer 0's traces, before layer 0's
    Adam update."""
    ds = dataset(True, 2, n=16)
    net = build_network([8, 6], ds.input_dim, ds.class_count, TIMESTEPS,
                        NeuronConfig(threshold=1.0, decay=0.9), RngStream(1))
    overlays = []  # weak references to the array owning each overlay's rows
    views = []  # per forward: whether its inputs are a view of them
    live_at_adam = []
    real_embed, real_forward = dataio.embed_label, trainer.forward_train
    real_adam = trainer.adam_update

    def recording_embed(batch, labels, class_count):
        variant = real_embed(batch, labels, class_count)
        rows = variant.inputs  # maybe a view: the frames keep its owner alive
        overlays.append(weakref.ref(rows if rows.base is None else rows.base))
        return variant

    def recording_forward(layers, frames):
        traces = real_forward(layers, frames)
        views.append(np.shares_memory(traces[0].inputs, overlays[-1]()))
        return traces

    def checking_adam(param, grad, state, name):
        live_at_adam.append(overlays[-1]() is not None)
        return real_adam(param, grad, state, name)

    for module in (trainer, network):
        monkeypatch.setattr(module, "embed_label", recording_embed)
    monkeypatch.setattr(trainer, "forward_train", recording_forward)
    monkeypatch.setattr(trainer, "adam_update", checking_adam)
    batch = dataio.SampleBatch(ds.inputs, ds.labels, ds.input_dim, ds.timesteps)
    train_step(net, batch, TrainConfig(epochs=1, batch_size=16), RngStream(2))

    assert len(overlays) == 1
    assert views == [True, True, False, False]  # layer 0's passes, layer 1's
    assert live_at_adam and not any(live_at_adam)


@pytest.mark.parametrize("temporal", [False, True])
def test_train_traces_hold_no_float64_stack_but_membranes(temporal):
    t_steps, batch, d = 4, 6, 8
    net = build_network([5, 3], d, 2, t_steps, NeuronConfig(threshold=0.5),
                        RngStream(3))
    rows = RngStream(4).uniform((batch, d * (t_steps if temporal else 1)))
    frames = dataio.time_frames(rows, d, t_steps if temporal else 1, t_steps)
    traces = forward_train(net.layers, frames)
    for k, trace in enumerate(traces):
        float_stacks = {
            name for name, value in vars(trace).items()
            if isinstance(value, np.ndarray) and value.ndim == 3
            and value.dtype == np.float64
        }
        if k == 0:  # the caller's frames, held as given
            assert np.shares_memory(trace.inputs, frames[0])
            float_stacks.discard("inputs")
        assert float_stacks == {"membranes"}, k
        assert trace.spikes.dtype == np.bool_


@pytest.mark.parametrize("temporal", [False, True])
def test_train_step_peak_within_the_compact_trace_bound(monkeypatch, temporal):
    t_steps, b, widths, d = 10, 64, (200, 200), 16
    if temporal:
        ds = dataio.make_temporal_dataset(b, input_dim=d, timesteps=t_steps,
                                          class_count=2, seed=0)
    else:
        ds = dataio.make_blob_dataset(b, input_dim=d, class_count=2, seed=0)
    net = build_network(list(widths), d, 2, t_steps,
                        NeuronConfig(threshold=1.0, decay=0.9), RngStream(1))
    batch = dataio.SampleBatch(ds.inputs, ds.labels, d, ds.timesteps)
    config = TrainConfig(epochs=1, batch_size=b)
    train_step(net, batch, config, RngStream(2))  # populates running stats
    stack = t_steps * b  # rows of one (T, B, n) array
    # Both passes' traces at 9 bytes per (T, B, n) element (a float64
    # membrane and a bool spike), one float64 (T, B, n) array more (a
    # stacked product, which per-timestep products no longer make), and 16
    # float64 (B, n) buffers (counts, per-timestep state, gradients).
    bound = (2 * 9 * stack * sum(widths) + 8 * stack * sum(widths)
             + 16 * 8 * b * max(widths))
    # With float64 spikes and stored products, the traces alone exceed it.
    assert 2 * 8 * stack * (2 * widths[0] + 3 * widths[1]) > bound

    # Run in turn, then (where BLAS threads can be pinned) at once: row
    # blocks of 16 rows make each pass four blocks.
    monkeypatch.setattr(numerics, "BLOCK_ELEMENTS", 16 * max(widths))
    split = numerics._openblas_thread_calls() is not None
    for cores in (1, 2) if split else (1,):
        monkeypatch.setattr(numerics, "_usable_cores", lambda: cores)
        assert len(numerics.worker_ranges(b, max(widths))) == cores
        tracemalloc.start()
        try:
            train_step(net, batch, config, RngStream(3))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()

        assert peak < bound, (cores, peak, bound)


@pytest.mark.parametrize("temporal", [False, True])
def test_train_step_peak_within_one_layers_traces(monkeypatch, temporal):
    """A step holds one layer's traces at a time, so its peak does not
    grow with depth: it stays below the widest layer's traces and its
    input, however many layers there are."""
    t_steps, b, widths, d = 20, 64, (200, 200, 200), 24
    if temporal:
        ds = dataio.make_temporal_dataset(b, input_dim=d, timesteps=t_steps,
                                          class_count=2, seed=0)
    else:
        ds = dataio.make_blob_dataset(b, input_dim=d, class_count=2, seed=0)
    net = build_network(list(widths), d, 2, t_steps,
                        NeuronConfig(threshold=1.0, decay=0.9), RngStream(1))
    batch = dataio.SampleBatch(ds.inputs, ds.labels, d, ds.timesteps)
    config = TrainConfig(epochs=1, batch_size=b)
    stack, n = t_steps * b, max(widths)  # rows of one (T, B, n) array
    # Run in turn, then (where BLAS threads can be pinned) at once: row
    # blocks of 16 rows make each pass four blocks.
    monkeypatch.setattr(numerics, "BLOCK_ELEMENTS", 16 * n)
    split = numerics._openblas_thread_calls() is not None
    core_counts = (1, 2) if split else (1,)
    # The warm-up step populates running stats and, with the most cores,
    # makes the worker pool, so no traced step counts its import or threads.
    monkeypatch.setattr(numerics, "_usable_cores", lambda: core_counts[-1])
    train_step(net, batch, config, RngStream(2))
    # The widest layer's traces for both passes at 9 bytes per (T, B, n)
    # element (a float64 membrane and a bool spike), its input (both
    # passes' bool spikes of the layer below; layer 0's base rows are
    # smaller), four float64 (n, n) arrays (weight gradients of both
    # passes' backward calls, each with its one-timestep term) and 21
    # float64 (B, n) buffers (per-timestep state and gradients of both
    # calls, and the tensors Adam replaced in the layers below). The
    # backward writes dL/dU and dL/dC over the trace's membranes and
    # counts: with its own two dL/dU buffers and dL/dC, each call holds
    # three buffers more, and the step at two cores peaks about 24
    # buffers above the rest of the bound.
    bound = (2 * 9 * stack * n + 2 * stack * n + 4 * 8 * n * n
             + 21 * 8 * b * n)
    assert 8 * b * t_steps * d < 2 * stack * n
    # Every layer's traces held at once, as when all forwards run before
    # any backward, exceed it alone.
    assert 2 * 9 * stack * sum(widths) > bound

    for cores in core_counts:
        monkeypatch.setattr(numerics, "_usable_cores", lambda: cores)
        assert len(numerics.worker_ranges(b, n)) == cores
        tracemalloc.start()
        try:
            train_step(net, batch, config, RngStream(3))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()

        assert peak < bound, (cores, peak, bound)


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
    """Scoring holds the batch's base rows once, framed timestep-major:
    no overlay is written out and no per-chunk frame copy is made."""
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
    # the base rows, read in place (about 1.08 times them); one more copy
    # of them (about 2.08) fails
    assert peak < 1.5 * overlay_bytes, (peak, overlay_bytes)


def test_a_two_share_eval_peaks_no_higher_than_one_share(monkeypatch):
    """The temporal-recurrent benchmark's shape, 256-sample batches of a
    64-64 recurrent net: two shares score batches of 128 at once, so
    together they hold one batch's buffers, as a one-core pass does."""
    if numerics._openblas_thread_calls() is None:
        pytest.skip("no OpenBLAS thread-count setter: eval runs in one share")
    ds = dataio.make_temporal_dataset(512, seed=1)
    net = build_network([64, 64], ds.input_dim, 2, 10, NeuronConfig(),
                        RngStream(1), recurrent=True)
    for layer in net.layers:
        layer.batches_tracked = 1
    peaks = {}
    for cores in (2, 1, 2):  # the first pass makes the pool
        monkeypatch.setattr(numerics, "_usable_cores", lambda: cores)
        tracemalloc.start()
        try:
            evaluate(net, ds)
            _, peaks[cores] = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()

    # 5.6 MiB either way; the two shares' peaks may coincide a little
    # more or less than a one-share pass's buffers live at once
    assert peaks[2] <= 1.02 * peaks[1], peaks


def test_scoring_writes_out_no_overlay_chunk():
    """All c overlays in one chunk: a scoring call allocates no (T, c*B, d)
    buffer of overlaid frames, only the base rows, framed, and layer 0's
    (T, B, n) base products beside the rollout buffers."""
    c, b, t_steps, d = 10, 64, 5, 400
    ds = dataio.make_temporal_dataset(b, input_dim=d, timesteps=t_steps,
                                      class_count=c, seed=0)
    net = build_network([8, 6], d, c, t_steps,
                        NeuronConfig(threshold=1.0, decay=0.9), RngStream(1))
    batch = dataio.SampleBatch(ds.inputs, ds.labels, d, t_steps)
    assert network.CHUNK_ELEMENTS >= c * b * 8  # one chunk
    overlay_chunk = 8 * t_steps * c * b * d

    tracemalloc.start()
    try:
        label_goodness(net, batch)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()

    assert peak < 0.3 * overlay_chunk, (peak, overlay_chunk)


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
    monkeypatch.setattr(numerics, "BLOCK_ELEMENTS", 20)
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
            product(frames[t][: len(rollout.drive)], layer.weights, t, rollout.drive)
            rollout.step(t, rollout.drive)
    reused.reset(12)
    for t in range(TIMESTEPS):
        product(frames[t][:12], layer.weights, t, reused.drive)
        reused.step(t, reused.drive)
    assert reused.counts.shape == (12, layer.n_out)
    assert np.array_equal(reused.membrane, fresh.membrane)
    assert np.array_equal(goodness(reused), goodness(fresh))


def moment_arrays(net):
    """Every moment array that the Adam states of net's layers hold."""
    return [moment for layer in net.layers for state in layer.adam.values()
            for moment in (state.first_moment, state.second_moment)
            if moment is not None]


def test_untrained_networks_hold_no_moments(tmp_path):
    """A built network, its deep copy and a loaded checkpoint of a trained
    one hold only their tensors, and an Adam state for each trainable one."""
    ds = dataio.make_blob_dataset(32, seed=0)
    cfg = NeuronConfig(threshold=1.0, decay=0.9, decay_learnable=True,
                       reset_mode="zero")
    net = build_network([8, 6], ds.input_dim, ds.class_count, 4, cfg,
                        RngStream(1), recurrent=True)
    built = copy.deepcopy(net)
    train_step(net, dataio.SampleBatch(ds.inputs, ds.labels, ds.input_dim),
               TrainConfig(epochs=1, batch_size=32), RngStream(2))
    assert len(moment_arrays(net)) == 2 * 10  # 5 trainable tensors a layer
    save_checkpoint(tmp_path / "net.sffc", net)
    loaded, _ = load_checkpoint(tmp_path / "net.sffc")

    for untrained in (built, copy.deepcopy(built), loaded):
        assert moment_arrays(untrained) == []
        for layer in untrained.layers:
            assert set(layer.adam) == set(layer.trainable_tensors())
            assert {state.step for state in layer.adam.values()} == {0}


def test_building_a_network_peaks_near_its_tensors():
    """At static-784's shape (784-500-500, T=10) building a network holds
    its tensors and little more: two moment arrays per trainable tensor
    would take it to about three times their bytes."""
    cfg = NeuronConfig(threshold=1.0, decay=0.99, decay_learnable=True)
    tracemalloc.start()
    try:
        net = build_network([500, 500], 784, 10, 10, cfg, RngStream(1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    stored = sum(tensor.nbytes for layer in net.layers
                 for tensor in layer.stored_tensors().values())
    assert peak < 1.25 * stored, peak / stored
