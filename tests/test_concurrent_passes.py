"""The positive and negative train passes run at once: the calling thread
runs the positive pass and the worker pool the negative one, layer by
layer, each layer's two forwards and then its two backward calls, with the
loaded OpenBLAS on one thread for every call that runs GEMMs. The bits of
training, eval and predict do not depend on the split or on the BLAS
thread count, running statistics are folded on the calling thread in pass
order, and an error in either pass is raised after both have stopped."""

import copy
import itertools
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from spikeff import cli, dataio, numerics, trainer
from spikeff.errors import NumericError
from spikeff.network import build_network
from spikeff.neuron import NeuronConfig
from spikeff.numerics import RngStream, blas_threads
from spikeff.trainer import TrainConfig, train_step

from test_network import TIMESTEPS, dataset
from test_parallel_scoring import spy_blas

needs_setter = pytest.mark.skipif(
    numerics._openblas_thread_calls() is None,
    reason="no OpenBLAS thread-count setter: the passes run inline",
)


def stored_state(net):
    """Every stored tensor of every layer, and its batch count."""
    return [({name: t.copy() for name, t in layer.stored_tensors().items()},
             layer.batches_tracked) for layer in net.layers]


def assert_same_bits(a, b):
    for k, ((tensors_a, tracked_a), (tensors_b, tracked_b)) in enumerate(zip(a, b)):
        assert tracked_a == tracked_b, k
        assert tensors_a.keys() == tensors_b.keys()
        for name in tensors_a:
            assert tensors_a[name].tobytes() == tensors_b[name].tobytes(), (k, name)


def step_of(net, batch, monkeypatch, cores):
    """One train_step on a copy of net with this many usable cores."""
    net = copy.deepcopy(net)
    monkeypatch.setattr(numerics, "_usable_cores", lambda: cores)
    train_step(net, batch, TrainConfig(epochs=1, batch_size=batch.size), RngStream(7))
    return stored_state(net)


@needs_setter
@pytest.mark.parametrize("b", [256, 64], ids=["split", "in-turn"])
def test_train_step_bits_do_not_depend_on_the_blas_thread_count(b):
    """256 rows of a 500-unit layer are four row blocks, so the passes run
    at once; 64 rows are one block, so they run in turn."""
    ds = dataio.make_blob_dataset(b, input_dim=100, class_count=2, seed=0)
    net = build_network([500, 500], 100, 2, 10,
                        NeuronConfig(threshold=1.0, decay=0.9, decay_learnable=True),
                        RngStream(1))
    batch = dataio.SampleBatch(ds.inputs, ds.labels, ds.input_dim)
    states = []
    for count in (1, 2):
        stepped = copy.deepcopy(net)
        with blas_threads(count):
            train_step(stepped, batch, TrainConfig(epochs=1, batch_size=b),
                       RngStream(2))
        states.append(stored_state(stepped))
    assert_same_bits(*states)
    assert not np.array_equal(states[0][0][0]["weights"], net.layers[0].weights)


@needs_setter
def test_cli_runs_write_the_same_bytes_at_one_and_two_blas_threads(tmp_path):
    """`train` on a 500-unit net, whose train passes and scoring split;
    then `predict` with a recurrent 64-unit net, whose 2 x 256-row scoring
    chunks are one block each: the dataset is scored in one share per
    core."""
    src = str(Path(cli.__file__).parents[1])

    def spikeff(count, *args):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=count,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-m", "spikeff.cli", *args],
                              env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr

    runs = {
        "split": cli.ExperimentConfig(
            dataset="synthetic:blobs", hidden_sizes=[500, 500], batch_size=256,
            epochs=1, timesteps=4, decay_learnable=True, seed=5,
        ),
        "inline": cli.ExperimentConfig(
            dataset="synthetic:temporal", hidden_sizes=[64, 64], recurrent=True,
            batch_size=256, epochs=1, seed=5,
        ),
    }
    for name, run in runs.items():
        config = tmp_path / f"{name}.cfg"
        config.write_text(cli.serialize_config(run))
        written = []
        for count in ("1", "2"):
            out = tmp_path / f"{name}{count}"
            spikeff(count, "train", "--config", str(config), "--out", str(out))
            files = ["checkpoint.sffc", "metrics.csv"]
            if name == "inline":
                spikeff(count, "predict", str(out / "checkpoint.sffc"),
                        "--out", str(out / "predict.csv"))
                files.append("predict.csv")
            written.append({f: (out / f).read_bytes() for f in files})
        assert written[0] == written[1], name


SPLIT_GRID = list(itertools.product((False, True), (False, True),
                                    ("subtract", "zero")))


@needs_setter
@pytest.mark.parametrize(
    "recurrent,temporal,reset_mode", SPLIT_GRID,
    ids=[f"{'rec' if rc else 'ff'}-{'temporal' if t else 'static'}-{r}"
         for rc, t, r in SPLIT_GRID],
)
def test_split_passes_give_the_inline_bits(monkeypatch, recurrent, temporal,
                                           reset_mode):
    ds = dataset(temporal, 3, n=24)
    net = build_network([7, 5], ds.input_dim, 3, TIMESTEPS,
                        NeuronConfig(threshold=1.0, decay=0.9,
                                     decay_learnable=True, reset_mode=reset_mode),
                        RngStream(3), recurrent=recurrent, lr=0.05)
    batch = dataio.SampleBatch(ds.inputs, ds.labels, ds.input_dim, ds.timesteps)
    # row blocks of two rows for the 7-unit layer: each pass is 12 blocks
    monkeypatch.setattr(numerics, "BLOCK_ELEMENTS", 14)
    threads = set()
    real_backward = trainer.layer_backward

    def backward(layer, trace, dgoodness):
        threads.add(threading.get_ident())
        return real_backward(layer, trace, dgoodness)

    monkeypatch.setattr(trainer, "layer_backward", backward)
    inline = step_of(net, batch, monkeypatch, 1)
    assert threads == {threading.get_ident()}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # the threads interleave as often as they can
    try:
        split = step_of(net, batch, monkeypatch, 4)
    finally:
        sys.setswitchinterval(interval)
    assert len(threads) == 2

    assert_same_bits(inline, split)
    assert [tracked for _, tracked in split] == [2, 2]


@needs_setter
def test_running_stats_fold_positive_then_negative_per_layer(monkeypatch):
    caller = threading.get_ident()
    passes, folds = {}, []  # trace id -> pass; (layer, pass) in fold order
    real_forward, real_fold = trainer.forward_train, trainer.fold_running_stats

    def forward(layers, frames):
        traces = real_forward(layers, frames)
        which = "positive" if threading.get_ident() == caller else "negative"
        passes.update((id(trace), which) for trace in traces)
        return traces

    def fold(layer, trace):
        k = next(k for k, each in enumerate(net.layers) if each is layer)
        folds.append((k, passes[id(trace)]))
        real_fold(layer, trace)

    monkeypatch.setattr(trainer, "forward_train", forward)
    monkeypatch.setattr(trainer, "fold_running_stats", fold)
    monkeypatch.setattr(numerics, "_usable_cores", lambda: 2)
    monkeypatch.setattr(numerics, "BLOCK_ELEMENTS", 14)
    ds = dataset(False, 3, n=24)
    net = build_network([7, 5], ds.input_dim, 3, TIMESTEPS,
                        NeuronConfig(threshold=1.0, decay=0.9), RngStream(3))
    batch = dataio.SampleBatch(ds.inputs, ds.labels, ds.input_dim)
    train_step(net, batch, TrainConfig(epochs=1, batch_size=24), RngStream(2))
    assert folds == [(0, "positive"), (0, "negative"),
                     (1, "positive"), (1, "negative")]


def test_a_one_block_batch_runs_its_passes_in_turn(monkeypatch):
    """16 rows of a 7-unit layer are one row block: no pool, however many
    cores, but OpenBLAS on one thread for each inline call."""
    counts = spy_blas(monkeypatch)
    ds = dataset(False, 3, n=16)
    net = build_network([7, 5], ds.input_dim, 3, TIMESTEPS,
                        NeuronConfig(threshold=1.0, decay=0.9), RngStream(3))
    batch = dataio.SampleBatch(ds.inputs, ds.labels, ds.input_dim)
    assert numerics.row_blocks(batch.size, 7) == [slice(0, 16)]
    train_step(net, batch, TrainConfig(epochs=1, batch_size=16), RngStream(2))
    assert [layer.batches_tracked for layer in net.layers] == [2, 2]
    # scoring, then each layer's forwards and its backward calls: five pins
    assert counts == [2] + [1, 2] * 5


def failing_pass(monkeypatch, stage, failing, finished):
    """Make one pass's forward or layer-0 backward raise at once; the other
    pass's call sleeps before it runs, then notes that it finished."""
    caller = threading.get_ident()
    name = "forward_train" if stage == "forward" else "layer_backward"
    real = getattr(trainer, name)

    def call(*args):
        which = "positive" if threading.get_ident() == caller else "negative"
        if which == failing:
            raise NumericError(f"the {which} {stage} failed")
        time.sleep(0.2)
        result = real(*args)
        finished.append(which)
        return result

    monkeypatch.setattr(trainer, name, call)


@needs_setter
@pytest.mark.parametrize("stage", ["forward", "backward"])
@pytest.mark.parametrize("failing", ["positive", "negative"])
def test_an_error_in_either_pass_is_raised_after_both_stop(monkeypatch, stage,
                                                           failing):
    ds = dataset(False, 3, n=24)
    net = build_network([7, 5], ds.input_dim, 3, TIMESTEPS,
                        NeuronConfig(threshold=1.0, decay=0.9), RngStream(3))
    batch = dataio.SampleBatch(ds.inputs, ds.labels, ds.input_dim)
    monkeypatch.setattr(numerics, "_usable_cores", lambda: 2)
    monkeypatch.setattr(numerics, "BLOCK_ELEMENTS", 14)
    finished = []
    failing_pass(monkeypatch, stage, failing, finished)
    before = stored_state(net)
    get = numerics._openblas_thread_calls()[0]

    with blas_threads(2):  # a known count that is not the pinned one
        with pytest.raises(NumericError, match=f"the {failing} {stage} failed"):
            train_step(net, batch, TrainConfig(epochs=1, batch_size=24),
                       RngStream(2))
        assert get() == 2

    other = {"positive": "negative", "negative": "positive"}[failing]
    assert finished == [other]
    if stage == "forward":  # no statistics folded, no tensor changed
        assert_same_bits(stored_state(net), before)
    else:  # layer 0 folded both passes before its backward calls; layer 1
        # never ran
        assert [layer.batches_tracked for layer in net.layers] == [2, 0]
        assert_same_bits(stored_state(net)[1:], before[1:])
