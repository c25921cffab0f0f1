"""Label scoring split over row ranges: the calling thread rolls out the
first range and a thread pool the others, with the loaded OpenBLAS on one
thread for the call. Scores keep their bits, the BLAS thread count comes
back, and everything but the products and steps stays on the calling
thread."""

import os
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from spikeff import dataio, layer as layer_module, network, numerics
from spikeff.errors import NumericError
from spikeff.network import build_network, label_goodness
from spikeff.neuron import NeuronConfig
from spikeff.numerics import RngStream, blas_threads

from test_network import (
    TIMESTEPS,
    dataset,
    held_out_batch,
    reference_scores,
    trained_network,
)


class RecordingPool:
    """Runs submitted ranges on a real pool, noting what ran there."""

    def __init__(self):
        self.pool = ThreadPoolExecutor(2)
        self.submitted = 0
        self.blas_counts = []

    def submit(self, fn, *args):
        self.submitted += 1

        def run():
            calls = numerics._openblas_thread_calls()
            if calls is not None:
                self.blas_counts.append(calls[0]())
            return fn(*args)

        return self.pool.submit(run)

    def clear(self):
        """Forget what training the test net ran here."""
        self.submitted = 0
        self.blas_counts.clear()


@pytest.fixture
def split(monkeypatch):
    """Three usable cores and row blocks of two rows for a 7-unit layer, so
    every chunk of the test nets splits into three row ranges."""
    if numerics._openblas_thread_calls() is None:
        pytest.skip("no OpenBLAS thread-count setter: scoring runs inline")
    pool = RecordingPool()
    monkeypatch.setattr(network, "_usable_cores", lambda: 3)
    monkeypatch.setattr(network, "_scoring_pool", lambda: pool)
    monkeypatch.setattr(layer_module, "BLOCK_ELEMENTS", 14)
    yield pool
    pool.pool.shutdown()


SPLIT_GRID = [
    # (recurrent, temporal, overlays per chunk of 10)
    (False, False, 10),
    (False, False, 3),  # a short last chunk of one overlay
    (False, True, 3),
    (True, False, 10),
    (True, True, 3),
]


@pytest.mark.parametrize(
    "recurrent,temporal,per_chunk", SPLIT_GRID,
    ids=[f"{'rec' if rc else 'ff'}-{'temporal' if t else 'static'}-x{n}"
         for rc, t, n in SPLIT_GRID],
)
def test_split_scores_equal_per_overlay_reference(
    split, monkeypatch, recurrent, temporal, per_chunk
):
    net, _ = trained_network("subtract", True, recurrent, temporal, 10)
    batch = held_out_batch(dataset(temporal, 10, n=11, seed=9))
    widest = max(layer.n_out for layer in net.layers)
    monkeypatch.setattr(network, "CHUNK_ELEMENTS", per_chunk * batch.size * widest)
    rows_before = net.eval_rows
    split.clear()

    scores = label_goodness(net, batch)

    assert split.submitted > 0
    assert net.eval_rows - rows_before == 10 * batch.size
    assert np.array_equal(scores, reference_scores(net, batch))
    assert np.ptp(scores) > 0


def test_split_scores_of_an_empty_batch(split):
    net, ds = trained_network("subtract", False, False, False, 10)
    empty = held_out_batch(ds, 0)
    rows_before = net.eval_rows
    split.clear()

    scores = label_goodness(net, empty)

    assert scores.shape == (0, 10)
    assert np.array_equal(scores, reference_scores(net, empty))
    assert net.eval_rows == rows_before
    assert split.submitted == 0


def test_blas_threads_restored_after_a_call_and_after_a_worker_error(split):
    get = numerics._openblas_thread_calls()[0]
    net, ds = trained_network("subtract", False, False, False, 2)
    batch = held_out_batch(ds, 24)
    split.clear()
    with blas_threads(2):  # a known count that is not the pinned one
        label_goodness(net, batch)
        assert get() == 2
        assert split.submitted > 0 and set(split.blas_counts) == {1}

        net.layers[1].weights[0, 0] = np.nan
        with pytest.raises(NumericError, match="non-finite drive at timestep 0"):
            label_goodness(net, batch)
        assert get() == 2


def test_an_error_in_a_worker_range_alone_is_raised(split):
    net, ds = trained_network("subtract", False, False, False, 2)
    batch = held_out_batch(ds, 24)
    inputs = batch.inputs.copy()
    inputs[-1, 0] = np.inf  # the last sample: rows in the last range only
    bad = dataio.SampleBatch(inputs, batch.labels, batch.input_dim)
    split.clear()
    with pytest.raises(NumericError, match="non-finite drive at timestep 0"):
        label_goodness(net, bad)
    assert split.submitted > 0


def test_an_error_on_the_calling_thread_waits_for_the_workers(
    split, monkeypatch
):
    """The call returns only after every range has stopped, so no worker
    still runs on its buffers or with the pinned BLAS count."""
    finished = []
    real_roll_out = network._roll_out

    def roll_out(rollouts, frames, rows, z_shared):
        if rows.start == 0:
            raise NumericError("the calling thread's range failed")
        time.sleep(0.2)
        real_roll_out(rollouts, frames, rows, z_shared)
        finished.append(rows)

    net, ds = trained_network("subtract", False, False, False, 2)
    batch = held_out_batch(ds, 24)
    monkeypatch.setattr(network, "_roll_out", roll_out)
    split.clear()
    with pytest.raises(NumericError, match="calling thread's range"):
        label_goodness(net, batch)
    assert len(finished) == split.submitted > 0


def test_overlays_buffers_and_goodness_stay_on_the_calling_thread(
    split, monkeypatch
):
    threads = {"embed_label": set(), "goodness": set(), "EvalRollout": set()}

    def on_calling_thread(name, fn):
        def wrapper(*args, **kwargs):
            threads[name].add(threading.get_ident())
            return fn(*args, **kwargs)
        return wrapper

    for name in threads:
        monkeypatch.setattr(network, name,
                            on_calling_thread(name, getattr(network, name)))
    net, _ = trained_network("subtract", False, True, True, 10)
    batch = held_out_batch(dataset(True, 10, n=11, seed=9))
    split.clear()

    label_goodness(net, batch)

    assert split.submitted > 0
    for name, seen in threads.items():
        assert seen == {threading.get_ident()}, name


def test_a_single_block_chunk_runs_inline(monkeypatch):
    """2 classes x 128 rows of a 64-unit layer fill one 512-row block: no
    pool, no BLAS thread call, even with cores to spare."""
    calls = []

    def no_pool():
        raise AssertionError("submitted work to the pool")

    def spy(name):
        def fn(*args):
            calls.append(name)
            return 2
        return fn

    monkeypatch.setattr(network, "_usable_cores", lambda: 2)
    monkeypatch.setattr(network, "_scoring_pool", no_pool)
    monkeypatch.setattr(numerics, "_openblas_thread_calls",
                        lambda: (spy("get"), spy("set")))
    ds = dataset(True, 2, n=128)
    net = build_network([64, 64], ds.input_dim, 2, TIMESTEPS,
                        NeuronConfig(threshold=1.0, decay=0.9), RngStream(3),
                        recurrent=True)
    batch = held_out_batch(ds, 128)
    assert layer_module.block_rows(64) == 512

    scores = label_goodness(net, batch)

    assert calls == []
    assert np.array_equal(scores, reference_scores(net, batch))


def test_blas_threads_restores_on_an_exception_and_without_a_setter(monkeypatch):
    calls = numerics._openblas_thread_calls()
    if calls is not None:
        get = calls[0]
        before = get()
        with pytest.raises(RuntimeError):
            with blas_threads(1) as previous:
                assert previous == before and get() == 1
                raise RuntimeError
        assert get() == before
    monkeypatch.setattr(numerics, "_openblas_thread_calls", lambda: None)
    with blas_threads(1) as previous:
        assert previous is None


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_scores_on_its_own_pool(monkeypatch):
    """The parent's pool threads do not exist in a forked child; the child
    must not wait on them."""
    if numerics._openblas_thread_calls() is None:
        pytest.skip("no OpenBLAS thread-count setter: scoring runs inline")
    monkeypatch.setattr(network, "_usable_cores", lambda: 2)
    monkeypatch.setattr(layer_module, "BLOCK_ELEMENTS", 14)
    net, ds = trained_network("subtract", False, False, False, 2)
    batch = held_out_batch(ds, 24)
    scores = label_goodness(net, batch)  # the parent's pool now runs
    assert network._pool is not None

    pid = os.fork()
    if pid == 0:  # the child: exit status 0 only for equal scores
        status = 1
        try:
            signal.alarm(30)  # a child waiting on absent threads is killed
            status = 0 if np.array_equal(label_goodness(net, batch), scores) else 1
        finally:
            os._exit(status)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
