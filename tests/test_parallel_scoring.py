"""Label scoring split over ranges of a batch's samples, the ranges a
train step splits the same batch into: the calling thread rolls out the
first range and a thread pool the others, with the loaded OpenBLAS on one
thread for the call, as for inline scoring. Scores keep their bits, the
BLAS thread count comes back, and each range scores its own samples under
every overlay: overlay corrections, rollout and goodness sums. Where a
batch is one row block, a dataset is scored instead in one share of its
samples per core, at once and with the same bits."""

import os
import signal
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from spikeff import dataio, network, numerics, predictor, trainer
from spikeff.errors import NumericError
from spikeff.network import build_network, label_goodness
from spikeff.neuron import NeuronConfig
from spikeff.numerics import RngStream, blas_threads
from spikeff.predictor import evaluate, score_dataset
from spikeff.trainer import TrainConfig, train_step

from test_network import (
    TIMESTEPS,
    dataset,
    held_out_batch,
    reference_scores,
    trained_network,
)


class RecordingPool:
    """Runs submitted ranges on a real pool, noting what ran there."""

    def __init__(self, threads=2):
        self.pool = ThreadPoolExecutor(threads)
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
    monkeypatch.setattr(numerics, "_usable_cores", lambda: 3)
    monkeypatch.setattr(numerics, "_worker_pool", lambda: pool)
    monkeypatch.setattr(numerics, "BLOCK_ELEMENTS", 14)
    yield pool
    pool.pool.shutdown()


SPLIT_GRID = [
    # (recurrent, temporal, overlays per chunk of 10, batch size)
    (False, False, 10, 11),
    (False, False, 3, 11),  # a short last chunk of one overlay
    (False, True, 3, 11),
    (True, False, 10, 11),
    (True, True, 3, 11),
    (False, False, 3, 1),  # one sample: one range, inline
    (True, True, 10, 2),  # one row block: one range, inline
    (False, True, 3, 5),  # a last range of one sample
    (True, False, 10, 5),
]


@pytest.mark.parametrize(
    "recurrent,temporal,per_chunk,size", SPLIT_GRID,
    ids=[f"{'rec' if rc else 'ff'}-{'temporal' if t else 'static'}-x{n}"
         + ("" if b == 11 else f"-b{b}")
         for rc, t, n, b in SPLIT_GRID],
)
def test_split_scores_equal_per_overlay_reference(
    split, monkeypatch, recurrent, temporal, per_chunk, size
):
    net, _ = trained_network("subtract", True, recurrent, temporal, 10)
    batch = held_out_batch(dataset(temporal, 10, n=11, seed=9), size)
    widest = max(layer.n_out for layer in net.layers)
    monkeypatch.setattr(network, "CHUNK_ELEMENTS", per_chunk * batch.size * widest)
    rows_before = net.eval_rows
    split.clear()

    scores = label_goodness(net, batch)

    # every range but the calling thread's runs on the pool
    assert split.submitted == len(numerics.worker_ranges(size, widest)) - 1
    assert net.eval_rows - rows_before == 10 * batch.size
    assert np.array_equal(scores, reference_scores(net, batch))
    assert np.ptp(scores) > 0


def test_each_range_scores_the_batch_rows_a_train_step_splits(
    split, monkeypatch
):
    """Every `_roll_out` call gets one of `worker_ranges(B, widest)`, the
    ranges of a train step's passes over the same batch: contiguous runs
    of samples that cover the batch once, each scored under every label."""
    calls = []
    real_roll_out = network._roll_out

    def roll_out(rollouts, shared, rows, total):
        calls.append(rows)
        real_roll_out(rollouts, shared, rows, total)

    net, _ = trained_network("subtract", False, False, False, 10)
    batch = held_out_batch(dataset(False, 10, n=11, seed=9))
    widest = max(layer.n_out for layer in net.layers)
    monkeypatch.setattr(network, "_roll_out", roll_out)
    split.clear()

    scores = label_goodness(net, batch)

    calls.sort(key=lambda rows: rows.start)
    assert calls == numerics.worker_ranges(batch.size, widest)
    assert len(calls) == 3
    assert [i for rows in calls for i in range(rows.start, rows.stop)] == list(
        range(batch.size))
    assert np.array_equal(scores, reference_scores(net, batch))


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

    def roll_out(rollouts, overlays, rows, total):
        if rows.start == 0:
            raise NumericError("the calling thread's range failed")
        time.sleep(0.2)
        real_roll_out(rollouts, overlays, rows, total)
        finished.append(rows)

    net, ds = trained_network("subtract", False, False, False, 2)
    batch = held_out_batch(ds, 24)
    monkeypatch.setattr(network, "_roll_out", roll_out)
    split.clear()
    with pytest.raises(NumericError, match="calling thread's range"):
        label_goodness(net, batch)
    assert len(finished) == split.submitted > 0


def test_base_rows_and_buffers_on_the_calling_thread_goodness_on_each_range(
    split, monkeypatch
):
    """The calling thread makes the batch's one copy of base rows and every
    buffer; each range sums its own goodness on the thread that rolls it
    out, so the calling thread does no per-row work between chunks."""
    threads = {"embed_label": [], "goodness": [], "EvalRollout": []}

    def noting_thread(name, fn):
        def wrapper(*args, **kwargs):
            threads[name].append(threading.get_ident())
            return fn(*args, **kwargs)
        return wrapper

    net, _ = trained_network("subtract", False, True, True, 10)
    batch = held_out_batch(dataset(True, 10, n=11, seed=9))
    for name in threads:
        monkeypatch.setattr(network, name,
                            noting_thread(name, getattr(network, name)))
    split.clear()

    label_goodness(net, batch)

    caller = threading.get_ident()
    assert split.submitted > 0
    assert threads["embed_label"] == [caller]
    assert set(threads["EvalRollout"]) == {caller}
    assert caller in threads["goodness"] and len(set(threads["goodness"])) > 1


def no_pool():
    raise AssertionError("submitted work to the pool")


def spy_blas(monkeypatch, count=2):
    """Stand in for OpenBLAS's thread-count calls, two usable cores and no
    pool. Returns the counts in the order they were set, from `count`."""
    counts = [count]
    monkeypatch.setattr(numerics, "_openblas_thread_calls",
                        lambda: (lambda: counts[-1], counts.append))
    monkeypatch.setattr(numerics, "_usable_cores", lambda: 2)
    monkeypatch.setattr(numerics, "_worker_pool", no_pool)
    return counts


def one_block_network():
    """A recurrent 64-64 net on 2 classes and a batch of 128 rows: the
    batch, which scoring and a train step's passes split alike, is one
    512-row block of a 64-unit layer."""
    ds = dataset(True, 2, n=128)
    net = build_network([64, 64], ds.input_dim, 2, TIMESTEPS,
                        NeuronConfig(threshold=1.0, decay=0.9), RngStream(3),
                        recurrent=True)
    assert numerics.row_blocks(128, 64) == [slice(0, 128)]
    return net, held_out_batch(ds, 128)


def test_a_single_block_chunk_runs_inline(monkeypatch):
    """One block runs inline: no pool even with cores to spare, but with
    OpenBLAS on one thread, as split scoring."""
    counts = spy_blas(monkeypatch)
    net, batch = one_block_network()

    scores = label_goodness(net, batch)

    assert counts == [2, 1, 2]
    assert np.array_equal(scores, reference_scores(net, batch))


def test_inline_scoring_and_passes_run_on_one_blas_thread(monkeypatch):
    """Every call that runs GEMMs, inline too, sees OpenBLAS on one thread,
    and the previous count is back after scoring and after a train step."""
    counts = spy_blas(monkeypatch)
    seen = []  # the count at the start of each such call

    def noting(fn):
        def wrapper(*args):
            seen.append(counts[-1])
            return fn(*args)
        return wrapper

    monkeypatch.setattr(network, "_roll_out", noting(network._roll_out))
    for name in ("forward_train", "layer_backward"):
        monkeypatch.setattr(trainer, name, noting(getattr(trainer, name)))
    net, batch = one_block_network()

    label_goodness(net, batch)
    assert seen == [1] and counts[-1] == 2

    train_step(net, batch, TrainConfig(epochs=1, batch_size=128), RngStream(4))
    # one scoring rollout, then per layer its two forwards and its two
    # backward calls
    assert seen == [1] * 10 and counts[-1] == 2


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
    monkeypatch.setattr(numerics, "_usable_cores", lambda: 2)
    monkeypatch.setattr(numerics, "BLOCK_ELEMENTS", 14)
    net, ds = trained_network("subtract", False, False, False, 2)
    batch = held_out_batch(ds, 24)
    scores = label_goodness(net, batch)  # the parent's pool now runs
    assert numerics._pool is not None

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


# ---------------------------------------------------------------------------
# a dataset scored in shares: `predictor.score_dataset`
# ---------------------------------------------------------------------------


@pytest.fixture
def pool(monkeypatch):
    """A pool of three threads in place of the package's; yields it and a
    setter of the usable cores. The test nets' batches of 16 are one row
    block, so `label_goodness` scores each inline and a dataset of more
    than one batch is scored in shares."""
    if numerics._openblas_thread_calls() is None:
        pytest.skip("no OpenBLAS thread-count setter: scoring runs inline")
    recording = RecordingPool(3)
    monkeypatch.setattr(numerics, "_worker_pool", lambda: recording)
    yield recording, lambda cores: monkeypatch.setattr(
        numerics, "_usable_cores", lambda: cores)
    recording.pool.shutdown()


SHARE_GRID = [
    # (recurrent, temporal, usable cores, samples, shares) at batch size 16
    (False, False, 2, 50, 2),  # batches of 8, the last of 2
    (True, True, 2, 50, 2),
    (False, True, 2, 20, 2),  # fewer samples than workers x batch
    (True, False, 3, 50, 3),  # batches of 6: shares of 18, 18 and 14
    (True, True, 4, 40, 3),  # no more shares than the 3 batches
    (False, False, 2, 10, 1),  # one batch: no share runs on the pool
]


@pytest.mark.parametrize(
    "recurrent,temporal,cores,n,expected", SHARE_GRID,
    ids=[f"{'rec' if rc else 'ff'}-{'temporal' if t else 'static'}-c{c}-n{n}"
         for rc, t, c, n, _ in SHARE_GRID],
)
def test_shares_give_the_scores_of_batches_in_turn(
    pool, recurrent, temporal, cores, n, expected
):
    recording, set_cores = pool
    net, _ = trained_network("subtract", True, recurrent, temporal, 10)
    ds = dataset(temporal, 10, n=n, seed=9)
    results = {}
    for count in (1, cores):
        set_cores(count)
        recording.clear()
        rows_before = net.eval_rows
        results[count] = score_dataset(net, ds, 16), evaluate(net, ds, 16)
        assert net.eval_rows - rows_before == 2 * 10 * n
        assert recording.submitted == (2 * (expected - 1) if count > 1 else 0)

    (inline, inline_acc), (shared, shared_acc) = results[1], results[cores]
    assert shared.scores.tobytes() == inline.scores.tobytes()
    assert np.array_equal(shared.predicted, inline.predicted)
    assert shared_acc == inline_acc
    assert np.array_equal(shared.scores, reference_scores(net, held_out_batch(ds, n)))
    assert np.ptp(shared.scores) > 0


def noting_shares(monkeypatch, before=None):
    """Note each finished `_score_share` call: (thread, samples, batch
    size). `before(thread)` runs ahead of the call."""
    calls = []
    real = predictor._score_share

    def score_share(net, share, batch_size, out):
        if before is not None:
            before(threading.get_ident())
        real(net, share, batch_size, out)
        calls.append((threading.get_ident(), share.num_samples, batch_size))

    monkeypatch.setattr(predictor, "_score_share", score_share)
    return calls


def test_a_narrow_nets_shares_run_on_distinct_threads(pool, monkeypatch):
    _, set_cores = pool
    set_cores(2)
    calls = noting_shares(monkeypatch)
    net, _ = trained_network("subtract", False, True, True, 10)
    ds = dataset(True, 10, n=40, seed=9)

    score_dataset(net, ds, 16)

    threads = [thread for thread, _, _ in calls]
    assert len(set(threads)) == 2 and threading.get_ident() in threads
    assert sorted((n, b) for _, n, b in calls) == [(16, 8), (24, 8)]


def test_a_500_wide_net_scores_in_one_share(pool, monkeypatch):
    """256 samples of a 500-unit layer are four row blocks, so
    `label_goodness` splits each batch, and the batches run in turn."""
    recording, set_cores = pool
    set_cores(2)
    calls = noting_shares(monkeypatch)
    ds = dataio.make_blob_dataset(300, input_dim=16, class_count=3, seed=0)
    net = build_network([500], ds.input_dim, 3, 4,
                        NeuronConfig(threshold=1.0, decay=0.9), RngStream(1))
    net.layers[0].batches_tracked = 1

    score_dataset(net, ds)

    assert calls == [(threading.get_ident(), 300, 256)]
    # the second range of the first batch; the last, of 44, is one block
    assert recording.submitted == 1


@pytest.mark.parametrize("failing", ["calling", "pool"])
def test_an_error_in_either_share_is_raised_after_both_stop(
    pool, monkeypatch, failing
):
    _, set_cores = pool
    set_cores(2)
    caller = threading.get_ident()

    def fail_or_wait(thread):
        if (thread == caller) == (failing == "calling"):
            raise NumericError(f"the {failing} thread's share failed")
        time.sleep(0.2)

    calls = noting_shares(monkeypatch, fail_or_wait)
    net, ds = trained_network("subtract", False, False, False, 2)
    get = numerics._openblas_thread_calls()[0]
    with blas_threads(2):  # a known count that is not the pinned one
        with pytest.raises(NumericError, match=f"the {failing} thread's"):
            evaluate(net, ds, 16)
        assert get() == 2
    assert len(calls) == 1 and (calls[0][0] == caller) == (failing == "pool")


def test_shares_count_every_row_when_they_interleave(pool):
    """Four shares on three pool threads and the calling one, more threads
    than cores, switching as often as they can: every row is counted and
    every score lands in its sample's row."""
    recording, set_cores = pool
    net, _ = trained_network("subtract", False, True, False, 10)
    ds = dataset(False, 10, n=64, seed=9)
    set_cores(1)
    inline = score_dataset(net, ds, 16)
    set_cores(4)
    recording.clear()
    rows_before = net.eval_rows
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        shared = score_dataset(net, ds, 16)
    finally:
        sys.setswitchinterval(interval)

    assert recording.submitted == 3
    assert net.eval_rows - rows_before == 10 * 64
    assert shared.scores.tobytes() == inline.scores.tobytes()
