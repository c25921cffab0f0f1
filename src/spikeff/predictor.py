"""Inference by label scoring.

Every candidate class is overlaid on the input, the frozen network is run in
eval mode, per-layer goodness values are summed (all layers contribute,
including the first), and the argmax wins. Ties break to the lowest class id.

A dataset is scored in batches (`score_dataset`, which `evaluate` and the
CLI's `predict` share). Where `label_goodness` splits a batch over the usable
cores, the batches are scored one after another. Where it cannot (a batch is
one row block of the widest layer, such as the CLI's default `[100, 100]`
net's), the dataset is cut into one contiguous share per core, scored at once
in smaller batches, so a narrow network too evaluates on every core.
"""

import functools
from dataclasses import dataclass, replace

import numpy as np

from .dataio import Dataset, SampleBatch, batch_count, iter_batches
from .errors import UsageError
from .network import FFNetwork, label_goodness
from .numerics import run_all, worker_count, worker_ranges


@dataclass
class LabelScores:
    """Per-class total goodness and the resulting predictions for a batch
    or a dataset."""

    scores: np.ndarray  # (B, class_count)
    predicted: np.ndarray  # (B,)


def _check_stats(net: FFNetwork) -> None:
    if not net.stats_populated:
        raise UsageError(
            "normalization running statistics are unpopulated; "
            "train for at least one batch before scoring"
        )


def score_labels(net: FFNetwork, batch: SampleBatch) -> LabelScores:
    """Score every candidate label for each sample in the batch."""
    _check_stats(net)
    scores = label_goodness(net, batch)
    # np.argmax returns the first maximum: lowest class id on ties.
    return LabelScores(scores, np.argmax(scores, axis=1))


def _score_share(
    net: FFNetwork, share: Dataset, batch_size: int, out: LabelScores
) -> None:
    """Score one share's samples in order, into its rows of `out`."""
    lo = 0
    for batch in iter_batches(share, batch_size, shuffle=False):
        result = score_labels(net, batch)
        out.scores[lo : lo + batch.size] = result.scores
        out.predicted[lo : lo + batch.size] = result.predicted
        lo += batch.size


def score_dataset(
    net: FFNetwork, dataset: Dataset, batch_size: int = 256
) -> LabelScores:
    """Score every sample of the dataset, in order, by at most `batch_size`
    samples at a time.

    Where `numerics.worker_ranges(batch_size, widest)` splits a batch,
    `label_goodness` splits each one over the usable cores, and the
    batches are scored one after another. Where it gives one range but
    `numerics.worker_count()` is above one, the samples are cut into one
    contiguous share per worker, with no more workers than `batch_size`
    batches, and `numerics.run_all` scores the shares at once, each in
    batches of `ceil(batch_size / workers)` samples: the shares together
    hold at most one `batch_size` batch's scoring buffers, and each
    share's batches are one row block, scored inline. A sample's scores
    do not depend on its batch unless a deeper layer's GEMM row differs in
    its last bits and carries a membrane across the threshold (see
    `label_goodness`). Each share counts its rows on its own copy of the
    network's fields, added to `net.eval_rows` once every share has
    stopped. An empty dataset, unpopulated statistics and a `batch_size`
    below 1 are refused before any batch is scored.
    """
    n = dataset.num_samples
    if n == 0:
        raise UsageError("cannot score an empty dataset")
    _check_stats(net)
    batches = batch_count(n, batch_size)
    widest = max(layer.n_out for layer in net.layers)
    workers = 1
    if len(worker_ranges(batch_size, widest)) == 1:
        workers = min(worker_count(), batches)
    size = -(-batch_size // workers)  # samples a scored batch
    per = size * -(-batch_count(n, size) // workers)  # samples a share
    shares = [slice(lo, min(lo + per, n)) for lo in range(0, n, per)]
    views = [replace(net, eval_rows=0) for _ in shares]
    out = LabelScores(
        np.empty((n, net.class_count)), np.empty(n, dtype=np.intp)
    )
    run_all(
        [
            functools.partial(
                _score_share,
                view,
                replace(dataset, inputs=dataset.inputs[rows],
                        labels=dataset.labels[rows]),
                size,
                LabelScores(out.scores[rows], out.predicted[rows]),
            )
            for view, rows in zip(views, shares)
        ],
        len(shares),
    )
    net.eval_rows += sum(view.eval_rows for view in views)
    return out


def evaluate(net: FFNetwork, dataset: Dataset, batch_size: int = 256) -> float:
    """Fraction of samples whose predicted class equals the true label.

    The predictions are `score_dataset`'s: by `batch_size` batches in
    turn, or, for a net whose batch is one row block, by one share of the
    dataset per core, scored at once in smaller batches.
    """
    predicted = score_dataset(net, dataset, batch_size).predicted
    return int((predicted == dataset.labels).sum()) / dataset.num_samples
