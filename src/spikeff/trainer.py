"""Forward-forward training loop.

Per mini-batch: overlay the true labels (positive variant), sample hard
negative labels from the network's own per-class goodness, and take the
same overlaid rows under those labels (negative variant). Then each layer,
first to last, runs its train-mode forward on both variants and is updated
locally from the contrastive loss on its goodness pair before the next
layer runs. Layer k+1 consumes the spikes that layer k made with its
pre-update weights, so the updates are those of one whole forward followed
by local updates, while a step holds only one layer's traces at a time.
"""

import functools
import time
from dataclasses import dataclass, replace
from typing import Callable, List, Optional

import numpy as np

from . import predictor
from .dataio import Dataset, SampleBatch, embed_label, iter_batches
from .errors import ConfigError, NumericError, UsageError
from .layer import fold_running_stats, goodness, layer_backward
from .network import FFNetwork, forward_train, label_goodness
from .numerics import RngStream, adam_update, run_all, worker_ranges

LOSS_DIVERGENCE_LIMIT = 1e6

# rng substream keys of a run's root stream: weight init (drawn by
# `cli.build_from_config`), then each epoch's shuffle and negative labels
KEY_INIT = 100
KEY_SHUFFLE = 101
KEY_NEGATIVES = 102


@dataclass
class TrainConfig:
    epochs: int
    batch_size: int = 4096
    lr: float = 1e-3
    lr_milestones: Optional[List[int]] = None  # default: 50% and 75% of epochs
    lr_factors: Optional[List[float]] = None  # default: 0.3 at each milestone
    loss_sharpness: float = 0.6
    seed: int = 0
    eval_every: int = 1  # 0 = only after the final epoch

    def __post_init__(self):
        bad = []
        if self.epochs < 0:
            bad.append(f"epochs: must be >= 0, got {self.epochs}")
        if self.batch_size < 2:
            bad.append(f"batch_size: must be >= 2, got {self.batch_size}")
        if not self.lr > 0:
            bad.append(f"lr: must be > 0, got {self.lr}")
        milestones, factors = self.lr_milestones, self.lr_factors
        if (milestones is None) != (factors is None) or (
            len(milestones or ()) != len(factors or ())
        ):
            bad.append("lr_milestones/lr_factors: must be given together, same length")
        if not all(factor > 0 for factor in factors or ()):
            bad.append(f"lr_factors: must be > 0, got {factors}")
        if not self.loss_sharpness > 0:
            bad.append(f"loss_sharpness: must be > 0, got {self.loss_sharpness}")
        if self.eval_every < 0:
            bad.append(f"eval_every: must be >= 0, got {self.eval_every}")
        if bad:
            raise ConfigError(bad)


@dataclass
class EpochMetrics:
    epoch: int
    layer_losses: List[float]
    total_loss: float
    train_accuracy: Optional[float]
    test_accuracy: Optional[float]
    seconds: float
    layer_goodness_pos: List[float]
    layer_goodness_neg: List[float]

    def __post_init__(self):
        for acc in (self.train_accuracy, self.test_accuracy):
            if acc is not None and not 0.0 <= acc <= 1.0:
                raise ValueError(f"accuracy out of [0, 1]: {acc}")


def _stable_neg_sigmoid(x: np.ndarray) -> np.ndarray:
    """sigmoid(-x) without overflow for any x."""
    out = np.empty_like(x)
    pos = x >= 0
    e = np.exp(-x[pos])
    out[pos] = e / (1.0 + e)
    out[~pos] = 1.0 / (1.0 + np.exp(x[~pos]))
    return out


def ff_loss(g_pos: np.ndarray, g_neg: np.ndarray, alpha: float):
    """Contrastive loss on a goodness pair.

    Per sample, with x = alpha * (g_pos - g_neg):
        loss = -x / (1 + exp(x)) = -x * sigmoid(-x)
    grows linearly for very negative margins and decays to zero for large
    positive ones. Returns the batch-mean loss and analytic gradients with
    respect to both goodness vectors (dL/dg_neg = -dL/dg_pos per sample),
    in the goodness' dtype, the network's compute dtype.
    """
    g_pos = np.asarray(g_pos)
    g_neg = np.asarray(g_neg)
    if g_pos.shape != g_neg.shape:
        raise ValueError(f"goodness shapes differ: {g_pos.shape} vs {g_neg.shape}")
    if not alpha > 0:
        raise ValueError("alpha must be > 0")
    x = alpha * (g_pos - g_neg)
    s = _stable_neg_sigmoid(x)
    per_sample = -x * s
    # d(per_sample)/d(delta) = alpha * (-s + x * s * (1 - s))
    d_delta = alpha * (-s + x * s * (1.0 - s))
    batch = g_pos.shape[0]
    d_pos = d_delta / batch
    return float(per_sample.mean()), d_pos, -d_pos


def sample_hard_labels(
    net: FFNetwork, batch: SampleBatch, rng: RngStream
) -> np.ndarray:
    """Draw one confusable wrong label per sample.

    Per sample: total per-class goodness (all layers, eval-mode forward),
    true-label score forced to zero, square root applied to flatten the
    distribution, normalized, then one draw. If every non-true score is
    zero the draw is uniform over the false labels. The true label is
    structurally unreachable: the draw runs over the false classes only.
    `batch` is plain, or overlaid with its true labels (`embed_label`),
    which scoring reads as it is.
    """
    c = net.class_count
    if c < 2:
        raise UsageError("hard-label sampling needs at least 2 classes")
    scores = label_goodness(net, batch)
    b = batch.size
    rows = np.arange(b)
    scores[rows, batch.labels] = 0.0
    weights = np.sqrt(scores)
    # drop the true-label column; false_idx maps column j back to a class id
    keep = np.ones((b, c), dtype=bool)
    keep[rows, batch.labels] = False
    false_weights = weights[keep].reshape(b, c - 1)
    totals = false_weights.sum(axis=1, keepdims=True)
    degenerate = totals[:, 0] == 0.0
    false_weights[degenerate] = 1.0
    totals[degenerate] = float(c - 1)
    cum = np.cumsum(false_weights / totals, axis=1)
    draws = rng.uniform(b)
    col = np.minimum((cum <= draws[:, None]).sum(axis=1), c - 2)
    return col + (col >= batch.labels)


def lr_schedule(epoch: int, config: TrainConfig) -> float:
    """Piecewise-constant learning rate; factor applied once per passed milestone."""
    milestones, factors = config.lr_milestones, config.lr_factors
    if milestones is None:  # and so are the factors (`TrainConfig`)
        # never before epoch 1: a one-epoch run's 50% rounds (half to even) to 0
        milestones = [max(1, int(round(f * config.epochs))) for f in (0.5, 0.75)]
        factors = [0.3, 0.3]
    lr = config.lr
    for milestone, factor in zip(milestones, factors):
        if epoch >= milestone:
            lr *= factor
    return lr


def train_step(
    net: FFNetwork,
    batch: SampleBatch,
    config: TrainConfig,
    neg_rng: RngStream,
    *,
    epoch: int = 0,
    batch_index: int = 0,
):
    """One mini-batch: hard negatives, then each layer's forward and update.

    The batch is overlaid once (`embed_label`, one copy of its base rows):
    hard-negative scoring reads that copy, and so do both passes, framed
    without a copy (`SampleBatch.frames`). The negative variant is the
    same batch with the negative labels (`dataclasses.replace`).

    Forward-forward needs no activations kept for a backward pass through
    the stack, so the step finishes each layer before the next one's
    forward. For layer k, in order: both passes' train forward
    (`forward_train` of `net.layers[k:k+1]`), the fold of the positive
    pass's batch statistics and then the negative pass's into the running
    ones, the goodness pair, `ff_loss` and its divergence check, both
    passes' `layer_backward`, the drop of layer k's traces (their bool
    `spikes` stay, as layer k+1's input), the Adam update at `net.lr` and
    the drop of the gradients. Layer k+1 reads spikes made by layer k's
    pre-update weights, and no layer's weights or statistics move before
    its own update, so the result is that of both whole forwards followed
    by the updates, bit for bit; a step holds one layer's traces, not every
    layer's. The base rows go with layer 0's traces.

    The positive and negative passes are independent until the Adam
    update, so a layer's two forwards run at once, and then its two
    backward calls (`numerics.run_all`: the positive pass on the calling
    thread, the negative one on the pool). They run in turn instead where
    `numerics.worker_ranges` gives the batch one range: on one usable
    core, without a BLAS thread setter, or where the batch is one row
    block of the widest layer. Every GEMM of the step, scoring included,
    runs inside `run_all` with OpenBLAS on one thread, so every bit of the
    step is the same on any host and at any BLAS thread count (where no
    thread setter is found, BLAS runs as it is).

    Returns per-layer arrays of the mean loss and of the summed positive and
    negative goodness. The passes' traces live only in this call and are
    all freed before the next batch's scoring allocates its buffers.
    Raises a NumericError naming the layer and batch if a loss diverges.
    A NumericError raised in layer k (a diverged loss, or a non-finite
    value in its forward or backward) leaves layers 0..k-1 folded and
    updated by this batch, and layer k and those above it as they were.
    """
    n_layers = len(net.layers)
    losses, gpos, gneg = np.zeros(n_layers), np.zeros(n_layers), np.zeros(n_layers)
    # Passes of one row block each run in turn: at that size two threads
    # would mostly wait on each other for the interpreter lock.
    workers = len(worker_ranges(batch.size, net.widest))
    positive = embed_label(batch, batch.labels, net.class_count)
    negative = replace(positive, labels=sample_hard_labels(net, positive, neg_rng))
    inputs = [variant.frames(net.timesteps) for variant in (positive, negative)]
    del positive, negative  # the frames alone hold the base rows
    for k, layer in enumerate(net.layers):
        (pos,), (neg,) = run_all(
            [functools.partial(forward_train, net.layers[k : k + 1], x)
             for x in inputs],
            workers,
        )
        inputs = None  # the traces alone hold the layer's inputs
        fold_running_stats(layer, pos)
        fold_running_stats(layer, neg)
        g_pos, g_neg = goodness(pos), goodness(neg)
        loss, d_pos, d_neg = ff_loss(g_pos, g_neg, config.loss_sharpness)
        if not np.isfinite(loss) or abs(loss) > LOSS_DIVERGENCE_LIMIT:
            raise NumericError(
                f"training diverged: layer {k} mean loss {loss} "
                f"at epoch {epoch}, batch {batch_index}"
            )
        grads_pos, grads_neg = run_all(
            [functools.partial(layer_backward, layer, pos, d_pos),
             functools.partial(layer_backward, layer, neg, d_neg)],
            workers,
        )
        inputs = [pos.spikes, neg.spikes]  # layer k+1's frames
        del pos, neg  # freed before Adam allocates
        for name, tensor in layer.trainable_tensors().items():
            grad = grads_pos[name] + grads_neg[name]
            adam_update(tensor, grad, layer.adam[name], net.lr, f"layer{k}.{name}")
        del grads_pos, grads_neg, grad, tensor  # freed before the next forward
        losses[k] = loss
        gpos[k] = g_pos.sum()
        gneg[k] = g_neg.sum()
    return losses, gpos, gneg


def train_epoch(
    net: FFNetwork,
    dataset: Dataset,
    config: TrainConfig,
    rng: RngStream,
    *,
    epoch: int = 0,
    eval_dataset: Optional[Dataset] = None,
) -> EpochMetrics:
    """One pass over the shuffled dataset, one `train_step` per batch.

    `rng` must be the stream devoted to this training run; shuffling and
    negative-label draws consume from substreams so runs replay exactly.
    Aborts with a NumericError naming the layer and batch if any layer's
    loss diverges. Accuracy fields are filled per `config.eval_every`.
    """
    start = time.perf_counter()
    shuffle_rng = rng.substream(KEY_SHUFFLE, epoch)
    neg_rng = rng.substream(KEY_NEGATIVES, epoch)
    n_layers = len(net.layers)
    loss_sums = np.zeros(n_layers)
    gpos_sums = np.zeros(n_layers)
    gneg_sums = np.zeros(n_layers)
    sample_total = 0

    for batch_index, batch in enumerate(
        iter_batches(dataset, config.batch_size, shuffle_rng)
    ):
        if batch.size < 2:
            continue  # batch variance needs >= 2 rows
        losses, gpos, gneg = train_step(
            net, batch, config, neg_rng, epoch=epoch, batch_index=batch_index
        )
        loss_sums += losses * batch.size
        gpos_sums += gpos
        gneg_sums += gneg
        sample_total += batch.size

    denom = max(sample_total, 1)
    train_acc = test_acc = None
    is_last = epoch == config.epochs - 1
    if is_last or (config.eval_every > 0 and epoch % config.eval_every == 0):
        train_acc = predictor.evaluate(net, dataset)
        if eval_dataset is not None:
            test_acc = predictor.evaluate(net, eval_dataset)

    return EpochMetrics(
        epoch=epoch,
        layer_losses=[float(v) for v in loss_sums / denom],
        total_loss=float(loss_sums.sum() / denom),
        train_accuracy=train_acc,
        test_accuracy=test_acc,
        seconds=time.perf_counter() - start,
        layer_goodness_pos=[float(v) for v in gpos_sums / denom],
        layer_goodness_neg=[float(v) for v in gneg_sums / denom],
    )


def train(
    net: FFNetwork,
    dataset: Dataset,
    config: TrainConfig,
    eval_dataset: Optional[Dataset] = None,
    on_epoch: Optional[Callable[[EpochMetrics], None]] = None,
) -> List[EpochMetrics]:
    """Run the full schedule, each epoch's updates at its `lr_schedule`
    rate (`net.lr`); returns one EpochMetrics per epoch."""
    rng = RngStream(config.seed)
    history: List[EpochMetrics] = []
    for epoch in range(config.epochs):
        net.lr = lr_schedule(epoch, config)
        metrics = train_epoch(
            net, dataset, config, rng, epoch=epoch, eval_dataset=eval_dataset
        )
        history.append(metrics)
        if on_epoch is not None:
            on_epoch(metrics)
    return history


# ---------------------------------------------------------------------------
# metrics stream (CSV):
# epoch, per-layer loss, total loss, train_acc, test_acc,
# per-layer mean positive goodness, per-layer mean negative goodness.
# Wall-clock seconds live in the summary JSON so reruns with the same seed
# produce byte-identical CSVs.
# ---------------------------------------------------------------------------


def metrics_csv_header(n_layers: int) -> str:
    cols = ["epoch"]
    cols += [f"loss_layer{i}" for i in range(n_layers)]
    cols += ["loss_total", "train_acc", "test_acc"]
    cols += [f"gpos_layer{i}" for i in range(n_layers)]
    cols += [f"gneg_layer{i}" for i in range(n_layers)]
    return ",".join(cols)


def metrics_csv_row(m: EpochMetrics) -> str:
    def fmt(value) -> str:
        return "" if value is None else repr(float(value))

    cells = [str(m.epoch)]
    cells += [fmt(v) for v in m.layer_losses]
    cells += [fmt(m.total_loss), fmt(m.train_accuracy), fmt(m.test_accuracy)]
    cells += [fmt(v) for v in m.layer_goodness_pos]
    cells += [fmt(v) for v in m.layer_goodness_neg]
    return ",".join(cells)
