"""Forward-forward training loop.

Per mini-batch: overlay true labels (positive variant), sample hard negative
labels from the network's own per-class goodness, overlay them (negative
variant), run one train-mode forward per variant, then update every layer
locally from the contrastive loss on its goodness pair. Layers are processed
first to last within the batch; each consumes the upstream spikes produced
by pre-update weights (one forward, then local updates).
"""

import time
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from . import predictor
from .dataio import Dataset, SampleBatch, embed_label, iter_batches
from .errors import ConfigError, NumericError, UsageError
from .layer import goodness, layer_backward
from .network import FFNetwork, forward_train, label_goodness
from .numerics import RngStream, adam_update

LOSS_DIVERGENCE_LIMIT = 1e6

# rng substream keys (weight init uses the bare root stream)
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
    respect to both goodness vectors (dL/dg_neg = -dL/dg_pos per sample).
    """
    g_pos = np.asarray(g_pos, dtype=np.float64)
    g_neg = np.asarray(g_neg, dtype=np.float64)
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
    milestones = config.lr_milestones
    if milestones is None:
        milestones = [
            int(round(0.5 * config.epochs)),
            int(round(0.75 * config.epochs)),
        ]
    factors = config.lr_factors
    if factors is None:
        factors = [0.3] * len(milestones)
    if len(factors) != len(milestones):
        raise ValueError("lr_factors must pair up with lr_milestones")
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
    """One mini-batch: hard negatives, both train passes, layer-local updates.

    Returns per-layer arrays of the mean loss and of the summed positive and
    negative goodness. The passes' traces live only in this call: each
    layer's are dropped once its gradients are taken, and all are freed
    before the next batch's scoring allocates its buffers.
    Raises a NumericError naming the layer and batch if a loss diverges.
    """
    n_layers = len(net.layers)
    losses, gpos, gneg = np.zeros(n_layers), np.zeros(n_layers), np.zeros(n_layers)
    c, steps = net.class_count, net.timesteps
    neg_labels = sample_hard_labels(net, batch, neg_rng)
    # Overlays stay unbound: a temporal variant's one copy is its frames.
    pos_traces = forward_train(net, embed_label(batch, batch.labels, c).frames(steps))
    neg_traces = forward_train(net, embed_label(batch, neg_labels, c).frames(steps))

    for k, layer in enumerate(net.layers):
        g_pos = goodness(pos_traces[k])
        g_neg = goodness(neg_traces[k])
        loss, d_pos, d_neg = ff_loss(g_pos, g_neg, config.loss_sharpness)
        if not np.isfinite(loss) or abs(loss) > LOSS_DIVERGENCE_LIMIT:
            raise NumericError(
                f"training diverged: layer {k} mean loss {loss} "
                f"at epoch {epoch}, batch {batch_index}"
            )
        grads_pos = layer_backward(layer, pos_traces[k], d_pos)
        grads_neg = layer_backward(layer, neg_traces[k], d_neg)
        pos_traces[k] = neg_traces[k] = None  # freed before Adam allocates
        for name, tensor in layer.trainable_tensors().items():
            grad = grads_pos[name] + grads_neg[name]
            layer.set_tensor(
                name,
                adam_update(tensor, grad, layer.adam[name], f"layer{k}.{name}"),
            )
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
    """Run the full schedule; returns one EpochMetrics per epoch."""
    rng = RngStream(config.seed)
    history: List[EpochMetrics] = []
    for epoch in range(config.epochs):
        net.set_lr(lr_schedule(epoch, config))
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
