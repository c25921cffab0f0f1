"""A stack of spiking layers with no output layer.

The forward interface between layers is the per-timestep spike train only;
spikes carry no gradient across the boundary, so every layer learns from its
own local objective. Inference and hard-label sampling score a batch by
summing per-layer goodness over all candidate label overlays.
"""

import functools
from dataclasses import dataclass, field
from typing import List, Sequence

import numpy as np

from .dataio import SampleBatch, embed_label, time_frames
from .errors import ConfigError, ShapeError
from .layer import (
    CHUNK_ELEMENTS,
    EvalRollout,
    SpikingLayer,
    check_finite,
    goodness,
    init_layer,
    layer_forward,
    overlay_correction,
    product,
)
from .neuron import NeuronConfig
from .numerics import RngStream, run_all, worker_ranges


@dataclass
class FFNetwork:
    """Layers, class count and the learning rate of every Adam update
    (`trainer.train` sets it per epoch); input width and timesteps are
    layer 0's."""

    layers: List[SpikingLayer]
    class_count: int
    lr: float = 1e-3
    eval_rows: int = field(default=0, compare=False)  # instrumentation counter

    @property
    def input_dim(self) -> int:
        return self.layers[0].n_in

    @property
    def timesteps(self) -> int:
        return self.layers[0].timesteps

    @property
    def widest(self) -> int:
        return max(layer.n_out for layer in self.layers)

    @property
    def stats_populated(self) -> bool:
        return all(layer.stats_populated for layer in self.layers)


def check_hidden_sizes(hidden_sizes: Sequence[int]) -> None:
    """Raise a ConfigError unless there is at least one hidden layer and
    every size is >= 1."""
    if not hidden_sizes or any(h < 1 for h in hidden_sizes):
        raise ConfigError(
            [f"hidden_sizes: need nonempty sizes >= 1, got {hidden_sizes}"]
        )


def build_network(
    hidden_sizes: Sequence[int],
    input_dim: int,
    class_count: int,
    timesteps: int,
    config: NeuronConfig,
    rng: RngStream,
    recurrent: bool = False,
    lr: float = 1e-3,
) -> FFNetwork:
    check_hidden_sizes(hidden_sizes)
    layers = []
    n_in = input_dim
    for i, n_out in enumerate(hidden_sizes):
        layers.append(
            init_layer(n_in, n_out, timesteps, config, rng.substream(i), recurrent)
        )
        n_in = n_out
    return FFNetwork(layers, class_count, lr)


def forward_train(layers: Sequence[SpikingLayer], frames: Sequence[np.ndarray]):
    """Train-mode pass through `layers` in order; returns one trace per layer.

    `layers` is a run of a network's layers: `net.layers` for a whole
    pass, or one layer, `net.layers[k:k+1]`, fed layer k-1's spikes, as a
    train step runs them. The layers are not changed: each trace carries
    its batch statistics, which the caller folds into the running ones
    (`fold_running_stats`). Each layer after the first consumes the
    previous one's spike train, its trace's stacked (T, B, n) bool
    `spikes` array, as its frames as it is.
    """
    return _forward(layers, frames, "train")


def _forward(layers: Sequence[SpikingLayer], frames, mode: str):
    """`layer_forward` of each layer in `mode`, on the previous one's spikes."""
    traces = []
    for layer in layers:
        traces.append(layer_forward(layer, frames, mode))
        frames = traces[-1].spikes
    return traces


def _check_width(net: FFNetwork, channels: int) -> None:
    if channels != net.input_dim:
        raise ShapeError(
            f"input frames have {channels} channels, "
            f"network expects {net.input_dim}"
        )


def _count_eval(net: FFNetwork, frames: Sequence[np.ndarray]) -> None:
    """Reject frames of the wrong width, then count the rows run in eval mode."""
    _check_width(net, frames[0].shape[1])
    net.eval_rows += frames[0].shape[0]


def forward_eval(net: FFNetwork, frames: Sequence[np.ndarray]):
    """Eval-mode pass (running statistics, no state mutation).

    This layer-by-layer pass returns each layer's full trace; it is the
    reference that `label_goodness`'s in-place rollout reproduces bit for
    bit.
    """
    _count_eval(net, frames)
    return _forward(net.layers, frames, "eval")


def _roll_out(rollouts, shared, rows: slice, total: np.ndarray) -> None:
    """One range of a batch's samples, scored under every overlay.

    `shared` is what every range reads: layer 0's base products (T_in, B,
    n_0), the samples' peaks and the overlays per chunk. Each chunk holds
    the range's samples under its labels, overlay-major: the samples under
    the chunk's first label, then under the next. Per chunk: one overlay
    correction per label (`overlay_correction`), added to the range's rows
    of the base products in one broadcast add, a reset of the range's
    rollouts, the rollout over every timestep and the goodness sums,
    written to `total[labels, rows]`. Layer 0's product of each row is the
    base product plus the correction, `product`'s two ops for an overlaid
    input. Everything else it writes was allocated beforehand, so the
    ranges of a call run at once.
    """
    z_base, peak, per_chunk = shared
    first_roll = rollouts[0]
    weights = first_roll.layer.weights
    static = len(z_base) == 1
    size = rows.stop - rows.start
    corrections = np.empty((per_chunk, size, len(weights)), weights.dtype)
    peak = peak[rows]
    for lo in range(0, len(total), per_chunk):
        labels = range(lo, min(lo + per_chunk, len(total)))
        correction = corrections[: len(labels)]
        for roll in rollouts:
            roll.reset(len(labels) * size)
        for k, label in enumerate(labels):
            overlay_correction(weights, peak, label, out=correction[k])
        # a static input's one product serves every timestep: it is written
        # over the correction
        z = correction if static else first_roll.drive.reshape(correction.shape)
        for t in range(first_roll.layer.timesteps):
            if t == 0 or not static:
                np.add(z_base[0 if static else t][rows], correction, out=z)
                check_finite(z, t)
            x = first_roll.step(t, z.reshape(-1, z.shape[-1]))
            for roll in rollouts[1:]:
                product(x, roll.layer.weights, t, roll.drive)
                x = roll.step(t, roll.drive)
        out = total[labels.start : labels.stop, rows]
        for roll in rollouts:
            out += goodness(roll).reshape(out.shape)


def label_goodness(net: FFNetwork, batch: SampleBatch) -> np.ndarray:
    """Total goodness per candidate class: (B, class_count).

    Every overlay of a batch shares its base rows (`embed_label`), so
    layer 0's product of an overlay is the base rows' product plus the
    overlay's correction (`product`). A plain batch is overlaid here, one
    base copy; an overlaid one (a train step's) is scored from its base
    rows as it is, whatever its labels. The base rows' product is taken
    once per call, one B-row GEMM per input timestep of their
    `time_frames` view, on the calling thread; then the class_count
    overlays are scored in eval-mode rollouts over chunks of whole
    overlays, at most about `CHUNK_ELEMENTS` rows x n_out each, that reuse
    one set of buffers. Eval normalization uses running statistics only,
    so this equals the goodness sums of one `forward_eval` per overlay bit
    for bit. Each rollout is timestep-major and in place: at each t every
    layer advances one step on the previous layer's spikes, and only one
    step of state per layer is live.

    The batch's samples are split into `numerics.worker_ranges` of the
    widest layer, the split a train step makes of the same batch. Each
    range has its own rollouts, for its samples under a chunk's overlays:
    together they hold a chunk's rows. `numerics.run_all` runs each
    range's samples under every overlay (`_roll_out`: corrections, reset,
    rollout and goodness sums) with OpenBLAS on one thread, the first on
    the calling thread and the others on its pool. The calling thread
    makes the base rows (of a plain batch), the buffers and the base
    products first. One range (one core, a batch of one row block, or no
    BLAS thread setter) runs inline, with no pool, but still pinned, so
    scores do not depend on the BLAS thread count.

    A row's elementwise steps do not depend on the other rows of its range,
    but its GEMM result can: OpenBLAS blocks a call by its row count, so a
    row's product in a range's GEMM can differ in the last bits from the
    same row's in a whole chunk's GEMM, even on one thread (36 of 2560 rows
    of a 2560x500 @ 500x500 product split into 256-row calls, by at most
    3e-16 of the largest product). Layer 0's base product is the B-row
    GEMM that `forward_eval` takes, but the products of deeper layers are
    range GEMMs. A score is a sum of squared integer spike counts, so such
    a difference moves it only where it moves a membrane across the
    threshold. The tests require split scores to equal the per-overlay
    `forward_eval` reference exactly; perfbench's gate allows 1e-9. Every
    buffer, the scores included, is in the weights' dtype.
    """
    c, b = net.class_count, batch.size
    first = net.layers[0]
    dtype = first.weights.dtype
    _check_width(net, batch.input_dim)
    if batch.overlay_max is None:
        batch = embed_label(batch, batch.labels, c)  # the batch's one base copy
    # timestep t's base frame, a view of the sample-major base rows
    frames = time_frames(batch.inputs, batch.input_dim, batch.timesteps, net.timesteps)
    if b == 0:
        return np.zeros((0, c), dtype)
    net.eval_rows += c * b
    per_chunk = min(c, max(1, CHUNK_ELEMENTS // (b * net.widest)))
    ranges = worker_ranges(b, net.widest)
    rollouts = [
        [EvalRollout(layer, per_chunk * (r.stop - r.start)) for layer in net.layers]
        for r in ranges
    ]
    z_base = np.empty((batch.timesteps, b, first.n_out), dtype)

    def base_products():
        for t in range(batch.timesteps):
            product(frames[t], first.weights, t, z_base[t])

    shared = z_base, batch.overlay_max, per_chunk
    total = np.zeros((c, b), dtype)
    run_all(
        [functools.partial(_roll_out, rolls, shared, r, total)
         for r, rolls in zip(ranges, rollouts)],
        len(ranges),
        before=base_products,
    )
    return total.T
