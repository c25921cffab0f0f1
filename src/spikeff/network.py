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
    goodness,
    init_layer,
    layer_forward,
    product,
)
from .neuron import NeuronConfig
from .numerics import RngStream, run_all, worker_ranges


@dataclass
class FFNetwork:
    layers: List[SpikingLayer]
    class_count: int
    input_dim: int
    timesteps: int
    eval_rows: int = field(default=0, compare=False)  # instrumentation counter

    @property
    def stats_populated(self) -> bool:
        return all(layer.stats_populated for layer in self.layers)

    def set_lr(self, lr: float) -> None:
        for layer in self.layers:
            layer.set_lr(lr)


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
    if not hidden_sizes or any(h < 1 for h in hidden_sizes):
        raise ConfigError(
            [f"hidden_sizes: need nonempty sizes >= 1, got {hidden_sizes}"]
        )
    layers = []
    n_in = input_dim
    for i, n_out in enumerate(hidden_sizes):
        layers.append(
            init_layer(
                n_in, n_out, timesteps, config, rng.substream(i), recurrent, lr
            )
        )
        n_in = n_out
    return FFNetwork(layers, class_count, input_dim, timesteps)


def forward_train(net: FFNetwork, frames: Sequence[np.ndarray]):
    """Train-mode pass through every layer; returns one trace per layer.

    The layers are not changed: each trace carries its batch statistics,
    which the caller folds into the running ones (`fold_running_stats`).
    Layer k+1 consumes layer k's spike train produced by the pre-update
    weights of the same pass (one forward, then local updates): the trace's
    stacked (T, B, n) bool `spikes` array is its frames as it is.
    """
    traces = []
    x = frames
    for layer in net.layers:
        trace = layer_forward(layer, x, "train")
        traces.append(trace)
        x = trace.spikes
    return traces


def _count_eval(net: FFNetwork, frames: Sequence[np.ndarray]) -> None:
    """Reject frames of the wrong width, then count the rows run in eval mode."""
    if frames[0].shape[1] != net.input_dim:
        raise ShapeError(
            f"input frames have {frames[0].shape[1]} channels, "
            f"network expects {net.input_dim}"
        )
    net.eval_rows += frames[0].shape[0]


def forward_eval(net: FFNetwork, frames: Sequence[np.ndarray]):
    """Eval-mode pass (running statistics, no state mutation).

    This layer-by-layer pass returns each layer's full trace; it is the
    reference that `label_goodness`'s in-place rollout reproduces bit for
    bit.
    """
    _count_eval(net, frames)
    traces = []
    x = frames
    for layer in net.layers:
        trace = layer_forward(layer, x, "eval")
        traces.append(trace)
        x = trace.spikes
    return traces


def _roll_out(rollouts, frames, rows: slice, z_shared) -> None:
    """Advance one row range's rollouts over every timestep.

    Only products and steps, into buffers allocated beforehand: this is
    the part of scoring that runs off the calling thread. `z_shared`, when
    given, receives the range's one layer-0 product of a static input.
    """
    if z_shared is not None:
        product(frames[0][rows], rollouts[0].layer.weights, 0, z_shared[rows])
    for t, frame in enumerate(frames):
        x = frame[rows]
        for k, roll in enumerate(rollouts):
            if k == 0 and z_shared is not None:
                z = z_shared[rows]
            else:
                z = roll.drive
                product(x, roll.layer.weights, t, z)
            x = roll.step(t, z)


def label_goodness(net: FFNetwork, batch: SampleBatch) -> np.ndarray:
    """Total goodness per candidate class: (B, class_count).

    The class_count overlays of the batch are scored in eval-mode rollouts
    over chunks of whole overlays, at most about `CHUNK_ELEMENTS` rows x
    n_out each, that reuse one set of buffers. Eval normalization uses
    running statistics only, so this equals the goodness sums of one
    `forward_eval` per overlay bit for bit. Each rollout is timestep-major
    and in place: at each t every layer advances one step on the previous
    layer's spikes, and only one step of state per layer is live.

    A chunk's rows are split into `numerics.worker_ranges` of the widest
    layer, each with its own rollouts: together they hold a chunk's rows.
    `numerics.run_all` rolls the ranges out with OpenBLAS on one thread,
    the first on the calling thread and the others on its pool. Only the
    products and steps run off the calling thread; overlays, buffers and
    goodness are made on it. One range (one core, one block in a chunk, or
    no BLAS thread setter) runs inline, with no pool, but still pinned, so
    scores do not depend on the BLAS thread count.

    A row's elementwise steps do not depend on the other rows of its range,
    but its GEMM result can: OpenBLAS blocks a call by its row count, so a
    row's product in a range's GEMM can differ in the last bits from the
    same row's in a whole chunk's GEMM, even on one thread (36 of 2560 rows
    of a 2560x500 @ 500x500 product split into 256-row calls, by at most
    3e-16 of the largest product). A score is a sum of squared integer
    spike counts, so such a difference moves it only where it moves a
    membrane across the threshold. The tests require split scores to equal
    the per-overlay `forward_eval` reference exactly; perfbench's gate
    allows 1e-9.
    """
    c, b = net.class_count, batch.size
    d, t_in = batch.input_dim, batch.timesteps
    time_frames(batch.inputs[:0], d, t_in, net.timesteps)  # checks the run length
    widest = max(layer.n_out for layer in net.layers)
    per_chunk = min(c, max(1, CHUNK_ELEMENTS // max(1, b * widest)))
    chunk_rows = per_chunk * b
    ranges = worker_ranges(chunk_rows, widest)
    rollouts = [
        [EvalRollout(layer, r.stop - r.start) for layer in net.layers]
        for r in ranges
    ]
    # reused, laid out as time_frames does
    frame_rows = np.empty((t_in, chunk_rows, d))
    # Static data repeats one frame object T times: one layer-0 product.
    z_shared = None if t_in > 1 else np.empty((chunk_rows, net.layers[0].n_out))
    total = np.zeros(c * b)
    for first in range(0, c, per_chunk):
        labels = range(first, min(first + per_chunk, c))
        rows = len(labels) * b
        chunk = frame_rows[:, :rows]
        for j, y in enumerate(labels):  # one unbound overlay alive at a time
            chunk[:, j * b : (j + 1) * b] = embed_label(
                batch, np.full(b, y, dtype=np.int64), c
            ).inputs.reshape(b, t_in, d).transpose(1, 0, 2)
        frames = [chunk[0]] * net.timesteps if t_in == 1 else chunk
        _count_eval(net, frames)
        # a short last chunk fills the full chunk's ranges up to its rows
        live = [(slice(r.start, min(r.stop, rows)), rolls)
                for r, rolls in zip(ranges, rollouts) if r.start < max(rows, 1)]
        for r, rolls in live:
            for roll in rolls:
                roll.reset(r.stop - r.start)
        run_all(
            [functools.partial(_roll_out, rolls, frames, r, z_shared)
             for r, rolls in live],
            len(ranges),
        )
        offset = first * b
        for r, rolls in live:
            for roll in rolls:
                total[offset + r.start : offset + r.stop] += goodness(roll)
    return total.reshape(c, b).T
