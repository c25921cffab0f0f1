"""A stack of spiking layers with no output layer.

The forward interface between layers is the per-timestep spike train only;
spikes carry no gradient across the boundary, so every layer learns from its
own local objective. Inference and hard-label sampling score a batch by
summing per-layer goodness over all candidate label overlays.
"""

from dataclasses import dataclass, field
from typing import List, Sequence

import numpy as np

from .dataio import SampleBatch, embed_label, time_frames
from .errors import ShapeError
from .layer import (
    CHUNK_ELEMENTS,
    EvalRollout,
    SpikingLayer,
    goodness,
    init_layer,
    layer_forward,
)
from .neuron import NeuronConfig
from .numerics import RngStream


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
        raise ValueError(f"hidden sizes must be nonempty and >= 1: {hidden_sizes}")
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


def label_goodness(net: FFNetwork, batch: SampleBatch) -> np.ndarray:
    """Total goodness per candidate class: (B, class_count).

    The class_count overlays of the batch are scored in eval-mode rollouts
    over chunks of whole overlays, at most about `CHUNK_ELEMENTS` rows x
    n_out each, that reuse one set of buffers. Eval normalization uses
    running statistics only, so this equals the goodness sums of one
    `forward_eval` per overlay bit for bit. Each rollout is timestep-major
    and in place: at each t every layer advances one step on the previous
    layer's spikes, and only one step of state per layer is live.
    """
    c, b = net.class_count, batch.size
    d, t_in = batch.input_dim, batch.timesteps
    time_frames(batch.inputs[:0], d, t_in, net.timesteps)  # checks the run length
    widest = max(layer.n_out for layer in net.layers)
    per_chunk = min(c, max(1, CHUNK_ELEMENTS // max(1, b * widest)))
    rollouts = [EvalRollout(layer, per_chunk * b) for layer in net.layers]
    frame_rows = np.empty((t_in, per_chunk * b, d))  # reused, as time_frames lays out
    total = np.zeros(c * b)
    for first in range(0, c, per_chunk):
        labels = range(first, min(first + per_chunk, c))
        rows = slice(first * b, (first + len(labels)) * b)
        chunk = frame_rows[:, : rows.stop - rows.start]
        for j, y in enumerate(labels):  # one unbound overlay alive at a time
            chunk[:, j * b : (j + 1) * b] = embed_label(
                batch, np.full(b, y, dtype=np.int64), c
            ).inputs.reshape(b, t_in, d).transpose(1, 0, 2)
        frames = [chunk[0]] * net.timesteps if t_in == 1 else chunk
        _count_eval(net, frames)
        for roll in rollouts:
            roll.reset(chunk.shape[1])
        # Static data repeats one frame object T times: one layer-0 product.
        shared = all(f is frames[0] for f in frames)
        z_shared = rollouts[0].product(frames[0], 0) if shared else None
        for t in range(net.timesteps):
            x = frames[t]
            for k, roll in enumerate(rollouts):
                if k == 0 and shared:
                    z = z_shared
                else:
                    z = roll.product(x, t, out=roll.drive)
                x = roll.step(t, z)
        for roll in rollouts:
            total[rows] += goodness(roll)
    return total.reshape(c, b).T
