"""A stack of spiking layers with no output layer.

The forward interface between layers is the per-timestep spike train only;
spikes carry no gradient across the boundary, so every layer learns from its
own local objective. Inference and hard-label sampling score a batch by
summing per-layer goodness over all candidate label overlays.
"""

import os
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import List, Sequence

import numpy as np

from .dataio import SampleBatch, embed_label, time_frames
from .errors import ShapeError
from .layer import (
    CHUNK_ELEMENTS,
    EvalRollout,
    SpikingLayer,
    block_rows,
    goodness,
    init_layer,
    layer_forward,
)
from .neuron import NeuronConfig
from .numerics import RngStream, blas_threads


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


def _usable_cores() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


_pool = None  # the ThreadPoolExecutor of `_scoring_pool`


def _scoring_pool():
    """The threads that roll out every row range but the first, made once
    per process."""
    global _pool
    if _pool is None:
        # Imported on first use: inline scoring starts no thread, and the
        # module adds about 0.7 MB to the resident size of a process.
        from concurrent.futures import ThreadPoolExecutor

        _pool = ThreadPoolExecutor(
            max(1, _usable_cores() - 1), thread_name_prefix="spikeff-scoring"
        )
    return _pool


def _forget_pool() -> None:
    """A forked child has none of its parent's pool threads: make its own."""
    global _pool
    _pool = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _row_ranges(rows: int, step: int) -> List[slice]:
    """Rows split into contiguous ranges of `step` rows, the last maybe short.

    No rows make one empty range.
    """
    ranges = [slice(lo, min(lo + step, rows)) for lo in range(0, rows, step)]
    return ranges or [slice(0, 0)]


def _roll_out(rollouts, frames, rows: slice, z_shared) -> None:
    """Advance one row range's rollouts over every timestep.

    Only products and steps, into buffers allocated beforehand: this is
    the part of scoring that runs off the calling thread. `z_shared`, when
    given, receives the range's one layer-0 product of a static input.
    """
    if z_shared is not None:
        rollouts[0].product(frames[0][rows], 0, out=z_shared[rows])
    for t, frame in enumerate(frames):
        x = frame[rows]
        for k, roll in enumerate(rollouts):
            if k == 0 and z_shared is not None:
                z = z_shared[rows]
            else:
                z = roll.product(x, t, out=roll.drive)
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

    A chunk's rows are split into contiguous ranges of whole row blocks
    (`layer.block_rows` of the widest layer), one per usable core, each
    with its own rollouts: together they hold a chunk's rows. The calling
    thread runs the first range and a thread pool the others, with the
    loaded OpenBLAS on one thread for the call (`numerics.blas_threads`).
    Only the products and steps run off the calling thread; overlays,
    buffers and goodness are made on it. A row's products and ufuncs do
    not depend on the other rows in its GEMM, so the split changes no bit.
    One range (one core, one block in a chunk, or no BLAS thread setter)
    runs inline, with no pool and no BLAS call.
    """
    c, b = net.class_count, batch.size
    d, t_in = batch.input_dim, batch.timesteps
    time_frames(batch.inputs[:0], d, t_in, net.timesteps)  # checks the run length
    widest = max(layer.n_out for layer in net.layers)
    per_chunk = min(c, max(1, CHUNK_ELEMENTS // max(1, b * widest)))
    chunk_rows = per_chunk * b
    block = block_rows(widest)
    blocks = max(1, -(-chunk_rows // block))
    workers = min(_usable_cores(), blocks)
    with (blas_threads(1) if workers > 1 else nullcontext()) as previous_count:
        if previous_count is None:  # no setter: threads would share BLAS cores
            workers = 1
        step = -(-blocks // workers) * block  # rows of one worker's range
        rollouts = [
            [EvalRollout(layer, r.stop - r.start) for layer in net.layers]
            for r in _row_ranges(chunk_rows, step)
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
            # a short last chunk fills fewer ranges, none past its buffers
            live = list(zip(_row_ranges(rows, step), rollouts))
            for r, rolls in live:
                for roll in rolls:
                    roll.reset(r.stop - r.start)
            futures = [
                _scoring_pool().submit(_roll_out, rolls, frames, r, z_shared)
                for r, rolls in live[1:]
            ]
            try:
                _roll_out(live[0][1], frames, live[0][0], z_shared)
            finally:
                for future in futures:
                    future.exception()  # waits for the range, raising nothing
            for future in futures:
                future.result()  # a worker's error, raised here
            offset = first * b
            for r, rolls in live:
                for roll in rolls:
                    total[offset + r.start : offset + r.stop] += goodness(roll)
    return total.reshape(c, b).T
