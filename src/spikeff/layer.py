"""One spiking hidden layer: linear map, per-timestep batch normalization,
LIF stepping over T timesteps, spike counting, goodness, and exact
reverse-mode gradients of the layer-local objective.

Train-mode normalization uses mini-batch statistics (biased variance), which
`fold_running_stats` folds into running exponential averages; eval mode
normalizes with the running statistics only, so results are batch-size
independent. The layer boundary is gradient-isolated: spikes handed to the
next layer carry no gradient, and `layer_backward` therefore returns no
input gradient.
"""

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from . import neuron
from .dataio import OverlaidFrames, Overlay
from .errors import NumericError, ShapeError, UsageError
from .neuron import NeuronConfig, timestep
from .numerics import AdamState, RngStream, row_blocks

# Every tensor a layer stores, in checkpoint order: its shape in the layer's
# dimensions and whether Adam trains it. `decay_raw` (learnable decay) and
# `recurrent` are stored only by the layers that have them.
TENSORS = {
    "weights": (("n_out", "n_in"), True),
    "gamma": (("T", "n_out"), True),  # norm scale
    "shift": (("T", "n_out"), True),  # norm shift
    "running_mean": (("T", "n_out"), False),
    "running_var": (("T", "n_out"), False),
    "decay_raw": (("n_out",), True),
    "recurrent": (("n_out", "n_out"), True),
}
TRAINABLE = tuple(name for name, (_, trained) in TENSORS.items() if trained)


def tensor_shapes(n_in: int, n_out: int, timesteps: int) -> Dict[str, Tuple[int, ...]]:
    """The shape of each tensor in `TENSORS` for a layer of these dimensions."""
    dims = {"n_in": n_in, "n_out": n_out, "T": timesteps}
    return {
        name: tuple(dims[d] for d in shape) for name, (shape, _) in TENSORS.items()
    }


@dataclass
class SpikingLayer:
    """A layer's tensors (shapes in `TENSORS`) and its normalization state.

    A layer builds a fresh Adam state for each trainable tensor it has; a
    state holds no moments until the tensor's first update (`adam_update`),
    which takes the network's learning rate (`FFNetwork.lr`).
    """

    weights: np.ndarray
    gamma: np.ndarray
    shift: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray
    neuron: NeuronConfig
    decay_raw: Optional[np.ndarray] = None
    recurrent: Optional[np.ndarray] = None
    batches_tracked: int = 0
    momentum: float = 0.1
    eps: float = 1e-5
    adam: Dict[str, AdamState] = field(init=False)

    def __post_init__(self):
        self.adam = {name: AdamState() for name in self.trainable_tensors()}

    @property
    def n_out(self) -> int:
        return self.weights.shape[0]

    @property
    def n_in(self) -> int:
        return self.weights.shape[1]

    @property
    def timesteps(self) -> int:
        return self.gamma.shape[0]

    @property
    def stats_populated(self) -> bool:
        return self.batches_tracked > 0

    def stored_tensors(self) -> Dict[str, np.ndarray]:
        """The tensors the layer has, by name, in `TENSORS` order."""
        return {n: getattr(self, n) for n in TENSORS if getattr(self, n) is not None}

    def trainable_tensors(self) -> Dict[str, np.ndarray]:
        return {n: getattr(self, n) for n in TRAINABLE if getattr(self, n) is not None}


def init_layer(
    n_in: int,
    n_out: int,
    timesteps: int,
    config: NeuronConfig,
    rng: RngStream,
    recurrent: bool = False,
) -> SpikingLayer:
    """Kaiming-uniform float64 weights, unit scale / zero shift, fresh
    running stats, every tensor in the weights' dtype."""
    bound = math.sqrt(6.0 / n_in)
    weights = rng.uniform((n_out, n_in), -bound, bound)
    dtype = weights.dtype
    decay_raw = None
    if config.decay_learnable:
        decay_raw = np.full(n_out, neuron.raw_decay_for(config.decay), dtype)
    rec = None
    if recurrent:
        rec_bound = math.sqrt(6.0 / n_out)
        rec = rng.uniform((n_out, n_out), -rec_bound, rec_bound)
    return SpikingLayer(
        weights=weights,
        gamma=np.ones((timesteps, n_out), dtype),
        shift=np.zeros((timesteps, n_out), dtype),
        running_mean=np.zeros((timesteps, n_out), dtype),
        running_var=np.ones((timesteps, n_out), dtype),
        neuron=config,
        decay_raw=decay_raw,
        recurrent=rec,
    )


def norm_affine(mu, var, eps, gamma, shift):
    """Batch normalization as one affine map of the product z.

    gamma * (z - mu) / sqrt(var + eps) + shift == z * scale + offset, with
    the returned (scale, offset). Every drive, train or eval, is
    computed as `z * scale + offset` from these, so equal inputs give equal
    bits wherever it is computed.
    """
    scale = gamma / np.sqrt(var + eps)
    return scale, shift - mu * scale


def _batch_stats(z: np.ndarray, centered: np.ndarray):
    """Batch mean and biased variance of one timestep's (B, n) product.

    The steps of `np.mean`/`np.var` over the batch axis (sum and divide;
    centre, square, sum and divide), with `centered`, a (B, n) scratch
    buffer, in place of `np.var`'s temporary.
    """
    batch = len(z)
    mu = np.divide(np.sum(z, axis=0), batch)
    np.subtract(z, mu, out=centered)
    np.multiply(centered, centered, out=centered)
    return mu, np.divide(np.sum(centered, axis=0), batch)


def overlay_correction(weights: np.ndarray, peak: np.ndarray, labels,
                       out: Optional[np.ndarray] = None) -> np.ndarray:
    """peak (x) W[:, labels]: the (R, n_out) array whose row r is
    peak[r] * W[:, labels[r]], the overlay's share of every timestep's
    product (`product`), written to `out` when given.

    `labels` is one label per row (a pass's `Overlay`), or one int label
    for all R rows (a run of one overlay's rows in label scoring); the
    same multiply either way, so equal values give equal bits, in the
    weights' dtype.
    """
    return np.multiply(weights.T[labels], peak[:, None], out=out,
                       dtype=weights.dtype)


def check_finite(z: np.ndarray, t: int) -> None:
    """Raise a NumericError naming timestep t unless the product z is finite."""
    if not np.isfinite(z).all():
        raise NumericError(f"non-finite drive at timestep {t}")


def product(x: np.ndarray, weights: np.ndarray, t: int, out: np.ndarray,
            correction: Optional[np.ndarray] = None) -> None:
    """z_t = x_t W^T of one timestep's (B, n_in) input, written to `out`.

    The GEMM runs in the weights' dtype, the layer's compute dtype, and
    casts an input of another dtype (bool spikes, narrower frames, float64
    rows of a float32 layer) itself, as every GEMM here does. For an
    overlaid input, x_t is the base frame and `correction` the overlay's
    `overlay_correction`: z_t = x_base,t W^T + peak (x) W[:, labels], one
    B-row GEMM and one add, the product of the overlaid rows without
    writing them out. Raises a NumericError naming timestep t unless the
    product is finite. Every product of a layer input is this call: the
    train pass's, the backward's recompute and the eval rollout's, so all
    have the same bits; label scoring adds a row range's correction to its
    rows of the one B-row base product, the same two ops.
    """
    np.matmul(x, weights.T, out=out, dtype=weights.dtype)
    if correction is not None:
        np.add(out, correction, out=out)
    check_finite(out, t)


def fold_running_stats(layer: SpikingLayer, trace: "LayerForwardTrace") -> None:
    """Fold a train pass's batch statistics into the layer's running ones.

    The momentum update does not commute, so a step folds its passes on
    one thread in a fixed order: per layer, the positive pass, then the
    negative one.
    """
    if trace.mode != "train":
        raise UsageError("only a train-mode trace has batch statistics to fold")
    layer.running_mean += layer.momentum * (trace.mu - layer.running_mean)
    layer.running_var += layer.momentum * (trace.var - layer.running_var)
    layer.batches_tracked += 1


@dataclass
class LayerForwardTrace:
    """Everything one forward pass recorded.

    `spikes` and `membranes` are C-contiguous timestep-major (T, B, n)
    arrays; entry t is timestep t's (B, n) view. `spikes` are bool (1 byte
    each), and `counts` is their (B, n) sum over time. Every floating array
    is in the compute dtype (`dtype`). `inputs` is the (T, B, n_in) array
    the pass was given, as it is: a layer fed another's spikes holds them
    as bool, and layer 0 of temporal data holds `time_frames`' view of the
    batch's sample-major rows, no copy. For a static input (one frame
    object repeated T times), `inputs` is instead a read-only broadcast of
    the one frame, and `shared_product` holds its one (B, n_out) product
    (`shared`).
    `mu`/`var` are the statistics actually used: batch statistics in train
    mode (which `fold_running_stats` folds into the layer's running ones),
    running statistics in eval mode. For an overlaid input
    (`OverlaidFrames`), `inputs` are the base frames and `overlay` the
    overlay that every product adds (`product`). The weights are not kept:
    they are the layer's, which its update changes in place, so a trace is
    backpropagated before its layer is updated.

    A stacked input's products and the drives are not stored.
    `layer_backward` consumes a trace, shared or stacked: it recomputes the
    products from `inputs` and the layer's weights, writes its gradients
    over `membranes` and `counts`, then drops them and `inputs`, after
    which all three read None, so a trace is backpropagated once; a caller
    that needs them reads them before.
    """

    mode: str
    counts: Optional[np.ndarray]  # (B, n_out)
    mu: np.ndarray  # (T, n_out)
    var: np.ndarray  # (T, n_out)
    spikes: np.ndarray  # (T, B, n_out)
    inputs: Optional[np.ndarray] = None  # (T, B, n_in)
    membranes: Optional[np.ndarray] = None  # (T, B, n_out)
    shared_product: Optional[np.ndarray] = None  # (B, n_out), static input only
    overlay: Optional[Overlay] = None  # an overlaid input's peak and labels

    @property
    def shared(self) -> bool:
        """Whether the input was static: one frame object for every timestep."""
        return self.shared_product is not None

    @property
    def dtype(self) -> np.dtype:  # the compute dtype: the layer's weights'
        return self.mu.dtype


def layer_forward(
    layer: SpikingLayer,
    frames: Sequence[np.ndarray],
    mode: str = "train",
) -> LayerForwardTrace:
    """Run the layer over T timesteps.

    Each drive is frames[t] @ W^T under the per-timestep batch
    normalization (batch statistics in train mode, running ones in eval
    mode), plus, for a recurrent layer, the previous spikes' drive. The
    layer is not changed: a train pass's batch statistics go into its
    trace, for `fold_running_stats`.

    `frames` is either one (B, n_in) frame object repeated T times (a
    static input: one product serves every timestep) or T frames in one
    timestep-major (T, B, n_in) array, as `time_frames` (a view of the
    sample-major rows) and a layer's `spikes` give them. An array is used
    as it is, not copied; a list of T arrays is stacked into one.
    An overlaid batch's `OverlaidFrames` are its base frames, either way,
    and its overlay: each product adds the overlay's correction
    (`product`), computed once for the pass.

    A pass takes three steps. First the products, each followed in train
    mode by its batch statistics: a static input's one product goes into
    `shared_product`, a stacked input's z_t (`product`) into
    `membranes[t]`, the slot timestep t's update overwrites once z_t has
    made the drive. Then one affine map over (T, n_out) (`norm_affine`,
    as `EvalRollout` takes it). Then a loop that only steps: per timestep,
    a recurrent layer's recurrent drive of the prior spikes, then one
    whole-batch call of the LIF kernel `neuron.timestep`, under its traced
    name `neuron.membrane_update`, which writes the membrane into
    `membranes[t]` and the spikes into `spikes[t]`. The trace records the
    bool spikes and the membranes; the counts are the spikes summed over
    time (exact: integers <= T).
    The backward recomputes a stacked input's products. Every floating
    buffer is in the weights' dtype, which each GEMM casts its input into.
    """
    if mode not in ("train", "eval"):
        raise UsageError(f"mode must be 'train' or 'eval', got {mode!r}")
    overlay = None
    if isinstance(frames, OverlaidFrames):
        frames, overlay = frames.base, frames.overlay
    t_steps = layer.timesteps
    if len(frames) != t_steps:
        raise ShapeError(
            f"layer has per-timestep parameters for T={t_steps} but got "
            f"{len(frames)} input frames"
        )
    batch = frames[0].shape[0]
    for t, f in enumerate(frames):
        if f.shape != (batch, layer.n_in):
            raise ShapeError(
                f"frame {t} has shape {f.shape}, expected ({batch}, {layer.n_in})"
            )
    if overlay is not None and overlay.peak.shape != (batch,):
        raise ShapeError(
            f"overlay of {overlay.peak.shape} rows for a batch of {batch}"
        )
    if mode == "train" and batch < 2:
        raise UsageError("train mode needs a batch of at least 2 (batch variance)")

    n = layer.n_out
    cfg = layer.neuron
    dtype = layer.weights.dtype
    beta = neuron.effective_decay(layer.decay_raw, cfg)
    spikes = np.empty((t_steps, batch, n), bool)
    membranes = np.empty((t_steps, batch, n), dtype)
    drive = np.empty((batch, n), dtype)
    scratch = np.empty((batch, n), dtype)
    train = mode == "train"
    if train:
        mu, var = np.empty((t_steps, n), dtype), np.empty((t_steps, n), dtype)
    else:
        mu, var = layer.running_mean.copy(), layer.running_var.copy()

    shared = all(f is frames[0] for f in frames)
    # a static input's one product reads its correction once, from `drive`
    correction = None if overlay is None else overlay_correction(
        layer.weights, *overlay, out=drive if shared else None)
    if shared:
        x = np.broadcast_to(frames[0], (t_steps, batch, layer.n_in))
        shared_product = np.empty((batch, n), dtype)
        product(frames[0], layer.weights, 0, shared_product, correction=correction)
        if train:
            mu[:], var[:] = _batch_stats(shared_product, drive)
    else:
        x = np.asarray(frames)
        shared_product = None
        for t in range(t_steps):
            # z_t goes to the membrane slot timestep t's update overwrites
            product(x[t], layer.weights, t, membranes[t], correction)
            if train:
                mu[t], var[t] = _batch_stats(membranes[t], drive)
    scale, offset = norm_affine(mu, var, layer.eps, layer.gamma, layer.shift)

    u = np.zeros((batch, n), dtype)  # at rest
    s = np.zeros((batch, n), bool)
    for t in range(t_steps):
        z = membranes[t] if shared_product is None else shared_product
        rec = None if layer.recurrent is None else np.matmul(
            s, layer.recurrent, dtype=dtype)
        neuron.membrane_update(z, scale[t], offset[t], rec, u, s, beta, cfg,
                               membranes[t], spikes[t], drive, scratch)
        u, s = membranes[t], spikes[t]

    counts = spikes.sum(axis=0, dtype=dtype)  # integers <= T: exact
    return LayerForwardTrace(
        mode=mode,
        counts=counts,
        mu=mu,
        var=var,
        spikes=spikes,
        inputs=x,
        membranes=membranes,
        shared_product=shared_product,
        overlay=overlay,
    )


# Label scoring rolls out whole overlays in chunks of at most about this
# many rows x n_out (at least one overlay per chunk), so its buffers do not
# grow with the class count.
CHUNK_ELEMENTS = 1 << 18


class EvalRollout:
    """One layer's eval-mode state for a timestep-major rollout, kept in place.

    Preallocated buffers of up to `rows` rows hold the drive, membrane,
    bool spikes, recurrent drive and spike counts of the current timestep
    only, plus one row block (`numerics.row_blocks`) of scratch; nothing is
    recorded. Floating buffers are in the weights' dtype (`dtype`), and the
    counts are unsigned integers wide enough for T. A timestep's product
    (`product`) is written into `drive`. A GEMM that reads bool spikes
    casts them into one temporary per call: the next layer's product and,
    in `step`, the recurrent drive, which is all `step` allocates. `reset`
    starts a new rollout on the same buffers. Every step runs the kernel of
    `layer_forward(mode="eval")`, `neuron.timestep`, on the same
    `norm_affine` map, so membranes, spikes and counts equal the
    reference's bit for bit.
    """

    def __init__(self, layer: SpikingLayer, rows: int):
        self.layer = layer
        self.dtype = dtype = layer.weights.dtype
        self.scale, self.offset = norm_affine(  # (T, n_out) each
            layer.running_mean, layer.running_var, layer.eps, layer.gamma, layer.shift
        )
        shape = (rows, layer.n_out)
        self._drive = np.empty(shape, dtype)
        self._membrane = np.empty(shape, dtype)
        self._spikes = np.empty(shape, bool)
        self._counts = np.empty(shape, np.min_scalar_type(layer.timesteps))
        recurrent = layer.recurrent is not None
        self._recurrent_drive = np.empty(shape, dtype) if recurrent else None
        # the first block is the largest of any rollout of up to `rows` rows
        block = (row_blocks(rows, layer.n_out)[0].stop, layer.n_out)
        self.scratch = np.empty(block, dtype)
        # A learnable decay, tiled to a block: the decay multiply then runs
        # over same-shape operands instead of an (n,) broadcast (same bits).
        self.beta = neuron.effective_decay(layer.decay_raw, layer.neuron)
        self.beta_tile = (
            None if np.isscalar(self.beta) else np.tile(self.beta, (block[0], 1))
        )
        self.reset(rows)

    def reset(self, rows: int) -> None:
        """Start a new rollout from rest over the buffers' first `rows` rows."""
        self.drive = self._drive[:rows]
        self.membrane = self._membrane[:rows]
        self.spikes = self._spikes[:rows]
        self.counts = self._counts[:rows]
        self.recurrent_drive = (
            None if self._recurrent_drive is None else self._recurrent_drive[:rows]
        )
        for buf in (self.membrane, self.spikes, self.counts):
            buf.fill(0)
        self.blocks = row_blocks(rows, self.layer.n_out)

    def step(self, t: int, z: np.ndarray) -> np.ndarray:
        """Advance one timestep from the product z; returns the spike buffer.

        Each row block (`numerics.row_blocks`) is one `neuron.timestep`
        call, in place: its membrane and spikes are both the prior state
        and the output. z may be `self.drive` itself (it is then
        overwritten) or a product shared across timesteps (it is only
        read). A block's spikes are then added, as bytes, to the counts.
        """
        layer, cfg, rec = self.layer, self.layer.neuron, self.recurrent_drive
        if rec is not None:  # from the previous spikes
            np.matmul(self.spikes, layer.recurrent, out=rec, dtype=self.dtype)
        scale, offset = self.scale[t], self.offset[t]
        for rows in self.blocks:
            u, s, counts = self.membrane[rows], self.spikes[rows], self.counts[rows]
            size = rows.stop - rows.start
            beta = self.beta if self.beta_tile is None else self.beta_tile[:size]
            timestep(z[rows], scale, offset, None if rec is None else rec[rows],
                     u, s, beta, cfg, u, s, self.drive[rows], self.scratch[:size])
            np.add(counts, s.view(np.uint8), out=counts)
        return self.spikes


def goodness(trace: Union[LayerForwardTrace, EvalRollout]) -> np.ndarray:
    """Per-sample goodness: mean over neurons of the squared spike count."""
    return np.square(trace.counts, dtype=trace.dtype).mean(axis=1)


def layer_backward(
    layer: SpikingLayer, trace: LayerForwardTrace, dgoodness: np.ndarray
) -> Dict[str, np.ndarray]:
    """Exact reverse-mode gradients of the layer-local objective.

    Chain: goodness -> spike counts -> surrogate-relaxed spike function ->
    membrane recursion (decay path and, when present, recurrent path) ->
    per-timestep normalization including the batch-statistics terms ->
    linear map. The reset term is treated as a constant (detached); in
    zero-reset mode the multiplicative carry beta*(1-S) keeps its membrane
    path and detaches only the spike factor.

    The normalization backward uses the reduced form (biased batch
    variance, xhat = (z - mu) * inv_std, du = dL/dU[t]):

        d_gamma[t] = sum_b du * xhat,   d_shift[t] = sum_b du
        dz = gamma[t] * inv_std * (du - d_shift[t] / B - xhat * d_gamma[t] / B)

    and the weight gradient is sum_t dz_t^T X_t. For a static input
    (`trace.shared`) every X_t is the same frame, so it is one GEMM,
    (sum_t dz_t)^T X, with the sum kept in one (B, n) array. For a stacked
    input, each timestep's product is recomputed with the pass's call
    (`product`) into one (B, n) buffer, dz_t is written over it, and
    dz_t^T X_t (cast in the GEMM) is added to the weight gradient. Bool
    spikes enter every other use (the zero-reset carry, the decay path,
    `prev_spk^T @ du` via scratch) as exact 0/1.

    The trace is consumed in place: dL/dC is written over `counts`, and
    dL/dU[t] over `membranes[t]`, which in descending t has served as
    step t+1's prior membrane and is read for the last time by its own
    surrogate gradient. The carry term of dL/dU[t+1] is taken in place in
    its dead slot, and each other product goes to one scratch buffer, so
    a timestep allocates no (B, n) array; the ufuncs and operand order
    are those of the plain expressions. The trace's `membranes`, `counts`
    and `inputs` are then dropped, and a second call raises.

    For an overlaid input (`trace.overlay`), X_t is the base frame plus
    peak[b] at channel labels[b] of row b, so the weight gradient is the
    same GEMM(s) over the base frames, plus, for each row, peak[b] times
    its sum_t dz_t added into column labels[b]. The base frames are zero
    in the overlay channels, so those columns get only this term.

    The pass's weights are read from the layer, like `gamma`, `shift`,
    `decay_raw` and `recurrent`: a step updates a layer only after both of
    its traces are backpropagated. It reads the layer and writes only its
    own trace, so the two passes' backward calls of a layer can run at
    once. Every buffer and gradient, and `dgoodness`, is in the weights'
    dtype.
    """
    if trace.mode != "train":
        raise UsageError("layer_backward needs a train-mode trace")
    if trace.membranes is None:
        raise UsageError("layer_backward already consumed this trace")
    batch, n = trace.counts.shape
    t_steps = layer.timesteps
    dtype = layer.weights.dtype
    dgoodness = np.asarray(dgoodness, dtype=dtype)
    if dgoodness.shape != (batch,):
        raise ShapeError(
            f"dgoodness has shape {dgoodness.shape}, expected ({batch},)"
        )

    cfg = layer.neuron
    beta = neuron.effective_decay(layer.decay_raw, cfg)
    zero_reset = cfg.reset_mode == "zero"
    one = dtype.type(1.0)  # 1 - S of bool spikes in the compute dtype's loop

    # dL/dC over the counts: (2/n) * counts * dgoodness, in that order
    d_counts = np.multiply(2.0 / n, trace.counts, out=trace.counts)
    np.multiply(d_counts, dgoodness[:, None], out=d_counts)
    d_gamma = np.empty_like(layer.gamma)
    d_shift = np.empty_like(layer.shift)
    d_beta = np.zeros_like(layer.decay_raw) if layer.decay_raw is not None else None
    d_rec = np.zeros_like(layer.recurrent) if layer.recurrent is not None else None
    inv_std = 1.0 / np.sqrt(trace.var + layer.eps)  # (T, n)
    dz_scale = layer.gamma * inv_std
    dz = np.empty((batch, n), dtype)  # z_t, then dz_t over it
    overlay = trace.overlay
    # sum_t dz_t: the whole weight gradient of a static input, the overlay
    # term's of an overlaid one
    dz_sum = np.zeros_like(dz) if trace.shared or overlay is not None else None
    if trace.shared:
        z = trace.shared_product
    else:
        x = trace.inputs
        correction = None if overlay is None else overlay_correction(
            layer.weights, *overlay)
        d_weights = np.zeros_like(layer.weights)
        term = np.empty_like(d_weights)  # one timestep's dz_t^T X_t

    scratch = np.empty((batch, n), dtype)
    du_next = None  # dL/dU[t+1]
    for t in reversed(range(t_steps)):
        # dL/dU[t] over U[t], read for the last time here (it was step
        # t+1's prev_mem)
        u = trace.membranes[t]
        du = neuron.surrogate_grad(u, cfg, out=u)
        if d_rec is not None and du_next is not None:
            d_spike = np.matmul(du_next, layer.recurrent.T, out=scratch)
            d_spike += d_counts
            du *= d_spike
        else:
            du *= d_counts
        if du_next is not None:  # du += du_next * carry; du_next dies here
            carry = beta
            if zero_reset:  # beta * (1 - S[t])
                carry = np.subtract(one, trace.spikes[t], out=scratch)
                np.multiply(beta, carry, out=carry)
            du += np.multiply(du_next, carry, out=du_next)
        if t > 0:
            prev_mem = trace.membranes[t - 1]
            prev_spk = trace.spikes[t - 1]
            if d_beta is not None:
                path = prev_mem
                if zero_reset:  # prev_mem * (1 - S[t-1])
                    path = np.subtract(one, prev_spk, out=scratch)
                    np.multiply(prev_mem, path, out=path)
                d_beta += np.multiply(du, path, out=scratch).sum(axis=0)
            if d_rec is not None:
                # bool spikes as exact 0/1, copied rather than cast inside
                # the GEMM: numpy's cast of the transposed operand gives
                # other bits at some shapes and is slower
                np.copyto(scratch, prev_spk)
                d_rec += scratch.T @ du
        # normalization backward: xhat, then dz over it in place
        if trace.shared:
            np.subtract(z, trace.mu[t], out=dz)
        else:
            product(x[t], layer.weights, t, dz, correction)
            np.subtract(dz, trace.mu[t], out=dz)
        np.multiply(dz, inv_std[t], out=dz)
        d_gamma[t] = np.multiply(du, dz, out=scratch).sum(axis=0)
        d_shift[t] = du.sum(axis=0)
        np.multiply(dz, d_gamma[t] / batch, out=dz)
        np.subtract(du, dz, out=dz)
        np.subtract(dz, d_shift[t] / batch, out=dz)
        np.multiply(dz, dz_scale[t], out=dz)
        if dz_sum is not None:
            dz_sum += dz
        if not trace.shared:
            d_weights += np.matmul(dz.T, x[t], out=term, dtype=dtype)
        du_next = du

    # freed before the weight gradient is made
    del u, du, du_next, dz, scratch, d_counts
    trace.membranes = trace.counts = None
    if trace.shared:
        d_weights = np.matmul(dz_sum.T, trace.inputs[0], dtype=dtype)
    trace.inputs = None
    if overlay is not None:  # column labels[b] += peak[b] * sum_t dz_t[b]
        peaks = np.zeros((batch, overlay.labels.max() + 1), dtype)
        peaks[np.arange(batch), overlay.labels] = overlay.peak
        d_weights[:, : peaks.shape[1]] += dz_sum.T @ peaks
    grads = {"weights": d_weights, "gamma": d_gamma, "shift": d_shift}
    if d_beta is not None:
        sig = neuron.sigmoid(layer.decay_raw)
        grads["decay_raw"] = d_beta * sig * (1.0 - sig)
    if d_rec is not None:
        grads["recurrent"] = d_rec
    return grads


def parameter_counts(layer: SpikingLayer) -> Dict[str, int]:
    """Trainable scalar counts per tensor (checkpoint inspection)."""
    return {name: t.size for name, t in layer.trainable_tensors().items()}
