"""One spiking hidden layer: linear map, per-timestep batch normalization,
LIF stepping over T timesteps, spike counting, goodness, and exact
reverse-mode gradients of the layer-local objective.

Train-mode normalization uses mini-batch statistics (biased variance) and
maintains running exponential averages; eval mode normalizes with the
running statistics only, so results are batch-size independent. The layer
boundary is gradient-isolated: spikes handed to the next layer carry no
gradient, and `layer_backward` therefore returns no input gradient.
"""

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from . import neuron
from .errors import NumericError, ShapeError, UsageError
from .neuron import NeuronConfig, advance_membrane, fire
from .numerics import AdamState, RngStream

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

    A layer built without Adam states gets fresh ones (learning rate 1e-3)
    for each trainable tensor it has.
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
    adam: Dict[str, AdamState] = field(default_factory=dict)

    def __post_init__(self):
        if not self.adam:
            self.adam = {
                name: AdamState.for_param(tensor)
                for name, tensor in self.trainable_tensors().items()
            }

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

    def set_tensor(self, name: str, value: np.ndarray) -> None:
        if name not in TRAINABLE:
            raise KeyError(name)
        setattr(self, name, value)

    def set_lr(self, lr: float) -> None:
        for state in self.adam.values():
            state.lr = lr


def init_layer(
    n_in: int,
    n_out: int,
    timesteps: int,
    config: NeuronConfig,
    rng: RngStream,
    recurrent: bool = False,
    lr: float = 1e-3,
) -> SpikingLayer:
    """Kaiming-uniform weights, unit scale / zero shift, fresh running stats."""
    bound = math.sqrt(6.0 / n_in)
    weights = rng.uniform((n_out, n_in), -bound, bound)
    decay_raw = None
    if config.decay_learnable:
        decay_raw = np.full(n_out, neuron.raw_decay_for(config.decay))
    rec = None
    if recurrent:
        rec_bound = math.sqrt(6.0 / n_out)
        rec = rng.uniform((n_out, n_out), -rec_bound, rec_bound)
    layer = SpikingLayer(
        weights=weights,
        gamma=np.ones((timesteps, n_out)),
        shift=np.zeros((timesteps, n_out)),
        running_mean=np.zeros((timesteps, n_out)),
        running_var=np.ones((timesteps, n_out)),
        neuron=config,
        decay_raw=decay_raw,
        recurrent=rec,
    )
    layer.set_lr(lr)
    return layer


def norm_affine(mu, var, eps, gamma, shift):
    """Batch normalization as one affine map of the product z.

    gamma * (z - mu) / sqrt(var + eps) + shift == z * scale + offset, with
    the returned (scale, offset). Every normalized drive, train or eval, is
    computed as `z * scale + offset` from these, so equal inputs give equal
    bits wherever it is computed.
    """
    scale = gamma / np.sqrt(var + eps)
    return scale, shift - mu * scale


def _check_finite(z: np.ndarray) -> None:
    """Raise naming the first timestep of a (T, B, n) product that is not finite."""
    finite = np.isfinite(z).all(axis=(1, 2))
    if not finite.all():
        raise NumericError(f"non-finite drive at timestep {int(np.argmin(finite))}")


def _batch_stats(z: np.ndarray):
    """Per-timestep batch mean and biased variance of a (T, B, n) product.

    The steps of `np.mean`/`np.var` over the batch axis (sum and divide;
    centre, square, sum and divide), with one (B, n) buffer in place of
    `np.var`'s (T, B, n) temporary.
    """
    t_steps, batch, n = z.shape
    mu = np.divide(np.sum(z, axis=1), batch)
    var = np.empty_like(mu)
    centered = np.empty((batch, n))
    for t in range(t_steps):
        np.subtract(z[t], mu[t], out=centered)
        np.multiply(centered, centered, out=centered)
        np.sum(centered, axis=0, out=var[t])
    return mu, np.divide(var, batch, out=var)


def _gemm_rows(x: np.ndarray) -> np.ndarray:
    """A stacked (T, B, n_in) input as (T*B, n_in) float64 GEMM rows.

    Bool spikes are cast whole, as one copy (exactly: they are 0/1); a
    float64 input is reshaped as a view.
    """
    return x.reshape(-1, x.shape[-1]).astype(np.float64, copy=False)


def _stacked_product(rows: np.ndarray, weights: np.ndarray, t_steps: int):
    """z = X W^T of a stacked input's `_gemm_rows` as one (T*B, n_in) GEMM.

    Every stacked product is this one call, so its bits are the same
    wherever it is computed. Returns the (T, B, n_out) products.
    """
    return (rows @ weights.T).reshape(t_steps, -1, weights.shape[0])


@dataclass
class LayerForwardTrace:
    """Everything one forward pass recorded.

    `spikes`, `membranes` and `inputs` are C-contiguous timestep-major
    (T, B, n) arrays; entry t is timestep t's (B, n) view. `spikes` are
    bool (1 byte each; float64 only under `smooth_spikes`), and `inputs` is
    the array the pass was given, so a layer fed another's spikes holds
    them as bool too. For a static input (one frame object repeated T
    times, `shared`), `inputs` is instead a read-only broadcast of the one
    frame, and `shared_product` holds its one (B, n_out) product.
    `mu`/`var` are the statistics actually used: batch statistics in train
    mode, running statistics in eval mode. `weights`, `gamma` and `shift`
    are the arrays the pass used; training replaces those tensors rather
    than mutating them, so they keep the pass's values.

    The products `pre_norm` and the drives `normalized` are derived, not
    stored. `layer_backward` drops a stacked (not shared) trace's
    `inputs`, after which both read None, so such a trace is
    backpropagated once.
    """

    mode: str
    counts: np.ndarray  # (B, n_out)
    mu: np.ndarray  # (T, n_out)
    var: np.ndarray  # (T, n_out)
    spikes: np.ndarray  # (T, B, n_out)
    inputs: Optional[np.ndarray] = None  # (T, B, n_in)
    membranes: Optional[np.ndarray] = None  # (T, B, n_out)
    weights: Optional[np.ndarray] = None  # (n_out, n_in)
    gamma: Optional[np.ndarray] = None  # (T, n_out)
    shift: Optional[np.ndarray] = None  # (T, n_out)
    eps: float = 0.0
    shared: bool = False
    shared_product: Optional[np.ndarray] = None  # (B, n_out), static input only

    @property
    def pre_norm(self) -> Optional[np.ndarray]:
        """(T, B, n) products z = X W^T, as the pass computed them.

        A static input's one stored product is broadcast over T. A stacked
        input's products are recomputed with the pass's GEMM call, so they
        equal the pass's bit for bit.
        """
        if self.inputs is None:
            return None
        if self.shared:
            t_steps = self.mu.shape[0]
            return np.broadcast_to(
                self.shared_product, (t_steps,) + self.shared_product.shape
            )
        return _stacked_product(
            _gemm_rows(self.inputs), self.weights, len(self.inputs)
        )

    @property
    def normalized(self) -> Optional[np.ndarray]:
        """(T, B, n) drives z * scale + offset, recomputed from the products.

        Derived with `norm_affine` and the pass's ufuncs in their order, so
        it equals the normalized drive the pass used bit for bit.
        """
        z = self.pre_norm
        if z is None:
            return None
        scale, offset = norm_affine(self.mu, self.var, self.eps, self.gamma, self.shift)
        out = np.multiply(z, scale[:, None, :])
        return np.add(out, offset[:, None, :], out=out)


def layer_forward(
    layer: SpikingLayer,
    frames: Sequence[np.ndarray],
    mode: str = "train",
    *,
    smooth_spikes: bool = False,
) -> LayerForwardTrace:
    """Run the layer over T timesteps.

    For each t: drive = frames[t] @ W^T, normalized per timestep (batch
    statistics in train mode, running statistics in eval mode) as
    `z * scale + offset` (`norm_affine`), optionally augmented with
    recurrent drive from the previous spikes, then one LIF step. Spike
    counts accumulate across timesteps.

    `frames` is either one (B, n_in) frame object repeated T times (a
    static input: one product serves every timestep) or T frames in one
    C-contiguous timestep-major (T, B, n_in) array, as `time_frames` and a
    layer's `spikes` give them (a list of T arrays is stacked into one);
    their T products are then one GEMM. A stacked input keeps its dtype:
    bool spikes are cast to float64 only for the GEMM. Every pass records
    its spikes (bool) and membranes; the products are derived on demand
    (`LayerForwardTrace.pre_norm`).

    smooth_spikes replaces the hard threshold with its smooth primitive,
    recorded as float64 spikes; this exists for gradient verification and
    is never used in training.
    """
    if mode not in ("train", "eval"):
        raise UsageError(f"mode must be 'train' or 'eval', got {mode!r}")
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
    if mode == "train" and batch < 2:
        raise UsageError("train mode needs a batch of at least 2 (batch variance)")

    n = layer.n_out
    shared = all(f is frames[0] for f in frames)
    if shared:
        x = np.broadcast_to(frames[0], (t_steps, batch, layer.n_in))
        shared_product = frames[0] @ layer.weights.T
        z = np.broadcast_to(shared_product, (t_steps, batch, n))
    else:
        x = np.ascontiguousarray(frames)
        if x.dtype != np.bool_:
            x = x.astype(np.float64, copy=False)
        shared_product = None
        z = _stacked_product(_gemm_rows(x), layer.weights, t_steps)
    distinct = z[:1] if shared else z  # the products that can differ
    _check_finite(distinct)

    if mode == "train":
        mu, var = _batch_stats(distinct)
        if shared:
            mu, var = np.repeat(mu, t_steps, axis=0), np.repeat(var, t_steps, axis=0)
        layer.running_mean += layer.momentum * (mu - layer.running_mean)
        layer.running_var += layer.momentum * (var - layer.running_var)
        layer.batches_tracked += 1
    else:
        mu, var = layer.running_mean.copy(), layer.running_var.copy()
    scale, offset = norm_affine(mu, var, layer.eps, layer.gamma, layer.shift)

    cfg = layer.neuron
    beta = neuron.effective_decay(layer.decay_raw, cfg)
    spikes = np.empty((t_steps, batch, n), np.float64 if smooth_spikes else bool)
    membranes = np.empty((t_steps, batch, n))
    counts = np.zeros((batch, n))
    drive = np.empty((batch, n))
    scratch = np.empty((batch, n))
    u = np.zeros((batch, n))  # at rest
    s = np.zeros((batch, n))
    for t in range(t_steps):
        np.multiply(z[t], scale[t], out=drive)
        np.add(drive, offset[t], out=drive)
        if layer.recurrent is not None:
            drive += s.astype(np.float64, copy=False) @ layer.recurrent
        u = neuron.membrane_update(
            u, s, drive, beta, cfg, out=membranes[t], scratch=scratch
        )
        s = spikes[t]
        if smooth_spikes:
            s[...] = neuron.smoothed_spike(u, cfg)
        else:
            fire(u, cfg, out=s)
        counts += s

    return LayerForwardTrace(
        mode=mode,
        counts=counts,
        mu=mu,
        var=var,
        spikes=spikes,
        inputs=x,
        membranes=membranes,
        weights=layer.weights,
        gamma=layer.gamma,
        shift=layer.shift,
        eps=layer.eps,
        shared=shared,
        shared_product=shared_product,
    )


# A step runs its elementwise passes over row blocks of about this many
# elements, so that a block's buffers stay in the per-core cache between
# passes. Blocking changes no result: every element sees the same ops.
BLOCK_ELEMENTS = 1 << 15


def block_rows(n_out: int) -> int:
    """Rows in one `BLOCK_ELEMENTS` row block of an n_out-wide buffer."""
    return max(1, BLOCK_ELEMENTS // n_out)


# Label scoring rolls out whole overlays in chunks of at most about this
# many rows x n_out (at least one overlay per chunk), so its buffers do not
# grow with the class count.
CHUNK_ELEMENTS = 1 << 18


class EvalRollout:
    """One layer's eval-mode state for a timestep-major rollout, kept in place.

    Preallocated buffers of up to `rows` rows hold the drive, membrane,
    spikes, recurrent drive and spike counts of the current timestep only,
    plus one row block of scratch and of finiteness flags; nothing is
    recorded, and `product` and `step` allocate no buffer. `reset` starts a
    new rollout on the same buffers. Every step applies the ufuncs of
    `layer_forward(mode="eval")` in its order (`z * scale + offset` from
    `norm_affine`, then recurrent drive, then `neuron.advance_membrane`,
    then `neuron.fire`), so
    membranes, spikes and counts equal the reference's bit for bit.
    """

    def __init__(self, layer: SpikingLayer, rows: int):
        self.layer = layer
        self.beta = neuron.effective_decay(layer.decay_raw, layer.neuron)
        self.scale, self.offset = norm_affine(  # (T, n_out) each
            layer.running_mean, layer.running_var, layer.eps, layer.gamma, layer.shift
        )
        shape = (rows, layer.n_out)
        self._drive = np.empty(shape)
        self._membrane = np.empty(shape)
        self._spikes = np.empty(shape)
        self._counts = np.empty(shape)
        self._recurrent_drive = None if layer.recurrent is None else np.empty(shape)
        self.block = block_rows(layer.n_out)
        self.scratch = np.empty((min(rows, self.block), layer.n_out))
        self.finite = np.empty(self.scratch.shape, bool)
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
            buf.fill(0.0)
        self.blocks = [
            slice(lo, min(lo + self.block, rows)) for lo in range(0, rows, self.block)
        ]

    def product(self, x: np.ndarray, t: int, out: Optional[np.ndarray] = None):
        """z = x W^T, checked finite; written to `out` when given.

        x has at most the buffers' rows; it is checked a row block at a time.
        """
        z = np.matmul(x, self.layer.weights.T, out=out)
        for lo in range(0, len(z), self.block):
            rows = z[lo : lo + self.block]
            if not np.isfinite(rows, out=self.finite[: len(rows)]).all():
                raise NumericError(f"non-finite drive at timestep {t}")
        return z

    def step(self, t: int, z: np.ndarray) -> np.ndarray:
        """Advance one timestep from the product z; returns the spike buffer.

        z may be `self.drive` itself (it is then overwritten) or a product
        shared across timesteps (it is only read).
        """
        layer, cfg = self.layer, self.layer.neuron
        if self.recurrent_drive is not None:  # from the previous spikes
            np.matmul(self.spikes, layer.recurrent, out=self.recurrent_drive)
        scale, offset = self.scale[t], self.offset[t]
        for rows in self.blocks:
            drive, u, s, counts = (
                self.drive[rows], self.membrane[rows], self.spikes[rows],
                self.counts[rows],
            )
            tmp = self.scratch[: rows.stop - rows.start]
            np.multiply(z[rows], scale, out=drive)
            np.add(drive, offset, out=drive)
            if self.recurrent_drive is not None:
                np.add(drive, self.recurrent_drive[rows], out=drive)
            advance_membrane(u, s, drive, self.beta, cfg, out=u, scratch=tmp)
            fire(u, cfg, out=s)
            np.add(counts, s, out=counts)
        return self.spikes


def goodness(trace: Union[LayerForwardTrace, EvalRollout]) -> np.ndarray:
    """Per-sample goodness: mean over neurons of the squared spike count."""
    return np.square(trace.counts).mean(axis=1)


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

    and the weight gradient is one GEMM, sum_t dz_t^T X_t. For a static
    input (`trace.shared`) every X_t is the same frame, so it is
    (sum_t dz_t)^T X with the sum kept in one (B, n) array. For a stacked
    input, the products are recomputed once into one (T, B, n) buffer
    (`trace.pre_norm`'s GEMM), dz_t is written over its consumed rows, and
    the GEMM is dz.reshape(T*B, n)^T @ X.reshape(T*B, n_in). Bool spikes in
    X are cast to one float64 copy, made before the loop, that feeds both
    GEMMs. The trace's `inputs` are then dropped. Bool spikes enter every
    other use (the zero-reset carry, the decay path, `prev_spk^T @ du`
    cast per timestep) as exact 0/1.
    """
    if trace.mode != "train":
        raise UsageError("layer_backward needs a train-mode trace")
    if trace.inputs is None:
        raise UsageError("layer_backward already consumed this trace's products")
    batch, n = trace.counts.shape
    t_steps = layer.timesteps
    dgoodness = np.asarray(dgoodness, dtype=np.float64)
    if dgoodness.shape != (batch,):
        raise ShapeError(
            f"dgoodness has shape {dgoodness.shape}, expected ({batch},)"
        )

    cfg = layer.neuron
    beta = neuron.effective_decay(layer.decay_raw, cfg)
    zero_reset = cfg.reset_mode == "zero"

    d_counts = (2.0 / n) * trace.counts * dgoodness[:, None]
    d_gamma = np.empty_like(layer.gamma)
    d_shift = np.empty_like(layer.shift)
    d_beta = np.zeros(n) if layer.decay_raw is not None else None
    d_rec = np.zeros_like(layer.recurrent) if layer.recurrent is not None else None
    inv_std = 1.0 / np.sqrt(trace.var + layer.eps)  # (T, n)
    dz_scale = layer.gamma * inv_std
    if trace.shared:
        z = trace.pre_norm  # the one stored product, broadcast over T
        dz_sum = np.zeros((batch, n))
        work = np.empty((batch, n))
    else:  # a fresh product buffer, overwritten by dz
        x = _gemm_rows(trace.inputs)
        z = _stacked_product(x, trace.weights, t_steps)

    du_next = None  # dL/dU[t+1]
    for t in reversed(range(t_steps)):
        du = neuron.surrogate_grad(trace.membranes[t], cfg)
        if d_rec is not None and du_next is not None:
            d_spike = du_next @ layer.recurrent.T
            d_spike += d_counts
            du *= d_spike
        else:
            du *= d_counts
        if du_next is not None:
            carry = beta * (1.0 - trace.spikes[t]) if zero_reset else beta
            du += du_next * carry
        if t > 0:
            prev_mem = trace.membranes[t - 1]
            prev_spk = trace.spikes[t - 1]
            if d_beta is not None:
                path = prev_mem * (1.0 - prev_spk) if zero_reset else prev_mem
                d_beta += (du * path).sum(axis=0)
            if d_rec is not None:
                d_rec += prev_spk.astype(np.float64, copy=False).T @ du
        # normalization backward: xhat, then dz over it in place
        dz = work if trace.shared else z[t]
        np.subtract(z[t], trace.mu[t], out=dz)
        np.multiply(dz, inv_std[t], out=dz)
        d_gamma[t] = (du * dz).sum(axis=0)
        d_shift[t] = du.sum(axis=0)
        np.multiply(dz, d_gamma[t] / batch, out=dz)
        np.subtract(du, dz, out=dz)
        np.subtract(dz, d_shift[t] / batch, out=dz)
        np.multiply(dz, dz_scale[t], out=dz)
        if trace.shared:
            dz_sum += dz
        du_next = du

    if trace.shared:
        d_weights = dz_sum.T @ trace.inputs[0]
    else:
        trace.inputs = None
        d_weights = z.reshape(-1, n).T @ x  # (T*B, n) dz, timestep-major rows
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
