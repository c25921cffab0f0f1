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
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from . import neuron
from .errors import NumericError, ShapeError, UsageError
from .neuron import NeuronConfig, advance_membrane, fire
from .numerics import AdamState, RngStream

TRAINABLE = ("weights", "gamma", "shift", "decay_raw", "recurrent")


@dataclass
class SpikingLayer:
    weights: np.ndarray  # (n_out, n_in)
    gamma: np.ndarray  # (T, n_out) norm scale
    shift: np.ndarray  # (T, n_out) norm shift
    running_mean: np.ndarray  # (T, n_out)
    running_var: np.ndarray  # (T, n_out)
    neuron: NeuronConfig
    decay_raw: Optional[np.ndarray] = None  # (n_out,) when decay is learnable
    recurrent: Optional[np.ndarray] = None  # (n_out, n_out)
    batches_tracked: int = 0
    momentum: float = 0.1
    eps: float = 1e-5
    adam: Dict[str, AdamState] = field(default_factory=dict)

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

    def trainable_tensors(self) -> Dict[str, np.ndarray]:
        out = {"weights": self.weights, "gamma": self.gamma, "shift": self.shift}
        if self.decay_raw is not None:
            out["decay_raw"] = self.decay_raw
        if self.recurrent is not None:
            out["recurrent"] = self.recurrent
        return out

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
    layer.adam = {
        name: AdamState.for_param(tensor, lr)
        for name, tensor in layer.trainable_tensors().items()
    }
    return layer


def _normalize(z, mu, var, eps, gamma, shift) -> np.ndarray:
    """One timestep's normalized drive, gamma * (z - mu) / sqrt(var + eps) + shift."""
    xhat = (z - mu) / np.sqrt(var + eps)
    return gamma * xhat + shift


@dataclass
class LayerForwardTrace:
    """Everything one forward pass recorded.

    Per-timestep lists are None when the pass ran with record=False (counts
    are always kept). `mu`/`var` are the statistics actually used: batch
    statistics in train mode, running statistics in eval mode. `gamma` and
    `shift` are the arrays the pass normalized with; training replaces
    those tensors rather than mutating them, so they keep the pass's values.
    """

    mode: str
    smoothed: bool
    batch_size: int
    counts: np.ndarray  # (B, n_out)
    mu: np.ndarray  # (T, n_out)
    var: np.ndarray  # (T, n_out)
    spikes: List[np.ndarray]  # per-t (B, n_out); always kept (next layer's input)
    inputs: Optional[List[np.ndarray]] = None  # per-t (B, n_in)
    pre_norm: Optional[List[np.ndarray]] = None  # z = X W^T
    membranes: Optional[List[np.ndarray]] = None
    gamma: Optional[np.ndarray] = None  # (T, n_out)
    shift: Optional[np.ndarray] = None  # (T, n_out)
    eps: float = 0.0

    @property
    def recorded(self) -> bool:
        return self.membranes is not None

    @property
    def normalized(self) -> Optional[List[np.ndarray]]:
        """Per-t gamma*xhat + shift, recomputed from the recorded products.

        Not stored: it is derived with the pass's own ufuncs in their
        order, so it equals the normalized drive the pass used bit for bit.
        """
        if self.pre_norm is None:
            return None
        return [
            _normalize(z, self.mu[t], self.var[t], self.eps,
                       self.gamma[t], self.shift[t])
            for t, z in enumerate(self.pre_norm)
        ]


def layer_forward(
    layer: SpikingLayer,
    frames: Sequence[np.ndarray],
    mode: str = "train",
    *,
    smooth_spikes: bool = False,
    record: bool = True,
) -> LayerForwardTrace:
    """Run the layer over T timesteps.

    For each t: drive = frames[t] @ W^T, normalized per timestep (batch
    statistics in train mode, running statistics in eval mode), scaled and
    shifted, optionally augmented with recurrent drive from the previous
    spikes, then one LIF step. Spike counts accumulate across timesteps.

    smooth_spikes replaces the hard threshold with its smooth primitive;
    this exists for gradient verification and is never used in training.
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

    cfg = layer.neuron
    beta = neuron.effective_decay(layer.decay_raw, cfg)
    membrane = np.zeros((batch, layer.n_out))
    spikes = np.zeros((batch, layer.n_out))
    counts = np.zeros((batch, layer.n_out))
    mu_used = np.empty((t_steps, layer.n_out))
    var_used = np.empty((t_steps, layer.n_out))
    rec_inputs: Optional[list] = [] if record else None
    rec_pre: Optional[list] = [] if record else None
    rec_mem: Optional[list] = [] if record else None
    rec_spk: list = []

    # Static data repeats one frame object T times; its product and batch
    # statistics are identical every step, so compute them once.
    shared = all(f is frames[0] for f in frames)
    z_shared = mu_shared = var_shared = None

    for t in range(t_steps):
        if shared and z_shared is not None:
            z = z_shared
        else:
            z = frames[t] @ layer.weights.T
            if not np.all(np.isfinite(z)):
                raise NumericError(f"non-finite drive at timestep {t}")
            if shared:
                z_shared = z
        if mode == "train":
            if shared and mu_shared is not None:
                mu, var = mu_shared, var_shared
            else:
                mu = z.mean(axis=0)
                var = z.var(axis=0)
                if shared:
                    mu_shared, var_shared = mu, var
            layer.running_mean[t] += layer.momentum * (mu - layer.running_mean[t])
            layer.running_var[t] += layer.momentum * (var - layer.running_var[t])
        else:
            mu = layer.running_mean[t]
            var = layer.running_var[t]
        mu_used[t] = mu
        var_used[t] = var
        drive = _normalize(z, mu, var, layer.eps, layer.gamma[t], layer.shift[t])
        if layer.recurrent is not None:
            drive = drive + spikes @ layer.recurrent
        membrane = neuron.membrane_update(membrane, spikes, drive, beta, cfg)
        if smooth_spikes:
            spikes = neuron.smoothed_spike(membrane, cfg)
        else:
            spikes = fire(membrane, cfg)
        counts += spikes
        rec_spk.append(spikes)
        if record:
            rec_inputs.append(frames[t])
            rec_pre.append(z)
            rec_mem.append(membrane)

    if mode == "train":
        layer.batches_tracked += 1
    return LayerForwardTrace(
        mode=mode,
        smoothed=smooth_spikes,
        batch_size=batch,
        counts=counts,
        mu=mu_used,
        var=var_used,
        spikes=rec_spk,
        inputs=rec_inputs,
        pre_norm=rec_pre,
        membranes=rec_mem,
        gamma=layer.gamma,
        shift=layer.shift,
        eps=layer.eps,
    )


# A step runs its elementwise passes over row blocks of about this many
# elements, so that a block's buffers stay in the per-core cache between
# passes. Blocking changes no result: every element sees the same ops.
BLOCK_ELEMENTS = 1 << 15

# Label scoring rolls out whole overlays in chunks of at most about this
# many rows x n_out (at least one overlay per chunk), so its buffers do not
# grow with the class count.
CHUNK_ELEMENTS = 1 << 18


class EvalRollout:
    """One layer's eval-mode state for a timestep-major rollout, kept in place.

    Preallocated buffers of up to `rows` rows hold the drive, membrane,
    spikes, recurrent drive and spike counts of the current timestep only,
    plus one row block of scratch; nothing is recorded. `reset` starts a new
    rollout on the same buffers. Every step applies the ufuncs of
    `layer_forward(mode="eval")` in its order (normalization, then recurrent
    drive, then `neuron.advance_membrane`, then `neuron.fire`), so
    membranes, spikes and counts equal the reference's bit for bit.
    """

    def __init__(self, layer: SpikingLayer, rows: int):
        self.layer = layer
        self.beta = neuron.effective_decay(layer.decay_raw, layer.neuron)
        self.std = np.sqrt(layer.running_var + layer.eps)  # (T, n_out)
        shape = (rows, layer.n_out)
        self._drive = np.empty(shape)
        self._membrane = np.empty(shape)
        self._spikes = np.empty(shape)
        self._counts = np.empty(shape)
        self._recurrent_drive = None if layer.recurrent is None else np.empty(shape)
        self.block = max(1, BLOCK_ELEMENTS // layer.n_out)
        self.scratch = np.empty((min(rows, self.block), layer.n_out))
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
        """z = x W^T, checked finite; written to `out` when given."""
        z = np.matmul(x, self.layer.weights.T, out=out)
        if not np.all(np.isfinite(z)):
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
        mean, std = layer.running_mean[t], self.std[t]
        gamma, shift = layer.gamma[t], layer.shift[t]
        for rows in self.blocks:
            drive, u, s, counts = (
                self.drive[rows], self.membrane[rows], self.spikes[rows],
                self.counts[rows],
            )
            tmp = self.scratch[: rows.stop - rows.start]
            np.subtract(z[rows], mean, out=drive)
            np.divide(drive, std, out=drive)
            np.multiply(gamma, drive, out=drive)
            np.add(drive, shift, out=drive)
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
    """
    if trace.mode != "train":
        raise UsageError("layer_backward needs a train-mode trace")
    if not trace.recorded:
        raise UsageError("layer_backward needs a trace recorded with record=True")
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
    d_weights = np.zeros_like(layer.weights)
    d_gamma = np.zeros_like(layer.gamma)
    d_shift = np.zeros_like(layer.shift)
    d_beta = np.zeros(n) if layer.decay_raw is not None else None
    d_rec = np.zeros_like(layer.recurrent) if layer.recurrent is not None else None

    du_next = None  # dL/dU[t+1]
    for t in reversed(range(t_steps)):
        membrane = trace.membranes[t]
        spikes = trace.spikes[t]
        d_spike = d_counts.copy()
        if layer.recurrent is not None and du_next is not None:
            d_spike += du_next @ layer.recurrent.T
        du = d_spike * neuron.surrogate_grad(membrane, cfg)
        if du_next is not None:
            carry = beta * (1.0 - spikes) if zero_reset else beta
            du = du + du_next * carry
        if t > 0:
            prev_mem = trace.membranes[t - 1]
            prev_spk = trace.spikes[t - 1]
            if d_beta is not None:
                path = prev_mem * (1.0 - prev_spk) if zero_reset else prev_mem
                d_beta += (du * path).sum(axis=0)
            if d_rec is not None:
                d_rec += prev_spk.T @ du
        # normalization backward (biased batch variance)
        inv_std = 1.0 / np.sqrt(trace.var[t] + layer.eps)
        xhat = (trace.pre_norm[t] - trace.mu[t]) * inv_std
        d_gamma[t] = (du * xhat).sum(axis=0)
        d_shift[t] = du.sum(axis=0)
        d_xhat = du * layer.gamma[t]
        dz = (inv_std / batch) * (
            batch * d_xhat
            - d_xhat.sum(axis=0)
            - xhat * (d_xhat * xhat).sum(axis=0)
        )
        d_weights += dz.T @ trace.inputs[t]
        du_next = du

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
