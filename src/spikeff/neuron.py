"""Leaky integrate-and-fire population dynamics and the arctan surrogate.

Membrane recursion (reset by subtraction is the default):

    U[t+1] = beta (.) U[t] + drive[t+1] - thr * S[t]        (subtract)
    U[t+1] = beta (.) U[t] (.) (1 - S[t]) + drive[t+1]      (zero)

Spikes are emitted where U >= thr (inclusive). The decay can be a learnable
per-neuron parameter stored as an unconstrained raw value and mapped through
a sigmoid so it always stays in (0, 1).
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError

RESET_MODES = ("subtract", "zero")


@dataclass(frozen=True)
class NeuronConfig:
    """Static parameters for a LIF population.

    `decay` may be 1.0 (no leak) for diagnostics; learnable decay is always
    constrained to (0, 1) by the sigmoid parameterization.
    """

    threshold: float = 1.0
    decay: float = 0.99
    decay_learnable: bool = False
    reset_mode: str = "subtract"
    surrogate_slope: float = 2.0

    def __post_init__(self):
        bad = []
        if not self.threshold > 0:
            bad.append(f"threshold: must be > 0, got {self.threshold}")
        if not 0.0 < self.decay <= 1.0:
            bad.append(f"decay: must be in (0, 1], got {self.decay}")
        if self.reset_mode not in RESET_MODES:
            bad.append(
                f"reset_mode: must be one of {RESET_MODES}, got {self.reset_mode!r}"
            )
        if not self.surrogate_slope > 0:
            bad.append(f"surrogate_slope: must be > 0, got {self.surrogate_slope}")
        if bad:
            raise ConfigError(bad)


def sigmoid(x):
    """1 / (1 + exp(-x)), in x's floating dtype (float64 for a Python number)."""
    return 1.0 / (1.0 + np.exp(-np.asarray(x)))


def raw_decay_for(decay: float) -> float:
    """Inverse sigmoid; initial raw value for a learnable decay."""
    return math.log(decay / (1.0 - decay))


def effective_decay(decay_raw: Optional[np.ndarray], config: NeuronConfig):
    """Decay factor(s): sigmoid of the raw vector when learnable, else fixed."""
    if config.decay_learnable and decay_raw is not None:
        return sigmoid(decay_raw)
    return config.decay


def advance_membrane(
    membrane, spikes, drive, beta, config: NeuronConfig, out=None, scratch=None
) -> np.ndarray:
    """The membrane recursion: one step from the prior membrane and spikes.

    beta is `effective_decay`'s value. `spikes` may be bool (as train traces
    store them) or float: the reset term casts bool to exact 0.0/1.0, so both
    give the same bits. `out` may be `membrane` itself (an in-place step);
    `scratch`, when given, is a float buffer that holds the reset term (a
    unit threshold subtracts the spikes directly: thr * S == S). Its
    scalar is of the output's dtype, so bool spikes run that dtype's loop,
    not float64's (1 - S and thr * S are exact in either). The ufuncs and
    their order are fixed, so every caller gets the same bits.
    """
    out = np.multiply(beta, membrane, out=out)
    scalar = out.dtype.type
    if config.reset_mode == "zero":
        np.multiply(out, np.subtract(scalar(1.0), spikes, out=scratch), out=out)
        return np.add(out, drive, out=out)
    np.add(out, drive, out=out)
    if config.threshold == 1.0:  # 1.0 * s == s exactly: no reset-term pass
        return np.subtract(out, spikes, out=out)
    reset = np.multiply(scalar(config.threshold), spikes, out=scratch)
    return np.subtract(out, reset, out=out)


def membrane_update(
    membrane, spikes, drive, beta, config: NeuronConfig, out=None, scratch=None
) -> np.ndarray:
    """Next membrane, written to `out` (a new array when None); the reset is
    driven by the prior spikes.

    `layer_forward`'s entry to `advance_membrane`, looked up on this module
    so that profilers can wrap it; the in-place scoring step calls the
    kernel directly.
    """
    return advance_membrane(membrane, spikes, drive, beta, config, out, scratch)


def fire(membrane, config: NeuronConfig, out: np.ndarray) -> np.ndarray:
    """Spikes where the membrane reaches the threshold, written into `out`.

    The threshold is inclusive. `out` is bool, 1 byte a spike: a train
    trace's `spikes[t]` or an eval rollout block's `fired`.
    """
    return np.greater_equal(membrane, config.threshold, out=out)


def surrogate_grad(membrane: np.ndarray, config: NeuronConfig,
                   out: Optional[np.ndarray] = None) -> np.ndarray:
    """Pseudo-derivative of the spike function, centred at the threshold.

    (1/pi) / (1 + (pi * slope/2 * (U - thr))^2): maximal (1/pi) at threshold,
    even in (U - thr), strictly positive everywhere. One array holds every
    intermediate: `out` when given (a buffer of the membrane's shape and
    dtype, which may be the membrane itself), else a new one of the
    membrane's floating dtype.
    """
    k = math.pi * config.surrogate_slope / 2.0
    out = np.subtract(membrane, config.threshold, out=out)
    np.multiply(k, out, out=out)
    np.square(out, out=out)
    np.add(1.0, out, out=out)
    return np.divide(1.0 / math.pi, out, out=out)

