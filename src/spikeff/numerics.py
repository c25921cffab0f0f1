"""Dense float64 substrate: Adam updates and seeded RNG streams.

All activations and parameters are plain 2-D numpy arrays in row-major,
batch-major layout (batch index = row), so batch reductions are column-wise
folds. `adam_update` rejects non-finite gradients.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ShapeError


class RngStream:
    """Deterministic counter-based random stream (Philox).

    An identical seed reproduces the identical draw sequence across runs and
    platforms. Independent substreams are derived with integer keys so weight
    init, shuffling and negative-label sampling never share state.
    """

    algorithm = "philox4x64"

    def __init__(self, seed: int, key: tuple = ()):
        self.seed = int(seed)
        self.key = tuple(int(k) for k in key)
        self.generator = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(self.seed, spawn_key=self.key))
        )

    def substream(self, *key: int) -> "RngStream":
        """Derive an independent stream; same (seed, key) -> same stream."""
        return RngStream(self.seed, self.key + key)

    def permutation(self, n: int) -> np.ndarray:
        return self.generator.permutation(n)

    def uniform(self, size=None, low=0.0, high=1.0) -> np.ndarray:
        return self.generator.uniform(low, high, size)

    def normal(self, size=None, loc=0.0, scale=1.0) -> np.ndarray:
        return self.generator.normal(loc, scale, size)

    def integers(self, low: int, high: int, size=None) -> np.ndarray:
        return self.generator.integers(low, high, size=size)


@dataclass
class AdamState:
    """Optimizer state for one parameter tensor."""

    first_moment: np.ndarray
    second_moment: np.ndarray
    step: int = 0
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def for_param(cls, param: np.ndarray, lr: float = 1e-3) -> "AdamState":
        return cls(np.zeros_like(param), np.zeros_like(param), lr=lr)


def adam_update(
    param: np.ndarray, grad: np.ndarray, state: AdamState, name: str = "param"
) -> np.ndarray:
    """One Adam step; returns the updated parameters and mutates `state`.

    Standard recursion with bias correction:
        m <- b1*m + (1-b1)*g,  v <- b2*v + (1-b2)*g^2
        p <- p - lr * m_hat / (sqrt(v_hat) + eps)
    """
    if param.shape != grad.shape or param.shape != state.first_moment.shape:
        raise ShapeError(
            f"adam_update({name}): param {param.shape}, grad {grad.shape}, "
            f"moments {state.first_moment.shape} must all match"
        )
    if not np.all(np.isfinite(grad)):
        raise NumericError(
            f"non-finite gradient entries for {name} at step {state.step + 1}"
        )
    state.step += 1
    state.first_moment *= state.beta1
    state.first_moment += (1.0 - state.beta1) * grad
    state.second_moment *= state.beta2
    state.second_moment += (1.0 - state.beta2) * np.square(grad)
    m_hat = state.first_moment / (1.0 - state.beta1**state.step)
    v_hat = state.second_moment / (1.0 - state.beta2**state.step)
    return param - state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
