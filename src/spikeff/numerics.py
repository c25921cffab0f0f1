"""Adam updates, seeded RNG streams, the row blocks and per-core row
ranges of a pass, the BLAS thread count and the threads that independent
calls run on.

Parameters are plain numpy arrays; `adam_update` rejects non-finite
gradients, makes a state's moments at its first step and computes in its
parameter's dtype. `row_blocks` and
`worker_ranges` are the one split of a pass's rows, `worker_count` the
calls that may run at once. `run_all` runs independent calls, inline or
on every usable core, always with the loaded OpenBLAS on one thread:
every GEMM of the package runs inside it, so its bits do not depend on
the BLAS thread count.
"""

import ctypes
import functools
import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import ClassVar, List, Optional

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
    """What Adam keeps for one parameter tensor: its moments and step.

    The decay rates and eps are the same for every tensor (class
    constants); the learning rate is passed to each update. A state starts
    without moments: `adam_update` makes both, zeros of its parameter's
    shape, at the state's first step, so a network that never trains
    (built, copied or loaded for eval) holds only its tensors.
    """

    beta1: ClassVar[float] = 0.9
    beta2: ClassVar[float] = 0.999
    eps: ClassVar[float] = 1e-8

    first_moment: Optional[np.ndarray] = None
    second_moment: Optional[np.ndarray] = None
    step: int = 0


def adam_update(
    param: np.ndarray, grad: np.ndarray, state: AdamState, lr: float,
    name: str = "param",
) -> None:
    """One Adam step at learning rate `lr`, written into `param` and `state`.

    Standard recursion with bias correction, from m = v = 0:
        m <- b1*m + (1-b1)*g,  v <- b2*v + (1-b2)*g^2
        p <- p - lr * m_hat / (sqrt(v_hat) + eps)

    A state without moments gets both as `np.zeros_like(param)` once the
    shapes and the gradient are checked; a refused update leaves it, and
    `param`, as they were. The ufuncs and their order are those of these
    expressions, in two parameter-sized scratch arrays beside the moments.
    """
    moments = state.first_moment
    if param.shape != grad.shape or (
        moments is not None and param.shape != moments.shape
    ):
        raise ShapeError(
            f"adam_update({name}): param {param.shape}, grad {grad.shape}, "
            f"moments {None if moments is None else moments.shape} must all match"
        )
    if not np.all(np.isfinite(grad)):
        raise NumericError(
            f"non-finite gradient entries for {name} at step {state.step + 1}"
        )
    if moments is None:
        state.first_moment = np.zeros_like(param)
        state.second_moment = np.zeros_like(param)
    state.step += 1
    m, v = state.first_moment, state.second_moment
    scratch = np.empty_like(m)
    m *= state.beta1
    m += np.multiply(1.0 - state.beta1, grad, out=scratch)
    v *= state.beta2
    np.square(grad, out=scratch)
    v += np.multiply(1.0 - state.beta2, scratch, out=scratch)
    m_hat = np.divide(m, 1.0 - state.beta1**state.step, out=scratch)
    update = np.multiply(lr, m_hat, out=scratch)
    denom = np.divide(v, 1.0 - state.beta2**state.step)  # v_hat
    np.sqrt(denom, out=denom)
    np.add(denom, state.eps, out=denom)
    np.divide(update, denom, out=update)
    np.subtract(param, update, out=param)


# (get, set) symbol pairs of the thread count, in the order they are tried:
# numpy's bundled scipy-openblas, a 64-bit-integer OpenBLAS, a plain one.
_OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.lru_cache(maxsize=None)
def _openblas_thread_calls():
    """(get, set) of the thread count of the OpenBLAS numpy loaded, or None.

    The library is found among the process's mapped files; where there is
    no /proc/self/maps, no OpenBLAS or no such symbol, there is no setter.
    """
    try:
        with open("/proc/self/maps") as f:
            paths = {ln.split()[-1] for ln in f if "openblas" in ln and "/" in ln}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_THREAD_SYMBOLS:
            get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and set_ is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                set_.restype, set_.argtypes = None, [ctypes.c_int]
                return get, set_
    return None


@contextmanager
def blas_threads(count: int):
    """Run the block with the loaded OpenBLAS on `count` threads.

    The count is process-wide while the block runs, and the previous count
    is restored on every exit, exceptions included. Yields the previous
    count, or None where no setter is found; the block then runs with the
    BLAS as it is.
    """
    calls = _openblas_thread_calls()
    if calls is None:
        yield None
        return
    get, set_ = calls
    previous = get()
    set_(count)
    try:
        yield previous
    finally:
        set_(previous)


def _usable_cores() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# A step runs its elementwise passes over row blocks of about this many
# elements, so that a block's buffers stay in the per-core cache between
# passes. Blocking changes no result: every element sees the same ops.
BLOCK_ELEMENTS = 1 << 15


def row_blocks(rows: int, width: int) -> List[slice]:
    """`rows` rows of a `width`-wide buffer in contiguous blocks of about
    `BLOCK_ELEMENTS` elements, the last maybe short; no rows make one
    empty block."""
    step = max(1, BLOCK_ELEMENTS // width)
    blocks = [slice(lo, min(lo + step, rows)) for lo in range(0, rows, step)]
    return blocks or [slice(0, 0)]


def worker_count() -> int:
    """Calls a `run_all` may run at once: one per usable core, or one
    where no OpenBLAS thread setter is found, since threads would then
    share BLAS's own threads."""
    return 1 if _openblas_thread_calls() is None else _usable_cores()


def worker_ranges(rows: int, width: int) -> List[slice]:
    """`rows` rows split into contiguous runs of whole `row_blocks`, one
    per worker of a `run_all`: at most `worker_count()` ranges and one per
    block.
    """
    blocks = row_blocks(rows, width)
    per = -(-len(blocks) // min(worker_count(), len(blocks)))  # blocks a range
    runs = [blocks[i : i + per] for i in range(0, len(blocks), per)]
    return [slice(run[0].start, run[-1].stop) for run in runs]


def thread_setup() -> dict:
    """The usable cores, and whether an OpenBLAS thread setter was found.

    With a setter, `run_all` pins BLAS to one thread, so training, eval
    and predict outputs are the same on any host and at any BLAS thread
    count; without one they follow BLAS's own thread count.
    """
    return {
        "usable_cores": _usable_cores(),
        "blas_thread_setter": _openblas_thread_calls() is not None,
    }


_pool = None  # the ThreadPoolExecutor of `_worker_pool`


def _worker_pool():
    """The threads that run every call of a `run_all` but the first, made
    once per process."""
    global _pool
    if _pool is None:
        # Imported on first use: inline work starts no thread, and the
        # module adds about 0.7 MB to the resident size of a process.
        from concurrent.futures import ThreadPoolExecutor

        _pool = ThreadPoolExecutor(
            max(1, _usable_cores() - 1), thread_name_prefix="spikeff-worker"
        )
    return _pool


def _forget_pool() -> None:
    """A forked child has none of its parent's pool threads: make its own."""
    global _pool
    _pool = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def run_all(calls, workers: int, before=None):
    """Run independent zero-argument calls; returns their results in order.

    They run with the loaded OpenBLAS on one thread (`blas_threads`), as
    does `before`, when given: a zero-argument call made on the calling
    thread before any of the calls starts (work that they all read). With
    one worker (`worker_ranges` gave one range) or one call they run
    inline, one after another, with no pool. Otherwise the calling thread runs the
    first call and a thread pool the others, so each core runs one call's
    GEMMs and elementwise work. Every call has finished before this
    returns or raises; the calling thread's error, else the first failed
    call's, is raised here. A call may itself call `run_all` only inline:
    a pool thread waiting on the pool could wait for ever.
    """
    with blas_threads(1):
        if before is not None:
            before()
        if workers == 1 or len(calls) == 1:
            return [call() for call in calls]
        futures = [_worker_pool().submit(call) for call in calls[1:]]
        try:
            first = calls[0]()
        finally:
            for future in futures:
                future.exception()  # waits for the call, raising nothing
    return [first] + [future.result() for future in futures]
