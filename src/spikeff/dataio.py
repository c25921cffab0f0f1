"""Dataset ingestion, scaling and label-overlay machinery.

Supported sources: IDX image/label pairs (the canonical MNIST distribution),
BSE1 binned spike-event containers, and seeded synthetic generators. Inputs
are stored batch-major as (num_samples, timesteps * input_dim) float64 rows;
static datasets have timesteps == 1.

Label overlay replaces the first `class_count` channels of a sample with
zeros and writes the sample's own maximum value m at the overlay label's
channel. For temporal data the overlay is applied at every timestep with m
taken over the whole sample's bins.
"""

import gzip
import math
import pickle
import struct
import warnings
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import (
    DataConsistencyError,
    FormatError,
    ShapeError,
    TruncatedFileError,
    UsageError,
)
from .numerics import RngStream

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801
BSE_MAGIC = b"BSE1"


# ---------------------------------------------------------------------------
# containers
# ---------------------------------------------------------------------------


@dataclass
class Dataset:
    """Immutable-by-convention dataset; safe for concurrent reads."""

    inputs: np.ndarray  # (n, timesteps * input_dim)
    labels: np.ndarray  # (n,) int64
    class_count: int
    input_dim: int  # channels per timestep
    temporal: bool = False
    timesteps: int = 1

    def __post_init__(self):
        self.inputs = np.ascontiguousarray(self.inputs, dtype=np.float64)
        self.labels = np.ascontiguousarray(self.labels, dtype=np.int64)
        n = self.inputs.shape[0]
        if self.labels.shape != (n,):
            raise ShapeError(
                f"{n} samples but {self.labels.shape[0]} labels"
            )
        if self.inputs.shape[1] != self.timesteps * self.input_dim:
            raise ShapeError(
                f"inputs have {self.inputs.shape[1]} columns, expected "
                f"timesteps*input_dim = {self.timesteps * self.input_dim}"
            )
        if not self.temporal and self.timesteps != 1:
            raise ShapeError("static datasets must have timesteps == 1")
        if self.input_dim < self.class_count:
            raise ShapeError(
                f"input_dim {self.input_dim} < class_count {self.class_count}; "
                "label embedding needs class_count leading channels"
            )
        if n and (self.labels.min() < 0 or self.labels.max() >= self.class_count):
            raise DataConsistencyError(
                f"labels must lie in [0, {self.class_count}), got range "
                f"[{self.labels.min()}, {self.labels.max()}]"
            )

    @property
    def num_samples(self) -> int:
        return self.inputs.shape[0]


@dataclass
class SampleBatch:
    """One mini-batch of rows plus the structural fields needed to frame them."""

    inputs: np.ndarray  # (B, timesteps * input_dim)
    labels: np.ndarray  # (B,)
    input_dim: int
    timesteps: int = 1

    @property
    def size(self) -> int:
        return self.inputs.shape[0]

    def frames(self, run_timesteps: int) -> Sequence[np.ndarray]:
        return time_frames(self.inputs, self.input_dim, self.timesteps, run_timesteps)


def time_frames(
    inputs: np.ndarray, input_dim: int, timesteps: int, run_timesteps: int
) -> Sequence[np.ndarray]:
    """Per-timestep (B, input_dim) frames of a batch.

    Static rows (timesteps == 1) are presented as a constant input current,
    without a copy: the same matrix object at every one of the run's
    timesteps. Temporal rows must match the run length exactly; they are
    returned as one C-contiguous timestep-major (T, B, input_dim) copy
    whose entry t is the rows' t-th column block, the layout of every
    stacked array in a layer's trace.
    """
    if timesteps == 1:
        return [inputs] * run_timesteps
    if timesteps != run_timesteps:
        raise UsageError(
            f"temporal data has {timesteps} timesteps but the run wants "
            f"{run_timesteps}"
        )
    return np.ascontiguousarray(
        inputs.reshape(inputs.shape[0], timesteps, input_dim).transpose(1, 0, 2)
    )


# ---------------------------------------------------------------------------
# label overlay
# ---------------------------------------------------------------------------


def embed_label(batch: SampleBatch, overlay_labels, class_count: int) -> SampleBatch:
    """Overlay the given labels onto a batch; returns a new batch whose
    `labels` are the overlay labels.

    Per row: m = max over the ORIGINAL row (all timesteps); the first
    class_count channels of every timestep are zeroed and channel
    overlay_labels[b] is set to m; all other channels are copied unchanged.
    The positive variant is `embed_label(batch, batch.labels, c)`.
    """
    overlay = np.ascontiguousarray(overlay_labels, dtype=np.int64)
    if overlay.shape != (batch.size,):
        raise ShapeError(
            f"overlay labels shape {overlay.shape} != batch size ({batch.size},)"
        )
    if overlay.size and (overlay.min() < 0 or overlay.max() >= class_count):
        raise DataConsistencyError(f"overlay labels must lie in [0, {class_count})")
    if batch.input_dim < class_count:
        raise ShapeError(
            f"input_dim {batch.input_dim} < class_count {class_count}"
        )
    b = batch.size
    m = batch.inputs.max(axis=1)
    framed = batch.inputs.reshape(b, batch.timesteps, batch.input_dim).copy()
    framed[:, :, :class_count] = 0.0
    framed[np.arange(b), :, overlay] = m[:, None]
    width = batch.timesteps * batch.input_dim
    return SampleBatch(
        framed.reshape(b, width), overlay, batch.input_dim, batch.timesteps
    )


def scale_to_unit(dataset: Dataset) -> Dataset:
    """Global min-max scaling into [0, 1]; idempotent on already-scaled data."""
    lo = float(dataset.inputs.min()) if dataset.num_samples else 0.0
    hi = float(dataset.inputs.max()) if dataset.num_samples else 0.0
    if hi == lo:
        warnings.warn("constant dataset: min == max, scaling to all zeros")
        scaled = np.zeros_like(dataset.inputs)
    else:
        scaled = (dataset.inputs - lo) / (hi - lo)
    return Dataset(
        scaled,
        dataset.labels,
        dataset.class_count,
        dataset.input_dim,
        dataset.temporal,
        dataset.timesteps,
    )


def subset(dataset: Dataset, count: int) -> Dataset:
    """First `count` samples, preserving order (deterministic)."""
    return Dataset(
        dataset.inputs[:count],
        dataset.labels[:count],
        dataset.class_count,
        dataset.input_dim,
        dataset.temporal,
        dataset.timesteps,
    )


def iter_batches(
    dataset: Dataset,
    batch_size: int,
    rng: Optional[RngStream] = None,
    shuffle: bool = True,
) -> Iterator[SampleBatch]:
    """Yield mini-batches; the final batch may be smaller.

    Shuffling draws one permutation from `rng`, so a fixed seed replays the
    same batch order every run.
    """
    n = dataset.num_samples
    if shuffle:
        if rng is None:
            raise UsageError("shuffling requires an RngStream")
        order = rng.permutation(n)
    else:
        order = np.arange(n)
    for start in range(0, n, batch_size):
        idx = order[start : start + batch_size]
        yield SampleBatch(
            dataset.inputs[idx],
            dataset.labels[idx],
            dataset.input_dim,
            dataset.timesteps,
        )


# ---------------------------------------------------------------------------
# IDX files (canonical MNIST distribution: big-endian magic, dims, raw bytes)
# ---------------------------------------------------------------------------


def _open_maybe_gz(path: str):
    """Open raw or gzip-compressed files (MNIST ships as .gz)."""
    if str(path).endswith(".gz"):
        return gzip.open(path, "rb")
    return open(path, "rb")


def read_exact(f, count: int, path: str) -> bytes:
    """Read exactly `count` bytes or raise TruncatedFileError."""
    data = f.read(count)
    if len(data) != count:
        raise TruncatedFileError(path, f.tell(), count - len(data))
    return data


def _read_be_u32(f, path: str) -> int:
    return struct.unpack(">I", read_exact(f, 4, path))[0]


def load_idx(
    images_path, labels_path, class_count: Optional[int] = None
) -> Dataset:
    """Load an IDX image/label pair as a static dataset.

    Pixel bytes are scaled to [0, 1] by /255 and images flattened row-major
    to d = H*W. The label file's class count is inferred as max(label)+1
    unless given explicitly.
    """
    images_path, labels_path = str(images_path), str(labels_path)
    with _open_maybe_gz(images_path) as f:
        magic = _read_be_u32(f, images_path)
        if magic != IDX_IMAGE_MAGIC:
            raise FormatError(
                f"{images_path}: bad image magic 0x{magic:08x}, "
                f"expected 0x{IDX_IMAGE_MAGIC:08x}"
            )
        count = _read_be_u32(f, images_path)
        rows = _read_be_u32(f, images_path)
        cols = _read_be_u32(f, images_path)
        raw = read_exact(f, count * rows * cols, images_path)
    pixels = np.frombuffer(raw, dtype=np.uint8).reshape(count, rows * cols)

    with _open_maybe_gz(labels_path) as f:
        magic = _read_be_u32(f, labels_path)
        if magic != IDX_LABEL_MAGIC:
            raise FormatError(
                f"{labels_path}: bad label magic 0x{magic:08x}, "
                f"expected 0x{IDX_LABEL_MAGIC:08x}"
            )
        label_count = _read_be_u32(f, labels_path)
        labels = np.frombuffer(
            read_exact(f, label_count, labels_path), dtype=np.uint8
        )
    if label_count != count:
        raise DataConsistencyError(
            f"{count} images but {label_count} labels "
            f"({images_path} vs {labels_path})"
        )
    if class_count is None:
        class_count = int(labels.max()) + 1 if count else 1
    return Dataset(
        pixels.astype(np.float64) / 255.0,
        labels.astype(np.int64),
        class_count,
        rows * cols,
    )


def write_idx_images(path, images: np.ndarray) -> None:
    """Write (n, H, W) uint8 images in IDX format (fixture/testing helper)."""
    images = np.ascontiguousarray(images, dtype=np.uint8)
    n, h, w = images.shape
    with open(path, "wb") as f:
        f.write(struct.pack(">IIII", IDX_IMAGE_MAGIC, n, h, w))
        f.write(images.tobytes())


def write_idx_labels(path, labels: np.ndarray) -> None:
    labels = np.ascontiguousarray(labels, dtype=np.uint8)
    with open(path, "wb") as f:
        f.write(struct.pack(">II", IDX_LABEL_MAGIC, labels.shape[0]))
        f.write(labels.tobytes())


# ---------------------------------------------------------------------------
# BSE1 binned spike events
#
# magic "BSE1" | u32le num_samples, T, d, c | per sample: u8 label,
# then T*d float32 bin counts, row-major by timestep.
# ---------------------------------------------------------------------------


def _bse_record(timesteps: int, input_dim: int) -> np.dtype:
    """One BSE1 sample record: a u8 label, then T*d little-endian float32 bins."""
    return np.dtype([("label", "u1"), ("bins", "<f4", (timesteps * input_dim,))])


def write_binned_events(path, dataset: Dataset) -> None:
    """Write a dataset as a BSE1 container (values stored as float32).

    Raises FormatError, before the file is opened, when a label does not
    fit the format's u8 label field.
    """
    bad = np.flatnonzero((dataset.labels < 0) | (dataset.labels > 255))
    if bad.size:
        i = int(bad[0])
        raise FormatError(
            f"{path}: sample {i} has label {int(dataset.labels[i])}, but the "
            f"BSE1 label field is one byte (0..255)"
        )
    n = dataset.num_samples
    t, d, c = dataset.timesteps, dataset.input_dim, dataset.class_count
    records = np.empty(n, dtype=_bse_record(t, d))
    records["label"] = dataset.labels
    records["bins"] = dataset.inputs
    with open(path, "wb") as f:
        f.write(BSE_MAGIC)
        f.write(struct.pack("<IIII", n, t, d, c))
        f.write(records.tobytes())


def load_binned_events(path) -> Dataset:
    """Read a BSE1 container as a temporal dataset."""
    path = str(path)
    with open(path, "rb") as f:
        magic = read_exact(f, 4, path)
        if magic != BSE_MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r}, expected {BSE_MAGIC!r}")
        n, t, d, c = struct.unpack("<IIII", read_exact(f, 16, path))
        if t < 1 or d < 1 or d < c:
            raise DataConsistencyError(
                f"{path}: inconsistent header (num_samples={n}, T={t}, d={d}, c={c})"
            )
        record = _bse_record(t, d)
        payload = f.read()
    if len(payload) != n * record.itemsize:
        raise DataConsistencyError(
            f"{path}: header declares {n} samples ({n * record.itemsize} payload "
            f"bytes) but file carries {len(payload)}"
        )
    records = np.frombuffer(payload, dtype=record, count=n)
    return Dataset(records["bins"], records["label"], c, d, temporal=True, timesteps=t)


# ---------------------------------------------------------------------------
# synthetic generators
# ---------------------------------------------------------------------------

_BLOB_STRUCTURE_SEED = 71302  # class geometry is fixed; only sampling varies


def make_blob_dataset(
    n: int, input_dim: int = 12, class_count: int = 2, seed: int = 0, spread: float = 0.08
) -> Dataset:
    """Linearly separable Gaussian blobs in [0, 1]^d, one blob per class.

    Blob centres are derived from a fixed structural seed so train and test
    splits generated with different seeds share the same geometry.
    """
    structure = RngStream(_BLOB_STRUCTURE_SEED)
    centers = structure.uniform((class_count, input_dim), 0.2, 0.8)
    rng = RngStream(seed)
    labels = rng.integers(0, class_count, n)
    noise = rng.normal((n, input_dim), scale=spread)
    inputs = np.clip(centers[labels] + noise, 0.0, 1.0)
    return Dataset(inputs, labels, class_count, input_dim)


def make_temporal_dataset(
    n: int,
    input_dim: int = 20,
    timesteps: int = 10,
    class_count: int = 2,
    seed: int = 0,
) -> Dataset:
    """Two-class spike-timing task: classes differ only in WHEN channels fire.

    Channels class_count .. class_count+T-1 each carry one spike per sample;
    even classes sweep rising (channel k fires near step k), odd classes
    sweep falling (step T-1-k). Timing jitter of +-1 step wraps around, so
    per-channel totals match exactly across classes and per-timestep totals
    match in distribution: counting alone cannot separate the classes. Any
    remaining channels fire once at a class-independent random step. Bin
    counts are small integers (exact in f32).
    """
    if input_dim < class_count + timesteps:
        raise ValueError(
            f"need input_dim >= class_count + timesteps "
            f"({class_count + timesteps}), got {input_dim}"
        )
    rng = RngStream(seed)
    labels = rng.integers(0, class_count, n)
    bins = np.zeros((n, timesteps, input_dim))
    timed = np.arange(class_count, class_count + timesteps)
    base = timed - class_count  # channel k fires at step k (rising sweep)
    distract = np.arange(class_count + timesteps, input_dim)
    for i in range(n):
        slots = base if labels[i] % 2 == 0 else (timesteps - 1) - base
        jitter = rng.integers(-1, 2, timed.size)
        bins[i, (slots + jitter) % timesteps, timed] = 1.0
        if distract.size:
            bins[i, rng.integers(0, timesteps, distract.size), distract] = 1.0
    noise = rng.uniform((n, timesteps, input_dim)) < 0.02
    bins += noise
    return Dataset(
        bins.reshape(n, -1), labels, class_count, input_dim,
        temporal=True, timesteps=timesteps,
    )


# ---------------------------------------------------------------------------
# CIFAR-10 (canonical python pickle batches, flattened to d = 3072)
# ---------------------------------------------------------------------------


class _Stand:
    """numpy.dtype or ndarray while a batch is unpickled: keeps the call's
    arguments and the state, so numpy never receives unchecked pickle state."""

    def __init__(self, *args):
        self.args, self.state = args, None

    def __setstate__(self, state):
        self.state = state


def _array(raw, dtype: _Stand, shape, order="C") -> np.ndarray:
    """The checked array of `shape` whose bytes are `raw`: a plain numeric
    dtype (`dtype(code, ...)` with state `(version, byte order, ...)`) and a
    byte count that fills the shape."""
    code, byteorder = (
        v.decode("ascii") if isinstance(v, bytes) else v
        for v in (dtype.args[0], dtype.state[1])
    )
    dtype, shape = np.dtype(byteorder + code), tuple(int(n) for n in shape)
    if (dtype.kind not in "biuf" or not isinstance(raw, (bytes, bytearray))
            or min(shape, default=0) < 0
            or len(raw) != math.prod(shape) * dtype.itemsize
            or order not in ("C", "F")):
        raise ValueError(f"payload is not a plain numeric {shape} {dtype} array")
    return np.frombuffer(raw, dtype).reshape(shape, order=order)


def _unpickled(value):
    """A batch entry, a stand-in ndarray made into its checked array."""
    if isinstance(value, _Stand):
        _version, shape, dtype, fortran, raw = value.state
        return _array(raw, dtype, shape, "F" if fortran else "C")
    return value


# The only globals a CIFAR-10 batch may name: numpy's array, dtype and scalar
# reconstruction (protocols 2-4, as shipped) and its protocol-5 buffer form,
# each mapped to a stand-in. Old files name numpy.core, numpy 2 numpy._core.
_ARRAY_GLOBALS = {("numpy", "ndarray"): _Stand, ("numpy", "dtype"): _Stand}
for _core in ("numpy.core", "numpy._core"):
    _ARRAY_GLOBALS.update({
        (f"{_core}.multiarray", "_reconstruct"): lambda *args: _Stand(),
        (f"{_core}.multiarray", "scalar"): lambda dt, raw: _array(raw, dt, ())[()],
        (f"{_core}.numeric", "_frombuffer"): _array,
    })


class _ArrayUnpickler(pickle.Unpickler):
    """Unpickles plain data and numeric numpy arrays; refuses every other
    global, so a crafted file cannot name a callable to run."""

    def find_class(self, module, name):
        try:
            return _ARRAY_GLOBALS[(module, name)]
        except KeyError:
            raise pickle.UnpicklingError(f"global {module}.{name} is not allowed")


def load_cifar10(directory, split: str = "train") -> Dataset:
    """Load CIFAR-10 from a cifar-10-batches-py directory, flattened, /255.

    Batches are unpickled with only numpy's array globals allowed; a file
    that is not a CIFAR-10 batch raises FormatError.
    """
    from pathlib import Path

    directory = Path(directory)
    names = (
        [f"data_batch_{i}" for i in range(1, 6)] if split == "train" else ["test_batch"]
    )
    chunks, labels = [], []
    for name in names:
        path = directory / name
        if not path.exists():
            raise FileNotFoundError(f"missing CIFAR-10 batch file: {path}")
        with open(path, "rb") as f:
            try:
                batch = _ArrayUnpickler(f, encoding="bytes").load()
                data = np.asarray(_unpickled(batch[b"data"]), dtype=np.float64)
                label = np.asarray(_unpickled(batch[b"labels"]), dtype=np.int64)
            except Exception as exc:  # malformed pickles raise almost any type
                raise FormatError(f"{path}: not a CIFAR-10 batch ({exc!r})") from exc
        if data.ndim != 2 or data.shape[1] != 3072 or label.shape != data.shape[:1]:
            raise FormatError(
                f"{path}: data has shape {data.shape} and labels {label.shape}, "
                "expected (n, 3072) and (n,)"
            )
        chunks.append(data / 255.0)
        labels.append(label)
    return Dataset(np.vstack(chunks), np.concatenate(labels), 10, 3072)
