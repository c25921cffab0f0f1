"""Dataset ingestion and label-overlay machinery.

Supported sources: IDX image/label pairs (the canonical MNIST distribution),
BSE1 binned spike-event containers, and seeded synthetic generators. Inputs
are stored batch-major as (num_samples, timesteps * input_dim) rows, in the
floating dtype they are made in: float64 for IDX pixels (/255), CIFAR-10 and
synthetic rows, float32 for BSE1 bins, which stay memory-mapped in their
file. A layer's product casts them into its compute dtype. Static datasets
have timesteps == 1.

Label overlay replaces the first `class_count` channels of a sample with
zeros and writes the sample's own maximum value m at the overlay label's
channel. For temporal data the overlay is applied at every timestep with m
taken over the whole sample's bins. An overlaid batch is kept factored:
its base rows (the zeroed ones), m and the overlay labels, never the
overlaid rows themselves.
"""

import gzip
import math
import os
import pickle
import struct
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, NamedTuple, Optional, Sequence

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
    """Immutable-by-convention dataset; safe for concurrent reads.

    Floating-point inputs are kept as given, in their dtype and strides (a
    loaded BSE1 file's are a read-only float32 view of its mapped records);
    inputs of any other dtype are converted to float64.
    """

    inputs: np.ndarray  # (n, timesteps * input_dim)
    labels: np.ndarray  # (n,) int64
    class_count: int
    input_dim: int  # channels per timestep
    temporal: bool = False
    timesteps: int = 1

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs)
        if self.inputs.dtype.kind != "f":
            self.inputs = self.inputs.astype(np.float64)
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
    """One mini-batch of rows plus the structural fields needed to frame them.

    An overlaid batch (`embed_label`) also has `overlay_max`, each row's
    m: its `inputs` are then the base rows and its `labels` the overlay
    labels. The overlaid rows themselves are never written out.
    """

    inputs: np.ndarray  # (B, timesteps * input_dim)
    labels: np.ndarray  # (B,)
    input_dim: int
    timesteps: int = 1
    overlay_max: Optional[np.ndarray] = None  # (B,), an overlaid batch only

    @property
    def size(self) -> int:
        return self.inputs.shape[0]

    def frames(self, run_timesteps: int) -> Sequence[np.ndarray]:
        """`time_frames` of the rows, no copy; of an overlaid batch, its
        base rows' frames with the overlay beside them (`OverlaidFrames`)."""
        frames = time_frames(self.inputs, self.input_dim, self.timesteps, run_timesteps)
        if self.overlay_max is None:
            return frames
        return OverlaidFrames(frames, Overlay(self.overlay_max, self.labels))


class Overlay(NamedTuple):
    """A label overlay, factored: row b of the overlaid input is its base
    row with `peak[b]` added at channel `labels[b]` of every timestep (the
    base row is zero there). A layer's product of it is therefore
    `x_base W^T + peak (x) W[:, labels]` (`layer.product`)."""

    peak: np.ndarray  # (B,) each row's m
    labels: np.ndarray  # (B,) int64


class OverlaidFrames:
    """The frames of an overlaid batch: `time_frames`' frames of its base
    rows (`base`) and its `Overlay`.

    It is a sequence of the base frames (`len`, indexing and iteration go
    to `base`), so it is framed input wherever frames are taken, and
    `layer.layer_forward` applies the overlay to its product.
    """

    def __init__(self, base: Sequence[np.ndarray], overlay: Overlay):
        self.base = base
        self.overlay = overlay

    def __len__(self) -> int:
        return len(self.base)

    def __getitem__(self, t):
        return self.base[t]


def time_frames(
    inputs: np.ndarray, input_dim: int, timesteps: int, run_timesteps: int
) -> Sequence[np.ndarray]:
    """Per-timestep (B, input_dim) frames of a batch.

    Neither form copies the rows. Static rows (timesteps == 1) are
    presented as a constant input current: the same matrix object at every
    one of the run's timesteps. Temporal rows must match the run length
    exactly; they are returned as a timestep-major (T, B, input_dim) view
    of the sample-major rows, whose entry t is the rows' t-th column block
    (B rows, T * input_dim apart).
    """
    if timesteps == 1:
        return [inputs] * run_timesteps
    if timesteps != run_timesteps:
        raise UsageError(
            f"temporal data has {timesteps} timesteps but the run wants "
            f"{run_timesteps}"
        )
    return inputs.reshape(inputs.shape[0], timesteps, input_dim).transpose(1, 0, 2)


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

    The result is factored: its `inputs` are one copy of the base rows
    (the first class_count channels zeroed) and its `overlay_max` the m of
    each row; channel overlay_labels[b] of the overlaid row is base + m.
    """
    if batch.overlay_max is not None:
        raise UsageError("the batch is overlaid already; overlay the original")
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
    base = batch.inputs.reshape(b, batch.timesteps, batch.input_dim).copy()
    base[:, :, :class_count] = 0.0
    width = batch.timesteps * batch.input_dim
    return SampleBatch(
        base.reshape(b, width), overlay, batch.input_dim, batch.timesteps, m
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


def batch_count(num_samples: int, batch_size: int) -> int:
    """Batches of `batch_size` samples that `num_samples` samples make, the
    last maybe short; a `batch_size` below 1 is refused."""
    if batch_size < 1:
        raise UsageError(f"batch_size must be >= 1, got {batch_size}")
    return -(-num_samples // batch_size)


def iter_batches(
    dataset: Dataset,
    batch_size: int,
    rng: Optional[RngStream] = None,
) -> Iterator[SampleBatch]:
    """Yield mini-batches; the final batch may be smaller.

    Given `rng`, the batches are shuffled by one permutation drawn from it,
    so a fixed seed replays the same batch order every run; without, they
    are in file order. A `batch_size` below 1 is refused.
    """
    n = dataset.num_samples
    count = batch_count(n, batch_size)
    order = np.arange(n) if rng is None else rng.permutation(n)
    for k in range(count):
        idx = order[k * batch_size : (k + 1) * batch_size]
        yield SampleBatch(
            dataset.inputs[idx],
            dataset.labels[idx],
            dataset.input_dim,
            dataset.timesteps,
        )


# ---------------------------------------------------------------------------
# IDX files (canonical MNIST distribution: big-endian magic, dims, raw bytes)
# ---------------------------------------------------------------------------


READ_CHUNK = 1 << 24  # bytes


def _open_maybe_gz(path: str):
    """Open raw or gzip-compressed files (MNIST ships as .gz)."""
    if str(path).endswith(".gz"):
        return gzip.open(path, "rb")
    return open(path, "rb")


def read_exact(f, count: int, path: str) -> bytes:
    """Read exactly `count` bytes or raise TruncatedFileError, in chunks of
    at most `READ_CHUNK`: a header that declares more than its file holds,
    however much, allocates no more than the file backs. A longer read holds
    its bytes twice while the chunks are joined."""
    chunks, missing = [], count
    while missing > 0:
        chunk = f.read(min(missing, READ_CHUNK))
        if not chunk:
            raise TruncatedFileError(path, f.tell(), missing)
        chunks.append(chunk)
        missing -= len(chunk)
    return b"".join(chunks)


def read_array(f, shape: tuple, path: str) -> np.ndarray:
    """The next bytes of the regular file f as a new little-endian float64
    array of `shape`, read straight into it.

    A file that holds fewer bytes raises TruncatedFileError, before the
    array is made when its size says so, so a header cannot ask for more
    memory than its file backs.
    """
    wanted = 8 * math.prod(shape)
    size = os.fstat(f.fileno()).st_size
    if wanted > size - f.tell():
        raise TruncatedFileError(path, size, wanted - (size - f.tell()))
    out = np.empty(shape, dtype="<f8")
    got = f.readinto(out)
    if got != wanted:
        raise TruncatedFileError(path, f.tell(), wanted - got)
    return out


@contextmanager
def replacing(path):
    """The path of a temporary file beside `path` for the block to write;
    when the block ends without an error, it replaces `path` (`os.replace`).

    Until then the target is untouched; on any error the temporary file is
    removed, so a failed write leaves any previous file whole. A process
    that maps the old file keeps its inode, never a truncated one.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


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


def _bse_record(path: str, n: int, t: int, d: int, c: int) -> np.dtype:
    """One BSE1 sample record: a u8 label, then T*d little-endian float32 bins.

    numpy's largest record is 2**31 - 1 bytes; a file of longer records
    can be neither written nor read, and raises DataConsistencyError.
    """
    if 1 + 4 * t * d > np.iinfo(np.intc).max:
        raise DataConsistencyError(
            f"{path}: header (num_samples={n}, T={t}, d={d}, c={c}) declares "
            f"{1 + 4 * t * d}-byte sample records, over 2**31 - 1 bytes"
        )
    return np.dtype([("label", "u1"), ("bins", "<f4", (t * d,))])


def write_binned_events(path, dataset: Dataset) -> None:
    """Write a dataset as a BSE1 container (values stored as float32).

    The file is written beside `path` and then renamed over it
    (`replacing`), so a dataset that maps the old file keeps reading the
    old bytes, and a failed write leaves any previous file whole.

    Raises FormatError, before the file is opened, when a label does not
    fit the format's u8 label field, and DataConsistencyError when a
    sample's record would be too long to read back (`_bse_record`).
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
    records = np.empty(n, dtype=_bse_record(path, n, t, d, c))
    records["label"] = dataset.labels
    records["bins"] = dataset.inputs
    with replacing(path) as tmp, open(tmp, "wb") as f:
        f.write(BSE_MAGIC)
        f.write(struct.pack("<IIII", n, t, d, c))
        f.write(records.tobytes())


def load_binned_events(path) -> Dataset:
    """A BSE1 container as a temporal dataset whose inputs are its file.

    The payload is mapped read-only, not read: `inputs` is the strided
    float32 `bins` view of the mapped records, so a load allocates only the
    labels. A payload size other than the header's raises
    DataConsistencyError before anything is mapped. The mapping reads the
    file as it is on disk, so the file must not be modified in place while
    the dataset is alive; `write_binned_events` replaces a file instead.
    """
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
        record = _bse_record(path, n, t, d, c)
        carried = os.fstat(f.fileno()).st_size - f.tell()
        if carried != n * record.itemsize:
            raise DataConsistencyError(
                f"{path}: header declares {n} samples ({n * record.itemsize} "
                f"payload bytes) but file carries {carried}"
            )
        records = np.memmap(f, record, "r", offset=f.tell(), shape=n)
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

    Each sample's jitters and then its distractor steps are one row of a
    single bounded draw, the order in which per-sample draws would read
    the stream.
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
    # per row: a jitter in [-1, 2) per timed channel, then a step in
    # [0, T) per distractor channel
    low = np.repeat([-1, 0], [timed.size, distract.size])
    high = np.repeat([2, timesteps], [timed.size, distract.size])
    draws = rng.integers(low, high, (n, low.size))
    slots = np.where(labels[:, None] % 2 == 0, base, (timesteps - 1) - base)
    rows = np.arange(n)[:, None]
    bins[rows, (slots + draws[:, : timed.size]) % timesteps, timed] = 1.0
    bins[rows, draws[:, timed.size :], distract] = 1.0
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
    that is not a CIFAR-10 batch raises FormatError. The pixels stay as
    unpickled (bytes, as shipped) until they are cast into the one float64
    result, which is divided in place.
    """
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
                data = _unpickled(batch[b"data"])
                if not isinstance(data, np.ndarray):  # an `_array` is numeric
                    data = np.asarray(data, dtype=np.float64)
                label = np.asarray(_unpickled(batch[b"labels"]), dtype=np.int64)
            except Exception as exc:  # malformed pickles raise almost any type
                raise FormatError(f"{path}: not a CIFAR-10 batch ({exc!r})") from exc
        if data.ndim != 2 or data.shape[1] != 3072 or label.shape != data.shape[:1]:
            raise FormatError(
                f"{path}: data has shape {data.shape} and labels {label.shape}, "
                "expected (n, 3072) and (n,)"
            )
        chunks.append(data)
        labels.append(label)
    inputs = np.concatenate(chunks, dtype=np.float64)  # the one float64 copy
    inputs /= 255.0
    return Dataset(inputs, np.concatenate(labels), 10, 3072)
