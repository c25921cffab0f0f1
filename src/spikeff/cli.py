"""Experiment front door: presets, config files, and the run subcommands.

Config files are flat `key = value` text (see README for the full key list);
command-line flags override file values, which override preset values.
A successful training run leaves a config echo, a metrics CSV, a summary
JSON and a checkpoint in its directory; a failed one leaves a single
machine-readable error record, deletes whatever it had written itself and
puts back the previous run's artifacts byte for byte.
"""

import argparse
import dataclasses
import json
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, get_args, get_origin, get_type_hints

import numpy as np

from . import dataio, predictor, trainer
from .checkpoint import load_checkpoint, read_meta, save_checkpoint
from .errors import (
    ConfigError,
    DataConsistencyError,
    FormatError,
    NumericError,
    ShapeError,
    UsageError,
)
from .layer import parameter_counts
from .network import build_network
from .neuron import NeuronConfig
from .numerics import RngStream

DATA_ROOT_ENV = "SPIKEFF_DATA_ROOT"
KEY_INIT = 100  # rng substream for weight init


def _preset(dataset: str, **departures) -> dict:
    """The mnist preset's published values with one dataset's departures."""
    row = dict(dataset=dataset, input_dim=784, class_count=10, epochs=300,
               lr=0.001, batch_size=4096, timesteps=10, loss_sharpness=0.6,
               threshold=1.0, decay=0.99, hidden_sizes=[500, 500],
               decay_learnable=True, recurrent=False)
    row.update(departures)
    return row


# Shipped presets; every field can still be overridden by config file or flag.
PRESETS = {
    "mnist": _preset("mnist"),
    "fmnist": _preset("fmnist"),
    "kmnist": _preset("kmnist", threshold=1.2),
    "cifar10": _preset("cifar10", input_dim=3072, threshold=1.2, decay=0.8,
                       hidden_sizes=[2000, 2000]),
    "nmnist": _preset("nmnist", input_dim=2312, decay=0.9),
    "shd": _preset("shd", input_dim=700, class_count=20, epochs=500,
                   threshold=5.0, decay=0.9, decay_learnable=False,
                   recurrent=True),
}


@dataclass
class ExperimentConfig:
    dataset: str = "synthetic:blobs"
    hidden_sizes: List[int] = field(default_factory=lambda: [100, 100])
    input_dim: Optional[int] = None  # derived from the dataset when omitted
    class_count: Optional[int] = None
    threshold: float = 1.0
    decay: float = 0.99
    decay_learnable: bool = False
    recurrent: bool = False
    reset_mode: str = "subtract"
    timesteps: int = 10
    loss_sharpness: float = 0.6
    surrogate_slope: float = 2.0
    epochs: int = 1
    batch_size: int = 128
    lr: float = 0.001
    lr_milestones: Optional[List[int]] = None
    lr_factors: Optional[List[float]] = None
    seed: int = 0
    eval_every: int = 1
    out_dir: str = "runs/latest"


def _kind(annotation) -> Tuple[bool, bool, type]:
    """(optional, list, element type) of a config key from its annotation."""
    args = get_args(annotation)
    optional = type(None) in args
    if optional:  # Optional[X] is Union[X, None]
        annotation = args[0]
    if get_origin(annotation) is list:
        return optional, True, get_args(annotation)[0]
    return optional, False, annotation


def _format_value(annotation, value) -> str:
    if value is None:
        return "none"
    _, is_list, kind = _kind(annotation)
    if is_list:
        return ",".join(repr(kind(v)) for v in value)
    if kind is bool:
        return "true" if value else "false"
    if kind is float:
        return repr(float(value))
    return str(value)


def _parse_scalar(kind: type, text: str):
    if kind is bool:
        if text.lower() in ("true", "false"):
            return text.lower() == "true"
        raise ValueError(text)
    return kind(text)


def _parse_value(annotation, text: str, key: str):
    text = text.strip()
    optional, is_list, kind = _kind(annotation)
    if optional and text.lower() == "none":
        return None
    try:
        if is_list:
            return [_parse_scalar(kind, v) for v in text.split(",") if v.strip()]
        return _parse_scalar(kind, text)
    except ValueError as exc:
        name = kind.__name__ + ("_list" if is_list else "")
        raise ConfigError([f"{key}: cannot parse {text!r} as {name}"]) from exc


def serialize_config(config: ExperimentConfig) -> str:
    hints = get_type_hints(ExperimentConfig)
    return "".join(
        f"{f.name} = {_format_value(hints[f.name], getattr(config, f.name))}\n"
        for f in dataclasses.fields(ExperimentConfig)
    )


def parse_config_values(text: str) -> dict:
    """Parse a flat key=value config into just the keys it sets."""
    hints = get_type_hints(ExperimentConfig)
    values = {}
    problems = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            problems.append(f"line {lineno}: expected 'key = value', got {raw!r}")
            continue
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in hints:
            problems.append(f"line {lineno}: unknown key {key!r}")
            continue
        try:
            values[key] = _parse_value(hints[key], value, key)
        except ConfigError as exc:
            problems.extend(f"line {lineno}: {v}" for v in exc.violations)
    if problems:
        raise ConfigError(problems)
    return values


def parse_config(text: str) -> ExperimentConfig:
    return ExperimentConfig(**parse_config_values(text))


def _section(cls, config: ExperimentConfig):
    """`cls` (NeuronConfig or TrainConfig) from the config's same-named fields.

    Raises ConfigError on a bad value.
    """
    return cls(**{f.name: getattr(config, f.name) for f in dataclasses.fields(cls)})


def validate_config(config: ExperimentConfig) -> None:
    """Raise ConfigError listing every violated field.

    The neuron and training bounds are those of `NeuronConfig` and
    `TrainConfig`; the checks here cover the fields they do not hold.
    """
    bad = []
    if not config.dataset:
        bad.append("dataset: must not be empty")
    if not config.hidden_sizes or any(h < 1 for h in config.hidden_sizes):
        bad.append(f"hidden_sizes: need nonempty sizes >= 1, got {config.hidden_sizes}")
    if config.timesteps < 1:
        bad.append(f"timesteps: must be >= 1, got {config.timesteps}")
    if not config.lr > 0:
        bad.append(f"lr: must be > 0, got {config.lr}")
    if (config.lr_milestones is None) != (config.lr_factors is None) or (
        config.lr_milestones is not None
        and len(config.lr_milestones) != len(config.lr_factors)
    ):
        bad.append("lr_milestones/lr_factors: must be given together, same length")
    for cls in (NeuronConfig, trainer.TrainConfig):
        try:
            _section(cls, config)
        except ConfigError as exc:
            bad.extend(exc.violations)
    if bad:
        raise ConfigError(bad)


def data_root(override: Optional[str] = None) -> Path:
    return Path(override or os.environ.get(DATA_ROOT_ENV, "data"))


def idx_paths(root: Path, name: str, split: str) -> Tuple[List[Path], List[Path]]:
    """Locate one split's IDX image and label files under root/name.

    Each file is taken plain or, failing that, gzipped. Returns the files
    found (images first) and the plain paths of those that are missing.
    """
    stem = "train" if split == "train" else "t10k"
    found, missing = [], []
    for kind in ("images-idx3", "labels-idx1"):
        path = root / name / f"{stem}-{kind}-ubyte"
        gz = path.with_suffix(path.suffix + ".gz")
        if path.exists():
            found.append(path)
        elif gz.exists():
            found.append(gz)
        else:
            missing.append(path)
    return found, missing


def _idx_pair(root: Path, name: str, split: str) -> List[Path]:
    found, missing = idx_paths(root, name, split)
    if missing:
        raise FileNotFoundError(
            f"missing {name} file: {missing[0]} (or {missing[0]}.gz); place the "
            f"canonical IDX files under {root / name}/ or point "
            f"{DATA_ROOT_ENV} at the directory that holds them"
        )
    return found


def load_datasets(config: ExperimentConfig, root: Optional[str] = None):
    """Resolve the config's dataset id to a (train, test) pair."""
    name = config.dataset
    base = data_root(root)
    if name in ("mnist", "fmnist", "kmnist"):
        train = dataio.load_idx(*_idx_pair(base, name, "train"), class_count=10)
        test = dataio.load_idx(*_idx_pair(base, name, "test"), class_count=10)
        return train, test
    if name == "cifar10":
        folder = base / "cifar-10-batches-py"
        return (
            dataio.load_cifar10(folder, "train"),
            dataio.load_cifar10(folder, "test"),
        )
    if name in ("nmnist", "shd"):
        folder = base / name
        for path in (folder / "train.bse", folder / "test.bse"):
            if not path.exists():
                raise FileNotFoundError(
                    f"missing {name} file: {path}; place its BSE1 train.bse and "
                    f"test.bse under {folder}/ or point {DATA_ROOT_ENV} at the "
                    "directory that holds them"
                )
        name = f"bse:{folder}"  # read as any other BSE1 directory
    if name.startswith("bse:"):
        folder = Path(name[len("bse:"):])
        return (
            dataio.load_binned_events(folder / "train.bse"),
            dataio.load_binned_events(folder / "test.bse"),
        )
    if name.startswith("synthetic:"):
        kind = name[len("synthetic:"):]
        if kind == "blobs":
            return (
                dataio.make_blob_dataset(2000, seed=config.seed * 2 + 1),
                dataio.make_blob_dataset(500, seed=config.seed * 2 + 2),
            )
        if kind == "temporal":
            return (
                dataio.make_temporal_dataset(2000, seed=config.seed * 2 + 1),
                dataio.make_temporal_dataset(500, seed=config.seed * 2 + 2),
            )
        raise ConfigError([f"dataset: unknown synthetic generator {kind!r}"])
    raise ConfigError(
        [
            f"dataset: unknown id {name!r}; expected mnist | fmnist | kmnist | "
            "cifar10 | nmnist | shd | bse:<path> | synthetic:<generator>"
        ]
    )


def build_from_config(config: ExperimentConfig, train_ds: dataio.Dataset):
    return build_network(
        config.hidden_sizes,
        train_ds.input_dim,
        train_ds.class_count,
        config.timesteps,
        _section(NeuronConfig, config),
        RngStream(config.seed).substream(KEY_INIT),
        recurrent=config.recurrent,
        lr=config.lr,
    )


def _check_dataset_matches(config: ExperimentConfig, train_ds: dataio.Dataset):
    bad = []
    if config.input_dim is not None and config.input_dim != train_ds.input_dim:
        bad.append(
            f"input_dim: config says {config.input_dim}, dataset has "
            f"{train_ds.input_dim}"
        )
    if config.class_count is not None and config.class_count != train_ds.class_count:
        bad.append(
            f"class_count: config says {config.class_count}, dataset has "
            f"{train_ds.class_count}"
        )
    if train_ds.temporal and train_ds.timesteps != config.timesteps:
        bad.append(
            f"timesteps: temporal dataset has {train_ds.timesteps}, config "
            f"says {config.timesteps}"
        )
    if bad:
        raise ConfigError(bad)


def _runs(pid: int) -> bool:
    """Whether a process with this id runs (one we may not signal counts)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def _restore_killed_runs(paths) -> None:
    """Move back the artifacts that killed runs left aside.

    A run keeps a previous artifact at `.<name>.<pid>.prev` while it runs.
    Where that pid no longer runs, the run was killed, and the file goes
    back over whatever partial file the killed run left in its place.
    Files of a running pid are left alone; so is everything where a pid
    cannot be probed without a signal (not POSIX).
    """
    if os.name != "posix":
        return
    for path in paths:
        for aside in sorted(path.parent.glob(f".{path.name}.*.prev")):
            pid = aside.name[len(path.name) + 2 : -len(".prev")]
            if pid.isdigit() and not _runs(int(pid)):
                os.replace(aside, path)


def run_train(config: ExperimentConfig, root: Optional[str] = None) -> int:
    """Train per config; writes artifacts into config.out_dir. Returns exit code.

    Each artifact a previous run left in the directory is moved aside (to a
    hidden name beside it) just before this run writes its own, so
    `metrics.csv` still gains a row per finished epoch in place. If the run
    fails, what it wrote is deleted and the previous files are moved back
    unchanged; if it succeeds, they are deleted. A killed run can do
    neither, so every run first moves back what killed runs left aside.
    """
    out = Path(config.out_dir)
    artifacts = {
        "config": out / "config.txt",
        "metrics": out / "metrics.csv",
        "summary": out / "summary.json",
        "checkpoint": out / "checkpoint.sffc",
    }
    written: List[Path] = []  # the artifacts this run has begun to write
    moved: Dict[Path, Path] = {}  # a previous run's artifact -> where it waits

    def writing(name: str) -> Path:
        """The artifact's path, with a previous run's file moved aside."""
        path = artifacts[name]
        if path.exists():
            aside = path.with_name(f".{path.name}.{os.getpid()}.prev")
            os.replace(path, aside)
            moved[path] = aside
        written.append(path)
        return path

    try:
        out.mkdir(parents=True, exist_ok=True)
        _restore_killed_runs(artifacts.values())
        (out / "error.json").unlink(missing_ok=True)  # a previous run's failure
        validate_config(config)
        train_ds, test_ds = load_datasets(config, root)
        _check_dataset_matches(config, train_ds)
        net = build_from_config(config, train_ds)
        writing("config").write_text(serialize_config(config))

        train_cfg = _section(trainer.TrainConfig, config)
        started = time.perf_counter()
        with open(writing("metrics"), "w") as csv:
            csv.write(trainer.metrics_csv_header(len(net.layers)) + "\n")

            def write_row(metrics: trainer.EpochMetrics) -> None:
                csv.write(trainer.metrics_csv_row(metrics) + "\n")
                csv.flush()  # a killed run keeps every finished epoch's row

            history = trainer.train(
                net, train_ds, train_cfg, eval_dataset=test_ds, on_epoch=write_row
            )
        total_seconds = time.perf_counter() - started
        save_checkpoint(
            writing("checkpoint"), net,
            meta={"dataset": config.dataset, "seed": config.seed},
        )
        test_accs = [m.test_accuracy for m in history if m.test_accuracy is not None]
        summary = {
            "config": dataclasses.asdict(config),
            "epochs_run": len(history),
            "final_test_accuracy": test_accs[-1] if test_accs else None,
            "best_test_accuracy": max(test_accs) if test_accs else None,
            "final_train_accuracy": next(
                (m.train_accuracy for m in reversed(history)
                 if m.train_accuracy is not None), None
            ),
            "final_total_loss": history[-1].total_loss if history else None,
            "checkpoint": str(artifacts["checkpoint"]),
            "total_seconds": total_seconds,
            "epoch_seconds": [m.seconds for m in history],
        }
        writing("summary").write_text(json.dumps(summary, indent=2) + "\n")
    except Exception as exc:  # single error record, never a partial silent state
        for path in written:  # this run's own, partial or complete
            path.unlink(missing_ok=True)
        for path, aside in moved.items():
            os.replace(aside, path)
        record = {"error": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, ConfigError):
            record["violations"] = exc.violations
        try:
            (out / "error.json").write_text(json.dumps(record, indent=2) + "\n")
        except OSError:
            print(json.dumps(record), file=sys.stderr)
        else:
            print(f"error: {record['message']}", file=sys.stderr)
        return 1
    for aside in moved.values():
        aside.unlink(missing_ok=True)
    return 0


def run_inspect(path: str) -> int:
    net, meta = load_checkpoint(path)
    print(f"checkpoint: {path}")
    if meta:
        print(f"meta: {json.dumps(meta, sort_keys=True)}")
    sizes = [net.input_dim] + [layer.n_out for layer in net.layers]
    print(f"architecture: {'-'.join(str(s) for s in sizes)}")
    print(f"classes: {net.class_count}  timesteps: {net.timesteps}")
    total = 0
    for i, layer in enumerate(net.layers):
        counts = parameter_counts(layer)
        layer_total = sum(counts.values())
        total += layer_total
        pieces = ", ".join(f"{name}={n}" for name, n in counts.items())
        print(f"layer {i}: {layer.n_in} -> {layer.n_out}  [{pieces}]  "
              f"total={layer_total}")
        cfg = layer.neuron
        print(f"  neuron: threshold={cfg.threshold} decay={cfg.decay} "
              f"learnable={cfg.decay_learnable} reset={cfg.reset_mode} "
              f"surrogate_slope={cfg.surrogate_slope}")
        if layer.stats_populated:
            print(
                f"  running stats ({layer.batches_tracked} batches): "
                f"mean in [{layer.running_mean.min():.4g}, "
                f"{layer.running_mean.max():.4g}], "
                f"var in [{layer.running_var.min():.4g}, "
                f"{layer.running_var.max():.4g}]"
            )
        else:
            print("  running stats: unpopulated (train before eval-mode use)")
    print(f"total trainable parameters: {total}")
    return 0


def run_eval(checkpoint_path: str, config: ExperimentConfig,
             root: Optional[str], split: str) -> int:
    net, _ = load_checkpoint(checkpoint_path)
    train_ds, test_ds = load_datasets(config, root)
    ds = train_ds if split == "train" else test_ds
    acc = predictor.evaluate(net, ds)
    print(json.dumps({"dataset": config.dataset, "split": split, "accuracy": acc}))
    return 0


def run_predict(checkpoint_path: str, config: ExperimentConfig,
                root: Optional[str], split: str, out_path: Optional[str]) -> int:
    net, _ = load_checkpoint(checkpoint_path)
    train_ds, test_ds = load_datasets(config, root)
    ds = train_ds if split == "train" else test_ds
    lines = ["sample,true_label,predicted," + ",".join(
        f"score_{y}" for y in range(net.class_count))]
    offset = 0
    for batch in dataio.iter_batches(ds, 256, shuffle=False):
        result = predictor.score_labels(net, batch)
        for i in range(batch.size):
            scores = ",".join(repr(float(s)) for s in result.scores[i])
            lines.append(
                f"{offset + i},{batch.labels[i]},{result.predicted[i]},{scores}"
            )
        offset += batch.size
    text = "\n".join(lines) + "\n"
    if out_path:
        Path(out_path).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def run_make_fixtures(out_dir: str) -> int:
    """Emit the tiny IDX and BSE1 files used by the test suite and docs."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    images = np.arange(2 * 28 * 28, dtype=np.uint64) % 256
    images = images.astype(np.uint8).reshape(2, 28, 28)
    dataio.write_idx_images(out / "two-images-idx3-ubyte", images)
    dataio.write_idx_labels(out / "two-labels-idx1-ubyte", np.array([3, 7]))
    tiny = dataio.Dataset(
        np.array([[1.0, 0.0, 0.0, 2.0, 0.0, 1.0, 0.0, 0.0]]),
        np.array([1]),
        class_count=2,
        input_dim=4,
        temporal=True,
        timesteps=2,
    )
    dataio.write_binned_events(out / "tiny.bse", tiny)
    for name in ("two-images-idx3-ubyte", "two-labels-idx1-ubyte", "tiny.bse"):
        print(out / name)
    return 0


def _resolve_config(args) -> ExperimentConfig:
    values = {}
    if getattr(args, "checkpoint", None):
        # eval/predict score the training run's dataset, synthetic data
        # regenerated from its seed, unless a preset, the config file or a
        # flag names another
        meta = read_meta(args.checkpoint)
        for key, kind in (("dataset", str), ("seed", int)):
            if isinstance(meta.get(key), kind):
                values[key] = meta[key]
    if getattr(args, "preset", None):
        if args.preset not in PRESETS:
            raise ConfigError(
                [f"preset: unknown {args.preset!r}; have {sorted(PRESETS)}"]
            )
        values.update(
            {k: list(v) if isinstance(v, list) else v
             for k, v in PRESETS[args.preset].items()}
        )
    if getattr(args, "config", None):
        values.update(parse_config_values(Path(args.config).read_text()))
    for f in dataclasses.fields(ExperimentConfig):  # flags named after keys
        value = getattr(args, f.name, None)
        if value is not None:
            values[f.name] = value
    return ExperimentConfig(**values)


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--dataset", help="dataset id (see README)")
    p.add_argument("--preset", help="named preset: " + ", ".join(sorted(PRESETS)))
    p.add_argument("--seed", type=int, help="random seed")
    p.add_argument("--data-root", dest="data_root",
                   help=f"dataset directory (or ${DATA_ROOT_ENV})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="spikeff",
        description="Forward-forward training for spiking networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a network and write artifacts")
    _add_common_flags(p_train)
    p_train.add_argument("--epochs", type=int)
    p_train.add_argument("--batch-size", dest="batch_size", type=int)
    p_train.add_argument("--out", dest="out_dir", help="run directory")

    p_eval = sub.add_parser("eval", help="accuracy of a checkpoint on a dataset")
    p_eval.add_argument("checkpoint")
    _add_common_flags(p_eval)
    p_eval.add_argument("--split", choices=("train", "test"), default="test")

    p_pred = sub.add_parser("predict", help="per-sample label scores as CSV")
    p_pred.add_argument("checkpoint")
    _add_common_flags(p_pred)
    p_pred.add_argument("--split", choices=("train", "test"), default="test")
    p_pred.add_argument("--out", help="CSV path (default: stdout)")

    p_inspect = sub.add_parser("inspect", help="describe a checkpoint")
    p_inspect.add_argument("checkpoint")

    p_fix = sub.add_parser("make-fixtures", help="emit tiny IDX/BSE1 fixture files")
    p_fix.add_argument("--out", default="fixtures")

    args = parser.parse_args(argv)
    try:
        if args.command == "train":
            return run_train(_resolve_config(args), args.data_root)
        if args.command == "eval":
            return run_eval(args.checkpoint, _resolve_config(args),
                            args.data_root, args.split)
        if args.command == "predict":
            return run_predict(args.checkpoint, _resolve_config(args),
                               args.data_root, args.split, args.out)
        if args.command == "inspect":
            return run_inspect(args.checkpoint)
        if args.command == "make-fixtures":
            return run_make_fixtures(args.out)
    except ConfigError as exc:
        print(json.dumps({"error": "ConfigError", "violations": exc.violations}),
              file=sys.stderr)
        return 2
    except (FileNotFoundError, OSError, FormatError, DataConsistencyError,
            ShapeError, UsageError, NumericError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
