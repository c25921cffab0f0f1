import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from spikeff import cli, dataio, numerics
from spikeff.checkpoint import load_checkpoint, save_checkpoint
from spikeff.cli import (
    ExperimentConfig,
    PRESETS,
    load_datasets,
    parse_config_values,
    run_train,
    serialize_config,
    validate_config,
)
from spikeff.errors import ConfigError, NumericError
from spikeff.network import build_network
from spikeff.neuron import NeuronConfig
from spikeff.numerics import RngStream


def tiny_config(tmp_path, **overrides):
    values = dict(
        dataset="synthetic:blobs",
        hidden_sizes=[12],
        epochs=2,
        batch_size=32,
        timesteps=6,
        seed=3,
        out_dir=str(tmp_path / "run"),
        eval_every=1,
    )
    values.update(overrides)
    return ExperimentConfig(**values)


def everything_set():
    """A config that sets every key away from its default."""
    return ExperimentConfig(
        dataset="bse:/tmp/some/dir", hidden_sizes=[500, 500],
        input_dim=784, class_count=10, threshold=1.2, decay=0.8,
        decay_learnable=True, recurrent=True, reset_mode="zero",
        timesteps=10, loss_sharpness=0.6, surrogate_slope=2.0,
        epochs=300, batch_size=4096, lr=0.001,
        lr_milestones=[150, 225], lr_factors=[0.3, 0.3],
        seed=42, eval_every=5, out_dir="runs/x",
    )


class TestConfigFormat:
    def test_round_trip_default(self):
        config = ExperimentConfig()
        values = parse_config_values(serialize_config(config))
        assert ExperimentConfig(**values) == config

    def test_round_trip_everything_set(self):
        config = everything_set()
        values = parse_config_values(serialize_config(config))
        assert ExperimentConfig(**values) == config

    def test_file_bytes_pinned(self):
        # a round trip alone accepts any format change that still round-trips
        assert serialize_config(everything_set()) == (
            "dataset = bse:/tmp/some/dir\n"
            "hidden_sizes = 500,500\n"
            "input_dim = 784\n"
            "class_count = 10\n"
            "threshold = 1.2\n"
            "decay = 0.8\n"
            "decay_learnable = true\n"
            "recurrent = true\n"
            "reset_mode = zero\n"
            "timesteps = 10\n"
            "loss_sharpness = 0.6\n"
            "surrogate_slope = 2.0\n"
            "epochs = 300\n"
            "batch_size = 4096\n"
            "lr = 0.001\n"
            "lr_milestones = 150,225\n"
            "lr_factors = 0.3,0.3\n"
            "seed = 42\n"
            "eval_every = 5\n"
            "out_dir = runs/x\n"
        )

    def test_comments_and_blank_lines_ignored(self):
        text = "# a comment\n\nepochs = 7\nseed = 1\n"
        config = ExperimentConfig(**parse_config_values(text))
        assert config.epochs == 7 and config.seed == 1

    def test_unknown_key_and_bad_value_both_reported(self):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig(**parse_config_values("nonsense = 5\nepochs = banana\n"))
        text = "\n".join(err.value.violations)
        assert "nonsense" in text and "banana" in text

    def test_validation_lists_every_violation(self):
        config = ExperimentConfig(
            dataset="", hidden_sizes=[], threshold=-1.0, decay=2.0,
            epochs=-5, batch_size=1, lr=0.0, timesteps=0,
        )
        with pytest.raises(ConfigError) as err:
            validate_config(config)
        joined = "\n".join(err.value.violations)
        for name in ("dataset", "hidden_sizes", "threshold", "decay",
                     "epochs", "batch_size", "lr", "timesteps"):
            assert name in joined
        assert len(err.value.violations) >= 8

    @pytest.mark.parametrize("sizes", [[], [4, 0]])
    def test_hidden_sizes_bound_is_the_networks(self, sizes):
        with pytest.raises(ConfigError) as built:
            build_network(sizes, 4, 2, 3, NeuronConfig(), RngStream(0))
        with pytest.raises(ConfigError) as validated:
            validate_config(ExperimentConfig(dataset="synthetic:blobs",
                                             hidden_sizes=sizes))
        assert validated.value.violations == built.value.violations


class TestPresets:
    def test_mnist_preset_pins_published_values(self):
        preset = PRESETS["mnist"]
        assert preset["input_dim"] == 784
        assert preset["class_count"] == 10
        assert preset["epochs"] == 300
        assert preset["lr"] == 0.001
        assert preset["batch_size"] == 4096
        assert preset["timesteps"] == 10
        assert preset["loss_sharpness"] == 0.6
        assert preset["threshold"] == 1.0
        assert preset["decay"] == 0.99

    def test_per_dataset_neuron_rows(self):
        assert PRESETS["kmnist"]["threshold"] == 1.2
        assert PRESETS["cifar10"]["decay"] == 0.8
        assert PRESETS["cifar10"]["input_dim"] == 3072
        assert PRESETS["nmnist"]["input_dim"] == 2312
        assert PRESETS["nmnist"]["decay"] == 0.9
        assert PRESETS["shd"] == dict(
            dataset="shd", input_dim=700, class_count=20, epochs=500,
            lr=0.001, batch_size=4096, timesteps=10, loss_sharpness=0.6,
            threshold=5.0, decay=0.9, hidden_sizes=[500, 500],
            decay_learnable=False, recurrent=True,
        )

    def test_all_presets_validate(self):
        for name, preset in PRESETS.items():
            validate_config(ExperimentConfig(**preset))

    def test_mnist_preset_full_run_echoes_published_values(self, tmp_path):
        # end-to-end echo check: the mnist preset run on MNIST-shaped
        # fixture data must reproduce every published training parameter
        # in its summary JSON, untouched by the run itself
        root = tmp_path / "data"
        (root / "mnist").mkdir(parents=True)
        rng = np.random.default_rng(0)
        for stem, n in (("train", 4), ("t10k", 4)):
            images = rng.integers(0, 256, (n, 28, 28), dtype=np.uint8)
            labels = rng.integers(0, 10, n, dtype=np.uint8)
            dataio.write_idx_images(root / "mnist" / f"{stem}-images-idx3-ubyte",
                                    images)
            dataio.write_idx_labels(root / "mnist" / f"{stem}-labels-idx1-ubyte",
                                    labels)
        out = tmp_path / "mnist-run"
        config = ExperimentConfig(**PRESETS["mnist"],
                                  eval_every=0, seed=1,
                                  out_dir=str(out))
        assert run_train(config, root=str(root)) == 0
        summary = json.loads((out / "summary.json").read_text())
        echoed = summary["config"]
        assert echoed["dataset"] == "mnist"
        assert echoed["input_dim"] == 784
        assert echoed["class_count"] == 10
        assert echoed["epochs"] == 300
        assert echoed["lr"] == 0.001
        assert echoed["batch_size"] == 4096
        assert echoed["timesteps"] == 10
        assert echoed["loss_sharpness"] == 0.6
        assert echoed["threshold"] == 1.0
        assert echoed["decay"] == 0.99
        assert echoed["hidden_sizes"] == [500, 500]
        assert summary["epochs_run"] == 300


class TestRunTrain:
    def test_writes_all_artifacts(self, tmp_path):
        config = tiny_config(tmp_path)
        assert run_train(config) == 0
        out = Path(config.out_dir)
        assert (out / "config.txt").exists()
        assert (out / "metrics.csv").exists()
        assert (out / "summary.json").exists()
        assert (out / "checkpoint.sffc").exists()
        assert not (out / "error.json").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["dataset"] == "synthetic:blobs"
        assert summary["epochs_run"] == 2
        assert 0.0 <= summary["final_test_accuracy"] <= 1.0
        # whether this host's training bits are host-independent
        assert summary["threads"] == {
            "usable_cores": numerics._usable_cores(),
            "blas_thread_setter": numerics._openblas_thread_calls() is not None,
        }
        rows = (out / "metrics.csv").read_text().strip().splitlines()
        assert len(rows) == 3  # header + 2 epochs
        echoed_text = (out / "config.txt").read_text()
        echoed = ExperimentConfig(**parse_config_values(echoed_text))
        assert echoed == config

    def test_zero_epochs_noop_run(self, tmp_path):
        config = tiny_config(tmp_path, epochs=0)
        assert run_train(config) == 0
        out = Path(config.out_dir)
        rows = (out / "metrics.csv").read_text().strip().splitlines()
        assert len(rows) == 1  # header only
        summary = json.loads((out / "summary.json").read_text())
        assert summary["epochs_run"] == 0
        assert summary["final_test_accuracy"] is None
        net, _ = load_checkpoint(out / "checkpoint.sffc")
        assert not net.stats_populated  # initial weights, untouched stats

    def test_same_seed_byte_identical_metrics(self, tmp_path):
        a = tiny_config(tmp_path, out_dir=str(tmp_path / "a"))
        b = tiny_config(tmp_path, out_dir=str(tmp_path / "b"))
        assert run_train(a) == 0
        assert run_train(b) == 0
        bytes_a = (tmp_path / "a" / "metrics.csv").read_bytes()
        bytes_b = (tmp_path / "b" / "metrics.csv").read_bytes()
        assert bytes_a == bytes_b

    def test_invalid_config_leaves_single_error_record(self, tmp_path):
        config = tiny_config(tmp_path, epochs=-3, batch_size=1)
        assert run_train(config) == 1
        out = Path(config.out_dir)
        record = json.loads((out / "error.json").read_text())
        assert record["error"] == "ConfigError"
        assert any("epochs" in v for v in record["violations"])
        assert any("batch_size" in v for v in record["violations"])
        assert list(out.iterdir()) == [out / "error.json"]

    def test_early_failure_keeps_previous_artifacts(self, tmp_path):
        config = tiny_config(tmp_path)
        assert run_train(config) == 0
        out = Path(config.out_dir)
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert set(before) == {"config.txt", "metrics.csv", "summary.json",
                               "checkpoint.sffc"}
        assert run_train(tiny_config(tmp_path, epochs=-1)) == 1
        after = {p.name: p.read_bytes() for p in out.iterdir()}
        assert set(after) == set(before) | {"error.json"}
        for name, data in before.items():
            assert after[name] == data, name

    def test_failure_deletes_what_the_run_wrote(self, tmp_path, monkeypatch):
        def diverge(*args, **kwargs):
            raise NumericError("training diverged")

        monkeypatch.setattr(cli.trainer, "train", diverge)
        config = tiny_config(tmp_path)
        assert run_train(config) == 1
        out = Path(config.out_dir)
        assert list(out.iterdir()) == [out / "error.json"]

    def test_mid_run_failure_restores_the_previous_run(self, tmp_path,
                                                       monkeypatch):
        config = tiny_config(tmp_path, epochs=3)
        assert run_train(config) == 0
        out = Path(config.out_dir)
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        real_epoch = cli.trainer.train_epoch
        rows_at_failure = []

        def diverge_at_epoch_1(*args, epoch, **kwargs):
            if epoch == 1:
                rows_at_failure.append(
                    (out / "metrics.csv").read_text().splitlines())
                raise NumericError("training diverged")
            return real_epoch(*args, epoch=epoch, **kwargs)

        monkeypatch.setattr(cli.trainer, "train_epoch", diverge_at_epoch_1)
        assert run_train(tiny_config(tmp_path, epochs=3, seed=4)) == 1
        # the failing run had replaced metrics.csv with its own first row
        (rows,) = rows_at_failure
        assert len(rows) == 2 and "\n".join(rows) + "\n" != before["metrics.csv"]
        after = {p.name: p.read_bytes() for p in out.iterdir()}
        assert set(after) == set(before) | {"error.json"}
        for name, data in before.items():
            assert after[name] == data, name
        assert json.loads(after["error.json"])["error"] == "NumericError"

    def test_a_killed_runs_leftovers_are_put_back_first(self, tmp_path):
        assert run_train(tiny_config(tmp_path)) == 0
        out = tmp_path / "run"
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        killed = subprocess.Popen([sys.executable, "-c", "pass"])
        killed.wait()  # exited and reaped: its pid no longer runs
        live = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
        try:
            # the killed run had moved two files aside and begun its own
            for name in ("config.txt", "metrics.csv"):
                os.replace(out / name, out / f".{name}.{killed.pid}.prev")
                (out / name).write_text("partial\n")
            live_aside = f".summary.json.{live.pid}.prev"
            (out / live_aside).write_text("a running run's\n")

            # fails before it moves anything aside itself
            assert run_train(tiny_config(tmp_path, epochs=-1)) == 1

            after = {p.name: p.read_bytes() for p in out.iterdir()}
            assert set(after) == set(before) | {"error.json", live_aside}
            for name, data in before.items():
                assert after[name] == data, name
            assert after[live_aside] == b"a running run's\n"
        finally:
            live.kill()
            live.wait()

    def test_rerun_replaces_the_previous_run(self, tmp_path):
        assert run_train(tiny_config(tmp_path, epochs=1)) == 0
        out = tmp_path / "run"
        assert run_train(tiny_config(tmp_path, epochs=2)) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "checkpoint.sffc", "config.txt", "metrics.csv", "summary.json"]
        assert json.loads((out / "summary.json").read_text())["epochs_run"] == 2

    def test_success_removes_a_stale_error_record(self, tmp_path):
        assert run_train(tiny_config(tmp_path, epochs=-1)) == 1
        out = tmp_path / "run"
        assert (out / "error.json").exists()
        assert run_train(tiny_config(tmp_path)) == 0
        assert not (out / "error.json").exists()
        assert (out / "summary.json").exists()

    def test_metrics_row_on_disk_after_each_epoch(self, tmp_path, monkeypatch):
        real_train = cli.trainer.train
        config = tiny_config(tmp_path, epochs=3)
        metrics = Path(config.out_dir) / "metrics.csv"
        lines_on_disk = []

        def train(*args, on_epoch, **kwargs):
            def spy(m):
                on_epoch(m)
                lines_on_disk.append(len(metrics.read_text().splitlines()))
            return real_train(*args, on_epoch=spy, **kwargs)

        monkeypatch.setattr(cli.trainer, "train", train)
        assert run_train(config) == 0
        assert lines_on_disk == [2, 3, 4]  # header plus one row per epoch

    def test_missing_data_files_error_record(self, tmp_path):
        config = tiny_config(tmp_path, dataset="mnist")
        assert run_train(config, root=str(tmp_path / "nodata")) == 1
        record = json.loads((Path(config.out_dir) / "error.json").read_text())
        assert record["error"] == "FileNotFoundError"
        assert "mnist" in record["message"]

    def test_dataset_mismatch_reported(self, tmp_path):
        config = tiny_config(tmp_path, input_dim=99)
        assert run_train(config) == 1
        record = json.loads((Path(config.out_dir) / "error.json").read_text())
        assert any("input_dim" in v for v in record["violations"])

    def test_temporal_timestep_mismatch_reported(self, tmp_path):
        config = tiny_config(tmp_path, dataset="synthetic:temporal", timesteps=4)
        assert run_train(config) == 1
        record = json.loads((Path(config.out_dir) / "error.json").read_text())
        assert any("timesteps" in v for v in record["violations"])


class TestDatasets:
    def test_synthetic_blobs_pair(self):
        train_ds, test_ds = load_datasets(ExperimentConfig(dataset="synthetic:blobs"))
        assert train_ds.num_samples == 2000 and test_ds.num_samples == 500
        assert train_ds.input_dim == test_ds.input_dim == 12

    def test_synthetic_temporal_pair(self):
        train_ds, test_ds = load_datasets(
            ExperimentConfig(dataset="synthetic:temporal"))
        assert train_ds.temporal and train_ds.timesteps == 10
        assert train_ds.num_samples == 2000 and test_ds.num_samples == 500

    def test_bse_directory(self, tmp_path):
        for name, n in (("train.bse", 6), ("test.bse", 3)):
            ds = dataio.make_temporal_dataset(n, input_dim=14, timesteps=10,
                                              seed=n)
            dataio.write_binned_events(tmp_path / name, ds)
        config = ExperimentConfig(dataset=f"bse:{tmp_path}", timesteps=10)
        train_ds, test_ds = load_datasets(config)
        assert train_ds.num_samples == 6 and test_ds.num_samples == 3
        assert train_ds.input_dim == 14

    def test_unknown_dataset_id(self):
        with pytest.raises(ConfigError, match="unknown id") as err:
            load_datasets(ExperimentConfig(dataset="imagenet"))
        assert "| nmnist | shd |" in err.value.violations[0]

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_every_preset_dataset_id_resolves(self, tmp_path, preset):
        # an empty data root: the id is known and its missing file is named
        config = ExperimentConfig(dataset=PRESETS[preset]["dataset"])
        with pytest.raises(FileNotFoundError, match=re.escape(str(tmp_path))):
            load_datasets(config, root=str(tmp_path))

    @pytest.mark.parametrize("preset,input_dim,class_count", [
        ("shd", 700, 20), ("nmnist", 2312, 10),
    ])
    def test_spiking_preset_trains_one_epoch(self, tmp_path, preset, input_dim,
                                              class_count):
        root = tmp_path / "data"
        (root / preset).mkdir(parents=True)
        for split, n in (("train", 48), ("test", 16)):
            ds = dataio.make_temporal_dataset(n, input_dim=input_dim, timesteps=10,
                                              class_count=class_count, seed=n)
            dataio.write_binned_events(root / preset / f"{split}.bse", ds)
        out = tmp_path / "run"
        code = cli.main(["train", "--preset", preset, "--epochs", "1",
                         "--batch-size", "32", "--data-root", str(root),
                         "--out", str(out)])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["epochs_run"] == 1
        assert summary["config"] == dict(
            dataclasses.asdict(ExperimentConfig(**PRESETS[preset])),
            epochs=1, batch_size=32, out_dir=str(out),
        )

    def test_unknown_synthetic_generator(self):
        with pytest.raises(ConfigError, match="generator"):
            load_datasets(ExperimentConfig(dataset="synthetic:spirals"))


class TestCommands:
    def run_tiny(self, tmp_path):
        config = tiny_config(tmp_path)
        assert run_train(config) == 0
        return config

    def test_main_train_with_flags(self, tmp_path, capsys):
        out = tmp_path / "cli-run"
        code = cli.main([
            "train", "--dataset", "synthetic:blobs", "--seed", "5",
            "--epochs", "1", "--batch-size", "32", "--out", str(out),
        ])
        assert code == 0
        assert (out / "summary.json").exists()

    def test_main_config_file_plus_flag_override(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            "dataset = synthetic:blobs\nhidden_sizes = 10\nepochs = 5\n"
            "batch_size = 32\ntimesteps = 4\n"
        )
        out = tmp_path / "cli-run2"
        code = cli.main(["train", "--config", str(cfg_file),
                         "--epochs", "1", "--out", str(out)])
        assert code == 0
        echoed_text = (out / "config.txt").read_text()
        echoed = ExperimentConfig(**parse_config_values(echoed_text))
        assert echoed.epochs == 1  # flag beat the file
        assert echoed.hidden_sizes == [10]

    @pytest.mark.parametrize("command", ["train", "eval", "predict"])
    def test_config_file_not_utf8_is_config_error(self, tmp_path, capsys,
                                                 command):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_bytes(b"\xff")
        args = ["--config", str(cfg_file)]
        if command == "train":
            args += ["--out", str(tmp_path / "x")]
        else:
            config = self.run_tiny(tmp_path)
            args.insert(0, str(Path(config.out_dir) / "checkpoint.sffc"))
        capsys.readouterr()
        assert cli.main([command, *args]) == 2
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"] == "ConfigError"
        assert str(cfg_file) in record["violations"][0]
        assert not (tmp_path / "x").exists()

    def test_lr_factor_not_above_zero_is_config_error(self, tmp_path):
        """Refused before any data is read, like every invalid train
        config: exit 1 and a single error record."""
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("dataset = synthetic:blobs\nepochs = 2\n"
                            "lr_milestones = 1\nlr_factors = -1.0\n")
        out = tmp_path / "x"
        assert cli.main(["train", "--config", str(cfg_file),
                         "--out", str(out)]) == 1
        record = json.loads((out / "error.json").read_text())
        assert record["error"] == "ConfigError"
        assert record["violations"] == ["lr_factors: must be > 0, got [-1.0]"]
        assert list(out.iterdir()) == [out / "error.json"]

    def test_preset_resolution_known_and_unknown(self, tmp_path):
        code = cli.main(["train", "--preset", "nosuch",
                         "--out", str(tmp_path / "x")])
        assert code == 2

    def test_eval_command(self, tmp_path, capsys):
        config = self.run_tiny(tmp_path)
        code = cli.main([
            "eval", str(Path(config.out_dir) / "checkpoint.sffc"),
            "--dataset", "synthetic:blobs", "--seed", str(config.seed),
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["split"] == "test"
        assert 0.0 <= payload["accuracy"] <= 1.0

    @pytest.mark.parametrize("command", ["eval", "predict"])
    def test_wrong_input_width_is_shape_error(self, tmp_path, capsys, command):
        config = self.run_tiny(tmp_path)
        data_dir = tmp_path / "wide"
        data_dir.mkdir()
        for name in ("train.bse", "test.bse"):
            ds = dataio.make_temporal_dataset(4, input_dim=14,
                                              timesteps=config.timesteps)
            dataio.write_binned_events(data_dir / name, ds)
        code = cli.main([
            command, str(Path(config.out_dir) / "checkpoint.sffc"),
            "--dataset", f"bse:{data_dir}",
        ])
        assert code == 2
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"] == "ShapeError"
        assert "14 channels" in record["message"]

    @pytest.mark.parametrize("command", ["eval", "predict"])
    def test_eval_and_predict_read_only_their_split(self, tmp_path, capsys,
                                                    command):
        config = tiny_config(tmp_path, dataset="synthetic:temporal", timesteps=10)
        assert run_train(config) == 0
        data_dir = tmp_path / "test-only"
        data_dir.mkdir()
        dataio.write_binned_events(
            data_dir / "test.bse", dataio.make_temporal_dataset(6, seed=2))
        checkpoint = str(Path(config.out_dir) / "checkpoint.sffc")
        to_file = ["--out", str(tmp_path / "out")] if command == "predict" else []
        capsys.readouterr()

        def run(split):
            return cli.main([command, checkpoint, "--dataset", f"bse:{data_dir}",
                             "--split", split, *to_file])

        assert run("test") == 0
        assert run("train") == 2
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"] == "FileNotFoundError"
        assert "train.bse" in record["message"]

    def test_a_bse_copy_of_a_dataset_trains_and_predicts_as_it(self, tmp_path):
        """BSE1 bins are float32 and stay so in memory; the layer's product
        casts them, exactly, into the float64 rows the generator makes."""
        config = tiny_config(tmp_path, dataset="synthetic:temporal", timesteps=10)
        data_dir = tmp_path / "temporal-bse"
        data_dir.mkdir()
        for split in ("train", "test"):
            dataio.write_binned_events(data_dir / f"{split}.bse",
                                       cli.load_split(config, None, split))
        written = {}
        for name in ("synthetic:temporal", f"bse:{data_dir}"):
            out = tmp_path / str(len(written))
            assert run_train(dataclasses.replace(
                config, dataset=name, out_dir=str(out))) == 0
            assert cli.main(["predict", str(out / "checkpoint.sffc"),
                             "--out", str(out / "predict.csv")]) == 0
            written[name] = [(out / f).read_bytes()
                             for f in ("metrics.csv", "predict.csv")]
        assert written["synthetic:temporal"] == written[f"bse:{data_dir}"]

    def write_mnist_with_label(self, root, label):
        folder = root / "mnist"
        folder.mkdir(parents=True)
        images = np.zeros((3, 4, 4), dtype=np.uint8)
        for stem in ("train", "t10k"):
            dataio.write_idx_images(folder / f"{stem}-images-idx3-ubyte", images)
            dataio.write_idx_labels(folder / f"{stem}-labels-idx1-ubyte",
                                    np.array([0, label, 1]))

    def test_label_out_of_range_is_data_consistency_error(self, tmp_path, capsys):
        config = self.run_tiny(tmp_path)
        root = tmp_path / "data"
        self.write_mnist_with_label(root, 12)
        code = cli.main([
            "eval", str(Path(config.out_dir) / "checkpoint.sffc"),
            "--dataset", "mnist", "--data-root", str(root),
        ])
        assert code == 2
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"] == "DataConsistencyError"
        assert "[0, 10)" in record["message"]

        out = tmp_path / "bad-labels"
        code = cli.main(["train", "--dataset", "mnist", "--data-root", str(root),
                         "--out", str(out)])
        assert code == 1
        record = json.loads((out / "error.json").read_text())
        assert record["error"] == "DataConsistencyError"

    @pytest.mark.parametrize("command", ["eval", "predict"])
    def test_dataset_of_another_class_count_is_refused(self, tmp_path, capsys,
                                                       command):
        # both are 20 channels of 10 timesteps: only the class count differs
        five = tmp_path / "five"
        five.mkdir()
        for name in ("train.bse", "test.bse"):
            dataio.write_binned_events(
                five / name, dataio.make_temporal_dataset(40, class_count=5))
        datasets = {5: f"bse:{five}", 2: "synthetic:temporal"}
        checkpoints = {}
        for classes, dataset in datasets.items():
            config = tiny_config(tmp_path / f"c{classes}", dataset=dataset,
                                 timesteps=10, epochs=1)
            assert run_train(config) == 0
            checkpoints[classes] = str(Path(config.out_dir) / "checkpoint.sffc")
        capsys.readouterr()
        out_csv = tmp_path / "scores.csv"
        to_file = ["--out", str(out_csv)] if command == "predict" else []
        for trained, scored in ((5, 2), (2, 5)):
            code = cli.main([command, checkpoints[trained],
                             "--dataset", datasets[scored], *to_file])
            assert code == 2
            record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
            assert record["error"] == "DataConsistencyError"
            assert f"has {scored} classes" in record["message"]
            assert f"trained on {trained}" in record["message"]
        assert not out_csv.exists()

    @pytest.mark.parametrize("command", ["eval", "predict", "inspect"])
    def test_memory_error_is_a_structured_record(self, tmp_path, capsys,
                                                 monkeypatch, command):
        path = tmp_path / "net.sffc"
        save_checkpoint(path, build_network([4], 12, 2, 3, NeuronConfig(),
                                            RngStream(0)))

        def exhausted(*args, **kwargs):
            raise MemoryError("cannot allocate the network")

        monkeypatch.setattr(cli, "load_checkpoint", exhausted)
        assert cli.main([command, str(path)]) == 2
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record == {"error": "MemoryError",
                          "message": "cannot allocate the network"}

    def test_predict_command_csv(self, tmp_path):
        config = self.run_tiny(tmp_path)
        out_csv = tmp_path / "scores.csv"
        code = cli.main([
            "predict", str(Path(config.out_dir) / "checkpoint.sffc"),
            "--dataset", "synthetic:blobs", "--seed", str(config.seed),
            "--out", str(out_csv),
        ])
        assert code == 0
        rows = out_csv.read_text().strip().splitlines()
        assert rows[0] == "sample,true_label,predicted,score_0,score_1"
        assert len(rows) == 1 + 500
        first = rows[1].split(",")
        assert first[0] == "0" and len(first) == 5

    def test_predict_defaults_to_the_training_seed(self, tmp_path):
        config = self.run_tiny(tmp_path)
        checkpoint = str(Path(config.out_dir) / "checkpoint.sffc")

        def predict(*seed_flags):
            out_csv = tmp_path / f"scores{'-'.join(seed_flags)}.csv"
            assert cli.main(["predict", checkpoint, "--dataset", "synthetic:blobs",
                             *seed_flags, "--out", str(out_csv)]) == 0
            return out_csv.read_bytes()

        default = predict()
        assert default == predict("--seed", str(config.seed))
        assert default != predict("--seed", "0")

    def test_eval_defaults_to_the_training_dataset(self, tmp_path, capsys):
        config = tiny_config(tmp_path, dataset="synthetic:temporal", timesteps=10,
                             seed=4)
        assert run_train(config) == 0
        checkpoint = str(Path(config.out_dir) / "checkpoint.sffc")
        capsys.readouterr()

        def accuracy(*flags):
            assert cli.main(["eval", checkpoint, *flags]) == 0
            return json.loads(capsys.readouterr().out)

        default = accuracy()
        assert default["dataset"] == "synthetic:temporal"
        assert default == accuracy("--dataset", "synthetic:temporal", "--seed", "4")
        # a flag still names another dataset: the blobs are 12 channels wide
        assert cli.main(["eval", checkpoint, "--dataset", "synthetic:blobs"]) == 2
        assert "ShapeError" in capsys.readouterr().err

    def test_inspect_command(self, tmp_path, capsys):
        config = self.run_tiny(tmp_path)
        code = cli.main(["inspect", str(Path(config.out_dir) / "checkpoint.sffc")])
        assert code == 0
        text = capsys.readouterr().out
        assert "architecture: 12-12" in text
        assert "total trainable parameters" in text
        assert "unpopulated" not in text

    def test_inspect_unpopulated_stats_flagged(self, tmp_path, capsys):
        config = tiny_config(tmp_path, epochs=0)
        assert run_train(config) == 0
        cli.main(["inspect", str(Path(config.out_dir) / "checkpoint.sffc")])
        assert "unpopulated" in capsys.readouterr().out

    def test_inspect_param_count_closed_form(self, tmp_path, capsys):
        # 784-500-500, T=10, learnable decay:
        #   layer0: 784*500 + 2*10*500 + 500 = 402500
        #   layer1: 500*500 + 2*10*500 + 500 = 260500
        from spikeff.network import build_network
        from spikeff.neuron import NeuronConfig
        from spikeff.numerics import RngStream

        net = build_network([500, 500], 784, 10, 10,
                            NeuronConfig(threshold=1.0, decay=0.99,
                                         decay_learnable=True),
                            RngStream(0))
        path = tmp_path / "big.sffc"
        save_checkpoint(path, net)
        cli.main(["inspect", str(path)])
        text = capsys.readouterr().out
        assert "total trainable parameters: 663000" in text
        assert "architecture: 784-500-500" in text

    def test_make_fixtures(self, tmp_path, capsys):
        code = cli.main(["make-fixtures", "--out", str(tmp_path / "fx")])
        assert code == 0
        ds = dataio.load_idx(tmp_path / "fx" / "two-images-idx3-ubyte",
                             tmp_path / "fx" / "two-labels-idx1-ubyte",
                             class_count=10)
        assert ds.inputs.shape == (2, 784)
        expected = (np.arange(2 * 784) % 256).reshape(2, 784) / 255.0
        np.testing.assert_array_equal(ds.inputs, expected)
        tiny = dataio.load_binned_events(tmp_path / "fx" / "tiny.bse")
        np.testing.assert_array_equal(
            tiny.inputs, [[1.0, 0.0, 0.0, 2.0, 0.0, 1.0, 0.0, 0.0]])
        assert tiny.timesteps == 2 and tiny.input_dim == 4

    def test_data_root_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.DATA_ROOT_ENV, str(tmp_path / "elsewhere"))
        assert cli.data_root() == tmp_path / "elsewhere"
        assert cli.data_root("explicit") == Path("explicit")

    def test_inspect_missing_file_is_io_error(self, tmp_path, capsys):
        code = cli.main(["inspect", str(tmp_path / "nope.sffc")])
        assert code == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "FileNotFoundError"

    def test_inspect_truncated_file_reported(self, tmp_path, capsys):
        config = self.run_tiny(tmp_path)
        blob = (Path(config.out_dir) / "checkpoint.sffc").read_bytes()
        for offset in (6, 40, len(blob) - 8):
            cut = tmp_path / f"cut{offset}.sffc"
            cut.write_bytes(blob[:offset])
            assert cli.main(["inspect", str(cut)]) == 2
            record = json.loads(capsys.readouterr().err)
            assert record["error"] == "TruncatedFileError"
            assert "truncated" in record["message"]

    def test_inspect_version_mismatch_reported(self, tmp_path, capsys):
        import struct

        config = self.run_tiny(tmp_path)
        path = Path(config.out_dir) / "checkpoint.sffc"
        blob = bytearray(path.read_bytes())
        blob[4:8] = struct.pack("<I", 99)
        doctored = tmp_path / "doctored.sffc"
        doctored.write_bytes(bytes(blob))
        code = cli.main(["inspect", str(doctored)])
        assert code == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "CheckpointVersionError"
        assert "version 99" in record["message"]

    def test_eval_of_a_checkpoint_with_no_layers_reported(self, tmp_path, capsys):
        import struct

        config = self.run_tiny(tmp_path)
        blob = (Path(config.out_dir) / "checkpoint.sffc").read_bytes()
        (length,) = struct.unpack("<I", blob[8:12])
        header = json.loads(blob[12 : 12 + length])
        header.update(layers=[], tensors=[])  # no layer, and no tensor either
        text = json.dumps(header).encode()
        doctored = tmp_path / "doctored.sffc"
        doctored.write_bytes(blob[:8] + struct.pack("<I", len(text)) + text)
        code = cli.main(["eval", str(doctored), "--dataset", "synthetic:blobs"])
        assert code == 2
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"] == "FormatError"
        assert "layer widths" in record["message"]


class TestConfigRoundTripProperty:
    def test_random_configs_round_trip(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            config = ExperimentConfig(
                dataset=str(rng.choice(["mnist", "synthetic:blobs", "bse:/x"])),
                hidden_sizes=list(map(int, rng.integers(1, 600, rng.integers(1, 4)))),
                input_dim=None if rng.random() < 0.5 else int(rng.integers(4, 900)),
                class_count=None if rng.random() < 0.5 else int(rng.integers(2, 20)),
                threshold=float(rng.uniform(0.1, 5.0)),
                decay=float(rng.uniform(0.1, 1.0)),
                decay_learnable=bool(rng.integers(0, 2)),
                recurrent=bool(rng.integers(0, 2)),
                reset_mode=str(rng.choice(["subtract", "zero"])),
                timesteps=int(rng.integers(1, 20)),
                loss_sharpness=float(rng.uniform(0.1, 5.0)),
                surrogate_slope=float(rng.uniform(0.5, 4.0)),
                epochs=int(rng.integers(0, 500)),
                batch_size=int(rng.integers(2, 5000)),
                lr=float(10.0 ** rng.uniform(-5, -1)),
                lr_milestones=None if rng.random() < 0.5 else [5, 10],
                lr_factors=None if rng.random() < 0.5 else [0.3, 0.1],
                seed=int(rng.integers(0, 2**31)),
                eval_every=int(rng.integers(0, 10)),
                out_dir=f"runs/r{rng.integers(0, 100)}",
            )
            values = parse_config_values(serialize_config(config))
            assert ExperimentConfig(**values) == config
