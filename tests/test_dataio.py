import gzip
import pickle
import struct

import numpy as np
import pytest

from spikeff import cli, dataio
from spikeff.errors import (
    DataConsistencyError,
    FormatError,
    ShapeError,
    TruncatedFileError,
    UsageError,
)
from spikeff.numerics import RngStream

MNIST_TRAIN, MNIST_TRAIN_MISSING = cli.idx_paths(cli.data_root(), "mnist", "train")


def write_idx_pair(tmp_path, images, labels):
    img_path = tmp_path / "images-idx3-ubyte"
    lbl_path = tmp_path / "labels-idx1-ubyte"
    dataio.write_idx_images(img_path, images)
    dataio.write_idx_labels(lbl_path, labels)
    return img_path, lbl_path


class TestIdx:
    def test_two_image_fixture_exact_values(self, tmp_path):
        pixels = (np.arange(2 * 28 * 28) % 256).astype(np.uint8).reshape(2, 28, 28)
        img, lbl = write_idx_pair(tmp_path, pixels, np.array([3, 7], np.uint8))
        ds = dataio.load_idx(img, lbl, class_count=10)
        assert ds.inputs.shape == (2, 784)
        expected = (np.arange(2 * 784) % 256).reshape(2, 784) / 255.0
        np.testing.assert_array_equal(ds.inputs, expected)
        assert list(ds.labels) == [3, 7]
        assert ds.timesteps == 1 and not ds.temporal

    def test_all_zero_image(self, tmp_path):
        img, lbl = write_idx_pair(
            tmp_path, np.zeros((1, 4, 4), np.uint8), np.array([0], np.uint8)
        )
        ds = dataio.load_idx(img, lbl, class_count=4)
        np.testing.assert_array_equal(ds.inputs, np.zeros((1, 16)))

    def test_gzip_transparent(self, tmp_path):
        pixels = np.full((3, 2, 2), 255, np.uint8)
        img, lbl = write_idx_pair(tmp_path, pixels, np.array([0, 1, 2], np.uint8))
        for path in (img, lbl):
            with open(path, "rb") as f:
                data = f.read()
            with gzip.open(str(path) + ".gz", "wb") as f:
                f.write(data)
        ds = dataio.load_idx(str(img) + ".gz", str(lbl) + ".gz")
        np.testing.assert_array_equal(ds.inputs, np.ones((3, 4)))

    def test_bad_image_magic(self, tmp_path):
        path = tmp_path / "broken"
        path.write_bytes(struct.pack(">IIII", 0xDEADBEEF, 1, 2, 2) + b"\x00" * 4)
        _, lbl = write_idx_pair(tmp_path, np.zeros((1, 2, 2), np.uint8),
                                np.array([0], np.uint8))
        with pytest.raises(FormatError, match="magic"):
            dataio.load_idx(path, lbl)

    def test_bad_label_magic(self, tmp_path):
        img, _ = write_idx_pair(tmp_path, np.zeros((1, 2, 2), np.uint8),
                                np.array([0], np.uint8))
        bad = tmp_path / "badlabels"
        bad.write_bytes(struct.pack(">II", 0x00000999, 1) + b"\x00")
        with pytest.raises(FormatError, match="magic"):
            dataio.load_idx(img, bad)

    def test_count_mismatch(self, tmp_path):
        img, _ = write_idx_pair(tmp_path, np.zeros((2, 2, 2), np.uint8),
                                np.array([0, 0], np.uint8))
        lbl = tmp_path / "short-labels"
        dataio.write_idx_labels(lbl, np.array([0], np.uint8))
        with pytest.raises(DataConsistencyError, match="2 images but 1 labels"):
            dataio.load_idx(img, lbl)

    def test_truncated_carries_offset(self, tmp_path):
        path = tmp_path / "truncated"
        # declares 2 4x4 images (32 payload bytes) but carries only 10
        path.write_bytes(
            struct.pack(">IIII", dataio.IDX_IMAGE_MAGIC, 2, 4, 4) + b"\x01" * 10
        )
        _, lbl = write_idx_pair(tmp_path, np.zeros((2, 4, 4), np.uint8),
                                np.array([0, 0], np.uint8))
        with pytest.raises(TruncatedFileError) as err:
            dataio.load_idx(path, lbl)
        assert err.value.offset == 26
        assert err.value.wanted == 22

    @pytest.mark.skipif(
        bool(MNIST_TRAIN_MISSING),
        reason="MNIST train IDX files not present under the data root",
    )
    def test_mnist_train_shapes(self):
        img, lbl = MNIST_TRAIN
        ds = dataio.load_idx(img, lbl)
        assert ds.num_samples == 60000
        assert ds.input_dim == 784
        assert ds.labels.min() >= 0 and ds.labels.max() < 10


class TestBse:
    def tiny(self):
        return dataio.Dataset(
            np.array([[1.0, 0.0, 0.0, 2.0, 0.0, 1.0, 0.0, 0.0]]),
            np.array([1]),
            class_count=2,
            input_dim=4,
            temporal=True,
            timesteps=2,
        )

    def test_round_trip_exact(self, tmp_path):
        ds = self.tiny()
        path = tmp_path / "tiny.bse"
        dataio.write_binned_events(path, ds)
        back = dataio.load_binned_events(path)
        np.testing.assert_array_equal(back.inputs, ds.inputs)
        np.testing.assert_array_equal(back.labels, ds.labels)
        assert (back.class_count, back.input_dim, back.timesteps) == (2, 4, 2)
        assert back.temporal

    def test_written_bytes_match_hand_packed_records(self, tmp_path):
        inputs = np.array([[1.0, 0.0, 0.5, 2.0, 0.0, 1.0],
                           [0.0, 3.0, 0.0, 0.0, 0.25, 0.0],
                           [7.0, 0.0, 1.0, 0.0, 0.0, 4.0]])
        ds = dataio.Dataset(inputs, np.array([2, 0, 1]), 3, 3,
                            temporal=True, timesteps=2)
        path = tmp_path / "three.bse"
        dataio.write_binned_events(path, ds)
        expected = b"BSE1" + struct.pack("<IIII", 3, 2, 3, 3)
        for label, row in zip(ds.labels, inputs):
            expected += struct.pack("<B6f", int(label), *row)
        assert path.read_bytes() == expected

    def test_empty_sample_accepted(self, tmp_path):
        ds = dataio.Dataset(
            np.zeros((2, 8)), np.array([0, 1]), 2, 4, temporal=True, timesteps=2
        )
        path = tmp_path / "zero.bse"
        dataio.write_binned_events(path, ds)
        back = dataio.load_binned_events(path)
        np.testing.assert_array_equal(back.inputs, np.zeros((2, 8)))

    @pytest.mark.parametrize("label", [300, 256, -1])
    def test_label_outside_u8_rejected_before_writing(self, tmp_path, label):
        ds = dataio.Dataset(
            np.zeros((2, 8)), np.array([0, 1]), 2, 4, temporal=True, timesteps=2
        )
        ds.labels[1] = label  # the u32 header allows such a class count
        path = tmp_path / "wide-label.bse"
        with pytest.raises(FormatError, match=f"sample 1 has label {label}"):
            dataio.write_binned_events(path, ds)
        assert not path.exists()

    def test_nmnist_shaped_header(self, tmp_path):
        ds = dataio.Dataset(
            np.zeros((1, 10 * 2312)), np.array([4]), 10, 2312,
            temporal=True, timesteps=10,
        )
        path = tmp_path / "nmnist-shaped.bse"
        dataio.write_binned_events(path, ds)
        back = dataio.load_binned_events(path)
        assert back.input_dim == 2312
        assert back.timesteps == 10

    def test_random_round_trip(self, tmp_path):
        rng = RngStream(5)
        counts = rng.integers(0, 7, (6, 3 * 5)).astype(np.float64)
        ds = dataio.Dataset(counts, rng.integers(0, 4, 6), 4, 5,
                            temporal=True, timesteps=3)
        path = tmp_path / "rand.bse"
        dataio.write_binned_events(path, ds)
        back = dataio.load_binned_events(path)
        np.testing.assert_array_equal(back.inputs, ds.inputs)
        np.testing.assert_array_equal(back.labels, ds.labels)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bse"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(FormatError, match="magic"):
            dataio.load_binned_events(path)

    def test_payload_size_mismatch(self, tmp_path):
        path = tmp_path / "short.bse"
        path.write_bytes(dataio.BSE_MAGIC + struct.pack("<IIII", 2, 2, 4, 2)
                         + b"\x00" * 10)
        with pytest.raises(DataConsistencyError, match="declares 2 samples"):
            dataio.load_binned_events(path)


class TestDatasetChecks:
    def test_label_out_of_range_is_data_consistency_error(self):
        for labels in ([0, 12], [-1, 0]):
            with pytest.raises(DataConsistencyError, match=r"\[0, 10\)"):
                dataio.Dataset(np.zeros((2, 16)), np.array(labels), 10, 16)

    def test_input_dim_below_class_count_is_shape_error(self):
        with pytest.raises(ShapeError, match="input_dim 4 < class_count 10"):
            dataio.Dataset(np.zeros((2, 4)), np.array([0, 1]), 10, 4)

    def test_static_set_with_timesteps_is_shape_error(self):
        with pytest.raises(ShapeError, match="timesteps == 1"):
            dataio.Dataset(np.zeros((2, 8)), np.array([0, 1]), 2, 4, timesteps=2)


class TestEmbedding:
    def batch(self, rows, labels, timesteps=1):
        rows = np.asarray(rows, dtype=np.float64)
        return dataio.SampleBatch(rows, np.asarray(labels), rows.shape[1] // timesteps,
                                  timesteps)

    def test_simple_overlay(self):
        batch = self.batch([[0.2, 0.5, 0.1, 0.9]], [0])
        out = dataio.embed_label(batch, [1], class_count=2)
        np.testing.assert_array_equal(out.inputs, [[0.0, 0.9, 0.1, 0.9]])

    def test_zero_row_stays_zero(self):
        batch = self.batch([[0.0, 0.0, 0.0, 0.0]], [1])
        out = dataio.embed_label(batch, [0], class_count=2)
        np.testing.assert_array_equal(out.inputs, np.zeros((1, 4)))

    def test_one_lit_pixel_among_first_ten(self):
        rng = RngStream(11)
        row = rng.uniform(784, 0.0, 0.99)
        for target in (0, 4, 9):
            batch = self.batch([row], [target])
            out = dataio.embed_label(batch, [target], class_count=10)
            head = out.inputs[0, :10]
            assert np.count_nonzero(head) == 1
            assert head[target] == row.max()

    def test_tail_preserved_bitwise(self):
        rng = RngStream(12)
        rows = rng.uniform((5, 30))
        batch = self.batch(rows, [0] * 5)
        out = dataio.embed_label(batch, [2] * 5, class_count=3)
        assert out.inputs[:, 3:].tobytes() == rows[:, 3:].tobytes()

    def test_max_from_original_row_head_included(self):
        # the row maximum sits inside the overlaid head and must still win
        batch = self.batch([[0.9, 0.1, 0.2, 0.3]], [0])
        out = dataio.embed_label(batch, [1], class_count=2)
        np.testing.assert_array_equal(out.inputs, [[0.0, 0.9, 0.2, 0.3]])

    def test_temporal_overlay_every_timestep(self):
        rows = np.array([[0.1, 0.2, 0.7, 0.4, 0.0, 0.3, 0.1, 0.5]])
        batch = self.batch(rows, [1], timesteps=2)
        out = dataio.embed_label(batch, [0], class_count=2)
        framed = out.inputs.reshape(1, 2, 4)
        assert framed[0, 0, 0] == 0.7 and framed[0, 1, 0] == 0.7
        assert framed[0, 0, 1] == 0.0 and framed[0, 1, 1] == 0.0
        np.testing.assert_array_equal(framed[0, :, 2:],
                                      rows.reshape(1, 2, 4)[0, :, 2:])

    @pytest.mark.parametrize("timesteps", [1, 3])
    def test_empty_batch(self, timesteps):
        batch = self.batch(np.zeros((0, 4 * timesteps)), [], timesteps)
        out = dataio.embed_label(batch, [], class_count=2)
        assert out.inputs.shape == (0, 4 * timesteps)
        assert [f.shape for f in out.frames(timesteps)] == [(0, 4)] * timesteps

    def test_out_of_range_overlay(self):
        batch = self.batch([[0.5, 0.5, 0.5]], [0])
        with pytest.raises(DataConsistencyError, match=r"\[0, 2\)"):
            dataio.embed_label(batch, [2], class_count=2)
        with pytest.raises(DataConsistencyError, match=r"\[0, 2\)"):
            dataio.embed_label(batch, [-1], class_count=2)

    def test_overlay_needs_class_count_channels(self):
        batch = self.batch([[0.5, 0.5, 0.5]], [0])
        with pytest.raises(ShapeError, match="input_dim 3 < class_count 4"):
            dataio.embed_label(batch, [0], class_count=4)

    def test_make_positive_definition(self):
        # the positive variant overlays each sample's own label
        batch = self.batch([[0.1, 0.2, 0.3, 0.4]] * 2, [3, 1])
        out = dataio.embed_label(batch, batch.labels, class_count=4)
        assert isinstance(out, dataio.SampleBatch)
        assert list(out.labels) == [3, 1]
        assert (out.input_dim, out.timesteps) == (4, 1)
        np.testing.assert_array_equal(out.inputs, [[0.0, 0.0, 0.0, 0.4],
                                                   [0.0, 0.4, 0.0, 0.0]])

    def test_argmax_recovers_true_labels(self):
        rng = RngStream(13)
        rows = rng.uniform((20, 16), 0.05, 1.0)
        labels = rng.integers(0, 4, 20)
        batch = self.batch(rows, labels)
        out = dataio.embed_label(batch, batch.labels, class_count=4)
        recovered = out.inputs[:, :4].argmax(axis=1)
        np.testing.assert_array_equal(recovered, labels)

    def test_matches_embed_label_oracle(self):
        rng = RngStream(14)
        rows = rng.uniform((6, 10))
        labels = rng.integers(0, 3, 6)
        batch = self.batch(rows, labels)
        via_positive = dataio.embed_label(batch, batch.labels, 3)
        via_embed = dataio.embed_label(batch, labels, 3)
        np.testing.assert_array_equal(via_positive.inputs, via_embed.inputs)


class TestScaling:
    def test_byte_range_maps_to_unit(self):
        ds = dataio.Dataset(np.array([[0.0, 128.0, 255.0]]), np.array([0]), 1, 3)
        scaled = dataio.scale_to_unit(ds)
        assert scaled.inputs.min() == 0.0 and scaled.inputs.max() == 1.0
        np.testing.assert_allclose(scaled.inputs, [[0.0, 128 / 255, 1.0]])

    def test_idempotent(self):
        rng = RngStream(15)
        raw = rng.uniform((4, 6), -3.0, 9.0)
        ds = dataio.Dataset(raw, np.zeros(4, np.int64), 1, 6)
        once = dataio.scale_to_unit(ds)
        twice = dataio.scale_to_unit(once)
        np.testing.assert_allclose(twice.inputs, once.inputs, atol=1e-12)

    def test_constant_dataset_warns_and_zeroes(self):
        ds = dataio.Dataset(np.full((2, 3), 5.0), np.zeros(2, np.int64), 1, 3)
        with pytest.warns(UserWarning, match="constant"):
            scaled = dataio.scale_to_unit(ds)
        np.testing.assert_array_equal(scaled.inputs, np.zeros((2, 3)))


class TestBatching:
    def test_fixed_seed_same_permutation(self):
        ds = dataio.make_blob_dataset(40, seed=1)
        first = [b.labels.copy() for b in dataio.iter_batches(ds, 16, RngStream(2))]
        second = [b.labels.copy() for b in dataio.iter_batches(ds, 16, RngStream(2))]
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)

    def test_final_batch_may_be_short(self):
        ds = dataio.make_blob_dataset(10, seed=1)
        sizes = [b.size for b in dataio.iter_batches(ds, 4, RngStream(0))]
        assert sizes == [4, 4, 2]

    def test_shuffle_without_rng_rejected(self):
        ds = dataio.make_blob_dataset(4, seed=1)
        with pytest.raises(UsageError):
            list(dataio.iter_batches(ds, 2))


class TestFrames:
    def test_static_broadcast_shares_object(self):
        batch = dataio.SampleBatch(np.ones((2, 3)), np.zeros(2, np.int64), 3)
        frames = batch.frames(5)
        assert len(frames) == 5
        assert all(f is frames[0] for f in frames)

    def test_temporal_slices(self):
        rows = np.arange(12.0).reshape(2, 6)
        batch = dataio.SampleBatch(rows, np.zeros(2, np.int64), 2, timesteps=3)
        frames = batch.frames(3)
        np.testing.assert_array_equal(frames[1], [[2.0, 3.0], [8.0, 9.0]])

    def test_temporal_length_mismatch(self):
        batch = dataio.SampleBatch(np.ones((1, 6)), np.zeros(1, np.int64), 2,
                                   timesteps=3)
        with pytest.raises(UsageError):
            batch.frames(5)


class TestSynthetic:
    def test_blobs_deterministic_and_bounded(self):
        a = dataio.make_blob_dataset(50, seed=3)
        b = dataio.make_blob_dataset(50, seed=3)
        np.testing.assert_array_equal(a.inputs, b.inputs)
        assert a.inputs.min() >= 0.0 and a.inputs.max() <= 1.0
        assert set(np.unique(a.labels)) <= {0, 1}

    def test_blobs_share_geometry_across_seeds(self):
        a = dataio.make_blob_dataset(400, seed=3)
        b = dataio.make_blob_dataset(400, seed=4)
        for cls in (0, 1):
            mean_a = a.inputs[a.labels == cls].mean(axis=0)
            mean_b = b.inputs[b.labels == cls].mean(axis=0)
            assert np.abs(mean_a - mean_b).max() < 0.05

    def test_temporal_structure(self):
        ds = dataio.make_temporal_dataset(30, seed=6)
        assert ds.temporal and ds.timesteps == 10 and ds.input_dim == 20
        assert ds.inputs.shape == (30, 200)
        assert ds.inputs.min() >= 0.0
        # timed channels carry exactly one pattern spike (plus sparse noise)
        frames = ds.inputs.reshape(30, 10, 20)
        per_channel = (frames > 0).sum(axis=1)[:, 2:12]
        assert per_channel.min() >= 1

    def test_temporal_classes_differ_in_timing(self):
        ds = dataio.make_temporal_dataset(200, seed=7)
        frames = ds.inputs.reshape(200, 10, 20)
        # channel 2 (base slot 0) fires early for class 0, late for class 1;
        # jitter wrap-around and noise pull both means toward the middle but
        # a clear gap must remain
        t_index = np.arange(10)[None, :]
        chan = frames[:, :, 2]
        mean_time = (chan * t_index).sum(axis=1) / np.maximum(chan.sum(axis=1), 1)
        gap = mean_time[ds.labels == 1].mean() - mean_time[ds.labels == 0].mean()
        assert gap > 2.0


class TestCifar:
    def test_loads_pickle_batches(self, tmp_path):
        folder = tmp_path / "cifar-10-batches-py"
        folder.mkdir()
        rng = np.random.default_rng(0)
        for name, n in [("data_batch_1", 4), ("test_batch", 2)]:
            payload = {
                b"data": rng.integers(0, 256, (n, 3072), dtype=np.uint8),
                b"labels": list(rng.integers(0, 10, n)),
            }
            with open(folder / name, "wb") as f:
                pickle.dump(payload, f)
        for i in range(2, 6):
            with open(folder / f"data_batch_{i}", "wb") as f:
                pickle.dump({b"data": rng.integers(0, 256, (1, 3072), dtype=np.uint8),
                             b"labels": [0]}, f)
        train = dataio.load_cifar10(folder, "train")
        test = dataio.load_cifar10(folder, "test")
        assert train.num_samples == 8 and test.num_samples == 2
        assert train.input_dim == 3072
        assert train.inputs.max() <= 1.0

    def test_missing_batch_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            dataio.load_cifar10(tmp_path, "test")

    @pytest.mark.parametrize("protocol", [3, 4, 5])
    def test_two_sample_batches_load(self, tmp_path, protocol):
        data = (np.arange(2 * 3072) % 256).astype(np.uint8).reshape(2, 3072)
        for name in [f"data_batch_{i}" for i in range(1, 6)] + ["test_batch"]:
            (tmp_path / name).write_bytes(pickle.dumps(
                {b"data": data, b"labels": [3, 7], b"batch_label": b"x"},
                protocol=protocol,
            ))
        for split, n in (("train", 10), ("test", 2)):
            ds = dataio.load_cifar10(tmp_path, split)
            assert ds.num_samples == n
            np.testing.assert_array_equal(ds.inputs[:2], data / 255.0)
            np.testing.assert_array_equal(ds.labels[:2], [3, 7])

    def test_python2_batch_as_shipped_loads(self, tmp_path):
        # the released files: protocol 2, byte-string keys and pixel bytes,
        # numpy.core globals
        def short(b):
            return b"U" + bytes([len(b)]) + b

        data = (np.arange(2 * 3072) % 251).astype(np.uint8).reshape(2, 3072)
        stream = (
            b"\x80\x02}(" + short(b"data")
            + b"cnumpy.core.multiarray\n_reconstruct\ncnumpy\nndarray\n"
            + b"K\x00\x85" + short(b"b") + b"\x87R(K\x01K\x02M\x00\x0c\x86"
            + b"cnumpy\ndtype\n" + short(b"u1") + b"K\x00K\x01\x87R(K\x03"
            + short(b"|") + b"NNNJ\xff\xff\xff\xffJ\xff\xff\xff\xffK\x00tb"
            + b"\x89T" + struct.pack("<I", data.nbytes) + data.tobytes() + b"tb"
            + short(b"labels") + b"](K\x03K\x07eu."
        )
        (tmp_path / "test_batch").write_bytes(stream)
        ds = dataio.load_cifar10(tmp_path, "test")
        np.testing.assert_array_equal(ds.inputs, data / 255.0)
        np.testing.assert_array_equal(ds.labels, [3, 7])

    @pytest.mark.parametrize("protocol", [3, 4, 5])
    def test_numpy_scalar_labels_load(self, tmp_path, protocol):
        # `list(labels_array)` pickles each label as a numpy scalar
        labels = [np.int64(3), np.uint8(7), np.int32(0)]
        (tmp_path / "test_batch").write_bytes(pickle.dumps(
            {b"data": np.zeros((3, 3072), np.uint8), b"labels": labels},
            protocol=protocol,
        ))
        ds = dataio.load_cifar10(tmp_path, "test")
        np.testing.assert_array_equal(ds.labels, [3, 7, 0])

    def test_non_numeric_scalar_refused(self, tmp_path):
        stream = pickle.dumps({b"data": np.zeros((1, 3072), np.uint8),
                               b"labels": [np.int64(3)]}, protocol=4)
        assert stream.count(b"\x8c\x02i8") == 1  # the label's dtype code
        # timedelta64 has the same 8 bytes and would otherwise read as 3
        (tmp_path / "test_batch").write_bytes(
            stream.replace(b"\x8c\x02i8", b"\x8c\x02m8"))
        with pytest.raises(FormatError, match="plain numeric"):
            dataio.load_cifar10(tmp_path, "test")

    def test_foreign_global_refused_without_running(self, tmp_path):
        marker = tmp_path / "ran"

        class Exploit:
            def __reduce__(self):
                import os
                return (os.system, (f"touch {marker}",))

        (tmp_path / "test_batch").write_bytes(pickle.dumps(
            {b"data": Exploit(), b"labels": [0]}, protocol=4
        ))
        with pytest.raises(FormatError, match="not allowed"):
            dataio.load_cifar10(tmp_path, "test")
        assert not marker.exists()

    def test_truncated_batch_is_typed(self, tmp_path):
        whole = pickle.dumps({b"data": np.zeros((2, 3072), np.uint8),
                              b"labels": [0, 1]}, protocol=4)
        for cut in (0, 1, 20, len(whole) // 2, len(whole) - 1):
            (tmp_path / "test_batch").write_bytes(whole[:cut])
            with pytest.raises(FormatError):
                dataio.load_cifar10(tmp_path, "test")

    @pytest.mark.parametrize("payload", [
        {b"labels": [0, 1]},
        {b"data": np.zeros((2, 3072), np.uint8)},
        {b"data": np.zeros((2, 3071), np.uint8), b"labels": [0, 1]},
        {b"data": np.zeros((2, 3072), np.uint8), b"labels": [0]},
        [1, 2, 3],
    ], ids=["no-data", "no-labels", "width", "label-count", "not-a-dict"])
    def test_malformed_batch_is_format_error(self, tmp_path, payload):
        (tmp_path / "test_batch").write_bytes(pickle.dumps(payload, protocol=4))
        with pytest.raises(FormatError):
            dataio.load_cifar10(tmp_path, "test")
