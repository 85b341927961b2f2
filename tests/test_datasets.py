"""Loaders, protocol splits, and transforms on synthetic files."""

import gzip
import hashlib

import numpy as np
import pytest
from scipy.integrate import trapezoid

from biohash.datasets import (CircleDensity, DataSet, ProtocolSplit, center, load_bhm1,
                              load_cifar10_bin, load_dir, load_glove_text,
                              load_idx, protocol_split, sample_circle,
                              save_bhm1, shadow_transform)
from biohash.errors import (BadMagic, DimensionMismatch, LabelOutOfRange,
                            LayoutMismatch, MissingLabels, ParseError,
                            RaggedLine, TooFewPerClass, TruncatedFile)

from conftest import make_blobs, write_idx_images, write_idx_labels


class TestLoadIdx:
    def test_pixel_scaling_hand_case(self, tmp_path):
        """Alternating 0/255 bytes become alternating 0/1 rows."""
        imgs = np.array([[[0, 255], [0, 255]], [[255, 0], [255, 0]]],
                        dtype=np.uint8)
        path = tmp_path / "imgs-idx3-ubyte"
        write_idx_images(path, imgs)
        ds = load_idx(path)
        assert (ds.n, ds.d) == (2, 4)
        np.testing.assert_allclose(ds.data, [[0, 1, 0, 1], [1, 0, 1, 0]])

    def test_zero_image_file_is_valid(self, tmp_path):
        path = tmp_path / "empty-idx3-ubyte"
        write_idx_images(path, np.zeros((0, 2, 2), dtype=np.uint8))
        ds = load_idx(path)
        assert ds.n == 0
        assert ds.d == 4

    def test_gzip_transparent(self, tmp_path):
        imgs = np.arange(8, dtype=np.uint8).reshape(2, 2, 2)
        plain = tmp_path / "imgs-idx3-ubyte"
        write_idx_images(plain, imgs)
        packed = tmp_path / "imgs-idx3-ubyte.gz"
        packed.write_bytes(gzip.compress(plain.read_bytes()))
        np.testing.assert_array_equal(load_idx(packed).data,
                                      load_idx(plain).data)

    def test_labels_pair(self, tmp_path):
        imgs = np.zeros((2, 2, 2), dtype=np.uint8)
        ip, lp = tmp_path / "i-idx3", tmp_path / "l-idx1"
        write_idx_images(ip, imgs)
        write_idx_labels(lp, [7, 3])
        ds = load_idx(ip, lp)
        np.testing.assert_array_equal(ds.labels, [7, 3])

    def test_label_count_mismatch(self, tmp_path):
        ip, lp = tmp_path / "i-idx3", tmp_path / "l-idx1"
        write_idx_images(ip, np.zeros((2, 2, 2), dtype=np.uint8))
        write_idx_labels(lp, [1])
        with pytest.raises(DimensionMismatch):
            load_idx(ip, lp)

    def test_truncated_pixels(self, tmp_path):
        ip = tmp_path / "i-idx3"
        write_idx_images(ip, np.zeros((2, 2, 2), dtype=np.uint8))
        ip.write_bytes(ip.read_bytes()[:-3])
        with pytest.raises(TruncatedFile):
            load_idx(ip)

    def test_bad_magic(self, tmp_path):
        ip = tmp_path / "i-idx3"
        write_idx_images(ip, np.zeros((1, 2, 2), dtype=np.uint8))
        raw = bytearray(ip.read_bytes())
        raw[3] = 0xFF
        ip.write_bytes(bytes(raw))
        with pytest.raises(BadMagic):
            load_idx(ip)


def cifar_record(label, planar_pixels):
    return bytes([label]) + bytes(planar_pixels)


class TestLoadCifar:
    def test_single_record_all_255(self, tmp_path):
        path = tmp_path / "batch.bin"
        path.write_bytes(cifar_record(3, [255] * 3072))
        ds = load_cifar10_bin([path])
        assert (ds.n, ds.d) == (1, 3072)
        np.testing.assert_allclose(ds.data[0], 1.0)
        assert ds.labels[0] == 3

    def test_channel_planar_to_channel_last(self, tmp_path):
        """A record with only the first plane lit lands on channel 0."""
        pixels = [255] * 1024 + [0] * 2048
        path = tmp_path / "batch.bin"
        path.write_bytes(cifar_record(0, pixels))
        ds = load_cifar10_bin([path])
        row = ds.data[0].reshape(32, 32, 3)
        np.testing.assert_allclose(row[:, :, 0], 1.0)
        np.testing.assert_allclose(row[:, :, 1:], 0.0)

    def test_files_concatenate_in_order(self, tmp_path):
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        a.write_bytes(cifar_record(1, [0] * 3072))
        b.write_bytes(cifar_record(2, [0] * 3072))
        ds = load_cifar10_bin([a, b])
        np.testing.assert_array_equal(ds.labels, [1, 2])

    def test_truncated_record(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"\x00" * 3072)
        with pytest.raises(TruncatedFile):
            load_cifar10_bin([path])

    def test_label_out_of_range(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(cifar_record(12, [0] * 3072))
        with pytest.raises(LabelOutOfRange):
            load_cifar10_bin([path])


class TestLoadGlove:
    def test_basic_parse(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("cat 1.0 2.0\ndog 3.0 4.0\n")
        ds = load_glove_text(path, top_n=10)
        assert (ds.n, ds.d) == (2, 2)
        assert ds.words == ["cat", "dog"]
        np.testing.assert_allclose(ds.data, [[1, 2], [3, 4]])

    def test_top_n_truncates(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("cat 1.0 2.0\ndog 3.0 4.0\n")
        ds = load_glove_text(path, top_n=1)
        assert ds.n == 1
        assert ds.words == ["cat"]

    def test_no_top_n_loads_every_line(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("cat 1.0 2.0\ndog 3.0 4.0\nemu 5.0 6.0\n")
        ds = load_glove_text(path)
        assert ds.words == ["cat", "dog", "emu"]

    def test_ragged_line(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("cat 1.0 2.0 3.0\ndog 1.0 2.0\n")
        with pytest.raises(RaggedLine):
            load_glove_text(path, top_n=10)

    def test_non_numeric_component(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("cat 1.0 oops\n")
        with pytest.raises(ParseError):
            load_glove_text(path, top_n=10)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("")
        with pytest.raises(ParseError):
            load_glove_text(path, top_n=10)


def write_mnist(directory, gz=False, skip=()):
    """Three train and two t10k 2x2 images whose bytes count up, so row
    order shows in the data, with labels 0..4; returns the file paths."""
    directory.mkdir(parents=True, exist_ok=True)
    imgs = np.arange(20, dtype=np.uint8).reshape(5, 2, 2)
    labels = np.arange(5, dtype=np.uint8)
    files = {"train-images-idx3-ubyte": (write_idx_images, imgs[:3]),
             "train-labels-idx1-ubyte": (write_idx_labels, labels[:3]),
             "t10k-images-idx3-ubyte": (write_idx_images, imgs[3:]),
             "t10k-labels-idx1-ubyte": (write_idx_labels, labels[3:])}
    paths = []
    for name, (write, arr) in files.items():
        if name in skip:
            continue
        path = directory / name
        write(path, arr)
        if gz:
            path = directory / (name + ".gz")
            path.write_bytes(gzip.compress((directory / name).read_bytes()))
            (directory / name).unlink()
        paths.append(path)
    return paths


class TestLoadDir:
    @pytest.mark.parametrize("which,n", [("train", 3), ("all", 5)])
    @pytest.mark.parametrize("sub", ["mnist", ""], ids=["subdir", "root"])
    @pytest.mark.parametrize("gz", [False, True], ids=["plain", "gz"])
    def test_idx_train_then_t10k(self, tmp_path, gz, sub, which, n):
        paths = write_mnist(tmp_path / sub, gz)
        parts = [load_idx(images, labels) for images, labels in zip(paths[::2], paths[1::2])]
        ds = load_dir("idx", tmp_path, which)
        np.testing.assert_array_equal(ds.data, np.concatenate([p.data for p in parts])[:n])
        np.testing.assert_array_equal(ds.labels, np.arange(n))
        assert ds.data.dtype == np.float32
        np.testing.assert_allclose(ds.data[:, 0] * 255, 4 * np.arange(n))

    def test_subdirectory_comes_before_root(self, tmp_path):
        write_mnist(tmp_path / "mnist")
        write_idx_images(tmp_path / "train-images-idx3-ubyte", np.zeros((1, 2, 2)))
        assert load_dir("idx", tmp_path).n == 5

    @pytest.mark.parametrize("which,n", [("train", 5), ("all", 6)])
    def test_cifar_batches_subdirectory(self, tmp_path, which, n):
        where = tmp_path / "cifar" / "cifar-10-batches-bin"
        where.mkdir(parents=True)
        names = [f"data_batch_{i}.bin" for i in range(1, 6)] + ["test_batch.bin"]
        paths = [where / name for name in names]
        paths[-1] = where / "test_batch.bin.gz"  # compressed reads like plain
        for label, path in enumerate(paths):
            raw = cifar_record(label, [label] * 3072)
            path.write_bytes(gzip.compress(raw) if path.suffix == ".gz" else raw)
        ds = load_dir("cifar", tmp_path, which)
        np.testing.assert_array_equal(ds.labels, np.arange(n))
        np.testing.assert_array_equal(ds.data, load_cifar10_bin(paths[:n]).data)

    def test_glove_reads_every_line(self, tmp_path):
        (tmp_path / "glove").mkdir()
        (tmp_path / "glove" / "glove.test.txt").write_text(
            "cat 1.0 2.0\ndog 3.0 4.0\nemu 5.0 6.0\n")
        ds = load_dir("glove", tmp_path)
        assert ds.words == ["cat", "dog", "emu"]
        np.testing.assert_allclose(ds.data, [[1, 2], [3, 4], [5, 6]])

    def test_glove_first_file_in_sorted_order(self, tmp_path):
        (tmp_path / "glove.b.txt").write_text("bee 1.0\n")
        (tmp_path / "glove.a.txt").write_text("ant 2.0\nasp 3.0\nauk 4.0\n")
        assert load_dir("glove", tmp_path).words == ["ant", "asp", "auk"]
        assert load_dir("glove", tmp_path, top_n=2).words == ["ant", "asp"]

    def test_missing_root_names_search_and_fetch_script(self, tmp_path):
        with pytest.raises(FileNotFoundError) as info:
            load_dir("idx", tmp_path)
        msg = str(info.value)
        assert "train-images-idx3-ubyte" in msg
        assert str(tmp_path / "mnist") in msg and "fetch_mnist.py" in msg

    def test_missing_test_file(self, tmp_path):
        write_mnist(tmp_path, skip=("t10k-labels-idx1-ubyte",))
        assert load_dir("idx", tmp_path, "train").n == 3
        with pytest.raises(FileNotFoundError, match="t10k-labels-idx1-ubyte"):
            load_dir("idx", tmp_path, "all")

    def test_missing_glove(self, tmp_path):
        (tmp_path / "glove").mkdir()
        with pytest.raises(FileNotFoundError, match="fetch_glove.py"):
            load_dir("glove", tmp_path)

    @pytest.mark.parametrize("fmt,which", [("bhm1", "all"), ("idx", "test")])
    def test_bad_arguments(self, tmp_path, fmt, which):
        with pytest.raises(ValueError):
            load_dir(fmt, tmp_path, which)


class TestBhm1:
    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        ds = DataSet(rng.normal(size=(5, 3)).astype(np.float32),
                     np.array([0, 1, 2, 1, 0]))
        path = tmp_path / "m.bhm1"
        save_bhm1(path, ds)
        back = load_bhm1(path)
        np.testing.assert_array_equal(back.data, ds.data)
        np.testing.assert_array_equal(back.labels, ds.labels)

    def test_roundtrip_without_labels(self, tmp_path):
        ds = DataSet(np.ones((2, 2), dtype=np.float32))
        path = tmp_path / "m.bhm1"
        save_bhm1(path, ds)
        assert load_bhm1(path).labels is None

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.bhm1"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(BadMagic):
            load_bhm1(path)

    def test_truncated(self, tmp_path):
        ds = DataSet(np.ones((4, 4), dtype=np.float32))
        path = tmp_path / "m.bhm1"
        save_bhm1(path, ds)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(TruncatedFile):
            load_bhm1(path)


class TestProtocolSplit:
    def test_label_protocol_cardinalities(self, blobs):
        split = protocol_split(blobs, "mnist_label", seed=1)
        assert len(split.query_ids) == 300  # 100 per class, 3 classes
        assert len(split.train_ids) == blobs.n - 300
        np.testing.assert_array_equal(split.train_ids, split.database_ids)
        assert split.ground_truth_mode == "labels"
        assert split.map_depth is None

    def test_queries_disjoint_from_database(self, blobs):
        split = protocol_split(blobs, "mnist_label", seed=1)
        assert np.intersect1d(split.query_ids, split.database_ids).size == 0

    def test_same_seed_same_split(self, blobs):
        a = protocol_split(blobs, "mnist_label", seed=5)
        b = protocol_split(blobs, "mnist_label", seed=5)
        np.testing.assert_array_equal(a.query_ids, b.query_ids)

    def test_knn_protocol_modes(self, blobs):
        split = protocol_split(blobs, "mnist_euclid100", seed=1)
        assert split.ground_truth_mode == "knn_euclidean"
        assert split.gt_neighbors == 100
        assert split.map_depth == 100

    def test_too_few_per_class(self, blobs):
        with pytest.raises(TooFewPerClass):
            protocol_split(blobs, "cifar_label", seed=1)

    def test_missing_labels(self):
        ds = DataSet(np.zeros((10, 2)))
        with pytest.raises(MissingLabels):
            protocol_split(ds, "mnist_label", seed=1)

    def test_partition_protocol(self):
        ds = DataSet(np.random.default_rng(0).normal(size=(10040, 3)))
        split = protocol_split(ds, "glove_partition", seed=2)
        assert len(split.database_ids) == 10000
        assert len(split.train_ids) == 40
        np.testing.assert_array_equal(split.database_ids, split.query_ids)
        assert split.ground_truth_mode == "knn_cosine"

    @pytest.mark.parametrize("rows", [9000, 10000])
    def test_partition_needs_a_train_row(self, rows):
        # 10000 rows form the database, so 10000 leaves none to train
        ds = DataSet(np.zeros((rows, 2)))
        with pytest.raises(TooFewPerClass, match="more than 10000 rows"):
            protocol_split(ds, "glove_partition", seed=2)

    def test_smallest_partition_draws_as_before(self):
        split = protocol_split(DataSet(np.zeros((10001, 2))), "glove_partition", seed=2)
        np.testing.assert_array_equal(split.train_ids, [6250])
        digest = hashlib.sha1(split.database_ids.astype("<i8").tobytes()).hexdigest()
        assert digest == "a17bfccd4b31afa849713d65cd4689bdb3841f87"

    def test_empty_train_set_rejected(self):
        ids = np.arange(5)
        with pytest.raises(TooFewPerClass, match="train set is empty"):
            ProtocolSplit(ids[:0], ids, ids, "labels")

    def test_unknown_protocol(self, blobs):
        with pytest.raises(ValueError):
            protocol_split(blobs, "nope", seed=0)


class TestCenter:
    def test_column_means_removed(self, blobs):
        out, mean = center(blobs)
        np.testing.assert_allclose(out.data.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(mean, blobs.data.mean(axis=0))

    def test_reuse_mean_is_exact_subtraction(self, blobs):
        _, mean = center(blobs)
        queries = DataSet(blobs.data[:5])
        out, _ = center(queries, mean)
        np.testing.assert_array_equal(out.data, blobs.data[:5] - mean)

    def test_single_row_centers_to_zero(self):
        out, _ = center(DataSet(np.array([[3.0, -2.0]])))
        np.testing.assert_allclose(out.data, 0.0)

    def test_wrong_mean_shape(self, blobs):
        with pytest.raises(DimensionMismatch):
            center(blobs, np.zeros(blobs.d + 1))


class TestShadowTransform:
    def test_factor_one_is_identity(self):
        ds = DataSet(np.random.default_rng(0).random((3, 32 * 32 * 3)))
        out = shadow_transform(ds, 0.8, 1.0)
        np.testing.assert_array_equal(out.data, ds.data)

    def test_bottom_rows_dimmed(self):
        """ceil(0.8 * 32) = 26 bottom rows dimmed, top 6 untouched."""
        ds = DataSet(np.ones((1, 32 * 32 * 3)))
        out = shadow_transform(ds, 0.8, 0.3)
        img = out.data[0].reshape(32, 32, 3)
        np.testing.assert_allclose(img[:6], 1.0)
        np.testing.assert_allclose(img[6:], 0.3)

    def test_fraction_zero_is_identity(self):
        ds = DataSet(np.random.default_rng(1).random((2, 32 * 32 * 3)))
        out = shadow_transform(ds, 0.0, 0.3)
        np.testing.assert_array_equal(out.data, ds.data)

    def test_layout_mismatch(self):
        ds = DataSet(np.ones((1, 10)))
        with pytest.raises(LayoutMismatch):
            shadow_transform(ds, 0.8, 0.3, layout=(32, 32, 3))


class TestSampleCircle:
    def test_rows_unit_norm(self):
        ds = sample_circle(1000, None, seed=0)
        np.testing.assert_allclose(np.linalg.norm(ds.data, axis=1), 1.0,
                                   atol=1e-12)

    def test_uniform_angle_mean_near_zero(self):
        ds = sample_circle(100_000, None, seed=1)
        phi = np.arctan2(ds.data[:, 1], ds.data[:, 0])
        stderr = (2 * np.pi / np.sqrt(12)) / np.sqrt(phi.size)
        assert abs(phi.mean()) < 3 * stderr

    def test_peaked_density_mass_matches_quadrature(self):
        """Empirical P(|phi| < sigma) tracks the density integral."""
        density = CircleDensity(0.3)
        ds = sample_circle(100_000, density, seed=2)
        phi = np.arctan2(ds.data[:, 1], ds.data[:, 0])
        grid = np.linspace(-0.3, 0.3, 20001)
        expected = trapezoid(density.pdf(grid), grid)
        assert abs((np.abs(phi) < 0.3).mean() - expected) < 0.01

    def test_single_sample(self):
        ds = sample_circle(1, None, seed=3)
        assert ds.data.shape == (1, 2)

    def test_deterministic(self):
        a = sample_circle(50, CircleDensity(1.0), seed=4)
        b = sample_circle(50, CircleDensity(1.0), seed=4)
        np.testing.assert_array_equal(a.data, b.data)

    def test_n_zero_rejected(self):
        with pytest.raises(ValueError):
            sample_circle(0, None, seed=0)


class TestCircleDensity:
    def test_pdf_integrates_to_one(self):
        for sigma in (0.1, 0.5, 1.0, 5.0):
            grid = np.linspace(-np.pi, np.pi, 200001)
            total = trapezoid(CircleDensity(sigma).pdf(grid), grid)
            np.testing.assert_allclose(total, 1.0, rtol=1e-6)

    def test_nonpositive_sigma_rejected(self):
        with pytest.raises(ValueError):
            CircleDensity(0.0)


class TestTake:
    def test_subsets_rows_and_labels(self):
        ds = make_blobs(n_per_class=10, classes=2, d=3)
        sub = ds.take([0, 5, 7])
        np.testing.assert_array_equal(sub.data, ds.data[[0, 5, 7]])
        np.testing.assert_array_equal(sub.labels, ds.labels[[0, 5, 7]])
