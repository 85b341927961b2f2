"""End-to-end command-line runs through a subprocess, exercising the
exit-code contract and the artifact sidecars."""

import csv
import json
import multiprocessing
import os
import struct
import subprocess
import sys
import threading

import numpy as np
import pytest

from biohash import cli, convnet, datasets, errors, evalbench, hashers, plasticity, toymodel
from biohash.datasets import DataSet
from biohash.plasticity import LearningConfig, SynapseMatrix
from biohash.seeds import subseed, substream

from conftest import write_idx_images, write_idx_labels


def run_cli(*args):
    env = dict(os.environ, BIOHASH_THREADS="1")
    return subprocess.run([sys.executable, "-m", "biohash.cli"]
                          + [str(a) for a in args],
                          capture_output=True, text=True, env=env)


def assert_ok(proc):
    assert proc.returncode == 0, proc.stderr


@pytest.fixture(scope="module")
def data_file(tmp_path_factory):
    """Two labeled gaussian blobs, 110 rows each, saved as a matrix file."""
    root = tmp_path_factory.mktemp("cli-data")
    rng = substream(40, "cli")
    centers = np.stack([np.ones(8), -np.ones(8)]) / np.sqrt(8.0)
    rows = [centers[cls] + 0.15 * rng.normal(size=(110, 8))
            for cls in range(2)]
    labels = np.repeat([0, 1], 110)
    perm = rng.permutation(220)
    ds = DataSet(np.concatenate(rows)[perm].astype(np.float32), labels[perm])
    path = root / "blobs.bhm1"
    datasets.save_bhm1(path, ds)
    return path


@pytest.fixture(scope="module")
def model_file(tmp_path_factory, data_file):
    out = tmp_path_factory.mktemp("cli-model") / "model.bhw1"
    proc = run_cli("train", "--data", data_file, "--format", "bhm1",
                   "--method", "biohash", "--k", 4, "--activity", 0.1,
                   "--t-max", 5, "--seed", 3, "--out", out)
    assert_ok(proc)
    return out


class TestTrain:
    def test_happy_path_writes_model_and_sidecar(self, model_file):
        assert model_file.exists()
        doc = json.loads(model_file.with_suffix(".bhw1.json").read_text())
        assert doc["kind"] == "biohash"
        assert doc["k"] == 4
        assert doc["m"] == 40  # round(4 / 0.1)
        assert len(doc["center_mean"]) == 8
        assert doc["run_config"]["seed"] == 3
        assert doc["log"]["epochs"] <= 5

    def test_sidecar_logs_energy_and_dead_units_per_epoch(self, model_file):
        """`train` asks for the energy pass the library skips by default."""
        log = json.loads(model_file.with_suffix(".bhw1.json").read_text())["log"]
        assert log["epochs"] >= 1
        assert len(log["energy"]) == log["epochs"]
        assert all(isinstance(e, float) and np.isfinite(e) for e in log["energy"])
        assert len(log["dead_units"]) == log["epochs"]
        assert all(0.0 <= f < 1.0 for f in log["dead_units"])

    def test_sidecar_names_the_product_dtype(self, data_file, model_file, tmp_path):
        """40 x 8 weights train with the float64 product; a layer of at
        least F32_PRODUCT_MIN entries with the float32 one."""
        log = json.loads(model_file.with_suffix(".bhw1.json").read_text())["log"]
        assert log["product_dtype"] == "float64"
        out = tmp_path / "wide.bhw1"
        m = -(-plasticity.F32_PRODUCT_MIN // 8)
        assert_ok(run_cli("train", "--data", data_file, "--format", "bhm1",
                          "--method", "biohash", "--k", 4, "--m", m,
                          "--t-max", 1, "--out", out))
        doc = json.loads((tmp_path / "wide.bhw1.json").read_text())
        assert doc["m"] == m
        assert doc["log"]["product_dtype"] == "float32"

    @pytest.mark.parametrize("flag,value", [("--eps0", "nan"), ("--p", "inf"),
                                            ("--delta", "nan"),
                                            ("--converge-norm", "nan")])
    def test_nonfinite_schedule_is_config_error(self, data_file, tmp_path, flag, value):
        proc = run_cli("train", "--data", data_file, "--format", "bhm1",
                       "--method", "biohash", "--k", 2, "--t-max", 1, flag, value,
                       "--out", tmp_path / "x.bhw1")
        assert proc.returncode == 2
        assert not (tmp_path / "x.bhw1").exists()

    def test_m_derived_from_activity(self, data_file, tmp_path):
        out = tmp_path / "wide.bhw1"
        proc = run_cli("train", "--data", data_file, "--format", "bhm1",
                       "--method", "biohash", "--k", 16, "--activity", 0.05,
                       "--t-max", 2, "--out", out)
        assert_ok(proc)
        assert json.loads((tmp_path / "wide.bhw1.json").read_text())["m"] == 320

    def test_naive_uses_m_equal_k(self, data_file, tmp_path):
        out = tmp_path / "naive.bhw1"
        proc = run_cli("train", "--data", data_file, "--format", "bhm1",
                       "--method", "naivebiohash", "--k", 4, "--t-max", 2,
                       "--out", out)
        assert_ok(proc)
        assert json.loads((tmp_path / "naive.bhw1.json").read_text())["m"] == 4

    def test_rerun_reproduces_model_bytes(self, data_file, tmp_path):
        outs = []
        for name in ("a.bhw1", "b.bhw1"):
            out = tmp_path / name
            proc = run_cli("train", "--data", data_file, "--format", "bhm1",
                           "--method", "biohash", "--k", 2, "--activity", 0.2,
                           "--t-max", 3, "--seed", 11, "--out", out)
            assert_ok(proc)
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_k_zero_is_config_error(self, data_file, tmp_path):
        proc = run_cli("train", "--data", data_file, "--format", "bhm1",
                       "--method", "biohash", "--k", 0,
                       "--out", tmp_path / "x.bhw1")
        assert proc.returncode == 2

    def test_missing_file_is_data_error(self, tmp_path):
        proc = run_cli("train", "--data", tmp_path / "absent.bhm1",
                       "--format", "bhm1", "--method", "biohash", "--k", 2,
                       "--out", tmp_path / "x.bhw1")
        assert proc.returncode == 3

    def test_projection_methods_refuse_training(self, data_file, tmp_path):
        proc = run_cli("train", "--data", data_file, "--format", "bhm1",
                       "--method", "flyhash", "--k", 2,
                       "--out", tmp_path / "x.bhw1")
        assert proc.returncode == 2

    def test_bad_activity(self, data_file, tmp_path):
        proc = run_cli("train", "--data", data_file, "--format", "bhm1",
                       "--method", "biohash", "--k", 2, "--activity", 1.5,
                       "--out", tmp_path / "x.bhw1")
        assert proc.returncode == 2

    def test_bad_threads(self, data_file, tmp_path):
        proc = run_cli("train", "--data", data_file, "--format", "bhm1",
                       "--method", "biohash", "--k", 2,
                       "--out", tmp_path / "x.bhw1", "--threads", 0)
        assert proc.returncode == 2


class TestEncodeSearch:
    def encode(self, data_file, model_file, out):
        return run_cli("encode", "--data", data_file, "--format", "bhm1",
                       "--model", model_file, "--out", out)

    def test_encode_reads_sidecar_defaults(self, data_file, model_file,
                                           tmp_path):
        out = tmp_path / "db.bhc1"
        assert_ok(self.encode(data_file, model_file, out))
        doc = json.loads((tmp_path / "db.bhc1.json").read_text())
        assert doc["method"] == "biohash"
        assert doc["kind"] == "sparse"
        assert doc["m"] == 40 and doc["k"] == 4 and doc["count"] == 220

    def test_search_emits_ranked_csv(self, data_file, model_file, tmp_path):
        codes = tmp_path / "db.bhc1"
        assert_ok(self.encode(data_file, model_file, codes))
        res = tmp_path / "hits.csv"
        proc = run_cli("search", "--database", codes, "--queries", codes,
                       "--top", 3, "--out", res)
        assert_ok(proc)
        with open(res) as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["query_id", "rank", "db_id", "distance"]
        body = rows[1:]
        assert len(body) == 220 * 3
        # searching the bank against itself: every rank-1 hit is exact
        first = [r for r in body if r[1] == "1"]
        assert all(r[3] == "0" for r in first)
        doc = json.loads((tmp_path / "hits.csv.json").read_text())
        assert doc["storage_bits_per_record"] == 4 * 6  # k * ceil(log2 40)

    def test_mixed_code_kinds_rejected(self, data_file, model_file, tmp_path):
        sparse = tmp_path / "db.bhc1"
        assert_ok(self.encode(data_file, model_file, sparse))
        dense_model = tmp_path / "naive.bhw1"
        assert_ok(run_cli("train", "--data", data_file, "--format", "bhm1",
                          "--method", "naivebiohash", "--k", 4, "--t-max", 2,
                          "--out", dense_model))
        dense = tmp_path / "q.bhc1"
        assert_ok(self.encode(data_file, dense_model, dense))
        proc = run_cli("search", "--database", sparse, "--queries", dense,
                       "--out", tmp_path / "x.csv")
        assert proc.returncode == 3

    def test_encode_flyhash_needs_k(self, data_file, tmp_path):
        proc = run_cli("encode", "--data", data_file, "--format", "bhm1",
                       "--method", "flyhash", "--out", tmp_path / "x.bhc1")
        assert proc.returncode == 2

    @pytest.mark.parametrize("m, rows", [(2, [[0, 1, 2]]),         # k > m
                                         (4, [[0, 3], [1, 1]]),    # repeated index
                                         (4, [[0, 3], [2, 9]])])   # index >= m
    def test_search_malformed_codes_is_data_error(self, tmp_path, m, rows,
                                                  write_sparse_bhc1):
        codes = tmp_path / "bad.bhc1"
        write_sparse_bhc1(codes, rows, m)
        proc = run_cli("search", "--database", codes, "--queries", codes,
                       "--out", tmp_path / "x.csv")
        assert proc.returncode == 3, proc.stderr

    @pytest.mark.parametrize("top", [0, -1])
    def test_search_top_below_one_is_config_error(self, tmp_path, top,
                                                  write_sparse_bhc1):
        codes = tmp_path / "db.bhc1"
        write_sparse_bhc1(codes, [[0, 1], [1, 2], [2, 3], [0, 3]], 4)
        res = tmp_path / "hits.csv"
        proc = run_cli("search", "--database", codes, "--queries", codes,
                       "--top", top, "--out", res)
        assert proc.returncode == 2, proc.stderr
        assert not res.exists()

    def test_encode_nan_rows_is_data_error(self, data_file, model_file, tmp_path):
        # a NaN in the sidecar's centering mean turns every row into NaN
        model = tmp_path / "model.bhw1"
        model.write_bytes(model_file.read_bytes())
        side = json.loads(model_file.with_suffix(".bhw1.json").read_text())
        side["center_mean"][0] = float("nan")
        model.with_suffix(".bhw1.json").write_text(json.dumps(side))
        proc = self.encode(data_file, model, tmp_path / "x.bhc1")
        assert proc.returncode == 3, proc.stderr

    def test_model_with_zero_rows_is_data_error(self, data_file, tmp_path):
        model = tmp_path / "empty.bhw1"
        model.write_bytes(b"BHW1" + struct.pack("<IIddIQ", 0, 8, 2.0, 0.0, 2, 0))
        proc = run_cli("encode", "--data", data_file, "--format", "bhm1",
                       "--model", model, "--method", "biohash", "--k", 2,
                       "--out", tmp_path / "x.bhc1")
        assert proc.returncode == 3, proc.stderr

    def test_encode_dimension_mismatch_is_data_error(self, model_file, tmp_path):
        # the model is centered on d=8 rows; the d=6 rows cannot take its mean
        narrow = tmp_path / "narrow.bhm1"
        datasets.save_bhm1(narrow, DataSet(np.ones((5, 6), dtype=np.float32)))
        proc = self.encode(narrow, model_file, tmp_path / "x.bhc1")
        assert proc.returncode == 3, proc.stderr
        assert "mean has shape" in proc.stderr


@pytest.fixture(scope="module")
def data_root(tmp_path_factory):
    """A data root laid out as the fetch scripts write it: 3x3 IDX images
    (40 train, 10 t10k) under mnist/ and 30 5-d embeddings under glove/."""
    root = tmp_path_factory.mktemp("cli-root")
    rng = substream(42, "cli-root")
    (root / "mnist").mkdir()
    for split, n in (("train", 40), ("t10k", 10)):
        imgs = rng.integers(0, 256, size=(n, 3, 3)).astype(np.uint8)
        write_idx_images(root / "mnist" / f"{split}-images-idx3-ubyte", imgs)
        write_idx_labels(root / "mnist" / f"{split}-labels-idx1-ubyte",
                                  np.arange(n) % 2)
    (root / "glove").mkdir()
    lines = [f"w{i} " + " ".join(f"{v:.4f}" for v in row)
             for i, row in enumerate(rng.normal(size=(30, 5)))]
    (root / "glove" / "glove.tiny.5d.txt").write_text("\n".join(lines) + "\n")
    return root


class TestDataRoot:
    def test_idx_root_trains_on_train_and_encodes_all(self, data_root, tmp_path):
        model = tmp_path / "model.bhw1"
        assert_ok(run_cli("train", "--data", data_root, "--format", "idx",
                          "--method", "biohash", "--k", 2, "--activity", 0.25,
                          "--t-max", 3, "--out", model))
        codes = tmp_path / "db.bhc1"
        assert_ok(run_cli("encode", "--data", data_root, "--format", "idx",
                          "--model", model, "--out", codes))
        assert json.loads((tmp_path / "db.bhc1.json").read_text())["count"] == 50

    @pytest.mark.parametrize("top,count", [(None, 30), (10, 10)])
    def test_glove_directory_encodes(self, data_root, tmp_path, top, count):
        extra = [] if top is None else ["--glove-top", top]
        assert_ok(run_cli("encode", "--data", data_root / "glove", "--format", "glove",
                          "--method", "simhash", "--k", 4,
                          "--out", tmp_path / "g.bhc1", *extra))
        assert json.loads((tmp_path / "g.bhc1.json").read_text())["count"] == count

    def test_missing_dataset_is_data_error(self, tmp_path):
        proc = run_cli("train", "--data", tmp_path, "--format", "idx",
                       "--method", "biohash", "--k", 2, "--out", tmp_path / "x.bhw1")
        assert proc.returncode == 3, proc.stderr
        assert "fetch_mnist.py" in proc.stderr


@pytest.fixture(scope="module")
def image_file(tmp_path_factory):
    """Horizontal vs vertical stripe images, 28x28, labels 0/1."""
    root = tmp_path_factory.mktemp("cli-images")
    rng = substream(41, "cli-img")
    labels = np.repeat([0, 1], 30)
    grid = np.arange(28)
    imgs = np.empty((60, 28, 28))
    for i in range(60):
        wave = 0.5 + 0.5 * np.sin(rng.uniform(1.0, 1.6) * grid + rng.uniform(0, 7))
        imgs[i] = wave[None, :] if labels[i] else wave[:, None]
    imgs += 0.05 * rng.normal(size=imgs.shape)
    path = root / "stripes.bhm1"
    datasets.save_bhm1(path, DataSet(imgs.reshape(60, 784).astype(np.float32),
                                     labels))
    return path


class TestConvRoundtrip:
    def test_train_encode_search(self, image_file, tmp_path):
        """Conv prefix sidecars must supply method and k to encode."""
        prefix = tmp_path / "convmodel"
        proc = run_cli("train", "--data", image_file, "--format", "bhm1",
                       "--method", "bioconvhash", "--k", 4,
                       "--conv-preset", "mnist", "--filters", 8, "--k-ci", 3,
                       "--patch-subsample", 8000, "--t-max", 5, "--seed", 5,
                       "--out", prefix)
        assert_ok(proc)
        assert (tmp_path / "convmodel.bhcv").exists()
        assert (tmp_path / "convmodel.hash.bhw1").exists()
        codes = tmp_path / "cdb.bhc1"
        assert_ok(run_cli("encode", "--data", image_file, "--format", "bhm1",
                          "--model", prefix, "--out", codes))
        doc = json.loads((tmp_path / "cdb.bhc1.json").read_text())
        assert doc["method"] == "bioconvhash"
        assert doc["k"] == 4 and doc["count"] == 60
        res = tmp_path / "hits.csv"
        assert_ok(run_cli("search", "--database", codes, "--queries", codes,
                          "--top", 3, "--out", res))
        with open(res) as f:
            body = list(csv.reader(f))[1:]
        assert len(body) == 60 * 3
        assert all(r[3] == "0" for r in body if r[1] == "1")

    def test_hash_layer_of_another_width_is_data_error(self, tmp_path):
        config = convnet.ConvConfig(branches=(convnet.ConvBranch(3, 8, 0.1, 1e-2),),
                                    k_ci=3, layout=(6, 6, 1), pool_kernel=2,
                                    pool_stride=2, filter_t_max=5)
        imgs = substream(42, "cli-conv").random(size=(30, 36))
        data = tmp_path / "imgs.bhm1"
        datasets.save_bhm1(data, DataSet(imgs.astype(np.float32)))
        model, _ = convnet.conv_fit(imgs, config, k=2, activity=0.1,
                                    hash_overrides={"t_max": 3})
        prefix = tmp_path / "conv"
        convnet.save_conv_model(prefix, model)
        args = ["encode", "--data", data, "--format", "bhm1", "--method",
                "bioconvhash", "--model", prefix, "--k", 2,
                "--out", tmp_path / "codes.bhc1"]
        assert_ok(run_cli(*args))
        m, d = model.hash_sm.m, model.hash_sm.d
        plasticity.save_weights(str(prefix) + ".hash.bhw1",
                                SynapseMatrix(np.ones((m, d + 1)), LearningConfig(m=m)))
        proc = run_cli(*args)
        assert proc.returncode == 3, proc.stderr
        assert "hash layer d=" in proc.stderr


class TestEval:
    def test_label_protocol_reports(self, data_file, tmp_path):
        out = tmp_path / "reports.jsonl"
        table = tmp_path / "table.txt"
        proc = run_cli("eval", "--data", data_file, "--format", "bhm1",
                       "--protocol", "mnist_label", "--method", "biohash",
                       "--k", "2,4", "--t-max", 5, "--out", out,
                       "--table", table)
        assert_ok(proc)
        assert "mAP" in proc.stdout
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert [r["k"] for r in rows] == [2, 4]
        assert all(r["method"] == "biohash" for r in rows)
        assert all(0.0 <= r["map_percent"] <= 100.0 for r in rows)
        assert "k=2" in table.read_text()
        assert (tmp_path / "reports.jsonl.run.json").exists()

    def test_naivebiohash_runs(self, data_file):
        proc = run_cli("eval", "--data", data_file, "--format", "bhm1",
                       "--protocol", "mnist_label", "--method", "naivebiohash",
                       "--k", 4, "--t-max", 2)
        assert_ok(proc)
        assert "naivebiohash k=4" in proc.stdout

    def test_unknown_protocol_rejected(self, data_file, tmp_path):
        proc = run_cli("eval", "--data", data_file, "--format", "bhm1",
                       "--protocol", "imagenet", "--method", "biohash",
                       "--k", 2)
        assert proc.returncode == 2

    def test_zero_partitions_rejected(self, data_file, tmp_path):
        out = tmp_path / "reports.jsonl"
        proc = run_cli("eval", "--data", data_file, "--format", "bhm1",
                       "--protocol", "glove_partition", "--method", "simhash",
                       "--k", 2, "--partitions", 0, "--out", out)
        assert proc.returncode == 2, proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("rows", [9000, 10000])
    def test_partition_without_train_rows_exits_3(self, tmp_path, rows):
        path = tmp_path / "few.bhm1"
        datasets.save_bhm1(path, DataSet(substream(41, "few").normal(size=(rows, 4))))
        proc = run_cli("eval", "--data", path, "--format", "bhm1",
                       "--protocol", "glove_partition", "--method", "simhash",
                       "--k", 2, "--partitions", 1)
        assert proc.returncode == 3, proc.stderr
        assert "more than 10000 rows" in proc.stderr

    def test_partitions_match_the_library(self, tmp_path):
        path = tmp_path / "embed.bhm1"
        datasets.save_bhm1(path, DataSet(substream(42, "embed").normal(size=(10_050, 4))))
        out = tmp_path / "reports.jsonl"
        assert_ok(run_cli("eval", "--data", path, "--format", "bhm1",
                          "--protocol", "glove_partition", "--method", "simhash",
                          "--k", "2,4", "--partitions", 2, "--seed", 5, "--out", out))
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        ds = datasets.load_bhm1(path)
        for row, k in zip(rows, (2, 4), strict=True):
            want = evalbench.run_protocol(ds, "glove_partition", "simhash", k, seed=5,
                                          partitions=2)
            assert row["k"] == k
            assert row["config"]["partition_maps"] == want.config["partition_maps"]
            assert row["map_percent"] == want.map_percent

    def test_bad_k_list(self, data_file):
        proc = run_cli("eval", "--data", data_file, "--format", "bhm1",
                       "--protocol", "mnist_label", "--method", "biohash",
                       "--k", "2,zebra")
        assert proc.returncode == 2


class TestSweep:
    def test_sweep_writes_rows(self, data_file, tmp_path):
        out = tmp_path / "sweep.json"
        proc = run_cli("sweep", "--data", data_file, "--format", "bhm1",
                       "--protocol", "mnist_label", "--k", 2,
                       "--activities", "0.5,0.25", "--per-class", 5,
                       "--t-max", 5, "--out", out)
        assert_ok(proc)
        assert "activity" in proc.stdout
        doc = json.loads(out.read_text())
        assert [(r["activity"], r["m"]) for r in doc["rows"]] == \
            [(0.5, 4), (0.25, 8)]

    def test_class_below_per_class_is_data_error(self, data_file):
        # mnist_label leaves 10 train rows per class of the 110
        proc = run_cli("sweep", "--data", data_file, "--format", "bhm1",
                       "--protocol", "mnist_label", "--k", 2,
                       "--activities", "0.5", "--per-class", 11)
        assert proc.returncode == 3, proc.stderr
        assert "need 11" in proc.stderr

    def test_bad_activity_list(self, data_file):
        proc = run_cli("sweep", "--data", data_file, "--format", "bhm1",
                       "--protocol", "mnist_label", "--k", 2,
                       "--activities", "0.5,0")
        assert proc.returncode == 2


class TestToy:
    def test_sigma_csv_carries_analytic_angles(self, tmp_path):
        out = tmp_path / "toy.csv"
        proc = run_cli("toy", "--sigma", 0.5, "--m", 2, "--seeds", 1,
                       "--samples", 500, "--t-max", 10, "--out", out)
        assert_ok(proc)
        with open(out) as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["sigma", "m", "analytic_angles", "empirical_angles",
                           "kl_k1", "kl_k2"]
        assert len(rows) == 2
        analytic = rows[1][2].split(";")
        np.testing.assert_allclose([float(v) for v in analytic],
                                   [-0.463647609, 0.463647609], atol=1e-9)
        assert len(rows[1][3].split(";")) == 2
        assert (tmp_path / "toy.csv.json").exists()

    def test_uniform_emits_sixteen_angles(self, tmp_path):
        out = tmp_path / "uniform.csv"
        proc = run_cli("toy", "--uniform", "--m", 16, "--seeds", 1,
                       "--samples", 2000, "--t-max", 10, "--out", out)
        assert_ok(proc)
        with open(out) as f:
            rows = list(csv.reader(f))
        assert len(rows[1][2].split(";")) == 16
        assert len(rows[1][3].split(";")) == 16

    def test_stdout_when_no_out(self):
        proc = run_cli("toy", "--sigma", "0.5", "--m", 2, "--seeds", 1,
                       "--samples", 300, "--t-max", 5)
        assert_ok(proc)
        assert proc.stdout.splitlines()[0].startswith("sigma,m,")

    def test_negative_sigma_is_config_error(self):
        proc = run_cli("toy", "--sigma", -1, "--m", 2)
        assert proc.returncode == 2

    @pytest.mark.parametrize("seeds", [0, -1])
    def test_seeds_below_one_is_config_error(self, seeds):
        proc = run_cli("toy", "--uniform", "--m", 2, "--seeds", seeds)
        assert proc.returncode == 2
        assert "--seeds" in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize("argv, loaded", [(["--uniform"], False),
                                              (["--sigma", "1.0"], True)])
    def test_scipy_optimize_imported_only_to_solve_psi(self, argv, loaded):
        run = ["toy", *argv, "--m", "3", "--seeds", "1", "--samples", "200",
               "--t-max", "2"]
        script = ("import sys\nfrom biohash import cli\n"
                  f"status = cli.main({run!r})\n"
                  "print(status, 'scipy.optimize' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=dict(os.environ, BIOHASH_THREADS="1"))
        assert_ok(proc)
        assert proc.stdout.splitlines()[-1] == f"0 {loaded}"

    def test_m3_rows_include_kl(self, tmp_path):
        out = tmp_path / "m3.csv"
        proc = run_cli("toy", "--sigma", 1.0, "--m", 3, "--seeds", 1,
                       "--samples", 500, "--t-max", 10, "--out", out)
        assert_ok(proc)
        with open(out) as f:
            rows = list(csv.reader(f))
        assert float(rows[1][4]) >= 0.0
        assert float(rows[1][5]) >= 0.0

    @pytest.fixture
    def forks(self, monkeypatch):
        """Child pids of every fork this test makes."""
        real, pids = os.fork, []

        def fork():
            pid = real()
            if pid:
                pids.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", fork)
        return pids

    @staticmethod
    def small_fits(count):
        return [toymodel.CircleFit(2000, None, subseed(7, f"pts:{rep}"),
                                   LearningConfig(m=4, t_max=3, seed=subseed(7, f"fit:{rep}"),
                                                  converge_norm=0.0, unit_init=True))
                for rep in range(count)]

    @pytest.mark.parametrize("argv", [["--m", "3", "--sigma", "0.5,1", "--seeds", "3"],
                                      ["--m", "16", "--uniform", "--seeds", "5"]])
    def test_worker_pool_writes_the_inline_bytes(self, argv, tmp_path, monkeypatch, forks):
        real, trained = plasticity.train, []

        def train(data, config, *args, **kwargs):
            trained.append(config.seed)  # a worker appends to its own copy
            return real(data, config, *args, **kwargs)

        monkeypatch.setattr(plasticity, "train", train)
        written, caller_fits = [], []
        for cores in (1, 2):
            monkeypatch.setattr(hashers, "usable_cores", lambda n=cores: n)
            out = tmp_path / f"cores{cores}.csv"
            assert cli.main(["toy", *argv, "--samples", "2000", "--t-max", "3",
                             "--out", str(out)]) == cli.EXIT_OK
            written.append(out.read_bytes())
            caller_fits.append(list(trained))
            trained.clear()
            assert multiprocessing.active_children() == []
        assert written[0] == written[1]
        assert len(forks) == 1  # the caller and one worker
        # the caller fits its share, every second fit, itself
        assert caller_fits[1] == caller_fits[0][::2]

    def test_worker_failure_exits_as_inline(self, monkeypatch, capsys, forks):
        real, bad = plasticity.train, subseed(0, "fit:uniform:1")

        def train(data, config, *args, **kwargs):
            if config.seed == bad:  # fit 1, the worker's first at two cores
                raise errors.NonFiniteUpdate("stubbed blow-up")
            return real(data, config, *args, **kwargs)

        monkeypatch.setattr(plasticity, "train", train)
        seen = []
        for cores in (1, 2):
            monkeypatch.setattr(hashers, "usable_cores", lambda n=cores: n)
            status = cli.main(["toy", "--m", "4", "--uniform", "--seeds", "3",
                               "--samples", "2000", "--t-max", "3"])
            seen.append((status, capsys.readouterr()))
            assert multiprocessing.active_children() == []
        assert seen[0] == seen[1]
        assert seen[0][0] == cli.EXIT_NUMERIC
        assert "stubbed blow-up" in seen[0][1].err
        assert len(forks) == 1

    def test_first_failing_fit_wins(self, monkeypatch, forks):
        fits = self.small_fits(4)
        last = np.full((4, 2), 0.5)
        fail_at = {fits[1].config.seed: errors.NonFiniteUpdate("fit 1", last_weights=last),
                   fits[2].config.seed: errors.DegenerateRow("fit 2")}
        real = plasticity.train

        def train(data, config, *args, **kwargs):
            if config.seed in fail_at:
                raise fail_at[config.seed]
            return real(data, config, *args, **kwargs)

        monkeypatch.setattr(plasticity, "train", train)
        monkeypatch.setattr(hashers, "usable_cores", lambda: 2)
        # fit 2 fails in the caller first, but fit 1 comes first in order
        with pytest.raises(errors.NonFiniteUpdate, match="fit 1") as caught:
            toymodel.fit_circle_angles(fits)
        np.testing.assert_array_equal(caught.value.last_weights, last)
        assert multiprocessing.active_children() == []
        assert len(forks) == 1

    def test_dead_worker_raises(self, monkeypatch, forks):
        fits, caller = self.small_fits(3), os.getpid()
        real = plasticity.train

        def train(data, config, *args, **kwargs):
            if config.seed == fits[1].config.seed and os.getpid() != caller:
                os._exit(3)
            return real(data, config, *args, **kwargs)

        monkeypatch.setattr(plasticity, "train", train)
        monkeypatch.setattr(hashers, "usable_cores", lambda: 2)
        with pytest.raises(RuntimeError, match="exit code 3"):
            toymodel.fit_circle_angles(fits)
        assert multiprocessing.active_children() == []
        assert len(forks) == 1

    def test_no_fork_beside_another_thread(self, monkeypatch, forks):
        fits = self.small_fits(3)
        inline = [toymodel.fit_angles(fit) for fit in fits]
        monkeypatch.setattr(hashers, "usable_cores", lambda: 2)
        stop = threading.Event()
        other = threading.Thread(target=stop.wait)
        other.start()
        try:
            got = toymodel.fit_circle_angles(fits)
        finally:
            stop.set()
            other.join()
        assert forks == []
        for a, b in zip(got, inline):
            np.testing.assert_array_equal(a, b)

    def test_piped_output_is_written_once(self):
        run = ["toy", "--m", "4", "--uniform", "--seeds", "3", "--samples", "2000",
               "--t-max", "3"]
        # output still buffered when the workers fork must not be written twice
        script = ("from biohash import cli, hashers\n"
                  "hashers.usable_cores = lambda: 2\n"
                  "print('before the fits')\n"
                  f"raise SystemExit(cli.main({run!r}))\n")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=dict(os.environ, BIOHASH_THREADS="1"))
        assert_ok(proc)
        assert proc.stdout.count("before the fits") == 1
        assert proc.stdout.count("sigma,m,") == 1
        assert len(proc.stdout.splitlines()) == 5


# the exit code of every package error: 3 for bad data, 4 for numeric
# failures, 2 for everything else
EXIT_BY_ERROR = {
    "BioHashError": 2, "LayoutMismatch": 2, "KOutOfRange": 2, "SamplingTooLarge": 2,
    "TooSmall": 2,
    "DataError": 3, "BadMagic": 3, "TruncatedFile": 3, "BadHeader": 3, "ParseError": 3,
    "RaggedLine": 3, "LabelOutOfRange": 3, "MissingLabels": 3, "TooFewPerClass": 3,
    "DimensionMismatch": 3, "ShapeMismatch": 3, "MalformedCode": 3, "NonFiniteInput": 3,
    "EmptyQuerySet": 3,
    "NumericError": 4, "NonFiniteUpdate": 4, "NoBracket": 4, "DomainError": 4,
    "RankDeficient": 4, "DegenerateVariance": 4, "DegenerateRow": 4,
}


@pytest.mark.parametrize("name", sorted(
    name for name, cls in vars(errors).items()
    if isinstance(cls, type) and issubclass(cls, errors.BioHashError)))
def test_every_error_keeps_its_exit_code(name, monkeypatch, capsys):
    def fail(args, parser):
        raise getattr(errors, name)("stubbed failure")

    monkeypatch.delenv("BIOHASH_THREADS", raising=False)
    monkeypatch.setattr(cli, "cmd_search", fail)
    code = cli.main(["search", "--database", "db", "--queries", "q", "--out", "out.csv"])
    assert code == EXIT_BY_ERROR[name]
    assert capsys.readouterr().err == "error: stubbed failure\n"
