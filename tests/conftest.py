"""Shared synthetic data builders for the test suite."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from biohash.datasets import DataSet
from biohash.seeds import substream


def make_blobs(n_per_class=130, classes=3, d=12, spread=0.25, seed=0):
    """Labeled gaussian blobs around well-separated unit-norm centers."""
    rng = substream(seed, "blobs")
    centers = rng.normal(size=(classes, d))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    rows, labels = [], []
    for cls in range(classes):
        rows.append(centers[cls] + spread * rng.normal(size=(n_per_class, d)))
        labels.append(np.full(n_per_class, cls))
    data = np.concatenate(rows)
    labels = np.concatenate(labels)
    order = rng.permutation(data.shape[0])
    return DataSet(data[order], labels[order], source="blobs")


@pytest.fixture
def blobs():
    """Default labeled blob dataset: 3 classes, 130 rows each, d=12."""
    return make_blobs()


@pytest.fixture
def blob_factory():
    return make_blobs


@pytest.fixture
def write_sparse_bhc1():
    """Write a sparse BHC1 bank byte by byte, bypassing save_codes' checks,
    so the reader's own checks can be fed malformed files."""
    import struct

    def write(path, rows, m):
        rows = np.asarray(rows, dtype="<u4")
        head = struct.pack("<IIBQ", m, rows.shape[1], 0, rows.shape[0])
        path.write_bytes(b"BHC1" + head + rows.tobytes())

    return write


@pytest.fixture(scope="session")
def mnist_like():
    """The benchmark's seeded MNIST-shaped generator, `mnist_like(n, seed)`
    -> ((n, 784) float32 pixels, (n,) labels), loaded from its file so that
    the tests see the same rows the benchmark does."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "synth.py"
    spec = importlib.util.spec_from_file_location("perfbench_synth", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.mnist_like
