"""Dataset ingestion, protocol splits, centering, and synthetic circle data.

Supported inputs: MNIST IDX files, CIFAR-10 binary batches, GloVe text
embeddings, and a small binary matrix container ("BHM1") for passing
externally computed feature matrices through the same pipeline.
`load_dir` finds the first three under the directory layout the fetch
scripts write.
"""

from __future__ import annotations

import gzip
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .errors import (
    BadMagic,
    DimensionMismatch,
    LabelOutOfRange,
    LayoutMismatch,
    MissingLabels,
    ParseError,
    RaggedLine,
    TooFewPerClass,
    TruncatedFile,
)
from .seeds import substream

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801
CIFAR_RECORD = 3073  # 1 label byte + 32*32*3 pixel bytes


@dataclass
class DataSet:
    """Row-major sample matrix with optional integer labels.

    ``data`` is (n, d); ``labels`` is (n,) when present. ``words`` carries
    string ids for text embeddings. ``source`` is a provenance note.
    """

    data: np.ndarray
    labels: Optional[np.ndarray] = None
    source: str = ""
    words: Optional[list] = None

    def __post_init__(self):
        self.data = np.asarray(self.data)
        if self.data.ndim != 2:
            raise DimensionMismatch(f"data must be 2-D, got shape {self.data.shape}")
        if self.labels is not None:
            self.labels = np.asarray(self.labels)
            if self.labels.shape != (self.data.shape[0],):
                raise DimensionMismatch(
                    f"{self.labels.shape[0]} labels for {self.data.shape[0]} rows"
                )

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def d(self) -> int:
        return self.data.shape[1]

    def take(self, ids) -> "DataSet":
        """Sub-dataset at the given row ids (copy)."""
        ids = np.asarray(ids)
        return DataSet(
            self.data[ids],
            None if self.labels is None else self.labels[ids],
            source=self.source,
            words=None if self.words is None else [self.words[i] for i in ids],
        )


@dataclass
class ProtocolSplit:
    """Row-index lists plus the ground-truth rule for one benchmark protocol."""

    train_ids: np.ndarray
    database_ids: np.ndarray
    query_ids: np.ndarray
    ground_truth_mode: str  # "labels" | "knn_euclidean" | "knn_cosine"
    gt_neighbors: int = 0  # N for the knn modes
    map_depth: Optional[int] = None  # R; None means the whole database

    def __post_init__(self):
        if len(self.query_ids) == 0:
            raise TooFewPerClass("query set is empty")
        if len(self.database_ids) == 0:
            raise TooFewPerClass("database is empty")


@dataclass
class CircleDensity:
    """Wrapped exponential density on [-pi, pi]: rho(phi) = alpha * exp(-|phi|/sigma)."""

    sigma: float
    alpha: float = field(init=False)

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        self.alpha = 1.0 / (2.0 * self.sigma * (1.0 - math.exp(-math.pi / self.sigma)))

    def pdf(self, phi):
        return self.alpha * np.exp(-np.abs(phi) / self.sigma)


def _finite_or_raise(arr, what):
    if arr.size and not np.isfinite(arr).all():
        raise ParseError(f"{what} contains NaN or Inf")


def _read_raw(path) -> bytes:
    """Read a binary file, decompressing transparently if gzip-wrapped."""
    raw = Path(path).read_bytes()
    if raw[:2] == b"\x1f\x8b":
        raw = gzip.decompress(raw)
    return raw


# ---------------------------------------------------------------- IDX/MNIST

def _read_idx_header(raw: bytes, path, expect_magic: int, ndim: int):
    header_len = 4 + 4 * ndim
    if len(raw) < 4:
        raise TruncatedFile(f"{path}: shorter than the 4-byte magic")
    magic = struct.unpack(">I", raw[:4])[0]
    if magic != expect_magic:
        raise BadMagic(f"{path}: magic 0x{magic:08x}, expected 0x{expect_magic:08x}")
    if len(raw) < header_len:
        raise TruncatedFile(f"{path}: header needs {header_len} bytes, file has {len(raw)}")
    dims = struct.unpack(f">{ndim}I", raw[4:header_len])
    return dims, header_len


def load_idx(images_path, labels_path=None) -> DataSet:
    """Load an IDX image file (and optionally its label file).

    Pixels are scaled to [0, 1] by dividing by 255 and images are
    flattened row-major to d = rows * cols.
    """
    images_path = Path(images_path)
    raw = _read_raw(images_path)
    (n, rows, cols), off = _read_idx_header(raw, images_path, IDX_IMAGES_MAGIC, 3)
    want = n * rows * cols
    if len(raw) - off < want:
        raise TruncatedFile(f"{images_path}: {len(raw) - off} pixel bytes, need {want}")
    pixels = np.frombuffer(raw, dtype=np.uint8, count=want, offset=off)
    data = (pixels.reshape(n, rows * cols).astype(np.float32)) / np.float32(255.0)

    labels = None
    if labels_path is not None:
        labels_path = Path(labels_path)
        lraw = _read_raw(labels_path)
        (ln,), loff = _read_idx_header(lraw, labels_path, IDX_LABELS_MAGIC, 1)
        if len(lraw) - loff < ln:
            raise TruncatedFile(f"{labels_path}: {len(lraw) - loff} label bytes, need {ln}")
        if ln != n:
            raise DimensionMismatch(f"{n} images but {ln} labels")
        labels = np.frombuffer(lraw, dtype=np.uint8, count=ln, offset=loff).astype(np.int64)
    return DataSet(data, labels, source=f"idx:{images_path}")


# ------------------------------------------------------------------- CIFAR

def load_cifar10_bin(paths: Sequence) -> DataSet:
    """Load CIFAR-10 binary batches (3073-byte records).

    Records are stored channel-planar; rows are reordered to channel-last
    (H, W, C) flattening so image-layout operations can assume one
    convention. Pixels are scaled to [0, 1].
    """
    chunks, label_chunks = [], []
    for path in paths:
        raw = _read_raw(path)
        if len(raw) == 0 or len(raw) % CIFAR_RECORD != 0:
            raise TruncatedFile(
                f"{path}: {len(raw)} bytes is not a positive multiple of {CIFAR_RECORD}"
            )
        rec = np.frombuffer(raw, dtype=np.uint8).reshape(-1, CIFAR_RECORD)
        labels = rec[:, 0]
        if labels.max(initial=0) > 9:
            bad = int(labels.max())
            raise LabelOutOfRange(f"{path}: label byte {bad} > 9")
        # planar (C, H, W) -> (H, W, C), flattened
        pix = rec[:, 1:].reshape(-1, 3, 32, 32).transpose(0, 2, 3, 1).reshape(-1, 3072)
        chunks.append(pix)
        label_chunks.append(labels)
    data = np.concatenate(chunks).astype(np.float32) / np.float32(255.0)
    labels = np.concatenate(label_chunks).astype(np.int64)
    return DataSet(data, labels, source=f"cifar10:{len(paths)} files")


# ------------------------------------------------------------------- GloVe

def load_glove_text(path, top_n: Optional[int] = None) -> DataSet:
    """Load the first top_n lines of a GloVe text file (word then d reals);
    top_n None loads every line."""
    words = []
    rows = []
    d = None
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            if top_n is not None and len(words) >= top_n:
                break
            parts = line.rstrip("\n").split(" ")
            if d is None:
                d = len(parts) - 1
                if d < 1:
                    raise ParseError(f"{path}:{lineno}: no vector components")
            elif len(parts) - 1 != d:
                raise RaggedLine(f"{path}:{lineno}: {len(parts) - 1} components, expected {d}")
            try:
                vec = np.array(parts[1:], dtype=np.float64)
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from exc
            words.append(parts[0])
            rows.append(vec)
    if not rows:
        raise ParseError(f"{path}: empty file")
    data = np.vstack(rows).astype(np.float32)
    _finite_or_raise(data, path)
    return DataSet(data, None, source=f"glove:{path}", words=words)


# -------------------------------------------------------------------- BHM1

def save_bhm1(path, ds: DataSet):
    """Write the generic little-endian matrix container (f32 payload)."""
    has_labels = ds.labels is not None
    with open(path, "wb") as f:
        f.write(b"BHM1")
        f.write(struct.pack("<IIB", ds.n, ds.d, 1 if has_labels else 0))
        f.write(np.ascontiguousarray(ds.data, dtype="<f4").tobytes())
        if has_labels:
            f.write(np.ascontiguousarray(ds.labels, dtype="<u4").tobytes())


def load_bhm1(path) -> DataSet:
    raw = Path(path).read_bytes()
    if raw[:4] != b"BHM1":
        raise BadMagic(f"{path}: expected magic BHM1, got {raw[:4]!r}")
    if len(raw) < 13:
        raise TruncatedFile(f"{path}: header needs 13 bytes")
    n, d, has_labels = struct.unpack("<IIB", raw[4:13])
    need = 13 + 4 * n * d + (4 * n if has_labels else 0)
    if len(raw) < need:
        raise TruncatedFile(f"{path}: need {need} bytes, file has {len(raw)}")
    data = np.frombuffer(raw, dtype="<f4", count=n * d, offset=13).reshape(n, d).copy()
    labels = None
    if has_labels:
        labels = np.frombuffer(raw, dtype="<u4", count=n, offset=13 + 4 * n * d)
        labels = labels.astype(np.int64)
    _finite_or_raise(data, str(path))
    return DataSet(data, labels, source=f"bhm1:{path}")


# ------------------------------------------------------- directory layout

# format -> (subdirectory, train files, test files, fetch script)
_LAYOUT = {
    "idx": ("mnist", ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
            ("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"), "fetch_mnist.py"),
    "cifar": ("cifar", tuple(f"data_batch_{i}.bin" for i in range(1, 6)),
              ("test_batch.bin",), "fetch_cifar10.py"),
    "glove": ("glove", ("glove*.txt",), (), "fetch_glove.py"),
}


def _locate(directory: Path, name: str) -> Optional[Path]:
    """First sorted match of a glob, else the plain or the .gz file."""
    if "*" in name:
        hits = sorted(directory.glob(name))
    else:
        hits = [p for p in (directory / name, directory / (name + ".gz")) if p.is_file()]
    return hits[0] if hits else None


def load_dir(fmt: str, root, which: str = "all", top_n: Optional[int] = None) -> DataSet:
    """Load the idx, cifar or glove dataset under `root`.

    Looks in root/<mnist|cifar|glove>, then in root (for CIFAR, each may
    hold a cifar-10-batches-bin subdirectory); IDX and CIFAR files may be
    .gz. which="train" reads the train files, "all" appends the test
    files. GloVe reads the first glove*.txt in sorted order, top_n lines.
    A missing file raises FileNotFoundError naming the directories
    searched, the file and its fetch script.
    """
    if fmt not in _LAYOUT or which not in ("train", "all"):
        raise ValueError(f"no directory layout for format {fmt!r}, which={which!r}")
    sub, train, test, fetch = _LAYOUT[fmt]
    root = Path(root)
    dirs = [root / sub, root]
    if fmt == "cifar":
        dirs = [where for d in dirs for where in (d / "cifar-10-batches-bin", d)]
    names = train + test if which == "all" else train
    # the directory holding the first file must hold them all
    where = next((d for d in dirs if _locate(d, names[0])), None)
    paths = [where and _locate(where, name) for name in names]
    if None in paths:
        searched = ", ".join(str(d) for d in (dirs if where is None else [where]))
        raise FileNotFoundError(f"{names[paths.index(None)]} not found in {searched}; "
                                f"run scripts/{fetch}")
    if fmt == "glove":
        return load_glove_text(paths[0], top_n)
    if fmt == "cifar":
        return load_cifar10_bin(paths)
    parts = [load_idx(images, labels) for images, labels in zip(paths[::2], paths[1::2])]
    return DataSet(np.concatenate([p.data for p in parts]),
                   np.concatenate([p.labels for p in parts]), source=f"idx:{where}")


# ------------------------------------------------------------------ splits

def _sample_per_class(labels, per_class, rng):
    picks = []
    for cls in np.unique(labels):
        ids = np.flatnonzero(labels == cls)
        if ids.size < per_class:
            raise TooFewPerClass(f"class {cls} has {ids.size} rows, need {per_class}")
        picks.append(rng.choice(ids, size=per_class, replace=False))
    return np.sort(np.concatenate(picks))


def protocol_split(ds: DataSet, protocol: str, seed: int, gt_metric: str = "cosine") -> ProtocolSplit:
    """Build the index lists and ground-truth rule for a named protocol.

    mnist_label      100 queries per class; the rest is both train set and
                     database; label ground truth; full-depth ranking.
    cifar_label      1000 queries per class; 50k train = database; label
                     ground truth at depth 1000.
    mnist_euclid100  same split as mnist_label but ground truth is the 100
                     Euclidean nearest database rows, depth 100.
    glove_partition  10000 random rows form the database and each of them
                     queries the other 9999; the remaining rows train;
                     100-NN ground truth (gt_metric picks the distance),
                     depth 100.
    """
    rng = substream(seed, "split")
    if protocol in ("mnist_label", "mnist_euclid100", "cifar_label"):
        if ds.labels is None:
            raise MissingLabels(f"protocol {protocol} samples queries per class")
        per_class = 1000 if protocol == "cifar_label" else 100
        query_ids = _sample_per_class(ds.labels, per_class, rng)
        rest = np.setdiff1d(np.arange(ds.n), query_ids)
        if protocol == "mnist_label":
            return ProtocolSplit(rest, rest, query_ids, "labels", 0, None)
        if protocol == "cifar_label":
            return ProtocolSplit(rest, rest, query_ids, "labels", 0, 1000)
        return ProtocolSplit(rest, rest, query_ids, "knn_euclidean", 100, 100)
    if protocol == "glove_partition":
        if gt_metric not in ("euclidean", "cosine"):
            raise ValueError(f"unknown gt metric {gt_metric!r}")
        db = np.sort(rng.choice(ds.n, size=10000, replace=False))
        train = np.setdiff1d(np.arange(ds.n), db)
        return ProtocolSplit(train, db, db, f"knn_{gt_metric}", 100, 100)
    raise ValueError(f"unknown protocol {protocol!r}")


# -------------------------------------------------------------- transforms

def center(ds: DataSet, mean: Optional[np.ndarray] = None):
    """Subtract the column mean; returns (centered dataset, mean used).

    Pass the training mean to center a query set consistently.
    """
    if mean is None:
        mean = ds.data.mean(axis=0, dtype=np.float64)
    else:
        mean = np.asarray(mean, dtype=np.float64)
        if mean.shape != (ds.d,):
            raise DimensionMismatch(f"mean has shape {mean.shape}, data d={ds.d}")
    # astype copies, so subtracting in place leaves ds.data alone
    out = ds.data.astype(np.float64)
    out -= mean
    return DataSet(out, ds.labels, source=ds.source, words=ds.words), mean


def shadow_transform(ds: DataSet, fraction: float = 0.8, factor: float = 0.3,
                     layout=(32, 32, 3)) -> DataSet:
    """Dim the bottom ceil(fraction * H) image rows by the given factor.

    Rows are flattened channel-last (H, W, C); all channels are dimmed.
    """
    h, w, c = layout
    if h * w * c != ds.d:
        raise LayoutMismatch(f"layout {layout} does not flatten to d={ds.d}")
    shadowed = math.ceil(fraction * h)
    out = ds.data.copy().reshape(ds.n, h, w, c)
    if shadowed > 0:
        out[:, h - shadowed:, :, :] *= factor
    return DataSet(out.reshape(ds.n, ds.d), ds.labels, source=ds.source, words=ds.words)


# ------------------------------------------------------------- circle data

def sample_circle(n: int, density: Optional[CircleDensity], seed: int) -> DataSet:
    """Draw n points (cos phi, sin phi) on the unit circle.

    density=None draws phi uniformly on [-pi, pi); otherwise phi follows
    the wrapped exponential via its inverse CDF.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = substream(seed, "sample")
    u = rng.random(n)
    if density is None:
        phi = (2.0 * u - 1.0) * np.pi
    else:
        v = 2.0 * u - 1.0  # symmetric coordinate in [-1, 1)
        z = 1.0 - math.exp(-math.pi / density.sigma)
        phi = -density.sigma * np.log1p(-np.abs(v) * z) * np.sign(v)
    data = np.column_stack([np.cos(phi), np.sin(phi)])
    return DataSet(data, None, source=f"circle:n={n}")
