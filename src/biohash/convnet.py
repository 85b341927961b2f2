"""Convolutional sparse hashing pipeline.

Filters are learned on normalized image patches with the same plasticity
rule as the flat hasher. Encoding runs patch-normalized convolution,
cross-channel inhibition that keeps the top responses per spatial
location, spatial max pooling, and a final winner-take-all hash layer on
the concatenated branch features (`hashers.biohash_encode_many` in
float32, the feature mean as its shift). Patch normalization makes the
whole pipeline invariant to global intensity scaling of the input image.
"""

import dataclasses
import json
import struct
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import hashers, plasticity
from .errors import (BadMagic, DimensionMismatch, KOutOfRange, LayoutMismatch,
                     ParseError, TooSmall, TruncatedFile)
from .plasticity import LearningConfig, SynapseMatrix
from .seeds import subseed, substream

ZERO_NORM = 1e-12


# ------------------------------------------------------------------ types

@dataclass(frozen=True)
class ConvBranch:
    """One kernel-size branch of the filter bank."""

    kernel: int
    filters: int
    delta: float
    eps0: float
    patch_subsample: Optional[int] = None  # None -> ConvConfig default

    def __post_init__(self):
        if self.kernel < 1:
            raise ValueError(f"kernel must be >= 1, got {self.kernel}")
        if self.filters < 1:
            raise ValueError(f"filters must be >= 1, got {self.filters}")


@dataclass(frozen=True)
class ConvConfig:
    """Architecture and filter schedule of the convolutional hasher.

    Convolution runs at stride 1 over every K x K window. The hash layer's
    schedule is not part of the config: `conv_fit` derives it from
    (k, activity, seed, hash_overrides), and a fitted model keeps it in
    `hash_sm.config`.
    """

    branches: tuple
    k_ci: int
    layout: tuple
    pool_kernel: int = 7
    pool_stride: int = 2
    patch_subsample: Optional[int] = 2_000_000
    filter_batch: int = 100
    filter_t_max: int = 100

    def __post_init__(self):
        object.__setattr__(self, "branches", tuple(self.branches))
        object.__setattr__(self, "layout", tuple(int(v) for v in self.layout))
        if len(self.layout) != 3 or any(v < 1 for v in self.layout):
            raise ValueError(f"layout must be (H, W, C) >= 1, got {self.layout}")
        if not self.branches:
            raise ValueError("need at least one branch")
        fmin = min(b.filters for b in self.branches)
        if not 1 <= self.k_ci <= fmin:
            raise KOutOfRange(f"k_ci={self.k_ci} not in [1, {fmin}]")
        h, w, _ = self.layout
        kmax = max(b.kernel for b in self.branches)
        if kmax > min(h, w):
            raise LayoutMismatch(f"kernel {kmax} exceeds image side {min(h, w)}")
        if self.pool_kernel < 1 or self.pool_stride < 1:
            raise ValueError("pool_kernel and pool_stride must be >= 1")


@dataclass
class FilterBank:
    """Per-branch synapse matrices over the flattened patch dimension."""

    branches: tuple
    matrices: tuple

    def __post_init__(self):
        if len(self.branches) != len(self.matrices):
            raise DimensionMismatch("branch metadata and matrices differ in length")
        for br, sm in zip(self.branches, self.matrices):
            if sm.m != br.filters:
                raise DimensionMismatch(
                    f"branch K={br.kernel} expects {br.filters} filters, matrix has {sm.m}")


def _check_bank_matches(bank: FilterBank, config: ConvConfig):
    """DimensionMismatch unless the bank and the config describe the same
    branches by (kernel, filters)."""
    have = [(b.kernel, b.filters) for b in bank.branches]
    want = [(b.kernel, b.filters) for b in config.branches]
    if have != want:
        raise DimensionMismatch(f"filter bank branches (kernel, filters) {have} "
                                f"differ from the config's {want}")


@dataclass
class ConvModel:
    """Fitted pipeline: filter bank, hash layer and the feature mean
    subtracted before hashing. The bank must describe the config's
    branches, and the hash layer's width and the mean's length must equal
    the config's feature width (DimensionMismatch otherwise)."""

    config: ConvConfig
    bank: FilterBank
    hash_sm: SynapseMatrix
    feature_mean: np.ndarray

    def __post_init__(self):
        _check_bank_matches(self.bank, self.config)
        dim = conv_feature_dim(self.config)
        if not self.hash_sm.d == len(self.feature_mean) == dim:
            raise DimensionMismatch(f"hash layer d={self.hash_sm.d} and feature mean "
                                    f"length {len(self.feature_mean)} != feature width {dim}")


# ------------------------------------------------------- size arithmetic

def conv_side(side: int, kernel: int, stride: int = 1) -> int:
    return (side - kernel) // stride + 1


def _branch_grid(config: ConvConfig, branch: ConvBranch):
    h, w, c = config.layout
    hc = conv_side(h, branch.kernel)
    wc = conv_side(w, branch.kernel)
    if hc < config.pool_kernel or wc < config.pool_kernel:
        raise TooSmall(
            f"conv output {hc}x{wc} smaller than pool kernel {config.pool_kernel}")
    hp = conv_side(hc, config.pool_kernel, config.pool_stride)
    wp = conv_side(wc, config.pool_kernel, config.pool_stride)
    return hc, wc, hp, wp


def conv_feature_dim(config: ConvConfig) -> int:
    """Length of the concatenated pooled feature vector per image."""
    total = 0
    for br in config.branches:
        _, _, hp, wp = _branch_grid(config, br)
        total += hp * wp * br.filters
    return total


# ------------------------------------------------------------ patch ops

def _as_images(images) -> np.ndarray:
    arr = getattr(images, "data", images)
    arr = np.asarray(arr)
    if arr.ndim == 1:
        arr = arr[None, :]
    return arr


def _patch_grid(arr: np.ndarray, layout, kernel: int) -> np.ndarray:
    """(n, d) flat images -> (n, Hc, Wc, K*K*C) patch grid (fresh array)."""
    h, w, c = (int(v) for v in layout)
    if arr.shape[1] != h * w * c:
        raise LayoutMismatch(f"layout {layout} implies d={h * w * c}, data has {arr.shape[1]}")
    if kernel > min(h, w):
        raise LayoutMismatch(f"kernel {kernel} exceeds image side {min(h, w)}")
    imgs = arr.reshape(arr.shape[0], h, w, c)
    win = np.lib.stride_tricks.sliding_window_view(imgs, (kernel, kernel), axis=(1, 2))
    win = win.transpose(0, 1, 2, 4, 5, 3)  # (n, Hc, Wc, C, K, K) -> channel last
    n, hc, wc = win.shape[:3]
    return np.ascontiguousarray(win).reshape(n, hc, wc, kernel * kernel * c)


def normalize_patches(patches: np.ndarray):
    """Row-normalize a patch array of any leading shape.

    Returns (normalized copy, active mask); rows with norm <= 1e-12 are
    zeroed and flagged inactive so they produce exactly zero responses.
    """
    p = np.array(patches, copy=True)
    nrm = np.sqrt(np.einsum("...i,...i->...", p, p))
    active = nrm > ZERO_NORM
    np.divide(p, nrm[..., None], out=p, where=active[..., None])
    p[~active] = 0
    return p, active


# --------------------------------------------------------- forward pass

def channel_inhibit(volume: np.ndarray, k_ci: int, row_chunk: int = 16384) -> np.ndarray:
    """Keep the k_ci largest channel values per spatial location, zero the
    rest. Ties at the threshold keep lower channel indices first, so the
    survivor set is exact and deterministic."""
    vol = np.asarray(volume)
    f = vol.shape[-1]
    if not 1 <= k_ci <= f:
        raise KOutOfRange(f"k_ci={k_ci} not in [1, {f}]")
    if k_ci == f:
        return vol.copy()
    flat = vol.reshape(-1, f)
    out = np.zeros_like(flat)
    for start in range(0, flat.shape[0], row_chunk):
        block = flat[start:start + row_chunk]
        keep = hashers.topk_rows(block, k_ci)
        np.put_along_axis(out[start:start + row_chunk], keep,
                          np.take_along_axis(block, keep, axis=1), axis=1)
    return out.reshape(vol.shape)


def max_pool(volume: np.ndarray, kernel: int = 7, stride: int = 2) -> np.ndarray:
    """Channel-wise spatial max over kernel x kernel windows, no padding."""
    vol = np.asarray(volume)
    single = vol.ndim == 3
    v4 = vol[None] if single else vol
    n, h, w, f = v4.shape
    if h < kernel or w < kernel:
        raise TooSmall(f"spatial dims {h}x{w} smaller than pool kernel {kernel}")
    hp = conv_side(h, kernel, stride)
    wp = conv_side(w, kernel, stride)
    # separable: the max along each window row (over dx), then over the
    # window's rows (over dy). Ties then resolve in the row-major order of
    # a scan over all kernel^2 offsets, so even a tied zero's sign matches.
    across = np.full((n, h, wp, f), -np.inf, dtype=v4.dtype)
    for dx in range(kernel):
        np.maximum(across, v4[:, :, dx:dx + (wp - 1) * stride + 1:stride], out=across)
    out = np.full((n, hp, wp, f), -np.inf, dtype=v4.dtype)
    for dy in range(kernel):
        np.maximum(out, across[:, dy:dy + (hp - 1) * stride + 1:stride], out=out)
    return out[0] if single else out


# ----------------------------------------------------- feature pipeline

def _block_images(config: ConvConfig, budget_bytes: float = 2.5e8) -> int:
    worst = 1
    for br in config.branches:
        hc, wc, _, _ = _branch_grid(config, br)
        per_image = hc * wc * 4 * max(br.filters, br.kernel * br.kernel * config.layout[2])
        worst = max(worst, per_image)
    return int(min(2048, max(8, budget_bytes // worst)))


def _features_block(bank: FilterBank, config: ConvConfig, arr: np.ndarray) -> np.ndarray:
    """The forward pass: raw image rows -> (n, feature_dim) float32 block of
    normalized-patch convolution, inhibition and pooling, all branches."""
    parts = []
    for br, sm in zip(bank.branches, bank.matrices):
        grid = _patch_grid(arr.astype(np.float32, copy=False), config.layout, br.kernel)
        gridn, _ = normalize_patches(grid)
        del grid
        n, hc, wc, d = gridn.shape
        if d != sm.d:
            raise DimensionMismatch(f"branch K={br.kernel}: patch dim {d} != filter dim {sm.d}")
        eff32 = plasticity.effective_weights(sm.weights, sm.config.p).astype(np.float32)
        vol = (gridn.reshape(-1, d) @ eff32.T).reshape(n, hc, wc, sm.m)
        del gridn
        vol = channel_inhibit(vol, config.k_ci)
        pooled = max_pool(vol, config.pool_kernel, config.pool_stride)
        parts.append(pooled.reshape(n, -1))
    return np.concatenate(parts, axis=1)


def conv_features(bank: FilterBank, config: ConvConfig, images,
                  ram_limit: int = 1_500_000_000) -> np.ndarray:
    """Forward every image through conv -> inhibit -> pool and stack the
    flattened branch outputs as an (n, conv_feature_dim) float32 array.
    Above `ram_limit` bytes it is a memmap over an unnamed temp file in
    TMPDIR, which the system frees with the array however the run ends.

    The bank's kernels and the config's widths and pooling grid must
    describe the same branches: DimensionMismatch unless their (kernel,
    filters) pairs agree."""
    _check_bank_matches(bank, config)
    arr = _as_images(images)
    n = arr.shape[0]
    dim = conv_feature_dim(config)
    if n * dim * 4 > ram_limit:
        with tempfile.TemporaryFile() as f:
            out = np.memmap(f, dtype=np.float32, mode="w+", shape=(n, dim))
    else:
        out = np.empty((n, dim), dtype=np.float32)
    step = _block_images(config)
    for start in range(0, n, step):
        out[start:start + step] = _features_block(bank, config, arr[start:start + step])
    return out


# -------------------------------------------------------------- fitting

def _sample_patches(arr: np.ndarray, config: ConvConfig, branch: ConvBranch,
                    seed: int) -> np.ndarray:
    hc, wc, _, _ = _branch_grid(config, branch)
    per_image = hc * wc
    total = arr.shape[0] * per_image
    limit = branch.patch_subsample
    if limit is None:
        limit = config.patch_subsample
    dim = branch.kernel * branch.kernel * config.layout[2]
    if limit is None or total <= limit:
        ids = np.arange(total)
    else:
        rng = substream(seed, f"patches{branch.kernel}")
        ids = np.sort(rng.choice(total, size=limit, replace=False))
    out = np.empty((ids.size, dim), dtype=np.float32)
    pos = 0
    step = max(1, _block_images(config))
    for start in range(0, arr.shape[0], step):
        stop = min(start + step, arr.shape[0])
        lo = np.searchsorted(ids, start * per_image)
        hi = np.searchsorted(ids, stop * per_image)
        if lo == hi:
            continue
        grid = _patch_grid(arr[start:stop].astype(np.float32, copy=False),
                           config.layout, branch.kernel)
        flat = grid.reshape(-1, dim)
        out[pos:pos + (hi - lo)] = flat[ids[lo:hi] - start * per_image]
        pos += hi - lo
    return out


def train_filter_bank(images, config: ConvConfig, seed: int = 0) -> FilterBank:
    """Fit every branch's filters on unit-normalized sampled patches."""
    arr = _as_images(images)
    mats = []
    for br in config.branches:
        patches = _sample_patches(arr, config, br, seed)
        patches, active = normalize_patches(patches)
        patches = patches[active]
        if patches.shape[0] == 0:
            raise ValueError(f"branch K={br.kernel}: every sampled patch was zero")
        lc = LearningConfig(m=br.filters, p=2.0, delta=br.delta, rank_r=2,
                            eps0=br.eps0, t_max=config.filter_t_max,
                            batch=config.filter_batch,
                            seed=subseed(seed, f"filters{br.kernel}"))
        sm, _ = plasticity.train(patches, lc)
        mats.append(sm)
    return FilterBank(tuple(config.branches), tuple(mats))


def conv_fit(train, config: ConvConfig, k: int, *,
             activity: float = 0.05, seed: int = 0, hash_overrides=None,
             bank: Optional[FilterBank] = None):
    """Fit the full pipeline; returns (ConvModel, train features).

    Filters train per branch on sampled normalized patches, then the
    training set is pushed through the conv stack and the hash layer
    trains on the mean-centered features (centering happens on the fly,
    so memmapped feature matrices are never copied). The features are
    returned so callers hashing the training set itself can reuse them
    with `encode_features`; a disk-backed store goes away with them.

    The hash layer has m = round(k / activity) units and the schedule
    `plasticity.learning_config` builds from that m, the "hash" subseed of
    `seed` and `hash_overrides`.
    """
    arr = _as_images(train)
    if arr.shape[0] == 0:
        raise ValueError("training set is empty")
    if bank is None:
        bank = train_filter_bank(arr, config, seed)
    x = conv_features(bank, config, arr)
    total = np.zeros(x.shape[1], dtype=np.float64)
    for start in range(0, x.shape[0], 4096):
        total += x[start:start + 4096].astype(np.float64).sum(axis=0)
    mean = total / x.shape[0]
    hc = plasticity.learning_config(int(round(k / activity)), subseed(seed, "hash"),
                                    hash_overrides)
    hash_sm, _ = plasticity.train(x, hc, shift=mean)
    return ConvModel(config, bank, hash_sm, mean), x


# -------------------------------------------------------------- encoding

def encode_features(model: ConvModel, features, k: int) -> np.ndarray:
    """Hash precomputed feature rows in float32 with the flat top-k
    encoder; the feature mean folds into an offset, so the rows are read
    once, unmodified."""
    return hashers.biohash_encode_many(model.hash_sm, features, k,
                                       shift=model.feature_mean, dtype=np.float32)


def conv_encode_many(model: ConvModel, images, k: int) -> np.ndarray:
    """Raw images -> (n, k) sorted active-index rows, streamed in blocks.
    KOutOfRange for k outside [1, m] before any forward pass."""
    if not 1 <= k <= model.hash_sm.m:
        raise KOutOfRange(f"k={k} not in [1, {model.hash_sm.m}]")
    arr = _as_images(images)
    codes = np.empty((arr.shape[0], k), dtype=np.uint32)
    step = _block_images(model.config)
    for start in range(0, arr.shape[0], step):
        block = _features_block(model.bank, model.config,
                                hashers.check_finite(arr[start:start + step]))
        codes[start:start + block.shape[0]] = encode_features(model, block, k)
    return codes


# ------------------------------------------------------------------ BHCV

_BHCV_BRANCH = "<IId"  # kernel, filters, delta


def save_conv(path, bank: FilterBank) -> None:
    """Filter bank container: branch metadata then one weight block each."""
    blob = [b"BHCV", struct.pack("<I", len(bank.branches))]
    for br in bank.branches:
        blob.append(struct.pack(_BHCV_BRANCH, br.kernel, br.filters, br.delta))
    for sm in bank.matrices:
        blob.append(plasticity.weights_to_bytes(sm))
    Path(path).write_bytes(b"".join(blob))


def load_conv(path) -> FilterBank:
    """Read a BHCV filter bank.

    BHCV stores each branch's kernel, filters and delta, but not eps0 or
    patch_subsample: the branches come back with the eps0 of their BHW1
    block (the LearningConfig default) and no patch_subsample.
    `load_conv_model` takes both from the model's JSON instead.
    """
    raw = Path(path).read_bytes()
    if raw[:4] != b"BHCV":
        raise BadMagic(f"{path}: expected magic BHCV, got {raw[:4]!r}")
    if len(raw) < 8:
        raise TruncatedFile(f"{path}: missing branch count")
    count = struct.unpack("<I", raw[4:8])[0]
    rec = struct.calcsize(_BHCV_BRANCH)
    offset = 8 + count * rec
    if len(raw) < offset:
        raise TruncatedFile(f"{path}: branch table needs {offset} bytes")
    metas = [struct.unpack(_BHCV_BRANCH, raw[8 + i * rec:8 + (i + 1) * rec])
             for i in range(count)]
    branches, mats = [], []
    for i, (kernel, filters, delta) in enumerate(metas):
        sm, offset = plasticity.weights_from_bytes(raw, offset, where=f"{path}[branch {i}]")
        if sm.m != filters:
            raise ParseError(f"{path}: branch {i} header says {filters} filters, "
                             f"block has {sm.m}")
        branches.append(ConvBranch(kernel=kernel, filters=filters, delta=delta,
                                   eps0=sm.config.eps0))
        mats.append(sm)
    return FilterBank(tuple(branches), tuple(mats))


def save_conv_model(prefix, model: ConvModel) -> None:
    """Three files under a common prefix: .bhcv bank, .hash.bhw1 layer,
    .json config echo (layout, inhibition, pooling, exact feature mean)."""
    prefix = str(prefix)
    save_conv(prefix + ".bhcv", model.bank)
    plasticity.save_weights(prefix + ".hash.bhw1", model.hash_sm)
    cfg = model.config
    doc = {
        "layout": list(cfg.layout),
        "k_ci": cfg.k_ci,
        "pool_kernel": cfg.pool_kernel,
        "pool_stride": cfg.pool_stride,
        "patch_subsample": cfg.patch_subsample,
        "filter_batch": cfg.filter_batch,
        "filter_t_max": cfg.filter_t_max,
        "branches": [dataclasses.asdict(br) for br in cfg.branches],
        "hash": dataclasses.asdict(model.hash_sm.config),
        "feature_dim": model.hash_sm.d,
        "feature_mean": [float(v) for v in model.feature_mean],
    }
    Path(prefix + ".json").write_text(json.dumps(doc))


def load_conv_model(prefix) -> ConvModel:
    """Read the three files `save_conv_model` writes. The JSON's branches
    must match the .bhcv table on (kernel, filters, delta) and supply eps0
    and patch_subsample; the hash schedule is the one in the BHW1 file.
    A JSON "stride" (written by older versions) must be 1."""
    prefix = str(prefix)
    doc = json.loads(Path(prefix + ".json").read_text())
    if doc.get("stride", 1) != 1:
        raise ParseError(f"{prefix}.json: stride {doc['stride']} is not supported, only 1")
    branches = tuple(ConvBranch(**br) for br in doc["branches"])
    stored = load_conv(prefix + ".bhcv")
    table = [(b.kernel, b.filters, b.delta) for b in stored.branches]
    if table != [(b.kernel, b.filters, b.delta) for b in branches]:
        raise ParseError(f"{prefix}.bhcv: branch table {table} disagrees with "
                         f"the branches in {prefix}.json")
    bank = FilterBank(branches, stored.matrices)
    hash_sm = plasticity.load_weights(prefix + ".hash.bhw1")
    config = ConvConfig(branches=branches, k_ci=doc["k_ci"],
                        layout=tuple(doc["layout"]),
                        pool_kernel=doc["pool_kernel"],
                        pool_stride=doc["pool_stride"],
                        patch_subsample=doc["patch_subsample"],
                        filter_batch=doc["filter_batch"],
                        filter_t_max=doc["filter_t_max"])
    mean = np.asarray(doc["feature_mean"], dtype=np.float64)
    if mean.shape[0] != doc["feature_dim"]:
        raise ParseError(f"{prefix}.json: feature mean length {mean.shape[0]} "
                         f"!= feature_dim {doc['feature_dim']}")
    return ConvModel(config, bank, hash_sm, mean)


# --------------------------------------------------------------- presets

def mnist_conv_config(filters: int = 500, k_ci: int = 10,
                      patch_subsample: Optional[int] = 2_000_000) -> ConvConfig:
    """Two branches, K=3 and K=4, on 28x28 grayscale images."""
    branches = (ConvBranch(3, filters, 0.1, 1e-3),
                ConvBranch(4, filters, 0.1, 1e-3))
    return ConvConfig(branches=branches, k_ci=k_ci, layout=(28, 28, 1),
                      patch_subsample=patch_subsample)


def cifar_conv_config(filters: int = 400, k_ci: int = 1,
                      patch_subsample: Optional[int] = 2_000_000) -> ConvConfig:
    """Three branches, K=3/4/10, on 32x32 RGB images. The K=10 branch
    caps its own patch sample so the 300-dim patch matrix stays small."""
    branches = (ConvBranch(3, filters, 0.1, 1e-4),
                ConvBranch(4, filters, 0.2, 1e-4),
                ConvBranch(10, filters, 0.2, 1e-4, patch_subsample=1_000_000))
    return ConvConfig(branches=branches, k_ci=k_ci, layout=(32, 32, 3),
                      patch_subsample=patch_subsample)
