"""Hash-code generation: learned top-k codes plus baseline encoders.

Sparse codes keep the k strongest responses as an ascending index set;
the equivalent dense form has +1 at those indices and -1 elsewhere.
Baselines: a random sparse-expansion encoder (fly-circuit style), random
hyperplane signs, PCA signs, and the learned-projection sign encoder that
skips the sparse expansion (m = k).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import plasticity
from .errors import (
    BadHeader,
    BadMagic,
    DimensionMismatch,
    KOutOfRange,
    MalformedCode,
    NonFiniteInput,
    RankDeficient,
    SamplingTooLarge,
    ShapeMismatch,
    TruncatedFile,
)
from .plasticity import LearningConfig, SynapseMatrix, effective_weights

DEFAULT_SAMPLING = 0.1
DEFAULT_EXPANSION = 10  # random sparse expansion defaults to m = 10 * d


@dataclass
class SparseHashCode:
    m: int
    k: int
    active: np.ndarray  # strictly ascending indices in [0, m)

    def __post_init__(self):
        self.active = np.asarray(self.active, dtype=np.uint32)
        if self.active.shape != (self.k,):
            raise ShapeMismatch(f"{self.active.shape[0]} indices for k={self.k}")

    def dense(self) -> np.ndarray:
        """Expanded form in {-1, +1}^m."""
        out = np.full(self.m, -1, dtype=np.int8)
        out[self.active] = 1
        return out


@dataclass
class DenseHashCode:
    k: int
    bits: np.ndarray  # values in {-1, +1}

    def __post_init__(self):
        self.bits = np.asarray(self.bits, dtype=np.int8)
        if self.bits.shape != (self.k,):
            raise ShapeMismatch(f"{self.bits.shape[0]} bits for k={self.k}")


@dataclass
class RandomProjection:
    """Seeded random projection: dense rows or a per-row index mask."""

    kind: str  # "simhash" | "flyhash"
    d: int
    seed: int
    matrix: Optional[np.ndarray] = None  # simhash: (k, d) normals
    mask: Optional[np.ndarray] = None  # flyhash: (m, degree) input ids per row
    m: int = 0

    def __post_init__(self):
        if self.kind == "simhash":
            self.m = self.matrix.shape[0]
        else:
            self.m = self.mask.shape[0]


def topk_rows(R: np.ndarray, k: int) -> np.ndarray:
    """Ascending indices of the k largest entries per row, ties to lower index.

    This is the package's one selection kernel. A partition picks k
    candidates per row; their smallest value is the row's threshold. A row
    with exactly k entries at or above the threshold is exact as picked.
    Only rows with surplus ties at the threshold are redone: every entry
    above it, then the lowest-indexed entries equal to it. R must hold no
    NaN.
    """
    R = np.asarray(R)
    m = R.shape[1]
    cand = np.argpartition(R, m - k, axis=1)[:, m - k:]
    thr = R[np.arange(R.shape[0]), cand[:, 0]][:, None]
    out = cand.astype(np.uint32)
    out.sort(axis=1)
    at_or_above = R >= thr
    # every row has at least k such entries, so a total of n * k means none
    # has surplus ties; the whole-array count is far cheaper than per row
    if np.count_nonzero(at_or_above) != R.shape[0] * k:
        tied = np.flatnonzero(np.count_nonzero(at_or_above, axis=1) != k)
        sub, t = R[tied], thr[tied]
        above = sub > t
        need = k - np.count_nonzero(above, axis=1)
        at = sub == t
        keep = above | (at & (np.cumsum(at, axis=1, dtype=np.int32) <= need[:, None]))
        out[tied] = np.nonzero(keep)[1].reshape(tied.size, k)
    return out


def check_finite(A: np.ndarray) -> np.ndarray:
    """Return A, or raise NonFiniteInput if it holds NaN or infinity.

    Dense-projection encoders call this on their responses, which for sign
    codes (k of them per row) cost far less to scan than the input: a NaN
    or infinite input entry makes every response of its row NaN or
    infinite (NaN * w is NaN, inf * w is inf or NaN). flyhash responses
    do not reveal it, since each unit sees only a sample of the input, so
    flyhash and the conv pipeline check their input.
    """
    if not np.isfinite(A).all():
        raise NonFiniteInput("NaN or infinity in the encoder input or its responses")
    return A


# ------------------------------------------------------------- top-k codes

def biohash_responses(sm: SynapseMatrix, X: np.ndarray) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[1] != sm.d:
        raise DimensionMismatch(f"input d={X.shape[1]}, weights d={sm.d}")
    return check_finite(X @ effective_weights(sm.weights, sm.config.p).T)


def biohash_encode(sm: SynapseMatrix, x, k: int) -> SparseHashCode:
    if not (1 <= k <= sm.m):
        raise KOutOfRange(f"k={k} outside [1, {sm.m}]")
    active = topk_rows(biohash_responses(sm, x), k)[0]
    return SparseHashCode(sm.m, k, active)


def biohash_encode_many(sm: SynapseMatrix, X, k: int, chunk: int = 2048) -> np.ndarray:
    """(n, k) ascending-index codes for every row of X."""
    if not (1 <= k <= sm.m):
        raise KOutOfRange(f"k={k} outside [1, {sm.m}]")
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    out = np.empty((X.shape[0], k), dtype=np.uint32)
    for start in range(0, X.shape[0], chunk):
        out[start:start + chunk] = topk_rows(biohash_responses(sm, X[start:start + chunk]), k)
    return out


# -------------------------------------------------------------- projections

def build_projection(kind: str, d: int, m_or_k: Optional[int] = None,
                     sampling: float = DEFAULT_SAMPLING, seed: int = 0) -> RandomProjection:
    """Seeded projection. simhash: m_or_k is the hash length (dense rows).
    flyhash: m_or_k is the expansion size (default 10 * d); each row samples
    ceil(sampling * d) distinct input dimensions without replacement.
    """
    rng = np.random.default_rng(seed)
    if kind == "simhash":
        if m_or_k is None or m_or_k < 1:
            raise KOutOfRange("simhash needs a positive hash length")
        return RandomProjection("simhash", d, seed, matrix=rng.standard_normal((m_or_k, d)))
    if kind == "flyhash":
        m = DEFAULT_EXPANSION * d if m_or_k is None else m_or_k
        degree = math.ceil(sampling * d)
        if degree > d:
            raise SamplingTooLarge(f"degree {degree} > d={d}")
        if degree < 1:
            raise SamplingTooLarge("sampling rate yields an empty row")
        mask = np.empty((m, degree), dtype=np.int64)
        for row in range(m):
            mask[row] = rng.choice(d, size=degree, replace=False)
        mask.sort(axis=1)
        return RandomProjection("flyhash", d, seed, mask=mask)
    raise ValueError(f"unknown projection kind {kind!r}")


def _sparse_mask_matrix(proj: RandomProjection):
    from scipy import sparse

    m, degree = proj.mask.shape
    indptr = np.arange(m + 1) * degree
    data = np.ones(m * degree, dtype=np.float64)
    return sparse.csr_matrix((data, proj.mask.ravel(), indptr), shape=(m, proj.d))


def flyhash_responses(proj: RandomProjection, X: np.ndarray) -> np.ndarray:
    if proj.kind != "flyhash":
        raise ValueError("projection kind must be flyhash")
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[1] != proj.d:
        raise DimensionMismatch(f"input d={X.shape[1]}, projection d={proj.d}")
    check_finite(X)
    if X.shape[0] == 1:
        return X[0][proj.mask].sum(axis=1)[None, :]
    return (_sparse_mask_matrix(proj) @ X.T).T


def flyhash_encode(proj: RandomProjection, x, k: int) -> SparseHashCode:
    if not (1 <= k <= proj.m):
        raise KOutOfRange(f"k={k} outside [1, {proj.m}]")
    active = topk_rows(flyhash_responses(proj, x), k)[0]
    return SparseHashCode(proj.m, k, active)


def flyhash_encode_many(proj: RandomProjection, X, k: int, chunk: int = 2048) -> np.ndarray:
    if not (1 <= k <= proj.m):
        raise KOutOfRange(f"k={k} outside [1, {proj.m}]")
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    mat = _sparse_mask_matrix(proj)
    out = np.empty((X.shape[0], k), dtype=np.uint32)
    for start in range(0, X.shape[0], chunk):
        R = (mat @ check_finite(X[start:start + chunk]).T).T
        out[start:start + chunk] = topk_rows(R, k)
    return out


def sign_bits(values: np.ndarray) -> np.ndarray:
    """Sign in {-1, +1} with sign(0) = +1, for determinism on zeros."""
    return np.where(np.asarray(values) >= 0, 1, -1).astype(np.int8)


def simhash_encode(proj: RandomProjection, x) -> DenseHashCode:
    if proj.kind != "simhash":
        raise ValueError("projection kind must be simhash")
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (proj.d,):
        raise DimensionMismatch(f"input shape {x.shape}, projection d={proj.d}")
    return DenseHashCode(proj.m, sign_bits(check_finite(proj.matrix @ x)))


def simhash_encode_many(proj: RandomProjection, X) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[1] != proj.d:
        raise DimensionMismatch(f"input d={X.shape[1]}, projection d={proj.d}")
    return sign_bits(check_finite(X @ proj.matrix.T))


# --------------------------------------------------------------------- PCA

def pcahash_fit(train, k: int, seed: int = 0) -> np.ndarray:
    """Top-k covariance eigenvectors by power iteration with deflation.

    Expects centered data. Each component's sign is fixed so its
    largest-magnitude entry is positive.
    """
    X = np.asarray(getattr(train, "data", train), dtype=np.float64)
    n, d = X.shape
    if n < k:
        raise RankDeficient(f"{n} rows cannot support {k} components")
    cov = (X.T @ X) / max(n - 1, 1)
    rng = np.random.default_rng(seed)
    rows = np.empty((k, d))
    for comp in range(k):
        v = rng.standard_normal(d)
        v /= np.linalg.norm(v)
        for _ in range(1000):
            nv = cov @ v
            norm = np.linalg.norm(nv)
            if norm < 1e-12:
                raise RankDeficient(f"variance exhausted at component {comp}")
            nv /= norm
            if np.linalg.norm(nv - v) < 1e-8:
                v = nv
                break
            v = nv
        lam = float(v @ cov @ v)
        if lam < 1e-12:
            raise RankDeficient(f"eigenvalue {lam:.3e} at component {comp}")
        pivot = np.argmax(np.abs(v))
        if v[pivot] < 0:
            v = -v
        rows[comp] = v
        cov -= lam * np.outer(v, v)
    return rows


def pcahash_encode(rows: np.ndarray, x) -> DenseHashCode:
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (rows.shape[1],):
        raise DimensionMismatch(f"input shape {x.shape}, rows d={rows.shape[1]}")
    return DenseHashCode(rows.shape[0], sign_bits(check_finite(rows @ x)))


def pcahash_encode_many(rows: np.ndarray, X) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[1] != rows.shape[1]:
        raise DimensionMismatch(f"input d={X.shape[1]}, rows d={rows.shape[1]}")
    return sign_bits(check_finite(X @ rows.T))


# -------------------------------------------------- learned sign baseline

def naive_biohash(train, k: int, config: Optional[LearningConfig] = None):
    """Learned projection without sparse expansion: m = k, sign encoding.

    Returns (SynapseMatrix, encoder); the encoder maps one input vector to
    a DenseHashCode of length k.
    """
    if config is None:
        config = LearningConfig(m=k, rank_r=min(2, k))
    if config.m != k:
        raise ValueError(f"config.m={config.m} must equal k={k}")
    sm, _ = plasticity.train(train, config)

    def encode(x) -> DenseHashCode:
        return DenseHashCode(k, sign_bits(biohash_responses(sm, x)[0]))

    return sm, encode


def naive_encode_many(sm: SynapseMatrix, X) -> np.ndarray:
    return sign_bits(biohash_responses(sm, X))


# -------------------------------------------------------------------- BHC1

def pack_signs(bits: np.ndarray) -> np.ndarray:
    """Pack rows of {-1,+1} into bytes; bit j of byte b is element 8b+j, 1 means +1."""
    bits = np.atleast_2d(np.asarray(bits))
    return np.packbits(bits > 0, axis=1, bitorder="little")


def unpack_signs(packed: np.ndarray, k: int) -> np.ndarray:
    packed = np.atleast_2d(np.asarray(packed, dtype=np.uint8))
    bits = np.unpackbits(packed, axis=1, count=k, bitorder="little")
    return np.where(bits > 0, 1, -1).astype(np.int8)


_BHC1_HEADER = "<IIBQ"  # m, k, code_kind, count


def save_codes(path, codes: np.ndarray, m: int, kind: str):
    """Write a code bank: kind "sparse" takes (n, k) ascending indices,
    kind "dense" takes (n, k) sign values in {-1, +1}.
    """
    codes = np.atleast_2d(codes)
    n, k = codes.shape
    with open(path, "wb") as f:
        f.write(b"BHC1")
        f.write(struct.pack(_BHC1_HEADER, m, k, 0 if kind == "sparse" else 1, n))
        if kind == "sparse":
            f.write(np.ascontiguousarray(codes, dtype="<u4").tobytes())
        elif kind == "dense":
            f.write(pack_signs(codes).tobytes())
        else:
            raise ValueError(f"unknown code kind {kind!r}")


def check_sparse_rows(codes: np.ndarray, m: int, where: str = "codes"):
    """Raise MalformedCode unless every row of the (n, k >= 1) index matrix
    is strictly ascending and below m; one vectorized pass over the codes."""
    if (codes[:, 1:] > codes[:, :-1]).all() and (codes[:, -1] < m).all():
        return
    bad = (codes[:, 1:] <= codes[:, :-1]).any(axis=1) | (codes[:, -1] >= m)
    row = int(np.argmax(bad))
    raise MalformedCode(f"{where}: row {row} {codes[row].tolist()} is not "
                        f"strictly ascending in [0, {m})")


def load_codes(path):
    """Read a code bank; returns (codes, m, kind) with codes as in save_codes.

    Raises BadHeader for a header outside 1 <= k <= m and MalformedCode for
    a sparse row that is not strictly ascending in [0, m).
    """
    raw = Path(path).read_bytes()
    if raw[:4] != b"BHC1":
        raise BadMagic(f"{path}: expected magic BHC1, got {raw[:4]!r}")
    header_len = 4 + struct.calcsize(_BHC1_HEADER)
    if len(raw) < header_len:
        raise TruncatedFile(f"{path}: header needs {header_len} bytes")
    m, k, code_kind, count = struct.unpack(_BHC1_HEADER, raw[4:header_len])
    if not 1 <= k <= m or code_kind not in (0, 1):
        raise BadHeader(f"{path}: header declares m={m}, k={k}, code kind {code_kind}")
    if code_kind == 0:
        need = header_len + 4 * count * k
        if len(raw) < need:
            raise TruncatedFile(f"{path}: need {need} bytes, file has {len(raw)}")
        codes = np.frombuffer(raw, dtype="<u4", count=count * k, offset=header_len)
        codes = codes.reshape(count, k).copy()
        check_sparse_rows(codes, m, str(path))
        return codes, m, "sparse"
    rec = (k + 7) // 8
    need = header_len + rec * count
    if len(raw) < need:
        raise TruncatedFile(f"{path}: need {need} bytes, file has {len(raw)}")
    packed = np.frombuffer(raw, dtype=np.uint8, count=count * rec, offset=header_len)
    return unpack_signs(packed.reshape(count, rec), k), m, "dense"
