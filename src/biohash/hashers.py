"""Hash-code generation: learned top-k codes plus baseline encoders.

Sparse codes keep the k strongest responses as an ascending index set;
the equivalent dense form has +1 at those indices and -1 elsewhere.
`biohash_encode_many` is the one top-k encoder of learned rows: the flat
hasher calls it on centered float64 rows, the conv hash layer on float32
features with their training mean as `shift`.
Baselines: a random sparse-expansion encoder (fly-circuit style), random
hyperplane signs, PCA signs, and the learned-projection sign encoder that
skips the sparse expansion (m = k). METHODS maps each method's name to
its code kind, row count, fit and batch encoder.

Threads. The two top-k batch encoders run their row-block products on
one worker thread per usable core, from the process's CPU affinity, so
`taskset` limits them; there is no option or environment variable. A
worker runs only a block's product and `check_finite` (for flyhash, the
float32 screen and its candidate test), with the same arithmetic as on
the calling thread, so the codes do not depend on the thread count.
`topk_rows`, flyhash's exact sums, the writes into the output and every
other module name run on the calling thread. A call with one block, one
usable core, or fewer than PARALLEL_MIN multiply-adds runs inline and
starts no thread; a call that runs ahead starts its workers and stops
them before it returns.
"""

from __future__ import annotations

import math
import os
import struct
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice
from pathlib import Path
from typing import Callable, Optional

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
from .plasticity import SynapseMatrix, effective_weights

DEFAULT_SAMPLING = 0.1
DEFAULT_EXPANSION = 10  # random sparse expansion defaults to m = 10 * d
# multiply-adds below which a batch encode stays on the calling thread; a
# single query is far below it, the circle toy's encodes too
PARALLEL_MIN = 50_000_000


@dataclass
class SparseHashCode:
    m: int
    k: int
    active: np.ndarray  # strictly ascending indices in [0, m)

    def __post_init__(self):
        # a negative index wraps to one far above m, which the check refuses
        self.active = np.asarray(self.active).astype(np.uint32, copy=False)
        if self.active.shape != (self.k,):
            raise ShapeMismatch(f"indices of shape {self.active.shape} for k={self.k}")
        if self.k < 1:
            raise KOutOfRange(f"k={self.k} outside [1, {self.m}]")
        check_sparse_rows(self.active[None], self.m, "query code")

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
        bits = np.asarray(self.bits)
        if bits.shape != (self.k,):
            raise ShapeMismatch(f"bits of shape {bits.shape} for k={self.k}")
        check_sign_rows(bits[None], "query code")
        self.bits = bits.astype(np.int8, copy=False)


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

    @cached_property
    def dense_mask(self) -> np.ndarray:
        """flyhash: the (d, m) float32 matrix whose column j counts how often
        unit j taps each input (0 or 1 for a mask from build_projection),
        built on first use and kept for every later encode."""
        m = self.mask.shape[0]
        dense = np.zeros((self.d, m), dtype=np.float32)
        cells = np.ascontiguousarray((self.mask * m + np.arange(m)[:, None]).T)
        flat = dense.reshape(-1)
        for taps in cells:  # one tap per unit per pass, so no cell repeats
            flat[taps] += 1
        return dense

    @cached_property
    def tap_multiplicity(self) -> int:
        """flyhash: the most times one unit taps one input."""
        return int(self.dense_mask.max())


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
    if k == 1:  # argmax keeps the first index on ties
        return R.argmax(axis=1).astype(np.uint32)[:, None]
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


def topk_ranked(R: np.ndarray, k: int) -> np.ndarray:
    """`topk_rows`' picks as int64 ids ordered by (-value, index): the k
    largest entries per row, largest first, ties to lower index."""
    top = topk_rows(R, k).astype(np.int64)
    # the picks come back by ascending index, so a stable sort of their
    # negated values keeps tied values in index order
    order = np.argsort(-np.take_along_axis(R, top, axis=1), axis=1, kind="stable")
    return np.take_along_axis(top, order, axis=1)


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


# ---------------------------------------------------------- block products

def usable_cores() -> int:
    """Cores this process may run on: its CPU affinity where the OS keeps one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def block_products(n: int, size: int, product: Callable, work: int):
    """Yield (slice, product(slice)) over the blocks of `size` of n rows, in order.

    With at least two blocks, two usable cores and a `work` (the call's
    multiply-adds) of at least PARALLEL_MIN, the products run ahead on
    worker threads, one per usable core and at most one block each in
    flight; otherwise each runs inline when its turn comes. A product's
    error is raised in its turn, and the workers are gone once the
    generator ends or is closed.
    """
    blocks = (slice(start, start + size) for start in range(0, n, size))
    workers = usable_cores() if work >= PARALLEL_MIN and n > size else 1
    if workers < 2:
        for block in blocks:
            yield block, product(block)
        return
    from concurrent.futures import ThreadPoolExecutor

    pool = ThreadPoolExecutor(workers, thread_name_prefix="biohash-encode")
    try:
        pending = deque((block, pool.submit(product, block)) for block in islice(blocks, workers))
        while pending:
            block, future = pending.popleft()
            R = future.result()
            nxt = next(blocks, None)
            if nxt is not None:
                pending.append((nxt, pool.submit(product, nxt)))
            yield block, R
    finally:
        # drops the blocks not yet started and waits for the running ones
        pool.shutdown(cancel_futures=True)


# ------------------------------------------------------------- top-k codes

def biohash_responses(sm: SynapseMatrix, X: np.ndarray) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[1] != sm.d:
        raise DimensionMismatch(f"input d={X.shape[1]}, weights d={sm.d}")
    W = effective_weights(sm.weights, sm.config.p)
    with np.errstate(invalid="ignore"):  # non-finite rows are refused below
        R = X @ W.T
    return check_finite(R)


def biohash_encode_many(sm: SynapseMatrix, X, k: int, shift=None,
                        dtype=np.float64) -> np.ndarray:
    """(n, k) ascending-index codes for every row of X; the one top-k
    encoder of learned rows. Each block of X is cast to `dtype` and
    multiplied by the effective weights in `dtype`; a `shift` folds into
    an offset, `(W @ shift).astype(dtype)`, subtracted from the responses,
    so X is read once and never copied whole."""
    if not (1 <= k <= sm.m):
        raise KOutOfRange(f"k={k} outside [1, {sm.m}]")
    X = np.atleast_2d(np.asarray(X))
    if X.shape[1] != sm.d:
        raise DimensionMismatch(f"input d={X.shape[1]}, weights d={sm.d}")
    W = effective_weights(sm.weights, sm.config.p)
    offset = None if shift is None else (W @ shift).astype(dtype)
    Wt = W.astype(dtype, copy=False).T

    def product(block):
        with np.errstate(invalid="ignore"):  # non-finite rows are refused below
            R = X[block].astype(dtype, copy=False) @ Wt
            if offset is not None:
                R -= offset
        return check_finite(R)

    n = X.shape[0]
    out = np.empty((n, k), dtype=np.uint32)
    for block, R in block_products(n, 2048, product, n * sm.m * sm.d):
        out[block] = topk_rows(R, k)
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


def flyhash_encode_many(proj: RandomProjection, X, k: int, chunk: int = 64) -> np.ndarray:
    """(n, k) ascending-index codes for every row of X: the top k of the
    exact responses, ties to the lower index. A unit's exact response is
    the float64 sum of its taps added one by one in mask order from 0.0,
    the order a sparse (CSR) product adds them in.

    Screen, on the workers when they run. A block of `chunk` rows, cast to
    float32, is multiplied by the cached float32 `dense_mask`. Let F be a
    row's k-th largest screened value s and b a bound on |s - exact| over
    the row's units. The k units with s >= F have exact responses of at
    least F - b, so the k-th largest exact response is at least F - b, and
    every unit of the exact top k has s >= F - 2b: those units pass.
    Confirm, on the calling thread. If exactly k units of a row pass, they
    are its code; otherwise only the passing units' exact responses are
    summed and `topk_rows` picks among them. So the codes do not depend on
    the BLAS kernel, on `chunk` or on how many rows are encoded together.

    The bound b, with u = 2**-24 and n taps per unit: a float32 product
    of any summation order rounds each tap's cast, and each product or sum
    on its path, by at most a factor of (1 + u), at most n times in all;
    the float64 sum rounds at most n - 1 times by (1 + 2**-53). For a unit
    whose taps sum to S in absolute value, the two differ by at most
    ((1 + u)**n - 1 + (1 + 2**-53)**n - 1) * S, which is below
    (n + 1) * u * (1 + n * u) * S for n * u <= 1/2, with room for the
    float64 rounding of b itself. S is at most min(c * |x|_1, n * |x|_inf)
    for a row x and a tap multiplicity c. Underflow, flushed to zero or
    not, costs each of the at most 2n - 1 operations on a tap at most
    2**-126 and a later flush of the result as much again, grown by at most
    (1 + u)**n < 1.65: below 8 * n * 2**-126. A row whose bound on S
    reaches 2**126, where float32 could overflow, and every row of a mask
    with more than 2**23 taps per unit get b = inf: each unit is summed
    exactly.

    The mask holds 4 * m * d bytes: 24.6 MB at MNIST width (d = 784,
    m = 7840), 377 MB at a CIFAR width of m = 30,720; the sparse form it
    replaced held about 12 * m * n (7.4 and 114 MB). A single row reads
    all of it: 1.1-1.3 ms at MNIST width on a 2-core AVX-512 Xeon, where
    the sparse product took 0.4-0.7 ms; building the mask takes 10-30 ms
    there, once per projection. Of the block sizes tried (32, 64
    and 128 rows), 64 read the lowest mnist-baselines peak RSS in single
    runs, though that metric also moves by about 9 MB with memory layout
    alone: the workers allocate the (chunk, m) screens in their own
    malloc arenas, which keep memory once it is freed."""
    if not (1 <= k <= proj.m):
        raise KOutOfRange(f"k={k} outside [1, {proj.m}]")
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[1] != proj.d:
        raise DimensionMismatch(f"input d={X.shape[1]}, projection d={proj.d}")
    m, taps = proj.m, proj.mask.shape[1]
    dense, c = proj.dense_mask, proj.tap_multiplicity  # built here, never on a worker
    u = 2.0 ** -24
    slope, floor = (taps + 1) * u * (1 + taps * u), 8 * taps * 2.0 ** -126
    limit = 2.0 ** 126 if taps <= 2 ** 23 else -1.0  # past 2**23 taps: every row exact

    def screen(block):
        """The block's candidate (row, unit) pairs, by row, then by unit."""
        xb = check_finite(X[block])
        with np.errstate(over="ignore"):  # rows past float32 range are summed exactly
            a = np.abs(xb)
            reach = np.minimum(c * a.sum(axis=1), taps * a.max(axis=1))
            x32 = xb.astype(np.float32)
            exact = reach >= limit
            bound = np.where(exact, np.inf, slope * reach + floor)
        x32[exact] = 0
        S = x32 @ dense
        F = np.partition(S, m - k, axis=1)[:, m - k]
        # one flat scan; a 2-d nonzero takes about ten times as long
        return np.divmod(np.flatnonzero(S >= (F - 2 * bound)[:, None]), m)

    n = X.shape[0]
    out = np.empty((n, k), dtype=np.uint32)
    for block, (rows, units) in block_products(n, chunk, screen, n * proj.d * m):
        codes = out[block]
        surplus = np.bincount(rows, minlength=codes.shape[0]) > k
        extra = surplus[rows]
        codes[~surplus] = units[~extra].reshape(-1, k)
        if extra.any():
            rows, units = rows[extra], units[extra]
            xb = X[block]
            # the sparse product's order: 0.0, then each tap in turn
            total = np.zeros(rows.size)
            for t in range(taps):
                total += xb[rows, proj.mask[units, t]]
            R = np.full((np.count_nonzero(surplus), m), -np.inf)
            R[(np.cumsum(surplus) - 1)[rows], units] = total
            codes[surplus] = topk_rows(R, k)
    return out


def sign_bits(values: np.ndarray) -> np.ndarray:
    """Sign in {-1, +1} with sign(0) = +1, for determinism on zeros."""
    return np.where(np.asarray(values) >= 0, 1, -1).astype(np.int8)


def simhash_encode_many(proj: RandomProjection, X) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[1] != proj.d:
        raise DimensionMismatch(f"input d={X.shape[1]}, projection d={proj.d}")
    with np.errstate(invalid="ignore"):  # non-finite rows are refused below
        R = X @ proj.matrix.T
    return sign_bits(check_finite(R))


# --------------------------------------------------------------------- PCA

def pcahash_fit(train, k: int) -> np.ndarray:
    """Top-k covariance eigenvectors as rows, largest eigenvalue first.

    Expects centered data. Each component's sign is fixed so its
    largest-magnitude entry is positive.
    """
    X = np.asarray(getattr(train, "data", train), dtype=np.float64)
    n, d = X.shape
    if n < k or d < k:
        raise RankDeficient(f"{n} rows of dimension {d} cannot support {k} components")
    cov = (X.T @ X) / max(n - 1, 1)
    lam, vecs = np.linalg.eigh(cov)
    lam, rows = lam[::-1][:k], vecs[:, ::-1][:, :k].T
    if lam[-1] < 1e-12:
        comp = int(np.argmax(lam < 1e-12))
        raise RankDeficient(f"eigenvalue {lam[comp]:.3e} at component {comp}")
    pivot = rows[np.arange(k), np.argmax(np.abs(rows), axis=1)]
    return rows * np.where(pivot < 0, -1.0, 1.0)[:, None]


def pcahash_encode_many(rows: np.ndarray, X) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[1] != rows.shape[1]:
        raise DimensionMismatch(f"input d={X.shape[1]}, rows d={rows.shape[1]}")
    with np.errstate(invalid="ignore"):  # non-finite rows are refused below
        R = X @ rows.T
    return sign_bits(check_finite(R))


# -------------------------------------------------- learned sign baseline

def naive_encode_many(sm: SynapseMatrix, X) -> np.ndarray:
    """Signs of the learned responses, without sparse expansion (m = k)."""
    return sign_bits(biohash_responses(sm, X))


# ------------------------------------------------------------ method table

@dataclass(frozen=True)
class Method:
    """What the CLI and the protocol runner need to know of one flat method.

    `m(k, activity, flyhash_m, d)` is its row count. `fit(X, m, seed,
    learn, sampling, log_energy)` returns (state, TrainingLog or None) from
    training rows X, which the caller centers; the random projections read
    only d from X. `learn` overrides the learning schedule, `sampling` the
    flyhash sampling rate; `log_energy` adds the per-epoch energy pass to
    a learned method's TrainingLog. `encode(state, X, k)` gives the codes
    of `kind`, (n, k) for sparse and (n, m) signs for dense ones, where
    m = k. A `stored` state is a SynapseMatrix saved as a BHW1 weight
    file; any other is regenerated from the seed. The encoders and fits
    are looked up by name at call time, so wrapping a module attribute
    reaches every method.
    """

    kind: str  # "sparse" | "dense"
    stored: bool
    m: Callable
    fit: Callable
    encode: Callable


def _fit_learned(X, m, seed, learn=None, sampling=None, log_energy=False):
    return plasticity.train(X, plasticity.learning_config(m, seed, learn),
                            log_energy=log_energy)


def _fit_projection(kind):
    def fit(X, m, seed, learn=None, sampling=DEFAULT_SAMPLING, log_energy=False):
        return build_projection(kind, X.shape[1], m, sampling, seed), None

    return fit


def _fit_pca(X, m, seed, learn=None, sampling=None, log_energy=False):
    return SynapseMatrix(pcahash_fit(X, m), plasticity.learning_config(m, seed)), None


def _m_equals_k(k, activity, flyhash_m, d):
    return k


METHODS = {
    "biohash": Method(
        "sparse", True, lambda k, activity, flyhash_m, d: round(k / activity),
        _fit_learned, lambda sm, X, k: biohash_encode_many(sm, X, k)),
    "naivebiohash": Method(
        "dense", True, _m_equals_k, _fit_learned,
        lambda sm, X, k: naive_encode_many(sm, X)),
    "flyhash": Method(
        "sparse", False,
        lambda k, activity, flyhash_m, d: DEFAULT_EXPANSION * d if flyhash_m is None else flyhash_m,
        _fit_projection("flyhash"), lambda proj, X, k: flyhash_encode_many(proj, X, k)),
    "simhash": Method(
        "dense", False, _m_equals_k, _fit_projection("simhash"),
        lambda proj, X, k: simhash_encode_many(proj, X)),
    "pcahash": Method(
        "dense", True, _m_equals_k, _fit_pca,
        lambda sm, X, k: pcahash_encode_many(sm.weights, X)),
}


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

    Raises, before the file is opened, what load_codes would raise on
    reading it back: KOutOfRange unless 1 <= k <= m, MalformedCode for a
    sparse row not strictly ascending in [0, m), ValueError for another kind.
    """
    codes = np.atleast_2d(codes)
    n, k = codes.shape
    if kind not in ("sparse", "dense"):
        raise ValueError(f"unknown code kind {kind!r}")
    if not 1 <= k <= m:
        raise KOutOfRange(f"k={k} outside [1, {m}]")
    if kind == "sparse":
        # a negative index wraps to one far above m, which the check refuses
        payload = np.ascontiguousarray(codes, dtype="<u4")
        check_sparse_rows(payload, m, str(path))
    else:
        payload = pack_signs(codes)
    with open(path, "wb") as f:
        f.write(b"BHC1")
        f.write(struct.pack(_BHC1_HEADER, m, k, 0 if kind == "sparse" else 1, n))
        f.write(payload.tobytes())


def check_sparse_rows(codes: np.ndarray, m: int, where: str = "codes"):
    """Raise MalformedCode unless every row of the (n, k >= 1) index matrix
    is strictly ascending and below m; one vectorized pass over the codes."""
    if (codes[:, 1:] > codes[:, :-1]).all() and (codes[:, -1] < m).all():
        return
    bad = (codes[:, 1:] <= codes[:, :-1]).any(axis=1) | (codes[:, -1] >= m)
    row = int(np.argmax(bad))
    raise MalformedCode(f"{where}: row {row} {codes[row].tolist()} is not "
                        f"strictly ascending in [0, {m})")


def check_sign_rows(codes: np.ndarray, where: str = "codes"):
    """Raise MalformedCode unless every entry of the (n, k) sign matrix is
    -1 or +1; one vectorized pass over the codes."""
    bad = np.abs(codes) != 1
    if bad.any():
        row = int(np.argmax(bad.any(axis=1)))
        raise MalformedCode(f"{where}: row {row} {codes[row].tolist()} holds a "
                            f"value outside {{-1, +1}}")


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
