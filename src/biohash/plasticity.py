"""Ranked Hebbian/anti-Hebbian learning of synapse rows on the unit p-sphere.

For each sample the hidden rows are ranked by their weighted inner product
with the input. The top row is pulled toward the sample (weight 1), the
rank-r row is pushed away (weight -delta), everything else is untouched.
Updates accumulate over a minibatch and are applied as one step normalized
by the largest absolute entry of the accumulated delta. The accumulation is
one `np.bincount` scatter, which adds in input order as `np.add.at` does, so
its sums are bit-identical to a per-sample `np.add.at` loop. A batch that
touches every unit scatters straight into the unit rows; any other batch
compacts its touched units first. Each epoch sorts the ids of every batch
once, so a batch gathers its rows in ascending order.

Precision: `train` gives a layer with at least `F32_PRODUCT_MIN` weight
entries a mirror (`response_mirror`), a float32 copy of
`effective_weights(W, p)`, and `apply_batch` given a mirror forms each
minibatch's responses in float32, as `X.astype(float32) @ mirror.T`, and
rewrites exactly the mirror rows it steps. Winners and rank-r units are
ranked on the float32 responses, and only the responses they pick are
cast up. Everything else stays float64: the weights, the scatter, the
coefficients, `max_abs` and the step. A batch whose float32 responses
are not all finite (an input or product beyond float32's range, or a NaN)
is redone in float64, so `NonFiniteUpdate` is raised exactly when the
float64 product would raise it. Smaller layers, such as the d = 2 circle
and the K=3 filters of `convnet.mnist_conv_config` (500 x 9), keep the
float64 product; the preset filter banks at or above the constant (the
mnist K=4 bank at exactly 500 x 16, and all three
`convnet.cifar_conv_config` banks) take the float32 one.

Training records, per epoch, the learning rate, the average row p-norm and
the fraction of units that won no sample, and once which product dtype it
used. The rank-gated energy costs a second full pass over the data, so it
is computed only when the caller asks for it with
`train(..., log_energy=True)`; otherwise it is NaN per epoch.
"""

from __future__ import annotations

import math
import struct
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import BadHeader, BadMagic, DimensionMismatch, NonFiniteUpdate, TruncatedFile
from .seeds import substream

WEIGHT_CLAMP = 1e-8  # floor on |w| inside |w|**(p-2) when p < 2
# the fewest weight entries (m * d) that train with the float32 minibatch
# product; single-thread OpenBLAS at batch 100 crosses over near here, and
# the preset filter banks at or above it (500 x 16 to 400 x 300) step no slower
F32_PRODUCT_MIN = 8000
# `train` gathers rows in blocks of whole batches of at most this many
# float64 bytes (one batch when a batch is larger)
GATHER_BYTES = 1 << 18


@dataclass(frozen=True)
class LearningConfig:
    m: int
    p: float = 2.0
    delta: float = 0.0
    rank_r: int = 2
    eps0: float = 2e-2
    t_max: int = 100
    batch: int = 100
    seed: int = 0
    converge_norm: float = 1.06
    # start rows at unit length instead of raw standard normal; at low
    # input dimension raw norms spread so widely that small rows can
    # never win and stay frozen, while at high dimension norms
    # concentrate on their own and the flag changes nothing material
    unit_init: bool = False

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if not (1 <= self.rank_r <= self.m):
            raise ValueError(f"rank_r must lie in [1, m], got {self.rank_r}")
        # written so that NaN fails each check
        if not (math.isfinite(self.eps0) and self.eps0 > 0):
            raise ValueError(f"eps0 must be finite and positive, got {self.eps0}")
        if self.batch < 1:
            raise ValueError("batch must be >= 1")
        if not (math.isfinite(self.p) and self.p >= 1):
            raise ValueError(f"p must be finite and >= 1, got {self.p}")
        if not (math.isfinite(self.delta) and self.delta >= 0):
            raise ValueError(f"delta must be finite and >= 0, got {self.delta}")
        if self.t_max < 1:
            raise ValueError("t_max must be >= 1")
        if not (math.isfinite(self.converge_norm) and self.converge_norm >= 0):
            raise ValueError("converge_norm must be finite and >= 0, "
                             f"got {self.converge_norm}")


def learning_config(m: int, seed: int, overrides: Optional[dict] = None) -> LearningConfig:
    """The hash layers' schedule: LearningConfig defaults with m and seed,
    then the caller's overrides; rank_r is capped at m, so a layer narrower
    than the default rank still trains."""
    kwargs = {"m": m, "seed": seed, "rank_r": 2, **(overrides or {})}
    kwargs["rank_r"] = min(kwargs["rank_r"], kwargs["m"])
    return LearningConfig(**kwargs)


@dataclass
class SynapseMatrix:
    """Learned (m, d) weight rows plus the config that produced them."""

    weights: np.ndarray
    config: LearningConfig

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.weights.ndim != 2:
            raise DimensionMismatch(f"weights must be 2-D, got {self.weights.shape}")
        if self.weights.shape[0] != self.config.m:
            raise DimensionMismatch(
                f"{self.weights.shape[0]} rows but config.m={self.config.m}"
            )

    @property
    def m(self) -> int:
        return self.weights.shape[0]

    @property
    def d(self) -> int:
        return self.weights.shape[1]


@dataclass
class TrainingLog:
    """Per-epoch training state. `energy` is NaN per epoch unless the run
    asked for it; `dead_units` is the fraction of units that won no sample
    in that epoch (rank-r placements do not count as wins)."""

    energy: list = field(default_factory=list)
    avg_row_norm: list = field(default_factory=list)
    learning_rate: list = field(default_factory=list)
    dead_units: list = field(default_factory=list)
    seconds: list = field(default_factory=list)
    converged: bool = False
    # dtype of the minibatch response product ("float32" or "float64")
    product_dtype: str = "float64"

    @property
    def epochs(self) -> int:
        return len(self.learning_rate)


def effective_weights(W: np.ndarray, p: float) -> np.ndarray:
    """Rows transformed to |w|**(p-2) * w, so responses are X @ eff.T."""
    if p == 2.0:
        return W
    mag = np.abs(W)
    if p < 2.0:
        mag = np.maximum(mag, WEIGHT_CLAMP)
    return mag ** (p - 2.0) * W


def response_mirror(W: np.ndarray, p: float) -> Optional[np.ndarray]:
    """The float32 copy of effective_weights(W, p) that the minibatch
    product reads, or None when W is below `F32_PRODUCT_MIN` entries."""
    if W.size < F32_PRODUCT_MIN:
        return None
    with np.errstate(over="ignore"):
        return effective_weights(W, p).astype(np.float32)


def _rank_indices(R: np.ndarray, rank_r: int, need_rth: bool):
    """Winner (and rank-r) column per row; ties go to the lower index."""
    if not need_rth:
        return R.argmax(axis=1), None
    from .hashers import topk_ranked  # hashers imports this module

    top = topk_ranked(R, rank_r)
    return top[:, 0], top[:, rank_r - 1]


def step_constants(rows: int, m: int, d: int):
    """The index arrays one minibatch step of an (m, d) layer reads, for
    batches of at most `rows` samples: the flat offset of each sample's row
    in its (rows, m) responses, and the column ids `arange(d)`."""
    return np.arange(0, rows * m, m), np.arange(d)


def apply_batch(W: np.ndarray, X: np.ndarray, eps: float, p: float,
                delta: float, rank_r: int, wins: Optional[np.ndarray] = None,
                mirror: Optional[np.ndarray] = None, consts: Optional[tuple] = None) -> float:
    """Accumulate the rank-gated deltas for one minibatch and step W in place.

    Returns the pre-normalization max |delta| entry. The step applied is
    eps * delta / max(|delta|, 1e-30). When `wins` (an (m,) integer array)
    is given, each unit's count of won samples is added to it.

    Given `mirror`, the `response_mirror(W, p)` that the caller keeps, the
    responses are formed in float32 against it and the rows this call
    steps are rewritten in it; responses that are not all finite in
    float32 are formed again in float64. Without one the product is
    float64.

    `consts` is `step_constants(rows, m, d)` for some rows >= X.shape[0];
    a caller stepping many batches of one layer builds it once, and a call
    without it builds its own. It only saves that work: the step is the
    same either way.

    The winner rows and then the rank-r rows are scattered by `np.bincount`,
    which adds in input order, so every sum equals the one `np.add.at`
    gives, bit for bit. When the batch touches every unit the scatter slots
    are the unit ids and W is stepped in place; otherwise the touched units
    are compacted into slots and their rows gathered and written back once.
    """
    n = X.shape[0]
    m, d = W.shape
    row_at, cols = step_constants(n, m, d) if consts is None else consts
    R = None
    if mirror is not None:
        with np.errstate(over="ignore", invalid="ignore"):
            R = X.astype(np.float32) @ mirror.T
        if not np.isfinite(R).all():
            R = None
    if R is None:
        R = X @ effective_weights(W, p).T
    need_rth = delta != 0.0 and rank_r >= 2
    win, rth = _rank_indices(R, rank_r, need_rth)
    # flat offsets of each sample's row in R, to read one column per row
    row_at = row_at[:n]
    flat = R.ravel()
    touched = np.bincount(win, minlength=m)
    if wins is not None:
        wins += touched
    unit, vals, resp = win, X, flat[row_at + win]
    if R.dtype != np.float64:
        resp = resp.astype(np.float64)
    if rth is not None:
        unit = np.concatenate([win, rth])
        vals = np.concatenate([X, -delta * X])
        resp = np.concatenate(
            [resp, -delta * flat[row_at + rth].astype(np.float64, copy=False)])
        touched += np.bincount(rth, minlength=m)
    if np.count_nonzero(touched) == m:
        rows, slot, Wr = None, unit, W
    else:
        rows = np.flatnonzero(touched)
        slot = (np.cumsum(touched > 0) - 1)[unit]
        Wr = W[rows]
    size = Wr.shape[0]
    keys = (slot * d)[:, None] + cols
    acc = np.bincount(keys.ravel(), weights=vals.ravel(),
                      minlength=size * d).reshape(size, d)
    coef = np.bincount(slot, weights=resp, minlength=size)
    with np.errstate(invalid="ignore", over="ignore"):
        tmp = coef[:, None] * Wr
        acc -= tmp
    # NaN and inf both propagate through the max
    max_abs = float(np.abs(acc, out=tmp).max())
    if not math.isfinite(max_abs):
        raise NonFiniteUpdate("weight update contains NaN or Inf",
                              last_weights=W.copy())
    acc *= eps / max(max_abs, 1e-30)
    Wr += acc
    if rows is not None:
        W[rows] = Wr
    if mirror is not None:
        with np.errstate(over="ignore"):
            mirror[... if rows is None else rows] = effective_weights(Wr, p)
    return max_abs


def row_pnorms(W: np.ndarray, p: float) -> np.ndarray:
    return (np.abs(W) ** p).sum(axis=1) ** (1.0 / p)


def _energy_arrays(W, X, p, delta, rank_r, chunk=8192, shift=None) -> float:
    # ranking uses the raw responses; the summand scales each by its row's
    # p-norm power, so boundary ties are resolved exactly as in training
    mag = np.abs(W)
    if p < 2.0:
        mag = np.maximum(mag, WEIGHT_CLAMP)
    self_inner = (mag ** (p - 2.0) * W * W).sum(axis=1)
    denom = np.maximum(self_inner, 1e-300) ** ((p - 1.0) / p)
    eff = effective_weights(W, p)
    need_rth = delta != 0.0 and rank_r >= 2
    total = 0.0
    for start in range(0, X.shape[0], chunk):
        xb = np.asarray(X[start:start + chunk], dtype=np.float64)
        if shift is not None:
            xb = xb - shift
        R = xb @ eff.T
        win, rth = _rank_indices(R, rank_r, need_rth)
        rows = np.arange(xb.shape[0])
        total += float((R[rows, win] / denom[win]).sum())
        if rth is not None:
            total -= delta * float((R[rows, rth] / denom[rth]).sum())
    return -total


def energy(sm: SynapseMatrix, data, shift=None) -> float:
    """Rank-gated alignment energy of the weights on the given samples."""
    X = getattr(data, "data", data)
    if not isinstance(X, np.ndarray):
        X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X[None, :]
    if X.shape[0] == 0:
        return 0.0
    if X.shape[1] != sm.d:
        raise DimensionMismatch(f"data d={X.shape[1]}, weights d={sm.d}")
    c = sm.config
    return _energy_arrays(sm.weights, X, c.p, c.delta, c.rank_r, shift=shift)


def train(data, config: LearningConfig, log_energy: bool = False, shift=None):
    """Fit a SynapseMatrix: shuffled minibatch epochs with a decaying step.

    Weights start i.i.d. standard normal from config.seed (row-normalized
    to unit length when config.unit_init is set). Epoch t (0-based, so the
    first epoch uses exactly eps0) runs at eps0 * (1 - t / t_max).
    Training stops early once the average row p-norm drops below
    config.converge_norm, checked at epoch end.

    `shift` (d,) is subtracted from every sample on the fly, so centered
    training can run off a read-only or memory-mapped feature matrix
    without materializing a centered copy. Each epoch's permutation is
    cut into batches and the ids within every batch are sorted in place,
    once per epoch. Rows are then gathered in blocks of whole batches, of
    at most `GATHER_BYTES` of float64 rows or one batch if that is larger;
    each block is cast to float64 when the source is not and shifted once,
    so the source keeps its own dtype and at d = 2 one gather serves about
    160 batches. Every step reads the index arrays `step_constants` built
    once for the run.

    The returned TrainingLog holds one entry per epoch. Its energy is a
    second full pass over the data, made only with `log_energy=True`
    (`biohash train` asks for it); otherwise each epoch's energy is NaN.
    The weights are the same either way. Its dead-unit fraction is counted
    from the winners the updates already rank, at no extra pass.
    """
    X = getattr(data, "data", data)
    if not isinstance(X, np.ndarray):
        X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("training data must be a nonempty (n, d) matrix")
    if shift is not None:
        shift = np.asarray(shift, dtype=np.float64)
        if shift.shape != (X.shape[1],):
            raise DimensionMismatch(f"shift shape {shift.shape}, data d={X.shape[1]}")
    n = X.shape[0]
    W = substream(config.seed, "init").standard_normal((config.m, X.shape[1]))
    if config.unit_init:
        W /= np.maximum(np.linalg.norm(W, axis=1, keepdims=True), 1e-300)
    mirror = response_mirror(W, config.p)
    log = TrainingLog(product_dtype="float64" if mirror is None else "float32")
    batch = config.batch
    full = n - n % batch
    cast = X.dtype != np.float64
    consts = step_constants(min(batch, n), config.m, X.shape[1])
    chunk = batch * max(1, GATHER_BYTES // (batch * X.shape[1] * 8))
    for t in range(config.t_max):
        t0 = time.perf_counter()
        eps_t = config.eps0 * (1.0 - t / config.t_max)
        perm = substream(config.seed, f"shuffle{t}").permutation(n)
        # weights are frozen within a batch, so only batch membership
        # matters; sorting each batch's ids (once per epoch, in place)
        # keeps memmap reads sequential-ish
        perm[:full].reshape(-1, batch).sort(axis=1)
        perm[full:].sort()
        wins = np.zeros(config.m, dtype=np.int64)
        for lo in range(0, n, chunk):
            block = X.take(perm[lo:lo + chunk], axis=0)
            if cast:
                block = block.astype(np.float64)
            if shift is not None:
                block -= shift
            for start in range(0, block.shape[0], batch):
                apply_batch(W, block[start:start + batch], eps_t, config.p, config.delta,
                            config.rank_r, wins, mirror, consts)
        avg_norm = float(row_pnorms(W, config.p).mean())
        e = (_energy_arrays(W, X, config.p, config.delta, config.rank_r, shift=shift)
             if log_energy else float("nan"))
        log.energy.append(e)
        log.avg_row_norm.append(avg_norm)
        log.learning_rate.append(eps_t)
        log.dead_units.append(float((wins == 0).mean()))
        log.seconds.append(time.perf_counter() - t0)
        if avg_norm < config.converge_norm:
            log.converged = True
            break
    return SynapseMatrix(W, config), log


# ------------------------------------------------------------------- BHW1

_BHW1_HEADER = "<IIddIQ"  # m, d, p, delta, rank_r, seed


def weights_to_bytes(sm: SynapseMatrix) -> bytes:
    """Serialize one weight block (magic, header, f32 rows, little-endian)."""
    c = sm.config
    head = struct.pack(_BHW1_HEADER, sm.m, sm.d, c.p, c.delta, c.rank_r, c.seed)
    return b"BHW1" + head + np.ascontiguousarray(sm.weights, dtype="<f4").tobytes()


def weights_from_bytes(raw: bytes, offset: int = 0, where: str = "weight block"):
    """Parse one weight block at `offset`; returns (SynapseMatrix, end_offset)."""
    if raw[offset:offset + 4] != b"BHW1":
        raise BadMagic(f"{where}: expected magic BHW1, got {raw[offset:offset + 4]!r}")
    header_len = struct.calcsize(_BHW1_HEADER)
    body = offset + 4 + header_len
    if len(raw) < body:
        raise TruncatedFile(f"{where}: header needs {body - offset} bytes")
    m, d, p, delta, rank_r, seed = struct.unpack(_BHW1_HEADER, raw[offset + 4:body])
    if (m < 1 or d < 1 or not math.isfinite(p) or p < 1 or not math.isfinite(delta)
            or delta < 0 or not 1 <= rank_r <= m):
        raise BadHeader(f"{where}: header declares m={m}, d={d}, p={p}, "
                        f"delta={delta}, rank_r={rank_r}")
    end = body + 4 * m * d
    if len(raw) < end:
        raise TruncatedFile(f"{where}: need {end - offset} bytes, have {len(raw) - offset}")
    W = np.frombuffer(raw, dtype="<f4", count=m * d, offset=body)
    config = LearningConfig(m=m, p=p, delta=delta, rank_r=rank_r, seed=seed)
    return SynapseMatrix(W.reshape(m, d).astype(np.float64), config), end


def save_weights(path, sm: SynapseMatrix):
    """Write the binary weight container (f32 payload, little-endian)."""
    Path(path).write_bytes(weights_to_bytes(sm))


def load_weights(path) -> SynapseMatrix:
    """Read a weight container; schedule fields not stored take defaults."""
    raw = Path(path).read_bytes()
    sm, _ = weights_from_bytes(raw, 0, where=str(path))
    return sm
