"""Ground truth, average precision, smoothness, sweeps, and protocol runs.

One protocol cell, `_eval_one_split`, scores every hasher: the split's
rows and ground truth, centering with the training mean (the conv
pipeline fits raw rows), fit, encode database and queries, Hamming rank,
and mAP at the protocol's depth, as a percent. `run_protocol` runs it
once, or once per database partition for `glove_partition` (more than
10000 rows: 10000 form the database, the rest train); `activity_sweep`
once per activity on a validation carve of the train split.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import asdict, dataclass, field
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from . import METHODS, convnet, hashers
from .codebank import CodeBank, ranked_ids, scan_distances
from .datasets import (DataSet, ProtocolSplit, _sample_per_class, center, protocol_split,
                       shadow_transform)
from .errors import DegenerateVariance, DimensionMismatch, EmptyQuerySet, MissingLabels
from .seeds import subseed, substream

PROTOCOL_ACTIVITY = {
    "mnist_label": 0.05,
    "mnist_euclid100": 0.05,
    "cifar_label": 0.005,
    "glove_partition": 0.01,
}
PROTOCOL_LAYOUT = {
    "mnist_label": (28, 28, 1),
    "mnist_euclid100": (28, 28, 1),
    "cifar_label": (32, 32, 3),
}


@dataclass
class GroundTruth:
    """Per-query relevance oracle: shared class labels or explicit id sets."""

    mode: str  # "labels" | "knn"
    query_labels: Optional[np.ndarray] = None
    db_labels: Optional[np.ndarray] = None
    relevant: Optional[Sequence] = None  # per query: array of relevant db ids

    def relevance(self, query_pos: int, ids: np.ndarray) -> np.ndarray:
        if self.mode == "labels":
            return self.db_labels[ids] == self.query_labels[query_pos]
        truth = self._sorted_relevant[query_pos]
        if truth.size == 0:
            return np.zeros(np.shape(ids), dtype=bool)
        # np.isin's booleans by binary search, about a tenth of its time at depth 100
        return truth[np.minimum(np.searchsorted(truth, ids), truth.size - 1)] == ids

    @cached_property
    def _sorted_relevant(self) -> list:
        """knn: each query's relevant ids, sorted once on first use."""
        return [np.sort(r) for r in self.relevant]


@dataclass
class EvalReport:
    protocol: str
    method: str
    k: int
    map_percent: float
    smooth_top: Optional[float] = None
    smooth_bottom: Optional[float] = None
    train_seconds: float = 0.0
    scan_seconds: float = 0.0
    config: dict = field(default_factory=dict)


# ------------------------------------------------------------ ground truth

_last_truth = None  # (key digest, GroundTruth) of the last knn truth computed


def _truth_key(database, queries, N, metric, query_db_ids, chunk) -> bytes:
    """SHA-256 over the arguments: each array's dtype, shape and bytes as
    given. Only the digest is kept, so an in-place edit of an input misses."""
    h = hashlib.sha256(repr((metric, N, chunk)).encode())
    for a in (getattr(database, "data", database), getattr(queries, "data", queries),
              query_db_ids):
        if a is None:
            h.update(b"none")
            continue
        a = np.asarray(a)
        if a.dtype.hasobject:  # object bytes are addresses, not values
            a = a.astype(np.float64)
        h.update(repr((a.dtype.str, a.shape)).encode())
        h.update(np.ascontiguousarray(a).data)
    return h.digest()


def ground_truth_knn(database, queries, N: int, metric: str = "euclidean",
                     query_db_ids=None, chunk: int = 512) -> GroundTruth:
    """N nearest database rows per query, ties by ascending id.

    query_db_ids marks each query's own database row (or -1) so it can be
    excluded when the query set is drawn from the database itself.

    A repeated call on equal inputs returns the previous result instead of
    recomputing it: the last truth is kept under a digest of the
    arguments' contents. Callers share the result, so its `relevant`
    arrays are read-only.
    """
    global _last_truth
    key = _truth_key(database, queries, N, metric, query_db_ids, chunk)
    last = _last_truth
    if last is not None and last[0] == key:
        return last[1]
    gt = _knn_truth(database, queries, N, metric, query_db_ids, chunk)
    for r in gt.relevant:
        r.flags.writeable = False
    _last_truth = (key, gt)
    return gt


def _knn_truth(database, queries, N, metric, query_db_ids, chunk) -> GroundTruth:
    X = np.asarray(getattr(database, "data", database), dtype=np.float64)
    Q = np.asarray(getattr(queries, "data", queries), dtype=np.float64)
    if X.shape[1] != Q.shape[1]:
        raise DimensionMismatch(f"database d={X.shape[1]}, queries d={Q.shape[1]}")
    if metric == "euclidean":
        xs = (X * X).sum(axis=1)
    elif metric == "cosine":
        norms = np.linalg.norm(X, axis=1)
        Xn = X / np.maximum(norms, 1e-300)[:, None]
    else:
        raise ValueError(f"unknown metric {metric!r}")
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    depth = min(N, X.shape[0])
    if depth == 0:
        return GroundTruth("knn", relevant=tuple(np.empty(0, np.int64) for _ in range(Q.shape[0])))
    relevant = []
    for start in range(0, Q.shape[0], chunk):
        qb = Q[start:start + chunk]
        # score is the negated distance, bit for bit: fl(a - b) == -fl(b - a)
        if metric == "euclidean":
            score = 2.0 * (qb @ X.T) - xs[None, :]  # |q|^2 omitted: constant per query
        else:
            qn = qb / np.maximum(np.linalg.norm(qb, axis=1), 1e-300)[:, None]
            score = qn @ Xn.T
        if query_db_ids is not None:
            own = np.asarray(query_db_ids[start:start + qb.shape[0]])
            rows = np.flatnonzero(own >= 0)
            score[rows, own[rows]] = -np.inf
        relevant.extend(hashers.topk_ranked(score, depth))
    return GroundTruth("knn", relevant=tuple(relevant))


# --------------------------------------------------------------- AP / mAP

def ap_from_relevance(pattern, R: Optional[int] = None) -> float:
    """Average precision of a 1/0 relevance pattern in rank order.

    Precision at each relevant rank, averaged over the relevant ranks
    within the top R. No relevant item in the top R gives 0.
    """
    rel = np.asarray(pattern, dtype=bool)
    if R is not None:
        rel = rel[:R]
    hits = np.flatnonzero(rel)
    if hits.size == 0:
        return 0.0
    precis = np.arange(1, hits.size + 1, dtype=np.float64) / (hits + 1)
    return float(precis.mean())


def mean_ap(aps) -> float:
    """Arithmetic mean of per-query APs, reported as a percent."""
    aps = np.asarray(list(aps), dtype=np.float64)
    if aps.size == 0:
        raise EmptyQuerySet("mean over zero queries")
    return float(aps.mean() * 100.0)


def evaluate_queries(bank: CodeBank, query_codes: np.ndarray, gt: GroundTruth,
                     R: Optional[int], exclude_ids=None) -> np.ndarray:
    """AP per query code against the bank (full exact scan each), ranked
    to depth R with the query's own id, if any, dropped."""
    aps = np.empty(query_codes.shape[0])
    for pos, row in enumerate(query_codes):
        own = -1 if exclude_ids is None else int(exclude_ids[pos])
        ids = ranked_ids(bank, scan_distances(bank, bank.code(row)), R, own)
        aps[pos] = ap_from_relevance(gt.relevance(pos, ids))
    return aps


# -------------------------------------------------------------- smoothness

def _pair_cosines(A: np.ndarray, i: np.ndarray, j: np.ndarray,
                  chunk: int = 8192) -> np.ndarray:
    norms = np.maximum(np.linalg.norm(A, axis=1), 1e-300)
    out = np.empty(i.size)
    for start in range(0, i.size, chunk):
        ii, jj = i[start:start + chunk], j[start:start + chunk]
        dots = np.einsum("ij,ij->i", A[ii], A[jj])
        out[start:start + chunk] = dots / (norms[ii] * norms[jj])
    return out


def _band_pearson(sim_in: np.ndarray, sim_hash: np.ndarray, band: str) -> float:
    if band == "top10":
        mask = sim_in >= np.quantile(sim_in, 0.9)
    elif band == "bottom10":
        mask = sim_in <= np.quantile(sim_in, 0.1)
    else:
        raise ValueError(f"unknown band {band!r}")
    a, b = sim_in[mask], sim_hash[mask]
    if a.std() == 0.0 or b.std() == 0.0:
        raise DegenerateVariance(f"constant similarities in band {band}")
    return float(np.corrcoef(a, b)[0, 1] * 100.0)


def _sample_pairs(n: int, sample_pairs: int, seed: int):
    if sample_pairs < 1000:
        raise ValueError("sample_pairs must be >= 1000")
    rng = substream(seed, "pairs")
    i = rng.integers(0, n, size=sample_pairs)
    j = rng.integers(0, n, size=sample_pairs)
    keep = i != j
    return i[keep], j[keep]


def smoothness_from_bank(input_data, bank: CodeBank, band: str,
                         sample_pairs: int = 100_000, seed: int = 0) -> float:
    """Pearson r (percent) between input and code cosine similarities,
    restricted to the sampled pairs whose input similarity falls in the
    given decile ("top10" or "bottom10"). Sparse codes are not expanded to
    dense form: their cosine is 1 - 2 * hamming / m at fixed k."""
    return _smoothness_bands(input_data, bank, (band,), sample_pairs, seed)[0]


def _smoothness_bands(input_data, bank: CodeBank, bands, sample_pairs: int,
                      seed: int) -> list:
    """`smoothness_from_bank` for each of `bands`, from one pair draw and
    one pass of cosines."""
    X = np.asarray(getattr(input_data, "data", input_data), dtype=np.float64)
    if X.shape[0] != bank.size:
        raise DimensionMismatch(f"{X.shape[0]} inputs vs {bank.size} codes")
    i, j = _sample_pairs(X.shape[0], sample_pairs, seed)
    sim_in = _pair_cosines(X, i, j)
    if bank.kind == "sparse":
        a, b = bank.codes[i], bank.codes[j]
        inter = (a[:, :, None] == b[:, None, :]).sum(axis=(1, 2))
        hamming = 2 * (bank.k - inter)
        sim_hash = 1.0 - 2.0 * hamming / bank.m
    else:
        dots = np.einsum("ij,ij->i", bank.codes[i].astype(np.float64),
                         bank.codes[j].astype(np.float64))
        sim_hash = dots / bank.k
    return [_band_pearson(sim_in, sim_hash, band) for band in bands]


# ------------------------------------------------------------------ sweeps

def activity_sweep(ds: DataSet, split: ProtocolSplit, k: int, activities,
                   seed: int = 0, learn: Optional[dict] = None,
                   per_class: int = 100):
    """Train one hasher per activity and score it on a validation carve.

    The validation queries (per_class rows per class) come out of the train
    split; the protocol cell scores each activity with the remaining train
    rows as both training set and database. Returns (activity, m, mAP
    percent) rows. MissingLabels if the dataset has no labels,
    TooFewPerClass if a class of the train split has fewer than per_class.
    """
    if ds.labels is None:
        raise MissingLabels("activity sweep needs labels for validation")
    train_ids = np.asarray(split.train_ids)
    val_pos = _sample_per_class(ds.labels[train_ids], per_class, substream(seed, "val"))
    val_ids = train_ids[val_pos]
    fit_ids = np.setdiff1d(train_ids, val_ids)
    carve = ProtocolSplit(fit_ids, fit_ids, val_ids, "labels", 0, split.map_depth)
    rows = []
    for a in activities:
        m = hashers.METHODS["biohash"].m(k, a, None, ds.d)
        if m < k:
            raise ValueError(f"activity {a} gives m={m} < k={k}")
        mp, *_ = _eval_one_split(ds, carve, "biohash", k, subseed(seed, f"sweep{a}"), a,
                                 learn, None, False, None, None)
        rows.append((float(a), m, mp))
    return rows


# ---------------------------------------------------------- protocol runs

def _eval_one_split(ds, split, method, k, fit_seed, activity, learn, conv_config,
                    shadow, layout, flyhash_m):
    raw_train = ds.take(split.train_ids)
    same_rows = np.array_equal(split.train_ids, split.database_ids)
    raw_db = raw_train if same_rows else ds.take(split.database_ids)
    raw_q = ds.take(split.query_ids)
    if shadow:
        raw_q = shadow_transform(raw_q, 0.8, 0.3, layout)
    # queries drawn from the database itself each drop their own row
    self_query = np.array_equal(split.query_ids, split.database_ids)
    exclude = np.arange(len(split.database_ids)) if self_query else None
    if split.ground_truth_mode == "labels":
        gt = GroundTruth("labels", query_labels=ds.labels[split.query_ids],
                         db_labels=ds.labels[split.database_ids])
    else:
        gt = ground_truth_knn(raw_db, raw_q, split.gt_neighbors,
                              split.ground_truth_mode.split("_", 1)[1], query_db_ids=exclude)

    t0 = time.perf_counter()
    if conv_config is not None:
        model, train_feats = convnet.conv_fit(raw_train, conv_config, k, activity=activity,
                                              seed=fit_seed, hash_overrides=learn)
        t1 = time.perf_counter()
        db_codes = (convnet.encode_features(model, train_feats, k) if same_rows
                    else convnet.conv_encode_many(model, raw_db.data, k))
        del train_feats  # frees the feature store before the scan
        q_codes = convnet.conv_encode_many(model, raw_q.data, k)
        kind, m, cdb = "sparse", model.hash_sm.m, None
    else:
        ctrain, mean = center(raw_train)
        cdb = ctrain if same_rows else center(raw_db, mean)[0]
        cq, _ = center(raw_q, mean)
        spec = hashers.METHODS[method]
        state, _ = spec.fit(ctrain.data, spec.m(k, activity, flyhash_m, ds.d), fit_seed, learn)
        t1 = time.perf_counter()
        db_codes = spec.encode(state, cdb.data, k)
        q_codes = spec.encode(state, cq.data, k)
        kind, m = spec.kind, state.m
    bank = CodeBank(kind, m, k, db_codes)
    aps = evaluate_queries(bank, q_codes, gt, split.map_depth, exclude)
    return mean_ap(aps), t1 - t0, time.perf_counter() - t1, bank, cdb


def run_protocol(ds: DataSet, protocol: str, method: str, k: int, *,
                 seed: int = 0, activity: Optional[float] = None,
                 learn: Optional[dict] = None, conv_config=None,
                 gt_metric: str = "cosine", shadow_queries: bool = False,
                 layout=None, flyhash_m: Optional[int] = None,
                 smoothness_pairs: int = 0, partitions: int = 10) -> EvalReport:
    """End-to-end benchmark cell: returns the mAP percent for one
    (protocol, method, k) combination.

    smoothness_pairs > 0 also reports top/bottom-decile functional smoothness
    over the database codes. glove_partition averages over `partitions`
    database draws, and ignores shadow_queries and smoothness_pairs.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    if activity is None:
        activity = PROTOCOL_ACTIVITY.get(protocol, 0.05)
    if layout is None:
        layout = PROTOCOL_LAYOUT.get(protocol)
    if method == "bioconvhash":
        if conv_config is None:
            raise ValueError("bioconvhash needs a conv_config")
        fit_stream = None  # conv_fit fans the seed out itself
    else:
        conv_config = None  # only the conv pipeline reads it
        fit_stream = "train" if hashers.METHODS[method].stored else "projection"

    echo = {"protocol": protocol, "method": method, "k": k, "seed": seed,
            "activity": activity, "learn": learn or {},
            "gt_metric": gt_metric, "shadow_queries": shadow_queries,
            "smoothness_pairs": smoothness_pairs}
    glove = protocol == "glove_partition"
    if glove and partitions < 1:
        raise ValueError(f"partitions must be >= 1, got {partitions}")
    maps, train_s, scan_s, top, bottom = [], 0.0, 0.0, None, None
    for part in range(partitions if glove else 1):
        split_seed = subseed(seed, f"partition{part}" if glove else "split")
        split = protocol_split(ds, protocol, split_seed, gt_metric=gt_metric)
        fit_seed = subseed(seed, f"fit{part}") if glove else seed
        mp, ts, ss, bank, cdb = _eval_one_split(
            ds, split, method, k, fit_seed if fit_stream is None else subseed(fit_seed, fit_stream),
            activity, learn, conv_config, shadow_queries and not glove, layout, flyhash_m)
        maps.append(mp)
        train_s += ts
        scan_s += ss
        if smoothness_pairs and not glove and cdb is not None:
            top, bottom = _smoothness_bands(cdb.data, bank, ("top10", "bottom10"),
                                            smoothness_pairs, subseed(seed, "smooth"))
        del bank, cdb  # one partition's bank and database at a time
    if glove:
        echo["partition_maps"] = maps
    return EvalReport(protocol, method, k, float(np.mean(maps)), top, bottom,
                      train_s, scan_s, echo)


# ----------------------------------------------------------------- reports

def write_reports_jsonl(path, reports):
    with open(path, "w") as f:
        for rep in reports:
            f.write(json.dumps(asdict(rep)) + "\n")


def format_table(reports) -> str:
    """Plain-text grid: one row per method, one column per hash length."""
    ks = sorted({r.k for r in reports})
    methods = list(dict.fromkeys(r.method for r in reports))  # first-seen order
    cells = {(r.method, r.k): r.map_percent for r in reports}
    width = max(10, *(len(m) for m in methods)) + 2
    header = "method".ljust(width) + "".join(f"k={k}".rjust(9) for k in ks)
    lines = [header, "-" * len(header)]
    for method in methods:
        row = method.ljust(width)
        for k in ks:
            val = cells.get((method, k))
            row += (f"{val:9.2f}" if val is not None else "        -")
        lines.append(row)
    return "\n".join(lines) + "\n"
