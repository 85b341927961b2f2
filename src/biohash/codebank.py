"""Compact code storage and exact linear-scan retrieval.

Sparse codes are (n, k) ascending index rows; the Hamming distance
between two such codes is 2 * (k - |intersection|), computed without
expanding to dense form. Dense codes are bit-packed and scanned with a
popcount table.

Tie contract: encoding keeps the k largest responses, and tied values go
to the lower index; scans return ids ordered by (distance, id)
ascending, so tied distances go to the lower id. Ranking sorts the
distances in a narrowed dtype, the smallest unsigned type that holds
the bank's largest possible distance (2k sparse, k dense), which numpy
radix-sorts; ids and distances are the same as a sort of the uint32
distances.

Codes are checked where they enter a bank: 1 <= k <= m, and every
sparse row strictly ascending and below m.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import KOutOfRange, ShapeMismatch
from .hashers import (DenseHashCode, SparseHashCode, check_sparse_rows, load_codes,
                      pack_signs, save_codes)

_POPCOUNT = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)


@dataclass
class RankedRetrieval:
    """Database ids ordered by ascending Hamming distance (ties by id)."""

    ids: np.ndarray
    distances: np.ndarray
    query_id: Optional[int] = None


@dataclass
class CodeBank:
    """Homogeneous collection of codes addressed by 0-based record id."""

    kind: str  # "sparse" | "dense"
    m: int
    k: int
    codes: np.ndarray  # sparse: (n, k) u32 ascending; dense: (n, k) int8 signs
    packed: np.ndarray = field(init=False, default=None, repr=False)

    def __post_init__(self):
        self.codes = np.atleast_2d(self.codes)
        if self.codes.shape[1] != self.k:
            raise ShapeMismatch(f"codes have width {self.codes.shape[1]}, k={self.k}")
        if not 1 <= self.k <= self.m:
            raise KOutOfRange(f"k={self.k} outside [1, m={self.m}]")
        if self.kind == "dense":
            self.packed = pack_signs(self.codes)
        elif self.kind == "sparse":
            self.codes = np.ascontiguousarray(self.codes, dtype=np.uint32)
            check_sparse_rows(self.codes, self.m)
            # inverted index: which records contain each hash index
            flat = self.codes.ravel()
            order = np.argsort(flat, kind="stable")
            self._members = (order // self.k).astype(np.uint32)
            counts = np.bincount(flat, minlength=self.m)
            self._starts = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        else:
            raise ValueError(f"unknown code kind {self.kind!r}")

    @property
    def size(self) -> int:
        return self.codes.shape[0]

    def record(self, i: int):
        if self.kind == "sparse":
            return SparseHashCode(self.m, self.k, self.codes[i])
        return DenseHashCode(self.k, self.codes[i])

    def save(self, path):
        save_codes(path, self.codes, self.m, self.kind)

    @classmethod
    def load(cls, path) -> "CodeBank":
        codes, m, kind = load_codes(path)
        return cls(kind, m, codes.shape[1], codes)


# --------------------------------------------------------------- distances

def hamming_sparse(a: SparseHashCode, b: SparseHashCode) -> int:
    """2 * (k - |intersection|) via one merge pass over the sorted indices."""
    if a.m != b.m or a.k != b.k:
        raise ShapeMismatch(f"(m={a.m}, k={a.k}) vs (m={b.m}, k={b.k})")
    ai = bi = inter = 0
    av, bv = a.active, b.active
    while ai < a.k and bi < b.k:
        if av[ai] == bv[bi]:
            inter += 1
            ai += 1
            bi += 1
        elif av[ai] < bv[bi]:
            ai += 1
        else:
            bi += 1
    return 2 * (a.k - inter)


def hamming_dense(a: DenseHashCode, b: DenseHashCode) -> int:
    """Differing-position count via bit-packed XOR and popcount."""
    if a.k != b.k:
        raise ShapeMismatch(f"k={a.k} vs k={b.k}")
    xa = pack_signs(a.bits)[0]
    xb = pack_signs(b.bits)[0]
    return int(_POPCOUNT[np.bitwise_xor(xa, xb)].sum())


def _scan_distances_sparse(bank: CodeBank, active: np.ndarray) -> np.ndarray:
    # walk the query's k posting lists; records never seen keep count 0
    inter = np.zeros(bank.size, dtype=np.int32)
    for v in active:
        members = bank._members[bank._starts[v]:bank._starts[v + 1]]
        inter[members] += 1
    return (2 * (bank.k - inter)).astype(np.uint32)


def _scan_distances_dense(bank: CodeBank, bits: np.ndarray) -> np.ndarray:
    q = pack_signs(bits)[0]
    diff = np.bitwise_xor(bank.packed, q[None, :])
    return _POPCOUNT[diff].sum(axis=1, dtype=np.uint32)


def scan_distances(bank: CodeBank, query) -> np.ndarray:
    """Hamming distance from one query code to every bank record."""
    if bank.kind == "sparse":
        if not isinstance(query, SparseHashCode):
            raise ShapeMismatch("sparse bank needs a SparseHashCode query")
        if query.m != bank.m or query.k != bank.k:
            raise ShapeMismatch(f"query (m={query.m}, k={query.k}) vs bank "
                                f"(m={bank.m}, k={bank.k})")
        return _scan_distances_sparse(bank, query.active)
    if not isinstance(query, DenseHashCode):
        raise ShapeMismatch("dense bank needs a DenseHashCode query")
    if query.k != bank.k:
        raise ShapeMismatch(f"query k={query.k} vs bank k={bank.k}")
    return _scan_distances_dense(bank, query.bits)


def rank_ids(bank: CodeBank, dist: np.ndarray) -> np.ndarray:
    """Every record id ordered by ascending (distance, id).

    The sort key is the distance narrowed to the smallest unsigned dtype
    that holds the bank's largest possible distance (2k sparse, k dense),
    known from k alone; numpy's stable argsort radix-sorts 8- and 16-bit
    keys.
    """
    top = 2 * bank.k if bank.kind == "sparse" else bank.k
    return np.argsort(dist.astype(np.min_scalar_type(top)), kind="stable")


def linear_scan(query, bank: CodeBank, top_r: Optional[int] = None,
                query_id: Optional[int] = None) -> RankedRetrieval:
    """Exact scan over the whole bank; self-matches are not excluded here.
    top_r None keeps the whole ranking; otherwise it must be >= 1."""
    if top_r is not None and top_r < 1:
        raise ValueError(f"top_r must be >= 1, got {top_r}")
    dist = scan_distances(bank, query)
    order = rank_ids(bank, dist)
    if top_r is not None:
        order = order[:top_r]
    return RankedRetrieval(order.astype(np.uint32), dist[order], query_id)


def storage_bits(bank: CodeBank) -> int:
    """Bits per stored record: k * ceil(log2 m) sparse, k dense."""
    if bank.kind == "dense":
        return bank.k
    return bank.k * max(1, (bank.m - 1).bit_length())


def export_results_csv(path, retrievals):
    """One row per retrieved id: query_id, rank, db_id, distance."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["query_id", "rank", "db_id", "distance"])
        for rr in retrievals:
            qid = rr.query_id if rr.query_id is not None else ""
            for rank, (db_id, dist) in enumerate(zip(rr.ids, rr.distances), start=1):
                writer.writerow([qid, rank, int(db_id), int(dist)])
