"""Compact code storage and exact linear-scan retrieval.

Sparse codes are (n, k) ascending index rows; the Hamming distance
between two such codes is 2 * (k - |intersection|), computed without
expanding to dense form. The bank keeps an inverted index (the records
holding each unit), and a scan counts every record's intersection with
one `np.bincount` over the query's k posting lists laid end to end.

Dense codes are bit-packed (bit j of byte b is sign 8b + j, 1 for +1)
and zero-padded to whole 64-bit words, one row of ceil(k / 64) words per
record. A scan XORs the query, packed the same way, into every row and
counts the set bits with `np.bitwise_count` (numpy >= 2), summing over
words only when k > 64; on older numpy, chosen once at import, a
256-entry table counts them byte by byte. Padding bits are zero on both
sides, so they never count.

Tie contract: encoding keeps the k largest responses, and tied values go
to the lower index; rankings order ids by (distance, id) ascending, so
tied distances go to the lower id. `ranked_ids` is the one ranking rule:
`linear_scan`, `evaluate_queries` and the command-line search all cut
their rankings through it. A full ranking sorts the distances in a
narrowed dtype, the smallest unsigned type that holds the bank's largest
possible distance `top` (2k sparse, k dense), which numpy radix-sorts;
the order is the same as a sort of the uint32 distances. A ranking cut
to its first r records (r < n, or r + 1 when the query's own id is
dropped) packs each record into one key, distance * n + id, in uint32
when (top + 1) * n fits and uint64 otherwise, takes the r smallest keys
with `np.partition`, sorts only those and decodes id = key % n. Keys are
distinct and order as (distance, id) does, so the cut is exactly the
first r entries of the full ranking, ties included.

`CodeBank.code` is the one constructor of a query code from a code row:
it builds the `SparseHashCode` or `DenseHashCode` of the bank's kind, m
and k. Codes are checked where they enter a bank or a query:
1 <= k <= m, every sparse row strictly ascending and below m, every
dense value -1 or +1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import KOutOfRange, ShapeMismatch
from .hashers import (DenseHashCode, SparseHashCode, check_sign_rows, check_sparse_rows,
                      load_codes, pack_signs, save_codes)

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
    words: np.ndarray = field(init=False, default=None, repr=False)

    def __post_init__(self):
        self.codes = np.atleast_2d(self.codes)
        if self.codes.shape[1] != self.k:
            raise ShapeMismatch(f"codes have width {self.codes.shape[1]}, k={self.k}")
        if not 1 <= self.k <= self.m:
            raise KOutOfRange(f"k={self.k} outside [1, m={self.m}]")
        if self.kind == "dense":
            check_sign_rows(self.codes)
            # word-major, so that summing over words adds whole columns
            self.words = np.asfortranarray(_pack_words(self.codes))
        elif self.kind == "sparse":
            self.codes = np.ascontiguousarray(self.codes, dtype=np.uint32)
            check_sparse_rows(self.codes, self.m)
            # inverted index: which records contain each hash index, as
            # intp so that bincount reads the ids without converting them
            flat = self.codes.ravel()
            # narrowed like the distances in `ranked_ids`: numpy radix-sorts
            # 8- and 16-bit keys, and the stable order is the same
            order = np.argsort(flat.astype(np.min_scalar_type(self.m - 1), copy=False),
                               kind="stable")
            self._members = order // self.k
            counts = np.bincount(flat, minlength=self.m)
            self._starts = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        else:
            raise ValueError(f"unknown code kind {self.kind!r}")

    @property
    def size(self) -> int:
        return self.codes.shape[0]

    @property
    def top(self) -> int:
        """The largest possible distance: 2k sparse, k dense."""
        return 2 * self.k if self.kind == "sparse" else self.k

    @cached_property
    def _key_ids(self) -> np.ndarray:
        """Record ids 0..n-1 in the key dtype of a cut ranking."""
        return np.arange(self.size, dtype=key_dtype(self.size, self.top))

    def code(self, row):
        """The query code of one code row, of this bank's kind, m and k."""
        if self.kind == "sparse":
            return SparseHashCode(self.m, self.k, row)
        return DenseHashCode(self.k, row)

    def save(self, path):
        save_codes(path, self.codes, self.m, self.kind)

    @classmethod
    def load(cls, path) -> "CodeBank":
        codes, m, kind = load_codes(path)
        return cls(kind, m, codes.shape[1], codes)


# --------------------------------------------------------------- distances

def _pack_words(bits: np.ndarray) -> np.ndarray:
    """Rows of {-1, +1} as (n, ceil(k / 64)) uint64 words, padding bits zero."""
    packed = pack_signs(bits)
    n, nbytes = packed.shape
    out = np.zeros((n, -(-nbytes // 8) * 8), dtype=np.uint8)
    out[:, :nbytes] = packed
    return out.view(np.uint64)


def _popcount_words(x: np.ndarray, k: int) -> np.ndarray:
    """Set bits per row of the (n, ceil(k / 64)) uint64 words, as uint32."""
    counts = np.bitwise_count(x)
    if k <= 64:
        return counts[:, 0].astype(np.uint32)
    return counts.sum(axis=1, dtype=np.uint32)


def _popcount_table(x: np.ndarray, k: int) -> np.ndarray:
    """`_popcount_words` for numpy < 2: a table lookup per byte that holds
    code bits, added up one byte column at a time (a sum along the short
    byte axis costs more than the lookups); whole padding bytes are skipped."""
    as_bytes = np.ascontiguousarray(x).view(np.uint8)
    out = np.zeros(x.shape[0], dtype=np.uint32)
    for j in range((k + 7) // 8):
        out += _POPCOUNT[as_bytes[:, j]]
    return out


_popcount_rows = _popcount_words if hasattr(np, "bitwise_count") else _popcount_table


def _scan_distances_sparse(bank: CodeBank, active: np.ndarray) -> np.ndarray:
    # a record's count is how many of the query's posting lists hold it;
    # records in none of them keep count 0
    starts = bank._starts
    hits = np.concatenate([bank._members[a:b] for a, b in
                           zip(starts[active].tolist(), starts[active + 1].tolist())])
    inter = np.bincount(hits, minlength=bank.size).astype(np.uint32)
    return 2 * (np.uint32(bank.k) - inter)


def _scan_distances_dense(bank: CodeBank, bits: np.ndarray) -> np.ndarray:
    return _popcount_rows(bank.words ^ _pack_words(bits)[0], bank.k)


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


def key_dtype(n: int, top: int) -> np.dtype:
    """uint32 when every key distance * n + id (distance <= top, id < n)
    fits in it, that is (top + 1) * n <= 2**32; uint64 otherwise."""
    return np.dtype(np.uint32 if (top + 1) * n <= 2 ** 32 else np.uint64)


def _select_ids(bank: CodeBank, dist: np.ndarray, r: int) -> np.ndarray:
    """The first r (1 <= r < n) ids of the (distance, id) order: the r
    smallest keys distance * n + id, sorted and decoded."""
    record = bank._key_ids
    n = record.dtype.type(bank.size)
    keys = np.multiply(dist, n, dtype=record.dtype)
    keys += record
    keys = np.partition(keys, r - 1)[:r]
    keys.sort()
    return keys % n


def ranked_ids(bank: CodeBank, dist: np.ndarray, r: Optional[int] = None,
               own: int = -1) -> np.ndarray:
    """Ids of the first r records (all when r is None) of the (distance, id)
    order of the scan `dist`, with record `own` dropped when it is >= 0.

    A cut shorter than the bank selects r records (r + 1 when `own` is
    dropped) by packed key; otherwise the distances, narrowed to the
    smallest unsigned dtype that holds `bank.top`, are stable-sorted.
    """
    n = bank.size
    take = n if r is None else r + (own >= 0)
    if take < n:
        ids = _select_ids(bank, dist, take)
    else:
        ids = np.argsort(dist.astype(np.min_scalar_type(bank.top)), kind="stable")
    if own >= 0:
        ids = ids[ids != own][:r]
    return ids


def linear_scan(query, bank: CodeBank, top_r: Optional[int] = None,
                query_id: Optional[int] = None) -> RankedRetrieval:
    """Exact scan over the whole bank; self-matches are not excluded here.
    top_r None keeps the whole ranking; otherwise it must be >= 1."""
    if top_r is not None and top_r < 1:
        raise ValueError(f"top_r must be >= 1, got {top_r}")
    dist = scan_distances(bank, query)
    ids = ranked_ids(bank, dist, top_r)
    return RankedRetrieval(ids.astype(np.uint32, copy=False), dist.take(ids), query_id)


def storage_bits(bank: CodeBank) -> int:
    """Bits per stored record: k * ceil(log2 m) sparse, k dense."""
    if bank.kind == "dense":
        return bank.k
    return bank.k * max(1, (bank.m - 1).bit_length())


def export_results_csv(path, retrievals):
    """One row per retrieved id: query_id, rank, db_id, distance, in the
    bytes `csv.writer` writes (CRLF line ends, an empty query_id for None);
    each retrieval is formatted by one string operation."""
    with open(path, "w", newline="") as f:
        f.write("query_id,rank,db_id,distance\r\n")
        for rr in retrievals:
            qid = "" if rr.query_id is None else rr.query_id
            rows = np.column_stack([np.arange(1, len(rr.ids) + 1), rr.ids, rr.distances])
            f.write((f"{qid},%d,%d,%d\r\n" * len(rows)) % tuple(rows.ravel().tolist()))
