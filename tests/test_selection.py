"""The partition-based selection kernel and the narrowed-dtype ranking,
checked against the full stable argsorts they replaced.

Inputs are small-integer matrices, so most rows hold many ties: the cases
where a partition alone picks the wrong members or order.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from biohash.codebank import CodeBank, linear_scan, scan_distances
from biohash.convnet import channel_inhibit
from biohash.evalbench import ground_truth_knn
from biohash.hashers import DenseHashCode, SparseHashCode, topk_rows
from biohash.plasticity import _rank_indices

# ------------------------------------------------------------- references


def topk_reference(R, k):
    order = np.argsort(-R, axis=1, kind="stable")[:, :k]
    return np.sort(order, axis=1).astype(np.uint32)


def inhibit_reference(vol, k_ci):
    flat = vol.reshape(-1, vol.shape[-1])
    out = np.zeros_like(flat)
    for r in range(flat.shape[0]):
        keep = np.argsort(-flat[r], kind="stable")[:k_ci]
        out[r, keep] = flat[r, keep]
    return out.reshape(vol.shape)


def rank_reference(R, rank_r):
    order = np.argsort(-R, axis=1, kind="stable")
    return order[:, 0], order[:, rank_r - 1]


def knn_reference(X, Q, N, metric, query_db_ids, chunk):
    # same chunking as the kernel version: a matrix product's rounding can
    # depend on how many query rows it holds
    if metric == "euclidean":
        xs = (X * X).sum(axis=1)
    else:
        Xn = X / np.maximum(np.linalg.norm(X, axis=1), 1e-300)[:, None]
    relevant = []
    for start in range(0, Q.shape[0], chunk):
        qb = Q[start:start + chunk]
        if metric == "euclidean":
            dist = xs[None, :] - 2.0 * (qb @ X.T)
        else:
            qn = qb / np.maximum(np.linalg.norm(qb, axis=1), 1e-300)[:, None]
            dist = -(qn @ Xn.T)
        for row in range(qb.shape[0]):
            drow = dist[row]
            if query_db_ids is not None and query_db_ids[start + row] >= 0:
                drow = drow.copy()
                drow[query_db_ids[start + row]] = np.inf
            relevant.append(np.argsort(drow, kind="stable")[:N].astype(np.int64))
    return relevant


def scan_reference(dist, top_r):
    order = np.argsort(dist, kind="stable")[:top_r]
    return order.astype(np.uint32), dist[order]


# ------------------------------------------------------------- strategies

def tied_matrices(max_rows=6, max_cols=12, dtypes=(np.float64, np.float32, np.int64)):
    """Small matrices over the values -2..2, so nearly every row has ties."""
    shapes = st.tuples(st.integers(1, max_rows), st.integers(1, max_cols))
    return st.tuples(shapes, st.sampled_from(dtypes)).flatmap(
        lambda sd: hnp.arrays(sd[1], sd[0], elements=st.integers(-2, 2)))


# ------------------------------------------------------------------ tests

class TestTopkRows:
    @given(tied_matrices())
    @settings(max_examples=200, deadline=None)
    def test_matches_argsort_for_every_k(self, R):
        for k in range(1, R.shape[1] + 1):
            got = topk_rows(R, k)
            assert got.dtype == np.uint32
            np.testing.assert_array_equal(got, topk_reference(R, k))

    @given(tied_matrices(max_rows=40, max_cols=60))
    @settings(max_examples=30, deadline=None)
    def test_matches_argsort_on_wider_rows(self, R):
        for k in {1, min(2, R.shape[1]), R.shape[1] // 3 + 1, R.shape[1]}:
            np.testing.assert_array_equal(topk_rows(R, k), topk_reference(R, k))


class TestChannelInhibit:
    @given(tied_matrices(max_rows=12, max_cols=8, dtypes=(np.float64, np.float32)),
           st.integers(1, 5))
    @settings(max_examples=100, deadline=None)
    def test_matches_argsort_for_every_k(self, flat, row_chunk):
        vol = flat.reshape(flat.shape[0], 1, flat.shape[1])
        for k_ci in range(1, flat.shape[1] + 1):
            np.testing.assert_array_equal(channel_inhibit(vol, k_ci, row_chunk=row_chunk),
                                          inhibit_reference(vol, k_ci))


class TestRankIndices:
    @given(tied_matrices(max_rows=8, max_cols=10, dtypes=(np.float64,)))
    @settings(max_examples=200, deadline=None)
    def test_delta_path_matches_argsort(self, R):
        for rank_r in range(2, R.shape[1] + 1):
            win, rth = _rank_indices(R, rank_r, need_rth=True)
            ref_win, ref_rth = rank_reference(R, rank_r)
            np.testing.assert_array_equal(win, ref_win)
            np.testing.assert_array_equal(rth, ref_rth)


class TestGroundTruthKnn:
    @given(tied_matrices(max_rows=9, max_cols=3, dtypes=(np.float64,)),
           st.integers(1, 12), st.sampled_from(["euclidean", "cosine"]),
           st.booleans(), st.integers(1, 4))
    @settings(max_examples=150, deadline=None)
    def test_matches_per_row_argsort(self, X, N, metric, self_query, chunk):
        # queries are the database itself (own row excluded, some -1) or
        # the reversed rows with no exclusion; N may exceed the bank
        if self_query:
            Q = X
            own = np.arange(X.shape[0])
            own[::3] = -1
        else:
            Q, own = X[::-1].copy(), None
        got = ground_truth_knn(X, Q, N, metric, query_db_ids=own, chunk=chunk).relevant
        ref = knn_reference(X, Q, N, metric, own, chunk)
        assert len(got) == len(ref)
        for g, r in zip(got, ref):
            assert g.dtype == np.int64
            np.testing.assert_array_equal(g, r)


def sparse_codes(rng, n, m, k):
    return np.stack([np.sort(rng.choice(m, size=k, replace=False))
                     for _ in range(n)]).astype(np.uint32)


class TestNarrowedRanking:
    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from([1, 2, 3, 5, 127, 128, 140]),
           st.integers(1, 40), st.sampled_from([None, 1, 7, 100]))
    @settings(max_examples=100, deadline=None)
    def test_sparse_scan_matches_argsort(self, seed, k, n, top_r):
        # the largest distance 2k needs 8-bit keys up to k=127, 16-bit above
        rng = np.random.default_rng(seed)
        m = k + int(rng.integers(0, 4))  # small m: many equal distances
        bank = CodeBank("sparse", m, k, sparse_codes(rng, n, m, k))
        query = SparseHashCode(m, k, sparse_codes(rng, 1, m, k)[0])
        rr = linear_scan(query, bank, top_r=top_r)
        ids, dist = scan_reference(scan_distances(bank, query), top_r)
        np.testing.assert_array_equal(rr.ids, ids)
        np.testing.assert_array_equal(rr.distances, dist)
        assert rr.ids.dtype == np.uint32 and rr.distances.dtype == np.uint32

    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 300), st.integers(1, 40))
    @settings(max_examples=100, deadline=None)
    def test_dense_scan_matches_argsort(self, seed, k, n):
        # the largest distance k needs 8-bit keys up to k=255, 16-bit above
        rng = np.random.default_rng(seed)
        codes = np.where(rng.random((n, k)) > 0.5, 1, -1).astype(np.int8)
        bank = CodeBank("dense", k, k, codes)
        query = DenseHashCode(k, np.where(rng.random(k) > 0.5, 1, -1))
        rr = linear_scan(query, bank)
        ids, dist = scan_reference(scan_distances(bank, query), None)
        np.testing.assert_array_equal(rr.ids, ids)
        np.testing.assert_array_equal(rr.distances, dist)
