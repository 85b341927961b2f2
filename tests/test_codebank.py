"""Code storage, Hamming distances, and exact linear scan."""

import csv
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biohash import codebank
from biohash.codebank import (CodeBank, export_results_csv, linear_scan, scan_distances,
                              storage_bits)
from biohash.errors import KOutOfRange, MalformedCode, ShapeMismatch
from biohash.hashers import DenseHashCode, SparseHashCode, pack_signs
from biohash.seeds import substream

_POPCOUNT = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)


def hamming_sparse(a: SparseHashCode, b: SparseHashCode) -> int:
    """Reference: 2 * (k - |intersection|) via one merge pass over the sorted indices."""
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
    """Reference: differing-position count via byte-packed XOR and a popcount table."""
    if a.k != b.k:
        raise ShapeMismatch(f"k={a.k} vs k={b.k}")
    xa = pack_signs(a.bits)[0]
    xb = pack_signs(b.bits)[0]
    return int(_POPCOUNT[np.bitwise_xor(xa, xb)].sum())


def sparse(m, active):
    active = np.asarray(active)
    return SparseHashCode(m, active.size, active)


class TestHammingSparse:
    def test_identical_is_zero(self):
        assert hamming_sparse(sparse(8, [1, 3]), sparse(8, [1, 3])) == 0

    def test_hand_overlap(self):
        assert hamming_sparse(sparse(8, [1, 3]), sparse(8, [3, 5])) == 2

    def test_disjoint_supports_max_out(self):
        assert hamming_sparse(sparse(8, [0, 1]), sparse(8, [2, 3])) == 4

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            hamming_sparse(sparse(8, [0, 1]), sparse(9, [0, 1]))
        with pytest.raises(ShapeMismatch):
            hamming_sparse(sparse(8, [0, 1]), sparse(8, [0, 1, 2]))


class TestHammingDense:
    def test_identical_is_zero(self):
        a = DenseHashCode(3, [1, -1, 1])
        assert hamming_dense(a, a) == 0

    def test_single_flip(self):
        assert hamming_dense(DenseHashCode(2, [1, -1]),
                             DenseHashCode(2, [-1, -1])) == 1

    def test_complement_codes(self):
        bits = np.array([1, -1, 1, 1, -1])
        assert hamming_dense(DenseHashCode(5, bits),
                             DenseHashCode(5, -bits)) == 5

    def test_length_mismatch(self):
        with pytest.raises(ShapeMismatch):
            hamming_dense(DenseHashCode(2, [1, 1]), DenseHashCode(3, [1, 1, 1]))


class TestSparseDenseEquivalence:
    def test_exhaustive_small_m(self):
        """Sparse merge distance equals dense distance on expanded codes,
        for every pair of k-subsets at several small (m, k)."""
        for m, k in [(6, 2), (8, 3), (10, 1)]:
            combos = list(itertools.combinations(range(m), k))
            for a_idx in combos:
                a = sparse(m, list(a_idx))
                ad = DenseHashCode(m, a.dense())
                for b_idx in combos:
                    b = sparse(m, list(b_idx))
                    bd = DenseHashCode(m, b.dense())
                    assert hamming_sparse(a, b) == hamming_dense(ad, bd)

    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_random_codes_up_to_m16(self, seed):
        rng = substream(seed, "eq")
        m = int(rng.integers(2, 17))
        k = int(rng.integers(1, m + 1))
        a_idx = np.sort(rng.choice(m, size=k, replace=False))
        b_idx = np.sort(rng.choice(m, size=k, replace=False))
        a, b = sparse(m, a_idx), sparse(m, b_idx)
        expected = hamming_dense(DenseHashCode(m, a.dense()),
                                 DenseHashCode(m, b.dense()))
        assert hamming_sparse(a, b) == expected


class TestMetricAxioms:
    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_symmetry_identity_triangle(self, seed):
        rng = substream(seed, "axiom")
        m, k = 12, 4
        idx = [np.sort(rng.choice(m, size=k, replace=False)) for _ in range(3)]
        a, b, c = (sparse(m, i) for i in idx)
        assert hamming_sparse(a, b) == hamming_sparse(b, a)
        assert hamming_sparse(a, a) == 0
        assert (hamming_sparse(a, c)
                <= hamming_sparse(a, b) + hamming_sparse(b, c))
        if not np.array_equal(a.active, b.active):
            assert hamming_sparse(a, b) > 0


class TestCodeBank:
    def test_rejects_wrong_width(self):
        with pytest.raises(ShapeMismatch):
            CodeBank("sparse", 8, 3, np.array([[0, 1]], dtype=np.uint32))

    def test_rejects_k_above_m(self):
        with pytest.raises(KOutOfRange):
            CodeBank("sparse", 2, 3, np.array([[0, 1, 2]], dtype=np.uint32))

    def test_rejects_repeated_index(self):
        with pytest.raises(MalformedCode):
            CodeBank("sparse", 4, 2, np.array([[0, 3], [1, 1]], dtype=np.uint32))

    def test_rejects_index_out_of_range(self):
        with pytest.raises(MalformedCode):
            CodeBank("sparse", 4, 2, np.array([[0, 3], [2, 9]], dtype=np.uint32))

    def test_rejects_descending_row(self):
        with pytest.raises(MalformedCode):
            CodeBank("sparse", 4, 2, np.array([[3, 0]], dtype=np.uint32))

    @pytest.mark.parametrize("bad", [0, 5, 2, -2])
    def test_dense_rejects_values_outside_signs(self, bad):
        codes = np.array([[1, -1, 1], [1, bad, -1]])
        with pytest.raises(MalformedCode):
            CodeBank("dense", 3, 3, codes)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            CodeBank("tern", 8, 2, np.array([[0, 1]], dtype=np.uint32))

    def test_record_roundtrip(self):
        bank = CodeBank("sparse", 8, 2, np.array([[0, 3], [2, 5]],
                                                 dtype=np.uint32))
        rec = bank.record(1)
        np.testing.assert_array_equal(rec.active, [2, 5])

    def test_save_load(self, tmp_path):
        bank = CodeBank("sparse", 8, 2, np.array([[0, 3], [2, 5]],
                                                 dtype=np.uint32))
        path = tmp_path / "bank.bhc1"
        bank.save(path)
        back = CodeBank.load(path)
        assert back.kind == "sparse"
        assert back.m == 8
        np.testing.assert_array_equal(back.codes, bank.codes)


class TestPostingLists:
    @pytest.mark.parametrize("m", [16, 640, 7840, 70000])
    def test_same_as_uint32_argsort(self, m):
        # m = 70000 keeps uint32 keys; the others sort 8- or 16-bit keys
        rng = substream(m, "postings")
        k = 8
        # half the records share a few units, so posting lists are long and
        # their order tests stability; half spread over every unit, so a
        # key dtype narrower than m would wrap and reorder them
        few = rng.choice(m, size=min(m, 2 * k), replace=False)
        codes = np.sort(np.stack([rng.choice(few, size=k, replace=False) for _ in range(150)]
                                 + [rng.choice(m, size=k, replace=False) for _ in range(150)]),
                        axis=1)
        bank = CodeBank("sparse", m, k, codes.astype(np.uint32))
        flat = bank.codes.ravel()
        order = np.argsort(flat, kind="stable")
        np.testing.assert_array_equal(bank._members, order // k)
        np.testing.assert_array_equal(
            bank._starts, np.concatenate([[0], np.cumsum(np.bincount(flat, minlength=m))]))


class TestKeyDtype:
    @pytest.mark.parametrize("top", [1, 2, 3, 64, 2 * 7840])
    def test_uint32_up_to_the_boundary(self, top):
        # the largest key is (top + 1) * n - 1; top 1 and 3 divide 2**32
        n = 2 ** 32 // (top + 1)
        assert codebank.key_dtype(n, top) == np.uint32
        assert codebank.key_dtype(n + 1, top) == np.uint64

    def test_uint64_keys_select_exactly(self, monkeypatch):
        # force the wide dtype on a small bank: the ranking must not change
        codes = np.array([[0, 2], [0, 2], [0, 1], [1, 3], [2, 3]], dtype=np.uint32)
        q = sparse(6, [0, 1])
        want = linear_scan(q, CodeBank("sparse", 6, 2, codes))
        monkeypatch.setattr(codebank, "key_dtype", lambda n, top: np.dtype(np.uint64))
        bank = CodeBank("sparse", 6, 2, codes)
        assert bank._key_ids.dtype == np.uint64
        for top_r in (1, 2, 3, 4):
            rr = linear_scan(q, bank, top_r=top_r)
            assert rr.ids.dtype == rr.distances.dtype == np.uint32
            np.testing.assert_array_equal(rr.ids, want.ids[:top_r])
            np.testing.assert_array_equal(rr.distances, want.distances[:top_r])


class TestScanDistances:
    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_sparse_scan_matches_pairwise(self, seed):
        rng = substream(seed, "scan")
        m, k, n = 10, 3, 20
        codes = np.stack([np.sort(rng.choice(m, size=k, replace=False))
                          for _ in range(n)]).astype(np.uint32)
        bank = CodeBank("sparse", m, k, codes)
        q = sparse(m, np.sort(rng.choice(m, size=k, replace=False)))
        dist = scan_distances(bank, q)
        expected = [hamming_sparse(q, bank.record(i)) for i in range(n)]
        np.testing.assert_array_equal(dist, expected)

    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_dense_scan_matches_pairwise(self, seed):
        rng = substream(seed, "dscan")
        k, n = 11, 15
        codes = np.where(rng.random((n, k)) > 0.5, 1, -1).astype(np.int8)
        bank = CodeBank("dense", k, k, codes)
        q = DenseHashCode(k, np.where(rng.random(k) > 0.5, 1, -1))
        dist = scan_distances(bank, q)
        expected = [hamming_dense(q, bank.record(i)) for i in range(n)]
        np.testing.assert_array_equal(dist, expected)

    def test_kind_mismatch_rejected(self):
        bank = CodeBank("sparse", 8, 2, np.array([[0, 1]], dtype=np.uint32))
        with pytest.raises(ShapeMismatch):
            scan_distances(bank, DenseHashCode(2, [1, -1]))


POPCOUNTS = [pytest.param("_popcount_words", marks=pytest.mark.skipif(
                 not hasattr(np, "bitwise_count"), reason="np.bitwise_count needs numpy >= 2")),
             "_popcount_table"]


def reference_ranking(q, bank, hamming):
    dist = np.array([hamming(q, bank.record(i)) for i in range(bank.size)])
    order = np.lexsort((np.arange(bank.size), dist))
    return dist, order


class TestScanMatchesReference:
    """The scan kernels against the pairwise references and a (distance, id)
    lexsort, on small banks where distances tie often."""

    @given(st.integers(min_value=1, max_value=12), st.integers(min_value=1, max_value=12),
           st.integers(min_value=1, max_value=25), st.integers(min_value=1, max_value=12),
           st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_sparse(self, m, k, n, used, seed):
        k = min(k, m)
        # records draw from the first `used` units only (at least k), so the
        # remaining units have empty posting lists; n = 1 is a one-row bank
        used = min(max(used, k), m)
        rng = substream(seed, "scanref")
        codes = np.stack([np.sort(rng.choice(used, size=k, replace=False))
                          for _ in range(n)]).astype(np.uint32)
        bank = CodeBank("sparse", m, k, codes)
        q = sparse(m, np.sort(rng.choice(m, size=k, replace=False)))
        self._check(q, bank, hamming_sparse, rng)

    @pytest.mark.parametrize("popcount", POPCOUNTS)
    @pytest.mark.parametrize("k", [1, 7, 8, 63, 64, 65, 130])
    @given(st.integers(min_value=1, max_value=30), st.integers(min_value=1, max_value=4),
           st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_dense(self, popcount, k, n, pool, seed):
        rng = substream(seed, "dscanref")
        # rows repeat from a small pool and differ from it in a few signs,
        # so many records share a distance
        base = np.where(rng.random((pool, k)) > 0.5, 1, -1).astype(np.int8)
        codes = base[rng.integers(0, pool, n)]
        codes[rng.random((n, k)) < 2 / k] *= -1
        q = DenseHashCode(k, base[0] if rng.random() < 0.5 else
                          np.where(rng.random(k) > 0.5, 1, -1))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(codebank, "_popcount_rows", getattr(codebank, popcount))
            bank = CodeBank("dense", k, k, codes)
            self._check(q, bank, hamming_dense, rng)

    @staticmethod
    def _check(q, bank, hamming, rng):
        dist, order = reference_ranking(q, bank, hamming)
        got = scan_distances(bank, q)
        assert got.dtype == np.uint32
        np.testing.assert_array_equal(got, dist)
        rr = linear_scan(q, bank)
        np.testing.assert_array_equal(rr.ids, order)
        np.testing.assert_array_equal(rr.distances, dist[order])
        # below n the ranking is cut by key selection, from n on it is sorted
        n = bank.size
        for top_r in {int(rng.integers(1, n + 1)), 1, n - 1, n, n + 5} - {0}:
            rr = linear_scan(q, bank, top_r=top_r)
            assert rr.ids.dtype == rr.distances.dtype == np.uint32
            np.testing.assert_array_equal(rr.ids, order[:top_r])
            np.testing.assert_array_equal(rr.distances, dist[order[:top_r]])


class TestLinearScan:
    def bank_with_distances_4_0_2(self):
        # query {0,1}; records at distance 4, 0, 2
        codes = np.array([[2, 3], [0, 1], [1, 2]], dtype=np.uint32)
        return CodeBank("sparse", 6, 2, codes), sparse(6, [0, 1])

    def test_hand_ordering(self):
        bank, q = self.bank_with_distances_4_0_2()
        rr = linear_scan(q, bank)
        np.testing.assert_array_equal(rr.ids, [1, 2, 0])
        np.testing.assert_array_equal(rr.distances, [0, 2, 4])

    def test_own_code_ranks_first(self):
        bank, q = self.bank_with_distances_4_0_2()
        rr = linear_scan(q, bank, top_r=1)
        assert rr.ids[0] == 1
        assert rr.distances[0] == 0

    def test_top_r_truncates_and_oversized_is_full(self):
        bank, q = self.bank_with_distances_4_0_2()
        assert linear_scan(q, bank, top_r=2).ids.size == 2
        assert linear_scan(q, bank, top_r=99).ids.size == 3

    @pytest.mark.parametrize("top_r", [0, -1])
    def test_top_r_below_one_rejected(self, top_r):
        bank, q = self.bank_with_distances_4_0_2()
        with pytest.raises(ValueError):
            linear_scan(q, bank, top_r=top_r)

    def test_ties_break_by_ascending_id(self):
        codes = np.array([[0, 2], [0, 2], [0, 1]], dtype=np.uint32)
        bank = CodeBank("sparse", 6, 2, codes)
        rr = linear_scan(sparse(6, [0, 1]), bank)
        np.testing.assert_array_equal(rr.ids, [2, 0, 1])

    def test_query_id_carried(self):
        bank, q = self.bank_with_distances_4_0_2()
        assert linear_scan(q, bank, query_id=7).query_id == 7


class TestStorageBits:
    def test_sparse_examples(self):
        codes = np.array([[0, 1]], dtype=np.uint32)
        assert storage_bits(CodeBank("sparse", 40, 2, codes)) == 12
        assert storage_bits(CodeBank("sparse", 400, 2, codes)) == 18

    def test_dense_is_k(self):
        codes = np.ones((1, 16), dtype=np.int8)
        assert storage_bits(CodeBank("dense", 16, 16, codes)) == 16


class TestExportCsv:
    def test_rows_and_header(self, tmp_path):
        codes = np.array([[0, 1], [2, 3]], dtype=np.uint32)
        bank = CodeBank("sparse", 6, 2, codes)
        rr = linear_scan(sparse(6, [0, 1]), bank, query_id=5)
        path = tmp_path / "out.csv"
        export_results_csv(path, [rr])
        with open(path) as f:
            got = list(csv.reader(f))
        assert got[0] == ["query_id", "rank", "db_id", "distance"]
        assert got[1] == ["5", "1", "0", "0"]
        assert got[2] == ["5", "2", "1", "4"]
