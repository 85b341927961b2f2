"""Retrieval scoring: ground truth, AP/mAP, smoothness, protocol runs."""

import gc
import json
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biohash import evalbench
from biohash.codebank import CodeBank, scan_distances
from biohash.datasets import DataSet, protocol_split
from biohash.errors import (DegenerateVariance, DimensionMismatch,
                            EmptyQuerySet, MissingLabels, TooFewPerClass)
from biohash.evalbench import (EvalReport, GroundTruth, _band_pearson,
                               _pair_cosines, _sample_pairs, activity_sweep,
                               ap_from_relevance, evaluate_queries,
                               format_table, ground_truth_knn, mean_ap,
                               run_protocol, smoothness_from_bank,
                               write_reports_jsonl)
from biohash.seeds import subseed, substream

from conftest import make_blobs


def ap_oracle(pattern, R):
    """Direct double-loop restatement of average precision."""
    pattern = [bool(b) for b in pattern][:R]
    n_rel = sum(pattern)
    if n_rel == 0:
        return 0.0
    total = 0.0
    for pos in range(len(pattern)):
        if pattern[pos]:
            hits_so_far = sum(pattern[:pos + 1])
            total += hits_so_far / (pos + 1)
    return total / n_rel


@pytest.fixture
def truth_calls(monkeypatch):
    """Empty the knn memo and count the truths actually computed; the
    count keeps no reference to the arguments."""
    calls = []
    compute = evalbench._knn_truth

    def counted(*args):
        calls.append(None)
        return compute(*args)

    monkeypatch.setattr(evalbench, "_last_truth", None)
    monkeypatch.setattr(evalbench, "_knn_truth", counted)
    return calls


class TestGroundTruthMemo:
    @staticmethod
    def inputs():
        rng = substream(14, "memo")
        return rng.normal(size=(40, 5)), rng.normal(size=(6, 5))

    def test_repeat_reuses_truth(self, truth_calls):
        db, q = self.inputs()
        first = ground_truth_knn(db, q, N=4)
        again = ground_truth_knn(db.copy(), q.copy(), N=4)
        assert len(truth_calls) == 1
        for a, b in zip(first.relevant, again.relevant):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("edit", ["database", "queries"])
    def test_in_place_edit_recomputes(self, truth_calls, edit):
        db, q = self.inputs()
        before = ground_truth_knn(db, q, N=3)
        target = db if edit == "database" else q
        # moves database row 0 onto query 0, or query 0 onto database row 0
        target[0] = q[0] if edit == "database" else db[0]
        after = ground_truth_knn(db, q, N=3)
        assert len(truth_calls) == 2
        assert after.relevant[0][0] == 0
        assert before.relevant[0][0] != 0

    @pytest.mark.parametrize("change", [dict(N=5), dict(metric="cosine"), dict(chunk=2),
                                        dict(query_db_ids=np.array([0, 1, -1, 3, 4, 5]))])
    def test_changed_argument_recomputes(self, truth_calls, change):
        db, q = self.inputs()
        ground_truth_knn(db, q, N=4)
        ground_truth_knn(db, q, **{"N": 4, **change})
        assert len(truth_calls) == 2

    def test_changed_exclusion_ids_recompute(self, truth_calls):
        db, _ = self.inputs()
        own = np.arange(db.shape[0])
        ground_truth_knn(db, db, N=2, query_db_ids=own)
        own[3] = -1
        gt = ground_truth_knn(db, db, N=2, query_db_ids=own)
        assert len(truth_calls) == 2
        assert gt.relevant[3][0] == 3

    @pytest.mark.parametrize("database", [np.ones((3, 2)), np.empty((0, 2))])
    def test_returned_arrays_are_read_only(self, truth_calls, database):
        gt = ground_truth_knn(database, np.ones((2, 2)), N=2)
        for r in gt.relevant:
            assert not r.flags.writeable
            with pytest.raises(ValueError):
                r[...] = 0

    def test_memo_holds_no_input(self, truth_calls):
        db, q = self.inputs()
        alive = weakref.ref(db)
        ground_truth_knn(db, q, N=3)
        del db
        gc.collect()
        assert alive() is None

    def test_baselines_share_one_truth(self, blobs, truth_calls, monkeypatch):
        methods = ("flyhash", "simhash", "pcahash")
        shared = [run_protocol(blobs, "mnist_euclid100", method, k=4, seed=2,
                               flyhash_m=60).map_percent for method in methods]
        assert len(truth_calls) == 1
        for method, got in zip(methods, shared):
            monkeypatch.setattr(evalbench, "_last_truth", None)
            alone = run_protocol(blobs, "mnist_euclid100", method, k=4, seed=2, flyhash_m=60)
            assert got == alone.map_percent
        assert len(truth_calls) == 1 + len(methods)


class TestApFromRelevance:
    def test_hand_pattern(self):
        np.testing.assert_allclose(ap_from_relevance([1, 0, 1], R=3),
                                   (1.0 + 2.0 / 3.0) / 2.0)

    def test_all_relevant_is_one(self):
        assert ap_from_relevance([1, 1, 1, 1], R=4) == 1.0

    def test_none_relevant_is_zero(self):
        assert ap_from_relevance([0, 0, 0], R=3) == 0.0

    def test_r_truncates(self):
        assert ap_from_relevance([0, 0, 1], R=2) == 0.0

    def test_r_none_uses_full_pattern(self):
        assert ap_from_relevance([0, 1]) == 0.5

    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force_oracle(self, seed):
        rng = substream(seed, "apo")
        n = int(rng.integers(1, 101))
        pattern = (rng.random(n) < 0.3).astype(int)
        R = int(rng.integers(1, n + 1))
        np.testing.assert_allclose(ap_from_relevance(pattern, R),
                                   ap_oracle(pattern, R), rtol=1e-12)

    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_promoting_a_relevant_item_never_hurts(self, seed):
        """Swapping a relevant item with an earlier irrelevant one can
        only raise AP when scoring the full pattern."""
        rng = substream(seed, "mono")
        n = int(rng.integers(3, 40))
        pattern = (rng.random(n) < 0.4).astype(int)
        rel_pos = np.flatnonzero(pattern)
        irr_pos = np.flatnonzero(pattern == 0)
        before = ap_from_relevance(pattern, R=n)
        pairs = [(i, j) for j in rel_pos for i in irr_pos if i < j]
        if not pairs:
            return
        i, j = pairs[int(rng.integers(0, len(pairs)))]
        swapped = pattern.copy()
        swapped[i], swapped[j] = pattern[j], pattern[i]
        assert ap_from_relevance(swapped, R=n) >= before - 1e-12


class TestMeanAp:
    def test_reports_percent(self):
        assert mean_ap([1.0, 0.0]) == 50.0

    def test_single_query(self):
        assert mean_ap([0.25]) == 25.0

    def test_permutation_invariant(self):
        rng = substream(3, "perm")
        aps = rng.random(20)
        np.testing.assert_allclose(mean_ap(aps),
                                   mean_ap(aps[rng.permutation(20)]))

    def test_matches_independent_mean(self):
        rng = substream(4, "mean")
        aps = rng.random(20)
        expected = 100.0 * sum(aps) / len(aps)
        np.testing.assert_allclose(mean_ap(aps), expected, rtol=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(EmptyQuerySet):
            mean_ap([])


class TestGroundTruthKnn:
    def test_exact_duplicate_found(self):
        db = np.array([[0.0, 0.0], [5.0, 5.0], [1.0, 1.0]])
        gt = ground_truth_knn(db, np.array([[1.0, 1.0]]), N=1)
        np.testing.assert_array_equal(gt.relevant[0], [2])

    def test_five_point_hand_set(self):
        """Brute force over all pairs confirms the N=2 neighbor sets."""
        db = np.array([[0.0, 0], [1, 0], [2, 0], [10, 0], [11, 0]],
                      dtype=float)
        queries = db.copy()
        gt = ground_truth_knn(db, queries, N=2,
                              query_db_ids=np.arange(5))
        for q in range(5):
            dists = np.linalg.norm(db - queries[q], axis=1)
            dists[q] = np.inf
            expected = set(np.argsort(dists, kind="stable")[:2].tolist())
            assert set(gt.relevant[q].tolist()) == expected

    def test_euclidean_equals_cosine_on_sphere(self):
        rng = substream(5, "sphere")
        db = rng.normal(size=(50, 4))
        db /= np.linalg.norm(db, axis=1, keepdims=True)
        q = rng.normal(size=(6, 4))
        q /= np.linalg.norm(q, axis=1, keepdims=True)
        ge = ground_truth_knn(db, q, N=5, metric="euclidean")
        gc = ground_truth_knn(db, q, N=5, metric="cosine")
        for a, b in zip(ge.relevant, gc.relevant):
            np.testing.assert_array_equal(np.sort(a), np.sort(b))

    def test_self_exclusion(self):
        db = np.array([[0.0, 0], [1, 0], [2, 0]])
        gt = ground_truth_knn(db, db, N=1, query_db_ids=np.array([0, 1, 2]))
        assert 0 not in gt.relevant[0]

    @pytest.mark.parametrize("metric", ["euclidean", "cosine"])
    def test_empty_database_gives_empty_lists(self, metric):
        gt = ground_truth_knn(np.empty((0, 2)), np.ones((3, 2)), N=5, metric=metric)
        assert len(gt.relevant) == 3
        assert all(r.dtype == np.int64 and r.size == 0 for r in gt.relevant)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            ground_truth_knn(np.ones((3, 2)), np.ones((1, 3)), N=1)

    def test_unknown_metric(self):
        with pytest.raises(ValueError):
            ground_truth_knn(np.ones((3, 2)), np.ones((1, 2)), N=1,
                             metric="manhattan")


class TestGroundTruthRelevance:
    def test_label_mode(self):
        gt = GroundTruth("labels", query_labels=np.array([1, 2]),
                         db_labels=np.array([2, 1, 1]))
        np.testing.assert_array_equal(gt.relevance(0, np.array([0, 1, 2])),
                                      [False, True, True])
        np.testing.assert_array_equal(gt.relevance(1, np.array([0, 1])),
                                      [True, False])

    @given(st.lists(st.lists(st.integers(0, 30), max_size=8, unique=True), min_size=1, max_size=4),
           st.lists(st.integers(-3, 40), max_size=120), st.integers(0, 3))
    @settings(max_examples=200, deadline=None)
    def test_knn_mode_equals_isin(self, truths, ids, pos):
        """Empty truth lists, ids absent from the truth or the database,
        and rankings far longer than the truth all read as np.isin does."""
        relevant = [np.array(t, dtype=np.int64) for t in truths]
        gt = GroundTruth("knn", relevant=relevant)
        pos %= len(relevant)
        ids = np.array(ids, dtype=np.int64)
        got = gt.relevance(pos, ids)
        assert got.dtype == bool
        np.testing.assert_array_equal(got, np.isin(ids, relevant[pos]))


class TestAveragePrecision:
    def test_against_pattern_form(self):
        gt = GroundTruth("labels", query_labels=np.array([1]),
                         db_labels=np.array([1, 0, 1, 0]))
        got = ap_from_relevance(gt.relevance(0, np.array([0, 1, 2, 3])), R=3)
        np.testing.assert_allclose(got, ap_oracle([1, 0, 1], 3))


class TestEvaluateQueries:
    def test_matches_manual_ap(self):
        codes = np.array([[0, 1], [0, 2], [2, 3]], dtype=np.uint32)
        bank = CodeBank("sparse", 4, 2, codes)
        gt = GroundTruth("labels", query_labels=np.array([7]),
                         db_labels=np.array([7, 7, 5]))
        q_codes = np.array([[0, 1]], dtype=np.uint32)
        aps = evaluate_queries(bank, q_codes, gt, R=None)
        # distances (0, 2, 4): order (0, 1, 2), relevance (1, 1, 0)
        np.testing.assert_allclose(aps, [1.0])

    def test_exclusion_drops_own_row(self):
        codes = np.array([[0, 1], [0, 1], [2, 3]], dtype=np.uint32)
        bank = CodeBank("sparse", 4, 2, codes)
        gt = GroundTruth("knn", relevant=[np.array([1])])
        aps = evaluate_queries(bank, codes[:1], gt, R=None,
                               exclude_ids=np.array([0]))
        np.testing.assert_allclose(aps, [1.0])


class TestEvaluateQueriesAtDepth:
    """A depth-R evaluation selects R (or R + 1) keys; its APs must equal
    those of the full (distance, id) ranking, dropped and cut the same way."""

    @staticmethod
    def full_rank_aps(bank, q_codes, gt, R, exclude_ids):
        aps = []
        for pos, row in enumerate(q_codes):
            dist = scan_distances(bank, bank.code(row))
            order = np.lexsort((np.arange(bank.size), dist))
            order = order[order != exclude_ids[pos]][:R]
            aps.append(ap_from_relevance(gt.relevance(pos, order)))
        return np.array(aps)

    @given(st.sampled_from(["sparse", "dense"]), st.integers(min_value=1, max_value=40),
           st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=45),
           st.sampled_from(["labels", "knn"]), st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_same_aps_as_full_ranking(self, kind, n, pool, R, mode, seed):
        rng = substream(seed, "depthR")
        # records repeat a few codes, so nearly every distance ties
        if kind == "sparse":
            m, k = 6, 2
            base = np.stack([np.sort(rng.choice(m, size=k, replace=False))
                             for _ in range(pool)]).astype(np.uint32)
        else:
            m = k = 5
            base = np.where(rng.random((pool, k)) > 0.5, 1, -1).astype(np.int8)
        codes = base[rng.integers(0, pool, n)]
        bank = CodeBank(kind, m, k, codes)
        # every record queries the bank; some keep their own row, as when
        # the query set is not drawn from the database
        q_codes = codes
        exclude = np.where(rng.random(n) < 0.7, np.arange(n), -1)
        if mode == "labels":
            labels = rng.integers(0, 3, n)
            gt = GroundTruth("labels", query_labels=labels, db_labels=labels)
        else:
            gt = GroundTruth("knn", relevant=[rng.choice(n, size=min(n, 3), replace=False)
                                              for _ in range(n)])
        got = evaluate_queries(bank, q_codes, gt, R, exclude)
        np.testing.assert_array_equal(got, self.full_rank_aps(bank, q_codes, gt, R, exclude))


def functional_smoothness(input_data, codes, band="top10", sample_pairs=100_000, seed=0):
    """Reference for smoothness_from_bank: the same band Pearson r over
    plain cosines of any row matrices (expanded sign codes or real
    vectors), on the same sampled pairs."""
    X = np.asarray(getattr(input_data, "data", input_data), dtype=np.float64)
    Y = np.asarray(codes, dtype=np.float64)
    if X.shape[0] != Y.shape[0]:
        raise DimensionMismatch(f"{X.shape[0]} inputs vs {Y.shape[0]} codes")
    i, j = _sample_pairs(X.shape[0], sample_pairs, seed)
    return _band_pearson(_pair_cosines(X, i, j), _pair_cosines(Y, i, j), band)


class TestFunctionalSmoothness:
    def test_self_comparison_is_perfect(self):
        rng = substream(6, "self")
        X = rng.normal(size=(400, 8))
        r = functional_smoothness(X, X, band="top10", sample_pairs=2000,
                                  seed=0)
        np.testing.assert_allclose(r, 100.0, atol=1e-9)
        r = functional_smoothness(X, X, band="bottom10", sample_pairs=2000,
                                  seed=0)
        np.testing.assert_allclose(r, 100.0, atol=1e-9)

    def test_independent_codes_land_near_zero(self):
        rng = substream(7, "null")
        X = rng.normal(size=(500, 8))
        Y = rng.normal(size=(500, 8))  # unrelated to X
        r = functional_smoothness(X, Y, band="top10", sample_pairs=10_000,
                                  seed=1)
        assert abs(r) < 10.0

    def test_band_name_checked(self):
        X = np.random.default_rng(0).normal(size=(100, 3))
        with pytest.raises(ValueError):
            functional_smoothness(X, X, band="middle", sample_pairs=1000)

    def test_pair_floor_enforced(self):
        X = np.random.default_rng(0).normal(size=(100, 3))
        with pytest.raises(ValueError):
            functional_smoothness(X, X, sample_pairs=10)

    def test_degenerate_codes_rejected(self):
        rng = substream(8, "deg")
        X = rng.normal(size=(200, 4))
        Y = np.ones((200, 4))
        with pytest.raises(DegenerateVariance):
            functional_smoothness(X, Y, sample_pairs=1000)

    def test_row_count_mismatch(self):
        with pytest.raises(DimensionMismatch):
            functional_smoothness(np.ones((5, 2)), np.ones((4, 2)),
                                  sample_pairs=1000)

    def test_bank_form_matches_expanded_form(self):
        rng = substream(9, "bankr")
        X = rng.normal(size=(300, 6))
        m, k = 12, 3
        codes = np.stack([np.sort(rng.choice(m, size=k, replace=False))
                          for _ in range(300)]).astype(np.uint32)
        bank = CodeBank("sparse", m, k, codes)
        expanded = np.stack([bank.code(row).dense() for row in bank.codes])
        for band in ("top10", "bottom10"):
            a = smoothness_from_bank(X, bank, band, sample_pairs=3000, seed=4)
            b = functional_smoothness(X, expanded, band, sample_pairs=3000,
                                      seed=4)
            np.testing.assert_allclose(a, b, rtol=1e-9)


class TestActivitySweep:
    def test_rows_and_determinism(self, blobs):
        split = protocol_split(blobs, "mnist_label", seed=3)
        rows = activity_sweep(blobs, split, k=2, activities=[0.5, 0.1],
                              seed=5, per_class=10,
                              learn={"t_max": 10})
        assert [(a, m) for a, m, _ in rows] == [(0.5, 4), (0.1, 20)]
        for _, _, mp in rows:
            assert 0.0 <= mp <= 100.0
        again = activity_sweep(blobs, split, k=2, activities=[0.5, 0.1],
                               seed=5, per_class=10, learn={"t_max": 10})
        assert rows == again

    def test_m_below_k_rejected(self, blobs):
        split = protocol_split(blobs, "mnist_label", seed=3)
        with pytest.raises(ValueError):
            activity_sweep(blobs, split, k=4, activities=[2.0],
                           per_class=10)

    def test_class_below_per_class_rejected(self):
        # 130 rows per class, 100 of each go to the queries: 30 remain
        blobs = make_blobs(130, 3)
        split = protocol_split(blobs, "mnist_label", seed=3)
        with pytest.raises(TooFewPerClass):
            activity_sweep(blobs, split, k=2, activities=[0.5], per_class=100)

    def test_labels_required(self):
        rng = substream(11, "nl")
        data = rng.normal(size=(400, 5))
        labeled = DataSet(data, np.repeat([0, 1], 200))
        split = protocol_split(labeled, "mnist_label", seed=0)
        with pytest.raises(MissingLabels):
            activity_sweep(DataSet(data), split, k=2, activities=[0.5])


class TestRunProtocol:
    def test_biohash_beats_chance_on_blobs(self, blobs):
        report = run_protocol(blobs, "mnist_label", "biohash", k=4,
                              seed=1, learn={"t_max": 20})
        assert report.map_percent > 45.0  # chance level is ~33
        assert report.method == "biohash"
        assert report.k == 4
        assert report.config["protocol"] == "mnist_label"

    @pytest.mark.parametrize("method", ["flyhash", "simhash", "pcahash",
                                        "naivebiohash"])
    def test_baselines_run(self, blobs, method):
        report = run_protocol(blobs, "mnist_label", method, k=4, seed=1,
                              learn={"t_max": 5}, flyhash_m=60)
        assert 0.0 <= report.map_percent <= 100.0

    def test_knn_protocol_runs(self, blobs):
        report = run_protocol(blobs, "mnist_euclid100", "simhash", k=4,
                              seed=2)
        assert 0.0 <= report.map_percent <= 100.0

    def test_smoothness_fields_populated(self, blobs):
        report = run_protocol(blobs, "mnist_label", "biohash", k=4, seed=1,
                              learn={"t_max": 10}, smoothness_pairs=2000)
        assert report.smooth_top is not None
        assert report.smooth_bottom is not None

    def test_smoothness_bands_share_one_pass(self, blobs, monkeypatch):
        """Both bands come from one pair draw and one cosine pass, and equal
        two separate `smoothness_from_bank` calls bit for bit."""
        seen, passes = [], []
        bands, cosines = evalbench._smoothness_bands, evalbench._pair_cosines

        def spy_bands(input_data, bank, *args):
            seen.append((input_data, bank))
            return bands(input_data, bank, *args)

        def spy_cosines(*args, **kwargs):
            passes.append(1)
            return cosines(*args, **kwargs)

        monkeypatch.setattr(evalbench, "_smoothness_bands", spy_bands)
        monkeypatch.setattr(evalbench, "_pair_cosines", spy_cosines)
        report = run_protocol(blobs, "mnist_label", "biohash", k=4, seed=1,
                              learn={"t_max": 10}, smoothness_pairs=2000)
        assert len(passes) == 1
        monkeypatch.undo()
        (input_data, bank), = seen
        pair_seed = subseed(1, "smooth")
        assert report.smooth_top == smoothness_from_bank(input_data, bank, "top10",
                                                         2000, pair_seed)
        assert report.smooth_bottom == smoothness_from_bank(input_data, bank, "bottom10",
                                                            2000, pair_seed)

    def test_unknown_method(self, blobs):
        with pytest.raises(ValueError):
            run_protocol(blobs, "mnist_label", "deephash", k=4)

    def test_conv_method_needs_config(self, blobs):
        with pytest.raises(ValueError):
            run_protocol(blobs, "mnist_label", "bioconvhash", k=2)

    def test_partition_protocol_averages(self):
        rng = substream(12, "part")
        ds = DataSet(rng.normal(size=(10_050, 6)))
        report = run_protocol(ds, "glove_partition", "simhash", k=4,
                              seed=3, partitions=2)
        assert 0.0 <= report.map_percent <= 100.0
        assert len(report.config["partition_maps"]) == 2
        np.testing.assert_allclose(report.map_percent,
                                   np.mean(report.config["partition_maps"]))

    def test_zero_partitions_rejected(self):
        ds = DataSet(substream(13, "part").normal(size=(200, 6)))
        with pytest.raises(ValueError):
            run_protocol(ds, "glove_partition", "simhash", k=4, partitions=0)

    @pytest.mark.parametrize("method", ["simhash", "biohash"])
    def test_partition_without_train_rows_rejected(self, method):
        ds = DataSet(substream(14, "part").normal(size=(10_000, 6)))
        with pytest.raises(TooFewPerClass, match="more than 10000 rows"):
            run_protocol(ds, "glove_partition", method, k=4, partitions=1)

    def test_partition_ignores_shadow_and_smoothness(self):
        # a shadow needs an image layout, which glove has none of
        ds = DataSet(substream(12, "part").normal(size=(10_050, 6)))
        plain = run_protocol(ds, "glove_partition", "simhash", k=4, seed=3, partitions=1)
        report = run_protocol(ds, "glove_partition", "simhash", k=4, seed=3, partitions=1,
                              shadow_queries=True, smoothness_pairs=2000)
        assert report.map_percent == plain.map_percent
        assert report.smooth_top is None and report.smooth_bottom is None
        assert report.config == {**plain.config, "shadow_queries": True,
                                 "smoothness_pairs": 2000}
        assert report.config["partition_maps"] == [plain.map_percent]

    def test_single_split_config(self, blobs):
        report = run_protocol(blobs, "mnist_label", "simhash", k=4, seed=1,
                              smoothness_pairs=2000)
        assert report.config == {"protocol": "mnist_label", "method": "simhash", "k": 4,
                                 "seed": 1, "activity": 0.05, "learn": {},
                                 "gt_metric": "cosine", "shadow_queries": False,
                                 "smoothness_pairs": 2000}
        assert report.smooth_top is not None and report.smooth_bottom is not None


class TestReports:
    def sample_reports(self):
        return [EvalReport("p", "biohash", 2, 44.4),
                EvalReport("p", "biohash", 8, 53.3),
                EvalReport("p", "simhash", 2, 12.5)]

    def test_jsonl_roundtrip(self, tmp_path):
        path = tmp_path / "r.jsonl"
        write_reports_jsonl(path, self.sample_reports())
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(rows) == 3
        assert rows[0]["method"] == "biohash"
        assert rows[2]["map_percent"] == 12.5

    def test_table_layout(self):
        text = format_table(self.sample_reports())
        lines = text.splitlines()
        assert "k=2" in lines[0] and "k=8" in lines[0]
        bio = next(ln for ln in lines if ln.startswith("biohash"))
        assert "44.40" in bio and "53.30" in bio
        sim = next(ln for ln in lines if ln.startswith("simhash"))
        assert "-" in sim  # missing k=8 cell
