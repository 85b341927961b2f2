"""Encoders: top-k codes, random projections, PCA, sign baselines, code I/O."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import binomtest

from biohash.datasets import sample_circle
from biohash.errors import (BadHeader, BadMagic, DimensionMismatch,
                            KOutOfRange, MalformedCode, NonFiniteInput,
                            RankDeficient, SamplingTooLarge, ShapeMismatch,
                            TruncatedFile)
from biohash.hashers import (DenseHashCode, RandomProjection, SparseHashCode,
                             biohash_encode, biohash_encode_many,
                             build_projection, flyhash_encode,
                             flyhash_encode_many, load_codes, naive_biohash,
                             naive_encode_many, pack_signs, pcahash_encode,
                             pcahash_encode_many, pcahash_fit, save_codes,
                             sign_bits, simhash_encode, simhash_encode_many,
                             topk_rows, unpack_signs)
from biohash.plasticity import LearningConfig, SynapseMatrix
from biohash.seeds import substream


def simple_sm(weights):
    weights = np.asarray(weights, dtype=np.float64)
    return SynapseMatrix(weights, LearningConfig(m=weights.shape[0]))


class TestCodeTypes:
    def test_sparse_dense_expansion(self):
        code = SparseHashCode(5, 2, [1, 3])
        np.testing.assert_array_equal(code.dense(), [-1, 1, -1, 1, -1])

    def test_sparse_cardinality_enforced(self):
        with pytest.raises(ShapeMismatch):
            SparseHashCode(5, 3, [1, 3])

    def test_dense_length_enforced(self):
        with pytest.raises(ShapeMismatch):
            DenseHashCode(3, [1, -1])


class TestTopkRows:
    def test_tie_goes_to_lower_index(self):
        R = np.array([[0.9, 0.1, 0.5, 0.5]])
        np.testing.assert_array_equal(topk_rows(R, 2), [[0, 2]])

    def test_k_equals_m_selects_all(self):
        R = np.array([[0.3, 0.1, 0.2]])
        np.testing.assert_array_equal(topk_rows(R, 3), [[0, 1, 2]])

    def test_indices_ascending(self):
        R = np.array([[0.1, 0.9, 0.2, 0.8]])
        np.testing.assert_array_equal(topk_rows(R, 2), [[1, 3]])


class TestBiohashEncode:
    def test_hand_responses(self):
        # weights chosen so x=(1,0) responds (0.9, 0.1, 0.5, 0.5)
        W = np.array([[0.9, 0.0], [0.1, 0.0], [0.5, 0.0], [0.5, 0.0]])
        code = biohash_encode(simple_sm(W), [1.0, 0.0], k=2)
        np.testing.assert_array_equal(code.active, [0, 2])

    def test_scale_invariance(self):
        rng = substream(1, "scale")
        W = rng.normal(size=(8, 5))
        x = rng.normal(size=5)
        a = biohash_encode(simple_sm(W), x, 3)
        b = biohash_encode(simple_sm(W), 2.0 * x, 3)
        np.testing.assert_array_equal(a.active, b.active)

    def test_k_out_of_range(self):
        with pytest.raises(KOutOfRange):
            biohash_encode(simple_sm(np.eye(3)), [1.0, 0.0, 0.0], k=4)

    def test_many_matches_single(self):
        rng = substream(2, "many")
        W = rng.normal(size=(10, 4))
        X = rng.normal(size=(7, 4))
        sm = simple_sm(W)
        many = biohash_encode_many(sm, X, 3)
        for i, x in enumerate(X):
            np.testing.assert_array_equal(many[i], biohash_encode(sm, x, 3).active)


class TestBuildProjection:
    def test_flyhash_row_degree(self):
        proj = build_projection("flyhash", d=784, m_or_k=80, seed=0)
        assert proj.mask.shape == (80, 79)  # ceil(0.1 * 784) = 79

    def test_flyhash_default_expansion(self):
        proj = build_projection("flyhash", d=20, seed=0)
        assert proj.m == 200

    def test_flyhash_tiny_d_single_tap(self):
        proj = build_projection("flyhash", d=5, m_or_k=10, seed=0)
        assert proj.mask.shape == (10, 1)

    def test_flyhash_rows_sample_without_replacement(self):
        proj = build_projection("flyhash", d=30, m_or_k=50, seed=1)
        for row in proj.mask:
            assert len(set(row.tolist())) == row.size

    def test_sampling_too_large(self):
        with pytest.raises(SamplingTooLarge):
            build_projection("flyhash", d=10, m_or_k=5, sampling=1.5)

    def test_simhash_deterministic(self):
        a = build_projection("simhash", d=3, m_or_k=2, seed=9)
        b = build_projection("simhash", d=3, m_or_k=2, seed=9)
        np.testing.assert_array_equal(a.matrix, b.matrix)
        assert a.matrix.shape == (2, 3)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            build_projection("minhash", d=4, m_or_k=2)


class TestFlyhashEncode:
    def test_hand_case(self):
        """Fixed taps: responses are sums of the sampled coordinates."""
        # rows tap {0,0},{1,1},{0,1},{1,1}; x=(1.5,0.5) responds (3,1,2,1)
        proj = RandomProjection("flyhash", d=2, seed=0,
                                mask=np.array([[0, 0], [1, 1], [0, 1], [1, 1]]))
        code = flyhash_encode(proj, [1.5, 0.5], k=2)
        np.testing.assert_array_equal(code.active, [0, 2])

    def test_zero_input_ties_resolve_low(self):
        proj = build_projection("flyhash", d=6, m_or_k=12, seed=3)
        code = flyhash_encode(proj, np.zeros(6), k=4)
        np.testing.assert_array_equal(code.active, [0, 1, 2, 3])

    def test_cardinality(self):
        proj = build_projection("flyhash", d=8, m_or_k=40, seed=4)
        rng = substream(4, "fly")
        for x in rng.normal(size=(5, 8)):
            assert flyhash_encode(proj, x, 6).active.size == 6

    def test_many_matches_single(self):
        proj = build_projection("flyhash", d=8, m_or_k=30, seed=5)
        X = substream(5, "flymany").normal(size=(9, 8))
        many = flyhash_encode_many(proj, X, 4)
        for i, x in enumerate(X):
            np.testing.assert_array_equal(many[i],
                                          flyhash_encode(proj, x, 4).active)


class TestSimhashEncode:
    def test_zero_input_all_plus(self):
        proj = build_projection("simhash", d=4, m_or_k=6, seed=0)
        code = simhash_encode(proj, np.zeros(4))
        np.testing.assert_array_equal(code.bits, np.ones(6))

    def test_scale_invariance(self):
        proj = build_projection("simhash", d=5, m_or_k=8, seed=1)
        x = substream(1, "sim").normal(size=5)
        a = simhash_encode(proj, x)
        b = simhash_encode(proj, 2.0 * x)
        np.testing.assert_array_equal(a.bits, b.bits)

    def test_hand_dot_product(self):
        proj = RandomProjection("simhash", d=2, seed=0,
                                matrix=np.array([[1.0, -1.0]]))
        code = simhash_encode(proj, [0.2, 0.5])
        np.testing.assert_array_equal(code.bits, [-1])

    def test_many_matches_single(self):
        proj = build_projection("simhash", d=4, m_or_k=5, seed=2)
        X = substream(2, "simmany").normal(size=(6, 4))
        many = simhash_encode_many(proj, X)
        for i, x in enumerate(X):
            np.testing.assert_array_equal(many[i], simhash_encode(proj, x).bits)


class TestSignBits:
    def test_zero_maps_to_plus_one(self):
        np.testing.assert_array_equal(sign_bits(np.array([0.0, -0.1, 0.1])),
                                      [1, -1, 1])


class TestPcahashFit:
    def test_first_component_is_max_variance_axis(self):
        """Axis-aligned anisotropic cloud: closed-form covariance oracle."""
        rng = substream(7, "pca")
        X = rng.normal(size=(2000, 4)) * np.array([5.0, 2.0, 1.0, 0.5])
        X -= X.mean(axis=0)
        rows = pcahash_fit(X, k=2, seed=0)
        cov = np.cov(X.T)
        eigvals, eigvecs = np.linalg.eigh(cov)
        top = eigvecs[:, -1]
        assert abs(rows[0] @ top) >= 0.999
        second = eigvecs[:, -2]
        assert abs(rows[1] @ second) >= 0.99

    def test_embedded_line_recovers_direction(self):
        t = np.linspace(-1, 1, 50)
        direction = np.array([0.6, 0.8])
        X = t[:, None] * direction
        rows = pcahash_fit(X, k=1, seed=0)
        np.testing.assert_allclose(np.abs(rows[0] @ direction), 1.0,
                                   atol=1e-6)

    def test_sign_convention(self):
        rng = substream(8, "pcasign")
        X = rng.normal(size=(500, 3)) * np.array([3.0, 1.0, 0.5])
        X -= X.mean(axis=0)
        rows = pcahash_fit(X, k=3, seed=0)
        for row in rows:
            assert row[np.argmax(np.abs(row))] > 0

    def test_components_orthogonal(self):
        rng = substream(9, "pcaorth")
        X = rng.normal(size=(800, 5)) * np.array([4.0, 3.0, 2.0, 1.0, 0.5])
        X -= X.mean(axis=0)
        rows = pcahash_fit(X, k=4, seed=0)
        gram = rows @ rows.T
        np.testing.assert_allclose(gram, np.eye(4), atol=1e-5)

    def test_rank_deficient(self):
        X = np.zeros((10, 3))
        X[:, 0] = np.linspace(-1, 1, 10)
        with pytest.raises(RankDeficient):
            pcahash_fit(X, k=2, seed=0)

    def test_fewer_rows_than_components(self):
        with pytest.raises(RankDeficient):
            pcahash_fit(np.ones((2, 4)), k=3)

    def test_encode_matches_sign_of_projection(self):
        rng = substream(10, "pcaenc")
        X = rng.normal(size=(300, 3)) * np.array([3.0, 1.0, 0.3])
        X -= X.mean(axis=0)
        rows = pcahash_fit(X, k=2, seed=0)
        x = X[5]
        code = pcahash_encode(rows, x)
        np.testing.assert_array_equal(code.bits, sign_bits(rows @ x))
        many = pcahash_encode_many(rows, X[:4])
        np.testing.assert_array_equal(many, sign_bits(X[:4] @ rows.T))


class TestNaiveBiohash:
    def test_m_must_equal_k(self):
        with pytest.raises(ValueError):
            naive_biohash(np.ones((10, 2)), k=2,
                          config=LearningConfig(m=3))

    def test_encoder_is_sign_of_responses(self):
        ds = sample_circle(300, None, seed=0)
        sm, encode = naive_biohash(ds.data, k=2,
                                   config=LearningConfig(m=2, t_max=5))
        x = ds.data[0]
        code = encode(x)
        assert code.bits.shape == (2,)
        many = naive_encode_many(sm, ds.data[:5])
        np.testing.assert_array_equal(many[0], encode(ds.data[0]).bits)

    def test_deterministic(self):
        ds = sample_circle(200, None, seed=1)
        config = LearningConfig(m=2, t_max=5, seed=3)
        a, _ = naive_biohash(ds.data, 2, config)
        b, _ = naive_biohash(ds.data, 2, config)
        np.testing.assert_array_equal(a.weights, b.weights)


class TestPackSigns:
    def test_bit_order_hand_case(self):
        """Element 8b+j lands in bit j of byte b, +1 encoding as 1."""
        bits = np.array([[1, -1, 1, 1, -1, -1, -1, -1, 1]])
        packed = pack_signs(bits)
        np.testing.assert_array_equal(packed, [[0b00001101, 0b00000001]])

    def test_roundtrip(self):
        rng = substream(11, "pack")
        bits = np.where(rng.random((6, 13)) > 0.5, 1, -1).astype(np.int8)
        back = unpack_signs(pack_signs(bits), 13)
        np.testing.assert_array_equal(back, bits)


class TestCodesIO:
    def test_sparse_roundtrip(self, tmp_path):
        codes = np.array([[0, 3], [1, 2]], dtype=np.uint32)
        path = tmp_path / "c.bhc1"
        save_codes(path, codes, m=8, kind="sparse")
        back, m, kind = load_codes(path)
        np.testing.assert_array_equal(back, codes)
        assert (m, kind) == (8, "sparse")

    def test_dense_roundtrip(self, tmp_path):
        rng = substream(12, "cio")
        codes = np.where(rng.random((5, 11)) > 0.5, 1, -1).astype(np.int8)
        path = tmp_path / "c.bhc1"
        save_codes(path, codes, m=11, kind="dense")
        back, m, kind = load_codes(path)
        np.testing.assert_array_equal(back, codes)
        assert (m, kind) == (11, "dense")

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "c.bhc1"
        path.write_bytes(b"WHAT" + b"\x00" * 20)
        with pytest.raises(BadMagic):
            load_codes(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "c.bhc1"
        save_codes(path, np.array([[0, 1]], dtype=np.uint32), m=4, kind="sparse")
        path.write_bytes(path.read_bytes()[:-2])
        with pytest.raises(TruncatedFile):
            load_codes(path)

    def test_unknown_kind_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_codes(tmp_path / "c.bhc1", np.zeros((1, 2)), m=4, kind="tern")

    def test_header_k_above_m_rejected(self, tmp_path):
        path = tmp_path / "c.bhc1"
        save_codes(path, np.array([[0, 1, 2]], dtype=np.uint32), m=2, kind="sparse")
        with pytest.raises(BadHeader):
            load_codes(path)

    @pytest.mark.parametrize("bad_row", [[1, 1], [2, 9]])
    def test_malformed_sparse_row_rejected(self, tmp_path, bad_row):
        path = tmp_path / "c.bhc1"
        save_codes(path, np.array([[0, 3], bad_row], dtype=np.uint32), m=4,
                   kind="sparse")
        with pytest.raises(MalformedCode):
            load_codes(path)


class TestNonFiniteInput:
    """Every encoder refuses a NaN or infinite input row instead of hashing it,
    even where every weight on the bad input dimension is zero."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_every_encoder_rejects(self, bad):
        rng = substream(13, "nonfinite")
        X = rng.normal(size=(5, 6))
        X[3, 2] = bad
        W = rng.normal(size=(8, 6))
        W[:, 2] = 0.0
        sm = simple_sm(W)
        fly = build_projection("flyhash", 6, 12, sampling=0.5, seed=1)
        sim = build_projection("simhash", 6, 4, seed=1)
        sim.matrix[:, 2] = 0.0
        rows = rng.normal(size=(3, 6))
        rows[:, 2] = 0.0
        encoders = [
            lambda: biohash_encode_many(sm, X, 2),
            lambda: biohash_encode(sm, X[3], 2),
            lambda: flyhash_encode_many(fly, X, 2),
            lambda: flyhash_encode(fly, X[3], 2),
            lambda: simhash_encode_many(sim, X),
            lambda: simhash_encode(sim, X[3]),
            lambda: pcahash_encode_many(rows, X),
            lambda: pcahash_encode(rows, X[3]),
            lambda: naive_encode_many(sm, X),
        ]
        for encode in encoders:
            with pytest.raises(NonFiniteInput):
                encode()


class TestEncoderProperties:
    @given(st.integers(min_value=0, max_value=2 ** 32 - 1),
           st.integers(min_value=1, max_value=12))
    @settings(max_examples=30, deadline=None)
    def test_wta_cardinality_and_order(self, seed, k):
        """Codes always hold exactly k unique ascending indices."""
        rng = substream(seed, "card")
        W = rng.normal(size=(12, 6))
        x = rng.normal(size=6)
        code = biohash_encode(simple_sm(W), x, k)
        assert code.active.size == k
        assert np.all(np.diff(code.active.astype(np.int64)) > 0)

    @given(st.integers(min_value=0, max_value=2 ** 32 - 1),
           st.floats(min_value=0.01, max_value=100.0))
    @settings(max_examples=30, deadline=None)
    def test_positive_scaling_never_changes_codes(self, seed, lam):
        rng = substream(seed, "lam")
        x = rng.normal(size=6)
        W = rng.normal(size=(10, 6))
        sm = simple_sm(W)
        np.testing.assert_array_equal(biohash_encode(sm, x, 3).active,
                                      biohash_encode(sm, lam * x, 3).active)
        proj = build_projection("simhash", d=6, m_or_k=5, seed=seed % 1000)
        np.testing.assert_array_equal(simhash_encode(proj, x).bits,
                                      simhash_encode(proj, lam * x).bits)
        fly = build_projection("flyhash", d=6, m_or_k=20, seed=seed % 1000)
        np.testing.assert_array_equal(flyhash_encode(fly, x, 4).active,
                                      flyhash_encode(fly, lam * x, 4).active)


class TestLocalitySensitivity:
    def test_near_pairs_closer_than_far_pairs(self):
        """Mean Hamming distance grows with angular separation.

        Sign test over paired draws: near pairs (separation < 2pi/m)
        should beat far pairs (separation > pi/2) almost always.
        """
        rng = substream(55, "lsh")
        ds = sample_circle(4000, None, seed=55)
        config = LearningConfig(m=64, eps0=5e-2, t_max=60, batch=100,
                                seed=55, converge_norm=0.0)
        from biohash.plasticity import train
        sm, _ = train(ds.data, config, log_energy=False)

        def code_of(phi):
            return biohash_encode(sm, np.array([np.cos(phi), np.sin(phi)]), 4)

        def hamming(a, b):
            return 2 * (4 - np.intersect1d(a.active, b.active).size)

        wins = ties = 0
        n_pairs = 1000
        for _ in range(n_pairs):
            base = rng.uniform(-np.pi, np.pi)
            near = hamming(code_of(base), code_of(base + rng.uniform(
                0, 2 * np.pi / 64)))
            far = hamming(code_of(base), code_of(base + rng.uniform(
                np.pi / 2, np.pi)))
            if near < far:
                wins += 1
            elif near == far:
                ties += 1
        decided = n_pairs - ties
        result = binomtest(wins, decided, p=0.5, alternative="greater")
        assert result.pvalue < 0.01
