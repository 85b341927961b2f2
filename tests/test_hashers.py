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
from biohash.hashers import (METHODS, DenseHashCode, RandomProjection,
                             SparseHashCode, biohash_encode_many,
                             build_projection, flyhash_encode_many,
                             load_codes, naive_encode_many, pack_signs,
                             pcahash_encode_many, pcahash_fit, save_codes,
                             sign_bits, simhash_encode_many, topk_rows,
                             unpack_signs)
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

    @pytest.mark.parametrize("active", [[1, 1], [3, 1], [3, 9], [-1, 3]],
                             ids=["repeated", "descending", "above_m", "negative"])
    def test_sparse_malformed_indices_rejected(self, active):
        with pytest.raises(MalformedCode):
            SparseHashCode(8, 2, active)

    def test_sparse_empty_code_rejected(self):
        with pytest.raises(KOutOfRange):
            SparseHashCode(8, 0, [])

    @pytest.mark.parametrize("bits", [[1, 0, 5], [1, -1, 2], [0.5, 1, -1]],
                             ids=["zero_and_five", "two", "fraction"])
    def test_dense_values_outside_signs_rejected(self, bits):
        with pytest.raises(MalformedCode):
            DenseHashCode(3, bits)


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
        code = biohash_encode_many(simple_sm(W), [[1.0, 0.0]], k=2)
        np.testing.assert_array_equal(code, [[0, 2]])

    def test_scale_invariance(self):
        rng = substream(1, "scale")
        W = rng.normal(size=(8, 5))
        x = rng.normal(size=5)
        a = biohash_encode_many(simple_sm(W), [x], 3)
        b = biohash_encode_many(simple_sm(W), [2.0 * x], 3)
        np.testing.assert_array_equal(a, b)

    def test_k_out_of_range(self):
        with pytest.raises(KOutOfRange):
            biohash_encode_many(simple_sm(np.eye(3)), [[1.0, 0.0, 0.0]], k=4)

    def test_many_matches_single(self):
        rng = substream(2, "many")
        W = rng.normal(size=(10, 4))
        X = rng.normal(size=(7, 4))
        sm = simple_sm(W)
        many = biohash_encode_many(sm, X, 3)
        for i, x in enumerate(X):
            np.testing.assert_array_equal(many[i], biohash_encode_many(sm, [x], 3)[0])


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
        code = flyhash_encode_many(proj, [[1.5, 0.5]], k=2)
        np.testing.assert_array_equal(code, [[0, 2]])

    def test_zero_input_ties_resolve_low(self):
        proj = build_projection("flyhash", d=6, m_or_k=12, seed=3)
        code = flyhash_encode_many(proj, np.zeros((1, 6)), k=4)
        np.testing.assert_array_equal(code, [[0, 1, 2, 3]])

    def test_cardinality(self):
        proj = build_projection("flyhash", d=8, m_or_k=40, seed=4)
        rng = substream(4, "fly")
        codes = flyhash_encode_many(proj, rng.normal(size=(5, 8)), 6)
        assert codes.shape == (5, 6)
        assert (np.diff(codes.astype(np.int64), axis=1) > 0).all()

    def test_block_size_keeps_codes(self):
        # each response sums its taps in the same order whatever the block
        proj = build_projection("flyhash", d=8, m_or_k=30, seed=6)
        X = substream(6, "flychunk").normal(size=(600, 8))
        whole = flyhash_encode_many(proj, X, 4, chunk=600)
        np.testing.assert_array_equal(flyhash_encode_many(proj, X, 4), whole)
        np.testing.assert_array_equal(flyhash_encode_many(proj, X, 4, chunk=7), whole)

    def test_many_matches_single(self):
        proj = build_projection("flyhash", d=8, m_or_k=30, seed=5)
        X = substream(5, "flymany").normal(size=(9, 8))
        many = flyhash_encode_many(proj, X, 4)
        for i, x in enumerate(X):
            np.testing.assert_array_equal(many[i],
                                          flyhash_encode_many(proj, [x], 4)[0])

    def test_mask_matrix_built_once_per_projection(self, monkeypatch):
        from scipy import sparse

        built = []
        csr_matrix = sparse.csr_matrix
        monkeypatch.setattr(sparse, "csr_matrix",
                            lambda *args, **kw: built.append(1) or csr_matrix(*args, **kw))
        proj = build_projection("flyhash", d=6, m_or_k=12, seed=3)
        X = substream(4, "flyonce").normal(size=(3, 6))
        codes = flyhash_encode_many(proj, X, k=4)
        np.testing.assert_array_equal(flyhash_encode_many(proj, X[1:2], k=4), codes[1:2])
        assert len(built) == 1


class TestSimhashEncode:
    def test_zero_input_all_plus(self):
        proj = build_projection("simhash", d=4, m_or_k=6, seed=0)
        code = simhash_encode_many(proj, np.zeros((1, 4)))
        np.testing.assert_array_equal(code, np.ones((1, 6)))

    def test_scale_invariance(self):
        proj = build_projection("simhash", d=5, m_or_k=8, seed=1)
        x = substream(1, "sim").normal(size=5)
        a = simhash_encode_many(proj, [x])
        b = simhash_encode_many(proj, [2.0 * x])
        np.testing.assert_array_equal(a, b)

    def test_hand_dot_product(self):
        proj = RandomProjection("simhash", d=2, seed=0,
                                matrix=np.array([[1.0, -1.0]]))
        code = simhash_encode_many(proj, [[0.2, 0.5]])
        np.testing.assert_array_equal(code, [[-1]])

    def test_many_matches_single(self):
        proj = build_projection("simhash", d=4, m_or_k=5, seed=2)
        X = substream(2, "simmany").normal(size=(6, 4))
        many = simhash_encode_many(proj, X)
        for i, x in enumerate(X):
            np.testing.assert_array_equal(many[i], simhash_encode_many(proj, [x])[0])


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
        rows = pcahash_fit(X, k=2)
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
        rows = pcahash_fit(X, k=1)
        np.testing.assert_allclose(np.abs(rows[0] @ direction), 1.0,
                                   atol=1e-6)

    def test_sign_convention(self):
        rng = substream(8, "pcasign")
        X = rng.normal(size=(500, 3)) * np.array([3.0, 1.0, 0.5])
        X -= X.mean(axis=0)
        rows = pcahash_fit(X, k=3)
        for row in rows:
            assert row[np.argmax(np.abs(row))] > 0

    def test_components_orthogonal(self):
        rng = substream(9, "pcaorth")
        X = rng.normal(size=(800, 5)) * np.array([4.0, 3.0, 2.0, 1.0, 0.5])
        X -= X.mean(axis=0)
        rows = pcahash_fit(X, k=4)
        gram = rows @ rows.T
        np.testing.assert_allclose(gram, np.eye(4), atol=1e-5)

    def test_rank_deficient(self):
        X = np.zeros((10, 3))
        X[:, 0] = np.linspace(-1, 1, 10)
        with pytest.raises(RankDeficient):
            pcahash_fit(X, k=2)

    def test_fewer_rows_than_components(self):
        with pytest.raises(RankDeficient):
            pcahash_fit(np.ones((2, 4)), k=3)

    def test_more_components_than_dimensions(self):
        X = substream(10, "pcawide").normal(size=(50, 3))
        with pytest.raises(RankDeficient):
            pcahash_fit(X - X.mean(axis=0), k=4)

    def test_near_equal_eigenvalues_are_exact(self):
        """Clustered spectrum at d=12: every row solves cov @ v = lam v to a
        relative residual below 1e-9, and the rows are orthonormal."""
        spectrum = np.array([4.0, 3.999, 3.998, 2.0, 1.0, 0.9995,
                             0.5, 0.4998, 0.25, 0.2, 0.1, 0.05])
        rng = substream(16, "pcanear")
        n, d = 400, spectrum.size
        Z = rng.normal(size=(n, d))
        Z -= Z.mean(axis=0)
        Q, _ = np.linalg.qr(Z)  # orthonormal columns, each still centered
        R, _ = np.linalg.qr(rng.normal(size=(d, d)))  # random rotation
        X = np.sqrt(n - 1) * (Q * np.sqrt(spectrum)) @ R.T
        rows = pcahash_fit(X, k=d)
        cov = (X.T @ X) / (n - 1)
        for v in rows:
            cv = cov @ v
            lam = v @ cv
            assert np.linalg.norm(cv - lam * v) / np.linalg.norm(cv) < 1e-9
        np.testing.assert_allclose(rows @ rows.T, np.eye(d), atol=1e-12)
        np.testing.assert_allclose(np.sort(np.einsum("ij,jk,ik->i", rows, cov, rows)),
                                   np.sort(spectrum), rtol=1e-9)

    def test_encode_matches_sign_of_projection(self):
        rng = substream(10, "pcaenc")
        X = rng.normal(size=(300, 3)) * np.array([3.0, 1.0, 0.3])
        X -= X.mean(axis=0)
        rows = pcahash_fit(X, k=2)
        many = pcahash_encode_many(rows, X[:4])
        np.testing.assert_array_equal(many, sign_bits(X[:4] @ rows.T))


class TestNaiveBiohash:
    def test_m_must_equal_k(self):
        """m follows k alone, whatever activity or expansion is asked for."""
        for activity, flyhash_m in ((0.05, None), (1.0, 40)):
            assert METHODS["naivebiohash"].m(2, activity, flyhash_m, 7) == 2

    def test_encoder_is_sign_of_responses(self):
        ds = sample_circle(300, None, seed=0)
        naive = METHODS["naivebiohash"]
        sm, _ = naive.fit(ds.data, 2, 0, {"t_max": 5})
        codes = naive.encode(sm, ds.data[:5], 2)
        np.testing.assert_array_equal(codes, sign_bits(ds.data[:5] @ sm.weights.T))
        np.testing.assert_array_equal(codes, naive_encode_many(sm, ds.data[:5]))

    def test_deterministic(self):
        ds = sample_circle(200, None, seed=1)
        naive = METHODS["naivebiohash"]
        a, _ = naive.fit(ds.data, 2, 3, {"t_max": 5})
        b, _ = naive.fit(ds.data, 2, 3, {"t_max": 5})
        np.testing.assert_array_equal(a.weights, b.weights)


class TestMethodTable:
    def test_names_are_the_package_tuple(self):
        import biohash

        assert (*METHODS, "bioconvhash") == biohash.METHODS

    @pytest.mark.parametrize("name", sorted(METHODS))
    def test_fit_then_encode(self, name):
        """Each method's state has the row count its rule gives, and its
        codes have the declared kind: ascending indices below m, or signs."""
        spec = METHODS[name]
        X = substream(14, "table").normal(size=(60, 5))
        X -= X.mean(axis=0)
        m = spec.m(3, 0.25, 20, X.shape[1])
        state, log = spec.fit(X, m, 1, {"t_max": 2})
        assert state.m == m and (log is not None) == (name in ("biohash", "naivebiohash"))
        codes = spec.encode(state, X, 3)
        assert codes.shape == (60, 3 if spec.kind == "sparse" else m)
        if spec.kind == "sparse":
            assert (np.diff(codes.astype(np.int64), axis=1) > 0).all() and codes.max() < m
        else:
            assert set(np.unique(codes)) <= {-1, 1}


class TestSingleQueryMatchesBatch:
    """A query encoded on its own gets the code of its row in a batch.

    The responses need not agree bit for bit: on MNIST-shaped rows at
    m = 640 the single-row product differs from the 2000-row GEMM by up to
    4.1e-14. The codes still agree, and search relies on that, so it is
    checked on trained weights and pixel data full of tied zeros."""

    K = 32

    @pytest.fixture(scope="class")
    def rows(self, mnist_like):
        X = mnist_like(300, 4002)[0].astype(np.float64)
        return X - X.mean(axis=0)

    @pytest.mark.parametrize("name", ["biohash", "flyhash", "simhash", "pcahash"])
    def test_single_row_code_equals_batch_row(self, rows, name):
        spec = METHODS[name]
        m = spec.m(self.K, 0.05, None, rows.shape[1])
        state, _ = spec.fit(rows, m, 3, {"t_max": 10})
        batch = spec.encode(state, rows, self.K)
        for i in range(rows.shape[0]):
            np.testing.assert_array_equal(spec.encode(state, rows[i:i + 1], self.K)[0],
                                          batch[i], err_msg=f"row {i}")


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

    def test_header_k_above_m_rejected(self, tmp_path, write_sparse_bhc1):
        path = tmp_path / "c.bhc1"
        write_sparse_bhc1(path, [[0, 1, 2]], m=2)
        with pytest.raises(BadHeader):
            load_codes(path)

    @pytest.mark.parametrize("bad_row", [[1, 1], [2, 9]])
    def test_malformed_sparse_row_rejected(self, tmp_path, bad_row, write_sparse_bhc1):
        path = tmp_path / "c.bhc1"
        write_sparse_bhc1(path, [[0, 3], bad_row], m=4)
        with pytest.raises(MalformedCode):
            load_codes(path)

    def test_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "c.bhc1"
        with pytest.raises(ValueError):
            save_codes(path, np.zeros((1, 2)), m=4, kind="tern")
        assert not path.exists()

    def test_save_refuses_k_above_m(self, tmp_path):
        path = tmp_path / "c.bhc1"
        with pytest.raises(KOutOfRange):
            save_codes(path, np.array([[0, 1, 2]], dtype=np.uint32), m=2, kind="sparse")
        assert not path.exists()

    @pytest.mark.parametrize("bad_row", [[1, 1], [2, 9], [-1, 2]])
    def test_save_refuses_malformed_sparse_row(self, tmp_path, bad_row):
        path = tmp_path / "c.bhc1"
        with pytest.raises(MalformedCode):
            save_codes(path, np.array([[0, 3], bad_row]), m=4, kind="sparse")
        assert not path.exists()


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
            lambda: flyhash_encode_many(fly, X, 2),
            lambda: simhash_encode_many(sim, X),
            lambda: pcahash_encode_many(rows, X),
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
        code = biohash_encode_many(simple_sm(W), [x], k)[0]
        assert code.size == k
        assert np.all(np.diff(code.astype(np.int64)) > 0)

    @given(st.integers(min_value=0, max_value=2 ** 32 - 1),
           st.floats(min_value=0.01, max_value=100.0))
    @settings(max_examples=30, deadline=None)
    def test_positive_scaling_never_changes_codes(self, seed, lam):
        rng = substream(seed, "lam")
        x = rng.normal(size=6)
        W = rng.normal(size=(10, 6))
        sm = simple_sm(W)
        np.testing.assert_array_equal(biohash_encode_many(sm, [x], 3),
                                      biohash_encode_many(sm, [lam * x], 3))
        proj = build_projection("simhash", d=6, m_or_k=5, seed=seed % 1000)
        np.testing.assert_array_equal(simhash_encode_many(proj, [x]),
                                      simhash_encode_many(proj, [lam * x]))
        fly = build_projection("flyhash", d=6, m_or_k=20, seed=seed % 1000)
        np.testing.assert_array_equal(flyhash_encode_many(fly, [x], 4),
                                      flyhash_encode_many(fly, [lam * x], 4))


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
            return biohash_encode_many(sm, [[np.cos(phi), np.sin(phi)]], 4)[0]

        def hamming(a, b):
            return 2 * (4 - np.intersect1d(a, b).size)

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
