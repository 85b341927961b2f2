"""Plasticity rule: rank-gated updates, training loop, energy, weights I/O."""

import struct

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from biohash.errors import (BadHeader, BadMagic, DimensionMismatch,
                            NonFiniteUpdate, TruncatedFile)
from biohash.plasticity import (WEIGHT_CLAMP, LearningConfig, SynapseMatrix,
                                TrainingLog, _energy_arrays, _rank_indices,
                                apply_batch, effective_weights,
                                energy, load_weights, row_pnorms, save_weights,
                                train, weights_from_bytes, weights_to_bytes)
from biohash.seeds import substream

# ------------------------------------------------------------- references


def weighted_inner(w, x, p: float) -> float:
    """Inner product with per-coordinate weights |w_i|**(p-2).

    The weighting always comes from the first argument (the synapse row).
    Reduces to the plain dot product at p = 2.
    """
    w = np.asarray(w, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if w.shape != x.shape:
        raise DimensionMismatch(f"shapes {w.shape} and {x.shape}")
    if p == 2.0:
        return float(w @ x)
    mag = np.abs(w)
    if p < 2.0:
        mag = np.maximum(mag, WEIGHT_CLAMP)
    return float((mag ** (p - 2.0) * w) @ x)


def g_weight(rank: int, delta: float, rank_r: int) -> float:
    """Rank gate: 1 for the winner, -delta at rank rank_r, 0 elsewhere."""
    if rank < 1:
        raise ValueError("ranks are 1-based")
    if rank == 1:
        return 1.0
    if rank == rank_r:
        return -float(delta)
    return 0.0


def apply_batch_reference(W, X, eps, p, delta, rank_r, wins=None):
    """The `np.unique` / `searchsorted` / `np.add.at` scatter that the
    bincount scatter replaced; the sums must agree bit for bit."""
    R = X @ effective_weights(W, p).T
    B = X.shape[0]
    need_rth = delta != 0.0 and rank_r >= 2
    win, rth = _rank_indices(R, rank_r, need_rth)
    if wins is not None:
        wins += np.bincount(win, minlength=W.shape[0])
    rows = np.unique(win if rth is None else np.concatenate([win, rth]))
    acc = np.zeros((rows.size, W.shape[1]))
    coef = np.zeros(rows.size)
    samples = np.arange(B)
    iw = np.searchsorted(rows, win)
    np.add.at(acc, iw, X)
    np.add.at(coef, iw, R[samples, win])
    if rth is not None:
        ir = np.searchsorted(rows, rth)
        np.add.at(acc, ir, -delta * X)
        np.add.at(coef, ir, -delta * R[samples, rth])
    with np.errstate(invalid="ignore", over="ignore"):
        acc -= coef[:, None] * W[rows]
    if not np.isfinite(acc).all():
        raise NonFiniteUpdate("weight update contains NaN or Inf",
                              last_weights=W.copy())
    max_abs = float(np.abs(acc).max())
    W[rows] += (eps / max(max_abs, 1e-30)) * acc
    return max_abs


def train_reference(X, config, log_energy=False, shift=None):
    """The training loop before batches were sorted once per epoch: each
    batch sorts its own ids and casts its own rows, and every step is the
    `np.add.at` reference. Returns (W, TrainingLog)."""
    n = X.shape[0]
    W = substream(config.seed, "init").standard_normal((config.m, X.shape[1]))
    if config.unit_init:
        W /= np.maximum(np.linalg.norm(W, axis=1, keepdims=True), 1e-300)
    log = TrainingLog()
    for t in range(config.t_max):
        eps_t = config.eps0 * (1.0 - t / config.t_max)
        perm = substream(config.seed, f"shuffle{t}").permutation(n)
        wins = np.zeros(config.m, dtype=np.int64)
        for start in range(0, n, config.batch):
            idx = np.sort(perm[start:start + config.batch])
            xb = np.asarray(X[idx], dtype=np.float64)
            if shift is not None:
                xb = xb - shift
            apply_batch_reference(W, xb, eps_t, config.p, config.delta,
                                  config.rank_r, wins)
        avg_norm = float(row_pnorms(W, config.p).mean())
        log.energy.append(
            _energy_arrays(W, X, config.p, config.delta, config.rank_r, shift=shift)
            if log_energy else float("nan"))
        log.avg_row_norm.append(avg_norm)
        log.learning_rate.append(eps_t)
        log.dead_units.append(float((wins == 0).mean()))
        if avg_norm < config.converge_norm:
            log.converged = True
            break
    return W, log


def unit_rows(rows):
    rows = np.asarray(rows, dtype=np.float64)
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


class TestLearningConfig:
    def test_rank_r_must_fit_m(self):
        with pytest.raises(ValueError):
            LearningConfig(m=1, rank_r=2)

    @pytest.mark.parametrize("kwargs", [
        dict(m=0), dict(m=4, eps0=0.0), dict(m=4, batch=0),
        dict(m=4, p=0.5), dict(m=4, delta=-0.1), dict(m=4, t_max=0),
    ])
    def test_invalid_fields(self, kwargs):
        with pytest.raises(ValueError):
            LearningConfig(**kwargs)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_eps0_must_be_finite(self, value):
        with pytest.raises(ValueError, match="eps0"):
            LearningConfig(m=4, t_max=1, eps0=value)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_p_must_be_finite(self, value):
        with pytest.raises(ValueError, match="p must"):
            LearningConfig(m=4, p=value)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_delta_must_be_finite(self, value):
        with pytest.raises(ValueError, match="delta"):
            LearningConfig(m=4, delta=value)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -0.5])
    def test_converge_norm_must_be_finite_and_nonnegative(self, value):
        with pytest.raises(ValueError, match="converge_norm"):
            LearningConfig(m=4, converge_norm=value)


class TestWeightedInner:
    def test_p2_is_dot_product(self):
        assert weighted_inner([1.0, 0.0], [0.0, 1.0], 2.0) == 0.0

    def test_p3_hand_case(self):
        got = weighted_inner([0.6, 0.8], [1.0, 1.0], 3.0)
        np.testing.assert_allclose(got, 0.6 * 0.6 + 0.8 * 0.8)

    def test_unit_self_inner(self):
        assert weighted_inner([0.6, 0.8], [0.6, 0.8], 2.0) == pytest.approx(1.0)

    def test_clamp_keeps_low_p_finite(self):
        got = weighted_inner([0.0, 1.0], [1.0, 1.0], 1.5)
        assert np.isfinite(got)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            weighted_inner([1.0], [1.0, 2.0], 2.0)


class TestGWeight:
    def test_winner(self):
        assert g_weight(1, 0.4, 2) == 1.0

    def test_rank_r_is_anti(self):
        assert g_weight(2, 0.4, 2) == -0.4

    def test_other_ranks_silent(self):
        assert g_weight(5, 0.4, 2) == 0.0

    def test_winner_branch_beats_rank_r(self):
        """When rank_r = 1 the winner keeps its positive gate."""
        assert g_weight(1, 0.4, 1) == 1.0


class TestEffectiveWeights:
    def test_p2_passthrough(self):
        W = np.eye(3)
        assert effective_weights(W, 2.0) is W

    def test_p3_scales_by_magnitude(self):
        W = np.array([[0.5, -2.0]])
        np.testing.assert_allclose(effective_weights(W, 3.0),
                                   [[0.25, -4.0]])


class TestApplyBatch:
    def test_single_sample_hand_case(self):
        """Orthogonal input: delta = x, normalized step of size eps."""
        W = np.array([[1.0, 0.0]])
        apply_batch(W, np.array([[0.0, 1.0]]), eps=0.1, p=2.0,
                    delta=0.0, rank_r=1)
        np.testing.assert_allclose(W, [[1.0, 0.1]])

    def test_own_direction_is_fixed_point(self):
        W = unit_rows([[0.6, 0.8]])
        before = W.copy()
        apply_batch(W, before.copy(), eps=0.5, p=2.0, delta=0.0, rank_r=1)
        np.testing.assert_array_equal(W, before)

    def test_rank2_row_gets_negative_update(self):
        W = np.eye(2)
        x = np.array([[0.9, 0.1]])
        apply_batch(W, x, eps=0.45, p=2.0, delta=0.5, rank_r=2)
        # winner delta (0, 0.1); rank-2 delta -0.5*(0.9, 0); max |entry| 0.45
        np.testing.assert_allclose(W[0], [1.0, 0.1])
        np.testing.assert_allclose(W[1], [-0.45, 1.0])

    @pytest.mark.parametrize("p,delta", [(2.0, 0.0), (2.0, 0.4), (3.0, 0.3),
                                         (1.5, 0.2)])
    def test_matches_per_sample_accumulation(self, p, delta):
        """Batch step equals the sum of frozen-weight per-sample deltas."""
        rng = substream(11, f"acc{p}{delta}")
        m, d, b = 5, 7, 16
        W = rng.normal(size=(m, d))
        X = rng.normal(size=(b, d))
        acc = np.zeros_like(W)
        for x in X:
            resp = np.array([weighted_inner(W[mu], x, p) for mu in range(m)])
            order = np.argsort(-resp, kind="stable")
            ranks = np.empty(m, dtype=int)
            ranks[order] = np.arange(1, m + 1)
            for mu in range(m):
                g = g_weight(ranks[mu], delta, 2)
                if g != 0.0:
                    acc[mu] += g * (x - resp[mu] * W[mu])
        expected = W + 0.01 * acc / np.abs(acc).max()
        apply_batch(W, X, eps=0.01, p=p, delta=delta, rank_r=2)
        np.testing.assert_allclose(W, expected, rtol=1e-12, atol=1e-12)

    def test_nonfinite_input_raises(self):
        W = np.ones((2, 2))
        with pytest.raises(NonFiniteUpdate):
            apply_batch(W, np.array([[np.inf, 0.0]]), eps=0.1, p=2.0,
                        delta=0.0, rank_r=1)

    def test_wins_counts_winners_only(self):
        """`wins` gains one count per sample for its winner; the rank-r
        unit's anti-update is no win."""
        W = np.eye(3)
        X = np.array([[0.9, 0.1, 0.0], [0.8, 0.0, 0.2], [0.0, 0.1, 0.9]])
        wins = np.array([5, 0, 0])
        apply_batch(W, X, eps=0.1, p=2.0, delta=0.4, rank_r=2, wins=wins)
        np.testing.assert_array_equal(wins, [7, 0, 1])


@st.composite
def scatter_cases(draw):
    """Small-integer rows, so responses tie; batches of one sample, of one
    repeated sample (every sample wins the same unit), or free. Both
    scatters run: a batch that leaves a unit untouched (one sample and
    m >= 3) compacts, one that touches all (m = 2 with delta > 0) does not."""
    m = draw(st.integers(2, 7))
    d = draw(st.integers(1, 5))
    shape = draw(st.sampled_from(["single", "same", "free"]))
    b = 1 if shape == "single" else draw(st.integers(2, 24))
    ints = st.integers(-2, 2).map(float)
    W = draw(hnp.arrays(np.float64, (m, d), elements=ints))
    X = draw(hnp.arrays(np.float64, (1 if shape == "same" else b, d), elements=ints))
    if shape == "same":
        X = np.repeat(X, b, axis=0)
    p = draw(st.sampled_from([1.5, 2.0, 3.0]))
    delta = draw(st.sampled_from([0.0, 0.3, 1.0]))
    rank_r = draw(st.integers(2, m))
    return W, X, p, delta, rank_r


class TestScatterMatchesAddAt:
    @given(scatter_cases())
    @settings(max_examples=300, deadline=None)
    def test_same_weight_bytes_and_max_abs(self, case):
        W, X, p, delta, rank_r = case
        ref, got = W.copy(), W.copy()
        want = apply_batch_reference(ref, X, 0.05, p, delta, rank_r)
        wins = np.zeros(W.shape[0], dtype=np.int64)
        have = apply_batch(got, X, 0.05, p, delta, rank_r, wins)
        assert have == want
        assert got.tobytes() == ref.tobytes()
        R = X @ effective_weights(W, p).T
        win, rth = _rank_indices(R, rank_r, delta != 0.0)
        np.testing.assert_array_equal(wins, np.bincount(win, minlength=W.shape[0]))
        touched = np.union1d(win, win if rth is None else rth).size
        event("every unit touched" if touched == W.shape[0] else "units compacted")

    @pytest.mark.parametrize("m,b,p,delta,rank_r", [
        (3, 64, 2.0, 0.4, 2), (4, 64, 3.0, 0.0, 2),     # every unit touched
        (48, 16, 2.0, 0.4, 3), (48, 16, 1.5, 0.0, 2),   # more units than samples
    ])
    def test_both_scatter_branches(self, m, b, p, delta, rank_r):
        """Each batch takes the branch its shape promises, and both
        branches step W exactly as the reference does."""
        rng = substream(17, f"branch{m}{p}{delta}")
        W = rng.normal(size=(m, 6))
        ref = W.copy()
        for step in range(10):
            X = rng.normal(size=(b, 6))
            win, rth = _rank_indices(X @ effective_weights(W, p).T, rank_r, delta != 0.0)
            touched = np.union1d(win, win if rth is None else rth).size
            assert (touched == m) == (m < b)
            assert (apply_batch(W, X, 0.02, p, delta, rank_r)
                    == apply_batch_reference(ref, X, 0.02, p, delta, rank_r))
        assert W.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("p,delta,rank_r", [(2.0, 0.0, 2), (2.0, 0.4, 3),
                                                (3.0, 0.2, 2), (1.5, 0.3, 4)])
    def test_gaussian_batches_over_several_steps(self, p, delta, rank_r):
        rng = substream(13, f"scatter{p}{delta}{rank_r}")
        W = rng.normal(size=(9, 12))
        ref = W.copy()
        for step in range(20):
            X = rng.normal(size=(32, 12))
            assert (apply_batch(W, X, 0.02, p, delta, rank_r)
                    == apply_batch_reference(ref, X, 0.02, p, delta, rank_r))
        assert W.tobytes() == ref.tobytes()


class TestRowPnorms:
    def test_euclidean_hand_case(self):
        np.testing.assert_allclose(row_pnorms(np.array([[3.0, 4.0]]), 2.0),
                                   [5.0])

    def test_p1_is_abs_sum(self):
        np.testing.assert_allclose(row_pnorms(np.array([[1.0, -2.0]]), 1.0),
                                   [3.0])


def two_cluster_data(seed=0, n_per=400, d=8, spread=0.05):
    """Tight clusters around two orthogonal unit vectors."""
    rng = substream(seed, "clusters")
    a = np.zeros(d)
    a[0] = 1.0
    b = np.zeros(d)
    b[1] = 1.0
    pts = np.concatenate([
        a + spread * rng.normal(size=(n_per, d)),
        b + spread * rng.normal(size=(n_per, d)),
    ])
    return pts[rng.permutation(2 * n_per)], a, b


def isotropic_rows(seed, n=800, d=8):
    X = substream(seed, "iso").normal(size=(n, d))
    return X / np.linalg.norm(X, axis=1, keepdims=True)


class TestTrain:
    def test_single_attractor(self):
        """One unit on one repeated input converges onto that input."""
        x = unit_rows([[0.6, 0.8, 0.0]])[0]
        data = np.tile(x, (200, 1))
        config = LearningConfig(m=1, rank_r=1, eps0=5e-2, t_max=200,
                                batch=50, seed=3, converge_norm=0.0)
        sm, _ = train(data, config, log_energy=False)
        assert weighted_inner(sm.weights[0], x, 2.0) == pytest.approx(1.0,
                                                                      abs=1e-3)

    def test_two_clusters_match_spherical_kmeans_means(self):
        """Rows land on the normalized cluster means (Lloyd fixed point).

        Like Lloyd's algorithm, the winner-take-all dynamics need an init
        whose assignment separates the clusters; this seed does.
        """
        pts, a, b = two_cluster_data()
        config = LearningConfig(m=2, delta=0.0, eps0=5e-2, t_max=150,
                                batch=50, seed=2, converge_norm=0.0)
        sm, _ = train(pts, config, log_energy=False)
        rows = unit_rows(sm.weights)
        cos_to = {0: max(abs(rows @ a)), 1: max(abs(rows @ b))}
        assert cos_to[0] > 0.99
        assert cos_to[1] > 0.99

    def test_deterministic(self):
        pts, _, _ = two_cluster_data(seed=7)
        config = LearningConfig(m=3, eps0=2e-2, t_max=5, seed=9)
        a, _ = train(pts, config, log_energy=False)
        b, _ = train(pts, config, log_energy=False)
        np.testing.assert_array_equal(a.weights, b.weights)

    def test_convergence_stops_early(self):
        # isotropic data keeps every unit winning, so all norms settle
        X = isotropic_rows(0)
        config = LearningConfig(m=2, eps0=2e-2, t_max=100, seed=1,
                                converge_norm=1.06)
        _, log = train(X, config, log_energy=False)
        assert log.converged
        assert log.epochs < 100
        assert log.avg_row_norm[-1] < 1.06

    def test_energy_log_decreases_start_to_end(self):
        pts, _, _ = two_cluster_data(seed=4)
        config = LearningConfig(m=2, eps0=2e-2, t_max=30, seed=2,
                                converge_norm=0.0)
        _, log = train(pts, config, log_energy=True)
        assert log.energy[-1] < log.energy[0]

    def test_energy_is_opt_in_and_leaves_weights_alone(self):
        pts, _, _ = two_cluster_data(seed=5, n_per=150)
        config = LearningConfig(m=4, delta=0.3, eps0=2e-2, t_max=4, seed=6,
                                converge_norm=0.0)
        plain, plain_log = train(pts, config)
        logged, logged_log = train(pts, config, log_energy=True)
        assert plain.weights.tobytes() == logged.weights.tobytes()
        assert plain_log.epochs == logged_log.epochs == 4
        assert np.isnan(plain_log.energy).all() and len(plain_log.energy) == 4
        assert np.isfinite(logged_log.energy).all()
        assert plain_log.dead_units == logged_log.dead_units

    @pytest.mark.parametrize("delta", [0.0, 0.4])
    def test_dead_units_counts_units_that_never_win(self, delta):
        """A vanishing learning rate freezes the initial rows, so the units
        that win no sample are those no sample ranks first under them."""
        X = substream(4, "dead").normal(size=(300, 3))
        config = LearningConfig(m=12, delta=delta, eps0=1e-15, t_max=2,
                                seed=7, converge_norm=0.0)
        _, log = train(X, config)
        W0 = substream(7, "init").standard_normal((12, 3))
        alive = np.unique(np.argmax(X @ W0.T, axis=1)).size
        assert 0 < alive < 12
        assert log.dead_units == [(12 - alive) / 12] * 2

    def test_shift_equals_precentered(self):
        """On-the-fly centering reproduces explicit centering bit for bit."""
        pts, _, _ = two_cluster_data(seed=6)
        mean = pts.mean(axis=0)
        config = LearningConfig(m=4, eps0=2e-2, t_max=4, seed=8)
        direct, _ = train(pts - mean, config, log_energy=False)
        shifted, _ = train(pts, config, log_energy=False, shift=mean)
        np.testing.assert_array_equal(direct.weights, shifted.weights)

    def test_memmap_input_matches_ram(self, tmp_path):
        pts, _, _ = two_cluster_data(seed=3, n_per=100)
        pts32 = pts.astype(np.float32)
        path = tmp_path / "feats.f32"
        mm = np.memmap(path, dtype=np.float32, mode="w+", shape=pts32.shape)
        mm[:] = pts32
        mm.flush()
        config = LearningConfig(m=2, eps0=2e-2, t_max=3, seed=4)
        a, _ = train(pts32, config, log_energy=False)
        b, _ = train(np.memmap(path, dtype=np.float32, mode="r",
                               shape=pts32.shape), config, log_energy=False)
        np.testing.assert_array_equal(a.weights, b.weights)

    def test_post_convergence_row_norms_near_unit(self):
        X = isotropic_rows(5)
        config = LearningConfig(m=4, eps0=2e-2, t_max=100, seed=12,
                                converge_norm=1.06)
        sm, log = train(X, config, log_energy=False)
        assert log.converged
        norms = row_pnorms(sm.weights, 2.0)
        assert norms.min() >= 0.9
        assert norms.max() <= 1.1

    def test_empty_data_rejected(self):
        with pytest.raises(ValueError):
            train(np.zeros((0, 3)), LearningConfig(m=2))

    def test_bad_shift_shape(self):
        with pytest.raises(DimensionMismatch):
            train(np.ones((4, 3)), LearningConfig(m=2), shift=np.zeros(2))

    def test_unit_init_starts_rows_at_unit_norm(self):
        """A vanishing learning rate freezes the initial rows, exposing
        the normalized draw."""
        X = substream(9, "ui").normal(size=(50, 4))
        config = LearningConfig(m=6, eps0=1e-15, t_max=1, seed=3,
                                converge_norm=0.0, unit_init=True)
        sm, _ = train(X, config)
        np.testing.assert_allclose(np.linalg.norm(sm.weights, axis=1), 1.0,
                                   atol=1e-9)
        raw = substream(3, "init").standard_normal((6, 4))
        np.testing.assert_allclose(
            sm.weights, raw / np.linalg.norm(raw, axis=1, keepdims=True),
            atol=1e-9)

    def test_unit_init_defaults_off(self):
        assert LearningConfig(m=2).unit_init is False
        X = substream(9, "ui").normal(size=(50, 4))
        config = LearningConfig(m=6, eps0=1e-15, t_max=1, seed=3,
                                converge_norm=0.0)
        sm, _ = train(X, config)
        np.testing.assert_allclose(
            sm.weights, substream(3, "init").standard_normal((6, 4)),
            atol=1e-9)


def gaussian_rows(n, d, seed):
    return substream(seed, f"rows{n}x{d}").normal(size=(n, d))


# (data, LearningConfig fields, shift the column mean, log_energy)
TRAIN_CASES = {
    # a step of eps0 <= 0.02 hides a reordered sum of a few samples below
    # the last bit of W, so the tail cases hold many samples per unit
    "tail_batch": (lambda: gaussian_rows(299, 5, 1),
                   dict(m=3, batch=100, t_max=6, seed=1, converge_norm=0.0),
                   False, False),
    "fewer_rows_than_batch": (lambda: gaussian_rows(30, 5, 1),
                              dict(m=5, batch=100, t_max=5, eps0=0.2, seed=1,
                                   converge_norm=0.0), False, False),
    "float32_shift": (lambda: two_cluster_data(seed=3, n_per=130)[0].astype(np.float32),
                      dict(m=4, batch=50, t_max=4, seed=3), True, False),
    "delta_p3_rank3": (lambda: gaussian_rows(210, 6, 4),
                       dict(m=7, p=3.0, delta=0.3, rank_r=3, batch=25, t_max=4, seed=4),
                       False, False),
    "every_unit_touched": (lambda: gaussian_rows(320, 4, 5),
                           dict(m=3, delta=0.4, batch=64, t_max=4, seed=5), False, False),
    "units_compacted": (lambda: gaussian_rows(150, 6, 6),
                        dict(m=40, delta=0.2, batch=16, t_max=4, seed=6), False, False),
    "early_stop": (lambda: isotropic_rows(0),
                   dict(m=2, eps0=2e-2, t_max=100, seed=1, converge_norm=1.06),
                   False, False),
    "log_energy": (lambda: two_cluster_data(seed=4, n_per=120)[0],
                   dict(m=4, delta=0.3, batch=30, t_max=5, seed=2, converge_norm=0.0),
                   True, True),
}


class TestTrainMatchesReference:
    @pytest.mark.parametrize("case", sorted(TRAIN_CASES))
    def test_same_weights_and_log(self, case):
        make, fields, shift, log_energy = TRAIN_CASES[case]
        X = make()
        config = LearningConfig(**fields)
        mean = X.mean(axis=0, dtype=np.float64) if shift else None
        sm, log = train(X, config, log_energy=log_energy, shift=mean)
        W, ref = train_reference(X, config, log_energy=log_energy, shift=mean)
        assert sm.weights.tobytes() == W.tobytes()
        for name in ("energy", "avg_row_norm", "learning_rate", "dead_units"):
            assert (np.array(getattr(log, name)).tobytes()
                    == np.array(getattr(ref, name)).tobytes()), name
        assert log.converged == ref.converged
        if case == "early_stop":
            assert log.converged and log.epochs < config.t_max


def energy_oracle(W, X, p, delta, rank_r):
    """Direct per-sample restatement of the alignment energy."""
    total = 0.0
    for x in X:
        resp = np.array([weighted_inner(W[mu], x, p) for mu in range(len(W))])
        order = np.argsort(-resp, kind="stable")
        for rank, mu in enumerate(order, start=1):
            g = g_weight(rank, delta, rank_r)
            if g == 0.0:
                continue
            self_inner = weighted_inner(W[mu], W[mu], p)
            total -= g * resp[mu] / self_inner ** ((p - 1.0) / p)
    return total


class TestEnergy:
    def test_perfect_alignment(self):
        w = unit_rows([[0.6, 0.8]])
        sm = SynapseMatrix(w, LearningConfig(m=1, rank_r=1))
        np.testing.assert_allclose(energy(sm, w.copy()), -1.0)

    def test_empty_data_is_zero(self):
        sm = SynapseMatrix(np.eye(2), LearningConfig(m=2))
        assert energy(sm, np.zeros((0, 2))) == 0.0

    @pytest.mark.parametrize("p,delta", [(2.0, 0.0), (2.0, 0.4), (3.0, 0.3)])
    def test_matches_direct_summation(self, p, delta):
        rng = substream(21, f"energy{p}{delta}")
        W = rng.normal(size=(6, 5))
        X = rng.normal(size=(40, 5))
        sm = SynapseMatrix(W, LearningConfig(m=6, p=p, delta=delta, rank_r=2))
        expected = energy_oracle(W, X, p, delta, 2)
        np.testing.assert_allclose(energy(sm, X), expected, rtol=1e-10)

    def test_shift_argument_centers(self):
        rng = substream(22, "eshift")
        W = rng.normal(size=(3, 4))
        X = rng.normal(size=(10, 4))
        mean = X.mean(axis=0)
        sm = SynapseMatrix(W, LearningConfig(m=3))
        np.testing.assert_allclose(energy(sm, X - mean),
                                   energy(sm, X, shift=mean))

    def test_dimension_mismatch(self):
        sm = SynapseMatrix(np.eye(2), LearningConfig(m=2))
        with pytest.raises(DimensionMismatch):
            energy(sm, np.ones((3, 5)))


class TestWeightsRoundtrip:
    def make(self):
        rng = substream(31, "io")
        config = LearningConfig(m=3, p=2.5, delta=0.2, rank_r=2, seed=77)
        return SynapseMatrix(rng.normal(size=(3, 4)), config)

    def test_file_roundtrip(self, tmp_path):
        sm = self.make()
        path = tmp_path / "w.bhw1"
        save_weights(path, sm)
        back = load_weights(path)
        # payload is stored as f32, so the roundtrip is exact at f32
        np.testing.assert_array_equal(back.weights,
                                      sm.weights.astype(np.float32))
        assert back.config.m == sm.config.m
        assert back.config.p == sm.config.p
        assert back.config.delta == sm.config.delta
        assert back.config.rank_r == sm.config.rank_r
        assert back.config.seed == sm.config.seed

    def test_bytes_roundtrip_with_offset(self):
        sm = self.make()
        blob = b"XX" + weights_to_bytes(sm)
        back, end = weights_from_bytes(blob, offset=2)
        assert end == len(blob)
        np.testing.assert_array_equal(back.weights,
                                      sm.weights.astype(np.float32))

    def test_bad_magic(self):
        with pytest.raises(BadMagic):
            weights_from_bytes(b"NOPE" + b"\x00" * 64)

    def test_truncated(self):
        blob = weights_to_bytes(self.make())
        with pytest.raises(TruncatedFile):
            weights_from_bytes(blob[:-5])

    @pytest.mark.parametrize("header", [(0, 3, 2.0, 0.0, 1, 0),
                                        (4, 3, 0.5, 0.0, 2, 0),
                                        (4, 3, 2.0, -1.0, 2, 0),
                                        (4, 3, 2.0, 0.0, 5, 0),
                                        (4, 3, float("inf"), 0.0, 2, 0),
                                        (4, 3, 2.0, float("inf"), 2, 0),
                                        (4, 3, 2.0, float("nan"), 2, 0)])
    def test_impossible_header(self, header):
        blob = b"BHW1" + struct.pack("<IIddIQ", *header) + b"\x00" * 48
        with pytest.raises(BadHeader):
            weights_from_bytes(blob)


class TestUpdateProperties:
    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_step_size_bounded_by_eps(self, seed):
        """The normalized step changes no weight by more than eps."""
        rng = substream(seed, "prop")
        W = rng.normal(size=(4, 6))
        before = W.copy()
        X = rng.normal(size=(8, 6))
        apply_batch(W, X, eps=0.05, p=2.0, delta=0.3, rank_r=2)
        assert np.abs(W - before).max() <= 0.05 + 1e-12

    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_untouched_rows_stay_fixed(self, seed):
        """Rows that never win and never place rank-r do not move."""
        rng = substream(seed, "fixed")
        W = rng.normal(size=(5, 4))
        before = W.copy()
        x = rng.normal(size=(1, 4))
        resp = x[0] @ W.T
        order = np.argsort(-resp, kind="stable")
        apply_batch(W, x, eps=0.1, p=2.0, delta=0.4, rank_r=2)
        moved = np.flatnonzero(np.abs(W - before).max(axis=1) > 0)
        assert set(moved) <= {order[0], order[1]}
