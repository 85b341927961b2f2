"""Acceptance gate: one test per headline criterion.

Benchmark criteria need their dataset on disk and skip with a pointer
when it is absent; the data root comes from BIOHASH_DATA (default
./data), and `datasets.load_dir` reads it as README "Data layout"
describes. Toy-model oracles and the property suites always run. Run
with -v to get the per-criterion pass/fail lines.
"""

import itertools
import math
import os
from pathlib import Path

import numpy as np
import pytest

from biohash import (codebank, convnet, datasets, evalbench, hashers,
                     plasticity, toymodel)
from biohash.codebank import CodeBank, scan_distances
from biohash.convnet import ConvBranch, ConvConfig
from biohash.datasets import CircleDensity
from biohash.plasticity import LearningConfig, SynapseMatrix
from biohash.seeds import subseed, substream

DATA_ROOT = Path(os.environ.get(
    "BIOHASH_DATA", Path(__file__).resolve().parent.parent / "data"))

# expected mAP percentages for the reproduction runs; tolerances absorb
# PRNG differences between implementations
MNIST_BIOHASH = {2: 44.38, 4: 49.32, 8: 53.42, 16: 54.92, 32: 55.48}
MNIST_NAIVE_K16 = 31.69
MNIST_FLYHASH = {2: 18.94, 8: 24.24, 32: 32.30}
MNIST_SIMHASH = {2: 12.45, 8: 18.07, 32: 26.20}
CIFAR_BIOHASH = {2: 20.47, 8: 22.61, 32: 24.02}
MNIST_EUCLID_BIOHASH = {2: 39.57, 4: 54.40, 8: 65.53}
CONV_MNIST_K2 = 64.49
GLOVE_BIOHASH_K2 = 38.13

# circle-training schedules sized so the empirical angles settle well
# inside the stated tolerances (d=2 needs unit-length init; gap noise
# falls with sample count)
TOY_M2 = dict(n=50_000, eps0=5e-2, t_max=300)
TOY_M16 = dict(n=200_000, eps0=5e-2, t_max=150)
TOY_SEEDS = 5


# ----------------------------------------------------------- data loading

def load_or_skip(fmt):
    """The dataset under DATA_ROOT; skip, naming the directories searched,
    the missing file and its fetch script, when it is absent."""
    try:
        return datasets.load_dir(fmt, DATA_ROOT)
    except FileNotFoundError as exc:
        pytest.skip(f"{exc}, or set BIOHASH_DATA to the data root")


@pytest.fixture(scope="module")
def mnist():
    return load_or_skip("idx")


@pytest.fixture(scope="module")
def cifar():
    return load_or_skip("cifar")


@pytest.fixture(scope="module")
def glove():
    return load_or_skip("glove")


# --------------------------------------------------- 1-5: flat benchmarks

@pytest.mark.parametrize("k", sorted(MNIST_BIOHASH))
def test_c01_mnist_biohash_map(mnist, k):
    rep = evalbench.run_protocol(mnist, "mnist_label", "biohash", k, seed=0)
    assert rep.train_seconds < 900.0
    assert abs(rep.map_percent - MNIST_BIOHASH[k]) <= 3.0, rep.map_percent


def test_c02_mnist_naive_map(mnist):
    rep = evalbench.run_protocol(mnist, "mnist_label", "naivebiohash", 16, seed=0)
    assert abs(rep.map_percent - MNIST_NAIVE_K16) <= 3.0, rep.map_percent


@pytest.mark.parametrize("k", sorted(MNIST_FLYHASH))
def test_c03_mnist_flyhash_map(mnist, k):
    maps = [evalbench.run_protocol(mnist, "mnist_label", "flyhash", k,
                                   seed=s).map_percent for s in (0, 1, 2)]
    assert abs(np.mean(maps) - MNIST_FLYHASH[k]) <= 2.0, maps


@pytest.mark.parametrize("k", sorted(MNIST_SIMHASH))
def test_c03_mnist_simhash_map(mnist, k):
    maps = [evalbench.run_protocol(mnist, "mnist_label", "simhash", k,
                                   seed=s).map_percent for s in (0, 1, 2)]
    assert abs(np.mean(maps) - MNIST_SIMHASH[k]) <= 2.0, maps


@pytest.mark.parametrize("k", sorted(CIFAR_BIOHASH))
def test_c04_cifar_biohash_map(cifar, k):
    rep = evalbench.run_protocol(cifar, "cifar_label", "biohash", k, seed=0)
    assert abs(rep.map_percent - CIFAR_BIOHASH[k]) <= 2.0, rep.map_percent


@pytest.mark.parametrize("k", sorted(MNIST_EUCLID_BIOHASH))
def test_c05_mnist_euclidean_gt_map(mnist, k):
    rep = evalbench.run_protocol(mnist, "mnist_euclid100", "biohash", k,
                                 seed=0)
    assert abs(rep.map_percent - MNIST_EUCLID_BIOHASH[k]) <= 3.0, \
        rep.map_percent


# ------------------------------------------------ 6-8: convolutional runs

def test_c06_conv_mnist_full_config(mnist):
    rep = evalbench.run_protocol(mnist, "mnist_label", "bioconvhash", 2,
                                 seed=0,
                                 conv_config=convnet.mnist_conv_config())
    assert rep.train_seconds + rep.scan_seconds < 4 * 3600.0
    assert abs(rep.map_percent - CONV_MNIST_K2) <= 4.0, rep.map_percent


def test_c06_conv_reduced_beats_plain(mnist):
    conv = evalbench.run_protocol(
        mnist, "mnist_label", "bioconvhash", 2, seed=0,
        conv_config=convnet.mnist_conv_config(filters=100))
    plain = evalbench.run_protocol(mnist, "mnist_label", "biohash", 2, seed=0)
    assert conv.map_percent - plain.map_percent >= 10.0, \
        (conv.map_percent, plain.map_percent)


def test_c07_channel_inhibition_ablation(mnist):
    """Widening per-location inhibition from 10 to 100 active channels
    must cost at least 25 mAP points (38-point reference gap, measured
    with an 8-point allowance)."""
    maps = {}
    for k_ci in (10, 100):
        rep = evalbench.run_protocol(
            mnist, "mnist_label", "bioconvhash", 8, seed=0,
            conv_config=convnet.mnist_conv_config(k_ci=k_ci))
        maps[k_ci] = rep.map_percent
    assert maps[10] - maps[100] >= 25.0 - 8.0, maps


def test_c08_conv_shadow_robustness(cifar):
    clean = evalbench.run_protocol(
        cifar, "cifar_label", "bioconvhash", 8, seed=0,
        conv_config=convnet.cifar_conv_config())
    shadow = evalbench.run_protocol(
        cifar, "cifar_label", "bioconvhash", 8, seed=0,
        conv_config=convnet.cifar_conv_config(), shadow_queries=True)
    assert abs(clean.map_percent - shadow.map_percent) < 2.0, \
        (clean.map_percent, shadow.map_percent)


def test_c08_plain_hash_collapses_under_shadow(cifar):
    rep = evalbench.run_protocol(cifar, "cifar_label", "biohash", 8, seed=0,
                                 shadow_queries=True)
    assert rep.map_percent < 13.0, rep.map_percent


# ----------------------------------------------------- 9: smoothness bands

def test_c09_mnist_smoothness_bands(mnist):
    rep = evalbench.run_protocol(mnist, "mnist_label", "biohash", 16, seed=0,
                                 smoothness_pairs=100_000)
    assert rep.smooth_top >= 65.0, rep.smooth_top
    assert rep.smooth_bottom <= 15.0, rep.smooth_bottom


# ------------------------------------------------- 10: toy-model oracles

def _circle_fit(m, sigma, n, eps0, t_max, rep):
    density = None if sigma is None else CircleDensity(sigma)
    config = LearningConfig(m=m, p=2.0, delta=0.0, rank_r=2, eps0=eps0,
                            t_max=t_max, batch=100,
                            seed=subseed(100, f"fit:{m}:{rep}"),
                            converge_norm=0.0, unit_init=True)
    return toymodel.CircleFit(n, density, subseed(100, f"pts:{m}:{rep}"), config)


def test_c10_two_unit_angles_match_closed_form():
    """m=2 on width-0.5 exponential circle data: seed-averaged angles
    land within 0.05 rad of the analytic pair."""
    target = math.atan(0.5)
    angles = np.stack(toymodel.fit_circle_angles(
        _circle_fit(2, 0.5, rep=r, **TOY_M2) for r in range(TOY_SEEDS)))
    mean = angles.mean(axis=0)
    np.testing.assert_allclose(mean, [-target, target], atol=0.05)


def test_c10_sixteen_units_tile_uniform_circle():
    """m=16 on uniform circle data: seed-averaged consecutive gaps all
    within 5% of 2 pi / 16."""
    gap = 2.0 * math.pi / 16.0
    sorted_gaps = []
    for ang in toymodel.fit_circle_angles(_circle_fit(16, None, rep=r, **TOY_M16)
                                          for r in range(TOY_SEEDS)):
        gaps = np.diff(np.concatenate([ang, [ang[0] + 2.0 * math.pi]]))
        sorted_gaps.append(np.sort(gaps))
    mean_gaps = np.mean(sorted_gaps, axis=0)
    rel = np.abs(mean_gaps - gap) / gap
    assert rel.max() < 0.05, rel.max()


def test_c10_psi_limits():
    psi_flat = toymodel.solve_psi_m3(1e6)
    np.testing.assert_allclose(psi_flat, 2.0 * math.pi / 3.0, atol=1e-3)
    psi_peaked = toymodel.solve_psi_m3(0.01)
    np.testing.assert_allclose(psi_peaked, 2.0 * 0.01, rtol=0.10)


@pytest.mark.parametrize("hash_k", [1, 2])
def test_c10_kl_vanishes_for_flat_density(hash_k):
    sigma = 1e3
    psi = toymodel.solve_psi_m3(sigma)
    assert toymodel.kl_divergence(sigma, psi, hash_k) < 1e-2


def false_negative_mc(theta, m, trials, seed):
    """Monte-Carlo rate of split pairs under randomly rotated even unit
    placements (k=1 codes: nearest unit wins)."""
    rng = substream(seed, "fnmc")
    spacing = 2.0 * math.pi / m
    phi = rng.uniform(0.0, 2.0 * math.pi, size=trials)
    cell_a = np.floor(phi / spacing + 0.5).astype(np.int64) % m
    cell_b = np.floor((phi + theta) / spacing + 0.5).astype(np.int64) % m
    return float(np.mean(cell_a != cell_b))


@pytest.mark.parametrize("theta,m", [(math.pi / 8.0, 8), (0.2, 8), (1.2, 4)])
def test_c10_false_negative_matches_monte_carlo(theta, m):
    mc = false_negative_mc(theta, m, trials=1_000_000, seed=7)
    assert abs(toymodel.false_negative_prob(theta, m) - mc) < 0.01


# ------------------------------------------------- 11: property suites

def test_c11_energy_monotone_under_small_steps():
    """Full-batch updates at eps=1e-3 (p=2, no anti-alignment) never
    raise the alignment energy."""
    rng = substream(0, "emono")
    X = rng.normal(size=(400, 12))
    config = LearningConfig(m=10, p=2.0, delta=0.0, rank_r=2, eps0=1e-3,
                            t_max=1, batch=400, seed=9)
    sm = SynapseMatrix(substream(9, "init").standard_normal((10, 12)), config)
    energies = [plasticity.energy(sm, X)]
    for _ in range(150):
        plasticity.apply_batch(sm.weights, X, 1e-3, config.p, config.delta, config.rank_r)
        energies.append(plasticity.energy(sm, X))
    assert float(np.diff(energies).max()) <= 1e-9, np.diff(energies).max()


def test_c11_row_norms_near_unit_after_convergence():
    rng = substream(5, "iso")
    X = rng.normal(size=(1200, 10))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    config = LearningConfig(m=16, eps0=2e-2, t_max=100, batch=100, seed=2)
    sm, log = plasticity.train(X, config, log_energy=False)
    assert log.converged
    norms = plasticity.row_pnorms(sm.weights, config.p)
    assert norms.min() >= 0.9 and norms.max() <= 1.1, norms


@pytest.mark.parametrize("m,k", [(40, 2), (64, 4), (128, 16)])
def test_c11_wta_cardinality_exact(m, k):
    rng = substream(11, f"wta{m}")
    sm = SynapseMatrix(rng.normal(size=(m, 20)),
                       LearningConfig(m=m, seed=0))
    codes = hashers.biohash_encode_many(sm, rng.normal(size=(200, 20)), k)
    assert codes.shape == (200, k)
    assert (np.diff(codes.astype(np.int64), axis=1) > 0).all()
    assert codes.max() < m
    proj = hashers.build_projection("flyhash", 20, m,
                                    seed=subseed(11, "proj"))
    fcodes = hashers.flyhash_encode_many(proj, rng.normal(size=(50, 20)), k)
    assert fcodes.shape == (50, k)
    assert (np.diff(fcodes.astype(np.int64), axis=1) > 0).all()


@pytest.mark.parametrize("m,k", [(16, 1), (16, 2), (12, 3), (10, 5)])
def test_c11_sparse_dense_hamming_exhaustive(m, k):
    """Every pair of k-of-m codes: index-set Hamming distance equals the
    distance between the expanded sign vectors."""
    codes = np.array(list(itertools.combinations(range(m), k)),
                     dtype=np.uint32)
    bank = CodeBank("sparse", m, k, codes)
    dense = np.stack([bank.code(row).dense() for row in codes])
    for i in range(len(codes)):
        got = scan_distances(bank, bank.code(codes[i]))
        expected = (dense[i] != dense).sum(axis=1)
        np.testing.assert_array_equal(got, expected)


def ap_oracle(pattern, R):
    pattern = [bool(b) for b in pattern][:R]
    if not any(pattern):
        return 0.0
    total = hits = 0.0
    for pos, rel in enumerate(pattern):
        if rel:
            hits += 1.0
            total += hits / (pos + 1)
    return total / sum(pattern)


def test_c11_ap_matches_brute_force():
    rng = substream(13, "ap")
    for _ in range(300):
        n = int(rng.integers(1, 101))
        pattern = (rng.random(n) < 0.35).astype(int)
        R = int(rng.integers(1, n + 1))
        np.testing.assert_allclose(evalbench.ap_from_relevance(pattern, R),
                                   ap_oracle(pattern, R), rtol=1e-12)
    aps = rng.random(40)
    np.testing.assert_allclose(evalbench.mean_ap(aps),
                               100.0 * aps.mean(), rtol=1e-12)


def test_c11_positive_scale_invariance_all_encoders():
    rng = substream(17, "scale")
    d, n = 20, 60
    X = rng.normal(size=(n, d))
    sm = SynapseMatrix(rng.normal(size=(50, d)), LearningConfig(m=50, seed=0))
    naive_sm = SynapseMatrix(rng.normal(size=(8, d)),
                             LearningConfig(m=8, seed=0))
    fly = hashers.build_projection("flyhash", d, 10 * d,
                                   seed=subseed(17, "fly"))
    sim = hashers.build_projection("simhash", d, 8, seed=subseed(17, "sim"))
    pca_rows = hashers.pcahash_fit(X, 6)
    base = {
        "biohash": hashers.biohash_encode_many(sm, X, 4),
        "flyhash": hashers.flyhash_encode_many(fly, X, 4),
        "simhash": hashers.simhash_encode_many(sim, X),
        "pcahash": hashers.pcahash_encode_many(pca_rows, X),
        "naive": hashers.naive_encode_many(naive_sm, X),
    }
    for lam in (0.01, 0.5, 3.0, 100.0):
        Y = lam * X
        scaled = {
            "biohash": hashers.biohash_encode_many(sm, Y, 4),
            "flyhash": hashers.flyhash_encode_many(fly, Y, 4),
            "simhash": hashers.simhash_encode_many(sim, Y),
            "pcahash": hashers.pcahash_encode_many(pca_rows, Y),
            "naive": hashers.naive_encode_many(naive_sm, Y),
        }
        for name in base:
            np.testing.assert_array_equal(scaled[name], base[name],
                                          err_msg=f"{name} at lambda={lam}")


def test_c11_conv_global_intensity_invariance():
    rng = substream(19, "convinv")
    imgs = rng.random(size=(40, 36))
    config = ConvConfig(branches=(ConvBranch(3, 8, 0.1, 1e-2),), k_ci=3,
                        layout=(6, 6, 1), pool_kernel=2, pool_stride=2,
                        filter_t_max=10)
    model, _ = convnet.conv_fit(imgs, config, k=2, activity=0.1, seed=23,
                                hash_overrides={"t_max": 10})
    base = convnet.conv_encode_many(model, imgs, 2)
    for lam in (2.0, 0.5, 3.0):
        np.testing.assert_array_equal(
            convnet.conv_encode_many(model, lam * imgs, 2), base,
            err_msg=f"lambda={lam}")


# ------------------------------------------------ 12: conditional corpus

def test_c12_glove_biohash_map(glove):
    rep = evalbench.run_protocol(glove, "glove_partition", "biohash", 2,
                                 seed=0, partitions=10)
    assert abs(rep.map_percent - GLOVE_BIOHASH_K2) <= 4.0, rep.map_percent
