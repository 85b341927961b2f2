"""Offline quality gate: seeded synthetic runs pin every mAP and every code.

The acceptance tests need the real datasets and skip without them, so
these runs stand in for them: each protocol cell runs end to end on
MNIST-shaped rows from the benchmark's generator (`perfbench/synth.py`),
and the toy runs on the uniform circle. Each mAP is pinned to 1e-4 and
the database and query codes to a sha1, so a change to training, the top-k
tie rule, centering, the sign rule or ranking cannot pass unnoticed. A
change that moves a pin updates it and names the old and new values.

The pins were taken with numpy 2.4 and OpenBLAS on x86-64; the digests
hold only as long as every product rounds the same way.
"""

import hashlib
import math
import threading

import numpy as np
import pytest

from biohash import cli, convnet, evalbench, hashers
from biohash.datasets import DataSet, center, protocol_split
from biohash.hashers import METHODS
from biohash.seeds import subseed, substream

SEED = 4002
ROWS = 1400  # 100 queries per class; the other 400 rows train and form the database
K = 16
LEARN = {"t_max": 20}  # the flat learned methods' schedule, cut from 100 epochs

CONV = convnet.ConvConfig(branches=(convnet.ConvBranch(5, 16, 0.1, 2e-2),), k_ci=4,
                          layout=(28, 28, 1), pool_kernel=7, pool_stride=4,
                          patch_subsample=20000, filter_t_max=10)

# (protocol, method) -> (mAP percent, sha1 of database then query codes); both
# protocols split and train alike, so biohash has one code digest
PINS = {
    ("mnist_euclid100", "biohash"): (78.135790, "2e880fe34c6788653b6fe4cb361443fccb5fde21"),
    ("mnist_label", "bioconvhash"): (26.656330, "b061da7ca3037cfd41d461037aed0873472930a5"),
    ("mnist_label", "biohash"): (49.428942, "2e880fe34c6788653b6fe4cb361443fccb5fde21"),
    ("mnist_label", "flyhash"): (44.531900, "552045606eaaea0ec1912ca38be5d9e19c08d258"),
    ("mnist_label", "naivebiohash"): (39.497352, "aec76d1c2ac3ab87a7e958298146c8011fcd6786"),
    ("mnist_label", "pcahash"): (41.665731, "0173b070be9be33ed50936709793ad68068259ac"),
    ("mnist_label", "simhash"): (33.781680, "b6eb7a2b6b4abcae080f991c8b257302f3d893fb"),
}

TOY_M = 8
TOY_ARGS = ["toy", "--m", str(TOY_M), "--uniform", "--seeds", "2", "--samples", "4000",
            "--t-max", "20", "--seed", str(SEED)]
TOY_GAP_ERR_PCT = 7.401008
TOY_CSV_SHA1 = "80c1d4c9b2c11c176476862a716953dfb6ad02e1"


@pytest.fixture(scope="module")
def digits(mnist_like):
    X, labels = mnist_like(ROWS, SEED)
    return DataSet(X, labels, source="mnist_like")


def spy_on_codes(monkeypatch):
    """Collect the database and query codes of every `evaluate_queries` call."""
    banks = []
    scan = evalbench.evaluate_queries

    def spy(bank, query_codes, *args, **kwargs):
        banks.append((bank.codes, query_codes))
        return scan(bank, query_codes, *args, **kwargs)

    monkeypatch.setattr(evalbench, "evaluate_queries", spy)
    return banks


def codes_sha1(banks):
    digest = hashlib.sha1()
    for db_codes, query_codes in banks:
        digest.update(np.ascontiguousarray(db_codes).tobytes())
        digest.update(np.ascontiguousarray(query_codes).tobytes())
    return digest.hexdigest()


def run_pinned_cell(digits, monkeypatch, protocol, method, **options):
    """Run one protocol cell; return its report and the sha1 of its codes."""
    banks = spy_on_codes(monkeypatch)
    report = evalbench.run_protocol(
        digits, protocol, method, K, seed=SEED, learn=LEARN,
        conv_config=CONV if method == "bioconvhash" else None, **options)
    assert len(banks) == 1
    return report, codes_sha1(banks)


@pytest.mark.parametrize("protocol,method", sorted(PINS))
def test_protocol_cell_is_pinned(digits, monkeypatch, protocol, method):
    want_map, want_sha1 = PINS[protocol, method]
    report, got_sha1 = run_pinned_cell(digits, monkeypatch, protocol, method)
    assert report.map_percent == pytest.approx(want_map, abs=1e-4)
    assert got_sha1 == want_sha1


@pytest.mark.parametrize("protocol,method",
                         sorted(key for key in PINS if key[1] in ("biohash", "bioconvhash")))
def test_learned_cell_is_pinned_through_workers(digits, monkeypatch, protocol, method):
    """The learned encoders' batches here fit one 2048-row block, so the
    cells above encode them inline; cut into 128-row blocks on two workers
    they must give the same mAP and codes."""
    blocks = hashers.block_products
    monkeypatch.setattr(hashers, "PARALLEL_MIN", 0)
    monkeypatch.setattr(hashers, "usable_cores", lambda: 2)
    monkeypatch.setattr(hashers, "block_products",
                        lambda n, size, product, work: blocks(n, min(size, 128), product, work))
    pooled = []  # per selection: were the workers running?
    monkeypatch.setattr(hashers, "topk_rows", lambda R, k, topk=hashers.topk_rows: pooled.append(
        any(t.name.startswith("biohash-encode") for t in threading.enumerate())) or topk(R, k))
    want_map, want_sha1 = PINS[protocol, method]
    report, got_sha1 = run_pinned_cell(digits, monkeypatch, protocol, method)
    assert any(pooled)
    assert report.map_percent == pytest.approx(want_map, abs=1e-4)
    assert got_sha1 == want_sha1


# the paths the cells above do not take: the activity sweep's validation
# carve, glove's database partitions, smoothness bands and shadowed queries
SWEEP_ACTIVITIES = (0.1, 0.05)
SWEEP_PER_CLASS = 10  # of the 400 train rows, 100 validate and 300 train
SWEEP_PIN = ([(0.1, 160, 52.885464), (0.05, 320, 52.842957)],
             "e3d1664cd7df99aa2ee67bea1c8515350b04566b")

GLOVE_SHAPE = (10_050, 24)  # glove_partition's 10,000 database rows, 50 to train
GLOVE_K = 4
# method -> (mAP percent per partition, sha1 of every partition's codes)
GLOVE_PINS = {
    "biohash": ([28.232204, 27.334701], "94204c5db2f3a153d6155391b9c289f26429192c"),
    "flyhash": ([22.548324, 22.236490], "f7acf4e2bbbd8e02e54a2f3e2196215ca8811f79"),
}

SMOOTH_PAIRS = 2000
# method -> (top, bottom) decile smoothness, percent
SMOOTH_PINS = {"biohash": (76.118814, 15.234694), "simhash": (44.029950, 19.639871)}

SHADOWED_CONV_PIN = (25.459093, "dff2a538cb644f3f425e9fd57998990ca46c6e98")


@pytest.fixture(scope="module")
def embeddings():
    return DataSet(substream(SEED, "glove").normal(size=GLOVE_SHAPE))


def test_activity_sweep_is_pinned(digits, monkeypatch):
    banks = spy_on_codes(monkeypatch)
    split = protocol_split(digits, "mnist_label", subseed(SEED, "split"))
    rows = evalbench.activity_sweep(digits, split, K, SWEEP_ACTIVITIES, seed=SEED,
                                    learn=LEARN, per_class=SWEEP_PER_CLASS)
    want_rows, want_sha1 = SWEEP_PIN
    assert [(a, m) for a, m, _ in rows] == [(a, m) for a, m, _ in want_rows]
    assert [mp for _, _, mp in rows] == pytest.approx([mp for _, _, mp in want_rows], abs=1e-4)
    assert codes_sha1(banks) == want_sha1


@pytest.mark.parametrize("method", sorted(GLOVE_PINS))
def test_glove_partitions_are_pinned(embeddings, monkeypatch, method):
    banks = spy_on_codes(monkeypatch)
    report = evalbench.run_protocol(embeddings, "glove_partition", method, GLOVE_K,
                                    seed=SEED, learn=LEARN, partitions=2)
    want_maps, want_sha1 = GLOVE_PINS[method]
    assert report.config["partition_maps"] == pytest.approx(want_maps, abs=1e-4)
    assert report.map_percent == pytest.approx(np.mean(want_maps), abs=1e-4)
    assert len(banks) == 2
    assert codes_sha1(banks) == want_sha1


@pytest.mark.parametrize("method", sorted(SMOOTH_PINS))
def test_smoothness_bands_are_pinned(digits, monkeypatch, method):
    report, got_sha1 = run_pinned_cell(digits, monkeypatch, "mnist_label", method,
                                       smoothness_pairs=SMOOTH_PAIRS)
    want_map, want_sha1 = PINS["mnist_label", method]
    assert report.map_percent == pytest.approx(want_map, abs=1e-4)
    assert got_sha1 == want_sha1
    assert (report.smooth_top, report.smooth_bottom) == pytest.approx(SMOOTH_PINS[method],
                                                                      abs=1e-4)


def test_shadowed_conv_cell_is_pinned(digits, monkeypatch):
    report, got_sha1 = run_pinned_cell(digits, monkeypatch, "mnist_label", "bioconvhash",
                                       shadow_queries=True)
    want_map, want_sha1 = SHADOWED_CONV_PIN
    assert report.map_percent == pytest.approx(want_map, abs=1e-4)
    assert got_sha1 == want_sha1


@pytest.mark.parametrize("method", sorted(METHODS))
def test_blank_query_follows_the_tie_rules(digits, method):
    """Centered pixel rows never tie, so the cells above cannot see what
    happens at a tie. A query equal to the training mean centers to zeros
    and ties every response: a sparse code keeps the K lowest units, and a
    sign code reads +1 everywhere (sign(0) = +1)."""
    spec = METHODS[method]
    train = center(DataSet(digits.data[:400]))[0].data
    m = spec.m(K, evalbench.PROTOCOL_ACTIVITY["mnist_label"], None, train.shape[1])
    state, _ = spec.fit(train, m, SEED, LEARN)
    code = spec.encode(state, np.zeros((1, train.shape[1])), K)[0]
    np.testing.assert_array_equal(code, np.arange(K) if spec.kind == "sparse" else np.ones(m))


def test_toy_is_pinned(capsys):
    """Learned unit angles on the uniform circle: the CSV bytes and the
    largest gap between neighbouring units, averaged over seeds, against
    the even tiling (the benchmark's `gap_err_pct`)."""
    assert cli.main(TOY_ARGS) == 0
    text = capsys.readouterr().out
    gaps = []
    for line in text.splitlines()[1:]:
        angles = np.array([float(v) for v in line.split(",")[3].split(";")])
        assert angles.size == TOY_M
        gaps.append(np.sort(np.diff(np.sort(angles), append=angles.min() + 2 * math.pi)))
    even = 2 * math.pi / TOY_M
    gap_err_pct = float(np.abs(np.mean(gaps, axis=0) - even).max() / even * 100.0)
    assert gap_err_pct == pytest.approx(TOY_GAP_ERR_PCT, abs=1e-4)
    assert hashlib.sha1(text.encode()).hexdigest() == TOY_CSV_SHA1
