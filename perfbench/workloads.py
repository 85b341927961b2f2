"""The benchmark workloads.

Each workload is one process with a single client in a closed loop: an
iteration runs the cell (the program's own entry point on the generated
inputs), then the index phase (encode the database, build a CodeBank,
save it as BHC1 and load it back, as CLI `encode` then `search` do), then
the search phase (held-out queries one at a time, each encoded and
scanned). Every phase waits for the one before it. The program sees only
the arrays generated from the workload seed.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import synth
from biohash import cli, codebank, datasets, evalbench, hashers, plasticity
from biohash.seeds import subseed

K = 32  # hash length of every MNIST-shaped cell, as in the paper's tables
SEARCH_QUERIES = 2000  # p99 then has 20 samples above it per iteration
TOP_R = 100  # depth a search returns
CHECKED_QUERIES = 100  # per iteration, compared with a brute-force ranking


@dataclass
class Outcome:
    """What one iteration measured and how many of its operations failed."""

    cell_s: float
    index_s: list
    query_s: np.ndarray
    quality: dict
    file_bytes: int = 0
    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)

    def count(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)


def reference_ranking(codes: np.ndarray, code: np.ndarray, kind: str, m: int, top_r: int):
    """Brute-force ranking: ids ordered by (Hamming distance, id).

    Sparse codes are index sets, distance 2 * (k - |intersection|); dense
    codes are sign vectors, distance the number of differing signs.
    """
    if kind == "sparse":
        member = np.zeros(m, dtype=bool)
        member[code] = True
        dist = 2 * (codes.shape[1] - member[codes].sum(axis=1))
    else:
        dist = (codes != code[None, :]).sum(axis=1)
    order = np.lexsort((np.arange(dist.size), dist))[:top_r]
    return order, dist[order]


class Workload:
    """Cell plus index and search over one hashed database.

    Subclasses set `sizes` ({name: (value, why)}) and implement generate,
    prepare, `_cell` and `encode`; prepare sets `db`, `queries`, `kind`,
    `m` and `k` for the index and search phases.
    """

    name = ""
    why = ""
    sizes: dict = {}
    # small banks index several times, so that each iteration's index
    # samples span about a second rather than one short noise burst
    index_repeats = 1

    def __init__(self, seed: int):
        self.seed = seed
        self.first_quality = None

    def generate(self):
        raise NotImplementedError

    def prepare(self, inputs):
        raise NotImplementedError

    def encode(self, X) -> np.ndarray:
        raise NotImplementedError

    def _query_code(self, code):
        if self.kind == "sparse":
            return hashers.SparseHashCode(self.m, self.k, code)
        return hashers.DenseHashCode(self.k, code)

    def iteration(self, workdir: Path, number: int, phase=None) -> Outcome:
        """One closed-loop round; `phase(name)` opens a tracing span.
        Checks run between timed operations, never inside them."""
        phase = phase or (lambda name: contextlib.nullcontext())
        t0 = time.perf_counter()
        with phase("bench.cell"):
            quality, ops = self._cell()
        out = Outcome(time.perf_counter() - t0, [], np.empty(len(self.queries)), quality)
        for ok, what in ops:
            out.count(ok, what)
        # the cell is deterministic for a seed, so every iteration must agree
        if self.first_quality is None:
            self.first_quality = quality
        out.count(quality == self.first_quality,
                  f"cell result changed: {quality} vs {self.first_quality}")

        path = workdir / "database.bhc1"
        for _ in range(self.index_repeats):
            t0 = time.perf_counter()
            with phase("bench.index"):
                written = self.encode(self.db)
                codebank.CodeBank(self.kind, self.m, self.k, written).save(path)
                bank = codebank.CodeBank.load(path)
            out.index_s.append(time.perf_counter() - t0)
            out.count(bank.kind == self.kind and bank.m == self.m
                      and np.array_equal(bank.codes, written), "BHC1 round trip changed the codes")
        out.file_bytes = path.stat().st_size

        rng = np.random.default_rng([self.seed, number])
        checked = set(rng.choice(len(self.queries), size=CHECKED_QUERIES, replace=False).tolist())
        with phase("bench.search"):
            for i, x in enumerate(self.queries):
                t0 = time.perf_counter()
                code = self.encode(x[None])[0]
                ranked = codebank.linear_scan(self._query_code(code), bank, top_r=TOP_R)
                out.query_s[i] = time.perf_counter() - t0
                ok = (np.array_equal(code, self.query_codes[i]) and ranked.ids.size == TOP_R
                      and bool(np.all(np.diff(ranked.distances.astype(np.int64)) >= 0)))
                if ok and i in checked:
                    ids, dist = reference_ranking(written, code, self.kind, self.m, TOP_R)
                    ok = np.array_equal(ranked.ids, ids) and np.array_equal(ranked.distances, dist)
                out.count(ok, f"query {i}: ranking differs from the reference")
        return out

    def _cell(self):
        raise NotImplementedError


def _guarded(fn, *args):
    """Run one cell; an exception is a failed operation, not a crash."""
    try:
        return fn(*args), None
    except Exception:  # noqa: BLE001 - the loop keeps running and reports it
        traceback.print_exc(file=sys.stderr)
        return None, "raised"


class MnistWorkload(Workload):
    """MNIST-shaped rows; held-out rows drawn from the same generator serve
    as search queries."""

    rows = 0
    protocol = ""
    methods: tuple = ()

    def generate(self):
        return synth.mnist_like(self.rows + SEARCH_QUERIES, self.seed)

    def prepare(self, inputs):
        X, y = inputs
        self.ds = datasets.DataSet(X[:self.rows], y[:self.rows], source="synthetic-mnist")
        centered, mean = datasets.center(self.ds)
        self.db = centered.data
        self.queries = datasets.center(datasets.DataSet(X[self.rows:]), mean)[0].data
        self._fit()
        self.query_codes = self.encode(self.queries)

    def _cell(self):
        quality, ops = {}, []
        for method in self.methods:
            report, err = _guarded(self._run, method)
            ok = err is None and 0.0 < report.map_percent <= 100.0
            ops.append((ok, f"{method} cell {err or 'gave an mAP outside (0, 100]'}"))
            if report is not None:
                quality[f"map_pct.{method}"] = report.map_percent
        return quality, ops


class MnistBiohash(MnistWorkload):
    name = "mnist-biohash"
    why = ("paper headline cell (mnist_label, biohash, k=32, m=640): training-bound cell, "
           "full-depth ranking, single-query latency on a trained sparse index")
    rows = 20000
    protocol = "mnist_label"
    methods = ("biohash",)
    sizes = {
        "rows": (rows, "training is more than half of the cell, so training-loop changes show"),
        "m": (640, "k / 0.05, the paper's MNIST activity"),
        "k": (K, "a hash length of the paper's MNIST table"),
        "t_max": (3, "three epochs keep the cell near 6.5 s on one core"),
        "queries": (SEARCH_QUERIES, "held-out rows; p99 has 20 samples above it"),
        "top_r": (TOP_R, "depth of each search"),
    }
    kind = "sparse"
    m = 640
    k = K

    def _run(self, method):
        return evalbench.run_protocol(self.ds, self.protocol, method, K, seed=self.seed,
                                      activity=K / self.m, learn={"t_max": 3})

    def _fit(self):
        # the searched model is trained as the cell trains its own
        config = plasticity.LearningConfig(m=self.m, t_max=3, seed=subseed(self.seed, "index"))
        self.sm, _ = plasticity.train(self.db, config)

    def encode(self, X):
        return hashers.biohash_encode_many(self.sm, X, self.k)


class MnistBaselines(MnistWorkload):
    name = "mnist-baselines"
    why = ("flyhash (m=7840), simhash and pcahash under 100-NN ground truth: no plasticity "
           "code; top-k and power iteration dominate; dense popcount index")
    rows = 6000
    protocol = "mnist_euclid100"
    methods = ("flyhash", "simhash", "pcahash")
    sizes = {
        "rows": (rows, "two iterations fit in one run; flyhash top-k still dominates"),
        "flyhash_m": (7840, "10 * d, the paper's flyhash expansion"),
        "k": (K, "a hash length of the paper's MNIST table"),
        "index_repeats": (75, "a 6k-row dense index takes about 16 ms; 75 span about 1 s"),
        "queries": (SEARCH_QUERIES, "held-out rows; p99 has 20 samples above it"),
        "top_r": (TOP_R, "depth of each search"),
    }
    index_repeats = 75
    kind = "dense"
    m = K
    k = K

    def _run(self, method):
        extra = {"flyhash_m": 7840} if method == "flyhash" else {}
        return evalbench.run_protocol(self.ds, self.protocol, method, K, seed=self.seed, **extra)

    def _fit(self):
        self.proj = hashers.build_projection("simhash", self.db.shape[1], self.k,
                                             seed=subseed(self.seed, "index"))

    def encode(self, X):
        return hashers.simhash_encode_many(self.proj, X)


class CircleToy(Workload):
    name = "circle-toy"
    why = ("the toy CLI on the d=2 circle (m=16): per-batch Python overhead of training "
           "dominates; an index whose posting lists are long")
    units = 16
    seeds = 5
    samples = 200000
    t_max = 3
    database = 20000
    sizes = {
        "m": (units, "the toy's tiling of the uniform circle"),
        "seeds": (seeds, "the toy's default repetitions"),
        "samples": (samples, "2000 batches per epoch, so per-batch overhead dominates"),
        "t_max": (t_max, "few epochs keep one toy call near 2 s"),
        "database": (database, "circle points in the searched bank"),
        "k": (2, "two active units of 16"),
        "index_repeats": (100, "a 20k-point index at d=2 takes about 10 ms; 100 span about 1 s"),
        "queries": (SEARCH_QUERIES, "held-out points; p99 has 20 samples above it"),
        "top_r": (TOP_R, "depth of each search"),
    }
    index_repeats = 100
    kind = "sparse"
    m = units
    k = 2

    def generate(self):
        db = datasets.sample_circle(self.database, None, subseed(self.seed, "database"))
        queries = datasets.sample_circle(SEARCH_QUERIES, None, subseed(self.seed, "queries"))
        return db.data, queries.data

    def prepare(self, inputs):
        self.db, self.queries = inputs
        # the toy's own schedule: unit-length init, no norm-based early stop
        config = plasticity.LearningConfig(m=self.units, eps0=5e-2, t_max=self.t_max,
                                           seed=subseed(self.seed, "index"),
                                           converge_norm=0.0, unit_init=True)
        self.sm, _ = plasticity.train(self.db, config)
        self.query_codes = self.encode(self.queries)

    def encode(self, X):
        return hashers.biohash_encode_many(self.sm, X, self.k)

    def _cell(self):
        argv = ["toy", "--m", str(self.units), "--uniform", "--seeds", str(self.seeds),
                "--samples", str(self.samples), "--t-max", str(self.t_max),
                "--seed", str(self.seed)]
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            code, err = _guarded(cli.main, argv)
        gaps, ops = [], []
        rows = list(csv.DictReader(io.StringIO(text.getvalue()))) if code == 0 else []
        for rep in range(self.seeds):
            angles = _angles(rows[rep]) if rep < len(rows) else None
            ok = angles is not None and angles.size == self.units and np.isfinite(angles).all()
            ops.append((ok, f"toy seed {rep}: exit {code}, {err or 'no valid angle row'}"))
            if ok:
                gaps.append(np.sort(np.diff(np.sort(angles), append=angles.min() + 2 * math.pi)))
        if not gaps:
            return {}, ops
        # unit gaps sorted per seed, averaged over seeds, against the even tiling
        even = 2 * math.pi / self.units
        err_pct = float(np.abs(np.mean(gaps, axis=0) - even).max() / even * 100.0)
        return {"gap_err_pct": err_pct}, ops


def _angles(row):
    try:
        return np.array([float(v) for v in row["empirical_angles"].split(";")])
    except (KeyError, AttributeError, ValueError):
        return None


WORKLOADS = {w.name: w for w in (MnistBiohash, MnistBaselines, CircleToy)}
