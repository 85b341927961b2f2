"""Closed-form results for learning on a circle, used as oracles.

For data on the unit circle with density alpha * exp(-|phi| / sigma), the
hidden-unit positions, the divergence between the data distribution and
the distribution it induces over codes, and the false-negative rate of
nearest-unit hashing all have analytic forms. Trained weight matrices are
checked against these; `fit_circle_angles` trains them, one independent
fit per (density, seed), on every usable core.
"""

from __future__ import annotations

import csv
import math
from typing import NamedTuple, Optional, Tuple

import numpy as np

from . import datasets, hashers, plasticity
from .errors import DegenerateRow, DomainError, NoBracket


def analytic_m2(sigma: float) -> Tuple[float, float]:
    """Optimal two-unit angles (+arctan sigma, -arctan sigma)."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    a = math.atan(sigma)
    return (a, -a)


def _psi_equation(psi: float, sigma: float) -> float:
    return ((sigma * math.cos(psi) - math.sin(psi)) * math.exp(-math.pi / sigma)
            + (sigma * math.cos(psi / 2) - math.sin(psi / 2)) * math.exp(-psi / (2 * sigma)))


def solve_psi_m3(sigma: float) -> float:
    """Flank angle for three units: the root of the stationarity equation.

    Brent's method on (0, pi) to a relative tolerance of 4 ulp; the bracket
    is validated first (NoBracket without a sign change).
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    lo, hi = 1e-12, math.pi - 1e-12
    flo, fhi = _psi_equation(lo, sigma), _psi_equation(hi, sigma)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0) == (fhi > 0):
        raise NoBracket(f"no sign change on (0, pi) at sigma={sigma}")
    # imported here: the circle toy without psi never pays for scipy.optimize
    from scipy.optimize import brentq

    return brentq(_psi_equation, lo, hi, args=(sigma,), xtol=1e-300,
                  rtol=4 * np.finfo(float).eps)


def _cell_masses(sigma: float, psi: float):
    """Probability mass and arc length of each code cell for three units.

    Returns ((P_center, len_center), (P_flank, len_flank) twice) for the
    one-active-unit code and ((P_wrap, len), (P_rest, len)) for the
    two-active-unit code, all under the exponential circle density.
    """
    q = math.exp(-math.pi / sigma)
    z = 1.0 - q
    p_center = (1.0 - math.exp(-psi / (2 * sigma))) / z
    p_flank = (math.exp(-psi / (2 * sigma)) - q) / (2 * z)
    p_wrap = (math.exp(-(math.pi - psi / 2) / sigma) - q) / z
    return (p_center, psi, p_flank, math.pi - psi / 2), (p_wrap, psi, 1.0 - p_wrap, 2 * math.pi - psi)


def _entropy_term(sigma: float) -> float:
    # integral of rho * ln(rho) minus ln(alpha); equals -E|phi| / sigma
    q = math.exp(-math.pi / sigma)
    return -(sigma - (math.pi + sigma) * q) / (sigma * (1.0 - q))


def kl_divergence(sigma: float, psi: float, hash_k: int) -> float:
    """Divergence between the circle density and the code-induced density.

    hash_k = 1 activates the nearest of the three units (three cells);
    hash_k = 2 activates the nearest two (two distinct codes).
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    if hash_k not in (1, 2):
        raise ValueError("hash_k must be 1 or 2")
    if not (0.0 < psi < 2.0 * math.pi / 3.0 + 1e-9):
        raise DomainError(f"psi={psi} outside (0, 2*pi/3]")
    alpha = 1.0 / (2.0 * sigma * (1.0 - math.exp(-math.pi / sigma)))
    (p0, len0, p1, len1), (pw, lenw, pr, lenr) = _cell_masses(sigma, psi)
    if hash_k == 1:
        cells = [(p0, len0), (p1, len1), (p1, len1)]
    else:
        cells = [(pw, lenw), (pr, lenr)]
    total = _entropy_term(sigma)
    for mass, length in cells:
        if mass <= 0.0:
            raise DomainError(f"cell mass {mass:.3e} is not positive")
        # rho-weighted log of (rho normalization / induced density)
        total -= mass * math.log(mass / (alpha * length))
    return total


def false_negative_prob(theta: float, m: int) -> float:
    """Chance that two points theta apart land in different nearest-unit
    cells, for m units evenly spread (smooth-density limit, one active unit).

    Linear in theta up to 2*pi/m, then saturates at 1; continuous at the knee.
    """
    if not (0.0 <= theta <= math.pi):
        raise ValueError("theta must lie in [0, pi]")
    if m < 1:
        raise ValueError("m must be >= 1")
    knee = 2.0 * math.pi / m
    if theta <= knee:
        return m * theta / (2.0 * math.pi)
    return 1.0


def empirical_unit_angles(W) -> np.ndarray:
    """Sorted atan2 angle of each weight row (d must be 2)."""
    weights = np.asarray(getattr(W, "weights", W), dtype=np.float64)
    if weights.ndim != 2 or weights.shape[1] != 2:
        raise ValueError(f"need (m, 2) weights, got {weights.shape}")
    norms = np.linalg.norm(weights, axis=1)
    if (norms < 1e-6).any():
        bad = int(np.argmin(norms))
        raise DegenerateRow(f"row {bad} has norm {norms[bad]:.3e}")
    return np.sort(np.arctan2(weights[:, 1], weights[:, 0]))


class CircleFit(NamedTuple):
    """One fit: `samples` points drawn from `density` (None: uniform) with
    `sample_seed`, trained with `config`."""

    samples: int
    density: Optional[datasets.CircleDensity]
    sample_seed: int
    config: plasticity.LearningConfig


def fit_angles(fit: CircleFit) -> np.ndarray:
    """Sorted unit angles of one trained fit."""
    pts = datasets.sample_circle(fit.samples, fit.density, fit.sample_seed)
    sm, _ = plasticity.train(pts, fit.config)
    return empirical_unit_angles(sm)


def fit_circle_angles(fits) -> list:
    """`fit_angles` of every fit, in order.

    Fit i runs in process i mod w, w = min(usable cores, fits): process 0
    is the caller and the others are workers forked for this call. Each
    process holds one fit's points at a time, and every fit is seeded on
    its own, so the angles do not depend on w. The fits run inline, with
    no process started, for one fit, one usable core, no `fork` start
    method, or another live thread (a fork copies only the calling one).
    The error raised is the one the inline loop would raise: the first
    failing fit's. A worker that dies raises RuntimeError, and no worker
    outlives the call.
    """
    fits = list(fits)
    workers = min(hashers.usable_cores(), len(fits))
    if workers > 1:
        import multiprocessing
        import threading

        if threading.active_count() > 1 or "fork" not in multiprocessing.get_all_start_methods():
            workers = 1
    if workers < 2:
        return [fit_angles(fit) for fit in fits]
    # Process.start flushes stdout and stderr before it forks, so no child
    # writes out again what is buffered here
    ctx = multiprocessing.get_context("fork")
    procs, pipes = [], []
    try:
        for w in range(1, workers):
            recv, send = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_fit_worker, args=(fits[w::workers], send),
                               name=f"biohash-fit-{w}", daemon=True)
            proc.start()
            # closed before the next fork, so a dead worker's pipe reads EOF
            send.close()
            procs.append(proc)
            pipes.append(recv)
        angles = [None] * len(fits)
        failed, error = len(fits), None
        for i in range(0, len(fits), workers):
            try:
                angles[i] = fit_angles(fits[i])
            except Exception as exc:  # raised below unless an earlier fit failed
                failed, error = i, exc
                break
        for i in range(failed):
            if i % workers:
                angles[i] = _receive(procs[i % workers - 1], pipes[i % workers - 1])
        if error is not None:
            raise error
        for proc in procs:
            proc.join()
        return angles
    finally:
        for proc in procs:
            if proc.is_alive():  # only when the call leaves early
                proc.terminate()
            proc.join()
        for pipe in pipes:
            pipe.close()


def _fit_worker(fits, conn):
    """Send (True, angles) per fit in order, or (False, error) and stop."""
    for fit in fits:
        try:
            message = (True, fit_angles(fit))
        except Exception as exc:
            message = (False, exc)
        conn.send(message)
        if not message[0]:
            return


def _receive(proc, pipe):
    try:
        ok, value = pipe.recv()
    except EOFError:
        proc.join()
        raise RuntimeError(f"circle fit worker {proc.name} died "
                           f"(exit code {proc.exitcode})") from None
    if not ok:
        raise value
    return value


def write_toy_csv(path_or_file, rows):
    """Emit (sigma, m, analytic, empirical, kl_k1, kl_k2) rows for plotting.

    Angle lists are ';'-joined in file order. Missing values are blank.
    Accepts a path or an open text stream.
    """

    def fmt(val):
        if val is None:
            return ""
        if isinstance(val, (list, tuple, np.ndarray)):
            return ";".join(f"{float(v):.10g}" for v in val)
        return f"{float(val):.10g}"

    def emit(f):
        writer = csv.writer(f)
        writer.writerow(["sigma", "m", "analytic_angles", "empirical_angles",
                         "kl_k1", "kl_k2"])
        for sigma, m, analytic, empirical, kl1, kl2 in rows:
            writer.writerow([fmt(sigma), int(m), fmt(analytic), fmt(empirical),
                             fmt(kl1), fmt(kl2)])

    if hasattr(path_or_file, "write"):
        emit(path_or_file)
    else:
        with open(path_or_file, "w", newline="") as f:
            emit(f)
