"""Shared fixtures and independent oracles.

The numerical oracles here deliberately avoid the library's solution paths:
explicit cofactor inverses for normal equations, a thin SVD for gated least
squares, circumcircle fits for concyclicity, finite differences for
Jacobians. The replay oracle checks the
batched Monte Carlo engine against the per-call estimators, trial by trial.
"""

import numpy as np
import pytest
from hypothesis import strategies as st

from rssloc.bench import scenario_registry, sweep_point
from rssloc.errors import RssLocError
from rssloc.estimators import (
    ls_known_variance,
    ls_unknown_variance,
    estimate_stack,
    ml_reference,
    two_step,
)
from rssloc.geometry import GRAM_CONDITION_LIMIT
from rssloc.model import NoiseModel, generate_measurements, trial_rng


@pytest.fixture(scope="session")
def scenario_2d():
    return scenario_registry()["2d-fixed"]


@pytest.fixture(scope="session")
def scenario_3d():
    return scenario_registry()["3d-fixed"]


@pytest.fixture(scope="session")
def random_family():
    return scenario_registry()["2d-random"]


SQUARE_CORNERS = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])

COLLINEAR_2D = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])


def det_recursive(mat):
    """Determinant by cofactor expansion; independent of numpy.linalg."""
    mat = np.asarray(mat, dtype=float)
    k = mat.shape[0]
    if k == 1:
        return mat[0, 0]
    if k == 2:
        return mat[0, 0] * mat[1, 1] - mat[0, 1] * mat[1, 0]
    total = 0.0
    for j in range(k):
        minor = np.delete(np.delete(mat, 0, axis=0), j, axis=1)
        total += (-1.0) ** j * mat[0, j] * det_recursive(minor)
    return total


def cofactor_inverse(mat):
    """Explicit adjugate/determinant inverse for small matrices."""
    mat = np.asarray(mat, dtype=float)
    k = mat.shape[0]
    det = det_recursive(mat)
    cof = np.empty((k, k))
    for i in range(k):
        for j in range(k):
            minor = np.delete(np.delete(mat, i, axis=0), j, axis=1)
            cof[i, j] = (-1.0) ** (i + j) * det_recursive(minor)
    return cof.T / det


def normal_equations_solve(design, rhs):
    """Brute-force least squares: (A^T A)^{-1} A^T b via cofactor inverse."""
    gram = design.T @ design
    return cofactor_inverse(gram) @ (design.T @ rhs)


def svd_solve(a, rhs):
    """min ||a x - rhs|| for a stack a (g, k, c), g in {1, t}, and rhs (t, k)
    by one thin SVD per matrix: the oracle of the library's normal-matrix
    solve. A matrix is bad where it has fewer rows than columns or its Gram
    condition (s_max / s_min)^2 is not at most GRAM_CONDITION_LIMIT. Returns
    (x (t, c), bad (g,), Gram condition (g,), s_max (g,)); rows of x whose
    matrix is bad are meaningless."""
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    full = s.shape[-1] == a.shape[-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        condition = (s[:, 0] / s[:, -1]) ** 2 if full else np.full(len(a), np.inf)
    condition = np.where(np.isnan(condition), np.inf, condition)
    bad = ~(condition <= GRAM_CONDITION_LIMIT)
    s_max = s[:, 0].copy()
    s[bad] = 1.0
    coef = (rhs[:, None, :] @ u)[:, 0] / s
    return (coef[:, None, :] @ vt)[:, 0], bad, condition, s_max


def circumcircle(p1, p2, p3):
    """Center and radius of the circle through three 2-D points.

    Solved from the two perpendicular-bisector equations with Cramer's rule.
    Returns None for (near-)collinear triples.
    """
    a1 = 2.0 * (p2 - p1)
    a2 = 2.0 * (p3 - p1)
    b1 = p2 @ p2 - p1 @ p1
    b2 = p3 @ p3 - p1 @ p1
    det = a1[0] * a2[1] - a1[1] * a2[0]
    if abs(det) < 1e-12:
        return None
    cx = (b1 * a2[1] - b2 * a1[1]) / det
    cy = (a1[0] * b2 - a2[0] * b1) / det
    center = np.array([cx, cy])
    return center, float(np.linalg.norm(p1 - center))


def points_concyclic(points, tol=1e-9):
    """Brute-force concyclicity: fit a circle to the first three points and
    check every point's distance to its center."""
    points = np.asarray(points, dtype=float)
    fit = circumcircle(points[0], points[1], points[2])
    if fit is None:
        return False
    center, radius = fit
    return bool(np.all(np.abs(np.linalg.norm(points - center, axis=1) - radius) < tol))


@st.composite
def kernel_stacks(draw):
    """A stack of t problems for the stacked kernels: evaluation points p
    (t, m), layouts (g, k, m) with g in {1, t} and m in {2, 3}, and
    readings y (t, k) of a source elsewhere, at a random scale and offset.
    Row 0 may evaluate on one of its sensors, and the last row's layout may
    lie on one line through its p (with g = 1 that is every row's layout)."""
    m = draw(st.sampled_from([2, 3]))
    t = draw(st.integers(1, 6))
    g = draw(st.sampled_from([1, t]))
    k = draw(st.integers(m + 1, 12))
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    offset = draw(st.floats(-1e6, 1e6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sensors = offset + scale * rng.uniform(-50.0, 50.0, size=(g, k, m))
    p = offset + scale * rng.uniform(-80.0, 80.0, size=(t, m))
    if draw(st.booleans()):
        p[0] = sensors[0, rng.integers(k)]
    if draw(st.booleans()):
        direction = rng.normal(size=m)
        sensors[-1] = p[-1] + scale * np.outer(rng.uniform(-50.0, 50.0, size=k), direction)
    source = offset + scale * rng.uniform(-80.0, 80.0, size=(t, 1, m))
    y = np.log10(np.linalg.norm(sensors - source, axis=-1)) + rng.normal(0.0, 0.1, size=(t, k))
    return p, sensors, y


def outcome(call, *args):
    """call(*args), or the type of the RssLocError it raises."""
    try:
        return call(*args)
    except RssLocError as exc:
        return type(exc)


# The per-call reference of each estimator id, on one trial's tiled data.
PER_CALL = {
    "ls": lambda ms, noise: ls_known_variance(ms, noise.bias_b),
    "ls+gn": lambda ms, noise: two_step(ms, noise),
    "ls-u": lambda ms, noise: ls_unknown_variance(ms),
    "ls-u+gn": lambda ms, noise: two_step(ms, None),
    "ml": lambda ms, noise: ml_reference(ms, ls_known_variance(ms, noise.bias_b).p_hat),
}


def replay_scenario(cfg, sweep_index, trial):
    """The scenario of one trial, rebuilt from its substream path."""
    value = cfg.sweep_values[sweep_index]
    if cfg.sweep_param == "rounds":
        return cfg.scenario.with_rounds(int(value))
    if cfg.sweep_param == "sigma":
        return cfg.scenario.with_sigma(float(value))
    geom_trial = 0 if cfg.fixed_geometry else trial
    return cfg.scenario.sample(
        int(value), trial_rng(cfg.master_seed, sweep_index, geom_trial, 0)
    )


def replay_against_engine(cfg):
    """Replay every trial of ``cfg`` through the per-call API.

    Returns (failures of the engine, failures of the replay, largest
    ||p_hat_engine - p_hat_replay|| / ||p_hat_replay|| over the trials both
    solved). Failures are sets of (sweep_index, trial, estimator); ``ml``
    trials whose replay did not converge are left out of the comparison.
    """
    engine_failed, replay_failed, worst = set(), set(), 0.0
    for sweep_index in range(len(cfg.sweep_values)):
        point = sweep_point(cfg, sweep_index)
        batched = dict(
            zip(cfg.estimators, estimate_stack(cfg.estimators, point.sensors, point.ybar, point.zbar, point.bias_b))
        )
        for trial in range(cfg.trials):
            sc = replay_scenario(cfg, sweep_index, trial)
            ms = generate_measurements(sc, trial_rng(cfg.master_seed, sweep_index, trial, 1))
            noise = NoiseModel(sc.sigma_db, sc.alpha)
            for est in cfg.estimators:
                p_hat, ok = batched[est].p_hat, batched[est].failure == 0
                key = (sweep_index, trial, est)
                if not ok[trial]:
                    engine_failed.add(key)
                try:
                    ref = PER_CALL[est](ms, noise)
                except RssLocError:
                    replay_failed.add(key)
                    continue
                if ok[trial] and ref.converged:
                    gap = np.linalg.norm(p_hat[trial] - ref.p_hat) / np.linalg.norm(ref.p_hat)
                    worst = max(worst, float(gap))
    return engine_failed, replay_failed, worst
