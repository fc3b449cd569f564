"""Estimation algorithms for RSS source localization.

Two closed-form least-squares estimators (known and unknown noise variance)
provide sqrt(n)-consistent initial estimates; a single Gauss-Newton step on
the maximum-likelihood objective then attains asymptotic efficiency. An
iterated-to-convergence Gauss-Newton solver serves as the ML reference.

Each linear problem is solved by one SVD that both gates
(``geometry.singular``) and solves; no Gram matrix is inverted (explicit
inverses exist only in the test oracles). The LS designs are those of the
layout normalised to its centroid and unit RMS radius, so the estimators gate
on the condition ``geometry.localizability`` reports, and their estimates are
translation, rotation and scale equivariant.

The kernels work on stacks of problems: ``known_variance_theta``,
``unknown_variance_beta`` and ``gn_steps`` take (g, k, m) sensor layouts
with g either 1 (shared geometry) or one per problem, and one (k,) data row
per problem. The single-problem estimators below call them with one problem
of n rows; the Monte Carlo engine calls them on per-sensor means over the
rounds, which give the same estimates as the n tiled rows because tiling
multiplies both sides of every normal equation by the number of rounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional

import numpy as np

from .errors import (
    DegenerateJacobianError,
    InvalidInputError,
    NumericError,
    SingularGramError,
    SingularPointError,
)
from .geometry import hyperplane_design, hypersphere_design, normalise, singular
from .model import LN10, SENSOR_CLEARANCE, MeasurementSet, NoiseModel

# Outcomes of one Gauss-Newton step, indexed by the failure codes of
# gn_steps, in the order gn_step checks them: 0 is success.
GN_FAILURES = (
    None,
    (SingularPointError, "evaluation point coincides with a sensor"),
    (DegenerateJacobianError, "J^T J is numerically singular"),
    (NumericError, "Gauss-Newton step is not finite"),
)


class Stage(str, Enum):
    LS_KNOWN_VAR = "LsKnownVar"
    LS_UNKNOWN_VAR = "LsUnknownVar"
    TWO_STEP = "TwoStep"
    ML_REFERENCE = "MlReference"


@dataclass(frozen=True)
class Estimate:
    """A source-location estimate with stage provenance and diagnostics."""

    p_hat: np.ndarray
    stage: Stage
    residual_norm: float
    theta_hat: Optional[np.ndarray] = None
    beta_hat: Optional[np.ndarray] = None
    b_hat: Optional[float] = None
    gn_iterations: int = 0
    converged: bool = True
    refinement_degraded: bool = False

    def to_dict(self) -> dict:
        return {
            "p_hat": np.asarray(self.p_hat).tolist(),
            "stage": self.stage.value,
            "residual_norm": self.residual_norm,
            "theta_hat": None if self.theta_hat is None else np.asarray(self.theta_hat).tolist(),
            "beta_hat": None if self.beta_hat is None else np.asarray(self.beta_hat).tolist(),
            "b_hat": self.b_hat,
            "gn_iterations": self.gn_iterations,
            "converged": self.converged,
            "refinement_degraded": self.refinement_degraded,
        }


@dataclass(frozen=True)
class GnConfig:
    """Stopping rules for the iterated Gauss-Newton reference solver."""

    max_iterations: int = 100
    step_tolerance: float = 1e-10

    def __post_init__(self):
        if self.max_iterations < 1:
            raise InvalidInputError("max_iterations must be >= 1")
        if not (self.step_tolerance > 0):
            raise InvalidInputError("step_tolerance must be positive")


def _gated_solve(a: np.ndarray, rhs: np.ndarray):
    """min ||a x - rhs|| for a stack a (g, k, c), g in {1, t}, and rhs (t, k).

    One SVD per matrix gates (geometry.singular) and solves. Returns (x (t, c),
    bad (g,)); rows of x whose matrix is bad are finite but meaningless.
    """
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    bad = singular(s, a.shape[-1])
    s[bad] = 1.0
    coef = (rhs[:, None, :] @ u)[:, 0] / s
    return (coef[:, None, :] @ vt)[:, 0], bad


def known_variance_theta(sensors: np.ndarray, z: np.ndarray, b: float):
    """Known-variance LS for a stack of layouts; z holds 10**(2*y).

    On the normalised layout sensors = c + s*q (geometry.normalise),
    z / (b s^2) - ||q_i||^2 is regressed on [-2*q_i^T, 1], the design that
    localizability gates. Both design column spaces hold every affine
    function of p_i, so the coefficients map back exactly to those of
    z - b*||p_i||^2 on b*[-2*p_i^T, 1]. Returns (p_hat (t, m), theta
    (t, m+1), singular (g,)), one flag per layout.
    """
    q, c, s = normalise(sensors)
    m = c.shape[-1]
    rhs = z / (b * s * s)[:, None] - (q * q).sum(axis=-1)
    x, bad = _gated_solve(hyperplane_design(q), rhs)
    t, tau = x[:, :m], x[:, m]
    p_hat = c + s[:, None] * t
    last = s * (s * tau + 2.0 * (c * t).sum(axis=-1)) + (c * c).sum(axis=-1)
    return p_hat, np.concatenate([p_hat, last[:, None]], axis=1), bad


def unknown_variance_beta(sensors: np.ndarray, z: np.ndarray):
    """Unknown-variance LS for a stack of layouts; z holds 10**(2*y).

    Regresses z / s^2 on [-2*q_i^T, 1, ||q_i||^2] of the normalised layout
    and maps beta back to that of z on [-2*p_i^T, 1, ||p_i||^2]. The source
    is c + s * source_from_beta(beta'), so the b_hat >= 1 floor acts in the
    centred frame and the estimate stays equivariant. Returns (p_hat (t, m),
    beta (t, m+2), singular (g,)).
    """
    q, c, s = normalise(sensors)
    m = c.shape[-1]
    x, bad = _gated_solve(hypersphere_design(q), z / (s * s)[:, None])
    t, tau, kappa = x[:, :m], x[:, m], x[:, m + 1]
    p_hat = c + s[:, None] * source_from_beta(x, m)
    last = s * (s * tau + 2.0 * (c * t).sum(axis=-1)) + kappa * (c * c).sum(axis=-1)
    beta = np.concatenate([s[:, None] * t + kappa[:, None] * c, last[:, None], kappa[:, None]], axis=1)
    return p_hat, beta, bad


def _solve_one(kernel, ms: MeasurementSet, error_message: str, *args):
    """One LS kernel on one measurement set: (p_hat, coefficients)."""
    # An overflowing 10**(2*y) makes the coefficients non-finite.
    with np.errstate(over="ignore", invalid="ignore"):
        p_hat, coef, bad = kernel(ms.sensor_coords[None], np.power(10.0, 2.0 * ms.y)[None], *args)
    if bad[0]:
        raise SingularGramError(error_message)
    if not np.isfinite(coef).all():
        raise NumericError("10**(2*y) or the least-squares coefficients are not finite")
    return p_hat[0], coef[0]


def _distances_checked(p: np.ndarray, sensors: np.ndarray) -> np.ndarray:
    d = np.linalg.norm(sensors - p, axis=1)
    if np.any(d < SENSOR_CLEARANCE):
        raise SingularPointError("evaluation point coincides with a sensor")
    return d


def ml_objective(p, ms: MeasurementSet) -> float:
    """Mean squared equivalent-measurement residual (1/n) sum (y_i - log10 d_i)^2."""
    p = np.asarray(p, dtype=float)
    d = _distances_checked(p, ms.sensor_coords)
    r = ms.y - np.log10(d)
    return float(np.mean(r * r))


def _finish(p_hat: np.ndarray, ms: MeasurementSet, **kwargs) -> Estimate:
    try:
        residual = math.sqrt(ml_objective(p_hat, ms))
    except SingularPointError:
        residual = float("nan")
    return Estimate(p_hat=p_hat, residual_norm=residual, **kwargs)


def ls_known_variance(ms: MeasurementSet, b: float) -> Estimate:
    """Closed-form LS estimator when the noise variance (hence b) is known.

    Regresses 10**(2*y_i) - b*||p_i||^2 on b*[-2*p_i^T, 1]; the source is the
    first m entries of the coefficient vector. The norm-coupling constraint
    between those entries and the last one is deliberately ignored: the
    unconstrained solution is already sqrt(n)-consistent. Raises
    SingularGramError when localizability's hyperplane test fails and
    NumericError when 10**(2*y) or the coefficients are not finite.
    """
    if not (b >= 1.0):
        raise InvalidInputError("b must be >= 1")
    p_hat, theta = _solve_one(
        known_variance_theta,
        ms,
        "singular Gram matrix: sensors are (nearly) collinear/coplanar, "
        "violating the non-cohyperplanarity condition",
        b,
    )
    return _finish(p_hat, ms, stage=Stage.LS_KNOWN_VAR, theta_hat=theta)


def source_from_beta(beta: np.ndarray, m: int) -> np.ndarray:
    """Recover the source from the unknown-variance coefficient vector.

    Divides the first m entries by max(1, last entry); the floor guards
    against small-sample draws where the estimated b dips below its
    theoretical lower bound of 1. Leading axes of ``beta`` are kept. The
    estimators apply it in the normalised frame, independent of the origin.
    """
    beta = np.asarray(beta, dtype=float)
    return beta[..., :m] / np.maximum(1.0, beta[..., m + 1 : m + 2])


def ls_unknown_variance(ms: MeasurementSet) -> Estimate:
    """Closed-form LS estimator when the noise variance is unknown.

    Regresses 10**(2*y_i) on [-2*p_i^T, 1, ||p_i||^2]; the extra quadratic
    column absorbs the unknown lognormal bias b, at the price of requiring
    the sensors not to be concyclic/cospherical (localizability's
    hypersphere test, which fewer than m+2 rows also fail). Raises
    NumericError like ls_known_variance.
    """
    p_hat, beta = _solve_one(
        unknown_variance_beta,
        ms,
        "singular Gram matrix: sensors are (nearly) concyclic/cospherical, "
        "violating the non-cohypersphericity condition",
    )
    return _finish(
        p_hat,
        ms,
        stage=Stage.LS_UNKNOWN_VAR,
        beta_hat=beta,
        b_hat=float(beta[-1]),
    )


def estimate_sigma_from_b(b_hat: float, alpha: float) -> float:
    """Invert b = exp((ln 10)^2 sigma^2 / (50 alpha^2)) for sigma (dB).

    Returns 0 for b_hat <= 1 (noise-free or below the theoretical floor).
    """
    if not (alpha > 0):
        raise InvalidInputError("alpha must be positive")
    if not np.isfinite(b_hat):
        raise InvalidInputError("b_hat must be finite")
    if b_hat <= 1.0:
        return 0.0
    return alpha / LN10 * math.sqrt(50.0 * math.log(b_hat))


def gn_steps(p: np.ndarray, sensors: np.ndarray, y: np.ndarray):
    """One Gauss-Newton step on the ML objective for each of t problems.

    ``p`` is (t, m), ``sensors`` (g, k, m) with g in {1, t}, ``y`` (t, k).
    Each step is p + (J^T J)^{-1} J^T (y - f(p)) with f_i(p) =
    log10||p_i - p||, solved by one SVD of J. Returns (p_next (t, m),
    failure (t,)): failure indexes GN_FAILURES and is 0 where the step
    succeeded; elsewhere p_next is meaningless.
    """
    diff = p[:, None, :] - sensors
    d = np.linalg.norm(diff, axis=-1)
    near = d.min(axis=-1) < SENSOR_CLEARANCE
    d = np.maximum(d, SENSOR_CLEARANCE)
    # Rows (p - p_i)^T / (d_i^2 ln 10): gradient of log10||p_i - p||.
    jac = diff / (d[..., None] ** 2 * LN10)
    step, degenerate = _gated_solve(jac, y - np.log10(d))
    failure = np.where(np.isfinite(step).all(axis=-1), 0, 3)
    failure[degenerate] = 2
    failure[near] = 1
    return p + step, failure


def gn_step(p, ms: MeasurementSet) -> np.ndarray:
    """One Gauss-Newton step on the ML objective from p (see gn_steps)."""
    p = np.asarray(p, dtype=float)
    p_next, failure = gn_steps(p[None], ms.sensor_coords[None], ms.y[None])
    if failure[0]:
        error, message = GN_FAILURES[failure[0]]
        raise error(message)
    return p_next[0]


def two_step(ms: MeasurementSet, noise: Optional[NoiseModel] = None) -> Estimate:
    """The two-step estimator: closed-form LS, then exactly one GN step.

    ``noise`` present selects the known-variance LS path, absent the
    unknown-variance path. If the refinement step fails numerically the
    stage-1 estimate is returned flagged as degraded rather than erroring:
    small-sample trials can produce iterates arbitrarily close to a sensor.
    """
    if noise is not None:
        first = ls_known_variance(ms, noise.bias_b)
    else:
        first = ls_unknown_variance(ms)
    try:
        refined = gn_step(first.p_hat, ms)
    except (SingularPointError, DegenerateJacobianError, NumericError):
        return replace(first, stage=Stage.TWO_STEP, refinement_degraded=True)
    return _finish(
        refined,
        ms,
        stage=Stage.TWO_STEP,
        theta_hat=first.theta_hat,
        beta_hat=first.beta_hat,
        b_hat=first.b_hat,
        gn_iterations=1,
    )


def ml_reference(ms: MeasurementSet, init, cfg: GnConfig = GnConfig()) -> Estimate:
    """Iterate Gauss-Newton to convergence; reference approximation of the ML estimator."""
    p = np.asarray(init, dtype=float).copy()
    converged = False
    iterations = 0
    for iterations in range(1, cfg.max_iterations + 1):
        p_next = gn_step(p, ms)
        step_norm = float(np.linalg.norm(p_next - p))
        p = p_next
        if step_norm < cfg.step_tolerance:
            converged = True
            break
    return _finish(
        p,
        ms,
        stage=Stage.ML_REFERENCE,
        gn_iterations=iterations,
        converged=converged,
    )
