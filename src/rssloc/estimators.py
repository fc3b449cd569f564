"""Estimation algorithms for RSS source localization.

Two closed-form least-squares estimators (known and unknown noise variance)
provide sqrt(n)-consistent initial estimates; a single Gauss-Newton step on
the maximum-likelihood objective then attains asymptotic efficiency. An
iterated-to-convergence Gauss-Newton solver serves as the ML reference.

The linear problems are always solved by an orthogonal/SVD factorization,
never by explicitly inverting the Gram matrix: the regressand 10**(2*y)
spans orders of magnitude and conditioning matters. Explicit Gram inverses
exist only inside the test oracles. One SVD per matrix both gates and solves.

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
from .geometry import hyperplane_design, hypersphere_design
from .model import LN10, SENSOR_CLEARANCE, MeasurementSet, NoiseModel

# Gram condition estimate above which a linear LS problem is declared
# singular; squares of the design-matrix singular-value ratio.
GRAM_CONDITION_LIMIT = 1e12

_SQRT_LIMIT = math.sqrt(GRAM_CONDITION_LIMIT)

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

    One SVD per matrix gates and solves. A matrix fails the gate when it has
    fewer rows than columns, a zero singular value, or a Gram condition
    (s_max / s_min)^2 above GRAM_CONDITION_LIMIT. Returns (x (t, c), bad
    (g,)); rows of x whose matrix is bad are finite but meaningless.
    """
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    s_min = s[:, -1]
    bad = ~((s_min > 0) & (s[:, 0] <= _SQRT_LIMIT * s_min))
    if s.shape[-1] < a.shape[-1]:
        bad[:] = True
    s[bad] = 1.0
    coef = (rhs[:, None, :] @ u)[:, 0] / s
    return (coef[:, None, :] @ vt)[:, 0], bad


def _lstsq_batch(design: np.ndarray, rhs: np.ndarray):
    """Gated least squares for stacked designs; returns (x, singular (g,)).

    Columns are equilibrated to unit norm first: the design mixes units
    (coordinates, constants, squared norms), and the singularity check should
    measure geometry, not the coordinate scale. Equilibration preserves rank,
    so exact degeneracies (cohyperplanar / cohyperspherical layouts) still
    trip the condition limit.
    """
    norms = np.sqrt(np.einsum("...kc,...kc->...c", design, design))[..., None, :]
    norms[norms == 0] = 1.0
    x, singular = _gated_solve(design / norms, rhs)
    return x / norms[:, 0], singular


def known_variance_theta(sensors: np.ndarray, z: np.ndarray, b: float):
    """Regress z - b*||p_i||^2 on b*[-2*p_i^T, 1]; z holds 10**(2*y).

    Returns (theta (t, m+1), singular (g,)), one flag per layout.
    """
    design = b * hyperplane_design(sensors)
    return _lstsq_batch(design, z - b * np.einsum("...km,...km->...k", sensors, sensors))


def unknown_variance_beta(sensors: np.ndarray, z: np.ndarray):
    """Regress z = 10**(2*y) on [-2*p_i^T, 1, ||p_i||^2].

    Returns (beta (t, m+2), singular (g,)), one flag per layout.
    """
    return _lstsq_batch(hypersphere_design(sensors), z)


def _single(solved, error_message: str) -> np.ndarray:
    x, singular = solved
    if singular[0]:
        raise SingularGramError(error_message)
    return x[0]


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
    unconstrained solution is already sqrt(n)-consistent.
    """
    if not (b >= 1.0):
        raise InvalidInputError("b must be >= 1")
    m = ms.dimension
    z = np.power(10.0, 2.0 * ms.y)
    theta = _single(
        known_variance_theta(ms.sensor_coords[None], z[None], b),
        "singular Gram matrix: sensors are (nearly) collinear/coplanar, "
        "violating the non-cohyperplanarity condition",
    )
    return _finish(theta[:m], ms, stage=Stage.LS_KNOWN_VAR, theta_hat=theta)


def source_from_beta(beta: np.ndarray, m: int) -> np.ndarray:
    """Recover the source from the unknown-variance coefficient vector.

    Divides the first m entries by max(1, last entry); the floor guards
    against small-sample draws where the estimated b dips below its
    theoretical lower bound of 1. Leading axes of ``beta`` are kept.
    """
    beta = np.asarray(beta, dtype=float)
    return beta[..., :m] / np.maximum(1.0, beta[..., m + 1 : m + 2])


def ls_unknown_variance(ms: MeasurementSet) -> Estimate:
    """Closed-form LS estimator when the noise variance is unknown.

    Regresses 10**(2*y_i) on [-2*p_i^T, 1, ||p_i||^2]; the extra quadratic
    column absorbs the unknown lognormal bias b, at the price of requiring
    the sensors not to be concyclic/cospherical.
    """
    m = ms.dimension
    if ms.n < m + 2:
        raise InvalidInputError(f"need at least m+2 = {m + 2} measurements")
    z = np.power(10.0, 2.0 * ms.y)
    beta = _single(
        unknown_variance_beta(ms.sensor_coords[None], z[None]),
        "singular Gram matrix: sensors are (nearly) concyclic/cospherical, "
        "violating the non-cohypersphericity condition",
    )
    return _finish(
        source_from_beta(beta, m),
        ms,
        stage=Stage.LS_UNKNOWN_VAR,
        beta_hat=beta,
        b_hat=float(beta[m + 1]),
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
