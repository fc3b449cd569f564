"""Estimation algorithms for RSS source localization.

Two closed-form least-squares estimators (known and unknown noise variance)
provide sqrt(n)-consistent initial estimates; a single Gauss-Newton step on
the maximum-likelihood objective then attains asymptotic efficiency. A
monotone Newton iteration to convergence serves as the ML reference
(``gn_continue``): its first step is that Gauss-Newton step, every later step
Newton's where the Hessian of the objective is positive definite and
Gauss-Newton's elsewhere, each halved until the objective does not rise
beyond its rounding, with one fixed stopping rule, MAX_ITERATIONS steps and
a step tolerance of STEP_TOLERANCE times the layout's RMS radius, which is
as equivariant as the estimates (Nocedal & Wright, Numerical Optimization,
2nd ed., sections 3.1 and 3.4).

Every least-squares solve, both LS designs and the Gauss-Newton and Newton
steps, runs through one kernel, ``_normal_solve``: one eigh of the normal
matrix G = A^T A gates (``geometry.singular`` on its eigenvalues) and solves;
for the Newton step's Hessian H that gate is the test that H is positive
definite. The LS designs are solved on the layout normalised to its centroid
and unit RMS radius, from one Gram of the hypersphere design per stack
(``geometry.normal_equations``), whose leading block is the hyperplane
design's: the estimators gate on the matrix ``geometry.localizability``
reports, and their estimates are translation, rotation and scale
equivariant. A Gauss-Newton step is solved from the m x m normal matrix
J^T J, a Newton step from the m x m H. The relative error of a solve from G,
about eps cond(G), is at most about 2e-4 at the gate; the LS stage needs only
to be consistent, and the one-step argument a step accurate to o(n^-1/2)
(Zeng et al., IEEE TSP 2022). No SVD or explicit inverse is taken outside the
test oracles.

No stacked kernel reduces or broadcasts over the 2-3 coordinates of a
(..., k, m) stack of rows. A squared distance is ``model.sq_norm``, a sum
over the coordinates in their order, which has the bits of the row-major
sum. A reduction over the k rows of a row-major layout, the centroid of
``geometry.normalise``, goes through ``einsum``, which runs it contiguously.
The Gauss-Newton Jacobian, the LS designs and the Fisher gradient are built
coordinate-major: J is the transposed view of a contiguous (..., c, k) array
J^T with one row per column. Every operation then runs along the k rows, the
normal matrices, the Hessian, the right-hand sides and the objective
included. The Gauss-Newton and Newton evaluations and the ML objective work
from the squared distances d^2: the near-sensor test compares d^2 with
SENSOR_CLEARANCE**2, the residual is y - log10(d^2) / 2 and the Jacobian's
row scale d^2 ln 10, so no square root of a distance is taken.

The estimator policy lives in one function, ``estimate_stack``, which runs a
tuple of estimator ids in their order on a stack of problems; each stage
runs once, when the first id that uses it asks for it: the normalised
layouts, each LS design (known variance for ``ls``, ``ls+gn`` and ``ml``,
unknown for ``ls-u`` and ``ls-u+gn``), and the first Gauss-Newton step from
each LS start, which also returns the objective there. ``+gn`` keeps that
step and ``ml`` iterates on from it (``gn_continue``), so ``ml``'s first
iterate is the ``+gn`` estimate wherever that does not raise the objective,
else a point on its step. A problem's arithmetic depends neither on which
other ids run with it nor on their order. The single-problem estimators run
``estimate_stack`` with one id on one problem of n rows and raise the
failure it reports (``ml_reference`` runs its ML stages, first step then
``gn_continue``, from the caller's start point) and return an ``Estimate``
named by that id (``_per_call``); the Monte Carlo engine runs it with every
requested id on per-sensor means over the rounds, which give the same
estimates as the n tiled rows in exact arithmetic: tiling multiplies both
sides of every normal equation, LS, Gauss-Newton and Newton alike, by the
number of rounds, and the objective by it plus a constant, the spread of the
readings about their means.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from time import perf_counter
from typing import List, NamedTuple, Optional

import numpy as np

from .errors import (
    DegenerateJacobianError,
    InvalidInputError,
    NumericError,
    SingularGramError,
    SingularPointError,
)
from .geometry import normal_equations, normalise, singular
from .model import LN10, SENSOR_CLEARANCE, MeasurementSet, NoiseModel, floats, number, sensor_sq_distances, sq_norm

ESTIMATOR_IDS = ("ls", "ls+gn", "ls-u", "ls-u+gn", "ml")
_IDS = frozenset(ESTIMATOR_IDS)

# The ML iteration's stopping rule (gn_continue): a problem has converged when
# a step direction is shorter than STEP_TOLERANCE times its layout's RMS radius
# s (geometry.normalise), and stops unconverged after MAX_ITERATIONS steps,
# backtracking halvings not counted. STEP_TOLERANCE is dimensionless.
MAX_ITERATIONS = 100
STEP_TOLERANCE = 1e-7

# The typed error behind each failure code of gn_steps and estimate_stack (0 is
# success): one Gauss-Newton step, in the order gn_steps checks, then LS.
FAILURES = (
    None,
    (SingularPointError, "evaluation point coincides with a sensor"),
    (DegenerateJacobianError, "J^T J is numerically singular"),
    (NumericError, "Gauss-Newton step is not finite"),
    (SingularGramError, "singular Gram matrix: sensors are (nearly) collinear/coplanar, "
     "violating the non-cohyperplanarity condition"),
    (SingularGramError, "singular Gram matrix: sensors are (nearly) concyclic/cospherical, "
     "violating the non-cohypersphericity condition"),
    (NumericError, "10**(2*y) or the least-squares coefficients are not finite"),
)
_NEAR, _DEGENERATE, _STEP_NONFINITE, _SINGULAR_KNOWN, _SINGULAR_UNKNOWN, _LS_NONFINITE = range(1, 7)


@dataclass(frozen=True)
class Estimate:
    """A source-location estimate from one per-call estimator, with diagnostics.

    ``estimator`` is the id of ESTIMATOR_IDS that made it. ``coef`` holds the
    LS coefficients the estimate starts from: theta, m+1 entries, for ``ls``
    and ``ls+gn``; beta, m+2 entries, for ``ls-u`` and ``ls-u+gn``; None for
    ``ml``, which starts from the caller's point. ``b_hat`` is beta's last
    entry, the estimated lognormal bias b, else None. The other diagnostics
    are estimate_stack's (see there).
    """

    p_hat: np.ndarray
    estimator: str
    residual_norm: float
    coef: Optional[np.ndarray]
    b_hat: Optional[float]
    gn_iterations: int
    converged: bool
    refinement_degraded: bool

    def to_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        return {**d, "p_hat": self.p_hat.tolist(), "coef": None if self.coef is None else self.coef.tolist()}


def _normal_solve(gram: np.ndarray, rhs: np.ndarray, rows: int):
    """min ||A x - r|| from G = A^T A (g, c, c), g in {1, t}, and h = A^T r
    (t, c), A with ``rows`` rows: one eigh G = V diag(lam) V^T gates
    (geometry.singular) and solves, x = V (V^T h / lam), one product per
    row. Returns (x (t, c), bad (g,)); rows of x whose G is bad are finite
    but meaningless."""
    lam, v = np.linalg.eigh(gram)
    bad = singular(lam, rows)
    lam[bad] = 1.0
    coef = (rhs[:, None, :] @ v)[:, 0] / lam
    return (v @ coef[:, :, None])[..., 0], bad


def _least_squares(frame, gram: np.ndarray, h: np.ndarray, b: Optional[float]):
    """Closed-form LS for a stack of layouts (g, k, m), given as their
    normalised frame (q, c, s) = geometry.normalise(sensors) and the normal
    equations (gram, h) = geometry.normal_equations(q, z) of the hypersphere
    design A = [-2*q_i^T, 1, ||q_i||^2], where z (t, k) holds 10**(2*y).

    On the normalised layout sensors = c + s*q, regresses z / s^2 on A, the
    design localizability gates: G x = h / s^2. With b known (b not None) the
    last coefficient is fixed at 1 and z / (b s^2) - ||q_i||^2 is regressed on
    the leading m+1 columns, from G's leading block and the right-hand side
    h[:m+1] / (b s^2) - G[:m+1, m+1]. Both column spaces hold every affine
    function of p_i, so the coefficients map back exactly to those in p_i.
    Returns (p_hat (t, m), theta (t, m+1) or beta (t, m+2), singular (g,)).
    """
    q, c, s = frame
    k, m = q.shape[-2:]
    if b is None:
        x, bad = _normal_solve(gram, h / (s * s)[:, None], k)
        kappa = x[:, m + 1]
    else:
        plane = slice(0, m + 1)
        x, bad = _normal_solve(gram[:, plane, plane], h[:, plane] / (b * s * s)[:, None] - gram[:, plane, m + 1], k)
        kappa = 1.0
    t, tau = x[:, :m], x[:, m]
    last = s * (s * tau + 2.0 * (c * t).sum(axis=-1)) + kappa * (c * c).sum(axis=-1)
    if b is not None:
        p_hat = c + s[:, None] * t
        return p_hat, np.concatenate([p_hat, last[:, None]], axis=1), bad
    p_hat = c + s[:, None] * source_from_beta(x, m)
    beta = np.concatenate([s[:, None] * t + kappa[:, None] * c, last[:, None], kappa[:, None]], axis=1)
    return p_hat, beta, bad


def _start(p, ms: MeasurementSet) -> np.ndarray:
    """p as a stack (1, m) if it is m finite coordinates, else InvalidInputError;
    NumericError where its squared distance to a sensor overflows a double."""
    p = floats(p, "start point")
    if p.shape != ms.sensor_coords.shape[1:] or not np.isfinite(p).all():
        raise InvalidInputError(f"start point must be {ms.dimension} finite coordinates, got {p.tolist()}")
    sensor_sq_distances(ms.sensor_coords, p, "start point")
    return p[None]


def ml_objective(p, ms: MeasurementSet) -> float:
    """Mean squared equivalent-measurement residual (1/n) sum (y_i - log10 d_i)^2
    at p, m finite coordinates (see _start)."""
    return _objective(_start(p, ms)[0], ms)


def _objective(p: np.ndarray, ms: MeasurementSet) -> float:
    """ml_objective at a checked point p (m,)."""
    d2 = sq_norm(ms.sensor_coords - p)
    if (d2 < SENSOR_CLEARANCE**2).any():
        _raise(_NEAR)
    r = ms.y - 0.5 * np.log10(d2)
    return float((r * r).mean())


def _raise(code: int) -> None:
    if code:
        error, message = FAILURES[code]
        raise error(message)


def _residual(p_hat: np.ndarray, ms: MeasurementSet) -> float:
    """sqrt(ml_objective) at the final estimate; NaN on a sensor."""
    try:
        return math.sqrt(_objective(p_hat, ms))
    except SingularPointError:
        return float("nan")


def _estimate(est_id: str, ms: MeasurementSet, b: float = 1.0) -> Estimate:
    """estimate_stack on the n rows of ``ms``; raises the failure it reports."""
    # An overflowing 10**(2*y) makes the coefficients non-finite (_LS_NONFINITE).
    with np.errstate(over="ignore", invalid="ignore"):
        z = np.power(10.0, 2.0 * ms.y)[None]
        (out,) = estimate_stack((est_id,), ms.sensor_coords[None], ms.y[None], z, b)
    return _per_call(est_id, out, ms)


def _per_call(est_id: str, out: StackOutcome, ms: MeasurementSet) -> Estimate:
    """The Estimate of ``est_id`` on the one problem of ``out``, every
    diagnostic taken from it; raises the failure it reports."""
    _raise(out.failure[0])
    p_hat, coef = out.p_hat[0], None if est_id == "ml" else out.coef[0]
    b_hat = float(coef[-1]) if est_id.startswith("ls-u") else None
    iterations, converged, degraded = int(out.iterations[0]), bool(out.converged[0]), bool(out.degraded[0])
    return Estimate(p_hat, est_id, _residual(p_hat, ms), coef, b_hat, iterations, converged, degraded)


def ls_known_variance(ms: MeasurementSet, b: float) -> Estimate:
    """Closed-form LS estimator when the noise variance (hence b) is known.

    Regresses 10**(2*y_i) - b*||p_i||^2 on b*[-2*p_i^T, 1]; the source is the
    first m entries of the coefficient vector. The norm-coupling constraint
    between those entries and the last one is deliberately ignored: the
    unconstrained solution is already sqrt(n)-consistent. Raises
    SingularGramError when localizability's hyperplane test fails and
    NumericError when 10**(2*y) or the coefficients are not finite.
    """
    b = number(b, "b")
    if not (b >= 1.0):
        raise InvalidInputError("b must be >= 1")
    return _estimate("ls", ms, b)


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
    return _estimate("ls-u", ms)


def estimate_sigma_from_b(b_hat: float, alpha: float) -> float:
    """Invert b = exp((ln 10)^2 sigma^2 / (50 alpha^2)) for sigma (dB).

    Returns 0 for b_hat <= 1 (noise-free or below the theoretical floor).
    """
    b_hat = number(b_hat, "b_hat")
    if not (number(alpha, "alpha") > 0):
        raise InvalidInputError("alpha must be positive")
    if b_hat <= 1.0:
        return 0.0
    return alpha / LN10 * math.sqrt(50.0 * math.log(b_hat))


def gn_steps(p: np.ndarray, sensors: np.ndarray, y: np.ndarray, newton: bool = False):
    """One step on the ML objective F(p) = sum_i r_i^2, r_i = y_i - f_i(p),
    f_i(p) = log10||p_i - p||, for each of t problems.

    ``p`` is (t, m), ``sensors`` (g, k, m) with g in {1, t}, ``y`` (t, k).
    The Gauss-Newton step is p + (J^T J)^{-1} J^T r, solved from J^T J and
    J^T r (_normal_solve). With ``newton``, the step is Newton's,
    p + H^{-1} J^T r with H = J^T diag(1 + 2 ln10 r) J - (sum_i r_i /
    (d_i^2 ln10)) I, half the Hessian of F, where _normal_solve's gate passes
    H (positive definite and conditioned as a Gram), and the Gauss-Newton
    step elsewhere. Returns (p_next (t, m), failure (t,), F(p) (t,)):
    failure indexes FAILURES and is 0 where the step succeeded (with
    ``newton``, ``_DEGENERATE`` only where both gates fail); elsewhere p_next
    is meaningless. F is infinite where p is within SENSOR_CLEARANCE of a
    sensor. ``p`` must be finite.

    J^T is built coordinate-major, one contiguous (t, m, k) array with one
    row per coordinate, so J^T J, H, J^T r and F are sums along the k rows.
    Everything is formed from one (t, k) array of squared distances d^2:
    p is near a sensor where d^2 < SENSOR_CLEARANCE**2, d^2 is raised to
    SENSOR_CLEARANCE**2 in place, r = y - log10(d^2) / 2, and d^2 ln 10,
    formed in the same array, scales the rows.
    """
    (t, m), k = p.shape, sensors.shape[1]
    jt = np.subtract(p[:, :, None], sensors.swapaxes(1, 2), out=np.empty((t, m, k)))
    d2 = sq_norm(jt.swapaxes(1, 2))
    near = d2.min(axis=-1) < SENSOR_CLEARANCE**2
    np.maximum(d2, SENSOR_CLEARANCE**2, out=d2)
    r = np.log10(d2)
    r *= -0.5
    r += y
    # Rows (p - p_i)^T / (d_i^2 ln 10): gradient of log10||p_i - p||.
    scale = np.multiply(d2, LN10, out=d2)
    jt /= scale[:, None, :]
    objective = (r[:, None, :] @ r[:, :, None])[:, 0, 0]
    objective[near] = np.inf
    rhs = (jt @ r[:, :, None])[..., 0]
    if newton:
        # sum_i r_i (1/(d_i^2 ln10) I - 2 ln10 J_i J_i^T) is the residual-
        # weighted sum of the Hessians of f_i.
        hessian = (jt * (1.0 + 2.0 * LN10 * r)[:, None, :]) @ jt.swapaxes(1, 2)
        # matmul returns a fresh C-contiguous hessian, so the reshape is a
        # view and every (m+1)-th entry of a row is on the diagonal.
        hessian.reshape(t, m * m)[:, :: m + 1] -= (r[:, None, :] @ (1.0 / scale)[:, :, None])[:, 0]
        step, degenerate = _normal_solve(hessian, rhs, k)
        if degenerate.any():
            jt_bad = jt[degenerate]
            step[degenerate], degenerate[degenerate] = _normal_solve(
                jt_bad @ jt_bad.swapaxes(1, 2), rhs[degenerate], k
            )
    else:
        step, degenerate = _normal_solve(jt @ jt.swapaxes(1, 2), rhs, k)
    failure = np.where(np.isfinite(step).all(axis=-1), 0, _STEP_NONFINITE)
    failure[degenerate] = _DEGENERATE
    failure[near] = _NEAR
    return p + step, failure, objective


def gn_step(p, ms: MeasurementSet) -> np.ndarray:
    """One Gauss-Newton step on the ML objective from p (see gn_steps)."""
    p_next, failure, _ = gn_steps(_start(p, ms), ms.sensor_coords[None], ms.y[None])
    _raise(failure[0])
    return p_next[0]


def _layouts(sensors: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The layouts (or per-layout values, g first) of the selected problems;
    a shared layout stays shared."""
    return sensors if len(sensors) == 1 else sensors[rows]


def gn_continue(p: np.ndarray, first, sensors: np.ndarray, y: np.ndarray, scale: np.ndarray):
    """Minimise the ML objective from p (t, m) by a monotone iteration, once
    its first step, ``first`` = gn_steps(p, sensors, y), has been computed:
    that Gauss-Newton step, then Newton steps, each halved until it passes.
    ``scale`` (g,) holds the RMS radius s of each layout of ``sensors``
    (geometry.normalise). Returns (p_hat, failure, iterations, converged),
    one row per problem; p is left unchanged.

    Every step follows one rule. A step from point x towards x_next, the end
    of its full step, tries x + lam (x_next - x) for lam = lam0, lam0/2, ...
    and takes the first trial whose objective F is not above F(x) by more
    than F's rounding, eps (k F(x) + 4 ||r|| ||y||): each residual r = y -
    log10 d carries an error of about eps |y|, and the sum over the k rows
    one of k eps F. So F never rises from the start beyond rounding, and near
    convergence no step is rejected on rounding alone. lam0 is 1 for the
    first step and twice the lam of the step before, at most 1, for the
    later ones. Each trial point is evaluated by gn_steps(..., newton=True),
    which returns its F together with the direction from it: an accepted
    step costs no further pass, and only the rejected problems are evaluated
    again.

    The first step is Gauss-Newton's, the later ones Newton's where their
    Hessian passes the gate and Gauss-Newton's elsewhere (gn_steps). Either
    is a descent direction, so halving alone ends: a short enough trial
    passes.

    A problem's one step tolerance is STEP_TOLERANCE * s, in its layout's
    units, so the iteration takes the same steps wherever the layout is
    moved, turned or scaled to (Dennis & Schnabel, Numerical Methods for
    Unconstrained Optimization, section 7.2). A full step shorter than it is
    taken untested and ends the iteration: the problem has converged. A
    problem stops unconverged after MAX_ITERATIONS steps, or where a step is
    halved below its tolerance without passing. It fails where a step fails
    (failure indexes FAILURES): the first step, or a Newton step where both
    gates fail. A stopped problem stays at its last accepted point. ``iterations`` counts the steps, each from its own
    point, a failing or wholly rejected one included; the halvings are part
    of their step. The layouts, tolerances and y of the problems still
    iterating are gathered anew only when that set shrinks.
    """
    p_next, failure, objective = first
    t, k = y.shape
    eps = np.finfo(float).eps
    y_norm = np.sqrt((y * y).sum(axis=-1))
    tol = STEP_TOLERANCE * scale
    p_hat, failure = p.copy(), failure.copy()
    iterations = np.ones(t, dtype=int)
    converged = np.zeros(t, dtype=bool)
    # Per problem still iterating: its point, F there, the end of its full
    # step, the point on trial and that trial's lam.
    active, current, f, full, lam = np.arange(t), p, objective, p_next, np.ones(t)
    trial, stop = full, failure != 0
    while True:
        short = ~stop & (np.sqrt(sq_norm(full - current)) < tol)
        p_hat[active[short]] = full[short]
        converged[active[short]] = True
        stop |= short
        if stop.any():
            keep = ~stop
            active, current, f, full, trial, lam, y, y_norm = (
                a[keep] for a in (active, current, f, full, trial, lam, y, y_norm)
            )
            sensors, tol = _layouts(sensors, keep), _layouts(tol, keep)
        if not active.size:
            break
        nxt, step_failure, f_trial = gn_steps(trial, sensors, y, True)
        accepted = f_trial <= f + eps * (k * f + 4.0 * np.sqrt(f) * y_norm)
        p_hat[active[accepted]] = trial[accepted]
        at_limit = accepted & (iterations[active] == MAX_ITERATIONS)
        stepping = accepted & ~at_limit
        iterations[active[stepping]] += 1
        failed = stepping & (step_failure != 0)
        failure[active[failed]] = step_failure[failed]
        stop = at_limit | failed
        current = np.where(accepted[:, None], trial, current)
        f = np.where(accepted, f_trial, f)
        full = np.where(accepted[:, None], nxt, full)
        lam = np.where(accepted, np.minimum(1.0, 2.0 * lam), 0.5 * lam)
        trial = np.where((lam == 1.0)[:, None], full, current + lam[:, None] * (full - current))
        # A step halved below the tolerance without passing.
        stop |= ~accepted & (np.sqrt(sq_norm(trial - current)) < tol)
    return p_hat, failure, iterations, converged


class StackOutcome(NamedTuple):
    """What estimate_stack returns for one estimator on t problems (see there)."""

    p_hat: np.ndarray
    coef: np.ndarray
    failure: np.ndarray
    degraded: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    seconds: float


def estimate_stack(est_ids, sensors: np.ndarray, ybar: np.ndarray, zbar: np.ndarray, b: float) -> List[StackOutcome]:
    """The estimators ``est_ids``, distinct ids of ESTIMATOR_IDS, on t
    problems: ``sensors`` (g, k, m) with g in {1, t}, and each problem's y and
    10**(2*y) on its k rows (or their means over rounds) in ``ybar`` and
    ``zbar`` (t, k); ``b`` is the lognormal bias. Returns one StackOutcome per
    id, in the order of ``est_ids``.

    ``ls``, ``ls+gn`` and ``ml`` start from the known-variance LS, ``ls-u``
    and ``ls-u+gn`` from the unknown-variance LS; a singular design or
    non-finite coefficients fail the problem (``failure`` indexes FAILURES,
    0 where solved). ``+gn`` takes one Gauss-Newton step and, where it fails,
    keeps the LS estimate flagged ``degraded``. ``ml`` backtracks that step
    and iterates on (gn_continue), never raising the objective from the LS
    start beyond rounding; it fails the problem where a step fails (a Newton
    step only where both its gates fail), and ``converged`` and
    ``iterations`` are gn_continue's, on the normalised layouts' RMS radii.
    ``coef`` holds the LS coefficients, theta or beta. Outcomes may share
    the arrays that an id does not write.

    The ids run in their order, and each stage runs once, when the first id
    that uses it asks for it: normalising the layouts and forming the one
    Gram and right-hand side both LS designs solve from
    (geometry.normal_equations), each LS design, and the first Gauss-Newton
    step from each LS start, which ``+gn`` keeps and ``ml`` continues from.
    ``seconds`` is the wall time of the stages an estimator used, a shared
    stage charged in full to each of its users, plus its own assembly: what
    the estimator would have cost on its own.
    """
    if len(_IDS.intersection(est_ids)) != len(est_ids):
        raise InvalidInputError(f"estimators {list(est_ids)} are not distinct ids of {list(ESTIMATOR_IDS)}")
    t = len(zbar)
    since = perf_counter()
    frame = normalise(sensors)
    gram, h = normal_equations(frame[0], zbar)
    now = perf_counter()
    normalised = now - since
    # Per LS design (unknown variance or not): its solution and the time of
    # its stages, then its first Gauss-Newton step and that stage's time.
    designs, steps, outcomes = {}, {}, []
    for est_id in est_ids:
        unknown = est_id.startswith("ls-u")
        if unknown not in designs:
            since = now
            p_ls, coef, bad = _least_squares(frame, gram, h, None if unknown else b)
            singular_code = _SINGULAR_UNKNOWN if unknown else _SINGULAR_KNOWN
            failure = np.where(bad, singular_code, np.where(np.isfinite(coef).all(axis=-1), 0, _LS_NONFINITE))
            now = perf_counter()
            designs[unknown] = p_ls, coef, failure, normalised + now - since
        p_ls, coef, failure, seconds = designs[unknown]
        refine = est_id.endswith("+gn") or est_id == "ml"
        if refine and unknown not in steps:
            since, rows = now, np.flatnonzero(failure == 0)
            layouts, y = (sensors, ybar) if len(rows) == t else (_layouts(sensors, rows), ybar[rows])
            first = gn_steps(p_ls[rows], layouts, y)
            now = perf_counter()
            steps[unknown] = rows, layouts, y, first, now - since
        since = now
        p_hat = p_ls.copy() if refine else p_ls
        degraded = np.zeros(t, dtype=bool)
        iterations = np.zeros(t, dtype=int)
        converged = np.ones(t, dtype=bool)
        if refine:
            rows, layouts, y, first, stepped_once = steps[unknown]
            seconds += stepped_once
            if est_id == "ml":
                failure = failure.copy()
                p_hat[rows], failure[rows], iterations[rows], converged[rows] = gn_continue(
                    p_ls[rows], first, layouts, y, _layouts(frame[2], rows)
                )
            else:
                refined, step_failure, _ = first
                stepped = step_failure == 0
                moved = rows[stepped]
                p_hat[moved] = refined[stepped]
                iterations[moved] = 1
                degraded[rows] = step_failure != 0
        now = perf_counter()
        outcomes.append(StackOutcome(p_hat, coef, failure, degraded, iterations, converged, seconds + now - since))
    return outcomes


def two_step(ms: MeasurementSet, noise: Optional[NoiseModel] = None) -> Estimate:
    """The two-step estimator: closed-form LS, then exactly one GN step.

    ``noise`` present selects the known-variance LS path (``ls+gn``), absent
    the unknown-variance path (``ls-u+gn``). If the refinement step fails
    numerically the LS estimate is returned flagged as degraded rather than
    erroring: small-sample trials can produce iterates arbitrarily close to
    a sensor.
    """
    if noise is None:
        return _estimate("ls-u+gn", ms)
    return _estimate("ls+gn", ms, noise.bias_b)


def ml_reference(ms: MeasurementSet, init) -> Estimate:
    """Minimise the ML objective from ``init``; reference approximation of the ML estimator.

    Runs the ML stages of estimate_stack: a first Gauss-Newton step, then
    backtracked Newton steps (gn_continue). The objective never rises above
    its value at ``init`` beyond rounding, and ``init`` is left unchanged.
    ``converged`` is True where a step direction fell below STEP_TOLERANCE
    times the layout's RMS radius (geometry.normalise), False where the
    iteration stopped after MAX_ITERATIONS steps or where a step halved
    below that tolerance did not pass; ``gn_iterations`` counts the steps
    (see gn_continue). A failing step raises its typed error. The Estimate
    is ``ml``'s, without LS coefficients.
    """
    p, sensors, y = _start(init, ms), ms.sensor_coords[None], ms.y[None]
    first, scale = gn_steps(p, sensors, y), normalise(sensors)[2]
    p_hat, failure, iterations, converged = gn_continue(p, first, sensors, y, scale)
    out = StackOutcome(p_hat, None, failure, np.zeros(1, dtype=bool), iterations, converged, 0.0)
    return _per_call("ml", out, ms)
