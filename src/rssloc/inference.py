"""Fisher information and Cramer-Rao bounds for the RSS model.

For n measurements (each of the T rounds contributes its sensor's term),

    F = (100 alpha^2 / sigma^2) * sum_i (p - p_i)(p - p_i)^T / (d_i^4 ln^2 10),

and CRLB = tr(F^{-1}), RCRLB = sqrt(CRLB). F is (100 alpha^2/sigma^2) n
times the mean over the k sensors of grad log10 d_i grad log10 d_i^T, the
finite-sample surrogate of the inverse asymptotic covariance.

The bound is always evaluated at the true source as a benchmarking oracle,
never at estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import List, Sequence, Tuple

import numpy as np

from .errors import (
    DegenerateGeometryError,
    InfiniteInformationError,
    InvalidInputError,
    NumericError,
    SingularPointError,
)
from .geometry import singular
from .model import LN10, SENSOR_CLEARANCE, NoiseModel, Scenario, floats, sensor_sq_distances

_SWEEP_PARAMS = ("rounds", "sigma")


@dataclass(frozen=True)
class FisherSummary:
    F: np.ndarray
    crlb: float
    rcrlb: float
    eval_point: np.ndarray


def crlb_stack(sensors: np.ndarray, p: np.ndarray, sq_distances, noise: NoiseModel, rounds: int):
    """The one CRLB kernel: tr(F^-1) at ``p`` for each layout of a stack
    (g, k, m), each sensor observed ``rounds`` times under ``noise``.
    ``sq_distances`` (g, k) is sq_norm(sensors - p), checked by the caller.

    The rows of grad (g, k, m) are the gradients of log10 d_i at p, which
    every round repeats. F = scale * rounds * G with G = grad^T grad and
    scale = noise.information(), so the CRLB is a sum over the eigenvalues
    of G, which the library's one gate checks: it rejects e.g. collinear
    sensors with p on or next to their line (DegenerateGeometryError).
    Returns (G (g, m, m), crlb (g,)); grad is built coordinate-major, as the
    Gauss-Newton Jacobian is. NumericError where the scale or a CRLB is not
    a finite positive double: the information scale * rounds * eigenvalue
    can overflow, or underflow to 0, at finite arguments.
    """
    g, k, m = sensors.shape
    gt = np.subtract(p[:, None], sensors.swapaxes(1, 2), out=np.empty((g, m, k)))
    gt /= (sq_distances * LN10)[:, None, :]
    gram = gt @ gt.swapaxes(1, 2)
    lam = np.linalg.eigvalsh(gram)
    if np.any(singular(lam, k)):
        raise DegenerateGeometryError("Fisher information matrix is singular")
    with np.errstate(over="ignore", divide="ignore"):
        crlb = np.sum(1.0 / (noise.information() * rounds * lam), axis=-1)
    if not np.all((crlb > 0.0) & (crlb < math.inf)):
        raise NumericError(f"CRLB is not a finite positive double at sigma_db={noise.sigma_db}, alpha={noise.alpha}")
    return gram, crlb


def fisher_information(scenario: Scenario, eval_point=None) -> FisherSummary:
    """Fisher information and CRLB/RCRLB at ``eval_point``.

    Defaults to evaluating at the true source. Each of the
    scenario.rounds observation rounds contributes its sensor term, so F
    scales linearly with the total measurement count n.
    """
    if scenario.sigma_db <= 0:
        raise InfiniteInformationError(
            "Fisher information is unbounded for noise-free measurements"
        )
    p = scenario.source if eval_point is None else floats(eval_point, "eval_point")
    if p.shape != (scenario.dimension,) or not np.all(np.isfinite(p)):
        raise InvalidInputError("eval_point must be a finite m-vector")
    sq_distances = sensor_sq_distances(scenario.sensors, p, "eval_point")[None]
    if np.any(sq_distances < SENSOR_CLEARANCE**2):
        raise SingularPointError("eval_point coincides with a sensor")
    noise = scenario.noise
    gram, crlb = crlb_stack(scenario.sensors[None], p, sq_distances, noise, scenario.rounds)
    m_n = gram[0] / scenario.n_sensors
    fisher = noise.information() * scenario.n_measurements * m_n
    return FisherSummary(
        F=fisher,
        crlb=float(crlb[0]),
        rcrlb=float(np.sqrt(crlb[0])),
        eval_point=p,
    )


def rcrlb_curve(
    scenario: Scenario, sweep: Sequence[float], param: str = "rounds"
) -> List[Tuple[float, float]]:
    """RCRLB as a function of rounds T or noise sigma.

    Exact scalings: rcrlb ~ 1/sqrt(T) for round sweeps and ~ sigma for noise
    sweeps. Each value is checked as the Scenario field it replaces, so a
    bool or a string raises InvalidInputError in either sweep.
    """
    if param not in _SWEEP_PARAMS:
        raise InvalidInputError(f"param must be one of {_SWEEP_PARAMS}")
    curve = []
    for value in sweep:
        if param == "rounds":
            variant = replace(scenario, rounds=value)
        else:
            variant = replace(scenario, sigma_db=value)
        curve.append((float(value), fisher_information(variant).rcrlb))
    return curve
