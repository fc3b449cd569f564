"""Fisher information and Cramer-Rao bounds for the RSS model.

For n measurements (each of the T rounds contributes its sensor's term),

    F = (100 alpha^2 / sigma^2) * sum_i (p - p_i)(p - p_i)^T / (d_i^4 ln^2 10),

and CRLB = tr(F^{-1}), RCRLB = sqrt(CRLB). The normalized matrix
M_n = (1/n) sum grad f_i grad f_i^T satisfies F = (100 alpha^2/sigma^2) n M_n
and serves as the finite-sample surrogate of the asymptotic covariance.

The bound is always evaluated at the true source as a benchmarking oracle,
never at estimates.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Sequence, Tuple

import numpy as np

from .errors import (
    DegenerateGeometryError,
    InfiniteInformationError,
    InvalidInputError,
    SingularPointError,
)
from .geometry import singular
from .model import LN10, SENSOR_CLEARANCE, Scenario

_SWEEP_PARAMS = ("rounds", "sigma")


@dataclass(frozen=True)
class FisherSummary:
    F: np.ndarray
    crlb: float
    rcrlb: float
    M_n: np.ndarray
    eval_point: np.ndarray


def fisher_information(scenario: Scenario, eval_point=None) -> FisherSummary:
    """Fisher information, CRLB/RCRLB, and M_n at ``eval_point``.

    Defaults to evaluating at the true source. Each of the
    scenario.rounds observation rounds contributes its sensor term, so F
    scales linearly with the total measurement count n.
    """
    if scenario.sigma_db <= 0:
        raise InfiniteInformationError(
            "Fisher information is unbounded for noise-free measurements"
        )
    p = scenario.source if eval_point is None else np.asarray(eval_point, dtype=float)
    if p.shape != (scenario.dimension,):
        raise InvalidInputError("eval_point must be an m-vector")
    diff = p - scenario.sensors
    d2 = np.sum(diff**2, axis=1)
    if np.any(np.sqrt(d2) < SENSOR_CLEARANCE):
        raise SingularPointError("eval_point coincides with a sensor")
    # Rows: the gradients of log10 d_i, which every round repeats.
    grad = diff / (d2 * LN10)[:, None]
    m_n = grad.T @ grad / len(grad)
    scale = 100.0 * scenario.alpha**2 / scenario.sigma_db**2
    fisher = scale * scenario.n_measurements * m_n
    # F = scale * rounds * grad^T grad, so CRLB = tr(F^-1) is a sum over the
    # singular values of grad, which the library's one gate checks: it
    # rejects e.g. collinear sensors with the source on or next to their line.
    s = np.linalg.svd(grad, compute_uv=False)
    if singular(s, len(p)):
        raise DegenerateGeometryError("Fisher information matrix is singular")
    crlb = float(np.sum(1.0 / (scale * scenario.rounds * s**2)))
    return FisherSummary(
        F=fisher,
        crlb=crlb,
        rcrlb=float(np.sqrt(crlb)),
        M_n=m_n,
        eval_point=p,
    )


def rcrlb_curve(
    scenario: Scenario, sweep: Sequence[float], param: str = "rounds"
) -> List[Tuple[float, float]]:
    """RCRLB as a function of rounds T or noise sigma.

    Exact scalings: rcrlb ~ 1/sqrt(T) for round sweeps and ~ sigma for noise
    sweeps.
    """
    if param not in _SWEEP_PARAMS:
        raise InvalidInputError(f"param must be one of {_SWEEP_PARAMS}")
    curve = []
    for value in sweep:
        if param == "rounds":
            variant = replace(scenario, rounds=value)
        else:
            variant = replace(scenario, sigma_db=float(value))
        curve.append((float(value), fisher_information(variant).rcrlb))
    return curve
