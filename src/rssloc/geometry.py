"""Sensor-geometry localizability diagnostics.

Two finite-sample rank tests decide which estimators a sensor layout can
support:

* hyperplane test -- the sensors do not all lie on a line (2-D) / plane
  (3-D); required by the known-variance least-squares path;
* hypersphere test -- the sensors do not all lie on a circle / sphere;
  additionally required by the unknown-variance path, whose design matrix
  carries a ||p_i||^2 column.

Both are singular-value rank tests with a relative threshold. The report is
advisory: estimators perform their own conditioning checks and near-degenerate
layouts are reported, not rejected.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InsufficientSensorsError
from .model import _as_points

# Relative singular-value threshold separating exact degeneracy from mere
# ill-conditioning (which is reported via the Gram condition numbers).
TOL_RANK = 1e-8


class Localizability(str, Enum):
    NOT_LOCALIZABLE = "NotLocalizable"
    KNOWN_VARIANCE_ONLY = "KnownVarianceOnly"
    FULLY_LOCALIZABLE = "FullyLocalizable"


@dataclass(frozen=True)
class LocalizabilityReport:
    hyperplane_ok: bool
    hypersphere_ok: bool
    gram_condition_known: float
    gram_condition_unknown: float
    verdict: Localizability

    def to_dict(self) -> dict:
        return {
            "hyperplane_ok": self.hyperplane_ok,
            "hypersphere_ok": self.hypersphere_ok,
            "gram_condition_known": self.gram_condition_known,
            "gram_condition_unknown": self.gram_condition_unknown,
            "verdict": self.verdict.value,
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


def hyperplane_design(sensors: np.ndarray) -> np.ndarray:
    """Rows [-2*p_i^T, 1]; the known-variance design matrix up to the b factor.

    Leading axes of ``sensors`` (..., n, m) are kept, so a stack of layouts
    gives a stack of designs.
    """
    ones = np.ones(sensors.shape[:-1] + (1,))
    return np.concatenate([-2.0 * sensors, ones], axis=-1)


def hypersphere_design(sensors: np.ndarray) -> np.ndarray:
    """Rows [-2*p_i^T, 1, ||p_i||^2]; the unknown-variance design matrix."""
    ones = np.ones(sensors.shape[:-1] + (1,))
    sq = np.einsum("...km,...km->...k", sensors, sensors)[..., None]
    return np.concatenate([-2.0 * sensors, ones, sq], axis=-1)


def _full_rank(matrix: np.ndarray) -> bool:
    s = np.linalg.svd(matrix, compute_uv=False)
    return bool(s[-1] > TOL_RANK * s[0])


def check_hyperplane(sensors) -> bool:
    """True iff the sensors affinely span the full space.

    Centered sensor matrix must have rank m; fails exactly when all sensors
    lie on a common line (2-D) or plane (3-D).
    """
    pts = _as_points(sensors, "sensors")
    n, m = pts.shape
    if n < m + 1:
        raise InsufficientSensorsError(
            f"hyperplane test needs at least m+1 = {m + 1} sensors, got {n}"
        )
    centered = pts - pts.mean(axis=0)
    return _full_rank(centered)


def check_hypersphere(sensors) -> bool:
    """True iff no single circle (2-D) / sphere (3-D) contains all sensors.

    Tests full column rank of the n x (m+2) design with rows
    [-2*p_i^T, 1, ||p_i||^2]: a null vector with nonzero last component
    certifies concyclicity/cosphericity, one with zero last component
    certifies cohyperplanarity, so this condition subsumes the hyperplane
    test.
    """
    pts = _as_points(sensors, "sensors")
    n, m = pts.shape
    if n < m + 2:
        raise InsufficientSensorsError(
            f"hypersphere test needs at least m+2 = {m + 2} sensors, got {n}"
        )
    # Concyclicity is similarity-invariant; center and scale-normalize so the
    # ||p||^2 column cannot dominate the rank test for far-from-origin layouts.
    centered = pts - pts.mean(axis=0)
    scale = np.sqrt(np.mean(np.sum(centered**2, axis=1)))
    if scale > 0:
        centered = centered / scale
    return _full_rank(hypersphere_design(centered))


def gram_condition(design: np.ndarray) -> float:
    """Condition number of design^T design / n."""
    n = design.shape[0]
    return float(np.linalg.cond(design.T @ design / n))


def localizability(sensors) -> LocalizabilityReport:
    """Combine both rank tests into an advisory report.

    Verdict: NotLocalizable if the hyperplane test fails, KnownVarianceOnly
    if only the hypersphere test fails (or there are too few sensors for it),
    else FullyLocalizable.
    """
    pts = _as_points(sensors, "sensors")
    hyperplane_ok = check_hyperplane(pts)
    try:
        hypersphere_ok = check_hypersphere(pts)
    except InsufficientSensorsError:
        hypersphere_ok = False
    if not hyperplane_ok:
        verdict = Localizability.NOT_LOCALIZABLE
    elif not hypersphere_ok:
        verdict = Localizability.KNOWN_VARIANCE_ONLY
    else:
        verdict = Localizability.FULLY_LOCALIZABLE
    return LocalizabilityReport(
        hyperplane_ok=hyperplane_ok,
        hypersphere_ok=hypersphere_ok,
        gram_condition_known=gram_condition(hyperplane_design(pts)),
        gram_condition_unknown=gram_condition(hypersphere_design(pts)),
        verdict=verdict,
    )
