"""Sensor-geometry localizability and the library's one degeneracy gate.

Two conditions decide which estimators a sensor layout can support:

* hyperplane test -- the sensors do not all lie on a line (2-D) / plane
  (3-D); required by the known-variance least-squares path;
* hypersphere test -- the sensors do not all lie on a circle / sphere;
  additionally required by the unknown-variance path, whose design matrix
  carries a ||p_i||^2 column.

Both are similarity-invariant, so both are decided on the layout normalised
to its centroid and unit RMS radius (:func:`normalise`) by the one gate
:func:`singular`. The least-squares estimators solve on these designs behind
this gate, so :func:`localizability` reports their decision and the Gram
condition they gate on.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from enum import Enum

import numpy as np

from .errors import InsufficientSensorsError
from .model import _as_points, _dimension

# Gram condition (s_max / s_min)^2 above which a least-squares design, a
# Gauss-Newton Jacobian or a Fisher information matrix is singular.
GRAM_CONDITION_LIMIT = 1e12


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
        """The fields, verdict as its value; a condition is inf for a design
        with fewer rows than columns or a zero singular value."""
        return {**asdict(self), "verdict": self.verdict.value}


def _design(sensors: np.ndarray, columns: int) -> np.ndarray:
    """A design with ``columns`` columns whose first m+1 are [-2*p_i^T, 1],
    built coordinate-major: the transposed view of a contiguous (..., columns,
    n) array, one row per column, which is the column-major layout LAPACK
    reads."""
    m = sensors.shape[-1]
    dt = np.empty(sensors.shape[:-2] + (columns, sensors.shape[-2]))
    np.multiply(sensors.swapaxes(-1, -2), -2.0, out=dt[..., :m, :])
    dt[..., m, :] = 1.0
    return dt.swapaxes(-1, -2)


def hyperplane_design(sensors: np.ndarray) -> np.ndarray:
    """Rows [-2*p_i^T, 1]; the known-variance design matrix up to the b factor.

    Leading axes of ``sensors`` (..., n, m) are kept, so a stack of layouts
    gives a stack of designs.
    """
    return _design(sensors, sensors.shape[-1] + 1)


def hypersphere_design(sensors: np.ndarray) -> np.ndarray:
    """Rows [-2*p_i^T, 1, ||p_i||^2]; the unknown-variance design matrix."""
    design = _design(sensors, sensors.shape[-1] + 2)
    np.einsum("...km,...km->...k", sensors, sensors, out=design[..., -1])
    return design


def normalise(sensors: np.ndarray):
    """Centre each layout of a stack (..., n, m) at its centroid c and scale
    it to unit RMS radius s.

    Returns (q, c, s) with sensors = c + s * q; q is (..., n, m), c (..., m)
    and s (...). A layout whose sensors all coincide keeps s = 1.
    """
    c = sensors.mean(axis=-2)
    q = sensors - c[..., None, :]
    s = np.sqrt(np.einsum("...km,...km->...", q, q) / q.shape[-2])
    s = np.where(s > 0, s, 1.0)
    return q / s[..., None, None], c, s


def singular(s: np.ndarray, columns: int) -> np.ndarray:
    """The one degeneracy gate, on the singular values s (..., r) of matrices
    with ``columns`` columns, in descending order.

    True where a matrix has fewer rows than columns, a zero smallest singular
    value, or a Gram condition (s_max / s_min)^2 above GRAM_CONDITION_LIMIT.
    """
    if s.shape[-1] < columns:
        return np.ones(s.shape[:-1], dtype=bool)
    return ~((s[..., -1] > 0) & (s[..., 0] <= math.sqrt(GRAM_CONDITION_LIMIT) * s[..., -1]))


def _gate(design: np.ndarray):
    """(Gram condition, passes the gate) of one normalised design."""
    s = np.linalg.svd(design, compute_uv=False)
    full = s.shape[-1] == design.shape[-1] and s[-1] > 0
    return (float((s[0] / s[-1]) ** 2) if full else math.inf), not singular(s, design.shape[-1])


def _enough(pts: np.ndarray, extra: int, test: str) -> np.ndarray:
    n, m = pts.shape[0], _dimension(pts)
    if n < m + extra:
        raise InsufficientSensorsError(
            f"{test} test needs at least m+{extra} = {m + extra} sensors, got {n}"
        )
    return pts


def check_hyperplane(sensors) -> bool:
    """True iff the sensors affinely span the full space: not all of them lie
    on one line (2-D) or plane (3-D). See :func:`localizability`."""
    return localizability(sensors).hyperplane_ok


def check_hypersphere(sensors) -> bool:
    """True iff no single circle (2-D) / sphere (3-D) contains all sensors.

    A null vector of the n x (m+2) design [-2*q_i^T, 1, ||q_i||^2] with
    nonzero last component certifies concyclicity/cosphericity, one with
    zero last component cohyperplanarity, so this test subsumes the
    hyperplane test. See :func:`localizability`.
    """
    pts = _enough(_as_points(sensors, "sensors"), 2, "hypersphere")
    return localizability(pts).hypersphere_ok


def localizability(sensors) -> LocalizabilityReport:
    """Both tests and the Gram conditions they gate on, one SVD per design.

    Verdict: NotLocalizable if the hyperplane test fails, KnownVarianceOnly
    if only the hypersphere test fails (or there are too few sensors for it),
    else FullyLocalizable. Sensors that are not 2-D or 3-D raise
    InvalidInputError, as they do for the estimators.
    """
    q = normalise(_enough(_as_points(sensors, "sensors"), 1, "hyperplane"))[0]
    condition_known, hyperplane_ok = _gate(hyperplane_design(q))
    condition_unknown, hypersphere_ok = _gate(hypersphere_design(q))
    if not hyperplane_ok:
        verdict = Localizability.NOT_LOCALIZABLE
    elif not hypersphere_ok:
        verdict = Localizability.KNOWN_VARIANCE_ONLY
    else:
        verdict = Localizability.FULLY_LOCALIZABLE
    return LocalizabilityReport(
        hyperplane_ok=hyperplane_ok,
        hypersphere_ok=hypersphere_ok,
        gram_condition_known=condition_known,
        gram_condition_unknown=condition_unknown,
        verdict=verdict,
    )
