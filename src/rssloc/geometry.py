"""Sensor-geometry localizability and the library's one degeneracy gate.

Two conditions decide which estimators a sensor layout can support:

* hyperplane test -- the sensors do not all lie on a line (2-D) / plane
  (3-D); required by the known-variance least-squares path;
* hypersphere test -- the sensors do not all lie on a circle / sphere;
  additionally required by the unknown-variance path, whose design matrix
  carries a ||p_i||^2 column.

Both are similarity-invariant, so both are decided on the layout normalised
to its centroid and unit RMS radius (:func:`normalise`) by the one gate
:func:`singular`, on the eigenvalues of each design's Gram matrix
(:func:`normal_equations`). The least-squares estimators solve from that Gram
behind this gate, so :func:`localizability` reports their decision, bit for
bit, and the Gram condition they gate on.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from enum import Enum

import numpy as np

from .errors import InsufficientSensorsError
from .model import _as_points, _dimension

# Gram condition lambda_max / lambda_min above which a least-squares design, a
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
        with fewer rows than columns or a Gram eigenvalue <= 0."""
        return {**asdict(self), "verdict": self.verdict.value}


def hypersphere_design(sensors: np.ndarray) -> np.ndarray:
    """Rows [-2*p_i^T, 1, ||p_i||^2]; the unknown-variance design matrix.

    Leading axes of ``sensors`` (..., n, m) are kept, so a stack of layouts
    gives a stack of designs. Built coordinate-major: the transposed view of
    a contiguous (..., m+2, n) array, one row per column.
    """
    m = sensors.shape[-1]
    dt = np.empty(sensors.shape[:-2] + (m + 2, sensors.shape[-2]))
    np.multiply(sensors.swapaxes(-1, -2), -2.0, out=dt[..., :m, :])
    dt[..., m, :] = 1.0
    np.einsum("...km,...km->...k", sensors, sensors, out=dt[..., m + 1, :])
    return dt.swapaxes(-1, -2)


def normalise(sensors: np.ndarray):
    """Centre each layout of a stack (..., n, m) at its centroid c and scale
    it to unit RMS radius s.

    Returns (q, c, s) with sensors = c + s * q; q is (..., n, m), c (..., m)
    and s (...). A layout whose sensors all coincide keeps s = 1. c is the
    einsum sum over the n rows divided by n: mean(axis=-2) bit for bit, in
    one contiguous pass rather than a reduction strided by m.
    """
    c = np.einsum("...km->...m", sensors) / sensors.shape[-2]
    q = sensors - c[..., None, :]
    s = np.sqrt(np.einsum("...km,...km->...", q, q) / q.shape[-2])
    s = np.where(s > 0, s, 1.0)
    q /= s[..., None, None]
    return q, c, s


def normal_equations(q: np.ndarray, z: np.ndarray = None):
    """G = A^T A (g, m+2, m+2) for the hypersphere designs A of normalised
    layouts q (g, k, m), and with z (t, k), g in {1, t}, also h = A^T z
    (t, m+2), one product per row of z, so a row's bits do not depend on the
    others. G's leading (m+1) block is the hyperplane design's Gram."""
    at = hypersphere_design(q).swapaxes(-1, -2)
    gram = at @ at.swapaxes(-1, -2)
    return gram if z is None else (gram, (at @ z[:, :, None])[..., 0])


def singular(lam: np.ndarray, rows: int) -> np.ndarray:
    """The one degeneracy gate, on the eigenvalues lam (..., c) of Gram
    matrices A^T A, ascending as eigh returns them, A with ``rows`` rows: True
    where rows < c, lambda_min <= 0 or lambda_max / lambda_min is above
    GRAM_CONDITION_LIMIT."""
    if rows < lam.shape[-1]:
        return np.ones(lam.shape[:-1], dtype=bool)
    return ~((lam[..., 0] > 0) & (lam[..., -1] <= GRAM_CONDITION_LIMIT * lam[..., 0]))


def localizability(sensors) -> LocalizabilityReport:
    """Both tests and the Gram conditions they gate on: one eigh per design
    of the Gram the estimators solve from, built and gated as they do, so a
    verdict is their gate on the same rows, bit for bit.

    Verdict: NotLocalizable if the hyperplane test fails, KnownVarianceOnly
    if only the hypersphere test fails (or there are too few sensors for it),
    else FullyLocalizable. Sensors that are not 2-D or 3-D raise
    InvalidInputError, as they do for the estimators.
    """
    pts = _as_points(sensors, "sensors")
    n, m = pts.shape[0], _dimension(pts)
    if n < m + 1:
        raise InsufficientSensorsError(f"hyperplane test needs at least m+1 = {m + 1} sensors, got {n}")
    gram = normal_equations(normalise(pts[None])[0])
    tests = []
    for block in (gram[:, : m + 1, : m + 1], gram):
        lam = np.linalg.eigh(block)[0]
        full = n >= lam.shape[-1] and lam[0, 0] > 0
        tests.append((float(lam[0, -1] / lam[0, 0]) if full else math.inf, not singular(lam, n)[0]))
    (condition_known, hyperplane_ok), (condition_unknown, hypersphere_ok) = tests
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
