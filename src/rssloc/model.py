"""Measurement model for RSS source localization.

A source is observed by n sensors; the received power in dB follows a
log-distance law with additive Gaussian noise. Working in the "equivalent
measurement" domain, y_i = log10(d_i) + omega_i turns every downstream
estimator into a function of (sensor coords, y) only; the transmit constant
P0 cancels from y. :class:`NoiseModel` states the law of omega, and with it
the lognormal bias that drives the closed-form least-squares estimators and
the Fisher information behind the CRLB. This module owns the conversion of
field readings in dB to y and synthetic measurement generation by that law:
:func:`generate_measurements` draws one problem's y, and :func:`draw_means`
gives the Monte Carlo engine per-sensor means of such readings.

It also holds the JSON boundary both ways: :func:`floats`, :func:`number`
and :func:`known_keys` check what comes in, and :func:`table` and
:func:`strict_json` write every table and JSON document rssloc prints.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .errors import DegenerateGeometryError, InvalidInputError, NumericError

LN10 = math.log(10.0)

# The one near-sensor threshold (meters). A source closer than this to a
# sensor is rejected, and evaluating log10(distance) or its gradient closer
# than this raises SingularPointError: one nanometre is the coordinate
# resolution (one ulp) at UTM-scale coordinates of ~5e6 m, so any smaller
# distance cannot be told apart from a coincidence there.
SENSOR_CLEARANCE = 1e-9


def floats(values, name: str) -> np.ndarray:
    """``values`` as a float array; InvalidInputError where numpy reads it as
    ragged, or as booleans, strings or objects (``True`` and ``"2"`` are not
    1 and 2). The dtype is checked, not each element: numpy reads a list that
    mixes booleans with numbers, such as ``[True, 1.5]``, as numbers."""
    try:
        arr = np.asarray(values)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"{name} is not a rectangular array of numbers: {exc}") from None
    if arr.dtype.kind not in "iuf":
        raise InvalidInputError(f"{name} is not a rectangular array of numbers: numpy reads it as {arr.dtype}")
    return arr.astype(float, copy=False)


def _as_points(points, name: str) -> np.ndarray:
    arr = floats(points, name)
    if arr.ndim != 2:
        raise InvalidInputError(f"{name} must be a 2-D array of coordinates")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError(f"{name} contains non-finite coordinates")
    return arr


def number(value, name: str, whole: bool = False, error=InvalidInputError, low: int = 1):
    """``value`` as a float if it is a finite real number (not a bool), or with
    ``whole`` as an int if it is a whole number >= ``low``, else ``error``.
    30.0 is whole, because command-line sweep values are parsed as floats."""
    try:
        finite = isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)
    except OverflowError:  # an integer too large for a double
        finite = False
    if finite and (not whole or (value >= low and value == int(value))):
        return int(value) if whole else float(value)
    raise error(f"{name} must be a {f'whole number >= {low}' if whole else 'finite number'}, got {value!r}")


def known_keys(d, known, what: str, error=InvalidInputError) -> None:
    """Raise ``error`` unless ``d`` is a dict with no key outside ``known``."""
    if not isinstance(d, dict):
        raise error(f"{what} must be an object, got {type(d).__name__}")
    unknown = d.keys() - known
    if unknown:
        raise error(f"unknown {what} keys {sorted(unknown)}; known: {sorted(known)}")


def _finite(value):
    if isinstance(value, dict):
        return {k: _finite(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(v) for v in value]
    return None if isinstance(value, float) and not math.isfinite(value) else value


def strict_json(payload) -> str:
    """The one JSON encoder of rssloc output: indent 2, and a non-finite float
    (the NaN bias of an all-failed row, an infinite condition) becomes null."""
    return json.dumps(_finite(payload), indent=2, allow_nan=False)


def _cell(value) -> str:
    return "" if value is None else format(value, ".17g") if isinstance(value, float) else str(value)


def table(columns: Sequence[str], rows, fmt: str) -> str:
    """The one table writer: ``fmt`` "csv" gives a header line and one line
    per row, floats at %.17g and None as an empty cell; "json" gives a
    strict JSON list of objects keyed by ``columns``."""
    if fmt == "json":
        return strict_json([dict(zip(columns, row)) for row in rows])
    lines = [",".join(columns)] + [",".join(_cell(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def sq_norm(x: np.ndarray) -> np.ndarray:
    """x_0*x_0 + x_1*x_1 + ... over the last axis of x (m >= 2 coordinates),
    summed in coordinate order. For m <= 3 this is (x*x).sum(-1) bit for bit,
    and its sqrt np.linalg.norm(x, axis=-1), without a reduction over the
    short coordinate axis: each addition runs over the leading axes."""
    sq = x * x
    total = sq[..., 0] + sq[..., 1]
    for i in range(2, x.shape[-1]):
        total += sq[..., i]
    return total


def _dimension(points: np.ndarray) -> int:
    m = points.shape[-1]
    if m not in (2, 3):
        raise InvalidInputError(f"dimension must be 2 or 3, got {m}")
    return m


def sensor_sq_distances(sensors: np.ndarray, p: np.ndarray, point: str) -> np.ndarray:
    """sq_norm(sensors - p), the squared sensor distances of a finite p that
    errors call ``point``; NumericError where one overflows a double
    (coordinates past about 1e154)."""
    with np.errstate(over="ignore"):
        sq_distances = sq_norm(sensors - p)
    if not sq_distances.max() < math.inf:
        raise NumericError(f"a squared sensor-{point} distance overflows a double")
    return sq_distances


def check_layouts(sensors: np.ndarray, source, rounds):
    """The geometry checks of a :class:`Scenario`, run once on a stack of
    layouts (..., k, m) that share one source: at least one sensor, m in
    {2, 3}, a finite source m-vector, whole rounds >= 1 and every sensor at
    least SENSOR_CLEARANCE from the source (:class:`NoiseModel` checks the
    signal). Returns (source, rounds, sq_distances), the last
    sq_norm(sensors - source) (..., k), the squared distances it checks
    (``sensor_sq_distances``)."""
    if sensors.shape[-2] == 0:
        raise InvalidInputError("sensors list is empty")
    m = _dimension(sensors)
    source = floats(source, "source")
    if source.shape != (m,) or not np.all(np.isfinite(source)):
        raise InvalidInputError("source must be a finite m-vector")
    rounds = number(rounds, "rounds", whole=True)
    sq_distances = sensor_sq_distances(sensors, source, "source")
    if np.any(sq_distances < SENSOR_CLEARANCE**2):
        raise DegenerateGeometryError(
            "a sensor coincides with the source (distance < "
            f"{SENSOR_CLEARANCE})"
        )
    return source, rounds, sq_distances


@dataclass(frozen=True)
class Scenario:
    """One localization problem: geometry plus signal parameters.

    Attributes:
        sensors: (n_sensors, m) sensor coordinates in meters, m in {2, 3}.
        source: (m,) true source coordinates in meters.
        sigma_db: noise standard deviation in dB, >= 0.
        alpha: path-loss exponent, > 0 (2 corresponds to free space).
        rounds: number of i.i.d. observation rounds per sensor, a whole
            number >= 1 (see :func:`number`).

    sigma_db and alpha are checked and stored as :class:`NoiseModel`
    checks and stores them.
    """

    sensors: np.ndarray
    source: np.ndarray
    sigma_db: float
    alpha: float = 2.0
    rounds: int = 1

    def __post_init__(self):
        sensors = _as_points(self.sensors, "sensors")
        noise = self.noise
        object.__setattr__(self, "sigma_db", noise.sigma_db)
        object.__setattr__(self, "alpha", noise.alpha)
        source, rounds, _ = check_layouts(sensors, self.source, self.rounds)
        object.__setattr__(self, "sensors", sensors)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "rounds", rounds)

    @property
    def noise(self) -> "NoiseModel":
        return NoiseModel(self.sigma_db, self.alpha)

    @property
    def dimension(self) -> int:
        return self.sensors.shape[1]

    @property
    def n_sensors(self) -> int:
        return self.sensors.shape[0]

    @property
    def n_measurements(self) -> int:
        """Total number of measurements, sensors x rounds."""
        return self.n_sensors * self.rounds

    def distances(self) -> np.ndarray:
        """Sensor-to-source distances, shape (n_sensors,)."""
        return np.sqrt(sq_norm(self.sensors - self.source))

    def with_rounds(self, rounds: int) -> "Scenario":
        return replace(self, rounds=rounds)

    def with_sigma(self, sigma_db: float) -> "Scenario":
        return replace(self, sigma_db=sigma_db)

    def to_dict(self) -> dict:
        return {
            "dimension": self.dimension,
            "sensors": self.sensors.tolist(),
            "source": self.source.tolist(),
            "alpha": self.alpha,
            "sigma_db": self.sigma_db,
            "rounds": self.rounds,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Scenario":
        try:
            known_keys(d, {"dimension", "sensors", "source", "alpha", "sigma_db", "rounds"}, "scenario")
            scenario = cls(
                sensors=d["sensors"],
                source=d["source"],
                sigma_db=d["sigma_db"],
                alpha=d.get("alpha", 2.0),
                rounds=d.get("rounds", 1),
            )
            dimension = number(d["dimension"], "dimension", whole=True) if "dimension" in d else scenario.dimension
        except KeyError as exc:
            raise InvalidInputError(f"bad scenario dict: missing required key {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise InvalidInputError(f"bad scenario dict: {exc}") from exc
        if dimension != scenario.dimension:
            raise InvalidInputError("declared dimension does not match sensors")
        return scenario


@dataclass(frozen=True)
class MeasurementSet:
    """Equivalent measurements paired with the sensors that produced them.

    ``y`` holds the equivalent measurements (log10 meters); ``raw_db`` holds
    the underlying dB readings when the set originated from raw RSS data.
    """

    sensor_coords: np.ndarray
    y: np.ndarray
    raw_db: Optional[np.ndarray] = None

    def __post_init__(self):
        coords = _as_points(self.sensor_coords, "sensor_coords")
        _dimension(coords)
        y = floats(self.y, "y")
        if y.ndim != 1 or y.shape[0] != coords.shape[0]:
            raise InvalidInputError("sensor_coords and y must have equal length")
        if not np.all(np.isfinite(y)):
            raise InvalidInputError("y contains non-finite values")
        if y.shape[0] < coords.shape[1] + 1:
            raise InvalidInputError(
                f"need at least m+1 = {coords.shape[1] + 1} measurements"
            )
        raw = self.raw_db
        if raw is not None:
            raw = floats(raw, "raw_db")
            if raw.shape != y.shape:
                raise InvalidInputError("raw_db must match y in length")
            if not np.all(np.isfinite(raw)):
                raise InvalidInputError("raw_db contains non-finite values")
        object.__setattr__(self, "sensor_coords", coords)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "raw_db", raw)

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def dimension(self) -> int:
        return self.sensor_coords.shape[1]


def equivalent_measurement(raw_db, p0: float, alpha: float):
    """Convert a raw dB reading 10*log10(P) into its equivalent measurement.

    Returns y = -(raw_db/10 - log10(p0)) / alpha, which equals log10(distance)
    plus noise under the measurement model, for a field reading taken with
    transmit constant p0 > 0. Accepts scalars or arrays. p0 and alpha are
    read by :func:`number`: a bool or a string raises InvalidInputError.
    """
    p0, alpha = number(p0, "p0"), number(alpha, "alpha")
    if not (p0 > 0):
        raise InvalidInputError("p0 must be positive")
    if not (alpha > 0):
        raise InvalidInputError("alpha must be positive")
    raw = floats(raw_db, "raw_db")
    if not np.all(np.isfinite(raw)):
        raise InvalidInputError("raw_db contains non-finite values")
    y = raw / 10.0
    y -= math.log10(p0)
    # -(x) / alpha and x / -alpha are the same double.
    y /= -alpha
    return float(y) if np.isscalar(raw_db) else y


def lognormal_bias(sigma_db: float, alpha: float) -> float:
    """NoiseModel(sigma_db, alpha).bias_b, the mean b of 10**(2*omega)."""
    return NoiseModel(sigma_db, alpha).bias_b


def lognormal_variance(sigma_db: float, alpha: float) -> float:
    """Variance of 10**(2*omega), equal to b^2 * (b^2 - 1); NumericError on overflow."""
    b = lognormal_bias(sigma_db, alpha)
    variance = b * b * (b * b - 1.0)
    if not math.isfinite(variance):
        raise NumericError(f"lognormal variance overflows at sigma_db={sigma_db}, alpha={alpha}")
    return variance


@dataclass(frozen=True)
class NoiseModel:
    """The law of a reading's noise, written out here alone.

    A reading is y = log10(d) - w*eps, eps standard normal, w = ``omega_std``
    = sigma/(10*alpha). The known-variance LS divides out ``bias_b``, the mean
    exp((ln 10)^2 sigma^2 / (50 alpha^2)) >= 1 of 10**(2*w*eps); a reading
    carries Fisher information :meth:`information` = 100 alpha^2 / sigma^2 per
    unit of grad log10 d grad log10 d^T. Both are computed when read and raise
    NumericError where they overflow or underflow a double, so a model whose
    bias overflows still draws and bounds. sigma_db and alpha are stored as
    floats; a bool, a string, a non-finite value, sigma_db < 0 or alpha <= 0
    raises InvalidInputError. Passing a NoiseModel to an estimator selects the
    known-variance path.
    """

    sigma_db: float
    alpha: float = 2.0

    def __post_init__(self):
        for name in ("sigma_db", "alpha"):
            object.__setattr__(self, name, number(getattr(self, name), name))
        if not (self.sigma_db >= 0):
            raise InvalidInputError("sigma_db must be nonnegative")
        if not (self.alpha > 0):
            raise InvalidInputError("alpha must be positive")

    @property
    def omega_std(self) -> float:
        return self.sigma_db / (10.0 * self.alpha)

    @property
    def bias_b(self) -> float:
        try:
            return math.exp(LN10**2 * self.sigma_db**2 / (50.0 * self.alpha**2))
        except (OverflowError, ZeroDivisionError):
            raise NumericError(f"lognormal bias overflows at sigma_db={self.sigma_db}, alpha={self.alpha}") from None

    def information(self) -> float:
        try:
            scale = 100.0 * self.alpha**2 / self.sigma_db**2
        except (OverflowError, ZeroDivisionError):
            scale = math.inf
        if not (0.0 < scale < math.inf):
            raise NumericError(
                f"Fisher information is not a finite positive double at sigma_db={self.sigma_db}, alpha={self.alpha}"
            )
        return scale


# A trial stream's path has 1 to 3 words; the counter holds them above the
# position word, in a Philox4x64 counter of four 64-bit words.
_PATH_WORDS = 3
_WORD_END = 2**64


def trial_streams(master_seed: int):
    """Counter-based trial streams of one master seed: returns ``seek(*path)``.

    A path's stream is a counter range of a keyed Philox4x64 generator
    (Salmon et al., SC 2011). The key is ``SeedSequence(master_seed, spawn_key=(len(path),))
    .generate_state(2, uint64)``, derived once per path length on the first
    seek of that length; putting the length in the key keeps (5,), (5, 0)
    and (5, 0, 0) apart. The counter is [position, *path], zero-padded to
    four words: the low word is the position, so each path owns 2**64
    blocks. ``seek(*path)`` sets the counter of the generator of that path
    length to the start of ``path``, drops any buffered output, and returns
    the generator, so one generator serves every trial of a sweep point: a
    draw from it depends on the path alone, not on earlier draws or seeks.
    The generator is repositioned by the next seek of the same path length,
    so draw from it before seeking again.

    A seek is one write of the generator's state, held as Python ints: the
    counter as a list of four words, the key and an empty buffer
    (buffer_pos 4, has_uint32 0) as lists. The first seek of a path length
    takes it from the fresh generator, at position 0; a seek writes the path
    words into the counter list and assigns the state, which then reads no
    numpy array element by element.

    A path is 1 to 3 whole words, each in [0, 2**64) and none a bool;
    anything else raises InvalidInputError, and so does a master seed that
    is not a whole number >= 0.
    """
    master_seed = number(master_seed, "master_seed", True, low=0)
    seekers = {}

    def seek(*path) -> np.random.Generator:
        if not 1 <= len(path) <= _PATH_WORDS:
            raise InvalidInputError(f"a trial stream path has 1 to {_PATH_WORDS} words, got {path!r}")
        for word in path:
            if not (type(word) is int or isinstance(word, np.integer)) or not 0 <= word < _WORD_END:
                raise InvalidInputError(f"a trial stream path word is a whole number in [0, 2**64), got {word!r}")
        seeker = seekers.get(len(path))
        if seeker is None:
            key = np.random.SeedSequence(master_seed, spawn_key=(len(path),))
            bit_generator = np.random.Philox(key)
            state = bit_generator.state
            words = state["state"]
            state["state"] = {"counter": words["counter"].tolist(), "key": words["key"].tolist()}
            state["buffer"] = state["buffer"].tolist()
            seeker = seekers[len(path)] = (np.random.Generator(bit_generator), state)
        rng, state = seeker
        state["state"]["counter"][1 : 1 + len(path)] = path
        rng.bit_generator.state = state
        return rng

    return seek


def trial_rng(master_seed: int, *path: int) -> np.random.Generator:
    """A fresh generator positioned at the trial stream ``path`` of
    ``master_seed``: ``trial_streams(master_seed)(*path)``, the seek the Monte
    Carlo engine makes for each trial, so a trial replays on its own bit for
    bit. (master_seed, path) fully determines the stream; see
    :func:`trial_streams` for the key, the counter layout and the path rules.
    """
    return trial_streams(master_seed)(*path)


def _sum_rounds(eps: np.ndarray, out: np.ndarray) -> None:
    # ones @ eps sums (trials, rounds, k) over the rounds into out faster
    # than eps.sum(axis=1) at T >= 3, but is slow at T = 1, where the sum is
    # eps[:, 0] bit for bit.
    if eps.shape[1] == 1:
        np.copyto(out, eps[:, 0])
    else:
        np.matmul(np.ones(eps.shape[1]), eps, out=out)


def draw_means(seek, paths, eps: np.ndarray, sq_distances: np.ndarray, noise: NoiseModel, ybar, zbar) -> None:
    """Fill the block ``eps`` (trials, rounds, k) with standard normals, one
    trial per path of ``paths``, and write each trial's per-sensor means over
    its rounds of y and of 10**(2*y) into its rows of ``ybar``, ``zbar`` (trials,
    k). Row r of a trial's slice holds round r of every sensor; ``sq_distances``
    (g, k), g in {1, trials}, holds the squared distances d**2.

    Trial t's slice is drawn from ``seek(*path)`` for the t-th path alone,
    right after that seek (``seek`` as from :func:`trial_streams`, which may
    reposition one generator per call), so a block of one trial gives the
    engine's bits. With w = noise.omega_std, a reading is y = log10(d) - w*eps
    (:class:`NoiseModel`), as :func:`generate_measurements` draws it; the
    means come straight from eps:

        ybar = log10(d) - (w/T) * sum_r eps_r,
        zbar = d**2 * sum_r exp(-2*ln(10)*w*eps_r) / T,

    one multiply and one exp per reading (``eps`` is overwritten). At T = 1
    the sums over the rounds are eps itself, bit for bit, and ``eps`` may be
    ``zbar[:, None]``, the rows it is reduced into. At sigma = 0 ybar is
    log10(d) and zbar is d**2 bit for bit.
    """
    for block, path in zip(eps, paths):
        seek(*path).standard_normal(out=block)
    rounds, omega_std = eps.shape[1], noise.omega_std
    _sum_rounds(eps, ybar)
    ybar *= -omega_std / rounds
    ybar += np.log10(np.sqrt(sq_distances))
    eps *= -2.0 * LN10 * omega_std
    _sum_rounds(np.exp(eps, out=eps), zbar)
    zbar /= rounds
    zbar *= sq_distances


def generate_measurements(scenario: Scenario, seed) -> MeasurementSet:
    """Draw one synthetic MeasurementSet from a scenario.

    Each reading is y = log10(d) - w*eps by the scenario's
    :class:`NoiseModel`, the formula whose per-sensor means :func:`draw_means`
    gives the engine. The normals are one (rounds, sensors) draw and the rows
    are flattened round-major: all sensors for round 0, then round 1, and so
    on. ``seed`` may be an int or a Generator.

    Identical (scenario, seed) always yields a bit-identical result.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    y = rng.standard_normal((scenario.rounds, scenario.n_sensors))
    y *= -scenario.noise.omega_std
    y += np.log10(scenario.distances())
    coords = np.tile(scenario.sensors, (scenario.rounds, 1))
    return MeasurementSet(sensor_coords=coords, y=y.ravel())
