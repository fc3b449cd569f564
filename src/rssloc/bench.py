"""Monte Carlo benchmark harness, and the one owner of rssloc's output format.

Reproduces the bias/RMSE/timing experiment protocol: a registry of the three
scenario families (2-D fixed ring, 2-D random square, 3-D fixed) and sweeps
over rounds T, noise sigma, or random-deployment size n.

The engine handles a sweep point in blocks of whole trials of about
``BLOCK_DOUBLES`` doubles (one trial at least). ``sweep_point`` draws the
standard normals eps as blocks (trials, rounds, sensors) and reduces each
block at once to per-sensor means of y and of 10**(2*y) over the rounds,
in closed form from eps (``model.draw_means``: y = log10(d) - w*eps with
w = sigma/(10*alpha), as ``model.generate_measurements`` draws a reading)
in the point's arrays, which fresh layouts are drawn into as well.
The layouts are checked, their RCRLB computed and the estimators run in
blocks sized by the largest design, k x (m+2) doubles per trial: 32 trials
at k = 1000, a whole fixed-layout point at k = 10. Each block runs one
``estimators.estimate_stack`` call for all the requested estimators, which
runs the stages they share (the normalised layouts, each LS design, the
first Gauss-Newton step) once. A problem's arithmetic does not depend on its
stack-mates or on the other estimators of the call, so neither the blocks
nor the sharing change reports, and memory grows only with the layouts and
means of the point: 2d-random at n = 1000 and 1000 trials peaks at about
44 MB traced. ``estimate_stack`` is the one implementation of the estimator
policy, which the per-call API also runs, with one estimator, on a trial's n
tiled measurements; in exact arithmetic the two give the same estimates.

Per-trial randomness is a counter-based stream (``model.trial_streams``):
one Philox generator per sweep point, keyed once by the master seed, seeks
the counter (sweep_index, trial_index, stream) of each trial, so every trial
can be replayed on its own with ``model.trial_rng``. Wall-clock timing is
the one nondeterministic output; configs can disable it
(``measure_time=False``) when byte-identical reports are required.

Every table rssloc prints is written by :func:`table` (CSV at %.17g, or JSON),
every JSON document by :func:`strict_json`, which prints non-finite as null.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import astuple, dataclass, fields
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import ConfigError, InvalidInputError, RssLocError
from .estimators import ESTIMATOR_IDS, estimate_stack, two_step
from .inference import crlb_stack
from .model import (
    NoiseModel,
    Scenario,
    check_layouts,
    draw_means,
    floats,
    generate_measurements,
    known_keys,
    number,
    trial_streams,
)

SWEEP_PARAMS = ("rounds", "sigma", "n_random")
_CONFIG_KEYS = ("scenario", "estimators", "sweep", "trials", "sigma_db", "alpha", "master_seed", "fixed_geometry",
                "measure_time")

# A sweep point is drawn, checked and solved in blocks of whole trials of
# about this many doubles (1 MiB): readings when drawn, design entries when
# solved. Blocks of 2**18 run no faster and take more memory; 2**16 and
# smaller slow the estimators at k = 1000.
BLOCK_DOUBLES = 2**17


@dataclass(frozen=True)
class RandomScenarioFamily:
    """Uniformly deployed sensors in a finite box; geometry is sampled per use."""

    source: Tuple[float, ...] = (120.0, 20.0)
    low: float = 0.0
    high: float = 100.0
    sigma_db: float = 2.0
    alpha: float = 2.0

    def __post_init__(self):
        for name in ("low", "high", "sigma_db", "alpha"):
            object.__setattr__(self, name, number(getattr(self, name), name))
        if not (self.low <= self.high and math.isfinite(self.high - self.low)):
            raise InvalidInputError(f"need low <= high with a finite range, got {self.low}, {self.high}")
        source = floats(self.source, "source")
        if source.shape not in ((2,), (3,)) or not np.all(np.isfinite(source)):
            raise InvalidInputError("source must be a finite 2- or 3-vector")
        object.__setattr__(self, "source", tuple(source.tolist()))

    @property
    def dimension(self) -> int:
        return len(self.source)

    def layouts(self, rngs, out: np.ndarray) -> np.ndarray:
        """Fill ``out`` (g, n, m) with layout i as rng.uniform(low, high, (n, m))
        draws it from the i-th generator of ``rngs``, taken just before; return out."""
        for rows, rng in zip(out, rngs):
            rng.random(out=rows)
        out *= self.high - self.low
        out += self.low
        return out

    def sample(self, n: int, rng: np.random.Generator) -> Scenario:
        return Scenario(
            sensors=self.layouts([rng], np.empty((1, n, self.dimension)))[0],
            source=np.asarray(self.source, dtype=float),
            sigma_db=self.sigma_db,
            alpha=self.alpha,
            rounds=1,
        )


def scenario_registry(sigma_db: float = 2.0, alpha: float = 2.0) -> dict:
    """The three benchmark scenario families, keyed by id.

    Fixed families are returned as Scenario objects with rounds=1; the
    random family is a RandomScenarioFamily sampled per (n, rng).
    """
    sensors_2d = [
        [0, 20], [0, 50], [50, 50], [50, 0], [50, -50],
        [0, -50], [0, -20], [-50, -50], [-50, 0], [-50, 50],
    ]
    sensors_3d = [
        [0, 20, 50], [0, 50, 0], [50, 50, -50], [50, 0, 0], [50, -50, 50],
        [0, -50, 0], [0, -20, -50], [-50, -50, 0], [-50, 0, 50], [-50, 50, -50],
    ]
    return {
        "2d-fixed": Scenario(
            sensors=sensors_2d, source=[70.0, 30.0],
            sigma_db=sigma_db, alpha=alpha,
        ),
        "3d-fixed": Scenario(
            sensors=sensors_3d, source=[70.0, 30.0, 10.0],
            sigma_db=sigma_db, alpha=alpha,
        ),
        "2d-random": RandomScenarioFamily(sigma_db=sigma_db, alpha=alpha),
    }


def get_scenario(scenario_id: str, sigma_db: float = 2.0, alpha: float = 2.0):
    registry = scenario_registry(sigma_db=sigma_db, alpha=alpha)
    if scenario_id not in registry:
        raise ConfigError(
            f"unknown scenario id {scenario_id!r}; known: {sorted(registry)}"
        )
    return registry[scenario_id]


@dataclass(frozen=True)
class ExperimentConfig:
    """One benchmark run: scenario, estimators, sweep, trial count, seed.

    ``estimators`` is a list or tuple of distinct estimator ids; counts are
    whole numbers >= 1, ``master_seed`` a whole number >= 0, and
    ``fixed_geometry`` and ``measure_time`` booleans.
    """

    scenario: Union[Scenario, RandomScenarioFamily]
    estimators: Tuple[str, ...]
    sweep_param: str
    sweep_values: Tuple[float, ...]
    trials: int
    master_seed: int
    fixed_geometry: bool = False
    measure_time: bool = True

    def __post_init__(self):
        ids = self.estimators
        known = isinstance(ids, (list, tuple)) and len(ids) > 0 and all(est in ESTIMATOR_IDS for est in ids)
        if not (known and len(set(ids)) == len(ids)):
            raise ConfigError(f"estimators must list distinct ids of {list(ESTIMATOR_IDS)}, got {ids!r}")
        object.__setattr__(self, "estimators", tuple(ids))
        object.__setattr__(self, "sweep_values", tuple(self.sweep_values))
        object.__setattr__(self, "master_seed", number(self.master_seed, "master_seed", True, ConfigError, low=0))
        if self.sweep_param not in SWEEP_PARAMS:
            raise ConfigError(f"sweep_param must be one of {SWEEP_PARAMS}")
        if not self.sweep_values:
            raise ConfigError("sweep is empty")
        whole = self.sweep_param != "sigma"
        values = tuple(number(v, self.sweep_param, whole, ConfigError) for v in self.sweep_values)
        object.__setattr__(self, "sweep_values", values)
        object.__setattr__(self, "trials", number(self.trials, "trials", True, ConfigError))
        flags = {"fixed_geometry": self.fixed_geometry, "measure_time": self.measure_time}
        if not all(isinstance(v, bool) for v in flags.values()):
            raise ConfigError(f"fixed_geometry and measure_time must be true or false, got {flags}")
        random_family = isinstance(self.scenario, RandomScenarioFamily)
        if (self.sweep_param == "n_random") != random_family:
            raise ConfigError(
                "n_random sweeps require the random scenario family and vice versa"
            )

    @classmethod
    def from_dict(cls, d: dict, seed: Optional[int] = None) -> "ExperimentConfig":
        try:
            known_keys(d, _CONFIG_KEYS, "experiment config", ConfigError)
            sweep = d["sweep"]
            if len(sweep) != 1:
                raise ConfigError("sweep must contain exactly one parameter")
            (param, values), = sweep.items()
            sigma = number(d.get("sigma_db", 2.0), "sigma_db", error=ConfigError)
            alpha = number(d.get("alpha", 2.0), "alpha", error=ConfigError)
            scenario_spec = d["scenario"]
            if isinstance(scenario_spec, str):
                scenario = get_scenario(scenario_spec, sigma_db=sigma, alpha=alpha)
            else:
                ignored = sorted({"sigma_db", "alpha"} & d.keys())
                if ignored:
                    raise ConfigError(
                        f"{ignored} parameterise a registry scenario id; an inline scenario sets its own"
                    )
                try:
                    scenario = Scenario.from_dict(scenario_spec)
                except InvalidInputError as exc:
                    raise ConfigError(f"bad inline scenario: {exc}") from exc
            master_seed = seed if seed is not None else d.get("master_seed")
            if master_seed is None:
                raise ConfigError("a master seed is required")
            return cls(
                scenario=scenario,
                estimators=d.get("estimators", ("ls", "ls+gn")),
                sweep_param=param,
                sweep_values=values,
                trials=d.get("trials", 1000),
                master_seed=master_seed,
                fixed_geometry=d.get("fixed_geometry", False),
                measure_time=d.get("measure_time", True),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad experiment config: {exc}") from exc


@dataclass(frozen=True)
class ReportRow:
    estimator: str
    sweep_param: str
    sweep_value: float
    n: int
    trials_ok: int
    trials_failed: int
    bias_m: float
    rmse_m: float
    rcrlb_m: float
    mean_time_s: Optional[float]
    master_seed: int


CSV_COLUMNS = tuple(f.name for f in fields(ReportRow))


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


@dataclass(frozen=True)
class TrialReport:
    """Aggregated per-(estimator, sweep point) Monte Carlo statistics."""

    rows: Tuple[ReportRow, ...]

    def to_csv(self) -> str:
        return table(CSV_COLUMNS, [astuple(row) for row in self.rows], "csv")

    def to_json(self) -> str:
        return table(CSV_COLUMNS, [astuple(row) for row in self.rows], "json")


@dataclass(frozen=True)
class SweepPoint:
    """Per-sensor sufficient statistics of every trial at one sweep point.

    ``sensors`` is (g, k, m): g = 1 when the geometry is shared by all
    trials, g = trials when each trial draws its own. ``ybar`` and ``zbar``
    are (trials, k): each trial's per-sensor means of y and of 10**(2*y)
    over its rounds, in closed form from its standard normals eps (y =
    log10(d) - w*eps, w = sigma/(10*alpha); see ``model.draw_means``).
    """

    sensors: np.ndarray
    source: np.ndarray
    ybar: np.ndarray
    zbar: np.ndarray
    bias_b: float
    rcrlb: float
    n: int


def _blocks(trials: int, doubles: int) -> List[Tuple[int, int]]:
    """(start, stop) of consecutive blocks of whole trials, each of about
    BLOCK_DOUBLES doubles at ``doubles`` per trial, and one trial at least."""
    step = max(1, BLOCK_DOUBLES // doubles)
    return [(start, min(start + step, trials)) for start in range(0, trials, step)]


def _point_array(shape: Tuple[int, ...], point: str) -> np.ndarray:
    """np.empty(shape) for the sweep point that ``point`` describes, or
    RssLocError naming it. numpy refuses a shape past its size limit
    (ValueError), or one that malloc cannot grant (MemoryError), before it
    touches any memory."""
    try:
        return np.empty(shape)
    except (MemoryError, ValueError) as exc:
        raise RssLocError(f"{point} does not fit in memory") from exc


def sweep_point(cfg: ExperimentConfig, sweep_index: int) -> SweepPoint:
    """Draw every trial of one sweep point and reduce it to its means.

    The noise model (its lognormal bias b and w = sigma/(10*alpha)) is built
    first, so a bias that overflows raises NumericError before any draw.
    The point's trial streams (``model.trial_streams``) are keyed once; each
    trial is one counter seek of the one generator. Trial t's noise comes
    from the path (sweep_index, t, 1); fresh random geometry from
    (sweep_index, t, 0), pinned geometry from (sweep_index, 0, 0), so
    ``trial_rng(master_seed, *path)`` replays any of them. Where the point's
    layouts, means or draw block do not fit in memory, RssLocError (exit 1)
    names its trials x rounds x sensors. The layouts, drawn into the point's
    array, are checked and their RCRLB computed in blocks of about
    BLOCK_DOUBLES doubles of the design, k x (m+2) per trial, both from the
    squared source distances that ``model.check_layouts`` checks, kept for
    the point, (g, k). The trials are drawn in blocks (trials, rounds, k) of
    at most about BLOCK_DOUBLES standard normals (one trial at least), each
    reduced at once by ``model.draw_means`` into its rows of the point's means;
    at T = 1 a block is those rows of ``zbar`` themselves, (trials, 1, k).
    The point's RCRLB is sqrt(mean tr CRLB) over its layouts, the bound on
    an RMSE taken over trials that each draw their own layout.
    """
    value = cfg.sweep_values[sweep_index]
    seek = trial_streams(cfg.master_seed)
    random = cfg.sweep_param == "n_random"
    sc = cfg.scenario
    if not random:
        sc = sc.with_rounds(value) if cfg.sweep_param == "rounds" else sc.with_sigma(value)
    noise = NoiseModel(sigma_db=sc.sigma_db, alpha=sc.alpha)
    rounds = 1 if random else sc.rounds
    point = f"a sweep point of {cfg.trials} trials x {rounds} rounds x {value if random else sc.n_sensors} sensors"
    if random:
        layouts = 1 if cfg.fixed_geometry else cfg.trials
        rngs = (seek(sweep_index, trial, 0) for trial in range(layouts))
        sensors = sc.layouts(rngs, _point_array((layouts, value, sc.dimension), point))
    else:
        sensors = sc.sensors[None]
    source = sc.source
    sigma, alpha = noise.sigma_db, noise.alpha
    _, k, m = sensors.shape
    layout_blocks = _blocks(len(sensors), k * (m + 2))
    sq_distances = np.empty(sensors.shape[:2])
    for a, b in layout_blocks:
        source, rounds, sq_distances[a:b] = check_layouts(sensors[a:b], source, sigma, alpha, rounds)
    if k * rounds < m + 1:
        raise InvalidInputError(f"need at least m+1 = {m + 1} measurements")
    rcrlb = 0.0
    if sigma > 0:
        crlb = [crlb_stack(sensors[a:b], source, sq_distances[a:b], sigma, alpha, rounds)[1] for a, b in layout_blocks]
        rcrlb = float(np.sqrt(np.mean(np.concatenate(crlb))))
    ybar, zbar = _point_array((cfg.trials, k), point), _point_array((cfg.trials, k), point)
    blocks = _blocks(cfg.trials, rounds * k)
    eps = None if rounds == 1 else _point_array((blocks[0][1], rounds, k), point)
    for start, stop in blocks:
        paths = ((sweep_index, trial, 1) for trial in range(start, stop))
        rows = sq_distances if len(sensors) == 1 else sq_distances[start:stop]
        block = zbar[start:stop, None] if eps is None else eps[: stop - start]
        draw_means(seek, paths, block, rows, noise.omega_std, ybar[start:stop], zbar[start:stop])
    return SweepPoint(
        sensors=sensors,
        source=source,
        ybar=ybar,
        zbar=zbar,
        bias_b=noise.bias_b,
        rcrlb=rcrlb,
        n=k * rounds,
    )


def _median_of_means(times: List[float]) -> float:
    # Median over the means of 10 batches resists scheduler noise outliers.
    chunks = np.array_split(np.asarray(times), min(10, len(times)))
    value = float(np.median([chunk.mean() for chunk in chunks]))
    if value <= 0.0:
        value = time.get_clock_info("perf_counter").resolution
    return value


def run_experiment(cfg: ExperimentConfig) -> TrialReport:
    """Run all trials at every sweep point and aggregate bias/RMSE/RCRLB.

    Bias is the sum of componentwise absolute mean errors; RMSE the root mean
    squared Euclidean error. Trials where an estimator fails are excluded
    from that estimator's statistics and counted as failed. The estimators
    run on the point in the blocks of whole trials that sweep_point checks
    the layouts in, as one estimate_stack call per block. With
    ``measure_time``, ``mean_time_s`` is the wall time of the estimator's
    computation summed over the blocks of the point, divided by the trial
    count: the stages it used, a stage shared with other estimators charged
    in full to each of them, so that it reads what the estimator alone would
    cost. Drawing and reducing the measurements is not included.
    """
    rows: List[ReportRow] = []
    for sweep_index, value in enumerate(cfg.sweep_values):
        point = sweep_point(cfg, sweep_index)
        _, k, m = point.sensors.shape
        outcomes = []
        for start, stop in _blocks(cfg.trials, k * (m + 2)):
            sensors = point.sensors if len(point.sensors) == 1 else point.sensors[start:stop]
            outcomes.append(
                estimate_stack(cfg.estimators, sensors, point.ybar[start:stop], point.zbar[start:stop], point.bias_b)
            )
        for est_id, blocks in zip(cfg.estimators, zip(*outcomes)):
            ok = np.concatenate([out.failure for out in blocks]) == 0
            if ok.any():
                errors = np.concatenate([out.p_hat for out in blocks])[ok] - point.source
                bias = float(np.sum(np.abs(errors.mean(axis=0))))
                rmse = float(np.sqrt(np.mean(np.sum(errors**2, axis=1))))
                mean_time = sum(out.seconds for out in blocks) / cfg.trials if cfg.measure_time else None
            else:
                bias = rmse = math.nan
                mean_time = None
            rows.append(
                ReportRow(
                    estimator=est_id,
                    sweep_param=cfg.sweep_param,
                    sweep_value=float(value),
                    n=point.n,
                    trials_ok=int(ok.sum()),
                    trials_failed=int(cfg.trials - ok.sum()),
                    bias_m=bias,
                    rmse_m=rmse,
                    rcrlb_m=point.rcrlb,
                    mean_time_s=mean_time,
                    master_seed=cfg.master_seed,
                )
            )
    return TrialReport(rows=tuple(rows))


def time_scaling(n_values: Sequence[int], runs: int = 100, master_seed: int = 0) -> List[Tuple[int, float]]:
    """Mean two-step wall time at each measurement count n.

    Each run times a single two-step (known-variance) estimate on a fresh
    deployment of the random family at its 2 dB and alpha = 2; measurement
    generation is excluded from the timed section. Returns (n, mean_seconds)
    pairs; a clock resolution floor guarantees nonzero entries. ``runs`` and
    each n must be whole numbers >= 1 (InvalidInputError otherwise),
    ``master_seed`` a whole number >= 0 (ConfigError otherwise).
    """
    runs = number(runs, "runs", True)
    n_values = [number(n, "n", True) for n in n_values]
    master_seed = number(master_seed, "master_seed", True, ConfigError, low=0)
    family = RandomScenarioFamily()
    noise = NoiseModel(sigma_db=family.sigma_db, alpha=family.alpha)
    seek = trial_streams(master_seed)
    results = []
    for idx, n in enumerate(n_values):
        sets = []
        for run in range(runs):
            scenario = family.sample(n, seek(idx, run, 0))
            sets.append(generate_measurements(scenario, seek(idx, run, 1)))
        times = []
        for ms in sets:
            t0 = time.perf_counter()
            two_step(ms, noise)
            times.append(time.perf_counter() - t0)
        results.append((n, _median_of_means(times)))
    return results
