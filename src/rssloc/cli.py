"""Command-line interface.

Subcommands:
    estimate        run the full two-step pipeline on a measurement file
    check-geometry  localizability report for a sensor layout
    crlb            RCRLB curve over a rounds or sigma sweep
    experiment      Monte Carlo bias/RMSE benchmark from a config file
    time-scaling    mean two-step wall time vs measurement count

Every subcommand is a thin shell over the library; numeric output always
equals the corresponding library call. Exit codes: 0 success, 1 runtime or
numeric failure, 2 invalid input. Errors are emitted as JSON on stderr.
Output is written by ``model.table`` and ``model.strict_json`` (strict JSON).
``estimate`` and ``check-geometry`` load only ``errors``, ``model``,
``geometry`` and ``estimators``; ``bench`` and ``inference`` are imported by
the subcommands that run them.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import gc
import json
import sys
from typing import Optional

from .errors import ConfigError, InsufficientSensorsError, InvalidInputError, RssLocError
from .estimators import two_step
from .geometry import localizability
from .model import MeasurementSet, NoiseModel, equivalent_measurement, floats, known_keys, number, strict_json, table


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError:
        raise ConfigError(f"{path} is not valid JSON: nested too deeply") from None


def _read(path: str, parse):
    """``parse`` applied to the JSON document in ``path``, with the cyclic
    garbage collector paused.

    Every input file is read here. A decoded document is a tree of lists and
    dicts, which holds no cycle. It is passed on as a temporary, so
    reference counting frees it as soon as ``parse`` returns; until then the
    collector would walk it on every young pass its allocations set off,
    several per T = 400 file. Each freed container takes one off the
    young-generation count, so turning the collector back on afterwards
    sets off no delayed pass. A collector that the caller had turned off
    stays off.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return parse(_load_json(path))
    finally:
        if enabled:
            gc.enable()


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write {out}: {exc}") from exc
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _measurements_from_file(payload: dict):
    """Parse {sensors, raw_db|y, alpha?, p0?, sigma_db?} into a MeasurementSet.

    raw_db takes precedence over y and is converted through the equivalent
    measurement map; presence of sigma_db selects the known-variance path.
    Any other key raises ConfigError.
    """
    if not isinstance(payload, dict) or "sensors" not in payload:
        raise ConfigError("measurement file must be an object with a 'sensors' key")
    known_keys(payload, {"sensors", "raw_db", "y", "alpha", "p0", "sigma_db"}, "measurement file", ConfigError)
    try:
        alpha = number(payload.get("alpha", 2.0), "alpha")
        p0 = number(payload.get("p0", 1.0), "p0")
        noise = None if payload.get("sigma_db") is None else NoiseModel(payload["sigma_db"], alpha)
        if "raw_db" in payload:
            raw_db = floats(payload["raw_db"], "raw_db")
            y = equivalent_measurement(raw_db, p0, alpha)
            ms = MeasurementSet(sensor_coords=payload["sensors"], y=y, raw_db=raw_db)
        elif "y" in payload:
            ms = MeasurementSet(sensor_coords=payload["sensors"], y=payload["y"])
        else:
            raise ConfigError("measurement file needs 'raw_db' or 'y'")
    except (TypeError, ValueError, InvalidInputError) as exc:
        raise ConfigError(f"malformed measurement file: {exc}") from exc
    return ms, noise


def _geometry_from_file(payload: dict):
    """The localizability report of a {sensors} file; any other key, or too
    few sensors for the hyperplane test, raises ConfigError."""
    if not isinstance(payload, dict) or "sensors" not in payload:
        raise ConfigError("geometry file must be an object with a 'sensors' key")
    known_keys(payload, {"sensors"}, "geometry file", ConfigError)
    try:
        return localizability(payload["sensors"])
    except (TypeError, ValueError, InvalidInputError, InsufficientSensorsError) as exc:
        raise ConfigError(f"malformed sensors: {exc}") from exc


def _cmd_estimate(args) -> int:
    ms, noise = _read(args.input, _measurements_from_file)
    _emit(strict_json(two_step(ms, noise).to_dict()), args.out)
    return 0


def _cmd_check_geometry(args) -> int:
    _emit(strict_json(_read(args.input, _geometry_from_file).to_dict()), args.out)
    return 0


def _inline_scenario(spec, resolve):
    if isinstance(spec, str):  # a scenario file holds no registry id
        raise ConfigError("bad inline scenario: scenario must be an object, got str")
    return resolve(spec)


def _cmd_crlb(args) -> int:
    from . import bench
    from .inference import rcrlb_curve

    resolve = functools.partial(bench.resolve_scenario, noise={} if args.sigma is None else {"sigma_db": args.sigma})
    parse = functools.partial(_inline_scenario, resolve=resolve)
    scenario = _read(args.config, parse) if args.config else resolve(args.scenario)
    if isinstance(scenario, bench.RandomScenarioFamily):
        raise ConfigError("crlb needs a fixed scenario, not the random family")
    try:
        values = [number(float(v), "--sweep-values", error=ConfigError) for v in args.sweep_values.split(",")]
    except ValueError as exc:
        raise ConfigError(f"--sweep-values must be comma-separated finite numbers: {exc}") from exc
    curve = rcrlb_curve(scenario, values, param=args.sweep_param)
    _emit(table((args.sweep_param, "rcrlb_m"), curve, args.format), args.out)
    return 0


def _cmd_experiment(args) -> int:
    from . import bench

    cfg = _read(args.config, functools.partial(bench.ExperimentConfig.from_dict, seed=args.seed))
    if args.estimators is not None:
        cfg = dataclasses.replace(cfg, estimators=args.estimators.split(","))
    if args.fixed_geometry:
        cfg = dataclasses.replace(cfg, fixed_geometry=True)
    report = bench.run_experiment(cfg)
    _emit(report.to_csv() if args.format == "csv" else report.to_json(), args.out)
    return 0


def _cmd_time_scaling(args) -> int:
    from . import bench

    results = bench.time_scaling(args.n, runs=args.runs, master_seed=args.seed)
    _emit(table(("n", "mean_time_s"), results, args.format), args.out)
    return 0


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged, and
    each parse returns a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="rssloc",
        description="RSS source localization: two-step estimation and benchmarks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_est = sub.add_parser("estimate", help="localize a source from a measurement file")
    p_est.add_argument("--input", required=True, help="measurement JSON file")
    p_est.add_argument("--out", help="output path (default: stdout)")
    p_est.set_defaults(func=_cmd_estimate)

    p_geo = sub.add_parser("check-geometry", help="localizability report for sensors")
    p_geo.add_argument("--input", required=True, help="JSON file with a 'sensors' array")
    p_geo.add_argument("--out", help="output path (default: stdout)")
    p_geo.set_defaults(func=_cmd_check_geometry)

    p_crlb = sub.add_parser("crlb", help="RCRLB curve for a scenario")
    p_crlb.add_argument("--scenario", default="2d-fixed", help="registry scenario id")
    p_crlb.add_argument("--config", help="inline scenario JSON file (overrides --scenario)")
    p_crlb.add_argument("--sigma", type=float, help="noise std in dB of a --scenario (default 2.0)")
    p_crlb.add_argument("--sweep-param", choices=("rounds", "sigma"), default="rounds")
    p_crlb.add_argument("--sweep-values", required=True, help="comma-separated values")
    p_crlb.add_argument("--format", choices=("csv", "json"), default="csv")
    p_crlb.add_argument("--out", help="output path (default: stdout)")
    p_crlb.set_defaults(func=_cmd_crlb)

    p_exp = sub.add_parser("experiment", help="run a Monte Carlo benchmark")
    p_exp.add_argument("--config", required=True, help="experiment config JSON")
    p_exp.add_argument("--seed", type=int, required=True, help="master seed")
    p_exp.add_argument("--out", help="output path (default: stdout)")
    p_exp.add_argument("--format", choices=("csv", "json"), default="csv")
    p_exp.add_argument("--estimators", help="comma-separated estimator ids")
    p_exp.add_argument("--fixed-geometry", action="store_true",
                       help="pin random-deployment geometry across trials")
    p_exp.set_defaults(func=_cmd_experiment)

    p_time = sub.add_parser("time-scaling", help="two-step wall time vs n")
    p_time.add_argument("--n", type=int, nargs="+", required=True)
    p_time.add_argument("--runs", type=int, default=100)
    p_time.add_argument("--seed", type=int, default=0)
    p_time.add_argument("--format", choices=("csv", "json"), default="csv")
    p_time.add_argument("--out", help="output path (default: stdout)")
    p_time.set_defaults(func=_cmd_time_scaling)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except RssLocError as exc:
        json.dump({"error": exc.kind, "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 2 if isinstance(exc, (ConfigError, InvalidInputError)) else 1


if __name__ == "__main__":
    sys.exit(main())
