import gc
import itertools
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import COLLINEAR_2D, SQUARE_CORNERS
from rssloc import bench, estimators
from rssloc.bench import ExperimentConfig, get_scenario, run_experiment, strict_json
from rssloc.cli import main
from rssloc.errors import InvalidInputError
from rssloc.estimators import two_step
from rssloc.inference import rcrlb_curve
from rssloc.model import MeasurementSet, NoiseModel, generate_measurements


@pytest.fixture
def clean_measurement_file(tmp_path, scenario_2d):
    sc = scenario_2d.with_sigma(0.0)
    ms = generate_measurements(sc, 0)
    payload = {
        "sensors": ms.sensor_coords.tolist(),
        "raw_db": (-10.0 * sc.alpha * ms.y).tolist(),
        "alpha": 2.0,
        "p0": 1.0,
        "sigma_db": 0.0,
    }
    path = tmp_path / "measurements.json"
    path.write_text(json.dumps(payload))
    return path, payload


@pytest.fixture
def experiment_config_file(tmp_path):
    path = tmp_path / "experiment.json"
    path.write_text(
        json.dumps(
            {
                "scenario": "2d-fixed",
                "estimators": ["ls", "ls+gn"],
                "sweep": {"rounds": [3, 10]},
                "trials": 20,
                "measure_time": False,
            }
        )
    )
    return path


# A sensors file encoded as UTF-16 little-endian, with its byte-order mark.
UTF16_FILE = b"\xff\xfe" + '{"sensors": [[0, 0], [1, 0], [0, 1]]}'.encode("utf-16-le")


# JSON nested 100000 deep: the decoder runs out of recursion depth on it.
DEEP_FILE = "[" * 100000 + "]" * 100000


# A 401-digit whole number: JSON and argparse read it as a Python int, too
# large for a double, on which math.isfinite raises OverflowError.
HUGE = 10**400


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _reject(constant):
    raise ValueError(f"non-standard JSON constant {constant}")


class TestEstimate:
    def test_noise_free_recovery(self, capsys, clean_measurement_file):
        path, _ = clean_measurement_file
        code, out, _ = _run(capsys, ["estimate", "--input", str(path)])
        assert code == 0
        result = json.loads(out)
        assert result["p_hat"] == pytest.approx([70.0, 30.0], abs=1e-6)
        assert result["estimator"] == "ls+gn"

    def test_without_sigma_runs_unknown_variance_path(
        self, capsys, tmp_path, clean_measurement_file
    ):
        _, payload = clean_measurement_file
        del payload["sigma_db"]
        path = tmp_path / "nosigma.json"
        path.write_text(json.dumps(payload))
        code, out, _ = _run(capsys, ["estimate", "--input", str(path)])
        assert code == 0
        result = json.loads(out)
        assert result["p_hat"] == pytest.approx([70.0, 30.0], abs=1e-6)
        assert result["estimator"] == "ls-u+gn" and len(result["coef"]) == 4

    def test_y_input_accepted(self, capsys, tmp_path, scenario_2d):
        sc = scenario_2d.with_sigma(0.0)
        path = tmp_path / "y.json"
        path.write_text(
            json.dumps(
                {
                    "sensors": sc.sensors.tolist(),
                    "y": np.log10(sc.distances()).tolist(),
                }
            )
        )
        code, out, _ = _run(capsys, ["estimate", "--input", str(path)])
        assert code == 0
        assert json.loads(out)["p_hat"] == pytest.approx([70.0, 30.0], abs=1e-6)

    @pytest.mark.parametrize("key", ["sigma", "y_db", "rounds"])
    def test_unknown_key_exits_2_schema(self, capsys, tmp_path, clean_measurement_file, key):
        # A misspelt sigma_db would otherwise run the unknown-variance path.
        _, payload = clean_measurement_file
        path = tmp_path / "misspelt.json"
        path.write_text(json.dumps({**payload, key: 2.0}))
        code, out, err = _run(capsys, ["estimate", "--input", str(path)])
        assert code == 2
        assert out == ""
        error = json.loads(err)
        assert error["error"] == "schema" and repr(key) in error["message"]

    def test_malformed_coordinates_exit_2_schema(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps({"sensors": [[0, 1], ["x", 2]], "raw_db": [1.0, 2.0]})
        )
        code, _, err = _run(capsys, ["estimate", "--input", str(path)])
        assert code == 2
        assert json.loads(err)["error"] == "schema"

    @pytest.mark.parametrize(
        "field, value",
        [
            ("y", [True, False, True, True, True]),
            ("raw_db", ["-40", "-41", "-42", "-43", "-44"]),
            ("sensors", [[True, False], [False, True], [True, True], [False, False], [True, False]]),
        ],
    )
    def test_boolean_or_string_array_exits_2_schema(self, capsys, tmp_path, field, value):
        # The booleans were read as 1 and 0 and the strings as their numbers:
        # the y file ran and exited 1 with singular-gram.
        payload = {"sensors": [[0, 20], [0, 50], [50, 50], [50, 0], [-50, 0]], "y": [1, 1, 1, 1, 1], field: value}
        if field == "raw_db":
            del payload["y"]
        path = tmp_path / "typed_array.json"
        path.write_text(json.dumps(payload))
        code, out, err = _run(capsys, ["estimate", "--input", str(path)])
        assert code == 2
        assert out == ""
        error = json.loads(err)
        assert error["error"] == "schema" and "not a rectangular array of numbers" in error["message"]

    @pytest.mark.parametrize("command", ["estimate", "check-geometry"])
    def test_ragged_coordinates_exit_2_schema(self, capsys, tmp_path, command):
        path = tmp_path / "ragged.json"
        path.write_text(json.dumps({"sensors": [[0, 1], [2], [3, 3]], "raw_db": [1.0, 2.0, 3.0]}))
        code, _, err = _run(capsys, [command, "--input", str(path)])
        assert code == 2
        assert json.loads(err)["error"] == "schema"

    @pytest.mark.parametrize("sigma_db", [None, 2.0])
    def test_overflowing_reading_exits_1_numeric(self, capsys, tmp_path, scenario_2d, sigma_db):
        # 10**(2*200) overflows a double; the error is typed and alone on stderr.
        payload = {"sensors": scenario_2d.sensors[:5].tolist(), "y": [200.0, 1.0, 1.0, 1.0, 1.0]}
        if sigma_db is not None:
            payload["sigma_db"] = sigma_db
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(payload))
        code, out, err = _run(capsys, ["estimate", "--input", str(path)])
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"] == "numeric"

    @pytest.mark.parametrize("command", ["estimate", "experiment"])
    def test_overflowing_lognormal_bias_exits_1_numeric(self, capsys, tmp_path, scenario_2d, command):
        # At sigma_db = 200 and alpha = 2 the lognormal bias b overflows a double.
        if command == "estimate":
            ms = generate_measurements(scenario_2d, 0)
            payload = {"sensors": ms.sensor_coords.tolist(), "y": ms.y.tolist(), "sigma_db": 200}
            argv = ["estimate", "--input"]
        else:
            payload = {"scenario": "2d-fixed", "sweep": {"sigma": [2, 200]}, "trials": 5}
            argv = ["experiment", "--seed", "1", "--config"]
        path = tmp_path / "sigma200.json"
        path.write_text(json.dumps(payload))
        code, out, err = _run(capsys, argv + [str(path)])
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"] == "numeric"

    def test_overflowing_bias_leaves_the_bound_and_the_draw(self, capsys, tmp_path, scenario_2d):
        # At sigma_db = 30 and alpha = 0.1 the lognormal bias b overflows a
        # double, but w and the Fisher information do not: the bound prints
        # and the readings draw, and only the known-variance LS, which
        # divides by b, fails.
        sc = replace(scenario_2d, sigma_db=30.0, alpha=0.1)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(sc.to_dict()))
        code, out, err = _run(capsys, ["crlb", "--config", str(path), "--sweep-values", "1"])
        (_, rcrlb), = rcrlb_curve(sc, [1])
        assert (code, out, err) == (0, f"rounds,rcrlb_m\n1,{rcrlb:.17g}\n", "")
        assert rcrlb == pytest.approx(2549.7337802231373, rel=1e-12)
        ms = generate_measurements(sc, 0)
        assert np.all(np.isfinite(ms.y))
        path = tmp_path / "measurements.json"
        path.write_text(json.dumps({"sensors": ms.sensor_coords.tolist(), "y": ms.y.tolist(), "sigma_db": 30.0,
                                    "alpha": 0.1}))
        code, out, err = _run(capsys, ["estimate", "--input", str(path)])
        assert (code, out) == (1, "")
        assert json.loads(err) == {"error": "numeric", "message": "lognormal bias overflows at sigma_db=30.0, alpha=0.1"}

    @pytest.mark.parametrize("field, value", [("alpha", "x"), ("sigma_db", "abc"), ("p0", None)])
    def test_malformed_number_field_exit_2_schema(
        self, capsys, tmp_path, clean_measurement_file, field, value
    ):
        _, payload = clean_measurement_file
        path = tmp_path / "bad_field.json"
        path.write_text(json.dumps({**payload, field: value}))
        code, out, err = _run(capsys, ["estimate", "--input", str(path)])
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "schema"

    @pytest.mark.parametrize(
        "field, value", [("sigma_db", True), ("sigma_db", "4"), ("alpha", False), ("alpha", "2"), ("p0", "1")]
    )
    def test_bool_or_string_number_field_exits_2_schema(
        self, capsys, tmp_path, clean_measurement_file, field, value
    ):
        # A bool was read as 1.0 or 0.0, and a numeric string as its number.
        _, payload = clean_measurement_file
        path = tmp_path / "mistyped.json"
        path.write_text(json.dumps({**payload, field: value}))
        code, out, err = _run(capsys, ["estimate", "--input", str(path)])
        assert code == 2
        assert out == ""
        error = json.loads(err)
        assert error["error"] == "schema" and f"{field} must be a finite number" in error["message"]

    def test_huge_integer_alpha_exits_2_schema(self, capsys, tmp_path, clean_measurement_file):
        # It exited 1 with an OverflowError traceback.
        _, payload = clean_measurement_file
        path = tmp_path / "huge_alpha.json"
        path.write_text(json.dumps({**payload, "alpha": HUGE}))
        code, out, err = _run(capsys, ["estimate", "--input", str(path)])
        assert code == 2
        assert out == ""
        error = json.loads(err)
        assert error["error"] == "schema" and "alpha must be a finite number" in error["message"]

    def test_zero_alpha_with_sigma_exits_2_schema(self, capsys, tmp_path, scenario_2d):
        # A y file never converts with alpha, but sigma_db makes a NoiseModel
        # of it, whose division by alpha raised ZeroDivisionError (exit 1).
        # The NoiseModel is built with the file's other fields, so its
        # fault is a malformed file, as the same alpha with raw_db is.
        payload = {"sensors": scenario_2d.sensors.tolist(), "y": np.log10(scenario_2d.distances()).tolist()}
        path = tmp_path / "alpha0.json"
        path.write_text(json.dumps({**payload, "alpha": 0, "sigma_db": 2.0}))
        code, out, err = _run(capsys, ["estimate", "--input", str(path)])
        assert code == 2
        assert out == ""
        assert json.loads(err) == {"error": "schema", "message": "malformed measurement file: alpha must be positive"}

    def test_negative_sigma_exits_2_schema(self, capsys, clean_measurement_file, tmp_path):
        # The NoiseModel was built after the file was read, so its faults
        # exited with "invalid-input", where a bad alpha with raw_db alone
        # exited with "schema".
        _, payload = clean_measurement_file
        path = tmp_path / "noise.json"
        path.write_text(json.dumps({**payload, "sigma_db": -2.0}))
        code, out, err = _run(capsys, ["estimate", "--input", str(path)])
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "schema", "message": "malformed measurement file: sigma_db must be nonnegative"}

    @pytest.mark.parametrize(
        "sensors",
        [
            # 12 generic sensors: the estimators would return a 4-D p_hat.
            np.random.default_rng(4).uniform(-50.0, 50.0, size=(12, 4)).tolist(),
            # 6 sensors on the unit 3-sphere: the unknown-variance design is singular.
            np.vstack([np.eye(4), -np.eye(4)[:2]]).tolist(),
        ],
        ids=["random", "degenerate"],
    )
    def test_four_dimensional_file_exits_2_schema(self, capsys, tmp_path, sensors):
        y = np.log10(np.linalg.norm(np.asarray(sensors) - [3.0, 1.0, 2.0, 0.5], axis=1))
        path = tmp_path / "four_d.json"
        path.write_text(json.dumps({"sensors": sensors, "y": y.tolist()}))
        code, out, err = _run(capsys, ["estimate", "--input", str(path)])
        assert code == 2
        assert out == ""
        error = json.loads(err)
        assert error["error"] == "schema" and "dimension must be 2 or 3" in error["message"]

    @pytest.mark.parametrize(
        "command, text, message",
        [
            ("estimate --input", '{"sensors": [[0, 0]', "is not valid JSON"),
            ("estimate --input", "[1, 2]", "must be an object with a 'sensors' key"),
            ("estimate --input", '{"sensors": [[0, 0], [1, 0], [0, 1]], "sigma_db": 2}', "needs 'raw_db' or 'y'"),
            ("check-geometry --input", '{"y": [1, 2, 3]}', "must be an object with a 'sensors' key"),
            # A UTF-16 file (byte-order mark ff fe) is not UTF-8: each command
            # that reads a file reports it as invalid JSON, not as a traceback.
            ("estimate --input", UTF16_FILE, "is not valid JSON"),
            ("check-geometry --input", UTF16_FILE, "is not valid JSON"),
            ("crlb --sweep-values 3 --config", UTF16_FILE, "is not valid JSON"),
            ("experiment --seed 1 --config", UTF16_FILE, "is not valid JSON"),
            # Nesting too deep to decode is invalid JSON too, not a RecursionError.
            ("estimate --input", DEEP_FILE, "is not valid JSON: nested too deeply"),
            ("check-geometry --input", DEEP_FILE, "is not valid JSON: nested too deeply"),
            ("crlb --sweep-values 3 --config", DEEP_FILE, "is not valid JSON: nested too deeply"),
            ("experiment --seed 1 --config", DEEP_FILE, "is not valid JSON: nested too deeply"),
        ],
        ids=[
            "invalid-json", "not-an-object", "no-readings", "geometry-without-sensors",
            "utf16-estimate", "utf16-check-geometry", "utf16-crlb", "utf16-experiment",
            "deep-estimate", "deep-check-geometry", "deep-crlb", "deep-experiment",
        ],
    )
    def test_malformed_file_exits_2_schema(self, capsys, tmp_path, command, text, message):
        path = tmp_path / "malformed.json"
        if isinstance(text, bytes):
            path.write_bytes(text)
        else:
            path.write_text(text)
        code, out, err = _run(capsys, command.split() + [str(path)])
        assert code == 2
        assert out == ""
        error = json.loads(err)
        assert error["error"] == "schema" and message in error["message"]

    def test_missing_file_exit_2(self, capsys, tmp_path):
        code, _, err = _run(capsys, ["estimate", "--input", str(tmp_path / "nope.json")])
        assert code == 2
        assert json.loads(err)["error"] == "schema"

    @pytest.mark.parametrize(
        "argv",
        [
            ["estimate", "--input", "{measurements}"],
            ["check-geometry", "--input", "{sensors}"],
            ["crlb", "--sweep-values", "3"],
            ["experiment", "--seed", "1", "--config", "{config}"],
            ["time-scaling", "--n", "10", "--runs", "2"],
        ],
        ids=["estimate", "check-geometry", "crlb", "experiment", "time-scaling"],
    )
    def test_unwritable_out_exits_2_schema(self, capsys, tmp_path, argv, clean_measurement_file, experiment_config_file):
        # An --out in a directory that does not exist is reported as the
        # input files are, with nothing on stdout.
        sensors = tmp_path / "sensors.json"
        sensors.write_text(json.dumps({"sensors": SQUARE_CORNERS.tolist()}))
        files = {"measurements": clean_measurement_file[0], "sensors": sensors, "config": experiment_config_file}
        out = tmp_path / "missing" / "out.txt"
        argv = [a.format(**files) for a in argv]
        code, stdout, err = _run(capsys, argv + ["--out", str(out)])
        assert code == 2
        assert stdout == ""
        error = json.loads(err)
        assert error["error"] == "schema" and error["message"].startswith(f"cannot write {out}: ")


class TestCheckGeometry:
    def test_square_corners(self, capsys, tmp_path):
        path = tmp_path / "geo.json"
        path.write_text(
            json.dumps({"sensors": [[0, 0], [1, 0], [1, 1], [0, 1]]})
        )
        code, out, _ = _run(capsys, ["check-geometry", "--input", str(path)])
        assert code == 0
        assert json.loads(out)["verdict"] == "KnownVarianceOnly"

    def test_strict_json_for_m_plus_1_sensors(self, capsys, tmp_path):
        # The 3 x 4 unknown-variance design has an infinite condition, which
        # is printed as null: strict parsers reject Infinity and NaN.
        path = tmp_path / "geo.json"
        path.write_text(json.dumps({"sensors": [[0, 0], [1, 0], [0, 1]]}))
        code, out, _ = _run(capsys, ["check-geometry", "--input", str(path)])
        assert code == 0

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        report = json.loads(out, parse_constant=reject)
        assert report["verdict"] == "KnownVarianceOnly"
        assert report["gram_condition_unknown"] is None
        assert report["gram_condition_known"] == pytest.approx(3.0)


    def test_four_dimensional_layout_exits_2_schema(self, capsys, tmp_path):
        # The same 4-D sensors make `estimate` exit 2; no verdict is printed.
        sensors = np.random.default_rng(4).uniform(-50.0, 50.0, size=(7, 4))
        path = tmp_path / "geo.json"
        path.write_text(json.dumps({"sensors": sensors.tolist()}))
        code, out, err = _run(capsys, ["check-geometry", "--input", str(path)])
        assert code == 2
        assert out == ""
        error = json.loads(err)
        assert error["error"] == "schema" and "dimension must be 2 or 3" in error["message"]

    def test_too_few_sensors_exits_2_schema(self, capsys, tmp_path):
        # It exited 1 (insufficient-sensors), where `estimate` on the same
        # sensors exits 2: too few sensors is bad input.
        sensors = [[0, 0], [1, 0]]
        for command, payload in (("check-geometry", {"sensors": sensors}), ("estimate", {"sensors": sensors, "y": [1, 2]})):
            path = tmp_path / f"{command}.json"
            path.write_text(json.dumps(payload))
            code, out, err = _run(capsys, [command, "--input", str(path)])
            assert code == 2
            assert out == ""
            error = json.loads(err)
            assert error["error"] == "schema" and "at least m+1 = 3" in error["message"]

    def test_unknown_key_exits_2_schema(self, capsys, tmp_path):
        # A misspelt "sensors" beside a stale one would otherwise go unnoticed.
        path = tmp_path / "geo.json"
        path.write_text(json.dumps({"sensors": [[0, 0], [1, 0], [0, 1], [1, 1.2]], "sensor": 1}))
        code, out, err = _run(capsys, ["check-geometry", "--input", str(path)])
        assert code == 2
        assert out == ""
        error = json.loads(err)
        assert error["error"] == "schema" and "'sensor'" in error["message"]


class TestCrlb:
    def test_rounds_sweep_matches_library(self, capsys, scenario_2d):
        code, out, _ = _run(
            capsys,
            ["crlb", "--scenario", "2d-fixed", "--sweep-values", "100,400"],
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "rounds,rcrlb_m"
        values = [float(line.split(",")[1]) for line in lines[1:]]
        expected = [r for _, r in rcrlb_curve(scenario_2d, [100, 400])]
        assert values == pytest.approx(expected, rel=1e-15)
        assert values[1] == pytest.approx(values[0] / 2, rel=1e-12)

    def test_csv_golden(self, capsys, scenario_2d):
        # Whole sweep values print without ".0" (30.0 is 30 rounds) and every
        # RCRLB at %.17g. The values are those of the release before the one
        # table writer, to 1e-12: the last digits may differ between LAPACK
        # builds.
        code, out, _ = _run(capsys, ["crlb", "--sweep-values", "2,30.0,100,400"])
        assert code == 0
        rcrlb = [r for _, r in rcrlb_curve(scenario_2d, [2, 30, 100, 400])]
        assert out == "rounds,rcrlb_m\n" + "".join(
            f"{t},{r:.17g}\n" for t, r in zip([2, 30, 100, 400], rcrlb)
        )
        golden = [6.0097801540539697, 1.5517185634012578, 0.84991126007437912, 0.42495563003718956]
        assert rcrlb == pytest.approx(golden, rel=1e-12)

    @pytest.mark.parametrize("values", ["2,2.5,2.9", "2.5"])
    def test_fractional_rounds_exit_2(self, capsys, values):
        code, out, err = _run(capsys, ["crlb", "--sweep-values", values])
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "invalid-input"

    @pytest.mark.parametrize("values", ["100,abc", "100,", "100,nan", "100,inf"])
    def test_malformed_sweep_values_exit_2_schema(self, capsys, values):
        code, out, err = _run(capsys, ["crlb", "--sweep-values", values])
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "schema"

    @pytest.mark.parametrize("dimension", ["two", None, 2.5])
    def test_malformed_dimension_exits_2(self, capsys, tmp_path, scenario_2d, dimension):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({**scenario_2d.to_dict(), "dimension": dimension}))
        code, out, err = _run(capsys, ["crlb", "--config", str(path), "--sweep-values", "3"])
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "schema"

    def test_huge_integer_rounds_exits_2_schema(self, capsys, tmp_path, scenario_2d):
        # It exited 1 with an OverflowError traceback.
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({**scenario_2d.to_dict(), "rounds": HUGE}))
        code, out, err = _run(capsys, ["crlb", "--config", str(path), "--sweep-values", "3"])
        assert code == 2
        assert out == ""
        error = json.loads(err)
        assert error["error"] == "schema" and "rounds must be a whole number" in error["message"]

    @pytest.mark.parametrize("values", ["1e-200", "2,1e200"])
    def test_extreme_sigma_exits_1_numeric(self, capsys, values):
        # 100 alpha^2 / sigma^2 raised ZeroDivisionError (sigma^2 underflows
        # to 0) or OverflowError (sigma^2 overflows) as a traceback.
        code, out, err = _run(capsys, ["crlb", "--sweep-param", "sigma", "--sweep-values", values])
        assert code == 1
        assert out == ""
        error = json.loads(err)
        assert error["error"] == "numeric" and "sigma_db=" in error["message"] and "alpha=2.0" in error["message"]

    def test_random_scenario_exits_2_schema(self, capsys):
        # The RCRLB depends on the layout, which the random family draws anew.
        code, out, err = _run(capsys, ["crlb", "--scenario", "2d-random", "--sweep-values", "3"])
        assert code == 2
        assert out == ""
        error = json.loads(err)
        assert error["error"] == "schema" and "not the random family" in error["message"]

    def test_unknown_scenario_key_exits_2_schema(self, capsys, tmp_path, scenario_2d):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({**scenario_2d.to_dict(), "round": 30}))
        code, out, err = _run(capsys, ["crlb", "--config", str(path), "--sweep-values", "3"])
        assert code == 2
        assert out == ""
        error = json.loads(err)
        assert error["error"] == "schema" and "'round'" in error["message"]

    @pytest.mark.parametrize("config", [False, True], ids=["scenario", "config"])
    def test_crlb_that_overflows_to_zero_exits_1_numeric(self, capsys, tmp_path, scenario_2d, config):
        # scale * T * lambda overflowed to inf and 1/inf printed a bound of 0.
        argv = ["crlb", "--sweep-values", "3,10000000000"]
        if config:
            path = tmp_path / "scenario.json"
            path.write_text(json.dumps({**scenario_2d.to_dict(), "sigma_db": 1e-150}))
            argv += ["--config", str(path)]
        else:
            argv += ["--sigma", "1e-150"]
        code, out, err = _run(capsys, argv)
        assert code == 1
        assert out == ""
        error = json.loads(err)
        assert error["error"] == "numeric" and "sigma_db=1e-150, alpha=2.0" in error["message"]

    def test_sigma_beside_config_exits_2_schema(self, capsys, tmp_path, scenario_2d):
        # --sigma was ignored: the inline scenario sets its own sigma_db.
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario_2d.to_dict()))
        code, out, err = _run(capsys, ["crlb", "--config", str(path), "--sigma", "8", "--sweep-values", "3"])
        assert code == 2
        assert out == ""
        error = json.loads(err)
        assert error["error"] == "schema" and "['sigma_db'] parameterise a registry scenario id" in error["message"]
        code, out, _ = _run(capsys, ["crlb", "--config", str(path), "--sweep-values", "3"])
        assert code == 0 and float(out.split()[1].split(",")[1]) == rcrlb_curve(scenario_2d, [3])[0][1]

    def test_overflowing_scenario_file_exits_1_numeric(self, capsys, tmp_path):
        # The squared distances overflowed with a RuntimeWarning, and the
        # run exited 1 with "degenerate-geometry", a singular Fisher matrix.
        corners = [[-1e200, -1e200], [1e200, -1e200], [1e200, 1e200], [-1e200, 1e200]]
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"sensors": corners, "source": [3e199, 1e199], "sigma_db": 2.0}))
        code, out, err = _run(capsys, ["crlb", "--config", str(path), "--sweep-values", "3"])
        assert (code, out) == (1, "")
        assert json.loads(err) == {"error": "numeric", "message": "a squared sensor-source distance overflows a double"}

    def test_scenario_file_and_experiment_config_share_one_resolver(self, monkeypatch, capsys, tmp_path, scenario_2d):
        # Each parsed its scenario spec on its own: a malformed scenario file
        # exited with "invalid-input" here and "schema" inline.
        specs, resolve_scenario = [], bench.resolve_scenario

        def resolve(spec, noise):
            specs.append((spec, noise))
            return resolve_scenario(spec, noise)

        monkeypatch.setattr(bench, "resolve_scenario", resolve)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario_2d.to_dict()))
        assert _run(capsys, ["crlb", "--config", str(path), "--sweep-values", "3"])[0] == 0
        assert _run(capsys, ["crlb", "--scenario", "3d-fixed", "--sigma", "4", "--sweep-values", "3"])[0] == 0
        ExperimentConfig.from_dict({"scenario": "2d-random", "alpha": 3, "sweep": {"n_random": [10]}}, seed=1)
        assert specs == [(scenario_2d.to_dict(), {}), ("3d-fixed", {"sigma_db": 4.0}), ("2d-random", {"alpha": 3.0})]

    def test_registry_id_as_a_scenario_file_exits_2_schema(self, capsys, tmp_path):
        # A scenario file holds an inline scenario; only --scenario names an id.
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps("2d-fixed"))
        code, out, err = _run(capsys, ["crlb", "--config", str(path), "--sweep-values", "3"])
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "schema", "message": "bad inline scenario: scenario must be an object, got str"}

    @pytest.mark.parametrize("scenario, sigma", [("2d-fixed", "-1"), ("3d-fixed", "-0.5")])
    def test_bad_registry_sigma_exits_2_schema(self, capsys, scenario, sigma):
        # The registry Scenario's NoiseModel raised it as "invalid-input",
        # where the same sigma_db in a scenario file exits "schema".
        code, out, err = _run(capsys, ["crlb", "--scenario", scenario, "--sigma", sigma, "--sweep-values", "3"])
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "schema",
                                   "message": f"bad noise for scenario {scenario!r}: sigma_db must be nonnegative"}

    def test_sigma_parameterises_the_registry_scenario(self, capsys, scenario_2d):
        code, out, _ = _run(capsys, ["crlb", "--sigma", "8", "--sweep-values", "3"])
        assert code == 0
        assert float(out.split()[1].split(",")[1]) == rcrlb_curve(scenario_2d.with_sigma(8.0), [3])[0][1]


class TestExperiment:
    def test_matches_library_golden(self, capsys, experiment_config_file):
        code, out, _ = _run(
            capsys,
            ["experiment", "--config", str(experiment_config_file), "--seed", "11"],
        )
        assert code == 0
        cfg = ExperimentConfig.from_dict(
            json.loads(experiment_config_file.read_text()), seed=11
        )
        assert out == run_experiment(cfg).to_csv()

    def test_json_and_csv_agree(self, capsys, experiment_config_file):
        code, csv_out, _ = _run(
            capsys,
            ["experiment", "--config", str(experiment_config_file), "--seed", "3"],
        )
        assert code == 0
        code, json_out, _ = _run(
            capsys,
            [
                "experiment", "--config", str(experiment_config_file),
                "--seed", "3", "--format", "json",
            ],
        )
        assert code == 0
        rows = json.loads(json_out)
        lines = csv_out.strip().split("\n")[1:]
        assert len(rows) == len(lines)
        for row, line in zip(rows, lines):
            fields = line.split(",")
            assert float(fields[6]) == row["bias_m"]
            assert float(fields[7]) == row["rmse_m"]
            assert float(fields[8]) == row["rcrlb_m"]

    @pytest.mark.parametrize(
        "fields",
        [
            {"sweep": {"rounds": [2.5]}},
            {"scenario": "2d-random", "sweep": {"n_random": [10.5]}},
            {"trials": 2.7},
        ],
    )
    def test_fractional_counts_exit_2_schema(self, capsys, tmp_path, fields):
        path = tmp_path / "fractional.json"
        path.write_text(json.dumps({"scenario": "2d-fixed", "sweep": {"rounds": [3]}, "trials": 5, **fields}))
        code, out, err = _run(capsys, ["experiment", "--config", str(path), "--seed", "1"])
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "schema"

    @pytest.mark.parametrize("field", [{"sigma_db": 6}, {"alpha": 3}])
    def test_registry_parameter_with_inline_scenario_exit_2_schema(self, capsys, tmp_path, scenario_2d, field):
        # Top-level sigma_db and alpha parameterise registry ids only; with an
        # inline scenario they would be ignored.
        scenario = {"sensors": scenario_2d.sensors.tolist(), "source": [70.0, 30.0], "sigma_db": 2.0}
        path = tmp_path / "inline.json"
        path.write_text(json.dumps({"scenario": scenario, "sweep": {"rounds": [3]}, "trials": 5, **field}))
        code, out, err = _run(capsys, ["experiment", "--config", str(path), "--seed", "1"])
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "schema"

    @pytest.mark.parametrize(
        "scenario, noise, message",
        [
            ("2d-fixed", {"sigma_db": -1}, "sigma_db must be nonnegative"),
            ("2d-fixed", {"alpha": 0}, "alpha must be positive"),
            ("3d-fixed", {"alpha": -2.0}, "alpha must be positive"),
            ("2d-random", {"sigma_db": -1}, "sigma_db must be nonnegative"),
        ],
    )
    def test_bad_registry_noise_exits_2_schema(self, capsys, tmp_path, scenario, noise, message):
        # The registry family's NoiseModel raised it as "invalid-input",
        # where the same value inside an inline scenario exits "schema". The
        # library's get_scenario keeps its InvalidInputError.
        sweep = {"n_random": [10]} if scenario == "2d-random" else {"rounds": [3]}
        path = tmp_path / "noise.json"
        path.write_text(json.dumps({"scenario": scenario, **noise, "sweep": sweep, "trials": 5}))
        code, out, err = _run(capsys, ["experiment", "--config", str(path), "--seed", "1"])
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "schema", "message": f"bad noise for scenario {scenario!r}: {message}"}
        with pytest.raises(InvalidInputError, match=message):
            get_scenario(scenario, **noise)

    @pytest.mark.parametrize(
        "field", [{"dimension": "two"}, {"dimension": None}, {"dimension": 2.5}, {"sigma_db": -1.0}]
    )
    def test_malformed_inline_scenario_exits_2_schema(self, capsys, tmp_path, scenario_2d, field):
        scenario = {**scenario_2d.to_dict(), **field}
        path = tmp_path / "inline.json"
        path.write_text(json.dumps({"scenario": scenario, "sweep": {"rounds": [3]}, "trials": 5}))
        code, out, err = _run(capsys, ["experiment", "--config", str(path), "--seed", "1"])
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "schema"

    @pytest.mark.parametrize("inline", [False, True])
    def test_unknown_key_exits_2_schema(self, capsys, tmp_path, scenario_2d, inline):
        # A misspelt trials would otherwise run 1000 trials, a misspelt
        # inline rounds one round.
        config = {"scenario": "2d-fixed", "sweep": {"rounds": [3]}, "trial": 7}
        if inline:
            config = {"scenario": {**scenario_2d.to_dict(), "round": 30}, "sweep": {"sigma": [2.0]}, "trials": 5}
        path = tmp_path / "misspelt.json"
        path.write_text(json.dumps(config))
        code, out, err = _run(capsys, ["experiment", "--config", str(path), "--seed", "1"])
        assert code == 2
        assert out == ""
        error = json.loads(err)
        assert error["error"] == "schema" and ("'round'" if inline else "'trial'") in error["message"]

    @pytest.mark.parametrize("key", ["scenario", "sweep"])
    def test_missing_required_key_exits_2_schema(self, capsys, tmp_path, key):
        # The message was the bare KeyError, "bad experiment config: 'sweep'".
        config = {"scenario": "2d-fixed", "sweep": {"rounds": [3]}}
        del config[key]
        path = tmp_path / "missing.json"
        path.write_text(json.dumps(config))
        code, out, err = _run(capsys, ["experiment", "--config", str(path), "--seed", "1"])
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "schema", "message": f"bad experiment config: missing required key '{key}'"}

    def test_inline_scenario_with_p0_exits_2_schema(self, capsys, tmp_path, scenario_2d):
        config = {"scenario": {**scenario_2d.to_dict(), "p0": 1e6}, "sweep": {"rounds": [3]}, "trials": 5}
        path = tmp_path / "p0.json"
        path.write_text(json.dumps(config))
        code, out, err = _run(capsys, ["experiment", "--config", str(path), "--seed", "1"])
        assert code == 2
        assert out == ""
        error = json.loads(err)
        assert error["error"] == "schema" and "'p0'" in error["message"]

    @pytest.mark.parametrize("flags", [["--estimators", "ls"], ["--fixed-geometry"]], ids=["estimators", "fixed-geometry"])
    def test_non_object_config_with_an_override_flag_exits_2_schema(self, capsys, tmp_path, flags):
        # The flags override a checked config; a JSON list is not one.
        path = tmp_path / "list.json"
        path.write_text("[1]")
        code, out, err = _run(capsys, ["experiment", "--config", str(path), "--seed", "1"] + flags)
        assert code == 2
        assert out == ""
        error = json.loads(err)
        assert error["error"] == "schema" and "must be an object" in error["message"]

    @pytest.mark.parametrize("sweep", [[1], "r"], ids=["list", "string"])
    def test_sweep_that_is_not_an_object_exits_2_schema(self, capsys, tmp_path, sweep):
        # Both have one element, so sweep.items() raised AttributeError, a
        # traceback and exit 1.
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({"scenario": "2d-fixed", "sweep": sweep}))
        code, out, err = _run(capsys, ["experiment", "--config", str(path), "--seed", "1"])
        assert (code, out) == (2, "")
        error = json.loads(err)
        assert error["error"] == "schema" and "sweep must be an object" in error["message"]

    def test_overflowing_inline_scenario_exits_1_numeric(self, capsys, tmp_path):
        scenario = {"sensors": [[-1e200, -1e200], [1e200, -1e200], [1e200, 1e200]], "source": [0, 0], "sigma_db": 2.0}
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"scenario": scenario, "sweep": {"rounds": [3]}, "trials": 2}))
        code, out, err = _run(capsys, ["experiment", "--config", str(path), "--seed", "1"])
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == "numeric"

    def test_unknown_scenario_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"scenario": "5d-torus", "sweep": {"rounds": [3]}}))
        code, _, err = _run(capsys, ["experiment", "--config", str(path), "--seed", "1"])
        assert code == 2
        assert json.loads(err)["error"] == "schema"

    @pytest.mark.parametrize(
        "argv",
        [
            ["--seed", "-5"],
            ["--seed", "1", "--estimators", "ls,ls"],
            ["--seed", "1", "--estimators", "ls,ml,ls"],
        ],
    )
    def test_negative_seed_or_repeated_estimator_exits_2_schema(self, capsys, experiment_config_file, argv):
        code, out, err = _run(capsys, ["experiment", "--config", str(experiment_config_file)] + argv)
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "schema"

    @pytest.mark.parametrize("estimators", ["ls", ["ls", "ls"], {"ls": 1}])
    def test_malformed_estimator_list_exits_2_schema(self, capsys, tmp_path, estimators):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"scenario": "2d-fixed", "sweep": {"rounds": [3]}, "trials": 5, "estimators": estimators}))
        code, out, err = _run(capsys, ["experiment", "--config", str(path), "--seed", "1"])
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "schema"

    @pytest.mark.parametrize("field", ["trials", "seed"])
    def test_huge_integer_count_exits_2_schema(self, capsys, tmp_path, field):
        # A 401-digit trials in the config, or --seed, exited 1 with an
        # OverflowError traceback.
        config = {"scenario": "2d-fixed", "sweep": {"rounds": [3]}, "trials": HUGE if field == "trials" else 5}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        seed = str(HUGE) if field == "seed" else "1"
        code, out, err = _run(capsys, ["experiment", "--config", str(path), "--seed", seed])
        assert code == 2
        assert out == ""
        error = json.loads(err)
        name = "master_seed" if field == "seed" else field
        assert error["error"] == "schema" and f"{name} must be a whole number" in error["message"]

    @pytest.mark.parametrize(
        "scenario, sweep, trials, size",
        [
            ("2d-fixed", {"rounds": [3]}, 10**15, f"{10**15} trials x 3 rounds x 10 sensors"),
            ("2d-random", {"n_random": [10]}, 10**15, f"{10**15} trials x 1 rounds x 10 sensors"),
            # Past numpy's size limit: refused before malloc is asked.
            ("2d-random", {"n_random": [10]}, 10**19, f"{10**19} trials x 1 rounds x 10 sensors"),
            # One trial whose draw block alone is too large.
            ("2d-fixed", {"rounds": [10**14]}, 1, f"1 trials x {10**14} rounds x 10 sensors"),
        ],
        ids=["fixed", "random", "random-past-the-size-limit", "rounds"],
    )
    def test_point_too_large_to_allocate_exits_1_runtime(self, capsys, tmp_path, scenario, sweep, trials, size):
        # numpy's allocation error escaped as a traceback. Only sizes that
        # numpy refuses up front are tried here.
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"scenario": scenario, "sweep": sweep, "trials": trials}))
        code, out, err = _run(capsys, ["experiment", "--config", str(path), "--seed", "1"])
        assert code == 1
        assert out == ""
        error = json.loads(err)
        assert error == {"error": "runtime", "message": f"a sweep point of {size} does not fit in memory"}

    @pytest.mark.parametrize("field", ["sigma_db", "alpha"])
    def test_vanishing_noise_parameter_exits_1_numeric(self, capsys, tmp_path, field):
        # 1e-200 squared is 0: the point's RCRLB (sigma_db) or lognormal bias
        # (alpha) raised ZeroDivisionError.
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps({"scenario": "2d-fixed", field: 1e-200, "sweep": {"rounds": [3]}, "trials": 5}))
        code, out, err = _run(capsys, ["experiment", "--config", str(path), "--seed", "1"])
        assert code == 1
        assert out == ""
        error = json.loads(err)
        values = {"sigma_db": 2.0, "alpha": 2.0, field: 1e-200}
        assert error["error"] == "numeric"
        assert f"sigma_db={values['sigma_db']}, alpha={values['alpha']}" in error["message"]

    def test_seed_flag_is_mandatory(self, capsys, experiment_config_file):
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "--config", str(experiment_config_file)])
        assert exc.value.code == 2

    def test_output_file(self, capsys, tmp_path, experiment_config_file):
        out_path = tmp_path / "report.csv"
        code, _, _ = _run(
            capsys,
            [
                "experiment", "--config", str(experiment_config_file),
                "--seed", "5", "--out", str(out_path),
            ],
        )
        assert code == 0
        assert out_path.read_text().startswith("estimator,")


class TestConsecutiveCalls:
    def test_no_state_carries_over_between_calls(self, capsys, tmp_path, clean_measurement_file):
        # The parser is built once per process; each call must still see only
        # its own arguments.
        estimate, _ = clean_measurement_file
        out_path = tmp_path / "estimate.json"
        code, out, _ = _run(capsys, ["estimate", "--input", str(estimate), "--out", str(out_path)])
        assert code == 0 and out == ""
        written = out_path.read_text()
        out_path.unlink()
        code, out, _ = _run(capsys, ["estimate", "--input", str(estimate)])
        assert code == 0 and out == written + "\n"
        assert not out_path.exists()

        config = {"scenario": "2d-random", "sweep": {"n_random": [10]}, "trials": 5, "measure_time": False}
        path = tmp_path / "random.json"
        path.write_text(json.dumps(config))
        argv = ["experiment", "--config", str(path), "--seed", "2"]
        pinned = ExperimentConfig.from_dict({**config, "estimators": ["ls-u"], "fixed_geometry": True}, seed=2)
        code, out, _ = _run(capsys, argv + ["--estimators", "ls-u", "--fixed-geometry"])
        assert code == 0 and out == run_experiment(pinned).to_csv()
        code, out, _ = _run(capsys, argv)
        assert code == 0 and out == run_experiment(ExperimentConfig.from_dict(config, seed=2)).to_csv()


class TestTimeScaling:
    def test_runs(self, capsys):
        code, out, _ = _run(
            capsys, ["time-scaling", "--n", "50", "--runs", "3", "--seed", "0"]
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "n,mean_time_s"
        n, t = lines[1].split(",")
        assert int(n) == 50 and float(t) > 0.0

    def test_negative_seed_exits_2_schema(self, capsys):
        code, out, err = _run(capsys, ["time-scaling", "--n", "50", "--runs", "3", "--seed", "-1"])
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "schema"

    @pytest.mark.parametrize("n", ["-5", "0"])
    def test_n_below_one_exits_2_schema(self, capsys, n):
        code, out, err = _run(capsys, ["time-scaling", "--n", "50", n, "--runs", "2"])
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "schema"


    @pytest.mark.parametrize("n", [10**15, 10**19], ids=["malloc", "past-the-size-limit"])
    def test_layout_too_large_to_allocate_exits_1_runtime(self, capsys, n):
        # numpy's allocation error escaped as a traceback. numpy refuses both
        # sizes before it touches memory.
        code, out, err = _run(capsys, ["time-scaling", "--n", str(n), "--runs", "1"])
        assert code == 1
        assert out == ""
        message = f"a sweep point of 1 trials x 1 rounds x {n} sensors does not fit in memory"
        assert json.loads(err) == {"error": "runtime", "message": message}

    def test_too_many_runs_to_allocate_exits_1_runtime(self, capsys):
        # All the runs' measurement sets were built first, with no size check:
        # memory grew until the machine ran out. numpy refuses this size
        # before it touches memory.
        code, out, err = _run(capsys, ["time-scaling", "--n", "10", "--runs", str(10**15)])
        assert code == 1
        assert out == ""
        message = f"a sweep point of {10**15} trials x 1 rounds x 10 sensors does not fit in memory"
        assert json.loads(err) == {"error": "runtime", "message": message}

    def test_prints_the_experiments_charge(self, capsys, tmp_path, monkeypatch):
        # The same number `rssloc experiment` prints for ls+gn on those trials,
        # under a clock that advances one second per reading.
        config = {"scenario": "2d-random", "estimators": ["ls+gn"], "sweep": {"n_random": [20]}, "trials": 8}
        path = tmp_path / "random.json"
        path.write_text(json.dumps(config))
        monkeypatch.setattr(estimators, "perf_counter", itertools.count().__next__)
        _, timed, _ = _run(capsys, ["time-scaling", "--n", "20", "--runs", "8", "--seed", "4"])
        _, report, _ = _run(capsys, ["experiment", "--config", str(path), "--seed", "4"])
        rows = report.strip().split("\n")
        mean_time = rows[1].split(",")[rows[0].split(",").index("mean_time_s")]
        assert timed == f"n,mean_time_s\n20,{mean_time}\n" == "n,mean_time_s\n20,0.5\n"


def _large_file(tmp_path, scenario, sigma_db):
    """A T = 400 measurement file, 400 rows per sensor of ``scenario``, known
    variance with ``sigma_db`` or unknown with None; and the output that
    ``rssloc estimate`` must print for it."""
    ms = generate_measurements(scenario.with_rounds(400), 3)
    payload = {"sensors": ms.sensor_coords.tolist(), "y": ms.y.tolist()}
    noise = None
    if sigma_db is not None:
        payload["sigma_db"] = sigma_db
        noise = NoiseModel(sigma_db=sigma_db)
    path = tmp_path / "large.json"
    path.write_text(json.dumps(payload))
    return path, strict_json(two_step(MeasurementSet(payload["sensors"], payload["y"]), noise).to_dict()) + "\n"


def _reader_case(case, tmp_path, scenario_2d):
    """(argv, exit code) of one call through the file reader."""
    path = tmp_path / f"{case}.json"
    if case == "estimate":
        ms = generate_measurements(scenario_2d, 0)
        path.write_text(json.dumps({"sensors": ms.sensor_coords.tolist(), "y": ms.y.tolist(), "sigma_db": 2.0}))
        return ["estimate", "--input", str(path)], 0
    if case == "check-geometry":
        path.write_text(json.dumps({"sensors": SQUARE_CORNERS.tolist()}))
        return ["check-geometry", "--input", str(path)], 0
    if case == "crlb":
        path.write_text(json.dumps(scenario_2d.to_dict()))
        return ["crlb", "--config", str(path), "--sweep-values", "3"], 0
    if case == "experiment":
        path.write_text(json.dumps({"scenario": "2d-fixed", "sweep": {"rounds": [3]}, "trials": 5}))
        return ["experiment", "--config", str(path), "--seed", "1"], 0
    if case == "invalid-json":
        path.write_text('{"sensors": [[0, 0], [1, 0]')
        return ["estimate", "--input", str(path)], 2
    if case == "unknown-key":
        path.write_text(json.dumps({"sensors": SQUARE_CORNERS.tolist(), "y": [1.0] * 4, "sigmadb": 2.0}))
        return ["estimate", "--input", str(path)], 2
    # Collinear sensors: the known-variance design is singular.
    path.write_text(json.dumps({"sensors": COLLINEAR_2D.tolist(), "y": [1.0, 1.2, 1.4, 1.6], "sigma_db": 2.0}))
    return ["estimate", "--input", str(path)], 1


class TestReader:
    def test_a_large_file_is_read_without_a_collection(self, capsys, tmp_path, scenario_2d):
        # Decoding 4000 [x, y] rows allocates a list per row, and the
        # collector walked that tree on several young passes per call before
        # reference counting freed it.
        assert gc.isenabled()
        path, _ = _large_file(tmp_path, scenario_2d, 2.0)
        argv = ["estimate", "--input", str(path)]
        # A first call may build the parser, which the process keeps.
        assert _run(capsys, argv)[0] == 0
        passes = []

        def count(phase, info):
            if phase == "start":
                passes.append(info["generation"])

        gc.collect()
        gc.callbacks.append(count)
        try:
            code = main(argv)
        finally:
            gc.callbacks.remove(count)
        capsys.readouterr()
        assert code == 0
        assert passes == []

    @pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
    @pytest.mark.parametrize(
        "case", ["estimate", "check-geometry", "crlb", "experiment", "invalid-json", "unknown-key", "singular-gram"]
    )
    def test_collector_is_left_as_the_caller_set_it(self, capsys, tmp_path, scenario_2d, case, enabled):
        argv, expected = _reader_case(case, tmp_path, scenario_2d)
        try:
            if not enabled:
                gc.disable()
            code, _, err = _run(capsys, argv)
            assert gc.isenabled() is enabled
        finally:
            gc.enable()
        assert code == expected
        if case == "singular-gram":
            assert json.loads(err)["error"] == "singular-gram"

    @pytest.mark.parametrize("sigma_db", [2.0, None], ids=["known", "unknown"])
    @pytest.mark.parametrize("dimension", ["2d", "3d"])
    def test_large_file_output_equals_library(self, capsys, tmp_path, scenario_2d, scenario_3d, dimension, sigma_db):
        scenario = scenario_2d if dimension == "2d" else scenario_3d
        path, expected = _large_file(tmp_path, scenario, sigma_db)
        code, out, _ = _run(capsys, ["estimate", "--input", str(path)])
        assert code == 0
        assert out == expected


class TestStrictJson:
    @pytest.mark.parametrize(
        "command", ["estimate", "experiment", "crlb", "time-scaling", "check-geometry"]
    )
    def test_every_json_output_parses_strictly(self, capsys, tmp_path, scenario_2d, command):
        path = tmp_path / "input.json"
        if command == "estimate":
            # The degraded near-sensor case of TestResidualNorm: the ML
            # objective, and so residual_norm, is undefined at the estimate.
            p = scenario_2d.sensors[4] + [1e-10, 0.0]
            y = np.log10(np.linalg.norm(scenario_2d.sensors - p, axis=1))
            payload = {"sensors": scenario_2d.sensors.tolist(), "y": y.tolist(), "sigma_db": 0.0}
            argv = ["estimate", "--input", str(path)]
        elif command == "experiment":
            # Collinear sensors: every trial of every estimator fails.
            scenario = {"sensors": COLLINEAR_2D.tolist(), "source": [5.0, 1.0], "sigma_db": 2.0}
            payload = {"scenario": scenario, "estimators": ["ls", "ml"], "sweep": {"rounds": [1, 4]}, "trials": 5}
            argv = ["experiment", "--config", str(path), "--seed", "1", "--format", "json"]
        elif command == "check-geometry":
            payload = {"sensors": [[0, 0], [1, 0], [0, 1]]}
            argv = ["check-geometry", "--input", str(path)]
        else:
            payload = {}
            argv = {
                "crlb": ["crlb", "--sweep-values", "3,30", "--format", "json"],
                "time-scaling": ["time-scaling", "--n", "20", "50", "--runs", "2", "--format", "json"],
            }[command]
        path.write_text(json.dumps(payload))
        code, out, _ = _run(capsys, argv)
        assert code == 0
        result = json.loads(out, parse_constant=_reject)
        if command == "estimate":
            assert result["estimator"] == "ls+gn"
            assert result["refinement_degraded"] and result["residual_norm"] is None
        elif command == "experiment":
            assert len(result) == 4
            for row in result:
                assert row["trials_failed"] == 5
                assert row["bias_m"] is None and row["rmse_m"] is None
        elif command == "check-geometry":
            assert result["gram_condition_unknown"] is None
        else:
            assert len(result) == 2
