"""What ``import rssloc`` and each subcommand load, checked in fresh interpreters.

The package resolves its public names on first use, so a bare import loads
no submodule and ``rssloc estimate`` loads only the modules it runs.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rssloc

SRC = str(Path(rssloc.__file__).resolve().parent.parent)

# The public names as the package exported them when it imported every
# submodule eagerly.
PUBLIC = [
    "Estimate", "ExperimentConfig", "FisherSummary", "Localizability", "LocalizabilityReport", "MeasurementSet",
    "NoiseModel", "RandomScenarioFamily", "Scenario", "TrialReport", "equivalent_measurement",
    "estimate_sigma_from_b", "fisher_information", "generate_measurements", "gn_step", "localizability",
    "lognormal_bias", "lognormal_variance", "ls_known_variance", "ls_unknown_variance", "ml_objective",
    "ml_reference", "rcrlb_curve", "run_experiment", "scenario_registry", "time_scaling", "trial_rng", "two_step",
]
SUBMODULES = ["bench", "errors", "estimators", "geometry", "inference", "model"]


def _fresh(code: str):
    """The JSON that ``code`` prints last, run in a fresh interpreter that
    imports rssloc from the same sources as this test."""
    proc = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_bare_import_loads_no_submodule():
    loaded = _fresh('import json, sys, rssloc; print(json.dumps([m for m in sys.modules if m.startswith("rssloc.")]))')
    assert loaded == []


def test_every_public_name_is_its_home_modules_object():
    code = """
import json, sys, rssloc
homes = {}
for name in rssloc.__all__:
    value = getattr(rssloc, name)
    home = sys.modules[value.__module__]
    assert getattr(home, name) is value, name
    homes[name] = value.__module__
print(json.dumps({"all": rssloc.__all__, "version": rssloc.__version__, "homes": homes}))
"""
    result = _fresh(code)
    assert result["all"] == PUBLIC
    assert result["version"] == "0.1.0"
    assert set(result["homes"].values()) == {f"rssloc.{m}" for m in SUBMODULES} - {"rssloc.errors"}


def test_submodules_resolve_as_attributes_of_a_bare_import():
    code = f"""
import json, sys, rssloc
print(json.dumps([getattr(rssloc, m) is sys.modules["rssloc." + m] for m in {SUBMODULES!r}]))
"""
    assert _fresh(code) == [True] * len(SUBMODULES)


def test_star_import_binds_exactly_all():
    code = """
import json
ns = {}
exec("from rssloc import *", ns)
print(json.dumps(sorted(set(ns) - {"__builtins__"})))
"""
    assert _fresh(code) == sorted(PUBLIC)


def test_unknown_name_raises_attribute_error():
    code = """
import json, rssloc
try:
    rssloc.no_such_name
except AttributeError as exc:
    print(json.dumps(str(exc)))
"""
    assert _fresh(code) == "module 'rssloc' has no attribute 'no_such_name'"


@pytest.mark.parametrize(
    "command, payload",
    [
        ("estimate", {"sensors": [[0, 0], [10, 0], [0, 10], [10, 10]], "y": [0.6, 0.8, 0.9, 1.0], "sigma_db": 2.0}),
        ("check-geometry", {"sensors": [[0, 0], [10, 0], [0, 10], [10, 10]]}),
    ],
)
def test_estimate_and_check_geometry_load_neither_bench_nor_inference(tmp_path, command, payload):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    argv = [command, "--input", str(path), "--out", str(tmp_path / "out.json")]
    code = f"""
import json, sys
from rssloc import cli
assert cli.main({argv!r}) == 0
print(json.dumps(sorted(m for m in sys.modules if m.startswith("rssloc"))))
"""
    assert _fresh(code) == ["rssloc", "rssloc.cli", "rssloc.errors", "rssloc.estimators", "rssloc.geometry",
                            "rssloc.model"]
    assert json.loads((tmp_path / "out.json").read_text())
