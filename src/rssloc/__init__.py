"""RSS source localization: consistent, asymptotically efficient two-step estimation.

A bare ``import rssloc`` loads no submodule, and so not numpy either. A
public name, or one of the six submodules, is imported from its home module
on first use (PEP 562), so ``rssloc estimate`` loads only what it runs.
"""

import importlib

__version__ = "0.1.0"

_HOMES = {
    "bench": ("ExperimentConfig", "RandomScenarioFamily", "TrialReport", "run_experiment", "scenario_registry",
              "time_scaling"),
    "estimators": ("Estimate", "estimate_sigma_from_b", "gn_step", "ls_known_variance", "ls_unknown_variance",
                   "ml_objective", "ml_reference", "two_step"),
    "geometry": ("Localizability", "LocalizabilityReport", "localizability"),
    "inference": ("FisherSummary", "fisher_information", "rcrlb_curve"),
    "model": ("MeasurementSet", "NoiseModel", "Scenario", "equivalent_measurement", "generate_measurements",
              "lognormal_bias", "lognormal_variance", "trial_rng"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _HOMES or name == "errors":
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value
