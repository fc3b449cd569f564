"""RSS source localization: consistent, asymptotically efficient two-step estimation."""

from .bench import (
    ExperimentConfig,
    RandomScenarioFamily,
    TrialReport,
    run_experiment,
    scenario_registry,
    time_scaling,
)
from .estimators import (
    Estimate,
    estimate_sigma_from_b,
    gn_step,
    ls_known_variance,
    ls_unknown_variance,
    ml_objective,
    ml_reference,
    two_step,
)
from .geometry import (
    Localizability,
    LocalizabilityReport,
    localizability,
)
from .inference import FisherSummary, fisher_information, rcrlb_curve
from .model import (
    MeasurementSet,
    NoiseModel,
    Scenario,
    equivalent_measurement,
    generate_measurements,
    lognormal_bias,
    lognormal_variance,
    trial_rng,
)

__version__ = "0.1.0"

__all__ = [
    "Estimate",
    "ExperimentConfig",
    "FisherSummary",
    "Localizability",
    "LocalizabilityReport",
    "MeasurementSet",
    "NoiseModel",
    "RandomScenarioFamily",
    "Scenario",
    "TrialReport",
    "equivalent_measurement",
    "estimate_sigma_from_b",
    "fisher_information",
    "generate_measurements",
    "gn_step",
    "localizability",
    "lognormal_bias",
    "lognormal_variance",
    "ls_known_variance",
    "ls_unknown_variance",
    "ml_objective",
    "ml_reference",
    "rcrlb_curve",
    "run_experiment",
    "scenario_registry",
    "time_scaling",
    "trial_rng",
    "two_step",
]
