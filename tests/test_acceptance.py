"""End-to-end acceptance suite for the estimator library and benchmark harness.

Each test exercises one numbered release criterion and prints a single
``[PASS]``/``[FAIL]`` line (run pytest with ``-s`` to see them). The heavy
Monte Carlo sweeps are shared through module-scoped fixtures so the whole
suite stays in the minutes range.
"""

import math
import time

import numpy as np
import pytest

from conftest import replay_against_engine
from rssloc.bench import ExperimentConfig, get_scenario, run_experiment, time_scaling
from rssloc.errors import SingularGramError
from rssloc.estimators import (
    ls_known_variance,
    ls_unknown_variance,
    ml_reference,
    two_step,
)
from rssloc.geometry import Localizability, localizability
from rssloc.inference import fisher_information
from rssloc.model import (
    LN10,
    NoiseModel,
    Scenario,
    generate_measurements,
    lognormal_bias,
    lognormal_variance,
    trial_rng,
)

TRIALS = 1000
ROUNDS_SWEEP = (3, 30, 100, 200, 400)
SIGMA_SWEEP = (0.1, 0.3, 0.5, 1.0, 2.0)
MASTER_SEED = 20240


def _criterion(num: int, description: str, passed: bool, detail: str = "") -> None:
    verdict = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{verdict}] criterion {num}: {description}{suffix}")
    assert passed, f"criterion {num} failed: {description}{suffix}"


@pytest.fixture(scope="module")
def rounds_rows():
    """Rounds sweep on the 2-D fixed scenario; shared by criteria 2, 3, 5."""
    cfg = ExperimentConfig(
        scenario=get_scenario("2d-fixed"),
        estimators=("ls", "ls+gn", "ls-u+gn"),
        sweep_param="rounds",
        sweep_values=ROUNDS_SWEEP,
        trials=TRIALS,
        master_seed=MASTER_SEED,
        measure_time=False,
    )
    report = run_experiment(cfg)
    return {(row.estimator, row.sweep_value): row for row in report.rows}


@pytest.fixture(scope="module")
def sigma_rows():
    """Noise sweep at T = 200 on the 2-D fixed scenario; criterion 4."""
    cfg = ExperimentConfig(
        scenario=get_scenario("2d-fixed").with_rounds(200),
        estimators=("ls+gn",),
        sweep_param="sigma",
        sweep_values=SIGMA_SWEEP,
        trials=TRIALS,
        master_seed=MASTER_SEED + 1,
        measure_time=False,
    )
    report = run_experiment(cfg)
    return {row.sweep_value: row for row in report.rows}


def test_01_zero_noise_exactness():
    start = time.perf_counter()
    worst = 0.0
    rng = np.random.default_rng(0)
    scenarios = [
        get_scenario("2d-fixed").with_sigma(0.0),
        get_scenario("3d-fixed").with_sigma(0.0),
        get_scenario("2d-random", sigma_db=0.0).sample(10, rng).with_sigma(0.0),
    ]
    for sc in scenarios:
        ms = generate_measurements(sc, 0)
        noise = NoiseModel(sigma_db=0.0, alpha=sc.alpha)
        for p_hat in (
            ls_known_variance(ms, noise.bias_b).p_hat,
            ls_unknown_variance(ms).p_hat,
            two_step(ms, noise).p_hat,
        ):
            worst = max(worst, float(np.max(np.abs(p_hat - sc.source))))
    elapsed = time.perf_counter() - start
    _criterion(
        1,
        "zero-noise exactness on all registry scenarios",
        worst < 1e-9 and elapsed < 1.0,
        f"max abs error {worst:.2e}, {elapsed:.2f} s",
    )


def test_02_sqrt_n_consistency_slopes(rounds_rows):
    fit_rounds = [t for t in ROUNDS_SWEEP if t >= 30]
    slopes = {}
    for est in ("ls", "ls+gn"):
        log_n = [math.log(rounds_rows[(est, float(t))].n) for t in fit_rounds]
        log_rmse = [math.log(rounds_rows[(est, float(t))].rmse_m) for t in fit_rounds]
        slopes[est] = float(np.polyfit(log_n, log_rmse, 1)[0])
    ok = all(-0.6 <= s <= -0.4 for s in slopes.values())
    _criterion(
        2,
        "log RMSE vs log n slope in [-0.6, -0.4] for LS and LS+GN",
        ok,
        ", ".join(f"{est}: {s:.3f}" for est, s in slopes.items()),
    )


def test_03_asymptotic_efficiency(rounds_rows):
    ls = rounds_rows[("ls", 400.0)]
    gn = rounds_rows[("ls+gn", 400.0)]
    gn_u = rounds_rows[("ls-u+gn", 400.0)]
    ratio = gn.rmse_m / gn.rcrlb_m
    ratio_u = gn_u.rmse_m / gn_u.rcrlb_m
    ok = ratio <= 1.10 and gn.rmse_m <= ls.rmse_m and ratio_u <= 1.12
    _criterion(
        3,
        "RMSE/RCRLB at n=4000: LS+GN <= 1.10, LS-u+GN <= 1.12, GN beats LS",
        ok,
        f"known {ratio:.3f}, unknown {ratio_u:.3f}",
    )


def test_04_noise_sweep_efficiency(sigma_rows):
    ratios = {s: sigma_rows[s].rmse_m / sigma_rows[s].rcrlb_m for s in SIGMA_SWEEP}
    ok = all(r <= 1.15 for r in ratios.values())
    _criterion(
        4,
        "RMSE(LS+GN)/RCRLB <= 1.15 across sigma in {0.1..2} dB at T=200",
        ok,
        "max ratio %.3f" % max(ratios.values()),
    )


def test_05_bias_convergence(rounds_rows):
    bias_small = rounds_rows[("ls+gn", 3.0)].bias_m
    bias_large = rounds_rows[("ls+gn", 400.0)].bias_m
    ok = bias_large < 0.25 * bias_small and bias_large < 0.1
    _criterion(
        5,
        "bias(LS+GN) at T=400 under 25% of T=3 value and under 0.1 m",
        ok,
        f"T=3: {bias_small:.3f} m, T=400: {bias_large:.4f} m",
    )


def test_06_lognormal_moments():
    draws = 10**6
    ok = True
    details = []
    for case_index, (sigma, alpha) in enumerate([(1.0, 2.0), (2.0, 2.0), (4.0, 3.0)]):
        rng = np.random.default_rng(500 + case_index)
        omega = rng.normal(0.0, sigma / (10.0 * alpha), size=draws)
        x = np.power(10.0, 2.0 * omega)
        b = lognormal_bias(sigma, alpha)
        var = lognormal_variance(sigma, alpha)
        mean_err = abs(float(x.mean()) - b) / b
        var_err = abs(float(x.var()) - var) / var
        ok = ok and mean_err < 0.005 and var_err < 0.02
        details.append(f"({sigma:g},{alpha:g}): {mean_err:.4f}/{var_err:.4f}")
    _criterion(
        6,
        "Monte Carlo moments of 10^(2w) match b and b^2(b^2-1) (0.5%/2%)",
        ok,
        "; ".join(details),
    )


def test_07_fisher_correctness():
    # Monte Carlo covariance of the score vector vs the analytic matrix.
    sc = get_scenario("2d-fixed")
    summary = fisher_information(sc)
    omega_std = NoiseModel(sc.sigma_db, sc.alpha).omega_std
    diff = sc.source - sc.sensors
    d2 = np.sum(diff**2, axis=1)
    grads = diff / (d2[:, None] * LN10)
    rng = np.random.default_rng(71)
    z = rng.standard_normal((10**6, sc.n_sensors))
    scores = z @ grads / omega_std
    cov = scores.T @ scores / scores.shape[0]
    rel = float(np.max(np.abs(cov - summary.F) / np.abs(summary.F)))

    # Four sensors on the coordinate axes at radius r, source at the center:
    # the information matrix is (200 a^2 / (s^2 r^2 ln^2 10)) I by symmetry,
    # so CRLB = s^2 r^2 ln^2 10 / (100 a^2).
    r, sigma, alpha = 50.0, 2.0, 2.0
    symmetric = Scenario(
        sensors=[[r, 0.0], [-r, 0.0], [0.0, r], [0.0, -r]],
        source=[0.0, 0.0],
        sigma_db=sigma,
        alpha=alpha,
    )
    hand = sigma**2 * r**2 * LN10**2 / (100.0 * alpha**2)
    hand_err = abs(fisher_information(symmetric).crlb - hand) / hand
    _criterion(
        7,
        "score covariance matches F within 2%; symmetric-layout CRLB exact",
        rel < 0.02 and hand_err < 1e-9,
        f"max entry error {rel:.4f}, hand-value rel error {hand_err:.1e}",
    )


def test_08_one_step_vs_full_ml():
    sc = get_scenario("2d-fixed").with_rounds(400)
    noise = NoiseModel(sc.sigma_db, sc.alpha)
    gaps = []
    errors = []
    for trial in range(500):
        ms = generate_measurements(sc, trial_rng(808, trial))
        first = ls_known_variance(ms, noise.bias_b)
        one_step = two_step(ms, noise)
        full = ml_reference(ms, first.p_hat)
        gaps.append(float(np.linalg.norm(one_step.p_hat - full.p_hat)))
        errors.append(float(np.linalg.norm(full.p_hat - sc.source)))
    ratio = float(np.median(gaps)) / float(np.median(errors))
    _criterion(
        8,
        "median |GN1 - ML| <= 0.2 median |ML - source| at n=4000",
        ratio <= 0.2,
        f"ratio {ratio:.3f}",
    )


def test_09_timing_linearity():
    results = dict(time_scaling([1000, 4000], runs=100, master_seed=3))
    ratio = results[4000] / results[1000]
    _criterion(
        9,
        "two-step wall time ratio time(4000)/time(1000) <= 6",
        ratio <= 6.0,
        f"ratio {ratio:.2f}",
    )


def test_10_geometry_gates():
    collinear = [[float(i), 0.0] for i in range(5)]
    ms_line = generate_measurements(
        Scenario(sensors=collinear, source=[2.0, 3.0], sigma_db=0.0), 0
    )
    known_rejects = False
    try:
        ls_known_variance(ms_line, 1.0)
    except SingularGramError:
        known_rejects = True

    corners = [[0.0, 0.0], [10.0, 0.0], [10.0, 10.0], [0.0, 10.0]]
    ms_square = generate_measurements(
        Scenario(sensors=corners, source=[3.0, 4.0], sigma_db=0.0), 0
    )
    unknown_rejects = False
    try:
        ls_unknown_variance(ms_square)
    except SingularGramError:
        unknown_rejects = True
    known_on_square = ls_known_variance(ms_square, 1.0)
    square_known_ok = float(np.max(np.abs(known_on_square.p_hat - [3.0, 4.0]))) < 1e-9

    layouts_pass = all(
        localizability(get_scenario(sid).sensors).verdict
        == Localizability.FULLY_LOCALIZABLE
        for sid in ("2d-fixed", "3d-fixed")
    )
    ok = known_rejects and unknown_rejects and square_known_ok and layouts_pass
    _criterion(
        10,
        "collinear/concyclic layouts rejected by the right paths; "
        "fixed layouts fully localizable",
        ok,
    )


def test_11_deterministic_reports():
    cfg = ExperimentConfig(
        scenario=get_scenario("2d-fixed"),
        estimators=("ls", "ls+gn", "ls-u+gn"),
        sweep_param="rounds",
        sweep_values=(3, 10),
        trials=50,
        master_seed=99,
        measure_time=False,
    )
    first = run_experiment(cfg).to_csv()
    second = run_experiment(cfg).to_csv()
    engine_failed, replay_failed, worst = replay_against_engine(cfg)
    ok = first == second and engine_failed == replay_failed and worst <= 1e-12
    _criterion(
        11,
        "byte-identical CSV across repeat runs; every trial replayed through "
        "the per-call API fails alike and agrees within 1e-12 relative",
        ok,
        f"largest relative gap {worst:.1e}",
    )
