import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import COLLINEAR_2D, PER_CALL, SQUARE_CORNERS, kernel_stacks, normal_equations_solve, outcome, svd_solve
from rssloc import estimators, geometry
from rssloc.bench import ExperimentConfig, run_experiment, scenario_registry, sweep_point
from rssloc.errors import (
    DegenerateGeometryError,
    DegenerateJacobianError,
    InvalidInputError,
    NumericError,
    RssLocError,
    SingularGramError,
    SingularPointError,
)
from rssloc.estimators import (
    ESTIMATOR_IDS,
    FAILURES,
    _least_squares,
    estimate_sigma_from_b,
    estimate_stack,
    gn_step,
    gn_steps,
    ls_known_variance,
    ls_unknown_variance,
    ml_objective,
    ml_reference,
    source_from_beta,
    two_step,
)
from rssloc.geometry import (
    GRAM_CONDITION_LIMIT,
    Localizability,
    hypersphere_design,
    localizability,
    normal_equations,
    normalise,
)
from rssloc.inference import fisher_information
from rssloc.model import (
    LN10,
    SENSOR_CLEARANCE,
    MeasurementSet,
    NoiseModel,
    Scenario,
    check_layouts,
    generate_measurements,
    lognormal_bias,
    sq_norm,
    trial_rng,
)

NOISE = NoiseModel(sigma_db=2.0, alpha=2.0)


def _random_scenario(random_family, n, seed, sigma=2.0):
    sc = random_family.sample(n, np.random.default_rng(seed))
    return sc.with_sigma(sigma)


class TestZeroNoiseExactness:
    def _scenarios(self, scenario_2d, scenario_3d, random_family):
        return [
            scenario_2d.with_sigma(0.0),
            scenario_3d.with_sigma(0.0),
            _random_scenario(random_family, 100, 0, sigma=0.0),
        ]

    def test_all_paths_recover_source(self, scenario_2d, scenario_3d, random_family):
        for sc in self._scenarios(scenario_2d, scenario_3d, random_family):
            ms = generate_measurements(sc, 1)
            for est in (
                ls_known_variance(ms, 1.0),
                ls_unknown_variance(ms),
                two_step(ms, NoiseModel(0.0, sc.alpha)),
                two_step(ms, None),
            ):
                np.testing.assert_allclose(est.p_hat, sc.source, atol=1e-9)

    def test_unknown_variance_beta_at_zero_noise(self, scenario_2d):
        # b = 1 at zero noise, so beta = [p0, ||p0||^2, 1].
        sc = scenario_2d.with_sigma(0.0)
        est = ls_unknown_variance(generate_measurements(sc, 0))
        expected = np.concatenate([sc.source, [sc.source @ sc.source, 1.0]])
        np.testing.assert_allclose(est.coef, expected, rtol=1e-9)


class TestEstimateNames:
    # Entries of coef beyond the m coordinates: theta has one, beta two
    # (b_hat last), and ml has no coef.
    COEFS = {"ls": 1, "ls+gn": 1, "ls-u": 2, "ls-u+gn": 2, "ml": None}
    KEYS = ["p_hat", "estimator", "residual_norm", "coef", "b_hat", "gn_iterations", "converged", "refinement_degraded"]

    @pytest.mark.parametrize("est_id", sorted(PER_CALL))
    def test_names_its_id_and_takes_the_stacked_outcome(self, est_id, scenario_2d, scenario_3d):
        # The last set is the near-sensor one of TestTwoStep: there ls-u+gn
        # degrades and ml fails.
        layouts = (scenario_2d.with_rounds(3), scenario_3d.with_rounds(3))
        sets = [generate_measurements(sc, trial_rng(17, t)) for sc in layouts for t in range(5)]
        d = np.linalg.norm(scenario_2d.sensors - (scenario_2d.sensors[4] + [1e-10, 0.0]), axis=1)
        sets.append(MeasurementSet(sensor_coords=scenario_2d.sensors, y=np.log10(d)))
        noise = NoiseModel(6.0, 2.0)
        for ms in sets:
            z = 10.0 ** (2.0 * ms.y)[None]
            (out,) = estimate_stack((est_id,), ms.sensor_coords[None], ms.y[None], z, noise.bias_b)
            est = outcome(PER_CALL[est_id], ms, noise)
            if out.failure[0]:
                assert est is FAILURES[out.failure[0]][0]
                continue
            assert est.estimator == est_id
            extra = self.COEFS[est_id]
            if extra is None:
                assert est.coef is None and est.b_hat is None
            else:
                np.testing.assert_array_equal(est.coef, out.coef[0])
                assert est.coef.shape == (ms.dimension + extra,)
                assert est.b_hat == (est.coef[-1] if extra == 2 else None)
            assert (est.gn_iterations, est.converged, est.refinement_degraded) == (
                out.iterations[0], out.converged[0], out.degraded[0]
            )
            assert list(est.to_dict()) == self.KEYS
            assert est.to_dict()["coef"] == (None if extra is None else est.coef.tolist())


class TestGeometryGates:
    def test_collinear_sensors_break_known_variance(self):
        sc = Scenario(sensors=COLLINEAR_2D, source=[5.0, 0.0], sigma_db=0.0)
        ms = generate_measurements(sc, 0)
        with pytest.raises(SingularGramError):
            ls_known_variance(ms, 1.0)

    def test_concyclic_sensors_break_only_unknown_variance(self):
        sc = Scenario(sensors=SQUARE_CORNERS, source=[0.3, 0.2], sigma_db=0.0)
        ms = generate_measurements(sc, 0)
        with pytest.raises(SingularGramError):
            ls_unknown_variance(ms)
        np.testing.assert_allclose(
            ls_known_variance(ms, 1.0).p_hat, sc.source, atol=1e-9
        )


class TestLsOracles:
    def test_known_variance_matches_normal_equations(self, scenario_2d):
        sc = scenario_2d.with_rounds(3)
        for trial in range(100):
            ms = generate_measurements(sc, trial_rng(42, trial))
            est = ls_known_variance(ms, NOISE.bias_b)
            design = NOISE.bias_b * hypersphere_design(ms.sensor_coords)[:, :-1]
            rhs = 10.0 ** (2 * ms.y) - NOISE.bias_b * np.sum(ms.sensor_coords**2, axis=1)
            expected = normal_equations_solve(design, rhs)
            np.testing.assert_allclose(est.coef, expected, rtol=1e-8)
            np.testing.assert_array_equal(est.p_hat, est.coef[:2])
            assert est.estimator == "ls"

    def test_unknown_variance_matches_normal_equations(self, scenario_2d):
        sc = scenario_2d.with_rounds(3)
        for trial in range(100):
            ms = generate_measurements(sc, trial_rng(43, trial))
            est = ls_unknown_variance(ms)
            expected = normal_equations_solve(
                hypersphere_design(ms.sensor_coords), 10.0 ** (2 * ms.y)
            )
            np.testing.assert_allclose(est.coef, expected, rtol=1e-8)
            np.testing.assert_allclose(
                est.p_hat, source_from_beta(expected, 2), rtol=1e-8
            )

    def test_b_floor_guard(self):
        # Last component below 1 must divide by 1, not by itself.
        beta = np.array([56.0, 24.0, 500.0, 0.8])
        np.testing.assert_array_equal(source_from_beta(beta, 2), [56.0, 24.0])
        beta_ok = np.array([56.0, 24.0, 500.0, 1.25])
        np.testing.assert_allclose(source_from_beta(beta_ok, 2), [44.8, 19.2])

    def test_known_variance_rejects_b_below_one(self, scenario_2d):
        ms = generate_measurements(scenario_2d, 0)
        with pytest.raises(InvalidInputError):
            ls_known_variance(ms, 0.5)

    @pytest.mark.parametrize("b", [True, math.inf, math.nan, "2"])
    def test_known_variance_b_is_a_finite_number(self, scenario_2d, b):
        # True ran as b = 1, and inf returned about (0, 0).
        ms = generate_measurements(scenario_2d, 0)
        with pytest.raises(InvalidInputError, match="b must be a finite number"):
            ls_known_variance(ms, b)


class TestSigmaFromB:
    def test_floor_at_one(self):
        assert estimate_sigma_from_b(1.0, 2.0) == 0.0
        assert estimate_sigma_from_b(0.9, 2.0) == 0.0

    @pytest.mark.parametrize("field", ["b_hat", "alpha"])
    @pytest.mark.parametrize("value", [True, "2", math.inf, math.nan])
    def test_arguments_are_finite_numbers(self, field, value):
        # b_hat = True returned 0.0.
        with pytest.raises(InvalidInputError, match=f"{field} must be a finite number"):
            estimate_sigma_from_b(**{"b_hat": 1.2, "alpha": 2.0, field: value})

    @pytest.mark.parametrize("alpha", [0.0, -2.0])
    def test_alpha_must_be_positive(self, alpha):
        with pytest.raises(InvalidInputError, match="alpha must be positive"):
            estimate_sigma_from_b(1.2, alpha)

    def test_exact_inverse(self):
        assert estimate_sigma_from_b(lognormal_bias(2.0, 2.0), 2.0) == pytest.approx(
            2.0, abs=1e-12
        )
        assert estimate_sigma_from_b(lognormal_bias(0.7, 3.0), 3.0) == pytest.approx(
            0.7, abs=1e-12
        )

    def test_seeded_large_sample_recovery(self, scenario_2d):
        # n = 4000 measurements; b_hat concentrates enough for this seed.
        ms = generate_measurements(scenario_2d.with_rounds(400), 1)
        est = ls_unknown_variance(ms)
        assert estimate_sigma_from_b(est.b_hat, 2.0) == pytest.approx(2.0, rel=0.05)


class TestMlObjective:
    def test_zero_at_source_without_noise(self, scenario_2d):
        ms = generate_measurements(scenario_2d.with_sigma(0.0), 0)
        assert ml_objective(scenario_2d.source, ms) == 0.0
        assert ml_objective(scenario_2d.source + [1.0, -2.0], ms) > 0.0

    def test_matches_naive_summation(self, scenario_2d):
        ms = generate_measurements(scenario_2d.with_rounds(4), 9)
        p = np.array([64.0, 33.5])
        total = 0.0
        for coord, y in zip(ms.sensor_coords, ms.y):
            total += (y - math.log10(math.hypot(*(coord - p)))) ** 2
        assert ml_objective(p, ms) == pytest.approx(total / ms.n, rel=1e-12)

    def test_sensor_collision(self, scenario_2d):
        ms = generate_measurements(scenario_2d, 0)
        with pytest.raises(SingularPointError):
            ml_objective(scenario_2d.sensors[0], ms)


class TestGnStep:
    def test_fixed_point_at_zero_noise(self, scenario_2d):
        ms = generate_measurements(scenario_2d.with_sigma(0.0), 0)
        np.testing.assert_allclose(
            gn_step(scenario_2d.source, ms), scenario_2d.source, atol=1e-12
        )

    def test_jacobian_against_finite_differences(self, scenario_2d):
        ms = generate_measurements(scenario_2d, 0)
        rng = np.random.default_rng(5)
        h = 1e-6
        for _ in range(100):
            p = rng.uniform(-40, 90, size=2)
            if np.min(np.linalg.norm(ms.sensor_coords - p, axis=1)) < 1.0:
                continue
            d = np.linalg.norm(ms.sensor_coords - p, axis=1)
            analytic = (p - ms.sensor_coords) / (d[:, None] ** 2 * LN10)
            for j in range(2):
                step = np.zeros(2)
                step[j] = h
                fd = (
                    np.log10(np.linalg.norm(ms.sensor_coords - (p + step), axis=1))
                    - np.log10(np.linalg.norm(ms.sensor_coords - (p - step), axis=1))
                ) / (2 * h)
                assert np.max(np.abs(fd - analytic[:, j])) < 1e-6

    def test_matches_explicit_normal_system(self, scenario_2d):
        sc = scenario_2d.with_rounds(2)
        for trial in range(20):
            ms = generate_measurements(sc, trial_rng(8, trial))
            p = np.array([60.0, 25.0]) + trial
            d = np.linalg.norm(ms.sensor_coords - p, axis=1)
            jac = (p - ms.sensor_coords) / (d[:, None] ** 2 * LN10)
            residual = ms.y - np.log10(d)
            expected = p + normal_equations_solve(jac, residual)
            np.testing.assert_allclose(gn_step(p, ms), expected, atol=1e-9)

    def test_sensor_collision(self, scenario_2d):
        ms = generate_measurements(scenario_2d, 0)
        with pytest.raises(SingularPointError):
            gn_step(ms.sensor_coords[3], ms)


class TestGnSteps:
    def test_flags_failing_rows_and_matches_gn_step_elsewhere(self, scenario_2d):
        rng = np.random.default_rng(12)
        sc = scenario_2d.with_rounds(3)
        layouts, ys, points = [], [], []
        for trial in range(12):
            ms = generate_measurements(sc, trial_rng(14, trial))
            layouts.append(ms.sensor_coords)
            ys.append(ms.y)
            points.append(sc.source + rng.normal(0.0, 5.0, size=2))
        # Row 3: the evaluation point sits on a sensor.
        points[3] = layouts[3][4].copy()
        # Row 7: every sensor on one line through the evaluation point, so
        # all Jacobian rows are parallel.
        line = np.array([0.6, 0.8])
        points[7] = np.array([10.0, -5.0])
        layouts[7] = points[7] + np.outer(np.linspace(-90.0, 90.0, 31)[:30] + 1.5, line)
        p, sensors, y = np.array(points), np.array(layouts), np.array(ys)

        p_next, failure, objective = gn_steps(p, sensors, y)

        assert np.flatnonzero(failure).tolist() == [3, 7]
        # F is the sum of squared residuals; on a sensor it is infinite.
        assert objective[3] == np.inf
        for row in np.flatnonzero(np.arange(len(p)) != 3):
            residual = y[row] - np.log10(np.linalg.norm(sensors[row] - p[row], axis=-1))
            assert abs(objective[row] - residual @ residual) <= 1e-13 * objective[row]
        for row in range(len(p)):
            ms = MeasurementSet(sensor_coords=sensors[row], y=y[row])
            if failure[row]:
                with pytest.raises(FAILURES[failure[row]][0]):
                    gn_step(p[row], ms)
                continue
            expected = gn_step(p[row], ms)
            gap = np.linalg.norm(p_next[row] - expected) / np.linalg.norm(expected)
            assert gap <= 1e-12
        assert FAILURES[failure[3]][0] is SingularPointError
        assert FAILURES[failure[7]][0] is DegenerateJacobianError

    def test_shared_layout_broadcasts(self, scenario_2d):
        ms = generate_measurements(scenario_2d.with_rounds(2), 3)
        p = np.array([[60.0, 25.0], [75.0, 35.0]])
        y = np.array([ms.y, ms.y[::-1]])
        shared = np.array([ms.sensor_coords, ms.sensor_coords])
        for newton in (False, True):
            out = gn_steps(p, ms.sensor_coords[None], y, newton)
            assert not out[1].any()
            for got, want in zip(out, gn_steps(p, shared, y, newton)):
                np.testing.assert_array_equal(got, want)


class TestNearSensorThreshold:
    def test_one_threshold_for_scenario_gn_and_fisher(self, scenario_2d):
        sensor = scenario_2d.sensors[0]
        inside = sensor + [0.5 * SENSOR_CLEARANCE, 0.0]
        outside = sensor + [2.0 * SENSOR_CLEARANCE, 0.0]
        with pytest.raises(DegenerateGeometryError):
            Scenario(sensors=scenario_2d.sensors, source=inside, sigma_db=2.0)
        Scenario(sensors=scenario_2d.sensors, source=outside, sigma_db=2.0)
        with pytest.raises(DegenerateGeometryError):
            check_layouts(scenario_2d.sensors[None], inside, 1)
        check_layouts(scenario_2d.sensors[None], outside, 1)
        ms = generate_measurements(scenario_2d, 0)
        with pytest.raises(SingularPointError):
            gn_step(inside, ms)
        # Just outside, the point is evaluated; its huge Jacobian row then
        # trips the conditioning gate instead.
        with pytest.raises(DegenerateJacobianError):
            gn_step(outside, ms)
        failures = gn_steps(np.array([inside, outside]), ms.sensor_coords[None], np.array([ms.y, ms.y]))[1]
        assert failures[0] == estimators._NEAR and failures[1] != estimators._NEAR
        with pytest.raises(SingularPointError):
            ml_objective(inside, ms)
        assert math.isfinite(ml_objective(outside, ms))
        with pytest.raises(SingularPointError):
            fisher_information(scenario_2d, eval_point=inside)


class TestTwoStep:
    def test_failed_refinement_returns_flagged_first_stage(self, scenario_2d):
        # Noise-free data from a point 1e-10 m off a sensor: the LS estimate
        # lands within the clearance of that sensor, so the GN step raises.
        p = scenario_2d.sensors[4] + [1e-10, 0.0]
        d = np.linalg.norm(scenario_2d.sensors - p, axis=1)
        ms = MeasurementSet(sensor_coords=scenario_2d.sensors, y=np.log10(d))
        noise = NoiseModel(0.0, 2.0)
        with pytest.raises(SingularPointError):
            gn_step(ls_known_variance(ms, noise.bias_b).p_hat, ms)
        est = two_step(ms, noise)
        assert est.refinement_degraded
        assert est.estimator == "ls+gn"
        assert est.gn_iterations == 0
        np.testing.assert_array_equal(est.p_hat, ls_known_variance(ms, noise.bias_b).p_hat)

    def test_is_ls_composed_with_one_gn_step(self, scenario_2d):
        ms = generate_measurements(scenario_2d.with_rounds(10), 21)
        est = two_step(ms, NOISE)
        manual = gn_step(ls_known_variance(ms, NOISE.bias_b).p_hat, ms)
        assert np.linalg.norm(est.p_hat - manual) == 0.0
        assert est.gn_iterations == 1
        assert est.estimator == "ls+gn"

        est_u = two_step(ms, None)
        manual_u = gn_step(ls_unknown_variance(ms).p_hat, ms)
        assert np.linalg.norm(est_u.p_hat - manual_u) == 0.0

    def test_zero_noise_equals_first_step(self, scenario_3d):
        sc = scenario_3d.with_sigma(0.0)
        ms = generate_measurements(sc, 0)
        est = two_step(ms, NoiseModel(0.0, sc.alpha))
        np.testing.assert_allclose(est.p_hat, sc.source, atol=1e-9)
        np.testing.assert_allclose(
            est.p_hat, ls_known_variance(ms, 1.0).p_hat, atol=1e-9
        )

    def test_translation_equivariance(self, scenario_2d):
        rng = np.random.default_rng(6)
        base = scenario_2d.with_rounds(5)
        for trial in range(100):
            shift = rng.uniform(-200, 200, size=2)
            sigma = 0.0 if trial % 2 == 0 else 2.0
            sc_a = base.with_sigma(sigma)
            sc_b = Scenario(
                sensors=base.sensors + shift,
                source=base.source + shift,
                sigma_db=sigma,
                rounds=base.rounds,
            )
            ms_a = generate_measurements(sc_a, trial_rng(31, trial))
            ms_b = generate_measurements(sc_b, trial_rng(31, trial))
            noise = NoiseModel(sigma, 2.0)
            np.testing.assert_allclose(
                two_step(ms_b, noise).p_hat - shift,
                two_step(ms_a, noise).p_hat,
                atol=1e-6,
            )
            # The max(1, b_hat) floor acts in the centred frame, so the
            # unknown-variance path is equivariant for every b_hat.
            np.testing.assert_allclose(
                two_step(ms_b, None).p_hat - shift, two_step(ms_a, None).p_hat, atol=1e-6
            )


# The LS and two-step paths of the per-call API, by estimator id.
LS_PATHS = ("ls", "ls-u", "ls+gn", "ls-u+gn")


@st.composite
def registry_trials(draw):
    """One measurement set on a registry layout and its noise model."""
    sc = scenario_registry()[draw(st.sampled_from(["2d-fixed", "3d-fixed"]))]
    sc = sc.with_rounds(draw(st.sampled_from([1, 3, 30]))).with_sigma(
        draw(st.sampled_from([0.0, 2.0, 6.0]))
    )
    ms = generate_measurements(sc, draw(st.integers(0, 2**32 - 1)))
    return ms, NoiseModel(sc.sigma_db, sc.alpha)


def _outcomes(ms, noise):
    """p_hat per LS path, or the type of the typed error it raised."""
    out = {}
    for est in LS_PATHS:
        try:
            out[est] = PER_CALL[est](ms, noise).p_hat
        except RssLocError as exc:
            out[est] = type(exc)
    return out


class TestEquivariance:
    """p_hat moves with the layout: p -> lam * R p + o with y -> y + log10(lam)."""

    @settings(max_examples=60, deadline=None)
    @given(
        trial=registry_trials(),
        offset=st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=3),
    )
    def test_translation(self, trial, offset):
        ms, noise = trial
        shift = np.array(offset[: ms.dimension])
        moved = _outcomes(MeasurementSet(ms.sensor_coords + shift, ms.y), noise)
        for est, local in _outcomes(ms, noise).items():
            if isinstance(local, type) or isinstance(moved[est], type):
                assert moved[est] is local, est
            else:
                np.testing.assert_allclose(moved[est] - shift, local, rtol=0, atol=1e-6, err_msg=est)

    @settings(max_examples=60, deadline=None)
    @given(
        trial=registry_trials(),
        log_scale=st.floats(-3.0, 3.0),
        rotation_seed=st.integers(0, 2**32 - 1),
    )
    def test_rotation_and_scaling(self, trial, log_scale, rotation_seed):
        ms, noise = trial
        rng = np.random.default_rng(rotation_seed)
        rot, _ = np.linalg.qr(rng.normal(size=(ms.dimension, ms.dimension)))
        lam = 10.0**log_scale
        moved = _outcomes(
            MeasurementSet(lam * ms.sensor_coords @ rot.T, ms.y + log_scale), noise
        )
        for est, local in _outcomes(ms, noise).items():
            if isinstance(local, type) or isinstance(moved[est], type):
                assert moved[est] is local, est
            else:
                back = moved[est] @ rot / lam
                assert np.linalg.norm(back - local) <= 1e-9 * (1.0 + np.linalg.norm(local)), est

    @settings(max_examples=60, deadline=None)
    @given(
        trial=registry_trials(),
        log_scale=st.floats(-3.0, 3.0),
        rotation_seed=st.integers(0, 2**32 - 1),
        offset=st.one_of(
            st.just([5e5, 4.5e6, 0.0]), st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=3)
        ),
    )
    def test_ml_stops_alike_in_any_frame(self, trial, log_scale, rotation_seed, offset):
        # The step tolerance is relative to the layout's RMS radius, so ml
        # and ml_reference take as many steps, converge alike and stop at the
        # moved iterate wherever the layout is scaled, turned and moved to,
        # UTM offsets included.
        ms, noise = trial
        rng = np.random.default_rng(rotation_seed)
        rot, _ = np.linalg.qr(rng.normal(size=(ms.dimension, ms.dimension)))
        lam, shift = 10.0**log_scale, np.array(offset[: ms.dimension])
        moved = MeasurementSet(lam * ms.sensor_coords @ rot.T + shift, ms.y + log_scale)
        ml = {
            "ml": lambda ms: estimators._estimate("ml", ms, noise.bias_b),
            "ml_reference": lambda ms: PER_CALL["ml"](ms, noise),
        }
        for name, run in ml.items():
            local, there = run(ms), run(moved)
            assert (there.gn_iterations, there.converged) == (local.gn_iterations, local.converged), name
            back = (there.p_hat - shift) @ rot / lam
            size = np.linalg.norm(local.p_hat) + np.linalg.norm(shift) / lam
            assert np.linalg.norm(back - local.p_hat) <= 1e-12 * size, name


UTM_OFFSET = np.array([5e5, 4.5e6, 0.0])


class TestUtmFrame:
    @pytest.mark.parametrize("scenario_id", ["2d-fixed", "3d-fixed"])
    @pytest.mark.parametrize("rounds", [3, 100])
    def test_unknown_variance_two_step_moves_with_the_layout(self, scenario_id, rounds):
        sc = scenario_registry()[scenario_id].with_rounds(rounds)
        offset = UTM_OFFSET[: sc.dimension]
        for trial in range(20):
            ms = generate_measurements(sc, trial_rng(61, rounds, trial))
            utm = MeasurementSet(ms.sensor_coords + offset, ms.y)
            np.testing.assert_allclose(
                two_step(utm, None).p_hat - offset, two_step(ms, None).p_hat, rtol=0, atol=1e-6
            )
        local = localizability(sc.sensors)
        shifted = localizability(sc.sensors + offset)
        assert shifted.verdict is Localizability.FULLY_LOCALIZABLE
        assert shifted.gram_condition_known == pytest.approx(local.gram_condition_known, rel=1e-9)
        assert shifted.gram_condition_unknown == pytest.approx(local.gram_condition_unknown, rel=1e-9)


class TestOverflow:
    # 10**(2*200) overflows a double.
    Y = [200.0, 1.0, 1.0, 1.0, 1.0]

    @pytest.mark.parametrize("est", LS_PATHS)
    def test_typed_error_instead_of_nan_or_linalg_error(self, est, scenario_2d):
        ms = MeasurementSet(sensor_coords=scenario_2d.sensors[:5], y=self.Y)
        with pytest.raises(NumericError):
            PER_CALL[est](ms, NOISE)


class TestMlReference:
    def test_converges_to_source_without_noise(self, scenario_2d):
        ms = generate_measurements(scenario_2d.with_sigma(0.0), 0)
        est = ml_reference(ms, scenario_2d.source + [0.1, 0.1])
        assert est.converged
        assert est.gn_iterations <= 20
        np.testing.assert_allclose(est.p_hat, scenario_2d.source, atol=1e-8)

    def test_converged_output_is_a_fixed_point(self, scenario_2d):
        ms = generate_measurements(scenario_2d.with_rounds(10), 13)
        est = ml_reference(ms, ls_known_variance(ms, NOISE.bias_b).p_hat)
        assert est.converged
        moved = gn_step(est.p_hat, ms)
        assert np.linalg.norm(moved - est.p_hat) < 1e-12 * _rms_radius(ms.sensor_coords)

    def test_objective_decreases_along_iterates(self, scenario_2d):
        ms = generate_measurements(scenario_2d.with_rounds(100), 77)
        p = ls_known_variance(ms, NOISE.bias_b).p_hat
        objectives = [ml_objective(p, ms)]
        for _ in range(estimators.MAX_ITERATIONS):
            p_next = gn_step(p, ms)
            done = np.linalg.norm(p_next - p) < 1e-12 * _rms_radius(ms.sensor_coords)
            p = p_next
            objectives.append(ml_objective(p, ms))
            if done:
                break
        assert all(b <= a + 1e-15 for a, b in zip(objectives, objectives[1:]))

    def test_non_convergence_flag(self, scenario_2d, monkeypatch):
        monkeypatch.setattr(estimators, "MAX_ITERATIONS", 1)
        ms = generate_measurements(scenario_2d.with_rounds(10), 2)
        est = ml_reference(ms, np.array([500.0, -300.0]))
        assert not est.converged
        assert est.gn_iterations == 1

    def test_init_is_left_unchanged(self, scenario_2d):
        # A float64 start reaches the iteration as a view of the caller's
        # array; the iterates must not be written into it.
        ms = generate_measurements(scenario_2d.with_rounds(10), 2)
        init = np.array([500.0, -300.0])
        est = ml_reference(ms, init)
        assert init.tolist() == [500.0, -300.0]
        assert est.gn_iterations > 1 and not np.array_equal(est.p_hat, init)

    def test_max_iterations_is_read_at_each_call(self, scenario_2d, monkeypatch):
        # Both ml_reference and the engine's ml stop after one step.
        ms = generate_measurements(scenario_2d.with_rounds(10), 2)
        start = np.array([500.0, -300.0])
        point = _stack_of_trials(scenario_2d, 20)
        assert ml_reference(ms, start).gn_iterations > 1
        assert (estimate_stack(("ml",), *point)[0].iterations > 1).all()
        monkeypatch.setattr(estimators, "MAX_ITERATIONS", 1)
        est = ml_reference(ms, start)
        assert (est.gn_iterations, est.converged) == (1, False)
        (ml,) = estimate_stack(("ml",), *point)
        assert not ml.failure.any()
        assert (ml.iterations == 1).all() and not ml.converged.any()


# Start points that are not a finite vector of the 2-D sensors' dimension.
BAD_STARTS = {
    "nan": [np.nan, 1.0],
    "inf": [50.0, np.inf],
    "three coordinates": [50.0, 20.0, 0.0],
    "one coordinate": [50.0],
    "a stack of one": [[50.0, 20.0]],
    "ragged": [50.0, [20.0]],
}


class TestStartPoints:
    """gn_step, ml_reference and ml_objective take one finite point of the
    sensors' dimension; anything else is an InvalidInputError, not a numpy
    error or a silently degenerate step."""

    @pytest.mark.parametrize("start", BAD_STARTS.values(), ids=BAD_STARTS.keys())
    def test_gn_step(self, scenario_2d, start):
        ms = generate_measurements(scenario_2d, 0)
        with pytest.raises(InvalidInputError, match="start point"):
            gn_step(start, ms)

    @pytest.mark.parametrize("start", BAD_STARTS.values(), ids=BAD_STARTS.keys())
    def test_ml_reference(self, scenario_2d, start):
        ms = generate_measurements(scenario_2d, 0)
        with pytest.raises(InvalidInputError, match="start point"):
            ml_reference(ms, start)

    @pytest.mark.parametrize("start", BAD_STARTS.values(), ids=BAD_STARTS.keys())
    def test_ml_objective(self, scenario_2d, start):
        # [nan, 1] returned nan, [1] and [[x, y]] broadcast to a number.
        ms = generate_measurements(scenario_2d, 0)
        with pytest.raises(InvalidInputError, match="start point"):
            ml_objective(start, ms)

    @pytest.mark.parametrize("scale", [1e155, 1e200])
    @pytest.mark.parametrize("call", ["gn_step", "ml_reference", "ml_objective"])
    def test_far_start_is_a_numeric_error(self, scenario_2d, call, scale):
        # Its squared distances to the sensors overflowed with a RuntimeWarning;
        # gn_step and ml_reference then raised DegenerateJacobianError and
        # ml_objective returned inf.
        ms = generate_measurements(scenario_2d, 0)
        run = {"gn_step": gn_step, "ml_reference": lambda p, ms: ml_reference(ms, p), "ml_objective": ml_objective}[call]
        with pytest.raises(NumericError, match="squared sensor-start point distance overflows"):
            run([scale, 0.0], ms)

    def test_a_list_start_is_accepted(self, scenario_2d):
        ms = generate_measurements(scenario_2d, 0)
        start = [60.0, 25.0]
        assert np.array_equal(gn_step(start, ms), gn_step(np.array(start), ms))
        assert np.array_equal(ml_reference(ms, start).p_hat, ml_reference(ms, np.array(start)).p_hat)


def _rms_radius(sensors):
    """The RMS distance of a layout's sensors from their centroid."""
    centred = sensors - sensors.mean(axis=0)
    return math.sqrt((centred * centred).sum() / len(sensors))


def _guarded_newton_loop(p, sensors, y):
    """Reference ML iteration on one problem, one evaluation at a time:
    gn_continue's one halving rule written as a plain loop over gn_steps on
    that problem alone, with the stopping rule of estimators.MAX_ITERATIONS
    and the step tolerance estimators.STEP_TOLERANCE times the layout's RMS
    radius.

    Returns (p, error type or None, iterations, converged, events), events
    the set of "halved" (a step taken at lam < 1) and "halved out" (a step
    halved below the tolerance without passing).
    """
    eps, k, events = np.finfo(float).eps, len(y), set()
    tol = estimators.STEP_TOLERANCE * _rms_radius(sensors)

    def evaluate(x, newton):
        nxt, failure, f = gn_steps(x[None], sensors[None], y[None], newton)
        return nxt[0], failure[0], f[0]

    full, failure, f = evaluate(p, False)
    if failure:
        return p, FAILURES[failure][0], 1, False, events
    iterations, lam, trial = 1, 1.0, full
    while np.linalg.norm(full - p) >= tol:
        nxt, failure, f_trial = evaluate(trial, True)
        if f_trial <= f + eps * (k * f + 4.0 * math.sqrt(f) * np.linalg.norm(y)):
            if lam < 1.0:
                events.add("halved")
            p, f = trial, f_trial
            if iterations == estimators.MAX_ITERATIONS:
                return p, None, iterations, False, events
            iterations += 1
            if failure:
                return p, FAILURES[failure][0], iterations, False, events
            # The next step starts at twice the lam this one was taken at.
            full, lam = nxt, min(1.0, 2.0 * lam)
            trial = full if lam == 1.0 else p + lam * (full - p)
        else:
            lam /= 2.0
            trial = p + lam * (full - p)
            if np.linalg.norm(trial - p) < tol:
                events.add("halved out")
                return p, None, iterations, False, events
    return full, None, iterations, True, events


def _iterate(p, sensors, y):
    """The ML iteration from p: its first step, then gn_continue on the
    layouts' RMS radii. The step is looked up in estimators at the call, so a
    patch of gn_steps sees it."""
    return estimators.gn_continue(p, estimators.gn_steps(p, sensors, y), sensors, y, normalise(sensors)[2])


class TestGnIterate:
    def test_matches_a_per_problem_guarded_newton_loop(self, monkeypatch):
        monkeypatch.setattr(estimators, "MAX_ITERATIONS", 15)
        # 2d-fixed at 6 dB, T = 1 (seed 7) from the LS estimates: trial 2
        # halves a step, 200 halves a Newton step five times and converges,
        # and 21 needs more than 15 steps.
        point = sweep_point(
            ExperimentConfig.from_dict(
                {"scenario": "2d-fixed", "sigma_db": 6.0, "sweep": {"rounds": [1]}, "trials": 201}, seed=7
            ),
            0,
        )
        rows = [2, 200, 21]
        layout = point.sensors[0]
        frame = normalise(point.sensors)
        starts = list(_least_squares(frame, *normal_equations(frame[0], point.zbar), point.bias_b)[0][rows])
        ys = list(point.ybar[rows])
        # A start on sensor 4, and one so far off that J^T J is singular.
        starts += [layout[4].copy(), np.array([1e8, 0.0])]
        ys += [point.ybar[1], point.ybar[1]]
        # Noise-free data from 1e-10 m off sensor 4: the iterates close in on
        # that sensor until both the Newton and the Gauss-Newton gate fail.
        near = np.log10(np.linalg.norm(layout - (layout[4] + [1e-10, 0.0]), axis=1))
        for offset in ([5.0, 3.0], [0.01, 0.0]):
            ys.append(near)
            starts.append(layout[4] + offset)
        p0, y = np.array(starts), np.array(ys)
        layouts = np.broadcast_to(layout, (len(p0),) + layout.shape).copy()

        with mock.patch.object(estimators, "gn_steps", wraps=gn_steps) as steps:
            p_hat, failure, iterations, converged = _iterate(p0, layouts, y)
        # Only the first step of the set is Gauss-Newton's by request; every
        # later evaluation, a halved trial included, asks for Newton's.
        newton = [
            call.args[3] if len(call.args) > 3 else call.kwargs.get("newton", False)
            for call in steps.call_args_list
        ]
        assert newton.count(False) == 1 and newton[0] is False and len(newton) > 15

        kinds, events = [], set()
        for row in range(len(p0)):
            ref_p, ref_error, ref_iterations, ref_converged, ref_events = _guarded_newton_loop(
                p0[row], layouts[row], y[row]
            )
            error = FAILURES[failure[row]][0] if failure[row] else None
            assert (error, iterations[row], converged[row]) == (ref_error, ref_iterations, ref_converged), row
            assert np.array_equal(p_hat[row], ref_p), row
            kinds.append(error or ("converged" if converged[row] else "max_iterations"))
            events |= ref_events
        assert kinds == [
            "converged", "converged", "max_iterations", SingularPointError, DegenerateJacobianError,
            DegenerateJacobianError, DegenerateJacobianError,
        ]
        assert iterations[3:5].tolist() == [1, 1] and (iterations[5:] > 2).all()
        assert events == {"halved"}
        # A shared layout gives the same iterates as its per-problem copies.
        shared = _iterate(p0, layout[None], y)
        for got, want in zip(shared, (p_hat, failure, iterations, converged)):
            np.testing.assert_array_equal(got, want)

    def test_a_step_that_no_lam_passes_stops_unconverged(self, scenario_2d):
        # Every trial point reads a higher objective: the first (Gauss-Newton)
        # step is halved until it is shorter than the tolerance, and the
        # problem stops unconverged where it started, after one step.
        ms = generate_measurements(scenario_2d.with_rounds(3), 4)
        p0 = ls_known_variance(ms, NOISE.bias_b).p_hat[None]
        sensors, y = ms.sensor_coords[None], ms.y[None]
        trials = []

        def uphill(p, sensors, y, newton=False):
            p_next, failure, objective = gn_steps(p, sensors, y, newton)
            if newton:
                trials.append(p[0])
                objective = objective + 1.0
            return p_next, failure, objective

        with mock.patch.object(estimators, "gn_steps", uphill):
            p_hat, failure, iterations, converged = _iterate(p0, sensors, y)
        assert (failure[0], iterations[0], converged[0]) == (0, 1, False)
        assert np.array_equal(p_hat, p0)
        step = np.linalg.norm(gn_steps(p0, sensors, y)[0] - p0)
        tol = estimators.STEP_TOLERANCE * _rms_radius(ms.sensor_coords)
        assert len(trials) == math.floor(math.log2(step / tol)) + 1 > 20
        halved = step * 0.5 ** np.arange(len(trials))
        np.testing.assert_allclose(np.linalg.norm(trials - p0, axis=1), halved, rtol=1e-12, atol=1e-13)


class TestMlStepTolerance:
    """ml's step tolerance is STEP_TOLERANCE times its layout's RMS radius."""

    def test_a_layout_scaled_by_1e3_takes_the_same_steps(self):
        # 2d-fixed at 6 dB, T = 1 (seed 7): with a tolerance of 1e-10 m the
        # layout at x1e3 took 9.79 mean steps against 9.28 at x1 and stopped
        # 3 of the 2000 trials unconverged.
        cfg = {"scenario": "2d-fixed", "sigma_db": 6.0, "sweep": {"rounds": [1]}, "trials": 2000}
        point = sweep_point(ExperimentConfig.from_dict(cfg, seed=7), 0)
        (metres,) = estimate_stack(("ml",), point.sensors, point.ybar, point.zbar, point.bias_b)
        (km,) = estimate_stack(("ml",), 1e3 * point.sensors, point.ybar + 3.0, 1e6 * point.zbar, point.bias_b)
        assert not metres.failure.any() and not km.failure.any()
        assert metres.converged.all() and km.converged.all()
        assert km.iterations.mean() == metres.iterations.mean()

    def test_fewer_steps_than_with_a_tolerance_in_metres(self):
        # 2d-random at 4 dB (seed 7, 200 trials): with a tolerance of 1e-10 m
        # ml took 7.775 mean steps at n = 10 and 4.885 at n = 1000.
        cfg = {"scenario": "2d-random", "sigma_db": 4.0, "sweep": {"n_random": [10, 1000]}, "trials": 200}
        cfg = ExperimentConfig.from_dict(cfg, seed=7)
        for sweep_index, before in enumerate((7.775, 4.885)):
            point = sweep_point(cfg, sweep_index)
            (ml,) = estimate_stack(("ml",), point.sensors, point.ybar, point.zbar, point.bias_b)
            assert not ml.failure.any() and ml.converged.all()
            assert ml.iterations.mean() <= before - 0.5, cfg.sweep_values[sweep_index]


class TestNewtonStep:
    def test_solves_the_finite_difference_hessian(self, scenario_2d, scenario_3d):
        # H is half the Hessian of F = sum r_i^2, whose gradient is -2 J^T r:
        # central differences of the analytic gradient give it to ~1e-7.
        rng = np.random.default_rng(23)
        checked = 0
        for sc in (scenario_2d, scenario_3d):
            ms = generate_measurements(sc.with_rounds(3), 5)
            sensors, y = ms.sensor_coords, ms.y
            for p in sc.source + rng.normal(0.0, 15.0, size=(20, sc.dimension)):
                def half_gradient(x):
                    diff = x - sensors
                    d2 = (diff * diff).sum(axis=1)
                    return -(diff / (d2[:, None] * LN10)).T @ (y - 0.5 * np.log10(d2))

                h = 1e-4
                hessian = np.array([
                    (half_gradient(p + h * e) - half_gradient(p - h * e)) / (2 * h) for e in np.eye(sc.dimension)
                ])
                hessian = 0.5 * (hessian + hessian.T)
                p_next, failure, _ = gn_steps(p[None], sensors[None], y[None], True)
                assert failure[0] == 0
                if np.linalg.eigvalsh(hessian)[0] <= 0:
                    # Not positive definite: the Gauss-Newton step.
                    assert np.array_equal(p_next, gn_steps(p[None], sensors[None], y[None])[0])
                    continue
                expected = p - np.linalg.solve(hessian, half_gradient(p))
                np.testing.assert_allclose(p_next[0], expected, rtol=0, atol=1e-5 * np.linalg.norm(expected - p))
                checked += 1
        assert checked >= 20


class TestMonotoneMl:
    """ml's backtracked iteration never raises the ML objective above its LS
    start's beyond rounding, and it does not fail on the noisy small-n sets
    where the undamped iteration did."""

    @settings(max_examples=300, deadline=None)
    @given(stack=kernel_stacks(), b=st.sampled_from([1.0, 1.7]), row0=st.sampled_from(["drawn", "near-sensor"]))
    def test_objective_never_above_the_ls_start(self, stack, b, row0):
        _, sensors, y = stack
        y = y.copy()
        if row0 == "near-sensor":
            y[0] = np.log10(np.linalg.norm(sensors[0] - (sensors[0, 0] + 1e-10), axis=-1))
        ls, ml = estimate_stack(("ls", "ml"), sensors, y, np.power(10.0, 2.0 * y), b)
        layouts = np.broadcast_to(sensors, (len(y),) + sensors.shape[1:])
        for row in np.flatnonzero(ml.failure == 0):
            def objective(p):
                r = y[row] - np.log10(np.linalg.norm(layouts[row] - p, axis=-1))
                return r @ r

            start, end = objective(ls.p_hat[row]), objective(ml.p_hat[row])
            k, eps = y.shape[1], np.finfo(float).eps
            rounding = eps * (k * start + 4.0 * math.sqrt(start) * np.linalg.norm(y[row]))
            assert end <= start + 2.0 * (ml.iterations[row] + 1) * rounding, (row, start, end)

    def test_no_degenerate_jacobian_at_3d_sigma_6_t_1(self):
        # The undamped iteration failed 933 of these trials with
        # degenerate-jacobian (and 391 more stopped at max_iterations).
        cfg = ExperimentConfig.from_dict(
            {"scenario": "3d-fixed", "sigma_db": 6.0, "estimators": ["ml"], "sweep": {"rounds": [1]},
             "trials": 2000, "measure_time": False},
            seed=7,
        )
        point = sweep_point(cfg, 0)
        (ml,) = estimate_stack(("ml",), point.sensors, point.ybar, point.zbar, point.bias_b)
        assert not (ml.failure == estimators._DEGENERATE).any()
        assert run_experiment(cfg).rows[0].trials_failed == 0


class TestResidualNorm:
    def test_is_the_root_ml_objective_at_the_estimate(self, scenario_2d, scenario_3d):
        for sc in (scenario_2d.with_rounds(3), scenario_3d.with_rounds(3)):
            ms = generate_measurements(sc, trial_rng(93, sc.dimension))
            first = ls_known_variance(ms, NOISE.bias_b)
            for est in (
                first,
                ls_unknown_variance(ms),
                two_step(ms, NOISE),
                two_step(ms, None),
                ml_reference(ms, first.p_hat),
            ):
                assert est.residual_norm == math.sqrt(ml_objective(est.p_hat, ms)), est.estimator

    def test_nan_when_the_estimate_sits_on_a_sensor(self, scenario_2d):
        # The degraded two-step of TestTwoStep: both stages end within the
        # clearance of sensor 4, where the ML objective is undefined.
        p = scenario_2d.sensors[4] + [1e-10, 0.0]
        d = np.linalg.norm(scenario_2d.sensors - p, axis=1)
        ms = MeasurementSet(sensor_coords=scenario_2d.sensors, y=np.log10(d))
        est = two_step(ms, NoiseModel(0.0, 2.0))
        assert est.refinement_degraded
        with pytest.raises(SingularPointError):
            ml_objective(est.p_hat, ms)
        assert math.isnan(est.residual_norm)
        assert math.isnan(ls_known_variance(ms, 1.0).residual_norm)


class TestConsistencyRates:
    def test_sqrt_n_rate_of_ls(self, scenario_2d):
        # log RMSE vs log n slope for the first-step LS over a T sweep.
        slopes_input = []
        for T in (30, 100, 200, 400):
            sc = scenario_2d.with_rounds(T)
            errors = []
            for trial in range(200):
                ms = generate_measurements(sc, trial_rng(51, T, trial))
                p_hat = ls_known_variance(ms, NOISE.bias_b).p_hat
                errors.append(np.sum((p_hat - sc.source) ** 2))
            slopes_input.append((math.log(10 * T), 0.5 * math.log(np.mean(errors))))
        xs, ys = zip(*slopes_input)
        slope = np.polyfit(xs, ys, 1)[0]
        assert -0.6 <= slope <= -0.4


def _jacobian_by_rows(p, sensors, y):
    """The Gauss-Newton Jacobian written row-major on squared distances: the
    (t, k, m) differences, d^2 summed over the coordinate axis, the near
    test and clamp on d^2, r = y - log10(d^2) / 2 and a broadcast division
    by d^2 ln 10, copied into the contiguous (t, m, k) J^T that gn_steps
    builds: the sums over the k rows then run in the same order. Returns
    (J^T, the residual r (t, k), near (t,))."""
    diff = p[:, None, :] - sensors
    d2 = (diff * diff).sum(axis=-1)
    near = d2.min(axis=-1) < SENSOR_CLEARANCE**2
    d2 = np.maximum(d2, SENSOR_CLEARANCE**2)
    jacobian = diff / (d2[..., None] * LN10)
    return np.ascontiguousarray(jacobian.swapaxes(1, 2)), y - 0.5 * np.log10(d2), near


def _normal_step(jt, r):
    """The Gauss-Newton step solved from J^T J and J^T r, as gn_steps does."""
    return estimators._normal_solve(jt @ jt.swapaxes(1, 2), (jt @ r[:, :, None])[..., 0], jt.shape[-1])


def _step_failures(step, degenerate, near):
    failure = np.where(np.isfinite(step).all(axis=-1), 0, estimators._STEP_NONFINITE)
    failure[degenerate] = estimators._DEGENERATE
    failure[near] = estimators._NEAR
    return failure


def _objective(r, near):
    """Sum of squared residuals per row, as gn_steps forms it; inf on a sensor."""
    objective = (r[:, None, :] @ r[:, :, None])[:, 0, 0]
    objective[near] = np.inf
    return objective


def _newton_step(p, sensors, jt, r):
    """gn_steps's Newton step from the Hessian written row by row, sum_i
    (1 + 2 ln10 r_i) J_i J_i^T - r_i / (d_i^2 ln10) I, in the same order of
    operations; the Gauss-Newton step where it fails the gate."""
    diff = p[:, None, :] - sensors
    d2 = np.maximum((diff * diff).sum(axis=-1), SENSOR_CLEARANCE**2)
    weighted = np.ascontiguousarray((jt.swapaxes(1, 2) * (1.0 + 2.0 * LN10 * r)[..., None]).swapaxes(1, 2))
    hessian = weighted @ jt.swapaxes(1, 2)
    shift = (r[:, None, :] @ (1.0 / (d2 * LN10))[:, :, None])[:, 0, 0]
    hessian -= shift[:, None, None] * np.eye(p.shape[1])
    step, degenerate = estimators._normal_solve(hessian, (jt @ r[:, :, None])[..., 0], jt.shape[-1])
    fallback, still = _normal_step(jt[degenerate], r[degenerate])
    step[degenerate], degenerate[degenerate] = fallback, still
    return step, degenerate


def _gn_steps_by_rows(p, sensors, y, newton=False):
    """gn_steps on the row-major Jacobian, through the same normal-matrix solve."""
    jt, r, near = _jacobian_by_rows(p, sensors, y)
    step, degenerate = _newton_step(p, sensors, jt, r) if newton else _normal_step(jt, r)
    return p + step, _step_failures(step, degenerate, near), _objective(r, near)


def _svd_gn_steps(p, sensors, y):
    """gn_steps with each step solved by the SVD oracle of J."""
    jt, r, near = _jacobian_by_rows(p, sensors, y)
    step, degenerate = svd_solve(jt.swapaxes(1, 2), r)[:2]
    return p + step, _step_failures(step, degenerate, near), _objective(r, near)


def _concatenated_designs(q):
    """The LS designs as they were written: np.concatenate of row-major columns."""
    ones = np.ones(q.shape[:-1] + (1,))
    plane = np.concatenate([-2.0 * q, ones], axis=-1)
    sq = np.einsum("...km,...km->...k", q, q)[..., None]
    return plane, np.concatenate([-2.0 * q, ones, sq], axis=-1)


class TestCoordinateMajorKernels:
    """The coordinate-major kernels give the bits of their row-major forms:
    no reduction over the 2-3 coordinates changes the summation order."""

    @settings(max_examples=200, deadline=None)
    @given(stack=kernel_stacks())
    def test_sq_norm_is_the_row_major_sum(self, stack):
        p, sensors, _ = stack
        diff = sensors - p[0]
        assert np.array_equal(sq_norm(diff), (diff * diff).sum(axis=-1))
        assert np.array_equal(np.sqrt(sq_norm(diff)), np.linalg.norm(diff, axis=-1))

    @settings(max_examples=200, deadline=None)
    @given(stack=kernel_stacks(), newton=st.booleans())
    def test_gn_steps(self, stack, newton):
        p, sensors, y = stack
        p_next, failure, objective = gn_steps(p, sensors, y, newton)
        expected, expected_failure, expected_objective = _gn_steps_by_rows(p, sensors, y, newton)
        assert np.array_equal(failure, expected_failure)
        assert np.array_equal(p_next, expected, equal_nan=True)
        assert np.array_equal(objective, expected_objective)

    @settings(max_examples=200, deadline=None)
    @given(stack=kernel_stacks())
    def test_least_squares(self, stack):
        # Both LS designs solve from normal_equations; the row-major design
        # goes to the same Gram and right-hand side, copied into the
        # contiguous (g, m+2, k) A^T that it builds: the sums over the k rows
        # then run in the same order.
        _, sensors, y = stack
        q = normalise(sensors)[0]
        plane, sphere = _concatenated_designs(q)
        assert np.array_equal(hypersphere_design(q)[..., :-1], plane)
        assert np.array_equal(hypersphere_design(q), sphere)
        z = np.power(10.0, 2.0 * y)

        def by_rows(q):
            return np.ascontiguousarray(_concatenated_designs(q)[1].swapaxes(-1, -2)).swapaxes(-1, -2)

        with mock.patch.object(geometry, "hypersphere_design", by_rows):
            expected = normal_equations(q, z)
        for got, want in zip(normal_equations(q, z), expected):
            assert np.array_equal(got, want)

    @settings(max_examples=200, deadline=None)
    @given(stack=kernel_stacks())
    def test_check_layouts(self, stack):
        p, sensors, _ = stack
        source = p[0]
        got = outcome(check_layouts, sensors, source, 3)
        if np.any(np.linalg.norm(sensors - source, axis=-1) < SENSOR_CLEARANCE):
            assert got is DegenerateGeometryError
        else:
            assert np.array_equal(got[0], source) and got[1] == 3
            # The squared distances it checks, returned for draw_means.
            assert np.array_equal(got[2], sq_norm(sensors - source))
            sc = Scenario(sensors=sensors[0], source=source, sigma_db=2.0)
            assert np.array_equal(sc.distances(), np.linalg.norm(sensors[0] - source, axis=-1))


class TestNormalEquationStep:
    """gn_steps solves the m x m normal equations by one eigh of J^T J. Its
    step equals the SVD least-squares step within a bound proportional to
    eps cond(J^T J), and it gates on the same Gram condition."""

    @settings(max_examples=300, deadline=None)
    @given(stack=kernel_stacks(), tilt=st.one_of(st.none(), st.floats(-8.0, -4.0)), seed=st.integers(0, 2**32 - 1))
    def test_step_and_gate_match_the_svd_solve(self, stack, tilt, seed):
        p, sensors, y = stack
        if tilt is not None:
            # The last layout within 10**tilt of a line through its point:
            # Gram conditions of about 1e8 to 1e16, across the gate.
            rng = np.random.default_rng(seed)
            sensors = sensors.copy()
            k, m = sensors.shape[1:]
            spread = np.linalg.norm(sensors[-1] - p[-1], axis=-1).mean()
            direction = rng.normal(size=m)
            line = np.outer(rng.uniform(-1.0, 1.0, size=k), direction / np.linalg.norm(direction))
            sensors[-1] = p[-1] + spread * (line + 10.0**tilt * rng.normal(size=(k, m)))
        # gn_steps's J^T, r and solve, bit for bit (TestCoordinateMajorKernels).
        jt, r, _ = _jacobian_by_rows(p, sensors, y)
        step, bad = _normal_step(jt, r)
        expected, expected_bad, condition, s_max = svd_solve(jt.swapaxes(1, 2), r)
        # The two gates may disagree only within 1e-3 of the limit.
        boundary = np.abs(condition / GRAM_CONDITION_LIMIT - 1.0) <= 1e-3
        assert np.array_equal(bad[~boundary], expected_bad[~boundary])
        # Forming G and g costs k eps relative per entry; solving from G
        # multiplies that by cond(J^T J), on the scale of the step and of the
        # residual's reach ||r|| / s_max.
        solved = ~bad & ~expected_bad
        k, eps = jt.shape[-1], np.finfo(float).eps
        scale = np.linalg.norm(expected, axis=-1) + np.linalg.norm(r, axis=-1) / s_max
        gap = np.linalg.norm(step - expected, axis=-1)
        assert (gap[solved] <= 4.0 * k * eps * condition[solved] * scale[solved]).all()

    @pytest.mark.parametrize("scenario", ["2d-fixed", "3d-fixed"])
    def test_two_step_rows_match_the_svd_step(self, scenario):
        d = {
            "scenario": scenario,
            "estimators": ["ls+gn", "ls-u+gn"],
            "sweep": {"rounds": [1, 3, 30, 100]},
            "trials": 300,
            "measure_time": False,
        }
        for sigma in (2.0, 6.0):
            cfg = ExperimentConfig.from_dict({**d, "sigma_db": sigma}, seed=5)
            rows = run_experiment(cfg).rows
            with mock.patch.object(estimators, "gn_steps", _svd_gn_steps):
                reference = run_experiment(cfg).rows
            for row, ref in zip(rows, reference):
                assert (row.trials_ok, row.trials_failed) == (ref.trials_ok, ref.trials_failed)
                for field in ("bias_m", "rmse_m"):
                    got, want = getattr(row, field), getattr(ref, field)
                    assert abs(got - want) <= 1e-11 * abs(want), (row, field)


def _near_degenerate(sensors, kind, tilt, rng):
    """``sensors`` (k, m) moved to within 10**tilt of their spread off one
    hyperplane (line or plane) or one hypersphere (circle or sphere)."""
    k, m = sensors.shape
    centre = sensors.mean(axis=0)
    spread = np.linalg.norm(sensors - centre, axis=-1).mean()
    if kind == "hyperplane":
        basis = np.linalg.qr(rng.normal(size=(m, m)))[0][:, : m - 1]
        base = rng.uniform(-1.0, 1.0, size=(k, m - 1)) @ basis.T
    else:
        base = rng.normal(size=(k, m))
        base /= np.linalg.norm(base, axis=-1, keepdims=True)
    return centre + spread * (base + 10.0**tilt * rng.normal(size=(k, m)))


class TestNormalEquationLeastSquares:
    """Both LS designs are solved from one Gram of the hypersphere design by
    one eigh each. Their solutions equal the SVD least-squares solutions of
    the explicit designs within a bound proportional to eps cond(G), and they
    gate on the same Gram condition."""

    @settings(max_examples=300, deadline=None)
    @given(
        stack=kernel_stacks(),
        layout=st.sampled_from(["drawn", "hyperplane", "hypersphere"]),
        # Gram conditions of about 1e6 to 1e16 for the near-degenerate
        # layouts, across the gate.
        tilt=st.floats(-8.0, -3.0),
        b=st.sampled_from([None, 1.0, 1.7]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_solution_and_gate_match_the_svd_solve(self, stack, layout, tilt, b, seed):
        _, sensors, y = stack
        if layout != "drawn":
            sensors = sensors.copy()
            sensors[-1] = _near_degenerate(sensors[-1], layout, tilt, np.random.default_rng(seed))
        z = np.power(10.0, 2.0 * y)
        frame = normalise(sensors)
        with mock.patch.object(estimators, "_normal_solve", wraps=estimators._normal_solve) as solve:
            _least_squares(frame, *normal_equations(frame[0], z), b)
        got, bad = estimators._normal_solve(*solve.call_args[0])
        q, _, s = frame
        plane, sphere = _concatenated_designs(q)
        if b is None:
            design, rhs = sphere, z / (s * s)[:, None]
            reach = np.linalg.norm(rhs, axis=-1)
        else:
            scaled, sq = z / (b * s * s)[:, None], sq_norm(q)
            design, rhs = plane, scaled - sq
            reach = np.linalg.norm(scaled, axis=-1) + np.linalg.norm(sq, axis=-1)
        expected, expected_bad, condition, s_max = svd_solve(design, rhs)
        # The two gates may disagree only within 1e-3 of the limit.
        boundary = np.abs(condition / GRAM_CONDITION_LIMIT - 1.0) <= 1e-3
        assert np.array_equal(bad[~boundary], expected_bad[~boundary])
        # Forming G and h costs k eps relative per entry (the known-variance
        # right-hand side also that of G's last column, ||q_i||^2 projected);
        # solving from G multiplies that by cond(G), on the scale of the
        # solution and of the right-hand side's reach over s_max.
        t, (k, c) = len(z), design.shape[1:]
        solved = np.broadcast_to(~bad & ~expected_bad, (t,))
        condition, s_max = np.broadcast_to(condition, (t,)), np.broadcast_to(s_max, (t,))
        scale = np.linalg.norm(expected, axis=-1) + reach / s_max
        gap = np.linalg.norm(got - expected, axis=-1)
        bound = 4.0 * k * np.finfo(float).eps * condition * scale
        assert got.shape == (t, c)
        assert (gap[solved] <= bound[solved]).all()


OUTCOME_FIELDS = ("p_hat", "coef", "failure", "degraded", "iterations", "converged")


class TestPlan:
    """estimate_stack runs each stage once for all the estimators that use it:
    the normalised layouts, each LS design and the first Gauss-Newton step
    from each LS start, which ml continues from."""

    @settings(max_examples=100, deadline=None)
    @given(
        stack=kernel_stacks(),
        ids=st.lists(st.sampled_from(ESTIMATOR_IDS), min_size=1, unique=True),
        b=st.sampled_from([1.0, 1.7]),
        row0=st.sampled_from(["drawn", "near-sensor", "overflow"]),
    )
    def test_any_set_of_ids_equals_each_id_alone(self, stack, ids, b, row0):
        # The stack's last layout may be collinear (a singular known-variance
        # design); row 0 may read noise-free from 1e-10 m off one of its
        # sensors (a failing Gauss-Newton step) or overflow 10**(2y).
        _, sensors, y = stack
        y = y.copy()
        if row0 == "near-sensor":
            y[0] = np.log10(np.linalg.norm(sensors[0] - (sensors[0, 0] + 1e-10), axis=-1))
        elif row0 == "overflow":
            y[0, 0] = 200.0
        with np.errstate(over="ignore", invalid="ignore"):
            z = np.power(10.0, 2.0 * y)
            together = estimate_stack(tuple(ids), sensors, y, z, b)
            alone = [estimate_stack((est_id,), sensors, y, z, b)[0] for est_id in ids]
        for est_id, got, want in zip(ids, together, alone):
            for field in OUTCOME_FIELDS:
                assert np.array_equal(getattr(got, field), getattr(want, field), equal_nan=True), (est_id, field)

    def test_ml_continues_from_the_two_step_estimate(self, scenario_2d, monkeypatch):
        # Where the full first step lowers the ML objective, ml's first
        # iterate is the two-step estimate; at T = 1, trial 330 (seed 95) the
        # full step raises it, and ml's first iterate is the half step.
        for rounds, trial, lam in [(3, 0, 1.0), (3, 1, 1.0), (3, 2, 1.0), (3, 3, 1.0), (3, 4, 1.0), (1, 330, 0.5)]:
            ms = generate_measurements(scenario_2d.with_rounds(rounds), trial_rng(95, trial))
            start = ls_known_variance(ms, NOISE.bias_b).p_hat
            with monkeypatch.context() as one_step:
                one_step.setattr(estimators, "MAX_ITERATIONS", 1)
                first = ml_reference(ms, start)
            refined = two_step(ms, NOISE).p_hat
            assert (ml_objective(refined, ms) <= ml_objective(start, ms)) == (lam == 1.0)
            if lam == 1.0:
                assert np.array_equal(first.p_hat, refined)
            else:
                assert np.array_equal(first.p_hat, start + lam * (refined - start))
                assert ml_objective(first.p_hat, ms) < ml_objective(start, ms)
        # In one plan, ml's iteration starts from the step ls+gn keeps.
        point = _stack_of_trials(scenario_2d, 20)
        with mock.patch.object(estimators, "gn_continue", wraps=estimators.gn_continue) as continued:
            refined, ml = estimate_stack(("ls+gn", "ml"), *point)
        (start, first, *_), _ = continued.call_args
        assert not refined.degraded.any() and not ml.failure.any()
        assert np.array_equal(first[0], refined.p_hat)
        assert (ml.iterations > 1).all()

    def test_each_shared_stage_runs_once(self, scenario_2d):
        events = []

        def traced(name):
            stage = getattr(estimators, name)

            def call(*args):
                events.append(name)
                result = stage(*args)
                events.append("/" + name)
                return result

            return call

        stages = ("normalise", "_least_squares", "gn_steps", "gn_continue")
        with mock.patch.multiple(estimators, **{name: traced(name) for name in stages}):
            estimate_stack(ESTIMATOR_IDS, *_stack_of_trials(scenario_2d, 20))
        assert events.count("normalise") == 1
        assert events.count("_least_squares") == 2
        assert events.count("gn_continue") == 1
        # One first step from each LS start; ml's further steps run inside
        # gn_continue.
        enter, leave = events.index("gn_continue"), events.index("/gn_continue")
        assert (events[:enter] + events[leave:]).count("gn_steps") == 2
        assert events[enter:leave].count("gn_steps") > 1

    def test_each_estimator_is_charged_the_stages_it_uses(self, scenario_2d, monkeypatch):
        # A clock that advances one second per reading: every stage takes one
        # second. Normalising, the LS design and the estimator's own assembly
        # are three stages; the first Gauss-Newton step is a fourth.
        point = _stack_of_trials(scenario_2d, 20)
        expected = {"ls": 3.0, "ls+gn": 4.0, "ls-u": 3.0, "ls-u+gn": 4.0, "ml": 4.0}
        monkeypatch.setattr(estimators, "perf_counter", itertools.count().__next__)
        together = estimate_stack(ESTIMATOR_IDS, *point)
        for est_id, out in zip(ESTIMATOR_IDS, together):
            assert out.seconds == expected[est_id]
            assert estimate_stack((est_id,), *point)[0].seconds == expected[est_id]

    @pytest.mark.parametrize(
        "ids, stages",
        [
            (ESTIMATOR_IDS[::-1], (1, 2, 2, 1)),
            (("ml",), (1, 1, 1, 1)),
            (("ls", "ls-u"), (1, 2, 0, 0)),
            (("ls-u+gn", "ls"), (1, 2, 1, 0)),
            (("ml", "ls+gn"), (1, 1, 1, 1)),
        ],
    )
    def test_each_id_order_runs_the_stages_it_needs(self, scenario_2d, ids, stages):
        # stages counts normalise, the LS designs, the first Gauss-Newton
        # steps (the gn_steps calls without ``newton``; gn_continue's steps
        # pass it) and gn_continue.
        names = ("normalise", "_least_squares", "gn_steps", "gn_continue")
        spies = {name: mock.Mock(wraps=getattr(estimators, name)) for name in names}
        with mock.patch.multiple(estimators, **spies):
            estimate_stack(ids, *_stack_of_trials(scenario_2d, 20))
        counts = {name: spy.call_count for name, spy in spies.items()}
        counts["gn_steps"] = sum(len(call.args) == 3 for call in spies["gn_steps"].call_args_list)
        assert tuple(counts.values()) == stages

    def test_reversed_ids_are_charged_the_stages_they_use(self, scenario_2d, monkeypatch):
        # The clock of test_each_estimator_is_charged_the_stages_it_uses: each
        # id still pays for the stages an earlier id ran.
        point = _stack_of_trials(scenario_2d, 20)
        expected = {"ls": 3.0, "ls+gn": 4.0, "ls-u": 3.0, "ls-u+gn": 4.0, "ml": 4.0}
        monkeypatch.setattr(estimators, "perf_counter", itertools.count().__next__)
        ids = ESTIMATOR_IDS[::-1]
        assert [out.seconds for out in estimate_stack(ids, *point)] == [expected[est_id] for est_id in ids]

    @pytest.mark.parametrize("ids", [("ls", "ls"), ("ls", "nope"), ("l", "s")])
    def test_ids_must_be_distinct_and_known(self, scenario_2d, ids):
        with pytest.raises(InvalidInputError):
            estimate_stack(ids, *_stack_of_trials(scenario_2d, 2))


def _stack_of_trials(sc, trials):
    """(sensors, ybar, zbar, b) of ``trials`` noisy trials of ``sc`` at T = 3."""
    sc = sc.with_rounds(3)
    ys = np.array([generate_measurements(sc, trial_rng(97, trial)).y for trial in range(trials)])
    k = sc.n_sensors
    ybar = ys.reshape(trials, 3, k).mean(axis=1)
    zbar = np.power(10.0, 2.0 * ys).reshape(trials, 3, k).mean(axis=1)
    return sc.sensors[None], ybar, zbar, NOISE.bias_b
