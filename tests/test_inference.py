import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import kernel_stacks, outcome
from rssloc.bench import ExperimentConfig, sweep_point
from rssloc.errors import (
    DegenerateGeometryError,
    InfiniteInformationError,
    InvalidInputError,
    NumericError,
    SingularPointError,
)
from rssloc.geometry import singular
from rssloc.inference import crlb_stack, fisher_information, rcrlb_curve
from rssloc.model import LN10, SENSOR_CLEARANCE, NoiseModel, Scenario, check_layouts, sq_norm


@pytest.fixture
def symmetric_cross():
    # Four sensors on the axes at radius r, source at the origin: the Fisher
    # matrix is isotropic and the CRLB has the closed form
    # sigma^2 ln^2(10) r^2 / (100 alpha^2).
    r = 50.0
    return Scenario(
        sensors=[[r, 0.0], [-r, 0.0], [0.0, r], [0.0, -r]],
        source=[0.0, 0.0],
        sigma_db=2.0,
        alpha=2.0,
    )


def _normalized_matrix(sc):
    """M_n = (1/n) sum_i grad f_i grad f_i^T over the n = k*T measurements,
    f_i = log10 d_i: every round repeats the k sensor terms, so it is their
    mean over the k sensors."""
    grad = (sc.source - sc.sensors) / (np.sum((sc.source - sc.sensors) ** 2, axis=1) * LN10)[:, None]
    return grad.T @ grad / sc.n_sensors


class TestFisherInformation:
    def test_closed_form_symmetric_layout(self, symmetric_cross):
        fs = fisher_information(symmetric_cross)
        r, sigma, alpha = 50.0, 2.0, 2.0
        expected_crlb = sigma**2 * LN10**2 * r**2 / (100 * alpha**2)
        assert fs.crlb == pytest.approx(expected_crlb, rel=1e-9)
        assert fs.crlb == pytest.approx(132.547, abs=1e-3)
        assert fs.rcrlb == pytest.approx(math.sqrt(expected_crlb), rel=1e-9)
        expected_f = 200 * alpha**2 / (sigma**2 * LN10**2 * r**2) * np.eye(2)
        np.testing.assert_allclose(fs.F, expected_f, rtol=1e-9)

    def test_crlb_scales_with_noise_squared(self, scenario_2d):
        low = fisher_information(scenario_2d.with_sigma(1.0))
        high = fisher_information(scenario_2d.with_sigma(2.0))
        assert high.crlb == pytest.approx(4.0 * low.crlb, rel=1e-12)

    def test_normalized_matrix_identity(self, scenario_2d, scenario_3d):
        for sc in (scenario_2d.with_rounds(7), scenario_3d.with_rounds(3)):
            fs = fisher_information(sc)
            scale = 100 * sc.alpha**2 / sc.sigma_db**2
            np.testing.assert_allclose(
                fs.F, scale * sc.n_measurements * _normalized_matrix(sc), rtol=1e-12
            )
            np.testing.assert_allclose(fs.F, fs.F.T, atol=1e-12)
            assert np.all(np.linalg.eigvalsh(fs.F) > 0)

    def test_asymptotic_covariance_identity(self, scenario_2d):
        # (sigma^2/(100 a^2)) M_n^{-1} / n == F^{-1}
        sc = scenario_2d.with_rounds(5)
        fs = fisher_information(sc)
        n = sc.n_measurements
        scale = scenario_2d.sigma_db**2 / (100 * scenario_2d.alpha**2)
        np.testing.assert_allclose(
            scale * np.linalg.inv(_normalized_matrix(sc)) / n, np.linalg.inv(fs.F), rtol=1e-12
        )

    def test_rotation_equivariance(self, scenario_2d):
        base = fisher_information(scenario_2d)
        rng = np.random.default_rng(0)
        for _ in range(100):
            angle = rng.uniform(0, 2 * np.pi)
            rot = np.array(
                [[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]]
            )
            rotated = Scenario(
                sensors=scenario_2d.sensors @ rot.T,
                source=rot @ scenario_2d.source,
                sigma_db=scenario_2d.sigma_db,
                alpha=scenario_2d.alpha,
            )
            fs = fisher_information(rotated)
            np.testing.assert_allclose(fs.F, rot @ base.F @ rot.T, rtol=1e-10)
            assert fs.crlb == pytest.approx(base.crlb, rel=1e-10)

    def test_zero_noise_rejected(self, scenario_2d):
        with pytest.raises(InfiniteInformationError):
            fisher_information(scenario_2d.with_sigma(0.0))

    def test_eval_point_at_sensor_rejected(self, scenario_2d):
        with pytest.raises(SingularPointError):
            fisher_information(scenario_2d, eval_point=scenario_2d.sensors[0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_eval_point_rejected(self, scenario_2d, bad):
        # It was read as a point and failed the Fisher gate as a singular
        # matrix, after a numpy invalid-value warning.
        with pytest.raises(InvalidInputError, match="eval_point must be a finite m-vector"):
            fisher_information(scenario_2d, eval_point=[bad, 0.0])

    @pytest.mark.parametrize("scale", [1e155, 1e200])
    def test_far_eval_point_is_a_numeric_error(self, scenario_2d, scale):
        # Its squared distances overflowed with a RuntimeWarning, and the
        # infinite distances were reported as a singular Fisher matrix.
        with pytest.raises(NumericError, match="squared sensor-eval_point distance overflows"):
            fisher_information(scenario_2d, eval_point=[scale, 0.0])

    def test_nearly_collinear_layout_rejected(self):
        # The x = 0 sensors of the 2-D fixed layout with the source 1e-7 m
        # off their line: F is singular to within rounding, and an explicit
        # inverse of it yields a meaningless finite CRLB (4.1e17 m^2).
        sc = Scenario(
            sensors=[[0.0, 20.0], [0.0, 50.0], [0.0, -50.0], [0.0, -20.0]],
            source=[1e-7, 0.0],
            sigma_db=2.0,
        )
        with pytest.raises(DegenerateGeometryError):
            fisher_information(sc)

    @pytest.mark.parametrize(
        "sigma_db, alpha",
        # sigma^2 underflows to 0 (ZeroDivisionError); 100 alpha^2 / sigma^2
        # overflows to inf (an RCRLB of 0); sigma^2 or alpha^2 overflows
        # (OverflowError).
        [(1e-200, 2.0), (1e-160, 2.0), (1e200, 2.0), (2.0, 1e200)],
        ids=["sigma-squared-underflows", "scale-overflows", "sigma-squared-overflows", "alpha-squared-overflows"],
    )
    def test_scale_outside_doubles_raises_numeric(self, scenario_2d, sigma_db, alpha):
        sc = replace(scenario_2d, sigma_db=sigma_db, alpha=alpha)
        with pytest.raises(NumericError, match=re.escape(f"sigma_db={sigma_db}, alpha={alpha}")):
            fisher_information(sc)
        sq = sq_norm(sc.sensors - sc.source)[None]
        with pytest.raises(NumericError, match=re.escape(f"sigma_db={sigma_db}, alpha={alpha}")):
            crlb_stack(sc.sensors[None], sc.source, sq, sc.noise, 1)

    @pytest.mark.parametrize(
        "sigma_db, alpha, scale, rounds",
        # scale * T * lambda overflows to inf (a CRLB of 0), or underflows to
        # 0 on a layout 1e100 m across (an infinite CRLB).
        [(1e-150, 2.0, 1.0, 10**10), (1e150, 1.0, 1e100, 1)],
        ids=["overflows", "underflows"],
    )
    def test_crlb_outside_doubles_raises_numeric(self, scenario_2d, sigma_db, alpha, scale, rounds):
        sc = Scenario(scenario_2d.sensors * scale, scenario_2d.source * scale, sigma_db, alpha, rounds)
        message = re.escape(f"CRLB is not a finite positive double at sigma_db={sigma_db}, alpha={alpha}")
        with pytest.raises(NumericError, match=message):
            fisher_information(sc)

    def test_sweep_point_whose_crlb_overflows_raises_numeric(self, scenario_2d):
        # It reported an RCRLB of 0. The bound is checked before any draw.
        cfg = ExperimentConfig(replace(scenario_2d, sigma_db=1e-150), ("ls",), "rounds", (10**10,), 1, 0)
        with pytest.raises(NumericError, match=re.escape("CRLB is not a finite positive double at sigma_db=1e-150")):
            sweep_point(cfg, 0)

    def test_three_dimensional_inverse(self, scenario_3d):
        fs = fisher_information(scenario_3d)
        assert fs.crlb == pytest.approx(np.trace(np.linalg.inv(fs.F)), rel=1e-10)


class TestRcrlbCurve:
    def test_rounds_scaling_is_exact(self, scenario_2d):
        curve = dict(rcrlb_curve(scenario_2d, [100, 400], param="rounds"))
        assert curve[400] == pytest.approx(curve[100] / 2.0, rel=1e-12)

    def test_sigma_scaling_is_exact(self, scenario_2d):
        curve = dict(rcrlb_curve(scenario_2d, [1.0, 2.0], param="sigma"))
        assert curve[2.0] == pytest.approx(2.0 * curve[1.0], rel=1e-12)

    def test_full_sweep_monotone(self, scenario_2d):
        values = [r for _, r in rcrlb_curve(scenario_2d, [3, 10, 30, 100, 200, 400])]
        assert all(b < a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("sigma_db", [1e-200, 1e200])
    def test_extreme_sigma_raises_numeric(self, scenario_2d, sigma_db):
        with pytest.raises(NumericError, match=re.escape(f"sigma_db={sigma_db}, alpha=2.0")):
            rcrlb_curve(scenario_2d, [2.0, sigma_db], param="sigma")

    def test_bad_param(self, scenario_2d):
        with pytest.raises(InvalidInputError):
            rcrlb_curve(scenario_2d, [1, 2], param="trials")

    @pytest.mark.parametrize("param", ["rounds", "sigma"])
    @pytest.mark.parametrize("value", [True, "2"])
    def test_bool_or_string_value_rejected(self, scenario_2d, param, value):
        # The sigma sweep read True as 1 dB and "2" as 2 dB; the rounds sweep
        # rejected both.
        with pytest.raises(InvalidInputError, match="must be a"):
            rcrlb_curve(scenario_2d, [value], param=param)


def _crlb_stack_by_rows(sensors, p, sigma_db, alpha, rounds):
    """crlb_stack as it was written row-major: np.sum over the coordinate
    axis and a broadcast division. The row-major gradient goes to the same
    Gram, copied into the contiguous (g, m, k) grad^T that crlb_stack builds:
    the sums over the k rows then run in the same order."""
    diff = p - sensors
    d2 = np.sum(diff**2, axis=-1)
    if np.any(np.sqrt(d2) < SENSOR_CLEARANCE):
        raise SingularPointError("eval_point coincides with a sensor")
    gt = np.ascontiguousarray((diff / (d2 * LN10)[..., None]).swapaxes(1, 2))
    gram = gt @ gt.swapaxes(1, 2)
    lam = np.linalg.eigvalsh(gram)
    if np.any(singular(lam, sensors.shape[1])):
        raise DegenerateGeometryError("Fisher information matrix is singular")
    return gram, np.sum(1.0 / (100.0 * alpha**2 / sigma_db**2 * rounds * lam), axis=-1)


class TestCrlbStack:
    @settings(max_examples=200, deadline=None)
    @given(stack=kernel_stacks(), row=st.sampled_from([0, -1]), rounds=st.sampled_from([1, 7]))
    def test_bits_of_the_row_major_form(self, stack, row, rounds):
        # Row 0's point may sit on a sensor, and the last layout may be
        # collinear through the last row's point. crlb_stack takes the
        # squared distances its caller checked: sweep_point has them from
        # check_layouts, which refuses a sensor on the point.
        p, sensors, _ = stack
        want = outcome(_crlb_stack_by_rows, sensors, p[row], 3.0, 2.0, rounds)
        if want is SingularPointError:
            assert outcome(check_layouts, sensors, p[row], rounds) is DegenerateGeometryError
            return
        got = outcome(crlb_stack, sensors, p[row], sq_norm(sensors - p[row]), NoiseModel(3.0, 2.0), rounds)
        if isinstance(want, type):
            assert got is want
        else:
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
