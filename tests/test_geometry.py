import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rssloc
from conftest import COLLINEAR_2D, SQUARE_CORNERS, points_concyclic
from rssloc.bench import scenario_registry
from rssloc.errors import InsufficientSensorsError, InvalidInputError, SingularGramError
from rssloc.estimators import ls_known_variance, ls_unknown_variance
from rssloc.geometry import (
    GRAM_CONDITION_LIMIT,
    Localizability,
    localizability,
    normalise,
)
from rssloc.model import MeasurementSet


class TestCheckHyperplane:
    def test_collinear_fails(self):
        assert not localizability(COLLINEAR_2D).hyperplane_ok

    def test_affine_basis_passes(self):
        assert localizability([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]).hyperplane_ok

    def test_benchmark_layouts_pass(self, scenario_2d, scenario_3d):
        assert localizability(scenario_2d.sensors).hyperplane_ok
        assert localizability(scenario_3d.sensors).hyperplane_ok

    def test_coplanar_3d_fails(self):
        rng = np.random.default_rng(0)
        xy = rng.uniform(-5, 5, size=(6, 2))
        pts = np.hstack([xy, np.full((6, 1), 3.0)])
        assert not localizability(pts).hyperplane_ok

    def test_too_few_sensors(self):
        with pytest.raises(InsufficientSensorsError):
            localizability([[0.0, 0.0], [1.0, 1.0]])


class TestCheckHypersphere:
    def test_square_corners_are_concyclic(self):
        # Brute-force oracle: circle centered (1/2, 1/2) passes through all.
        assert points_concyclic(SQUARE_CORNERS)
        assert not localizability(SQUARE_CORNERS).hypersphere_ok

    def test_generic_quadrilateral_passes(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [3.0, 3.0]])
        assert not points_concyclic(pts)
        assert localizability(pts).hypersphere_ok

    def test_benchmark_layouts_pass(self, scenario_2d, scenario_3d):
        assert localizability(scenario_2d.sensors).hypersphere_ok
        assert localizability(scenario_3d.sensors).hypersphere_ok

    def test_points_on_random_circles_fail(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            center = rng.uniform(-10, 10, size=2)
            radius = rng.uniform(0.5, 20.0)
            k = rng.integers(4, 11)
            angles = rng.uniform(0, 2 * np.pi, size=k)
            pts = center + radius * np.column_stack([np.cos(angles), np.sin(angles)])
            assert not localizability(pts).hypersphere_ok

    def test_points_on_random_spheres_fail(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            center = rng.uniform(-10, 10, size=3)
            radius = rng.uniform(0.5, 20.0)
            k = rng.integers(5, 12)
            direction = rng.normal(size=(k, 3))
            direction /= np.linalg.norm(direction, axis=1, keepdims=True)
            assert not localizability(center + radius * direction).hypersphere_ok


class TestLocalizability:
    def test_collinear_not_localizable(self):
        assert localizability(COLLINEAR_2D).verdict is Localizability.NOT_LOCALIZABLE

    def test_square_corners_known_variance_only(self):
        report = localizability(SQUARE_CORNERS)
        assert report.verdict is Localizability.KNOWN_VARIANCE_ONLY
        assert report.hyperplane_ok and not report.hypersphere_ok

    def test_benchmark_layouts_fully_localizable(self, scenario_2d, scenario_3d):
        for sc in (scenario_2d, scenario_3d):
            report = localizability(sc.sensors)
            assert report.verdict is Localizability.FULLY_LOCALIZABLE
            assert report.gram_condition_known > 1.0
            assert report.gram_condition_unknown > 1.0

    def test_report_serializes(self, scenario_2d):
        d = localizability(scenario_2d.sensors).to_dict()
        assert d["verdict"] == "FullyLocalizable"

    @pytest.mark.parametrize("m", [1, 4])
    def test_only_two_or_three_dimensions(self, m):
        # The estimators reject these layouts, so no verdict may accept them.
        sensors = np.random.default_rng(m).uniform(-50.0, 50.0, size=(7, m))
        with pytest.raises(InvalidInputError, match="dimension must be 2 or 3"):
            localizability(sensors)

    def test_hypersphere_implies_hyperplane(self):
        # On 1000 random geometries (generic, collinear, and concyclic mixes)
        # the Phi-rank condition must subsume affine spanning.
        rng = np.random.default_rng(3)
        for i in range(1000):
            k = int(rng.integers(4, 9))
            kind = i % 3
            if kind == 0:
                pts = rng.uniform(-10, 10, size=(k, 2))
            elif kind == 1:
                direction = rng.normal(size=2)
                pts = rng.uniform(-5, 5, size=(k, 1)) * direction + rng.normal(size=2)
            else:
                center = rng.uniform(-5, 5, size=2)
                radius = rng.uniform(0.5, 5.0)
                angles = rng.uniform(0, 2 * np.pi, size=k)
                pts = center + radius * np.column_stack([np.cos(angles), np.sin(angles)])
            report = localizability(pts)
            assert not (report.hypersphere_ok and not report.hyperplane_ok)

    def test_verdict_invariant_under_rigid_motions(self):
        rng = np.random.default_rng(4)
        cases = [
            SQUARE_CORNERS,
            COLLINEAR_2D,
            np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [3.0, 3.0]]),
        ]
        for pts in cases:
            base = localizability(pts).verdict
            for _ in range(100):
                angle = rng.uniform(0, 2 * np.pi)
                rot = np.array(
                    [[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]]
                )
                shift = rng.uniform(-100, 100, size=2)
                assert localizability(pts @ rot.T + shift).verdict is base


def _base_layout(kind, m, n, rng):
    """n points in m dimensions: generic, on a hyperplane, on a hypersphere,
    or a registry layout (n ignored)."""
    if kind == "registry":
        return scenario_registry()["2d-fixed" if m == 2 else "3d-fixed"].sensors
    if kind == "generic":
        return rng.uniform(-50.0, 50.0, size=(n, m))
    if kind == "hyperplane":
        basis = np.linalg.qr(rng.normal(size=(m, m)))[0][:, : m - 1]
        return rng.uniform(-50.0, 50.0, size=(n, m - 1)) @ basis.T + rng.normal(size=m)
    direction = rng.normal(size=(n, m))
    return rng.uniform(1.0, 50.0) * direction / np.linalg.norm(direction, axis=1, keepdims=True)


def _raises_singular_gram(estimator, *args):
    try:
        estimator(*args)
    except SingularGramError:
        return True
    return False


class TestVerdictIsTheEstimatorGate:
    """On the same rows: FullyLocalizable iff neither LS path raises
    SingularGramError, KnownVarianceOnly iff only the unknown-variance path
    does, NotLocalizable iff both do."""

    VERDICTS = {
        (False, False): Localizability.FULLY_LOCALIZABLE,
        (False, True): Localizability.KNOWN_VARIANCE_ONLY,
        (True, True): Localizability.NOT_LOCALIZABLE,
    }

    @settings(max_examples=150, deadline=None)
    @given(
        kind=st.sampled_from(["generic", "hyperplane", "hypersphere", "registry"]),
        m=st.sampled_from([2, 3]),
        # n = 4 is m + 1 in 3-D: four points always lie on one sphere.
        n=st.integers(4, 12),
        # Relative size of the perturbation off the degenerate layout; the
        # middle values put the Gram condition near the gate's limit.
        jitter=st.sampled_from([0.0, 1e-9, 1e-7, 3e-7, 1e-6, 3e-6, 1e-5, 1e-3]),
        log_scale=st.floats(-3.0, 3.0),
        offset=st.floats(-1e6, 1e6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_verdict_matches_gate(self, kind, m, n, jitter, log_scale, offset, seed):
        rng = np.random.default_rng(seed)
        base = _base_layout(kind, m, n, rng)
        base = base + jitter * np.ptp(base) * rng.normal(size=base.shape)
        sensors = 10.0**log_scale * base + offset
        source = sensors.mean(axis=0) + 10.0**log_scale * 7.0
        y = np.log10(np.linalg.norm(sensors - source, axis=1)) + rng.normal(0.0, 0.05, len(sensors))
        ms = MeasurementSet(sensor_coords=sensors, y=y)
        gates = (
            _raises_singular_gram(ls_known_variance, ms, 1.0),
            _raises_singular_gram(ls_unknown_variance, ms),
        )
        assert self.VERDICTS.get(gates) is localizability(sensors).verdict

    @settings(max_examples=100, deadline=None)
    @given(
        kind=st.sampled_from(["hyperplane", "hypersphere"]),
        m=st.sampled_from([2, 3]),
        extra=st.integers(3, 9),
        nudge=st.floats(-2e-4, 2e-4),
        log_scale=st.floats(-3.0, 3.0),
        offset=st.floats(-1e3, 1e3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_both_tests_are_the_gates_at_the_limit(self, kind, m, extra, nudge, log_scale, offset, seed):
        # A degenerate layout perturbed so that the Gram condition of the
        # design it degrades lands within about 1e-3 of the limit, where a
        # gate on singular values and one on Gram eigenvalues part in about
        # one case in ten. The condition goes as the perturbation to the
        # power -2.
        rng = np.random.default_rng(seed)
        base = _base_layout(kind, m, m + extra, rng)
        noise = np.ptp(base) * rng.normal(size=base.shape)
        key = "gram_condition_known" if kind == "hyperplane" else "gram_condition_unknown"

        def layout(jitter):
            return 10.0**log_scale * (base + jitter * noise) + offset

        jitter = 1e-6
        for _ in range(3):
            jitter *= math.sqrt(getattr(localizability(layout(jitter)), key) / GRAM_CONDITION_LIMIT)
        sensors = layout(jitter * (1.0 + nudge))
        report = localizability(sensors)
        assert abs(getattr(report, key) / GRAM_CONDITION_LIMIT - 1.0) <= 1e-2
        source = sensors.mean(axis=0) + 10.0**log_scale * 7.0
        y = np.log10(np.linalg.norm(sensors - source, axis=1)) + rng.normal(0.0, 0.05, len(sensors))
        ms = MeasurementSet(sensor_coords=sensors, y=y)
        assert report.hyperplane_ok is not _raises_singular_gram(ls_known_variance, ms, 1.0)
        assert report.hypersphere_ok is not _raises_singular_gram(ls_unknown_variance, ms)


class TestCentroid:
    """normalise takes each layout's centroid as a contiguous einsum sum over
    its rows divided by their count: mean(axis=-2) bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(
        m=st.sampled_from([2, 3]),
        g=st.integers(1, 5),
        k=st.integers(3, 1200),
        # UTM-scale offsets (about 5e5 m east, 4.5e6 m north) and local frames.
        offset=st.sampled_from([0.0, 5e5, 4.5e6, -1e6]),
        log_scale=st.floats(-3.0, 4.0),
        view=st.sampled_from(["contiguous", "gathered", "strided"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_the_mean_bit_for_bit(self, m, g, k, offset, log_scale, view, seed):
        rng = np.random.default_rng(seed)
        base = offset + 10.0**log_scale * rng.uniform(-50.0, 50.0, size=(2 * g, 2 * k, m))
        if view == "contiguous":
            sensors = np.ascontiguousarray(base[:g, :k])
        elif view == "gathered":
            # The estimators' subset of problems: a fancy-indexed copy.
            sensors = base[rng.choice(2 * g, size=g, replace=False)][:, :k]
        else:
            sensors = base[::2, ::2]
        assert np.array_equal(normalise(sensors)[1], sensors.mean(axis=-2))
        assert np.array_equal(normalise(sensors[0])[1], sensors[0].mean(axis=0))


def test_no_svd_inverse_or_general_solver_in_the_package():
    # Every solve and gate in rssloc is an eigh of a normal matrix.
    call = re.compile(r"linalg\.(svd|inv|solve|lstsq)\b|\b(svd|inv|solve|lstsq)\(")
    found = [
        f"{path.name}:{number}: {line.strip()}"
        for path in sorted(Path(rssloc.__file__).parent.glob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if call.search(line)
    ]
    assert found == []
