import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rssloc.errors import DegenerateGeometryError, InvalidInputError, NumericError
from rssloc.geometry import localizability
from rssloc.model import (
    LN10,
    MeasurementSet,
    NoiseModel,
    Scenario,
    draw_means,
    equivalent_measurement,
    generate_measurements,
    lognormal_bias,
    lognormal_variance,
    trial_rng,
    trial_streams,
)


class TestEquivalentMeasurement:
    def test_reading_at_reference_power_is_zero(self):
        p0 = 3.7
        assert equivalent_measurement(10 * math.log10(p0), p0, 2.0) == pytest.approx(0.0)

    def test_log_arithmetic(self):
        # -(-40/10 - 0)/2 = 2
        assert equivalent_measurement(-40.0, 1.0, 2.0) == pytest.approx(2.0)

    def test_noise_free_reading_for_known_distance(self):
        # sensor (0,20), source (70,30): d = sqrt(5000)
        d = math.sqrt(5000.0)
        raw = -10 * 2.0 * math.log10(d)
        assert equivalent_measurement(raw, 1.0, 2.0) == pytest.approx(
            1.849485, abs=1e-6
        )
        assert equivalent_measurement(raw, 1.0, 2.0) == pytest.approx(math.log10(d))

    def test_array_input(self):
        y = equivalent_measurement(np.array([-40.0, -20.0]), 1.0, 2.0)
        np.testing.assert_allclose(y, [2.0, 1.0])

    @pytest.mark.parametrize("raw", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, raw):
        with pytest.raises(InvalidInputError):
            equivalent_measurement(raw, 1.0, 2.0)

    @pytest.mark.parametrize("raw", [[-40.0, [-20.0]], ["x"], [None, -40.0], True, [True, False], ["-40"]])
    def test_ragged_or_non_numeric_rejected(self, raw):
        # A ragged or non-numeric list escaped as numpy's ValueError, and a
        # boolean or numeric string was read as its number.
        with pytest.raises(InvalidInputError, match="raw_db"):
            equivalent_measurement(raw, 1.0, 2.0)

    def test_bad_constants_rejected(self):
        with pytest.raises(InvalidInputError):
            equivalent_measurement(-40.0, 0.0, 2.0)
        with pytest.raises(InvalidInputError):
            equivalent_measurement(-40.0, 1.0, -1.0)

    @pytest.mark.parametrize(
        "p0, alpha, name",
        [(1.0, True, "alpha"), (True, 2.0, "p0"), ("1", 2.0, "p0"), (1.0, "2", "alpha"), (None, 2.0, "p0"),
         (math.inf, 2.0, "p0"), (10**400, 2.0, "p0"), (1.0, -(10**400), "alpha")],
    )
    def test_constants_must_be_numbers(self, p0, alpha, name):
        # A bool was read as 1 (alpha True gave 4.0 for -40 dB), a string or
        # None escaped as a bare TypeError, and an integer too large for a
        # double as a bare OverflowError.
        with pytest.raises(InvalidInputError, match=name):
            equivalent_measurement(-40.0, p0, alpha)

    def test_round_trip_1000_random_draws(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            d = 10.0 ** rng.uniform(-1, 3)
            p0 = 10.0 ** rng.uniform(-3, 3)
            alpha = rng.uniform(1.0, 5.0)
            raw = 10 * math.log10(p0) - 10 * alpha * math.log10(d)
            assert equivalent_measurement(raw, p0, alpha) == pytest.approx(
                math.log10(d), rel=1e-12, abs=1e-12
            )

    @settings(max_examples=200)
    @given(
        log_d=st.floats(-1, 3),
        log_p0=st.floats(-3, 3),
        alpha=st.floats(1.0, 5.0),
    )
    def test_round_trip_property(self, log_d, log_p0, alpha):
        p0 = 10.0**log_p0
        raw = 10 * log_p0 - 10 * alpha * log_d
        assert equivalent_measurement(raw, p0, alpha) == pytest.approx(
            log_d, rel=1e-9, abs=1e-9
        )


class TestLognormalBias:
    def test_zero_noise(self):
        assert lognormal_bias(0.0, 2.0) == 1.0
        assert lognormal_variance(0.0, 2.0) == 0.0

    def test_known_value(self):
        assert lognormal_bias(2.0, 2.0) == pytest.approx(
            math.exp(LN10**2 / 50.0), rel=1e-15
        )
        assert lognormal_bias(2.0, 2.0) == pytest.approx(1.11186, abs=5e-6)

    def test_bias_at_least_one(self):
        for sigma in (0.0, 0.1, 1.0, 4.0):
            assert lognormal_bias(sigma, 2.0) >= 1.0

    def test_monte_carlo_moments(self):
        sigma, alpha = 2.0, 2.0
        b = lognormal_bias(sigma, alpha)
        rng = np.random.default_rng(12)
        omega = rng.normal(0.0, sigma / (10 * alpha), size=10**6)
        samples = 10.0 ** (2 * omega)
        assert samples.mean() == pytest.approx(b, rel=0.005)
        assert samples.var() == pytest.approx(b * b * (b * b - 1.0), rel=0.02)

    def test_invalid_inputs(self):
        with pytest.raises(InvalidInputError):
            lognormal_bias(-1.0, 2.0)
        with pytest.raises(InvalidInputError):
            lognormal_bias(2.0, 0.0)

    @pytest.mark.parametrize("function", [lognormal_bias, lognormal_variance])
    @pytest.mark.parametrize("field", ["sigma_db", "alpha"])
    @pytest.mark.parametrize("value", [True, "2", math.inf, math.nan])
    def test_fields_are_finite_numbers(self, function, field, value):
        # True ran as 1 dB (or alpha 1).
        with pytest.raises(InvalidInputError, match=f"{field} must be a finite number"):
            function(**{"sigma_db": 2.0, "alpha": 2.0, field: value})

    def test_overflow_is_a_numeric_error(self):
        # b overflows a double above sigma/alpha ~ 81.8, b^2 (b^2 - 1) above ~ 40.9.
        assert math.isfinite(lognormal_bias(163.0, 2.0))
        with pytest.raises(NumericError):
            lognormal_bias(200.0, 2.0)
        assert math.isfinite(lognormal_variance(81.0, 2.0))
        with pytest.raises(NumericError):
            lognormal_variance(120.0, 2.0)
        # alpha^2 underflows to 0: it raised ZeroDivisionError.
        with pytest.raises(NumericError, match="sigma_db=2.0, alpha=1e-200"):
            lognormal_bias(2.0, 1e-200)


class TestNoiseModel:
    def test_derived_fields(self):
        nm = NoiseModel(sigma_db=2.0, alpha=2.0)
        assert nm.omega_std == pytest.approx(0.1)
        assert nm.bias_b == pytest.approx(lognormal_bias(2.0, 2.0))


    @pytest.mark.parametrize("field", ["sigma_db", "alpha"])
    @pytest.mark.parametrize("value", [True, "2", math.inf])
    def test_fields_are_finite_numbers(self, field, value):
        # NoiseModel(True, 2.0) ran at sigma 1 dB.
        with pytest.raises(InvalidInputError, match=f"{field} must be a finite number"):
            NoiseModel(**{"sigma_db": 2.0, "alpha": 2.0, field: value})

    def test_whole_numbers_are_stored_as_floats(self):
        nm = NoiseModel(sigma_db=2, alpha=np.float64(2.0))
        assert (type(nm.sigma_db), type(nm.alpha)) == (float, float)
        assert nm.bias_b == NoiseModel(2.0, 2.0).bias_b

    @pytest.mark.parametrize("alpha", [0.0, -2.0])
    def test_alpha_must_be_positive(self, alpha):
        # alpha = 0 raised ZeroDivisionError before lognormal_bias checked it.
        with pytest.raises(InvalidInputError, match="alpha must be positive"):
            NoiseModel(sigma_db=2.0, alpha=alpha)


class TestScenario:
    def test_basic_properties(self, scenario_2d):
        assert scenario_2d.dimension == 2
        assert scenario_2d.n_sensors == 10
        assert scenario_2d.with_rounds(5).n_measurements == 50

    def test_sensor_at_source_rejected(self):
        with pytest.raises(DegenerateGeometryError):
            Scenario(sensors=[[1.0, 2.0], [0.0, 0.0]], source=[1.0, 2.0], sigma_db=1.0)

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            Scenario(sensors=np.empty((0, 2)), source=[0.0, 0.0], sigma_db=1.0)
        with pytest.raises(InvalidInputError):
            Scenario(sensors=[[0.0], [1.0]], source=[5.0], sigma_db=1.0)
        with pytest.raises(InvalidInputError):
            Scenario(sensors=[[0.0, 1.0]], source=[5.0, 5.0], sigma_db=-1.0)
        with pytest.raises(InvalidInputError):
            Scenario(sensors=[[0.0, 1.0]], source=[5.0, 5.0], sigma_db=1.0, rounds=0)
        with pytest.raises(InvalidInputError, match="sensors must be a 2-D array"):
            Scenario(sensors=[0.0, 1.0], source=[5.0, 5.0], sigma_db=1.0)
        for alpha in (0.0, -2.0):
            with pytest.raises(InvalidInputError, match="alpha must be positive"):
                Scenario(sensors=[[0.0, 1.0]], source=[5.0, 5.0], sigma_db=1.0, alpha=alpha)

    @pytest.mark.parametrize("scale", [1e155, 1e200, 1e308])
    def test_overflowing_squared_distance_is_a_numeric_error(self, scale):
        # The squares overflowed with a RuntimeWarning, and the infinite
        # distances were later reported as a singular Fisher matrix.
        sensors = scale * np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])
        with pytest.raises(NumericError, match="squared sensor-source distance overflows"):
            Scenario(sensors=sensors, source=[0.3 * scale, 0.1 * scale], sigma_db=2.0)

    def test_rounds_is_a_whole_number(self):
        # An integral float is accepted and stored as an int; a fractional,
        # non-finite, bool or string value is rejected, also via from_dict.
        base = dict(sensors=[[0.0, 1.0]], source=[5.0, 5.0], sigma_db=1.0)
        sc = Scenario(**base, rounds=30.0)
        assert sc.rounds == 30 and type(sc.rounds) is int
        assert sc.with_rounds(np.int64(4)).rounds == 4
        for bad in (2.5, 0.5, math.inf, math.nan, True, "3", None):
            with pytest.raises(InvalidInputError):
                Scenario(**base, rounds=bad)
        with pytest.raises(InvalidInputError):
            Scenario.from_dict({**base, "rounds": 2.5})

    def test_json_round_trip(self, scenario_3d):
        clone = Scenario.from_dict(scenario_3d.to_dict())
        np.testing.assert_array_equal(clone.sensors, scenario_3d.sensors)
        np.testing.assert_array_equal(clone.source, scenario_3d.source)
        assert clone.sigma_db == scenario_3d.sigma_db
        assert clone.rounds == scenario_3d.rounds

    def test_dimension_mismatch_in_dict(self, scenario_2d):
        d = scenario_2d.to_dict()
        d["dimension"] = 3
        with pytest.raises(InvalidInputError):
            Scenario.from_dict(d)
        del d["source"]
        with pytest.raises(InvalidInputError, match="bad scenario dict"):
            Scenario.from_dict(d)

    @pytest.mark.parametrize("key", ["sensors", "source", "sigma_db"])
    def test_missing_required_key_is_named(self, scenario_2d, key):
        # The message was the bare KeyError, "bad scenario dict: 'source'".
        d = scenario_2d.to_dict()
        del d[key]
        with pytest.raises(InvalidInputError, match=f"^bad scenario dict: missing required key '{key}'$"):
            Scenario.from_dict(d)

    @pytest.mark.parametrize(
        "field, value", [("sigma_db", True), ("sigma_db", "4"), ("alpha", False), ("alpha", "2")]
    )
    def test_number_fields_in_dict_are_numbers(self, scenario_2d, field, value):
        # A bool was read as 1.0 or 0.0, and a numeric string as its number.
        with pytest.raises(InvalidInputError, match=f"{field} must be a finite number"):
            Scenario.from_dict({**scenario_2d.to_dict(), field: value})

    @pytest.mark.parametrize("field", ["sigma_db", "alpha"])
    @pytest.mark.parametrize("value", [True, "2", math.nan, 10**400])
    def test_number_fields_are_finite_numbers(self, field, value):
        # Scenario(..., sigma_db=True, alpha=True) kept True in both fields.
        base = dict(sensors=[[0.0, 1.0]], source=[5.0, 5.0], sigma_db=1.0)
        with pytest.raises(InvalidInputError, match=f"{field} must be a finite number"):
            Scenario(**{**base, field: value})
        sc = Scenario(**{**base, field: 2})
        assert getattr(sc, field) == 2.0 and type(getattr(sc, field)) is float

    def test_p0_in_dict_is_an_unknown_key(self, scenario_2d):
        # The transmit constant cancels from every equivalent measurement, so
        # a scenario has no field for it.
        with pytest.raises(InvalidInputError, match=r"unknown scenario keys \['p0'\]"):
            Scenario.from_dict({**scenario_2d.to_dict(), "p0": 1.0})

    @pytest.mark.parametrize("dimension", ["two", None, 2.5])
    def test_malformed_dimension_in_dict(self, scenario_2d, dimension):
        # 2.5 was read as 2, "two" and None escaped as ValueError/TypeError.
        d = {**scenario_2d.to_dict(), "dimension": dimension}
        with pytest.raises(InvalidInputError, match="dimension must be a whole number"):
            Scenario.from_dict(d)
        assert Scenario.from_dict({**d, "dimension": 2.0}).dimension == 2


# Arrays that are not one rectangular array of finite numbers, as (points,
# vector): ragged, of strings, objects or booleans, or holding a NaN. Booleans
# and numeric strings were read as the numbers 1, 0 and 2.
RAGGED_OR_NON_NUMERIC = {
    "ragged": ([[0.0, 0.0], [1.0], [2.0, 2.0]], [1.0, [1.0], 1.0]),
    "string": ([[0.0, 0.0], ["x", 1.0], [2.0, 2.0]], [1.0, "x", 1.0]),
    "none": ([[0.0, 0.0], [None, 1.0], [2.0, 2.0]], [1.0, None, 1.0]),
    "bool": ([[True, False], [False, True], [True, True]], [True, False, True]),
    "numeric-string": ([["0", "0"], ["1", "0"], ["2", "2"]], [True, False, "2"]),
    "nan": ([[0.0, 0.0], [math.nan, 1.0], [2.0, 2.0]], [1.0, math.nan, 1.0]),
}


class TestRaggedOrNonNumericArrays:
    """Every array the library takes is read in one place (model.floats) and
    checked finite: InvalidInputError, not numpy's ValueError."""

    @pytest.mark.parametrize("points, vector", RAGGED_OR_NON_NUMERIC.values(), ids=RAGGED_OR_NON_NUMERIC.keys())
    def test_measurement_set(self, points, vector):
        good = [[0.0, 0.0], [1.0, 0.0], [2.0, 2.0]]
        with pytest.raises(InvalidInputError, match="sensor_coords"):
            MeasurementSet(points, [1.0, 1.0, 1.0])
        with pytest.raises(InvalidInputError, match="y "):
            MeasurementSet(good, vector)
        with pytest.raises(InvalidInputError, match="raw_db"):
            MeasurementSet(good, [1.0, 1.0, 1.0], raw_db=vector)

    @pytest.mark.parametrize("points, vector", RAGGED_OR_NON_NUMERIC.values(), ids=RAGGED_OR_NON_NUMERIC.keys())
    def test_scenario(self, points, vector):
        with pytest.raises(InvalidInputError, match="sensors"):
            Scenario(sensors=points, source=[5.0, 5.0], sigma_db=1.0)
        with pytest.raises(InvalidInputError, match="source"):
            Scenario(sensors=[[0.0, 1.0]], source=vector[:2], sigma_db=1.0)

    @pytest.mark.parametrize("points, vector", RAGGED_OR_NON_NUMERIC.values(), ids=RAGGED_OR_NON_NUMERIC.keys())
    def test_localizability(self, points, vector):
        with pytest.raises(InvalidInputError, match="sensors"):
            localizability(points)


class TestMeasurementSet:
    def test_length_mismatch(self):
        sensors = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
        with pytest.raises(InvalidInputError):
            MeasurementSet(sensor_coords=sensors, y=[1.0, 2.0])
        with pytest.raises(InvalidInputError, match="raw_db must match y"):
            MeasurementSet(sensor_coords=sensors, y=[1.0, 2.0, 3.0], raw_db=[-40.0, -41.0])

    def test_too_few_measurements(self):
        with pytest.raises(InvalidInputError):
            MeasurementSet(sensor_coords=[[0.0, 0.0], [1.0, 0.0]], y=[1.0, 2.0])


class TestGenerateMeasurements:
    def test_zero_noise_is_exact(self, scenario_2d):
        ms = generate_measurements(scenario_2d.with_sigma(0.0), 3)
        np.testing.assert_allclose(ms.y, np.log10(scenario_2d.distances()))

    def test_identical_seed_identical_output(self, scenario_2d):
        a = generate_measurements(scenario_2d, 42)
        b = generate_measurements(scenario_2d, 42)
        np.testing.assert_array_equal(a.y, b.y)

    def test_counts_and_layout(self, scenario_2d):
        ms = generate_measurements(scenario_2d.with_rounds(3), 0)
        assert ms.n == 30
        np.testing.assert_array_equal(
            ms.sensor_coords, np.tile(scenario_2d.sensors, (3, 1))
        )

    def test_readings_follow_the_engine_formula(self, scenario_2d, scenario_3d):
        # y = log10(d) - w*eps, w = sigma/(10*alpha), from one standard-normal
        # draw (rounds, sensors) flattened round-major: the readings whose
        # per-sensor means model.draw_means gives the engine. No dB readings
        # are kept.
        cases = (scenario_2d.with_sigma(6.0).with_rounds(30), replace(scenario_3d, alpha=3.5, rounds=4))
        for sc, seed in itertools.product(cases, range(20)):
            ms = generate_measurements(sc, seed)
            eps = np.random.default_rng(seed).standard_normal((sc.rounds, sc.n_sensors))
            y = np.log10(sc.distances()) - sc.sigma_db / (10.0 * sc.alpha) * eps
            assert np.array_equal(ms.y, y.ravel())
            assert ms.raw_db is None

    def test_noise_std_monte_carlo(self, scenario_2d):
        # 10 sensors x 100000 rounds = 1e6 samples; omega std = sigma/(10a) = 0.1
        sc = scenario_2d.with_rounds(100_000)
        ms = generate_measurements(sc, 7)
        omega = ms.y - np.log10(np.tile(sc.distances(), sc.rounds))
        assert 0.099 <= omega.std() <= 0.101

    def test_exponential_model_identity(self, scenario_2d):
        # 10**(2y) must equal d^2 * 10**(2*omega) for every sample.
        sc = scenario_2d.with_rounds(50)
        ms = generate_measurements(sc, 11)
        d = np.tile(sc.distances(), sc.rounds)
        omega = ms.y - np.log10(d)
        np.testing.assert_allclose(
            10.0 ** (2 * ms.y), d**2 * 10.0 ** (2 * omega), rtol=1e-12
        )

    def test_trial_rng_substreams_are_reproducible(self):
        a = trial_rng(123, 4, 5).normal(size=8)
        b = trial_rng(123, 4, 5).normal(size=8)
        c = trial_rng(123, 4, 6).normal(size=8)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)


class TestTrialStreams:
    def test_a_seek_drops_what_earlier_draws_left_buffered(self):
        # One generator serves a whole sweep point: a seek after a layout's
        # uniform draw, after another trial's normals, or after a float32
        # draw that leaves half a word buffered gives the fresh stream.
        seek = trial_streams(31)
        for before in (
            lambda rng: rng.uniform(0.0, 100.0, size=(7, 2)),
            lambda rng: rng.standard_normal((3, 5)),
            lambda rng: rng.random(dtype=np.float32),
        ):
            for trial in range(1, 4):
                before(seek(2, trial - 1, 1))
                got = seek(2, trial, 1).standard_normal((3, 10))
                assert np.array_equal(got, trial_rng(31, 2, trial, 1).standard_normal((3, 10)))

    def test_paths_never_share_a_stream(self):
        # Paths of each length have their own key, so zero padding does not
        # make (5,) the same counter as (5, 0) or (5, 0, 0); the last word
        # parts a trial's layout stream from its noise stream.
        paths = [(5,), (5, 0), (5, 0, 0), (3, 4, 0), (3, 4, 1), (3, 5, 0), (4, 4, 0), (2**64 - 1,)]
        draws = {path: trial_rng(8, *path).standard_normal(16) for path in paths}
        assert len({d.tobytes() for d in draws.values()}) == len(paths)

    def test_the_master_seed_keys_every_stream(self):
        a = trial_rng(3, 0, 0, 1).standard_normal(16)
        b = trial_rng(4, 0, 0, 1).standard_normal(16)
        assert not np.array_equal(a, b)

    def test_normals_are_standard(self):
        # Mean and variance of 10**6 draws within 5 standard errors of (0, 1):
        # 1/sqrt(N) for the mean, sqrt(2/N) for the variance.
        n = 10**6
        eps = trial_rng(17, 0, 0, 1).standard_normal(n)
        assert abs(eps.mean()) < 5.0 / math.sqrt(n)
        assert abs(eps.var() - 1.0) < 5.0 * math.sqrt(2.0 / n)

    @pytest.mark.parametrize(
        "path",
        [(-1,), (0, -3, 1), (2**64,), (True,), (0, np.True_, 1), (1.5,), (0, 2.0, 1), ("1",), (), (1, 2, 3, 4)],
        ids=["negative", "negative-inner", "2**64", "bool", "numpy-bool", "fraction", "float", "string", "empty",
             "four-words"],
    )
    def test_bad_paths_raise_a_typed_error(self, path):
        with pytest.raises(InvalidInputError, match="trial stream path"):
            trial_rng(1, *path)

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "3"])
    def test_bad_master_seeds_raise_a_typed_error(self, seed):
        with pytest.raises(InvalidInputError, match="master_seed"):
            trial_streams(seed)

    def test_every_seek_is_a_fresh_philox_at_its_counter(self):
        # The oracle of a seek: a fresh Philox4x64 keyed by the path length's
        # SeedSequence, its counter [0, *path] zero-padded to four words.
        # Partial draws, half-word float32 draws and seeks of other paths
        # come between the seeks, so a stale counter word or buffer would show.
        seed = 41
        seek = trial_streams(seed)

        def fresh(path):
            key = np.random.SeedSequence(seed, spawn_key=(len(path),)).generate_state(2, np.uint64)
            counter = np.array([0, *(int(word) for word in path)] + [0] * (3 - len(path)), dtype=np.uint64)
            return np.random.Generator(np.random.Philox(key=key, counter=counter))

        top = 2**64 - 1
        paths = [
            (7,), (top,), (np.uint64(3),), (0,),
            (1, 2), (top, top), (np.int32(5), 0), (0, np.uint64(top)),
            (0, 0, 0), (4, 9, 1), (top, 0, top), (np.int64(4), np.uint64(9), 0), (0, top, 0),
        ]
        for draws in (1, 3, 8):
            for path in paths:
                rng, want = seek(*path), fresh(path)
                assert np.array_equal(rng.standard_normal(draws), want.standard_normal(draws)), path
                assert rng.random(dtype=np.float32) == want.random(dtype=np.float32), path
                assert np.array_equal(rng.integers(0, 2**64, size=draws, dtype=np.uint64),
                                      want.integers(0, 2**64, size=draws, dtype=np.uint64)), path

    def test_numpy_integer_words_give_the_int_stream(self):
        a = trial_rng(np.int64(6), np.uint64(2**64 - 1), np.int32(7)).standard_normal(4)
        assert np.array_equal(a, trial_rng(6, 2**64 - 1, 7).standard_normal(4))


class TestDrawMeans:
    def test_one_round_keeps_the_bits_of_the_general_sums(self):
        # At T = 1 the sums over the rounds are eps itself: the means equal
        # the general formula's, ones @ eps with the multiply and divide by T.
        seek = trial_streams(12)
        sq = np.array([[4.0e3, 2.5e3, 9.0, 1.0e4]])
        for noise in (NoiseModel(0.0), NoiseModel(2.0), NoiseModel(6.0)):
            w = noise.omega_std
            eps, ybar, zbar = np.empty((13, 1, 4)), np.empty((13, 4)), np.empty((13, 4))
            draw_means(seek, ((0, t, 1) for t in range(13)), eps, sq, noise, ybar, zbar)
            drawn = np.array([trial_rng(12, 0, t, 1).standard_normal((1, 4)) for t in range(13)])
            ones = np.ones(1)
            want_y = ones @ drawn
            want_y *= -w / 1
            want_y += np.log10(np.sqrt(sq))
            drawn *= -2.0 * LN10 * w
            want_z = ones @ np.exp(drawn)
            want_z /= 1
            want_z *= sq
            assert np.array_equal(ybar, want_y) and np.array_equal(zbar, want_z)
