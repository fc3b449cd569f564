import itertools
import math
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from conftest import COLLINEAR_2D, SQUARE_CORNERS, replay_against_engine, replay_scenario
from rssloc import bench, estimators, inference, model
from rssloc.bench import (
    ESTIMATOR_IDS,
    ExperimentConfig,
    RandomScenarioFamily,
    SweepPoint,
    get_scenario,
    run_experiment,
    scenario_registry,
    sweep_point,
    time_scaling,
)
from rssloc.errors import ConfigError, DegenerateGeometryError, InvalidInputError, NumericError, RssLocError
from rssloc.estimators import estimate_stack, ls_known_variance, two_step
from rssloc.inference import fisher_information
from rssloc.model import (
    LN10,
    NoiseModel,
    Scenario,
    draw_means,
    generate_measurements,
    sq_norm,
    trial_rng,
    trial_streams,
)


def _cfg(scenario, **kwargs):
    defaults = dict(
        scenario=scenario,
        estimators=("ls", "ls+gn"),
        sweep_param="rounds",
        sweep_values=(3,),
        trials=20,
        master_seed=9,
        measure_time=False,
    )
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


class TestScenarioRegistry:
    def test_2d_fixed_layout(self, scenario_2d):
        assert scenario_2d.n_sensors == 10
        np.testing.assert_array_equal(scenario_2d.source, [70.0, 30.0])
        np.testing.assert_array_equal(scenario_2d.sensors[0], [0.0, 20.0])

    def test_3d_fixed_layout(self, scenario_3d):
        assert scenario_3d.n_sensors == 10
        np.testing.assert_array_equal(scenario_3d.source, [70.0, 30.0, 10.0])
        np.testing.assert_array_equal(scenario_3d.sensors[2], [50.0, 50.0, -50.0])

    def test_random_family_support(self, random_family):
        sc = random_family.sample(100, np.random.default_rng(0))
        assert sc.n_sensors == 100
        assert np.all(sc.sensors >= 0.0) and np.all(sc.sensors <= 100.0)
        np.testing.assert_array_equal(sc.source, [120.0, 20.0])

    @pytest.mark.parametrize(
        "source, low, high",
        [((120.0, 20.0), 0.0, 100.0), ((120.0, 20.0), -250.5, 37.25), ((5.0, 5.0, 5.0), -3.0, -3.0),
         ((120.0, 20.0), 10.0, 10.0)],
    )
    def test_stacked_layouts_equal_per_trial_uniform_draws(self, source, low, high):
        # One random(out=rows) per seek and one scale and shift of the whole
        # stack give each layout the bits of Generator.uniform(low, high).
        family = RandomScenarioFamily(source=source, low=low, high=high)
        seek = trial_streams(4)
        stack = family.layouts((seek(2, t, 0) for t in range(7)), np.empty((7, 50, len(source))))
        for t in range(7):
            want = trial_rng(4, 2, t, 0).uniform(low, high, (50, len(source)))
            assert np.array_equal(stack[t], want)
        assert np.array_equal(family.sample(50, trial_rng(4, 2, 3, 0)).sensors, stack[3])

    @pytest.mark.parametrize(
        "kwargs",
        [dict(low=5.0, high=1.0), dict(low=math.nan), dict(high=math.inf), dict(low=-1e308, high=1e308),
         dict(low=True), dict(high="100"), dict(high=10**400), dict(source=(1.0,)),
         dict(source=(1.0, 2.0, 3.0, 4.0)), dict(source=(math.nan, 0.0)), dict(source=("1", "2")),
         dict(source=[[1.0, 2.0]]), dict(source=[[1.0], [2.0, 3.0]])],
    )
    def test_bad_box_or_source_raises_when_built(self, kwargs):
        with pytest.raises(InvalidInputError):
            RandomScenarioFamily(**kwargs)

    def test_unknown_id(self):
        with pytest.raises(ConfigError):
            get_scenario("4d-fixed")

    def test_registry_keys(self):
        assert set(scenario_registry()) == {"2d-fixed", "2d-random", "3d-fixed"}

    @pytest.mark.parametrize("scenario_id", ["2d-fixed", "3d-fixed", "2d-random"])
    def test_get_scenario_builds_only_the_family_it_names(self, monkeypatch, scenario_id):
        # It built all three families, and a bad sigma_db for 2d-random was
        # reported by the unused 2d-fixed Scenario.
        built = []
        for family in (Scenario, RandomScenarioFamily):
            def post_init(self, _parent=family.__post_init__):
                built.append(type(self))
                _parent(self)
            monkeypatch.setattr(family, "__post_init__", post_init)
        sc = get_scenario(scenario_id, sigma_db=3.0)
        assert built == [type(sc)] and sc.sigma_db == 3.0

    def test_unknown_id_is_reported_before_any_family_is_built(self):
        with pytest.raises(ConfigError, match="unknown scenario id 'nope'"):
            get_scenario("nope", sigma_db=-1.0)

    @pytest.mark.parametrize(
        "kwargs, message",
        [(dict(sigma_db=-1.0), "sigma_db must be nonnegative"), (dict(alpha=0.0), "alpha must be positive"),
         (dict(alpha=-2.0), "alpha must be positive")],
    )
    def test_random_family_checks_its_noise_as_noise_model_does(self, kwargs, message):
        # Neither sign was checked: the family built, and only a sweep
        # point's NoiseModel would have refused it.
        with pytest.raises(InvalidInputError, match=message):
            RandomScenarioFamily(**kwargs)


class TestExperimentConfig:
    def test_validation(self, scenario_2d, random_family):
        with pytest.raises(ConfigError):
            _cfg(scenario_2d, estimators=())
        with pytest.raises(ConfigError):
            _cfg(scenario_2d, estimators=("nope",))
        with pytest.raises(ConfigError):
            _cfg(scenario_2d, sweep_values=())
        with pytest.raises(ConfigError):
            _cfg(scenario_2d, trials=0)
        with pytest.raises(ConfigError):
            _cfg(scenario_2d, sweep_param="n_random")
        with pytest.raises(ConfigError):
            _cfg(random_family, sweep_param="rounds")

    def test_counts_are_whole_numbers(self, scenario_2d, random_family):
        # Integral floats are stored as ints; fractional counts are rejected
        # instead of being truncated under their fractional label.
        cfg = _cfg(scenario_2d, sweep_values=(2.0, 30), trials=5.0)
        assert cfg.sweep_values == (2, 30) and cfg.trials == 5
        assert all(type(v) is int for v in cfg.sweep_values + (cfg.trials,))
        for kwargs in (
            dict(scenario=scenario_2d, sweep_values=(2.5,)),
            dict(scenario=scenario_2d, trials=2.7),
            dict(scenario=random_family, sweep_param="n_random", sweep_values=(10.5,)),
            dict(scenario=random_family, sweep_param="n_random", sweep_values=(10, True)),
        ):
            with pytest.raises(ConfigError):
                _cfg(**kwargs)

    @pytest.mark.parametrize(
        "field",
        [
            {"sweep": {"rounds": "ab"}},
            {"sweep": {"rounds": [3, None]}},
            {"sweep": {"sigma": [None]}},
            {"sweep": {"sigma": [2.0, "1"]}},
            {"sweep": {"sigma": [float("nan")]}},
            {"trials": "5"},
            {"fixed_geometry": "false"},
            {"measure_time": "no"},
            {"measure_time": 0},
            {"sweep": {"round": [3]}},
            {"sweep": {"rounds": [3], "sigma": [2.0]}},
            {"sweep": None},
        ],
    )
    def test_from_dict_rejects_mistyped_fields(self, field):
        d = {"scenario": "2d-fixed", "sweep": {"rounds": [3]}, "trials": 5, **field}
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(d, seed=1)

    @pytest.mark.parametrize(
        "flags", [{"fixed_geometry": "no"}, {"fixed_geometry": 1}, {"measure_time": 0}, {"measure_time": None}]
    )
    def test_flags_are_booleans(self, scenario_2d, flags):
        # A config built in code took any truthy flag: "no" pinned the
        # geometry, and 0 dropped the timing column.
        with pytest.raises(ConfigError, match="fixed_geometry and measure_time must be true or false"):
            _cfg(scenario_2d, **flags)

    @pytest.mark.parametrize("field", [{"sigma_db": True}, {"sigma_db": "4"}, {"alpha": False}, {"alpha": "2"}])
    def test_from_dict_rejects_non_numeric_signal_fields(self, field):
        # A bool was read as 1.0 or 0.0, and a numeric string as its number.
        d = {"scenario": "2d-fixed", "sweep": {"rounds": [3]}, "trials": 5, **field}
        with pytest.raises(ConfigError, match=f"{next(iter(field))} must be a finite number"):
            ExperimentConfig.from_dict(d, seed=1)

    def test_from_dict(self):
        cfg = ExperimentConfig.from_dict(
            {
                "scenario": "2d-fixed",
                "sweep": {"rounds": [3, 10]},
                "trials": 5,
                "estimators": ["ls+gn"],
            },
            seed=77,
        )
        assert cfg.master_seed == 77
        assert cfg.sweep_values == (3, 10)
        assert isinstance(cfg.scenario, Scenario)

    @pytest.mark.parametrize("seed", [-1, 1.7, True, "3", None])
    def test_master_seed_is_a_whole_number_from_zero(self, seed):
        d = {"scenario": "2d-fixed", "sweep": {"rounds": [3]}, "trials": 5, "master_seed": seed}
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(d)
        if seed is not None:
            with pytest.raises(ConfigError):
                ExperimentConfig.from_dict(d, seed=seed)
        with pytest.raises(ConfigError):
            time_scaling([10], runs=1, master_seed=seed)
        assert ExperimentConfig.from_dict({**d, "master_seed": 0}).master_seed == 0
        assert ExperimentConfig.from_dict({**d, "master_seed": 7.0}).master_seed == 7

    @pytest.mark.parametrize("estimators", ["ls", ["ls", "ls"], ("ls+gn", "ml", "ls+gn"), {"ls": 1}])
    def test_estimators_are_a_list_of_distinct_ids(self, scenario_2d, estimators):
        with pytest.raises(ConfigError, match="estimators must"):
            _cfg(scenario_2d, estimators=estimators)
        d = {"scenario": "2d-fixed", "sweep": {"rounds": [3]}, "estimators": estimators}
        with pytest.raises(ConfigError, match="estimators must"):
            ExperimentConfig.from_dict(d, seed=1)

    def test_from_dict_requires_seed(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(
                {"scenario": "2d-fixed", "sweep": {"rounds": [3]}}
            )

    def test_all_estimator_ids_run(self, scenario_2d):
        cfg = _cfg(scenario_2d, estimators=ESTIMATOR_IDS, trials=3)
        report = run_experiment(cfg)
        assert {row.estimator for row in report.rows} == set(ESTIMATOR_IDS)
        assert all(row.trials_ok == 3 for row in report.rows)


class TestRunExperiment:
    def test_zero_noise_zero_error(self, scenario_2d):
        cfg = _cfg(scenario_2d.with_sigma(0.0), estimators=("ls", "ls+gn", "ls-u", "ls-u+gn"), sweep_values=(3, 30),
                   trials=5)
        for row in run_experiment(cfg).rows:
            assert row.bias_m < 1e-9
            assert row.rmse_m < 1e-9
            assert row.rcrlb_m == 0.0

    def test_single_trial_rmse_is_error_norm(self, scenario_2d):
        cfg = _cfg(scenario_2d, estimators=("ls",), trials=1, master_seed=4)
        row = run_experiment(cfg).rows[0]
        # Reproduce the single trial through the library with the same substream.
        sc = scenario_2d.with_rounds(3)
        ms = generate_measurements(sc, trial_rng(4, 0, 0, 1))
        p_hat = ls_known_variance(ms, NoiseModel(2.0, 2.0).bias_b).p_hat
        assert row.rmse_m == pytest.approx(np.linalg.norm(p_hat - sc.source), rel=1e-12)
        assert row.bias_m == pytest.approx(np.sum(np.abs(p_hat - sc.source)), rel=1e-12)

    def test_rcrlb_column_matches_inference(self, scenario_2d):
        cfg = _cfg(scenario_2d, sweep_values=(3, 30), trials=2)
        rows = run_experiment(cfg).rows
        for row in rows:
            expected = fisher_information(
                scenario_2d.with_rounds(int(row.sweep_value))
            ).rcrlb
            assert row.rcrlb_m == pytest.approx(expected, rel=1e-12)

    def test_vanishing_sigma_raises_numeric(self, scenario_2d):
        # The point's RCRLB raised ZeroDivisionError: 1e-200 squared is 0.
        cfg = ExperimentConfig.from_dict({"scenario": "2d-fixed", "sigma_db": 1e-200, "sweep": {"rounds": [3]}}, seed=1)
        with pytest.raises(NumericError, match="sigma_db=1e-200, alpha=2.0"):
            run_experiment(cfg)

    @pytest.mark.parametrize(
        "sweep", [dict(sweep_values=(1, 3, 30)), dict(sweep_param="sigma", sweep_values=(0, 2, 6.0))], ids=["rounds", "sigma"]
    )
    def test_a_fixed_sweep_point_builds_no_scenario(self, monkeypatch, scenario_2d, sweep):
        # Each point rebuilt and rechecked the Scenario (with_rounds or
        # with_sigma) to read its rounds and sigma_db; the report is the same.
        cfg = _cfg(scenario_2d, trials=4, **sweep)
        want = run_experiment(cfg)
        built = []
        monkeypatch.setattr(Scenario, "__post_init__", lambda self: built.append(self))
        assert run_experiment(cfg) == want
        assert built == []

    def test_overflowing_random_layouts_raise_numeric(self):
        # Their squared distances overflowed with a RuntimeWarning, and the
        # point's RCRLB reported a singular Fisher matrix.
        cfg = _cfg(RandomScenarioFamily(low=-1e200, high=1e200), sweep_param="n_random", sweep_values=(10,), trials=3)
        with pytest.raises(NumericError, match="squared sensor-source distance overflows"):
            run_experiment(cfg)

    def test_random_geometry_rcrlb_is_the_root_of_the_mean_crlb(self):
        # The RMSE pools trials of different layouts, so its bound is
        # sqrt(mean tr CRLB) over them, which mean sqrt(tr CRLB) understates.
        cfg = _cfg(RandomScenarioFamily(sigma_db=4.0), sweep_param="n_random", sweep_values=(10,), trials=200)
        row = run_experiment(cfg).rows[0]
        crlbs = [fisher_information(replay_scenario(cfg, 0, trial)).crlb for trial in range(cfg.trials)]
        assert row.rcrlb_m == pytest.approx(math.sqrt(np.mean(crlbs)), rel=1e-12)
        assert row.rcrlb_m > 1.01 * np.mean(np.sqrt(crlbs))

    def test_report_scales_with_the_layout(self, scenario_2d):
        # The ring and its source at x1 and x1000 with the same seed: every
        # estimator's RMSE, bias and RCRLB scale by 1000, and as many trials fail.
        metres, km = [
            run_experiment(
                _cfg(
                    Scenario(sensors=scale * scenario_2d.sensors, source=scale * scenario_2d.source, sigma_db=6.0),
                    estimators=ESTIMATOR_IDS, sweep_values=(1, 3), trials=200, master_seed=5,
                )
            ).rows
            for scale in (1.0, 1000.0)
        ]
        assert len(metres) == len(km) == 10
        for a, b in zip(metres, km):
            assert (a.estimator, a.sweep_value, a.trials_failed) == (b.estimator, b.sweep_value, b.trials_failed)
            for key in ("rmse_m", "bias_m", "rcrlb_m"):
                assert abs(getattr(b, key) - 1000 * getattr(a, key)) <= 1e-9 * 1000 * getattr(a, key), key

    def test_failed_trials_are_counted(self):
        sc = Scenario(sensors=COLLINEAR_2D, source=[5.0, 0.0], sigma_db=2.0)
        cfg = _cfg(sc, estimators=("ls",), trials=7)
        row = run_experiment(cfg).rows[0]
        assert row.trials_failed == 7
        assert row.trials_ok == 0
        assert math.isnan(row.rmse_m)

    def test_bias_bounded_by_m_times_rmse(self, scenario_2d):
        cfg = _cfg(scenario_2d, sweep_values=(3, 30), trials=50, master_seed=3)
        for row in run_experiment(cfg).rows:
            assert row.bias_m <= scenario_2d.dimension * row.rmse_m + 1e-12

    def test_sigma_sweep(self, scenario_2d):
        cfg = _cfg(
            scenario_2d.with_rounds(10),
            sweep_param="sigma",
            sweep_values=(1.0, 2.0),
            trials=5,
        )
        rows = run_experiment(cfg).rows
        by_sigma = {row.sweep_value: row.rcrlb_m for row in rows if row.estimator == "ls"}
        assert by_sigma[2.0] == pytest.approx(2 * by_sigma[1.0], rel=1e-12)

    def test_random_sweep_redraws_geometry(self, random_family):
        cfg = _cfg(
            random_family,
            sweep_param="n_random",
            sweep_values=(100,),
            trials=10,
            estimators=("ls+gn",),
        )
        fresh = run_experiment(cfg)
        pinned = run_experiment(
            _cfg(
                random_family,
                sweep_param="n_random",
                sweep_values=(100,),
                trials=10,
                estimators=("ls+gn",),
                fixed_geometry=True,
            )
        )
        assert fresh.rows[0].rmse_m != pinned.rows[0].rmse_m

    def test_failed_refinement_keeps_first_stage(self, scenario_2d):
        # Trial 0 is noisy data from the true source; trial 1 noise-free data
        # from a point 1e-10 m off a sensor, where the GN step raises
        # SingularPointError.
        points = [scenario_2d.source, scenario_2d.sensors[4] + [1e-10, 0.0]]
        d = np.array([np.linalg.norm(scenario_2d.sensors - p, axis=1) for p in points])
        y = np.log10(d)
        y[0] += np.random.default_rng(2).normal(0.0, 0.05, size=d.shape[1])
        point = SweepPoint(
            sensors=scenario_2d.sensors[None],
            source=scenario_2d.source,
            ybar=y,
            zbar=np.power(10.0, 2.0 * y),
            bias_b=1.0,
            rcrlb=0.0,
            n=scenario_2d.n_sensors,
        )
        args = (point.sensors, point.ybar, point.zbar, point.bias_b)
        first = estimate_stack(("ls",), *args)[0].p_hat
        (refined,) = estimate_stack(("ls+gn",), *args)
        assert not refined.failure.any()
        assert refined.degraded.tolist() == [False, True]
        assert refined.iterations.tolist() == [1, 0]
        assert np.array_equal(refined.p_hat[1], first[1])
        assert np.linalg.norm(refined.p_hat[0] - first[0]) > 1e-3

    def test_timing_column(self, scenario_2d):
        cfg = _cfg(scenario_2d, trials=3, measure_time=True)
        for row in run_experiment(cfg).rows:
            assert row.mean_time_s is not None and row.mean_time_s > 0.0


class TestDeterminism:
    RANDOM = dict(scenario=RandomScenarioFamily(sigma_db=4.0), sweep_param="n_random")
    CASES = {
        "2d-fixed-rounds": dict(scenario=scenario_registry()["2d-fixed"], sweep_values=(3, 10), trials=30),
        "2d-random-n10-n100": dict(RANDOM, sweep_values=(10, 100), estimators=("ls+gn", "ls-u+gn", "ml"), trials=50,
                                   master_seed=3),
        # The 3-D Gauss-Newton path: 3 x 3 normal matrices.
        "3d-fixed-rounds": dict(scenario=scenario_registry()["3d-fixed"], sweep_values=(1, 3, 30),
                                estimators=("ls+gn", "ml"), trials=50, master_seed=5),
        # ml's Newton steps halved by its one rule.
        "2d-fixed-sigma6": dict(scenario=scenario_registry(sigma_db=6.0)["2d-fixed"], sweep_values=(1, 10),
                                estimators=("ls+gn", "ml"), trials=200, master_seed=7),
        # 70 trials at n = 1000: estimator blocks of 32, 32 and a ragged 6.
        "2d-random-n1000-ragged": dict(RANDOM, sweep_values=(1000,), estimators=ESTIMATOR_IDS, trials=70,
                                       master_seed=3),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_byte_identical_across_runs(self, case):
        # Rows run value-major in the config's estimator order, each accounts
        # for all of its trials, and no ml trial fails. Another master seed
        # keys other trial streams: every row's RMSE moves.
        cfg = _cfg(**self.CASES[case])
        report = run_experiment(cfg)
        assert report.to_csv() == run_experiment(cfg).to_csv()
        assert report.to_json() == run_experiment(cfg).to_json()
        assert [(row.estimator, row.sweep_value) for row in report.rows] == [
            (est_id, value) for value in cfg.sweep_values for est_id in cfg.estimators
        ]
        for row in report.rows:
            assert row.trials_ok + row.trials_failed == cfg.trials
            assert row.estimator != "ml" or row.trials_failed == 0
        other = run_experiment(replace(cfg, master_seed=cfg.master_seed + 1)).rows
        assert all(a.rmse_m != b.rmse_m for a, b in zip(report.rows, other))

    @pytest.mark.parametrize(
        "case",
        [
            "2d-fixed-rounds", "3d-fixed-sigma", "2d-random-fresh", "2d-random-pinned",
            "collinear-rounds", "concyclic-rounds",
        ],
    )
    def test_engine_matches_per_call_replay(self, case, scenario_2d, scenario_3d):
        configs = {
            "2d-fixed-rounds": dict(scenario=scenario_2d, sweep_values=(1, 3, 10)),
            "3d-fixed-sigma": dict(
                scenario=scenario_3d.with_rounds(2),
                sweep_param="sigma",
                sweep_values=(0.0, 1.0, 6.0),
            ),
            "2d-random-fresh": dict(
                scenario=RandomScenarioFamily(sigma_db=4.0),
                sweep_param="n_random",
                sweep_values=(10, 30),
            ),
            "2d-random-pinned": dict(
                scenario=RandomScenarioFamily(sigma_db=4.0),
                sweep_param="n_random",
                sweep_values=(10, 30),
                fixed_geometry=True,
            ),
            # Every LS design is singular: all five estimators fail.
            "collinear-rounds": dict(
                scenario=Scenario(sensors=COLLINEAR_2D, source=[5.0, 1.0], sigma_db=2.0),
                sweep_values=(1, 4),
            ),
            # Only the unknown-variance design is singular.
            "concyclic-rounds": dict(
                scenario=Scenario(sensors=10 * SQUARE_CORNERS, source=[3.0, 4.0], sigma_db=2.0),
                sweep_values=(1, 4),
            ),
        }
        cfg = _cfg(estimators=ESTIMATOR_IDS, trials=40, master_seed=17, **configs[case])
        engine_failed, replay_failed, worst = replay_against_engine(cfg)
        assert engine_failed == replay_failed
        assert worst <= 1e-12

    def test_json_mirrors_csv_numbers(self, scenario_2d):
        import json

        cfg = _cfg(scenario_2d, trials=5)
        report = run_experiment(cfg)
        payload = json.loads(report.to_json())
        lines = report.to_csv().strip().split("\n")[1:]
        for row_json, line in zip(payload, lines):
            fields = line.split(",")
            assert float(fields[7]) == row_json["rmse_m"]
            assert int(fields[4]) == row_json["trials_ok"]


def _block_draw_configs(scenario_2d, scenario_3d):
    random = dict(scenario=RandomScenarioFamily(sigma_db=4.0), sweep_param="n_random", sweep_values=(5, 30))
    return {
        "2d-fixed-rounds": dict(scenario=scenario_2d, sweep_values=(1, 3, 30)),
        "3d-fixed-rounds": dict(scenario=scenario_3d, sweep_values=(1, 3, 30)),
        "2d-fixed-sigma": dict(scenario=scenario_2d.with_rounds(3), sweep_param="sigma", sweep_values=(0.0, 2.0, 6.0)),
        "2d-random-fresh": random,
        "2d-random-pinned": dict(random, fixed_geometry=True),
    }


def _per_trial_point(cfg, sweep_index):
    """One sweep point the way the engine drew it before block draws: one
    generate_measurements call and one Fisher computation per trial, each
    trial's readings checked bit for bit against log10(d) - w*eps, with
    w = sigma/(10*alpha) and eps a plain standard-normal draw of the same
    generator."""
    layouts, crlbs, ybar, zbar = [], [], [], []
    for trial in range(cfg.trials):
        sc = replay_scenario(cfg, sweep_index, trial)
        ms = generate_measurements(sc, trial_rng(cfg.master_seed, sweep_index, trial, 1))
        eps = trial_rng(cfg.master_seed, sweep_index, trial, 1).standard_normal((sc.rounds, sc.n_sensors))
        y = np.log10(sc.distances()) - sc.sigma_db / (10.0 * sc.alpha) * eps
        assert np.array_equal(ms.y, y.ravel())
        ybar.append(y.mean(axis=0))
        zbar.append(np.power(10.0, 2.0 * y).mean(axis=0))
        layouts.append(sc.sensors)
        if sc.sigma_db > 0:
            crlbs.append(fisher_information(sc).crlb)
    shared = cfg.sweep_param != "n_random" or cfg.fixed_geometry
    return SweepPoint(
        sensors=np.array(layouts[:1] if shared else layouts),
        source=sc.source,
        ybar=np.array(ybar),
        zbar=np.array(zbar),
        bias_b=NoiseModel(sc.sigma_db, sc.alpha).bias_b,
        rcrlb=float(np.sqrt(np.mean(crlbs[:1] if shared else crlbs))) if crlbs else 0.0,
        n=sc.n_measurements,
    )


def _assert_same_point(point, ref, means_rtol=0.0):
    """Equal points: every field bit for bit, or with ``means_rtol`` the means
    ybar and zbar within that relative tolerance."""
    for name in ("sensors", "source", "ybar", "zbar"):
        a, b = getattr(point, name), getattr(ref, name)
        assert a.shape == b.shape, name
        if means_rtol and name in ("ybar", "zbar"):
            np.testing.assert_allclose(a, b, rtol=means_rtol, atol=0.0, err_msg=name)
        else:
            assert np.array_equal(a, b), name
    assert (point.bias_b, point.rcrlb, point.n) == (ref.bias_b, ref.rcrlb, ref.n)


class TestBlockDraw:
    CASES = ("2d-fixed-rounds", "3d-fixed-rounds", "2d-fixed-sigma", "2d-random-fresh", "2d-random-pinned")

    @pytest.mark.parametrize("case", CASES)
    def test_bit_identical_to_per_trial_draws(self, case, scenario_2d, scenario_3d):
        # The layouts, bias, RCRLB and n are the per-trial oracle's bit for
        # bit. The engine scales the sum of the standard normals, the oracle
        # averages the readings y, so the means round differently: within
        # 1e-13 relative.
        cfg = _cfg(trials=30, master_seed=23, **_block_draw_configs(scenario_2d, scenario_3d)[case])
        for sweep_index in range(len(cfg.sweep_values)):
            _assert_same_point(sweep_point(cfg, sweep_index), _per_trial_point(cfg, sweep_index), means_rtol=1e-13)

    @pytest.mark.parametrize("case", ["2d-fixed-sigma", "2d-random-fresh"])
    def test_noise_free_means_are_exact(self, case, scenario_2d, scenario_3d):
        cfg = _cfg(trials=5, **_block_draw_configs(scenario_2d, scenario_3d)[case])
        if case == "2d-random-fresh":
            cfg = replace(cfg, scenario=RandomScenarioFamily(sigma_db=0.0))
        point = sweep_point(cfg, 0)
        sq = sq_norm(point.sensors - point.source)
        assert point.bias_b == 1.0
        assert np.array_equal(point.ybar, np.broadcast_to(np.log10(np.sqrt(sq)), point.ybar.shape))
        assert np.array_equal(point.zbar, np.broadcast_to(sq, point.zbar.shape))

    @pytest.mark.parametrize(
        "scenario, sweep",
        [
            (scenario_registry()["2d-fixed"], dict(sweep_param="sigma", sweep_values=(200.0,))),
            (replace(scenario_registry()["2d-fixed"], alpha=0.05), dict(sweep_param="sigma", sweep_values=(6.0,))),
            (RandomScenarioFamily(sigma_db=200.0), dict(sweep_param="n_random", sweep_values=(10,))),
        ],
        ids=["sigma-200", "alpha-0.05", "random-sigma-200"],
    )
    def test_overflowing_bias_raises_before_any_draw(self, scenario, sweep, monkeypatch):
        calls = []

        def recording_streams(master_seed):
            seek = trial_streams(master_seed)
            return lambda *path: calls.append(path) or seek(*path)

        monkeypatch.setattr(bench, "trial_streams", recording_streams)
        with pytest.raises(NumericError, match="overflows"):
            sweep_point(_cfg(scenario, **sweep), 0)
        assert calls == []

    @pytest.mark.parametrize("case", ["2d-fixed-rounds", "2d-random-fresh"])
    def test_chunking_leaves_the_point_unchanged(self, case, scenario_2d, scenario_3d, monkeypatch):
        cfg = _cfg(trials=40, master_seed=5, **_block_draw_configs(scenario_2d, scenario_3d)[case])
        whole = sweep_point(cfg, 1)
        k, rounds = whole.sensors.shape[1], whole.n // whole.sensors.shape[1]
        # Blocks of 7 trials: five full blocks and a ragged one of 5; then
        # blocks of one trial, below the size of a single trial.
        for block in (7 * rounds * k, 1):
            monkeypatch.setattr(bench, "BLOCK_DOUBLES", block)
            _assert_same_point(sweep_point(cfg, 1), whole)

    @pytest.mark.parametrize("case", ["2d-fixed-rounds", "2d-random-fresh", "2d-random-pinned"])
    def test_a_trial_alone_equals_it_inside_any_block(self, case, scenario_2d, scenario_3d):
        # One trial drawn through trial_rng alone, in a block of its own,
        # gives the engine's layout and means bit for bit: the engine's one
        # generator per point seeks each trial after drawing the one before
        # it, and each noise stream after the point's uniform layout draws.
        cfg = _cfg(trials=40, master_seed=5, **_block_draw_configs(scenario_2d, scenario_3d)[case])
        for sweep_index in range(len(cfg.sweep_values)):
            point = sweep_point(cfg, sweep_index)
            k, rounds = point.sensors.shape[1], point.n // point.sensors.shape[1]
            for trial in (0, 1, 17, 39):
                sc = replay_scenario(cfg, sweep_index, trial)
                assert np.array_equal(sc.sensors, point.sensors[0 if len(point.sensors) == 1 else trial])
                ybar, zbar = np.empty((1, k)), np.empty((1, k))
                draw_means(
                    lambda *path: trial_rng(cfg.master_seed, *path),
                    [(sweep_index, trial, 1)],
                    np.empty((1, rounds, k)),
                    sq_norm(sc.sensors - sc.source)[None],
                    sc.noise,
                    ybar,
                    zbar,
                )
                assert np.array_equal(ybar[0], point.ybar[trial]) and np.array_equal(zbar[0], point.zbar[trial])

    def test_the_stream_key_is_derived_once_per_point(self, scenario_2d, monkeypatch):
        # No per-trial hashing: one SeedSequence per sweep point (all its
        # paths have three words), time-scaling's n values included.
        seed_sequences = mock.Mock(wraps=np.random.SeedSequence)
        monkeypatch.setattr(np.random, "SeedSequence", seed_sequences)
        random = _cfg(RandomScenarioFamily(sigma_db=4.0), sweep_param="n_random", sweep_values=(5, 30), trials=50)
        for cfg in (random, _cfg(scenario_2d, sweep_values=(1, 3, 30), trials=50)):
            seed_sequences.reset_mock()
            run_experiment(cfg)
            assert seed_sequences.call_count == len(cfg.sweep_values)
            assert all(call.args == (cfg.master_seed,) and call.kwargs == {"spawn_key": (3,)}
                       for call in seed_sequences.call_args_list)
        seed_sequences.reset_mock()
        time_scaling([10, 20], runs=5, master_seed=2)
        assert seed_sequences.call_count == 2

    def test_peak_memory_is_capped(self, scenario_2d):
        # The whole point would be 2000 x 400 x 10 doubles, 64 MB per array.
        cfg = _cfg(scenario_2d, sweep_values=(400,), trials=2000)
        tracemalloc.start()
        try:
            point = sweep_point(cfg, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert point.ybar.shape == (2000, 10)
        assert peak <= 16e6

    def test_too_few_measurements(self):
        cfg = _cfg(RandomScenarioFamily(), sweep_param="n_random", sweep_values=(2,))
        with pytest.raises(InvalidInputError, match="m\\+1"):
            sweep_point(cfg, 0)

    def test_sensor_on_the_source(self):
        family = RandomScenarioFamily(source=(50.0, 50.0), low=50.0, high=50.0)
        cfg = _cfg(family, sweep_param="n_random", sweep_values=(5,))
        with pytest.raises(DegenerateGeometryError, match="coincides"):
            sweep_point(cfg, 0)

    @pytest.mark.parametrize(
        "scenario, sweep",
        [
            (Scenario(sensors=COLLINEAR_2D, source=[5.0, 5.0], sigma_db=2.0), dict(sweep_values=(3,))),
            # Every sensor of every layout at (10, 10): all on one line through the source.
            (RandomScenarioFamily(low=10.0, high=10.0), dict(sweep_param="n_random", sweep_values=(5,))),
        ],
        ids=["fixed", "random"],
    )
    def test_collinear_through_source_has_singular_fisher(self, scenario, sweep):
        with pytest.raises(DegenerateGeometryError, match="Fisher"):
            sweep_point(_cfg(scenario, **sweep), 0)


class TestEstimatorBlocks:
    """The estimators and the RCRLB of a sweep point run in blocks of whole
    trials of about BLOCK_DOUBLES doubles of the largest design, k x (m+2)."""

    RANDOM = dict(scenario=RandomScenarioFamily(sigma_db=4.0), sweep_param="n_random", sweep_values=(100,))
    CASES = {
        "2d-random-fresh": (RANDOM, 100),
        "2d-random-pinned": (dict(RANDOM, fixed_geometry=True), 100),
        "2d-fixed": (dict(scenario=scenario_registry(sigma_db=4.0)["2d-fixed"], sweep_values=(3, 30)), 10),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_blocks_leave_the_report_unchanged(self, case, monkeypatch):
        config, k = self.CASES[case]
        cfg = _cfg(estimators=ESTIMATOR_IDS, trials=40, master_seed=31, **config)
        monkeypatch.setattr(bench, "BLOCK_DOUBLES", 10**9)
        whole = run_experiment(cfg)
        # Blocks of 15 trials of k x (m+2) doubles: 15, 15 and a ragged 10.
        monkeypatch.setattr(bench, "BLOCK_DOUBLES", 15 * k * 4)
        assert [stop - start for start, stop in bench._blocks(cfg.trials, k * 4)] == [15, 15, 10]
        blocked = run_experiment(cfg)
        assert blocked.to_csv() == whole.to_csv()
        assert blocked.to_json() == whole.to_json()

    @pytest.mark.parametrize("case", CASES)
    def test_a_single_trial_block_leaves_the_report_unchanged(self, case, monkeypatch):
        # Blocks of 33, 33 and 1: a stack of one problem takes the same
        # per-row products as a stack of many.
        config, k = self.CASES[case]
        cfg = _cfg(estimators=ESTIMATOR_IDS, trials=67, master_seed=37, **config)
        monkeypatch.setattr(bench, "BLOCK_DOUBLES", 10**9)
        whole = run_experiment(cfg)
        monkeypatch.setattr(bench, "BLOCK_DOUBLES", 33 * k * 4)
        assert [stop - start for start, stop in bench._blocks(cfg.trials, k * 4)] == [33, 33, 1]
        assert run_experiment(cfg).to_csv() == whole.to_csv()

    def test_fresh_geometry_peak_memory_is_capped(self):
        # One fresh layout per trial: the whole (1000, 1000, 4) design stack
        # alone would be 32 MB, and its SVD factors as much again.
        cfg = _cfg(RandomScenarioFamily(sigma_db=4.0), sweep_param="n_random", sweep_values=(1000,), trials=1000)
        tracemalloc.start()
        try:
            report = run_experiment(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [row.trials_ok + row.trials_failed for row in report.rows] == [1000, 1000]
        assert peak <= 48e6


def _counting_stack(monkeypatch):
    """Patch bench.estimate_stack to record the problem count of each call."""
    calls = []

    def counting(est_ids, sensors, ybar, zbar, b):
        calls.append(len(ybar))
        return estimate_stack(est_ids, sensors, ybar, zbar, b)

    monkeypatch.setattr(bench, "estimate_stack", counting)
    return calls


class TestPointGroups:
    """Consecutive points of one fixed layout and one bias b run their
    estimators as one estimate_stack call while their trials fit in one
    block, 2**17 // (k (m+2)) trials: 3276 at 2d-fixed, 2621 at 3d-fixed."""

    ROUNDS = (3, 30, 100, 200, 400)
    CASES = {
        "2d-fixed": dict(scenario=scenario_registry(sigma_db=6.0)["2d-fixed"], sweep_values=ROUNDS),
        "3d-fixed": dict(scenario=scenario_registry(sigma_db=8.0)["3d-fixed"], sweep_values=(1, 3, 30)),
        "inline": dict(scenario=Scenario(sensors=10 * SQUARE_CORNERS, source=[3.0, 4.0], sigma_db=2.0),
                       sweep_values=(1, 4, 4)),
    }

    @pytest.mark.parametrize("trials, calls", [(100, [500]), (1000, [3000, 2000])], ids=["100", "1000"])
    def test_a_rounds_sweep_runs_as_few_stacks_as_one_block_allows(self, monkeypatch, scenario_2d, trials, calls):
        # One call per point, five in all, before points were stacked.
        cfg = _cfg(scenario_2d, sweep_values=self.ROUNDS, trials=trials)
        counted = _counting_stack(monkeypatch)
        run_experiment(cfg)
        assert counted == calls

    @pytest.mark.parametrize(
        "sweep, calls",
        [
            (dict(sweep_param="sigma", sweep_values=(1.0, 2.0, 6.0)), [100, 100, 100]),
            (dict(scenario=RandomScenarioFamily(), sweep_param="n_random", sweep_values=(10, 1000)),
             [100, 32, 32, 32, 4]),
            (dict(scenario=RandomScenarioFamily(), sweep_param="n_random", sweep_values=(10, 10), fixed_geometry=True),
             [100, 100]),
        ],
        ids=["sigma", "n_random", "n_random-pinned"],
    )
    def test_points_of_other_b_or_layouts_run_alone(self, monkeypatch, scenario_2d, sweep, calls):
        # A sigma sweep's points differ in b, a random family's in layout
        # (pinned or not): each runs in its own blocks.
        cfg = _cfg(**{"scenario": scenario_2d, "trials": 100, **sweep})
        counted = _counting_stack(monkeypatch)
        run_experiment(cfg)
        assert counted == calls

    @pytest.mark.parametrize("case", CASES)
    def test_stacking_leaves_the_report_unchanged(self, monkeypatch, case):
        cfg = _cfg(estimators=ESTIMATOR_IDS, trials=60, master_seed=41, **self.CASES[case])
        _, k, m = sweep_point(cfg, 0).sensors.shape
        counted = _counting_stack(monkeypatch)
        stacked = run_experiment(cfg)
        # A block of one point's trials: no two points share a call.
        monkeypatch.setattr(bench, "BLOCK_DOUBLES", cfg.trials * k * (m + 2))
        alone = run_experiment(cfg)
        assert counted == [len(cfg.sweep_values) * cfg.trials] + [cfg.trials] * len(cfg.sweep_values)
        assert alone.to_csv() == stacked.to_csv()
        assert alone.to_json() == stacked.to_json()

    def test_each_failure_is_counted_at_its_own_point(self, monkeypatch, scenario_2d):
        # Fail about a third of the problems of each call, chosen by their
        # means alone, so that a stacked and a lone call fail the same trials.
        def failing(est_ids, sensors, ybar, zbar, b):
            fail = np.floor(ybar[:, 0] * 1e6) % 3 == 0
            return [out._replace(failure=np.where(fail, 1, out.failure))
                    for out in estimate_stack(est_ids, sensors, ybar, zbar, b)]

        monkeypatch.setattr(bench, "estimate_stack", failing)
        cfg = _cfg(scenario_2d, sweep_values=self.ROUNDS, trials=90)
        stacked = run_experiment(cfg)
        monkeypatch.setattr(bench, "BLOCK_DOUBLES", cfg.trials * 10 * 4)
        assert run_experiment(cfg).to_csv() == stacked.to_csv()
        failed = {row.sweep_value: row.trials_failed for row in stacked.rows}
        assert all(10 < count < 50 for count in failed.values()) and len(set(failed.values())) > 1

    def test_mean_time_is_the_groups_seconds_over_its_trials(self, monkeypatch, scenario_2d):
        # Each call is charged 6 s per estimator: 6 s over the 500 trials of
        # the one stacked call, not over each point's 100.
        def timed(est_ids, sensors, ybar, zbar, b):
            return [out._replace(seconds=6.0) for out in estimate_stack(est_ids, sensors, ybar, zbar, b)]

        monkeypatch.setattr(bench, "estimate_stack", timed)
        cfg = _cfg(scenario_2d, sweep_values=self.ROUNDS, trials=100, measure_time=True)
        assert [row.mean_time_s for row in run_experiment(cfg).rows] == [6.0 / 500] * 10


def _mean_normalise(sensors):
    # geometry.normalise with its centroid taken as sensors.mean(axis=-2).
    c = sensors.mean(axis=-2)
    q = sensors - c[..., None, :]
    s = np.sqrt(np.einsum("...km,...km->...", q, q) / q.shape[-2])
    s = np.where(s > 0, s, 1.0)
    return q / s[..., None, None], c, s


def _recompute_distances(monkeypatch):
    """Make sweep_point hand draw_means sq_norm(layouts - source), computed
    anew for each draw block from the layouts check_layouts saw, and
    crlb_stack sq_norm(sensors - source) of its layout block, in place of
    the distances check_layouts returns (replaced by NaN)."""
    point = {"sensors": [], "drawn": False}

    def check_layouts(sensors, *args):
        if point["drawn"]:
            point.update(sensors=[], drawn=False)
        point["sensors"].append(sensors)
        point["source"], rounds, sq_distances = model.check_layouts(sensors, *args)
        return point["source"], rounds, np.full_like(sq_distances, np.nan)

    def recomputing_draw_means(seek, paths, eps, sq_distances, noise, ybar, zbar):
        point["drawn"], paths = True, list(paths)
        sensors = np.concatenate(point["sensors"])
        layouts = sensors if len(sensors) == 1 else sensors[paths[0][1] : paths[-1][1] + 1]
        draw_means(seek, paths, eps, sq_norm(layouts - point["source"]), noise, ybar, zbar)

    def recomputing_crlb_stack(sensors, p, sq_distances, *args):
        return inference.crlb_stack(sensors, p, sq_norm(sensors - p), *args)

    monkeypatch.setattr(bench, "check_layouts", check_layouts)
    monkeypatch.setattr(bench, "draw_means", recomputing_draw_means)
    monkeypatch.setattr(bench, "crlb_stack", recomputing_crlb_stack)


def _parent_draw_path(monkeypatch):
    """Make sweep_point draw through throwaway arrays: each layout by
    rng.uniform and copied into the point, each block of normals into a fresh
    array and its means formed in fresh arrays and copied into its rows, and
    crlb_stack squaring the differences p - sensors it forms itself."""

    def layouts(self, rngs, out):
        for rows, rng in zip(out, rngs):
            rows[...] = rng.uniform(self.low, self.high, size=rows.shape)
        return out

    def copied_means(seek, paths, eps, sq_distances, noise, ybar, zbar):
        eps = np.empty(eps.shape)
        for block, path in zip(eps, paths):
            seek(*path).standard_normal(out=block)
        rounds, omega_std = eps.shape[1], noise.omega_std

        def sums(a):
            return a[:, 0].copy() if rounds == 1 else np.ones(rounds) @ a

        y = sums(eps)
        y *= -omega_std / rounds
        y += np.log10(np.sqrt(sq_distances))
        eps *= -2.0 * LN10 * omega_std
        z = sums(np.exp(eps, out=eps))
        z /= rounds
        z *= sq_distances
        ybar[...], zbar[...] = y, z

    def differencing_crlb_stack(sensors, p, sq_distances, *args):
        gt = p[:, None] - sensors.swapaxes(1, 2)
        return inference.crlb_stack(sensors, p, sq_norm(gt.swapaxes(1, 2)), *args)

    monkeypatch.setattr(RandomScenarioFamily, "layouts", layouts)
    monkeypatch.setattr(bench, "draw_means", copied_means)
    monkeypatch.setattr(bench, "crlb_stack", differencing_crlb_stack)


class TestReportBits:
    """Reports are the same bits whether normalise takes the centroid by
    einsum or by mean(axis=-2), and whether draw_means gets the squared
    distances check_layouts formed or ones recomputed per draw block."""

    RANDOM = dict(scenario=RandomScenarioFamily(sigma_db=4.0), sweep_param="n_random", sweep_values=(10, 1000))
    CASES = {
        "2d-random-fresh": dict(RANDOM),
        "2d-random-pinned": dict(RANDOM, fixed_geometry=True),
        "2d-fixed": dict(scenario=scenario_registry(sigma_db=6.0)["2d-fixed"], sweep_values=(1, 30)),
        "3d-fixed": dict(scenario=scenario_registry(sigma_db=6.0)["3d-fixed"], sweep_values=(1, 30)),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_csv_equals_the_mean_centroid_and_recomputed_distances(self, case, monkeypatch):
        # 140 trials: at n = 1000 two draw blocks (131 and 9 trials) and five
        # layout blocks (32 x 4 and 12), so the two block grids disagree.
        cfg = _cfg(estimators=ESTIMATOR_IDS, trials=140, master_seed=5, **self.CASES[case])
        report = run_experiment(cfg).to_csv()
        with monkeypatch.context() as patch:
            patch.setattr(estimators, "normalise", _mean_normalise)
            _recompute_distances(patch)
            assert run_experiment(cfg).to_csv() == report

    @pytest.mark.parametrize("case", CASES)
    def test_csv_equals_the_draw_through_throwaway_arrays(self, case, monkeypatch):
        # The layouts, means and RCRLB distances land in the point's arrays
        # with the bits they had when drawn into temporaries and copied; the
        # fixed cases' 30 rounds sum the means by a product into those rows.
        cfg = _cfg(estimators=ESTIMATOR_IDS, trials=140, master_seed=5, **self.CASES[case])
        report = run_experiment(cfg).to_csv()
        with monkeypatch.context() as patch:
            _parent_draw_path(patch)
            assert run_experiment(cfg).to_csv() == report

    @pytest.mark.parametrize("case", ["2d-random-fresh", "2d-random-pinned", "2d-fixed"])
    def test_t1_means_equal_a_draw_through_a_separate_block(self, case, monkeypatch):
        # At T = 1 sweep_point draws each block of normals into its rows of
        # zbar, which draw_means then reduces in place: one block at n = 10,
        # two (131 and 9 trials) at n = 1000, the 2d-fixed point at T = 1.
        cfg = _cfg(estimators=ESTIMATOR_IDS, trials=140, master_seed=5, **self.CASES[case])
        t1 = [0] if case == "2d-fixed" else [0, 1]
        in_place = []

        def spying_draw_means(seek, paths, eps, sq_distances, noise, ybar, zbar):
            in_place.append(np.shares_memory(eps, zbar))
            draw_means(seek, paths, eps, sq_distances, noise, ybar, zbar)

        with monkeypatch.context() as patch:
            patch.setattr(bench, "draw_means", spying_draw_means)
            points = [sweep_point(cfg, sweep_index) for sweep_index in t1]
        assert all(point.n == point.sensors.shape[1] for point in points)
        assert len(in_place) == len(t1) + (case != "2d-fixed") and all(in_place)
        with monkeypatch.context() as patch:
            _parent_draw_path(patch)
            for sweep_index, point in zip(t1, points):
                separate = sweep_point(cfg, sweep_index)
                assert np.array_equal(point.ybar, separate.ybar)
                assert np.array_equal(point.zbar, separate.zbar)


class TestSharedStagePlan:
    """run_experiment runs one plan per block for all its estimators; each
    estimator's rows equal those of a run with that estimator alone."""

    RANDOM = dict(scenario=RandomScenarioFamily(sigma_db=4.0), sweep_param="n_random", sweep_values=(1000,))
    CASES = {
        "2d-random-fresh": dict(RANDOM),
        "2d-random-pinned": dict(RANDOM, fixed_geometry=True),
        "2d-fixed": dict(scenario=scenario_registry(sigma_db=4.0)["2d-fixed"], sweep_values=(1, 3, 30)),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_one_plan_equals_single_estimator_runs(self, case):
        # 70 trials at n = 1000: blocks of 32, 32 and a ragged 6.
        cfg = _cfg(estimators=ESTIMATOR_IDS, trials=70, master_seed=37, **self.CASES[case])
        if case != "2d-fixed":
            assert [stop - start for start, stop in bench._blocks(cfg.trials, 1000 * 4)] == [32, 32, 6]
        alone = {est_id: run_experiment(replace(cfg, estimators=(est_id,))).rows for est_id in ESTIMATOR_IDS}
        # The ids in reversed order give the same rows, in that order.
        for ids in (ESTIMATOR_IDS, ESTIMATOR_IDS[::-1]):
            together = run_experiment(replace(cfg, estimators=ids))
            merged = bench.TrialReport(rows=tuple(row for point in zip(*(alone[i] for i in ids)) for row in point))
            assert together.to_csv() == merged.to_csv()
            assert together.to_json() == merged.to_json()

    def test_every_estimator_is_timed(self, scenario_2d):
        cfg = _cfg(scenario_2d, estimators=ESTIMATOR_IDS, trials=3, measure_time=True)
        rows = run_experiment(cfg).rows
        assert [row.estimator for row in rows] == list(ESTIMATOR_IDS)
        assert all(row.mean_time_s is not None and row.mean_time_s > 0.0 for row in rows)


class TestCoverage:
    def test_componentwise_normal_coverage(self, scenario_2d):
        # Normality at large n: +-1.96 * rcrlb / sqrt(m) componentwise
        # intervals around the source should cover at the nominal-ish rate.
        sc = scenario_2d.with_rounds(400)
        rc = fisher_information(sc).rcrlb
        half_width = 1.96 * rc / math.sqrt(sc.dimension)
        noise = NoiseModel(2.0, 2.0)
        inside = 0
        total = 0
        for trial in range(500):
            ms = generate_measurements(sc, trial_rng(61, trial))
            p_hat = two_step(ms, noise).p_hat
            for err in np.abs(p_hat - sc.source):
                total += 1
                inside += err <= half_width
        assert 0.90 <= inside / total <= 0.98


class TestTimeScaling:
    def test_single_n(self):
        results = time_scaling([200], runs=5, master_seed=0)
        assert len(results) == 1
        assert results[0][0] == 200
        assert results[0][1] > 0.0

    def test_entries_for_all_requested_n(self):
        results = time_scaling([50, 100, 200], runs=5, master_seed=1)
        assert [n for n, _ in results] == [50, 100, 200]
        assert all(t > 0.0 for _, t in results)

    @pytest.mark.parametrize("n", [-5, 0, 10.5, True, float("nan"), "10"])
    def test_each_n_is_a_whole_number_from_one(self, n):
        # The ExperimentConfig that time_scaling builds checks each n.
        with pytest.raises(ConfigError, match="n_random must be a whole number"):
            time_scaling([20, n], runs=1)

    @pytest.mark.parametrize("runs", [2.5, 0, -1, True, None])
    def test_runs_is_a_whole_number_from_one(self, runs):
        # runs is the ExperimentConfig's trials.
        with pytest.raises(ConfigError, match="trials must be a whole number"):
            time_scaling([10], runs=runs)

    @pytest.mark.parametrize("n", [10**15, 10**19], ids=["malloc", "past-the-size-limit"])
    def test_layout_too_large_to_allocate_raises_runtime(self, n):
        # numpy refuses both sizes before it touches memory.
        message = f"a sweep point of 1 trials x 1 rounds x {n} sensors does not fit in memory"
        with pytest.raises(RssLocError, match=message) as exc:
            time_scaling([n], runs=1)
        assert exc.value.kind == "runtime"
        with pytest.raises(RssLocError, match=f"a layout of {n} sensors does not fit in memory") as exc:
            RandomScenarioFamily().sample(n, np.random.default_rng(0))
        assert exc.value.kind == "runtime"

    def test_too_many_runs_to_allocate_raises_runtime(self):
        # The sweep point's layouts are allocated before any is drawn.
        with pytest.raises(RssLocError, match="a sweep point of 10{15} trials") as exc:
            time_scaling([10], runs=10**15)
        assert exc.value.kind == "runtime"

    def test_reads_the_engines_clock(self, monkeypatch):
        # The clock of test_each_estimator_is_charged_the_stages_it_uses, one
        # second per reading: time_scaling reports run_experiment's ls+gn rows,
        # four stages over one block of the 30 trials at each n.
        monkeypatch.setattr(estimators, "perf_counter", itertools.count().__next__)
        results = time_scaling([10, 40.0], runs=30, master_seed=5)
        cfg = ExperimentConfig(RandomScenarioFamily(), ("ls+gn",), "n_random", (10, 40), 30, 5)
        assert results == [(row.n, row.mean_time_s) for row in run_experiment(cfg).rows]
        assert results == [(10, 4 / 30), (40, 4 / 30)]

    def test_whole_floats_are_read_as_ints(self):
        assert [n for n, _ in time_scaling([20.0], runs=2.0)] == [20]
