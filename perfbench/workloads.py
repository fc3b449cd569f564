"""The benchmark's three workloads, driven through rssloc's public API only.

rounds-sweep   the acceptance rounds sweep (2d-fixed, T in {3..400}, n = 30..4000)
random-deploy  2d-random at 4 dB, fresh geometry every trial, with the ml solver
field-estimate closed loop of ``rssloc estimate`` over generated field files

Every workload reports the same end-to-end metrics (see README.md for what
each one means on each workload). The operations a run counts as attempted
are its Monte Carlo trials and its timed estimate calls; they are chosen so
that none fails today, so that a run's failure count does not depend on how
many operations fit in its time. Failures inside a trial (an estimator that
raises a typed error, which run_experiment records in its report) and the
files that reproduce known defects are measured by ok_share instead. Inputs are made from the benchmark seed by
this module's own numpy code, so a change to rssloc cannot change them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

import speed
import tracing

# Error of a successful estimate on a fixed-geometry file, as a multiple of
# that file's RCRLB, above which the output is wrong. The largest seen on
# 2000 draws per file class is 10.3 (2d-fixed, T = 3); a source 1 km off is
# more than 80 RCRLB away on every fixed-geometry file.
RCRLB_MULTIPLE = 25.0
# Acceptance criterion 3: RMSE(ls+gn) / RCRLB at the largest rounds point.
EFFICIENCY_LIMIT = 1.10
UTM_OFFSET = (5e5, 4.5e6, 0.0)
COLD_RUNS = 15
TAIL_PARTS = 4


def tail_percentile(count):
    """Highest of p90 and p50 with at least ten samples beyond it in each of
    the TAIL_PARTS parts of ``count`` samples.

    p99 is printed but not reported: on a shared 2-core machine its
    run-to-run spread (10-30 %) is too wide for the benchmark's bound.
    """
    for p in (90, 50):
        if count // TAIL_PARTS * (100 - p) / 100 >= 10:
            return p
    return 50


def latency_summary(seconds):
    """(p50, tail, tail percentile, p99, sample count) in ms. The tail is the
    median of the percentile over TAIL_PARTS consecutive parts of the run,
    so that one burst of machine noise moves it less."""
    ms = np.asarray(seconds) * 1e3
    p = tail_percentile(len(ms))
    parts = [np.percentile(part, p) for part in np.array_split(ms, min(TAIL_PARTS, len(ms)))]
    return (float(np.median(ms)), float(np.median(parts)), p,
            float(np.percentile(ms, 99)), len(ms))


# ---------------------------------------------------------------- inputs

def registry_geometry(scenario_id):
    """Sensors and source of a fixed registry scenario (from the library)."""
    import rssloc.bench

    sc = rssloc.bench.scenario_registry()[scenario_id]
    return sc.sensors.copy(), sc.source.copy()


def crlb_oracle(sensors, source, sigma_db, alpha, rounds):
    """tr(F^-1) for the log-distance model, computed here, not by rssloc."""
    diff = source - sensors
    d2 = np.sum(diff**2, axis=1)
    terms = diff[:, :, None] * diff[:, None, :] / (d2**2 * math.log(10) ** 2)[:, None, None]
    fisher = 100.0 * alpha**2 / sigma_db**2 * rounds * terms.sum(axis=0)
    return float(np.trace(np.linalg.inv(fisher)))


@dataclass
class FieldFile:
    path: str
    n: int
    small: bool
    sensors: np.ndarray  # unique sensor positions
    source: np.ndarray
    crlb: float
    check_error: bool  # fixed geometry: compare the error with the RCRLB


def write_field_file(path, sensors, source, rounds, sigma_db, known, rng, small, alpha=2.0):
    """Simulate raw dB readings with the log-distance model and write them in
    the ``rssloc estimate`` input format (round-major rows)."""
    d = np.linalg.norm(np.tile(sensors, (rounds, 1)) - source, axis=1)
    raw_db = -10.0 * alpha * np.log10(d) + rng.normal(0.0, sigma_db, size=d.shape[0])
    payload = {
        "sensors": np.tile(sensors, (rounds, 1)).tolist(),
        "raw_db": raw_db.tolist(),
        "alpha": alpha,
        "p0": 1.0,
    }
    if known:
        payload["sigma_db"] = sigma_db
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload))
    return FieldFile(
        path=path, n=d.shape[0], small=small, sensors=sensors, source=source,
        crlb=crlb_oracle(sensors, source, sigma_db, alpha, rounds), check_error=True,
    )


# ----------------------------------------------------------- estimate ops

def run_estimate(path):
    """One in-process ``rssloc estimate``: (seconds, exit code, stdout, stderr, exception)."""
    from rssloc import cli

    out, err = io.StringIO(), io.StringIO()
    exc = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["estimate", "--input", path])
    except (Exception, SystemExit) as caught:
        code, exc = None, caught
    return time.perf_counter() - t0, code, out.getvalue(), err.getvalue(), exc


def known_kinds():
    from rssloc import errors

    kinds, todo = set(), [errors.RssLocError]
    while todo:
        cls = todo.pop()
        kinds.add(cls.kind)
        todo.extend(cls.__subclasses__())
    return kinds


def classify(code, stderr, exc, kinds):
    """Map one estimate invocation to ("ok", None), ("failed", kind) or
    ("error", reason). A failure is a non-zero exit carrying a typed JSON
    error on stderr; anything else that is not a success is an error of the
    program, which the benchmark reports as incorrect output."""
    if exc is not None:
        return "error", f"untyped crash: {type(exc).__name__}: {exc}"
    if code == 0:
        return "ok", None
    if code not in (1, 2):
        return "error", f"unexpected exit code {code!r}"
    lines = stderr.strip().splitlines()
    try:
        payload = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        payload = None
    kind = payload.get("error") if isinstance(payload, dict) else None
    if kind not in kinds:
        return "error", f"exit {code} without a typed error on stderr: {stderr.strip()[:200]!r}"
    return "failed", kind


class EstimateLog:
    """Outcomes of estimate operations, checked against the library later."""

    def __init__(self, files):
        self.files = files
        self.kinds = known_kinds()
        self.first = {}  # file index -> (outcome, kind, stdout)
        self.problems = []
        self.attempted = 0
        self.failed = 0

    def record(self, index, code, stdout, stderr, exc):
        outcome, detail = classify(code, stderr, exc, self.kinds)
        self.attempted += 1
        if outcome == "error":
            self.problems.append(f"{self.files[index].path}: {detail}")
            return outcome
        self.failed += outcome == "failed"
        seen = self.first.setdefault(index, (outcome, detail, stdout))
        if seen != (outcome, detail, stdout):
            self.problems.append(f"{self.files[index].path}: output changed between calls")
        return outcome

    def check(self, verdicts=None):
        """Compare each file's output with the library's two_step on the same
        file and, on fixed geometry, with the file's RCRLB. Returns
        (normalised squared errors of large files, verdict mismatches)."""
        import rssloc

        large_sq = []
        mismatches = 0
        for index, (outcome, kind, stdout) in sorted(self.first.items()):
            f = self.files[index]
            try:
                ref, ref_kind = reference_two_step(f.path), None
            except rssloc.errors.RssLocError as exc:
                ref, ref_kind = None, exc.kind
            if outcome == "failed":
                if ref_kind != kind:
                    self.problems.append(f"{f.path}: CLI failed with {kind}, library gave {ref_kind}")
                if verdicts is not None and kind == "singular-gram":
                    mismatches += verdicts[index] == "FullyLocalizable"
                continue
            p_hat = json.loads(stdout)["p_hat"]
            if ref is None or p_hat != ref.p_hat.tolist():
                self.problems.append(f"{f.path}: CLI p_hat {p_hat} != library {ref_kind or ref.p_hat.tolist()}")
            error = float(np.linalg.norm(np.asarray(p_hat) - f.source))
            if not math.isfinite(error):
                self.problems.append(f"{f.path}: non-finite estimate {p_hat}")
            elif f.check_error and error > RCRLB_MULTIPLE * math.sqrt(f.crlb):
                self.problems.append(
                    f"{f.path}: error {error:.3g} m exceeds {RCRLB_MULTIPLE:g} x RCRLB "
                    f"({math.sqrt(f.crlb):.3g} m)"
                )
            elif not f.small:
                large_sq.append(error**2 / f.crlb)
        return large_sq, mismatches


def reference_two_step(path):
    """The library's two_step on a measurement file, parsed with the public API."""
    import rssloc

    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    alpha = float(payload["alpha"])
    raw = np.asarray(payload["raw_db"], dtype=float)
    y = rssloc.equivalent_measurement(raw, float(payload["p0"]), alpha)
    ms = rssloc.MeasurementSet(sensor_coords=payload["sensors"], y=y, raw_db=raw)
    noise = rssloc.NoiseModel(float(payload["sigma_db"]), alpha) if "sigma_db" in payload else None
    return rssloc.two_step(ms, noise)


class Timings:
    """Raw and speed-normalised durations of one kind of operation, in s."""

    def __init__(self):
        self.raw, self.norm = [], []

    def add(self, raw, reference, nominal=speed.REFERENCE_S):
        self.raw.append(raw)
        self.norm.append(speed.normalise(raw, reference, nominal))

    def __len__(self):
        return len(self.raw)


class Workload:
    """Common parts: the speed reference, estimate calls and cold starts."""

    def __init__(self, root, out_dir, seed, scale=1.0):
        self.root, self.out_dir, self.seed, self.scale = root, out_dir, seed, scale
        self.speed = speed.SpeedReference()
        self.problems = []
        self.info = []
        self.attempted = 0
        self.failed = 0

    def estimate(self, index, timings):
        """One timed estimate call, counted as an operation of the run."""
        reference = self.speed.measure()
        raw, code, out, err, exc = run_estimate(self.files[index].path)
        outcome = self.log.record(index, code, out, err, exc)
        timings.add(raw, reference)
        self.attempted += 1
        self.failed += outcome == "failed"

    def cold_estimate(self):
        """Fresh ``python -m rssloc.cli estimate`` processes on the first file
        (a small, local, known-variance one), each referred to the mean of
        the reference processes started just before and after it."""
        path, expected = self.files[0].path, self.log.first[0][2]
        env = dict(os.environ, PYTHONPATH=os.path.join(self.root, "src"))
        timings = Timings()
        before = speed.process_seconds(self.root, env)
        for _ in range(COLD_RUNS):
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-m", "rssloc.cli", "estimate", "--input", path],
                cwd=self.root, env=env, capture_output=True, text=True, timeout=120,
            )
            raw = time.perf_counter() - t0
            after = speed.process_seconds(self.root, env)
            timings.add(raw, (before + after) / 2, speed.COLD_REFERENCE_S)
            before = after
            if proc.returncode != 0 or proc.stdout != expected:
                self.problems.append(f"cold estimate of {path}: exit {proc.returncode}, output differs from in-process")
        return timings

    def latency_metrics(self, small, large):
        cold = self.cold_estimate()
        p50, tail, pct, p99, count = latency_summary(small.norm)
        raw_p50, raw_tail, *_ = latency_summary(small.raw)
        self.info += [
            f"estimate_tail_ms is the median p{pct} of {TAIL_PARTS} parts of {count} small-file "
            f"estimates (p99 of all {p99:.4g} ms)",
            f"raw wall clock: estimate_p50_ms {raw_p50:.4g}, estimate_tail_ms {raw_tail:.4g}, "
            f"estimate_large_p50_ms {latency_summary(large.raw)[0]:.4g}, "
            f"estimate_cold_ms {float(np.median(cold.raw)) * 1e3:.4g}",
        ]
        return {
            "estimate_p50_ms": p50,
            "estimate_tail_ms": tail,
            "estimate_large_p50_ms": latency_summary(large.norm)[0],
            "estimate_cold_ms": float(np.median(cold.norm)) * 1e3,
        }

    def speed_info(self):
        ref = np.asarray(self.speed.samples) * 1e3
        self.info.append(
            f"speed reference kernel: median {np.median(ref):.4g} ms, p10 {np.percentile(ref, 10):.4g}, "
            f"p90 {np.percentile(ref, 90):.4g} over {len(ref)} measurements "
            f"(timings are normalised to {speed.REFERENCE_S * 1e3:g} ms)"
        )


class SweepWorkload(Workload):
    """Monte Carlo sweep through ExperimentConfig.from_dict + run_experiment,
    then a fixed probe of single estimates on the same scenario family."""

    config = {}
    check_efficiency = False
    trials_per_point = 100
    min_passes = 15
    probe_small = 1200
    probe_large = 240
    probe_files = 24

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.min_passes = max(1, round(self.min_passes * self.scale))
        self.probe_small = max(20, round(self.probe_small * self.scale))
        self.probe_large = max(4, round(self.probe_large * self.scale))
        self.passes = 0
        self.reports = []  # reports of the untraced passes, in order
        self.pass_rates = Timings()  # seconds per trial of each untraced pass

    @property
    def sweep_values(self):
        (values,) = self.config["sweep"].values()
        return [float(v) for v in values]

    def config_dict(self, trials):
        return dict(json.loads(json.dumps(self.config)), trials=trials)

    def build(self):
        import rssloc

        rssloc.run_experiment(rssloc.ExperimentConfig.from_dict(self.config_dict(2), seed=self.seed))
        self.files = self.make_probe_files()
        self.log = EstimateLog(self.files)

    def run_pass(self, tracer=None):
        """One full sweep with its own master seed; returns (trials,
        normalised s, raw s)."""
        import rssloc

        cfg = rssloc.ExperimentConfig.from_dict(
            self.config_dict(self.trials_per_point), seed=self.seed * 2**20 + self.passes
        )
        if tracer is not None:
            tracer.begin_op(self.passes)
        before = self.speed.measure(runs=3)
        t0 = time.perf_counter()
        report = rssloc.run_experiment(cfg)
        raw = time.perf_counter() - t0
        reference = (before + self.speed.measure(runs=3)) / 2
        self.passes += 1
        self.check_rows(report)
        # A trial completes even when an estimator raises a typed error:
        # run_experiment counts that in the row's trials_failed, which
        # failed_share (and so ok_share) measures.
        trials = len(cfg.sweep_values) * cfg.trials
        self.attempted += trials
        if tracer is None:
            self.reports.append(report)
            self.pass_rates.add(raw / trials, reference)
        return trials, speed.normalise(raw, reference), raw

    def main_phase(self, seconds, tracer=None, min_passes=1):
        """Passes until ``seconds`` of wall time; returns (trials,
        normalised s, raw s)."""
        start, trials, busy, raw, done = time.perf_counter(), 0, 0.0, 0.0, 0
        while done < min_passes or time.perf_counter() - start < seconds:
            n, elapsed, elapsed_raw = self.run_pass(tracer)
            trials, busy, raw, done = trials + n, busy + elapsed, raw + elapsed_raw, done + 1
        return trials, busy, raw

    def check_rows(self, report):
        expected_n = dict(zip(self.sweep_values, self.point_n))
        expected = len(self.sweep_values) * len(self.config["estimators"])
        if len(report.rows) != expected:
            self.problems.append(f"report has {len(report.rows)} rows, expected {expected}")
        for row in report.rows:
            where = f"row {row.estimator}@{row.sweep_value:g}"
            if row.trials_ok + row.trials_failed != self.trials_per_point:
                self.problems.append(f"{where}: trials_ok + trials_failed != trials")
            if row.n != expected_n.get(row.sweep_value):
                self.problems.append(f"{where}: n = {row.n}, expected {expected_n.get(row.sweep_value)}")
            values = [row.rcrlb_m] + ([row.bias_m, row.rmse_m] if row.trials_ok else [])
            if not all(math.isfinite(v) and v >= 0 for v in values):
                self.problems.append(f"{where}: non-finite or negative statistics {values}")
        self.check_rcrlb(report)

    def check_rcrlb(self, report):
        """Workloads whose RCRLB the benchmark can compute check it here."""

    def efficiency_ratio(self):
        """Pooled RMSE(ls+gn) / RCRLB at the largest point over the first
        min_passes passes (deterministic per seed)."""
        last = self.sweep_values[-1]
        sq, ok, rcrlb = 0.0, 0, []
        for report in self.reports[: self.min_passes]:
            for row in report.rows:
                if row.estimator == "ls+gn" and row.sweep_value == last:
                    sq += row.rmse_m**2 * row.trials_ok
                    ok += row.trials_ok
                    rcrlb.append(row.rcrlb_m)
        return math.sqrt(sq / ok) / float(np.mean(rcrlb))

    def failed_share(self):
        """Failed / attempted estimator invocations over the first min_passes passes."""
        failed = attempted = 0
        for report in self.reports[: self.min_passes]:
            for row in report.rows:
                failed += row.trials_failed
                attempted += row.trials_ok + row.trials_failed
        return failed / attempted

    def probe(self):
        """Fixed-count closed loop of single estimates: small files, then
        large ones. The two are not interleaved, so that no small call's
        latency carries the clean-up after a large one."""
        small = [i for i, f in enumerate(self.files) if f.small]
        large = [i for i, f in enumerate(self.files) if not f.small]
        small_t, large_t = Timings(), Timings()
        for k in range(self.probe_small):
            self.estimate(small[k % len(small)], small_t)
        for k in range(self.probe_large):
            self.estimate(large[k % len(large)], large_t)
        return small_t, large_t

    def run(self, seconds, trace):
        """Returns (end-to-end metrics, or None when traced; tracer or None)."""
        tracer = None
        if trace:
            self.untraced = self.main_phase(seconds / 2, min_passes=self.min_passes)
            tracer = tracing.Tracer()
            tracer.sweep_n = self.point_n
            with tracing.installed(tracer):
                self.traced = self.main_phase(seconds / 2, tracer)
        else:
            self.untraced = self.main_phase(0.75 * seconds, min_passes=self.min_passes)
            small, large = self.probe()
        efficiency = self.efficiency_ratio()
        if self.check_efficiency and not efficiency <= EFFICIENCY_LIMIT:
            self.problems.append(f"efficiency_ratio {efficiency:.4f} > {EFFICIENCY_LIMIT}")
        failed_share = self.failed_share()
        digest = hashlib.sha256(self.reports[0].to_csv().encode()).hexdigest()
        self.info += [
            f"digest {digest} (sha256 of the first sweep report, measure_time false)",
            f"failed_share {failed_share:.6g} of estimator invocations over {self.min_passes} passes",
            f"passes {self.passes}, trials per point per pass {self.trials_per_point}",
        ]
        if trace:
            self.speed_info()
            return None, tracer
        self.info.append(f"probe: {self.log.attempted} estimate calls, {self.log.failed} failed")
        self.log.check()
        self.problems += self.log.problems
        metrics = {
            "trials_per_s": 1.0 / float(np.median(self.pass_rates.norm)),
            "ok_share": 1.0 - failed_share,
            "efficiency_ratio": efficiency,
        }
        metrics.update(self.latency_metrics(small, large))
        self.info.append(f"raw wall clock: trials_per_s {1.0 / float(np.median(self.pass_rates.raw)):.5g}")
        self.speed_info()
        return metrics, None

    def trace_counts(self):
        trials = self.traced[0]
        by_n = {}
        for n in self.point_n:
            by_n[n] = by_n.get(n, 0) + trials / len(self.point_n)
        return trials, by_n


class RoundsSweep(SweepWorkload):
    name = "rounds-sweep"
    config = {
        "scenario": "2d-fixed",
        "estimators": ["ls", "ls+gn", "ls-u+gn"],
        "sweep": {"rounds": [3, 30, 100, 200, 400]},
        "measure_time": False,
    }
    check_efficiency = True

    @property
    def point_n(self):
        return [10 * int(t) for t in self.sweep_values]

    def make_probe_files(self):
        sensors, source = registry_geometry("2d-fixed")
        rng = np.random.default_rng([self.seed, 1])
        files = []
        for rounds in (3, 400):
            for k in range(self.probe_files):
                path = os.path.join(self.out_dir, f"rounds-T{rounds}-{k}.json")
                files.append(write_field_file(path, sensors, source, rounds, 2.0, True, rng, rounds == 3))
        return files

    def check_rcrlb(self, report):
        sensors, source = registry_geometry("2d-fixed")
        for row in report.rows:
            expected = math.sqrt(crlb_oracle(sensors, source, 2.0, 2.0, int(row.sweep_value)))
            if not abs(row.rcrlb_m - expected) <= 1e-9 * expected:
                self.problems.append(f"rcrlb at T={row.sweep_value:g}: {row.rcrlb_m} != {expected}")


class RandomDeploy(SweepWorkload):
    name = "random-deploy"
    config = {
        "scenario": "2d-random",
        "sigma_db": 4.0,
        "estimators": ["ls+gn", "ls-u+gn", "ml"],
        "sweep": {"n_random": [10, 30, 100, 1000]},
        "measure_time": False,
    }

    @property
    def point_n(self):
        return [int(v) for v in self.sweep_values]

    def make_probe_files(self):
        # Random deployments in the registry's box with its source. Single
        # estimates at 4 dB have heavy-tailed errors (unguarded GN step), so
        # only agreement with the library is checked on these files.
        import rssloc

        family = rssloc.RandomScenarioFamily()
        source = np.asarray(family.source, dtype=float)
        rng = np.random.default_rng([self.seed, 2])
        files = []
        for n in (30, 1000):
            for k in range(self.probe_files):
                sensors = rng.uniform(family.low, family.high, size=(n, 2))
                path = os.path.join(self.out_dir, f"random-n{n}-{k}.json")
                f = write_field_file(path, sensors, source, 1, 4.0, True, rng, n == 30)
                f.check_error = False
                files.append(f)
        return files


class FieldEstimate(Workload):
    """Closed loop, one client: ``cli.main(["estimate", "--input", f])`` in
    whole passes over the files.

    The unknown-variance UTM files reproduce ROADMAP item 2 (``singular-gram``
    on a FullyLocalizable geometry), so they stay out of the timed loop: each
    runs once, untimed, after it, and counts in ok_share and
    geometry.verdict_mismatch, with the same output checks as the others.
    """

    name = "field-estimate"
    # Noise draws per file class, by rounds. The T = 400 files set the
    # efficiency ratio, whose seed-to-seed spread shrinks with their number.
    replicates = {3: 24, 400: 48}
    min_small_samples = 1100

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.replicates = {t: max(1, round(k * self.scale)) for t, k in self.replicates.items()}
        self.min_small_samples = max(20, round(self.min_small_samples * self.scale))
        self.ops = 0

    def build(self):
        # The first file is 2d-fixed, T = 3, local frame, known variance: the
        # cold-start file.
        rng = np.random.default_rng([self.seed, 3])
        files = []
        for scenario_id in ("2d-fixed", "3d-fixed"):
            sensors, source = registry_geometry(scenario_id)
            offset = np.asarray(UTM_OFFSET[: sensors.shape[1]])
            for rounds in (3, 400):
                for frame, shift in (("local", 0.0), ("utm", offset)):
                    for variance in ("known", "unknown"):
                        for k in range(self.replicates[rounds]):
                            name = f"field-{scenario_id}-T{rounds}-{frame}-{variance}-{k}.json"
                            files.append(write_field_file(
                                os.path.join(self.out_dir, name), sensors + shift,
                                source + shift, rounds, 2.0, variance == "known", rng, rounds == 3,
                            ))
        self.files = files
        self.log = EstimateLog(files)
        utm_unknown = ["-utm-unknown-" in os.path.basename(f.path) for f in files]
        self.timed = [i for i, skip in enumerate(utm_unknown) if not skip]
        self.untimed = [i for i, skip in enumerate(utm_unknown) if skip]

    def loop(self, seconds, tracer=None, min_small=1):
        """Whole passes until ``seconds`` of wall time; returns (small, large
        timings, calls per measurement count)."""
        start = time.perf_counter()
        small, large, ops_by_n = Timings(), Timings(), {}
        while len(small) < min_small or time.perf_counter() - start < seconds:
            for index in self.timed:
                f = self.files[index]
                if tracer is not None:
                    tracer.begin_op(self.ops, f.n)
                self.ops += 1
                self.estimate(index, small if f.small else large)
                ops_by_n[f.n] = ops_by_n.get(f.n, 0) + 1
        return small, large, ops_by_n

    def run_untimed(self):
        for index in self.untimed:
            self.log.record(index, *run_estimate(self.files[index].path)[1:])

    def ok_share(self):
        """Share of the files whose estimate succeeds."""
        return sum(first[0] == "ok" for first in self.log.first.values()) / len(self.files)

    def verdicts(self):
        import rssloc

        return [rssloc.localizability(f.sensors).verdict.value for f in self.files]

    def run(self, seconds, trace):
        tracer = None
        if trace:
            small, large, _ = self.loop(seconds / 2)
            tracer = tracing.Tracer()
            with tracing.installed(tracer):
                t_small, t_large, self.traced_by_n = self.loop(seconds / 2, tracer)
                verdicts = self.verdicts()
            self.traced = (
                len(t_small) + len(t_large),
                sum(t_small.norm) + sum(t_large.norm),
                sum(t_small.raw) + sum(t_large.raw),
            )
        else:
            small, large, _ = self.loop(seconds, min_small=self.min_small_samples)
            verdicts = self.verdicts()
        self.run_untimed()
        ops, busy = len(small) + len(large), sum(small.norm) + sum(large.norm)
        self.untraced = (ops, busy)
        large_sq, self.verdict_mismatch = self.log.check(verdicts)
        self.problems += self.log.problems
        ok_share = self.ok_share()
        self.info += [
            f"failed_share {1.0 - ok_share:.6g} of the {len(self.files)} files "
            f"({len(self.untimed)} unknown-variance UTM files run once, untimed); "
            f"{self.failed} of {self.attempted} timed calls failed",
            f"verdict_mismatch {self.verdict_mismatch} (FullyLocalizable files that failed with singular-gram)",
            f"files {len(self.files)}, timed passes {self.ops // len(self.timed)}",
        ]
        if trace:
            self.speed_info()
            return None, tracer
        metrics = {
            "trials_per_s": ops / busy,
            "ok_share": ok_share,
            "efficiency_ratio": math.sqrt(float(np.mean(large_sq))),
        }
        metrics.update(self.latency_metrics(small, large))
        self.info.append(f"raw wall clock: trials_per_s {ops / (sum(small.raw) + sum(large.raw)):.5g}")
        self.speed_info()
        return metrics, None

    def trace_counts(self):
        return self.traced[0], self.traced_by_n


WORKLOADS = {w.name: w for w in (RoundsSweep, RandomDeploy, FieldEstimate)}
