"""Self-tests of the benchmark (not part of the library's test suite).

    python3 perfbench/selftest.py

Runs every workload at a reduced size, so it takes about a minute.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import unittest
from unittest import mock

import numpy as np

import run

rssloc = run.import_rssloc()
import rssloc.cli  # noqa: E402  (needs rssloc on the path)
import workloads  # noqa: E402

SMALL = 0.1
OUT = run.ROOT / ".perfbench_out" / "selftest"


def declared(key):
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[key]}


def make(cls, seed=3):
    out = OUT / cls.name
    out.mkdir(parents=True, exist_ok=True)
    w = cls(str(run.ROOT), str(out), seed, SMALL)
    w.build()
    return w


def off_by_1km(two_step):
    def stub(ms, noise=None):
        est = two_step(ms, noise)
        shift = np.zeros_like(est.p_hat)
        shift[0] = 1000.0
        return dataclasses.replace(est, p_hat=est.p_hat + shift)

    return stub


class MetricNames(unittest.TestCase):
    def test_every_metric_is_emitted_with_its_unit(self):
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            for name in workloads.WORKLOADS:
                with self.subTest(workload=name, trace=trace):
                    result, info, problems = run.run(name, 5, 0.5, trace, scale=SMALL)
                    self.assertEqual(problems, [])
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    got = {k: m["unit"] for k, m in result["metrics"].items()}
                    self.assertEqual(got, declared(key))
                    for metric in result["metrics"].values():
                        self.assertTrue(np.isfinite(metric["value"]))

    def test_bare_directory_exits_nonzero_without_result(self):
        bare = OUT / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "rounds-sweep",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


class Correctness(unittest.TestCase):
    def test_cli_estimate_1km_off_trips_the_check(self):
        w = make(workloads.FieldEstimate)
        with mock.patch.object(rssloc.cli, "two_step", off_by_1km(rssloc.cli.two_step)):
            w.run(0.1, False)
        self.assertTrue(any("!= library" in p for p in w.problems), w.problems)

    def test_library_1km_off_trips_the_rcrlb_check(self):
        # CLI and reference agree, so only the independent RCRLB oracle can tell.
        w = make(workloads.FieldEstimate)
        stub = off_by_1km(rssloc.two_step)
        with mock.patch.object(rssloc.cli, "two_step", stub), mock.patch.object(rssloc, "two_step", stub):
            w.run(0.1, False)
        self.assertTrue(any("x RCRLB" in p for p in w.problems), w.problems)
        self.assertFalse(any("!= library" in p for p in w.problems), w.problems)

    def test_sweep_estimator_1km_off_trips_the_efficiency_check(self):
        w = make(workloads.RoundsSweep)
        with mock.patch.object(rssloc.bench, "two_step", off_by_1km(rssloc.bench.two_step)):
            w.main_phase(0.1, min_passes=w.min_passes)
            ratio = w.efficiency_ratio()
        self.assertGreater(ratio, workloads.EFFICIENCY_LIMIT)

    def test_honest_sweep_passes_the_efficiency_check(self):
        w = make(workloads.RoundsSweep)
        w.main_phase(0.1, min_passes=w.min_passes)
        self.assertLessEqual(w.efficiency_ratio(), workloads.EFFICIENCY_LIMIT)
        self.assertEqual(w.problems, [])


class FailureCounting(unittest.TestCase):
    kinds = workloads.known_kinds()

    def classify(self, code, stderr="", exc=None):
        return workloads.classify(code, stderr, exc, self.kinds)

    def test_exit_codes_and_kinds(self):
        typed = json.dumps({"error": "singular-gram", "message": "m"}) + "\n"
        schema = json.dumps({"error": "schema", "message": "m"}) + "\n"
        self.assertEqual(self.classify(0), ("ok", None))
        self.assertEqual(self.classify(1, typed), ("failed", "singular-gram"))
        self.assertEqual(self.classify(2, schema), ("failed", "schema"))
        self.assertEqual(self.classify(1, "Traceback (most recent call last):\n")[0], "error")
        self.assertEqual(self.classify(1, json.dumps({"error": "no-such-kind"}))[0], "error")
        self.assertEqual(self.classify(1, "")[0], "error")
        self.assertEqual(self.classify(3, typed)[0], "error")
        self.assertEqual(self.classify(None, "", ValueError("boom"))[0], "error")
        self.assertEqual(self.classify(None, "", SystemExit(2))[0], "error")

    def test_field_files_are_counted(self):
        # The expected outcome of each file is the library's own: a typed
        # failure wherever two_step raises, success elsewhere.
        w = make(workloads.FieldEstimate)
        log = workloads.EstimateLog(w.files)
        expected_failures = 0
        for index, f in enumerate(w.files):
            try:
                workloads.reference_two_step(f.path)
                expected = ("ok", None)
            except rssloc.errors.RssLocError as exc:
                expected = ("failed", exc.kind)
                expected_failures += 1
            _, code, out, err, exc = workloads.run_estimate(f.path)
            self.assertEqual(workloads.classify(code, err, exc, self.kinds), expected, f.path)
            log.record(index, code, out, err, exc)
        self.assertEqual(log.failed, expected_failures)
        self.assertEqual(log.attempted, len(w.files))
        self.assertEqual(log.problems, [])

    def test_failed_timed_calls_are_counted(self):
        def singular(ms, noise=None):
            raise rssloc.errors.SingularGramError("stub")

        w = make(workloads.FieldEstimate)
        with mock.patch.object(rssloc.cli, "two_step", singular):
            w.loop(0.1)
        self.assertGreater(w.attempted, 0)
        self.assertEqual(w.failed, w.attempted)

    def test_untimed_files_count_in_ok_share_only(self):
        w = make(workloads.FieldEstimate)
        w.loop(0.1)
        attempted, failed = w.attempted, w.failed
        w.run_untimed()
        self.assertEqual((w.attempted, w.failed), (attempted, failed))
        self.assertEqual(len(w.log.first), len(w.files))
        ok = [f.path for i, f in enumerate(w.files) if w.log.first[i][0] == "ok"]
        self.assertEqual(w.ok_share(), len(ok) / len(w.files))


class Determinism(unittest.TestCase):
    def digest(self, seed):
        _, info, _ = run.run("rounds-sweep", seed, 0.1, False, scale=SMALL)
        (line,) = [line for line in info if line.startswith("digest ")]
        return line.split()[1]

    def test_same_seed_same_digest_other_seed_other_digest(self):
        first = self.digest(7)
        self.assertEqual(first, self.digest(7))
        self.assertNotEqual(first, self.digest(8))


if __name__ == "__main__":
    unittest.main()
