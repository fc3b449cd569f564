"""Machine-speed reference for the benchmark's timings.

The 2-vCPU machine this benchmark was tuned on switches between a fast and a
slow mode for tens of seconds at a time (one ``two_step`` call takes 0.20 or
0.33 ms), so raw wall-clock medians moved by 25-50 % between runs of the same
code. Each timed operation is therefore paired with a fixed reference kernel
run just before it (and, for operations longer than a second, also just
after it) on the same core, and reported as

    normalised = raw * REFERENCE_S / reference kernel time,

that is, in seconds of a machine on which the kernel takes REFERENCE_S (about
this machine's typical speed). The kernel is the benchmark's own code and does
not use rssloc: small numpy least-squares solves, JSON parsing and encoding,
and small Python objects, the same mix as one rssloc estimate. Cold starts of
a process are referred instead to a fresh interpreter that imports numpy,
which costs most of such a start (COLD_REFERENCE_S). Raw times are printed
next to the normalised ones.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

REFERENCE_S = 0.0015
COLD_REFERENCE_S = 0.2


@dataclass(frozen=True)
class _Fit:
    p: np.ndarray
    condition: float


def _ls_gn(sensors, y):
    """Linear LS position estimate plus one Gauss-Newton step."""
    design = np.hstack([-2.0 * sensors, np.ones((sensors.shape[0], 1))])
    rhs = np.power(10.0, 2.0 * y) - np.sum(sensors**2, axis=1)
    s = np.linalg.svd(design, compute_uv=False)
    p = np.linalg.lstsq(design, rhs, rcond=None)[0][:2]
    d = np.linalg.norm(sensors - p, axis=1)
    jac = (p - sensors) / (d[:, None] ** 2 * math.log(10))
    step = np.linalg.lstsq(jac, y - np.log10(d), rcond=None)[0]
    return _Fit(p + step, float(s[0] / s[-1]))


class SpeedReference:
    """Times the reference kernel."""

    def __init__(self):
        rng = np.random.default_rng(20250519)
        self._a = rng.normal(size=(300, 4))
        self._b = rng.normal(size=300)
        source = np.array([70.0, 30.0])
        small = rng.uniform(-50.0, 50.0, size=(30, 2))
        self._text = json.dumps({
            "sensors": small.tolist(),
            "raw_db": (-20.0 * np.log10(np.linalg.norm(small - source, axis=1))).tolist(),
            "alpha": 2.0,
        })
        self._large = rng.uniform(-50.0, 50.0, size=(2000, 2))
        self._large_y = np.log10(np.linalg.norm(self._large - source, axis=1)) + rng.normal(
            0.0, 0.1, size=2000
        )
        self.samples = []

    def _kernel(self):
        total = 0.0
        for _ in range(10):
            x = np.linalg.lstsq(self._a, self._b, rcond=None)[0]
            total += float(np.linalg.norm(self._a @ x - self._b)) + sum(i * 0.5 for i in range(50))
        for _ in range(2):
            payload = json.loads(self._text)
            sensors = np.asarray(payload["sensors"], dtype=float)
            y = -np.asarray(payload["raw_db"], dtype=float) / 10.0 / payload["alpha"]
            fit = _ls_gn(sensors, y)
            total += len(json.dumps({"p": fit.p.tolist(), "condition": fit.condition}))
        return total + float(_ls_gn(self._large, self._large_y).p[0])

    def measure(self, runs=1):
        """Median of ``runs`` kernel runs, in seconds."""
        times = []
        for _ in range(runs):
            t0 = time.perf_counter()
            self._kernel()
            times.append(time.perf_counter() - t0)
        value = sorted(times)[runs // 2]
        self.samples.append(value)
        return value



def process_seconds(cwd, env):
    """Wall time of a fresh interpreter importing json, argparse and numpy."""
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import json, argparse, numpy"],
        cwd=cwd, env=env, check=True, capture_output=True, timeout=120,
    )
    return time.perf_counter() - t0


def normalise(raw_seconds, reference_seconds, nominal_seconds=REFERENCE_S):
    """A raw time scaled to a machine on which the reference takes nominal_seconds."""
    return raw_seconds * nominal_seconds / reference_seconds
