"""Layered benchmark of rssloc.

    python3 perfbench/run.py --workload rounds-sweep --seed 1 --seconds 25 --trace 0

Runs one workload (rounds-sweep, random-deploy or field-estimate) against the
rssloc sources in ``src/`` of the checkout this file sits in, checks the
outputs, and prints one line per metric followed by a JSON summary as the
last line. ``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs
the workload untraced and then traced, and reports per-layer metrics from the
spans (written to .perfbench_out/). Timings are normalised to a reference
machine speed (speed.py); raw wall-clock figures are printed beside them.
See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One process, one worker thread: keep BLAS from starting a pool.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5

END_TO_END = (
    ("setup_s", "s"),
    ("trials_per_s", "1/s"),
    ("ok_share", "share"),
    ("efficiency_ratio", "ratio"),
    ("estimate_p50_ms", "ms"),
    ("estimate_tail_ms", "ms"),
    ("estimate_large_p50_ms", "ms"),
    ("estimate_cold_ms", "ms"),
)


def import_rssloc():
    """Import rssloc from this checkout's src/, or exit without a result."""
    if not (SRC / "rssloc" / "__init__.py").is_file():
        sys.exit(f"perfbench: no rssloc sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import rssloc

    if Path(rssloc.__file__).resolve().parent != SRC / "rssloc":
        sys.exit(f"perfbench: imported rssloc from {rssloc.__file__}, not from {SRC}")
    return rssloc


def import_seconds():
    """Wall time of ``import rssloc`` in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import rssloc; print(time.perf_counter() - t)"
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    if proc.returncode != 0:
        sys.exit(f"perfbench: importing rssloc failed: {proc.stderr.strip()}")
    return float(proc.stdout)


def setup_seconds(workload):
    """Median import time plus median build time over SETUP_REPEATS set-ups,
    normalised by the speed reference; returns (normalised, raw)."""
    from workloads import Timings

    def build_seconds():
        t0 = time.perf_counter()
        workload.build()
        return time.perf_counter() - t0

    imports, builds = Timings(), Timings()
    for seconds, timings in ((import_seconds, imports), (build_seconds, builds)):
        for _ in range(SETUP_REPEATS):
            before = workload.speed.measure(runs=3)
            raw = seconds()
            timings.add(raw, (before + workload.speed.measure(runs=3)) / 2)
    median = statistics.median
    return median(imports.norm) + median(builds.norm), median(imports.raw) + median(builds.raw)


def src_lines():
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in (SRC / "rssloc").rglob("*.py"))


def layer_metrics(workload, tracer, out_dir):
    import tracing

    trials, by_n = workload.trace_counts()
    traced_trials, traced_norm, traced_raw = workload.traced
    metrics = tracing.summarize(tracer, trials, by_n, time_scale=traced_norm / traced_raw)
    untraced_rate = workload.untraced[0] / workload.untraced[1]
    traced_rate = traced_trials / traced_norm
    metrics["trace.overhead_pct"] = (untraced_rate / traced_rate - 1.0) * 100.0
    metrics["trace.trial_us"] = 1e6 / traced_rate
    metrics["geometry.verdict_mismatch"] = float(getattr(workload, "verdict_mismatch", 0))
    metrics["bench.src_lines"] = float(src_lines())
    spans_path = out_dir / f"spans-seed{workload.seed}.csv"
    tracer.write(spans_path)
    workload.info.append(f"{len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")
    if tracer.missing:
        workload.info.append(f"not traced (absent): {', '.join(tracer.missing)}")
    return {name: (metrics[name], unit) for name, unit in tracing.per_layer_metrics()}


def run(workload_name, seed, seconds, trace, scale=1.0):
    """Run one workload; returns (result dict, info lines, problems)."""
    import numpy as np
    import rssloc
    import workloads

    out_dir = ROOT / ".perfbench_out" / workload_name
    out_dir.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[workload_name](str(ROOT), str(out_dir), seed, scale)
    setup, setup_raw = setup_seconds(workload)
    metrics, tracer = workload.run(seconds, trace)
    if trace:
        named = layer_metrics(workload, tracer, out_dir)
    else:
        metrics["setup_s"] = setup
        units = dict(END_TO_END)
        named = {name: (metrics[name], units[name]) for name, _ in END_TO_END}
    info = [
        f"workload {workload_name} seed {seed} seconds {seconds} trace {trace}",
        f"env python {platform.python_version()} numpy {np.__version__} "
        f"rssloc {rssloc.__version__} cores {os.cpu_count()} src_lines {src_lines()}",
        f"setup_s {setup:.6g} (median of {SETUP_REPEATS} imports + median of {SETUP_REPEATS} builds; "
        f"raw wall clock {setup_raw:.6g})",
    ] + workload.info
    result = {
        "correct": not workload.problems,
        "attempted": int(workload.attempted),
        "failed": int(workload.failed),
        "metrics": {name: {"value": float(value), "unit": unit} for name, (value, unit) in named.items()},
    }
    return result, info, workload.problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("rounds-sweep", "random-deploy", "field-estimate"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    # Pin to one core so that the speed reference, the workload and its child
    # processes run on the same core.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    import_rssloc()
    result, info, problems = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in info:
        print(line)
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
