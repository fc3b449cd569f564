"""Span tracing of rssloc from outside the package.

``installed(tracer)`` replaces the public functions of ``model``,
``inference``, ``estimators``, ``geometry``, ``bench`` and ``cli`` (and the
constructors of the model dataclasses) with wrappers that record one span per
call: name, start, end, parent span and trial id. Every rssloc module that
bound the same function object is patched, so calls between modules are seen
too. The originals are restored on exit.

A trial's id is (operation, sweep_index, trial): the benchmark sets the
operation, and the wrapper of ``trial_rng`` reads sweep_index and trial from
its substream path. Spans stay in memory until ``write`` at the end of a run.
"""

from __future__ import annotations

import importlib
import sys
import time
from contextlib import contextmanager

import numpy as np

# (module, attribute path, span name). Several targets may share a span name:
# nested spans of one name are fine, self time subtracts only children.
TARGETS = (
    ("rssloc.model", "trial_rng", "model.trial_rng"),
    ("rssloc.model", "Scenario.__post_init__", "model.scenario"),
    ("rssloc.model", "Scenario.with_rounds", "model.scenario"),
    ("rssloc.model", "Scenario.with_sigma", "model.scenario"),
    ("rssloc.bench", "RandomScenarioFamily.sample", "model.scenario"),
    ("rssloc.model", "NoiseModel.__post_init__", "model.noise_model"),
    ("rssloc.model", "generate_measurements", "model.generate"),
    ("rssloc.model", "MeasurementSet.__post_init__", "model.measurement_set"),
    ("rssloc.model", "equivalent_measurement", "model.equivalent"),
    ("rssloc.inference", "fisher_information", "inference.fisher"),
    ("rssloc.estimators", "ls_known_variance", "estimators.ls_known"),
    ("rssloc.estimators", "ls_unknown_variance", "estimators.ls_unknown"),
    ("rssloc.estimators", "gn_step", "estimators.gn_step"),
    ("rssloc.estimators", "two_step", "estimators.two_step"),
    ("rssloc.estimators", "ml_reference", "estimators.ml_reference"),
    ("rssloc.geometry", "localizability", "geometry.localizability"),
    ("rssloc.bench", "run_experiment", "bench.run_experiment"),
    ("rssloc.cli", "main", "cli.estimate"),
)

# Layers reported as calls and self time per trial, overall and at n = 30 and
# n = 4000 measurements (the two ends of the acceptance rounds sweep).
PER_N_LAYERS = (
    "model.trial_rng", "model.scenario", "model.noise_model", "model.generate",
    "inference.fisher", "estimators.ls_known", "estimators.ls_unknown",
    "estimators.gn_step", "estimators.two_step", "estimators.ml_reference",
)
N_SUFFIXES = (30, 4000)
FAILURE_KINDS = (
    "singular-gram", "degenerate-jacobian", "singular-point", "numeric",
    "invalid-input",
)


def per_layer_metrics():
    """Every per-layer metric as (name, unit), in output order."""
    out = []
    for suffix in ("",) + tuple(f".n{n}" for n in N_SUFFIXES):
        for layer in PER_N_LAYERS:
            out.append((f"{layer}.calls{suffix}", "1/trial"))
            out.append((f"{layer}.self_us{suffix}", "us"))
        out.append((f"model.measurements.bytes_per_trial{suffix}", "B/trial"))
        out.append((f"cli.estimate.self_us{suffix}", "us"))
    out += [
        ("model.measurement_set.self_us", "us"),
        ("model.equivalent.self_us", "us"),
        ("estimators.ml.iterations_p50", "count"),
        ("estimators.ml.iterations_p90", "count"),
        ("estimators.ml.nonconverged", "share"),
        ("estimators.two_step.degraded", "share"),
    ]
    out += [(f"estimators.failed.{kind}", "1/trial") for kind in FAILURE_KINDS + ("other",)]
    out += [
        ("geometry.localizability.self_us", "us"),
        ("geometry.verdict_mismatch", "count"),
        ("bench.run_experiment.self_us", "us"),
        ("bench.src_lines", "lines"),
        ("trace.trial_us", "us"),
        ("trace.overhead_pct", "%"),
    ]
    return out


class Tracer:
    """In-memory span recorder. Each span is a list
    [name, start_ns, end_ns, parent, trial, n, outcome]."""

    def __init__(self):
        self.spans = []
        self._open = []
        self.op = 0
        self.trial = None
        self.trial_n = None
        # Measurement count per sweep index, set by sweep workloads.
        self.sweep_n = ()
        self.missing = []

    def begin_op(self, op, n=None):
        """Start a benchmark operation; spans until the next trial_rng call
        belong to it."""
        self.op = op
        self.trial = (op,)
        self.trial_n = n

    def wrap(self, fn, name):
        spans, stack = self.spans, self._open
        clock = time.perf_counter_ns
        is_rng = name == "model.trial_rng"

        def traced(*args, **kwargs):
            if is_rng and len(args) >= 3:
                self.trial = (self.op, args[1], args[2])
                self.trial_n = self.sweep_n[args[1]] if args[1] < len(self.sweep_n) else None
            record = [name, 0, 0, stack[-1] if stack else -1, self.trial, self.trial_n, None]
            spans.append(record)
            stack.append(len(spans) - 1)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                record[2] = clock()
                record[6] = getattr(exc, "kind", "other")
                raise
            else:
                record[2] = clock()
                record[6] = _outcome(name, args, result)
                return result
            finally:
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start_ns,end_ns,parent,trial,n\n")
            for name, start, end, parent, trial, n, _ in self.spans:
                key = "/".join(str(part) for part in trial) if trial else ""
                fh.write(f"{name},{start},{end},{parent},{key},{'' if n is None else n}\n")


def _outcome(name, args, result):
    """The part of a result that per-layer counters need, or None."""
    if name == "model.measurement_set":
        ms = args[0]
        raw = 0 if ms.raw_db is None else ms.raw_db.nbytes
        return ms.sensor_coords.nbytes + ms.y.nbytes + raw
    if name == "estimators.ml_reference":
        return (result.gn_iterations, result.converged)
    if name == "estimators.two_step":
        return result.refinement_degraded
    return None


def _resolve(module_name, path):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, attr, None
    return owner, attr, getattr(owner, attr, None)


@contextmanager
def installed(tracer):
    """Patch every TARGETS entry for the duration of the block."""
    patches = []
    resolved = [(_resolve(module_name, path), module_name, path, name) for module_name, path, name in TARGETS]
    modules = [m for k, m in list(sys.modules.items()) if k == "rssloc" or k.startswith("rssloc.")]
    try:
        for (owner, attr, original), module_name, path, name in resolved:
            if original is None:
                tracer.missing.append(f"{module_name}.{path}")
                continue
            wrapper = tracer.wrap(original, name)
            if isinstance(owner, type):
                patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                if getattr(module, attr, None) is original:
                    patches.append((module, attr, original))
                    setattr(module, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


def summarize(tracer, trials, trials_by_n, time_scale=1.0):
    """Per-layer metrics from the recorded spans.

    ``trials`` is the number of trials (or estimate operations) traced and
    ``trials_by_n`` maps a measurement count to its share of them. Self time
    and calls are per trial; geometry.localizability is per call because it
    runs once per input file, outside the trials. Times are multiplied by
    ``time_scale``, the traced phase's speed normalisation.
    """
    spans = tracer.spans
    child_ns = np.zeros(len(spans))
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    self_ns, calls = {}, {}
    failed = dict.fromkeys(FAILURE_KINDS + ("other",), 0)
    iterations, nonconverged, two_steps, degraded = [], 0, 0, 0
    loc_self = []
    for i, (name, start, end, parent, trial, n, outcome) in enumerate(spans):
        own = (end - start - child_ns[i]) * time_scale
        for key in {(name, None), (name, n)}:
            self_ns[key] = self_ns.get(key, 0.0) + own
            calls[key] = calls.get(key, 0) + 1
        if name == "geometry.localizability":
            loc_self.append(own)
        if name.startswith("estimators."):
            if isinstance(outcome, str):
                top_level = parent < 0 or not spans[parent][0].startswith("estimators.")
                if top_level:
                    failed[outcome if outcome in failed else "other"] += 1
            elif name == "estimators.ml_reference" and outcome is not None:
                iterations.append(outcome[0])
                nonconverged += not outcome[1]
            elif name == "estimators.two_step" and outcome is not None:
                two_steps += 1
                degraded += bool(outcome)

    def per_trial(value, count):
        return value / count if count else 0.0

    metrics = {}
    groups = [("", None, trials)] + [(f".n{n}", n, trials_by_n.get(n, 0)) for n in N_SUFFIXES]
    for suffix, n, count in groups:
        for layer in PER_N_LAYERS:
            metrics[f"{layer}.calls{suffix}"] = per_trial(calls.get((layer, n), 0), count)
            metrics[f"{layer}.self_us{suffix}"] = per_trial(self_ns.get((layer, n), 0.0) / 1e3, count)
        metrics[f"model.measurements.bytes_per_trial{suffix}"] = per_trial(
            sum(s[6] for s in spans if s[0] == "model.measurement_set"
                and s[6] is not None and (n is None or s[5] == n)),
            count,
        )
        metrics[f"cli.estimate.self_us{suffix}"] = per_trial(
            self_ns.get(("cli.estimate", n), 0.0) / 1e3, count
        )
    for layer in ("model.measurement_set", "model.equivalent"):
        metrics[f"{layer}.self_us"] = per_trial(self_ns.get((layer, None), 0.0) / 1e3, trials)
    metrics["estimators.ml.iterations_p50"] = float(np.percentile(iterations, 50)) if iterations else 0.0
    metrics["estimators.ml.iterations_p90"] = float(np.percentile(iterations, 90)) if iterations else 0.0
    metrics["estimators.ml.nonconverged"] = per_trial(nonconverged, len(iterations))
    metrics["estimators.two_step.degraded"] = per_trial(degraded, two_steps)
    for kind, count in failed.items():
        metrics[f"estimators.failed.{kind}"] = per_trial(count, trials)
    metrics["geometry.localizability.self_us"] = float(np.median(loc_self)) / 1e3 if loc_self else 0.0
    metrics["bench.run_experiment.self_us"] = per_trial(
        self_ns.get(("bench.run_experiment", None), 0.0) / 1e3, trials
    )
    return metrics
