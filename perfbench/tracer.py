"""Span recording for the traced benchmark run, and the per-layer metrics.

Wrappers are installed on module-level names of the program, so every call
the program makes through one of those names is recorded without editing
the program. A span records (name, start, end, parent, attrs); a counted
site records only its number of calls, for functions called so often that a
span per call would cost more than the call. One span stack per process:
the traced program must run serially.

A site whose module or name no longer exists is skipped and listed in
`Tracer.missing`; its layer then reports zero calls.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

# (module, attribute, layer name, kind); kind "span" records a span per call,
# "count" only counts calls. Several sites may feed one layer: a function is
# wrapped wherever the program looks it up.
SITES = (
    ("amplasso.cli", "main", "cli.main", "span"),
    ("amplasso.cli", "run_sweep", "experiments.run_sweep", "span"),
    ("amplasso.cli", "write_records_csv", "experiments.write_records_csv", "span"),
    ("amplasso.experiments", "predicted_risk", "state_evolution.predicted_risk", "span"),
    ("amplasso.state_evolution", "predicted_risk", "state_evolution.predicted_risk", "span"),
    ("amplasso.experiments", "generate", "instances.generate", "span"),
    ("amplasso.experiments", "solve_lasso", "lasso.solve_lasso", "span"),
    ("amplasso.lasso", "spectral_norm", "lasso.spectral_norm", "span"),
    ("amplasso.experiments", "run_amp", "amp.run_amp", "span"),
    # run_amp's state-evolution sequence, computed before it iterates; a
    # child span, so it is kept out of amp.run_amp.self_s and amp.gbps
    ("amplasso.amp", "se_map", "amp.se_map", "span"),
    ("amplasso.amp", "invert_calibration", "state_evolution.invert_calibration", "span"),
    ("amplasso.state_evolution", "invert_calibration", "state_evolution.invert_calibration", "span"),
    ("amplasso.state_evolution", "fixed_point", "state_evolution.fixed_point", "count"),
    ("amplasso.experiments", "fixed_point", "state_evolution.fixed_point", "count"),
    ("amplasso.state_evolution", "mse_functional", "scalars.mse_functional", "count"),
)


def _observe_generate(args, result):
    return {"bytes": sum(int(getattr(result, f).nbytes) for f in ("A", "x0", "w", "y")),
            "key": [int(args["N"]), str(args["ensemble"]), int(args["seed"])]}


def _observe_solve_lasso(args, result):
    return {"iterations": int(result.iterations), "converged": bool(result.converged),
            "max_iter": int(args["max_iter"]), "a_bytes": int(args["A"].nbytes)}


def _observe_run_amp(args, result):
    state, _ = result
    return {"iterations": int(state.t), "a_bytes": int(args["instance"].A.nbytes)}


# attrs recorded on a layer's spans, from its bound arguments and its result
OBSERVERS = {
    "instances.generate": _observe_generate,
    "lasso.solve_lasso": _observe_solve_lasso,
    "amp.run_amp": _observe_run_amp,
}


class Tracer:
    """In-memory spans and call counts for one process."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, attrs]
        self.counts = {}
        self.missing = []
        self._stack = []

    def span_wrapper(self, name, fn):
        observe = OBSERVERS.get(name)
        try:
            signature = inspect.signature(fn)
        except (TypeError, ValueError):
            signature = None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, {}]
            self.spans.append(record)
            self._stack.append(index)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self._stack.pop()
            if observe is not None and signature is not None:
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    record[4] = observe(bound.arguments, result)
                except (AttributeError, KeyError, TypeError, ValueError):
                    record[4] = {}
            return result

        return wrapper

    def count_wrapper(self, name, fn):
        self.counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self, sites=SITES):
        for module_name, attr, name, kind in sites:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.missing.append(f"{module_name}.{attr}")
                continue
            make = self.span_wrapper if kind == "span" else self.count_wrapper
            setattr(module, attr, make(name, fn))

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": self.counts,
                       "missing": self.missing}, fh)


def self_times(spans):
    """Each span's duration minus the time covered by its direct children."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(end - start) - child[i] for i, (_, start, end, _, _) in enumerate(spans)]


def lasso_matvecs(iterations, max_iter):
    """Products with A or A^T in one FISTA solve (computed, not counted).

    Two per iteration (the gradient and the new image A x), one per KKT
    check (every 10th iteration and at max_iter), and one for the final cost.
    """
    checks = iterations // 10 + (1 if iterations == max_iter and iterations % 10 else 0)
    return 2 * iterations + checks + 1


def amp_matvecs(iterations):
    """Products with A or A^T in one AMP run: two per step, one at the end."""
    return 2 * iterations + 1


# per-layer metric name -> unit, in the order they are reported
LAYER_METRICS = {
    "lasso.spectral_norm.calls": "count",
    "lasso.spectral_norm.self_s": "s",
    "instances.generate.calls": "count",
    "instances.generate.self_s": "s",
    "instances.generate.reuse_ratio": "ratio",
    "instances.generate.bytes": "bytes",
    "lasso.solve_lasso.calls": "count",
    "lasso.solve_lasso.self_s": "s",
    "lasso.iterations": "count",
    "lasso.converged_frac": "ratio",
    "lasso.matvecs": "count",
    "lasso.gbps": "GB/s",
    "amp.run_amp.calls": "count",
    "amp.run_amp.self_s": "s",
    "amp.se_map.calls": "count",
    "amp.se_map.self_s": "s",
    "amp.iterations": "count",
    "amp.matvecs": "count",
    "amp.gbps": "GB/s",
    "machine.read_gbps": "GB/s",
    "state_evolution.predicted_risk.calls": "count",
    "state_evolution.predicted_risk.self_s": "s",
    "state_evolution.invert_calibration.calls": "count",
    "state_evolution.invert_calibration.self_s": "s",
    "state_evolution.fixed_point.calls": "count",
    "scalars.mse_functional.calls": "count",
    "experiments.run_sweep.self_s": "s",
    "experiments.write_records_csv.s": "s",
    "cli.main.s": "s",
    "trace.overhead_frac": "ratio",
}


def layer_metrics(traces):
    """Per-batch averages of the layer metrics over traced batches.

    `traces` holds one dumped Tracer per batch. Every batch of a workload
    does the same calls, so the call counts are exact integers. Returns
    {name: value} for every name in LAYER_METRICS except the two that need
    measurements from outside the trace (machine.read_gbps and
    trace.overhead_frac).
    """
    calls, self_s, total_s = {}, {}, {}
    attrs = {}
    for trace in traces:
        spans = trace["spans"]
        for (name, start, end, _, attr), own in zip(spans, self_times(spans)):
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + own
            total_s[name] = total_s.get(name, 0.0) + (end - start)
            attrs.setdefault(name, []).append(attr)
        for name, n in trace["counts"].items():
            calls[name] = calls.get(name, 0) + n
    batches = max(len(traces), 1)

    def per_batch(value):
        return value / batches

    gen = [a for a in attrs.get("instances.generate", []) if "key" in a]
    lasso = [a for a in attrs.get("lasso.solve_lasso", []) if "iterations" in a]
    amp = [a for a in attrs.get("amp.run_amp", []) if "iterations" in a]
    distinct = len({tuple(a["key"]) for a in gen})
    n_generate = calls.get("instances.generate", 0)
    lasso_mv = [lasso_matvecs(a["iterations"], a["max_iter"]) for a in lasso]
    amp_mv = [amp_matvecs(a["iterations"]) for a in amp]
    lasso_bytes = sum(m * a["a_bytes"] for m, a in zip(lasso_mv, lasso))
    amp_bytes = sum(m * a["a_bytes"] for m, a in zip(amp_mv, amp))

    def rate(nbytes, seconds):
        return nbytes / seconds / 1e9 if seconds > 0 else 0.0

    out = {}
    for layer in ("lasso.spectral_norm", "instances.generate", "lasso.solve_lasso",
                  "amp.run_amp", "amp.se_map", "state_evolution.predicted_risk",
                  "state_evolution.invert_calibration"):
        out[f"{layer}.calls"] = per_batch(calls.get(layer, 0))
        out[f"{layer}.self_s"] = per_batch(self_s.get(layer, 0.0))
    out["instances.generate.reuse_ratio"] = distinct / n_generate if n_generate else 0.0
    out["instances.generate.bytes"] = per_batch(sum(a["bytes"] for a in gen))
    out["lasso.iterations"] = per_batch(sum(a["iterations"] for a in lasso))
    out["lasso.converged_frac"] = (sum(a["converged"] for a in lasso) / len(lasso)) if lasso else 0.0
    out["lasso.matvecs"] = per_batch(sum(lasso_mv))
    out["lasso.gbps"] = rate(lasso_bytes, self_s.get("lasso.solve_lasso", 0.0))
    out["amp.iterations"] = per_batch(sum(a["iterations"] for a in amp))
    out["amp.matvecs"] = per_batch(sum(amp_mv))
    out["amp.gbps"] = rate(amp_bytes, self_s.get("amp.run_amp", 0.0))
    out["state_evolution.fixed_point.calls"] = per_batch(calls.get("state_evolution.fixed_point", 0))
    out["scalars.mse_functional.calls"] = per_batch(calls.get("scalars.mse_functional", 0))
    out["experiments.run_sweep.self_s"] = per_batch(self_s.get("experiments.run_sweep", 0.0))
    out["experiments.write_records_csv.s"] = per_batch(total_s.get("experiments.write_records_csv", 0.0))
    out["cli.main.s"] = per_batch(total_s.get("cli.main", 0.0))
    return out

