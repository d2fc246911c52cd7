"""The amplasso benchmark: one workload per invocation, end to end or traced.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; amplasso is imported from its src/. Work is
done in batches, each a fresh child process measured from outside with
os.wait4 (wall, user+system CPU, peak RSS). A (workload, seed) pair fixes a
set of batches 0..K-1, each on its own inputs; a run makes one pass over the
set, then repeats whole passes while another fits in --seconds, so what is
checked depends only on the code and the seed. With --trace 0 the last line
of stdout is the end-to-end metrics; with --trace 1 each batch runs once
untraced and once traced on the same inputs and the last line is the
per-layer metrics.
See perfbench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from checks import (AMP_LASSO_GAP_MAX, median_gap_failures, sweep_failures,  # noqa: E402
                    theory_failures, theory_units)
from child import load_params  # noqa: E402
from tracer import LAYER_METRICS, layer_metrics  # noqa: E402

SETUP_PROBES = 5

README_PARAMS = {"delta": 0.64, "sigma2": 0.2, "prior": "three_point_0.064"}
README_LAMBDAS = [0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4, 1.6, 1.8, 2.0]


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "sweep" (amplasso sweep CLI) or "theory" (library calls)
    config: dict
    batches: int  # K, the fixed batches of a run with --trace 0
    traced_batches: int  # the first ones of those, run with --trace 1; at least 3
    # on the sweeps, so that the median gap check of a penalty sees 3 instances


def sweep_config(lambda_grid, N):
    return {**README_PARAMS, "lambda_grid": lambda_grid, "N_list": [N], "seeds": [0],
            "ensemble": "gaussian", "amp_t_max": 200, "amp_policy": "residual",
            "lasso_tol": 1e-8}


WORKLOADS = {
    w.name: w for w in (
        # ten penalties share each 20 MB matrix (fits in L3): instance reuse,
        # pathwise warm starts and batching across penalties act here
        Workload("grid_n2000", "sweep", sweep_config(README_LAMBDAS, 2000), 5, 3),
        # one penalty on a 128 MB matrix (larger than L3): nothing is shared,
        # matvecs are memory-bound, the spectral norm dominates
        Workload("single_lambda_n5000", "sweep", sweep_config([1.0], 5000), 5, 3),
        # scalar recursion only (no matrices): calibration and fixed points
        Workload("theory_se", "theory", README_PARAMS, 8, 3),
    )
}


@dataclass
class Batch:
    k: int  # index in the fixed set; a repeat of batch k has the same inputs
    units: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    failures: list  # ids of the units that failed a correctness check


class Runner:
    """Starts child processes inside a work directory."""

    def __init__(self, root, work):
        self.root = root
        self.work = work
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.join(root, "src"), os.environ.get("PYTHONPATH")) if p)
        self.files = 0

    def fresh(self, name):
        """A path in the work directory that no earlier call returned, so a
        repeated batch never reads what an earlier one wrote."""
        self.files += 1
        return os.path.join(self.work, f"{self.files}-{name}")

    def child(self, argv):
        """Run argv to completion; returns (exit code, wall s, rusage, log path)."""
        log = self.fresh("child.log")
        with open(log, "w") as out:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env, stdout=out,
                                    stderr=subprocess.STDOUT)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage, log

    def batch(self, argv, k, units):
        """One measured batch (failures not yet checked) and its exit code."""
        code, wall, usage, _ = self.child(argv)
        return Batch(k=k, units=units, wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime,
                     rss_mb=usage.ru_maxrss / 1024.0, failures=[]), code


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return path


def theory_spec(seed, k):
    """Inputs of theory round k: the README parameters with a drawn penalty
    grid plus the pinned lambda = 1.0, and one drawn parameter set."""
    rng = random.Random(seed * 1000 + k)
    eps = rng.uniform(0.06, 0.15)
    drawn = {"delta": rng.uniform(0.5, 0.8), "sigma2": rng.uniform(0.1, 0.4),
             "prior": {"atoms": [-1.0, 0.0, 1.0], "weights": [eps / 2, 1.0 - eps, eps / 2]}}
    grid = [sorted(rng.uniform(0.2, 2.0) for _ in range(20)) for _ in range(2)]
    return {"params": [README_PARAMS, drawn], "lambdas": [grid[0] + [1.0], grid[1]],
            "bracket": [0.05, 2.0]}


def _calibrate(root):
    sys.path.insert(0, os.path.join(root, "src"))
    from amplasso.state_evolution import calibrate_lambda

    return lambda obj, alpha: calibrate_lambda(load_params(obj), alpha)


class SweepBatches:
    """Batch k runs `amplasso sweep` once on the workload config with
    --seed-base seed*1000 + k: one instance per penalty of the grid. Each
    cell is checked on its own after its batch; the median AMP-to-LASSO gap
    of each penalty is checked after all batches ran."""

    def __init__(self, workload, runner, seed):
        self.config = workload.config
        self.runner = runner
        self.seed = seed
        self.config_path = _write_json(os.path.join(runner.work, "config.json"), self.config)
        self.done = []  # (batch, its cells)
        self.gaps = {}  # amp_lasso_gap of each cell that passed its own checks
        self.notes = {}

    def run(self, k, spans=None):
        base = self.seed * 1000 + k
        out = self.runner.fresh(f"out{k}")
        cli = ["sweep", "--config", self.config_path, "--out", out, "--seed-base", str(base)]
        if spans:
            argv = [sys.executable, os.path.join(HERE, "child.py"), "cli", spans, "--"] + cli
        else:
            argv = [sys.executable, "-m", "amplasso.cli"] + cli
        cells = [(float(lam), int(N), base + int(s)) for lam in self.config["lambda_grid"]
                 for N in self.config["N_list"] for s in self.config["seeds"]]
        batch, code = self.runner.batch(argv, k, len(cells))
        batch.failures, gaps = sweep_failures(os.path.join(out, "sweep.csv"), cells,
                                              self.config["lasso_tol"], code)
        self.gaps.update(gaps)
        self.done.append((batch, cells))
        return batch

    def finish(self):
        bad = set(median_gap_failures(self.gaps))
        for batch, cells in self.done:
            batch.failures += [c for c in cells if c in bad and c not in batch.failures]
        # cells above criterion 3's bound that pass it on the median: the
        # finite-N tail described in checks.py, listed in the report line
        self.notes = {"cells_gap_over_criterion3": sorted(
            cell for cell, gap in self.gaps.items() if gap >= AMP_LASSO_GAP_MAX)}


class TheoryBatches:
    """Batch k is one round of theory queries on theory_spec(seed, k); its
    outputs are checked after all batches ran, outside the timed children."""

    def __init__(self, workload, runner, seed):
        self.runner = runner
        self.seed = seed
        self.config_path = _write_json(os.path.join(runner.work, "config.json"), workload.config)
        self.pending = []
        self.notes = {}

    def run(self, k, spans=None):
        spec = theory_spec(self.seed, k)
        spec_path = _write_json(self.runner.fresh(f"theory{k}.json"), spec)
        out = self.runner.fresh(f"result{k}.json")
        argv = [sys.executable, os.path.join(HERE, "child.py"), "theory", spec_path, out]
        if spans:
            argv += ["--spans", spans]
        batch, code = self.runner.batch(argv, k, len(theory_units(spec)))
        self.pending.append((batch, code, spec, out))
        return batch

    def finish(self):
        calibrate = _calibrate(self.runner.root)
        for batch, code, spec, out in self.pending:
            try:
                with open(out) as fh:
                    results = json.load(fh)
            except (OSError, ValueError):
                results = None
            if code != 0 or results is None:
                failures = theory_units(spec)
            else:
                failures = theory_failures(spec, results, calibrate)
            batch.failures = [(batch.k,) + unit for unit in failures]


def measure(batches, count, seconds, traced):
    """Run batches 0..count-1, then repeat that whole pass while another
    pass is predicted to end within `seconds` of the start.

    The first pass always runs in full and every pass has the same inputs,
    so which units are checked, and the mix of work behind the timings, do
    not depend on the speed of the host. Returns (plain batches, traced
    batches, dumped traces)."""
    plain, with_trace, traces = [], [], []
    start = time.monotonic()
    passes = 0
    while True:
        for k in range(count):
            plain.append(batches.run(k))
            if traced:
                spans = batches.runner.fresh(f"spans{k}.json")
                with_trace.append(batches.run(k, spans=spans))
                try:
                    with open(spans) as fh:
                        traces.append(json.load(fh))
                except (OSError, ValueError):
                    pass
        passes += 1
        now = time.monotonic()
        if now + (now - start) / passes > start + seconds:
            break
    batches.finish()
    return plain, with_trace, traces


def summary(values):
    return {"median": statistics.median(values), "min": min(values), "max": max(values),
            "n": len(values)}


def setup_times(runner, kind, config_path):
    """Wall time of fresh processes that import amplasso.cli and load and
    validate the workload config; also checks that amplasso came from src/."""
    times = []
    src = os.path.realpath(os.path.join(runner.root, "src"))
    for _ in range(SETUP_PROBES):
        code, wall, _, log = runner.child(
            [sys.executable, os.path.join(HERE, "child.py"), "setup", kind, config_path])
        with open(log) as fh:
            origin = fh.read().strip()
        if code != 0 or not origin.startswith(src + os.sep):
            raise RuntimeError(f"set-up child failed (exit {code}): {origin[-500:]}")
        times.append(wall)
    return times


def provenance(runner, seed, probe):
    code, _, _, log = runner.child([sys.executable, os.path.join(HERE, "child.py"),
                                    "provenance"] + (["--probe"] if probe else []))
    with open(log) as fh:
        text = fh.read()
    info = json.loads(text.strip().splitlines()[-1]) if code == 0 else {"error": text[-500:]}
    digest = hashlib.sha256()
    src = os.path.join(runner.root, "src", "amplasso")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    commit = None
    if os.path.isdir(os.path.join(runner.root, ".git")):
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=runner.root,
                             capture_output=True, text=True)
        commit = git.stdout.strip() or None
    info.update(git_commit=commit, src_sha256=digest.hexdigest(), seed=seed)
    return info


def tally(batches):
    """(units attempted, ids of the units that failed). A unit is counted
    once however often its batch ran, and fails if any run of it failed."""
    units = {b.k: b.units for b in batches}
    failed = dict.fromkeys(f for b in batches for f in b.failures)
    return sum(units.values()), list(failed)


def end_to_end(plain, setup):
    attempted, failed = tally(plain)
    samples = {
        "units_per_s": ([b.units / b.wall_s for b in plain], "1/s"),
        "cpu_s_per_unit": ([b.cpu_s / b.units for b in plain], "s"),
        "peak_rss_mb": ([b.rss_mb for b in plain], "MB"),
        "setup_s": (setup, "s"),
    }
    metrics = {name: {"value": statistics.median(v), "unit": unit}
               for name, (v, unit) in samples.items()}
    metrics["pass_frac"] = {"value": 1.0 - len(failed) / attempted, "unit": "ratio"}
    detail = {name: summary(v) for name, (v, _) in samples.items()}
    detail["fail_frac"] = len(failed) / attempted
    return metrics, detail


def per_layer(plain, with_trace, traces, info):
    values = layer_metrics(traces)
    values["machine.read_gbps"] = info.get("read_gbps", 0.0)
    untraced = statistics.median(b.units / b.wall_s for b in plain)
    traced = statistics.median(b.units / b.wall_s for b in with_trace)
    values["trace.overhead_frac"] = 1.0 - traced / untraced
    return {name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS.items()}


def run(workload, seed, seconds, trace, root):
    scratch = os.path.join(root, ".bench_build", "perfbench")
    os.makedirs(scratch, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=scratch)
    try:
        runner = Runner(root, work)
        kind = SweepBatches if workload.kind == "sweep" else TheoryBatches
        batches = kind(workload, runner, seed)
        setup = [] if trace else setup_times(runner, workload.kind, batches.config_path)
        info = provenance(runner, seed, probe=bool(trace))
        count = workload.traced_batches if trace else workload.batches
        plain, with_trace, traces = measure(batches, count, seconds, bool(trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted, failed = tally(plain + with_trace)
    if trace:
        metrics = per_layer(plain, with_trace, traces, info)
        detail = {"traced_batches": len(traces),
                  "missing_sites": sorted({m for t in traces for m in t["missing"]})}
    else:
        metrics, detail = end_to_end(plain, setup)
    detail["failed_units"] = failed
    detail.update(batches.notes)
    report = {"workload": workload.name, "provenance": info,
              "batches": [vars(b) for b in plain], "detail": detail}
    return report, {"correct": not failed, "attempted": attempted, "failed": len(failed),
                    "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "amplasso", "cli.py")):
        print("error: run from the root of an amplasso checkout (src/amplasso not found)",
              file=sys.stderr)
        return 2
    report, result = run(WORKLOADS[args.workload], args.seed, args.seconds, args.trace, root)
    for name, m in result["metrics"].items():
        print(f"{name:44s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
