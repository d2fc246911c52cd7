"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import csv
import json
import os
import sys
import time
import types

import numpy as np
import pytest

import amplasso.lasso
import child
import run
from amplasso.amp import run_amp
from amplasso.instances import generate
from amplasso.state_evolution import SEParams
from amplasso.scalars import get_preset
from checks import median_gap_failures, sweep_failures, theory_failures
from conftest import ROOT
from tracer import (LAYER_METRICS, Tracer, amp_matvecs, lasso_matvecs, layer_metrics,
                    self_times)

TINY_LAMBDAS = [0.8, 1.2]


def _declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def _tiny_main(monkeypatch, capsys, trace):
    tiny = run.Workload("grid_n2000", "sweep", run.sweep_config(TINY_LAMBDAS, 400), 1, 1)
    monkeypatch.setitem(run.WORKLOADS, "grid_n2000", tiny)
    monkeypatch.chdir(ROOT)
    assert run.main(["--workload", "grid_n2000", "--seed", "3", "--seconds", "0.1",
                     "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_prints_every_declared_metric_with_its_unit(monkeypatch, capsys, trace, kind):
    lines, result = _tiny_main(monkeypatch, capsys, trace)
    declared = _declared(kind)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    for name, unit in declared.items():
        assert any(line.split()[:1] == [name] and line.split()[-1] == unit for line in lines)
    if trace:
        m = {name: v["value"] for name, v in result["metrics"].items()}
        # one instance per batch, regenerated and re-normed for every penalty
        assert m["lasso.spectral_norm.calls"] == len(TINY_LAMBDAS)
        assert m["instances.generate.calls"] == len(TINY_LAMBDAS)
        assert m["instances.generate.reuse_ratio"] == 1 / len(TINY_LAMBDAS)
        assert m["lasso.converged_frac"] == 1.0


def test_declared_per_layer_metrics_match_the_tracer():
    assert _declared("per_layer") == LAYER_METRICS


def _write_sweep_csv(path, rows, seed=7):
    """rows: (lambda, kkt_residual) or (lambda, kkt_residual, amp_lasso_gap)."""
    columns = ["lambda", "N", "seed", "ensemble", "mse_lasso", "mse_amp", "mse_predicted",
               "amp_lasso_gap", "l1_lasso", "l1_predicted", "kkt_residual", "error"]
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        for lam, kkt, *gap in rows:
            writer.writerow({"lambda": lam, "N": 2000, "seed": seed, "ensemble": "gaussian",
                             "mse_lasso": 0.1, "mse_amp": 0.1, "mse_predicted": 0.1,
                             "amp_lasso_gap": gap[0] if gap else 1e-5, "l1_lasso": 0.03,
                             "l1_predicted": 0.03, "kkt_residual": kkt, "error": ""})


def test_planted_kkt_violation_is_counted_in_fail_frac(tmp_path):
    path = tmp_path / "sweep.csv"
    _write_sweep_csv(path, [(0.5, 1e-9), (1.0, 1e-6), (1.5, 5e-9)])
    cells = [(lam, 2000, 7) for lam in (0.5, 1.0, 1.5)]
    failures, gaps = sweep_failures(path, cells, lasso_tol=1e-8, exit_code=0)
    assert failures == [(1.0, 2000, 7)]
    assert set(gaps) == {(0.5, 2000, 7), (1.5, 2000, 7)}
    assert len(sweep_failures(path, cells + [(2.0, 2000, 7)], 1e-8, 0)[0]) == 2  # missing row
    assert sweep_failures(path, cells, 1e-8, exit_code=3) == (cells, {})
    batch = run.Batch(k=0, units=3, wall_s=1.0, cpu_s=1.5, rss_mb=90.0, failures=failures)
    metrics, detail = run.end_to_end([batch], [0.8])
    assert detail["fail_frac"] == pytest.approx(1 / 3)
    assert metrics["pass_frac"]["value"] == pytest.approx(2 / 3)


def test_amp_lasso_gap_is_bounded_per_cell_and_on_each_penalty_median(tmp_path):
    # penalty 0.2: one instance in the finite-N tail above 1e-3, median below;
    # penalty 0.4: two of three instances above 1e-3, so the median is too;
    # penalty 0.6: one cell above the per-cell bound 1e-2
    gaps = {0.2: [2e-3, 5e-5, 1e-5], 0.4: [2e-3, 1.5e-3, 1e-5], 0.6: [2e-2, 1e-5, 1e-5]}
    failures, passed = [], {}
    for seed in range(3):
        path = tmp_path / f"sweep{seed}.csv"
        _write_sweep_csv(path, [(lam, 1e-9, g[seed]) for lam, g in gaps.items()], seed=seed)
        f, p = sweep_failures(path, [(lam, 2000, seed) for lam in gaps], 1e-8, 0)
        failures += f
        passed.update(p)
    assert failures == [(0.6, 2000, 0)]
    assert sorted(median_gap_failures(passed)) == [(0.4, 2000, s) for s in range(3)]


class _FakeBatches:
    """Batches of 10 units taking 10 ms each; batch 2 fails one unit."""

    def __init__(self, work):
        self.runner = types.SimpleNamespace(work=work)
        self.runs = []

    def run(self, k, spans=None):
        self.runs.append(k)
        time.sleep(0.01)
        return run.Batch(k=k, units=10, wall_s=0.01, cpu_s=0.01, rss_mb=1.0,
                         failures=[(k, "unit 7")] if k == 2 else [])

    def finish(self):
        pass


def test_the_checked_units_do_not_depend_on_the_host_speed(tmp_path):
    # no time at all: still one whole pass; more time: whole passes only
    short, long = _FakeBatches(str(tmp_path)), _FakeBatches(str(tmp_path))
    plain_short, _, _ = run.measure(short, 3, 0.0, traced=False)
    plain_long, _, _ = run.measure(long, 3, 0.2, traced=False)
    assert short.runs == [0, 1, 2]
    assert len(long.runs) > 3 and long.runs == [0, 1, 2] * (len(long.runs) // 3)
    assert run.tally(plain_short) == run.tally(plain_long) == (30, [(2, "unit 7")])


class CountingArray(np.ndarray):
    """Counts matrix products that involve it; results are plain arrays."""

    products = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            CountingArray.products += 1
        inputs = [x.view(np.ndarray) if isinstance(x, CountingArray) else x for x in inputs]
        return getattr(ufunc, method)(*inputs, **kwargs)


class _KeepSubclass:
    """numpy namespace whose asarray keeps ndarray subclasses."""

    def __getattr__(self, name):
        return np.asanyarray if name == "asarray" else getattr(np, name)


@pytest.fixture
def instance():
    params = SEParams(delta=0.64, sigma2=0.2, prior=get_preset("three_point_0.064"))
    inst = generate(params, 300, "gaussian", 5)
    inst.A = inst.A.view(CountingArray)
    return params, inst


@pytest.mark.parametrize("max_iter", [50_000, 25])
def test_lasso_matvec_formula_matches_the_solver_loop(monkeypatch, instance, max_iter):
    _, inst = instance
    monkeypatch.setattr(amplasso.lasso, "np", _KeepSubclass())
    monkeypatch.setattr(amplasso.lasso, "spectral_norm",
                        lambda A: float(np.linalg.norm(A.view(np.ndarray), 2)))
    CountingArray.products = 0
    sol = amplasso.lasso.solve_lasso(inst.A, inst.y, 1.0, tol=1e-8, max_iter=max_iter)
    assert sol.converged == (max_iter == 50_000)
    assert CountingArray.products == lasso_matvecs(sol.iterations, max_iter)


def test_amp_matvec_formula_matches_the_iteration(instance):
    params, inst = instance
    CountingArray.products = 0
    state, diags = run_amp(inst, params, 1.0, t_max=60, threshold_policy="residual")
    assert state.t == len(diags) > 0
    assert CountingArray.products == amp_matvecs(state.t)


def test_tracer_reports_zero_for_missing_or_uncalled_sites(monkeypatch):
    fake = types.ModuleType("fake_layer")
    fake.present = lambda: None
    monkeypatch.setitem(sys.modules, "fake_layer", fake)
    tracer = Tracer()
    tracer.install((("fake_layer", "present", "lasso.spectral_norm", "span"),
                    ("fake_layer", "gone", "instances.generate", "span"),
                    ("no_such_module", "f", "amp.run_amp", "span")))
    assert tracer.missing == ["fake_layer.gone", "no_such_module.f"]
    metrics = layer_metrics([json.loads(json.dumps(
        {"spans": tracer.spans, "counts": tracer.counts, "missing": tracer.missing}))])
    assert set(metrics) == set(LAYER_METRICS) - {"machine.read_gbps", "trace.overhead_frac"}
    assert all(v == 0 for v in metrics.values())
    fake.present()
    assert layer_metrics([{"spans": tracer.spans, "counts": {}}])["lasso.spectral_norm.calls"] == 1


def test_theory_checks_pass_real_outputs_and_count_a_planted_error(tmp_path):
    spec = run.theory_spec(seed=4, k=0)
    spec["lambdas"] = [spec["lambdas"][0][-3:], spec["lambdas"][1][:2]]
    spec_path, out = tmp_path / "spec.json", tmp_path / "out.json"
    spec_path.write_text(json.dumps(spec))
    assert child.main(["theory", str(spec_path), str(out)]) == 0
    results = json.loads(out.read_text())
    assert len(results) == 3 + 2 + 2 * 2
    calibrate = run._calibrate(ROOT)
    assert theory_failures(spec, results, calibrate) == []
    pinned = next(r for r in results if r["param"] == 0 and r["lam"] == 1.0)
    pinned["mse"] += 1e-9
    assert theory_failures(spec, results, calibrate) == [("predicted_risk", 0, 1.0)]
    assert len(theory_failures(spec, results[:-1], calibrate)) == 2


def test_self_time_excludes_children():
    spans = [["a", 0.0, 10.0, -1, {}], ["b", 1.0, 4.0, 0, {}], ["c", 2.0, 3.0, 1, {}],
             ["b", 5.0, 6.0, 0, {}]]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0]
