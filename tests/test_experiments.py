"""Sweep harness tests on small instances plus curve and search helpers."""

import csv
import json
import math
import random
import re
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.optimize import minimize_scalar

import amplasso.amp
import amplasso.experiments as exps
import amplasso.instances
import amplasso.lasso
from amplasso.amp import run_amp_grid
from amplasso.experiments import (CurveTables, ExperimentConfig, ExperimentRecord,
                                  dump_se_curves,
                                  minimum_lambda, run_sweep, write_curve_tables,
                                  write_records_csv)
from amplasso.instances import generate
from amplasso.lasso import solve_lasso
from amplasso.scalars import Prior, _mse_slope
from amplasso.state_evolution import SEParams, alpha_min, fixed_point, predicted_risk, se_map

from oracles import FIG4

SMALL = ExperimentConfig(
    delta=FIG4.delta, sigma2=FIG4.sigma2, prior=FIG4.prior,
    lambda_grid=(0.6, 1.2), N_list=(120,), seeds=(0, 1),
    ensemble="gaussian", amp_t_max=60, amp_stop_tol=1e-8,
    amp_policy="residual", lasso_tol=1e-8)

# AMP's measured errors, which depend within rounding on the penalties that share its stack
AMP_ERRORS = ("mse_amp", "amp_lasso_gap")
NAN, INF = float("nan"), float("inf")


def _three_point(eps):
    return Prior((-1.0, 0.0, 1.0), (eps / 2, 1.0 - eps, eps / 2))


def _drawn(seed):
    """Parameters drawn in the benchmark's theory ranges."""
    rng = np.random.default_rng(seed)
    eps = rng.uniform(0.06, 0.15)
    return SEParams(rng.uniform(0.5, 0.8), rng.uniform(0.1, 0.4), _three_point(eps))


def _optimum_above_two(seed):
    """Parameters whose unconstrained optimal penalty is above 2: 2.66, 2.10, 2.54 at seeds 1, 5, 7."""
    rng = random.Random(seed)
    delta = rng.uniform(0.2, 0.9)
    eps = rng.uniform(0.02, 0.3) * delta
    return SEParams(delta, rng.uniform(0.01, 1.0), _three_point(eps))


# README parameters, drawn sets, then sets whose optimum lies above the bracket [0.05, 2]
MIN_LAMBDA_PARAMS = ([pytest.param(FIG4, id="None")]
                     + [pytest.param(_drawn(seed), id=str(seed)) for seed in range(5)]
                     + [pytest.param(_optimum_above_two(seed), id=f"above-{seed}")
                        for seed in (1, 5, 7)])


class TestConfig:
    def test_json_round_trip_with_inline_prior(self):
        cfg = ExperimentConfig(
            delta=0.5, sigma2=0.1, prior=Prior((-1.0, 0.0), (0.2, 0.8)),
            lambda_grid=(0.3,), N_list=(50,), seeds=(4,), alpha_grid=(1.0, 2.5),
            tau2_grid=(0.1, 0.3), f_map_alpha=1.5, lambda_bracket=(0.2, 1.0))
        obj = json.loads(json.dumps(cfg.to_json()))
        assert obj["alpha_grid"] == [1.0, 2.5] and obj["lambda_bracket"] == [0.2, 1.0]
        assert ExperimentConfig.from_json(obj) == cfg
        default = replace(cfg, alpha_grid=None, tau2_grid=None)
        assert ExperimentConfig.from_json(json.loads(json.dumps(default.to_json()))) == default

    def test_readme_config_block_loads(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        blocks = re.findall(r"```json\n(.*?)```", readme, re.DOTALL)
        assert len(blocks) == 1
        cfg = ExperimentConfig.from_json(json.loads(blocks[0]))
        assert cfg.lambda_grid and cfg.N_list and cfg.seeds

    def test_from_json_with_preset_name(self):
        obj = SMALL.to_json()
        obj["prior"] = "three_point_0.064"
        assert ExperimentConfig.from_json(obj) == SMALL

    @pytest.mark.parametrize("patch", [
        {"lambda_grid": ()}, {"lambda_grid": (-0.5,)}, {"N_list": ()},
        {"N_list": (1,)}, {"seeds": ()}, {"ensemble": "toeplitz"},
        {"amp_policy": "adaptive"}, {"delta": 0.0}, {"sigma2": -1.0},
        {"sigma2": 0.0}, {"delta": float("inf")}, {"amp_t_max": 0},
        {"lasso_max_iter": 0}, {"lasso_tol": 0.0},
        {"amp_t_max": "abc"}, {"amp_t_max": 2.5}, {"amp_t_max": True},
        {"lasso_max_iter": 2.5}, {"lasso_max_iter": "10"}, {"N_list": (120.5,)},
        {"seeds": (1.5,)}, {"seeds": (True,)}, {"amp_stop_tol": "x"},
        {"amp_stop_tol": None}, {"lasso_tol": "x"},
        {"lasso_tol": INF}, {"delta": "0.64"}, {"sigma2": True}, {"lambda_grid": ("0.5",)},
        {"prior": {"atoms": ["-1", 0, True], "weights": [0.064, 0.872, 0.064]}},
        {"prior": {"atoms": [-1.0, 0.0, 1.0], "weights": [0.064, NAN, 0.064]}},
        {"alpha_grid": (NAN,)}, {"lambda_grid": (INF,)}, {"seeds": (-1,)},
        {"amp_stop_tol": NAN}, {"amp_stop_tol": -1.0}, {"tau2_grid": (INF,)},
        {"f_map_alpha": INF},
        {"lambda_bracket": (2.0, 0.5)}, {"alpha_grid": ()}, {"tau2_grid": ()},
        {"lambda_grid": (1.0, 1.0, 2.0)}, {"N_list": (120, 120)}, {"seeds": (0, 0)},
        {"delta": 0.2, "N_list": (2,)},
    ])
    def test_validation_rejects(self, patch):
        obj = SMALL.to_json()
        obj.update({k: list(v) if isinstance(v, tuple) else v for k, v in patch.items()})
        with pytest.raises(ValueError):
            ExperimentConfig.from_json(obj)
        with pytest.raises(ValueError):
            replace(SMALL, **patch)

    @pytest.mark.parametrize("key, patch, library_call", [
        pytest.param("amp_t_max", {"amp_t_max": 2.5}, lambda: run_amp_grid(
            generate(FIG4, 20, "gaussian", 0), FIG4, [1.0], [1.0], t_max=2.5), id="t_max"),
        pytest.param("lasso_tol", {"lasso_tol": 0.0},
                     lambda: solve_lasso(np.eye(2), np.ones(2), 1.0, tol=0.0), id="tol"),
        pytest.param("lasso_max_iter", {"lasso_max_iter": 0},
                     lambda: solve_lasso(np.eye(2), np.ones(2), 1.0, max_iter=0), id="max_iter"),
        pytest.param("N_list", {"N_list": [1]}, lambda: generate(FIG4, 1, "gaussian", 0), id="N"),
        pytest.param("delta", {"delta": 0.0},
                     lambda: SEParams(delta=0.0, sigma2=0.2, prior=FIG4.prior), id="delta"),
        pytest.param("amp_policy", {"amp_policy": "adaptive"}, lambda: run_amp_grid(
            generate(FIG4, 20, "gaussian", 0), FIG4, [1.0], [1.0], threshold_policy="adaptive"),
            id="threshold_policy"),
        pytest.param("lambda_bracket", {"lambda_bracket": [2.0, 0.5]},
                     lambda: minimum_lambda(FIG4, (2.0, 0.5)), id="bracket"),
        pytest.param("N_list", {"delta": 0.2, "N_list": [2]}, lambda: generate(
            SEParams(delta=0.2, sigma2=0.2, prior=FIG4.prior), 2, "gaussian", 0), id="rows"),
        pytest.param("sigma2", {"sigma2": -1.0},
                     lambda: SEParams(delta=0.64, sigma2=-1.0, prior=FIG4.prior), id="sigma2"),
        pytest.param("lambda_grid", {"lambda_grid": [0.5, NAN]},
                     lambda: predicted_risk(FIG4, NAN), id="lambda"),
        pytest.param("seeds", {"seeds": [-1]}, lambda: generate(FIG4, 20, "gaussian", -1),
                     id="seed"),
        pytest.param("ensemble", {"ensemble": "toeplitz"},
                     lambda: generate(FIG4, 20, "toeplitz", 0), id="ensemble"),
        pytest.param("tau2_grid", {"tau2_grid": [0.0]}, lambda: se_map(FIG4, 0.0, 1.0),
                     id="tau2"),
        pytest.param("amp_stop_tol", {"amp_stop_tol": -1.0}, lambda: run_amp_grid(
            generate(FIG4, 20, "gaussian", 0), FIG4, [1.0], [1.0], stop_tol=-1.0),
            id="stop_tol"),
    ])
    def test_config_error_reads_as_the_library_error(self, key, patch, library_call):
        # each key is checked by the rule of the entry point it feeds, under the same name
        with pytest.raises(ValueError) as config_error:
            ExperimentConfig.from_json({**SMALL.to_json(), **patch})
        with pytest.raises(ValueError) as library_error:
            library_call()
        assert str(config_error.value) == f"config key {key}: {library_error.value}"

    def test_integer_numbers_load_as_floats(self):
        obj = {**SMALL.to_json(), "sigma2": 1, "f_map_alpha": 2}
        loaded = ExperimentConfig.from_json(obj)
        built = replace(SMALL, sigma2=1, f_map_alpha=2)
        assert loaded == built
        for cfg in (loaded, built):
            assert type(cfg.sigma2) is float and type(cfg.f_map_alpha) is float
            assert cfg.to_json()["sigma2"] == 1.0 and "\"f_map_alpha\": 2.0" in json.dumps(cfg.to_json())


class TestRunSweep:
    def test_records_sorted_and_consistent(self):
        records = run_sweep(SMALL)
        assert len(records) == 4
        keys = [(r.lam, r.N, r.seed) for r in records]
        assert keys == sorted(keys)
        for r in records:
            assert r.error == ""
            assert r.mse_lasso >= 0 and r.mse_amp >= 0 and r.mse_predicted >= 0
            assert r.kkt_residual <= SMALL.lasso_tol
        by_lam = {}
        for r in records:
            by_lam.setdefault(r.lam, set()).add(r.mse_predicted)
        assert all(len(v) == 1 for v in by_lam.values())

    def test_deterministic(self):
        names = [f.name for f in fields(ExperimentRecord)
                 if not f.name.startswith("wall_time_")]
        assert len(names) == len(fields(ExperimentRecord)) - 3

        def values(records):
            return [[getattr(r, name) for name in names] for r in records]

        assert values(run_sweep(SMALL)) == values(run_sweep(SMALL))

    def test_seed_base_shifts_cells(self):
        plain = run_sweep(SMALL)
        shifted = run_sweep(SMALL, seed_base=100)
        assert [r.seed for r in shifted] == [r.seed + 100 for r in plain]
        assert plain[0].mse_lasso != shifted[0].mse_lasso

    def test_unconverged_reference_solve_is_an_error_row(self):
        records = run_sweep(replace(SMALL, lasso_max_iter=5))
        assert len(records) == 4
        for r in records:
            assert r.error.startswith("ConvergenceError: ")
            assert np.isnan(r.mse_lasso) and np.isnan(r.kkt_residual)

    def test_nan_data_is_never_certified(self, monkeypatch):
        def planted(*args):
            inst = amplasso.instances.generate(*args)
            inst.y[5] = NAN
            return inst

        monkeypatch.setattr(exps, "generate", planted)
        records = run_sweep(SMALL)
        assert len(records) == 4
        for r in records:
            assert r.error.startswith(
                "ConvergenceError: reference solve stopped at KKT residual nan")
            assert np.isnan(r.mse_lasso) and np.isnan(r.kkt_residual)

    def test_cell_failure_is_isolated(self, monkeypatch):
        # an exception in an instance's path marks all of its rows, and only those
        real, paths = exps.solve_lasso_path, []

        def flaky(A, y, lams, **kw):
            paths.append(lams)
            if len(paths) == 1:
                raise RuntimeError("boom")
            return real(A, y, lams, **kw)

        plain = run_sweep(SMALL)
        monkeypatch.setattr(exps, "solve_lasso_path", flaky)
        records = run_sweep(SMALL)
        assert paths == [[1.2, 0.6], [1.2, 0.6]]
        assert len(records) == 4
        names = [f.name for f in fields(ExperimentRecord) if not f.name.startswith("wall_time_")]
        for p, r in zip(plain, records):
            if r.seed == 0:
                assert r.error == "RuntimeError: boom"
                assert np.isnan(r.mse_lasso) and np.isnan(r.wall_time_lasso)
                assert np.isnan(r.lasso_iterations) and np.isnan(r.amp_iterations)
                assert np.isfinite(r.mse_predicted)
            else:
                assert [getattr(r, n) for n in names] == [getattr(p, n) for n in names]

    def test_unconverged_penalty_marks_only_its_rows(self, monkeypatch):
        # the largest penalty stops after one step; the next one starts at 0
        real = amplasso.lasso._solve_penalty

        def capped(front, y, lam, tol, max_iter, *args):
            return real(front, y, lam, tol, 1 if lam == 1.2 else max_iter, *args)

        monkeypatch.setattr(amplasso.lasso, "_solve_penalty", capped)
        records = run_sweep(SMALL)
        assert len(records) == 4
        for r in records:
            if r.lam == 1.2:
                assert re.fullmatch(r"ConvergenceError: reference solve stopped at KKT residual "
                                    r"\S+ > 1e-08 after 1 iterations", r.error)
                assert np.isnan(r.mse_lasso) and np.isnan(r.mse_amp)
            else:
                assert r.error == "" and r.kkt_residual <= SMALL.lasso_tol

    def test_failed_amp_row_marks_only_its_cell(self, monkeypatch):
        # the first residual threshold of lambda=0.6 on seed 0, as run_amp_grid computes it
        inst = exps.generate(FIG4, 120, "gaussian", 0)
        doomed = (predicted_risk(FIG4, 0.6).alpha * float(np.linalg.norm(inst.y))
                  / math.sqrt(inst.n))
        real = amplasso.amp.soft_threshold

        def failing(pre, theta):
            # that row's x moves 2 theta from pre: its boundary coordinate is 2
            out = real(pre, theta)
            rows = theta[:, 0] == doomed
            out[rows] = pre[rows] - 2.0 * theta[rows]
            return out

        plain = run_sweep(SMALL)
        monkeypatch.setattr(amplasso.amp, "soft_threshold", failing)
        forced = run_sweep(SMALL)
        names = [f.name for f in fields(ExperimentRecord)
                 if not f.name.startswith("wall_time_") and f.name not in AMP_ERRORS]
        for p, f in zip(plain, forced):
            if (f.lam, f.seed) == (0.6, 0):
                assert f.error == "ConsistencyError: subgradient entry exceeds 1 by 1.000e+00"
                assert np.isnan(f.mse_amp) and np.isnan(f.mse_lasso)
                continue
            assert f.error == ""
            assert [getattr(f, n) for n in names] == [getattr(p, n) for n in names]
            for n in AMP_ERRORS:
                assert abs(getattr(f, n) - getattr(p, n)) <= 1e-12

    def test_failed_prediction_marks_only_its_cells(self, monkeypatch):
        real, solved, drawn = exps.solve_lasso_path, [], []

        def spy(A, y, lams, **kw):
            solved.append(lams)
            return real(A, y, lams, **kw)

        monkeypatch.setattr(exps, "solve_lasso_path", spy)
        monkeypatch.setattr(exps, "generate", lambda *args: drawn.append(args) or
                            amplasso.instances.generate(*args))
        assert all(r.error for r in run_sweep(replace(SMALL, lambda_grid=(1e7,))))
        assert drawn == []  # no penalty left to run, so no instance is drawn
        records = run_sweep(replace(SMALL, lambda_grid=(0.6, 1e7)))
        assert [(r.lam, r.seed) for r in records] == [(0.6, 0), (0.6, 1), (1e7, 0), (1e7, 1)]
        for r in records[2:]:
            assert r.error.startswith("ConvergenceError: no alpha")
            assert np.isnan(r.mse_predicted) and np.isnan(r.mse_lasso) and np.isnan(r.mse_amp)
            assert np.isnan(r.lasso_iterations) and np.isnan(r.amp_iterations)
        assert solved == [[0.6], [0.6]]  # no solve, and so no AMP row, at the failed penalty
        names = [f.name for f in fields(ExperimentRecord) if not f.name.startswith("wall_time_")]
        alone = run_sweep(replace(SMALL, lambda_grid=(0.6,)))
        assert [[getattr(r, n) for n in names] for r in records[:2]] == \
            [[getattr(r, n) for n in names] for r in alone]

    def test_grid_order_does_not_change_rows(self):
        names = [f.name for f in fields(ExperimentRecord) if not f.name.startswith("wall_time_")]

        def values(grid):
            records = run_sweep(replace(SMALL, lambda_grid=grid))
            assert all(r.error == "" for r in records)
            return [[getattr(r, name) for name in names] for r in records]

        ascending = values((0.6, 0.9, 1.2))
        assert values((1.2, 0.9, 0.6)) == ascending
        assert values((0.9, 1.2, 0.6)) == ascending

    def test_one_draw_and_no_recalibration_per_instance(self, monkeypatch):
        calls = {"generate": 0, "invert_calibration": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(exps, "generate", counted("generate", exps.generate))
        monkeypatch.setattr(amplasso.amp, "invert_calibration",
                            counted("invert_calibration", amplasso.amp.invert_calibration))
        records = run_sweep(replace(SMALL, N_list=(120, 150)))
        assert len(records) == 8 and all(r.error == "" for r in records)
        # 2 sizes x 2 seeds; the solver sizes its own step, and AMP takes
        # alpha from the shared prediction
        assert calls == {"generate": 4, "invert_calibration": 0}
        # each instance's draw, penalty path and stacked AMP run are shared by
        # all of its penalties
        for N in (120, 150):
            for seed in SMALL.seeds:
                rows = [r for r in records if r.N == N and r.seed == seed]
                assert len({r.wall_time_generate for r in rows}) == 1
                assert len({r.wall_time_lasso for r in rows}) == 1
                assert len({r.wall_time_amp for r in rows}) == 1

    def test_instance_failure_marks_only_its_rows(self, monkeypatch):
        real = exps.generate

        def flaky(params, N, ensemble, seed):
            if seed == 1:
                raise RuntimeError("no draw")
            return real(params, N, ensemble, seed)

        monkeypatch.setattr(exps, "generate", flaky)
        records = run_sweep(SMALL)
        assert len(records) == 4
        keys = [(r.lam, r.N, r.seed) for r in records]
        assert keys == sorted(keys)
        for r in records:
            if r.seed == 1:
                assert r.error == "RuntimeError: no draw"
                assert np.isnan(r.mse_lasso) and np.isnan(r.wall_time_generate)
                assert np.isnan(r.lasso_iterations) and np.isnan(r.amp_iterations)
                assert np.isfinite(r.mse_predicted)
            else:
                assert r.error == ""
                assert np.isfinite(r.mse_lasso) and np.isfinite(r.mse_amp)
                assert type(r.lasso_iterations) is int and r.lasso_iterations >= 1
                assert type(r.amp_iterations) is int and 1 <= r.amp_iterations <= SMALL.amp_t_max


class TestCsvOutput:
    def test_csv_and_sidecar(self, tmp_path):
        records = run_sweep(SMALL)
        csv_path = tmp_path / "sweep.csv"
        side_path = tmp_path / "sweep.json"
        write_records_csv(records, csv_path, sidecar_path=side_path, config=SMALL)
        with open(csv_path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["lambda", "N", "seed", "ensemble", "mse_lasso", "mse_amp",
                           "mse_predicted", "amp_lasso_gap", "l1_lasso", "l1_predicted",
                           "kkt_residual", "lasso_iterations", "amp_iterations",
                           "wall_time_generate", "wall_time_lasso",
                           "wall_time_amp", "error"]
        assert len(rows) == 1 + len(records)
        side = json.loads(side_path.read_text())
        assert side["n_records"] == 4 and side["n_errors"] == 0
        assert side["config"]["delta"] == 0.64
        assert side["version"]


class TestCurves:
    def test_f_map_concave_single_crossing(self):
        alpha = 2.0
        t2_star = fixed_point(FIG4, alpha)
        grid = np.linspace(0.05, 2.0 * t2_star, 60)
        tables = dump_se_curves(FIG4, alpha_grid=np.array([1.0]), tau2_grid=grid,
                                f_map_alpha=alpha)
        f = np.array([row[1] for row in tables.f_map])
        t2 = np.array([row[0] for row in tables.f_map])
        assert np.all(np.diff(f) > 0)
        signs = np.sign(f - t2)
        assert np.count_nonzero(np.diff(signs[signs != 0])) == 1

    def test_alpha_below_minimum_flagged(self):
        amin = alpha_min(FIG4.delta)
        tables = dump_se_curves(FIG4, alpha_grid=np.array([amin * 0.5, amin + 0.3]))
        flagged = [row for row in tables.tau_star if row[2]]
        clean = [row for row in tables.tau_star if not row[2]]
        assert len(flagged) == 1 and np.isnan(flagged[0][1])
        assert len(clean) == 1 and np.isfinite(clean[0][1])

    def test_lambda_curve_rises_through_zero(self):
        amin = alpha_min(FIG4.delta)
        tables = dump_se_curves(FIG4, alpha_grid=np.linspace(amin + 0.02, 4.0, 25))
        lams = [row[1] for row in tables.lambda_of_alpha]
        assert lams[0] < 0 < lams[-1]

    def test_write_curve_tables(self, tmp_path):
        tables = CurveTables(f_map=[(0.1, 0.2)], tau_star=[(1.0, 0.5, "")],
                             lambda_of_alpha=[(1.0, 0.3, "")])
        paths = write_curve_tables(tables, tmp_path)
        assert set(paths) == {"f_map.csv", "tau_star.csv", "lambda_of_alpha.csv"}
        for p in paths.values():
            assert open(p).readline().count(",") >= 1


class TestMinimumLambda:
    def test_interior_minimum(self):
        res = minimum_lambda(FIG4, (0.05, 2.0))
        assert res.unimodal
        assert 0.05 < res.lambda_opt < 2.0
        assert res.mse_opt <= predicted_risk(FIG4, 0.05).mse_predicted
        assert res.mse_opt <= predicted_risk(FIG4, 2.0).mse_predicted
        # no worse than a golden-section search over the same bracket
        assert res.mse_opt <= 0.09582409088077033 + 1e-12
        # the search is tight enough that nearby penalties are no better
        for off in (-0.01, 0.01):
            assert predicted_risk(FIG4, res.lambda_opt + off).mse_predicted >= res.mse_opt - 1e-9

    @pytest.mark.parametrize("params", MIN_LAMBDA_PARAMS)
    def test_matches_scipy_bounded_minimiser(self, params):
        lo, hi = 0.05, 2.0
        res = minimum_lambda(params, (lo, hi))
        ref = minimize_scalar(lambda lam: predicted_risk(params, lam).mse_predicted,
                              bounds=(lo, hi), method="bounded", options={"xatol": 1e-6})
        assert res.unimodal
        assert abs(res.lambda_opt - ref.x) <= 1e-4 * max(1.0, hi)
        assert res.mse_opt <= ref.fun + 1e-12
        assert res.mse_opt == predicted_risk(params, res.lambda_opt).mse_predicted

    @pytest.mark.parametrize("params", MIN_LAMBDA_PARAMS)
    def test_threshold_slope_changes_sign_once(self, params):
        # minimum_lambda's premise: theta -> mse(tau, theta) has a single stationary point
        for tau in np.linspace(0.05, 5.0, 12):
            thetas = np.geomspace(1e-3, 30.0 * tau, 300)
            signs = np.sign([_mse_slope(params.prior, tau, theta) for theta in thetas])
            assert signs[0] == -1 and signs[-1] == 1 and np.count_nonzero(np.diff(signs)) == 1

    def test_minimum_at_the_lower_end_returns_it(self):
        res = minimum_lambda(FIG4, (1.5, 2.0))
        assert res.lambda_opt == 1.5 and res.unimodal
        assert res.mse_opt == predicted_risk(FIG4, 1.5).mse_predicted

    def test_degenerate_bracket(self):
        res = minimum_lambda(FIG4, (0.8, 0.8))
        assert res.lambda_opt == 0.8 and res.unimodal

    def test_invalid_bracket(self):
        with pytest.raises(ValueError):
            minimum_lambda(FIG4, (0.0, 1.0))
        with pytest.raises(ValueError):
            minimum_lambda(FIG4, (2.0, 1.0))
        with pytest.raises(ValueError, match="finite"):
            minimum_lambda(FIG4, (0.1, INF))
        with pytest.raises(ValueError, match="finite"):
            minimum_lambda(FIG4, ("0.1", "2.0"))
