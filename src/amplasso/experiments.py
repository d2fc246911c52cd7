"""Batch sweeps over (lambda, N, seed) cells and curve dumps for plotting.

A cell is one penalty on one random instance: solve it with the reference
solver, run the message-passing iteration on it, and record both empirical
risks next to the theoretical prediction and the iterations each solver ran.
Cells are grouped by instance: each (N, seed) matrix is drawn once and every
penalty of the grid runs on it, so a cell's wall_time_generate is its
instance's draw, repeated on each of the instance's rows. A failure of the
draw marks all of that instance's rows; a failure of one penalty marks only
its own. Instances run one after another, each matrix product using every
core through BLAS; the prediction (and with it AMP's threshold ratio) is
computed once per lambda and shared. A lambda whose prediction raises makes
all of its cells error rows, with no solve and no AMP row.

On an instance the penalties run from largest to smallest, as a path: each
reference solve starts from the instance's most recent certified solution
(the first one starts at 0), and a solve that raised or stopped above its
tolerance passes nothing on. A cell's LASSO columns can therefore depend on
the grid's larger penalties, within the KKT certificate.

AMP then runs once per instance, at every penalty with a certified solution,
as one stack (amp.run_amp_grid): one product pair per step for all of
them. A cell's wall_time_amp is that stacked run's time, repeated on each of
the instance's rows, and a row of the stack that raised marks only its own
cell. AMP always starts at 0, so amp_lasso_gap never compares AMP with a
solve that began at AMP's own point; its columns can depend on which other
penalties share the stack, within rounding.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import os
import time
from dataclasses import MISSING, astuple, dataclass, field, fields

import numpy as np

from ._version import __version__
from .amp import run_amp_grid
from .errors import ConvergenceError
from .instances import ENSEMBLES, generate
from .lasso import solve_lasso
from .scalars import Prior, finite_float
from .state_evolution import SEParams, _penalty_at, alpha_min, fixed_point, predicted_risk, se_map

# minimum_lambda: points of the coarse grid, and the Brent search's
# absolute x tolerance as a fraction of max(1, lambda)
_COARSE_POINTS = 17
_SEARCH_REL_TOL = 1e-4


def _integer(value):
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _string(value):
    if not isinstance(value, str):
        raise ValueError(f"expected a string, got {value!r}")
    return value


def _list(item):
    def parse(value):
        if not isinstance(value, (list, tuple)) or len(value) == 0:
            raise ValueError(f"expected a nonempty list, got {value!r}")
        return tuple(item(v) for v in value)
    return parse


def _list_or_none(item):
    parse = _list(item)
    return lambda value: None if value is None else parse(value)


def _distinct(values):
    return len(set(values)) == len(values)


def _prior(value):
    return value if isinstance(value, Prior) else Prior.from_json(value)


def _key(parse, in_range=None, demand="", default=MISSING):
    """A config key with its one rule: `parse` checks the value's type (and
    turns lists into tuples), then `in_range`, if given, checks the value
    against what `demand` describes."""
    return field(default=default, metadata={"rule": (parse, in_range, demand)})


@dataclass(frozen=True)
class ExperimentConfig:
    """Every value the subcommands read from a config file, JSON round-trippable.

    Each field's rule runs in __post_init__, so from_json and construction
    from Python check a key the same way.
    """

    delta: float = _key(finite_float)  # delta and sigma2 ranges: SEParams
    sigma2: float = _key(finite_float)
    prior: Prior = _key(_prior)
    # distinct entries: a repeated one would make a second copy of its cells
    lambda_grid: tuple = _key(_list(finite_float), lambda v: min(v) > 0 and _distinct(v),
                              "distinct positive entries")
    N_list: tuple = _key(_list(_integer), lambda v: min(v) >= 2 and _distinct(v),
                         "distinct entries >= 2")
    seeds: tuple = _key(_list(_integer), lambda v: min(v) >= 0 and _distinct(v),
                        "distinct entries >= 0")
    ensemble: str = _key(_string, lambda v: v in ENSEMBLES, f"one of {sorted(ENSEMBLES)}",
                         default="gaussian")
    amp_t_max: int = _key(_integer, lambda v: v >= 1, "at least 1", default=200)
    amp_stop_tol: float = _key(finite_float, default=1e-8)
    amp_policy: str = _key(_string, lambda v: v in ("se", "residual"), "'se' or 'residual'",
                           default="residual")
    lasso_tol: float = _key(finite_float, lambda v: v > 0, "a positive number", default=1e-8)
    lasso_max_iter: int = _key(_integer, lambda v: v >= 1, "at least 1", default=50_000)
    out: str = _key(_string, default="results")
    # read by se-curves (the two grids default to dump_se_curves' own) and min-lambda
    alpha_grid: tuple | None = _key(_list_or_none(finite_float), default=None)
    tau2_grid: tuple | None = _key(_list_or_none(finite_float),
                                   lambda v: v is None or min(v) > 0, "positive entries",
                                   default=None)
    f_map_alpha: float = _key(finite_float, lambda v: v >= 0, "a nonnegative number", default=2.0)
    lambda_bracket: tuple = _key(_list(finite_float), lambda v: len(v) == 2 and 0 < v[0] <= v[1],
                                 "two entries with 0 < lo <= hi", default=(0.05, 2.0))

    def __post_init__(self):
        for f in fields(self):
            parse, in_range, demand = f.metadata["rule"]
            try:
                value = parse(getattr(self, f.name))
            except ValueError as exc:
                raise ValueError(f"config key {f.name}: {exc}") from None
            if in_range is not None and not in_range(value):
                raise ValueError(f"config key {f.name}: expected {demand}, got {value!r}")
            object.__setattr__(self, f.name, value)
        self.se_params  # raises on a delta or sigma2 out of range

    @property
    def se_params(self):
        return SEParams(delta=self.delta, sigma2=self.sigma2, prior=self.prior)

    def to_json(self):
        obj = {f.name: getattr(self, f.name) for f in fields(self)}
        obj["prior"] = self.prior.to_json()
        return {k: list(v) if isinstance(v, tuple) else v for k, v in obj.items()}

    @classmethod
    def from_json(cls, obj):
        """The one loader of a config file's JSON object.

        Raises:
            ValueError: the object is not a dict, has an unknown or missing
                key, or a value its field's rule rejects; the message names
                the key.
        """
        if not isinstance(obj, dict):
            raise ValueError(f"config must be a JSON object, got {type(obj).__name__}")
        unknown = sorted(set(obj) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in obj]
        if missing:
            raise ValueError(f"missing config keys: {', '.join(missing)}")
        return cls(**obj)


@dataclass
class ExperimentRecord:
    """One sweep.csv row; a measurement a failed cell did not reach stays nan."""

    lam: float
    N: int
    seed: int
    ensemble: str
    mse_lasso: float = math.nan
    mse_amp: float = math.nan
    mse_predicted: float = math.nan
    amp_lasso_gap: float = math.nan
    l1_lasso: float = math.nan
    l1_predicted: float = math.nan
    kkt_residual: float = math.nan
    # ints on a solved row, nan on an error row
    lasso_iterations: float = math.nan
    amp_iterations: float = math.nan
    wall_time_generate: float = math.nan
    wall_time_lasso: float = math.nan
    wall_time_amp: float = math.nan
    error: str = ""


# the sweep.csv header: one name per ExperimentRecord field, in field order
RECORD_COLUMNS = tuple("lambda" if f.name == "lam" else f.name for f in fields(ExperimentRecord))


def _error_record(config, lam, N, seed, prediction, exc):
    """A failed cell; `prediction` is None when the prediction itself failed."""
    predicted = {} if prediction is None else dict(mse_predicted=prediction.mse_predicted,
                                                   l1_predicted=prediction.l1_predicted)
    return ExperimentRecord(lam=lam, N=N, seed=seed, ensemble=config.ensemble,
                            error=f"{type(exc).__name__}: {exc}", **predicted)


def _certified_solve(config, inst, lam, start):
    """The reference solve of one penalty, from `start` (None: from 0).

    Raises:
        ConvergenceError: the solve stopped above its KKT tolerance, so it is
            not ground truth for the cell.
    """
    sol = solve_lasso(inst.A, inst.y, lam, tol=config.lasso_tol,
                      max_iter=config.lasso_max_iter, start=start)
    if not sol.converged:
        raise ConvergenceError(
            f"reference solve stopped at KKT residual {sol.kkt_residual:.3e} "
            f"> {config.lasso_tol:g} after {sol.iterations} iterations")
    return sol


def _record(config, inst, lam, prediction, sol, state,
            wall_time_generate, wall_time_lasso, wall_time_amp):
    """A solved cell: AMP's final `state` next to the certified solution `sol`."""
    return ExperimentRecord(
        lam=lam, N=inst.N, seed=inst.seed, ensemble=config.ensemble,
        mse_lasso=float(np.mean((sol.x_hat - inst.x0) ** 2)),
        mse_amp=float(np.mean((state.x - inst.x0) ** 2)),
        mse_predicted=prediction.mse_predicted,
        amp_lasso_gap=float(np.mean((state.x - sol.x_hat) ** 2)),
        l1_lasso=float(np.mean(np.abs(sol.x_hat))),
        l1_predicted=prediction.l1_predicted,
        kkt_residual=sol.kkt_residual,
        lasso_iterations=sol.iterations,
        amp_iterations=state.t,
        wall_time_generate=wall_time_generate,
        wall_time_lasso=wall_time_lasso,
        wall_time_amp=wall_time_amp,
    )


def _run_instance(config, N, seed, predictions):
    """Every penalty of `predictions` on the (N, seed) instance, one record
    each (grouping, path, stack and failure rules: see the module docstring)."""
    if not predictions:  # every prediction failed: nothing to draw the matrix for
        return []
    try:
        t0 = time.perf_counter()
        inst = generate(config.se_params, N, config.ensemble, seed)
        wall_time_generate = time.perf_counter() - t0
    except Exception as exc:  # noqa: BLE001 - cell isolation is the contract
        return [_error_record(config, lam, N, seed, predictions[lam], exc)
                for lam in predictions]
    records = []
    solved = []  # (lam, certified solution, solve time), in path order
    start = None
    for lam in sorted(predictions, reverse=True):
        try:
            t1 = time.perf_counter()
            # a solve that raises leaves the last certified start in place
            start = _certified_solve(config, inst, lam, start)
            solved.append((lam, start, time.perf_counter() - t1))
        except Exception as exc:  # noqa: BLE001 - cell isolation is the contract
            records.append(_error_record(config, lam, N, seed, predictions[lam], exc))
    t2 = time.perf_counter()
    try:
        outcomes = run_amp_grid(inst, config.se_params, [lam for lam, _, _ in solved],
                                [predictions[lam].alpha for lam, _, _ in solved],
                                t_max=config.amp_t_max, stop_tol=config.amp_stop_tol,
                                threshold_policy=config.amp_policy)
    except Exception as exc:  # noqa: BLE001 - cell isolation is the contract
        outcomes = [exc] * len(solved)
    wall_time_amp = time.perf_counter() - t2
    for (lam, sol, wall_time_lasso), outcome in zip(solved, outcomes):
        if isinstance(outcome, Exception):
            records.append(_error_record(config, lam, N, seed, predictions[lam], outcome))
        else:
            records.append(_record(config, inst, lam, predictions[lam], sol, outcome[0],
                                   wall_time_generate, wall_time_lasso, wall_time_amp))
    return records


def run_sweep(config, seed_base=0):
    """All (lambda, N, seed) cells of the config; failures become error-tagged records.

    Deterministic given (config, seed_base) apart from the wall times; the
    result is sorted by (lambda, N, seed). A penalty whose prediction raises
    makes every one of its cells an error row, with no solve and no AMP row.
    """
    params = config.se_params
    predictions, records = {}, []
    for lam in config.lambda_grid:
        try:
            predictions[lam] = predicted_risk(params, lam)
        except Exception as exc:  # noqa: BLE001 - cell isolation is the contract
            records += [_error_record(config, lam, N, seed_base + seed, None, exc)
                        for N in config.N_list for seed in config.seeds]
    records += [r for N in config.N_list for seed in config.seeds
                for r in _run_instance(config, N, seed_base + seed, predictions)]
    records.sort(key=lambda r: (r.lam, r.N, r.seed))
    return records


def write_records_csv(records, csv_path, sidecar_path, config):
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RECORD_COLUMNS)
        writer.writerows(astuple(r) for r in records)
    sidecar = {"version": __version__, "config": config.to_json(),
               "n_records": len(records), "n_errors": sum(1 for r in records if r.error)}
    with open(sidecar_path, "w") as fh:
        json.dump(sidecar, fh, indent=2)
        fh.write("\n")


@dataclass
class CurveTables:
    """Plot-ready tables: the scalar map, its fixed point, and the penalty map.

    f_map rows: (tau2, f_value). tau_star rows: (alpha, tau_star, warning).
    lambda_of_alpha rows: (alpha, lambda, warning). Rows whose alpha is at or
    below the admissible minimum carry nan values and a warning message.
    """

    f_map: list
    tau_star: list
    lambda_of_alpha: list


def dump_se_curves(params, alpha_grid=None, tau2_grid=None, f_map_alpha=2.0):
    """Tables behind the three classic diagnostic plots.

    The first table traces tau2 -> F(tau2, alpha*tau) at fixed alpha
    (default 2.0); the second and third trace the fixed point tau*(alpha)
    and the calibrated penalty lambda(alpha) over alpha_grid.
    """
    if alpha_grid is None:
        lo = alpha_min(params.delta)
        alpha_grid = np.linspace(lo + 0.05, 4.0, 80)
    if tau2_grid is None:
        tau2_grid = np.linspace(1e-4, 2.0 * params.tau2_init, 200)

    f_rows = [(float(t2), se_map(params, float(t2), f_map_alpha * math.sqrt(float(t2))))
              for t2 in tau2_grid]

    a_min = alpha_min(params.delta)
    tau_rows = []
    lam_rows = []
    for a in alpha_grid:
        a = float(a)
        if a <= a_min:
            warn = f"alpha <= alpha_min ({a_min:.6g}), dropped"
            tau_rows.append((a, float("nan"), warn))
            lam_rows.append((a, float("nan"), warn))
            continue
        tau2_star = fixed_point(params, a).tau2_star
        tau_rows.append((a, math.sqrt(tau2_star), ""))
        lam_rows.append((a, _penalty_at(params, a, tau2_star), ""))
    return CurveTables(f_map=f_rows, tau_star=tau_rows, lambda_of_alpha=lam_rows)


def write_curve_tables(tables, out_dir):
    paths = {}
    spec = [("f_map.csv", ("tau2", "f_value"), tables.f_map),
            ("tau_star.csv", ("alpha", "tau_star", "warning"), tables.tau_star),
            ("lambda_of_alpha.csv", ("alpha", "lambda", "warning"), tables.lambda_of_alpha)]
    for fname, header, rows in spec:
        path = os.path.join(out_dir, fname)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
        paths[fname] = path
    return paths


@dataclass
class MinimumLambdaResult:
    lambda_opt: float
    mse_opt: float
    unimodal: bool


def minimum_lambda(params, lambda_bracket):
    """Penalty minimizing the predicted risk inside the bracket.

    Samples a coarse grid first; if the profile is not unimodal on it, the
    best grid point is returned with unimodal=False instead of trusting a
    bounded Brent search that assumes unimodality. Otherwise Brent's search
    runs between the grid neighbours of the best grid point.
    """
    lo, hi = float(lambda_bracket[0]), float(lambda_bracket[1])
    if not (0 < lo <= hi):
        raise ValueError(f"bracket must satisfy 0 < lo <= hi, got ({lo}, {hi})")

    def risk(lam):
        return predicted_risk(params, lam).mse_predicted

    if hi == lo:
        return MinimumLambdaResult(lo, risk(lo), True)

    grid = np.linspace(lo, hi, _COARSE_POINTS)
    vals = [risk(float(l)) for l in grid]
    k = int(np.argmin(vals))
    diffs = np.sign(np.diff(vals))
    changes = int(np.count_nonzero(np.diff(diffs[diffs != 0])))
    if changes > 1:
        return MinimumLambdaResult(float(grid[k]), vals[k], False)

    # imported here so that the other subcommands start without loading SciPy
    from scipy.optimize import minimize_scalar

    a = float(grid[max(k - 1, 0)])
    b = float(grid[min(k + 1, _COARSE_POINTS - 1)])
    res = minimize_scalar(risk, bounds=(a, b), method="bounded",
                          options={"xatol": _SEARCH_REL_TOL * max(1.0, b)})
    return MinimumLambdaResult(float(res.x), float(res.fun), True)
