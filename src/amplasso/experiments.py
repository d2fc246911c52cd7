"""Batch sweeps over (lambda, N, seed) cells and curve dumps for plotting.

A cell is one penalty on one random instance: solve it with the reference
solver, run the message-passing iteration on it, and record both empirical
risks next to the theoretical prediction and the iterations each solver ran.
Cells are grouped by instance: each (N, seed) matrix is drawn once and every
penalty of the grid runs on it, so a cell's wall_time_generate is its
instance's draw, repeated on each of the instance's rows. Instances run one
after another, each matrix product using every core through BLAS; the
prediction (and with it AMP's threshold ratio) is computed once per lambda
and shared. A lambda whose prediction raises makes all of its cells error
rows, with no solve and no AMP row.

On an instance the reference solves run as one penalty path
(lasso.solve_lasso_path), from the largest penalty to the smallest: each
penalty starts from the path's most recent converged solution (the first
one starts at 0), so a cell's LASSO columns can depend on the grid's larger
penalties, within the KKT certificate. A penalty that stopped above its
tolerance is an error row on its own (ConvergenceError), since its solution
is not ground truth. An exception from the draw or from the path marks all
of the instance's rows: once its inputs are valid, nothing in a path raises
for one penalty alone, and a raise in the middle of a column move leaves
A's column order unfit for the penalties after it. A cell's wall_time_lasso
is the path's time, repeated on each of the instance's rows.

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
import os
import time
from dataclasses import MISSING, astuple, dataclass, field, fields

import numpy as np

from ._version import __version__
from .amp import THRESHOLD_POLICIES, run_amp_grid
from .errors import ConvergenceError
from .instances import ENSEMBLES, generate, row_count
from .lasso import solve_lasso_path
from .scalars import (Prior, _mse_slope, finite_float, integer_at_least, nonnegative_float,
                      one_of, positive_float)
from .state_evolution import (SEParams, _brent_root, alpha_min, calibrate_lambda, fixed_point,
                              invert_calibration, predicted_risk, se_map)


def _string(value):
    if not isinstance(value, str):
        raise ValueError(f"expected a string, got {value!r}")
    return value


def _list(item, distinct=False, optional=False):
    """A list key's check: a nonempty list of `item`-checked entries, as a tuple."""
    def check(value):
        if optional and value is None:
            return None
        if not isinstance(value, (list, tuple)) or len(value) == 0:
            raise ValueError(f"expected a nonempty list, got {value!r}")
        values = tuple(item(v) for v in value)
        if distinct and len(set(values)) < len(values):
            raise ValueError(f"expected distinct entries, got {values!r}")
        return values
    return check


def _prior(value):
    return value if isinstance(value, Prior) else Prior.from_json(value)


def _bracket(bracket):
    """(lo, hi) as floats, if `bracket` holds two finite numbers with 0 < lo <= hi."""
    pair = _list(finite_float)(bracket)
    if not (len(pair) == 2 and 0 < pair[0] <= pair[1]):
        raise ValueError(f"bracket must be two numbers with 0 < lo <= hi, got {pair}")
    return pair


def _key(check, default=MISSING):
    """A config key with its one check, which returns the value as stored."""
    return field(default=default, metadata={"check": check})


@dataclass(frozen=True)
class ExperimentConfig:
    """Every value the subcommands read from a config file, JSON round-trippable.

    Each key's check (that of the library entry point the key feeds, under its
    argument's name) runs in __post_init__, for from_json and Python alike.
    """

    delta: float = _key(lambda v: positive_float(v, "delta"))
    sigma2: float = _key(lambda v: positive_float(v, "sigma2"))
    prior: Prior = _key(_prior)
    # distinct entries: a repeated one would make a second copy of its cells
    lambda_grid: tuple = _key(_list(lambda v: positive_float(v, "lambda"), distinct=True))
    N_list: tuple = _key(_list(lambda v: integer_at_least(v, 2, "N"), distinct=True))
    seeds: tuple = _key(_list(lambda v: integer_at_least(v, 0, "seed"), distinct=True))
    ensemble: str = _key(lambda v: one_of(v, ENSEMBLES, "ensemble"), default="gaussian")
    amp_t_max: int = _key(lambda v: integer_at_least(v, 1, "t_max"), default=200)
    amp_stop_tol: float = _key(lambda v: nonnegative_float(v, "stop_tol"), default=1e-8)
    amp_policy: str = _key(lambda v: one_of(v, THRESHOLD_POLICIES, "threshold_policy"),
                           default="residual")
    lasso_tol: float = _key(lambda v: positive_float(v, "tol"), default=1e-8)
    lasso_max_iter: int = _key(lambda v: integer_at_least(v, 1, "max_iter"), default=50_000)
    out: str = _key(_string, default="results")
    # read by se-curves (the two grids default to dump_se_curves' own) and min-lambda
    alpha_grid: tuple | None = _key(_list(finite_float, optional=True), default=None)
    tau2_grid: tuple | None = _key(_list(lambda v: positive_float(v, "tau2"), optional=True),
                                   default=None)
    f_map_alpha: float = _key(lambda v: nonnegative_float(v, "f_map_alpha"), default=2.0)
    lambda_bracket: tuple = _key(_bracket, default=(0.05, 2.0))

    def __post_init__(self):
        for f in fields(self):
            try:
                value = f.metadata["check"](getattr(self, f.name))
                if f.name == "N_list":  # generate's rule, at the delta checked above
                    for N in value:
                        row_count(self.delta, N)
            except ValueError as exc:
                raise ValueError(f"config key {f.name}: {exc}") from None
            object.__setattr__(self, f.name, value)

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
    lams = sorted(predictions, reverse=True)
    try:
        t0 = time.perf_counter()
        inst = generate(config.se_params, N, config.ensemble, seed)
        t1 = time.perf_counter()
        path = solve_lasso_path(inst.A, inst.y, lams, tol=config.lasso_tol,
                                max_iter=config.lasso_max_iter)
        t2 = time.perf_counter()
    except Exception as exc:  # noqa: BLE001 - cell isolation is the contract
        return [_error_record(config, lam, N, seed, predictions[lam], exc) for lam in lams]
    wall_time_generate, wall_time_lasso = t1 - t0, t2 - t1
    records = []
    solved = []  # (lam, certified solution), in path order
    for lam, sol in zip(lams, path):
        if sol.converged:
            solved.append((lam, sol))
        else:
            records.append(_error_record(config, lam, N, seed, predictions[lam], ConvergenceError(
                f"reference solve stopped at KKT residual {sol.kkt_residual:.3e} "
                f"> {config.lasso_tol:g} after {sol.iterations} iterations")))
    try:
        outcomes = run_amp_grid(inst, config.se_params, [lam for lam, _ in solved],
                                [predictions[lam].alpha for lam, _ in solved],
                                t_max=config.amp_t_max, stop_tol=config.amp_stop_tol,
                                threshold_policy=config.amp_policy)
    except Exception as exc:  # noqa: BLE001 - cell isolation is the contract
        outcomes = [exc] * len(solved)
    wall_time_amp = time.perf_counter() - t2
    for (lam, sol), outcome in zip(solved, outcomes):
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
    lambda_of_alpha rows: (alpha, lambda, warning). Rows whose alpha
    fixed_point rejects (at or below the admissible minimum) or whose fixed
    point does not converge carry nan values and the error's message, ending
    "; dropped"; failure is the first ConvergenceError, or None.
    """

    f_map: list
    tau_star: list
    lambda_of_alpha: list
    failure: ConvergenceError | None = None


def dump_se_curves(params, alpha_grid=None, tau2_grid=None, f_map_alpha=2.0):
    """Tables behind the three classic diagnostic plots.

    The first table traces tau2 -> F(tau2, alpha*tau) at fixed alpha
    (default 2.0); the second and third trace the fixed point tau*(alpha)
    and the calibrated penalty lambda(alpha) over alpha_grid. An alpha
    without a fixed point drops only its own rows.
    """
    if alpha_grid is None:
        alpha_grid = np.linspace(alpha_min(params.delta) + 0.05, 4.0, 80)
    if tau2_grid is None:
        tau2_grid = np.linspace(1e-4, 2.0 * params.tau2_init, 200)

    f_rows = [(float(t2), se_map(params, float(t2), f_map_alpha * math.sqrt(float(t2))))
              for t2 in tau2_grid]

    tau_rows = []
    lam_rows = []
    failure = None
    for a in alpha_grid:
        a = float(a)
        try:
            tau = math.sqrt(fixed_point(params, a))
        except ValueError as exc:
            warning = f"{exc}; dropped"
        except ConvergenceError as exc:
            failure = failure or exc
            warning = f"{type(exc).__name__}: {exc}; dropped"
        else:
            tau_rows.append((a, tau, ""))
            lam_rows.append((a, calibrate_lambda(params, a), ""))
            continue
        tau_rows.append((a, float("nan"), warning))
        lam_rows.append(tau_rows[-1])
    return CurveTables(f_map=f_rows, tau_star=tau_rows, lambda_of_alpha=lam_rows,
                       failure=failure)


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
    """The penalty of least predicted risk in a bracket, and that risk.

    unimodal is always True (see minimum_lambda); it stays for its readers.
    """

    lambda_opt: float
    mse_opt: float
    unimodal: bool


def minimum_lambda(params, lambda_bracket):
    """Penalty minimizing the predicted risk delta (tau*^2 - sigma^2) inside the bracket.

    slope(alpha) = d/dtheta mse(tau*, theta) at theta = alpha tau* has the sign
    of d tau*^2/d alpha (1 - dF/dtau^2 > 0 at the stable fixed point), hence
    of d risk/d lambda, as lambda(alpha) increases. It changes sign at most
    once, so the answer is lo if slope >= 0 at lo's alpha, hi if slope <= 0
    at hi's, else lambda at the slope's one Brent root between the two.
    Why once: at a stationary alpha, theta = alpha tau* minimises mse(tau*, .),
    so tau*^2 is a fixed point of G(tau^2) = sigma^2 + min_theta mse(tau,
    theta)/delta = inf_alpha F(tau^2, alpha tau). G is an infimum of maps
    concave in tau^2 (acceptance criterion 8) with G(0) = sigma^2 > 0, so it
    has one fixed point tau_G^2, and alpha = argmin mse(tau_G, .)/tau_G. The
    premise, which the tests check on a grid, is that theta -> mse(tau, theta)
    has a single stationary point.
    """
    lo, hi = _bracket(lambda_bracket)

    def slope(alpha):
        tau = math.sqrt(fixed_point(params, alpha))
        return _mse_slope(params.prior, tau, alpha * tau)

    a, b = invert_calibration(params, lo), invert_calibration(params, hi)
    if slope(a) >= 0.0:
        lam = lo
    elif slope(b) <= 0.0:
        lam = hi
    else:
        lam = min(max(calibrate_lambda(params, _brent_root(slope, a, b)), lo), hi)
    return MinimumLambdaResult(lam, predicted_risk(params, lam).mse_predicted, True)
