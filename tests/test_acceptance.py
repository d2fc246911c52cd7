"""End-to-end acceptance suite.

Each test prints one "criterion NN: PASS/FAIL" line (run pytest with -s to see
them all; without -s the lines still appear for any failing test). The heavy
fixtures build a 200-cell benchmark grid once per session: 10 penalties, 20
seeds, N=2000, gaussian ensemble, with a rademacher twin for the second
reproduction check. Expect several minutes of wall time.

Criterion 13 (certificate decay) runs AMP with the "residual" threshold
policy: the first threshold comes from the residual scale, alpha*||y||/sqrt(n),
and then theta_t = lam + b_{t-1}*theta_{t-1} with b the Onsager coefficient.
Its fixed point is the exact LASSO minimiser at lam on the drawn instance, so
the certificate vanishes as the iteration converges.
"""

import numpy as np
import pytest

from amplasso.amp import _ACTIVE_GAMMA, run_amp, run_amp_grid
from amplasso.instances import generate, singular_edge_check
from amplasso.lasso import solve_lasso, solve_lasso_path
from amplasso.scalars import (Prior, cross_mse_functional, eta_prime_expectation,
                              mse_functional, soft_threshold)
from amplasso.state_evolution import (SEParams, alpha_min, calibrate_lambda,
                                      fixed_point, invert_calibration,
                                      predicted_risk, se_derivative, se_map,
                                      two_time_recursion)

from oracles import (FIG4, bisect_alpha_min, coordinate_descent, edge_gap, iterate_from,
                     replay_stack, small_instance)

LAMBDAS = tuple(round(0.2 * k, 1) for k in range(1, 11))
SEEDS = tuple(range(20))
N_CELLS = 2000


def _line(num, ok, detail):
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'}  {detail}")


def _draw_param_sets(seed, count):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        delta = rng.uniform(0.35, 0.9)
        sigma2 = rng.uniform(0.05, 0.4)
        eps = rng.uniform(0.02, 0.2)
        scale = rng.uniform(0.5, 2.0)
        prior = Prior((-scale, 0.0, scale), (eps / 2, 1 - eps, eps / 2))
        out.append(SEParams(delta=delta, sigma2=sigma2, prior=prior))
    return out


@pytest.fixture(scope="session")
def predictions():
    return {lam: predicted_risk(FIG4, lam) for lam in LAMBDAS}


@pytest.fixture(scope="session")
def gaussian_cells(predictions):
    """LASSO + AMP on every (lambda, seed) cell of the reproduction grid.

    Keeps scalars only: the per-seed matrices are 20 MB each and transient;
    each is drawn once and shared by all penalties, as the sweep harness
    does. The reference solves run on the sweep's penalty path: one
    solve_lasso_path per seed, largest penalty first, each penalty warm
    started from the previous one's certified solution. AMP runs every
    penalty of a seed as one run_amp_grid stack, the sweep harness's path,
    with the residual threshold policy for 100 steps and no early stop,
    which is the configuration the sweep harness uses against the
    per-instance optimum.
    """
    cells = []
    alphas = [predictions[lam].alpha for lam in LAMBDAS]
    for seed in SEEDS:
        inst = generate(FIG4, N_CELLS, "gaussian", seed)
        sols = solve_lasso_path(inst.A, inst.y, LAMBDAS[::-1], tol=1e-8)[::-1]
        assert all(sol.converged for sol in sols)
        # stop_tol = 0 disables the iterate-change stop, so every row runs
        # the full 100 steps even after an exact plateau
        finals, diag_rows = zip(*run_amp_grid(inst, FIG4, LAMBDAS, alphas, t_max=100,
                                              stop_tol=0.0, threshold_policy="residual"))
        # the whole stack replayed with its recorded thresholds repeats the
        # run bit for bit; its near-boundary sets for t = 30 .. 100
        masks = []
        for t, (state, near) in enumerate(replay_stack(inst, diag_rows), start=1):
            if t >= 30:
                masks.append(near)
        assert np.array_equal(state.x, [final.x for final in finals])
        for row, (lam, sol, final, diags) in enumerate(zip(LAMBDAS, sols, finals, diag_rows)):
            M = np.array([mask[row] for mask in masks])
            sizes = M.sum(axis=1).astype(np.float64)
            inter = M.astype(np.float32) @ M.astype(np.float32).T
            grow = (sizes[None, :] - inter) / N_CELLS
            np.fill_diagonal(grow, 0.0)
            # diagnostics rows cover t = 1 .. 100
            assert diags[9].t == 10 and diags[99].t == 100
            cells.append({
                "lam": lam, "seed": seed,
                "mse_lasso": float(np.mean((sol.x_hat - inst.x0) ** 2)),
                "amp_gap": float(np.mean((final.x - sol.x_hat) ** 2)),
                "sg10": diags[9].subgradient_norm,
                "sg100": diags[99].subgradient_norm,
                "pair_growth": float(grow.max()),
                "s100_frac": diags[99].active_set_size / N_CELLS,
            })
    return cells


@pytest.fixture(scope="session")
def rademacher_mse():
    out = {lam: [] for lam in LAMBDAS}
    for seed in SEEDS:
        inst = generate(FIG4, N_CELLS, "rademacher", seed)
        sols = solve_lasso_path(inst.A, inst.y, LAMBDAS[::-1], tol=1e-8)[::-1]
        for lam, sol in zip(LAMBDAS, sols):
            assert sol.converged
            out[lam].append(float(np.mean((sol.x_hat - inst.x0) ** 2)))
    return out


def _check_reproduction(num, label, averages, predictions):
    worst = 0.0
    worst_lam = None
    for lam in LAMBDAS:
        pred = predictions[lam].mse_predicted
        allowed = max(0.05 * pred, 0.005)
        ratio = abs(averages[lam] - pred) / allowed
        if ratio > worst:
            worst, worst_lam = ratio, lam
    ok = worst <= 1.0
    _line(num, ok, f"{label}: worst deviation {100 * worst:.1f}% of the "
                   f"allowed max(5% rel, 0.005 abs), at lambda={worst_lam}")
    assert ok


def test_criterion_01_gaussian_reproduction(gaussian_cells, predictions):
    averages = {lam: np.mean([c["mse_lasso"] for c in gaussian_cells
                              if c["lam"] == lam]) for lam in LAMBDAS}
    _check_reproduction(1, "gaussian seed-averaged LASSO MSE vs prediction",
                        averages, predictions)


def test_criterion_02_rademacher_reproduction(rademacher_mse, predictions):
    averages = {lam: np.mean(v) for lam, v in rademacher_mse.items()}
    _check_reproduction(2, "rademacher seed-averaged LASSO MSE vs prediction",
                        averages, predictions)


def test_criterion_03_amp_lasso_agreement(gaussian_cells):
    worst = max(c["amp_gap"] for c in gaussian_cells)
    ok = worst < 1e-3
    _line(3, ok, f"max per-coordinate gap to the reference optimum at t=100 "
                 f"is {worst:.2e} (bound 1e-3), all 200 cells")
    assert ok


def test_criterion_04_state_evolution_tracking():
    lam = 1.0
    t_max = 21
    z_runs, mse_runs = [], []
    theta = tau2 = None
    for seed in SEEDS:
        inst = generate(FIG4, N_CELLS, "gaussian", seed)
        _, diags = run_amp(inst, FIG4, lam, t_max=t_max, stop_tol=0.0,
                           threshold_policy="se")
        assert diags[0].t == 1 and diags[-1].t == t_max
        z_runs.append([d.z_norm2_over_n for d in diags])
        mse_runs.append([d.mse_vs_x0 for d in diags])
        if theta is None:
            # row with t == s carries theta_{s-1} (the threshold that made
            # x^s) and tau_s^2, so prepend the recursion's starting value
            theta = [d.theta for d in diags]
            tau2 = [FIG4.tau2_init] + [d.tau2_se for d in diags]
    z_avg = np.mean(z_runs, axis=0)
    mse_avg = np.mean(mse_runs, axis=0)
    worst = 0.0
    for s in range(1, 21):
        worst = max(worst, abs(z_avg[s - 1] - tau2[s]) / tau2[s])
    for s in range(21):
        pred = mse_functional(FIG4.prior, float(np.sqrt(tau2[s])), theta[s])
        worst = max(worst, abs(mse_avg[s] - pred) / pred)
    ok = worst < 0.05
    _line(4, ok, f"residual power and signal MSE track the scalar recursion, "
                 f"worst relative gap {100 * worst:.2f}% over t<=20, 20 seeds")
    assert ok


def test_criterion_05_risk_identity():
    rng = np.random.default_rng(7)
    worst = 0.0
    for params in _draw_param_sets(11, 50):
        lam = float(rng.uniform(0.05, 3.0))
        alpha = invert_calibration(params, lam)
        tau2_star = fixed_point(params, alpha)
        tau = float(np.sqrt(tau2_star))
        direct = mse_functional(params.prior, tau, alpha * tau)
        identity = params.delta * (tau2_star - params.sigma2)
        worst = max(worst, abs(direct - identity))
    ok = worst <= 1e-10
    _line(5, ok, f"direct expectation vs delta*(tau*^2 - sigma^2): worst "
                 f"absolute gap {worst:.2e} over 50 draws (bound 1e-10)")
    assert ok


def test_criterion_06_calibration_round_trip():
    worst = 0.0
    tested = skipped = 0
    for params in _draw_param_sets(20260818, 5):
        amin = alpha_min(params.delta)
        grid = np.linspace(amin + 0.1, 5.0, 51)[1:]
        for alpha in grid:
            lam = calibrate_lambda(params, float(alpha))
            if lam <= 0.0:
                # outside the inverse map's domain (penalties are positive)
                skipped += 1
                continue
            tested += 1
            worst = max(worst, abs(invert_calibration(params, lam) - alpha))
    ok = worst <= 1e-6 and tested >= 240
    _line(6, ok, f"round trip worst |alpha - alpha'| = {worst:.2e} over "
                 f"{tested} grid points (bound 1e-6); {skipped} points gave a "
                 f"nonpositive penalty and lie outside the inverse's domain")
    assert ok


def test_criterion_07_alpha_min():
    worst_res = worst_dev = 0.0
    for delta in (0.1, 0.3, 0.64, 0.9):
        root = alpha_min(delta)
        worst_res = max(worst_res, abs(edge_gap(root, delta)))
        worst_dev = max(worst_dev, abs(root - bisect_alpha_min(delta)))
    ok = worst_res <= 1e-12 and worst_dev <= 1e-10
    _line(7, ok, f"defining equation residual {worst_res:.2e} (bound 1e-12), "
                 f"vs bisection oracle {worst_dev:.2e} (bound 1e-10)")
    assert ok


def test_criterion_08_fixed_point_properties():
    cases = [(FIG4, 1.0), (FIG4, 2.0), (FIG4, 3.5)]
    for params in _draw_param_sets(31, 2):
        cases.append((params, alpha_min(params.delta) + 1.0))
    rng = np.random.default_rng(5)
    worst_curv = -np.inf
    worst_deriv = -np.inf
    for params, alpha in cases:
        base = fixed_point(params, alpha)
        for _ in range(10):
            t20 = float(rng.uniform(0.005, 5.0 * base))
            traj = iterate_from(params, alpha, t20)
            diffs = np.diff(traj)
            assert np.all(diffs >= -1e-13) or np.all(diffs <= 1e-13)
            assert abs(traj[-1] - base) <= 1e-9 * base
        grid = np.linspace(0.02, 3.0 * base, 60)
        f_vals = np.array([se_map(params, t2, alpha * np.sqrt(t2)) for t2 in grid])
        worst_curv = max(worst_curv, float(np.diff(f_vals, 2).max()))
        d = se_derivative(params, base, alpha)
        assert 0.0 <= d < 1.0
        worst_deriv = max(worst_deriv, d)
    ok = worst_curv <= 1e-10
    _line(8, ok, f"monotone from 10 random starts (5 parameter sets), max "
                 f"second difference {worst_curv:.2e} (concavity bound 1e-10), "
                 f"max slope at the fixed point {worst_deriv:.3f} (must be <1)")
    assert ok


def test_criterion_09_two_time_recursion():
    # the smallest grid penalty mixes slowest, keeping the adjacent-time gap
    # above the quadrature noise floor through t=50
    alpha = invert_calibration(FIG4, 0.2)
    T = 51
    R = two_time_recursion(FIG4, alpha, T)
    tau2 = FIG4.sigma2 + FIG4.prior.second_moment / FIG4.delta
    one_dim = [tau2]
    for _ in range(T):
        tau2 = se_map(FIG4, tau2, alpha * np.sqrt(tau2))
        one_dim.append(tau2)
    diag_gap = float(np.max(np.abs(np.diag(R) - np.array(one_dim))))
    t2_star = fixed_point(FIG4, alpha)
    ts = np.arange(5, 51)
    gaps = np.array([abs(R[t, t + 1] - t2_star) for t in ts])
    assert np.all(gaps > 0)
    slope, _ = np.polyfit(ts, np.log(gaps), 1)
    r = float(np.corrcoef(ts, np.log(gaps))[0, 1])
    ok = diag_gap <= 1e-8 and slope < 0 and r < -0.98
    _line(9, ok, f"diagonal vs 1-D recursion {diag_gap:.2e} (bound 1e-8); "
                 f"adjacent-time gap decays log-linearly over t in [5,50], "
                 f"slope {slope:.3f}, correlation {r:.4f}")
    assert ok


def test_criterion_10_monte_carlo():
    rng = np.random.default_rng(614)
    n_samples = 10_000_000
    chunk = 1_000_000
    worst_z = 0.0
    for _ in range(20):
        eps = rng.uniform(0.05, 0.3)
        neg, pos = -rng.uniform(0.3, 2.0), rng.uniform(0.3, 2.0)
        w = rng.dirichlet((1.0, 1.0))
        prior = Prior((neg, 0.0, pos), (eps * w[0], 1 - eps, eps * w[1]))
        tau_a, tau_b = rng.uniform(0.3, 1.8, 2)
        theta_a, theta_b = rng.uniform(0.2, 2.5, 2)
        rho = rng.uniform(-0.9, 0.9)
        cov = rho * tau_a * tau_b
        slope = cov / tau_a
        resid = float(np.sqrt(tau_b ** 2 - slope ** 2))
        sums = np.zeros(3)
        sumsq = np.zeros(3)
        for _ in range(n_samples // chunk):
            x0 = rng.choice(prior.atoms_arr, size=chunk, p=prior.weights_arr)
            u = rng.standard_normal(chunk)
            v = rng.standard_normal(chunk)
            ea = soft_threshold(x0 + tau_a * u, theta_a) - x0
            eb = soft_threshold(x0 + slope * u + resid * v, theta_b) - x0
            vals = (ea ** 2, np.abs(x0 + tau_a * u) > theta_a, ea * eb)
            for i, arr in enumerate(vals):
                sums[i] += arr.sum()
                sumsq[i] += (arr.astype(np.float64) ** 2).sum()
        means = sums / n_samples
        ses = np.sqrt((sumsq / n_samples - means ** 2) / (n_samples - 1))
        closed = (mse_functional(prior, tau_a, theta_a),
                  eta_prime_expectation(prior, tau_a, theta_a),
                  cross_mse_functional(prior, tau_a, tau_b, cov, theta_a, theta_b))
        for m, s, c in zip(means, ses, closed):
            worst_z = max(worst_z, abs(m - c) / s)
    ok = worst_z <= 3.0
    _line(10, ok, f"three scalar functionals vs 1e7-sample Monte-Carlo on 20 "
                  f"configurations: worst |z| = {worst_z:.2f} (bound 3 SE)")
    assert ok


def test_criterion_11_lasso_oracle():
    worst = 0.0
    for seed in range(20):
        A, y = small_instance(seed)
        lam = 0.05 + 0.02 * seed
        ours = solve_lasso(A, y, lam, tol=1e-11)
        worst = max(worst, float(np.max(np.abs(ours.x_hat
                                               - coordinate_descent(A, y, lam)))))
        if seed == 0:
            big = solve_lasso(A, y, float(np.max(np.abs(A.T @ y))))
            assert np.all(big.x_hat == 0.0)
    ok = worst < 1e-8
    _line(11, ok, f"solver vs coordinate-descent oracle on 20 small instances: "
                  f"worst coordinate gap {worst:.2e} (bound 1e-8); penalty at "
                  f"the critical level returns the exact zero vector")
    assert ok


def test_criterion_12_ensemble_sanity():
    worst_col = 0.0
    for ensemble in ("gaussian", "rademacher"):
        for seed in (0, 1):
            inst = generate(FIG4, N_CELLS, ensemble, seed)
            smax, smin, passed = singular_edge_check(inst.A, FIG4.delta)
            assert passed, (ensemble, seed, smax, smin)
            norms = np.linalg.norm(inst.A, axis=0)
            worst_col = max(worst_col, float(np.max(np.abs(norms - 1.0))))
    ok = worst_col <= 0.1
    _line(12, ok, f"singular-value edges within 5% of the asymptotic bulk "
                  f"edges (both ensembles, 2 seeds); worst column-norm "
                  f"deviation {worst_col:.3f} (bound 0.1)")
    assert ok


def test_criterion_13_subgradient_decay(gaussian_cells):
    bound = 1e-2
    over = [c for c in gaussian_cells if c["sg100"] >= bound]
    not_below_t10 = [c for c in gaussian_cells if c["sg100"] >= c["sg10"]]
    per_lam_max = {lam: max(c["sg100"] for c in gaussian_cells
                            if c["lam"] == lam) for lam in LAMBDAS}
    worst = max(per_lam_max.values())
    ok = not over and not not_below_t10
    _line(13, ok,
          f"optimality-certificate norm at t=100: {len(over)}/200 cells at or "
          f"above the 1e-2 bound (max {worst:.4f}), {len(not_below_t10)}/200 "
          f"not below their t=10 value")
    if ok:
        return
    lam_rows = ", ".join(f"{lam}: {per_lam_max[lam]:.4f}" for lam in LAMBDAS)
    pytest.fail(
        f"criterion 13: {len(over)} of 200 cells have a t=100 certificate "
        f"norm at or above the 1e-2 bound, and in {len(not_below_t10)} of 200 "
        f"cells the value at t=100 is not below its t=10 value.\n\n"
        f"Per-penalty maxima of the t=100 certificate norm: {lam_rows}.\n\n"
        "The certificate lam*s - A^T(y - A x) splits into two terms that "
        "vanish as the iteration converges plus a third term proportional to "
        "(lam - theta*(1 - onsager)). The residual policy's update "
        "theta_t = lam + onsager_{t-1}*theta_{t-1} makes that prefactor zero "
        "at any fixed point with a stable support, so a value above the bound "
        "means AMP had not converged by t=100 or its threshold no longer "
        "satisfies theta*(1 - onsager) = lam.")


def test_criterion_14_active_set_stabilization(gaussian_cells, predictions):
    worst_growth = max(c["pair_growth"] for c in gaussian_cells)
    worst_rel = 0.0
    for lam in LAMBDAS:
        pred = predictions[lam]
        limit = eta_prime_expectation(FIG4.prior,
                                      float(np.sqrt(pred.tau2_star)),
                                      (1 - _ACTIVE_GAMMA) * pred.theta_star)
        avg = np.mean([c["s100_frac"] for c in gaussian_cells
                       if c["lam"] == lam])
        worst_rel = max(worst_rel, abs(avg - limit) / limit)
    ok = worst_growth < 0.02 and worst_rel < 0.05
    _line(14, ok, f"active-set drift |S_t2 \\ S_t1|/N at most {worst_growth:.4f} "
                  f"over t in [30,100] (bound 0.02); seed-averaged size vs "
                  f"analytic limit within {100 * worst_rel:.2f}% (bound 5%)")
    assert ok
