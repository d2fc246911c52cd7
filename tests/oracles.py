"""Oracles and helpers shared by the unit tests and the acceptance suite.

The oracles (coordinate_descent, bisect_alpha_min, iterate_from) are plain
loops and bisections, slow but independent of the routine each one checks.
Test files import this module by name (`from oracles import ...`); pytest
puts this directory on sys.path because it holds no __init__.py.
"""

import math

import numpy as np
from scipy.special import ndtr

from amplasso.amp import _ACTIVE_GAMMA, amp_step, initial_state
from amplasso.scalars import get_preset, soft_threshold
from amplasso.state_evolution import SEParams, se_map

# the README's setting: delta = 0.64, sigma^2 = 0.2, three-point prior with eps = 0.064
FIG4 = SEParams(delta=0.64, sigma2=0.2, prior=get_preset("three_point_0.064"))


def small_instance(seed, n=8, N=10, k=3):
    """(A, y): A with iid N(0, 1/n) entries, y = A x0 + N(0, 0.01) noise, x0 k-sparse."""
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, N)) / np.sqrt(n)
    x0 = np.zeros(N)
    x0[rng.choice(N, k, replace=False)] = rng.normal(size=k)
    y = A @ x0 + 0.1 * rng.normal(size=n)
    return A, y


def coordinate_descent(A, y, lam, sweeps=200_000, tol=1e-13):
    """Slow but independent: exact single-coordinate minimization in a cycle."""
    n, N = A.shape
    x = np.zeros(N)
    r = y.copy()
    col_sq = (A * A).sum(axis=0)
    for _ in range(sweeps):
        biggest = 0.0
        for j in range(N):
            if col_sq[j] == 0.0:
                continue
            old = x[j]
            c = A[:, j] @ r + col_sq[j] * old
            new = soft_threshold(c, lam) / col_sq[j]
            if new != old:
                r += A[:, j] * (old - new)
                x[j] = new
                biggest = max(biggest, abs(new - old))
        if biggest < tol:
            break
    return x


def edge_gap(alpha, delta):
    """(1 + a^2) Phi(-a) - a phi(a) - delta/2, whose root in alpha is alpha_min(delta)."""
    return ((1 + alpha * alpha) * ndtr(-alpha)
            - alpha * math.exp(-alpha * alpha / 2) / math.sqrt(2 * math.pi) - delta / 2)


def bisect_alpha_min(delta, lo=0.0, hi=16.0, iters=200):
    """Independent oracle for alpha_min: plain bisection on the edge equation."""
    if edge_gap(lo, delta) <= 0:
        return 0.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if edge_gap(mid, delta) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def iterate_from(params, alpha, tau2, cap=10_000):
    """tau_0^2 = tau2, tau_1^2, ... of the map, cut where fixed_point's stop rule holds."""
    seq = [tau2, se_map(params, tau2, alpha * np.sqrt(tau2))]
    residual_tol = 1e-10 / max(1.0, params.delta)
    while len(seq) <= cap:
        seq.append(se_map(params, seq[-1], alpha * np.sqrt(seq[-1])))
        prev, cur, after = seq[-3:]
        if abs(cur - prev) <= 1e-12 * max(1.0, abs(prev)) and abs(after - cur) <= residual_tol:
            return seq[:-1]
    raise AssertionError(f"no fixed point within {cap} steps from tau2={tau2}")


class CountingArray(np.ndarray):
    """Counts the matrix products that involve it; results are plain arrays."""

    products = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            CountingArray.products += 1
        inputs = [a.view(np.ndarray) if isinstance(a, CountingArray) else a for a in inputs]
        return getattr(ufunc, method)(*inputs, **kwargs)


def replay_stack(inst, diag_rows):
    """Yield (state, near) after each amp_step of the whole stack on its recorded thresholds.

    diag_rows holds one run_amp_grid diagnostics list per row, all of one
    length (stop_tol = 0 runs every row to t_max), so the replay repeats the
    run bit for bit. near is the rows' near-boundary sets, the coordinates
    that active_set_size counts.
    """
    state = initial_state(inst.y, inst.A.shape[1], rows=len(diag_rows))
    for t in range(len(diag_rows[0])):
        theta = np.array([diags[t].theta for diags in diag_rows])
        state = amp_step(state, inst.A, inst.y, theta)
        yield state, np.abs((state.pre - state.x) / theta[:, None]) >= 1.0 - _ACTIVE_GAMMA
