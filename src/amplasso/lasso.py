"""Reference solver for the l1-penalized least-squares problem.

Minimizes C(x) = 0.5 ||y - A x||^2 + lambda ||x||_1 by accelerated proximal
gradient with restarts on cost increase, certified by the KKT residual so the
returned solution is solver-independent ground truth. The step 1/sigma_max(A)^2
comes from a Lanczos (ARPACK) estimate of the largest singular value that is
exact to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import svds

from .scalars import soft_threshold

_KKT_CHECK_EVERY = 10


@dataclass
class LassoSolution:
    x_hat: np.ndarray
    cost: float
    kkt_residual: float
    iterations: int
    converged: bool


def lasso_cost(A, y, x, lam):
    """C(x) = 0.5 ||y - A x||^2 + lambda ||x||_1."""
    A = np.asarray(A, dtype=float)
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    if A.shape[0] != y.shape[0] or A.shape[1] != x.shape[0]:
        raise ValueError(f"dimension mismatch: A {A.shape}, y {y.shape}, x {x.shape}")
    r = y - A @ x
    return float(0.5 * np.dot(r, r) + lam * np.sum(np.abs(x)))


def _kkt_violation(g, x, lam):
    """kkt_residual given g = A^T (y - A x), so a caller holding g needs no product."""
    on = x != 0.0
    worst = 0.0
    if (~on).any():
        worst = max(worst, float(np.max(np.abs(g[~on]))) - lam)
    if on.any():
        worst = max(worst, float(np.max(np.abs(g[on] - lam * np.sign(x[on])))))
    return max(worst, 0.0)


def kkt_residual(A, y, x, lam):
    """Maximum violation of the optimality conditions at x.

    With g = A^T (y - A x): off the support, max(0, ||g||_inf - lambda);
    on the support, max |g_i - lambda sign(x_i)|. Zero iff x is optimal.
    """
    return _kkt_violation(A.T @ (y - A @ x), x, lam)


def spectral_norm(A):
    """Largest singular value of A, by ARPACK Lanczos from a fixed start vector.

    ARPACK needs min(A.shape) >= 2 and a nonzero A; otherwise A has rank at
    most one and its Frobenius norm is its spectral norm.
    """
    if min(A.shape) < 2 or not A.any():
        return float(np.linalg.norm(A))
    v0 = np.random.default_rng(0x5EED).standard_normal(min(A.shape))
    return float(svds(A, k=1, v0=v0, return_singular_vectors=False)[0])


def solve_lasso(A, y, lam, tol=1e-8, max_iter=50_000, smax=None):
    """Solve the penalized problem to a KKT residual below tol.

    Accelerated proximal gradient (momentum reset whenever the cost
    increases) with step 1/sigma_max(A)^2. `smax` is sigma_max(A) when the
    caller already holds it (several penalties on one matrix); otherwise it
    is computed here. If max_iter is exhausted the last iterate is returned
    with converged=False.
    """
    if lam <= 0:
        raise ValueError(f"lambda must be positive, got {lam}")
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    if smax is not None and not (np.isfinite(smax) and smax >= 0):
        raise ValueError(f"smax must be finite and nonnegative, got {smax}")
    A = np.asarray(A, dtype=float)
    y = np.asarray(y, dtype=float)
    n, N = A.shape
    if smax is None:
        smax = spectral_norm(A)
    step = 1.0 / (smax * smax) if smax > 0 else 1.0

    x = np.zeros(N)
    x_prev = x
    Ax = np.zeros(n)
    Ax_prev = Ax
    tk = tk_prev = 1.0
    cost_prev = 0.5 * float(np.dot(y, y))
    for it in range(1, max_iter + 1):
        beta = (tk_prev - 1.0) / tk
        # the gradient point is a linear combination of stored iterates, so
        # its image under A comes from cached products rather than a matvec
        v = x + beta * (x - x_prev)
        Av = Ax + beta * (Ax - Ax_prev)
        g = A.T @ (Av - y)
        x_new = soft_threshold(v - step * g, step * lam)
        Ax_new = A @ x_new
        r = y - Ax_new
        cost = 0.5 * float(np.dot(r, r)) + lam * float(np.sum(np.abs(x_new)))
        if cost > cost_prev:
            tk = tk_prev = 1.0
        else:
            tk_prev, tk = tk, 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * tk * tk))
        x_prev, x = x, x_new
        Ax_prev, Ax = Ax, Ax_new
        cost_prev = cost
        # the loop always ends on a check: at convergence or at it == max_iter
        if it % _KKT_CHECK_EVERY == 0 or it == max_iter:
            kkt = _kkt_violation(A.T @ r, x, lam)
            if kkt <= tol:
                break
    return LassoSolution(
        x_hat=x,
        cost=lasso_cost(A, y, x, lam),
        kkt_residual=float(kkt),
        iterations=it,
        converged=bool(kkt <= tol),
    )
