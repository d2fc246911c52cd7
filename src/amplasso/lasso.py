"""Reference solver for the l1-penalized least-squares problem.

Minimizes C(x) = 0.5 ||y - A x||^2 + lambda ||x||_1 by accelerated proximal
gradient (FISTA) with restarts on cost increase, finished by conjugate
gradients once the signed support has settled, and certified by the KKT
residual so the returned solution is solver-independent ground truth.

The minimiser is fixed by its signed support S, s: given them, x_S solves the
linear system A_S^T A_S x_S = A_S^T y - lambda s. When two successive KKT
checks of FISTA see the same signed support, conjugate gradients solve that
system from the current iterate (the subspace phase of FPC_AS, Wen, Yin,
Goldfarb & Zhang 2010) for at most 9 of the 10 steps between checks, and
FISTA continues from where they stop: the point is kept whether or not the
support was right, since its cost is no higher, and the check that ends the
block, computed from a fresh gradient at a FISTA iterate, decides. Every
conjugate-gradient step, like every FISTA step, costs one product with A and
one with A^T, and both kinds count as iterations under one cap, so a solve
of k iterations makes 2k products, plus one per check and one for the
returned image.

The step is 1/L for a curvature estimate L that needs no spectral norm
(the local test of Beck & Teboulle 2009, kept without retries). L starts at
||A||_F^2 / min(n, N), a lower bound on sigma_max(A)^2, and each step d from
the gradient point v to the new iterate is tested against it: the cost's
smooth part is quadratic, so the step is a majorisation step exactly when
||A d||^2 <= L ||d||^2, and A d = A x_new - A v is a difference of images the
loop already holds. A step that fails the test is kept, L doubles for the
steps after it and the momentum restarts, as after a cost increase. L can
double at most ceil(log2(min(n, N))) times before it reaches sigma_max^2,
after which no test fails, and the KKT certificate decides convergence
either way. An all-zero A keeps step 1.

A solve may start from the solution of the same A and y at another penalty
(a pathwise warm start, as in glmnet, Friedman, Hastie & Tibshirani 2010,
and FPC's continuation, Hale, Yin & Zhang 2008). The solution carries its
image A x_hat, so the start costs no product and the product count above
holds for warm and cold solves alike. A warm solve does not wait for two
checks to agree: its finish runs from every check whose signed support has
not settled, since its supports are those of nearby minimisers rather than
FISTA's transient early ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .scalars import integer_at_least, positive_float, soft_threshold

_KKT_CHECK_EVERY = 10


@dataclass
class LassoSolution:
    """A solve's last iterate; image is A @ x_hat, from a direct product."""

    x_hat: np.ndarray
    image: np.ndarray
    cost: float
    kkt_residual: float
    iterations: int
    converged: bool


def _cost(r, x, lam):
    """C(x) = 0.5 ||y - A x||^2 + lambda ||x||_1, given the residual r = y - A x."""
    return float(0.5 * np.dot(r, r) + lam * np.sum(np.abs(x)))


def _kkt_violation(g, x, lam):
    """Maximum violation of the optimality conditions at x, the KKT residual.

    With g = A^T (y - A x), which a caller holding it needs no product for:
    off the support, max(0, ||g||_inf - lambda); on the support,
    max |g_i - lambda sign(x_i)|. Zero iff x is optimal; NaN if g or x holds
    a NaN, so no tolerance certifies such an x.
    """
    worst = np.where(x != 0.0, np.abs(g - lam * np.sign(x)), np.abs(g) - lam)
    return float(np.max(worst, initial=0.0))


def spectral_norm(A):
    """Largest singular value of A, from NumPy's full SVD."""
    return float(np.linalg.norm(A, 2))


def _cg_finish(A, lam, tol, x, Ax, g, signs, budget):
    """Up to `budget` conjugate-gradient steps on A_S^T A_S x_S = A_S^T y - lam s.

    S, s is the signed support `signs` of x, Ax is the image A x and
    g = A^T (y - A x). Each step costs A @ p and A.T @ q with p zero off S, so
    no column of A is copied, and carries Ax and the on-support residual by
    recurrences. Returns (x, Ax, steps, settled) without touching the inputs:
    settled is True when the on-support residual reached tol or a step would
    flip a sign, in which case that step is counted but not taken.
    """
    on = signs != 0.0
    rho = np.where(on, g - lam * signs, 0.0)
    p = rho
    rr = float(rho @ rho)
    steps = 0
    while np.max(np.abs(rho)) > tol:
        if steps == budget:
            return x, Ax, steps, False
        q = A @ p
        w = A.T @ q
        steps += 1
        a = rr / float(q @ q)
        x_new = x + a * p
        if not np.array_equal(np.sign(x_new), signs):
            break
        x, Ax = x_new, Ax + a * q
        rho = rho - a * np.where(on, w, 0.0)
        rr_next = float(rho @ rho)
        p = rho + (rr_next / rr) * p
        rr = rr_next
    return x, Ax, steps, True


def solve_lasso(A, y, lam, tol=1e-8, max_iter=50_000, start=None):
    """Solve the penalized problem to a KKT residual below tol.

    Accelerated proximal gradient with step 1/L, L the curvature estimate of
    the module docstring: it starts at ||A||_F^2 / min(n, N) and doubles
    after each step with ||A d||^2 > L ||d||^2, and the momentum resets
    after such a step and whenever the cost increases. The KKT residual is
    checked when the step count reaches a multiple of 10, and at max_iter.
    When a check fails with the same signed support S, s as the previous
    check and 0 < |S| < n, up to 9 conjugate-gradient steps on
    A_S^T A_S x_S = A_S^T y - lambda s start from the checked iterate, and
    FISTA continues from where they stop, so every check, and every
    certificate, comes from a fresh gradient at a FISTA iterate. A signed
    support whose finish reached the tolerance or flipped a sign is
    not solved on again; one that ran out of steps is, from the next check.

    The iterate starts at 0, or at `start`, a LassoSolution of the same A
    and y at any penalty: FISTA begins at start.x_hat with image
    start.image and no momentum, the first step's cost is compared with the
    start's cost at this lambda, and a failed check needs no agreeing
    previous check for its finish.

    `iterations` counts FISTA and conjugate-gradient steps, each two
    products with A, under one max_iter; with one product per check and one
    for the returned image, a solve makes 2 iterations + checks + 1
    products. If max_iter is exhausted the last iterate is returned with
    converged=False, as it is at the first check whose residual is NaN (a
    NaN in A, y or the start): NaN is never certified.

    Raises:
        ValueError: lam or tol not positive and finite, max_iter not an
            integer of at least 1, or a start whose x_hat or image does not
            fit the shape of A.
    """
    positive_float(lam, "lambda")
    positive_float(tol, "tol")
    integer_at_least(max_iter, 1, "max_iter")
    A = np.asarray(A, dtype=float)
    y = np.asarray(y, dtype=float)
    n, N = A.shape
    # ||A||_F^2 is the sum of at most min(n, N) squared singular values; the
    # norm of a C-contiguous array reads a raveled view, so A is not copied
    lip = float(np.linalg.norm(A)) ** 2 / min(n, N)
    step = 1.0 / lip if lip > 0 else 1.0

    if start is None:
        x, Ax = np.zeros(N), np.zeros(n)
    else:
        x = np.asarray(start.x_hat, dtype=float)
        Ax = np.asarray(start.image, dtype=float)
        if x.shape != (N,) or Ax.shape != (n,):
            raise ValueError(f"start does not fit A {A.shape}: x_hat {x.shape}, image {Ax.shape}")
    x_prev = x
    Ax_prev = Ax
    tk = tk_prev = 1.0
    cost_prev = _cost(y - Ax, x, lam)
    signs_prev = None
    settled = set()
    it = 0
    while True:
        beta = (tk_prev - 1.0) / tk
        # the gradient point is a linear combination of stored iterates, so
        # its image under A comes from cached products rather than a matvec
        v = x + beta * (x - x_prev)
        Av = Ax + beta * (Ax - Ax_prev)
        g = A.T @ (Av - y)
        x_new = soft_threshold(v - step * g, step * lam)
        Ax_new = A @ x_new
        d, Ad = x_new - v, Ax_new - Av
        curved = float(np.dot(Ad, Ad)) > lip * float(np.dot(d, d))
        if curved:
            lip *= 2.0
            step = 1.0 / lip
        r = y - Ax_new
        cost = _cost(r, x_new, lam)
        if curved or cost > cost_prev:
            tk = tk_prev = 1.0
        else:
            tk_prev, tk = tk, 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * tk * tk))
        x_prev, x = x, x_new
        Ax_prev, Ax = Ax, Ax_new
        cost_prev = cost
        it += 1
        # checks fall on multiples of 10, since a finish never crosses one;
        # the loop always ends on a check: at convergence or at max_iter
        if it % _KKT_CHECK_EVERY and it < max_iter:
            continue
        corr = A.T @ r
        kkt = _kkt_violation(corr, x, lam)
        # a NaN residual ends the solve uncertified: a NaN iterate stays NaN
        if not kkt > tol or it == max_iter:
            break
        signs = np.sign(x)
        # a cold solve's support is transient until two checks agree; a warm
        # one starts at a neighbouring penalty's minimiser, so it is not
        if ((start is not None or np.array_equal(signs, signs_prev))
                and 0 < np.count_nonzero(signs) < n and signs.tobytes() not in settled):
            # the block's last step stays a FISTA step, so the check that
            # ends it sees an image A x computed directly
            budget = min(_KKT_CHECK_EVERY - 1, max_iter - 1 - it)
            x, Ax, steps, done = _cg_finish(A, lam, tol, x, Ax, corr, signs, budget)
            it += steps
            if done:
                settled.add(signs.tobytes())
            # the first FISTA step from the finish's point takes no momentum
            x_prev, Ax_prev = x, Ax
        signs_prev = signs
    # the loop ends on a check after a FISTA step, so cost is C(x)
    return LassoSolution(
        x_hat=x,
        image=A @ x,
        cost=cost,
        kkt_residual=kkt,
        iterations=it,
        converged=bool(kkt <= tol),
    )
