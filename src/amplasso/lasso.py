"""Reference solver for the l1-penalized least-squares problem.

Minimizes C(x) = 0.5 ||y - A x||^2 + lambda ||x||_1 by accelerated proximal
gradient (FISTA) with gradient restarts, finished by conjugate
gradients on the signed support of each failed check, and certified by the
KKT residual so the returned solution is solver-independent ground truth.

A solve runs a path of penalties on one A and y, in the order given
(pathwise solving, as in glmnet, Friedman, Hastie & Tibshirani 2010, and
FPC's continuation, Hale, Yin & Zhang 2008); solve_lasso is the path of one
penalty. Each penalty starts from the path's last converged solution, and
at 0 until there is one. The start carries its image A x and its gradient
A^T (y - A x), which give the penalty's first step with no product.

The iterate lives on a working set W of columns, outside of which it is 0
(working sets with KKT checks over all columns: Tibshirani et al. 2012,
strong rules; Massias, Gramfort & Salmon 2018, Celer). A penalty's W is the
W the penalties before it left, grown by its start's support and every
coordinate whose gradient breaks the KKT bound |g_j| <= lambda; each KKT
check computes A^T (y - A x) over all columns and appends to W the
coordinates outside it that break the bound, so W only grows along the
path. Every FISTA step and every conjugate-gradient step multiplies only
W's columns, which the solver keeps as the column prefix A[:, :m] by moving
columns inside A's own buffer, a block of rows at a time and with no copy
of A or of W. A is put back in its own column order once, when the path
returns or raises. A is therefore written to during a solve, and a
read-only A is rejected.

Each penalty is certified by its own last check, the one that ends it at a
KKT residual of at most tol or at max_iter: the returned image is the last
FISTA step's direct product A_W x, the gradient is that check's A^T (y -
image) over all columns, put back in A's own order, and the KKT residual
is computed from them. Both products ran on A with W's
columns moved to its front, so they can differ by rounding from products
on A in its own order.

The minimiser is fixed by its signed support S, s: given them, x_S solves the
linear system A_S^T A_S x_S = A_S^T y - lambda s. After every failed KKT
check whose signed support has 0 < |S| <= n, on a cold start as on a warm
one, conjugate gradients solve that system from the checked iterate (the
subspace phase of FPC_AS, Wen, Yin, Goldfarb & Zhang 2010) for at most 9 of
the 10 steps between checks, and FISTA continues from where they stop: the
point is kept whether or not the support was right, since its cost is no
higher, and the check that ends the block, computed from a fresh gradient
at a FISTA iterate, decides. Every conjugate-gradient step, like every
FISTA step, costs one product with A_W and one with A_W^T, and both kinds
count as iterations under one cap. A penalty of k iterations and c checks
makes 2k + c - 1 products, since its first step's gradient comes with its
start, and the path makes one more: the gradient A^T y at 0, computed once
before any column moves, which is every cold start's gradient.

The step is 1/L for a curvature estimate L that needs no spectral norm
(the local test of Beck & Teboulle 2009, kept without retries). L starts at
||A||_F^2 / min(n, N), a lower bound on sigma_max(A)^2 computed once per
path, at every penalty, and each step d from the gradient point v to the
new iterate is tested against it: the cost's smooth part is quadratic, so
the step is a majorisation step exactly when ||A d||^2 <= L ||d||^2, and
A d = A x_new - A v is a difference of images the loop already holds. A
step that fails the test is kept, L doubles for the steps after it and the
momentum restarts, as after a step with d . (x_new - x) < 0 (the gradient
restart of O'Donoghue & Candes 2015, which needs no objective value, so
y - A x is formed only at a check). L can double at most
ceil(log2(min(n, N))) times before it reaches sigma_max^2, which bounds
every sigma_max(A_W)^2, after which no test fails, and the KKT certificate
decides convergence either way. An all-zero A keeps step 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .scalars import integer_at_least, positive_float, soft_threshold

_KKT_CHECK_EVERY = 10
# columns of A move a block of rows at a time, each block about this many bytes
_MOVE_BYTES = 1 << 20


@dataclass
class LassoSolution:
    """One penalty's last iterate, certified by its last KKT check.

    x_hat and gradient are in A's own column order. image is A @ x_hat from
    the last FISTA step and gradient is that check's A.T @ (y - image), both
    direct products on A with the working set's columns moved to its front;
    kkt_residual is computed from them, and converged is kkt_residual <= tol.
    """

    x_hat: np.ndarray
    image: np.ndarray
    gradient: np.ndarray
    kkt_residual: float
    iterations: int
    converged: bool


def _kkt_violation(g, x, lam):
    """Maximum violation of the optimality conditions at x, the KKT residual.

    With g = A^T (y - A x), which a caller holding it needs no product for:
    off the support, max(0, ||g||_inf - lambda); on the support,
    max |g_i - lambda sign(x_i)|. Zero iff x is optimal; NaN if g or x holds
    a NaN, so no tolerance certifies such an x.
    """
    worst = np.where(x != 0.0, np.abs(g - lam * np.sign(x)), np.abs(g) - lam)
    return float(np.max(worst, initial=0.0))


class _Front:
    """The working set W, kept as the column prefix A[:, :m] inside A's own buffer.

    order[p] is the column of A's own order that sits at position p. Columns
    move by swaps, a block of rows at a time, so that a move holds no more
    than about _MOVE_BYTES of A besides A itself; restore() puts them back.
    """

    def __init__(self, A):
        if not A.flags.writeable:
            raise ValueError("A must be writeable: the solver moves its columns in place "
                             "and puts them back")
        self.A = A
        self.order = np.arange(A.shape[1])
        self.m = 0
        self._rows = max(1, _MOVE_BYTES // (A.itemsize * A.shape[1]))

    def _blocks(self):
        for r in range(0, self.A.shape[0], self._rows):
            yield self.A[r:r + self._rows]

    def append(self, wanted, *carried):
        """Move the columns at positions m and on that `wanted` marks to the end of W.

        Each of them swaps places with a column that W grows over and
        `wanted` does not mark; the entries of every `carried` vector, indexed
        by position, swap with them. Returns the number of columns W gained.
        """
        m = self.m
        new = m + np.flatnonzero(wanted[m:])
        end = m + new.size
        out = new[new >= end]
        into = m + np.flatnonzero(~wanted[m:end])
        if out.size:
            for block in self._blocks():
                block[:, out], block[:, into] = block[:, into], block[:, out]
            for v in (self.order, *carried):
                v[out], v[into] = v[into], v[out]
        self.m = end
        return new.size

    def scatter(self, x):
        """The vector of A's own column order that is x on W and 0 off it."""
        full = np.zeros(self.order.size)
        full[self.order[:self.m]] = x
        return full

    def restore(self):
        """Put every column back in A's own order, which empties W."""
        moved = np.flatnonzero(self.order != np.arange(self.order.size))
        if moved.size:
            home = self.order[moved]
            for block in self._blocks():
                block[:, home] = block[:, moved]
            self.order = np.arange(self.order.size)
        self.m = 0


def _cg_finish(A, lam, tol, x, Ax, g, signs, budget):
    """Up to `budget` conjugate-gradient steps on A_S^T A_S x_S = A_S^T y - lam s.

    S, s is the signed support `signs` of x, Ax is the image A x and
    g = A^T (y - A x). Each step costs A @ p and A.T @ q with p zero off S, so
    no column of A is copied, and carries Ax and the on-support residual by
    recurrences. Returns (x, Ax, steps) without touching the inputs. It
    stops when the on-support residual reaches tol, after `budget` steps, or
    at a step that would flip a sign, which is counted but not taken.
    """
    on = signs != 0.0
    rho = np.where(on, g - lam * signs, 0.0)
    p = rho
    rr = float(rho @ rho)
    steps = 0
    while steps < budget and np.max(np.abs(rho)) > tol:
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
    return x, Ax, steps


def _solve_penalty(front, y, lam, tol, max_iter, lip, start):
    """One penalty of a path on `front`, from start = (x_hat, image, gradient) in A's own order.

    W grows by the start's support and violators, the steps run on it and
    the checks over all columns, as solve_lasso_path describes; the return
    is the LassoSolution of the check that ends the penalty.
    """
    A = front.A
    n, N = A.shape
    x_hat, image, gradient = start
    front.append(((x_hat != 0.0) | (np.abs(gradient) > lam))[front.order])
    A_W = A[:, :front.m]
    W = front.order[:front.m]
    x = x_prev = x_hat[W]
    Ax = Ax_prev = image
    # the first step's gradient point is x, whose gradient is known
    g = -gradient[W]
    step = 1.0 / lip if lip > 0 else 1.0
    tk = tk_prev = 1.0
    it = 0
    while True:
        beta = (tk_prev - 1.0) / tk
        # the gradient point is a linear combination of stored iterates, so
        # its image under A comes from cached products rather than a matvec
        v = x + beta * (x - x_prev)
        Av = Ax + beta * (Ax - Ax_prev)
        if g is None:
            g = A_W.T @ (Av - y)
        x_new = soft_threshold(v - step * g, step * lam)
        g = None
        Ax_new = A_W @ x_new
        d, Ad = x_new - v, Ax_new - Av
        curved = float(np.dot(Ad, Ad)) > lip * float(np.dot(d, d))
        if curved:
            lip *= 2.0
            step = 1.0 / lip
        # the gradient restart of the module docstring
        if curved or float(np.dot(d, x_new - x)) < 0.0:
            tk = tk_prev = 1.0
        else:
            tk_prev, tk = tk, 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * tk * tk))
        x_prev, x = x, x_new
        Ax_prev, Ax = Ax, Ax_new
        it += 1
        # checks fall on multiples of 10, since a finish never crosses one;
        # the loop always ends on a check: at convergence or at max_iter
        if it % _KKT_CHECK_EVERY and it < max_iter:
            continue
        r = y - Ax
        corr = A.T @ r
        kkt = _kkt_violation(corr, np.concatenate((x, np.zeros(N - front.m))), lam)
        # a NaN residual ends the solve uncertified: a NaN iterate stays NaN
        if not kkt > tol or it == max_iter:
            x_hat = front.scatter(x)
            gradient = np.empty(N)
            gradient[front.order] = corr
            # kkt, a maximum over the coordinates, is the same in A's own order
            return LassoSolution(x_hat=x_hat, image=Ax, gradient=gradient, kkt_residual=kkt,
                                 iterations=it, converged=bool(kkt <= tol))
        grown = front.append(np.abs(corr) > lam, corr)
        if grown:
            # x is 0 off W, so the new coordinates enter at 0
            A_W = A[:, :front.m]
            x, x_prev = (np.concatenate((u, np.zeros(grown))) for u in (x, x_prev))
        signs = np.sign(x)
        if 0 < np.count_nonzero(signs) <= n:
            # the block's last step stays a FISTA step, so the check that
            # ends it sees an image A x computed directly
            budget = min(_KKT_CHECK_EVERY - 1, max_iter - 1 - it)
            x, Ax, steps = _cg_finish(A_W, lam, tol, x, Ax, corr[:front.m], signs, budget)
            it += steps
            # the first FISTA step from the finish's point takes no momentum
            x_prev, Ax_prev = x, Ax


def solve_lasso_path(A, y, lams, tol=1e-8, max_iter=50_000):
    """Solve the penalized problem at each penalty of `lams`, in the order given.

    Returns one LassoSolution per penalty, each certified by its own last
    KKT check. At each penalty, accelerated proximal gradient with step 1/L,
    L the curvature estimate of the module docstring: it starts at
    ||A||_F^2 / min(n, N) and doubles after each step with
    ||A d||^2 > L ||d||^2, and the momentum resets after such a step and
    after a step with d . (x_new - x) < 0 (the gradient restart of
    O'Donoghue & Candes 2015). The iterate is 0 outside the working set
    W, which the penalty grows by its start's support and KKT violators
    (|gradient_j| > lambda), and the steps multiply only W's columns. The
    KKT residual is checked, by one product with A^T over all columns, when
    the step count reaches a multiple of 10, and at max_iter; a failed
    check appends its violators to W. After every failed check whose
    signed support S, s has 0 < |S| <= n, up to 9 conjugate-gradient steps
    on A_S^T A_S x_S = A_S^T y - lambda s start from the checked iterate,
    and FISTA continues from where they stop, so every check comes from a
    fresh gradient at a FISTA iterate.

    Each penalty starts from the path's last converged solution: FISTA
    begins at its x_hat with its image, its gradient and no momentum.
    Until a penalty has converged, each penalty starts at 0, with
    the gradient A^T y that the path computes once. A penalty that did not
    converge passes nothing on.

    W's columns are moved to the front of A in place, and A is back in its
    own column order, bit for bit, when the path returns or raises.

    `iterations` counts a penalty's FISTA and conjugate-gradient steps,
    each two products with A_W, under one max_iter per penalty; with its
    checks, a penalty makes 2 iterations + checks - 1 products, and the
    path one more for A^T y. If max_iter is exhausted the last checked
    iterate is returned with converged=False, as it is at the first check
    whose residual is NaN (a NaN in A or y): NaN is never certified.

    Raises:
        ValueError: a penalty or tol not positive and finite, max_iter not
            an integer of at least 1, A not a matrix with at least one row
            and one column, y not of shape (n,), or A read-only.
    """
    lams = [positive_float(lam, "lambda") for lam in lams]
    positive_float(tol, "tol")
    integer_at_least(max_iter, 1, "max_iter")
    A = np.asarray(A, dtype=float)
    y = np.asarray(y, dtype=float)
    if A.ndim != 2 or 0 in A.shape:
        raise ValueError(f"A must be a matrix with a row and a column, not of shape {A.shape}")
    n, N = A.shape
    if y.shape != (n,):
        raise ValueError(f"y must have shape ({n},), an entry per row of A, not {y.shape}")
    front = _Front(A)
    # ||A||_F^2 is the sum of at most min(n, N) squared singular values; the
    # norm of a C-contiguous array reads a raveled view, so A is not copied
    lip = float(np.linalg.norm(A)) ** 2 / min(n, N)
    start = np.zeros(N), np.zeros(n), A.T @ y
    path = []
    try:
        for lam in lams:
            sol = _solve_penalty(front, y, lam, tol, max_iter, lip, start)
            path.append(sol)
            if sol.converged:
                start = sol.x_hat, sol.image, sol.gradient
        return path
    finally:
        front.restore()


def solve_lasso(A, y, lam, tol=1e-8, max_iter=50_000):
    """Solve the penalized problem at one penalty: solve_lasso_path with lam alone.

    Raises:
        ValueError: as solve_lasso_path.
    """
    return solve_lasso_path(A, y, [lam], tol=tol, max_iter=max_iter)[0]
