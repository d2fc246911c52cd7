"""Reference-solver tests against a cyclic coordinate-descent oracle."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from amplasso import lasso
from amplasso.lasso import solve_lasso, solve_lasso_path

from oracles import CountingArray, coordinate_descent, small_instance


def lasso_cost(A, y, x, lam):
    """C(x) = 0.5 ||y - A x||^2 + lambda ||x||_1, from a fresh product."""
    r = y - A @ x
    return float(0.5 * np.dot(r, r) + lam * np.sum(np.abs(x)))


def kkt_residual(A, y, x, lam):
    """The solver's certificate kernel at x, from a fresh gradient A^T (y - A x)."""
    return lasso._kkt_violation(A.T @ (y - A @ x), x, lam)


@pytest.fixture
def finishes(monkeypatch):
    """(signs, budget, x, steps) of every conjugate-gradient finish solve_lasso runs.

    The finish sees the working set's coordinates, the column prefix the
    solve has moved to the front of A; signs and x are mapped back to A's
    own columns.
    """
    log, fronts = [], []
    real = lasso._cg_finish

    class Recorded(lasso._Front):
        def __init__(self, A):
            super().__init__(A)
            fronts.append(self)

    def record(A, lam, tol, x, Ax, g, signs, budget):
        out = real(A, lam, tol, x, Ax, g, signs, budget)
        x_out, _, steps = out
        front = fronts[-1]
        log.append((front.scatter(signs), budget, front.scatter(x_out), steps))
        return out

    monkeypatch.setattr(lasso, "_Front", Recorded)
    monkeypatch.setattr(lasso, "_cg_finish", record)
    return log


# Bound on the gap between a solution's certificate, from products on A with
# the working set's columns moved to its front, and fresh products on A in
# its own order. Measured over seeds 0-299 of small_instance at the three
# shapes of these tests (8 x 10, 20 x 40, 45 x 30) and five penalty paths:
# at most 4.4e-16 in the image, 1.1e-16 in the gradient and 4.2e-16 in the
# KKT residual.
ROUNDING = 1e-14


def assert_certificate(A, y, sol, lam, tol):
    """The solution is certified by its own last check.

    The residual and the verdict come, to the bit, from the image
    and the gradient it returns; those match fresh products at x_hat within
    rounding.
    """
    assert sol.kkt_residual == lasso._kkt_violation(sol.gradient, sol.x_hat, lam)
    assert sol.converged == (sol.kkt_residual <= tol)
    assert_allclose(sol.image, A @ sol.x_hat, rtol=0, atol=ROUNDING)
    assert_allclose(sol.gradient, A.T @ (y - sol.image), rtol=0, atol=ROUNDING)
    assert abs(sol.kkt_residual - kkt_residual(A, y, sol.x_hat, lam)) <= ROUNDING


class TestAgainstCoordinateDescent:
    @pytest.mark.parametrize("seed", range(20))
    def test_linf_agreement(self, seed):
        A, y = small_instance(seed)
        lam = 0.05 + 0.02 * seed
        ours = solve_lasso(A, y, lam, tol=1e-11)
        oracle = coordinate_descent(A, y, lam)
        assert np.max(np.abs(ours.x_hat - oracle)) < 1e-8


class TestConjugateGradientFinish:
    @pytest.mark.parametrize("seed", range(5))
    def test_finished_solve_matches_oracle(self, monkeypatch, finishes, seed):
        A, y = small_instance(seed, n=20, N=40, k=5)
        sol = solve_lasso(A, y, 0.05, tol=1e-11)
        # the last finish runs on the minimiser's signed support and reaches
        # the tolerance within its budget
        signs, budget, _, steps = finishes[-1]
        assert steps < budget and np.array_equal(signs, np.sign(sol.x_hat))
        assert_certificate(A, y, sol, 0.05, 1e-11)
        assert np.max(np.abs(sol.x_hat - coordinate_descent(A, y, 0.05))) < 1e-8
        # the same solve with every finish making no step
        monkeypatch.setattr(lasso, "_cg_finish", lambda A, lam, tol, x, Ax, *_: (x, Ax, 0))
        assert solve_lasso(A, y, 0.05, tol=1e-11).iterations > 1.5 * sol.iterations

    def test_wrong_settled_support_falls_back_to_fista(self, finishes):
        # the first failed check here sees FISTA's transient signed support,
        # not the minimiser's: the finish on it stops short of its budget (its
        # first step would flip a sign), and the check after the block rejects it
        A, y = small_instance(0)
        lam, tol = 0.02, 1e-11
        sol = solve_lasso(A, y, lam, tol=tol)
        signs, budget, x_cg, steps = finishes[0]
        assert steps < budget and not np.array_equal(signs, np.sign(sol.x_hat))
        assert kkt_residual(A, y, x_cg, lam) > 1e-5
        assert sol.converged
        assert_certificate(A, y, sol, lam, tol)
        assert np.max(np.abs(sol.x_hat - coordinate_descent(A, y, lam))) < 1e-8

    # the seeds of 240-299 whose minimiser at lambda = 0.02 fills all n = 8
    # rows; the step bound is set from the eight such seeds of 200-239
    # (worst 130 steps), which took 200-3430 steps without the square finish
    @pytest.mark.parametrize("seed", [253, 260, 264, 271, 277, 280, 287, 292])
    def test_square_support_is_finished(self, finishes, seed):
        A, y = small_instance(seed)
        lam, tol = 0.02, 1e-11
        sol = solve_lasso(A, y, lam, tol=tol)
        signs = np.sign(sol.x_hat)
        assert np.count_nonzero(signs) == A.shape[0]
        assert any(steps < budget and np.array_equal(s, signs)
                   for s, budget, _, steps in finishes)
        assert sol.converged
        assert_certificate(A, y, sol, lam, tol)
        assert np.max(np.abs(sol.x_hat - coordinate_descent(A, y, lam))) < 1e-8
        assert sol.iterations <= 200

    # |S| = n = 40 with cond(A_S) = 208: most finishes use up their budget.
    # It took 27100 steps when the momentum restarted on a cost increase,
    # and takes 21760 with the gradient restart
    def test_ill_conditioned_square_support(self):
        A, y = small_instance(219, n=40, N=80, k=16)
        lam, tol = 0.02, 1e-11
        sol = solve_lasso(A, y, lam, tol=tol)
        assert np.count_nonzero(sol.x_hat) == A.shape[0]
        assert sol.converged and sol.iterations < 27100
        assert_certificate(A, y, sol, lam, tol)

    def test_finish_on_a_wrong_support_settles_off_the_minimiser(self):
        A, y = small_instance(0, n=20, N=40, k=5)
        lam, tol = 0.05, 1e-10
        exact = solve_lasso(A, y, lam, tol=1e-12).x_hat
        # drop the smallest coordinate of the true support: the reduced
        # system's solution keeps every sign, but the dropped coordinate
        # violates the off-support condition
        x = exact.copy()
        x[np.argmin(np.where(x != 0.0, np.abs(x), np.inf))] = 0.0
        Ax = A @ x
        g = A.T @ (y - Ax)
        start = x.copy(), Ax.copy(), g.copy()
        x_cg, Ax_cg, steps = lasso._cg_finish(A, lam, tol, x, Ax, g, np.sign(x), 1000)
        assert 1 < steps < 1000 and np.array_equal(np.sign(x_cg), np.sign(x))
        assert kkt_residual(A, y, x_cg, lam) > 1e-3
        assert_allclose(Ax_cg, A @ x_cg, rtol=0, atol=1e-14)
        # the true signed support reaches the minimiser from the same start
        x_cg, _, steps = lasso._cg_finish(A, lam, tol, x, Ax, g, np.sign(exact), 1000)
        assert steps < 1000 and np.max(np.abs(x_cg - exact)) < 1e-9
        # out of steps: the steps made are the budget
        assert lasso._cg_finish(A, lam, tol, x, Ax, g, np.sign(exact), 2)[2] == 2
        # the caller's arrays are untouched
        assert all(np.array_equal(a, b) for a, b in zip((x, Ax, g), start))

    def test_steps_count_under_max_iter(self, finishes):
        A, y = small_instance(2, n=20, N=40, k=5)
        sol = solve_lasso(A, y, 0.05, tol=1e-11)
        assert sum(steps for *_, steps in finishes) > 0
        # finish steps are iterations: with them every block between checks
        # is 10 steps, the last of which is a FISTA step
        assert sol.iterations % 10 == 0
        assert all(budget == 9 for _, budget, *_ in finishes)
        # two steps into the block of the last finish, which took more: it
        # gets one step, so that a FISTA step still precedes the closing
        # check, and the solve stops there unconverged
        assert finishes[-1][3] > 2
        max_iter = sol.iterations - 8
        finishes.clear()
        short = solve_lasso(A, y, 0.05, tol=1e-11, max_iter=max_iter)
        assert finishes[-1][1::2] == (1, 1)
        assert short.iterations == max_iter
        assert not short.converged
        assert_certificate(A, y, short, 0.05, 1e-11)


class _KeepSubclass:
    """numpy namespace whose asarray keeps ndarray subclasses."""

    def __getattr__(self, name):
        return np.asanyarray if name == "asarray" else getattr(np, name)


class TestStepEstimate:
    @pytest.mark.parametrize("max_iter", [50_000, 25])
    def test_products_two_per_step_one_per_check(
            self, monkeypatch, finishes, max_iter):
        # the curvature test reuses the images the step already computed, so
        # a doubling of the estimate (this solve doubles it within its first
        # 25 steps) costs no product
        monkeypatch.setattr(lasso, "np", _KeepSubclass())
        checks = []
        real = lasso._kkt_violation
        monkeypatch.setattr(lasso, "_kkt_violation",
                            lambda g, x, lam: checks.append(1) or real(g, x, lam))
        A, y = small_instance(2, n=20, N=40, k=5)
        CountingArray.products = 0
        sol = solve_lasso(A.view(CountingArray), y, 0.05, tol=1e-11, max_iter=max_iter)
        assert sol.converged == (max_iter == 50_000) == (sol.iterations < max_iter)
        # A^T y at 0 is both the first step's gradient and the working set's
        # first violators, and the last check is the certificate
        assert CountingArray.products == 2 * sol.iterations + len(checks)
        # one check per 10 steps and one at the cap
        assert len(checks) == sol.iterations // 10 + (sol.iterations % 10 != 0)
        if max_iter == 50_000:
            assert sum(steps for *_, steps in finishes) > 0

    @pytest.mark.parametrize("seed", range(3))
    def test_rademacher_and_tall_matrices_match_the_oracle(self, seed):
        rng = np.random.default_rng(seed)
        x0 = np.zeros(30)
        x0[:4] = rng.normal(size=4)
        for A in (rng.choice([-1.0, 1.0], size=(20, 30)) / np.sqrt(20),
                  rng.normal(size=(45, 30)) / np.sqrt(45)):
            y = A @ x0 + 0.1 * rng.normal(size=A.shape[0])
            sol = solve_lasso(A, y, 0.05, tol=1e-11)
            assert sol.converged
            assert_certificate(A, y, sol, 0.05, 1e-11)
            assert np.max(np.abs(sol.x_hat - coordinate_descent(A, y, 0.05))) < 1e-8

    def test_duplicated_column_reaches_the_certificate(self):
        # rank deficient: the minimiser is not unique, its fit A x and cost are
        A, y = small_instance(4, n=20, N=40, k=5)
        A[:, 7] = A[:, 3]
        sol = solve_lasso(A, y, 0.05, tol=1e-11)
        assert sol.converged
        assert_certificate(A, y, sol, 0.05, 1e-11)
        oracle = coordinate_descent(A, y, 0.05)
        assert np.max(np.abs(A @ sol.x_hat - A @ oracle)) < 1e-8
        assert lasso_cost(A, y, sol.x_hat, 0.05) <= lasso_cost(A, y, oracle, 0.05) + 1e-12

    def test_zero_matrix_gives_zero_at_once(self):
        A, y = np.zeros((8, 10)), small_instance(1)[1]
        sol = solve_lasso(A, y, 0.1)
        assert sol.converged and sol.kkt_residual == 0.0
        assert np.all(sol.x_hat == 0.0)
        assert sol.iterations == 10


def oracle_matrices(seed):
    """A Gaussian, a +-1 and a tall matrix with a sparse signal's observations."""
    rng = np.random.default_rng(seed)
    x0 = np.zeros(30)
    x0[:4] = rng.normal(size=4)
    for A in (rng.normal(size=(20, 30)) / np.sqrt(20),
              rng.choice([-1.0, 1.0], size=(20, 30)) / np.sqrt(20),
              rng.normal(size=(45, 30)) / np.sqrt(45)):
        yield A, A @ x0 + 0.1 * rng.normal(size=A.shape[0])


def penalty_spy(monkeypatch, capped=()):
    """{lambda: start} of each penalty a path runs; penalties in `capped` stop at 1 step."""
    received = {}
    real = lasso._solve_penalty

    def spy(front, y, lam, tol, max_iter, lip, start):
        received[lam] = start
        return real(front, y, lam, tol, 1 if lam in capped else max_iter, lip, start)

    monkeypatch.setattr(lasso, "_solve_penalty", spy)
    return received


class TestWarmStart:
    """Each penalty of a path starts from the path's last converged solution."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("factor", [2.0, 0.5])
    def test_start_at_another_penalty_matches_the_oracle(self, seed, factor):
        lam, tol = 0.05, 1e-11
        for A, y in oracle_matrices(seed):
            for at, sol in zip((factor * lam, lam), solve_lasso_path(A, y, [factor * lam, lam],
                                                                     tol=tol)):
                assert sol.converged
                assert_certificate(A, y, sol, at, tol)
                oracle = coordinate_descent(A, y, at)
                assert np.max(np.abs(sol.x_hat - oracle)) < 1e-8
                assert lasso_cost(A, y, sol.x_hat, at) <= lasso_cost(A, y, oracle, at) + 1e-12

    def test_image_and_cost_come_from_a_direct_product(self):
        A, y = small_instance(2, n=20, N=40, k=5)
        cold = solve_lasso(A, y, 0.05)
        for sol in (cold, solve_lasso_path(A, y, [0.1, 0.05])[1]):
            assert_certificate(A, y, sol, 0.05, 1e-8)
        # the same columns in another order give the same solution, within the certificate
        flip = solve_lasso(A[:, ::-1].copy(), y, 0.05)
        assert np.max(np.abs(flip.x_hat[::-1] - cold.x_hat)) < 1e-8

    def test_products_two_per_step_one_per_check(self, monkeypatch, finishes):
        # a start brings its image and its gradient, so each penalty's first
        # step needs no product for its gradient, and its last check is its
        # certificate; the path computes A^T y once
        monkeypatch.setattr(lasso, "np", _KeepSubclass())
        checks = []
        real = lasso._kkt_violation
        monkeypatch.setattr(lasso, "_kkt_violation",
                            lambda g, x, lam: checks.append(1) or real(g, x, lam))
        A, y = small_instance(2, n=20, N=40, k=5)
        CountingArray.products = 0
        path = solve_lasso_path(A.view(CountingArray), y, [0.1, 0.05, 0.02], tol=1e-11)
        assert all(sol.converged and sol.iterations > 10 for sol in path)
        assert CountingArray.products == (1 + sum(2 * sol.iterations - 1 for sol in path)
                                          + len(checks))
        assert len(checks) == sum(sol.iterations // 10 for sol in path)
        assert sum(steps for *_, steps in finishes) > 0

    def test_finish_runs_from_the_first_failed_check(self, monkeypatch):
        # cold or warm, a penalty runs a finish right after each failed check
        # whose signed support has 0 < |S| <= n, its first one included, and
        # after no other check
        A, y = small_instance(2, n=20, N=40, k=5)
        tol = 1e-11
        checks, first = [], []
        real = lasso._kkt_violation

        def check(g, x, lam):
            kkt = real(g, x, lam)
            checks.append(kkt > tol and 0 < np.count_nonzero(x) <= A.shape[0])
            return kkt

        monkeypatch.setattr(lasso, "_kkt_violation", check)
        finish = lasso._cg_finish
        monkeypatch.setattr(lasso, "_cg_finish",
                            lambda *args: first.append(len(checks)) or finish(*args))
        penalty = lasso._solve_penalty
        monkeypatch.setattr(lasso, "_solve_penalty",
                            lambda *args: checks.clear() or first.clear() or penalty(*args))
        for lams in ([0.05], [0.1, 0.05]):
            sol = solve_lasso_path(A, y, lams, tol=tol)[-1]
            assert sol.converged and sol.iterations > 10
            # checks and first hold the last penalty's
            assert first[0] == checks.index(True) + 1
            assert first == [i + 1 for i, due in enumerate(checks) if due]

    def test_start_at_the_same_penalty_returns_at_the_first_check(self):
        A, y = small_instance(2, n=20, N=40, k=5)
        done, again = solve_lasso_path(A, y, [0.05, 0.05], tol=1e-11)
        assert again.converged and again.iterations == 10
        assert np.max(np.abs(again.x_hat - done.x_hat)) < 1e-10

    def test_path_passes_on_only_certified_solutions(self, monkeypatch):
        A, y = small_instance(2, n=20, N=40, k=5)
        tol = 1e-11
        received = penalty_spy(monkeypatch, capped=(0.07,))
        first, capped, last = solve_lasso_path(A, y, [0.1, 0.07, 0.05], tol=tol)
        assert first.converged and not capped.converged and last.converged
        # the unconverged penalty passes nothing on
        for lam in (0.07, 0.05):
            assert all(u is v for u, v in zip(received[lam], (first.x_hat, first.image,
                                                              first.gradient)))
        skipped = solve_lasso_path(A, y, [0.1, 0.05], tol=tol)[1]
        assert np.max(np.abs(last.x_hat - skipped.x_hat)) < 1e-9
        assert_certificate(A, y, last, 0.05, tol)

    def test_path_whose_first_penalty_fails_starts_the_next_cold(self, monkeypatch):
        A, y = small_instance(2, n=20, N=40, k=5)
        received = penalty_spy(monkeypatch, capped=(0.1,))
        failed, sol = solve_lasso_path(A, y, [0.1, 0.05], tol=1e-11)
        assert not failed.converged and failed.iterations == 1 and sol.converged
        x_hat, image, gradient = received[0.05]
        assert received[0.1] is received[0.05]
        assert not x_hat.any() and not image.any() and np.array_equal(gradient, A.T @ y)
        assert np.max(np.abs(sol.x_hat - coordinate_descent(A, y, 0.05))) < 1e-8


@pytest.fixture
def moved(monkeypatch):
    """The number of columns out of place at each restore of the working set: one per path."""
    log = []
    real = lasso._Front.restore

    def record(front):
        log.append(int(np.count_nonzero(front.order != np.arange(front.order.size))))
        real(front)

    monkeypatch.setattr(lasso._Front, "restore", record)
    return log


class TestMatrixLeftAsFound:
    """The working set moves A's columns in place; every exit puts them back bit for bit, once."""

    @pytest.mark.parametrize("max_iter", [50_000, 25])
    def test_converged_and_capped_solves(self, moved, max_iter):
        A, y = small_instance(2, n=20, N=40, k=5)
        kept = A.copy()
        path = solve_lasso_path(A, y, [0.1, 0.05], tol=1e-11, max_iter=max_iter)
        assert len(moved) == 1 and moved[0] > 0 and A.tobytes() == kept.tobytes()
        assert [sol.converged for sol in path] == [max_iter == 50_000] * 2

    def test_nan_data(self, moved):
        A, y = small_instance(4, n=20, N=40, k=5)
        A[:, 3] = np.nan
        kept = A.copy()
        path = solve_lasso_path(A, y, [0.1, 0.05])
        for sol in path:
            assert not sol.converged and np.isnan(sol.kkt_residual) and sol.iterations == 10
        assert len(moved) == 1 and moved[0] > 0 and A.tobytes() == kept.tobytes()

    def test_finish_that_raises(self, monkeypatch, moved):
        A, y = small_instance(2, n=20, N=40, k=5)
        kept = A.copy()
        during = []
        real = lasso._cg_finish

        def boom(A_W, lam, *args):
            # the second penalty's first finish raises, after the first penalty
            if lam == 0.05:
                during.append(A.tobytes() != kept.tobytes())
                raise RuntimeError("boom")
            return real(A_W, lam, *args)

        monkeypatch.setattr(lasso, "_cg_finish", boom)
        received = penalty_spy(monkeypatch)
        with pytest.raises(RuntimeError, match="boom"):
            solve_lasso_path(A, y, [0.1, 0.05], tol=1e-11)
        assert list(received) == [0.1, 0.05]
        assert during == [True]  # the finish ran on moved columns
        assert len(moved) == 1 and A.tobytes() == kept.tobytes()

    def test_read_only_matrix_rejected_before_any_move(self, monkeypatch):
        A, y = small_instance(2, n=20, N=40, k=5)
        A.setflags(write=False)
        calls = []
        monkeypatch.setattr(lasso._Front, "append", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match="writeable"):
            solve_lasso(A, y, 0.05)
        assert calls == []

    @pytest.mark.parametrize("A_shape, y_size, name", [
        ((20, 0), 20, "A"), ((0, 40), 0, "A"), ((20, 40), (20, 1), "y"), ((20, 40), 21, "y")],
        ids=["no column", "no row", "column y", "long y"])
    def test_malformed_shapes_rejected_before_any_move(self, monkeypatch, A_shape, y_size, name):
        calls = []
        monkeypatch.setattr(lasso._Front, "append", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match=rf"\b{name}\b"):
            solve_lasso_path(np.ones(A_shape), np.ones(y_size), [0.05])
        assert calls == []

    def test_invalid_penalty_anywhere_in_the_path_rejected_before_any_solve(self, monkeypatch):
        A, y = small_instance(2, n=20, N=40, k=5)
        received = penalty_spy(monkeypatch)
        with pytest.raises(ValueError, match=r"\blambda\b"):
            solve_lasso_path(A, y, [0.1, 0.05, np.nan])
        assert received == {}


class TestOptimalityStructure:
    def test_large_penalty_gives_exact_zero(self):
        A, y = small_instance(3)
        lam = np.max(np.abs(A.T @ y))
        sol = solve_lasso(A, y, lam)
        assert np.all(sol.x_hat == 0.0)
        sol2 = solve_lasso(A, y, lam * 1.5)
        assert np.all(sol2.x_hat == 0.0)

    def test_kkt_residual_at_solution(self):
        A, y = small_instance(11)
        sol = solve_lasso(A, y, 0.2, tol=1e-10)
        assert sol.kkt_residual <= 1e-10
        assert sol.converged
        assert abs(kkt_residual(A, y, sol.x_hat, 0.2) - sol.kkt_residual) <= ROUNDING

    def test_cost_beats_random_perturbations(self):
        A, y = small_instance(23)
        lam = 0.15
        sol = solve_lasso(A, y, lam, tol=1e-11)
        base = lasso_cost(A, y, sol.x_hat, lam)
        rng = np.random.default_rng(99)
        for scale in (1e-4, 1e-2, 0.5):
            for _ in range(34):
                other = sol.x_hat + scale * rng.normal(size=sol.x_hat.shape)
                assert lasso_cost(A, y, other, lam) >= base - 1e-12

    def test_iteration_cap_reported(self):
        A, y = small_instance(5)
        sol = solve_lasso(A, y, 0.05, tol=1e-14, max_iter=3)
        assert not sol.converged
        assert sol.iterations == 3
        assert np.isfinite(sol.kkt_residual)


def per_coordinate_violation(g, x, lam):
    """The KKT violation coordinate by coordinate, as _kkt_violation's docstring states it."""
    worst = 0.0
    for gi, xi in zip(g.tolist(), x.tolist()):
        if xi != 0.0:
            worst = max(worst, abs(gi - lam * np.sign(xi)))
        else:
            worst = max(worst, abs(gi) - lam)
    return worst


class TestCertificate:
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_a_per_coordinate_loop(self, seed):
        rng = np.random.default_rng(seed)
        A, y = small_instance(seed, n=20, N=40, k=5)
        lam = 0.1
        x = solve_lasso(A, y, lam, tol=1e-11).x_hat
        for probe in (x, x + 1e-3 * rng.normal(size=40), np.zeros(40)):
            g = A.T @ (y - A @ probe)
            assert kkt_residual(A, y, probe, lam) == per_coordinate_violation(g, probe, lam)
        # A = I makes g = y - x exactly on these dyadic values, and the
        # multiples of 1/4 put many entries exactly at lambda = 1/2, on and off
        # the support
        x = rng.integers(-2, 3, 200) * 0.5
        g = rng.integers(-3, 4, 200) * 0.25
        expect = per_coordinate_violation(g, x, 0.5)
        assert kkt_residual(np.eye(200), x + g, x, 0.5) == expect
        # every condition met, most of them with equality: exactly 0
        optimal = np.where(x != 0.0, 0.5 * np.sign(x), np.clip(g, -0.5, 0.5))
        assert kkt_residual(np.eye(200), x + optimal, x, 0.5) == 0.0

    def test_nan_is_never_zero(self):
        A, y = small_instance(4, n=20, N=40, k=5)
        x = solve_lasso(A, y, 0.1, tol=1e-11).x_hat
        bad_y, bad_x = y.copy(), x.copy()
        bad_y[3] = np.nan
        bad_x[np.flatnonzero(x == 0.0)[0]] = np.nan
        for args in ((A, bad_y, x), (A, y, bad_x), (A, y, np.full(40, np.nan))):
            assert np.isnan(kkt_residual(*args, 0.1))

    def test_nan_data_is_not_certified(self):
        A, y = small_instance(4, n=20, N=40, k=5)
        y[3] = np.nan
        sol = solve_lasso(A, y, 0.1)
        assert not sol.converged and np.isnan(sol.kkt_residual)
        # NaN iterates stay NaN, so the first check ends the solve
        assert sol.iterations == 10


class TestHelpers:
    def test_single_row_problem(self):
        rng = np.random.default_rng(4)
        A, y = rng.normal(size=(1, 10)), rng.normal(size=1)
        sol = solve_lasso(A, y, 0.05, tol=1e-10)
        assert sol.converged
        assert kkt_residual(A, y, sol.x_hat, 0.05) <= 1e-10

    def test_invalid_lambda(self):
        A, y = small_instance(1)
        with pytest.raises(ValueError):
            solve_lasso(A, y, -0.5)

    @pytest.mark.parametrize("lam, tol, max_iter", [
        (np.nan, 1e-8, 100), (np.inf, 1e-8, 100), (0.0, 1e-8, 100),
        (0.1, np.nan, 100), (0.1, 0.0, 100), (0.1, np.inf, 100), (0.1, 1e-8, np.nan)])
    def test_non_finite_or_nonpositive_parameters(self, lam, tol, max_iter):
        A, y = small_instance(1)
        name = "lambda" if not 0 < lam < np.inf else "tol" if not 0 < tol < np.inf else "max_iter"
        with pytest.raises(ValueError, match=rf"\b{name}\b"):
            solve_lasso(A, y, lam, tol=tol, max_iter=max_iter)

    def test_invalid_max_iter(self):
        # a cap that is not an integer would never equal the step count
        A, y = small_instance(1)
        for max_iter in (0, 2.5, np.inf, True):
            with pytest.raises(ValueError):
                solve_lasso(A, y, 0.1, max_iter=max_iter)
