"""Reference-solver tests against a cyclic coordinate-descent oracle."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from amplasso.lasso import (LassoSolution, kkt_residual, lasso_cost, solve_lasso,
                            spectral_norm)
from amplasso.scalars import soft_threshold


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


def small_instance(seed, n=8, N=10):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, N)) / np.sqrt(n)
    x0 = np.zeros(N)
    x0[rng.choice(N, 3, replace=False)] = rng.normal(size=3)
    y = A @ x0 + 0.1 * rng.normal(size=n)
    return A, y


class TestAgainstCoordinateDescent:
    @pytest.mark.parametrize("seed", range(20))
    def test_linf_agreement(self, seed):
        A, y = small_instance(seed)
        lam = 0.05 + 0.02 * seed
        ours = solve_lasso(A, y, lam, tol=1e-11)
        oracle = coordinate_descent(A, y, lam)
        assert np.max(np.abs(ours.x_hat - oracle)) < 1e-8


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
        assert_allclose(kkt_residual(A, y, sol.x_hat, 0.2), sol.kkt_residual, rtol=1e-12)

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


class TestHelpers:
    def test_spectral_norm_matches_svd(self):
        rng = np.random.default_rng(2)
        A = rng.normal(size=(40, 60))
        assert_allclose(spectral_norm(A), np.linalg.svd(A, compute_uv=False)[0], rtol=1e-8)
        # the shape of the README instances, where the step 1/sigma_max^2 must
        # not exceed 1/L
        A = rng.normal(size=(1280, 2000)) / np.sqrt(1280)
        assert_allclose(spectral_norm(A), np.sqrt(np.linalg.eigvalsh(A @ A.T)[-1]), rtol=1e-12)
        # rank one or zero: no Lanczos run
        for A in (rng.normal(size=(1, 50)), rng.normal(size=(50, 1))):
            assert_allclose(spectral_norm(A), np.linalg.svd(A, compute_uv=False)[0], rtol=1e-12)
        assert spectral_norm(np.zeros((8, 10))) == 0.0

    def test_single_row_problem(self):
        rng = np.random.default_rng(4)
        A, y = rng.normal(size=(1, 10)), rng.normal(size=1)
        sol = solve_lasso(A, y, 0.05, tol=1e-10)
        assert sol.converged
        assert kkt_residual(A, y, sol.x_hat, 0.05) <= 1e-10

    def test_cost_dimension_check(self):
        A, y = small_instance(1)
        with pytest.raises(ValueError):
            lasso_cost(A, y[:-1], np.zeros(A.shape[1]), 0.1)
        with pytest.raises(ValueError):
            lasso_cost(A, y, np.zeros(A.shape[1] + 2), 0.1)

    def test_invalid_lambda(self):
        A, y = small_instance(1)
        with pytest.raises(ValueError):
            solve_lasso(A, y, -0.5)

    def test_given_spectral_norm_gives_the_same_solution(self):
        A, y = small_instance(7)
        plain = solve_lasso(A, y, 0.1, tol=1e-10)
        given = solve_lasso(A, y, 0.1, tol=1e-10, smax=spectral_norm(A))
        assert np.array_equal(plain.x_hat, given.x_hat)
        assert plain.iterations == given.iterations
        assert plain.kkt_residual == given.kkt_residual

    @pytest.mark.parametrize("smax", [-1.0, float("nan"), float("inf")])
    def test_invalid_spectral_norm(self, smax):
        A, y = small_instance(1)
        with pytest.raises(ValueError):
            solve_lasso(A, y, 0.1, smax=smax)

    def test_invalid_max_iter(self):
        A, y = small_instance(1)
        with pytest.raises(ValueError):
            solve_lasso(A, y, 0.1, max_iter=0)
