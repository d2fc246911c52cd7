"""Message-passing iteration tests: exact identities, diagnostics, certificates."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import amplasso.amp
from amplasso.amp import amp_step, initial_state, run_amp, run_amp_grid
from amplasso.errors import ConsistencyError, DivergenceError
from amplasso.instances import Instance, generate
from amplasso.lasso import solve_lasso
from amplasso.scalars import get_preset
from amplasso.state_evolution import (SEParams, invert_calibration, predicted_risk,
                                      se_map)

FIG4 = SEParams(delta=0.64, sigma2=0.2, prior=get_preset("three_point_0.064"))


def tiny_instance(seed=0, N=300):
    return generate(FIG4, N, "gaussian", seed)


def overflowing_instance(y=1.0):
    """A = [[1e200]]: a step whose threshold lets x off zero makes z or the
    next pre-threshold vector overflow."""
    return Instance(A=np.array([[1e200]]), x0=np.zeros(1), w=np.zeros(1), y=np.array([y]),
                    seed=0, ensemble="gaussian", delta=1.0, sigma2=0.2)


def poison_row(monkeypatch, doomed, value):
    """Make the step's soft_threshold return value(pre, theta) instead on
    the rows of the stack whose threshold is `doomed`."""
    real = amplasso.amp.soft_threshold

    def poisoned(pre, theta):
        out = real(pre, theta)
        rows = theta[:, 0] == doomed
        out[rows] = value(pre[rows], theta[rows])
        return out

    monkeypatch.setattr(amplasso.amp, "soft_threshold", poisoned)


def off_the_boundary(pre, theta):
    """An x more than theta from pre: its boundary coordinate is 2."""
    return pre - 2.0 * theta


def certificate_norm(A, y, lam, x, pre, theta):
    """Direct N^{-1/2} ||lam*s - A^T(y - A x)|| with s = (pre - x)/theta.

    Independent of run_amp's streamed value, which reuses each step's A^T z
    instead of forming A^T(y - A x). s is the boundary coordinate: sign(x_i)
    on the support and inside [-1, 1] off it.
    """
    s = (pre - x) / theta
    assert np.max(np.abs(s)) <= 1.0 + 1e-12
    on = x != 0.0
    assert np.max(np.abs(s[on] - np.sign(x[on])), initial=0.0) <= 1e-6
    sg = lam * s - A.T @ (y - A @ x)
    return float(np.linalg.norm(sg)) / math.sqrt(x.shape[0])


class CountingArray(np.ndarray):
    """Counts the matrix products that involve it; results are plain arrays."""

    products = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            CountingArray.products += 1
        inputs = [a.view(np.ndarray) if isinstance(a, CountingArray) else a for a in inputs]
        return getattr(ufunc, method)(*inputs, **kwargs)


class TestAmpStep:
    def test_zero_data_is_a_fixed_point(self):
        rng = np.random.default_rng(0)
        A = rng.normal(size=(8, 12)) / np.sqrt(8)
        y = np.zeros(8)
        state = initial_state(y, 12)
        for _ in range(5):
            state = amp_step(state, A, y, theta=0.7)
            assert np.all(state.x == 0.0)
            assert np.all(state.z == 0.0)

    def test_dead_zone_saturation(self):
        inst = tiny_instance(1, N=50)
        state = initial_state(inst.y, 50)
        big = 10.0 * np.max(np.abs(inst.A.T @ inst.y)) + 10.0
        for _ in range(3):
            state = amp_step(state, inst.A, inst.y, theta=big)
            assert np.all(state.x == 0.0)
            assert state.onsager == 0.0
            assert_allclose(state.z, inst.y)

    def test_counter_and_threshold_recorded(self):
        inst = tiny_instance(2, N=40)
        state = initial_state(inst.y, 40)
        new = amp_step(state, inst.A, inst.y, theta=0.9)
        assert new.t == 1
        assert new.theta_t == 0.9
        assert new.pre is not None

    def test_onsager_is_active_fraction_over_n(self):
        inst = tiny_instance(3, N=40)
        state = initial_state(inst.y, 40)
        new = amp_step(state, inst.A, inst.y, theta=0.5)
        pre = inst.A.T @ state.z + state.x
        assert new.onsager == np.count_nonzero(np.abs(pre) > 0.5) / inst.n

    def test_dimension_mismatch(self):
        inst = tiny_instance(4, N=40)
        state = initial_state(inst.y, 41)
        with pytest.raises(ValueError):
            amp_step(state, inst.A, inst.y, theta=1.0)

    def test_nonpositive_threshold(self):
        inst = tiny_instance(4, N=40)
        state = initial_state(inst.y, 40)
        with pytest.raises(ValueError):
            amp_step(state, inst.A, inst.y, theta=0.0)

    def test_non_finite_rows_come_back_as_they_are(self):
        inst = overflowing_instance()
        state = initial_state(inst.y, 1, rows=2)
        new = amp_step(state, inst.A, inst.y, np.array([1.0, 1e201]))
        assert not np.isfinite(new.z[0]).all()
        assert np.array_equal(new.x[1], [0.0]) and np.array_equal(new.z[1], inst.y)

    def test_stacked_rows_step_as_single_iterates(self):
        inst = tiny_instance(3, N=60)
        thetas = np.array([0.3, 0.6, 1.2])
        state = initial_state(inst.y, 60, rows=3)
        singles = [initial_state(inst.y, 60) for _ in thetas]
        for _ in range(4):
            state = amp_step(state, inst.A, inst.y, thetas)
            singles = [amp_step(s, inst.A, inst.y, th) for s, th in zip(singles, thetas)]
            assert state.t == singles[0].t and np.array_equal(state.theta_t, thetas)
            for i, single in enumerate(singles):
                assert_allclose(state.x[i], single.x, rtol=0, atol=1e-12)
                assert_allclose(state.z[i], single.z, rtol=0, atol=1e-12)
                assert state.onsager[i] == single.onsager

    def test_stacked_shapes_checked(self):
        inst = tiny_instance(4, N=40)
        state = initial_state(inst.y, 40, rows=2)
        for theta in (1.0, np.array([1.0, 1.0, 1.0])):
            with pytest.raises(ValueError):
                amp_step(state, inst.A, inst.y, theta)
        with pytest.raises(ValueError):
            amp_step(state, inst.A, inst.y, np.array([1.0, 0.0]))


class TestRunAmp:
    def test_tracks_precomputed_variance_sequence(self):
        inst = tiny_instance(5, N=400)
        _, diag = run_amp(inst, FIG4, 1.0, t_max=6, stop_tol=0.0)
        t2 = FIG4.tau2_init
        alpha = invert_calibration(FIG4, 1.0)
        for row in diag:
            t2 = se_map(FIG4, t2, alpha * math.sqrt(t2))
            assert_allclose(row.tau2_se, t2, rtol=1e-12)

    def test_state_evolution_computed_only_for_steps_run(self, monkeypatch):
        inst = tiny_instance(6, N=400)
        calls = []

        def counted(params, tau2, theta):
            calls.append(tau2)
            return se_map(params, tau2, theta)

        monkeypatch.setattr(amplasso.amp, "se_map", counted)
        alpha = invert_calibration(FIG4, 1.0)
        state, diag = run_amp(inst, FIG4, 1.0, t_max=200, stop_tol=1e-6, alpha=alpha)
        assert state.t == len(diag) < 200
        # tau2_se[1..T] for T steps; tau2_se[0] is tau2_init and needs no call
        assert len(calls) == state.t
        t2 = FIG4.tau2_init
        for row in diag:
            t2 = se_map(FIG4, t2, alpha * math.sqrt(t2))
            assert row.tau2_se == t2

    @pytest.mark.parametrize("policy", ["se", "residual"])
    def test_given_alpha_gives_the_same_run(self, policy):
        inst = tiny_instance(14, N=300)
        plain_state, plain_diag = run_amp(inst, FIG4, 0.9, t_max=40,
                                          threshold_policy=policy)
        given_state, given_diag = run_amp(inst, FIG4, 0.9, t_max=40,
                                          threshold_policy=policy,
                                          alpha=predicted_risk(FIG4, 0.9).alpha)
        assert np.array_equal(plain_state.x, given_state.x)
        assert np.array_equal(plain_state.z, given_state.z)
        assert (plain_state.t, plain_state.theta_t, plain_state.onsager) == \
            (given_state.t, given_state.theta_t, given_state.onsager)
        assert plain_diag == given_diag

    def test_invalid_alpha(self):
        inst = tiny_instance(17, N=100)
        for a in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                run_amp(inst, FIG4, 1.0, t_max=3, alpha=a)

    def test_early_stop(self):
        inst = tiny_instance(6, N=400)
        state, diag = run_amp(inst, FIG4, 1.0, t_max=200, stop_tol=1e-6)
        assert state.t < 200
        assert diag[-1].delta_x_norm <= 1e-6

    def test_all_diagnostics_finite(self):
        inst = tiny_instance(7, N=300)
        _, diag = run_amp(inst, FIG4, 0.8, t_max=12, stop_tol=0.0)
        for row in diag:
            for name in ("theta", "tau2_se", "z_norm2_over_n", "mse_vs_x0",
                         "delta_x_norm", "subgradient_norm"):
                assert np.isfinite(getattr(row, name)), name
            assert 0 <= row.active_set_size <= 300

    def test_residual_policy_uses_empirical_scale(self):
        inst = tiny_instance(8, N=400)
        _, diag = run_amp(inst, FIG4, 1.0, t_max=4, stop_tol=0.0,
                          threshold_policy="residual")
        alpha = invert_calibration(FIG4, 1.0)
        # first threshold comes from z^0 = y
        expected = alpha * np.linalg.norm(inst.y) / math.sqrt(inst.n)
        assert_allclose(diag[0].theta, expected, rtol=1e-12)

    def test_residual_policy_stops_at_lasso_minimiser_for_lam(self):
        # theta_t = lam + b_{t-1} theta_{t-1} makes theta (1 - b) = lam at the
        # fixed point, so the certificate lam*s - A^T(y - A x) vanishes there
        inst = tiny_instance(8, N=400)
        lam = 1.0
        state, diag = run_amp(inst, FIG4, lam, t_max=100, stop_tol=0.0,
                              threshold_policy="residual")
        assert abs(state.theta_t * (1.0 - state.onsager) - lam) < 1e-10
        assert diag[-1].subgradient_norm < 1e-8 * diag[0].subgradient_norm
        sol = solve_lasso(inst.A, inst.y, lam, tol=1e-10)
        assert np.max(np.abs(state.x - sol.x_hat)) < 1e-6

    def test_divergence_detected(self):
        with pytest.raises(DivergenceError, match="non-finite iterate at t=1") as info:
            run_amp(overflowing_instance(), FIG4, 1.0, alpha=1.0, threshold_policy="residual")
        assert info.value.t == 1

    def test_no_stop_on_the_first_step(self):
        # the first threshold comes from alpha and ||y||, not lam: here it
        # leaves x at 0, and x = 0 is not the minimiser at lam
        inst = tiny_instance(14, N=200)
        state, diag = run_amp(inst, FIG4, 2.0, threshold_policy="residual")
        assert diag[0].delta_x_norm == 0.0 and state.t >= 2
        sol = solve_lasso(inst.A, inst.y, 2.0, tol=1e-10)
        assert np.count_nonzero(sol.x_hat) > 0
        assert np.mean((state.x - sol.x_hat) ** 2) <= 1e-12

    def test_t_max_of_one_stops_on_the_first_step(self):
        state, diag = run_amp(tiny_instance(14, N=200), FIG4, 2.0, t_max=1,
                              threshold_policy="residual")
        assert state.t == len(diag) == 1

    def test_unknown_policy(self):
        inst = tiny_instance(8, N=50)
        with pytest.raises(ValueError):
            run_amp(inst, FIG4, 1.0, threshold_policy="what")

    def test_mask_sink_collects_every_iteration(self):
        inst = tiny_instance(9, N=200)
        sink = {}
        run_amp(inst, FIG4, 1.0, t_max=5, stop_tol=0.0, active_mask_sink=sink)
        assert sorted(sink) == [1, 2, 3, 4, 5]
        assert all(m.shape == (200,) and m.dtype == bool for m in sink.values())


GRID = (0.6, 1.0, 1.6)
DIAG_FIELDS = ("theta", "tau2_se", "z_norm2_over_n", "mse_vs_x0", "delta_x_norm",
               "subgradient_norm")


def assert_same_run(run, single):
    """A row of run_amp_grid against run_amp at its penalty (see TestRunAmpGrid)."""
    (state, diag), (s_state, s_diag) = run, single
    assert state.t == s_state.t and len(diag) == len(s_diag) == state.t
    assert_allclose(state.x, s_state.x, rtol=0, atol=1e-12)
    assert_allclose(state.z, s_state.z, rtol=0, atol=1e-12)
    for row, s_row in zip(diag, s_diag):
        assert (row.t, row.active_set_size) == (s_row.t, s_row.active_set_size)
        for name in DIAG_FIELDS:
            assert_allclose(getattr(row, name), getattr(s_row, name), rtol=1e-12, atol=1e-12)


class TestRunAmpGrid:
    """Penalties of one instance run as one stack; each row is its own run_amp."""

    @pytest.mark.parametrize("policy", ["se", "residual"])
    def test_rows_match_single_runs(self, policy):
        inst = tiny_instance(16, N=300)
        alphas = [invert_calibration(FIG4, lam) for lam in GRID]
        runs = run_amp_grid(inst, FIG4, GRID, alphas, t_max=80, stop_tol=1e-8,
                            threshold_policy=policy)
        # the rows stop at different times, so the stack shrinks as it runs
        assert len({state.t for state, _ in runs}) > 1
        for lam, alpha, run in zip(GRID, alphas, runs):
            assert_same_run(run, run_amp(inst, FIG4, lam, t_max=80, stop_tol=1e-8,
                                         threshold_policy=policy, alpha=alpha))

    @pytest.mark.parametrize("lams", [GRID[:1], GRID])
    def test_products_two_per_step_of_the_longest_row(self, lams):
        inst = tiny_instance(16, N=300)
        inst.A = inst.A.view(CountingArray)
        CountingArray.products = 0
        runs = run_amp_grid(inst, FIG4, lams, [invert_calibration(FIG4, lam) for lam in lams],
                            t_max=80, threshold_policy="residual")
        assert CountingArray.products == 2 * max(state.t for state, _ in runs) + 1

    def test_failed_row_leaves_the_others_unchanged(self, monkeypatch):
        inst = tiny_instance(16, N=300)
        alphas = [invert_calibration(FIG4, lam) for lam in GRID]
        kw = dict(t_max=80, stop_tol=1e-8, threshold_policy="residual")
        plain = run_amp_grid(inst, FIG4, GRID, alphas, **kw)
        doomed = plain[1][1][2].theta  # the middle row's third threshold
        poison_row(monkeypatch, doomed, off_the_boundary)
        forced = run_amp_grid(inst, FIG4, GRID, alphas, **kw)
        assert isinstance(forced[1], ConsistencyError)
        assert str(forced[1]) == "subgradient entry exceeds 1 by 1.000e+00"
        assert_same_run(forced[0], plain[0])
        assert_same_run(forced[2], plain[2])
        with pytest.raises(ConsistencyError, match="exceeds 1 by"):
            run_amp(inst, FIG4, GRID[1], alpha=alphas[1], **kw)

    @pytest.mark.parametrize("step", [0, 2])
    def test_diverged_row_leaves_the_others_unchanged(self, monkeypatch, step):
        inst = tiny_instance(16, N=300)
        inst.A = inst.A.view(CountingArray)
        alphas = [invert_calibration(FIG4, lam) for lam in GRID]
        kw = dict(t_max=80, stop_tol=1e-8, threshold_policy="residual")
        plain = run_amp_grid(inst, FIG4, GRID, alphas, **kw)
        doomed = plain[1][1][step].theta
        poison_row(monkeypatch, doomed, lambda pre, theta: np.full_like(pre, np.nan))
        CountingArray.products = 0
        forced = run_amp_grid(inst, FIG4, GRID, alphas, **kw)
        assert isinstance(forced[1], DivergenceError) and forced[1].t == step + 1
        assert_same_run(forced[0], plain[0])
        assert_same_run(forced[2], plain[2])
        # the diverged row leaves the stack after its step; no step repeats
        longest = max(state.t for state, _ in (forced[0], forced[2]))
        assert CountingArray.products == 2 * longest + 1

    def test_stacked_divergence_names_its_rows(self):
        # A^T y = 1e50: row 0 leaves 0 at once and overflows at its second
        # step, while row 1's thresholds (~5e51) keep its x at 0, so it
        # stops at that same step
        inst = overflowing_instance(y=1e-150)
        inst.A = inst.A.view(CountingArray)
        CountingArray.products = 0
        diverged, (state, diag) = run_amp_grid(inst, FIG4, [1.0, 1.0], [1.0, 1e52], t_max=10)
        assert isinstance(diverged, DivergenceError) and diverged.t == 2
        assert state.t == len(diag) == 2 and np.array_equal(state.x, [0.0])
        assert CountingArray.products == 2 * 2 + 1

    def test_every_row_failing_returns_only_exceptions(self, monkeypatch):
        inst = tiny_instance(16, N=100)
        inst.A = inst.A.view(CountingArray)
        monkeypatch.setattr(amplasso.amp, "soft_threshold", off_the_boundary)
        CountingArray.products = 0
        runs = run_amp_grid(inst, FIG4, GRID, [2.0] * 3, t_max=5)
        assert all(isinstance(r, ConsistencyError) for r in runs)
        # one step, and no row is left whose subgradient column needs a product
        assert CountingArray.products == 2
        assert run_amp_grid(inst, FIG4, (), (), t_max=5) == []

    def test_invalid_arguments(self):
        inst = tiny_instance(17, N=100)
        for bad in (dict(alphas=[2.0]), dict(active_mask_sinks=[None]), dict(t_max=0)):
            args = {"lams": GRID[:2], "alphas": [2.0, 2.0], **bad}
            with pytest.raises(ValueError):
                run_amp_grid(inst, FIG4, **args)


class TestSubgradientResidual:
    def test_matches_streamed_diagnostics(self):
        """The lag-trick values in run_amp equal the direct computation."""
        inst = tiny_instance(11, N=300)
        _, diag = run_amp(inst, FIG4, 1.0, t_max=8, stop_tol=0.0)
        # replay the same thresholds manually
        state = initial_state(inst.y, 300)
        for row in diag:
            state = amp_step(state, inst.A, inst.y, row.theta)
            direct = certificate_norm(inst.A, inst.y, 1.0, state.x, state.pre, row.theta)
            assert_allclose(direct, row.subgradient_norm, rtol=1e-10)

    def test_far_from_optimum_start_is_large(self):
        inst = tiny_instance(12, N=400)
        _, diag = run_amp(inst, FIG4, 1.0, t_max=30, stop_tol=0.0)
        assert diag[0].subgradient_norm > 10 * diag[-1].subgradient_norm

    def test_lasso_optimum_certifies_near_zero(self):
        """KKT subgradient of the solver optimum, pushed through the same formula."""
        inst = tiny_instance(13, N=300)
        lam = 1.0
        sol = solve_lasso(inst.A, inst.y, lam, tol=1e-10)
        eps = 1e-7
        theta = 0.8
        z_prev = (inst.y - inst.A @ sol.x_hat) * (theta / (lam * (1 + eps)))
        pre = inst.A.T @ z_prev + sol.x_hat
        value = certificate_norm(inst.A, inst.y, lam, sol.x_hat, pre, theta)
        assert value < 1e-5


class TestActiveSet:
    """The near-boundary masks run_amp hands to active_mask_sink."""

    def test_contains_support(self):
        inst = tiny_instance(15, N=400)
        sink = {}
        state, _ = run_amp(inst, FIG4, 1.0, t_max=20, stop_tol=0.0, active_mask_sink=sink)
        assert np.count_nonzero(state.x) > 0
        assert np.all(sink[state.t][state.x != 0.0])
