"""Variance-recursion tests against independent bisection and finite differences."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.optimize import brentq

from amplasso import state_evolution
from amplasso.errors import AmplassoError, ConvergenceError
from amplasso.scalars import (Prior, cross_mse_functional, eta_prime_expectation,
                              eta_times_signal_expectation, l1_expectation, mse_functional)
from amplasso.state_evolution import (SEParams, _brent_root, _edge_gap, alpha_min,
                                      calibrate_lambda, fixed_point, invert_calibration,
                                      predicted_risk, se_derivative, se_map, se_sequence,
                                      two_time_recursion)

from oracles import FIG4, bisect_alpha_min, edge_gap, iterate_from

RANDOM_PARAM_SETS = [
    FIG4,
    SEParams(delta=0.5, sigma2=0.1, prior=Prior((-1.5, 0.0, 2.0), (0.05, 0.9, 0.05))),
    SEParams(delta=0.9, sigma2=0.4, prior=Prior((-0.7, 0.7), (0.5, 0.5))),
    SEParams(delta=0.3, sigma2=0.05, prior=Prior((0.0, 3.0), (0.97, 0.03))),
    SEParams(delta=1.5, sigma2=0.25, prior=Prior((-2.0, 0.0, 1.0), (0.1, 0.8, 0.1))),
]


def bisect_fixed_point(params, alpha, iters=200):
    """Bisection oracle for the tau^2 fixed point, independent of the iteration."""
    def h(t2):
        return se_map(params, t2, alpha * math.sqrt(t2)) - t2
    lo, hi = 1e-12, params.tau2_init
    while h(hi) > 0:
        hi *= 2.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if h(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestAlphaMin:
    @pytest.mark.parametrize("delta", [0.1, 0.3, 0.64, 0.9])
    def test_root_equation_and_oracle(self, delta):
        a = alpha_min(delta)
        assert abs(edge_gap(a, delta)) < 1e-12
        assert abs(a - bisect_alpha_min(delta)) < 1e-10

    def test_wide_systems_admit_every_ratio(self):
        assert alpha_min(1.0) == 0.0
        assert alpha_min(2.0) == 0.0

    def test_monotone_in_delta(self):
        deltas = np.linspace(0.05, 0.95, 10)
        roots = [alpha_min(d) for d in deltas]
        assert all(b < a for a, b in zip(roots, roots[1:]))

    def test_invalid_delta(self):
        with pytest.raises(ValueError):
            alpha_min(0.0)

    def test_root_solved_once_per_grid_pass(self, monkeypatch):
        calls = []
        monkeypatch.setattr(state_evolution, "_edge_gap",
                            lambda alpha, delta: calls.append(delta) or _edge_gap(alpha, delta))
        alpha_min.cache_clear()
        one_root = alpha_min(FIG4.delta)
        per_root = len(calls)
        assert 2 <= per_root <= 20
        alpha_min.cache_clear()
        calls.clear()
        # the README penalty grid: every calibration's fixed points share the root
        for lam in np.linspace(0.2, 2.0, 10):
            predicted_risk(FIG4, float(lam))
        assert len(calls) == per_root
        assert alpha_min(FIG4.delta) == one_root and len(calls) == per_root


class TestBrentRoot:
    def test_same_root_and_calls_as_scipy_brentq(self):
        for delta in np.linspace(0.02, 0.99, 60):
            delta = float(delta)
            hi = 1.0
            while _edge_gap(hi, delta) > 0.0:
                hi *= 2.0
            calls = {"own": 0, "scipy": 0}

            def gap(alpha, who):
                calls[who] += 1
                return _edge_gap(alpha, delta)

            own = _brent_root(lambda a: gap(a, "own"), 0.0, hi)
            ref = brentq(gap, 0.0, hi, args=("scipy",), xtol=1e-15, rtol=8.9e-16)
            assert own == ref, delta
            assert calls["own"] <= calls["scipy"], delta

    def test_endpoint_root_is_returned_at_once(self):
        assert _brent_root(lambda x: x - 2.0, 2.0, 5.0) == 2.0

    @pytest.mark.parametrize("a,b", [(-1.0, 1.0), (2.0, 3.0)])
    def test_no_sign_change_rejected(self, a, b):
        with pytest.raises(ValueError, match="bracket"):
            _brent_root(lambda x: x * x + 1.0, a, b)


class TestFixedPoint:
    @pytest.mark.parametrize("alpha", [1.0, 1.5, 2.0, 3.0])
    def test_matches_bisection_oracle(self, alpha):
        got = fixed_point(FIG4, alpha)
        assert_allclose(got, bisect_fixed_point(FIG4, alpha), rtol=1e-9)

    def test_residual_is_tiny(self):
        tau2 = fixed_point(FIG4, 2.0)
        assert abs(se_map(FIG4, tau2, 2.0 * math.sqrt(tau2)) - tau2) < 1e-10

    def test_monotone_from_random_initializations(self):
        rng = np.random.default_rng(17)
        tau2_star = fixed_point(FIG4, 2.0)
        for _ in range(10):
            init = float(rng.uniform(0.25, 4.0)) * tau2_star
            traj = iterate_from(FIG4, 2.0, init)
            diffs = np.diff(traj)
            assert np.all(diffs <= 1e-12) or np.all(diffs >= -1e-12)
            assert_allclose(traj[-1], tau2_star, rtol=1e-8)

    def test_below_alpha_min_rejected(self):
        amin = alpha_min(FIG4.delta)
        with pytest.raises(ValueError):
            fixed_point(FIG4, 0.5 * amin)

    def test_concave_along_policy_line(self):
        grid = np.linspace(0.01, 3.0, 120)
        vals = np.array([se_map(FIG4, t2, 2.0 * math.sqrt(t2)) for t2 in grid])
        second = np.diff(vals, 2)
        assert np.all(second <= 1e-10)

    def test_derivative_at_fixed_point_is_contractive(self):
        for lam in (0.2, 0.6, 1.0, 1.6, 2.0):
            alpha = invert_calibration(FIG4, lam)
            tau2 = fixed_point(FIG4, alpha)
            d = se_derivative(FIG4, tau2, alpha)
            assert 0.0 <= d < 1.0


class TestSeDerivative:
    @pytest.mark.parametrize("alpha,tau2", [(1.2, 0.3), (2.0, 0.36), (2.0, 1.7), (3.5, 0.05)])
    def test_matches_finite_differences(self, alpha, tau2):
        h = 1e-6 * tau2
        up = se_map(FIG4, tau2 + h, alpha * math.sqrt(tau2 + h))
        down = se_map(FIG4, tau2 - h, alpha * math.sqrt(tau2 - h))
        fd = (up - down) / (2 * h)
        assert_allclose(se_derivative(FIG4, tau2, alpha), fd, rtol=2e-6)

    def test_other_params(self):
        p = RANDOM_PARAM_SETS[1]
        tau2, alpha = 0.8, 1.4
        h = 1e-6
        fd = (se_map(p, tau2 + h, alpha * math.sqrt(tau2 + h))
              - se_map(p, tau2 - h, alpha * math.sqrt(tau2 - h))) / (2 * h)
        assert_allclose(se_derivative(p, tau2, alpha), fd, rtol=2e-6)


class TestCalibration:
    def test_round_trip_alpha_to_lambda(self):
        amin = alpha_min(FIG4.delta)
        for alpha in np.linspace(amin + 0.1, 5.0, 12):
            lam = calibrate_lambda(FIG4, float(alpha))
            if lam <= 0:
                continue
            assert_allclose(invert_calibration(FIG4, lam), alpha, atol=1e-6)

    def test_round_trip_lambda_to_alpha(self):
        # for every parameter set the root of lambda = 0.2 lies below
        # alpha_min + 1 and the others above it, so the bracket search both
        # halves and doubles
        for p in RANDOM_PARAM_SETS:
            amin = alpha_min(p.delta)
            below = []
            for lam in (0.2, 0.7, 1.3, 2.0):
                alpha = invert_calibration(p, lam)
                below.append(alpha < amin + 1.0)
                assert abs(calibrate_lambda(p, alpha) - lam) <= 1e-12 * max(1.0, lam)
            assert below == [True, False, False, False]

    def test_penalty_negative_near_admissible_edge(self):
        amin = alpha_min(FIG4.delta)
        assert calibrate_lambda(FIG4, amin + 0.01) < 0.0

    def test_no_solution_above_cap(self):
        with pytest.raises(ConvergenceError):
            invert_calibration(FIG4, 1e12)

    def test_invalid_lambda(self):
        with pytest.raises(ValueError):
            invert_calibration(FIG4, -1.0)


class TestPredictedRisk:
    def test_fig4_reference_numbers(self):
        bundle = predicted_risk(FIG4, 1.0)
        assert abs(calibrate_lambda(FIG4, bundle.alpha) - 1.0) <= 1e-12
        assert_allclose(bundle.tau2_star, 0.3636651150808357, rtol=1e-10)
        assert_allclose(bundle.mse_predicted, 0.1047456736517257, rtol=1e-10)

    def test_identity_between_formulas(self):
        # direct expectation vs delta*(tau*^2 - sigma^2), checked internally
        for p in RANDOM_PARAM_SETS:
            if p.prior.nonzero_mass == 0:
                continue
            for lam in (0.4, 1.1):
                bundle = predicted_risk(p, lam)
                direct = mse_functional(p.prior, math.sqrt(bundle.tau2_star), bundle.theta_star)
                assert_allclose(bundle.mse_predicted, direct, atol=1e-10)

    def test_zero_mass_prior_rejected(self):
        p = SEParams(delta=0.64, sigma2=0.2, prior=Prior((0.0,), (1.0,)))
        with pytest.raises(ValueError):
            predicted_risk(p, 1.0)


@st.composite
def priors_with_zero_weight_atoms(draw):
    """(prior, the same prior with zero-weight atoms added among its atoms)."""
    atoms = draw(st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=4, unique=True))
    raw = draw(st.lists(st.floats(0.05, 1.0), min_size=len(atoms), max_size=len(atoms)))
    weights = [w / sum(raw) for w in raw]
    extra = draw(st.lists(st.floats(-4.0, 4.0).filter(lambda a: a not in atoms),
                          min_size=1, max_size=3, unique=True))
    at = draw(st.integers(0, len(atoms)))
    padded = Prior(tuple(atoms[:at] + extra + atoms[at:]),
                   tuple(weights[:at] + [0.0] * len(extra) + weights[at:]))
    return Prior(tuple(atoms), tuple(weights)), padded


class TestZeroWeightAtoms:
    @settings(max_examples=60, deadline=None)
    @given(pair=priors_with_zero_weight_atoms(), tau=st.floats(0.05, 3.0),
           theta=st.floats(0.0, 5.0))
    def test_scalar_functionals_ignore_them(self, pair, tau, theta):
        prior, padded = pair
        for functional in (mse_functional, eta_prime_expectation, l1_expectation):
            assert_allclose(functional(padded, tau, theta), functional(prior, tau, theta),
                            rtol=1e-12, atol=0.0)

    @settings(max_examples=25, deadline=None)
    @given(pair=priors_with_zero_weight_atoms(), delta=st.floats(0.2, 1.5),
           sigma2=st.floats(0.02, 1.0), lam=st.floats(0.1, 3.0))
    def test_predicted_risk_ignores_them(self, pair, delta, sigma2, lam):
        prior, padded = pair
        outcomes = []
        for p in (prior, padded):
            try:
                outcomes.append(predicted_risk(SEParams(delta, sigma2, p), lam))
            except (ValueError, AmplassoError) as exc:
                outcomes.append(type(exc))
        base, other = outcomes
        if isinstance(base, type):
            assert other is base
            return
        for name in ("alpha", "tau2_star", "mse_predicted", "l1_predicted", "sparsity_predicted"):
            assert_allclose(getattr(other, name), getattr(base, name), rtol=1e-12, atol=0.0)


def test_threshold_whose_square_overflows_cuts_everything():
    # every coordinate is cut: F = sigma^2 + E{X0^2} / delta
    assert se_map(FIG4, 0.3, 1e201) == FIG4.tau2_init


@pytest.mark.parametrize("call, name", [
    (lambda: fixed_point(FIG4, math.nan), "alpha"),
    (lambda: se_map(FIG4, math.nan, 1.0), "tau2"),
    (lambda: se_map(FIG4, 1.0, math.nan), "theta"),
    (lambda: se_derivative(FIG4, 1.0, math.nan), "alpha"),
    (lambda: se_derivative(FIG4, math.nan, 1.0), "tau2"),
    (lambda: two_time_recursion(FIG4, math.nan, 3), "alpha_min"),
    (lambda: alpha_min(math.nan), "delta"),
    (lambda: invert_calibration(FIG4, math.nan), "lambda"),
    (lambda: SEParams(delta=True, sigma2=0.2, prior=FIG4.prior), "delta"),
    (lambda: SEParams(delta=0.64, sigma2=math.nan, prior=FIG4.prior), "sigma2"),
    (lambda: SEParams(delta=-0.64, sigma2=0.2, prior=FIG4.prior), "delta"),
    (lambda: se_sequence(FIG4, math.nan, 3), "alpha"),
    (lambda: se_sequence(FIG4, 2.0, -1), "T"),
    (lambda: two_time_recursion(FIG4, 2.0, 0), "T"),
    (lambda: mse_functional(FIG4.prior, math.nan, 1.0), "tau"),
    (lambda: cross_mse_functional(FIG4.prior, 0.5, -0.7, 0.1, 1.0, 1.0), "tau_b"),
    (lambda: cross_mse_functional(FIG4.prior, 0.5, 0.7, 0.1, math.nan, 1.0), "theta_a"),
], ids=["fixed_point", "se_map_tau2", "se_map_theta",
        "se_derivative_alpha", "se_derivative_tau2", "two_time_recursion", "alpha_min",
        "invert_calibration", "SEParams_bool", "SEParams_nan", "SEParams_negative",
        "se_sequence_alpha", "se_sequence_T", "two_time_recursion_T", "mse_tau",
        "cross_tau_b", "cross_theta_a"])
def test_nan_or_nonpositive_parameter_rejected_at_once(call, name):
    # the whole word: "tau" must not pass on a message about tau_b
    with pytest.raises(ValueError, match=rf"\b{name}\b"):
        call()


INF = math.inf
PRIOR = FIG4.prior


@pytest.mark.parametrize("call, expected", [
    # a noise scale must be finite
    (lambda: mse_functional(PRIOR, INF, 1.0), ValueError),
    (lambda: eta_prime_expectation(PRIOR, INF, 1.0), ValueError),
    (lambda: l1_expectation(PRIOR, INF, 1.0), ValueError),
    (lambda: cross_mse_functional(PRIOR, INF, 0.5, 0.1, 1.0, 1.0), ValueError),
    (lambda: se_map(FIG4, INF, 1.0), ValueError),
    (lambda: se_derivative(FIG4, INF, 1.0), ValueError),
    # so must a threshold ratio
    (lambda: se_derivative(FIG4, 1.0, INF), ValueError),
    (lambda: two_time_recursion(FIG4, INF, 2), ValueError),
    (lambda: se_sequence(FIG4, INF, 2), ValueError),
    (lambda: fixed_point(FIG4, INF), ValueError),
    (lambda: calibrate_lambda(FIG4, INF), ValueError),
    # an infinite threshold cuts everything, eta(x; inf) = 0: the limits
    (lambda: mse_functional(PRIOR, 0.5, INF), PRIOR.second_moment),
    (lambda: eta_prime_expectation(PRIOR, 0.5, INF), 0.0),
    (lambda: l1_expectation(PRIOR, 0.5, INF), 0.0),
    (lambda: eta_times_signal_expectation(PRIOR, 0.5, INF), 0.0),
    (lambda: cross_mse_functional(PRIOR, 0.5, 0.7, 0.1, INF, INF), PRIOR.second_moment),
    (lambda: cross_mse_functional(PRIOR, 0.5, 0.7, 0.1, INF, 0.8),
     PRIOR.second_moment - eta_times_signal_expectation(PRIOR, 0.7, 0.8)),
    (lambda: se_map(FIG4, 1.0, INF), FIG4.tau2_init),
], ids=["mse_tau", "eta_prime_tau", "l1_tau", "cross_tau", "se_map_tau2", "se_derivative_tau2",
        "se_derivative_alpha", "two_time_recursion_alpha", "se_sequence_alpha", "fixed_point_alpha",
        "calibrate_lambda_alpha", "mse_theta", "eta_prime_theta", "l1_theta",
        "eta_times_signal_theta", "cross_both_thetas", "cross_one_theta", "se_map_theta"])
def test_infinite_argument_rejected_or_taken_to_its_limit(call, expected):
    if expected is ValueError:
        with pytest.raises(ValueError):
            call()
    else:
        assert call() == pytest.approx(expected, rel=1e-12, abs=0.0)


class TestSharedSequence:
    def test_fixed_point_at_a_calibrated_alpha_reads_the_calibration_sequence(self, monkeypatch):
        state_evolution._se_memo.cache_clear()
        bundle = predicted_risk(FIG4, 0.7)
        calls = []
        monkeypatch.setattr(state_evolution, "se_map",
                            lambda *args: calls.append(args) or se_map(*args))
        tau2_star = fixed_point(FIG4, bundle.alpha)
        traj = iterate_from(FIG4, bundle.alpha, FIG4.tau2_init)
        T = len(traj) - 1
        assert tau2_star == bundle.tau2_star == traj[-1]
        assert traj == se_sequence(FIG4, bundle.alpha, T)
        assert calls == []


class TestTwoTimeRecursion:
    def test_diagonal_matches_one_dimensional_recursion(self):
        alpha = 2.0
        T = 12
        R = two_time_recursion(FIG4, alpha, T)
        assert R.shape == (T + 1, T + 1)
        assert_allclose(np.diag(R), se_sequence(FIG4, alpha, T), rtol=1e-12)
        # independent 1-D recursion
        t2 = FIG4.tau2_init
        for s in range(T + 1):
            assert_allclose(R[s, s], t2, rtol=1e-10)
            t2 = se_map(FIG4, t2, alpha * math.sqrt(t2))

    def test_shares_the_memoised_sequence_and_hands_out_copies(self):
        first = se_sequence(FIG4, 2.0, 5)
        first[1] = -1.0
        assert se_sequence(FIG4, 2.0, 5)[1] == two_time_recursion(FIG4, 2.0, 5)[1, 1] > 0
        for T in (-1, 2.5):
            with pytest.raises(ValueError):
                se_sequence(FIG4, 2.0, T)

    def test_symmetric_and_psd(self):
        R = two_time_recursion(FIG4, 2.0, 10)
        assert_allclose(R, R.T, rtol=1e-12)
        eigs = np.linalg.eigvalsh(R)
        assert eigs.min() > -1e-8 * eigs.max()

    def test_cauchy_schwarz_rows(self):
        R = two_time_recursion(FIG4, 1.5, 10)
        for s in range(10):
            for t in range(10):
                assert abs(R[s, t]) <= math.sqrt(R[s, s] * R[t, t]) * (1 + 1e-10)

    def test_adjacent_covariance_approaches_fixed_point(self):
        alpha = 2.0
        T = 26
        R = two_time_recursion(FIG4, alpha, T)
        tau2_star = fixed_point(FIG4, alpha)
        gaps = [abs(R[t, t + 1] - tau2_star) for t in range(5, T - 1)]
        assert gaps[-1] < gaps[0] * 1e-2
