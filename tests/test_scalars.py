"""Scalar functional tests against frozen Monte-Carlo references.

The mc / se columns were produced by a 10^7-sample simulation of each
expectation (seeded, chunked); the closed forms must sit within 3 standard
errors. Degenerate and independent cross-covariance cases reduce to exact
identities and are checked tighter.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.special import ndtr

from amplasso.scalars import (Prior, _mse_slope, _ndtr, cross_mse_functional,
                              eta_prime_expectation, get_preset, l1_expectation,
                              mse_functional, soft_threshold)

THREE = Prior((-1.0, 0.0, 1.0), (0.064, 0.872, 0.064))
POINT = Prior((0.0,), (1.0,))
SHIFTED = Prior((-2.0, 0.5), (0.3, 0.7))

finite_floats = st.floats(min_value=-50, max_value=50)
thetas = st.floats(min_value=1e-3, max_value=20)


class TestSoftThreshold:
    def test_basic_values(self):
        assert soft_threshold(3.0, 1.0) == 2.0
        assert soft_threshold(-3.0, 1.0) == -2.0
        assert soft_threshold(0.5, 1.0) == 0.0
        assert soft_threshold(1.0, 1.0) == 0.0

    def test_array_input(self):
        x = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
        assert_allclose(soft_threshold(x, 1.0), [-1.0, 0.0, 0.0, 0.0, 1.0])

    @given(x=finite_floats, y=finite_floats, theta=thetas)
    def test_lipschitz(self, x, y, theta):
        assert abs(soft_threshold(x, theta) - soft_threshold(y, theta)) <= abs(x - y) + 1e-12

    @given(x=finite_floats, theta=thetas)
    def test_odd_and_shrinking(self, x, theta):
        e = soft_threshold(x, theta)
        assert soft_threshold(-x, theta) == -e
        assert abs(e) <= abs(x)
        assert abs(e) <= max(abs(x) - theta, 0.0) + 1e-12


class TestNdtr:
    def test_matches_scipy_on_a_dense_grid(self):
        # measured: <= 255 ulp from SciPy on [-30, -5], where both use an
        # erfc of a large argument, and <= 11 ulp elsewhere
        x = np.linspace(-30.0, 9.0, 200_001)
        assert_allclose(_ndtr(x), ndtr(x), rtol=2e-13, atol=0.0)

    def test_limits_and_centre(self):
        assert _ndtr(0.0) == 0.5
        assert _ndtr(float("inf")) == 1.0 and _ndtr(-float("inf")) == 0.0
        assert np.isnan(_ndtr(float("nan")))

    @pytest.mark.parametrize("x", [0.3, np.float64(-2.0), np.array(1.5), np.linspace(-3, 3, 7),
                                   np.linspace(-3, 3, 12).reshape(3, 4)],
                             ids=["float", "float64", "0-d", "1-d", "2-d"])
    def test_keeps_the_shape(self, x):
        got = _ndtr(x)
        assert np.shape(got) == np.shape(x)
        assert_allclose(got, ndtr(x), rtol=2e-13, atol=0.0)


class TestPrior:
    def test_preset_matches_literal(self):
        assert get_preset("three_point_0.064") == THREE

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            get_preset("nope")

    def test_moments(self):
        assert_allclose(THREE.second_moment, 0.128)
        assert_allclose(THREE.nonzero_mass, 0.128)
        assert_allclose(SHIFTED.second_moment, 0.3 * 4.0 + 0.7 * 0.25)

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            Prior((0.0, 1.0), (0.5, 0.6))

    def test_negative_weight(self):
        with pytest.raises(ValueError):
            Prior((0.0, 1.0), (-0.1, 1.1))

    def test_duplicate_atoms(self):
        with pytest.raises(ValueError):
            Prior((1.0, 1.0), (0.5, 0.5))

    @pytest.mark.parametrize("atoms,weights", [
        ((-1.0, 0.0, 1.0), (0.064, float("nan"), 0.064)),
        (("1", 0.0), (0.5, 0.5)),
        ((0.0, 1.0), (True, False)),
    ], ids=["nan-weight", "string-atom", "boolean-weight"])
    def test_non_numbers_rejected(self, atoms, weights):
        with pytest.raises(ValueError):
            Prior(atoms, weights)
        with pytest.raises(ValueError):
            Prior.from_json({"atoms": list(atoms), "weights": list(weights)})

    def test_json_round_trip(self):
        again = Prior.from_json(SHIFTED.to_json())
        assert again == SHIFTED


# (prior, tau, theta, mc mean, mc standard error), 10^7 samples each
MSE_REFERENCE = [
    (THREE, 0.6, 0.9, 0.097294402750, 8.390e-05),
    (THREE, 1.3, 0.4, 1.033625041616, 5.740e-04),
    (POINT, 1.0, 2.0, 0.011542534166, 3.572e-05),
    (SHIFTED, 0.8, 1.1, 0.648063433198, 3.141e-04),
]
ETAPRIME_REFERENCE = [
    (THREE, 0.6, 0.9, 0.189023300000, 1.238e-04),
    (SHIFTED, 1.2, 0.7, 0.676766700000, 1.479e-04),
]
L1_REFERENCE = [
    (THREE, 0.6, 0.9, 0.068212493052, 6.296e-05),
    (SHIFTED, 0.8, 1.1, 0.363943772937, 1.876e-04),
]
CROSS_REFERENCE = [
    (THREE, 0.6, 0.9, 0.30, 0.8, 1.2, 0.083892554982, 8.031e-05),
    (THREE, 0.7, 0.7, -0.20, 1.0, 1.0, 0.056184520002, 7.390e-05),
    (SHIFTED, 1.0, 0.5, 0.45, 0.9, 0.6, 0.415828272431, 1.986e-04),
]


class TestMseFunctional:
    @pytest.mark.parametrize("prior,tau,theta,mc,se", MSE_REFERENCE)
    def test_against_frozen_mc(self, prior, tau, theta, mc, se):
        assert abs(mse_functional(prior, tau, theta) - mc) < 3 * se

    def test_scale_invariance(self):
        c = 2.5
        scaled = Prior(tuple(c * a for a in SHIFTED.atoms), SHIFTED.weights)
        assert_allclose(mse_functional(scaled, c * 0.8, c * 1.1),
                        c * c * mse_functional(SHIFTED, 0.8, 1.1), rtol=1e-12)

    def test_huge_threshold_gives_prior_second_moment(self):
        assert_allclose(mse_functional(THREE, 0.5, 60.0), THREE.second_moment, rtol=1e-12)
        # above ~1.3e154 theta^2 overflows; the limit is the same
        for theta in (1e201, np.float64(1e201), np.inf):
            assert mse_functional(THREE, 0.5, theta) == THREE.second_moment

    def test_nonnegative(self):
        for theta in (0.01, 0.5, 2.0, 10.0):
            assert mse_functional(THREE, 0.7, theta) >= 0.0

    def test_threshold_slope_matches_central_differences(self):
        rng = np.random.default_rng(7)
        h = 1e-5
        for prior in (THREE, SHIFTED) * 20:
            tau, theta = rng.uniform(0.2, 2.0), rng.uniform(0.05, 3.0)
            fd = (mse_functional(prior, tau, theta + h) - mse_functional(prior, tau, theta - h)) / (2 * h)
            assert_allclose(_mse_slope(prior, tau, theta), fd, rtol=1e-7)


@pytest.mark.parametrize("functional", [mse_functional, eta_prime_expectation, l1_expectation])
@pytest.mark.parametrize("tau, theta", [(np.nan, 1.0), (1.0, np.nan), (0.0, 1.0), (1.0, -1.0)])
def test_nan_or_out_of_range_arguments_rejected(functional, tau, theta):
    with pytest.raises(ValueError):
        functional(THREE, tau, theta)


class TestEtaPrimeExpectation:
    @pytest.mark.parametrize("prior,tau,theta,mc,se", ETAPRIME_REFERENCE)
    def test_against_frozen_mc(self, prior, tau, theta, mc, se):
        assert abs(eta_prime_expectation(prior, tau, theta) - mc) < 3 * se

    def test_is_a_probability_and_decreasing_in_theta(self):
        grid = np.linspace(0.05, 5.0, 40)
        vals = [eta_prime_expectation(THREE, 0.6, t) for t in grid]
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


class TestL1Expectation:
    @pytest.mark.parametrize("prior,tau,theta,mc,se", L1_REFERENCE)
    def test_against_frozen_mc(self, prior, tau, theta, mc, se):
        assert abs(l1_expectation(prior, tau, theta) - mc) < 3 * se

    def test_large_threshold_kills_everything(self):
        assert l1_expectation(THREE, 0.5, 80.0) < 1e-12
        assert l1_expectation(THREE, 0.5, 1e201) == 0.0


class TestCrossMseFunctional:
    @pytest.mark.parametrize("prior,ta,tb,cov,tha,thb,mc,se", CROSS_REFERENCE)
    def test_against_frozen_mc(self, prior, ta, tb, cov, tha, thb, mc, se):
        assert abs(cross_mse_functional(prior, ta, tb, cov, tha, thb) - mc) < 3 * se

    def test_degenerate_covariance_reduces_to_mse(self):
        got = cross_mse_functional(THREE, 0.6, 0.6, 0.36, 0.9, 0.9)
        assert_allclose(got, mse_functional(THREE, 0.6, 0.9), atol=1e-8)

    def test_independent_point_mass_factorizes_to_zero(self):
        assert abs(cross_mse_functional(POINT, 0.8, 1.1, 0.0, 0.7, 1.3)) < 1e-14

    def test_argument_swap_symmetry(self):
        a = cross_mse_functional(SHIFTED, 1.0, 0.5, 0.45, 0.9, 0.6)
        b = cross_mse_functional(SHIFTED, 0.5, 1.0, 0.45, 0.6, 0.9)
        assert_allclose(a, b, rtol=1e-12)

    def test_cauchy_schwarz_bound(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            ta, tb = rng.uniform(0.2, 1.5, 2)
            tha, thb = rng.uniform(0.2, 2.0, 2)
            cov = rng.uniform(-1.0, 1.0) * ta * tb
            c = cross_mse_functional(THREE, ta, tb, cov, tha, thb)
            bound = np.sqrt(mse_functional(THREE, ta, tha) * mse_functional(THREE, tb, thb))
            assert abs(c) <= bound * (1 + 1e-9)

    def test_invalid_covariance_rejected(self):
        with pytest.raises(ValueError):
            cross_mse_functional(THREE, 0.5, 0.5, 0.3, 1.0, 1.0)
