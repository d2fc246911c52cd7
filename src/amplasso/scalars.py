"""Scalar primitives: soft thresholding, Gaussian tools, and prior expectations.

Every functional here reduces to closed-form combinations of the Gaussian
density phi and CDF Phi, evaluated per atom of a finite discrete prior by
one kernel, _gaussian_terms, at the two kinks of eta(a + tau Z; theta); each
functional (state_evolution.se_derivative too) keeps its own theta = inf limit.
The one genuinely two-dimensional quantity (the cross moment of two jointly
Gaussian soft-threshold outputs) is integrated numerically, but only in the
outer variable: the inner expectation is analytic, so the integrand is a
piecewise-smooth one-dimensional function whose kink locations are known.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

_SQRT_2PI = np.sqrt(2.0 * np.pi)
_SQRT1_2 = math.sqrt(0.5)

# nodes/weights for the piecewise Gauss-Legendre rule used by
# cross_mse_functional; 64 points per smooth panel is far past the
# 1e-8 target (measured error is near machine precision)
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)
_OUTER_RANGE_SIGMAS = 10.0


def gaussian_pdf(x):
    """Standard Gaussian density phi(x)."""
    x = np.asarray(x, dtype=float)
    # beyond |x| ~ 1.3e154 the square overflows to inf, and exp(-inf) = 0 is right
    with np.errstate(over="ignore"):
        return np.exp(-0.5 * x * x) / _SQRT_2PI


def _ndtr_scalar(x):
    u = x * _SQRT1_2
    if -_SQRT1_2 < u < _SQRT1_2:
        return 0.5 + 0.5 * math.erf(u)
    tail = 0.5 * math.erfc(abs(u))
    return 1.0 - tail if u > 0 else tail


def _ndtr(x):
    """Standard Gaussian CDF Phi(x), elementwise; a scalar or an array of x's shape.

    Cephes' split: with u = x / sqrt(2), 0.5 + 0.5 erf(u) for |u| < 1/sqrt(2),
    else the tail 0.5 erfc(|u|), taken as 1 - tail for u > 0, so the lower
    tail keeps its relative accuracy far below -1.
    """
    x = np.asarray(x, dtype=float)
    out = np.fromiter(map(_ndtr_scalar, x.ravel().tolist()), float, x.size).reshape(x.shape)
    return out[()] if out.ndim == 0 else out


def soft_threshold(x, theta):
    """Soft thresholding: shrink x toward zero by theta with a dead zone.

    Args:
        x: scalar or array.
        theta: nonnegative threshold, or an array of them that broadcasts
            against x.

    Returns:
        x - theta where x > theta, x + theta where x < -theta, else 0.
    """
    # a scalar is compared without NumPy, since the solvers call this every step
    if not ((theta >= 0).all() if isinstance(theta, np.ndarray) else theta >= 0):
        raise ValueError(f"threshold must be nonnegative, got {theta}")
    x = np.asarray(x, dtype=float)
    out = np.sign(x) * np.maximum(np.abs(x) - theta, 0.0)
    return float(out) if out.ndim == 0 else out


def _number(value, kind):
    return not isinstance(value, bool) and isinstance(value, kind)


def finite_float(value):
    """`value` as a float, if it is a real, non-boolean, finite number.

    Raises:
        ValueError: for a string, a boolean, NaN, an infinity or a non-number.
    """
    if not (_number(value, numbers.Real) and math.isfinite(value)):
        raise ValueError(f"expected a finite number, got {value!r}")
    return float(value)


def positive_float(value, name):
    """`value` as a float if finite_float takes it and it is positive, else a ValueError naming `name`."""
    if not (_number(value, numbers.Real) and 0 < value < math.inf):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")
    return float(value)


def nonnegative_float(value, name):
    """`value` as a float if finite_float takes it and it is at least 0, else a ValueError naming `name`."""
    if not (_number(value, numbers.Real) and 0 <= value < math.inf):
        raise ValueError(f"{name} must be nonnegative and finite, got {value!r}")
    return float(value)


def integer_at_least(value, k, name):
    """`value` as an int if it is an integral non-boolean number (2.0 is not) of at least k, else a ValueError naming `name`."""
    if not (_number(value, numbers.Integral) and value >= k):
        raise ValueError(f"{name} must be an integer of at least {k}, got {value!r}")
    return int(value)


def one_of(value, choices, name):
    """`value` if it is one of `choices`, else a ValueError naming `name`."""
    if value not in choices:
        raise ValueError(f"{name} must be one of {choices}, got {value!r}")
    return value


@dataclass(frozen=True)
class Prior:
    """Finite discrete signal prior: atoms with probability weights.

    Invariants checked at construction: atoms and weights are lists of
    finite numbers (booleans and strings are not numbers), weights
    nonnegative and summing to 1 within 1e-12, atoms distinct.
    """

    atoms: tuple
    weights: tuple

    def __post_init__(self):
        for name in ("atoms", "weights"):
            values = getattr(self, name)
            if not isinstance(values, (list, tuple)):
                raise ValueError(f"{name} must be a list, got {values!r}")
            try:
                object.__setattr__(self, name, tuple(finite_float(v) for v in values))
            except ValueError as exc:
                raise ValueError(f"{name}: {exc}") from None
        atoms, weights = self.atoms, self.weights
        if len(atoms) == 0 or len(atoms) != len(weights):
            raise ValueError("atoms and weights must be nonempty and equal length")
        if len(set(atoms)) != len(atoms):
            raise ValueError("atoms must be distinct")
        if min(weights) < 0:
            raise ValueError("weights must be nonnegative")
        if abs(sum(weights) - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1 within 1e-12, got {sum(weights)}")

    @property
    def atoms_arr(self):
        return np.asarray(self.atoms, dtype=float)

    @property
    def weights_arr(self):
        return np.asarray(self.weights, dtype=float)

    @property
    def second_moment(self):
        """E{X0^2}."""
        return float(np.dot(self.weights_arr, self.atoms_arr**2))

    @property
    def nonzero_mass(self):
        """P{X0 != 0}."""
        return float(sum(w for a, w in zip(self.atoms, self.weights) if a != 0.0))

    def to_json(self):
        return {"atoms": list(self.atoms), "weights": list(self.weights)}

    @classmethod
    def from_json(cls, obj):
        """A preset name or an inline {"atoms": [...], "weights": [...]} object."""
        if isinstance(obj, str):
            return get_preset(obj)
        if not (isinstance(obj, dict) and set(obj) == {"atoms", "weights"}):
            raise ValueError(f'expected a preset name or {{"atoms": [...], "weights": [...]}}, got {obj!r}')
        return cls(atoms=obj["atoms"], weights=obj["weights"])


# named presets; "three_point_0.064" is the symmetric three-point prior
# with P(+1) = P(-1) = 0.064 used throughout the reference experiments
PRESETS = {
    "three_point_0.064": Prior(atoms=(-1.0, 0.0, 1.0), weights=(0.064, 0.872, 0.064)),
}


def get_preset(name):
    """Look up a named prior preset."""
    try:
        return PRESETS[name]
    except KeyError:
        raise ValueError(f"unknown prior preset {name!r}; known: {sorted(PRESETS)}") from None


def _check_tau_theta(tau, theta, side=""):
    """tau must be finite and positive; theta may be +inf, where each functional
    returns its limit (eta(x; inf) = 0 for every x). `side` ends both names."""
    positive_float(tau, f"tau{side}")
    if not theta >= 0:
        raise ValueError(f"theta{side} must be nonnegative, got {theta}")


def _gaussian_terms(a, tau, theta):
    """(c+, d, Phi(-c+), Phi(-d), phi(c+), phi(d)) per entry of a, with c+ =
    (theta - a)/tau and d = (theta + a)/tau; (a - theta)/tau = -c+ and
    (-a - theta)/tau = -d exactly, and phi is even to the bit."""
    cp = (theta - a) / tau
    d = (theta + a) / tau
    return cp, d, _ndtr(-cp), _ndtr(-d), gaussian_pdf(cp), gaussian_pdf(d)


def mse_functional(prior, tau, theta):
    """E{[eta(X0 + tau Z; theta) - X0]^2} in closed form.

    Per atom a, with c+ = (theta-a)/tau and d = (theta+a)/tau, the integral
    of the piecewise quadratic against the Gaussian splits into the two
    tails (shrunk-by-theta quadratics) and the dead zone (constant a^2):

        tau^2 [Phi(-c+) + c+ phi(c+)] - 2 tau theta phi(c+) + theta^2 Phi(-c+)
      + tau^2 [Phi(-d)  + d  phi(d) ] - 2 tau theta phi(d)  + theta^2 Phi(-d)
      + a^2 [Phi(c+) - Phi(-d)]

    Args:
        prior: Prior.
        tau: positive noise scale.
        theta: nonnegative threshold.

    Returns:
        The expectation, exact up to floating point.
    """
    _check_tau_theta(tau, theta)
    a = prior.atoms_arr
    cp, d, tail_cp, tail_d, pdf_cp, pdf_d = _gaussian_terms(a, tau, theta)
    # theta^2 overflows above ~1.3e154; 40 sds into the dead zone the tails
    # and densities are 0 to double precision, the closed form reduces to
    # E{X0^2} exactly, and so it is returned without the square
    if theta > 1e154 and min(cp.min(), d.min()) >= 40.0:
        return float(np.dot(prior.weights_arr, a * a))
    upper = tau**2 * (tail_cp + cp * pdf_cp) - 2 * tau * theta * pdf_cp + theta**2 * tail_cp
    lower = tau**2 * (tail_d + d * pdf_d) - 2 * tau * theta * pdf_d + theta**2 * tail_d
    dead = a * a * (_ndtr(cp) - tail_d)
    return float(np.dot(prior.weights_arr, upper + lower + dead))


def _mse_slope(prior, tau, theta):
    """d/dtheta of mse_functional: 2 sum_a w_a [theta (Phi(-c+) + Phi(-d)) - tau (phi(c+) + phi(d))]."""
    _, _, tail_cp, tail_d, pdf_cp, pdf_d = _gaussian_terms(prior.atoms_arr, tau, theta)
    return 2.0 * float(np.dot(prior.weights_arr, theta * (tail_cp + tail_d) - tau * (pdf_cp + pdf_d)))


def eta_prime_expectation(prior, tau, theta):
    """E{eta'(X0 + tau Z; theta)} = P{|X0 + tau Z| > theta}.

    Closed form per atom: Phi((a - theta)/tau) + Phi((-a - theta)/tau).
    Monotone nonincreasing in theta; equals 1 at theta = 0.
    """
    _check_tau_theta(tau, theta)
    _, _, tail_cp, tail_d, _, _ = _gaussian_terms(prior.atoms_arr, tau, theta)
    return float(np.dot(prior.weights_arr, tail_cp + tail_d))


def l1_expectation(prior, tau, theta):
    """E{|eta(X0 + tau Z; theta)|} in closed form.

    On the upper tail the output is a + tau z - theta > 0, on the lower tail
    it is -(a + tau z + theta) > 0, and the dead zone contributes nothing.
    """
    _check_tau_theta(tau, theta)
    if theta == math.inf:
        return 0.0
    a = prior.atoms_arr
    _, _, tail_cp, tail_d, pdf_cp, pdf_d = _gaussian_terms(a, tau, theta)
    val = (a - theta) * tail_cp + tau * pdf_cp - (a + theta) * tail_d + tau * pdf_d
    return float(np.dot(prior.weights_arr, val))


def _eta_mean(mean, sd, theta):
    """E{eta(mean + sd W; theta)} for standard normal W, vectorized.

    This is the Gaussian smoothing of the soft threshold; it is an entire
    function of `mean`, which is what makes the cross-moment integrand
    piecewise smooth after conditioning.
    """
    mean = np.asarray(mean, dtype=float)
    if theta == math.inf:
        return np.zeros_like(mean)
    _, _, tail_cp, tail_d, pdf_cp, pdf_d = _gaussian_terms(mean, sd, theta)
    return (mean - theta) * tail_cp + sd * pdf_cp + (mean + theta) * tail_d - sd * pdf_d


def eta_times_signal_expectation(prior, tau, theta):
    """E{eta(X0 + tau Z; theta) * X0} in closed form (per atom a * E{eta})."""
    _check_tau_theta(tau, theta)
    a = prior.atoms_arr
    return float(np.dot(prior.weights_arr, a * _eta_mean(a, tau, theta)))


def cross_mse_functional(prior, tau_a, tau_b, cov, theta_a, theta_b):
    """E{[eta(X0+Z_a; theta_a) - X0][eta(X0+Z_b; theta_b) - X0]}.

    (Z_a, Z_b) are centered jointly Gaussian with variances tau_a^2, tau_b^2
    and covariance cov. Conditioning on Z_b makes the inner expectation the
    analytic Gaussian smoothing of eta; the outer integrand is then smooth
    except at the two known kinks of eta(a + z; theta_b), so a Gauss-Legendre
    rule on the panels between kinks integrates it essentially exactly.
    A singular joint law (|cov| = tau_a tau_b) drops the smoothing; the
    integrand is then piecewise linear with up to four known kinks, handled
    the same way.

    Args:
        prior: Prior.
        tau_a, tau_b: positive scales.
        cov: covariance of (Z_a, Z_b); the 2x2 matrix must be PSD.
        theta_a, theta_b: nonnegative thresholds.

    Returns:
        The cross moment; symmetric under swapping the (a, b) arguments.
    """
    _check_tau_theta(tau_a, theta_a, "_a")
    _check_tau_theta(tau_b, theta_b, "_b")
    va, vb = tau_a * tau_a, tau_b * tau_b
    if not cov * cov <= va * vb * (1.0 + 1e-12):
        raise ValueError(f"covariance matrix not PSD: cov={cov}, tau_a={tau_a}, tau_b={tau_b}")

    cond_var = va - (cov * cov) / vb
    cond_sd = np.sqrt(max(cond_var, 0.0))
    slope = cov / vb  # E{Z_a | Z_b = z} = slope * z
    degenerate = cond_sd <= 1e-12 * tau_a

    lim = _OUTER_RANGE_SIGMAS * tau_b
    total = 0.0
    for a, w in zip(prior.atoms, prior.weights):
        if w == 0.0:
            continue
        kinks = [theta_b - a, -theta_b - a]
        if degenerate and slope != 0.0:
            kinks += [(theta_a - a) / slope, (-theta_a - a) / slope]
        edges = sorted({-lim, lim, *(k for k in kinks if -lim < k < lim)})
        acc = 0.0
        for lo, hi in zip(edges[:-1], edges[1:]):
            z = 0.5 * (hi - lo) * _GL_NODES + 0.5 * (hi + lo)
            wq = 0.5 * (hi - lo) * _GL_WEIGHTS
            mean_a = a + slope * z
            if degenerate:
                inner = soft_threshold(mean_a, theta_a) - a
            else:
                inner = _eta_mean(mean_a, cond_sd, theta_a) - a
            outer = soft_threshold(a + z, theta_b) - a
            acc += np.dot(wq, outer * inner * gaussian_pdf(z / tau_b) / tau_b)
        total += w * acc
    return float(total)
