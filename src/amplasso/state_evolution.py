"""State evolution: the scalar recursion tracking AMP's effective noise.

Contains the one-dimensional map; its sequence from tau2_init, one memoised
list per (params, alpha) that fixed_point, every AMP run and the two-time
recursion extend and read, so a run at a calibrated alpha reads the steps
its calibration computed; the admissibility boundary alpha_min(delta), the
penalty/threshold calibration in both directions, the asymptotic risk
prediction, and the two-time covariance recursion used for convergence
diagnostics. fixed_point returns the number tau*^2 and two_time_recursion
its table R: the memo is the one trajectory.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, ConvergenceError
from .scalars import (
    Prior,
    _ndtr,
    cross_mse_functional,
    eta_prime_expectation,
    eta_times_signal_expectation,
    _gaussian_terms,
    gaussian_pdf,
    integer_at_least,
    l1_expectation,
    mse_functional,
    positive_float,
)

_FP_REL_TOL = 1e-12
_FP_MAX_ITER = 100_000
_ALPHA_CAP = 1e6
_ROOT_XTOL = 1e-15
_ROOT_RTOL = 8.9e-16
_ROOT_MAX_ITER = 100


@dataclass(frozen=True)
class SEParams:
    """Problem parameters: aspect ratio delta = n/N, noise variance, prior."""

    delta: float
    sigma2: float
    prior: Prior

    def __post_init__(self):
        for name in ("delta", "sigma2"):
            object.__setattr__(self, name, positive_float(getattr(self, name), name))
        if not isinstance(self.prior, Prior):
            raise ValueError("prior must be a Prior instance")

    @property
    def tau2_init(self):
        """Starting point of the recursion: sigma^2 + E{X0^2}/delta."""
        return self.sigma2 + self.prior.second_moment / self.delta


def se_map(params, tau2, theta):
    """F(tau^2, theta) = sigma^2 + E{[eta(X0 + tau Z; theta) - X0]^2} / delta."""
    positive_float(tau2, "tau2")
    return params.sigma2 + mse_functional(params.prior, float(np.sqrt(tau2)), theta) / params.delta


@functools.lru_cache
def _se_memo(params, alpha):
    """The list se_sequence and fixed_point extend at (params, alpha): one
    per pair, the 128 most recently used."""
    return [params.tau2_init]


def _extend(params, alpha, seq, T):
    """Append tau_{t+1}^2 = F(tau_t^2, alpha tau_t) to seq until it holds tau_T^2."""
    while len(seq) <= T:
        seq.append(se_map(params, seq[-1], alpha * np.sqrt(seq[-1])))


def se_sequence(params, alpha, T):
    """[tau_0^2, ..., tau_T^2] of tau_{t+1}^2 = F(tau_t^2, alpha tau_t) from tau2_init.

    The sequence depends on (params, alpha) alone, so every run at the same
    pair, on any instance and at any N, reads one memo of it, extended only
    as far as the longest caller has asked. Returns a new list each call.

    Raises:
        ValueError: alpha not finite and positive, or T not an integer >= 0.
    """
    positive_float(alpha, "alpha")
    integer_at_least(T, 0, "T")
    seq = _se_memo(params, alpha)
    _extend(params, alpha, seq, T)
    return seq[:T + 1]


def _brent_root(f, a, b):
    """A root of f in the bracket [a, b] by Brent's method (Brent 1973, ch. 4).

    Each step takes an inverse quadratic interpolation through the last
    three points (a secant step when two of them coincide) if it is short
    enough to be trusted, else a bisection; the root is held between the
    current point and a "blk" point of opposite sign. Stops when f is 0 or
    the bracket's half width falls below (1e-15 + 8.9e-16 |x|) / 2, and
    returns the point of smaller |f|, one the search has evaluated.

    Raises:
        ValueError: f(a) and f(b) have the same sign.
        ConvergenceError: no convergence in 100 steps.
    """
    xpre, xcur = float(a), float(b)
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError(f"f({a}) = {fpre} and f({b}) = {fcur} do not bracket a root")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_ROOT_MAX_ITER):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        tol = 0.5 * (_ROOT_XTOL + _ROOT_RTOL * abs(xcur))
        sbis = 0.5 * (xblk - xcur)
        if fcur == 0.0 or abs(sbis) < tol:
            return float(xcur)
        if abs(spre) > tol and abs(fcur) < abs(fpre):
            if xpre == xblk:
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - tol):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > tol else math.copysign(tol, sbis)
        fcur = f(xcur)
    raise ConvergenceError(f"Brent's method did not converge in {_ROOT_MAX_ITER} steps on [{a}, {b}]")


def _edge_gap(alpha, delta):
    """(1 + a^2) Phi(-a) - a phi(a) - delta/2, the root function of alpha_min."""
    return (1.0 + alpha * alpha) * _ndtr(-alpha) - alpha * gaussian_pdf(alpha) - 0.5 * delta


@functools.lru_cache
def alpha_min(delta):
    """Smallest admissible threshold ratio for a given aspect ratio.

    Root of (1 + a^2) Phi(-a) - a phi(a) = delta/2. The left side equals 1/2
    at a = 0 and decreases strictly to 0, so a nonnegative root exists only
    for delta < 1; for delta >= 1 every positive ratio is admissible and 0
    is returned. The root is cached per delta (the 128 most recent): every
    fixed point of a calibration checks its alpha against it.
    """
    positive_float(delta, "delta")
    if _edge_gap(0.0, delta) <= 0.0:
        return 0.0
    hi = 1.0
    while _edge_gap(hi, delta) > 0.0:
        hi *= 2.0
    return _brent_root(lambda alpha: _edge_gap(alpha, delta), 0.0, hi)


def _check_alpha(params, alpha):
    """alpha must be finite and above alpha_min(delta), where the fixed point exists."""
    amin = alpha_min(params.delta)
    if not amin < alpha < math.inf:
        raise ValueError(f"alpha must be finite and exceed alpha_min={amin:.6g}, got {alpha}; "
                         "fixed point may not exist")


def fixed_point(params, alpha):
    """tau*^2, the fixed point of the monotone map tau^2 -> F(tau^2, alpha tau).

    Plain iteration from sigma^2 + E{X0^2}/delta, extending se_sequence's
    memo, until successive iterates agree to 1e-12 relative AND the residual
    |tau*^2 - F(tau*^2)| clears 1e-10 (tightened by 1/delta so the risk
    identity downstream holds at the same tolerance). Monotonicity of the
    iterates is asserted; the iteration cap is 1e5. The iterates themselves
    are se_sequence(params, alpha, T) for any T.

    Raises:
        ValueError: alpha not finite and above alpha_min(delta) (NaN
            included; below it the fixed point may not exist).
        ConvergenceError: iteration cap reached.
    """
    _check_alpha(params, alpha)
    seq = _se_memo(params, alpha)
    residual_tol = 1e-10 / max(1.0, params.delta)
    for t in range(1, _FP_MAX_ITER + 1):
        _extend(params, alpha, seq, t + 1)
        prev, cur, after = seq[t - 1:t + 2]
        if abs(cur - prev) <= _FP_REL_TOL * max(1.0, abs(prev)) and abs(after - cur) <= residual_tol:
            _assert_monotone(seq[:t + 1])
            return cur
    raise ConvergenceError(
        f"state-evolution fixed point did not converge in {_FP_MAX_ITER} iterations (alpha={alpha})")


def _assert_monotone(seq):
    arr = np.asarray(seq)
    d = np.diff(arr)
    slack = 1e-9 * max(1.0, float(arr.max()))
    if (d > slack).any() and (d < -slack).any():
        raise ConsistencyError("state-evolution trajectory is not monotone")


def se_derivative(params, tau2, alpha):
    """Total derivative dF/dtau^2 along the ray theta = alpha tau, closed form.

    Per atom a, with u = (a - alpha tau)/tau = -c+ and v = (-a - alpha tau)/tau
    = -d of the kernel scalars._gaussian_terms at theta = alpha tau:

        delta * dF/dtau^2 = (1 + alpha^2) [Phi(u) + Phi(v)]
                            - [(a/tau + alpha) phi(u) - (a/tau - alpha) phi(v)]

    As tau^2 -> infinity this tends to (2/delta)[(1+alpha^2)Phi(-alpha)
    - alpha phi(alpha)], the quantity defining alpha_min.
    """
    positive_float(tau2, "tau2")
    positive_float(alpha, "alpha")
    tau = np.sqrt(tau2)
    a = params.prior.atoms_arr
    _, _, tail_cp, tail_d, pdf_cp, pdf_d = _gaussian_terms(a, tau, alpha * tau)
    per_atom = (1.0 + alpha * alpha) * (tail_cp + tail_d) - (
        (a / tau + alpha) * pdf_cp - (a / tau - alpha) * pdf_d
    )
    return float(np.dot(params.prior.weights_arr, per_atom)) / params.delta


def calibrate_lambda(params, alpha):
    """Penalty corresponding to a threshold ratio:

    lambda(alpha) = alpha tau* [1 - E{eta'(X0 + tau* Z; alpha tau*)} / delta]

    with tau* the fixed point at this alpha. Can be negative near alpha_min.
    """
    tau = np.sqrt(fixed_point(params, alpha))
    theta = alpha * tau
    return float(theta * (1.0 - eta_prime_expectation(params.prior, tau, theta) / params.delta))


def invert_calibration(params, lam):
    """Threshold ratio alpha solving calibrate_lambda(alpha) = lam, lam > 0.

    One Brent root of calibrate_lambda(alpha) - lam on the bracket
    [alpha_min + d, alpha_min + 2d]: d starts at 1 and doubles while the
    penalty at the upper end is at most lam, or halves while the penalty at
    the lower end exceeds it. Halving ends because the calibration map
    diverges to -infinity at alpha_min+. Both ends are points the search
    has already evaluated, so no fixed point is solved closer to the
    critical alpha_min than the root requires. Each alpha's sequence is
    computed once: the fixed points at points the search evaluates again
    read se_sequence's memo.

    Raises:
        ValueError: lam not positive and finite.
        ConvergenceError: upper bracket exceeded 1e6 (pathological params).
    """
    positive_float(lam, "lambda")
    amin = alpha_min(params.delta)

    def excess(alpha):
        return calibrate_lambda(params, alpha) - lam

    d = 1.0
    if excess(amin + d) > 0.0:
        d *= 0.5
        while excess(amin + d) > 0.0:
            d *= 0.5
    else:
        while excess(amin + 2.0 * d) <= 0.0:
            d *= 2.0
            if amin + 2.0 * d > _ALPHA_CAP:
                raise ConvergenceError(
                    f"no alpha <= {_ALPHA_CAP:g} reaches lambda={lam}; parameters look pathological"
                )
    return _brent_root(excess, amin + d, amin + 2.0 * d)


@dataclass
class PredictionBundle:
    """Asymptotic per-coordinate predictions at a given penalty."""

    tau2_star: float
    theta_star: float
    alpha: float
    lam: float
    mse_predicted: float
    l1_predicted: float
    sparsity_predicted: float


def predicted_risk(params, lam):
    """Asymptotic MSE and companion observables of the penalized estimate.

    Computes alpha = invert_calibration(lam) and its fixed point tau*^2
    (read from the sequence the calibration computed), and the predicted MSE
    by both available expressions: the direct expectation
    E{[eta(X0 + tau* Z; theta*) - X0]^2} and delta (tau*^2 - sigma^2). The two
    must agree to 1e-10 (they are the same number by the fixed-point
    equation); the bundle also carries E{|eta|} and E{eta'}.

    Raises:
        ValueError: prior has no nonzero atom (the prediction needs P{X0 != 0} > 0).
        ConsistencyError: the two MSE expressions disagree beyond 1e-10.
    """
    if params.prior.nonzero_mass <= 0.0:
        raise ValueError("predicted_risk requires P{X0 != 0} > 0")
    alpha = invert_calibration(params, lam)
    tau2 = fixed_point(params, alpha)
    tau = float(np.sqrt(tau2))
    theta = alpha * tau
    mse_direct = mse_functional(params.prior, tau, theta)
    mse_identity = params.delta * (tau2 - params.sigma2)
    if abs(mse_direct - mse_identity) > 1e-10:
        raise ConsistencyError(
            f"risk expressions disagree: direct={mse_direct!r} vs identity={mse_identity!r}"
        )
    return PredictionBundle(
        tau2_star=tau2,
        theta_star=theta,
        alpha=alpha,
        lam=lam,
        mse_predicted=mse_direct,
        l1_predicted=l1_expectation(params.prior, tau, theta),
        sparsity_predicted=eta_prime_expectation(params.prior, tau, theta),
    )


def two_time_recursion(params, alpha, T):
    """Covariance table R[s, t] of the effective noises across iterations.

    The diagonal is se_sequence(params, alpha, T), the one-dimensional
    recursion (the equal-time case of the two-time update) shared with AMP
    runs at the same alpha; the first row uses the closed-form boundary

        R[0, t+1] = sigma^2 + (E{X0^2} - E{eta(X0 + Z_t; theta_t) X0}) / delta,

    and the interior uses the cross moment with (Z_s, Z_t) jointly Gaussian
    with covariance R[s, t].

    Raises:
        ValueError: T not a positive integer, or alpha not finite and above
            alpha_min(delta).
        ConsistencyError: the table is not positive semidefinite beyond
            numerical tolerance (exact positive definiteness degrades at
            large T as rows become collinear in exact arithmetic too).
    """
    integer_at_least(T, 1, "T")
    _check_alpha(params, alpha)
    prior, delta = params.prior, params.delta

    tau2 = se_sequence(params, alpha, T)
    taus = np.sqrt(tau2)
    thetas = alpha * taus

    R = np.diag(tau2)
    ex2 = prior.second_moment
    for t in range(T):
        cross0 = ex2 - eta_times_signal_expectation(prior, taus[t], thetas[t])
        R[0, t + 1] = R[t + 1, 0] = params.sigma2 + cross0 / delta
    for t in range(1, T):
        for s in range(1, t + 1):
            c = cross_mse_functional(prior, taus[s - 1], taus[t], R[s - 1, t], thetas[s - 1], thetas[t])
            R[s, t + 1] = R[t + 1, s] = params.sigma2 + c / delta

    eigs = np.linalg.eigvalsh(R)
    if eigs[0] < -1e-8 * float(R.diagonal().max()):
        raise ConsistencyError(f"two-time covariance has eigenvalue {eigs[0]:.3e} < 0 beyond tolerance")
    return R
