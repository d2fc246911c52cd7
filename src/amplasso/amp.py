"""The message-passing iteration and its convergence diagnostics.

One step, from (x, z):

    x_new = eta(A^T z + x; theta)
    z_new = y - A x_new + (count of active entries / n) * z

The scalar multiplying z is the memory (Onsager) correction; it is what
keeps the effective noise of A^T z + x Gaussian and makes the scalar
recursion in state_evolution track the iterates.

Runs at several penalties on one instance share A and y and nothing else
(each starts at x = 0), so run_amp_grid advances them together as a stack:
row l of X (L x N) and Z (L x n) is the run at the l-th penalty, and a step
makes one product with A and one with A^T, Z @ A and X @ A.T, whatever L.
Each row keeps its own thresholds, stop test and diagnostics. run_amp_grid
is the one place that checks rows: after every step, masks over the whole
stack mark the rows that diverged, left [-1, 1] in a boundary coordinate or
stopped, and those rows leave the stack while the others go on, so a stack
always makes 2 max t + 1 products. A row's sums inside a shared product run
in another order than they would alone, so its iterates can depend on the
stack's other rows within rounding (a few 1e-15). run_amp is the one-row
case, whose products are matrix-vector products.

A step records the statistics of every row in one array (a row per field, a
column per penalty); a row's AmpDiagnostics are built from its column once
it stops, with tau2_se from state_evolution.se_sequence, which every
instance at the same alpha shares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConsistencyError, DivergenceError
from .scalars import integer_at_least, nonnegative_float, one_of, positive_float, soft_threshold
from .state_evolution import invert_calibration, se_sequence

THRESHOLD_POLICIES = ("se", "residual")
_SIGN_SLACK = 1e-12
# active_set_size counts the near-boundary coordinates: those whose
# boundary value |(pre - x)/theta| is at least 1 - _ACTIVE_GAMMA
_ACTIVE_GAMMA = 0.1


@dataclass
class AmpState:
    """Iterate at time t, or a stack of iterates at the same t.

    x and z are 1-D, or stacked with one row per run (L x N and L x n), in
    which case theta_t and onsager hold one entry per row. theta_t is the
    threshold applied by the step that produced x (nan at t=0, where no
    step has run); pre is the pre-threshold vector A^T z_prev + x_prev that
    x was cut from, kept so the optimality diagnostics need no extra matrix
    products.
    """

    x: np.ndarray
    z: np.ndarray
    t: int
    theta_t: float | np.ndarray
    onsager: float | np.ndarray
    pre: np.ndarray | None = field(default=None, repr=False)


def initial_state(y, N, rows=None):
    """The t=0 state: x = 0, z = y (no memory term exists yet); with `rows`,
    a stack of that many of them."""
    y = np.asarray(y, dtype=float)
    if rows is None:
        return AmpState(x=np.zeros(N), z=y.copy(), t=0, theta_t=float("nan"), onsager=0.0)
    return AmpState(x=np.zeros((rows, N)), z=np.tile(y, (rows, 1)), t=0,
                    theta_t=np.full(rows, np.nan), onsager=np.zeros(rows))


def amp_step(state, A, y, theta):
    """Advance one iteration with threshold theta (one per row for a stack).

    Exactly one product with A and one with A^T whatever the number of
    rows: the row forms z @ A and x_new @ A.T. Every reduction runs along
    the last axis, so 1-D iterates with a scalar theta are the one-row case.
    The step does not check its output: a row that overflows comes back
    non-finite as it is, and run_amp_grid checks every row of every step.

    Raises:
        ValueError: dimension mismatch or nonpositive threshold.
    """
    n, N = A.shape
    x, z = state.x, state.z
    th = np.asarray(theta, dtype=float)
    if (x.shape[-1] != N or z.shape[-1] != n or y.shape[0] != n
            or z.shape[:-1] != x.shape[:-1] or th.shape != x.shape[:-1]):
        raise ValueError(f"dimension mismatch: A {A.shape}, x {x.shape}, z {z.shape}, "
                         f"y {y.shape}, theta {th.shape}")
    if not (th > 0).all():
        raise ValueError(f"theta must be positive, got {theta}")
    th = th[..., None]
    with np.errstate(over="ignore", invalid="ignore"):
        pre = z @ A + x
        x_new = soft_threshold(pre, th)
        onsager = np.count_nonzero(np.abs(pre) > th, axis=-1) / n
        z_new = y - x_new @ A.T + onsager[..., None] * z
    return AmpState(x=x_new, z=z_new, t=state.t + 1, theta_t=theta,
                    onsager=onsager, pre=pre)


@dataclass
class AmpDiagnostics:
    """Per-iteration record (row t describes the state after step t)."""

    t: int
    theta: float
    tau2_se: float
    z_norm2_over_n: float
    mse_vs_x0: float
    delta_x_norm: float
    subgradient_norm: float
    active_set_size: int


def _subgradient_norms(lam_v, onsager, atz_prev, atz):
    """N^{-1/2} ||lam v - (A^T z - onsager A^T z_prev)|| per row: the
    subgradient column of the step whose lam v, Onsager coefficients and
    A^T z_prev are given, finished by A^T z of the z that step produced."""
    sg = lam_v - (atz - onsager[:, None] * atz_prev)
    return np.linalg.norm(sg, axis=1) / math.sqrt(lam_v.shape[1])


def _rows(keep, *stacks):
    """Each stack (an AmpState or an array with one row per run) cut to the
    rows that `keep` marks; the stacks themselves when it marks every row."""
    if keep.all():
        return stacks
    return tuple(s[keep] if isinstance(s, np.ndarray) else
                 AmpState(x=s.x[keep], z=s.z[keep], t=s.t, theta_t=s.theta_t[keep],
                          onsager=s.onsager[keep], pre=s.pre[keep])
                 for s in stacks)


def _row(state, i):
    """Row i of a stack as a 1-D state that does not hold on to the stack."""
    return AmpState(x=state.x[i].copy(), z=state.z[i].copy(), t=state.t,
                    theta_t=float(state.theta_t[i]), onsager=float(state.onsager[i]),
                    pre=state.pre[i].copy())


def run_amp_grid(instance, params, lams, alphas, t_max=200, stop_tol=1e-8,
                 threshold_policy="se"):
    """Run the iteration at every penalty of `lams` on one instance, as one stack.

    Row l is run_amp at lams[l] with threshold ratio alphas[l]: its own
    thresholds, stop test and diagnostics, as run_amp describes them. All
    rows that have not stopped advance together, so a step makes one
    product with A and one with A^T whatever their number.

    Every row of every step is checked here, in one place, by masks over
    the whole stack: a row whose iterate is not finite leaves with a
    DivergenceError, one whose boundary coordinates leave [-1, 1] with a
    ConsistencyError, and one that stops with its final state; the other
    rows go on. One stacked product with A^T after the last step finishes
    the subgradient column of every row that stopped, so rows that end
    after t_1, ..., t_L steps cost 2 max_l t_l + 1 products, also when some
    of them fail.

    A step records every row's statistics in one array, a row per field and
    a column per penalty; a stopped row's AmpDiagnostics come from its column.

    Returns:
        One entry per penalty, in the order of lams: (final AmpState, list
        of AmpDiagnostics), or the exception that stopped the row.

    Raises:
        ValueError: unknown policy, t_max not an integer or below 1,
            stop_tol negative or not finite, a penalty or an alpha that is
            not finite and positive, or alphas that do not match lams.
    """
    one_of(threshold_policy, THRESHOLD_POLICIES, "threshold_policy")
    integer_at_least(t_max, 1, "t_max")
    nonnegative_float(stop_tol, "stop_tol")
    if len(alphas) != len(lams):
        raise ValueError(f"{len(lams)} penalties and {len(alphas)} alphas")
    for lam, alpha in zip(lams, alphas):
        positive_float(lam, "lambda")
        positive_float(alpha, "alpha")
    A, y, x0 = instance.A, instance.y, instance.x0
    n, N = A.shape

    # (final AmpState, diagnostics) or the exception that stopped the row
    outcomes = [None] * len(lams)
    # per step, a row each for theta, ||z||^2/n, the MSE vs x0, delta x, the
    # active-set size and the subgradient norm (the next step's product
    # finishes it), and a column per penalty, nan off the stack
    steps = []
    # per row of the stack: its penalty's index, lam and alpha
    live = np.arange(len(lams))
    lam, alpha = np.array(lams, dtype=float), np.array(alphas, dtype=float)
    state = initial_state(y, N, rows=len(lams))
    stopped = []  # (penalty index, final state, lam v, A^T z_prev) per row
    while live.size:
        if threshold_policy == "se":
            theta = alpha * np.sqrt([se_sequence(params, a, state.t)[-1] for a in alpha])
        elif state.t == 0:
            theta = alpha * float(np.linalg.norm(y)) / math.sqrt(n)
        else:
            theta = lam + state.onsager * state.theta_t
        new = amp_step(state, A, y, theta)
        t = new.t
        # rows that diverged run through these statistics too
        with np.errstate(over="ignore", invalid="ignore"):
            atz = new.pre - state.x  # A^T z of the consumed states
            if state.t:
                steps[-1][-1, live] = _subgradient_norms(lam_v, state.onsager, atz_prev, atz)
            steps.append(np.full((6, len(lams)), np.nan))
            v = (new.pre - new.x) / theta[:, None]  # +-1 on the support, inside off it
            abs_v = np.abs(v)
            excess = abs_v.max(axis=1) - 1.0
            finite = np.isfinite(new.x).all(axis=1) & np.isfinite(new.z).all(axis=1)
            consistent = excess <= _SIGN_SLACK
            delta_x = np.linalg.norm(new.x - state.x, axis=1) / math.sqrt(N)
            steps[-1][:-1, live] = (theta, np.einsum("ij,ij->i", new.z, new.z) / n,
                                    np.mean((new.x - x0) ** 2, axis=1), delta_x,
                                    np.count_nonzero(abs_v >= 1.0 - _ACTIVE_GAMMA, axis=1))
            # never on the first step: its threshold comes from alpha, not
            # from lam, so x_1 = 0 = x_0 says nothing about the minimiser
            stop = (delta_x < stop_tol) & (t > 1) | (t == t_max)
        lam_v = lam[:, None] * v
        keep = finite & consistent & ~stop
        for i in np.flatnonzero(~keep):
            k = live[i]
            if not finite[i]:
                outcomes[k] = DivergenceError(f"non-finite iterate at t={t}", t=t)
            elif not consistent[i]:
                outcomes[k] = ConsistencyError(f"subgradient entry exceeds 1 by {excess[i]:.3e}")
            else:
                # copies, so that a stopped row does not hold on to the stack
                stopped.append((k, _row(new, i), lam_v[i].copy(), atz[i].copy()))
        # lam v and A^T z_prev of this step go on with the rows that stay:
        # the next product with A^T finishes their subgradient column
        state, live, lam, alpha, lam_v, atz_prev = _rows(keep, new, live, lam, alpha, lam_v, atz)

    if stopped:
        index, finals, lam_vs, atzs = map(list, zip(*stopped))
        record = np.stack(steps)  # steps x fields x penalties
        record[[f.t - 1 for f in finals], -1, index] = _subgradient_norms(
            np.array(lam_vs), np.array([f.onsager for f in finals]),
            np.array(atzs), np.array([f.z for f in finals]) @ A)
        for k, final in zip(index, finals):
            tau2 = se_sequence(params, alphas[k], final.t)
            outcomes[k] = (final, [AmpDiagnostics(s, theta, tau2[s], z2, mse, dx, sg, int(size))
                                   for s, (theta, z2, mse, dx, size, sg)
                                   in enumerate(record[:final.t, :, k].tolist(), 1)])
    return outcomes


def run_amp(instance, params, lam, t_max=200, stop_tol=1e-8, threshold_policy="se"):
    """Run the iteration with thresholds theta_t = alpha * tau_t.

    alpha is invert_calibration(lam); tau_t is the SE sequence by default
    (threshold_policy="se"). threshold_policy="residual" takes the first
    threshold from the residual scale, theta_0 = alpha * ||y||/sqrt(n), and
    then sets theta_t = lam + b_{t-1} * theta_{t-1}, where b_{t-1} is the
    previous step's Onsager coefficient (active count / n). At a fixed point
    with a stable support this gives theta * (1 - b) = lam exactly, so the
    fixed point is the exact LASSO minimiser at lam on the drawn instance
    (the residual scale alone would stop at the minimiser for the effective
    penalty theta * (1 - b), which differs from lam by O(N^{-1/2})). The
    asymptotic theory is proved for the SE policy only; the residual variant
    is the choice when comparing against the per-instance optimum. Stops at
    t_max, or when ||x_new - x|| / sqrt(N) drops below stop_tol, a finite
    number of at least 0, at any step after the first (the first threshold
    is not matched to lam, so a first step that leaves x = 0 proves
    nothing); stop_tol = 0 runs to t_max, also through an exact plateau.
    The subgradient column is produced with no extra matrix products by
    reusing each step's A^T z (one extra product at the final iterate only),
    so a run of t steps makes 2t + 1 products.

    Diagnostics row t describes the state after step t. Its tau2_se is
    tau_t^2 of state_evolution.se_sequence at alpha under either policy, and
    its active_set_size counts the coordinates whose boundary value
    |(pre - x)/theta| is at least 1 - _ACTIVE_GAMMA (0.9), a set that holds
    the support. amp_step with the recorded thresholds replays the run.

    This is the one-row case of run_amp_grid, which runs several penalties
    on one instance together, each at a threshold ratio its caller gives.

    Returns:
        (final AmpState, list of AmpDiagnostics, one entry per step).

    Raises:
        DivergenceError: a non-finite iterate.
        ConsistencyError: a boundary coordinate exceeds 1 in magnitude.
    """
    (outcome,) = run_amp_grid(instance, params, [lam], [invert_calibration(params, lam)],
                              t_max, stop_tol, threshold_policy)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome
