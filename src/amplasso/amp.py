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
Each row keeps its own thresholds, stop test and diagnostics, and leaves
the stack when it stops or fails. A row's sums inside a shared product run
in another order than they would alone, so its iterates can depend on the
stack's other rows within rounding (a few 1e-15). run_amp is the one-row
case, whose products are matrix-vector products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConsistencyError, DivergenceError
from .scalars import soft_threshold
from .state_evolution import invert_calibration, se_map

_SIGN_SLACK = 1e-12
# the near-boundary set handed to run_amp's active_mask_sink: coordinates
# whose boundary value |(pre - x)/theta| is at least 1 - _ACTIVE_GAMMA
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

    Raises:
        ValueError: dimension mismatch or nonpositive threshold.
        DivergenceError: non-finite values appear (carries the iteration
            and, for a stack, the rows that diverged).
    """
    n, N = A.shape
    x, z = state.x, state.z
    th = np.asarray(theta, dtype=float)
    if (x.shape[-1] != N or z.shape[-1] != n or y.shape[0] != n
            or z.shape[:-1] != x.shape[:-1] or th.shape != x.shape[:-1]):
        raise ValueError(f"dimension mismatch: A {A.shape}, x {x.shape}, z {z.shape}, "
                         f"y {y.shape}, theta {th.shape}")
    if (th <= 0).any():
        raise ValueError(f"theta must be positive, got {theta}")
    th = th[..., None]
    with np.errstate(over="ignore", invalid="ignore"):
        pre = z @ A + x
        x_new = soft_threshold(pre, th)
        onsager = np.count_nonzero(np.abs(pre) > th, axis=-1) / n
        z_new = y - x_new @ A.T + onsager[..., None] * z
    finite = np.isfinite(x_new).all(axis=-1) & np.isfinite(z_new).all(axis=-1)
    if not finite.all():
        t = state.t + 1
        if x.ndim == 1:
            raise DivergenceError(f"non-finite iterate at t={t}", t=t)
        rows = np.flatnonzero(~finite).tolist()
        raise DivergenceError(f"non-finite iterate at t={t} in rows {rows}", t=t, rows=rows)
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


def _boundary_coords(pre, x_new, theta):
    """v = (pre - x)/theta; +-1 exactly on the support, inside (-1,1) off it."""
    v = (pre - x_new) / theta
    excess = float(np.max(np.abs(v))) - 1.0
    if excess > _SIGN_SLACK:
        raise ConsistencyError(f"subgradient entry exceeds 1 by {excess:.3e}")
    return v


def _subgradient_norm(pending, atz):
    """N^{-1/2} ||lam v - (A^T z - onsager A^T z_prev)|| of the step that
    `pending` describes, given A^T z of the z that step produced."""
    lam_v, onsager, atz_prev = pending
    sg = lam_v - (atz - onsager * atz_prev)
    return float(np.linalg.norm(sg)) / math.sqrt(lam_v.shape[0])


def _take(state, rows):
    """The stack of the given rows of `state`."""
    if len(rows) == state.x.shape[0]:
        return state
    return AmpState(x=state.x[rows], z=state.z[rows], t=state.t,
                    theta_t=state.theta_t[rows], onsager=state.onsager[rows],
                    pre=None if state.pre is None else state.pre[rows])


def _row(state, i):
    """Row i of a stack as a 1-D state that does not hold on to the stack."""
    return AmpState(x=state.x[i].copy(), z=state.z[i].copy(), t=state.t,
                    theta_t=float(state.theta_t[i]), onsager=float(state.onsager[i]),
                    pre=state.pre[i].copy())


@dataclass
class _Run:
    """One penalty's own part of a stacked run."""

    lam: float
    alpha: float
    sink: dict | None
    tau2: float
    diagnostics: list = field(default_factory=list)
    # lam * v, the onsager coefficient and A^T z_prev of the last step; its
    # subgradient row is finished by the next product with A^T
    pending: tuple | None = None
    # (final AmpState, diagnostics), or the exception that stopped the row
    outcome: object = None


def run_amp_grid(instance, params, lams, alphas, t_max=200, stop_tol=1e-8,
                 threshold_policy="se", active_mask_sinks=None):
    """Run the iteration at every penalty of `lams` on one instance, as one stack.

    Row l is run_amp at lams[l] with threshold ratio alphas[l]: its own
    thresholds, stop test and diagnostics, as run_amp describes them. All
    rows that have not stopped advance together, so a step makes one
    product with A and one with A^T whatever their number. A row leaves the
    stack when it stops, and one stacked product with A^T after the last
    step finishes the subgradient column of every row that stopped: rows
    that stop after t_1, ..., t_L steps cost 2 max_l t_l + 1 products.

    A row that raises DivergenceError or ConsistencyError leaves the stack
    with its exception, and the other rows go on; a divergence repeats its
    step for the other rows (two more products).

    active_mask_sinks, if given, holds one run_amp active_mask_sink (a dict
    or None) per row.

    Returns:
        One entry per penalty, in the order of lams: (final AmpState, list
        of AmpDiagnostics), or the exception that stopped the row.

    Raises:
        ValueError: unknown policy, t_max below 1, an alpha that is not
            finite and positive, or alphas or sinks that do not match lams.
    """
    if threshold_policy not in ("se", "residual"):
        raise ValueError(f"unknown threshold policy {threshold_policy!r}")
    if t_max < 1:
        raise ValueError(f"t_max must be at least 1, got {t_max}")
    sinks = [None] * len(lams) if active_mask_sinks is None else list(active_mask_sinks)
    if not len(alphas) == len(sinks) == len(lams):
        raise ValueError(f"{len(lams)} penalties, {len(alphas)} alphas and {len(sinks)} sinks")
    for alpha in alphas:
        if not (math.isfinite(alpha) and alpha > 0):
            raise ValueError(f"alpha must be finite and positive, got {alpha}")
    A, y, x0 = instance.A, instance.y, instance.x0
    n, N = A.shape

    # the SE sequence advances with the iterates, so a row that stops early
    # computes only the values it uses
    runs = [_Run(lam, alpha, sink, params.tau2_init)
            for lam, alpha, sink in zip(lams, alphas, sinks)]
    live = list(runs)  # row i of the stack is the run live[i]
    state = initial_state(y, N, rows=len(live))
    stopped = []  # (run, final state), waiting for the closing product
    while live:
        if threshold_policy == "se":
            theta = np.array([r.alpha * math.sqrt(r.tau2) for r in live])
        elif state.t == 0:
            scale = float(np.linalg.norm(y))
            theta = np.array([r.alpha * scale / math.sqrt(n) for r in live])
        else:
            theta = np.array([r.lam for r in live]) + state.onsager * state.theta_t
        try:
            new = amp_step(state, A, y, theta)
        except DivergenceError as exc:
            for i in exc.rows:
                live[i].outcome = DivergenceError(f"non-finite iterate at t={exc.t}", t=exc.t)
            keep = [i for i in range(len(live)) if i not in exc.rows]
            live, state = [live[i] for i in keep], _take(state, keep)
            continue
        atz_prev = new.pre - state.x  # A^T z of the consumed states

        keep = []
        for i, run in enumerate(live):
            if run.pending is not None:
                run.diagnostics[-1].subgradient_norm = _subgradient_norm(run.pending, atz_prev[i])
            try:
                v = _boundary_coords(new.pre[i], new.x[i], theta[i])
            except ConsistencyError as exc:
                run.outcome = exc
                continue
            mask = np.abs(v) >= 1.0 - _ACTIVE_GAMMA
            if run.sink is not None:
                run.sink[new.t] = mask
            tau2_next = se_map(params, run.tau2, run.alpha * math.sqrt(run.tau2))
            delta_x = float(np.linalg.norm(new.x[i] - state.x[i])) / math.sqrt(N)
            run.diagnostics.append(AmpDiagnostics(
                t=new.t,
                theta=float(theta[i]),
                tau2_se=tau2_next,
                z_norm2_over_n=float(np.dot(new.z[i], new.z[i])) / n,
                mse_vs_x0=float(np.mean((new.x[i] - x0) ** 2)),
                delta_x_norm=delta_x,
                subgradient_norm=float("nan"),
                active_set_size=int(np.count_nonzero(mask)),
            ))
            # a copy, so that a stopped row does not hold on to the whole stack
            run.pending = (run.lam * v, float(new.onsager[i]), atz_prev[i].copy())
            run.tau2 = tau2_next
            if delta_x <= stop_tol or new.t == t_max:
                stopped.append((run, _row(new, i)))
            else:
                keep.append(i)
        live, state = [live[i] for i in keep], _take(new, keep)

    if stopped:
        atz = np.array([final.z for _, final in stopped]) @ A
        for (run, final), atz_row in zip(stopped, atz):
            run.diagnostics[-1].subgradient_norm = _subgradient_norm(run.pending, atz_row)
            run.outcome = (final, run.diagnostics)
    return [run.outcome for run in runs]


def run_amp(instance, params, lam, t_max=200, stop_tol=1e-8,
            threshold_policy="se", active_mask_sink=None, alpha=None):
    """Run the iteration with thresholds theta_t = alpha * tau_t.

    alpha is invert_calibration(lam), computed here unless the caller passes
    it (a sweep holds it from predicted_risk already); tau_t is the SE
    sequence by default (threshold_policy="se"). threshold_policy="residual"
    takes the first threshold from the residual scale, theta_0 = alpha * ||y||/sqrt(n),
    and then sets theta_t = lam + b_{t-1} * theta_{t-1}, where b_{t-1} is the
    previous step's Onsager coefficient (active count / n). At a fixed point
    with a stable support this gives theta * (1 - b) = lam exactly, so the
    fixed point is the exact LASSO minimiser at lam on the drawn instance
    (the residual scale alone would stop at the minimiser for the effective
    penalty theta * (1 - b), which differs from lam by O(N^{-1/2})). The
    asymptotic theory is proved for the SE policy only; the residual variant
    is the choice when comparing against the per-instance optimum. Stops at
    t_max or when ||x_new - x|| / sqrt(N)
    drops to stop_tol. The subgradient column is produced with no extra
    matrix products by reusing each step's A^T z (one extra product at the
    final iterate only), so a run of t steps makes 2t + 1 products.

    If active_mask_sink is a dict it receives {t: boolean mask} of the
    near-boundary set at every iteration: the coordinates whose boundary
    value |(pre - x)/theta| is at least 1 - _ACTIVE_GAMMA (0.9). The value
    is exactly 1 on the support, so the set always contains it.

    This is the one-row case of run_amp_grid, which runs several penalties
    on one instance together.

    Returns:
        (final AmpState, list of AmpDiagnostics, one entry per step).

    Raises:
        DivergenceError: a non-finite iterate.
        ConsistencyError: a boundary coordinate exceeds 1 in magnitude.
    """
    if alpha is None:
        alpha = invert_calibration(params, lam)
    (outcome,) = run_amp_grid(instance, params, [lam], [alpha], t_max, stop_tol,
                              threshold_policy, [active_mask_sink])
    if isinstance(outcome, Exception):
        raise outcome
    return outcome
