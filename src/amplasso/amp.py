"""The message-passing iteration and its convergence diagnostics.

One step, from (x, z):

    x_new = eta(A^T z + x; theta)
    z_new = y - A x_new + (count of active entries / n) * z

The scalar multiplying z is the memory (Onsager) correction; it is what
keeps the effective noise of A^T z + x Gaussian and makes the scalar
recursion in state_evolution track the iterates.
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
    """Iterate at time t.

    theta_t is the threshold applied by the step that produced x (nan at
    t=0, where no step has run); pre is the pre-threshold vector
    A^T z_prev + x_prev that x was cut from, kept so the optimality
    diagnostics need no extra matrix products.
    """

    x: np.ndarray
    z: np.ndarray
    t: int
    theta_t: float
    onsager: float
    pre: np.ndarray | None = field(default=None, repr=False)


def initial_state(y, N):
    """The t=0 state: x = 0, z = y (no memory term exists yet)."""
    y = np.asarray(y, dtype=float)
    return AmpState(x=np.zeros(N), z=y.copy(), t=0, theta_t=float("nan"), onsager=0.0)


def amp_step(state, A, y, theta):
    """Advance one iteration with threshold theta.

    Exactly one product with A and one with A^T.

    Raises:
        ValueError: dimension mismatch or nonpositive threshold.
        DivergenceError: non-finite values appear (carries the iteration).
    """
    n, N = A.shape
    if state.x.shape[0] != N or state.z.shape[0] != n or y.shape[0] != n:
        raise ValueError(f"dimension mismatch: A {A.shape}, x {state.x.shape}, z {state.z.shape}, y {y.shape}")
    if theta <= 0:
        raise ValueError(f"theta must be positive, got {theta}")
    with np.errstate(over="ignore", invalid="ignore"):
        pre = A.T @ state.z + state.x
        x_new = soft_threshold(pre, theta)
        onsager = float(np.count_nonzero(np.abs(pre) > theta)) / n
        z_new = y - A @ x_new + onsager * state.z
    if not (np.isfinite(x_new).all() and np.isfinite(z_new).all()):
        raise DivergenceError(f"non-finite iterate at t={state.t + 1}", t=state.t + 1)
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
    final iterate only).

    If active_mask_sink is a dict it receives {t: boolean mask} of the
    near-boundary set at every iteration: the coordinates whose boundary
    value |(pre - x)/theta| is at least 1 - _ACTIVE_GAMMA (0.9). The value
    is exactly 1 on the support, so the set always contains it.

    Returns:
        (final AmpState, list of AmpDiagnostics, one entry per step).
    """
    if threshold_policy not in ("se", "residual"):
        raise ValueError(f"unknown threshold policy {threshold_policy!r}")
    if alpha is None:
        alpha = invert_calibration(params, lam)
    elif not (math.isfinite(alpha) and alpha > 0):
        raise ValueError(f"alpha must be finite and positive, got {alpha}")
    A, y, x0 = instance.A, instance.y, instance.x0
    n, N = A.shape

    # the SE sequence advances with the iterates, so a run that stops early
    # computes only the values it uses
    tau2 = params.tau2_init
    state = initial_state(y, N)
    diagnostics = []
    # carried between steps to finish the previous row's subgradient:
    # lam * v - (A^T z - onsager * A^T z_prev), where A^T z is read off the
    # NEXT step's pre-threshold vector
    pending = None

    for t in range(t_max):
        tau2_next = se_map(params, tau2, alpha * math.sqrt(tau2))
        if threshold_policy == "se":
            theta = alpha * math.sqrt(tau2)
        elif t == 0:
            theta = alpha * float(np.linalg.norm(state.z)) / math.sqrt(n)
        else:
            theta = lam + state.onsager * state.theta_t
        new = amp_step(state, A, y, theta)
        atz_prev = new.pre - state.x  # A^T z of the consumed state
        if pending is not None:
            sg = pending["lam_v"] - (atz_prev - pending["onsager"] * pending["atz_prev"])
            diagnostics[-1].subgradient_norm = float(np.linalg.norm(sg)) / math.sqrt(N)

        v = _boundary_coords(new.pre, new.x, theta)
        mask = np.abs(v) >= 1.0 - _ACTIVE_GAMMA
        if active_mask_sink is not None:
            active_mask_sink[new.t] = mask
        delta_x = float(np.linalg.norm(new.x - state.x)) / math.sqrt(N)
        diagnostics.append(AmpDiagnostics(
            t=new.t,
            theta=theta,
            tau2_se=tau2_next,
            z_norm2_over_n=float(np.dot(new.z, new.z)) / n,
            mse_vs_x0=float(np.mean((new.x - x0) ** 2)),
            delta_x_norm=delta_x,
            subgradient_norm=float("nan"),
            active_set_size=int(np.count_nonzero(mask)),
        ))
        pending = {"lam_v": lam * v, "onsager": new.onsager, "atz_prev": atz_prev}
        state = new
        tau2 = tau2_next
        if delta_x <= stop_tol:
            break

    if pending is not None:
        atz = A.T @ state.z
        sg = pending["lam_v"] - (atz - pending["onsager"] * pending["atz_prev"])
        diagnostics[-1].subgradient_norm = float(np.linalg.norm(sg)) / math.sqrt(N)
    return state, diagnostics
