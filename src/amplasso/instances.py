"""Random problem instances: signal, noise, measurement matrix, checks.

Streams for the signal, the noise, and the matrix are split off the seed
independently (SeedSequence spawn keys), so any one field can be regenerated
or held fixed without touching the others.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .scalars import integer_at_least, one_of

ENSEMBLES = ("gaussian", "rademacher")
_FIELD_TAGS = {"x0": 0, "w": 1, "A": 2}


@dataclass
class Instance:
    """One drawn problem y = A x0 + w."""

    A: np.ndarray
    x0: np.ndarray
    w: np.ndarray
    y: np.ndarray
    seed: int
    ensemble: str

    @property
    def n(self):
        return self.A.shape[0]

    @property
    def N(self):
        return self.A.shape[1]


def _stream(seed, field):
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(_FIELD_TAGS[field],)))


def row_count(delta, N):
    """n = round(delta * N), ties to even, the rows of an instance; a ValueError if it is 0."""
    n = int(round(delta * N))
    if n < 1:
        raise ValueError(f"delta*N rounds to {n}; need at least one row")
    return n


def generate(params, N, ensemble, seed):
    """Draw an instance: x0 iid from the prior, w iid N(0, sigma2), A per ensemble.

    n = row_count(delta, N). Deterministic given seed, an integer of at
    least 0; the three fields use independent substreams of the seed.
    """
    one_of(ensemble, ENSEMBLES, "ensemble")
    integer_at_least(N, 2, "N")
    seed = integer_at_least(seed, 0, "seed")
    n = row_count(params.delta, N)
    x0 = _stream(seed, "x0").choice(params.prior.atoms_arr, size=N, p=params.prior.weights_arr)
    w = _stream(seed, "w").normal(0.0, np.sqrt(params.sigma2), n)
    if ensemble == "gaussian":
        A = _stream(seed, "A").normal(0.0, 1.0 / np.sqrt(n), (n, N))
    else:
        A = (_stream(seed, "A").integers(0, 2, (n, N)) * 2.0 - 1.0) / np.sqrt(n)
    y = A @ x0 + w
    return Instance(A=A, x0=x0, w=w, y=y, seed=seed, ensemble=ensemble)


def singular_edge_check(A, delta):
    """Compare the extreme singular values of A to the asymptotic bulk edges.

    The edges are 1/sqrt(delta) + 1 and |1/sqrt(delta) - 1| (absolute value
    so the check also applies to delta > 1). Computed from the eigenvalues
    of the Gram matrix of the smaller dimension. Returns (sigma_max,
    sigma_min_nonzero, passed); the 5% pass threshold is only enforced for
    N >= 1000, smaller matrices report values without a verdict.
    """
    n, N = A.shape
    eigs = np.linalg.eigvalsh(A @ A.T if n <= N else A.T @ A)
    smax, smin = float(np.sqrt(eigs[-1])), float(np.sqrt(max(eigs[0], 0.0)))
    edge_hi = 1.0 / np.sqrt(delta) + 1.0
    edge_lo = abs(1.0 / np.sqrt(delta) - 1.0)
    if N < 1000:
        passed = True
    else:
        ok_hi = abs(smax - edge_hi) <= 0.05 * edge_hi
        ok_lo = edge_lo == 0.0 or abs(smin - edge_lo) <= 0.05 * edge_lo
        passed = bool(ok_hi and ok_lo)
    return smax, smin, passed

