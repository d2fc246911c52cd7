"""Generator determinism, moment sanity, and spectrum checks."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from amplasso.instances import generate, singular_edge_check
from amplasso.state_evolution import SEParams

from oracles import FIG4


class TestGenerate:
    def test_same_seed_bit_identical(self):
        a = generate(FIG4, 500, "gaussian", 42)
        b = generate(FIG4, 500, "gaussian", 42)
        for f in ("A", "x0", "w", "y"):
            assert np.array_equal(getattr(a, f), getattr(b, f)), f

    def test_distinct_seeds_differ_in_every_field(self):
        a = generate(FIG4, 500, "gaussian", 1)
        b = generate(FIG4, 500, "gaussian", 2)
        for f in ("A", "x0", "w"):
            assert not np.array_equal(getattr(a, f), getattr(b, f)), f

    def test_fields_have_independent_streams(self):
        # the matrix stream changes with the ensemble, signal and noise do not
        g = generate(FIG4, 300, "gaussian", 9)
        r = generate(FIG4, 300, "rademacher", 9)
        assert np.array_equal(g.x0, r.x0)
        assert np.array_equal(g.w, r.w)
        assert not np.array_equal(g.A, r.A)

    def test_shapes_and_aspect(self):
        inst = generate(FIG4, 2000, "gaussian", 0)
        assert inst.N == 2000 and inst.n == 1280
        assert inst.A.shape == (1280, 2000)
        assert_allclose(inst.y, inst.A @ inst.x0 + inst.w)

    def test_rounding_ties_to_even(self):
        p = SEParams(delta=0.5, sigma2=0.1, prior=FIG4.prior)
        assert generate(p, 5, "gaussian", 0).n == 2
        assert generate(p, 7, "gaussian", 0).n == 4

    def test_rademacher_entries(self):
        inst = generate(FIG4, 200, "rademacher", 3)
        vals = np.unique(np.abs(inst.A))
        assert_allclose(vals, [1.0 / np.sqrt(inst.n)])

    def test_signal_moments_at_scale(self):
        inst = generate(FIG4, 2000, "gaussian", 5)
        m2 = np.mean(inst.x0 ** 2)
        # variance of a single x0_i^2 term is p(1-p) with p = 0.128
        se = np.sqrt(0.128 * (1 - 0.128) / 2000)
        assert abs(m2 - 0.128) < 3 * se
        w2 = np.dot(inst.w, inst.w) / inst.n
        se_w = 0.2 * np.sqrt(2.0 / inst.n)
        assert abs(w2 - 0.2) < 3 * se_w

    def test_column_norms_near_one(self):
        for ens in ("gaussian", "rademacher"):
            inst = generate(FIG4, 2000, ens, 6)
            norms = np.linalg.norm(inst.A, axis=0)
            assert norms.max() < 1.1 and norms.min() > 0.9

    def test_invalid_inputs(self):
        for N in (1, 100.0, True):
            with pytest.raises(ValueError, match=r"\bN\b"):
                generate(FIG4, N, "gaussian", 0)
        for seed in (-1, 1.5, True):
            with pytest.raises(ValueError, match=r"\bseed\b"):
                generate(FIG4, 100, "gaussian", seed)
        with pytest.raises(ValueError, match="ensemble"):
            generate(FIG4, 100, "bernoulli", 0)
        with pytest.raises(ValueError, match=r"delta\*N rounds to 0"):
            generate(SEParams(delta=0.2, sigma2=0.2, prior=FIG4.prior), 2, "gaussian", 0)


class TestSingularEdges:
    def test_fig4_scale_inside_tolerance(self):
        for ens in ("gaussian", "rademacher"):
            inst = generate(FIG4, 2000, ens, 7)
            smax, smin, ok = singular_edge_check(inst.A, FIG4.delta)
            assert ok, (ens, smax, smin)
            assert abs(smax - 2.25) / 2.25 < 0.05
            assert abs(smin - 0.25) / 0.25 < 0.05

    def test_small_systems_report_without_enforcing(self):
        # the Gram matrix's eigenvalues give the SVD's extremes on a wide
        # (32 x 50), a tall and a one-row matrix
        wide = generate(FIG4, 50, "gaussian", 8).A
        for A in (wide, wide.T.copy(), np.random.default_rng(8).normal(size=(1, 50))):
            smax, smin, ok = singular_edge_check(A, FIG4.delta)
            assert ok and smin > 0
            sv = np.linalg.svd(A, compute_uv=False)
            assert_allclose([smax, smin], [sv[0], sv[-1]], rtol=1e-12)

