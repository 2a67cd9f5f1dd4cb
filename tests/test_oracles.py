"""Exact-law and fitter tests.

Frozen decimals below were generated with an independent 50-digit mpmath
implementation of the same closed forms (tests/closed_form_oracle.py).
"""

import numpy as np
import pytest

from centroflow.oracles import (
    EllipsoidSpec,
    best_fit_ellipsoid,
    exact_ellipsoid_factor,
    exact_sphere_radius,
    self_similar_residual,
)
from centroflow.support import SupportField, ellipsoid_support, fourier_support


class TestExactLaws:
    def test_sphere_law_values(self):
        # R(t) = R0^(e^(2t)) for curves; R0=2, t=ln2/2 gives 2^2 = 4
        t = 0.5 * np.log(2.0)
        assert exact_sphere_radius(2.0, t, 1) == pytest.approx(4.0, abs=1e-14)
        assert exact_sphere_radius(0.5, t, 1) == pytest.approx(0.25, abs=1e-14)
        assert exact_sphere_radius(1.0, 7.0, 2) == 1.0

    def test_ellipsoid_factor_values(self):
        # rho0 = 2^(2/3) (the a=2,b=1 ellipse), t = ln2/2: factor = sqrt(2)
        rho0 = 2.0 ** (2.0 / 3.0)
        t = 0.5 * np.log(2.0)
        assert exact_ellipsoid_factor(rho0, t, 1) == pytest.approx(
            np.sqrt(2.0), abs=1e-14)
        assert exact_ellipsoid_factor(rho0, 0.0, 1) == 1.0

    def test_sphere_is_special_ellipsoid(self):
        # for a sphere rho0 = R0^(2(n+1)/(n+2)); the ellipsoid factor times R0
        # must reproduce the sphere law
        for n in (1, 2):
            R0, t = 1.3, 0.4
            rho0 = R0 ** (2.0 * (n + 1) / (n + 2))
            lhs = R0 * exact_ellipsoid_factor(rho0, t, n)
            assert lhs == pytest.approx(exact_sphere_radius(R0, t, n), rel=1e-13)

    def test_vectorized_over_time(self):
        ts = np.linspace(0.0, 0.5, 7)
        rs = exact_sphere_radius(1.5, ts, 1)
        assert rs.shape == ts.shape
        assert rs[0] == 1.5
        fs = exact_ellipsoid_factor(1.7, ts, 2)
        assert fs[0] == 1.0
        assert np.all(np.diff(fs) > 0)
        # a scalar t gives a scalar (a float), the entry of the array t
        for k, t in enumerate(ts):
            r, f = exact_sphere_radius(1.5, t, 1), exact_ellipsoid_factor(1.7, float(t), 2)
            assert np.shape(r) == np.shape(f) == ()
            assert isinstance(r, float) and isinstance(f, float)
            assert r == rs[k] and f == fs[k]

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            exact_sphere_radius(0.0, 0.1, 1)
        with pytest.raises(ValueError):
            exact_ellipsoid_factor(-1.0, 0.1, 1)


class TestSelfSimilarResidual:
    def test_special_radius_exact(self):
        # R = e^(-1/2) satisfies e^(-2/3) K^(1/3) = s for curves (K = 1/R)
        R = np.exp(-0.5)
        s = np.full(64, R)
        K = np.full(64, 1.0 / R)
        assert self_similar_residual(s, K, 1) < 1e-12

    def test_unit_circle_value(self):
        # unit circle: residual = 1 - e^(-2/3) = 0.4865828809674080
        s = np.ones(64)
        got = self_similar_residual(s, s, 1)
        assert got == pytest.approx(0.4865828809674080, abs=1e-12)

    def test_n2_special_radius(self):
        # n=2: e^(-1) K^(1/4) = s holds at R = e^(-2/3) (K = 1/R^2)
        R = np.exp(-2.0 / 3.0)
        s = np.full((6, 5, 5), R)
        K = np.full((6, 5, 5), 1.0 / R ** 2)
        assert self_similar_residual(s, K, 2) < 1e-12


class TestEllipsoidSpec:
    def test_axes_and_rho0(self):
        spec = EllipsoidSpec(np.diag([4.0, 1.0]))
        assert np.allclose(sorted(spec.semi_axes), [1.0, 2.0])
        assert spec.rho0 == pytest.approx(2.0 ** (2.0 / 3.0), abs=1e-14)

    def test_symmetrizes(self):
        spec = EllipsoidSpec([[1.0, 0.2], [0.0, 1.0]])
        assert np.allclose(spec.Q, [[1.0, 0.1], [0.1, 1.0]])

    def test_n2_rho0(self):
        spec = EllipsoidSpec(np.diag([4.0, 1.0, 1.0]))
        assert spec.rho0 == pytest.approx(np.sqrt(2.0), abs=1e-14)


class TestBestFit:
    def test_recovers_ellipse(self, circle192):
        Q = np.array([[2.5, 0.4], [0.4, 1.2]])
        f = ellipsoid_support(circle192, Q)
        spec, roundness = best_fit_ellipsoid(f)
        assert np.max(np.abs(spec.Q - Q)) < 1e-10
        assert roundness < 1e-10
        assert not spec.degenerate

    def test_recovers_ellipsoid(self, sphere17):
        Q = np.diag([4.0, 1.0, 1.0])
        f = ellipsoid_support(sphere17, Q)
        spec, roundness = best_fit_ellipsoid(f)
        assert np.max(np.abs(spec.Q - Q)) < 1e-8
        assert roundness < 1e-8

    def test_flower_roundness_positive(self, flower256):
        spec, roundness = best_fit_ellipsoid(flower256)
        # cos(3 theta) is orthogonal to every quadratic: fit returns a circle
        assert np.max(np.abs(spec.Q - spec.Q[0, 0] * np.eye(2))) < 1e-8
        assert roundness > 0.01

    def test_degenerate_flag(self, circle64):
        # s = |cos|^3: best quadratic fit of cos^6 has a negative sin^2
        # coefficient (-5/32), so the fitted Q leaves the SPD cone and the
        # fitter clamps and flags instead of raising
        s = np.abs(np.cos(circle64.thetas)) ** 3 + 1e-6
        f = SupportField(circle64, s=s)
        spec, _ = best_fit_ellipsoid(f)
        assert spec.degenerate

    @pytest.mark.parametrize("grid", ["circle64", "sphere17"])
    def test_batch_fits_each_snapshot_alone(self, request, grid):
        # a degenerate column beside two round ones: specs and roundness per
        # column, bit for bit those of single fits
        g = request.getfixturevalue(grid)
        p = g.nodes
        cols = [np.sqrt(np.einsum("...i,ij,...j->...", p, np.diag(d), p))
                for d in ([2.0, 1.0, 1.5][:g.n + 1], [1.0, 3.0, 1.0][:g.n + 1])]
        cols.insert(1, np.abs(p[..., 0]) ** 3 + 1e-6)
        block, roundness = best_fit_ellipsoid(SupportField(g, s=np.stack(cols, axis=-1)))
        dim = g.n + 1
        assert block.Q.shape == (dim, dim, 3) and block.semi_axes.shape == (dim, 3)
        assert roundness.shape == block.degenerate.shape == block.rho0.shape == (3,)
        for k, s in enumerate(cols):
            spec, r = best_fit_ellipsoid(SupportField(g, s=s))
            assert spec.Q.shape == (dim, dim) and spec.semi_axes.shape == (dim,)
            assert np.shape(r) == np.shape(spec.degenerate) == np.shape(spec.rho0) == ()
            assert isinstance(r, float) and isinstance(spec.rho0, float)
            assert np.array_equal(block.Q[..., k], spec.Q) and roundness[k] == r
            assert block.degenerate[k] == spec.degenerate == (k == 1)
            assert np.array_equal(block.semi_axes[:, k], spec.semi_axes)
            assert block.rho0[k] == spec.rho0
