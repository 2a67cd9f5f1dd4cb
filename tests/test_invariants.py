"""Invariant stack against frozen mpmath values (see closed_form_oracle.py).

Frozen constants come from running the oracle at dps=50; the curve probes sit
on grid nodes of N=192 (theta = 2 pi k / N), the sphere probes on nodes of
M=33. Curve quantities are spectrally accurate; sphere quantities carry
4th-order chart truncation, tolerances sit ~3x above the measured error.
"""

import collections

import numpy as np
import pytest

from centroflow import invariants as inv_mod
from centroflow.grids import CircleGrid
from centroflow.invariants import (
    compute_invariants,
    cross_normal,
    inv_det,
    t2_evolution_rhs,
)
from centroflow.support import SupportField, apply_linear_map, ellipsoid_support, fourier_support
from conftest import random_spd
from reference import rhs

TWO_THIRDS_ROOT2 = 1.5874010519681995  # 2^(2/3)


@pytest.fixture(scope="module")
def flower192():
    return fourier_support(CircleGrid(192), 1.0, a=[0.0, 0.0, 0.1])


@pytest.fixture(scope="module")
def twomode192():
    return fourier_support(CircleGrid(192), 1.0,
                           a=[0.0, 0.08], b=[0.0, 0.0, 0.0, 0.0, 0.02])


class TestCurveProbes:
    # flower 1 + 0.1 cos(3 theta) at theta = pi/6 (node 16) and pi/3 (node 32)
    FLOWER = {
        16: dict(psi=1.0, rho=1.0, norm_T2=0.5625, H=-4.0275, rhs=0.0),
        32: dict(psi=0.7620789513793629, rho=1.0947963592032120,
                 norm_T2=0.0, H=-0.25, rhs=0.1222673030678880),
    }
    # 1 + 0.08 cos(2 th) + 0.02 sin(5 th) at theta = 2 pi 10/192 (node 10)
    TWOMODE = dict(s=1.0834254456880709, psi=2.3783181769579001,
                   rho=0.7491636236479137, norm_T2=0.9392532007824262,
                   H=55.354544909393413, rhs=-0.4693364304512357)

    def test_flower_probes(self, flower192):
        iv = compute_invariants(flower192)
        dsdt = rhs(flower192)
        for k, want in self.FLOWER.items():
            assert iv.psi[k] == pytest.approx(want["psi"], abs=1e-10)
            assert iv.rho[k] == pytest.approx(want["rho"], abs=1e-10)
            assert iv.norm_T2[k] == pytest.approx(want["norm_T2"], abs=1e-8)
            assert iv.H[k] == pytest.approx(want["H"], abs=1e-6)
            assert dsdt[k] == pytest.approx(want["rhs"], abs=1e-10)

    def test_twomode_probe(self, twomode192):
        iv = compute_invariants(twomode192)
        dsdt = rhs(twomode192)
        w = self.TWOMODE
        assert twomode192.s[10] == pytest.approx(w["s"], abs=1e-13)
        assert iv.psi[10] == pytest.approx(w["psi"], abs=1e-9)
        assert iv.rho[10] == pytest.approx(w["rho"], abs=1e-10)
        assert iv.norm_T2[10] == pytest.approx(w["norm_T2"], abs=1e-8)
        # H is two derivative layers deep; slowest spectral tail of the probe set
        assert iv.H[10] == pytest.approx(w["H"], abs=1e-4)
        assert dsdt[10] == pytest.approx(w["rhs"], abs=1e-10)

    def test_flower_integrals(self, flower192):
        iv = compute_invariants(flower192)
        assert iv.area == pytest.approx(6.0562225279116595, abs=1e-12)
        g = flower192.grid
        int_t2 = float(np.sum(iv.norm_T2 * iv.sqrt_det_g * g.weights))
        assert int_t2 == pytest.approx(9.4985248112815346, abs=1e-10)

    def test_twomode_integrals(self, twomode192):
        iv = compute_invariants(twomode192)
        assert iv.area == pytest.approx(6.1891700824476614, abs=1e-12)
        g = twomode192.grid
        int_t2 = float(np.sum(iv.norm_T2 * iv.sqrt_det_g * g.weights))
        assert int_t2 == pytest.approx(6.4819953752059245, abs=1e-10)

    def test_flower_sup_T2_refined(self, flower256):
        iv = compute_invariants(flower256)
        _, sup = flower256.grid.refine_max(iv.norm_T2)
        assert sup == pytest.approx(11.096452538071885, abs=1e-8)

    def test_translated_circle(self, circle256):
        f = SupportField(circle256, s=1.0 + 0.3 * np.cos(circle256.thetas))
        iv = compute_invariants(f)
        assert iv.area == pytest.approx(6.3947794396854556, abs=1e-12)
        int_t2 = float(np.sum(iv.norm_T2 * iv.sqrt_det_g * circle256.weights))
        assert int_t2 == pytest.approx(0.6647106836017176, abs=1e-12)
        _, sup = circle256.refine_max(iv.norm_T2)
        assert sup == pytest.approx(0.2072735936237446, abs=1e-10)
        # a non-centered body is detected by the cubic form
        assert iv.norm_C2.max() > 1e-4

    def test_curve_C2_equals_T2(self, flower192):
        # n=1: the cubic form has a single component, |C|^2 = |T|^2
        iv = compute_invariants(flower192)
        assert np.max(np.abs(iv.norm_C2 - iv.norm_T2)) < 1e-12


class TestEllipsoidInvariance:
    def test_ellipse_psi_rho_constant(self, circle256):
        f = ellipsoid_support(circle256, np.diag([4.0, 1.0]))
        iv = compute_invariants(f)
        # psi = (ab)^{-2}, rho = (ab)^{2/3} for semi-axes a, b
        assert np.max(np.abs(iv.psi - 0.25)) < 1e-11
        assert np.max(np.abs(iv.rho - TWO_THIRDS_ROOT2)) < 1e-11

    def test_random_ellipses_are_T_free(self, circle256, rng):
        for _ in range(5):
            Q = random_spd(rng, 2, cond_max=16.0)
            iv = compute_invariants(ellipsoid_support(circle256, Q))
            assert iv.norm_T2.max() < 1e-12
            assert iv.norm_C2.max() < 1e-12
            assert np.ptp(iv.psi) < 1e-10 * iv.psi.max()

    def test_ellipsoid_surface(self, sphere33):
        f = ellipsoid_support(sphere33, np.diag([4.0, 1.0, 1.0]))
        iv = compute_invariants(f)
        # psi = (a1 a2 a3)^{-2} = 1/4, rho = (a1 a2 a3)^{1/2} = sqrt 2
        assert np.max(np.abs(iv.psi - 0.25)) < 1e-4
        assert np.max(np.abs(iv.rho - np.sqrt(2.0))) < 1e-4
        assert iv.norm_T2.max() < 1e-5
        assert iv.norm_C2.max() < 1e-3
        assert iv.chi[0, 20, 8] == pytest.approx(1.0, abs=1e-9)

    def test_t2_rhs_vanishes_on_ellipse(self, circle256):
        iv = compute_invariants(ellipsoid_support(circle256, np.diag([2.0, 1.0])))
        assert np.max(np.abs(t2_evolution_rhs(iv))) < 1e-10


@pytest.fixture(scope="module")
def xyz33(sphere33):
    return SupportField(sphere33, s=1.0 + 0.3 * np.prod(sphere33.nodes, axis=-1))


class TestSphereProbes:
    # s = 1 + 0.3 xyz at M=33; +z face index 4, node (20, 8) = (0.25, -0.5);
    # +x face index 0, node (24, 18) = (0.5, 0.125)
    PROBES = [
        ((4, 20, 8), dict(s=0.9750608125444580, norm_T2=0.02367759102087139,
                          norm_C2=0.11356570042282977, psi=0.8936808773574103,
                          rho=1.0285002076389992, H=-0.27264755082607565,
                          J=0.05678285021141488, chi=1.0094276681696721,
                          rhs=0.0274008001279655)),
        ((0, 24, 18), dict(s=1.0131687242798354, norm_T2=0.04593472284293046,
                           norm_C2=0.17970941246360146, psi=1.1275463122014017,
                           rho=0.9704348910523206, H=0.04955471635459162,
                           J=0.08985470623180073, chi=0.9979852605459398,
                           rhs=-0.030406172814012639)),
    ]

    def test_probe_values(self, xyz33):
        iv = compute_invariants(xyz33)
        ds = rhs(xyz33)  # s-rate; the u-rate is w times this
        for idx, want in self.PROBES:
            assert xyz33.s[idx] == pytest.approx(want["s"], abs=1e-12)
            assert iv.rho[idx] == pytest.approx(want["rho"], abs=1e-5)
            assert ds[idx] == pytest.approx(want["rhs"], abs=1e-5)
            for q in ("norm_T2", "norm_C2", "psi", "H", "J", "chi"):
                assert getattr(iv, q)[idx] == pytest.approx(want[q], abs=5e-4), q

    def test_structure_identities(self, xyz33):
        iv = compute_invariants(xyz33)
        # J = |C|^2 / 2 and chi = J - 2 |T|^2 + 1 by definition
        assert np.max(np.abs(iv.J - iv.norm_C2 / 2)) < 1e-14
        assert np.max(np.abs(iv.chi - (iv.J - 2 * iv.norm_T2 + 1))) < 1e-14

    def test_gauss_residuals(self, xyz33):
        iv = compute_invariants(xyz33)
        assert float(np.max(iv.residual_gauss_cross)) < 1e-12
        assert float(np.max(iv.residual_C_symmetry)) < 2e-3

    def test_soliton_relation_residuals(self, xyz33):
        # T = -(1/2n) D log psi = ((n+2)/2n) D log rho, discretized
        iv = compute_invariants(xyz33)
        assert iv.residual_psi < 2e-3
        assert iv.residual_rho < 1e-3


class TestEquivariance:
    def test_sl_map_preserves_invariant_sups(self, flower256):
        A = np.array([[1.1, 0.15], [0.05, (1 + 0.15 * 0.05) / 1.1]])
        assert abs(np.linalg.det(A) - 1.0) < 1e-15
        iv = compute_invariants(flower256)
        ivA = compute_invariants(apply_linear_map(flower256, A))
        g = flower256.grid
        for fld, fldA in ((iv.norm_T2, ivA.norm_T2), (iv.norm_C2, ivA.norm_C2)):
            _, sup = g.refine_max(fld)
            _, supA = g.refine_max(fldA)
            assert supA == pytest.approx(sup, abs=5e-6)
        assert ivA.area == pytest.approx(iv.area, abs=1e-10)

    def test_gl_map_psi_covariance(self, flower256):
        # psi(A K at A^{-T} p) (det A)^2 = psi(K at p)
        A = np.array([[1.15, 0.1], [-0.05, 0.9]])
        detA = np.linalg.det(A)
        g = flower256.grid
        iv = compute_invariants(flower256)
        ivA = compute_invariants(apply_linear_map(flower256, A))
        q = g.nodes @ np.linalg.inv(A)
        th_bar = np.arctan2(q[:, 1], q[:, 0])
        psi_pull = g.interpolate(ivA.psi, th_bar) * detA ** 2
        assert np.max(np.abs(psi_pull - iv.psi)) < 1e-8


def _bumpy(grid):
    if grid.n == 1:
        return fourier_support(grid, 1.0, a=[0.05, 0.0, 0.1], b=[0.0, 0.03])
    return SupportField(grid, s=1.0 + 0.1 * np.prod(grid.nodes, axis=-1)
                        + 0.05 * grid.nodes[..., 0] ** 2)


GRIDS = ["circle64", "sphere17"]


class TestKernels:
    """The closed-form kernels against LAPACK on random component-first fields."""

    @pytest.mark.parametrize("k", [1, 2])
    def test_inv_det_matches_linalg(self, rng, k):
        A = rng.standard_normal((500, k, k))
        spd = A @ np.swapaxes(A, -1, -2) + 0.1 * np.eye(k)
        inv, det = inv_det(np.moveaxis(spd, (-2, -1), (0, 1)))
        want_inv = np.linalg.inv(spd)
        want_det = np.linalg.det(spd)
        assert inv.shape == (k, k, 500) and det.shape == (500,)
        np.testing.assert_allclose(np.moveaxis(inv, (0, 1), (-2, -1)), want_inv,
                                   rtol=1e-13, atol=1e-13 * np.abs(want_inv).max())
        np.testing.assert_allclose(det, want_det, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("d", [2, 3])
    def test_bracket_is_column_replaced_det(self, rng, d):
        # frames with columns X_1..X_n, X; [X_1..X_n, Y] = det of the frame
        # whose last column is replaced by Y
        F = rng.standard_normal((500, d, d))
        Y = rng.standard_normal((500, d))
        normal = cross_normal(np.moveaxis(F[..., :d - 1], (-1, -2), (0, 1)),
                              np.empty((d, 500)))
        assert normal.shape == (d, 500)
        got = np.einsum("a...,...a->...", normal, Y)
        F[..., d - 1] = Y
        want = np.linalg.det(F)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.abs(want).max())

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_cubic_form_residual_is_the_full_comparison(self, rng, n, bad):
        # Ghat and Gamma mirrored in (i, j), as the stack builds them; snapshot 1
        # gets a non-finite C^0_00 (at n = 1 no (j, k) pair holds it)
        nodes, B = 40, 3
        Ghat, Gam = (rng.standard_normal((n, n, n, nodes, B)) for _ in range(2))
        Ghat, Gam = Ghat + Ghat.swapaxes(1, 2), Gam + Gam.swapaxes(1, 2)
        gmat = np.zeros((n, n, nodes, B))
        for i in range(n):
            gmat[i, i] = rng.uniform(0.5, 2.0, (nodes, B))
        ginv = np.zeros_like(gmat)
        for i in range(n):
            ginv[i, i] = 1.0 / gmat[i, i]
        Ghat[0, 0, 0, 7, 1] = bad

        def full(C_low):
            # both transpositions over every entry and node (batch axis last);
            # |x - x| is NaN at a NaN or an inf
            axes = (0, 1, 2, 3)
            return np.maximum(np.max(np.abs(C_low - C_low.swapaxes(0, 1)), axis=axes),
                              np.max(np.abs(C_low - C_low.swapaxes(1, 2)), axis=axes))

        with np.errstate(invalid="ignore"):   # inf - inf
            _, C_low, _, sym = inv_mod.cubic_form(Ghat, Gam, gmat, ginv, 1)
            want = full(C_low)
            assert np.isnan(want[1]) and np.isfinite(want[[0, 2]]).all()
            assert np.array_equal(sym, want, equal_nan=True)
            for b in range(B):   # one snapshot, unbatched: a scalar
                _, C_low, _, sym = inv_mod.cubic_form(Ghat[..., b], Gam[..., b],
                                                      gmat[..., b], ginv[..., b], 0)
                assert np.ndim(sym) == 0
                assert np.array_equal(sym, full(C_low[..., None])[0], equal_nan=True)


class TestLayout:
    @pytest.mark.parametrize("grid", GRIDS)
    def test_component_first_shapes(self, request, grid):
        g = request.getfixturevalue(grid)
        f = _bumpy(g)
        iv = compute_invariants(f)
        n, sh = g.n, g.shape
        want = {"g": (n, n), "g_inv": (n, n), "gamma_hat": (n, n, n),
                "gamma": (n, n, n), "C_mixed": (n, n, n), "C_low": (n, n, n),
                "T_low": (n,), "T_up": (n,), "X": (n + 1,), "frame": (n + 1, n + 1),
                # the frame curvature as the grid's to_frame returns it
                "curvature": g.graph_hessian(f.u).shape[:-len(sh)],
                "norm_T2": (), "norm_C2": (), "psi": (), "rho": (), "H": (),
                "det_g": (), "sqrt_det_g": (), "frame_det": (),
                "gauss_K": ()}
        for name, comp in want.items():
            field = getattr(iv, name)
            assert field.shape == comp + sh, name
            assert field.flags.c_contiguous, name
        for name in ("J", "chi"):
            assert (getattr(iv, name) is None) if n == 1 else getattr(iv, name).shape == sh
        # the embedding is the frame's last vector
        assert np.array_equal(iv.X, iv.frame[n])
        # the stack keeps the curvature's spectrum (det, lo, hi), node-shaped
        for got, want in zip(iv.curvature_spectrum, g.spectrum(iv.curvature)):
            assert got.shape == sh and np.array_equal(got, want)
        # the fields index the right components: g^{-1} g = id, T^i = g^{ij} T_j
        eye = np.einsum("ij...,jk...->ik...", iv.g_inv, iv.g)
        assert np.max(np.abs(eye - np.eye(n)[(...,) + (None,) * len(sh)])) < 1e-12
        T_up = np.einsum("ij...,j...->i...", iv.g_inv, iv.T_low)
        assert np.max(np.abs(T_up - iv.T_up)) < 1e-12 * max(1.0, np.abs(iv.T_up).max())


class TestGaussRoutes:
    """The Cramer route is the only one; the reconstruction residual checks it."""

    @pytest.mark.parametrize("grid", GRIDS)
    def test_no_linalg_call(self, request, monkeypatch, grid):
        f = _bumpy(request.getfixturevalue(grid))
        calls = collections.Counter()
        for name in np.linalg.__all__:
            real = getattr(np.linalg, name)
            if callable(real) and not isinstance(real, type):
                monkeypatch.setattr(np.linalg, name, lambda *a, _real=real, _name=name, **kw:
                                    calls.update([_name]) or _real(*a, **kw))
        compute_invariants(f)
        assert not calls

    @pytest.mark.parametrize("grid", GRIDS)
    def test_shifted_gamma_hat_shows_in_residual(self, request, monkeypatch, grid):
        f = _bumpy(request.getfixturevalue(grid))
        assert compute_invariants(f).residual_gauss_cross < 1e-12
        dual_of = inv_mod.frame_dual

        def shifted(cols):
            dual, frame_det = dual_of(cols)
            dual[:-1] -= 1e-8 * dual[-1]   # dual[-1] . X_ij = -g_ij: Ghat moves by 1e-8 g
            return dual, frame_det

        monkeypatch.setattr(inv_mod, "frame_dual", shifted)
        assert compute_invariants(f).residual_gauss_cross > 1e-9

    @pytest.mark.parametrize("n", [1, 2])
    def test_random_frames_match_solve(self, rng, n):
        # well-conditioned frames I + E, |E| <= 0.75: columns X_1..X_n, X
        d, nodes = n + 1, 500
        frame = np.eye(d) + 0.25 * rng.uniform(-1.0, 1.0, (nodes, d, d))
        X_i = np.swapaxes(frame[..., :n], -1, -2)
        X = frame[..., n]
        X_ij = rng.standard_normal((nodes, n, n, d))
        X_ij = X_ij + np.swapaxes(X_ij, 1, 2)
        # component-first, node axis last, as compute_invariants hands them over
        g, Ghat, _, _, residual = inv_mod.gauss_decompose(
            np.moveaxis(X, -1, 0), np.moveaxis(X_i, 0, -1), np.moveaxis(X_ij, 0, -1))
        # reference only: LU on the same frame, right sides indexed by (i, j)
        coef = np.linalg.solve(frame, X_ij.reshape(nodes, n * n, d).swapaxes(-1, -2))
        coef = np.moveaxis(coef.reshape(nodes, d, n, n), 0, -1)
        for got, want in ((g, -coef[n]), (Ghat, coef[:n])):
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        assert residual < 1e-14
