import numpy as np
import pytest

from centroflow.errors import ConfigError, GridError
from centroflow.flow import FlowState, StepControl, evolve, step
from centroflow.grids import CubedSphereGrid
from centroflow.invariants import compute_invariants
from centroflow.io import write_snapshot
from centroflow.support import (
    SupportField,
    apply_linear_map,
    convexity_margin,
    curvature_matrix,
    ellipsoid_support,
    embed,
    fourier_support,
    gradient_norm,
    require_single,
)
from conftest import random_spd
from reference import homogeneity_residual


def _jet(field):
    return field.grid.graph_jet(field.u)


def _embed(field):
    return embed(field, _jet(field))


class TestConstruction:
    def test_ellipse_support_closed_form(self, circle64):
        f = ellipsoid_support(circle64, np.diag([4.0, 1.0]))
        th = circle64.thetas
        want = np.sqrt(4 * np.cos(th) ** 2 + np.sin(th) ** 2)
        assert np.max(np.abs(f.s - want)) < 1e-14

    def test_ellipsoid_rejects_bad_matrices(self, circle64, sphere17):
        with pytest.raises(ConfigError):
            ellipsoid_support(circle64, np.array([[1.0, 0.5], [0.0, 1.0]]))  # asym
        with pytest.raises(ConfigError):
            ellipsoid_support(circle64, np.diag([1.0, -2.0]))  # not SPD
        with pytest.raises(ConfigError):
            ellipsoid_support(sphere17, np.eye(2))  # wrong dim

    def test_fourier_convention(self, circle64):
        # a_k multiplies cos(k theta), b_k multiplies sin(k theta), k = i+1
        f = fourier_support(circle64, 2.0, a=[0.1], b=[0.0, 0.05])
        th = circle64.thetas
        want = 2.0 + 0.1 * np.cos(th) + 0.05 * np.sin(2 * th)
        assert np.max(np.abs(f.s - want)) < 1e-14

    def test_sphere_field_u_s_consistency(self, sphere17):
        g = sphere17
        s = 1.0 + 0.1 * g.nodes[..., 2]
        f = SupportField(g, s=s)
        assert np.allclose(f.u, g.w * s, atol=1e-14)
        f2 = SupportField(g, u=f.u.copy())
        assert np.allclose(f2.s, s, atol=1e-14)


class TestCurvature:
    def test_circle_curvature_radius(self, circle256, flower256):
        # b = s'' + s = 1 - 8 c cos(3 theta) for s = 1 + c cos(3 theta)
        b = curvature_matrix(flower256, _jet(flower256))
        want = 1.0 - 0.8 * np.cos(3 * circle256.thetas)
        assert np.max(np.abs(b - want)) < 1e-10
        assert convexity_margin(flower256) == pytest.approx(0.2, abs=1e-10)

    def test_unit_sphere_curvature_is_identity(self, unit_sphere33):
        b = curvature_matrix(unit_sphere33, _jet(unit_sphere33))
        eye = np.eye(2).reshape(2, 2, 1, 1, 1)   # component-first (2,2,6,M,M)
        assert np.max(np.abs(b - eye)) < 2e-5

    def test_hessian_eigs_closed_form(self, rng):
        m = rng.standard_normal((40, 2, 2))
        m = m + np.swapaxes(m, -1, -2)
        # component-first (2, 2, 40)
        det, lo, hi = CubedSphereGrid.spectrum(m.transpose(1, 2, 0))
        want = np.linalg.eigvalsh(m)
        assert np.max(np.abs(det - np.linalg.det(m))) < 1e-12
        assert np.max(np.abs(lo - want[..., 0])) < 1e-12
        assert np.max(np.abs(hi - want[..., 1])) < 1e-12


class TestGeometry:
    def test_gradient_norm_circle(self, circle256, flower256):
        want = np.abs(-0.3 * np.sin(3 * circle256.thetas))
        assert np.max(np.abs(gradient_norm(flower256, _embed(flower256)) - want)) < 1e-10

    def test_gradient_norm_circle_is_abs_derivative(self, flower256):
        # |X - s p| with X = s p + s' p^perp
        want = np.abs(flower256.grid.deriv(flower256.s, 1))
        assert np.max(np.abs(gradient_norm(flower256, _embed(flower256)) - want)) < 1e-12

    def test_circle_embed_is_s_p_plus_ds_pperp(self, flower256):
        # over the tangent line (y = 0) the graph-chart formula keeps the bits
        # of X = s p + s' p^perp
        g, s = flower256.grid, flower256.s
        p = g.radial
        want = s * p + g.deriv(s, 1) * np.stack([-p[1], p[0]])
        assert np.array_equal(_embed(flower256), want)

    def test_gradient_norm_sphere(self, sphere33):
        g = sphere33
        f = SupportField(g, s=1.0 + 0.3 * g.nodes[..., 2])
        want = 0.3 * np.sqrt(1.0 - g.nodes[..., 2] ** 2)
        assert np.max(np.abs(gradient_norm(f, _embed(f)) - want)) < 1e-5

    def test_embed_lies_on_ellipse(self, circle64):
        Q = np.diag([4.0, 1.0])
        f = ellipsoid_support(circle64, Q)
        X = _embed(f)
        # image points satisfy x^T Q^{-1} x = 1
        r = np.einsum("i...,ij,j...->...", X, np.linalg.inv(Q), X)
        assert np.max(np.abs(r - 1.0)) < 1e-10

    def test_embed_lies_on_ellipsoid(self, sphere33, rng):
        Q = random_spd(rng, 3, cond_max=4.0)
        f = ellipsoid_support(sphere33, Q)
        X = _embed(f)
        r = np.einsum("i...,ij,j...->...", X, np.linalg.inv(Q), X)
        assert np.max(np.abs(r - 1.0)) < 5e-5

    def test_homogeneity_residual(self, sphere17):
        g = sphere17
        f = SupportField(g, s=1.0 + 0.1 * g.nodes[..., 0] ** 2)
        assert homogeneity_residual(f) < 1e-14
        f.s[0, 0, 0] += 1e-3  # break one duplicated corner copy
        assert homogeneity_residual(f) > 1e-4


class TestLinearMaps:
    def test_identity_map_is_noop(self, flower256):
        f2 = apply_linear_map(flower256, np.eye(2))
        assert np.max(np.abs(f2.s - flower256.s)) < 1e-12

    def test_image_of_circle_is_ellipse(self, circle256):
        # A . (unit disc) has support sqrt(p^T A A^T p)
        A = np.array([[1.3, 0.4], [-0.2, 0.9]])
        disc = SupportField(circle256, s=np.ones(circle256.N))
        got = apply_linear_map(disc, A)
        want = ellipsoid_support(circle256, A @ A.T)
        assert np.max(np.abs(got.s - want.s)) < 1e-12

    def test_image_of_sphere_is_ellipsoid(self, sphere33):
        A = np.array([[1.1, 0.15, 0.0], [0.05, 0.95, 0.1], [0.0, -0.1, 1.0]])
        ball = SupportField(sphere33, s=np.ones((6, 33, 33)))
        got = apply_linear_map(ball, A)
        want = ellipsoid_support(sphere33, A @ A.T)
        assert np.max(np.abs(got.s - want.s)) < 1e-9

    def test_rejects_singular_map(self, flower256):
        with pytest.raises(ConfigError):
            apply_linear_map(flower256, np.array([[1.0, 0.0], [1.0, 0.0]]))


def _columns(grid):
    """Three different convex bodies on one grid, as single fields."""
    p = grid.nodes
    return [SupportField(grid, s=1.0 + a * np.prod(p, axis=-1) + 0.02 * k * p[..., 0])
            for k, a in enumerate((0.0, 0.05, 0.1))]


class TestBatchField:
    @pytest.mark.parametrize("grid", ["circle64", "sphere17"])
    def test_columns_equal_single_fields(self, request, grid):
        g = request.getfixturevalue(grid)
        singles = _columns(g)
        batch = SupportField(g, s=np.stack([f.s for f in singles], axis=-1))
        assert batch.batch_shape == (3,) and batch.u.shape == g.shape + (3,)
        for k, f in enumerate(singles):
            # u = w * s per column, bit for bit, and s = u / w back
            assert np.array_equal(batch.u[..., k], f.u)
            assert np.array_equal(batch.s[..., k], f.s)
        assert np.array_equal(batch.min_s(), [f.min_s() for f in singles])
        assert np.array_equal(batch.max_s(), [f.max_s() for f in singles])
        X = _embed(batch)
        b = np.moveaxis(curvature_matrix(batch, _jet(batch)), -1, 0)   # the batch axis is last
        iv = compute_invariants(batch)
        scalars = ("area", "residual_gauss_cross", "residual_C_symmetry",
                   "residual_relsupport")
        for k, f in enumerate(singles):
            assert np.array_equal(X[..., k], _embed(f))
            assert np.array_equal(b[k], curvature_matrix(f, _jet(f)))
            assert np.array_equal(gradient_norm(batch, X)[..., k], gradient_norm(f, _embed(f)))
            # every per-snapshot result has the batch shape: () for one body
            one = compute_invariants(f)
            for name, v in [(n, getattr(one, n)) for n in scalars] + [
                    ("min_s", f.min_s()), ("max_s", f.max_s())]:
                assert np.shape(v) == () and isinstance(v, float), name
            for name in scalars:
                assert getattr(iv, name).shape == (3,), name
                assert getattr(iv, name)[k] == getattr(one, name), name

    @pytest.mark.parametrize("grid", ["circle64", "sphere17"])
    def test_bad_shapes_raise(self, request, grid):
        g = request.getfixturevalue(grid)
        for shape in (g.shape + (2, 2), g.shape + (0,), g.shape[1:], (5,) + g.shape):
            with pytest.raises(GridError):
                SupportField(g, s=np.ones(shape))

    @pytest.mark.parametrize("grid", ["circle64", "sphere17"])
    def test_flow_and_snapshot_writer_refuse_a_batch(self, request, grid, tmp_path):
        g = request.getfixturevalue(grid)
        batch = SupportField(g, s=np.ones(g.shape + (2,)))
        ctl = StepControl(t_end=0.01, snapshot_interval=0.01)
        with pytest.raises(GridError, match="one snapshot"):
            evolve(batch, ctl)
        with pytest.raises(GridError, match="one snapshot"):
            step(FlowState(0.0, batch), ctl, 0.01)
        with pytest.raises(GridError, match="one snapshot"):
            write_snapshot(tmp_path / "snap.json", batch, 0.0, None)
        assert not list(tmp_path.iterdir())
        require_single(SupportField(g, s=np.ones(g.shape)))


def test_sphere_embed_builds_no_second_derivatives(monkeypatch, sphere17):
    # embed reads the jet it is handed: no halo and no stencil of its own
    f = _columns(sphere17)[1]
    jet = _jet(f)
    calls = []
    for name in ("extend", "d1", "d2"):
        kernel = getattr(CubedSphereGrid, name)
        monkeypatch.setattr(CubedSphereGrid, name, lambda self, *a, kernel=kernel, name=name:
                            calls.append(name) or kernel(self, *a))
    X = embed(f, jet)
    assert calls == []
    # the graph-chart formula, its terms accumulated in the order written out
    u1, u2 = jet[0]
    (t1, t2), a, (y1, y2) = sphere17.graph_chart
    assert np.array_equal(X, u1 * t1 + u2 * t2 + (f.u - y1 * u1 - y2 * u2) * a)
