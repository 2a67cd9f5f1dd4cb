import numpy as np
import pytest

from centroflow.errors import ConfigError, GridError
from centroflow.grids import _TAKE_INDICES, HALO, CircleGrid, CubedSphereGrid, make_grid
from centroflow.support import SupportField
from conftest import load_tool
from reference import chart_derivs, homogeneity_residual

PARITY = load_tool("parity")

# the dimension interface every grid offers; nothing outside grids.py branches on n
SHARED = ("n", "w", "shape", "resolution", "weights", "nodes", "radial", "graph_chart",
          "graph_jet", "graph_hessian",
          "to_frame", "chart_jet", "integrate_chart", "refine_max", "value_at",
          "interpolate_at_directions", "sync_duplicates", "per_snapshot", "spectrum",
          "partials")


def _full_spectrum(v, theta, order=0):
    """Re sum_k (ik)^order c_k e^{ik theta} over the full fft spectrum of one
    column v (k from fftfreq, the Nyquist mode once, at -N/2): the reference
    formula of the interpolant and its theta-derivatives."""
    N = len(v)
    ik = 1j * np.fft.fftfreq(N, d=1.0 / N)
    return (np.exp(ik * np.asarray(theta, dtype=float)[..., None]) * ik ** order
            @ (np.fft.fft(v) / N)).real


def _full_spectrum_max(g, v):
    """refine_max's Newton polish of one column on the full spectrum."""
    i0 = int(np.argmax(v))
    vmax, th = v[i0], g.thetas[i0]
    span = vmax - np.min(v)
    if span <= 1e-12 * max(abs(vmax), 1.0):
        return th, vmax
    for _ in range(12):
        d1, d2 = _full_spectrum(v, th, 1), _full_spectrum(v, th, 2)
        if d2 >= -1e-13 * span:
            break
        step = np.clip(d1 / d2, -g.h, g.h)
        th -= step
        if abs(step) < 1e-14:
            break
    val = _full_spectrum(v, th)
    return (g.thetas[i0], vmax) if vmax > val else (th, val)


def _trig_block(g, seed, B=6):
    """B seeded trig polynomials (N, B): modes 1..6 with amplitudes ~0.1/k^2
    and, on an even N, a Nyquist term c cos(N theta / 2) with c (N/2)^2 in
    [0.2, 0.3]: it moves the polished maximum without ruling its curvature."""
    rng = np.random.default_rng(seed)
    th = g.thetas[:, None]
    cols = 1.0 + sum(0.1 / k ** 2 * (rng.standard_normal(B) * np.cos(k * th)
                                     + rng.standard_normal(B) * np.sin(k * th))
                     for k in range(1, 7))
    if g.N % 2 == 0:
        cols = cols + rng.uniform(0.2, 0.3, B) / (g.N / 2) ** 2 * np.cos(g.N / 2 * th)
    return cols


def _half_spectrum_deviation(g, block, q):
    """Largest deviations of refine_max (theta; value, relative) and of
    interpolate at angles q (relative) from the full-spectrum reference."""
    th, val = g.refine_max(block)
    dev = np.zeros(3)
    for k, v in enumerate(block.T):
        ref_th, ref_val = _full_spectrum_max(g, v)
        ref_q = _full_spectrum(v, q)
        dev = np.maximum(dev, [abs(th[k] - ref_th), abs(val[k] - ref_val) / abs(ref_val),
                               np.max(np.abs(g.interpolate(v, q) - ref_q) / np.abs(ref_q))])
    return dev


class TestCircleGrid:
    def test_layout(self, circle64):
        g = circle64
        assert g.N == 64 and g.h == pytest.approx(2 * np.pi / 64)
        assert np.allclose(np.linalg.norm(g.nodes, axis=-1), 1.0)
        assert g.thetas[0] == 0.0

    def test_spectral_derivative_exact_on_modes(self, circle64):
        g = circle64
        v = np.sin(5 * g.thetas) + 0.3 * np.cos(11 * g.thetas)
        d1 = 5 * np.cos(5 * g.thetas) - 3.3 * np.sin(11 * g.thetas)
        d2 = -25 * np.sin(5 * g.thetas) - 36.3 * np.cos(11 * g.thetas)
        assert np.max(np.abs(g.deriv(v, 1) - d1)) < 1e-11
        assert np.max(np.abs(g.deriv(v, 2) - d2)) < 1e-10

    def test_integrate_trig_poly(self, circle64):
        g = circle64
        assert g.integrate_chart(np.cos(3 * g.thetas) ** 2) == pytest.approx(np.pi, abs=1e-13)
        assert g.integrate_chart(np.ones(g.N)) == pytest.approx(2 * np.pi, abs=1e-13)

    def test_interpolate_band_limited(self, circle64):
        g = circle64
        v = 1.0 + 0.2 * np.sin(4 * g.thetas)
        q = np.array([0.1, 1.7, 3.9, 6.1])
        assert np.max(np.abs(g.interpolate(v, q) - (1.0 + 0.2 * np.sin(4 * q)))) < 1e-12

    def test_refine_max_interior(self, circle64):
        # true max 1.5 at theta=0.37, off-node
        g = circle64
        v = 1.0 + 0.5 * np.cos(g.thetas - 0.37)
        th, vmax = g.refine_max(v)
        assert abs(vmax - 1.5) < 1e-12
        assert abs((th - 0.37 + np.pi) % (2 * np.pi) - np.pi) < 1e-7

    def test_refine_max_constant_field(self, circle64):
        th, vmax = circle64.refine_max(np.full(64, 2.5))
        assert vmax == 2.5

    def test_resolution_floor(self):
        with pytest.raises(ConfigError):
            CircleGrid(8)

    @pytest.mark.parametrize("N", [64, 63, 1024])
    def test_half_spectrum_matches_the_full_spectrum(self, N):
        # the interpolant sums the rfft half spectrum, 1 <= k < N/2 twice and
        # k = 0 and the Nyquist mode once, with phases from a cumulative product
        g = CircleGrid(N)
        q = np.random.default_rng(1).uniform(0.0, 2 * np.pi, 9)
        theta_dev, value_dev, interp_dev = _half_spectrum_deviation(g, _trig_block(g, N), q)
        assert theta_dev <= 1e-12 and value_dev <= 1e-13 and interp_dev <= 1e-13

    def test_counting_the_nyquist_mode_twice_is_caught(self):
        # the comparison above sees the Nyquist term: weighted like 1 <= k < N/2,
        # the polished angle, the value and the interpolant all leave it
        g = CircleGrid(64)
        g._half_weight[-1] *= 2.0
        q = np.random.default_rng(1).uniform(0.0, 2 * np.pi, 9)
        theta_dev, value_dev, interp_dev = _half_spectrum_deviation(g, _trig_block(g, 64), q)
        assert theta_dev > 1e-9 and value_dev > 1e-9 and interp_dev > 1e-9

    def test_refine_max_value_is_the_interpolant_at_its_angle(self, circle64):
        # white noise makes Newton land below the node max now and then; the
        # node max is then returned with the node's angle, not Newton's
        rng = np.random.default_rng(0)
        for _ in range(200):
            v = rng.standard_normal((64, 50))
            th, val = circle64.refine_max(v)
            assert np.max(np.abs(circle64.value_at(v, th) - val)) <= 1e-12

    @pytest.mark.parametrize("N", [64, 65])
    def test_deriv_equals_per_call_multiplier(self, N):
        # the multipliers built with the grid hold the values deriv formed
        # per call before: (i k)^order, the odd-order Nyquist mode zeroed
        g = CircleGrid(N)
        v = np.exp(np.cos(g.thetas)) + 0.1 * np.sin(3 * g.thetas)
        vv = np.stack([v, v ** 2], axis=-1)
        for order in (1, 2):
            mult = (1j * np.arange(N // 2 + 1)) ** order
            if order % 2 == 1 and N % 2 == 0:
                mult[-1] = 0.0
            want = np.fft.irfft(np.fft.rfft(vv, axis=0) * mult[:, None], n=N, axis=0)
            assert np.array_equal(g.deriv(vv, order), want)
            assert np.array_equal(g.deriv(v, order), want[:, 0])
        with pytest.raises(GridError):
            g.deriv(v, 3)


class TestCubedSphereGrid:
    def test_layout(self, sphere17):
        g = sphere17
        assert g.M == 17 and g.h == pytest.approx(2.0 / 16)
        assert np.allclose(np.linalg.norm(g.nodes, axis=-1), 1.0, atol=1e-14)
        Y1, Y2 = g.graph_chart[2]
        assert np.allclose(g.w, np.sqrt(1 + Y1**2 + Y2**2), atol=1e-14)

    def test_frames_right_handed(self, sphere17):
        g = sphere17
        for f in range(6):
            t1, t2 = g.tangents[f]
            assert np.allclose(np.cross(t1, t2), g.axes[f])

    def test_solid_angle_weights(self, sphere33):
        g = sphere33
        total = float(np.sum(g.weights))
        assert total == pytest.approx(4 * np.pi, rel=1e-10)
        # quadrature of a smooth function: int z1^2 over S^2 = 4pi/3
        val = float(np.sum(g.nodes[..., 0] ** 2 * g.weights))
        assert val == pytest.approx(4 * np.pi / 3, rel=1e-8)

    def test_extend_reproduces_smooth_function(self, sphere33):
        # u = w * s for s = 1 + 0.3 x y z, globally smooth: interior stencil
        # band of the extension must match the function at ghost coordinates
        g = sphere33
        s = 1.0 + 0.3 * np.prod(g.nodes, axis=-1)
        ext = g.extend(g.w * s, kind="scalar")
        M, H = g.M, HALO
        assert ext.shape == (6, M + 2 * H, M + 2 * H)
        assert np.max(np.abs(ext[:, H:-H, H:-H] - g.w * s)) == 0.0

    def test_chart_derivs_match_analytic_on_sphere_graph(self, sphere33):
        # u = w: du/dy1 = y1/w, d2u/dy1dy2 = -y1 y2/w^3; halo path accuracy.
        # graph values are degree-1 homogeneous data, hence kind="deg1"
        g = sphere33
        f1, f2, f11, f12, f22 = chart_derivs(g, g.w.copy(), kind="deg1")
        (Y1, Y2), w = g.graph_chart[2] + 0 * g.w, g.w
        # 4th-order truncation at M=33: h^4 ~ 1.5e-5
        assert np.max(np.abs(f1 - Y1 / w)) < 1e-5
        assert np.max(np.abs(f2 - Y2 / w)) < 1e-5
        assert np.max(np.abs(f12 - (-Y1 * Y2 / w**3))) < 2e-5
        assert np.max(np.abs(f11 - (1 + Y2**2) / w**3)) < 2e-5
        assert np.max(np.abs(f22 - (1 + Y1**2) / w**3)) < 2e-5

    def test_d1_face_polynomial_exact(self, sphere33):
        # one-sided closures are degree-4 exact, centered rows degree-5+
        g = sphere33
        Y1 = g.graph_chart[2][0]
        vals = np.broadcast_to(Y1, (6, g.M, g.M)).copy() ** 4
        d = g.d1_face(vals, 1)
        exact = 4.0 * np.broadcast_to(Y1, (6, g.M, g.M)) ** 3
        assert np.max(np.abs(d - exact)) < 1e-11

    def test_d1_face_axis2(self, sphere33):
        g = sphere33
        Y2 = g.graph_chart[2][1]
        vals = np.broadcast_to(Y2, (6, g.M, g.M)).copy() ** 3
        d = g.d1_face(vals, 2)
        exact = 3.0 * np.broadcast_to(Y2, (6, g.M, g.M)) ** 2
        assert np.max(np.abs(d - exact)) < 1e-12

    def test_d1_face_closures_equal_the_written_out_formulas(self, sphere33):
        # the four edge rows, computed at once, keep the bits of each closure
        # written out term by term, on any layout of the field
        g = sphere33
        rng = np.random.default_rng(11)
        c = 1.0 / (12.0 * g.h)
        for shape, axis in (((6, g.M, g.M), 1), ((6, g.M, g.M), 2), ((2, 6, g.M, g.M, 3), 3)):
            x = rng.standard_normal(shape)
            v, d = np.moveaxis(x, axis, -1), np.moveaxis(g.d1_face(x, axis), axis, -1)
            want = {0: c * (-25 * v[..., 0] + 48 * v[..., 1] - 36 * v[..., 2]
                            + 16 * v[..., 3] - 3 * v[..., 4]),
                    1: c * (-3 * v[..., 0] - 10 * v[..., 1] + 18 * v[..., 2]
                            - 6 * v[..., 3] + v[..., 4]),
                    -1: -c * (-25 * v[..., -1] + 48 * v[..., -2] - 36 * v[..., -3]
                              + 16 * v[..., -4] - 3 * v[..., -5]),
                    -2: -c * (-3 * v[..., -1] - 10 * v[..., -2] + 18 * v[..., -3]
                              - 6 * v[..., -4] + v[..., -5])}
            for row, w in want.items():
                assert np.array_equal(d[..., row], w)
            assert np.array_equal(d[..., 2:-2], g.d1(v, -1))

    def test_sync_duplicates_averages_seams(self, sphere33):
        g = sphere33
        rng = np.random.default_rng(7)
        v = rng.standard_normal((6, g.M, g.M))
        g.sync_duplicates(v)
        # after sync, duplicated sphere points carry identical values
        flat_nodes = g.nodes.reshape(-1, 3).round(12)
        flat_vals = v.reshape(-1)
        seen = {}
        for node, val in zip(map(tuple, flat_nodes), flat_vals):
            if node in seen:
                assert abs(seen[node] - val) < 1e-12
            else:
                seen[node] = val

    def test_interpolate_at_directions(self, sphere33):
        g = sphere33
        s = 1.0 + 0.2 * g.nodes[..., 2] ** 2
        rng = np.random.default_rng(3)
        dirs = rng.standard_normal((40, 3))
        dirs /= np.linalg.norm(dirs, axis=-1, keepdims=True)
        got = g.interpolate_at_directions(s, dirs)
        want = 1.0 + 0.2 * dirs[:, 2] ** 2
        assert np.max(np.abs(got - want)) < 1e-6

    def test_resolution_validation(self):
        with pytest.raises(ConfigError):
            CubedSphereGrid(16)  # even
        with pytest.raises(ConfigError):
            CubedSphereGrid(15)  # too small


def test_make_grid_dispatch():
    assert isinstance(make_grid(1, 64), CircleGrid)
    assert isinstance(make_grid(2, 17), CubedSphereGrid)
    with pytest.raises(ConfigError):
        make_grid(3, 17)


@pytest.mark.parametrize("n, resolution", [(True, 64), (1, 64.9), (2, 17.5)])
def test_make_grid_rejects_non_integers(n, resolution):
    with pytest.raises(ConfigError, match="must be an integer"):
        make_grid(n, resolution)


def _arrays(grid):
    """{attribute[.entry]: array} for every ndarray the grid holds, tuple and
    dict entries included, as tools/parity.py dumps them."""
    return {k.removeprefix("grid.tables."): a for k, a in PARITY._tables(grid).items()}


class TestSharedGrid:
    def test_one_grid_per_n_and_resolution(self):
        assert make_grid(2, 17) is make_grid(2, 17)
        assert make_grid(1, 64) is make_grid(1, 64)
        assert make_grid(1, 64) is not make_grid(1, 65)
        assert make_grid(2, 17) is not CubedSphereGrid(17)

    def test_cached_grid_does_not_admit_bools_or_floats(self):
        # True == 1 and 64.0 == 64 hash alike; the check runs before the lookup
        make_grid(1, 64)
        for n, resolution in ((True, 64), (1, 64.0)):
            with pytest.raises(ConfigError, match="must be an integer"):
                make_grid(n, resolution)

    @pytest.mark.parametrize("n, resolution", [(1, 64), (2, 17)])
    def test_every_array_is_read_only(self, n, resolution):
        g = make_grid(n, resolution)
        arrays = _arrays(g)
        assert {"w", "nodes", "weights", "graph_chart.0"} <= arrays.keys()
        if n == 2:
            assert {"_halo_srck", "_halo_wk", "frameP_inv", "ref_det"} <= arrays.keys()
        for name, a in arrays.items():
            if name in _TAKE_INDICES:   # np.take would copy it on every call
                assert a.flags.writeable
                continue
            with pytest.raises(ValueError, match="read-only"):
                a[...] = a
        with pytest.raises(ValueError, match="read-only"):
            g.w *= 2.0
        # a private grid from the constructor stays writable
        private = CubedSphereGrid(17) if n == 2 else CircleGrid(64)
        assert private.w.flags.writeable and private.nodes.flags.writeable

    @pytest.mark.parametrize("n, resolution, cls", [(1, 64, CircleGrid),
                                                     (2, 17, CubedSphereGrid)])
    def test_shared_arrays_equal_a_fresh_grid_bit_for_bit(self, n, resolution, cls):
        shared, fresh = _arrays(make_grid(n, resolution)), _arrays(cls(resolution))
        assert shared.keys() == fresh.keys()
        for name, a in shared.items():
            b = fresh[name]
            assert a.dtype == b.dtype and a.shape == b.shape, name
            assert a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize("cls, resolution", [(CircleGrid, 64.9), (CircleGrid, True),
                                             (CubedSphereGrid, 17.5),
                                             (CubedSphereGrid, True)])
def test_constructors_reject_non_integers(cls, resolution):
    with pytest.raises(ConfigError, match="resolution must be an integer"):
        cls(resolution)


class TestSharedInterface:
    @pytest.mark.parametrize("name", SHARED)
    def test_both_grids_expose(self, circle64, sphere17, name):
        assert hasattr(circle64, name) and hasattr(sphere17, name)

    def test_shapes_and_graph_factor(self, circle64, sphere17):
        assert circle64.shape == (64,) and np.array_equal(circle64.w, np.ones(64))
        assert sphere17.shape == (6, 17, 17) == sphere17.w.shape
        for g in (circle64, sphere17):
            assert g.weights.shape == g.shape
            assert float(np.sum(g.weights)) == pytest.approx(2 * g.n * np.pi, rel=1e-10)

    def test_circle_methods_equal_closed_forms(self, circle64):
        g = circle64
        s = 1.0 + 0.1 * np.cos(3 * g.thetas) + 0.05 * np.sin(2 * g.thetas)
        b = g.graph_hessian(s)
        assert np.array_equal(b, s + g.deriv(s, 2))
        assert g.to_frame(b) is b and all(v is b for v in g.spectrum(b))
        Du, D2 = g.graph_jet(s)     # one spectrum of s: s' and graph_hessian(s)
        assert Du.shape == (1, 64) and np.array_equal(Du[0], g.deriv(s, 1))
        assert np.array_equal(D2, b)
        t, a, y = g.graph_chart     # the tangent line at each node
        assert np.array_equal(t, np.stack([-g.radial[1], g.radial[0]])[None])
        assert a is g.radial and y.shape == (1, 64) and not y.any()
        stack = np.array([s, b])
        ds = g.partials(stack)     # a view (1, 2, N) of one spectrum of the stack
        assert ds.shape == (1, 2, 64) and ds.base is not None
        assert np.array_equal(ds[0, 0], g.deriv(s, 1))
        assert np.array_equal(ds[0, 1], g.deriv(b, 1))
        X = s * g.radial
        Xi, Xij = g.chart_jet(X)   # component-first: (1, 2, N) and (1, 1, 2, N)
        assert Xi.shape == (1, 2, 64) and Xij.shape == (1, 1, 2, 64)
        assert Xi.flags.c_contiguous and Xij.flags.c_contiguous
        for c in range(2):
            assert np.array_equal(Xi[0, c], g.deriv(X[c], 1))
            assert np.array_equal(Xij[0, 0, c], g.deriv(X[c], 2))
        assert g.integrate_chart(s) == np.sum(s) * g.h
        rng = np.random.default_rng(5)
        dirs = rng.standard_normal((9, 2))
        dirs /= np.linalg.norm(dirs, axis=-1, keepdims=True)
        assert np.array_equal(g.interpolate_at_directions(s, dirs),
                              g.interpolate(s, np.arctan2(dirs[:, 1], dirs[:, 0])))
        th, _ = g.refine_max(s)
        assert g.value_at(s, th) == g.interpolate(s, th)
        before = s.copy()
        assert g.sync_duplicates(s) is s and np.array_equal(s, before)

    def test_sphere_refine_max_is_the_node_max(self, sphere17):
        g = sphere17
        v = 1.0 + 0.3 * np.prod(g.nodes, axis=-1) + 0.1 * g.nodes[..., 0]
        where, val = g.refine_max(v)
        assert val == float(np.max(v))
        assert v.reshape(-1)[where] == val and g.value_at(v, where) == val

    @pytest.mark.parametrize("grid", ["circle64", "sphere17"])
    def test_batch_columns_equal_single_fields(self, request, grid):
        # a constant column (the circle's node-max fallback) beside bumps whose
        # Newton polish takes different numbers of steps
        g = request.getfixturevalue(grid)
        p = g.nodes
        cols = [np.full(g.shape, 2.5), 1.0 + 0.3 * np.prod(p, axis=-1) + 0.1 * p[..., 0],
                1.0 + 0.05 * p[..., 1] ** 3, 1.2 - 0.2 * p[..., 0] * p[..., 1]]
        batch = np.stack(cols, axis=-1)
        where, vmax = g.refine_max(batch)
        X = np.stack([v * g.radial for v in cols], axis=-1)
        Xi, Xij = g.chart_jet(X)
        D2 = g.graph_hessian(batch)
        rows = g.per_snapshot(np.max, batch)
        for k, v in enumerate(cols):
            # one body's results have its batch shape (): numpy scalars
            one = (g.integrate_chart(v), *g.refine_max(v), g.value_at(v, g.refine_max(v)[0]),
                   g.per_snapshot(np.max, v))
            assert all(np.shape(r) == () for r in one)
            assert g.integrate_chart(batch)[k] == g.integrate_chart(v)
            assert (where[k], vmax[k]) == g.refine_max(v)
            assert g.value_at(batch, where)[k] == g.value_at(v, g.refine_max(v)[0])
            assert rows[k] == g.per_snapshot(np.max, v)
            assert np.array_equal(g.partials(batch[None])[..., k], g.partials(v[None]))
            jet = g.chart_jet(v * g.radial)
            # the batch axis is last: after the nodes and any leading component axes
            assert np.array_equal(Xi[..., k], jet[0])
            assert np.array_equal(Xij[..., k], jet[1])
            assert Xi.flags.c_contiguous and Xij.flags.c_contiguous
            assert np.array_equal(g.to_frame(D2)[..., k], g.to_frame(g.graph_hessian(v)))
            for jet_batch, jet_one in zip(g.graph_jet(batch), g.graph_jet(v)):
                assert np.array_equal(jet_batch[..., k], jet_one)
        assert isinstance(g.integrate_chart(cols[1]), float)
        assert isinstance(g.refine_max(cols[1])[1], float)
        # a query takes its own shape: one direction gives a scalar, the entry
        # of a list of directions
        dirs = p.reshape(-1, g.n + 1)[:5]
        vals = g.interpolate_at_directions(cols[1], dirs)
        assert vals.shape == (5,)
        for q, d in enumerate(dirs):
            one = g.interpolate_at_directions(cols[1], d)
            assert np.shape(one) == () and isinstance(one, float) and one == vals[q]

    def test_sync_duplicates_on_graph_values(self, sphere17):
        g = sphere17
        rng = np.random.default_rng(11)
        u = g.w * (1.0 + 0.1 * rng.random(g.shape))
        assert homogeneity_residual(SupportField(g, u=u)) > 1e-4
        assert g.sync_duplicates(u) is u
        assert homogeneity_residual(SupportField(g, u=u)) < 1e-14


def ghost_directions(g):
    """Ghost mask over the (E, E) extended face and the unnormalized ghost
    directions a_f + y1 t1_f + y2 t2_f, shape (6, G, 3)."""
    H, M, h = HALO, g.M, g.h
    E = M + 2 * H
    yg = np.concatenate([g.ys[0] - h * np.arange(H, 0, -1), g.ys,
                         g.ys[-1] + h * np.arange(1, H + 1)])
    i, j = np.meshgrid(np.arange(E), np.arange(E), indexing="ij")
    ghost = (i < H) | (i >= M + H) | (j < H) | (j >= M + H)
    z = (g.axes[:, None, :] + yg[i[ghost]][None, :, None] * g.tangents[:, None, 0]
         + yg[j[ghost]][None, :, None] * g.tangents[:, None, 1])
    return ghost, z


class TestHaloTable:
    def test_scalar_ghosts_are_interpolated_values(self, sphere17):
        g = sphere17
        v = np.exp(g.nodes[..., 0]) * (1.0 + 0.3 * g.nodes[..., 1] * g.nodes[..., 2])
        ghost, z = ghost_directions(g)
        dirs = z / np.linalg.norm(z, axis=-1, keepdims=True)
        want = g.interpolate_at_directions(v, dirs.reshape(-1, 3)).reshape(6, -1)
        ext = g.extend(v)
        assert np.max(np.abs(ext[:, ghost] - want)) < 1e-13
        assert np.array_equal(ext[:, HALO:-HALO, HALO:-HALO], v)

    def test_deg1_ghosts_rescale_by_the_direction_norm(self, sphere17):
        g = sphere17
        s = 1.0 + 0.2 * np.prod(g.nodes, axis=-1) + 0.1 * g.nodes[..., 2]
        ghost, z = ghost_directions(g)
        znorm = np.linalg.norm(z, axis=-1)
        want = znorm * g.interpolate_at_directions(
            s, (z / znorm[..., None]).reshape(-1, 3)).reshape(6, -1)
        ext = g.extend(g.w * s, kind="deg1")
        assert np.max(np.abs(ext[:, ghost] - want)) < 1e-13

    def test_component_extend_equals_per_component(self, sphere17):
        g = sphere17
        X = np.random.default_rng(2).random(g.shape + (3,))
        ext = g.extend(X)
        for c in range(3):
            assert np.array_equal(ext[..., c], g.extend(X[..., c]))

    def test_ghosts_and_directions_match_a_smooth_field(self, sphere33):
        # the halo table and interpolate_at_directions share one stencil
        # builder, so both are checked against the field itself. Degree-7
        # error measured at M=33 for this field: ghosts 1.8e-9, 2000 random
        # directions 9.1e-9 (about 40 h^8); 3e-8 leaves a factor 3
        def field(p):
            x, y, z = p[..., 0], p[..., 1], p[..., 2]
            return np.exp(0.4 * x) * (1.0 + 0.3 * y * z) + 0.2 * y ** 3

        g = sphere33
        s = field(g.nodes)
        ghost, z = ghost_directions(g)
        znorm = np.linalg.norm(z, axis=-1)
        want = field(z / znorm[..., None])
        assert np.max(np.abs(g.extend(s)[:, ghost] - want)) < 3e-8
        assert np.max(np.abs(g.extend(g.w * s, kind="deg1")[:, ghost]
                             - znorm * want)) < 3e-8
        dirs = np.random.default_rng(11).standard_normal((2000, 3))
        dirs /= np.linalg.norm(dirs, axis=-1, keepdims=True)
        assert np.max(np.abs(g.interpolate_at_directions(s, dirs) - field(dirs))) < 3e-8

    def test_unknown_kind_rejected(self, sphere17):
        with pytest.raises(GridError):
            sphere17.extend(sphere17.w, kind="cov")


@pytest.fixture(scope="module", params=[17, 33, 65])
def cube(request):
    return CubedSphereGrid(request.param)


def einsum_extend(g, values, kind):
    """The halo extend as a 3-operand einsum over Lagrange rows w1, w2 and the
    8x8 patch P, rebuilt from the stencil builder: the reference the tap-first
    table must reproduce bit for bit."""
    ghost, z = ghost_directions(g)
    z = z.reshape(-1, 3)
    _, _, src, w1, w2 = g._stencil(z)
    comp = values.shape[3:]
    svals = values / g.w.reshape(g.shape + (1,) * len(comp)) if kind == "deg1" else values
    cols = svals.reshape(svals.shape[:3] + (-1,))
    ghosts = np.stack([np.einsum("ga,gb,gab->g", w1, w2, cols[..., c].reshape(-1)[src])
                       for c in range(cols.shape[-1])], axis=-1).reshape((-1,) + comp)
    if kind == "deg1":
        ghosts = ghosts * np.linalg.norm(z, axis=1).reshape((-1,) + (1,) * len(comp))
    return ghost, ghosts.reshape((6, -1) + comp)


class TestBitwiseKernels:
    def test_extend_equals_einsum_contraction(self, cube):
        g = cube
        s = 1.0 + 0.2 * np.prod(g.nodes, axis=-1) + 0.05 * g.nodes[..., 2]
        X = s[..., None] * g.nodes
        for values, kind in ((s, "scalar"), (g.w * s, "deg1"), (X, "scalar")):
            ghost, want = einsum_extend(g, values, kind)
            ext = g.extend(values, kind)
            assert np.array_equal(ext[:, ghost], want)
            assert np.array_equal(ext[:, HALO:-HALO, HALO:-HALO], values)

    def test_graph_hessian_equals_chart_derivs(self, cube):
        g = cube
        u = g.w * (1.0 + 0.2 * np.prod(g.nodes, axis=-1) + 0.05 * g.nodes[..., 2])
        f1, f2, f11, f12, f22 = chart_derivs(g, u, "deg1")
        D2 = np.array([[f11, f12], [f12, f22]])
        assert np.array_equal(g.graph_hessian(u), D2)
        # the graph jet: the same Hessian and the gradient, from one deg1 halo
        Du, jet_D2 = g.graph_jet(u)
        assert Du.shape == (2,) + g.shape and np.array_equal(Du, np.array([f1, f2]))
        assert np.array_equal(jet_D2, D2)

    def test_chart_jet_is_component_first_chart_derivs(self, cube):
        # the stack of the components' extends gives each component's stencils
        g = cube
        X = (1.0 + 0.2 * np.prod(g.nodes, axis=-1)) * g.radial
        Xi, Xij = g.chart_jet(X)
        assert Xi.shape == (2, 3) + g.shape and Xij.shape == (2, 2, 3) + g.shape
        assert Xi.flags.c_contiguous and Xij.flags.c_contiguous
        for c in range(3):
            f1, f2, f11, f12, f22 = chart_derivs(g, X[c])
            assert np.array_equal(Xi[:, c], np.array([f1, f2]))
            assert np.array_equal(Xij[:, :, c], np.array([[f11, f12], [f12, f22]]))

    def test_partials_differentiates_each_component_of_a_stack(self, cube):
        g = cube
        stack = np.array([1.0 + 0.2 * np.prod(g.nodes, axis=-1), g.w, g.nodes[..., 2]])
        d = g.partials(stack)
        assert d.shape == (2, 3) + g.shape
        for c in range(3):
            assert np.array_equal(d[0, c], g.d1_face(stack[c], 1))
            assert np.array_equal(d[1, c], g.d1_face(stack[c], 2))

    def test_spectrum_equals_its_expressions(self, cube):
        # one determinant feeds the eigenpair, each by its closed form
        g = cube
        D = g.graph_hessian(g.w * (1.0 + 0.2 * np.prod(g.nodes, axis=-1)))
        det, lo, hi = g.spectrum(D)
        want_det = D[0, 0] * D[1, 1] - D[0, 1] * D[1, 0]
        tr = D[0, 0] + D[1, 1]
        disc = np.sqrt(np.maximum((tr / 2) ** 2 - want_det, 0.0))
        assert np.array_equal(det, want_det)
        assert np.array_equal(lo, tr / 2 - disc) and np.array_equal(hi, tr / 2 + disc)

    def test_stencils_equal_their_expressions(self, cube):
        g = cube
        ext = g.extend(g.w * (1.0 + 0.2 * np.prod(g.nodes, axis=-1)), "deg1")
        h = g.h
        for axis in (1, 2):
            a, b, m, d, e = g._taps(ext, axis)
            assert np.array_equal(g.d1(ext, axis),
                                  (1.0 / (12.0 * h)) * (a - 8 * b + 8 * d - e))
            assert np.array_equal(g.d2(ext, axis), (1.0 / (12.0 * h ** 2))
                                  * (-a + 16 * b - 30 * m + 16 * d - e))
        # d2 on the kept columns only: the columns it keeps of the full-width d2
        H = HALO
        assert np.array_equal(g.d2(ext[:, :, H:-H], 1), g.d2(ext, 1)[:, :, H:-H])
        assert np.array_equal(g.d2(ext[:, H:-H], 2), g.d2(ext, 2)[:, H:-H])


@pytest.mark.parametrize("M", [17, 33, 65])
def test_duplicate_map_matches_dict_grouping(M):
    # all 6 M^2 nodes grouped, not only the chart boundary the grid groups
    g = CubedSphereGrid(M)
    groups = {}
    for flat, k in enumerate(map(tuple, np.round(g.nodes.reshape(-1, 3), 12))):
        groups.setdefault(k, []).append(flat)
    want = sorted((d, min(m)) for m in groups.values() for d in m if d != min(m))
    want_dst, want_src = np.array(want).T
    assert np.array_equal(g._dup_dst, want_dst)
    assert np.array_equal(g._dup_src, want_src)
