"""Sphere discretizations and the differentiation kernel.

n=1: periodic theta-grid on the circle with Fourier collocation derivatives.
n=2: cubed sphere, six gnomonic (central projection) face charts y in [-1,1]^2,
4th-order centered differences with a halo of width 2 filled by cross-face
interpolation.  Both grids offer one interface (graph factor w, curvature
operator, gradients, quadrature, maxima, interpolation, duplicate-node sync)
that the other modules call instead of branching on the dimension.

Node ordering contract (documented so snapshots are bit-stable):
  n=1: values[k] at theta_k = 2*pi*k/N, k = 0..N-1.
  n=2: values[f, i, j] at direction ~ a_f + ys[i]*t1_f + ys[j]*t2_f,
       ys = linspace(-1, 1, M), faces ordered +x,-x,+y,-y,+z,-z,
       flattening is row-major (C order).

Graph jet: graph_jet(u) gives (Du, D2), the chart gradient (n, ...) and
graph_hessian(u)'s chart Hessian bit for bit, from one differentiation of u:
the embedding and the curvature share it, the step keeps graph_hessian.
graph_chart (t, a, y) is each node's graph chart, tangents t (n, n+1, ...),
axis a (n+1, ...), coordinates y (n, ...): X = sum_j u_j t_j + (u - y.Du) a.

Batch axis: the grid operations also take a field that carries one more
axis right after the node axes, one column per snapshot. Every field a grid
takes or returns with component axes (graph and chart jets, frame curvature,
the embedding) is component-first: components, then node axes, then the
batch axis, and so are the constants the embedding is built from (radial,
graph_chart); nodes keeps its directions as rows, as a query does.
Grid constants broadcast over the batch axis. A field's batch shape is what
trails its node axes, () for one body and (B,) for a batch, and every
per-snapshot result (integrals, maxima and where they sit) has exactly that
shape: numpy scalars for one body.
A query (angles, directions) gives results of its own shape. Each column is
reduced as one C-contiguous row, so its sums add in the order they would for
that snapshot alone. Only diagnostics.SeriesBundle builds such fields.
"""

import numpy as np

from .errors import ConfigError, GridError

# face frames: (name, axis a, tangent t1, tangent t2), right handed t1 x t2 = a
FACE_FRAMES = (
    ("+x", (1, 0, 0), (0, 1, 0), (0, 0, 1)),
    ("-x", (-1, 0, 0), (0, 0, 1), (0, 1, 0)),
    ("+y", (0, 1, 0), (0, 0, 1), (1, 0, 0)),
    ("-y", (0, -1, 0), (1, 0, 0), (0, 0, 1)),
    ("+z", (0, 0, 1), (1, 0, 0), (0, 1, 0)),
    ("-z", (0, 0, -1), (0, 1, 0), (1, 0, 0)),
)

HALO = 2   # halo width, matches the 4th-order stencil reach
NSTEN = 8  # Lagrange interpolation points per axis for off-lattice evaluation


def snapshot_rows(grid, values):
    """A field of grid.shape, or a batch of B of them, as C-contiguous rows (B, size).

    One row per snapshot, its nodes in C order: a sum over a row adds in the
    order it would over that snapshot alone. One body's row is a view.
    """
    return np.ascontiguousarray(values.reshape(grid.w.size, -1).T)


def in_batch_shape(grid, values, out):
    """out, one entry per snapshot row of values, in values' batch shape: the
    axes trailing the node axes, () for one body (a numpy scalar), (B,) for a batch."""
    return out.reshape(values.shape[len(grid.shape):])[()]


def per_snapshot(grid, op, values):
    """op(rows, axis=1) on snapshot_rows, in values' batch shape."""
    return in_batch_shape(grid, values, op(snapshot_rows(grid, values), axis=1))


class CircleGrid:
    """Equispaced periodic grid on S^1 with spectral differentiation."""

    n = 1

    def __init__(self, resolution):
        grid_shape(self.n, resolution)
        N = resolution
        self.N = N
        self.resolution = N
        self.h = 2 * np.pi / N
        self.thetas = 2 * np.pi * np.arange(N) / N
        self.nodes = np.stack([np.cos(self.thetas), np.sin(self.thetas)], axis=-1)
        self.radial = np.ascontiguousarray(self.nodes.T)   # component-first (2, N)
        # the tangent line at each node: t = p-perp (1, 2, N), a = p, y = 0
        self.graph_chart = (np.stack([-self.radial[1], self.radial[0]])[None],
                            self.radial, np.zeros((1, N)))
        self.weights = np.full(N, 2 * np.pi / N)
        self.shape = (N,)
        self.node_axes = (0,)
        self.w = np.ones(N)  # graph factor of the circle chart: u = s
        self._dup_src = self._dup_dst = np.empty(0, dtype=np.int64)
        # Fourier multipliers (i k)^order on the rfft wavenumbers, per order
        k = np.arange(N // 2 + 1)
        self._deriv_mult = {order: (1j * k) ** order for order in (1, 2)}
        # the interpolant Re sum_k a_k e^{ik theta} on the rfft wavenumbers:
        # a_k = rfft_k / N, counted twice for 1 <= k < N/2 (they stand for -k
        # too), once for k = 0 and the Nyquist mode; and its theta-derivatives'
        # multipliers (i k)^order, the Nyquist mode's kept
        self._half_weight = np.where((k == 0) | (2 * k == N), 1.0, 2.0) / N
        self._jet_mult = np.stack([self._deriv_mult[1], self._deriv_mult[2]])
        if N % 2 == 0:
            # odd derivative of the Nyquist mode is not representable
            self._deriv_mult[1][-1] = 0.0

    def deriv(self, values, order=1):
        """Spectral d^order/dtheta^order (order 1 or 2) of a real periodic nodal
        field (node axis first)."""
        if order not in self._deriv_mult:
            raise GridError(f"derivative order must be 1 or 2, got {order!r}")
        return self._from_spectrum(np.fft.rfft(values, axis=0), order, 0)

    def _from_spectrum(self, vhat, order, axis):
        """d^order/dtheta^order from the rfft spectrum vhat along its axis."""
        mult = self._deriv_mult[order].reshape((-1,) + (1,) * (vhat.ndim - axis - 1))
        return np.fft.irfft(vhat * mult, n=self.N, axis=axis)

    def integrate_chart(self, values):
        # trapezoid on a periodic grid == spectrally accurate quadrature
        return self.per_snapshot(np.sum, values) * self.h

    per_snapshot = per_snapshot

    def graph_hessian(self, u):
        """Curvature radius b = u + u'' (the chart is theta, so u = s)."""
        return u + self.deriv(u, 2)

    def graph_jet(self, u):
        """(u', u + u'') from one spectrum of u: the chart gradient (1,) + u.shape
        and graph_hessian(u)."""
        uhat = np.fft.rfft(u, axis=0)
        return self._from_spectrum(uhat, 1, 0)[None], u + self._from_spectrum(uhat, 2, 0)

    @staticmethod
    def spectrum(b):
        """(determinant, min, max eigenvalue) of the 1x1 curvature operator: b each."""
        return b, b, b

    @staticmethod
    def to_frame(D2):
        return D2

    def partials(self, stack):
        """d/dtheta of every component of a component-first stack (k, N) or
        (k, N, B), from one spectrum: a view (1, k, ...), [l, c] the derivative
        of component c along chart axis l."""
        return self._from_spectrum(np.fft.rfft(stack, axis=1), 1, 1)[None]

    def chart_jet(self, X):
        """(X_i, X_ij) of an ambient-valued field X (2, N), component-first:
        (1, 2, N) and (1, 1, 2, N), from one spectrum of X (C-contiguous when X
        is, as the FFT keeps its input's memory order)."""
        vhat = np.fft.rfft(X, axis=1)
        return self._from_spectrum(vhat, 1, 1)[None], self._from_spectrum(vhat, 2, 1)[None, None]

    def sync_duplicates(self, u):
        """The circle has no duplicated nodes."""
        return u

    def _half_spectrum(self, rows):
        """Coefficients a (..., N/2 + 1) of real rows (..., N), the interpolant
        being Re sum_k a_k e^{ik theta} over the rfft wavenumbers k = 0..N/2."""
        return np.fft.rfft(rows, axis=-1) * self._half_weight

    @staticmethod
    def _trig_sums(coef, theta):
        """Re sum_k coef[..., r, k] e^{ik theta[r]}, one value per row r.

        The phases e^{ik theta} of a row are one complex exp and a cumulative
        product over k. Each sum runs over one C-contiguous row, so a row's
        value does not depend on the rows beside it.
        """
        ph = np.empty((len(theta), coef.shape[-1]), dtype=complex)
        ph[:, 0] = 1.0
        ph[:, 1:] = np.exp(1j * theta)[:, None]
        np.multiply.accumulate(ph, axis=1, out=ph)      # np.cumprod in place
        return (coef * ph).sum(axis=-1).real

    def interpolate(self, values, thetas_query):
        """Trigonometric interpolation of nodal values at angles of any shape."""
        tq = np.asarray(thetas_query, dtype=float)
        out = self._trig_sums(self._half_spectrum(values), tq.reshape(-1))
        return out.reshape(tq.shape)[()]

    def interpolate_at_directions(self, values, dirs):
        """Evaluate a nodal field at unit directions (..., 2), one result per direction."""
        dirs = np.asarray(dirs, dtype=float)
        return self.interpolate(values, np.arctan2(dirs[..., 1], dirs[..., 0]))

    def value_at(self, values, where):
        """Trigonometric interpolant of each snapshot at its own angle where
        (values' batch shape, as refine_max gives it); one body's value is
        interpolate's at that angle, bit for bit."""
        a = self._half_spectrum(snapshot_rows(self, values))
        return in_batch_shape(self, values, self._trig_sums(a, np.reshape(where, -1)))

    def refine_max(self, values):
        """(theta, value) of the maximum: Newton-polish the trig interpolant.

        Node maxima move by O(h^2 f'') under reparametrization; the interior
        smooth max does not, which matters when comparing series across
        linearly mapped copies of the same body. Falls back to the node max
        for near-constant fields (Newton would divide by ~0 curvature), and
        to the node max and its angle when the polished value falls below it.
        A batch is polished column by column in one vectorized loop, and each
        column stops where it would alone. Both results take values' batch shape.
        """
        values = np.asarray(values, dtype=float)
        v = snapshot_rows(self, values)
        i0 = np.argmax(v, axis=1)
        vmax = v[np.arange(len(v)), i0]
        span = vmax - np.min(v, axis=1)
        th = self.thetas[i0]
        polish = ~(span <= 1e-12 * np.maximum(np.abs(vmax), 1.0))
        a = self._half_spectrum(v)
        jet = a * self._jet_mult[:, None]      # (2, B, N/2 + 1): d/dtheta, d2/dtheta2
        live = np.flatnonzero(polish)
        for _ in range(12):
            if not live.size:
                break
            d1, d2 = self._trig_sums(jet[:, live], th[live])
            move = ~(d2 >= -1e-13 * span[live])
            live, d1, d2 = live[move], d1[move], d2[move]
            step = np.clip(d1 / d2, -self.h, self.h)  # one-cell trust region
            th[live] -= step
            live = live[~(np.abs(step) < 1e-14)]
        val = self._trig_sums(a, th)
        keep = polish & ~(vmax > val)
        return (in_batch_shape(self, values, np.where(keep, th, self.thetas[i0])),
                in_batch_shape(self, values, np.where(keep, val, vmax)))


def _lagrange_weights(xs, xq):
    """Weights w_m with f(xq) ~= sum_m w_m f(xs[m]) for the points xs (last axis)."""
    # xs: (..., P), xq: (...,); plain barycentric-free product form, P is small
    P = xs.shape[-1]
    w = np.ones(xs.shape)
    for m in range(P):
        for l in range(P):
            if l == m:
                continue
            w[..., m] *= (xq - xs[..., l]) / (xs[..., m] - xs[..., l])
    return w


# d1_face's one-sided closures of edge rows (0, 1, -2, -1) as signed tap
# coefficients: the IEEE operations of each closure written out, in its order
_EDGE_TAPS = np.array([[k, k, -1 - k, -1 - k] for k in range(5)])
_EDGE_COEF = np.array([[-25, -3, -3, -25], [48, -10, -10, 48], [-36, 18, 18, -36],
                       [16, -6, -6, 16], [-3, 1, 1, -3]], dtype=float)


def _interior(a, axis):
    """The nodes of an extended array along one axis, its halo cut off."""
    return a[(slice(None),) * axis + (slice(HALO, -HALO),)]


class CubedSphereGrid:
    """Six gnomonic face charts covering S^2 exactly once.

    Per face M x M nodes (M odd so every chart has a center node and Simpson
    weights apply).  Differentiation runs on arrays extended by a width-2 halo
    interpolated from the neighboring faces (degree-7 Lagrange stencils, so the
    halo error survives two differentiations without degrading 4th order).
    """

    n = 2

    def __init__(self, resolution):
        grid_shape(self.n, resolution)
        M = resolution
        self.M = M
        self.resolution = M
        self.h = 2.0 / (M - 1)
        self.ys = np.linspace(-1.0, 1.0, M)
        self.axes = np.array([f[1] for f in FACE_FRAMES], dtype=float)       # (6,3)
        self.tangents = np.array([[f[2], f[3]] for f in FACE_FRAMES], dtype=float)  # (6,2,3)

        Y1, Y2 = np.meshgrid(self.ys, self.ys, indexing="ij")
        z = (self.axes[:, None, None, :]
             + Y1[None, :, :, None] * self.tangents[:, None, None, 0, :]
             + Y2[None, :, :, None] * self.tangents[:, None, None, 1, :])
        self.w = np.sqrt(1.0 + Y1**2 + Y2**2)[None, :, :] * np.ones((6, 1, 1))
        self.nodes = z / self.w[..., None]          # (6,M,M,3) unit directions
        self.radial = np.ascontiguousarray(np.moveaxis(self.nodes, -1, 0))   # (3,6,M,M)
        # per face the chart tangents t (2, 3, 6, 1, 1) and axis a (3, 6, 1, 1),
        # per node its chart coordinates y (2, 1, M, M)
        self.graph_chart = (np.moveaxis(self.tangents, 0, -1)[..., None, None],
                            self.axes.T[..., None, None], np.array([Y1, Y2])[:, None])

        self.shape = (6, M, M)
        self.node_axes = (0, 1, 2)
        self.weights = self._solid_angle_weights()
        self.chart_weights_1d = self._simpson_weights()
        self._build_halo_tables()
        self._build_duplicate_map()
        self._build_frames()

        # reference chart factor processed through the same extend+stencil
        # pipeline as any graph field; fields are compared against it so that
        # every exact sphere is an exact discrete fixed point of the flow
        self.ref_det = self.spectrum(self.graph_hessian(self.w))[0]

    # ---------- quadrature ----------

    def _solid_angle_weights(self):
        # exact solid angle of each node's gnomonic cell; cells tile the sphere
        M = self.M
        edges = np.concatenate([[-1.0], (self.ys[:-1] + self.ys[1:]) / 2.0, [1.0]])

        def omega(a, b):
            return np.arctan(a * b / np.sqrt(1.0 + a * a + b * b))

        A1, B1 = np.meshgrid(edges[:-1], edges[:-1], indexing="ij")
        A2, B2 = np.meshgrid(edges[1:], edges[1:], indexing="ij")
        cell = omega(A2, B2) - omega(A1, B2) - omega(A2, B1) + omega(A1, B1)
        return np.broadcast_to(cell, (6, M, M)).copy()

    def _simpson_weights(self):
        M, h = self.M, self.h
        w = np.ones(M)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        return w * (h / 3.0)

    def integrate_chart(self, density):
        """Integral over the six chart squares of a chart density (e.g. sqrt(det g))."""
        W = self.chart_weights_1d
        rows = snapshot_rows(self, density).reshape((-1,) + self.shape)
        return in_batch_shape(self, density,
                              np.array([np.einsum("fij,i,j->", f, W, W) for f in rows]))

    per_snapshot = per_snapshot

    # ---------- halo exchange ----------

    def _stencil(self, points):
        """Degree-7 interpolation stencils at points (P,3), directions of any length.

        Returns the owner face (P,), the owner-chart coordinates (P,2), the
        NSTEN x NSTEN owner-chart patch as flat node indices (P,NSTEN,NSTEN)
        and the Lagrange weight rows along chart axes 1 and 2 (P,NSTEN) each.
        The degree keeps a halo ghost's error below the h^4 stencil truncation
        even after a second differentiation (see d1_face).
        """
        M = self.M
        dots = points @ self.axes.T
        owner = np.argmax(dots, axis=1)
        alpha = np.take_along_axis(dots, owner[:, None], axis=1)[:, 0]
        yq = np.einsum("pk,pck->pc", points, self.tangents[owner]) / alpha[:, None]
        start = np.clip(np.floor((yq + 1.0) / self.h).astype(np.int64)
                        - (NSTEN // 2 - 1), 0, M - NSTEN)
        pi = start[:, 0, None] + np.arange(NSTEN)
        pj = start[:, 1, None] + np.arange(NSTEN)
        src = (owner[:, None, None] * M + pi[:, :, None]) * M + pj[:, None, :]
        w1 = _lagrange_weights(self.ys[pi], yq[:, 0])
        w2 = _lagrange_weights(self.ys[pj], yq[:, 1])
        return owner, yq, src, w1, w2

    def _build_halo_tables(self):
        M, h, H = self.M, self.h, HALO
        E = M + 2 * H
        yg = np.concatenate([self.ys[0] - h * np.arange(H, 0, -1),
                             self.ys,
                             self.ys[-1] + h * np.arange(1, H + 1)])
        gi, gj = np.meshgrid(np.arange(E), np.arange(E), indexing="ij")
        ghost_mask = (gi < H) | (gi >= M + H) | (gj < H) | (gj >= M + H)
        gi, gj = gi[ghost_mask], gj[ghost_mask]            # per-face ghost positions

        # one flat table over all 6*G ghosts, face-major: the owner-chart
        # stencil, the ghost's flat slot in the extended array and the deg1
        # rescale |z|. The stencil is stored tap-first, (NSTEN^2, 6G): the
        # source indices and the weight products w1[a] * w2[b], in the (a, b)
        # order einsum("ga,gb,gab->g") accumulates them
        z = (self.axes[:, None, :] + yg[gi][None, :, None] * self.tangents[:, None, 0, :]
             + yg[gj][None, :, None] * self.tangents[:, None, 1, :]).reshape(-1, 3)
        owner, yp, src, w1, w2 = self._stencil(z)
        if np.any(owner == np.repeat(np.arange(6), gi.size)):
            raise GridError("halo ghost mapped to its own face")
        if np.any(np.abs(yp) > 1.0 + 1e-12):
            raise GridError("halo ghost fell outside the owner chart")
        self._halo_srck = np.ascontiguousarray(src.reshape(len(z), -1).T)
        self._halo_wk = np.ascontiguousarray(
            (w1[:, :, None] * w2[:, None, :]).reshape(len(z), -1).T)
        self._halo_dst = ((np.arange(6)[:, None] * E + gi) * E + gj).reshape(-1)
        self._halo_znorm = np.linalg.norm(z, axis=1)

    def extend(self, values, kind="scalar"):
        """Pad a per-face field with a width-2 halo filled from neighbor faces.

        kind:
          'scalar' -- pointwise function on the sphere (components of X, psi, ...)
          'deg1'   -- graph value u = sqrt(1+|y|^2) * s, rescaled by homogeneity
        """
        M, H = self.M, HALO
        E = M + 2 * H
        comp = values.shape[3:]
        trail = (1,) * len(comp)
        if kind == "scalar":
            svals = values
        elif kind == "deg1":
            svals = values / self.w.reshape((6, M, M) + trail)
        else:
            raise GridError(f"unknown halo kind {kind!r}")
        # per component one gather, weighted in place, and one sum over the tap
        # axis. numpy adds the rows of a C-contiguous array's outer axis one by
        # one, in tap order: the order of einsum("ga,gb,gab->g") over (w1, w2,
        # patch), which the tests hold the ghosts to bit for bit. A pairwise or
        # separable contraction would move them, and every artifact, at round-off
        cols = svals.reshape(6 * M * M, -1).T
        ghosts = np.empty((len(cols), self._halo_dst.size))
        for row, col in zip(ghosts, cols):
            taps = np.take(col, self._halo_srck)
            taps *= self._halo_wk
            np.sum(taps, axis=0, out=row)
        ghosts = ghosts.T.reshape((-1,) + comp)
        if kind == "deg1":
            ghosts *= self._halo_znorm.reshape((-1,) + trail)
        ext = np.empty((6, E, E) + comp, dtype=float)
        ext[:, H:-H, H:-H] = values
        ext.reshape((6 * E * E,) + comp)[self._halo_dst] = ghosts
        return ext

    # ---------- stencils ----------

    @staticmethod
    def _taps(ext, axis):
        """The five offset views ext[k : k + len - 4] (k = 0..4) along axis."""
        L = ext.shape[axis] - 4
        lead = (slice(None),) * (axis % ext.ndim)
        return [ext[lead + (slice(k, k + L),)] for k in range(5)]

    # d1 and d2 accumulate in place, term by term from the left: the same IEEE
    # operations as c * (a - 8 b + 8 d - e) and c * (-a + 16 b - 30 m + 16 d - e)
    # (16 b - a rounds as -a + 16 b); out, when given, receives the result

    def d1(self, ext, axis, out=None):
        """4th-order first derivative along array axis (chart axis 1 or 2), consumes the halo."""
        a, b, _, d, e = self._taps(ext, axis)
        out = np.multiply(b, 8, out=out)
        np.subtract(a, out, out=out)
        out += 8 * d
        out -= e
        out *= 1.0 / (12.0 * self.h)
        return out

    def d2(self, ext, axis, out=None):
        a, b, m, d, e = self._taps(ext, axis)
        out = np.multiply(b, 16, out=out)
        out -= a
        out -= 30 * m
        out += 16 * d
        out -= e
        out *= 1.0 / (12.0 * self.h ** 2)
        return out

    def _hessian(self, ext, e1, a=1):
        """The chart Hessian (2, 2, ...) on the interior nodes of ext, chart axes a
        and a + 1, from ext and its d1 e1 along a, each stencil written in its slot."""
        D2 = np.empty((2, 2) + _interior(e1, a + 1).shape)
        self.d2(_interior(ext, a + 1), a, out=D2[0, 0])
        self.d1(e1, a + 1, out=D2[0, 1])
        D2[1, 0] = D2[0, 1]
        self.d2(_interior(ext, a), a + 1, out=D2[1, 1])
        return D2

    def _jet(self, ext, a=1):
        """(gradient (2, ...), Hessian (2, 2, ...)) on the interior nodes of ext,
        chart axes a and a + 1, component-first."""
        e1 = self.d1(ext, a)
        D2 = self._hessian(ext, e1, a)
        Du = np.empty((2,) + D2.shape[2:])
        Du[0] = _interior(e1, a + 1)
        self.d1(_interior(ext, a), a + 1, out=Du[1])
        return Du, D2

    def graph_jet(self, u):
        """(Du, D^2 u) of graph values through one deg1 halo, component-first:
        (2,6,M,M) and graph_hessian(u)'s (2,2,6,M,M) (a batch axis last)."""
        return self._jet(self.extend(u, kind="deg1"))

    def graph_hessian(self, u):
        """Chart Hessian D^2 u of graph values, component-first (2,2,6,M,M) (or (2,2,6,M,M,B)).

        Builds only the second derivatives (f_1 and f_2 are not needed).
        """
        ext = self.extend(u, kind="deg1")
        return self._hessian(ext, self.d1(ext, 1))

    @staticmethod
    def spectrum(D2):
        """(det, min, max eigenvalue) of symmetric 2x2 fields, component-first,
        closed form: one determinant, and the eigenpair from it."""
        det = D2[0, 0] * D2[1, 1] - D2[0, 1] * D2[1, 0]
        half = (D2[0, 0] + D2[1, 1]) / 2
        disc = np.sqrt(np.maximum(half ** 2 - det, 0.0))
        return det, half - disc, half + disc

    def to_frame(self, D2):
        """Orthonormal-frame components of b = hess s + s id: w P^{-T} D2 P^{-1}.

        Takes and returns component-first fields, (2,2,6,M,M) or (2,2,6,M,M,B).
        """
        batch = (1,) * (D2.ndim - 5)
        Pi = self.frameP_inv.reshape(self.frameP_inv.shape + batch)
        D2P = np.einsum("cd...,db...->cb...", D2, Pi)
        b = np.einsum("ca...,cb...->ab...", Pi, D2P)
        b *= self.w.reshape(self.shape + batch)
        return b

    def chart_jet(self, X):
        """(X_i, X_ij) of an ambient-valued field X (3,6,M,M), component-first: (2,3,6,M,M)
        and (2,2,3,6,M,M), from stencils on the stack of its components' scalar extends."""
        return self._jet(np.array([self.extend(c) for c in X]), 2)

    def d1_face(self, values, axis):
        """4th-order chart derivative from same-face values only.

        Centered stencils inside, one-sided closures in the two edge layers.
        Derived per-chart fields (metric entries, log densities, tensor
        components) carry their own chart's truncation error; a halo ghost of
        such a field holds the neighbor chart's error instead, so a centered
        stencil across the seam degrades to ~O(h^2). Staying on-face keeps
        uniform 4th order. (The primary field u is extended exactly, so its
        derivatives still use the halo versions above.)
        """
        v = np.moveaxis(np.asarray(values, dtype=float), axis, -1)
        out = np.empty_like(v)
        c = 1.0 / (12.0 * self.h)
        out[..., 2:-2] = self.d1(v, -1)
        taps = v[..., _EDGE_TAPS]
        edge = _EDGE_COEF[0] * taps[..., 0, :]
        for k in range(1, 5):
            edge += _EDGE_COEF[k] * taps[..., k, :]
        out[..., [0, 1, -2, -1]] = edge * np.array([c, c, -c, -c])
        return np.moveaxis(out, -1, axis)

    def partials(self, stack):
        """(d/dy1, d/dy2) of every component of a component-first stack of per-chart
        fields (k, 6, M, M) or (k, 6, M, M, B), on-face stencils: (2, k, ...),
        [l, c] the derivative of component c along chart axis l."""
        return np.array([self.d1_face(stack, 2), self.d1_face(stack, 3)])

    # ---------- orthonormal tangent frames ----------

    def _build_frames(self):
        # Gram-Schmidt the projected chart tangents at every node; P[a,i] = e_a . t_i
        # converts chart Hessians to orthonormal-frame components (|det P| = 1/w)
        p = self.nodes                                      # (6,M,M,3)
        t1 = np.broadcast_to(self.tangents[:, None, None, 0, :], p.shape)
        t2 = np.broadcast_to(self.tangents[:, None, None, 1, :], p.shape)
        v1 = t1 - np.einsum("...k,...k->...", t1, p)[..., None] * p
        e1 = v1 / np.linalg.norm(v1, axis=-1, keepdims=True)
        v2 = t2 - np.einsum("...k,...k->...", t2, p)[..., None] * p
        v2 = v2 - np.einsum("...k,...k->...", v2, e1)[..., None] * e1
        e2 = v2 / np.linalg.norm(v2, axis=-1, keepdims=True)
        P = np.stack([np.stack([np.einsum("...k,...k->...", e1, t1),
                                np.einsum("...k,...k->...", e1, t2)], -1),
                      np.stack([np.einsum("...k,...k->...", e2, t1),
                                np.einsum("...k,...k->...", e2, t2)], -1)], -2)
        det = P[..., 0, 0] * P[..., 1, 1] - P[..., 0, 1] * P[..., 1, 0]
        # component-first (2,2,6,M,M), the layout to_frame contracts in
        self.frameP_inv = np.array([[P[..., 1, 1], -P[..., 0, 1]],
                                    [-P[..., 1, 0], P[..., 0, 0]]]) / det

    # ---------- duplicate (shared edge/corner) nodes ----------

    def _build_duplicate_map(self):
        # nodes sharing a rounded direction form a group; its lowest flat index
        # is the source. Only chart-boundary nodes can share a direction, so
        # only they are grouped. "+ 0.0" turns -0.0 into 0.0: np.unique compares
        # rows by their bytes, so the two zeros would otherwise split a group
        edge = np.zeros((6, self.M, self.M), dtype=bool)
        edge[:, [0, -1], :] = True
        edge[:, :, [0, -1]] = True
        flat = np.flatnonzero(edge)
        key = np.round(self.nodes.reshape(-1, 3)[flat], 12) + 0.0
        _, first, inverse = np.unique(key, axis=0, return_index=True,
                                      return_inverse=True)
        src = flat[first[inverse.reshape(-1)]]
        dup = src != flat
        self._dup_src = src[dup]
        self._dup_dst = flat[dup]

    def sync_duplicates(self, u):
        """Copy the first-face s onto duplicate edge/corner nodes of graph values u.

        In place; the copy is rescaled by w so the duplicates agree in s = u / w,
        which keeps the six charts consistent after independent per-face updates.
        """
        uf = u.reshape(-1)
        wf = self.w.reshape(-1)
        uf[self._dup_dst] = wf[self._dup_dst] * (uf[self._dup_src] / wf[self._dup_src])
        return u

    # ---------- maximum ----------

    def refine_max(self, values):
        """(flat node index, value) of the node maximum, in values' batch shape."""
        rows = snapshot_rows(self, values)
        where = np.argmax(rows, axis=1)
        return (in_batch_shape(self, values, where),
                in_batch_shape(self, values, rows[np.arange(len(rows)), where]))

    def value_at(self, values, where):
        """Each snapshot's value at its flat node index where, in values' batch shape."""
        rows = snapshot_rows(self, values)
        return in_batch_shape(self, values, rows[np.arange(len(rows)), where])

    # ---------- interpolation at arbitrary directions ----------

    def interpolate_at_directions(self, values, dirs):
        """Evaluate a per-node scalar field at unit directions (..., 3), one
        result per direction."""
        dirs = np.asarray(dirs, dtype=float)
        _, _, src, w1, w2 = self._stencil(dirs.reshape(-1, 3))
        out = np.einsum("qa,qb,qab->q", w1, w2, np.reshape(values, -1)[src])
        return out.reshape(dirs.shape[:-1])[()]


# n -> (grid class, smallest resolution, odd resolution only, node-array shape)
_GRIDS = {1: (CircleGrid, 16, False, lambda r: (r,)),
         2: (CubedSphereGrid, 17, True, lambda r: (6, r, r))}


def grid_shape(n, resolution):
    """Node-array shape of make_grid(n, resolution), found without building the grid.

    The one statement of the resolution rule: ConfigError for an n or
    resolution that is not an integer (JSON true loads as a bool, which is an
    int), an n other than 1 or 2, and a resolution below the grid's floor or,
    on the cubed sphere, even. The grid constructors, config validation and
    snapshot headers all run it.
    """
    for name, v in (("n", n), ("resolution", resolution)):
        if isinstance(v, bool) or not isinstance(v, int):
            raise ConfigError(f"{name} must be an integer, got {v!r}")
    if n not in _GRIDS:
        raise ConfigError(f"n must be 1 or 2, got {n}")
    _, least, odd, shape = _GRIDS[n]
    if resolution < least or (odd and resolution % 2 == 0):
        raise ConfigError(f"n={n} needs {'odd ' if odd else ''}resolution >= {least}, "
                          f"got {resolution}")
    return shape(resolution)


_SHARED = {}   # (n, resolution) -> the process's one grid from make_grid
# np.take copies a read-only index array on every call, which made the M=33
# halo gather 8x slower, so the gather's index table is left writable
_TAKE_INDICES = ("_halo_srck",)


def _freeze(value):
    """Mark every ndarray in value, or in a tuple or dict of them, read-only."""
    if isinstance(value, np.ndarray):
        value.setflags(write=False)
    elif isinstance(value, (tuple, dict)):
        for v in (value.values() if isinstance(value, dict) else value):
            _freeze(v)


def make_grid(n, resolution):
    """Grid factory; resolution is N for n=1 and per-face M for n=2.

    One grid per (n, resolution) per process: the first call builds it and
    freezes every array it holds but _TAKE_INDICES, so later calls share it
    read-only. A grid is a pure function of (n, resolution).
    The arguments pass grid_shape before the lookup, so True or 64.0 never
    meet the grid of 1 or 64. A private, writable grid is CircleGrid(N) or
    CubedSphereGrid(M).
    """
    grid_shape(n, resolution)
    grid = _SHARED.get((n, resolution))
    if grid is None:
        grid = _GRIDS[n][0](resolution)
        _freeze({k: v for k, v in vars(grid).items() if k not in _TAKE_INDICES})
        _SHARED[n, resolution] = grid
    return grid
