"""Support-function fields, the induced embedding, and curvature data.

A convex body containing the origin is described by its support function s on
the unit sphere.  The master unknown is the per-chart graph value u = w * s:
on the cubed sphere w = sqrt(1 + |y|^2), because the Hessian D^2 u of the
1-homogeneous extension is exactly what both the curvature matrix and the flow
right-hand side need; on the circle w = 1 and u = s. The embedding
X = s p + grad s and the curvature b = hess s + s id are the first and second
derivatives of the same u: both read one grid.graph_jet(u), (Du, D^2 u).
"""

import numpy as np

from .errors import ConfigError, GridError


class SupportField:
    """Support function s sampled on a grid, with its graph values u = w * s.

    The values have the grid's shape, or one more trailing batch axis with a
    snapshot per column (grid.shape + (B,)). batch_shape, () or (B,), is the
    shape of every per-snapshot result (grids: result shapes). Only
    diagnostics.SeriesBundle builds a batch; the flow and the snapshot writer
    refuse one (require_single).
    """

    def __init__(self, grid, s=None, u=None):
        self.grid = grid
        self.n = grid.n
        if s is None and u is None:
            raise GridError("support field needs s or u values")
        vals = np.asarray(s if u is None else u, dtype=float)
        self.batch_shape = vals.shape[len(grid.shape):]
        if vals.shape != grid.shape + self.batch_shape[:1] or 0 in self.batch_shape:
            raise GridError(f"expected shape {grid.shape} or {grid.shape} + (batch,), "
                            f"got {vals.shape}")
        w = self.at_nodes(grid.w)
        self.u = vals if u is not None else w * vals
        self.s = self.u / w

    def at_nodes(self, const):
        """A grid constant (component axes, then node axes) as a view that
        broadcasts against this field: a trailing length-1 axis stands for the batch axis."""
        return const[(...,) + (None,) * len(self.batch_shape)]

    # the flow calls these every step, so they keep the method form; a min or
    # max is exact in any order, so no snapshot needs its own row

    def min_s(self):
        """min s over the node axes, in the field's batch shape."""
        return self.s.min(axis=self.grid.node_axes)

    def max_s(self):
        """max s over the node axes, in the field's batch shape."""
        return self.s.max(axis=self.grid.node_axes)


def require_single(field):
    """GridError unless the field holds one snapshot (values of grid.shape)."""
    if field.batch_shape:
        raise GridError(f"expected one snapshot of shape {field.grid.shape}, "
                        f"got a batch of {field.batch_shape[0]}")


def ellipsoid_shape_matrix(Q, dim):
    """Q as a float array; ConfigError unless Q is a dim x dim SPD matrix.

    Symmetric means equal to its transpose within 1e-12 of its largest entry
    (or of 1).
    """
    try:
        Q = np.asarray(Q, dtype=float)
    except (TypeError, ValueError) as exc:  # ragged rows
        raise ConfigError(f"ellipsoid matrix must be {dim}x{dim}: {exc}")
    if Q.shape != (dim, dim):
        raise ConfigError(f"ellipsoid matrix must be {dim}x{dim}, got {Q.shape}")
    if np.max(np.abs(Q - Q.T)) > 1e-12 * max(1.0, np.max(np.abs(Q))):
        raise ConfigError("ellipsoid matrix must be symmetric")
    if np.min(np.linalg.eigvalsh(0.5 * (Q + Q.T))) <= 0:
        raise ConfigError("ellipsoid matrix must be positive definite")
    return Q


def ellipsoid_support(grid, Q):
    """Support field of the ellipsoid with s(p) = sqrt(p^T Q p), Q SPD.

    For semi-axes a_i along the coordinate axes, Q = diag(a_i^2).
    """
    Q = ellipsoid_shape_matrix(Q, grid.n + 1)
    p = grid.nodes
    s = np.sqrt(np.einsum("...i,ij,...j->...", p, Q, p))
    return SupportField(grid, s=s)


def fourier_support(grid, c0, a=(), b=()):
    """Circle support field s(theta) = c0 + sum_k a_k cos(k theta) + b_k sin(k theta).

    List index i corresponds to harmonic k = i + 1.
    """
    if grid.n != 1:
        raise ConfigError("fourier initial data is only defined on the circle")
    th = grid.thetas
    s = np.full(grid.N, float(c0))
    for i, ak in enumerate(a):
        s += float(ak) * np.cos((i + 1) * th)
    for i, bk in enumerate(b):
        s += float(bk) * np.sin((i + 1) * th)
    return SupportField(grid, s=s)


def embed(field, jet):
    """Surface points X = s p + grad s, component-first, from jet = grid.graph_jet(u).

    Over each node's graph chart (t, a, y) (grids.graph_chart), X = sum_j u_j t_j
    + (u - y . Du) a: (2, N) on the circle, (3, 6, M, M) ambient on the cubed
    sphere; a batch gets its batch axis last."""
    Du = jet[0]
    t, a, y = (field.at_nodes(c) for c in field.grid.graph_chart)
    X = Du[0] * t[0]
    intercept = field.u - y[0] * Du[0]   # of the tangent plane of the graph at y = 0
    for Du_j, t_j, y_j in zip(Du[1:], t[1:], y[1:]):
        X += Du_j * t_j
        intercept -= y_j * Du_j
    X += intercept * a
    return X


def curvature_matrix(field, jet):
    """Frame components of b = hess s + s id (SPD iff convex), from jet = grid.graph_jet(u).

    n=1 returns the scalar b = s + s''. n=2 returns component-first
    (2,2,6,M,M) in the orthonormal tangent frame: b = w * P^{-T} (D^2 u) P^{-1}.
    """
    return field.grid.to_frame(jet[1])


def convexity_margin(field):
    """Smallest graph-Hessian eigenvalue over the grid; > 0 means strictly convex."""
    g = field.grid
    _, lo, _ = g.spectrum(g.graph_hessian(field.u))
    return float(np.min(lo))


def gradient_norm(field, X):
    """Per-node |grad s| = |X - s p| on the sphere (tangential gradient), X the
    field's embedding."""
    return np.linalg.norm(X - field.s * field.at_nodes(field.grid.radial), axis=0)


def apply_linear_map(field, A):
    """Support field of the image body A . K, resampled on the same grid.

    Uses s_A(p) = |A^T p| * s(A^T p / |A^T p|) and grid interpolation
    (trigonometric on the circle, degree-7 stencils on the sphere).
    """
    g = field.grid
    A = np.asarray(A, dtype=float)
    dim = field.n + 1
    if A.shape != (dim, dim):
        raise ConfigError(f"linear map must be {dim}x{dim}")
    if abs(np.linalg.det(A)) < 1e-14:
        raise ConfigError("linear map must be invertible")
    q = g.nodes @ A                      # rows: A^T p
    qn = np.linalg.norm(q, axis=-1)
    return SupportField(g, s=qn * g.interpolate_at_directions(field.s, q / qn[..., None]))
