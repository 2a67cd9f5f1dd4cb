"""Support-function fields, the induced embedding, and curvature data.

A convex body containing the origin is described by its support function s on
the unit sphere.  The master unknown is the per-chart graph value u = w * s:
on the cubed sphere w = sqrt(1 + |y|^2), because the Hessian D^2 u of the
1-homogeneous extension is exactly what both the curvature matrix and the flow
right-hand side need; on the circle w = 1 and u = s.
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

    def copy(self):
        return SupportField(self.grid, u=self.u.copy())

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


def embed(field):
    """Map support values to surface points X = s p + grad s, component-first.

    n=1 returns X (2,N); n=2 returns X (3,6,M,M) in ambient coordinates. A
    batch gets its batch axis last.
    """
    g = field.grid
    if field.n == 1:
        p = field.at_nodes(g.radial)
        return field.s * p + g.deriv(field.s, 1) * np.stack([-p[1], p[0]])
    u1, u2 = g.chart_gradient(field.u, kind="deg1")
    t1, t2, a = field.at_nodes(g.face_basis)
    Y1, Y2 = field.at_nodes(g.Y1), field.at_nodes(g.Y2)
    return u1 * t1 + u2 * t2 + (field.u - Y1 * u1 - Y2 * u2) * a


def curvature_matrix(field):
    """Frame components of b = hess s + s id (SPD iff the body is convex).

    n=1 returns the scalar b = s + s''.  n=2 returns component-first (2,2,6,M,M)
    in the orthonormal tangent frame: b = w * P^{-T} (D^2 u) P^{-1}.
    """
    g = field.grid
    return g.to_frame(g.graph_hessian(field.u))


def convexity_margin(field):
    """Smallest graph-Hessian eigenvalue over the grid; > 0 means strictly convex."""
    g = field.grid
    _, lo, _ = g.spectrum(g.graph_hessian(field.u))
    return float(np.min(lo))


def gradient_norm(field, X=None):
    """Per-node |grad s| = |X - s p| on the sphere (tangential gradient).

    X is the field's embedding when the caller already has it.
    """
    if X is None:
        X = embed(field)
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
