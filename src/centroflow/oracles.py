"""Closed-form reference solutions and the ellipsoid fitter.

Spheres and origin-centered ellipsoids evolve by pure scaling with explicit
double-exponential factors; those laws plus the self-similarity residual give
independent ground truth for the time stepper.  The least-squares ellipsoid
fit quantifies how round a body is (roundness -> 0 exactly when the support
function comes from an origin-centered ellipsoid).
"""

import weakref

import numpy as np

from .grids import in_batch_shape, snapshot_rows

SPD_FLOOR = 1e-12


class EllipsoidSpec:
    """Shape matrix Q (s(x)^2 = x^T Q x), semi-axes, and equi-affine constant;
    each gets a trailing batch axis (B,) when Q is (dim, dim, B)."""

    def __init__(self, Q, degenerate=False):
        Q = np.asarray(Q, dtype=float)
        self.Q = 0.5 * (Q + Q.swapaxes(0, 1))
        evals = np.linalg.eigvalsh(np.moveaxis(self.Q, (0, 1), (-2, -1)))
        self.semi_axes = np.moveaxis(np.sqrt(np.maximum(evals, 0.0)), -1, 0)
        n = Q.shape[0] - 1
        self.rho0 = np.prod(self.semi_axes, axis=0) ** (2.0 / (n + 2))
        self.degenerate = degenerate


def exact_ellipsoid_factor(rho0, t, n):
    """Scaling factor of an ellipsoid solution,
    factor(t) = rho0^(((n+2)/(2(n+1))) (exp(((n+1)/n) t) - 1))."""
    if rho0 <= 0:
        raise ValueError("rho0 must be positive")
    t = np.asarray(t, dtype=float)
    expo = (n + 2.0) / (2.0 * (n + 1.0)) * (np.exp((n + 1.0) / n * t) - 1.0)
    return rho0 ** expo


def exact_sphere_radius(R0, t, n):
    """R(t) = R0^(exp(((n+1)/n) t)), the sphere solution of R' = ((n+1)/n) R log R."""
    if R0 <= 0:
        raise ValueError("R0 must be positive")
    return R0 ** np.exp((n + 1.0) / n * np.asarray(t, dtype=float))


def self_similar_residual(s, K, n):
    """sup-norm of exp(-2n/(n+2)) K^(1/(n+2)) - s (zero iff self-similar profile)."""
    res = np.exp(-2.0 * n / (n + 2.0)) * np.asarray(K) ** (1.0 / (n + 2)) - s
    return float(np.max(np.abs(res)))


_DESIGNS = weakref.WeakKeyDictionary()   # grid -> its fit design, dropped with the grid


def _design(grid):
    """(nodes x (L, dim), weights wq, (A W)^T, normal matrix A^T W A, slot) of
    the fit on grid, built once per grid. The design columns are x_i^2, then
    2 x_i x_j for the pairs (i<j), matching the symmetric entries of Q:
    Q[i, j] is the coefficient slot[i, j]."""
    if grid not in _DESIGNS:
        dim = grid.n + 1
        x = grid.nodes.reshape(-1, dim)
        wq = grid.weights.reshape(-1)
        pairs = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
        A = np.stack([x[:, i] ** 2 for i in range(dim)]
                     + [2.0 * x[:, i] * x[:, j] for (i, j) in pairs], axis=-1)
        Aw = A * wq[:, None]
        slot = np.diag(np.arange(dim))
        for k, (i, j) in enumerate(pairs):
            slot[i, j] = slot[j, i] = dim + k
        _DESIGNS[grid] = x, wq, Aw.T, Aw.T @ A, slot
    return _DESIGNS[grid]


def best_fit_ellipsoid(field):
    """Weighted least squares of s(x)^2 ~= x^T Q x over the grid nodes.

    Returns (EllipsoidSpec, roundness) with
    roundness = ||s - sqrt(x^T Q x)||_2 / ||s||_2 (quadrature-weighted L2).
    A fit whose eigenvalues dip below the SPD floor is clamped and flagged
    degenerate rather than raised, so trend series keep flowing. Each snapshot
    is fitted alone against the grid's one design (one matvec and one lstsq
    each); the rest runs on the block's stack of Q, one matrix per snapshot,
    whose LAPACK and einsum calls treat each matrix as they would alone. One
    spec holds them all: roundness, the spec's degenerate and rho0 take the
    field's batch shape, and Q gets it after its (dim, dim).
    """
    grid = field.grid
    x, wq, AwT, normal, slot = _design(grid)
    dim = grid.n + 1
    s = snapshot_rows(grid, field.s)
    coef = np.array([np.linalg.lstsq(normal, AwT @ s2, rcond=None)[0] for s2 in s ** 2])
    Q = coef[:, slot]                                         # (B, dim, dim)
    evals, evecs = np.linalg.eigh(Q)
    degenerate = np.min(evals, axis=1) < SPD_FLOOR
    bad = np.flatnonzero(degenerate)
    if bad.size:
        Q[bad] = (evecs[bad] * np.maximum(evals[bad, None], SPD_FLOOR)) \
            @ evecs[bad].swapaxes(1, 2)
    # symmetrized before the fits: the clamped (evecs * evals) @ evecs.T is not
    # exactly symmetric. The spec's own 0.5 * (Q + Q^T) then keeps every bit
    Q = 0.5 * (Q + Q.swapaxes(1, 2))
    spec = EllipsoidSpec(np.moveaxis(Q, 0, -1).reshape((dim, dim) + field.batch_shape),
                         in_batch_shape(grid, field.s, degenerate))
    fits = np.sqrt(np.einsum("qi,bij,qj->bq", x, Q, x))
    num = np.sqrt(np.sum(wq * (s - fits) ** 2, axis=1))
    den = np.sqrt(np.sum(wq * s ** 2, axis=1))
    return spec, in_batch_shape(grid, field.s, num / den)
