"""Closed-form reference solutions and the ellipsoid fitter.

Spheres and origin-centered ellipsoids evolve by pure scaling with explicit
double-exponential factors; those laws plus the self-similarity residual give
independent ground truth for the time stepper.  The least-squares ellipsoid
fit quantifies how round a body is (roundness -> 0 exactly when the support
function comes from an origin-centered ellipsoid).
"""

import numpy as np

from .errors import FitDegenerate
from .support import SupportField

SPD_FLOOR = 1e-12


class EllipsoidSpec:
    """Shape matrix Q (s(x)^2 = x^T Q x), semi-axes, and equi-affine constant."""

    def __init__(self, Q, degenerate=False):
        Q = np.asarray(Q, dtype=float)
        self.Q = 0.5 * (Q + Q.T)
        evals = np.linalg.eigvalsh(self.Q)
        self.semi_axes = np.sqrt(np.maximum(evals, 0.0))
        n = Q.shape[0] - 1
        self.rho0 = float(np.prod(self.semi_axes) ** (2.0 / (n + 2)))
        self.degenerate = degenerate


def exact_ellipsoid_factor(rho0, t, n):
    """Scaling factor of an ellipsoid solution,
    factor(t) = rho0^(((n+2)/(2(n+1))) (exp(((n+1)/n) t) - 1))."""
    if rho0 <= 0:
        raise ValueError("rho0 must be positive")
    t = np.asarray(t, dtype=float)
    expo = (n + 2.0) / (2.0 * (n + 1.0)) * (np.exp((n + 1.0) / n * t) - 1.0)
    out = rho0 ** expo
    return float(out) if out.ndim == 0 else out


def exact_sphere_radius(R0, t, n):
    """R(t) = R0^(exp(((n+1)/n) t)), the sphere solution of R' = ((n+1)/n) R log R."""
    if R0 <= 0:
        raise ValueError("R0 must be positive")
    t = np.asarray(t, dtype=float)
    out = R0 ** np.exp((n + 1.0) / n * t)
    return float(out) if out.ndim == 0 else out


def self_similar_residual(s, K, n):
    """sup-norm of exp(-2n/(n+2)) K^(1/(n+2)) - s (zero iff self-similar profile)."""
    res = np.exp(-2.0 * n / (n + 2.0)) * np.asarray(K) ** (1.0 / (n + 2)) - s
    return float(np.max(np.abs(res)))


def best_fit_ellipsoid(field):
    """Weighted least squares of s(x)^2 ~= x^T Q x over the grid nodes.

    Returns (EllipsoidSpec, roundness) with
    roundness = ||s - sqrt(x^T Q x)||_2 / ||s||_2 (quadrature-weighted L2).
    A fit whose eigenvalues dip below the SPD floor is clamped and flagged
    degenerate rather than raised, so trend series keep flowing.
    """
    grid = field.grid
    dim = grid.n + 1
    x = grid.nodes.reshape(-1, dim)
    wq = grid.weights.reshape(-1)
    s2 = (field.s ** 2).reshape(-1)
    # design columns: x_i^2 then 2 x_i x_j (i<j), matching symmetric Q entries
    cols = [x[:, i] ** 2 for i in range(dim)]
    pairs = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
    cols += [2.0 * x[:, i] * x[:, j] for (i, j) in pairs]
    A = np.stack(cols, axis=-1)
    Aw = A * wq[:, None]
    coef, *_ = np.linalg.lstsq(Aw.T @ A, Aw.T @ s2, rcond=None)
    Q = np.zeros((dim, dim))
    for i in range(dim):
        Q[i, i] = coef[i]
    for k, (i, j) in enumerate(pairs):
        Q[i, j] = Q[j, i] = coef[dim + k]
    evals, evecs = np.linalg.eigh(Q)
    degenerate = bool(np.min(evals) < SPD_FLOOR)
    if degenerate:
        evals = np.maximum(evals, SPD_FLOOR)
        Q = (evecs * evals) @ evecs.T
    spec = EllipsoidSpec(Q, degenerate=degenerate)
    fit_s = np.sqrt(np.einsum("qi,ij,qj->q", x, spec.Q, x))
    num = np.sqrt(np.sum(wq * (field.s.reshape(-1) - fit_s) ** 2))
    den = np.sqrt(np.sum(wq * field.s.reshape(-1) ** 2))
    roundness = float(num / den)
    return spec, roundness


def require_fit(spec):
    if spec.degenerate:
        raise FitDegenerate("ellipsoid fit left the SPD cone")
    return spec
