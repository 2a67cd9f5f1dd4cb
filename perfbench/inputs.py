"""Seeded initial data for the benchmark workloads.

The program never sees a seed: n=2 bodies reach it as a snapshot file
(``initial.kind: "file"``) and n=1 curves as Fourier coefficient lists
(``initial.kind: "fourier"``). A draw is redrawn only when it fails the
convexity margin; diagnostic verdicts never cause a redraw.
"""

import numpy as np

from centroflow.grids import make_grid
from centroflow.support import SupportField, convexity_margin, fourier_support

# Fixed spectrum of the n=2 shape matrix (condition 1.87 <= 2), with the
# axes on the cube grid's axes. The explicit step is bounded by the body's
# aspect ratio and, on the cubed sphere, by where its long axis points, so a
# seeded spectrum or a free rotation would make the step count, and with it
# the work of a run, vary by up to 20% between seeds. The seed draws which
# axis gets which semi-axis (a symmetry of the grid) and the perturbation.
SURFACE_SPECTRUM = (0.75, 1.0, 1.4)
SURFACE_EPS = 0.03          # size of the polynomial perturbation, max |P| = 1
CURVE_AMPLITUDE = 0.04      # Fourier coefficient scale: |c_k| ~ A k^-2
CURVE_MODES = 8
MARGIN_FRAC = 0.5           # convexity margin, as a share of the unperturbed one
MAX_DRAWS = 100


def rng_for(seed, stream):
    """Independent generator per (seed, stream name)."""
    key = [int(b) for b in stream.encode()]
    return np.random.default_rng(np.random.SeedSequence([int(seed)] + key))


def _monomials(p):
    """Monomials of degree 1..3 in the components of unit directions p."""
    x, y, z = p[..., 0], p[..., 1], p[..., 2]
    lin = [x, y, z]
    quad = [a * b for i, a in enumerate(lin) for b in lin[i:]]
    cub = [a * b * c for i, a in enumerate(lin) for j, b in enumerate(lin[i:], i)
           for c in lin[j:]]
    return np.stack(lin + quad + cub, axis=-1)


def surface_support(seed, M, stream="surface"):
    """SupportField of a seeded convex body on the M grid, and its shape matrix.

    s(p) = sqrt(p^T Q p) * (1 + eps * P(p)), Q diagonal with a seeded
    permutation of SURFACE_SPECTRUM, P a seeded polynomial of degree <= 3 in p
    scaled to max |P| = 1 on the grid. Its linear part moves the body off the
    origin.
    """
    grid = make_grid(2, M)
    p = grid.nodes
    mono = _monomials(p)
    rng = rng_for(seed, stream)
    for _ in range(MAX_DRAWS):
        Q = np.diag(rng.permutation(np.asarray(SURFACE_SPECTRUM)))
        base = SupportField(grid, s=np.sqrt(np.einsum("...i,ij,...j->...", p, Q, p)))
        poly = mono @ rng.standard_normal(mono.shape[-1])
        poly /= np.max(np.abs(poly))
        field = SupportField(grid, s=base.s * (1.0 + SURFACE_EPS * poly))
        if convexity_margin(field) > MARGIN_FRAC * convexity_margin(base):
            return field, Q
    raise RuntimeError(f"no convex surface draw for seed {seed} in {MAX_DRAWS} tries")


def curve_params(seed, N, stream="curve"):
    """Fourier parameters {c0, a, b} of a seeded convex curve.

    a_k, b_k = A g / k^2 with standard normal g for harmonics k = 1..CURVE_MODES;
    the k = 1 pair moves the curve off the origin.
    """
    grid = make_grid(1, N)
    k = np.arange(1, CURVE_MODES + 1)
    rng = rng_for(seed, stream)
    for _ in range(MAX_DRAWS):
        a = CURVE_AMPLITUDE * rng.standard_normal(CURVE_MODES) / k**2
        b = CURVE_AMPLITUDE * rng.standard_normal(CURVE_MODES) / k**2
        params = {"c0": 1.0, "a": [float(v) for v in a], "b": [float(v) for v in b]}
        field = fourier_support(grid, 1.0, a=params["a"], b=params["b"])
        if convexity_margin(field) > MARGIN_FRAC * params["c0"]:
            return params
    raise RuntimeError(f"no convex curve draw for seed {seed} in {MAX_DRAWS} tries")


def ellipsoid_matrix(seed, n, stream="oracle"):
    """Seeded origin-centred SPD shape matrix with condition <= 2."""
    rng = rng_for(seed, stream)
    dim = n + 1
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    q = q * np.sign(np.diag(r))
    evals = rng.uniform(0.8, 1.6, dim)
    Q = (q * evals) @ q.T
    Q = 0.5 * (Q + Q.T)
    return [[float(v) for v in row] for row in Q]
