"""Tour of the centro-affine invariant stack on three bodies.

For a convex hypersurface presented by its support function, the package
computes the centro-affine metric g, the cubic (difference) tensor C, the
Tchebychev field T = (1/n) trace C, the Tchebychev function psi, the
equi-affine support rho, the centro-affine mean curvature H, and for
surfaces the Pick invariant J and normalized curvature chi.  A web of
identities ties the stack together; the stack reports its own residuals
and this script prints them for

  1. an origin-centered ellipse, where C and T must vanish and rho must be
     constant (the proper affine sphere case),
  2. a flower curve, where everything is honestly nonzero,
  3. a perturbed sphere (n = 2), exercising the cubed-sphere pipeline.
"""

import numpy as np

from centroflow.grids import CircleGrid, CubedSphereGrid
from centroflow.invariants import compute_invariants
from centroflow.support import SupportField, ellipsoid_support, fourier_support


def banner(title):
    print(f"\n--- {title} ---")


def stats(name, arr):
    arr = np.asarray(arr)
    print(f"  {name:12s} min {np.min(arr):+.6e}   max {np.max(arr):+.6e}")


def residuals(iv):
    print(f"  Gauss reconstruction  {iv.residual_gauss_cross:.3e}")
    print(f"  C total symmetry      {iv.residual_C_symmetry:.3e}")
    print(f"  T vs grad log psi/rho {iv.residual_relsupport:.3e}")


def main():
    print("=== the invariant stack, body by body ===")

    banner("ellipse 2:1 (proper affine sphere)")
    grid = CircleGrid(256)
    iv = compute_invariants(ellipsoid_support(grid, np.diag([4.0, 1.0])))
    stats("|C|^2", iv.norm_C2)
    stats("|T|^2", iv.norm_T2)
    stats("rho", iv.rho)       # constant = (ab)^(2/3) = 2^(2/3)
    stats("H", iv.H)
    print(f"  area = {iv.area:.10f}  (2 pi = {2 * np.pi:.10f}; "
          "ellipsoids saturate the isoperimetric bound)")
    residuals(iv)

    banner("flower 1 + 0.1 cos(3 theta)")
    iv = compute_invariants(fourier_support(grid, 1.0, a=[0.0, 0.0, 0.1]))
    stats("g_theta", iv.g[0, 0])
    stats("|C|^2", iv.norm_C2)
    stats("|T|^2", iv.norm_T2)
    stats("psi", iv.psi)
    stats("rho", iv.rho)
    stats("H", iv.H)
    print(f"  area = {iv.area:.10f}  (< 2 pi, strictly, off the ellipse)")
    residuals(iv)
    # n=1 closed forms as a cross-check of the frame pipeline:
    # g = (s + s'')/s, psi = 1/(s^3 (s + s''))
    f = fourier_support(grid, 1.0, a=[0.0, 0.0, 0.1])
    b = grid.deriv(f.s, 2) + f.s
    print(f"  closed-form g  err    "
          f"{np.max(np.abs(iv.g[0, 0] - b / f.s)):.3e}")
    print(f"  closed-form psi err   "
          f"{np.max(np.abs(iv.psi - 1.0 / (f.s ** 3 * b))):.3e}")

    banner("perturbed sphere 1 + 0.3 xyz (n = 2)")
    gs = CubedSphereGrid(33)
    iv = compute_invariants(SupportField(gs, s=1.0 + 0.3 * np.prod(gs.nodes, -1)))
    stats("|C|^2", iv.norm_C2)
    stats("|T|^2", iv.norm_T2)
    stats("psi", iv.psi)
    stats("rho", iv.rho)
    stats("Pick J", iv.J)
    stats("chi", iv.chi)
    print(f"  area = {iv.area:.10f}  (4 pi = {4 * np.pi:.10f})")
    residuals(iv)


if __name__ == "__main__":
    main()
