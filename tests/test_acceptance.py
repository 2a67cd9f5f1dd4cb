"""Acceptance gate: twelve numbered criteria, one test and one verdict line each.

Every test prints `acceptance NN <name>: PASS|FAIL [detail]`; run with -s
(e.g. `pytest tests/test_acceptance.py -v -s`) to see the whole verdict
sheet inline, since default capture only shows the lines of failing tests.
Tolerances are pinned here and must not be loosened; the expensive
trajectories are module fixtures shared between criteria.

Criterion 04 (area normalization) has three clauses. The centro-affine area
int sqrt(b/s) dtheta is Lutwak's L_p affine surface area with p = n + 1; its
ceiling |S^n| = 2 pi, attained exactly on origin-centred ellipses, is a
theorem only for bodies whose centroid is at the origin (E. Lutwak, The
Brunn-Minkowski-Firey theory II, Adv. Math. 118, 1996). So:
  (a) an origin-centred ellipse has area 2 pi to 1e-8;
  (b) the centred flower s = 1 + 0.05 cos(3 theta), whose centroid is the
      origin by 3-fold symmetry, lies at least 1e-3 below 2 pi;
  (c) the translated circle s = 1 + 0.3 cos(theta) lies at least 1e-3 above
      2 pi. There b = 1, so its area is int (1 + c cos)^(-1/2) dtheta, which
      exceeds 2 pi for every 0 < c < 1 by Jensen's inequality (t^(-1/2) is
      strictly convex and s has mean 1); the closed form is
      4 K(2c/(1+c)) / sqrt(1+c) = 6.3947794... at c = 0.3, see
      `tests/closed_form_oracle.py`.
"""

import numpy as np
import pytest
from conftest import random_spd

from centroflow.diagnostics import SeriesBundle, classify
from centroflow.flow import StepControl, evolve
from centroflow.grids import CircleGrid, CubedSphereGrid
from centroflow.invariants import compute_invariants
from centroflow.oracles import (
    best_fit_ellipsoid,
    exact_ellipsoid_factor,
    exact_sphere_radius,
    self_similar_residual,
)
from centroflow.support import SupportField, apply_linear_map, ellipsoid_support, fourier_support

LN2_HALF = 0.5 * np.log(2.0)
ROOT2 = np.sqrt(2.0)


def verdict(num, name, ok, detail=""):
    line = f"acceptance {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


def sup_T2(field_or_inv, grid=None):
    inv = field_or_inv if grid else compute_invariants(field_or_inv)
    g = grid or field_or_inv.grid
    if g.n == 1:
        return g.refine_max(inv.norm_T2)[1]
    return float(np.max(inv.norm_T2))


# ---------- shared trajectories ----------

@pytest.fixture(scope="module")
def flower_traj(flower256):
    return evolve(flower256, StepControl(t_end=0.3, snapshot_interval=0.0025))


@pytest.fixture(scope="module")
def flower_bundle(flower_traj):
    return SeriesBundle(flower_traj)


@pytest.fixture(scope="module")
def sphere_trajs(circle256):
    ctl = StepControl(t_end=LN2_HALF, snapshot_interval=LN2_HALF / 4.0)
    return {R: evolve(SupportField(circle256, s=np.full(256, R)), ctl)
            for R in (0.5, 2.0)}


@pytest.fixture(scope="module")
def ellipse_traj(circle256):
    f = ellipsoid_support(circle256, np.diag([4.0, 1.0]))
    return evolve(f, StepControl(t_end=LN2_HALF, snapshot_interval=LN2_HALF / 4.0))


@pytest.fixture(scope="module")
def renorm_traj(flower256):
    return evolve(flower256, StepControl(t_end=3.0, snapshot_interval=0.05),
                  renormalize=True)


@pytest.fixture(scope="module")
def renorm_bundle(renorm_traj):
    return SeriesBundle(renorm_traj)


@pytest.fixture(scope="module")
def perturbed_sphere_traj(sphere33):
    s = 1.0 + 0.3 * np.prod(sphere33.nodes, axis=-1)
    return evolve(SupportField(sphere33, s=s),
                  StepControl(t_end=0.2, snapshot_interval=0.05))


# ---------- criteria ----------

def test_01_unit_spheres_stationary(unit_circle256, unit_sphere33):
    worst = 0.0
    for f in (unit_circle256, unit_sphere33):
        traj = evolve(f, StepControl(t_end=1.0, snapshot_interval=1.0))
        worst = max(worst, max(float(np.max(np.abs(st.field.s - 1.0)))
                               for st in traj.snapshots))
    verdict(1, "unit spheres stationary to t=1", worst <= 1e-8,
            f"sup|s-1| = {worst:.3e} <= 1e-8")


def test_02_round_body_scaling_law(sphere_trajs):
    worst = 0.0
    for R0, traj in sphere_trajs.items():
        for st in traj.snapshots:
            exact = exact_sphere_radius(R0, st.t, 1)
            worst = max(worst, float(np.max(np.abs(st.field.s / exact - 1.0))))
    verdict(2, "double-exponential radius law", worst <= 1e-6,
            f"max rel err {worst:.3e} <= 1e-6 for R0 in {{1/2, 2}} to t=ln2/2")


def test_03_ellipse_scaling_law(ellipse_traj):
    s0 = ellipse_traj.snapshots[0].field.s
    rho0 = 2.0 ** (2.0 / 3.0)  # semi-axes (2, 1)
    worst = 0.0
    for st in ellipse_traj.snapshots:
        factor = exact_ellipsoid_factor(rho0, st.t, 1)
        worst = max(worst, float(np.max(np.abs(st.field.s / (factor * s0) - 1.0))))
    final = ellipse_traj.snapshots[-1]
    factor_meas = final.field.max_s() / float(np.max(s0))
    ok = worst <= 1e-3 and abs(factor_meas - ROOT2) <= 1e-3
    verdict(3, "ellipse scales by the exact factor", ok,
            f"shape err {worst:.3e} <= 1e-3, factor at ln2/2 = {factor_meas:.12f} "
            f"vs sqrt(2) +- 1e-3")


def test_04_area_normalization(circle256, rng):
    Q = random_spd(rng, 2, cond_max=16.0)
    area = compute_invariants(ellipsoid_support(circle256, Q)).area
    err = abs(area - 2.0 * np.pi)
    centred = fourier_support(circle256, 1.0, a=[0.0, 0.0, 0.05])
    deficit = 2.0 * np.pi - compute_invariants(centred).area
    th = circle256.thetas
    translated = SupportField(circle256, s=1.0 + 0.3 * np.cos(th))
    area_t = compute_invariants(translated).area
    excess = area_t - 2.0 * np.pi
    ok = err <= 1e-8 and deficit >= 1e-3 and excess >= 1e-3
    verdict(4, "area is 2 pi on centred ellipses, lower on other centred "
            "bodies, higher on a translated circle", ok,
            f"(a) ellipse err {err:.3e} <= 1e-8; (b) centred-flower deficit "
            f"{deficit:.6f} >= 1e-3; (c) translated-circle excess "
            f"{excess:.6f} >= 1e-3 (area {area_t:.6f})")


def test_05_area_growth_identity(flower_bundle):
    b = flower_bundle
    mono = float(np.min(np.diff(b.area)))
    worst = float(np.nanmax(b.r_area))
    ok = mono >= -1e-10 and worst <= 0.05
    verdict(5, "area grows and matches its production integral", ok,
            f"min increment {mono:.3e} >= -1e-10, worst identity residual "
            f"{worst:.4f} <= 5%")


def test_06_tchebychev_sup_bounds(flower_bundle, sphere_trajs, ellipse_traj,
                                  renorm_bundle, perturbed_sphere_traj):
    worst_excess = -np.inf
    runs = {"flower": flower_bundle.supT2, "renormalized": renorm_bundle.supT2}
    for name, traj in (("sphere_half", sphere_trajs[0.5]),
                       ("sphere_two", sphere_trajs[2.0]),
                       ("ellipse", ellipse_traj)):
        runs[name] = np.array([sup_T2(st.field) for st in traj.snapshots])
    for name, series in runs.items():
        bound = max(4.0, series[0]) + 1e-8
        worst_excess = max(worst_excess, float(np.max(series) - bound))
    n2 = np.array([sup_T2(st.field) for st in perturbed_sphere_traj.snapshots])
    n2_excess = float(np.max(n2) - (max(2.5, n2[0]) + 1e-8))
    ok = worst_excess <= 0.0 and n2_excess <= 0.0
    verdict(6, "sup |T|^2 never exceeds max((n+3)/n, initial)", ok,
            f"worst n=1 excess {worst_excess:.3e}, n=2 excess {n2_excess:.3e}")


def test_07_renormalized_rounding(renorm_bundle):
    b = renorm_bundle
    rt = b.supT2[-1] / b.supT2[0]
    rr = b.roundness[-1] / b.roundness[0]
    ok = rt <= 0.1 and rr <= 0.1
    verdict(7, "renormalized flow rounds out by t=3", ok,
            f"supT2 ratio {rt:.3e} <= 0.1, roundness ratio {rr:.3e} <= 0.1")


def test_08_radius_classification(circle64):
    want = {0.5: "Shrinking", 0.9: "Shrinking", 1.0: "Stationary",
            1.1: "Expanding", 2.0: "Expanding"}
    got = {}
    for R0 in want:
        f = SupportField(circle64, s=np.full(64, R0))
        traj = evolve(f, StepControl(t_end=1.3, snapshot_interval=0.1))
        got[R0] = classify(SeriesBundle(traj))
    ok = got == want
    verdict(8, "radius sweep classifies each fate", ok, f"{got}")


def test_09_consistency_and_equivariance(flower256):
    # (a) the T = grad log(psi, rho) consistency residual must drop by >= 6x
    # per grid doubling (n=2 measured on nodes >= 3 from face edges, where the
    # one-sided closures do not cap the interior order)
    r1 = {}
    for N in (16, 32, 64):
        f = fourier_support(CircleGrid(N), 1.0, a=[0.0, 0.0, 0.1])
        r1[N] = compute_invariants(f).residual_relsupport
    ratios1 = (r1[16] / r1[32], r1[32] / r1[64])
    r2 = {}
    for M in (17, 33, 65):
        g = CubedSphereGrid(M)
        f = SupportField(g, s=1.0 + 0.3 * np.prod(g.nodes, axis=-1))
        inv = compute_invariants(f)
        rp = np.abs(inv.T_low + g.partials(np.log(inv.psi)[None])[:, 0] / 4.0)
        rr = np.abs(inv.T_low - g.partials(np.log(inv.rho)[None])[:, 0])
        core = np.s_[..., 3:M - 3, 3:M - 3]
        r2[M] = max(float(np.max(rp[core])), float(np.max(rr[core])))
    ratios2 = (r2[17] / r2[33], r2[33] / r2[65])
    decay_ok = min(ratios1) >= 6.0 and min(ratios2) >= 6.0

    # (b) psi transforms with (det A)^-2 under any linear map
    A = np.array([[1.15, 0.1], [-0.05, 0.9]])
    g = flower256.grid
    iv = compute_invariants(flower256)
    ivA = compute_invariants(apply_linear_map(flower256, A))
    q = g.nodes @ np.linalg.inv(A)
    pulled = g.interpolate(ivA.psi, np.arctan2(q[:, 1], q[:, 0]))
    gl_err = float(np.max(np.abs(pulled * np.linalg.det(A) ** 2 - iv.psi)))

    # (c) area, sup |T|^2, sup |C|^2 are invariant under volume-preserving maps
    S = np.array([[1.1, 0.15], [0.05, (1 + 0.15 * 0.05) / 1.1]])
    ivS = compute_invariants(apply_linear_map(flower256, S))
    sl_err = max(abs(ivS.area - iv.area),
                 abs(g.refine_max(ivS.norm_T2)[1] - g.refine_max(iv.norm_T2)[1]),
                 abs(g.refine_max(ivS.norm_C2)[1] - g.refine_max(iv.norm_C2)[1]))
    ok = decay_ok and gl_err <= 1e-8 and sl_err <= 5e-6
    verdict(9, "consistency decays, invariants are equivariant", ok,
            f"decay ratios n=1 {ratios1[0]:.1f}/{ratios1[1]:.1f}, "
            f"n=2 {ratios2[0]:.1f}/{ratios2[1]:.1f} (>= 6); "
            f"GL psi err {gl_err:.2e} <= 1e-8; SL sup err {sl_err:.2e} <= 5e-6")


def test_10_ellipse_tensor_vanishing(circle256, rng):
    worst = 0.0
    g = circle256
    for _ in range(20):
        Q = random_spd(rng, 2, cond_max=16.0)
        inv = compute_invariants(ellipsoid_support(g, Q))
        worst = max(worst, g.refine_max(inv.norm_T2)[1],
                    g.refine_max(inv.norm_C2)[1])
    translated = SupportField(g, s=1.0 + 0.3 * np.cos(g.thetas))
    off = sup_T2(translated)
    ok = worst <= 1e-8 and off > 1e-4
    verdict(10, "T and C vanish exactly on origin-centered ellipses", ok,
            f"20-ellipse sup {worst:.3e} <= 1e-8, translated circle "
            f"sup|T|^2 = {off:.4f} > 1e-4")


def test_11_self_similar_residual(circle256):
    special = np.exp(-0.5)
    errs = {}
    for R in (special, 1.0):
        f = SupportField(circle256, s=np.full(256, R))
        inv = compute_invariants(f)
        errs[R] = self_similar_residual(f.s, inv.gauss_K, 1)
    ok = (errs[special] <= 1e-12
          and abs(errs[1.0] - (1.0 - np.exp(-2.0 / 3.0))) <= 1e-12)
    verdict(11, "self-similar profile detected at R = e^(-1/2)", ok,
            f"residual {errs[special]:.2e} <= 1e-12; unit circle "
            f"{errs[1.0]:.16f} = 1 - e^(-2/3) +- 1e-12")


def test_12_identity_residuals_refine():
    def residuals(N, interval):
        f = fourier_support(CircleGrid(N), 1.0, a=[0.0, 0.0, 0.02])
        traj = evolve(f, StepControl(t_end=0.02, snapshot_interval=interval))
        b = SeriesBundle(traj)
        return np.array([np.nanmax(b.r_area), np.nanmax(b.r_intT2),
                         np.nanmax(b.r_supT2)])
    coarse = residuals(256, 0.0025)
    fine = residuals(512, 0.00125)
    ok = bool(np.all(coarse <= 0.05) and np.all(fine < coarse))
    verdict(12, "evolution-identity residuals small and refining", ok,
            f"N=256 residuals {np.array2string(coarse, precision=2)} <= 5%, "
            f"N=512 ratios {np.array2string(coarse / fine, precision=2)} > 1")
