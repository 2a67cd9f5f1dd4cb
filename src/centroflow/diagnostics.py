"""Machine-checkable verdicts for the laws the flow must satisfy.

Bound checks (inequalities with margins) run at 1e-8 relative tolerance;
identity checks involve centered time differences of invariant series and run
at 5% relative tolerance (the area identity at 1%).  Tensor evolution
identities are checked through scalar contractions: the area law (trace of the
metric evolution), the integral |T|^2 law, and the pointwise |T|^2 law at its
spatial maximum, where tangential reparametrization of a scalar drops out to
first order.

SeriesBundle reduces the snapshots in blocks: one invariant stack, one |T|^2
right side and one ellipsoid fit per block, on a batch field (grids) whose
columns are the block's snapshots. A block holds as many snapshots as fit in
BLOCK_NODES nodes, and at least one: 16 at N=256 and 2 at M=17, but 1 at
M=33 and M=65. numpy's per-call overhead dominates the small n=1 stacks,
which a block shares among its snapshots. A block so holds at most
max(BLOCK_NODES, one snapshot's nodes) nodes, and the bundle's peak memory is
that of one such stack: one snapshot's from M=33 up (tracemalloc peak of one
block, its grid and fit design built before: 4.6 MB at M=33, 6534 nodes;
17.7 MB at M=65, 25,350 nodes). Every
per-snapshot scalar is reduced column by column from contiguous rows, so the
series equal those of one snapshot at a time, bit for bit.
"""

import math

import numpy as np

from . import invariants as inva
from . import oracles
from .grids import snapshot_rows
# curvature_matrix is not called here; the module keeps the binding because
# perfbench/test_perfbench.py checks that the tracer rebinds it
from .support import SupportField, curvature_matrix, gradient_norm  # noqa: F401

BLOCK_NODES = 4096            # nodes of the batch field a block of snapshots makes

BOUND_TOL = 1e-8              # c0 growth, gradient and sup |T|^2 bounds
PINCH_EPS = 1e-10             # floor of the smallest curvature eigenvalue
AREA_MONO_TOL = 1e-10         # slack of area_monotone
AREA_IDENT_TOL = 0.01         # relative tolerance of area_identity
AREA_ISO_TOL = 1e-6           # slack on the isoperimetric ceiling
TCHEBYCHEV_IDENT_TOL = 0.05   # relative tolerance of tchebychev_identity
STATIONARY_DRIFT_TOL = 1e-6   # relative drift of s that classify calls Stationary

SPHERE_AREA = {1: 2.0 * np.pi, 2: 4.0 * np.pi}

SERIES_COLUMNS = ("t", "area", "area_rhs", "supT2", "supC2", "min_s", "max_s",
                  "eig_min_b", "eig_max_b", "rho_min", "rho_max", "roundness",
                  "residual_relsupport", "residual_prop21")


def _centred(y, t):
    """Centred differences (y[k+1] - y[k-1]) / (t[k+1] - t[k-1]) at interior k."""
    return (y[2:] - y[:-2]) / (t[2:] - t[:-2])


class BoundCheck:
    """Named inequality verdict: margin[k] = bound_k - observed_k (>= 0 holds)."""

    def __init__(self, name, margins, tolerance):
        self.name = name
        # the one rule for an empty check (too few snapshots): it holds at margin 0
        self.margins = np.asarray(margins, dtype=float) if len(margins) else np.zeros(1)
        self.tolerance = tolerance
        worst = float(np.min(self.margins))
        if worst >= 0.0:
            self.verdict = "Holds"
        elif worst >= -tolerance:
            self.verdict = "HoldsWithinTol"
        else:
            self.verdict = "Violated"
        self.worst_margin = worst

    def to_dict(self):
        return {"name": self.name, "verdict": self.verdict,
                "tolerance": self.tolerance, "worst_margin": self.worst_margin,
                "margins": [float(m) for m in self.margins]}


# per-node fields invariants.json digests per snapshot; J and chi are None for n=1
DIGEST_FIELDS = ("norm_T2", "norm_C2", "psi", "rho", "H", "det_g", "J", "chi")


def invariant_summaries(inv, times):
    """Per-snapshot min/max/mean digest of every scalar invariant field.

    inv is the invariant stack of a batch field; one digest per column, at
    times. Each reduction is one array (B,), read out as floats by one tolist.
    """
    cols = {}
    for name in DIGEST_FIELDS:
        if (arr := getattr(inv, name)) is not None:
            rows = snapshot_rows(inv.grid, arr)
            cols[name] = {"min": rows.min(axis=1).tolist(), "max": rows.max(axis=1).tolist(),
                          "mean": rows.mean(axis=1).tolist()}
    scalars = {name: getattr(inv, name).tolist() for name in
               ("area", "residual_C_symmetry", "residual_relsupport",
                "residual_gauss_cross")}
    return [dict(t=float(t),
                 **{name: {k: v[b] for k, v in d.items()} for name, d in cols.items()},
                 **{name: v[b] for name, v in scalars.items()})
            for b, t in enumerate(times)]


def _block_rows(states, s0):
    """A block of snapshots' scalars, one array (B,) per key, and their digests.

    The block's snapshots are the columns of one batch field; its invariant
    stack is reduced per column and dropped. drift is max |s - s0| against
    the first snapshot's s0; int_rhs and sup_rhs are the integral and
    refined-max values of the |T|^2 right side.
    """
    grid = states[0].field.grid
    field = SupportField(grid, u=np.stack([st.field.u for st in states], axis=-1))
    per = grid.per_snapshot
    iv = inva.compute_invariants(field)
    where, supT2 = grid.refine_max(iv.norm_T2)
    # integrals against the centro-affine measure dmu = sqrt(det g) dy
    row = {"area": iv.area,
           "int_T2": grid.integrate_chart(iv.norm_T2 * iv.sqrt_det_g),
           "supT2": supT2,
           "supC2": grid.refine_max(iv.norm_C2)[1],
           "min_s": field.min_s(), "max_s": field.max_s(),
           "drift": per(np.max, np.abs(field.s - field.at_nodes(s0))),
           "eig_min_b": per(np.min, iv.curvature_spectrum[1]),
           "eig_max_b": per(np.max, iv.curvature_spectrum[2]),
           "rho_min": per(np.min, iv.rho), "rho_max": per(np.max, iv.rho),
           "roundness": oracles.best_fit_ellipsoid(field)[1],
           "residual_relsupport": iv.residual_relsupport,
           "grad_max": per(np.max, gradient_norm(field, iv.X))}
    te = inva.t2_evolution_rhs(iv)
    row["int_rhs"] = grid.integrate_chart(
        (te + 0.5 * field.n * iv.norm_T2 ** 2) * iv.sqrt_det_g)
    # evaluate at the grid's refined max, not the nearest node: on the circle
    # the node offset costs O(h^2 rhs'') which dominates the residual floor
    row["sup_rhs"] = grid.value_at(te, where)
    return row, invariant_summaries(iv, [st.t for st in states])


class SeriesBundle:
    """Per-snapshot scalar series of a trajectory and the residuals built on them.

    The only reader of a Trajectory in this module: every check takes the
    bundle. Each block of snapshots (BLOCK_NODES) gets one invariant stack,
    computed once, reduced to one row of scalars per snapshot and to each
    snapshot's invariants.json digest (summaries), and dropped: no per-node
    field outlives the constructor. Each row key is a series attribute;
    grad_max is max |grad s| and drift is max |s - s_0|. The trajectory's
    termination and renorm_factors are kept alongside.
    """

    def __init__(self, traj):
        self.t = traj.times
        self.termination = traj.termination
        self.renorm_factors = np.array(traj.renorm_factors, dtype=float)
        snaps = traj.snapshots
        s0 = snaps[0].field.s
        self.n = snaps[0].field.n
        size = max(1, BLOCK_NODES // math.prod(snaps[0].field.grid.shape))
        blocks, summaries = zip(*[_block_rows(snaps[i:i + size], s0)
                                  for i in range(0, len(snaps), size)])
        self.summaries = [d for block in summaries for d in block]
        series = {key: np.concatenate([b[key] for b in blocks]) for key in blocks[0]}
        int_rhs, sup_rhs = series.pop("int_rhs"), series.pop("sup_rhs")
        vars(self).update(series)
        self.area_rhs = 0.5 * self.n * self.int_T2
        self._evolution_residuals(int_rhs, sup_rhs)

    def _evolution_residuals(self, int_rhs, sup_rhs):
        """Centered-difference residuals of the scalar evolution contractions.

        r_area: d(Area)/dt vs (n/2) int |T|^2 dmu            [metric trace law]
        r_intT2: d/dt int |T|^2 dmu vs int (rhs + (n/2)|T|^4) dmu
        r_supT2: d/dt |T|^2 at its spatial max vs the pointwise rhs
        All are relative; endpoints carry nan, and so every entry does below
        three snapshots (no interior to difference at).
        """
        nan = np.full(len(self.t), np.nan)
        self.r_area, self.r_intT2, self.r_supT2 = nan.copy(), nan.copy(), nan.copy()
        for r, y, rhs in ((self.r_area, self.area, self.area_rhs),
                          (self.r_intT2, self.int_T2, int_rhs),
                          (self.r_supT2, self.supT2, sup_rhs)):
            r[1:-1] = np.abs(_centred(y, self.t) - rhs[1:-1]) / np.maximum(
                np.abs(rhs[1:-1]), 1e-12)
        self.residual_prop21 = np.fmax(np.fmax(self.r_area, self.r_intT2), self.r_supT2)
        self.residual_prop21[0] = self.residual_prop21[-1] = np.nan

    def rows(self):
        """One dict per snapshot, keyed by SERIES_COLUMNS (each an attribute)."""
        return [{c: float(getattr(self, c)[k]) for c in SERIES_COLUMNS}
                for k in range(len(self.t))]


def check_c0(bundle):
    """Double-exponential growth bounds on min/max of s.

    Anchored at snapshot 0 for plain runs; for renormalized runs each interval
    re-anchors at the previous snapshot divided by its recorded factor. Plain
    runs record factors of exactly 1.0, so dividing leaves their anchor as is.
    """
    c = (bundle.n + 1.0) / bundle.n
    t, factors = bundle.t, bundle.renorm_factors
    renorm = np.any(factors != 1.0)
    lo_m, hi_m = [0.0], [0.0]
    for k in range(1, len(t)):
        j = k - 1 if renorm else 0
        grow = np.exp(c * (t[k] - t[j]))
        lower = min((bundle.min_s[j] / factors[j]) ** grow, 1.0)
        upper = max((bundle.max_s[j] / factors[j]) ** grow, 1.0)
        lo_m.append((bundle.min_s[k] - lower) / max(abs(lower), 1e-300))
        hi_m.append((upper - bundle.max_s[k]) / max(abs(upper), 1e-300))
    return (BoundCheck("support_lower_growth_bound", lo_m, BOUND_TOL),
            BoundCheck("support_upper_growth_bound", hi_m, BOUND_TOL))


def check_c1(bundle):
    """max |grad s| <= running max of s (gradient bound from convexity)."""
    return BoundCheck("gradient_bound",
                      np.maximum.accumulate(bundle.max_s) - bundle.grad_max, BOUND_TOL)


def check_pinch(bundle):
    """Positivity of the curvature matrix over the run; reports empirical L."""
    lo, hi = bundle.eig_min_b, bundle.eig_max_b
    L = max(float(np.max(hi)), 1.0 / float(np.min(lo))) if np.min(lo) > 0 else np.inf
    return float(L), BoundCheck("curvature_pinch_positive", lo - PINCH_EPS, 0.0)


def check_area_law(bundle):
    """(monotone, identity, isoperimetric) verdicts for the area series."""
    A = bundle.area
    mono = BoundCheck("area_monotone", np.diff(A), AREA_MONO_TOL)
    # identity margin convention: tol*max(1, rhs) - |diff| >= 0 means holds
    rhs = bundle.area_rhs[1:-1]
    idm = AREA_IDENT_TOL * np.maximum(1.0, rhs) - np.abs(_centred(A, bundle.t) - rhs)
    ident = BoundCheck("area_identity", idm, 0.0)
    iso = BoundCheck("area_isoperimetric",
                     SPHERE_AREA[bundle.n] + AREA_ISO_TOL - A, 0.0)
    return mono, ident, iso


def check_tchebychev_laws(bundle, decay_ratio=None):
    """A-priori sup |T|^2 bound, pointwise evolution identity, decay trend.

    The decay check is None unless a ratio is given.
    """
    n = bundle.n
    bound = max((n + 3.0) / n, bundle.supT2[0])
    bcheck = BoundCheck("tchebychev_sup_bound", bound + BOUND_TOL - bundle.supT2, 0.0)
    ident = BoundCheck("tchebychev_identity",
                       TCHEBYCHEV_IDENT_TOL - bundle.r_supT2[1:-1], 0.0)
    decay = None if decay_ratio is None else BoundCheck(
        "tchebychev_decay", [decay_ratio * bundle.supT2[0] - bundle.supT2[-1]], 0.0)
    return bcheck, ident, decay


def classify(bundle):
    """Shrinking / Expanding / Stationary / Undetermined from the s series."""
    if bundle.termination == "Extinction":
        return "Shrinking"
    if bundle.termination == "Blowup":
        return "Expanding"
    max_s, min_s = bundle.max_s, bundle.min_s
    s0_scale = max(abs(max_s[0]), abs(min_s[0]), 1e-300)  # max |s_0|
    if float(np.max(bundle.drift)) / s0_scale <= STATIONARY_DRIFT_TOL:
        return "Stationary"
    if np.all(np.diff(max_s) <= 1e-12) and max_s[-1] <= 0.5 * max_s[0]:
        return "Shrinking"
    if min_s[-1] >= 2.0 * min_s[0]:
        return "Expanding"
    return "Undetermined"


class DiagnosticsReport:
    def __init__(self, checks, residuals, summary, pinch_L):
        self.checks = checks
        self.residuals = residuals
        self.summary = summary
        self.pinch_L = pinch_L

    @property
    def violated(self):
        return [c.name for c in self.checks if c.verdict == "Violated"]

    def to_dict(self):
        return {
            "checks": [c.to_dict() for c in self.checks],
            "residuals": {k: [None if np.isnan(v) else float(v) for v in arr]
                          for k, arr in self.residuals.items()},
            "summary": self.summary,
            "pinch_L": None if np.isinf(self.pinch_L) else float(self.pinch_L),
        }


def run_report(bundle, decay_ratio=None):
    """All checks on one bundle; decay check only when a ratio is given."""
    L, pinch = check_pinch(bundle)
    checks = [*check_c0(bundle), check_c1(bundle), pinch, *check_area_law(bundle),
              *check_tchebychev_laws(bundle, decay_ratio)]
    checks = [c for c in checks if c is not None]
    residuals = {"r_area": bundle.r_area, "r_intT2": bundle.r_intT2,
                 "r_supT2": bundle.r_supT2, "residual_prop21": bundle.residual_prop21}
    summary = {
        "classification": classify(bundle),
        "termination": bundle.termination,
        "roundness_initial": float(bundle.roundness[0]),
        "roundness_final": float(bundle.roundness[-1]),
        "supT2_initial": float(bundle.supT2[0]),
        "supT2_final": float(bundle.supT2[-1]),
    }
    return DiagnosticsReport(checks, residuals, summary, L)
