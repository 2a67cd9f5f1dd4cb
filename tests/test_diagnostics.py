import json

import numpy as np
import pytest

from centroflow.diagnostics import (
    SERIES_COLUMNS,
    BoundCheck,
    SeriesBundle,
    check_area_law,
    check_c0,
    check_c1,
    check_pinch,
    check_tchebychev_laws,
    classify,
    run_report,
)
from centroflow.flow import StepControl, evolve
from centroflow.grids import CircleGrid, CubedSphereGrid
from centroflow.support import SupportField, fourier_support
from centroflow import invariants as inva
from centroflow import support


@pytest.fixture(scope="module")
def gentle_run(circle192):
    # small cos(3 theta) bump, snapshots fine enough for the centered-diff
    # identity residuals to sit well under their 5% gate
    f = fourier_support(circle192, 1.0, a=[0.0, 0.0, 0.02])
    return evolve(f, StepControl(t_end=0.02, snapshot_interval=0.0025))


@pytest.fixture(scope="module")
def gentle_bundle(gentle_run):
    return SeriesBundle(gentle_run)


@pytest.fixture(scope="module")
def sphere_run(sphere17):
    f = SupportField(sphere17, s=1.0 + 0.05 * np.prod(sphere17.nodes, axis=-1))
    return evolve(f, StepControl(t_end=0.002, snapshot_interval=0.001))


class TestBoundCheck:
    def test_holds(self):
        c = BoundCheck("x", [0.5, 0.0, 1.0], 1e-8)
        assert c.verdict == "Holds" and c.worst_margin == 0.0

    def test_holds_within_tol(self):
        c = BoundCheck("x", [0.5, -5e-9], 1e-8)
        assert c.verdict == "HoldsWithinTol"

    def test_violated(self):
        c = BoundCheck("x", [0.5, -1e-6], 1e-8)
        assert c.verdict == "Violated" and c.worst_margin == -1e-6

    def test_empty_margins_hold(self):
        assert BoundCheck("x", [], 1e-8).verdict == "Holds"

    def test_to_dict(self):
        d = BoundCheck("gap", [0.25], 1e-8).to_dict()
        assert d == {"name": "gap", "verdict": "Holds", "tolerance": 1e-8,
                     "worst_margin": 0.25, "margins": [0.25]}


class TestSeriesBundle:
    def test_rows_carry_all_columns(self, gentle_run, gentle_bundle):
        rows = gentle_bundle.rows()
        assert len(rows) == len(gentle_run)
        for row in rows:
            assert set(row) == set(SERIES_COLUMNS)

    def test_series_shapes_and_signs(self, gentle_bundle):
        b = gentle_bundle
        K = len(b.t)
        for arr in (b.area, b.supT2, b.supC2, b.min_s, b.max_s, b.rho_min,
                    b.rho_max, b.roundness, b.eig_min_b):
            assert arr.shape == (K,)
        assert np.all(b.area > 0) and np.all(b.eig_min_b > 0)
        # area_rhs is the metric-trace contraction (n/2) int |T|^2 dmu
        assert np.allclose(b.area_rhs, 0.5 * b.int_T2)

    def test_residual_endpoints_nan(self, gentle_bundle):
        for arr in (gentle_bundle.r_area, gentle_bundle.r_intT2,
                    gentle_bundle.r_supT2, gentle_bundle.residual_prop21):
            assert np.isnan(arr[0]) and np.isnan(arr[-1])

    def test_evolution_residuals_small(self, gentle_bundle):
        # measured 8.1e-5 / 3.7e-4 / 2.8e-4 at this resolution and interval
        assert np.nanmax(gentle_bundle.r_area) < 2e-3
        assert np.nanmax(gentle_bundle.r_intT2) < 2e-3
        assert np.nanmax(gentle_bundle.r_supT2) < 2e-3

    def test_two_snapshot_bundle_all_nan(self, circle64):
        f = SupportField(circle64, s=np.full(64, 1.0))
        traj = evolve(f, StepControl(t_end=0.01, snapshot_interval=0.01))
        b = SeriesBundle(traj)
        assert np.all(np.isnan(b.residual_prop21))


class TestChecks:
    def test_growth_bounds_hold(self, gentle_run):
        lo, hi = check_c0(gentle_run)
        assert lo.verdict == "Holds" and hi.verdict == "Holds"

    def test_growth_bounds_renormalized(self, circle192):
        f = fourier_support(circle192, 1.0, a=[0.0, 0.0, 0.02])
        traj = evolve(f, StepControl(t_end=0.02, snapshot_interval=0.005),
                      renormalize=True)
        lo, hi = check_c0(traj)
        assert lo.verdict in ("Holds", "HoldsWithinTol")
        assert hi.verdict in ("Holds", "HoldsWithinTol")

    def test_gradient_bound(self, gentle_bundle, sphere_run):
        for bundle in (gentle_bundle, SeriesBundle(sphere_run)):
            assert check_c1(bundle).verdict == "Holds"

    def test_gradient_bound_from_bundle_is_bitwise(self, gentle_run, gentle_bundle,
                                                   sphere_run):
        # the bundle's embeddings give the same margins as embedding afresh
        for traj, bundle in ((gentle_run, gentle_bundle),
                             (sphere_run, SeriesBundle(sphere_run))):
            run_max = -np.inf
            fresh = []
            for st in traj.snapshots:
                run_max = max(run_max, st.field.max_s())
                fresh.append(run_max - float(np.max(support.gradient_norm(st.field))))
            assert np.array_equal(check_c1(bundle).margins, fresh)

    def test_run_report_embeds_once_per_snapshot(self, monkeypatch, sphere_run):
        # the bundle's invariants embed each snapshot; check_c1 reuses it
        calls = []
        embed = support.embed
        monkeypatch.setattr(support, "embed", lambda field: calls.append(1) or embed(field))
        run_report(sphere_run)
        assert len(calls) == len(sphere_run.snapshots) >= 3

    def test_pinch(self, gentle_bundle):
        L, pinch = check_pinch(gentle_bundle)
        assert pinch.verdict == "Holds"
        assert 1.0 <= L < 10.0

    def test_area_law(self, gentle_bundle):
        mono, ident, iso = check_area_law(gentle_bundle)
        assert mono.verdict == "Holds"
        assert ident.verdict == "Holds"
        assert iso.verdict == "Holds"

    def test_tchebychev(self, gentle_bundle):
        b, ident, decay = check_tchebychev_laws(gentle_bundle, 0.1)
        assert b.verdict == "Holds"
        assert ident.verdict == "Holds"
        # t=0.02 is far too short for a 10x decay: must be reported honestly
        assert decay.verdict == "Violated"


class TestClassify:
    def test_stationary(self, circle64):
        f = SupportField(circle64, s=np.ones(64))
        traj = evolve(f, StepControl(t_end=0.3, snapshot_interval=0.1))
        assert classify(traj) == "Stationary"

    def test_shrinking_by_extinction(self, circle64):
        f = SupportField(circle64, s=np.full(64, 0.5))
        ctl = StepControl(t_end=2.0, snapshot_interval=0.1,
                          extinction_radius=0.3)
        assert classify(evolve(f, ctl)) == "Shrinking"

    def test_expanding_by_blowup(self, circle64):
        f = SupportField(circle64, s=np.full(64, 2.0))
        ctl = StepControl(t_end=2.0, snapshot_interval=0.1, blowup_radius=3.0)
        assert classify(evolve(f, ctl)) == "Expanding"

    def test_undetermined(self, gentle_run):
        assert classify(gentle_run) == "Undetermined"


class TestReport:
    def test_all_checks_pass_on_gentle_run(self, gentle_run, gentle_bundle):
        report, bundle = run_report(gentle_run, gentle_bundle)
        assert bundle is gentle_bundle
        assert report.violated == []
        names = {c.name for c in report.checks}
        assert "tchebychev_decay" not in names  # absent without a ratio

    def test_decay_check_opt_in(self, gentle_run, gentle_bundle):
        report, _ = run_report(gentle_run, gentle_bundle, decay_ratio=0.1)
        assert "tchebychev_decay" in {c.name for c in report.checks}
        assert report.violated == ["tchebychev_decay"]

    def test_to_dict_json_safe(self, gentle_run, gentle_bundle):
        report, _ = run_report(gentle_run, gentle_bundle)
        d = report.to_dict()
        # endpoint nans must serialize as null, not NaN
        assert d["residuals"]["r_area"][0] is None
        json.dumps(d)
        assert d["summary"]["classification"] == "Undetermined"
        assert d["pinch_L"] is not None


class TestCubicEvolutionSmoke:
    """Loose checks of the formula evaluators for d/dt C (mixed and lowered).

    These right sides involve second covariant derivatives of T (fourth
    derivatives of the support data) and the solver drops the tangential
    component of the motion, so raw-component agreement is only expected at
    the tens-of-percent level on gentle bodies; the tight, load-bearing
    evolution laws are the scalar contractions tested above.
    """

    @staticmethod
    def _residuals(traj, k, core=np.s_[...]):
        snaps = traj.snapshots
        iv = [inva.compute_invariants(snaps[j].field) for j in (k - 1, k, k + 1)]
        dt2 = snaps[k + 1].t - snaps[k - 1].t
        rm, rl = inva.c_evolution_rhs(iv[1])
        rels = []
        for diff, rhs in (((iv[2].C_mixed - iv[0].C_mixed) / dt2, rm),
                          ((iv[2].C_low - iv[0].C_low) / dt2, rl)):
            den = float(np.max(np.abs(rhs[core])))
            assert den > 0.01  # the comparison has to be about something
            rels.append(float(np.max(np.abs((diff - rhs)[core]))) / den)
        return iv[1], rels

    def test_curve_smoke(self, gentle_run):
        _, (rel_mixed, rel_low) = self._residuals(gentle_run, 4)
        assert rel_mixed < 0.15  # measured 0.056
        assert rel_low < 0.25    # measured 0.110

    def test_curve_lowering_consistency(self, gentle_run):
        # in one dimension there are no curvature commutators, so lowering the
        # mixed rhs with g and adding C^l_ij (d/dt g_lk) = C^l_ij T_p C^p_lk
        # must reproduce the lowered rhs exactly
        iv = inva.compute_invariants(gentle_run.snapshots[4].field)
        rm, rl = inva.c_evolution_rhs(iv)
        lowered = np.einsum("...kij,...kl->...ijl", rm, iv.g) + \
            np.einsum("...lij,...plk,...p->...ijk", iv.C_mixed, iv.C_mixed, iv.T_low)
        assert float(np.max(np.abs(lowered - rl))) < 1e-10

    def test_sphere_smoke_interior(self):
        g = CubedSphereGrid(33)
        f = SupportField(g, s=1.0 + 0.05 * np.prod(g.nodes, axis=-1))
        traj = evolve(f, StepControl(t_end=0.005, snapshot_interval=0.00125))
        core = (slice(None), slice(3, g.M - 3), slice(3, g.M - 3))
        iv, (rel_mixed, rel_low) = self._residuals(traj, 2, core=core)
        assert rel_mixed < 0.5   # measured 0.27 away from the edge closures
        assert rel_low < 0.35    # measured 0.15
        # grad T symmetry T_{i;j} = T_{j;i} (T is a gradient field)
        S = inva.covariant_grad(g, iv.T_low, iv.gamma)
        asym = np.max(np.abs((S - np.swapaxes(S, -1, -2))[core]))
        assert float(asym / np.max(np.abs(S))) < 0.01  # measured 0.002
