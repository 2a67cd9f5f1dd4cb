import json
import tracemalloc

import numpy as np
import pytest

from centroflow.diagnostics import (
    BLOCK_NODES,
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
from centroflow.errors import TransversalityLost
from centroflow.flow import FlowState, StepControl, Trajectory, evolve
from centroflow.grids import CircleGrid, CubedSphereGrid
from centroflow.support import SupportField, fourier_support
from centroflow import invariants as inva
from centroflow import oracles, support
from reference import c_evolution_rhs, covariant_grad


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
def long_curve_run(circle192):
    # 23 snapshots: two blocks at N=192 (21 snapshots each)
    f = fourier_support(circle192, 1.0, a=[0.0, 0.0, 0.02], b=[0.0, 0.01])
    return evolve(f, StepControl(t_end=0.011, snapshot_interval=0.0005))


@pytest.fixture(scope="module")
def sphere_run(sphere17):
    f = SupportField(sphere17, s=1.0 + 0.05 * np.prod(sphere17.nodes, axis=-1))
    return evolve(f, StepControl(t_end=0.002, snapshot_interval=0.001))


@pytest.fixture(scope="module")
def renorm_run(circle192):
    f = fourier_support(circle192, 1.0, a=[0.0, 0.0, 0.02])
    return evolve(f, StepControl(t_end=0.02, snapshot_interval=0.005), renormalize=True)


@pytest.fixture(scope="module")
def circle_fates(circle64):
    """Round n=1 runs: the unit circle, and circles stopped by each radius."""
    def run(R, **stops):
        f = SupportField(circle64, s=np.full(64, R))
        return evolve(f, StepControl(snapshot_interval=0.1, **stops))
    return {"unit": run(1.0, t_end=0.3),
            "shrinking": run(0.5, t_end=2.0, extinction_radius=0.3),
            "expanding": run(2.0, t_end=2.0, blowup_radius=3.0)}


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


def _bundle_memory(traj):
    """(bundle, bytes still held after construction, peak bytes during it)."""
    tracemalloc.start()
    try:
        bundle = SeriesBundle(traj)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return bundle, retained, peak


class TestSeriesBundleMemory:
    @staticmethod
    def _still_trajectory(grid, K):
        field = SupportField(grid, s=1.0 + 0.05 * np.prod(grid.nodes, axis=-1))
        states = [FlowState(t=1e-3 * k, field=field, step_count=0) for k in range(K)]
        return Trajectory(states, "ReachedTEnd", 0)

    def test_only_scalar_series_outlive_construction(self, sphere33):
        SeriesBundle(self._still_trajectory(sphere33, 3))  # warm any grid caches
        peaks = {}
        for K in (3, 9):
            bundle, retained, peaks[K] = _bundle_memory(self._still_trajectory(sphere33, K))
            # one M=33 invariant stack alone holds about 3.6 MB of node fields
            assert retained < 1e6, (K, retained)
            for name, value in vars(bundle).items():
                if isinstance(value, np.ndarray):
                    assert value.shape == (K,), name
        # one stack at a time: the peak does not grow with the snapshot count
        assert peaks[9] - peaks[3] < 1e6, peaks

    def test_curve_peak_stops_growing_beyond_one_block(self, circle256):
        per_block = BLOCK_NODES // circle256.N
        assert per_block == 16
        SeriesBundle(self._still_trajectory(circle256, 3))  # warm any grid caches
        peaks = {K: _bundle_memory(self._still_trajectory(circle256, K))[2]
                 for K in (4, per_block, 4 * per_block)}
        # a block's stack grows with its snapshots up to one block (about
        # 1.2 MB at 16 snapshots), then one block at a time: past one block
        # only the kept digests (about 2 kB a snapshot) add up
        assert peaks[per_block] - peaks[4] > 5e5, peaks
        assert peaks[4 * per_block] - peaks[per_block] < 2e5, peaks


def _reference_digest(iv):
    """invariants.json's per-snapshot digest, field by field."""
    names = ("norm_T2", "norm_C2", "psi", "rho", "H", "det_g")
    out = {}
    for name in names + (("J", "chi") if iv.J is not None else ()):
        arr = getattr(iv, name)
        out[name] = {"min": float(np.min(arr)), "max": float(np.max(arr)),
                     "mean": float(np.mean(arr))}
    out.update(area=iv.area, residual_C_symmetry=iv.residual_C_symmetry,
               residual_relsupport=iv.residual_relsupport,
               residual_gauss_cross=iv.residual_gauss_cross)
    return out


def _reference_series(traj):
    """Every series, digest and gradient margin reduced from all stacks kept at once."""
    inv = [inva.compute_invariants(st.field) for st in traj.snapshots]
    t, n, K = traj.times, inv[0].n, len(inv)
    ref = {"area": np.array([iv.area for iv in inv]),
           "int_T2": np.array([iv.grid.integrate_chart(iv.norm_T2 * iv.sqrt_det_g)
                               for iv in inv])}
    ref["area_rhs"] = 0.5 * n * ref["int_T2"]
    t2max = [iv.grid.refine_max(iv.norm_T2) for iv in inv]
    ref["supT2"] = np.array([v for _, v in t2max])
    ref["supC2"] = np.array([iv.grid.refine_max(iv.norm_C2)[1] for iv in inv])
    ref["min_s"] = np.array([st.field.min_s() for st in traj.snapshots])
    ref["max_s"] = np.array([st.field.max_s() for st in traj.snapshots])
    eigs = [iv.grid.spectrum(support.curvature_matrix(st.field, iv.grid.graph_jet(st.field.u)))[1:]
            for iv, st in zip(inv, traj.snapshots)]
    ref["eig_min_b"] = np.array([float(np.min(lo)) for lo, _ in eigs])
    ref["eig_max_b"] = np.array([float(np.max(hi)) for _, hi in eigs])
    ref["rho_min"] = np.array([float(np.min(iv.rho)) for iv in inv])
    ref["rho_max"] = np.array([float(np.max(iv.rho)) for iv in inv])
    ref["roundness"] = np.array([oracles.best_fit_ellipsoid(st.field)[1]
                                 for st in traj.snapshots])
    ref["residual_relsupport"] = np.array([iv.residual_relsupport for iv in inv])
    for key in ("r_area", "r_intT2", "r_supT2", "residual_prop21"):
        ref[key] = np.full(K, np.nan)
    if K >= 3:
        tevo = [inva.t2_evolution_rhs(iv) for iv in inv]
        int_rhs = np.array([iv.grid.integrate_chart((te + 0.5 * n * iv.norm_T2 ** 2)
                                                    * iv.sqrt_det_g)
                            for iv, te in zip(inv, tevo)])
        sup_rhs = np.array([iv.grid.value_at(te, where)
                            for iv, te, (where, _) in zip(inv, tevo, t2max)])
        for key, y, rhs in (("r_area", ref["area"], ref["area_rhs"]),
                            ("r_intT2", ref["int_T2"], int_rhs),
                            ("r_supT2", ref["supT2"], sup_rhs)):
            diff = (y[2:] - y[:-2]) / (t[2:] - t[:-2])
            ref[key][1:-1] = np.abs(diff - rhs[1:-1]) / np.maximum(np.abs(rhs[1:-1]), 1e-12)
        ref["residual_prop21"] = np.fmax(np.fmax(ref["r_area"], ref["r_intT2"]),
                                         ref["r_supT2"])
        ref["residual_prop21"][0] = ref["residual_prop21"][-1] = np.nan
    ref["t"] = t
    digests = [dict(t=float(tk), **_reference_digest(iv)) for tk, iv in zip(t, inv)]
    margins, run_max = [], -np.inf
    for st, iv in zip(traj.snapshots, inv):
        run_max = max(run_max, st.field.max_s())
        margins.append(run_max - float(np.max(support.gradient_norm(st.field, iv.X))))
    return ref, digests, margins


@pytest.fixture(scope="module")
def two_snapshot_runs(circle64, sphere17):
    curve = fourier_support(circle64, 1.0, a=[0.0, 0.0, 0.05])
    surface = SupportField(sphere17, s=1.0 + 0.05 * np.prod(sphere17.nodes, axis=-1))
    return (evolve(curve, StepControl(t_end=0.01, snapshot_interval=0.01)),
            evolve(surface, StepControl(t_end=0.001, snapshot_interval=0.001)))


class TestSeriesBundleBitwise:
    @pytest.mark.parametrize("which", ["curve-K9", "surface-K3", "curve-K2", "surface-K2",
                                       "curve-K23"])
    def test_matches_reductions_of_kept_stacks(self, which, gentle_run, sphere_run,
                                               two_snapshot_runs, long_curve_run):
        traj = {"curve-K9": gentle_run, "surface-K3": sphere_run,
                "curve-K2": two_snapshot_runs[0], "surface-K2": two_snapshot_runs[1],
                "curve-K23": long_curve_run}[which]
        assert len(traj) == int(which.split("K")[1])
        bundle = SeriesBundle(traj)
        ref, digests, margins = _reference_series(traj)
        assert set(SERIES_COLUMNS) <= set(ref)
        for key, want in ref.items():
            assert np.array_equal(getattr(bundle, key), want, equal_nan=True), key
        assert bundle.summaries == digests
        assert np.array_equal(check_c1(bundle).margins, margins)


class TestBlockGuard:
    def test_transversality_keeps_the_first_tripping_snapshot(self, circle192):
        # s = 1 + a cos 2theta has bracket -(s + s'') s = -(1 - 3a)(1 + a) at
        # theta = 0: snapshots 2 and 3 trip, the later one with the smaller
        # bracket, and all five share one block
        g = circle192
        fields = [fourier_support(g, 1.0, a=[0.0, a])
                  for a in (0.1, 0.2, (1 - 1e-13) / 3, (1 - 1e-14) / 3, 0.1)]
        alone, where = [], []
        for f in fields[2:4]:
            with pytest.raises(TransversalityLost) as exc:
                inva.compute_invariants(f)
            alone.append(exc.value.value)
            where.append(exc.value.where)
        assert alone[0] > 5 * alone[1] > 0
        # where: the node of the smallest bracket, theta = 0 or pi on this body
        assert [len(w) for w in where] == [1, 1]
        assert all(w[0] in (0, g.N // 2) for w in where)
        states = [FlowState(t=1e-3 * k, field=f) for k, f in enumerate(fields)]
        with pytest.raises(TransversalityLost) as exc:
            SeriesBundle(Trajectory(states, "ReachedTEnd", 0))
        assert exc.value.value == alone[0]
        assert exc.value.where == where[0] + (2,)   # and its column in the block


class TestChecks:
    def test_growth_bounds_hold(self, gentle_bundle):
        lo, hi = check_c0(gentle_bundle)
        assert lo.verdict == "Holds" and hi.verdict == "Holds"

    def test_growth_bounds_renormalized(self, renorm_run):
        lo, hi = check_c0(SeriesBundle(renorm_run))
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
                X = support.embed(st.field, st.field.grid.graph_jet(st.field.u))
                fresh.append(run_max - float(np.max(support.gradient_norm(st.field, X))))
            assert np.array_equal(check_c1(bundle).margins, fresh)

    def test_run_report_embeds_once_per_snapshot(self, monkeypatch, sphere_run):
        # the bundle's invariants embed each block of snapshots once and
        # check_c1 reuses them: M=17 puts 2 snapshots in a block, so 3 make 2
        calls = []
        embed = support.embed
        monkeypatch.setattr(support, "embed",
                            lambda field, jet: calls.append(1) or embed(field, jet))
        run_report(SeriesBundle(sphere_run))
        assert BLOCK_NODES // sphere_run.snapshots[0].field.u.size == 2
        assert len(sphere_run.snapshots) == 3 and len(calls) == 2

    def test_one_graph_jet_and_one_spectrum_per_block(self, monkeypatch, sphere_run,
                                                      gentle_run):
        # the invariant stack takes one deg1 halo, shared by the embedding and
        # the curvature, and the bundle reads the curvature's spectrum off it
        kinds, spectra = [], []
        extend = CubedSphereGrid.extend
        monkeypatch.setattr(CubedSphereGrid, "extend", lambda self, values, kind="scalar":
                            kinds.append(kind) or extend(self, values, kind))
        inva.compute_invariants(sphere_run.snapshots[0].field)
        assert kinds.count("deg1") == 1 and kinds.count("scalar") == 3
        for cls in (CubedSphereGrid, CircleGrid):
            spectrum = cls.spectrum
            monkeypatch.setattr(cls, "spectrum", staticmethod(
                lambda D2, spectrum=spectrum: spectra.append(1) or spectrum(D2)))
        for traj, blocks in ((sphere_run, 2), (gentle_run, 1)):
            spectra.clear()
            SeriesBundle(traj)
            assert len(spectra) == blocks

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
    def test_stationary(self, circle_fates):
        assert classify(SeriesBundle(circle_fates["unit"])) == "Stationary"

    def test_shrinking_by_extinction(self, circle_fates):
        assert circle_fates["shrinking"].termination == "Extinction"
        assert classify(SeriesBundle(circle_fates["shrinking"])) == "Shrinking"

    def test_expanding_by_blowup(self, circle_fates):
        assert circle_fates["expanding"].termination == "Blowup"
        assert classify(SeriesBundle(circle_fates["expanding"])) == "Expanding"

    def test_undetermined(self, gentle_bundle):
        assert classify(gentle_bundle) == "Undetermined"


def _c0_margins_from_snapshots(traj):
    """check_c0's margins by the per-snapshot loop over the trajectory's fields."""
    n = traj.snapshots[0].field.n
    c = (n + 1.0) / n
    renorm = any(abs(f - 1.0) > 0 for f in traj.renorm_factors)
    lo_m, hi_m = [0.0], [0.0]
    for k in range(1, len(traj.snapshots)):
        if renorm:
            a_min = traj.snapshots[k - 1].field.min_s() / traj.renorm_factors[k - 1]
            a_max = traj.snapshots[k - 1].field.max_s() / traj.renorm_factors[k - 1]
            dt = traj.snapshots[k].t - traj.snapshots[k - 1].t
        else:
            a_min = traj.snapshots[0].field.min_s()
            a_max = traj.snapshots[0].field.max_s()
            dt = traj.snapshots[k].t - traj.snapshots[0].t
        grow = np.exp(c * dt)
        lower = min(a_min ** grow, 1.0)
        upper = max(a_max ** grow, 1.0)
        smin = traj.snapshots[k].field.min_s()
        smax = traj.snapshots[k].field.max_s()
        lo_m.append((smin - lower) / max(abs(lower), 1e-300))
        hi_m.append((upper - smax) / max(abs(upper), 1e-300))
    return np.array(lo_m), np.array(hi_m)


class TestChecksReadOnlyTheBundle:
    @pytest.mark.parametrize("which, label", [
        ("flower", "Undetermined"), ("renorm", "Undetermined"),
        ("unit", "Stationary"), ("shrinking", "Shrinking"),
        ("expanding", "Expanding"), ("surface", "Undetermined")])
    def test_c0_and_classify_match_snapshot_loops(self, which, label, gentle_run,
                                                  renorm_run, circle_fates, sphere_run):
        traj = dict(circle_fates, flower=gentle_run, renorm=renorm_run,
                    surface=sphere_run)[which]
        bundle = SeriesBundle(traj)
        lo, hi = check_c0(bundle)
        want_lo, want_hi = _c0_margins_from_snapshots(traj)
        assert np.array_equal(lo.margins, want_lo) and np.array_equal(hi.margins, want_hi)
        assert classify(bundle) == label

    def test_report_and_class_survive_dropping_the_snapshots(self, circle64):
        traj = evolve(fourier_support(circle64, 1.0, a=[0.0, 0.0, 0.02]),
                      StepControl(t_end=0.01, snapshot_interval=0.0025))
        bundle = SeriesBundle(traj)
        before = (json.dumps(run_report(bundle).to_dict()), classify(bundle))
        traj.snapshots.clear()
        assert (json.dumps(run_report(bundle).to_dict()), classify(bundle)) == before


class TestReport:
    def test_all_checks_pass_on_gentle_run(self, gentle_bundle):
        report = run_report(gentle_bundle)
        assert report.violated == []
        names = {c.name for c in report.checks}
        assert "tchebychev_decay" not in names  # absent without a ratio

    def test_decay_check_opt_in(self, gentle_bundle):
        report = run_report(gentle_bundle, decay_ratio=0.1)
        assert "tchebychev_decay" in {c.name for c in report.checks}
        assert report.violated == ["tchebychev_decay"]

    def test_to_dict_json_safe(self, gentle_bundle):
        report = run_report(gentle_bundle)
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
        rm, rl = c_evolution_rhs(iv[1])
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
        rm, rl = c_evolution_rhs(iv)
        lowered = np.einsum("kij...,kl...->ijl...", rm, iv.g) + \
            np.einsum("lij...,plk...,p...->ijk...", iv.C_mixed, iv.C_mixed, iv.T_low)
        assert float(np.max(np.abs(lowered - rl))) < 1e-10

    def test_sphere_smoke_interior(self):
        g = CubedSphereGrid(33)
        f = SupportField(g, s=1.0 + 0.05 * np.prod(g.nodes, axis=-1))
        traj = evolve(f, StepControl(t_end=0.005, snapshot_interval=0.00125))
        core = np.s_[..., 3:g.M - 3, 3:g.M - 3]   # the node axes trail the components
        iv, (rel_mixed, rel_low) = self._residuals(traj, 2, core=core)
        assert rel_mixed < 0.5   # measured 0.27 away from the edge closures
        assert rel_low < 0.35    # measured 0.15
        # grad T symmetry T_{i;j} = T_{j;i} (T is a gradient field)
        S = covariant_grad(g, iv.T_low, iv.gamma)
        asym = np.max(np.abs((S - S.swapaxes(0, 1))[core]))
        assert float(asym / np.max(np.abs(S))) < 0.01  # measured 0.002
