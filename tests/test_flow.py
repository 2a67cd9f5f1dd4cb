import os
import subprocess
import sys

import numpy as np
import pytest

import centroflow
from centroflow import flow
from centroflow.errors import (ConfigError, ConvexityLost, GuardError,
                               NumericalBlowup, OriginCrossed, TransversalityLost)
from centroflow.flow import FlowState, StepControl, _rhs_values, evolve, stable_dt, step
from centroflow.grids import CircleGrid, CubedSphereGrid
from centroflow.invariants import compute_invariants
from centroflow.oracles import exact_sphere_radius
from centroflow.support import SupportField, fourier_support
from reference import lambda_rescaling, rhs


def spectrum(field):
    g = field.grid
    return g.spectrum(g.graph_hessian(field.u))


def sphere_field(n, R, res):
    if n == 1:
        return SupportField(CircleGrid(res), s=np.full(res, float(R)))
    g = CubedSphereGrid(res)
    return SupportField(g, s=np.full((6, res, res), float(R)))


class TestFixedPoint:
    def test_unit_circle_rhs_zero(self, flower256):
        f = sphere_field(1, 1.0, 64)
        assert np.all(rhs(f) == 0.0)
        # on a Fourier body the general right side is the paper's n=1 form
        # (s/2) log(s^3 (s + s'')), with the spectral curvature radius s + s''
        s = flower256.s
        paper = 0.5 * s * np.log(s**3 * (s + flower256.grid.deriv(s, 2)))
        assert np.max(np.abs(rhs(flower256) - paper)) <= 1e-14 * np.max(np.abs(paper))

    def test_unit_sphere_rhs_zero(self):
        # determinant is measured against the same stencils applied to the
        # exact sphere graph, so the unit sphere is a discrete fixed point
        f = sphere_field(2, 1.0, 17)
        assert np.all(_rhs_values(f.grid, f.u, 0.0, spectrum(f)) == 0.0)

    def test_unit_sphere_bitwise_stationary(self):
        for n, res in ((1, 64), (2, 17)):
            f = sphere_field(n, 1.0, res)
            for scheme in flow.SCHEMES:
                traj = evolve(f, StepControl(t_end=0.05, snapshot_interval=0.05,
                                             scheme=scheme))
                assert traj.termination == "ReachedTEnd"
                assert np.array_equal(traj.snapshots[-1].field.s, f.s)


class TestTemporalAccuracy:
    def run_error(self, scheme, dt_max):
        ctl = StepControl(cfl=1.0, dt_max=dt_max, t_end=0.3,
                          snapshot_interval=0.3, scheme=scheme)
        traj = evolve(sphere_field(1, 1.2, 64), ctl)
        return abs(traj.snapshots[-1].field.max_s()
                   - exact_sphere_radius(1.2, 0.3, 1))

    def test_rk4_fourth_order(self):
        # spatially exact datum isolates the time error; halving dt must cut
        # it by ~2^4 (observed 15.85)
        ratio = self.run_error("rk4", 0.01) / self.run_error("rk4", 0.005)
        assert ratio >= 14.0

    def test_heun_second_order(self):
        ratio = self.run_error("heun", 0.01) / self.run_error("heun", 0.005)
        assert 3.4 <= ratio <= 4.6

    @pytest.mark.parametrize("n", [1, 2])
    def test_step_takes_the_bound_or_lands(self, flower256, sphere17, n):
        f = flower256 if n == 1 else bumpy_sphere(sphere17)
        ctl = StepControl()
        bound = stable_dt(f, ctl, spectrum(f))
        far, landed = step(FlowState(0.25, f, 7), ctl, 1.0)
        assert far.t == 0.25 + bound and not landed and far.step_count == 8
        near, landed = step(FlowState(0.25, f, 7), ctl, 0.25 + 0.5 * bound)
        assert near.t == 0.25 + 0.5 * bound and landed


class TestStepControl:
    @pytest.mark.parametrize("bad", [
        {"dt_max": 0.0}, {"dt_max": -1e-3}, {"dt_max": float("nan")},
        {"t_end": float("nan")}, {"t_end": float("inf")},
        {"snapshot_interval": 0.0}, {"snapshot_interval": float("nan")},
        {"convexity_floor": float("nan")}, {"extinction_radius": float("nan")},
        {"cfl": True}, {"cfl": 1.5}, {"scheme": "euler"},
        {"extinction_radius": 10.0, "blowup_radius": 2.0},
    ], ids=lambda bad: ",".join(f"{k}={v}" for k, v in bad.items()))
    def test_refuses_what_config_refuses(self, bad):
        # construction only: a control that is refused never reaches evolve
        with pytest.raises(ConfigError):
            StepControl(**bad)

    def test_stores_floats(self):
        ctl = StepControl(cfl=1, t_end=2, blowup_radius=10 ** 3)
        assert (ctl.cfl, ctl.t_end, ctl.blowup_radius) == (1.0, 2.0, 1e3)
        assert all(isinstance(v, float) for v in (ctl.cfl, ctl.t_end, ctl.blowup_radius))


class TestStableDt:
    def test_frozen_values(self, flower256, sphere33):
        ctl = StepControl()
        assert stable_dt(flower256, ctl, spectrum(flower256)) == pytest.approx(
            4.381038885421847e-05, rel=1e-12)
        xyz = SupportField(sphere33,
                           s=1.0 + 0.3 * np.prod(sphere33.nodes, axis=-1))
        assert stable_dt(xyz, ctl, spectrum(xyz)) == pytest.approx(
            0.00017512882223655581, rel=1e-12)

    def test_dt_max_binds(self):
        f = sphere_field(1, 1.0, 16)
        assert stable_dt(f, StepControl(dt_max=1e-6), spectrum(f)) == 1e-6


class TestLambdaRescaling:
    def test_factor_endpoints(self):
        assert lambda_rescaling(0.0, 0.7, 1) == 1.0
        assert lambda_rescaling(0.0, 0.7, 2) == 1.0
        # a scalar t gives a scalar (a float), the entry of the array t
        ts = np.linspace(0.0, 0.3, 4)
        fs = lambda_rescaling(ts, 0.7, 2)
        assert fs.shape == ts.shape and fs[0] == 1.0
        for k, t in enumerate(ts):
            f = lambda_rescaling(t, 0.7, 2)
            assert np.shape(f) == () and isinstance(f, float) and f == fs[k]

    def test_augmented_flow_identity(self, flower256):
        # if s solves the plain flow, f(t) s solves s_t = rhs(s) - lam s:
        # d/dt (f s) = f' s + f rhs(s) must equal rhs(f s) - lam f s
        lam, t, n = 0.7, 0.2, 1
        c = (n + 1) / n
        f = lambda_rescaling(t, lam, n)
        fdot = f * (-lam * np.exp(c * t))
        lhs = fdot * flower256.s + f * rhs(flower256)
        scaled = SupportField(flower256.grid, s=f * flower256.s)
        want = rhs(scaled) - lam * scaled.s
        assert np.max(np.abs(lhs - want)) < 1e-8


class TestEvolveBookkeeping:
    def test_snapshot_times_exact(self, flower256):
        traj = evolve(flower256, StepControl(t_end=0.1, snapshot_interval=0.02))
        assert traj.termination == "ReachedTEnd"
        want = np.arange(6) * 0.02
        assert np.max(np.abs(traj.times - want)) < 1e-12
        assert traj.step_count == traj.snapshots[-1].step_count

    def test_extinction_guard(self):
        ctl = StepControl(t_end=1.0, extinction_radius=0.6)
        traj = evolve(sphere_field(1, 0.5, 64), ctl)
        assert traj.termination == "Extinction"
        assert len(traj) == 1  # stopped before stepping

    def test_blowup_guard(self):
        ctl = StepControl(t_end=2.0, blowup_radius=3.0)
        traj = evolve(sphere_field(1, 2.0, 64), ctl)
        assert traj.termination == "Blowup"
        assert traj.snapshots[-1].field.max_s() > 3.0 * 0.9

    def test_convexity_guard_mid_run(self):
        # shrinking circle: curvature radius b = R crosses a raised floor
        ctl = StepControl(t_end=1.0, extinction_radius=1e-8,
                          convexity_floor=0.3)
        traj = evolve(sphere_field(1, 0.5, 64), ctl)
        assert traj.termination == "ConvexityLost"
        assert 0 < traj.snapshots[-1].t < 1.0


class TestGuardTermination:
    @pytest.mark.parametrize("target, error, termination", [
        ("step", OriginCrossed, "Extinction"),
        ("step", NumericalBlowup, "NumericalBlowup"),
        ("stable_dt", NumericalBlowup, "NumericalBlowup"),
    ])
    def test_guard_error_ends_at_last_state(self, monkeypatch, flower256,
                                            target, error, termination):
        # after three real steps, `target` raises the guard error; the run
        # must end with the mapped termination at the third step's state
        reached = []
        real_step, real_stable_dt = flow.step, flow.stable_dt

        def fake_step(*args):
            if target == "step" and len(reached) == 3:
                raise error("injected")
            new, landed = real_step(*args)
            reached.append(new)
            return new, landed

        def fake_stable_dt(*args):
            if target == "stable_dt" and len(reached) == 3:
                raise error("injected")
            return real_stable_dt(*args)

        monkeypatch.setattr(flow, "step", fake_step)
        monkeypatch.setattr(flow, "stable_dt", fake_stable_dt)
        traj = evolve(flower256, StepControl(t_end=1.0, snapshot_interval=0.5))
        assert traj.termination == termination
        assert traj.step_count == 3 and len(traj) == 2
        last = traj.snapshots[-1]
        assert last.step_count == 3 and last.t == reached[-1].t
        assert np.array_equal(last.field.u, reached[-1].field.u)


class TestStepBound:
    @pytest.mark.parametrize("n", [1, 2])
    def test_one_stable_dt_per_attempted_step(self, monkeypatch, flower256, n):
        # step computes the bound once; evolve does not compute one
        field = flower256 if n == 1 else bumpy_sphere(CubedSphereGrid(17))
        calls = {"step": 0, "stable_dt": 0}
        real_step, real_stable_dt = flow.step, flow.stable_dt

        def counting_step(*args):
            calls["step"] += 1
            return real_step(*args)

        def counting_stable_dt(*args):
            calls["stable_dt"] += 1
            return real_stable_dt(*args)

        monkeypatch.setattr(flow, "step", counting_step)
        monkeypatch.setattr(flow, "stable_dt", counting_stable_dt)
        traj = evolve(field, StepControl(t_end=0.01, snapshot_interval=0.005))
        assert traj.termination == "ReachedTEnd" and traj.step_count >= 2
        assert calls["stable_dt"] == calls["step"] == traj.step_count


class TestEvolveInput:
    def test_input_never_written(self):
        # duplicate edge/corner nodes disagree until evolve syncs its own copy
        g = CubedSphereGrid(17)
        u = bumpy_sphere(g).u * (1.0 + 1e-9 * np.arange(6))[:, None, None]
        field0 = SupportField(g, u=u)
        before = field0.u.copy()
        synced = g.sync_duplicates(field0.u.copy())
        assert not np.array_equal(synced, before)
        traj = evolve(field0, StepControl(t_end=0.002, snapshot_interval=0.001),
                      renormalize=True)
        assert traj.termination == "ReachedTEnd" and len(traj) == 3
        assert np.array_equal(field0.u, before)
        assert np.array_equal(traj.snapshots[0].field.u, synced)


class TestRenormalization:
    def test_factors_record_scale(self, flower256):
        ctl = StepControl(t_end=0.15, snapshot_interval=0.05)
        traj = evolve(flower256, ctl, renormalize=True)
        assert traj.renorm_factors[0] == pytest.approx(1.1)  # initial max_s
        assert all(f > 0 for f in traj.renorm_factors)
        # after each rescale the working field starts at unit max radius:
        # every later snapshot stays O(1)
        for st in traj.snapshots[1:]:
            assert 0.5 < st.field.max_s() < 1.5

    def test_shape_series_match_plain_run(self, flower256):
        # rescaling acts as a time-dependent homothety; scale-invariant
        # quantities must evolve identically to the plain run
        ctl = StepControl(t_end=0.15, snapshot_interval=0.05)
        plain = evolve(flower256, ctl)
        renorm = evolve(flower256, ctl, renormalize=True)
        g = flower256.grid
        for sp, sr in zip(plain.snapshots, renorm.snapshots):
            _, a = g.refine_max(compute_invariants(sp.field).norm_T2)
            _, b = g.refine_max(compute_invariants(sr.field).norm_T2)
            assert abs(a - b) < 1e-8
            ra = sp.field.min_s() / sp.field.max_s()
            rb = sr.field.min_s() / sr.field.max_s()
            assert abs(ra - rb) < 1e-12


class TestSphereLawIntegration:
    @pytest.mark.parametrize("R0", [0.5, 2.0])
    def test_radius_law_short(self, R0):
        # cheap version of the sphere-law comparison (N=64, t=0.1)
        ctl = StepControl(t_end=0.1, snapshot_interval=0.05)
        traj = evolve(sphere_field(1, R0, 64), ctl)
        got = traj.snapshots[-1].field.max_s()
        assert got == pytest.approx(exact_sphere_radius(R0, 0.1, 1), abs=1e-8)

    def test_n2_sphere_law(self):
        ctl = StepControl(t_end=0.05, snapshot_interval=0.05)
        traj = evolve(sphere_field(2, 1.1, 17), ctl)
        got = traj.snapshots[-1].field.max_s()
        want = exact_sphere_radius(1.1, 0.05, 2)
        assert got == pytest.approx(want, abs=1e-8)
        # support stays exactly round: graph path must not break symmetry
        assert np.ptp(traj.snapshots[-1].field.s) < 1e-10


def bumpy_sphere(g):
    """A convex non-round body on the cubed sphere, duplicates already synced."""
    u = g.w * (1.0 + 0.2 * np.prod(g.nodes, axis=-1) + 0.05 * g.nodes[..., 2])
    return SupportField(g, u=g.sync_duplicates(u))


def guard_body(n, convex):
    """s = 1 + c cos 3 theta (n=1) or 1 + c xyz (n=2), positive everywhere;
    c is small enough for a convex body, or large enough to lose convexity."""
    c = {(1, True): 0.05, (1, False): 0.5, (2, True): 0.2, (2, False): 1.5}[n, convex]
    if n == 1:
        return fourier_support(CircleGrid(64), 1.0, a=[0.0, 0.0, c])
    g = CubedSphereGrid(17)
    return SupportField(g, u=g.sync_duplicates(g.w * (1.0 + c * np.prod(g.nodes, axis=-1))))


class TestGuardsFailClosed:
    @pytest.mark.parametrize("n", [1, 2])
    def test_nan_node_raises_blowup(self, n):
        f = guard_body(n, convex=True)
        u = f.u.copy()
        u[(5,) if n == 1 else (0, 8, 8)] = np.nan
        with pytest.raises(NumericalBlowup):
            step(FlowState(0.0, SupportField(f.grid, u=u)), StepControl(), 1.0)

    @pytest.mark.parametrize("n", [1, 2])
    def test_nonconvex_raises_convexity_lost(self, n):
        f = guard_body(n, convex=False)
        g = f.grid
        lo = g.spectrum(g.graph_hessian(f.u))[1]
        lowest = float(lo.min())
        assert lowest < 0.0 < f.min_s()
        with pytest.raises(ConvexityLost) as info:
            step(FlowState(0.0, f), StepControl(), 1.0)
        assert info.value.value == lowest
        # the offending node: (k,) on the circle, (face, i, j) on the cubed sphere
        where = info.value.where
        assert len(where) == len(g.shape) and lo[where] == lowest
        assert where == np.unravel_index(np.argmin(lo), lo.shape)

    @pytest.mark.parametrize("n", [1, 2])
    def test_negative_node_raises_origin_crossed(self, n):
        f = guard_body(n, convex=True)
        node = (5,) if n == 1 else (0, 8, 8)
        u = f.u.copy()
        u[node] = -0.01
        bad = SupportField(f.grid, u=u)
        with pytest.raises(OriginCrossed) as info:
            step(FlowState(0.0, bad), StepControl(), 1.0)
        assert info.value.where == node
        assert info.value.value == bad.min_s() == bad.s[node]


class TestHessianReuse:
    @pytest.mark.parametrize("scheme, per_step", [("rk4", 4), ("heun", 2)])
    def test_hessians_per_step(self, monkeypatch, scheme, per_step):
        # the step bound and stage k1 share one chart Hessian
        g = CubedSphereGrid(17)
        calls = []
        hessian = g.graph_hessian
        monkeypatch.setattr(g, "graph_hessian", lambda u: calls.append(1) or hessian(u))
        traj = evolve(bumpy_sphere(g), StepControl(t_end=0.02, snapshot_interval=0.01,
                                                   scheme=scheme))
        assert traj.termination == "ReachedTEnd" and traj.step_count >= 2
        assert len(calls) == per_step * traj.step_count

    @pytest.mark.parametrize("scheme, stages", [("rk4", 4), ("heun", 2)])
    def test_one_determinant_and_eigenpair_per_stage(self, monkeypatch, scheme, stages):
        # the determinant and the eigenpair come only from grid.spectrum, so
        # counting its calls counts both; the step bound reads the spectrum of
        # the state that stage k1 uses
        g = CubedSphereGrid(17)
        calls = {"spectrum": 0}
        seen = []

        def counting(name, fn):
            def wrapped(*args):
                calls[name] += 1
                return fn(*args)
            return wrapped

        def recording(tag, fn):
            def wrapped(*args):   # the spectrum is the last argument of both
                seen.append((tag, args[-1]))
                return fn(*args)
            return wrapped

        monkeypatch.setattr(g, "spectrum", counting("spectrum", g.spectrum))
        monkeypatch.setattr(flow, "stable_dt", recording("dt", flow.stable_dt))
        monkeypatch.setattr(flow, "_rhs_values", recording("k", flow._rhs_values))
        traj = evolve(bumpy_sphere(g), StepControl(t_end=0.02, snapshot_interval=0.01,
                                                   scheme=scheme))
        assert traj.termination == "ReachedTEnd" and traj.step_count >= 2
        assert calls == {"spectrum": stages * traj.step_count}
        bounds = [i for i, (tag, _) in enumerate(seen) if tag == "dt"]
        assert len(bounds) == traj.step_count
        assert all(seen[i + 1][0] == "k" and seen[i + 1][1] is seen[i][1] for i in bounds)

    @pytest.mark.parametrize("scheme", ["rk4", "heun"])
    def test_step_without_hessian_matches_evolve(self, sphere17, scheme):
        f = bumpy_sphere(sphere17)
        ctl = StepControl(snapshot_interval=1.0, scheme=scheme)
        dt = stable_dt(f, ctl, spectrum(f))
        ctl.t_end = dt
        traj = evolve(f, ctl)
        assert traj.step_count == 1
        alone, landed = step(FlowState(0.0, f), ctl, dt)
        assert landed and alone.t == traj.snapshots[-1].t
        assert np.array_equal(alone.field.u, traj.snapshots[-1].field.u)


@pytest.mark.parametrize("cls", [ConvexityLost, OriginCrossed, TransversalityLost])
def test_guard_errors_share_one_constructor(cls):
    exc = cls("lost", where=(1, 2, 3), value=-0.5)
    assert isinstance(exc, GuardError) and "__init__" not in vars(cls)
    assert (str(exc), exc.where, exc.value) == ("lost", (1, 2, 3), -0.5)


# one short n=1 and one short n=2 run; the final graph values go to argv[1]
DISPATCH_RUN = """
import sys
import numpy as np
from centroflow.flow import StepControl, evolve
from centroflow.grids import CircleGrid, CubedSphereGrid
from centroflow.support import SupportField, fourier_support
g = CubedSphereGrid(17)
u = g.w * (1.0 + 0.2 * np.prod(g.nodes, axis=-1) + 0.05 * g.nodes[..., 2])
bodies = {"n1": (fourier_support(CircleGrid(256), 1.0, a=[0.0, 0.0, 0.1]), 0.05),
          "n2": (SupportField(g, u=g.sync_duplicates(u)), 0.01)}
final = {key: evolve(f, StepControl(t_end=t, snapshot_interval=t)).snapshots[-1].field.u
         for key, (f, t) in bodies.items()}
np.savez(sys.argv[1], **final)
"""


def test_evolve_is_byte_identical_across_cpu_dispatch(tmp_path):
    # numpy picks SIMD kernels at run time; with every enabled dispatch target
    # above its baseline disabled, both n must still step to the same bytes
    umath = pytest.importorskip("numpy._core._multiarray_umath")   # numpy >= 2
    enabled = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    if not enabled:
        pytest.skip("numpy enables no CPU dispatch target above its baseline here")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(centroflow.__file__)))
    runs = []
    for disabled in ("", " ".join(enabled)):
        env["NPY_DISABLE_CPU_FEATURES"] = disabled
        path = tmp_path / f"run{len(runs)}.npz"
        subprocess.run([sys.executable, "-c", DISPATCH_RUN, str(path)], env=env, check=True,
                       timeout=120)
        with np.load(path) as final:
            runs.append(dict(final))
    for key in ("n1", "n2"):
        a, b = runs[0][key], runs[1][key]
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), (
            f"{key}: {int(np.sum(a != b))} of {a.size} nodes differ")
