"""Explicit time stepping for the support-function flow.

The PDE is s_t = (s/2n) log(s^{n+2} det(hess s + s id)) on the sphere.  It is
advanced in the graph variables u = w s of the grid (u = s on the circle,
spectral in theta).  For n=2 the right side regroups to
u_t = (1/2n) u log det D^2 u + ((n+2)/2n) u log u; the determinant is measured
against the same stencils applied to the exact sphere graph w (grid.ref_det),
so every round sphere is a fixed point of the discrete operator to round-off,
not merely to truncation order.
"""

import numpy as np

from .errors import ConvexityLost, NumericalBlowup, OriginCrossed
from .support import SupportField

SCHEMES = ("rk4", "heun")


class StepControl:
    """Time-stepping parameters and stop thresholds."""

    def __init__(self, cfl=0.2, dt_max=1e-2, t_end=1.0, snapshot_interval=0.05,
                 scheme="rk4", extinction_radius=1e-3, blowup_radius=1e3,
                 convexity_floor=1e-10):
        if not (0 < cfl <= 1):
            raise ValueError(f"cfl must be in (0,1], got {cfl}")
        if scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}, got {scheme!r}")
        if extinction_radius <= 0 or blowup_radius <= extinction_radius:
            raise ValueError("need 0 < extinction_radius < blowup_radius")
        self.cfl = cfl
        self.dt_max = dt_max
        self.t_end = t_end
        self.snapshot_interval = snapshot_interval
        self.scheme = scheme
        self.extinction_radius = extinction_radius
        self.blowup_radius = blowup_radius
        self.convexity_floor = convexity_floor


class FlowState:
    def __init__(self, t, field, step_count=0):
        self.t = t
        self.field = field
        self.step_count = step_count


class Trajectory:
    """Ordered flow snapshots plus the termination status.

    renorm_factors[k] is the scale divided out of the working field right
    after snapshot k was recorded (1.0 when no renormalization ran), so
    growth-law bounds can be anchored per interval.
    """

    def __init__(self, snapshots, termination, step_count, renorm_factors=None):
        self.snapshots = snapshots
        self.termination = termination
        self.step_count = step_count
        if renorm_factors is None:
            renorm_factors = [1.0] * len(snapshots)
        self.renorm_factors = renorm_factors

    @property
    def times(self):
        return np.array([st.t for st in self.snapshots])

    def __len__(self):
        return len(self.snapshots)


def _rhs_values(field, convexity_floor=0.0, D2=None):
    """Right-hand side on the graph values u (u = s on the circle).

    D2 is the chart Hessian of u when the caller already has it.
    """
    g = field.grid
    u = field.u
    if np.min(u) <= 0.0:
        raise OriginCrossed("support function lost positivity",
                            value=field.min_s())
    if D2 is None:
        D2 = g.graph_hessian(u)
    lo, _ = g.sym_eigs(D2)
    if np.min(lo) <= convexity_floor:
        raise ConvexityLost("graph Hessian lost positivity",
                            value=float(np.min(lo)))
    if field.n == 1:
        out = 0.5 * u * np.log(u**3 * D2)
    else:
        ratio = g.sym_det(D2) / g.ref_det
        srel = field.s
        out = 0.25 * u * np.log(ratio) + u * np.log(srel)
        # same value grouped as w * s_t; the two must agree to rounding
        alt = 0.25 * u * np.log(ratio * srel**4)
        if np.max(np.abs(out - alt)) > 1e-10:
            raise NumericalBlowup("face/sphere right-hand sides disagree")
    if not np.all(np.isfinite(out)):
        raise NumericalBlowup("non-finite right-hand side")
    return out


def rhs(field, convexity_floor=0.0):
    """ds/dt per node (sphere values, both n)."""
    return _rhs_values(field, convexity_floor) / field.grid.w


def stable_dt(field, control, _hessian=None):
    """Explicit step from the linearized diffusion coefficient (s/2n) b^{-1}.

    n=1: coefficient s/(2b) per node on the uniform theta grid.
    n=2: the chart-coordinate diffusion tensor is (u/4)(D^2 u)^{-1}; its trace
    bounds the symbol over both axes.
    _hessian is the chart Hessian of field.u when the caller already has it.
    """
    g = field.grid
    D2 = g.graph_hessian(field.u) if _hessian is None else _hessian
    if field.n == 1:
        lam = np.max(field.s / (2.0 * D2))
    else:
        lo, hi = g.sym_eigs(D2)
        lam = np.max(0.25 * field.u * (1.0 / lo + 1.0 / hi))
    if not np.isfinite(lam) or lam <= 0:
        raise NumericalBlowup("no stable step: degenerate diffusion coefficient")
    return min(control.dt_max, control.cfl * g.h**2 / lam)


def _advance(field, delta):
    return SupportField(field.grid, u=field.u + delta)


def _sync(field):
    """Make duplicate edge/corner nodes agree across faces (owner-face copy)."""
    field.grid.sync_duplicates(field.u)
    field.s = field.u / field.grid.w
    return field


def step(state, dt, control, _hessian=None, _bound=None):
    """One explicit step (rk4 or heun); every stage is convexity-guarded.

    _hessian is the chart Hessian of the state's u when the caller already has
    it; it serves both the stability bound and the first stage. _bound is
    stable_dt of the state when the caller already has it.
    """
    f0 = state.field
    if _hessian is None:
        _hessian = f0.grid.graph_hessian(f0.u)
    if _bound is None:
        _bound = stable_dt(f0, control, _hessian)
    if dt > _bound * (1.0 + 1e-9):
        raise ValueError("step size exceeds the stability bound")
    floor = control.convexity_floor
    k1 = _rhs_values(f0, floor, _hessian)
    if control.scheme == "heun":
        f1 = _advance(f0, dt * k1)
        k2 = _rhs_values(f1, floor)
        fnew = _advance(f0, 0.5 * dt * (k1 + k2))
    else:
        k2 = _rhs_values(_advance(f0, 0.5 * dt * k1), floor)
        k3 = _rhs_values(_advance(f0, 0.5 * dt * k2), floor)
        k4 = _rhs_values(_advance(f0, dt * k3), floor)
        fnew = _advance(f0, (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4))
    _sync(fnew)
    if not np.all(np.isfinite(fnew.u)):
        raise NumericalBlowup("non-finite state after step")
    return FlowState(state.t + dt, fnew, state.step_count + 1)


# the termination a guard error raised by stable_dt or step ends the run with
_GUARD_TERMINATION = {ConvexityLost: "ConvexityLost", OriginCrossed: "Extinction",
                      NumericalBlowup: "NumericalBlowup"}


def _renormalize(field):
    return SupportField(field.grid, u=field.u / field.max_s())


def evolve(field0, control, renormalize=False):
    """Run the flow to t_end or a stop condition; returns a Trajectory.

    Snapshots are recorded at t=0, at integer multiples of snapshot_interval
    (the step is clipped to land on them exactly), and at the final state.
    With renormalize=True the working field is rescaled to unit max radius
    right after each snapshot is recorded (the recorded snapshot keeps the
    pre-rescaling values at t=0 and the working-scale values afterwards, so
    scale-invariant series are unaffected and c0-type bounds are applied per
    rescaling interval).
    """
    state = FlowState(0.0, field0.copy())
    _sync(state.field)
    snapshots, factors = [], []

    def record():
        nonlocal state
        snapshots.append(FlowState(state.t, state.field.copy(), state.step_count))
        factors.append(1.0)
        if renormalize:
            factors[-1] = state.field.max_s()
            state = FlowState(state.t, _renormalize(state.field), state.step_count)

    record()
    interval = control.snapshot_interval
    next_idx = 1
    termination = "ReachedTEnd"
    while state.t < control.t_end - 1e-14:
        smin, smax = state.field.min_s(), state.field.max_s()
        if smin < control.extinction_radius:
            termination = "Extinction"
            break
        if smax > control.blowup_radius:
            termination = "Blowup"
            break
        D2 = state.field.grid.graph_hessian(state.field.u)
        try:
            dt = bound = stable_dt(state.field, control, D2)
            target = control.t_end
            if interval and interval > 0:
                target = min(target, next_idx * interval)
            landed = state.t + dt >= target - 1e-13
            if landed:
                dt = target - state.t
            state = step(state, dt, control, D2, bound)
        except tuple(_GUARD_TERMINATION) as exc:
            termination = _GUARD_TERMINATION[type(exc)]
            break
        if landed:
            if interval and interval > 0 and abs(state.t - next_idx * interval) < 1e-12:
                next_idx += 1
            record()
    if abs(snapshots[-1].t - state.t) > 1e-13:
        snapshots.append(FlowState(state.t, state.field.copy(), state.step_count))
        factors.append(1.0)
    return Trajectory(snapshots, termination, state.step_count, factors)


def lambda_rescaling(t, lam, n):
    """Factor f(t) mapping the lambda-augmented flow to the plain flow,
    f(t) = exp((n lam/(n+1)) (1 - exp(((n+1)/n) t)))."""
    t = np.asarray(t, dtype=float)
    out = np.exp((n * lam / (n + 1.0)) * (1.0 - np.exp((n + 1.0) / n * t)))
    return float(out) if out.ndim == 0 else out
