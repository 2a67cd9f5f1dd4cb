"""Explicit time stepping for the support-function flow.

The PDE is s_t = (s/2n) log(s^{n+2} det(hess s + s id)) on the sphere.  It is
advanced in the graph variables u = w s of the grid, where it reads
u_t = (u/2n) log(det D^2 u / ref_det * (u/w)^{n+2}) for every n: D^2 u is the
chart Hessian and ref_det its determinant on the exact sphere graph w (on the
circle, spectral in theta, w = 1, D^2 u = u + u'' and ref_det = 1).  On the
cubed sphere ref_det comes from the same stencils applied to w, so every round
sphere is a fixed point of the discrete operator to round-off, not merely to
truncation order.
"""

import math

import numpy as np

from .errors import ConfigError, ConvexityLost, NumericalBlowup, OriginCrossed
from .support import SupportField, require_single

SCHEMES = ("rk4", "heun")


def is_number(v):
    """A JSON number with a finite float value; true/false load as bool, an int."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:  # an int beyond the float range
        return False


class StepControl:
    """Time-stepping parameters and stop thresholds, checked and stored as floats.

    The one statement of every stepping default and range: a run config's
    stepping fields and 'stops' are validated by building one.
    """

    def __init__(self, cfl=0.2, dt_max=1e-2, t_end=1.0, snapshot_interval=0.05,
                 scheme="rk4", extinction_radius=1e-3, blowup_radius=1e3,
                 convexity_floor=1e-10):
        if scheme not in SCHEMES:
            raise ConfigError(f"'scheme' must be one of {SCHEMES}")
        self.scheme = scheme
        for key, v in (("cfl", cfl), ("dt_max", dt_max), ("t_end", t_end),
                       ("snapshot_interval", snapshot_interval),
                       ("extinction_radius", extinction_radius),
                       ("blowup_radius", blowup_radius),
                       ("convexity_floor", convexity_floor)):
            if not (is_number(v) and v > 0):
                raise ConfigError(f"'{key}' must be a positive finite number, got {v!r}")
            setattr(self, key, float(v))
        if self.cfl > 1.0:
            raise ConfigError(f"'cfl' must be <= 1.0, got {cfl!r}")
        if self.extinction_radius >= self.blowup_radius:
            raise ConfigError("extinction_radius must be smaller than blowup_radius")


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

    def __init__(self, snapshots, termination, step_count, renorm_factors):
        self.snapshots = snapshots
        self.termination = termination
        self.step_count = step_count
        self.renorm_factors = renorm_factors

    @property
    def times(self):
        return np.array([st.t for st in self.snapshots])

    def __len__(self):
        return len(self.snapshots)


def _rhs_values(grid, u, convexity_floor, spec):
    """Right-hand side (u/2n) log(det / ref_det * srel^{n+2}), srel = u/w = s.

    spec is grid.spectrum of the chart Hessian of u: (det, lo, hi). The power
    is a product: numpy's integer powers round differently across CPU
    dispatch levels, a product of floats does not.
    """
    srel = u / grid.w
    if u.min() <= 0.0:
        raise OriginCrossed("support function lost positivity", value=srel.min(),
                            where=np.unravel_index(np.argmin(srel), u.shape))
    det, lo, _ = spec
    if lo.min() <= convexity_floor:
        raise ConvexityLost("graph Hessian lost positivity", value=float(lo.min()),
                            where=np.unravel_index(np.argmin(lo), lo.shape))
    n = grid.n
    power = math.prod([srel] * (n + 1), start=srel)   # srel^{n+2}
    out = (0.5 / n) * u * np.log(det / grid.ref_det * power)
    if not np.isfinite(out).all():
        raise NumericalBlowup("non-finite right-hand side")
    return out


def stable_dt(field, control, spec):
    """Explicit step from the diffusion bound (u/4)(1/lo + 1/hi) per node.

    The linearized chart-coordinate diffusion tensor is (u/2n)(D^2 u)^{-1}. At
    n=2 the bound is its trace, which bounds the symbol over both axes; at n=1,
    where lo = hi = b and u = s, it is the coefficient s/(2b) itself.
    spec is grid.spectrum of the chart Hessian of field.u: (det, lo, hi).
    """
    g = field.grid
    _, lo, hi = spec
    lam = (0.25 * field.u * (1.0 / lo + 1.0 / hi)).max()
    if not math.isfinite(lam) or lam <= 0:
        raise NumericalBlowup("no stable step: degenerate diffusion coefficient")
    return min(control.dt_max, control.cfl * g.h**2 / lam)


def step(state, control, t_stop):
    """One explicit step (rk4 or heun) of size stable_dt, cut to land on t_stop.

    Returns (new state, landed); landed is True when the step was cut to end
    at t_stop. The state's chart Hessian spectrum serves both the bound and the
    first stage; every stage is convexity-guarded. A batch field raises GridError.
    """
    f0 = state.field
    require_single(f0)
    g = f0.grid
    spec = g.spectrum(g.graph_hessian(f0.u))
    dt = stable_dt(f0, control, spec)
    landed = state.t + dt >= t_stop - 1e-13
    if landed:
        dt = t_stop - state.t
    floor = control.convexity_floor

    def rate(delta):
        u = f0.u + delta
        return _rhs_values(g, u, floor, g.spectrum(g.graph_hessian(u)))

    k1 = _rhs_values(g, f0.u, floor, spec)
    if control.scheme == "heun":
        delta = 0.5 * dt * (k1 + rate(dt * k1))
    else:
        k2 = rate(0.5 * dt * k1)
        k3 = rate(0.5 * dt * k2)
        k4 = rate(dt * k3)
        delta = (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    # duplicate edge/corner nodes take their owner face's value
    u = g.sync_duplicates(f0.u + delta)
    if not np.isfinite(u).all():
        raise NumericalBlowup("non-finite state after step")
    return FlowState(state.t + dt, SupportField(g, u=u), state.step_count + 1), landed


# every termination evolve writes: t_end reached, a stop radius crossed, a guard tripped
TERMINATIONS = ("ReachedTEnd", "Extinction", "Blowup", "ConvexityLost", "NumericalBlowup")

# the termination a guard error raised by step ends the run with
_GUARD_TERMINATION = {ConvexityLost: "ConvexityLost", OriginCrossed: "Extinction",
                      NumericalBlowup: "NumericalBlowup"}


def evolve(field0, control, renormalize=False):
    """Run the flow to t_end or a stop condition; returns a Trajectory.

    Snapshots are recorded at t=0, at integer multiples of snapshot_interval
    (the step is clipped to land on them exactly), and at the final state.
    With renormalize=True the working field is rescaled to unit max radius
    right after each snapshot is recorded (the recorded snapshot keeps the
    pre-rescaling values at t=0 and the working-scale values afterwards, so
    scale-invariant series are unaffected and c0-type bounds are applied per
    rescaling interval). field0 is not modified; no field is modified after
    it is built, so snapshots keep the states themselves. A batch field
    raises GridError.
    """
    require_single(field0)
    g = field0.grid
    state = FlowState(0.0, SupportField(g, u=g.sync_duplicates(field0.u.copy())))
    snapshots, factors = [], []

    def record():
        nonlocal state
        snapshots.append(state)
        factors.append(1.0)
        if renormalize:
            factors[-1] = state.field.max_s()
            state = FlowState(state.t, SupportField(g, u=state.field.u / factors[-1]),
                              state.step_count)

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
        try:
            state, landed = step(state, control,
                                 min(control.t_end, next_idx * interval))
        except tuple(_GUARD_TERMINATION) as exc:
            termination = _GUARD_TERMINATION[type(exc)]
            break
        if landed:
            if abs(state.t - next_idx * interval) < 1e-12:
                next_idx += 1
            record()
    if abs(snapshots[-1].t - state.t) > 1e-13:
        snapshots.append(state)
        factors.append(1.0)
    return Trajectory(snapshots, termination, state.step_count, factors)
