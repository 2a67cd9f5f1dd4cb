"""Explicit time stepping for the support-function flow.

The PDE is s_t = (s/2n) log(s^{n+2} det(hess s + s id)) on the sphere.  It is
advanced in the graph variables u = w s of the grid (u = s on the circle,
spectral in theta).  For n=2 the right side regroups to
u_t = (1/2n) u log det D^2 u + ((n+2)/2n) u log u; the determinant is measured
against the same stencils applied to the exact sphere graph w (grid.ref_det),
so every round sphere is a fixed point of the discrete operator to round-off,
not merely to truncation order.
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


def _rhs_values(grid, u, convexity_floor, spec):
    """Right-hand side on the graph values u (u = s on the circle).

    spec is grid.spectrum of the chart Hessian of u: (det, lo, hi).
    """
    if u.min() <= 0.0:
        s = u / grid.w
        raise OriginCrossed("support function lost positivity", value=s.min(),
                            where=np.unravel_index(np.argmin(s), u.shape))
    det, lo, _ = spec
    if lo.min() <= convexity_floor:
        raise ConvexityLost("graph Hessian lost positivity", value=float(lo.min()),
                            where=np.unravel_index(np.argmin(lo), lo.shape))
    if grid.n == 1:
        out = 0.5 * u * np.log(u**3 * det)
    else:
        ratio = det / grid.ref_det
        srel = u / grid.w
        out = 0.25 * u * np.log(ratio) + u * np.log(srel)
        # same value grouped as w * s_t; the two must agree to rounding
        alt = 0.25 * u * np.log(ratio * (srel * srel) ** 2)
        if np.abs(out - alt).max() > 1e-10:
            raise NumericalBlowup("face/sphere right-hand sides disagree")
    if not np.isfinite(out).all():
        raise NumericalBlowup("non-finite right-hand side")
    return out


def stable_dt(field, control, spec):
    """Explicit step from the linearized diffusion coefficient (s/2n) b^{-1}.

    n=1: coefficient s/(2b) per node on the uniform theta grid.
    n=2: the chart-coordinate diffusion tensor is (u/4)(D^2 u)^{-1}; its trace
    bounds the symbol over both axes.
    spec is grid.spectrum of the chart Hessian of field.u: (det, lo, hi).
    """
    g = field.grid
    _, lo, hi = spec
    if field.n == 1:
        lam = (field.s / (2.0 * lo)).max()
    else:
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
