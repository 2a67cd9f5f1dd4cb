"""The flow commutes with linear maps, so every body is an oracle.

For A in GL(n+1) and a body K, the flow takes A.K at time t to A.K(t), K(t)
the flow of K, over the factor of the lambda-augmented flow with lambda =
log det A (reference.lambda_rescaling), which is 1 on SL(n+1). Checked on a
generic curve, which has no closed-form flow, at N=128 and t=0.05: the
defect max|s(evolve(A.K)) - s(A.evolve(K))| measures 1.3e-12 for the SL map
and 1.4e-12 for the GL one. Without the GL factor it reads 1.5e-2, and a
right side whose exponent n + 2 reads n + 2.01 raises the SL defect to 8.3e-5.
"""

import numpy as np
import pytest

from centroflow import flow
from centroflow.flow import StepControl, evolve
from centroflow.grids import CircleGrid
from centroflow.support import apply_linear_map, fourier_support
from reference import lambda_rescaling

T = 0.05
S = np.array([[1.2, 0.3], [0.1, 1.03 / 1.2]])     # det 1
TOL = 1e-10


def _flow(field):
    traj = evolve(field, StepControl(t_end=T, snapshot_interval=T))
    assert traj.termination == "ReachedTEnd" and traj.snapshots[-1].t == pytest.approx(T)
    return traj.snapshots[-1].field


def _defect(A, rescale=True):
    """max|s(evolve(A.K)) - s(A.evolve(K)) / f|, f the lambda factor of det A
    (1 when rescale is False)."""
    body = fourier_support(CircleGrid(128), 1, a=[0, 0, 0.08], b=[0, 0.05])
    factor = lambda_rescaling(T, np.log(np.linalg.det(A)), 1) if rescale else 1.0
    image_flow = _flow(apply_linear_map(body, A)).s
    flow_image = apply_linear_map(_flow(body), A).s / factor
    return float(np.max(np.abs(image_flow - flow_image)))


def test_flow_commutes_with_sl2():
    assert _defect(S) <= TOL


def test_flow_commutes_with_gl2_up_to_the_lambda_factor():
    A = 1.1 * S
    assert _defect(A) <= TOL
    # the factor is what makes it commute: without it the scale is off
    assert _defect(A, rescale=False) > 1e-3


def test_a_wrong_exponent_breaks_the_covariance(monkeypatch):
    # 0.5 u log(u^(n + 2.01) det b) on the circle: the n=1 right side plus
    # 0.005 u log u, which a linear map does not commute with
    rhs = flow._rhs_values
    monkeypatch.setattr(flow, "_rhs_values", lambda g, u, floor, spec:
                        rhs(g, u, floor, spec) + 0.005 * u * np.log(u))
    assert _defect(S) > 1e3 * TOL
