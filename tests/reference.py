"""Reference formulas the tests hold the package to; the package itself never
calls them.

- rhs: the flow's right side ds/dt as sphere values, for the probes and the
  fixed-point checks.
- lambda_rescaling: the factor mapping the lambda-augmented flow to the plain one.
- covariant_grad and c_evolution_rhs: the evolution laws of the cubic form,
  smoke-checked against centered time differences.
- homogeneity_residual: the mismatch of s across duplicated cubed-sphere nodes.
- chart_derivs: the cubed sphere's (f_1, f_2, f_11, f_12, f_22) through one
  halo, each a stencil of the extended field written out, the reference of
  graph_hessian, graph_jet and chart_jet.
- read_csv_rows: a CSV artifact read back as floats.

Fields are component-first, like the package's.
"""

import csv

import numpy as np

from centroflow.flow import _rhs_values
from centroflow.grids import HALO


def rhs(field):
    """ds/dt per node (sphere values, both n)."""
    g = field.grid
    return _rhs_values(field, 0.0, g.spectrum(g.graph_hessian(field.u))) / g.w


def lambda_rescaling(t, lam, n):
    """Factor f(t) mapping the lambda-augmented flow to the plain flow,
    f(t) = exp((n lam/(n+1)) (1 - exp(((n+1)/n) t)))."""
    t = np.asarray(t, dtype=float)
    return np.exp((n * lam / (n + 1.0)) * (1.0 - np.exp((n + 1.0) / n * t)))


def covariant_grad(grid, tensor, Gam):
    """Covariant derivative of a lowered rank-1 or rank-2 field, new component
    axis last among the components.

    rank 1: out[i, j]    = d_j T_i  - Gam^p_ij T_p
    rank 2: out[i, j, l] = d_l S_ij - Gam^p_il S_pj - Gam^p_jl S_ip
    Component-first in and out, like the InvariantFields it is fed.
    """
    S = np.asarray(tensor)
    rank = S.ndim - len(grid.shape)
    if rank not in (1, 2):
        raise NotImplementedError("covariant_grad handles rank 1 and 2 fields only")
    d = grid.partials(S.reshape((-1,) + S.shape[rank:]))    # [l, c]
    d = np.moveaxis(d, 0, 1).reshape(S.shape[:rank] + d.shape[:1] + S.shape[rank:])
    if rank == 1:                                           # d[.., l] = d S[..] / d y_l
        return d - np.einsum("pij...,p...->ij...", Gam, S)
    return (d - np.einsum("pil...,pj...->ijl...", Gam, S)
            - np.einsum("pjl...,ip...->ijl...", Gam, S))


def c_evolution_rhs(inv):
    """Formula right sides for the cubic tensor evolution, (mixed, lowered).

    mixed:   d/dt C^k_ij = 1/2 (T^k_;ij + T^k_;ji - g^{kl} T_{i;jl})
                           + T_i delta^k_j + T_j delta^k_i
    lowered: d/dt C_ijk  = 1/2 T_{i;jk} + 1/2 T_l C^p_ik C^l_pj
                           + 1/2 T_l C^p_jk C^l_ip
                           + 1/2 g_ik T_j + 1/2 g_jk T_i + g_ij T_k

    Both need second covariant derivatives of T (fourth derivatives of the
    support data), so they sit near the stencil noise floor; and the solver
    realizes the motion without its tangential component, which perturbs
    raw tensor components at the quadratic order in the anisotropy. Meant
    for loose smoke comparisons against centered time differences only.
    For n=1 the two lines are algebraically consistent: lowering the mixed
    rhs with g and adding C^l_ij d/dt g_lk = C^l_ij T_p C^p_lk recovers the
    lowered rhs exactly (no curvature commutators in one dimension).
    Component-first (n, n, n, ...) results, like the InvariantFields.
    """
    S = covariant_grad(inv.grid, inv.T_low, inv.gamma)      # T_{i;j}
    U = covariant_grad(inv.grid, S, inv.gamma)              # T_{i;jl}
    ginv, g, T, C = inv.g_inv, inv.g, inv.T_low, inv.C_mixed
    up = np.einsum("kl...,lij...->kij...", ginv, U)          # T^k_{;ij}
    rhs_mixed = 0.5 * (up + up.swapaxes(1, 2)
                       - np.einsum("kl...,ijl...->kij...", ginv, U))
    eye = np.eye(inv.n)
    rhs_mixed += np.einsum("i...,kj->kij...", T, eye) \
        + np.einsum("j...,ki->kij...", T, eye)
    TC = np.einsum("l...,lpj...->pj...", T, C)                # T_l C^l_pj
    rhs_low = 0.5 * U \
        + 0.5 * np.einsum("pik...,pj...->ijk...", C, TC) \
        + 0.5 * np.einsum("pjk...,ip...->ijk...", C, TC) \
        + 0.5 * np.einsum("ik...,j...->ijk...", g, T) \
        + 0.5 * np.einsum("jk...,i...->ijk...", g, T) \
        + np.einsum("ij...,k...->ijk...", g, T)
    return rhs_mixed, rhs_low


def homogeneity_residual(field):
    """Max mismatch of s across duplicate chart nodes (coherence of the six charts)."""
    g = field.grid
    if g._dup_dst.size == 0:
        return 0.0
    flat = field.s.reshape(-1)
    return float(np.max(np.abs(flat[g._dup_dst] - flat[g._dup_src])))


def chart_derivs(grid, values, kind="scalar"):
    """(f_1, f_2, f_11, f_12, f_22) of a cubed-sphere field on the interior nodes,
    through the halo of `kind`: the d1 and d2 stencils along array axes 1 and
    2 of the extended field, the halo cut off the other axis after them."""
    ext = grid.extend(values, kind)
    H = HALO
    e1 = grid.d1(ext, 1)
    return (e1[:, :, H:-H], grid.d1(ext, 2)[:, H:-H], grid.d2(ext, 1)[:, :, H:-H],
            grid.d1(e1, 2), grid.d2(ext, 2)[:, H:-H])


def read_csv_rows(path):
    """Rows of a #-commented CSV as dicts of floats (hash line returned too)."""
    with open(path) as fh:
        first = fh.readline().strip()
        cfg_hash = first.split("=", 1)[1] if first.startswith("# config_hash=") else None
        reader = csv.DictReader(fh)
        rows = [{k: float(v) for k, v in row.items()} for row in reader]
    return rows, cfg_hash
