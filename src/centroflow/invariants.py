"""Centro-affine invariant stack computed from support data.

Pipeline per time slice: embed the body off its support function, differentiate
the embedding in chart coordinates, solve the frame decomposition
X_ij = Ghat^k_ij X_k - g_ij X for the metric g and induced connection Ghat,
then assemble the Levi-Civita connection, the difference (cubic) tensor
C = Ghat - Gamma, the Tchebychev field T = (1/n) trace C, the Tchebychev
function psi = det g / bracket^2, the equi-affine support rho, the mean
curvature H = (1/n) Div T, and (n=2) the Pick invariant J and the normalized
scalar curvature chi = J - (n/(n-1))|T|^2 + 1.

Everything is frame-generic; closed-form shortcuts exist for both n (for n=1
g = (s+s'')/s etc.) and the tests pin them against this generic pipeline.
"""

import numpy as np

from .errors import TransversalityLost, Unsupported
from . import support as sup

EPS_FRAME = 1e-12


class InvariantFields:
    """Per-node invariant stack; shapes depend on n (see compute_invariants)."""

    def __init__(self, **kw):
        self.__dict__.update(kw)


def gauss_decompose(X, X_i, X_ij):
    """Solve X_ij = Ghat^k_ij X_k - g_ij X in the moving frame {X_1..X_n, X}.

    Returns (g, Ghat, frame, frame_det, crosscheck_residual):
      g: (..., n, n), Ghat: (..., n, n, n) indexed [k, i, j],
      frame: (..., n+1, n+1) columns X_1..X_n, X, frame_det its determinant.
    The metric is also recovered through the determinant (Cramer) formula
    g_ij = -[X_1..X_n, X_ij] / [X_1..X_n, X] as a cross-check.
    """
    n = X_i.shape[-2]
    lead = X.shape[:-1]
    frame = np.concatenate([np.moveaxis(X_i, -2, -1), X[..., None]], axis=-1)
    frame_det = np.linalg.det(frame)
    if np.min(np.abs(frame_det)) < EPS_FRAME:
        raise TransversalityLost("frame [X_1..X_n, X] became degenerate",
                                 value=float(np.min(np.abs(frame_det))))
    # right-hand sides: all second derivatives at once, columns indexed by (i,j)
    rhs = X_ij.reshape(lead + (n * n, n + 1))
    coef = np.linalg.solve(frame, np.moveaxis(rhs, -2, -1))
    coef = np.moveaxis(coef, -1, -2).reshape(lead + (n, n, n + 1))
    Ghat = np.moveaxis(coef[..., :n], -1, -3)          # [k, i, j]
    gmat = -coef[..., n]
    gmat = 0.5 * (gmat + np.swapaxes(gmat, -1, -2))
    # Cramer cross-check for one representative entry per pair
    alt = np.empty_like(gmat)
    for i in range(n):
        for j in range(n):
            rep = frame.copy()
            rep[..., :, n] = X_ij[..., i, j, :]
            alt[..., i, j] = -np.linalg.det(rep) / frame_det
    cross = float(np.max(np.abs(alt - gmat)))
    return gmat, Ghat, frame, frame_det, cross


def levi_civita(grid, gmat):
    """Christoffel symbols of the metric field, [k, i, j] ordering."""
    if grid.n == 1:
        g = gmat[..., 0, 0]
        Gam = (grid.deriv(g, 1) / (2.0 * g))
        return Gam[..., None, None, None]
    dg = np.stack([grid.d1_face(gmat, 1), grid.d1_face(gmat, 2)], axis=-3)
    # dg[..., l, i, j] = d g_ij / d y_l
    ginv = np.linalg.inv(gmat)
    # sym[..., i, j, l] = d_i g_jl + d_j g_il - d_l g_ij, from dg[..., a, b, c] = d_a g_bc
    sym = dg + np.swapaxes(dg, -3, -2) - np.moveaxis(dg, -3, -1)
    return 0.5 * np.einsum("...kl,...ijl->...kij", ginv, sym)


def cubic_form(Ghat, Gam, gmat):
    """C = Ghat - Gamma (mixed), lowered form, |C|^2, and symmetry residual."""
    C = Ghat - Gam                                      # [k, i, j]
    C_low = np.einsum("...kij,...kl->...ijl", C, gmat)  # C_ijl
    ginv = np.linalg.inv(gmat)
    C_up = np.einsum("...ia,...jb,...kc,...abc->...ijk", ginv, ginv, ginv, C_low)
    norm_C2 = np.einsum("...ijk,...ijk->...", C_low, C_up)
    sym = max(float(np.max(np.abs(C_low - np.swapaxes(C_low, -3, -2)))),
              float(np.max(np.abs(C_low - np.swapaxes(C_low, -2, -1)))))
    return C, C_low, norm_C2, sym


def tchebychev(grid, C, gmat, Gam):
    """T_i = (1/n) C^k_ki, |T|^2, and H = (1/n) g^{ij} (d_j T_i - Gam^k_ij T_k)."""
    n = grid.n
    T_low = np.einsum("...kki->...i", C) / n
    ginv = np.linalg.inv(gmat)
    T_up = np.einsum("...ij,...j->...i", ginv, T_low)
    norm_T2 = np.einsum("...i,...i->...", T_low, T_up)
    dT = grid.grad(T_low)                               # (..., i, j) = d_j T_i
    covdiv = np.einsum("...ij,...ij->...", ginv, np.swapaxes(dT, -1, -2)) \
        - np.einsum("...ij,...kij,...k->...", ginv, Gam, T_low)
    H = covdiv / n
    return T_low, T_up, norm_T2, H


def tchebychev_function(gmat, frame_det):
    """psi = det g / bracket^2 (positive, GL-covariant by det A^{-2})."""
    return np.linalg.det(gmat) / frame_det**2


def equiaffine_support(s, K, n):
    """rho = s * K^{-1/(n+2)} for Gauss curvature K > 0."""
    return s * K ** (-1.0 / (n + 2))


def pick_and_chi(norm_C2, norm_T2, n):
    """Pick invariant J and normalized scalar curvature chi (n >= 2 only)."""
    if n < 2:
        raise Unsupported("the Pick invariant divides by n-1 and needs n >= 2")
    J = norm_C2 / (n * (n - 1))
    chi = J - (n / (n - 1)) * norm_T2 + 1.0
    return J, chi


def integrate_mu(grid, values, sqrt_det_g):
    """Integral of a scalar against the centro-affine measure dmu = sqrt(det g) dy."""
    return grid.integrate_chart(values * sqrt_det_g)


def compute_invariants(field):
    """Full invariant stack for a support field; returns InvariantFields.

    Array shapes (leading axes = node axes of the grid):
      g, g_inv: (..., n, n);  gamma_hat, gamma, C_mixed: (..., n, n, n) [k,i,j];
      C_low: (..., n, n, n) [i,j,k];  T_low: (..., n);  scalars: node-shaped.
    """
    grid = field.grid
    n = grid.n
    X = sup.embed(field)
    X_i, X_ij = grid.chart_jet(X)
    gmat, Ghat, frame, frame_det, cross = gauss_decompose(X, X_i, X_ij)
    Gam = levi_civita(grid, gmat)
    C, C_low, norm_C2, sym_C = cubic_form(Ghat, Gam, gmat)
    T_low, T_up, norm_T2, H = tchebychev(grid, C, gmat, Gam)
    psi = tchebychev_function(gmat, frame_det)
    bmat = sup.curvature_matrix(field)
    det_b = grid.sym_det(bmat)
    K = 1.0 / det_b
    rho = equiaffine_support(field.s, K, n)
    if n >= 2:
        J, chi = pick_and_chi(norm_C2, norm_T2, n)
    else:
        J = chi = None
    det_g = np.linalg.det(gmat)
    sqrt_det_g = np.sqrt(np.maximum(det_g, 0.0))

    # rel-support residuals: T against the gradients of log psi and log rho
    grad_lpsi = grid.grad(np.log(psi))
    grad_lrho = grid.grad(np.log(rho))
    r_psi = float(np.max(np.abs(T_low + grad_lpsi / (2 * n))))
    r_rho = float(np.max(np.abs(T_low - (n + 2) / (2 * n) * grad_lrho)))

    return InvariantFields(
        n=n, grid=grid,
        g=gmat, g_inv=np.linalg.inv(gmat), gamma_hat=Ghat, gamma=Gam,
        C_mixed=C, C_low=C_low, T_low=T_low, T_up=T_up,
        norm_T2=norm_T2, norm_C2=norm_C2,
        psi=psi, rho=rho, H=H, J=J, chi=chi,
        curvature=bmat, det_curvature=det_b, gauss_K=K,
        frame=frame, frame_det=frame_det, det_g=det_g, sqrt_det_g=sqrt_det_g,
        residual_gauss_cross=cross, residual_C_symmetry=sym_C,
        residual_relsupport=max(r_psi, r_rho),
        residual_psi=r_psi, residual_rho=r_rho,
        area=grid.integrate_chart(sqrt_det_g),
    )


def t2_evolution_rhs(inv):
    """Per-node right side of d/dt |T|^2 = T^i H_i + 2(1+1/n)|T|^2 - C^{ijk} T_i T_j T_k.

    H_i is the gradient of the scalar mean curvature H. Valid pointwise at
    interior extrema of |T|^2 and, with the extra (n/2)|T|^4 production term,
    under the centro-affine measure integral.
    """
    grid = inv.grid
    n = inv.n
    H_i = grid.grad(inv.H)
    TiHi = np.einsum("...i,...i->...", inv.T_up, H_i)
    CTTT = np.einsum("...ijk,...i,...j,...k->...", inv.C_low,
                     inv.T_up, inv.T_up, inv.T_up)
    return TiHi + 2.0 * (1.0 + 1.0 / n) * inv.norm_T2 - CTTT


def covariant_grad(grid, tensor, Gam):
    """Covariant derivative of a lowered rank-1 or rank-2 field, new axis last.

    rank 1: out[..., i, j]    = d_j T_i  - Gam^p_ij T_p
    rank 2: out[..., i, j, l] = d_l S_ij - Gam^p_il S_pj - Gam^p_jl S_ip
    """
    rank = np.asarray(tensor).ndim - len(grid.shape)
    d = grid.grad(tensor)
    if rank == 1:
        return d - np.einsum("...pij,...p->...ij", Gam, tensor)
    if rank == 2:
        return (d - np.einsum("...pil,...pj->...ijl", Gam, tensor)
                - np.einsum("...pjl,...ip->...ijl", Gam, tensor))
    raise Unsupported("covariant_grad handles rank 1 and 2 fields only")


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
    """
    S = covariant_grad(inv.grid, inv.T_low, inv.gamma)      # T_{i;j}
    U = covariant_grad(inv.grid, S, inv.gamma)              # T_{i;jl}
    up = np.einsum("...kl,...lij->...kij", inv.g_inv, U)    # T^k_{;ij}
    rhs_mixed = 0.5 * (up + np.swapaxes(up, -2, -1)
                       - np.einsum("...kl,...ijl->...kij", inv.g_inv, U))
    eye = np.eye(inv.n)
    rhs_mixed = rhs_mixed + np.einsum("...i,kj->...kij", inv.T_low, eye) \
        + np.einsum("...j,ki->...kij", inv.T_low, eye)
    TC = np.einsum("...l,...lpj->...pj", inv.T_low, inv.C_mixed)  # T_l C^l_pj
    rhs_low = 0.5 * U \
        + 0.5 * np.einsum("...pik,...pj->...ijk", inv.C_mixed, TC) \
        + 0.5 * np.einsum("...pjk,...ip->...ijk", inv.C_mixed, TC) \
        + 0.5 * np.einsum("...ik,...j->...ijk", inv.g, inv.T_low) \
        + 0.5 * np.einsum("...jk,...i->...ijk", inv.g, inv.T_low) \
        + np.einsum("...ij,...k->...ijk", inv.g, inv.T_low)
    return rhs_mixed, rhs_low
