"""Centro-affine invariant stack computed from support data.

Pipeline per time slice: read the embedding and the curvature off one graph
jet (grid.graph_jet), differentiate the embedding in chart coordinates, solve
the frame decomposition X_ij = Ghat^k_ij X_k - g_ij X for the metric g and
induced connection Ghat, then assemble the Levi-Civita connection, the
difference (cubic) tensor C = Ghat - Gamma, the Tchebychev field
T = (1/n) trace C, the Tchebychev function psi = det g / bracket^2, the
equi-affine support rho, the mean curvature H = (1/n) Div T, and (n=2) the
Pick invariant J and the normalized scalar curvature chi = J - (n/(n-1))|T|^2 + 1.

Everything is frame-generic; closed-form shortcuts exist for both n (for n=1
g = (s+s'')/s etc.) and the tests pin them against this generic pipeline.

Layout: every field is component-first (component axes of length n or n+1
first, then the node axes, then a batch axis), so each einsum's inner loop
runs along the nodes. support.embed and the grids hand over component-first
embeddings and jets, and the grids differentiate a stack of components in
one call (partials); both entry points (compute_invariants, t2_evolution_rhs)
take and return that layout, and the InvariantFields are the arrays as the
stack computes them: nothing is transposed on the way. The evolution laws of
the cubic form itself, which need second covariant derivatives of T, are
written out in the tests' reference module only.

The metric's inverse and determinant are computed once per call in closed
form (inv_det). The Gauss decomposition is solved by Cramer's rule in
brackets: every bracket is a dot product with a generalized cross product
(cross_normal), so the frame's dual basis (frame_dual) costs a few products
per node and no LAPACK call. residual_gauss_cross is the reconstruction
residual max|X_ij - Ghat^k_ij X_k + g_ij X| / max|X_ij|: it checks the
decomposition against its definition, whatever route solved it.

A batch field (grids: one trailing batch axis of snapshots) runs through the
same code, every array carrying the batch axis last, and every scalar (area,
residuals, the transversality guard) is taken per snapshot. Each scalar has
the field's batch shape: () for one body (a numpy scalar), (B,) for a batch.
"""

import numpy as np

from .errors import TransversalityLost
from . import support as sup

EPS_FRAME = 1e-12


class InvariantFields:
    """Per-node invariant stack; shapes depend on n (see compute_invariants)."""

    def __init__(self, **kw):
        self.__dict__.update(kw)


def inv_det(m):
    """Closed-form inverse and determinant of a component-first (k, k, ...) field, k = 1 or 2."""
    if len(m) == 1:
        det = m[0, 0]
        return (1.0 / det)[None, None], det
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    inv = np.empty_like(m)
    inv[0, 0] = m[1, 1] / det
    inv[0, 1] = -m[0, 1] / det
    inv[1, 0] = -m[1, 0] / det
    inv[1, 1] = m[0, 0] / det
    return inv, det


def cross_normal(Xi, out):
    """Generalized cross product N of X_1..X_n, component-first (n, n+1, ...) -> (n+1, ...),
    written into out.

    The bracket [X_1..X_n, Y] (determinant of the columns X_1..X_n, Y) is N . Y.
    """
    if len(Xi) == 1:
        a = Xi[0]
        np.negative(a[1], out=out[0])
        out[1] = a[0]
        return out
    a, b = Xi
    for c, (i, j) in enumerate(((1, 2), (2, 0), (0, 1))):
        np.multiply(a[i], b[j], out=out[c])
        out[c] -= a[j] * b[i]
    return out


def _peak(a, batched, op=np.max):
    """op over every axis of a component-first array but a trailing batch axis."""
    return op(a, axis=tuple(range(a.ndim - batched)))


def _later_max(a, b):
    """Python's max(a, b) per snapshot, b only where b > a; scalars give a scalar."""
    return np.where(b > a, b, a)[()]


def frame_dual(cols):
    """Dual basis of the frame by brackets, and the frame bracket [X_1..X_n, X].

    cols: component-first (n+1, n+1, ...) [r, a], frame column r = X_1..X_n, X.
    Returns dual (n+1, n+1, ...) with dual[r] . cols[s] = delta_rs, so dual[r] . Y
    is the coefficient of Y on column r. Cramer: that coefficient is the bracket
    with Y in place of column r over the frame bracket, which is
    (-1)^(n-r) [columns without r, Y] / [X_1..X_n, X], a cross_normal dot Y;
    for r = n it is the normal of X_1..X_n itself.
    A degenerate bracket is refused by gauss_decompose, per snapshot.
    """
    n = len(cols) - 1
    dual = np.empty_like(cols)
    for r in range(n + 1):
        cross_normal([c for k, c in enumerate(cols) if k != r], out=dual[r])
        if (n - r) % 2:
            dual[r] *= -1
    frame_det = np.einsum("a...,a...->...", dual[n], cols[n])
    with np.errstate(divide="ignore", invalid="ignore"):  # a zero bracket is refused
        dual /= frame_det
    return dual, frame_det


def gauss_decompose(X, X_i, X_ij, batched=0):
    """Solve X_ij = Ghat^k_ij X_k - g_ij X in the moving frame {X_1..X_n, X}.

    Takes component-first X (n+1, ...), X_i (n, n+1, ...), X_ij (n, n, n+1, ...),
    X_ij symmetric in (i, j). Returns (g, Ghat, frame, frame_det, residual):
      g: (n, n, ...) and Ghat: (n, n, n, ...) [k, i, j];
      frame: (n+1, n+1, ...), frame[r] the frame vector X_1..X_n, X (so X is
      frame[n]), frame_det its bracket;
      residual: max|X_ij - Ghat^k_ij X_k + g_ij X| / max|X_ij|, the
      decomposition checked against its definition.
    batched=1 says the last of the "..." axes holds snapshots; the residual
    has the batch shape, () or (B,). TransversalityLost carries the smallest
    bracket of the first snapshot whose bracket falls below EPS_FRAME, and in
    where that bracket's node, (k,) or (face, i, j), then its column in a batch.
    """
    n = len(X_i)
    lead = X.shape[1:]
    cols = np.empty((n + 1, n + 1) + lead)
    cols[:n] = X_i
    cols[n] = X
    dual, frame_det = frame_dual(cols)
    low = _peak(np.abs(frame_det), batched, np.min)
    tripped = np.flatnonzero(low < EPS_FRAME)
    if tripped.size:
        col = np.unravel_index(tripped[0], np.shape(low))
        node = np.unravel_index(np.argmin(np.abs(frame_det[(...,) + col])),
                                lead[:len(lead) - batched])
        raise TransversalityLost("frame [X_1..X_n, X] became degenerate",
                                 where=node + col, value=float(low[col]))
    # coefficients (Ghat^1_ij..Ghat^n_ij, -g_ij), one (i, j) pair at a time:
    # the transient peak stays at a few node fields
    coef = np.empty((n + 1, n, n) + lead)
    err = scale = 0.0
    for i in range(n):
        for j in range(i, n):
            Y = X_ij[i, j]
            scale = _later_max(scale, _peak(np.abs(Y), batched))
            c = np.einsum("ra...,a...->r...", dual, Y, out=coef[:, i, j])
            coef[:, j, i] = c
            err = _later_max(err, _peak(np.abs(Y - np.einsum("r...,ra...->a...", c, cols)),
                                        batched))
    return -coef[n], coef[:n], cols, frame_det, err / scale


def levi_civita(grid, gmat, ginv):
    """Christoffel symbols [k, i, j] of the metric field, component-first."""
    # dg[l, i, j] = d g_ij / d y_l, from the n(n+1)/2 distinct entries in one call;
    # their pairs i <= j come from a list (np.triu_indices takes ~20 us a call)
    n = len(gmat)
    i, j = np.array([(a, b) for a in range(n) for b in range(a, n)]).T
    d = grid.partials(gmat[i, j])
    dg = np.empty((n,) + gmat.shape)
    dg[:, i, j] = dg[:, j, i] = d
    # sym[i, j, l] = d_i g_jl + d_j g_il - d_l g_ij, one contiguous node field at a
    # time; it is symmetric in (i, j), as a + b = b + a
    sym = np.empty_like(dg)
    for a in range(n):
        for b in range(a, n):
            for l in range(n):
                np.add(dg[a, b, l], dg[b, a, l], out=sym[a, b, l])
                sym[a, b, l] -= dg[l, a, b]
            sym[b, a] = sym[a, b]
    Gam = np.einsum("kl...,ijl...->kij...", ginv, sym)
    Gam *= 0.5
    return Gam


def cubic_form(Ghat, Gam, gmat, ginv, batched):
    """C = Ghat - Gamma (mixed), lowered form C_ijk = C^l_ij g_lk, |C|^2, and the
    symmetry residual max|C_ijk - C_ikj| (per snapshot, in the batch shape: ()
    or, when batched=1, (B,)).

    C_ijk is mirrored in (i, j) by construction: gauss_decompose copies Ghat's
    (i, j) slot into (j, i), and levi_civita's sym is a commutative sum, so the
    (i, j) transposition holds bit for bit. The residual measures the (j, k)
    transposition, which the discrete stack does not build in, over its
    off-diagonal pairs (none for n = 1, where it is 0). A snapshot whose C_ijk
    holds a NaN or an infinity reads NaN, as the full comparison would.
    """
    C = Ghat - Gam                                            # [k, i, j]
    C_low = np.einsum("kij...,kl...->ijl...", C, gmat)        # C_ijl
    # C^{ijk} = g^{ia} g^{jb} C^k_ab, two single contractions
    C_up = np.einsum("jb...,ibk...->ijk...", ginv,
                     np.einsum("ia...,kab...->ibk...", ginv, C))
    norm_C2 = np.einsum("ijk...,ijk...->...", C_low, C_up)
    n = len(C)
    sym = _peak(C_low - C_low, batched)   # 0, or NaN where an entry is not finite
    for j in range(n):
        for k in range(j + 1, n):
            d = C_low[:, j, k] - C_low[:, k, j]
            sym = np.maximum(sym, _peak(np.abs(d, out=d), batched))
    return C, C_low, norm_C2, sym[()]


def tchebychev(grid, C, ginv, Gam):
    """T_i = (1/n) C^k_ki, |T|^2, and H = (1/n) g^{ij} (d_j T_i - Gam^k_ij T_k)."""
    n = grid.n
    T_low = np.einsum("kki...->i...", C) / n
    T_up = np.einsum("ij...,j...->i...", ginv, T_low)
    norm_T2 = np.einsum("i...,i...->...", T_low, T_up)
    dT = grid.partials(T_low)                                 # [j, i] = d_j T_i
    GamT = np.einsum("kij...,k...->ij...", Gam, T_low)
    covdiv = np.einsum("ij...,ij...->...", ginv, dT) \
        - np.einsum("ij...,ij...->...", ginv, GamT)
    H = covdiv / n
    return T_low, T_up, norm_T2, H


def compute_invariants(field):
    """Full invariant stack for a support field; returns InvariantFields.

    A batch field gives fields with its batch axis last. The scalars (area
    and the residuals) take the field's batch shape: numpy scalars for one
    body, arrays (B,) for a batch.

    Array shapes, component-first (trailing axes = node axes of the grid):
      g, g_inv: (n, n, ...);  gamma_hat, gamma, C_mixed: (n, n, n, ...) [k,i,j];
      C_low: (n, n, n, ...) [i,j,k];  T_low, T_up: (n, ...);
      frame: (n+1, n+1, ...) [r, a], frame vector r = X_1..X_n, X;
      X (the embedding): frame[n], (n+1, ...);  curvature: as grid.to_frame
      returns it, (2, 2, ...) on the cubed sphere, node-shaped on the circle;
      curvature_spectrum: its grid.spectrum (det, lo, hi);  scalars: node-shaped.
    """
    grid = field.grid
    n = grid.n
    batched = len(field.batch_shape)
    jet = grid.graph_jet(field.u)
    X, bmat = sup.embed(field, jet), sup.curvature_matrix(field, jet)
    del jet
    gmat, Ghat, frame, frame_det, cross = gauss_decompose(X, *grid.chart_jet(X), batched)
    del X   # the frame keeps a copy; dropping X and both jets lowers the transient peak
    ginv, det_g = inv_det(gmat)
    Gam = levi_civita(grid, gmat, ginv)
    C, C_low, norm_C2, sym_C = cubic_form(Ghat, Gam, gmat, ginv, batched)
    T_low, T_up, norm_T2, H = tchebychev(grid, C, ginv, Gam)
    psi = det_g / frame_det**2   # positive, GL-covariant by det A^{-2}
    spec = grid.spectrum(bmat)
    K = 1.0 / spec[0]
    rho = field.s * K ** (-1.0 / (n + 2))
    J = chi = None
    if n >= 2:   # the Pick invariant J divides by n - 1
        J = norm_C2 / (n * (n - 1))
        chi = J - (n / (n - 1)) * norm_T2 + 1.0
    sqrt_det_g = np.sqrt(np.maximum(det_g, 0.0))

    # rel-support residuals: T against the gradients of log psi and log rho,
    # both differentiated in one call, one chart axis at a time (T_low[i] is a
    # contiguous component); the max over the axes is exact in any order
    r_psi = r_rho = -np.inf
    for T_i, (d_lpsi, d_lrho) in zip(T_low, grid.partials(np.log(np.array([psi, rho])))):
        r_psi = np.maximum(r_psi, grid.per_snapshot(np.max, np.abs(T_i + d_lpsi / (2 * n))))
        r_rho = np.maximum(r_rho, grid.per_snapshot(
            np.max, np.abs(T_i - (n + 2) / (2 * n) * d_lrho)))
    r_rel = _later_max(r_psi, r_rho)

    return InvariantFields(
        n=n, grid=grid,
        g=gmat, g_inv=ginv, gamma_hat=Ghat, gamma=Gam, C_mixed=C, C_low=C_low,
        T_low=T_low, T_up=T_up, norm_T2=norm_T2, norm_C2=norm_C2,
        psi=psi, rho=rho, H=H, J=J, chi=chi, gauss_K=K,
        curvature=bmat, curvature_spectrum=spec,
        # the embedding is the frame's last vector: a view, no second copy
        X=frame[n], frame=frame, frame_det=frame_det,
        det_g=det_g, sqrt_det_g=sqrt_det_g,
        residual_gauss_cross=cross, residual_C_symmetry=sym_C,
        residual_relsupport=r_rel,
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
    T_up = inv.T_up
    TiHi = np.einsum("i...,i...->...", grid.partials(inv.H[None])[:, 0], T_up)
    CTT = np.einsum("ijk...,j...,k...->i...", inv.C_low, T_up, T_up)
    CTTT = np.einsum("i...,i...->...", CTT, T_up)
    return TiHi + 2.0 * (1.0 + 1.0 / n) * inv.norm_T2 - CTTT
