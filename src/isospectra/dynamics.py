"""Solvable zero dynamics: coefficient systems, nonlinear systems, RK4, oracle.

The right-hand-side kernels, with the f/g recursion and the exclusion
product they share, are the one place each family's zero dynamics is
written: `linearization` differentiates them into the isospectral matrix,
and `equilibrium_residual_per_zero` evaluates them at the zeros, which is
the zeros' system of algebraic identities; the Jacobian pass holds those
terms' values too, so one pass gives both.  The coefficient
systems take their diagonal from `families.closed_form_spectrum`, and
ghyp/gbasic their sub-diagonal and drive from
`families.operator_multipliers`, the operator that spectrum comes from.  This
module builds on `families` and `numeric` only; `matrices` consumes it.

Variable conventions for the dynamics (differ from the natural polynomial
variable for two families):

  ghyp, gbasic  z   (same as the polynomial)
  wilson        x, with z = x^2
  racah         y, with z = y^2 - theta^2
  aw            x   (same as the polynomial)
  qracah        z   (same as the polynomial)
  jacobi        x, pushed forward from the equivalent ghyp z-dynamics

The coefficient systems carry a `time_factor` (1, or i for Wilson/Racah, as
their displays prescribe): cdot = time_factor * (A c + h).  Trajectories are
complex throughout; no realness is assumed anywhere.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np
import numpy.polynomial.polynomial as npp

from . import families as fam
from .errors import (
    Collision,
    DivideByZeroVariable,
    NonConvergence,
    RepeatedZeros,
    SingularA,
    SingularDenominator,
)
from .numeric import (
    DEGREE_REL,
    Dual,
    OneHot,
    ZeroSet,
    elementary_coeffs_basic,
    elementary_coeffs_hyp,
    full_degree,
    multiset_match,
    nearest_pairing,
    pairwise_close,
    poly_roots,
)

_TINY = 1e-300
COLLISION_REL = 1e-9       # pairwise separation guard during integration
FG_SEP_TOL = 1e-12         # distinctness guard for the recursion denominators
X_GUARD = 1e-6             # Wilson/Racah: |x_n| (resp. |y_n|) must stay above this
RK4_FALLBACK_STEP = 1e-4   # c_flow fallback when triangular eigenvalues collide


@dataclass
class CSystem:
    """Linear coefficient system cdot = time_factor * (A c + h) for c_1..c_N."""

    A: np.ndarray
    h: np.ndarray
    time_factor: complex
    diagonal: bool


@dataclass
class TrajectoryRecord:
    """Time grid plus matched ODE / algebraic-oracle zero trajectories."""

    times: np.ndarray
    ode_zeros: np.ndarray
    oracle_zeros: np.ndarray
    max_deviation: float


# ---------------------------------------------------------------------------
# Coefficient systems
# ---------------------------------------------------------------------------

def time_factor(spec: fam.FamilySpec) -> complex:
    """i for Wilson/Racah, as their displays prescribe; 1 for the other families."""
    return 1j if spec.family in (fam.Family.WILSON, fam.Family.RACAH) else 1.0 + 0.0j


def c_system(spec: fam.FamilySpec) -> CSystem:
    """The family's linear system for the coefficients c_1..c_N (c_0 = 1 fixed).

    The diagonal of A is the closed-form spectrum.  ghyp/gbasic are lower
    bidiagonal with an affine drive from c_0, both the operator's lowering
    half (`families.operator_multipliers`); the four named families are
    diagonal in their polynomial bases.
    """
    fam.validate_spec(spec)
    if spec.family == fam.Family.JACOBI:
        return c_system(fam.jacobi_to_ghyp(spec))
    N = spec.N
    A = np.diag(fam.closed_form_spectrum(spec))
    h = np.zeros(N, dtype=complex)
    if spec.family not in (fam.Family.GHYP, fam.Family.GBASIC):
        return CSystem(A=A, h=h, time_factor=time_factor(spec), diagonal=True)
    # row m is lambda_m c_m + lowering(N + 1 - m) c_(m-1), with c_0 = 1
    lowering = fam.operator_multipliers(spec, range(N, 0, -1))[1]
    h[0] = lowering[0]
    A[np.arange(1, N), np.arange(N - 1)] = lowering[1:]
    return CSystem(A=A, h=h, time_factor=time_factor(spec), diagonal=False)


def c_flow(cs: CSystem, c0):
    """The exact flow t -> c(t) of cdot = time_factor (A c + h) from c(0) = c0.

    Diagonal systems exponentiate componentwise.  Triangular systems use the
    modal expansion (exact while the diagonal is pairwise distinct), with the
    particular solution c_p = -A^(-1) h; near-confluent diagonals fall back to
    dense RK4 at a fixed small step.  Everything that does not depend on t
    (the modal basis V, c_p and the modal amplitudes) is formed here, once.
    """
    c0 = np.asarray(c0, dtype=complex).ravel()
    n = len(c0)
    tau = cs.time_factor
    lam = np.diag(cs.A)
    if cs.diagonal:
        return lambda t: c0 * np.exp(tau * lam * t)

    if np.any(np.abs(lam) < 1e-14) and np.any(np.abs(cs.h) > 0):
        raise SingularA("triangular A is singular while h != 0")
    sep = np.min(np.abs(lam[:, None] - lam[None, :]) + np.diag(np.full(n, np.inf)))
    scale = max(1.0, float(np.max(np.abs(lam))))
    if sep > 1e-9 * scale:
        cp = np.linalg.solve(cs.A, -cs.h)
        V = np.zeros((n, n), dtype=complex)
        for k in range(n):
            V[k, k] = 1.0
            for i in range(k + 1, n):
                V[i, k] = (cs.A[i, :i] @ V[:i, k]) / (lam[k] - lam[i])
        eta = np.linalg.solve(V, c0 - cp)
        return lambda t: cp + V @ (eta * np.exp(tau * lam * t))

    rhs = lambda v: tau * (cs.A @ v + cs.h)

    def rk4(t):
        steps = max(1, int(np.ceil(abs(t) / RK4_FALLBACK_STEP)))
        h_step = t / steps
        c = c0.copy()
        for _ in range(steps):
            k1 = rhs(c)
            k2 = rhs(c + 0.5 * h_step * k1)
            k3 = rhs(c + 0.5 * h_step * k2)
            k4 = rhs(c + h_step * k3)
            c = c + (h_step / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        return c

    return rk4


# ---------------------------------------------------------------------------
# Nonlinear right-hand sides
#
# Each family has one binder in `_BINDERS`.  `binder(spec)` forms the
# family's constants once (the elementary coefficient lists, the gbasic
# shifts and row weights, the Wilson symmetric functions, Racah's 2 alpha
# and 2 beta, the Askey-Wilson prefactor, the q-Racah constants, Jacobi's
# ghyp image) and returns `rows(z)`, the family's row formula, the one place
# it is written: it takes the state as a list and returns the per-component
# terms as a list of rows.  `integrate` binds once per integration;
# `_kernel_rows` binds and calls, for a single pass (`nonlinear_rhs`,
# `rhs_terms`, `linearization`).  Up to N of about 6 these scalar loops beat
# masked N x N numpy arrays, whose fixed cost per call dominates (README,
# "Zero-dynamics kernels").  Fed one-hot duals (`OneHot.seed`) instead, the
# same row formulas return the exact Jacobian (`linearization_matrix`),
# which is the family's isospectral matrix.  Every row formula rests on one
# of two shared primitives: the f/g recursion (ghyp, jacobi) or the
# exclusion product (the five difference and q-difference families), which
# `exclusion_table` hands out.  On Python complex numbers (`integrate`,
# `nonlinear_rhs`, `rhs_terms`) each pair difference u_n - u_l is formed
# once per row and pass and divided by, and no table is built: the f/g
# recursion forms f_(j+1) and g_j in one pass over the pairs per level, and
# a row's two exclusion products share one pass over l (`basic_f2`).  At
# small N a table of reciprocals costs more than the divisions it saves.
# The Jacobian pass, which reuses each reciprocal for the partials, and the
# dense-dual pass it is tested against read one `pair_reciprocals` table of
# 1 / (u_n - u_l) and take each shift's product on its own.  Everything in
# row n but the two primitives depends on zero n alone, so it stays
# one-hot, and each primitive takes its partials from its own rule over a
# table of plain values.  The exclusion product's rule (`basic_f_dual`)
# keeps the rounding of `basic_f` on dense duals over a dual table, so
# those matrices are the dense pass's bit for bit.  The f/g recursion
# couples every zero in every step, so its rule (`fg_tangents`) carries
# each level's tangent as one N x N array, and the ghyp row formula hands a
# row's term values with the tangent of their sum on the first, so each row
# still sums to its dual.  The row formulas call the `families` helpers that
# take the bound constants unpacked.
# ---------------------------------------------------------------------------

def check_distinct(z: list) -> None:
    """Raise RepeatedZeros unless the zeros are pairwise FG_SEP_TOL-separated."""
    if pairwise_close(z, FG_SEP_TOL):
        raise RepeatedZeros("zeros must be pairwise distinct")


def pair_reciprocals(z: list) -> list:
    """inv[n][l] = 1 / (z_n - z_l) for l != n; the diagonal is None.

    Each unordered pair is inverted once and its mirror stores the negation.
    The Jacobian pass's rules (`basic_f_dual`, `fg_tangents`) read it over
    the zeros' values, and `basic_f` over dense duals; the row formulas on
    Python complex numbers divide instead.  `z` is a list of Python complex
    numbers or of `Dual`s.
    """
    n_zeros = len(z)
    inv = [[None] * n_zeros for _ in range(n_zeros)]
    for n, zn in enumerate(z):
        row = inv[n]
        for ell in range(n + 1, n_zeros):
            r = 1.0 / (zn - z[ell])
            row[ell] = r
            inv[ell][n] = -r
    return inv


def fg_recursion(zeta, J: int):
    """f, g tables over a list of scalars with field arithmetic (complex or Dual).

    f^(j+1)_n = -f^(j)_n + sum_{l != n} (z_n f^(j)_l + z_l f^(j)_n) / (z_n - z_l) and
    g^(j)_n = sum_{l != n} (f^(j)_n + f^(j)_l) / (z_n - z_l).  Both pair terms are
    antisymmetric in (n, l) and both read f^(j), so one pass over the
    unordered pairs per level forms z_n - z_l once and each term with one
    division by it, added to row n and subtracted from row l; every row
    still accumulates each table's terms in ascending l.  No table of
    reciprocals is built.  A coincident pair raises ZeroDivisionError.
    Returns lists f[j][n] (j = 1..J, f[0] is None) and g[j][n] (j = 0..J).
    The Jacobian pass takes its derivative rule instead (`fg_tangents`).
    """
    n_zeros = len(zeta)
    zero = zeta[0] * 0.0
    f = [None] * (J + 1)
    g = [None] * (J + 1)
    f[1] = list(zeta)
    g[0] = [zero + 1.0] * n_zeros
    for j in range(1, J + 1):
        fj = f[j]
        next_f = j < J  # the last level forms g alone
        acc_f = [-v for v in fj]
        acc_g = [zero] * n_zeros
        for n, zn in enumerate(zeta):
            fjn = fj[n]
            for ell in range(n + 1, n_zeros):
                zl, fjl = zeta[ell], fj[ell]
                d = zn - zl
                if next_f:
                    t = (zn * fjl + zl * fjn) / d
                    acc_f[n] = acc_f[n] + t
                    acc_f[ell] = acc_f[ell] - t
                t = (fjn + fjl) / d
                acc_g[n] = acc_g[n] + t
                acc_g[ell] = acc_g[ell] - t
        if next_f:
            f[j + 1] = acc_f
        g[j] = acc_g
    return f, g


def fg_tangents(z: list, T: np.ndarray, J: int):
    """The f/g tables and their tangents, by the recursion's own derivative rule on arrays.

    `z` holds the zeros' values (Python complex numbers) and T (N x P) their
    tangents, one row per zero.  With R[n][l] = 1 / (z_n - z_l) from
    `pair_reciprocals` (zero diagonal) and S = R*R entrywise, the recursion
    reads f_(j+1) = -f_j + z*(R f_j) + f_j*(R z) and g_j = f_j*(R 1) + R f_j,
    and since dR[n][l] = -S[n][l] (dz_n - dz_l), a product R v has the tangent

        d(R v) = R dV - diag(S v) T + (S * v[None, :]) T.

    So each level's tangent is one N x P matrix, from F_1 = T and G_0 = 0:

        F_(j+1) = -F_j + diag(R f_j) T + diag(z) d(R f_j) + diag(R z) F_j + diag(f_j) d(R z),
        G_j     = diag(R 1) F_j + diag(f_j) d(R 1) + d(R f_j).

    Returns f, g of shape (J + 1, N) and F, G of shape (J + 1, N, P); f[0]
    and F[0] are zero.  A coincident pair raises ZeroDivisionError (in
    `pair_reciprocals`); a tangent that overflows comes back non-finite,
    under `np.errstate`, so numpy does not warn.
    """
    n_zeros = len(z)
    inv = pair_reciprocals(z)
    for n, row in enumerate(inv):
        row[n] = 0j
    R = np.array(inv, dtype=complex)
    zv = np.array(z, dtype=complex)
    f = np.zeros((J + 1, n_zeros), dtype=complex)
    g = np.empty((J + 1, n_zeros), dtype=complex)
    F = np.zeros((J + 1,) + T.shape, dtype=complex)
    G = np.empty((J + 1,) + T.shape, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        S = R * R

        def d_prod(v, dv):  # the tangent of R v
            return R @ dv - (S @ v)[:, None] * T + (S * v) @ T

        r1 = R.sum(axis=1)
        d_r1 = S @ T - S.sum(axis=1)[:, None] * T
        rz = R @ zv
        d_rz = d_prod(zv, T)
        f[1], F[1] = zv, T
        g[0], G[0] = 1.0, 0.0
        for j in range(1, J + 1):
            fj, Fj = f[j], F[j]
            rf, d_rf = (rz, d_rz) if j == 1 else (R @ fj, d_prod(fj, Fj))
            g[j] = fj * r1 + rf
            G[j] = r1[:, None] * Fj + fj[:, None] * d_r1 + d_rf
            if j < J:
                f[j + 1] = zv * rf + fj * rz - fj
                F[j + 1] = rf[:, None] * T + zv[:, None] * d_rf + rz[:, None] * Fj + fj[:, None] * d_rz - Fj
    return f, g, F, G


# Exclusion product of the difference and q-difference zero dynamics, at a
# shift `s` of zero n over the table variable u:
#
#   gbasic   u = z,    s = q^p z_n        (f_n(p, z) in the formulas)
#   qracah   u = z,    s = z_n^(+-)
#   wilson   u = x^2,  s = u_n - 1 - 2i x_s = (x_s - i)^2,   x_s = +-x_n
#   racah    u = y^2,  s = u_n + w = (y_s + 1)^2,  w = 1 + 2 y_s,  y_s = +-y_n
#   aw       u = x,    s = X(q z_n^(+-1)),  X(w) = (w + 1/w) / 2
#
# The Askey-Wilson pair factor K(z_n, z_m) = q (X(q z_n) - x_m) / (x_n - x_m),
# so its product is q^(N-1) times the exclusion product and needs the lift
# z_n = x_n + sqrt(x_n^2 - 1) of zero n only.  Every row but gbasic's takes
# the product at two shifts, and gbasic takes its shifts two at a time.  A
# row formula takes the one-shift and the two-shift product and their table
# from `exclusion_table(u)`: `basic_f_dual` over the table of u's values on
# one-hot duals, `basic_f` over `pair_reciprocals(u)` on dense duals, each
# shift on its own, and on Python complex numbers `basic_f2`, one pass over
# l for both shifts with one division per factor and no table.

def basic_f(s, u, n: int, inv_n=None):
    """prod_{l != n} (s - u_l) / (u_n - u_l), one factor at a time in ascending l.

    Without `inv_n` (Python complex numbers) each factor is one division;
    the row formulas take their shifts two at a time through `basic_f2`,
    which makes these operations for both in one pass, and this form only
    for gbasic's odd shift.  Given inv_n[l] = 1 / (u_n - u_l) (dense duals
    over `pair_reciprocals(u)`, the pass whose rounding `basic_f_dual`
    repeats), each is one product.
    """
    out = 1.0 + 0.0j
    if inv_n is None:
        un = u[n]
        for ell, ul in enumerate(u):
            if ell != n:
                out = (s - ul) / (un - ul) * out
        return out
    for ell, ul in enumerate(u):
        if ell != n:
            out = (s - ul) * inv_n[ell] * out
    return out


def basic_f2(s, t, u, n: int, inv_n=None):
    """(`basic_f` at s, `basic_f` at t): the exclusion products of one row at two shifts.

    Without `inv_n` (Python complex numbers) one pass over l forms
    d = u_n - u_l once and each factor as (s - u_l) / d times the product so
    far, in ascending l: the operations `basic_f` makes, so both results are
    its results bit for bit.  Given `inv_n` (dense duals) it is `basic_f`
    twice.
    """
    if inv_n is not None:
        return basic_f(s, u, n, inv_n), basic_f(t, u, n, inv_n)
    un = u[n]
    out_s = out_t = 1.0 + 0.0j
    for ell, ul in enumerate(u):
        if ell != n:
            d = un - ul
            out_s = (s - ul) / d * out_s
            out_t = (t - ul) / d * out_t
    return out_s, out_t


def basic_f_dual(s, u, n: int, inv_n: list):
    """`basic_f` on one-hot duals u, s a constant or zero n's one-hot dual, by the product's own rule.

    `inv_n` holds values only: r_l = 1 / (u_n - u_l).  With the factors
    F_l = (s - u_l) r_l, the product P has the partials

        dP/ds = sum_l E_l r_l,   dP/du_l = E_l (s - u_n) r_l^2,   dP/du_n = -P sum_l r_l,

    with E_l = prod_{k != l, n} F_k, the product of the other factors.  Each
    factor's tangent dF_l = r_l (ds - F_l du_n) + (s - u_n) r_l^2 du_l is
    formed from values, and P's tangent is accumulated over the factors in
    order, F_l times the tangent so far plus the product so far times dF_l.
    So E_l is the prefix product before l times the factors after it, and
    nothing is divided by s - u_l.  That order, with r_l's tangent taken as
    -r_l^2 times that of u_n - u_l, repeats every rounding of running
    `basic_f` on dense duals over a dual pair table; only the arithmetic on
    zero partials is left out, so the matrices are those of the dense pass,
    bit for bit.  Per factor that is one list comprehension of N products
    and a few scalar operations, where the dense pass made three dual
    operations and shared an O(N^3) dual pair table; no `Dual` is formed
    until the result.
    """
    if isinstance(s, OneHot):
        s0, ks, ds = s.val, s.k, s.d
    else:
        s0, ks, ds = s, None, 0j
    un = u[n]
    kn, dn = un.k, un.d
    out = 1.0 + 0.0j
    eps = [0j] * un.n
    for ell, ul in enumerate(u):
        if ell == n:
            continue
        r = inv_n[ell]
        w = s0 - ul.val
        c = -r * r  # r's tangent per unit tangent of u_n - u_l
        kl, dl = ul.k, ul.d
        f = w * r
        t_n = w * (c * dn)  # dF_l: the part through u_n
        t_l = w * (c * -dl) + r * -dl  # and through u_l
        if ks == kn:
            t_n = t_n + r * ds
        eps = [f * e for e in eps]
        eps[kn] = eps[kn] + out * t_n
        eps[kl] = eps[kl] + out * t_l
        out = f * out
    return out if len(u) == 1 else Dual(out, eps)


def basic_f_dual2(s, t, u, n: int, inv_n: list):
    """(`basic_f_dual` at s, `basic_f_dual` at t), each shift on its own."""
    return basic_f_dual(s, u, n, inv_n), basic_f_dual(t, u, n, inv_n)


def exclusion_table(u: list):
    """The exclusion product for the table variable u at one and at two shifts, and its pair table.

    Returns (product, product2, inv), called as product(s, u, n, inv[n]) and
    product2(s, t, u, n, inv[n]).  One-hot u (the Jacobian pass):
    `basic_f_dual` over the table of u's values, since that rule carries the
    table's derivative itself and no `Dual` reciprocal is formed.  Dense
    duals: `basic_f` over `pair_reciprocals(u)`.  Python complex numbers:
    `basic_f` and `basic_f2` with a row of None per zero, so each factor
    divides by u_n - u_l, a row's two shifts share one pass over l, and no
    table is built.
    """
    if isinstance(u[0], OneHot):
        return basic_f_dual, basic_f_dual2, pair_reciprocals([v.val for v in u])
    if isinstance(u[0], Dual):
        return basic_f, basic_f2, pair_reciprocals(u)
    return basic_f, basic_f2, [None] * len(u)


def _bind_ghyp(spec):
    a, b = (c.tolist() for c in elementary_coeffs_hyp(spec.alphas, spec.betas))
    neg_a = [-aj for aj in a]
    J = max(len(b), len(a) - 1)
    kb, ka = len(b), len(a)

    def rows(z):
        if isinstance(z[0], Dual):
            # a row's terms b_k f_k - a_j g_j as values, the first carrying the
            # tangent of their sum b.f - a.g, so each row sums to that sum's dual
            f, g, F, G = fg_tangents([v.val for v in z], np.array([v.eps for v in z]), J)
            terms = np.concatenate(
                [np.array(b)[:, None] * f[1 : kb + 1], -np.array(a)[:, None] * g[:ka]]
            )
            tan = np.dot(b, F[1 : kb + 1].reshape(kb, -1)) - np.dot(a, G[:ka].reshape(ka, -1))
            return [
                [Dual(row[0], t), *row[1:]]
                for row, t in zip(terms.T.tolist(), tan.reshape(F.shape[1:]).tolist())
            ]
        f, g = fg_recursion(z, J)
        return [
            [bk * f[k][n] for k, bk in enumerate(b, 1)] + [aj * g[j][n] for j, aj in enumerate(neg_a)]
            for n in range(len(z))
        ]

    return rows


def _bind_gbasic(spec):
    """Row n is c1 f_n(1, z), then c (u f_n(hi, z) - v f_n(lo, z)) for each
    (c, u, hi, v, lo) of beta_terms, then the same times sgn_r z_n for each
    of alpha_terms, with f_n(p, z) = basic_f(q^p z_n, z, n).  f_n(0, z) only
    appears times q^0 - 1 = 0, so it stands in as 0 and is never formed; the
    other shifts are taken two at a time, an odd one left over on its own.
    fn[p - p_min] holds f_n(p, z).
    """
    q, alphas, betas = spec.q, spec.alphas, spec.betas
    r, s = len(alphas), len(betas)
    a, b = (c.tolist() for c in elementary_coeffs_basic(alphas, betas))
    qn = q ** float(-spec.N)
    sgn_s = (-1.0) ** (s + 1)
    sgn_r = (-1.0) ** r
    c1 = sgn_s * (q - 1.0)
    p_min = min(1, s - r)
    qp = {p: q ** float(p) for p in range(p_min, s + 2)}  # every shift q^p used
    qm1 = {p: v - 1.0 for p, v in qp.items()}
    cb = [sgn_s * b[k - 1] * (-1.0) ** k / q**k for k in range(1, s + 1)]
    ca = [1.0] + [a[j - 1] * (-1.0) ** j for j in range(1, r + 1)]
    beta_terms = [(c, qm1[k + 1], k + 1 - p_min, qm1[k], k - p_min) for k, c in enumerate(cb, 1)]
    alpha_terms = [
        (c, qn * qm1[p + 1], p + 1 - p_min, qm1[p], p - p_min) for p, c in enumerate(ca, s - r)
    ]
    one = 1 - p_min
    shifts = [(p - p_min, v) for p, v in qp.items() if p != 0]
    pairs = [(i, qi, k, qk) for (i, qi), (k, qk) in zip(shifts[::2], shifts[1::2])]
    odd = shifts[2 * len(pairs):]

    def rows(z):
        product, product2, inv = exclusion_table(z)
        out = []
        for n, zn in enumerate(z):
            inv_n = inv[n]
            fn = [0j] * len(qp)
            for i, qi, k, qk in pairs:
                fn[i], fn[k] = product2(qi * zn, qk * zn, z, n, inv_n)
            for i, qi in odd:
                fn[i] = product(qi * zn, z, n, inv_n)
            sz = sgn_r * zn
            row = [c1 * fn[one]]
            row += [c * (u * fn[hi] - v * fn[lo]) for c, u, hi, v, lo in beta_terms]
            row += [sz * c * (u * fn[hi] - v * fn[lo]) for c, u, hi, v, lo in alpha_terms]
            out.append(row)
        return out

    return rows


def _bind_wilson(spec):
    s1, s2, s3, s4 = fam.wilson_sym(spec)
    quartic = fam.wilson_quartic

    def rows(x):
        if any(abs(v) < X_GUARD for v in x):
            raise DivideByZeroVariable("wilson dynamics needs |x_n| > 0")
        u = [v * v for v in x]
        _, product2, inv = exclusion_table(u)
        out = []
        for n, xp in enumerate(x):
            xm = -xp
            tp, tm = 2j * xp, 2j * xm
            un = u[n]
            pp, pm = product2(un - 1.0 - tp, un - 1.0 - tm, u, n, inv[n])  # at (x_s - i)^2
            pref = -1j / (2.0 * xp)
            out.append([
                pref * (quartic(s1, s2, s3, s4, xp) / tp * pp),
                pref * (quartic(s1, s2, s3, s4, xm) / tm * pm),
            ])
        return out

    return rows


def _bind_racah(spec):
    al, be, ga, de = spec.alphas
    al2, be2 = 2.0 * al, 2.0 * be
    dtilde = fam.racah_dtilde

    def rows(y):
        if any(abs(v) < X_GUARD for v in y):
            raise DivideByZeroVariable("racah dynamics needs |y_n| > 0")
        u = [v * v for v in y]
        _, product2, inv = exclusion_table(u)
        out = []
        for n, yp in enumerate(y):
            ym = -yp
            wp, wm = 1.0 + 2.0 * yp, 1.0 + 2.0 * ym
            un = u[n]
            pp, pm = product2(un + wp, un + wm, u, n, inv[n])  # at (y_s + 1)^2
            pref = -1j / (2.0 * yp)
            out.append([
                pref * (dtilde(al2, be2, ga, de, yp) * wp * pp),
                pref * (dtilde(al2, be2, ga, de, ym) * wm * pm),
            ])
        return out

    return rows


def _bind_aw(spec):
    q = spec.q
    a, b, c, d = spec.alphas
    pref = (q - 1.0) / (2.0 * q)
    g = fam.aw_g
    lift = fam.aw_lift

    def rows(x):
        _, product2, inv = exclusion_table(x)
        out = []
        for n, xn in enumerate(x):
            zp = lift(xn)
            zm = 1.0 / zp
            wp, wm = q * zp, q * zm
            pp, pm = product2(0.5 * (wp + 1.0 / wp), 0.5 * (wm + 1.0 / wm), x, n, inv[n])  # at X(q z_s)
            out.append([pref * (g(a, b, c, d, q, zp) * pp), pref * (g(a, b, c, d, q, zm) * pm)])
        return out

    return rows


def _bind_qracah(spec):
    k = fam.qracah_constants(spec)
    companions = fam.qracah_companions

    def rows(z):
        _, product2, inv = exclusion_table(z)
        out = []
        for n, zn in enumerate(z):
            zp, zm, B, D = companions(k, zn)
            pp, pm = product2(zp, zm, z, n, inv[n])
            out.append([B * (zp - zn) * pp, D * (zm - zn) * pm])
        return out

    return rows


def jacobi_variables(x: list) -> list:
    """The ghyp variables z = 2/(1 - x) for Jacobi's x (the ghyp instance is `fam.jacobi_to_ghyp`).

    x = 1 raises SingularDenominator; x that crowd together in z raise RepeatedZeros.
    """
    try:
        z = [2.0 / (1.0 - v) for v in x]
    except ZeroDivisionError:
        raise SingularDenominator("jacobi zero at x = 1") from None
    check_distinct(z)
    return z


def _bind_jacobi(spec):
    ghyp_rows = _bind_ghyp(fam.jacobi_to_ghyp(spec))

    def rows(x):
        zvar = jacobi_variables(x)
        terms = ghyp_rows(zvar)
        # pushforward: x = 1 - 2/z, so xdot = (2/z^2) zdot, applied termwise
        return [[t * w for t in row] for row, w in zip(terms, [2.0 / (v * v) for v in zvar])]

    return rows


_BINDERS = {
    fam.Family.GHYP: _bind_ghyp,
    fam.Family.GBASIC: _bind_gbasic,
    fam.Family.WILSON: _bind_wilson,
    fam.Family.RACAH: _bind_racah,
    fam.Family.AW: _bind_aw,
    fam.Family.QRACAH: _bind_qracah,
    fam.Family.JACOBI: _bind_jacobi,
}


def _check_separation(z: list) -> None:
    if pairwise_close(z, COLLISION_REL):
        raise Collision(f"pairwise separation fell below {COLLISION_REL:g} * scale")


def _not_finite(exc: ArithmeticError) -> SingularDenominator:
    # Python scalars raise where numpy gives inf/nan
    return SingularDenominator(f"zero-dynamics term not finite at this state: {exc}")


def _kernel_rows(spec: fam.FamilySpec, z: list) -> list:
    """One kernel pass: bind `spec`'s row formula (`_BINDERS`) and call it at z."""
    try:
        return _BINDERS[spec.family](spec)(z)
    except ArithmeticError as exc:
        raise _not_finite(exc) from None


def _term_rows(spec: fam.FamilySpec, z) -> list:
    z = np.asarray(z, dtype=complex).ravel().tolist()
    _check_separation(z)
    return _kernel_rows(spec, z)


def rhs_terms(spec: fam.FamilySpec, z) -> np.ndarray:
    """Per-component additive terms of the zero dynamics, shape (N, n_terms)."""
    return np.array(_term_rows(spec, z), dtype=complex)


def nonlinear_rhs(spec: fam.FamilySpec, z) -> np.ndarray:
    """Right-hand side of the family's zero dynamics, in the dynamics variable."""
    return np.array([sum(row) for row in _term_rows(spec, z)], dtype=complex)


def normalized_row_sums(terms) -> np.ndarray:
    """Each row of `terms` summed and divided by its largest term magnitude (at least _TINY).

    At an equilibrium the rows are its zeros' additive RHS terms, and this is
    the per-zero residual of their algebraic identities.
    """
    terms = np.asarray(terms, dtype=complex)
    scale = np.maximum(np.max(np.abs(terms), axis=1), _TINY)
    return terms.sum(axis=1) / scale


def equilibrium_residual_per_zero(spec: fam.FamilySpec, zeros_natural) -> np.ndarray:
    """Per-zero dynamics residual at natural-variable zeros, term-normalized.

    Zeros are equilibria of their dynamics, so this is each family's system of
    algebraic identities for its zeros (`matrices.identity_residual`).
    """
    return normalized_row_sums(rhs_terms(spec, to_dynamics_variable(spec, zeros_natural)))


def equilibrium_residual(spec: fam.FamilySpec, zs) -> float:
    """Max-norm of the normalized dynamics residual at natural-variable zeros."""
    z = zs.zeros if isinstance(zs, ZeroSet) else zs
    return float(np.max(np.abs(equilibrium_residual_per_zero(spec, z))))


def to_dynamics_variable(spec: fam.FamilySpec, zeros_natural: np.ndarray) -> np.ndarray:
    """Map natural-variable zeros to the dynamics variable (lift where needed)."""
    z = np.asarray(zeros_natural, dtype=complex).ravel()
    if spec.family in fam.LIFTED_FAMILIES:
        return fam.lift_zero_variables(spec, z)
    return z


# ---------------------------------------------------------------------------
# Fixed-step integration
# ---------------------------------------------------------------------------

def integrate(spec: fam.FamilySpec, z0, t1: float, steps: int, record_every: int = 1):
    """Classical RK4 at fixed step h = t1/steps, with collision guards.

    Returns (times, trajectory) as arrays, where trajectory[k] is the state
    at times[k]; states are recorded every `record_every` steps (first and
    last always).  `steps` or `record_every` below 1 raises ValueError.  The
    family's row formula is bound once (`_BINDERS`), so its constants are
    formed once per integration, not per right-hand-side call.  The state is
    a list of Python complex numbers and each stage is one comprehension, in
    the operation order of the vector form z + (h/6) (k1 + 2 k2 + 2 k3 + k4),
    so trajectories equal those of RK4 on numpy vectors over `nonlinear_rhs`
    bit for bit.  Every state the right-hand side is evaluated at, and the
    final state, is checked for collisions (Collision) once: a step's new
    state is the next step's first stage.  An arithmetic error in a step (a
    term's division by zero or overflow) raises SingularDenominator, and a
    recorded state that is not finite (the step overflowed the dynamic range
    of doubles) raises NonConvergence.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if record_every < 1:
        raise ValueError("record_every must be >= 1")
    z = np.asarray(z0, dtype=complex).ravel().tolist()
    h = t1 / steps
    hh, h6 = 0.5 * h, h / 6.0
    times = [0.0]
    traj = [z]
    _check_separation(z)
    try:
        rows = _BINDERS[spec.family](spec)

        def rhs(state):
            return [sum(row) for row in rows(state)]

        def checked_rhs(state):
            _check_separation(state)
            return rhs(state)

        for k in range(1, steps + 1):
            k1 = rhs(z)
            k2 = checked_rhs([v + hh * d for v, d in zip(z, k1)])
            k3 = checked_rhs([v + hh * d for v, d in zip(z, k2)])
            k4 = checked_rhs([v + h * d for v, d in zip(z, k3)])
            z = [v + h6 * (a + 2 * b + 2 * c + d) for v, a, b, c, d in zip(z, k1, k2, k3, k4)]
            _check_separation(z)
            if k % record_every == 0 or k == steps:
                if not all(map(cmath.isfinite, z)):
                    raise NonConvergence(f"integration state not finite at t = {k * h:g}")
                times.append(k * h)
                traj.append(z)
    except ArithmeticError as exc:
        raise _not_finite(exc) from None
    return np.asarray(times), np.array(traj, dtype=complex)


# ---------------------------------------------------------------------------
# Algebraic oracle
# ---------------------------------------------------------------------------

def _sqrt_continuous(u: np.ndarray, previous: np.ndarray) -> np.ndarray:
    """Per-component square root with the sign chosen nearest to `previous`."""
    r = np.sqrt(u.astype(complex))
    flip = np.abs(-r - previous) < np.abs(r - previous)
    return np.where(flip, -r, r)


def algebraic_trajectory(spec: fam.FamilySpec, z0, times) -> np.ndarray:
    """Zeros of the exactly evolved polynomial at each time, continuity-matched.

    `z0` is the start in the dynamics variable.  Steps: (1) expand the start
    polynomial prod (u - r_m) on the family basis, (2) evolve its coefficients
    e with the exact linear flow, (3) take each slice's roots, (4) map back
    through the square root where the dynamics runs in a lifted variable, (5)
    order each slice by continuity with the previous one.  ghyp and gbasic's
    basis is the monomials, rooted by `poly_roots`.  Wilson, Racah,
    Askey-Wilson and q-Racah expand by one product per zero on their
    three-term recurrence (`families.recurrence`), whose flow is diagonal, so
    no basis member's scale enters, and root a slice as the eigenvalues of its
    comrade matrix (Barnett 1975).
    """
    if spec.family == fam.Family.JACOBI:
        gh = fam.jacobi_to_ghyp(spec)
        # not jacobi_variables: numpy's complex division differs from Python's in the last bit
        ztraj = algebraic_trajectory(gh, 2.0 / (1.0 - np.asarray(z0, dtype=complex)), times)
        return 1.0 - 2.0 / ztraj
    z0 = np.asarray(z0, dtype=complex).ravel()
    N = len(z0)
    lifted = spec.family in fam.LIFTED_FAMILIES
    u0 = z0 * z0 if lifted else z0
    if spec.family in (fam.Family.GHYP, fam.Family.GBASIC):
        e = npp.polyfromroots(u0)
        roots_of = lambda c: poly_roots(c).zeros.tolist()
    else:
        alpha, beta, gamma = fam.recurrence(spec, N)
        T = np.diag(beta) + np.diag(alpha[:-1], 1) + np.diag(gamma[1:], -1)
        M = np.zeros((N + 1, N + 1), dtype=complex)  # M e: the coefficients of u sum_k e_k P_k
        M[:N, :N], M[N, N - 1] = T.T, alpha[-1]
        e = np.eye(N + 1, dtype=complex)[0]
        for r in u0:  # beta_k - r is formed before it multiplies e_k
            e = (M - r * np.eye(N + 1)) @ e
        last = np.eye(N)[-1]  # the comrade matrix takes alpha_(N-1) e[:N] / e_N from T's last row
        roots_of = lambda c: np.linalg.eigvals(T - np.outer(last, alpha[-1] * c[:N] / c[N])).tolist()

    with np.errstate(over="ignore", invalid="ignore"):
        flow = c_flow(c_system(spec), e[N - 1 :: -1])  # c_j multiplies the degree-(N - j) basis member
    out = np.empty((len(times), N), dtype=complex)
    prev, prev_u = z0, u0
    for k, t in enumerate(times):
        with np.errstate(over="ignore", invalid="ignore"):
            coeffs = np.append(flow(float(t))[::-1], e[N])
        if not np.all(np.isfinite(coeffs)):
            raise NonConvergence(
                f"coefficient dynamic range exhausted at t = {t:g} (non-finite coefficient)"
            )
        if not full_degree(coeffs):
            # the head e_N is constant; growing modes have pushed the
            # others past it by the degree rule's ratio
            raise NonConvergence(
                f"coefficient dynamic range exhausted at t = {t:g} "
                f"(|c_N| <= {DEGREE_REL:g} max|c|, N = {N})"
            )
        # each previous zero takes its nearest remaining root
        u_t = np.array(nearest_pairing(roots_of(coeffs), prev_u.tolist())[0], dtype=complex)
        z_t = _sqrt_continuous(u_t, prev) if lifted else u_t
        out[k] = z_t
        prev, prev_u = z_t, u_t
    return out


def evolve_compare(
    spec: fam.FamilySpec,
    z0,
    t1: float,
    steps: int,
    record_every: int = 1,
) -> TrajectoryRecord:
    """Integrate the nonlinear system and compare against the algebraic oracle.

    The per-time deviation is the matched multiset distance (normalized by
    max(1, oracle magnitude), as in `multiset_match`); max_deviation is its
    maximum over the recorded grid.
    """
    times, ode = integrate(spec, z0, t1, steps, record_every=record_every)
    oracle = algebraic_trajectory(spec, z0, times)
    dev = max(multiset_match(ode[k], oracle[k]) for k in range(len(times)))
    return TrajectoryRecord(
        times=times, ode_zeros=ode, oracle_zeros=oracle, max_deviation=float(dev)
    )


def linearization(spec: fam.FamilySpec, z) -> tuple[np.ndarray, list]:
    """Exact Jacobian of the dynamics RHS at `z`, and the RHS terms there, from one pass.

    The family's kernel runs once on `OneHot.seed(z)`, so each entry is the
    derivative of the RHS formula itself, not a difference quotient: one
    forward pass in which each zero's terms carry one partial until the
    exclusion product or the f/g recursion couples them into a dense list
    of all N partials.  The same pass holds every row's term values (the
    exclusion families' terms' `.val`; ghyp's b_k f_k and -a_j g_j), returned
    as a list of rows: at the zeros, `normalized_row_sums` of them is the
    identity residual, with no second run of the kernel.  A division by
    zero inside the pass (`_kernel_rows`) and a Jacobian that is not finite
    (a pair 1e-160 apart overflows either primitive's squared reciprocal)
    raise `SingularDenominator`.  The collision guard of `nonlinear_rhs` is
    not applied: it protects trajectories, and `build_matrix` checks
    distinctness at its own threshold.
    """
    z = np.asarray(z, dtype=complex).ravel()
    rows = _kernel_rows(spec, OneHot.seed(z))
    L = np.array([sum(row).eps for row in rows], dtype=complex)
    if not np.isfinite(L).all():
        raise SingularDenominator("Jacobian entry not finite at this state")
    return L, [[t.val if isinstance(t, Dual) else t for t in row] for row in rows]


def linearization_matrix(spec: fam.FamilySpec, z) -> np.ndarray:
    """Exact Jacobian of the dynamics RHS at `z`, in the dynamics variable (`linearization`)."""
    return linearization(spec, z)[0]
