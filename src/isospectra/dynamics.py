"""Solvable zero dynamics: coefficient systems, nonlinear systems, RK4, oracle.

The right-hand-side kernels, with the f/g recursion and the exclusion
product they share, are the one place each family's zero dynamics is
written: `linearization_matrix` differentiates them into the isospectral
matrix, and `equilibrium_residual_per_zero` evaluates them at the zeros,
which is the zeros' system of algebraic identities.  The coefficient
systems take their diagonal from `families.closed_form_spectrum`.  This
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

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import numpy.polynomial.polynomial as npp

from . import families as fam
from .errors import (
    BasisIllConditioned,
    Collision,
    DivideByZeroVariable,
    NonConvergence,
    RepeatedZeros,
    SingularA,
    SingularDenominator,
)
from .numeric import (
    Dual,
    Poly,
    ZeroSet,
    elementary_coeffs_basic,
    elementary_coeffs_hyp,
    dsqrt,
    pairwise_close,
    poly_roots,
)

_TINY = 1e-300
COLLISION_REL = 1e-9       # pairwise separation guard during integration
FG_SEP_TOL = 1e-12         # distinctness guard for the recursion denominators
X_GUARD = 1e-6             # Wilson/Racah: |x_n| (resp. |y_n|) must stay above this
RK4_FALLBACK_STEP = 1e-4   # solve_c fallback when triangular eigenvalues collide
PIVOT_TOL = 1e-12


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
    bidiagonal with an affine drive from c_0; the four named families are
    diagonal in their polynomial bases.
    """
    fam.validate_spec(spec)
    if spec.family == fam.Family.JACOBI:
        return c_system(fam.jacobi_to_ghyp(spec))
    A = np.diag(fam.closed_form_spectrum(spec).values)
    h = np.zeros(spec.N, dtype=complex)
    f = spec.family
    if f not in (fam.Family.GHYP, fam.Family.GBASIC):
        return CSystem(A=A, h=h, time_factor=time_factor(spec), diagonal=True)
    N, q = spec.N, spec.q
    for m in range(1, N + 1):
        if f == fam.Family.GHYP:
            sub = complex(N + 1 - m)
            for al in spec.alphas:
                sub *= al - 1.0 + m
        else:
            sub = q ** (N - m + 1) - 1.0
            for be in spec.betas:
                sub *= be * q ** (N - m) - 1.0
        if m == 1:
            h[0] = sub
        else:
            A[m - 1, m - 2] = sub
    return CSystem(A=A, h=h, time_factor=time_factor(spec), diagonal=False)


def solve_c(cs: CSystem, c0, t: float) -> np.ndarray:
    """Exact solution of cdot = time_factor (A c + h) at time t.

    Diagonal systems exponentiate componentwise.  Triangular systems use the
    modal expansion (exact while the diagonal is pairwise distinct), with the
    particular solution c_p = -A^(-1) h; near-confluent diagonals fall back to
    dense RK4 at a fixed small step.
    """
    c0 = np.asarray(c0, dtype=complex).ravel()
    n = len(c0)
    tau = cs.time_factor
    lam = np.diag(cs.A)
    if cs.diagonal:
        return c0 * np.exp(tau * lam * t)

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
        return cp + V @ (eta * np.exp(tau * lam * t))

    steps = max(1, int(np.ceil(abs(t) / RK4_FALLBACK_STEP)))
    h_step = t / steps
    c = c0.copy()
    rhs = lambda v: tau * (cs.A @ v + cs.h)
    for _ in range(steps):
        k1 = rhs(c)
        k2 = rhs(c + 0.5 * h_step * k1)
        k3 = rhs(c + 0.5 * h_step * k2)
        k4 = rhs(c + h_step * k3)
        c = c + (h_step / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return c


# ---------------------------------------------------------------------------
# Nonlinear right-hand sides
#
# Each kernel takes the state as a list of Python complex numbers and returns
# the per-component terms as a list of rows.  Up to N of about 6 these scalar
# loops beat masked N x N numpy arrays, whose fixed cost per call dominates
# (README, "Zero-dynamics kernels").  Fed `Dual`s instead, the same kernels
# return the exact Jacobian (`linearization_matrix`), which is the family's
# isospectral matrix.  The (q-)hypergeometric kernels take 1 / (z_n - z_l)
# from one `pair_reciprocals` table, so the Jacobian pass pays for one `Dual`
# reciprocal per unordered pair instead of one division per ordered pair and
# factor.
# ---------------------------------------------------------------------------

def check_distinct(z: list) -> None:
    """Raise RepeatedZeros unless the zeros are pairwise FG_SEP_TOL-separated."""
    if pairwise_close(z, FG_SEP_TOL):
        raise RepeatedZeros("zeros must be pairwise distinct")


def pair_reciprocals(z: list) -> list:
    """inv[n][l] = 1 / (z_n - z_l) for l != n; the diagonal is None.

    Each unordered pair is inverted once and its mirror stores the negation,
    so a kernel's pair terms need one reciprocal per pair and no division.
    `z` is a list of Python complex numbers or of `Dual`s.
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
    antisymmetric in (n, l), so each is formed once per unordered pair, added
    to row n and subtracted from row l; every row still accumulates its terms
    in ascending l.  Returns lists f[j][n] (j = 1..J, f[0] is None) and
    g[j][n] (j = 0..J).
    """
    n_zeros = len(zeta)
    inv = pair_reciprocals(zeta)
    zero = zeta[0] * 0.0
    f = [None] * (J + 1)
    g = [None] * (J + 1)
    f[1] = list(zeta)
    g[0] = [zero + 1.0] * n_zeros
    for j in range(1, J):
        fj = f[j]
        acc = [-v for v in fj]
        for n, zn in enumerate(zeta):
            fjn, inv_n = fj[n], inv[n]
            for ell in range(n + 1, n_zeros):
                t = (zn * fj[ell] + zeta[ell] * fjn) * inv_n[ell]
                acc[n] = acc[n] + t
                acc[ell] = acc[ell] - t
        f[j + 1] = acc
    for j in range(1, J + 1):
        fj = f[j]
        acc = [zero] * n_zeros
        for n in range(n_zeros):
            fjn, inv_n = fj[n], inv[n]
            for ell in range(n + 1, n_zeros):
                t = (fjn + fj[ell]) * inv_n[ell]
                acc[n] = acc[n] + t
                acc[ell] = acc[ell] - t
        g[j] = acc
    return f, g


# Exclusion product of the q-family zero dynamics.  The shift `s` is q^p z_n
# for the basic family (f_n(p, z) in the formulas) and z_n^(+-) for q-Racah.
# `z` is a list of Python complex numbers, or of `Dual`s for the Jacobian,
# and `inv_n` is row n of `pair_reciprocals(z)`.

def basic_f(s, z, n: int, inv_n: list):
    """prod_{l != n} (s - z_l) / (z_n - z_l), as products with inv_n[l] = 1 / (z_n - z_l)."""
    out = 1.0 + 0.0j
    for ell, zl in enumerate(z):
        if ell != n:
            out = (s - zl) * inv_n[ell] * out
    return out


@lru_cache(maxsize=512)
def _coeff_lists(elementary_coeffs, alphas: tuple, betas: tuple):
    """`elementary_coeffs(alphas, betas)` as Python lists, once per parameter set."""
    a, b = elementary_coeffs(alphas, betas)
    return a.tolist(), b.tolist()


def _rhs_terms_ghyp(spec, z):
    a, b = _coeff_lists(elementary_coeffs_hyp, spec.alphas, spec.betas)
    f, g = fg_recursion(z, max(len(b), len(a) - 1))
    return [
        [bk * f[k][n] for k, bk in enumerate(b, 1)] + [-aj * g[j][n] for j, aj in enumerate(a)]
        for n in range(len(z))
    ]


def _rhs_terms_gbasic(spec, z):
    q = spec.q
    r, s = len(spec.alphas), len(spec.betas)
    a, b = _coeff_lists(elementary_coeffs_basic, spec.alphas, spec.betas)
    qn = q ** float(-spec.N)
    sgn_s = (-1.0) ** (s + 1)
    sgn_r = (-1.0) ** r
    qp = {p: q ** float(p) for p in range(min(1, s - r), s + 2)}  # every shift q^p used
    qm1 = {p: v - 1.0 for p, v in qp.items()}
    cb = [sgn_s * b[k - 1] * (-1.0) ** k / q**k for k in range(1, s + 1)]
    ca = [a[j - 1] * (-1.0) ** j for j in range(1, r + 1)]
    inv = pair_reciprocals(z)
    rows = []
    for n, zn in enumerate(z):
        fn = {p: basic_f(v * zn, z, n, inv[n]) for p, v in qp.items()}
        sz = sgn_r * zn
        row = [sgn_s * (q - 1.0) * fn[1]]
        row += [c * (qm1[k + 1] * fn[k + 1] - qm1[k] * fn[k]) for k, c in enumerate(cb, 1)]
        row.append(sz * (qn * qm1[s - r + 1] * fn[s - r + 1] - qm1[s - r] * fn[s - r]))
        row += [
            sz * c * (qn * qm1[j + s + 1 - r] * fn[j + s + 1 - r] - qm1[j + s - r] * fn[j + s - r])
            for j, c in enumerate(ca, 1)
        ]
        rows.append(row)
    return rows


def _rhs_terms_wilson(spec, x):
    if any(abs(v) < X_GUARD for v in x):
        raise DivideByZeroVariable("wilson dynamics needs |x_n| > 0")
    x2 = [v * v for v in x]
    rows = []
    for n, xn in enumerate(x):
        pref = -1j / (2.0 * xn)
        row = []
        for xs in (xn, -xn):
            prod = 1.0
            for m, x2m in enumerate(x2):
                if m != n:
                    d = x2[n] - x2m
                    prod *= (d - 1.0 - 2j * xs) / d
            row.append(pref * (fam.wilson_D(spec, xs) / (2j * xs) * prod))
        rows.append(row)
    return rows


def _rhs_terms_racah(spec, y):
    if any(abs(v) < X_GUARD for v in y):
        raise DivideByZeroVariable("racah dynamics needs |y_n| > 0")
    y2 = [v * v for v in y]
    rows = []
    for n, yn in enumerate(y):
        pref = -1j / (2.0 * yn)
        row = []
        for ys in (yn, -yn):
            prod = 1.0
            for m, y2m in enumerate(y2):
                if m != n:
                    prod *= 1.0 + (1.0 + 2.0 * ys) / (y2[n] - y2m)
            row.append(pref * (fam.racah_Dtilde(spec, ys) * (2.0 * ys + 1.0) * prod))
        rows.append(row)
    return rows


def _rhs_terms_aw(spec, x):
    q = spec.q
    pref = (q - 1.0) / (2.0 * q ** float(spec.N))
    z = [v + dsqrt(v * v - 1.0) for v in x]
    z_inv = [1.0 / v for v in z]
    rows = []
    for n in range(len(x)):
        row = []
        for zv in (z, z_inv):
            zn = zv[n]
            prod = 1.0
            for m, zm in enumerate(zv):
                if m != n:
                    prod *= fam.aw_K(q, zn, zm)
            row.append(pref * (fam.aw_G(spec, zn) * prod))
        rows.append(row)
    return rows


def _rhs_terms_qracah(spec, z):
    inv = pair_reciprocals(z)
    rows = []
    for n, zn in enumerate(z):
        zp = fam.qracah_shift(spec, zn, +1)
        zm = fam.qracah_shift(spec, zn, -1)
        rows.append([
            fam.qracah_B(spec, zn) * (zp - zn) * basic_f(zp, z, n, inv[n]),
            fam.qracah_D(spec, zn) * (zm - zn) * basic_f(zm, z, n, inv[n]),
        ])
    return rows


def _rhs_terms_jacobi(spec, x):
    zvar = [2.0 / (1.0 - v) for v in x]
    check_distinct(zvar)  # distinct x can still crowd together in z = 2/(1 - x)
    rows = _rhs_terms_ghyp(fam.jacobi_to_ghyp(spec), zvar)
    # pushforward: x = 1 - 2/z, so xdot = (2/z^2) zdot, applied termwise
    return [[t * w for t in row] for row, w in zip(rows, [2.0 / (v * v) for v in zvar])]


_RHS_TERMS = {
    fam.Family.GHYP: _rhs_terms_ghyp,
    fam.Family.GBASIC: _rhs_terms_gbasic,
    fam.Family.WILSON: _rhs_terms_wilson,
    fam.Family.RACAH: _rhs_terms_racah,
    fam.Family.AW: _rhs_terms_aw,
    fam.Family.QRACAH: _rhs_terms_qracah,
    fam.Family.JACOBI: _rhs_terms_jacobi,
}


def _check_separation(z: list) -> None:
    if pairwise_close(z, COLLISION_REL):
        raise Collision(f"pairwise separation fell below {COLLISION_REL:g} * scale")


def _kernel_rows(spec: fam.FamilySpec, z: list) -> list:
    try:
        return _RHS_TERMS[spec.family](spec, z)
    except ArithmeticError as exc:  # Python scalars raise where numpy gives inf/nan
        raise SingularDenominator(f"zero-dynamics term not finite at this state: {exc}") from None


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


def equilibrium_residual_per_zero(spec: fam.FamilySpec, zeros_natural) -> np.ndarray:
    """Per-zero dynamics residual at natural-variable zeros, term-normalized.

    Zeros are equilibria of their dynamics, so this is each family's system of
    algebraic identities for its zeros (`matrices.identity_residual`).
    """
    terms = rhs_terms(spec, to_dynamics_variable(spec, zeros_natural))
    scale = np.maximum(np.max(np.abs(terms), axis=1), _TINY)
    return terms.sum(axis=1) / scale


def equilibrium_residual(spec: fam.FamilySpec, zs) -> float:
    """Max-norm of the normalized dynamics residual at natural-variable zeros."""
    z = zs.zeros if isinstance(zs, ZeroSet) else zs
    return float(np.max(np.abs(equilibrium_residual_per_zero(spec, z))))


def to_dynamics_variable(spec: fam.FamilySpec, zeros_natural: np.ndarray) -> np.ndarray:
    """Map natural-variable zeros to the dynamics variable (lift where needed)."""
    z = np.asarray(zeros_natural, dtype=complex).ravel()
    if spec.family in fam.LIFTED_FAMILIES:
        return fam.lift_zero_variables(spec, ZeroSet(z, np.inf, 0.0)).zeros
    return z


# ---------------------------------------------------------------------------
# Fixed-step integration
# ---------------------------------------------------------------------------

def integrate(spec: fam.FamilySpec, z0, t1: float, steps: int, record_every: int = 1):
    """Classical RK4 at fixed step h = t1/steps, with collision guards.

    Returns (times, trajectory) where trajectory[k] is the state at times[k];
    states are recorded every `record_every` steps (first and last always).
    A recorded state that is not finite (the step overflowed the dynamic
    range of doubles) raises NonConvergence.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    z = np.asarray(z0, dtype=complex).ravel().copy()
    h = t1 / steps
    times = [0.0]
    traj = [z.copy()]
    rhs = lambda v: nonlinear_rhs(spec, v)
    for k in range(1, steps + 1):
        k1 = rhs(z)
        k2 = rhs(z + 0.5 * h * k1)
        k3 = rhs(z + 0.5 * h * k2)
        k4 = rhs(z + h * k3)
        z = z + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        _check_separation(z.tolist())
        if k % record_every == 0 or k == steps:
            if not np.all(np.isfinite(z)):
                raise NonConvergence(f"integration state not finite at t = {k * h:g}")
            times.append(k * h)
            traj.append(z.copy())
    return np.asarray(times), np.asarray(traj)


# ---------------------------------------------------------------------------
# Algebraic oracle
# ---------------------------------------------------------------------------

def _basis_matrix(spec: fam.FamilySpec) -> np.ndarray:
    """Columns j = 0..N: coefficients (ascending, length N+1) of the degree-(N-j)
    basis polynomial in the oracle variable (u = x^2 / y^2 for wilson/racah)."""
    N = spec.N
    B = np.zeros((N + 1, N + 1), dtype=complex)
    f = spec.family
    if f in (fam.Family.GHYP, fam.Family.GBASIC):
        for j in range(N + 1):
            B[N - j, j] = 1.0
        return B
    for j in range(N + 1):
        deg = N - j
        if deg == 0:
            B[0, j] = 1.0
            continue
        sub = fam.make_spec(f, deg, spec.alphas, spec.betas, spec.q)
        p = fam.build_polynomial(sub)
        if f == fam.Family.WILSON:
            p = p.monic()
        elif f == fam.Family.RACAH:
            p = p.monic().compose_affine(-fam.racah_theta(spec) ** 2, 1.0)
        B[: deg + 1, j] = p.coeffs
    return B


def _expand_on_basis(B: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Solve target = sum_j c_j * B[:, j] by leading-term elimination."""
    N = B.shape[0] - 1
    resid = target.astype(complex).copy()
    c = np.zeros(N + 1, dtype=complex)
    for j in range(N + 1):
        deg = N - j
        pivot = B[deg, j]
        # the elimination is only trustworthy while each head dominates its column
        if abs(pivot) < PIVOT_TOL * max(1.0, float(np.max(np.abs(B[:, j])))):
            raise BasisIllConditioned(f"basis pivot |{abs(pivot):.3e}| at degree {deg}")
        c[j] = resid[deg] / pivot
        resid -= c[j] * B[:, j]
    return c


def _match_order(candidates: np.ndarray, previous: np.ndarray) -> np.ndarray:
    """Order `candidates` by greedy nearest-neighbor continuity with `previous`."""
    cand = list(candidates)
    out = np.empty(len(previous), dtype=complex)
    for i, p in enumerate(previous):
        j = int(np.argmin([abs(cv - p) for cv in cand]))
        out[i] = cand.pop(j)
    return out


def _sqrt_continuous(u: np.ndarray, previous: np.ndarray) -> np.ndarray:
    """Per-component square root with the sign chosen nearest to `previous`."""
    r = np.sqrt(u.astype(complex))
    flip = np.abs(-r - previous) < np.abs(r - previous)
    return np.where(flip, -r, r)


def algebraic_trajectory(spec: fam.FamilySpec, z0, times) -> np.ndarray:
    """Zeros of the exactly evolved polynomial at each time, continuity-matched.

    `z0` is the start in the dynamics variable.  Steps: (1) expand the initial
    monic polynomial on the family basis, (2) evolve the coefficients with the
    exact linear flow, (3) re-assemble and take roots, (4) map back through the
    square root where the dynamics runs in a lifted variable, (5) order each
    time slice by continuity with the previous one.
    """
    if spec.family == fam.Family.JACOBI:
        gh = fam.jacobi_to_ghyp(spec)
        ztraj = algebraic_trajectory(gh, 2.0 / (1.0 - np.asarray(z0, dtype=complex)), times)
        return 1.0 - 2.0 / ztraj
    z0 = np.asarray(z0, dtype=complex).ravel()
    B = _basis_matrix(spec)
    lifted = spec.family in fam.LIFTED_FAMILIES
    u0 = z0 * z0 if lifted else z0
    target = npp.polyfromroots(u0)
    if spec.family in (fam.Family.AW, fam.Family.QRACAH):
        target = target * B[spec.N, 0]  # match the basis head's leading coefficient
    c_full = _expand_on_basis(B, target)
    cs = c_system(spec)
    out = np.empty((len(times), len(z0)), dtype=complex)
    prev = z0
    prev_u = u0
    for k, t in enumerate(times):
        with np.errstate(over="ignore", invalid="ignore"):
            coeffs = B @ np.concatenate([[c_full[0]], solve_c(cs, c_full[1:], float(t))])
        if not np.all(np.isfinite(coeffs)):
            raise NonConvergence(
                f"coefficient dynamic range exhausted at t = {t:g} (non-finite coefficient)"
            )
        poly_t = Poly(coeffs)
        if poly_t.degree != len(z0):
            # exploding modes pushed the leading coefficient below trim level
            raise NonConvergence(
                f"coefficient dynamic range exhausted at t = {t:g} "
                f"(polynomial degree {poly_t.degree} < N = {len(z0)})"
            )
        roots = poly_roots(poly_t).zeros
        if lifted:
            u_t = _match_order(roots, prev_u)
            z_t = _sqrt_continuous(u_t, prev)
            prev_u = u_t
        else:
            z_t = _match_order(roots, prev)
        out[k] = z_t
        prev = z_t
    return out


def algebraic_solution(spec: fam.FamilySpec, z0, t: float) -> np.ndarray:
    """One-shot oracle: zeros at time t, matched by continuity with z0."""
    return algebraic_trajectory(spec, z0, [t])[0]


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
    from .numeric import multiset_match

    times, ode = integrate(spec, z0, t1, steps, record_every=record_every)
    oracle = algebraic_trajectory(spec, z0, times)
    dev = max(multiset_match(ode[k], oracle[k]) for k in range(len(times)))
    return TrajectoryRecord(
        times=times, ode_zeros=ode, oracle_zeros=oracle, max_deviation=float(dev)
    )


def linearization_matrix(spec: fam.FamilySpec, z) -> np.ndarray:
    """Exact Jacobian of the dynamics RHS at `z`, in the dynamics variable.

    The family's kernel runs once on `Dual.seed(z)`, so each entry is the
    derivative of the RHS formula itself, not a difference quotient: one
    forward pass whose `Dual`s carry all N partials as a list.  A division
    by zero inside the pass raises before any inf/nan is formed and becomes
    `SingularDenominator` (`_kernel_rows`).  The collision guard of
    `nonlinear_rhs` is not applied: it protects trajectories, and
    `build_matrix` checks distinctness at its own threshold.
    """
    z = np.asarray(z, dtype=complex).ravel()
    return np.array([sum(row).eps for row in _kernel_rows(spec, Dual.seed(z))], dtype=complex)
