"""Isospectral matrices built from zero sets, and the f/g recursion machinery.

Each family builder implements the componentwise matrix formulas literally.
The "+[x_s -> -x_s]" (resp. "[z_s -> 1/z_s]") symmetrization symbols are
realized as a second evaluation of the same expression with mapped arguments,
added to the first.  Scalar derivatives that are not worth differentiating by
hand (Dtilde', G', B', D') come from forward-mode duals; the Wilson quartic
derivative is closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import families as fam
from .errors import InvalidParameters, RepeatedZeros, SingularDenominator
from .numeric import (
    Dual,
    EigenMultiset,
    ZeroSet,
    elementary_coeffs_basic,
    elementary_coeffs_hyp,
    matrix_eigenvalues,
    multiset_match,
    pairwise_close,
)

_TINY = 1e-300
FG_SEP_TOL = 1e-12          # distinctness guard for the recursion denominators
DENOM_GUARD = 1e-12         # matrix-formula denominator guard, relative to scale
DEFAULT_PAD_VALUES = (1.75, 2.25, 2.75, 3.25)   # padded alpha = beta parameters


@dataclass
class FGTable:
    """f[j][n] for j = 1..J and g[j][n] for j = 0..J (row 0 of f is unused)."""

    f: np.ndarray
    g: np.ndarray


@dataclass
class FGJacobian:
    """df[j][n][m] = d f_n^(j) / d zeta_m, same layout as FGTable."""

    df: np.ndarray
    dg: np.ndarray


@dataclass
class IsospectralMatrix:
    """Dense matrix, its closed-form reference spectrum, and the residual report."""

    L: np.ndarray
    reference_spectrum: EigenMultiset
    computed_spectrum: Optional[EigenMultiset] = None
    spectral_residual: Optional[float] = None
    trace_residual: Optional[float] = None
    det_residual: Optional[float] = None
    passed: Optional[bool] = None


def _zeros_array(zs) -> np.ndarray:
    z = np.asarray(zs.zeros if isinstance(zs, ZeroSet) else zs, dtype=complex).ravel()
    check_distinct(z.tolist())
    return z


def check_distinct(z: list) -> None:
    """Raise RepeatedZeros unless the zeros are pairwise FG_SEP_TOL-separated."""
    if pairwise_close(z, FG_SEP_TOL):
        raise RepeatedZeros("zeros must be pairwise distinct")


def sigma(zs, n: int, r: int, rho: int):
    """sigma_n^(r,rho) = sum_{l != n} zeta_l^r / (zeta_n - zeta_l)^rho; n is 1-based."""
    z = _zeros_array(zs)
    if not 1 <= n <= len(z):
        raise IndexError(f"n = {n} outside 1..{len(z)}")
    zn = z[n - 1]
    out = 0.0 + 0.0j
    for ell, zl in enumerate(z):
        if ell == n - 1:
            continue
        out += zl**r / (zn - zl) ** rho
    return out


def fg_recursion(zeta, J: int):
    """f, g tables over a list of scalars with field arithmetic (complex or Dual).

    Returns lists f[j][n] (j = 1..J, f[0] is None) and g[j][n] (j = 0..J).
    """
    n_zeros = len(zeta)
    one = 1.0 + 0.0j
    if isinstance(zeta[0], Dual):
        one = Dual(1.0, np.zeros_like(zeta[0].eps))
    f = [None] * (J + 1)
    g = [None] * (J + 1)
    f[1] = list(zeta)
    g[0] = [one] * n_zeros
    for j in range(1, J):
        fj = f[j]
        nxt = []
        for n, zn in enumerate(zeta):
            fjn = fj[n]
            acc = -fjn
            for ell, zl in enumerate(zeta):
                if ell != n:
                    acc = acc + (zn * fj[ell] + zl * fjn) / (zn - zl)
            nxt.append(acc)
        f[j + 1] = nxt
    for j in range(1, J + 1):
        fj = f[j]
        row = []
        for n, zn in enumerate(zeta):
            fjn = fj[n]
            acc = 0.0 * one
            for ell, zl in enumerate(zeta):
                if ell != n:
                    acc = acc + (fjn + fj[ell]) / (zn - zl)
            row.append(acc)
        g[j] = row
    return f, g


def fg_tables(zs, J: int) -> FGTable:
    """Fill the f/g recursion tables up to order J (J >= 1)."""
    if J < 1:
        raise ValueError("J must be >= 1")
    z = _zeros_array(zs)
    f_list, g_list = fg_recursion(z.tolist(), J)
    f = np.zeros((J + 1, len(z)), dtype=complex)
    f[1:] = f_list[1:]
    return FGTable(f=f, g=np.array(g_list, dtype=complex))


def fg_jacobians(zs, J: int) -> FGJacobian:
    """Exact partials of the f/g tables, by dual-number propagation."""
    if J < 1:
        raise ValueError("J must be >= 1")
    z = _zeros_array(zs)
    n_zeros = len(z)
    f_list, g_list = fg_recursion(Dual.seed(z), J)
    df = np.zeros((J + 1, n_zeros, n_zeros), dtype=complex)
    dg = np.zeros((J + 1, n_zeros, n_zeros), dtype=complex)
    for j in range(1, J + 1):
        for n in range(n_zeros):
            df[j, n] = f_list[j][n].eps
    for j in range(1, J + 1):
        for n in range(n_zeros):
            dg[j, n] = g_list[j][n].eps
    return FGJacobian(df=df, dg=dg)


# ---------------------------------------------------------------------------
# Exclusion products, shared by the q-family matrices and zero dynamics.
# The shift `s` is q^p z_n for the basic family (f_n(p, z) in the formulas)
# and z_n^(+-) for q-Racah.  `z` is a list of Python complex numbers in the
# dynamics and a numpy array in the matrix builders, whose entries then stay
# the numpy-scalar results they always were.
# ---------------------------------------------------------------------------

def basic_f(s, z, n: int):
    """prod_{l != n} (s - z_l) / (z_n - z_l)."""
    zn = z[n]
    out = 1.0 + 0.0j
    for ell, zl in enumerate(z):
        if ell != n:
            out *= (s - zl) / (zn - zl)
    return out


def basic_f_exc(s, z, n: int, m: int):
    """The same product with l != n, m."""
    zn = z[n]
    out = 1.0 + 0.0j
    for ell, zl in enumerate(z):
        if ell != n and ell != m:
            out *= (s - zl) / (zn - zl)
    return out


def basic_g(s, z, n: int):
    """sum_{k != n} basic_f_exc(s, z, n, k) z_k / (z_n - z_k)^2."""
    zn = z[n]
    out = 0.0 + 0.0j
    for k, zk in enumerate(z):
        if k != n:
            out += basic_f_exc(s, z, n, k) * zk / (zn - zk) ** 2
    return out


# ---------------------------------------------------------------------------
# Closed-form spectra
# ---------------------------------------------------------------------------

def closed_form_spectrum(spec: fam.FamilySpec, pad_betas=()) -> EigenMultiset:
    """The N closed-form eigenvalues of the family's isospectral matrix.

    `pad_betas` extends the ghyp spectrum when the padded-parameter variant of
    the matrix is requested (equal trailing alpha/beta pairs).
    """
    N = spec.N
    m = np.arange(1, N + 1, dtype=complex)
    f = spec.family
    if f == fam.Family.GHYP:
        lam = m.copy()
        for be in tuple(spec.betas) + tuple(pad_betas):
            lam *= be - 1.0 + m
    elif f == fam.Family.JACOBI:
        lam = m * (m + spec.alphas[0])
    elif f == fam.Family.GBASIC:
        q = spec.q
        r, s = len(spec.alphas), len(spec.betas)
        lam = -(q ** ((s - r) * (N - m))) * (q ** (-m) - 1.0)
        for al in spec.alphas:
            lam *= al * q ** (N - m) - 1.0
    elif f == fam.Family.WILSON:
        lam = m * (2 * N - m + sum(spec.alphas) - 1.0)
    elif f == fam.Family.RACAH:
        al, be = spec.alphas[0], spec.alphas[1]
        lam = m * (m - 2 * N - al - be - 1.0)
    elif f == fam.Family.AW:
        q = spec.q
        prod = np.prod(spec.alphas)
        lam = q ** float(-N) * (1.0 - q**m) * (1.0 - prod * q ** (2 * N - 1 - m))
    elif f == fam.Family.QRACAH:
        q = spec.q
        ab = spec.alphas[0] * spec.alphas[1]
        lam = q ** float(-N) * (1.0 - q**m) * (1.0 - ab * q ** (2 * N - m + 1))
    else:
        raise InvalidParameters(f"no spectrum formula for {f!r}")
    return EigenMultiset(values=np.asarray(lam, dtype=complex))


# ---------------------------------------------------------------------------
# Matrix builders
# ---------------------------------------------------------------------------

def _L_ghyp(spec: fam.FamilySpec, zeta: np.ndarray, pad_values=()):
    alphas = tuple(spec.alphas) + tuple(pad_values)
    betas = tuple(spec.betas) + tuple(pad_values)
    a, b = elementary_coeffs_hyp(alphas, betas)
    p, qn = len(alphas), len(betas)
    jac = fg_jacobians(zeta, max(qn + 1, max(p, 1)))
    n_zeros = len(zeta)
    L = np.zeros((n_zeros, n_zeros), dtype=complex)
    for k in range(1, qn + 2):
        L += b[k - 1] * jac.df[k]
    for j in range(1, p + 1):
        L -= a[j] * jac.dg[j]
    return L


def _L_jacobi(spec: fam.FamilySpec, x: np.ndarray):
    al = spec.alphas[0]
    n_zeros = len(x)
    L = np.zeros((n_zeros, n_zeros), dtype=complex)
    for n in range(n_zeros):
        diag = al + 1.0
        for ell in range(n_zeros):
            if ell == n:
                continue
            diag += (1.0 + x[ell]) * (1.0 - x[n]) ** 2 / (x[n] - x[ell]) ** 2
            L[n, ell] = -(1.0 + x[n]) * (1.0 - x[ell]) ** 2 / (x[n] - x[ell]) ** 2
        L[n, n] = diag
    return L


def _L_gbasic(spec: fam.FamilySpec, zeta: np.ndarray):
    q = spec.q
    N = spec.N
    r, s = len(spec.alphas), len(spec.betas)
    a, b = elementary_coeffs_basic(spec.alphas, spec.betas)
    qn = q ** float(-N)
    n_zeros = len(zeta)
    L = np.zeros((n_zeros, n_zeros), dtype=complex)

    def qp(p):
        return q ** float(p) - 1.0

    for n in range(n_zeros):
        def f(p):
            return basic_f(q ** float(p) * zeta[n], zeta, n)

        def g(p):
            return basic_g(q ** float(p) * zeta[n], zeta, n)

        # diagonal entry
        acc = (-1.0) ** s * (
            qp(1) ** 2 * g(1)
            + sum(
                b[k - 1]
                * (-1.0) ** k
                / q**k
                * (qp(k + 1) ** 2 * g(k + 1) - qp(k) ** 2 * g(k))
                for k in range(1, s + 1)
            )
        )
        acc += (-1.0) ** (r + 1) * zeta[n] * (
            qn * qp(s - r + 1) ** 2 * g(s - r + 1)
            - qp(s - r) ** 2 * g(s - r)
            + sum(
                a[j - 1]
                * (-1.0) ** j
                * (
                    qn * qp(j + s + 1 - r) ** 2 * g(j + s + 1 - r)
                    - qp(j + s - r) ** 2 * g(j + s - r)
                )
                for j in range(1, r + 1)
            )
        )
        acc += (-1.0) ** r * (
            qn * qp(s - r + 1) * f(s - r + 1)
            - qp(s - r) * f(s - r)
            + sum(
                a[j - 1]
                * (-1.0) ** j
                * (
                    qn * qp(j + s + 1 - r) * f(j + s + 1 - r)
                    - qp(j + s - r) * f(j + s - r)
                )
                for j in range(1, r + 1)
            )
        )
        L[n, n] = acc
        for m in range(n_zeros):
            if m == n:
                continue
            dd = (zeta[n] - zeta[m]) ** 2

            def fx(p):
                return basic_f_exc(q ** float(p) * zeta[n], zeta, n, m)

            off = (-1.0) ** (s + 1) * zeta[n] / dd * (
                qp(1) ** 2 * fx(1)
                + sum(
                    b[k - 1]
                    * (-1.0) ** k
                    / q**k
                    * (qp(k + 1) ** 2 * fx(k + 1) - qp(k) ** 2 * fx(k))
                    for k in range(1, s + 1)
                )
            )
            off += (-1.0) ** r * zeta[n] ** 2 / dd * (
                qn * qp(s - r + 1) ** 2 * fx(s - r + 1)
                - qp(s - r) ** 2 * fx(s - r)
                + sum(
                    a[j - 1]
                    * (-1.0) ** j
                    * (
                        qn * qp(j + s + 1 - r) ** 2 * fx(j + s + 1 - r)
                        - qp(j + s - r) ** 2 * fx(j + s - r)
                    )
                    for j in range(1, r + 1)
                )
            )
            L[n, m] = off
    return L


def _wilson_core(spec: fam.FamilySpec, x: np.ndarray):
    """Brace contents of the Wilson L formulas (before symmetrization)."""
    n_zeros = len(x)
    diag = np.zeros(n_zeros, dtype=complex)
    off = np.zeros((n_zeros, n_zeros), dtype=complex)
    x2 = x * x
    for n in range(n_zeros):
        ring = [1.0 - (1.0 + 2j * x[n]) / (x2[n] - x2[ell]) for ell in range(n_zeros) if ell != n]
        full = np.prod(ring) if ring else 1.0
        dn = fam.wilson_D(spec, x[n])
        dpn = fam.wilson_D_prime(spec, x[n])
        acc = (2.0 * dn / (1j * x[n]) + 1j * dpn) * full
        for m in range(n_zeros):
            if m == n:
                continue
            exc = np.prod(
                [
                    1.0 - (1.0 + 2j * x[n]) / (x2[n] - x2[ell])
                    for ell in range(n_zeros)
                    if ell not in (n, m)
                ]
            )
            acc += (
                2.0
                * dn
                * (1j * x[n] - (x2[n] + x2[m]))
                / (x2[n] - x2[m]) ** 2
                * exc
            )
            off[n, m] = 2.0 * dn * 1j * x[m] * (1.0 + 2j * x[n]) / (x2[n] - x2[m]) ** 2 * exc
        diag[n] = acc
    return diag, off


def _L_wilson(spec: fam.FamilySpec, x: np.ndarray):
    d1, o1 = _wilson_core(spec, x)
    d2, o2 = _wilson_core(spec, -x)
    pref = 1.0 / (4.0 * x * x)
    L = -(o1 + o2) * pref[:, None]
    np.fill_diagonal(L, (d1 + d2) * pref)
    return L


def _racah_core(spec: fam.FamilySpec, y: np.ndarray):
    n_zeros = len(y)
    diag = np.zeros(n_zeros, dtype=complex)
    off = np.zeros((n_zeros, n_zeros), dtype=complex)
    y2 = y * y
    for n in range(n_zeros):
        ring = [1.0 + (1.0 + 2.0 * y[n]) / (y2[n] - y2[ell]) for ell in range(n_zeros) if ell != n]
        full = np.prod(ring) if ring else 1.0
        dt = fam.racah_Dtilde(spec, y[n])
        dtp = fam.racah_Dtilde(spec, Dual(y[n], np.ones(1))).eps[0]
        acc = ((dt / y2[n] - dtp / y[n]) * (1.0 + 2.0 * y[n]) - 2.0 * dt / y[n]) * full
        for m in range(n_zeros):
            if m == n:
                continue
            exc = np.prod(
                [
                    1.0 + (1.0 + 2.0 * y[n]) / (y2[n] - y2[ell])
                    for ell in range(n_zeros)
                    if ell not in (n, m)
                ]
            )
            acc += (
                2.0
                * dt
                / y[n]
                * (1.0 + 2.0 * y[n])
                * (y2[n] + y2[m] + y[n])
                / (y2[n] - y2[m]) ** 2
                * exc
            )
            off[n, m] = y[m] * dt / y[n] * (1.0 + 2.0 * y[n]) ** 2 * exc
        diag[n] = acc
    return diag, off


def _L_racah(spec: fam.FamilySpec, y: np.ndarray):
    d1, o1 = _racah_core(spec, y)
    d2, o2 = _racah_core(spec, -y)
    n_zeros = len(y)
    L = np.zeros((n_zeros, n_zeros), dtype=complex)
    y2 = y * y
    for n in range(n_zeros):
        for m in range(n_zeros):
            if m == n:
                continue
            L[n, m] = -(o1[n, m] + o2[n, m]) / (y2[n] - y2[m]) ** 2
    np.fill_diagonal(L, 0.5 * (d1 + d2))
    return L


def _aw_core(spec: fam.FamilySpec, z: np.ndarray):
    q = spec.q
    n_zeros = len(z)
    diag = np.zeros(n_zeros, dtype=complex)
    off = np.zeros((n_zeros, n_zeros), dtype=complex)
    for n in range(n_zeros):
        kprod = np.prod([fam.aw_K(q, z[n], z[ell]) for ell in range(n_zeros) if ell != n]) if n_zeros > 1 else 1.0
        g = fam.aw_G(spec, z[n])
        gp = fam.aw_G(spec, Dual(z[n], np.ones(1))).eps[0]
        chain_n = 2.0 * z[n] ** 2 / (z[n] ** 2 - 1.0)
        ssum = 0.0 + 0.0j
        for m in range(n_zeros):
            if m == n:
                continue
            ssum += (
                -q / (z[m] - q * z[n])
                + q * z[m] / (q * z[n] * z[m] - 1.0)
                + 1.0 / (z[m] - z[n])
                - z[m] / (z[n] * z[m] - 1.0)
            )
            chain_m = 2.0 * z[m] ** 2 / (z[m] ** 2 - 1.0)
            bracket = (
                1.0 / (z[m] - q * z[n])
                + q * z[n] / (q * z[n] * z[m] - 1.0)
                - 1.0 / (z[m] - z[n])
                - z[n] / (z[n] * z[m] - 1.0)
            )
            off[n, m] = chain_m * g * bracket * kprod
        diag[n] = (chain_n * g * ssum + chain_n * gp) * kprod
    return diag, off


def _L_aw(spec: fam.FamilySpec, z: np.ndarray):
    q = spec.q
    d1, o1 = _aw_core(spec, z)
    d2, o2 = _aw_core(spec, 1.0 / z)
    pref = (q - 1.0) / (2.0 * q ** float(spec.N))
    L = pref * (o1 + o2)
    np.fill_diagonal(L, pref * (d1 + d2))
    return L


def _L_qracah(spec: fam.FamilySpec, z: np.ndarray):
    n_zeros = len(z)
    L = np.zeros((n_zeros, n_zeros), dtype=complex)
    zp = np.array([fam.qracah_shift(spec, v, +1) for v in z])
    zm = np.array([fam.qracah_shift(spec, v, -1) for v in z])
    bv = np.array([fam.qracah_B(spec, v) for v in z])
    dv = np.array([fam.qracah_D(spec, v) for v in z])
    bp = np.array([fam.qracah_B(spec, Dual(v, np.ones(1))).eps[0] for v in z])
    dp = np.array([fam.qracah_D(spec, Dual(v, np.ones(1))).eps[0] for v in z])
    cp = np.array([fam.qracah_C(spec, v, +1) for v in z])
    cm = np.array([fam.qracah_C(spec, v, -1) for v in z])

    def w_term(c_n, zshift_n, znv, zmv):
        return (c_n * (znv - zmv) - zshift_n + zmv) / ((znv - zmv) * (zshift_n - zmv))

    for n in range(n_zeros):
        prod_p = basic_f(zp[n], z, n)
        prod_m = basic_f(zm[n], z, n)
        sum_p = sum(w_term(cp[n], zp[n], z[n], z[m]) for m in range(n_zeros) if m != n)
        sum_m = sum(w_term(cm[n], zm[n], z[n], z[m]) for m in range(n_zeros) if m != n)
        L[n, n] = (
            bp[n] * (zp[n] - z[n]) + bv[n] * (cp[n] - 1.0 + (zp[n] - z[n]) * sum_p)
        ) * prod_p + (
            dp[n] * (zm[n] - z[n]) + dv[n] * (cm[n] - 1.0 + (zm[n] - z[n]) * sum_m)
        ) * prod_m
        for m in range(n_zeros):
            if m == n:
                continue
            L[n, m] = (
                bv[n] * ((zp[n] - z[n]) / (z[n] - z[m])) ** 2 * basic_f_exc(zp[n], z, n, m)
                + dv[n] * ((zm[n] - z[n]) / (z[n] - z[m])) ** 2 * basic_f_exc(zm[n], z, n, m)
            )
    return L


def build_matrix(spec: fam.FamilySpec, zs, pad_count: int = 0) -> IsospectralMatrix:
    """Assemble the family's isospectral matrix at the given natural-variable zeros.

    `pad_count > 0` (ghyp only) appends that many equal alpha/beta parameter
    pairs before assembling, which leaves the polynomial and its zeros alone
    but produces a different matrix with a correspondingly extended spectrum.
    """
    fam.validate_spec(spec)
    zeta = _zeros_array(zs)
    if len(zeta) != spec.N:
        raise InvalidParameters(f"expected {spec.N} zeros, got {len(zeta)}")
    pad = DEFAULT_PAD_VALUES[:pad_count]
    if pad_count and spec.family != fam.Family.GHYP:
        raise InvalidParameters("parameter padding is a ghyp-only construction")
    if pad_count > len(DEFAULT_PAD_VALUES):
        raise InvalidParameters(f"pad_count capped at {len(DEFAULT_PAD_VALUES)}")

    f = spec.family
    if f == fam.Family.GHYP:
        L = _L_ghyp(spec, zeta, pad_values=pad)
    elif f == fam.Family.JACOBI:
        L = _L_jacobi(spec, zeta)
    elif f == fam.Family.GBASIC:
        L = _L_gbasic(spec, zeta)
    elif f == fam.Family.WILSON:
        x = fam.lift_zero_variables(spec, ZeroSet(zeta, _TINY, 0.0) if not isinstance(zs, ZeroSet) else zs)
        L = _L_wilson(spec, x.zeros)
    elif f == fam.Family.RACAH:
        y = fam.lift_zero_variables(spec, ZeroSet(zeta, _TINY, 0.0) if not isinstance(zs, ZeroSet) else zs)
        L = _L_racah(spec, y.zeros)
    elif f == fam.Family.AW:
        z = zeta + np.sqrt(zeta * zeta - 1.0)
        L = _L_aw(spec, z)
    elif f == fam.Family.QRACAH:
        L = _L_qracah(spec, zeta)
    else:
        raise InvalidParameters(f"no matrix construction for {f!r}")
    if not np.all(np.isfinite(L)):
        raise SingularDenominator("matrix formula denominator vanished")
    ref = closed_form_spectrum(spec, pad_betas=pad)
    return IsospectralMatrix(L=L, reference_spectrum=ref)


# ---------------------------------------------------------------------------
# Identities and verification
# ---------------------------------------------------------------------------

def identity_residual(spec: fam.FamilySpec, zs) -> np.ndarray:
    """Per-zero residuals of the family's algebraic identity system.

    gbasic uses the explicit product identity; for ghyp (and jacobi, through
    its ghyp image) and the four named families the identity is equilibrium
    of the zero dynamics, whose b.f - a.g terms the dynamics module builds.
    Each residual is normalized by the largest contributing term.
    """
    from . import dynamics  # cycle: dynamics imports the f/g machinery from here

    f = spec.family
    if f == fam.Family.JACOBI:
        gh = jacobi_zeros_to_ghyp(spec, _zeros_array(zs))
        return identity_residual(*gh)
    zeta = _zeros_array(zs)

    if f == fam.Family.GBASIC:
        q = spec.q
        N = spec.N
        r, s = len(spec.alphas), len(spec.betas)
        a, b = elementary_coeffs_basic(spec.alphas, spec.betas)
        out = np.zeros(len(zeta), dtype=complex)
        for n in range(len(zeta)):
            def w(p):
                return complex(np.prod(zeta[n] * q ** float(p) - zeta))

            terms = [-w(1)]
            terms += [
                (-1.0) ** k * q ** float(-k) * b[k - 1] * (w(k) - w(k + 1))
                for k in range(1, s + 1)
            ]
            sign = -((-1.0) ** (r - s)) * zeta[n]
            terms.append(sign * (w(s - r) - q ** float(-N) * w(s - r + 1)))
            terms += [
                sign * (-1.0) ** j * a[j - 1] * (w(s - r + j) - q ** float(-N) * w(s - r + j + 1))
                for j in range(1, r + 1)
            ]
            terms = np.asarray(terms)
            out[n] = terms.sum() / max(float(np.max(np.abs(terms))), _TINY)
        return out

    if f == fam.Family.GHYP or f in fam.FOUR_PARAM_FAMILIES:
        return dynamics.equilibrium_residual_per_zero(spec, zeta)

    raise InvalidParameters(f"no identity for family {f!r}")


def jacobi_zeros_to_ghyp(spec: fam.FamilySpec, x: np.ndarray):
    """Map a Jacobi spec and its x-zeros to the equivalent ghyp spec and z-zeros."""
    gh = fam.jacobi_to_ghyp(spec)
    return gh, 2.0 / (1.0 - x)


def verify_matrix(
    spec: fam.FamilySpec,
    tol_spectral: float = 1e-6,
    tol_tracedet: float = 1e-8,
    pad_count: int = 0,
    zeros: Optional[ZeroSet] = None,
) -> IsospectralMatrix:
    """compute_zeros -> build_matrix -> eigenvalues -> residual report.

    Pass `zeros` (the `compute_zeros(spec)` result) when the caller already
    has it, so the zeros are not solved for again.
    """
    zs = fam.compute_zeros(spec) if zeros is None else zeros
    report = build_matrix(spec, zs, pad_count=pad_count)
    ev = matrix_eigenvalues(report.L)
    ref = report.reference_spectrum
    report.computed_spectrum = ev
    report.spectral_residual = multiset_match(ev, ref)
    ev.match_distance = report.spectral_residual
    lam_sum = complex(np.sum(ref.values))
    lam_prod = complex(np.prod(ref.values))
    report.trace_residual = abs(np.trace(report.L) - lam_sum) / max(1.0, abs(lam_sum))
    report.det_residual = abs(np.linalg.det(report.L) - lam_prod) / max(1.0, abs(lam_prod))
    report.passed = bool(
        report.spectral_residual <= tol_spectral
        and report.trace_residual <= tol_tracedet
        and report.det_residual <= tol_tracedet
    )
    return report
