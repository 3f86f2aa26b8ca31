"""Isospectral matrices built from zero sets, and the f/g recursion machinery.

Each family's matrix is the linearization of its zero dynamics at the zeros:
`build_matrix` is `dynamics.linearization_matrix / dynamics.time_factor`, the
exact forward-mode (`Dual`) Jacobian of the same right-hand-side kernel that
`integrate` runs, so every family formula is written once, in `dynamics`.
The componentwise formulas of the paper are kept in the tests as the reference
the Jacobian is checked against entrywise.  This module also holds the f/g
recursion and exclusion product those kernels share, the closed-form spectra,
the identity residuals and `verify_matrix`.
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
    matrix_eigenvalues,
    multiset_match,
    pairwise_close,
)

_TINY = 1e-300
FG_SEP_TOL = 1e-12          # distinctness guard for the recursion denominators
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
# Exclusion product of the q-family zero dynamics.  The shift `s` is q^p z_n
# for the basic family (f_n(p, z) in the formulas) and z_n^(+-) for q-Racah.
# `z` is a list of Python complex numbers, or of `Dual`s for the Jacobian.
# ---------------------------------------------------------------------------

def basic_f(s, z, n: int):
    """prod_{l != n} (s - z_l) / (z_n - z_l)."""
    zn = z[n]
    out = 1.0 + 0.0j
    for ell, zl in enumerate(z):
        if ell != n:
            out *= (s - zl) / (zn - zl)
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


def build_matrix(spec: fam.FamilySpec, zs, pad_count: int = 0) -> IsospectralMatrix:
    """Assemble the family's isospectral matrix at the given natural-variable zeros.

    The matrix is the Jacobian of the family's zero dynamics at its zeros,
    divided by the time factor (i for wilson/racah).  wilson and racah zeros
    are lifted to their dynamics variable first; aw lifts inside its kernel.
    For jacobi the x-dynamics Jacobian J is returned as D^-1 J D with
    D = diag((1 - x)^2), the representative the paper's formulas give.
    `pad_count > 0` (ghyp only) appends that many equal alpha/beta parameter
    pairs before differentiating, which leaves the polynomial and its zeros
    alone but produces a different matrix with a correspondingly extended
    spectrum.
    """
    from . import dynamics  # cycle: dynamics imports the f/g machinery from here

    fam.validate_spec(spec)
    zeta = _zeros_array(zs)
    if len(zeta) != spec.N:
        raise InvalidParameters(f"expected {spec.N} zeros, got {len(zeta)}")
    pad = DEFAULT_PAD_VALUES[:pad_count]
    if pad_count and spec.family != fam.Family.GHYP:
        raise InvalidParameters("parameter padding is a ghyp-only construction")
    if pad_count > len(DEFAULT_PAD_VALUES):
        raise InvalidParameters(f"pad_count capped at {len(DEFAULT_PAD_VALUES)}")

    dyn_spec = fam.make_spec(spec.family, spec.N, spec.alphas + pad, spec.betas + pad) if pad else spec
    z = dynamics.to_dynamics_variable(spec, zeta)
    L = dynamics.linearization_matrix(dyn_spec, z) / dynamics.time_factor(spec)
    if spec.family == fam.Family.JACOBI:
        d = (1.0 - zeta) ** 2
        L = L * d / d[:, None]
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
