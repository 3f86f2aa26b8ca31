"""Isospectral matrices built from zero sets, and the f/g tables.

Each family's matrix is the linearization of its zero dynamics at the zeros:
`build_matrix` is `dynamics.linearization_matrix / dynamics.time_factor`, the
exact forward-mode (`OneHot`) Jacobian of the same right-hand-side kernel that
`integrate` runs (jacobi's is ghyp's at z = 2/(1 - x)), and its reference
spectrum is `families.closed_form_spectrum`.
The componentwise formulas of the paper are kept in the tests as the reference
the Jacobian is checked against entrywise.  The zeros' algebraic identities
are their equilibrium conditions, so `identity_residual` is the dynamics
residual.  This module consumes `dynamics` and `families` and adds the f/g
tables with their exact partials, `sigma` and `verify_matrix`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import dynamics
from . import families as fam
from .errors import InvalidParameters, SingularDenominator
from .numeric import (
    ZeroSet,
    matrix_eigenvalues,
    multiset_match,
)

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
    reference_spectrum: np.ndarray
    computed_spectrum: Optional[np.ndarray] = None
    spectral_residual: Optional[float] = None
    trace_residual: Optional[float] = None
    det_residual: Optional[float] = None
    passed: Optional[bool] = None


def _zeros_array(zs) -> np.ndarray:
    z = np.asarray(zs.zeros if isinstance(zs, ZeroSet) else zs, dtype=complex).ravel()
    dynamics.check_distinct(z.tolist())
    return z


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


def fg_tables(zs, J: int) -> FGTable:
    """Fill the f/g recursion tables up to order J (J >= 1)."""
    if J < 1:
        raise ValueError("J must be >= 1")
    z = _zeros_array(zs)
    f_list, g_list = dynamics.fg_recursion(z.tolist(), J)
    f = np.zeros((J + 1, len(z)), dtype=complex)
    f[1:] = f_list[1:]
    return FGTable(f=f, g=np.array(g_list, dtype=complex))


def fg_jacobians(zs, J: int) -> FGJacobian:
    """Exact partials of the f/g tables, by the recursion's own derivative rule."""
    if J < 1:
        raise ValueError("J must be >= 1")
    z = _zeros_array(zs)
    _, _, df, dg = dynamics.fg_tangents(z.tolist(), np.eye(len(z), dtype=complex), J)
    return FGJacobian(df=df, dg=dg)


def build_matrix(spec: fam.FamilySpec, zs, pad_count: int = 0) -> IsospectralMatrix:
    """Assemble the family's isospectral matrix at the given natural-variable zeros.

    The matrix is the Jacobian of the family's zero dynamics at its zeros,
    divided by the time factor (i for wilson/racah).  wilson and racah zeros
    are lifted to their dynamics variable first; aw lifts inside its kernel.
    jacobi's matrix is the ghyp one at z = 2/(1 - x), which is D^-1 J D for
    the x-dynamics Jacobian J and D = diag((1 - x)^2), the representative
    the paper's formulas give; a zero at x = 1 raises SingularDenominator.
    `pad_count > 0` (ghyp only) appends that many equal alpha/beta parameter
    pairs before differentiating, which leaves the polynomial and its zeros
    alone but produces a different matrix with a correspondingly extended
    spectrum.
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

    if spec.family == fam.Family.JACOBI:
        dyn_spec = fam.jacobi_to_ghyp(spec)
        try:
            z = [2.0 / (1.0 - x) for x in zeta.tolist()]
        except ZeroDivisionError:
            raise SingularDenominator("jacobi zero at x = 1") from None
        dynamics.check_distinct(z)  # distinct x can still crowd together in z
    else:
        dyn_spec = fam.make_spec(spec.family, spec.N, spec.alphas + pad, spec.betas + pad) if pad else spec
        z = dynamics.to_dynamics_variable(spec, zeta)
    L = dynamics.linearization_matrix(dyn_spec, z) / dynamics.time_factor(spec)
    return IsospectralMatrix(L=L, reference_spectrum=fam.closed_form_spectrum(dyn_spec))


# ---------------------------------------------------------------------------
# Identities and verification
# ---------------------------------------------------------------------------

def identity_residual(spec: fam.FamilySpec, zs) -> np.ndarray:
    """Per-zero residuals of the family's algebraic identities for its zeros.

    The identities are the equilibrium conditions of the zero dynamics, so
    this is `dynamics.equilibrium_residual_per_zero`: each zero's b.f - a.g
    (resp. difference-equation) terms summed and normalized by the largest.
    """
    return dynamics.equilibrium_residual_per_zero(spec, _zeros_array(zs))


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
    lam_sum = complex(np.sum(ref))
    lam_prod = complex(np.prod(ref))
    report.trace_residual = abs(np.trace(report.L) - lam_sum) / max(1.0, abs(lam_sum))
    report.det_residual = abs(np.linalg.det(report.L) - lam_prod) / max(1.0, abs(lam_prod))
    report.passed = bool(
        report.spectral_residual <= tol_spectral
        and report.trace_residual <= tol_tracedet
        and report.det_residual <= tol_tracedet
    )
    return report
