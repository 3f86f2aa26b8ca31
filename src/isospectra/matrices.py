"""Isospectral matrices built from zero sets, and their verification.

Each family's matrix is the linearization of its zero dynamics at the zeros:
`build_matrix` is `dynamics.linearization_matrix / dynamics.time_factor`, the
exact forward-mode (`OneHot`) Jacobian of the same right-hand-side kernel that
`integrate` runs (jacobi's is ghyp's at z = 2/(1 - x)), and its reference
spectrum is `families.closed_form_spectrum`.
The componentwise formulas of the paper are kept in the tests as the reference
the Jacobian is checked against entrywise.  The zeros' algebraic identities
are their equilibrium conditions, so `identity_residual` is the dynamics
residual, and the pass that builds a matrix holds its terms too
(`IsospectralMatrix.terms`).  This module consumes `dynamics` and `families`
and adds `verify_matrix`, which checks a matrix against its reference
spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import dynamics
from . import families as fam
from .errors import InvalidParameters
from .numeric import (
    ZeroSet,
    matrix_eigenvalues,
    multiset_match,
)

TOL_TRACEDET = 1e-8   # verify_matrix's relative trace and determinant tolerance


@dataclass
class IsospectralMatrix:
    """Dense matrix, its closed-form reference spectrum, and the residual report.

    `terms` holds, per zero, the additive RHS terms of the dynamics the
    matrix linearizes, at the zeros, so `dynamics.normalized_row_sums(terms)`
    is the identity residual.  jacobi's are the terms of its ghyp image,
    each row the jacobi row over one common factor, which leaves the
    residual's modulus as it is.
    """

    L: np.ndarray
    reference_spectrum: np.ndarray
    terms: list
    computed_spectrum: Optional[np.ndarray] = None
    spectral_residual: Optional[float] = None
    trace_residual: Optional[float] = None
    det_residual: Optional[float] = None
    passed: Optional[bool] = None


def _zeros_array(zs) -> np.ndarray:
    z = np.asarray(zs.zeros if isinstance(zs, ZeroSet) else zs, dtype=complex).ravel()
    dynamics.check_distinct(z.tolist())
    return z


def build_matrix(spec: fam.FamilySpec, zs) -> IsospectralMatrix:
    """Assemble the family's isospectral matrix at the given natural-variable zeros.

    The matrix is the Jacobian of the family's zero dynamics at its zeros,
    divided by the time factor (i for wilson/racah).  wilson and racah zeros
    are lifted to their dynamics variable first; aw lifts inside its kernel.
    jacobi's matrix is the ghyp one at z = 2/(1 - x), which is D^-1 J D for
    the x-dynamics Jacobian J and D = diag((1 - x)^2), the representative
    the paper's formulas give; a zero at x = 1 raises SingularDenominator.
    A padded ghyp matrix is this one on the spec with equal alpha/beta pairs
    appended: the polynomial and its zeros stay those of the unpadded spec,
    but the matrix and its spectrum change.

    The one Jacobian pass also hands over the RHS terms at the zeros
    (`dynamics.linearization`), kept as `terms`; nothing is computed from
    them here, so a caller that reports no identity residual pays nothing.
    """
    fam.validate_spec(spec)
    zeta = _zeros_array(zs)
    if len(zeta) != spec.N:
        raise InvalidParameters(f"expected {spec.N} zeros, got {len(zeta)}")
    if spec.family == fam.Family.JACOBI:
        dyn_spec, z = fam.jacobi_to_ghyp(spec), dynamics.jacobi_variables(zeta.tolist())
    else:
        dyn_spec, z = spec, dynamics.to_dynamics_variable(spec, zeta)
    L, terms = dynamics.linearization(dyn_spec, z)
    return IsospectralMatrix(
        L=L / dynamics.time_factor(spec),
        reference_spectrum=fam.closed_form_spectrum(dyn_spec),
        terms=terms,
    )


# ---------------------------------------------------------------------------
# Identities and verification
# ---------------------------------------------------------------------------

def identity_residual(spec: fam.FamilySpec, zs) -> np.ndarray:
    """Per-zero residuals of the family's algebraic identities for its zeros.

    The identities are the equilibrium conditions of the zero dynamics, so
    this is `dynamics.equilibrium_residual_per_zero`: each zero's b.f - a.g
    (resp. difference-equation) terms summed and normalized by the largest.
    It runs the kernel on the zeros; a caller that builds the matrix anyway
    reads the same residual from `build_matrix(...).terms`.
    """
    return dynamics.equilibrium_residual_per_zero(spec, _zeros_array(zs))


def verify_matrix(
    spec: fam.FamilySpec,
    tol_spectral: float = 1e-6,
    zeros: Optional[ZeroSet] = None,
) -> IsospectralMatrix:
    """compute_zeros -> build_matrix -> eigenvalues -> residual report.

    Pass `zeros` (the `compute_zeros(spec)` result) when the caller already
    has it, so the zeros are not solved for again.  The trace and
    determinant residuals pass at TOL_TRACEDET.
    """
    zs = fam.compute_zeros(spec) if zeros is None else zeros
    report = build_matrix(spec, zs)
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
        and report.trace_residual <= TOL_TRACEDET
        and report.det_residual <= TOL_TRACEDET
    )
    return report
