"""Polynomial families and their defining equations.

Each family's explicit finite sum is written once, in `_term_table`, as
terms pref * prod_s (A_s + B_s z) held in complex double-double, and
multiplied out once per spec into unrounded monomial coefficients.
`build_polynomial` rounds them; the structured evaluation (zero refinement,
defining-equation residuals) runs double-double Horner on them with an
error bound, so a sum that cancels past double-double precision (aw and
qracah at N >= 10) fails the refinement instead of giving wrong zeros.
Where the textbook sum divides by a Pochhammer symbol that also appears in
a prefactor (Wilson, Askey-Wilson, Jacobi), the ratio is rewritten
as a shifted Pochhammer product, so the sums are entire in the parameters
and `validate_spec` rejects only genuinely vanishing denominators.

Variable conventions (the "natural" variable of each family):

  ghyp, gbasic   z
  wilson         z = x^2          (lift: x = sqrt(z), principal branch)
  racah          z = lambda(x)    (lift: y = sqrt(z + theta^2), theta = (gamma+delta+1)/2)
  aw             x = cos(theta)   (lift: z = x + sqrt(x^2 - 1) = e^(i theta))
  qracah         z = q^-x + gamma delta q^(x+1)   (companions z^(+-) = z(x +- 1))
  jacobi         x                (maps to ghyp via z = 2/(1-x))

Square roots are principal everywhere; every identity evaluated here is
invariant under a consistent branch flip, so the choice is immaterial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Optional

import numpy as np

from .errors import (
    BranchPoint,
    InvalidParameters,
    NonConvergence,
    RepeatedZeros,
    SingularSample,
)
from .numeric import (
    EigenMultiset,
    Poly,
    ZeroSet,
    ddc,
    ddc_add,
    ddc_div,
    ddc_expand,
    ddc_mul,
    ddc_neg,
    ddc_pochhammer,
    ddc_powi,
    ddc_q_pochhammer,
    ddc_to_complex,
    dsqrt,
    min_separation,
    poly_roots,
)

_TINY = 1e-300
_DD_UNIT = 2.0**-104       # relative rounding of one double-double operation
PARAM_POLE_TOL = 1e-10     # plain Pochhammer validity margin
QPARAM_POLE_TOL = 1e-12    # q-Pochhammer validity margin
ZERO_SEP_REL = 1e-8        # distinctness threshold, relative to zero scale
ZERO_TOL = 1e-12           # largest accepted relative forward-error estimate of a zero
REFINE_STEPS = 12          # Newton-step cap of the structured refinement
BRANCH_TOL = 1e-10
REAL_AXIS_REL = 8 * 2.0**-52  # Im below this share of the operands' size is rounding noise
SINGULAR_RADIUS = 1e-3     # exclusion radius around defining-equation poles


class Family(str, Enum):
    GHYP = "ghyp"
    GBASIC = "gbasic"
    WILSON = "wilson"
    RACAH = "racah"
    AW = "aw"
    QRACAH = "qracah"
    JACOBI = "jacobi"


Q_FAMILIES = frozenset({Family.GBASIC, Family.AW, Family.QRACAH})
FOUR_PARAM_FAMILIES = frozenset({Family.WILSON, Family.RACAH, Family.AW, Family.QRACAH})
#: families whose zero dynamics run in a lifted variable
LIFTED_FAMILIES = frozenset({Family.WILSON, Family.RACAH})


@dataclass(frozen=True)
class FamilySpec:
    """One polynomial instance: family tag, degree, parameters, optional base."""

    family: Family
    N: int
    alphas: tuple = ()
    betas: tuple = ()
    q: Optional[complex] = None


def make_spec(family, N, alphas=(), betas=(), q=None) -> FamilySpec:
    fam = Family(family)
    return FamilySpec(
        family=fam,
        N=int(N),
        alphas=tuple(complex(a) for a in alphas),
        betas=tuple(complex(b) for b in betas),
        q=None if q is None else complex(q),
    )


def racah_theta(spec: FamilySpec) -> complex:
    g, d = spec.alphas[2], spec.alphas[3]
    return (g + d + 1.0) / 2.0


@lru_cache(maxsize=512)
def jacobi_to_ghyp(spec: FamilySpec) -> FamilySpec:
    """The ghyp instance whose zeros are 2/(1 - x_n) for Jacobi zeros x_n."""
    al, be = spec.alphas
    return make_spec(Family.GHYP, spec.N, alphas=(spec.N + al + be + 1.0,), betas=(al + 1.0,))


def closed_form_spectrum(spec: FamilySpec) -> EigenMultiset:
    """The closed-form eigenvalues lambda_1..lambda_N of the family's isospectral matrix.

    They are also the diagonal of the coefficient system (`dynamics.c_system`)
    and lambda_N is the eigenvalue of the defining equation.  The spec is not
    validated, so a rate can be read where the construction itself degenerates.
    """
    if spec.family == Family.JACOBI:
        return closed_form_spectrum(jacobi_to_ghyp(spec))
    N, fam = spec.N, spec.family
    if fam == Family.GBASIC:
        q = spec.q
        r, s = len(spec.alphas), len(spec.betas)
        lam = []
        for m in range(1, N + 1):
            rate = -(q ** float((s - r) * (N - m))) * (q ** float(-m) - 1.0)
            for al in spec.alphas:
                rate *= al * q ** (N - m) - 1.0
            lam.append(rate)
        return EigenMultiset(values=np.array(lam, dtype=complex))
    m = np.arange(1, N + 1, dtype=complex)
    if fam == Family.GHYP:
        lam = m.copy()
        for be in spec.betas:
            lam *= be - 1.0 + m
    elif fam == Family.WILSON:
        lam = m * (2 * N - m + sum(spec.alphas) - 1.0)
    elif fam == Family.RACAH:
        al, be = spec.alphas[0], spec.alphas[1]
        lam = m * (m - 2 * N - al - be - 1.0)
    elif fam == Family.AW:
        q = spec.q
        prod = np.prod(spec.alphas)
        lam = q ** float(-N) * (1.0 - q**m) * (1.0 - prod * q ** (2 * N - 1 - m))
    elif fam == Family.QRACAH:
        q = spec.q
        ab = spec.alphas[0] * spec.alphas[1]
        lam = q ** float(-N) * (1.0 - q**m) * (1.0 - ab * q ** (2 * N - m + 1))
    else:
        raise InvalidParameters(f"no spectrum formula for {fam!r}")
    return EigenMultiset(values=np.asarray(lam, dtype=complex))


def validate_spec(spec: FamilySpec) -> None:
    """Raise InvalidParameters unless the construction's denominators are safe.

    Rejections mirror the "after appropriate cancellations the denominators do
    not vanish" convention: only symbols that actually survive in a denominator
    (or in the leading coefficient) are checked.
    """
    if not isinstance(spec.family, Family):
        raise InvalidParameters(f"unknown family {spec.family!r}")
    if spec.N < 1:
        raise InvalidParameters("N must be >= 1")
    fam = spec.family
    if fam in Q_FAMILIES:
        if spec.q is None:
            raise InvalidParameters(f"{fam.value} requires a base q")
        if abs(spec.q - 1.0) <= 1e-9 or abs(spec.q) < 1e-12:
            raise InvalidParameters("base q must stay away from 0 and 1")
    elif spec.q is not None:
        raise InvalidParameters(f"{fam.value} takes no base q")
    if fam in FOUR_PARAM_FAMILIES and len(spec.alphas) != 4:
        raise InvalidParameters(f"{fam.value} needs exactly 4 parameters")
    if fam in FOUR_PARAM_FAMILIES and spec.betas:
        raise InvalidParameters(f"{fam.value} takes no beta parameters")
    if fam == Family.JACOBI and len(spec.alphas) != 2:
        raise InvalidParameters("jacobi needs exactly (alpha, beta)")
    N, q = spec.N, spec.q

    def poch_ok(base, count, label):
        for i in range(count):
            if abs(base + i) < PARAM_POLE_TOL:
                raise InvalidParameters(f"{label}: factor ({base} + {i}) vanishes")

    def qpoch_ok(base, count, label):
        g = complex(base)
        for i in range(count):
            if abs(1.0 - g) < QPARAM_POLE_TOL * max(1.0, abs(g)):
                raise InvalidParameters(f"{label}: factor (1 - {base} q^{i}) vanishes")
            g *= q

    if fam == Family.GHYP:
        for k, be in enumerate(spec.betas):
            poch_ok(be, N, f"beta_{k + 1}")
    elif fam == Family.GBASIC:
        qpoch_ok(q, N, "(q; q)_m")
        for k, be in enumerate(spec.betas):
            qpoch_ok(be, N, f"(beta_{k + 1}; q)_m")
    elif fam == Family.WILSON:
        a, b, c, d = spec.alphas
        for u, lbl in ((a + b, "a+b"), (a + c, "a+c"), (a + d, "a+d")):
            poch_ok(u, N, f"({lbl})_N")
        poch_ok(N + a + b + c + d - 1.0, N, "(N+a+b+c+d-1)_N")
    elif fam == Family.RACAH:
        al, be, ga, de = spec.alphas
        poch_ok(al + 1.0, N, "(alpha+1)_n")
        poch_ok(be + de + 1.0, N, "(beta+delta+1)_n")
        poch_ok(ga + 1.0, N, "(gamma+1)_n")
        poch_ok(N + al + be + 1.0, N, "(N+alpha+beta+1)_N")
    elif fam == Family.AW:
        a, b, c, d = spec.alphas
        if abs(a) < 1e-12:
            raise InvalidParameters("askey-wilson needs a != 0")
        qpoch_ok(q, N, "(q; q)_m")
        for u, lbl in ((a * b, "ab"), (a * c, "ac"), (a * d, "ad")):
            qpoch_ok(u, N, f"({lbl}; q)_N")
        qpoch_ok(a * b * c * d * q ** (N - 1), N, "(abcd q^(N-1); q)_N")
    elif fam == Family.QRACAH:
        al, be, ga, de = spec.alphas
        qpoch_ok(q, N, "(q; q)_m")
        qpoch_ok(al * q, N, "(alpha q; q)_m")
        qpoch_ok(be * de * q, N, "(beta delta q; q)_m")
        qpoch_ok(ga * q, N, "(gamma q; q)_m")
        qpoch_ok(al * be * q ** (N + 1), N, "(alpha beta q^(N+1); q)_N")
    elif fam == Family.JACOBI:
        al, be = spec.alphas
        poch_ok(N + al + be + 1.0, N, "(N+alpha+beta+1)_N")


def build_polynomial(spec: FamilySpec) -> Poly:
    """The degree-N polynomial of `spec` in its natural variable.

    The monomial expansion of the term table, accumulated in double-double
    and rounded once per coefficient.  ghyp output is exactly monic (the
    m = 0 term is z^N with coefficient 1); the other families keep their
    textbook normalization.
    """
    validate_spec(spec)
    p = Poly(_expansion(spec)[1])
    if p.degree != spec.N:
        raise InvalidParameters(
            f"leading coefficient degenerates: degree {p.degree} != N = {spec.N}"
        )
    return p


def _term_table(spec: FamilySpec):
    """Per-term (prefactor, linear factors) of the family sum, in compensated form.

    Every term of each explicit sum is pref * prod_s (A_s + B_s * z) for
    family-specific constants; the table holds them as complex double-doubles
    so evaluation keeps ~30 significant digits through the cancellation.
    """
    N = spec.N
    fam = spec.family
    one = ddc(1.0)

    table = []
    if fam == Family.GHYP:
        for m in range(N + 1):
            num = ddc_pochhammer(ddc(-N), m)
            for al in spec.alphas:
                num = ddc_mul(num, ddc_pochhammer(ddc(al), m))
            den = ddc(float(math.factorial(m)))
            for be in spec.betas:
                den = ddc_mul(den, ddc_pochhammer(ddc(be), m))
            table.append((ddc_div(num, den), ((ddc(0.0), one),) * (N - m)))
    elif fam == Family.GBASIC:
        qd = ddc(spec.q)
        r, s = len(spec.alphas), len(spec.betas)
        for m in range(N + 1):
            num = ddc_q_pochhammer(ddc_powi(qd, -N), qd, m)
            for al in spec.alphas:
                num = ddc_mul(num, ddc_q_pochhammer(ddc(al), qd, m))
            den = ddc_q_pochhammer(qd, qd, m)
            for be in spec.betas:
                den = ddc_mul(den, ddc_q_pochhammer(ddc(be), qd, m))
            pref = ddc_div(num, den)
            sign = (-1.0) ** (m * (s - r))
            pref = ddc_mul(pref, ddc(sign))
            pref = ddc_mul(pref, ddc_powi(qd, (m * (m - 1) // 2) * (s - r)))
            table.append((pref, ((ddc(0.0), one),) * m))
    elif fam == Family.WILSON:
        a, b, c, d = spec.alphas
        sig = ddc_add(ddc_add(ddc(a), ddc(b)), ddc_add(ddc(c), ddc(d)))
        pair_sums = [ddc_add(ddc(a), ddc(u)) for u in (b, c, d)]
        for k in range(N + 1):
            pref = ddc_mul(ddc_pochhammer(ddc(-N), k), ddc_pochhammer(ddc_add(sig, ddc(N - 1)), k))
            pref = ddc_div(pref, ddc(float(math.factorial(k))))
            for u in pair_sums:
                pref = ddc_mul(pref, ddc_pochhammer(ddc_add(u, ddc(k)), N - k))
            factors = []
            for i in range(k):
                t = ddc_add(ddc(a), ddc(i))
                factors.append((ddc_mul(t, t), one))
            table.append((pref, tuple(factors)))
    elif fam == Family.RACAH:
        al, be, ga, de = spec.alphas
        gd1 = ddc_add(ddc_add(ddc(ga), ddc(de)), one)
        nab1 = ddc_add(ddc_add(ddc(al), ddc(be)), ddc(N + 1))
        dens = (
            ddc_add(ddc(al), one),
            ddc_add(ddc_add(ddc(be), ddc(de)), one),
            ddc_add(ddc(ga), one),
        )
        for n in range(N + 1):
            num = ddc_mul(ddc_pochhammer(ddc(-N), n), ddc_pochhammer(nab1, n))
            den = ddc(float(math.factorial(n)))
            for u in dens:
                den = ddc_mul(den, ddc_pochhammer(u, n))
            factors = []
            for s in range(n):
                a_s = ddc_add(ddc_mul(ddc(float(s)), gd1), ddc(float(s * s)))
                factors.append((a_s, ddc(-1.0)))
            table.append((ddc_div(num, den), tuple(factors)))
    elif fam == Family.AW:
        qd = ddc(spec.q)
        a, b, c, d = spec.alphas
        add = ddc(a)
        prod = ddc_mul(ddc_mul(add, ddc(b)), ddc_mul(ddc(c), ddc(d)))
        a_pow = ddc_powi(add, -N)
        for m in range(N + 1):
            num = ddc_mul(ddc_powi(qd, m), ddc_q_pochhammer(ddc_powi(qd, -N), qd, m))
            num = ddc_mul(num, ddc_q_pochhammer(ddc_mul(prod, ddc_powi(qd, N - 1)), qd, m))
            pref = ddc_mul(ddc_div(num, ddc_q_pochhammer(qd, qd, m)), a_pow)
            qm = ddc_powi(qd, m)
            for u in (ddc(b), ddc(c), ddc(d)):
                pref = ddc_mul(pref, ddc_q_pochhammer(ddc_mul(ddc_mul(add, u), qm), qd, N - m))
            factors = []
            for j in range(m):
                qj = ddc_powi(qd, j)
                a_j = ddc_add(one, ddc_mul(ddc_mul(add, add), ddc_mul(qj, qj)))
                b_j = ddc_mul(ddc(-2.0), ddc_mul(add, qj))
                factors.append((a_j, b_j))
            table.append((pref, tuple(factors)))
    elif fam == Family.QRACAH:
        qd = ddc(spec.q)
        al, be, ga, de = spec.alphas
        gd = ddc_mul(ddc(ga), ddc(de))
        for m in range(N + 1):
            num = ddc_mul(ddc_powi(qd, m), ddc_q_pochhammer(ddc_powi(qd, -N), qd, m))
            ab_q = ddc_mul(ddc_mul(ddc(al), ddc(be)), ddc_powi(qd, N + 1))
            num = ddc_mul(num, ddc_q_pochhammer(ab_q, qd, m))
            den = ddc_q_pochhammer(qd, qd, m)
            for u in (ddc(al), ddc_mul(ddc(be), ddc(de)), ddc(ga)):
                den = ddc_mul(den, ddc_q_pochhammer(ddc_mul(u, qd), qd, m))
            factors = []
            for s in range(m):
                a_s = ddc_add(one, ddc_mul(gd, ddc_powi(qd, 2 * s + 1)))
                factors.append((a_s, ddc_neg(ddc_powi(qd, s))))
            table.append((ddc_div(num, den), tuple(factors)))
    elif fam == Family.JACOBI:
        al, be = spec.alphas
        half = (ddc(0.5), ddc(-0.5))
        nab1 = ddc_add(ddc_add(ddc(al), ddc(be)), ddc(N + 1))
        for m in range(N + 1):
            num = ddc_mul(ddc_pochhammer(ddc(-N), m), ddc_pochhammer(nab1, m))
            num = ddc_mul(num, ddc_pochhammer(ddc_add(ddc(al), ddc(m + 1)), N - m))
            den = ddc(float(math.factorial(m) * math.factorial(N)))
            table.append((ddc_div(num, den), (half,) * m))
    else:
        raise InvalidParameters(f"no structured evaluation for {fam!r}")
    return tuple(table)


@lru_cache(maxsize=512)
def _expansion(spec: FamilySpec):
    """(double-double coefficients, their rounded doubles, magnitudes M_k) of the sum."""
    coeffs, mags = ddc_expand(_term_table(spec), spec.N)
    return tuple(coeffs), tuple(ddc_to_complex(c) for c in coeffs), tuple(mags)


def structured_eval(spec: FamilySpec, z):
    """(value, derivative, error bound) of the family sum at scalar z.

    Double-double Horner on the unrounded expansion gives the value (the
    q-top sums cancel by 10 digits and more at N = 8); plain Horner on the rounded
    coefficients gives the derivative, which only steers Newton.  The bound
    on |value - sum| is compensated Horner's (Graillat, Langlois & Louvet
    2005): c 2^-104 sum_k M_k |z|^k, M_k from `ddc_expand`, plus 2^-53 |value|
    for the final rounding.  c = 3N counts a coefficient's roundings: N
    factor products and N + 1 term sums, then N Horner steps.  Near the
    zeros of 384 safe-box draws at N = 9..12, c = 1 came within 1.15x of the
    true error (120-digit reference) and c = 3N stayed 36x above it.
    """
    coeffs, rounded, mags = _expansion(spec)
    z = complex(z)
    zdd, az = ddc(z), abs(z)
    val, p, dval, mag = coeffs[-1], rounded[-1], 0.0j, mags[-1]
    for c, r, m in zip(coeffs[-2::-1], rounded[-2::-1], mags[-2::-1]):
        val = ddc_add(ddc_mul(val, zdd), c)
        dval = dval * z + p
        p = p * z + r
        mag = mag * az + m
    value = ddc_to_complex(val)
    return value, dval, 3 * spec.N * _DD_UNIT * mag + 2.0**-53 * abs(value)


def refine_zeros(spec: FamilySpec, roots: np.ndarray):
    """Newton-polish roots against the structured evaluation.

    Each root iterates until its relative Newton step |p/p'| / (1 + |z|)
    falls below rounding level in z (the root is then accurate to the last
    representable digit), or stops shrinking once it is within a few ulps
    (the iterate then alternates between neighbouring doubles), or
    REFINE_STEPS steps are taken.  Returns the refined roots plus the worst
    relative forward-error estimate: per root, the larger of that last step
    and the evaluation's error bound carried to z, bound / |p'| / (1 + |z|).
    """
    out = np.array(roots, dtype=complex)
    worst = 0.0
    eps = np.finfo(float).eps
    for i, z in enumerate(out):
        prev = np.inf
        for k in range(REFINE_STEPS + 1):
            val, dval, bound = structured_eval(spec, z)
            if abs(dval) < _TINY:
                fe = np.inf
                break
            step = val / dval
            fe = abs(step) / (1.0 + abs(z))
            if k == REFINE_STEPS or fe <= 0.25 * eps or (fe <= 2.0 * eps and fe > 0.5 * prev):
                fe = max(fe, bound / abs(dval) / (1.0 + abs(z)))
                break
            z = z - step
            prev = fe
        out[i] = z
        worst = max(worst, fe)
    return out, worst


def compute_zeros(spec: FamilySpec) -> ZeroSet:
    """Zeros in the family's natural variable, sorted by (re, im).

    Roots come from `poly_roots` on the rounded coefficients, then are
    polished against the structured sum (which keeps the digits the rounding
    cancels); max_poly_residual on the result is `refine_zeros`' worst
    relative forward-error estimate, and above ZERO_TOL raises NonConvergence.
    Raises RepeatedZeros when the minimal pairwise separation drops below
    ZERO_SEP_REL times the zero scale; every downstream construction assumes
    distinct zeros.
    """
    zs = poly_roots(build_polynomial(spec))
    refined, worst = refine_zeros(spec, zs.zeros)
    if worst > ZERO_TOL:
        raise NonConvergence(
            f"zero forward-error estimate {worst:.3e} > tol {ZERO_TOL:.1e} after refinement"
        )
    refined = refined[np.lexsort((refined.imag, refined.real))]
    out = ZeroSet(zeros=refined, min_separation=min_separation(refined), max_poly_residual=worst)
    scale = max(1.0, float(np.max(np.abs(out.zeros))))
    if out.min_separation < ZERO_SEP_REL * scale:
        raise RepeatedZeros(
            f"min zero separation {out.min_separation:.3e} below {ZERO_SEP_REL:.0e} * scale"
        )
    return out


def _sqrt_off_noise(w: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Principal square root, reading an Im(w) at rounding level of `scale` as +0.

    A real zero carries imaginary rounding noise of either sign; on the
    negative axis that noise alone would choose the branch of the root.
    """
    noise = np.abs(w.imag) <= REAL_AXIS_REL * scale
    return np.sqrt(np.where(noise, w.real + 0j, w))


def lift_zero_variables(spec: FamilySpec, zs: ZeroSet) -> ZeroSet:
    """Map natural-variable zeros to the lifted variable of the family.

    wilson:  x_n = sqrt(z_n);  racah:  y_n = sqrt(z_n + theta^2);
    aw:      z_n = x_n + sqrt(x_n^2 - 1);
    qracah:  the 2N companion values z_n^(+), z_n^(-), concatenated.
    """
    z = zs.zeros
    fam = spec.family
    if fam == Family.WILSON:
        if np.any(np.abs(z) < BRANCH_TOL):
            raise BranchPoint("wilson lift needs z_n != 0")
        lifted = _sqrt_off_noise(z.astype(complex), np.abs(z))
    elif fam == Family.RACAH:
        t2 = racah_theta(spec) ** 2
        if np.any(np.abs(z + t2) < BRANCH_TOL):
            raise BranchPoint("racah lift needs z_n + theta^2 != 0")
        lifted = _sqrt_off_noise(z + t2, np.abs(z) + abs(t2))
    elif fam == Family.AW:
        lifted = z + np.sqrt(z * z - 1.0)
    elif fam == Family.QRACAH:
        gdq4 = 4.0 * spec.alphas[2] * spec.alphas[3] * spec.q
        if np.any(np.abs(z * z - gdq4) < BRANCH_TOL):
            raise BranchPoint("qracah shift hits the square-root branch point")
        zp = np.array([qracah_shift(spec, v, +1) for v in z])
        zm = np.array([qracah_shift(spec, v, -1) for v in z])
        lifted = np.concatenate([zp, zm])
    else:
        raise InvalidParameters(f"no lifted variable for family {fam.value}")
    return ZeroSet(
        zeros=lifted,
        min_separation=min_separation(lifted),
        max_poly_residual=zs.max_poly_residual,
    )


# ---------------------------------------------------------------------------
# Scalar coefficient functions of the difference / q-difference equations.
# All of these accept complex or Dual arguments.
# ---------------------------------------------------------------------------

@lru_cache(maxsize=512)
def wilson_sym(spec: FamilySpec):
    """Elementary symmetric functions (sigma1..sigma4) of (a, b, c, d)."""
    a, b, c, d = spec.alphas
    s1 = a + b + c + d
    s2 = a * b + a * c + a * d + b * c + b * d + c * d
    s3 = b * c * d + a * c * d + a * b * d + a * b * c
    s4 = a * b * c * d
    return s1, s2, s3, s4


def wilson_D(spec: FamilySpec, x):
    """Quartic D(x) = s4 + i s3 x - s2 x^2 - i s1 x^3 + x^4."""
    s1, s2, s3, s4 = wilson_sym(spec)
    return s4 + 1j * s3 * x - s2 * x * x - 1j * s1 * x**3 + x**4


def wilson_B(spec: FamilySpec, x):
    """B(x) = (a+ix)(b+ix)(c+ix)(d+ix) / (2ix (2ix+1)); numerator equals D(x)."""
    return wilson_D(spec, x) / (2j * x * (2j * x + 1.0))


def racah_Dtilde(spec: FamilySpec, y):
    al, be, ga, de = spec.alphas
    num = (
        (2.0 * y + ga + de + 1.0)
        * (2.0 * y + ga - de + 1.0)
        * (2.0 * y + 2.0 * al - ga - de + 1.0)
        * (2.0 * y + 2.0 * be - ga + de + 1.0)
    )
    return num / (32.0 * y * (2.0 * y + 1.0))


def aw_D(spec: FamilySpec, z):
    a, b, c, d = spec.alphas
    q = spec.q
    z2 = z * z
    return ((1.0 - a * z) * (1.0 - b * z) * (1.0 - c * z) * (1.0 - d * z)) / (
        (1.0 - z2) * (1.0 - q * z2)
    )


def aw_G(spec: FamilySpec, z):
    return aw_D(spec, z) * (spec.q * z - 1.0 / z)


def aw_K(q, zn, zm):
    return ((zm - q * zn) * (q * zn * zm - 1.0)) / ((zm - zn) * (zn * zm - 1.0))


def qracah_Z(spec: FamilySpec, z):
    """Z = q^x = (z + sqrt(z^2 - 4 gamma delta q)) / (2 gamma delta q)."""
    gd = spec.alphas[2] * spec.alphas[3]
    return (z + dsqrt(z * z - 4.0 * gd * spec.q)) / (2.0 * gd * spec.q)


def qracah_B(spec: FamilySpec, z):
    al, be, ga, de = spec.alphas
    q = spec.q
    Z = qracah_Z(spec, z)
    Z2 = Z * Z
    gd = ga * de
    num = (1.0 - al * q * Z) * (1.0 - be * de * q * Z) * (1.0 - ga * q * Z) * (1.0 - gd * q * Z)
    return num / ((1.0 - gd * q * Z2) * (1.0 - gd * q * q * Z2))


def qracah_D(spec: FamilySpec, z):
    al, be, ga, de = spec.alphas
    q = spec.q
    Z = qracah_Z(spec, z)
    Z2 = Z * Z
    gd = ga * de
    num = q * (1.0 - Z) * (1.0 - de * Z) * (be - ga * Z) * (al - gd * Z)
    return num / ((1.0 - gd * Z2) * (1.0 - gd * q * Z2))


def qracah_shift(spec: FamilySpec, z, sign: int):
    """z^(+-) = z(x +- 1) = q^(+-1) z +- (1-q^2)/(2q) [z - sqrt(z^2 - 4 gamma delta q)]."""
    q = spec.q
    gd = spec.alphas[2] * spec.alphas[3]
    root = dsqrt(z * z - 4.0 * gd * q)
    return q ** float(sign) * z + sign * (1.0 - q * q) / (2.0 * q) * (z - root)


# ---------------------------------------------------------------------------
# Defining-equation residuals
# ---------------------------------------------------------------------------

def _normalized(terms) -> complex:
    terms = np.asarray(terms, dtype=complex)
    scale = float(np.max(np.abs(terms)))
    return complex(np.sum(terms) / max(scale, _TINY))


def _ghyp_operator_halves(spec: FamilySpec, poly: Poly):
    """The two halves of the hypergeometric ODE applied to `poly`, as Polys.

    D_N acts diagonally on coefficients: z^m -> (m - N) z^m, so both operator
    products reduce to per-coefficient multipliers followed by d/dz on the
    second half.
    """
    N = spec.N
    c = poly.padded(poly.degree + 1)
    m = np.arange(len(c))
    x = m - N
    mult1 = x.astype(complex)
    for be in spec.betas:
        mult1 *= be - 1.0 - x
    first = Poly(c * mult1)
    mult2 = np.ones(len(c), dtype=complex)
    for al in spec.alphas:
        mult2 *= al - x
    second = Poly(c * mult2).deriv()
    return first, second


def _gbasic_operator_halves(spec: FamilySpec, poly: Poly):
    N, q = spec.N, spec.q
    r, s = len(spec.alphas), len(spec.betas)
    c = poly.padded(poly.degree + 1)
    m = np.arange(len(c))
    qm = q ** m.astype(float)
    mult1 = (qm - 1.0).astype(complex)
    for be in spec.betas:
        mult1 *= be / q * qm - 1.0
    first = Poly(c * mult1)
    mult2 = (q ** (-float(N)) * qm - 1.0).astype(complex)
    for al in spec.alphas:
        mult2 *= al * qm - 1.0
    mult2 *= qm ** (s - r)
    second = Poly(np.concatenate([[0.0], c * mult2]))  # the overall factor z
    return first, second


def _check_not_singular(dists, what):
    if min(dists) < SINGULAR_RADIUS:
        raise SingularSample(f"sample within {SINGULAR_RADIUS:g} of a {what} pole")


def defining_equation_residual(spec: FamilySpec, sample, poly: Optional[Poly] = None):
    """LHS of the family's defining (q-)difference/differential equation at `sample`.

    The equation is evaluated on `poly` (default: the built polynomial, which
    solves it by construction), split into its top-level additive terms, and
    the sum is returned normalized by the largest term magnitude.  `sample`
    lives in the residual variable: z for ghyp/gbasic/aw/qracah, x for wilson,
    y for racah, and z = 2/(1-x) on the mapped ghyp equation for jacobi.
    """
    fam = spec.family
    s = complex(sample)
    if fam == Family.JACOBI:
        return defining_equation_residual(jacobi_to_ghyp(spec), s, poly)
    _probe_singular(spec, s)
    # structured form by default: immune to the monomial expansion's cancellation
    value = poly if poly is not None else (lambda u: structured_eval(spec, u)[0])

    if fam in (Family.GHYP, Family.GBASIC):
        halves = _ghyp_operator_halves if fam == Family.GHYP else _gbasic_operator_halves
        first, second = halves(spec, poly if poly is not None else build_polynomial(spec))
        return _normalized([first(s), -second(s)])

    lam = closed_form_spectrum(spec).values[-1]
    if fam == Family.WILSON:
        w = lambda x: value(x * x)
        terms = [
            wilson_B(spec, -s) * (w(s) - w(s + 1j)),
            wilson_B(spec, s) * (w(s) - w(s - 1j)),
            lam * w(s),
        ]
        return _normalized(terms)

    if fam == Family.RACAH:
        t2 = racah_theta(spec) ** 2
        qt = lambda y: value(y * y - t2)
        terms = [
            racah_Dtilde(spec, s) * (qt(s + 1.0) - qt(s)),
            racah_Dtilde(spec, -s) * (qt(s - 1.0) - qt(s)),
            lam * qt(s),
        ]
        return _normalized(terms)

    if fam == Family.AW:
        q = spec.q
        Q = lambda z: value((z * z + 1.0) / (2.0 * z))
        terms = [
            lam * Q(s),
            aw_D(spec, s) * (Q(s) - Q(q * s)),
            aw_D(spec, 1.0 / s) * (Q(s) - Q(s / q)),
        ]
        return _normalized(terms)

    if fam == Family.QRACAH:
        zp = qracah_shift(spec, s, +1)
        zm = qracah_shift(spec, s, -1)
        terms = [
            qracah_B(spec, s) * (value(zp) - value(s)),
            qracah_D(spec, s) * (value(zm) - value(s)),
            -lam * value(s),
        ]
        return _normalized(terms)

    raise InvalidParameters(f"no defining equation for family {fam.value}")


def residual_samples(spec: FamilySpec, count: int, rng: np.random.Generator) -> np.ndarray:
    """Non-singular samples in the annulus 0.3 <= |.| <= 2 of the residual variable."""
    out = []
    while len(out) < count:
        s = rng.uniform(0.3, 2.0) * np.exp(2j * np.pi * rng.uniform())
        try:
            _probe_singular(spec, s)
        except SingularSample:
            continue
        out.append(s)
    return np.array(out)


def _probe_singular(spec: FamilySpec, s: complex) -> None:
    fam = spec.family
    if fam == Family.WILSON:
        _check_not_singular([abs(s), abs(s - 0.5j), abs(s + 0.5j)], "wilson B(x)")
    elif fam == Family.RACAH:
        _check_not_singular([abs(s), abs(s - 0.5), abs(s + 0.5)], "racah Dtilde(y)")
    elif fam == Family.AW:
        q = spec.q
        _check_not_singular(
            [abs(s), abs(s * s - 1.0), abs(q * s * s - 1.0), abs(s * s - q)], "askey-wilson D(z)"
        )
    elif fam == Family.QRACAH:
        ga, de = spec.alphas[2], spec.alphas[3]
        gd = ga * de
        q = spec.q
        if abs(s * s - 4.0 * gd * q) < SINGULAR_RADIUS:
            raise SingularSample("sample at the q-racah square-root branch point")
        Z2 = qracah_Z(spec, s) ** 2
        _check_not_singular(
            [abs(1.0 - gd * q * Z2), abs(1.0 - gd * q * q * Z2), abs(1.0 - gd * Z2)], "q-racah B/D"
        )


def max_defining_residual(spec: FamilySpec, count: int = 10, seed: int = 0) -> float:
    """Max |normalized residual| over `count` seeded random samples.

    ghyp and gbasic (jacobi through ghyp) act on the coefficients: their
    polynomial is built once for all samples.  The other families evaluate
    the structured sum, since their residuals cancel below coefficient rounding.
    """
    base = jacobi_to_ghyp(spec) if spec.family == Family.JACOBI else spec
    poly = build_polynomial(base) if base.family in (Family.GHYP, Family.GBASIC) else None
    rng = np.random.default_rng(seed)
    samples = residual_samples(base, count, rng)
    return max(abs(defining_equation_residual(base, s, poly)) for s in samples)


def q_to_one_limit_check(spec: FamilySpec, q_near_1: float) -> float:
    """Coefficient deviation between the q-deformed and plain hypergeometric sums.

    `spec` is a ghyp-style instance whose alphas/betas act as exponents: the
    basic side uses parameters q^alpha_j, q^beta_k and argument scaled by
    (q-1)^(s-r).  Both sides are the term-table prefactors of the ghyp and
    gbasic sums.  Returns max_m |phi_m - F_m| / max(1, max|F_m|), which is
    O(|q-1|).  N = 0 is allowed here (both sides are the constant 1).
    """
    if not (0.0 < abs(q_near_1 - 1.0) <= 0.01):
        raise InvalidParameters("q must satisfy 0 < |q-1| <= 0.01")
    N = spec.N
    r, s = len(spec.alphas), len(spec.betas)
    q = float(q_near_1)
    basic_alphas = [q ** complex(a) for a in spec.alphas]
    basic_betas = [q ** complex(b) for b in spec.betas]
    plain = _term_table(make_spec(Family.GHYP, N, spec.alphas, spec.betas))
    basic = _term_table(make_spec(Family.GBASIC, N, basic_alphas, basic_betas, q))
    f_side = np.array([ddc_to_complex(pref) for pref, _ in plain])
    phi_side = np.array(
        [ddc_to_complex(pref) * (q - 1.0) ** ((s - r) * m) for m, (pref, _) in enumerate(basic)]
    )
    dev = np.max(np.abs(phi_side - f_side))
    return float(dev / max(1.0, float(np.max(np.abs(f_side)))))
