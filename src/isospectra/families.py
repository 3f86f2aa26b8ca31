"""Polynomial families and their defining equations.

Wilson, Racah, Askey-Wilson and q-Racah are written once, as three-term
recurrences (`recurrence`); ghyp, gbasic and Jacobi as explicit sums in
nested form sum_d w_d prod_{s<d} (A_s + B_s z) (`_term_table`).  Either
becomes unrounded monomial coefficients once per spec (`_expansion`);
`build_polynomial` rounds them; the structured evaluation (zero refinement,
defining-equation residuals) runs double-double Horner on them with an
error bound, so coefficients that cancel past double-double precision fail
the refinement instead of giving wrong zeros.
The ghyp/gbasic operator is written once as well, as its multipliers on
z^k (`operator_multipliers`): they give the closed-form spectrum, the
coefficient system (`dynamics.c_system`) and the defining equation.

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
from functools import lru_cache, reduce
from typing import NamedTuple, Optional

import numpy as np
import numpy.polynomial.polynomial as npp

from .errors import (
    BranchPoint,
    DegenerateInput,
    InvalidParameters,
    NonConvergence,
    RepeatedZeros,
    SingularDenominator,
    SingularSample,
)
from .numeric import (
    DEGREE_REL,
    ZeroSet,
    companion_eigvals,
    ddc,
    ddc_add,
    ddc_div,
    ddc_expand,
    ddc_horner,
    ddc_mul,
    ddc_neg,
    ddc_pochhammers,
    ddc_powi,
    ddc_products,
    ddc_q_pochhammers,
    ddc_to_complex,
    dsqrt,
    full_degree,
    min_separation,
    re_im_key,
)

_TINY = 1e-300
_DD_UNIT = 2.0**-104       # relative rounding of one double-double operation
_EPS = 2.0**-52            # double machine epsilon
PARAM_POLE_TOL = 1e-10     # plain Pochhammer validity margin
QPARAM_POLE_TOL = 1e-12    # q-Pochhammer validity margin
ZERO_SEP_REL = 1e-8        # distinctness threshold, relative to zero scale
ZERO_TOL = 1e-12           # largest accepted relative forward-error estimate of a zero
REFINE_STEPS = 12          # Newton-step cap of the structured refinement
BRANCH_TOL = 1e-10
REAL_AXIS_REL = 8 * 2.0**-52  # Im below this share of the operands' size is rounding noise
SINGULAR_RADIUS = 1e-3     # exclusion radius around defining-equation poles
DEFINING_SAMPLES = 10      # samples of max_defining_residual


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


def operator_multipliers(spec: FamilySpec, ks) -> tuple:
    """(diagonal, lowering) multipliers of the ghyp/gbasic operator on z^k, for k in `ks`.

    The operator maps z^k to diagonal_k z^k + lowering_k z^(k-1), so its
    defining equation on sum_k a_k z^k reads
    sum_k a_k (diagonal_k z^k + lowering_k z^(k-1)) = 0.  With x = k - N and
    Q = q^k,

      ghyp    diagonal = -x prod(beta - 1 - x)               lowering = k prod(alpha - x)
      gbasic  diagonal = -q^((s-r)k) (q^(k-N) - 1) prod(alpha Q - 1)
              lowering = (Q - 1) prod(beta q^(k-1) - 1)

    The same operator gives the closed-form spectrum, lambda_m = diagonal at
    k = N - m, and the coefficient system (`dynamics.c_system`), whose
    sub-diagonal and drive are lowering at k = N + 1 - m.  ghyp multiplies
    on numpy arrays; gbasic on Python complex scalars, whose integer powers
    of q are repeated products.
    """
    N = spec.N
    if spec.family == Family.GHYP:
        k = np.asarray(ks)
        m = (N - k).astype(complex)
        diagonal = m.copy()
        for be in spec.betas:
            diagonal *= be - 1.0 + m
        lowering = k.astype(complex)
        for al in spec.alphas:
            lowering *= al - 1.0 + (N + 1 - k)
        return diagonal, lowering
    q = spec.q
    r, s = len(spec.alphas), len(spec.betas)
    diagonal, lowering = [], []
    for k in ks:
        rate = -(q ** float((s - r) * k)) * (q ** float(k - N) - 1.0)
        for al in spec.alphas:
            rate *= al * q**k - 1.0
        low = q**k - 1.0
        for be in spec.betas:
            low *= be * q ** (k - 1) - 1.0
        diagonal.append(rate)
        lowering.append(low)
    return np.array(diagonal, dtype=complex), np.array(lowering, dtype=complex)


def closed_form_spectrum(spec: FamilySpec) -> np.ndarray:
    """The closed-form eigenvalues lambda_1..lambda_N of the family's isospectral matrix.

    They are also the diagonal of the coefficient system (`dynamics.c_system`)
    and lambda_N is the eigenvalue of the defining equation.  The spec is not
    validated, so a rate can be read where the construction itself degenerates.
    """
    if spec.family == Family.JACOBI:
        return closed_form_spectrum(jacobi_to_ghyp(spec))
    N, fam = spec.N, spec.family
    if fam in (Family.GHYP, Family.GBASIC):
        return operator_multipliers(spec, range(N - 1, -1, -1))[0]
    m = np.arange(1, N + 1, dtype=complex)
    if fam == Family.WILSON:
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
    return np.asarray(lam, dtype=complex)


def _recurrence_table(spec: FamilySpec, n: int):
    """(shift, rows) of `recurrence` in complex double-double, unrounded.

    Row k also holds |shift| + |alpha_k| + |gamma_k|, the size of what beta_k sums,
    and the product of A_k's numerators.
    """
    validate_spec(spec)
    a, b, c, d = (ddc(x) for x in spec.alphas)
    fam, one, m1, q = spec.family, ddc(1.0), ddc(-1.0), None if spec.q is None else ddc(spec.q)
    add, mul = (lambda *xs: reduce(ddc_add, xs)), (lambda *xs: reduce(ddc_mul, xs))
    if q is None:
        ks = [ddc(k) for k in range(2 * n + 1)]
    else:
        qp, iq = ddc_products([q] * (2 * n)), ddc_div(one, q)  # q^0 .. q^(2n), 1/q
        lin = lambda u, j, x=one: ddc_add(x, ddc_mul(u, qp[j]))  # x + u q^j
    # KLS's shift and s, w of the denominators p_j, the constants t of the numerators of A_k and C_k
    if fam == Family.WILSON:
        t = (add(a, b), add(a, c), add(a, d), add(b, c, m1), add(b, d, m1), add(c, d, m1))
        shift, s, w = ddc_neg(mul(a, a)), -1.0, add(a, b, c, d)
    elif fam == Family.RACAH:
        t = (add(a, one), add(b, d, one), add(c, one), add(a, b, ddc_neg(c)), add(a, ddc_neg(d)), b)
        theta = mul(add(c, d, one), ddc(0.5))
        shift, s, w = mul(theta, theta), 1.0, add(a, b, ddc(2.0))
    elif fam == Family.AW:  # the factors 1 - u q^k, with -u in t
        t = [ddc_neg(mul(*x)) for x in ((a, b), (a, c), (a, d))]
        t += [ddc_neg(mul(*x, iq)) for x in ((b, c), (b, d), (c, d))] + [ddc_div(one, a)]
        shift, s, w = mul(ddc(0.5), add(a, t[6])), 0.5, mul(a, b, c, d, iq)
        num = lambda k: ([lin(u, k) for u in t[:3]] + [t[6]], [a, lin(m1, k)] + [lin(u, k) for u in t[3:6]])
    elif fam == Family.QRACAH:  # the factors x - u q^k, with -u in t
        t = [ddc_neg(x) for x in (mul(a, q), mul(b, d, q), mul(c, q), b, mul(a, b), a)]
        shift, s, w = add(one, mul(c, d, q)), 1.0, mul(a, b, q)
        num = lambda k: ([lin(u, k) for u in t[:3]],
                         [q, lin(m1, k), lin(t[3], k), lin(t[4], k, c), lin(t[5], k, d)])
    else:
        raise InvalidParameters(f"no three-term recurrence for {fam!r}")
    if q is None:
        num = lambda k: ([ddc_add(u, ks[k]) for u in t[:3]], [ks[k]] + [ddc_add(u, ks[k]) for u in t[3:]])
    tol, nw = (PARAM_POLE_TOL, None) if q is None else (QPARAM_POLE_TOL, ddc_neg(w))
    # p[m] = w + m - 2 or 1 - w q^(m-1): row k's p_j is p[2k + j] and its lead p[k + 1]
    p = [None, None] + [ddc_add(w, ks[m - 2]) if q is None else lin(nw, m - 1) for m in range(2, 2 * n + 1)]
    rows = []
    for k in range(n):
        # A_k = lead num / (p_1 p_2) and C_k = num / (p_0 p_1); at k = 0 the lead is p_1 and cancels
        dens, (num_a, num_c) = (p[2 * k : 2 * k + 3] if k else p[2:3]), num(k)
        if any(abs(ddc_to_complex(x)) < tol for x in dens):
            raise SingularDenominator(f"{fam.value} recurrence: a denominator vanishes at k = {k}")
        r, num_a = ddc_div(ddc(s), mul(*dens)), mul(*num_a)
        alpha = ddc_mul(num_a, mul(p[k + 1], dens[0], r) if k else r)
        gamma = mul(*num_c, dens[2], r) if k else ddc(0.0)
        mag_a, mag_c = abs(ddc_to_complex(alpha)), abs(ddc_to_complex(gamma))
        if mag_a == 0:
            raise SingularDenominator(f"{fam.value} recurrence: alpha_{k} vanishes")
        beta = add(shift, ddc_neg(add(alpha, gamma)))
        rows.append((alpha, beta, gamma, abs(ddc_to_complex(shift)) + mag_a + mag_c, num_a))
    return shift, rows


def recurrence(spec: FamilySpec, n: int) -> tuple:
    """(alpha, beta, gamma) for k < n of u P_k = alpha_k P_(k+1) + beta_k P_k + gamma_k P_(k-1).

    Wilson, Racah, Askey-Wilson and q-Racah in the oracle variable u (x^2,
    z + theta^2, x, z), from (u - shift) P_k = s (A_k P_(k+1) - (A_k + C_k) P_k
    + C_k P_(k-1)) of Koekoek, Lesky & Swarttouw (2010), 9.1.4, 9.2.4, 14.1.4
    and 14.2.4, P_0 = 1, rounded from double-double.  A vanishing denominator
    (but A_0's first, which cancels) or alpha_k = 0 raises SingularDenominator.
    """
    rows = _recurrence_table(spec, n)[1]
    return tuple(np.array([ddc_to_complex(x) for x in col], dtype=complex) for col in list(zip(*rows))[:3])


def validate_spec(spec: FamilySpec) -> None:
    """Raise InvalidParameters unless the construction's denominators are safe.

    Rejections mirror the "after appropriate cancellations the denominators do
    not vanish" convention: only symbols that actually survive in a denominator
    (or in the leading coefficient) are checked.  The checks run once per
    spec (`_check_spec` is cached); a rejection is not cached, so an invalid
    spec raises on every call.
    """
    # outside the cache: a plain string equals, and hashes like, its Family member
    if not isinstance(spec.family, Family):
        raise InvalidParameters(f"unknown family {spec.family!r}")
    _check_spec(spec)


@lru_cache(maxsize=512)
def _check_spec(spec: FamilySpec) -> None:
    """`validate_spec`'s checks on a spec whose family is a `Family`."""
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
    N = spec.N

    def poch_ok(base, count, label):
        for i in range(count):
            if abs(base + i) < PARAM_POLE_TOL:
                raise InvalidParameters(f"{label}: factor ({base} + {i}) vanishes")

    if fam == Family.AW and abs(spec.alphas[0]) < 1e-12:
        raise InvalidParameters("askey-wilson needs a != 0")
    if fam in Q_FAMILIES:
        for base, label in q_pole_bases(spec):
            for i, g in enumerate(q_powers(base, spec.q, N)):
                if abs(1.0 - g) < QPARAM_POLE_TOL * max(1.0, abs(g)):
                    raise InvalidParameters(f"{label}: factor (1 - {base} q^{i}) vanishes")
    elif fam == Family.GHYP:
        for k, be in enumerate(spec.betas):
            poch_ok(be, N, f"beta_{k + 1}")
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
    elif fam == Family.JACOBI:
        al, be = spec.alphas
        poch_ok(N + al + be + 1.0, N, "(N+alpha+beta+1)_N")


def q_powers(base, q, N: int):
    """base q^i for i < N, by repeated multiplication (the factors 1 - base q^i of (base; q)_N)."""
    g = complex(base)
    for _ in range(N):
        yield g
        g *= q


def q_pole_bases(spec: FamilySpec) -> list:
    """(base, label) of each q-Pochhammer denominator (base; q)_N of a q-family.

    Its factors are 1 - base q^i for i < N (`q_powers`): `validate_spec`
    rejects a spec where one vanishes, and `cli.draw_spec` redraws where one
    comes close.
    """
    q, N = spec.q, spec.N
    bases = [(q, "(q; q)_m")]
    if spec.family == Family.GBASIC:
        bases += [(be, f"(beta_{k + 1}; q)_m") for k, be in enumerate(spec.betas)]
    elif spec.family == Family.AW:
        a, b, c, d = spec.alphas
        bases += [
            (a * b, "(ab; q)_N"),
            (a * c, "(ac; q)_N"),
            (a * d, "(ad; q)_N"),
            (a * b * c * d * q ** (N - 1), "(abcd q^(N-1); q)_N"),
        ]
    elif spec.family == Family.QRACAH:
        al, be, ga, de = spec.alphas
        bases += [
            (al * q, "(alpha q; q)_m"),
            (be * de * q, "(beta delta q; q)_m"),
            (ga * q, "(gamma q; q)_m"),
            (al * be * q ** (N + 1), "(alpha beta q^(N+1); q)_N"),
        ]
    return bases


def build_polynomial(spec: FamilySpec) -> np.ndarray:
    """The N + 1 ascending coefficients of the degree-N polynomial of `spec`.

    `_expansion`'s coefficients, rounded once each.  ghyp output is exactly
    monic (the m = 0 term is z^N with coefficient 1); the other families keep
    their textbook normalization.  Raises DegenerateInput for a non-finite
    coefficient, InvalidParameters when the degree-N coefficient fails
    `full_degree`, and SingularDenominator where the recurrence divides by 0.
    """
    validate_spec(spec)
    c = np.array(_expansion(spec)[1], dtype=complex)
    if not np.all(np.isfinite(c)):
        raise DegenerateInput("non-finite polynomial coefficient")
    if not full_degree(c):
        raise InvalidParameters(
            f"leading coefficient degenerates: |c_N| <= {DEGREE_REL:g} max|c| at N = {spec.N}"
        )
    return c


def _term_table(spec: FamilySpec):
    """(weights, factors) of the ghyp, gbasic or Jacobi sum in nested form, in double-double.

    The sum is sum_d w_d prod_{s<d} (A_s + B_s z): term d is a prefactor
    times the first d factors of one shared (q-)Pochhammer product.
    Pochhammer symbols, powers of q and Jacobi's tail (alpha + m + 1)_{N-m}
    are running products: O(N) operations per table.
    """
    N, fam, one = spec.N, spec.family, ddc(1.0)
    bare_z = ((ddc(0.0), one),) * N

    if fam == Family.GBASIC:
        qd = ddc(spec.q)
        q_minus_n = ddc_q_pochhammers(ddc_div(one, ddc_products([qd] * N)[N]), qd, N)
        r, s = len(spec.alphas), len(spec.betas)
        nums = [q_minus_n] + [ddc_q_pochhammers(ddc(al), qd, N) for al in spec.alphas]
        dens = [ddc_q_pochhammers(qd, qd, N)] + [ddc_q_pochhammers(ddc(be), qd, N) for be in spec.betas]
        signs = [ddc((-1.0) ** (m * (s - r))) for m in range(N + 1)]
        # q^((s-r) m(m-1)/2) = prod_{j<m} (q^(s-r))^j
        gauss = ddc_products(ddc_products([ddc_powi(qd, s - r)] * N)[:N])
        return _weights(nums, dens, [signs, gauss]), bare_z

    facts = [ddc(float(math.factorial(m))) for m in range(N + 1)]
    minus_n = ddc_pochhammers(ddc(-N), N)
    if fam == Family.GHYP:
        nums = [minus_n] + [ddc_pochhammers(ddc(al), N) for al in spec.alphas]
        dens = [facts] + [ddc_pochhammers(ddc(be), N) for be in spec.betas]
        return _weights(nums, dens)[::-1], bare_z
    if fam == Family.JACOBI:
        al, be = spec.alphas
        nab1 = ddc_add(ddc_add(ddc(al), ddc(be)), ddc(N + 1))
        tail = ddc_products([ddc_add(ddc(al), ddc(i + 1)) for i in range(N)][::-1])[::-1]  # (al+m+1)_{N-m}
        dens = [ddc(float(math.factorial(m) * math.factorial(N))) for m in range(N + 1)]
        half = ((ddc(0.5), ddc(-0.5)),) * N
        return _weights([minus_n, ddc_pochhammers(nab1, N), tail], [dens]), half
    raise InvalidParameters(f"no term table for {fam!r}")


def _weights(nums, dens, after=()):
    """Per index m: prod_j nums[j][m] / prod_k dens[k][m], times each after[l][m] in turn."""
    out = []
    for m in range(len(dens[0])):
        w = ddc_div(reduce(ddc_mul, [p[m] for p in nums]), reduce(ddc_mul, [p[m] for p in dens]))
        out.append(reduce(ddc_mul, [p[m] for p in after], w))
    return out


def _recurrence_expansion(spec: FamilySpec):
    """(coefficients, magnitudes M_k) of the library's P_N by its three-term recurrence.

    P^_k = h alpha_0 ... alpha_(k-1) P_k obey P^_(k+1) = (u - beta_k) P^_k - alpha_(k-1)
    gamma_k P^_(k-1) on double-double coefficient vectors (Racah in z), and M_k the same
    recursion on magnitudes; h = scale / prod alpha_k makes P^_N the library's P_N.
    """
    fam = spec.family
    shift, rows = _recurrence_table(spec, spec.N)
    # the library's P_N over KLS's: (a+b)_N (a+c)_N (a+d)_N for Wilson, a^-N (ab, ac, ad; q)_N for
    # Askey-Wilson, which are the products of A_k's numerators over k < N; 1 for Racah and q-Racah
    scale = reduce(ddc_mul, [row[4] for row in rows]) if fam in (Family.WILSON, Family.AW) else ddc(1.0)
    head = ddc_div(scale, reduce(ddc_mul, [row[0] for row in rows]))
    c, m, c_prev, m_prev = [head], [abs(ddc_to_complex(head))], [], []
    for k, (_, beta, gamma, beta_mag, _) in enumerate(rows):
        if fam == Family.RACAH:  # z = u - theta^2
            beta, beta_mag = ddc_add(beta, ddc_neg(shift)), beta_mag + abs(ddc_to_complex(shift))
        nb, ng = ddc_neg(beta), ddc_neg(ddc_mul(rows[k - 1][0], gamma))  # gamma_0 = 0
        nxt = [ddc_mul(nb, c[0])] + [ddc_add(x, ddc_mul(nb, y)) for x, y in zip(c, c[1:])] + [c[-1]]
        nxt[:k] = [ddc_add(x, ddc_mul(ng, y)) for x, y in zip(nxt, c_prev)]
        m_nxt = [beta_mag * m[0]] + [x + beta_mag * y for x, y in zip(m, m[1:])] + [m[-1]]
        g = abs(ddc_to_complex(ng))
        m_nxt[:k] = [x + g * y for x, y in zip(m_nxt, m_prev)]
        c_prev, m_prev, c, m = c, m, nxt, m_nxt
    return c, m


@lru_cache(maxsize=512)
def _expansion(spec: FamilySpec):
    """(double-double coefficients, their rounded doubles, magnitudes M_k) of the polynomial.

    A term table whose factorials no longer fit a double (N >= 171, or m! N!
    for jacobi) raises DegenerateInput, as a non-finite coefficient does in
    `build_polynomial`.
    """
    recurrent = spec.family in FOUR_PARAM_FAMILIES
    try:
        coeffs, mags = _recurrence_expansion(spec) if recurrent else ddc_expand(*_term_table(spec))
    except OverflowError:
        raise DegenerateInput("non-finite polynomial coefficient") from None
    return tuple(coeffs), tuple(ddc_to_complex(c) for c in coeffs), tuple(mags)


def structured_eval(spec: FamilySpec, z):
    """(value, derivative, error bound) of the polynomial of `spec` at scalar z.

    Double-double Horner (`ddc_horner`) on the unrounded expansion gives the
    value (the q-top sums cancel by 10 digits and more at N = 8); plain
    Horner on the rounded coefficients gives the derivative, which only
    steers Newton.  The bound
    on |value - sum| is compensated Horner's (Graillat, Langlois & Louvet
    2005): c 2^-104 sum_k M_k |z|^k, M_k from `_expansion`, plus 2^-53 |value|
    for the final rounding.  c = 3N counts a coefficient's roundings: at
    most 2N in the nested multiplication (a product and a sum per factor),
    then N Horner steps.  Near the zeros of 384 safe-box draws at N = 9..12,
    c = 1 came within 1.15x of the true error (120-digit reference) and
    c = 3N stayed 36x above it (per-term expansion); on the recurrence's
    expansion, 39x above it at 2185 zeros of 328 draws at N = 2..12.
    """
    coeffs, rounded, mags = _expansion(spec)
    z = complex(z)
    az = abs(z)
    p, dval, mag = rounded[-1], 0.0j, mags[-1]
    for r, m in zip(rounded[-2::-1], mags[-2::-1]):
        dval = dval * z + p
        p = p * z + r
        mag = mag * az + m
    value = ddc_to_complex(ddc_horner(coeffs, z))
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
    out = []
    worst = 0.0
    for z in np.asarray(roots, dtype=complex).tolist():
        prev = math.inf
        for k in range(REFINE_STEPS + 1):
            val, dval, bound = structured_eval(spec, z)
            if abs(dval) < _TINY:
                fe = math.inf
                break
            step = val / dval
            fe = abs(step) / (1.0 + abs(z))
            if k == REFINE_STEPS or fe <= 0.25 * _EPS or (fe <= 2.0 * _EPS and fe > 0.5 * prev):
                fe = max(fe, bound / abs(dval) / (1.0 + abs(z)))
                break
            z = z - step
            prev = fe
        out.append(z)
        worst = max(worst, fe)
    return np.array(out, dtype=complex), worst


def compute_zeros(spec: FamilySpec) -> ZeroSet:
    """Zeros in the family's natural variable, sorted by (re, im).

    The companion eigenvalues of the rounded coefficients
    (`numeric.companion_eigvals`) go straight into `refine_zeros`, whose
    Newton on the structured sum (which keeps the digits the rounding
    cancels) is the one polish; `poly_roots`' coefficient-space polish and
    its ROOT_TOL gate serve the algebraic oracle, not this.
    max_poly_residual on the result is `refine_zeros`' worst relative
    forward-error estimate, and above ZERO_TOL raises NonConvergence.
    Raises RepeatedZeros when the minimal pairwise separation drops below
    ZERO_SEP_REL times the zero scale; every downstream construction assumes
    distinct zeros.
    """
    refined, worst = refine_zeros(spec, companion_eigvals(build_polynomial(spec))[1])
    if worst > ZERO_TOL:
        raise NonConvergence(
            f"zero forward-error estimate {worst:.3e} > tol {ZERO_TOL:.1e} after refinement"
        )
    refined = np.array(sorted(refined.tolist(), key=re_im_key), dtype=complex)
    sep = min_separation(refined)
    if sep < ZERO_SEP_REL * max(1.0, float(np.max(np.abs(refined)))):
        raise RepeatedZeros(f"min zero separation {sep:.3e} below {ZERO_SEP_REL:.0e} * scale")
    return ZeroSet(zeros=refined, max_poly_residual=worst)


def _sqrt_off_noise(w: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Principal square root, reading an Im(w) at rounding level of `scale` as +0.

    A real zero carries imaginary rounding noise of either sign; on the
    negative axis that noise alone would choose the branch of the root.
    """
    noise = np.abs(w.imag) <= REAL_AXIS_REL * scale
    return np.sqrt(np.where(noise, w.real + 0j, w))


def lift_zero_variables(spec: FamilySpec, z) -> np.ndarray:
    """Map natural-variable zeros (an array) to the lifted variable of the family.

    wilson:  x_n = sqrt(z_n);  racah:  y_n = sqrt(z_n + theta^2).  These are
    the `LIFTED_FAMILIES`, whose dynamics run in the lifted variable; the
    Askey-Wilson kernel lifts each zero itself (`aw_lift`), and q-Racah's
    kernel forms its shifts per zero (`qracah_shifts`).
    """
    z = np.asarray(z, dtype=complex)
    fam = spec.family
    if fam == Family.WILSON:
        if np.any(np.abs(z) < BRANCH_TOL):
            raise BranchPoint("wilson lift needs z_n != 0")
        return _sqrt_off_noise(z, np.abs(z))
    if fam == Family.RACAH:
        t2 = racah_theta(spec) ** 2
        if np.any(np.abs(z + t2) < BRANCH_TOL):
            raise BranchPoint("racah lift needs z_n + theta^2 != 0")
        return _sqrt_off_noise(z + t2, np.abs(z) + abs(t2))
    raise InvalidParameters(f"no lifted variable for family {fam.value}")


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


def wilson_quartic(s1, s2, s3, s4, x):
    """Quartic D(x) = s4 + i s3 x - s2 x^2 - i s1 x^3 + x^4 on the `wilson_sym`."""
    return s4 + 1j * s3 * x - s2 * x * x - 1j * s1 * x**3 + x**4


def wilson_D(spec: FamilySpec, x):
    return wilson_quartic(*wilson_sym(spec), x)


def wilson_B(spec: FamilySpec, x):
    """B(x) = (a+ix)(b+ix)(c+ix)(d+ix) / (2ix (2ix+1)); numerator equals D(x)."""
    return wilson_D(spec, x) / (2j * x * (2j * x + 1.0))


def racah_dtilde(al2, be2, ga, de, y):
    """D~(y) of the Racah difference equation, with al2 = 2 alpha and be2 = 2 beta."""
    y2 = 2.0 * y
    num = (y2 + ga + de + 1.0) * (y2 + ga - de + 1.0) * (y2 + al2 - ga - de + 1.0) * (
        y2 + be2 - ga + de + 1.0
    )
    return num / (32.0 * y * (y2 + 1.0))


def racah_Dtilde(spec: FamilySpec, y):
    al, be, ga, de = spec.alphas
    return racah_dtilde(2.0 * al, 2.0 * be, ga, de, y)


def aw_d(a, b, c, d, q, z):
    """D(z) of the Askey-Wilson q-difference equation, from the unpacked parameters."""
    z2 = z * z
    return ((1.0 - a * z) * (1.0 - b * z) * (1.0 - c * z) * (1.0 - d * z)) / (
        (1.0 - z2) * (1.0 - q * z2)
    )


def aw_lift(x):
    """z = x + sqrt(x^2 - 1), the root of X(z) = (z + 1/z) / 2 = x that the kernel uses."""
    return x + dsqrt(x * x - 1.0)


def aw_g(a, b, c, d, q, z):
    """G(z) = D(z) (q z - 1/z), from the unpacked parameters."""
    return aw_d(a, b, c, d, q, z) * (q * z - 1.0 / z)


def aw_D(spec: FamilySpec, z):
    return aw_d(*spec.alphas, spec.q, z)


class QRacahConstants(NamedTuple):
    """Per-spec constants of the q-Racah coefficient functions (`qracah_constants`)."""

    four_gdq: complex  # 4 gamma delta q, the root's offset
    two_gdq: complex   # 2 gamma delta q, Z's denominator
    q_up: complex      # z^+ = q_up z + c_up (z - root)
    c_up: complex
    q_down: complex    # z^- = q_down z + c_down (z - root)
    c_down: complex
    alq: complex       # B's factors
    bedq: complex
    gaq: complex
    gdq: complex
    gdqq: complex
    q: complex         # D's factors
    al: complex
    be: complex
    ga: complex
    de: complex
    gd: complex


@lru_cache(maxsize=512)
def qracah_constants(spec: FamilySpec) -> QRacahConstants:
    al, be, ga, de = spec.alphas
    q = spec.q
    gd = ga * de
    return QRacahConstants(
        4.0 * gd * q, 2.0 * gd * q,
        q ** 1.0, 1 * (1.0 - q * q) / (2.0 * q),
        q ** -1.0, -1 * (1.0 - q * q) / (2.0 * q),
        al * q, be * de * q, ga * q, gd * q, gd * q * q,
        q, al, be, ga, de, gd,
    )


def qracah_shifts(k: QRacahConstants, z):
    """(root, z^+, z^-) with root = sqrt(z^2 - 4 gamma delta q) and the companions
    z^(+-) = z(x +- 1) = q^(+-1) z +- (1-q^2)/(2q) [z - root]."""
    root = dsqrt(z * z - k.four_gdq)
    return root, k.q_up * z + k.c_up * (z - root), k.q_down * z + k.c_down * (z - root)


def qracah_Z(k: QRacahConstants, z, root):
    """Z = q^x = (z + root) / (2 gamma delta q), root from `qracah_shifts`."""
    return (z + root) / k.two_gdq


def qracah_companions(k: QRacahConstants, z, shifts=None):
    """(z^+, z^-, B(z), D(z)) at z, from one square root.

    B and D, the coefficients of the q-Racah q-difference equation, are
    rational in Z = q^x.  `shifts` is `qracah_shifts(k, z)` where the caller
    already has it.
    """
    _, _, _, _, _, _, alq, bedq, gaq, gdq, gdqq, q, al, be, ga, de, gd = k
    root, zp, zm = qracah_shifts(k, z) if shifts is None else shifts
    Z = qracah_Z(k, z, root)
    Z2 = Z * Z
    B = (1.0 - alq * Z) * (1.0 - bedq * Z) * (1.0 - gaq * Z) * (1.0 - gdq * Z) / (
        (1.0 - gdq * Z2) * (1.0 - gdqq * Z2)
    )
    D = q * (1.0 - Z) * (1.0 - de * Z) * (be - ga * Z) * (al - gd * Z) / (
        (1.0 - gd * Z2) * (1.0 - gdq * Z2)
    )
    return zp, zm, B, D


# ---------------------------------------------------------------------------
# Defining-equation residuals
# ---------------------------------------------------------------------------

def _normalized(terms) -> complex:
    """Sum of `terms` over the largest term magnitude, on Python complex scalars."""
    scale = max(abs(t) for t in terms)
    return sum(terms) / max(scale, _TINY)


def _check_not_singular(dists, what):
    if min(dists) < SINGULAR_RADIUS:
        raise SingularSample(f"sample within {SINGULAR_RADIUS:g} of a {what} pole")


def _defining_terms(spec: FamilySpec, poly: Optional[np.ndarray] = None):
    """s -> the top-level additive terms of the defining equation at s, for `spec`.

    Everything that does not depend on the sample is set up here once: the
    ghyp/gbasic polynomial times its `operator_multipliers`, lambda_N,
    theta^2, the q-Racah constants, the structured sum's expansion.
    Each returned call takes the solution's value at s itself once, so a
    three-term equation costs three double-double Horner passes, with no
    derivative or error bound.  It takes s and, optionally, what
    `_probe_singular` returned for s: q-Racah's shifts, so a sample's square
    root is taken once.  `poly`, ascending
    coefficients (default: the built polynomial for ghyp/gbasic, the
    structured sum otherwise), is the function the equation is applied to;
    `s` must be a Python complex in the residual variable, already checked
    by `_probe_singular`.
    """
    fam = spec.family
    if fam in (Family.GHYP, Family.GBASIC):
        c = build_polynomial(spec) if poly is None else np.asarray(poly, dtype=complex)
        diagonal, lowering = operator_multipliers(spec, range(len(c)))
        kept, lowered = c * diagonal, (c * lowering)[1:]
        return lambda s, probe=None: [
            complex(npp.polyval(s, kept)), complex(npp.polyval(s, lowered))
        ]

    # structured form by default: immune to the monomial expansion's cancellation;
    # the value alone, as `structured_eval` computes it
    if poly is None:
        coeffs = _expansion(spec)[0]
        value = lambda u: ddc_to_complex(ddc_horner(coeffs, u))
    else:
        value = lambda u: complex(npp.polyval(u, poly))
    lam = complex(closed_form_spectrum(spec)[-1])

    if fam == Family.WILSON:
        w = lambda x: value(x * x)

        def terms(s, probe=None):
            ws = w(s)
            return [
                wilson_B(spec, -s) * (ws - w(s + 1j)),
                wilson_B(spec, s) * (ws - w(s - 1j)),
                lam * ws,
            ]
        return terms

    if fam == Family.RACAH:
        t2 = racah_theta(spec) ** 2
        qt = lambda y: value(y * y - t2)

        def terms(s, probe=None):
            qs = qt(s)
            return [
                racah_Dtilde(spec, s) * (qt(s + 1.0) - qs),
                racah_Dtilde(spec, -s) * (qt(s - 1.0) - qs),
                lam * qs,
            ]
        return terms

    if fam == Family.AW:
        q = spec.q
        Q = lambda z: value((z * z + 1.0) / (2.0 * z))

        def terms(s, probe=None):
            Qs = Q(s)
            return [
                lam * Qs,
                aw_D(spec, s) * (Qs - Q(q * s)),
                aw_D(spec, 1.0 / s) * (Qs - Q(s / q)),
            ]
        return terms

    if fam == Family.QRACAH:
        k = qracah_constants(spec)

        def terms(s, probe=None):
            zp, zm, B, D = qracah_companions(k, s, probe)
            vs = value(s)
            return [B * (value(zp) - vs), D * (value(zm) - vs), -lam * vs]
        return terms

    raise InvalidParameters(f"no defining equation for family {fam.value}")


def defining_equation_residual(spec: FamilySpec, sample, poly: Optional[np.ndarray] = None):
    """LHS of the family's defining (q-)difference/differential equation at `sample`.

    The equation is evaluated on `poly` (default: the built polynomial, which
    solves it by construction), split into its top-level additive terms, and
    the sum is returned normalized by the largest term magnitude.  `sample`
    lives in the residual variable: z for ghyp/gbasic/aw/qracah, x for wilson,
    y for racah, and z = 2/(1-x) on the mapped ghyp equation for jacobi.
    """
    s = complex(sample)
    if spec.family == Family.JACOBI:
        return defining_equation_residual(jacobi_to_ghyp(spec), s, poly)
    probe = _probe_singular(spec, s)
    return _normalized(_defining_terms(spec, poly)(s, probe))


def residual_samples(spec: FamilySpec, count: int, rng: np.random.Generator) -> np.ndarray:
    """Non-singular samples in the annulus 0.3 <= |.| <= 2 of the residual variable.

    Sample k is r e^(2 pi i t), with radius r = 0.3 + 1.7 u and angle t from
    the draws u, t of `rng` in order; a sample that `_probe_singular` rejects
    is skipped and the stream goes on.  The pairs are drawn with one
    `rng.random` call per round, for the samples still missing, which gives
    the values one `rng.uniform(0.3, 2.0)` and one `rng.uniform()` per sample
    give, bit for bit, and leaves `rng` in the same state.
    """
    return np.array([s for s, _ in _probed_samples(spec, count, rng)])


def _probed_samples(spec: FamilySpec, count: int, rng: np.random.Generator) -> list:
    """`residual_samples`' samples as (s, what `_probe_singular` returned for s) pairs."""
    out = []
    while len(out) < count:
        u = rng.random(2 * (count - len(out)))
        for s in ((0.3 + 1.7 * u[0::2]) * np.exp(2j * np.pi * u[1::2])).tolist():
            try:
                probe = _probe_singular(spec, s)
            except SingularSample:
                continue
            out.append((s, probe))
    return out


def _probe_singular(spec: FamilySpec, s: complex):
    """Raise SingularSample when `s` lies within SINGULAR_RADIUS of a pole of the equation.

    Returns what the defining terms can reuse at s: q-Racah's
    `qracah_shifts`, whose square root the pole check takes; None otherwise.
    """
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
        k = qracah_constants(spec)
        if abs(s * s - k.four_gdq) < SINGULAR_RADIUS:
            raise SingularSample("sample at the q-racah square-root branch point")
        shifts = qracah_shifts(k, s)
        Z2 = qracah_Z(k, s, shifts[0]) ** 2
        _check_not_singular(
            [abs(1.0 - k.gdq * Z2), abs(1.0 - k.gdqq * Z2), abs(1.0 - k.gd * Z2)], "q-racah B/D"
        )
        return shifts
    return None


def max_defining_residual(spec: FamilySpec, seed: int = 0) -> float:
    """Max |normalized residual| over DEFINING_SAMPLES seeded random samples.

    The equation is set up once (`_defining_terms`) and applied to every
    sample.  ghyp and gbasic (jacobi through ghyp) act on the coefficients of
    the built polynomial; the other families evaluate the structured sum,
    since their residuals cancel below coefficient rounding.
    """
    base = jacobi_to_ghyp(spec) if spec.family == Family.JACOBI else spec
    terms = _defining_terms(base)
    samples = _probed_samples(base, DEFINING_SAMPLES, np.random.default_rng(seed))
    return max(abs(_normalized(terms(s, probe))) for s, probe in samples)

