"""Reference term table, expansion and Horner loop: one operation at a time.

These are the family sums as they were written before the nested form
(`isospectra.families._term_table` and `isospectra.numeric.ddc_expand`):
every term's prefactor is built from its own Pochhammer symbols and powers,
every term carries its own copy of the factor rows, and each term is
multiplied out separately, O(N^3) double-double operations in all.  They
keep every formula literal and serve the tests as an independent reference
for the nested table and its expansion.  `ddc_horner` is the double-double
Horner loop as composed calls, before `isospectra.numeric.ddc_horner`
wrote it out inline.  `ddc_mul_general`, `ddc_add_general` and
`ddc_div_general` are the complex double-double product, sum and quotient as
they were before `isospectra.numeric` gave them a real case: every operand,
real or not, takes the complex path.  `q_to_one_limit_check` compares the
library's ghyp and gbasic term tables in the limit q -> 1.
`residual_samples` is the defining-equation sample loop as it was before
`isospectra.families.residual_samples` drew its pairs with one
`rng.random` call: two scalar `rng.uniform` calls per sample.
"""

import math

import numpy as np

from isospectra import families
from isospectra.errors import InvalidParameters, SingularSample
from isospectra.families import Family, FamilySpec, _term_table, make_spec
from isospectra.numeric import (
    _SPLITTER,
    _dd_add,
    _dd_div,
    _dd_mul,
    ddc,
    ddc_add,
    ddc_div,
    ddc_mul,
    ddc_neg,
    ddc_powi,
    ddc_to_complex,
)


def ddc_mul_general(x, y):
    """(a+bi)(c+di) = (ac - bd) + (ad + bc) i, four products written out inline."""
    a, alo, b, blo = x
    c, clo, d, dlo = y
    t = _SPLITTER * a
    ah = t - (t - a)
    al = a - ah
    t = _SPLITTER * b
    bh = t - (t - b)
    bl = b - bh
    t = _SPLITTER * c
    ch = t - (t - c)
    cl = c - ch
    t = _SPLITTER * d
    dh = t - (t - d)
    dl = d - dh
    p = a * c
    e = ((ah * ch - p) + ah * cl + al * ch) + al * cl + (a * clo + alo * c)
    ac = p + e
    ac_lo = e - (ac - p)
    p = b * d
    e = ((bh * dh - p) + bh * dl + bl * dh) + bl * dl + (b * dlo + blo * d)
    bd = p + e
    bd_lo = e - (bd - p)
    p = a * d
    e = ((ah * dh - p) + ah * dl + al * dh) + al * dl + (a * dlo + alo * d)
    ad = p + e
    ad_lo = e - (ad - p)
    p = b * c
    e = ((bh * ch - p) + bh * cl + bl * ch) + bl * cl + (b * clo + blo * c)
    bc = p + e
    bc_lo = e - (bc - p)
    s = ac - bd
    v = s - ac
    e = (ac - (s - v)) + (-bd - v) + (ac_lo - bd_lo)
    re = s + e
    re_lo = e - (re - s)
    s = ad + bc
    v = s - ad
    e = (ad - (s - v)) + (bc - v) + (ad_lo + bc_lo)
    im = s + e
    return (re, re_lo, im, e - (im - s))


def ddc_add_general(x, y):
    rhi, rlo = _dd_add(x[0], x[1], y[0], y[1])
    ihi, ilo = _dd_add(x[2], x[3], y[2], y[3])
    return (rhi, rlo, ihi, ilo)


def ddc_div_general(x, y):
    """x / y = x * conj(y) / |y|^2."""
    num = ddc_mul_general(x, (y[0], y[1], -y[2], -y[3]))
    m1hi, m1lo = _dd_mul(y[0], y[1], y[0], y[1])
    m2hi, m2lo = _dd_mul(y[2], y[3], y[2], y[3])
    dhi, dlo = _dd_add(m1hi, m1lo, m2hi, m2lo)
    rhi, rlo = _dd_div(num[0], num[1], dhi, dlo)
    ihi, ilo = _dd_div(num[2], num[3], dhi, dlo)
    return (rhi, rlo, ihi, ilo)


def ddc_pochhammer(a, m: int):
    """(a)_m for a complex double-double `a`."""
    out = ddc(1.0)
    for i in range(m):
        out = ddc_mul(out, ddc_add(a, ddc(i)))
    return out


def ddc_q_pochhammer(g, qd, m: int):
    """(g; q)_m for complex double-doubles `g` and `qd`."""
    one = ddc(1.0)
    out = one
    for _ in range(m):
        out = ddc_mul(out, ddc_add(one, ddc_neg(g)))
        g = ddc_mul(g, qd)
    return out


def ddc_horner(coeffs, z):
    """sum_k coeffs[k] z^k: one ddc_mul and one ddc_add per Horner step."""
    zdd = ddc(z)
    val = coeffs[-1]
    for c in coeffs[-2::-1]:
        val = ddc_add(ddc_mul(val, zdd), c)
    return val


def term_table(spec: FamilySpec):
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


def ddc_expand(terms, degree: int):
    """Unrounded ascending monomial coefficients of sum_t pref_t * prod_s (A_s + B_s z).

    `terms` holds (pref, ((A_s, B_s), ...)) pairs of complex double-doubles
    with at most `degree` factors per term.  Each product is multiplied out
    by synthetic multiplication and every coefficient is accumulated in
    double-double.  Returns (coeffs, mags): the complex double-double
    coefficients, and per coefficient the plain-double size M_k of what it
    summed, (sum_t |pref_t| prod_s (|A_s| + |B_s| z))_k, which scales every
    rounding error in it however much the sum cancels.
    """
    zero, one = ddc(0.0), ddc(1.0)
    acc = [zero] * (degree + 1)
    mags = [0.0] * (degree + 1)
    for pref, factors in terms:
        c = [pref]
        m = [abs(ddc_to_complex(pref))]
        for a, b in factors:
            if a == zero and b == one:  # a bare z (every ghyp/gbasic factor) is a shift
                c = [zero] + c
                m = [0.0] + m
                continue
            ma, mb = abs(ddc_to_complex(a)), abs(ddc_to_complex(b))
            c = ([ddc_mul(a, c[0])]
                 + [ddc_add(ddc_mul(a, ci), ddc_mul(b, cl)) for ci, cl in zip(c[1:], c)]
                 + [ddc_mul(b, c[-1])])
            m = [ma * m[0]] + [ma * mi + mb * ml for mi, ml in zip(m[1:], m)] + [mb * m[-1]]
        for i, ci in enumerate(c):
            acc[i] = ddc_add(acc[i], ci)
            mags[i] += m[i]
    return acc, mags


def q_to_one_limit_check(spec: FamilySpec, q_near_1: float) -> float:
    """Coefficient deviation between the q-deformed and plain hypergeometric sums.

    `spec` is a ghyp-style instance whose alphas/betas act as exponents: the
    basic side uses parameters q^alpha_j, q^beta_k and argument scaled by
    (q-1)^(s-r).  Both sides are the term-table weights of the ghyp and
    gbasic sums (`families._term_table`), taken in the order of m (ghyp's
    weight of z^(N-m), gbasic's of z^m).  Returns
    max_m |phi_m - F_m| / max(1, max|F_m|), which is O(|q-1|).  N = 0 is
    allowed here (both sides are the constant 1).
    """
    if not (0.0 < abs(q_near_1 - 1.0) <= 0.01):
        raise InvalidParameters("q must satisfy 0 < |q-1| <= 0.01")
    N = spec.N
    r, s = len(spec.alphas), len(spec.betas)
    q = float(q_near_1)
    basic_alphas = [q ** complex(a) for a in spec.alphas]
    basic_betas = [q ** complex(b) for b in spec.betas]
    plain, _ = _term_table(make_spec(Family.GHYP, N, spec.alphas, spec.betas))
    basic, _ = _term_table(make_spec(Family.GBASIC, N, basic_alphas, basic_betas, q))
    f_side = np.array([ddc_to_complex(w) for w in plain[::-1]])  # ghyp weights run from z^0
    phi_side = np.array(
        [ddc_to_complex(w) * (q - 1.0) ** ((s - r) * m) for m, w in enumerate(basic)]
    )
    dev = np.max(np.abs(phi_side - f_side))
    return float(dev / max(1.0, float(np.max(np.abs(f_side)))))


def residual_samples(spec: FamilySpec, count: int, rng: np.random.Generator) -> np.ndarray:
    """Non-singular samples in the annulus 0.3 <= |.| <= 2, one sample per two scalar draws."""
    out = []
    while len(out) < count:
        s = complex(rng.uniform(0.3, 2.0) * np.exp(2j * np.pi * rng.uniform()))
        try:
            families._probe_singular(spec, s)
        except SingularSample:
            continue
        out.append(s)
    return np.array(out)
