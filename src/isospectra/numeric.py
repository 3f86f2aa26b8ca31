"""Complex-arithmetic substrate.

Dense polynomials (ascending coefficients), Pochhammer-family symbols,
polynomial roots, dense eigenvalues, multiset matching, forward-mode dual
numbers (a value plus a list of partials) and compensated (double-double)
complex helpers.

All arithmetic is double-precision complex.  Both eigenvalue routines use
LAPACK's QR algorithm through `numpy.linalg.eigvals`, with no dimension cap:
`poly_roots` on the companion matrix plus a guarded Newton polish on the
coefficients, `matrix_eigenvalues` plus one Newton step on the determinant.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from itertools import combinations

import numpy as np
import numpy.polynomial.polynomial as npp

from .errors import CardinalityMismatch, DegenerateInput, NonConvergence

TRIM_REL = 1e-14        # trailing |c| <= TRIM_REL * max|c| is treated as zero
ROOT_TOL = 1e-9         # default scaled-residual tolerance for roots
_TINY = 1e-300


class Poly:
    """Dense complex polynomial with coefficients in ascending powers.

    Trailing coefficients below TRIM_REL * max|c| are trimmed on
    construction, so `degree` always refers to a nonzero leading coefficient
    (the zero polynomial keeps a single 0 coefficient and degree 0).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        c = np.atleast_1d(np.asarray(coeffs, dtype=complex))
        if c.ndim != 1:
            raise DegenerateInput("polynomial coefficients must be 1-D")
        if not np.all(np.isfinite(c)):
            raise DegenerateInput("non-finite polynomial coefficient")
        scale = float(np.max(np.abs(c))) if c.size else 0.0
        if scale == 0.0:
            self.coeffs = np.zeros(1, dtype=complex)
            return
        keep = np.nonzero(np.abs(c) > TRIM_REL * scale)[0]
        self.coeffs = np.array(c[: keep[-1] + 1], dtype=complex)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return self.degree == 0 and self.coeffs[0] == 0

    def __call__(self, z):
        return npp.polyval(z, self.coeffs)

    def __mul__(self, other):
        if isinstance(other, Poly):
            return Poly(npp.polymul(self.coeffs, other.coeffs))
        return Poly(self.coeffs * other)

    __rmul__ = __mul__

    def deriv(self) -> "Poly":
        if self.degree == 0:
            return Poly([0.0])
        return Poly(npp.polyder(self.coeffs))

    def monic(self) -> "Poly":
        return Poly(self.coeffs / self.coeffs[-1])

    def padded(self, length: int) -> np.ndarray:
        """Coefficients zero-padded on the high end to `length` entries."""
        out = np.zeros(length, dtype=complex)
        out[: len(self.coeffs)] = self.coeffs
        return out

    def compose_affine(self, c0: complex, c1: complex) -> "Poly":
        """The polynomial u -> p(c0 + c1*u), by Horner composition."""
        acc = np.array([self.coeffs[-1]], dtype=complex)
        inner = np.array([c0, c1], dtype=complex)
        for a in self.coeffs[-2::-1]:
            acc = npp.polyadd(npp.polymul(acc, inner), [a])
        return Poly(acc)

    def __repr__(self):
        return f"Poly({np.array2string(self.coeffs, separator=', ')})"


@dataclass
class ZeroSet:
    """Roots of one polynomial plus separation/residual metadata."""

    zeros: np.ndarray
    min_separation: float
    max_poly_residual: float

    def __len__(self):
        return len(self.zeros)


@dataclass
class EigenMultiset:
    """Eigenvalues with unordered (multiset) semantics."""

    values: np.ndarray

    def __len__(self):
        return len(self.values)


# ---------------------------------------------------------------------------
# Pochhammer-family symbols
# ---------------------------------------------------------------------------

def pochhammer(alpha, j: int):
    """Rising factorial (alpha)_j = alpha (alpha+1) ... (alpha+j-1), (alpha)_0 = 1."""
    if j < 0:
        raise ValueError("pochhammer order must be >= 0")
    out = 1.0 + 0.0j
    a = complex(alpha)
    for i in range(j):
        out *= a + i
    return out


def q_pochhammer(gamma, q, m: int):
    """q-shifted factorial (gamma; q)_m = (1-gamma)(1-gamma q)...(1-gamma q^(m-1)).

    Accumulated in double-double and rounded once: in plain doubles the
    powers gamma q^i pick up i roundings each, about 1e-14 relative at m = 20.
    """
    if m < 0:
        raise ValueError("q-pochhammer order must be >= 0")
    return ddc_to_complex(ddc_q_pochhammer(ddc(gamma), ddc(q), m))


def elementary_coeffs_hyp(alphas, betas):
    """Coefficients a_0..a_p of prod(alpha_j - x) and b_1..b_{q+1} of x prod(beta_k - 1 - x).

    Returns (a, b) with a[j] = a_j (length p+1) and b[k-1] = b_k (length q+1).
    """
    a = Poly([1.0])
    for al in alphas:
        a = a * Poly([complex(al), -1.0])
    b = Poly([0.0, 1.0])
    for be in betas:
        b = b * Poly([complex(be) - 1.0, -1.0])
    p, qn = len(alphas), len(betas)
    return a.padded(p + 1), b.padded(qn + 2)[1:]


def elementary_coeffs_basic(alphas, betas):
    """Coefficients a_1..a_r of prod(1 + alpha_j x) = 1 + sum a_j x^j, same for betas.

    Returns (a, b) with a[j-1] = a_j (length r) and b[k-1] = b_k (length s).
    """
    a = Poly([1.0])
    for al in alphas:
        a = a * Poly([1.0, complex(al)])
    b = Poly([1.0])
    for be in betas:
        b = b * Poly([1.0, complex(be)])
    r, s = len(alphas), len(betas)
    return a.padded(r + 1)[1:], b.padded(s + 1)[1:]


# ---------------------------------------------------------------------------
# Root finding
# ---------------------------------------------------------------------------

def _backward_error(c: np.ndarray, z: np.ndarray) -> np.ndarray:
    """|p(z)| relative to the evaluation scale sum_i |c_i| |z|^i."""
    return np.abs(npp.polyval(z, c)) / (npp.polyval(np.abs(z), np.abs(c)) + _TINY)


def poly_roots(p, tol: float = ROOT_TOL) -> ZeroSet:
    """All roots of `p` as eigenvalues of its companion matrix.

    The max-normalized coefficients go into `numpy.polynomial`'s companion
    matrix, whose eigenvalues LAPACK's balanced QR algorithm finds backward
    stably (Edelman & Murakami 1995).  Every root then gets a guarded Newton
    polish on the coefficients: three steps, each kept only if the scaled
    backward error |p(z)| / sum |c_i| |z|^i improves.  Multiple roots bottom
    out near sqrt(eps); that is inherent to double precision, and all
    downstream constructions require distinct zeros anyway.

    Raises DegenerateInput for the zero polynomial or degree < 1, and
    NonConvergence if the scaled residual still exceeds `tol` at the end.
    """
    c = (p if isinstance(p, Poly) else Poly(p)).coeffs
    if len(c) < 2:
        raise DegenerateInput("poly_roots needs degree >= 1")
    c = c / np.max(np.abs(c))
    dc = npp.polyder(c)
    z = np.linalg.eigvals(npp.polycompanion(c))

    for _ in range(3):
        pv = npp.polyval(z, c)
        dv = npp.polyval(z, dc)
        dv = np.where(np.abs(dv) < _TINY, _TINY, dv)
        cand = z - pv / dv
        better = _backward_error(c, cand) < _backward_error(c, z)
        z = np.where(better, cand, z)

    res = _backward_error(c, z)
    worst = float(res.max())
    if worst > tol:
        raise NonConvergence(f"root residual {worst:.3e} > tol {tol:.1e}")
    z = z[np.lexsort((z.imag, z.real))]
    return ZeroSet(zeros=z, min_separation=min_separation(z), max_poly_residual=worst)


def min_separation(values: np.ndarray) -> float:
    """Smallest pairwise distance |v_i - v_j|, inf for fewer than two values."""
    if len(values) < 2:
        return float("inf")
    diff = np.abs(values[:, None] - values[None, :])
    np.fill_diagonal(diff, np.inf)
    return float(diff.min())


# ---------------------------------------------------------------------------
# Dense eigenvalues
# ---------------------------------------------------------------------------

def matrix_eigenvalues(m) -> EigenMultiset:
    """Eigenvalue multiset of a dense complex matrix.

    LAPACK's balanced QR algorithm (`numpy.linalg.eigvals`), backward stable
    at every dimension, then one Newton step on det(lam I - A) per eigenvalue
    (lam -= 1 / trace((lam I - A)^-1), by LU), which recovers the last digit
    or so that QR leaves: the median spectral residual of a 240-spec sweep
    goes from 1.4e-15 to 3.8e-16.  A step is kept only when it is finite and
    under a quarter of the distance to the nearest other eigenvalue.  N = 1
    returns the entry exactly.
    """
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise DegenerateInput("matrix_eigenvalues needs a square matrix, N >= 1")
    if not np.all(np.isfinite(a)):
        raise DegenerateInput("non-finite matrix entry")
    n = a.shape[0]
    if n == 1:
        return EigenMultiset(values=a[0, :1].copy())
    values = np.linalg.eigvals(a)
    try:
        inv = np.linalg.inv(values[:, None, None] * np.eye(n) - a)
    except np.linalg.LinAlgError:
        return EigenMultiset(values=values)  # some eigenvalue is exact already
    with np.errstate(all="ignore"):
        step = 1.0 / np.trace(inv, axis1=1, axis2=2)
    gap = np.abs(values[:, None] - values[None, :])
    np.fill_diagonal(gap, np.inf)
    keep = np.isfinite(step) & (np.abs(step) < 0.25 * gap.min(axis=1))
    return EigenMultiset(values=np.where(keep, values - step, values))


def multiset_match(a, b) -> float:
    """Greedy matched distance between two equal-size multisets.

    Both sides are sorted by (re, im); each element of the first is paired
    with its nearest unused partner in the second.  The max pairwise
    distance is returned, normalized by max(1, max |b|).
    """
    va = np.asarray(a.values if isinstance(a, EigenMultiset) else a, dtype=complex).ravel()
    vb = np.asarray(b.values if isinstance(b, EigenMultiset) else b, dtype=complex).ravel()
    if len(va) != len(vb):
        raise CardinalityMismatch(f"multiset sizes {len(va)} != {len(vb)}")
    if len(va) == 0:
        return 0.0
    va = va[np.lexsort((va.imag, va.real))]
    vb = vb[np.lexsort((vb.imag, vb.real))]
    used = np.zeros(len(vb), dtype=bool)
    worst = 0.0
    for x in va:
        d = np.abs(vb - x)
        d[used] = np.inf
        j = int(np.argmin(d))
        used[j] = True
        worst = max(worst, float(d[j]))
    return worst / max(1.0, float(np.max(np.abs(vb))))


def pairwise_close(values: list, rel: float) -> bool:
    """True when two of `values` lie closer than rel * max(1, max |value|)."""
    if len(values) < 2:
        return False
    tol = rel * max(1.0, max(map(abs, values)))
    return any(abs(a - b) < tol for a, b in combinations(values, 2))


# ---------------------------------------------------------------------------
# Forward-mode dual numbers
# ---------------------------------------------------------------------------

class Dual:
    """Scalar forward-mode dual: a value plus a list of partials.

    Supports +, -, *, /, integer powers, and principal sqrt (via `dsqrt`);
    that is all the zero-dynamics kernels need to return their own Jacobian.
    `abs` is the magnitude of the value, for the kernels' guards.

    The partials are a Python list of `complex`, and every operation builds
    its result's list in one comprehension (a product's tangent is
    `[u*b + v*a ...]`).  At the kernels' sizes this is faster than numpy
    vectors, whose per-operation temporaries cost more than the arithmetic
    (README, "Matrices are Jacobians").  Results are built by `_dual`, which
    trusts its arguments; lists are never mutated, so an operation with a
    constant may share its operand's list.
    """

    __slots__ = ("val", "eps")

    def __init__(self, val, eps):
        self.val = complex(val)
        self.eps = [complex(e) for e in eps]

    @staticmethod
    def seed(values):
        """One dual per value, with identity partials (d v_i / d v_j = delta_ij)."""
        n = len(values)
        return [
            _dual(complex(v), [0j] * i + [1.0 + 0j] + [0j] * (n - 1 - i)) for i, v in enumerate(values)
        ]

    def __add__(self, other):
        if isinstance(other, Dual):
            return _dual(self.val + other.val, [a + b for a, b in zip(self.eps, other.eps)])
        return _dual(self.val + other, self.eps)

    __radd__ = __add__

    def __neg__(self):
        return _dual(-self.val, [-a for a in self.eps])

    def __sub__(self, other):
        if isinstance(other, Dual):
            return _dual(self.val - other.val, [a - b for a, b in zip(self.eps, other.eps)])
        return _dual(self.val - other, self.eps)

    def __rsub__(self, other):
        return _dual(other - self.val, [-a for a in self.eps])

    def __mul__(self, other):
        if isinstance(other, Dual):
            u, v = self.val, other.val
            return _dual(u * v, [u * b + v * a for a, b in zip(self.eps, other.eps)])
        return _dual(self.val * other, [a * other for a in self.eps])

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Dual):
            inv = 1.0 / other.val
            w = self.val * inv
            return _dual(w, [(a - w * b) * inv for a, b in zip(self.eps, other.eps)])
        return _dual(self.val / other, [a / other for a in self.eps])

    def __rtruediv__(self, other):
        inv = 1.0 / self.val
        c = -other * inv * inv
        return _dual(other * inv, [c * a for a in self.eps])

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("Dual powers restricted to nonnegative integers")
        out = _dual(1.0 + 0j, [0j] * len(self.eps))
        for _ in range(k):
            out = out * self
        return out

    def __abs__(self):
        return abs(self.val)

    def __repr__(self):
        return f"Dual({self.val!r}, {self.eps!r})"


def _dual(val, eps) -> Dual:
    """A Dual from a complex value and a list of complex partials, unconverted."""
    d = object.__new__(Dual)
    d.val = val
    d.eps = eps
    return d


def dsqrt(x):
    """Principal square root for complex scalars or Duals.

    A Dual at a zero root raises ZeroDivisionError from its tangent 1/(2r),
    before any inf or nan is formed.
    """
    if isinstance(x, Dual):
        r = cmath.sqrt(x.val)
        c = 1.0 / (2.0 * r)
        return _dual(r, [a * c for a in x.eps])
    return cmath.sqrt(complex(x))


# ---------------------------------------------------------------------------
# Compensated (double-double) complex arithmetic.
#
# The explicit polynomial sums of the q-top families cancel by up to ~11
# digits at N = 8 in the working parameter box, so their terms need to be
# accumulated with roughly twice double precision.  These are the classic
# error-free transformations (Dekker/Knuth): every stored quantity is an IEEE
# double, no arbitrary precision involved.  A complex double-double is the
# 4-tuple (re_hi, re_lo, im_hi, im_lo).
# ---------------------------------------------------------------------------

_SPLITTER = 134217729.0  # 2**27 + 1


def _two_sum(a: float, b: float):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _two_prod(a: float, b: float):
    p = a * b
    t = _SPLITTER * a
    ah = t - (t - a)
    al = a - ah
    t = _SPLITTER * b
    bh = t - (t - b)
    bl = b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _dd_add(ahi, alo, bhi, blo):
    s, e = _two_sum(ahi, bhi)
    e += alo + blo
    hi = s + e
    return hi, e - (hi - s)


def _dd_mul(ahi, alo, bhi, blo):
    p, e = _two_prod(ahi, bhi)
    e += ahi * blo + alo * bhi
    hi = p + e
    return hi, e - (hi - p)


def _dd_div(ahi, alo, bhi, blo):
    q1 = ahi / bhi
    # r = a - q1*b
    phi, plo = _dd_mul(q1, 0.0, bhi, blo)
    rhi, rlo = _dd_add(ahi, alo, -phi, -plo)
    q2 = rhi / bhi
    phi, plo = _dd_mul(q2, 0.0, bhi, blo)
    rhi, rlo = _dd_add(rhi, rlo, -phi, -plo)
    q3 = rhi / bhi
    hi, lo = _dd_add(q1, 0.0, q2, 0.0)
    return _dd_add(hi, lo, q3, 0.0)


def ddc(z) -> tuple:
    """Promote a complex double to a complex double-double (exact)."""
    z = complex(z)
    return (z.real, 0.0, z.imag, 0.0)


def ddc_to_complex(x) -> complex:
    return complex(x[0] + x[1], x[2] + x[3])


def ddc_add(x, y):
    rhi, rlo = _dd_add(x[0], x[1], y[0], y[1])
    ihi, ilo = _dd_add(x[2], x[3], y[2], y[3])
    return (rhi, rlo, ihi, ilo)


def ddc_neg(x):
    return (-x[0], -x[1], -x[2], -x[3])


def ddc_mul(x, y):
    # (a+bi)(c+di) = (ac - bd) + (ad + bc) i: the four _dd_mul products and
    # two _dd_add sums written out inline, splitting each operand once.  Same
    # operations in the same order, so the result is bit-identical; the
    # structured evaluation spends most of its time here.
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


def ddc_div(x, y):
    # x / y = x * conj(y) / |y|^2
    num = ddc_mul(x, (y[0], y[1], -y[2], -y[3]))
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


def ddc_powi(x, k: int):
    """Integer power by repeated multiplication (k may be negative)."""
    if k < 0:
        return ddc_div(ddc(1.0), ddc_powi(x, -k))
    out = ddc(1.0)
    base = x
    kk = k
    while kk:
        if kk & 1:
            out = ddc_mul(out, base)
        base = ddc_mul(base, base)
        kk >>= 1
    return out


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
