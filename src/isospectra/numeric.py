"""Complex-arithmetic substrate.

Polynomials are numpy arrays of ascending coefficients and spectra arrays
of eigenvalues.  Here: the degree rule, Pochhammer-family symbols,
polynomial roots, dense eigenvalues, greedy nearest-neighbour pairing and
multiset matching, forward-mode dual numbers (a value plus a list of
partials, or one partial while a dual depends on one variable) and
compensated (double-double) complex helpers.

All arithmetic is double-precision complex.  Both eigenvalue routines use
LAPACK's QR algorithm, with no dimension cap: `poly_roots` on the companion
matrix (`numpy.linalg.eigvals`) plus a guarded Newton polish on the
coefficients, one Horner pass per step on Python complex scalars, and
`matrix_eigenvalues` (`numpy.linalg.eig`) plus one two-sided correction per
eigenvalue from the right and left eigenvectors.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from itertools import combinations

import numpy as np
import numpy.polynomial.polynomial as npp

from .errors import CardinalityMismatch, DegenerateInput, NonConvergence

DEGREE_REL = 1e-14      # a degree-N coefficient at or below DEGREE_REL * max|c| degenerates
ROOT_TOL = 1e-9         # default scaled-residual tolerance for roots
_TINY = 1e-300


def full_degree(c: np.ndarray) -> bool:
    """True when the last of the ascending coefficients `c` exceeds DEGREE_REL * max|c|."""
    mags = np.abs(c)
    return bool(mags[-1] > DEGREE_REL * mags.max())


@dataclass
class ZeroSet:
    """Roots of one polynomial plus their worst residual."""

    zeros: np.ndarray
    max_poly_residual: float

    @property
    def min_separation(self) -> float:
        """Smallest pairwise distance of the zeros, computed when read."""
        return min_separation(self.zeros)

    def __len__(self):
        return len(self.zeros)


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
    return ddc_to_complex(ddc_q_pochhammers(ddc(gamma), ddc(q), m)[-1])


def elementary_coeffs_hyp(alphas, betas):
    """Coefficients a_0..a_p of prod(alpha_j - x) and b_1..b_{q+1} of x prod(beta_k - 1 - x).

    Returns (a, b) with a[j] = a_j (length p+1) and b[k-1] = b_k (length q+1).
    """
    a = np.ones(1, dtype=complex)
    for al in alphas:
        a = np.convolve(a, [complex(al), -1.0])
    b = np.array([0.0, 1.0], dtype=complex)
    for be in betas:
        b = np.convolve(b, [complex(be) - 1.0, -1.0])
    return a, b[1:]


def elementary_coeffs_basic(alphas, betas):
    """Coefficients a_1..a_r of prod(1 + alpha_j x) = 1 + sum a_j x^j, same for betas.

    Returns (a, b) with a[j-1] = a_j (length r) and b[k-1] = b_k (length s).
    """
    a = np.ones(1, dtype=complex)
    for al in alphas:
        a = np.convolve(a, [1.0, complex(al)])
    b = np.ones(1, dtype=complex)
    for be in betas:
        b = np.convolve(b, [1.0, complex(be)])
    return a[1:], b[1:]


# ---------------------------------------------------------------------------
# Root finding
# ---------------------------------------------------------------------------

def _newton_point(c: list, ac: list, z: complex) -> tuple[complex, float]:
    """Newton step p(z)/p'(z) and scaled backward error |p(z)| / sum |c_i| |z|^i.

    One Horner pass over `c`, the coefficients in descending powers, and
    `ac`, their moduli, in Python complex arithmetic.  A derivative below
    _TINY is clamped to _TINY.  Python's `abs` raises OverflowError where
    numpy returns inf; such a point gets an infinite error, so it is never
    kept.
    """
    p, d, s = c[0], 0j, ac[0]
    try:
        az = abs(z)
        for ci, aci in zip(c[1:], ac[1:]):
            d = d * z + p
            p = p * z + ci
            s = s * az + aci
        res = abs(p) / (s + _TINY)
        return p / (_TINY if abs(d) < _TINY else d), res
    except OverflowError:
        return 0j, float("inf")


def re_im_key(v: complex) -> tuple[float, float]:
    """The (re, im) sort key of `poly_roots`, `families.compute_zeros` and `multiset_match`."""
    return v.real, v.imag


def companion_eigvals(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ascending coefficients `c` over their largest magnitude, and their roots.

    The roots are the eigenvalues of the normalized coefficients' companion
    matrix (`numpy.polynomial`'s), which LAPACK's balanced QR algorithm finds
    backward stably (Edelman & Murakami 1995), in no particular order and
    unpolished.  `c` must be finite, with a nonzero last entry and degree
    >= 1.
    """
    c = c / np.max(np.abs(c))
    return c, np.linalg.eigvals(npp.polycompanion(c))


def poly_roots(p, tol: float = ROOT_TOL) -> ZeroSet:
    """All roots of `p` as eigenvalues of its companion matrix (`companion_eigvals`).

    Every root gets a guarded Newton polish on the coefficients, on Python
    complex scalars: up to three steps, each kept only if the scaled
    backward error |p(z)| / sum |c_i| |z|^i improves.  The algebraic oracle
    (`dynamics.algebraic_trajectory`) relies on it; `families.compute_zeros`
    polishes with the structured Newton instead.  A root stops at its first rejected
    step, since a rejected step leaves z, p(z) and p'(z) as they were and
    every later step would propose the same candidate again; an accepted
    candidate carries its own evaluation into the next step, so each step
    costs one Horner pass.  Multiple roots bottom out near sqrt(eps); that
    is inherent to double precision, and all downstream constructions
    require distinct zeros anyway.

    `p` holds the ascending coefficients; trailing exact zeros are dropped.
    Raises DegenerateInput for coefficients that are not 1-D or not finite
    and for degree < 1 (the zero polynomial included), and NonConvergence
    if the scaled residual still exceeds `tol` at the end.
    """
    c = np.atleast_1d(np.asarray(p, dtype=complex))
    if c.ndim != 1 or not np.all(np.isfinite(c)):
        raise DegenerateInput("polynomial coefficients must be 1-D and finite")
    nonzero = np.flatnonzero(c)
    c = c[: nonzero[-1] + 1 if len(nonzero) else 0]  # trailing exact zeros dropped
    if len(c) < 2:
        raise DegenerateInput("poly_roots needs degree >= 1")
    c, eigenvalues = companion_eigvals(c)
    desc = c[::-1].tolist()
    mods = [abs(ci) for ci in desc]

    roots, worst = [], 0.0
    for z in eigenvalues.tolist():
        step, res = _newton_point(desc, mods, z)
        for _ in range(3):
            cand = z - step
            cand_step, cand_res = _newton_point(desc, mods, cand)
            if not cand_res < res:
                break
            z, step, res = cand, cand_step, cand_res
        roots.append(z)
        worst = max(worst, res)

    if worst > tol:
        raise NonConvergence(f"root residual {worst:.3e} > tol {tol:.1e}")
    roots.sort(key=re_im_key)
    return ZeroSet(zeros=np.array(roots, dtype=complex), max_poly_residual=worst)


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

def matrix_eigenvalues(m) -> np.ndarray:
    """Eigenvalues of a dense complex matrix, in no particular order.

    LAPACK's balanced QR algorithm (`numpy.linalg.eig`), backward stable at
    every dimension, gives the eigenvalues lam_i and right eigenvectors
    V[:, i]; the rows of W = V^-1, inverted once, are the matching left
    eigenvectors.  Each eigenvalue then takes its two-sided correction
    lam_i += W[i, :] (A V[:, i] - lam_i V[:, i]), which recovers the last
    digit or so that QR leaves.  A correction is kept only when it is finite
    and under a quarter of the distance to the nearest other eigenvalue, so
    a multiple eigenvalue keeps QR's value; a singular V returns the
    uncorrected values.  V and W are the eigenvector pair whose norms
    give each eigenvalue's condition number ||V[:, i]|| ||W[i, :]||.  N = 1
    returns the entry exactly.
    """
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise DegenerateInput("matrix_eigenvalues needs a square matrix, N >= 1")
    if not np.all(np.isfinite(a)):
        raise DegenerateInput("non-finite matrix entry")
    if a.shape[0] == 1:
        return a[0, :1].copy()
    values, v = np.linalg.eig(a)
    try:
        w = np.linalg.inv(v)
    except np.linalg.LinAlgError:
        return values  # no eigenvector basis to correct in
    d = a.diagonal()
    with np.errstate(all="ignore"):
        # (A - lam_i I) V[:, i] with the diagonal apart: where lam_i is an
        # exact diagonal entry of a triangular A, row i of it is exactly 0
        r = (a - np.diag(d)) @ v + (d[:, None] - values) * v
        step = np.einsum("ij,ji->i", w, r)
        gap = np.abs(values[:, None] - values)
        np.fill_diagonal(gap, np.inf)
        # a nan or infinite step fails the comparison
        return np.where(np.abs(step) < 0.25 * gap.min(axis=1), values + step, values)


def nearest_pairing(candidates: list, targets: list):
    """Greedy nearest-neighbour pairing of two lists of Python complex scalars.

    Each target in turn takes its nearest unused candidate, the first in
    `candidates` order on a tie; `candidates` is used up.  Returns the chosen
    candidates in target order and their distances.  Python scalars, since
    at the sizes used here (N <= 12) numpy's cost per call exceeds the
    arithmetic.
    """
    chosen, dists = [], []
    for p in targets:
        d = [abs(v - p) for v in candidates]
        nearest = min(d)
        chosen.append(candidates.pop(d.index(nearest)))
        dists.append(nearest)
    return chosen, dists


def multiset_match(a, b) -> float:
    """Greedy matched distance between two equal-size multisets.

    Both sides are sorted by (re, im) and each element of the first is
    paired with its nearest unused partner in the second (`nearest_pairing`).
    The max pairwise distance is returned, normalized by max(1, max |b|).
    """
    va = np.asarray(a, dtype=complex).ravel().tolist()
    vb = np.asarray(b, dtype=complex).ravel().tolist()
    if len(va) != len(vb):
        raise CardinalityMismatch(f"multiset sizes {len(va)} != {len(vb)}")
    if not va:
        return 0.0
    scale = max(1.0, max(map(abs, vb)))
    va.sort(key=re_im_key)
    vb.sort(key=re_im_key)
    return max([0.0] + nearest_pairing(vb, va)[1]) / scale


def pairwise_close(values: list, rel: float) -> bool:
    """True when two of `values` lie closer than rel * max(1, max |value|)."""
    if len(values) < 2:
        return False
    tol = rel * max(1.0, max(map(abs, values)))
    for a, b in combinations(values, 2):  # a loop, not any(<genexpr>): it runs per RK4 stage
        if abs(a - b) < tol:
            return True
    return False


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

    This dense form is the general one.  `OneHot` is the sparse form the
    Jacobian pass seeds: a subclass whose operators take precedence over
    these whenever one operand is one-hot, so the dense operators here never
    see one and pay nothing for its existence.
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


class OneHot(Dual):
    """A Dual whose only partial that may be nonzero is `d`, for variable `k` of `n`.

    `linearization_matrix` seeds one per zero (`OneHot.seed`): every
    prefactor of a kernel's row n depends on zero n alone, so it stays one
    scalar partial.  An operation with a constant or with a one-hot dual of
    the same variable gives a one-hot dual at O(1) cost, and a product with
    a dense `Dual` (the one mixed operation the kernels make) one list.  Any
    other mixed operation runs the dense operator on `self.dense()`.  Either
    way the partials are the dense operator's (up to the sign of zero
    entries).  Python calls a subclass's reflected operator before its
    base's operator, so `dense op one_hot` lands here too; `__rmul__` is
    `__mul__`, as complex products and sums commute bit for bit.  `eps` is
    the dense list, built on request.
    """

    __slots__ = ("k", "d", "n")

    def __init__(self, val, k: int, d, n: int):
        self.val, self.k, self.d, self.n = complex(val), k, complex(d), n

    @staticmethod
    def seed(values):
        """One one-hot dual per value, with partial 1 for its own variable."""
        n = len(values)
        return [_onehot(complex(v), i, 1.0 + 0j, n) for i, v in enumerate(values)]

    @property
    def eps(self):
        eps = [0j] * self.n
        eps[self.k] = self.d
        return eps

    def dense(self) -> Dual:
        """The same dual in the dense form."""
        return _dual(self.val, self.eps)

    def __add__(self, other):
        if not isinstance(other, Dual):
            return _onehot(self.val + other, self.k, self.d, self.n)
        if isinstance(other, OneHot) and other.k == self.k:
            return _onehot(self.val + other.val, self.k, self.d + other.d, self.n)
        return self.dense() + other

    __radd__ = __add__

    def __neg__(self):
        return _onehot(-self.val, self.k, -self.d, self.n)

    def __sub__(self, other):
        if not isinstance(other, Dual):
            return _onehot(self.val - other, self.k, self.d, self.n)
        if isinstance(other, OneHot) and other.k == self.k:
            return _onehot(self.val - other.val, self.k, self.d - other.d, self.n)
        return self.dense() - other

    def __rsub__(self, other):
        if not isinstance(other, Dual):
            return _onehot(other - self.val, self.k, -self.d, self.n)
        return other - self.dense()

    def __mul__(self, other):
        if not isinstance(other, Dual):
            return _onehot(self.val * other, self.k, self.d * other, self.n)
        u, v = self.val, other.val
        if isinstance(other, OneHot):
            if other.k == self.k:
                return _onehot(u * v, self.k, u * other.d + v * self.d, self.n)
            return self.dense() * other
        eps = [u * b for b in other.eps]
        eps[self.k] = eps[self.k] + v * self.d
        return _dual(u * v, eps)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Dual):
            return _onehot(self.val / other, self.k, self.d / other, self.n)
        if isinstance(other, OneHot) and other.k == self.k:
            inv = 1.0 / other.val
            w = self.val * inv
            return _onehot(w, self.k, (self.d - w * other.d) * inv, self.n)
        return self.dense() / other

    def __rtruediv__(self, other):
        if not isinstance(other, Dual):
            inv = 1.0 / self.val
            c = -other * inv * inv
            return _onehot(other * inv, self.k, c * self.d, self.n)
        return other / self.dense()

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("Dual powers restricted to nonnegative integers")
        out = _onehot(1.0 + 0j, self.k, 0j, self.n)
        for _ in range(k):
            out = out * self
        return out

    def __repr__(self):
        return f"OneHot({self.val!r}, {self.k}, {self.d!r}, {self.n})"


def _onehot(val, k: int, d, n: int) -> OneHot:
    """A OneHot from a complex value and partial, unconverted."""
    o = object.__new__(OneHot)
    o.val = val
    o.k = k
    o.d = d
    o.n = n
    return o


def dsqrt(x):
    """Principal square root for complex scalars or Duals.

    A Dual at a zero root raises ZeroDivisionError from its tangent 1/(2r),
    before any inf or nan is formed.
    """
    if isinstance(x, Dual):
        r = cmath.sqrt(x.val)
        c = 1.0 / (2.0 * r)
        if isinstance(x, OneHot):
            return _onehot(r, x.k, x.d * c, x.n)
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
#
# ddc_mul, ddc_add and ddc_div have a real case: when every imaginary word
# of the operands (for ddc_div, of the numerator x conj(y)) is zero, of
# either sign, the general path's imaginary result is (+0, +0) and its real
# words are a real double-double operation, so only that is computed.
# Real parameters make most of the terms of a family sum real.  The result
# equals the general path's word for word, signed zeros included.  A
# product or quotient whose real result is not finite falls through to the
# general path, whose nans can reach the imaginary words.
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
    if x[2] == 0.0 and x[3] == 0.0 and y[2] == 0.0 and y[3] == 0.0:
        return (rhi, rlo, 0.0, 0.0)  # _dd_add of any four zeros is (+0, +0)
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
    t = _SPLITTER * c
    ch = t - (t - c)
    cl = c - ch
    p = a * c
    e = ((ah * ch - p) + ah * cl + al * ch) + al * cl + (a * clo + alo * c)
    ac = p + e
    ac_lo = e - (ac - p)
    if b == 0.0 and blo == 0.0 and d == 0.0 and dlo == 0.0:
        # Real case: bd, ad and bc are (+0, +0) whatever the zeros' signs,
        # so the imaginary word is (+0, +0) and ac - bd renormalizes
        # (ac, ac_lo), whose low word is never -0.  A non-finite result
        # takes the general path, which sets its nans.
        re = ac + ac_lo
        if re - re == 0.0:
            return (re, ac_lo - (re - ac), 0.0, 0.0)
    t = _SPLITTER * b
    bh = t - (t - b)
    bl = b - bh
    t = _SPLITTER * d
    dh = t - (t - d)
    dl = d - dh
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


def ddc_horner(coeffs, z: complex):
    """sum_k coeffs[k] z^k by double-double Horner, at a complex double `z`.

    Each step is ddc_add(ddc_mul(val, ddc(z)), c) written out inline, with
    z split once for all steps: the same operations in the same order,
    including the products with z's zero low parts, so the result is
    bit-identical.  The structured evaluation spends most of its time here.
    """
    c = z.real
    d = z.imag
    t = _SPLITTER * c
    ch = t - (t - c)
    cl = c - ch
    t = _SPLITTER * d
    dh = t - (t - d)
    dl = d - dh
    a, alo, b, blo = coeffs[-1]
    for kr, kr_lo, ki, ki_lo in coeffs[-2::-1]:
        t = _SPLITTER * a
        ah = t - (t - a)
        al = a - ah
        t = _SPLITTER * b
        bh = t - (t - b)
        bl = b - bh
        p = a * c
        e = ((ah * ch - p) + ah * cl + al * ch) + al * cl + (a * 0.0 + alo * c)
        ac = p + e
        ac_lo = e - (ac - p)
        p = b * d
        e = ((bh * dh - p) + bh * dl + bl * dh) + bl * dl + (b * 0.0 + blo * d)
        bd = p + e
        bd_lo = e - (bd - p)
        p = a * d
        e = ((ah * dh - p) + ah * dl + al * dh) + al * dl + (a * 0.0 + alo * d)
        ad = p + e
        ad_lo = e - (ad - p)
        p = b * c
        e = ((bh * ch - p) + bh * cl + bl * ch) + bl * cl + (b * 0.0 + blo * c)
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
        im_lo = e - (im - s)
        # + the next coefficient, as ddc_add
        s = re + kr
        v = s - re
        e = (re - (s - v)) + (kr - v)
        e += re_lo + kr_lo
        a = s + e
        alo = e - (a - s)
        s = im + ki
        v = s - im
        e = (im - (s - v)) + (ki - v)
        e += im_lo + ki_lo
        b = s + e
        blo = e - (b - s)
    return (a, alo, b, blo)


def ddc_div(x, y):
    # x / y = x * conj(y) / |y|^2
    num = ddc_mul(x, (y[0], y[1], -y[2], -y[3]))
    m1hi, m1lo = _dd_mul(y[0], y[1], y[0], y[1])
    m2hi, m2lo = _dd_mul(y[2], y[3], y[2], y[3])
    dhi, dlo = _dd_add(m1hi, m1lo, m2hi, m2lo)
    rhi, rlo = _dd_div(num[0], num[1], dhi, dlo)
    if num[2] == 0.0 and num[3] == 0.0 and rhi - rhi == 0.0:
        # a zero over a finite positive |y|^2: (+0, +0) whatever the signs
        return (rhi, rlo, 0.0, 0.0)
    ihi, ilo = _dd_div(num[2], num[3], dhi, dlo)
    return (rhi, rlo, ihi, ilo)


def ddc_products(factors):
    """Running products [1, f_0, f_0 f_1, ..., prod f] of complex double-doubles.

    Each entry is the one before it times the next factor, so entry m of a
    Pochhammer list costs one product, not m.
    """
    out = [ddc(1.0)]
    for f in factors:
        out.append(ddc_mul(out[-1], f))
    return out


def ddc_pochhammers(a, m: int):
    """[(a)_0, ..., (a)_m] for a complex double-double `a`."""
    return ddc_products([ddc_add(a, ddc(i)) for i in range(m)])


def ddc_q_pochhammers(g, qd, m: int):
    """[(g; q)_0, ..., (g; q)_m] for complex double-doubles `g` and `qd`."""
    one = ddc(1.0)
    factors = []
    for _ in range(m):
        factors.append(ddc_add(one, ddc_neg(g)))
        g = ddc_mul(g, qd)
    return ddc_products(factors)


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


def ddc_expand(weights, factors):
    """Unrounded ascending monomial coefficients of sum_d w_d prod_{s<d} (A_s + B_s z).

    `weights` holds w_0..w_D and `factors` the D pairs (A_s, B_s), all complex
    double-doubles: term d is a weight times the first d factors of one
    shared product.  The sum is multiplied out in its nested form,
    S = w_D, then S = w_d + (A_d + B_d z) S for d = D-1 .. 0, in O(D^2)
    double-double operations; a bare z (A = 0, B = 1) is a shift.  Returns
    (coeffs, mags): the complex double-double coefficients, and per
    coefficient the plain-double size M_k of what it summed, the same
    recursion on |w_d|, |A_d| and |B_d| (equal to
    (sum_d |w_d| prod_{s<d} (|A_s| + |B_s| z))_k), which scales every
    rounding error in it however much the sum cancels.
    """
    zero, one = ddc(0.0), ddc(1.0)
    c = [weights[-1]]
    m = [abs(ddc_to_complex(weights[-1]))]
    for w, (a, b) in zip(weights[-2::-1], factors[::-1]):
        mw = abs(ddc_to_complex(w))
        if a == zero and b == one:  # a bare z (every ghyp/gbasic factor) is a shift
            c = [w] + c
            m = [mw] + m
            continue
        ma, mb = abs(ddc_to_complex(a)), abs(ddc_to_complex(b))
        c = ([ddc_add(w, ddc_mul(a, c[0]))]
             + [ddc_add(ddc_mul(a, ci), ddc_mul(b, cl)) for ci, cl in zip(c[1:], c)]
             + [ddc_mul(b, c[-1])])
        m = [mw + ma * m[0]] + [ma * mi + mb * ml for mi, ml in zip(m[1:], m)] + [mb * m[-1]]
    return c, m
