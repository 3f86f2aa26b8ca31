"""Core numeric substrate: symbols, polynomials, roots, eigenvalues, duals."""

import cmath
import itertools
import math
import struct
import warnings
from fractions import Fraction

import numpy as np
import numpy.polynomial.polynomial as npp
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import expansion_reference
import isospectra as iso
import roots_reference
from isospectra import cli, dynamics
from isospectra.errors import CardinalityMismatch, DegenerateInput, NonConvergence
from isospectra.numeric import (
    Dual,
    OneHot,
    _dd_add,
    _dd_mul,
    _newton_point,
    ddc,
    ddc_add,
    ddc_div,
    ddc_expand,
    ddc_horner,
    ddc_mul,
    ddc_pochhammers,
    ddc_powi,
    ddc_products,
    ddc_q_pochhammers,
    ddc_to_complex,
    dsqrt,
    elementary_coeffs_basic,
    elementary_coeffs_hyp,
    matrix_eigenvalues,
    multiset_match,
    pochhammer,
    poly_roots,
    q_pochhammer,
)
from test_dynamics import DEMO_SPECS, perturbed_start
from test_reference_zeros import REFERENCE, spec_of

finite_complex = st.complex_numbers(
    min_magnitude=0.0, max_magnitude=4.0, allow_nan=False, allow_infinity=False
)


class TestPochhammer:
    def test_base_case(self):
        assert pochhammer(3.7 + 1j, 0) == 1

    def test_2_3(self):
        assert pochhammer(2, 3) == 24

    def test_negative_integer_truncation(self):
        assert pochhammer(-3, 5) == 0

    @given(alpha=finite_complex, j=st.integers(min_value=0, max_value=20))
    def test_recurrence(self, alpha, j):
        lhs = pochhammer(alpha, j + 1)
        rhs = pochhammer(alpha, j) * (alpha + j)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


class TestQPochhammer:
    def test_base_case(self):
        assert q_pochhammer(2.5, 1.7, 0) == 1

    def test_truncation(self):
        q = 1.7
        assert abs(q_pochhammer(q**-2, q, 3)) < 1e-14

    def test_2_2_2(self):
        # (1-2)(1-4) = 3
        assert abs(q_pochhammer(2, 2, 2) - 3) < 1e-14

    @given(
        gamma=finite_complex,
        q=finite_complex,
        m=st.integers(min_value=0, max_value=20),
    )
    # plain double accumulation of gamma q^i is 1.16e-14 off here
    @example(gamma=-0.0011 - 1.3354j, q=-2.3682 + 0.8998j, m=20)
    @settings(deadline=None)  # the exact product of tiny q^i has huge denominators
    def test_matches_direct_product(self, gamma, q, m):
        # exact rational product on (re, im) pairs
        def mul(x, y):
            return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])

        g = (Fraction(gamma.real), Fraction(gamma.imag))
        qq = (Fraction(q.real), Fraction(q.imag))
        direct = (Fraction(1), Fraction(0))
        for _ in range(m):
            direct = mul(direct, (1 - g[0], -g[1]))
            g = mul(g, qq)
        got = q_pochhammer(gamma, q, m)
        err = math.hypot(float(Fraction(got.real) - direct[0]), float(Fraction(got.imag) - direct[1]))
        assert err <= 1e-14 * max(1.0, math.hypot(float(direct[0]), float(direct[1])))


class TestRunningProducts:
    """The running Pochhammer lists against the per-symbol loops they replace."""

    @given(a=finite_complex, m=st.integers(min_value=0, max_value=12))
    def test_pochhammers_bit_identical(self, a, m):
        got = ddc_pochhammers(ddc(a), m)
        assert len(got) == m + 1
        assert got == [expansion_reference.ddc_pochhammer(ddc(a), j) for j in range(m + 1)]

    @given(g=finite_complex, q=finite_complex, m=st.integers(min_value=0, max_value=12))
    def test_q_pochhammers_bit_identical(self, g, q, m):
        got = ddc_q_pochhammers(ddc(g), ddc(q), m)
        assert got == [expansion_reference.ddc_q_pochhammer(ddc(g), ddc(q), j) for j in range(m + 1)]

    def test_products(self):
        got = ddc_products([ddc(2.0), ddc(1j), ddc(-3.0)])
        assert [ddc_to_complex(p) for p in got] == [1.0, 2.0, 2j, -6j]


def expand_product(factors):
    """prod (A + B z) over (A, B) in `factors`, multiplied out by `ddc_expand` and rounded."""
    weights = [ddc(0.0)] * len(factors) + [ddc(1.0)]  # the one term of full length
    pairs = [(ddc(a), ddc(b)) for a, b in factors]
    return np.array([ddc_to_complex(c) for c in ddc_expand(weights, pairs)[0]])


def wilson_factors(a, k):
    # [a; z]_k = (a^2 + z)((a+1)^2 + z)...((a+k-1)^2 + z)
    return [((a + i) ** 2, 1.0) for i in range(k)]


def aw_factors(a, q, m):
    # {a; q; x}_m = prod_{j<m} (1 + a^2 q^(2j) - 2 a q^j x)
    return [(1.0 + a * a * q ** (2 * j), -2.0 * a * q**j) for j in range(m)]


def qracah_factors(gd, q, m):
    # prod_{s<m} (1 - z q^s + gd q^(2s+1))
    return [(1.0 + gd * q ** (2 * s + 1), -(q**s)) for s in range(m)]


def racah_lambda_factors(gd1, n):
    # prod_{s<n} (-lam + s*gd1 + s^2)
    return [(s * gd1 + s * s, -1.0) for s in range(n)]


class TestPochhammerPolynomials:
    """The families' Pochhammer polynomials, expanded by the term expansion."""

    def test_wilson_empty(self):
        assert expand_product(wilson_factors(1.3, 0)).tolist() == [1.0]

    def test_wilson_first(self):
        np.testing.assert_allclose(expand_product(wilson_factors(1.0, 1)), [1.0, 1.0])

    def test_wilson_a0_k2(self):
        # (0 + z)(1 + z) = z + z^2
        np.testing.assert_allclose(expand_product(wilson_factors(0.0, 2)), [0.0, 1.0, 1.0])

    def test_aw_base(self):
        assert expand_product(aw_factors(1.0, 2.0, 0)).tolist() == [1.0]

    def test_aw_first(self):
        np.testing.assert_allclose(expand_product(aw_factors(1.0, 1.7, 1)), [2.0, -2.0])

    def test_aw_hand_expansion(self):
        # (2 - 2x)(5 - 4x) = 10 - 18x + 8x^2
        np.testing.assert_allclose(expand_product(aw_factors(1.0, 2.0, 2)), [10.0, -18.0, 8.0])

    def test_qracah_base(self):
        assert expand_product(qracah_factors(1.0, 2.0, 0)).tolist() == [1.0]

    def test_qracah_single_gd0(self):
        np.testing.assert_allclose(expand_product(qracah_factors(0.0, 1.5, 1)), [1.0, -1.0])

    def test_qracah_single(self):
        # 1 - z + 2
        np.testing.assert_allclose(expand_product(qracah_factors(1.0, 2.0, 1)), [3.0, -1.0])

    def test_racah_lambda_base(self):
        assert expand_product(racah_lambda_factors(2.0, 0)).tolist() == [1.0]

    def test_racah_lambda_first(self):
        np.testing.assert_allclose(expand_product(racah_lambda_factors(2.0, 1)), [0.0, -1.0])

    def test_racah_lambda_hand_expansion(self):
        # -lam(-lam + 3) -> [0, -3, 1]
        np.testing.assert_allclose(expand_product(racah_lambda_factors(2.0, 2)), [0.0, -3.0, 1.0])


class TestElementaryCoeffs:
    def test_hyp_1_1(self):
        a, b = elementary_coeffs_hyp([2.0], [3.0])
        np.testing.assert_allclose(a, [2.0, -1.0])
        np.testing.assert_allclose(b, [2.0, -1.0])  # b_1 = beta-1, b_2 = -1

    def test_hyp_empty_alpha(self):
        a, _ = elementary_coeffs_hyp([], [3.0])
        np.testing.assert_allclose(a, [1.0])

    def test_hyp_two_alphas(self):
        # (2-x)(3-x) = 6 - 5x + x^2
        a, _ = elementary_coeffs_hyp([2.0, 3.0], [])
        np.testing.assert_allclose(a, [6.0, -5.0, 1.0])

    @given(st.lists(finite_complex, max_size=4), st.lists(finite_complex, max_size=4))
    def test_leading_signs(self, alphas, betas):
        a, b = elementary_coeffs_hyp(alphas, betas)
        assert a[-1] == (-1.0) ** len(alphas)
        assert b[-1] == (-1.0) ** len(betas)

    def test_basic_single(self):
        a, _ = elementary_coeffs_basic([2.5], [])
        np.testing.assert_allclose(a, [2.5])

    def test_basic_two(self):
        # (1+2x)(1+3x) = 1 + 5x + 6x^2
        a, _ = elementary_coeffs_basic([2.0, 3.0], [])
        np.testing.assert_allclose(a, [5.0, 6.0])

    def test_basic_empty(self):
        _, b = elementary_coeffs_basic([2.0], [])
        assert len(b) == 0

    def test_basic_small_top_coefficient_kept(self):
        # (1 + 1e-8 x)^2 = 1 + 2e-8 x + 1e-16 x^2: a_2 is 1e-16 of a_0, not zero
        a, b = elementary_coeffs_basic([1e-8, 1e-8], [2.0])
        assert a.tolist() == [2e-8, 1e-8 * 1e-8]
        assert b.tolist() == [2.0]

    def test_hyp_small_top_coefficient_kept(self):
        # (1e8 - x)^2 = 1e16 - 2e8 x + x^2: the x^2 coefficient is 1e-16 of a_0.
        # Small parameters cannot shrink a top coefficient here, which is
        # (-1)^p; large ones make it small against the others.
        a, b = elementary_coeffs_hyp([1e8, 1e8], [1e8])
        assert a.tolist() == [1e16, -2e8, 1.0]
        assert b.tolist() == [1e8 - 1.0, -1.0]


class TestPolyRoots:
    def test_symmetric_pair(self):
        zs = poly_roots([-1.0, 0.0, 1.0])
        assert zs.max_poly_residual <= 1e-12
        np.testing.assert_allclose(np.sort(zs.zeros.real), [-1.0, 1.0], atol=1e-12)

    def test_imaginary_pair(self):
        zs = poly_roots([1.0, 0.0, 1.0])
        assert zs.max_poly_residual <= 1e-12
        assert multiset_match(zs.zeros, [1j, -1j]) < 1e-12

    def test_cubic_oracle(self):
        # oracle: multiply out (z-1)(z-2)(z-3)
        coeffs = npp.polyfromroots([1.0, 2.0, 3.0])
        zs = poly_roots(coeffs)
        assert zs.max_poly_residual <= 1e-12
        assert multiset_match(zs.zeros, [1.0, 2.0, 3.0]) < 1e-12

    def test_planted_roots_recovered(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            deg = int(rng.integers(1, 11))
            while True:
                roots = rng.uniform(-1, 1, deg) + 1j * rng.uniform(-1, 1, deg)
                if deg == 1:
                    break
                d = np.abs(roots[:, None] - roots[None, :])
                np.fill_diagonal(d, np.inf)
                if d.min() >= 0.1:
                    break
            zs = poly_roots(npp.polyfromroots(roots))
            assert zs.max_poly_residual <= 1e-12
            assert multiset_match(zs.zeros, roots) <= 1e-9

    def test_zero_polynomial_rejected(self):
        for c in ([0.0], [0.0, 0.0]):
            with pytest.raises(DegenerateInput):
                poly_roots(c)

    def test_constant_rejected(self):
        with pytest.raises(DegenerateInput):
            poly_roots([3.0])

    def test_non_finite_rejected(self):
        for bad in (np.nan, np.inf, complex(0.0, -np.inf)):
            with pytest.raises(DegenerateInput, match="finite"):
                poly_roots([-1.0, bad, 1.0])

    def test_two_dimensional_rejected(self):
        with pytest.raises(DegenerateInput, match="1-D"):
            poly_roots([[-1.0, 0.0, 1.0], [1.0, 0.0, 1.0]])

    def test_trailing_zeros_dropped(self):
        # -1 + z^2 written with an exact zero z^3 coefficient
        zs = poly_roots([-1.0, 0.0, 1.0, 0.0])
        assert zs.zeros.tolist() == [-1.0, 1.0]

    def test_tiny_top_coefficient_kept(self):
        # only exact zeros are dropped: 1e-20 z^2 + z - 1 keeps its far root
        zs = poly_roots([-1.0, 1.0, 1e-20])
        assert len(zs) == 2
        assert multiset_match(zs.zeros, [1.0, -1e20]) < 1e-12

    def test_stops_at_rounding_level(self):
        # a safe-box racah draw: every root's scaled backward error ends at
        # 2 eps deg, the size of Horner's own evaluation error
        spec = iso.make_spec(
            "racah", 6, [2.6123844380864822, 1.041393051647385, 2.723188787953626, 1.7372567706639868]
        )
        c = iso.build_polynomial(spec)
        zs = poly_roots(c)
        assert zs.max_poly_residual <= 1e-12
        backward = np.abs(npp.polyval(zs.zeros, c)) / npp.polyval(np.abs(zs.zeros), np.abs(c))
        assert np.all(backward <= 2 * np.finfo(float).eps * 6)

    def test_nonconvergence_flagged(self):
        coeffs = npp.polyfromroots(np.arange(1.0, 7.0))
        with pytest.raises(NonConvergence):
            poly_roots(coeffs, tol=1e-30)

    def test_zero_derivative_clamped(self):
        # z^2: p'(0) = 0 is clamped to _TINY, the step is 0 and is rejected
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            zs = poly_roots([0.0, 0.0, 1.0])
        assert zs.zeros.tolist() == [0j, 0j]
        assert zs.max_poly_residual == 0.0

    def test_overflowing_point_never_kept(self):
        # |z| is finite in each part but above DBL_MAX: Python's abs raises
        # OverflowError there, and the point gets an infinite error instead
        big = complex(1.5e308, 1.5e308)
        with pytest.raises(OverflowError):
            abs(big)
        c = [1.0 + 0j, 0j, -1.0 + 0j]
        assert _newton_point(c, [abs(x) for x in c], big)[1] == math.inf

    def test_overflowing_start_is_nonconvergence(self, monkeypatch):
        # a start whose evaluation overflows keeps an infinite error: every
        # candidate is rejected and the call ends in NonConvergence
        monkeypatch.setattr(
            np.linalg, "eigvals", lambda a: np.array([complex(1.5e308, 1.5e308), 1.0])
        )
        with pytest.raises(NonConvergence, match="inf"):
            poly_roots([-1.0, 0.0, 1.0])


# the families whose oracle roots its slices with poly_roots (the others take
# the eigenvalues of a comrade matrix)
MONOMIAL_ORACLE_SPECS = [s for s in DEMO_SPECS if s.family.value in ("ghyp", "gbasic", "jacobi")]


def oracle_polynomials(spec):
    """The polynomials the algebraic oracle roots on t = 0, 0.05, ..., 0.5 from a perturbed start."""
    polys = []

    def recording(p, **kwargs):
        polys.append(p)
        return poly_roots(p, **kwargs)

    dynamics.poly_roots, saved = recording, dynamics.poly_roots
    try:
        dynamics.algebraic_trajectory(spec, perturbed_start(spec), np.linspace(0.0, 0.5, 11))
    finally:
        dynamics.poly_roots = saved
    assert len(polys) == 11
    return polys


def n8_draw_polynomial(index, name):
    """The N = 8 draw of `TestPolyRootsAccuracy::test_n8_draw`."""
    spec, _ = cli.draw_spec(name, 8, np.random.default_rng([2026, index]), nmin=8)
    return iso.build_polynomial(spec)


def assert_matches_mpmath(c, bound):
    mp = pytest.importorskip("mpmath")
    got = poly_roots(c, tol=1e-9).zeros
    with mp.workdps(50):
        ref = mp.polyroots([mp.mpc(complex(x)) for x in c[::-1]], maxsteps=200, extraprec=100)
    ref = np.array([complex(r) for r in ref])
    for z in got:
        nearest = ref[np.argmin(np.abs(ref - z))]
        assert abs(z - nearest) <= bound * abs(nearest), (z, nearest)


class TestPolyRootsAccuracy:
    """poly_roots against 50-digit mpmath roots of the same double coefficients.

    The N = 8 bound is 4x the worst per-root relative error that the
    Aberth-Ehrlich iteration this replaced had on the same polynomials
    (9.3e-12, aw), so that test pins "no less accurate than Aberth".  The
    oracle polynomials are only those of the monomial-basis oracle (ghyp,
    gbasic, jacobi); each family's bound is 4x the worst error poly_roots
    itself reads on them (3.1e-15, 2.7e-14 and 1.8e-15).
    """

    ORACLE_BOUNDS = {"ghyp": 1.3e-14, "gbasic": 1.1e-13, "jacobi": 7.4e-15}

    @pytest.mark.parametrize("spec", MONOMIAL_ORACLE_SPECS, ids=lambda s: s.family.value)
    def test_oracle_polynomials(self, spec):
        for c in oracle_polynomials(spec):
            assert_matches_mpmath(c, self.ORACLE_BOUNDS[spec.family.value])

    @pytest.mark.parametrize("index, name", enumerate(cli.CONSTRUCTIONS), ids=list(cli.CONSTRUCTIONS))
    def test_n8_draw(self, index, name):
        assert_matches_mpmath(n8_draw_polynomial(index, name), 3.7e-11)


class TestPolishStop:
    """Stopping a root at its first rejected step equals running all three steps."""

    @staticmethod
    def assert_same_as_full_loop(c):
        zs = poly_roots(c, tol=1e-9)
        zeros, worst = roots_reference.poly_roots_full_loop(c)
        assert np.array_equal(zs.zeros, zeros)
        assert zs.max_poly_residual == worst

    @pytest.mark.parametrize("spec", MONOMIAL_ORACLE_SPECS, ids=lambda s: s.family.value)
    def test_oracle_polynomials(self, spec):
        for c in oracle_polynomials(spec):
            self.assert_same_as_full_loop(c)

    @pytest.mark.parametrize("index, name", enumerate(cli.CONSTRUCTIONS), ids=list(cli.CONSTRUCTIONS))
    def test_n8_draw(self, index, name):
        self.assert_same_as_full_loop(n8_draw_polynomial(index, name))


class TestMatrixEigenvalues:
    def test_identity(self):
        # double eigenvalue: accuracy floor is ~sqrt(eps), not full precision
        ev = matrix_eigenvalues(np.eye(2))
        assert multiset_match(ev, [1.0, 1.0]) < 1e-6

    def test_rotation(self):
        ev = matrix_eigenvalues([[0.0, 1.0], [-1.0, 0.0]])
        assert multiset_match(ev, [1j, -1j]) < 1e-12

    def test_lower_triangular(self):
        ev = matrix_eigenvalues([[3.0, 0.0], [5.0, 8.0]])
        assert multiset_match(ev, [3.0, 8.0]) < 1e-12

    def test_one_by_one_exact(self):
        ev = matrix_eigenvalues([[2.5 + 1.5j]])
        assert ev[0] == 2.5 + 1.5j

    def test_random_triangular_diagonal(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            n = int(rng.integers(2, 11))
            m = np.tril(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
            ev = matrix_eigenvalues(m)
            assert multiset_match(ev, np.diag(m)) <= 1e-9

    def test_trace_and_det_identities(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            ev = matrix_eigenvalues(m)
            tr = np.trace(m)
            assert abs(ev.sum() - tr) <= 1e-9 * max(1.0, abs(tr))
            det = np.linalg.det(m)
            assert abs(ev.prod() - det) <= 1e-8 * max(1.0, abs(det))

    def test_no_dimension_cap(self):
        rng = np.random.default_rng(13)
        for n in range(13, 17):
            m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            ev = matrix_eigenvalues(m)
            assert len(ev) == n
            tr = np.trace(m)
            assert abs(ev.sum() - tr) <= 1e-9 * max(1.0, abs(tr))
            det = np.linalg.det(m)
            assert abs(ev.prod() - det) <= 1e-8 * max(1.0, abs(det))

    def test_jordan_block_keeps_qr_values(self):
        # defective: V is singular to working precision and the double
        # eigenvalue has no gap, so QR's values come back, with no warning
        jordan = np.array([[2.0, 1.0], [0.0, 2.0]], dtype=complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ev = matrix_eigenvalues(jordan)
        assert ev.tobytes() == np.linalg.eig(jordan)[0].tobytes()

    def test_singular_eigenvector_basis_keeps_qr_values(self, monkeypatch):
        values = np.array([2.0 + 0j, 2.0 + 1e-9j])
        monkeypatch.setattr(np.linalg, "eig", lambda a: (values, np.ones((2, 2), dtype=complex)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ev = matrix_eigenvalues([[2.0, 1.0], [0.0, 2.0]])
        assert ev.tobytes() == values.tobytes()

    def test_triangular_non_normal_exact(self):
        # upper triangular, strictly upper part ten times the diagonal: the
        # eigenvalues are the diagonal.  The determinant Newton step that the
        # two-sided correction replaced returned them with error 0.0 on this
        # matrix (measured once), and the correction must be no worse.
        rng = np.random.default_rng(0)
        diag = np.arange(1, 7) + 0.5j * rng.standard_normal(6)
        upper = np.triu(10 * rng.standard_normal((6, 6)) + 10j * rng.standard_normal((6, 6)), 1)
        assert multiset_match(matrix_eigenvalues(np.diag(diag) + upper), diag) <= 0.0

    def test_rejects_bad_input(self):
        with pytest.raises(DegenerateInput):
            matrix_eigenvalues(np.ones((2, 3)))
        with pytest.raises(DegenerateInput):
            matrix_eigenvalues([[1.0, np.nan], [0.0, 1.0]])


class TestMultisetMatch:
    def test_permutation_invariance(self):
        assert multiset_match([1.0, 2.0], [2.0, 1.0]) == 0.0

    def test_tiny_distance(self):
        assert abs(multiset_match([1.0], [1.0 + 1e-9]) - 1e-9) < 1e-12

    def test_normalization(self):
        assert abs(multiset_match([0.0, 10.0], [0.1, 10.0]) - 0.01) < 1e-12

    def test_cardinality(self):
        with pytest.raises(CardinalityMismatch):
            multiset_match([1.0], [1.0, 2.0])

    @given(st.lists(finite_complex, min_size=1, max_size=8))
    @settings(deadline=None)
    def test_shuffled_self_distance_zero(self, values):
        rng = np.random.default_rng(0)
        shuffled = np.array(values)[rng.permutation(len(values))]
        assert multiset_match(values, shuffled) <= 1e-12 * max(1.0, np.max(np.abs(values)))

    def test_tie_takes_first_in_sorted_order(self):
        # 0 is as near to -1 as to 1 and takes -1, which sorts first; 5 then takes 1
        assert multiset_match([5.0, 0.0], [1.0, -1.0]) == 4.0
        assert roots_reference.multiset_match_numpy([5.0, 0.0], [1.0, -1.0]) == 4.0

    @given(
        n=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
        spread=st.sampled_from([1e-12, 1e-6, 1e-2, 1.0]),
    )
    @settings(deadline=None)
    def test_matches_numpy_form(self, n, seed, spread):
        a, b = roots_reference.shuffled_neighbors(n, seed, spread)
        want = roots_reference.multiset_match_numpy(a, b)
        assert abs(multiset_match(a, b) - want) <= 4 * np.finfo(float).eps * want


# Each Dual operation as f(x, y) with its exact partials (df/dx, df/dy).
DUAL_OPS = {
    "add": (lambda x, y: x + y, lambda x, y: (1.0, 1.0)),
    "radd": (lambda x, y: y + x, lambda x, y: (1.0, 1.0)),
    "sub": (lambda x, y: x - y, lambda x, y: (1.0, -1.0)),
    "rsub": (lambda x, y: y - x, lambda x, y: (-1.0, 1.0)),
    "mul": (lambda x, y: x * y, lambda x, y: (y, x)),
    "rmul": (lambda x, y: y * x, lambda x, y: (y, x)),
    "div": (lambda x, y: x / y, lambda x, y: (1.0 / y, -x / (y * y))),
    "rdiv": (lambda x, y: y / x, lambda x, y: (-y / (x * x), 1.0 / x)),
}
PARTNERS = ("dual", "complex", "float")
away_from_zero = st.complex_numbers(
    min_magnitude=0.25, max_magnitude=4.0, allow_nan=False, allow_infinity=False
)


def central_difference(f, x, h=1e-6):
    """df/dx of a complex-analytic scalar function along the real axis."""
    return (f(x + h) - f(x - h)) / (2.0 * h)


class TestDual:
    def test_seed_identity(self):
        d = Dual.seed([2.0, 3.0])
        assert d[0].val == 2.0 and d[0].eps == [1.0, 0.0]
        assert type(d[1].eps) is list and d[1].eps == [0.0, 1.0]

    @pytest.mark.parametrize("partner", PARTNERS)
    @pytest.mark.parametrize("op", DUAL_OPS)
    @given(x=away_from_zero, y=away_from_zero)
    def test_operation_derivatives(self, op, partner, x, y):
        f, exact = DUAL_OPS[op]
        if partner == "float":
            y = y.real
            assume(abs(y) >= 0.25)
        dx, dy = exact(x, y)
        if partner == "dual":
            xd, yd = Dual.seed([x, y])
            want = [dx, dy]
        else:
            (xd,), yd = Dual.seed([x]), y
            want = [dx]
        out = f(xd, yd)
        assert isinstance(out, Dual) and type(out.eps) is list and len(out.eps) == len(want)
        # quotients multiply by the reciprocal, so their value may differ from
        # the complex quotient in the last bits
        assert abs(out.val - f(x, y)) <= 4 * np.finfo(float).eps * abs(f(x, y))
        scale = max(1.0, abs(dx), abs(dy))
        for got, w in zip(out.eps, want):
            assert abs(got - w) <= 8 * np.finfo(float).eps * scale
        fd = central_difference(lambda v: f(v, y), x)
        assert abs(out.eps[0] - fd) <= 1e-6 * scale
        if partner == "dual":
            fd = central_difference(lambda v: f(x, v), y)
            assert abs(out.eps[1] - fd) <= 1e-6 * scale

    def test_product_rule(self):
        x, y = Dual.seed([1.5 + 0.5j, -0.7 + 2.0j])
        f = x * y + x / y
        h = 1e-7
        ref_dx = ((1.5 + h + 0.5j) * (-0.7 + 2j) + (1.5 + h + 0.5j) / (-0.7 + 2j)) - (
            (1.5 - h + 0.5j) * (-0.7 + 2j) + (1.5 - h + 0.5j) / (-0.7 + 2j)
        )
        assert abs(f.eps[0] - ref_dx / (2 * h)) < 1e-6

    def test_sqrt_derivative(self):
        (x,) = Dual.seed([2.3 + 1.1j])
        r = dsqrt(x)
        h = 1e-7
        fd = (np.sqrt(2.3 + h + 1.1j) - np.sqrt(2.3 - h + 1.1j)) / (2 * h)
        assert abs(r.eps[0] - fd) < 1e-7

    def test_integer_power(self):
        (x,) = Dual.seed([1.2 - 0.4j])
        p = x**3
        assert abs(p.val - (1.2 - 0.4j) ** 3) < 1e-14
        assert abs(p.eps[0] - 3 * (1.2 - 0.4j) ** 2) < 1e-12

    @pytest.mark.parametrize("k", range(6))
    @given(x=away_from_zero)
    def test_integer_power_derivatives(self, k, x):
        (xd,) = Dual.seed([x])
        p = xd**k
        assert abs(p.val - x**k) <= 8 * np.finfo(float).eps * abs(x) ** k
        exact = k * x ** (k - 1) if k else 0.0
        scale = max(1.0, abs(exact))
        assert abs(p.eps[0] - exact) <= 8 * k * np.finfo(float).eps * scale
        assert abs(p.eps[0] - central_difference(lambda v: v**k, x)) <= 1e-6 * scale

    def test_negative_power_rejected(self):
        (x,) = Dual.seed([1.5])
        with pytest.raises(ValueError):
            x ** -1

    @given(x=away_from_zero)
    def test_sqrt_derivatives(self, x):
        (xd,) = Dual.seed([x])
        r = dsqrt(xd)
        assert r.val == cmath.sqrt(x)
        exact = 0.5 / cmath.sqrt(x)
        assert abs(r.eps[0] - exact) <= 4 * np.finfo(float).eps * abs(exact)
        assume(abs(x.imag) > 1e-3 or x.real > 0)  # the difference must not straddle the cut
        assert abs(r.eps[0] - central_difference(cmath.sqrt, x)) <= 1e-6 * abs(exact)

    def test_sqrt_at_zero_raises_before_inf(self):
        # the tangent 1/(2r) divides in Python, so no inf/nan (and no numpy
        # warning) is formed; the kernels map this to SingularDenominator
        (x,) = Dual.seed([0.0])
        with pytest.raises(ZeroDivisionError):
            dsqrt(x)


class TestOneHot:
    """One-hot duals against the dense operators on their dense form, value for value."""

    def test_seed(self):
        d = OneHot.seed([2.0, 3.0])
        assert (d[1].val, d[1].k, d[1].d, d[1].n) == (3.0, 1, 1.0, 2)
        assert type(d[1].eps) is list and d[1].eps == [0.0, 1.0] == Dual.seed([2.0, 3.0])[1].eps

    @pytest.mark.parametrize("partner", ["same", "other", "dense", "complex", "float"])
    @pytest.mark.parametrize("op", DUAL_OPS)
    @settings(max_examples=30)
    @given(x=away_from_zero, y=away_from_zero, dx=away_from_zero, dy=away_from_zero)
    def test_operation_matches_dense(self, op, partner, x, y, dx, dy):
        # a one-hot result where both operands depend on variable 0 alone,
        # a dense one otherwise; the partials agree exactly with the dense
        # operator's (== does not see the sign of a zero)
        f, _ = DUAL_OPS[op]
        xo = OneHot(x, 0, dx, 3)
        yo = {
            "same": OneHot(y, 0, dy, 3),
            "other": OneHot(y, 2, dy, 3),
            "dense": Dual(y, [dy, 0.5 * dy, -dy]),
            "complex": y,
            "float": y.real,
        }[partner]
        assume(abs(yo) >= 0.25)
        got = f(xo, yo)
        want = f(xo.dense(), yo.dense() if isinstance(yo, OneHot) else yo)
        assert type(got) is (Dual if partner in ("other", "dense") else OneHot)
        assert got.val == want.val and got.eps == want.eps

    @pytest.mark.parametrize("k", range(5))
    @given(x=away_from_zero, dx=away_from_zero)
    def test_power_and_sqrt_match_dense(self, k, x, dx):
        xo = OneHot(x, 1, dx, 3)
        for got, want in ((xo**k, xo.dense() ** k), (dsqrt(xo), dsqrt(xo.dense()))):
            assert type(got) is OneHot and got.val == want.val and got.eps == want.eps


class TestCompensatedArithmetic:
    def test_reciprocal_roundtrip(self):
        third = ddc_div(ddc(1.0), ddc(3.0))
        back = ddc_mul(third, ddc(3.0))
        assert abs(back[0] - 1.0) + abs(back[1]) < 1e-30

    def test_add_tracks_low_part(self):
        s = ddc_add(ddc(1.0), ddc(1e-20))
        assert s[0] == 1.0 and s[1] == 1e-20

    def test_integer_powers(self):
        p = ddc_powi(ddc(1.5), 10)
        assert abs(ddc_to_complex(p) - 1.5**10) < 1e-12
        pm = ddc_powi(ddc(2.0), -3)
        assert abs(ddc_to_complex(pm) - 0.125) < 1e-18

    def test_complex_mul(self):
        x = ddc(1.0 + 2.0j)
        y = ddc(3.0 - 1.0j)
        assert ddc_to_complex(ddc_mul(x, y)) == (1.0 + 2.0j) * (3.0 - 1.0j)

    def test_complex_mul_matches_composed_reference(self):
        # ddc_mul is the composition below written out inline: bit-identical
        def reference(x, y):
            ac = _dd_mul(x[0], x[1], y[0], y[1])
            bd = _dd_mul(x[2], x[3], y[2], y[3])
            ad = _dd_mul(x[0], x[1], y[2], y[3])
            bc = _dd_mul(x[2], x[3], y[0], y[1])
            return (*_dd_add(ac[0], ac[1], -bd[0], -bd[1]), *_dd_add(*ad, *bc))

        rng = np.random.default_rng(11)
        for _ in range(2000):
            hi = rng.uniform(-5.0, 5.0, 4) * 10.0 ** rng.integers(-8, 9, 4)
            lo = hi * rng.uniform(-1.0, 1.0, 4) * 1e-16
            x = (float(hi[0]), float(lo[0]), float(hi[1]), float(lo[1]))
            y = (float(hi[2]), float(lo[2]), float(hi[3]), float(lo[3]))
            assert ddc_mul(x, y) == reference(x, y)


# a complex double-double: a complex double plus a correction near its last
# bits, exact zeros (of either sign) drawn often
ddc_values = st.one_of(
    st.sampled_from([ddc(0.0), ddc(complex(-0.0, -0.0)), ddc(-1.0), ddc(-1j)]),
    st.builds(
        lambda hi, lo: ddc_add(ddc(hi), ddc(lo * 2.0**-60)),
        st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False),
        finite_complex,
    ),
)


def _bits(x):
    """The four doubles of a complex double-double as bytes, signs and nans included."""
    return struct.pack("4d", *x)


def _outcome(f, x, y):
    try:
        return _bits(f(x, y))
    except ZeroDivisionError as exc:
        return repr(exc)


# real words of either sign, tiny to huge, with and without a low word (one
# of them unnormalized); 1e305 overflows the operand split and 1e200 the
# squared divisor
_REAL_WORDS = [
    (hi, lo * abs(hi))
    for hi in (0.0, -0.0, 1.0, -1.0, 1e200, -1e200, 1e-200, -1e-200, 1.25, 1e305)
    for lo in (0.0, -0.0, 2.0**-60, -3.0 * 2.0**-58, 0.75)
] + [(math.inf, 0.0), (-math.inf, 0.0), (math.nan, 0.0)]
_PRIMITIVES = [
    (ddc_mul, expansion_reference.ddc_mul_general),
    (ddc_add, expansion_reference.ddc_add_general),
    (ddc_div, expansion_reference.ddc_div_general),
]


class TestRealCase:
    """ddc_mul, ddc_add and ddc_div against their general complex path, word for word."""

    @pytest.mark.parametrize("zeros", itertools.product((0.0, -0.0), repeat=4))
    @pytest.mark.parametrize("f, general", _PRIMITIVES, ids=["mul", "add", "div"])
    def test_signed_zero_imaginary_words(self, f, general, zeros):
        b, blo, d, dlo = zeros
        for (a, alo), (c, clo) in itertools.product(_REAL_WORDS, repeat=2):
            x, y = (a, alo, b, blo), (c, clo, d, dlo)
            assert _outcome(f, x, y) == _outcome(general, x, y), (x, y)

    @pytest.mark.parametrize("y", [(1e200, 0.0, 0.0, 0.0), (-1e160, 0.0, -0.0, 0.0)])
    def test_non_finite_quotient(self, y):
        # |y|^2 overflows: the general quotient is nan in all four words
        x = (1.5, 0.0, -0.0, 0.0)
        got = ddc_div(x, y)
        assert all(math.isnan(w) for w in got)
        assert _bits(got) == _bits(expansion_reference.ddc_div_general(x, y))

    @given(x=ddc_values, y=ddc_values)
    @settings(max_examples=500)
    @example(x=ddc(1j), y=ddc(1j))  # a zero imaginary numerator from complex operands
    @example(x=ddc(2.0), y=ddc(1.0 - 1j))
    @example(  # unnormalized real operands, whose product the real case renormalizes
        x=(0.01260770011367418, 0.006768658160037507, 0.0, 0.0),
        y=(-1.0797288214459728, -0.6960429657386336, -0.0, 0.0),
    )
    def test_drawn_operands(self, x, y):
        for f, general in _PRIMITIVES:
            assert _outcome(f, x, y) == _outcome(general, x, y)


class TestFusedHorner:
    """ddc_horner against the composed ddc_mul / ddc_add loop it writes out inline."""

    @given(coeffs=st.lists(ddc_values, min_size=1, max_size=13), z=finite_complex)
    @settings(max_examples=300)
    def test_bit_identical_on_drawn_coefficients(self, coeffs, z):
        got = ddc_horner(coeffs, z)
        assert _bits(got) == _bits(expansion_reference.ddc_horner(coeffs, z))

    @pytest.mark.parametrize("entry", REFERENCE["specs"], ids=lambda e: e["label"])
    def test_bit_identical_on_fixture_expansions(self, entry):
        coeffs = iso.families._expansion(spec_of(entry))[0]
        points = [complex(float(re), float(im)) for re, im in entry["zeros"]]
        points += [0j, 0.75 + 0j, -1.25 + 0.5j, 2.5 - 1.0j]
        for z in points:
            got = ddc_horner(coeffs, z)
            assert _bits(got) == _bits(expansion_reference.ddc_horner(coeffs, z)), z
