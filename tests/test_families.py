"""Family builders, zeros, variable lifts, defining equations, q->1 limit."""

import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import isospectra as iso
from isospectra import families
from isospectra.errors import (
    BranchPoint,
    InvalidParameters,
    RepeatedZeros,
    SingularSample,
)
from isospectra.families import Family, FamilySpec
from isospectra.numeric import Poly, ZeroSet, poly_roots

# frozen (see test_cli): Wilson parameters at a discriminant cusp -> double zero
WILSON_DEGENERATE = (-0.8580553427452533, -0.33251962240715427, 1.5, 2.0)


def spec_of(family, N, alphas=(), betas=(), q=None):
    return iso.make_spec(family, N, alphas, betas, q)


SAMPLE_SPECS = [
    spec_of("ghyp", 4, [1.7, 0.9], [2.3, 3.1]),
    spec_of("gbasic", 4, [1.7, 0.9], [2.3, 3.1], q=1.7),
    spec_of("wilson", 4, [0.7, 1.1, 1.6, 2.2]),
    spec_of("racah", 4, [1.1, 2.2, 0.8, 1.4]),
    spec_of("aw", 4, [0.6, 1.1, 1.7, 2.4], q=1.8),
    spec_of("qracah", 4, [1.1, 2.2, 0.8, 1.4], q=1.6),
    spec_of("jacobi", 4, [0.5, 1.0]),
]


class TestBuildPolynomial:
    def test_ghyp_N1(self):
        p = iso.build_polynomial(spec_of("ghyp", 1, [2.0], [3.0]))
        np.testing.assert_allclose(p.coeffs, [-2.0 / 3.0, 1.0])

    def test_gbasic_N1(self):
        p = iso.build_polynomial(spec_of("gbasic", 1, [3.0], [5.0], q=2.0))
        np.testing.assert_allclose(p.coeffs, [1.0, -0.25])

    def test_wilson_N1_all_half(self):
        p = iso.build_polynomial(spec_of("wilson", 1, [0.5] * 4))
        np.testing.assert_allclose(p.coeffs, [0.5, -2.0])

    def test_ghyp_monic(self):
        for n in range(1, 9):
            p = iso.build_polynomial(spec_of("ghyp", n, [1.3, 0.7], [2.1]))
            assert p.coeffs[-1] == 1.0

    @given(
        n=st.integers(min_value=1, max_value=6),
        alpha=st.floats(min_value=0.5, max_value=3.0),
        beta=st.floats(min_value=1.5, max_value=4.0),
    )
    @settings(deadline=None, max_examples=30)
    def test_ghyp_monic_property(self, n, alpha, beta):
        p = iso.build_polynomial(spec_of("ghyp", n, [alpha], [beta]))
        assert p.coeffs[-1] == 1.0

    def test_jacobi_legendre(self):
        # P_2^(0,0) = (3x^2 - 1)/2
        p = iso.build_polynomial(spec_of("jacobi", 2, [0.0, 0.0]))
        np.testing.assert_allclose(p.coeffs, [-0.5, 0.0, 1.5], atol=1e-15)

    def test_invalid_beta_pole(self):
        with pytest.raises(InvalidParameters):
            iso.build_polynomial(spec_of("ghyp", 3, [1.0], [-1.0]))

    def test_q_family_needs_q(self):
        with pytest.raises(InvalidParameters):
            iso.build_polynomial(spec_of("gbasic", 2, [1.5], [2.5]))

    def test_q_near_one_rejected(self):
        with pytest.raises(InvalidParameters):
            iso.build_polynomial(spec_of("gbasic", 2, [1.5], [2.5], q=1.0 + 1e-12))

    def test_gbasic_degenerate_leading_coefficient(self):
        # alpha = 1/q makes (alpha; q)_N vanish, dropping the degree
        with pytest.raises(InvalidParameters):
            iso.build_polynomial(spec_of("gbasic", 3, [0.5], [2.5], q=2.0))

    def test_four_param_count_enforced(self):
        with pytest.raises(InvalidParameters):
            iso.build_polynomial(spec_of("wilson", 2, [1.0, 2.0]))


# real dyadic parameters: exact in binary, inside each family's valid box for N = 1..8
EXACT_PARAMS = [
    ("ghyp", [1.25, 2.5], [1.75], None),
    ("gbasic", [1.5, 0.75], [2.25], 1.75),
    ("wilson", [0.5, 1.25, 0.75, 1.5], [], None),
    ("racah", [1.5, 1.25, 0.75, 1.125], [], None),
    ("aw", [0.875, 2.25, 2.875, 0.8125], [], 1.71875),
    ("qracah", [2.125, 1.25, 0.75, 1.375], [], 1.625),
    ("jacobi", [2.0, 1.5], [], None),
]


def _exact(x):
    """A complex double-double as an exact (re, im) pair of Fractions."""
    return Fraction(x[0]) + Fraction(x[1]), Fraction(x[2]) + Fraction(x[3])


def _exact_expansion(table, degree):
    """Monomial coefficients of the term table in exact rational arithmetic."""
    zero = (Fraction(0), Fraction(0))
    acc = [zero] * (degree + 1)
    for pref, factors in table:
        c = [_exact(pref)]
        for a, b in factors:
            (ar, ai), (br, bi) = _exact(a), _exact(b)
            nxt = [zero] * (len(c) + 1)
            for i, (cr, ci) in enumerate(c):
                r, m = nxt[i]
                nxt[i] = (r + ar * cr - ai * ci, m + ar * ci + ai * cr)
                r, m = nxt[i + 1]
                nxt[i + 1] = (r + br * cr - bi * ci, m + br * ci + bi * cr)
            c = nxt
        for i, (cr, ci) in enumerate(c):
            acc[i] = (acc[i][0] + cr, acc[i][1] + ci)
    return acc


class TestExpansionExact:
    """build_polynomial against an exact expansion of the same term table."""

    @pytest.mark.parametrize("family,alphas,betas,q", EXACT_PARAMS, ids=[p[0] for p in EXACT_PARAMS])
    def test_coefficients_correctly_rounded(self, family, alphas, betas, q):
        tol = Fraction(2 * np.finfo(float).eps)
        floor = Fraction(1e-300)
        for n in range(1, 9):
            spec = spec_of(family, n, alphas, betas, q)
            got = iso.build_polynomial(spec).coeffs
            want = _exact_expansion(families._term_table(spec), n)
            assert len(got) == n + 1
            for g, (wr, wi) in zip(got, want):
                assert abs(Fraction(g.real) - wr) <= tol * abs(wr) + floor, (n, g, float(wr))
                assert abs(Fraction(g.imag) - wi) <= tol * abs(wi) + floor, (n, g, float(wi))


# one case per denominator factor of the family sums (m! never vanishes)
DENOMINATOR_POLES = [
    ("(beta)_m", spec_of("ghyp", 3, [1.5], [-2.0]), "beta_1"),
    ("(q;q)_m gbasic", spec_of("gbasic", 3, [1.5], [2.5], q=-1.0), "(q; q)_m"),
    ("(beta;q)_m", spec_of("gbasic", 3, [1.5], [1.5**-2], q=1.5), "(beta_1; q)_m"),
    ("(q;q)_m aw", spec_of("aw", 3, [0.6, 1.1, 1.7, 2.4], q=-1.0), "(q; q)_m"),
    ("(q;q)_m qracah", spec_of("qracah", 3, [1.1, 2.2, 0.8, 1.4], q=-1.0), "(q; q)_m"),
    ("(alpha+1)_n", spec_of("racah", 3, [-2.0, 2.2, 0.8, 1.4]), "(alpha+1)_n"),
    ("(beta+delta+1)_n", spec_of("racah", 3, [1.1, -1.5, 0.8, -0.5]), "(beta+delta+1)_n"),
    ("(gamma+1)_n", spec_of("racah", 3, [1.1, 2.2, -3.0, 1.4]), "(gamma+1)_n"),
    ("(alpha q;q)_m", spec_of("qracah", 3, [1.6**-2, 2.2, 0.8, 1.4], q=1.6), "(alpha q; q)_m"),
    ("(beta delta q;q)_m", spec_of("qracah", 3, [1.1, 1.6**-3, 0.8, 1.0], q=1.6),
     "(beta delta q; q)_m"),
    ("(gamma q;q)_m", spec_of("qracah", 3, [1.1, 2.2, 1.6**-1, 1.4], q=1.6), "(gamma q; q)_m"),
]


@pytest.mark.parametrize("spec,label", [c[1:] for c in DENOMINATOR_POLES],
                         ids=[c[0] for c in DENOMINATOR_POLES])
def test_validate_rejects_vanishing_denominator(spec, label):
    with pytest.raises(InvalidParameters, match=re.escape(label)):
        families.validate_spec(spec)


class TestStructuredEval:
    @pytest.mark.parametrize("spec", SAMPLE_SPECS, ids=lambda s: s.family.value)
    def test_matches_expanded_polynomial(self, spec):
        p = iso.build_polynomial(spec)
        rng = np.random.default_rng(0)
        for _ in range(5):
            z = rng.uniform(0.3, 2.0) * np.exp(2j * np.pi * rng.uniform())
            val, dval, _ = families.structured_eval(spec, z)
            ref = p(z)
            assert abs(val - ref) <= 1e-8 * max(1.0, abs(ref))
            h = 1e-6
            fd = (p(z + h) - p(z - h)) / (2 * h)
            assert abs(dval - fd) <= 1e-5 * max(1.0, abs(fd))


def _exact_value(coeffs, z):
    """Horner in exact rational arithmetic: sum_k coeffs[k] z^k for a dyadic z."""
    zr, zi = Fraction(z.real), Fraction(z.imag)
    vr, vi = Fraction(0), Fraction(0)
    for cr, ci in reversed(coeffs):
        vr, vi = vr * zr - vi * zi + cr, vr * zi + vi * zr + ci
    return vr, vi


class TestEvaluationBound:
    """structured_eval's value against the exact sum of the term table, within its bound."""

    @pytest.mark.parametrize("family,alphas,betas,q", EXACT_PARAMS, ids=[p[0] for p in EXACT_PARAMS])
    def test_value_within_bound(self, family, alphas, betas, q):
        for n in range(1, 13):
            spec = spec_of(family, n, alphas, betas, q)
            coeffs = _exact_expansion(families._term_table(spec), n)
            roots = np.roots([complex(float(r), float(i)) for r, i in reversed(coeffs)])
            # dyadic points next to the zeros, where the sum cancels most, and off them
            points = [complex(round(z.real * 2**30), round(z.imag * 2**30)) / 2**30 for z in roots]
            points += [0.75 + 0j, -1.25 + 0.5j, 2.5 - 1.0j]
            for z in points:
                val, _, bound = families.structured_eval(spec, z)
                er, ei = _exact_value(coeffs, z)
                dr, di = Fraction(val.real) - er, Fraction(val.imag) - ei
                assert dr * dr + di * di <= Fraction(bound) ** 2, (n, z, val, float(er))


class TestRefineZeros:
    @pytest.mark.parametrize("spec", SAMPLE_SPECS, ids=lambda s: s.family.value)
    def test_stops_at_rounding_level(self, spec, monkeypatch):
        zs = poly_roots(iso.build_polynomial(spec))
        assert zs.max_poly_residual <= 1e-12
        roots = zs.zeros
        evaluations = []
        structured_eval = families.structured_eval
        monkeypatch.setattr(
            families, "structured_eval", lambda *a: evaluations.append(1) or structured_eval(*a)
        )
        refined, worst = families.refine_zeros(spec, roots)
        monkeypatch.undo()
        # a root whose step alternates between neighbouring doubles used to
        # take all 12 steps plus one more evaluation
        assert len(evaluations) <= 3 * len(roots)
        # the estimate is the larger of the relative Newton step and the
        # evaluation's error bound carried to z, at the returned roots
        fresh = 0.0
        for z in refined:
            val, dval, bound = families.structured_eval(spec, z)
            step = abs(val / dval) / (1.0 + abs(z))
            fresh = max(fresh, step, bound / abs(dval) / (1.0 + abs(z)))
        assert worst == fresh


class TestComputeZeros:
    def test_ghyp_single_zero(self):
        zs = iso.compute_zeros(spec_of("ghyp", 1, [2.0], [3.0]))
        np.testing.assert_allclose(zs.zeros, [2.0 / 3.0])

    def test_gbasic_single_zero(self):
        zs = iso.compute_zeros(spec_of("gbasic", 1, [3.0], [5.0], q=2.0))
        np.testing.assert_allclose(zs.zeros, [4.0])

    def test_legendre_zeros(self):
        # oracle: explicit quadratic 3x^2 - 1
        zs = iso.compute_zeros(spec_of("jacobi", 2, [0.0, 0.0]))
        np.testing.assert_allclose(zs.zeros, [-1 / np.sqrt(3), 1 / np.sqrt(3)], atol=1e-14)

    def test_zero_residual_invariant(self):
        for spec in SAMPLE_SPECS:
            p = iso.build_polynomial(spec)
            zs = iso.compute_zeros(spec)
            worst = max(abs(p(z)) for z in zs.zeros)
            assert worst <= 1e-9 * np.max(np.abs(p.coeffs))

    def test_repeated_zeros_detected(self):
        with pytest.raises(RepeatedZeros):
            iso.compute_zeros(spec_of("wilson", 2, WILSON_DEGENERATE))

    def test_sorted_output(self):
        zs = iso.compute_zeros(spec_of("wilson", 4, [0.7, 1.1, 1.6, 2.2]))
        order = np.lexsort((zs.zeros.imag, zs.zeros.real))
        assert (order == np.arange(len(zs.zeros))).all()


class TestLiftZeroVariables:
    def test_wilson_sqrt(self):
        zs = ZeroSet(np.array([0.25 + 0j]), np.inf, 0.0)
        lifted = iso.lift_zero_variables(spec_of("wilson", 1, [0.5] * 4), zs)
        np.testing.assert_allclose(lifted.zeros, [0.5])

    def test_racah_theta_shift(self):
        # theta = (gamma + delta + 1)/2 = 1 -> y = sqrt(0 + 1) = 1
        spec = spec_of("racah", 1, [1.0, 1.0, 0.5, 0.5])
        zs = ZeroSet(np.array([0.0 + 0j]), np.inf, 0.0)
        lifted = iso.lift_zero_variables(spec, zs)
        np.testing.assert_allclose(lifted.zeros, [1.0])

    def test_aw_unit(self):
        spec = spec_of("aw", 1, [0.5, 0.6, 0.7, 0.8], q=1.5)
        zs = ZeroSet(np.array([1.0 + 0j]), np.inf, 0.0)
        lifted = iso.lift_zero_variables(spec, zs)
        np.testing.assert_allclose(lifted.zeros, [1.0])

    def test_qracah_companions(self):
        spec = spec_of("qracah", 1, [1.1, 2.2, 0.8, 1.4], q=1.6)
        z = 9.0 + 0.5j
        lifted = iso.lift_zero_variables(spec, ZeroSet(np.array([z]), np.inf, 0.0))
        assert len(lifted.zeros) == 2
        zp, zm = lifted.zeros
        assert abs(zp - families.qracah_shift(spec, z, +1)) < 1e-14
        assert abs(zm - families.qracah_shift(spec, z, -1)) < 1e-14

    def test_racah_branch_ignores_rounding_noise(self):
        # real zeros with z + theta^2 < 0 carry Im noise of either sign; the
        # principal root must not follow it (here y = +3.80i, not -3.80i)
        spec = spec_of("racah", 4, [1.1, 2.2, 0.8, 1.4])
        z = iso.compute_zeros(spec).zeros.real
        assert np.any(z + families.racah_theta(spec).real ** 2 < 0)
        up, down = (
            iso.lift_zero_variables(spec, ZeroSet(z + 1j * noise, np.inf, 0.0)).zeros
            for noise in (1e-50, -1e-50)
        )
        np.testing.assert_array_equal(up, down)
        assert np.all(up.imag >= 0)

    def test_wilson_branch_keeps_true_imaginary_parts(self):
        spec = spec_of("wilson", 1, [0.5] * 4)

        def lift(z):
            return iso.lift_zero_variables(spec, ZeroSet(np.array([z]), np.inf, 0.0)).zeros[0]

        assert lift(-4.0 + 1e-50j) == lift(-4.0 - 1e-50j) == 2j
        assert abs(lift(-4.0 - 1e-6j) + 2j) < 1e-6

    def test_wilson_branch_point(self):
        with pytest.raises(BranchPoint):
            iso.lift_zero_variables(
                spec_of("wilson", 1, [0.5] * 4), ZeroSet(np.array([0.0 + 0j]), np.inf, 0.0)
            )

    def test_wilson_roundtrip(self):
        spec = spec_of("wilson", 3, [0.7, 1.1, 1.6, 2.2])
        zs = iso.compute_zeros(spec)
        lifted = iso.lift_zero_variables(spec, zs)
        np.testing.assert_allclose(lifted.zeros**2, zs.zeros, rtol=1e-12)


class TestDefiningEquation:
    @pytest.mark.parametrize("spec", SAMPLE_SPECS, ids=lambda s: s.family.value)
    def test_solution_residual_small(self, spec):
        assert iso.max_defining_residual(spec, count=10, seed=7) <= 1e-9

    @pytest.mark.parametrize("spec", SAMPLE_SPECS, ids=lambda s: s.family.value)
    def test_perturbed_polynomial_detected(self, spec):
        base = iso.jacobi_to_ghyp(spec) if spec.family == Family.JACOBI else spec
        p = iso.build_polynomial(base)
        coeffs = p.coeffs.copy()
        coeffs[1] *= 1.0 + 1e-3
        rng = np.random.default_rng(7)
        samples = families.residual_samples(base, 10, rng)
        worst = max(
            abs(families.defining_equation_residual(base, s, poly=Poly(coeffs)))
            for s in samples
        )
        assert worst > 1e-6

    def test_ghyp_hand_case(self):
        # operator on z - 2/3 with (alpha, beta) = (2, 3) vanishes identically
        spec = spec_of("ghyp", 1, [2.0], [3.0])
        assert abs(families.defining_equation_residual(spec, 1.0)) < 1e-14

    def test_singular_sample_rejected(self):
        spec = spec_of("wilson", 2, [0.7, 1.1, 1.6, 2.2])
        with pytest.raises(SingularSample):
            families.defining_equation_residual(spec, 0.5j)

    def test_aw_singular_sample_rejected(self):
        spec = spec_of("aw", 2, [0.6, 1.1, 1.7, 2.4], q=1.8)
        with pytest.raises(SingularSample):
            families.defining_equation_residual(spec, 1.0)


class TestQToOneLimit:
    def test_small_deviation(self):
        spec = spec_of("ghyp", 3, [1.2], [1.8])
        assert iso.q_to_one_limit_check(spec, 1.001) <= 0.01

    def test_linear_rate(self):
        spec = spec_of("ghyp", 3, [1.2], [1.8])
        d1 = iso.q_to_one_limit_check(spec, 1.001)
        d2 = iso.q_to_one_limit_check(spec, 1.0001)
        assert 5.0 <= d1 / d2 <= 20.0

    def test_degree_zero_edge(self):
        spec = FamilySpec(Family.GHYP, 0, ((1.2 + 0j),), ((1.8 + 0j),), None)
        assert iso.q_to_one_limit_check(spec, 1.001) == 0.0

    def test_rejects_far_q(self):
        spec = spec_of("ghyp", 2, [1.2], [1.8])
        with pytest.raises(InvalidParameters):
            iso.q_to_one_limit_check(spec, 1.5)


class TestEvenness:
    def test_wilson_poly_even_in_x(self):
        spec = spec_of("wilson", 3, [0.7, 1.1, 1.6, 2.2])
        p = iso.build_polynomial(spec)
        rng = np.random.default_rng(1)
        for _ in range(10):
            x = rng.standard_normal() + 1j * rng.standard_normal()
            w_plus = p(x * x)
            w_minus = p((-x) * (-x))
            assert abs(w_plus - w_minus) <= 1e-10 * max(1.0, abs(w_plus))

    def test_racah_poly_even_in_y(self):
        spec = spec_of("racah", 3, [1.1, 2.2, 0.8, 1.4])
        p = iso.build_polynomial(spec)
        t2 = families.racah_theta(spec) ** 2
        rng = np.random.default_rng(2)
        for _ in range(10):
            y = rng.standard_normal() + 1j * rng.standard_normal()
            assert abs(p(y * y - t2) - p(y * y - t2)) == 0.0
            # evenness in y is automatic through y^2; check the lifted form
            qy = p(y**2 - t2)
            qmy = p((-y) ** 2 - t2)
            assert qy == qmy
