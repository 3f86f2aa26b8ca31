"""Coefficient systems, nonlinear zero systems, RK4, and the algebraic oracle."""

import cmath

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import isospectra as iso
import rhs_reference
from isospectra import dynamics, families
from isospectra.errors import Collision, DivideByZeroVariable, SingularA, SingularDenominator
from isospectra.numeric import Dual, multiset_match

DYNAMICS_SPECS = [
    iso.make_spec("ghyp", 4, [1.7], [2.3]),
    iso.make_spec("gbasic", 4, [1.7], [2.3], q=1.5),
    iso.make_spec("wilson", 4, [0.7, 1.1, 1.6, 2.2]),
    iso.make_spec("racah", 4, [1.1, 2.2, 0.8, 1.4]),
    iso.make_spec("aw", 4, [0.6, 1.1, 1.7, 1.4], q=1.4),
    iso.make_spec("qracah", 4, [1.1, 2.2, 0.8, 1.4], q=1.4),
]

# the README demo specs, one per family
DEMO_SPECS = DYNAMICS_SPECS + [iso.make_spec("jacobi", 4, [0.5, 1.0])]

TIME_FACTOR = {"ghyp": 1.0, "gbasic": 1.0, "wilson": 1j, "racah": 1j, "aw": 1.0, "qracah": 1.0}


def perturbed_start(spec, perturb=1e-3, seed=5):
    zs = iso.compute_zeros(spec)
    start = dynamics.to_dynamics_variable(spec, zs.zeros)
    rng = np.random.default_rng(seed)
    return start + perturb * (
        rng.uniform(-1, 1, len(start)) + 1j * rng.uniform(-1, 1, len(start))
    )


class TestCSystem:
    def test_ghyp_N1(self):
        cs = dynamics.c_system(iso.make_spec("ghyp", 1, [2.0], [3.0]))
        np.testing.assert_allclose(cs.A, [[3.0]])
        np.testing.assert_allclose(cs.h, [2.0])
        assert cs.time_factor == 1.0

    def test_ghyp_pedagogical_entries(self):
        # diag m(beta-1+m), subdiag (N+1-m)(alpha-1+m), h = (N alpha, 0, ...)
        al, be, n = 1.7, 2.3, 4
        cs = dynamics.c_system(iso.make_spec("ghyp", n, [al], [be]))
        for m in range(1, n + 1):
            assert abs(cs.A[m - 1, m - 1] - m * (be - 1 + m)) < 1e-14
            if m > 1:
                assert abs(cs.A[m - 1, m - 2] - (n + 1 - m) * (al - 1 + m)) < 1e-14
        assert abs(cs.h[0] - n * al) < 1e-14

    def test_wilson_rate(self):
        # m = 1, N = 2: i * 1 * (4 - 1 + sigma - 1)
        a = [0.7, 1.1, 1.6, 2.2]
        cs = dynamics.c_system(iso.make_spec("wilson", 2, a))
        assert cs.time_factor == 1j
        assert abs(cs.A[0, 0] - (4 - 1 + sum(a) - 1)) < 1e-14

    def test_aw_degenerate_rate(self):
        # abcd q^(2N-1-m) = 1 kills the m = 1 rate at N = 1, q = 2, abcd = 1;
        # that same condition degenerates the polynomial's leading coefficient,
        # so spec validation refuses to build the full system
        spec = iso.make_spec("aw", 1, [1.0, 1.0, 1.0, 1.0], q=2.0)
        lam = iso.closed_form_spectrum(spec)
        assert abs(lam.values[0]) < 1e-14
        with pytest.raises(iso.InvalidParameters):
            dynamics.c_system(spec)

    def test_gbasic_follows_formula(self):
        spec = iso.make_spec("gbasic", 3, [1.7], [2.3], q=1.5)
        cs = dynamics.c_system(spec)
        q, n = 1.5, 3
        for m in range(1, n + 1):
            want = -(q ** (0 * (n - m))) * (q ** (-m) - 1) * (1.7 * q ** (n - m) - 1)
            assert abs(cs.A[m - 1, m - 1] - want) < 1e-14

    def test_jacobi_maps_to_ghyp(self):
        spec = iso.make_spec("jacobi", 3, [0.5, 1.0])
        cs = dynamics.c_system(spec)
        ref = dynamics.c_system(iso.jacobi_to_ghyp(spec))
        np.testing.assert_allclose(cs.A, ref.A)


class TestSolveC:
    def test_time_zero(self):
        cs = dynamics.c_system(iso.make_spec("ghyp", 3, [1.7], [2.3]))
        c0 = np.array([0.3, -0.2, 0.1], dtype=complex)
        np.testing.assert_allclose(dynamics.solve_c(cs, c0, 0.0), c0, atol=1e-14)

    def test_fixed_point(self):
        cs = dynamics.c_system(iso.make_spec("ghyp", 3, [1.7], [2.3]))
        cp = np.linalg.solve(cs.A, -cs.h)
        np.testing.assert_allclose(dynamics.solve_c(cs, cp, 0.7), cp, rtol=1e-10)

    def test_scalar_closed_form(self):
        # c1(t) = (c1(0) + alpha/beta) e^(beta t) - alpha/beta
        al, be = 2.0, 3.0
        cs = dynamics.c_system(iso.make_spec("ghyp", 1, [al], [be]))
        c0 = np.array([0.4 + 0.1j])
        t = 0.37
        want = (c0[0] + al / be) * np.exp(be * t) - al / be
        got = dynamics.solve_c(cs, c0, t)[0]
        assert abs(got - want) < 1e-12 * abs(want)

    def test_modal_matches_rk4_fallback(self):
        spec = iso.make_spec("ghyp", 4, [1.7], [2.3])
        cs = dynamics.c_system(spec)
        rng = np.random.default_rng(0)
        c0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        exact = dynamics.solve_c(cs, c0, 0.3)
        # force the RK4 path through a confluent copy
        squeezed = dynamics.CSystem(
            A=cs.A.copy(), h=cs.h.copy(), time_factor=cs.time_factor, diagonal=False
        )
        squeezed.A[1, 1] = squeezed.A[0, 0]  # duplicate eigenvalue
        rk = dynamics.solve_c(squeezed, c0, 0.3)
        assert np.all(np.isfinite(rk))
        # and the modal path must agree with tiny-step RK4 on the original
        steps = 3000
        c = c0.copy()
        h = 0.3 / steps
        for _ in range(steps):
            k1 = cs.A @ c + cs.h
            k2 = cs.A @ (c + 0.5 * h * k1) + cs.h
            k3 = cs.A @ (c + 0.5 * h * k2) + cs.h
            k4 = cs.A @ (c + h * k3) + cs.h
            c = c + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        assert np.max(np.abs(c - exact)) <= 1e-8 * max(1.0, np.max(np.abs(exact)))

    def test_singular_A_with_drive(self):
        cs = dynamics.CSystem(
            A=np.zeros((2, 2), dtype=complex),
            h=np.array([1.0, 0.0], dtype=complex),
            time_factor=1.0,
            diagonal=False,
        )
        with pytest.raises(SingularA):
            dynamics.solve_c(cs, np.zeros(2, dtype=complex), 1.0)


class TestNonlinearRHS:
    def test_ghyp_N1_explicit(self):
        spec = iso.make_spec("ghyp", 1, [2.0], [3.0])
        for z in (0.4 + 0.2j, -1.3):
            got = dynamics.nonlinear_rhs(spec, [z])[0]
            assert abs(got - (-2.0 + 3.0 * z)) < 1e-13

    def test_ghyp_matches_pedagogical_formula(self):
        # fg-machinery route vs the explicit display, at random points
        al, be, n = 1.7, 2.3, 5
        spec = iso.make_spec("ghyp", n, [al], [be])
        rng = np.random.default_rng(9)
        for _ in range(5):
            z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            got = dynamics.nonlinear_rhs(spec, z)
            for i in range(n):
                s = sum(z[m] / (z[i] - z[m]) for m in range(n) if m != i)
                want = n - 1 - al + be * z[i] + 2 * (1 - z[i]) * s
                assert abs(got[i] - want) <= 1e-12 * max(1.0, abs(want))

    def test_wilson_N1_reduction(self):
        # xdot = -i (s3 - s1 x^2) / (2x)
        a = [0.5, 0.5, 0.5, 0.5]
        spec = iso.make_spec("wilson", 1, a)
        s1, _, s3, _ = families.wilson_sym(spec)
        for x in (0.3, 0.8 + 0.1j):
            got = dynamics.nonlinear_rhs(spec, [x])[0]
            want = -1j * (s3 - s1 * x * x) / (2 * x)
            assert abs(got - want) < 1e-12

    @pytest.mark.parametrize("spec", DYNAMICS_SPECS, ids=lambda s: s.family.value)
    def test_equilibrium_at_zeros(self, spec):
        zs = iso.compute_zeros(spec)
        assert dynamics.equilibrium_residual(spec, zs) <= 1e-8

    @pytest.mark.parametrize("spec", DYNAMICS_SPECS, ids=lambda s: s.family.value)
    def test_perturbed_zeros_not_equilibrium(self, spec):
        zs = iso.compute_zeros(spec)
        assert dynamics.equilibrium_residual(spec, zs.zeros + 1e-3) >= 1e-5

    def test_wilson_brace_even_in_x(self):
        # 2 x_n xdot_n is an even function under global negation
        spec = iso.make_spec("wilson", 3, [0.7, 1.1, 1.6, 2.2])
        rng = np.random.default_rng(3)
        x = rng.standard_normal(3) + 0.3j * rng.standard_normal(3)
        f_pos = 2 * x * dynamics.nonlinear_rhs(spec, x)
        f_neg = 2 * (-x) * dynamics.nonlinear_rhs(spec, -x)
        assert np.max(np.abs(f_pos - f_neg)) <= 1e-12 * max(1.0, np.max(np.abs(f_pos)))

    def test_racah_brace_even_in_y(self):
        spec = iso.make_spec("racah", 3, [1.1, 2.2, 0.8, 1.4])
        rng = np.random.default_rng(4)
        y = rng.standard_normal(3) + 0.3j * rng.standard_normal(3)
        f_pos = 2 * y * dynamics.nonlinear_rhs(spec, y)
        f_neg = 2 * (-y) * dynamics.nonlinear_rhs(spec, -y)
        assert np.max(np.abs(f_pos - f_neg)) <= 1e-12 * max(1.0, np.max(np.abs(f_pos)))

    def test_aw_invariant_under_lift_inversion(self):
        # z -> 1/z preserves x = (z + 1/z)/2, so the RHS in x is unchanged;
        # check by negating the square root branch explicitly
        spec = iso.make_spec("aw", 3, [0.6, 1.1, 1.7, 1.4], q=1.4)
        rng = np.random.default_rng(5)
        x = rng.uniform(-0.9, 0.9, 3) + 0.05j * rng.standard_normal(3)
        z = x + np.sqrt(x * x - 1.0)
        direct = dynamics.nonlinear_rhs(spec, x)

        def rhs_from_z(zv):
            pref = (spec.q - 1.0) / (2.0 * spec.q ** float(spec.N))
            out = np.zeros(len(zv), dtype=complex)
            for n in range(len(zv)):
                prod_a = np.prod(
                    [families.aw_K(spec.q, zv[n], zv[m]) for m in range(len(zv)) if m != n]
                )
                prod_b = np.prod(
                    [
                        families.aw_K(spec.q, 1 / zv[n], 1 / zv[m])
                        for m in range(len(zv))
                        if m != n
                    ]
                )
                out[n] = pref * (
                    families.aw_G(spec, zv[n]) * prod_a
                    + families.aw_G(spec, 1 / zv[n]) * prod_b
                )
            return out

        inverted = rhs_from_z(1.0 / z)
        assert np.max(np.abs(direct - inverted)) <= 1e-12 * max(1.0, np.max(np.abs(direct)))

    def test_collision_guard(self):
        spec = iso.make_spec("ghyp", 2, [1.7], [2.3])
        with pytest.raises(Collision):
            dynamics.nonlinear_rhs(spec, [1.0, 1.0 + 1e-12])

    def test_wilson_axis_guard(self):
        spec = iso.make_spec("wilson", 2, [0.7, 1.1, 1.6, 2.2])
        with pytest.raises(DivideByZeroVariable):
            dynamics.nonlinear_rhs(spec, [1e-9, 1.0])


class TestIntegrate:
    def test_zero_horizon(self):
        spec = iso.make_spec("ghyp", 3, [1.7], [2.3])
        z0 = perturbed_start(spec)
        times, traj = dynamics.integrate(spec, z0, 0.0, 5)
        np.testing.assert_allclose(traj[-1], z0)

    def test_equilibrium_is_stationary(self):
        spec = iso.make_spec("ghyp", 3, [1.7], [2.3])
        z0 = dynamics.to_dynamics_variable(spec, iso.compute_zeros(spec).zeros)
        _, traj = dynamics.integrate(spec, z0, 0.5, 500)
        assert np.max(np.abs(traj[-1] - z0)) <= 1e-9

    def test_scalar_closed_form(self):
        # zdot = -1 + z from z0 = 0: z(t) = 1 - e^t
        spec = iso.make_spec("ghyp", 1, [1.0], [1.0])
        _, traj = dynamics.integrate(spec, [0.0], 1.0, 2000)
        assert abs(traj[-1][0] - (1.0 - np.e)) < 1e-10


class TestAlgebraicSolution:
    @pytest.mark.parametrize("spec", DYNAMICS_SPECS, ids=lambda s: s.family.value)
    def test_time_zero_roundtrip(self, spec):
        z0 = perturbed_start(spec)
        back = dynamics.algebraic_solution(spec, z0, 0.0)
        assert np.max(np.abs(back - z0)) <= 1e-9

    def test_ghyp_N1_trajectory_is_minus_c1(self):
        spec = iso.make_spec("ghyp", 1, [2.0], [3.0])
        cs = dynamics.c_system(spec)
        z0 = np.array([0.5 + 0.2j])
        for t in (0.1, 0.45):
            c1 = dynamics.solve_c(cs, -z0, t)  # c1(0) = -z1(0)
            got = dynamics.algebraic_solution(spec, z0, t)
            assert abs(got[0] + c1[0]) < 1e-10

    @pytest.mark.parametrize("spec", DYNAMICS_SPECS, ids=lambda s: s.family.value)
    def test_consistency_triangle(self, spec):
        rec = dynamics.evolve_compare(spec, perturbed_start(spec), 0.5, 2000, record_every=40)
        assert rec.max_deviation <= 1e-6

    def test_jacobi_consistency(self):
        spec = iso.make_spec("jacobi", 3, [0.5, 1.0])
        rec = dynamics.evolve_compare(spec, perturbed_start(spec), 0.5, 2000, record_every=40)
        assert rec.max_deviation <= 1e-6


LINEARIZATION_SPECS = [
    # like DYNAMICS_SPECS, but steering clear of clustered spectra: resolving
    # a near-degenerate eigenvalue pair through an FD Jacobian plus the
    # characteristic polynomial is hopeless, and the modal argument being
    # tested assumes distinct eigenvalues in the first place
    iso.make_spec("ghyp", 4, [1.7], [2.3]),
    iso.make_spec("gbasic", 4, [2.0], [2.3], q=1.4),
    iso.make_spec("wilson", 4, [0.7, 1.1, 1.6, 2.2]),
    iso.make_spec("racah", 4, [1.1, 2.2, 0.8, 1.4]),
    iso.make_spec("aw", 4, [0.6, 1.1, 1.7, 1.4], q=1.4),
    iso.make_spec("qracah", 4, [1.1, 2.2, 0.8, 1.4], q=1.4),
]


class TestLinearization:
    @pytest.mark.parametrize("spec", LINEARIZATION_SPECS, ids=lambda s: s.family.value)
    def test_spectrum_matches_closed_form(self, spec):
        zs = iso.compute_zeros(spec)
        zdyn = dynamics.to_dynamics_variable(spec, zs.zeros)
        jac = dynamics.linearization_matrix(spec, zdyn)
        lam = iso.closed_form_spectrum(spec).values
        tf = TIME_FACTOR[spec.family.value]
        ev = iso.matrix_eigenvalues(jac)
        # exact Jacobian: worst is gbasic at 1.5e-11, set by its eigenvector
        # conditioning (8e3), not by the derivative
        assert multiset_match(ev, tf * lam) <= 1e-8


def spiral(n, scale, turn, jitter):
    """n points on a jittered spiral with radii 0.25 * scale apart: every pair stays separated."""
    return [scale * ((1 + 0.25 * k) * cmath.exp(1j * (turn + 2.4 * k)) + jitter[k]) for k in range(n)]


def parts(v):
    """A complex scalar as [v], a Dual as [value, *partials]."""
    return np.array([v.val, *v.eps] if isinstance(v, Dual) else [v], dtype=complex)


def assert_within_terms(got, want, terms, rel=1e-13):
    """|got - want| <= rel * the largest |term|, in the value and in every partial."""
    scale = np.max(np.abs([parts(t) for t in terms]), axis=0)
    assert np.all(np.abs(parts(got) - parts(want)) <= rel * scale), (got, want)


spiral_args = dict(
    scale=st.floats(0.3, 1.0),
    turn=st.floats(0.0, 2 * np.pi),
    jitter=st.lists(st.complex_numbers(max_magnitude=0.05), min_size=12, max_size=12),
)


class TestPairPrimitives:
    """The pair-symmetric recursion and exclusion product against the
    division-per-ordered-pair copies in rhs_reference, on complex and on
    Dual.seed inputs; N = 1 has an empty pair table."""

    @pytest.mark.parametrize("n", range(1, 13))
    def test_pair_reciprocals(self, n):
        z = spiral(n, 0.7, 0.3, [0.01j] * 12)
        inv = dynamics.pair_reciprocals(z)
        for i in range(n):
            assert inv[i][i] is None
            for ell in range(n):
                if ell != i:
                    assert inv[i][ell] == -inv[ell][i]
                    want = 1.0 / (z[i] - z[ell])
                    assert abs(inv[i][ell] - want) <= 2 * np.finfo(float).eps * abs(want)

    @pytest.mark.parametrize("dual", [False, True], ids=["complex", "dual"])
    @pytest.mark.parametrize("n", range(1, 13))
    @settings(max_examples=5, deadline=None)
    @given(**spiral_args)
    def test_fg_recursion_matches_reference(self, n, dual, scale, turn, jitter):
        z = spiral(n, scale, turn, jitter)
        zeta = Dual.seed(z) if dual else z
        J = 4
        got_f, got_g = dynamics.fg_recursion(zeta, J)
        want_f, want_g = rhs_reference.fg_recursion(zeta, J)
        for j in range(1, J + 1):
            fj = want_f[j]
            for i, zi in enumerate(zeta):
                if j < J:
                    terms = [-fj[i]] + [
                        (zi * fj[ell] + zl * fj[i]) / (zi - zl) for ell, zl in enumerate(zeta) if ell != i
                    ]
                    assert_within_terms(got_f[j + 1][i], want_f[j + 1][i], terms)
                terms = [0.0 * zi] + [(fj[i] + fj[ell]) / (zi - zl) for ell, zl in enumerate(zeta) if ell != i]
                assert_within_terms(got_g[j][i], want_g[j][i], terms)

    @pytest.mark.parametrize("dual", [False, True], ids=["complex", "dual"])
    @pytest.mark.parametrize("n", range(1, 13))
    @settings(max_examples=5, deadline=None)
    @given(**spiral_args, q=st.floats(1.3, 2.5))
    def test_basic_f_matches_reference(self, n, dual, scale, turn, jitter, q):
        # the product's terms, for the partials, are the product rule's:
        # P * d(log factor_l), one per factor
        z = spiral(n, scale, turn, jitter)
        zeta = Dual.seed(z) if dual else z
        inv = dynamics.pair_reciprocals(zeta)
        for i, zi in enumerate(zeta):
            for s in (q * zi, zi / q, q * q * zi, 0.3 + 0.2j):
                want = rhs_reference.basic_f(s, zeta, i)
                got = dynamics.basic_f(s, zeta, i, inv[i])
                if not isinstance(want, Dual):  # complex inputs, or the empty product
                    assert abs(got - want) <= 1e-13 * abs(want)
                    continue
                factors = [(s - zl) / (zi - zl) for ell, zl in enumerate(zeta) if ell != i]
                log_derivs = [[e / fl.val for e in fl.eps] for fl in factors]
                eps_scale = abs(want.val) * np.max(np.abs(log_derivs), axis=0)
                assert abs(got.val - want.val) <= 1e-13 * abs(want.val)
                assert np.all(np.abs(np.subtract(got.eps, want.eps)) <= 1e-13 * eps_scale)


class TestScalarKernels:
    """The Python-scalar builders against the loop-over-numpy reference copies."""

    @pytest.mark.parametrize("n", [1, 2, 4, 8, 12])
    @pytest.mark.parametrize("base", DEMO_SPECS, ids=lambda s: s.family.value)
    @settings(max_examples=25, deadline=None)
    @given(**spiral_args)
    def test_terms_match_reference(self, base, n, scale, turn, jitter):
        spec = iso.make_spec(base.family, n, base.alphas, base.betas, base.q)
        # radii stay below 4 because the aw lift x + sqrt(x^2 - 1) cancels
        # like |x|^2 for Re x < 0, which both versions inherit
        z = np.array(spiral(n, scale, turn, jitter))
        assume(spec.family != families.Family.JACOBI or np.min(np.abs(1.0 - z)) > 0.05)
        with np.errstate(all="ignore"):
            want = rhs_reference.rhs_terms(spec, z)
        assume(np.all(np.isfinite(want)))  # e.g. aw at x = 1: see test_singular_state
        got = dynamics.rhs_terms(spec, z)
        assert got.shape == want.shape
        scale_rows = np.max(np.abs(want), axis=1, keepdims=True)
        assert np.all(np.abs(got - want) <= 1e-13 * scale_rows)

    @pytest.mark.parametrize(
        "spec, z",
        [
            (iso.make_spec("aw", 2, [0.6, 1.1, 1.7, 1.4], q=1.4), [1.0, 0.3]),
            (iso.make_spec("wilson", 2, [0.7, 1.1, 1.6, 2.2]), [0.8, -0.8]),
        ],
        ids=["aw-edge", "wilson-opposite"],
    )
    def test_singular_state(self, spec, z):
        # the reference returns inf/nan here; the scalar kernels raise instead
        with pytest.raises(SingularDenominator):
            dynamics.nonlinear_rhs(spec, z)

    @pytest.mark.parametrize("spec", DEMO_SPECS, ids=lambda s: s.family.value)
    def test_trajectory_matches_reference(self, spec):
        z0 = perturbed_start(spec)
        _, got = dynamics.integrate(spec, z0, 0.5, 2000, record_every=20)
        want = rhs_reference.integrate(spec, z0, 0.5, 2000, record_every=20)
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, float(np.max(np.abs(want))))
