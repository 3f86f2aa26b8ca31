"""Coefficient systems, nonlinear zero systems, RK4, and the algebraic oracle."""

import cmath
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import isospectra as iso
import rhs_reference
import roots_reference
from isospectra import cli, dynamics, families
from isospectra.errors import (
    Collision,
    DivideByZeroVariable,
    RepeatedZeros,
    SingularA,
    SingularDenominator,
)
from isospectra.numeric import Dual, OneHot, multiset_match, nearest_pairing

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
        assert abs(lam[0]) < 1e-14
        with pytest.raises(iso.InvalidParameters):
            dynamics.c_system(spec)

    def test_gbasic_follows_formula(self):
        spec = iso.make_spec("gbasic", 3, [1.7], [2.3], q=1.5)
        cs = dynamics.c_system(spec)
        q, n = 1.5, 3
        for m in range(1, n + 1):
            want = -(q ** (0 * (n - m))) * (q ** (-m) - 1) * (1.7 * q ** (n - m) - 1)
            assert abs(cs.A[m - 1, m - 1] - want) < 1e-14

    @pytest.mark.parametrize(
        "construction",
        [
            c for c, (f, _, _) in cli.CONSTRUCTIONS.items()
            if f in (families.Family.GHYP, families.Family.GBASIC, families.Family.JACOBI)
        ],
    )
    def test_polynomial_is_the_fixed_point(self, construction):
        # the built polynomial solves the defining equation, so its
        # coefficients, descending and scaled to c_0 = 1, are the fixed point
        # of the coefficient system: each row of A c + h cancels to rounding
        rng = np.random.default_rng([17, list(cli.CONSTRUCTIONS).index(construction)])
        for n in range(1, 9):
            spec, _ = cli.draw_spec(construction, n, rng, nmin=n)
            base = iso.jacobi_to_ghyp(spec) if spec.family == families.Family.JACOBI else spec
            p = iso.build_polynomial(base)[::-1]
            c = p[1:] / p[0]
            cs = dynamics.c_system(spec)
            resid = np.abs(cs.A @ c + cs.h)
            assert np.all(resid <= 1e-14 * (np.abs(cs.A) @ np.abs(c) + np.abs(cs.h))), spec

    def test_jacobi_maps_to_ghyp(self):
        spec = iso.make_spec("jacobi", 3, [0.5, 1.0])
        cs = dynamics.c_system(spec)
        ref = dynamics.c_system(iso.jacobi_to_ghyp(spec))
        np.testing.assert_allclose(cs.A, ref.A)


class TestSolveC:
    def test_time_zero(self):
        cs = dynamics.c_system(iso.make_spec("ghyp", 3, [1.7], [2.3]))
        c0 = np.array([0.3, -0.2, 0.1], dtype=complex)
        np.testing.assert_allclose(dynamics.c_flow(cs, c0)(0.0), c0, atol=1e-14)

    def test_fixed_point(self):
        cs = dynamics.c_system(iso.make_spec("ghyp", 3, [1.7], [2.3]))
        cp = np.linalg.solve(cs.A, -cs.h)
        np.testing.assert_allclose(dynamics.c_flow(cs, cp)(0.7), cp, rtol=1e-10)

    def test_scalar_closed_form(self):
        # c1(t) = (c1(0) + alpha/beta) e^(beta t) - alpha/beta
        al, be = 2.0, 3.0
        cs = dynamics.c_system(iso.make_spec("ghyp", 1, [al], [be]))
        c0 = np.array([0.4 + 0.1j])
        t = 0.37
        want = (c0[0] + al / be) * np.exp(be * t) - al / be
        got = dynamics.c_flow(cs, c0)(t)[0]
        assert abs(got - want) < 1e-12 * abs(want)

    def test_modal_matches_rk4_fallback(self):
        spec = iso.make_spec("ghyp", 4, [1.7], [2.3])
        cs = dynamics.c_system(spec)
        rng = np.random.default_rng(0)
        c0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        exact = dynamics.c_flow(cs, c0)(0.3)
        # force the RK4 path through a confluent copy
        squeezed = dynamics.CSystem(
            A=cs.A.copy(), h=cs.h.copy(), time_factor=cs.time_factor, diagonal=False
        )
        squeezed.A[1, 1] = squeezed.A[0, 0]  # duplicate eigenvalue
        rk = dynamics.c_flow(squeezed, c0)(0.3)
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

    def test_rk4_fallback_matches_expm(self):
        # a confluent diagonal takes the RK4 fallback; the exact flow is the
        # exponential of the augmented system d/dt (c, 1) = tau [[A, h], [0, 0]] (c, 1)
        mp = pytest.importorskip("mpmath")
        cs = dynamics.c_system(iso.make_spec("ghyp", 4, [1.7], [2.3]))
        A = cs.A.copy()
        A[1, 1] = A[0, 0]  # duplicate eigenvalue
        squeezed = dynamics.CSystem(A=A, h=cs.h, time_factor=cs.time_factor, diagonal=False)
        rng = np.random.default_rng(0)
        c0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        t = 0.3
        got = dynamics.c_flow(squeezed, c0)(t)
        with mp.workdps(40):
            M = mp.zeros(5, 5)
            for i in range(4):
                for j in range(4):
                    M[i, j] = mp.mpc(A[i, j])
                M[i, 4] = mp.mpc(cs.h[i])
            E = mp.expm(M * mp.mpc(cs.time_factor * t))
            start = mp.matrix([mp.mpc(v) for v in c0] + [1])
            want = np.array([complex(v) for v in (E * start)[:4]])
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))

    def test_singular_A_with_drive(self):
        cs = dynamics.CSystem(
            A=np.zeros((2, 2), dtype=complex),
            h=np.array([1.0, 0.0], dtype=complex),
            time_factor=1.0,
            diagonal=False,
        )
        with pytest.raises(SingularA):
            dynamics.c_flow(cs, np.zeros(2, dtype=complex))


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
                    [rhs_reference.aw_K(spec.q, zv[n], zv[m]) for m in range(len(zv)) if m != n]
                )
                prod_b = np.prod(
                    [
                        rhs_reference.aw_K(spec.q, 1 / zv[n], 1 / zv[m])
                        for m in range(len(zv))
                        if m != n
                    ]
                )
                out[n] = pref * (
                    rhs_reference.aw_G(spec, zv[n]) * prod_a
                    + rhs_reference.aw_G(spec, 1 / zv[n]) * prod_b
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

    def test_racah_axis_guard(self):
        spec = iso.make_spec("racah", 2, [1.1, 2.2, 0.8, 1.4])
        with pytest.raises(DivideByZeroVariable):
            dynamics.nonlinear_rhs(spec, [1.0, 1e-9j])


class TestIntegrate:
    def test_collision_on_last_step(self, monkeypatch):
        # zdot = (1, -z_1): one RK4 step of h = 1 from (2, 8) moves z_0 to 3 and
        # z_1 to 8 R(-1) = 3, R(x) = 1 + x + x^2/2 + x^3/6 + x^4/24 being RK4's
        # stability polynomial.  The stage states (2, 8), (2.5, 4), (2.5, 6) and
        # (3, 2) are well apart, so only the check on the final state sees it.
        binder = lambda spec: lambda z: [[1.0 + 0j], [-z[1]]]  # noqa: E731
        monkeypatch.setitem(dynamics._BINDERS, families.Family.GHYP, binder)
        spec = iso.make_spec("ghyp", 2, [1.7], [2.3])
        with pytest.raises(Collision):
            dynamics.integrate(spec, [2.0, 8.0], 1.0, 1)
        _, traj = dynamics.integrate(spec, [2.0, 8.5], 1.0, 1)
        np.testing.assert_allclose(traj[-1], [3.0, 8.5 * 0.375], rtol=1e-15)

    @pytest.mark.parametrize("stage, calls_before, z1", [("k2", 1, 1.0), ("k3", 2, 2 / 3), ("k4", 3, 4.0)])
    def test_collision_at_stage(self, monkeypatch, stage, calls_before, z1):
        # zdot = (1, -z_1) from (0, z1), one step of h = 1: the stage states
        # are (0.5, z1/2), (0.5, 3 z1/4) and (1, z1/4), the final state
        # (1, 3 z1/8).  Each z1 makes exactly one stage state a coincident
        # pair, and the kernel has run once per earlier stage when it trips
        calls = []

        def binder(spec):
            def rows(z):
                calls.append(1)
                return [[1.0 + 0j], [-z[1]]]

            return rows

        monkeypatch.setitem(dynamics._BINDERS, families.Family.GHYP, binder)
        spec = iso.make_spec("ghyp", 2, [1.7], [2.3])
        with pytest.raises(Collision):
            dynamics.integrate(spec, [0.0, z1], 1.0, 1)
        assert len(calls) == calls_before

    @pytest.mark.parametrize("record_every", [0, -1])
    def test_record_every_below_1(self, record_every):
        spec = iso.make_spec("ghyp", 2, [1.7], [2.3])
        z0 = perturbed_start(spec)
        for run in (dynamics.integrate, dynamics.evolve_compare):
            with pytest.raises(ValueError, match="record_every"):
                run(spec, z0, 0.5, 10, record_every=record_every)

    @pytest.mark.parametrize("spec", DEMO_SPECS, ids=lambda s: s.family.value)
    def test_constants_bound_once(self, monkeypatch, spec):
        # one integration forms its family's constants once, not once per
        # right-hand-side call (20 calls for 5 steps)
        counts = {}

        def counting(module, name):
            fn = getattr(module, name)

            def wrapper(*args):
                counts[name] = counts.get(name, 0) + 1
                return fn(*args)

            monkeypatch.setattr(module, name, wrapper)

        for name in ("wilson_sym", "qracah_constants", "jacobi_to_ghyp"):
            counting(families, name)
        for name in ("elementary_coeffs_hyp", "elementary_coeffs_basic"):
            counting(dynamics, name)
        z0 = perturbed_start(spec)
        _, traj = dynamics.integrate(spec, z0, 0.01, 5)
        assert traj.shape == (6, spec.N)
        want = {
            "ghyp": {"elementary_coeffs_hyp": 1},
            "gbasic": {"elementary_coeffs_basic": 1},
            "wilson": {"wilson_sym": 1},
            "racah": {},
            "aw": {},
            "qracah": {"qracah_constants": 1},
            "jacobi": {"jacobi_to_ghyp": 1, "elementary_coeffs_hyp": 1},
        }[spec.family.value]
        assert counts == want

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
        back = dynamics.algebraic_trajectory(spec, z0, [0.0])[0]
        assert np.max(np.abs(back - z0)) <= 1e-9

    def test_ghyp_N1_trajectory_is_minus_c1(self):
        spec = iso.make_spec("ghyp", 1, [2.0], [3.0])
        cs = dynamics.c_system(spec)
        z0 = np.array([0.5 + 0.2j])
        for t in (0.1, 0.45):
            c1 = dynamics.c_flow(cs, -z0)(t)  # c1(0) = -z1(0)
            got = dynamics.algebraic_trajectory(spec, z0, [t])[0]
            assert abs(got[0] + c1[0]) < 1e-10

    @pytest.mark.parametrize("spec", DYNAMICS_SPECS, ids=lambda s: s.family.value)
    def test_consistency_triangle(self, spec):
        rec = dynamics.evolve_compare(spec, perturbed_start(spec), 0.5, 2000, record_every=40)
        assert rec.max_deviation <= 1e-6

    def test_jacobi_consistency(self):
        spec = iso.make_spec("jacobi", 3, [0.5, 1.0])
        rec = dynamics.evolve_compare(spec, perturbed_start(spec), 0.5, 2000, record_every=40)
        assert rec.max_deviation <= 1e-6

    def test_leading_coefficient_guard(self):
        # ghyp's rates m (beta - 1 + m) are 2.3, 6.6 and 12.9: by t = 5 the
        # flowing coefficients have outgrown the constant z^N one e^64-fold
        spec = iso.make_spec("ghyp", 3, [1.7], [2.3])
        z0 = perturbed_start(spec)
        dynamics.algebraic_trajectory(spec, z0, [0.0, 3.0])
        with pytest.raises(iso.NonConvergence, match="dynamic range exhausted at t = 5 ") as err:
            dynamics.algebraic_trajectory(spec, z0, [0.0, 5.0])
        assert "non-finite" not in str(err.value)

    def test_non_finite_coefficient_guard(self):
        spec = iso.make_spec("ghyp", 3, [1.7], [2.3])
        with pytest.raises(iso.NonConvergence, match=r"t = 100000 \(non-finite coefficient\)"):
            dynamics.algebraic_trajectory(spec, perturbed_start(spec), [0.0, 1e5])

    @pytest.mark.parametrize(
        "spec",
        [
            iso.make_spec("wilson", 4, [0.1, 0.2, 0.3, 0.4]),  # a + b + c + d = 1
            iso.make_spec("racah", 4, [0.5, -1.5, 0.8, 1.4]),  # alpha + beta = -1
            iso.make_spec("aw", 4, [2.0, 0.25, 2.0, 1.4], q=1.4),  # abcd = q
            iso.make_spec("qracah", 4, [-0.5, -1.0, 0.8, 1.4], q=2.0),  # alpha beta q = 1
        ],
        ids=lambda s: s.family.value,
    )
    def test_recurrence_cancels_at_k0(self, spec):
        # A_0's first factor and a factor of its denominator are both exactly
        # 0 here; a table that divided them would end the oracle at t = 0
        z0 = dynamics.to_dynamics_variable(spec, iso.compute_zeros(spec).zeros) + 1e-3
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rec = dynamics.evolve_compare(spec, z0, 0.2, 400)
        assert rec.max_deviation <= 1e-9

    def test_match_order_tie_takes_first_candidate(self):
        # 0 is as near to 1 as to -1 and takes the first candidate
        for cand in ([1.0, -1.0], [-1.0, 1.0]):
            got, _ = nearest_pairing(list(cand), [0.0, 0.5])
            assert got == cand

    @given(
        n=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
        spread=st.sampled_from([1e-12, 1e-6, 1e-2, 1.0]),
    )
    @settings(deadline=None)
    def test_match_order_matches_numpy_form(self, n, seed, spread):
        previous, candidates = roots_reference.shuffled_neighbors(n, seed, spread)
        got, _ = nearest_pairing(candidates.tolist(), previous.tolist())
        assert np.array_equal(got, roots_reference.match_order_numpy(candidates, previous))


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
        lam = iso.closed_form_spectrum(spec)
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
    division-per-ordered-pair copies in rhs_reference, on complex, Dual.seed
    and OneHot.seed inputs; N = 1 has an empty pair table."""

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

    @pytest.mark.parametrize("seed", ["complex", "dual", "onehot"])
    @pytest.mark.parametrize("n", range(1, 13))
    @settings(max_examples=5, deadline=None)
    @given(**spiral_args)
    def test_fg_recursion_matches_reference(self, n, seed, scale, turn, jitter):
        z = spiral(n, scale, turn, jitter)
        J = 4
        got_f, got_g = dynamics.fg_recursion(seeded(z, seed), J)
        zeta = z if seed == "complex" else Dual.seed(z)
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

    @pytest.mark.parametrize("seed", ["complex", "dual", "onehot"])
    @pytest.mark.parametrize("n", range(1, 13))
    @settings(max_examples=5, deadline=None)
    @given(**spiral_args, q=st.floats(1.3, 2.5))
    def test_basic_f_matches_reference(self, n, seed, scale, turn, jitter, q):
        # the kernels' exclusion product (a plain loop on complex numbers and
        # dense duals, the product's own derivative rule on one-hot duals)
        # against the reference's division per factor on Dual.seed; the
        # reference's terms, for the partials, are the product rule's
        z = spiral(n, scale, turn, jitter)
        zeta = seeded(z, seed)
        ref = z if seed == "complex" else Dual.seed(z)
        product, product2, inv = dynamics.exclusion_table(zeta)
        shifts = (lambda v: q * v, lambda v: v / q, lambda v: q * q * v, lambda v: 0.3 + 0.2j)
        for i in range(n):
            for shift in shifts:
                got = product(shift(zeta[i]), zeta, i, inv[i])
                assert_matches_product(got, shift(ref[i]), ref, i)
                if seed == "onehot":
                    assert_equals_dense_pass(got, shift(ref[i]), ref, i)
            # the two-shift form: both products in one pass, each equal to
            # the one-shift product bit for bit
            for s_shift, t_shift in zip(shifts, shifts[1:] + shifts[:1]):
                got_s, got_t = product2(s_shift(zeta[i]), t_shift(zeta[i]), zeta, i, inv[i])
                assert_matches_product(got_s, s_shift(ref[i]), ref, i)
                assert_matches_product(got_t, t_shift(ref[i]), ref, i)
                for got, shift in ((got_s, s_shift), (got_t, t_shift)):
                    want = product(shift(zeta[i]), zeta, i, inv[i])
                    if isinstance(want, Dual):
                        assert got.val == want.val and got.eps == want.eps
                    else:
                        assert got == want

    @pytest.mark.parametrize("seed", ["dual", "onehot"])
    @pytest.mark.parametrize("n", range(2, 7))
    @settings(max_examples=3, deadline=None)
    @given(**spiral_args)
    def test_basic_f_vanishing_factor(self, n, seed, scale, turn, jitter):
        # s = u_l exactly, as a constant and as a function of zero i (as the
        # kernels' shifts are): the product is 0, its partials are not, and
        # the rule divides by no s - u_l
        z = spiral(n, scale, turn, jitter)
        zeta = seeded(z, seed)
        ref = Dual.seed(z)
        product, _, inv = dynamics.exclusion_table(zeta)
        for i in range(n):
            for ell in range(n):
                if ell != i:
                    for shift in (lambda v: z[ell], lambda v: v - z[i] + z[ell]):
                        s, ref_s = shift(zeta[i]), shift(ref[i])
                        assert (s.val if isinstance(s, Dual) else s) == z[ell]
                        got = product(s, zeta, i, inv[i])
                        assert got.val == 0 and any(got.eps)
                        assert_matches_product(got, ref_s, ref, i)
                        if seed == "onehot":
                            assert_equals_dense_pass(got, ref_s, ref, i)


def seeded(z, seed):
    """z as Python complex numbers, dense Duals (`Dual.seed`) or one-hot Duals."""
    return {"complex": z, "dual": Dual.seed(z), "onehot": OneHot.seed(z)}[seed]


def assert_equals_dense_pass(got, s, ref, i):
    """`got` equals `basic_f` run on the dense duals `ref` over their dual pair table."""
    want = dynamics.basic_f(s, ref, i, dynamics.pair_reciprocals(ref)[i])
    if not isinstance(want, Dual):  # the empty product
        assert got == want
        return
    assert got.val == want.val and got.eps == want.eps


def assert_matches_product(got, s, ref, i):
    """`got` against rhs_reference.basic_f(s, ref, i), within the product rule's terms."""
    want = rhs_reference.basic_f(s, ref, i)
    if not isinstance(want, Dual):  # complex inputs, or the empty product
        assert abs(got - want) <= 1e-13 * abs(want)
        return
    factors = [(s - zl) / (ref[i] - zl) for ell, zl in enumerate(ref) if ell != i]
    values = [f.val for f in factors]
    terms = []
    for m, f in enumerate(factors):
        others = np.prod(values[:m] + values[m + 1:])
        terms.append(Dual(others * f.val, [others * e for e in f.eps]))
    assert_within_terms(got, want, terms)


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

    @pytest.mark.parametrize("base", DEMO_SPECS, ids=lambda s: s.family.value)
    @settings(max_examples=10, deadline=None)
    @given(**spiral_args)
    def test_jacobian_off_equilibrium(self, base, scale, turn, jitter):
        # at the zeros each row's terms sum to 0, so the part of the exclusion
        # product's tangent proportional to the product drops out of the
        # matrix; away from them it counts.  One-hot seeds against dense seeds
        # through the same kernels (equal, bit for bit), and against central
        # differences
        n = 6
        spec = iso.make_spec(base.family, n, base.alphas, base.betas, base.q)
        z = spiral(n, scale, turn, jitter)
        assume(spec.family != families.Family.JACOBI or min(abs(1.0 - v) for v in z) > 0.05)
        got = dynamics.linearization_matrix(spec, z)
        want = np.array([sum(row).eps for row in dynamics._kernel_rows(spec, Dual.seed(z))])
        assert np.array_equal(got, want)
        scale_all = np.max(np.abs(want))
        h = 1e-6
        for m in range(n):
            up, down = list(z), list(z)
            up[m] += h
            down[m] -= h
            fd = (dynamics.nonlinear_rhs(spec, up) - dynamics.nonlinear_rhs(spec, down)) / (2 * h)
            assert np.max(np.abs(got[:, m] - fd)) <= 1e-6 * scale_all

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

    def test_jacobi_zero_at_x_1(self):
        # z = 2/(1 - x) has no value there, and the error says so
        spec = iso.make_spec("jacobi", 2, [0.5, 1.0])
        with pytest.raises(SingularDenominator, match="jacobi zero at x = 1"):
            dynamics.nonlinear_rhs(spec, [1.0, 0.3])

    @pytest.mark.parametrize("gap", [0.0, 1e-160], ids=["coincident", "1e-160"])
    def test_fg_jacobian_singular_pair(self, gap):
        # a coincident pair divides by zero in pair_reciprocals; for a pair
        # 1e-160 apart the squared reciprocal overflows in either primitive's
        # derivative rule (silently, in Python complex arithmetic or under
        # np.errstate), and linearization_matrix's finiteness guard raises.
        # Wilson and Racah can hold such a pair only near x = 0 (y = 0),
        # where their variable guard fires first, and Jacobi's
        # z = 2/(1 - x) merges the pair, which its distinctness check rejects
        first_guard = {"wilson": DivideByZeroVariable, "racah": DivideByZeroVariable, "jacobi": RepeatedZeros}
        for base in [iso.make_spec("ghyp", 3, [1.7, 0.9], [2.3, 3.1])] + DEMO_SPECS:
            spec = iso.make_spec(base.family, 3, base.alphas, base.betas, base.q)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(first_guard.get(spec.family.value, SingularDenominator)):
                    dynamics.linearization_matrix(spec, [gap, 0j, -0.7])

    @pytest.mark.parametrize("spec", DEMO_SPECS, ids=lambda s: s.family.value)
    def test_scalar_path_builds_no_pair_table(self, monkeypatch, spec):
        # on Python complex numbers each pair term divides by its own
        # difference; only the Jacobian pass reads a table of reciprocals
        class PairTableBuilt(Exception):
            pass

        def no_table(z):
            raise PairTableBuilt

        z0 = perturbed_start(spec)
        monkeypatch.setattr(dynamics, "pair_reciprocals", no_table)
        assert np.all(np.isfinite(dynamics.nonlinear_rhs(spec, z0)))
        assert np.all(np.isfinite(dynamics.rhs_terms(spec, z0)))
        _, traj = dynamics.integrate(spec, z0, 0.01, 5)
        assert traj.shape == (6, spec.N)
        with pytest.raises(PairTableBuilt):
            dynamics.linearization(spec, z0)

    @pytest.mark.parametrize("family", ["gbasic", "qracah", "aw", "ghyp"])
    def test_coincident_pair_in_kernel(self, family):
        # the collision guard of nonlinear_rhs stops this state first;
        # straight into the kernel, the pair's division by zero is reported
        spec = next(s for s in DEMO_SPECS if s.family.value == family)
        z = [0.3 + 0.1j, 0.3 + 0.1j, -0.7 + 0.2j, 1.9 - 0.3j]
        with pytest.raises(SingularDenominator, match="division by zero"):
            dynamics._kernel_rows(spec, z)

    @pytest.mark.parametrize("spec", DEMO_SPECS, ids=lambda s: s.family.value)
    def test_trajectory_equals_vector_rk4(self, spec):
        # the list RK4 keeps the vector form's operation order
        z0 = perturbed_start(spec)
        times, got = dynamics.integrate(spec, z0, 0.5, 2000, record_every=20)
        want = rhs_reference.integrate_vectors(spec, z0, 0.5, 2000, record_every=20)
        assert isinstance(times, np.ndarray) and isinstance(got, np.ndarray)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("spec", DEMO_SPECS, ids=lambda s: s.family.value)
    def test_trajectory_matches_reference(self, spec):
        z0 = perturbed_start(spec)
        _, got = dynamics.integrate(spec, z0, 0.5, 2000, record_every=20)
        want = rhs_reference.integrate(spec, z0, 0.5, 2000, record_every=20)
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, float(np.max(np.abs(want))))
