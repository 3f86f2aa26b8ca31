"""f/g machinery, the seven matrix constructions, spectra, and identities."""

import warnings

import numpy as np
import pytest

import isospectra as iso
import matrix_reference
from isospectra import cli, dynamics, families, matrices
from isospectra.errors import Collision, InvalidParameters, RepeatedZeros, SingularDenominator
from isospectra.numeric import matrix_eigenvalues, multiset_match

SAMPLE_SPECS = [
    iso.make_spec("ghyp", 4, [1.7], [2.3]),
    iso.make_spec("ghyp", 4, [1.7, 0.9], [2.3, 3.1]),
    iso.make_spec("gbasic", 4, [1.7, 0.9], [2.3, 3.1], q=1.7),
    iso.make_spec("wilson", 4, [0.7, 1.1, 1.6, 2.2]),
    iso.make_spec("racah", 4, [1.1, 2.2, 0.8, 1.4]),
    iso.make_spec("aw", 4, [0.6, 1.1, 1.7, 2.4], q=1.8),
    iso.make_spec("qracah", 4, [1.1, 2.2, 0.8, 1.4], q=1.6),
    iso.make_spec("jacobi", 4, [0.5, 1.0]),
]

# racah specs of the safe box stop building at N = 11-12 (their leading
# coefficient falls below the polynomial trim), so draw_spec finds none at 12
REFERENCE_NMAX = {"racah": 11}


def reference_draws(case):
    """A sample spec with its zeros, or one draw per N = 1..12 of a construction."""
    if not isinstance(case, str):
        return [(case, iso.compute_zeros(case))]
    rng = np.random.default_rng([31, list(cli.CONSTRUCTIONS).index(case)])
    nmax = REFERENCE_NMAX.get(case, 12)
    return [cli.draw_spec(case, n, rng, nmin=n) for n in range(1, nmax + 1)]


class TestSigma:
    def test_single_zero_empty_sum(self):
        assert matrices.sigma(np.array([2.0 + 0j]), 1, 3, 2) == 0.0

    def test_two_zeros_11(self):
        assert matrices.sigma(np.array([2.0, 1.0], dtype=complex), 1, 1, 1) == 1.0

    def test_two_zeros_22(self):
        assert matrices.sigma(np.array([2.0, 1.0], dtype=complex), 1, 2, 2) == 1.0

    def test_repeated_zeros_rejected(self):
        with pytest.raises(RepeatedZeros):
            matrices.sigma(np.array([1.0, 1.0], dtype=complex), 1, 1, 1)


class TestFGTables:
    def test_first_row_is_zeros(self):
        z = np.array([2.0, -1.0, 0.5j])
        tab = matrices.fg_tables(z, 3)
        np.testing.assert_allclose(tab.f[1], z)
        np.testing.assert_allclose(tab.g[0], np.ones(3))

    def test_hand_recursion(self):
        # zeta = (2, 1): f2_1 = -2 + (2*1 + 1*2)/(2-1) = 2
        tab = matrices.fg_tables(np.array([2.0, 1.0], dtype=complex), 2)
        assert abs(tab.f[2, 0] - 2.0) < 1e-14
        # cross-oracle: explicit formula zeta_n(-1 + 2 sigma11)
        s11 = matrices.sigma(np.array([2.0, 1.0], dtype=complex), 1, 1, 1)
        assert abs(tab.f[2, 0] - 2.0 * (-1 + 2 * s11)) < 1e-14

    def test_g1_display(self):
        rng = np.random.default_rng(8)
        z = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        tab = matrices.fg_tables(z, 1)
        for n in range(4):
            s11 = matrices.sigma(z, n + 1, 1, 1)
            assert abs(tab.g[1, n] - (3 + 2 * s11)) < 1e-12

    @pytest.mark.parametrize("n_zeros", [3, 4, 5])
    def test_explicit_small_j_displays(self, n_zeros):
        # f2, f3, f4, g1, g2 as printed; g3 with corrected coefficients
        # (the printed g3 fails for N >= 4; the correction below was fitted
        # against the recursion and verified symbolically from the operator
        # definition d/dz (z d/dz - N)^3).
        rng = np.random.default_rng(100 + n_zeros)
        for _ in range(10):
            z = rng.standard_normal(n_zeros) + 1j * rng.standard_normal(n_zeros)
            tab = matrices.fg_tables(z, 4)
            for n in range(n_zeros):
                s11 = matrices.sigma(z, n + 1, 1, 1)
                s22 = matrices.sigma(z, n + 1, 2, 2)
                s33 = matrices.sigma(z, n + 1, 3, 3)
                zn = z[n]
                N = n_zeros
                expected = {
                    (1, "f"): zn,
                    (2, "f"): zn * (-1 + 2 * s11),
                    (3, "f"): zn * (1 - 6 * s11 - 3 * s22 + 3 * s11**2),
                    (4, "f"): zn
                    * (
                        -1
                        + 14 * s11
                        + 18 * s22
                        + 8 * s33
                        - 18 * s11**2
                        - 12 * s11 * s22
                        + 4 * s11**3
                    ),
                    (1, "g"): N - 1 + 2 * s11,
                    (2, "g"): 1 - N + 2 * (N - 3) * s11 - 3 * s22 + 3 * s11**2,
                    (3, "g"): (
                        N
                        - 1
                        - 2 * (3 * N - 7) * s11
                        - 3 * (N - 6) * s22
                        + 8 * s33
                        + 3 * (N - 6) * s11**2
                        - 12 * s11 * s22
                        + 4 * s11**3
                    ),
                }
                for (j, kind), want in expected.items():
                    got = tab.f[j, n] if kind == "f" else tab.g[j, n]
                    assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


class TestFGJacobians:
    def test_df1_identity(self):
        z = np.array([2.0, -1.0, 0.5], dtype=complex)
        jac = matrices.fg_jacobians(z, 2)
        np.testing.assert_allclose(jac.df[1], np.eye(3))
        np.testing.assert_allclose(jac.dg[0], np.zeros((3, 3)))

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        jac = matrices.fg_jacobians(z, 3)
        h = 1e-6
        for j in range(1, 4):
            for m in range(3):
                e = np.zeros(3, dtype=complex)
                e[m] = h
                fp = matrices.fg_tables(z + e, 3)
                fm = matrices.fg_tables(z - e, 3)
                fd_f = (fp.f[j] - fm.f[j]) / (2 * h)
                fd_g = (fp.g[j] - fm.g[j]) / (2 * h)
                scale = max(1.0, np.max(np.abs(fd_f)))
                assert np.max(np.abs(jac.df[j][:, m] - fd_f)) <= 1e-6 * scale
                scale = max(1.0, np.max(np.abs(fd_g)))
                assert np.max(np.abs(jac.dg[j][:, m] - fd_g)) <= 1e-6 * scale


class TestClosedFormSpectrum:
    def test_ghyp(self):
        lam = iso.closed_form_spectrum(iso.make_spec("ghyp", 2, [1.0], [3.0]))
        np.testing.assert_allclose(lam.values, [3.0, 8.0])

    def test_jacobi(self):
        lam = iso.closed_form_spectrum(iso.make_spec("jacobi", 2, [0.0, 0.0]))
        np.testing.assert_allclose(lam.values, [1.0, 4.0])

    def test_gbasic_n1(self):
        lam = iso.closed_form_spectrum(iso.make_spec("gbasic", 1, [3.0], [5.0], q=2.0))
        np.testing.assert_allclose(lam.values, [1.0])

    @pytest.mark.parametrize("spec", SAMPLE_SPECS[1:], ids=lambda s: s.family.value)
    def test_matches_triangular_csystem(self, spec):
        # c_system takes its diagonal from the closed form, for every family
        cs = dynamics.c_system(spec)
        assert np.array_equal(np.diag(cs.A), iso.closed_form_spectrum(spec).values)


class TestBuildMatrix:
    def test_ghyp_N1(self):
        spec = iso.make_spec("ghyp", 1, [2.0], [3.0])
        rep = iso.build_matrix(spec, iso.compute_zeros(spec))
        np.testing.assert_allclose(rep.L, [[3.0]])
        np.testing.assert_allclose(rep.reference_spectrum.values, [3.0])

    def test_jacobi_legendre_matrix(self):
        # frozen from the closed form at zeros -+1/sqrt(3); trace 5, det 4
        spec = iso.make_spec("jacobi", 2, [0.0, 0.0])
        rep = iso.build_matrix(spec, iso.compute_zeros(spec))
        want = np.array([[3.94337567297406, -0.05662432702594], [-2.94337567297406, 1.05662432702594]])
        np.testing.assert_allclose(rep.L.real, want, atol=1e-10)
        assert abs(np.trace(rep.L) - 5.0) < 1e-12
        assert abs(np.linalg.det(rep.L) - 4.0) < 1e-12

    def test_wilson_N1(self):
        spec = iso.make_spec("wilson", 1, [0.5] * 4)
        rep = iso.build_matrix(spec, iso.compute_zeros(spec))
        np.testing.assert_allclose(rep.L, [[2.0]], atol=1e-12)

    @pytest.mark.parametrize(
        "case",
        SAMPLE_SPECS + list(cli.CONSTRUCTIONS),
        ids=lambda c: f"draws-{c}" if isinstance(c, str) else c.family.value,
    )
    def test_matrix_is_dynamics_jacobian(self, case):
        # build_matrix is the dual-number Jacobian of the zero dynamics; the
        # paper's componentwise formulas must give the same matrix entrywise
        for spec, zs in reference_draws(case):
            for pad in (0, 1, 2) if spec.family == iso.Family.GHYP else (0,):
                got = iso.build_matrix(spec, zs, pad_count=pad).L
                want = matrix_reference.reference_matrix(spec, zs, pad)
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), (spec, pad)

    def test_jacobi_matrix_is_similar_to_pushforward_jacobian(self):
        # the x-variable flow is the pushforward of the ghyp z-flow, so its
        # Jacobian J is a diagonal similarity of the ghyp matrix; the paper's
        # Jacobi matrix is the similar representative D^-1 J D, with
        # D = diag((1 - x)^2)
        spec = iso.make_spec("jacobi", 4, [0.5, 1.0])
        zs = iso.compute_zeros(spec)
        jac = dynamics.linearization_matrix(spec, zs.zeros)
        d = np.diag((1.0 - zs.zeros) ** 2)
        want = matrix_reference.L_jacobi(spec, zs.zeros)
        got = np.linalg.inv(d) @ jac @ d
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        z = 2.0 / (1.0 - zs.zeros)
        gh_rep = iso.build_matrix(iso.jacobi_to_ghyp(spec), z)
        s = np.diag(2.0 / z**2)
        sim = s @ gh_rep.L @ np.linalg.inv(s)
        assert np.max(np.abs(jac - sim)) <= 1e-6 * max(1.0, np.max(np.abs(sim)))

    def test_padding_extends_spectrum(self):
        spec = iso.make_spec("ghyp", 3, [1.7], [2.3])
        zs = iso.compute_zeros(spec)
        rep = iso.build_matrix(spec, zs, pad_count=1)
        ev = matrix_eigenvalues(rep.L)
        assert multiset_match(ev, rep.reference_spectrum) <= 1e-8
        plain = iso.build_matrix(spec, zs)
        assert np.max(np.abs(rep.L - plain.L)) > 1e-3

    def test_padding_only_for_ghyp(self):
        spec = iso.make_spec("wilson", 2, [0.7, 1.1, 1.6, 2.2])
        with pytest.raises(InvalidParameters):
            iso.build_matrix(spec, iso.compute_zeros(spec), pad_count=1)

    @pytest.mark.parametrize("spec", SAMPLE_SPECS[1:3], ids=lambda s: s.family.value)
    def test_close_distinct_zeros_still_build(self, spec):
        # a relative separation of 1e-10 lies between build_matrix's own
        # distinctness guard (FG_SEP_TOL) and the dynamics' collision guard
        # (COLLISION_REL), which the matrix must not pick up
        z = iso.compute_zeros(spec).zeros.copy()
        z[1] = z[0] + 1e-10 * max(1.0, np.max(np.abs(z)))
        with pytest.raises(Collision):
            dynamics.nonlinear_rhs(spec, z)
        assert np.all(np.isfinite(iso.build_matrix(spec, z).L))

    def test_aw_zero_at_branch_point_is_singular(self):
        spec = iso.make_spec("aw", 4, [0.6, 1.1, 1.7, 2.4], q=1.8)
        z = iso.compute_zeros(spec).zeros.copy()
        z[0] = 1.0
        # the Dual square root raises at the zero root before any inf/nan is
        # formed, so the guard fires without a numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularDenominator):
                iso.build_matrix(spec, z)


class TestSymmetrization:
    def test_wilson_even_under_global_negation(self):
        spec = iso.make_spec("wilson", 4, [0.7, 1.1, 1.6, 2.2])
        x = iso.lift_zero_variables(spec, iso.compute_zeros(spec)).zeros
        l1 = matrix_reference.L_wilson(spec, x)
        l2 = matrix_reference.L_wilson(spec, -x)
        assert np.max(np.abs(l1 - l2)) <= 1e-12 * max(1.0, np.max(np.abs(l1)))

    def test_racah_even_under_global_negation(self):
        spec = iso.make_spec("racah", 4, [1.1, 2.2, 0.8, 1.4])
        y = iso.lift_zero_variables(spec, iso.compute_zeros(spec)).zeros
        l1 = matrix_reference.L_racah(spec, y)
        l2 = matrix_reference.L_racah(spec, -y)
        assert np.max(np.abs(l1 - l2)) <= 1e-12 * max(1.0, np.max(np.abs(l1)))

    def test_aw_invariant_under_global_inversion(self):
        spec = iso.make_spec("aw", 4, [0.6, 1.1, 1.7, 2.4], q=1.8)
        zs = iso.compute_zeros(spec).zeros
        z = zs + np.sqrt(zs * zs - 1.0)
        l1 = matrix_reference.L_aw(spec, z)
        l2 = matrix_reference.L_aw(spec, 1.0 / z)
        assert np.max(np.abs(l1 - l2)) <= 1e-12 * max(1.0, np.max(np.abs(l1)))


class TestIdentityResidual:
    def test_ghyp_N1_exact(self):
        spec = iso.make_spec("ghyp", 1, [2.0], [3.0])
        res = iso.identity_residual(spec, iso.compute_zeros(spec))
        assert np.max(np.abs(res)) < 1e-14

    def test_ghyp_random_N5(self):
        spec = iso.make_spec("ghyp", 5, [1.9, 0.8], [2.7, 3.4])
        res = iso.identity_residual(spec, iso.compute_zeros(spec))
        assert np.max(np.abs(res)) <= 1e-8

    def test_gbasic_product_identity(self):
        spec = iso.make_spec("gbasic", 5, [1.9, 0.8], [2.7, 3.4], q=1.5)
        res = iso.identity_residual(spec, iso.compute_zeros(spec))
        assert np.max(np.abs(res)) <= 1e-8

    @pytest.mark.parametrize(
        "spec",
        [s for s in SAMPLE_SPECS if s.family.value in ("wilson", "racah", "aw", "qracah")],
        ids=lambda s: s.family.value,
    )
    def test_named_families_delegate_to_equilibrium(self, spec):
        res = iso.identity_residual(spec, iso.compute_zeros(spec))
        assert np.max(np.abs(res)) <= 1e-8

    @pytest.mark.parametrize("construction", ["gbasic11", "gbasic21", "gbasic22"])
    def test_gbasic_matches_product_identity(self, construction):
        # the equilibrium of the gbasic dynamics is the explicit product
        # identity, zero by zero (measured worst difference 2.9e-15)
        for spec, zs in reference_draws(construction):
            got = np.abs(iso.identity_residual(spec, zs))
            want = np.abs(matrix_reference.gbasic_product_identity(spec, zs.zeros))
            assert np.max(np.abs(got - want)) <= 1e-13, spec

    def test_jacobi_matches_ghyp_image(self):
        # the jacobi identities are those of its ghyp image at z = 2/(1 - x)
        for spec, zs in reference_draws("jacobi"):
            got = np.abs(iso.identity_residual(spec, zs))
            want = np.abs(iso.identity_residual(iso.jacobi_to_ghyp(spec), 2.0 / (1.0 - zs.zeros)))
            assert np.max(np.abs(got - want)) <= 1e-13, spec

    def test_perturbed_zeros_detected(self):
        spec = iso.make_spec("ghyp", 5, [1.9, 0.8], [2.7, 3.4])
        zs = iso.compute_zeros(spec)
        res = iso.identity_residual(spec, zs.zeros + 1e-3)
        assert np.max(np.abs(res)) >= 1e-5


class TestVerifyMatrix:
    def test_ghyp_trivial(self):
        rep = iso.verify_matrix(iso.make_spec("ghyp", 1, [2.0], [3.0]))
        assert rep.spectral_residual < 1e-12 and rep.passed

    def test_jacobi_legendre(self):
        rep = iso.verify_matrix(iso.make_spec("jacobi", 2, [0.0, 0.0]))
        assert rep.spectral_residual <= 1e-9
        assert multiset_match(rep.computed_spectrum, [1.0, 4.0]) < 1e-9

    @pytest.mark.parametrize("spec", SAMPLE_SPECS, ids=lambda s: s.family.value)
    def test_sample_specs_pass(self, spec):
        rep = iso.verify_matrix(spec)
        assert rep.passed, (rep.spectral_residual, rep.trace_residual, rep.det_residual)

    def test_given_zeros_are_used(self):
        spec = SAMPLE_SPECS[3]
        zs = iso.compute_zeros(spec)
        rep = iso.verify_matrix(spec, zeros=zs)
        np.testing.assert_array_equal(rep.L, iso.build_matrix(spec, zs).L)

    def test_newton_polish_beats_plain_qr(self):
        # one Newton step per eigenvalue on det(lam I - L) after LAPACK's QR
        polished, plain = [], []
        for k, name in enumerate(cli.CONSTRUCTIONS):
            spec, zs = cli.draw_spec(name, 8, np.random.default_rng([5, k]), nmin=6)
            rep = iso.verify_matrix(spec, zeros=zs)
            polished.append(rep.spectral_residual)
            plain.append(multiset_match(np.linalg.eigvals(rep.L), rep.reference_spectrum))
        assert np.median(polished) < 0.5 * np.median(plain)


class TestIsospectrality:
    def check_pair(self, s1, s2, tol_entry=1e-3):
        r1 = iso.verify_matrix(s1)
        r2 = iso.verify_matrix(s2)
        dist = multiset_match(r1.computed_spectrum, r2.computed_spectrum)
        assert dist <= 1e-6, dist
        assert np.max(np.abs(r1.L - r2.L)) >= tol_entry

    def test_ghyp_alpha_independence(self):
        self.check_pair(
            iso.make_spec("ghyp", 4, [1.7], [2.3]), iso.make_spec("ghyp", 4, [2.4], [2.3])
        )

    def test_jacobi_beta_independence(self):
        self.check_pair(
            iso.make_spec("jacobi", 4, [0.5, 1.0]), iso.make_spec("jacobi", 4, [0.5, 1.8])
        )

    def test_gbasic_beta_independence(self):
        self.check_pair(
            iso.make_spec("gbasic", 4, [1.7], [2.3], q=1.6),
            iso.make_spec("gbasic", 4, [1.7], [3.2], q=1.6),
        )

    def test_wilson_sum_invariance(self):
        self.check_pair(
            iso.make_spec("wilson", 4, [0.7, 1.1, 1.6, 2.2]),
            iso.make_spec("wilson", 4, [0.9, 0.9, 1.6, 2.2]),
        )

    def test_racah_sum_invariance(self):
        self.check_pair(
            iso.make_spec("racah", 4, [1.1, 2.2, 0.8, 1.4]),
            iso.make_spec("racah", 4, [1.5, 1.8, 1.0, 1.2]),
        )

    def test_aw_product_invariance(self):
        self.check_pair(
            iso.make_spec("aw", 4, [0.6, 1.1, 1.7, 2.4], q=1.8),
            iso.make_spec("aw", 4, [1.2, 0.55, 1.7, 2.4], q=1.8),
        )

    def test_qracah_product_invariance(self):
        self.check_pair(
            iso.make_spec("qracah", 4, [1.1, 2.2, 0.8, 1.4], q=1.6),
            iso.make_spec("qracah", 4, [2.2, 1.1, 1.0, 1.1], q=1.6),
        )
