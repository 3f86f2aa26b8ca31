"""Acceptance suite: one test per criterion, one printed pass/fail line each.

All tolerances are pinned here, not configurable: spectral 1e-6, trace/det
1e-8 relative, identities/equilibria/defining equations 1e-8, trajectory
deviation 1e-6, linearization 1e-10, machinery cross-checks 1e-10 / 1e-6,
q->1 deviation 1e-2 at q = 1.001.
"""

import time
import zlib

import numpy as np
import pytest

import expansion_reference
import isospectra as iso
import matrix_reference
from isospectra import cli, dynamics, families, matrices
from isospectra.numeric import matrix_eigenvalues, multiset_match

SEED = 20240817

TOL_SPECTRAL = 1e-6
TOL_TRACEDET = 1e-8
TOL_IDENTITY = 1e-8
TOL_DEVIATION = 1e-6
TOL_LINEARIZATION = 1e-10
TOL_FG = 1e-10
TOL_JACOBIAN = 1e-6
TOL_QLIMIT = 1e-2

GROWTH_CAP = 30.0       # |Re(tf * rate)| * t1 must stay below this for criterion 5
GAP_FLOOR = 1e-2        # relative spectral gap required for criterion 6 draws

ALL_CONSTRUCTIONS = list(cli.CONSTRUCTIONS)
DYNAMICS_CONSTRUCTIONS = ["ghyp11", "gbasic11", "wilson", "racah", "aw", "qracah"]
TIME_FACTOR = {"ghyp": 1.0, "gbasic": 1.0, "wilson": 1j, "racah": 1j, "aw": 1.0, "qracah": 1.0}


def report(criterion, name, ok, detail):
    print(f"ACCEPTANCE {criterion} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")


def rng_for(construction, k, salt=0):
    return np.random.default_rng([SEED, zlib.crc32(construction.encode()), k, salt])


def draw(construction, k, nmax=8, nmin=2, salt=0):
    spec, _ = cli.draw_spec(construction, nmax, rng_for(construction, k, salt), nmin=nmin)
    return spec


def draw_for_dynamics(construction, k, t1=0.5, require_gap=False):
    """Safe-box draw, rejecting modal growth beyond exp(GROWTH_CAP) over [0, t1]
    (doubles cannot follow faster blow-ups) and, optionally, clustered spectra
    (the modal comparison argument assumes distinct eigenvalues)."""
    for salt in range(60):
        spec = draw(construction, k, nmax=5, salt=salt)
        cs = dynamics.c_system(spec)
        rates = cs.time_factor * np.diag(cs.A)
        if np.max(np.abs(np.real(rates))) * t1 > GROWTH_CAP:
            continue
        if require_gap:
            lam = iso.closed_form_spectrum(spec)
            gaps = np.abs(lam[:, None] - lam[None, :]) + np.diag(np.full(len(lam), np.inf))
            if gaps.min() < GAP_FLOOR * max(1.0, np.max(np.abs(lam))):
                continue
        return spec
    raise RuntimeError(f"no admissible dynamics draw for {construction}[{k}]")


def test_criterion_1_spectrum_verification():
    t0 = time.monotonic()
    worst = {"spectral": 0.0, "trace": 0.0, "det": 0.0}
    count = 0
    for name in ALL_CONSTRUCTIONS:
        for k in range(20):
            spec = draw(name, k)
            rep = matrices.verify_matrix(spec, tol_spectral=TOL_SPECTRAL)
            worst["spectral"] = max(worst["spectral"], rep.spectral_residual)
            worst["trace"] = max(worst["trace"], rep.trace_residual)
            worst["det"] = max(worst["det"], rep.det_residual)
            count += 1
            assert rep.spectral_residual <= TOL_SPECTRAL, (name, k, rep.spectral_residual)
            assert rep.trace_residual <= TOL_TRACEDET, (name, k, rep.trace_residual)
            assert rep.det_residual <= TOL_TRACEDET, (name, k, rep.det_residual)
    elapsed = time.monotonic() - t0
    ok = elapsed <= 60.0
    report(
        1,
        "spectrum verification",
        ok,
        f"{count} draws, worst spectral {worst['spectral']:.2e}, trace {worst['trace']:.2e}, "
        f"det {worst['det']:.2e}, {elapsed:.1f}s",
    )
    assert ok, f"criterion 1 exceeded its 60 s budget: {elapsed:.1f}s"


def _isospectral_partner(spec, rng):
    f = spec.family
    a = list(spec.alphas)
    b = list(spec.betas)
    if f == families.Family.GHYP:
        a = [x + rng.uniform(0.3, 0.9) for x in a]
    elif f == families.Family.JACOBI:
        a = [a[0], a[1] + rng.uniform(0.3, 0.9)]
    elif f == families.Family.GBASIC:
        b = [x + rng.uniform(0.3, 0.9) for x in b]
    elif f == families.Family.WILSON:
        d = rng.uniform(0.1, 0.3)
        a = [a[0] + d, a[1] - d, a[2], a[3]]
    elif f == families.Family.RACAH:
        d = rng.uniform(0.1, 0.3)
        a = [a[0] + d, a[1] - d, rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0)]
    elif f == families.Family.AW:
        t = rng.uniform(1.2, 1.6)
        a = [a[0] * t, a[1] / t, a[2], a[3]]
    elif f == families.Family.QRACAH:
        t = rng.uniform(1.2, 1.6)
        a = [a[0] * t, a[1] / t, rng.uniform(0.8, 2.5), rng.uniform(0.8, 2.5)]
    return iso.make_spec(f, spec.N, a, b, spec.q)


def test_criterion_2_isospectrality():
    pair_families = ["ghyp11", "jacobi", "gbasic11", "wilson", "racah", "aw", "qracah"]
    worst_spec = 0.0
    min_entry = np.inf
    for name in pair_families:
        done = 0
        k = 0
        while done < 5:
            spec1 = draw(name, k, nmax=6)
            rng = rng_for(name, k, salt=999)
            k += 1
            spec2 = _isospectral_partner(spec1, rng)
            try:
                families.validate_spec(spec2)
                r1 = matrices.verify_matrix(spec1)
                r2 = matrices.verify_matrix(spec2)
            except iso.IsospectraError:
                continue
            dist = multiset_match(r1.computed_spectrum, r2.computed_spectrum)
            entry = float(np.max(np.abs(r1.L - r2.L)))
            worst_spec = max(worst_spec, dist)
            min_entry = min(min_entry, entry)
            assert dist <= TOL_SPECTRAL, (name, dist)
            assert entry >= 1e-3, (name, entry)
            done += 1
    report(
        2,
        "isospectrality",
        True,
        f"worst spectral distance {worst_spec:.2e}, smallest matrix change {min_entry:.2e}",
    )


def test_criterion_3_zero_identities():
    worst_identity = 0.0
    ghyp_cycle = ["ghyp11", "ghyp21", "ghyp22", "ghyp32"]
    gbasic_cycle = ["gbasic11", "gbasic21", "gbasic22"]
    for k in range(20):
        for name in (ghyp_cycle[k % 4], gbasic_cycle[k % 3]):
            spec = draw(name, k)
            res = float(np.max(np.abs(matrices.identity_residual(spec, iso.compute_zeros(spec)))))
            worst_identity = max(worst_identity, res)
            assert res <= TOL_IDENTITY, (name, k, res)
    worst_equilibrium = 0.0
    for name in ("wilson", "racah", "aw", "qracah"):
        for k in range(20):
            spec = draw(name, k)
            res = dynamics.equilibrium_residual(spec, iso.compute_zeros(spec))
            worst_equilibrium = max(worst_equilibrium, res)
            assert res <= TOL_IDENTITY, (name, k, res)
    report(
        3,
        "zero identities",
        True,
        f"worst identity {worst_identity:.2e}, worst equilibrium {worst_equilibrium:.2e}",
    )


def test_criterion_4_defining_equations():
    worst = 0.0
    for name in DYNAMICS_CONSTRUCTIONS:
        for k in range(20):
            spec = draw(name, k)
            res = iso.max_defining_residual(spec, seed=SEED + k)
            worst = max(worst, res)
            assert res <= TOL_IDENTITY, (name, k, res)
    report(4, "defining equations", True, f"worst residual {worst:.2e} over 120 specs x 10 samples")


def test_criterion_5_solvability_cross_check():
    worst = 0.0
    for name in DYNAMICS_CONSTRUCTIONS:
        for k in range(5):
            spec = draw_for_dynamics(name, k)
            zs = iso.compute_zeros(spec)
            start = dynamics.to_dynamics_variable(spec, zs.zeros)
            rng = rng_for(name, k, salt=7)
            start = start + 1e-3 * (
                rng.uniform(-1, 1, len(start)) + 1j * rng.uniform(-1, 1, len(start))
            )
            rec = dynamics.evolve_compare(spec, start, 0.5, 2000, record_every=20)
            worst = max(worst, rec.max_deviation)
            assert rec.max_deviation <= TOL_DEVIATION, (name, k, rec.max_deviation)
    report(5, "solvability cross-check", True, f"worst trajectory deviation {worst:.2e}")


def test_criterion_6_linearization():
    # numerically resolves the eigenvalue-sign question in favor of
    # lambda_m = m (beta_1 - 1 + m) for the pedagogical family
    worst = 0.0
    for name in DYNAMICS_CONSTRUCTIONS:
        for k in range(5):
            spec = draw_for_dynamics(name, k, require_gap=True)
            zs = iso.compute_zeros(spec)
            zdyn = dynamics.to_dynamics_variable(spec, zs.zeros)
            jac = dynamics.linearization_matrix(spec, zdyn)
            lam = iso.closed_form_spectrum(spec)
            tf = TIME_FACTOR[spec.family.value]
            dist = multiset_match(matrix_eigenvalues(jac), tf * lam)
            worst = max(worst, dist)
            assert dist <= TOL_LINEARIZATION, (name, k, dist)
    # explicit sign check on the pedagogical case: +m(beta-1+m), not m(beta-1-m)
    spec = iso.make_spec("ghyp", 4, [1.7], [2.3])
    jac = dynamics.linearization_matrix(
        spec, dynamics.to_dynamics_variable(spec, iso.compute_zeros(spec).zeros)
    )
    m = np.arange(1, 5)
    plus = multiset_match(matrix_eigenvalues(jac), m * (2.3 - 1 + m))
    minus = multiset_match(matrix_eigenvalues(jac), m * (2.3 - 1 - m))
    assert plus <= TOL_LINEARIZATION and minus > 1e-1
    report(6, "linearization", True, f"worst spectral distance {worst:.2e}; sign resolved to +m")


def test_criterion_7_machinery_self_consistency():
    # (a) recursion vs explicit sigma displays (g3 in its corrected form, see
    #     tests/test_matrices.py for the derivation note)
    worst_fg = 0.0
    rng = np.random.default_rng(SEED)
    for n_zeros in (3, 4, 5):
        for _ in range(10):
            z = rng.standard_normal(n_zeros) + 1j * rng.standard_normal(n_zeros)
            tab = matrix_reference.fg_tables(z, 4)
            for n in range(n_zeros):
                s11 = matrix_reference.sigma(z, n + 1, 1, 1)
                s22 = matrix_reference.sigma(z, n + 1, 2, 2)
                s33 = matrix_reference.sigma(z, n + 1, 3, 3)
                zn = z[n]
                big_n = n_zeros
                checks = [
                    (tab.f[2, n], zn * (-1 + 2 * s11)),
                    (tab.f[3, n], zn * (1 - 6 * s11 - 3 * s22 + 3 * s11**2)),
                    (
                        tab.f[4, n],
                        zn
                        * (
                            -1
                            + 14 * s11
                            + 18 * s22
                            + 8 * s33
                            - 18 * s11**2
                            - 12 * s11 * s22
                            + 4 * s11**3
                        ),
                    ),
                    (tab.g[1, n], big_n - 1 + 2 * s11),
                    (tab.g[2, n], 1 - big_n + 2 * (big_n - 3) * s11 - 3 * s22 + 3 * s11**2),
                    (
                        tab.g[3, n],
                        big_n
                        - 1
                        - 2 * (3 * big_n - 7) * s11
                        - 3 * (big_n - 6) * s22
                        + 8 * s33
                        + 3 * (big_n - 6) * s11**2
                        - 12 * s11 * s22
                        + 4 * s11**3,
                    ),
                ]
                for got, want in checks:
                    dev = abs(got - want) / max(1.0, abs(want))
                    worst_fg = max(worst_fg, dev)
                    assert dev <= TOL_FG

    # (b) dual-number jacobians vs central differences
    worst_jac = 0.0
    for n_zeros in (3, 4, 5):
        z = rng.standard_normal(n_zeros) + 1j * rng.standard_normal(n_zeros)
        jac = matrix_reference.fg_jacobians(z, 3)
        h = 1e-6
        for j in range(1, 4):
            for m in range(n_zeros):
                e = np.zeros(n_zeros, dtype=complex)
                e[m] = h
                fp, fm = matrix_reference.fg_tables(z + e, 3), matrix_reference.fg_tables(z - e, 3)
                for kind, dual_col, fd in (
                    ("f", jac.df[j][:, m], (fp.f[j] - fm.f[j]) / (2 * h)),
                    ("g", jac.dg[j][:, m], (fp.g[j] - fm.g[j]) / (2 * h)),
                ):
                    dev = np.max(np.abs(dual_col - fd)) / max(1.0, np.max(np.abs(fd)))
                    worst_jac = max(worst_jac, float(dev))
                    assert dev <= TOL_JACOBIAN

    # (c) q -> 1 limit: small deviation, shrinking roughly linearly in |q - 1|
    spec = iso.make_spec("ghyp", 3, [1.2, 0.8], [1.8])
    d1 = expansion_reference.q_to_one_limit_check(spec, 1.001)
    d2 = expansion_reference.q_to_one_limit_check(spec, 1.0001)
    assert d1 <= TOL_QLIMIT
    assert 4.0 <= d1 / d2 <= 25.0
    report(
        7,
        "machinery self-consistency",
        True,
        f"fg {worst_fg:.2e}, jacobians {worst_jac:.2e}, q->1 {d1:.2e} (ratio {d1 / d2:.1f})",
    )
