"""Reference isospectral matrices: the componentwise formulas of the paper.

These are the seven per-family matrix builders as they were written before
`isospectra.matrices.build_matrix` became the dual-number Jacobian of the
zero-dynamics kernels, with the helpers only they used.  They keep every
formula literal and serve the tests as an independent reference for the
Jacobian construction.  The "+[x_s -> -x_s]" (resp. "[z_s -> 1/z_s]")
symmetrization symbols are realized as a second evaluation of the same
expression with mapped arguments, added to the first.  The explicit gbasic
product identity, kept the same way, checks `identity_residual`.  The f/g
recursion and the exclusion product are the division-per-pair copies in
`rhs_reference`, so no reference matrix goes through the kernels' pair tables.
A padded ghyp matrix appends the pairs alpha = beta = PAD_VALUES[:pad_count]
(`padded`).

`sigma`, `fg_tables` and `fg_jacobians` read the kernels' own f/g recursion
(`dynamics.fg_recursion`) and its derivative rule (`dynamics.fg_tangents`)
as the paper's tables, so the tests can hold them against its sigma-sum
displays.
"""

from dataclasses import dataclass

import numpy as np

from isospectra import dynamics, families as fam
from isospectra.matrices import _zeros_array
from isospectra.numeric import Dual, ZeroSet, dsqrt, elementary_coeffs_basic, elementary_coeffs_hyp
from rhs_reference import aw_G, aw_K, basic_f, fg_recursion, qracah_B, qracah_D, qracah_shift

PAD_VALUES = (1.75, 2.25, 2.75, 3.25)   # padded alpha = beta parameters


def padded(spec, pad_count: int):
    """The ghyp spec with the first `pad_count` PAD_VALUES appended as alpha = beta pairs."""
    pad = PAD_VALUES[:pad_count]
    return fam.make_spec(spec.family, spec.N, spec.alphas + pad, spec.betas + pad, spec.q)


@dataclass
class FGTable:
    """f[j][n] for j = 1..J and g[j][n] for j = 0..J (row 0 of f is unused)."""

    f: np.ndarray
    g: np.ndarray


@dataclass
class FGJacobian:
    """df[j][n][m] = d f_n^(j) / d zeta_m, same layout as FGTable."""

    df: np.ndarray
    dg: np.ndarray


def sigma(zs, n: int, r: int, rho: int):
    """sigma_n^(r,rho) = sum_{l != n} zeta_l^r / (zeta_n - zeta_l)^rho; n is 1-based."""
    z = _zeros_array(zs)
    if not 1 <= n <= len(z):
        raise IndexError(f"n = {n} outside 1..{len(z)}")
    zn = z[n - 1]
    out = 0.0 + 0.0j
    for ell, zl in enumerate(z):
        if ell == n - 1:
            continue
        out += zl**r / (zn - zl) ** rho
    return out


def fg_tables(zs, J: int) -> FGTable:
    """Fill the f/g recursion tables up to order J (J >= 1)."""
    if J < 1:
        raise ValueError("J must be >= 1")
    z = _zeros_array(zs)
    f_list, g_list = dynamics.fg_recursion(z.tolist(), J)
    f = np.zeros((J + 1, len(z)), dtype=complex)
    f[1:] = f_list[1:]
    return FGTable(f=f, g=np.array(g_list, dtype=complex))


def fg_jacobians(zs, J: int) -> FGJacobian:
    """Exact partials of the f/g tables, by the recursion's own derivative rule."""
    if J < 1:
        raise ValueError("J must be >= 1")
    z = _zeros_array(zs)
    _, _, df, dg = dynamics.fg_tangents(z.tolist(), np.eye(len(z), dtype=complex), J)
    return FGJacobian(df=df, dg=dg)


def basic_f_exc(s, z, n: int, m: int):
    """The same product with l != n, m."""
    zn = z[n]
    out = 1.0 + 0.0j
    for ell, zl in enumerate(z):
        if ell != n and ell != m:
            out *= (s - zl) / (zn - zl)
    return out


def basic_g(s, z, n: int):
    """sum_{k != n} basic_f_exc(s, z, n, k) z_k / (z_n - z_k)^2."""
    zn = z[n]
    out = 0.0 + 0.0j
    for k, zk in enumerate(z):
        if k != n:
            out += basic_f_exc(s, z, n, k) * zk / (zn - zk) ** 2
    return out


def wilson_D_prime(spec: fam.FamilySpec, x):
    s1, s2, s3, _ = fam.wilson_sym(spec)
    return 1j * s3 - 2.0 * s2 * x - 3j * s1 * x * x + 4.0 * x**3


def qracah_C(spec: fam.FamilySpec, z, sign: int):
    """d z^(+-) / d z, in closed form."""
    q = spec.q
    gd = spec.alphas[2] * spec.alphas[3]
    root = dsqrt(z * z - 4.0 * gd * q)
    return q ** float(sign) + sign * (1.0 - q * q) / (2.0 * q) * (1.0 - z / root)


def L_ghyp(spec: fam.FamilySpec, zeta: np.ndarray, pad_values=()):
    alphas = tuple(spec.alphas) + tuple(pad_values)
    betas = tuple(spec.betas) + tuple(pad_values)
    a, b = elementary_coeffs_hyp(alphas, betas)
    p, qn = len(alphas), len(betas)
    f, g = fg_recursion(Dual.seed(zeta), max(qn + 1, max(p, 1)))
    n_zeros = len(zeta)
    L = np.zeros((n_zeros, n_zeros), dtype=complex)
    for k in range(1, qn + 2):
        L += b[k - 1] * np.array([v.eps for v in f[k]])
    for j in range(1, p + 1):
        L -= a[j] * np.array([v.eps for v in g[j]])
    return L


def L_jacobi(spec: fam.FamilySpec, x: np.ndarray):
    al = spec.alphas[0]
    n_zeros = len(x)
    L = np.zeros((n_zeros, n_zeros), dtype=complex)
    for n in range(n_zeros):
        diag = al + 1.0
        for ell in range(n_zeros):
            if ell == n:
                continue
            diag += (1.0 + x[ell]) * (1.0 - x[n]) ** 2 / (x[n] - x[ell]) ** 2
            L[n, ell] = -(1.0 + x[n]) * (1.0 - x[ell]) ** 2 / (x[n] - x[ell]) ** 2
        L[n, n] = diag
    return L


def L_jacobi_dual(spec: fam.FamilySpec, x: np.ndarray):
    """The Jacobi matrix by the dense-Dual pass of `L_ghyp`: the ghyp flow at
    z = 2/(1 - x) pushed forward to x, in the representative D^-1 J D with
    D = diag((1 - x)^2) that `build_matrix` returns."""
    gh = fam.jacobi_to_ghyp(spec)
    a, b = elementary_coeffs_hyp(gh.alphas, gh.betas)
    p, qn = len(gh.alphas), len(gh.betas)
    z = [2.0 / (1.0 - v) for v in Dual.seed(x)]
    f, g = fg_recursion(z, max(qn + 1, max(p, 1)))
    rows = []
    for n, zn in enumerate(z):
        zdot = sum(b[k - 1] * f[k][n] for k in range(1, qn + 2)) - sum(a[j] * g[j][n] for j in range(p + 1))
        rows.append((zdot * (2.0 / (zn * zn))).eps)
    d = (1.0 - x) ** 2
    return np.array(rows) * d / d[:, None]


def L_gbasic(spec: fam.FamilySpec, zeta: np.ndarray):
    q = spec.q
    N = spec.N
    r, s = len(spec.alphas), len(spec.betas)
    a, b = elementary_coeffs_basic(spec.alphas, spec.betas)
    qn = q ** float(-N)
    n_zeros = len(zeta)
    L = np.zeros((n_zeros, n_zeros), dtype=complex)

    def qp(p):
        return q ** float(p) - 1.0

    for n in range(n_zeros):
        def f(p):
            return basic_f(q ** float(p) * zeta[n], zeta, n)

        def g(p):
            return basic_g(q ** float(p) * zeta[n], zeta, n)

        # diagonal entry
        acc = (-1.0) ** s * (
            qp(1) ** 2 * g(1)
            + sum(
                b[k - 1]
                * (-1.0) ** k
                / q**k
                * (qp(k + 1) ** 2 * g(k + 1) - qp(k) ** 2 * g(k))
                for k in range(1, s + 1)
            )
        )
        acc += (-1.0) ** (r + 1) * zeta[n] * (
            qn * qp(s - r + 1) ** 2 * g(s - r + 1)
            - qp(s - r) ** 2 * g(s - r)
            + sum(
                a[j - 1]
                * (-1.0) ** j
                * (
                    qn * qp(j + s + 1 - r) ** 2 * g(j + s + 1 - r)
                    - qp(j + s - r) ** 2 * g(j + s - r)
                )
                for j in range(1, r + 1)
            )
        )
        acc += (-1.0) ** r * (
            qn * qp(s - r + 1) * f(s - r + 1)
            - qp(s - r) * f(s - r)
            + sum(
                a[j - 1]
                * (-1.0) ** j
                * (
                    qn * qp(j + s + 1 - r) * f(j + s + 1 - r)
                    - qp(j + s - r) * f(j + s - r)
                )
                for j in range(1, r + 1)
            )
        )
        L[n, n] = acc
        for m in range(n_zeros):
            if m == n:
                continue
            dd = (zeta[n] - zeta[m]) ** 2

            def fx(p):
                return basic_f_exc(q ** float(p) * zeta[n], zeta, n, m)

            off = (-1.0) ** (s + 1) * zeta[n] / dd * (
                qp(1) ** 2 * fx(1)
                + sum(
                    b[k - 1]
                    * (-1.0) ** k
                    / q**k
                    * (qp(k + 1) ** 2 * fx(k + 1) - qp(k) ** 2 * fx(k))
                    for k in range(1, s + 1)
                )
            )
            off += (-1.0) ** r * zeta[n] ** 2 / dd * (
                qn * qp(s - r + 1) ** 2 * fx(s - r + 1)
                - qp(s - r) ** 2 * fx(s - r)
                + sum(
                    a[j - 1]
                    * (-1.0) ** j
                    * (
                        qn * qp(j + s + 1 - r) ** 2 * fx(j + s + 1 - r)
                        - qp(j + s - r) ** 2 * fx(j + s - r)
                    )
                    for j in range(1, r + 1)
                )
            )
            L[n, m] = off
    return L


def wilson_core(spec: fam.FamilySpec, x: np.ndarray):
    """Brace contents of the Wilson L formulas (before symmetrization)."""
    n_zeros = len(x)
    diag = np.zeros(n_zeros, dtype=complex)
    off = np.zeros((n_zeros, n_zeros), dtype=complex)
    x2 = x * x
    for n in range(n_zeros):
        ring = [1.0 - (1.0 + 2j * x[n]) / (x2[n] - x2[ell]) for ell in range(n_zeros) if ell != n]
        full = np.prod(ring) if ring else 1.0
        dn = fam.wilson_D(spec, x[n])
        dpn = wilson_D_prime(spec, x[n])
        acc = (2.0 * dn / (1j * x[n]) + 1j * dpn) * full
        for m in range(n_zeros):
            if m == n:
                continue
            exc = np.prod(
                [
                    1.0 - (1.0 + 2j * x[n]) / (x2[n] - x2[ell])
                    for ell in range(n_zeros)
                    if ell not in (n, m)
                ]
            )
            acc += (
                2.0
                * dn
                * (1j * x[n] - (x2[n] + x2[m]))
                / (x2[n] - x2[m]) ** 2
                * exc
            )
            off[n, m] = 2.0 * dn * 1j * x[m] * (1.0 + 2j * x[n]) / (x2[n] - x2[m]) ** 2 * exc
        diag[n] = acc
    return diag, off


def L_wilson(spec: fam.FamilySpec, x: np.ndarray):
    d1, o1 = wilson_core(spec, x)
    d2, o2 = wilson_core(spec, -x)
    pref = 1.0 / (4.0 * x * x)
    L = -(o1 + o2) * pref[:, None]
    np.fill_diagonal(L, (d1 + d2) * pref)
    return L


def racah_core(spec: fam.FamilySpec, y: np.ndarray):
    n_zeros = len(y)
    diag = np.zeros(n_zeros, dtype=complex)
    off = np.zeros((n_zeros, n_zeros), dtype=complex)
    y2 = y * y
    for n in range(n_zeros):
        ring = [1.0 + (1.0 + 2.0 * y[n]) / (y2[n] - y2[ell]) for ell in range(n_zeros) if ell != n]
        full = np.prod(ring) if ring else 1.0
        dt = fam.racah_Dtilde(spec, y[n])
        dtp = fam.racah_Dtilde(spec, Dual(y[n], [1.0])).eps[0]
        acc = ((dt / y2[n] - dtp / y[n]) * (1.0 + 2.0 * y[n]) - 2.0 * dt / y[n]) * full
        for m in range(n_zeros):
            if m == n:
                continue
            exc = np.prod(
                [
                    1.0 + (1.0 + 2.0 * y[n]) / (y2[n] - y2[ell])
                    for ell in range(n_zeros)
                    if ell not in (n, m)
                ]
            )
            acc += (
                2.0
                * dt
                / y[n]
                * (1.0 + 2.0 * y[n])
                * (y2[n] + y2[m] + y[n])
                / (y2[n] - y2[m]) ** 2
                * exc
            )
            off[n, m] = y[m] * dt / y[n] * (1.0 + 2.0 * y[n]) ** 2 * exc
        diag[n] = acc
    return diag, off


def L_racah(spec: fam.FamilySpec, y: np.ndarray):
    d1, o1 = racah_core(spec, y)
    d2, o2 = racah_core(spec, -y)
    n_zeros = len(y)
    L = np.zeros((n_zeros, n_zeros), dtype=complex)
    y2 = y * y
    for n in range(n_zeros):
        for m in range(n_zeros):
            if m == n:
                continue
            L[n, m] = -(o1[n, m] + o2[n, m]) / (y2[n] - y2[m]) ** 2
    np.fill_diagonal(L, 0.5 * (d1 + d2))
    return L


def aw_core(spec: fam.FamilySpec, z: np.ndarray):
    q = spec.q
    n_zeros = len(z)
    diag = np.zeros(n_zeros, dtype=complex)
    off = np.zeros((n_zeros, n_zeros), dtype=complex)
    for n in range(n_zeros):
        kprod = np.prod([aw_K(q, z[n], z[ell]) for ell in range(n_zeros) if ell != n]) if n_zeros > 1 else 1.0
        g = aw_G(spec, z[n])
        gp = aw_G(spec, Dual(z[n], [1.0])).eps[0]
        chain_n = 2.0 * z[n] ** 2 / (z[n] ** 2 - 1.0)
        ssum = 0.0 + 0.0j
        for m in range(n_zeros):
            if m == n:
                continue
            ssum += (
                -q / (z[m] - q * z[n])
                + q * z[m] / (q * z[n] * z[m] - 1.0)
                + 1.0 / (z[m] - z[n])
                - z[m] / (z[n] * z[m] - 1.0)
            )
            chain_m = 2.0 * z[m] ** 2 / (z[m] ** 2 - 1.0)
            bracket = (
                1.0 / (z[m] - q * z[n])
                + q * z[n] / (q * z[n] * z[m] - 1.0)
                - 1.0 / (z[m] - z[n])
                - z[n] / (z[n] * z[m] - 1.0)
            )
            off[n, m] = chain_m * g * bracket * kprod
        diag[n] = (chain_n * g * ssum + chain_n * gp) * kprod
    return diag, off


def L_aw(spec: fam.FamilySpec, z: np.ndarray):
    q = spec.q
    d1, o1 = aw_core(spec, z)
    d2, o2 = aw_core(spec, 1.0 / z)
    pref = (q - 1.0) / (2.0 * q ** float(spec.N))
    L = pref * (o1 + o2)
    np.fill_diagonal(L, pref * (d1 + d2))
    return L


def L_qracah(spec: fam.FamilySpec, z: np.ndarray):
    n_zeros = len(z)
    L = np.zeros((n_zeros, n_zeros), dtype=complex)
    zp = np.array([qracah_shift(spec, v, +1) for v in z])
    zm = np.array([qracah_shift(spec, v, -1) for v in z])
    bv = np.array([qracah_B(spec, v) for v in z])
    dv = np.array([qracah_D(spec, v) for v in z])
    bp = np.array([qracah_B(spec, Dual(v, [1.0])).eps[0] for v in z])
    dp = np.array([qracah_D(spec, Dual(v, [1.0])).eps[0] for v in z])
    cp = np.array([qracah_C(spec, v, +1) for v in z])
    cm = np.array([qracah_C(spec, v, -1) for v in z])

    def w_term(c_n, zshift_n, znv, zmv):
        return (c_n * (znv - zmv) - zshift_n + zmv) / ((znv - zmv) * (zshift_n - zmv))

    for n in range(n_zeros):
        prod_p = basic_f(zp[n], z, n)
        prod_m = basic_f(zm[n], z, n)
        sum_p = sum(w_term(cp[n], zp[n], z[n], z[m]) for m in range(n_zeros) if m != n)
        sum_m = sum(w_term(cm[n], zm[n], z[n], z[m]) for m in range(n_zeros) if m != n)
        L[n, n] = (
            bp[n] * (zp[n] - z[n]) + bv[n] * (cp[n] - 1.0 + (zp[n] - z[n]) * sum_p)
        ) * prod_p + (
            dp[n] * (zm[n] - z[n]) + dv[n] * (cm[n] - 1.0 + (zm[n] - z[n]) * sum_m)
        ) * prod_m
        for m in range(n_zeros):
            if m == n:
                continue
            L[n, m] = (
                bv[n] * ((zp[n] - z[n]) / (z[n] - z[m])) ** 2 * basic_f_exc(zp[n], z, n, m)
                + dv[n] * ((zm[n] - z[n]) / (z[n] - z[m])) ** 2 * basic_f_exc(zm[n], z, n, m)
            )
    return L


def reference_matrix(spec, zs, pad_count=0):
    """The paper's matrix at natural-variable zeros, lifted as the parent did."""
    zeta = np.asarray(zs.zeros if isinstance(zs, ZeroSet) else zs, dtype=complex).ravel()
    f = spec.family
    if f == fam.Family.GHYP:
        return L_ghyp(spec, zeta, pad_values=PAD_VALUES[:pad_count])
    if f in (fam.Family.WILSON, fam.Family.RACAH):
        lifted = fam.lift_zero_variables(spec, zeta)
        return (L_wilson if f == fam.Family.WILSON else L_racah)(spec, lifted)
    if f == fam.Family.AW:
        return L_aw(spec, zeta + np.sqrt(zeta * zeta - 1.0))
    return {fam.Family.JACOBI: L_jacobi, fam.Family.GBASIC: L_gbasic, fam.Family.QRACAH: L_qracah}[f](spec, zeta)


def dense_dual_matrix(spec, zs, pad_count=0):
    """The ghyp or Jacobi matrix by dense duals through the division-per-pair recursion."""
    zeta = np.asarray(zs.zeros if isinstance(zs, ZeroSet) else zs, dtype=complex).ravel()
    if spec.family == fam.Family.JACOBI:
        return L_jacobi_dual(spec, zeta)
    return L_ghyp(spec, zeta, pad_values=PAD_VALUES[:pad_count])


def gbasic_product_identity(spec, zeta: np.ndarray) -> np.ndarray:
    """Per-zero residuals of the basic family's explicit product identity.

    The q-analogue of the b.f - a.g identity, written with the products
    w(p) = prod_l (q^p zeta_n - zeta_l); each residual is normalized by its
    largest term.  It is the same identity as the equilibrium of the gbasic
    zero dynamics, written independently of the dynamics kernel.
    """
    q = spec.q
    N = spec.N
    r, s = len(spec.alphas), len(spec.betas)
    a, b = elementary_coeffs_basic(spec.alphas, spec.betas)
    out = np.zeros(len(zeta), dtype=complex)
    for n in range(len(zeta)):
        def w(p):
            return complex(np.prod(zeta[n] * q ** float(p) - zeta))

        terms = [-w(1)]
        terms += [
            (-1.0) ** k * q ** float(-k) * b[k - 1] * (w(k) - w(k + 1))
            for k in range(1, s + 1)
        ]
        sign = -((-1.0) ** (r - s)) * zeta[n]
        terms.append(sign * (w(s - r) - q ** float(-N) * w(s - r + 1)))
        terms += [
            sign * (-1.0) ** j * a[j - 1] * (w(s - r + j) - q ** float(-N) * w(s - r + j + 1))
            for j in range(1, r + 1)
        ]
        terms = np.asarray(terms)
        out[n] = terms.sum() / max(float(np.max(np.abs(terms))), 1e-300)
    return out
