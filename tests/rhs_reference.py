"""Reference zero-dynamics right-hand sides: the loop-over-numpy-scalars form.

These are the seven per-family term builders as they were written before the
right-hand sides moved to Python scalars (`isospectra.dynamics`).  They keep
every formula literal and serve the tests as an independent reference for the
rewritten builders and for RK4 trajectories.  The f/g recursion and the
exclusion product are kept in the same literal form, one division per ordered
pair, as the reference for the pair-symmetric `dynamics.fg_recursion` and
`dynamics.basic_f`.
"""

import numpy as np

from isospectra import families as fam
from isospectra.dynamics import X_GUARD
from isospectra.errors import DivideByZeroVariable
from isospectra.numeric import Dual, elementary_coeffs_basic, elementary_coeffs_hyp


def fg_recursion(zeta, J):
    """f[j][n] (j = 1..J) and g[j][n] (j = 0..J) over a list of complex or Dual scalars."""
    n_zeros = len(zeta)
    one = 1.0 + 0.0j
    if isinstance(zeta[0], Dual):
        one = Dual(1.0, [0.0] * n_zeros)
    f = [None] * (J + 1)
    g = [None] * (J + 1)
    f[1] = list(zeta)
    g[0] = [one] * n_zeros
    for j in range(1, J):
        fj = f[j]
        nxt = []
        for n, zn in enumerate(zeta):
            acc = -fj[n]
            for ell, zl in enumerate(zeta):
                if ell != n:
                    acc = acc + (zn * fj[ell] + zl * fj[n]) / (zn - zl)
            nxt.append(acc)
        f[j + 1] = nxt
    for j in range(1, J + 1):
        fj = f[j]
        row = []
        for n, zn in enumerate(zeta):
            acc = 0.0 * one
            for ell, zl in enumerate(zeta):
                if ell != n:
                    acc = acc + (fj[n] + fj[ell]) / (zn - zl)
            row.append(acc)
        g[j] = row
    return f, g


def basic_f(s, z, n):
    """prod_{l != n} (s - z_l) / (z_n - z_l)."""
    out = 1.0 + 0.0j
    for ell, zl in enumerate(z):
        if ell != n:
            out *= (s - zl) / (z[n] - zl)
    return out


def rhs_terms_ghyp(spec, z):
    a, b = elementary_coeffs_hyp(spec.alphas, spec.betas)
    p, qn = len(spec.alphas), len(spec.betas)
    f, g = fg_recursion(list(z), max(qn + 1, max(p, 1)))
    terms = []
    for n in range(len(z)):
        row = [b[k - 1] * f[k][n] for k in range(1, qn + 2)]
        row += [-a[j] * g[j][n] for j in range(0, p + 1)]
        terms.append(row)
    return np.asarray(terms, dtype=complex)


def rhs_terms_gbasic(spec, z):
    q = spec.q
    N = spec.N
    r, s = len(spec.alphas), len(spec.betas)
    a, b = elementary_coeffs_basic(spec.alphas, spec.betas)
    qn = q ** float(-N)
    sgn_s = (-1.0) ** (s + 1)
    sgn_r = (-1.0) ** r
    terms = []
    for n in range(len(z)):
        fn = lambda p: basic_f(q ** float(p) * z[n], z, n)  # noqa: E731
        row = [sgn_s * (q - 1.0) * fn(1)]
        row += [
            sgn_s
            * b[k - 1]
            * (-1.0) ** k
            / q**k
            * ((q ** (k + 1) - 1.0) * fn(k + 1) - (q**k - 1.0) * fn(k))
            for k in range(1, s + 1)
        ]
        row.append(
            sgn_r
            * z[n]
            * (qn * (q ** float(s - r + 1) - 1.0) * fn(s - r + 1) - (q ** float(s - r) - 1.0) * fn(s - r))
        )
        row += [
            sgn_r
            * z[n]
            * a[j - 1]
            * (-1.0) ** j
            * (
                qn * (q ** float(j + s + 1 - r) - 1.0) * fn(j + s + 1 - r)
                - (q ** float(j + s - r) - 1.0) * fn(j + s - r)
            )
            for j in range(1, r + 1)
        ]
        terms.append(row)
    return np.asarray(terms, dtype=complex)


def rhs_terms_wilson(spec, x):
    if np.any(np.abs(x) < X_GUARD):
        raise DivideByZeroVariable("wilson dynamics needs |x_n| > 0")
    x2 = x * x

    def piece(xv, xv2):
        out = np.zeros(len(x), dtype=complex)
        for n in range(len(x)):
            prod = np.prod(
                [
                    (xv2[n] - xv2[m] - 1.0 - 2j * xv[n]) / (xv2[n] - xv2[m])
                    for m in range(len(x))
                    if m != n
                ]
            ) if len(x) > 1 else 1.0
            out[n] = fam.wilson_D(spec, xv[n]) / (2j * xv[n]) * prod
        return out

    e_plus = piece(x, x2)
    e_minus = piece(-x, x2)
    pref = -1j / (2.0 * x)
    return np.stack([pref * e_plus, pref * e_minus], axis=1)


def rhs_terms_racah(spec, y):
    if np.any(np.abs(y) < X_GUARD):
        raise DivideByZeroVariable("racah dynamics needs |y_n| > 0")
    y2 = y * y

    def piece(yv, yv2):
        out = np.zeros(len(y), dtype=complex)
        for n in range(len(y)):
            prod = np.prod(
                [
                    1.0 + (1.0 + 2.0 * yv[n]) / (yv2[n] - yv2[m])
                    for m in range(len(y))
                    if m != n
                ]
            ) if len(y) > 1 else 1.0
            out[n] = fam.racah_Dtilde(spec, yv[n]) * (2.0 * yv[n] + 1.0) * prod
        return out

    e_plus = piece(y, y2)
    e_minus = piece(-y, y2)
    pref = -1j / (2.0 * y)
    return np.stack([pref * e_plus, pref * e_minus], axis=1)


def rhs_terms_aw(spec, x):
    q = spec.q
    z = x + np.sqrt(x * x - 1.0)

    def piece(zv):
        out = np.zeros(len(x), dtype=complex)
        for n in range(len(x)):
            prod = np.prod(
                [fam.aw_K(q, zv[n], zv[m]) for m in range(len(x)) if m != n]
            ) if len(x) > 1 else 1.0
            out[n] = fam.aw_G(spec, zv[n]) * prod
        return out

    pref = (q - 1.0) / (2.0 * q ** float(spec.N))
    return np.stack([pref * piece(z), pref * piece(1.0 / z)], axis=1)


def rhs_terms_qracah(spec, z):
    out = np.zeros((len(z), 2), dtype=complex)
    for n in range(len(z)):
        zp = fam.qracah_shift(spec, z[n], +1)
        zm = fam.qracah_shift(spec, z[n], -1)
        prod_p = np.prod(
            [(zp - z[m]) / (z[n] - z[m]) for m in range(len(z)) if m != n]
        ) if len(z) > 1 else 1.0
        prod_m = np.prod(
            [(zm - z[m]) / (z[n] - z[m]) for m in range(len(z)) if m != n]
        ) if len(z) > 1 else 1.0
        out[n, 0] = fam.qracah_B(spec, z[n]) * (zp - z[n]) * prod_p
        out[n, 1] = fam.qracah_D(spec, z[n]) * (zm - z[n]) * prod_m
    return out


def rhs_terms_jacobi(spec, x):
    gh = fam.jacobi_to_ghyp(spec)
    zvar = 2.0 / (1.0 - x)
    terms = rhs_terms_ghyp(gh, zvar)
    # pushforward: x = 1 - 2/z, so xdot = (2/z^2) zdot, applied termwise
    return terms * (2.0 / zvar**2)[:, None]


BUILDERS = {
    fam.Family.GHYP: rhs_terms_ghyp,
    fam.Family.GBASIC: rhs_terms_gbasic,
    fam.Family.WILSON: rhs_terms_wilson,
    fam.Family.RACAH: rhs_terms_racah,
    fam.Family.AW: rhs_terms_aw,
    fam.Family.QRACAH: rhs_terms_qracah,
    fam.Family.JACOBI: rhs_terms_jacobi,
}


def rhs_terms(spec, z):
    """Per-component terms, shape (N, n_terms), with no separation check."""
    return BUILDERS[spec.family](spec, np.asarray(z, dtype=complex).ravel())


def integrate(spec, z0, t1, steps, record_every=1):
    """Fixed-step RK4 on the reference right-hand side (no collision guard)."""
    z = np.asarray(z0, dtype=complex).ravel().copy()
    h = t1 / steps
    traj = [z.copy()]
    rhs = lambda v: rhs_terms(spec, v).sum(axis=1)  # noqa: E731
    for k in range(1, steps + 1):
        k1 = rhs(z)
        k2 = rhs(z + 0.5 * h * k1)
        k3 = rhs(z + 0.5 * h * k2)
        k4 = rhs(z + h * k3)
        z = z + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        if k % record_every == 0 or k == steps:
            traj.append(z.copy())
    return np.asarray(traj)
