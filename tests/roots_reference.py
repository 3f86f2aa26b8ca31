"""Reference root polish and zero matching, kept as the tests' independent copies.

`poly_roots_full_loop` runs every root through all three guarded Newton
steps over the library's own scalar evaluation (`numeric._newton_point`),
with no early stop, so a test can show that stopping a root at its first
rejected step changes nothing.  `multiset_match_numpy` and
`match_order_numpy` are the numpy forms of `numeric.multiset_match` and of
the oracle's continuity order (`numeric.nearest_pairing`) as they were
before the pairing moved to Python scalars; `shuffled_neighbors` draws the multisets they are compared on.
`refine_zeros_numpy` is `families.refine_zeros` as it was before its
iteration moved from numpy scalars to Python complex.
"""

import numpy as np
import numpy.polynomial.polynomial as npp

from isospectra import families
from isospectra.numeric import _newton_point


def poly_roots_full_loop(c):
    """(zeros sorted by (re, im), worst scaled backward error) after three steps per root."""
    c = np.asarray(c, dtype=complex)
    c = c / np.max(np.abs(c))
    desc = c[::-1].tolist()
    mods = [abs(ci) for ci in desc]
    roots, worst = [], 0.0
    for z in np.linalg.eigvals(npp.polycompanion(c)).tolist():
        for _ in range(3):
            step, res = _newton_point(desc, mods, z)
            cand = z - step
            if _newton_point(desc, mods, cand)[1] < res:
                z = cand
        roots.append(z)
        worst = max(worst, _newton_point(desc, mods, z)[1])
    roots.sort(key=lambda v: (v.real, v.imag))
    return np.array(roots, dtype=complex), worst


def multiset_match_numpy(a, b):
    """Greedy matched distance, normalized by max(1, max |b|), on numpy arrays."""
    va = np.asarray(a, dtype=complex).ravel()
    vb = np.asarray(b, dtype=complex).ravel()
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


def match_order_numpy(candidates, previous):
    """`candidates` reordered so each previous value takes its nearest remaining one."""
    cand = list(candidates)
    out = np.empty(len(previous), dtype=complex)
    for i, p in enumerate(previous):
        j = int(np.argmin([abs(cv - p) for cv in cand]))
        out[i] = cand.pop(j)
    return out


def shuffled_neighbors(n, seed, spread):
    """Two size-n multisets: random values, and a shuffle of them moved by about `spread`."""
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-2, 2)
    a = scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    moved = spread * scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    return a, a[rng.permutation(n)] + moved


def refine_zeros_numpy(spec, roots):
    """(refined roots, worst estimate): the structured Newton polish on numpy scalars."""
    out = np.array(roots, dtype=complex)
    worst = 0.0
    eps = np.finfo(float).eps
    for i, z in enumerate(out):
        prev = np.inf
        for k in range(families.REFINE_STEPS + 1):
            val, dval, bound = families.structured_eval(spec, z)
            if abs(dval) < families._TINY:
                fe = np.inf
                break
            step = val / dval
            fe = abs(step) / (1.0 + abs(z))
            if k == families.REFINE_STEPS or fe <= 0.25 * eps or (fe <= 2.0 * eps and fe > 0.5 * prev):
                fe = max(fe, bound / abs(dval) / (1.0 + abs(z)))
                break
            z = z - step
            prev = fe
        out[i] = z
        worst = max(worst, fe)
    return out, worst
