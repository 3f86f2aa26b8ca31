"""Write reference_zeros.json: zeros of fixed specs to 30 significant digits.

Each spec's polynomial comes from the exact double parameters through the
per-term textbook sums of `tests/expansion_reference.term_table`, run in
`mpmath` at 120 digits (`expansion_reference.mp_coefficients`), so the
reference shares no statement of a family with the program: the library
builds Wilson, Racah, Askey-Wilson and q-Racah from their three-term
recurrences, and the other families from a nested term table.  The roots
come from `mpmath.polyroots` and are then Newton-polished at the same
precision.

Run from the repository root:

    PYTHONPATH=src:tests python tests/fixtures/make_reference_zeros.py
"""

from __future__ import annotations

import json
from pathlib import Path

import mpmath as mp

import expansion_reference
from isospectra import families

DPS = 120
DIGITS = 30
FIXTURE = Path(__file__).with_name("reference_zeros.json")

# (label, family, N, alphas, betas, q).  The real specs are draws from the
# safe box of `isospectra.cli` (numpy rng seed 2026, N = 2..12, 8 per
# construction); the complex ones move the demo parameters off the real axis.
SPECS = [
    # sums that cancel past double-double precision: a refinement without the
    # evaluation's error bound returned these zeros with tiny estimates
    ("qracah N=12 expansion too coarse", "qracah", 12,
     [2.0384152689295716, 1.035111498057991, 2.36840541332353, 2.5428293644206983], [],
     2.375452650859548),
    ("aw N=12 expansion too coarse", "aw", 12,
     [1.9280538474610525, 1.682941276703723, 1.041894998110509, 1.1217142036228767], [],
     2.3035245675076528),
    ("aw N=12 expansion too coarse (2)", "aw", 12,
     [2.1013756711413443, 0.8062778679940198, 2.1979038569700267, 0.5917747247882972], [],
     2.0085403204424703),
    # good zeros that a refinement on the factored sum rejected
    ("qracah N=8 accepted", "qracah", 8,
     [1.7139711218899154, 0.719490887404443, 2.2921357992853775, 2.786619902253461], [],
     2.387826897872679),
    ("aw N=10 accepted", "aw", 10,
     [1.8471665257440728, 2.619410088488761, 2.9719694180337646, 0.6834435988332683], [],
     2.0351093948019767),
    # the first N = 8 draw of each family
    ("ghyp N=8", "ghyp", 8, [1.2476189855544915], [3.509190930946139], None),
    ("jacobi N=8", "jacobi", 8, [0.7983171817012622, 2.818074652112546], [], None),
    ("gbasic N=8", "gbasic", 8, [1.9361657699259718], [1.5373812966222107], 1.8683831545033338),
    ("wilson N=8", "wilson", 8,
     [0.7596948709987096, 1.9918515405583639, 2.294471248417734, 2.0943572676473767], [], None),
    ("racah N=8", "racah", 8,
     [1.1899791906482198, 1.1867987645398577, 1.6398827080955345, 1.346620112024154], [], None),
    ("aw N=8", "aw", 8,
     [1.1593330792735321, 2.8932926320415486, 1.6081441749625194, 2.160102853935223], [],
     1.684864848985952),
    ("qracah N=8", "qracah", 8,
     [1.3377925755485123, 2.6307226609322187, 1.8004910983315718, 2.6861618709500177], [],
     2.249653370564582),
    # the second and third N = 8 draw of each family, from the 1056-draw sample
    # (numpy rng [2026, crc32(construction), N, k] for k = 1, 2)
    ("ghyp N=8 (2)", "ghyp", 8, [2.604158401709651], [2.8052487090310496], None),
    ("ghyp N=8 (3)", "ghyp", 8, [1.5304158330670892], [3.185242200374179], None),
    ("jacobi N=8 (2)", "jacobi", 8, [1.0101160576145842, 1.0080423331784536], [], None),
    ("jacobi N=8 (3)", "jacobi", 8, [0.8660061087998199, 2.806015944317203], [], None),
    ("gbasic N=8 (2)", "gbasic", 8, [2.0645190219988327], [2.535942070832969], 1.316816499756149),
    ("gbasic N=8 (3)", "gbasic", 8, [2.311966453345893], [2.0441589122011257], 1.4477905110275022),
    ("wilson N=8 (2)", "wilson", 8,
     [0.654396052805168, 1.0739977980173652, 1.0468736515270707, 2.8900906385146934], [], None),
    ("wilson N=8 (3)", "wilson", 8,
     [2.9993611982135273, 0.596764700676778, 0.8007638980730282, 0.9278732418690476], [], None),
    ("racah N=8 (2)", "racah", 8,
     [1.4445434692129093, 2.684303168469862, 2.3107563089119223, 1.1612649443638339], [], None),
    ("racah N=8 (3)", "racah", 8,
     [0.9326551042360163, 2.762727619017154, 2.990354742800128, 2.483370802489958], [], None),
    ("aw N=8 (2)", "aw", 8,
     [2.1276434839052003, 1.3328496870675985, 1.353924767752754, 2.854350581547448], [],
     2.3025680052110324),
    ("aw N=8 (3)", "aw", 8,
     [1.796340795083635, 2.3033243302978246, 2.0475181068898234, 2.25001501554649], [],
     1.3996476394221795),
    ("qracah N=8 (2)", "qracah", 8,
     [2.0719996276118158, 0.8107452904787017, 2.3536112615942213, 2.0388576406187044], [],
     1.8365704602850155),
    ("qracah N=8 (3)", "qracah", 8,
     [2.14612837137319, 1.9084368352184922, 1.158646071053537, 0.512410682564869], [],
     2.167180757615091),
    # complex parameters, as [re, im] pairs: every double-double operation
    # with a nonzero imaginary word takes the general complex path
    ("ghyp N=7 complex", "ghyp", 7, [[1.7, 0.4]], [[2.3, -0.2]], None),
    ("gbasic N=6 complex", "gbasic", 6, [[1.7, 0.3]], [[2.3, -0.2]], [1.5, 0.1]),
    ("wilson N=7 complex", "wilson", 7, [[0.7, 0.2], 1.1, [1.6, -0.1], 2.2], [], None),
    ("racah N=7 complex", "racah", 7, [[1.1, 0.2], 2.2, [0.8, -0.1], 1.4], [], None),
    ("aw N=7 complex", "aw", 7, [[0.6, 0.1], 1.1, [1.7, -0.2], 1.4], [], 1.4),
    ("qracah N=6 complex", "qracah", 6, [[1.1, 0.1], 2.2, 0.8, [1.4, -0.1]], [], 1.4),
    ("jacobi N=8 complex", "jacobi", 8, [[0.5, 0.3], [1.0, -0.2]], [], None),
]


def parameter(value):
    """A fixture parameter as a number: a real, or an [re, im] pair."""
    return complex(*value) if isinstance(value, list) else value


def reference_coefficients(spec, dps=DPS):
    """Ascending coefficients of the family sum of `spec`, in mpmath at `dps` digits."""
    return expansion_reference.mp_coefficients(spec, dps)


def reference_zeros(spec, dps=DPS):
    """The zeros of `spec` as mpmath complex numbers at `dps` digits, sorted by (re, im)."""
    coeffs = reference_coefficients(spec, dps)
    with mp.workdps(dps):
        roots = mp.polyroots(coeffs[::-1], maxsteps=400, extraprec=2 * dps)
        for _ in range(3):
            roots = [z - mp.polyval(coeffs[::-1], z) / _deriv(coeffs, z) for z in roots]
        return sorted(roots, key=lambda z: (float(z.real), float(z.imag)))


def _deriv(coeffs, z):
    return mp.polyval([k * c for k, c in enumerate(coeffs)][:0:-1], z)


def build_fixture():
    entries = []
    for label, family, N, alphas, betas, q in SPECS:
        spec = families.make_spec(
            family, N, [parameter(a) for a in alphas], [parameter(b) for b in betas],
            None if q is None else parameter(q),
        )
        zeros = reference_zeros(spec)
        entries.append({
            "label": label,
            "family": family,
            "N": N,
            "alphas": alphas,
            "betas": betas,
            "q": q,
            "zeros": [[mp.nstr(z.real, DIGITS), mp.nstr(z.imag, DIGITS)] for z in zeros],
        })
    return {"dps": DPS, "digits": DIGITS, "specs": entries}


def dump(fixture) -> str:
    """The fixture as JSON text, one spec per line."""
    specs = ",\n".join(json.dumps(entry) for entry in fixture["specs"])
    return f'{{"dps": {fixture["dps"]}, "digits": {fixture["digits"]}, "specs": [\n{specs}\n]}}\n'


def main():
    FIXTURE.write_text(dump(build_fixture()))
    print(f"wrote {FIXTURE}")


if __name__ == "__main__":
    main()
