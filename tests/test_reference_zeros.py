"""compute_zeros against committed 30-digit reference zeros (tests/fixtures)."""

import importlib.util
import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import isospectra as iso

FIXTURES = Path(__file__).parent / "fixtures"
REFERENCE = json.loads((FIXTURES / "reference_zeros.json").read_text())
BY_LABEL = {entry["label"]: entry for entry in REFERENCE["specs"]}
EPS = Fraction(np.finfo(float).eps)


def spec_of(entry):
    """The spec of a fixture entry; complex parameters are stored as [re, im] pairs."""
    def value(v):
        return complex(*v) if isinstance(v, list) else v

    q = None if entry["q"] is None else value(entry["q"])
    return iso.make_spec(
        entry["family"], entry["N"], [value(a) for a in entry["alphas"]],
        [value(b) for b in entry["betas"]], q,
    )


def distance_sq(z, ref):
    """|z - ref|^2 in exact arithmetic, ref an exact (re, im) pair."""
    dr, di = Fraction(z.real) - ref[0], Fraction(z.imag) - ref[1]
    return dr * dr + di * di


@pytest.mark.parametrize("entry", REFERENCE["specs"], ids=lambda e: e["label"])
def test_zeros_within_estimate(entry):
    """Every zero within max(estimate, 4 eps) (1 + |z|); every fixture spec is accepted."""
    zs = iso.compute_zeros(spec_of(entry))
    refs = [(Fraction(re), Fraction(im)) for re, im in entry["zeros"]]
    assert len(zs.zeros) == len(refs)
    tol = max(Fraction(zs.max_poly_residual), 4 * EPS)
    matched = set()
    for z in zs.zeros:
        dists = [distance_sq(z, ref) for ref in refs]
        k = min(range(len(refs)), key=dists.__getitem__)
        assert dists[k] <= (tol * (1 + Fraction(abs(z)))) ** 2, (z, float(refs[k][0]))
        matched.add(k)
    assert len(matched) == len(refs)


@pytest.mark.parametrize("label", [
    "qracah N=8 accepted", "aw N=10 accepted", "qracah N=12 expansion too coarse",
    "aw N=12 expansion too coarse", "aw N=12 expansion too coarse (2)",
])
def test_good_zeros_accepted(label):
    # zeros good to 1e-15 against the reference, which the hypergeometric sums
    # (cancelling by up to 32 digits) rejected or got wrong; built from the
    # recurrence, the estimate must say so
    zs = iso.compute_zeros(spec_of(BY_LABEL[label]))
    assert zs.max_poly_residual <= 1e-15


TABLE_FAMILIES = ("wilson", "racah", "aw", "qracah")


@pytest.mark.parametrize(
    "entry", [e for e in REFERENCE["specs"] if e["family"] in TABLE_FAMILIES], ids=lambda e: e["label"]
)
def test_recurrence_table_zeros(entry):
    """The N x N tridiagonal of `families.recurrence` has the reference zeros as eigenvalues, in u."""
    spec = spec_of(entry)
    alpha, beta, gamma = iso.families.recurrence(spec, spec.N)
    got = np.linalg.eigvals(np.diag(beta) + np.diag(alpha[:-1], 1) + np.diag(gamma[1:], -1))
    want = np.array([complex(float(re), float(im)) for re, im in entry["zeros"]])
    if spec.family == iso.Family.RACAH:
        want = want + iso.families.racah_theta(spec) ** 2
    matched = set()
    for z in got:
        k = int(np.argmin(np.abs(want - z)))
        assert abs(want[k] - z) <= 3e-13 * (1 + abs(z)), (z, want[k])
        matched.add(k)
    assert len(matched) == len(want)


def test_fixture_regenerates():
    mp = pytest.importorskip("mpmath")
    path = FIXTURES / "make_reference_zeros.py"
    module_spec = importlib.util.spec_from_file_location("make_reference_zeros", path)
    generator = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(generator)
    fresh = generator.build_fixture()
    assert {k: v for k, v in fresh.items() if k != "specs"} == {
        k: v for k, v in REFERENCE.items() if k != "specs"
    }
    assert len(fresh["specs"]) == len(REFERENCE["specs"])
    for new, old in zip(fresh["specs"], REFERENCE["specs"]):
        assert {k: v for k, v in new.items() if k != "zeros"} == {
            k: v for k, v in old.items() if k != "zeros"
        }
        assert len(new["zeros"]) == len(old["zeros"])
        with mp.workdps(REFERENCE["digits"] + 10):
            tol = mp.mpf(10) ** (3 - REFERENCE["digits"])
            for a, b in zip(new["zeros"], old["zeros"]):
                za, zb = mp.mpc(*a), mp.mpc(*b)
                assert abs(za - zb) <= tol * (1 + abs(zb)), (new["label"], a, b)
