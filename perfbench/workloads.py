"""The three benchmark workloads: input generation, one operation, output checks.

Every input is derived from the benchmark seed with the benchmark's own RNG;
the program receives only the generated argv lists or specs.  Generation and
checking run outside the timed region.  Each workload's ``pass_ops`` is the
number of inputs a seed fixes; one pass over them takes 20-33 s on a
2-vCPU shared host, about one 25-second run.

- ``sweep``: one ``isospectra sweep --family all --draws 1`` call, which draws
  one spec per construction (12 specs) from ``--seed``; throughput and
  failures are counted per spec, latency per call.
- ``verify-n8``: one ``isospectra verify`` request on a spec drawn by the
  benchmark at N = 8 from the README's safe box.
- ``evolve``: ``dynamics.evolve_compare`` on a perturbed equilibrium of one of
  the seven README demo specs, its parameters jittered by the seed.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import sys
import zlib
from dataclasses import dataclass

import numpy as np

# construction name -> (family, alpha count, beta count), as in the README
CONSTRUCTIONS = {
    "ghyp11": ("ghyp", 1, 1),
    "jacobi": ("jacobi", 2, 0),
    "ghyp21": ("ghyp", 2, 1),
    "ghyp22": ("ghyp", 2, 2),
    "ghyp32": ("ghyp", 3, 2),
    "gbasic11": ("gbasic", 1, 1),
    "gbasic21": ("gbasic", 2, 1),
    "gbasic22": ("gbasic", 2, 2),
    "wilson": ("wilson", 4, 0),
    "racah": ("racah", 4, 0),
    "aw": ("aw", 4, 0),
    "qracah": ("qracah", 4, 0),
}
Q_FAMILIES = ("gbasic", "aw", "qracah")

# the README's documented safe box
ALPHA_BOX = (0.5, 3.0)
BETA_BOX = (1.5, 4.0)
Q_BOX = (1.3, 2.5)

# the CLI's default pass thresholds
TOL_SPECTRAL = 1e-6
TOL_TRACEDET = 1e-8
TOL_IDENTITY = 1e-8
TOL_DEVIATION = 1e-6

VERIFY_N = 8
SWEEP_NMAX = 8

# evolve: the CLI's default t1, --perturb and --record-every; steps shortened
# from 2000 so a run holds several passes over the seven families while both
# the RK4 integration and the oracle keep doing work.
EVOLVE_T1 = 0.5
EVOLVE_STEPS = 1000
EVOLVE_RECORD_EVERY = 20
EVOLVE_PERTURB = 1e-3
EVOLVE_JITTER = 0.05  # relative jitter on the demo parameters
# the README / scripts/run_evolution_demo.py specs: (family, N, alphas, betas, q)
EVOLVE_ANCHORS = (
    ("ghyp", 4, (1.7,), (2.3,), None),
    ("gbasic", 4, (1.7,), (2.3,), 1.5),
    ("wilson", 4, (0.7, 1.1, 1.6, 2.2), (), None),
    ("racah", 4, (1.1, 2.2, 0.8, 1.4), (), None),
    ("aw", 4, (0.6, 1.1, 1.7, 1.4), (), 1.4),
    ("qracah", 3, (1.1, 2.2, 0.8, 1.4), (), 1.4),
    ("jacobi", 4, (0.5, 1.0), (), None),
)


@dataclass
class Op:
    """One generated input: a label that names it and what the program receives."""

    label: str
    payload: object
    digest_key: object


@dataclass
class Outcome:
    """Checked result of one operation, which covers `attempted` specs or requests."""

    failed: int             # of them: raised, exited nonzero, or a residual over its limit
    consistent: bool        # the output is well formed and agrees with the benchmark's checks
    residuals: tuple = ()   # worst checked residual of each one that reported residuals
    why: str = ""
    attempted: int = 1


def _rng(seed: int, phase: int, tag: str, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, phase, zlib.crc32(tag.encode()), index])


def _derived_seed(seed: int, phase: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, phase, index]).generate_state(1)[0])


def _fmt(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _pairs(values) -> np.ndarray:
    return np.array([complex(re, im) for re, im in values], dtype=complex)


def _hausdorff(a: np.ndarray, b: np.ndarray) -> float:
    d = np.abs(a[:, None] - b[None, :])
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


def _bottleneck(a: np.ndarray, b: np.ndarray) -> float:
    """Smallest achievable max distance over all pairings (small N only)."""
    return min(
        float(np.max(np.abs(a - b[list(p)]))) for p in itertools.permutations(range(len(b)))
    )


def call_cli(cli, argv):
    """Run ``cli.main(argv)`` with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _cli_outcome(result, exc, check_report, attempted=1) -> Outcome:
    if exc is not None:
        return Outcome(attempted, True, (), f"raised {type(exc).__name__}: {exc}", attempted)
    code, out, err = result
    if code != 0 and not out.strip():
        return Outcome(attempted, True, (), f"exit {code}: {err.strip().splitlines()[-1:]}",
                       attempted)
    try:
        report = json.loads(out)
    except ValueError:
        return Outcome(attempted, False, (), f"exit {code}: output is not one JSON report",
                       attempted)
    return check_report(code, report)


class Sweep:
    name = "sweep"
    clear_caches = False  # one sweep process keeps its caches across specs
    pass_ops = 84
    warmup_ops = 1

    def __init__(self, iso):
        self.cli = iso.cli

    def make(self, seed: int, phase: int, i: int) -> Op:
        sweep_seed = _derived_seed(seed, phase, i)
        argv = ["sweep", "--family", "all", "--draws", "1", "--seed", str(sweep_seed),
                "--nmax", str(SWEEP_NMAX)]
        return Op(f"sweep --seed {sweep_seed}", argv, argv)

    def run(self, op: Op):
        return call_cli(self.cli, op.payload)

    def check(self, op: Op, result, exc) -> Outcome:
        names = list(CONSTRUCTIONS)

        def check_report(code, rep):
            try:
                rows = rep["results"]
                worst = {k: max(row["residuals"][k] for row in rows)
                         for k in ("spectral", "trace", "det")}
                bad = []
                consistent = len(rows) == len(names)
                for row, name in zip(rows, names):
                    res = row["residuals"]
                    within = (res["spectral"] <= TOL_SPECTRAL and res["trace"] <= TOL_TRACEDET
                              and res["det"] <= TOL_TRACEDET)
                    consistent &= (
                        row["construction"] == name
                        and bool(row["pass"]) == within
                        and row["spec"]["family"] == CONSTRUCTIONS[name][0]
                        and 2 <= row["spec"]["N"] <= SWEEP_NMAX
                    )
                    if not row["pass"]:
                        bad.append(f"{name} N={row['spec']['N']} residuals {res}")
                ok = bool(rep["pass"])
                consistent &= (
                    (code == 0) == ok == (not bad)
                    and rep["constructions"] == names
                    and rep["total"] == len(names)
                    and rep["pass_count"] == len(names) - len(bad)
                    and rep["worst_residuals"] == worst
                )
                residuals = tuple(max(row["residuals"].values()) for row in rows)
            except (KeyError, TypeError, ValueError):
                return Outcome(len(names), False, (), "malformed sweep report", len(names))
            why = "; ".join(bad) if consistent else "inconsistent report"
            return Outcome(len(bad), consistent, residuals, why, len(names))

        return _cli_outcome(result, exc, check_report, len(names))


def draw_verify_spec(iso, seed: int, phase: int, i: int):
    """A safe-box draw at N = VERIFY_N, redrawn until the program can build its polynomial.

    Draws whose denominators or leading coefficient vanish are rejected by
    ``build_polynomial`` and redrawn, like ``sweep`` redraws them; failures
    past that point (repeated zeros, non-convergence, residuals over their
    limits) belong to the request and are counted.
    """
    names = list(CONSTRUCTIONS)
    name = names[i % len(names)]
    family, n_alpha, n_beta = CONSTRUCTIONS[name]
    rng = _rng(seed, phase, name, i // len(names))
    for _ in range(200):
        alphas = rng.uniform(*ALPHA_BOX, n_alpha)
        betas = rng.uniform(*BETA_BOX, n_beta)
        q = float(rng.uniform(*Q_BOX)) if family in Q_FAMILIES else None
        spec = iso.make_spec(family, VERIFY_N, alphas, betas, q)
        try:
            iso.build_polynomial(spec)
        except iso.InvalidParameters:
            continue
        return name, alphas, betas, q
    raise RuntimeError(f"no valid {name} draw at N = {VERIFY_N}")


class VerifyN8:
    name = "verify-n8"
    clear_caches = True  # each verify is its own process in real use
    pass_ops = 360
    warmup_ops = 12

    def __init__(self, iso):
        self.iso = iso

    def make(self, seed: int, phase: int, i: int) -> Op:
        name, alphas, betas, q = draw_verify_spec(self.iso, seed, phase, i)
        family = CONSTRUCTIONS[name][0]
        argv = ["verify", "--family", family, "-N", str(VERIFY_N),
                "--seed", str(_derived_seed(seed, phase, i))]
        if len(alphas):
            argv += ["--alphas", _fmt(alphas)]
        if len(betas):
            argv += ["--betas", _fmt(betas)]
        if q is not None:
            argv += ["--q", repr(q)]
        return Op(f"{name} " + " ".join(argv[1:]), argv, argv)

    def run(self, op: Op):
        return call_cli(self.iso.cli, op.payload)

    def check(self, op: Op, result, exc) -> Outcome:
        family = op.payload[2]

        def check_report(code, rep):
            try:
                res = rep["residuals"]
                worst = max(res.values())
                within = (
                    res["spectral"] <= TOL_SPECTRAL
                    and res["trace"] <= TOL_TRACEDET
                    and res["det"] <= TOL_TRACEDET
                    and max(res["identity"], res["equilibrium"], res["defining_eq"]) <= TOL_IDENTITY
                )
                ok = bool(rep["pass"])
                L = np.array([[complex(*e) for e in row] for row in rep["matrix"]])
                ref = _pairs(rep["reference_spectrum"])
                scale = max(1.0, float(np.max(np.abs(ref))))
                # exact-reference check with an eigensolver independent of the program's
                spectral = _hausdorff(np.linalg.eigvals(L), ref) / scale
                lam_sum = complex(np.sum(ref))
                trace = abs(np.trace(L) - lam_sum) / max(1.0, abs(lam_sum))
                consistent = (
                    (code == 0) == ok == within
                    and rep["spec"]["family"] == family
                    and rep["spec"]["N"] == VERIFY_N
                    and len(rep["zeros"]) == VERIFY_N
                    and L.shape == (VERIFY_N, VERIFY_N)
                    and abs(trace - res["trace"]) <= 1e-12 + 1e-6 * res["trace"]
                    and (not ok or spectral <= 10 * TOL_SPECTRAL)
                )
            except (KeyError, TypeError, ValueError, np.linalg.LinAlgError):
                return Outcome(1, False, (), "malformed verify report")
            why = "" if ok else f"residuals {res}; numpy.linalg.eigvals spectral {spectral:.2e}"
            return Outcome(int(not ok), consistent, (worst,),
                           why if consistent else "inconsistent report")

        return _cli_outcome(result, exc, check_report)


class Evolve:
    name = "evolve"
    clear_caches = True  # each evolve is its own process in real use
    pass_ops = 28
    warmup_ops = 2

    def __init__(self, iso):
        self.iso = iso

    def make(self, seed: int, phase: int, i: int) -> Op:
        iso = self.iso
        family, n, alphas, betas, q = EVOLVE_ANCHORS[i % len(EVOLVE_ANCHORS)]
        rng = _rng(seed, phase, family, i // len(EVOLVE_ANCHORS))

        def jitter(values):
            return [v * (1.0 + EVOLVE_JITTER * rng.uniform(-1.0, 1.0)) for v in values]

        spec = iso.make_spec(family, n, jitter(alphas), jitter(betas),
                             None if q is None else jitter([q])[0])
        start = iso.to_dynamics_variable(spec, iso.compute_zeros(spec).zeros)
        start = start + EVOLVE_PERTURB * (rng.uniform(-1.0, 1.0, n) + 1j * rng.uniform(-1.0, 1.0, n))
        label = f"{family} N={n} alphas={_fmt(a.real for a in spec.alphas)}"
        key = [family, n, [repr(a) for a in spec.alphas], [repr(b) for b in spec.betas],
               repr(spec.q), [repr(z) for z in start]]
        return Op(label, (spec, start), key)

    def run(self, op: Op):
        spec, start = op.payload
        return self.iso.evolve_compare(
            spec, start, EVOLVE_T1, EVOLVE_STEPS, record_every=EVOLVE_RECORD_EVERY
        )

    def check(self, op: Op, rec, exc) -> Outcome:
        if exc is not None:
            return Outcome(1, True, (), f"raised {type(exc).__name__}: {exc}")
        spec, _ = op.payload
        n_times = EVOLVE_STEPS // EVOLVE_RECORD_EVERY + 1
        try:
            dev = float(rec.max_deviation)
            ode, oracle = np.asarray(rec.ode_zeros), np.asarray(rec.oracle_zeros)
            # the program's greedy matching can only overstate the best pairing
            best = max(
                _bottleneck(ode[k], oracle[k]) / max(1.0, float(np.max(np.abs(oracle[k]))))
                for k in range(n_times)
            )
            consistent = (
                len(rec.times) == n_times
                and abs(rec.times[-1] - EVOLVE_T1) <= 1e-12
                and ode.shape == oracle.shape == (n_times, spec.N)
                and bool(np.all(np.isfinite(ode)) and np.all(np.isfinite(oracle)))
                and best <= dev * (1.0 + 1e-9) + 1e-300
            )
        except (AttributeError, IndexError, TypeError, ValueError):
            return Outcome(1, False, (), "malformed trajectory record")
        ok = dev <= TOL_DEVIATION
        why = "" if ok else f"max_deviation {dev:.2e} > {TOL_DEVIATION:g}"
        return Outcome(int(not ok), consistent, (dev,), why if consistent else "inconsistent record")


WORKLOADS = {cls.name: cls for cls in (Sweep, VerifyN8, Evolve)}


def clear_memo_caches() -> None:
    """Empty every functools cache in the program, as a fresh process would have."""
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "isospectra" or mod_name.startswith("isospectra."):
            for value in vars(mod).values():
                clear = getattr(value, "cache_clear", None)
                if callable(clear):
                    clear()
