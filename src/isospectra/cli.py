"""Command-line front end emitting JSON verification reports.

Subcommands: zeros | matrix | verify | evolve | sweep.

Complex numbers are serialized as [re, im] pairs; output is deterministic for
a fixed --seed (byte-identical reports).  Exit codes: 0 pass, 1 verification
failure, 2 invalid input, 3 degenerate zeros, 4 numerical non-convergence.
Set ISOSPECTRA_LOG=debug|info for stderr diagnostics.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import os
import shutil
import sys
import zlib

import numpy as np

from . import dynamics, errors, families, matrices
from .errors import InvalidParameters, NonConvergence, RepeatedZeros
from .families import Family, FamilySpec, make_spec
from .numeric import ZeroSet

log = logging.getLogger("isospectra")

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INVALID = 2
EXIT_DEGENERATE = 3
EXIT_NONCONVERGENCE = 4

#: the exit code of each error class; `main` prints the error and returns it
EXIT_CODES = {
    errors.InvalidParameters: EXIT_INVALID,
    errors.SingularA: EXIT_INVALID,
    errors.SingularSample: EXIT_INVALID,
    errors.CardinalityMismatch: EXIT_INVALID,
    errors.RepeatedZeros: EXIT_DEGENERATE,
    errors.Collision: EXIT_DEGENERATE,
    errors.BranchPoint: EXIT_DEGENERATE,
    errors.DegenerateInput: EXIT_DEGENERATE,
    errors.SingularDenominator: EXIT_DEGENERATE,
    errors.DivideByZeroVariable: EXIT_DEGENERATE,
    errors.NonConvergence: EXIT_NONCONVERGENCE,
}

FAMILY_ALIASES = {
    "ghyp": Family.GHYP,
    "gbasic": Family.GBASIC,
    "wilson": Family.WILSON,
    "racah": Family.RACAH,
    "aw": Family.AW,
    "askey-wilson": Family.AW,
    "qracah": Family.QRACAH,
    "jacobi": Family.JACOBI,
}

#: sweep constructions: name -> (family, alpha count, beta count)
CONSTRUCTIONS = {
    "ghyp11": (Family.GHYP, 1, 1),
    "jacobi": (Family.JACOBI, 2, 0),
    "ghyp21": (Family.GHYP, 2, 1),
    "ghyp22": (Family.GHYP, 2, 2),
    "ghyp32": (Family.GHYP, 3, 2),
    "gbasic11": (Family.GBASIC, 1, 1),
    "gbasic21": (Family.GBASIC, 2, 1),
    "gbasic22": (Family.GBASIC, 2, 2),
    "wilson": (Family.WILSON, 4, 0),
    "racah": (Family.RACAH, 4, 0),
    "aw": (Family.AW, 4, 0),
    "qracah": (Family.QRACAH, 4, 0),
}

# documented "safe box" for random draws
ALPHA_BOX = (0.5, 3.0)
BETA_BOX = (1.5, 4.0)
Q_BOX = (1.3, 2.5)
DRAW_MARGIN = 1e-2   # quality margin on q-Pochhammer denominators when drawing

#: the residuals every matrix report carries, each read from `<key>_residual`
MATRIX_RESIDUALS = ("spectral", "trace", "det")


def _c2pair(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def _carray(values) -> list:
    return [[z.real, z.imag] for z in np.asarray(values, dtype=complex).ravel().tolist()]


def _parse_complex_list(text):
    if text is None or text == "":
        return ()
    out = []
    for tok in str(text).split(","):
        try:
            out.append(complex(tok.strip().replace("i", "j")))
        except ValueError:
            raise InvalidParameters(f"not a complex number: {tok.strip()!r}") from None
    return tuple(out)


def _file_pair(value, field: str) -> complex:
    """One [re, im] pair of a spec file, as a complex number."""
    if isinstance(value, list) and len(value) == 2 and all(type(v) in (int, float) for v in value):
        return complex(value[0], value[1])
    raise InvalidParameters(f"spec file: {field} needs [re, im] pairs of numbers, got {value!r}")


def _spec_from_args(args) -> FamilySpec:
    file_cfg = {}
    if getattr(args, "spec_file", None):
        try:
            with open(args.spec_file, "r", encoding="utf-8") as fh:
                file_cfg = json.load(fh)
        except (OSError, ValueError) as exc:
            raise InvalidParameters(f"cannot read spec file: {exc}") from None
        if not isinstance(file_cfg, dict):
            raise InvalidParameters("spec file must hold a JSON object")
    family = args.family or file_cfg.get("family")
    if family is None:
        raise InvalidParameters("no family given (flag --family or spec file)")
    fam_key = str(family).lower()
    if fam_key not in FAMILY_ALIASES:
        raise InvalidParameters(f"unknown family {family!r}")

    def from_pairs(field):
        value = file_cfg.get(field, [])
        if not isinstance(value, list):
            raise InvalidParameters(f"spec file: {field} must be a list, got {value!r}")
        return tuple(_file_pair(p, field) for p in value)

    n = args.N if args.N is not None else file_cfg.get("N")
    if n is None:
        raise InvalidParameters("no degree N given")
    if type(n) is not int:
        raise InvalidParameters(f"spec file: N must be an integer, got {n!r}")
    alphas = _parse_complex_list(args.alphas) if args.alphas is not None else from_pairs("alphas")
    betas = _parse_complex_list(args.betas) if args.betas is not None else from_pairs("betas")
    if args.q is not None:
        qs = _parse_complex_list(args.q)
        if len(qs) != 1:
            raise InvalidParameters("--q takes exactly one complex value")
        q = qs[0]
    else:
        raw = file_cfg.get("q")
        q = None if raw is None else _file_pair(raw, "q")
    return make_spec(FAMILY_ALIASES[fam_key], n, alphas, betas, q)


def _spec_echo(spec: FamilySpec) -> dict:
    return {
        "family": spec.family.value,
        "N": spec.N,
        "alphas": _carray(spec.alphas),
        "betas": _carray(spec.betas),
        "q": None if spec.q is None else _c2pair(spec.q),
    }


def _finite_or_none(x):
    return float(x) if np.isfinite(x) else None


def _emit(report: dict) -> None:
    sys.stdout.write(json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n")


def _check_numbers(args, finite=(), tolerances=()) -> None:
    """Raise InvalidParameters for a negative --seed, a non-finite value of a
    `finite` flag, or a `tolerances` flag that is not finite and >= 0."""
    if getattr(args, "seed", 0) < 0:
        raise InvalidParameters("--seed must be >= 0")
    for dest in finite:
        if not np.isfinite(getattr(args, dest)):
            raise InvalidParameters(f"--{dest.replace('_', '-')} must be finite")
    for dest in tolerances:
        if not 0.0 <= getattr(args, dest) < np.inf:
            raise InvalidParameters(f"--{dest.replace('_', '-')} must be finite and >= 0")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_zeros(args) -> int:
    spec = _spec_from_args(args)
    zs = families.compute_zeros(spec)
    _emit(
        {
            "spec": _spec_echo(spec),
            "zeros": _carray(zs.zeros),
            "min_separation": _finite_or_none(zs.min_separation),
            "max_poly_residual": zs.max_poly_residual,
            "pass": True,
        }
    )
    return EXIT_PASS


def _residuals(report: matrices.IsospectralMatrix) -> dict:
    return {key: getattr(report, f"{key}_residual") for key in MATRIX_RESIDUALS}


def _matrix_payload(
    spec: FamilySpec, zs: ZeroSet, tol_spectral: float
) -> tuple[dict, matrices.IsospectralMatrix]:
    """The report fields of `matrix` and `verify`, and the matrix report they come from."""
    report = matrices.verify_matrix(spec, tol_spectral=tol_spectral, zeros=zs)
    payload = {
        "spec": _spec_echo(spec),
        "zeros": _carray(zs.zeros),
        "matrix": [_carray(row) for row in report.L],
        "computed_spectrum": _carray(report.computed_spectrum),
        "reference_spectrum": _carray(report.reference_spectrum),
        "residuals": _residuals(report),
    }
    return payload, report


def cmd_matrix(args) -> int:
    _check_numbers(args, tolerances=("tol_spectral",))
    spec = _spec_from_args(args)
    zs = families.compute_zeros(spec)
    payload, report = _matrix_payload(spec, zs, args.tol_spectral)
    _emit({**payload, "pass": report.passed})
    return EXIT_PASS if report.passed else EXIT_FAIL


def cmd_verify(args) -> int:
    _check_numbers(args, tolerances=("tol_spectral", "tol_identity"))
    spec = _spec_from_args(args)
    zs = families.compute_zeros(spec)
    payload, report = _matrix_payload(spec, zs, args.tol_spectral)
    # the zeros' identities are their equilibrium conditions, whose terms the
    # matrix's Jacobian pass evaluated: one residual, both keys
    identity = float(np.max(np.abs(dynamics.normalized_row_sums(report.terms))))
    defining = families.max_defining_residual(spec, seed=args.seed)
    payload["residuals"] |= {"identity": identity, "equilibrium": identity, "defining_eq": defining}
    ok = bool(report.passed and identity <= args.tol_identity and defining <= args.tol_identity)
    _emit({**payload, "pass": ok})
    return EXIT_PASS if ok else EXIT_FAIL


def cmd_evolve(args) -> int:
    if args.steps < 1 or args.record_every < 1:
        raise InvalidParameters("--steps and --record-every must be >= 1")
    _check_numbers(args, finite=("t1", "perturb"), tolerances=("tol_deviation",))
    spec = _spec_from_args(args)
    zs = families.compute_zeros(spec)
    start = dynamics.to_dynamics_variable(spec, zs.zeros)
    rng = np.random.default_rng(args.seed)
    if args.perturb:
        jitter = rng.uniform(-1.0, 1.0, len(start)) + 1j * rng.uniform(-1.0, 1.0, len(start))
        start = start + args.perturb * jitter
    record = dynamics.evolve_compare(
        spec, start, args.t1, args.steps, record_every=args.record_every
    )
    ok = record.max_deviation <= args.tol_deviation
    _emit(
        {
            "spec": _spec_echo(spec),
            "times": list(record.times),
            "ode_zeros": [_carray(row) for row in record.ode_zeros],
            "oracle_zeros": [_carray(row) for row in record.oracle_zeros],
            "max_deviation": record.max_deviation,
            "pass": bool(ok),
        }
    )
    return EXIT_PASS if ok else EXIT_FAIL


def draw_spec(
    construction: str, nmax: int, rng: np.random.Generator, nmin: int = 2
) -> tuple[FamilySpec, ZeroSet]:
    """One safe-box draw for a named construction, redrawn until valid.

    The box itself can graze q-Pochhammer poles (e.g. alpha ~ 1/q for
    q-racah), so draws whose denominators come within DRAW_MARGIN of zero are
    rejected and redrawn; the rng state makes this deterministic.  Returns
    the spec with its zeros, which validating the draw already computed.
    """
    family, n_alpha, n_beta = CONSTRUCTIONS[construction]
    for _ in range(200):
        n = int(rng.integers(nmin, nmax + 1))
        alphas = tuple(rng.uniform(*ALPHA_BOX) for _ in range(n_alpha))
        betas = tuple(rng.uniform(*BETA_BOX) for _ in range(n_beta))
        q = rng.uniform(*Q_BOX) if family in families.Q_FAMILIES else None
        spec = make_spec(family, n, alphas, betas, q)
        try:
            families.validate_spec(spec)
            if family in families.Q_FAMILIES and _near_q_pole(spec):
                continue
            zs = families.compute_zeros(spec)
        except (InvalidParameters, RepeatedZeros, NonConvergence):
            continue
        return spec, zs
    raise NonConvergence(f"no valid draw for {construction} after 200 tries")


def _near_q_pole(spec: FamilySpec) -> bool:
    bases = [base for base, _ in families.q_pole_bases(spec)]
    if spec.family == Family.GBASIC:
        bases += spec.alphas
    return any(
        abs(1.0 - g) < DRAW_MARGIN for base in bases for g in families.q_powers(base, spec.q, spec.N)
    )


def cmd_sweep(args) -> int:
    names = list(CONSTRUCTIONS) if args.family in (None, "all") else [args.family]
    if not set(names) <= CONSTRUCTIONS.keys():
        raise InvalidParameters(f"unknown construction {args.family!r}")
    if args.draws < 0:
        raise InvalidParameters("--draws must be >= 0")
    if args.nmax < 2:
        raise InvalidParameters("--nmax must be >= 2")
    _check_numbers(args, tolerances=("tol_spectral",))
    results = []
    for name in names:
        for k in range(args.draws):
            rng = np.random.default_rng([args.seed, zlib.crc32(name.encode()), k])
            spec, zs = draw_spec(name, args.nmax, rng)
            report = matrices.verify_matrix(spec, tol_spectral=args.tol_spectral, zeros=zs)
            results.append(
                {
                    "construction": name,
                    "draw": k,
                    "spec": _spec_echo(spec),
                    "residuals": _residuals(report),
                    "pass": bool(report.passed),
                }
            )
    worst = {key: max([0.0] + [r["residuals"][key] for r in results]) for key in MATRIX_RESIDUALS}
    n_pass = sum(row["pass"] for row in results)
    ok = n_pass == len(results)
    _emit(
        {
            "constructions": names,
            "draws": args.draws,
            "seed": args.seed,
            "nmax": args.nmax,
            "results": results,
            "pass_count": n_pass,
            "total": len(results),
            "worst_residuals": worst,
            "pass": bool(ok),
        }
    )
    return EXIT_PASS if ok else EXIT_FAIL


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

#: the spec flags that `zeros`, `matrix`, `verify` and `evolve` share; each
#: flag is (option strings, add_argument keywords)
_SPEC_FLAGS = (
    (("--family",), {"help": "ghyp|gbasic|wilson|racah|aw|qracah|jacobi"}),
    (("-N", "--N"), {"type": int, "default": None, "help": "polynomial degree"}),
    (("--alphas",), {"default": None, "help": "comma-separated complex list"}),
    (("--betas",), {"default": None, "help": "comma-separated complex list"}),
    (("--q",), {"default": None, "help": "base q (q-families only)"}),
    (("--spec-file",), {"default": None, "help": "JSON spec file; flags override"}),
)
_SEED = (("--seed",), {"type": int, "default": 0})
_TOL_SPECTRAL = (("--tol-spectral",), {"type": float, "default": 1e-6, "dest": "tol_spectral"})

#: subcommand -> (handler, its flags in registration order); argparse and
#: `_direct_namespace` both read them, so every flag takes one value, stored
#: (keywords only from type, default, dest and help) and has a long option
_SUBCOMMANDS = {
    "zeros": (cmd_zeros, _SPEC_FLAGS),
    "matrix": (cmd_matrix, (*_SPEC_FLAGS, _TOL_SPECTRAL)),
    "verify": (cmd_verify, (
        *_SPEC_FLAGS,
        _SEED,
        _TOL_SPECTRAL,
        (("--tol-identity",), {"type": float, "default": 1e-8, "dest": "tol_identity"}),
    )),
    "evolve": (cmd_evolve, (
        *_SPEC_FLAGS,
        _SEED,
        (("--t1",), {"type": float, "default": 0.5}),
        (("--steps",), {"type": int, "default": 2000}),
        (("--perturb",), {"type": float, "default": 1e-3}),
        (("--record-every",), {"type": int, "default": 20, "dest": "record_every"}),
        (("--tol-deviation",), {"type": float, "default": 1e-6, "dest": "tol_deviation"}),
    )),
    "sweep": (cmd_sweep, (
        (("--family",), {"default": "all", "help": "construction name or 'all'"}),
        (("--draws",), {"type": int, "default": 20}),
        _SEED,
        (("--nmax",), {"type": int, "default": 8}),
        _TOL_SPECTRAL,
    )),
}


def _direct_namespace(name: str, tokens) -> argparse.Namespace | None:
    """The Namespace argparse makes of `isospectra <name> <tokens>`, built without a parser.

    Served only when `tokens` are (flag, value) pairs, each flag exactly one
    of the subcommand's option strings and each value a str that does not
    start with "-" and converts with the flag's type; a repeated flag's last
    value wins.  Anything else (-h, an abbreviation, --flag=value, -N8, a
    value argparse might read as an option, a conversion error) returns
    None, so argparse parses it and prints every screen and error.
    """
    if len(tokens) % 2:
        return None
    fn, flags = _SUBCOMMANDS[name]
    args = argparse.Namespace(command=name, func=fn)
    by_option = {}
    for options, keywords in flags:
        # argparse's dest: the explicit one, else the first long option's name
        dest = keywords.get("dest") or next(o for o in options if o[:2] == "--")[2:].replace("-", "_")
        setattr(args, dest, keywords.get("default"))
        for option in options:
            by_option[option] = dest, keywords.get("type", str)
    for flag, value in zip(tokens[::2], tokens[1::2]):
        if not (isinstance(flag, str) and flag in by_option and isinstance(value, str)):
            return None
        if value.startswith("-"):
            return None
        dest, convert = by_option[flag]
        try:
            value = convert(value)
        except ValueError:
            return None
        setattr(args, dest, value)
    return args


def _help_formatter():
    """argparse's default help formatter at its default width, the terminal's read once.

    argparse's own formatter asks the terminal again for every argument added.
    """
    return functools.partial(argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2)


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The full argparse parser for `argv` (default `sys.argv[1:]`): all five subcommands.

    Only the subcommand argv names gets its arguments: adding them is most
    of the cost of building the parser, and one run parses one subcommand.
    The top level has no option but -h, so the first token that is not an
    option is the subcommand.  `parse_args` builds this parser for every
    argv the direct path does not serve.
    """
    if argv is None:
        argv = sys.argv[1:]
    named = next((tok for tok in argv if not tok.startswith("-")), None)
    formatter = _help_formatter()
    ap = argparse.ArgumentParser(prog="isospectra", description=__doc__, formatter_class=formatter)
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (fn, flags) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, formatter_class=formatter)
        p.set_defaults(func=fn)
        if name == named:
            for options, keywords in flags:
                p.add_argument(*options, **keywords)
    return ap


def parse_args(argv=None) -> argparse.Namespace:
    """Parse `argv` (default `sys.argv[1:]`), building an argparse parser only where needed.

    When argv[0] names a subcommand and every later token is an exact flag
    followed by a plain value (`_direct_namespace`), the Namespace is built
    from the flag table with no parser at all: the benchmark's and the
    README's command lines take this path.  Any other argv goes to the full
    parser (`build_parser`), so every help screen, usage line and error
    comes from argparse.
    """
    if argv is None:
        argv = sys.argv[1:]
    args = _direct_namespace(argv[0], argv[1:]) if argv and argv[0] in _SUBCOMMANDS else None
    return args if args is not None else build_parser(argv).parse_args(argv)


def main(argv=None) -> int:
    level = os.environ.get("ISOSPECTRA_LOG", "warning").upper()
    logging.basicConfig(stream=sys.stderr, level=getattr(logging, level, logging.WARNING))
    args = parse_args(argv)
    log.info("command %s", args.command)
    try:
        return args.func(args)
    except tuple(EXIT_CODES) as exc:
        code = EXIT_CODES[type(exc)]
        log.info("exit %d: %s", code, exc)
        print(f"error: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
