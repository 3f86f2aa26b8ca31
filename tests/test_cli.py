"""CLI surface: subcommands, JSON schema, exit codes, determinism."""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from isospectra import cli, dynamics, families
from isospectra.errors import IsospectraError

# -h screens and argparse errors, taken at COLUMNS=80 under Python 3.11
CLI_SCREENS = json.loads((Path(__file__).parent / "fixtures" / "cli_screens.json").read_text())

# Wilson parameters at a discriminant cusp: double zero survives rounding
WILSON_DEGENERATE = "-0.8580553427452533,-0.33251962240715427,1.5,2.0"


def run(capsys, argv):
    code = cli.main(argv)
    return code, capsys.readouterr().out


def count_zero_solves(monkeypatch):
    """Count the compute_zeros calls that return (rejected draws raise)."""
    solved = []
    compute_zeros = families.compute_zeros

    def counting(spec, *args, **kwargs):
        zs = compute_zeros(spec, *args, **kwargs)
        solved.append(spec)
        return zs

    monkeypatch.setattr(families, "compute_zeros", counting)
    return solved


class TestZeros:
    def test_ghyp_example(self, capsys):
        code, out = run(capsys, ["zeros", "--family", "ghyp", "-N", "1", "--alphas", "2", "--betas", "3"])
        assert code == 0
        report = json.loads(out)
        assert report["pass"] is True
        np.testing.assert_allclose(report["zeros"], [[2.0 / 3.0, 0.0]], atol=1e-12)

    def test_gbasic_example(self, capsys):
        code, out = run(
            capsys,
            ["zeros", "--family", "gbasic", "-N", "1", "--q", "2", "--alphas", "3", "--betas", "5"],
        )
        assert code == 0
        np.testing.assert_allclose(json.loads(out)["zeros"], [[4.0, 0.0]], atol=1e-12)

    def test_invalid_beta_exit_2(self, capsys):
        code, _ = run(capsys, ["zeros", "--family", "ghyp", "-N", "2", "--alphas", "2", "--betas", "0"])
        assert code == 2

    def test_strict_json(self, capsys):
        # N = 1 has no pairwise separation: must serialize as null, not Infinity
        _, out = run(capsys, ["zeros", "--family", "ghyp", "-N", "1", "--alphas", "2", "--betas", "3"])
        report = json.loads(out, parse_constant=lambda s: pytest.fail(f"non-strict JSON: {s}"))
        assert report["min_separation"] is None


class TestMatrix:
    def test_ghyp_trivial(self, capsys):
        code, out = run(capsys, ["matrix", "--family", "ghyp", "-N", "1", "--alphas", "2", "--betas", "3"])
        report = json.loads(out)
        assert code == 0 and report["pass"] is True
        np.testing.assert_allclose(report["matrix"], [[[3.0, 0.0]]], atol=1e-12)

    def test_jacobi_reference_spectrum(self, capsys):
        code, out = run(capsys, ["matrix", "--family", "jacobi", "-N", "2", "--alphas", "0,0"])
        report = json.loads(out)
        assert code == 0
        np.testing.assert_allclose(report["reference_spectrum"], [[1.0, 0.0], [4.0, 0.0]], atol=1e-12)

    def test_no_dimension_cap(self, capsys):
        code, out = run(capsys, ["matrix", "--family", "ghyp", "-N", "13", "--alphas", "2", "--betas", "3"])
        report = json.loads(out)
        assert code == 0 and report["pass"] is True
        assert len(report["computed_spectrum"]) == 13

    def test_zeros_solved_once(self, capsys, monkeypatch):
        solved = count_zero_solves(monkeypatch)
        code, _ = run(capsys, ["matrix", "--family", "jacobi", "-N", "3", "--alphas", "0.5,1"])
        assert code == 0 and len(solved) == 1

    def test_degenerate_wilson_exit_3(self, capsys):
        code, _ = run(
            capsys,
            ["matrix", "--family", "wilson", "-N", "2", f"--alphas={WILSON_DEGENERATE}"],
        )
        assert code == 3


class TestVerify:
    def test_all_residual_fields_present(self, capsys):
        code, out = run(capsys, ["verify", "--family", "wilson", "-N", "3", "--alphas", "0.7,1.1,1.6,2.2"])
        report = json.loads(out)
        assert code == 0 and report["pass"] is True
        assert set(report["residuals"]) == {
            "spectral",
            "trace",
            "det",
            "identity",
            "equilibrium",
            "defining_eq",
        }

    def test_ghyp_random_passes(self, capsys):
        code, out = run(capsys, ["verify", "--family", "ghyp", "-N", "4", "--alphas", "1.9", "--betas", "2.7"])
        assert code == 0 and json.loads(out)["pass"] is True

    def test_zeros_solved_once(self, capsys, monkeypatch):
        solved = count_zero_solves(monkeypatch)
        code, _ = run(capsys, ["verify", "--family", "wilson", "-N", "3", "--alphas", "0.7,1.1,1.6,2.2"])
        assert code == 0 and len(solved) == 1

    @pytest.mark.parametrize(
        "spec",
        ["ghyp -N 4 --alphas 1.7 --betas 2.3", "gbasic -N 4 --alphas 1.7 --betas 2.3 --q 1.5",
         "wilson -N 4 --alphas 0.7,1.1,1.6,2.2", "racah -N 4 --alphas 1.1,2.2,0.8,1.4",
         "aw -N 4 --alphas 0.6,1.1,1.7,1.4 --q 1.4", "qracah -N 3 --alphas 1.1,2.2,0.8,1.4 --q 1.4",
         "jacobi -N 4 --alphas 0.5,1.0"],
        ids=lambda s: s.split()[0],
    )
    def test_one_kernel_pass(self, capsys, monkeypatch, spec):
        # the matrix's Jacobian pass also gives the identity residual's terms
        calls = []
        kernel_rows = dynamics._kernel_rows
        monkeypatch.setattr(
            dynamics, "_kernel_rows", lambda *a: calls.append(1) or kernel_rows(*a)
        )
        code, _ = run(capsys, ["verify", "--family", *spec.split()])
        assert code == 0 and len(calls) == 1

    def test_aw_large_numerator_passes(self, capsys):
        # (abcd q^(N-1); q)_m dwarfs (q; q)_m here; no denominator is near zero
        code, out = run(
            capsys,
            ["verify", "--family", "aw", "-N", "7", "--alphas",
             "0.8941277876239196,2.283276975311005,2.911113034696443,0.8266090064949669",
             "--q", "1.70944684390733"],
        )
        assert code == 0 and json.loads(out)["pass"] is True

    def test_q_close_to_one_exit_2(self, capsys):
        code, _ = run(
            capsys,
            ["verify", "--family", "gbasic", "-N", "2", "--alphas", "2", "--betas", "2.5", "--q", "1.0000000001"],
        )
        assert code == 2


class TestEvolve:
    def test_zero_horizon_exact(self, capsys):
        code, out = run(
            capsys,
            ["evolve", "--family", "ghyp", "-N", "2", "--alphas", "1.7", "--betas", "2.3", "--t1", "0", "--steps", "1"],
        )
        report = json.loads(out)
        assert code == 0
        np.testing.assert_allclose(report["ode_zeros"], report["oracle_zeros"], atol=1e-9)

    def test_unperturbed_is_constant(self, capsys):
        code, out = run(
            capsys,
            [
                "evolve", "--family", "ghyp", "-N", "1", "--alphas", "1.7", "--betas", "2.3",
                "--t1", "1", "--steps", "200", "--perturb", "0",
            ],
        )
        report = json.loads(out)
        assert code == 0
        first = np.array(report["ode_zeros"][0])
        last = np.array(report["ode_zeros"][-1])
        assert np.max(np.abs(first - last)) <= 1e-9

    def test_wilson_consistency(self, capsys):
        code, out = run(
            capsys,
            [
                "evolve", "--family", "wilson", "-N", "2", "--alphas", "0.7,1.1,1.6,2.2",
                "--t1", "0.5", "--steps", "2000", "--perturb", "1e-3",
            ],
        )
        report = json.loads(out)
        assert code == 0
        assert report["max_deviation"] <= 1e-6


    def test_recurrence_pole_exit_3(self, capsys):
        # a + b + c + d rounds to 1e-16: the degree-3 member is sound, but the
        # recurrence divides by a + b + c + d on the way to it
        code = cli.main(["evolve", "--family", "wilson", "-N", "3", "--alphas", "0.1,0.2,0.3,-0.6"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_overflowing_trajectory_exit_4(self, capsys):
        # the RK4 state overflows to NaN at this horizon; the run must not pass
        code, out = run(
            capsys,
            ["evolve", "--family", "wilson", "-N", "2", "--alphas", "1,1,1,1", "--t1", "1e300", "--steps", "3"],
        )
        assert code == 4 and out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["evolve", "--family", "ghyp", "-N", "3", "--alphas", "1.7", "--betas", "2.3",
             "--t1", "1e5", "--steps", "3"],
            ["evolve", "--family", "qracah", "-N", "3", "--alphas", "1.1,2.2,0.8,1.4", "--q", "1.4",
             "--t1", "1e6", "--steps", "4", "--record-every", "9"],
        ],
        ids=["ghyp", "qracah"],
    )
    def test_overflowing_coefficient_flow_exit_4(self, argv):
        # the exact coefficient flow overflows to inf/NaN: exit 4 with one
        # error line, and no numpy RuntimeWarning on stderr
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "isospectra.cli", *argv], capture_output=True, text=True
        )
        assert proc.returncode == cli.EXIT_NONCONVERGENCE
        assert proc.stdout == ""
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr


class TestSweep:
    @pytest.mark.parametrize("nmax", ["1", "0", "-1"])
    def test_nmax_below_two_exit_2(self, capsys, nmax):
        code = cli.main(["sweep", "--family", "ghyp11", "--draws", "1", "--nmax", nmax])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_small_sweep_passes(self, capsys):
        code, out = run(capsys, ["sweep", "--family", "ghyp11", "--draws", "3", "--seed", "5", "--nmax", "6"])
        report = json.loads(out)
        assert code == 0
        assert report["pass_count"] == report["total"] == 3

    def test_deterministic_bytes(self, capsys):
        args = ["sweep", "--family", "wilson", "--draws", "2", "--seed", "11", "--nmax", "5"]
        _, out1 = run(capsys, args)
        _, out2 = run(capsys, args)
        assert out1 == out2

    def test_zero_draws(self, capsys):
        code, out = run(capsys, ["sweep", "--draws", "0"])
        report = json.loads(out)
        assert code == 0 and report["total"] == 0 and report["pass"] is True

    def test_unknown_construction_exit_2(self, capsys):
        code, _ = run(capsys, ["sweep", "--family", "nope", "--draws", "1"])
        assert code == 2

    def test_zero_draws_unknown_construction_exit_2(self, capsys):
        code, out = run(capsys, ["sweep", "--family", "nope", "--draws", "0"])
        assert code == 2 and out == ""

    def test_zero_draws_full_report(self, capsys):
        code, out = run(capsys, ["sweep", "--family", "ghyp11", "--draws", "0", "--seed", "4"])
        report = json.loads(out)
        assert code == 0 and report["pass"] is True
        assert report["total"] == report["pass_count"] == 0 and report["results"] == []
        assert report["constructions"] == ["ghyp11"] and report["seed"] == 4
        assert report["worst_residuals"] == {"spectral": 0.0, "trace": 0.0, "det": 0.0}

    def test_zeros_solved_once_per_spec(self, capsys, monkeypatch):
        solved = count_zero_solves(monkeypatch)
        # seed 6 accepts the first draw of every construction
        code, out = run(capsys, ["sweep", "--family", "all", "--draws", "1", "--seed", "6", "--nmax", "8"])
        report = json.loads(out)
        assert code == 0 and report["total"] == 12
        assert len(solved) == 12

    def test_pinned_draws(self, capsys):
        _, out = run(capsys, ["sweep", "--family", "all", "--draws", "1", "--seed", "6", "--nmax", "8"])
        echoes = [(r["construction"], r["spec"]["N"], r["spec"]["alphas"][0][0])
                  for r in json.loads(out)["results"]]
        assert echoes == [
            ("ghyp11", 6, 2.754708530128889),
            ("jacobi", 8, 2.0083697110854306),
            ("ghyp21", 7, 1.856095670357376),
            ("ghyp22", 6, 1.8635374688081807),
            ("ghyp32", 5, 2.6169340589421335),
            ("gbasic11", 5, 2.5556305768905307),
            ("gbasic21", 5, 1.7987226461373766),
            ("gbasic22", 3, 2.327770575712782),
            ("wilson", 4, 0.912314227077013),
            ("racah", 8, 1.7837055570093114),
            ("aw", 7, 0.8941277876239196),
            ("qracah", 8, 2.176601838045264),
        ]


class TestSpecFile:
    def test_load_and_override(self, tmp_path, capsys):
        cfg = {
            "family": "ghyp",
            "N": 1,
            "alphas": [[2.0, 0.0]],
            "betas": [[3.0, 0.0]],
            "q": None,
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(cfg))
        code, out = run(capsys, ["zeros", "--spec-file", str(path)])
        assert code == 0
        np.testing.assert_allclose(json.loads(out)["zeros"], [[2.0 / 3.0, 0.0]], atol=1e-12)
        # flag overrides the file
        code, out = run(capsys, ["zeros", "--spec-file", str(path), "--betas", "4"])
        assert code == 0
        np.testing.assert_allclose(json.loads(out)["zeros"], [[0.5, 0.0]], atol=1e-12)

    def test_missing_family_exit_2(self, capsys):
        code, _ = run(capsys, ["zeros", "-N", "2", "--alphas", "1.5"])
        assert code == 2

    @pytest.mark.parametrize(
        "cfg",
        [
            ["ghyp", 2],
            {"family": "ghyp", "N": "x", "alphas": [[2.0, 0.0]], "betas": [[3.0, 0.0]]},
            {"family": "ghyp", "N": 2.5, "alphas": [[2.0, 0.0]], "betas": [[3.0, 0.0]]},
            {"family": "ghyp", "N": 2, "alphas": 5, "betas": [[3.0, 0.0]]},
            {"family": "ghyp", "N": 2, "alphas": [[1]], "betas": [[3.0, 0.0]]},
            {"family": "gbasic", "N": 2, "alphas": [[2.0, 0.0]], "betas": [[3.0, 0.0]], "q": 5},
        ],
        ids=["not-object", "N-string", "N-fraction", "alphas-number", "alphas-short-pair", "q-number"],
    )
    def test_malformed_field_exit_2(self, tmp_path, capsys, cfg):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(cfg))
        code = cli.main(["zeros", "--spec-file", str(path)])
        out, err = capsys.readouterr()
        lines = err.strip().splitlines()
        assert code == 2 and out == ""
        assert len(lines) == 1 and lines[0].startswith("error:")


class TestInputErrors:
    """Bad input exits 2 with a one-line error and no traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["evolve", "--family", "ghyp", "-N", "2", "--alphas", "1.7", "--betas", "2.3", "--steps", "0"],
            ["evolve", "--family", "ghyp", "-N", "2", "--alphas", "1.7", "--betas", "2.3",
             "--record-every", "0"],
            ["zeros", "--family", "ghyp", "-N", "2", "--alphas", "2,x", "--betas", "3"],
            ["zeros", "--spec-file", "{tmp}/no-such-spec.json"],
            ["sweep", "--draws", "-1"],
            ["verify", "--family", "wilson", "-N", "4", "--alphas", "0.7,1.1,1.6,2.2", "--seed", "-1"],
        ],
        ids=["steps-0", "record-every-0", "bad-alpha", "missing-spec-file", "negative-draws",
             "negative-seed"],
    )
    def test_exit_2(self, tmp_path, argv):
        import subprocess
        import sys

        argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
        proc = subprocess.run(
            [sys.executable, "-m", "isospectra.cli", *argv], capture_output=True, text=True
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")


class TestNumericFlagErrors:
    """A negative --seed, a non-finite --t1 or --perturb, and a --tol-* flag
    that is not finite and >= 0 exit 2 with one error line, from the handler."""

    VERIFY = ["verify", "--family", "wilson", "-N", "4", "--alphas", "0.7,1.1,1.6,2.2"]
    MATRIX = ["matrix", "--family", "ghyp", "-N", "4", "--alphas", "1.7", "--betas", "2.3"]
    EVOLVE = ["evolve", "--family", "ghyp", "-N", "4", "--alphas", "1.7", "--betas", "2.3", "--steps", "10"]
    SWEEP = ["sweep", "--draws", "1", "--nmax", "3"]

    @pytest.mark.parametrize(
        "argv, message",
        [
            (VERIFY + ["--seed", "-1"], "--seed must be >= 0"),
            (EVOLVE + ["--seed", "-1"], "--seed must be >= 0"),
            (SWEEP + ["--seed", "-1"], "--seed must be >= 0"),
            (["sweep", "--draws", "0", "--seed", "-1"], "--seed must be >= 0"),
            (EVOLVE + ["--t1", "nan"], "--t1 must be finite"),
            (EVOLVE + ["--t1", "inf"], "--t1 must be finite"),
            (EVOLVE + ["--t1=-inf"], "--t1 must be finite"),
            (EVOLVE + ["--perturb", "nan"], "--perturb must be finite"),
            (EVOLVE + ["--perturb", "inf"], "--perturb must be finite"),
            (EVOLVE + ["--tol-deviation", "nan"], "--tol-deviation must be finite and >= 0"),
            (EVOLVE + ["--tol-deviation=-1e-6"], "--tol-deviation must be finite and >= 0"),
            (EVOLVE + ["--tol-deviation", "inf"], "--tol-deviation must be finite and >= 0"),
            (VERIFY + ["--tol-spectral", "nan"], "--tol-spectral must be finite and >= 0"),
            (VERIFY + ["--tol-spectral", "-1"], "--tol-spectral must be finite and >= 0"),
            (VERIFY + ["--tol-identity", "nan"], "--tol-identity must be finite and >= 0"),
            (VERIFY + ["--tol-identity=-1e-8"], "--tol-identity must be finite and >= 0"),
            (VERIFY + ["--tol-identity", "inf"], "--tol-identity must be finite and >= 0"),
            (MATRIX + ["--tol-spectral", "inf"], "--tol-spectral must be finite and >= 0"),
            (MATRIX + ["--tol-spectral", "-1"], "--tol-spectral must be finite and >= 0"),
            (SWEEP + ["--tol-spectral", "nan"], "--tol-spectral must be finite and >= 0"),
            (SWEEP + ["--tol-spectral", "-1"], "--tol-spectral must be finite and >= 0"),
        ],
    )
    def test_exit_2(self, capsys, argv, message):
        assert cli.main(argv) == cli.EXIT_INVALID
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize(
        "argv",
        [VERIFY + ["--seed", "0", "--tol-spectral", "0", "--tol-identity", "0"],
         EVOLVE + ["--t1", "-0.01", "--perturb=-1e-3", "--tol-deviation", "0"]],
        ids=["verify", "evolve"],
    )
    def test_boundary_values_are_valid(self, capsys, argv):
        # a zero tolerance is a strict check, and a negative --t1 or
        # --perturb a valid run, not invalid input
        assert cli.main(argv) in (cli.EXIT_PASS, cli.EXIT_FAIL)
        json.loads(capsys.readouterr().out)


class TestExitCodes:
    """Each error class has one exit code, looked up in `cli.EXIT_CODES`."""

    def test_every_error_class_has_an_exit_code(self):
        missing = set(IsospectraError.__subclasses__()) - set(cli.EXIT_CODES)
        assert not missing, missing
        assert set(cli.EXIT_CODES.values()) == {
            cli.EXIT_INVALID, cli.EXIT_DEGENERATE, cli.EXIT_NONCONVERGENCE
        }

    @pytest.mark.parametrize(
        "error, code", list(cli.EXIT_CODES.items()), ids=lambda v: getattr(v, "__name__", str(v))
    )
    def test_main_returns_the_table_code(self, monkeypatch, capsys, error, code):
        def raising(spec):
            raise error("raised here")

        monkeypatch.setattr(families, "compute_zeros", raising)
        got = cli.main(["zeros", "--family", "ghyp", "-N", "1", "--alphas", "2", "--betas", "3"])
        assert got == code
        assert capsys.readouterr() == ("", "error: raised here\n")

    @pytest.mark.parametrize(
        "argv",
        [
            # the trajectory reaches a pole of the Askey-Wilson kernel
            ["evolve", "--family", "aw", "-N", "4", "--alphas", "0.6,1.1,1.7,1.4", "--q", "1.4",
             "--t1", "20", "--steps", "400", "--perturb", "0.3", "--seed", "0", "--record-every", "50"],
            # alpha = -1 puts a Jacobi zero at x = 1, where z = 2/(1 - x) has no value
            ["matrix", "--family", "jacobi", "-N", "2", "--alphas=-1,0.5"],
        ],
        ids=["aw-pole", "jacobi-x-1"],
    )
    def test_state_at_a_pole_exit_3(self, argv):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "isospectra.cli", *argv], capture_output=True, text=True
        )
        assert proc.returncode == cli.EXIT_DEGENERATE
        assert proc.stdout == ""
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr

    @pytest.mark.parametrize(
        "argv",
        [
            ["zeros", "--family", "ghyp", "-N", "171", "--alphas", "1.7", "--betas", "2.3"],
            ["zeros", "--family", "wilson", "-N", "171", "--alphas", "0.7,1.1,1.6,2.2"],
            ["zeros", "--family", "racah", "-N", "171", "--alphas", "1.1,2.2,0.8,1.4"],
            ["zeros", "--family", "jacobi", "-N", "100", "--alphas", "0.5,1.0"],
            ["verify", "--family", "ghyp", "-N", "171", "--alphas", "1.7", "--betas", "2.3"],
        ],
        ids=["ghyp-171", "wilson-171", "racah-171", "jacobi-100", "verify-ghyp-171"],
    )
    def test_factorial_past_double_exit_3(self, capsys, argv):
        # a factorial of the term table that no longer fits a double is the
        # non-finite coefficient N = 170 already reports
        assert cli.main(argv) == cli.EXIT_DEGENERATE
        assert capsys.readouterr() == ("", "error: non-finite polynomial coefficient\n")


class TestRefinementGuard:
    def test_sum_cancelling_past_double_double_exit_4(self):
        # the q-Racah sum at N = 12 cancels past double-double here, so its expanded
        # coefficients are wrong; the refinement must say so, not return zeros
        import subprocess
        import sys

        argv = ["zeros", "--family", "qracah", "-N", "12",
                "--alphas", "2.0384152689295716,1.035111498057991,2.36840541332353,2.5428293644206983",
                "--q", "2.375452650859548"]
        proc = subprocess.run(
            [sys.executable, "-m", "isospectra.cli", *argv], capture_output=True, text=True
        )
        assert proc.returncode == cli.EXIT_NONCONVERGENCE
        assert proc.stdout == ""
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")


class TestParserScreens:
    """Help screens, usage lines and argparse errors, byte for byte."""

    @pytest.mark.skipif(
        sys.version_info[:2] != (3, 11),
        reason="argparse lays out help and errors differently on other Python versions",
    )
    @pytest.mark.parametrize("case", CLI_SCREENS, ids=lambda c: " ".join(c["argv"]) or "no-args")
    def test_screen_is_unchanged(self, monkeypatch, capsys, case):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            cli.main(case["argv"])
        assert exc.value.code == case["code"]
        assert capsys.readouterr() == (case["stdout"], case["stderr"])


class TestStandaloneParser:
    """A subcommand's own parser settles argv as the full parser would."""

    WILSON = ["--family", "wilson", "-N", "4", "--alphas", "0.7,1.1,1.6,2.2"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--fam", "wilson", "-N", "4", "--alphas", "0.7,1.1,1.6,2.2"],
            ["verify", "--family", "wilson", "-N", "4", "--alphas=0.7,1.1,1.6,2.2"],
            ["matrix", "--family", "ghyp", "-N8", "--alphas", "1.7", "--betas", "2.3"],
            ["verify", *WILSON, "--seed", "3", "--seed", "5", "--tol-spectral", "1e-5"],
            ["sweep", "--draws", "2", "--nmax", "3"],
            ["evolve", "--family", "ghyp", "--steps", "5", "--t1=0.1"],
        ],
        ids=["abbreviation", "equals", "attached-N", "repeated", "sweep", "evolve"],
    )
    def test_same_namespace(self, argv):
        assert cli.parse_args(argv) == cli.build_parser(argv).parse_args(argv)

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", *WILSON, "--bogus"],
            ["verify", *WILSON, "extra"],
            ["verify", *WILSON, "--seed", "x"],
            ["verify", *WILSON, "--tol", "1e-7"],
            ["zeros", "-N"],
        ],
        ids=["bad-flag", "extra-token", "bad-value", "ambiguous-abbreviation", "missing-value"],
    )
    def test_same_error(self, monkeypatch, capsys, argv):
        monkeypatch.setenv("COLUMNS", "80")
        screens = []
        for parse in (cli.parse_args, lambda a: cli.build_parser(a).parse_args(a)):
            with pytest.raises(SystemExit) as exc:
                parse(argv)
            screens.append((exc.value.code, capsys.readouterr()))
        assert screens[0] == screens[1]
        assert screens[0][0] == 2

    def test_leftover_token_gets_the_top_level_usage(self, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit):
            cli.main(["verify", *self.WILSON, "--bogus"])
        err = capsys.readouterr().err.splitlines()
        assert err[0] == "usage: isospectra [-h] {zeros,matrix,verify,evolve,sweep} ..."
        assert err[-1] == "isospectra: error: unrecognized arguments: --bogus"


class TestParserWidth:
    """argparse's default help width, read from the terminal once per parser."""

    def test_terminal_size_read_once(self, monkeypatch):
        calls = []
        get_terminal_size = shutil.get_terminal_size
        monkeypatch.setattr(
            shutil, "get_terminal_size", lambda *a: calls.append(1) or get_terminal_size(*a)
        )
        argv = ["verify", "--family", "ghyp", "-N", "4", "--alphas", "1.7", "--betas", "2.3"]
        assert cli.build_parser(argv).parse_args(argv).command == "verify"
        assert len(calls) <= 1

    def test_screen_follows_terminal_width(self):
        # at 60 columns every line fits; at 50 argparse cannot break a
        # 29-character usage group after its 25-character indent
        def screen(columns):
            proc = subprocess.run(
                [sys.executable, "-m", "isospectra.cli", "verify", "-h"],
                capture_output=True, text=True, check=True,
                env={**os.environ, "COLUMNS": str(columns)},
            )
            return proc.stdout

        narrow = screen(60)
        assert max(len(line) for line in narrow.splitlines()) <= 60
        assert narrow != screen(80)


class TestConsoleEntryPoint:
    def test_module_invocation(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "isospectra.cli", "zeros", "--family", "ghyp",
             "-N", "1", "--alphas", "2", "--betas", "3"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["pass"] is True


# argv fuzz domain: every subcommand, valid and invalid families, degrees,
# step counts, draw sizes and seeds around their limits, and malformed value
# tokens, also on the tolerance flags
VALUE_TOKENS = ["nan", "1e300", "", "x", "1+1i", "0", "-1", "1.4", "1.7", "2.3,3.1",
                "0.5,1.0", "0.7,1.1,1.6,2.2", "1.1,2.2,0.8,1.4"]
TOL_FLAGS = ("--tol-spectral", "--tol-identity", "--tol-deviation")
INVALID_VALUES = {("--seed", "-1"), ("--t1", "nan"), ("--perturb", "nan")} | {
    (flag, value) for flag in TOL_FLAGS for value in ("nan", "-1")
}
FUZZ_FAMILIES = ["ghyp", "gbasic", "wilson", "racah", "aw", "askey-wilson", "qracah", "jacobi", "nope"]


def _flag(name, values):
    return st.one_of(st.just([]), values.map(lambda v: [name, str(v)]))


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(["zeros", "matrix", "verify", "evolve", "sweep"]))
    tokens = st.sampled_from(VALUE_TOKENS)
    if command == "sweep":
        groups = [
            _flag("--family", st.sampled_from([*cli.CONSTRUCTIONS, "all", "nope"])),
            _flag("--draws", st.integers(-1, 1)),
            _flag("--nmax", st.integers(-1, 4)),
            _flag("--seed", st.integers(-1, 3)),
            _flag("--tol-spectral", tokens),
        ]
    else:
        groups = [
            _flag("--family", st.sampled_from(FUZZ_FAMILIES)),
            _flag("-N", st.integers(-1, 5)),
            _flag("--alphas", tokens),
            _flag("--betas", tokens),
            _flag("--q", tokens),
        ]
        if command in ("matrix", "verify"):
            groups.append(_flag("--tol-spectral", tokens))
        if command == "verify":
            groups += [_flag("--seed", st.integers(-1, 3)), _flag("--tol-identity", tokens)]
        if command == "evolve":
            # --steps is always given: the default 2000 steps is slow for a fuzz case
            groups += [
                st.integers(-1, 20).map(lambda v: ["--steps", str(v)]),
                _flag("--record-every", st.integers(0, 7)),
                _flag("--t1", tokens),
                _flag("--perturb", tokens),
                _flag("--seed", st.integers(-1, 3)),
                _flag("--tol-deviation", tokens),
            ]
    return [command] + [tok for group in groups for tok in draw(group)]


class TestArgvFuzz:
    @settings(max_examples=200, deadline=None)
    @given(argv=cli_argv())
    def test_exit_code_is_documented(self, argv):
        # any escaping exception other than argparse's SystemExit fails the test
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 1, 2, 3, 4), (argv, code)
        assert "Traceback" not in err.getvalue(), argv
        # a value that every handler rejects makes any argv invalid input
        if any(pair in INVALID_VALUES for pair in zip(argv, argv[1:])):
            assert code == 2, (argv, code)
