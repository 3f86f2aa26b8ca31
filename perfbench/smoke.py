#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

Usage (from the repository root):

    python3 perfbench/smoke.py

Runs every workload in BENCHMARK.json once with ``--trace 0`` and once with
``--trace 1``, in the tiny mode (one warm-up and one measured operation), and
checks that the last stdout line carries exactly the metric names and units
that BENCHMARK.json defines.  Then checks that the benchmark exits nonzero,
without a result line, in a directory that holds only BENCHMARK.json and the
benchmark's own files.  Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 180


def run(cwd: Path, workload: str, trace: int):
    cmd = [*json.loads((ROOT / "BENCHMARK.json").read_text())["command"],
           "--workload", workload, "--seed", "0", "--seconds", "1", "--trace", str(trace), "--tiny"]
    cmd[0] = sys.executable if cmd[0] == "python3" else cmd[0]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def check_result(spec: dict, workload: str, trace: int) -> list[str]:
    done = run(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    if done.returncode != 0:
        return [f"{where}: exit {done.returncode}: {done.stderr[-400:]}"]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("attempted", 0) < 1:
        errors.append(f"{where}: correct={result.get('correct')} attempted={result.get('attempted')}")
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result.get("metrics", {})
    if set(got) != set(expected):
        errors.append(f"{where}: missing {sorted(set(expected) - set(got))}, "
                      f"extra {sorted(set(got) - set(expected))}")
    for name, entry in got.items():
        value = entry.get("value")
        if entry.get("unit") != expected.get(name):
            errors.append(f"{where}: {name} unit {entry.get('unit')!r} != {expected.get(name)!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append(f"{where}: {name} value {value!r} is not a finite number")
    return errors


def check_without_program(spec: dict) -> list[str]:
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".smoke-") as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        done = run(bare, spec["workloads"][0]["name"], 0)
    lines = done.stdout.strip().splitlines()
    if done.returncode == 0 or (lines and lines[-1].startswith("{")):
        return [f"benchmark without the program: exit {done.returncode}, stdout {done.stdout[-200:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    for workload in spec["workloads"]:
        for trace in (0, 1):
            errors += check_result(spec, workload["name"], trace)
            print(f"checked {workload['name']} --trace {trace}", flush=True)
    errors += check_without_program(spec)
    for e in errors:
        print("FAIL", e)
    print("smoke: ok" if not errors else f"smoke: {len(errors)} problems")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
