#!/usr/bin/env python3
"""isospectra benchmark: one workload, one process, one closed-loop caller.

Usage (from the repository root):

    python3 perfbench/run.py --workload {sweep,verify-n8,evolve} --seed N \
        --seconds S --trace {0,1} [--tiny]

With ``--trace 0`` it measures the end-to-end metrics: ``setup_s`` (median
wall time of a fresh interpreter importing ``isospectra`` and
``isospectra.cli``), ``ops_per_s``, ``latency_p50_ms``, ``latency_p90_ms``,
``pass_frac`` and ``accuracy_digits``; set-up and operation times are scaled
to a reference machine speed by the probe in ``speed.py``, and the raw
wall-clock figures are printed beside them.

The seed fixes a list of the workload's ``pass_ops`` inputs.  The timed run
makes whole passes over that list, as many as bring the measured time
nearest to ``--seconds`` (at least one); ``attempted`` and ``failed`` count
each input once, so every run with a seed reports the same counts, and a
repeated pass that disagrees with the first on an input makes ``correct``
false.  With ``--trace 1`` it makes one untraced pass and one pass with a
span around every call to the program's traced public functions, and reports
per-layer metrics plus the tracing overhead.  Every output is checked; the
last stdout line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  Lines before it, each starting with ``#``, name
every failed operation and record the environment and a digest of the
inputs.  ``--tiny`` runs one warm-up operation and one pass over a single
input, for the smoke test.

The program is imported from ``src/`` next to this directory; the benchmark
exits with code 2 if it is not there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 15
SETUP_PROBES = 3
SETUP_CODE = "import isospectra, isospectra.cli"
MAX_FAILURE_LINES = 40

UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "pass_frac": "fraction",
    "accuracy_digits": "digits",
}


def per_layer_unit(name: str) -> str:
    if name.endswith((".calls", ".failed", ".ops")):
        return "count"
    if name.endswith("_s"):
        return "s"
    if name.endswith(".p50_us"):
        return "us"
    if name.endswith(".p50_ms"):
        return "ms"
    if name.endswith("digits"):
        return "digits"
    return "fraction"


def source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def measure_setup(src: Path, samples: int, probe) -> list[float]:
    """Wall times of fresh interpreters importing the package; one untimed first.

    `probe` is sampled before each, so that the times can be scaled to the
    host's speed while they ran.  Within a minute set-up time hardly follows
    the probe, but when the host stays slower for tens of minutes (probe
    1.2 ms instead of 0.85 ms) set-up time grows by about as much.
    """
    env = dict(os.environ, PYTHONPATH=str(src))
    times = []
    for k in range(samples + 1):
        for _ in range(SETUP_PROBES):
            probe.sample()
        t0 = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=src.parent,
                              capture_output=True, timeout=120)
        dt = time.perf_counter() - t0
        if done.returncode != 0:
            raise RuntimeError(f"import failed: {done.stderr.decode(errors='replace')[-500:]}")
        if k:
            times.append(dt)
    return times


class Record(NamedTuple):
    op: object
    seconds: float    # wall clock
    factor: float     # to reference seconds, from the speed probe just before and after
    outcome: object


def run_pass(wl, ops, probe, tracer=None) -> list[Record]:
    """One closed-loop pass over `ops`, one record per operation.

    The program's caches are emptied first, so every pass starts as a fresh
    process would.  The speed probe is sampled and outputs are checked outside
    the measured time.
    """
    from workloads import clear_memo_caches

    clear_memo_caches()
    records = []
    before = probe.measure()
    for op in ops:
        if wl.clear_caches:
            clear_memo_caches()
        span = tracer.begin_op() if tracer else None
        result, exc = None, None
        t0 = time.perf_counter()
        try:
            result = wl.run(op)
        except (Exception, SystemExit) as e:  # a failed operation is counted, not fatal
            exc = e
        dt = time.perf_counter() - t0
        if span:
            tracer.end_op(span)
        after = probe.measure()
        outcome = wl.check(op, result, exc)
        records.append(Record(op, dt, probe.factor((before + after) / 2), outcome))
        before = after
    return records


def repeat_mismatches(first, repeat):
    """Indices where a repeated pass gave another verdict than the first on the same input."""
    return [k for k, (a, b) in enumerate(zip(first, repeat))
            if (a.outcome.failed, a.outcome.attempted) != (b.outcome.failed, b.outcome.attempted)]


def quantile90(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10)[-1]


def timings(seconds, done):
    return {
        "ops_per_s": done / sum(seconds),
        "latency_p50_ms": statistics.median(seconds) * 1e3,
        "latency_p90_ms": quantile90(seconds) * 1e3,
    }


def end_to_end(first, timed, setup_times, setup_scale):
    """End-to-end metrics; operation times are scaled per operation by the
    records' factors, set-up times by `setup_scale` (see speed.py).

    Times come from every timed record; counts and accuracy from the first
    pass, which holds each input once.
    """
    from tracing import digits

    attempted = sum(r.outcome.attempted for r in first)
    failed = sum(r.outcome.failed for r in first)
    done = sum(r.outcome.attempted for r in timed)
    acc = [digits(res) for r in first for res in r.outcome.residuals]
    raw = timings([r.seconds for r in timed], done)
    values = {"setup_s": statistics.median(setup_times) * setup_scale}
    values.update(timings([r.seconds * r.factor for r in timed], done))
    values["pass_frac"] = 1.0 - failed / attempted
    values["accuracy_digits"] = statistics.median(acc) if acc else 0.0
    samples = {"setup_s": len(setup_times), "ops_per_s": done, "pass_frac": attempted,
               "accuracy_digits": len(acc)}
    notes = {
        "failed_frac": f"{failed / attempted:.6g} ({failed}/{attempted})",
        "raw setup_s": f"{statistics.median(setup_times):.6g} s (wall clock, unscaled)",
        "accuracy_worst_digits": f"{min(acc):.4f}" if acc else "n/a",
        **{f"raw {name}": f"{v:.6g} {UNITS[name]} (wall clock, unscaled)" for name, v in raw.items()},
    }
    return values, {k: samples.get(k, len(timed)) for k in values}, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=("sweep", "verify-n8", "evolve"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="one warm-up and one measured operation")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        ap.error("--seed and --seconds must be non-negative")

    # pinned before numpy is first imported, here and in the setup_s interpreters
    for var in THREAD_VARS:
        os.environ[var] = "1"

    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    if not (src / "isospectra" / "__init__.py").is_file():
        print(f"error: no program source at {src / 'isospectra'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import isospectra
    import isospectra.cli  # noqa: F401  (the CLI workloads call isospectra.cli.main)

    if Path(isospectra.__file__).resolve().parent != (src / "isospectra").resolve():
        print(f"error: imported isospectra from {isospectra.__file__}, not {src}", file=sys.stderr)
        return 2

    import numpy as np
    from speed import REFERENCE_S, SpeedProbe
    from tracing import Tracer, metric_names
    from workloads import WORKLOADS, clear_memo_caches

    wl = WORKLOADS[args.workload](isospectra)
    seconds = 0.0 if args.tiny else args.seconds
    warmup = 1 if args.tiny else wl.warmup_ops

    probe, setup_probe = SpeedProbe(), SpeedProbe()
    setup_times = []
    if not args.trace:
        setup_times = measure_setup(src, 1 if args.tiny else SETUP_SAMPLES, setup_probe)

    # untimed warm-up on inputs of its own (phase 0)
    for i in range(warmup):
        op = wl.make(args.seed, 0, i)
        if wl.clear_caches:
            clear_memo_caches()
        try:
            wl.run(op)
        except (Exception, SystemExit):
            pass

    # the checked inputs: a fixed list made from the seed (phase 1)
    ops = [wl.make(args.seed, 1, i) for i in range(1 if args.tiny else wl.pass_ops)]

    t_run = time.perf_counter()
    first = run_pass(wl, ops, probe)
    if args.trace:
        untraced_s = sum(r.seconds for r in first)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_pass(wl, ops, probe, tracer=tracer)
        finally:
            tracer.uninstall()
        passes = [first, traced]
        values = tracer.metrics(untraced_s, probe.scale())
        units = {name: per_layer_unit(name) for name in metric_names()}
        samples = {name: len(traced) for name in values}
        notes = {"untraced_s": f"{untraced_s:.4f} (wall clock, unscaled)"}
    else:
        # whole passes only, so every run of a seed times the same mix of inputs
        first_s = sum(r.seconds for r in first)
        n_passes = max(1, round(seconds / first_s)) if first_s > 0 else 1
        passes = [first] + [run_pass(wl, ops, probe) for _ in range(n_passes - 1)]
        timed = [r for records in passes for r in records]
        values, samples, notes = end_to_end(first, timed, setup_times, setup_probe.scale())
        units = UNITS
    notes["passes"] = f"{len(passes)} over the same {len(ops)} inputs"
    wall = time.perf_counter() - t_run
    notes["speed_probe"] = (f"median {probe.median_s() * 1e3:.4f} ms over {len(probe.samples)} "
                            f"samples (run factor {probe.scale():.4f}); set-up median "
                            f"{setup_probe.median_s() * 1e3 if setup_probe.samples else 0:.4f} ms; "
                            f"times are scaled to a {REFERENCE_S * 1e3:g} ms probe")

    # attempted and failed count each distinct input once
    attempted = sum(r.outcome.attempted for r in first)
    failed = sum(r.outcome.failed for r in first)
    mismatched = sorted({k for records in passes[1:] for k in repeat_mismatches(first, records)})
    correct = not mismatched and all(r.outcome.consistent for records in passes for r in records)
    digest_ops = [op.digest_key for op in ops]
    digest = hashlib.sha256(json.dumps(digest_ops, sort_keys=True).encode()).hexdigest()[:16]

    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(ops)} calls per pass, {attempted} operations, {failed} failed, "
          f"loop wall {wall:.2f} s")
    for name, value in values.items():
        print(f"# {name} = {value:.6g} {units[name]} (n={samples[name]})")
    for name, note in notes.items():
        print(f"# {name} = {note}")
    bad = [(k, r.op, r.outcome) for records in passes for k, r in enumerate(records)
           if not r.outcome.consistent]
    bad += [(k, r.op, r.outcome) for k, r in enumerate(first)
            if r.outcome.failed and r.outcome.consistent]
    for k, op, o in bad[:MAX_FAILURE_LINES]:
        kind = "INCONSISTENT" if not o.consistent else "FAILED"
        print(f"# {kind} op {k}: {op.label}: {o.why}")
    if len(bad) > MAX_FAILURE_LINES:
        print(f"# ... and {len(bad) - MAX_FAILURE_LINES} more")
    for k in mismatched:
        print(f"# NONDETERMINISTIC op {k}: {ops[k].label}: verdict differs between passes")
    meta = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "src_digest": source_digest(src),
        "commit": git_commit(root),
        "input_digest": digest,
        "input_digest_ops": len(digest_ops),
    }
    print("# meta " + json.dumps(meta, sort_keys=True))

    print(json.dumps({
        "correct": bool(correct and first),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(v), "unit": units[name]} for name, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
