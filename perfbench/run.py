#!/usr/bin/env python3
"""fredreg benchmark: seeded closed-loop workloads, end-to-end and per-layer metrics.

Run from the root of a source checkout (fredreg is imported from ./src):

    python3 perfbench/run.py --workload mc-example3 --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one process each

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs every
operation twice, untraced and then with the tracer installed, and reports
the per-layer metrics of the traced runs.  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.  The exit code is non-zero when any output fails the
correctness gate (see gate.py); seed 0 is also compared with reference.json.
``--capture`` rewrites reference.json from seed 0 instead of checking it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import gate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("mc-example3", "cli-example1-emit", "null-selection", "numeric-kernel")
SETUP_PROBES = 3  # fresh processes timed from spawn to the first timed operation
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

for _var in BLAS_ENV:  # one single-threaded caller; must precede the numpy import
    os.environ.setdefault(_var, "1")


def use_checkout_source():
    """Import fredreg from this checkout's src/, never from an installed copy."""
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import fredreg

    import_s = time.perf_counter() - t0
    if Path(fredreg.__file__).resolve().parent != SRC / "fredreg":
        sys.exit(f"error: imported fredreg from {fredreg.__file__}, not {SRC}")
    return import_s


def setup_workload(name: str, seed: int, workdir: Path):
    """Import fredreg and build the workload; returns (workload, import_s, build_s)."""
    import_s = use_checkout_source()
    import workloads

    workload = workloads.WORKLOADS[name](seed, workdir)
    t0 = time.perf_counter()
    workload.setup()
    return workload, import_s, time.perf_counter() - t0


def probe_setup(name: str, seed: int) -> list[dict]:
    """Set-up cost measured in fresh processes, the way a user pays it."""
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()  # CLOCK_MONOTONIC: comparable across processes
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if out.returncode != 0:
            sys.exit(f"error: set-up failed in a fresh process:\n{out.stderr}")
        probe = json.loads(out.stdout.strip().splitlines()[-1])
        probe["setup_s"] = probe.pop("ready") - t0
        samples.append(probe)
    return samples


TAIL_CAP = 90  # beyond p90, short stalls that the calibration cannot see dominate


def calibration_kernel(x) -> float:
    """Fixed plain-numpy work: centred lagged dot products of a 256-point vector."""
    acc = 0.0
    for n in range(60):
        xs, ys = x[: x.size - n], x[n:]
        acc += float((xs - xs.mean()) @ (ys - ys.mean()))
    return acc


class Calibration:
    """The host's current speed, as the time of calibration_kernel.

    Other tenants of a shared host can slow every instruction by up to 1.6x
    for tens of seconds.  The kernel is the same kind of small-array numpy
    and interpreter work as the workloads but no fredreg code, so dividing an
    operation's time by the kernel's time around it cancels the host's speed
    and leaves the program's cost, in units of one kernel run ("cal").
    """

    def __init__(self, repeats: int):
        import numpy as np

        self.x = np.random.default_rng(0).uniform(-1.0, 1.0, 256)
        self.repeats = repeats

    def sample(self) -> float:
        times = []
        for _ in range(self.repeats):
            t0 = time.perf_counter()
            calibration_kernel(self.x)
            times.append(time.perf_counter() - t0)
        return statistics.median(times)


def tail_percentile(samples: list[float]) -> tuple[int, float]:
    """Highest whole percentile up to TAIL_CAP (nearest rank) with at least ten samples beyond it."""
    xs = sorted(samples)
    n = len(xs)
    for p in range(TAIL_CAP, 0, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= 10:
            return p, xs[rank - 1]
    return 100, xs[-1]


class Loop:
    """Closed loop over operations 0, 1, ...; each is timed alone and checked after."""

    def __init__(self, workload):
        self.workload = workload
        self.calibration = Calibration(workload.calibration_repeats)
        self.op_s: list[float] = []
        self.op_cal: list[float] = []  # operation time over the calibration time around it
        self.record_ms: list[float] = []
        self.record_cal: list[float] = []
        self.records = 0
        self.failed = 0
        self.problems: list[str] = []

    def step(self, i: int) -> None:
        w = self.workload
        inputs = w.inputs(i)
        n = w.records(inputs)
        before = self.calibration.sample()
        t0 = time.perf_counter()
        try:
            output, error = w.run(inputs), None
        except Exception as exc:  # a failed operation is counted, not fatal
            output, error = None, exc
        dt = time.perf_counter() - t0
        cal = dt / ((before + self.calibration.sample()) / 2)
        if error is None:
            problems = w.check(i, inputs, output)
        else:
            problems = [[f"operation {i}: {type(error).__name__}: {error}"]] * n
        self.op_s.append(dt)
        self.op_cal.append(cal)
        self.record_ms.append(dt * 1e3 / n)
        self.record_cal.append(cal / n)
        self.records += n
        self.failed += sum(1 for p in problems if p)
        self.problems += [msg for p in problems for msg in p]


def operations(workload, seconds: float):
    """Operation indices until the time is up, and at least those the reference covers."""
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline or i < workload.ref_ops:
        yield i
        i += 1


def finish(workload, seed: int, reference_path: Path) -> list[str]:
    reference = gate.load_reference(reference_path)[workload.name] if seed == 0 else None
    try:
        return workload.finish(reference)
    except (KeyError, IndexError, TypeError) as exc:
        return [f"reference comparison failed: {type(exc).__name__}: {exc}"]


def stamp(workload, seed: int, loop: Loop, probes: list[dict]) -> dict:
    import numpy
    import scipy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
        ).stdout.strip() or None
    except OSError:
        sha = None
    src_files = sorted((SRC / "fredreg").glob("*.py"))
    return {
        "git_sha": sha,
        "src_lines": sum(len(p.read_text().splitlines()) for p in src_files),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": {v: os.environ[v] for v in BLAS_ENV},
        "workload": workload.name,
        "seed": seed,
        "seeds_used": [workload.base, workload.base + math.ceil(loop.records / workload.records_per_seed) - 1],
        "operations": len(loop.op_s),
        "records": loop.records,
        "setup_probes": len(probes),
    }


def run_workload(args) -> int:
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        probes = probe_setup(args.workload, args.seed)
        workload, _, _ = setup_workload(args.workload, args.seed, workdir)
        loop = Loop(workload)
        if args.trace:
            import tracer

            # each operation runs untraced, then traced: the pair shares inputs and drift
            untraced, tr = Loop(workload), tracer.Tracer()
            for i in operations(workload, args.seconds):
                untraced.step(i)
                with tr:
                    loop.step(i)
            tr.dump(workdir.with_name(f".perfbench-spans-{args.workload}-{args.seed}.json"))
            loop.problems += untraced.problems
            for name in tr.missing:
                print(f"tracer: boundary {name} not found; reported as 0 calls", file=sys.stderr)
        else:
            for i in operations(workload, args.seconds):
                loop.step(i)
        problems = loop.problems + finish(workload, args.seed, Path(args.reference))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    setup_s = statistics.median(p["setup_s"] for p in probes)
    if args.trace:
        metrics = tr.metrics(loop.records)
        metrics["setup.import_s"] = (statistics.median(p["import_s"] for p in probes), "s")
        metrics["setup.build_s"] = (statistics.median(p["build_s"] for p in probes), "s")
        metrics["trace.overhead_frac"] = (sum(loop.op_cal) / sum(untraced.op_cal) - 1.0, "ratio")
    else:
        seeds = loop.records / workload.records_per_seed
        pct, tail = tail_percentile(loop.record_cal)
        wall_pct, wall_tail = tail_percentile(loop.record_ms)
        metrics = {
            "setup_s": (setup_s, "s"),
            "seeds_per_kcal": (1e3 * seeds / sum(loop.op_cal), "1/kcal"),
            "record_cal_p50": (statistics.median(loop.record_cal), "cal"),
            "record_cal_tail": (tail, "cal"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        wall = {
            "seeds_per_s": (seeds / sum(loop.op_s), "1/s"),
            "record_ms_p50": (statistics.median(loop.record_ms), "ms"),
            f"record_ms_p{wall_pct}": (wall_tail, "ms"),
            "cal_ms": (1e3 * sum(loop.op_s) / sum(loop.op_cal), "ms"),
        }
    correct = not problems
    for msg in problems[:20]:
        print(f"gate: {msg}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(loop.op_s)} operations, {loop.records} records, "
          f"{loop.failed} failed (failed_frac {loop.failed / loop.records:.4g})")
    if not args.trace:
        print(f"record_cal_tail is p{pct} of {len(loop.record_cal)} samples; "
              f"setup_s is the median of {len(probes)} fresh processes")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {unit}")
    if not args.trace:
        print("wall clock, not gated (cal_ms: time-weighted calibration kernel time):")
        for name, (value, unit) in wall.items():
            print(f"  {name:<44} {value:>14.6g} {unit}")
    print("stamp " + json.dumps(stamp(workload, args.seed, loop, probes)))
    print(json.dumps({
        "correct": correct,
        "attempted": loop.records,
        "failed": max(loop.failed, int(not correct)),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


def run_probe(args) -> int:
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        _, import_s, build_s = setup_workload(args.workload, args.seed, workdir)
        ready = time.perf_counter()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"ready": ready, "import_s": import_s, "build_s": build_s}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; prints every metric with its unit."""
    status = 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--reference", str(args.reference)]
        out = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = out.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        status = status or out.returncode
    return status


def capture(args) -> int:
    """Rewrite the reference entries of the chosen workloads from the leading operations of seed 0."""
    path = Path(args.reference)
    reference = json.loads(path.read_text()) if path.exists() else {}
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        for name in names:
            workload, _, _ = setup_workload(name, 0, workdir)
            loop = Loop(workload)
            for i in range(workload.ref_ops):
                loop.step(i)
            if loop.problems:
                sys.exit(f"{name}: outputs fail the invariants: {loop.problems[:3]}")
            reference[name] = workload.observations()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    # one line per workload keeps the ~6600 pinned CSV values out of the line count
    body = ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(reference.items()))
    path.write_text("{\n" + body + "\n}\n")
    print(f"wrote {path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--reference", default=str(HERE / "reference.json"))
    ap.add_argument("--capture", action="store_true", help="rewrite the reference from seed 0 and exit")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (SRC / "fredreg" / "__init__.py").is_file():
        sys.exit(f"error: no fredreg sources under {SRC}; run from the root of a source checkout")
    if args.capture:
        return capture(args)
    if args.setup_probe:
        return run_probe(args)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
