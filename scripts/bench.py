#!/usr/bin/env python3
"""Record one checkout's performance in BENCH_<tag>.json.

The file holds, for the checkout under --root (default: this repository):

- the end-to-end metrics of `perfbench/run.py --workload all --trace 0` and
  the per-layer metrics of the same command with `--trace 1`, each per
  workload, together with the operations attempted and failed;
- wall times of fresh `fredreg run` processes: `--preset example1 --seeds 100`
  with and without `--out`, and `--preset example3 --seeds 100`;
- the wall time of `scripts/null_control.py`;
- the `src/` line count, the git sha, the numpy and scipy versions and nproc.

Every command runs in a fresh process from the measured checkout's own
files (its `perfbench/run.py`, its `src/` and its `scripts/`), so a parent
commit exported with `git archive` can be measured by the same script.
Wall times are the median of --repeats runs; every run is kept.  The file is
written to the root of the repository that holds this script.

Usage: python scripts/bench.py --tag T [--root DIR] [--sha SHA]
                               [--seconds 20] [--repeats 3]
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy
import scipy

HERE = Path(__file__).resolve().parents[1]
HEADER = re.compile(r"^(\S+) seed \d+: (\d+) operations, (\d+) records, (\d+) failed")
METRIC = re.compile(r"^\s+(\S+)\s+(\S+)\s+(\S+)$")


def perfbench(root: Path, seconds: float, trace: int) -> tuple[dict, int]:
    """Metrics printed by `perfbench/run.py --workload all`, per workload, and its exit code."""
    argv = [sys.executable, "perfbench/run.py", "--workload", "all",
            "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(argv, cwd=root, stdout=subprocess.PIPE, text=True)
    workloads: dict = {}
    section = "metrics"
    for line in out.stdout.splitlines():
        if m := HEADER.match(line):
            section = "metrics"
            current = workloads[m[1]] = {
                "operations": int(m[2]), "records": int(m[3]), "failed": int(m[4]), "metrics": {},
            }
        elif line.startswith("wall clock"):
            section = "wall_clock_not_gated"
            current[section] = {}
        elif m := METRIC.match(line):
            current[section][m[1]] = {"value": float(m[2]), "unit": m[3]}
    return workloads, out.returncode


def wall_times(argv: list[str], root: Path, repeats: int) -> dict:
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    runs = []
    for _ in range(repeats):
        with tempfile.TemporaryDirectory() as tmp:
            cmd = [a.replace("{tmp}", tmp) for a in argv]
            t0 = time.perf_counter()
            subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.DEVNULL, check=True)
            runs.append(time.perf_counter() - t0)
    return {"command": " ".join(argv[1:]), "median_s": statistics.median(runs), "runs_s": runs}


def git_sha(root: Path) -> str | None:
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
    return out.stdout.strip() or None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--tag", required=True, help="names the output file BENCH_<tag>.json")
    ap.add_argument("--root", default=str(HERE), help="checkout to measure (default: this repository)")
    ap.add_argument("--sha", help="commit to record when --root has no git metadata")
    ap.add_argument("--seconds", type=float, default=20.0, help="perfbench run length per workload")
    ap.add_argument("--repeats", type=int, default=3, help="fresh processes per wall time")
    args = ap.parse_args()
    root = Path(args.root).resolve()
    if not (root / "src" / "fredreg" / "__init__.py").is_file():
        sys.exit(f"error: no fredreg sources under {root / 'src'}")

    cli = [sys.executable, "-m", "fredreg.cli", "run", "--seeds", "100", "--preset"]
    end_to_end, status0 = perfbench(root, args.seconds, 0)
    per_layer, status1 = perfbench(root, args.seconds, 1)
    bench = {
        "tag": args.tag,
        "git_sha": args.sha or git_sha(root),
        "measured_utc": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "src_lines": sum(len(p.read_text().splitlines()) for p in (root / "src").rglob("*.py")),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "perfbench": {
            "seconds": args.seconds,
            "exit_codes": {"trace0": status0, "trace1": status1},
            "end_to_end": end_to_end,
            "per_layer": {name: w["metrics"] for name, w in per_layer.items()},
        },
        "wall": {
            "run_example1": wall_times([*cli, "example1"], root, args.repeats),
            "run_example1_out": wall_times([*cli, "example1", "--out", "{tmp}"], root, args.repeats),
            "run_example3": wall_times([*cli, "example3"], root, args.repeats),
            "null_control": wall_times([sys.executable, "scripts/null_control.py"], root, args.repeats),
        },
    }
    path = HERE / f"BENCH_{args.tag}.json"
    path.write_text(json.dumps(bench, indent=2) + "\n")
    print(f"wrote {path}")
    return status0 or status1


if __name__ == "__main__":
    sys.exit(main())
