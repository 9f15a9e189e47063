#!/usr/bin/env python3
"""Run every workload over several seeds and record medians, quartiles and spreads.

    python3 perfbench/baseline.py --runs 10 --out perfbench/baseline.json

Each run is one fresh ``run.py`` process with its own seed (0, 1, ...), timed
for ``run_seconds`` from BENCHMARK.json. The spread of a metric is the
distance between its first and third quartile (``statistics.quantiles``,
n=4) as a share of its median; compare it with the metric's bound before
trusting a difference. One traced run per workload adds the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} failed ({out.returncode}):\n{out.stderr}")
    stamp = next(json.loads(line[6:]) for line in lines if line.startswith("stamp "))
    return json.loads(lines[-1]), stamp


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", action="append", help="repeatable; default the declared workloads")
    ap.add_argument("--out", help="write the summary JSON here, keeping other workloads' entries")
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = args.workload or [w["name"] for w in spec["workloads"]]
    out = Path(args.out) if args.out else None
    summary = json.loads(out.read_text()) if out and out.exists() else {"workloads": {}}
    summary["run_seconds"] = seconds
    for name in names:
        values: dict[str, list[float]] = {}
        stamps = []
        for seed in range(args.runs):
            result, stamp = bench(name, seed, seconds, 0)
            stamps.append(stamp)
            for metric, v in result["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
        end_to_end = {}
        for metric, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            end_to_end[metric] = {
                "median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "bound": bounds[metric],
                "values": vals,
            }
            print(f"{name:<18} {metric:<16} median {med:<12.6g} spread {(q3 - q1) / med:.3f} "
                  f"(bound {bounds[metric]})", flush=True)
        traced, _ = bench(name, 0, seconds, 1)
        summary["stamp"] = {k: stamps[0][k] for k in
                            ("git_sha", "src_lines", "python", "numpy", "scipy", "nproc", "blas_threads")}
        summary["workloads"][name] = {
            "seeds": list(range(args.runs)),
            "operations": [s["operations"] for s in stamps],
            "records": [s["records"] for s in stamps],
            "end_to_end": end_to_end,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    if out:
        out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
