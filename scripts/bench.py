#!/usr/bin/env python3
"""Record one checkout's performance in BENCH_<tag>.json, or two checkouts'.

The file holds, for the checkout under --root (default: this repository):

- the end-to-end metrics of `perfbench/run.py --workload W --trace 0` and
  the per-layer metrics of the same command with `--trace 1`, for each
  workload W of BENCHMARK.json, together with the operations attempted and
  failed;
- the wall time of a fresh `python -c "import fredreg"`, which every run pays,
  and of a fresh `import fredreg` plus the 64-pair numeric eigensystem of the
  sample kernel on the default 513-point grid (the `numeric-kernel`
  workload's set-up);
- wall times of fresh `fredreg run` processes: `--preset example1 --seeds 100`
  with and without `--out`, and `--preset example3 --seeds 100`;
- the emission floor of the `--out` run: the number of float cells in its
  `seeds/*/*.csv`, without the seed-invariant columns (x, f_true and
  threshold0), and the seconds that `repr` takes over those floats, parsed
  back (the least that writing them as round-trip digits costs);
- the wall time of `scripts/evidence.py null_control`, and of
  `scripts/evidence.py noise_sweep --seeds 20` (every preset over its ladder
  of eps in one process, so all but the first rung of a preset reuse its
  tables), each writing its document into a fresh directory;
- the wall time of the tier-1 suite, a fresh `python -m pytest -q -p
  no:cacheprovider`, with its passed and failed counts whatever its exit code
  (documented failing tests make pytest exit 1), and the node IDs of its
  short summary's FAILED and ERROR lines;
- the peak RSS (`ru_maxrss`) of fresh processes that each run `import
  fredreg`, that 513-point numeric eigensystem,
  `run_experiment(preset("example1", seeds=range(n)))` in process, for n in
  100 and 3000, `run_experiment(preset("example3", seeds=range(100)))`,
  `fredreg.cli.main` for `run --preset example1 --seeds 100 --out` a fresh
  directory, or `run_experiment` of f1 with n_coeff 2048 on a 4097-point
  grid for 5 seeds, and which optional heavy modules each loaded: hashlib,
  numpy.fft, numpy.ma, numpy.random, scipy and its public subpackages (each
  probe runs under sh, which forks it, so its peak is not this script's);
- the autocorrelation window estimator, in one fresh process: for uniform
  noise records of N in 32, 64, 512, 1024, 4096 and 16384, and for each
  preset's noisy records, all from fixed seeds, the median microseconds of
  `autocorr_estimate` over the default window, the median microseconds of
  the per-lag loop (`_lag_delta` at every lag) over the same window, and
  the share of lags that `autocorr_estimate` sends to that loop;
- the `src/` line count, and its code lines: those that are not blank, not
  comment-only and not inside a module, class or function docstring;
- the git sha, the numpy and scipy versions and nproc.

Every command runs in a fresh process from the measured checkout's own
files (its `perfbench/run.py`, its `src/` and its `scripts/`), so a parent
commit exported with `git archive` can be measured by the same script.
Wall times and peak RSS are the median of --repeats runs; every run is kept.  The file is
written to the root of the repository that holds this script.

With --parent DIR, the parent checkout is measured in the same invocation and
written to BENCH_<tag>-parent.json: every perfbench pass (one workload, one
trace setting) and every wall-time or RSS run alternates between the two checkouts,
and the one that goes first swaps on each step, so a drift in host speed
reaches both files alike.

Usage: python scripts/bench.py --tag T [--root DIR] [--sha SHA]
                               [--parent DIR] [--parent-sha SHA]
                               [--seconds 20] [--repeats 3]
"""

from __future__ import annotations

import argparse
import ast
import collections
import io
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time
import tokenize
from datetime import datetime, timezone
from pathlib import Path

import numpy
import scipy

HERE = Path(__file__).resolve().parents[1]
RUN_PRESET = """from fredreg.harness import preset, run_experiment
run_experiment(preset("{name}", seeds=range({n})))"""
NUMERIC_513 = """import fredreg as fr
fr.numeric_eigensystem(fr.sample_kernel_matrix(fr.simpson_grid(513)), 64)"""
RUN_EXAMPLE1_OUT = """import tempfile
from fredreg.cli import main
with tempfile.TemporaryDirectory() as out:
    main(["run", "--preset", "example1", "--seeds", "100", "--out", out])"""
# a record long enough that its n_coeff x grid_size psi_k table (67 MB) outweighs the rest of the run
RUN_F1_2048_4097 = """import fredreg as fr
cfg = fr.ExperimentConfig(signal=fr.SignalSpec.named("f1"), epsilon=1e-4, n_coeff=2048, grid_size=4097, seeds=range(5))
fr.run_experiment(cfg)"""
# rss key -> the code a fresh process runs before it prints its own peak RSS
RSS_PROBES = {
    "import_fredreg": "import fredreg",
    "numeric_eigensystem_513": NUMERIC_513,
    **{f"run_experiment_example1_{n}": RUN_PRESET.format(name="example1", n=n) for n in (100, 3000)},
    "run_experiment_example3_100": RUN_PRESET.format(name="example3", n=100),
    "run_example1_out_100": RUN_EXAMPLE1_OUT,
    "run_experiment_f1_2048_4097": RUN_F1_2048_4097,
}
# optional modules an RSS probe reports when its process loaded them, beside scipy and its public subpackages
HEAVY_MODULES = {"hashlib", "numpy.fft", "numpy.ma", "numpy.random"}
CLI = [sys.executable, "-m", "fredreg.cli", "run", "--seeds", "100", "--preset"]
# wall key -> the argv of a fresh process, run from the checkout's root; "{tmp}" is a fresh directory
WALL_PROBES = {
    "import_fredreg": [sys.executable, "-c", "import fredreg"],
    "numeric_eigensystem_513": [sys.executable, "-c", NUMERIC_513],
    "run_example1": [*CLI, "example1"],
    "run_example1_out": [*CLI, "example1", "--out", "{tmp}"],
    "run_example3": [*CLI, "example3"],
    "null_control": [sys.executable, "scripts/evidence.py", "null_control", "--out", "{tmp}/null.json"],
    "noise_sweep": [sys.executable, "scripts/evidence.py", "noise_sweep", "--seeds", "20", "--out", "{tmp}/sweep.json"],
}
WINDOW_SIZES = (32, 64, 512, 1024, 4096, 16384)
PRESET_NAMES = ("example1", "example2", "example3", "example4")
# a fresh process loads this script by path and prints window_estimator() as JSON
WINDOW_PROBE = """import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("bench", sys.argv[1])
bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench)
print(json.dumps(bench.window_estimator()))"""
TIER1_COUNT = re.compile(r"(\d+) (passed|failed|errors?)\b")
# "FAILED <node id> - <message>" or "ERROR <node id>" in pytest's short test summary
TIER1_NOT_PASSED = re.compile(r"^(FAILED|ERROR) (.+?)(?: - .*)?$", re.MULTILINE)
HEADER = re.compile(r"^(\S+) seed \d+: (\d+) operations, (\d+) records, (\d+) failed")
METRIC = re.compile(r"^\s+(\S+)\s+(\S+)\s+(\S+)$")
INT_CELL = re.compile(r"-?\d+")
# columns a run formats once, not once per seed: x and f_true of solutions.csv, threshold0 of autocorr.csv
SEED_INVARIANT = {"x", "f_true", "threshold0"}


def perfbench(root: Path, workload: str, seconds: float, trace: int) -> tuple[dict, int]:
    """Metrics printed by `perfbench/run.py --workload <workload>`, per workload, and its exit code."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
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


def heavy_modules(names) -> list[str]:
    """The optional heavy modules among names: those of HEAVY_MODULES, and scipy and its public subpackages."""
    return sorted(m for m in names if m in HEAVY_MODULES or re.fullmatch(r"scipy(\.[a-z]\w*)?", m))


def rss_probe(code: str, root: Path) -> tuple[float, list[str]]:
    """Peak RSS in MB (ru_maxrss / 1024, as perfbench reads it) and heavy_modules of a fresh process running code."""
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    report = "import resource, sys\nprint(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, *sys.modules)"
    # ru_maxrss survives exec and starts a spawned process at its spawner's RSS, which for this script
    # exceeds a bare `import fredreg`; sh forks the probe (a command that is not its last is not exec'd),
    # so the floor is sh's few MB
    argv = ["sh", "-c", '"$@"; exit $?', "sh", sys.executable, "-c", f"{code}\n{report}"]
    out = subprocess.run(argv, cwd=root, env=env, stdout=subprocess.PIPE, text=True, check=True).stdout
    mb, *names = out.splitlines()[-1].split()
    return float(mb), heavy_modules(names)


def wall_time(argv: list[str], root: Path, inspect=None):
    """Seconds of a fresh process running argv, "{tmp}" a fresh directory; with inspect, also inspect(that directory)."""
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    with tempfile.TemporaryDirectory() as tmp:
        cmd = [a.replace("{tmp}", tmp) for a in argv]
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.DEVNULL, check=True)
        wall = time.perf_counter() - t0
        return wall if inspect is None else (wall, inspect(Path(tmp)))


def float_cells(out_dir: Path):
    """Per file of out_dir/seeds/*/*.csv, in path order, its float cells parsed back.

    Int cells, empty cells and the seed-invariant columns are left out.
    """
    for path in sorted(out_dir.glob("seeds/*/*.csv")):
        header, *rows = path.read_text().splitlines()
        keep = [i for i, name in enumerate(header.split(",")) if name not in SEED_INVARIANT]
        values = []
        for row in rows:
            cells = row.split(",")
            values.extend(float(cells[i]) for i in keep if cells[i] and not INT_CELL.fullmatch(cells[i]))
        yield values


def emission_floor(out_dir: Path) -> tuple[int, float]:
    """The number of float cells of an output directory and the seconds repr takes over them.

    One file's floats at a time: a child's ru_maxrss starts from its parent's
    peak, so holding every float here would raise the RSS probes run after it.
    """
    count, seconds = 0, 0.0
    for values in float_cells(out_dir):
        t0 = time.perf_counter()
        collections.deque(map(repr, values), maxlen=0)
        seconds += time.perf_counter() - t0
        count += len(values)
    return count, seconds


def window_estimator(sizes=WINDOW_SIZES, presets=PRESET_NAMES, seeds=range(10), repeats=5) -> dict:
    """The window estimator against the per-lag loop, from the fredreg on sys.path.

    Per uniform-noise record length N, and per preset (its records, at its
    N), over the default window 0..default_max_lag(N): the median of
    `repeats` timed calls on each seed's record of autocorr_estimate
    (`new_us`) and of the loop (`loop_us`), the two alternating, and the
    share of the window's lags that autocorr_estimate hands to the loop
    (`loop_share`, counted in a separate untimed pass).
    """
    import fredreg as fr
    from fredreg import selection

    def loop(g, last_lag):
        scaled = selection._peak_scaled(g)
        return [selection._lag_delta(scaled, n) for n in range(last_lag + 1)]

    def measure(records):
        window = fr.default_max_lag(records[0].size)
        new_s, loop_s = [], []
        for g in records:
            for _ in range(repeats):
                for f, times in ((fr.autocorr_estimate, new_s), (loop, loop_s)):
                    t0 = time.perf_counter()
                    f(g, window)
                    times.append(time.perf_counter() - t0)
        lag_delta, fell = selection._lag_delta, []
        selection._lag_delta = lambda g, n: fell.append(n) or lag_delta(g, n)
        try:
            for g in records:
                fr.autocorr_estimate(g, window)
        finally:
            selection._lag_delta = lag_delta
        return {
            "n_count": int(records[0].size), "window": window,
            "new_us": statistics.median(new_s) * 1e6, "loop_us": statistics.median(loop_s) * 1e6,
            "loop_share": len(fell) / (len(records) * (window + 1)),
        }

    out = {"uniform": {}, "presets": {}}
    for n_count in sizes:
        out["uniform"][str(n_count)] = measure(
            [numpy.random.default_rng(seed).uniform(-1.0, 1.0, n_count) for seed in seeds])
    for name in presets:
        cfg = fr.preset(name)
        data = fr.run_context(cfg).data
        out["presets"][name] = measure([fr.add_noise(data, cfg.epsilon, seed, cfg.noise_mode).coeffs for seed in seeds])
    return out


def window_probe(root: Path) -> dict:
    """window_estimator() run by a fresh process on the checkout's own src/."""
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    argv = [sys.executable, "-c", WINDOW_PROBE, str(Path(__file__).resolve())]
    return json.loads(subprocess.run(argv, cwd=root, env=env, stdout=subprocess.PIPE, text=True, check=True).stdout)


def summary_ids(output: str) -> dict[str, list[str]]:
    """The node IDs of the FAILED and of the ERROR lines in pytest's short test summary."""
    ids: dict[str, list[str]] = {"failed_ids": [], "error_ids": []}
    for outcome, node in TIER1_NOT_PASSED.findall(output.partition("short test summary info")[2]):
        ids[f"{outcome.lower()}_ids"].append(node)
    return ids


def tier1(root: Path) -> dict:
    """Wall time, exit code, counts and failing node IDs of one fresh tier-1 run of the checkout's own tests."""
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"]
    t0 = time.perf_counter()
    out = subprocess.run(argv, cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    wall = time.perf_counter() - t0
    summary = out.stdout.rstrip().rsplit("\n", 1)[-1]
    counts = {kind.rstrip("s"): int(n) for n, kind in TIER1_COUNT.findall(summary)}
    return {"wall_s": wall, "exit_code": out.returncode, "passed": counts.get("passed", 0),
            "failed": counts.get("failed", 0), "errors": counts.get("error", 0), **summary_ids(out.stdout)}


class Alternation:
    """Runs one probe on every checkout, swapping which goes first on each call."""

    def __init__(self, roots: list[Path]):
        self.roots = roots
        self.order = list(range(len(roots)))

    def __call__(self, probe) -> list:
        self.order.reverse()
        out = [None] * len(self.roots)
        for i in self.order:
            out[i] = probe(self.roots[i])
        return out


def wall_times(argv: list[str], each: Alternation, repeats: int) -> list[dict]:
    """Per checkout: the median and every run of `repeats` fresh processes."""
    runs = zip(*(each(lambda root: wall_time(argv, root)) for _ in range(repeats)))
    return [{"command": " ".join(argv[1:]), "median_s": statistics.median(r), "runs_s": list(r)} for r in runs]


def emission_times(argv: list[str], each: Alternation, repeats: int) -> list[dict]:
    """Per checkout: wall_times of a run that writes into "{tmp}", with the float cells it wrote and their repr floor."""
    out = []
    for runs in zip(*(each(lambda root: wall_time(argv, root, emission_floor)) for _ in range(repeats))):
        walls, floors = [w for w, _ in runs], [s for _, (_, s) in runs]
        out.append({
            "command": " ".join(argv[1:]), "median_s": statistics.median(walls), "runs_s": walls,
            "float_cells": statistics.median(n for _, (n, _) in runs),
            "repr_floor_s": statistics.median(floors), "repr_floor_runs_s": floors,
        })
    return out


def peak_rss(code: str, each: Alternation, repeats: int) -> list[dict]:
    """Per checkout: the median and every peak RSS of `repeats` fresh processes running code, and what they loaded."""
    out = []
    for runs in zip(*(each(lambda root: rss_probe(code, root)) for _ in range(repeats))):
        mbs = [mb for mb, _ in runs]
        out.append({"code": code, "median_mb": statistics.median(mbs), "runs_mb": mbs,
                    "heavy_modules": sorted({m for _, loaded in runs for m in loaded})})
    return out


NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(text: str) -> int:
    """Lines of Python source that hold a token other than a comment, outside every docstring."""
    rows = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in NOT_CODE:
            rows.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            doc = node.body[0]
            if isinstance(doc, ast.Expr) and isinstance(doc.value, ast.Constant) and isinstance(doc.value.value, str):
                rows.difference_update(range(doc.lineno, doc.end_lineno + 1))
    return len(rows)


def git_sha(root: Path) -> str | None:
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
    return out.stdout.strip() or None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--tag", required=True, help="names the output file BENCH_<tag>.json")
    ap.add_argument("--root", default=str(HERE), help="checkout to measure (default: this repository)")
    ap.add_argument("--sha", help="commit to record when --root has no git metadata")
    ap.add_argument("--parent", help="also measure this checkout, alternating, into BENCH_<tag>-parent.json")
    ap.add_argument("--parent-sha", help="commit to record when --parent has no git metadata")
    ap.add_argument("--seconds", type=float, default=20.0, help="perfbench run length per workload")
    ap.add_argument("--repeats", type=int, default=3, help="fresh processes per wall time")
    args = ap.parse_args()
    checkouts = [(args.tag, Path(args.root).resolve(), args.sha)]
    if args.parent:
        checkouts.insert(0, (f"{args.tag}-parent", Path(args.parent).resolve(), args.parent_sha))
    for _, root, _ in checkouts:
        if not (root / "src" / "fredreg" / "__init__.py").is_file():
            sys.exit(f"error: no fredreg sources under {root / 'src'}")

    each = Alternation([root for _, root, _ in checkouts])
    workloads = [w["name"] for w in json.loads((HERE / "BENCHMARK.json").read_text())["workloads"]]
    # per checkout: workload metrics and the first non-zero exit code, for trace 0 and trace 1
    metrics = [({}, {}) for _ in checkouts]
    codes = [[0, 0] for _ in checkouts]
    for trace in (0, 1):
        for name in workloads:
            for i, (out, code) in enumerate(each(lambda root: perfbench(root, name, args.seconds, trace))):
                metrics[i][trace].update(out)
                codes[i][trace] = codes[i][trace] or code
    wall = {
        name: emission_times(argv, each, args.repeats) if name == "run_example1_out"
        else wall_times(argv, each, args.repeats)
        for name, argv in WALL_PROBES.items()
    }
    rss = {name: peak_rss(code, each, args.repeats) for name, code in RSS_PROBES.items()}
    window = each(window_probe)
    suites = [list(r) for r in zip(*(each(tier1) for _ in range(args.repeats)))]
    status = 0
    for i, (tag, root, sha) in enumerate(checkouts):
        (e2e, layers), (status0, status1) = metrics[i], codes[i]
        bench = {
            "tag": tag,
            "git_sha": sha or git_sha(root),
            "measured_utc": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
            "src_lines": sum(len(p.read_text().splitlines()) for p in (root / "src").rglob("*.py")),
            "src_code_lines": sum(code_lines(p.read_text()) for p in (root / "src").rglob("*.py")),
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "nproc": os.cpu_count(),
            "alternated_with": [t for t, _, _ in checkouts if t != tag],
            "perfbench": {
                "seconds": args.seconds,
                "exit_codes": {"trace0": status0, "trace1": status1},
                "end_to_end": e2e,
                "per_layer": {name: w["metrics"] for name, w in layers.items()},
            },
            "wall": {name: runs[i] for name, runs in wall.items()},
            "rss": {name: runs[i] for name, runs in rss.items()},
            "window_estimator": window[i],
            "tier1": {"median_s": statistics.median(r["wall_s"] for r in suites[i]), "runs": suites[i]},
        }
        path = HERE / f"BENCH_{tag}.json"
        path.write_text(json.dumps(bench, indent=2) + "\n")
        print(f"wrote {path}")
        status = status or status0 or status1
    return status


if __name__ == "__main__":
    sys.exit(main())
