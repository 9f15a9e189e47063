"""The four benchmark workloads.

Each workload is a closed loop driven by one caller: operation ``i`` gets
inputs derived only from the run seed and ``i``, the timed call hands them to
the program, and the outputs are checked outside the timed region.  A
*record* is the unit the latency metrics count: one seed's noisy coefficient
record (analysed by every method) or, on ``null-selection``, one
``build_selection`` call.

Why these four (see README.md for the metric each one should move):

* ``mc-example3``: heaviest compute per seed and no I/O;
* ``cli-example1-emit``: the only workload that writes output files;
* ``null-selection``: only the selection module runs, on pure noise;
* ``numeric-kernel``: the only path whose basis comes from the Nystrom table.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import tempfile
from pathlib import Path

import numpy as np

import fredreg as fr
import fredreg.cli

import gate

SEED_STRIDE = 1_000_000  # run seed s draws Monte-Carlo seeds s*SEED_STRIDE, s*SEED_STRIDE+1, ...


class Workload:
    name = ""
    records_per_seed = 1
    calibration_repeats = 1  # kernel runs per host-speed sample; long operations take more
    ref_ops = 1  # leading operations whose outputs the default seed compares to the reference

    def __init__(self, seed: int, workdir: Path):
        self.base = seed * SEED_STRIDE
        self.workdir = workdir
        self.seen: dict[int, object] = {}  # reference observations by operation index

    def setup(self) -> None:
        """One-off builds; also runs operation 0 once so lazy first-use costs are paid."""
        inputs = self.inputs(0)
        self.check(0, inputs, self.run(inputs))

    def inputs(self, i: int):
        raise NotImplementedError

    def run(self, inputs):
        raise NotImplementedError

    def check(self, i: int, inputs, output) -> list[list[str]]:
        """Problems found in operation i's output, one list per record."""
        raise NotImplementedError

    def records(self, inputs) -> int:
        return 1

    def observations(self) -> dict:
        """What the reference pins, from the first ``ref_ops`` operations."""
        return {"outcomes": [o for i in range(self.ref_ops) for o in self.seen[i]]}

    def finish(self, reference: dict | None) -> list[str]:
        """Run-level checks; ``reference`` is given for the default seed only."""
        if reference is None:
            return []
        got = self.observations()
        errors = []
        for have, want in zip(got["outcomes"], reference["outcomes"]):
            errors += gate.compare_outcomes(have, want)
        if len(got["outcomes"]) != len(reference["outcomes"]):
            errors.append(f"{len(got['outcomes'])} reference outcomes, expected {len(reference['outcomes'])}")
        return errors


class McExample3(Workload):
    """harness.run_experiment on the example3 preset, all methods, no output dir."""

    name = "mc-example3"
    batch = 2
    calibration_repeats = 3
    ref_ops = 4

    def inputs(self, i):
        start = self.base + i * self.batch
        return fr.preset("example3", seeds=range(start, start + self.batch))

    def run(self, cfg):
        return fr.run_experiment(cfg)

    def records(self, cfg):
        return len(cfg.seeds)

    def check(self, i, cfg, records):
        dicts = [r.to_json_dict() for r in records]
        if [d["seed"] for d in dicts] != list(cfg.seeds):
            return [[f"records for seeds {[d['seed'] for d in dicts]}, expected {list(cfg.seeds)}"]] * len(cfg.seeds)
        problems = [gate.record_errors(d, cfg.methods) for d in dicts]
        if i < self.ref_ops:
            self.seen[i] = [gate.outcome(d) for d in dicts]
        return problems


class CliExample1Emit(Workload):
    """``fredreg run --preset example1`` in-process, writing every output file."""

    name = "cli-example1-emit"
    batch = 3
    calibration_repeats = 5

    def setup(self):
        cfg = fr.preset("example1")
        self.n_coeff, self.grid_size, self.methods = cfg.n_coeff, cfg.grid_size, cfg.methods
        self.csv_shapes = {
            "coefficients.csv": (["k", "g_bar_k"], self.n_coeff),
            "profile.csv": (["m", "M"], self.n_coeff),
            "autocorr.csv": (["n", "delta", "threshold0", "threshold_n0"], self.n_coeff),
            "solutions.csv": (["x", "f_true", *sorted(self.methods)], self.grid_size),
        }
        super().setup()

    def inputs(self, i):
        out = Path(tempfile.mkdtemp(prefix=f"op{i}-", dir=self.workdir))
        start = self.base + i * self.batch
        argv = ["run", "--preset", "example1", "--seeds", str(self.batch),
                "--base-seed", str(start), "--out", str(out)]
        return argv, out, list(range(start, start + self.batch))

    def run(self, inputs):
        with contextlib.redirect_stdout(io.StringIO()):
            return fredreg.cli.main(inputs[0])

    def records(self, inputs):
        return len(inputs[2])

    def check(self, i, inputs, rc):
        _, out, seeds = inputs
        try:
            return self._check(i, out, seeds, rc)
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def _check(self, i, out, seeds, rc):
        if rc != 0:
            return [[f"fredreg run exited {rc}"] for _ in seeds]
        manifest = json.loads((out / "manifest.json").read_text())
        report = json.loads((out / "report.json").read_text())
        per_seed = [f"seeds/{s}/{name}" for s in seeds for name in self.csv_shapes]
        expected = sorted([*self.csv_shapes, "report.json", "summary.json", *per_seed])
        on_disk = sorted(str(p.relative_to(out)) for p in out.rglob("*") if p.is_file())
        op_errors = []
        if manifest["files"] != expected:
            op_errors.append("manifest file list differs from the expected outputs")
        if on_disk != sorted([*expected, "manifest.json"]):
            op_errors.append("files on disk differ from the manifest")
        tables = {}
        for rel in [*self.csv_shapes, *per_seed]:
            columns, rows = self.csv_shapes[Path(rel).name]
            try:
                tables[rel] = gate.read_csv(out / rel, rows, columns)
            except (OSError, ValueError) as exc:
                op_errors.append(f"{rel}: {exc}")
        records = report["records"]
        if [r["seed"] for r in records] != seeds:
            op_errors.append(f"report seeds {[r['seed'] for r in records]}, expected {seeds}")
            return [op_errors for _ in seeds]
        problems = [op_errors + gate.record_errors(r, self.methods) for r in records]
        if i < self.ref_ops:
            self.seen[i] = {
                "config_hash": manifest["config_hash"],
                "files": manifest["files"],
                "outcomes": [gate.outcome(r) for r in records],
                "csv": {
                    name: gate.value_columns(*tables[name])
                    for name in self.csv_shapes if name in tables
                },
            }
        return problems

    def observations(self):
        return self.seen[0]

    def finish(self, reference):
        if reference is None:
            return []
        got = self.observations()
        errors = super().finish(reference)
        for key in ("config_hash", "files"):
            if got[key] != reference[key]:
                errors.append(f"manifest {key} differs from the reference")
        for name, columns in reference["csv"].items():
            for column, want in columns.items():
                have = got["csv"].get(name, {}).get(column, [])
                errors += gate.compare_values(have, want, f"{name}:{column}")
        return errors


class NullSelection(Workload):
    """selection.build_selection on pure-noise records, alternating the randomness test."""

    name = "null-selection"
    records_per_seed = 2
    modes = ("portmanteau", "none")
    n_coeff = 512
    epsilon = 1e-4
    ref_ops = 400  # records 0..199, each analysed in both modes

    def setup(self):
        self.empty: dict[int, tuple[str, bool]] = {}
        super().setup()

    def inputs(self, i):
        record = np.random.default_rng(self.base + i // 2).uniform(-self.epsilon, self.epsilon, self.n_coeff)
        return record, self.modes[i % 2]

    def run(self, inputs):
        record, mode = inputs
        return fr.build_selection(record, randomness_test=mode)

    def check(self, i, inputs, report):
        self.empty[i] = (inputs[1], not report.I_k)
        return [gate.selection_errors(report.n0, report.Q, report.pairs, report.I_k)]

    def _empty_counts(self, ops) -> dict[str, int]:
        counts = dict.fromkeys(self.modes, 0)
        for i in ops:
            mode, empty = self.empty[i]
            counts[mode] += empty
        return counts

    def observations(self):
        return {"empty": self._empty_counts(range(self.ref_ops)), "records": self.ref_ops // 2}

    def finish(self, reference):
        portmanteau = [i for i, (mode, _) in self.empty.items() if mode == "portmanteau"]
        errors = gate.empty_fraction_errors(self._empty_counts(portmanteau)["portmanteau"], len(portmanteau))
        if reference is not None and self.observations() != reference:
            errors.append(f"null empty-selection counts {self.observations()} != reference {reference}")
        return errors


class NumericKernel(Workload):
    """Library calls on the Nystrom eigensystem of the tabulated sample kernel."""

    name = "numeric-kernel"
    n_coeff = 64
    epsilon = 1e-3
    ref_ops = 10

    def setup(self):
        self.grid = fr.simpson_grid(513)
        self.es = fr.numeric_eigensystem(fr.sample_kernel_matrix(self.grid), self.n_coeff)
        self.signal = fr.SignalSpec.named("f3")
        self.f_vals = fr.evaluate_signal(self.signal, self.grid)
        self.E = self.grid.norm(self.f_vals)  # norm bound and error scale, as in the harness
        self.d_eps = fr.noise_dispersion(self.epsilon)
        self.cs = fr.ConstraintSpec(E=self.E, eps=self.d_eps)
        self.vp = fr.VarianceProfile(rho=np.full(self.n_coeff, self.E), nu=np.ones(self.n_coeff), eps=self.d_eps)
        self.c1 = self.E**2 * (1.0 + 1e-9)
        super().setup()

    def inputs(self, i):
        return self.base + i

    def run(self, seed):
        es, grid = self.es, self.grid
        ds, _, _ = fr.synthesize_dataset(self.signal, es, grid, self.epsilon, seed, self.n_coeff)
        report = fr.build_selection(ds)
        sols = {
            "tikhonov_full": fr.tikhonov_full(ds, es, self.cs),
            "k_alpha": fr.truncated_k_alpha(ds, es, self.cs),
            "tikhonov_identity": fr.tikhonov_identity(ds, es, self.E, self.d_eps),
            "k_beta": fr.truncated_k_beta(ds, es, self.E, self.d_eps),
            "blp": fr.best_linear_estimate(ds, es, self.vp),
            "f0": fr.f0_approximation(ds, es, self.c1),
            "bhat": fr.reconstruct_bhat(ds, es, report),
        }
        errors = {name: grid.norm(sol.to_grid(es, grid) - self.f_vals) / self.E for name, sol in sols.items()}
        return report, sols, errors

    def check(self, i, seed, output):
        report, sols, errors = output
        record = {
            "seed": seed,
            "rel_l2": {name: float(err) for name, err in errors.items()},
            "failures": {},
            "k_alpha": int(sols["k_alpha"].params["k_alpha"]),
            "k_beta": int(sols["k_beta"].params["k_beta"]),
            "k0": int(sols["f0"].params["k0"]),
            "selection": report.to_json_dict(),
        }
        if i < self.ref_ops:
            self.seen[i] = [gate.outcome(record)]
        return [gate.record_errors(record, sols)]

    def observations(self):
        return {**super().observations(), "eigenvalues": self.es.eigenvalues.tolist()}

    def finish(self, reference):
        if reference is None:
            return []
        errors = super().finish(reference)
        return errors + gate.compare_values(
            self.es.eigenvalues.tolist(), reference["eigenvalues"], "eigenvalues", floor=0.0
        )


WORKLOADS = {w.name: w for w in (McExample3, CliExample1Emit, NullSelection, NumericKernel)}
