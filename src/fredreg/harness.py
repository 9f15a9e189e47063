"""Experiment runner: seeded Monte-Carlo batches over signals, noise, methods.

Presets example1..example4 encode the reference experiments (signal, noise
bound, record length); each run builds its seed-invariant context once, draws
a dataset per seed, applies the requested reconstruction methods, and records
relative L2 errors on the grid together with the cutoff indices and the
selection report.  Outputs are plain CSV/JSON and byte-deterministic for a
fixed config.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import time
from collections import Counter
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Iterable

import numpy as np

from .eigensystem import EigenSystem, analytic_eigensystem, simpson_grid
from .selection import SelectionReport, build_selection, reconstruct_bhat
from .spectral import cumulative_profile, f0_approximation
from .synthesis import (  # noqa: F401  synthesize_dataset stays importable from here
    NoisyDataset,
    SignalContext,
    SignalSpec,
    noise_dispersion,
    signal_context,
    snr_db,
    synthesize_dataset,
    write_coeffs_csv,
    write_table,
)
from .variational import (
    ConstraintSpec,
    VarianceProfile,
    best_linear_estimate,
    tikhonov_full,
    tikhonov_identity,
    truncated_k_alpha,
    truncated_k_beta,
)

__all__ = [
    "ExperimentConfig",
    "RunRecord",
    "ALL_METHODS",
    "preset",
    "PRESETS",
    "RunContext",
    "run_context",
    "run_experiment",
    "summarize",
    "emit_outputs",
    "config_hash",
]


@dataclass(frozen=True)
class RunContext:
    """Seed-invariant half of a run, built once and shared by its records."""

    data: SignalContext  # grid, record eigensystem (k <= n_coeff), psi_k table, f, g_k, g
    es: EigenSystem  # reconstruction basis, k <= n_max: coefficients beyond it are noise-dominated
    f_norm: float
    E: float
    c1: float
    d_eps: float


def _blp(ds, ctx, record):
    n = min(ctx.es.count, ds.n_coeff)
    vp = VarianceProfile(rho=np.full(n, ctx.E), nu=np.ones(n), eps=ctx.d_eps)
    return best_linear_estimate(ds, ctx.es, vp)


def _bhat(ds, ctx, record):
    record.selection = build_selection(ds)
    return reconstruct_bhat(ds, ctx.es, record.selection)


# name -> fn(dataset, run context, record) -> RegularizedSolution; each cutoff
# (k_alpha, k_beta, k0) is reported through sol.params
METHODS = {
    "tikhonov_full": lambda ds, ctx, rec: tikhonov_full(ds, ctx.es, ConstraintSpec(E=ctx.E, eps=ctx.d_eps)),
    "k_alpha": lambda ds, ctx, rec: truncated_k_alpha(ds, ctx.es, ConstraintSpec(E=ctx.E, eps=ctx.d_eps)),
    "tikhonov_identity": lambda ds, ctx, rec: tikhonov_identity(ds, ctx.es, ctx.E, ctx.d_eps),
    "k_beta": lambda ds, ctx, rec: truncated_k_beta(ds, ctx.es, ctx.E, ctx.d_eps),
    "blp": _blp,
    "f0": lambda ds, ctx, rec: f0_approximation(ds, ctx.es, ctx.c1),
    "bhat": _bhat,
}
ALL_METHODS = tuple(METHODS)
CUTOFFS = ("k_alpha", "k_beta", "k0")


@dataclass(frozen=True)
class ExperimentConfig:
    signal: SignalSpec
    epsilon: float
    n_coeff: int = 512
    grid_size: int = 513
    n_max: int = 64  # reconstruction expansions truncate here; the record keeps n_coeff
    seeds: tuple[int, ...] = (0,)
    methods: tuple[str, ...] = ALL_METHODS
    E_override: float | None = None
    c1_override: float | None = None
    dispersion_mode: str = "eps_over_sqrt3"
    noise_mode: str = "coefficient"
    output_dir: str | None = None
    name: str = "experiment"

    def __post_init__(self):
        if not (np.isfinite(self.epsilon) and self.epsilon >= 0):
            raise ValueError(f"epsilon must be finite and >= 0, got {self.epsilon}")
        for name in ("E_override", "c1_override"):
            value = getattr(self, name)
            if value is not None and not (np.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be None or finite and > 0, got {value}")
        if self.grid_size < 65 or self.grid_size % 2 == 0:
            raise ValueError("grid_size must be odd and >= 65")
        if self.n_coeff < 1 or self.n_max < 1:
            raise ValueError("n_coeff and n_max must be >= 1")
        if not self.seeds:
            raise ValueError("seeds must be nonempty")
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        bad = set(self.methods) - set(ALL_METHODS)
        if bad:
            raise ValueError(f"unknown methods {sorted(bad)}; choose from {ALL_METHODS}")
        if self.dispersion_mode not in ("eps_over_sqrt3", "eps"):
            raise ValueError("dispersion_mode must be 'eps_over_sqrt3' or 'eps'")
        if self.noise_mode not in ("coefficient", "pointwise"):
            raise ValueError("noise_mode must be 'coefficient' or 'pointwise'")

    @staticmethod
    def seed_range(base_seed: int, count: int) -> tuple[int, ...]:
        return tuple(range(base_seed, base_seed + count))

    def dispersion(self) -> float:
        if self.dispersion_mode == "eps":
            return self.epsilon
        return noise_dispersion(self.epsilon)

    def to_json_dict(self) -> dict:
        # output_dir is a runtime destination, not part of the experiment
        # identity: leaving it out keeps outputs byte-identical across
        # destinations and makes the config hash destination-free
        return {
            "name": self.name,
            "signal": self.signal.to_json_dict(),
            "epsilon": self.epsilon,
            "n_coeff": self.n_coeff,
            "grid_size": self.grid_size,
            "n_max": self.n_max,
            "seeds": list(self.seeds),
            "methods": list(self.methods),
            "E_override": self.E_override,
            "c1_override": self.c1_override,
            "dispersion_mode": self.dispersion_mode,
            "noise_mode": self.noise_mode,
        }

    @staticmethod
    def from_json_dict(d: dict) -> "ExperimentConfig":
        """Inverse of to_json_dict; absent keys take the field defaults."""
        unknown = sorted(set(d) - {f.name for f in fields(ExperimentConfig)})
        if unknown:
            raise ValueError(f"unknown ExperimentConfig keys {unknown}")
        # JSON gives lists and may give ints for floats: normalize the types
        # that the config hash sees
        convert = {
            "signal": SignalSpec.from_json_dict,
            "epsilon": float,
            "n_coeff": int,
            "grid_size": int,
            "n_max": int,
            "seeds": tuple,
            "methods": tuple,
        }
        return ExperimentConfig(**{k: convert.get(k, lambda v: v)(v) for k, v in d.items()})


def config_hash(cfg: ExperimentConfig) -> str:
    canonical = json.dumps(cfg.to_json_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def preset(name: str, seeds: Iterable[int] = (0,), output_dir: str | None = None) -> ExperimentConfig:
    """Figure-legend experiment configurations."""
    table = {
        "example1": (SignalSpec.named("f1"), 1e-4, 512),
        "example2": (SignalSpec.named("f2"), 3e-3, 512),
        "example3": (SignalSpec.named("f3"), 1e-3, 1024),
        "example4": (SignalSpec.named("f4"), 1e-4, 512),
    }
    if name not in table:
        raise ValueError(f"unknown preset {name!r}; choose from {sorted(table)}")
    signal, epsilon, n_coeff = table[name]
    return ExperimentConfig(
        signal=signal, epsilon=epsilon, n_coeff=n_coeff,
        seeds=tuple(seeds), output_dir=output_dir, name=name,
    )


PRESETS = ("example1", "example2", "example3", "example4")


@dataclass
class RunRecord:
    seed: int
    snr_db: float
    rel_l2: dict[str, float] = field(default_factory=dict)
    failures: dict[str, str] = field(default_factory=dict)
    k_alpha: int | None = None
    k_beta: int | None = None
    k0: int | None = None
    selection: SelectionReport | None = None
    # not serialized: outputs stay byte-deterministic; grids maps each method to its values on the grid
    wall_time_s: float = 0.0
    grids: dict[str, np.ndarray] = field(default_factory=dict, repr=False, compare=False)
    dataset: NoisyDataset | None = field(default=None, repr=False, compare=False)
    context: RunContext | None = field(default=None, repr=False, compare=False)

    def to_json_dict(self) -> dict:
        d = {
            "seed": self.seed,
            "snr_db": self.snr_db,
            "rel_l2": self.rel_l2,
            "failures": self.failures,
            "k_alpha": self.k_alpha,
            "k_beta": self.k_beta,
            "k0": self.k0,
        }
        if self.selection is not None:
            d["selection"] = self.selection.to_json_dict()
        return d


def run_context(cfg: ExperimentConfig) -> RunContext:
    """Grid, both eigensystems, the psi_k table, f, ||f||, g_k and g: once per run."""
    grid = simpson_grid(cfg.grid_size)
    data = signal_context(cfg.signal, analytic_eigensystem(cfg.n_coeff), grid, cfg.n_coeff)
    f_norm = grid.norm(data.f_vals)
    if f_norm == 0 and cfg.E_override is None:
        f_norm = 1.0  # zero signal: errors become absolute, bounds need overrides
    return RunContext(
        data=data,
        es=analytic_eigensystem(min(cfg.n_max, cfg.n_coeff)),
        f_norm=f_norm,
        E=cfg.E_override if cfg.E_override is not None else f_norm,
        # 1e-9 headroom: quadrature-level Parseval rounding must not truncate the
        # last in-budget component of a noiseless band-limited record
        c1=cfg.c1_override if cfg.c1_override is not None else f_norm**2 * (1.0 + 1e-9),
        d_eps=cfg.dispersion(),
    )


def run_experiment(cfg: ExperimentConfig) -> list[RunRecord]:
    """Deterministic batch: build the run context once, then per seed draw the
    noise, run each method and score its error on the grid.

    Per-method failures are recorded on the RunRecord, never fatal to the batch.
    """
    ctx = run_context(cfg)
    grid, f_vals = ctx.data.grid, ctx.data.f_vals
    base_snr = snr_db(ctx.data.g_coeffs, cfg.epsilon) if cfg.epsilon > 0 else float("inf")
    records = []
    for seed in cfg.seeds:
        t0 = time.perf_counter()
        ds = ctx.data.draw(cfg.epsilon, seed, cfg.noise_mode)
        record = RunRecord(seed=seed, snr_db=base_snr, dataset=ds, context=ctx)
        for name in cfg.methods:
            try:
                sol = METHODS[name](ds, ctx, record)
            except Exception as exc:
                record.failures[name] = f"{type(exc).__name__}: {exc}"
                continue
            for attr in CUTOFFS:
                if attr in sol.params:
                    setattr(record, attr, int(sol.params[attr]))
            record.grids[name] = sol.to_grid(ctx.es, grid)
            record.rel_l2[name] = grid.norm(record.grids[name] - f_vals) / ctx.f_norm
        record.wall_time_s = time.perf_counter() - t0
        records.append(record)
    return records


def _median_iqr(values: list[float]) -> dict:
    arr = np.asarray(values, dtype=float)
    return {
        "n": int(arr.size),
        "median": float(np.median(arr)),
        "q25": float(np.percentile(arr, 25)),
        "q75": float(np.percentile(arr, 75)),
    }


def _modal(items: list[tuple]) -> tuple[tuple, float]:
    value, hits = Counter(items).most_common(1)[0]
    return value, hits / len(items)


def summarize(records: list[RunRecord] | list[dict], true_support: tuple[int, ...] | None = None) -> dict:
    """Per-method error statistics plus selection diagnostics for "bhat".

    Records may be RunRecords or their serialized form (the "records" of
    report.json); both give the same summary.
    """
    if not records:
        raise ValueError("summarize needs at least one record")
    rows = [r.to_json_dict() if isinstance(r, RunRecord) else r for r in records]
    methods: dict[str, list[float]] = {}
    for row in rows:
        for name, err in row["rel_l2"].items():
            methods.setdefault(name, []).append(err)
    out: dict = {
        "n_seeds": len(rows),
        "snr_db": rows[0]["snr_db"],
        "methods": {name: _median_iqr(vals) for name, vals in methods.items()},
    }
    cutoffs = {}
    for attr in CUTOFFS:
        vals = [row[attr] for row in rows if row[attr] is not None]
        if vals:
            cutoffs[attr] = _median_iqr([float(v) for v in vals])
    if cutoffs:
        out["cutoffs"] = cutoffs
    selections = [row["selection"] for row in rows if "selection" in row]
    if selections:
        modal_I, frac_I = _modal([tuple(s["I_k"]) for s in selections])
        modal_Q, frac_Q = _modal([tuple(s["Q"]) for s in selections])
        modal_n0, frac_n0 = _modal([(s["n0"],) for s in selections])
        sel = {
            "modal_I_k": list(modal_I),
            "modal_I_k_fraction": frac_I,
            "modal_Q": list(modal_Q),
            "modal_Q_fraction": frac_Q,
            "modal_n0": modal_n0[0],
            "modal_n0_fraction": frac_n0,
        }
        if true_support is not None:
            hits = sum(1 for s in selections if tuple(s["I_k"]) == tuple(true_support))
            sel["exact_support_fraction"] = hits / len(selections)
            sel["true_support"] = list(true_support)
        out["selection"] = sel
    return out


def emit_outputs(records: list[RunRecord], summary: dict, cfg: ExperimentConfig) -> list[Path]:
    """Write per-seed CSVs, summary and manifest JSON under cfg.output_dir.

    Every seed writes autocorr.csv / profile.csv / solutions.csv /
    coefficients.csv under seeds/<seed>/; the top-level files of those names
    are copies of the first seed's.
    The records must come from run_experiment: each carries its dataset, the
    run context it was drawn from and its methods' values on the grid.
    Returns the list of written paths (also recorded in manifest.json).
    """
    if cfg.output_dir is None:
        raise ValueError("config has no output_dir")
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    def target(path: Path) -> Path:
        written.append(path)
        return path

    def emit_seed(rec: RunRecord, into: Path) -> list[Path]:
        if rec.dataset is None or rec.context is None:
            raise ValueError(f"record for seed {rec.seed} has no dataset; emit records from run_experiment")
        into.mkdir(parents=True, exist_ok=True)
        first = len(written)
        write_coeffs_csv(str(target(into / "coefficients.csv")), rec.dataset.coeffs)
        cumulative_profile(rec.dataset, rec.context.data.es).write_csv(str(target(into / "profile.csv")))
        if rec.selection is not None:
            rec.selection.write_autocorr_csv(str(target(into / "autocorr.csv")))
        names = sorted(rec.grids)
        columns = [rec.context.data.grid.points, rec.context.data.f_vals, *(rec.grids[n] for n in names)]
        write_table(str(target(into / "solutions.csv")), ("x", "f_true", *names), *columns)
        return written[first:]

    for i, rec in enumerate(records):
        paths = emit_seed(rec, out_dir / "seeds" / str(rec.seed))
        if i == 0:
            for path in paths:
                shutil.copyfile(path, target(out_dir / path.name))

    report = {"config": cfg.to_json_dict(), "records": [r.to_json_dict() for r in records]}
    target(out_dir / "report.json").write_text(json.dumps(report, indent=2))
    target(out_dir / "summary.json").write_text(json.dumps(summary, indent=2))
    manifest = {
        "config": cfg.to_json_dict(),
        "config_hash": config_hash(cfg),
        "files": sorted(str(p.relative_to(out_dir)) for p in written),
    }
    target(out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2))
    return written
