"""Experiment runner: seeded Monte-Carlo batches over signals, noise, methods.

Presets example1..example4 encode the reference experiments (signal, noise
bound, record length); each run builds its seed-invariant context once,
draws a dataset per seed, applies the requested reconstruction methods, and
records relative L2 errors together with the cutoff indices and the
selection report.  An error is computed from the method's <= n_max
coefficients alone, with d = c - f_k:
  * a sine combination (f2, f3, SignalSpec.sines) has f_k = a_j / sqrt(2) in
    closed form, and its error is the exact L2 norm
    sqrt(|d|^2 + sum_{k>n} f_k^2) / ||f||, ||f||^2 = sum_j a_j^2 / 2;
  * any other signal (f1, f4, tabulated) is projected on the grid, and its
    error is the Simpson norm of the expansion minus f on the grid,
    sqrt(d^T G d - 2 d^T h + ||r||^2) / ||f||, where G is the Gram matrix of
    the psi_k rows under the weights and r = f - sum_k f_k psi_k.  That
    identity is exact algebra on any grid; it rounds differently from the
    grid sum, and the squared errors of the two agree to 1e-13 (relative
    beyond 1).
See _GramForm.  Only solutions.csv needs grid values: each method's to_grid
on the context's reconstruction eigensystem, whose psi_k on the grid are
read from the n x grid_size table of psi_1..psi_n, n = min(n_max, n_coeff):
the rows 1..K as a read-only view of it, any other rows by a gather.  That
table is built on its first read: the Gram form of a projected signal reads
it when the context is built, and a sine combination reads it the first
time a run emits.  No table of all n_coeff rows outlives the projection of
g_k; pointwise noise alone builds one, the record's, on its first read.
The context's tables (grid, eigensystems, psi_k tables, f, g_k and the
scoring form) depend only on the signal, n_coeff, grid_size and n_max, so repeated
calls on one signal share them: a process-wide cache holds the tables of the
last such key (one entry), its arrays are read-only, and it keeps them after
the call returns, until a call on another key replaces them.  The methods'
a priori bounds (E and the noise dispersion, and the flat variance profile
rho_k = E, nu_k = 1 of the best linear estimate) depend on the call's
epsilon and overrides as well, and each call builds them once for all its
seeds.

With an output_dir, run_experiment writes each seed's CSVs under
seeds/<seed>/ while that seed's dataset and grid values are live, so a record
keeps only what report.json serializes and the sha256 of each file it wrote;
emit_outputs then reads each seed file once, refuses one that is not what the
records' run wrote, writes the first seed's checked bytes to the top level
and writes the JSON files.  The x and f_true cells of solutions.csv are
formatted once per table-cache entry, by the first run on it that emits.
Outputs are plain CSV/JSON and byte-deterministic for a fixed config.
hashlib loads on the first digest (_sha256: config_hash and the seed files'
sha256), not on import; a run that draws noise loads it anyway, through
numpy.random.
"""

from __future__ import annotations

import functools
import json
import math
from collections import Counter
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Iterable

import numpy as np

from .eigensystem import (
    DEFAULT_GRID_SIZE, DEFAULT_N_MAX, EigenSystem, _finite_real, _integer, _rows, analytic_eigensystem, simpson_grid,
)
from .selection import SelectionReport, build_selection, reconstruct_bhat
from .spectral import cumulative_profile, f0_approximation
from .synthesis import (  # noqa: F401  synthesize_dataset stays importable from here
    SignalContext,
    SignalSpec,
    _sine_coeffs,
    add_noise,
    csv_cells,
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
class _GramForm:
    """The squared error of an expansion over psi_1..psi_n, from its coefficients alone.

    On the grid: with B the first n rows of the psi_k table, W the quadrature
    weights, f_k = B W f and r = f - B^T f_k, coefficients c over k = 1..n and
    d = c - f_k give

        ||B^T c - f||_W^2 = ||B^T d - r||_W^2 = d^T G d - 2 d^T h + ||r||_W^2,
        G = B W B^T,  h = B W r.

    That is exact algebra, so it holds on any grid, whether W makes the rows
    orthonormal or not, and costs O(n^2) instead of O(n x grid size).
    In exact L^2 (`exact`), where the psi_k are orthonormal and f_k are known,
    G is the identity and h = 0 (both None), and ||r||^2 = sum_{k>n} f_k^2.
    """

    f_k: np.ndarray
    gram: np.ndarray | None
    h: np.ndarray | None
    r_sq: float
    f_sq: float  # ||f||^2, the error of the empty expansion, and the square of ||f||

    @staticmethod
    def build(basis: np.ndarray, weights: np.ndarray, f_vals: np.ndarray) -> "_GramForm":
        """The form of the rows of basis (B) under weights (W); r_sq and f_sq are inf for a huge f."""
        weighted = basis * weights
        f_k = weighted @ f_vals
        r = f_vals - f_k @ basis
        with np.errstate(over="ignore"):
            r_sq, f_sq = float(np.sum(weights * r**2)), float(np.sum(weights * f_vals**2))
        return _GramForm(f_k=f_k, gram=weighted @ basis.T, h=weighted @ r, r_sq=r_sq, f_sq=f_sq)

    @staticmethod
    def exact(terms: tuple[tuple[float, int], ...], n: int) -> "_GramForm":
        """The exact L^2 form of f = sum_j a_j sin(k_j pi x) over psi_1..psi_n: ||f||^2 = sum_j a_j^2 / 2."""
        halves = [(k, a * a / 2.0) for a, k in terms]  # a float square past the range is inf, not an error
        r_sq, f_sq = sum(sq for k, sq in halves if k > n), sum(sq for _, sq in halves)
        return _GramForm(f_k=_sine_coeffs(terms, n), gram=None, h=None, r_sq=r_sq, f_sq=f_sq)

    def error_sq(self, indices: np.ndarray, values: np.ndarray) -> float:
        """||sum_i values[i] psi_{indices[i]} - f||^2 for distinct indices in 1..n."""
        if not indices.size:
            return self.f_sq  # exactly, so an empty expansion scores ||f|| / ||f|| = 1
        d = -self.f_k
        d[indices - 1] += values
        if self.gram is None:
            return float(d @ d) + self.r_sq
        # where W leaves the rows not orthonormal (2n >= grid size - 1), r is not small and an expansion
        # equal to f up to rounding cancels terms of size ||f||^2: the sum can round below zero
        return max(0.0, float(d @ (self.gram @ d) - 2.0 * (d @ self.h) + self.r_sq))


@dataclass(frozen=True)
class RunContext:
    """Seed-invariant half of a run, shared by its records; its arrays are read-only."""

    data: SignalContext  # grid, record eigensystem (k <= n_coeff), psi_k table (on first read), f, g_k
    # reconstruction basis, k <= n_max (coefficients beyond it are noise-dominated): on grid.points
    # its psi_k are read from the table-cache entry's n-row table, elsewhere data.es's
    es: EigenSystem
    f_norm: float
    cs: ConstraintSpec  # the a priori bounds of the variational filters: E and the noise dispersion
    c1: float
    vp: VarianceProfile  # the flat prior rho_k = E, nu_k = 1 of the best linear estimate
    _gram: _GramForm  # scores each method from its coefficients over es's k = 1..n
    # the seed-invariant x and f_true cells of solutions.csv: the table-cache entry's, filled by
    # the first run on these tables that emits, and dropped with the entry
    _cells: dict


def _bhat(ds, ctx, record):
    record.selection = build_selection(ds)
    return reconstruct_bhat(ds, ctx.es, record.selection)


# name -> fn(dataset, run context, record) -> RegularizedSolution; each cutoff
# (k_alpha, k_beta, k0) is reported through sol.params
METHODS = {
    "tikhonov_full": lambda ds, ctx, rec: tikhonov_full(ds, ctx.es, ctx.cs),
    "k_alpha": lambda ds, ctx, rec: truncated_k_alpha(ds, ctx.es, ctx.cs),
    "tikhonov_identity": lambda ds, ctx, rec: tikhonov_identity(ds, ctx.es, ctx.cs.E, ctx.cs.eps),
    "k_beta": lambda ds, ctx, rec: truncated_k_beta(ds, ctx.es, ctx.cs.E, ctx.cs.eps),
    "blp": lambda ds, ctx, rec: best_linear_estimate(ds, ctx.es, ctx.vp),
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
    grid_size: int = DEFAULT_GRID_SIZE
    n_max: int = DEFAULT_N_MAX  # reconstruction expansions truncate here; the record keeps n_coeff
    seeds: tuple[int, ...] = (0,)
    methods: tuple[str, ...] = ALL_METHODS
    E_override: float | None = None
    c1_override: float | None = None
    dispersion_mode: str = "eps_over_sqrt3"
    noise_mode: str = "coefficient"
    output_dir: str | None = None
    name: str = "experiment"

    def __post_init__(self):
        # stored as floats: an np.float32 serializes, and an int hashes, as its JSON round trip does
        object.__setattr__(self, "epsilon", _finite_real(self.epsilon, "epsilon"))
        for name in ("E_override", "c1_override"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, _finite_real(getattr(self, name), name, positive=True))
        variance = self.epsilon * self.epsilon / 3.0
        if self.epsilon > 0 and not np.finfo(float).smallest_normal <= variance < np.inf:
            raise ValueError(
                f"epsilon = {self.epsilon!r} is out of range: its noise variance epsilon^2/3 = {variance!r} "
                "is not a normal float"
            )
        for name, least in (("grid_size", 65), ("n_coeff", 1), ("n_max", 1)):
            # stored as an int: an np.int64 serializes, and hashes, as the int
            object.__setattr__(self, name, _integer(getattr(self, name), name, least))
        if self.grid_size % 2 == 0:
            raise ValueError(f"grid_size must be odd, got {self.grid_size}")
        if not self.seeds:
            raise ValueError("seeds must be nonempty")
        # numpy's generators refuse a negative seed, with a message that names neither it nor the argument
        object.__setattr__(self, "seeds", tuple(_integer(s, f"seeds[{i}]", 0) for i, s in enumerate(self.seeds)))
        if not self.methods:
            raise ValueError(f"methods must be nonempty; choose from {ALL_METHODS}")
        bad = set(self.methods) - set(ALL_METHODS)
        if bad:
            raise ValueError(f"unknown methods {sorted(bad)}; choose from {ALL_METHODS}")
        for name in ("seeds", "methods"):
            # a repeated seed lists one draw twice in the manifest and the summary; a repeated method runs twice
            values = getattr(self, name)
            if len(set(values)) < len(values):
                repeated = next(v for i, v in enumerate(values) if v in values[:i])
                raise ValueError(f"{name} must be distinct, got {repeated!r} more than once")
        if self.dispersion_mode not in ("eps_over_sqrt3", "eps"):
            raise ValueError("dispersion_mode must be 'eps_over_sqrt3' or 'eps'")
        if self.noise_mode not in ("coefficient", "pointwise"):
            raise ValueError("noise_mode must be 'coefficient' or 'pointwise'")

    @staticmethod
    def seed_range(base_seed: int, count: int) -> tuple[int, ...]:
        return tuple(range(_integer(base_seed, "base_seed", 0), base_seed + _integer(count, "count", 0)))

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
        # that the config hash sees (integer fields are checked, not converted)
        convert = {
            "signal": SignalSpec.from_json_dict,
            "seeds": tuple,
            "methods": tuple,
        }
        return ExperimentConfig(**{k: convert.get(k, lambda v: v)(v) for k, v in d.items()})


def config_hash(cfg: ExperimentConfig) -> str:
    canonical = json.dumps(cfg.to_json_dict(), sort_keys=True, separators=(",", ":"))
    return _sha256(canonical.encode())


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
    snr_db: float | None  # None without a finite ratio: epsilon = 0 or a zero record
    rel_l2: dict[str, float] = field(default_factory=dict)
    failures: dict[str, str] = field(default_factory=dict)
    k_alpha: int | None = None
    k_beta: int | None = None
    k0: int | None = None
    selection: SelectionReport | None = None
    # not serialized: file name -> sha256 of the text run_experiment wrote to this record's seeds/<seed>/
    seed_sha256: dict[str, str] = field(default_factory=dict, init=False, compare=False)

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


# The one entry of the process-wide cache: (signal JSON, n_coeff, grid_size,
# n_max) -> the read-only (data, es, gram) of run_context and the dict of
# solutions.csv's x and f_true cells, empty until a run on it emits.  It is
# emptied before a miss builds, so two entries never coexist, but the last
# key's tables outlive the call until a call on another key replaces them.
# Its psi_k tables (8 bytes a value) are each built on their first read:
# psi_1..psi_n, n = min(n_max, n_coeff), on the grid (n x grid_size), by a
# projected signal's Gram form or by emission's to_grid, and the record's
# n_coeff x grid_size data.basis by pointwise noise alone.
_TABLES: dict = {}


def _seed_invariant_tables(cfg: ExperimentConfig) -> tuple[SignalContext, EigenSystem, _GramForm, dict]:
    """The grid, both eigensystems, f, g_k and the scoring form of cfg, built on a miss.

    A sine combination takes f_k in closed form and scores in exact L^2, so
    no psi_k table is built until a read needs one; any other signal projects
    f on the grid through a transient table and scores on the grid through
    the n-row table.
    """
    signal = json.dumps(cfg.signal.to_json_dict(), sort_keys=True, separators=(",", ":"))
    key = (signal, cfg.n_coeff, cfg.grid_size, cfg.n_max)
    tables = _TABLES.get(key)
    if tables is None:
        _TABLES.clear()
        grid = simpson_grid(cfg.grid_size)
        spec = cfg.signal
        if spec.values is not None:  # a grid-tabulated f is the caller's own array: tabulate a copy of it
            spec = SignalSpec.tabulated(np.array(spec.values))
        data = signal_context(spec, analytic_eigensystem(cfg.n_coeff), grid, cfg.n_coeff)
        n = min(cfg.n_max, cfg.n_coeff)

        @functools.cache
        def rows() -> np.ndarray:
            """psi_1..psi_n on the grid, read-only, built on the first read."""
            table = data.es.basis_matrix(grid.points, n)
            table.flags.writeable = False
            return table

        frozen = [grid.points, grid.weights, data.es.eigenvalues, data.f_vals, data.g_coeffs]
        if data._exact_terms is None:
            gram = _GramForm.build(rows(), grid.weights, data.f_vals)
            frozen += [gram.gram, gram.h]
        else:
            gram = _GramForm.exact(data._exact_terms, n)
        for a in (*frozen, gram.f_k):
            a.flags.writeable = False
        # psi_k depends on k and x alone, so on the grid's own points the
        # reconstruction basis is the n-row table's rows (a view of the rows
        # 1..K, a gather of any other); anywhere else it is the record eigensystem's
        es = EigenSystem(
            eigenvalues=data.es.eigenvalues[:n],  # a view, read-only as its base
            evaluator=lambda ks, x: _rows(rows(), ks) if x is grid.points else data.es.evaluator(ks, x),
        )
        tables = _TABLES[key] = (data, es, gram, {})
    return tables


def run_context(cfg: ExperimentConfig) -> RunContext:
    """Grid, both eigensystems, f, ||f||, g_k, the scoring form and the methods' bounds.

    The tables depend only on the signal, n_coeff, grid_size and n_max: calls
    that share them share one read-only copy (see _TABLES), so the arrays of
    the returned context are read-only and shared; the scalars, the bounds
    and the flat variance profile are built per call, once for all its seeds.
    A signal whose ||f||^2 is not finite is refused: C1 and every score square ||f||.
    So is a nonzero signal whose ||f||^2 is below the smallest normal float:
    its squares have lost their digits, or all of them (which would read as
    the zero signal's fallback ||f|| = 1).
    """
    data, es, gram, cells = _seed_invariant_tables(cfg)
    if not math.isfinite(gram.f_sq):
        raise ValueError(
            f"signal norm ||f|| = {data.grid.norm(data.f_vals)!r} is too large: ||f||^2 must be finite"
        )
    if gram.f_sq < np.finfo(float).smallest_normal and np.any(data.f_vals):
        raise ValueError(
            f"signal norm ||f|| = {data.grid.norm(data.f_vals)!r} is too small: ||f||^2 must be a normal float"
        )
    f_norm = math.sqrt(gram.f_sq)
    if f_norm == 0 and cfg.E_override is None:
        f_norm = 1.0  # zero signal: errors become absolute, bounds need overrides
    cs = ConstraintSpec(E=cfg.E_override if cfg.E_override is not None else f_norm, eps=cfg.dispersion())
    return RunContext(
        data=data,
        es=es,
        f_norm=f_norm,
        cs=cs,
        # 1e-9 headroom: quadrature-level Parseval rounding must not truncate the
        # last in-budget component of a noiseless band-limited record
        c1=cfg.c1_override if cfg.c1_override is not None else f_norm**2 * (1.0 + 1e-9),
        # read-only views: no record can change the profile the next one reads
        vp=VarianceProfile(rho=np.broadcast_to(cs.E, es.count), nu=np.broadcast_to(1.0, es.count), eps=cs.eps),
        _gram=gram,
        _cells=cells,
    )


def _sha256(data: bytes) -> str:
    import hashlib  # here, not at module level: loading it maps OpenSSL's libcrypto into every process

    return hashlib.sha256(data).hexdigest()


def _read_file(path: Path) -> bytes | None:
    """The bytes of the regular file at path, or None where there is none."""
    try:
        return path.read_bytes()
    except OSError:
        if path.is_file():
            raise
        return None


def _seed_files(out_dir: Path, rec: RunRecord) -> list[Path]:
    """The CSVs of one record under seeds/<seed>/; autocorr.csv only with a selection."""
    into = out_dir / "seeds" / str(rec.seed)
    names = ("coefficients.csv", "profile.csv", "autocorr.csv", "solutions.csv")
    return [into / name for name in names if name != "autocorr.csv" or rec.selection is not None]


def run_experiment(cfg: ExperimentConfig) -> list[RunRecord]:
    """Deterministic batch: build the run context once, then per seed draw the
    noise, run each method and score its error from its coefficients.

    With cfg.output_dir set, each seed's CSVs are written under seeds/<seed>/
    before the next seed is drawn.  Per-method failures are recorded on the
    RunRecord, never fatal to the batch.
    """
    ctx = run_context(cfg)
    grid, f_vals = ctx.data.grid, ctx.data.f_vals
    try:
        base_snr = snr_db(ctx.data.g_coeffs, cfg.epsilon)
    except ValueError:  # epsilon = 0 or a zero record
        base_snr = None
    if cfg.output_dir is not None and not ctx._cells:
        ctx._cells.update(x=tuple(csv_cells(grid.points)), f_true=tuple(csv_cells(f_vals)))
    records = []
    for seed in cfg.seeds:
        ds = add_noise(ctx.data, cfg.epsilon, seed, cfg.noise_mode)
        record = RunRecord(seed=seed, snr_db=base_snr)
        grids = {}  # method -> its values on the grid, for solutions.csv
        for name in cfg.methods:
            try:
                sol = METHODS[name](ds, ctx, record)
            except Exception as exc:
                record.failures[name] = f"{type(exc).__name__}: {exc}"
                continue
            for attr in CUTOFFS:
                if attr in sol.params:
                    setattr(record, attr, int(sol.params[attr]))
            ctx.es._check_index(sol.indices)
            record.rel_l2[name] = math.sqrt(ctx._gram.error_sq(sol.indices, sol.values)) / ctx.f_norm
            if cfg.output_dir is not None:
                grids[name] = sol.to_grid(ctx.es, grid)
        if cfg.output_dir is not None:
            coeffs_csv, profile_csv, *autocorr_csv, solutions_csv = _seed_files(Path(cfg.output_dir), record)
            coeffs_csv.parent.mkdir(parents=True, exist_ok=True)
            texts = {
                coeffs_csv: write_coeffs_csv(str(coeffs_csv), ds.coeffs),
                profile_csv: cumulative_profile(ds, ctx.data.es).write_csv(str(profile_csv)),
            }
            for path in autocorr_csv:
                texts[path] = record.selection.write_autocorr_csv(str(path), ds.coeffs)
            names = sorted(grids)
            texts[solutions_csv] = write_table(
                str(solutions_csv), ("x", "f_true", *names), ctx._cells["x"], ctx._cells["f_true"],
                *(grids[n] for n in names),
            )
            record.seed_sha256 = {path.name: _sha256(text.encode()) for path, text in texts.items()}
        records.append(record)
    return records


def _median_iqr(values: list[float]) -> dict:
    """The count, np.median and the quartiles np.percentile(values, [25, 75]) gives, from one sorted list.

    np.percentile reaches np.unique, which loads numpy.ma; this reads the
    same floats without numpy, by numpy's arithmetic: NaN anywhere gives NaN,
    the median is the mean of the middle one or two values, summed from +0.0
    as np.mean sums, and each quartile is _linear_quantile's.
    """
    ordered = sorted(map(float, values))
    n = len(ordered)
    if any(math.isnan(v) for v in ordered):
        return {"n": n, "median": math.nan, "q25": math.nan, "q75": math.nan}
    half = n // 2
    median = 0.0 + ordered[half] if n % 2 else (0.0 + ordered[half - 1] + ordered[half]) / 2
    return {"n": n, "median": median, "q25": _linear_quantile(ordered, 0.25), "q75": _linear_quantile(ordered, 0.75)}


def _linear_quantile(ordered: list[float], q: float) -> float:
    """np.percentile's default (linear) method at q of a sorted nonempty list, rounding as numpy's _lerp.

    The virtual index (n - 1) q lies between neighbours a and b; at or past the
    last index both are the last value, with the weight t counted from index
    -1 (so t = 1 for one value), as numpy's _get_indexes leaves them.  _lerp
    returns a + (b - a) t, or b - (b - a) (1 - t) where t >= 0.5.
    """
    n = len(ordered)
    virtual = (n - 1) * q
    lo = math.floor(virtual) if virtual < n - 1 else -1
    hi = lo + 1 if lo >= 0 else -1
    t = virtual - lo
    a, b = ordered[lo], ordered[hi]
    diff = b - a
    return b - diff * (1 - t) if t >= 0.5 else a + diff * t


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
    """Write the first seed's CSVs to the top level of cfg.output_dir, and
    report.json, summary.json and manifest.json there.

    run_experiment(cfg) has already written every seed's autocorr.csv /
    profile.csv / solutions.csv / coefficients.csv under seeds/<seed>/.
    Before any file is written, each record's seed files are checked: one
    that is not there raises FileNotFoundError naming it, and one whose bytes
    are not the text the record's run wrote (by sha256) raises ValueError
    naming the seed and the file: the records came from a run without this
    output_dir, beside an earlier run's files, or a later run rewrote the
    directory.  Each seed file is read once: the top-level copies are the
    first record's checked bytes.  Returns the list of written paths, seed
    files included (also recorded in manifest.json).
    """
    if cfg.output_dir is None:
        raise ValueError("config has no output_dir")
    out_dir = Path(cfg.output_dir)
    seed_files = [_seed_files(out_dir, rec) for rec in records]
    first = []  # the first record's (path, bytes): the bytes checked are the bytes copied
    for rec, paths in zip(records, seed_files):
        contents = [_read_file(path) for path in paths]
        missing = [path for path, data in zip(paths, contents) if data is None]
        if missing:
            raise FileNotFoundError(f"{missing[0]} was not written: run_experiment writes it when cfg.output_dir is set")
        for path, data in zip(paths, contents):
            if _sha256(data) != rec.seed_sha256.get(path.name):
                raise ValueError(
                    f"seed {rec.seed}: {path} holds text this record's run did not write; run_experiment "
                    "writes it when cfg.output_dir is set, and a later run into the same directory replaces it"
                )
        if not first:
            first = list(zip(paths, contents))
    written = [path for paths in seed_files for path in paths]
    for path, data in first:
        (out_dir / path.name).write_bytes(data)
        written.append(out_dir / path.name)

    report = {"config": cfg.to_json_dict(), "records": [r.to_json_dict() for r in records]}
    (out_dir / "report.json").write_text(json.dumps(report, indent=2, allow_nan=False))
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2, allow_nan=False))
    written += [out_dir / "report.json", out_dir / "summary.json"]
    manifest = {
        "config": cfg.to_json_dict(),
        "config_hash": config_hash(cfg),
        "files": sorted(str(p.relative_to(out_dir)) for p in written),
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, allow_nan=False))
    return written + [out_dir / "manifest.json"]
