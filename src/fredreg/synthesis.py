"""Test signals, forward data g = Af, and seeded noisy datasets.

The data record handed to every regularizer is the coefficient sequence
gbar_k = (gbar, psi_k), k = 1..N.  The noiseless g_k = lam_k (f, psi_k) are
exact for a sine combination on the sines psi_k = sqrt(2) sin(k pi x), and
a Simpson projection through the psi_k table otherwise.  Noise is uniform
on [-eps, eps] from a seeded PCG64 generator (numpy default_rng) and can be
injected in two ways:

  * "coefficient" (default): gbar_k = g_k + u_k with i.i.d. u_k.  This is the
    model whose signal-to-noise ratios and selection behavior match the
    reference experiments; the per-coefficient bound |gbar_k - g_k| <= eps
    holds by construction.
  * "pointwise": gbar(x_i) = g(x_i) + u_i on the grid, coefficients by
    quadrature projection.  Here sup|gbar - g| <= eps on the grid, but the
    projected coefficient noise shrinks with the grid spacing (~eps*sqrt(h))
    and high-order projections alias once k approaches the grid Nyquist
    index, so keep n_coeff well below grid_size in this mode.
"""

from __future__ import annotations

import functools
import math
from dataclasses import KW_ONLY, dataclass, field
from typing import Sequence

import numpy as np

from .eigensystem import (
    EigenSystem, QuadratureGrid, _expansion_sum, _finite_real, _finite_reals, _integer, _sine_evaluator, project_all,
)

__all__ = [
    "SignalSpec",
    "NoisyDataset",
    "NAMED_SIGNALS",
    "evaluate_signal",
    "forward_coeffs",
    "add_noise",
    "SignalContext",
    "signal_context",
    "synthesize_dataset",
    "snr_db",
    "noise_dispersion",
    "write_coeffs_csv",
    "read_coeffs_csv",
    "csv_cells",
    "write_table",
]

NAMED_SIGNALS = ("f1", "f2", "f3", "f4")

# The figure-legend examples that are sine combinations: (a_j, k_j) terms of sum a_j sin(k_j pi x).
_SINE_TERMS = {
    "f2": ((5.0, 3), (10.0, 7), (15.0, 13)),
    "f3": ((17.0, 5), (23.0, 9), (27.0, 13), (33.0, 17), (43.0, 18),
           (55.0, 23), (68.0, 24), (70.0, 25), (77.0, 31), (81.0, 33)),
}


def _sine_terms(spec: SignalSpec) -> tuple[tuple[float, int], ...] | None:
    """The (amplitude, index) terms of a sine combination, named or not, else None."""
    if spec.kind == "sine-combination":
        return spec.terms
    if spec.kind == "named-example":
        return _SINE_TERMS.get(spec.name)
    return None


@dataclass(frozen=True)
class SignalSpec:
    """A test signal: a named example, a sine combination, or grid samples.

    kind "named-example": name in {f1..f4}.
    kind "sine-combination": terms = [(a_j, k_j)] meaning sum a_j sin(k_j pi x).
    kind "grid-tabulated": values sampled on the experiment grid.
    """

    kind: str
    name: str | None = None
    terms: tuple[tuple[float, int], ...] | None = None
    values: np.ndarray | None = None

    def __post_init__(self):
        if self.kind == "named-example":
            if self.name not in NAMED_SIGNALS:
                raise ValueError(f"unknown named signal {self.name!r}")
        elif self.kind == "sine-combination":
            if not self.terms:
                raise ValueError("sine-combination needs at least one (amplitude, index) term")
            terms = tuple(
                (_finite_real(a, "sine amplitude", signed=True), _integer(k, "sine index", 1)) for a, k in self.terms
            )
            object.__setattr__(self, "terms", terms)
            ks = [k for _, k in terms]
            if len(set(ks)) != len(ks):
                raise ValueError(f"sine indices must be distinct, got {ks}")
        elif self.kind == "grid-tabulated":
            if self.values is None:
                raise ValueError("grid-tabulated signal needs values")
            values = np.asarray(self.values, dtype=float)
            object.__setattr__(self, "values", values)
            bad = np.flatnonzero(~np.isfinite(values))
            if bad.size:
                i = bad[0]
                raise ValueError(f"tabulated signal value {i} is {float(values.flat[i])}; values must be finite")
        else:
            raise ValueError(f"unknown signal kind {self.kind!r}")

    @staticmethod
    def named(name: str) -> "SignalSpec":
        return SignalSpec(kind="named-example", name=name)

    @staticmethod
    def sines(terms: Sequence[tuple[float, int]]) -> "SignalSpec":
        return SignalSpec(kind="sine-combination", terms=tuple(terms))

    @staticmethod
    def tabulated(values: np.ndarray) -> "SignalSpec":
        return SignalSpec(kind="grid-tabulated", values=values)

    def support(self) -> tuple[int, ...] | None:
        """Exact coefficient support when the signal is band-limited, else None."""
        terms = _sine_terms(self)
        return None if terms is None else tuple(sorted(k for _, k in terms))

    def to_json_dict(self) -> dict:
        if self.kind == "named-example":
            return {"kind": self.kind, "name": self.name}
        if self.kind == "sine-combination":
            return {"kind": self.kind, "terms": [[a, k] for a, k in self.terms]}
        return {"kind": self.kind, "values": self.values.tolist()}

    @staticmethod
    def from_json_dict(d: dict) -> "SignalSpec":
        kind = d["kind"]
        if kind == "named-example":
            return SignalSpec.named(d["name"])
        if kind == "sine-combination":
            return SignalSpec.sines([(a, k) for a, k in d["terms"]])
        return SignalSpec.tabulated(np.asarray(d["values"], dtype=float))


def evaluate_signal(spec: SignalSpec, grid: QuadratureGrid) -> np.ndarray:
    x = grid.points
    terms = _sine_terms(spec)
    if terms is not None:
        # one (K, M) table sin((k_j pi) x), filled in place and summed as the loop `out += a_j * sin(k_j * pi * x)`
        table = np.outer([k * np.pi for _, k in terms], x)
        np.sin(table, out=table)
        return _expansion_sum([a for a, _ in terms], table)
    if spec.name == "f1":
        return (1.0 - x) * np.sin(3.0 * np.sin(3.0 * x))
    if spec.name == "f4":
        return (1.0 - x) * np.sin(5.0 * np.sin(12.0 * x))
    if spec.values.shape != x.shape:
        raise ValueError("tabulated signal does not match the grid")
    return spec.values


def _record(coeffs) -> np.ndarray:
    """The coefficient record as a 1-D float array; any other shape raises, naming it."""
    g = np.asarray(coeffs, dtype=float)
    if g.ndim != 1:
        raise ValueError(f"coefficient record must be 1-D, got shape {g.shape}")
    return g


@dataclass(frozen=True)
class NoisyDataset:
    """Noisy data record: the coefficients gbar_k, k = 1..n_coeff, as a finite 1-D array."""

    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _record(_finite_reals(self.coeffs, "coeffs", signed=True)))

    @property
    def n_coeff(self) -> int:
        return self.coeffs.size


def forward_coeffs(
    f: np.ndarray, es: EigenSystem, grid: QuadratureGrid, upto: int | None = None
) -> np.ndarray:
    """Coefficients of g = Af: g_k = lam_k (f, psi_k)."""
    upto = es.count if upto is None else upto
    f_k = project_all(f, es, grid, upto)
    return es.eigenvalues[:upto] * f_k


@dataclass(frozen=True)
class SignalContext:
    """Seed-invariant half of the noise model gbar_k = g_k + u_k, g_k = lam_k f_k.

    Built once per signal, eigensystem, grid and record length n_coeff:
    `g_coeffs` holds the noiseless g_k, and `basis` the table psi_k(x_i) (row
    k-1, k = 1..n_coeff), tabulated on its first read and read-only; repr and
    == leave it out, so they do not build it.  In a run only pointwise noise
    reads it: `signal_context` projects g_k through a table of its own and
    leaves this one out.  Only the noise depends on the seed: `add_noise`
    draws it.
    """

    grid: QuadratureGrid
    es: EigenSystem
    _: KW_ONLY
    f_vals: np.ndarray
    g_coeffs: np.ndarray
    # the (a_j, k_j) of a sine combination whose g_k took the closed form, None where g_k were projected
    _exact_terms: tuple[tuple[float, int], ...] | None = field(default=None, repr=False)

    @functools.cached_property
    def basis(self) -> np.ndarray:
        table = self.es.basis_matrix(self.grid.points, self.g_coeffs.size)
        table.flags.writeable = False
        return table


def _sine_coeffs(terms: tuple[tuple[float, int], ...], n: int) -> np.ndarray:
    """f_k = (f, psi_k), k = 1..n, of f = sum_j a_j sin(k_j pi x) on psi_k = sqrt(2) sin(k pi x).

    That is a_j / sqrt(2) at k = k_j and 0 elsewhere.
    """
    f_k = np.zeros(n)
    for a, k in terms:
        if k <= n:
            f_k[k - 1] = a / np.sqrt(2.0)
    return f_k


def signal_context(
    signal: SignalSpec, es: EigenSystem, grid: QuadratureGrid, n_coeff: int
) -> SignalContext:
    """Evaluate f and apply the operator: g_k, k = 1..n_coeff.

    A sine combination on the sine eigenfunctions takes f_k in closed form;
    any other signal or eigensystem projects f on the grid through a psi_k
    table that is dropped on return.  Either way the context's table is left
    to its first read.
    """
    es._check_index(_integer(n_coeff, "n_coeff", 1))  # IndexError beyond es.count
    terms = _sine_terms(signal) if es.evaluator is _sine_evaluator else None
    f_vals = evaluate_signal(signal, grid)
    if terms is not None:
        g_coeffs = es.eigenvalues[:n_coeff] * _sine_coeffs(terms, n_coeff)
    else:
        g_coeffs = es.eigenvalues[:n_coeff] * project_all(f_vals, es, grid, n_coeff)
    return SignalContext(grid=grid, es=es, f_vals=f_vals, g_coeffs=g_coeffs, _exact_terms=terms)


def add_noise(
    ctx: SignalContext, epsilon: float, seed: int, noise_mode: str = "coefficient"
) -> NoisyDataset:
    """Draw one seed of uniform noise on [-eps, eps] onto the noiseless record of ctx.

    In coefficient mode the noise enters the coefficients g_k directly; in
    pointwise mode it enters g on the grid (g_k summed over psi_k below the
    grid Nyquist index), which is then projected.
    """
    noise_dispersion(epsilon)  # rejects an epsilon that is not a finite real number >= 0
    g_coeffs, grid = ctx.g_coeffs, ctx.grid
    # numpy's default_rng draws seed 1 for True and refuses 2.5 or np.float64(3.0) with a TypeError naming no argument
    rng = np.random.default_rng(_integer(seed, "seed", 0))
    if noise_mode == "coefficient":
        coeffs = g_coeffs + rng.uniform(-epsilon, epsilon, g_coeffs.size)
    elif noise_mode == "pointwise":
        basis = ctx.basis
        upto = min(g_coeffs.size, grid.size - 2)
        g_bar = g_coeffs[:upto] @ basis[:upto] + rng.uniform(-epsilon, epsilon, grid.size)
        coeffs = basis @ (grid.weights * g_bar)
    else:
        raise ValueError(f"unknown noise_mode {noise_mode!r}")
    return NoisyDataset(coeffs=coeffs)


def synthesize_dataset(
    signal: SignalSpec,
    es: EigenSystem,
    grid: QuadratureGrid,
    epsilon: float,
    seed: int,
    n_coeff: int,
    noise_mode: str = "coefficient",
) -> tuple[NoisyDataset, np.ndarray, np.ndarray]:
    """Full pipeline for one seed: build the signal context, then draw the noise.

    Returns (dataset, f_values, g_coeffs); g_coeffs are the noiseless
    coefficients g_k = lam_k f_k for k = 1..n_coeff.  For many seeds of one
    signal, build `signal_context` once and call `add_noise` on it per seed.
    """
    ctx = signal_context(signal, es, grid, n_coeff)
    return add_noise(ctx, epsilon, seed, noise_mode), ctx.f_vals, ctx.g_coeffs


def snr_db(g: np.ndarray, epsilon: float) -> float:
    """10 log10 of mean power of the noiseless record over the noise variance eps^2/3.

    `g` is the noiseless data record the noise is injected into; for the
    standard coefficient-noise experiments that is the coefficient sequence
    {g_k}, matching the reported figure-legend values.  Its entries are
    finite reals (a bool, a str or a non-finite entry raises, naming g).  A
    record of zero power (all zero) has no finite ratio and raises, as
    epsilon <= 0 does, and so does an epsilon whose eps^2/3 underflows to
    zero or makes the ratio overflow or underflow.
    """
    epsilon = _finite_real(epsilon, "epsilon", positive=True)
    power = np.mean(_finite_reals(g, "g", signed=True) ** 2)
    if power == 0:
        raise ValueError("snr_db needs a record of nonzero power")
    variance = epsilon * epsilon / 3.0
    with np.errstate(divide="ignore", over="ignore"):
        db = 10.0 * np.log10(power / variance)
    if not np.isfinite(db):
        raise ValueError(f"snr_db has no finite ratio at epsilon = {epsilon!r} (eps^2/3 = {variance!r})")
    return float(db)


def noise_dispersion(epsilon: float) -> float:
    """Standard deviation eps/sqrt(3) of uniform noise on [-eps, eps]."""
    return _finite_real(epsilon, "epsilon") / np.sqrt(3.0)


def write_coeffs_csv(path: str, coeffs: np.ndarray) -> str:
    return write_table(path, ("k", "g_bar_k"), _index_cells(len(coeffs)), np.asarray(coeffs, dtype=float))


def read_coeffs_csv(path: str) -> np.ndarray:
    with open(path, newline="") as fh:
        header = fh.readline().strip().lower().replace(" ", "")
        if header != "k,g_bar_k":
            raise ValueError(f"{path}: expected header 'k,g_bar_k', got {header!r}")
        vals = []
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            try:
                k, c = line.split(",")
                k, c = int(k), float(c)
            except ValueError:  # a row of one or three cells, a k that is not an integer, a g_bar_k not a number
                raise ValueError(
                    f"{path}, line {lineno}: expected a row 'k,g_bar_k' of an integer and a number, got {line!r}"
                ) from None
            if k != len(vals) + 1:
                raise ValueError(f"{path}, line {lineno}: expected k={len(vals) + 1}, got k={k}")
            if not math.isfinite(c):
                raise ValueError(f"{path}, line {lineno}: g_bar_k must be finite, got {c!r}")
            vals.append(c)
    return np.asarray(vals)


def csv_cells(column, i: int = 0) -> list[str]:
    """The CSV cells of a 1-D column of numbers; a column that is not 1-D raises, naming it column i.

    Each cell is the repr of a Python int or float: a numeric array converts
    as a whole, and a numpy scalar in an object column (one holding None) by
    its .item(), so the digits round-trip; None is an empty cell.
    """
    col = np.asarray(column)
    if col.ndim != 1:
        raise ValueError(f"column {i} must be 1-D, got shape {col.shape}")
    if col.dtype != object:
        return list(map(repr, col.tolist()))
    return ["" if v is None else repr(v.item() if isinstance(v, np.generic) else v) for v in col.tolist()]


@functools.lru_cache(maxsize=16)
def _index_cells(n: int) -> tuple[str, ...]:
    """The cells 1..n of an index column (k of coefficients.csv, m of profile.csv), formatted once per n."""
    return tuple(csv_cells(range(1, n + 1)))


def write_table(path: str, header: Sequence[str], *columns) -> str:
    """CSV of equal-length columns, one row per line; returns the text written.

    A column is numbers, formatted by csv_cells, or a list or tuple of str
    cells (a column formatted once for many tables), written verbatim.
    """
    cells = [
        col if isinstance(col, (list, tuple)) and col and isinstance(col[0], str) else csv_cells(col, i)
        for i, col in enumerate(columns)
    ]
    text = "\n".join([",".join(header), *map(",".join, zip(*cells, strict=True)), ""])
    with open(path, "w", newline="") as fh:
        fh.write(text)
    return text
