"""Test signals, forward data g = Af, and seeded noisy datasets.

The data record handed to every regularizer is the coefficient sequence
gbar_k = (gbar, psi_k), k = 1..N.  Noise is uniform on [-eps, eps] from a
seeded PCG64 generator (numpy default_rng) and can be injected in two ways:

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

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .eigensystem import EigenSystem, QuadratureGrid, project_all

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
    "write_table",
]

# Figure-legend example signals.
_F3_AMPLITUDES = (17.0, 23.0, 27.0, 33.0, 43.0, 55.0, 68.0, 70.0, 77.0, 81.0)
_F3_INDICES = (5, 9, 13, 17, 18, 23, 24, 25, 31, 33)

NAMED_SIGNALS = ("f1", "f2", "f3", "f4")


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
            terms = tuple((float(a), int(k)) for a, k in self.terms)
            object.__setattr__(self, "terms", terms)
            ks = [k for _, k in terms]
            if any(k < 1 for k in ks) or len(set(ks)) != len(ks):
                raise ValueError("sine indices must be distinct integers >= 1")
            if not all(np.isfinite(a) for a, _ in terms):
                raise ValueError("sine amplitudes must be finite")
        elif self.kind == "grid-tabulated":
            if self.values is None:
                raise ValueError("grid-tabulated signal needs values")
            object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
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
        if self.kind == "sine-combination":
            return tuple(sorted(k for _, k in self.terms))
        if self.kind == "named-example" and self.name == "f2":
            return (3, 7, 13)
        if self.kind == "named-example" and self.name == "f3":
            return _F3_INDICES
        return None

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
            return SignalSpec.sines([(float(a), int(k)) for a, k in d["terms"]])
        return SignalSpec.tabulated(np.asarray(d["values"], dtype=float))


def evaluate_signal(spec: SignalSpec, grid: QuadratureGrid) -> np.ndarray:
    x = grid.points
    if spec.kind == "named-example":
        if spec.name == "f1":
            return (1.0 - x) * np.sin(3.0 * np.sin(3.0 * x))
        if spec.name == "f2":
            return 5 * np.sin(3 * np.pi * x) + 10 * np.sin(7 * np.pi * x) + 15 * np.sin(13 * np.pi * x)
        if spec.name == "f3":
            out = np.zeros_like(x)
            for a, k in zip(_F3_AMPLITUDES, _F3_INDICES):
                out += a * np.sin(k * np.pi * x)
            return out
        if spec.name == "f4":
            return (1.0 - x) * np.sin(5.0 * np.sin(12.0 * x))
    if spec.kind == "sine-combination":
        out = np.zeros_like(x)
        for a, k in spec.terms:
            out += a * np.sin(k * np.pi * x)
        return out
    if spec.values.shape != x.shape:
        raise ValueError("tabulated signal does not match the grid")
    return spec.values


@dataclass(frozen=True)
class NoisyDataset:
    """Noisy data record: the coefficients gbar_k, k = 1..n_coeff, as a finite 1-D array."""

    coeffs: np.ndarray

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, dtype=float)
        object.__setattr__(self, "coeffs", coeffs)
        if coeffs.ndim != 1:
            raise ValueError(f"coefficient record must be 1-D, got shape {coeffs.shape}")
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("coeffs holds NaN or inf")

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


def add_noise(
    g: np.ndarray,
    epsilon: float,
    seed: int,
    *,
    g_coeffs: np.ndarray,
    basis: np.ndarray,
    grid: QuadratureGrid,
    noise_mode: str = "coefficient",
) -> NoisyDataset:
    """Draw one seed of uniform noise on [-eps, eps] onto a noiseless record.

    The seed-invariant inputs come precomputed: g on the grid, its
    coefficients g_coeffs (g_k for k = 1..n_coeff, n_coeff = len(g_coeffs))
    and the basis table psi_k(x_i), row k-1, for at least k = 1..n_coeff.
    In coefficient mode the noise enters the coefficients directly; in
    pointwise mode it enters the grid values of g, which are then projected.
    """
    if not (np.isfinite(epsilon) and epsilon >= 0):
        raise ValueError(f"epsilon must be finite and >= 0, got {epsilon}")
    g_coeffs = np.asarray(g_coeffs, dtype=float)
    n_coeff = g_coeffs.size
    if basis.shape[0] < n_coeff or basis.shape[1:] != (grid.size,):
        raise ValueError(f"basis table {basis.shape} must cover {n_coeff} rows on {grid.size} points")
    rng = np.random.default_rng(seed)
    if noise_mode == "coefficient":
        coeffs = g_coeffs + rng.uniform(-epsilon, epsilon, n_coeff)
    elif noise_mode == "pointwise":
        g_bar = np.asarray(g, dtype=float) + rng.uniform(-epsilon, epsilon, grid.size)
        coeffs = basis[:n_coeff] @ (grid.weights * g_bar)
    else:
        raise ValueError(f"unknown noise_mode {noise_mode!r}")
    return NoisyDataset(coeffs=coeffs)


@dataclass(frozen=True)
class SignalContext:
    """Seed-invariant half of the noise model gbar_k = g_k + u_k, g_k = lam_k f_k.

    Built once per signal, eigensystem, grid and record length n_coeff:
    `basis` is the table psi_k(x_i) (row k-1, k = 1..n_coeff), `g_coeffs` the
    noiseless g_k and `g_vals` g on the grid, summed below the grid Nyquist
    index (pointwise noise is added to it).  Only the noise depends on the
    seed: `draw` adds it.
    """

    grid: QuadratureGrid
    es: EigenSystem
    basis: np.ndarray
    f_vals: np.ndarray
    g_coeffs: np.ndarray
    g_vals: np.ndarray

    def draw(self, epsilon: float, seed: int, noise_mode: str = "coefficient") -> NoisyDataset:
        return add_noise(
            self.g_vals, epsilon, seed, g_coeffs=self.g_coeffs, basis=self.basis,
            grid=self.grid, noise_mode=noise_mode,
        )


def signal_context(
    signal: SignalSpec, es: EigenSystem, grid: QuadratureGrid, n_coeff: int
) -> SignalContext:
    """Evaluate f, tabulate psi_k once, and apply the operator: g_k and g."""
    basis = es.basis_matrix(grid.points, n_coeff)  # IndexError beyond es.count
    f_vals = evaluate_signal(signal, grid)
    g_coeffs = es.eigenvalues[:n_coeff] * (basis @ (grid.weights * f_vals))
    upto = min(n_coeff, grid.size - 2)
    g_vals = g_coeffs[:upto] @ basis[:upto]
    return SignalContext(
        grid=grid, es=es, basis=basis, f_vals=f_vals, g_coeffs=g_coeffs, g_vals=g_vals
    )


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
    signal, build `signal_context` once and call its `draw` per seed.
    """
    ctx = signal_context(signal, es, grid, n_coeff)
    return ctx.draw(epsilon, seed, noise_mode), ctx.f_vals, ctx.g_coeffs


def snr_db(g: np.ndarray, epsilon: float) -> float:
    """10 log10 of mean power of the noiseless record over the noise variance eps^2/3.

    `g` is the noiseless data record the noise is injected into; for the
    standard coefficient-noise experiments that is the coefficient sequence
    {g_k}, matching the reported figure-legend values.  A record of zero
    power (all zero) has no finite ratio and raises, as epsilon <= 0 does, and
    so does an epsilon whose eps^2/3 underflows to zero or makes the ratio
    overflow or underflow.
    """
    if epsilon <= 0:
        raise ValueError("snr_db needs epsilon > 0")
    power = np.mean(np.asarray(g, dtype=float) ** 2)
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
    if not (np.isfinite(epsilon) and epsilon >= 0):
        raise ValueError(f"epsilon must be finite and >= 0, got {epsilon}")
    return epsilon / np.sqrt(3.0)


def write_coeffs_csv(path: str, coeffs: np.ndarray) -> None:
    write_table(path, ("k", "g_bar_k"), range(1, len(coeffs) + 1), np.asarray(coeffs, dtype=float))


def read_coeffs_csv(path: str) -> np.ndarray:
    with open(path, newline="") as fh:
        header = fh.readline().strip().lower().replace(" ", "")
        if header != "k,g_bar_k":
            raise ValueError(f"{path}: expected header 'k,g_bar_k', got {header!r}")
        vals = []
        for line in fh:
            line = line.strip()
            if not line:
                continue
            k, c = line.split(",", 1)
            if int(k) != len(vals) + 1:
                raise ValueError(f"{path}: expected k={len(vals) + 1}, got k={k}")
            vals.append(float(c))
    return np.asarray(vals)


def write_table(path: str, header: Sequence[str], *columns) -> None:
    """CSV of equal-length columns, one row per line.

    Each cell is the repr of a Python int or float (numpy values are
    converted first, so the digits round-trip); None is an empty cell.
    """
    cells = []
    for i, col in enumerate(columns):
        col = np.asarray(col)
        if col.ndim != 1:
            raise ValueError(f"column {i} must be 1-D, got shape {col.shape}")
        cells.append(repr(col.tolist())[1:-1].replace("None", "").split(", ") if col.size else [])
    rows = zip(*cells, strict=True)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(f"{','.join(row)}\n" for row in rows)
