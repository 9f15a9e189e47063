"""Norm-budget spectral truncation and the cumulative diagnostic M(m).

M(m) = sum_{k<=m} (gbar_k/lam_k)^2 grows to the squared solution norm and
then stalls before noise amplification takes over; the cutoff k0 is the last
index where M stays within the norm budget C1 = ||f||^2.  When C1 is unknown
the flat stretch ("plateau") of M is the empirical stand-in, so a sliding
window flatness detector is included.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .eigensystem import EigenSystem, _finite_real, _integer
from .synthesis import NoisyDataset, _index_cells, write_table
from .variational import RegularizedSolution, truncated_expansion

__all__ = [
    "CumulativeProfile",
    "cumulative_profile",
    "k0_cutoff",
    "f0_approximation",
    "detect_plateau",
]


@dataclass(frozen=True)
class CumulativeProfile:
    """Partial sums M(m), m = 1..N."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if vals.size == 0:
            raise ValueError("profile needs at least one entry")
        if np.any(np.diff(vals) < 0):
            raise ValueError("M(m) must be non-decreasing")

    def write_csv(self, path: str) -> str:
        return write_table(path, ("m", "M"), _index_cells(self.values.size), self.values)


def cumulative_profile(data: NoisyDataset, es: EigenSystem) -> CumulativeProfile:
    """Exact partial sums of (gbar_k/lam_k)^2: squared norms of the raw expansion cut at m."""
    n = min(es.count, data.n_coeff)
    return CumulativeProfile(values=np.cumsum((data.coeffs[:n] / es.eigenvalues[:n]) ** 2))


def k0_cutoff(data: NoisyDataset, es: EigenSystem, c1: float) -> int:
    """Largest m with M(m) <= c1; 0 when even M(1) exceeds the budget."""
    c1 = _finite_real(c1, "norm budget c1", positive=True)
    profile = cumulative_profile(data, es)
    return int(np.searchsorted(profile.values, c1, side="right"))


def f0_approximation(data: NoisyDataset, es: EigenSystem, c1: float) -> RegularizedSolution:
    """Raw expansion gbar_k/lam_k truncated at the norm-budget cutoff."""
    k0 = k0_cutoff(data, es, c1)
    return truncated_expansion(data, es, np.arange(1, k0 + 1), "norm_budget_cutoff", {"c1": c1, "k0": k0})


def detect_plateau(
    profile: CumulativeProfile, window: int = 3, flatness: float = 0.05
) -> list[tuple[int, int, float]]:
    """Maximal 1-based index ranges of length >= window with max/min <= 1 + flatness.

    A range is reported only if it cannot be extended in either direction;
    ranges may overlap.  Returns (start, end, level) with level the mean of M
    over the range, sorted by start.
    """
    window, flatness = _integer(window, "window", 2), _finite_real(flatness, "flatness", positive=True)
    m = profile.values
    n = m.size

    def flat(lo: int, hi: int) -> bool:  # 0-based inclusive
        top, bot = m[hi], m[lo]  # M is non-decreasing
        if top == bot:
            return True
        if bot == 0:
            return False
        # a subnormal bot overflows to inf, which correctly reads as not flat
        with np.errstate(over="ignore"):
            return top / bot <= 1.0 + flatness

    out: list[tuple[int, int, float]] = []
    end = 0
    prev_end = -1
    for start in range(n):
        if end < start:
            end = start
        while end + 1 < n and flat(start, end + 1):
            end += 1
        if end - start + 1 >= window and end > prev_end:
            # cannot extend right by construction; left-extension exists iff
            # the previous start already reached this end
            out.append((start + 1, end + 1, float(m[start : end + 1].mean())))
        prev_end = max(prev_end, end)
    return out
