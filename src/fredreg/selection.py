"""Autocorrelation-based selection of informative Fourier coefficients.

Treating the noisy coefficient record {gbar_k}, k = 1..N, as a finite sample
of a wide-sense stationary series, the pipeline is

  1. lag autocorrelations delta(n) with lag-dependent means (the Pearson
     scatter-diagram estimator),
  2. Bartlett large-lag standard errors sigma(n; n0) under the hypothesis
     that the true autocorrelation vanishes beyond lag n0,
  3. a hypothesis generation-verification recursion for the largest
     significant lag n0,
  4. the significant-lag set Q (thresholded against the fully-random
     sigma(n; 0)), one argmax product pair per lag, and the informative
     index set I_k as the union of pair members,
  5. diagnostics: the combinatorial bound on |I_k| and the pairwise
     lag-compatibility check.

The recursion promotes the first lag whose |delta| exceeds
significance * sigma(n; nbar) and repeats until no further lag exceeds the
threshold.  Scanning every available lag this way has no false-positive
control: ~5% of null lags fire, so on pure noise the walk almost surely ends
at some late spurious lag.  Two defaults keep the procedure honest without
touching its signal behavior: the scan stops at the classic ACF window
min(N-8, N//2, floor(10 log10 N)), and before leaving nbar = 0 the
completely-random hypothesis is verified with a portmanteau (Ljung-Box
style) statistic at the same confidence level; if the window is compatible
with randomness, n0 = 0.  Set randomness_test="none" for the bare recursion.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.stats import chi2

from .eigensystem import EigenSystem
from .synthesis import NoisyDataset, write_table
from .variational import RegularizedSolution, truncated_expansion

__all__ = [
    "AutocorrSeries",
    "SelectionReport",
    "DegenerateSequenceError",
    "autocorr_estimate",
    "bartlett_stderr",
    "detect_n0",
    "build_Q",
    "select_pairs",
    "build_selection",
    "reconstruct_bhat",
    "default_max_lag",
    "SIGNIFICANCE",
]

SIGNIFICANCE = 1.96  # two-sided 95% normal quantile


class DegenerateSequenceError(ValueError):
    """Coefficient record too short or too degenerate to analyze."""


@dataclass(frozen=True)
class AutocorrSeries:
    """Estimated autocorrelations delta(n), n = 0..N-1; NaN marks undefined lags."""

    delta: np.ndarray
    n_count: int

    def __post_init__(self):
        d = np.asarray(self.delta, dtype=float)
        object.__setattr__(self, "delta", d)
        if d.size != self.n_count:
            raise ValueError("delta must have one entry per lag 0..N-1")
        finite = d[np.isfinite(d)]
        if np.isfinite(d[0]) and abs(d[0] - 1.0) > 1e-12:
            raise ValueError("delta(0) must equal 1")
        if finite.size and np.max(np.abs(finite)) > 1.0 + 1e-12:
            raise ValueError("|delta(n)| must not exceed 1")


def autocorr_estimate(coeffs: np.ndarray) -> AutocorrSeries:
    """Lagged Pearson autocorrelation with per-lag means and normalizations.

    delta(n) correlates (gbar_k, gbar_{k+n}) over k = 1..N-n, each side
    centered by its own window mean.  Lags whose centered sums vanish
    (constant windows) are undefined and reported as NaN; they are excluded
    from all significance testing downstream.
    """
    g = np.asarray(coeffs, dtype=float).ravel()
    n_count = g.size
    if n_count < 2:
        raise DegenerateSequenceError("autocorrelation needs at least 2 coefficients")
    delta = np.full(n_count, np.nan)
    for n in range(n_count):
        m = n_count - n  # pairs in the scatter window
        if m < 2:
            continue
        xs = g[:m]
        ys = g[n:]
        xc = xs - xs.mean()
        yc = ys - ys.mean()
        den = math.sqrt(float(xc @ xc)) * math.sqrt(float(yc @ yc))
        if den <= 0:
            continue  # constant window: undefined
        delta[n] = float(xc @ yc) / den
    # rounding can push |delta| a hair past 1; a constant record leaves even delta(0) undefined
    np.clip(delta, -1.0, 1.0, out=delta)
    if np.isfinite(delta[0]):
        delta[0] = 1.0
    return AutocorrSeries(delta=delta, n_count=n_count)


def bartlett_stderr(series: AutocorrSeries, n0: int, n: int | np.ndarray) -> float | np.ndarray:
    """Large-lag standard error sqrt((1 + 2 sum_{v<=n0} delta(v)^2) / (N - n)).

    Valid for lags beyond the hypothesized cut: requires n > n0 >= 0 and
    n < N.  n is one lag (a float is returned) or an integer array of lags
    (the band over them is returned).  Estimated autocorrelations stand in
    for the theoretical ones; undefined lags contribute nothing to the sum.
    """
    lags = np.asarray(n)
    if n0 < 0 or np.any(lags <= n0):
        raise ValueError(f"large-lag standard error needs n > n0 >= 0, got n={n}, n0={n0}")
    if np.any(lags >= series.n_count):
        raise ValueError(f"lag {n} outside record of length {series.n_count}")
    head = series.delta[1 : n0 + 1]
    s = float(np.nansum(head**2)) if head.size else 0.0
    band = np.sqrt((1.0 + 2.0 * s) / (series.n_count - lags))
    return float(band) if lags.ndim == 0 else band


def default_max_lag(n_count: int) -> int:
    """Largest lag scanned for significance: min(N-8, N//2, floor(10 log10 N))."""
    return max(1, min(n_count - 8, n_count // 2, int(math.floor(10.0 * math.log10(n_count)))))


def _scan_lags(series: AutocorrSeries, max_lag: int | None) -> int:
    if max_lag is None:
        max_lag = default_max_lag(series.n_count)
    return min(max_lag, series.n_count - 1)


def _passes_randomness_gate(
    series: AutocorrSeries, top: int, significance: float, level: float
) -> bool:
    """True when the scanned window is compatible with complete randomness."""
    lags = np.arange(1, top + 1)
    delta = series.delta[lags]
    defined = np.isfinite(delta)
    z = delta[defined] / bartlett_stderr(series, 0, lags[defined])
    if not np.any(np.abs(z) > significance):
        return True
    stat = float(np.sum(z * z))
    return stat <= float(chi2.ppf(level, z.size))


def detect_n0(
    series: AutocorrSeries,
    significance: float = SIGNIFICANCE,
    max_lag: int | None = None,
    randomness_test: str = "portmanteau",
) -> int:
    """Largest significant lag via the generation-verification recursion.

    Starting from nbar = 0, the first lag n in (nbar, max_lag] with
    |delta(n)| > significance * sigma(n; nbar) becomes the new candidate;
    the walk repeats until no lag beyond nbar exceeds its threshold.
    Returns 0 for records consistent with pure randomness.
    """
    if randomness_test not in ("portmanteau", "none"):
        raise ValueError(f"unknown randomness_test {randomness_test!r}")
    top = _scan_lags(series, max_lag)
    if randomness_test == "portmanteau":
        level = math.erf(significance / math.sqrt(2.0))  # coverage of the +/- z threshold
        if _passes_randomness_gate(series, top, significance, level):
            return 0
    nbar = 0
    while True:
        lags = np.arange(nbar + 1, top + 1)
        # undefined (NaN) lags compare False and are never promoted
        hits = np.abs(series.delta[lags]) > significance * bartlett_stderr(series, nbar, lags)
        if not hits.any():
            return nbar
        nbar = int(lags[np.argmax(hits)])  # the first lag past its threshold


def build_Q(series: AutocorrSeries, n0: int, significance: float = SIGNIFICANCE) -> list[int]:
    """Lags 0 < n <= n0 whose |delta(n)| exceeds the fully-random threshold sigma(n; 0)."""
    lags = np.arange(1, n0 + 1)
    hits = np.abs(series.delta[lags]) > significance * bartlett_stderr(series, 0, lags)
    return lags[hits].tolist()


def select_pairs(coeffs: np.ndarray, Q: list[int]) -> list[tuple[int, int]]:
    """For each lag the pair (k*, k*+n) maximizing |gbar_k gbar_{k+n}|; ties take the smallest k."""
    g = np.asarray(coeffs, dtype=float).ravel()
    n_count = g.size
    pairs = []
    for n in sorted(Q):
        if not 0 < n < n_count:
            raise ValueError(f"lag {n} outside record of length {n_count}")
        products = np.abs(g[: n_count - n] * g[n:])
        k_star = int(np.argmax(products)) + 1  # argmax returns the first (smallest k) maximum
        pairs.append((k_star, k_star + n))
    return pairs


def _admissible_bounds(n_c: int) -> tuple[float, int]:
    return 0.5 * (1.0 + math.sqrt(1.0 + 8.0 * n_c)), n_c + 1


@dataclass(frozen=True)
class SelectionReport:
    """Outcome and diagnostics of the full selection pipeline."""

    n0: int
    Q: list[int]
    n_c: int
    pairs: list[tuple[int, int]]
    I_k: list[int]
    bound_ok: bool
    compat_ok: bool
    compat_violations: list[tuple[int, int]]
    series: AutocorrSeries = field(repr=False)
    significance: float = SIGNIFICANCE
    max_lag: int | None = None

    def to_json_dict(self) -> dict:
        return {
            "n0": self.n0,
            "Q": list(self.Q),
            "pairs": [list(p) for p in self.pairs],
            "I_k": list(self.I_k),
            "bound_ok": self.bound_ok,
            "compat_violations": [list(v) for v in self.compat_violations],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    def write_autocorr_csv(self, path: str) -> None:
        """Lag table "n,delta,threshold0,threshold_n0" for confidence-limit plots."""
        lags = np.arange(self.series.n_count)
        thresholds = []
        for cut in (0, self.n0):
            band = self.significance * bartlett_stderr(self.series, cut, lags[cut + 1 :])
            # lags up to the hypothesized cut have no threshold: empty cells
            thresholds.append([None] * (cut + 1) + band.tolist())
        delta = [d if math.isfinite(d) else None for d in self.series.delta.tolist()]
        write_table(path, ("n", "delta", "threshold0", "threshold_n0"), lags, delta, *thresholds)


def build_selection(
    data: NoisyDataset | np.ndarray,
    significance: float = SIGNIFICANCE,
    max_lag: int | None = None,
    randomness_test: str = "portmanteau",
) -> SelectionReport:
    """Run the whole pipeline and attach the consistency diagnostics.

    The report is purely diagnostic: the selection is returned even when the
    combinatorial bound or a pairwise compatibility constraint fails.
    """
    coeffs = data.coeffs if isinstance(data, NoisyDataset) else np.asarray(data, dtype=float)
    if coeffs.size < 8:
        raise DegenerateSequenceError("selection needs a record of at least 8 coefficients")
    bad = np.flatnonzero(~np.isfinite(coeffs))
    if bad.size:
        raise ValueError(f"record is not finite at index {bad[0]} (k={bad[0] + 1})")
    series = autocorr_estimate(coeffs)
    n0 = detect_n0(series, significance, max_lag, randomness_test)
    Q = build_Q(series, n0, significance)
    pairs = select_pairs(coeffs, Q)
    members: set[int] = set()
    for a, b in pairs:
        members.add(a)
        members.add(b)
    I_k = sorted(members)
    lower, upper = _admissible_bounds(len(Q))
    bound_ok = bool(lower - 1e-9 <= len(I_k) <= upper)
    qset = set(Q)
    violations = [
        (a, b)
        for i, a in enumerate(I_k)
        for b in I_k[i + 1 :]
        if (b - a) not in qset
    ]
    return SelectionReport(
        n0=n0, Q=Q, n_c=len(Q), pairs=pairs, I_k=I_k,
        bound_ok=bound_ok, compat_ok=not violations, compat_violations=violations,
        series=series, significance=significance,
        max_lag=_scan_lags(series, max_lag),
    )


def reconstruct_bhat(
    data: NoisyDataset, es: EigenSystem, report: SelectionReport
) -> RegularizedSolution:
    """Selected-component estimate: gbar_k/lam_k on I_k, zero elsewhere."""
    if report.I_k and report.I_k[-1] > es.count:
        raise IndexError(
            f"selected index {report.I_k[-1]} exceeds eigensystem count {es.count}"
        )
    params = {
        "n0": report.n0, "Q": list(report.Q), "bound_ok": report.bound_ok, "compat_ok": report.compat_ok,
    }
    return truncated_expansion(data, es, report.I_k, "autocorrelation_selection", params)
