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

Step 1 is one pass over the record (see autocorr_estimate): window sums
from running sums of the record centered once, and one inner product per
lag.  A lag whose estimated rounding error exceeds 64 N u (u = 2**-53), or
whose window has no spread, comes from the per-lag loop (_lag_delta), which
centers each window by its own mean; that loop is also the test oracle.
Only autocorr.csv reads the lags past the window, from one FFT
(_every_lag), so numpy.fft loads there, on the first record written.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .eigensystem import EigenSystem, _finite_real, _integer
from .synthesis import NoisyDataset, _record, csv_cells, write_table
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
    """Estimated autocorrelations delta(n), n = 0..L <= N-1 (N = n_count); NaN marks undefined lags."""

    delta: np.ndarray
    n_count: int

    def __post_init__(self):
        d = np.asarray(self.delta, dtype=float)
        object.__setattr__(self, "delta", d)
        object.__setattr__(self, "n_count", _integer(self.n_count, "n_count", 1))
        if not 1 <= d.size <= self.n_count:
            raise ValueError("delta must have one entry per lag 0..L, L <= N-1")
        finite = d[np.isfinite(d)]
        if np.isfinite(d[0]) and abs(d[0] - 1.0) > 1e-12:
            raise ValueError("delta(0) must equal 1")
        if finite.size and np.max(np.abs(finite)) > 1.0 + 1e-12:
            raise ValueError("|delta(n)| must not exceed 1")


def _peak_scaled(g: np.ndarray) -> np.ndarray:
    """g with its peak moved to [0.5, 1): an exact power-of-two rescale keeps the sums of squares out of the subnormals."""
    return np.ldexp(g, -math.frexp(float(np.max(np.abs(g))))[1])


# a window whose centered sum of squares lies below this may have lost digits to subnormal products
_TINY = 2.0**-960


def _lag_delta(g: np.ndarray, n: int) -> float:
    """delta(n) of a peak-scaled record from its two centered windows; NaN for an undefined lag."""
    m = g.size - n  # pairs in the scatter window
    if m < 2:
        return math.nan
    xs = g[:m]
    ys = g[n:]
    # the pairwise sum and division of ndarray.mean and the dot kernel of @, minus their wrappers
    xc = xs - np.add.reduce(xs) / m
    yc = ys - np.add.reduce(ys) / m
    sxx, syy = float(xc.dot(xc)), float(yc.dot(yc))
    if sxx < _TINY or syy < _TINY:  # digits lost to subnormal products: rescale exactly
        xc, yc = _peak_scaled(xc), _peak_scaled(yc)
        sxx, syy = float(xc.dot(xc)), float(yc.dot(yc))
    den = math.sqrt(sxx) * math.sqrt(syy)
    if den <= 0:
        return math.nan  # constant window: undefined
    return float(xc.dot(yc)) / den


def _centered_sums(h: np.ndarray, m: np.ndarray):
    """Per lag, rows (x, y) of the windows x = h[:m] and y = h[N-m:]: their sums s and centered sums c = q - s^2 / m.

    q is a window's sum of squares.  Each window is summed by a running sum
    started at its own end of the record: a total minus a partial sum would
    cancel.  Returns (s, q, c), each of shape (2, len(m)).
    """
    rows = np.empty((4, h.size), h.dtype)
    rows[0] = h
    rows[1] = h[::-1]
    np.multiply(h, h, out=rows[2])
    rows[3] = rows[2, ::-1]
    sums = np.cumsum(rows, axis=1)[:, m - 1]  # each row a running sum, as np.cumsum(row) adds it
    s, q = sums[:2], sums[2:]
    return s, q, q - s * s / m


def _from_the_loop(g: np.ndarray, lags: np.ndarray, delta: np.ndarray, summed: np.ndarray) -> np.ndarray:
    """delta with every lag not `summed` taken from the loop, clipped to [-1, 1]."""
    for i in np.flatnonzero(~summed).tolist():
        delta[i] = _lag_delta(g, int(lags[i]))
    # rounding can push |delta| a hair past 1
    return np.clip(delta, -1.0, 1.0, out=delta)


_U = 2.0**-53  # the unit roundoff of float64


def _window_tol(n_count: int) -> float:
    """The bound on a summed lag's estimated error: 64 N u."""
    return 64.0 * _U * n_count


def autocorr_estimate(coeffs: np.ndarray, last_lag: int | None = None) -> AutocorrSeries:
    """Lagged Pearson autocorrelation with per-lag means and normalizations.

    delta(n) correlates (gbar_k, gbar_{k+n}) over k = 1..N-n, each side
    centered by its own window mean.  Lags whose centered sums vanish
    (constant windows) are undefined and reported as NaN; they are excluded
    from all significance testing downstream.  Lags 0..last_lag are computed
    (all N lags when last_lag is None or >= N-1; a bool, a non-integer or a
    negative last_lag raises ValueError).

    One pass (Box, Jenkins and Reinsel, Time Series Analysis, ch. 2): h is
    the peak-scaled record centered once by its own mean.  Each window
    x = h[:m] and y = h[n:] (m = N - n) takes its sum s and sum of squares q
    from a running sum started at its own end of the record, each lag takes
    one inner product S_xy = h[:m].dot(h[n:]), and with c = q - s^2 / m,
    delta(n) = (S_xy - s_x s_y / m) / sqrt(c_xx c_yy).  To first order,
    rounding moves that value by at most 6 (m + 1) u max(q_x / c_xx,
    q_y / c_yy), u = 2**-53: the cancellation of each centered sum.  A lag
    whose estimate exceeds 64 N u (_window_tol), a lag with m < 2, and a
    window with c < 2**-960 (no spread, or products that may have lost
    digits in the subnormals) come from the per-lag loop instead
    (_lag_delta, which centers both windows by their own means), so
    undefined, constant and subnormal windows read as the loop gives them.
    Nothing here depends on last_lag, so a window is the bit-for-bit head of
    the all-lag series.
    """
    g = _record(coeffs)
    n_count = g.size
    if n_count < 2:
        raise DegenerateSequenceError("autocorrelation needs at least 2 coefficients")
    last_lag = n_count - 1 if last_lag is None else _integer(last_lag, "last_lag", 0)
    g = _peak_scaled(g)
    lags = np.arange(min(last_lag, n_count - 1) + 1)
    m = n_count - lags
    h = g - np.add.reduce(g) / n_count
    s, q, c = _centered_sums(h, m)
    sxy = np.array([h[:k].dot(h[n:]) for n, k in zip(lags.tolist(), m.tolist())])
    with np.errstate(divide="ignore", invalid="ignore"):
        root = np.sqrt(c)
        delta = (sxy - s[0] * s[1] / m) / (root[0] * root[1])
    # the estimate 6 (m + 1) u q / c within the bound for both windows, written without the division
    summed = ((c >= _TINY) & ((m + 1) * (6.0 * _U) * q <= _window_tol(n_count) * c)).all(axis=0) & (m >= 2)
    delta = _from_the_loop(g, lags, delta, summed)
    # a constant record leaves even delta(0) undefined
    if np.isfinite(delta[0]):
        delta[0] = 1.0
    return AutocorrSeries(delta=delta, n_count=n_count)


# a lag past the loop's head is taken from window sums when their estimated error in
# delta(n) is at most this, else from the loop; the estimate scales with longdouble's
# eps, so where longdouble is plain double nearly every lag goes to the loop
_TAIL_TOL = 1e-15


def _every_lag(coeffs: np.ndarray, head: np.ndarray) -> np.ndarray:
    """delta(n) for every lag 0..N-1 of a record whose estimate over lags 0..L is `head`.

    The lags past L come from window sums and one zero-padded rFFT
    (Wiener-Khinchin; Box, Jenkins and Reinsel, Time Series Analysis, ch. 2),
    in extended precision.  With h the peak-scaled record centered by its
    global mean, the windows take their sums from _centered_sums, and
    sum_k h_k h_{k+n} is the inverse rFFT of |rFFT(h)|^2.  A lag whose error
    estimate -- the cancellation m * max(q_x/c_xx, q_y/c_yy) plus the cross
    term's rounding sum(h^2) / sqrt(c_xx c_yy), in units of longdouble's
    eps -- exceeds _TAIL_TOL, and every lag with m < 2 or a window with
    c <= 0, comes from the loop (_lag_delta), so undefined, constant and
    subnormal windows read as the loop gives them.
    """
    g = _peak_scaled(_record(coeffs))
    n_count, first = g.size, head.size
    if first >= n_count:
        return head
    lags = np.arange(first, n_count)
    m = n_count - lags
    h = g.astype(np.longdouble)
    h -= np.add.reduce(h) / n_count
    s, q, c = _centered_sums(h, m)
    from numpy.fft import irfft, rfft  # loaded on first use, as the module docstring says

    size = 1 << (2 * n_count - 2).bit_length()  # >= 2N - 1: no lag wraps around
    spectrum = rfft(h, size)
    sxy = irfft(spectrum.real**2 + spectrum.imag**2, size)[first:n_count]
    with np.errstate(divide="ignore", invalid="ignore"):
        den = np.sqrt(c[0]) * np.sqrt(c[1])
        tail = ((sxy - s[0] * s[1] / m) / den).astype(float)
        err = (m * (q / c).max(axis=0) + np.add.reduce(h * h) / den) * np.finfo(np.longdouble).eps
    summed = (m >= 2) & (c > 0).all(axis=0) & (err <= _TAIL_TOL)
    return np.concatenate([head, _from_the_loop(g, lags, tail, summed)])


def bartlett_stderr(series: AutocorrSeries, n0: int, n: int | np.ndarray) -> float | np.ndarray:
    """Large-lag standard error sqrt((1 + 2 sum_{v<=n0} delta(v)^2) / (N - n)).

    Valid for lags beyond the hypothesized cut: requires n > n0 >= 0 and n in
    the series' lag window.  n is one lag (a float is returned) or an integer
    array of lags (the band over them is returned).  Estimated autocorrelations
    stand in for the theoretical ones; undefined lags add nothing to the sum.
    """
    n0, lags = _integer(n0, "n0", 0), np.asarray(n)
    if lags.dtype.kind not in "iu":  # True would read as lag 1, and 2.5 would take N - 2.5 pairs
        raise ValueError(f"lag n must be an integer or an integer array, got {n!r}")
    if np.any(lags <= n0):
        raise ValueError(f"lag n must be > n0 for the large-lag standard error, got n={n}, n0={n0}")
    if np.any(lags >= series.delta.size):
        raise ValueError(f"lag {n} outside lag window 0..{series.delta.size - 1} (N={series.n_count})")
    head = series.delta[1 : n0 + 1]
    s = float(np.nansum(head**2)) if head.size else 0.0
    band = np.sqrt((1.0 + 2.0 * s) / (series.n_count - lags))
    return float(band) if lags.ndim == 0 else band


def default_max_lag(n_count: int) -> int:
    """Largest lag scanned for significance: min(N-8, N//2, floor(10 log10 N))."""
    n_count = _integer(n_count, "n_count", 1)
    return max(1, min(n_count - 8, n_count // 2, int(math.floor(10.0 * math.log10(n_count)))))


def _scan_lags(n_count: int, max_lag: int | None, significance: float) -> int:
    max_lag = default_max_lag(n_count) if max_lag is None else _integer(max_lag, "max_lag", 1)
    _finite_real(significance, "significance", positive=True)
    return min(max_lag, n_count - 1)


def _coverage(significance: float) -> float:
    """Two-sided coverage of the +/- significance normal threshold: the portmanteau gate's level."""
    return math.erf(significance / math.sqrt(2.0))


# 2 * gammaincinv(df / 2, level), the chi-square quantile as scipy.stats.chi2.ppf
# computes it, at the default level for df = 1..64; default_max_lag stays <= 60
# up to N = 10**6, so the default selection never loads scipy
_CHI2_LEVEL = _coverage(SIGNIFICANCE)
_CHI2_TABLE = (
    3.8415999999999966, 5.991632942339387, 7.814915769562501, 9.487932929110205,
    11.070715543362668, 12.591817629718285, 14.067382315891297, 15.507565578399213,
    16.919240115531636, 18.307309997489853, 19.675418479089327, 21.026359279613036,
    22.362330157250355, 23.68509685327114, 24.99610329362715, 26.296548111783313,
    27.587439269450424, 28.869633977246735, 30.14386847697785, 31.410780663922885,
    32.67092754604738, 33.924798910712106, 35.17282815931497, 36.4154009955332,
    37.65286246493141, 38.88552271280617, 40.113661734411465, 41.337533325011385,
    42.557368388555794, 43.773377727829676, 44.985754412053765, 46.1946757976034,
    47.40030526200336, 48.602793699404195, 49.802280816451955, 50.99889626017594,
    52.19276060376428, 53.383986211517744, 54.57267800060001, 55.7589341142477,
    56.9428465187017, 58.1245015341637, 59.30398030847734, 60.481359240908375,
    61.65671036230226, 62.830101676985166, 64.00159747101054, 65.17125859071423,
    66.33914269499977, 67.5053044843205, 68.66979590893618, 69.8326663586915,
    70.99396283628218, 72.15373011573095, 73.3120108875881, 74.4688458921908,
    75.62427404216005, 76.77833253517898, 77.93105695797836, 79.08248138235348,
    80.23263845394547, 81.38155947444352, 82.52927447779318, 83.67581230093734,
)


@functools.lru_cache(maxsize=256)
def _chi2_critical(level: float, df: int) -> float:
    """The chi-square quantile chi2.ppf(level, df): from the table, else from scipy.special."""
    if level == _CHI2_LEVEL and 1 <= df <= len(_CHI2_TABLE):
        return _CHI2_TABLE[df - 1]
    from scipy.special import gammaincinv

    return float(2.0 * gammaincinv(df / 2.0, level))


@functools.lru_cache(maxsize=16)
def _fixed_autocorr_cells(n_count: int, significance: float) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The n and threshold0 cells of autocorr.csv, formatted once per (N, significance).

    Under the completely-random hypothesis (n0 = 0) the Bartlett band reads
    no delta, so the threshold0 column depends on N and the significance alone.
    """
    lags = np.arange(n_count)
    white = AutocorrSeries(delta=(lags == 0).astype(float), n_count=n_count)
    band = significance * bartlett_stderr(white, 0, lags[1:])
    return tuple(csv_cells(lags)), ("", *csv_cells(band))


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
    Returns 0 for records consistent with pure randomness; the portmanteau
    gate (see the module docstring) reads the walk's own per-lag arrays.
    max_lag is None (default_max_lag(N)) or an integer >= 1, clamped to N-1;
    significance is finite and > 0; a ValueError names either otherwise.
    """
    if randomness_test not in ("portmanteau", "none"):
        raise ValueError(f"unknown randomness_test {randomness_test!r}")
    top = _scan_lags(series.n_count, max_lag, significance)
    if top >= series.delta.size:
        raise ValueError(f"lag {top} outside lag window 0..{series.delta.size - 1} (N={series.n_count})")
    # per lag 1..top, once: delta, |delta|, delta^2 with undefined lags adding
    # nothing (what nansum adds) and the N - n of the Bartlett denominator
    lags = np.arange(1, top + 1)
    delta = series.delta[lags]
    size = np.abs(delta)
    square = delta * delta
    square[np.isnan(square)] = 0.0
    dof = series.n_count - lags
    if randomness_test == "portmanteau":
        # sigma(n; 0) = sqrt(1 / (N - n)), bit for bit bartlett_stderr(series, 0, lags)
        defined = np.isfinite(delta)
        z = delta[defined] / np.sqrt(1.0 / dof[defined])
        if not np.any(np.abs(z) > significance):
            return 0
        if float(np.sum(z * z)) <= _chi2_critical(_coverage(significance), z.size):
            return 0
    # each scan starts past the last promotion, so one pass tests every lag at most once;
    # Python scalars round each threshold as bartlett_stderr's band does, and undefined
    # (NaN) lags compare False and are never promoted
    nbar, numerator = 0, 1.0  # numerator: 1 + 2 s, s the head sum of squares through nbar
    for n, (d, m) in enumerate(zip(size.tolist(), dof.tolist()), start=1):
        if d > significance * math.sqrt(numerator / m):
            nbar = n
            # s as bartlett_stderr's nansum adds it: one pairwise sum
            numerator = 1.0 + 2.0 * float(np.add.reduce(square[:nbar]))
    return nbar


def build_Q(series: AutocorrSeries, n0: int, significance: float = SIGNIFICANCE) -> list[int]:
    """Lags 0 < n <= n0 whose |delta(n)| exceeds the fully-random threshold sigma(n; 0).

    n0 is an integer >= 0 (not a bool); a ValueError names it otherwise.
    """
    _finite_real(significance, "significance", positive=True)
    if _integer(n0, "n0", 0) == 0:
        return []
    lags = np.arange(1, n0 + 1)
    band = significance * bartlett_stderr(series, 0, lags)
    hits = np.abs(series.delta[lags]) > band
    return lags[hits].tolist()


_TABLE_CELLS = 1 << 18  # products held at once by select_pairs: 2 MB


def _check_finite(g: np.ndarray) -> None:
    if not np.isfinite(g).all():
        bad = int(np.flatnonzero(~np.isfinite(g))[0])
        raise ValueError(f"record is not finite at index {bad} (k={bad + 1})")


def select_pairs(coeffs: np.ndarray, Q: list[int]) -> list[tuple[int, int]]:
    """For each lag the pair (k*, k*+n) maximizing |gbar_k gbar_{k+n}|; ties take the smallest k.

    The record must be finite, and Q must hold integer lags 0 < n < N (not
    bools); a ValueError names the first bad value otherwise.  One pass: row
    j of a table holds |gbar_k| |gbar_{k+n_j}| (the bits of |gbar_k gbar_{k+n_j}|)
    for k = 1..N-n_j and zeros past them, and its argmax is the first
    largest product, because no product is below zero and the zeros come last.
    A long Q is taken a block of rows at a time, so at most _TABLE_CELLS
    products are held at once.
    """
    g = _record(coeffs)
    n_count = g.size
    _check_finite(g)
    for n in Q:
        _integer(n, "each lag in Q", 1, n_count - 1)
    if not Q:
        return []
    lags = np.array(sorted(Q))
    width = n_count - int(lags[0])  # the widest window, at the smallest lag
    a = np.zeros(width + int(lags[-1]))
    np.abs(g, out=a[:n_count])
    # row n of `shifted` starts at a[n] (a strided view, as sliding_window_view makes, without its checks);
    # row j of `products` is |gbar_{k+n_j}|, zero past the record, times |gbar_k|
    shifted = np.ndarray((a.size - width + 1, width), a.dtype, a, strides=(a.itemsize, a.itemsize))
    k_star = np.empty(lags.size, dtype=np.intp)
    rows = max(1, _TABLE_CELLS // width)  # the table of a long Q is taken a block of rows at a time
    for i in range(0, lags.size, rows):
        products = shifted[lags[i : i + rows]]
        products *= a[:width]
        k_star[i : i + rows] = products.argmax(axis=1)  # argmax returns the first (smallest k) maximum
    k_star += 1
    return list(zip(k_star.tolist(), (k_star + lags).tolist()))


def _admissible_bounds(n_c: int) -> tuple[float, int]:
    return 0.5 * (1.0 + math.sqrt(1.0 + 8.0 * n_c)), n_c + 1


@dataclass(frozen=True)
class SelectionReport:
    """Outcome and diagnostics of the full selection pipeline.

    The report keeps n0, the significant lags Q, one pair per lag and the
    autocorrelation series over the scanned lag window 0..max_lag; the
    informative set I_k (the pair members) and the combinatorial-bound and
    pairwise lag-compatibility diagnostics are computed from them.
    """

    n0: int
    Q: list[int]
    pairs: list[tuple[int, int]]
    series: AutocorrSeries = field(repr=False)
    significance: float = SIGNIFICANCE

    def __post_init__(self):
        object.__setattr__(self, "n0", _integer(self.n0, "n0", 0))  # an np.int64 serializes as the int
        _finite_real(self.significance, "significance", positive=True)

    @property
    def max_lag(self) -> int:
        return self.series.delta.size - 1

    @property
    def n_c(self) -> int:
        return len(self.Q)

    @property
    def I_k(self) -> list[int]:
        return sorted({k for pair in self.pairs for k in pair})

    @property
    def bound_ok(self) -> bool:
        lower, upper = _admissible_bounds(self.n_c)
        return bool(lower - 1e-9 <= len(self.I_k) <= upper)

    @property
    def compat_violations(self) -> list[tuple[int, int]]:
        """Pairs of I_k members whose distance is not a lag in Q."""
        I_k, qset = self.I_k, set(self.Q)
        return [(a, b) for i, a in enumerate(I_k) for b in I_k[i + 1 :] if (b - a) not in qset]

    @property
    def compat_ok(self) -> bool:
        return not self.compat_violations

    def to_json_dict(self) -> dict:
        return {
            "n0": self.n0,
            "Q": list(self.Q),
            "pairs": [list(p) for p in self.pairs],
            "I_k": list(self.I_k),
            "bound_ok": self.bound_ok,
            "compat_violations": [list(v) for v in self.compat_violations],
        }

    def write_autocorr_csv(self, path: str, record: np.ndarray) -> str:
        """Lag table "n,delta,threshold0,threshold_n0" over all lags, for confidence-limit plots.

        `record` is the coefficient record the report was built from.  Its
        lags 0..max(max_lag, n0), all that the report and the Bartlett bands
        read, are estimated anew by the loop, and a record of another length,
        or whose window differs from the report's, raises ValueError.  The
        lags past them come from window sums and one rFFT (see _every_lag).
        """
        n_count = self.series.n_count
        if np.size(record) != n_count:
            raise ValueError(f"record of length {np.size(record)} is not this report's (N={n_count})")
        window = self.series.delta
        head = autocorr_estimate(record, max(window.size - 1, self.n0)).delta
        # the same loop on the same record: equal to the bit
        if not np.array_equal(head[: window.size], window, equal_nan=True):
            raise ValueError(f"record's lags 0..{window.size - 1} differ from this report's: not its record")
        series = AutocorrSeries(delta=_every_lag(record, head), n_count=n_count)
        n_cells, threshold0 = _fixed_autocorr_cells(n_count, self.significance)
        band = self.significance * bartlett_stderr(series, self.n0, np.arange(self.n0 + 1, n_count))
        # lags up to the hypothesized cut have no threshold, and undefined lags no delta: empty cells
        threshold_n0 = [""] * (self.n0 + 1) + csv_cells(band)
        delta = csv_cells(series.delta)
        for n in np.flatnonzero(~np.isfinite(series.delta)).tolist():
            delta[n] = ""
        return write_table(path, ("n", "delta", "threshold0", "threshold_n0"), n_cells, delta, threshold0, threshold_n0)


def build_selection(
    data: NoisyDataset | np.ndarray,
    significance: float = SIGNIFICANCE,
    max_lag: int | None = None,
    randomness_test: str = "portmanteau",
) -> SelectionReport:
    """Run the whole pipeline; the report derives the consistency diagnostics.

    The diagnostics do not gate anything: the selection is returned even when
    the combinatorial bound or a pairwise compatibility constraint fails.
    """
    coeffs = data.coeffs if isinstance(data, NoisyDataset) else _record(data)
    if coeffs.size < 8:
        raise DegenerateSequenceError("selection needs a record of at least 8 coefficients")
    _check_finite(coeffs)
    top = _scan_lags(coeffs.size, max_lag, significance)
    series = autocorr_estimate(coeffs, top)  # every lag the selection reads
    n0 = detect_n0(series, significance, max_lag, randomness_test)
    Q = build_Q(series, n0, significance)
    return SelectionReport(
        n0=n0, Q=Q, pairs=select_pairs(coeffs, Q), series=series, significance=significance
    )


def reconstruct_bhat(
    data: NoisyDataset, es: EigenSystem, report: SelectionReport
) -> RegularizedSolution:
    """Selected-component estimate: gbar_k/lam_k on I_k, zero elsewhere."""
    params = {
        "n0": report.n0, "Q": list(report.Q), "bound_ok": report.bound_ok, "compat_ok": report.compat_ok,
    }
    return truncated_expansion(data, es, report.I_k, "autocorrelation_selection", params)
